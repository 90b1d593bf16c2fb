// NUMA-sharded speculative buffering backend, the kNumaSharded backend of
// the SpecBuffer API ("runtime/spec_buffer.h").
//
// Splits each read/write set by *address range* into per-node sub-stores:
// shard = bits [region_log2, region_log2 + log2(shards)) of the word
// address, so a contiguous footprint (the common shape of block-distributed
// loops) lands almost entirely in one shard instead of interleaving across
// all of them. Validation, commit and merge then walk one dense shard at a
// time — on a NUMA box whose shard arrays were touched (and thus
// first-touch-placed) node-locally, the large-footprint join paths stream
// from local memory instead of hopping a single interleaved table.
//
// Each shard is a pair of GrowableSets (the growable-log building block of
// "runtime/growable_log_buffer.h"), so capacity pressure resizes per shard
// rather than dooming, and all the arena pooling, Fibonacci-hashed probing
// and resize-stable log positions are inherited rather than rewritten.
//
// Like every backend this class is just a slot store: it exposes only the
// word-granular WordRef primitives and the set walks; the MRU cache, view
// composition, validation, commit and the tree-form merge policy live once
// in SpecBuffer. Handles pack (shard, per-shard log position): positions
// are resize-stable within their shard and a word's shard never changes,
// so the handles survive rehashes exactly like the growable log's.
//
// Two counters are this backend's own (SpecBufferStats):
//   shard_probe_steps  — address-range routing decisions taken (one per
//                        find/insert reaching the sharded store)
//   local_commit_words — write-set words resident in the slot's *home*
//                        shard at commit time (accounted by SpecBuffer),
//                        i.e. the fraction of the commit that streams from
//                        node-local memory
#pragma once

#include <cstdint>

#include "runtime/buffer_stats.h"
#include "runtime/growable_log_buffer.h"
#include "runtime/memory.h"
#include "support/arena.h"
#include "support/check.h"

namespace mutls {

// The kNumaSharded routing policy (ignored by the other backends). The
// knobs surface as ManagerConfig::numa_* and ride the usual Options
// plumbing; ThreadManager derives `shards` from the probed (or faked)
// topology and `home_shard` from the owning slot's node.
struct SpecNumaPolicy {
  // Number of address-range shards; rounded up to a power of two and
  // clamped to [1, kMaxShards]. One per NUMA node is the intended shape.
  int shards = 2;
  // log2 of the contiguous byte range mapped to one shard before the
  // mapping advances to the next (4 KiB pages by default): large enough
  // that a blocked loop's footprint stays in one shard, small enough that
  // an arbitrary heap spreads across all of them.
  int region_log2 = 12;
  // The shard co-located with the owning virtual CPU's node; words
  // committed from it count as local_commit_words.
  int home_shard = 0;
};

class NumaShardedBuffer {
 public:
  static constexpr int kMaxShards = 16;
  // Handle layout: low kPosBits carry the per-shard log position (+1,
  // nonzero), high bits the shard index. Caps the per-shard index at
  // 2^(kPosBits - 1) entries so a position can never spill into the shard
  // bits; the whole store still spans shards * 2^26 = 2^30 words.
  static constexpr int kPosBits = 27;
  static constexpr uint32_t kPosMask = (uint32_t{1} << kPosBits) - 1;
  static constexpr int kShardMaxLog2 = kPosBits - 1;

  NumaShardedBuffer() = default;
  // After init the sets hold a pointer to the owning SpecBuffer's stats,
  // so a copied/moved buffer would count into the original. Never needed.
  NumaShardedBuffer(const NumaShardedBuffer&) = delete;
  NumaShardedBuffer& operator=(const NumaShardedBuffer&) = delete;

  // Matches the other backends' init signature; `overflow_cap` has no
  // meaning here (shards resize like the growable log). `log2_entries`
  // sizes the whole store — each shard starts at its proportional share.
  // `max_log2` bounds each shard's index (clamped to kShardMaxLog2 so
  // handles stay packable); `arena` backs every shard's arrays.
  void init(int log2_entries, size_t overflow_cap, SpecBufferStats* stats,
            int max_log2 = GrowableSet::kMaxLog2, Arena* arena = nullptr,
            SpecNumaPolicy policy = {});

  // --- word-granular slot primitives (driven by SpecBuffer) ---

  WordRef find_read(uintptr_t word_addr) {
    ++stats_->shard_probe_steps;
    int s = shard_of(word_addr);
    GrowableSet::Entry* e = shard_[s].read.find(word_addr);
    return e ? WordRef{&e->data, nullptr,
                       pack(s, shard_[s].read.position_of(e))}
             : WordRef{};
  }
  WordRef find_write(uintptr_t word_addr) {
    ++stats_->shard_probe_steps;
    int s = shard_of(word_addr);
    GrowableSet::Entry* e = shard_[s].write.find(word_addr);
    return e ? WordRef{&e->data, &e->mark,
                       pack(s, shard_[s].write.position_of(e))}
             : WordRef{};
  }
  WordRef insert_read(uintptr_t word_addr, bool& inserted, bool merging) {
    ++stats_->shard_probe_steps;
    int s = shard_of(word_addr);
    if (shard_[s].read.at_hard_capacity()) {
      capacity_doom(merging ? "read-set shard exhausted its maximum index "
                              "while adopting a child commit"
                            : "read-set shard exhausted its maximum index");
      return WordRef{};
    }
    GrowableSet::Entry& e = shard_[s].read.find_or_insert(word_addr, inserted);
    return WordRef{&e.data, nullptr, pack(s, shard_[s].read.position_of(&e))};
  }
  WordRef insert_write(uintptr_t word_addr, bool merging) {
    ++stats_->shard_probe_steps;
    int s = shard_of(word_addr);
    if (shard_[s].write.at_hard_capacity()) {
      capacity_doom(merging ? "write-set shard exhausted its maximum index "
                              "while adopting a child commit"
                            : "write-set shard exhausted its maximum index");
      return WordRef{};
    }
    bool inserted = false;
    GrowableSet::Entry& e =
        shard_[s].write.find_or_insert(word_addr, inserted);
    return WordRef{&e.data, &e.mark, pack(s, shard_[s].write.position_of(&e))};
  }

  // Handle-indexed write-set access for MRU-cached slots (handle =
  // shard/position pack, as handed out in WordRef::handle; stable across
  // resizes).
  uint64_t& write_data(uint32_t handle) {
    return shard_at(handle).write.at_position(handle & kPosMask).data;
  }
  uint64_t& write_mark(uint32_t handle) {
    return shard_at(handle).write.at_position(handle & kPosMask).mark;
  }

  // Visits every read-set entry as fn(word_addr, data) — one dense shard
  // at a time (the locality the backend exists for).
  template <typename Fn>
  void for_each_read(Fn&& fn) {
    for (int s = 0; s < shards_; ++s) {
      shard_[s].read.for_each(
          [&](GrowableSet::Entry& e) { fn(e.word_addr, e.data); });
    }
  }

  // Visits every write-set entry as fn(word_addr, data, mark).
  template <typename Fn>
  void for_each_write(Fn&& fn) {
    for (int s = 0; s < shards_; ++s) {
      shard_[s].write.for_each(
          [&](GrowableSet::Entry& e) { fn(e.word_addr, e.data, e.mark); });
    }
  }

  // Discards all buffered state; clears doom. Grown shard capacity kept.
  void reset();

  bool doomed() const { return doomed_; }
  const char* doom_reason() const { return doom_reason_; }
  void doom(const char* reason) {
    doomed_ = true;
    doom_reason_ = reason;
  }

  // Capacity pressure: some shard resized under the current speculation.
  bool pressure() const;

  size_t read_entries() const;
  size_t write_entries() const;

  // Write-set words resident in the home shard — the node-local fraction
  // of an imminent commit. SpecBuffer folds this into
  // stats().local_commit_words at commit time.
  size_t local_write_words() const {
    return shard_[home_shard_].write.entry_count();
  }

  int shard_count() const { return shards_; }
  int home_shard() const { return home_shard_; }

 private:
  void capacity_doom(const char* reason) {
    doom(reason);
    ++stats_->overflow_events;
  }

  struct Shard {
    GrowableSet read;
    GrowableSet write;
  };

  int shard_of(uintptr_t word_addr) const {
    return static_cast<int>((word_addr >> region_log2_) & shard_mask_);
  }
  Shard& shard_at(uint32_t handle) { return shard_[handle >> kPosBits]; }
  static uint32_t pack(int shard, uint32_t pos) {
    return static_cast<uint32_t>(shard) << kPosBits | pos;
  }

  Shard shard_[kMaxShards];
  int shards_ = 1;
  uintptr_t shard_mask_ = 0;
  int region_log2_ = 12;
  int home_shard_ = 0;
  bool doomed_ = false;
  const char* doom_reason_ = "";
  SpecBufferStats* stats_ = nullptr;
};

}  // namespace mutls
