// Growable-log speculative buffering backend, the kGrowableLog backend of
// the SpecBuffer API ("runtime/spec_buffer.h").
//
// Trades the paper's static-hash design point the other way: instead of a
// fixed table with a bounded overflow map that dooms the thread when it
// fills (rollback on capacity pressure), each set is an append-only log of
// (word, data, mark) entries indexed by an open-addressed, linearly-probed
// hash table that *resizes* under load. A speculation can therefore never
// fail for capacity reasons — the cost moves into occasional rehashes and
// longer probe sequences, which the SpecBufferStats counters expose so the
// trade can be measured (bench_ablation_buffer_map).
//
//   log   — densely packed entries in insertion order: validation, commit
//           and merge walk the log linearly, never the sparse index
//   index — power-of-two open-addressed table of log positions (+1, 0 =
//           empty), grown at 3/4 load factor; Fibonacci-mixed home slots
//           keep strided word addresses from clustering
//
// Capacity grows but never shrinks across reset(): a virtual-CPU slot that
// once ran a large speculation keeps its table, amortizing the rehashes.
// Both arrays live in the owning slot's Arena pool when one is attached
// (heap otherwise): a resize releases the old block into a size-class free
// list and grabs the next class, so the read- and write-set of a slot
// recycle each other's outgrown arrays instead of round-tripping malloc.
//
// Like the static hash, this class provides only the word-granular slot
// primitives (WordRef in "runtime/memory.h"); the speculative view
// composition, the MRU word-view cache, validation, commit and the
// tree-form merge policy live once in SpecBuffer. The handles this backend
// hands out are log positions — resize-stable, unlike entry pointers — so
// they stay valid in SpecBuffer's MRU line across rehashes.
#pragma once

#include <cstdint>

#include "runtime/buffer_stats.h"
#include "runtime/memory.h"
#include "support/arena.h"
#include "support/check.h"

namespace mutls {

// One growable set (either the read-set or the write-set).
class GrowableSet {
 public:
  struct Entry {
    uintptr_t word_addr;
    uint64_t data;
    uint64_t mark;
    uint32_t slot;  // index_ slot holding this entry, for O(entries) clear
  };

  // The index never grows past 2^kMaxLog2 slots by default. At that size
  // the load factor is allowed to rise until one empty slot remains (probe
  // termination needs it); the owning buffer dooms the speculation before
  // the next insert instead of aborting the process.
  static constexpr int kMaxLog2 = 28;

  // `log2_entries` fixes the *initial* index capacity; `stats` receives
  // probe and resize counters; `max_log2` lowers the hard capacity below
  // kMaxLog2 (a memory bound, and the seam the doom-path tests use —
  // nothing can allocate its way to 2^28 entries in a test). `arena`, when
  // given, backs the log and index arrays through its persistent pool.
  void init(int log2_entries, SpecBufferStats* stats, int max_log2 = kMaxLog2,
            Arena* arena = nullptr);

  GrowableSet() = default;
  ~GrowableSet() { release_storage(); }

  bool initialized() const { return index_ != nullptr; }

  bool at_hard_capacity() const {
    return log2_ >= max_log2_ && entry_count() + 1 >= capacity();
  }

  // Finds the entry for `word_addr`, appending a zeroed one (and growing
  // the index if needed) when absent. Never fails. The reference stays
  // valid until the next find_or_insert on this set. The probe and the
  // append are inline; growing the index or the log is not.
  Entry& find_or_insert(uintptr_t word_addr, bool& inserted) {
    MUTLS_DCHECK((word_addr & kWordMask) == 0, "unaligned word address");
    MUTLS_DCHECK(!at_hard_capacity(),
                 "insert into a growable set at hard capacity (the owning "
                 "buffer must doom first)");
    const size_t mask = capacity() - 1;
    size_t idx = home_slot(word_addr);
    ++stats_->probe_ops;
    while (true) {
      uint32_t pos = index_[idx];
      if (pos == 0) {
        inserted = true;
        return append(word_addr, idx);
      }
      Entry& e = log_[pos - 1];
      if (e.word_addr == word_addr) {
        inserted = false;
        return e;
      }
      ++stats_->probe_steps;
      idx = (idx + 1) & mask;
    }
  }

  // Finds without inserting; null if absent.
  Entry* find(uintptr_t word_addr) {
    if (index_ == nullptr) return nullptr;
    const size_t mask = capacity() - 1;
    size_t idx = home_slot(word_addr);
    ++stats_->probe_ops;
    while (true) {
      uint32_t pos = index_[idx];
      if (pos == 0) return nullptr;
      Entry& e = log_[pos - 1];
      if (e.word_addr == word_addr) return &e;
      ++stats_->probe_steps;
      idx = (idx + 1) & mask;
    }
  }

  // Log positions (+1, 0 = none) are the resize-stable handle to an entry:
  // they survive both log reallocation and index rehashes, unlike raw
  // pointers — which is what the unified MRU cache stores.
  uint32_t position_of(const Entry* e) const {
    return e ? static_cast<uint32_t>(e - log_) + 1 : 0;
  }
  Entry& at_position(uint32_t pos) { return log_[pos - 1]; }

  // Visits every entry in insertion order.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (size_t i = 0; i < log_size_; ++i) fn(log_[i]);
  }

  size_t entry_count() const { return log_size_; }
  size_t capacity() const {
    return index_ != nullptr ? size_t{1} << log2_ : 0;
  }
  bool resized_this_epoch() const { return resized_this_epoch_; }

  // Empties the set in O(entries), not O(capacity); keeps the grown index.
  void clear();

 private:
  // Fibonacci hashing: multiplicative mix, top bits select the home slot.
  // Linear probing needs scattered home slots even for the strided word
  // addresses block-based workloads produce.
  size_t home_slot(uintptr_t word_addr) const {
    return static_cast<size_t>(
        ((word_addr >> 3) * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  // Appends a zeroed entry for `word_addr` whose probe ended at the empty
  // index slot `idx`.
  Entry& append(uintptr_t word_addr, size_t idx) {
    // Keep the load factor at or below 3/4 so probe sequences stay short (a
    // lookup hit must never pay a rehash); past max_log2_ the factor rises
    // instead (the caller dooms before the table could actually fill).
    if (log_size_ + 1 > capacity() - capacity() / 4 && log2_ < max_log2_) {
      idx = grow_for(word_addr);
    }
    if (log_size_ == log_cap_) grow_log();
    log_[log_size_] = Entry{word_addr, 0, 0, static_cast<uint32_t>(idx)};
    ++log_size_;
    index_[idx] = static_cast<uint32_t>(log_size_);
    return log_[log_size_ - 1];
  }

  // Doubles the index and returns the empty slot `word_addr` probes to in
  // the grown one.
  size_t grow_for(uintptr_t word_addr);
  void grow_log();
  // Releases both arrays back to the pool (or heap) they came from.
  void release_storage();
  // Swaps the index for a zeroed one of 2^new_log2 slots and rehashes
  // every log entry into it.
  void rebuild_index(int new_log2);

  Entry* log_ = nullptr;          // arena-pooled; dense [0, log_size_)
  size_t log_size_ = 0;
  size_t log_cap_ = 0;
  uint32_t* index_ = nullptr;     // log position + 1; 0 = empty; 2^log2_
  int log2_ = 0;
  int shift_ = 64;  // 64 - log2_
  int max_log2_ = kMaxLog2;
  bool resized_this_epoch_ = false;
  SpecBufferStats* stats_ = nullptr;
  Arena* arena_ = nullptr;
};

class GrowableLogBuffer {
 public:
  GrowableLogBuffer() = default;
  // After init the sets hold a pointer to the owning SpecBuffer's stats,
  // so a copied/moved buffer would count into the original. Never needed.
  GrowableLogBuffer(const GrowableLogBuffer&) = delete;
  GrowableLogBuffer& operator=(const GrowableLogBuffer&) = delete;

  // Matches the static-hash init signature so SpecBuffer can configure
  // either backend uniformly; `overflow_cap` has no meaning here (there is
  // no bounded overflow to cap). `max_log2` bounds the growable index;
  // `arena` backs both sets' arrays through its persistent pool.
  void init(int log2_entries, size_t overflow_cap, SpecBufferStats* stats,
            int max_log2 = GrowableSet::kMaxLog2, Arena* arena = nullptr);

  // --- word-granular slot primitives (driven by SpecBuffer) ---

  // Lookups without insertion; .data is null when absent.
  WordRef find_read(uintptr_t word_addr) {
    GrowableSet::Entry* e = read_set_.find(word_addr);
    return e ? WordRef{&e->data, nullptr, read_set_.position_of(e)}
             : WordRef{};
  }
  WordRef find_write(uintptr_t word_addr) {
    GrowableSet::Entry* e = write_set_.find(word_addr);
    return e ? WordRef{&e->data, &e->mark, write_set_.position_of(e)}
             : WordRef{};
  }

  // Lookup-or-insert. Dooms (returning a null .data) only at the hard
  // index capacity — ~2^28 distinct words by default, past the point where
  // resizing can help — exactly like static-hash exhaustion instead of
  // aborting the process; a merge-specific reason is used when `merging`.
  WordRef insert_read(uintptr_t word_addr, bool& inserted, bool merging) {
    if (read_set_.at_hard_capacity()) {
      capacity_doom(merging ? "read-set exhausted the maximum growable index "
                              "while adopting a child commit"
                            : "read-set exhausted the maximum growable index");
      return WordRef{};
    }
    GrowableSet::Entry& e = read_set_.find_or_insert(word_addr, inserted);
    return WordRef{&e.data, nullptr, read_set_.position_of(&e)};
  }
  WordRef insert_write(uintptr_t word_addr, bool merging) {
    if (write_set_.at_hard_capacity()) {
      capacity_doom(merging ? "write-set exhausted the maximum growable index "
                              "while adopting a child commit"
                            : "write-set exhausted the maximum growable index");
      return WordRef{};
    }
    bool inserted = false;
    GrowableSet::Entry& e = write_set_.find_or_insert(word_addr, inserted);
    return WordRef{&e.data, &e.mark, write_set_.position_of(&e)};
  }

  // Handle-indexed write-set access for MRU-cached slots (handle = log
  // position, as handed out in WordRef::handle; stable across resizes).
  uint64_t& write_data(uint32_t handle) {
    return write_set_.at_position(handle).data;
  }
  uint64_t& write_mark(uint32_t handle) {
    return write_set_.at_position(handle).mark;
  }

  // Visits every read-set entry as fn(word_addr, data).
  template <typename Fn>
  void for_each_read(Fn&& fn) {
    read_set_.for_each(
        [&](GrowableSet::Entry& e) { fn(e.word_addr, e.data); });
  }

  // Visits every write-set entry as fn(word_addr, data, mark).
  template <typename Fn>
  void for_each_write(Fn&& fn) {
    write_set_.for_each(
        [&](GrowableSet::Entry& e) { fn(e.word_addr, e.data, e.mark); });
  }

  // Discards all buffered state; clears doom. Grown index capacity is kept.
  void reset();

  // This backend dooms itself only at the hard index capacity (no
  // realistic speculation reaches the default); external conditions — wild
  // accesses, escaped exceptions, abort signals — still doom through here.
  bool doomed() const { return doomed_; }
  const char* doom_reason() const { return doom_reason_; }
  void doom(const char* reason) {
    doomed_ = true;
    doom_reason_ = reason;
  }

  // Capacity pressure: the current speculation forced at least one resize.
  bool pressure() const {
    return read_set_.resized_this_epoch() || write_set_.resized_this_epoch();
  }

  size_t read_entries() const { return read_set_.entry_count(); }
  size_t write_entries() const { return write_set_.entry_count(); }

 private:
  void capacity_doom(const char* reason) {
    doom(reason);
    ++stats_->overflow_events;
  }

  GrowableSet read_set_;
  GrowableSet write_set_;
  bool doomed_ = false;
  const char* doom_reason_ = "";
  SpecBufferStats* stats_ = nullptr;
};

}  // namespace mutls
