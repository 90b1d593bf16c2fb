// Static-hash speculative buffering backend (paper section IV-G2), the
// kStaticHash backend of the SpecBuffer API ("runtime/spec_buffer.h").
//
// Each speculative thread owns one buffer holding a read-set and a
// write-set over main-memory words. Both sets use the paper's *static* map:
//
//   buffer    — N words of data
//   addresses — N word-aligned keys, 0 = empty slot
//   offsets   — stack of occupied slot indices, so validation / commit /
//               finalization of threads touching little data stay fast
//   mark      — N words of per-byte dirty masks (write-set only)
//
// The hash is the low bits of the word address, one slot per key, no
// probing: a slot collision diverts the access to a small bounded overflow
// map ("temporary buffer" in the paper). When the overflow map fills, the
// thread is doomed: it stops at its next check point / barrier and reports
// ROLLBACK at synchronization.
//
// This class provides only the word-granular slot primitives (WordRef in
// "runtime/memory.h"): find/insert into either set, handle-indexed access
// for MRU-cached write slots, and the set walks. Everything with policy in it —
// the byte-level load/store splitting, the speculative view composition,
// the MRU word-view cache state machine, validation, commit and the
// tree-form merge (including read-adoption policy) — lives once in
// SpecBuffer, generic over the backend primitives. Only static-table slots
// hand out cacheable handles (their storage never moves); a store to an
// overflow resident always takes the probing path.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/buffer_stats.h"
#include "runtime/memory.h"
#include "support/check.h"

namespace mutls {

// One static hash map (either the read-set or the write-set).
class BufferMap {
 public:
  // Static-table index of a resolved slot, or kNoSlot for bounded-overflow
  // residents (whose storage moves when the overflow vector grows and must
  // therefore never be cached).
  static constexpr uint32_t kNoSlot = 0xffffffffu;

  struct Slot {
    uint64_t* data = nullptr;
    uint64_t* mark = nullptr;  // null when the map carries no marks
    uint32_t table_index = kNoSlot;
  };

  enum class Find { kFound, kInserted, kFull };

  BufferMap() = default;

  // `log2_entries` fixes the static size N = 2^log2_entries;
  // `overflow_cap` bounds the temporary buffer; `with_marks` is true for
  // the write-set. `stats`, when given, receives probe counters (the
  // overflow scan is this map's probe sequence).
  void init(int log2_entries, size_t overflow_cap, bool with_marks,
            SpecBufferStats* stats = nullptr);

  bool initialized() const { return addresses_ != nullptr; }

  // Finds the slot for `word_addr`, inserting (zeroed) if absent. The
  // static-table hit and first-touch paths are inline; a slot collision
  // takes the out-of-line overflow scan.
  Find find_or_insert(uintptr_t word_addr, Slot& out) {
    MUTLS_DCHECK((word_addr & kWordMask) == 0, "unaligned word address");
    size_t idx = slot_index(word_addr);
    if (stats_) ++stats_->probe_ops;
    if (addresses_[idx] == word_addr) {
      out = table_slot(idx);
      return Find::kFound;
    }
    if (addresses_[idx] == 0) {
      addresses_[idx] = word_addr;
      buffer_[idx] = 0;
      if (marks_) marks_[idx] = 0;
      offsets_.push_back(static_cast<uint32_t>(idx));
      out = table_slot(idx);
      return Find::kInserted;
    }
    return overflow_find_or_insert(word_addr, out);
  }

  // Finds without inserting; returns false if absent.
  bool find(uintptr_t word_addr, Slot& out) {
    size_t idx = slot_index(word_addr);
    if (stats_) ++stats_->probe_ops;
    if (addresses_[idx] == word_addr) {
      out = table_slot(idx);
      return true;
    }
    if (addresses_[idx] == 0) return false;
    return overflow_find(word_addr, out);
  }

  // Visits every occupied entry as fn(word_addr, data&, mark&).
  // `mark` references a dummy full mark when the map carries no marks.
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (uint32_t idx : offsets_) {
      fn(addresses_[idx], buffer_[idx], marks_ ? marks_[idx] : dummy_mark_);
    }
    for (OverflowEntry& e : overflow_) {
      fn(e.word_addr, e.data, e.mark);
    }
  }

  // Direct static-table access for MRU-cached slots (index from
  // Slot::table_index; stable for the life of the map).
  uint64_t& data_at(uint32_t idx) { return buffer_[idx]; }
  uint64_t& mark_at(uint32_t idx) { return marks_[idx]; }

  size_t entry_count() const { return offsets_.size() + overflow_.size(); }
  size_t overflow_count() const { return overflow_.size(); }
  bool overflow_pressure() const { return !overflow_.empty(); }

  // Empties the map in O(entries), not O(N).
  void clear();

 private:
  struct OverflowEntry {
    uintptr_t word_addr;
    uint64_t data;
    uint64_t mark;
  };

  size_t slot_index(uintptr_t word_addr) const {
    return (word_addr >> 3) & mask_;
  }
  Slot table_slot(size_t idx) {
    return Slot{&buffer_[idx], marks_ ? &marks_[idx] : nullptr,
                static_cast<uint32_t>(idx)};
  }

  // Slot collision: the paper's "temporary buffer" path. The linear scan
  // is this map's probe sequence.
  Find overflow_find_or_insert(uintptr_t word_addr, Slot& out);
  bool overflow_find(uintptr_t word_addr, Slot& out);

  std::unique_ptr<uint64_t[]> buffer_;
  std::unique_ptr<uintptr_t[]> addresses_;
  std::unique_ptr<uint64_t[]> marks_;
  std::vector<uint32_t> offsets_;
  std::vector<OverflowEntry> overflow_;
  size_t mask_ = 0;
  size_t overflow_cap_ = 0;
  uint64_t dummy_mark_ = kFullMark;
  SpecBufferStats* stats_ = nullptr;
};

class GlobalBuffer {
 public:
  GlobalBuffer() = default;
  // After init the maps hold a pointer to the owning SpecBuffer's stats,
  // so a copied/moved buffer would count into the original. Never needed.
  GlobalBuffer(const GlobalBuffer&) = delete;
  GlobalBuffer& operator=(const GlobalBuffer&) = delete;

  // `stats` is the owning SpecBuffer's counter block.
  void init(int log2_entries, size_t overflow_cap, SpecBufferStats* stats);

  // --- word-granular slot primitives (driven by SpecBuffer) ---

  // Lookups without insertion; .data is null when absent.
  WordRef find_read(uintptr_t word_addr) {
    BufferMap::Slot s;
    return read_set_.find(word_addr, s) ? as_ref(s) : WordRef{};
  }
  WordRef find_write(uintptr_t word_addr) {
    BufferMap::Slot s;
    return write_set_.find(word_addr, s) ? as_ref(s) : WordRef{};
  }

  // Lookup-or-insert. `inserted` reports a first touch (the caller loads
  // the main-memory word / applies first-value-wins). On overflow
  // exhaustion the returned .data is null and this buffer has doomed
  // itself — with a merge-specific reason when `merging`, so a joiner's
  // rollback points at the adopted child commit rather than its own
  // access path.
  WordRef insert_read(uintptr_t word_addr, bool& inserted, bool merging) {
    BufferMap::Slot s;
    BufferMap::Find f = read_set_.find_or_insert(word_addr, s);
    if (f == BufferMap::Find::kFull) {
      overflow_doom(merging ? "read-set overflow while adopting a child commit"
                            : "read-set overflow buffer full");
      return WordRef{};
    }
    inserted = f == BufferMap::Find::kInserted;
    return as_ref(s);
  }
  WordRef insert_write(uintptr_t word_addr, bool merging) {
    BufferMap::Slot s;
    if (write_set_.find_or_insert(word_addr, s) == BufferMap::Find::kFull) {
      overflow_doom(merging ? "write-set overflow while adopting a child commit"
                            : "write-set overflow buffer full");
      return WordRef{};
    }
    return as_ref(s);
  }

  // Handle-indexed write-set access for MRU-cached slots (handle = table
  // index + 1, as handed out in WordRef::handle).
  uint64_t& write_data(uint32_t handle) {
    return write_set_.data_at(handle - 1);
  }
  uint64_t& write_mark(uint32_t handle) {
    return write_set_.mark_at(handle - 1);
  }

  // Visits every read-set entry as fn(word_addr, data).
  template <typename Fn>
  void for_each_read(Fn&& fn) {
    read_set_.for_each(
        [&](uintptr_t addr, uint64_t& data, uint64_t&) { fn(addr, data); });
  }

  // Visits every write-set entry as fn(word_addr, data, mark).
  template <typename Fn>
  void for_each_write(Fn&& fn) {
    write_set_.for_each([&](uintptr_t addr, uint64_t& data, uint64_t& mark) {
      fn(addr, data, mark);
    });
  }

  // Discards all buffered state; clears doom.
  void reset();

  bool doomed() const { return doomed_; }
  const char* doom_reason() const { return doom_reason_; }
  void doom(const char* reason) {
    doomed_ = true;
    doom_reason_ = reason;
  }

  // Capacity pressure: accesses are landing in the bounded overflow map.
  bool pressure() const {
    return read_set_.overflow_pressure() || write_set_.overflow_pressure();
  }

  size_t read_entries() const { return read_set_.entry_count(); }
  size_t write_entries() const { return write_set_.entry_count(); }

 private:
  void overflow_doom(const char* reason) {
    doom(reason);
    ++stats_->overflow_events;
  }

  static WordRef as_ref(const BufferMap::Slot& s) {
    return WordRef{s.data, s.mark,
                   s.table_index != BufferMap::kNoSlot ? s.table_index + 1
                                                       : 0};
  }

  BufferMap read_set_;
  BufferMap write_set_;
  bool doomed_ = false;
  const char* doom_reason_ = "";
  SpecBufferStats* stats_ = nullptr;
};

}  // namespace mutls
