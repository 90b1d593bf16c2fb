#include "runtime/growable_log_buffer.h"

#include <cstring>

namespace mutls {

namespace {
// Initial dense-log capacity (entries). Matches the old std::vector
// reserve: small speculations never grow the log, and one pool class holds
// it for every slot.
constexpr size_t kInitialLogCap = 1024;
}  // namespace

void GrowableSet::init(int log2_entries, SpecBufferStats* stats,
                       int max_log2, Arena* arena) {
  MUTLS_CHECK(log2_entries >= 4 && log2_entries <= kMaxLog2,
              "buffer log2 size out of range");
  MUTLS_CHECK(max_log2 >= log2_entries && max_log2 <= kMaxLog2,
              "growable hard cap out of range");
  // Re-init releases prior storage through the arena it was grabbed from
  // before re-binding (the arrays may shrink back to the initial sizes;
  // the pool keeps the released blocks for the next growth).
  release_storage();
  arena_ = arena;
  log2_ = log2_entries;
  shift_ = 64 - log2_;
  max_log2_ = max_log2;
  const size_t cap = size_t{1} << log2_;
  index_ = static_cast<uint32_t*>(arena_grab(arena_, cap * sizeof(uint32_t)));
  std::memset(index_, 0, cap * sizeof(uint32_t));
  log_cap_ = kInitialLogCap;
  log_ = static_cast<Entry*>(arena_grab(arena_, log_cap_ * sizeof(Entry)));
  log_size_ = 0;
  resized_this_epoch_ = false;
  stats_ = stats;
}

void GrowableSet::release_storage() {
  if (index_ != nullptr) {
    arena_release(arena_, index_, (size_t{1} << log2_) * sizeof(uint32_t));
    index_ = nullptr;
  }
  if (log_ != nullptr) {
    arena_release(arena_, log_, log_cap_ * sizeof(Entry));
    log_ = nullptr;
  }
  log_size_ = 0;
  log_cap_ = 0;
}

void GrowableSet::rebuild_index(int new_log2) {
  arena_release(arena_, index_, (size_t{1} << log2_) * sizeof(uint32_t));
  log2_ = new_log2;
  shift_ = 64 - log2_;
  const size_t cap = size_t{1} << log2_;
  index_ = static_cast<uint32_t*>(arena_grab(arena_, cap * sizeof(uint32_t)));
  std::memset(index_, 0, cap * sizeof(uint32_t));
  const size_t mask = cap - 1;
  // Rehash from the dense log; re-probe costs are part of the resize, not
  // the per-access probe counters.
  for (size_t i = 0; i < log_size_; ++i) {
    size_t idx = home_slot(log_[i].word_addr);
    while (index_[idx] != 0) idx = (idx + 1) & mask;
    index_[idx] = static_cast<uint32_t>(i + 1);
    log_[i].slot = static_cast<uint32_t>(idx);
  }
}

size_t GrowableSet::grow_for(uintptr_t word_addr) {
  resized_this_epoch_ = true;
  ++stats_->resize_events;
  rebuild_index(log2_ + 1);
  const size_t mask = capacity() - 1;
  size_t idx = home_slot(word_addr);
  while (index_[idx] != 0) idx = (idx + 1) & mask;
  return idx;
}

void GrowableSet::grow_log() {
  const size_t cap = log_cap_ * 2;
  Entry* fresh = static_cast<Entry*>(arena_grab(arena_, cap * sizeof(Entry)));
  std::memcpy(fresh, log_, log_size_ * sizeof(Entry));
  arena_release(arena_, log_, log_cap_ * sizeof(Entry));
  log_ = fresh;
  log_cap_ = cap;
}

void GrowableSet::reserve_entries(size_t entries) {
  if (entries == 0 || index_ == nullptr) return;
  if (entries > log_cap_) {
    size_t cap = log_cap_;
    while (cap < entries) cap *= 2;
    Entry* fresh =
        static_cast<Entry*>(arena_grab(arena_, cap * sizeof(Entry)));
    std::memcpy(fresh, log_, log_size_ * sizeof(Entry));
    arena_release(arena_, log_, log_cap_ * sizeof(Entry));
    log_ = fresh;
    log_cap_ = cap;
  }
  int target = log2_;
  while (target < max_log2_ &&
         entries > (size_t{1} << target) - (size_t{1} << target) / 4) {
    ++target;
  }
  if (target != log2_) rebuild_index(target);
}

void GrowableSet::clear() {
  for (size_t i = 0; i < log_size_; ++i) index_[log_[i].slot] = 0;
  log_size_ = 0;
  resized_this_epoch_ = false;
}

void GrowableLogBuffer::init(int log2_entries, size_t overflow_cap,
                             SpecBufferStats* stats, int max_log2,
                             Arena* arena) {
  (void)overflow_cap;  // no bounded overflow in this backend
  stats_ = stats;
  read_set_.init(log2_entries, stats, max_log2, arena);
  write_set_.init(log2_entries, stats, max_log2, arena);
}

void GrowableLogBuffer::reset() {
  read_set_.clear();
  write_set_.clear();
  doomed_ = false;
  doom_reason_ = "";
  // The stats block belongs to the owning SpecBuffer and intentionally
  // survives reset: the settle paths read the counters after resetting.
}

}  // namespace mutls
