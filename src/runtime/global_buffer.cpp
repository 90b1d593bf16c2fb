#include "runtime/global_buffer.h"

#include <sys/mman.h>

#include <algorithm>

namespace mutls {

void BufferMap::Unmap::operator()(void* table) const { munmap(table, bytes); }

void BufferMap::init(int log2_entries, size_t overflow_cap, bool with_marks,
                     SpecBufferStats* stats) {
  MUTLS_CHECK(log2_entries >= 4 && log2_entries <= 28,
              "buffer log2 size out of range");
  size_t n = size_t{1} << log2_entries;
  size_t array_bytes = n * sizeof(uint64_t);
  size_t bytes = array_bytes * (with_marks ? 3 : 2);
  // Reserved, not committed: NORESERVE charges nothing for untouched
  // pages, and NOHUGEPAGE keeps a first touch to one small page on a host
  // that backs anonymous memory with huge pages by default.
  void* table = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  MUTLS_CHECK(table != MAP_FAILED, "cannot map the buffer table");
  madvise(table, bytes, MADV_NOHUGEPAGE);
  // Replacing the owner unmaps a previous init's table.
  table_ = std::unique_ptr<void, Unmap>(table, Unmap{bytes});
  auto* base = static_cast<char*>(table);
  addresses_ = reinterpret_cast<uintptr_t*>(base);
  buffer_ = reinterpret_cast<uint64_t*>(base + array_bytes);
  marks_ = with_marks ? reinterpret_cast<uint64_t*>(base + 2 * array_bytes)
                      : nullptr;
  offsets_.clear();
  offsets_.reserve(1024);
  overflow_.clear();
  overflow_.reserve(std::min<size_t>(overflow_cap, 1024));
  mask_ = n - 1;
  overflow_cap_ = overflow_cap;
  stats_ = stats;
}

BufferMap::Find BufferMap::overflow_find_or_insert(uintptr_t word_addr,
                                                   Slot& out) {
  if (overflow_find(word_addr, out)) return Find::kFound;
  if (overflow_.size() >= overflow_cap_) {
    return Find::kFull;
  }
  overflow_.push_back(OverflowEntry{word_addr, 0, 0});
  out.data = &overflow_.back().data;
  out.mark = marks_ ? &overflow_.back().mark : nullptr;
  out.table_index = kNoSlot;
  return Find::kInserted;
}

bool BufferMap::overflow_find(uintptr_t word_addr, Slot& out) {
  for (OverflowEntry& e : overflow_) {
    if (stats_) ++stats_->probe_steps;
    if (e.word_addr == word_addr) {
      out.data = &e.data;
      out.mark = marks_ ? &e.mark : nullptr;
      out.table_index = kNoSlot;
      return true;
    }
  }
  return false;
}

void BufferMap::clear() {
  for (uint32_t idx : offsets_) addresses_[idx] = 0;
  offsets_.clear();
  overflow_.clear();
}

void GlobalBuffer::init(int log2_entries, size_t overflow_cap,
                        SpecBufferStats* stats) {
  stats_ = stats;
  read_set_.init(log2_entries, overflow_cap, /*with_marks=*/false, stats);
  write_set_.init(log2_entries, overflow_cap, /*with_marks=*/true, stats);
}

void GlobalBuffer::reset() {
  read_set_.clear();
  write_set_.clear();
  doomed_ = false;
  doom_reason_ = "";
  // The stats block belongs to the owning SpecBuffer and intentionally
  // survives reset: the settle paths read the counters after resetting.
}

}  // namespace mutls
