// Raw word/byte access primitives used by the speculative memory system.
//
// Non-speculative commits to main memory can race (benignly, by TLS design)
// with speculative first-touch reads of the same words; those races are
// resolved by validation at join time. To keep that well-defined in C++ we
// route every main-memory access of the runtime through relaxed atomics on
// naturally-aligned words and bytes.
#pragma once

#include <cstdint>
#include <cstring>

namespace mutls {

// The WORD granularity of the speculative buffer maps (paper IV-G2).
constexpr size_t kWordSize = 8;
constexpr uintptr_t kWordMask = kWordSize - 1;

inline uintptr_t word_align_down(uintptr_t addr) { return addr & ~kWordMask; }

// The one eligibility rule of the aligned-word fast path
// (SpecBuffer::load_aligned/store_aligned): a naturally-aligned access of
// power-of-two size <= kWordSize can never straddle a buffered word.
constexpr bool word_sized_aligned(uintptr_t addr, size_t size) {
  return size <= kWordSize && (size & (size - 1)) == 0 &&
         (addr & (size - 1)) == 0;
}

inline uint64_t atomic_word_load(uintptr_t word_addr) {
  return __atomic_load_n(reinterpret_cast<const uint64_t*>(word_addr),
                         __ATOMIC_RELAXED);
}

inline void atomic_word_store(uintptr_t word_addr, uint64_t v) {
  __atomic_store_n(reinterpret_cast<uint64_t*>(word_addr), v,
                   __ATOMIC_RELAXED);
}

inline uint8_t atomic_byte_load(uintptr_t addr) {
  return __atomic_load_n(reinterpret_cast<const uint8_t*>(addr),
                         __ATOMIC_RELAXED);
}

inline void atomic_byte_store(uintptr_t addr, uint8_t v) {
  __atomic_store_n(reinterpret_cast<uint8_t*>(addr), v, __ATOMIC_RELAXED);
}

// Copies `size` bytes out of the word `w` starting at in-word offset `off`.
inline void copy_from_word(uint64_t w, size_t off, size_t size, void* out) {
  std::memcpy(out, reinterpret_cast<const char*>(&w) + off, size);
}

// Overlays `size` bytes into the word `w` at in-word offset `off`.
inline void copy_into_word(uint64_t& w, size_t off, size_t size,
                           const void* src) {
  std::memcpy(reinterpret_cast<char*>(&w) + off, src, size);
}

// Mark word with the `size` bytes starting at `off` set to 0xFF
// (the paper's `mark` array records which bytes of a buffered word were
// actually written).
inline uint64_t byte_mask(size_t off, size_t size) {
  if (size >= kWordSize) return ~0ull;
  uint64_t m = ((1ull << (8 * size)) - 1) << (8 * off);
  return m;
}

constexpr uint64_t kFullMark = ~0ull;

// Overlays the bytes of `data` selected by `mask` onto `base` — the one
// byte-granular merge rule of the whole buffering protocol (speculative
// view composition, write-set overlay, tree-form adoption).
inline uint64_t overlay_bytes(uint64_t base, uint64_t data, uint64_t mask) {
  return (base & ~mask) | (data & mask);
}

// Reference to one buffered word, the return shape of every backend slot
// primitive (find_read / find_write / insert_read / insert_write). This is
// the contract the unified machinery in SpecBuffer — the MRU word-view
// cache, the view composition, the tree-form merge policy — is written
// against, so both halves of the reference mean the same thing in every
// backend:
//   data/mark — storage of the entry; data == nullptr means "absent" from
//               a find, "capacity exhausted, the backend has doomed
//               itself" from an insert. mark is null for read-set refs.
//   handle    — the backend's MRU-cacheable slot handle (+1; 0 = not
//               cacheable): a static-table index for the static hash
//               (overflow residents move when the overflow vector grows,
//               so they hand out 0), a resize-stable log position for the
//               growable log. The word-view cache keeps write-set handles
//               only; a read is cached as its value.
struct WordRef {
  uint64_t* data = nullptr;
  uint64_t* mark = nullptr;
  uint32_t handle = 0;
};

}  // namespace mutls
