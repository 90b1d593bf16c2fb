// Per-virtual-CPU arena memory: zero allocations per fork/join at steady
// state, in the spirit of lusca-cache's MemPool/MemBuf typed pools.
//
// Every ThreadData owns one Arena; ownership follows the slot's speculation
// protocol (fork handoff, flag barrier, settle), so the arena needs no
// locks: at any instant exactly one thread — the forker arming the slot or
// the worker running it — touches the arena, and the protocol's existing
// acquire/release edges order the accesses.
//
// Two allocation regimes share the underlying heap blocks:
//
//   Transient bump region — alloc()/recycle(), lifetime = one speculation
//     epoch. Backed by chunked segments (kSegmentBytes each) that are
//     *kept* across rearm(): after the first epoch that needed a segment,
//     later epochs bump-allocate into recycled memory and never reach the
//     heap. recycle() is a LIFO rewind (frees in reverse allocation order
//     reclaim space immediately); out-of-order frees are simply abandoned
//     until the next rearm(). Requests too large for a segment get a
//     dedicated heap block, freed at rearm() and counted as a heap
//     fallback exactly once.
//
//   Persistent pool — grab()/release(), lifetime = explicit, *surviving*
//     rearm(). Power-of-two size classes with intrusive free lists
//     threaded through the released blocks themselves. This backs storage
//     that must outlive epochs but still wants recycling instead of
//     malloc/free churn: the growable buffer's log and index arrays and
//     the SpecBuffer's predicted-read table. A released index array is
//     reused by the next grow — across read/write sets and across epochs.
//
// Both regimes count every trip to ::operator new in fallback_heap_allocs
// (lifetime) and in an epoch counter zeroed by rearm(). The epoch counter
// is what flows into SpecBufferStats::alloc_events at settle time: a
// warmed-up slot reports 0 per speculation, and the CI alloc budget holds
// that line.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <vector>

#include "support/check.h"

namespace mutls {

struct ArenaStats {
  size_t bytes_in_use = 0;    // bump bytes handed out this epoch
  size_t segments = 0;        // heap blocks owned (segments + pool + oversized)
  uint64_t fallback_heap_allocs = 0;  // lifetime ::operator new trips
};

class Arena {
 public:
  static constexpr size_t kSegmentBytes = 64 * 1024;
  // Bump requests above this get a dedicated heap block (freed at rearm).
  static constexpr size_t kOversizeBytes = kSegmentBytes / 2;
  static constexpr size_t kMinPoolBytes = 64;

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  ~Arena() {
    for (char* s : segments_) ::operator delete(s);
    for (const Oversized& o : oversized_) ::operator delete(o.p);
    // Pool blocks are freed through the ownership list, whether they are
    // currently grabbed or sitting on a free list.
    for (void* p : pool_blocks_) ::operator delete(p);
  }

  // --- transient bump region (one speculation epoch) ---

  void* alloc(size_t n, size_t align = alignof(std::max_align_t)) {
    MUTLS_DCHECK(align != 0 && (align & (align - 1)) == 0,
                 "arena alignment must be a power of two");
    MUTLS_CHECK(align <= alignof(std::max_align_t),
                "over-aligned arena requests are not supported");
    if (n == 0) n = 1;
    if (n > kOversizeBytes) {
      void* p = heap_block(n);
      oversized_.push_back(Oversized{p, n});
      bytes_in_use_ += n;
      return p;
    }
    uintptr_t cur = reinterpret_cast<uintptr_t>(cur_);
    uintptr_t aligned = (cur + (align - 1)) & ~(uintptr_t{align} - 1);
    if (aligned + n > reinterpret_cast<uintptr_t>(end_)) {
      next_segment();
      cur = reinterpret_cast<uintptr_t>(cur_);
      aligned = (cur + (align - 1)) & ~(uintptr_t{align} - 1);
    }
    cur_ = reinterpret_cast<char*>(aligned + n);
    bytes_in_use_ += (aligned + n) - cur;
    return reinterpret_cast<void*>(aligned);
  }

  // LIFO rewind: freeing the most recent alloc() reclaims its space for
  // the current epoch; anything else is abandoned until rearm(). Oversized
  // blocks are genuinely freed (they are heap blocks of their own).
  void recycle(void* p, size_t n) {
    if (n == 0) n = 1;
    if (n > kOversizeBytes) {
      for (size_t i = oversized_.size(); i-- > 0;) {
        if (oversized_[i].p == p) {
          ::operator delete(p);
          bytes_in_use_ -= oversized_[i].n;
          oversized_.erase(oversized_.begin() +
                           static_cast<ptrdiff_t>(i));
          return;
        }
      }
      MUTLS_DCHECK(false, "recycle of an unknown oversized arena block");
      return;
    }
    if (static_cast<char*>(p) + n == cur_) {
      cur_ = static_cast<char*>(p);
      bytes_in_use_ -= n;
    }
  }

  // Epoch reset: rewinds the bump region to the start of the first (kept)
  // segment, frees oversized blocks and zeroes the per-epoch heap counter.
  // Pool storage (grab/release) is untouched — that is its point.
  void rearm() {
    for (const Oversized& o : oversized_) ::operator delete(o.p);
    oversized_.clear();
    if (segments_.empty()) {
      seg_idx_ = kNoSegment;
      cur_ = end_ = nullptr;
    } else {
      seg_idx_ = 0;
      cur_ = segments_[0];
      end_ = cur_ + kSegmentBytes;
    }
    bytes_in_use_ = 0;
    epoch_heap_allocs_ = 0;
    ++epoch_;
  }

  // --- persistent pool (explicit lifetime, survives rearm) ---

  // Rounds `n` up to a power-of-two size class (>= kMinPoolBytes) and
  // returns a block of that class, reusing a released one when available.
  // release() must be called with the same `n` (or pooled_size(n)).
  void* grab(size_t n) {
    int cls = pool_class(n);
    if (free_lists_[cls] != nullptr) {
      void* p = free_lists_[cls];
      std::memcpy(&free_lists_[cls], p, sizeof(void*));
      return p;
    }
    void* p = heap_block(size_t{1} << cls);
    pool_blocks_.push_back(p);
    return p;
  }

  void release(void* p, size_t n) {
    if (p == nullptr) return;
    int cls = pool_class(n);
    std::memcpy(p, &free_lists_[cls], sizeof(void*));
    free_lists_[cls] = p;
  }

  // The byte size actually reserved for a grab(n) block.
  static size_t pooled_size(size_t n) { return size_t{1} << pool_class(n); }

  // --- observability ---

  ArenaStats stats() const {
    return ArenaStats{
        bytes_in_use_,
        segments_.size() + pool_blocks_.size() + oversized_.size(),
        heap_allocs_};
  }

  // Heap trips since the last rearm(); folded into the settling
  // speculation's SpecBufferStats::alloc_events.
  uint64_t epoch_heap_allocs() const { return epoch_heap_allocs_; }

  uint64_t epoch() const { return epoch_; }

 private:
  static constexpr size_t kNoSegment = static_cast<size_t>(-1);

  struct Oversized {
    void* p;
    size_t n;
  };

  static int pool_class(size_t n) {
    if (n < kMinPoolBytes) n = kMinPoolBytes;
    int cls = 6;  // 2^6 = kMinPoolBytes
    while ((size_t{1} << cls) < n) ++cls;
    MUTLS_CHECK(cls < 48, "arena pool request exceeds the class range");
    return cls;
  }

  void* heap_block(size_t n) {
    ++heap_allocs_;
    ++epoch_heap_allocs_;
    return ::operator new(n);
  }

  void next_segment() {
    ++seg_idx_;  // kNoSegment wraps to 0
    if (seg_idx_ >= segments_.size()) {
      segments_.push_back(static_cast<char*>(heap_block(kSegmentBytes)));
    }
    cur_ = segments_[seg_idx_];
    end_ = cur_ + kSegmentBytes;
  }

  std::vector<char*> segments_;
  size_t seg_idx_ = kNoSegment;
  char* cur_ = nullptr;
  char* end_ = nullptr;
  std::vector<Oversized> oversized_;

  void* free_lists_[48] = {};
  std::vector<void*> pool_blocks_;

  size_t bytes_in_use_ = 0;
  uint64_t heap_allocs_ = 0;
  uint64_t epoch_heap_allocs_ = 0;
  uint64_t epoch_ = 0;
};

// Pool-or-heap helpers for storage that may or may not be arena-attached
// (standalone GrowableSet/SpecBuffer instances in tests pass no arena).
inline void* arena_grab(Arena* a, size_t n) {
  return a != nullptr ? a->grab(n) : ::operator new(n);
}
inline void arena_release(Arena* a, void* p, size_t n) {
  if (p == nullptr) return;
  if (a != nullptr) {
    a->release(p, n);
  } else {
    ::operator delete(p);
  }
}

// Growable buffer of a trivially-copyable T over the arena pool (heap when
// unattached): capacity is retained across clear(), growth recycles the old
// block through the pool. The zero-alloc replacement for the std::vector
// scratch/log buffers on the settle paths.
template <typename T>
class PodVec {
  static_assert(std::is_trivially_copyable_v<T>,
                "PodVec is for trivially copyable payloads only");

 public:
  PodVec() = default;
  PodVec(const PodVec&) = delete;
  PodVec& operator=(const PodVec&) = delete;
  ~PodVec() { arena_release(arena_, data_, cap_ * sizeof(T)); }

  // Binds the backing arena. Existing storage (possibly from another
  // arena) is released first, so re-attachment on re-init is safe.
  void attach(Arena* arena) {
    if (arena != arena_ && data_ != nullptr) {
      arena_release(arena_, data_, cap_ * sizeof(T));
      data_ = nullptr;
      cap_ = 0;
      size_ = 0;
    }
    arena_ = arena;
  }

  void clear() { size_ = 0; }

  void push_back(const T& v) {
    if (size_ == cap_) grow(size_ + 1);
    data_[size_++] = v;
  }

  void reserve(size_t n) {
    if (n > cap_) grow(n);
  }

  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  T* data() { return data_; }
  size_t size() const { return size_; }
  size_t capacity() const { return cap_; }

 private:
  void grow(size_t need) {
    size_t cap = cap_ == 0 ? 64 : cap_ * 2;
    while (cap < need) cap *= 2;
    T* fresh = static_cast<T*>(arena_grab(arena_, cap * sizeof(T)));
    if (size_ != 0) std::memcpy(fresh, data_, size_ * sizeof(T));
    arena_release(arena_, data_, cap_ * sizeof(T));
    data_ = fresh;
    cap_ = cap;
  }

  Arena* arena_ = nullptr;
  T* data_ = nullptr;
  size_t size_ = 0;
  size_t cap_ = 0;
};

}  // namespace mutls
