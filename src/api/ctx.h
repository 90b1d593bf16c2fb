// Execution context of the native MUTLS embedding (API v2, layer 1 of 4).
//
// `Ctx` is the per-thread view of shared memory: every shared access inside
// a speculated region routes through it, hitting the speculative buffer map
// (paper IV-G2) when the thread is speculative and the relaxed direct path
// otherwise. Ctx::load/store are the raw MUTLS_load_*/MUTLS_store_*
// wrappers; application code should prefer the typed views of
// "api/shared.h" (`Shared<T>`, `SharedSpan<T>`, `shared()`), which wrap
// these calls behind ordinary `a[i] += x` syntax.
//
// Layering: ctx.h (this file) -> spec.h (fork/join/Runtime) -> shared.h
// (typed views) -> parallel.h (loop drivers + mutls::par algorithms), all
// re-exported by the "mutls/mutls.h" umbrella.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <type_traits>

#include "api/scalar_access.h"
#include "runtime/memory.h"
#include "runtime/spec_abort.h"
#include "runtime/thread_data.h"

namespace mutls {

class Runtime;

// Execution context of one thread (speculative or not). Every shared-memory
// access inside a speculated region must go through this wrapper.
class Ctx {
 public:
  bool speculative() const { return td_->is_speculative(); }
  int rank() const { return td_->rank; }
  Runtime& runtime() const { return *rt_; }
  ThreadData& thread_data() const { return *td_; }

  // The buffer backend actually serving this thread's virtual-CPU slot.
  // Equals Options::buffer_backend except under kAdaptive, where a slot
  // that accumulated overflow events reports the growable log it flipped
  // to (diagnostics; the count of flips rides in ThreadStats as
  // buffer.backend_flips).
  BufferBackend buffer_backend() const { return td_->sbuf.active_backend(); }

  // True when a T can ever take the aligned-word fast path: power-of-two
  // size <= 8, checked at compile time so oversized types skip the branch;
  // the per-address natural-alignment half of the rule is
  // word_sized_aligned ("runtime/memory.h").
  template <typename T>
  static constexpr bool kWordSized = word_sized_aligned(0, sizeof(T));

  template <typename T>
  T load(const T* p) {
    static_assert(std::is_trivially_copyable_v<T>);
    ++td_->stats.loads;
    if (!td_->is_speculative()) {
      return relaxed_load_scalar(p);
    }
    uintptr_t a = reinterpret_cast<uintptr_t>(p);
    check_registered(a, sizeof(T));
    T out;
    if constexpr (kWordSized<T>) {
      if (word_sized_aligned(a, sizeof(T))) {
        uint64_t raw = td_->sbuf.load_aligned(a, sizeof(T));
        std::memcpy(&out, &raw, sizeof(T));
        if (td_->sbuf.doomed()) throw_doomed();
        return out;
      }
    }
    td_->sbuf.load_bytes(a, &out, sizeof(T));
    if (td_->sbuf.doomed()) throw_doomed();
    return out;
  }

  template <typename T>
  void store(T* p, T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    ++td_->stats.stores;
    if (!td_->is_speculative()) {
      relaxed_store_scalar(p, v);
      return;
    }
    uintptr_t a = reinterpret_cast<uintptr_t>(p);
    check_registered(a, sizeof(T));
    if constexpr (kWordSized<T>) {
      if (word_sized_aligned(a, sizeof(T))) {
        uint64_t raw = 0;
        std::memcpy(&raw, &v, sizeof(T));
        td_->sbuf.store_aligned(a, raw, sizeof(T));
        if (td_->sbuf.doomed()) throw_doomed();
        return;
      }
    }
    td_->sbuf.store_bytes(a, &v, sizeof(T));
    if (td_->sbuf.doomed()) throw_doomed();
  }

  // Bulk transfers: move `count` contiguous T's through the speculative
  // view with one registration check, one stats bump and one buffer-map
  // probe per *word* instead of per element. The workhorse behind
  // SharedSpan<T>::read/write.
  template <typename T>
  void load_n(const T* p, T* out, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count == 0) return;
    td_->stats.loads += count;
    if (!td_->is_speculative()) {
      relaxed_load_bytes(p, out, count * sizeof(T));
      return;
    }
    uintptr_t a = reinterpret_cast<uintptr_t>(p);
    check_registered(a, count * sizeof(T));
    td_->sbuf.load_span(a, out, count * sizeof(T));
    if (td_->sbuf.doomed()) throw_doomed();
  }

  template <typename T>
  void store_n(T* p, const T* src, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count == 0) return;
    td_->stats.stores += count;
    if (!td_->is_speculative()) {
      relaxed_store_bytes(p, src, count * sizeof(T));
      return;
    }
    uintptr_t a = reinterpret_cast<uintptr_t>(p);
    check_registered(a, count * sizeof(T));
    td_->sbuf.store_span(a, src, count * sizeof(T));
    if (td_->sbuf.doomed()) throw_doomed();
  }

  // Read-modify-write convenience.
  template <typename T>
  void add(T* p, T v) {
    store(p, static_cast<T>(load(p) + v));
  }

  // MUTLS_check_point: polls the synchronization flags. Inserted inside
  // loops and before calls so a speculative thread notices abort signals
  // promptly (paper IV-E).
  void check_point() {
    if (!td_->is_speculative()) return;
    SyncStatus s = td_->sync_status.load(std::memory_order_acquire);
    if (s == SyncStatus::kNoSync) {
      throw SpecAbort{"NOSYNC received at check point"};
    }
    if (td_->sbuf.doomed()) throw_doomed();
  }

  // Live-in value stored at fork (paper IV-G3): reads slot `offset` of this
  // thread's RegisterBuffer.
  template <typename T>
  T get_livein(int offset) {
    static_assert(sizeof(T) <= 8 && std::is_trivially_copyable_v<T>);
    uint64_t raw = 0;
    if (!td_->lbuf.top().regs.get(offset, raw)) {
      td_->sbuf.doom("register buffer offset out of range");
      throw SpecAbort{"register buffer offset out of range"};
    }
    T out;
    std::memcpy(&out, &raw, sizeof(T));
    return out;
  }

 private:
  friend class Runtime;
  // Defined in "api/spec.h", where Runtime is complete.
  Ctx(Runtime& rt, ThreadData& td);

  // Registration check of a speculative access (paper IV-G1). The hit path
  // — epoch unchanged and a cached span covering the access — is inline;
  // everything else goes through check_registered_slow.
  void check_registered(uintptr_t a, size_t n) {
    if (space_epoch_->load(std::memory_order_acquire) == span_epoch_) {
      for (int i = 0; i < kSpanCache; ++i) {
        if (a >= span_lo_[i] && a + n <= span_hi_[i]) return;
      }
    }
    check_registered_slow(a, n);
  }
  void check_registered_slow(uintptr_t a, size_t n);

  // Unwinds a doomed speculation; out of line so the access paths above
  // stay small enough to inline.
  [[noreturn]] void throw_doomed() const;

  Runtime* rt_;
  ThreadData* td_;
  // The manager's address-space epoch, bumped on every unregistration.
  const std::atomic<uint64_t>* space_epoch_;
  // Cache of recent address-space lookups, so the hot path never takes the
  // IntervalSet's shared mutex. Sized to hold every array a chunk body
  // touches: bh reads 12 registered arrays in rotation, which 4 entries
  // miss on every access. Measured with bench/e2e on a 4-vCPU Xeon VM (bh,
  // 5 s runs, seeds 1-3): speedup 0.026-0.030x with 4 entries, 0.17-0.20x
  // with 16.
  static constexpr int kSpanCache = 16;
  // Empty entries are [0, 0), which no access fits.
  uintptr_t span_lo_[kSpanCache] = {};
  uintptr_t span_hi_[kSpanCache] = {};
  int span_next_ = 0;
  // Address-space epoch the cache entries were filled under; a mismatch
  // (some region was unregistered since) flushes them.
  uint64_t span_epoch_ = 0;
};

}  // namespace mutls
