// Execution contexts of the native MUTLS embedding (API v2, layer 1 of 4).
//
// A context is one thread's view of shared memory, and a loop body reaches
// shared memory only through it. There are two, one per version of the
// code (paper IV-C, step 1: only the speculative clone of a function calls
// MUTLS_load/MUTLS_store, while the non-speculative thread keeps running
// the original):
//
//  * `Ctx` serves every thread. On a speculative thread each access goes
//    through the speculative buffer map (paper IV-G2) and is counted; on
//    the non-speculative thread it takes the relaxed direct path, uncounted.
//  * `NativeCtx` serves the non-speculative thread only, and has no
//    speculative path compiled in: each access is one relaxed atomic. A
//    generic body (`[&](auto& c, ...)`) gets one wherever the
//    non-speculative thread runs it (`invoke_on`, below): spec_for's caller
//    chunks, a fork region deferred to its join, Runtime::run's root. So
//    the same body is instantiated once per version.
//
// load/store/load_n/store_n are the raw MUTLS_load_*/MUTLS_store_*
// wrappers; application code should prefer the typed views of
// "api/shared.h" (`Shared<T>`, `SharedSpan<T>`, `shared()`), which wrap
// these calls behind ordinary `a[i] += x` syntax for either context.
//
// Layering: ctx.h (this file) -> spec.h (fork/join/Runtime) -> shared.h
// (typed views) -> parallel.h (loop drivers + mutls::par algorithms), all
// re-exported by the "mutls/mutls.h" umbrella.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <utility>

#include "api/scalar_access.h"
#include "runtime/memory.h"
#include "runtime/spec_abort.h"
#include "runtime/thread_data.h"
#include "support/check.h"

namespace mutls {

class Runtime;

// Execution context of one thread, speculative or not. A speculative
// thread's shared accesses must all go through it.
class Ctx {
 public:
  bool speculative() const { return speculative_; }
  int rank() const { return td_->rank; }
  Runtime& runtime() const { return *rt_; }
  ThreadData& thread_data() const { return *td_; }

  // True when a T can ever take the aligned-word fast path: power-of-two
  // size <= 8, checked at compile time so oversized types skip the branch;
  // the per-address natural-alignment half of the rule is
  // word_sized_aligned ("runtime/memory.h").
  template <typename T>
  static constexpr bool kWordSized = word_sized_aligned(0, sizeof(T));

  // A speculative load keeps the registration check and the word-view hit
  // inline; a hit cannot doom, so it returns without a doom check. A miss
  // is one call to the out-of-line SpecBuffer::load_miss. Only speculative
  // accesses are counted: the non-speculative path returns first.
  template <typename T>
  T load(const T* p) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!speculative_) return relaxed_load_scalar(p);
    ++td_->stats.loads;
    uintptr_t a = reinterpret_cast<uintptr_t>(p);
    check_registered(a, sizeof(T));
    T out;
    if constexpr (kWordSized<T>) {
      if (word_sized_aligned(a, sizeof(T))) {
        uint64_t raw;
        if (!td_->sbuf.load_hit(a, sizeof(T), raw)) {
          raw = td_->sbuf.load_miss(a, sizeof(T));
          if (td_->sbuf.doomed()) throw_doomed();
        }
        std::memcpy(&out, &raw, sizeof(T));
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
    if (!speculative_) {
      relaxed_store_scalar(p, v);
      return;
    }
    ++td_->stats.stores;
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
    if (!speculative_) {
      relaxed_load_bytes(p, out, count * sizeof(T));
      return;
    }
    td_->stats.loads += count;
    uintptr_t a = reinterpret_cast<uintptr_t>(p);
    check_registered(a, count * sizeof(T));
    td_->sbuf.load_span(a, out, count * sizeof(T));
    if (td_->sbuf.doomed()) throw_doomed();
  }

  template <typename T>
  void store_n(T* p, const T* src, size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count == 0) return;
    if (!speculative_) {
      relaxed_store_bytes(p, src, count * sizeof(T));
      return;
    }
    td_->stats.stores += count;
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
    if (!speculative_) return;
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
  // The thread's role, fixed at construction: a Ctx belongs to one
  // ThreadData, whose rank never changes.
  bool speculative_;
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

// Context of the non-speculative thread with no speculative path: every
// access is the relaxed atomic that Ctx's non-speculative path takes, with
// no role test and no counter, so a loop body instantiated with it
// compiles close to the sequential loop. The atomics stay because
// speculative threads read the same words concurrently (first-touch and
// validation reads); they cost adjacent loads their merging into one
// vector load.
//
// A NativeCtx converts to the Ctx it was made from, so a native body can
// still fork, nest a loop or call code that takes Ctx&; those paths run as
// they do on the non-speculative Ctx.
class NativeCtx {
 public:
  explicit NativeCtx(Ctx& ctx) : ctx_(&ctx) {
    MUTLS_CHECK(!ctx.speculative(),
                "a NativeCtx serves the non-speculative thread only");
  }

  static constexpr bool speculative() { return false; }
  static constexpr int rank() { return 0; }

  template <typename T>
  T load(const T* p) const {
    static_assert(std::is_trivially_copyable_v<T>);
    return relaxed_load_scalar(p);
  }
  template <typename T>
  void store(T* p, T v) const {
    static_assert(std::is_trivially_copyable_v<T>);
    relaxed_store_scalar(p, v);
  }
  template <typename T>
  void load_n(const T* p, T* out, size_t count) const {
    static_assert(std::is_trivially_copyable_v<T>);
    relaxed_load_bytes(p, out, count * sizeof(T));
  }
  template <typename T>
  void store_n(T* p, const T* src, size_t count) const {
    static_assert(std::is_trivially_copyable_v<T>);
    relaxed_store_bytes(p, src, count * sizeof(T));
  }
  template <typename T>
  void add(T* p, T v) const {
    store(p, static_cast<T>(load(p) + v));
  }
  // Nothing can abort the non-speculative thread.
  void check_point() const {}

  operator Ctx&() const { return *ctx_; }

 private:
  Ctx* ctx_;
};

// Calls f(c, args...) with the context that `ctx`'s thread runs code with:
// on the non-speculative thread a NativeCtx, when f takes one (a generic
// body's native version), and ctx itself otherwise. The choice is made
// from f's type and the thread's role only. spec_for's caller segments,
// the region a Spec defers to its join and Runtime::run's root all start
// here.
template <typename F, typename... Args>
void invoke_on(Ctx& ctx, F& f, Args&&... args) {
  if constexpr (std::is_invocable_v<F&, NativeCtx&, Args...>) {
    if (!ctx.speculative()) {
      NativeCtx native(ctx);
      f(native, std::forward<Args>(args)...);
      return;
    }
  }
  f(ctx, std::forward<Args>(args)...);
}

}  // namespace mutls
