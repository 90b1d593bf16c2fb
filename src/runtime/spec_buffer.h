// SpecBuffer — the runtime's pluggable speculative-buffer backend API.
//
// This is the contract between the speculation protocol (ThreadManager,
// Ctx, the IR interpreter) and speculative memory buffering: everything
// above the runtime talks to SpecBuffer, never to a concrete backend, so a
// new buffering strategy is a drop-in backend rather than a rewrite.
//
// Backends (see BufferBackend in "runtime/enums.h"):
//   kStaticHash  — the paper's static hash + bounded overflow map
//                  ("runtime/global_buffer.h"); capacity exhaustion dooms
//                  the speculation.
//   kGrowableLog — open-addressed growable index over an append-only log
//                  ("runtime/growable_log_buffer.h"); capacity pressure
//                  resizes instead of dooming.
//
// Dispatch is static: the backend enum is fixed when the buffer is
// configured, and every operation branches once to a fully inlined
// backend body — no virtual call on the load/store hot path.
//
// The backends themselves are just slot stores: they expose the
// word-granular primitives
//
//   find_read / find_write / insert_read / insert_write   (-> WordRef)
//   write_data / write_mark                               (by cached handle)
//   for_each_read / for_each_write                        (insertion order)
//   reset / doom / pressure / entry counts
//
// and every algorithm with policy in it is written once here, generic over
// those primitives: the byte-splitting load/store loops, the speculative
// view composition (write-set marked bytes over the read-set observation
// over main memory), the word-view cache state machine, validation
// with word counting, commit, and the tree-form merge of paper IV-F
// including its read-adoption policy (skip-if-covered-by-full-mark, first
// value wins).
//
// Access-path tiers, fastest first:
//   load_aligned/store_aligned — naturally-aligned accesses of power-of-two
//     size <= 8 (every Shared<T>/SharedSpan<T> scalar): one word-view
//     resolution plus a shift, no byte-splitting loop. Its load hit,
//     load_hit, is the one hit path of every load.
//   load_span/store_span — bulk transfers: one probe per *word* (not per
//     element), full interior words move as whole words.
//   load_bytes/store_bytes — the fully generic entry (any size, any
//     alignment), now a span of length one access.
// Below all three sits the word-view cache: kMruLines direct-mapped lines,
// each holding one word's composed view and its write-set handle. A load
// of a word whose line holds its view is a tag compare plus one load, with
// no backend dispatch, probe or doom check; only misses, stores and
// invalidation reach the backend.
//
// Every virtual-CPU slot of a ThreadManager runs the same backend, so the
// join-time pairings in validate_against/merge_into walk this buffer's
// store against the joiner's store of the same type; both check that the
// two buffers agree.
//
// Value prediction (PredictPolicy, off by default) is a policy layer over
// the same primitives: a confident per-slot ValuePredictor entry lets a
// first-touch read adopt the *predicted* final value instead of the
// current memory word, and validation — unchanged on its hot path —
// settles the bet: a correct prediction validates where the unpredicted
// buffer would have rolled back (counted as saved_rollbacks), a mispredict
// fails validation and dooms with its own reason. See value_predictor.h.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "runtime/buffer_stats.h"
#include "runtime/enums.h"
#include "runtime/global_buffer.h"
#include "runtime/growable_log_buffer.h"
#include "runtime/memory.h"
#include "runtime/value_predictor.h"
#include "support/arena.h"
#include "support/check.h"

namespace mutls {

class SpecBuffer {
  // The whole API funnels through these two: one predictable branch on the
  // backend enum, then a fully inlined backend body. Defined before first
  // use — their deduced return types must be visible to the inline methods
  // below.
  template <typename Fn>
  decltype(auto) dispatch(Fn&& fn) {
    switch (backend_) {
      case BufferBackend::kGrowableLog: return fn(growable_log_);
      default: return fn(static_hash_);
    }
  }
  template <typename Fn>
  decltype(auto) dispatch(Fn&& fn) const {
    switch (backend_) {
      case BufferBackend::kGrowableLog: return fn(growable_log_);
      default: return fn(static_hash_);
    }
  }

  // This buffer's store that pairs with `b`, another buffer's store of the
  // same type (the join-time pairings; both check the backends agree).
  GlobalBuffer& same_store(const GlobalBuffer&) { return static_hash_; }
  GrowableLogBuffer& same_store(const GrowableLogBuffer&) {
    return growable_log_;
  }

 public:
  // Lines of the word-view cache, direct-mapped by word-address bits
  // [3, 3 + log2(kMruLines)): 24 bytes each, so 24 KB per buffer inside
  // the slot, no allocation. 1024 lines hold md's 768-word position sweep
  // without self-aliasing. Measured with bench/e2e on a 4-vCPU Xeon VM
  // (md, 5 s runs, seeds 1-3, when lines held handles): 256 lines give
  // speedup 0.21-0.26x at hit fraction 0.001, 1024 lines 0.36-0.42x at
  // 0.95, 4096 lines 0.35-0.38x at 0.95.
  static constexpr size_t kMruLines = 1024;

  using PredictPolicy = SpecPredictPolicy;

  // The doom reason a value-prediction mispredict is contained with —
  // distinct from capacity and conflict reasons so rollback attribution
  // (tests, diagnostics) can tell a lost bet from a genuine exhaustion.
  static constexpr const char* kMispredictDoomReason =
      "value-prediction mispredict invalidated the read-set";

  SpecBuffer() = default;
  // The backends are self-referential after init (their maps point at this
  // buffer's stats block); copying/moving a buffer is never needed and is
  // deleted down the whole stack.
  SpecBuffer(const SpecBuffer&) = delete;
  SpecBuffer& operator=(const SpecBuffer&) = delete;

  // Configures the selected backend. `log2_entries` sizes the table (the
  // static size for kStaticHash, the initial size for kGrowableLog);
  // `overflow_cap` bounds kStaticHash's temporary buffer and is ignored by
  // kGrowableLog. `growable_max_log2` bounds the growable index (a memory
  // bound; also the seam the hard-cap doom tests use). `arena`, when given
  // (the owning virtual-CPU slot's arena), backs the growable arrays
  // through its persistent pool; without one those fall back to the heap
  // (standalone buffers in tests). `predict` enables the per-slot value
  // predictor (table storage also from the arena pool).
  void init(BufferBackend backend, int log2_entries, size_t overflow_cap,
            int growable_max_log2 = GrowableSet::kMaxLog2,
            Arena* arena = nullptr, PredictPolicy predict = {}) {
    backend_ = backend;
    predict_ = predict;
    predicted_.attach(arena);
    predictor_.init(predict, arena);
    if (predict.enabled) {
      // Pre-size the bet side table to its hard bound: a predicted read
      // needs a confident direct-mapped entry matching its word, so one
      // speculation can adopt at most one prediction per table bucket.
      // Sizing it here keeps the steady state allocation-free — the first
      // adoption necessarily happens *after* warm-up (the predictor must
      // train first), which is exactly when growing would break the
      // alloc_events == 0 budget.
      predicted_.reserve(size_t{1} << predict.table_log2);
    }
    if (backend_ == BufferBackend::kGrowableLog) {
      growable_log_.init(log2_entries, overflow_cap, &stats_,
                         growable_max_log2, arena);
    } else {
      static_hash_.init(log2_entries, overflow_cap, &stats_);
    }
    mru_invalidate();
  }

  BufferBackend backend() const { return backend_; }

  // --- speculative access path (runs on the owning speculative thread) ---

  // Aligned-word fast path: a naturally-aligned access of power-of-two
  // size <= 8 can never straddle a word, so the byte-splitting loop
  // collapses to one word-view resolution plus a shift. The load returns
  // the addressed bytes in the LOW bytes of the result (the caller copies
  // out `size` of them); the store takes the value in the low bytes.
  uint64_t load_aligned(uintptr_t addr, size_t size) {
    uint64_t out;
    return load_hit(addr, size, out) ? out : load_miss(addr, size);
  }

  // The hit half of load_aligned, and the only load hit path: true, with
  // the addressed bytes in the low bytes of `out`, when the word's line
  // holds its composed view. A hit never dispatches, probes or dooms, so a
  // caller that gets true needs no doom check.
  bool load_hit(uintptr_t addr, size_t size, uint64_t& out) {
    MUTLS_DCHECK(word_sized_aligned(addr, size),
                 "load_hit: size must be a power of two <= 8 and addr "
                 "naturally aligned");
    (void)size;  // only the high bytes the caller ignores depend on it
    const uintptr_t word_addr = addr & ~kWordMask;
    const MruLine& line = mru_line(word_addr);
    // The hint keeps the hit the straight-line path in every caller;
    // without it GCC moved md's hit behind a taken branch.
    if (line.tag != mru_tag(word_addr) || line.state != kView) [[unlikely]] {
      return false;
    }
    ++stats_.mru_hits;
    out = line.view >> (8 * (addr - word_addr));
    return true;
  }

  // The miss half of load_aligned, out of line: resolves the word through
  // the backend and refreshes its line. Capacity exhaustion dooms the
  // buffer, so the caller checks doomed() afterwards.
  [[gnu::noinline]] uint64_t load_miss(uintptr_t addr, size_t size) {
    MUTLS_DCHECK(word_sized_aligned(addr, size),
                 "load_miss: size must be a power of two <= 8 and addr "
                 "naturally aligned");
    (void)size;
    const uintptr_t word_addr = addr & ~kWordMask;
    return dispatch([&](auto& b) { return resolve_view(b, word_addr); }) >>
           (8 * (addr - word_addr));
  }

  void store_aligned(uintptr_t addr, uint64_t value, size_t size) {
    MUTLS_DCHECK(word_sized_aligned(addr, size),
                 "store_aligned: size must be a power of two <= 8 and addr "
                 "naturally aligned");
    uintptr_t word_addr = addr & ~kWordMask;
    size_t off = addr - word_addr;
    dispatch([&](auto& b) {
      word_write(b, word_addr, value << (8 * off), byte_mask(off, size));
    });
  }

  // Bulk span transfer: reads `size` bytes of the thread's speculative view
  // of `addr`: a partial head word, whole interior words, a partial tail —
  // one word-view resolution per word, not per element. Out of line (as
  // is store_span): a span amortizes the call, and the scalar callers that
  // fall back to it stay small enough to inline.
  [[gnu::noinline]] void load_span(uintptr_t addr, void* out, size_t size) {
    if (size == 0) return;  // must not touch (and first-touch insert) a word
    char* dst = static_cast<char*>(out);
    uintptr_t a = addr;
    size_t left = size;
    size_t head = a & kWordMask;
    if (head != 0) {
      size_t n = std::min(kWordSize - head, left);
      uint64_t w = load_aligned(a - head, kWordSize);
      copy_from_word(w, head, n, dst);
      a += n;
      dst += n;
      left -= n;
    }
    while (left >= kWordSize) {
      uint64_t w = load_aligned(a, kWordSize);
      std::memcpy(dst, &w, kWordSize);
      a += kWordSize;
      dst += kWordSize;
      left -= kWordSize;
    }
    if (left > 0) {
      uint64_t w = load_aligned(a, kWordSize);
      copy_from_word(w, 0, left, dst);
    }
  }

  // Bulk span transfer: buffers a write of `size` bytes at `addr`. Whole
  // interior words carry a full mark and skip the mask computation.
  [[gnu::noinline]] void store_span(uintptr_t addr, const void* src,
                                    size_t size) {
    if (size == 0) return;  // a zero-mask write-set entry is a false entry
    dispatch([&](auto& b) {
      const char* s = static_cast<const char*>(src);
      uintptr_t a = addr;
      size_t left = size;
      size_t head = a & kWordMask;
      if (head != 0) {
        size_t n = std::min(kWordSize - head, left);
        uint64_t v = 0;
        copy_into_word(v, head, n, s);
        word_write(b, a - head, v, byte_mask(head, n));
        if (b.doomed()) return;
        a += n;
        s += n;
        left -= n;
      }
      while (left >= kWordSize) {
        uint64_t v;
        std::memcpy(&v, s, kWordSize);
        word_write(b, a, v, kFullMark);
        if (b.doomed()) return;
        a += kWordSize;
        s += kWordSize;
        left -= kWordSize;
      }
      if (left > 0) {
        uint64_t v = 0;
        copy_into_word(v, 0, left, s);
        word_write(b, a, v, byte_mask(0, left));
      }
    });
  }

  // Fully generic entries (any size, any alignment): a span of one access.
  void load_bytes(uintptr_t addr, void* out, size_t size) {
    load_span(addr, out, size);
  }
  void store_bytes(uintptr_t addr, const void* src, size_t size) {
    store_span(addr, src, size);
  }

  // --- join-time operations (both threads stopped at the flag barrier) ---

  // Validates the read-set against main memory (non-speculative joiner).
  // The comparison accumulates a XOR difference — no branch per word — over
  // the set walked in place. Every backend walks its sets in insertion
  // order, never in hash order, so main memory is touched in the order the
  // speculation first touched it.
  bool validate_against_memory() {
    return dispatch([&](auto& b) {
      uint64_t diff = 0;
      uint64_t words = 0;
      b.for_each_read([&](uintptr_t word_addr, uint64_t data) {
        ++words;
        diff |= atomic_word_load(word_addr) ^ data;
      });
      stats_.validated_words += words;
      bool valid = diff == 0;
      if (predict_.enabled) {
        valid = settle_predicted(
            b, valid, [](uintptr_t a) { return atomic_word_load(a); });
      }
      return valid;
    });
  }

  // Validates the read-set against a speculative joiner's buffered view.
  // Probes the joiner's maps with the same branchless XOR accumulation.
  // Peeks never touch the joiner's word-view cache: they run on the
  // joiner's buffer from *this* thread at the flag barrier.
  bool validate_against(SpecBuffer& joiner) {
    check_same_backend(joiner);
    return dispatch([&](auto& b) {
      auto& j = joiner.same_store(b);
      uint64_t diff = 0;
      uint64_t words = 0;
      b.for_each_read([&](uintptr_t word_addr, uint64_t data) {
        ++words;
        diff |= word_peek(j, word_addr) ^ data;
      });
      stats_.validated_words += words;
      bool valid = diff == 0;
      if (predict_.enabled) {
        // The "settled value" against a speculative joiner is the joiner's
        // buffered view. Training on it is slightly optimistic (the joiner
        // may itself roll back later), but the predictor is a hint table —
        // a wrong lesson costs one mispredict, never correctness.
        valid = settle_predicted(
            b, valid, [&](uintptr_t a) { return word_peek(j, a); });
      }
      return valid;
    });
  }

  // Commits marked write-set bytes to main memory, walking the set in place
  // (insertion order, like validation).
  void commit_to_memory() {
    dispatch([&](auto& b) {
      b.for_each_write([](uintptr_t word_addr, uint64_t data, uint64_t mark) {
        if (mark == kFullMark) {
          atomic_word_store(word_addr, data);
          return;
        }
        const char* bytes = reinterpret_cast<const char*>(&data);
        for (size_t i = 0; i < kWordSize; ++i) {
          if (mark & (0xffull << (8 * i))) {
            atomic_byte_store(word_addr + i, static_cast<uint8_t>(bytes[i]));
          }
        }
      });
    });
  }

  // Merges this buffer into a *speculative* joiner. The whole tree-form
  // adoption policy lives here, written once over the slot primitives:
  //   writes — overlay the joiner's write-set (this thread is logically
  //     later, so its bytes win) and union the marks;
  //   reads — a read fully covered by one of the joiner's full-mark writes
  //     carries no main-memory dependency and is skipped; everything else
  //     joins the joiner's read-set so the eventual non-speculative
  //     validation still covers it, first value (the joiner's earlier
  //     observation) winning.
  // Capacity exhaustion in the joiner dooms it through the backend's
  // merge-specific reason (insert_*'s `merging` flag).
  void merge_into(SpecBuffer& joiner) {
    check_same_backend(joiner);
    // Adoption mutates the joiner's sets behind its cached lines (a word a
    // line proved write-absent may gain a write): drop them all.
    joiner.mru_invalidate();
    dispatch([&](auto& b) {
      auto& j = joiner.same_store(b);
      b.for_each_write([&](uintptr_t word_addr, uint64_t data, uint64_t mark) {
        WordRef w = j.insert_write(word_addr, /*merging=*/true);
        if (!w.data) return;  // joiner doomed; keep draining
        *w.data = overlay_bytes(*w.data, data, mark);
        *w.mark |= mark;
      });
      b.for_each_read([&](uintptr_t word_addr, uint64_t data) {
        WordRef w = j.find_write(word_addr);
        if (w.data && *w.mark == kFullMark) return;  // covered: no dep
        bool inserted = false;
        WordRef r = j.insert_read(word_addr, inserted, /*merging=*/true);
        if (!r.data) return;  // joiner doomed; keep draining
        if (inserted) *r.data = data;  // first value wins
      });
    });
  }

  // --- lifecycle, doom and pressure signals, statistics ---

  // Discards all buffered state; clears doom. Part of both the settle path
  // and rearm(); the cost counters intentionally survive (the settle paths
  // read them after resetting).
  void reset() {
    mru_invalidate();
    predicted_.clear();
    dispatch([](auto& b) { b.reset(); });
  }

  // Re-arms this buffer for the next speculation on its virtual-CPU slot:
  // resets buffered state and zeroes the per-speculation counters.
  void rearm() {
    reset();
    clear_stats();
  }

  bool doomed() const {
    return dispatch([](const auto& b) { return b.doomed(); });
  }
  const char* doom_reason() const {
    return dispatch([](const auto& b) { return b.doom_reason(); });
  }
  void doom(const char* reason) {
    dispatch([&](auto& b) { b.doom(reason); });
  }

  // Backend-defined capacity pressure: the static hash is spilling into its
  // bounded overflow map, or the growable log resized this speculation.
  bool pressure() const {
    return dispatch([](const auto& b) { return b.pressure(); });
  }

  size_t read_entries() const {
    return dispatch([](const auto& b) { return b.read_entries(); });
  }
  size_t write_entries() const {
    return dispatch([](const auto& b) { return b.write_entries(); });
  }

  // Cost-counter snapshot. One block per buffer, shared with its backend.
  // Survives reset(); zeroed by clear_stats()/rearm() when a virtual-CPU
  // slot is re-armed for a new speculation.
  const SpecBufferStats& stats() const { return stats_; }
  void clear_stats() { stats_.clear(); }

  // The slot's value predictor (tests, diagnostics). It persists across
  // rearm(): the slot learns across speculations.
  const ValuePredictor& predictor() const { return predictor_; }

 private:
  // Join-time pairings walk two buffers' stores of one type; a buffer of
  // another backend has no such store to pair with.
  void check_same_backend(const SpecBuffer& joiner) const {
    MUTLS_CHECK(joiner.backend_ == backend_,
                "joined buffers run different buffer backends");
  }

  // --- the word-view cache + view composition ---
  //
  // kMruLines direct-mapped lines, each caching the thread's composed view
  // of one word — write-set marked bytes over the read-set observation —
  // next to the backend's WordRef::handle for the word's write-set slot
  // (0 = none known: not written yet, or a static-hash overflow resident,
  // whose storage moves). A tagged line is in one of two states:
  //   kView      — `view` is the word's composed view. A load hit returns
  //                it: a tag compare plus one load, no backend dispatch,
  //                handle chase or probe.
  //   kWriteOnly — the word has partial writes but was never read, so
  //                there is no view yet; `w` still lets further stores
  //                skip the probe.
  // A load miss probes both sets and stores the view. A store writes
  // through `w` to the backend and overlays the view; a store that
  // completes the word's full mark makes the view valid, since a fully
  // written word no longer depends on memory. A word maps to one line, so
  // every store reaches the line a later load of the same word consults;
  // two words that alias a line simply evict each other. The sets change
  // behind a line only in merge_into and reset, and both invalidate every
  // line.
  //
  // Invalidation is O(1): the line's index bits and the three alignment
  // bits of a word address are implied by the line it sits in, so the tag
  // stores the remaining high bits with the current generation in those
  // low bits. Bumping the generation orphans every line at once; only when
  // it wraps (every kMruGenMask invalidations) is the table cleared. Tag 0
  // never matches, since generations start at 1.
  static constexpr uintptr_t kMruGenMask = kMruLines * kWordSize - 1;
  static_assert((kMruLines & (kMruLines - 1)) == 0,
                "kMruLines must be a power of two");

  enum LineState : uint32_t { kWriteOnly, kView };

  struct MruLine {
    uintptr_t tag;
    uint64_t view;    // composed view of the word (kView only)
    uint32_t w;       // write-set handle; 0 = none known
    LineState state;
  };
  static_assert(sizeof(MruLine) == 24, "a word-view line is 24 bytes");

  MruLine& mru_line(uintptr_t word_addr) {
    return mru_[(word_addr / kWordSize) & (kMruLines - 1)];
  }
  uintptr_t mru_tag(uintptr_t word_addr) const {
    return (word_addr & ~kMruGenMask) | mru_gen_;
  }

  void mru_invalidate() {
    if (++mru_gen_ > kMruGenMask) {
      std::fill_n(mru_, kMruLines, MruLine{});
      mru_gen_ = 1;
    }
  }

  // The thread's current view of one whole word, resolved through the
  // backend (the load miss): write-set marked bytes over the read-set
  // observation over main memory. First touch inserts the word into the
  // read-set; capacity exhaustion dooms the thread (via the backend's
  // insert_read), falls back to the main-memory value and leaves the line
  // untagged. Otherwise the view is cached in the word's line.
  // Always inlined into load_miss, so a miss costs one call.
  template <typename B>
  [[gnu::always_inline]] uint64_t resolve_view(B& b, uintptr_t word_addr) {
    MruLine& line = mru_line(word_addr);
    const uintptr_t tag = mru_tag(word_addr);
    ++stats_.mru_misses;

    WordRef w = b.find_write(word_addr);
    const uint32_t mw = w.data ? w.handle : 0;
    if (w.data && *w.mark == kFullMark) {
      line = MruLine{tag, *w.data, mw, kView};
      return *w.data;
    }

    bool inserted = false;
    WordRef r = b.insert_read(word_addr, inserted, /*merging=*/false);
    if (!r.data) {
      // Capacity doom (the backend already doomed itself): fall back to
      // the main-memory value; nothing stable to cache.
      uint64_t base = atomic_word_load(word_addr);
      if (w.data) base = overlay_bytes(base, *w.data, *w.mark);
      line.tag = 0;
      return base;
    }
    if (inserted) {
      // First touch: load the whole word from main memory and remember it
      // for validation — unless a confident predictor entry bets on the
      // word's *settled* value, in which case the read adopts the
      // prediction: validation then passes exactly when the bet lands,
      // and the access-time observation is kept aside so the settle can
      // tell a saved rollback (memory moved under us, prediction held)
      // from a read that never conflicted at all.
      uint64_t observed = atomic_word_load(word_addr);
      uint64_t predicted;
      if (predict_.enabled && predictor_.predict(word_addr, &predicted)) {
        *r.data = predicted;
        predicted_.push_back(PredictedRead{word_addr, predicted, observed});
        ++stats_.predicted_reads;
      } else {
        *r.data = observed;
      }
    }
    uint64_t view = *r.data;
    if (w.data) {
      // Overlay the bytes this thread already wrote. `w` points into the
      // write set, untouched by the read-set insertion above.
      view = overlay_bytes(view, *w.data, *w.mark);
    }
    line = MruLine{tag, view, mw, kView};
    return view;
  }

  // Like resolve_view but never inserts into the read-set and leaves the
  // word-view cache untouched (used when a speculative joiner's view is
  // evaluated from the child's thread).
  template <typename B>
  static uint64_t word_peek(B& b, uintptr_t word_addr) {
    WordRef w = b.find_write(word_addr);
    if (w.data && *w.mark == kFullMark) return *w.data;
    WordRef r = b.find_read(word_addr);
    uint64_t base = r.data ? *r.data : atomic_word_load(word_addr);
    if (w.data) base = overlay_bytes(base, *w.data, *w.mark);
    return base;
  }

  // Settles the speculation's predicted reads against the outcome the XOR
  // walk just computed (prediction enabled only; called once per
  // validation, off the access hot path). `final_value` maps a word
  // address to the value the read-set was validated against — main memory
  // for a rank-0 joiner, the joiner's buffered view otherwise.
  //
  // On a *valid* speculation every predicted read's bet landed (its value
  // is part of the read-set the XOR walk accepted): count the hits, train
  // the proven values, and count one saved rollback iff some predicted
  // word's memory moved between access and settle — that is precisely a
  // speculation the unpredicted runtime would have rolled back.
  //
  // On a *failed* one: train the predictor from the final values of the
  // conflicting (mismatched) words — this is how an address earns a table
  // entry in the first place, a word that never conflicts never costs
  // one — then attribute the failure: any predicted read whose bet missed
  // is a mispredict, and the doom carries the distinct mispredict reason
  // so rollback accounting can separate lost bets from true conflicts.
  template <typename B, typename FinalFn>
  bool settle_predicted(B& b, bool valid, FinalFn&& final_value) {
    if (valid) {
      if (predicted_.size() != 0) {
        bool saved = false;
        for (const PredictedRead& p : predicted_) {
          ++stats_.predictor_hits;
          saved |= p.predicted != p.observed;
          predictor_.train(p.word_addr, p.predicted);
        }
        if (saved) ++stats_.saved_rollbacks;
      }
      return true;
    }
    b.for_each_read([&](uintptr_t word_addr, uint64_t data) {
      uint64_t actual = final_value(word_addr);
      if (actual != data) predictor_.train(word_addr, actual);
    });
    bool mispredicted = false;
    for (const PredictedRead& p : predicted_) {
      uint64_t actual = final_value(p.word_addr);
      if (actual == p.predicted) {
        // The bet landed but some *other* word conflicted. Still a hit —
        // and not trained by the mismatch walk above, so train it here.
        ++stats_.predictor_hits;
        predictor_.train(p.word_addr, actual);
      } else {
        ++stats_.predictor_mispredicts;
        mispredicted = true;
      }
    }
    if (mispredicted && !b.doomed()) b.doom(kMispredictDoomReason);
    return false;
  }

  // Overlays the bytes selected by `mask` onto the buffered word; dooms on
  // capacity exhaustion (via the backend's insert_write). A line that knows
  // the word's write handle takes the write inline; the rest is out of line.
  template <typename B>
  void word_write(B& b, uintptr_t word_addr, uint64_t value, uint64_t mask) {
    MruLine& line = mru_line(word_addr);
    if (line.tag == mru_tag(word_addr) && line.w != 0) {
      ++stats_.mru_hits;
      uint64_t& d = b.write_data(line.w);
      uint64_t& m = b.write_mark(line.w);
      d = overlay_bytes(d, value, mask);
      m |= mask;
      fold_store(line, value, mask, d, m);
      return;
    }
    word_write_miss(b, word_addr, value, mask, line);
  }

  template <typename B>
  [[gnu::noinline]] void word_write_miss(B& b, uintptr_t word_addr,
                                         uint64_t value, uint64_t mask,
                                         MruLine& line) {
    const uintptr_t tag = mru_tag(word_addr);
    ++stats_.mru_misses;
    WordRef w = b.insert_write(word_addr, /*merging=*/false);
    if (!w.data) return;  // capacity doom; the backend set the reason
    *w.data = overlay_bytes(*w.data, value, mask);
    *w.mark |= mask;
    // A view of the same word stays valid under the overlay below; any
    // other word's line is evicted.
    if (line.tag != tag) line = MruLine{tag, 0, 0, kWriteOnly};
    line.w = w.handle;
    fold_store(line, value, mask, *w.data, *w.mark);
  }

  // Brings the word's line up to date with a store of `value` under `mask`
  // that left the word's write-set entry at `data`/`mark`.
  static void fold_store(MruLine& line, uint64_t value, uint64_t mask,
                         uint64_t data, uint64_t mark) {
    if (line.state == kView) {
      line.view = overlay_bytes(line.view, value, mask);
    } else if (mark == kFullMark) {
      line.view = data;
      line.state = kView;
    }
  }

  BufferBackend backend_ = BufferBackend::kStaticHash;
  GlobalBuffer static_hash_;
  GrowableLogBuffer growable_log_;
  SpecBufferStats stats_;

  MruLine mru_[kMruLines] = {};
  uintptr_t mru_gen_ = 1;  // in [1, kMruGenMask]; see mru_tag

  // Value prediction (PredictPolicy.enabled only). The predictor persists
  // across rearm(); the per-speculation side table of bets is cleared
  // with the sets on reset().
  PredictPolicy predict_;
  ValuePredictor predictor_;
  struct PredictedRead {
    uintptr_t word_addr;
    uint64_t predicted;  // what the read-set adopted (and validation saw)
    uint64_t observed;   // what memory actually held at access time
  };
  PodVec<PredictedRead> predicted_;
};

}  // namespace mutls
