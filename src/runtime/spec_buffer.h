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
//   kAdaptive    — per-slot selection between the two: starts on
//                  kStaticHash, flips to kGrowableLog after repeated
//                  overflow events (and back once the footprint calms
//                  down). The flip happens in rearm(), i.e. when the
//                  owning virtual-CPU slot is re-armed for its next
//                  speculation — never mid-speculation.
//   kNumaSharded — per-node sub-stores split by address range
//                  ("runtime/numa_sharded_buffer.h"); validation and
//                  commit of large footprints stream one node-local
//                  shard at a time. Resizes like kGrowableLog.
//
// Dispatch is static: the *active* backend enum is resolved when the slot
// is (re-)armed, and every operation branches once to a fully inlined
// backend body — no virtual call on the load/store hot path.
//
// The backends themselves are just slot stores: they expose the
// word-granular primitives
//
//   find_read / find_write / insert_read / insert_write   (-> WordRef)
//   read_data / write_data / write_mark                   (by cached handle)
//   for_each_read / for_each_write
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
//     resolution plus a shift, no byte-splitting loop. Counted as
//     fastpath_hits.
//   load_span/store_span — bulk transfers: one dispatch and doom check per
//     span, one probe per *word* (not per element), full interior words
//     move as whole words.
//   load_bytes/store_bytes — the fully generic entry (any size, any
//     alignment), now a span of length one access.
// Below all three sits the word-view cache: kMruLines direct-mapped lines
// (shared by the backends, keyed on their handles), so a word touched again
// while its line still holds it skips the hash probes too.
//
// The double dispatch in validate_against/merge_into makes the join-time
// pairings generic, so buffers of *different* backends compose — which is
// also what makes an adaptive tree with mixed-backend siblings work: a
// flipped slot merges into (or validates against) an unflipped one through
// the same two templates.
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
#include <atomic>
#include <cstdint>
#include <cstring>

#include "runtime/buffer_stats.h"
#include "runtime/enums.h"
#include "runtime/global_buffer.h"
#include "runtime/growable_log_buffer.h"
#include "runtime/memory.h"
#include "runtime/numa_sharded_buffer.h"
#include "runtime/value_predictor.h"
#include "support/arena.h"
#include "support/check.h"

namespace mutls {

// The adaptive flip policy (kAdaptive only; ignored otherwise). The two
// knobs surface as ManagerConfig::adaptive_overflow_threshold /
// adaptive_calm_hysteresis and ride the usual Options plumbing.
// (Namespace-scope rather than nested: it appears as a default argument
// of SpecBuffer::init, where a nested type's member initializers would
// not be parsed yet.)
struct SpecAdaptivePolicy {
  // Cumulative overflow events on this slot (summed across speculations
  // since the slot last ran on the static hash afresh) at which the slot
  // flips to kGrowableLog at its next rearm().
  uint64_t overflow_threshold = 4;
  // Consecutive calm speculations — no resizes and a footprint that
  // would sit at no more than half load in the static table — after
  // which a flipped slot returns to kStaticHash. The hysteresis is what
  // keeps one pathological speculation from permanently pinning the slot
  // to the growable backend, without flapping on every quiet epoch.
  uint64_t calm_hysteresis = 16;
};

// Shared view of one ThreadManager's adaptive fleet: how many of the
// sibling virtual-CPU slots are currently running on kGrowableLog. Slots
// update `flipped` from their own rearm() (relaxed — it is a hint, and
// rearms of different slots already race benignly), and a slot still on
// the static hash consults it to flip *proactively* once at least half
// the fleet has flipped: in a uniform-footprint loop every slot hits the
// same capacity wall, so the stragglers skip their own overflow-doom
// learning curve. Owned by ThreadManager; standalone buffers pass none.
struct SpecFleetView {
  std::atomic<uint32_t> flipped{0};
  uint32_t slots = 0;
};

class SpecBuffer {
  // The whole API funnels through these two: one predictable branch on the
  // active-backend enum, then a fully inlined backend body. Defined before
  // first use — their deduced return types must be visible to the inline
  // methods below.
  template <typename Fn>
  decltype(auto) dispatch(Fn&& fn) {
    switch (active_) {
      case BufferBackend::kGrowableLog: return fn(growable_log_);
      case BufferBackend::kNumaSharded: return fn(numa_sharded_);
      default: return fn(static_hash_);
    }
  }
  template <typename Fn>
  decltype(auto) dispatch(Fn&& fn) const {
    switch (active_) {
      case BufferBackend::kGrowableLog: return fn(growable_log_);
      case BufferBackend::kNumaSharded: return fn(numa_sharded_);
      default: return fn(static_hash_);
    }
  }

 public:
  // Lines of the word-view cache, direct-mapped by word-address bits
  // [3, 3 + log2(kMruLines)): 16 bytes each, so 16 KB per buffer inside
  // the slot, no allocation. 1024 lines hold md's 768-word position sweep
  // without self-aliasing. Measured with bench/e2e on a 4-vCPU Xeon VM
  // (md, 5 s runs, seeds 1-3): 256 lines give speedup 0.21-0.26x at hit
  // fraction 0.001, 1024 lines 0.36-0.42x at 0.95, 4096 lines 0.35-0.38x
  // at 0.95.
  static constexpr size_t kMruLines = 1024;

  using AdaptivePolicy = SpecAdaptivePolicy;
  using PredictPolicy = SpecPredictPolicy;
  using NumaPolicy = SpecNumaPolicy;

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
  // kGrowableLog. kAdaptive starts on the static hash and initializes the
  // growable log lazily at the first flip. `growable_max_log2` bounds the
  // growable index (a memory bound; also the seam the hard-cap doom tests
  // use). `arena`, when given (the owning virtual-CPU slot's arena), backs
  // the growable arrays and the join-time sort scratch through its
  // persistent pool; without one those fall back to the heap (standalone
  // buffers in tests). `predict` enables the per-slot value predictor
  // (table storage also from the arena pool); `fleet`, when given (by
  // ThreadManager), lets kAdaptive slots coordinate proactive flips.
  // `numa` configures kNumaSharded's address-range routing (shard count,
  // region granularity, home shard) and is ignored by the other backends.
  void init(BufferBackend backend, int log2_entries, size_t overflow_cap,
            AdaptivePolicy policy = {},
            int growable_max_log2 = GrowableSet::kMaxLog2,
            Arena* arena = nullptr, PredictPolicy predict = {},
            SpecFleetView* fleet = nullptr, NumaPolicy numa = {}) {
    configured_ = backend;
    policy_ = policy;
    predict_ = predict;
    numa_ = numa;
    fleet_ = fleet;
    log2_ = log2_entries;
    overflow_cap_ = overflow_cap;
    growable_max_log2_ = growable_max_log2;
    arena_ = arena;
    scratch_.attach(arena);
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
    overflow_score_ = 0;
    calm_epochs_ = 0;
    calm_reverted_ = false;
    footprint_hwm_ = 0;
    growable_ready_ = false;
    if (backend == BufferBackend::kAdaptive) {
      MUTLS_CHECK(policy_.overflow_threshold >= 1,
                  "adaptive overflow threshold must be at least 1");
      active_ = BufferBackend::kStaticHash;
    } else {
      active_ = backend;
    }
    if (active_ == BufferBackend::kGrowableLog) {
      growable_log_.init(log2_, overflow_cap_, &stats_, growable_max_log2_,
                         arena_);
      growable_ready_ = true;
    } else if (active_ == BufferBackend::kNumaSharded) {
      numa_sharded_.init(log2_, overflow_cap_, &stats_, growable_max_log2_,
                         arena_, numa_);
    } else {
      static_hash_.init(log2_, overflow_cap_, &stats_);
    }
    mru_invalidate();
  }

  // The configured backend (what the embedding asked for)...
  BufferBackend backend() const { return configured_; }
  // ...and the backend actually serving this slot right now (differs from
  // backend() only for kAdaptive).
  BufferBackend active_backend() const { return active_; }

  // --- speculative access path (runs on the owning speculative thread) ---

  // Aligned-word fast path: a naturally-aligned access of power-of-two
  // size <= 8 can never straddle a word, so the byte-splitting loop
  // collapses to one word-view resolution plus a shift. The load returns
  // the addressed bytes in the LOW bytes of the result (the caller copies
  // out `size` of them); the store takes the value in the low bytes.
  uint64_t load_aligned(uintptr_t addr, size_t size) {
    MUTLS_DCHECK(word_sized_aligned(addr, size),
                 "load_aligned: size must be a power of two <= 8 and addr "
                 "naturally aligned");
    (void)size;  // only the high bytes the caller ignores depend on it
    ++stats_.fastpath_hits;
    uintptr_t word_addr = addr & ~kWordMask;
    return dispatch([&](auto& b) { return word_view(b, word_addr); }) >>
           (8 * (addr - word_addr));
  }

  void store_aligned(uintptr_t addr, uint64_t value, size_t size) {
    MUTLS_DCHECK(word_sized_aligned(addr, size),
                 "store_aligned: size must be a power of two <= 8 and addr "
                 "naturally aligned");
    ++stats_.fastpath_hits;
    uintptr_t word_addr = addr & ~kWordMask;
    size_t off = addr - word_addr;
    dispatch([&](auto& b) {
      word_write(b, word_addr, value << (8 * off), byte_mask(off, size));
    });
  }

  // Bulk span transfer: reads `size` bytes of the thread's speculative view
  // of `addr`. One dispatch for the whole span; a partial head word, whole
  // interior words, a partial tail — one probe per word, not per element.
  // Out of line (as is store_span): a span amortizes the call, and the
  // scalar callers that fall back to it stay small enough to inline.
  [[gnu::noinline]] void load_span(uintptr_t addr, void* out, size_t size) {
    if (size == 0) return;  // must not touch (and first-touch insert) a word
    dispatch([&](auto& b) {
      char* dst = static_cast<char*>(out);
      uintptr_t a = addr;
      size_t left = size;
      size_t head = a & kWordMask;
      if (head != 0) {
        size_t n = std::min(kWordSize - head, left);
        uint64_t w = word_view(b, a - head);
        copy_from_word(w, head, n, dst);
        a += n;
        dst += n;
        left -= n;
      }
      while (left >= kWordSize) {
        uint64_t w = word_view(b, a);
        std::memcpy(dst, &w, kWordSize);
        a += kWordSize;
        dst += kWordSize;
        left -= kWordSize;
      }
      if (left > 0) {
        uint64_t w = word_view(b, a);
        copy_from_word(w, 0, left, dst);
      }
    });
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
  // The comparison accumulates a XOR difference — no branch per word; a
  // cache-exceeding set is additionally gathered and sorted so main memory
  // is compared in address order (hardware prefetch instead of hash-order
  // hopping).
  bool validate_against_memory() {
    return dispatch([&](auto& b) {
      uint64_t diff = 0;
      uint64_t words = 0;
      if (b.read_entries() >= kAddressOrderThreshold) {
        scratch_.clear();
        b.for_each_read([&](uintptr_t word_addr, uint64_t data) {
          scratch_.push_back(SetEntry{word_addr, data, 0});
        });
        sort_scratch();
        for (const SetEntry& e : scratch_) {
          diff |= atomic_word_load(e.word_addr) ^ e.data;
        }
        words = scratch_.size();
      } else {
        b.for_each_read([&](uintptr_t word_addr, uint64_t data) {
          ++words;
          diff |= atomic_word_load(word_addr) ^ data;
        });
      }
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
  // Probes the joiner's maps (address order buys nothing there) but keeps
  // the branchless XOR accumulation. Peeks never touch the joiner's word-
  // view cache: they run on the joiner's buffer from *this* thread at the
  // flag barrier.
  bool validate_against(SpecBuffer& joiner) {
    return dispatch([&](auto& b) {
      return joiner.dispatch([&](auto& j) {
        uint64_t diff = 0;
        uint64_t words = 0;
        b.for_each_read([&](uintptr_t word_addr, uint64_t data) {
          ++words;
          diff |= word_peek(j, word_addr) ^ data;
        });
        stats_.validated_words += words;
        bool valid = diff == 0;
        if (predict_.enabled) {
          // The "settled value" against a speculative joiner is the
          // joiner's buffered view. Training on it is slightly optimistic
          // (the joiner may itself roll back later), but the predictor is
          // a hint table — a wrong lesson costs one mispredict, never
          // correctness.
          valid = settle_predicted(
              b, valid, [&](uintptr_t a) { return word_peek(j, a); });
        }
        return valid;
      });
    });
  }

  // Commits marked write-set bytes to main memory — in address order when
  // the set is large enough for the ordered walk to beat the sort.
  void commit_to_memory() {
    dispatch([&](auto& b) {
      // Locality accounting only the sharded backend can provide: the
      // words of this commit that stream from the slot's home shard.
      // Detected structurally so the other backends pay nothing.
      if constexpr (requires { b.local_write_words(); }) {
        stats_.local_commit_words += b.local_write_words();
      }
      auto commit_one = [](uintptr_t word_addr, uint64_t data, uint64_t mark) {
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
      };
      if (b.write_entries() >= kAddressOrderThreshold) {
        scratch_.clear();
        b.for_each_write(
            [&](uintptr_t word_addr, uint64_t data, uint64_t mark) {
              scratch_.push_back(SetEntry{word_addr, data, mark});
            });
        sort_scratch();
        for (const SetEntry& e : scratch_) {
          commit_one(e.word_addr, e.data, e.mark);
        }
      } else {
        b.for_each_write(commit_one);
      }
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
    // Adoption mutates the joiner's sets behind its cached lines (a word a
    // line proved write-absent may gain a write): drop them all.
    joiner.mru_invalidate();
    dispatch([&](auto& b) {
      joiner.dispatch([&](auto& j) {
        b.for_each_write(
            [&](uintptr_t word_addr, uint64_t data, uint64_t mark) {
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
    });
  }

  // --- lifecycle, doom and pressure signals, statistics ---

  // Discards all buffered state; clears doom. Part of both the settle path
  // and rearm(); the cost counters intentionally survive (the settle paths
  // read them after resetting).
  void reset() {
    // Track the footprint high-water mark for the adaptive calm check
    // before the entry counts vanish.
    footprint_hwm_ = std::max(footprint_hwm_,
                              std::max(read_entries(), write_entries()));
    mru_invalidate();
    predicted_.clear();
    dispatch([](auto& b) { b.reset(); });
  }

  // Re-arms this buffer for the next speculation on its virtual-CPU slot:
  // applies the adaptive flip decision (based on the finished
  // speculation's counters), resets buffered state and zeroes the per-
  // speculation counters. A flip is recorded in the *new* speculation's
  // backend_flips counter — "this speculation started on a freshly flipped
  // backend" — while the flipped state itself persists per slot.
  void rearm() {
    // Capture the retiring speculation's footprint before deciding: in
    // the standalone flow (no settle-time reset() preceding this call)
    // the sets are still populated here, and the calm check below would
    // otherwise compare against an empty high-water mark — flipping a
    // busy slot back and flapping.
    footprint_hwm_ = std::max(footprint_hwm_,
                              std::max(read_entries(), write_entries()));
    BufferBackend next = active_;
    if (configured_ == BufferBackend::kAdaptive) next = adapt_next();
    // The observed footprint seeds a flip target's capacity so the next
    // speculation does not rediscover it through the doubling ladder.
    const size_t flip_hint = footprint_hwm_;
    reset();
    footprint_hwm_ = 0;
    clear_stats();
    if (next != active_) activate(next, flip_hint);
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

  // Cost-counter snapshot. One block per buffer, shared by whichever
  // backend is active (so an adaptive flip never strands counters).
  // Survives reset(); zeroed by clear_stats()/rearm() when a virtual-CPU
  // slot is re-armed for a new speculation.
  const SpecBufferStats& stats() const { return stats_; }
  void clear_stats() { stats_.clear(); }

  // The slot's value predictor (tests, diagnostics). Like the adaptive
  // flip state it persists across rearm(): the slot learns across
  // speculations.
  const ValuePredictor& predictor() const { return predictor_; }

 private:
  // --- the word-view cache + view composition ---
  //
  // kMruLines direct-mapped lines, each caching one resolved word view and
  // shared by all backends through their handle accessors: `r`/`w` hold the
  // backend's WordRef::handle for the word's read-/write-set slot (+1
  // encoded by the backend; 0 = not yet resolved), with kWriteAbsent
  // marking a word *proven* absent from the write set. A word maps to one
  // line, so a store always updates the line a later load of the same word
  // consults; two words that alias a line simply evict each other. Handles
  // are only ever interpreted by the backend that produced them: every line
  // is invalidated on reset(), and adaptive flips happen strictly after a
  // reset, so a handle can never cross backends.
  //
  // Invalidation is O(1): the line's index bits and the three alignment
  // bits of a word address are implied by the line it sits in, so the tag
  // stores the remaining high bits with the current generation in those
  // low bits. Bumping the generation orphans every line at once; only when
  // it wraps (every kMruGenMask invalidations) is the table cleared. Tag 0
  // never matches, since generations start at 1.
  //
  // A hit serves the word from the cached handles with no probe; the miss
  // path pays one compare and a three-field refresh, so access patterns
  // that never revisit a word lose nothing.
  static constexpr uint32_t kWriteAbsent = 0xffffffffu;
  static constexpr uintptr_t kMruGenMask = kMruLines * kWordSize - 1;
  static_assert((kMruLines & (kMruLines - 1)) == 0,
                "kMruLines must be a power of two");

  struct MruLine {
    uintptr_t tag;
    uint32_t r;  // read-set handle; 0 = unknown
    uint32_t w;  // write-set handle; 0 = unknown; kWriteAbsent
  };

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

  // The thread's current view of one whole word: write-set marked bytes
  // over the read-set observation over main memory. First touch inserts
  // the word into the read-set; capacity exhaustion dooms the thread (via
  // the backend's insert_read) and falls back to the main-memory value.
  //
  // The line hit is inline; everything else is the out-of-line
  // word_view_miss, so the hit compiles to straight-line code in the
  // caller.
  template <typename B>
  uint64_t word_view(B& b, uintptr_t word_addr) {
    MruLine& line = mru_line(word_addr);
    if (line.tag == mru_tag(word_addr)) {
      // Serve entirely from the cached handles when the line knows
      // everything the probing path would re-derive.
      if (line.w != 0 && line.w != kWriteAbsent) {
        uint64_t mark = b.write_mark(line.w);
        if (mark == kFullMark) {
          ++stats_.mru_hits;
          ++stats_.probe_skips;
          return b.write_data(line.w);
        }
        if (line.r != 0) {
          ++stats_.mru_hits;
          stats_.probe_skips += 2;
          return overlay_bytes(b.read_data(line.r), b.write_data(line.w),
                               mark);
        }
      } else if (line.w == kWriteAbsent && line.r != 0) {
        ++stats_.mru_hits;
        stats_.probe_skips += 2;
        return b.read_data(line.r);
      }
    }
    return word_view_miss(b, word_addr, line);
  }

  template <typename B>
  [[gnu::noinline]] uint64_t word_view_miss(B& b, uintptr_t word_addr,
                                            MruLine& line) {
    const uintptr_t tag = mru_tag(word_addr);
    ++stats_.mru_misses;
    // Keep whatever half of the line is still valid when re-resolving the
    // same word (e.g. a read after a store that only knew the write slot).
    uint32_t mr = line.tag == tag ? line.r : 0;

    WordRef w = b.find_write(word_addr);
    uint32_t mw = w.data ? w.handle : kWriteAbsent;
    if (w.data && *w.mark == kFullMark) {
      line = MruLine{tag, mr, mw};
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
    line = MruLine{tag, r.handle, mw};
    uint64_t base = *r.data;
    if (w.data) {
      // Overlay the bytes this thread already wrote. `w` points into the
      // write set, untouched by the read-set insertion above.
      base = overlay_bytes(base, *w.data, *w.mark);
    }
    return base;
  }

  // Like word_view but never inserts into the read-set and leaves the
  // word-view cache untouched (used when a speculative joiner's view is evaluated
  // from the child's thread).
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
  // capacity exhaustion (via the backend's insert_write).
  // Like word_view, the line hit is inline and the rest out of line.
  template <typename B>
  void word_write(B& b, uintptr_t word_addr, uint64_t value, uint64_t mask) {
    MruLine& line = mru_line(word_addr);
    if (line.tag == mru_tag(word_addr) && line.w != 0 &&
        line.w != kWriteAbsent) {
      ++stats_.mru_hits;
      ++stats_.probe_skips;
      uint64_t& d = b.write_data(line.w);
      d = overlay_bytes(d, value, mask);
      b.write_mark(line.w) |= mask;
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
    uint32_t mr = line.tag == tag ? line.r : 0;
    line = MruLine{tag, mr, w.handle};
  }

  // --- adaptive backend selection (kAdaptive) ---

  // The flip decision, evaluated in rearm() against the finished
  // speculation's counters (they survive reset() until clear_stats()).
  BufferBackend adapt_next() {
    if (active_ == BufferBackend::kStaticHash) {
      overflow_score_ += stats_.overflow_events;
      if (overflow_score_ >= policy_.overflow_threshold) {
        // Flipping on own evidence clears the calm-revert latch: the slot
        // is eligible for fleet-following again once it re-earns a flip.
        calm_reverted_ = false;
        return BufferBackend::kGrowableLog;
      }
      // Fleet-wide proactive flip: once at least half the sibling slots
      // run on the growable log, a uniform-footprint loop has effectively
      // proven the capacity wall for everyone — flip now instead of
      // paying this slot's own overflow-doom learning curve. The
      // calm_reverted_ latch keeps a slot that *earned* its way back to
      // the static hash (calm hysteresis) from being dragged straight
      // back up by a still-flipped majority — without it the fleet would
      // flap one slot per epoch forever.
      if (fleet_ != nullptr && fleet_->slots >= 2 && !calm_reverted_ &&
          2 * fleet_->flipped.load(std::memory_order_relaxed) >=
              fleet_->slots) {
        return BufferBackend::kGrowableLog;
      }
    } else {
      // Calm = the speculation neither resized nor ran a footprint the
      // static table couldn't hold at low load (half capacity is the
      // comfort proxy: near-full static tables collision-doom). Without
      // the footprint check a flipped slot whose big footprints fit the
      // *grown* index without resizing would flip back, overflow-doom, and
      // flip up again — exactly the flapping the hysteresis exists to
      // prevent.
      bool calm = stats_.resize_events == 0 &&
                  footprint_hwm_ * 2 <= (size_t{1} << log2_);
      if (!calm) {
        calm_epochs_ = 0;
      } else if (++calm_epochs_ >= policy_.calm_hysteresis) {
        overflow_score_ = 0;
        calm_epochs_ = 0;
        calm_reverted_ = true;
        return BufferBackend::kStaticHash;
      }
    }
    return active_;
  }

  void activate(BufferBackend target, size_t footprint_hint = 0) {
    if (fleet_ != nullptr) {
      // Keep the fleet's flipped count in step with this slot's active
      // backend (relaxed: a momentarily stale count only shifts *when* a
      // sibling follows, never correctness).
      if (target == BufferBackend::kGrowableLog &&
          active_ != BufferBackend::kGrowableLog) {
        fleet_->flipped.fetch_add(1, std::memory_order_relaxed);
      } else if (target != BufferBackend::kGrowableLog &&
                 active_ == BufferBackend::kGrowableLog) {
        fleet_->flipped.fetch_sub(1, std::memory_order_relaxed);
      }
    }
    if (target == BufferBackend::kGrowableLog && !growable_ready_) {
      growable_log_.init(log2_, overflow_cap_, &stats_, growable_max_log2_,
                         arena_);
      growable_ready_ = true;
    }
    active_ = target;
    // The target starts clean (it was reset when deactivated, but a flip
    // must never trust that); grown growable capacity is carried forward —
    // clear() keeps the index.
    dispatch([](auto& b) { b.reset(); });
    if (target == BufferBackend::kGrowableLog && footprint_hint != 0) {
      // Seed the flipped slot at the footprint the static hash observed
      // (entries at the doom point — a lower bound on the true footprint,
      // but it skips the bulk of the doubling ladder right after a flip).
      growable_log_.reserve(footprint_hint);
    }
    ++stats_.backend_flips;
  }

  BufferBackend configured_ = BufferBackend::kStaticHash;
  BufferBackend active_ = BufferBackend::kStaticHash;
  GlobalBuffer static_hash_;
  GrowableLogBuffer growable_log_;
  NumaShardedBuffer numa_sharded_;
  SpecBufferStats stats_;
  NumaPolicy numa_;

  MruLine mru_[kMruLines] = {};
  uintptr_t mru_gen_ = 1;  // in [1, kMruGenMask]; see mru_tag

  // Adaptive state (kAdaptive only). Persists across rearm() — that is the
  // point: the *slot* learns, while the counters stay per-speculation.
  AdaptivePolicy policy_;
  int log2_ = 0;
  size_t overflow_cap_ = 0;
  int growable_max_log2_ = GrowableSet::kMaxLog2;
  uint64_t overflow_score_ = 0;
  uint64_t calm_epochs_ = 0;
  size_t footprint_hwm_ = 0;
  bool growable_ready_ = false;
  // Set when the calm hysteresis reverted this slot to the static hash;
  // cleared when the slot flips on its own overflow evidence. Gates the
  // fleet-following flip (see adapt_next).
  bool calm_reverted_ = false;
  SpecFleetView* fleet_ = nullptr;
  Arena* arena_ = nullptr;

  // Value prediction (PredictPolicy.enabled only). The predictor — like
  // the adaptive state above — persists across rearm(); the per-
  // speculation side table of bets is cleared with the sets on reset().
  PredictPolicy predict_;
  ValuePredictor predictor_;
  struct PredictedRead {
    uintptr_t word_addr;
    uint64_t predicted;  // what the read-set adopted (and validation saw)
    uint64_t observed;   // what memory actually held at access time
  };
  PodVec<PredictedRead> predicted_;

  // Reused gather buffer for the join-time set walks: large sets are
  // streamed into it, sorted by address, and then touch main memory in
  // address order (sequential prefetch instead of hash-order hopping).
  // Small sets fit in cache, where the sort costs more than hash-order
  // misses ever could — they are walked directly instead; the threshold is
  // roughly where a set's footprint outgrows L1/L2. Arena-pooled (capacity
  // retained across epochs): the settle path stays allocation-free.
  struct SetEntry {
    uintptr_t word_addr;
    uint64_t data;
    uint64_t mark;
  };
  static constexpr size_t kAddressOrderThreshold = 4096;
  PodVec<SetEntry> scratch_;

  void sort_scratch() {
    std::sort(scratch_.begin(), scratch_.end(),
              [](const SetEntry& a, const SetEntry& b) {
                return a.word_addr < b.word_addr;
              });
  }
};

}  // namespace mutls
