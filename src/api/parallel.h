// Parallel-algorithms layer of the native MUTLS embedding (API v2, layer 4
// of 4).
//
// Two levels live here:
//
//  * the raw loop driver `spec_for` — the paper's loop-speculation pattern
//    (section II) expressed directly on fork/join. It also runs nested
//    inside a speculated region, where the caller's prefix is itself
//    speculative and the pieces are forked by a speculative thread;
//  * `mutls::par` — `for_each`, `reduce`, `divide_and_conquer`, `pipeline`:
//    one-liner entry points for the paper's three program shapes (loop,
//    divide and conquer, depth-first/staged work), built on the driver and
//    the tree-form fork so a new scenario needs no protocol code at all.
//
// `spec_for` puts the calling thread to work. It runs a prefix of the
// chunks itself while up to `num_cpus` detached speculations ("pieces")
// run contiguous runs of the remaining chunks, in order. Where the prefix
// ends and each piece starts (the "cuts") is learned per loop site: after
// every call in which all pieces committed, the cuts move toward equal
// finish times, so a loop whose speculative chunks run several times
// slower than native ones hands most chunks to the caller, and a loop with
// uneven chunk costs gets cuts that split the cost rather than the chunk
// count.
//
// Loop bodies are best written generic in their context (`[&](auto& c,
// ...)`): the pieces then run the body with a `Ctx`, and a non-speculative
// caller runs its chunks with a `NativeCtx`, which has no speculative path
// compiled in. These are the paper's two versions of a speculated region
// (IV-C, step 1), as two instantiations of one body. A body that takes
// `Ctx&` works as well; the caller then runs it through its Ctx.
//
// A loop site forks only while forking pays. The site's record (LoopSite)
// holds, besides the cuts, the site's ForkGate ("api/spec.h"): a call that
// forked lost when its wall time exceeded what the caller alone would have
// taken, and a site that keeps losing declines. A declined call forks no
// piece, counts one denied fork per piece, and the caller runs every chunk
// itself, natively when it is the non-speculative thread.
// `par::divide_and_conquer` forks through fork_scoped, whose sites judge
// their forks at the join.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "api/ctx.h"
#include "api/shared.h"
#include "api/spec.h"
#include "support/check.h"
#include "support/latency_histogram.h"
#include "support/timing.h"

namespace mutls {

namespace detail {

// The record of one `spec_for` site: one per instantiation, living for
// the process, so a loop that runs once per program run (or once per
// Runtime) still starts from what earlier runs learned. The e2e driver
// builds a fresh Runtime per program run, and its warm-up runs train the
// record. It holds the site's ForkGate, the caller's own ns per chunk as
// the last declined call measured it, and the cuts. Segment 0 is the
// caller's prefix and segment k the k-th piece; cut k, stored as a
// fraction of the chunk range, is where piece k starts. Relaxed atomics:
// two runtimes calling one site from two threads may interleave their
// updates, which costs balance, never correctness — every call clamps the
// cuts it reads into a valid split.
class LoopSite {
 public:
  // Pieces per call at most; a loop on more virtual CPUs leaves the rest
  // idle.
  static constexpr int kMaxPieces = 64;

  ForkGate gate;

  // A declined call ran all `chunks` on the caller in `ns`.
  void record_solo(uint64_t ns, int chunks) {
    solo_ns_per_chunk_.store(
        static_cast<float>(static_cast<double>(ns) / chunks),
        std::memory_order_relaxed);
  }

  // The verdict of a call that forked and took `wall_ns`: it won when the
  // caller alone would have taken at least as long, `chunks` times the
  // caller's own ns per chunk. The rate a declined call measured is
  // preferred; until one has run, it comes from this call's prefix, which
  // runs low when chunk costs are uneven.
  bool won(uint64_t wall_ns, int chunks, const int* bound,
           const uint64_t* start, const uint64_t* finish) const {
    double per_chunk = solo_ns_per_chunk_.load(std::memory_order_relaxed);
    if (per_chunk == 0.0) {
      per_chunk = static_cast<double>(finish[0] - start[0]) /
                  static_cast<double>(bound[1] - bound[0]);
    }
    return static_cast<double>(wall_ns) <= per_chunk * chunks;
  }

  // Fills bound[0..pieces + 1] with the chunk bounds of the next call:
  // segment s is [bound[s], bound[s + 1]), and every segment gets at least
  // one chunk. A record trained for another piece count restarts from
  // equal segments.
  void bounds(int pieces, int chunks, int* bound) {
    bound[0] = 0;
    bound[pieces + 1] = chunks;
    if (pieces == 0) return;
    if (pieces_.load(std::memory_order_relaxed) != pieces) {
      const float segments = static_cast<float>(pieces + 1);
      for (int k = 1; k <= pieces; ++k) {
        cut_[k - 1].store(static_cast<float>(k) / segments,
                          std::memory_order_relaxed);
      }
      pieces_.store(pieces, std::memory_order_relaxed);
    }
    for (int k = 1; k <= pieces; ++k) {
      long b = std::lround(cut_[k - 1].load(std::memory_order_relaxed) *
                           static_cast<float>(chunks));
      bound[k] = static_cast<int>(std::clamp<long>(
          b, bound[k - 1] + 1, chunks - (pieces + 1 - k)));
    }
  }

  // Moves the cuts after a call in which every piece committed. start[s]
  // and finish[s] are when segment s's first chunk began and its last
  // chunk ended, in ns since the call began (so a piece's finish includes
  // its fork latency). Each segment's measured rate predicts the common
  // finish time T at which all segments would end if chunks moved freely;
  // every cut then moves by half the chunks the segments before it must
  // gain or shed to end at T. Half steps keep one noisy call from
  // overshooting, and a loop with uneven chunk costs converges because the
  // rate estimate is refreshed as the cuts move.
  void rebalance(int pieces, int chunks, const int* bound,
                 const uint64_t* start, const uint64_t* finish) {
    double rate[kMaxPieces + 1];  // chunks per ns
    double num = 0.0, den = 0.0;
    for (int s = 0; s <= pieces; ++s) {
      double busy = static_cast<double>(finish[s] - start[s]);
      rate[s] = static_cast<double>(bound[s + 1] - bound[s]) /
                std::max(busy, 1.0);
      num += static_cast<double>(finish[s]) * rate[s];
      den += rate[s];
    }
    const double target = num / den;
    double gained = 0.0;  // chunks segments 0..k-1 gain, in half steps
    float prev = 0.0f;
    for (int k = 1; k <= pieces; ++k) {
      gained += 0.5 * (target - static_cast<double>(finish[k - 1])) *
                rate[k - 1];
      float cut = cut_[k - 1].load(std::memory_order_relaxed) +
                  static_cast<float>(gained / chunks);
      // Keep the cut inside the range its bound can take, so a cut pinned
      // at a one-chunk minimum does not wind up past it.
      float lo = static_cast<float>(k) / static_cast<float>(chunks);
      float hi = static_cast<float>(chunks - (pieces + 1 - k)) /
                 static_cast<float>(chunks);
      cut = std::clamp(cut, std::max(lo, prev), hi);
      cut_[k - 1].store(cut, std::memory_order_relaxed);
      prev = cut;
    }
  }

 private:
  std::atomic<int> pieces_{0};
  std::atomic<float> cut_[kMaxPieces];
  std::atomic<float> solo_ns_per_chunk_{0.0f};  // 0: no declined call yet
};

}  // namespace detail

// The loop driver (the paper's loop pattern, section II, run with the
// mixed model's out-of-order forks and LIFO joins, IV-F): splits
// [begin, end) into `chunks` contiguous chunks and calls body(c,
// chunk_index, lo, hi) once per chunk, in chunk order as far as the result
// can tell, with a check point after every chunk.
//
// The context c. Pieces pass their Ctx, and so does a speculative caller:
// nested inside a speculated region every chunk sees a Ctx. A
// non-speculative caller passes a NativeCtx whenever the body is invocable
// with one; a body that takes Ctx& is too, and gets the caller's Ctx
// through NativeCtx's conversion. The choice is made from the body's type
// and the caller's role only.
//
// The schedule. With n = min(num_cpus, chunks - 1) pieces, the caller owns
// chunks [0, c1) and piece k owns [c_k, c_{k+1}). The pieces are forked
// far-first as detached speculations tagged k, so the children stack
// returns them nearest-first. The caller runs its prefix, then walks the
// pieces in order: a committed piece needs nothing more; a rolled-back or
// denied piece has its chunks run inline by the caller. There is no
// cascade: each piece is validated against exactly the state its
// predecessors left, so it stands or falls on its own reads.
//
// The cuts come from this instantiation's LoopSite record (above): equal
// segments when cold, moved toward equal finish times after every call in
// which all pieces committed; a rollback or a denied fork leaves them
// alone.
//
// Whether to fork at all is the record's ForkGate's call. A call whose
// granted pieces made it slower than the caller alone counts as a loss,
// and a site that keeps losing is declined: the caller runs every chunk
// and fork_denied grows by the pieces not forked, until a probe call wins.
//
// Fork models: under kInOrder the non-speculative thread may fork only
// while nothing else is live, so the farthest piece speculates and the
// caller runs every other chunk itself. Results stay exact under every
// model; only the overlap differs.
//
// Fork-to-settle latency sampling (the serving bench's percentile source):
// pass a histogram plus a scratch array of at least `chunks` entries. The
// caller stamps fork_ns_scratch[k] just before forking piece k and records
// now - stamp at its join, one sample per granted piece.
template <typename BodyFn>
void spec_for(Runtime& rt, Ctx& ctx, int64_t begin, int64_t end, int chunks,
              ForkModel model, const BodyFn& body,
              LatencyHistogram* fork_latency = nullptr,
              uint64_t* fork_ns_scratch = nullptr) {
  if (begin >= end || chunks <= 0) return;
  MUTLS_CHECK(fork_latency == nullptr || fork_ns_scratch != nullptr,
              "latency sampling needs a per-chunk scratch array");
  using detail::LoopSite;
  using Decision = detail::ForkGate::Decision;
  static LoopSite site;
  struct Schedule {
    int64_t begin, end;
    int chunks;
    uint64_t t0;
    int bound[LoopSite::kMaxPieces + 2] = {};
    // Per segment, ns since t0. A piece writes its own entries on its
    // thread; the caller reads them only after that piece's committed
    // join, which orders the writes.
    uint64_t start[LoopSite::kMaxPieces + 1] = {};
    uint64_t finish[LoopSite::kMaxPieces + 1] = {};
  };
  ThreadData& td = ctx.thread_data();
  int pieces = std::min({rt.num_cpus(), chunks - 1, LoopSite::kMaxPieces});
  const Decision d =
      pieces == 0 ? Decision::kUngated
                  : site.gate.admit(rt.num_cpus(),
                                    rt.manager().config().adaptive_forks);
  if (d == Decision::kDecline) {
    td.stats.fork_denied += static_cast<uint64_t>(pieces);
    pieces = 0;
  }
  Schedule w{begin, end, chunks, now_ns()};
  site.bounds(pieces, chunks, w.bound);

  // Runs segment s on context c: the body's speculative version on a
  // piece's Ctx, its native version on the caller's NativeCtx.
  auto run = [&w, &body]<typename C>(C& c, int s)
               requires std::is_invocable_v<const BodyFn&, C&, int, int64_t,
                                            int64_t>
  {
    w.start[s] = now_ns() - w.t0;
    for (int i = w.bound[s]; i < w.bound[s + 1]; ++i) {
      body(c, i, w.begin + (w.end - w.begin) * i / w.chunks,
           w.begin + (w.end - w.begin) * (i + 1) / w.chunks);
      c.check_point();
    }
    w.finish[s] = now_ns() - w.t0;
  };
  // The caller's segments: its prefix, and every piece it re-runs.
  auto run_here = [&](int s) { invoke_on(ctx, run, s); };

  if (d == Decision::kDecline) {
    run_here(0);
    site.record_solo(w.finish[0] - w.start[0], chunks);
    return;
  }
  const size_t base = td.children.size();
  bool granted[LoopSite::kMaxPieces + 1];
  int forked = 0;     // pieces granted a CPU
  bool clean = true;  // every piece granted and committed
  try {
    for (int k = pieces; k >= 1; --k) {
      if (fork_latency != nullptr) fork_ns_scratch[k] = now_ns();
      granted[k] = rt.fork(ctx,
                           ForkOpts{.model = model,
                                    .tag = static_cast<uint64_t>(k),
                                    .detached = true},
                           [&run, k](Ctx& c) { run(c, k); })
                       .speculated();
      forked += granted[k];
    }
    run_here(0);
    for (int k = 1; k <= pieces; ++k) {
      bool committed = false;
      if (granted[k]) {
        Runtime::AdoptedJoin j = rt.join_next(ctx);
        MUTLS_CHECK(j.joined && j.tag == static_cast<uint64_t>(k),
                    "spec_for joined another speculation than its next "
                    "piece (a body left a detached child unjoined?)");
        // Every settle counts, commit or rollback: the bench's
        // percentiles describe round-trip cost, and rollbacks are part of
        // that cost.
        if (fork_latency != nullptr) {
          fork_latency->record(now_ns() - fork_ns_scratch[k]);
        }
        committed = j.outcome == JoinOutcome::kCommitted;
      }
      if (!committed) {
        clean = false;
        run_here(k);
      }
    }
  } catch (...) {
    // The live pieces run on this frame: discard them before it unwinds.
    site.gate.no_verdict(d);
    rt.manager().nosync_children(td, base);
    throw;
  }
  if (forked == 0) {
    site.gate.no_verdict(d);
  } else {
    site.gate.verdict(d, site.won(now_ns() - w.t0, chunks, w.bound, w.start,
                                  w.finish));
  }
  if (clean) site.rebalance(pieces, chunks, w.bound, w.start, w.finish);
}

namespace par {

// Options shared by the loop-shaped algorithms.
struct LoopOpts {
  // Number of contiguous chunks the range is split into. 0 picks twice the
  // virtual-CPU count. The chunk is the unit the cuts move by: more chunks
  // let spec_for balance its segments more finely.
  int chunks = 0;

  ForkModel model = ForkModel::kMixed;

  // When > 0, poll Ctx::check_point every this many elements inside a
  // chunk (element-wise algorithms only); spec_for always polls at chunk
  // boundaries.
  int64_t checkpoint_every = 0;

  // Fork-to-settle latency sampling. Both must be set together: the
  // histogram receives one sample per granted piece, stamped through the
  // scratch array, which needs capacity for `chunks` entries and whose
  // contents are meaningless between calls.
  LatencyHistogram* fork_latency = nullptr;
  uint64_t* fork_ns_scratch = nullptr;
};

inline int resolve_chunks(const Runtime& rt, const LoopOpts& opts) {
  return opts.chunks > 0 ? opts.chunks : 2 * rt.num_cpus();
}

// Chunk-wise parallel loop: body(c, chunk_index, lo, hi) over [begin,
// end) split into opts.chunks chunks, run by spec_for's schedule (which
// also picks the context c).
template <typename BodyFn>
void for_each_chunk(Runtime& rt, Ctx& ctx, int64_t begin, int64_t end,
                    const LoopOpts& opts, const BodyFn& body) {
  spec_for(rt, ctx, begin, end, resolve_chunks(rt, opts), opts.model, body,
           opts.fork_latency, opts.fork_ns_scratch);
}

// Element-wise parallel loop: body(c, i) for every i in [begin, end). The
// chunk wrapper takes whatever context the body takes, so spec_for sees
// the body's own constraint.
template <typename BodyFn>
void for_each(Runtime& rt, Ctx& ctx, int64_t begin, int64_t end,
              const LoopOpts& opts, const BodyFn& body) {
  for_each_chunk(rt, ctx, begin, end, opts,
                 [&]<typename C>(C& c, int, int64_t lo, int64_t hi)
                   requires std::is_invocable_v<const BodyFn&, C&, int64_t>
                 {
                   int64_t since = 0;
                   for (int64_t i = lo; i < hi; ++i) {
                     body(c, i);
                     if (opts.checkpoint_every > 0 &&
                         ++since >= opts.checkpoint_every) {
                       since = 0;
                       c.check_point();
                     }
                   }
                 });
}

// Parallel reduction: combine(init, map(c, i) for i in [begin, end)), with
// c chosen as for for_each.
// `init` must be the identity of `combine` (0 for +, +inf for min, ...):
// each chunk starts its accumulator from it. Chunk partials land in a
// registered scratch array (one slot per chunk, no conflicts) and are
// folded in chunk order, so the result is exactly the sequential fold for
// any associative combine.
template <typename T, typename MapFn, typename CombineFn = std::plus<T>>
T reduce(Runtime& rt, Ctx& ctx, int64_t begin, int64_t end,
         const LoopOpts& opts, T init, const MapFn& map,
         const CombineFn& combine = {}) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (begin >= end) return init;
  if (ctx.speculative()) {
    // Inside a speculated region the scratch array below would be freed
    // (and unregistered) before the enclosing speculation validates and
    // commits the buffered accesses to it — so compute inline instead.
    // The caller is already one arm of the speculation tree; nested
    // reduction parallelism is not worth a dangling commit.
    T acc = init;
    int64_t since = 0;
    for (int64_t i = begin; i < end; ++i) {
      acc = combine(acc, map(ctx, i));
      if (opts.checkpoint_every > 0 && ++since >= opts.checkpoint_every) {
        since = 0;
        ctx.check_point();
      }
    }
    return acc;
  }
  LoopOpts o = opts;
  o.chunks = resolve_chunks(rt, opts);
  SharedArray<T> partial(rt, static_cast<size_t>(o.chunks), init);
  for_each_chunk(rt, ctx, begin, end, o,
                 [&]<typename C>(C& c, int chunk, int64_t lo, int64_t hi)
                   requires std::is_invocable_v<const MapFn&, C&, int64_t>
                 {
                   T acc = init;
                   int64_t since = 0;
                   for (int64_t i = lo; i < hi; ++i) {
                     acc = combine(acc, map(c, i));
                     if (o.checkpoint_every > 0 &&
                         ++since >= o.checkpoint_every) {
                       since = 0;
                       c.check_point();
                     }
                   }
                   partial.at(c, static_cast<size_t>(chunk)) = acc;
                 });
  // The speculative-context case returned above, so the caller is the
  // non-speculative thread here and every chunk has been joined: the
  // partials are plain committed memory.
  T acc = init;
  for (size_t i = 0; i < partial.size(); ++i) {
    acc = combine(acc, partial[i]);
  }
  return acc;
}

// Options for the divide-and-conquer shape.
struct DncOpts {
  ForkModel model = ForkModel::kMixed;
  // Tree depth down to which sibling subproblems are speculated; below it
  // the recursion runs inline. With the mixed model the speculative
  // children fork further, unfolding the top of the tree (paper section
  // II).
  int fork_levels = 4;
};

// Generic tree-form divide and conquer over problems of type P:
//
//   if (is_leaf(p))  leaf(ctx, p)
//   else             subs = split(p); recurse on each, in order;
//                    then post(ctx, p)   // the combine step
//
// While depth < fork_levels, subproblems after the first are speculated
// (the parent descends into subs[0] itself) and joined LIFO via ScopedSpec
// scope order — the paper's tree-form pattern, where only the mixed model
// unfolds the whole tree. Sequential semantics are preserved for any
// split/leaf/post that is correct sequentially.
template <typename P, typename IsLeafFn, typename SplitFn, typename LeafFn,
          typename PostFn>
void divide_and_conquer(Runtime& rt, Ctx& ctx, const P& p,
                        const DncOpts& opts, const IsLeafFn& is_leaf,
                        const SplitFn& split, const LeafFn& leaf,
                        const PostFn& post, int level = 0) {
  if (is_leaf(p)) {
    leaf(ctx, p);
    return;
  }
  std::vector<P> subs = split(p);
  if (level < opts.fork_levels && subs.size() > 1) {
    // Each sibling's ScopedSpec is a true stack local of one recursion
    // frame (not a container element — ~ScopedSpec may throw SpecAbort,
    // which library containers may not survive): fork subs[1..k-1] on the
    // way down, descend into subs[0] at the bottom, and join LIFO on the
    // way back up — the mixed-model order.
    auto fork_rest = [&](auto&& self, size_t i) -> void {
      if (i >= subs.size()) {
        divide_and_conquer(rt, ctx, subs[0], opts, is_leaf, split, leaf,
                           post, level + 1);
        ctx.check_point();
        return;
      }
      P sub = subs[i];
      ScopedSpec s = rt.fork_scoped(
          ctx, ForkOpts{.model = opts.model}, [&, sub, level](Ctx& c) {
            divide_and_conquer(rt, c, sub, opts, is_leaf, split, leaf, post,
                               level + 1);
          });
      self(self, i + 1);
    };  // sibling i joins here, after siblings i+1..k-1
    fork_rest(fork_rest, 1);
  } else {
    for (const P& sub : subs) {
      divide_and_conquer(rt, ctx, sub, opts, is_leaf, split, leaf, post,
                         level + 1);
    }
  }
  post(ctx, p);
}

// Overload without a combine step.
template <typename P, typename IsLeafFn, typename SplitFn, typename LeafFn>
void divide_and_conquer(Runtime& rt, Ctx& ctx, const P& p,
                        const DncOpts& opts, const IsLeafFn& is_leaf,
                        const SplitFn& split, const LeafFn& leaf) {
  divide_and_conquer(rt, ctx, p, opts, is_leaf, split, leaf,
                     [](Ctx&, const P&) {});
}

// Speculative pipeline: runs `stages` (in order) on every item in
// [0, items), speculating ahead across item blocks with spec_for's
// schedule. Cross-item flow dependencies — a stage reading what an earlier
// item's stage wrote — are not forbidden: the buffer map detects the
// violated read, and the piece that made it fails validation and has its
// items re-run by the caller, so results stay exactly sequential;
// dependency-light pipelines simply overlap.
using PipelineStage = std::function<void(Ctx&, int64_t)>;

inline void pipeline(Runtime& rt, Ctx& ctx, int64_t items,
                     const std::vector<PipelineStage>& stages,
                     LoopOpts opts = {}) {
  if (items <= 0 || stages.empty()) return;
  if (opts.chunks <= 0) {
    int64_t def = resolve_chunks(rt, opts);
    opts.chunks = static_cast<int>(items < def ? items : def);
  }
  for_each_chunk(rt, ctx, 0, items, opts,
                 [&](Ctx& c, int, int64_t lo, int64_t hi) {
                   for (int64_t i = lo; i < hi; ++i) {
                     for (const PipelineStage& stage : stages) {
                       stage(c, i);
                     }
                     c.check_point();
                   }
                 });
}

}  // namespace par

}  // namespace mutls
