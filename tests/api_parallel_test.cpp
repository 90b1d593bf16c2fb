// Tests of the mutls::par algorithms layer: for_each / reduce over all
// forking models, divide_and_conquer (with and without a combine step),
// pipeline (independent and cross-item-dependent stages), and exactness
// under injected rollbacks; spec_for's schedule (caller prefix, contiguous
// pieces, per-site balance), the context type each chunk runs with, and
// its exception paths.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "mutls/mutls.h"

namespace mutls {
namespace {

Runtime::Options small_opts(int cpus = 2) {
  Runtime::Options o;
  o.num_cpus = cpus;
  o.buffer_log2 = 12;
  o.overflow_cap = 1024;
  return o;
}

TEST(ParForEach, ComputesEveryElementOnce) {
  for (ForkModel m : {ForkModel::kInOrder, ForkModel::kOutOfOrder,
                      ForkModel::kMixed}) {
    Runtime rt(small_opts());
    constexpr size_t kN = 200;
    SharedArray<uint64_t> out(rt, kN, 0);
    rt.run([&](Ctx& ctx) {
      par::for_each(rt, ctx, 0, static_cast<int64_t>(kN),
                    {.chunks = 8, .model = m}, [&](Ctx& c, int64_t i) {
                      out.span(c)[static_cast<size_t>(i)] =
                          static_cast<uint64_t>(i * i);
                    });
    });
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(out[i], static_cast<uint64_t>(i) * i)
          << fork_model_name(m) << " index " << i;
    }
  }
}

TEST(ParForEach, DefaultChunkCountAndEmptyRange) {
  Runtime rt(small_opts());
  SharedArray<uint64_t> out(rt, 64, 0);
  rt.run([&](Ctx& ctx) {
    par::for_each(rt, ctx, 0, 64, {}, [&](Ctx& c, int64_t i) {
      out.span(c)[static_cast<size_t>(i)] = 1;
    });
    par::for_each(rt, ctx, 5, 5, {}, [&](Ctx&, int64_t) {
      ADD_FAILURE() << "body must not run for an empty range";
    });
  });
  for (size_t i = 0; i < out.size(); ++i) ASSERT_EQ(out[i], 1u);
}

TEST(ParForEach, InsideSpeculatedRegion) {
  Runtime rt(small_opts(4));
  SharedArray<uint64_t> out(rt, 8, 0);
  rt.run([&](Ctx& ctx) {
    ScopedSpec s = rt.fork_scoped(ctx, ForkModel::kMixed, [&](Ctx& c) {
      par::for_each(rt, c, 0, 8, {.chunks = 4},
                    [&](Ctx& cc, int64_t i) {
                      out.span(cc)[static_cast<size_t>(i)] =
                          static_cast<uint64_t>(i + 100);
                    });
    });
  });
  for (size_t i = 0; i < out.size(); ++i) ASSERT_EQ(out[i], i + 100);
}

TEST(ParReduce, SumMatchesClosedForm) {
  for (ForkModel m : {ForkModel::kInOrder, ForkModel::kOutOfOrder,
                      ForkModel::kMixed}) {
    Runtime rt(small_opts());
    uint64_t total = 0;
    rt.run([&](Ctx& ctx) {
      total = par::reduce(rt, ctx, 0, 1000, {.chunks = 8, .model = m},
                          uint64_t{0}, [](Ctx&, int64_t i) {
                            return static_cast<uint64_t>(i);
                          });
    });
    EXPECT_EQ(total, 499500u) << fork_model_name(m);
  }
}

TEST(ParReduce, CustomCombineMin) {
  Runtime rt(small_opts());
  double best = 0.0;
  rt.run([&](Ctx& ctx) {
    best = par::reduce(
        rt, ctx, 0, 500, {.chunks = 8}, 1e300,
        [](Ctx&, int64_t i) {
          double x = static_cast<double>(i) - 250.5;
          return x * x;
        },
        [](double a, double b) { return std::min(a, b); });
  });
  EXPECT_DOUBLE_EQ(best, 0.25);
}

TEST(ParReduce, ExactUnderInjectedRollbacks) {
  Runtime::Options o = small_opts();
  o.rollback_probability = 0.5;
  o.seed = 99;
  Runtime rt(o);
  uint64_t total = 0;
  RunStats rs = rt.run([&](Ctx& ctx) {
    total = par::reduce(rt, ctx, 0, 400, {.chunks = 16}, uint64_t{0},
                        [](Ctx&, int64_t i) {
                          return static_cast<uint64_t>(i) * 3;
                        });
  });
  EXPECT_EQ(total, 3u * (399u * 400u / 2));
  EXPECT_GT(rs.speculative.rollbacks, 0u);
}

TEST(ParReduce, InsideSpeculatedRegionComputesInline) {
  // From a speculative context reduce must not allocate registered scratch
  // (it would be freed before the enclosing speculation commits); it
  // computes inline instead — and the result must still be exact after
  // the enclosing join, including across a rollback re-execution.
  Runtime rt(small_opts(2));
  SharedArray<uint64_t> out(rt, 1, 0);
  rt.run([&](Ctx& ctx) {
    ScopedSpec s = rt.fork_scoped(ctx, ForkModel::kMixed, [&](Ctx& c) {
      uint64_t t = par::reduce(rt, c, 0, 300, {.chunks = 4}, uint64_t{0},
                               [](Ctx&, int64_t i) {
                                 return static_cast<uint64_t>(i);
                               });
      out.at(c, 0) = t;
    });
  });
  EXPECT_EQ(out[0], 299u * 300u / 2);
}

// --- divide and conquer ----------------------------------------------------

struct Range {
  int64_t lo, hi;
};

TEST(ParDivideAndConquer, LeafWritesCoverTheRange) {
  for (int fork_levels : {0, 2, 8}) {
    Runtime rt(small_opts(4));
    constexpr size_t kN = 128;
    SharedArray<uint64_t> out(rt, kN, 0);
    rt.run([&](Ctx& ctx) {
      par::divide_and_conquer(
          rt, ctx, Range{0, kN},
          {.model = ForkModel::kMixed, .fork_levels = fork_levels},
          [](const Range& r) { return r.hi - r.lo <= 8; },
          [](const Range& r) {
            int64_t mid = r.lo + (r.hi - r.lo) / 2;
            return std::vector<Range>{{r.lo, mid}, {mid, r.hi}};
          },
          [&](Ctx& c, const Range& r) {
            SharedSpan<uint64_t> o = out.span(c);
            for (int64_t i = r.lo; i < r.hi; ++i) {
              o[static_cast<size_t>(i)] = static_cast<uint64_t>(i) + 7;
            }
          });
    });
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(out[i], i + 7) << "fork_levels " << fork_levels;
    }
  }
}

TEST(ParDivideAndConquer, CombineStepRunsAfterChildren) {
  // Segment-tree maximum: post() combines child results, so it must see
  // both halves' writes — commit ordering through the tree is the point.
  Runtime rt(small_opts(4));
  constexpr size_t kN = 64;
  SharedArray<uint64_t> vals(rt, kN, 0);
  SharedArray<uint64_t> seg(rt, 4 * kN, 0);
  for (size_t i = 0; i < kN; ++i) {
    vals[i] = (i * 2654435761u) % 1000;
  }
  struct Node {
    int64_t lo, hi;
    size_t idx;
  };
  rt.run([&](Ctx& ctx) {
    par::divide_and_conquer(
        rt, ctx, Node{0, kN, 1}, {.fork_levels = 3},
        [](const Node& n) { return n.hi - n.lo == 1; },
        [](const Node& n) {
          int64_t mid = n.lo + (n.hi - n.lo) / 2;
          return std::vector<Node>{{n.lo, mid, 2 * n.idx},
                                   {mid, n.hi, 2 * n.idx + 1}};
        },
        [&](Ctx& c, const Node& n) {
          seg.at(c, n.idx) = vals.span(c)[static_cast<size_t>(n.lo)].get();
        },
        [&](Ctx& c, const Node& n) {
          SharedSpan<uint64_t> s = seg.span(c);
          uint64_t l = s[2 * n.idx], r = s[2 * n.idx + 1];
          s[n.idx] = l > r ? l : r;
        });
  });
  uint64_t expect = 0;
  for (size_t i = 0; i < kN; ++i) expect = std::max(expect, vals[i]);
  EXPECT_EQ(seg[1], expect);
}

// --- pipeline --------------------------------------------------------------

TEST(ParPipeline, StagesRunInOrderPerItem) {
  Runtime rt(small_opts());
  constexpr size_t kN = 64;
  SharedArray<uint64_t> a(rt, kN, 0), b(rt, kN, 0), c3(rt, kN, 0);
  rt.run([&](Ctx& ctx) {
    par::pipeline(rt, ctx, kN,
                  {
                      [&](Ctx& c, int64_t i) {
                        a.span(c)[static_cast<size_t>(i)] =
                            static_cast<uint64_t>(i) + 1;
                      },
                      [&](Ctx& c, int64_t i) {
                        b.span(c)[static_cast<size_t>(i)] =
                            a.span(c)[static_cast<size_t>(i)] * 10;
                      },
                      [&](Ctx& c, int64_t i) {
                        c3.span(c)[static_cast<size_t>(i)] =
                            b.span(c)[static_cast<size_t>(i)] + 5;
                      },
                  },
                  {.chunks = 8});
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(c3[i], (i + 1) * 10 + 5) << i;
  }
}

TEST(ParPipeline, CrossItemDependencyStaysExact) {
  // Stage 2 computes a prefix sum: item i reads item i-1's output — the
  // classic flow dependency speculation must detect (or order) so results
  // stay exactly sequential.
  for (ForkModel m : {ForkModel::kInOrder, ForkModel::kMixed}) {
    Runtime rt(small_opts());
    constexpr size_t kN = 48;
    SharedArray<uint64_t> raw(rt, kN, 0), prefix(rt, kN, 0);
    rt.run([&](Ctx& ctx) {
      par::pipeline(rt, ctx, kN,
                    {
                        [&](Ctx& c, int64_t i) {
                          raw.span(c)[static_cast<size_t>(i)] =
                              static_cast<uint64_t>(i) * 2 + 1;
                        },
                        [&](Ctx& c, int64_t i) {
                          SharedSpan<uint64_t> p = prefix.span(c);
                          uint64_t prev =
                              i == 0 ? 0
                                     : p[static_cast<size_t>(i - 1)].get();
                          p[static_cast<size_t>(i)] =
                              prev + raw.span(c)[static_cast<size_t>(i)];
                        },
                    },
                    {.chunks = 12, .model = m});
    });
    // prefix[i] = sum of first i+1 odd numbers = (i+1)^2.
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(prefix[i], (i + 1) * (i + 1)) << fork_model_name(m) << " " << i;
    }
  }
}

TEST(ParPipeline, EmptyAndDegenerate) {
  Runtime rt(small_opts());
  rt.run([&](Ctx& ctx) {
    par::pipeline(rt, ctx, 0,
                  {[](Ctx&, int64_t) { ADD_FAILURE() << "no items"; }});
    par::pipeline(rt, ctx, 4, {});  // no stages: nothing to do
  });
}

// --- spec_for's schedule ----------------------------------------------------
//
// The caller runs a prefix of the chunks; each piece runs a contiguous run
// of the rest on one virtual CPU. A committed chunk records the rank that
// ran it, so the segments can be read back from the ranks: rank 0 is the
// caller, and adjacent pieces run on distinct ranks because they are live
// at the same time.

void spin_for(uint64_t ns) {
  const uint64_t t0 = now_ns();
  while (now_ns() - t0 < ns) {
  }
}

struct Segment {
  int32_t rank;
  int lo, hi;          // chunk range
  uint64_t finish_ns;  // latest chunk end in the segment
};

// Splits per-chunk ranks into runs of equal rank. `finish` (optional) is
// the per-chunk end time.
std::vector<Segment> segments_of(const std::vector<int32_t>& rank,
                                 const std::vector<uint64_t>& finish = {}) {
  std::vector<Segment> segs;
  for (int i = 0; i < static_cast<int>(rank.size()); ++i) {
    uint64_t f = finish.empty() ? 0 : finish[static_cast<size_t>(i)];
    if (segs.empty() || segs.back().rank != rank[static_cast<size_t>(i)]) {
      segs.push_back(Segment{rank[static_cast<size_t>(i)], i, i + 1, f});
    } else {
      segs.back().hi = i + 1;
      segs.back().finish_ns = std::max(segs.back().finish_ns, f);
    }
  }
  return segs;
}

template <typename T>
std::vector<T> copy_of(const SharedArray<T>& a) {
  return std::vector<T>(a.data(), a.data() + a.size());
}

TEST(LoopSchedule, CallerRunsAPrefixAndEachPieceIsContiguous) {
  Runtime rt(small_opts(3));
  constexpr int kChunks = 24;
  SharedArray<int32_t> rank(rt, kChunks, -1);
  SharedArray<uint64_t> sum(rt, kChunks, 0);
  // Speculative chunks run 3x slower, so the cuts move between calls and
  // every call sees a different split.
  auto body = [&](Ctx& c, int chunk, int64_t lo, int64_t hi) {
    spin_for(c.speculative() ? 30'000 : 10'000);
    uint64_t s = 0;
    for (int64_t i = lo; i < hi; ++i) s += static_cast<uint64_t>(i * i);
    sum.at(c, static_cast<size_t>(chunk)) = s;
    rank.at(c, static_cast<size_t>(chunk)) = c.thread_data().rank;
  };
  for (int call = 0; call < 12; ++call) {
    RunStats rs = rt.run([&](Ctx& ctx) {
      spec_for(rt, ctx, 0, kChunks * 10, kChunks, ForkModel::kMixed, body);
    });
    ASSERT_EQ(rs.speculative.rollbacks, 0u);
    for (int k = 0; k < kChunks; ++k) {
      uint64_t want = 0;
      for (int64_t i = k * 10; i < (k + 1) * 10; ++i) {
        want += static_cast<uint64_t>(i * i);
      }
      ASSERT_EQ(sum[static_cast<size_t>(k)], want) << "call " << call;
    }
    std::vector<Segment> segs = segments_of(copy_of(rank));
    ASSERT_EQ(segs.front().rank, 0) << "the caller runs the first chunk";
    ASSERT_EQ(static_cast<uint64_t>(segs.size()), 1 + rs.critical.forks)
        << "one segment per granted piece, after the caller's prefix";
    std::vector<int32_t> seen;
    for (const Segment& sg : segs) {
      ASSERT_EQ(std::count(seen.begin(), seen.end(), sg.rank), 0)
          << "rank " << sg.rank << " ran two separate runs of chunks";
      seen.push_back(sg.rank);
    }
  }
}

// One call of a timed loop, read back from each chunk's rank and end time
// (ns since just before the call).
struct TimedCall {
  std::vector<Segment> segs;
  int caller_chunks = 0;
  double slowest_over_fastest = 0.0;
  double slowest_over_mean = 0.0;
};

TimedCall observe(const SharedArray<int32_t>& rank,
                  const SharedArray<uint64_t>& done) {
  TimedCall t;
  t.segs = segments_of(copy_of(rank), copy_of(done));
  uint64_t lo = UINT64_MAX, hi = 0;
  double sum = 0.0;
  for (const Segment& sg : t.segs) {
    if (sg.rank == 0) t.caller_chunks += sg.hi - sg.lo;
    lo = std::min(lo, sg.finish_ns);
    hi = std::max(hi, sg.finish_ns);
    sum += static_cast<double>(sg.finish_ns);
  }
  t.slowest_over_fastest = static_cast<double>(hi) / static_cast<double>(lo);
  t.slowest_over_mean =
      static_cast<double>(hi) / (sum / static_cast<double>(t.segs.size()));
  return t;
}

// The timing tests train one site for kTrainingCalls calls and then read
// the calls after it, up to kMaxCalls in all, until one meets the bound. A
// busy host preempts the spinning threads and skews single calls (and the
// cuts learned from them); on an idle host the first call after training
// passes.
constexpr int kTrainingCalls = 30;
constexpr int kMaxCalls = 80;

std::string describe(const TimedCall& t) {
  std::string out;
  for (const Segment& sg : t.segs) {
    out += "[" + std::to_string(sg.lo) + "," + std::to_string(sg.hi) +
           ") ends " + std::to_string(sg.finish_ns / 1000) + "us; ";
  }
  return out;
}

TEST(LoopSchedule, SlowSpeculationHandsMostChunksToTheCaller) {
  // Speculative chunks busy-wait 4x longer than native ones. Two pieces
  // finish with the caller when it runs 4/6 of the chunks.
  Runtime rt(small_opts(2));
  constexpr int kChunks = 48;
  constexpr uint64_t kNativeNs = 60'000;
  SharedArray<int32_t> rank(rt, kChunks, -1);
  SharedArray<uint64_t> done(rt, kChunks, 0), out(rt, kChunks, 0);
  uint64_t t0 = 0;
  auto body = [&](Ctx& c, int chunk, int64_t lo, int64_t) {
    spin_for(c.speculative() ? 4 * kNativeNs : kNativeNs);
    out.at(c, static_cast<size_t>(chunk)) = static_cast<uint64_t>(lo) * 3;
    rank.at(c, static_cast<size_t>(chunk)) = c.thread_data().rank;
    done.at(c, static_cast<size_t>(chunk)) = now_ns() - t0;
  };
  TimedCall last;
  bool met = false;
  rt.run([&](Ctx& ctx) {
    for (int call = 0; call < kMaxCalls && !met; ++call) {
      t0 = now_ns();
      spec_for(rt, ctx, 0, kChunks, kChunks, ForkModel::kMixed, body);
      for (int k = 0; k < kChunks; ++k) {
        ASSERT_EQ(out[static_cast<size_t>(k)], static_cast<uint64_t>(k) * 3);
      }
      if (call < kTrainingCalls) continue;
      last = observe(rank, done);
      met = last.caller_chunks >= kChunks / 2 &&
            last.slowest_over_fastest <= 1.0 / 0.75;
    }
  });
  EXPECT_TRUE(met) << "the caller should run at least half the chunks and "
                      "the segments finish within 25% of each other; last "
                      "call: "
                   << describe(last);
}

TEST(LoopSchedule, UnevenChunkCostsGetCostBalancedCuts) {
  // A mandelbrot-like hump: the middle half of the chunks costs 4x the
  // rest, at equal speed on both sides. Equal segments put 1.6x the mean
  // on the two middle pieces.
  Runtime rt(small_opts(3));
  constexpr int kChunks = 64;
  constexpr uint64_t kUnitNs = 25'000;
  SharedArray<int32_t> rank(rt, kChunks, -1);
  SharedArray<uint64_t> done(rt, kChunks, 0), out(rt, kChunks, 0);
  uint64_t t0 = 0;
  auto body = [&](Ctx& c, int chunk, int64_t, int64_t) {
    const bool hump = chunk >= kChunks / 4 && chunk < 3 * kChunks / 4;
    spin_for(hump ? 4 * kUnitNs : kUnitNs);
    out.at(c, static_cast<size_t>(chunk)) = static_cast<uint64_t>(chunk) + 1;
    rank.at(c, static_cast<size_t>(chunk)) = c.thread_data().rank;
    done.at(c, static_cast<size_t>(chunk)) = now_ns() - t0;
  };
  TimedCall last;
  bool met = false;
  rt.run([&](Ctx& ctx) {
    for (int call = 0; call < kMaxCalls && !met; ++call) {
      t0 = now_ns();
      spec_for(rt, ctx, 0, kChunks, kChunks, ForkModel::kMixed, body);
      for (int k = 0; k < kChunks; ++k) {
        ASSERT_EQ(out[static_cast<size_t>(k)], static_cast<uint64_t>(k) + 1);
      }
      if (call < kTrainingCalls) continue;
      last = observe(rank, done);
      met = last.segs.size() == 4 && last.slowest_over_mean <= 1.3;
    }
  });
  EXPECT_TRUE(met) << "the slowest segment should end within 30% of the "
                      "mean; last call: "
                   << describe(last);
}

TEST(LoopSchedule, DependentPieceRerunsInlineAndLaterPieceCommits) {
  // Four chunks on three pieces: one chunk per segment (a cold site). Piece
  // 2 reads what piece 1 writes, before piece 1 can commit: the caller
  // holds its own chunk until piece 2 has read. Piece 2 fails validation
  // and is re-run by the caller; the independent piece 3 still commits.
  Runtime rt(small_opts(3));
  SharedArray<uint64_t> val(rt, 4, 0);
  SharedArray<int32_t> rank(rt, 4, -1);
  std::atomic<bool> piece2_read{false};
  RunStats rs = rt.run([&](Ctx& ctx) {
    spec_for(rt, ctx, 0, 4, 4, ForkModel::kMixed,
             [&](Ctx& c, int chunk, int64_t, int64_t) {
               SharedSpan<uint64_t> v = val.span(c);
               switch (chunk) {
                 case 0: {
                   const uint64_t deadline = now_ns() + 5'000'000'000ull;
                   while (!piece2_read.load() && now_ns() < deadline) {
                   }
                   v[0] = 1;
                   break;
                 }
                 case 1:
                   v[1] = 100;
                   break;
                 case 2:
                   v[2] = v[1] + 1;
                   piece2_read.store(true);
                   break;
                 default:
                   v[3] = 7;
               }
               rank.at(c, static_cast<size_t>(chunk)) = c.thread_data().rank;
             });
  });
  EXPECT_EQ(val[0], 1u);
  EXPECT_EQ(val[1], 100u);
  EXPECT_EQ(val[2], 101u);
  EXPECT_EQ(val[3], 7u);
  ASSERT_EQ(rs.critical.forks, 3u);
  EXPECT_NE(rank[1], 0) << "piece 1 commits";
  EXPECT_EQ(rank[2], 0) << "piece 2 is re-run by the caller";
  EXPECT_NE(rank[3], 0) << "piece 3 does not cascade";
  EXPECT_EQ(rs.speculative.rollbacks, 1u);
  EXPECT_EQ(rs.speculative.commits, 2u);
}

// Runs a sum loop through one spec_for site and checks it against the
// sequential sum.
RunStats checked_sum_loop(Runtime& rt, int64_t begin, int64_t end, int chunks,
                          ForkModel model = ForkModel::kMixed) {
  SharedArray<uint64_t> partial(rt, static_cast<size_t>(chunks), 0);
  RunStats rs = rt.run([&](Ctx& ctx) {
    spec_for(rt, ctx, begin, end, chunks, model,
             [&](Ctx& c, int chunk, int64_t lo, int64_t hi) {
               uint64_t s = 0;
               for (int64_t i = lo; i < hi; ++i) s += static_cast<uint64_t>(i);
               partial.at(c, static_cast<size_t>(chunk)) += s;
             });
  });
  uint64_t total = 0, want = 0;
  for (size_t i = 0; i < partial.size(); ++i) total += partial[i];
  for (int64_t i = begin; i < end; ++i) want += static_cast<uint64_t>(i);
  EXPECT_EQ(total, want) << "range [" << begin << ", " << end << ") in "
                         << chunks << " chunks";
  return rs;
}

TEST(LoopSchedule, EdgeCasesStayExact) {
  {
    Runtime rt(small_opts(1));  // one piece beside the caller
    for (int i = 0; i < 4; ++i) {
      RunStats rs = checked_sum_loop(rt, 0, 800, 8);
      EXPECT_EQ(rs.critical.forks, 1u);
    }
  }
  {
    Runtime rt(small_opts(3));
    RunStats one = checked_sum_loop(rt, 0, 100, 1);
    EXPECT_EQ(one.critical.forks + one.critical.fork_denied, 0u)
        << "a single chunk forks nothing";
    RunStats two = checked_sum_loop(rt, 0, 100, 2);
    EXPECT_EQ(two.critical.forks, 1u) << "two chunks: one piece";
    RunStats empty = checked_sum_loop(rt, 7, 7, 4);
    EXPECT_EQ(empty.critical.forks + empty.critical.fork_denied, 0u);
    checked_sum_loop(rt, 0, 5, 16);  // more chunks than elements
  }
  {
    Runtime::Options o = small_opts(3);
    o.rollback_probability = 1.0;
    o.adaptive_forks = false;  // injected rollbacks would close the site
    Runtime rt(o);
    RunStats rs = checked_sum_loop(rt, 0, 1000, 12);
    EXPECT_EQ(rs.speculative.commits, 0u);
    EXPECT_EQ(rs.speculative.rollbacks, rs.critical.forks)
        << "every piece is re-run";
    EXPECT_GT(rs.critical.forks, 0u);
  }
  {
    // Under the in-order model the non-speculative thread forks only while
    // nothing else is live: the farthest piece speculates and the caller
    // runs every other chunk.
    Runtime rt(small_opts(3));
    RunStats rs = checked_sum_loop(rt, 0, 1000, 12, ForkModel::kInOrder);
    EXPECT_EQ(rs.critical.forks, 1u);
    EXPECT_EQ(rs.critical.fork_denied, 2u);
  }
}

TEST(LoopSchedule, SitesKeepSeparateRecordsAndStartCold) {
  // Site A learns that its speculative chunks are slow; site B, a
  // different spec_for instantiation, still starts from equal segments —
  // which it could not if the two shared A's trained record.
  Runtime rt(small_opts(2));
  constexpr int kChunks = 30;
  SharedArray<int32_t> rank(rt, kChunks, -1);
  SharedArray<uint64_t> out(rt, kChunks, 0);
  auto site_a = [&](Ctx& c, int chunk, int64_t, int64_t) {
    spin_for(c.speculative() ? 200'000 : 50'000);
    out.at(c, static_cast<size_t>(chunk)) = static_cast<uint64_t>(chunk) + 1;
    rank.at(c, static_cast<size_t>(chunk)) = c.thread_data().rank;
  };
  auto site_b = [&](Ctx& c, int chunk, int64_t, int64_t) {
    out.at(c, static_cast<size_t>(chunk)) = static_cast<uint64_t>(chunk) * 5;
    rank.at(c, static_cast<size_t>(chunk)) = c.thread_data().rank;
  };
  auto caller_prefix = [&] {
    std::vector<Segment> segs = segments_of(copy_of(rank));
    return segs.front().rank == 0 ? segs.front().hi : 0;
  };
  auto expect_out = [&](uint64_t mul, uint64_t add) {
    for (int k = 0; k < kChunks; ++k) {
      ASSERT_EQ(out[static_cast<size_t>(k)],
                static_cast<uint64_t>(k) * mul + add);
    }
  };
  rt.run([&](Ctx& ctx) {
    for (int call = 0; call < kMaxCalls; ++call) {
      spec_for(rt, ctx, 0, kChunks, kChunks, ForkModel::kMixed, site_a);
      expect_out(1, 1);
      if (call >= kTrainingCalls && caller_prefix() > kChunks / 3) break;
    }
    EXPECT_GT(caller_prefix(), kChunks / 3) << "site A moved its cuts";
    spec_for(rt, ctx, 0, kChunks, kChunks, ForkModel::kMixed, site_b);
    expect_out(5, 0);
    std::vector<Segment> segs = segments_of(copy_of(rank));
    ASSERT_EQ(segs.size(), 3u);
    for (int s = 0; s < 3; ++s) {
      EXPECT_EQ(segs[static_cast<size_t>(s)].lo, s * kChunks / 3);
      EXPECT_EQ(segs[static_cast<size_t>(s)].hi, (s + 1) * kChunks / 3);
    }
  });
}

// --- the caller's native version -------------------------------------------
//
// A generic body is instantiated twice: with Ctx for the pieces and with
// NativeCtx for the chunks the non-speculative caller runs. Each chunk
// records, through the context it got, which type that was, so only a
// committed chunk's record survives.

constexpr int32_t kRanNative = 1;
constexpr int32_t kRanCtx = 2;

template <typename C>
int32_t context_kind(const C&) {
  static_assert(std::is_same_v<C, NativeCtx> || std::is_same_v<C, Ctx>);
  return std::is_same_v<C, NativeCtx> ? kRanNative : kRanCtx;
}

// A loop over [0, 10 * chunks) with independent chunks: chunk k stores the
// sum of its range, the kind of context it ran with and the rank that ran
// it.
struct KindLoop {
  explicit KindLoop(Runtime& rt, int chunks)
      : chunks(chunks), sum(rt, chunks, 0), kind(rt, chunks, 0),
        rank(rt, chunks, -1) {}

  RunStats run(Runtime& rt) {
    return rt.run([&](Ctx& ctx) {
      spec_for(rt, ctx, 0, 10 * chunks, chunks, ForkModel::kMixed,
               [&](auto& c, int chunk, int64_t lo, int64_t hi) {
                 uint64_t s = 0;
                 for (int64_t i = lo; i < hi; ++i) {
                   s += static_cast<uint64_t>(i);
                 }
                 const size_t k = static_cast<size_t>(chunk);
                 sum.at(c, k) = s;
                 kind.at(c, k) = context_kind(c);
                 rank.at(c, k) = c.rank();
               });
    });
  }

  void expect_exact() const {
    for (int k = 0; k < chunks; ++k) {
      uint64_t want = 0;
      for (int64_t i = 10 * k; i < 10 * (k + 1); ++i) {
        want += static_cast<uint64_t>(i);
      }
      EXPECT_EQ(sum[static_cast<size_t>(k)], want) << "chunk " << k;
    }
  }

  int chunks;
  SharedArray<uint64_t> sum;
  SharedArray<int32_t> kind, rank;
};

TEST(NativeCaller, PrefixRunsNativelyAndCommittedPiecesRunCtx) {
  Runtime rt(small_opts(3));
  KindLoop loop(rt, 12);
  for (int call = 0; call < 4; ++call) {
    RunStats rs = loop.run(rt);
    loop.expect_exact();
    ASSERT_GT(rs.critical.forks, 0u);
    ASSERT_EQ(rs.speculative.rollbacks, 0u);
    EXPECT_EQ(loop.kind[0], kRanNative) << "the caller runs chunk 0";
    int pieces_chunks = 0;
    for (size_t k = 0; k < loop.kind.size(); ++k) {
      if (loop.rank[k] == 0) {
        EXPECT_EQ(loop.kind[k], kRanNative) << "call " << call << " chunk "
                                            << k;
      } else {
        EXPECT_EQ(loop.kind[k], kRanCtx) << "call " << call << " chunk " << k;
        ++pieces_chunks;
      }
    }
    EXPECT_GT(pieces_chunks, 0) << "a committed piece left its chunks";
  }
}

TEST(NativeCaller, RolledBackPiecesRerunNatively) {
  Runtime::Options o = small_opts(3);
  o.rollback_probability = 1.0;
  o.adaptive_forks = false;  // injected rollbacks would close the site
  Runtime rt(o);
  KindLoop loop(rt, 12);
  RunStats rs = loop.run(rt);
  loop.expect_exact();
  EXPECT_GT(rs.speculative.rollbacks, 0u);
  EXPECT_EQ(rs.speculative.commits, 0u);
  for (size_t k = 0; k < loop.kind.size(); ++k) {
    EXPECT_EQ(loop.kind[k], kRanNative) << "chunk " << k;
    EXPECT_EQ(loop.rank[k], 0) << "chunk " << k;
  }
}

TEST(NativeCaller, LoopInsideASpeculatedRegionSeesCtx) {
  // The region's thread is speculative, so its prefix, its pieces and the
  // chunks it re-runs all get a Ctx.
  Runtime rt(small_opts(4));
  constexpr int kChunks = 8;
  SharedArray<int32_t> kind(rt, kChunks, 0);
  JoinOutcome outcome = JoinOutcome::kSequential;
  rt.run([&](Ctx& ctx) {
    ScopedSpec region = rt.fork_scoped(ctx, ForkModel::kMixed, [&](Ctx& c) {
      spec_for(rt, c, 0, kChunks, kChunks, ForkModel::kMixed,
               [&](auto& cc, int chunk, int64_t, int64_t) {
                 kind.at(cc, static_cast<size_t>(chunk)) = context_kind(cc);
               });
    });
    outcome = region.join();
  });
  ASSERT_EQ(outcome, JoinOutcome::kCommitted)
      << "the region must run speculatively for this test to mean anything";
  for (size_t k = 0; k < kind.size(); ++k) {
    EXPECT_EQ(kind[k], kRanCtx) << "chunk " << k;
  }
}

TEST(NativeCaller, NativeBodyNestsALoopAndForks) {
  // Each chunk nests a loop over its own cells and forks a scoped child
  // that writes a side cell. In the native instantiation both go through
  // the NativeCtx's conversion to the caller's Ctx.
  Runtime rt(small_opts(3));
  constexpr int kChunks = 6;
  constexpr int kInner = 8;
  SharedArray<uint64_t> cell(rt, kChunks * kInner, 0), side(rt, kChunks, 0);
  SharedArray<int32_t> kind(rt, kChunks, 0);
  for (int call = 0; call < 3; ++call) {
    rt.run([&](Ctx& ctx) {
      spec_for(rt, ctx, 0, kChunks, kChunks, ForkModel::kMixed,
               [&](auto& c, int chunk, int64_t, int64_t) {
                 const int64_t base = int64_t{chunk} * kInner;
                 spec_for(rt, c, base, base + kInner, 4, ForkModel::kMixed,
                          [&](auto& ic, int, int64_t lo, int64_t hi) {
                            for (int64_t i = lo; i < hi; ++i) {
                              cell.at(ic, static_cast<size_t>(i)) =
                                  static_cast<uint64_t>(i * 7 + call);
                            }
                          });
                 {
                   ScopedSpec child = rt.fork_scoped(
                       c, ForkModel::kMixed, [&, chunk](Ctx& fc) {
                         side.at(fc, static_cast<size_t>(chunk)) =
                             static_cast<uint64_t>(chunk + call);
                       });
                 }
                 kind.at(c, static_cast<size_t>(chunk)) = context_kind(c);
               });
    });
    for (size_t i = 0; i < cell.size(); ++i) {
      ASSERT_EQ(cell[i], i * 7 + static_cast<uint64_t>(call)) << i;
    }
    for (size_t k = 0; k < side.size(); ++k) {
      ASSERT_EQ(side[k], k + static_cast<uint64_t>(call)) << k;
    }
    EXPECT_EQ(kind[0], kRanNative) << "call " << call;
  }
}

TEST(NativeCaller, CtxOnlyBodiesStillRunExactly) {
  // Bodies that take Ctx& compile through every entry point and keep their
  // results; on the caller they get the caller's Ctx.
  Runtime rt(small_opts(3));
  constexpr int kN = 96;
  SharedArray<uint64_t> a(rt, kN, 0), b(rt, kN, 0);
  uint64_t total = 0;
  rt.run([&](Ctx& ctx) {
    spec_for(rt, ctx, 0, kN, 8, ForkModel::kMixed,
             [&](Ctx& c, int, int64_t lo, int64_t hi) {
               for (int64_t i = lo; i < hi; ++i) {
                 a.at(c, static_cast<size_t>(i)) = static_cast<uint64_t>(i);
               }
             });
    par::for_each(rt, ctx, 0, kN, {.chunks = 8}, [&](Ctx& c, int64_t i) {
      SharedSpan<uint64_t> bs = b.span(c);
      bs[static_cast<size_t>(i)] = static_cast<uint64_t>(2 * i);
    });
    total = par::reduce(rt, ctx, 0, kN, {.chunks = 8}, uint64_t{0},
                        [&](Ctx& c, int64_t i) {
                          return c.load(a.data() + i) + c.load(b.data() + i);
                        });
  });
  for (int i = 0; i < kN; ++i) {
    ASSERT_EQ(a[static_cast<size_t>(i)], static_cast<uint64_t>(i));
    ASSERT_EQ(b[static_cast<size_t>(i)], static_cast<uint64_t>(2 * i));
  }
  EXPECT_EQ(total, 3u * (kN - 1) * kN / 2);
}

// --- a loop inside a speculated region, under injected rollback ------------
//
// spec_for run by a speculative thread: its prefix is speculative, its
// pieces are the root's grandchildren, and a running sum makes every piece
// read what the piece before it wrote. Injection dooms speculations at
// both levels; the committed result must still be the sequential one.

TEST(LoopInRegion, InjectedRollbackStaysExact) {
  constexpr size_t kN = 240;
  auto term = [](size_t i) { return static_cast<uint64_t>(i * i % 97); };
  std::vector<uint64_t> want(kN);
  uint64_t acc = 0;
  for (size_t i = 0; i < kN; ++i) want[i] = acc += term(i);
  for (double p : {0.5, 1.0}) {
    for (uint64_t seed : {11u, 22u, 33u, 44u, 55u}) {
      Runtime::Options o = small_opts(4);
      o.rollback_probability = p;
      o.seed = seed;
      o.adaptive_forks = false;  // injected rollbacks would close the sites
      Runtime rt(o);
      SharedArray<uint64_t> sums(rt, kN, 0);
      SharedArray<uint64_t> side(rt, 1, 0);
      uint64_t region_forks = 0;
      for (int rep = 0; rep < 4; ++rep) {
        for (size_t i = 0; i < kN; ++i) sums[i] = 0;
        RunStats rs = rt.run([&](Ctx& ctx) {
          ScopedSpec region =
              rt.fork_scoped(ctx, ForkModel::kMixed, [&](Ctx& c) {
                spec_for(rt, c, 0, kN, 12, ForkModel::kMixed,
                         [&](Ctx& cc, int, int64_t lo, int64_t hi) {
                           SharedSpan<uint64_t> v = sums.span(cc);
                           const size_t b = static_cast<size_t>(lo);
                           const size_t e = static_cast<size_t>(hi);
                           uint64_t run = b == 0 ? 0 : v[b - 1].get();
                           for (size_t i = b; i < e; ++i) v[i] = run += term(i);
                         });
              });
          side.at(ctx, 0) += 1;  // the root works beside the region
        });
        for (size_t i = 0; i < kN; ++i) {
          ASSERT_EQ(sums[i], want[i]) << "p=" << p << " seed=" << seed
                                      << " rep=" << rep << " i=" << i;
        }
        region_forks += rs.speculative.forks;
      }
      EXPECT_EQ(side[0], 4u);
      EXPECT_GT(region_forks, 0u) << "the region forked no piece";
    }
  }
}

// --- exceptions out of a loop ----------------------------------------------
//
// The caller's chunk throws while the pieces are still running on the
// loop's frame; the pieces must be gone before that frame unwinds.

constexpr int64_t kThrowN = 64;

void throwing_loop(Runtime& rt, Ctx& ctx, SharedArray<uint64_t>& out) {
  par::for_each(rt, ctx, 0, kThrowN, {.chunks = 16, .checkpoint_every = 1},
                [&](Ctx& c, int64_t i) {
                  if (!c.speculative() && i == 0) {
                    throw std::runtime_error("caller chunk failed");
                  }
                  spin_for(200'000);
                  out.span(c)[static_cast<size_t>(i)] = 1;
                });
}

void exact_loop(Runtime& rt, Ctx& ctx, SharedArray<uint64_t>& out) {
  par::for_each(rt, ctx, 0, kThrowN, {.chunks = 16}, [&](Ctx& c, int64_t i) {
    out.span(c)[static_cast<size_t>(i)] = static_cast<uint64_t>(i) * 3;
  });
}

void expect_exact(const SharedArray<uint64_t>& out) {
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], i * 3) << i;
  }
}

TEST(LoopThrow, CaughtInsideTheRunDiscardsLivePieces) {
  const uint64_t t0 = now_ns();
  Runtime rt(small_opts(3));
  SharedArray<uint64_t> out(rt, kThrowN, 0);
  RunStats rs = rt.run([&](Ctx& ctx) {
    EXPECT_THROW(throwing_loop(rt, ctx, out), std::runtime_error);
    EXPECT_TRUE(ctx.thread_data().children.empty());
    exact_loop(rt, ctx, out);
  });
  expect_exact(out);
  EXPECT_GT(rs.speculative.nosyncs, 0u) << "the live pieces were discarded";
  EXPECT_LT(now_ns() - t0, 1'000'000'000u);
}

TEST(LoopThrow, EscapingTheRunLeavesTheRuntimeUsable) {
  const uint64_t t0 = now_ns();
  {
    Runtime rt(small_opts(3));
    SharedArray<uint64_t> out(rt, kThrowN, 0);
    EXPECT_THROW(rt.run([&](Ctx& ctx) { throwing_loop(rt, ctx, out); }),
                 std::runtime_error);
    // A speculation no loop owns: the run itself must discard it.
    EXPECT_THROW(rt.run([&](Ctx& ctx) {
                   rt.fork(ctx, ForkOpts{.detached = true}, [](Ctx& c) {
                     while (true) c.check_point();
                   });
                   throw std::runtime_error("run abandoned");
                 }),
                 std::runtime_error);
    rt.run([&](Ctx& ctx) { exact_loop(rt, ctx, out); });
    expect_exact(out);
  }  // the destructor returns: no worker waits for a SYNC
  EXPECT_LT(now_ns() - t0, 1'000'000'000u);
}

}  // namespace
}  // namespace mutls
