// End-to-end tests of the native embedding API: fork/join semantics,
// buffered accesses, conflicts, nesting (tree-form model), live-in
// prediction, spec_for, and address-space policing. The raw Ctx::load /
// Ctx::store calls here are deliberate — this suite tests the access layer
// the typed views of api/shared.h are built on.
#include "mutls/mutls.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

namespace mutls {
namespace {

Runtime::Options small_opts(int cpus = 2) {
  Runtime::Options o;
  o.num_cpus = cpus;
  o.buffer_log2 = 10;
  o.overflow_cap = 256;
  return o;
}

TEST(ApiRuntime, CommittedSpeculationPublishesWrites) {
  Runtime rt(small_opts());
  SharedArray<uint64_t> data(rt, 4, 0);
  rt.run([&](Ctx& ctx) {
    Spec s = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
      c.store(&data[1], uint64_t{11});
      c.store(&data[2], uint64_t{22});
    });
    ctx.store(&data[0], uint64_t{7});
    JoinOutcome r = rt.join(ctx, s);
    EXPECT_NE(r, JoinOutcome::kRolledBack);
  });
  EXPECT_EQ(data[0], 7u);
  EXPECT_EQ(data[1], 11u);
  EXPECT_EQ(data[2], 22u);
}

TEST(ApiRuntime, DeniedSpeculationRunsInline) {
  Runtime rt(small_opts(1));
  SharedArray<uint64_t> data(rt, 2, 0);
  rt.run([&](Ctx& ctx) {
    Spec s1 = rt.fork(ctx, ForkModel::kMixed,
                      [&](Ctx& c) { c.store(&data[0], uint64_t{1}); });
    // Only one CPU: the second fork must be denied and defer to join().
    Spec s2 = rt.fork(ctx, ForkModel::kMixed,
                      [&](Ctx& c) { c.store(&data[1], uint64_t{2}); });
    EXPECT_FALSE(s2.speculated());
    EXPECT_EQ(rt.join(ctx, s2), JoinOutcome::kSequential);
    rt.join(ctx, s1);
  });
  EXPECT_EQ(data[0], 1u);
  EXPECT_EQ(data[1], 2u);
}

TEST(ApiRuntime, ReadConflictRollsBackAndReexecutes) {
  Runtime rt(small_opts());
  SharedArray<uint64_t> data(rt, 2, 0);
  data[0] = 1;
  std::atomic<bool> child_read{false};
  rt.run([&](Ctx& ctx) {
    Spec s = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
      uint64_t v = c.load(&data[0]);
      child_read = true;
      c.store(&data[1], v * 100);
    });
    if (s.speculated()) {
      // Guarantee the speculative read happens before the conflicting
      // parent write, making rollback deterministic.
      while (!child_read) std::this_thread::yield();
    }
    ctx.store(&data[0], uint64_t{5});
    JoinOutcome r = rt.join(ctx, s);
    if (s.speculated()) {
      EXPECT_EQ(r, JoinOutcome::kRolledBack);
    }
  });
  EXPECT_EQ(data[1], 500u) << "re-execution must observe the parent's write";
}

TEST(ApiRuntime, RunsWithoutSpeculationStillWork) {
  Runtime rt(small_opts());
  SharedArray<int> data(rt, 8, 0);
  RunStats rs = rt.run([&](Ctx& ctx) {
    for (size_t i = 0; i < data.size(); ++i) {
      ctx.store(&data[i], static_cast<int>(i));
    }
  });
  EXPECT_EQ(data[7], 7);
  EXPECT_EQ(rs.speculative_threads, 0u);
  // Only speculative accesses are counted.
  EXPECT_EQ(rs.critical.stores, 0u);
}

TEST(ApiRuntime, NestedSpeculationFormsTree) {
  // Mixed model: a speculative child forks its own child (paper's thread
  // tree); the grandchild's effects must survive both commits.
  Runtime rt(small_opts(3));
  SharedArray<uint64_t> data(rt, 3, 0);
  rt.run([&](Ctx& ctx) {
    Spec s = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
      Spec g = rt.fork(c, ForkModel::kMixed,
                       [&](Ctx& cc) { cc.store(&data[2], uint64_t{3}); });
      c.store(&data[1], uint64_t{2});
      rt.join(c, g);
    });
    ctx.store(&data[0], uint64_t{1});
    rt.join(ctx, s);
  });
  EXPECT_EQ(data[0], 1u);
  EXPECT_EQ(data[1], 2u);
  EXPECT_EQ(data[2], 3u);
}

TEST(ApiRuntime, NestedConflictStaysInSubtree) {
  // A grandchild conflicting with its (speculative) parent rolls back and
  // re-executes inside the subtree; the root still commits everything.
  Runtime rt(small_opts(3));
  SharedArray<uint64_t> data(rt, 3, 0);
  data[0] = 1;
  rt.run([&](Ctx& ctx) {
    Spec s = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
      std::atomic<bool> gc_read{false};
      Spec g = rt.fork(c, ForkModel::kMixed, [&](Ctx& cc) {
        uint64_t v = cc.load(&data[0]);
        gc_read = true;
        cc.store(&data[2], v + 100);
      });
      if (g.speculated()) {
        while (!gc_read) std::this_thread::yield();
      }
      c.store(&data[0], uint64_t{50});  // conflicts with grandchild's read
      rt.join(c, g);
    });
    rt.join(ctx, s);
  });
  EXPECT_EQ(data[0], 50u);
  EXPECT_EQ(data[2], 150u)
      << "grandchild re-execution sees the speculative parent's write";
}

TEST(ApiRuntime, UnregisteredAccessRollsBackSafely) {
  Runtime rt(small_opts());
  alignas(8) static uint64_t unregistered;
  unregistered = 0;
  SharedArray<uint64_t> data(rt, 1, 0);
  rt.run([&](Ctx& ctx) {
    Spec s = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
      c.store(&unregistered, uint64_t{1});  // dooms the speculation
      // The speculative attempt aborts at the store above; only the inline
      // (non-speculative) re-execution reaches this line.
      EXPECT_FALSE(c.speculative());
    });
    JoinOutcome r = rt.join(ctx, s);
    if (s.speculated()) {
      EXPECT_EQ(r, JoinOutcome::kRolledBack);
    }
  });
  // The inline re-execution runs non-speculatively where direct access is
  // legal, so the value is eventually written exactly once.
  EXPECT_EQ(unregistered, 1u);
}

// A chunk body that reads many registered arrays in rotation, as bh's tree
// walk does: every access crosses to another array, so the per-Ctx span
// cache must hold all of them for the check to stay off the shared lock.
// The result must still match the sequential oracle.
TEST(ApiRuntime, SpeculativeChildReadsTwelveArraysInRotation) {
  constexpr size_t kArrays = 12;
  constexpr size_t kWords = 64;
  Runtime rt(small_opts());
  std::vector<std::unique_ptr<SharedArray<uint64_t>>> arrays;
  uint64_t oracle = 0;
  for (size_t k = 0; k < kArrays; ++k) {
    arrays.push_back(std::make_unique<SharedArray<uint64_t>>(rt, kWords, 0));
    for (size_t w = 0; w < kWords; ++w) {
      (*arrays[k])[w] = (k + 1) * 1000 + w;
      oracle += ((k + 1) * 1000 + w) * (w % 7 + 1);
    }
  }
  SharedArray<uint64_t> out(rt, 1, 0);
  rt.run([&](Ctx& ctx) {
    Spec s = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
      uint64_t sum = 0;
      for (size_t w = 0; w < kWords; ++w) {
        for (size_t k = 0; k < kArrays; ++k) {
          sum += c.load(&(*arrays[k])[w]) * (w % 7 + 1);
        }
      }
      c.store(&out[0], sum);
    });
    JoinOutcome r = rt.join(ctx, s);
    if (s.speculated()) {
      EXPECT_EQ(r, JoinOutcome::kCommitted);
    }
  });
  EXPECT_EQ(out[0], oracle);
}

// The span cache only ever proves an access *inside* a registered span: a
// store to an unregistered address must doom even after a warm-up has
// filled the cache with every registered array the body touches.
TEST(ApiRuntime, UnregisteredAccessDoomsWithWarmSpanCache) {
  Runtime rt(small_opts());
  alignas(8) static uint64_t unregistered;
  unregistered = 0;
  std::vector<std::unique_ptr<SharedArray<uint64_t>>> arrays;
  for (int k = 0; k < 8; ++k) {
    arrays.push_back(std::make_unique<SharedArray<uint64_t>>(rt, 4, 1));
  }
  rt.run([&](Ctx& ctx) {
    Spec s = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
      uint64_t sum = 0;
      for (int pass = 0; pass < 2; ++pass) {
        for (auto& a : arrays) sum += c.load(&(*a)[pass]);
      }
      c.store(&unregistered, sum);  // dooms the speculation
      EXPECT_FALSE(c.speculative());
    });
    JoinOutcome r = rt.join(ctx, s);
    if (s.speculated()) {
      EXPECT_EQ(r, JoinOutcome::kRolledBack);
    }
  });
  EXPECT_EQ(unregistered, 16u);
}

// Unregistering memory mid-run bumps the address-space epoch, which flushes
// every Ctx's span cache: a child that already proved the array registered
// must doom on its next access to it, not serve the stale span.
TEST(ApiRuntime, UnregisterMidRunFlushesSpanCache) {
  Runtime rt(small_opts());
  alignas(8) static uint64_t region[4];
  std::fill(std::begin(region), std::end(region), uint64_t{5});
  rt.register_memory(region, sizeof(region));
  SharedArray<uint64_t> out(rt, 1, 0);
  std::atomic<bool> first_read{false};
  std::atomic<bool> unregistered{false};
  rt.run([&](Ctx& ctx) {
    Spec s = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
      uint64_t v = c.load(&region[0]);  // warms the span cache
      if (c.speculative()) {
        first_read = true;
        while (!unregistered) std::this_thread::yield();
      }
      v += c.load(&region[1]);  // must doom: region is no longer registered
      EXPECT_FALSE(c.speculative());
      c.store(&out[0], v);
    });
    if (s.speculated()) {
      while (!first_read) std::this_thread::yield();
    }
    rt.unregister_memory(region, sizeof(region));
    unregistered = true;
    JoinOutcome r = rt.join(ctx, s);
    if (s.speculated()) {
      EXPECT_EQ(r, JoinOutcome::kRolledBack);
    }
  });
  EXPECT_EQ(out[0], 10u);
}

TEST(ApiRuntime, NonSpeculativeAccessBypassesBuffers) {
  Runtime rt(small_opts());
  alignas(8) static uint64_t anywhere;
  anywhere = 3;
  rt.run([&](Ctx& ctx) {
    EXPECT_EQ(ctx.load(&anywhere), 3u);
    ctx.store(&anywhere, uint64_t{4});
  });
  EXPECT_EQ(anywhere, 4u);
}

TEST(ApiRuntime, LiveInPredictionValidates) {
  Runtime rt(small_opts());
  SharedArray<uint64_t> data(rt, 1, 0);
  rt.run([&](Ctx& ctx) {
    int64_t i = 0;
    Spec s = rt.fork(
        ctx,
        ForkOpts{.predictions = {Prediction::of<int64_t>(&i, 10)}},
        [&](Ctx& c) {
          int64_t start = c.get_livein<int64_t>(0);
          c.store(&data[0], static_cast<uint64_t>(start * 2));
        });
    i = 10;  // parent reaches the join point with the predicted value
    JoinOutcome r = rt.join(ctx, s);
    if (s.speculated()) {
      EXPECT_EQ(r, JoinOutcome::kCommitted);
    }
  });
  EXPECT_EQ(data[0], 20u);
}

TEST(ApiRuntime, PredictionsFillEveryRegisterSlot) {
  Runtime rt(small_opts());
  SharedArray<uint64_t> data(rt, 1, 0);
  std::vector<int64_t> vars(kRegisterSlots);
  std::iota(vars.begin(), vars.end(), 1000);
  rt.run([&](Ctx& ctx) {
    ForkOpts opts;
    for (const int64_t& v : vars) {
      opts.predictions.push_back(Prediction::of(&v, v));
    }
    Spec s = rt.fork(ctx, std::move(opts), [&](Ctx& c) {
      int64_t last = c.speculative()
                         ? c.get_livein<int64_t>(kRegisterSlots - 1)
                         : vars.back();
      c.store(&data[0], static_cast<uint64_t>(last));
    });
    JoinOutcome r = rt.join(ctx, s);
    if (s.speculated()) {
      EXPECT_EQ(r, JoinOutcome::kCommitted);
    }
  });
  EXPECT_EQ(data[0], 1000u + kRegisterSlots - 1);
}

TEST(ApiRuntime, MispredictedLiveInForcesRollback) {
  Runtime rt(small_opts());
  SharedArray<uint64_t> data(rt, 1, 0);
  rt.run([&](Ctx& ctx) {
    int64_t i = 0;
    Spec s = rt.fork(
        ctx,
        ForkOpts{.predictions = {Prediction::of<int64_t>(&i, 10)}},
        [&](Ctx& c) {
          // On re-execution the live-in fetch is meaningless, so read the
          // parent's actual variable non-speculatively via capture.
          c.store(&data[0], uint64_t{1});
        });
    i = 11;  // prediction was wrong
    JoinOutcome r = rt.join(ctx, s);
    if (s.speculated()) {
      EXPECT_EQ(r, JoinOutcome::kRolledBack);
    }
  });
  EXPECT_EQ(data[0], 1u);
}

TEST(ApiRuntime, SpecForComputesCorrectSums) {
  for (ForkModel m : {ForkModel::kInOrder, ForkModel::kOutOfOrder,
                      ForkModel::kMixed}) {
    Runtime rt(small_opts(2));
    SharedArray<uint64_t> partial(rt, 8, 0);
    rt.run([&](Ctx& ctx) {
      spec_for(rt, ctx, 0, 1000, 8, m,
               [&](Ctx& c, int chunk, int64_t lo, int64_t hi) {
                 uint64_t sum = 0;
                 for (int64_t i = lo; i < hi; ++i) {
                   sum += static_cast<uint64_t>(i);
                 }
                 c.store(&partial[static_cast<size_t>(chunk)], sum);
                 c.check_point();
               });
    });
    uint64_t total = 0;
    for (size_t i = 0; i < partial.size(); ++i) total += partial[i];
    EXPECT_EQ(total, 499500u) << "model " << fork_model_name(m);
  }
}

TEST(ApiRuntime, SpecForSingleChunkRunsSequentially) {
  Runtime rt(small_opts());
  SharedArray<uint64_t> acc(rt, 1, 0);
  RunStats rs = rt.run([&](Ctx& ctx) {
    spec_for(rt, ctx, 0, 10, 1, ForkModel::kMixed,
             [&](Ctx& c, int, int64_t lo, int64_t hi) {
               for (int64_t i = lo; i < hi; ++i) c.add(&acc[0], uint64_t{1});
             });
  });
  EXPECT_EQ(acc[0], 10u);
  EXPECT_EQ(rs.critical.forks, 0u);
}

TEST(ApiRuntime, SpecForEmptyRangeIsNoop) {
  Runtime rt(small_opts());
  rt.run([&](Ctx& ctx) {
    spec_for(rt, ctx, 5, 5, 4, ForkModel::kMixed,
             [&](Ctx&, int, int64_t, int64_t) {
               ADD_FAILURE() << "body must not run for an empty range";
             });
  });
}

TEST(ApiRuntime, RollbackInjectionDegradesButStaysCorrect) {
  Runtime::Options o = small_opts(2);
  o.rollback_probability = 1.0;
  Runtime rt(o);
  SharedArray<uint64_t> partial(rt, 4, 0);
  RunStats rs = rt.run([&](Ctx& ctx) {
    spec_for(rt, ctx, 0, 100, 4, ForkModel::kMixed,
             [&](Ctx& c, int chunk, int64_t lo, int64_t hi) {
               uint64_t sum = 0;
               for (int64_t i = lo; i < hi; ++i) {
                 sum += static_cast<uint64_t>(i);
               }
               c.store(&partial[static_cast<size_t>(chunk)], sum);
             });
  });
  uint64_t total = 0;
  for (size_t i = 0; i < partial.size(); ++i) total += partial[i];
  EXPECT_EQ(total, 4950u);
  EXPECT_GT(rs.speculative.rollbacks, 0u);
  EXPECT_EQ(rs.speculative.commits, 0u);
}

TEST(ApiRuntime, StatsCountAccesses) {
  // The speculative thread counts its accesses; the non-speculative thread
  // counts none.
  Runtime rt(small_opts());
  SharedArray<uint64_t> data(rt, 4, 0);
  bool speculated = false;
  RunStats rs = rt.run([&](Ctx& ctx) {
    Spec s = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
      c.store(&data[1], c.load(&data[0]) + 1);
    });
    speculated = s.speculated();
    ctx.store(&data[0], uint64_t{0});
    rt.join(ctx, s);
  });
  ASSERT_TRUE(speculated);
  EXPECT_EQ(rs.speculative.loads, 1u);
  EXPECT_EQ(rs.speculative.stores, 1u);
  EXPECT_EQ(rs.critical.loads, 0u);
  EXPECT_EQ(rs.critical.stores, 0u);
}

TEST(ApiRuntime, SequentialEquivalenceUnderChaos) {
  // Property: whatever mix of commits/rollbacks happens, the final state
  // must equal the sequential execution. Stress with tiny buffers (forcing
  // overflow dooms) and injected rollbacks.
  for (uint64_t seed : {1u, 2u, 3u}) {
    Runtime::Options o;
    o.num_cpus = 2;
    o.buffer_log2 = 4;  // 16 slots: heavy collision pressure
    o.overflow_cap = 4;
    o.rollback_probability = 0.3;
    o.seed = seed;
    Runtime rt(o);
    const int n = 64;
    SharedArray<uint64_t> v(rt, n, 0);
    rt.run([&](Ctx& ctx) {
      spec_for(rt, ctx, 0, n, 8, ForkModel::kMixed,
               [&](Ctx& c, int, int64_t lo, int64_t hi) {
                 for (int64_t i = lo; i < hi; ++i) {
                   c.store(&v[static_cast<size_t>(i)],
                           static_cast<uint64_t>(i * i));
                   c.check_point();
                 }
               });
    });
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(v[static_cast<size_t>(i)], static_cast<uint64_t>(i) * i)
          << "seed " << seed << " index " << i;
    }
  }
}

}  // namespace
}  // namespace mutls
