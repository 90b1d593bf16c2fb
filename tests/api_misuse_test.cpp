// API misuse and lifetime coverage: double joins, join-after-move,
// missing joins (the run-drain CHECK), detached-handle misuse, more live-in
// predictions than register slots, and the ScopedSpec unwind path
// (exception between fork and join NOSYNCs the speculation instead of
// executing or leaking it).
#include <gtest/gtest.h>

#include <stdexcept>

#include "mutls/mutls.h"

namespace mutls {
namespace {

Runtime::Options small_opts(int cpus = 2) {
  Runtime::Options o;
  o.num_cpus = cpus;
  o.buffer_log2 = 10;
  o.overflow_cap = 256;
  return o;
}

// Death tests fork the process; with runtime threads around, the
// re-exec-from-scratch style is the safe one.
class ApiMisuseDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  }
};

TEST_F(ApiMisuseDeathTest, DoubleJoinDies) {
  EXPECT_DEATH(
      {
        Runtime rt(small_opts());
        SharedArray<uint64_t> data(rt, 1, 0);
        rt.run([&](Ctx& ctx) {
          Spec s = rt.fork(ctx, ForkModel::kMixed,
                           [&](Ctx& c) { data.at(c, 0) = 1; });
          rt.join(ctx, s);
          rt.join(ctx, s);  // misuse: the handle was already consumed
        });
      },
      "double join");
}

TEST_F(ApiMisuseDeathTest, JoinOfDetachedHandleDies) {
  EXPECT_DEATH(
      {
        Runtime rt(small_opts());
        SharedArray<uint64_t> data(rt, 1, 0);
        rt.run([&](Ctx& ctx) {
          Spec s = rt.fork(ctx, ForkOpts{.tag = 7, .detached = true},
                           [&](Ctx& c) { data.at(c, 0) = 1; });
          rt.join(ctx, s);  // misuse: detached forks are adopted, not joined
        });
      },
      "detached");
}

TEST_F(ApiMisuseDeathTest, DetachedForkWithPredictionsDies) {
  EXPECT_DEATH(
      {
        Runtime rt(small_opts());
        SharedArray<uint64_t> data(rt, 1, 0);
        rt.run([&](Ctx& ctx) {
          int64_t i = 0;
          // Misuse: join_next() never validates predictions, so this
          // combination would silently commit mispredicted results.
          rt.fork(ctx,
                  ForkOpts{.predictions = {Prediction::of<int64_t>(&i, 1)},
                           .detached = true},
                  [&](Ctx& c) { data.at(c, 0) = 1; });
        });
      },
      "detached forks cannot carry live-in predictions");
}

TEST_F(ApiMisuseDeathTest, MorePredictionsThanRegisterSlotsDies) {
  EXPECT_DEATH(
      {
        Runtime rt(small_opts());
        SharedArray<uint64_t> data(rt, 1, 0);
        rt.run([&](Ctx& ctx) {
          int64_t i = 0;
          ForkOpts opts;
          // Misuse: the last prediction has no RegisterBuffer slot, so the
          // child would never see it while join() still validated it.
          for (int k = 0; k <= kRegisterSlots; ++k) {
            opts.predictions.push_back(Prediction::of<int64_t>(&i, 0));
          }
          Spec s = rt.fork(ctx, std::move(opts),
                           [&](Ctx& c) { data.at(c, 0) = 1; });
          rt.join(ctx, s);
        });
      },
      "more live-in predictions than RegisterBuffer slots");
}

TEST_F(ApiMisuseDeathTest, ScopedJoinAfterMoveDies) {
  EXPECT_DEATH(
      {
        Runtime rt(small_opts());
        SharedArray<uint64_t> data(rt, 1, 0);
        rt.run([&](Ctx& ctx) {
          ScopedSpec s = rt.fork_scoped(ctx, ForkModel::kMixed,
                                        [&](Ctx& c) { data.at(c, 0) = 1; });
          ScopedSpec moved = std::move(s);
          moved.join();
          s.join();  // misuse: s was moved from
        });
      },
      "inactive ScopedSpec");
}

TEST_F(ApiMisuseDeathTest, MissingJoinDies) {
  // The dropped handle's destructor CHECKs first; the run-drain CHECK
  // (Options::missing_join_timeout_ns) remains the backstop for protocol
  // leaks that bypass Spec entirely.
  EXPECT_DEATH(
      {
        Runtime::Options o = small_opts();
        o.missing_join_timeout_ns = 200'000'000;  // fail fast, not in 5s
        Runtime rt(o);
        SharedArray<uint64_t> data(rt, 1, 0);
        rt.run([&](Ctx& ctx) {
          Spec s = rt.fork(ctx, ForkModel::kMixed,
                           [&](Ctx& c) { data.at(c, 0) = 1; });
          (void)s;  // misuse: the fork is never joined
        });
      },
      "missing join");
}

TEST_F(ApiMisuseDeathTest, DroppedDeniedForkDies) {
  // A denied fork holds the region as a deferred task; dropping the handle
  // would silently skip the region, so it must die too — this path leaves
  // no live thread for the run-drain CHECK to notice.
  EXPECT_DEATH(
      {
        Runtime rt(small_opts(1));
        SharedArray<uint64_t> data(rt, 2, 0);
        rt.run([&](Ctx& ctx) {
          Spec occupant = rt.fork(ctx, ForkModel::kMixed,
                                  [&](Ctx& c) { data.at(c, 0) = 1; });
          {
            Spec denied = rt.fork(ctx, ForkModel::kMixed,
                                  [&](Ctx& c) { data.at(c, 1) = 2; });
            (void)denied;  // misuse: dropped without join
          }
          rt.join(ctx, occupant);
        });
      },
      "missing join");
}

// --- ScopedSpec lifetime ---------------------------------------------------

TEST(ScopedSpecLifetime, JoinsAtScopeExit) {
  Runtime rt(small_opts());
  SharedArray<uint64_t> data(rt, 2, 0);
  rt.run([&](Ctx& ctx) {
    {
      ScopedSpec s = rt.fork_scoped(ctx, ForkModel::kMixed,
                                    [&](Ctx& c) { data.at(c, 1) = 22; });
      data.at(ctx, 0) = 11;
    }  // join here
    EXPECT_EQ(data.at(ctx, 1).get(), 22u);
  });
  EXPECT_EQ(data[0], 11u);
  EXPECT_EQ(data[1], 22u);
}

TEST(ScopedSpecLifetime, ExplicitJoinThenScopeExitIsSingleJoin) {
  Runtime rt(small_opts());
  SharedArray<uint64_t> data(rt, 1, 0);
  rt.run([&](Ctx& ctx) {
    ScopedSpec s = rt.fork_scoped(ctx, ForkModel::kMixed,
                                  [&](Ctx& c) { data.at(c, 0) = 5; });
    JoinOutcome r = s.join();
    EXPECT_NE(r, JoinOutcome::kDiscarded);
    EXPECT_TRUE(s.joined());
    // Destructor must not join again.
  });
  EXPECT_EQ(data[0], 5u);
}

TEST(ScopedSpecLifetime, MoveTransfersTheJoinObligation) {
  Runtime rt(small_opts());
  SharedArray<uint64_t> data(rt, 1, 0);
  rt.run([&](Ctx& ctx) {
    ScopedSpec inner = rt.fork_scoped(ctx, ForkModel::kMixed,
                                      [&](Ctx& c) { data.at(c, 0) = 9; });
    ScopedSpec owner = std::move(inner);
    EXPECT_TRUE(inner.joined()) << "moved-from scope holds no obligation";
    EXPECT_FALSE(owner.joined());
    owner.join();
  });  // moved-from inner destructs: must be a no-op
  EXPECT_EQ(data[0], 9u);
}

TEST(ScopedSpecLifetime, UnwindDiscardsTheSpeculation) {
  // An exception thrown between fork and join abandons the region; the
  // ScopedSpec destructor must NOSYNC the speculation — its effects never
  // commit, its task is not executed inline, and the run ends clean.
  Runtime rt(small_opts());
  SharedArray<uint64_t> data(rt, 1, 0);
  std::atomic<int> task_runs{0};
  RunStats rs = rt.run([&](Ctx& ctx) {
    try {
      ScopedSpec s = rt.fork_scoped(ctx, ForkModel::kMixed, [&](Ctx& c) {
        ++task_runs;
        data.at(c, 0) = 99;
      });
      throw std::runtime_error("abandon the region");
    } catch (const std::runtime_error&) {
      // Unwound through the ScopedSpec: the speculation is discarded.
    }
  });
  EXPECT_EQ(data[0], 0u) << "a discarded speculation must not commit";
  EXPECT_LE(task_runs.load(), 1) << "the region must not be re-executed";
  EXPECT_EQ(rs.speculative.commits, 0u);
}

TEST(ScopedSpecLifetime, UnwindDropsADeferredTask) {
  // Same abandonment, but with speculation denied (no free CPU): the
  // deferred task must be dropped, not executed, on unwind.
  Runtime rt(small_opts(1));
  SharedArray<uint64_t> data(rt, 2, 0);
  rt.run([&](Ctx& ctx) {
    ScopedSpec occupant = rt.fork_scoped(ctx, ForkModel::kMixed,
                                         [&](Ctx& c) { data.at(c, 0) = 1; });
    try {
      ScopedSpec denied = rt.fork_scoped(
          ctx, ForkModel::kMixed, [&](Ctx& c) { data.at(c, 1) = 2; });
      EXPECT_FALSE(denied.speculated());
      throw std::runtime_error("abandon");
    } catch (const std::runtime_error&) {
    }
  });
  EXPECT_EQ(data[1], 0u) << "a dropped deferred task must not run";
  EXPECT_EQ(data[0], 1u);
}

TEST(ScopedSpecLifetime, UnwindDiscardsWholeLifoGroup) {
  // Several scopes abandoned at once: unwinding discards every one of
  // them — discarding an earlier child NOSYNCs the later ones with it.
  Runtime rt(small_opts(4));
  SharedArray<uint64_t> data(rt, 4, 0);
  rt.run([&](Ctx& ctx) {
    try {
      ScopedSpec s0 = rt.fork_scoped(ctx, ForkModel::kMixed,
                                     [&](Ctx& c) { data.at(c, 0) = 7; });
      ScopedSpec s1 = rt.fork_scoped(ctx, ForkModel::kMixed,
                                     [&](Ctx& c) { data.at(c, 1) = 7; });
      ScopedSpec s2 = rt.fork_scoped(ctx, ForkModel::kMixed,
                                     [&](Ctx& c) { data.at(c, 2) = 7; });
      throw std::runtime_error("abandon all");
    } catch (const std::runtime_error&) {
    }
  });
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(data[i], 0u) << "spec " << i << " must be discarded";
  }
}

TEST(ScopedSpecLifetime, OutcomeReportsCommitOrInline) {
  Runtime rt(small_opts());
  SharedArray<uint64_t> data(rt, 1, 0);
  rt.run([&](Ctx& ctx) {
    ScopedSpec s = rt.fork_scoped(ctx, ForkModel::kMixed,
                                  [&](Ctx& c) { data.at(c, 0) = 3; });
    JoinOutcome r = s.join();
    if (s.speculated()) {
      EXPECT_TRUE(r == JoinOutcome::kCommitted ||
                  r == JoinOutcome::kRolledBack);
    } else {
      EXPECT_EQ(r, JoinOutcome::kSequential);
    }
    EXPECT_EQ(r, s.outcome());
  });
  EXPECT_EQ(data[0], 3u);
}

}  // namespace
}  // namespace mutls
