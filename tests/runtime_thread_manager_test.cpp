// Integration tests of the ThreadManager protocol: CPU pool, flag-based
// barrier, forking-model admission, tree-form synchronize with NOSYNC and
// child adoption (paper IV-D, IV-E, IV-F). Value-parameterized over the
// SpecBuffer backends: the synchronization protocol must be identical no
// matter how speculative memory is buffered.
#include "runtime/thread_manager.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>

#include "runtime/spec_abort.h"
#include "tests/backend_param.h"

namespace mutls {
namespace {

ManagerConfig small_config(BufferBackend backend, int cpus = 2) {
  ManagerConfig c;
  c.num_cpus = cpus;
  c.buffer_log2 = 8;
  c.overflow_cap = 64;
  c.buffer_backend = backend;
  return c;
}

class ThreadManagerTest : public ::testing::TestWithParam<BufferBackend> {
 protected:
  ManagerConfig config(int cpus = 2) { return small_config(GetParam(), cpus); }
};

TEST_P(ThreadManagerTest, SpeculateRunsTaskAndCommits) {
  ThreadManager mgr(config());
  alignas(8) static uint64_t x;
  x = 0;
  mgr.register_space(&x, sizeof(x));

  int rank = mgr.speculate(mgr.root(), ForkModel::kMixed, [](ThreadData& td) {
    uint64_t v = 5;
    td.sbuf.store_bytes(reinterpret_cast<uintptr_t>(&x), &v, 8);
  });
  ASSERT_GT(rank, 0);
  ChildRef ref = mgr.root().children.back();
  auto r = mgr.synchronize(mgr.root(), ref);
  EXPECT_EQ(r, ThreadManager::JoinResult::kCommit);
  EXPECT_EQ(x, 5u);
  EXPECT_EQ(mgr.live_threads(), 0);
}

TEST_P(ThreadManagerTest, ConflictCausesRollbackAndNoCommit) {
  ThreadManager mgr(config());
  alignas(8) static uint64_t shared_val, out;
  shared_val = 1;
  out = 0;

  std::atomic<bool> child_read{false};
  int rank = mgr.speculate(mgr.root(), ForkModel::kMixed,
                           [&child_read](ThreadData& td) {
    // Speculative read of shared_val, then dependent write to out.
    uint64_t v;
    td.sbuf.load_bytes(reinterpret_cast<uintptr_t>(&shared_val), &v, 8);
    child_read = true;
    uint64_t w = v * 10;
    td.sbuf.store_bytes(reinterpret_cast<uintptr_t>(&out), &w, 8);
  });
  ASSERT_GT(rank, 0);
  ChildRef ref = mgr.root().children.back();
  // Parent writes shared_val strictly after the speculative read: a
  // guaranteed read conflict.
  while (!child_read) std::this_thread::yield();
  shared_val = 2;
  auto r = mgr.synchronize(mgr.root(), ref);
  EXPECT_EQ(r, ThreadManager::JoinResult::kRollback);
  EXPECT_EQ(out, 0u) << "rolled-back writes must not reach memory";
}

TEST_P(ThreadManagerTest, NoIdleCpuDeniesSpeculation) {
  ThreadManager mgr(config(1));
  std::atomic<bool> release{false};
  int r1 = mgr.speculate(mgr.root(), ForkModel::kMixed, [&](ThreadData&) {
    while (!release.load()) std::this_thread::yield();
  });
  ASSERT_GT(r1, 0);
  int r2 = mgr.speculate(mgr.root(), ForkModel::kMixed, [](ThreadData&) {});
  EXPECT_EQ(r2, 0) << "no IDLE CPU left";
  EXPECT_EQ(mgr.root().stats.fork_denied, 1u);
  release = true;
  mgr.synchronize(mgr.root(), mgr.root().children.back());
}

TEST_P(ThreadManagerTest, CpuSlotIsReusedAfterJoin) {
  ThreadManager mgr(config(1));
  for (int i = 0; i < 5; ++i) {
    int r = mgr.speculate(mgr.root(), ForkModel::kMixed, [](ThreadData&) {});
    ASSERT_EQ(r, 1) << "single CPU must be reclaimed and reused";
    auto jr = mgr.synchronize(mgr.root(), mgr.root().children.back());
    EXPECT_EQ(jr, ThreadManager::JoinResult::kCommit);
  }
  RunStats rs = mgr.collect_stats();
  EXPECT_EQ(rs.speculative_threads, 5u);
}

TEST_P(ThreadManagerTest, SynchronizeStaleRefReturnsNotFound) {
  ThreadManager mgr(config());
  auto r = mgr.synchronize(mgr.root(), ChildRef{1, 123});
  EXPECT_EQ(r, ThreadManager::JoinResult::kNotFound);
}

TEST_P(ThreadManagerTest, ForceRollbackOverridesValidation) {
  // Failed live-in validation (paper IV-G4) forces rollback even though
  // the read-set is clean.
  ThreadManager mgr(config());
  alignas(8) static uint64_t y;
  y = 0;
  int rank = mgr.speculate(mgr.root(), ForkModel::kMixed, [](ThreadData& td) {
    uint64_t v = 9;
    td.sbuf.store_bytes(reinterpret_cast<uintptr_t>(&y), &v, 8);
  });
  ASSERT_GT(rank, 0);
  auto r = mgr.synchronize(mgr.root(), mgr.root().children.back(),
                           /*force_rollback=*/true);
  EXPECT_EQ(r, ThreadManager::JoinResult::kRollback);
  EXPECT_EQ(y, 0u);
}

TEST_P(ThreadManagerTest, DoomedTaskRollsBack) {
  ThreadManager mgr(config());
  int rank = mgr.speculate(mgr.root(), ForkModel::kMixed, [](ThreadData& td) {
    td.sbuf.doom("synthetic doom");
    throw SpecAbort{"synthetic doom"};
  });
  ASSERT_GT(rank, 0);
  auto r = mgr.synchronize(mgr.root(), mgr.root().children.back());
  EXPECT_EQ(r, ThreadManager::JoinResult::kRollback);
}

TEST_P(ThreadManagerTest, UserExceptionDoomsSpeculation) {
  ThreadManager mgr(config());
  int rank = mgr.speculate(mgr.root(), ForkModel::kMixed,
                           [](ThreadData&) { throw 42; });
  ASSERT_GT(rank, 0);
  auto r = mgr.synchronize(mgr.root(), mgr.root().children.back());
  EXPECT_EQ(r, ThreadManager::JoinResult::kRollback);
}

TEST_P(ThreadManagerTest, NonConformingJoinNosyncsMismatchedChildren) {
  // Fork A then B from the root; joining A first violates the mixed-model
  // assumption (later-speculated = logically earlier), so B is NOSYNCed
  // while the search continues to A (paper IV-F).
  ThreadManager mgr(config(2));
  alignas(8) static uint64_t a_out, b_out;
  a_out = b_out = 0;

  int ra = mgr.speculate(mgr.root(), ForkModel::kMixed, [](ThreadData& td) {
    uint64_t v = 1;
    td.sbuf.store_bytes(reinterpret_cast<uintptr_t>(&a_out), &v, 8);
  });
  ASSERT_GT(ra, 0);
  ChildRef ref_a = mgr.root().children.back();
  int rb = mgr.speculate(mgr.root(), ForkModel::kMixed, [](ThreadData& td) {
    uint64_t v = 1;
    td.sbuf.store_bytes(reinterpret_cast<uintptr_t>(&b_out), &v, 8);
  });
  ASSERT_GT(rb, 0);

  auto r = mgr.synchronize(mgr.root(), ref_a);
  EXPECT_EQ(r, ThreadManager::JoinResult::kCommit);
  EXPECT_EQ(a_out, 1u);
  EXPECT_EQ(mgr.root().children.size(), 0u);

  // B self-frees after NOSYNC; wait for the pool to drain.
  while (mgr.live_threads() != 0) std::this_thread::yield();
  EXPECT_EQ(b_out, 0u) << "NOSYNCed child must not commit";
  RunStats rs = mgr.collect_stats();
  EXPECT_EQ(rs.speculative.nosyncs, 1u);
}

TEST_P(ThreadManagerTest, JoinerAdoptsGrandchildren) {
  // A child forks a grandchild and finishes without joining it; the joiner
  // adopts the grandchild (paper IV-F: children are preserved).
  ThreadManager mgr(config(2));
  ThreadManager* m = &mgr;
  int rank = mgr.speculate(mgr.root(), ForkModel::kMixed, [m](ThreadData& td) {
    m->speculate(td, ForkModel::kMixed, [](ThreadData&) {});
  });
  ASSERT_GT(rank, 0);
  ChildRef child_ref = mgr.root().children.back();
  // Wait until the grandchild exists before joining.
  while (mgr.live_threads() != 2) std::this_thread::yield();
  auto r = mgr.synchronize(mgr.root(), child_ref);
  EXPECT_EQ(r, ThreadManager::JoinResult::kCommit);
  ASSERT_EQ(mgr.root().children.size(), 1u) << "grandchild adopted";
  auto r2 = mgr.synchronize(mgr.root(), mgr.root().children.back());
  EXPECT_EQ(r2, ThreadManager::JoinResult::kCommit);
}

TEST_P(ThreadManagerTest, NosyncChildrenAbortsSubtree) {
  ThreadManager mgr(config(2));
  std::atomic<bool> spinning{false};
  int rank = mgr.speculate(mgr.root(), ForkModel::kMixed, [&](ThreadData&) {
    spinning = true;
    // Task body: nothing. The thread parks at its barrier.
  });
  ASSERT_GT(rank, 0);
  while (!spinning) std::this_thread::yield();
  mgr.nosync_children(mgr.root());
  while (mgr.live_threads() != 0) std::this_thread::yield();
  EXPECT_TRUE(mgr.root().children.empty());
  RunStats rs = mgr.collect_stats();
  EXPECT_EQ(rs.speculative.nosyncs, 1u);
}

// --- forking-model admission (paper section II) ---

TEST_P(ThreadManagerTest, OutOfOrderDeniesSpeculativeForkers) {
  ThreadManager mgr(config(2));
  std::atomic<int> child_fork_rank{-1};
  ThreadManager* m = &mgr;
  int rank =
      mgr.speculate(mgr.root(), ForkModel::kOutOfOrder, [&](ThreadData& td) {
        child_fork_rank =
            m->speculate(td, ForkModel::kOutOfOrder, [](ThreadData&) {});
      });
  ASSERT_GT(rank, 0);
  mgr.synchronize(mgr.root(), mgr.root().children.back());
  EXPECT_EQ(child_fork_rank.load(), 0)
      << "out-of-order: speculative threads may not fork";
}

TEST_P(ThreadManagerTest, InOrderAllowsOnlyMostSpeculativeThread) {
  ThreadManager mgr(config(3));
  std::atomic<int> child_fork_rank{-1};
  std::atomic<bool> child_forked{false};
  ThreadManager* m = &mgr;
  int rank =
      mgr.speculate(mgr.root(), ForkModel::kInOrder, [&](ThreadData& td) {
        // This thread is the most speculative: it may extend the chain.
        child_fork_rank =
            m->speculate(td, ForkModel::kInOrder, [](ThreadData&) {});
        child_forked = true;
        if (child_fork_rank > 0) {
          m->synchronize(td, td.children.back());
        }
      });
  ASSERT_GT(rank, 0);
  while (!child_forked) std::this_thread::yield();
  // Root is no longer the most speculative thread: denied.
  EXPECT_EQ(mgr.speculate(mgr.root(), ForkModel::kInOrder, [](ThreadData&) {}),
            0);
  EXPECT_GT(child_fork_rank.load(), 0)
      << "in-order: the chain tail may fork";
  mgr.synchronize(mgr.root(), mgr.root().children.back());
}

TEST_P(ThreadManagerTest, InOrderRootMayForkWhenNoLiveThreads) {
  ThreadManager mgr(config(2));
  int r = mgr.speculate(mgr.root(), ForkModel::kInOrder, [](ThreadData&) {});
  EXPECT_GT(r, 0);
  mgr.synchronize(mgr.root(), mgr.root().children.back());
  // After the chain drains, the root may start a new chain.
  int r2 = mgr.speculate(mgr.root(), ForkModel::kInOrder, [](ThreadData&) {});
  EXPECT_GT(r2, 0);
  mgr.synchronize(mgr.root(), mgr.root().children.back());
}

TEST_P(ThreadManagerTest, ModelOverrideForcesPolicy) {
  ManagerConfig c = config(2);
  c.model_override = ForkModel::kOutOfOrder;
  ThreadManager mgr(c);
  std::atomic<int> child_fork_rank{-1};
  ThreadManager* m = &mgr;
  // Fork point says mixed, but the override downgrades to out-of-order.
  int rank = mgr.speculate(mgr.root(), ForkModel::kMixed, [&](ThreadData& td) {
    child_fork_rank = m->speculate(td, ForkModel::kMixed, [](ThreadData&) {});
  });
  ASSERT_GT(rank, 0);
  mgr.synchronize(mgr.root(), mgr.root().children.back());
  EXPECT_EQ(child_fork_rank.load(), 0);
}

TEST_P(ThreadManagerTest, AdmissionAllowsQueries) {
  ThreadManager mgr(config(2));
  EXPECT_TRUE(mgr.admission_allows(mgr.root(), ForkModel::kMixed));
  EXPECT_TRUE(mgr.admission_allows(mgr.root(), ForkModel::kInOrder));
  EXPECT_TRUE(mgr.admission_allows(mgr.root(), ForkModel::kOutOfOrder));
}

// --- rollback injection (paper Fig. 11) ---

TEST_P(ThreadManagerTest, RollbackInjectionProbabilityOne) {
  ManagerConfig c = config(2);
  c.rollback_probability = 1.0;
  ThreadManager mgr(c);
  alignas(8) static uint64_t z;
  z = 0;
  int rank = mgr.speculate(mgr.root(), ForkModel::kMixed, [](ThreadData& td) {
    uint64_t v = 1;
    td.sbuf.store_bytes(reinterpret_cast<uintptr_t>(&z), &v, 8);
  });
  ASSERT_GT(rank, 0);
  auto r = mgr.synchronize(mgr.root(), mgr.root().children.back());
  EXPECT_EQ(r, ThreadManager::JoinResult::kRollback);
  EXPECT_EQ(z, 0u);
}

TEST_P(ThreadManagerTest, RollbackInjectionIsDeterministicPerSeed) {
  auto run_once = [this](uint64_t seed) {
    ManagerConfig c = config(1);
    c.rollback_probability = 0.5;
    c.seed = seed;
    ThreadManager mgr(c);
    std::vector<bool> outcomes;
    for (int i = 0; i < 16; ++i) {
      int r = mgr.speculate(mgr.root(), ForkModel::kMixed, [](ThreadData&) {});
      EXPECT_GT(r, 0);
      outcomes.push_back(mgr.synchronize(mgr.root(),
                                         mgr.root().children.back()) ==
                         ThreadManager::JoinResult::kCommit);
    }
    return outcomes;
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

// --- statistics plumbing ---

TEST_P(ThreadManagerTest, StatsAggregateAcrossThreads) {
  ThreadManager mgr(config(2));
  mgr.begin_run();
  alignas(8) static uint64_t w;
  w = 0;
  int rank = mgr.speculate(mgr.root(), ForkModel::kMixed, [](ThreadData& td) {
    uint64_t v;
    td.sbuf.load_bytes(reinterpret_cast<uintptr_t>(&w), &v, 8);
    ++td.stats.loads;
  });
  ASSERT_GT(rank, 0);
  mgr.synchronize(mgr.root(), mgr.root().children.back());
  mgr.end_run();
  RunStats rs = mgr.collect_stats();
  EXPECT_EQ(rs.speculative_threads, 1u);
  EXPECT_EQ(rs.speculative.commits, 1u);
  EXPECT_EQ(rs.speculative.loads, 1u);
  EXPECT_EQ(rs.critical.forks, 1u);
  EXPECT_GT(rs.critical.runtime_ns, 0u);
  EXPECT_GT(rs.speculative.runtime_ns, 0u);
  EXPECT_GE(rs.coverage(), 0.0);
  // The one buffered load was probed and its read-set word validated.
  EXPECT_GE(rs.speculative.buffer.probe_ops, 1u);
  EXPECT_EQ(rs.speculative.buffer.validated_words, 1u);
}

TEST_P(ThreadManagerTest, BufferCountersDoNotLeakAcrossSpeculations) {
  // A slot's next speculation must not re-report its predecessors' buffer
  // events (regression guarded for overflow_events since PR 1; now covers
  // the whole SpecBufferStats set).
  ManagerConfig c = config(1);
  c.buffer_log2 = 4;  // tiny: every speculation stresses capacity
  c.overflow_cap = 4;
  // Keep an adaptive slot on its starting static hash for all 3 rounds
  // (the flip behavior itself is pinned by the AdaptiveBackend suite).
  c.adaptive_overflow_threshold = 100;
  ThreadManager mgr(c);
  alignas(8) static uint64_t arena[128];
  mgr.begin_run();
  for (int round = 0; round < 3; ++round) {
    int r = mgr.speculate(mgr.root(), ForkModel::kMixed, [](ThreadData& td) {
      for (int i = 0; i < 64; ++i) {
        uint64_t v = 1;
        td.sbuf.store_bytes(reinterpret_cast<uintptr_t>(&arena[i]), &v, 8);
        if (td.sbuf.doomed()) return;  // static-hash dooms, by design
      }
    });
    ASSERT_GT(r, 0);
    mgr.synchronize(mgr.root(), mgr.root().children.back());
  }
  mgr.end_run();
  RunStats rs = mgr.collect_stats();
  if (GetParam() == BufferBackend::kStaticHash ||
      GetParam() == BufferBackend::kAdaptive) {
    // Static hash — and an unflipped adaptive slot, which must behave
    // identically: exactly one exhaustion doom per round, not a growing
    // resurvey.
    EXPECT_EQ(rs.speculative.buffer.overflow_events, 3u);
    EXPECT_EQ(rs.speculative.buffer.resize_events, 0u);
    EXPECT_EQ(rs.speculative.rollbacks, 3u);
  } else {
    // The growable log — and the sharded store built from per-node
    // growable sets — absorbs the same pattern with resizes and commits.
    EXPECT_EQ(rs.speculative.buffer.overflow_events, 0u);
    EXPECT_GT(rs.speculative.buffer.resize_events, 0u);
    EXPECT_EQ(rs.speculative.commits, 3u);
  }
}

TEST_P(ThreadManagerTest, IdleFreelistSurvivesForkJoinChurn) {
  // Hammers the lock-free idle-rank freelist and the spin-then-park
  // handoff: speculative tasks fork grandchildren concurrently with the
  // root forking new children, so claims and releases interleave from
  // several threads. Every claim must yield a distinct rank, the pool must
  // deny exactly when empty, and every rank must return to the freelist
  // (under TSan this is the data-race probe for pop_idle/push_idle).
  ThreadManager mgr(config(3));
  alignas(8) static std::atomic<uint64_t> touched;
  touched = 0;
  for (int round = 0; round < 200; ++round) {
    int r1 = mgr.speculate(mgr.root(), ForkModel::kMixed, [&](ThreadData& td) {
      // Child claims (and possibly exhausts) another slot concurrently.
      int g = mgr.speculate(td, ForkModel::kMixed,
                            [&](ThreadData&) { touched.fetch_add(1); });
      if (g != 0) {
        mgr.synchronize(td, td.children.back());
      }
      touched.fetch_add(1);
    });
    ASSERT_GT(r1, 0) << "round " << round << ": pool lost a rank";
    int r2 = mgr.speculate(mgr.root(), ForkModel::kMixed,
                           [&](ThreadData&) { touched.fetch_add(1); });
    if (r2 != 0) {
      EXPECT_NE(r1, r2) << "freelist handed out the same rank twice";
      // Join in LIFO order (mixed-model children stack).
      EXPECT_NE(mgr.synchronize(mgr.root(), mgr.root().children.back()),
                ThreadManager::JoinResult::kNotFound);
    }
    EXPECT_NE(mgr.synchronize(mgr.root(), mgr.root().children.back()),
              ThreadManager::JoinResult::kNotFound);
    ASSERT_EQ(mgr.live_threads(), 0) << "round " << round;
  }
  EXPECT_GT(touched.load(), 200u);
}

TEST_P(ThreadManagerTest, ForkLatencyLedgerSplitsArmAndHandoff) {
  ThreadManager mgr(config(1));
  int r = mgr.speculate(mgr.root(), ForkModel::kMixed, [](ThreadData&) {});
  ASSERT_GT(r, 0);
  mgr.synchronize(mgr.root(), mgr.root().children.back());
  const TimeLedger& l = mgr.root().stats.ledger;
  // Arming always takes measurable time; the handoff category must be
  // populated (possibly 0ns on a coarse clock, but accounted — the sum of
  // categories is what fig8 folds into its fork column).
  EXPECT_GT(l.get(TimeCat::kFork) + l.get(TimeCat::kForkHandoff) +
                l.get(TimeCat::kFindCpu),
            0u);
}

TEST_P(ThreadManagerTest, ResetStatsClears) {
  ThreadManager mgr(config(1));
  int r = mgr.speculate(mgr.root(), ForkModel::kMixed, [](ThreadData&) {});
  ASSERT_GT(r, 0);
  mgr.synchronize(mgr.root(), mgr.root().children.back());
  mgr.reset_stats();
  RunStats rs = mgr.collect_stats();
  EXPECT_EQ(rs.speculative_threads, 0u);
  EXPECT_EQ(rs.critical.forks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Backends, ThreadManagerTest,
    ::testing::Values(BufferBackend::kStaticHash, BufferBackend::kGrowableLog,
                      BufferBackend::kAdaptive, BufferBackend::kNumaSharded),
    [](const ::testing::TestParamInfo<BufferBackend>& info) {
      return backend_camel_name(info.param);
    });

// --- adaptive per-slot backend selection (kAdaptive) ---
//
// The flip machinery lives in SpecBuffer::rearm(), but its contract is a
// ThreadManager-level one: slots flip exactly at the configured threshold
// of accumulated capacity dooms, hysteresis keeps a calm slot from
// flapping between backends, the flipped state survives slot reuse across
// speculations, and a tree with mixed-backend parent/child slots still
// merges exactly. (This suite rides the runtime_ TSan/ASan CI regexes.)

class AdaptiveBackendTest : public ::testing::Test {
 protected:
  // Tiny static table (16 slots, 2 overflow) so a 64-word footprint
  // reliably overflow-dooms the static hash and the growable log absorbs
  // it with resizes.
  ManagerConfig adaptive_config(uint64_t threshold, uint64_t hysteresis,
                                int cpus = 1) {
    ManagerConfig c;
    c.num_cpus = cpus;
    c.buffer_log2 = 4;
    c.overflow_cap = 2;
    c.buffer_backend = BufferBackend::kAdaptive;
    c.adaptive_overflow_threshold = threshold;
    c.adaptive_calm_hysteresis = hysteresis;
    return c;
  }

  // One speculation; returns true when it committed. `words` sizes the
  // speculative footprint: 64 overwhelms the tiny static table, 1 is calm.
  bool run_round(ThreadManager& mgr, size_t words,
                 BufferBackend* active_seen = nullptr) {
    int r = mgr.speculate(mgr.root(), ForkModel::kMixed, [=](ThreadData& td) {
      if (active_seen) *active_seen = td.sbuf.active_backend();
      for (size_t i = 0; i < words; ++i) {
        uint64_t v = i + 1;
        td.sbuf.store_bytes(reinterpret_cast<uintptr_t>(&arena_[i]), &v, 8);
        if (td.sbuf.doomed()) return;  // stop at the "check point"
      }
    });
    EXPECT_GT(r, 0);
    return mgr.synchronize(mgr.root(), mgr.root().children.back()) ==
           ThreadManager::JoinResult::kCommit;
  }

  alignas(8) static uint64_t arena_[128];
};

uint64_t AdaptiveBackendTest::arena_[128];

TEST_F(AdaptiveBackendTest, SlotFlipsExactlyAtOverflowThreshold) {
  ThreadManager mgr(adaptive_config(/*threshold=*/2, /*hysteresis=*/16));
  mgr.begin_run();
  // Rounds 1 and 2: still static (one capacity doom each), rolled back —
  // the flip must not fire below the threshold.
  EXPECT_FALSE(run_round(mgr, 64));
  EXPECT_FALSE(run_round(mgr, 64));
  // Round 3: the slot re-arms with two accumulated overflow events, flips
  // to the growable log, and the very same footprint commits.
  BufferBackend active = BufferBackend::kStaticHash;
  EXPECT_TRUE(run_round(mgr, 64, &active));
  EXPECT_EQ(active, BufferBackend::kGrowableLog);
  mgr.end_run();
  RunStats rs = mgr.collect_stats();
  EXPECT_EQ(rs.speculative.rollbacks, 2u);
  EXPECT_EQ(rs.speculative.commits, 1u);
  EXPECT_EQ(rs.speculative.buffer.overflow_events, 2u);
  EXPECT_EQ(rs.speculative.buffer.backend_flips, 1u)
      << "exactly one flip, visible in the aggregated ThreadStats";
  for (size_t i = 0; i < 64; ++i) {
    ASSERT_EQ(arena_[i], i + 1) << "the flipped round must have committed";
  }
}

TEST_F(AdaptiveBackendTest, HysteresisRevertsCalmSlotWithoutFlapping) {
  ThreadManager mgr(adaptive_config(/*threshold=*/1, /*hysteresis=*/3));
  mgr.begin_run();
  EXPECT_FALSE(run_round(mgr, 64));  // R1: static dooms -> flip at rearm
  EXPECT_TRUE(run_round(mgr, 64));   // R2: growable absorbs (resizes)
  // R3..R5: calm rounds. R2's resizes reset the calm streak, so R3 is the
  // first calm epoch; the slot must NOT flip back before the hysteresis
  // count is reached (that would be flapping).
  BufferBackend active = BufferBackend::kStaticHash;
  EXPECT_TRUE(run_round(mgr, 1, &active));
  EXPECT_EQ(active, BufferBackend::kGrowableLog);
  EXPECT_TRUE(run_round(mgr, 1, &active));
  EXPECT_EQ(active, BufferBackend::kGrowableLog)
      << "two calm epochs < hysteresis of 3: must not flip back yet";
  EXPECT_TRUE(run_round(mgr, 1, &active));
  EXPECT_EQ(active, BufferBackend::kGrowableLog);
  // R6: three calm epochs reached -> back on the static hash.
  EXPECT_TRUE(run_round(mgr, 1, &active));
  EXPECT_EQ(active, BufferBackend::kStaticHash)
      << "hysteresis satisfied: the calm slot returns to the static hash";
  mgr.end_run();
  RunStats rs = mgr.collect_stats();
  EXPECT_EQ(rs.speculative.buffer.backend_flips, 2u) << "up once, down once";
}

TEST_F(AdaptiveBackendTest, FlippedSlotSurvivesReuseAcrossSpeculations) {
  ThreadManager mgr(adaptive_config(/*threshold=*/1, /*hysteresis=*/16));
  mgr.begin_run();
  EXPECT_FALSE(run_round(mgr, 64));
  // Every subsequent reuse of the slot runs (and keeps running) on the
  // growable log: big footprints commit round after round, and after the
  // first growable round the grown capacity is carried forward, so no
  // further resizes are needed either.
  for (int round = 0; round < 5; ++round) {
    BufferBackend active = BufferBackend::kStaticHash;
    EXPECT_TRUE(run_round(mgr, 64, &active)) << "round " << round;
    EXPECT_EQ(active, BufferBackend::kGrowableLog) << "round " << round;
  }
  mgr.end_run();
  RunStats rs = mgr.collect_stats();
  EXPECT_EQ(rs.speculative.buffer.backend_flips, 1u);
  EXPECT_EQ(rs.speculative.commits, 5u);
  uint64_t resizes_after_first = rs.speculative.buffer.resize_events;
  EXPECT_GT(resizes_after_first, 0u) << "the first growable round grows";
  // One more round: the retained capacity means zero additional resizes.
  mgr.begin_run();
  EXPECT_TRUE(run_round(mgr, 64));
  mgr.end_run();
  rs = mgr.collect_stats();
  EXPECT_EQ(rs.speculative.buffer.resize_events, 0u)
      << "grown capacity carried forward across slot reuse";
}

TEST_F(AdaptiveBackendTest, FlipSeedsGrowableIndexAtObservedFootprint) {
  ThreadManager mgr(adaptive_config(/*threshold=*/1, /*hysteresis=*/16));
  mgr.begin_run();
  // R1: static dooms after filling the 16-slot table plus the 2 overflow
  // slots — the slot observes a ~18-entry footprint at the doom point.
  EXPECT_FALSE(run_round(mgr, 64));
  mgr.end_run();
  // R2: freshly flipped. The growable index is seeded at that observed
  // footprint rather than the 16-slot configured floor, so a footprint of
  // the same order commits with ZERO resizes instead of rediscovering the
  // capacity through the doubling ladder.
  mgr.begin_run();
  BufferBackend active = BufferBackend::kStaticHash;
  EXPECT_TRUE(run_round(mgr, 20, &active));
  EXPECT_EQ(active, BufferBackend::kGrowableLog);
  mgr.end_run();
  RunStats rs = mgr.collect_stats();
  EXPECT_EQ(rs.speculative.buffer.resize_events, 0u)
      << "the flip hint must pre-size the index past the doubling ladder";
}

TEST_F(AdaptiveBackendTest, MixedBackendParentChildMergeIsExact) {
  // A flipped (growable) parent slot joins an unflipped (static) child:
  // the child validates against and merges into a different backend than
  // its own, and the final commit must be byte-exact. Three slots, not
  // two: in a 2-slot fleet a single flipped slot is already a majority
  // and the fleet-following flip would homogenize the pair before the
  // mixed pairing under test ever forms.
  ThreadManager mgr(adaptive_config(/*threshold=*/1, /*hysteresis=*/16,
                                    /*cpus=*/3));
  mgr.register_space(arena_, sizeof(arena_));
  // Flip the slot the next fork will claim (the freelist hands the joined
  // rank right back).
  EXPECT_FALSE(run_round(mgr, 64));
  std::memset(arena_, 0, sizeof(arena_));

  std::atomic<BufferBackend> parent_active{BufferBackend::kStaticHash};
  std::atomic<BufferBackend> child_active{BufferBackend::kStaticHash};
  ThreadManager* m = &mgr;
  int rank = mgr.speculate(mgr.root(), ForkModel::kMixed, [&](ThreadData& td) {
    parent_active = td.sbuf.active_backend();
    // Parent writes a full word and one byte of another word.
    uint64_t v = 0x1111111111111111ull;
    td.sbuf.store_bytes(reinterpret_cast<uintptr_t>(&arena_[0]), &v, 8);
    uint8_t b = 0xAA;
    td.sbuf.store_bytes(reinterpret_cast<uintptr_t>(&arena_[1]), &b, 1);
    int child = m->speculate(td, ForkModel::kMixed, [&](ThreadData& ctd) {
      child_active = ctd.sbuf.active_backend();
      // Child overlaps the parent's full word (child is logically later:
      // its bytes must win), writes another byte of word 1, a fresh word
      // 2, and reads word 3 (adopted into the parent's read-set).
      uint64_t cv = 0x2222222222222222ull;
      ctd.sbuf.store_bytes(reinterpret_cast<uintptr_t>(&arena_[0]), &cv, 8);
      uint8_t cb = 0xBB;
      ctd.sbuf.store_bytes(reinterpret_cast<uintptr_t>(&arena_[1]) + 2, &cb,
                           1);
      uint64_t cw = 0x3333333333333333ull;
      ctd.sbuf.store_bytes(reinterpret_cast<uintptr_t>(&arena_[2]), &cw, 8);
      uint64_t out;
      ctd.sbuf.load_bytes(reinterpret_cast<uintptr_t>(&arena_[3]), &out, 8);
    });
    ASSERT_GT(child, 0);
    EXPECT_EQ(m->synchronize(td, td.children.back()),
              ThreadManager::JoinResult::kCommit);
  });
  ASSERT_GT(rank, 0);
  ASSERT_EQ(mgr.synchronize(mgr.root(), mgr.root().children.back()),
            ThreadManager::JoinResult::kCommit);
  EXPECT_EQ(parent_active.load(), BufferBackend::kGrowableLog);
  EXPECT_EQ(child_active.load(), BufferBackend::kStaticHash);

  EXPECT_EQ(arena_[0], 0x2222222222222222ull) << "child write wins";
  auto* b1 = reinterpret_cast<uint8_t*>(&arena_[1]);
  EXPECT_EQ(b1[0], 0xAA) << "parent byte survives the merge";
  EXPECT_EQ(b1[2], 0xBB) << "child byte merges in";
  EXPECT_EQ(b1[1], 0x00) << "unwritten byte stays untouched";
  EXPECT_EQ(arena_[2], 0x3333333333333333ull);
}

TEST_F(AdaptiveBackendTest, FleetMajorityFlipsRemainingSlotsProactively) {
  // Four slots, threshold 2: two of them earn their flips the hard way —
  // two overflow-doomed rounds each — and the moment they form a
  // half-the-fleet majority, the two slots that never doomed must come up
  // already flipped: the fleet view spares them their own learning curve.
  ThreadManager mgr(adaptive_config(/*threshold=*/2, /*hysteresis=*/64,
                                    /*cpus=*/4));
  mgr.begin_run();

  // One wave = `n` concurrent speculations of `words` words each, then
  // join them all newest-first (mixed model: later-speculated = logically
  // earlier — joining oldest-first would NOSYNC the younger siblings).
  // Records each fork's active backend; returns how many committed.
  std::atomic<BufferBackend> active[4];
  auto run_wave = [&](int n, size_t words) {
    for (int i = 0; i < n; ++i) {
      std::atomic<BufferBackend>* seen = &active[i];
      int r = mgr.speculate(mgr.root(), ForkModel::kMixed,
                            [seen, words](ThreadData& td) {
                              *seen = td.sbuf.active_backend();
                              for (size_t w = 0; w < words; ++w) {
                                uint64_t v = w + 1;
                                td.sbuf.store_bytes(
                                    reinterpret_cast<uintptr_t>(&arena_[w]),
                                    &v, 8);
                                if (td.sbuf.doomed()) return;
                              }
                            });
      EXPECT_GT(r, 0) << "wave fork " << i;
    }
    int committed = 0;
    while (!mgr.root().children.empty()) {
      if (mgr.synchronize(mgr.root(), mgr.root().children.back()) ==
          ThreadManager::JoinResult::kCommit) {
        ++committed;
      }
    }
    return committed;
  };

  // Rounds 1-2: two concurrent 64-word speculations per round. The LIFO
  // freelist hands the joined slots right back, so the same two slots
  // doom twice each — still on the static hash, still below threshold.
  EXPECT_EQ(run_wave(2, 64), 0);
  EXPECT_EQ(active[0].load(), BufferBackend::kStaticHash);
  EXPECT_EQ(active[1].load(), BufferBackend::kStaticHash);
  EXPECT_EQ(run_wave(2, 64), 0);
  EXPECT_EQ(active[0].load(), BufferBackend::kStaticHash);
  EXPECT_EQ(active[1].load(), BufferBackend::kStaticHash);

  // Round 3: the two veterans re-arm first (they top the freelist) and
  // flip on their own accumulated evidence; the two fresh slots then see
  // a half-flipped fleet at *their* re-arm and come up on the growable
  // log without ever having doomed. Calm 1-word footprints: all commit.
  EXPECT_EQ(run_wave(4, 1), 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(active[i].load(), BufferBackend::kGrowableLog)
        << "round-3 fork " << i << " should start flipped";
  }
  mgr.end_run();
  RunStats rs = mgr.collect_stats();
  EXPECT_EQ(rs.speculative.buffer.backend_flips, 4u)
      << "two earned flips plus two fleet-following flips";
}

TEST(SpecBufferFleet, CalmRevertedSlotResistsProactiveReflip) {
  // Two standalone buffers sharing one fleet view. A flips on its own
  // overflow evidence; B follows the (now half-flipped) fleet, then earns
  // its way back to the static hash through calm hysteresis. The majority
  // still stands — without the calm-revert latch B would be dragged
  // straight back up and the pair would flap one slot per epoch forever.
  SpecFleetView fleet;
  fleet.slots = 2;
  SpecBuffer a, b;
  SpecBuffer::AdaptivePolicy policy{/*overflow_threshold=*/1,
                                    /*calm_hysteresis=*/1};
  a.init(BufferBackend::kAdaptive, 4, 2, policy, GrowableSet::kMaxLog2,
         nullptr, {}, &fleet);
  b.init(BufferBackend::kAdaptive, 4, 2, policy, GrowableSet::kMaxLog2,
         nullptr, {}, &fleet);
  alignas(8) static uint64_t arena[128];

  // A: one overflow-doomed epoch (colliding words), flip at rearm.
  for (int i = 0; i < 8 && !a.doomed(); ++i) {
    uint64_t v = 1;
    a.store_bytes(reinterpret_cast<uintptr_t>(&arena[i * 16]), &v, 8);
  }
  ASSERT_TRUE(a.doomed());
  a.rearm();
  ASSERT_EQ(a.active_backend(), BufferBackend::kGrowableLog);
  EXPECT_EQ(fleet.flipped.load(), 1u);

  // B never doomed, but half the fleet has flipped: its next rearm
  // follows proactively.
  b.rearm();
  EXPECT_EQ(b.active_backend(), BufferBackend::kGrowableLog);
  EXPECT_EQ(fleet.flipped.load(), 2u);

  // One calm epoch satisfies B's hysteresis of 1: it reverts and latches.
  uint64_t v = 1;
  b.store_bytes(reinterpret_cast<uintptr_t>(&arena[0]), &v, 8);
  b.rearm();
  EXPECT_EQ(b.active_backend(), BufferBackend::kStaticHash);
  EXPECT_EQ(fleet.flipped.load(), 1u);

  // The majority condition still holds (1 of 2 flipped), but the latch
  // keeps B down through further calm epochs.
  for (int epoch = 0; epoch < 3; ++epoch) {
    b.store_bytes(reinterpret_cast<uintptr_t>(&arena[0]), &v, 8);
    b.rearm();
    ASSERT_EQ(b.active_backend(), BufferBackend::kStaticHash)
        << "epoch " << epoch << ": calm-reverted slot must not re-follow";
  }

  // Fresh overflow evidence of B's own clears the latch: it flips again —
  // and becomes eligible for fleet-following after any future calm revert.
  for (int i = 0; i < 8 && !b.doomed(); ++i) {
    b.store_bytes(reinterpret_cast<uintptr_t>(&arena[i * 16]), &v, 8);
  }
  ASSERT_TRUE(b.doomed());
  b.rearm();
  EXPECT_EQ(b.active_backend(), BufferBackend::kGrowableLog);
  EXPECT_EQ(fleet.flipped.load(), 2u);
}

// --- NUMA topology-aware fork placement (per-node idle freelists) ---
//
// ManagerConfig::numa_nodes > 0 fakes a topology, so these run on any
// machine (including the single-node CI box). The churn tests double as
// the TSan regression for the claim-side release ordering: claim_cpu's
// publications of live_ / most_speculative_rank_ race with
// admission_allows' acquire reads on concurrently forking workers, which
// TSan flags if either side decays to relaxed. (This suite rides the
// runtime_ TSan/ASan CI regexes.)

TEST(NumaFreelist, FakeTopologyShapesRankToNodeMapping) {
  ManagerConfig c = small_config(BufferBackend::kNumaSharded, 4);
  c.numa_nodes = 2;
  ThreadManager mgr(c);
  ASSERT_EQ(mgr.num_nodes(), 2);
  EXPECT_FALSE(mgr.topology().probed) << "a faked shape is not a probe";
  // Ranks split evenly across nodes, root (rank 0) on node 0.
  EXPECT_EQ(mgr.node_of_rank(0), 0);
  EXPECT_EQ(mgr.node_of_rank(1), 0);
  EXPECT_EQ(mgr.node_of_rank(2), 0);
  EXPECT_EQ(mgr.node_of_rank(3), 1);
  EXPECT_EQ(mgr.node_of_rank(4), 1);
}

TEST(NumaFreelist, NodeCountClampsToCpuCount) {
  ManagerConfig c = small_config(BufferBackend::kStaticHash, 1);
  c.numa_nodes = 8;
  ThreadManager mgr(c);
  EXPECT_EQ(mgr.num_nodes(), 1)
      << "never more nodes than virtual CPUs: no rank may strand on an "
         "empty home freelist";
  // The degenerate shape still forks and joins.
  int r = mgr.speculate(mgr.root(), ForkModel::kMixed, [](ThreadData&) {});
  ASSERT_GT(r, 0);
  EXPECT_EQ(mgr.synchronize(mgr.root(), mgr.root().children.back()),
            ThreadManager::JoinResult::kCommit);
}

TEST(NumaFreelist, TwoNodeChurnLosesNoRankAndCountsSteals) {
  ManagerConfig c = small_config(BufferBackend::kNumaSharded, 4);
  c.numa_nodes = 2;
  ThreadManager mgr(c);
  ASSERT_EQ(mgr.num_nodes(), 2);
  std::atomic<bool> release{false};
  for (int round = 0; round < 25; ++round) {
    release = false;
    uint32_t seen = 0;
    for (int i = 0; i < 4; ++i) {
      int r = mgr.speculate(mgr.root(), ForkModel::kMixed, [&](ThreadData&) {
        while (!release.load()) std::this_thread::yield();
      });
      ASSERT_GT(r, 0) << "round " << round << ": a rank was lost";
      ASSERT_LE(r, 4);
      ASSERT_EQ(seen & (1u << r), 0u)
          << "round " << round << ": rank " << r << " double-claimed";
      seen |= 1u << r;
    }
    EXPECT_EQ(
        mgr.speculate(mgr.root(), ForkModel::kMixed, [](ThreadData&) {}), 0)
        << "all four ranks are live: the fifth fork must be denied";
    release = true;
    while (!mgr.root().children.empty()) {
      ASSERT_EQ(mgr.synchronize(mgr.root(), mgr.root().children.back()),
                ThreadManager::JoinResult::kCommit);
    }
    ASSERT_EQ(mgr.live_threads(), 0);
  }
  // The root's home node 0 owns only two of the four ranks: filling the
  // machine every round forced claims from node 1's freelist.
  EXPECT_GT(mgr.root().stats.cross_node_claims, 0u);
}

TEST(NumaFreelist, ConcurrentWorkerClaimsStayDistinct) {
  // Workers fork grandchildren while the root forks children: pop_idle /
  // push_idle race across both node freelists. Every rank handed out in a
  // round is held live (spinning on `release`) until the whole round's
  // claims are recorded — the root releases only once every child has
  // made its fork attempt, and a rank is only pushed back to its freelist
  // after release — so a set bit in the mask means exactly "handed out
  // twice", never legal sequential reuse within the round.
  ManagerConfig c = small_config(BufferBackend::kNumaSharded, 4);
  c.numa_nodes = 2;
  ThreadManager mgr(c);
  ThreadManager* m = &mgr;
  for (int round = 0; round < 25; ++round) {
    std::atomic<bool> release{false};
    std::atomic<int> fork_attempts{0};
    std::atomic<uint32_t> live_mask{0};
    std::atomic<int> double_claims{0};
    auto claim_bit = [&](int rank) {
      uint32_t bit = 1u << rank;
      if (live_mask.fetch_or(bit) & bit) double_claims.fetch_add(1);
    };
    for (int i = 0; i < 2; ++i) {
      int r = mgr.speculate(mgr.root(), ForkModel::kMixed,
                            [&, m](ThreadData& td) {
        claim_bit(td.rank);
        // A denied grandchild fork never runs its body, so nothing here
        // can spin on a rank that was never claimed.
        int g = m->speculate(td, ForkModel::kMixed, [&](ThreadData& gd) {
          claim_bit(gd.rank);
          while (!release.load()) std::this_thread::yield();
        });
        fork_attempts.fetch_add(1);
        while (!release.load()) std::this_thread::yield();
        if (g > 0) m->synchronize(td, td.children.back());
      });
      ASSERT_GT(r, 0);
    }
    // Without this wait a child that starts late could fork after another
    // child already synchronized its grandchild, and legally reuse that
    // rank within the round.
    while (fork_attempts.load() != 2) std::this_thread::yield();
    release = true;
    while (!mgr.root().children.empty()) {
      mgr.synchronize(mgr.root(), mgr.root().children.back());
    }
    while (mgr.live_threads() != 0) std::this_thread::yield();
    EXPECT_EQ(double_claims.load(), 0) << "round " << round;
  }
}

// --- handoff spin budget (runtime-tuned, ManagerConfig-overridable) ---

TEST(HandoffSpinBudget, ExplicitConfigIsHonoredVerbatim) {
  for (int budget : {1, 64, 500, 8192, 100000}) {
    EXPECT_EQ(resolve_handoff_spin_budget(budget), budget);
    ManagerConfig c;
    c.num_cpus = 1;
    c.handoff_spin_budget = budget;
    ThreadManager mgr(c);
    EXPECT_EQ(mgr.handoff_spin_budget(), budget);
  }
}

TEST(HandoffSpinBudget, ZeroCalibratesWithinClamp) {
  int calibrated = resolve_handoff_spin_budget(0);
  EXPECT_GE(calibrated, 64);
  EXPECT_LE(calibrated, 8192);
  // The probe is memoized: every default-configured manager in the process
  // sees the same budget (and pays the probe cost once).
  EXPECT_EQ(resolve_handoff_spin_budget(0), calibrated);
  ManagerConfig c;
  c.num_cpus = 1;
  ThreadManager mgr(c);
  EXPECT_EQ(mgr.handoff_spin_budget(), calibrated);
}

TEST(HandoffSpinBudget, PerNodeBudgetsHonorOverrideAndClamp) {
  // An explicit budget applies verbatim on every node of a faked
  // topology; calibration (0) stays within the clamp on every node.
  ManagerConfig c;
  c.num_cpus = 4;
  c.numa_nodes = 2;
  c.handoff_spin_budget = 777;
  ThreadManager overridden(c);
  EXPECT_EQ(overridden.handoff_spin_budget(0), 777);
  EXPECT_EQ(overridden.handoff_spin_budget(1), 777);
  c.handoff_spin_budget = 0;
  ThreadManager calibrated(c);
  for (int n = 0; n < calibrated.num_nodes(); ++n) {
    EXPECT_GE(calibrated.handoff_spin_budget(n), 64) << "node " << n;
    EXPECT_LE(calibrated.handoff_spin_budget(n), 8192) << "node " << n;
  }
}

TEST(HandoffSpinBudget, ForkJoinWorksAcrossBudgetExtremes) {
  // A one-iteration budget parks almost immediately; a huge budget spins
  // through the whole handoff. Both must complete fork/join correctly.
  for (int budget : {1, 100000}) {
    ManagerConfig c;
    c.num_cpus = 2;
    c.handoff_spin_budget = budget;
    ThreadManager mgr(c);
    alignas(8) static uint64_t cell;
    cell = 0;
    mgr.register_space(&cell, sizeof(cell));
    for (int i = 0; i < 8; ++i) {
      int r = mgr.speculate(mgr.root(), ForkModel::kMixed, [](ThreadData& td) {
        uint64_t v = 7;
        td.sbuf.store_bytes(reinterpret_cast<uintptr_t>(&cell), &v, 8);
      });
      ASSERT_GT(r, 0) << "budget " << budget;
      ASSERT_EQ(mgr.synchronize(mgr.root(), mgr.root().children.back()),
                ThreadManager::JoinResult::kCommit);
      ASSERT_EQ(cell, 7u);
      cell = 0;
    }
    mgr.unregister_space(&cell, sizeof(cell));
  }
}

}  // namespace
}  // namespace mutls
