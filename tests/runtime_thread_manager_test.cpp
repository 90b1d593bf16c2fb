// Integration tests of the ThreadManager protocol: CPU pool, flag-based
// barrier, forking-model admission, tree-form synchronize with NOSYNC and
// child adoption (paper IV-D, IV-E, IV-F). Value-parameterized over the
// SpecBuffer backends: the synchronization protocol must be identical no
// matter how speculative memory is buffered.
#include "runtime/thread_manager.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <thread>

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
  if (GetParam() == BufferBackend::kStaticHash) {
    // Exactly one exhaustion doom per round, not a growing resurvey.
    EXPECT_EQ(rs.speculative.buffer.overflow_events, 3u);
    EXPECT_EQ(rs.speculative.buffer.resize_events, 0u);
    EXPECT_EQ(rs.speculative.rollbacks, 3u);
  } else {
    // The growable log absorbs the same pattern with resizes and commits.
    EXPECT_EQ(rs.speculative.buffer.overflow_events, 0u);
    EXPECT_GT(rs.speculative.buffer.resize_events, 0u);
    EXPECT_EQ(rs.speculative.commits, 3u);
  }
}

TEST_P(ThreadManagerTest, ChildMergesIntoSpeculativeParentExactly) {
  // A speculative parent joins its own child: the child validates against
  // and merges into the parent's buffer, and the final commit must be
  // byte-exact.
  ThreadManager mgr(config(2));
  alignas(8) static uint64_t arena[4];
  std::memset(arena, 0, sizeof(arena));
  mgr.register_space(arena, sizeof(arena));
  ThreadManager* m = &mgr;
  int rank = mgr.speculate(mgr.root(), ForkModel::kMixed, [m](ThreadData& td) {
    // Parent writes a full word and one byte of another word.
    uint64_t v = 0x1111111111111111ull;
    td.sbuf.store_bytes(reinterpret_cast<uintptr_t>(&arena[0]), &v, 8);
    uint8_t b = 0xAA;
    td.sbuf.store_bytes(reinterpret_cast<uintptr_t>(&arena[1]), &b, 1);
    int child = m->speculate(td, ForkModel::kMixed, [](ThreadData& ctd) {
      // Child overlaps the parent's full word (child is logically later:
      // its bytes must win), writes another byte of word 1, a fresh word
      // 2, and reads word 3 (adopted into the parent's read-set).
      uint64_t cv = 0x2222222222222222ull;
      ctd.sbuf.store_bytes(reinterpret_cast<uintptr_t>(&arena[0]), &cv, 8);
      uint8_t cb = 0xBB;
      ctd.sbuf.store_bytes(reinterpret_cast<uintptr_t>(&arena[1]) + 2, &cb,
                           1);
      uint64_t cw = 0x3333333333333333ull;
      ctd.sbuf.store_bytes(reinterpret_cast<uintptr_t>(&arena[2]), &cw, 8);
      uint64_t out;
      ctd.sbuf.load_bytes(reinterpret_cast<uintptr_t>(&arena[3]), &out, 8);
    });
    ASSERT_GT(child, 0);
    EXPECT_EQ(m->synchronize(td, td.children.back()),
              ThreadManager::JoinResult::kCommit);
  });
  ASSERT_GT(rank, 0);
  ASSERT_EQ(mgr.synchronize(mgr.root(), mgr.root().children.back()),
            ThreadManager::JoinResult::kCommit);

  EXPECT_EQ(arena[0], 0x2222222222222222ull) << "child write wins";
  auto* b1 = reinterpret_cast<uint8_t*>(&arena[1]);
  EXPECT_EQ(b1[0], 0xAA) << "parent byte survives the merge";
  EXPECT_EQ(b1[2], 0xBB) << "child byte merges in";
  EXPECT_EQ(b1[1], 0x00) << "unwritten byte stays untouched";
  EXPECT_EQ(arena[2], 0x3333333333333333ull);
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
    ::testing::Values(BufferBackend::kStaticHash, BufferBackend::kGrowableLog),
    [](const ::testing::TestParamInfo<BufferBackend>& info) {
      return backend_camel_name(info.param);
    });

// --- the lock-free idle freelist ---
//
// The churn tests double as the TSan regression for the claim-side
// release ordering: claim_cpu's publications of live_ /
// most_speculative_rank_ race with admission_allows' acquire reads on
// concurrently forking workers, which TSan flags if either side decays to
// relaxed. (This suite rides the runtime_ TSan/ASan CI regexes.)

TEST(IdleFreelist, FillingEveryRankLosesNone) {
  // EXPECT rather than ASSERT: returning with speculations still live
  // would hang the manager's teardown, so a failing round still releases
  // and joins what it claimed, and the next round does not start.
  ThreadManager mgr(small_config(BufferBackend::kStaticHash, 4));
  std::atomic<bool> release{false};
  for (int round = 0; round < 25 && !HasFailure(); ++round) {
    release = false;
    uint32_t seen = 0;
    for (int i = 0; i < 4; ++i) {
      int r = mgr.speculate(mgr.root(), ForkModel::kMixed, [&](ThreadData&) {
        while (!release.load()) std::this_thread::yield();
      });
      EXPECT_GT(r, 0) << "round " << round << ": a rank was lost";
      EXPECT_LE(r, 4);
      EXPECT_EQ(seen & (1u << r), 0u)
          << "round " << round << ": rank " << r << " double-claimed";
      seen |= 1u << r;
    }
    EXPECT_EQ(
        mgr.speculate(mgr.root(), ForkModel::kMixed, [](ThreadData&) {}), 0)
        << "all four ranks are live: the fifth fork must be denied";
    release = true;
    while (!mgr.root().children.empty()) {
      EXPECT_EQ(mgr.synchronize(mgr.root(), mgr.root().children.back()),
                ThreadManager::JoinResult::kCommit);
    }
    EXPECT_EQ(mgr.live_threads(), 0);
  }
}

TEST(IdleFreelist, ConcurrentWorkerClaimsStayDistinct) {
  // Workers fork grandchildren while the root forks children: pop_idle /
  // push_idle race on the freelist head. Every rank handed out in a round
  // is held live (spinning on `release`) until the whole round's claims
  // are recorded — the root releases only once every child has made its
  // fork attempt, and a rank is only pushed back to the freelist after
  // release — so a set bit in the mask means exactly "handed out
  // twice", never legal sequential reuse within the round.
  ThreadManager mgr(small_config(BufferBackend::kStaticHash, 4));
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
    int forked = 0;
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
      EXPECT_GT(r, 0);  // not ASSERT: the forked child must still be joined
      if (r > 0) ++forked;
    }
    // Without this wait a child that starts late could fork after another
    // child already synchronized its grandchild, and legally reuse that
    // rank within the round.
    while (fork_attempts.load() != forked) std::this_thread::yield();
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

// --- teardown with a speculation still live ---
//
// A child that finished its task waits at its barrier for a SYNC or a
// NOSYNC and never reads the shutdown flag, so the manager must discard
// what the root left live before it shuts the workers down. The check runs
// in a child process that arms an alarm: a teardown that hangs is killed
// by SIGALRM and fails the test instead of stalling the suite.

TEST(ThreadManagerDeathTest, TeardownDiscardsUnjoinedSpeculations) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        alarm(10);
        {
          ThreadManager mgr(small_config(BufferBackend::kStaticHash, 2));
          ThreadManager* m = &mgr;
          std::atomic<bool> ran{false};
          // One child forks a grandchild it never joins; the root joins
          // neither. The root waits until the child has run its task, so
          // the child is at its barrier (or about to be) when the manager
          // is destroyed, not still waiting to pick the task up.
          int r = mgr.speculate(mgr.root(), ForkModel::kMixed,
                                [m, &ran](ThreadData& td) {
                                  m->speculate(td, ForkModel::kMixed,
                                               [](ThreadData&) {});
                                  ran.store(true);
                                });
          if (r == 0) std::_Exit(2);
          while (!ran.load()) std::this_thread::yield();
        }
        std::_Exit(0);
      },
      ::testing::ExitedWithCode(0), "");
}

}  // namespace
}  // namespace mutls
