// Stress and property tests across the runtime + API stack: randomized
// speculation trees checked against a sequential model, buffered-view
// semantics against a reference memory model, a loop inside a speculated
// region, and the statistics identities used by the figures.
#include <gtest/gtest.h>

#include <map>

#include "mutls/mutls.h"
#include "support/prng.h"
#include "tests/backend_param.h"

namespace mutls {
namespace {

// --- SpecBuffer semantics vs a byte-level reference model ---------------
//
// Parameterized over (backend, seed): the buffered-view contract is
// backend-independent, so every backend must agree with the same model.

class BufferSemantics
    : public ::testing::TestWithParam<std::tuple<BufferBackend, int>> {};

TEST_P(BufferSemantics, SpeculativeViewMatchesReferenceModel) {
  // Random interleavings of speculative loads/stores of mixed sizes must
  // always observe: own writes first, then the initial memory image.
  auto [backend, seed] = GetParam();
  Xorshift64 rng(static_cast<uint64_t>(seed) * 7919 + 3);
  alignas(8) static uint8_t arena[512];
  for (size_t i = 0; i < sizeof(arena); ++i) {
    arena[i] = static_cast<uint8_t>(rng.next());
  }
  std::map<size_t, uint8_t> spec_view;  // offset -> speculatively written

  SpecBuffer buf;
  buf.init(backend, 8, 128);
  for (int op = 0; op < 500; ++op) {
    size_t sizes[] = {1, 2, 4, 8, 16};
    size_t size = sizes[rng.next_below(5)];
    size_t off = rng.next_below(sizeof(arena) - size);
    uintptr_t addr = reinterpret_cast<uintptr_t>(arena) + off;
    if (rng.bernoulli(0.5)) {
      uint8_t data[16];
      for (size_t i = 0; i < size; ++i) {
        data[i] = static_cast<uint8_t>(rng.next());
        spec_view[off + i] = data[i];
      }
      buf.store_bytes(addr, data, size);
    } else {
      uint8_t out[16];
      buf.load_bytes(addr, out, size);
      for (size_t i = 0; i < size; ++i) {
        auto it = spec_view.find(off + i);
        uint8_t expect = it != spec_view.end() ? it->second : arena[off + i];
        ASSERT_EQ(out[i], expect)
            << "op " << op << " offset " << off + i << " size " << size;
      }
    }
    ASSERT_FALSE(buf.doomed());
  }
  // Nothing wrote main memory; validation must pass; commit must publish
  // exactly the spec view.
  EXPECT_TRUE(buf.validate_against_memory());
  buf.commit_to_memory();
  for (const auto& [off, val] : spec_view) {
    EXPECT_EQ(arena[off], val);
  }
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndSeeds, BufferSemantics,
    ::testing::Combine(::testing::Values(BufferBackend::kStaticHash,
                                         BufferBackend::kGrowableLog),
                       ::testing::Range(1, 9)),
    [](const ::testing::TestParamInfo<std::tuple<BufferBackend, int>>& info) {
      return backend_camel_name(std::get<0>(info.param)) + "Seed" +
             std::to_string(std::get<1>(info.param));
    });

// --- randomized speculation trees vs sequential execution ---------------

struct TreeCase {
  int cpus;
  double rollback_p;
  int buffer_log2;
  uint64_t seed;
};

class SpecTreeStress
    : public ::testing::TestWithParam<std::tuple<BufferBackend, TreeCase>> {};

// Recursively computes values into `out` using nested speculation with a
// deterministic shape drawn from `seed`; the sequential model is the same
// recursion without speculation.
void tree_work(Runtime& rt, Ctx& ctx, uint64_t* out, size_t lo, size_t hi,
               uint64_t salt, int depth) {
  if (hi - lo <= 2 || depth >= 4) {
    for (size_t i = lo; i < hi; ++i) {
      uint64_t v = salt ^ (i * 0x9e3779b97f4a7c15ull);
      v ^= v >> 29;
      ctx.store(&out[i], v);
    }
    return;
  }
  size_t mid = lo + (hi - lo) / 2;
  Spec s = rt.fork(ctx, ForkModel::kMixed, [&, mid, hi, salt, depth](Ctx& c) {
    tree_work(rt, c, out, mid, hi, salt * 31 + 7, depth + 1);
  });
  tree_work(rt, ctx, out, lo, mid, salt * 17 + 3, depth + 1);
  rt.join(ctx, s);
}

void tree_model(std::vector<uint64_t>& out, size_t lo, size_t hi,
                uint64_t salt, int depth) {
  if (hi - lo <= 2 || depth >= 4) {
    for (size_t i = lo; i < hi; ++i) {
      uint64_t v = salt ^ (i * 0x9e3779b97f4a7c15ull);
      v ^= v >> 29;
      out[i] = v;
    }
    return;
  }
  size_t mid = lo + (hi - lo) / 2;
  tree_model(out, mid, hi, salt * 31 + 7, depth + 1);
  tree_model(out, lo, mid, salt * 17 + 3, depth + 1);
}

TEST_P(SpecTreeStress, TreeSpeculationMatchesSequentialModel) {
  const auto& [backend, tc] = GetParam();
  Runtime::Options o;
  o.num_cpus = tc.cpus;
  o.buffer_log2 = tc.buffer_log2;
  o.overflow_cap = 32;
  o.buffer_backend = backend;
  o.rollback_probability = tc.rollback_p;
  o.seed = tc.seed;
  Runtime rt(o);

  constexpr size_t kN = 96;
  SharedArray<uint64_t> out(rt, kN, 0);
  for (int round = 0; round < 3; ++round) {
    uint64_t salt = tc.seed * 1000 + static_cast<uint64_t>(round);
    rt.run([&](Ctx& ctx) { tree_work(rt, ctx, out.data(), 0, kN, salt, 0); });
    std::vector<uint64_t> expect(kN);
    tree_model(expect, 0, kN, salt, 0);
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(out[i], expect[i]) << "round " << round << " index " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SpecTreeStress,
    ::testing::Combine(
        ::testing::Values(BufferBackend::kStaticHash,
                          BufferBackend::kGrowableLog),
        ::testing::Values(TreeCase{1, 0.0, 10, 1}, TreeCase{2, 0.0, 10, 2},
                          TreeCase{4, 0.0, 10, 3}, TreeCase{4, 0.3, 10, 4},
                          TreeCase{2, 1.0, 10, 5}, TreeCase{4, 0.1, 4, 6},
                          TreeCase{8, 0.05, 8, 7})),
    [](const ::testing::TestParamInfo<std::tuple<BufferBackend, TreeCase>>&
           info) {
      return backend_camel_name(std::get<0>(info.param)) + "Case" +
             std::to_string(std::get<1>(info.param).seed);
    });

// --- growable-log backend: resize while the speculation is live ----------

TEST(GrowableLogUnderSpeculation, ResizesMidSpeculationAndCommits) {
  // A footprint far beyond the initial table forces index resizes *during*
  // the speculative task; with the static hash this exact configuration
  // would doom every speculation (bounded overflow), so commits prove the
  // resize path end to end: buffered view across rehashes, validation,
  // commit, and the stats plumbing.
  constexpr size_t kN = 2048;  // >> 2^4 initial slots
  Runtime rt({.num_cpus = 2,
              .buffer_log2 = 4,
              .overflow_cap = 8,
              .buffer_backend = BufferBackend::kGrowableLog});
  SharedArray<uint64_t> data(rt, kN, 0);
  RunStats rs = rt.run([&](Ctx& ctx) {
    Spec s = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
      for (size_t i = 0; i < kN; ++i) {
        // Read-modify-write: stresses read-set and write-set growth.
        c.store(&data[i], c.load(&data[i]) + i);
      }
    });
    rt.join(ctx, s);
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(data[i], i) << "value lost across a mid-speculation resize";
  }
  EXPECT_EQ(rs.speculative.commits, 1u);
  EXPECT_EQ(rs.speculative.rollbacks, 0u);
  EXPECT_EQ(rs.speculative.buffer.overflow_events, 0u);
  EXPECT_GT(rs.speculative.buffer.resize_events, 0u)
      << "the tiny initial table must have grown";
  EXPECT_GT(rs.speculative.buffer.probe_ops, 0u);
}

TEST(GrowableLogUnderSpeculation, NestedMergeIntoGrowingJoiner) {
  // Tree-form nesting where the *joiner's* buffer must grow while adopting
  // a large child commit (merge-driven resize, not access-driven).
  constexpr size_t kN = 512;
  Runtime rt({.num_cpus = 2,
              .buffer_log2 = 4,
              .overflow_cap = 8,
              .buffer_backend = BufferBackend::kGrowableLog});
  SharedArray<uint64_t> data(rt, kN, 0);
  RunStats rs = rt.run([&](Ctx& ctx) {
    Spec outer = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
      Spec inner = rt.fork(c, ForkModel::kMixed, [&](Ctx& cc) {
        for (size_t i = kN / 2; i < kN; ++i) {
          cc.store(&data[i], uint64_t{i} * 2);
        }
      });
      for (size_t i = 0; i < kN / 2; ++i) {
        c.store(&data[i], uint64_t{i} * 2);
      }
      rt.join(c, inner);  // speculative joiner: merge_into path
    });
    rt.join(ctx, outer);
  });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(data[i], i * 2);
  }
  EXPECT_GE(rs.speculative.commits, 1u);
  EXPECT_EQ(rs.speculative.buffer.overflow_events, 0u);
  EXPECT_GT(rs.speculative.buffer.resize_events, 0u);
}

// --- a loop inside a speculated region ------------------------------------

TEST(SpecFor, InsideSpeculativeRegion) {
  // A speculated region may itself run spec_for (mixed model: speculative
  // threads fork).
  Runtime rt({.num_cpus = 4, .buffer_log2 = 12});
  SharedArray<uint64_t> out(rt, 8, 0);
  rt.run([&](Ctx& ctx) {
    Spec s = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
      spec_for(rt, c, 0, 8, 4, ForkModel::kMixed,
               [&](Ctx& cc, int, int64_t lo, int64_t hi) {
                 for (int64_t i = lo; i < hi; ++i) {
                   cc.store(&out[static_cast<size_t>(i)],
                            static_cast<uint64_t>(i + 100));
                 }
               });
    });
    rt.join(ctx, s);
  });
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], i + 100);
  }
}

// --- statistics identities -----------------------------------------------

TEST(StatsIdentities, MetricsAreConsistent) {
  Runtime rt({.num_cpus = 2, .buffer_log2 = 12});
  SharedArray<uint64_t> data(rt, 64, 0);
  RunStats rs = rt.run([&](Ctx& ctx) {
    spec_for(rt, ctx, 0, 640, 8, ForkModel::kMixed,
             [&](Ctx& c, int chunk, int64_t lo, int64_t hi) {
               uint64_t s = 0;
               for (int64_t i = lo; i < hi; ++i) {
                 s += static_cast<uint64_t>(i) * 3;
               }
               c.store(&data[static_cast<size_t>(chunk)], s);
             });
  });
  // Efficiencies are fractions of runtime.
  EXPECT_GE(rs.critical_efficiency(), 0.0);
  EXPECT_LE(rs.critical_efficiency(), 1.0 + 1e-9);
  EXPECT_GE(rs.speculative_efficiency(), 0.0);
  EXPECT_LE(rs.speculative_efficiency(), 1.0 + 1e-9);
  // Coverage = spec runtime / critical runtime, both measured here.
  EXPECT_NEAR(rs.coverage(),
              static_cast<double>(rs.speculative.runtime_ns) /
                  static_cast<double>(rs.critical.runtime_ns),
              1e-12);
  // Power efficiency with Ts == critical runtime is coverage-bounded.
  double pe = rs.power_efficiency(rs.critical.runtime_ns);
  EXPECT_GT(pe, 0.0);
  EXPECT_LE(pe, 1.0 + 1e-9);
  // The ledger never exceeds the runtime it partitions.
  EXPECT_LE(rs.critical.ledger.total(), rs.critical.runtime_ns * 1.01 + 1000);
}

TEST(StatsIdentities, RepeatedRunsResetCleanly) {
  Runtime rt({.num_cpus = 2, .buffer_log2 = 10});
  SharedArray<uint64_t> x(rt, 1, 0);
  for (int i = 0; i < 3; ++i) {
    RunStats rs = rt.run([&](Ctx& ctx) {
      Spec s = rt.fork(ctx, ForkModel::kMixed,
                       [&](Ctx& c) { c.add(&x[0], uint64_t{1}); });
      rt.join(ctx, s);
    });
    EXPECT_LE(rs.speculative_threads, 1u) << "stats must reset per run";
  }
  EXPECT_EQ(x[0], 3u);
}

// --- repeated heavy churn: CPU slots, buffers, epochs ---------------------

TEST(Churn, ThousandsOfSpeculationsReuseSlotsSafely) {
  Runtime rt({.num_cpus = 2, .buffer_log2 = 8});
  SharedArray<uint64_t> cell(rt, 4, 0);
  rt.run([&](Ctx& ctx) {
    for (int i = 0; i < 2000; ++i) {
      Spec s = rt.fork(ctx, ForkModel::kMixed, [&, i](Ctx& c) {
        c.store(&cell[static_cast<size_t>(i % 4)],
                static_cast<uint64_t>(i));
      });
      rt.join(ctx, s);
    }
  });
  EXPECT_EQ(cell[3], 1999u);
  RunStats rs = rt.manager().collect_stats();
  EXPECT_EQ(rs.speculative.rollbacks, 0u);
}

}  // namespace
}  // namespace mutls
