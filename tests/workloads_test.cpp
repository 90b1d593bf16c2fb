// Integration tests: every Table II workload must produce bit-identical
// results under speculation (all forking models) and sequentially.
#include <gtest/gtest.h>

#include "workloads/bh.h"
#include "workloads/fft.h"
#include "workloads/http_serving.h"
#include "workloads/mandelbrot.h"
#include "workloads/matmult.h"
#include "workloads/md.h"
#include "workloads/nqueen.h"
#include "workloads/threex.h"
#include "workloads/tsp.h"

namespace mutls::workloads {
namespace {

// Adaptive forks off: these suites check results under speculation, so
// every fork site keeps forking however little it pays.
Runtime::Options test_opts(int cpus) {
  Runtime::Options o;
  o.num_cpus = cpus;
  o.buffer_log2 = 16;
  o.overflow_cap = 4096;
  o.adaptive_forks = false;
  return o;
}

struct ModelCase {
  ForkModel model;
  int cpus;
};

class WorkloadEquivalence : public ::testing::TestWithParam<ModelCase> {};

TEST_P(WorkloadEquivalence, ThreeX) {
  ThreeX::Params p;
  p.n = 20000;
  p.chunks = 8;
  SeqRun seq = ThreeX::run_seq(p);
  Runtime rt(test_opts(GetParam().cpus));
  SpecRun spec = ThreeX::run_spec(rt, p, GetParam().model);
  EXPECT_EQ(spec.checksum, seq.checksum);
}

TEST_P(WorkloadEquivalence, Mandelbrot) {
  Mandelbrot::Params p;
  p.width = 64;
  p.height = 48;
  p.max_iter = 100;
  p.chunks = 8;
  SeqRun seq = Mandelbrot::run_seq(p);
  Runtime rt(test_opts(GetParam().cpus));
  SpecRun spec = Mandelbrot::run_spec(rt, p, GetParam().model);
  EXPECT_EQ(spec.checksum, seq.checksum);
}

TEST_P(WorkloadEquivalence, MolecularDynamics) {
  MolecularDynamics::Params p;
  p.n = 24;
  p.steps = 4;
  p.chunks = 4;
  SeqRun seq = MolecularDynamics::run_seq(p);
  Runtime rt(test_opts(GetParam().cpus));
  SpecRun spec = MolecularDynamics::run_spec(rt, p, GetParam().model);
  EXPECT_EQ(spec.checksum, seq.checksum);
}

TEST_P(WorkloadEquivalence, BarnesHut) {
  BarnesHut::Params p;
  p.n = 64;
  p.steps = 2;
  p.chunks = 4;
  SeqRun seq = BarnesHut::run_seq(p);
  Runtime rt(test_opts(GetParam().cpus));
  SpecRun spec = BarnesHut::run_spec(rt, p, GetParam().model);
  EXPECT_EQ(spec.checksum, seq.checksum);
}

TEST_P(WorkloadEquivalence, Fft) {
  Fft::Params p;
  p.log2_n = 8;
  p.fork_levels = 3;
  SeqRun seq = Fft::run_seq(p);
  Runtime rt(test_opts(GetParam().cpus));
  SpecRun spec = Fft::run_spec(rt, p, GetParam().model);
  EXPECT_EQ(spec.checksum, seq.checksum);
}

TEST_P(WorkloadEquivalence, MatMult) {
  MatMult::Params p;
  p.n = 32;
  p.leaf = 8;
  p.fork_levels = 2;
  SeqRun seq = MatMult::run_seq(p);
  Runtime rt(test_opts(GetParam().cpus));
  SpecRun spec = MatMult::run_spec(rt, p, GetParam().model);
  EXPECT_EQ(spec.checksum, seq.checksum);
}

TEST_P(WorkloadEquivalence, NQueen) {
  NQueen::Params p;
  p.n = 8;
  p.cutoff = 3;
  SeqRun seq = NQueen::run_seq(p);
  Runtime rt(test_opts(GetParam().cpus));
  SpecRun spec = NQueen::run_spec(rt, p, GetParam().model);
  EXPECT_EQ(spec.checksum, seq.checksum);
}

TEST_P(WorkloadEquivalence, HttpServing) {
  HttpServing::Params p;
  p.batches = 6;
  p.batch = 96;
  p.chunks = 6;
  p.num_keys = 64;       // small key space: plenty of real index conflicts
  p.zipf_s = 1.1;
  p.put_ratio = 0.25;
  p.malformed_ratio = 0.1;
  p.capacity_log2 = 5;   // 32 slots for 64 keys: evictions exercised
  SeqRun seq = HttpServing::run_seq(p);
  Runtime rt(test_opts(GetParam().cpus));
  SpecRun spec = HttpServing::run_spec(rt, p, GetParam().model);
  EXPECT_EQ(spec.checksum, seq.checksum);
}

TEST_P(WorkloadEquivalence, Tsp) {
  Tsp::Params p;
  p.n = 7;
  p.cutoff = 2;
  SeqRun seq = Tsp::run_seq(p);
  Runtime rt(test_opts(GetParam().cpus));
  SpecRun spec = Tsp::run_spec(rt, p, GetParam().model);
  EXPECT_EQ(spec.checksum, seq.checksum);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndCpus, WorkloadEquivalence,
    ::testing::Values(ModelCase{ForkModel::kMixed, 1},
                      ModelCase{ForkModel::kMixed, 2},
                      ModelCase{ForkModel::kMixed, 4},
                      ModelCase{ForkModel::kInOrder, 2},
                      ModelCase{ForkModel::kInOrder, 4},
                      ModelCase{ForkModel::kOutOfOrder, 2},
                      ModelCase{ForkModel::kOutOfOrder, 4}),
    [](const ::testing::TestParamInfo<ModelCase>& info) {
      std::string name = fork_model_name(info.param.model);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name + "_" + std::to_string(info.param.cpus) + "cpu";
    });

// Known-answer checks independent of the speculation machinery.
TEST(WorkloadKnownAnswers, NQueenCounts) {
  EXPECT_EQ(NQueen::solve_seq(4, 0, 0, 0), 2u);
  EXPECT_EQ(NQueen::solve_seq(5, 0, 0, 0), 10u);
  EXPECT_EQ(NQueen::solve_seq(6, 0, 0, 0), 4u);
  EXPECT_EQ(NQueen::solve_seq(7, 0, 0, 0), 40u);
  EXPECT_EQ(NQueen::solve_seq(8, 0, 0, 0), 92u);
}

TEST(WorkloadKnownAnswers, CollatzTrajectories) {
  EXPECT_EQ(ThreeX::trajectory(1), 0u);
  EXPECT_EQ(ThreeX::trajectory(2), 1u);
  EXPECT_EQ(ThreeX::trajectory(3), 7u);
  EXPECT_EQ(ThreeX::trajectory(6), 8u);
  EXPECT_EQ(ThreeX::trajectory(27), 111u);
}

TEST(WorkloadKnownAnswers, MandelbrotInteriorAndExterior) {
  EXPECT_EQ(Mandelbrot::escape_iters(0.0, 0.0, 500), 500);  // interior
  EXPECT_LT(Mandelbrot::escape_iters(2.0, 2.0, 500), 3);    // far exterior
}

// Rollback injection must never change results, only statistics.
TEST(WorkloadChaos, InjectedRollbacksPreserveResults) {
  NQueen::Params p;
  p.n = 8;
  p.cutoff = 2;
  SeqRun seq = NQueen::run_seq(p);
  Runtime::Options o = test_opts(2);
  o.rollback_probability = 0.5;
  o.seed = 99;
  Runtime rt(o);
  SpecRun spec = NQueen::run_spec(rt, p, ForkModel::kMixed);
  EXPECT_EQ(spec.checksum, seq.checksum);
  EXPECT_GT(spec.stats.speculative.rollbacks, 0u);
}

// The serving pipeline must keep the cache index bit-identical to the
// sequential run even when rollbacks are injected into its pieces.
TEST(WorkloadChaos, ServingInjectedRollbacksPreserveIndex) {
  HttpServing::Params p;
  p.batches = 4;
  p.batch = 96;
  p.chunks = 6;
  p.num_keys = 64;
  p.zipf_s = 1.1;
  p.put_ratio = 0.25;
  p.capacity_log2 = 5;
  SeqRun seq = HttpServing::run_seq(p);
  Runtime::Options o = test_opts(3);
  o.rollback_probability = 0.3;
  o.seed = 7;
  Runtime rt(o);
  SpecRun spec = HttpServing::run_spec(rt, p, ForkModel::kMixed);
  EXPECT_EQ(spec.checksum, seq.checksum);
  EXPECT_GT(spec.stats.speculative.rollbacks, 0u);
}

// With adaptive forks on (the default), fft's fork sites learn that they
// lose at this size and decline, and the declined subtrees run natively:
// every run must stay exact while that happens.
TEST(WorkloadAdaptive, FftStaysExactWhileItsSitesLearn) {
  Fft::Params p;
  p.log2_n = 10;
  p.fork_levels = 4;
  SeqRun seq = Fft::run_seq(p);
  Runtime::Options o = test_opts(3);
  o.adaptive_forks = true;
  Runtime rt(o);
  for (int run = 0; run < 24; ++run) {
    SpecRun spec = Fft::run_spec(rt, p, ForkModel::kMixed);
    ASSERT_EQ(spec.checksum, seq.checksum) << "run " << run;
  }
}

TEST(WorkloadChaos, TinyBuffersStillCorrect) {
  // Forces overflow dooms: the run must fall back to inline execution and
  // still be bit-correct.
  Mandelbrot::Params p;
  p.width = 64;
  p.height = 32;
  p.max_iter = 50;
  p.chunks = 4;
  SeqRun seq = Mandelbrot::run_seq(p);
  Runtime::Options o;
  o.num_cpus = 2;
  o.buffer_log2 = 4;
  o.overflow_cap = 8;
  Runtime rt(o);
  SpecRun spec = Mandelbrot::run_spec(rt, p, ForkModel::kMixed);
  EXPECT_EQ(spec.checksum, seq.checksum);
}

}  // namespace
}  // namespace mutls::workloads
