// Figure 5 — critical path efficiency eta_crit = Twork_nonsp /
// Truntime_nonsp versus CPU count, all benchmarks.
//
// Paper shape: 3x+1 and mandelbrot near 1.0 throughout; md decays steadily;
// matmult stays 94-100% (data reuse); the DFS pair track each other.
#include "bench/common.h"

int main(int argc, char** argv) {
  using namespace mutls;
  using namespace mutls::bench;
  HarnessArgs args = parse_args(argc, argv);
  auto ws = make_workloads(args);

  if (args.measured) {
    std::printf("FIG 5 (measured) — critical path efficiency\n");
    std::printf("%-11s", "benchmark");
    for (int n : args.measured_cpus) {
      if (n > 1) std::printf(" %6d", n);
    }
    std::printf("\n");
    for (BenchWorkload& w : ws) {
      const uint64_t want = w.seq().checksum;
      std::printf("%-11s", w.name.c_str());
      for (int n : args.measured_cpus) {
        if (n == 1) continue;
        workloads::SpecRun r = w.spec(n, ForkModel::kMixed, 0.0);
        check_checksum(w, r.checksum, want);
        std::printf(" %6.3f", r.stats.critical_efficiency());
      }
      std::printf("\n");
    }
  }

  if (args.sim) {
    std::printf("\nFIG 5 (simulated, paper scale) — critical path efficiency\n");
    std::printf("%-11s", "benchmark");
    for (int n : args.sim_cpus) std::printf(" %6d", n);
    std::printf("\n");
    for (BenchWorkload& w : ws) {
      std::printf("%-11s", w.name.c_str());
      for (int n : args.sim_cpus) {
        sim::SimModel m = w.sim_model();
        sim::SimResult r =
            sim::Simulator(sim_opts(n, ForkModel::kMixed)).run(m);
        std::printf(" %6.3f", r.critical_efficiency());
      }
      std::printf("\n");
    }
  }
  return 0;
}
