// Figure 4 — absolute speedup of the memory-intensive applications
// (fft, matmult, nqueen, tsp, bh) versus CPU count.
//
// Paper reference maxima: fft 3.72, matmult 2.01, nqueen 5.40, tsp 4.86,
// bh 6.55. Expected shape: modest speedups saturating well below the
// compute-intensive curves, with matmult the lowest (rollbacks) and
// nqueen/tsp/bh the best of the group.
#include <thread>

#include "bench/common.h"

int main(int argc, char** argv) {
  using namespace mutls;
  using namespace mutls::bench;
  HarnessArgs args = parse_args(argc, argv);
  auto ws =
      filter(make_workloads(args), {"fft", "matmult", "nqueen", "tsp", "bh"});

  bool gate_failed = false;
  if (args.measured) {
    std::printf("FIG 4 (measured) — absolute speedup, memory-intensive\n");
    std::printf("%-11s %-6s %-9s %-9s %-9s %-9s\n", "benchmark", "cpus",
                "Ts(s)", "Tn(s)", "speedup", "rollbacks");
    double worst_best = 1e9;  // the worst per-workload best speedup
    for (BenchWorkload& w : ws) {
      workloads::SeqRun seq = w.seq();
      // Over the N>1 rows only: the N=1 row is the sequential run itself,
      // so seeding `best` with its 1.00 would hide any workload below 1x.
      double best = 0.0;
      for (int n : args.measured_cpus) {
        if (n == 1) {
          std::printf("%-11s %-6d %-9.3f %-9.3f %-9.2f %-9d\n",
                      w.name.c_str(), 1, seq.seconds, seq.seconds, 1.0, 0);
          continue;
        }
        workloads::SpecRun r = w.spec(n, ForkModel::kMixed, 0.0);
        check_checksum(w, r.checksum, seq.checksum);
        double speedup = seq.seconds / r.seconds;
        if (speedup > best) best = speedup;
        std::printf("%-11s %-6d %-9.3f %-9.3f %-9.2f %-9llu\n",
                    w.name.c_str(), n, seq.seconds, r.seconds, speedup,
                    static_cast<unsigned long long>(
                        r.stats.speculative.rollbacks));
      }
      if (best < worst_best) worst_best = best;
    }
    // The memory-intensive group saturates low (paper maxima 2.01–6.55),
    // so the floor only rules out a pathological slowdown: speculation
    // plus rollbacks must not cost more than ~30% over sequential at the
    // workload's best CPU count. Meaningless under 4 hardware threads —
    // report skipped there rather than asserting into the noise.
    unsigned hw = std::thread::hardware_concurrency();
    if (hw < 4) {
      std::printf("SPEEDUP-GATE fig=4 status=skipped hw_threads=%u\n", hw);
    } else if (worst_best >= 0.70) {
      std::printf("SPEEDUP-GATE fig=4 status=ok worst_best=%.2f\n",
                  worst_best);
    } else {
      std::printf("SPEEDUP-GATE fig=4 status=fail worst_best=%.2f floor=0.70\n",
                  worst_best);
      gate_failed = true;
    }
  }

  if (args.sim) {
    std::printf("\nFIG 4 (simulated, paper scale) — absolute speedup\n");
    std::printf("%-11s", "benchmark");
    for (int n : args.sim_cpus) std::printf(" %7d", n);
    std::printf("\n");
    for (BenchWorkload& w : ws) {
      std::printf("%-11s", w.name.c_str());
      for (int n : args.sim_cpus) {
        sim::SimModel m = w.sim_model();
        sim::SimResult r =
            sim::Simulator(sim_opts(n, ForkModel::kMixed)).run(m);
        std::printf(" %7.2f", r.speedup());
      }
      std::printf("\n");
    }
    std::printf(
        "paper maxima: fft 3.72, matmult 2.01, nqueen 5.40, tsp 4.86, "
        "bh 6.55\n");
  }
  return gate_failed ? 1 : 0;
}
