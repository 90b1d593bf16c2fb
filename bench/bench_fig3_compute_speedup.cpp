// Figure 3 — absolute speedup of the computation-intensive applications
// (3x+1, mandelbrot, md) versus CPU count.
//
// Paper reference points (64 cores): 3x+1 51.8, mandelbrot 33.6, md 31.9
// for C. Expected shape: near-linear growth, a plateau from 32 to 63 CPUs
// (64 chunks, so at least two run back-to-back) and a jump at 64.
#include <thread>

#include "bench/common.h"

int main(int argc, char** argv) {
  using namespace mutls;
  using namespace mutls::bench;
  HarnessArgs args = parse_args(argc, argv);
  auto ws = filter(make_workloads(args), {"3x+1", "mandelbrot", "md"});

  bool gate_failed = false;
  if (args.measured) {
    std::printf("FIG 3 (measured) — absolute speedup, compute-intensive\n");
    std::printf("%-11s %-6s %-9s %-9s %-9s\n", "benchmark", "cpus", "Ts(s)",
                "Tn(s)", "speedup");
    double worst_best = 1e9;  // the worst per-workload best speedup
    for (BenchWorkload& w : ws) {
      workloads::SeqRun seq = w.seq();
      // Over the N>1 rows only: the N=1 row is the sequential run itself,
      // so seeding `best` with its 1.00 would hide any workload below 1x.
      double best = 0.0;
      for (int n : args.measured_cpus) {
        if (n == 1) {
          std::printf("%-11s %-6d %-9.3f %-9.3f %-9.2f\n", w.name.c_str(), 1,
                      seq.seconds, seq.seconds, 1.0);
          continue;
        }
        workloads::SpecRun r = w.spec(n, ForkModel::kMixed, 0.0);
        check_checksum(w, r.checksum, seq.checksum);
        double speedup = seq.seconds / r.seconds;
        if (speedup > best) best = speedup;
        std::printf("%-11s %-6d %-9.3f %-9.3f %-9.2f\n", w.name.c_str(), n,
                    seq.seconds, r.seconds, speedup);
      }
      if (best < worst_best) worst_best = best;
    }
    // The compute-intensive group is the paper's headline: on a real
    // multi-core box every workload must beat sequential at its best CPU
    // count. A box with fewer than 4 hardware threads can't run enough
    // truly parallel speculative threads for the assertion to be
    // meaningful, so it reports skipped instead of a vacuous failure.
    unsigned hw = std::thread::hardware_concurrency();
    Record gate("speedup_gate");
    gate.kv("fig", 3);
    if (hw < 4) {
      gate.kv("status", "skipped").kv("hw_threads", hw);
    } else if (worst_best >= 1.05) {
      gate.kv("status", "ok").kv("worst_best", worst_best);
    } else {
      gate.kv("status", "fail").kv("worst_best", worst_best).kv("floor", 1.05);
      gate_failed = true;
    }
  }

  if (args.sim) {
    std::printf("\nFIG 3 (simulated, paper scale) — absolute speedup\n");
    std::printf("%-11s", "benchmark");
    for (int n : args.sim_cpus) std::printf(" %7d", n);
    std::printf("\n");
    for (BenchWorkload& w : ws) {
      std::printf("%-11s", w.name.c_str());
      for (int n : args.sim_cpus) {
        sim::SimModel m = w.sim_model();
        sim::SimResult r = sim::Simulator(sim_opts(n, ForkModel::kMixed)).run(m);
        std::printf(" %7.2f", r.speedup());
      }
      std::printf("\n");
    }
    std::printf("paper@64: 3x+1 51.8, mandelbrot 33.6, md 31.9 (C)\n");
  }
  return gate_failed ? 1 : 0;
}
