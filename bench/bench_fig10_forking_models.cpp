// Figure 10 — comparison of forking models on the tree-form recursion
// benchmarks (fft, matmult, nqueen, tsp): in-order and out-of-order
// speedups normalized to the mixed model.
//
// Paper shape: above ~8 cores, mixed beats both simple models on almost
// every benchmark (the occasional in-order exception at mid core counts);
// out-of-order is capped near 1-2 threads of parallelism.
//
// The measured runs compare the models' fork protocols, so every fork must
// be attempted: they run with adaptive forks off.
#include "bench/common.h"

int main(int argc, char** argv) {
  using namespace mutls;
  using namespace mutls::bench;
  HarnessArgs args = parse_args(argc, argv);
  args.adaptive_forks = false;
  auto ws = filter(make_workloads(args), {"fft", "matmult", "nqueen", "tsp"});

  if (args.measured) {
    std::printf(
        "FIG 10 (measured) — in-order / out-of-order speedup normalized to "
        "mixed\n");
    std::printf("%-11s %-6s %10s %10s %10s %10s\n", "benchmark", "cpus",
                "mixed", "inorder", "ooo", "(norm in/ooo)");
    for (BenchWorkload& w : ws) {
      workloads::SeqRun seq = w.seq();
      for (int n : args.measured_cpus) {
        if (n == 1) continue;
        workloads::SpecRun mixed = w.spec(n, ForkModel::kMixed, 0.0);
        workloads::SpecRun in_o = w.spec(n, ForkModel::kInOrder, 0.0);
        workloads::SpecRun ooo = w.spec(n, ForkModel::kOutOfOrder, 0.0);
        for (const workloads::SpecRun* r : {&mixed, &in_o, &ooo}) {
          check_checksum(w, r->checksum, seq.checksum);
        }
        double sm = seq.seconds / mixed.seconds;
        double si = seq.seconds / in_o.seconds;
        double so = seq.seconds / ooo.seconds;
        std::printf("%-11s %-6d %10.2f %10.2f %10.2f   %.2f/%.2f\n",
                    w.name.c_str(), n, sm, si, so, si / sm, so / sm);
      }
    }
  }

  if (args.sim) {
    std::printf(
        "\nFIG 10 (simulated, paper scale) — normalized speedup vs mixed\n");
    std::printf("%-11s %-8s", "benchmark", "model");
    for (int n : args.sim_cpus) std::printf(" %6d", n);
    std::printf("\n");
    for (BenchWorkload& w : ws) {
      std::vector<double> mixed;
      for (int n : args.sim_cpus) {
        sim::SimModel m = w.sim_model();
        mixed.push_back(
            sim::Simulator(sim_opts(n, ForkModel::kMixed)).run(m).speedup());
      }
      for (ForkModel fm : {ForkModel::kInOrder, ForkModel::kOutOfOrder}) {
        std::printf("%-11s %-8s", w.name.c_str(),
                    fm == ForkModel::kInOrder ? "inorder" : "ooo");
        for (size_t i = 0; i < args.sim_cpus.size(); ++i) {
          sim::SimModel m = w.sim_model();
          double s =
              sim::Simulator(sim_opts(args.sim_cpus[i], fm)).run(m).speedup();
          std::printf(" %6.2f", s / mixed[i]);
        }
        std::printf("\n");
      }
    }
    std::printf("paper: mixed wins on tree recursion beyond ~8 cores.\n");
  }
  return 0;
}
