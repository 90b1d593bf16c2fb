// Figure 8 — critical path breakdown (work / join / idle / fork / find CPU)
// for fft and md.
//
// Paper shape: almost all critical-path overhead is idle time spent
// synchronizing with speculative threads (waiting for them to validate and
// commit); join/fork/find-CPU are thin slivers.
#include "bench/common.h"

namespace {

void print_breakdown_header(const std::vector<int>& cpus) {
  std::printf("%-11s %-6s %7s %7s %7s %7s %7s\n", "benchmark", "cpus",
              "work%", "join%", "idle%", "fork%", "findcpu%");
  (void)cpus;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mutls;
  using namespace mutls::bench;
  HarnessArgs args = parse_args(argc, argv);
  auto ws = filter(make_workloads(args), {"fft", "md"});

  if (args.measured) {
    std::printf("FIG 8 (measured) — critical path breakdown\n");
    print_breakdown_header(args.measured_cpus);
    for (BenchWorkload& w : ws) {
      const uint64_t want = w.seq().checksum;
      for (int n : args.measured_cpus) {
        if (n == 1) continue;
        workloads::SpecRun r = w.spec(n, ForkModel::kMixed, 0.0);
        check_checksum(w, r.checksum, want);
        const TimeLedger& l = r.stats.critical.ledger;
        double tot = static_cast<double>(r.stats.critical.runtime_ns);
        auto pct = [&](TimeCat c) {
          return 100.0 * static_cast<double>(l.get(c)) / tot;
        };
        // The fork column folds arming and the worker handoff together
        // (the paper does not split them; the ledger does).
        std::printf("%-11s %-6d %7.1f %7.1f %7.1f %7.1f %7.1f\n",
                    w.name.c_str(), n, pct(TimeCat::kWork), pct(TimeCat::kJoin),
                    pct(TimeCat::kIdle),
                    pct(TimeCat::kFork) + pct(TimeCat::kForkHandoff),
                    pct(TimeCat::kFindCpu));
      }
    }
  }

  if (args.sim) {
    std::printf("\nFIG 8 (simulated, paper scale) — critical path breakdown\n");
    print_breakdown_header(args.sim_cpus);
    for (BenchWorkload& w : ws) {
      for (int n : args.sim_cpus) {
        sim::SimModel m = w.sim_model();
        sim::SimResult r =
            sim::Simulator(sim_opts(n, ForkModel::kMixed)).run(m);
        double tot = r.critical_time;
        std::printf("%-11s %-6d %7.1f %7.1f %7.1f %7.1f %7.1f\n",
                    w.name.c_str(), n, 100 * r.critical.work / tot,
                    100 * r.critical.join / tot, 100 * r.critical.idle / tot,
                    100 * r.critical.fork / tot,
                    100 * r.critical.find_cpu / tot);
      }
    }
    std::printf("paper: overhead is almost entirely idle time.\n");
  }
  return 0;
}
