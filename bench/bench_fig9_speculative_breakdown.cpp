// Figure 9 — speculative path breakdown (wasted work / finalize / commit /
// validation / overflow / idle / fork / find CPU) for fft and matmult.
//
// Paper shape: for fft, validation+commit+finalize ~17% at few cores and
// shrinking, while idle grows to ~59% at 64 cores; matmult is the only
// benchmark with rollbacks (from 3 cores, peaking ~23% wasted work at 7),
// yet idle still dominates.
#include "bench/common.h"

namespace {

void header() {
  std::printf("%-11s %-6s %8s %8s %8s %8s %8s %8s %8s\n", "benchmark",
              "cpus", "work%", "wasted%", "valid%", "commit%", "final%",
              "idle%", "fork%");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mutls;
  using namespace mutls::bench;
  HarnessArgs args = parse_args(argc, argv);
  auto ws = filter(make_workloads(args), {"fft", "matmult"});

  if (args.measured) {
    std::printf("FIG 9 (measured) — speculative path breakdown\n");
    header();
    for (BenchWorkload& w : ws) {
      const uint64_t want = w.seq().checksum;
      for (int n : args.measured_cpus) {
        if (n == 1) continue;
        workloads::SpecRun r = w.spec(n, ForkModel::kMixed, 0.0);
        check_checksum(w, r.checksum, want);
        const TimeLedger& l = r.stats.speculative.ledger;
        double tot = static_cast<double>(r.stats.speculative.runtime_ns);
        if (tot <= 0) continue;
        auto pct = [&](TimeCat c) {
          return 100.0 * static_cast<double>(l.get(c)) / tot;
        };
        std::printf(
            "%-11s %-6d %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f\n",
            w.name.c_str(), n, pct(TimeCat::kWork), pct(TimeCat::kWastedWork),
            pct(TimeCat::kValidation), pct(TimeCat::kCommit),
            pct(TimeCat::kFinalize), pct(TimeCat::kIdle),
            pct(TimeCat::kFork) + pct(TimeCat::kForkHandoff) +
                pct(TimeCat::kFindCpu));
      }
    }
  }

  if (args.sim) {
    std::printf(
        "\nFIG 9 (simulated, paper scale) — speculative path breakdown\n");
    header();
    for (BenchWorkload& w : ws) {
      for (int n : args.sim_cpus) {
        sim::SimModel m = w.sim_model();
        sim::SimResult r =
            sim::Simulator(sim_opts(n, ForkModel::kMixed)).run(m);
        double tot = r.spec_runtime_sum;
        if (tot <= 0) continue;
        const sim::SimBreakdown& b = r.speculative;
        std::printf(
            "%-11s %-6d %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f\n",
            w.name.c_str(), n, 100 * b.work / tot, 100 * b.wasted / tot,
            100 * b.validation / tot, 100 * b.commit / tot,
            100 * b.finalize / tot, 100 * b.idle / tot,
            100 * (b.fork + b.find_cpu) / tot);
      }
    }
    std::printf(
        "paper: fft idle grows to ~59%% at 64 cores; matmult is the only "
        "benchmark with rollbacks (peak ~23%%).\n");
  }
  return 0;
}
