// Table II — benchmark suite characterization.
//
// Prints the paper's Table II columns plus the measured memory access
// density rho = Nrw / T (the paper's definition of compute- vs
// memory-intensity: accesses per second of runtime, not total footprint).
// Only speculative threads count their accesses (the non-speculative
// thread runs uncounted, natively), so rho is measured on them: their
// loads and stores over the time they spent running their regions
// (RunStats::access_density).
//
// Exits nonzero when a workload's speculative checksum differs from its
// sequential one, or when a workload reports no rho (no speculation ran).
#include "bench/common.h"

int main(int argc, char** argv) {
  using namespace mutls;
  using namespace mutls::bench;
  HarnessArgs args = parse_args(argc, argv);

  std::printf("TABLE II. BENCHMARKS\n");
  std::printf("%-11s %-38s %-20s %-10s %-13s %s\n", "Benchmark", "Data",
              "Pattern", "Class", "rho (Macc/s)", "checksum-ok");

  int failures = 0;
  for (BenchWorkload& w : make_workloads(args)) {
    workloads::SeqRun seq = w.seq();
    workloads::SpecRun spec = w.spec(2, ForkModel::kMixed, 0.0);
    double rho = spec.stats.access_density() / 1e6;
    bool match = spec.checksum == seq.checksum;
    std::printf("%-11s %-38s %-20s %-10s %-13.2f %s\n", w.name.c_str(),
                w.data_desc, w.pattern,
                w.compute_intensive ? "compute" : "memory", rho,
                match ? "yes" : "NO");
    if (!match) {
      std::fprintf(stderr, "%s: speculative checksum differs from the "
                   "sequential one\n", w.name.c_str());
      ++failures;
    }
    if (!(rho > 0.0)) {
      std::fprintf(stderr, "%s: no access density (no speculation ran)\n",
                   w.name.c_str());
      ++failures;
    }
  }
  std::printf(
      "\nNote: the paper classifies by access density rho, not footprint;\n"
      "compute-intensive rows should show orders of magnitude lower rho.\n");
  return failures == 0 ? 0 : 1;
}
