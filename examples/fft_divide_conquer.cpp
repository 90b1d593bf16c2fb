// Divide-and-conquer speculation: a recursive FFT whose second recursive
// call is speculated at every node of the top of the recursion tree
// (paper section V-B: "we fork a thread to execute the second recursive
// call and barrier it after the call").
//
// Also demonstrates rollback injection (paper Fig. 11): pass a probability
// to watch the runtime absorb forced rollbacks without changing results.
//
// Run:  ./examples/fft_divide_conquer [rollback_probability]
#include <cstdio>
#include <cstdlib>

#include "mutls/mutls.h"
#include "workloads/fft.h"

int main(int argc, char** argv) {
  using namespace mutls;
  double rollback_p = argc > 1 ? std::atof(argv[1]) : 0.0;

  workloads::Fft::Params p;
  p.log2_n = 16;
  p.fork_levels = 4;

  workloads::SeqRun seq = workloads::Fft::run_seq(p);

  Runtime::Options o;
  o.num_cpus = 4;
  o.buffer_log2 = 18;
  o.rollback_probability = rollback_p;
  // Every fork asks for a CPU, however little it pays: this example drives
  // the rollback, cascade and discard paths.
  o.adaptive_forks = false;
  Runtime rt(o);
  workloads::SpecRun spec = workloads::Fft::run_spec(rt, p, ForkModel::kMixed);

  std::printf("FFT of 2^%d doubles, %d speculated recursion levels\n",
              p.log2_n, p.fork_levels);
  std::printf("injected rollback probability: %.0f%%\n", rollback_p * 100);
  std::printf("results match sequential bit-for-bit: %s\n",
              spec.checksum == seq.checksum ? "yes" : "NO");
  std::printf("sequential: %.3fs   speculative: %.3fs   speedup: %.2f\n",
              seq.seconds, spec.seconds, seq.seconds / spec.seconds);
  std::printf("commits: %llu, rollbacks: %llu\n",
              static_cast<unsigned long long>(spec.stats.speculative.commits),
              static_cast<unsigned long long>(
                  spec.stats.speculative.rollbacks));
  std::printf("speculative path efficiency: %.2f\n",
              spec.stats.speculative_efficiency());
  return 0;
}
