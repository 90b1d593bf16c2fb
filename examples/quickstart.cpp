// Quickstart: parallelize a loop with MUTLS speculation in ~20 lines.
//
// Mirrors the paper's Figure 1 usage: mark a fork point, let speculative
// threads run ahead, and let the runtime validate and commit (or quietly
// re-execute). With the v2 embedding the whole pattern is one
// par::reduce call — the chunking, forking, joining and partial-sum
// plumbing live in the library.
//
// Build & run:  ./examples/quickstart
#include <cstdio>

#include "mutls/mutls.h"

int main() {
  using namespace mutls;

  // A runtime with 4 virtual CPUs for speculative threads.
  Runtime rt({.num_cpus = 4});

  constexpr int64_t kN = 1'000'000;
  uint64_t total = 0;

  RunStats stats = rt.run([&](Ctx& ctx) {
    // Parallel reduction over 1..kN: the range is split into chunks, the
    // calling thread runs the first ones while speculative threads run the
    // rest, and the caller joins (validates + commits) them in order — the
    // paper's loop speculation, as a one-liner. The map is generic in its
    // context: the speculative threads run it with a Ctx, the caller with
    // a NativeCtx that has no speculative path.
    total = par::reduce(rt, ctx, 1, kN + 1,
                        {.chunks = 8, .checkpoint_every = 0x10000},
                        uint64_t{0}, [](auto&, int64_t i) {
                          // Collatz trajectory length of i: pure computation.
                          uint64_t x = static_cast<uint64_t>(i), steps = 0;
                          while (x != 1) {
                            x = (x & 1) ? 3 * x + 1 : x / 2;
                            ++steps;
                          }
                          return steps;
                        });
  });

  std::printf("total 3x+1 steps for 1..%lld: %llu\n",
              static_cast<long long>(kN),
              static_cast<unsigned long long>(total));
  std::printf("speculative threads used: %llu, commits: %llu, rollbacks: %llu\n",
              static_cast<unsigned long long>(stats.speculative_threads),
              static_cast<unsigned long long>(stats.speculative.commits),
              static_cast<unsigned long long>(stats.speculative.rollbacks));
  std::printf("critical path efficiency: %.2f\n",
              stats.critical_efficiency());
  return 0;
}
