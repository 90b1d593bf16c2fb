// NUMA-aware scaling bench: the per-node idle freelists on the default
// buffer store, swept over faked topology shapes so the same cells run
// (and mean the same thing) on any box, including single-core CI.
//
// Each cell fills the whole virtual-CPU pool every round — four children
// forked back to back, each speculatively bumping its own contiguous
// block, held live until all four ranks are claimed — so same-node-first
// placement runs out of home ranks and the work-stealing fallback is
// exercised deterministically: with the root on node 0, every rank the
// claim loop pulls from another node's freelist counts one
// cross_node_claims.
//
// Machine-readable output: one "NUMA key=value ..." line per cell;
// scripts/bench_json.py parses these into the numa_scaling section of
// BENCH_results.json and enforces the cell invariants (nonzero steals on
// multi-node shapes, nonzero commits, zero steady-state allocations).
//
// Flags:
//   --quick     CI smoke: fewer rounds per cell
#include <cstdio>
#include <cstring>
#include <vector>

#include "api/parallel.h"
#include "api/spec.h"
#include "support/timing.h"

namespace {

using namespace mutls;

constexpr int kCpus = 4;
constexpr size_t kWordsPerChild = 512;  // 4 KiB per child
constexpr int kWarmupRounds = 8;

struct CellResult {
  double wall_s = 0.0;
  uint64_t forks = 0;
  uint64_t cross_node_claims = 0;
  uint64_t commits = 0;
  uint64_t rollbacks = 0;
  uint64_t alloc_events = 0;  // post-warm-up only
};

CellResult run_cell(int nodes, int rounds) {
  Runtime::Options o;
  o.num_cpus = kCpus;
  o.buffer_log2 = 12;
  o.overflow_cap = 4096;
  o.numa_nodes = nodes;
  Runtime rt(o);

  SharedArray<uint64_t> data(rt, kCpus * kWordsPerChild, 0);
  CellResult res;
  RunStats warm;
  RunStats rs = rt.run([&](Ctx& ctx) {
    Stopwatch sw;
    for (int round = 0; round < kWarmupRounds + rounds; ++round) {
      if (round == kWarmupRounds) {
        warm = rt.manager().collect_stats();
        sw = Stopwatch();
      }
      std::atomic<bool> release{false};
      std::vector<Spec> specs;
      specs.reserve(kCpus);
      for (int i = 0; i < kCpus; ++i) {
        specs.push_back(rt.fork(ctx, ForkModel::kMixed, [&, i](Ctx& c) {
          SharedSpan<uint64_t> d = data.span(c);
          size_t lo = static_cast<size_t>(i) * kWordsPerChild;
          for (size_t k = 0; k < kWordsPerChild; ++k) d[lo + k] += 1;
          // Hold the rank until the whole pool is claimed, so the round
          // provably drains the root's home freelist. (A denied fork's
          // body runs inline at join, after release is set: no deadlock.)
          while (!release.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
        }));
      }
      release.store(true, std::memory_order_release);
      // Mixed model: later-speculated is logically earlier; join in
      // reverse fork order.
      for (int i = kCpus - 1; i >= 0; --i) rt.join(ctx, specs[i]);
    }
    res.wall_s = sw.elapsed_sec();
  });

  res.forks = rs.critical.forks + rs.speculative.forks;
  res.cross_node_claims =
      rs.critical.cross_node_claims + rs.speculative.cross_node_claims;
  res.commits = rs.speculative.commits;
  res.rollbacks = rs.speculative.rollbacks;
  uint64_t total_allocs = rs.speculative.buffer.alloc_events +
                          rs.critical.buffer.alloc_events;
  uint64_t warm_allocs = warm.speculative.buffer.alloc_events +
                         warm.critical.buffer.alloc_events;
  res.alloc_events = total_allocs - warm_allocs;
  return res;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--quick")) quick = true;
  }
  const int rounds = quick ? 50 : 400;
  const int node_counts[] = {1, 2, 4};

  const char* backend = buffer_backend_name(Runtime::Options{}.buffer_backend);
  std::printf("NUMA scaling — %s store, %d cpus, %d rounds/cell\n", backend,
              kCpus, rounds);
  std::printf("%-6s %9s %10s %12s %8s %6s\n", "nodes", "wall_s", "forks",
              "cross_node", "commits", "alloc");
  bool ok = true;
  for (int nodes : node_counts) {
    CellResult r = run_cell(nodes, rounds);
    std::printf("%-6d %9.3f %10llu %12llu %8llu %6llu\n", nodes, r.wall_s,
                static_cast<unsigned long long>(r.forks),
                static_cast<unsigned long long>(r.cross_node_claims),
                static_cast<unsigned long long>(r.commits),
                static_cast<unsigned long long>(r.alloc_events));
    std::printf(
        "NUMA nodes=%d cpus=%d backend=%s rounds=%d wall_s=%.3f "
        "forks=%llu cross_node_claims=%llu commits=%llu rollbacks=%llu "
        "alloc_events=%llu\n",
        nodes, kCpus, backend, rounds, r.wall_s,
        static_cast<unsigned long long>(r.forks),
        static_cast<unsigned long long>(r.cross_node_claims),
        static_cast<unsigned long long>(r.commits),
        static_cast<unsigned long long>(r.rollbacks),
        static_cast<unsigned long long>(r.alloc_events));
    // The cell invariants bench_json re-checks; failing them here makes
    // the smoke run fail loudly even without the JSON step.
    if (nodes > 1 && r.cross_node_claims == 0) {
      std::printf("NUMA-FAIL nodes=%d expected work-stealing claims\n",
                  nodes);
      ok = false;
    }
    if (r.commits == 0) {
      std::printf("NUMA-FAIL nodes=%d no speculation committed\n", nodes);
      ok = false;
    }
    if (r.alloc_events != 0) {
      std::printf("NUMA-FAIL nodes=%d steady state allocated\n", nodes);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
