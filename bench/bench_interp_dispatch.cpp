// Dispatch-tier microbench: the two IR kernels of bench/ir_kernels.h swept
// over {dispatch mode x buffer backend}. Each cell runs the kernel under a
// fresh interpreter, validates the result against the kernel's closed-form
// expectation (a wrong answer exits nonzero — this binary doubles as the
// Release-job smoke check), and reports best-of-N wall time normalized per
// interpreted instruction.
//
// Machine-readable output: one `RECORD section=cells ...` line per cell,
// carrying every ThreadStats counter of its best run, and one
// `RECORD section=region_heat ...` line per loop region of that run;
// scripts/bench_json.py files them in BENCH_results.json and fails loudly
// when a mode or backend is missing.
//
// Flags:
//   --quick    CI smoke sizes (~100x smaller)
//   --reps N   timed repetitions per cell, best-of (default 5)
//   --cpus N   virtual CPUs per interpreter (default 2)
#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "bench/common.h"
#include "bench/ir_kernels.h"
#include "exec/profile.h"
#include "interp/interp.h"
#include "support/timing.h"

namespace {

using namespace mutls;
using interp::Interpreter;
namespace ir_kernels = bench::ir_kernels;

struct Args {
  uint64_t n_fib = 2'000'000;
  uint64_t n_fill = 100'000;  // capped by @fill_cells (4096 cells) per pass
  int reps = 5;
  int cpus = 2;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--quick")) {
      a.n_fib = 20'000;
      a.n_fill = 2'000;
      a.reps = 3;
    } else if (!std::strcmp(argv[i], "--reps") && i + 1 < argc) {
      a.reps = std::atoi(argv[++i]);
    } else if (!std::strcmp(argv[i], "--cpus") && i + 1 < argc) {
      a.cpus = std::atoi(argv[++i]);
    }
  }
  return a;
}

struct Kernel {
  const char* name;
  const char* ir;
  const char* fn;
  uint64_t n;
  uint64_t expected;
  uint64_t instrs;  // interpreted instruction count of one call
};

struct CellOut {
  uint64_t wall_ns = 0;
  RunStats stats;
  std::vector<exec::RegionHeat> heat;
};

// One timed call under a fresh interpreter (fresh manager, cold stats).
// Returns false when the kernel produced a wrong result.
bool run_cell(const Kernel& k, exec::DispatchMode mode, BufferBackend backend,
              const Args& args, CellOut* out) {
  ManagerConfig o;
  o.num_cpus = args.cpus;
  o.buffer_log2 = 14;
  o.buffer_backend = backend;
  Interpreter it(ir::parse_module(k.ir), o, mode);
  Stopwatch sw;
  uint64_t got = it.call(k.fn, {k.n});
  uint64_t ns = sw.elapsed_ns();
  if (got != k.expected) {
    std::fprintf(stderr,
                 "FAIL %s mode=%s backend=%s: got %" PRIu64
                 ", expected %" PRIu64 "\n",
                 k.name, exec::dispatch_mode_name(mode),
                 buffer_backend_name(backend), got, k.expected);
    return false;
  }
  out->wall_ns = ns;
  out->stats = it.collect_stats();
  out->heat = it.region_heat();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse(argc, argv);

  std::vector<Kernel> kernels = {
      {"fib", ir_kernels::fib_ir(), "fib", args.n_fib,
       ir_kernels::fib_expected(args.n_fib),
       ir_kernels::fib_instrs(args.n_fib)},
      {"fill", ir_kernels::fill_ir(), "fill", args.n_fill,
       ir_kernels::fill_expected(args.n_fill),
       ir_kernels::fill_instrs(args.n_fill)},
  };
  // @fill_cells has 4096 elements; keep n inside it.
  kernels[1].n = std::min<uint64_t>(kernels[1].n, 4096);
  kernels[1].expected = ir_kernels::fill_expected(kernels[1].n);
  kernels[1].instrs = ir_kernels::fill_instrs(kernels[1].n);

  const exec::DispatchMode kModes[] = {exec::DispatchMode::kSwitch,
                                       exec::DispatchMode::kDirectThreaded};
  const BufferBackend kBackends[] = {BufferBackend::kStaticHash,
                                     BufferBackend::kGrowableLog};

  bool ok = true;
  for (const Kernel& k : kernels) {
    for (exec::DispatchMode mode : kModes) {
      for (BufferBackend backend : kBackends) {
        CellOut best;
        for (int r = 0; r < args.reps; ++r) {
          CellOut cur;
          if (!run_cell(k, mode, backend, args, &cur)) {
            ok = false;
            continue;
          }
          if (best.wall_ns == 0 || cur.wall_ns < best.wall_ns) best = cur;
        }
        if (best.wall_ns == 0) {
          ok = false;
          continue;
        }
        bench::Record("cells")
            .kv("kernel", k.name)
            .kv("mode", exec::dispatch_mode_name(mode))
            .kv("backend", buffer_backend_name(backend))
            .kv("wall_ns", best.wall_ns)
            .kv("iters", k.n)
            .kv("instrs", k.instrs)
            .kv("ns_per_instr", static_cast<double>(best.wall_ns) /
                                    static_cast<double>(k.instrs))
            .counters(best.stats.total());
        for (const exec::RegionHeat& h : best.heat) {
          const std::string region = h.function + ":" + h.header;
          bench::Record("region_heat")
              .kv("kernel", k.name)
              .kv("mode", exec::dispatch_mode_name(mode))
              .kv("backend", buffer_backend_name(backend))
              .kv("region", region.c_str())
              .kv("count", h.count);
        }
      }
    }
  }
  if (!ok) {
    std::fprintf(stderr, "bench_interp_dispatch: FAILED\n");
    return 1;
  }
  return 0;
}
