// Sustained-load serving bench: pushes generated HTTP request batches
// through the serving pipeline (parse -> route/lookup -> index update) for
// a fixed duration per cell, swept over {buffer backend x key skew x batch
// size}. Each cell reports request throughput, fork-to-settle latency
// percentiles (p50/p99/p999 from the HDR-style histogram), the doom/
// rollback rate, and the per-backend buffer counters. The measured window
// starts after a warm-up phase and must run allocation-free: alloc_events
// is reported per cell and a nonzero value fails the run. The fork/join
// floor measures the protocol, so the runtimes run with adaptive forks off:
// every batch forks its pieces. A cell that still settles too few forks to
// reach its share of the floor fails once its window reaches
// kWindowCap x its duration, instead of running forever.
//
// Machine-readable output: one `RECORD section=cells ...` line per cell,
// carrying every ThreadStats counter of its measured window, and a final
// `RECORD section=total ...` line; scripts/bench_json.py files them in
// BENCH_results.json and checks the cell matrix.
//
// Flags:
//   --quick            CI smoke: ~0.1s cells, no fork/join floor
//   --duration-s X     measured seconds per cell (default 1.25)
//   --min-forks N      total fork/join floor across cells (default 1.05M);
//                      cells keep running past their duration until their
//                      share of the floor is met, for at most kWindowCap
//                      times their duration
//   --cpus N           virtual CPUs per runtime (default 4)
//   --predict          enable value prediction (default off); the hot-key
//                      zipf cells are where conflicts — and therefore
//                      saved_rollbacks — live
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "api/parallel.h"
#include "api/spec.h"
#include "bench/common.h"
#include "serving/cache_index.h"
#include "serving/request_gen.h"
#include "serving/serve_batch.h"
#include "support/latency_histogram.h"
#include "support/timing.h"

namespace {

using namespace mutls;
using namespace mutls::serving;

struct Args {
  double duration_s = 1.25;
  uint64_t min_forks = 1'050'000;
  int cpus = 4;
  bool predict = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--quick")) {
      a.duration_s = 0.1;
      a.min_forks = 0;
    } else if (!std::strcmp(argv[i], "--predict")) {
      a.predict = true;
    } else if (!std::strcmp(argv[i], "--duration-s") && i + 1 < argc) {
      a.duration_s = std::atof(argv[++i]);
    } else if (!std::strcmp(argv[i], "--min-forks") && i + 1 < argc) {
      a.min_forks = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "--cpus") && i + 1 < argc) {
      a.cpus = std::atoi(argv[++i]);
    }
  }
  return a;
}

struct Cell {
  BufferBackend backend;
  double zipf_s;  // 0 = uniform
  int batch;
};

struct CellResult {
  bool capped = false;  // the window ended at its cap, short of the floor
  double duration_s = 0;
  uint64_t requests = 0;
  uint64_t forks = 0;
  RunStats stats;
  BatchCounters counters;
  LatencyHistogram latency;
};

constexpr int kChunks = 16;
// A measured window ends at this multiple of its duration even when its
// share of the fork/join floor is not met (the cell then fails). At default
// sizes on a 4-vCPU host the slowest cell reached its share in 14 s, about
// 11x its 1.25 s duration.
constexpr double kWindowCap = 60.0;

CellResult run_cell(const Cell& cell, const Args& args,
                    uint64_t min_forks_per_cell) {
  Runtime::Options o;
  o.num_cpus = args.cpus;
  o.buffer_log2 = 14;
  o.buffer_backend = cell.backend;
  o.predict_enabled = args.predict;
  o.adaptive_forks = false;
  Runtime rt(o);

  CacheIndex index(rt, /*capacity_log2=*/10);
  Server server(rt, index, static_cast<size_t>(cell.batch));

  TrafficConfig cfg;
  cfg.num_keys = 4096;
  cfg.zipf_s = cell.zipf_s;
  cfg.put_ratio = 0.125;
  cfg.malformed_ratio = 0.02;
  cfg.seed = 1;
  RequestGen gen(cfg);
  RequestBatch batch(static_cast<size_t>(cell.batch));

  CellResult r;
  uint64_t fork_ns_scratch[kChunks];
  ServeOpts opts;
  opts.chunks = kChunks;
  opts.fork_latency = &r.latency;
  opts.fork_ns_scratch = fork_ns_scratch;

  // Warm-up, in two phases, so the measured window owns a clean and
  // *honest* zero-allocation ledger:
  //
  // 1. PUT storm: all-PUT traffic over a key range far larger than the
  //    index, so every request takes the insert/evict path — the maximal
  //    per-request footprint — with no conflicts to cut the adoption
  //    chains short. This drives each slot's buffer, merge scratch and
  //    arena to the workload's footprint ceiling deterministically,
  //    instead of hoping the measured traffic's tail finds it early.
  // 2. Quiescence loop: real traffic in short windows until one full
  //    window completes with zero arena heap fallbacks (capped; a cell
  //    that never settles would then fail the measured gate loudly).
  uint64_t epoch = 0;
  {
    TrafficConfig storm = cfg;
    storm.zipf_s = 0.0;
    storm.put_ratio = 1.0;
    storm.malformed_ratio = 0.0;
    storm.num_keys = 1u << 20;
    storm.seed = 2;
    RequestGen storm_gen(storm);
    rt.run([&](Ctx& ctx) {
      for (int b = 0; b < 12; ++b) {
        storm_gen.fill(batch);
        server.serve_batch(ctx, batch, epoch++, opts);
      }
    });
    rt.manager().reset_stats();
  }
  for (int window = 0; window < 16; ++window) {
    const uint64_t warm_deadline = now_ns() + 150'000'000ull;
    RunStats ws = rt.run([&](Ctx& ctx) {
      for (int b = 0; b < 8 || now_ns() < warm_deadline; ++b) {
        gen.fill(batch);
        server.serve_batch(ctx, batch, epoch++, opts);
        if (b >= 1'000'000) break;  // paranoia bound, never reached
      }
    });
    uint64_t warm_allocs = ws.speculative.buffer.alloc_events +
                           ws.critical.buffer.alloc_events;
    rt.manager().reset_stats();
    if (warm_allocs == 0) break;
  }
  r.latency.clear();

  // Measured window: duration-based, extended until this cell's share of
  // the fork/join floor is met (the floor is what makes the committed
  // BENCH_results.json a meaningful steady-state sample), up to its cap.
  const uint64_t start = now_ns();
  const uint64_t deadline =
      start + static_cast<uint64_t>(args.duration_s * 1e9);
  const uint64_t cap =
      start + static_cast<uint64_t>(args.duration_s * kWindowCap * 1e9);
  uint64_t batches = 0;
  r.stats = rt.run([&](Ctx& ctx) {
    for (;;) {
      const uint64_t now = now_ns();
      if (now >= deadline && r.latency.count() >= min_forks_per_cell) break;
      if (now >= cap) {
        r.capped = true;
        break;
      }
      gen.fill(batch);
      r.counters += server.serve_batch(ctx, batch, epoch++, opts);
      ++batches;
    }
  });
  r.duration_s = static_cast<double>(now_ns() - start) / 1e9;
  r.requests = batches * static_cast<uint64_t>(cell.batch);
  r.forks = r.stats.critical.forks + r.stats.speculative.forks;
  return r;
}

double doom_rate(const RunStats& s) {
  uint64_t settles = s.speculative.commits + s.speculative.rollbacks;
  return settles ? static_cast<double>(s.speculative.rollbacks) /
                       static_cast<double>(settles)
                 : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = parse(argc, argv);
  unsigned hw = std::max(2u, std::thread::hardware_concurrency());
  if (args.cpus > static_cast<int>(hw)) args.cpus = static_cast<int>(hw);

  const BufferBackend backends[] = {BufferBackend::kStaticHash,
                                    BufferBackend::kGrowableLog};
  const double skews[] = {0.0, 1.1};
  const int batch_sizes[] = {128, 512};
  const uint64_t cells =
      sizeof(backends) / sizeof(backends[0]) * 2 * 2;
  const uint64_t min_forks_per_cell =
      args.min_forks ? (args.min_forks + cells - 1) / cells : 0;

  std::printf(
      "Sustained load — serving pipeline, %d cpus, %.2fs/cell "
      "(floor %llu fork/joins per cell)\n",
      args.cpus, args.duration_s,
      static_cast<unsigned long long>(min_forks_per_cell));
  std::printf("%-13s %-9s %5s %9s %10s %8s %8s %8s %7s %6s\n", "backend",
              "skew", "batch", "req/s", "forks", "p50us", "p99us", "p999us",
              "doom%", "alloc");

  uint64_t total_forks = 0;
  double total_duration = 0.0;
  ThreadStats all_cells;
  for (BufferBackend backend : backends) {
    for (double s : skews) {
      for (int batch : batch_sizes) {
        Cell cell{backend, s, batch};
        CellResult r = run_cell(cell, args, min_forks_per_cell);
        const char* skew_name = s > 0.0 ? "zipf-1.1" : "uniform";
        double req_per_s =
            r.duration_s > 0 ? static_cast<double>(r.requests) / r.duration_s
                             : 0.0;
        const ThreadStats totals = r.stats.total();
        const uint64_t allocs = totals.buffer.alloc_events;
        std::printf(
            "%-13s %-9s %5d %9.0f %10llu %8.1f %8.1f %8.1f %6.2f%% %6llu\n",
            buffer_backend_name(backend), skew_name, batch, req_per_s,
            static_cast<unsigned long long>(r.forks),
            static_cast<double>(r.latency.percentile(0.5)) / 1e3,
            static_cast<double>(r.latency.percentile(0.99)) / 1e3,
            static_cast<double>(r.latency.percentile(0.999)) / 1e3,
            doom_rate(r.stats) * 100.0,
            static_cast<unsigned long long>(allocs));
        bench::Record("cells")
            .kv("backend", buffer_backend_name(backend))
            .kv("skew", skew_name)
            .kv("batch", batch)
            .kv("predict", args.predict ? "on" : "off")
            .kv("duration_s", r.duration_s)
            .kv("requests", r.requests)
            .kv("req_per_s", req_per_s)
            .kv("fork_joins", r.forks)
            .kv("p50_ns", r.latency.percentile(0.5))
            .kv("p99_ns", r.latency.percentile(0.99))
            .kv("p999_ns", r.latency.percentile(0.999))
            .kv("doom_rate", doom_rate(r.stats))
            .kv("malformed", r.counters.malformed)
            .kv("get_hits", r.counters.get_hits)
            .kv("get_misses", r.counters.get_misses)
            .kv("puts", r.counters.puts)
            .kv("evictions", r.counters.evictions)
            .counters(totals);
        if (r.capped) {
          std::fprintf(stderr,
                       "FAIL: %s %s batch %d settled %llu fork/joins in "
                       "%.1f s, short of its floor share %llu\n",
                       buffer_backend_name(backend), skew_name, batch,
                       static_cast<unsigned long long>(r.latency.count()),
                       r.duration_s,
                       static_cast<unsigned long long>(min_forks_per_cell));
          return 1;
        }
        total_forks += r.forks;
        total_duration += r.duration_s;
        all_cells += totals;
      }
    }
  }

  bench::Record("total")
      .kv("fork_joins", total_forks)
      .kv("duration_s", total_duration)
      .counters(all_cells);
  if (args.min_forks && total_forks < args.min_forks) {
    std::fprintf(stderr,
                 "FAIL: sustained %llu fork/joins < floor %llu\n",
                 static_cast<unsigned long long>(total_forks),
                 static_cast<unsigned long long>(args.min_forks));
    return 1;
  }
  const uint64_t total_allocs = all_cells.buffer.alloc_events;
  if (total_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu heap allocations after warm-up (steady state "
                 "must be allocation-free)\n",
                 static_cast<unsigned long long>(total_allocs));
    return 1;
  }
  return 0;
}
