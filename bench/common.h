// Shared harness for the figure/table reproduction benches.
//
// Every bench binary prints the rows/series of one table or figure of the
// paper, in two sections: MEASURED (the native runtime on this machine's
// cores, scaled-down workload sizes) and SIMULATED (the discrete-event
// model at paper scale, up to 64 CPUs, which no ordinary host has; README.md,
// "Measured vs modeled speedup", says how to read the two). "N CPUs" follows
// the paper's convention and counts the non-speculative thread, so a
// measured point at N uses N-1 speculative virtual CPUs.
//
// Flags: --paper   run measured workloads at paper-scale sizes (slow)
//        --quick   shrink measured sizes further (CI smoke)
//        --no-sim  skip the simulated section
//        --no-measured  skip the measured section
//
// Machine-readable results are RECORD lines (see Record below), the one
// format scripts/bench_json.py reads besides the table rows.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "sim/models.h"
#include "sim/sim.h"
#include "workloads/bh.h"
#include "workloads/fft.h"
#include "workloads/http_serving.h"
#include "workloads/mandelbrot.h"
#include "workloads/matmult.h"
#include "workloads/md.h"
#include "workloads/nqueen.h"
#include "workloads/threex.h"
#include "workloads/tsp.h"

namespace mutls::bench {

// One machine-readable result line, `RECORD section=<key> k=v ...`, ended
// when the Record is destroyed, so a temporary one ends with the statement
// that builds it:
//
//   Record("cells").kv("backend", name).kv("wall_ns", ns).counters(stats);
//
// scripts/bench_json.py files each record under <key> in its bench's entry
// of BENCH_results.json and checks it against the script's schema. Keys
// and string values must not contain spaces.
class Record {
 public:
  explicit Record(const char* section) {
    std::printf("RECORD section=%s", section);
  }
  Record(const Record&) = delete;
  Record& operator=(const Record&) = delete;
  ~Record() { std::printf("\n"); }

  template <class T>
  Record& kv(const char* key, const T& value) {
    if constexpr (std::is_floating_point_v<T>) {
      std::printf(" %s=%.9g", key, static_cast<double>(value));
    } else if constexpr (std::is_signed_v<T>) {
      std::printf(" %s=%lld", key, static_cast<long long>(value));
    } else if constexpr (std::is_unsigned_v<T>) {
      std::printf(" %s=%llu", key, static_cast<unsigned long long>(value));
    } else {
      std::printf(" %s=%s", key, static_cast<const char*>(value));
    }
    return *this;
  }

  // Every counter of a counter table's struct (ThreadStats,
  // SpecBufferStats), under its table name.
  template <class Stats>
  Record& counters(const Stats& stats) {
    stats.for_each_counter(
        [this](const char* name, uint64_t value) { kv(name, value); });
    return *this;
  }
};

struct HarnessArgs {
  bool paper = false;
  bool quick = false;
  bool sim = true;
  bool measured = true;
  std::vector<int> measured_cpus;  // total CPUs (incl. non-speculative)
  std::vector<int> sim_cpus = {1, 2, 4, 8, 16, 24, 32, 48, 63, 64};
  // ManagerConfig::adaptive_forks of every measured runtime. A bench that
  // compares the fork protocol itself (fig10) turns it off, so every fork
  // asks for a CPU.
  bool adaptive_forks = true;
};

inline HarnessArgs parse_args(int argc, char** argv) {
  HarnessArgs a;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--paper")) a.paper = true;
    if (!std::strcmp(argv[i], "--quick")) a.quick = true;
    if (!std::strcmp(argv[i], "--no-sim")) a.sim = false;
    if (!std::strcmp(argv[i], "--no-measured")) a.measured = false;
  }
  if (a.measured_cpus.empty()) {
    unsigned hw = std::max(2u, std::thread::hardware_concurrency());
    // Sweep up to 2x the hardware threads (oversubscription is useful to
    // see the trend), capped at 8 for harness runtime.
    for (int n = 1; n <= static_cast<int>(std::min(2 * hw, 8u)); ++n) {
      a.measured_cpus.push_back(n);
    }
  }
  return a;
}

// One Table II workload wired into the harness.
struct BenchWorkload {
  std::string name;
  bool compute_intensive = false;
  const char* pattern = "";
  const char* data_desc = "";
  std::function<workloads::SeqRun()> seq;
  // spec(total_cpus, model, rollback_probability)
  std::function<workloads::SpecRun(int, ForkModel, double)> spec;
  std::function<sim::SimModel()> sim_model;
};

inline Runtime::Options runtime_opts(int total_cpus, int buffer_log2,
                                     double rollback_p, bool adaptive_forks) {
  Runtime::Options o;
  o.num_cpus = std::max(1, total_cpus - 1);
  o.buffer_log2 = buffer_log2;
  o.overflow_cap = 8192;
  o.rollback_probability = rollback_p;
  o.adaptive_forks = adaptive_forks;
  return o;
}

inline std::vector<BenchWorkload> make_workloads(const HarnessArgs& a) {
  using namespace workloads;
  std::vector<BenchWorkload> ws;
  const bool paper = a.paper;
  const bool quick = a.quick;
  const bool adaptive = a.adaptive_forks;

  {
    ThreeX::Params p;
    p.n = paper ? 40'000'000 : (quick ? 200'000 : 2'000'000);
    p.chunks = 64;
    ws.push_back(BenchWorkload{
        "3x+1", true, "loop",
        paper ? "40M integers" : "2M integers (paper: 40M)",
        [p] { return ThreeX::run_seq(p); },
        [p, adaptive](int cpus, ForkModel m, double rb) {
          Runtime rt(runtime_opts(cpus, 12, rb, adaptive));
          return ThreeX::run_spec(rt, p, m);
        },
        [] { return sim::model_threex(); }});
  }
  {
    Mandelbrot::Params p;
    p.width = paper ? 512 : 256;
    p.height = paper ? 512 : 256;
    p.max_iter = paper ? 80'000 : (quick ? 200 : 1'500);
    p.chunks = 64;
    ws.push_back(BenchWorkload{
        "mandelbrot", true, "loop",
        paper ? "512x512, 80000 iter" : "256x256, 1500 iter (paper: 512x512, 80000)",
        [p] { return Mandelbrot::run_seq(p); },
        [p, adaptive](int cpus, ForkModel m, double rb) {
          Runtime rt(runtime_opts(cpus, 18, rb, adaptive));
          return Mandelbrot::run_spec(rt, p, m);
        },
        [] { return sim::model_mandelbrot(); }});
  }
  {
    MolecularDynamics::Params p;
    p.n = paper ? 256 : 96;
    p.steps = paper ? 400 : (quick ? 8 : 40);
    p.chunks = 16;
    ws.push_back(BenchWorkload{
        "md", true, "loop",
        paper ? "256 particles, 400 steps" : "96 particles, 40 steps (paper: 256/400)",
        [p] { return MolecularDynamics::run_seq(p); },
        [p, adaptive](int cpus, ForkModel m, double rb) {
          Runtime rt(runtime_opts(cpus, 14, rb, adaptive));
          return MolecularDynamics::run_spec(rt, p, m);
        },
        [] { return sim::model_md(); }});
  }
  {
    BarnesHut::Params p;
    p.n = paper ? 12'800 : (quick ? 256 : 1024);
    p.steps = paper ? 8 : 3;
    p.chunks = 16;
    ws.push_back(BenchWorkload{
        "bh", false, "loop",
        paper ? "12800 bodies" : "1024 bodies (paper: 12800)",
        [p] { return BarnesHut::run_seq(p); },
        [p, adaptive](int cpus, ForkModel m, double rb) {
          Runtime rt(runtime_opts(cpus, 17, rb, adaptive));
          return BarnesHut::run_spec(rt, p, m);
        },
        [] { return sim::model_bh(); }});
  }
  {
    Fft::Params p;
    p.log2_n = paper ? 20 : (quick ? 12 : 16);
    p.fork_levels = 5;
    ws.push_back(BenchWorkload{
        "fft", false, "divide and conquer",
        paper ? "2^20 doubles" : "2^16 doubles (paper: 2^20)",
        [p] { return Fft::run_seq(p); },
        [p, paper, adaptive](int cpus, ForkModel m, double rb) {
          Runtime rt(runtime_opts(cpus, paper ? 21 : 18, rb, adaptive));
          return Fft::run_spec(rt, p, m);
        },
        [] { return sim::model_fft(); }});
  }
  {
    MatMult::Params p;
    p.n = paper ? 1024 : (quick ? 64 : 128);
    p.leaf = 32;
    p.fork_levels = 2;
    ws.push_back(BenchWorkload{
        "matmult", false, "divide and conquer",
        paper ? "1024x1024 doubles" : "128x128 doubles (paper: 1024x1024)",
        [p] { return MatMult::run_seq(p); },
        [p, paper, adaptive](int cpus, ForkModel m, double rb) {
          Runtime rt(runtime_opts(cpus, paper ? 21 : 17, rb, adaptive));
          return MatMult::run_spec(rt, p, m);
        },
        [] { return sim::model_matmult(); }});
  }
  {
    NQueen::Params p;
    p.n = paper ? 14 : (quick ? 9 : 11);
    p.cutoff = 3;
    ws.push_back(BenchWorkload{
        "nqueen", false, "depth-first search",
        paper ? "14 queens" : "11 queens (paper: 14)",
        [p] { return NQueen::run_seq(p); },
        [p, adaptive](int cpus, ForkModel m, double rb) {
          Runtime rt(runtime_opts(cpus, 12, rb, adaptive));
          return NQueen::run_spec(rt, p, m);
        },
        [] { return sim::model_nqueen(); }});
  }
  {
    Tsp::Params p;
    p.n = paper ? 12 : (quick ? 8 : 10);
    p.cutoff = 3;
    ws.push_back(BenchWorkload{
        "tsp", false, "depth-first search",
        paper ? "12 cities" : "10 cities (paper: 12)",
        [p] { return Tsp::run_seq(p); },
        [p, adaptive](int cpus, ForkModel m, double rb) {
          Runtime rt(runtime_opts(cpus, 12, rb, adaptive));
          return Tsp::run_spec(rt, p, m);
        },
        [] { return sim::model_tsp(); }});
  }
  {
    // Not a Table II row: the server-shaped workload of src/serving/
    // (short tasks, shared cache index). Rides the same harness so the
    // equivalence and figure machinery cover it.
    HttpServing::Params p;
    p.batches = paper ? 256 : (quick ? 8 : 64);
    p.batch = 256;
    p.chunks = 8;
    p.zipf_s = 1.1;  // hot keys: real conflicts through the index
    ws.push_back(BenchWorkload{
        "http-serving", false, "loop",
        paper ? "64K requests, Zipf 1.1" : "16K requests, Zipf 1.1",
        [p] { return HttpServing::run_seq(p); },
        [p, adaptive](int cpus, ForkModel m, double rb) {
          Runtime rt(runtime_opts(cpus, 14, rb, adaptive));
          return HttpServing::run_spec(rt, p, m);
        },
        [p] {
          return sim::model_http_serving(static_cast<int>(p.batches),
                                         p.chunks);
        }});
  }
  return ws;
}

inline std::vector<BenchWorkload> filter(std::vector<BenchWorkload> ws,
                                         std::vector<std::string> names) {
  std::vector<BenchWorkload> out;
  for (auto& w : ws) {
    for (const auto& n : names) {
      if (w.name == n) out.push_back(std::move(w));
    }
  }
  return out;
}

inline sim::Simulator::Options sim_opts(int total_cpus, ForkModel model,
                                        double rollback_p = 0.0) {
  sim::Simulator::Options o;
  o.num_cpus = std::max(1, total_cpus - 1);
  o.model = model;
  o.rollback_probability = rollback_p;
  return o;
}

// The oracle check after every speculative run: a checksum that differs
// from the sequential run's ends the bench with exit status 1.
inline void check_checksum(const BenchWorkload& w, uint64_t got,
                           uint64_t want) {
  if (got != want) {
    std::fprintf(stderr,
                 "FAIL: %s speculative checksum mismatch "
                 "(%016llx vs %016llx)\n",
                 w.name.c_str(), static_cast<unsigned long long>(got),
                 static_cast<unsigned long long>(want));
    std::exit(1);
  }
}

}  // namespace mutls::bench
