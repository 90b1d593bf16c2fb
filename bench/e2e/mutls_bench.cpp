// End-to-end benchmark driver for MUTLS: runs one workload for a wall-clock
// budget and prints its metrics as one JSON line. run.py, next to this file,
// builds it, starts one process per workload, applies the correctness gates
// and formats the result; README.md describes the workloads and metrics.
//
// Every number is taken from outside the library: the driver times its own
// calls into public entry points (Runtime construction, Workload::run_seq /
// run_spec, Server::serve_batch / serve_batch_seq, parse_request,
// Runtime::fork / join) and reads the RunStats that Runtime::run returns.
// Sizes and Runtime::Options live here rather than in bench/common.h, so
// edits to the figure benches cannot move this benchmark. Only num_cpus,
// buffer_log2 and overflow_cap are set; every other option keeps the
// library default, so a change of default shows up in the numbers.
//
// Usage: mutls_bench --workload md|bh|fft|mandelbrot|serve-zipf --seed N
//                    --seconds S [--smoke] [--trace-out PATH]
//                    [--corrupt-expected] [--inject-alloc]
//
//   --smoke             tiny sizes, same code paths (CI and self-test)
//   --trace-out PATH    traced run: record spans, run the layer probes,
//                       print per-layer metrics, write a Chrome trace
//   --corrupt-expected  self-test: compare against a wrong expected result
//   --inject-alloc      self-test: one heap-allocating fork after warm-up
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "mutls/mutls.h"
#include "serving/cache_index.h"
#include "serving/http_parse.h"
#include "serving/request_gen.h"
#include "serving/serve_batch.h"
#include "support/arena.h"
#include "workloads/bh.h"
#include "workloads/fft.h"
#include "workloads/http_serving.h"
#include "workloads/mandelbrot.h"
#include "workloads/md.h"

namespace {

using namespace mutls;
namespace wl = mutls::workloads;
namespace sv = mutls::serving;

// Keeps probe results observable so the timed loops are not folded away.
std::atomic<uint64_t> g_sink{0};

// Every measured phase runs at least this many pairs, whatever the clock
// says, so medians and quartiles always have samples.
constexpr int kMinPairs = 3;
// Repetitions of each probe; the probe reports their median.
constexpr int kProbeReps = 5;
// serve-zipf: Runtime + CacheIndex + Server constructions timed for setup_s.
constexpr int kServeSetupReps = 16;
// Batch workloads' allocation gate: allocation-free runs in a row that a
// warmed Runtime must reach, and the runs it may take to get there.
constexpr int kCleanRuns = 2;
constexpr int kMaxWarmRuns = 12;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 12.0;
  bool smoke = false;
  std::string trace_out;  // empty: untraced run
  bool corrupt_expected = false;
  bool inject_alloc = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    std::string_view f = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    char* end = nullptr;
    if (f == "--smoke") {
      a.smoke = true;
    } else if (f == "--corrupt-expected") {
      a.corrupt_expected = true;
    } else if (f == "--inject-alloc") {
      a.inject_alloc = true;
    } else if (v == nullptr) {
      return false;
    } else if (f == "--workload") {
      a.workload = v;
      ++i;
    } else if (f == "--trace-out") {
      a.trace_out = v;
      ++i;
    } else if (f == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') return false;
      ++i;
    } else if (f == "--seconds") {
      a.seconds = std::strtod(v, &end);
      if (*v == '\0' || *end != '\0' || !std::isfinite(a.seconds) ||
          a.seconds <= 0) {
        return false;
      }
      ++i;
    } else {
      return false;
    }
  }
  for (const char* w : {"md", "bh", "fft", "mandelbrot", "serve-zipf"}) {
    if (a.workload == w) return true;
  }
  return false;
}

// Threads of the measured process: the root plus the speculative virtual
// CPUs, min(4, nproc) in all. The runtime needs one virtual CPU, so a
// single-CPU host runs two threads.
int total_threads() {
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::clamp(hw, 2, 4);
}

Runtime::Options runtime_options(int buffer_log2) {
  Runtime::Options o;
  o.num_cpus = total_threads() - 1;
  o.buffer_log2 = buffer_log2;
  o.overflow_cap = 8192;
  return o;
}

double seconds_since(uint64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// Linear-interpolated quantile, q in [0, 1]; 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return ratio(sum, static_cast<double>(v.size()));
}

uint64_t alloc_events(const RunStats& s) {
  return s.critical.buffer.alloc_events + s.speculative.buffer.alloc_events;
}

// ---------------------------------------------------------------------------
// Spans, recorded in memory by the driver around its own calls and written
// at exit as Chrome trace-event JSON (loads in Perfetto). Span ids are
// 1-based indices; 0 means "no span" and is what a paused or untraced
// tracer hands out, so callers never branch on tracing themselves.

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_ns_(now_ns()) {
    if (enabled_) spans_.reserve(size_t{1} << 17);
  }

  bool enabled() const { return enabled_; }
  // A traced run alternates recorded and unrecorded pairs to measure the
  // recording's own cost (trace_overhead_frac).
  void pause(bool paused) { paused_ = paused; }

  uint32_t begin(const char* name, uint32_t parent) {
    if (!enabled_ || paused_) return 0;
    spans_.push_back(Span{name, now_ns(), 0, parent});
    return static_cast<uint32_t>(spans_.size());
  }
  void end(uint32_t id) {
    if (id != 0) spans_[id - 1].end_ns = now_ns();
  }

  bool write(const std::string& path, const std::string& process) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f,
                 "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n"
                 "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"args\":{\"name\":\"%s\"}}",
                 process.c_str());
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      uint64_t end = s.end_ns ? s.end_ns : s.start_ns;
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"cat\":\"mutls\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"id\":%zu,\"parent\":%u}}",
                   s.name, static_cast<double>(s.start_ns - origin_ns_) / 1e3,
                   static_cast<double>(end - s.start_ns) / 1e3, i + 1,
                   s.parent);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    uint64_t start_ns;
    uint64_t end_ns;
    uint32_t parent;
  };
  bool enabled_;
  bool paused_ = false;
  uint64_t origin_ns_;
  std::vector<Span> spans_;
};

class SpanScope {
 public:
  SpanScope(Tracer& t, const char* name, uint32_t parent)
      : t_(t), id_(t.begin(name, parent)) {}
  ~SpanScope() { t_.end(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  uint32_t id() const { return id_; }

 private:
  Tracer& t_;
  uint32_t id_;
};

// ---------------------------------------------------------------------------
// What a workload's measured phase collects. A "run" is one speculative
// program run (batch workloads) or one block of batches (serve-zipf); each
// pair times one run against its sequential counterpart on the same input.

struct Measured {
  std::vector<double> setup_s, run_s, seq_s, speedup;
  std::vector<double> run_s_traced, run_s_untraced;  // traced runs only
  std::vector<double> batch_s;  // serve-zipf: one serve_batch call each
  ThreadStats crit, spec;       // summed over the measured runs
  uint64_t runs = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t alloc_events = 0;  // arena heap fallbacks after warm-up
  double first_ctor_s = 0.0;
  sv::BatchCounters served;  // serve-zipf only

  void add_run(const RunStats& s) {
    crit += s.critical;
    spec += s.speculative;
    ++runs;
  }
  void add_pair(double seq, double run, bool traced, const Tracer& tr) {
    seq_s.push_back(seq);
    run_s.push_back(run);
    speedup.push_back(seq / run);
    if (tr.enabled()) (traced ? run_s_traced : run_s_untraced).push_back(run);
  }
};

// Self-test hook: one fork whose closure exceeds the arena's bump limit, so
// the forker's and the child's arena both fall back to the heap — a real
// post-warm-up allocation for the gate in run.py to catch.
RunStats oversized_fork(Runtime& rt) {
  return rt.run([&](Ctx& ctx) {
    std::array<char, Arena::kOversizeBytes + 1> big{};
    big[0] = 1;
    Spec s = rt.fork(ctx, ForkModel::kMixed, [big](Ctx&) {
      g_sink.fetch_add(static_cast<uint64_t>(big[0]),
                       std::memory_order_relaxed);
    });
    rt.join(ctx, s);
  });
}

// Pair k is traced when tracing is on and (k / 2) is even: both run orders
// land in the traced and the untraced half alike.
bool pair_traced(Tracer& tr, int k) {
  bool traced = (k / 2) % 2 == 0;
  tr.pause(!traced);
  return traced;
}

// ---------------------------------------------------------------------------
// Batch workloads: md, bh, fft, mandelbrot.

struct BatchWorkload {
  int buffer_log2;
  size_t probe_words;  // footprint of the buffer probes, in 8-byte words
  std::function<wl::SeqRun()> seq;
  std::function<wl::SpecRun(Runtime&)> spec;
};

template <typename W>
BatchWorkload batch_of(const typename W::Params& p, int buffer_log2,
                       size_t probe_words) {
  return BatchWorkload{
      buffer_log2, probe_words, [p] { return W::run_seq(p); },
      [p](Runtime& rt) { return W::run_spec(rt, p, ForkModel::kMixed); }};
}

BatchWorkload make_batch(const Args& a) {
  const bool smoke = a.smoke;
  if (a.workload == "md") {
    // Read-heavy streaming loop: every chunk buffers loads of all 3n
    // position words and re-validates them; no conflicts.
    wl::MolecularDynamics::Params p;
    p.n = smoke ? 64 : 256;
    p.steps = smoke ? 4 : 300;
    p.chunks = 16;
    p.seed = a.seed;
    return batch_of<wl::MolecularDynamics>(p, 14,
                                           3 * static_cast<size_t>(p.n));
  }
  if (a.workload == "bh") {
    // Read-heavy but irregular: tree walks send random lookups to the
    // buffer instead of md's streaming ones.
    wl::BarnesHut::Params p;
    p.n = smoke ? 128 : 2048;
    p.steps = smoke ? 1 : 3;
    p.chunks = 16;
    p.seed = a.seed;
    return batch_of<wl::BarnesHut>(p, 17, 8 * static_cast<size_t>(p.n));
  }
  if (a.workload == "fft") {
    // Write-heavy divide and conquer with a nested fork tree; the 2^20-entry
    // tables make setup and RSS visible.
    wl::Fft::Params p;
    p.log2_n = smoke ? 12 : 18;
    p.fork_levels = 5;
    p.seed = a.seed;
    return batch_of<wl::Fft>(p, smoke ? 14 : 20, size_t{1} << p.log2_n);
  }
  // mandelbrot: compute-bound control with bulk row stores. The seed
  // shifts the window by at most 1% of its extent on each axis.
  wl::Mandelbrot::Params p;
  p.width = p.height = smoke ? 64 : 512;
  p.max_iter = smoke ? 500 : 2000;
  p.chunks = 64;
  Xorshift64 rng(a.seed);
  double dx = (rng.next_double() * 2.0 - 1.0) * 0.01 * (p.x1 - p.x0);
  double dy = (rng.next_double() * 2.0 - 1.0) * 0.01 * (p.y1 - p.y0);
  p.x0 += dx;
  p.x1 += dx;
  p.y0 += dy;
  p.y1 += dy;
  return batch_of<wl::Mandelbrot>(
      p, 18, static_cast<size_t>(p.width) * static_cast<size_t>(p.height) / 2);
}

void measure_batch(const BatchWorkload& w, const Args& a, Tracer& tr,
                   uint32_t parent, Measured& m) {
  const Runtime::Options opts = runtime_options(w.buffer_log2);
  uint64_t expected = 0;
  {
    // Untimed warm-up. The first construction in the process pays the
    // one-time spin calibration; the sequential run gives the expected
    // checksum. The allocation gate: speculative runs on one Runtime must
    // reach kCleanRuns in a row without an arena heap fallback within
    // kMaxWarmRuns. It asks for a streak rather than one clean run after
    // warm-up because which slot gets which subtree varies: an fft slot can
    // meet its largest write set, and grow its scratch, on a late run.
    SpanScope warm(tr, "warmup", parent);
    uint64_t t0 = now_ns();
    Runtime rt(opts);
    m.first_ctor_s = seconds_since(t0);
    expected = w.seq().checksum;
    if (a.corrupt_expected) expected = ~expected;
    uint64_t last_allocs = 0;
    int clean = 0;
    for (int i = 0; i < kMaxWarmRuns && clean < kCleanRuns; ++i) {
      uint64_t n = alloc_events(w.spec(rt).stats);
      clean = n == 0 ? clean + 1 : 0;
      if (n != 0) last_allocs = n;
    }
    if (clean < kCleanRuns) m.alloc_events += last_allocs;
    if (a.inject_alloc) m.alloc_events += alloc_events(oversized_fork(rt));
  }

  const uint64_t deadline = now_ns() + static_cast<uint64_t>(a.seconds * 1e9);
  for (int k = 0; k < kMinPairs || now_ns() < deadline; ++k) {
    // One pair is one user program run: a fresh Runtime, then the
    // speculative and the sequential run on the same input, in an order
    // that alternates from pair to pair.
    const bool traced = pair_traced(tr, k);
    SpanScope pair(tr, "pair", parent);
    uint64_t c0 = now_ns();
    uint32_t ctor = tr.begin("ctor", pair.id());
    Runtime rt(opts);
    tr.end(ctor);
    m.setup_s.push_back(seconds_since(c0));

    wl::SeqRun seq;
    wl::SpecRun spec;
    double seq_s = 0.0, spec_s = 0.0;
    auto run_seq = [&] {
      SpanScope s(tr, "run_seq", pair.id());
      uint64_t t0 = now_ns();
      seq = w.seq();
      seq_s = seconds_since(t0);
    };
    auto run_spec = [&] {
      SpanScope s(tr, "run_spec", pair.id());
      uint64_t t0 = now_ns();
      spec = w.spec(rt);
      spec_s = seconds_since(t0);
    };
    if (k % 2 == 0) {
      run_spec();
      run_seq();
    } else {
      run_seq();
      run_spec();
    }
    ++m.attempted;
    if (spec.checksum != expected || seq.checksum != expected) ++m.failed;
    m.add_pair(seq_s, spec_s, traced, tr);
    m.add_run(spec.stats);
  }
  tr.pause(false);
}

// ---------------------------------------------------------------------------
// serve-zipf: Server::serve_batch in a closed loop with one client (the
// root thread), against a serve_batch_seq oracle over the same stream.

constexpr size_t kBatchRequests = 256;
constexpr int kServeChunks = 8;
constexpr int kServeBufferLog2 = 14;
constexpr size_t kIndexLog2 = 10;
// Batches per measured block; one block is one pair.
constexpr int kBlockBatches = 64;

sv::TrafficConfig serve_traffic(uint64_t seed) {
  sv::TrafficConfig t;
  t.num_keys = 4096;
  t.zipf_s = 1.1;
  t.put_ratio = 0.125;
  t.malformed_ratio = 0.02;
  t.seed = seed;
  return t;
}

// The serving stack of one process, constructed (and timed) as one unit.
struct ServingStack {
  explicit ServingStack(const Runtime::Options& o)
      : rt(o), index(rt, kIndexLog2), server(rt, index, kBatchRequests) {}
  Runtime rt;
  sv::CacheIndex index;
  sv::Server server;
};

// The warm-up of bench_sustained_load: a PUT storm drives every slot's
// buffer and arena to the workload's largest footprint, then windows of
// real traffic run until one completes without a heap fallback. The index
// is emptied afterwards so the measured pass and its oracle start equal.
void warm_serving(ServingStack& st, const Args& a) {
  sv::RequestBatch batch(kBatchRequests);
  sv::ServeOpts opts;
  opts.chunks = kServeChunks;
  uint64_t epoch = 0;
  sv::TrafficConfig storm = serve_traffic(a.seed + 1);
  storm.zipf_s = 0.0;
  storm.put_ratio = 1.0;
  storm.malformed_ratio = 0.0;
  storm.num_keys = 1u << 20;
  sv::RequestGen storm_gen(storm);
  st.rt.run([&](Ctx& ctx) {
    for (int b = 0; b < 12; ++b) {
      storm_gen.fill(batch);
      st.server.serve_batch(ctx, batch, epoch++, opts);
    }
  });
  sv::RequestGen gen(serve_traffic(a.seed + 2));
  const uint64_t window_ns = a.smoke ? 20'000'000ull : 150'000'000ull;
  for (int window = 0; window < 16; ++window) {
    const uint64_t deadline = now_ns() + window_ns;
    RunStats ws = st.rt.run([&](Ctx& ctx) {
      for (int b = 0; b < 8 || now_ns() < deadline; ++b) {
        gen.fill(batch);
        st.server.serve_batch(ctx, batch, epoch++, opts);
      }
    });
    if (alloc_events(ws) == 0) break;
  }
  st.index.clear();
}

void measure_serve(const Args& a, Tracer& tr, uint32_t parent, Measured& m) {
  const Runtime::Options opts = runtime_options(kServeBufferLog2);
  std::unique_ptr<ServingStack> st;
  // Set-up is sampled at start-up, the cost a server pays at launch. Each
  // construction replaces the previous stack, whose threads are joined
  // first. The first one pays the one-time spin calibration.
  for (int i = 0; i <= kServeSetupReps; ++i) {
    st.reset();
    SpanScope ctor(tr, "ctor", parent);
    uint64_t t0 = now_ns();
    st = std::make_unique<ServingStack>(opts);
    const double s = seconds_since(t0);
    if (i == 0) {
      m.first_ctor_s = s;
    } else {
      m.setup_s.push_back(s);
    }
  }
  {
    SpanScope warm(tr, "warmup", parent);
    warm_serving(*st, a);
    if (a.inject_alloc) m.alloc_events += alloc_events(oversized_fork(st->rt));
  }

  const int block = a.smoke ? 8 : kBlockBatches;
  std::vector<sv::RequestBatch> batches;
  batches.reserve(static_cast<size_t>(block));
  for (int b = 0; b < block; ++b) batches.emplace_back(kBatchRequests);
  std::vector<sv::BatchCounters> seq_out(static_cast<size_t>(block));
  std::vector<sv::BatchCounters> spec_out(static_cast<size_t>(block));
  std::vector<uint64_t> batch_ns(static_cast<size_t>(block));
  sv::CacheIndex oracle(kIndexLog2);
  sv::RequestGen gen(serve_traffic(a.seed));
  sv::BatchCounters seq_total;
  sv::ServeOpts sopts;
  sopts.chunks = kServeChunks;
  uint64_t epoch = 0;

  const uint64_t deadline = now_ns() + static_cast<uint64_t>(a.seconds * 1e9);
  for (int k = 0; k < kMinPairs || now_ns() < deadline; ++k) {
    for (sv::RequestBatch& b : batches) gen.fill(b);
    const bool traced = pair_traced(tr, k);
    SpanScope pair(tr, "pair", parent);
    double seq_s = 0.0, spec_s = 0.0;
    auto run_seq = [&] {
      SpanScope s(tr, "serve_batch_seq", pair.id());
      uint64_t t0 = now_ns();
      for (int b = 0; b < block; ++b) {
        seq_out[static_cast<size_t>(b)] = sv::Server::serve_batch_seq(
            oracle, batches[static_cast<size_t>(b)], epoch + b);
      }
      seq_s = seconds_since(t0);
    };
    auto run_spec = [&] {
      SpanScope s(tr, "run_spec", pair.id());
      uint64_t t0 = now_ns();
      RunStats stats = st->rt.run([&](Ctx& ctx) {
        for (int b = 0; b < block; ++b) {
          const size_t i = static_cast<size_t>(b);
          uint32_t span = tr.begin("serve_batch", s.id());
          uint64_t b0 = now_ns();
          spec_out[i] = st->server.serve_batch(ctx, batches[i], epoch + b,
                                               sopts);
          batch_ns[i] = now_ns() - b0;
          tr.end(span);
        }
      });
      spec_s = seconds_since(t0);
      m.add_run(stats);
      m.alloc_events += alloc_events(stats);
    };
    if (k % 2 == 0) {
      run_spec();
      run_seq();
    } else {
      run_seq();
      run_spec();
    }
    epoch += static_cast<uint64_t>(block);
    for (size_t i = 0; i < static_cast<size_t>(block); ++i) {
      sv::BatchCounters want = seq_out[i];
      if (a.corrupt_expected) want.requests += 1;
      ++m.attempted;
      if (!(spec_out[i] == want)) ++m.failed;
      m.served += spec_out[i];
      seq_total += seq_out[i];
      m.batch_s.push_back(static_cast<double>(batch_ns[i]) * 1e-9);
    }
    m.add_pair(seq_s, spec_s, traced, tr);
  }
  tr.pause(false);
  // The final cache state must equal the oracle's too; a mismatch the
  // per-batch counters missed fails the last batch.
  if (m.failed == 0 && wl::HttpServing::digest(st->index, m.served) !=
                           wl::HttpServing::digest(oracle, seq_total)) {
    ++m.failed;
  }
}

// ---------------------------------------------------------------------------
// Layer probes (traced runs only): each times K calls into one layer from
// the driver and reports nanoseconds per call, median of kProbeReps.

struct Probes {
  double load_ns = 0.0;
  double store_ns = 0.0;
  double fork_join_rt_ns = 0.0;
  double parse_ns = 0.0;
};

// K aligned 8-byte SharedSpan accesses by one speculative child, sweeping
// the array; timed inside the child. A sample counts only when the child
// committed, i.e. the accesses really went through the speculative buffer.
double probe_buffer(Runtime& rt, SharedArray<uint64_t>& arr, bool stores,
                    uint64_t accesses) {
  std::vector<double> ns;
  rt.run([&](Ctx& ctx) {
    for (int r = 0; r < kProbeReps; ++r) {
      double per_access = 0.0;  // written by the child, read after join
      Spec s = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
        SharedSpan<uint64_t> span = arr.span(c);
        uint64_t sum = 0;
        uint64_t t0 = now_ns();
        for (uint64_t i = 0, w = 0; i < accesses; ++i) {
          if (stores) {
            span[w] = i;
          } else {
            sum += span[w];
          }
          if (++w == span.size()) w = 0;
        }
        per_access =
            static_cast<double>(now_ns() - t0) / static_cast<double>(accesses);
        g_sink.fetch_add(sum, std::memory_order_relaxed);
      });
      if (rt.join(ctx, s) == JoinOutcome::kCommitted) ns.push_back(per_access);
    }
  });
  return median(ns);
}

double probe_fork_join(Runtime& rt, int round_trips) {
  std::vector<double> ns;
  rt.run([&](Ctx& ctx) {
    for (int r = 0; r < kProbeReps; ++r) {
      uint64_t t0 = now_ns();
      for (int i = 0; i < round_trips; ++i) {
        Spec s = rt.fork(ctx, ForkModel::kMixed, [](Ctx&) {});
        rt.join(ctx, s);
      }
      ns.push_back(static_cast<double>(now_ns() - t0) / round_trips);
    }
  });
  return median(ns);
}

double probe_parse(uint64_t seed, int batches) {
  sv::RequestGen gen(serve_traffic(seed));
  sv::RequestBatch batch(kBatchRequests);
  gen.fill(batch);
  sv::ParsedRequest out;
  std::vector<double> ns;
  uint64_t ok = 0;
  for (int r = 0; r < kProbeReps; ++r) {
    uint64_t t0 = now_ns();
    for (int b = 0; b < batches; ++b) {
      for (size_t i = 0; i < batch.count(); ++i) {
        ok += sv::parse_request(batch.request(i), out) == sv::ParseStatus::kOk;
      }
    }
    ns.push_back(static_cast<double>(now_ns() - t0) /
                 static_cast<double>(static_cast<size_t>(batches) *
                                     batch.count()));
  }
  g_sink.fetch_add(ok, std::memory_order_relaxed);
  return median(ns);
}

Probes run_probes(int buffer_log2, size_t words, const Args& a, Tracer& tr,
                  uint32_t parent) {
  Probes p;
  Runtime rt(runtime_options(buffer_log2));
  // At most a quarter of the table, so the probe measures the hit path of
  // the buffer and not its capacity handling.
  words = std::min(words, (size_t{1} << buffer_log2) / 4);
  SharedArray<uint64_t> arr(rt, words, 1);
  const uint64_t accesses = a.smoke ? 1u << 14 : 1u << 21;
  {
    SpanScope s(tr, "probe.buffer_load", parent);
    p.load_ns = probe_buffer(rt, arr, false, accesses);
  }
  {
    SpanScope s(tr, "probe.buffer_store", parent);
    p.store_ns = probe_buffer(rt, arr, true, accesses);
  }
  {
    SpanScope s(tr, "probe.fork_join", parent);
    p.fork_join_rt_ns = probe_fork_join(rt, a.smoke ? 200 : 4000);
  }
  {
    SpanScope s(tr, "probe.parse", parent);
    p.parse_ns = probe_parse(a.seed, a.smoke ? 4 : 200);
  }
  return p;
}

// ---------------------------------------------------------------------------
// Report: one JSON line, {"workload", "seed", "threads", "attempted",
// "failed", "alloc_events", "metrics": {name: {value, unit, n}}}.

class Report {
 public:
  void add(const char* name, double value, const char* unit, size_t n = 1) {
    metrics_.push_back(Metric{name, std::isfinite(value) ? value : 0.0, unit,
                              n});
  }

  void print(const Args& a, const Measured& m) const {
    std::printf(
        "{\"workload\":\"%s\",\"seed\":%llu,\"threads\":%d,"
        "\"attempted\":%llu,\"failed\":%llu,\"alloc_events\":%llu,"
        "\"metrics\":{",
        a.workload.c_str(), static_cast<unsigned long long>(a.seed),
        total_threads(), static_cast<unsigned long long>(m.attempted),
        static_cast<unsigned long long>(m.failed),
        static_cast<unsigned long long>(m.alloc_events));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& x = metrics_[i];
      std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"n\":%zu}",
                  i ? "," : "", x.name, x.value, x.unit, x.n);
    }
    std::printf("}}\n");
  }

 private:
  struct Metric {
    const char* name;
    double value;
    const char* unit;
    size_t n;
  };
  std::vector<Metric> metrics_;
};

// Peak resident set of this process image. VmHWM rather than getrusage's
// ru_maxrss, which Linux carries across execve: a driver started from
// run.py would report the Python parent's peak when that is larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

void add_end_to_end(Report& r, const Measured& m, bool serving) {
  r.add("run_s", median(m.run_s), "s", m.run_s.size());
  r.add("speedup", median(m.speedup), "x", m.speedup.size());
  r.add("setup_s", median(m.setup_s), "s", m.setup_s.size());
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.add("fail_frac",
        ratio(static_cast<double>(m.failed), static_cast<double>(m.attempted)),
        "ratio", m.attempted);
  if (serving) {
    double spec_s = 0.0;
    for (double s : m.run_s) spec_s += s;
    r.add("req_per_s",
          ratio(static_cast<double>(m.served.requests), spec_s), "1/s",
          m.run_s.size());
    r.add("batch_p50_us", quantile(m.batch_s, 0.50) * 1e6, "us",
          m.batch_s.size());
    r.add("batch_p99_us", quantile(m.batch_s, 0.99) * 1e6, "us",
          m.batch_s.size());
  }
}

void add_per_layer(Report& r, const Measured& m, const Probes& p,
                   bool serving) {
  const ThreadStats& c = m.crit;
  const ThreadStats& s = m.spec;
  SpecBufferStats buf = c.buffer;
  buf += s.buffer;
  TimeLedger ledger = c.ledger;
  ledger += s.ledger;
  const double runs = static_cast<double>(std::max<uint64_t>(m.runs, 1));
  auto per_run = [&](double v) { return v / runs; };
  auto cat = [&](TimeCat t) { return static_cast<double>(ledger.get(t)); };
  const double forks = static_cast<double>(c.forks + s.forks);
  const double denied = static_cast<double>(c.fork_denied + s.fork_denied);
  const double commits = static_cast<double>(c.commits + s.commits);
  const double rollbacks = static_cast<double>(c.rollbacks + s.rollbacks);
  const double work = static_cast<double>(s.ledger.get(TimeCat::kWork));
  const double wasted = static_cast<double>(s.ledger.get(TimeCat::kWastedWork));
  // The efficiency and closure ratios divide sums over all measured runs,
  // so they take the mean run and sequential times, not the medians.
  const double run_s = mean(m.run_s);
  const double seq_s = mean(m.seq_s);
  const size_t n = m.runs;

  r.add("api.first_ctor_s", m.first_ctor_s, "s");
  r.add("buffer.loads", per_run(static_cast<double>(s.loads)), "count", n);
  r.add("buffer.stores", per_run(static_cast<double>(s.stores)), "count", n);
  r.add("buffer.load_ns", p.load_ns, "ns", kProbeReps);
  r.add("buffer.store_ns", p.store_ns, "ns", kProbeReps);
  r.add("buffer.validated_words",
        per_run(static_cast<double>(buf.validated_words)), "count", n);
  r.add("buffer.validate_ns_per_word",
        ratio(cat(TimeCat::kValidation),
              static_cast<double>(buf.validated_words)),
        "ns", n);
  r.add("buffer.mru_hit_frac",
        ratio(static_cast<double>(buf.mru_hits),
              static_cast<double>(buf.mru_hits + buf.mru_misses)),
        "ratio", n);
  r.add("buffer.probe_steps_per_op", buf.avg_probe_length(), "count", n);
  r.add("buffer.commit_ns", per_run(cat(TimeCat::kCommit)), "ns", n);
  r.add("buffer.finalize_ns", per_run(cat(TimeCat::kFinalize)), "ns", n);
  r.add("buffer.overflow_events",
        per_run(static_cast<double>(buf.overflow_events)), "count", n);
  r.add("buffer.resize_events",
        per_run(static_cast<double>(buf.resize_events)), "count", n);
  r.add("manager.forks", per_run(forks), "count", n);
  r.add("manager.fork_denied_frac", ratio(denied, forks + denied), "ratio", n);
  r.add("manager.find_cpu_ns", ratio(cat(TimeCat::kFindCpu), forks), "ns", n);
  r.add("manager.arm_ns", ratio(cat(TimeCat::kFork), forks), "ns", n);
  r.add("manager.handoff_ns", ratio(cat(TimeCat::kForkHandoff), forks), "ns",
        n);
  r.add("manager.join_ns", ratio(cat(TimeCat::kJoin), forks), "ns", n);
  r.add("manager.fork_join_rt_ns", p.fork_join_rt_ns, "ns", kProbeReps);
  r.add("manager.crit_idle_frac",
        ratio(static_cast<double>(c.ledger.get(TimeCat::kIdle)),
              static_cast<double>(c.runtime_ns)),
        "ratio", n);
  r.add("spec.commit_frac", ratio(commits, commits + rollbacks), "ratio", n);
  r.add("spec.wasted_frac", ratio(wasted, work + wasted), "ratio", n);
  r.add("eff.critical",
        ratio(static_cast<double>(c.ledger.get(TimeCat::kWork)),
              static_cast<double>(c.runtime_ns)),
        "ratio", n);
  r.add("eff.speculative", ratio(work, static_cast<double>(s.runtime_ns)),
        "ratio", n);
  r.add("eff.power",
        ratio(seq_s * 1e9 * runs, static_cast<double>(c.runtime_ns) +
                                      static_cast<double>(s.runtime_ns)),
        "ratio", n);
  r.add("coverage",
        ratio(static_cast<double>(s.runtime_ns),
              static_cast<double>(c.runtime_ns)),
        "ratio", n);
  r.add("predictor.predicted_reads",
        per_run(static_cast<double>(buf.predicted_reads)), "count", n);
  r.add("predictor.saved_rollbacks",
        per_run(static_cast<double>(buf.saved_rollbacks)), "count", n);
  r.add("serving.parse_ns", p.parse_ns, "ns", kProbeReps);
  r.add("serving.get_hit_frac",
        serving ? ratio(static_cast<double>(m.served.get_hits),
                        static_cast<double>(m.served.get_hits +
                                            m.served.get_misses))
                : 0.0,
        "ratio", m.batch_s.size());
  r.add("serving.evictions_per_batch",
        ratio(static_cast<double>(m.served.evictions),
              static_cast<double>(m.batch_s.size())),
        "count", m.batch_s.size());
  r.add("support.alloc_events", static_cast<double>(m.alloc_events), "count");
  r.add("workloads.seq_s", median(m.seq_s), "s", m.seq_s.size());
  // Closure: how much of the measured wall time the layer costs account
  // for. The remainder of each fraction is a finding, not an error.
  r.add("closure.ledger_frac",
        ratio(per_run(static_cast<double>(c.ledger.total())) * 1e-9, run_s),
        "ratio", n);
  const double explained_ns =
      seq_s * 1e9 + per_run(static_cast<double>(s.loads)) * p.load_ns +
      per_run(static_cast<double>(s.stores)) * p.store_ns +
      per_run(forks) * p.fork_join_rt_ns +
      per_run(cat(TimeCat::kValidation) + cat(TimeCat::kCommit) +
              cat(TimeCat::kFinalize));
  r.add("closure.cpu_explained_frac",
        ratio(explained_ns * 1e-9, run_s * total_threads()), "ratio", n);
  r.add("trace_overhead_frac",
        ratio(median(m.run_s_traced), median(m.run_s_untraced)) - 1.0,
        "ratio", m.run_s_traced.size() + m.run_s_untraced.size());
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: mutls_bench --workload md|bh|fft|mandelbrot|"
                 "serve-zipf --seed N --seconds S [--smoke] "
                 "[--trace-out PATH] [--corrupt-expected] [--inject-alloc]\n");
    return 2;
  }
  const bool serving = a.workload == "serve-zipf";
  Tracer tr(!a.trace_out.empty());
  SpanScope process(tr, "process", 0);
  Measured m;
  Probes probes;
  {
    SpanScope workload(tr, a.workload.c_str(), process.id());
    if (serving) {
      measure_serve(a, tr, workload.id(), m);
      if (tr.enabled()) {
        probes = run_probes(kServeBufferLog2, 4u << kIndexLog2, a, tr,
                            workload.id());
      }
    } else {
      BatchWorkload w = make_batch(a);
      measure_batch(w, a, tr, workload.id(), m);
      if (tr.enabled()) {
        probes = run_probes(w.buffer_log2, w.probe_words, a, tr,
                            workload.id());
      }
    }
  }
  Report r;
  if (tr.enabled()) {
    add_per_layer(r, m, probes, serving);
  } else {
    add_end_to_end(r, m, serving);
  }
  r.print(a, m);
  if (tr.enabled()) {
    tr.end(process.id());
    if (!tr.write(a.trace_out, "mutls_bench " + a.workload)) {
      std::fprintf(stderr, "cannot write trace %s\n", a.trace_out.c_str());
      return 1;
    }
  }
  return 0;
}
