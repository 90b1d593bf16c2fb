// Ablation — the SpecBuffer backends side by side, plus std::unordered_map
// as the dynamic-allocation strawman (design claim of paper section IV-G2:
// "Normal hash maps frequently increase in size as data is inserted,
// causing dynamic memory allocation and deallocation. Our design is
// instead to use static memory.").
//
// Every buffered benchmark runs once per backend (arg 0: 0 = static-hash,
// 1 = growable-log), so the overflow-doom vs resize trade shows up as a
// side-by-side comparison in one report. Each iteration ends with
// SpecBuffer::rearm() — the per-speculation re-arm a virtual-CPU slot
// performs; the SpecBufferStats counters are accumulated across iterations
// and attached to each run, every counter under its table name plus the
// average probe length, so a throughput difference carries its cost
// breakdown.
//
// Measures buffered store+load streams and the validate/commit/finalize
// cycle for thread footprints of various sizes.
#include <benchmark/benchmark.h>

#include <unordered_map>
#include <vector>

#include "runtime/spec_buffer.h"

namespace {

using namespace mutls;

BufferBackend backend_of(const benchmark::State& state) {
  return static_cast<BufferBackend>(state.range(0));
}

// Labels runs with the configured backend and attaches the cost counters
// accumulated across iterations (rearm() zeroes them per iteration, so
// each bench sums them into a SpecBufferStats of its own). Event counters
// are reported per iteration — comparable across runs whose auto-chosen
// iteration counts differ; avg_probe_len is already a ratio.
void attach_counters(benchmark::State& state, const SpecBuffer& buf,
                     const SpecBufferStats& s) {
  state.SetLabel(buffer_backend_name(buf.backend()));
  s.for_each_counter([&](const char* name, uint64_t value) {
    state.counters[name] = benchmark::Counter(
        static_cast<double>(value), benchmark::Counter::kAvgIterations);
  });
  state.counters["avg_probe_len"] = s.avg_probe_length();
}

std::vector<uint64_t>& arena() {
  static std::vector<uint64_t> a(1 << 20, 1);
  return a;
}

// Word addresses with a stride pattern similar to block-based workloads.
std::vector<uintptr_t> make_addresses(size_t n) {
  std::vector<uintptr_t> addrs;
  addrs.reserve(n);
  uint64_t x = 88172645463325252ull;
  for (size_t i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    addrs.push_back(
        reinterpret_cast<uintptr_t>(&arena()[x % arena().size()]));
  }
  return addrs;
}

void BM_SpecBufferStoreLoad(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(1));
  auto addrs = make_addresses(n);
  SpecBuffer buf;
  buf.init(backend_of(state), 18, 65536);
  SpecBufferStats total;
  for (auto _ : state) {
    for (uintptr_t a : addrs) {
      uint64_t v = a;
      buf.store_bytes(a, &v, 8);
    }
    uint64_t out = 0;
    for (uintptr_t a : addrs) {
      buf.load_bytes(a, &out, 8);
      benchmark::DoNotOptimize(out);
    }
    total += buf.stats();
    buf.rearm();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(2 * n));
  attach_counters(state, buf, total);
}
BENCHMARK(BM_SpecBufferStoreLoad)
    ->ArgNames({"backend", "n"})
    ->ArgsProduct({{0, 1}, {64, 1024, 16384}});

void BM_UnorderedMapStoreLoad(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  auto addrs = make_addresses(n);
  for (auto _ : state) {
    std::unordered_map<uintptr_t, uint64_t> map;
    for (uintptr_t a : addrs) map[a] = a;
    uint64_t out = 0;
    for (uintptr_t a : addrs) {
      auto it = map.find(a);
      if (it != map.end()) out = it->second;
      benchmark::DoNotOptimize(out);
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(2 * n));
}
BENCHMARK(BM_UnorderedMapStoreLoad)->Arg(64)->Arg(1024)->Arg(16384);

void BM_ValidateCommitCycle(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(1));
  auto addrs = make_addresses(n);
  SpecBuffer buf;
  buf.init(backend_of(state), 18, 65536);
  SpecBufferStats total;
  for (auto _ : state) {
    uint64_t v = 7;
    for (uintptr_t a : addrs) {
      buf.load_bytes(a, &v, 8);
      buf.store_bytes(a, &v, 8);
    }
    bool ok = buf.validate_against_memory();
    benchmark::DoNotOptimize(ok);
    buf.commit_to_memory();
    total += buf.stats();
    buf.rearm();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
  attach_counters(state, buf, total);
}
BENCHMARK(BM_ValidateCommitCycle)
    ->ArgNames({"backend", "n"})
    ->ArgsProduct({{0, 1}, {64, 1024, 16384}});

// The offsets stack (static hash) / dense log (growable log) is what keeps
// small-footprint threads fast even with a large table: reset cost must
// scale with entries used, not capacity.
void BM_ResetSmallFootprintLargeMap(benchmark::State& state) {
  SpecBuffer buf;
  buf.init(backend_of(state), 20, 65536);  // 1M-slot map
  auto addrs = make_addresses(16);
  SpecBufferStats total;
  for (auto _ : state) {
    uint64_t v = 1;
    for (uintptr_t a : addrs) buf.store_bytes(a, &v, 8);
    total += buf.stats();
    buf.rearm();
  }
  attach_counters(state, buf, total);
}
BENCHMARK(BM_ResetSmallFootprintLargeMap)
    ->ArgNames({"backend"})
    ->Arg(0)
    ->Arg(1);

// Where the backends genuinely diverge: a footprint far beyond the
// configured capacity. The static hash dooms every iteration (the whole
// stream after the exhaustion is wasted work destined for rollback); the
// growable log resizes and completes. Both run from the same tiny 2^8
// table.
void BM_OverCapacityStream(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(1));
  auto addrs = make_addresses(n);
  SpecBuffer buf;
  buf.init(backend_of(state), 8, 256);
  uint64_t dooms = 0;
  int64_t issued = 0;  // only stores actually executed count as items:
                       // the static hash dooms early and skips the rest
  SpecBufferStats total;
  for (auto _ : state) {
    for (uintptr_t a : addrs) {
      uint64_t v = a;
      buf.store_bytes(a, &v, 8);
      ++issued;
      if (buf.doomed()) break;  // a real runtime stops at its check point
    }
    dooms += buf.doomed() ? 1 : 0;
    total += buf.stats();
    buf.rearm();
  }
  state.SetItemsProcessed(issued);
  attach_counters(state, buf, total);
  // Fraction of iterations that ended doomed (0 or 1 per iteration).
  state.counters["doom_rate"] = benchmark::Counter(
      static_cast<double>(dooms), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_OverCapacityStream)
    ->ArgNames({"backend", "n"})
    ->ArgsProduct({{0, 1}, {4096, 65536}});

}  // namespace

BENCHMARK_MAIN();
