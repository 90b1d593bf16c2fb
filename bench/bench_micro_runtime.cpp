// Microbenchmarks of the runtime primitives: fork/join round trip,
// buffered vs direct access through the typed shared views, live-in
// transfer, address-space lookup. These quantify the constant factors
// behind the paper's overhead discussion (section V-B).
#include <benchmark/benchmark.h>

#include "mutls/mutls.h"

namespace {

using namespace mutls;

// Warm-up fork/joins, run before the measured run in a run of their own:
// enough for every virtual-CPU slot to pay its arena segments, pool
// classes along the growable doubling ladder and retired local frames.
// Past this point the runtime's zero-allocation steady-state invariant
// holds.
constexpr int kAllocWarmup = 8;

// Runs body kAllocWarmup times in a warm-up run, then once per benchmark
// iteration in the measured run, and attaches every ThreadStats counter of
// the measured run, both sides summed, per iteration (comparable across
// runs whose auto-chosen iteration counts differ). The measured run starts
// after the warm-up, so its alloc_events counts steady-state heap
// fallbacks only: the CI alloc budget requires exactly zero. The root
// forker's handles stay inline (or in warmed root-arena segments), keeping
// the critical side's term zero too.
template <class Body>
RunStats run_measured(benchmark::State& state, Runtime& rt, Body body) {
  rt.run([&](Ctx& ctx) {
    for (int i = 0; i < kAllocWarmup; ++i) body(ctx);
  });
  RunStats rs = rt.run([&](Ctx& ctx) {
    for (auto _ : state) body(ctx);
  });
  rs.total().for_each_counter([&](const char* name, uint64_t value) {
    state.counters[name] = benchmark::Counter(
        static_cast<double>(value), benchmark::Counter::kAvgIterations);
  });
  return rs;
}

void BM_ForkJoinRoundTrip(benchmark::State& state) {
  Runtime rt({.num_cpus = 1, .buffer_log2 = 10});
  RunStats rs = run_measured(state, rt, [&](Ctx& ctx) {
    Spec s = rt.fork(ctx, ForkModel::kMixed, [](Ctx&) {});
    JoinOutcome r = rt.join(ctx, s);
    benchmark::DoNotOptimize(r);
  });
  // The critical-path fork-latency ledger split, per round trip: idle-slot
  // claim, slot arming, worker handoff (spin-then-park pickup), join.
  const TimeLedger& l = rs.critical.ledger;
  using benchmark::Counter;
  auto per_iter = [&](TimeCat c) {
    return Counter(static_cast<double>(l.get(c)), Counter::kAvgIterations);
  };
  state.counters["find_cpu_ns"] = per_iter(TimeCat::kFindCpu);
  state.counters["fork_arm_ns"] = per_iter(TimeCat::kFork);
  state.counters["fork_handoff_ns"] = per_iter(TimeCat::kForkHandoff);
  state.counters["join_ns"] = per_iter(TimeCat::kJoin);
}
BENCHMARK(BM_ForkJoinRoundTrip);

void BM_DirectLoadStore(benchmark::State& state) {
  // Non-speculative view access: the relaxed direct path.
  Runtime rt({.num_cpus = 1, .buffer_log2 = 10});
  SharedArray<uint64_t> data(rt, 1024, 0);
  rt.run([&](Ctx& ctx) {
    SharedSpan<uint64_t> d = data.span(ctx);
    size_t i = 0;
    for (auto _ : state) {
      d[i & 1023] += 1;
      ++i;
    }
  });
}
BENCHMARK(BM_DirectLoadStore);

void BM_BufferedLoadStore(benchmark::State& state) {
  // Measures the speculative access path: each iteration forks one
  // speculation doing a fixed batch of buffered read-modify-writes (the
  // fork/join round trip amortizes over the batch), once per SpecBuffer
  // backend (arg: 0 = static-hash, 1 = growable-log).
  auto backend = static_cast<BufferBackend>(state.range(0));
  constexpr int64_t kBatch = 4096;
  Runtime rt({.num_cpus = 1, .buffer_log2 = 16, .buffer_backend = backend});
  SharedArray<uint64_t> data(rt, 1024, 0);
  RunStats rs = run_measured(state, rt, [&](Ctx& ctx) {
    Spec s = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
      SharedSpan<uint64_t> d = data.span(c);
      for (int64_t k = 0; k < kBatch; ++k) {
        d[static_cast<size_t>(k) & 1023] += 1;
      }
    });
    rt.join(ctx, s);
  });
  state.SetItemsProcessed(state.iterations() * kBatch);
  state.SetLabel(buffer_backend_name(backend));
  state.counters["avg_probe_len"] = rs.total().buffer.avg_probe_length();
}
BENCHMARK(BM_BufferedLoadStore)
    ->ArgNames({"backend"})
    ->Arg(0)
    ->Arg(1);

void BM_BufferedLargeFootprint(benchmark::State& state) {
  // A speculative footprint larger than the configured table (2^8 slots,
  // 16K words touched): the static hash dooms and rolls back, the growable
  // log resizes and commits — this is the trade the backend choice buys.
  auto backend = static_cast<BufferBackend>(state.range(0));
  Runtime rt({.num_cpus = 1,
              .buffer_log2 = 8,
              .overflow_cap = 256,
              .buffer_backend = backend});
  constexpr size_t kN = 16384;
  SharedArray<uint64_t> data(rt, kN, 0);
  RunStats rs = run_measured(state, rt, [&](Ctx& ctx) {
    Spec s = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
      SharedSpan<uint64_t> d = data.span(c);
      for (size_t k = 0; k < kN; ++k) {
        c.check_point();  // a doomed run stops here, as real code would
        d[k] += 1;
      }
    });
    rt.join(ctx, s);
  });
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(kN));
  state.SetLabel(buffer_backend_name(backend));
  state.counters["avg_probe_len"] = rs.total().buffer.avg_probe_length();
}
BENCHMARK(BM_BufferedLargeFootprint)
    ->ArgNames({"backend"})
    ->Arg(0)
    ->Arg(1);

void BM_LiveInTransfer(benchmark::State& state) {
  Runtime rt({.num_cpus = 1, .buffer_log2 = 10});
  SharedArray<uint64_t> out(rt, 1, 0);
  rt.run([&](Ctx& ctx) {
    int64_t v = 42;
    for (auto _ : state) {
      Spec s = rt.fork(
          ctx, ForkOpts{.predictions = {Prediction::of<int64_t>(&v, 42)}},
          [&](Ctx& c) {
            out.at(c, 0) = static_cast<uint64_t>(c.get_livein<int64_t>(0));
          });
      JoinOutcome r = rt.join(ctx, s);
      benchmark::DoNotOptimize(r);
    }
  });
}
BENCHMARK(BM_LiveInTransfer);

void BM_AddressSpaceLookup(benchmark::State& state) {
  Runtime rt({.num_cpus = 1, .buffer_log2 = 10});
  std::vector<SharedArray<uint64_t>*> arrays;
  for (int i = 0; i < 16; ++i) {
    arrays.push_back(new SharedArray<uint64_t>(rt, 256, 0));
  }
  const IntervalSet& space = rt.manager().address_space();
  size_t i = 0;
  for (auto _ : state) {
    uintptr_t lo, hi;
    bool ok = space.lookup(
        reinterpret_cast<uintptr_t>(arrays[i & 15]->data()) + 64, 8, &lo,
        &hi);
    benchmark::DoNotOptimize(ok);
    ++i;
  }
  for (auto* a : arrays) delete a;
}
BENCHMARK(BM_AddressSpaceLookup);

}  // namespace

BENCHMARK_MAIN();
