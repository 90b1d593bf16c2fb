// Microbenchmarks of the runtime primitives: fork/join round trip,
// buffered vs direct access through the typed shared views, live-in
// transfer, address-space lookup. These quantify the constant factors
// behind the paper's overhead discussion (section V-B).
#include <benchmark/benchmark.h>

#include "mutls/mutls.h"

namespace {

using namespace mutls;

// Warm-up fork/joins executed before the timed loop: enough for every
// virtual-CPU slot to pay its arena segments, pool classes along the
// growable doubling ladder and retired local frames. Past this point the
// runtime's zero-allocation steady-state invariant holds.
constexpr int kAllocWarmup = 8;

// Steady-state heap-fallback allocations: everything after the warm-up
// snapshot. Reported absolute (not per iteration) — the CI alloc budget
// requires exactly zero. The critical counter only lands at end_run, so it
// is absent from the mid-run snapshot; the root forker's handles stay
// inline (or in warmed root-arena segments), keeping that term zero too.
double steady_alloc_events(const RunStats& final_rs, const RunStats& warm) {
  uint64_t total = final_rs.speculative.buffer.alloc_events +
                   final_rs.critical.buffer.alloc_events;
  uint64_t warmed = warm.speculative.buffer.alloc_events +
                    warm.critical.buffer.alloc_events;
  return static_cast<double>(total - warmed);
}

void BM_ForkJoinRoundTrip(benchmark::State& state) {
  Runtime rt({.num_cpus = 1, .buffer_log2 = 10});
  RunStats warm;
  RunStats rs = rt.run([&](Ctx& ctx) {
    for (int i = 0; i < kAllocWarmup; ++i) {
      Spec s = rt.fork(ctx, ForkModel::kMixed, [](Ctx&) {});
      rt.join(ctx, s);
    }
    warm = rt.manager().collect_stats();
    for (auto _ : state) {
      Spec s = rt.fork(ctx, ForkModel::kMixed, [](Ctx&) {});
      JoinOutcome r = rt.join(ctx, s);
      benchmark::DoNotOptimize(r);
    }
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
  state.counters["alloc_events"] = steady_alloc_events(rs, warm);
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

// Attaches the per-backend buffer cost counters (SpecBufferStats folded
// into ThreadStats at settle) so backend comparisons carry their cost
// breakdown alongside raw throughput. Event counters span the whole run,
// so they are reported per iteration (comparable across runs whose
// auto-chosen iteration counts differ); avg_probe_len is already a ratio.
void attach_buffer_counters(benchmark::State& state, const RunStats& rs) {
  const SpecBufferStats& b = rs.speculative.buffer;
  using benchmark::Counter;
  state.counters["resize_events"] =
      Counter(static_cast<double>(b.resize_events), Counter::kAvgIterations);
  state.counters["overflow_events"] =
      Counter(static_cast<double>(b.overflow_events), Counter::kAvgIterations);
  state.counters["validated_words"] =
      Counter(static_cast<double>(b.validated_words), Counter::kAvgIterations);
  state.counters["avg_probe_len"] = b.avg_probe_length();
  // Access-path counters: word-view cache hits and misses.
  state.counters["mru_hits"] =
      Counter(static_cast<double>(b.mru_hits), Counter::kAvgIterations);
  state.counters["mru_misses"] =
      Counter(static_cast<double>(b.mru_misses), Counter::kAvgIterations);
  // Value prediction: all zero with prediction disabled (the default
  // here), but always *reported* — the bench_json micro gate fails when a
  // buffer-counter run stops carrying them, the same way it polices
  // alloc_events.
  state.counters["predicted_reads"] =
      Counter(static_cast<double>(b.predicted_reads), Counter::kAvgIterations);
  state.counters["predictor_hits"] =
      Counter(static_cast<double>(b.predictor_hits), Counter::kAvgIterations);
  state.counters["predictor_mispredicts"] = Counter(
      static_cast<double>(b.predictor_mispredicts), Counter::kAvgIterations);
  state.counters["saved_rollbacks"] =
      Counter(static_cast<double>(b.saved_rollbacks), Counter::kAvgIterations);
}

void BM_BufferedLoadStore(benchmark::State& state) {
  // Measures the speculative access path: each iteration forks one
  // speculation doing a fixed batch of buffered read-modify-writes (the
  // fork/join round trip amortizes over the batch), once per SpecBuffer
  // backend (arg: 0 = static-hash, 1 = growable-log).
  auto backend = static_cast<BufferBackend>(state.range(0));
  constexpr int64_t kBatch = 4096;
  Runtime rt({.num_cpus = 1, .buffer_log2 = 16, .buffer_backend = backend});
  SharedArray<uint64_t> data(rt, 1024, 0);
  RunStats warm;
  auto body = [&](Ctx& ctx) {
    Spec s = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
      SharedSpan<uint64_t> d = data.span(c);
      for (int64_t k = 0; k < kBatch; ++k) {
        d[static_cast<size_t>(k) & 1023] += 1;
      }
    });
    rt.join(ctx, s);
  };
  RunStats rs = rt.run([&](Ctx& ctx) {
    for (int i = 0; i < kAllocWarmup; ++i) body(ctx);
    warm = rt.manager().collect_stats();
    for (auto _ : state) body(ctx);
  });
  state.SetItemsProcessed(state.iterations() * kBatch);
  state.SetLabel(buffer_backend_name(backend));
  attach_buffer_counters(state, rs);
  state.counters["alloc_events"] = steady_alloc_events(rs, warm);
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
  int64_t iters = 0;
  RunStats warm;
  auto body = [&](Ctx& ctx) {
    Spec s = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
      SharedSpan<uint64_t> d = data.span(c);
      for (size_t k = 0; k < kN; ++k) {
        c.check_point();  // a doomed run stops here, as real code would
        d[k] += 1;
      }
    });
    rt.join(ctx, s);
  };
  RunStats rs = rt.run([&](Ctx& ctx) {
    for (int i = 0; i < kAllocWarmup; ++i) body(ctx);
    warm = rt.manager().collect_stats();
    for (auto _ : state) {
      ++iters;
      body(ctx);
    }
  });
  state.SetItemsProcessed(iters * static_cast<int64_t>(kN));
  state.SetLabel(buffer_backend_name(backend));
  attach_buffer_counters(state, rs);
  state.counters["rollbacks"] = static_cast<double>(rs.speculative.rollbacks);
  state.counters["commits"] = static_cast<double>(rs.speculative.commits);
  state.counters["alloc_events"] = steady_alloc_events(rs, warm);
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
