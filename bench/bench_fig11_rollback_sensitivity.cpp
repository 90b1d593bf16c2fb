// Figure 11 — rollback sensitivity, rebuilt around *genuine* memory
// conflicts (machine-parseable; parsed into the `fig11` section of
// BENCH_results.json by scripts/bench_json.py).
//
// The original prose bench injected rollbacks via the flag-probability
// knob, which short-circuits validation entirely — a fine way to tax the
// protocol, but useless for value prediction, whose whole point is to
// survive validation. This kernel instead manufactures real read-set
// conflicts with a deterministic schedule:
//
//   - One hot word. On "conflict epochs" — spread evenly so an injected
//     ratio p yields exactly floor(epochs*p) of them — the speculative
//     child reads the hot word into its read-set, then the root bumps it
//     by a constant stride *after* the child has provably read it (the
//     child publishes a raw atomic flag once its reads are done; this
//     side channel is bench scaffolding, not a runtime facility). At join
//     the child's observation mismatches memory: a guaranteed rollback.
//   - Every epoch the child also streams a small cold working set and
//     writes a digest word, so a rollback forfeits real work.
//
// With prediction off, the rollback ratio equals p by construction. With
// prediction on, consecutive conflicts move the hot word by the same
// stride, so the slot's predictor converges after three conflicts
// (create entry → candidate stride → confidence 2) and every later
// conflict epoch *commits*: the child adopted the predicted post-bump
// value. The cell counters are therefore deterministic, and this binary
// hard-fails (exit 1) if the acceptance property does not hold: at a
// ratio >= 20%, prediction-on must report saved_rollbacks > 0. It also
// hard-fails on any divergence from the sequential oracle (final hot and
// digest values), and on prediction counters leaking into predict=off
// cells. Throughput is reported, never asserted — timing is the one
// nondeterministic output.
//
// Output: one `RECORD section=cells ...` line per {backend x ratio x
// predict} cell, carrying every ThreadStats counter of the cell, and a
// `RECORD section=total` trailer. Flags: --quick shrinks the epoch count
// (CI smoke); other harness flags are accepted and ignored.
#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <thread>

#include "bench/common.h"
#include "mutls/mutls.h"
#include "support/timing.h"

namespace {

using namespace mutls;

constexpr int kRatioPcts[] = {1, 5, 10, 20, 50, 100};
constexpr BufferBackend kBackends[] = {BufferBackend::kStaticHash,
                                       BufferBackend::kGrowableLog};

constexpr size_t kColdWords = 64;
constexpr uint64_t kHotInit = 1000;
constexpr uint64_t kHotStride = 7;

// Epoch e is a conflict epoch iff the integer ramp floor((e+1)*pct/100)
// advances — exactly floor(epochs*pct/100) conflicts, spread evenly.
bool conflict_epoch(uint64_t e, int pct) {
  return (e + 1) * static_cast<uint64_t>(pct) / 100 >
         e * static_cast<uint64_t>(pct) / 100;
}

// The child's digest, replayed sequentially: the serialized semantics put
// the child after the root's bump, so on conflict epochs the oracle folds
// in the *post-bump* hot value.
uint64_t oracle_digest(bool conflict, uint64_t hot_after,
                       const uint64_t* cold) {
  uint64_t sum = conflict ? hot_after : 0;
  for (size_t i = 0; i < kColdWords; ++i) {
    sum = sum * 0x9e3779b97f4a7c15ull + cold[i] + (sum >> 7);
  }
  return sum;
}

struct CellResult {
  uint64_t epochs = 0;
  uint64_t conflicts = 0;
  ThreadStats stats;
  uint64_t wall_ns = 0;
};

bool run_cell(BufferBackend backend, int pct, bool predict, uint64_t epochs,
              CellResult* out) {
  Runtime::Options o;
  o.num_cpus = 1;
  o.buffer_log2 = 10;
  o.buffer_backend = backend;
  o.predict_enabled = predict;
  Runtime rt(o);
  SharedArray<uint64_t> hot(rt, 1, kHotInit);
  SharedArray<uint64_t> cold(rt, kColdWords, 0);
  SharedArray<uint64_t> digest(rt, 1, 0);
  for (size_t i = 0; i < kColdWords; ++i) cold[i] = i + 1;

  uint64_t conflicts = 0;
  uint64_t expected_digest = 0;
  std::atomic<bool> reads_done{false};
  Stopwatch sw;
  RunStats rs = rt.run([&](Ctx& ctx) {
    SharedSpan<uint64_t> h = hot.span(ctx);  // root: direct access
    for (uint64_t e = 0; e < epochs; ++e) {
      const bool conflict = conflict_epoch(e, pct);
      reads_done.store(false, std::memory_order_relaxed);
      Spec s = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
        SharedSpan<uint64_t> hh = hot.span(c);
        SharedSpan<uint64_t> cc = cold.span(c);
        SharedSpan<uint64_t> dd = digest.span(c);
        uint64_t sum = conflict ? hh[0] : 0;
        for (size_t i = 0; i < kColdWords; ++i) {
          sum = sum * 0x9e3779b97f4a7c15ull + cc[i] + (sum >> 7);
        }
        dd[0] = sum;
        // Bench scaffolding: tell the root the read-set is final. (Set on
        // inline re-execution too — the root is already past its wait.)
        reads_done.store(true, std::memory_order_release);
      });
      if (conflict) {
        if (s.speculated()) {
          // Bump only after the child's speculative read: the conflict
          // must be real, not a race the child might win.
          while (!reads_done.load(std::memory_order_acquire)) {
            std::this_thread::yield();
          }
        }
        h[0] += kHotStride;
        ++conflicts;
      }
      rt.join(ctx, s);
      expected_digest = oracle_digest(conflict, hot[0], cold.data());
    }
  });
  out->epochs = epochs;
  out->conflicts = conflicts;
  out->stats = rs.total();
  out->wall_ns = sw.elapsed_ns();

  bool ok = true;
  if (hot[0] != kHotInit + conflicts * kHotStride) {
    std::fprintf(stderr,
                 "FIG11 FAIL: hot word diverged from the sequential oracle "
                 "(%" PRIu64 " vs %" PRIu64 ")\n",
                 hot[0], kHotInit + conflicts * kHotStride);
    ok = false;
  }
  if (epochs > 0 && digest[0] != expected_digest) {
    std::fprintf(stderr,
                 "FIG11 FAIL: digest diverged from the sequential oracle "
                 "(%016" PRIx64 " vs %016" PRIx64 ")\n",
                 digest[0], expected_digest);
    ok = false;
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--quick")) quick = true;
  }
  const uint64_t epochs = quick ? 800 : 6000;

  bool ok = true;
  int cells = 0;
  Stopwatch total;
  for (BufferBackend backend : kBackends) {
    const char* backend_name = buffer_backend_name(backend);
    for (int pct : kRatioPcts) {
      for (int predict = 0; predict <= 1; ++predict) {
        CellResult r;
        ok &= run_cell(backend, pct, predict != 0, epochs, &r);
        double secs = static_cast<double>(r.wall_ns) * 1e-9;
        bench::Record("cells")
            .kv("backend", backend_name)
            .kv("ratio_pct", pct)
            .kv("predict", predict ? "on" : "off")
            .kv("epochs", r.epochs)
            .kv("conflicts", r.conflicts)
            .counters(r.stats)
            .kv("wall_ns", r.wall_ns)
            .kv("epochs_per_s",
                secs > 0 ? static_cast<double>(r.epochs) / secs : 0.0);
        ++cells;
        const SpecBufferStats& b = r.stats.buffer;
        if (!predict && (b.predicted_reads != 0 || b.saved_rollbacks != 0)) {
          std::fprintf(stderr,
                       "FIG11 FAIL: prediction counters leaked into a "
                       "predict=off cell (backend=%s ratio_pct=%d)\n",
                       backend_name, pct);
          ok = false;
        }
        if (predict && pct >= 20 && b.saved_rollbacks == 0) {
          std::fprintf(stderr,
                       "FIG11 FAIL: predict=on saved no rollbacks at "
                       "ratio_pct=%d on backend=%s — the predictor never "
                       "converted a conflict into a commit\n",
                       pct, backend_name);
          ok = false;
        }
      }
    }
  }
  bench::Record("total").kv("cells", cells).kv("wall_ns", total.elapsed_ns());
  return ok ? 0 : 1;
}
