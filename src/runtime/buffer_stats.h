// Cost counters of a speculative-buffer backend.
//
// Every SpecBuffer backend accumulates the same counter set so backend
// comparisons (bench_ablation_buffer_map, bench_micro_runtime) carry their
// cost breakdown: a static-hash run reports overflow exhaustions, a
// growable-log run reports rehashes and probe lengths, and both report how
// many words validation had to compare. The counters survive reset() — the
// settle paths read them after resetting the buffer — and are zeroed by
// clear_stats() when a virtual-CPU slot is re-armed for a new speculation.
#pragma once

#include <cstdint>

namespace mutls {

struct SpecBufferStats {
  uint64_t overflow_events = 0;  // capacity-exhaustion dooms: the bounded
                                 // overflow map (static hash) or the hard
                                 // index cap (growable log)
  uint64_t resize_events = 0;    // growable-log: index rehashes
  uint64_t probe_steps = 0;      // open-addressing steps beyond the home slot
  uint64_t probe_ops = 0;        // probed lookups (avg length = steps / ops)
  uint64_t validated_words = 0;  // read-set words compared at validation
  uint64_t mru_hits = 0;         // word loads and stores served by their
                                 // word-view line without a set probe
  uint64_t mru_misses = 0;       // ones that had to probe the sets
  uint64_t alloc_events = 0;     // heap-fallback allocations the slot's
                                 // arena performed during this speculation
                                 // (segment growth, pool misses, oversized
                                 // closures). Zero at steady state — the
                                 // invariant the CI alloc budget enforces.
  uint64_t predicted_reads = 0;  // first-touch reads adopted from a
                                 // confident predictor entry instead of
                                 // memory (value prediction enabled only)
  uint64_t predictor_hits = 0;   // predicted reads whose predicted value
                                 // matched the settled value at validation
  uint64_t predictor_mispredicts = 0;  // predicted reads whose prediction
                                       // missed — contained by the doom
                                       // path with the mispredict reason
  uint64_t saved_rollbacks = 0;  // speculations that validated *because*
                                 // prediction overrode a stale observation
                                 // (some predicted read saw memory change
                                 // under it) — each one is a rollback the
                                 // unpredicted runtime provably pays

  void clear() { *this = SpecBufferStats{}; }

  // Average open-addressing probe length per lookup (0 when none ran).
  double avg_probe_length() const {
    return probe_ops ? static_cast<double>(probe_steps) /
                           static_cast<double>(probe_ops)
                     : 0.0;
  }

  SpecBufferStats& operator+=(const SpecBufferStats& o) {
    overflow_events += o.overflow_events;
    resize_events += o.resize_events;
    probe_steps += o.probe_steps;
    probe_ops += o.probe_ops;
    validated_words += o.validated_words;
    mru_hits += o.mru_hits;
    mru_misses += o.mru_misses;
    alloc_events += o.alloc_events;
    predicted_reads += o.predicted_reads;
    predictor_hits += o.predictor_hits;
    predictor_mispredicts += o.predictor_mispredicts;
    saved_rollbacks += o.saved_rollbacks;
    return *this;
  }
};

}  // namespace mutls
