// Cost counters of a speculative-buffer backend.
//
// Every SpecBuffer backend accumulates the same counter set so backend
// comparisons (bench_ablation_buffer_map, bench_micro_runtime) carry their
// cost breakdown: a static-hash run reports overflow exhaustions, a
// growable-log run reports rehashes and probe lengths, and both report how
// many words validation had to compare. The counters survive reset() — the
// settle paths read them after resetting the buffer — and are zeroed by
// clear_stats() when a virtual-CPU slot is re-armed for a new speculation.
//
// A counter table, X(name, doc), is the only declaration of its counters:
// it expands to the uint64_t fields in table order, to operator+= and to
// for_each_counter(f), which calls f(name, value) for each counter in
// order and is what the bench printers go through. A new counter is one
// line in its table.
#pragma once

#include <cstdint>

#define MUTLS_COUNTER_FIELD(name, doc) uint64_t name = 0;
#define MUTLS_COUNTER_ADD(name, doc) name += o.name;
#define MUTLS_COUNTER_VISIT(name, doc) f(#name, name);
#define MUTLS_COUNTER_ONE(name, doc) +1

#define MUTLS_SPEC_BUFFER_COUNTERS(X)                                        \
  X(overflow_events,                                                         \
    "capacity-exhaustion dooms: the bounded overflow map (static hash) or "  \
    "the hard index cap (growable log)")                                     \
  X(resize_events, "growable-log: index rehashes")                           \
  X(probe_steps, "open-addressing steps beyond the home slot")               \
  X(probe_ops, "probed lookups (avg length = steps / ops)")                  \
  X(validated_words, "read-set words compared at validation")                \
  X(mru_hits,                                                                \
    "word loads and stores served by their word-view line without a set "    \
    "probe")                                                                 \
  X(mru_misses, "ones that had to probe the sets")                           \
  X(alloc_events,                                                            \
    "heap-fallback allocations the slot's arena performed during this "      \
    "speculation (segment growth, pool misses, oversized closures). Zero "   \
    "at steady state: the invariant the CI alloc budget enforces")           \
  X(predicted_reads,                                                         \
    "first-touch reads adopted from a confident predictor entry instead "    \
    "of memory (value prediction enabled only)")                             \
  X(predictor_hits,                                                          \
    "predicted reads whose predicted value matched the settled value at "    \
    "validation")                                                            \
  X(predictor_mispredicts,                                                   \
    "predicted reads whose prediction missed, contained by the doom path "   \
    "with the mispredict reason")                                            \
  X(saved_rollbacks,                                                         \
    "speculations that validated because prediction overrode a stale "       \
    "observation (some predicted read saw memory change under it): each "    \
    "one is a rollback the unpredicted runtime provably pays")

namespace mutls {

struct SpecBufferStats {
  MUTLS_SPEC_BUFFER_COUNTERS(MUTLS_COUNTER_FIELD)

  static constexpr int kCounters =
      0 MUTLS_SPEC_BUFFER_COUNTERS(MUTLS_COUNTER_ONE);

  void clear() { *this = SpecBufferStats{}; }

  // Average open-addressing probe length per lookup (0 when none ran).
  double avg_probe_length() const {
    return probe_ops ? static_cast<double>(probe_steps) /
                           static_cast<double>(probe_ops)
                     : 0.0;
  }

  SpecBufferStats& operator+=(const SpecBufferStats& o) {
    MUTLS_SPEC_BUFFER_COUNTERS(MUTLS_COUNTER_ADD)
    return *this;
  }

  template <class F>
  void for_each_counter(F&& f) const {
    MUTLS_SPEC_BUFFER_COUNTERS(MUTLS_COUNTER_VISIT)
  }
};

// A counter declared outside the table would escape operator+= and the
// printers; it fails the build here instead.
static_assert(sizeof(SpecBufferStats) ==
              SpecBufferStats::kCounters * sizeof(uint64_t));

}  // namespace mutls
