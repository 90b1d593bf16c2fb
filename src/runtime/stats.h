// Per-thread and aggregated execution statistics.
//
// These feed every figure of the paper's evaluation: speedups come from
// wall time, Figures 5-9 from the TimeLedger categories, Table II's memory
// access density from the speculative load/store counters, and the
// coverage/power metrics from the runtime sums.
#pragma once

#include <cstdint>

#include "runtime/buffer_stats.h"
#include "support/timing.h"

namespace mutls {

// The scalar counters of one thread, in field order: X(name, doc), as
// the buffer table in "runtime/buffer_stats.h".
#define MUTLS_THREAD_COUNTERS(X)                                             \
  X(loads,                                                                   \
    "shared loads, counted by speculative threads only: the "                \
    "non-speculative thread's accesses take the uncounted direct path, so "  \
    "RunStats::critical reads 0 here")                                       \
  X(stores, "shared stores, counted as loads are")                           \
  X(forks, "successful speculations")                                        \
  X(fork_denied, "admission or no-IDLE-CPU failures")                        \
  X(commits, "speculations that validated and committed")                    \
  X(rollbacks, "speculations that settled by rolling back")                  \
  X(nosyncs, "speculations discarded without a join (NOSYNC)")               \
  X(back_edges, "loop back edges executed (region profiler)")                \
  X(runtime_ns, "total wall time attributed to this thread")

struct ThreadStats {
  TimeLedger ledger;

  MUTLS_THREAD_COUNTERS(MUTLS_COUNTER_FIELD)

  // Per-backend buffer cost counters, accumulated at each settle: overflow
  // exhaustions (static-hash), index rehashes (growable-log), probe
  // lengths and validation word counts (both). These carry the cost
  // breakdown behind backend comparisons.
  SpecBufferStats buffer;

  static constexpr int kCounters =
      0 MUTLS_THREAD_COUNTERS(MUTLS_COUNTER_ONE);

  void clear() { *this = ThreadStats{}; }

  ThreadStats& operator+=(const ThreadStats& o) {
    ledger += o.ledger;
    MUTLS_THREAD_COUNTERS(MUTLS_COUNTER_ADD)
    buffer += o.buffer;
    return *this;
  }

  // The thread's counters, then its buffer's.
  template <class F>
  void for_each_counter(F&& f) const {
    MUTLS_THREAD_COUNTERS(MUTLS_COUNTER_VISIT)
    buffer.for_each_counter(f);
  }
};

// As for SpecBufferStats: a counter declared outside the table fails the
// build here.
static_assert(sizeof(ThreadStats) ==
              sizeof(TimeLedger) + sizeof(SpecBufferStats) +
                  ThreadStats::kCounters * sizeof(uint64_t));

// Snapshot of one parallel run: the critical (non-speculative) path plus the
// sum over all speculative threads, as the paper's metrics require.
struct RunStats {
  ThreadStats critical;
  ThreadStats speculative;
  uint64_t speculative_threads = 0;

  // The critical path and the speculative threads together.
  ThreadStats total() const {
    ThreadStats t = critical;
    t += speculative;
    return t;
  }

  // Critical path efficiency eta_crit = Twork_nonsp / Truntime_nonsp.
  double critical_efficiency() const {
    return critical.runtime_ns
               ? static_cast<double>(critical.ledger.get(TimeCat::kWork)) /
                     static_cast<double>(critical.runtime_ns)
               : 1.0;
  }

  // Speculative path efficiency eta_sp = sum Twork_sp / sum Truntime_sp.
  double speculative_efficiency() const {
    return speculative.runtime_ns
               ? static_cast<double>(speculative.ledger.get(TimeCat::kWork)) /
                     static_cast<double>(speculative.runtime_ns)
               : 1.0;
  }

  // Power efficiency eta_power = Ts / (Truntime_nonsp + sum Truntime_sp),
  // given the sequential runtime Ts in ns.
  double power_efficiency(uint64_t sequential_ns) const {
    uint64_t all = critical.runtime_ns + speculative.runtime_ns;
    return all ? static_cast<double>(sequential_ns) / static_cast<double>(all)
               : 1.0;
  }

  // Parallel execution coverage C = sum Truntime_sp / Truntime_nonsp.
  double coverage() const {
    return critical.runtime_ns
               ? static_cast<double>(speculative.runtime_ns) /
                     static_cast<double>(critical.runtime_ns)
               : 0.0;
  }

  // Memory access density rho = Nrw / T (accesses per second), Table II,
  // taken from the speculative threads, the only ones that count their
  // accesses: Nrw is their loads and stores, T the time they spent running
  // their regions (work and wasted work, so the barrier wait and the
  // protocol's own time are left out). 0 when no speculation ran.
  double access_density() const {
    uint64_t n = speculative.loads + speculative.stores;
    uint64_t t = speculative.ledger.get(TimeCat::kWork) +
                 speculative.ledger.get(TimeCat::kWastedWork);
    return t ? static_cast<double>(n) / (static_cast<double>(t) * 1e-9) : 0.0;
  }
};

}  // namespace mutls
