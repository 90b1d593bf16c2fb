// Discrete-event TLS simulator.
//
// Substitute for the paper's 64-core AMD Opteron 6274, which no ordinary
// host matches (README.md, "Measured vs modeled speedup"): the simulator
// executes the same structured task trees as the native runtime —
// forking-model admission, bounded virtual-CPU pool, LIFO joins,
// validation/commit costs proportional to buffer footprints, inline
// re-execution after rollback — over *virtual* time, so speedup and
// breakdown curves can be produced for any CPU count on any host.
//
// A model is a sequence of phases; each phase is a tree of SimNodes. One
// SimNode describes one speculated region: the children it forks at its
// start (joined LIFO after its own work), the nodes it executes inline as
// the same thread, its own work, and its read/write footprints in words.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "runtime/enums.h"
#include "support/prng.h"

namespace mutls::sim {

struct SimNode {
  std::vector<SimNode*> forks;         // speculated at task start, in order
  std::vector<SimNode*> inline_nodes;  // executed by this same thread next
  double own_work = 0;                 // microseconds of pure computation
  double read_words = 0;               // read-set footprint (words)
  double write_words = 0;              // write-set footprint (words)
  // True for regions that conflict with state buffered in a speculative
  // forker (matmult's accumulate-phase sub-sub-tasks): they validate fine
  // when forked by the non-speculative thread but roll back otherwise.
  bool conflict_under_spec = false;

  // Loop-chain phase (the paper's loop speculation with counter-based
  // resumption): when chain_chunks > 0 this node is an in-order chunked
  // loop. The calling thread both consumes (joins) committed chunks and
  // executes chunks itself when speculation cannot keep up, so chunks
  // spread over min(CPUs, chunks) workers. read_words/write_words are per
  // chunk. chain_weights, when non-empty, scales chunk i's work by
  // chain_weights[i % size] (load imbalance, e.g. mandelbrot rows).
  int chain_chunks = 0;
  double chain_chunk_work = 0;
  std::vector<double> chain_weights;
};

// Arena-owning model: phases run sequentially on the non-speculative thread.
struct SimModel {
  std::deque<SimNode> arena;
  std::vector<SimNode*> phases;

  // Slowdown of work executed on a speculative thread relative to the
  // non-speculative thread: every load/store goes through the software
  // buffers (paper IV-G), which is what caps the memory-intensive
  // benchmarks at small speedups. 1.0 = access-free compute.
  double spec_work_factor = 1.0;

  SimNode* node() {
    arena.emplace_back();
    return &arena.back();
  }
};

struct SimCosts {
  double find_cpu = 0.2;          // us per MUTLS_get_CPU
  double fork = 1.5;              // us per successful speculation
  double join_bookkeep = 0.5;     // us per synchronize
  double per_word_validate = 0.0005;  // us per read-set word
  double per_word_commit = 0.0005;    // us per write-set word
  double finalize = 0.3;          // us per thread finalization
  // How quickly a running speculative thread notices SYNC/NOSYNC: the
  // check-point polling interval (paper IV-E inserts check points inside
  // inner loops so "the non-speculative thread need not wait overly long").
  double checkpoint_poll = 50.0;
};

// Per-path breakdown, mirroring TimeCat (all in virtual microseconds).
struct SimBreakdown {
  double work = 0, find_cpu = 0, fork = 0, join = 0, idle = 0;
  double validation = 0, commit = 0, finalize = 0, wasted = 0;

  double total() const {
    return work + find_cpu + fork + join + idle + validation + commit +
           finalize + wasted;
  }
};

struct SimResult {
  double sequential_time = 0;  // total work of the model (Ts)
  double critical_time = 0;    // finish time of the non-speculative thread
  SimBreakdown critical;
  SimBreakdown speculative;    // aggregate over all speculative threads
  double spec_runtime_sum = 0;
  uint64_t forks = 0, denied = 0, commits = 0, rollbacks = 0;

  double speedup() const {
    return critical_time > 0 ? sequential_time / critical_time : 1.0;
  }
  double critical_efficiency() const {
    return critical_time > 0 ? critical.work / critical_time : 1.0;
  }
  double speculative_efficiency() const {
    return spec_runtime_sum > 0 ? speculative.work / spec_runtime_sum : 1.0;
  }
  double power_efficiency() const {
    double all = critical_time + spec_runtime_sum;
    return all > 0 ? sequential_time / all : 1.0;
  }
  double coverage() const {
    return critical_time > 0 ? spec_runtime_sum / critical_time : 0.0;
  }
  double rollback_fraction() const {
    uint64_t n = commits + rollbacks;
    return n ? static_cast<double>(rollbacks) / static_cast<double>(n) : 0.0;
  }
};

class Simulator {
 public:
  struct Options {
    int num_cpus = 4;
    ForkModel model = ForkModel::kMixed;
    SimCosts costs;
    double rollback_probability = 0.0;
    uint64_t seed = 0x5eed;
    // Ablation: emulate the *linear* mixed model of prior systems
    // (Mitosis/POSH/safe futures): once any speculation rolls back, every
    // subsequently joined speculation of the phase rolls back too, instead
    // of containing the cascade to the failing subtree (paper section II).
    bool linear_cascade = false;
  };

  explicit Simulator(const Options& opt);

  SimResult run(const SimModel& model);

  // Total work of a subtree (virtual sequential execution time).
  static double seq_work(const SimNode& n);

 private:
  struct CpuSlot {
    double busy_until = 0;
  };

  // Simulates `n` executed by the thread identified by `self` starting at
  // virtual time t; returns the finish time. `self == nullptr` denotes the
  // non-speculative thread. `bd` is that thread's breakdown ledger.
  double sim_node(const SimNode& n, double t, const SimNode* self,
                  SimBreakdown& bd);

  // Adoption-based loop chain (chain_chunks > 0).
  double sim_chain(const SimNode& n, double t, const SimNode* self,
                   SimBreakdown& bd);

  bool admission(const SimNode* self, double t) const;
  int acquire_cpu(double t);

  Options opt_;
  std::vector<CpuSlot> cpus_;
  Xorshift64 rng_;
  SimResult res_;
  double spec_factor_ = 1.0;  // from the model being run

  // In-order chain state: the most recently forked live node and the time
  // its chain drains.
  const SimNode* chain_tail_ = nullptr;
  double chain_busy_until_ = 0;

  // Linear-cascade ablation state (reset per phase).
  bool cascade_active_ = false;
};

}  // namespace mutls::sim
