// The ThreadManager (paper section IV-B): owns one ThreadData, SpecBuffer
// and LocalBuffer per virtual CPU, launches speculative threads at fork
// points, and implements the tree-form mixed-model synchronization of
// section IV-F, including NOSYNC of non-conforming children and adoption of
// a joined child's children.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/enums.h"
#include "runtime/stats.h"
#include "runtime/thread_data.h"
#include "support/function_ref.h"
#include "support/inline_task.h"
#include "support/interval_set.h"
#include "support/timing.h"

namespace mutls {

// The runtime's knobs, declared once: `Runtime::Options` is this struct,
// and the IR interpreter takes it as its constructor argument, so both
// embeddings (paper IV-B) configure the same ThreadManager the same way.
// Every field has a default; a designated initializer names only the
// fields it changes.
struct ManagerConfig {
  // Number of virtual CPUs available for speculative threads (the paper's
  // rank range 1..N). The non-speculative thread is extra.
  int num_cpus = 4;

  // log2 of the entry count of each read/write set (paper IV-G2). The
  // static hash reserves its tables at construction and commits them page
  // by page as speculations touch them. For the growable-log backend this
  // is the *initial* capacity.
  int buffer_log2 = 16;

  // Capacity of the temporary (overflow) buffer per set (static-hash
  // backend only; the growable-log backend resizes instead).
  size_t overflow_cap = 4096;

  // Speculative-buffer backend for every virtual CPU (see BufferBackend in
  // "runtime/enums.h" and "Choosing a buffer backend" in the README): the
  // paper's static hash with overflow-doom, or the growable log that
  // resizes under capacity pressure.
  BufferBackend buffer_backend = BufferBackend::kStaticHash;

  // Value prediction (see "Value prediction" in the README). Off by
  // default: speculative reads observe memory and every conflict rolls
  // back. Enabled, a per-slot last-value/stride predictor — trained at
  // settle from the final values of conflicting read-set words — lets
  // confident first-touch reads adopt the predicted settled value, turning
  // a would-be rollback into a validated commit (counted as
  // saved_rollbacks); mispredicts ride the ordinary doom path. The table
  // shape and confidence threshold are SpecPredictPolicy's defaults.
  bool predict_enabled = false;

  // Rollback injection probability per speculative thread (paper Fig. 11).
  double rollback_probability = 0.0;

  // Seed for deterministic injection decisions.
  uint64_t seed = 0x5eed;

  // Iterations a worker spins on the handoff flag before parking on its
  // condvar. 0 (the default) calibrates at first manager construction: a
  // one-shot probe times the spin primitive on this machine and sizes the
  // budget to ~4µs of spinning — long enough that a forker running ahead
  // of its workers never pays a futex wakeup, short enough that an idle
  // pool is off the scheduler within microseconds regardless of how the
  // host implements cpu_relax (pause vs yield changes the per-iteration
  // cost by orders of magnitude, which is why a fixed count was wrong).
  int handoff_spin_budget = 0;

  // How long Runtime::run waits for a protocol violation (a fork the user
  // never joined) to drain before CHECK-failing instead of hanging.
  uint64_t missing_join_timeout_ns = 5'000'000'000ull;

  // Structured fork sites (`fork_scoped`, `spec_for`) stop forking where
  // their speculations cost more than running the region inline, and
  // probe again at exponentially spaced calls (detail::ForkGate in
  // "api/spec.h"). Off, every structured fork asks for a CPU, as the raw
  // Runtime::fork always does: the benches and tests that measure or
  // exercise the protocol itself turn it off.
  bool adaptive_forks = true;
};

// The handoff spin budget a manager with this config will run with: the
// explicit value, or the memoized calibration probe's (see
// ManagerConfig::handoff_spin_budget). Exposed for tests and diagnostics.
int resolve_handoff_spin_budget(int configured);

class ThreadManager {
 public:
  // Owning task storage of a virtual-CPU slot: 128 bytes inline, arena
  // spill past that — never the global heap after warm-up (the
  // zero-allocation steady-state invariant).
  using Task = InlineTask<void(ThreadData&)>;

  // How long a discard handshake waits for the discarded task (and its
  // subtree) to settle before declaring a protocol violation. Tasks are
  // expected to reach a check point or barrier well within this window.
  static constexpr uint64_t kDiscardSettleTimeoutNs = 30'000'000'000ull;

  explicit ThreadManager(const ManagerConfig& config);
  ~ThreadManager();

  ThreadManager(const ThreadManager&) = delete;
  ThreadManager& operator=(const ThreadManager&) = delete;

  // ThreadData of the non-speculative thread (rank 0).
  ThreadData& root() { return root_; }

  // MUTLS_get_CPU + MUTLS_speculate: applies the forking-model admission
  // policy, claims an IDLE virtual CPU, arms its ThreadData and launches
  // `task` on it. Returns the child rank, or 0 when speculation is denied
  // (no IDLE CPU or model admission failed) — the caller then simply
  // continues sequentially, as in the paper. `setup`, when given, runs on
  // the forker between arming and launching: this is where the proxy
  // function stores live-in register/stack variables into the child's
  // LocalBuffer (paper IV-D step (2)); it is invoked synchronously, so a
  // non-owning FunctionRef suffices.
  //
  // A template so the caller's closure moves straight into the claimed
  // slot's Task storage — inline for small captures, the slot's arena for
  // large ones — with no intermediate type-erased heap copy. On denial the
  // closure is never stored at all.
  template <typename TaskF>
  int speculate(ThreadData& forker, ForkModel model, TaskF&& task,
                FunctionRef<void(ThreadData&)> setup = {}) {
    uint64_t t0 = now_ns();
    int rank = admit_and_claim(forker, model);
    forker.stats.ledger.add(TimeCat::kFindCpu, now_ns() - t0);
    if (rank == 0) {
      ++forker.stats.fork_denied;
      return 0;
    }
    uint64_t t1 = now_ns();
    Cpu& c = arm_cpu(rank, forker);
    if (setup) setup(c.data);
    ++forker.stats.forks;
    uint64_t t2 = now_ns();
    forker.stats.ledger.add(TimeCat::kFork, t2 - t1);
    // Emplaced only after the claim, spilling (if at all) into the *child*
    // slot's just-rearmed arena: between claim and handoff the slot has a
    // single owner, and the worker destroys the task before the slot
    // settles, so a spilled closure never outlives its epoch.
    c.task.emplace(std::forward<TaskF>(task), &c.data.arena);
    publish_task(c);
    forker.stats.ledger.add(TimeCat::kForkHandoff, now_ns() - t2);
    return rank;
  }

  enum class JoinResult { kCommit, kRollback, kNotFound };

  // MUTLS_synchronize: scans `joiner.children` down to `expect`,
  // NOSYNC-ing mismatched children stacked above it (non-conforming
  // mixed-model usage); performs the flag-based barrier with the child;
  // adopts the child's children either way; reclaims the CPU. The
  // conforming case — joining the most recent fork — touches no container
  // at all. `force_rollback` communicates a failed live-in validation.
  // `out_tag`, when non-null, receives the child's user_tag (see
  // ThreadData) so adopted children can be re-executed after rollback.
  // `on_settled` is invoked synchronously before the child's slot is
  // reclaimed (a non-owning FunctionRef, like `setup`).
  JoinResult synchronize(ThreadData& joiner, ChildRef expect,
                         bool force_rollback = false,
                         uint64_t* out_tag = nullptr,
                         FunctionRef<void(ThreadData&)> on_settled = {});

  // Aborts the remaining subtree of `td` down to `keep` children (used when
  // a speculative task unwinds without joining its children — cascading
  // rollback stays within the subtree — and when an exception abandons a
  // loop or a run whose speculations are still live).
  // Blocks until every discarded speculation has settled: on return none of
  // the discarded tasks is still executing, so closures capturing the
  // caller's stack frame are safe to destroy.
  void nosync_children(ThreadData& td, size_t keep = 0);

  // Address-space registration (paper IV-G1).
  void register_space(const void* p, size_t n);
  void unregister_space(const void* p, size_t n);
  bool space_contains(const void* p, size_t n) const;
  const IntervalSet& address_space() const { return space_; }

  // Bumped on every unregistration; per-Ctx span caches compare it so a
  // cached positive lookup cannot outlive the registration it proved
  // (memory can be unregistered mid-run, e.g. algorithm-local scratch).
  // A Ctx keeps the address of the counter and reads it on every access.
  const std::atomic<uint64_t>& space_epoch() const { return space_epoch_; }

  // Number of speculative threads currently live.
  int live_threads() const;

  // True when `td` may fork under `model` right now (admission policy
  // only; an IDLE CPU must additionally exist). Exposed for tests.
  bool admission_allows(const ThreadData& td, ForkModel model) const;

  // Statistics: aggregate of all *finished* speculative threads plus the
  // root. Call between runs, when no speculation is live.
  RunStats collect_stats();
  void reset_stats();

  // Marks the start of the non-speculative measured region (resets the
  // root runtime baseline).
  void begin_run();
  void end_run();

  const ManagerConfig& config() const { return config_; }

  int num_cpus() const { return config_.num_cpus; }

  // The spin budget every worker uses (calibrated when the config said 0;
  // see resolve_handoff_spin_budget).
  int handoff_spin_budget() const { return spin_budget_; }

 private:
  struct Cpu {
    ThreadData data;
    std::thread worker;
    // Spin-then-park task handoff. The forker writes `task`, then raises
    // `has_task` (the claim through the idle freelist guarantees a single
    // producer); the worker spins briefly on the flag and only then parks
    // on the condvar, so a fork whose worker is still in its spin window
    // never pays a futex wakeup. `parked` tells the producer whether a
    // notify is needed at all; the flag pair uses seq_cst so the classic
    // flag/flag lost-wakeup interleaving cannot happen. mu guards only the
    // parking itself.
    std::mutex mu;
    std::condition_variable cv;
    Task task;  // written by the forker before has_task is raised
    std::atomic<bool> has_task{false};
    std::atomic<bool> shutdown{false};
    std::atomic<bool> parked{false};
    std::atomic<CpuState> state{CpuState::kIdle};
    // Link of the lock-free idle-rank freelist (rank of the next idle CPU,
    // 0 = end of list). Only written between unlink and relink, when this
    // CPU has a single owner.
    std::atomic<int> next_idle{0};
    uint64_t next_epoch = 1;
    // Epoch of the last speculation on this slot whose task has fully
    // settled (committed, rolled back or NOSYNC-discarded). Monotonic per
    // slot; the discard handshake spins on it, making a discard
    // synchronous rather than a fire-and-forget signal.
    std::atomic<uint64_t> settled_epoch{0};
  };

  void worker_loop(Cpu& cpu);

  // The lock-free idle-rank freelist: a Treiber stack over the
  // Cpu::next_idle links whose head packs a 32-bit ABA tag next to the
  // rank.
  int pop_idle();
  void push_idle(int rank);

  // Pop plus the shared bookkeeping (live count, chain head); 0 when no
  // CPU is idle. The admission branches of speculate() differ only in
  // whether they hold policy_mu_ around it.
  int claim_cpu();

  // The non-template halves of speculate(): model admission + CPU claim
  // (0 = denied), arming the claimed slot for the forker, and the
  // spin-then-park handoff publication.
  int admit_and_claim(ThreadData& forker, ForkModel model);
  Cpu& arm_cpu(int rank, ThreadData& forker);
  void publish_task(Cpu& cpu);

  // Barrier-side protocol of the speculative thread: wait for a signal,
  // validate, commit or roll back, publish valid_status. Owns destroying
  // `task` (the slot's closure): before the settle publication, so a
  // spilled closure is recycled before any new forker can re-arm the
  // slot's arena.
  void barrier_and_settle(Cpu& cpu, Task& task);

  // Policy bookkeeping when a speculative thread finishes (either reclaimed
  // by a joiner or self-freed after NOSYNC). Takes policy_mu_ internally to
  // serialize the in-order chain bookkeeping against in-order admissions.
  void on_thread_finished(int rank);

  // The two halves of the discard handshake. signal_discard raises NOSYNC
  // on the child named by `ref` (if that speculation is still the slot's
  // occupant); wait_discarded blocks until it has settled. Kept separate
  // so a batch of discards can be signalled first and then waited on —
  // the subtrees drain concurrently and teardown latency is the max of
  // the drains, not their sum.
  void signal_discard(const ChildRef& ref);
  void wait_discarded(const ChildRef& ref);

  void aggregate_stats(ThreadData& td);

  Cpu& cpu(int rank) {
    MUTLS_DCHECK(rank >= 1 && rank <= config_.num_cpus, "bad rank");
    return *cpus_[static_cast<size_t>(rank - 1)];
  }

  ManagerConfig config_;
  // Handoff spin budget of every worker, resolved at construction.
  const int spin_budget_;
  std::vector<std::unique_ptr<Cpu>> cpus_;
  ThreadData root_;

  // Idle freelist head: (aba_tag << 32) | rank, rank 0 = empty. Every
  // fork and join CASes it, so it gets a cache line of its own: policy_mu_
  // starts the next one, keeping the policy state below off this line.
  alignas(64) std::atomic<uint64_t> idle_head_{0};

  // kMixed and kOutOfOrder admissions are decided and claimed without any
  // lock (the policy state is atomic and the claim is the freelist CAS);
  // policy_mu_ serializes only kInOrder admission — whose check-then-claim
  // must be atomic against other in-order forks — and the chain-shrink
  // bookkeeping when a thread finishes. A *concurrent* mixed-model claim
  // can therefore interleave with an in-order admission and move the chain
  // head mid-check; that is accepted: admission is a performance policy,
  // not a safety property (the synchronize protocol validates every
  // speculation identically however it was admitted), and even the old
  // fully-locked path let a mixed fork retarget most_speculative_rank_ —
  // mixing models across concurrently forking threads has always meant
  // best-effort chain fidelity.
  alignas(64) mutable std::mutex policy_mu_;
  std::atomic<int> most_speculative_rank_{0};
  std::atomic<int> live_{0};

  std::mutex stats_mu_;
  ThreadStats spec_stats_;          // guarded by stats_mu_
  uint64_t spec_thread_count_ = 0;  // guarded by stats_mu_
  uint64_t run_start_ns_ = 0;

  IntervalSet space_;
  std::atomic<uint64_t> space_epoch_{0};
};

}  // namespace mutls
