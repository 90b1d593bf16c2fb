#include "runtime/thread_manager.h"

#include "runtime/spec_abort.h"
#include "support/spin.h"
#include "support/timing.h"

namespace mutls {

namespace {

// Folds the buffer backend's cost counters into the thread's statistics at
// settle time. The buffer's counters survive reset() and are zeroed when
// the slot is re-armed, so each settle reports exactly one speculation.
// The slot arena's heap-fallback trips ride along the same way: its epoch
// counter covers everything since the slot was re-armed — including the
// forker's closure spill — and zero is the steady-state expectation.
void accumulate_buffer_stats(ThreadData& td) {
  td.stats.buffer += td.sbuf.stats();
  td.stats.buffer.alloc_events += td.arena.epoch_heap_allocs();
}

// One-shot calibration probe behind resolve_handoff_spin_budget(): times a
// burst of spin iterations (the same pause-then-yield ladder
// spin_until_bounded runs, predicate cost included) and sizes the budget
// so a worker spins ~4µs before parking. The old fixed count of 256 was
// tuned on one machine: on hosts where cpu_relax degrades to a sched_yield
// syscall the same count spun for milliseconds, and on fast cores it
// covered well under a microsecond of forker lead.
int measure_spin_budget() {
  constexpr int kProbeIters = 4096;
  constexpr uint64_t kTargetNs = 4000;
  std::atomic<bool> never{false};
  uint64_t t0 = now_ns();
  spin_until_bounded([&] { return never.load(std::memory_order_seq_cst); },
                     kProbeIters);
  uint64_t elapsed = now_ns() - t0;
  if (elapsed == 0) elapsed = 1;
  double ns_per_iter = static_cast<double>(elapsed) / kProbeIters;
  int budget = static_cast<int>(static_cast<double>(kTargetNs) / ns_per_iter);
  if (budget < 64) budget = 64;
  if (budget > 8192) budget = 8192;
  return budget;
}

}  // namespace

int resolve_handoff_spin_budget(int configured) {
  if (configured > 0) return configured;
  // Memoized: one probe per process, shared by every manager (the property
  // being measured — spin iteration cost on this machine — is per-machine,
  // not per-run).
  static const int budget = measure_spin_budget();
  return budget;
}

ThreadManager::ThreadManager(const ManagerConfig& config)
    : config_(config),
      spin_budget_(resolve_handoff_spin_budget(config.handoff_spin_budget)) {
  MUTLS_CHECK(config_.num_cpus >= 1, "need at least one virtual CPU");
  root_.rank = 0;
  root_.lbuf.reset();
  // A children stack never holds more than num_cpus live refs (each live
  // speculation occupies one slot and sits on exactly one stack), so one
  // up-front reservation makes every push_back — including adoption at
  // join time — allocation-free.
  root_.children.reserve(static_cast<size_t>(config_.num_cpus));
  cpus_.reserve(static_cast<size_t>(config_.num_cpus));
  for (int r = 1; r <= config_.num_cpus; ++r) {
    cpus_.push_back(std::make_unique<Cpu>());
    Cpu& c = *cpus_.back();
    c.data.rank = r;
    c.data.sbuf.init(config_.buffer_backend, config_.buffer_log2,
                     config_.overflow_cap, GrowableSet::kMaxLog2,
                     &c.data.arena,
                     SpecPredictPolicy{.enabled = config_.predict_enabled});
    // The entry frame is allocated after the buffer tables: a small block
    // above them keeps glibc from trimming the freed tables off the heap
    // top when a Runtime is destroyed, so the next Runtime reuses them.
    // Allocated before them, constructing bh's Runtime (buffer_log2 17,
    // 3 CPUs) took 9.9 instead of 2.2 ms on a 4-vCPU host.
    c.data.lbuf.reset();
    c.data.children.reserve(static_cast<size_t>(config_.num_cpus));
  }
  // Seed the idle freelist in reverse so the first claims pop rank 1, 2, …
  // (the order the old linear scan produced).
  for (int r = config_.num_cpus; r >= 1; --r) {
    push_idle(r);
  }
  // Workers start after all slots exist so worker_loop may index any cpu.
  for (auto& cp : cpus_) {
    Cpu* c = cp.get();
    c->worker = std::thread([this, c] { worker_loop(*c); });
  }
}

ThreadManager::~ThreadManager() {
  // A worker waiting at its barrier spins on sync_status and never reads
  // shutdown, so discard what the root left live first: a user that
  // destroys the manager without joining gets its speculations dropped,
  // not a hang. Their subtrees go with them.
  nosync_children(root_);
  for (auto& cp : cpus_) {
    cp->shutdown.store(true, std::memory_order_seq_cst);
    {
      // Taking mu orders the store against a worker between its parked
      // check and the wait; the notify then cannot be lost.
      std::lock_guard lock(cp->mu);
    }
    cp->cv.notify_one();
  }
  for (auto& cp : cpus_) {
    if (cp->worker.joinable()) cp->worker.join();
  }
}

int ThreadManager::pop_idle() {
  uint64_t head = idle_head_.load(std::memory_order_acquire);
  while (true) {
    int rank = static_cast<int>(head & 0xffffffffu);
    if (rank == 0) return 0;
    int next = cpu(rank).next_idle.load(std::memory_order_relaxed);
    uint64_t tagged = ((head >> 32) + 1) << 32 | static_cast<uint32_t>(next);
    if (idle_head_.compare_exchange_weak(head, tagged,
                                         std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
      return rank;
    }
  }
}

int ThreadManager::claim_cpu() {
  int rank = pop_idle();
  if (rank != 0) {
    // Release publications: admission_allows reads both with acquire from
    // other threads, and a lock-free kMixed claim racing an in-order
    // admission check must not let the new chain head become visible
    // ahead of the claim's own bookkeeping (the relaxed stores these
    // replaced could be observed in either order, letting the checker act
    // on a most-speculative rank whose live count it had not yet seen).
    live_.fetch_add(1, std::memory_order_release);
    most_speculative_rank_.store(rank, std::memory_order_release);
  }
  return rank;
}

void ThreadManager::push_idle(int rank) {
  uint64_t head = idle_head_.load(std::memory_order_relaxed);
  while (true) {
    cpu(rank).next_idle.store(static_cast<int>(head & 0xffffffffu),
                              std::memory_order_relaxed);
    uint64_t tagged = ((head >> 32) + 1) << 32 | static_cast<uint32_t>(rank);
    if (idle_head_.compare_exchange_weak(head, tagged,
                                         std::memory_order_acq_rel,
                                         std::memory_order_relaxed)) {
      return;
    }
  }
}

bool ThreadManager::admission_allows(const ThreadData& td,
                                     ForkModel model) const {
  switch (model) {
    case ForkModel::kMixed:
      return true;
    case ForkModel::kOutOfOrder:
      return td.rank == 0;
    case ForkModel::kInOrder:
      return (live_.load(std::memory_order_acquire) == 0 && td.rank == 0) ||
             (td.rank != 0 &&
              td.rank == most_speculative_rank_.load(std::memory_order_acquire));
  }
  return false;
}

int ThreadManager::admit_and_claim(ThreadData& forker, ForkModel model) {
  if (model == ForkModel::kInOrder) {
    // In-order admission must check-then-claim atomically against other
    // in-order forks (two links of the chain must not both win), so it
    // keeps the lock.
    std::lock_guard lock(policy_mu_);
    bool ok =
        (live_.load(std::memory_order_relaxed) == 0 && forker.rank == 0) ||
        (forker.rank != 0 &&
         forker.rank == most_speculative_rank_.load(std::memory_order_relaxed));
    return ok ? claim_cpu() : 0;
  }
  if (model == ForkModel::kMixed || forker.rank == 0) {
    // kMixed admits everyone and kOutOfOrder admits the non-speculative
    // thread: no shared policy state to consult, so the claim is one CAS
    // on the idle freelist — no mutex on the fast path.
    return claim_cpu();
  }
  return 0;
}

ThreadManager::Cpu& ThreadManager::arm_cpu(int rank, ThreadData& forker) {
  Cpu& c = cpu(rank);
  c.state.store(CpuState::kRunning, std::memory_order_release);
  c.data.reset_for_speculation(forker.rank, forker.epoch, c.next_epoch++,
                               config_.seed, config_.rollback_probability);
  forker.children.push_back(ChildRef{rank, c.data.epoch});
  return c;
}

void ThreadManager::publish_task(Cpu& c) {
  // Hand the task to the worker: publish, then wake only a parked worker —
  // one in its spin window picks the flag up without any syscall.
  c.has_task.store(true, std::memory_order_seq_cst);
  if (c.parked.load(std::memory_order_seq_cst)) {
    {
      std::lock_guard lock(c.mu);
    }
    c.cv.notify_one();
  }
}

void ThreadManager::worker_loop(Cpu& c) {
  while (true) {
    // Spin-then-park: a short bounded spin catches back-to-back forks (the
    // sub-microsecond case) without a futex round trip; an idle worker
    // parks on the condvar and costs nothing.
    if (!spin_until_bounded(
            [&] {
              return c.has_task.load(std::memory_order_seq_cst) ||
                     c.shutdown.load(std::memory_order_seq_cst);
            },
            spin_budget_)) {
      std::unique_lock lock(c.mu);
      c.parked.store(true, std::memory_order_seq_cst);
      c.cv.wait(lock, [&] {
        return c.has_task.load(std::memory_order_seq_cst) ||
               c.shutdown.load(std::memory_order_seq_cst);
      });
      c.parked.store(false, std::memory_order_seq_cst);
    }
    if (c.shutdown.load(std::memory_order_seq_cst)) return;
    Task task = std::move(c.task);
    c.has_task.store(false, std::memory_order_seq_cst);
    ThreadData& td = c.data;
    td.task_start_ns = now_ns();
    try {
      task(td);
    } catch (const SpecAbort& a) {
      if (!td.sbuf.doomed()) td.sbuf.doom(a.reason);
    } catch (...) {
      // A user exception escaping a speculative task dooms it; the joiner
      // re-executes inline, where the exception surfaces normally.
      td.sbuf.doom("exception escaped speculative task");
    }
    if (td.doomed()) {
      // Cascading rollback stays inside this subtree (paper IV-F).
      nosync_children(td);
    }
    barrier_and_settle(c, task);
  }
}

void ThreadManager::barrier_and_settle(Cpu& c, Task& task) {
  ThreadData& td = c.data;

  uint64_t idle0 = now_ns();
  SyncStatus s = spin_while_equal(td.sync_status, SyncStatus::kNone);
  td.stats.ledger.add(TimeCat::kIdle, now_ns() - idle0);

  if (s == SyncStatus::kNoSync) {
    // Quiet discard: non-conforming speculation or subtree abort. No joiner
    // reads this slot, so the thread frees its own CPU.
    nosync_children(td);
    ++td.stats.nosyncs;
    uint64_t f0 = now_ns();
    td.sbuf.reset();
    td.stats.ledger.add(TimeCat::kFinalize, now_ns() - f0);
    uint64_t end = now_ns();
    td.stats.runtime_ns = end - td.task_start_ns;
    uint64_t accounted = td.stats.ledger.total();
    td.stats.ledger.add(TimeCat::kWastedWork,
                        td.stats.runtime_ns > accounted
                            ? td.stats.runtime_ns - accounted
                            : 0);
    // Destroy the task before the settle publishes: a spilled closure lives
    // in this slot's arena, and the next forker re-arms that arena the
    // moment the slot is claimable again.
    task.reset();
    accumulate_buffer_stats(td);
    aggregate_stats(td);
    on_thread_finished(td.rank);
    c.settled_epoch.store(td.epoch, std::memory_order_release);
    c.state.store(CpuState::kIdle, std::memory_order_release);
    push_idle(td.rank);
    return;
  }

  // SYNC: validate against the joiner's view, then commit or roll back.
  ThreadData* j = td.joiner;
  MUTLS_CHECK(j != nullptr, "SYNC without a joiner");

  bool valid;
  {
    uint64_t v0 = now_ns();
    if (td.doomed() || td.force_rollback || td.inject_rollback) {
      valid = false;
    } else if (j->rank == 0) {
      valid = td.sbuf.validate_against_memory();
    } else {
      valid = td.sbuf.validate_against(j->sbuf);
    }
    td.stats.ledger.add(TimeCat::kValidation, now_ns() - v0);
  }

  if (valid) {
    uint64_t c0 = now_ns();
    if (j->rank == 0) {
      td.sbuf.commit_to_memory();
    } else {
      td.sbuf.merge_into(j->sbuf);
    }
    td.stats.ledger.add(TimeCat::kCommit, now_ns() - c0);
    ++td.stats.commits;
  } else {
    ++td.stats.rollbacks;
  }

  uint64_t f0 = now_ns();
  // Same lifetime rule as the NOSYNC path: the spilled closure must not
  // outlive its epoch, and valid_status is the hand-back to the joiner.
  task.reset();
  accumulate_buffer_stats(td);
  td.sbuf.reset();
  td.stats.ledger.add(TimeCat::kFinalize, now_ns() - f0);

  uint64_t end = now_ns();
  td.stats.runtime_ns = end - td.task_start_ns;
  uint64_t accounted = td.stats.ledger.total();
  uint64_t work =
      td.stats.runtime_ns > accounted ? td.stats.runtime_ns - accounted : 0;
  td.stats.ledger.add(valid ? TimeCat::kWork : TimeCat::kWastedWork, work);

  // Publishing valid_status releases the slot to the joiner: no writes to
  // td.stats or td.children may follow.
  td.valid_status.store(valid ? ValidStatus::kCommit : ValidStatus::kRollback,
                        std::memory_order_release);
}

ThreadManager::JoinResult ThreadManager::synchronize(
    ThreadData& joiner, ChildRef expect, bool force_rollback,
    uint64_t* out_tag, FunctionRef<void(ThreadData&)> on_settled) {
  uint64_t t0 = now_ns();
  // Scan down from the top of the stack without popping: in the conforming
  // case (expected child on top) no container is touched, and in the
  // non-conforming case the entries above the match double as the discard
  // list — no side vector, no allocation.
  std::vector<ChildRef>& kids = joiner.children;
  size_t found_at = kids.size();
  while (found_at > 0) {
    const ChildRef& ref = kids[found_at - 1];
    if (ref.rank == expect.rank && ref.epoch == expect.epoch) break;
    --found_at;
  }
  if (found_at == 0) {
    // Not found: every child on the stack is non-conforming (paper IV-F).
    // Signal them all before waiting on any so their subtrees drain
    // concurrently; each frees its own CPU.
    for (size_t i = kids.size(); i > 0; --i) signal_discard(kids[i - 1]);
    for (size_t i = kids.size(); i > 0; --i) wait_discarded(kids[i - 1]);
    kids.clear();
    joiner.stats.ledger.add(TimeCat::kJoin, now_ns() - t0);
    return JoinResult::kNotFound;
  }
  // Non-conforming mixed-model usage: NOSYNC the mismatched children above
  // the match. Each frees its own CPU.
  for (size_t i = kids.size(); i > found_at; --i) signal_discard(kids[i - 1]);

  Cpu& c = cpu(expect.rank);
  MUTLS_CHECK(c.data.epoch == expect.epoch,
              "synchronize: stale child reference");
  c.data.force_rollback = force_rollback;
  c.data.joiner = &joiner;
  joiner.stats.ledger.add(TimeCat::kJoin, now_ns() - t0);

  c.data.sync_status.store(SyncStatus::kSync, std::memory_order_release);

  // Drain the discarded mismatched children only after SYNC is raised, so
  // their teardown overlaps the expected child's validate/commit.
  for (size_t i = kids.size(); i > found_at; --i) wait_discarded(kids[i - 1]);
  kids.resize(found_at - 1);  // drop the discarded refs and the match

  uint64_t i0 = now_ns();
  ValidStatus v = spin_while_equal(c.data.valid_status, ValidStatus::kNone);
  joiner.stats.ledger.add(TimeCat::kIdle, now_ns() - i0);

  uint64_t t1 = now_ns();
  if (out_tag) *out_tag = c.data.user_tag;
  if (on_settled) on_settled(c.data);
  // Adopt the child's children — preserved even on rollback (paper IV-F),
  // so a local conflict does not squash sibling subtrees.
  for (const ChildRef& ref : c.data.children) {
    joiner.children.push_back(ref);
  }
  aggregate_stats(c.data);
  on_thread_finished(expect.rank);
  c.settled_epoch.store(c.data.epoch, std::memory_order_release);
  c.state.store(CpuState::kIdle, std::memory_order_release);
  push_idle(expect.rank);
  joiner.stats.ledger.add(TimeCat::kJoin, now_ns() - t1);
  return v == ValidStatus::kCommit ? JoinResult::kCommit
                                   : JoinResult::kRollback;
}

void ThreadManager::nosync_children(ThreadData& td, size_t keep) {
  if (td.children.size() <= keep) return;
  // Signal every discarded child before waiting on any so their subtrees
  // drain concurrently.
  for (size_t i = keep; i < td.children.size(); ++i) {
    signal_discard(td.children[i]);
  }
  for (size_t i = keep; i < td.children.size(); ++i) {
    wait_discarded(td.children[i]);
  }
  td.children.resize(keep);
}

void ThreadManager::signal_discard(const ChildRef& ref) {
  Cpu& cc = cpu(ref.rank);
  // The slot's occupant can only change after the speculation named by
  // `ref` settles, and `ref` is owned by exactly one parent until then, so
  // this epoch read is stable.
  if (cc.data.epoch == ref.epoch) {
    cc.data.sync_status.store(SyncStatus::kNoSync, std::memory_order_release);
  }
}

void ThreadManager::wait_discarded(const ChildRef& ref) {
  // Wait for the discarded task to settle. Without the handshake the task
  // keeps running (until its next check point or barrier) after the caller
  // has moved on — and its closure may capture stack frames the caller is
  // about to destroy. settled_epoch is monotonic, so slot reuse after the
  // settle cannot confuse the wait. The deadline turns a task that can
  // never settle (blocked forever without a check point) into a
  // diagnosable protocol violation instead of a silent hang.
  Cpu& cc = cpu(ref.rank);
  const uint64_t deadline = now_ns() + kDiscardSettleTimeoutNs;
  spin_until([&] {
    MUTLS_CHECK(now_ns() < deadline,
                "discarded speculative task failed to settle "
                "(task blocked without a check point?)");
    return cc.settled_epoch.load(std::memory_order_acquire) >= ref.epoch;
  });
}

void ThreadManager::on_thread_finished(int rank) {
  std::lock_guard lock(policy_mu_);
  live_.fetch_sub(1, std::memory_order_relaxed);
  if (most_speculative_rank_.load(std::memory_order_relaxed) == rank) {
    // The chain shrinks: speculation continues from this thread's parent if
    // that parent is still the same live speculative thread.
    const ThreadData& td = cpu(rank).data;
    if (td.parent_rank != 0) {
      Cpu& p = cpu(td.parent_rank);
      if (p.state.load(std::memory_order_acquire) != CpuState::kIdle &&
          p.data.epoch == td.parent_epoch) {
        most_speculative_rank_.store(td.parent_rank,
                                     std::memory_order_relaxed);
        return;
      }
    }
    most_speculative_rank_.store(0, std::memory_order_relaxed);
  }
}

void ThreadManager::aggregate_stats(ThreadData& td) {
  std::lock_guard lock(stats_mu_);
  spec_stats_ += td.stats;
  ++spec_thread_count_;
}

void ThreadManager::register_space(const void* p, size_t n) {
  space_.insert(reinterpret_cast<uintptr_t>(p), n);
}

void ThreadManager::unregister_space(const void* p, size_t n) {
  space_.erase(reinterpret_cast<uintptr_t>(p), n);
  // Invalidate every Ctx's cached positive lookups: a span that was
  // registered when cached may cover this region.
  space_epoch_.fetch_add(1, std::memory_order_acq_rel);
}

bool ThreadManager::space_contains(const void* p, size_t n) const {
  return space_.contains(reinterpret_cast<uintptr_t>(p), n);
}

int ThreadManager::live_threads() const {
  return live_.load(std::memory_order_acquire);
}

RunStats ThreadManager::collect_stats() {
  RunStats rs;
  rs.critical = root_.stats;
  {
    std::lock_guard lock(stats_mu_);
    rs.speculative = spec_stats_;
    rs.speculative_threads = spec_thread_count_;
  }
  return rs;
}

void ThreadManager::reset_stats() {
  root_.stats.clear();
  std::lock_guard lock(stats_mu_);
  spec_stats_.clear();
  spec_thread_count_ = 0;
}

void ThreadManager::begin_run() {
  reset_stats();
  // The root thread's arena follows run boundaries instead of speculation
  // epochs (the root never settles): re-arm here so each run's critical
  // alloc_events covers exactly that run.
  root_.arena.rearm();
  run_start_ns_ = now_ns();
}

void ThreadManager::end_run() {
  uint64_t end = now_ns();
  root_.stats.runtime_ns = end - run_start_ns_;
  uint64_t accounted = root_.stats.ledger.total();
  root_.stats.ledger.add(TimeCat::kWork,
                         root_.stats.runtime_ns > accounted
                             ? root_.stats.runtime_ns - accounted
                             : 0);
  root_.stats.buffer.alloc_events += root_.arena.epoch_heap_allocs();
}

}  // namespace mutls
