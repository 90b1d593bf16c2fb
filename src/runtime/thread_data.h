// Per-virtual-CPU speculative thread state (paper section IV-B).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/enums.h"
#include "runtime/local_buffer.h"
#include "runtime/spec_buffer.h"
#include "runtime/stats.h"
#include "support/arena.h"
#include "support/prng.h"

namespace mutls {

// Reference to a speculated child. The epoch guards against virtual-CPU
// slot reuse: a rank alone could name a *later* speculation on the same CPU.
struct ChildRef {
  int rank = 0;
  uint64_t epoch = 0;
};

struct ThreadData {
  // Identity. rank 0 is the non-speculative thread; speculative ranks are
  // 1..num_cpus as in the paper.
  int rank = 0;
  uint64_t epoch = 0;
  int parent_rank = 0;
  uint64_t parent_epoch = 0;

  // Flag-based synchronization barrier (paper IV-E). Both are the paper's
  // volatile flags, expressed as atomics.
  std::atomic<SyncStatus> sync_status{SyncStatus::kNone};
  std::atomic<ValidStatus> valid_status{ValidStatus::kNone};

  // Set by the joiner before raising SYNC so the child validates and
  // commits against the correct view (tree-form nesting).
  ThreadData* joiner = nullptr;

  // Set by the joiner when live-in (register variable) validation failed:
  // the child must roll back regardless of its read-set (paper IV-G4).
  bool force_rollback = false;

  // Children stack of the tree-form mixed model (paper IV-F). Reserved to
  // num_cpus at manager construction: every live speculation occupies one
  // virtual-CPU slot and sits on exactly one parent's stack, so no stack
  // (even through adoption) can outgrow that — push_back never reallocates.
  std::vector<ChildRef> children;

  // Per-slot arena (see "support/arena.h"): transient bump storage for the
  // epoch (spilled task closures) plus the persistent pool backing sbuf's
  // growable arrays and scratch. Declared before sbuf, whose pooled
  // storage must release into a live arena at destruction. Ownership
  // follows the slot's speculation protocol — no locks.
  Arena arena;

  SpecBuffer sbuf;
  LocalBuffer lbuf;
  ThreadStats stats;
  Xorshift64 rng;

  // Rollback injection (paper Fig. 11): decided once per speculation.
  bool inject_rollback = false;

  // Opaque caller payload (e.g. the index of a spec_for piece),
  // readable by the joiner at synchronization time so adopted children can
  // be re-executed after a rollback.
  uint64_t user_tag = 0;

  // Opaque per-speculation state deposited by the execution layer before
  // the flag barrier publishes (e.g. the IR interpreter's stop position,
  // registers and fork bookkeeping); the joiner picks it up through the
  // on_settled hook of synchronize().
  std::shared_ptr<void> user_state;

  uint64_t task_start_ns = 0;

  bool is_speculative() const { return rank != 0; }

  bool doomed() const { return sbuf.doomed(); }

  // Re-arms this slot for a new speculation.
  void reset_for_speculation(int parent, uint64_t parent_ep,
                             uint64_t new_epoch, uint64_t seed,
                             double rollback_probability) {
    epoch = new_epoch;
    parent_rank = parent;
    parent_epoch = parent_ep;
    sync_status.store(SyncStatus::kNone, std::memory_order_relaxed);
    valid_status.store(ValidStatus::kNone, std::memory_order_relaxed);
    joiner = nullptr;
    force_rollback = false;
    children.clear();
    // Re-arm the arena first: the previous epoch's bump storage (the
    // settled task's spilled closure was already destroyed at settle) is
    // reclaimed wholesale and the epoch heap-fallback counter zeroes, so
    // alloc_events reports exactly this speculation. sbuf's pooled storage
    // survives — rearm() touches only the bump region.
    arena.rearm();
    // Re-arm the speculative buffer: reset buffered state, zero the cost
    // counters (they survive reset() so the settle paths could read them;
    // a slot's next speculation must not re-report its predecessors'
    // events).
    sbuf.rearm();
    lbuf.reset();
    stats.clear();
    user_tag = 0;
    user_state.reset();
    rng.reseed(seed ^ (new_epoch * 0x9e3779b97f4a7c15ull) ^
               static_cast<uint64_t>(rank));
    inject_rollback = rollback_probability > 0.0 &&
                      rng.bernoulli(rollback_probability);
  }
};

}  // namespace mutls
