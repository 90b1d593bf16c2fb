// Core enumerations of the MUTLS runtime (paper sections II, IV-D, IV-E).
#pragma once

namespace mutls {

// Forking models (paper section II). The model is a property of each fork
// point, passed as the `model` argument of __builtin_MUTLS_fork.
enum class ForkModel : int {
  kInOrder = 0,     // only the most speculative thread may fork
  kOutOfOrder = 1,  // only the non-speculative thread may fork
  kMixed = 2,       // every thread may fork: tree of threads
};

inline const char* fork_model_name(ForkModel m) {
  switch (m) {
    case ForkModel::kInOrder: return "in-order";
    case ForkModel::kOutOfOrder: return "out-of-order";
    case ForkModel::kMixed: return "mixed";
  }
  return "?";
}

// Speculative-buffer backends (runtime IV-G2 and beyond). The backend is a
// property of the whole ThreadManager (every virtual CPU's SpecBuffer is
// configured identically), resolved once at construction; the per-access
// dispatch in SpecBuffer is a single predictable branch, never a virtual
// call. Each one wins somewhere (README "Choosing a buffer backend").
enum class BufferBackend : int {
  // The paper's static hash map: one slot per key, bounded overflow
  // ("temporary buffer"); exhausting the overflow dooms the thread.
  kStaticHash = 0,
  // Open-addressed growable index over an append-only log: capacity
  // pressure triggers a resize instead of a rollback.
  kGrowableLog = 1,
};

inline const char* buffer_backend_name(BufferBackend b) {
  switch (b) {
    case BufferBackend::kStaticHash: return "static-hash";
    case BufferBackend::kGrowableLog: return "growable-log";
  }
  return "?";
}

// Virtual CPU states (paper section IV-D).
enum class CpuState : int {
  kIdle = 0,
  kRunning = 1,
  kReadyToReclaim = 2,
};

// sync_status of a speculative thread (paper sections IV-E, IV-F).
// kNone corresponds to the paper's NULL initialization.
enum class SyncStatus : int {
  kNone = 0,
  kSync = 1,    // the joiner wants to synchronize: validate and commit/rollback
  kNoSync = 2,  // non-conforming speculation or subtree abort: discard quietly
};

// valid_status reported back through the flag-based barrier.
enum class ValidStatus : int {
  kNone = 0,
  kCommit = 1,
  kRollback = 2,
};

}  // namespace mutls
