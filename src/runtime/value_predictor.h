// ValuePredictor — per-virtual-CPU last-value + stride predictor over word
// addresses: the paper's IV-G4 live-in prediction generalized to memory.
//
// The paper's `ForkOpts.predictions` only covers values the forker names
// up front; every other read-set conflict dooms the whole speculation.
// This table closes that gap: it is trained at settle time from the final
// values of *conflicting* read-set words (that is how an address enters
// the table — a word that never conflicts never costs a slot), and once an
// entry is confident, SpecBuffer adopts the predicted final value as the
// read observation at access time. The existing branchless XOR validation
// then does the containment for free: a correct prediction validates, a
// mispredict fails validation and rides the ordinary doom/rollback path
// (with a distinct doom_reason for attribution).
//
// Prediction model, per entry:
//   last_value — the word's value at the entry's most recent training
//   stride     — the delta between the last two trainings (two's-complement
//                wraparound, so negative strides are just large deltas)
//   confidence — saturating count of consecutive trainings whose delta
//                repeated the stride; predictions are only served at or
//                above the policy threshold. A stable value is the stride-0
//                case, so last-value prediction falls out of the same entry.
// predict(addr) returns last_value + stride: the value the word is
// expected to hold at the *next* settle.
//
// The table is direct-mapped (Fibonacci-hashed word address, one entry per
// bucket) with confidence aging on collisions: a colliding training
// decrements the incumbent's confidence and only replaces it at zero, so a
// hot entry is not thrashed by one-off conflict addresses. Storage comes
// from the owning slot's arena pool (heap only for standalone test
// instances), is sized once at init, and deliberately survives
// SpecBuffer::rearm(): the *slot* learns across
// speculations while the stats stay per-speculation.
#pragma once

#include <cstdint>

#include "support/arena.h"

namespace mutls {

// The value-prediction policy, handed to SpecBuffer::init as
// SpecBuffer::PredictPolicy. The runtime sets only `enabled` (from
// ManagerConfig::predict_enabled); the threshold, stride window and table
// size are the defaults below, which the predictor and model-harness unit
// tests vary directly. (Namespace-scope rather than nested: it appears as
// a default argument of SpecBuffer::init, where a nested type's member
// initializers would not be parsed yet.)
struct SpecPredictPolicy {
  // Master switch. Disabled, the predictor allocates nothing and the
  // access/validation hot paths pay one predicted-not-taken branch.
  bool enabled = false;
  // Consecutive stride confirmations required before an entry serves
  // predictions. 1 predicts after two trainings (aggressive); higher
  // values trade warm-up epochs for fewer mispredict rollbacks.
  uint32_t confidence_threshold = 2;
  // Largest |delta| accepted as a learnable stride. A training whose delta
  // exceeds the window is treated as chaos, not a stride: the entry keeps
  // tracking last_value but drops stride and confidence to zero. 0 turns
  // the entry into a pure last-value predictor (only an unchanged word
  // gains confidence).
  uint64_t stride_window = 1u << 16;
  // log2 of the per-slot table's entry count (0 = a single bucket, which
  // the collision tests use). 256 entries cost 8 KiB of arena pool.
  int table_log2 = 8;
};

class ValuePredictor {
 public:
  ValuePredictor() = default;
  ValuePredictor(const ValuePredictor&) = delete;
  ValuePredictor& operator=(const ValuePredictor&) = delete;
  ~ValuePredictor();

  // Sizes (or re-sizes) the table from the arena pool; releases any prior
  // table first, so re-init is safe. A disabled policy frees the table:
  // predict() then never fires and train() is a no-op.
  void init(const SpecPredictPolicy& policy, Arena* arena);

  // Serves a prediction for `word_addr` when its entry is confident.
  // Returns false (leaving *out untouched) otherwise. Const and
  // side-effect free: consulting the predictor never perturbs it.
  bool predict(uintptr_t word_addr, uint64_t* out) const {
    if (table_ == nullptr) return false;
    const Entry& e = table_[bucket(word_addr)];
    if (e.addr != word_addr || e.confidence < policy_.confidence_threshold) {
      return false;
    }
    *out = e.last_value + e.stride;
    return true;
  }

  // Trains the entry for `word_addr` with the word's settled value (final
  // memory at validation, or the predicted value a successful validation
  // just proved). Called off the access hot path — at settle only.
  void train(uintptr_t word_addr, uint64_t actual);

  // --- observability (tests, diagnostics) ---

  bool enabled() const { return table_ != nullptr; }
  size_t capacity() const { return table_ ? size_t{1} << policy_.table_log2 : 0; }
  // Occupied entries (linear scan; test/diagnostic use only).
  size_t entries() const;
  // The confidence of the entry holding `word_addr`, 0 when absent.
  uint32_t confidence_of(uintptr_t word_addr) const;

 private:
  struct Entry {
    uintptr_t addr = 0;  // 0 = empty (no word lives at address 0)
    uint64_t last_value = 0;
    uint64_t stride = 0;
    uint32_t confidence = 0;
    uint32_t unused = 0;
  };

  static constexpr uint32_t kMaxConfidence = 64;

  size_t bucket(uintptr_t word_addr) const {
    // Single-bucket tables short-circuit: the general expression would
    // shift by 64, which is undefined.
    if (policy_.table_log2 == 0) return 0;
    // Fibonacci hash of the word index (the low 3 address bits are always
    // zero, so shift them out before mixing); the top table_log2 bits of
    // the product index the table.
    uint64_t h = (static_cast<uint64_t>(word_addr) >> 3) *
                 0x9e3779b97f4a7c15ull;
    return static_cast<size_t>(h >> (64 - policy_.table_log2));
  }

  void release_table();

  SpecPredictPolicy policy_;
  Entry* table_ = nullptr;
  Arena* arena_ = nullptr;
};

}  // namespace mutls
