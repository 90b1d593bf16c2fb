#include "runtime/value_predictor.h"

#include <memory>

#include "support/check.h"

namespace mutls {

ValuePredictor::~ValuePredictor() { release_table(); }

void ValuePredictor::release_table() {
  if (table_ != nullptr) {
    arena_release(arena_, table_,
                  (size_t{1} << policy_.table_log2) * sizeof(Entry));
    table_ = nullptr;
  }
}

void ValuePredictor::init(const SpecPredictPolicy& policy, Arena* arena) {
  release_table();
  policy_ = policy;
  arena_ = arena;
  if (!policy_.enabled) return;
  MUTLS_CHECK(policy_.table_log2 >= 0 && policy_.table_log2 <= 20,
              "predictor table_log2 out of range");
  MUTLS_CHECK(policy_.confidence_threshold >= 1,
              "predict confidence threshold must be >= 1");
  size_t n = size_t{1} << policy_.table_log2;
  table_ = static_cast<Entry*>(arena_grab(arena_, n * sizeof(Entry)));
  std::uninitialized_fill_n(table_, n, Entry{});
}

void ValuePredictor::train(uintptr_t word_addr, uint64_t actual) {
  if (table_ == nullptr) return;
  Entry& e = table_[bucket(word_addr)];
  if (e.addr != word_addr) {
    // Collision (or empty bucket). Age the incumbent instead of evicting
    // outright — a confident hot entry should survive one-off conflict
    // addresses that happen to share its bucket.
    if (e.addr != 0 && e.confidence > 0) {
      --e.confidence;
      return;
    }
    e.addr = word_addr;
    e.last_value = actual;
    e.stride = 0;
    e.confidence = 0;
    return;
  }
  uint64_t delta = actual - e.last_value;  // wraparound: negative strides ok
  uint64_t magnitude =
      delta > (~uint64_t{0} >> 1) ? uint64_t{0} - delta : delta;
  if (delta == e.stride) {
    if (e.confidence < kMaxConfidence) ++e.confidence;
  } else if (magnitude <= policy_.stride_window) {
    // New candidate stride inside the window: retarget, restart confidence
    // at 1 (this delta is its first confirmation).
    e.stride = delta;
    e.confidence = 1;
  } else {
    // Chaotic jump: keep tracking the value, drop the stride hypothesis.
    e.stride = 0;
    e.confidence = 0;
  }
  e.last_value = actual;
}

size_t ValuePredictor::entries() const {
  if (table_ == nullptr) return 0;
  size_t n = 0;
  size_t cap = size_t{1} << policy_.table_log2;
  for (size_t i = 0; i < cap; ++i) {
    if (table_[i].addr != 0) ++n;
  }
  return n;
}

uint32_t ValuePredictor::confidence_of(uintptr_t word_addr) const {
  if (table_ == nullptr) return 0;
  const Entry& e = table_[bucket(word_addr)];
  return e.addr == word_addr ? e.confidence : 0;
}

}  // namespace mutls
