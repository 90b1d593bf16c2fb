// Differential property harness for the SpecBuffer backends.
//
// A plain std::map<offset, byte> reference model implements speculative
// load/store/validate/commit at byte granularity — no hashing, no marks,
// no word packing, no MRU cache, just the semantics: a load sees the
// thread's own written bytes over its first observation of the containing
// word over main memory; validation compares every observed word against
// memory; commit publishes exactly the written bytes.
//
// Randomized streams of mixed aligned / unaligned / word-straddling /
// multi-word operations are then driven simultaneously against the model
// and against both backends — kStaticHash and kGrowableLog, each with and
// without an unconfident value predictor — each buffering over its own
// identical arena.
// Every load must return byte-identical data, every epoch must produce
// identical validation outcomes (including under injected main-memory
// perturbations), identical set footprints, identical doom state, and
// byte-identical committed arenas. The PRNG seed is printed on failure so
// any divergence replays deterministically.
//
// The backend-specific *capacity* behavior (which the model deliberately
// does not share) is pinned in runtime_global_buffer_test: the static
// hash's overflow doom and the growable log's resize and hard-cap doom.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <vector>

#include "runtime/spec_buffer.h"
#include "support/prng.h"

namespace mutls {
namespace {

// Past the word-view cache's line count, so random ops alias lines: the
// ops land in two 128-word windows kMruLines words apart, and every word of
// one window shares its line with the same word of the other.
constexpr size_t kWindowWords = 128;
constexpr size_t kArenaWords = SpecBuffer::kMruLines + kWindowWords;
constexpr size_t kArenaBytes = kArenaWords * sizeof(uint64_t);
// Table size of the contestants: at least the arena, so the static hash
// never collides (its capacity behavior is pinned separately below).
constexpr int kTableLog2 = 11;
static_assert((size_t{1} << kTableLog2) >= kArenaWords);

// A random offset for an n-byte access: inside one of the two windows.
size_t random_offset(Xorshift64& rng, size_t n) {
  size_t off = rng.next() % (kWindowWords * sizeof(uint64_t) - n);
  if (rng.next() % 2 == 0) off += SpecBuffer::kMruLines * sizeof(uint64_t);
  return off;
}

// The byte-level reference model. Offsets are relative to the arena base
// it is constructed over.
class ByteRefModel {
 public:
  explicit ByteRefModel(uint8_t* base) : base_(base) {}

  void load(size_t off, uint8_t* out, size_t n) {
    for (size_t i = 0; i < n; ++i) out[i] = load_byte(off + i);
  }

  void store(size_t off, const uint8_t* src, size_t n) {
    for (size_t i = 0; i < n; ++i) writes_[off + i] = src[i];
  }

  // Whole-word-conservative validation, as the paper's buffers do: every
  // byte of every observed word must still equal main memory.
  bool validate() const {
    for (const auto& [off, v] : reads_) {
      if (base_[off] != v) return false;
    }
    return true;
  }

  void commit() {
    for (const auto& [off, v] : writes_) base_[off] = v;
  }

  void reset() {
    reads_.clear();
    writes_.clear();
  }

  size_t read_words() const {
    return reads_.size() / 8;  // first touch always records all 8 bytes
  }
  size_t write_words() const {
    std::set<size_t> words;
    for (const auto& [off, v] : writes_) words.insert(off & ~size_t{7});
    return words.size();
  }

 private:
  uint8_t load_byte(size_t off) {
    size_t word = off & ~size_t{7};
    // Loads are word-granular: unless the thread's own writes cover the
    // *whole* containing word, resolving the view observes the word from
    // main memory (first touch only) — even when the requested byte itself
    // was written. Only a fully-written word carries no memory dependency.
    if (!word_fully_written(word) && !reads_.count(word)) {
      for (size_t i = 0; i < 8; ++i) reads_[word + i] = base_[word + i];
    }
    auto w = writes_.find(off);
    if (w != writes_.end()) return w->second;
    return reads_.at(off);
  }

  bool word_fully_written(size_t word) const {
    for (size_t i = 0; i < 8; ++i) {
      if (!writes_.count(word + i)) return false;
    }
    return true;
  }

  uint8_t* base_;
  std::map<size_t, uint8_t> reads_;
  std::map<size_t, uint8_t> writes_;
};

// One backend under test: a SpecBuffer over its own private arena copy, so
// commits never leak between the contestants.
struct Contestant {
  const char* name;
  SpecBuffer buf;
  alignas(8) uint8_t arena[kArenaBytes];

  uintptr_t addr(size_t off) const {
    return reinterpret_cast<uintptr_t>(arena) + off;
  }

  // Production routing rule: the aligned-word fast path where eligible,
  // the span path otherwise (what Ctx::load/store do).
  void store(size_t off, const uint8_t* src, size_t n) {
    uintptr_t a = addr(off);
    if (word_sized_aligned(a, n)) {
      uint64_t raw = 0;
      std::memcpy(&raw, src, n);
      buf.store_aligned(a, raw, n);
    } else {
      buf.store_span(a, src, n);
    }
  }
  void load(size_t off, uint8_t* out, size_t n) {
    uintptr_t a = addr(off);
    if (word_sized_aligned(a, n)) {
      uint64_t raw = buf.load_aligned(a, n);
      std::memcpy(out, &raw, n);
    } else {
      buf.load_span(a, out, n);
    }
  }
};

class SpecBufferModelTest : public ::testing::Test {
 protected:
  // 4 contestants: the two backends, and the two again with value
  // prediction enabled but never confident.
  static constexpr int kContestants = 4;

  void SetUp() override {
    c_[0].name = "static-hash";
    c_[0].buf.init(BufferBackend::kStaticHash, kTableLog2, 64);
    c_[1].name = "growable-log";
    c_[1].buf.init(BufferBackend::kGrowableLog, kTableLog2, 64);
    // Prediction-enabled contestants with an unreachable confidence
    // threshold (entry confidence saturates at 64): the whole prediction
    // machinery runs — table sizing, the settle walk, failure-path
    // training under the injected perturbations — yet no load ever adopts
    // a prediction, so behavior must stay byte-identical to the model.
    SpecPredictPolicy unconfident{.enabled = true,
                                  .confidence_threshold = 65,
                                  .stride_window = uint64_t{1} << 16,
                                  .table_log2 = 8};
    c_[2].name = "static-hash-predict-unconfident";
    c_[2].buf.init(BufferBackend::kStaticHash, kTableLog2, 64,
                   GrowableSet::kMaxLog2, nullptr, unconfident);
    c_[3].name = "growable-log-predict-unconfident";
    c_[3].buf.init(BufferBackend::kGrowableLog, kTableLog2, 64,
                   GrowableSet::kMaxLog2, nullptr, unconfident);

    for (size_t i = 0; i < kArenaBytes; ++i) {
      uint8_t v = static_cast<uint8_t>(i * 131 + 7);
      for (Contestant& c : c_) c.arena[i] = v;
      model_arena_[i] = v;
    }
  }

  Contestant c_[kContestants];
  alignas(8) uint8_t model_arena_[kArenaBytes];
};

TEST_F(SpecBufferModelTest, RandomOpsMatchByteModelOnEveryBackend) {
  constexpr int kEpochs = 5;
  constexpr int kOpsPerEpoch = 1000;  // 5k ops per seed, as specced
  for (uint64_t seed : {0x5eedull, 0xfeedbeefull}) {
    SCOPED_TRACE(::testing::Message() << "seed=0x" << std::hex << seed);
    Xorshift64 rng(seed);
    ByteRefModel model(model_arena_);

    for (int epoch = 0; epoch < kEpochs; ++epoch) {
      SCOPED_TRACE(::testing::Message() << "epoch=" << epoch);
      for (int op = 0; op < kOpsPerEpoch; ++op) {
        size_t n = 1 + rng.next() % 16;  // aligned scalars, odd widths,
                                         // word straddles, two-word spans
        size_t off = random_offset(rng, n);
        if (rng.next() % 2 == 0) {
          uint8_t data[16];
          for (size_t i = 0; i < n; ++i) {
            data[i] = static_cast<uint8_t>(rng.next());
          }
          for (Contestant& c : c_) c.store(off, data, n);
          model.store(off, data, n);
        } else {
          uint8_t want[16];
          model.load(off, want, n);
          for (Contestant& c : c_) {
            uint8_t got[16];
            c.load(off, got, n);
            ASSERT_EQ(std::memcmp(got, want, n), 0)
                << c.name << " diverges from the byte model at op " << op
                << " (off=" << off << " n=" << n << ")";
          }
        }
      }

      // Identical set footprints: the word-granular sets must contain
      // exactly the words the byte model observed/wrote.
      for (Contestant& c : c_) {
        ASSERT_EQ(c.buf.read_entries(), model.read_words()) << c.name;
        ASSERT_EQ(c.buf.write_entries(), model.write_words()) << c.name;
        ASSERT_FALSE(c.buf.doomed()) << c.name;
        ASSERT_STREQ(c.buf.doom_reason(), "") << c.name;
        // An unconfident predictor never adopts a read (trivially zero on
        // the prediction-disabled contestants too).
        ASSERT_EQ(c.buf.stats().predicted_reads, 0u) << c.name;
      }

      // Identical validation outcomes: clean now, and under injected
      // main-memory perturbations (applied identically to every arena).
      for (Contestant& c : c_) {
        ASSERT_TRUE(c.buf.validate_against_memory()) << c.name;
      }
      ASSERT_TRUE(model.validate());
      for (int probe = 0; probe < 16; ++probe) {
        size_t off = random_offset(rng, 1);
        uint8_t delta = static_cast<uint8_t>(1 + rng.next() % 255);
        for (Contestant& c : c_) c.arena[off] ^= delta;
        model_arena_[off] ^= delta;
        bool want = model.validate();
        for (Contestant& c : c_) {
          ASSERT_EQ(c.buf.validate_against_memory(), want)
              << c.name << ": validation outcome diverges when byte " << off
              << " changes behind the speculation";
        }
        for (Contestant& c : c_) c.arena[off] ^= delta;
        model_arena_[off] ^= delta;
      }

      // Byte-identical committed state, then re-arm for the next epoch.
      for (Contestant& c : c_) c.buf.commit_to_memory();
      model.commit();
      for (Contestant& c : c_) {
        ASSERT_EQ(std::memcmp(c.arena, model_arena_, kArenaBytes), 0)
            << c.name << ": committed arena diverges from the byte model";
      }
      for (Contestant& c : c_) c.buf.rearm();
      model.reset();
    }
  }
  // The perturbation probes failed validations, and failed validations
  // train the predictor from the conflicting words — the table must have
  // been learning all along even though it never got confident enough to
  // serve.
  EXPECT_GT(c_[2].buf.predictor().entries(), 0u);
  EXPECT_GT(c_[3].buf.predictor().entries(), 0u);
}

// --- The value-prediction policy layer, driven standalone -------------
//
// A "ticker" word bumped by a constant stride between the speculative load
// and validation: the canonical conflict the predictor exists to absorb.
// Epochs are speculations (rearm between them); stats are read before the
// rearm that clears them.

class SpecBufferPredictTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kThreshold = 2;
  static constexpr uint64_t kStride = 7;

  void SetUp() override {
    buf_.init(BufferBackend::kStaticHash, 8, 64, GrowableSet::kMaxLog2,
              /*arena=*/nullptr,
              SpecPredictPolicy{.enabled = true,
                                .confidence_threshold = kThreshold,
                                .stride_window = uint64_t{1} << 16,
                                .table_log2 = 8});
  }

  uintptr_t addr() const { return reinterpret_cast<uintptr_t>(&word_); }

  // One conflicting warm-up epoch: load, bump, fail validation (training
  // the predictor from the post-bump value), rearm. Three of these take
  // the entry to the confidence threshold: create the entry, seed the
  // stride candidate, confirm it.
  void warmup_epochs(int n) {
    for (int epoch = 0; epoch < n; ++epoch) {
      uint64_t seen = buf_.load_aligned(addr(), 8);
      ASSERT_EQ(seen, word_) << "unconfident load must observe memory";
      word_ += kStride;
      ASSERT_FALSE(buf_.validate_against_memory()) << "epoch " << epoch;
      ASSERT_FALSE(buf_.doomed())
          << "a plain conflict is a rollback, not a mispredict doom";
      ASSERT_EQ(buf_.stats().predicted_reads, 0u) << "epoch " << epoch;
      buf_.rearm();
    }
  }

  SpecBuffer buf_;
  alignas(8) uint64_t word_ = 100;
};

TEST_F(SpecBufferPredictTest, StrideTickerSavesTheRollbackOnceConfident) {
  warmup_epochs(3);
  ASSERT_GE(buf_.predictor().confidence_of(addr()), kThreshold);

  // Epoch 4: the load adopts the predicted post-bump value *before* the
  // ticker bumps; after the bump, validation passes — the conflict that
  // doomed the previous three epochs is absorbed into a commit.
  uint64_t seen = buf_.load_aligned(addr(), 8);
  EXPECT_EQ(seen, word_ + kStride) << "confident load must adopt last+stride";
  word_ += kStride;
  EXPECT_TRUE(buf_.validate_against_memory());
  EXPECT_FALSE(buf_.doomed());
  EXPECT_EQ(buf_.stats().predicted_reads, 1u);
  EXPECT_EQ(buf_.stats().predictor_hits, 1u);
  EXPECT_EQ(buf_.stats().predictor_mispredicts, 0u);
  EXPECT_EQ(buf_.stats().saved_rollbacks, 1u)
      << "memory moved under a predicted read that survived validation";
  buf_.commit_to_memory();
}

TEST_F(SpecBufferPredictTest, QuietPredictedReadIsNoSavedRollback) {
  warmup_epochs(3);
  // The ticker *stops*, but the adopted prediction happens to be wrong —
  // covered by the mispredict test. Here the prediction is made right by
  // the ticker bumping before the load: the adopted value equals memory
  // from the start, so nothing moved and no rollback was saved.
  word_ += kStride;  // bump first
  uint64_t seen = buf_.load_aligned(addr(), 8);
  EXPECT_EQ(seen, word_) << "prediction and memory agree";
  EXPECT_TRUE(buf_.validate_against_memory());
  EXPECT_EQ(buf_.stats().predicted_reads, 1u);
  EXPECT_EQ(buf_.stats().predictor_hits, 1u);
  EXPECT_EQ(buf_.stats().saved_rollbacks, 0u)
      << "a bet that was never in danger saves nothing";
}

TEST_F(SpecBufferPredictTest, MispredictDoomsWithTheDistinctReason) {
  warmup_epochs(3);
  // The ticker stops: the adopted last+stride value is now wrong, and the
  // speculation must fail validation with the mispredict doom reason (so
  // rollback accounting can tell lost bets from true conflicts).
  uint64_t seen = buf_.load_aligned(addr(), 8);
  ASSERT_EQ(seen, word_ + kStride);
  EXPECT_FALSE(buf_.validate_against_memory());
  EXPECT_TRUE(buf_.doomed());
  EXPECT_STREQ(buf_.doom_reason(), SpecBuffer::kMispredictDoomReason);
  EXPECT_EQ(buf_.stats().predicted_reads, 1u);
  EXPECT_EQ(buf_.stats().predictor_hits, 0u);
  EXPECT_EQ(buf_.stats().predictor_mispredicts, 1u);
  EXPECT_EQ(buf_.stats().saved_rollbacks, 0u);
  // The doom is per speculation, like every other doom.
  buf_.rearm();
  EXPECT_FALSE(buf_.doomed());
  EXPECT_STREQ(buf_.doom_reason(), "");
}

TEST_F(SpecBufferPredictTest, PredictedReadSettlesAgainstSpeculativeJoiner) {
  warmup_epochs(3);
  // Epoch 4 joins against a *speculative* joiner instead of rank 0: the
  // final value comes from the joiner's buffered (uncommitted) write via
  // word_peek, not from main memory — the predict-aware settle must look
  // through the same window the XOR walk did.
  uint64_t seen = buf_.load_aligned(addr(), 8);
  ASSERT_EQ(seen, word_ + kStride);
  SpecBuffer joiner;
  joiner.init(BufferBackend::kStaticHash, 8, 64);
  joiner.store_aligned(addr(), word_ + kStride, 8);  // buffered only
  EXPECT_TRUE(buf_.validate_against(joiner));
  EXPECT_EQ(buf_.stats().predictor_hits, 1u);
  EXPECT_EQ(buf_.stats().saved_rollbacks, 1u)
      << "the joiner's pending write is exactly the movement a rollback "
         "would have punished";
  EXPECT_EQ(word_, 100 + 3 * kStride) << "main memory itself never moved";
}

}  // namespace
}  // namespace mutls
