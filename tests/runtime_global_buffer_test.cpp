// Unit tests for speculative memory buffering, validation, commit and the
// tree-form merge (paper IV-G2 and IV-F), run against the SpecBuffer API
// and value-parameterized over every backend: the buffered-view semantics
// are a backend-independent contract. Backend-specific capacity behavior
// (overflow doom vs resize) and cross-backend merges are covered at the
// bottom.
#include "runtime/spec_buffer.h"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "runtime/thread_data.h"
#include "support/prng.h"
#include "tests/backend_param.h"

namespace mutls {
namespace {

std::string backend_test_name(
    const ::testing::TestParamInfo<BufferBackend>& info) {
  return backend_camel_name(info.param);
}

class SpecBufferTest : public ::testing::TestWithParam<BufferBackend> {
 protected:
  void SetUp() override { buf_.init(GetParam(), 8, 64); }

  template <typename T>
  T spec_load(SpecBuffer& b, const T& var) {
    T out;
    b.load_bytes(reinterpret_cast<uintptr_t>(&var), &out, sizeof(T));
    return out;
  }

  template <typename T>
  void spec_store(SpecBuffer& b, T& var, T v) {
    b.store_bytes(reinterpret_cast<uintptr_t>(&var), &v, sizeof(T));
  }

  SpecBuffer buf_;
};

TEST_P(SpecBufferTest, LoadReadsMainMemoryFirstTouch) {
  alignas(8) uint64_t x = 1234;
  EXPECT_EQ(spec_load(buf_, x), 1234u);
  EXPECT_EQ(buf_.read_entries(), 1u);
}

TEST_P(SpecBufferTest, LoadReturnsBufferedWrite) {
  alignas(8) uint64_t x = 1;
  spec_store(buf_, x, uint64_t{77});
  EXPECT_EQ(spec_load(buf_, x), 77u);
  EXPECT_EQ(x, 1u) << "store must not touch main memory before commit";
}

TEST_P(SpecBufferTest, ReadSetKeepsFirstObservation) {
  alignas(8) uint64_t x = 10;
  EXPECT_EQ(spec_load(buf_, x), 10u);
  x = 20;  // main memory changes behind the speculation
  EXPECT_EQ(spec_load(buf_, x), 10u)
      << "subsequent loads come from the read-set";
}

TEST_P(SpecBufferTest, WriteThenReadDoesNotTouchReadSet) {
  alignas(8) uint64_t x = 5;
  spec_store(buf_, x, uint64_t{6});
  EXPECT_EQ(spec_load(buf_, x), 6u);
  EXPECT_EQ(buf_.read_entries(), 0u)
      << "a fully written word carries no memory dependency";
}

TEST_P(SpecBufferTest, ValidationSucceedsWhenMemoryUnchanged) {
  alignas(8) uint64_t x = 42;
  spec_load(buf_, x);
  EXPECT_TRUE(buf_.validate_against_memory());
  EXPECT_EQ(buf_.stats().validated_words, 1u);
}

TEST_P(SpecBufferTest, ValidationFailsWhenMemoryChanged) {
  alignas(8) uint64_t x = 42;
  spec_load(buf_, x);
  x = 43;
  EXPECT_FALSE(buf_.validate_against_memory());
}

TEST_P(SpecBufferTest, CommitWritesWholeWords) {
  alignas(8) uint64_t x = 0;
  spec_store(buf_, x, uint64_t{0x1122334455667788ull});
  buf_.commit_to_memory();
  EXPECT_EQ(x, 0x1122334455667788ull);
}

TEST_P(SpecBufferTest, SubWordStoreCommitsOnlyMarkedBytes) {
  alignas(8) uint64_t x = 0xffffffffffffffffull;
  auto* bytes = reinterpret_cast<uint8_t*>(&x);
  uint8_t v = 0xab;
  buf_.store_bytes(reinterpret_cast<uintptr_t>(bytes + 2), &v, 1);
  buf_.commit_to_memory();
  EXPECT_EQ(bytes[2], 0xab);
  EXPECT_EQ(bytes[0], 0xff);
  EXPECT_EQ(bytes[3], 0xff);
}

TEST_P(SpecBufferTest, SubWordLoadBuffersWholeWord) {
  alignas(8) uint32_t pair[2] = {111, 222};
  uint32_t out;
  buf_.load_bytes(reinterpret_cast<uintptr_t>(&pair[0]), &out, 4);
  EXPECT_EQ(out, 111u);
  pair[1] = 999;  // same word, other half changes
  EXPECT_FALSE(buf_.validate_against_memory())
      << "whole-word validation is conservative, as in the paper";
}

TEST_P(SpecBufferTest, SubWordReadAfterSubWordWriteCombines) {
  alignas(8) uint32_t pair[2] = {1, 2};
  uint32_t nv = 10;
  buf_.store_bytes(reinterpret_cast<uintptr_t>(&pair[0]), &nv, 4);
  // Reading the other (unwritten) half must come from memory.
  uint32_t out;
  buf_.load_bytes(reinterpret_cast<uintptr_t>(&pair[1]), &out, 4);
  EXPECT_EQ(out, 2u);
  // Reading the written half must come from the write-set.
  buf_.load_bytes(reinterpret_cast<uintptr_t>(&pair[0]), &out, 4);
  EXPECT_EQ(out, 10u);
}

TEST_P(SpecBufferTest, MultiWordAccessSplitsAcrossWords) {
  alignas(8) std::array<uint64_t, 4> arr = {1, 2, 3, 4};
  std::array<uint64_t, 3> nv = {11, 12, 13};
  buf_.store_bytes(reinterpret_cast<uintptr_t>(&arr[0]), nv.data(),
                   sizeof(nv));
  std::array<uint64_t, 3> out{};
  buf_.load_bytes(reinterpret_cast<uintptr_t>(&arr[0]), out.data(),
                  sizeof(out));
  EXPECT_EQ(out, nv);
  buf_.commit_to_memory();
  EXPECT_EQ(arr[0], 11u);
  EXPECT_EQ(arr[1], 12u);
  EXPECT_EQ(arr[2], 13u);
  EXPECT_EQ(arr[3], 4u);
}

TEST_P(SpecBufferTest, UnalignedAccessStraddlingWordsRoundTrips) {
  alignas(8) std::array<uint8_t, 24> arr{};
  for (size_t i = 0; i < arr.size(); ++i) arr[i] = static_cast<uint8_t>(i);
  // 8-byte access at offset 5 crosses a word boundary.
  uint64_t out = 0;
  buf_.load_bytes(reinterpret_cast<uintptr_t>(arr.data() + 5), &out, 8);
  uint64_t expect = 0;
  std::memcpy(&expect, arr.data() + 5, 8);
  EXPECT_EQ(out, expect);

  uint64_t nv = 0xa0a1a2a3a4a5a6a7ull;
  buf_.store_bytes(reinterpret_cast<uintptr_t>(arr.data() + 5), &nv, 8);
  buf_.commit_to_memory();
  uint64_t readback = 0;
  std::memcpy(&readback, arr.data() + 5, 8);
  EXPECT_EQ(readback, nv);
  EXPECT_EQ(arr[4], 4u);
  EXPECT_EQ(arr[13], 13u);
}

TEST_P(SpecBufferTest, ResetDiscardsBufferedState) {
  alignas(8) uint64_t x = 3;
  spec_store(buf_, x, uint64_t{9});
  spec_load(buf_, x);
  buf_.reset();
  EXPECT_EQ(buf_.read_entries(), 0u);
  EXPECT_EQ(buf_.write_entries(), 0u);
  buf_.commit_to_memory();
  EXPECT_EQ(x, 3u) << "reset state must not commit anything";
}

// --- tree-form merge (speculative joiner) ---

TEST_P(SpecBufferTest, ValidateAgainstJoinerSeesJoinerWrites) {
  alignas(8) uint64_t x = 100;
  SpecBuffer parent;
  parent.init(GetParam(), 8, 64);
  // Parent speculatively wrote x = 200 before forking the child; the child
  // read main memory (100) -- a conflict the tree validation must catch.
  spec_store(parent, x, uint64_t{200});
  SpecBuffer child;
  child.init(GetParam(), 8, 64);
  spec_load(child, x);
  EXPECT_FALSE(child.validate_against(parent));
  // If the parent's buffered value matches what the child read, it passes.
  SpecBuffer child2;
  child2.init(GetParam(), 8, 64);
  spec_store(parent, x, uint64_t{100});
  spec_load(child2, x);
  EXPECT_TRUE(child2.validate_against(parent));
}

TEST_P(SpecBufferTest, MergeOverlaysChildWritesOntoJoiner) {
  alignas(8) uint64_t x = 0, y = 0;
  SpecBuffer parent, child;
  parent.init(GetParam(), 8, 64);
  child.init(GetParam(), 8, 64);
  spec_store(parent, x, uint64_t{1});
  spec_store(child, y, uint64_t{2});
  child.merge_into(parent);
  // Parent now holds both writes; committing publishes both.
  parent.commit_to_memory();
  EXPECT_EQ(x, 1u);
  EXPECT_EQ(y, 2u);
}

TEST_P(SpecBufferTest, MergeChildWriteWinsOverJoinerWrite) {
  // The child is logically *later*, so its write supersedes the joiner's.
  alignas(8) uint64_t x = 0;
  SpecBuffer parent, child;
  parent.init(GetParam(), 8, 64);
  child.init(GetParam(), 8, 64);
  spec_store(parent, x, uint64_t{1});
  spec_store(child, x, uint64_t{2});
  child.merge_into(parent);
  parent.commit_to_memory();
  EXPECT_EQ(x, 2u);
}

TEST_P(SpecBufferTest, MergePropagatesChildReadsForFinalValidation) {
  alignas(8) uint64_t x = 7;
  SpecBuffer parent, child;
  parent.init(GetParam(), 8, 64);
  child.init(GetParam(), 8, 64);
  spec_load(child, x);
  child.merge_into(parent);
  EXPECT_TRUE(parent.validate_against_memory());
  x = 8;  // memory changes after the merge: the adopted read must fail
  EXPECT_FALSE(parent.validate_against_memory());
}

TEST_P(SpecBufferTest, MergeSkipsReadsFullyCoveredByJoinerWrites) {
  alignas(8) uint64_t x = 7;
  SpecBuffer parent, child;
  parent.init(GetParam(), 8, 64);
  child.init(GetParam(), 8, 64);
  spec_store(parent, x, uint64_t{7});  // full-word write, same value
  spec_load(child, x);
  child.merge_into(parent);
  x = 99;  // adopted read carried no memory dependency -> still valid
  EXPECT_TRUE(parent.validate_against_memory());
}

TEST_P(SpecBufferTest, SubWordMergeCombinesMarks) {
  alignas(8) uint64_t x = 0;
  auto* b = reinterpret_cast<uint8_t*>(&x);
  SpecBuffer parent, child;
  parent.init(GetParam(), 8, 64);
  child.init(GetParam(), 8, 64);
  uint8_t v1 = 0x11, v2 = 0x22;
  parent.store_bytes(reinterpret_cast<uintptr_t>(b + 0), &v1, 1);
  child.store_bytes(reinterpret_cast<uintptr_t>(b + 1), &v2, 1);
  child.merge_into(parent);
  parent.commit_to_memory();
  EXPECT_EQ(b[0], 0x11);
  EXPECT_EQ(b[1], 0x22);
  EXPECT_EQ(b[2], 0x00);
}

INSTANTIATE_TEST_SUITE_P(Backends, SpecBufferTest,
                         ::testing::Values(BufferBackend::kStaticHash,
                                           BufferBackend::kGrowableLog,
                                           BufferBackend::kAdaptive,
                                           BufferBackend::kNumaSharded),
                         backend_test_name);

// --- backend-specific capacity behavior ---

TEST(SpecBufferStaticHash, DoomOnOverflowExhaustion) {
  SpecBuffer tiny;
  tiny.init(BufferBackend::kStaticHash, 4, 2);  // 16 slots, 2 overflow
  alignas(8) static uint64_t arena[256];
  // Store to 4 colliding words: slot + 2 overflow + 1 too many.
  for (int i = 0; i < 4; ++i) {
    uint64_t v = static_cast<uint64_t>(i);
    tiny.store_bytes(reinterpret_cast<uintptr_t>(&arena[i * 16]), &v, 8);
  }
  EXPECT_TRUE(tiny.doomed());
  EXPECT_TRUE(tiny.pressure());
  EXPECT_GT(tiny.stats().overflow_events, 0u);
}

TEST(SpecBufferGrowableLog, ResizesInsteadOfDooming) {
  SpecBuffer tiny;
  tiny.init(BufferBackend::kGrowableLog, 4, 2);  // 16 initial slots
  alignas(8) static uint64_t arena[256];
  // Far more writes (and reads) than the initial capacity: the same access
  // pattern that dooms the static hash must force resizes and carry on.
  for (int i = 0; i < 200; ++i) {
    uint64_t v = static_cast<uint64_t>(i) + 1;
    tiny.store_bytes(reinterpret_cast<uintptr_t>(&arena[i]), &v, 8);
  }
  ASSERT_FALSE(tiny.doomed());
  EXPECT_TRUE(tiny.pressure()) << "a resize this speculation is pressure";
  EXPECT_GT(tiny.stats().resize_events, 0u);
  EXPECT_EQ(tiny.write_entries(), 200u);
  // Every buffered value survives the rehashes.
  for (int i = 0; i < 200; ++i) {
    uint64_t out = 0;
    tiny.load_bytes(reinterpret_cast<uintptr_t>(&arena[i]), &out, 8);
    ASSERT_EQ(out, static_cast<uint64_t>(i) + 1) << "word " << i;
  }
  EXPECT_TRUE(tiny.validate_against_memory());
  tiny.commit_to_memory();
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(arena[i], static_cast<uint64_t>(i) + 1);
  }
}

TEST(SpecBufferNumaSharded, ShardExhaustionDoomsLikeStaticOverflow) {
  SpecBuffer tiny;
  // Two shards alternating every 8-byte word (region_log2 = 3), each
  // capped at a 2^5 index: a footprint far past both caps must doom, the
  // same contract the static hash honors at overflow exhaustion.
  tiny.init(BufferBackend::kNumaSharded, 5, 0, {}, /*growable_max_log2=*/5,
            nullptr, {}, nullptr,
            SpecBuffer::NumaPolicy{/*shards=*/2, /*region_log2=*/3,
                                   /*home_shard=*/0});
  alignas(8) static uint64_t arena[256];
  for (int i = 0; i < 256 && !tiny.doomed(); ++i) {
    uint64_t v = 1;
    tiny.store_bytes(reinterpret_cast<uintptr_t>(&arena[i]), &v, 8);
  }
  EXPECT_TRUE(tiny.doomed()) << "a shard at its maximum index must doom";
  EXPECT_TRUE(tiny.pressure());
  EXPECT_GT(tiny.stats().overflow_events, 0u);
}

TEST(SpecBufferNumaSharded, ContiguousFootprintStaysHomeLocal) {
  SpecBuffer buf;
  // Default 4 KiB regions: a small contiguous footprint lands entirely in
  // the forker's home shard, so every committed word counts as node-local.
  alignas(4096) static uint64_t arena[64];
  int home = static_cast<int>(
      (reinterpret_cast<uintptr_t>(&arena[0]) >> 12) & 1u);
  buf.init(BufferBackend::kNumaSharded, 8, 64, {}, GrowableSet::kMaxLog2,
           nullptr, {}, nullptr,
           SpecBuffer::NumaPolicy{/*shards=*/2, /*region_log2=*/12, home});
  for (int i = 0; i < 64; ++i) {
    uint64_t v = static_cast<uint64_t>(i);
    buf.store_bytes(reinterpret_cast<uintptr_t>(&arena[i]), &v, 8);
  }
  buf.commit_to_memory();
  EXPECT_EQ(buf.stats().local_commit_words, 64u);
  EXPECT_GT(buf.stats().shard_probe_steps, 0u);
}

TEST(SpecBufferGrowableLog, PressureClearsOnReset) {
  SpecBuffer buf;
  buf.init(BufferBackend::kGrowableLog, 4, 0);
  alignas(8) static uint64_t arena[64];
  for (int i = 0; i < 64; ++i) {
    uint64_t v = 1;
    buf.store_bytes(reinterpret_cast<uintptr_t>(&arena[i]), &v, 8);
  }
  ASSERT_TRUE(buf.pressure());
  buf.reset();
  EXPECT_FALSE(buf.pressure()) << "the grown table is no longer pressured";
  // The grown capacity is retained: re-buffering the same footprint does
  // not resize again.
  uint64_t resizes = buf.stats().resize_events;
  for (int i = 0; i < 64; ++i) {
    uint64_t v = 2;
    buf.store_bytes(reinterpret_cast<uintptr_t>(&arena[i]), &v, 8);
  }
  EXPECT_EQ(buf.stats().resize_events, resizes);
}

// --- cross-backend join-time pairings ---
//
// A ThreadManager configures all its buffers with the same BufferBackend,
// but the SpecBuffer join-time operations are generic over the (child,
// joiner) backend pair — and under kAdaptive, sibling slots genuinely run
// mixed backends (a flipped parent joining an unflipped child and vice
// versa). Pin every pairing down so backends stay interchangeable at the
// contract level, including the merge-time read-adoption policy that now
// lives once in SpecBuffer::merge_into.

struct BackendPair {
  BufferBackend child;
  BufferBackend joiner;
};

class SpecBufferCrossBackend : public ::testing::TestWithParam<BackendPair> {};

TEST_P(SpecBufferCrossBackend, MergeAndValidateCompose) {
  alignas(8) uint64_t x = 0, y = 7;
  SpecBuffer joiner, child;
  joiner.init(GetParam().joiner, 8, 64);
  child.init(GetParam().child, 8, 64);

  uint64_t out;
  child.load_bytes(reinterpret_cast<uintptr_t>(&y), &out, 8);  // read dep
  uint64_t v = 5;
  child.store_bytes(reinterpret_cast<uintptr_t>(&x), &v, 8);
  EXPECT_TRUE(child.validate_against(joiner));

  child.merge_into(joiner);
  EXPECT_FALSE(joiner.doomed());
  // The adopted read keeps guarding the final validation...
  y = 8;
  EXPECT_FALSE(joiner.validate_against_memory());
  y = 7;
  EXPECT_TRUE(joiner.validate_against_memory());
  // ...and the adopted write commits.
  joiner.commit_to_memory();
  EXPECT_EQ(x, 5u);
}

// Read adoption is policy, not backend code: a child read fully covered by
// one of the joiner's *full-mark* writes carries no main-memory dependency
// and must be skipped; a partial-mark cover must NOT suppress it. Every
// (child, joiner) pairing runs the same hoisted SpecBuffer::merge_into.
TEST_P(SpecBufferCrossBackend, FullMarkWriteSuppressesReadAdoption) {
  alignas(8) uint64_t full = 7, partial = 7;
  SpecBuffer joiner, child;
  joiner.init(GetParam().joiner, 8, 64);
  child.init(GetParam().child, 8, 64);

  uint64_t v = 7;
  joiner.store_bytes(reinterpret_cast<uintptr_t>(&full), &v, 8);  // full mark
  uint8_t b = 7;
  joiner.store_bytes(reinterpret_cast<uintptr_t>(&partial), &b, 1);  // partial
  uint64_t out;
  child.load_bytes(reinterpret_cast<uintptr_t>(&full), &out, 8);
  child.load_bytes(reinterpret_cast<uintptr_t>(&partial), &out, 8);
  child.merge_into(joiner);
  ASSERT_FALSE(joiner.doomed());
  EXPECT_EQ(joiner.read_entries(), 1u)
      << "only the partially covered read may be adopted";

  // The fully covered word can change behind the joiner with no effect...
  full = 99;
  EXPECT_TRUE(joiner.validate_against_memory())
      << "a read covered by a full-mark write carries no memory dependency";
  // ...while the partially covered one still guards validation.
  partial = 99;
  EXPECT_FALSE(joiner.validate_against_memory())
      << "a partial-mark cover must not suppress read adoption";
}

TEST_P(SpecBufferCrossBackend, AdoptedReadKeepsJoinersFirstObservation) {
  alignas(8) uint64_t x = 10;
  SpecBuffer joiner, child;
  joiner.init(GetParam().joiner, 8, 64);
  child.init(GetParam().child, 8, 64);

  uint64_t out;
  joiner.load_bytes(reinterpret_cast<uintptr_t>(&x), &out, 8);  // observes 10
  x = 20;  // memory moves between the two observations
  child.load_bytes(reinterpret_cast<uintptr_t>(&x), &out, 8);  // observes 20
  ASSERT_EQ(out, 20u);
  child.merge_into(joiner);

  // First value wins: the joiner's earlier observation (10) must survive
  // the merge, so validation fails against the current 20 and passes once
  // memory returns to 10. (Were the child's 20 adopted over it, the two
  // outcomes would be inverted.)
  EXPECT_FALSE(joiner.validate_against_memory());
  x = 10;
  EXPECT_TRUE(joiner.validate_against_memory());
}

// Adoption inserts into the joiner's write set behind its word-view cache:
// a line that proved a word write-absent would keep serving the joiner's
// own read-set observation. merge_into must therefore drop every line, not
// only one — here two read-only words on different lines.
TEST_P(SpecBufferCrossBackend, MergeInvalidatesEveryCachedLine) {
  std::vector<uint64_t> words(SpecBuffer::kMruLines / 2 + 1, 1);
  uint64_t& x = words.front();
  uint64_t& z = words.back();
  SpecBuffer joiner, child;
  joiner.init(GetParam().joiner, 12, 64);
  child.init(GetParam().child, 12, 64);
  auto addr = [](uint64_t& v) { return reinterpret_cast<uintptr_t>(&v); };

  // Load each word twice: the second load is a read-only line hit.
  for (int i = 0; i < 2; ++i) {
    ASSERT_EQ(joiner.load_aligned(addr(x), 8), 1u);
    ASSERT_EQ(joiner.load_aligned(addr(z), 8), 1u);
  }
  ASSERT_EQ(joiner.stats().mru_hits, 2u);

  child.store_aligned(addr(x), 7, 8);  // full marks
  child.store_aligned(addr(z), 9, 8);
  child.merge_into(joiner);
  ASSERT_FALSE(joiner.doomed());

  EXPECT_EQ(joiner.load_aligned(addr(x), 8), 7u)
      << "a cached read-only line hid the adopted write";
  EXPECT_EQ(joiner.load_aligned(addr(z), 8), 9u)
      << "merge_into left a second cached line alive";
  EXPECT_EQ(joiner.stats().mru_hits, 2u)
      << "the first post-merge loads cannot be line hits";
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, SpecBufferCrossBackend,
    ::testing::Values(
        BackendPair{BufferBackend::kStaticHash, BufferBackend::kStaticHash},
        BackendPair{BufferBackend::kStaticHash, BufferBackend::kGrowableLog},
        BackendPair{BufferBackend::kGrowableLog, BufferBackend::kStaticHash},
        BackendPair{BufferBackend::kGrowableLog, BufferBackend::kGrowableLog},
        BackendPair{BufferBackend::kAdaptive, BufferBackend::kGrowableLog},
        BackendPair{BufferBackend::kGrowableLog, BufferBackend::kAdaptive},
        BackendPair{BufferBackend::kStaticHash, BufferBackend::kAdaptive},
        BackendPair{BufferBackend::kAdaptive, BufferBackend::kStaticHash},
        BackendPair{BufferBackend::kNumaSharded, BufferBackend::kNumaSharded},
        BackendPair{BufferBackend::kNumaSharded, BufferBackend::kStaticHash},
        BackendPair{BufferBackend::kStaticHash, BufferBackend::kNumaSharded},
        BackendPair{BufferBackend::kNumaSharded, BufferBackend::kGrowableLog},
        BackendPair{BufferBackend::kGrowableLog, BufferBackend::kNumaSharded}),
    [](const ::testing::TestParamInfo<BackendPair>& info) {
      return backend_camel_name(info.param.child) + "ChildInto" +
             backend_camel_name(info.param.joiner) + "Joiner";
    });

// --- fast-path / slow-path equivalence ---
//
// The aligned-word fast path (load_aligned/store_aligned), the bulk span
// transfers and the backends' MRU word-view caches are pure shortcuts: a
// random mix of aligned, unaligned and word-straddling accesses routed
// through them must leave byte-identical buffer state — and identical
// validation outcomes and committed bytes — as the same mix through the
// fully generic byte loop. The generic reference below issues every access
// one byte at a time, which bypasses the aligned shortcut entirely (and
// gives the MRU nothing reusable beyond a single word).

class SpecBufferEquivalence : public ::testing::TestWithParam<BufferBackend> {
 protected:
  static constexpr size_t kArenaWords = 48;

  void SetUp() override {
    fast_.init(GetParam(), 8, 64);
    slow_.init(GetParam(), 8, 64);
    for (size_t i = 0; i < kArenaWords; ++i) {
      arena_[i] = 0x0101010101010101ull * (i + 1);
    }
  }

  uintptr_t base() const { return reinterpret_cast<uintptr_t>(&arena_[0]); }

  // Generic reference: the access split into single bytes (worst-case
  // generic path; sub-word loads still insert whole words, so the sets end
  // up the same).
  void ref_store(uintptr_t a, const uint8_t* src, size_t n) {
    for (size_t i = 0; i < n; ++i) slow_.store_bytes(a + i, src + i, 1);
  }
  void ref_load(uintptr_t a, uint8_t* out, size_t n) {
    for (size_t i = 0; i < n; ++i) slow_.load_bytes(a + i, out + i, 1);
  }

  // Fast path where eligible (the production routing rule), span transfer
  // otherwise.
  void fast_store(uintptr_t a, const uint8_t* src, size_t n) {
    if (word_sized_aligned(a, n)) {
      uint64_t raw = 0;
      std::memcpy(&raw, src, n);
      fast_.store_aligned(a, raw, n);
    } else {
      fast_.store_span(a, src, n);
    }
  }
  void fast_load(uintptr_t a, uint8_t* out, size_t n) {
    if (word_sized_aligned(a, n)) {
      uint64_t raw = fast_.load_aligned(a, n);
      std::memcpy(out, &raw, n);
    } else {
      fast_.load_span(a, out, n);
    }
  }

  alignas(8) uint64_t arena_[kArenaWords];
  SpecBuffer fast_;
  SpecBuffer slow_;
};

TEST_P(SpecBufferEquivalence, RandomAccessMixMatchesGenericByteLoop) {
  Xorshift64 rng(0xfeedbeef);
  const size_t arena_bytes = kArenaWords * sizeof(uint64_t);
  for (int op = 0; op < 2000; ++op) {
    // Sizes 1..16 cover aligned scalars, odd widths and word straddles.
    size_t n = 1 + rng.next() % 16;
    uintptr_t a = base() + rng.next() % (arena_bytes - n);
    if (rng.next() % 2 == 0) {
      uint8_t data[16];
      for (size_t i = 0; i < n; ++i) {
        data[i] = static_cast<uint8_t>(rng.next());
      }
      fast_store(a, data, n);
      ref_store(a, data, n);
    } else {
      uint8_t got_fast[16] = {0};
      uint8_t got_slow[16] = {0};
      fast_load(a, got_fast, n);
      ref_load(a, got_slow, n);
      ASSERT_EQ(std::memcmp(got_fast, got_slow, n), 0)
          << "op " << op << ": fast and generic loads disagree";
    }
  }
  ASSERT_FALSE(fast_.doomed());
  ASSERT_FALSE(slow_.doomed());
  EXPECT_EQ(fast_.read_entries(), slow_.read_entries());
  EXPECT_EQ(fast_.write_entries(), slow_.write_entries());

  // Identical validation outcomes: valid now, and both spot the same
  // main-memory change behind a word that at least one load observed.
  EXPECT_TRUE(fast_.validate_against_memory());
  EXPECT_TRUE(slow_.validate_against_memory());
  for (size_t i = 0; i < kArenaWords; ++i) {
    uint64_t saved = arena_[i];
    arena_[i] ^= 0xff00ull;
    EXPECT_EQ(fast_.validate_against_memory(),
              slow_.validate_against_memory())
        << "validation outcomes diverge when word " << i << " changes";
    arena_[i] = saved;
  }

  // Byte-identical committed state: commit each buffer onto a pristine
  // copy of the arena and compare the results.
  alignas(8) uint64_t snapshot[kArenaWords];
  std::memcpy(snapshot, arena_, sizeof(arena_));
  fast_.commit_to_memory();
  alignas(8) uint64_t after_fast[kArenaWords];
  std::memcpy(after_fast, arena_, sizeof(arena_));
  std::memcpy(arena_, snapshot, sizeof(arena_));
  slow_.commit_to_memory();
  EXPECT_EQ(std::memcmp(after_fast, arena_, sizeof(arena_)), 0)
      << "fast and generic commits leave different memory";
}

TEST_P(SpecBufferEquivalence, MruInvalidatedAcrossReset) {
  alignas(8) uint64_t& x = arena_[0];
  // Prime the MRU line: a store then a load of the same word is the
  // load+store locality the cache exists for.
  uint8_t v = 0xAB;
  fast_store(reinterpret_cast<uintptr_t>(&x), &v, 1);
  uint8_t out = 0;
  fast_load(reinterpret_cast<uintptr_t>(&x), &out, 1);
  ASSERT_EQ(out, 0xAB);

  fast_.reset();
  // The line must not survive the reset: the slot it named is gone. A
  // post-reset load must re-observe main memory (fresh first touch), not
  // serve the dead slot.
  uint64_t hits_before = fast_.stats().mru_hits;
  x = 0x1122334455667788ull;
  uint64_t word = 0;
  fast_load(reinterpret_cast<uintptr_t>(&x), reinterpret_cast<uint8_t*>(&word),
            8);
  EXPECT_EQ(word, 0x1122334455667788ull)
      << "stale MRU line served a discarded slot after reset";
  EXPECT_EQ(fast_.stats().mru_hits, hits_before)
      << "the first post-reset touch cannot be an MRU hit";
  EXPECT_EQ(fast_.read_entries(), 1u);
}

TEST_P(SpecBufferEquivalence, MruInvalidatedAcrossResetForSpeculation) {
  // Same guarantee one layer up: re-arming a virtual-CPU slot
  // (ThreadData::reset_for_speculation) resets the buffer and with it the
  // MRU line, so a reused slot cannot leak a previous speculation's view.
  ThreadData td;
  td.sbuf.init(GetParam(), 8, 64);
  td.lbuf.init(4);
  alignas(8) uint64_t& x = arena_[1];
  uint64_t v = 99;
  td.sbuf.store_bytes(reinterpret_cast<uintptr_t>(&x), &v, 8);
  uint64_t out = 0;
  td.sbuf.load_bytes(reinterpret_cast<uintptr_t>(&x), &out, 8);
  ASSERT_EQ(out, 99u);

  td.reset_for_speculation(0, 0, 1, 0x5eed, 0.0);
  x = 424242;
  out = 0;
  td.sbuf.load_bytes(reinterpret_cast<uintptr_t>(&x), &out, 8);
  EXPECT_EQ(out, 424242u)
      << "reused slot leaked the previous speculation's buffered view";
  EXPECT_EQ(td.sbuf.stats().mru_hits, 0u)
      << "clear_stats + reset must leave no pre-armed MRU hit";
}

// The word-view cache is ONE state machine in SpecBuffer, parameterized on
// the backends' slot handles; walk it through every line state
// deterministically and pin the exact hit/miss/skip accounting — identical
// for every backend, since the machine does not live in them. x and y are
// adjacent words, so they sit in different lines.
TEST_P(SpecBufferEquivalence, MruStateMachineCoversEveryLineState) {
  alignas(8) uint64_t x = 0x0807060504030201ull;
  alignas(8) uint64_t y = 0xbbbbbbbbbbbbbbbbull;
  auto addr = [](uint64_t& v) { return reinterpret_cast<uintptr_t>(&v); };
  const SpecBufferStats& s = fast_.stats();

  // 1. Partial-mark store: write-set miss, line learns the write handle.
  uint8_t b = 0xAA;
  fast_.store_span(addr(x), &b, 1);
  EXPECT_EQ(s.mru_misses, 1u);
  EXPECT_EQ(s.mru_hits, 0u);

  // 2. Load of the same word: the line knows a *partial* write but no read
  // slot yet -> miss path resolves the read slot, keeping the write half.
  uint64_t out = fast_.load_aligned(addr(x), 8);
  EXPECT_EQ(out, 0x08070605040302AAull) << "written byte over memory base";
  EXPECT_EQ(s.mru_misses, 2u);

  // 3. Load again: partial write + read slot both cached -> overlay hit.
  out = fast_.load_aligned(addr(x), 8);
  EXPECT_EQ(out, 0x08070605040302AAull);
  EXPECT_EQ(s.mru_hits, 1u);
  EXPECT_EQ(s.probe_skips, 2u);

  // 4. Store through the cached write handle -> hit, one probe skipped.
  fast_.store_aligned(addr(x), 0x1111111111111111ull, 8);
  EXPECT_EQ(s.mru_hits, 2u);
  EXPECT_EQ(s.probe_skips, 3u);

  // 5. Load of a now fully-marked word -> served from the write slot.
  out = fast_.load_aligned(addr(x), 8);
  EXPECT_EQ(out, 0x1111111111111111ull);
  EXPECT_EQ(s.mru_hits, 3u);
  EXPECT_EQ(s.probe_skips, 4u);

  // 6. Different, read-only word: miss, line proves the write absent...
  out = fast_.load_aligned(addr(y), 8);
  EXPECT_EQ(out, 0xbbbbbbbbbbbbbbbbull);
  EXPECT_EQ(s.mru_misses, 3u);

  // 7. ...so the repeat load is a read-only hit skipping both probes.
  out = fast_.load_aligned(addr(y), 8);
  EXPECT_EQ(out, 0xbbbbbbbbbbbbbbbbull);
  EXPECT_EQ(s.mru_hits, 4u);
  EXPECT_EQ(s.probe_skips, 6u);

  // The shortcuts above must not have perturbed the sets themselves.
  EXPECT_EQ(fast_.read_entries(), 2u);
  EXPECT_EQ(fast_.write_entries(), 1u);
  EXPECT_TRUE(fast_.validate_against_memory());
}

// Two words kMruLines words apart share one word-view line and evict each
// other on every alternation. Interleaved loads, partial stores and full
// stores of the pair must still match the generic byte path exactly and
// leave exactly the expected set footprints.
TEST_P(SpecBufferEquivalence, AliasedLinesMatchGenericByteLoop) {
  std::vector<uint64_t> mem(SpecBuffer::kMruLines + 1);
  for (size_t i = 0; i < mem.size(); ++i) mem[i] = 0x1111111111111111ull * i;
  const uintptr_t x = reinterpret_cast<uintptr_t>(&mem.front());
  const uintptr_t y = reinterpret_cast<uintptr_t>(&mem.back());
  ASSERT_EQ(y - x, SpecBuffer::kMruLines * sizeof(uint64_t));
  // Sized so the static hash keeps both words in its table.
  fast_.init(GetParam(), 12, 64);
  slow_.init(GetParam(), 12, 64);

  auto check_load = [&](uintptr_t a, size_t n, int step) {
    uint8_t got_fast[8] = {0};
    uint8_t got_slow[8] = {0};
    fast_load(a, got_fast, n);
    ref_load(a, got_slow, n);
    ASSERT_EQ(std::memcmp(got_fast, got_slow, n), 0)
        << "step " << step << ": fast and generic loads disagree";
  };
  auto store = [&](uintptr_t a, uint64_t v, size_t n) {
    uint8_t bytes[8];
    std::memcpy(bytes, &v, sizeof(bytes));
    fast_store(a, bytes, n);
    ref_store(a, bytes, n);
  };

  for (int round = 0; round < 4; ++round) {
    uint64_t v = 0x0102030405060708ull * static_cast<uint64_t>(round + 1);
    check_load(x, 8, 0);          // x read-only in the shared line
    check_load(y, 8, 1);          // y evicts it
    check_load(x, 8, 2);          // and x evicts y again
    store(y + 3, v, 1);           // partial store into y
    check_load(y, 8, 3);          // y's written byte over its read
    check_load(x + 2, 4, 4);      // sub-word load of x
    store(x, v, 8);               // full store of x
    check_load(y, 8, 5);
    check_load(x, 8, 6);          // served from x's full write
    store(y, ~v, 8);              // full store of y over the partial one
    check_load(x + 4, 2, 7);
    check_load(y + 1, 2, 8);
  }
  ASSERT_FALSE(fast_.doomed());
  EXPECT_EQ(fast_.read_entries(), 2u);
  EXPECT_EQ(fast_.write_entries(), 2u);
  EXPECT_EQ(fast_.read_entries(), slow_.read_entries());
  EXPECT_EQ(fast_.write_entries(), slow_.write_entries());

  // Both words were read before they were overwritten, so both still
  // guard validation.
  EXPECT_TRUE(fast_.validate_against_memory());
  EXPECT_TRUE(slow_.validate_against_memory());
  for (uint64_t* w : {&mem.front(), &mem.back()}) {
    *w ^= 0xff;
    EXPECT_FALSE(fast_.validate_against_memory());
    EXPECT_FALSE(slow_.validate_against_memory());
    *w ^= 0xff;
  }

  std::vector<uint64_t> snapshot = mem;
  fast_.commit_to_memory();
  std::vector<uint64_t> after_fast = mem;
  mem = snapshot;
  slow_.commit_to_memory();
  EXPECT_EQ(after_fast, mem) << "fast and generic commits leave different "
                                "memory";
}

// Invalidation bumps a generation instead of clearing the lines. The
// generation lives in the tag bits that a line's index and the word
// alignment make redundant, so it repeats after `period` invalidations; a
// line left untouched for that long would match again unless the wrap
// clears the table. Its stale handle names a slot the reset emptied.
TEST_P(SpecBufferEquivalence, InvalidationSurvivesGenerationWrap) {
  const uint64_t period = SpecBuffer::kMruLines * sizeof(uint64_t) - 1;
  alignas(8) uint64_t y = 1;
  const uintptr_t a = reinterpret_cast<uintptr_t>(&y);
  for (int wrap = 0; wrap < 2; ++wrap) {
    ASSERT_EQ(fast_.load_aligned(a, 8), y);  // caches y's line
    for (uint64_t i = 0; i < period; ++i) fast_.reset();
    ++y;
    EXPECT_EQ(fast_.load_aligned(a, 8), y)
        << "a line cached before the generation wrapped matched again";
    fast_.reset();
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, SpecBufferEquivalence,
                         ::testing::Values(BufferBackend::kStaticHash,
                                           BufferBackend::kGrowableLog,
                                           BufferBackend::kAdaptive,
                                           BufferBackend::kNumaSharded),
                         backend_test_name);

}  // namespace
}  // namespace mutls
