// Unit tests for speculative memory buffering, validation, commit and the
// tree-form merge (paper IV-G2 and IV-F), run against the SpecBuffer API
// and value-parameterized over both backends: the buffered-view semantics
// are a backend-independent contract. Backend-specific capacity behavior
// (overflow doom vs resize) and the join-time pairings are covered at the
// bottom.
#include "runtime/spec_buffer.h"

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <vector>

#include "exec/mem_ops.h"
#include "mutls/mutls.h"
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
                                           BufferBackend::kGrowableLog),
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

// A load whose first touch exhausts the static hash dooms and leaves its
// line untagged, so a reload misses again. A word living in the overflow
// map has no stable handle, but its line caches the value, so its reload
// is a hit.
TEST(SpecBufferStaticHash, CapacityDoomLeavesLineUntagged) {
  SpecBuffer tiny;
  tiny.init(BufferBackend::kStaticHash, 4, 1);  // 16 slots, 1 overflow
  alignas(8) static uint64_t arena[64];
  const uintptr_t in_table = reinterpret_cast<uintptr_t>(&arena[0]);
  const uintptr_t overflow = reinterpret_cast<uintptr_t>(&arena[16]);
  const uintptr_t too_many = reinterpret_cast<uintptr_t>(&arena[32]);
  arena[16] = 16;
  arena[32] = 32;
  (void)tiny.load_aligned(in_table, 8);
  EXPECT_EQ(tiny.load_aligned(overflow, 8), 16u);
  ASSERT_FALSE(tiny.doomed());
  EXPECT_EQ(tiny.load_aligned(overflow, 8), 16u);
  EXPECT_EQ(tiny.stats().mru_hits, 1u) << "overflow resident's view cached";

  EXPECT_EQ(tiny.load_aligned(too_many, 8), 32u) << "memory fallback";
  ASSERT_TRUE(tiny.doomed());
  const uint64_t misses = tiny.stats().mru_misses;
  EXPECT_EQ(tiny.load_aligned(too_many, 8), 32u);
  EXPECT_EQ(tiny.stats().mru_misses, misses + 1);
  EXPECT_EQ(tiny.stats().mru_hits, 1u) << "a doomed miss cached its view";
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

// At its maximum index the growable log dooms instead of aborting, with a
// reason naming the exhausted set, and a first-touch load past the cap
// falls back to memory and leaves its line untagged, like the static
// hash's overflow doom.
TEST(SpecBufferGrowableLog, HardCapDoomsInsteadOfAborting) {
  SpecBuffer tiny;
  tiny.init(BufferBackend::kGrowableLog, 4, 0, /*growable_max_log2=*/4);
  alignas(8) static uint64_t arena[32];
  auto addr = [](int i) { return reinterpret_cast<uintptr_t>(&arena[i]); };

  // A 16-slot index holds 15 entries: probing needs one empty slot.
  for (int i = 0; i < 15; ++i) tiny.store_aligned(addr(i), 1, 8);
  ASSERT_FALSE(tiny.doomed());
  tiny.store_aligned(addr(15), 1, 8);
  ASSERT_TRUE(tiny.doomed());
  EXPECT_STREQ(tiny.doom_reason(),
               "write-set exhausted the maximum growable index");
  EXPECT_GE(tiny.stats().overflow_events, 1u);
  EXPECT_EQ(tiny.stats().resize_events, 0u);

  tiny.rearm();
  EXPECT_FALSE(tiny.doomed());
  EXPECT_EQ(tiny.read_entries() + tiny.write_entries(), 0u);
  EXPECT_EQ(tiny.stats().overflow_events, 0u);
  EXPECT_EQ(tiny.stats().mru_misses, 0u);

  arena[31] = 31;
  for (int i = 16; i < 31; ++i) (void)tiny.load_aligned(addr(i), 8);
  ASSERT_FALSE(tiny.doomed());
  EXPECT_EQ(tiny.load_aligned(addr(31), 8), 31u) << "memory fallback";
  ASSERT_TRUE(tiny.doomed());
  EXPECT_STREQ(tiny.doom_reason(),
               "read-set exhausted the maximum growable index");
  EXPECT_GE(tiny.stats().overflow_events, 1u);
  const uint64_t misses = tiny.stats().mru_misses;
  EXPECT_EQ(tiny.load_aligned(addr(31), 8), 31u);
  EXPECT_EQ(tiny.stats().mru_misses, misses + 1);
  EXPECT_EQ(tiny.stats().mru_hits, 0u) << "a doomed miss cached its view";

  tiny.rearm();
  EXPECT_FALSE(tiny.doomed());
  EXPECT_EQ(tiny.stats().overflow_events, 0u);
  EXPECT_EQ(tiny.stats().mru_misses, 0u);
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

// --- join-time pairings ---
//
// A ThreadManager configures all its buffers with the same BufferBackend,
// so a child always joins a joiner of its own backend. Pin the pairing
// down on both stores, including the merge-time read-adoption policy that
// lives once in SpecBuffer::merge_into.

class SpecBufferSameBackendJoin
    : public ::testing::TestWithParam<BufferBackend> {};

TEST_P(SpecBufferSameBackendJoin, MergeAndValidateCompose) {
  alignas(8) uint64_t x = 0, y = 7;
  SpecBuffer joiner, child;
  joiner.init(GetParam(), 8, 64);
  child.init(GetParam(), 8, 64);

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
// and must be skipped; a partial-mark cover must NOT suppress it. Both
// stores run the same SpecBuffer::merge_into.
TEST_P(SpecBufferSameBackendJoin, FullMarkWriteSuppressesReadAdoption) {
  alignas(8) uint64_t full = 7, partial = 7;
  SpecBuffer joiner, child;
  joiner.init(GetParam(), 8, 64);
  child.init(GetParam(), 8, 64);

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

TEST_P(SpecBufferSameBackendJoin, AdoptedReadKeepsJoinersFirstObservation) {
  alignas(8) uint64_t x = 10;
  SpecBuffer joiner, child;
  joiner.init(GetParam(), 8, 64);
  child.init(GetParam(), 8, 64);

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
TEST_P(SpecBufferSameBackendJoin, MergeInvalidatesEveryCachedLine) {
  std::vector<uint64_t> words(SpecBuffer::kMruLines / 2 + 1, 1);
  uint64_t& x = words.front();
  uint64_t& z = words.back();
  SpecBuffer joiner, child;
  joiner.init(GetParam(), 12, 64);
  child.init(GetParam(), 12, 64);
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

INSTANTIATE_TEST_SUITE_P(Backends, SpecBufferSameBackendJoin,
                         ::testing::Values(BufferBackend::kStaticHash,
                                           BufferBackend::kGrowableLog),
                         backend_test_name);

// A buffer pairs only with a joiner of its own backend: a mixed join has
// no store to pair with and must fail loudly rather than misread one.
TEST(SpecBufferJoinDeathTest, CrossBackendMergeDies) {
  SpecBuffer joiner, child;
  joiner.init(BufferBackend::kGrowableLog, 8, 64);
  child.init(BufferBackend::kStaticHash, 8, 64);
  EXPECT_DEATH(child.merge_into(joiner), "different buffer backends");
}

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

// The word-view cache is ONE state machine in SpecBuffer: a line holds a
// word's composed view (kView) or only its write handle (kWriteOnly, after
// partial stores to a word never read). Walk every line state and
// transition deterministically and pin the exact hit/miss accounting —
// identical for every backend, since the machine does not live in them.
// The three words are adjacent, so they sit in different lines.
TEST_P(SpecBufferEquivalence, MruStateMachineCoversEveryLineState) {
  alignas(8) uint64_t mem[3] = {0x0807060504030201ull, 0xbbbbbbbbbbbbbbbbull,
                                0xccccccccccccccccull};
  const uintptr_t x = reinterpret_cast<uintptr_t>(&mem[0]);
  const uintptr_t y = reinterpret_cast<uintptr_t>(&mem[1]);
  const uintptr_t z = reinterpret_cast<uintptr_t>(&mem[2]);
  const SpecBufferStats& s = fast_.stats();
  auto counts = [&](uint64_t hits, uint64_t misses, int step) {
    EXPECT_EQ(s.mru_hits, hits) << "step " << step;
    EXPECT_EQ(s.mru_misses, misses) << "step " << step;
  };

  // 1. Partial store to an untouched word: store miss, the line learns the
  // write handle but holds no view (kWriteOnly).
  fast_.store_aligned(x, 0xAA, 1);
  counts(0, 1, 1);

  // 2. A second partial store goes through the cached write handle.
  fast_.store_aligned(x + 1, 0xBB, 1);
  counts(1, 1, 2);

  // 3. Load of a kWriteOnly word: miss, resolves and caches the view.
  EXPECT_EQ(fast_.load_aligned(x, 8), 0x080706050403BBAAull)
      << "written bytes over the memory base";
  counts(1, 2, 3);

  // 4. Load again: kView hit.
  EXPECT_EQ(fast_.load_aligned(x, 8), 0x080706050403BBAAull);
  counts(2, 2, 4);

  // 5. Full store through the cached handle overlays the view: hit.
  fast_.store_aligned(x, 0x1111111111111111ull, 8);
  counts(3, 2, 5);

  // 6. The view reflects the store without a probe.
  EXPECT_EQ(fast_.load_aligned(x, 8), 0x1111111111111111ull);
  counts(4, 2, 6);

  // 7. Read-only word: miss; the line holds its view and no write handle.
  EXPECT_EQ(fast_.load_aligned(y, 8), 0xbbbbbbbbbbbbbbbbull);
  counts(4, 3, 7);

  // 8. ...so the repeat load is a hit.
  EXPECT_EQ(fast_.load_aligned(y, 8), 0xbbbbbbbbbbbbbbbbull);
  counts(5, 3, 8);

  // 9. Partial store to a viewed word with no write handle: store miss,
  // which overlays the view and learns the handle.
  fast_.store_aligned(y + 7, 0x55, 1);
  counts(5, 4, 9);

  // 10. The overlaid view is served by a hit.
  EXPECT_EQ(fast_.load_aligned(y, 8), 0x55bbbbbbbbbbbbbbull);
  counts(6, 4, 10);

  // 11. Further partial stores hit through the handle and keep the view.
  fast_.store_aligned(y, 0x66, 1);
  counts(7, 4, 11);
  EXPECT_EQ(fast_.load_aligned(y, 8), 0x55bbbbbbbbbbbb66ull);
  counts(8, 4, 11);

  // 12. Two half-word stores to an unread word: the first misses into
  // kWriteOnly, the second hits and completes the full mark, which makes
  // the view valid without ever reading memory.
  fast_.store_aligned(z, 0x33333333, 4);
  counts(8, 5, 12);
  fast_.store_aligned(z + 4, 0x44444444, 4);
  counts(9, 5, 12);
  EXPECT_EQ(fast_.load_aligned(z, 8), 0x4444444433333333ull);
  counts(10, 5, 12);

  // The shortcuts above must not have perturbed the sets themselves.
  EXPECT_EQ(fast_.read_entries(), 2u) << "z was never read";
  EXPECT_EQ(fast_.write_entries(), 3u);
  EXPECT_TRUE(fast_.validate_against_memory());
  fast_.commit_to_memory();
  EXPECT_EQ(mem[0], 0x1111111111111111ull);
  EXPECT_EQ(mem[1], 0x55bbbbbbbbbbbb66ull);
  EXPECT_EQ(mem[2], 0x4444444433333333ull);
}

// Load, partial store, load: the second load is a line hit and returns the
// stored bytes over the first load's observation, exactly as the generic
// byte path composes them.
TEST_P(SpecBufferEquivalence, PartialStoreOverlaysCachedView) {
  const uintptr_t a = base() + 5 * sizeof(uint64_t);
  uint8_t first[8], ref_first[8];
  fast_load(a, first, 8);
  ref_load(a, ref_first, 8);
  ASSERT_EQ(std::memcmp(first, ref_first, 8), 0);

  const uint8_t patch[2] = {0xDE, 0xAD};
  fast_store(a + 2, patch, 2);
  ref_store(a + 2, patch, 2);

  const uint64_t hits = fast_.stats().mru_hits;
  uint8_t second[8], ref_second[8];
  fast_load(a, second, 8);
  ref_load(a, ref_second, 8);
  EXPECT_EQ(std::memcmp(second, ref_second, 8), 0);
  EXPECT_EQ(second[2], 0xDE);
  EXPECT_EQ(second[3], 0xAD);
  EXPECT_EQ(std::memcmp(second + 4, first + 4, 4), 0);
  EXPECT_EQ(fast_.stats().mru_hits, hits + 1) << "the reload must be a hit";

  // Memory moving under the observed bytes still fails validation.
  arena_[5] ^= 0xff00000000000000ull;
  EXPECT_FALSE(fast_.validate_against_memory());
  arena_[5] ^= 0xff00000000000000ull;
  EXPECT_TRUE(fast_.validate_against_memory());
}

// Two partial stores that together cover the word complete its full mark:
// the next load is a hit and the word has no read-set entry, so memory
// moving under it cannot fail validation.
TEST_P(SpecBufferEquivalence, CompletedFullMarkMakesViewValid) {
  const uintptr_t a = base() + 7 * sizeof(uint64_t);
  fast_.store_aligned(a + 4, 0x89abcdefull, 4);
  fast_.store_aligned(a, 0x01234567ull, 4);
  const uint64_t hits = fast_.stats().mru_hits;
  const uint64_t misses = fast_.stats().mru_misses;
  EXPECT_EQ(fast_.load_aligned(a, 8), 0x89abcdef01234567ull);
  EXPECT_EQ(fast_.stats().mru_hits, hits + 1);
  EXPECT_EQ(fast_.stats().mru_misses, misses);
  EXPECT_EQ(fast_.read_entries(), 0u);
  arena_[7] = 0;
  EXPECT_TRUE(fast_.validate_against_memory());
}

// With value prediction on, a confident first-touch read adopts the
// predicted value; the line caches that value, so a reload hits and
// returns it too. Validation still settles the bet: it passes when memory
// reaches the prediction and dooms with the mispredict reason otherwise.
TEST_P(SpecBufferEquivalence, PredictedFirstTouchCachesPredictedValue) {
  constexpr uint64_t kStride = 7;
  fast_.init(GetParam(), 8, 64, GrowableSet::kMaxLog2, nullptr,
             SpecPredictPolicy{.enabled = true,
                               .confidence_threshold = 2,
                               .stride_window = uint64_t{1} << 16,
                               .table_log2 = 8});
  alignas(8) uint64_t word = 100;
  const uintptr_t a = reinterpret_cast<uintptr_t>(&word);
  // Three conflicting epochs train a confident stride.
  for (int epoch = 0; epoch < 3; ++epoch) {
    ASSERT_EQ(fast_.load_aligned(a, 8), word);
    word += kStride;
    ASSERT_FALSE(fast_.validate_against_memory());
    fast_.rearm();
  }

  // The bet lands: memory reaches the predicted value before the join.
  EXPECT_EQ(fast_.load_aligned(a, 8), word + kStride);
  EXPECT_EQ(fast_.load_aligned(a, 8), word + kStride) << "line hit";
  EXPECT_EQ(fast_.stats().mru_hits, 1u);
  EXPECT_EQ(fast_.stats().predicted_reads, 1u);
  word += kStride;
  EXPECT_TRUE(fast_.validate_against_memory());
  EXPECT_EQ(fast_.stats().saved_rollbacks, 1u);
  fast_.rearm();

  // The bet misses: memory stays put, the cached prediction is wrong.
  EXPECT_EQ(fast_.load_aligned(a, 8), word + kStride);
  EXPECT_EQ(fast_.load_aligned(a, 8), word + kStride) << "line hit";
  EXPECT_EQ(fast_.stats().mru_hits, 1u);
  EXPECT_FALSE(fast_.validate_against_memory());
  EXPECT_TRUE(fast_.doomed());
  EXPECT_STREQ(fast_.doom_reason(), SpecBuffer::kMispredictDoomReason);
}

// exec::load_mem (the IR tiers' load) and Ctx::load (the native API's)
// share the one hit path: on every word state they return the same view,
// and a word either of them cached is a line hit for the other.
TEST_P(SpecBufferEquivalence, ExecLoadMemMatchesCtxLoad) {
  Runtime::Options o;
  o.num_cpus = 2;
  o.buffer_log2 = 8;
  o.overflow_cap = 64;
  o.buffer_backend = GetParam();
  Runtime rt(o);
  SharedArray<uint64_t> data(rt, 4, 0);
  for (size_t i = 0; i < data.size(); ++i) {
    data[i] = 0x0101010101010101ull * (i + 1);
  }
  bool speculated = false;
  int compared = 0;
  int mismatches = 0;
  int exec_misses = 0;
  rt.run([&](Ctx& ctx) {
    Spec s = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
      speculated = c.speculative();
      ThreadData& td = c.thread_data();
      auto exec_load = [&](const void* p, size_t n) {
        uint64_t v = 0;
        exec::load_mem(rt.manager(), td, reinterpret_cast<uint64_t>(p), &v,
                       n);
        return v;
      };
      auto compare = [&](uint64_t ctx_view, uint64_t exec_view) {
        ++compared;
        if (ctx_view != exec_view) ++mismatches;
      };
      // data[1]: partial write before any read; data[2]: partial write
      // after a read; data[3]: full write. data[0] stays read-only.
      auto* bytes = reinterpret_cast<uint8_t*>(data.data());
      c.store(bytes + 8 + 3, uint8_t{0xE1});
      (void)c.load(&data[2]);
      c.store(bytes + 16 + 6, uint8_t{0xE2});
      c.store(&data[3], uint64_t{0xE3E3E3E3E3E3E3E3ull});
      for (size_t i = 0; i < data.size(); ++i) {
        // Ctx first, then exec: the exec load must be a line hit.
        uint64_t via_ctx = c.load(&data[i]);
        const uint64_t misses = td.sbuf.stats().mru_misses;
        compare(via_ctx, exec_load(&data[i], 8));
        exec_misses += static_cast<int>(td.sbuf.stats().mru_misses - misses);
        // Sub-word aligned and unaligned loads of the same word.
        auto* half = reinterpret_cast<const uint16_t*>(&data[i]) + 1;
        compare(c.load(half), exec_load(half, 2));
        auto* odd = reinterpret_cast<const uint32_t*>(bytes + 8 * i + 2);
        compare(c.load(odd), exec_load(odd, 4));
      }
    });
    rt.join(ctx, s);
  });
  EXPECT_TRUE(speculated) << "the child must run on the speculative path";
  EXPECT_EQ(compared, 12);
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(exec_misses, 0) << "exec::load_mem missed a line Ctx::load "
                               "had just filled";
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

// Join-time validation and commit walk the sets in place, whatever their
// size. A speculation whose read and write sets each exceed 10 000 words
// validates, fails validation when exactly one of its words changes in
// memory, and commits byte-exact (full and partial writes alike).
TEST_P(SpecBufferEquivalence, LargeSetsValidateAndCommitByteExact) {
  constexpr size_t kWords = 12288;
  std::vector<uint64_t> mem(kWords);
  for (size_t i = 0; i < kWords; ++i) mem[i] = 0x9E3779B97F4A7C15ull * (i + 1);
  // Sized so the static hash keeps every contiguous word in its table.
  fast_.init(GetParam(), 15, 64);
  std::vector<uint64_t> expected = mem;
  for (size_t i = 0; i < kWords; ++i) {
    const uintptr_t a = reinterpret_cast<uintptr_t>(&mem[i]);
    ASSERT_EQ(fast_.load_aligned(a, 8), mem[i]) << "word " << i;
    if (i % 8 == 7) continue;  // read-only
    if (i % 2 == 0) {
      fast_.store_aligned(a, ~mem[i], 8);
      expected[i] = ~mem[i];
    } else {
      const size_t off = i % 8;
      const uint64_t b = (i * 31 + 7) & 0xff;
      fast_.store_aligned(a + off, b, 1);
      expected[i] = overlay_bytes(expected[i], b << (8 * off),
                                  byte_mask(off, 1));
    }
  }
  ASSERT_FALSE(fast_.doomed());
  ASSERT_EQ(fast_.read_entries(), kWords);
  ASSERT_GT(fast_.write_entries(), 10000u);

  EXPECT_TRUE(fast_.validate_against_memory());
  EXPECT_EQ(fast_.stats().validated_words, kWords);
  for (size_t i : {size_t{0}, size_t{1}, size_t{4095}, size_t{4096},
                   kWords / 2, kWords - 2, kWords - 1}) {
    mem[i] ^= uint64_t{1} << 40;
    EXPECT_FALSE(fast_.validate_against_memory()) << "word " << i;
    mem[i] ^= uint64_t{1} << 40;
  }
  EXPECT_TRUE(fast_.validate_against_memory());

  fast_.commit_to_memory();
  EXPECT_EQ(mem, expected) << "commit differs from the buffered writes";
}

INSTANTIATE_TEST_SUITE_P(Backends, SpecBufferEquivalence,
                         ::testing::Values(BufferBackend::kStaticHash,
                                           BufferBackend::kGrowableLog),
                         backend_test_name);

}  // namespace
}  // namespace mutls
