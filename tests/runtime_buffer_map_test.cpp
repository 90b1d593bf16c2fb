// Unit tests for the map structures underlying the SpecBuffer backends:
// the paper's static hash map (single-slot hashing, offsets stack, overflow
// buffer — IV-G2) and the growable-log backend's open-addressed
// GrowableSet (probing, resize, O(entries) clear).
#include <gtest/gtest.h>
#include <sys/mman.h>

#include <cstdio>
#include <unordered_map>
#include <vector>

#include "runtime/global_buffer.h"
#include "runtime/growable_log_buffer.h"

namespace mutls {
namespace {

// Word addresses that collide in a map of 2^4 entries: the slot index is
// (addr >> 3) & 15, so addresses 8*k and 8*(k+16) collide.
constexpr uintptr_t kA = 0x10000;
constexpr uintptr_t kColliding = kA + 16 * 8;

TEST(BufferMap, InsertThenFind) {
  BufferMap m;
  m.init(4, 4, /*with_marks=*/true);
  BufferMap::Slot s;
  EXPECT_EQ(m.find_or_insert(kA, s), BufferMap::Find::kInserted);
  *s.data = 0xdeadbeef;
  *s.mark = 0xff;
  BufferMap::Slot t;
  ASSERT_TRUE(m.find(kA, t));
  EXPECT_EQ(*t.data, 0xdeadbeefu);
  EXPECT_EQ(*t.mark, 0xffu);
  EXPECT_EQ(m.find_or_insert(kA, t), BufferMap::Find::kFound);
}

TEST(BufferMap, DefaultConstructedReportsNotInitialized) {
  // Regression: initialized() used to be `mask_ != 0 || !addresses_`, which
  // reports a default-constructed map (mask_ == 0, addresses_ == null) as
  // initialized.
  BufferMap m;
  EXPECT_FALSE(m.initialized());
  m.init(4, 4, /*with_marks=*/false);
  EXPECT_TRUE(m.initialized());
}

TEST(BufferMap, MissingAddressNotFound) {
  BufferMap m;
  m.init(4, 4, false);
  BufferMap::Slot s;
  EXPECT_FALSE(m.find(kA, s));
}

TEST(BufferMap, InsertZeroesSlot) {
  BufferMap m;
  m.init(4, 4, true);
  BufferMap::Slot s;
  m.find_or_insert(kA, s);
  EXPECT_EQ(*s.data, 0u);
  EXPECT_EQ(*s.mark, 0u);
}

TEST(BufferMap, CollisionGoesToOverflow) {
  BufferMap m;
  m.init(4, 4, true);
  BufferMap::Slot s1, s2;
  EXPECT_EQ(m.find_or_insert(kA, s1), BufferMap::Find::kInserted);
  EXPECT_EQ(m.find_or_insert(kColliding, s2), BufferMap::Find::kInserted);
  EXPECT_EQ(m.overflow_count(), 1u);
  *s1.data = 1;
  *s2.data = 2;
  BufferMap::Slot t;
  ASSERT_TRUE(m.find(kA, t));
  EXPECT_EQ(*t.data, 1u);
  ASSERT_TRUE(m.find(kColliding, t));
  EXPECT_EQ(*t.data, 2u);
}

TEST(BufferMap, OverflowCapExhaustionReportsFull) {
  BufferMap m;
  m.init(4, 2, true);  // only two overflow entries
  BufferMap::Slot s;
  EXPECT_EQ(m.find_or_insert(kA, s), BufferMap::Find::kInserted);
  EXPECT_EQ(m.find_or_insert(kA + 16 * 8, s), BufferMap::Find::kInserted);
  EXPECT_EQ(m.find_or_insert(kA + 32 * 8, s), BufferMap::Find::kInserted);
  EXPECT_EQ(m.find_or_insert(kA + 48 * 8, s), BufferMap::Find::kFull);
  // Existing overflow entries stay findable.
  EXPECT_TRUE(m.find(kA + 16 * 8, s));
  EXPECT_TRUE(m.find(kA + 32 * 8, s));
  EXPECT_FALSE(m.find(kA + 48 * 8, s));
}

TEST(BufferMap, ForEachVisitsMainAndOverflowEntries) {
  BufferMap m;
  m.init(4, 4, true);
  BufferMap::Slot s;
  m.find_or_insert(kA, s);
  *s.data = 10;
  m.find_or_insert(kA + 8, s);
  *s.data = 20;
  m.find_or_insert(kColliding, s);  // overflow
  *s.data = 30;

  std::vector<std::pair<uintptr_t, uint64_t>> seen;
  m.for_each([&](uintptr_t a, uint64_t& d, uint64_t&) {
    seen.emplace_back(a, d);
  });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(m.entry_count(), 3u);
}

TEST(BufferMap, ClearEmptiesInEntryTime) {
  BufferMap m;
  m.init(4, 4, true);
  BufferMap::Slot s;
  m.find_or_insert(kA, s);
  m.find_or_insert(kColliding, s);
  m.clear();
  EXPECT_EQ(m.entry_count(), 0u);
  EXPECT_FALSE(m.find(kA, s));
  EXPECT_FALSE(m.find(kColliding, s));
  // Reusable after clear.
  EXPECT_EQ(m.find_or_insert(kA, s), BufferMap::Find::kInserted);
}

TEST(BufferMap, MarklessMapHasNullMark) {
  BufferMap m;
  m.init(4, 4, /*with_marks=*/false);
  BufferMap::Slot s;
  m.find_or_insert(kA, s);
  EXPECT_EQ(s.mark, nullptr);
  // for_each presents the dummy full mark for mark-less maps.
  m.for_each([&](uintptr_t, uint64_t&, uint64_t& mark) {
    EXPECT_EQ(mark, kFullMark);
  });
}

// Property: a BufferMap with ample overflow must behave like a
// std::unordered_map over random word addresses.
class BufferMapProperty : public ::testing::TestWithParam<int> {};

TEST_P(BufferMapProperty, AgreesWithHashMapModel) {
  BufferMap m;
  m.init(6, 512, true);
  std::unordered_map<uintptr_t, uint64_t> model;

  uint64_t state = static_cast<uint64_t>(GetParam()) * 2654435761u + 99;
  auto rnd = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };

  for (int i = 0; i < 400; ++i) {
    uintptr_t addr = 0x40000 + (rnd() % 256) * 8;
    uint64_t val = rnd();
    BufferMap::Slot s;
    auto r = m.find_or_insert(addr, s);
    ASSERT_NE(r, BufferMap::Find::kFull);
    *s.data = val;
    model[addr] = val;
  }
  EXPECT_EQ(m.entry_count(), model.size());
  for (const auto& [addr, val] : model) {
    BufferMap::Slot s;
    ASSERT_TRUE(m.find(addr, s)) << std::hex << addr;
    EXPECT_EQ(*s.data, val);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferMapProperty, ::testing::Range(1, 7));

// --- The static table is reserved, not committed -------------------------

constexpr long kKiB = 1024;
constexpr long kMiB = 1024 * kKiB;

// This process's resident set in bytes. smaps_rollup counts the resident
// pages of every mapping; statm's count is a sum of per-CPU counters that
// can lag it by hundreds of KiB.
long resident_bytes() {
  long kib = -1;
  if (std::FILE* f = std::fopen("/proc/self/smaps_rollup", "r")) {
    char line[256];
    while (kib < 0 && std::fgets(line, sizeof line, f)) {
      std::sscanf(line, "Rss: %ld kB", &kib);
    }
    std::fclose(f);
  }
  if (kib < 0) ADD_FAILURE() << "no Rss line in /proc/self/smaps_rollup";
  return kib * kKiB;
}

// A write-set of 2^20 entries spans three 8 MiB arrays (addresses, data,
// marks); zero-filling them up front made init commit all 24 MiB.
TEST(BufferMap, InitReservesTheTableWithoutCommittingIt) {
  BufferMap m;
  long before = resident_bytes();
  m.init(20, 4096, /*with_marks=*/true);
  EXPECT_LT(resident_bytes() - before, kMiB);
}

TEST(BufferMap, InsertCommitsOnlyTheTouchedPages) {
  constexpr uintptr_t kWords = 4096;  // 32 KiB: eight pages of each array
  BufferMap m;
  m.init(20, 4096, /*with_marks=*/true);
  auto insert_run = [&m](uintptr_t first) {
    for (uintptr_t i = 0; i < kWords; ++i) {
      BufferMap::Slot s;
      m.find_or_insert(first + 8 * i, s);
      *s.data = 1;
      *s.mark = kFullMark;
    }
  };
  // The first run grows the offsets stack. The measured one lands 4 MiB
  // further into each array, so it commits table pages only, and none
  // that the first run could have committed with it.
  insert_run(kA);
  m.clear();
  long before = resident_bytes();
  insert_run(kA + 4 * kMiB);
  long table = resident_bytes() - before;
  EXPECT_EQ(m.entry_count(), kWords);

  // What reading and writing the same 96 KiB of fresh pages commits in
  // this build (a sanitizer adds its shadow pages to each page touched).
  constexpr size_t kBytes = 3 * kWords * sizeof(uint64_t);
  void* fresh = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(fresh, MAP_FAILED);
  before = resident_bytes();
  auto* words = static_cast<uint64_t*>(fresh);
  for (size_t i = 0; i < 3 * kWords; ++i) words[i] += 1;
  long plain = resident_bytes() - before;
  munmap(fresh, kBytes);
  EXPECT_GT(plain, 0);
  // A committed array or one huge page would be megabytes.
  EXPECT_LE(table, 2 * plain) << "table " << table << " B, plain " << plain
                              << " B";
}

TEST(BufferMap, ReinitReleasesThePreviousTable) {
  BufferMap m;
  // One word per page of each array: 256 pages each, 3 MiB per cycle.
  auto init_and_touch = [&m] {
    m.init(20, 4096, /*with_marks=*/true);
    for (uintptr_t i = 0; i < 256; ++i) {
      BufferMap::Slot s;
      m.find_or_insert(kA + 4096 * i, s);
      *s.data = 1;
      *s.mark = kFullMark;
    }
  };
  init_and_touch();
  EXPECT_EQ(m.entry_count(), 256u);
  long after_one = resident_bytes();
  for (int cycle = 0; cycle < 8; ++cycle) init_and_touch();
  EXPECT_EQ(m.entry_count(), 256u) << "init starts an empty map";
  // Eight tables left mapped would hold 24 MiB more.
  EXPECT_LT(resident_bytes() - after_one, kMiB);
}

// --- GrowableSet (the growable-log backend's open-addressed index) ------

TEST(GrowableSet, InsertThenFind) {
  SpecBufferStats stats;
  GrowableSet s;
  s.init(4, &stats);
  EXPECT_TRUE(s.initialized());
  bool inserted = false;
  GrowableSet::Entry& e = s.find_or_insert(kA, inserted);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(e.data, 0u);
  EXPECT_EQ(e.mark, 0u);
  e.data = 0xdeadbeef;
  GrowableSet::Entry* f = s.find(kA);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->data, 0xdeadbeefu);
  s.find_or_insert(kA, inserted);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(s.find(kA + 8), nullptr);
  EXPECT_EQ(s.entry_count(), 1u);
}

TEST(GrowableSet, GrowsPastInitialCapacityAndKeepsEntries) {
  SpecBufferStats stats;
  GrowableSet s;
  s.init(4, &stats);  // 16 slots, grows at 12 entries
  constexpr int kN = 500;
  for (int i = 0; i < kN; ++i) {
    bool inserted = false;
    GrowableSet::Entry& e = s.find_or_insert(kA + 8 * i, inserted);
    ASSERT_TRUE(inserted);
    e.data = static_cast<uint64_t>(i) * 3 + 1;
  }
  EXPECT_EQ(s.entry_count(), static_cast<size_t>(kN));
  EXPECT_GT(stats.resize_events, 0u);
  EXPECT_GE(s.capacity(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    GrowableSet::Entry* e = s.find(kA + 8 * i);
    ASSERT_NE(e, nullptr) << "entry " << i << " lost across resizes";
    EXPECT_EQ(e->data, static_cast<uint64_t>(i) * 3 + 1);
  }
}

TEST(GrowableSet, ForEachVisitsInInsertionOrder) {
  SpecBufferStats stats;
  GrowableSet s;
  s.init(4, &stats);
  for (int i = 0; i < 40; ++i) {
    bool inserted = false;
    s.find_or_insert(kA + 8 * i, inserted).data = static_cast<uint64_t>(i);
  }
  std::vector<uint64_t> seen;
  s.for_each([&](GrowableSet::Entry& e) { seen.push_back(e.data); });
  ASSERT_EQ(seen.size(), 40u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(seen[static_cast<size_t>(i)], static_cast<uint64_t>(i))
        << "the append-only log preserves insertion order";
  }
}

TEST(GrowableSet, ClearEmptiesAndStaysUsable) {
  SpecBufferStats stats;
  GrowableSet s;
  s.init(4, &stats);
  for (int i = 0; i < 100; ++i) {
    bool inserted = false;
    s.find_or_insert(kA + 8 * i, inserted);
  }
  size_t grown_capacity = s.capacity();
  s.clear();
  EXPECT_EQ(s.entry_count(), 0u);
  EXPECT_EQ(s.find(kA), nullptr);
  EXPECT_EQ(s.capacity(), grown_capacity) << "clear keeps the grown index";
  bool inserted = false;
  s.find_or_insert(kA, inserted);
  EXPECT_TRUE(inserted);
}

TEST(GrowableSet, ProbeCountersTrackCollisions) {
  SpecBufferStats stats;
  GrowableSet s;
  s.init(6, &stats);
  for (int i = 0; i < 40; ++i) {
    bool inserted = false;
    s.find_or_insert(kA + 8 * i, inserted);
  }
  EXPECT_GE(stats.probe_ops, 40u);
  // Probe steps may be zero for a lucky layout, but ops are exact.
  for (int i = 0; i < 40; ++i) s.find(kA + 8 * i);
  EXPECT_GE(stats.probe_ops, 80u);
}

// Property: a GrowableSet must behave like a std::unordered_map over
// random word addresses, across resizes.
class GrowableSetProperty : public ::testing::TestWithParam<int> {};

TEST_P(GrowableSetProperty, AgreesWithHashMapModel) {
  SpecBufferStats stats;
  GrowableSet s;
  s.init(4, &stats);  // tiny start: the workload forces many resizes
  std::unordered_map<uintptr_t, uint64_t> model;

  uint64_t state = static_cast<uint64_t>(GetParam()) * 2654435761u + 7;
  auto rnd = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };

  for (int i = 0; i < 400; ++i) {
    uintptr_t addr = 0x40000 + (rnd() % 256) * 8;
    uint64_t val = rnd();
    bool inserted = false;
    s.find_or_insert(addr, inserted).data = val;
    model[addr] = val;
  }
  EXPECT_EQ(s.entry_count(), model.size());
  for (const auto& [addr, val] : model) {
    GrowableSet::Entry* e = s.find(addr);
    ASSERT_NE(e, nullptr) << std::hex << addr;
    EXPECT_EQ(e->data, val);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GrowableSetProperty, ::testing::Range(1, 7));

}  // namespace
}  // namespace mutls
