// CI-enforced allocation budget: after a short warm-up, a fork/join steady
// state performs ZERO global-heap allocations — on every buffer backend.
//
// Two independent meters agree:
//   1. counting global operator new/delete overrides (ground truth for the
//      whole process, gated so only the measured window counts), and
//   2. the runtime's own alloc_events counter (per-slot Arena heap-fallback
//      trips, aggregated through SpecBufferStats at settle time) — the
//      number bench_json.py and the CI budget step watch.
//
// The budget is the fork/join protocol's, so every runtime here turns
// adaptive forks off: each fork_scoped asks for a CPU, whether or not its
// site would pay.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "api/spec.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<uint64_t> g_news{0};

void* counted_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n ? n : 1);
}

void* counted_alloc_aligned(std::size_t n, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     n ? n : 1) != 0) {
    return nullptr;
  }
  return p;
}

// Every replacement operator delete frees through this one out-of-line
// call: inlined, GCC sees std::free release memory from `new` in gtest's
// `new TestClass` and warns -Wmismatched-new-delete.
[[gnu::noinline]] void heap_free(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t n) {
  void* p = counted_alloc(n);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
void* operator new[](std::size_t n) { return operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t a) {
  void* p = counted_alloc_aligned(n, static_cast<std::size_t>(a));
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return operator new(n, a);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_alloc_aligned(n, static_cast<std::size_t>(a));
}

void operator delete(void* p) noexcept { heap_free(p); }
void operator delete[](void* p) noexcept { heap_free(p); }
void operator delete(void* p, std::size_t) noexcept { heap_free(p); }
void operator delete[](void* p, std::size_t) noexcept { heap_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  heap_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  heap_free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { heap_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  heap_free(p);
}
void operator delete(void* p, std::align_val_t, std::size_t) noexcept {
  heap_free(p);
}
void operator delete[](void* p, std::align_val_t, std::size_t) noexcept {
  heap_free(p);
}

namespace mutls {
namespace {

constexpr int kWarmup = 10;
constexpr int kMeasured = 20;

struct SteadyState {
  uint64_t heap_news = 0;      // from the operator new overrides
  uint64_t alloc_events = 0;   // from the runtime's arena counters
  uint64_t commits = 0;
};

// One iteration: speculate a child that writes `touch` distinct shared
// words, while the parent writes a disjoint word; join at scope exit.
SteadyState run_steady(BufferBackend backend, size_t touch) {
  Runtime rt({.num_cpus = 2,
              .buffer_log2 = 8,
              .overflow_cap = 64,
              .buffer_backend = backend,
              .adaptive_forks = false});
  std::vector<uint64_t> data(touch + 1, 0);
  rt.register_memory(data.data(), data.size() * sizeof(uint64_t));

  auto one_run = [&] {
    return rt.run([&](Ctx& root) {
      auto s = rt.fork_scoped(root, ForkModel::kMixed, [&](Ctx& c) {
        for (size_t i = 0; i < touch; ++i) {
          c.store(&data[i], static_cast<uint64_t>(i + 1));
        }
      });
      root.store(&data[touch], uint64_t{7});
    });
  };

  // Warm-up: first speculations pay for arena segments, pool classes along
  // the growable doubling ladder, retired local frames. Everything after
  // that must recycle.
  for (int i = 0; i < kWarmup; ++i) (void)one_run();

  SteadyState out;
  g_news.store(0);
  g_counting.store(true);
  for (int i = 0; i < kMeasured; ++i) {
    RunStats rs = one_run();
    out.alloc_events +=
        rs.speculative.buffer.alloc_events + rs.critical.buffer.alloc_events;
    out.commits += rs.speculative.commits;
  }
  g_counting.store(false);
  out.heap_news = g_news.load();
  return out;
}

TEST(AllocBudget, StaticHashSteadyStateIsAllocationFree) {
  SteadyState s = run_steady(BufferBackend::kStaticHash, 100);
  EXPECT_EQ(s.heap_news, 0u);
  EXPECT_EQ(s.alloc_events, 0u);
  EXPECT_GT(s.commits, 0u);
}

TEST(AllocBudget, GrowableLogSteadyStateIsAllocationFree) {
  SteadyState s = run_steady(BufferBackend::kGrowableLog, 2048);
  EXPECT_EQ(s.heap_news, 0u);
  EXPECT_EQ(s.alloc_events, 0u);
  EXPECT_GT(s.commits, 0u);
}

// Join-time validation and commit walk the sets in place, so they need no
// storage of their own, however large the sets. Warm-up speculations
// build read and write sets of 12 000 words — sizing every set structure —
// but doom themselves with an unregistered access, so none of them reaches
// validation or commit. The first speculation that validates and commits
// sets that size must then cause no arena heap fallback, and no heap
// allocation at all.
TEST(AllocBudget, FirstLargeCommitAfterWarmupIsAllocationFree) {
  constexpr size_t kWords = 12000;
  alignas(8) static uint64_t unregistered = 0;
  for (BufferBackend backend :
       {BufferBackend::kStaticHash, BufferBackend::kGrowableLog}) {
    SCOPED_TRACE(static_cast<int>(backend));
    // A static table large enough that contiguous words never collide.
    Runtime rt({.num_cpus = 2,
                .buffer_log2 = 15,
                .overflow_cap = 64,
                .buffer_backend = backend,
                .adaptive_forks = false});
    std::vector<uint64_t> data(kWords, 1);
    rt.register_memory(data.data(), data.size() * sizeof(uint64_t));
    auto one_run = [&](bool doom) {
      return rt.run([&](Ctx& root) {
        auto s = rt.fork_scoped(root, ForkModel::kMixed, [&](Ctx& c) {
          for (size_t i = 0; i < kWords; ++i) {
            c.store(&data[i], c.load(&data[i]) + 1);
          }
          if (doom && c.speculative()) (void)c.load(&unregistered);
        });
      });
    };
    uint64_t warm_rollbacks = 0;
    for (int i = 0; i < kWarmup; ++i) {
      warm_rollbacks += one_run(/*doom=*/true).speculative.rollbacks;
    }
    ASSERT_GT(warm_rollbacks, 0u) << "no warm-up speculation ran";

    g_news.store(0);
    g_counting.store(true);
    RunStats rs = one_run(/*doom=*/false);
    g_counting.store(false);
    ASSERT_EQ(rs.speculative.commits, 1u);
    EXPECT_EQ(rs.speculative.buffer.validated_words, kWords);
    EXPECT_EQ(
        rs.speculative.buffer.alloc_events + rs.critical.buffer.alloc_events,
        0u);
    EXPECT_EQ(g_news.load(), 0u);
  }
}

// The fork path itself (handle + speculated wrapper) must stay off the heap
// even when bodies capture more than InlineTask's buffer: the spill goes to
// the forker's/child's arena, warmed after the first epoch.
TEST(AllocBudget, OversizedCapturesSpillIntoArenasNotTheHeap) {
  Runtime rt({.num_cpus = 2,
              .buffer_log2 = 8,
              .overflow_cap = 64,
              .adaptive_forks = false});
  std::vector<uint64_t> data(8, 0);
  rt.register_memory(data.data(), data.size() * sizeof(uint64_t));
  struct Fat {
    uint64_t pad[40];  // 320B: over the 128B inline buffer
  };
  auto one_run = [&] {
    return rt.run([&](Ctx& root) {
      Fat fat{};
      fat.pad[0] = 5;
      auto s = rt.fork_scoped(root, ForkModel::kMixed, [&data, fat](Ctx& c) {
        c.store(&data[0], fat.pad[0]);
      });
      root.store(&data[1], uint64_t{9});
    });
  };
  for (int i = 0; i < kWarmup; ++i) (void)one_run();
  g_news.store(0);
  g_counting.store(true);
  uint64_t alloc_events = 0;
  for (int i = 0; i < kMeasured; ++i) {
    RunStats rs = one_run();
    alloc_events +=
        rs.speculative.buffer.alloc_events + rs.critical.buffer.alloc_events;
  }
  g_counting.store(false);
  EXPECT_EQ(g_news.load(), 0u);
  EXPECT_EQ(alloc_events, 0u);
}

}  // namespace
}  // namespace mutls
