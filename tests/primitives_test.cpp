// Coverage for the low-level primitives (memory helpers, relaxed scalar
// access, enums) and protocol edge cases (detached forks + adoption via
// join_next, user tags, the copies a fork keeps, merge-induced dooms).
#include <gtest/gtest.h>

#include "mutls/mutls.h"
#include "runtime/memory.h"

namespace mutls {
namespace {

// --- memory.h helpers ----------------------------------------------------

TEST(MemoryHelpers, WordAlignDown) {
  EXPECT_EQ(word_align_down(0x1000), 0x1000u);
  EXPECT_EQ(word_align_down(0x1007), 0x1000u);
  EXPECT_EQ(word_align_down(0x1008), 0x1008u);
}

TEST(MemoryHelpers, ByteMaskCoversRequestedBytes) {
  EXPECT_EQ(byte_mask(0, 8), kFullMark);
  EXPECT_EQ(byte_mask(0, 1), 0xffull);
  EXPECT_EQ(byte_mask(1, 1), 0xff00ull);
  EXPECT_EQ(byte_mask(4, 4), 0xffffffff00000000ull);
  EXPECT_EQ(byte_mask(7, 1), 0xff00000000000000ull);
  EXPECT_EQ(byte_mask(2, 3), 0x000000ffffff0000ull);
}

TEST(MemoryHelpers, WordCopyRoundTrip) {
  uint64_t w = 0;
  uint32_t v = 0xdeadbeef;
  copy_into_word(w, 4, 4, &v);
  uint32_t out = 0;
  copy_from_word(w, 4, 4, &out);
  EXPECT_EQ(out, v);
  uint32_t lo = 0;
  copy_from_word(w, 0, 4, &lo);
  EXPECT_EQ(lo, 0u);
}

TEST(MemoryHelpers, AtomicWordAndByteAccess) {
  alignas(8) uint64_t cell = 0;
  atomic_word_store(reinterpret_cast<uintptr_t>(&cell), 0x0102030405060708ull);
  EXPECT_EQ(atomic_word_load(reinterpret_cast<uintptr_t>(&cell)),
            0x0102030405060708ull);
  atomic_byte_store(reinterpret_cast<uintptr_t>(&cell) + 1, 0xee);
  EXPECT_EQ(atomic_byte_load(reinterpret_cast<uintptr_t>(&cell) + 1), 0xee);
}

// --- scalar_access.h -----------------------------------------------------

TEST(ScalarAccess, AllScalarWidths) {
  uint8_t a = 1;
  uint16_t b = 2;
  uint32_t c = 3;
  uint64_t d = 4;
  float e = 5.5f;
  double f = 6.5;
  EXPECT_EQ(relaxed_load_scalar(&a), 1);
  EXPECT_EQ(relaxed_load_scalar(&b), 2);
  EXPECT_EQ(relaxed_load_scalar(&c), 3u);
  EXPECT_EQ(relaxed_load_scalar(&d), 4u);
  EXPECT_FLOAT_EQ(relaxed_load_scalar(&e), 5.5f);
  EXPECT_DOUBLE_EQ(relaxed_load_scalar(&f), 6.5);
  relaxed_store_scalar(&c, 33u);
  EXPECT_EQ(c, 33u);
  relaxed_store_scalar(&f, -1.25);
  EXPECT_DOUBLE_EQ(f, -1.25);
}

TEST(ScalarAccess, OversizedTypeGoesByteWise) {
  struct Big {
    uint64_t a, b, c;
    bool operator==(const Big&) const = default;
  };
  Big src{1, 2, 3};
  Big dst = relaxed_load_scalar(&src);
  EXPECT_EQ(dst, src);
  Big w{7, 8, 9};
  relaxed_store_scalar(&src, w);
  EXPECT_EQ(src, w);
}

// --- enums ---------------------------------------------------------------

TEST(Enums, ForkModelNames) {
  EXPECT_STREQ(fork_model_name(ForkModel::kInOrder), "in-order");
  EXPECT_STREQ(fork_model_name(ForkModel::kOutOfOrder), "out-of-order");
  EXPECT_STREQ(fork_model_name(ForkModel::kMixed), "mixed");
}

// --- detached forks, adoption, user tags (join_next path) -----------------

TEST(AdoptionProtocol, JoinNextConsumesChainInOrder) {
  Runtime rt({.num_cpus = 3, .buffer_log2 = 10});
  SharedArray<uint64_t> out(rt, 3, 0);
  rt.run([&](Ctx& ctx) {
    // Build a 3-link chain by hand: each link forks the next detached.
    struct Link {
      Runtime& rt;
      SharedArray<uint64_t>& out;
      void run(Ctx& c, int i) const {
        if (i + 1 < 3) {
          rt.fork(c,
                  ForkOpts{.tag = static_cast<uint64_t>(i + 1),
                           .detached = true},
                  [this, i](Ctx& cc) { run(cc, i + 1); });
        }
        c.store(&out[static_cast<size_t>(i)], static_cast<uint64_t>(i + 10));
      }
    };
    Link link{rt, out};
    link.run(ctx, 0);  // the caller is link 0
    int joined = 0;
    uint64_t expected_tag = 1;
    while (!ctx.thread_data().children.empty()) {
      Runtime::AdoptedJoin j = rt.join_next(ctx);
      ASSERT_TRUE(j.joined);
      EXPECT_EQ(j.outcome, JoinOutcome::kCommitted);
      EXPECT_EQ(j.tag, expected_tag++) << "chain must join in logical order";
      ++joined;
    }
    EXPECT_GE(joined, 1);
  });
  EXPECT_EQ(out[0], 10u);
  EXPECT_EQ(out[1], 11u);
  EXPECT_EQ(out[2], 12u);
}

TEST(AdoptionProtocol, JoinNextOnEmptyStack) {
  Runtime rt({.num_cpus = 1, .buffer_log2 = 8});
  rt.run([&](Ctx& ctx) {
    Runtime::AdoptedJoin j = rt.join_next(ctx);
    EXPECT_FALSE(j.joined);
  });
}

TEST(AdoptionProtocol, RolledBackLinkReportsItsTag) {
  Runtime::Options o;
  o.num_cpus = 2;
  o.buffer_log2 = 10;
  o.rollback_probability = 1.0;  // every speculation fails
  Runtime rt(o);
  SharedArray<uint64_t> out(rt, 1, 0);
  rt.run([&](Ctx& ctx) {
    Spec s = rt.fork(ctx, ForkOpts{.tag = 77, .detached = true},
                     [&](Ctx& c) { c.store(&out[0], uint64_t{5}); });
    if (!s.speculated()) return;
    Runtime::AdoptedJoin j = rt.join_next(ctx);
    ASSERT_TRUE(j.joined);
    EXPECT_EQ(j.outcome, JoinOutcome::kRolledBack);
    EXPECT_EQ(j.tag, 77u);
    // Caller re-executes using the tag.
    ctx.store(&out[0], uint64_t{5});
  });
  EXPECT_EQ(out[0], 5u);
}

// --- detached forks keep no re-execution copy ------------------------------

// Counts its copies; moves are free.
struct CopyCountingBody {
  static inline int copies = 0;
  CopyCountingBody() = default;
  CopyCountingBody(const CopyCountingBody&) { ++copies; }
  CopyCountingBody(CopyCountingBody&&) noexcept = default;
  void operator()(Ctx&) const {}
};

TEST(AdoptionProtocol, DetachedForkKeepsNoReexecutionCopy) {
  Runtime rt({.num_cpus = 1, .buffer_log2 = 8});
  rt.run([&](Ctx& ctx) {
    CopyCountingBody::copies = 0;
    Spec d = rt.fork(ctx, ForkOpts{.detached = true}, CopyCountingBody{});
    EXPECT_EQ(CopyCountingBody::copies, 0)
        << "a detached handle never runs the region, so keeps no copy";
    if (d.speculated()) rt.join_next(ctx);

    CopyCountingBody::copies = 0;
    Spec s = rt.fork(ctx, ForkOpts{}, CopyCountingBody{});
    EXPECT_EQ(CopyCountingBody::copies, 1)
        << "a joinable handle keeps one copy for inline re-execution";
    rt.join(ctx, s);
  });
}

// --- spec_for: rolled-back pieces re-run on the caller ---------------------

TEST(AdoptionProtocol, SpecForRerunsRolledBackPiecesExactly) {
  // Probability 0.4 with a fixed seed rolls back some pieces but not all;
  // re-running each failed piece on the caller must still produce exact
  // results, with one piece speculating (in-order) or all of them (mixed).
  for (ForkModel m : {ForkModel::kInOrder, ForkModel::kMixed}) {
    for (uint64_t seed : {11u, 22u, 33u}) {
      Runtime::Options o;
      o.num_cpus = 2;
      o.buffer_log2 = 12;
      o.rollback_probability = 0.4;
      o.seed = seed;
      Runtime rt(o);
      SharedArray<uint64_t> slot(rt, 32, 0);
      rt.run([&](Ctx& ctx) {
        spec_for(rt, ctx, 0, 320, 32, m,
                 [&](Ctx& c, int chunk, int64_t lo, int64_t hi) {
                   uint64_t s = 0;
                   for (int64_t i = lo; i < hi; ++i) {
                     s += static_cast<uint64_t>(i) * 7;
                   }
                   c.store(&slot[static_cast<size_t>(chunk)], s);
                 });
      });
      uint64_t total = 0;
      for (size_t i = 0; i < slot.size(); ++i) total += slot[i];
      EXPECT_EQ(total, 7u * (319u * 320u / 2))
          << fork_model_name(m) << " seed " << seed;
    }
  }
}

// --- merge pressure: child commit can doom a speculative joiner -----------

TEST(MergePressure, ChildCommitOverflowingParentDoomsParentNotProgram) {
  // Parent has a tiny buffer; its child writes a large footprint. Merging
  // dooms the parent, which then rolls back and re-executes inline at the
  // root — results stay exact.
  Runtime::Options o;
  o.num_cpus = 2;
  o.buffer_log2 = 4;  // 16 slots
  o.overflow_cap = 4;
  Runtime rt(o);
  const size_t n = 64;
  SharedArray<uint64_t> data(rt, n, 0);
  rt.run([&](Ctx& ctx) {
    Spec outer = rt.fork(ctx, ForkModel::kMixed, [&](Ctx& c) {
      Spec inner = rt.fork(c, ForkModel::kMixed, [&](Ctx& cc) {
        for (size_t i = n / 2; i < n; ++i) {
          cc.store(&data[i], static_cast<uint64_t>(i));
          cc.check_point();
        }
      });
      for (size_t i = 0; i < n / 2; ++i) {
        c.store(&data[i], static_cast<uint64_t>(i));
        c.check_point();
      }
      rt.join(c, inner);
    });
    rt.join(ctx, outer);
  });
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(data[i], static_cast<uint64_t>(i)) << i;
  }
}

}  // namespace
}  // namespace mutls
