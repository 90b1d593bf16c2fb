// Tests of forking only where speculation pays: the per-site ForkGate fed
// verdicts directly (closing, probe spacing, reopening, the num_cpus
// restart, adaptive forks off), spec_for's loop verdict rule, and whole
// sites that close — a fork_scoped site whose speculative version is slow
// and a spec_for site whose pieces conflict — with their declined regions
// run natively, exactly, and counted as denied forks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "mutls/mutls.h"

namespace mutls {
namespace {

using detail::ForkGate;
using Decision = ForkGate::Decision;

constexpr int kCpus = 3;

// Closes a fresh gate with kScoreLimit straight losses.
void close_gate(ForkGate& g) {
  for (int i = 0; i < ForkGate::kScoreLimit; ++i) {
    ASSERT_EQ(g.admit(kCpus, true), Decision::kFork);
    g.verdict(Decision::kFork, false);
  }
  ASSERT_FALSE(g.open());
}

// Admits calls on a closed gate until one probes; returns how many were
// declined first.
int declines_before_probe(ForkGate& g) {
  for (int declined = 0; declined <= 2 * ForkGate::kMaxGap; ++declined) {
    Decision d = g.admit(kCpus, true);
    if (d == Decision::kProbe) return declined;
    EXPECT_EQ(d, Decision::kDecline);
  }
  ADD_FAILURE() << "no probe within twice the largest gap";
  return -1;
}

TEST(ForkGateRecord, ClosesAfterFourNetLosses) {
  ForkGate g;
  // Loss, loss, win, then losses: the score runs -1, -2, -1, -2, -3, -4.
  const bool won[] = {false, false, true, false, false, false};
  for (bool w : won) {
    ASSERT_TRUE(g.open());
    ASSERT_EQ(g.admit(kCpus, true), Decision::kFork);
    g.verdict(Decision::kFork, w);
  }
  EXPECT_FALSE(g.open());
  EXPECT_EQ(g.gap(), ForkGate::kFirstGap);
}

TEST(ForkGateRecord, ScoreSaturatesSoWinsDoNotBankCredit) {
  ForkGate g;
  for (int i = 0; i < 20; ++i) g.verdict(Decision::kFork, true);
  EXPECT_EQ(g.score(), ForkGate::kScoreLimit);
  // From the top of the range, 2 * kScoreLimit losses close the site.
  for (int i = 0; i < 2 * ForkGate::kScoreLimit - 1; ++i) {
    g.verdict(Decision::kFork, false);
    ASSERT_TRUE(g.open()) << "closed after " << i + 1 << " losses";
  }
  g.verdict(Decision::kFork, false);
  EXPECT_FALSE(g.open());
}

TEST(ForkGateRecord, ProbeGapDoublesUpToItsCap) {
  ForkGate g;
  close_gate(g);
  int want = ForkGate::kFirstGap;
  for (int probe = 0; probe < 14; ++probe) {
    ASSERT_EQ(declines_before_probe(g), want) << "probe " << probe;
    g.verdict(Decision::kProbe, false);
    want = std::min(2 * want, ForkGate::kMaxGap);
    ASSERT_EQ(g.gap(), want);
  }
  EXPECT_EQ(want, ForkGate::kMaxGap);
}

TEST(ForkGateRecord, CallsDuringAProbeDeclineWithoutCounting) {
  ForkGate g;
  close_gate(g);
  ASSERT_EQ(declines_before_probe(g), ForkGate::kFirstGap);
  // The probe has not been judged yet: everything declines, however long.
  for (int i = 0; i < 3 * ForkGate::kMaxGap; ++i) {
    ASSERT_EQ(g.admit(kCpus, true), Decision::kDecline);
  }
  g.verdict(Decision::kProbe, false);
  EXPECT_EQ(declines_before_probe(g), 2 * ForkGate::kFirstGap);
}

TEST(ForkGateRecord, WinningProbeReopensTheSite) {
  ForkGate g;
  close_gate(g);
  ASSERT_EQ(declines_before_probe(g), ForkGate::kFirstGap);
  g.verdict(Decision::kProbe, true);
  EXPECT_TRUE(g.open());
  EXPECT_EQ(g.score(), 0);
  EXPECT_EQ(g.admit(kCpus, true), Decision::kFork);
}

TEST(ForkGateRecord, DeniedProbePassesItsTurnOn) {
  ForkGate g;
  close_gate(g);
  ASSERT_EQ(declines_before_probe(g), ForkGate::kFirstGap);
  g.no_verdict(Decision::kProbe);  // no idle CPU: no verdict
  EXPECT_EQ(g.admit(kCpus, true), Decision::kProbe);
  EXPECT_EQ(g.gap(), ForkGate::kFirstGap);
}

TEST(ForkGateRecord, VerdictsOfForksFromBeforeTheCloseAreIgnored) {
  ForkGate g;
  close_gate(g);
  g.verdict(Decision::kFork, true);
  g.verdict(Decision::kFork, true);
  EXPECT_FALSE(g.open());
  EXPECT_EQ(declines_before_probe(g), ForkGate::kFirstGap);
}

TEST(ForkGateRecord, AnotherNumCpusRestartsOpen) {
  ForkGate g;
  close_gate(g);
  ASSERT_EQ(g.admit(kCpus, true), Decision::kDecline);
  EXPECT_EQ(g.admit(kCpus + 1, true), Decision::kFork);
  EXPECT_TRUE(g.open());
  EXPECT_EQ(g.score(), 0);
}

TEST(ForkGateRecord, AdaptiveOffNeverDeclinesAndLeavesTheRecord) {
  ForkGate g;
  close_gate(g);
  for (int i = 0; i < 10; ++i) {
    Decision d = g.admit(kCpus, false);
    ASSERT_EQ(d, Decision::kUngated);
    g.verdict(d, true);
  }
  EXPECT_FALSE(g.open()) << "ungated verdicts must not train the gate";
  EXPECT_EQ(declines_before_probe(g), ForkGate::kFirstGap);
}

// --- spec_for's verdict rule ----------------------------------------------

TEST(LoopSiteVerdict, CallerRateComesFromThePrefixUntilADeclinedCall) {
  detail::LoopSite site;
  // A prefix of 4 chunks that took 400 ns: 100 ns per chunk, so the
  // caller alone would run 12 chunks in 1200 ns.
  const int bound[] = {0, 4, 8, 12};
  const uint64_t start[] = {0, 0, 0};
  const uint64_t finish[] = {400, 0, 0};
  EXPECT_TRUE(site.won(1200, 12, bound, start, finish));
  EXPECT_FALSE(site.won(1300, 12, bound, start, finish));
  // A declined call measured the caller alone at 200 ns per chunk: that
  // rate is preferred.
  site.record_solo(2400, 12);
  EXPECT_TRUE(site.won(1300, 12, bound, start, finish));
  EXPECT_FALSE(site.won(2500, 12, bound, start, finish));
}

// --- whole sites -----------------------------------------------------------

Runtime::Options small_opts(int cpus) {
  Runtime::Options o;
  o.num_cpus = cpus;
  o.buffer_log2 = 12;
  o.overflow_cap = 1024;
  return o;
}

void spin_for(uint64_t ns) {
  const uint64_t t0 = now_ns();
  while (now_ns() - t0 < ns) {
  }
}

constexpr int32_t kRanNative = 1;
constexpr int32_t kRanCtx = 2;

template <typename C>
int32_t context_kind(const C&) {
  static_assert(std::is_same_v<C, NativeCtx> || std::is_same_v<C, Ctx>);
  return std::is_same_v<C, NativeCtx> ? kRanNative : kRanCtx;
}

// One fork_scoped site (the lambda in call() is one body type): the region
// spins 4x longer in its speculative version than in its native one, and
// the joiner has only kOwnNs of its own work between fork and join. A
// speculation keeps the joiner waiting most of the speculative run, far
// past its busy time: it loses. A joiner kept off its CPU between fork
// and join for the whole speculative run would see a win instead; on an
// oversubscribed host the worker woken by the fork can take the joiner's
// CPU that way for a scheduler slice, so the speculative run lasts
// several slices.
struct SlowSpecSite {
  static constexpr uint64_t kNativeNs = 1'000'000;
  static constexpr uint64_t kOwnNs = 20'000;
  static constexpr int kCalls = 40;

  explicit SlowSpecSite(Runtime& rt)
      : out(rt, kCalls, 0), kind(rt, kCalls, 0) {}

  // Returns whether call i speculated.
  bool call(Runtime& rt, Ctx& ctx, int i) {
    ScopedSpec s = rt.fork_scoped(ctx, ForkModel::kMixed, [this, i](auto& c) {
      spin_for(c.speculative() ? 4 * kNativeNs : kNativeNs);
      out.at(c, static_cast<size_t>(i)) = static_cast<uint64_t>(i) * 3 + 1;
      kind.at(c, static_cast<size_t>(i)) = context_kind(c);
    });
    spin_for(kOwnNs);
    s.join();
    return s.speculated();
  }

  SharedArray<uint64_t> out;
  SharedArray<int32_t> kind;
};

TEST(ForkScopedSite, SlowSpeculationClosesAndDeclinedRegionsRunNatively) {
  Runtime rt(small_opts(2));
  SlowSpecSite site(rt);
  int declined = -1;  // the first declined call
  rt.run([&](Ctx& ctx) {
    for (int i = 0; i < SlowSpecSite::kCalls; ++i) {
      const uint64_t denied0 = ctx.thread_data().stats.fork_denied;
      const bool speculated = site.call(rt, ctx, i);
      ASSERT_EQ(site.out[static_cast<size_t>(i)],
                static_cast<uint64_t>(i) * 3 + 1)
          << "call " << i;
      if (!speculated) {
        // Two CPUs and one fork at a time: a fork that was not granted was
        // declined by its site, and counts as a denied fork.
        EXPECT_EQ(ctx.thread_data().stats.fork_denied, denied0 + 1);
        EXPECT_EQ(site.kind[static_cast<size_t>(i)], kRanNative)
            << "a declined region runs its native version";
        if (declined < 0) declined = i;
      } else {
        EXPECT_EQ(site.kind[static_cast<size_t>(i)], kRanCtx);
      }
    }
  });
  EXPECT_GE(declined, ForkGate::kScoreLimit)
      << "the site never closed in " << SlowSpecSite::kCalls << " calls";
}

TEST(ForkScopedSite, AdaptiveForksOffKeepsForkingALosingSite) {
  Runtime::Options o = small_opts(2);
  o.adaptive_forks = false;
  Runtime rt(o);
  SlowSpecSite site(rt);
  RunStats rs = rt.run([&](Ctx& ctx) {
    for (int i = 0; i < 12; ++i) {
      ASSERT_TRUE(site.call(rt, ctx, i)) << "call " << i;
    }
  });
  EXPECT_EQ(rs.critical.forks, 12u);
  EXPECT_EQ(rs.critical.fork_denied, 0u);
}

TEST(ForkScopedSite, RunHandsAGenericBodyANativeCtx) {
  Runtime rt(small_opts(2));
  int32_t root_kind = 0, ctx_kind = 0;
  rt.run([&](auto& ctx) { root_kind = context_kind(ctx); });
  rt.run([&](Ctx& ctx) { ctx_kind = context_kind(ctx); });
  EXPECT_EQ(root_kind, kRanNative);
  EXPECT_EQ(ctx_kind, kRanCtx);
}

// A spec_for site whose pieces always conflict: chunk k starts from the
// running sum chunk k-1 ends with, so every piece reads a word its
// predecessor has not written yet, fails validation and is re-run by the
// caller. Each call is slower than the caller alone.
TEST(LoopSiteGate, ConflictingPiecesCloseTheSite) {
  constexpr int kChunks = 12;
  constexpr size_t kN = kChunks * 512;
  auto term = [](size_t i) { return static_cast<uint64_t>(i * i % 97); };
  std::vector<uint64_t> want(kN);
  uint64_t acc = 0;
  for (size_t i = 0; i < kN; ++i) want[i] = acc += term(i);

  Runtime rt(small_opts(kCpus));
  SharedArray<uint64_t> sums(rt, kN, 0);
  bool declined = false;
  for (int call = 0; call < 40 && !declined; ++call) {
    for (size_t i = 0; i < kN; ++i) sums[i] = 0;
    RunStats rs = rt.run([&](Ctx& ctx) {
      spec_for(rt, ctx, 0, kN, kChunks, ForkModel::kMixed,
               [&](auto& c, int, int64_t lo, int64_t hi) {
                 auto v = sums.span(c);
                 const size_t b = static_cast<size_t>(lo);
                 uint64_t run = b == 0 ? 0 : v[b - 1].get();
                 for (size_t i = b; i < static_cast<size_t>(hi); ++i) {
                   v[i] = run += term(i);
                 }
               });
    });
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(sums[i], want[i]) << "call " << call << " i " << i;
    }
    if (rs.critical.forks == 0) {
      declined = true;
      EXPECT_EQ(rs.critical.fork_denied, static_cast<uint64_t>(kCpus))
          << "a declined call counts one denied fork per piece";
      EXPECT_GE(call, ForkGate::kScoreLimit);
    }
  }
  EXPECT_TRUE(declined) << "the site never declined";
}

}  // namespace
}  // namespace mutls
