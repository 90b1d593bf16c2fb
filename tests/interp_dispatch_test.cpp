// Differential equivalence suite for the execution engine's dispatch
// tiers: every program must produce byte-identical observable results —
// return value, printed output, committed global memory — under
// {switch, direct-threaded} x {1, 2, 4} virtual CPUs x injected
// rollbacks, with the original switch loop as the oracle.
// TLS correctness demands the outputs be independent of all three axes, so
// a single sequential oracle run pins down the expectation for the whole
// matrix.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bench/ir_kernels.h"
#include "interp/interp.h"

namespace mutls::interp {
namespace {

using exec::DispatchMode;
using ir::parse_module;
namespace kernels = bench::ir_kernels;

constexpr DispatchMode kModes[] = {DispatchMode::kSwitch,
                                   DispatchMode::kDirectThreaded};
constexpr int kCpus[] = {1, 2, 4};
constexpr double kRollbackP[] = {0.0, 1.0};

struct Observed {
  uint64_t ret = 0;
  std::vector<int64_t> printed;
  std::vector<std::vector<char>> globals;  // committed bytes, module order
  RunStats stats;
  uint64_t heat_total = 0;
};

Observed run_one(const std::string& ir_text, const std::string& fn,
                 const std::vector<uint64_t>& args, DispatchMode mode,
                 int cpus, double p) {
  ManagerConfig o;
  o.num_cpus = cpus;
  o.buffer_log2 = 10;
  o.rollback_probability = p;
  ir::Module m = parse_module(ir_text);
  std::vector<std::pair<std::string, size_t>> gl;
  for (const ir::Global& g : m.globals) {
    gl.emplace_back(g.name, ir::type_size(g.elem_type) * g.count);
  }
  Interpreter it(std::move(m), o, mode);
  Observed ob;
  ob.ret = it.call(fn, args);
  ob.printed = it.printed;
  for (auto& [name, size] : gl) {
    const char* a = static_cast<const char*>(it.global_addr(name));
    ob.globals.emplace_back(a, a + size);
  }
  ob.stats = it.collect_stats();
  for (const exec::RegionHeat& h : it.region_heat()) ob.heat_total += h.count;
  return ob;
}

// Runs the whole mode x cpus x rollback matrix against the sequential
// switch oracle and checks every invariant.
void expect_equivalent(const std::string& ir_text, const std::string& fn,
                       const std::vector<uint64_t>& args) {
  Observed oracle =
      run_one(ir_text, fn, args, DispatchMode::kSwitch, 1, 0.0);
  for (DispatchMode mode : kModes) {
    for (int cpus : kCpus) {
      for (double p : kRollbackP) {
        SCOPED_TRACE(std::string("mode=") + dispatch_mode_name(mode) +
                     " cpus=" + std::to_string(cpus) +
                     " p=" + std::to_string(p));
        Observed got = run_one(ir_text, fn, args, mode, cpus, p);
        EXPECT_EQ(got.ret, oracle.ret);
        EXPECT_EQ(got.printed, oracle.printed);
        ASSERT_EQ(got.globals.size(), oracle.globals.size());
        for (size_t g = 0; g < got.globals.size(); ++g) {
          EXPECT_EQ(got.globals[g], oracle.globals[g]) << "global #" << g;
        }
        // Injected certain-rollback means no speculation ever commits.
        if (p == 1.0) {
          EXPECT_EQ(
              got.stats.critical.commits + got.stats.speculative.commits,
              0u);
        }
        // The region profiler pairs every back-edge stat increment with a
        // heat increment, in both tiers.
        EXPECT_EQ(got.heat_total, got.stats.critical.back_edges +
                                      got.stats.speculative.back_edges);
        // Committed speculation redistributes back edges between the
        // critical and speculative counters 1:1; rollbacks re-execute
        // them. So the total never drops below the sequential path's.
        EXPECT_GE(got.stats.critical.back_edges +
                      got.stats.speculative.back_edges,
                  oracle.stats.critical.back_edges +
                      oracle.stats.speculative.back_edges);
      }
    }
  }
}

// --- fixed corpus (the interp_test programs and the bench kernels) ------

TEST(InterpDispatch, StraightLineArithmetic) {
  expect_equivalent(R"(
func @f(%a: i64, %b: i64) : i64 {
entry:
  %s = add %a, %b
  %two = const i64 2
  %m = mul %s, %two
  ret %m
}
)",
                    "f", {3, 4});
}

TEST(InterpDispatch, LoopsAndPhis) {
  expect_equivalent(R"(
func @sum(%n: i64) : i64 {
entry:
  %zero = const i64 0
  %one = const i64 1
  br loop
loop:
  %i = phi i64 [%zero, entry], [%inc, loop]
  %s = phi i64 [%zero, entry], [%s2, loop]
  %s2 = add %s, %i
  %inc = add %i, %one
  %c = icmp slt %inc, %n
  condbr %c, loop, done
done:
  ret %s2
}
)",
                    "sum", {10});
}

TEST(InterpDispatch, MixedWidthArithmeticAndCasts) {
  expect_equivalent(R"(
func @f(%a: i64) : i64 {
entry:
  %t8 = trunc %a to i8
  %s8 = sext %t8 to i64
  %z8 = zext %t8 to i64
  %t16 = trunc %a to i16
  %s16 = sext %t16 to i64
  %d = sub %s8, %z8
  %m = mul %d, %s16
  %sh = const i64 3
  %l = lshr %m, %sh
  %r = ashr %m, %sh
  %x = xor %l, %r
  %c = icmp sge %x, %d
  %sel = select %c, %x, %m
  ret %sel
}
)",
                    "f", {0xfedcba9876543210ull});
}

TEST(InterpDispatch, GlobalsLoadsStores) {
  expect_equivalent(R"(
global @cell : i64[4] = {10, 20, 30, 40}
func @inc(%i: i64) : i64 {
entry:
  %base = globaladdr @cell
  %p = gep %base, %i, 8
  %v = load i64, %p
  %one = const i64 1
  %v2 = add %v, %one
  store %v2, %p
  ret %v2
}
)",
                    "inc", {2});
}

TEST(InterpDispatch, CallsAndRecursion) {
  expect_equivalent(R"(
func @fibr(%n: i64) : i64 {
entry:
  %two = const i64 2
  %c = icmp slt %n, %two
  condbr %c, base, rec
base:
  ret %n
rec:
  %one = const i64 1
  %n1 = sub %n, %one
  %n2 = sub %n, %two
  %f1 = call i64 @fibr(%n1)
  %f2 = call i64 @fibr(%n2)
  %s = add %f1, %f2
  ret %s
}
)",
                    "fibr", {10});
}

TEST(InterpDispatch, SpeculativeForkJoin) {
  expect_equivalent(R"(
global @out : i64[2]
func @work(%n: i64) : i64 {
entry:
  %zero = const i64 0
  %one = const i64 1
  %base = globaladdr @out
  %p1 = gep %base, %one, 8
  %forty = const i64 40
  %two = const i64 2
  %fortytwo = add %forty, %two
  mutls.fork 0, mixed
  br loop
loop:
  %i = phi i64 [%zero, entry], [%inc, loop]
  %s = phi i64 [%zero, entry], [%s2, loop]
  %s2 = add %s, %i
  %inc = add %i, %one
  %c = icmp slt %inc, %n
  condbr %c, loop, joinblk
joinblk:
  store %s2, %base
  mutls.join 0
  store %fortytwo, %p1
  mutls.barrier 0
  %r1 = load i64, %base
  %r2 = load i64, %p1
  %sum = add %r1, %r2
  ret %sum
}
)",
                    "work", {10});
}

TEST(InterpDispatch, ValuePredictionConflict) {
  expect_equivalent(R"(
global @cell : i64[1] = {5}
global @res : i64[1]
func @work() : i64 {
entry:
  %base = globaladdr @cell
  mutls.fork 0, mixed
  %seven = const i64 7
  store %seven, %base
  mutls.join 0
  %v = load i64, %base
  %r = globaladdr @res
  store %v, %r
  mutls.barrier 0
  %out = load i64, %r
  ret %out
}
)",
                    "work", {});
}

TEST(InterpDispatch, LoopChainSpeculation) {
  expect_equivalent(R"(
global @acc : i64[64]
func @work(%n: i64) : i64 {
entry:
  %zero = const i64 0
  %one = const i64 1
  br head
head:
  %i = phi i64 [%zero, entry], [%inc, tail]
  mutls.fork 1, mixed
  mutls.join 1
  %base = globaladdr @acc
  %p = gep %base, %i, 8
  %sq = mul %i, %i
  store %sq, %p
  br tail
tail:
  %inc = add %i, %one
  %c = icmp slt %inc, %n
  condbr %c, head, done
done:
  %r = load i64, %base
  ret %r
}
)",
                    "work", {16});
}

TEST(InterpDispatch, TerminatePointDefersExternalCall) {
  expect_equivalent(R"(
func @work() : i64 {
entry:
  mutls.fork 0, mixed
  %x = const i64 1
  mutls.join 0
  %v = const i64 123
  call @print_i64(%v)
  mutls.barrier 0
  ret %x
}
)",
                    "work", {});
}

TEST(InterpDispatch, FibKernel) {
  expect_equivalent(kernels::fib_ir(), "fib", {40});
  // And the kernel's own oracle.
  Observed o = run_one(kernels::fib_ir(), "fib", {40},
                       DispatchMode::kDirectThreaded, 2, 0.0);
  EXPECT_EQ(o.ret, kernels::fib_expected(40));
}

TEST(InterpDispatch, FillKernel) {
  expect_equivalent(kernels::fill_ir(), "fill", {300});
  Observed o = run_one(kernels::fill_ir(), "fill", {300},
                       DispatchMode::kDirectThreaded, 2, 0.0);
  EXPECT_EQ(o.ret, kernels::fill_expected(300));
}

// --- randomized programs ------------------------------------------------
//
// Deterministically generated small programs: a straight-line mixed-width
// arithmetic prologue, a loop writing/reading a global array, optionally
// wrapped in fork/join so a speculative child executes the continuation.
// Seeds are fixed; every generated module passes the verifier.

std::string gen_program(uint64_t seed, bool with_fork) {
  std::mt19937_64 rng(seed);
  auto pick = [&](uint64_t n) { return rng() % n; };
  std::ostringstream os;
  os << "global @g : i64[64]\n";
  os << "func @t(%x: i64, %y: i64) : i64 {\nentry:\n";
  std::vector<std::string> vals = {"%x", "%y"};
  int next_id = 0;
  auto fresh = [&] { return "%v" + std::to_string(next_id++); };
  auto any = [&] { return vals[pick(vals.size())]; };
  // Constants.
  os << "  %one = const i64 1\n  %zero = const i64 0\n";
  for (int i = 0; i < 3; ++i) {
    std::string c = fresh();
    os << "  " << c << " = const i64 "
       << static_cast<int64_t>(pick(2000) - 1000) << "\n";
    vals.push_back(c);
  }
  static const char* kBin[] = {"add", "sub", "mul", "and",
                               "or",  "xor", "shl", "lshr",
                               "ashr"};
  auto emit_op = [&] {
    std::string r = fresh();
    uint64_t k = pick(12);
    if (k < 9) {
      std::string b = any();
      if (k >= 6) {  // shifts: mask the amount to keep them meaningful
        std::string m = fresh();
        os << "  " << m << " = const i64 " << pick(8) << "\n";
        b = m;
      }
      os << "  " << r << " = " << kBin[k] << " " << any() << ", " << b
         << "\n";
    } else if (k == 9) {  // compare + select
      std::string c = fresh();
      os << "  " << c << " = icmp "
         << (pick(2) ? "slt" : "sge") << " " << any() << ", " << any()
         << "\n";
      os << "  " << r << " = select " << c << ", " << any() << ", " << any()
         << "\n";
    } else {  // narrow + widen round trip
      const char* ty = pick(2) ? "i8" : "i16";
      std::string t = fresh();
      os << "  " << t << " = trunc " << any() << " to " << ty << "\n";
      os << "  " << r << " = " << (pick(2) ? "sext" : "zext") << " " << t
         << " to i64\n";
    }
    vals.push_back(r);
  };
  for (int i = 0; i < 6; ++i) emit_op();
  os << "  %base = globaladdr @g\n";
  os << "  %iters = const i64 " << (8 + pick(25)) << "\n";
  if (with_fork) os << "  mutls.fork 0, mixed\n";
  os << "  br loop\n";
  // The loop: accumulate, store to a masked slot, load it back.
  std::string seedv = any();
  os << "loop:\n";
  os << "  %i = phi i64 [%zero, entry], [%inc, loop]\n";
  os << "  %acc = phi i64 [" << seedv << ", entry], [%acc2, loop]\n";
  vals.push_back("%i");
  vals.push_back("%acc");
  for (int i = 0; i < 2; ++i) emit_op();
  os << "  %m63 = const i64 63\n";
  os << "  %slot = and %i, %m63\n";
  os << "  %sp = gep %base, %slot, 8\n";
  os << "  store " << any() << ", %sp\n";
  os << "  %back = load i64, %sp\n";
  os << "  %acc2 = add %acc, %back\n";
  os << "  %inc = add %i, %one\n";
  os << "  %c = icmp slt %inc, %iters\n";
  os << "  condbr %c, loop, done\n";
  os << "done:\n";
  if (with_fork) {
    // The speculative child executes from here; give it loads and stores
    // that can conflict with the parent's loop.
    os << "  mutls.join 0\n";
    os << "  %rp = gep %base, %zero, 8\n";
    os << "  %rv = load i64, %rp\n";
    os << "  %out = add %rv, %acc2\n";
    os << "  store %out, %rp\n";
    os << "  mutls.barrier 0\n";
    os << "  %fin = load i64, %rp\n";
    os << "  ret %fin\n";
  } else {
    os << "  ret %acc2\n";
  }
  os << "}\n";
  return os.str();
}

TEST(InterpDispatch, RandomizedPrograms) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    for (bool with_fork : {false, true}) {
      std::string text = gen_program(seed, with_fork);
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " fork=" + std::to_string(with_fork) + "\n" + text);
      ir::Module m = parse_module(text);
      std::vector<std::string> errs = ir::verify_module(m);
      ASSERT_TRUE(errs.empty()) << errs.front();
      expect_equivalent(text, "t", {seed * 7919, seed * 104729});
    }
  }
}

}  // namespace
}  // namespace mutls::interp
