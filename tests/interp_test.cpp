// End-to-end tests of IR execution with thread-level speculation: the
// universality claim of the paper exercised at the IR level.
#include "interp/interp.h"

#include <gtest/gtest.h>

#include <cstring>

namespace mutls::interp {
namespace {

using ir::parse_module;

ManagerConfig opts(int cpus = 2) {
  ManagerConfig o;
  o.num_cpus = cpus;
  o.buffer_log2 = 10;
  return o;
}

TEST(Interp, StraightLineArithmetic) {
  Interpreter it(parse_module(R"(
func @f(%a: i64, %b: i64) : i64 {
entry:
  %s = add %a, %b
  %two = const i64 2
  %m = mul %s, %two
  ret %m
}
)"),
                 opts());
  EXPECT_EQ(it.call("f", {3, 4}), 14u);
}

TEST(Interp, LoopsAndPhis) {
  Interpreter it(parse_module(R"(
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
)"),
                 opts());
  EXPECT_EQ(it.call("sum", {10}), 45u);
}

TEST(Interp, GlobalsLoadsStores) {
  Interpreter it(parse_module(R"(
global @cell : i64[4] = {10, 20, 30, 40}
func @get(%i: i64) : i64 {
entry:
  %base = globaladdr @cell
  %p = gep %base, %i, 8
  %v = load i64, %p
  ret %v
}
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
)"),
                 opts());
  EXPECT_EQ(it.call("get", {2}), 30u);
  EXPECT_EQ(it.call("inc", {2}), 31u);
  EXPECT_EQ(it.call("get", {2}), 31u);
}

TEST(Interp, CallsAndRecursion) {
  Interpreter it(parse_module(R"(
func @fib(%n: i64) : i64 {
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
  %f1 = call i64 @fib(%n1)
  %f2 = call i64 @fib(%n2)
  %s = add %f1, %f2
  ret %s
}
)"),
                 opts());
  EXPECT_EQ(it.call("fib", {10}), 55u);
}

TEST(Interp, FloatArithmetic) {
  Interpreter it(parse_module(R"(
func @fma(%a: f64, %b: f64) : f64 {
entry:
  %p = fmul %a, %b
  %s = fadd %p, %a
  ret %s
}
)"),
                 opts());
  double a = 2.5, b = 4.0;
  uint64_t ra, rb;
  memcpy(&ra, &a, 8);
  memcpy(&rb, &b, 8);
  uint64_t r = it.call("fma", {ra, rb});
  double d;
  memcpy(&d, &r, 8);
  EXPECT_DOUBLE_EQ(d, 2.5 * 4.0 + 2.5);
}

TEST(Interp, AllocaIsPrivateMemory) {
  Interpreter it(parse_module(R"(
func @scratch() : i64 {
entry:
  %p = alloca 16
  %v = const i64 99
  store %v, %p
  %r = load i64, %p
  ret %r
}
)"),
                 opts());
  EXPECT_EQ(it.call("scratch"), 99u);
}

// The paper's Figure 1 pattern: fork, work, join, barrier. The speculative
// thread executes the store to @flag while the parent computes.
const char* kForkJoin = R"(
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
)";

TEST(Interp, SpeculativeForkJoinCommits) {
  Interpreter it(parse_module(kForkJoin), opts(2));
  // Sequential result: sum(0..9) = 45 in out[0], 42 in out[1], ret 87.
  EXPECT_EQ(it.call("work", {10}), 87u);
  RunStats rs = it.collect_stats();
  EXPECT_GE(rs.speculative_threads + rs.critical.fork_denied, 1u);
}

TEST(Interp, SpeculationMatchesSequentialOnOneCpuDenial) {
  // With all CPUs busy the fork is denied and execution is sequential;
  // results must be identical.
  Interpreter it(parse_module(kForkJoin), opts(1));
  EXPECT_EQ(it.call("work", {10}), 87u);
}

TEST(Interp, ValuePredictionConflictRollsBack) {
  // The speculative continuation reads @cell, which the parent writes
  // between fork and join: the speculation must roll back and re-execute,
  // producing the sequential result.
  Interpreter it(parse_module(R"(
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
)"),
                 opts(2));
  EXPECT_EQ(it.call("work"), 7u);
}

TEST(Interp, LoopChainAtIrLevel) {
  // Loop speculation through the IR intrinsics: each iteration forks the
  // remaining iterations. The result must equal the sequential sum.
  Interpreter it(parse_module(R"(
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
)"),
                 opts(2));
  it.call("work", {16});
  auto* acc = static_cast<int64_t*>(it.global_addr("acc"));
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(acc[i], static_cast<int64_t>(i) * i) << i;
  }
}

TEST(Interp, TerminatePointDefersExternalCall) {
  // print_i64 is unsafe to speculate: the child stops at the call and the
  // parent executes it after commit — output appears exactly once, in
  // order.
  Interpreter it(parse_module(R"(
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
)"),
                 opts(2));
  it.call("work");
  ASSERT_EQ(it.printed.size(), 1u);
  EXPECT_EQ(it.printed[0], 123);
}

TEST(Interp, RollbackInjectionPreservesResults) {
  ManagerConfig o = opts(2);
  o.rollback_probability = 1.0;
  Interpreter it(parse_module(kForkJoin), o);
  EXPECT_EQ(it.call("work", {10}), 87u);
  RunStats rs = it.collect_stats();
  EXPECT_GT(rs.speculative.rollbacks + rs.critical.fork_denied, 0u);
}

}  // namespace
}  // namespace mutls::interp
