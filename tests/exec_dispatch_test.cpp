// Unit tests of the execution engine (src/exec/): decoder layout and
// specialization, fork-point tables vs the liveness analysis, region
// discovery, the profiler's exact counts, and speculative execution
// through the direct-threaded tier (including the doomed-speculation path).
#include <gtest/gtest.h>

#include <string>

#include "bench/ir_kernels.h"
#include "exec/dispatch.h"
#include "exec/profile.h"
#include "interp/interp.h"

namespace mutls::exec {
namespace {

using interp::Interpreter;
using ir::parse_module;
namespace kernels = bench::ir_kernels;

ManagerConfig opts(int cpus = 2) {
  ManagerConfig o;
  o.num_cpus = cpus;
  o.buffer_log2 = 10;
  return o;
}

// --- decoder ------------------------------------------------------------

TEST(ExecDecode, FlatLayoutMatchesBlockCoordinates) {
  ir::Module m = parse_module(R"(
func @f(%n: i64) : i64 {
entry:
  %zero = const i64 0
  br loop
loop:
  %i = phi i64 [%zero, entry], [%inc, loop]
  %one = const i64 1
  %inc = add %i, %one
  %c = icmp slt %inc, %n
  condbr %c, loop, done
done:
  ret %inc
}
)");
  DecodedModule dm(m, [](const std::string&) -> void* { return nullptr; });
  const ir::Function& f = m.functions[0];
  const DecodedFunction& df = dm.decoded(f);
  // Every block ends in a terminator: no trap padding, 1:1 layout.
  size_t total = 0;
  for (const ir::Block& b : f.blocks) total += b.instrs.size();
  EXPECT_EQ(df.code.size(), total);
  for (uint32_t b = 0; b < f.blocks.size(); ++b) {
    for (uint32_t i = 0; i < f.blocks[b].instrs.size(); ++i) {
      const DecodedInstr& d = df.code[df.flat_ip(b, i)];
      EXPECT_EQ(d.block, b);
      EXPECT_EQ(d.index, i);
    }
  }
}

TEST(ExecDecode, RegionTableFindsLoopHeaders) {
  ir::Module m = parse_module(R"(
func @f(%n: i64) : i64 {
entry:
  %zero = const i64 0
  %one = const i64 1
  br outer
outer:
  %i = phi i64 [%zero, entry], [%i2, latch]
  br inner
inner:
  %j = phi i64 [%zero, outer], [%j2, inner]
  %j2 = add %j, %one
  %cj = icmp slt %j2, %n
  condbr %cj, inner, latch
latch:
  %i2 = add %i, %one
  %ci = icmp slt %i2, %n
  condbr %ci, outer, done
done:
  ret %i2
}
)");
  const ir::Function& f = m.functions[0];
  std::vector<uint32_t> headers = ir::loop_headers(f);
  ASSERT_EQ(headers.size(), 2u);
  EXPECT_EQ(headers[0], f.block_index("outer"));
  EXPECT_EQ(headers[1], f.block_index("inner"));

  DecodedModule dm(m, [](const std::string&) -> void* { return nullptr; });
  const DecodedFunction& df = dm.decoded(f);
  ASSERT_EQ(df.regions.size(), 2u);
  int outer = df.region_of(f.block_index("outer"));
  int inner = df.region_of(f.block_index("inner"));
  ASSERT_GE(outer, 0);
  ASSERT_GE(inner, 0);
  EXPECT_EQ(df.regions[outer]->label, "outer");
  EXPECT_EQ(df.regions[inner]->label, "inner");
}

TEST(ExecDecode, ForkPointTableMatchesLivenessAnalysis) {
  ir::Module m = parse_module(kernels::fill_ir());
  const ir::Function& f = *m.find_function("fill");
  DecodedModule dm(m, [](const std::string&) -> void* { return nullptr; });
  const DecodedFunction& df = dm.decoded(f);
  ASSERT_EQ(df.fork_points.size(), 1u);
  const ForkPointInfo& fp = df.fork_points.at(0);
  // The join position is just after `mutls.join 0` in forkblk.
  uint32_t fb = f.block_index("forkblk");
  EXPECT_EQ(fp.join_block, fb);
  EXPECT_EQ(fp.join_instr, 2u);
  // The validation set is exactly the liveness analysis at that position.
  std::vector<std::vector<bool>> live = ir::compute_live_in(f);
  std::vector<bool> li = ir::live_at(f, live, fb, 2);
  std::vector<ir::ValueId> want;
  for (ir::ValueId v = 1; v < f.value_count; ++v) {
    if (li[v]) want.push_back(v);
  }
  EXPECT_EQ(fp.validate_ids, want);
}

// Decode-time specialization: narrow-type wrapping, shifts and float
// conversions produce exact values through the threaded dispatcher.
TEST(ExecDecode, SpecializedHandlersComputeExactValues) {
  Interpreter it(parse_module(R"(
func @narrow(%a: i64, %b: i64) : i64 {
entry:
  %a8 = trunc %a to i8
  %b8 = trunc %b to i8
  %s = add %a8, %b8
  %w = zext %s to i64
  ret %w
}
func @shr(%a: i64) : i64 {
entry:
  %a32 = trunc %a to i32
  %k = const i64 4
  %l = lshr %a32, %k
  %w = zext %l to i64
  ret %w
}
func @fp(%a: i64) : i64 {
entry:
  %d = sitofp %a to f64
  %h = const f64 0.5
  %m = fmul %d, %h
  %r = fptosi %m to i64
  ret %r
}
)"),
                 opts(1), DispatchMode::kDirectThreaded);
  // 200 + 100 wraps to 44 in i8.
  EXPECT_EQ(it.call("narrow", {200, 100}), 44u);
  // The i32 truncation masks the high word before the shift.
  EXPECT_EQ(it.call("shr", {0xffff0000ffff0000ull}), 0x0ffff000ull);
  EXPECT_EQ(it.call("fp", {90}), 45u);
}

// --- profiler -----------------------------------------------------------

TEST(ExecProfile, HeatCountsBackEdgesExactly) {
  const char* kSum = R"(
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
)";
  for (DispatchMode mode :
       {DispatchMode::kSwitch, DispatchMode::kDirectThreaded}) {
    SCOPED_TRACE(dispatch_mode_name(mode));
    Interpreter it(parse_module(kSum), opts(1), mode);
    EXPECT_EQ(it.call("sum", {100}), 4950u);
    std::vector<RegionHeat> heat = it.region_heat();
    ASSERT_EQ(heat.size(), 1u);
    EXPECT_EQ(heat[0].function, "sum");
    EXPECT_EQ(heat[0].header, "loop");
    // 100 loop iterations take the back edge 99 times.
    EXPECT_EQ(heat[0].count, 99u);
    RunStats rs = it.collect_stats();
    EXPECT_EQ(rs.critical.back_edges + rs.speculative.back_edges, 99u);
    it.reset_region_heat();
    EXPECT_EQ(it.region_heat()[0].count, 0u);
  }
}

// --- speculative execution -----------------------------------------------

// The fill kernel's speculative child runs the interpreted rloop through
// its SpecBuffer and stops at a check point (or its barrier), and the
// results match the sequential oracle whatever the interleaving.
TEST(ExecDispatch, SpeculativeFillMatchesOracle) {
  for (int cpus : {1, 2, 4}) {
    SCOPED_TRACE(cpus);
    Interpreter it(parse_module(kernels::fill_ir()), opts(cpus),
                   DispatchMode::kDirectThreaded);
    EXPECT_EQ(it.call("fill", {2000}), kernels::fill_expected(2000));
  }
}

// A speculative child that stores through a wild pointer dooms itself via
// the shared memory path; the run still completes with the sequential
// result in both dispatch modes. The wild address is taken only when the
// speculative load observed the pre-store value, so the non-speculative
// re-execution after rollback (which sees 5) stores to the real global.
TEST(ExecDispatch, WildSpeculativeStoreDoomsAndRecovers) {
  const char* kWild = R"(
global @res : i64[1]
func @work() : i64 {
entry:
  %r = globaladdr @res
  mutls.fork 0, mixed
  %five = const i64 5
  store %five, %r
  mutls.join 0
  %wild = const i64 4096
  %wp = inttoptr %wild to ptr
  %v = load i64, %r
  %k = const i64 5
  %ok = icmp eq %v, %k
  %addr = select %ok, %r, %wp
  store %v, %addr
  mutls.barrier 0
  %out = load i64, %r
  ret %out
}
)";
  for (DispatchMode mode :
       {DispatchMode::kSwitch, DispatchMode::kDirectThreaded}) {
    SCOPED_TRACE(dispatch_mode_name(mode));
    Interpreter it(parse_module(kWild), opts(2), mode);
    EXPECT_EQ(it.call("work"), 5u);
  }
}

}  // namespace
}  // namespace mutls::exec
