// Two IR kernels for the dispatch benchmark and the dispatch test suites,
// with their sequential oracles and instruction counts.
//
//  * fib — an arithmetic loop (pure register pressure, no memory traffic)
//    that runs non-speculatively in the forker while a speculative child
//    waits at its barrier point. Shows the dispatch-tier difference on
//    instruction-dispatch-bound code.
//  * fill — a store loop, then fork/join around a load-reduce loop
//    ("rloop") that a speculative child executes through its SpecBuffer,
//    and the joiner re-executes inline after a rollback.
#pragma once

#include <cstdint>

namespace mutls::bench::ir_kernels {

// Module text of each kernel (parse_module-ready).
inline const char* fib_ir() {
  return R"(
global @fib_out : i64[1]
func @fib(%n: i64) : i64 {
entry:
  %zero = const i64 0
  %one = const i64 1
  %base = globaladdr @fib_out
  mutls.fork 0, mixed
  br loop
loop:
  %i = phi i64 [%zero, entry], [%inc, loop]
  %a = phi i64 [%zero, entry], [%b, loop]
  %b = phi i64 [%one, entry], [%s, loop]
  %s = add %a, %b
  %inc = add %i, %one
  %c = icmp slt %inc, %n
  condbr %c, loop, joinblk
joinblk:
  store %s, %base
  mutls.join 0
  mutls.barrier 0
  %r = load i64, %base
  ret %r
}
)";
}

inline const char* fill_ir() {
  return R"(
global @fill_cells : i64[4096]
global @fill_sum : i64[1]
func @fill(%n: i64) : i64 {
entry:
  %zero = const i64 0
  %one = const i64 1
  %base = globaladdr @fill_cells
  br wloop
wloop:
  %i = phi i64 [%zero, entry], [%inc, wloop]
  %p = gep %base, %i, 8
  store %i, %p
  %inc = add %i, %one
  %c = icmp slt %inc, %n
  condbr %c, wloop, forkblk
forkblk:
  mutls.fork 0, mixed
  mutls.join 0
  br rloop
rloop:
  %j = phi i64 [%zero, forkblk], [%jinc, rloop]
  %s = phi i64 [%zero, forkblk], [%s2, rloop]
  %q = gep %base, %j, 8
  %v = load i64, %q
  %s2 = add %s, %v
  %jinc = add %j, %one
  %c2 = icmp slt %jinc, %n
  condbr %c2, rloop, done
done:
  %sp = globaladdr @fill_sum
  store %s2, %sp
  mutls.barrier 0
  %r = load i64, %sp
  ret %r
}
)";
}

// Sequential-oracle results, computed the same wrapping-uint64 way the IR
// computes them (valid for any n >= 1).
inline uint64_t fib_expected(uint64_t n) {
  uint64_t a = 0, b = 1, s = 1;
  for (uint64_t i = 0; i < n; ++i) {  // the IR loop body runs n times
    s = a + b;
    a = b;
    b = s;
  }
  return s;
}

inline uint64_t fill_expected(uint64_t n) {
  uint64_t s = 0;
  for (uint64_t i = 0; i < n; ++i) s += i;
  return s;
}

// Approximate interpreted instruction count of one call (ns-per-instr
// denominators in the dispatch benchmark).
inline uint64_t fib_instrs(uint64_t n) { return 7 * n + 12; }
inline uint64_t fill_instrs(uint64_t n) { return 6 * n + 8 * n + 16; }

}  // namespace mutls::bench::ir_kernels
