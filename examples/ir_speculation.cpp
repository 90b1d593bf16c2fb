// The universality path: a program written in the language-neutral IR,
// annotated with the paper's fork/join/barrier builtins, run through
//
//   1. the speculator pass (compile-time transformation: speculative
//      clone, proxy/stub, point blocks, tables), printed for inspection;
//   2. the interpreter with integrated TLS semantics, executing the
//      original annotated program speculatively and checking the result.
//
// Run: ./examples/ir_speculation [switch|direct-threaded]
// (the optional argument picks the execution-engine dispatch tier; the
// default is the direct-threaded dispatcher, `switch` is the oracle loop)
#include <cstdio>
#include <cstring>

#include "interp/interp.h"
#include "speculator/pass.h"

namespace {

const char* kProgram = R"(
; Sum the squares of 0..n-1 into @acc while a speculative thread
; runs ahead to fill @flags -- the paper's Figure 1 shape.
global @acc : i64[1]
global @flags : i64[4]
func @work(%n: i64) : i64 {
entry:
  %zero = const i64 0
  %one = const i64 1
  %acc = globaladdr @acc
  %flags = globaladdr @flags
  mutls.fork 0, mixed
  br loop
loop:
  %i = phi i64 [%zero, entry], [%inc, loop]
  %s = phi i64 [%zero, entry], [%s2, loop]
  %sq = mul %i, %i
  %s2 = add %s, %sq
  %inc = add %i, %one
  %c = icmp slt %inc, %n
  condbr %c, loop, joinblk
joinblk:
  store %s2, %acc
  mutls.join 0
  ; --- speculated continuation: mark all four flags ---
  %f0 = gep %flags, %zero, 8
  store %one, %f0
  %f1 = gep %flags, %one, 8
  store %one, %f1
  mutls.barrier 0
  %r = load i64, %acc
  ret %r
}
)";

}  // namespace

int main(int argc, char** argv) {
  using namespace mutls;

  exec::DispatchMode mode = exec::DispatchMode::kDirectThreaded;
  if (argc > 1) {
    if (!std::strcmp(argv[1], "switch")) {
      mode = exec::DispatchMode::kSwitch;
    } else if (!std::strcmp(argv[1], "direct-threaded")) {
      mode = exec::DispatchMode::kDirectThreaded;
    } else {
      std::printf("unknown dispatch mode '%s'\n", argv[1]);
      return 1;
    }
  }

  ir::Module m = ir::parse_module(kProgram);
  auto errs = ir::verify_module(m);
  if (!errs.empty()) {
    std::printf("verification failed: %s\n", errs[0].c_str());
    return 1;
  }

  // --- the compile-time artifact ---
  speculator::PassResult pr = speculator::run_speculator_pass(m);
  std::printf("speculator pass generated %zu functions:\n",
              pr.module.functions.size());
  for (const ir::Function& f : pr.module.functions) {
    std::printf("  @%s (%zu blocks)\n", f.name.c_str(), f.blocks.size());
  }
  const speculator::FunctionReport& rep = pr.reports[0];
  std::printf("point blocks in @%s: %zu, local slots: %d\n",
              rep.original.c_str(), rep.points.size(), rep.live_slots);
  std::printf("\n--- transformed non-speculative @work ---\n%s\n",
              ir::print_function(*pr.module.find_function("work")).c_str());

  // --- the runtime behaviour ---
  ManagerConfig o;
  o.num_cpus = 2;
  o.buffer_log2 = 14;
  interp::Interpreter it(ir::parse_module(kProgram), o, mode);
  std::printf("dispatch mode: %s\n", exec::dispatch_mode_name(mode));
  uint64_t r = it.call("work", {100});
  auto* flags = static_cast<int64_t*>(it.global_addr("flags"));
  RunStats rs = it.collect_stats();
  std::printf("work(100) = %llu (expect 328350)\n",
              static_cast<unsigned long long>(r));
  std::printf("flags: %lld %lld (expect 1 1)\n",
              static_cast<long long>(flags[0]),
              static_cast<long long>(flags[1]));
  std::printf("speculations: %llu, commits: %llu, rollbacks: %llu\n",
              static_cast<unsigned long long>(rs.speculative_threads),
              static_cast<unsigned long long>(rs.speculative.commits),
              static_cast<unsigned long long>(rs.speculative.rollbacks));
  for (const exec::RegionHeat& h : it.region_heat()) {
    std::printf("region @%s:%s heat: %llu back edges\n", h.function.c_str(),
                h.header.c_str(), static_cast<unsigned long long>(h.count));
  }
  return r == 328350 && flags[0] == 1 && flags[1] == 1 ? 0 : 1;
}
