// IR interpreter with integrated thread-level speculation.
//
// Executes the mini-IR of src/ir/ against host memory through the MUTLS
// runtime. The mutls.fork / mutls.join / mutls.barrier intrinsics behave as
// the paper's transformed code does:
//
//  * mutls.fork p, model — MUTLS_get_CPU + save live locals + speculate: a
//    child thread starts executing from the instruction after the matching
//    mutls.join p with a snapshot of the forker's registers (value
//    prediction, paper IV-G4). Register reads that precede any child-side
//    definition are recorded and validated against the joiner's registers
//    at the join (validate_local).
//  * Speculative loads/stores go through the thread's SpecBuffer (any
//    configured backend); wild addresses, capacity doom and abort signals
//    doom the speculation.
//  * A speculative thread stops at its barrier point (mutls.barrier p), at
//    a return point (before ret of its entry function), at a terminate
//    point (before an external call), or at a check point (loop back edge)
//    once SYNC has been signalled. Its stop position + registers + fork
//    bookkeeping are deposited for the joiner.
//  * mutls.join p — MUTLS_validate_local + MUTLS_synchronize. On commit the
//    joiner *resumes from the child's stop position* with the child's
//    registers (the paper's synchronization-table mechanism), adopting the
//    child's children. On rollback it simply continues after the join
//    point, re-executing the region, exactly like the transformed
//    non-speculative code.
//
// Execution runs on the engine of src/exec/: at construction the module is
// predecoded (flat handler-table code, per-fork-point join positions and
// live-in validation sets, the loop-region table) and hot execution uses
// the direct-threaded dispatcher. The original per-op switch loop is
// retained as the semantic oracle (DispatchMode::kSwitch); both tiers
// share Frame/StopState and the speculative memory path (exec/mem_ops.h),
// so a child stopped under one tier is resumed correctly by a joiner
// running the other. The tier is a constructor argument; every runtime
// knob comes from the ManagerConfig beside it, the struct the native
// embedding's Runtime::Options also names.
//
// Restrictions relative to the paper: stop positions are taken only in the
// speculative entry frame, so the stack-frame reconstruction walk of
// section IV-H is not needed at runtime; nested calls run speculatively
// but stop points inside them degrade to rollback.
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/dispatch.h"
#include "exec/frame.h"
#include "exec/profile.h"
#include "ir/ir.h"
#include "runtime/thread_manager.h"

namespace mutls::interp {

class Interpreter final : private exec::ExecHost {
 public:
  // `mode` picks the dispatch tier (exec/dispatch.h).
  Interpreter(ir::Module module, const ManagerConfig& config,
              exec::DispatchMode mode = exec::DispatchMode::kDirectThreaded);
  ~Interpreter();

  Interpreter(const Interpreter&) = delete;
  Interpreter& operator=(const Interpreter&) = delete;

  // Calls @name on the non-speculative thread. Raw 64-bit argument/return
  // encoding (floats bit-cast).
  uint64_t call(const std::string& name, std::vector<uint64_t> args = {});

  // Host address of a global, for seeding inputs and reading results.
  void* global_addr(const std::string& name);

  RunStats collect_stats() { return mgr_.collect_stats(); }
  ThreadManager& manager() { return mgr_; }

  // --- execution-engine surface (src/exec/) ---

  // Region-profiler counters (back-edge executions per loop region),
  // hottest first. Reset clears them (benchmark phases).
  std::vector<exec::RegionHeat> region_heat() const {
    return exec::snapshot_heat(*decoded_);
  }
  void reset_region_heat() { decoded_->reset_heat(); }

  // Captured output of the print_* external functions (testing aid).
  std::vector<int64_t> printed;

 private:
  using Frame = exec::Frame;
  using StopState = exec::StopState;
  using ForkRec = exec::ForkRec;
  using Stop = exec::Stop;

  // Executes `f` from (block, instr) under the configured dispatch tier;
  // fills `stop` for speculative entry frames; returns the ret value
  // otherwise.
  uint64_t exec_any(ThreadData& td, Frame& fr, uint32_t block,
                    uint32_t instr, StopState* stop);
  // The original per-op switch loop (DispatchMode::kSwitch): the oracle
  // the differential suite holds the other tiers against.
  uint64_t exec_switch(ThreadData& td, Frame& fr, uint32_t block,
                       uint32_t instr, StopState* stop);

  uint64_t call_function(ThreadData& td, const ir::Function& f,
                         std::vector<uint64_t> args);

  uint64_t external_call(ThreadData& td, const ir::Instr& in, Frame& fr);

  void do_fork(ThreadData& td, Frame& fr, const ir::Instr& in);
  // Handles mutls.join: returns true when the joiner must resume from a
  // committed child's position (out params set).
  bool do_join(ThreadData& td, Frame& fr, int64_t point, uint32_t* rblock,
               uint32_t* rinstr);

  // exec::ExecHost — the dispatcher's callbacks for cold, protocol-heavy
  // ops (fork/join, nested calls, externals).
  void host_fork(exec::ExecState& st, const ir::Instr& in) override;
  bool host_join(exec::ExecState& st, int64_t point, uint32_t* rblock,
                 uint32_t* rinstr) override;
  uint64_t host_call(exec::ExecState& st, const ir::Function& callee,
                     const uint64_t* args, size_t n) override;
  uint64_t host_external(exec::ExecState& st, const ir::Instr& in) override;

  ir::Module module_;
  ThreadManager mgr_;
  std::unordered_map<std::string, std::unique_ptr<char[]>> globals_;
  exec::DispatchMode dispatch_mode_;
  // Built at construction, after globals are allocated (addresses resolve
  // at decode). Immutable but for the per-region heat counters; shared by
  // every thread and both dispatch tiers (the switch oracle reads its
  // fork-point tables too — the old lazy liveness cache and its mutex are
  // gone).
  std::unique_ptr<exec::DecodedModule> decoded_;
  std::mutex print_mu_;
};

}  // namespace mutls::interp
