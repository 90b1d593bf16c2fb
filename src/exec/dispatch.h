// Predecoded direct-threaded dispatch, the execution engine's default
// tier.
//
// At module load every function's instruction stream is predecoded into a
// flat, cache-friendly DecodedInstr array: one 64-byte record per IR
// instruction carrying a function-pointer handler specialized at decode
// time (per op x type x predicate), resolved operand slots, pre-truncation
// masks / sign-extension shifts, pre-converted constants, pre-resolved
// global addresses and callees, and branch targets as flat instruction
// indices. Execution is then a tight loop over the handler table —
//
//   while (running) { const DecodedInstr& di = code[ip]; di.handler(st, di); }
//
// — with none of the per-op switch chains (trunc_to / sext_of / predicate
// dispatch) the interpreter's oracle pays on every instruction.
//
// Decode also precomputes everything the speculation protocol needs on the
// execution path: per-fork-point join positions and live-in validation
// sets (one liveness pass per function at load — the interpreter's lazy
// mutex-guarded live_cache_ is gone), and the region table of loop headers
// (back-edge targets) that powers the region profiler (exec/profile.h).
//
// Positions visible to the speculation protocol (stop states, resume
// points, fork bookkeeping) stay in original (block, instr) coordinates so
// the two dispatch tiers interoperate.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/frame.h"
#include "ir/ir.h"

namespace mutls::exec {

// How the engine executes decoded code. kSwitch is the interpreter's
// original per-op switch loop, retained as the semantic oracle and
// fallback; kDirectThreaded is the handler-table dispatcher. The
// interpreter takes the mode as a constructor argument, next to its
// ManagerConfig.
enum class DispatchMode : uint8_t {
  kSwitch = 0,
  kDirectThreaded = 1,
};

inline const char* dispatch_mode_name(DispatchMode m) {
  switch (m) {
    case DispatchMode::kSwitch: return "switch";
    case DispatchMode::kDirectThreaded: return "direct-threaded";
  }
  return "?";
}

struct ExecState;
struct DecodedInstr;
using Handler = void (*)(ExecState&, const DecodedInstr&);

// Edge metadata packed per branch target: 0 = forward edge; a back edge
// (check point) sets bit 31 and holds (region index + 1) of its target
// loop header in the low 30 bits.
constexpr uint32_t kEdgeBack = 0x8000'0000u;
constexpr uint32_t kEdgeRegionMask = 0x3fff'ffffu;

// One predecoded instruction: a 64-byte record, handler first. For
// branches, aux packs the two edge-metadata words (e0 in the low half for
// t0, e1 in the high half for t1).
struct DecodedInstr {
  Handler handler = nullptr;
  uint32_t a = 0, b = 0, c = 0;  // operand value ids / arg-pool off+len
  uint32_t result = 0;
  uint64_t imm = 0;  // payload: pre-converted const / mask / size / scale
  uint64_t aux = 0;  // mask / sext shift / flags / packed edge metadata
  const void* ptr = nullptr;  // global addr / callee Function* / Instr*
  uint32_t block = 0;         // original coordinates (stop states)
  uint32_t index = 0;
  uint32_t t0 = 0, t1 = 0;  // flat branch targets (taken / fallthrough)
};
static_assert(sizeof(DecodedInstr) == 64, "one cache line per instruction");

// Precomputed join position + live-in validation set of one fork point
// (paper IV-G4), computed once at decode from the function's liveness.
struct ForkPointInfo {
  uint32_t join_block = 0;
  uint32_t join_instr = 0;  // position just after the mutls.join
  std::vector<ir::ValueId> validate_ids;
};

// One profiled region: a natural loop named by its header block (a
// back-edge target under the repo's block-ordering discipline). `heat`
// counts back-edge executions (the region profiler's one increment).
struct RegionInfo {
  uint32_t header_block = 0;
  std::string label;  // header block label
  std::atomic<uint64_t> heat{0};
};

struct DecodedFunction {
  const ir::Function* fn = nullptr;
  std::vector<DecodedInstr> code;     // all blocks, concatenated in order
  std::vector<uint32_t> block_start;  // flat index of each block's first
  std::vector<ir::ValueId> arg_pool;  // call argument lists
  std::vector<std::unique_ptr<RegionInfo>> regions;
  std::unordered_map<int64_t, ForkPointInfo> fork_points;

  uint32_t flat_ip(uint32_t block, uint32_t instr) const {
    MUTLS_DCHECK(block < block_start.size(), "flat_ip: block out of range");
    return block_start[block] + instr;
  }
  // Region index of a header block, or -1.
  int region_of(uint32_t header_block) const {
    for (size_t i = 0; i < regions.size(); ++i) {
      if (regions[i]->header_block == header_block) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }
};

// Host services the dispatcher calls back into for the cold, protocol-
// heavy ops (fork/join, nested calls, externals). Implemented by the
// interpreter; everything hot (arithmetic, memory, branches, stops) is
// handled inside the engine.
class ExecHost {
 public:
  virtual ~ExecHost() = default;
  virtual void host_fork(ExecState& st, const ir::Instr& in) = 0;
  // Returns true when the joiner must resume from a committed child's
  // position (out params set, original coordinates).
  virtual bool host_join(ExecState& st, int64_t point, uint32_t* rblock,
                         uint32_t* rinstr) = 0;
  virtual uint64_t host_call(ExecState& st, const ir::Function& callee,
                             const uint64_t* args, size_t n) = 0;
  virtual uint64_t host_external(ExecState& st, const ir::Instr& in) = 0;
};

// Mutable state of one direct-threaded activation.
struct ExecState {
  const DecodedFunction* df = nullptr;
  const DecodedInstr* code = nullptr;
  uint64_t* regs = nullptr;
  Frame* fr = nullptr;
  ThreadData* td = nullptr;
  ThreadManager* mgr = nullptr;
  ExecHost* host = nullptr;
  StopState* stop = nullptr;
  uint32_t ip = 0;
  uint32_t prev_block = 0;  // phi resolution
  bool track = false;       // speculative-entry def/use bookkeeping
  enum class Exit : uint8_t { kRunning, kReturn, kStopped } exit =
      Exit::kRunning;
  uint64_t ret = 0;
};

// The whole-module decode artifact. Built once at load (after globals are
// allocated, so addresses resolve); shared by every thread — the only
// mutable fields are the per-region heat counters.
class DecodedModule {
 public:
  // `global_addr` resolves a global symbol to its host address.
  DecodedModule(const ir::Module& m,
                const std::function<void*(const std::string&)>& global_addr);

  const DecodedFunction& decoded(const ir::Function& f) const {
    auto it = fns_.find(&f);
    MUTLS_CHECK(it != fns_.end(), "function was not decoded");
    return *it->second;
  }

  // Profiler access (see exec/profile.h for the snapshot shape).
  template <typename Fn>
  void for_each_region(Fn&& visit) const {
    for (const auto& [f, df] : fns_) {
      for (const auto& r : df->regions) visit(*df, *r);
    }
  }
  void reset_heat();

 private:
  std::unordered_map<const ir::Function*, std::unique_ptr<DecodedFunction>>
      fns_;
};

// Runs decoded code from st.ip until return or stop. Returns the ret value
// (0 when the frame stopped; st.exit tells which).
uint64_t run(ExecState& st);

}  // namespace mutls::exec
