// A compact SSA intermediate representation standing in for LLVM IR, so
// the speculator and the interpreter need no LLVM toolchain: typed values,
// basic blocks, phis, loads/stores, calls and the MUTLS fork/join/barrier
// intrinsics. The speculator pass (src/speculator/) transforms this IR
// exactly as the paper's LLVM pass transforms LLVM IR, and the interpreter
// (src/interp/) executes it against host memory with the TLS runtime.
//
// Textual syntax (see parser.cpp):
//
//   global @acc : i64[64]
//   func @work(%n: i64) : i64 {
//   entry:
//     %zero = const i64 0
//     br loop
//   loop:
//     %i = phi i64 [%zero, entry], [%inc, loop]
//     %p = gep @acc, %i, 8
//     store %i, %p
//     %inc = add %i, %one
//     %c = icmp slt %inc, %n
//     condbr %c, loop, done
//   done:
//     ret %zero
//   }
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/check.h"

namespace mutls::ir {

enum class Type : uint8_t {
  kVoid,
  kI1,
  kI8,
  kI16,
  kI32,
  kI64,
  kF32,
  kF64,
  kPtr,
};

size_t type_size(Type t);
const char* type_name(Type t);
bool is_integer(Type t);
bool is_float(Type t);

enum class Op : uint8_t {
  kConst,    // imm
  kAdd, kSub, kMul, kSDiv, kSRem,
  kAnd, kOr, kXor, kShl, kLShr, kAShr,
  kFAdd, kFSub, kFMul, kFDiv,
  kICmp,     // pred in `pred`
  kFCmp,
  kSelect,   // a ? b : c
  kTrunc, kZExt, kSExt, kSIToFP, kFPToSI, kPtrToInt, kIntToPtr, kBitcast,
  kAlloca,   // imm = byte size; yields ptr into the frame
  kLoad,     // *a, result type = this->type
  kStore,    // *b = a (no result)
  kGep,      // a + b * imm  (byte scale), yields ptr
  kGlobal,   // address of global `sym`
  kCall,     // call @sym(args...)
  kBr,       // unconditional, target blocks[0]
  kCondBr,   // a ? blocks[0] : blocks[1]
  kRet,      // optional a
  kPhi,      // args[i] from blocks[i]
  // MUTLS intrinsics (front-end builtins, paper IV-A).
  kMutlsFork,     // imm = point id, pred = fork model
  kMutlsJoin,     // imm = point id
  kMutlsBarrier,  // imm = point id
};

const char* op_name(Op op);
bool is_terminator(Op op);

enum class Pred : uint8_t {
  kEq, kNe, kSlt, kSle, kSgt, kSge,  // icmp
  kOlt, kOle, kOgt, kOge, kOeq, kOne,  // fcmp
};

const char* pred_name(Pred p);

// One SSA value id. Value 0 is reserved/invalid. Function parameters take
// ids 1..nparams; instruction results follow.
using ValueId = uint32_t;
constexpr ValueId kNoValue = 0;

struct Instr {
  Op op = Op::kConst;
  Type type = Type::kVoid;  // result type (kVoid: no result)
  ValueId result = kNoValue;
  std::vector<ValueId> args;
  std::vector<uint32_t> blocks;  // successor block ids / phi predecessors
  Pred pred = Pred::kEq;
  int64_t imm = 0;       // constant payload / alloca size / gep scale / point id
  double fimm = 0.0;     // float constant payload
  std::string sym;       // callee or global symbol
};

struct Block {
  std::string label;
  std::vector<Instr> instrs;

  const Instr& terminator() const {
    MUTLS_CHECK(!instrs.empty(), "empty block");
    return instrs.back();
  }
};

struct Param {
  std::string name;
  Type type;
};

struct Function {
  std::string name;
  std::vector<Param> params;
  Type ret_type = Type::kVoid;
  std::vector<Block> blocks;
  // Number of SSA values (params + results); value ids < value_count.
  ValueId value_count = 1;
  // Result types indexed by ValueId (kVoid for unused slots).
  std::vector<Type> value_types;
  std::vector<std::string> value_names;

  ValueId new_value(Type t, std::string name) {
    ValueId id = value_count++;
    value_types.resize(value_count, Type::kVoid);
    value_names.resize(value_count);
    value_types[id] = t;
    value_names[id] = std::move(name);
    return id;
  }

  uint32_t block_index(const std::string& label) const {
    for (uint32_t i = 0; i < blocks.size(); ++i) {
      if (blocks[i].label == label) return i;
    }
    MUTLS_CHECK(false, "unknown block label");
    return 0;
  }
};

struct Global {
  std::string name;
  Type elem_type = Type::kI64;
  size_t count = 1;
  std::vector<int64_t> init;  // optional element initializers
};

struct Module {
  std::vector<Function> functions;
  std::vector<Global> globals;

  Function* find_function(const std::string& name) {
    for (Function& f : functions) {
      if (f.name == name) return &f;
    }
    return nullptr;
  }
  const Function* find_function(const std::string& name) const {
    return const_cast<Module*>(this)->find_function(name);
  }
  Global* find_global(const std::string& name) {
    for (Global& g : globals) {
      if (g.name == name) return &g;
    }
    return nullptr;
  }
};

// --- parser / printer / verifier (parser.cpp, printer.cpp, verifier.cpp) --

// Parses the textual form; throws ParseError on malformed input.
struct ParseError {
  std::string message;
  int line;
};
Module parse_module(const std::string& text);

std::string print_module(const Module& m);
std::string print_function(const Function& f);

// Structural verification: operand/result types, terminator placement,
// phi/predecessor consistency, SSA def-before-use over the dominator tree.
// Returns an empty vector when the module is well-formed.
std::vector<std::string> verify_module(const Module& m);

// --- analyses (analysis.cpp) ---

struct Cfg {
  std::vector<std::vector<uint32_t>> succ;
  std::vector<std::vector<uint32_t>> pred;
};
Cfg build_cfg(const Function& f);

// Immediate dominators by Cooper-Harvey-Kennedy iteration; idom[0] == 0.
std::vector<uint32_t> compute_idom(const Function& f, const Cfg& cfg);

// Per-block live-in value sets (bit per ValueId).
std::vector<std::vector<bool>> compute_live_in(const Function& f);

// Values live immediately before instruction (block, instr), derived from
// the per-block sets by a backward scan within the block. Used by the
// speculator pass and interpreter to form the validate_local set for a
// continuation entry position (paper IV-G4).
std::vector<bool> live_at(const Function& f,
                          const std::vector<std::vector<bool>>& live_in,
                          uint32_t block, uint32_t instr);

// Natural-loop headers under the repo's block-ordering discipline: targets
// of back edges, i.e. branch targets with target <= source. This is the
// same notion of "check point" the interpreter polls at (a jump to an
// earlier-or-same block) and names the regions of the execution engine's
// profiler and compilation seam (src/exec/). Sorted ascending, no
// duplicates.
std::vector<uint32_t> loop_headers(const Function& f);

}  // namespace mutls::ir
