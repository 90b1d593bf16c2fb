// Decoder and handler table of the direct-threaded dispatcher.
//
// Decode-time specialization does the work the oracle's switch re-derives
// per execution: handler selection per (op, type, predicate), truncation
// masks and sign-extension shifts as operands, constants pre-converted,
// globals and callees pre-resolved, branch targets as flat indices with
// per-edge region/back-edge metadata. Handlers therefore run straight-line
// integer code plus exactly one indirect call per instruction.
#include "exec/dispatch.h"

#include <bit>
#include <cstring>

#include "exec/mem_ops.h"
#include "runtime/spec_abort.h"

namespace mutls::exec {

using namespace ir;

namespace {

constexpr size_t kMaxCallArgs = 64;

double as_f64(uint64_t raw) { return std::bit_cast<double>(raw); }
uint64_t from_f64(double d) { return std::bit_cast<uint64_t>(d); }
float as_f32(uint64_t raw) {
  return std::bit_cast<float>(static_cast<uint32_t>(raw));
}
uint64_t from_f32(float f) {
  return static_cast<uint64_t>(std::bit_cast<uint32_t>(f));
}

// trunc_to(v, t) == (v & mask_of(t)).
uint64_t mask_of(Type t) {
  switch (t) {
    case Type::kI1: return 1;
    case Type::kI8: return 0xff;
    case Type::kI16: return 0xffff;
    case Type::kI32: return 0xffffffffull;
    default: return ~0ull;
  }
}

// sext_of(v, t) == int64_t(v << s) >> s with s = sext_shift(t).
uint64_t sext_shift(Type t) {
  switch (t) {
    case Type::kI1: return 63;
    case Type::kI8: return 56;
    case Type::kI16: return 48;
    case Type::kI32: return 32;
    default: return 0;
  }
}

int64_t sext(uint64_t v, uint64_t shift) {
  return static_cast<int64_t>(v << shift) >> shift;
}

uint32_t skip_phis(const Block& b) {
  uint32_t i = 0;
  while (i < b.instrs.size() && b.instrs[i].op == Op::kPhi) ++i;
  return i;
}

// Register read/write with the speculative-entry def/use bookkeeping the
// oracle maintains (one predicted branch; disabled entirely for
// non-entry frames via st.track).
inline uint64_t rdv(ExecState& st, uint32_t v) {
  if (st.track && !st.fr->defined[v]) st.fr->used_snapshot[v] = true;
  return st.regs[v];
}

inline void wrv(ExecState& st, const DecodedInstr& di, uint64_t v) {
  st.regs[di.result] = v;
  if (st.track) st.fr->defined[di.result] = true;
}

// --- handlers -----------------------------------------------------------

void h_const(ExecState& st, const DecodedInstr& di) {
  wrv(st, di, di.imm);
  ++st.ip;
}

void h_add(ExecState& st, const DecodedInstr& di) {
  wrv(st, di, (rdv(st, di.a) + rdv(st, di.b)) & di.imm);
  ++st.ip;
}
void h_sub(ExecState& st, const DecodedInstr& di) {
  wrv(st, di, (rdv(st, di.a) - rdv(st, di.b)) & di.imm);
  ++st.ip;
}
void h_mul(ExecState& st, const DecodedInstr& di) {
  wrv(st, di, (rdv(st, di.a) * rdv(st, di.b)) & di.imm);
  ++st.ip;
}
void h_sdiv(ExecState& st, const DecodedInstr& di) {
  int64_t d = sext(rdv(st, di.b), di.aux);
  MUTLS_CHECK(d != 0, "division by zero");
  wrv(st, di,
      static_cast<uint64_t>(sext(rdv(st, di.a), di.aux) / d) & di.imm);
  ++st.ip;
}
void h_srem(ExecState& st, const DecodedInstr& di) {
  int64_t d = sext(rdv(st, di.b), di.aux);
  MUTLS_CHECK(d != 0, "remainder by zero");
  wrv(st, di,
      static_cast<uint64_t>(sext(rdv(st, di.a), di.aux) % d) & di.imm);
  ++st.ip;
}
void h_and(ExecState& st, const DecodedInstr& di) {
  wrv(st, di, rdv(st, di.a) & rdv(st, di.b));
  ++st.ip;
}
void h_or(ExecState& st, const DecodedInstr& di) {
  wrv(st, di, rdv(st, di.a) | rdv(st, di.b));
  ++st.ip;
}
void h_xor(ExecState& st, const DecodedInstr& di) {
  wrv(st, di, rdv(st, di.a) ^ rdv(st, di.b));
  ++st.ip;
}
void h_shl(ExecState& st, const DecodedInstr& di) {
  wrv(st, di, (rdv(st, di.a) << (rdv(st, di.b) & 63)) & di.imm);
  ++st.ip;
}
void h_lshr(ExecState& st, const DecodedInstr& di) {
  wrv(st, di, (rdv(st, di.a) & di.imm) >> (rdv(st, di.b) & 63));
  ++st.ip;
}
void h_ashr(ExecState& st, const DecodedInstr& di) {
  int64_t x = sext(rdv(st, di.a), di.aux);
  wrv(st, di, static_cast<uint64_t>(x >> (rdv(st, di.b) & 63)) & di.imm);
  ++st.ip;
}

void h_fadd32(ExecState& st, const DecodedInstr& di) {
  wrv(st, di, from_f32(as_f32(rdv(st, di.a)) + as_f32(rdv(st, di.b))));
  ++st.ip;
}
void h_fadd64(ExecState& st, const DecodedInstr& di) {
  wrv(st, di, from_f64(as_f64(rdv(st, di.a)) + as_f64(rdv(st, di.b))));
  ++st.ip;
}
void h_fsub32(ExecState& st, const DecodedInstr& di) {
  wrv(st, di, from_f32(as_f32(rdv(st, di.a)) - as_f32(rdv(st, di.b))));
  ++st.ip;
}
void h_fsub64(ExecState& st, const DecodedInstr& di) {
  wrv(st, di, from_f64(as_f64(rdv(st, di.a)) - as_f64(rdv(st, di.b))));
  ++st.ip;
}
void h_fmul32(ExecState& st, const DecodedInstr& di) {
  wrv(st, di, from_f32(as_f32(rdv(st, di.a)) * as_f32(rdv(st, di.b))));
  ++st.ip;
}
void h_fmul64(ExecState& st, const DecodedInstr& di) {
  wrv(st, di, from_f64(as_f64(rdv(st, di.a)) * as_f64(rdv(st, di.b))));
  ++st.ip;
}
void h_fdiv32(ExecState& st, const DecodedInstr& di) {
  wrv(st, di, from_f32(as_f32(rdv(st, di.a)) / as_f32(rdv(st, di.b))));
  ++st.ip;
}
void h_fdiv64(ExecState& st, const DecodedInstr& di) {
  wrv(st, di, from_f64(as_f64(rdv(st, di.a)) / as_f64(rdv(st, di.b))));
  ++st.ip;
}

void h_icmp_eq(ExecState& st, const DecodedInstr& di) {
  wrv(st, di, rdv(st, di.a) == rdv(st, di.b) ? 1 : 0);
  ++st.ip;
}
void h_icmp_ne(ExecState& st, const DecodedInstr& di) {
  wrv(st, di, rdv(st, di.a) != rdv(st, di.b) ? 1 : 0);
  ++st.ip;
}
void h_icmp_slt(ExecState& st, const DecodedInstr& di) {
  wrv(st, di, sext(rdv(st, di.a), di.aux) < sext(rdv(st, di.b), di.aux));
  ++st.ip;
}
void h_icmp_sle(ExecState& st, const DecodedInstr& di) {
  wrv(st, di, sext(rdv(st, di.a), di.aux) <= sext(rdv(st, di.b), di.aux));
  ++st.ip;
}
void h_icmp_sgt(ExecState& st, const DecodedInstr& di) {
  wrv(st, di, sext(rdv(st, di.a), di.aux) > sext(rdv(st, di.b), di.aux));
  ++st.ip;
}
void h_icmp_sge(ExecState& st, const DecodedInstr& di) {
  wrv(st, di, sext(rdv(st, di.a), di.aux) >= sext(rdv(st, di.b), di.aux));
  ++st.ip;
}

// aux = 1 when the operands are f32.
template <typename Cmp>
inline void fcmp(ExecState& st, const DecodedInstr& di, Cmp cmp) {
  double x, y;
  if (di.aux) {
    x = as_f32(rdv(st, di.a));
    y = as_f32(rdv(st, di.b));
  } else {
    x = as_f64(rdv(st, di.a));
    y = as_f64(rdv(st, di.b));
  }
  wrv(st, di, cmp(x, y) ? 1 : 0);
  ++st.ip;
}
void h_fcmp_oeq(ExecState& st, const DecodedInstr& di) {
  fcmp(st, di, [](double x, double y) { return x == y; });
}
void h_fcmp_one(ExecState& st, const DecodedInstr& di) {
  fcmp(st, di, [](double x, double y) { return x != y; });
}
void h_fcmp_olt(ExecState& st, const DecodedInstr& di) {
  fcmp(st, di, [](double x, double y) { return x < y; });
}
void h_fcmp_ole(ExecState& st, const DecodedInstr& di) {
  fcmp(st, di, [](double x, double y) { return x <= y; });
}
void h_fcmp_ogt(ExecState& st, const DecodedInstr& di) {
  fcmp(st, di, [](double x, double y) { return x > y; });
}
void h_fcmp_oge(ExecState& st, const DecodedInstr& di) {
  fcmp(st, di, [](double x, double y) { return x >= y; });
}

void h_select(ExecState& st, const DecodedInstr& di) {
  wrv(st, di, rdv(st, di.a) & 1 ? rdv(st, di.b) : rdv(st, di.c));
  ++st.ip;
}
void h_mask(ExecState& st, const DecodedInstr& di) {  // trunc / zext
  wrv(st, di, rdv(st, di.a) & di.imm);
  ++st.ip;
}
void h_sext(ExecState& st, const DecodedInstr& di) {
  wrv(st, di,
      static_cast<uint64_t>(sext(rdv(st, di.a), di.aux)) & di.imm);
  ++st.ip;
}
void h_sitofp32(ExecState& st, const DecodedInstr& di) {
  wrv(st, di, from_f32(static_cast<float>(sext(rdv(st, di.a), di.aux))));
  ++st.ip;
}
void h_sitofp64(ExecState& st, const DecodedInstr& di) {
  wrv(st, di, from_f64(static_cast<double>(sext(rdv(st, di.a), di.aux))));
  ++st.ip;
}
void h_fptosi(ExecState& st, const DecodedInstr& di) {
  double v = di.aux ? as_f32(rdv(st, di.a)) : as_f64(rdv(st, di.a));
  wrv(st, di,
      static_cast<uint64_t>(static_cast<int64_t>(v)) & di.imm);
  ++st.ip;
}
void h_copy(ExecState& st, const DecodedInstr& di) {
  wrv(st, di, rdv(st, di.a));
  ++st.ip;
}

void h_alloca(ExecState& st, const DecodedInstr& di) {
  size_t n = static_cast<size_t>(di.imm);
  char* mem = new char[n]();
  st.mgr->register_space(mem, n);
  st.fr->allocas.emplace_back(mem, n);
  wrv(st, di, reinterpret_cast<uint64_t>(mem));
  ++st.ip;
}

void h_load(ExecState& st, const DecodedInstr& di) {
  uint64_t out = 0;
  load_mem(*st.mgr, *st.td, rdv(st, di.a), &out,
           static_cast<size_t>(di.imm));
  wrv(st, di, out & di.aux);
  ++st.ip;
}
void h_store(ExecState& st, const DecodedInstr& di) {
  uint64_t v = rdv(st, di.a);
  store_mem(*st.mgr, *st.td, rdv(st, di.b), &v,
            static_cast<size_t>(di.imm));
  ++st.ip;
}
void h_gep(ExecState& st, const DecodedInstr& di) {
  wrv(st, di,
      rdv(st, di.a) +
          static_cast<uint64_t>(sext(rdv(st, di.b), di.aux) *
                                static_cast<int64_t>(di.imm)));
  ++st.ip;
}
void h_global(ExecState& st, const DecodedInstr& di) {
  wrv(st, di, reinterpret_cast<uint64_t>(di.ptr));
  ++st.ip;
}

void h_call(ExecState& st, const DecodedInstr& di) {
  uint64_t argv[kMaxCallArgs];
  const ValueId* ids = st.df->arg_pool.data() + di.a;
  for (uint32_t i = 0; i < di.b; ++i) argv[i] = rdv(st, ids[i]);
  uint64_t r = st.host->host_call(
      st, *static_cast<const Function*>(di.ptr), argv, di.b);
  if (di.result) wrv(st, di, r);
  ++st.ip;
}
void h_ext_safe(ExecState& st, const DecodedInstr& di) {
  uint64_t r =
      st.host->host_external(st, *static_cast<const Instr*>(di.ptr));
  if (di.result) wrv(st, di, r);
  ++st.ip;
}
void h_ext_unsafe(ExecState& st, const DecodedInstr& di) {
  if (st.fr->speculative_entry) {
    // Terminate point (paper IV-C): stop before the unsafe external call;
    // the joiner resumes at the call and executes it non-speculatively.
    st.stop->stop = Stop::kTerminate;
    st.stop->block = di.block;
    st.stop->instr = di.index;
    st.exit = ExecState::Exit::kStopped;
    st.ret = 0;
    return;
  }
  h_ext_safe(st, di);
}

void h_fork(ExecState& st, const DecodedInstr& di) {
  st.host->host_fork(st, *static_cast<const Instr*>(di.ptr));
  ++st.ip;
}
void h_join(ExecState& st, const DecodedInstr& di) {
  uint32_t rb = 0, ri = 0;
  if (st.host->host_join(st, static_cast<int64_t>(di.imm), &rb, &ri)) {
    // Resume from the committed child's stop position; phis there were
    // already materialized into the register file.
    st.prev_block = di.block;
    st.ip = st.df->flat_ip(rb, ri);
  } else {
    ++st.ip;
  }
}
void h_barrier(ExecState& st, const DecodedInstr& di) {
  if (st.fr->speculative_entry) {
    // Barrier point: stop here; the joiner resumes after it.
    st.stop->stop = Stop::kBarrier;
    st.stop->block = di.block;
    st.stop->instr = di.index + 1;
    st.exit = ExecState::Exit::kStopped;
    st.ret = 0;
    return;
  }
  ++st.ip;
}

void h_phi(ExecState& st, const DecodedInstr& di) {
  const Instr& in = *static_cast<const Instr*>(di.ptr);
  for (size_t pi = 0; pi < in.blocks.size(); ++pi) {
    if (in.blocks[pi] == st.prev_block) {
      wrv(st, di, rdv(st, in.args[pi]));
      ++st.ip;
      return;
    }
  }
  MUTLS_CHECK(false, "phi without an edge for the predecessor");
}

// Check-point stop at a back edge (paper IV-E): commit what we have; the
// joiner resumes at the jump target. Phis of the target are materialized
// into the register file so the resume needs no predecessor context.
void check_stop(ExecState& st, const DecodedInstr& di, uint32_t tip) {
  const Function& f = *st.df->fn;
  uint32_t target = st.code[tip].block;
  const Block& tb = f.blocks[target];
  for (const Instr& pin : tb.instrs) {
    if (pin.op != Op::kPhi) break;
    for (size_t pi = 0; pi < pin.blocks.size(); ++pi) {
      if (pin.blocks[pi] == di.block) {
        uint64_t v = rdv(st, pin.args[pi]);
        st.regs[pin.result] = v;
        if (st.track) st.fr->defined[pin.result] = true;
      }
    }
  }
  st.stop->stop = Stop::kCheck;
  st.stop->block = target;
  st.stop->instr = skip_phis(tb);
  st.exit = ExecState::Exit::kStopped;
  st.ret = 0;
}

inline void take_edge(ExecState& st, const DecodedInstr& di, uint32_t tip,
                      uint32_t meta) {
  if (meta & kEdgeBack) {
    // The region profiler's entire hot-path cost: one relaxed add.
    st.df->regions[(meta & kEdgeRegionMask) - 1]->heat.fetch_add(
        1, std::memory_order_relaxed);
    ++st.td->stats.back_edges;
    if (st.fr->speculative_entry) {
      SyncStatus s = st.td->sync_status.load(std::memory_order_acquire);
      if (s == SyncStatus::kNoSync) {
        throw SpecAbort{"NOSYNC at check point"};
      }
      if (s == SyncStatus::kSync) {
        check_stop(st, di, tip);
        return;
      }
    }
  }
  st.prev_block = di.block;
  st.ip = tip;
}

void h_br(ExecState& st, const DecodedInstr& di) {
  take_edge(st, di, di.t0, static_cast<uint32_t>(di.aux));
}
void h_condbr(ExecState& st, const DecodedInstr& di) {
  if (rdv(st, di.a) & 1) {
    take_edge(st, di, di.t0, static_cast<uint32_t>(di.aux));
  } else {
    take_edge(st, di, di.t1, static_cast<uint32_t>(di.aux >> 32));
  }
}

void h_ret_void(ExecState& st, const DecodedInstr& di) {
  if (st.fr->speculative_entry) {
    // Return point: the speculative thread may not return from its entry
    // function (paper IV-H); stop and let the joiner execute the ret.
    st.stop->stop = Stop::kRet;
    st.stop->block = di.block;
    st.stop->instr = di.index;
    st.exit = ExecState::Exit::kStopped;
    st.ret = 0;
    return;
  }
  st.exit = ExecState::Exit::kReturn;
  st.ret = 0;
}
void h_ret_val(ExecState& st, const DecodedInstr& di) {
  if (st.fr->speculative_entry) {
    st.stop->stop = Stop::kRet;
    st.stop->block = di.block;
    st.stop->instr = di.index;
    st.exit = ExecState::Exit::kStopped;
    st.ret = 0;
    return;
  }
  st.exit = ExecState::Exit::kReturn;
  st.ret = rdv(st, di.a);
}

void h_trap(ExecState& st, const DecodedInstr& di) {
  (void)st;
  (void)di;
  MUTLS_CHECK(false, "block without terminator effect");
}

// --- decoder ------------------------------------------------------------

bool ends_block(Op op) {
  return op == Op::kBr || op == Op::kCondBr || op == Op::kRet;
}

uint32_t edge_meta(const DecodedFunction& df, uint32_t from, uint32_t to) {
  int r = df.region_of(to);
  if (r < 0 || to > from) return 0;
  return (static_cast<uint32_t>(r) + 1) | kEdgeBack;
}

void decode_instr(const ir::Module& m, const Function& f,
                  DecodedFunction& df, const Instr& in, uint32_t block,
                  uint32_t index, DecodedInstr& d,
                  const std::function<void*(const std::string&)>& gaddr) {
  d.block = block;
  d.index = index;
  d.result = in.result;
  if (!in.args.empty()) d.a = in.args[0];
  if (in.args.size() > 1) d.b = in.args[1];
  if (in.args.size() > 2) d.c = in.args[2];
  switch (in.op) {
    case Op::kConst:
      d.handler = h_const;
      d.imm = is_float(in.type)
                  ? (in.type == Type::kF32
                         ? from_f32(static_cast<float>(in.fimm))
                         : from_f64(in.fimm))
                  : (static_cast<uint64_t>(in.imm) & mask_of(in.type));
      break;
    case Op::kAdd:
    case Op::kSub:
    case Op::kMul:
      d.handler = in.op == Op::kAdd ? h_add
                  : in.op == Op::kSub ? h_sub
                                      : h_mul;
      d.imm = mask_of(in.type);
      break;
    case Op::kSDiv:
    case Op::kSRem:
      d.handler = in.op == Op::kSDiv ? h_sdiv : h_srem;
      d.imm = mask_of(in.type);
      d.aux = sext_shift(in.type);
      break;
    case Op::kAnd: d.handler = h_and; break;
    case Op::kOr: d.handler = h_or; break;
    case Op::kXor: d.handler = h_xor; break;
    case Op::kShl:
      d.handler = h_shl;
      d.imm = mask_of(in.type);
      break;
    case Op::kLShr:
      d.handler = h_lshr;
      d.imm = mask_of(in.type);
      break;
    case Op::kAShr:
      d.handler = h_ashr;
      d.imm = mask_of(in.type);
      d.aux = sext_shift(in.type);
      break;
    case Op::kFAdd:
      d.handler = in.type == Type::kF32 ? h_fadd32 : h_fadd64;
      break;
    case Op::kFSub:
      d.handler = in.type == Type::kF32 ? h_fsub32 : h_fsub64;
      break;
    case Op::kFMul:
      d.handler = in.type == Type::kF32 ? h_fmul32 : h_fmul64;
      break;
    case Op::kFDiv:
      d.handler = in.type == Type::kF32 ? h_fdiv32 : h_fdiv64;
      break;
    case Op::kICmp:
      switch (in.pred) {
        case Pred::kEq: d.handler = h_icmp_eq; break;
        case Pred::kNe: d.handler = h_icmp_ne; break;
        case Pred::kSlt: d.handler = h_icmp_slt; break;
        case Pred::kSle: d.handler = h_icmp_sle; break;
        case Pred::kSgt: d.handler = h_icmp_sgt; break;
        case Pred::kSge: d.handler = h_icmp_sge; break;
        default: MUTLS_CHECK(false, "bad icmp predicate");
      }
      d.aux = sext_shift(f.value_types[in.args[0]]);
      break;
    case Op::kFCmp:
      switch (in.pred) {
        case Pred::kOeq: d.handler = h_fcmp_oeq; break;
        case Pred::kOne: d.handler = h_fcmp_one; break;
        case Pred::kOlt: d.handler = h_fcmp_olt; break;
        case Pred::kOle: d.handler = h_fcmp_ole; break;
        case Pred::kOgt: d.handler = h_fcmp_ogt; break;
        case Pred::kOge: d.handler = h_fcmp_oge; break;
        default: MUTLS_CHECK(false, "bad fcmp predicate");
      }
      d.aux = f.value_types[in.args[0]] == Type::kF32 ? 1 : 0;
      break;
    case Op::kSelect: d.handler = h_select; break;
    case Op::kTrunc:
      d.handler = h_mask;
      d.imm = mask_of(in.type);
      break;
    case Op::kZExt:
      d.handler = h_mask;
      d.imm = mask_of(f.value_types[in.args[0]]);
      break;
    case Op::kSExt:
      d.handler = h_sext;
      d.aux = sext_shift(f.value_types[in.args[0]]);
      d.imm = mask_of(in.type);
      break;
    case Op::kSIToFP:
      d.handler = in.type == Type::kF32 ? h_sitofp32 : h_sitofp64;
      d.aux = sext_shift(f.value_types[in.args[0]]);
      break;
    case Op::kFPToSI:
      d.handler = h_fptosi;
      d.aux = f.value_types[in.args[0]] == Type::kF32 ? 1 : 0;
      d.imm = mask_of(in.type);
      break;
    case Op::kPtrToInt:
    case Op::kIntToPtr:
    case Op::kBitcast:
      d.handler = h_copy;
      break;
    case Op::kAlloca:
      d.handler = h_alloca;
      d.imm = static_cast<uint64_t>(in.imm);
      break;
    case Op::kLoad:
      d.handler = h_load;
      d.imm = type_size(in.type);
      d.aux = mask_of(in.type);
      break;
    case Op::kStore:
      d.handler = h_store;
      d.imm = type_size(f.value_types[in.args[0]]);
      break;
    case Op::kGep:
      d.handler = h_gep;
      d.imm = static_cast<uint64_t>(in.imm);
      d.aux = sext_shift(f.value_types[in.args[1]]);
      break;
    case Op::kGlobal:
      d.handler = h_global;
      d.ptr = gaddr(in.sym);
      break;
    case Op::kCall: {
      const Function* callee = m.find_function(in.sym);
      if (callee) {
        MUTLS_CHECK(in.args.size() <= kMaxCallArgs,
                    "call with too many arguments");
        d.handler = h_call;
        d.ptr = callee;
        d.a = static_cast<uint32_t>(df.arg_pool.size());
        d.b = static_cast<uint32_t>(in.args.size());
        for (ValueId v : in.args) df.arg_pool.push_back(v);
      } else {
        // Known-safe externals run anywhere; everything else is a
        // terminate point in a speculative entry frame (paper IV-C).
        d.handler = in.sym == "abs_i64" ? h_ext_safe : h_ext_unsafe;
        d.ptr = &in;
      }
      break;
    }
    case Op::kMutlsFork:
      d.handler = h_fork;
      d.ptr = &in;
      break;
    case Op::kMutlsJoin:
      d.handler = h_join;
      d.imm = static_cast<uint64_t>(in.imm);
      break;
    case Op::kMutlsBarrier: d.handler = h_barrier; break;
    case Op::kPhi:
      d.handler = h_phi;
      d.ptr = &in;
      break;
    case Op::kBr:
      d.handler = h_br;
      d.t0 = df.flat_ip(in.blocks[0], 0);
      d.aux = edge_meta(df, block, in.blocks[0]);
      break;
    case Op::kCondBr:
      d.handler = h_condbr;
      d.t0 = df.flat_ip(in.blocks[0], 0);
      d.t1 = df.flat_ip(in.blocks[1], 0);
      d.aux = edge_meta(df, block, in.blocks[0]) |
              (static_cast<uint64_t>(edge_meta(df, block, in.blocks[1]))
               << 32);
      break;
    case Op::kRet:
      d.handler = in.args.empty() ? h_ret_void : h_ret_val;
      break;
  }
  MUTLS_CHECK(d.handler != nullptr, "undecodable instruction");
}

void decode_function(const ir::Module& m, const Function& f,
                     DecodedFunction& df,
                     const std::function<void*(const std::string&)>& gaddr) {
  df.fn = &f;

  // Flat layout: blocks concatenated in order; a block whose last
  // instruction is not a terminator (or that is empty) gets a trailing
  // trap slot so execution cannot silently fall into the next block —
  // the oracle's "block without terminator effect" check, paid at decode
  // layout time instead of per iteration.
  df.block_start.resize(f.blocks.size());
  uint32_t cur = 0;
  for (uint32_t b = 0; b < f.blocks.size(); ++b) {
    df.block_start[b] = cur;
    const Block& blk = f.blocks[b];
    cur += static_cast<uint32_t>(blk.instrs.size());
    if (blk.instrs.empty() || !ends_block(blk.instrs.back().op)) ++cur;
  }
  df.code.resize(cur);

  // Region table: one entry per loop header (back-edge target under the
  // block-ordering discipline shared with the oracle's check points).
  for (uint32_t h : loop_headers(f)) {
    auto r = std::make_unique<RegionInfo>();
    r->header_block = h;
    r->label = f.blocks[h].label;
    df.regions.push_back(std::move(r));
  }

  // Fork-point table: join positions and live-in validation sets, one
  // liveness pass per function at load (paper IV-G4). Fork points without
  // a matching join stay absent and fail at execution time, exactly like
  // the oracle's lazy lookup did.
  bool has_forks = false;
  for (const Block& blk : f.blocks) {
    for (const Instr& in : blk.instrs) {
      if (in.op == Op::kMutlsFork) has_forks = true;
    }
  }
  if (has_forks) {
    std::vector<std::vector<bool>> live = compute_live_in(f);
    for (const Block& blk : f.blocks) {
      for (const Instr& in : blk.instrs) {
        if (in.op != Op::kMutlsFork) continue;
        if (df.fork_points.count(in.imm)) continue;
        for (uint32_t b = 0; b < f.blocks.size(); ++b) {
          const Block& jb = f.blocks[b];
          for (uint32_t i = 0; i < jb.instrs.size(); ++i) {
            if (jb.instrs[i].op == Op::kMutlsJoin &&
                jb.instrs[i].imm == in.imm) {
              ForkPointInfo info;
              info.join_block = b;
              info.join_instr = i + 1;
              std::vector<bool> li = live_at(f, live, b, i + 1);
              for (ValueId v = 1; v < f.value_count; ++v) {
                if (li[v]) info.validate_ids.push_back(v);
              }
              df.fork_points.emplace(in.imm, std::move(info));
              goto next_fork;
            }
          }
        }
      next_fork:;
      }
    }
  }

  // Instruction decode (after block_start and regions exist: branch
  // targets and edge metadata are resolved inline).
  for (uint32_t b = 0; b < f.blocks.size(); ++b) {
    const Block& blk = f.blocks[b];
    uint32_t base = df.block_start[b];
    for (uint32_t i = 0; i < blk.instrs.size(); ++i) {
      decode_instr(m, f, df, blk.instrs[i], b, i, df.code[base + i], gaddr);
    }
    if (blk.instrs.empty() || !ends_block(blk.instrs.back().op)) {
      DecodedInstr& t = df.code[base + blk.instrs.size()];
      t.handler = h_trap;
      t.block = b;
      t.index = static_cast<uint32_t>(blk.instrs.size());
    }
  }
}

}  // namespace

DecodedModule::DecodedModule(
    const ir::Module& m,
    const std::function<void*(const std::string&)>& global_addr) {
  for (const Function& f : m.functions) {
    auto df = std::make_unique<DecodedFunction>();
    decode_function(m, f, *df, global_addr);
    fns_.emplace(&f, std::move(df));
  }
}

void DecodedModule::reset_heat() {
  for (auto& [f, df] : fns_) {
    (void)f;
    for (auto& r : df->regions) r->heat.store(0, std::memory_order_relaxed);
  }
}

uint64_t run(ExecState& st) {
  while (st.exit == ExecState::Exit::kRunning) {
    const DecodedInstr& di = st.code[st.ip];
    di.handler(st, di);
  }
  return st.ret;
}

}  // namespace mutls::exec
