#include "interp/interp.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "exec/mem_ops.h"
#include "runtime/spec_abort.h"

namespace mutls::interp {

using namespace ir;

namespace {

double as_f64(uint64_t raw) { return std::bit_cast<double>(raw); }
uint64_t from_f64(double d) { return std::bit_cast<uint64_t>(d); }
float as_f32(uint64_t raw) {
  return std::bit_cast<float>(static_cast<uint32_t>(raw));
}
uint64_t from_f32(float f) {
  return static_cast<uint64_t>(std::bit_cast<uint32_t>(f));
}

int64_t sext_of(uint64_t v, Type t) {
  switch (t) {
    case Type::kI1: return (v & 1) ? -1 : 0;
    case Type::kI8: return static_cast<int8_t>(v);
    case Type::kI16: return static_cast<int16_t>(v);
    case Type::kI32: return static_cast<int32_t>(v);
    default: return static_cast<int64_t>(v);
  }
}

uint64_t trunc_to(uint64_t v, Type t) {
  switch (t) {
    case Type::kI1: return v & 1;
    case Type::kI8: return v & 0xff;
    case Type::kI16: return v & 0xffff;
    case Type::kI32: return v & 0xffffffffull;
    default: return v;
  }
}

uint32_t skip_phis(const Block& b) {
  uint32_t i = 0;
  while (i < b.instrs.size() && b.instrs[i].op == Op::kPhi) ++i;
  return i;
}

}  // namespace

Interpreter::Interpreter(Module module, const ManagerConfig& config,
                         exec::DispatchMode mode)
    : module_(std::move(module)), mgr_(config), dispatch_mode_(mode) {
  for (const Global& g : module_.globals) {
    size_t bytes = type_size(g.elem_type) * g.count;
    bytes = (bytes + 7) & ~size_t{7};
    auto mem = std::make_unique<char[]>(bytes);
    std::memset(mem.get(), 0, bytes);
    for (size_t i = 0; i < g.init.size() && i < g.count; ++i) {
      int64_t v = g.init[i];
      std::memcpy(mem.get() + i * type_size(g.elem_type), &v,
                  type_size(g.elem_type));
    }
    mgr_.register_space(mem.get(), bytes);
    globals_.emplace(g.name, std::move(mem));
  }
  // Predecode after globals exist: kGlobal instructions resolve to host
  // addresses, fork points get their join position + validation set, loop
  // regions are discovered. One pass, shared by all threads and tiers.
  decoded_ = std::make_unique<exec::DecodedModule>(
      module_, [this](const std::string& name) { return global_addr(name); });
}

Interpreter::~Interpreter() = default;

void* Interpreter::global_addr(const std::string& name) {
  auto it = globals_.find(name);
  MUTLS_CHECK(it != globals_.end(), "unknown global");
  return it->second.get();
}

uint64_t Interpreter::external_call(ThreadData& td, const Instr& in,
                                    Frame& fr) {
  // Known-safe externals (paper IV-C: "other than for known, safe external
  // calls such as abs, log, etc").
  if (in.sym == "abs_i64") {
    int64_t v = static_cast<int64_t>(fr.regs[in.args[0]]);
    return static_cast<uint64_t>(v < 0 ? -v : v);
  }
  if (in.sym == "print_i64") {
    std::lock_guard lock(print_mu_);
    printed.push_back(static_cast<int64_t>(fr.regs[in.args[0]]));
    return 0;
  }
  MUTLS_CHECK(!td.is_speculative(),
              "unsafe external call executed speculatively");
  (void)td;
  MUTLS_CHECK(false, "unknown external function");
  return 0;
}

void Interpreter::do_fork(ThreadData& td, Frame& fr, const Instr& in) {
  int64_t point = in.imm;
  ForkModel model = static_cast<ForkModel>(in.pred);
  if (fr.forks.count(point) && fr.forks[point].active) {
    // At most one speculation per fork/join point id (paper IV-D).
    return;
  }
  const Function* fn = fr.fn;
  // Join position + validation set were computed once at decode
  // (exec/dispatch.h); a fork without a matching join still fails here,
  // at execution time.
  const exec::DecodedFunction& df = decoded_->decoded(*fn);
  auto fp = df.fork_points.find(point);
  MUTLS_CHECK(fp != df.fork_points.end(),
              "fork point without a matching join point");
  uint32_t jb = fp->second.join_block;
  uint32_t ji = fp->second.join_instr;
  std::vector<uint64_t> snapshot = fr.regs;

  Interpreter* self = this;
  int rank = mgr_.speculate(
      td, model,
      [self, fn, jb, ji, snapshot](ThreadData& child) {
        Frame cf;
        cf.fn = fn;
        cf.regs = snapshot;
        cf.defined.assign(fn->value_count, false);
        cf.used_snapshot.assign(fn->value_count, false);
        cf.speculative_entry = true;
        auto stop = std::make_shared<StopState>();
        stop->mgr = &self->mgr_;
        try {
          self->exec_any(child, cf, jb, ji, stop.get());
        } catch (...) {
          // Doomed: release the frame state, then rethrow for the worker.
          stop->allocas = std::move(cf.allocas);
          child.user_state.reset();
          throw;
        }
        stop->regs = std::move(cf.regs);
        stop->used_snapshot = std::move(cf.used_snapshot);
        stop->forks = std::move(cf.forks);
        // The entry frame's allocas are the continuation's live stack
        // memory: ownership moves to the joiner on commit.
        stop->allocas = std::move(cf.allocas);
        child.user_state = stop;
      });
  if (rank != 0) {
    ForkRec rec;
    rec.ref = td.children.back();
    rec.snapshot = std::move(snapshot);
    rec.validate_ids = &fp->second.validate_ids;
    rec.active = true;
    fr.forks[point] = std::move(rec);
  }
}

bool Interpreter::do_join(ThreadData& td, Frame& fr, int64_t point,
                          uint32_t* rblock, uint32_t* rinstr) {
  auto it = fr.forks.find(point);
  if (it == fr.forks.end() || !it->second.active) return false;
  ForkRec rec = std::move(it->second);
  fr.forks.erase(it);

  // MUTLS_validate_local (paper IV-G4): every value live into the
  // continuation was predicted with its fork-time snapshot; the joiner's
  // value at the join point must match, else the child consumed a stale
  // prediction and is forced to roll back.
  bool force_rollback = false;
  for (ValueId v : *rec.validate_ids) {
    if (fr.regs[v] != rec.snapshot[v]) {
      force_rollback = true;
      break;
    }
  }

  std::shared_ptr<void> state;
  auto jr = mgr_.synchronize(td, rec.ref, force_rollback, nullptr,
                             [&state](ThreadData& child) {
                               state = child.user_state;
                               child.user_state.reset();
                             });
  if (jr != ThreadManager::JoinResult::kCommit) {
    return false;  // fall through: re-execute the region inline
  }
  auto* stop = static_cast<StopState*>(state.get());
  MUTLS_CHECK(stop != nullptr, "committed child without a stop state");
  // Resume from the child's stop position with its registers (the paper's
  // synchronization table + restore blocks). Element-wise copy: the
  // register file's storage must stay put — the direct-threaded dispatcher
  // holds a raw pointer to it across this call.
  MUTLS_CHECK(stop->regs.size() == fr.regs.size(),
              "stop state register file size mismatch");
  std::copy(stop->regs.begin(), stop->regs.end(), fr.regs.begin());
  for (auto& [p, childrec] : stop->forks) {
    fr.forks[p] = childrec;  // adopted children stay joinable
  }
  // Adopt the continuation's stack memory.
  for (auto& a : stop->allocas) fr.allocas.push_back(a);
  stop->allocas.clear();
  *rblock = stop->block;
  *rinstr = stop->instr;
  return true;
}

// --- exec::ExecHost (direct-threaded tier) ------------------------------

void Interpreter::host_fork(exec::ExecState& st, const Instr& in) {
  do_fork(*st.td, *st.fr, in);
}

bool Interpreter::host_join(exec::ExecState& st, int64_t point,
                            uint32_t* rblock, uint32_t* rinstr) {
  return do_join(*st.td, *st.fr, point, rblock, rinstr);
}

uint64_t Interpreter::host_call(exec::ExecState& st, const Function& callee,
                                const uint64_t* args, size_t n) {
  return call_function(*st.td, callee,
                       std::vector<uint64_t>(args, args + n));
}

uint64_t Interpreter::host_external(exec::ExecState& st, const Instr& in) {
  return external_call(*st.td, in, *st.fr);
}

uint64_t Interpreter::exec_any(ThreadData& td, Frame& fr, uint32_t block,
                               uint32_t instr, StopState* stop) {
  if (dispatch_mode_ == exec::DispatchMode::kSwitch) {
    return exec_switch(td, fr, block, instr, stop);
  }
  const exec::DecodedFunction& df = decoded_->decoded(*fr.fn);
  exec::ExecState st;
  st.df = &df;
  st.code = df.code.data();
  st.regs = fr.regs.data();
  st.fr = &fr;
  st.td = &td;
  st.mgr = &mgr_;
  st.host = this;
  st.stop = stop;
  st.ip = df.flat_ip(block, instr);
  st.prev_block = block;
  st.track = fr.speculative_entry;
  return exec::run(st);
}

uint64_t Interpreter::exec_switch(ThreadData& td, Frame& fr, uint32_t block,
                                  uint32_t instr, StopState* stop) {
  const Function& f = *fr.fn;
  const exec::DecodedFunction& df = decoded_->decoded(f);  // region table
  uint32_t prev_block = block;  // for phi resolution

  auto rd = [&](ValueId v) -> uint64_t {
    if (fr.speculative_entry && !fr.defined[v]) fr.used_snapshot[v] = true;
    return fr.regs[v];
  };
  auto wr = [&](const Instr& in, uint64_t v) {
    if (in.result != kNoValue) {
      fr.regs[in.result] = v;
      if (fr.speculative_entry) fr.defined[in.result] = true;
    }
  };

  while (true) {
    MUTLS_CHECK(block < f.blocks.size(), "control flow out of range");
    const Block& b = f.blocks[block];
    if (instr >= b.instrs.size()) {
      MUTLS_CHECK(false, "fell off the end of a block");
    }
    for (uint32_t i = instr; i < b.instrs.size(); ++i) {
      const Instr& in = b.instrs[i];
      switch (in.op) {
        case Op::kConst:
          wr(in, is_float(in.type)
                     ? (in.type == Type::kF32
                            ? from_f32(static_cast<float>(in.fimm))
                            : from_f64(in.fimm))
                     : trunc_to(static_cast<uint64_t>(in.imm), in.type));
          break;
        case Op::kAdd: wr(in, trunc_to(rd(in.args[0]) + rd(in.args[1]), in.type)); break;
        case Op::kSub: wr(in, trunc_to(rd(in.args[0]) - rd(in.args[1]), in.type)); break;
        case Op::kMul: wr(in, trunc_to(rd(in.args[0]) * rd(in.args[1]), in.type)); break;
        case Op::kSDiv: {
          int64_t d = sext_of(rd(in.args[1]), in.type);
          MUTLS_CHECK(d != 0, "division by zero");
          wr(in, trunc_to(static_cast<uint64_t>(
                              sext_of(rd(in.args[0]), in.type) / d),
                          in.type));
          break;
        }
        case Op::kSRem: {
          int64_t d = sext_of(rd(in.args[1]), in.type);
          MUTLS_CHECK(d != 0, "remainder by zero");
          wr(in, trunc_to(static_cast<uint64_t>(
                              sext_of(rd(in.args[0]), in.type) % d),
                          in.type));
          break;
        }
        case Op::kAnd: wr(in, rd(in.args[0]) & rd(in.args[1])); break;
        case Op::kOr: wr(in, rd(in.args[0]) | rd(in.args[1])); break;
        case Op::kXor: wr(in, rd(in.args[0]) ^ rd(in.args[1])); break;
        case Op::kShl: wr(in, trunc_to(rd(in.args[0]) << (rd(in.args[1]) & 63), in.type)); break;
        case Op::kLShr: wr(in, trunc_to(rd(in.args[0]), in.type) >> (rd(in.args[1]) & 63)); break;
        case Op::kAShr:
          wr(in, trunc_to(static_cast<uint64_t>(
                              sext_of(rd(in.args[0]), in.type) >>
                              (rd(in.args[1]) & 63)),
                          in.type));
          break;
        case Op::kFAdd:
          wr(in, in.type == Type::kF32
                     ? from_f32(as_f32(rd(in.args[0])) + as_f32(rd(in.args[1])))
                     : from_f64(as_f64(rd(in.args[0])) + as_f64(rd(in.args[1]))));
          break;
        case Op::kFSub:
          wr(in, in.type == Type::kF32
                     ? from_f32(as_f32(rd(in.args[0])) - as_f32(rd(in.args[1])))
                     : from_f64(as_f64(rd(in.args[0])) - as_f64(rd(in.args[1]))));
          break;
        case Op::kFMul:
          wr(in, in.type == Type::kF32
                     ? from_f32(as_f32(rd(in.args[0])) * as_f32(rd(in.args[1])))
                     : from_f64(as_f64(rd(in.args[0])) * as_f64(rd(in.args[1]))));
          break;
        case Op::kFDiv:
          wr(in, in.type == Type::kF32
                     ? from_f32(as_f32(rd(in.args[0])) / as_f32(rd(in.args[1])))
                     : from_f64(as_f64(rd(in.args[0])) / as_f64(rd(in.args[1]))));
          break;
        case Op::kICmp: {
          Type ot = f.value_types[in.args[0]];
          int64_t a = sext_of(rd(in.args[0]), ot);
          int64_t bb = sext_of(rd(in.args[1]), ot);
          uint64_t ua = rd(in.args[0]), ub = rd(in.args[1]);
          bool r = false;
          switch (in.pred) {
            case Pred::kEq: r = ua == ub; break;
            case Pred::kNe: r = ua != ub; break;
            case Pred::kSlt: r = a < bb; break;
            case Pred::kSle: r = a <= bb; break;
            case Pred::kSgt: r = a > bb; break;
            case Pred::kSge: r = a >= bb; break;
            default: MUTLS_CHECK(false, "bad icmp predicate");
          }
          wr(in, r ? 1 : 0);
          break;
        }
        case Op::kFCmp: {
          double a = as_f64(rd(in.args[0])), bb = as_f64(rd(in.args[1]));
          if (f.value_types[in.args[0]] == Type::kF32) {
            a = as_f32(rd(in.args[0]));
            bb = as_f32(rd(in.args[1]));
          }
          bool r = false;
          switch (in.pred) {
            case Pred::kOeq: r = a == bb; break;
            case Pred::kOne: r = a != bb; break;
            case Pred::kOlt: r = a < bb; break;
            case Pred::kOle: r = a <= bb; break;
            case Pred::kOgt: r = a > bb; break;
            case Pred::kOge: r = a >= bb; break;
            default: MUTLS_CHECK(false, "bad fcmp predicate");
          }
          wr(in, r ? 1 : 0);
          break;
        }
        case Op::kSelect:
          wr(in, rd(in.args[0]) & 1 ? rd(in.args[1]) : rd(in.args[2]));
          break;
        case Op::kTrunc: wr(in, trunc_to(rd(in.args[0]), in.type)); break;
        case Op::kZExt: wr(in, trunc_to(rd(in.args[0]), f.value_types[in.args[0]])); break;
        case Op::kSExt:
          wr(in, trunc_to(static_cast<uint64_t>(
                              sext_of(rd(in.args[0]),
                                      f.value_types[in.args[0]])),
                          in.type));
          break;
        case Op::kSIToFP: {
          int64_t v = sext_of(rd(in.args[0]), f.value_types[in.args[0]]);
          wr(in, in.type == Type::kF32
                     ? from_f32(static_cast<float>(v))
                     : from_f64(static_cast<double>(v)));
          break;
        }
        case Op::kFPToSI: {
          double v = f.value_types[in.args[0]] == Type::kF32
                         ? as_f32(rd(in.args[0]))
                         : as_f64(rd(in.args[0]));
          wr(in, trunc_to(static_cast<uint64_t>(static_cast<int64_t>(v)),
                          in.type));
          break;
        }
        case Op::kPtrToInt:
        case Op::kIntToPtr:
        case Op::kBitcast:
          wr(in, rd(in.args[0]));
          break;
        case Op::kAlloca: {
          size_t n = static_cast<size_t>(in.imm);
          char* mem = new char[n]();
          mgr_.register_space(mem, n);
          fr.allocas.emplace_back(mem, n);
          wr(in, reinterpret_cast<uint64_t>(mem));
          break;
        }
        case Op::kLoad: {
          uint64_t out = 0;
          exec::load_mem(mgr_, td, rd(in.args[0]), &out,
                         type_size(in.type));
          wr(in, trunc_to(out, in.type));
          break;
        }
        case Op::kStore: {
          uint64_t v = rd(in.args[0]);
          exec::store_mem(mgr_, td, rd(in.args[1]), &v,
                          type_size(f.value_types[in.args[0]]));
          break;
        }
        case Op::kGep:
          wr(in, rd(in.args[0]) +
                     static_cast<uint64_t>(
                         sext_of(rd(in.args[1]),
                                 f.value_types[in.args[1]]) *
                         in.imm));
          break;
        case Op::kGlobal:
          wr(in, reinterpret_cast<uint64_t>(global_addr(in.sym)));
          break;
        case Op::kCall: {
          const Function* callee = module_.find_function(in.sym);
          if (!callee) {
            // Terminate point (paper IV-C): a speculative thread stops
            // before an unsafe external call; the joiner resumes at the
            // call and executes it non-speculatively. Known-safe externals
            // run anywhere.
            if (fr.speculative_entry && in.sym != "abs_i64") {
              stop->stop = Stop::kTerminate;
              stop->block = block;
              stop->instr = i;
              return 0;
            }
            wr(in, external_call(td, in, fr));
            break;
          }
          std::vector<uint64_t> args;
          args.reserve(in.args.size());
          for (ValueId a : in.args) args.push_back(rd(a));
          wr(in, call_function(td, *callee, std::move(args)));
          break;
        }
        case Op::kMutlsFork:
          do_fork(td, fr, in);
          break;
        case Op::kMutlsJoin: {
          uint32_t rb = 0, ri = 0;
          if (do_join(td, fr, in.imm, &rb, &ri)) {
            prev_block = block;
            block = rb;
            instr = ri;
            goto resumed;
          }
          break;
        }
        case Op::kMutlsBarrier:
          if (fr.speculative_entry) {
            // Barrier point: stop here; the joiner resumes after it.
            stop->stop = Stop::kBarrier;
            stop->block = block;
            stop->instr = i + 1;
            return 0;
          }
          break;
        case Op::kPhi: {
          // Resolve against the edge we arrived on.
          bool found = false;
          for (size_t pi = 0; pi < in.blocks.size(); ++pi) {
            if (in.blocks[pi] == prev_block) {
              wr(in, rd(in.args[pi]));
              found = true;
              break;
            }
          }
          MUTLS_CHECK(found, "phi without an edge for the predecessor");
          break;
        }
        case Op::kBr:
        case Op::kCondBr: {
          uint32_t target =
              in.op == Op::kBr
                  ? in.blocks[0]
                  : ((rd(in.args[0]) & 1) ? in.blocks[0] : in.blocks[1]);
          if (target <= block) {
            // Back edge: credit the region profiler like the threaded
            // tier does, then poll the check point (paper IV-E) when
            // speculative.
            int r = df.region_of(target);
            if (r >= 0) {
              df.regions[static_cast<size_t>(r)]->heat.fetch_add(
                  1, std::memory_order_relaxed);
            }
            ++td.stats.back_edges;
            if (fr.speculative_entry) {
              SyncStatus s = td.sync_status.load(std::memory_order_acquire);
              if (s == SyncStatus::kNoSync) {
                throw SpecAbort{"NOSYNC at check point"};
              }
              if (s == SyncStatus::kSync) {
                // Stop mid-task: commit what we have; the joiner resumes
                // at the jump target.
                stop->stop = Stop::kCheck;
                stop->block = target;
                stop->instr = 0;
                // Phis in the target need prev_block context: save it by
                // pre-resolving them into the register file.
                const Block& tb = f.blocks[target];
                for (const Instr& pin : tb.instrs) {
                  if (pin.op != Op::kPhi) break;
                  for (size_t pi = 0; pi < pin.blocks.size(); ++pi) {
                    if (pin.blocks[pi] == block) {
                      fr.regs[pin.result] = rd(pin.args[pi]);
                      if (fr.speculative_entry) fr.defined[pin.result] = true;
                    }
                  }
                }
                stop->instr = skip_phis(tb);
                return 0;
              }
            }
          }
          prev_block = block;
          block = target;
          instr = 0;
          goto next_block;
        }
        case Op::kRet:
          if (fr.speculative_entry) {
            // Return point: the speculative thread may not return from its
            // entry function (paper IV-H); stop and let the joiner execute
            // the ret.
            stop->stop = Stop::kRet;
            stop->block = block;
            stop->instr = i;
            return 0;
          }
          return in.args.empty() ? 0 : rd(in.args[0]);
      }
    }
    MUTLS_CHECK(false, "block without terminator effect");
  next_block:
    continue;
  resumed:
    // After resuming from a child's stop position, phis at the resume
    // point were already materialized into the register file.
    continue;
  }
}

uint64_t Interpreter::call_function(ThreadData& td, const Function& f,
                                    std::vector<uint64_t> args) {
  MUTLS_CHECK(args.size() == f.params.size(), "argument count mismatch");
  Frame fr;
  fr.fn = &f;
  fr.regs.assign(f.value_count, 0);
  for (size_t i = 0; i < args.size(); ++i) fr.regs[i + 1] = args[i];
  fr.speculative_entry = false;
  StopState dummy;
  uint64_t ret = exec_any(td, fr, 0, 0, &dummy);
  for (auto& [addr, size] : fr.allocas) {
    mgr_.unregister_space(addr, size);
    delete[] addr;
  }
  // Structured usage joins everything; stragglers would leak CPUs.
  for (auto& [point, rec] : fr.forks) {
    if (rec.active) {
      mgr_.synchronize(td, rec.ref);
    }
  }
  return ret;
}

uint64_t Interpreter::call(const std::string& name,
                           std::vector<uint64_t> args) {
  const Function* f = module_.find_function(name);
  MUTLS_CHECK(f != nullptr, "unknown function");
  mgr_.begin_run();
  uint64_t r = call_function(mgr_.root(), *f, std::move(args));
  MUTLS_CHECK(mgr_.live_threads() == 0,
              "speculative threads outlived the call");
  mgr_.end_run();
  return r;
}

}  // namespace mutls::interp
