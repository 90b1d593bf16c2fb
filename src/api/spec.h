// Speculation control of the native MUTLS embedding (API v2, layer 2 of 4):
// one fork entry point, explicit and RAII join handles, and the Runtime.
//
// This is the call sequence the paper's speculator pass emits, packaged as
// a direct API so C++ programs can speculate without going through the IR
// path: fork() is MUTLS_get_CPU + save-live-locals + MUTLS_speculate,
// join() is MUTLS_validate_local + MUTLS_synchronize (re-executing the
// speculated region inline on rollback, exactly what the non-speculative
// thread does after a failed speculation). The end of a speculated region
// is its barrier point.
//
// Usage sketch (tree-form divide and conquer):
//
//   mutls::Runtime rt({.num_cpus = 8});
//   rt.run([&](mutls::Ctx& ctx) { solve(rt, ctx, root_problem); });
//
//   void solve(Runtime& rt, Ctx& ctx, Problem p) {
//     if (p.small()) { leaf(ctx, p); return; }
//     auto [a, b] = p.split();
//     {
//       auto s = rt.fork_scoped(ctx, {.model = ForkModel::kMixed},
//                               [&, b](Ctx& c) { solve(rt, c, b); });
//       solve(rt, ctx, a);
//     }  // s joins here: commit, or re-execute b inline on rollback
//     p.combine(ctx);
//   }
//
// Every fork shape goes through the single `Runtime::fork(ctx, ForkOpts,
// body)`: plain speculation, live-in prediction (`.predictions`), and the
// detached loop-piece form (`.tag`/`.detached`) that v1 exposed as three
// separate entry points (fork / fork_predicted / fork_tagged).
//
// Fork only where speculation pays. `Runtime::fork` is MUTLS_speculate:
// it always asks for a CPU. The structured form `fork_scoped` (and the
// loop driver spec_for, "api/parallel.h") first asks its site's ForkGate
// (below) whether the site's speculations have been paying; a site whose
// forks cost the joiner more than running the region inline declines,
// and probes again at exponentially spaced calls. A declined fork is a
// denied one to everything downstream: the handle defers the region to
// its join, and `ThreadStats::fork_denied` counts it. A region deferred to
// its join runs on the joining thread through `invoke_on`, so a generic
// body (`[&](auto& c)`) runs its native version there when that thread is
// the non-speculative one. ManagerConfig::adaptive_forks = false makes
// every structured fork ask for a CPU again.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <exception>
#include <thread>
#include <utility>

#include "api/ctx.h"
#include "api/scalar_access.h"
#include "runtime/thread_manager.h"
#include "support/check.h"
#include "support/inline_task.h"
#include "support/small_vec.h"
#include "support/timing.h"

namespace mutls {

// Live-in prediction (paper IV-G4): `parent_addr` names the parent-side
// variable; `predicted` is the value the child was given. At the join
// point the parent validates that its variable indeed holds the predicted
// value, otherwise the child is forced to roll back.
struct Prediction {
  const void* parent_addr;
  uint64_t predicted;
  size_t size;

  template <typename T>
  static Prediction of(const T* addr, T value) {
    static_assert(sizeof(T) <= 8 && std::is_trivially_copyable_v<T>);
    uint64_t raw = 0;
    std::memcpy(&raw, &value, sizeof(T));
    return Prediction{addr, raw, sizeof(T)};
  }
};

// Predictions ride through ForkOpts by value and are retained by the Spec
// until its join validates them; four inline slots cover every realistic
// live-in list without touching the heap.
using PredictionList = SmallVec<Prediction, 4>;

// The one fork entry point's options. Defaults give a plain mixed-model
// speculation; the fields subsume the v1 fork_predicted / fork_tagged
// variants.
struct ForkOpts {
  ForkModel model = ForkModel::kMixed;

  // Live-in value predictions: `predictions[i]` is stored into the child's
  // RegisterBuffer slot i (readable via Ctx::get_livein<T>(i)) and
  // validated against the parent's variable at the join point. Incompatible
  // with `detached` (validation happens in join(), which detached forks
  // never pass through) — fork() CHECKs the combination.
  PredictionList predictions{};

  // Opaque payload the eventual joiner receives through join_next(); used
  // by spec_for to name the piece a join returned.
  uint64_t tag = 0;

  // Detached fork (spec_for's pieces): the forker does NOT join this
  // child; the child is left on the children stack to be *adopted* by
  // whoever joins the forker (paper IV-F: a joined child's children are
  // preserved) — or by the forker itself through join_next(). The returned
  // Spec carries no join obligation; only speculated() is meaningful on it.
  bool detached = false;
};

namespace detail {

// Whether one structured fork site's speculations pay. A site is a
// `fork_scoped` body type or a `spec_for` instantiation, and each keeps one
// gate (spec_for's sits in its LoopSite record, beside the cuts). The gate
// lives for the process, as spec_for's cuts do: a program that builds a
// fresh Runtime per run still starts from what its earlier runs learned.
// The e2e driver does exactly that, and its warm-up runs train the gate.
// Relaxed atomics: calls of one site from several threads may interleave
// their updates, which costs the policy accuracy, never correctness.
//
// Every call that forked and was granted a CPU gives one verdict, won or
// lost (the rules are fork_scoped's and spec_for's); a denied fork gives
// none. The score counts wins minus losses, saturating at ±kScoreLimit, and
// at -kScoreLimit the site closes. A closed site declines every call but
// one probe, which forks after kFirstGap declined calls, then after twice
// as many, up to kMaxGap; the probe's single verdict reopens the site or
// doubles the gap. A gate trained under another num_cpus restarts open.
class ForkGate {
 public:
  static constexpr int kScoreLimit = 4;
  static constexpr int kFirstGap = 2;
  static constexpr int kMaxGap = 1024;

  enum class Decision {
    kFork,     // the site is open: fork, and judge the call
    kProbe,    // the site is closed, and this call probes it
    kDecline,  // the site is closed: do not fork
    kUngated,  // adaptive forks are off: fork, and judge nothing
  };

  // Decides one call of the site. `adaptive` is the runtime's
  // ManagerConfig::adaptive_forks; without it every call forks and the
  // gate is left as it was.
  Decision admit(int num_cpus, bool adaptive) {
    if (!adaptive) return Decision::kUngated;
    if (cpus_.load(std::memory_order_relaxed) != num_cpus) {
      score_.store(0, std::memory_order_relaxed);
      gap_.store(0, std::memory_order_relaxed);
      probing_.store(false, std::memory_order_relaxed);
      cpus_.store(num_cpus, std::memory_order_relaxed);
    }
    const int gap = gap_.load(std::memory_order_relaxed);
    if (gap == 0) return Decision::kFork;
    // One probe at a time: calls made while it runs, its own nested calls
    // among them, decline without counting toward the next one.
    if (probing_.load(std::memory_order_relaxed)) return Decision::kDecline;
    if (declined_.fetch_add(1, std::memory_order_relaxed) < gap) {
      return Decision::kDecline;
    }
    declined_.store(0, std::memory_order_relaxed);
    probing_.store(true, std::memory_order_relaxed);
    return Decision::kProbe;
  }

  // The verdict of a call admitted as `d` that was granted a CPU.
  void verdict(Decision d, bool won) {
    if (d == Decision::kUngated) return;
    if (d == Decision::kProbe) {
      if (won) {
        score_.store(0, std::memory_order_relaxed);
        gap_.store(0, std::memory_order_relaxed);
      } else {
        gap_.store(std::min(2 * gap_.load(std::memory_order_relaxed), kMaxGap),
                   std::memory_order_relaxed);
      }
      probing_.store(false, std::memory_order_relaxed);
      return;
    }
    // A fork admitted while the site was open, judged after it closed.
    if (gap_.load(std::memory_order_relaxed) != 0) return;
    int s = score_.load(std::memory_order_relaxed);
    s = won ? std::min(s + 1, kScoreLimit) : std::max(s - 1, -kScoreLimit);
    if (s == -kScoreLimit) {
      s = 0;
      declined_.store(0, std::memory_order_relaxed);
      gap_.store(kFirstGap, std::memory_order_relaxed);
    }
    score_.store(s, std::memory_order_relaxed);
  }

  // A call admitted as `d` that gives no verdict: no CPU was granted, or
  // the region was abandoned. A probe's turn passes to the next call.
  void no_verdict(Decision d) {
    if (d != Decision::kProbe) return;
    declined_.store(gap_.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
    probing_.store(false, std::memory_order_relaxed);
  }

  bool open() const { return gap() == 0; }
  // Declined calls before the next probe; 0 while the site is open.
  int gap() const { return gap_.load(std::memory_order_relaxed); }
  int score() const { return score_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int> cpus_{0};
  std::atomic<int> score_{0};
  std::atomic<int> gap_{0};
  std::atomic<int> declined_{0};  // since the site closed or last probed
  std::atomic<bool> probing_{false};
};

// The gate of the fork_scoped site whose body has type Body.
template <typename Body>
ForkGate& fork_gate() {
  static ForkGate gate;
  return gate;
}

}  // namespace detail

// Handle of one speculation attempt; also carries the speculated region so
// join() can execute it inline when speculation failed or rolled back.
// Joining is an obligation: Runtime::run CHECKs that no speculative thread
// outlives the run, and Runtime::join CHECKs against double joins. Prefer
// ScopedSpec, which discharges the obligation by scope discipline.
class Spec {
 public:
  Spec() = default;
  // Move-only, and the move consumes the source: a copy (or a defaulted
  // move that leaves the source intact) would carry an independent joined_
  // flag, letting the same speculation be joined twice past the
  // double-join CHECK.
  Spec(Spec&& o) noexcept
      : ref_(o.ref_),
        speculated_(o.speculated_),
        detached_(o.detached_),
        joined_(o.joined_),
        task_(std::move(o.task_)),
        predictions_(std::move(o.predictions_)),
        unwind_depth_(o.unwind_depth_) {
    o.speculated_ = false;
    o.joined_ = true;
  }
  Spec& operator=(Spec&& o) noexcept {
    if (this != &o) {
      MUTLS_CHECK(joined_ || !task_,
                  "Spec overwritten without join (missing join: even a "
                  "denied fork defers its region to join())");
      ref_ = o.ref_;
      speculated_ = o.speculated_;
      detached_ = o.detached_;
      joined_ = o.joined_;
      task_ = std::move(o.task_);
      predictions_ = std::move(o.predictions_);
      unwind_depth_ = o.unwind_depth_;
      o.speculated_ = false;
      o.joined_ = true;
    }
    return *this;
  }
  Spec(const Spec&) = delete;
  Spec& operator=(const Spec&) = delete;

  // Dropping an unjoined handle is the one misuse the run-drain cannot see
  // when the fork was denied (the deferred region would silently never
  // run), so it is policed here for granted and denied forks alike.
  // Exception unwind (relative to the handle's construction, like
  // ScopedSpec) is exempt: abandoning the region is then deliberate — a
  // doomed speculative task unwinds via SpecAbort and the worker NOSYNCs
  // its subtree (ScopedSpec makes the same choice via discard).
  ~Spec() {
    MUTLS_CHECK(joined_ || !task_ ||
                    std::uncaught_exceptions() > unwind_depth_,
                "Spec destroyed without join (missing join: even a denied "
                "fork defers its region to join())");
  }

  bool speculated() const { return speculated_; }
  bool detached() const { return detached_; }
  bool joined() const { return joined_; }
  int rank() const { return ref_.rank; }

 private:
  friend class Runtime;

  // Keeps a copy of the region for join, which runs it inline when the fork
  // was denied, declined or rolled back. It runs on the joining thread
  // through invoke_on, natively on the non-speculative thread when the
  // body takes a NativeCtx.
  template <typename F>
  void keep_region(Ctx& ctx, const F& body) {
    task_.emplace([b = body](Ctx& c) mutable { invoke_on(c, b); },
                  &ctx.thread_data().arena);
  }

  ChildRef ref_;
  bool speculated_ = false;
  bool detached_ = false;
  bool joined_ = false;
  // The retained region, for inline (re-)execution at join. An InlineTask
  // bound to the forker's arena: bodies that outgrow the inline buffer
  // spill into arena storage that the forker's own epoch reclaims — never
  // the global heap at steady state. The handle must therefore not outlive
  // the forking thread's epoch, which the join obligation already enforces.
  InlineTask<void(Ctx&)> task_;
  PredictionList predictions_;
  int unwind_depth_ = std::uncaught_exceptions();
};

enum class JoinOutcome {
  kCommitted,   // speculation validated and committed
  kRolledBack,  // speculation failed; region re-executed inline
  kSequential,  // speculation was never granted; region executed inline
  kDiscarded,   // region abandoned (ScopedSpec destroyed during unwind)
};

class ScopedSpec;

class Runtime {
 public:
  // The runtime's knobs are declared once, as ManagerConfig
  // ("runtime/thread_manager.h"); a Runtime is configured with exactly
  // what its ThreadManager runs with.
  using Options = ManagerConfig;

  explicit Runtime(const Options& opt) : mgr_(opt) {}

  // __builtin_MUTLS_fork: attempts to speculate `body` (the code that
  // follows the matching join point). Returns a handle; when speculation is
  // denied the handle simply defers `body` to join(). This is the single
  // fork entry point — ForkOpts selects the model, live-in predictions and
  // the detached loop-piece form.
  template <typename F>
  Spec fork(Ctx& ctx, ForkOpts opts, F&& body) {
    MUTLS_CHECK(!opts.detached || opts.predictions.empty(),
                "detached forks cannot carry live-in predictions: they are "
                "joined via join_next(), which does not validate them");
    for (const Prediction& p : opts.predictions) {
      // Prediction is a public aggregate; only Prediction::of static_asserts
      // the size, so hand-built entries must be policed here — join() copies
      // `size` bytes into 8-byte scalars.
      MUTLS_CHECK(p.size > 0 && p.size <= sizeof(uint64_t),
                  "Prediction.size must be 1..8 bytes");
    }
    // Prediction i lands in the child's RegisterBuffer slot i; one past
    // the last slot would be dropped while join() still validated it.
    MUTLS_CHECK(
        opts.predictions.size() <= static_cast<size_t>(kRegisterSlots),
        "more live-in predictions than RegisterBuffer slots");
    static_assert(std::is_copy_constructible_v<std::decay_t<F>>,
                  "fork bodies must be copyable: the joiner keeps a copy "
                  "for inline re-execution on rollback");
    Spec s;
    s.detached_ = opts.detached;
    // A joinable handle keeps its own copy of the region (join may run it
    // inline), stored in the *forker's* arena; the speculated wrapper below
    // is emplaced by speculate() into the *child's* arena. Neither touches
    // the global heap at steady state. A detached handle keeps none: join()
    // rejects it, and a denied detached fork is the caller's to continue.
    if (!opts.detached) s.keep_region(ctx, body);
    s.predictions_ = std::move(opts.predictions);
    const PredictionList& predictions = s.predictions_;
    const uint64_t tag = opts.tag;
    // MUTLS_set_regvar_*: the proxy stores predicted live-ins into the
    // child's RegisterBuffer before the stub starts consuming them.
    auto setup = [&predictions, tag](ThreadData& child) {
      child.user_tag = tag;
      int off = 0;
      for (const Prediction& p : predictions) {
        child.lbuf.top().regs.set(off++, p.predicted);
      }
    };
    int rank = mgr_.speculate(
        ctx.thread_data(), opts.model,
        [this, body = std::forward<F>(body)](ThreadData& td) mutable {
          Ctx child(*this, td);
          body(child);
        },
        setup);
    if (rank != 0) {
      s.speculated_ = true;
      s.ref_ = ctx.thread_data().children.back();
    }
    if (s.detached_) {
      // No join obligation on the handle: the child (if any) awaits
      // adoption, and a denied detached fork is simply the caller's job to
      // continue inline.
      s.joined_ = true;
    }
    return s;
  }

  // Convenience overload for the common plain-speculation case.
  template <typename F>
  Spec fork(Ctx& ctx, ForkModel model, F&& body) {
    return fork(ctx, ForkOpts{.model = model}, std::forward<F>(body));
  }

  // RAII forms of the above: the returned ScopedSpec joins when it leaves
  // scope (or discards the speculation when leaving scope by exception),
  // turning a missing join from a runtime CHECK into scope discipline.
  // Unlike fork(), fork_scoped asks the site's ForkGate first, the site
  // being the body's type. A declined fork returns a deferred handle,
  // exactly as a denied one does, and counts in fork_denied.
  template <typename F>
  ScopedSpec fork_scoped(Ctx& ctx, ForkOpts opts, F&& body);
  template <typename F>
  ScopedSpec fork_scoped(Ctx& ctx, ForkModel model, F&& body);

  struct AdoptedJoin {
    bool joined = false;  // false: no child was on the stack
    JoinOutcome outcome = JoinOutcome::kSequential;
    uint64_t tag = 0;
  };

  // Joins the most recent child on the caller's children stack (own or
  // adopted). On rollback the caller is responsible for re-executing the
  // region identified by `tag`.
  AdoptedJoin join_next(Ctx& ctx) {
    AdoptedJoin r;
    ThreadData& td = ctx.thread_data();
    if (td.children.empty()) return r;
    r.joined = true;
    ChildRef ref = td.children.back();
    auto jr = mgr_.synchronize(td, ref, false, &r.tag);
    r.outcome = jr == ThreadManager::JoinResult::kCommit
                    ? JoinOutcome::kCommitted
                    : JoinOutcome::kRolledBack;
    return r;
  }

  // __builtin_MUTLS_join: synchronizes with the speculation `s`. On commit
  // the speculated effects are already visible through the joiner's view;
  // on rollback (or when speculation never happened) the region runs inline
  // in the joiner's context. Each Spec must be joined exactly once.
  JoinOutcome join(Ctx& ctx, Spec& s) {
    MUTLS_CHECK(!s.detached_,
                "detached forks carry no join obligation; adopted children "
                "are joined via join_next()");
    MUTLS_CHECK(!s.joined_, "double join of a Spec");
    s.joined_ = true;
    if (!s.speculated_) {
      s.task_(ctx);
      return JoinOutcome::kSequential;
    }
    // MUTLS_validate_local: live-in predictions must match the parent's
    // actual values at the join point (paper IV-G4). The parent-side reads
    // go through the relaxed path like every other direct access, keeping
    // the protocol free of C++ data races.
    bool force_rollback = false;
    for (const Prediction& p : s.predictions_) {
      uint64_t cur = 0;
      relaxed_load_bytes(p.parent_addr, &cur, p.size);
      uint64_t want = 0;
      std::memcpy(&want, &p.predicted, p.size);
      if (cur != want) {
        force_rollback = true;
        break;
      }
    }
    ThreadManager::JoinResult r =
        mgr_.synchronize(ctx.thread_data(), s.ref_, force_rollback);
    if (r == ThreadManager::JoinResult::kCommit) {
      return JoinOutcome::kCommitted;
    }
    s.task_(ctx);
    return JoinOutcome::kRolledBack;
  }

  // Abandons the speculation `s` without executing its region: the child
  // (and its subtree) is NOSYNC-discarded, and a deferred task is dropped.
  // This is the unwind path of ScopedSpec — when an exception abandons the
  // code between fork and join, the speculated continuation must not
  // survive it.
  void discard(Ctx& ctx, Spec& s) {
    if (s.joined_ || s.detached_) return;
    s.joined_ = true;
    if (!s.speculated_) return;
    ThreadData& td = ctx.thread_data();
    for (size_t i = td.children.size(); i-- > 0;) {
      if (td.children[i].rank == s.ref_.rank &&
          td.children[i].epoch == s.ref_.epoch) {
        // Discard this child and everything forked after it: unwinding
        // scopes release LIFO, so later children belong to the abandoned
        // region too.
        mgr_.nosync_children(td, i);
        return;
      }
    }
    // Child no longer on the stack (a cascade already consumed it).
  }

  // Runs `f` as the non-speculative thread of one measured region and
  // returns the aggregated statistics of the run. A generic `f`
  // (`[&](auto& ctx)`) gets a NativeCtx, like every region the
  // non-speculative thread runs; one that takes Ctx& gets the root's Ctx.
  template <typename F>
  RunStats run(F&& f) {
    mgr_.begin_run();
    Ctx root(*this, mgr_.root());
    try {
      invoke_on(root, f);
    } catch (...) {
      // The region was abandoned. Discard what the root still has live, or
      // those workers would wait at their barriers for a SYNC that never
      // comes (and the manager's destructor with them), and close the run
      // so the next one starts clean.
      mgr_.nosync_children(mgr_.root());
      mgr_.end_run();
      throw;
    }
    // Joins and discards are synchronous handshakes, so a conforming run
    // ends with no live speculation; the bounded drain below only covers
    // protocol violations (a fork the user never joined) so they surface
    // as a CHECK instead of a hang.
    uint64_t deadline = now_ns() + mgr_.config().missing_join_timeout_ns;
    while (mgr_.live_threads() != 0 && now_ns() < deadline) {
      std::this_thread::yield();
    }
    MUTLS_CHECK(mgr_.live_threads() == 0,
                "speculative threads outlived the run (missing join)");
    mgr_.end_run();
    return mgr_.collect_stats();
  }

  // Address-space registration (paper IV-G1).
  void register_memory(const void* p, size_t n) { mgr_.register_space(p, n); }
  void unregister_memory(const void* p, size_t n) {
    mgr_.unregister_space(p, n);
  }

  ThreadManager& manager() { return mgr_; }
  int num_cpus() const { return mgr_.num_cpus(); }

 private:
  friend class Ctx;

  ThreadManager mgr_;
};

inline Ctx::Ctx(Runtime& rt, ThreadData& td)
    : rt_(&rt),
      td_(&td),
      speculative_(td.is_speculative()),
      space_epoch_(&rt.manager().space_epoch()) {}

// RAII speculation scope: holds the join obligation of one fork. Leaving
// scope normally joins (commit, or inline re-execution on rollback);
// leaving scope by exception discards the speculation instead — the region
// between fork and join was abandoned, so its speculated continuation is
// NOSYNC-ed rather than executed. Declaration order doubles as join order:
// scopes unwind LIFO, which is exactly the mixed-model assumption.
class ScopedSpec {
 public:
  ScopedSpec(Runtime& rt, Ctx& ctx, Spec s)
      : rt_(&rt),
        ctx_(&ctx),
        s_(std::move(s)),
        unwind_depth_(std::uncaught_exceptions()) {}

  ScopedSpec(ScopedSpec&& o) noexcept
      : rt_(o.rt_),
        ctx_(o.ctx_),
        s_(std::move(o.s_)),
        active_(o.active_),
        outcome_(o.outcome_),
        unwind_depth_(o.unwind_depth_),
        gate_(o.gate_),
        decision_(o.decision_),
        fork_ns_(o.fork_ns_),
        fork_idle_ns_(o.fork_idle_ns_) {
    o.active_ = false;
  }
  ScopedSpec(const ScopedSpec&) = delete;
  ScopedSpec& operator=(const ScopedSpec&) = delete;
  ScopedSpec& operator=(ScopedSpec&&) = delete;

  // Joining can re-execute the region inline, which inside a doomed
  // speculative parent legitimately throws SpecAbort — hence not noexcept.
  ~ScopedSpec() noexcept(false) {
    if (!active_) return;
    active_ = false;
    if (std::uncaught_exceptions() > unwind_depth_) {
      // Unwinding: the region this speculation continues was abandoned.
      if (gate_ != nullptr) gate_->no_verdict(decision_);
      rt_->discard(*ctx_, s_);
      outcome_ = JoinOutcome::kDiscarded;
      return;
    }
    outcome_ = join_and_judge();
  }

  // Early explicit join, for when the result is needed before scope end.
  // Exactly one join per scope: joining an already-joined or moved-from
  // scope is a CHECK failure.
  JoinOutcome join() {
    MUTLS_CHECK(active_,
                "join of an inactive ScopedSpec (already joined or moved "
                "from)");
    active_ = false;
    outcome_ = join_and_judge();
    return outcome_;
  }

  bool speculated() const { return s_.speculated(); }
  bool joined() const { return !active_; }
  JoinOutcome outcome() const { return outcome_; }

 private:
  friend class Runtime;

  uint64_t idle_ns() const {
    return ctx_->thread_data().stats.ledger.get(TimeCat::kIdle);
  }

  // Set by fork_scoped on a granted fork: the join owes `gate` a verdict.
  void await_verdict(detail::ForkGate& gate, detail::ForkGate::Decision d) {
    gate_ = &gate;
    decision_ = d;
    fork_ns_ = now_ns();
    fork_idle_ns_ = idle_ns();
  }

  // Joins, then judges the fork when its site awaits a verdict. The fork
  // lost when the joiner's wait here, plus the inline re-run on rollback,
  // exceeded the joiner's busy time between the fork and its arrival
  // here: elapsed time minus the kIdle it accrued meanwhile, waiting at
  // nested joins. The busy time stands for what the region would have
  // cost inline, which holds for a split into comparable halves (fft,
  // matmult, par::divide_and_conquer). Without the idle subtracted, two
  // halves each slowed by their own nested speculation look like a win.
  JoinOutcome join_and_judge() {
    if (gate_ == nullptr) return rt_->join(*ctx_, s_);
    const uint64_t arrive = now_ns();
    const uint64_t elapsed = arrive - fork_ns_;
    const uint64_t idle = idle_ns() - fork_idle_ns_;
    const uint64_t busy = elapsed > idle ? elapsed - idle : 0;
    JoinOutcome o;
    try {
      o = rt_->join(*ctx_, s_);
    } catch (...) {
      gate_->no_verdict(decision_);
      throw;
    }
    gate_->verdict(decision_, now_ns() - arrive <= busy);
    return o;
  }

  Runtime* rt_;
  Ctx* ctx_;
  Spec s_;
  bool active_ = true;
  JoinOutcome outcome_ = JoinOutcome::kSequential;
  int unwind_depth_;
  detail::ForkGate* gate_ = nullptr;
  detail::ForkGate::Decision decision_ = detail::ForkGate::Decision::kFork;
  uint64_t fork_ns_ = 0;
  uint64_t fork_idle_ns_ = 0;
};

template <typename F>
ScopedSpec Runtime::fork_scoped(Ctx& ctx, ForkOpts opts, F&& body) {
  MUTLS_CHECK(!opts.detached, "a detached fork has no scope to join");
  using Decision = detail::ForkGate::Decision;
  detail::ForkGate& gate = detail::fork_gate<std::decay_t<F>>();
  const Decision d = gate.admit(num_cpus(), mgr_.config().adaptive_forks);
  if (d == Decision::kDecline) {
    ++ctx.thread_data().stats.fork_denied;
    Spec s;
    s.keep_region(ctx, body);
    return ScopedSpec(*this, ctx, std::move(s));
  }
  ScopedSpec scope(*this, ctx,
                   fork(ctx, std::move(opts), std::forward<F>(body)));
  if (!scope.speculated()) {
    gate.no_verdict(d);
  } else if (d != Decision::kUngated) {
    scope.await_verdict(gate, d);
  }
  return scope;
}

template <typename F>
ScopedSpec Runtime::fork_scoped(Ctx& ctx, ForkModel model, F&& body) {
  return fork_scoped(ctx, ForkOpts{.model = model}, std::forward<F>(body));
}

}  // namespace mutls
