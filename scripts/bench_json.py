#!/usr/bin/env python3
"""Run the figure-reproduction benches and emit BENCH_results.json.

Seeds and extends the repo's perf trajectory: each invocation runs the
fig3..fig11 benches (plus the table2 harness) from a build directory,
captures wall time, exit status and the printed MEASURED/SIMULATED rows,
and writes one structured JSON document. Numeric-looking table rows are
parsed into (label, values) pairs so later tooling can diff runs without
re-parsing free text; the raw stdout is preserved verbatim as well.

Usage:
  scripts/bench_json.py --bench-dir build/bench [--out BENCH_results.json]
                        [--mode quick|full|paper] [--no-sim|--no-measured]
                        [--no-micro] [--no-ablation] [--no-sustained]
                        [--no-fig11] [--baseline OLD.json]

The rollback-sensitivity bench (bench_fig11_rollback_sensitivity) is no
longer a prose figure: it sweeps a deterministic conflict kernel over
{rollback ratio x backend x prediction on/off} and emits one FIG11 line
per cell, parsed here into a validated fig11 section that fails loudly on
any missing cell of the matrix.

The sustained-load serving bench (bench_sustained_load) contributes a
sustained_load section: per-{backend x skew x batch} cells with req/s,
fork-to-settle latency percentiles, doom rate, alloc_events and a
validated duration_s field. It always runs at full duration (the committed
document must clear the >=1M fork/join floor); CI smoke uses the binary's
own --quick flag instead.

Besides the figure benches, the backend-sweeping microbenches
(bench_micro_runtime) and the buffer-map ablation (bench_ablation_buffer_map)
are run in JSON mode and their counters captured, so hot-path and backend
perf regressions trip the trajectory, not just correctness CI. --baseline
embeds the hot-path rows of a previous document under "baseline" for a
before/after record.

The CMake target `bench_json` wraps this with the default build tree.
"""

import argparse
import datetime
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

FIG_BENCHES = [
    "bench_fig3_compute_speedup",
    "bench_fig4_memory_speedup",
    "bench_fig5_critical_efficiency",
    "bench_fig6_speculative_efficiency",
    "bench_fig7_power_efficiency",
    "bench_fig8_critical_breakdown",
    "bench_fig9_speculative_breakdown",
    "bench_fig10_forking_models",
    "bench_table2_benchmarks",
]

# Rollback-sensitivity bench: a deterministic conflict kernel swept over
# {injected rollback ratio x backend x value prediction on/off}, one
# self-validating "FIG11 key=value ..." line per cell (the binary exits
# nonzero when prediction fails to save rollbacks at high ratios or any
# cell diverges from the sequential oracle). The full cell matrix is
# validated here so a ratio, backend or prediction arm silently dropping
# out of the sweep fails the run instead of shrinking the document.
FIG11_BENCH = "bench_fig11_rollback_sensitivity"
FIG11_RATIO_PCTS = (1, 5, 10, 20, 50, 100)
FIG11_PREDICT = ("off", "on")
FIG11_CELL_KEYS = ("epochs", "conflicts", "commits", "rollbacks",
                   "predicted_reads", "predictor_hits",
                   "predictor_mispredicts", "saved_rollbacks", "wall_ns",
                   "epochs_per_s")

# Google-Benchmark binaries whose buffered benches sweep the SpecBuffer
# backends; their per-run counters (resize_events, avg_probe_len,
# validated_words, overflow_events, mru_hits/misses, the fork-latency
# ledger split) are the cost breakdown behind any backend or hot-path
# comparison, so they ride along in the JSON document. The ablation binary
# rides along too so a backend perf regression trips the perf trajectory,
# not just correctness CI.
MICRO_BENCH = "bench_micro_runtime"
MICRO_FILTER = "Buffered|ForkJoin"
ABLATION_BENCH = "bench_ablation_buffer_map"
ABLATION_FILTER = "SpecBuffer|ValidateCommit|OverCapacity|ResetSmall"

# Sustained-load serving bench: duration-based sweep over
# {backend x key-skew x batch size}, reporting req/s, fork-to-settle
# latency percentiles and the doom rate per cell. Parsed from the
# machine-readable "SUSTAINED key=value ..." lines into the sustained_load
# section. Every backend must report BOTH skews — a missing cell means the
# sweep silently lost a contestant.
SUSTAINED_BENCH = "bench_sustained_load"
SUSTAINED_SKEWS = ("uniform", "zipf-1.1")
# Fields every cell must carry; duration_s in particular is validated so a
# cell that stopped measuring its window cannot slip into the document.
SUSTAINED_CELL_KEYS = ("duration_s", "req_per_s", "p50_ns", "p99_ns",
                       "p999_ns", "doom_rate", "alloc_events")

# Every backend the swept benches must report. A backend silently missing
# from a sweep (dropped Arg, renamed label, dispatch regression) would
# otherwise just shrink the document — fail loudly instead.
EXPECTED_BACKENDS = ("static-hash", "growable-log")

# Execution-engine dispatch microbench: the two IR kernels swept over
# {dispatch mode x buffer backend}, one self-validating "DISPATCH
# key=value ..." line per cell (the binary exits nonzero on a wrong kernel
# result). Parsed into the interp_dispatch section; the full kernel x mode
# x backend matrix is validated, so a dispatch tier silently dropping out
# of the sweep fails the run instead of shrinking the document.
DISPATCH_BENCH = "bench_interp_dispatch"
DISPATCH_KERNELS = ("fib", "fill")
DISPATCH_MODES = ("switch", "direct-threaded")
DISPATCH_CELL_KEYS = ("wall_ns", "iters", "instrs", "ns_per_instr",
                      "back_edges", "commits", "rollbacks")

# Counters copied out of a Google-Benchmark JSON run when present.
COUNTER_KEYS = (
    "items_per_second", "resize_events", "overflow_events",
    "validated_words", "avg_probe_len", "rollbacks", "commits",
    "mru_hits", "mru_misses", "alloc_events",
    "predicted_reads", "predictor_hits", "predictor_mispredicts",
    "saved_rollbacks",
    "find_cpu_ns", "fork_arm_ns", "fork_handoff_ns", "join_ns",
    "resizes", "overflow_dooms", "doom_rate", "real_time", "cpu_time",
)

# Value-prediction counters every buffer-counter run must keep reporting
# (the --micro-only gate fails when one goes missing, like alloc_events).
PREDICT_COUNTER_KEYS = ("predicted_reads", "predictor_hits",
                        "predictor_mispredicts", "saved_rollbacks")

NUM_RE = re.compile(r"^-?\d+(\.\d+)?[x%]?$")


def parse_rows(stdout: str):
    """Extract (label, [numbers]) rows from a bench's table output."""
    rows = []
    for line in stdout.splitlines():
        tokens = line.split()
        if len(tokens) < 2:
            continue
        values = []
        for tok in tokens[1:]:
            if NUM_RE.match(tok):
                values.append(float(tok.rstrip("x%")))
        # A data row has a non-numeric label and mostly numeric columns.
        if values and not NUM_RE.match(tokens[0]) and \
                len(values) >= (len(tokens) - 1) / 2:
            rows.append({"label": " ".join(
                t for t in tokens if not NUM_RE.match(t)), "values": values})
    return rows


def run_gbench(bench_dir: Path, name: str, bfilter: str, timeout: int,
               quick: bool):
    """Run one Google-Benchmark binary, returning counter rows."""
    exe = bench_dir / name
    entry = {"bench": name, "status": "missing"}
    if not exe.exists():
        return entry
    cmd = [str(exe), f"--benchmark_filter={bfilter}",
           "--benchmark_format=json"]
    if quick:
        # Plain double, not "0.05s": old libbenchmark rejects the suffix
        # while 1.8+ merely warns about the missing one.
        cmd.append("--benchmark_min_time=0.05")
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
        entry["seconds"] = round(time.monotonic() - start, 3)
        entry["exit_code"] = proc.returncode
        if proc.returncode != 0:
            entry["status"] = "failed"
            entry["stderr"] = proc.stderr.splitlines()
            return entry
        doc = json.loads(proc.stdout)
        runs = []
        for b in doc.get("benchmarks", []):
            run = {"name": b.get("name"), "backend": b.get("label")}
            for key in COUNTER_KEYS:
                if key in b:
                    run[key] = b[key]
            runs.append(run)
        entry["status"] = "ok"
        entry["runs"] = runs
        # A backend-swept binary must actually report every backend: a
        # missing label means the sweep silently lost a contestant.
        swept = {r["backend"] for r in runs if r.get("backend")}
        missing = [b for b in EXPECTED_BACKENDS if b not in swept]
        if swept and missing:
            entry["status"] = "missing-backend"
            entry["missing_backends"] = missing
            print(f"[bench_json] {name}: swept backends {sorted(swept)} "
                  f"are missing {missing}", file=sys.stderr)
    except subprocess.TimeoutExpired:
        entry["status"] = "timeout"
        entry["seconds"] = round(time.monotonic() - start, 3)
    except (json.JSONDecodeError, OSError) as e:
        entry["status"] = "failed"
        entry["error"] = str(e)
    return entry


def check_alloc_budget(entry):
    """Enforce the zero-allocation steady-state budget on the microbench.

    Every microbench run reports alloc_events — the runtime's own count of
    arena heap-fallback allocations after its warm-up window. A nonzero
    value is a regression of the zero-allocation invariant; a *missing*
    counter means the bench silently stopped measuring it. Both flip the
    entry's status so the exit code fails the CI step loudly.

    The same presence check covers the value-prediction counters: every
    run that carries the buffer cost breakdown (validated_words) must also
    carry predicted_reads/predictor_hits/predictor_mispredicts/
    saved_rollbacks. alloc_events staying zero alongside them is what
    proves the predictor table is arena-backed — enabling the feature must
    not reintroduce steady-state heap traffic.
    """
    if entry.get("status") != "ok":
        return entry
    missing = [r.get("name") for r in entry.get("runs", [])
               if "alloc_events" not in r]
    if missing:
        entry["status"] = "missing-counter"
        entry["missing_alloc_events"] = missing
        print(f"[bench_json] {entry['bench']}: runs missing the "
              f"alloc_events counter: {missing}", file=sys.stderr)
        return entry
    missing_predict = [
        r.get("name") for r in entry.get("runs", [])
        if "validated_words" in r
        and any(k not in r for k in PREDICT_COUNTER_KEYS)]
    if missing_predict:
        entry["status"] = "missing-counter"
        entry["missing_prediction_counters"] = missing_predict
        print(f"[bench_json] {entry['bench']}: runs missing prediction "
              f"counters: {missing_predict}", file=sys.stderr)
        return entry
    over = [{"name": r.get("name"), "alloc_events": r["alloc_events"]}
            for r in entry.get("runs", []) if r["alloc_events"] > 0]
    if over:
        entry["status"] = "alloc-budget-exceeded"
        entry["over_budget"] = over
        print(f"[bench_json] {entry['bench']}: steady-state allocation "
              f"budget exceeded: {over}", file=sys.stderr)
    return entry


def parse_kv_line(line: str):
    """Parse one 'PREFIX key=value key=value ...' line into a dict."""
    out = {}
    for tok in line.split()[1:]:
        key, sep, val = tok.partition("=")
        if not sep:
            continue
        try:
            out[key] = int(val)
        except ValueError:
            try:
                out[key] = float(val)
            except ValueError:
                out[key] = val
    return out


def run_sustained(bench_dir: Path, timeout: int):
    """Run the sustained-load serving bench and validate its cell matrix.

    Always runs at the binary's full duration and fork/join floor — even in
    --mode quick — because the committed BENCH_results.json must be a
    steady-state sample (>=1M fork/joins, zero post-warm-up allocations);
    the cheap smoke path is the binary's own --quick flag in CI.
    """
    exe = bench_dir / SUSTAINED_BENCH
    entry = {"bench": SUSTAINED_BENCH, "status": "missing"}
    if not exe.exists():
        return entry
    start = time.monotonic()
    try:
        proc = subprocess.run([str(exe)], capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        entry["status"] = "timeout"
        entry["seconds"] = round(time.monotonic() - start, 3)
        return entry
    entry["seconds"] = round(time.monotonic() - start, 3)
    entry["exit_code"] = proc.returncode
    cells, total = [], {}
    for line in proc.stdout.splitlines():
        if line.startswith("SUSTAINED_TOTAL "):
            total = parse_kv_line(line)
        elif line.startswith("SUSTAINED backend="):
            cells.append(parse_kv_line(line))
    entry["cells"] = cells
    entry["total"] = total
    if proc.returncode != 0:
        # The binary polices its own floor and allocation budget.
        entry["status"] = "failed"
        entry["stderr"] = proc.stderr.splitlines()
        return entry

    # Cell-matrix validation: every backend, under both skews, with every
    # required field — and a positive measured duration per cell.
    problems = []
    seen = {}
    for c in cells:
        missing = [k for k in SUSTAINED_CELL_KEYS if k not in c]
        if missing:
            problems.append(f"cell {c.get('backend')}/{c.get('skew')} "
                            f"missing {missing}")
            continue
        if c["duration_s"] <= 0:
            problems.append(f"cell {c.get('backend')}/{c.get('skew')} has "
                            f"non-positive duration_s")
        seen.setdefault(c.get("backend"), set()).add(c.get("skew"))
    for backend in EXPECTED_BACKENDS:
        missing_skews = [s for s in SUSTAINED_SKEWS
                         if s not in seen.get(backend, set())]
        if missing_skews:
            problems.append(f"backend {backend} missing skew cells: "
                            f"{missing_skews}")
    if "duration_s" not in total or total.get("duration_s", 0) <= 0:
        problems.append("SUSTAINED_TOTAL missing a positive duration_s")
    if any(c.get("alloc_events") for c in cells):
        problems.append("post-warm-up allocations in a sustained cell")
    if problems:
        entry["status"] = "missing-backend" if any(
            "backend" in p for p in problems) else "invalid"
        entry["problems"] = problems
        for p in problems:
            print(f"[bench_json] {SUSTAINED_BENCH}: {p}", file=sys.stderr)
        return entry
    entry["status"] = "ok"
    return entry


def run_dispatch(bench_dir: Path, timeout: int, quick: bool):
    """Run the dispatch-tier microbench and validate its cell matrix.

    Every kernel must report every dispatch mode under every buffer
    backend, each cell with every required field. A missing dispatch mode
    is the loud failure this section exists for: it means a tier fell out
    of the sweep (decode regression, renamed mode, dropped kernel), which
    a shrinking document would otherwise hide.
    """
    exe = bench_dir / DISPATCH_BENCH
    entry = {"bench": DISPATCH_BENCH, "status": "missing"}
    if not exe.exists():
        return entry
    cmd = [str(exe)] + (["--quick"] if quick else [])
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        entry["status"] = "timeout"
        entry["seconds"] = round(time.monotonic() - start, 3)
        return entry
    entry["seconds"] = round(time.monotonic() - start, 3)
    entry["exit_code"] = proc.returncode
    cells, heat = [], []
    for line in proc.stdout.splitlines():
        if line.startswith("DISPATCH_HEAT "):
            heat.append(parse_kv_line(line))
        elif line.startswith("DISPATCH "):
            cells.append(parse_kv_line(line))
    entry["cells"] = cells
    entry["region_heat"] = heat
    if proc.returncode != 0:
        # The binary validates kernel results.
        entry["status"] = "failed"
        entry["stderr"] = proc.stderr.splitlines()
        return entry

    problems = []
    seen = {}
    for c in cells:
        missing = [k for k in DISPATCH_CELL_KEYS if k not in c]
        if missing:
            problems.append(f"cell {c.get('kernel')}/{c.get('mode')}/"
                            f"{c.get('backend')} missing {missing}")
            continue
        if c["wall_ns"] <= 0:
            problems.append(f"cell {c.get('kernel')}/{c.get('mode')}/"
                            f"{c.get('backend')} has non-positive wall_ns")
        seen.setdefault((c.get("kernel"), c.get("backend")),
                        set()).add(c.get("mode"))
    missing_mode = False
    for kernel in DISPATCH_KERNELS:
        for backend in EXPECTED_BACKENDS:
            modes = seen.get((kernel, backend), set())
            lost = [m for m in DISPATCH_MODES if m not in modes]
            if lost:
                missing_mode = True
                problems.append(f"kernel {kernel} backend {backend} "
                                f"missing dispatch modes: {lost}")
    if problems:
        entry["status"] = "missing-dispatch-mode" if missing_mode \
            else "invalid"
        entry["problems"] = problems
        for p in problems:
            print(f"[bench_json] {DISPATCH_BENCH}: {p}", file=sys.stderr)
        return entry
    entry["status"] = "ok"
    return entry


def run_fig11(bench_dir: Path, timeout: int, quick: bool):
    """Run the rollback-sensitivity sweep and validate its cell matrix.

    Every backend must report every {ratio x prediction} cell with every
    required field — a missing cell means the sweep silently lost a
    contestant (dropped backend, renamed predict arm, truncated ratio
    sweep), which a shrinking document would otherwise hide. The binary
    polices semantics itself (sequential-oracle divergence, prediction
    counters leaking into predict=off cells, saved_rollbacks == 0 at high
    ratios) and exits nonzero.
    """
    exe = bench_dir / FIG11_BENCH
    entry = {"bench": FIG11_BENCH, "status": "missing"}
    if not exe.exists():
        return entry
    cmd = [str(exe)] + (["--quick"] if quick else [])
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        entry["status"] = "timeout"
        entry["seconds"] = round(time.monotonic() - start, 3)
        return entry
    entry["seconds"] = round(time.monotonic() - start, 3)
    entry["exit_code"] = proc.returncode
    cells, total = [], {}
    for line in proc.stdout.splitlines():
        if line.startswith("FIG11_TOTAL "):
            total = parse_kv_line(line)
        elif line.startswith("FIG11 "):
            cells.append(parse_kv_line(line))
    entry["cells"] = cells
    entry["total"] = total
    if proc.returncode != 0:
        entry["status"] = "failed"
        entry["stderr"] = proc.stderr.splitlines()
        return entry

    problems = []
    seen = {}
    for c in cells:
        missing = [k for k in FIG11_CELL_KEYS if k not in c]
        if missing:
            problems.append(f"cell {c.get('backend')}/{c.get('ratio_pct')}/"
                            f"predict={c.get('predict')} missing {missing}")
            continue
        if c["epochs"] <= 0 or c["wall_ns"] <= 0:
            problems.append(f"cell {c.get('backend')}/{c.get('ratio_pct')}/"
                            f"predict={c.get('predict')} has a non-positive "
                            f"epochs/wall_ns")
        seen.setdefault(c.get("backend"), set()).add(
            (c.get("ratio_pct"), c.get("predict")))
    missing_backend = False
    for backend in EXPECTED_BACKENDS:
        cells_seen = seen.get(backend, set())
        if not cells_seen:
            missing_backend = True
            problems.append(f"backend {backend} missing entirely")
            continue
        lost = [f"{pct}%/predict={p}" for pct in FIG11_RATIO_PCTS
                for p in FIG11_PREDICT if (pct, p) not in cells_seen]
        if lost:
            problems.append(f"backend {backend} missing cells: {lost}")
    if problems:
        entry["status"] = "missing-backend" if missing_backend else "invalid"
        entry["problems"] = problems
        for p in problems:
            print(f"[bench_json] {FIG11_BENCH}: {p}", file=sys.stderr)
        return entry
    entry["status"] = "ok"
    return entry


def extract_baseline(path: Path):
    """Pull the perf-trajectory rows out of a previous results document.

    Embedded under "baseline" in the new document so a before/after
    comparison of the hot paths travels with the run that changed them.
    """
    try:
        doc = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        return {"status": "unreadable", "error": str(e)}
    keep = {}
    for bench in doc.get("benches", []):
        name = bench.get("bench")
        if name in (MICRO_BENCH, ABLATION_BENCH) and "runs" in bench:
            keep[name] = bench["runs"]
        elif name == "bench_fig3_compute_speedup" and "rows" in bench:
            keep[name] = bench["rows"]
    return {"status": "ok", "git_rev": doc.get("git_rev", "unknown"),
            "generated_utc": doc.get("generated_utc"), "benches": keep}


def git_rev(repo: Path) -> str:
    try:
        rev = subprocess.run(
            ["git", "-C", str(repo), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.strip()
        return rev or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench-dir", required=True,
                    help="directory containing the built bench binaries")
    ap.add_argument("--out", default="BENCH_results.json")
    ap.add_argument("--mode", choices=["quick", "full", "paper"],
                    default="quick",
                    help="workload sizes: quick (CI smoke), full, paper")
    ap.add_argument("--no-sim", action="store_true")
    ap.add_argument("--no-measured", action="store_true")
    ap.add_argument("--no-micro", action="store_true",
                    help="skip the backend-sweeping microbench counters")
    ap.add_argument("--micro-only", action="store_true",
                    help="run only the microbench sweep (the CI allocation-"
                         "budget gate), skipping figures and ablation")
    ap.add_argument("--no-ablation", action="store_true",
                    help="skip the buffer-map ablation sweep")
    ap.add_argument("--no-sustained", action="store_true",
                    help="skip the sustained-load serving sweep")
    ap.add_argument("--no-dispatch", action="store_true",
                    help="skip the dispatch-tier microbench sweep")
    ap.add_argument("--no-fig11", action="store_true",
                    help="skip the rollback-sensitivity (value prediction) "
                         "sweep")
    ap.add_argument("--baseline", default=None,
                    help="previous BENCH_results.json whose hot-path rows "
                         "are embedded as the before of a before/after")
    ap.add_argument("--timeout", type=int, default=1800,
                    help="per-bench timeout in seconds")
    args = ap.parse_args()

    bench_dir = Path(args.bench_dir)
    flags = []
    if args.mode == "quick":
        flags.append("--quick")
    elif args.mode == "paper":
        flags.append("--paper")
    if args.no_sim:
        flags.append("--no-sim")
    if args.no_measured:
        flags.append("--no-measured")

    repo = Path(__file__).resolve().parent.parent
    results = []
    for name in [] if args.micro_only else FIG_BENCHES:
        exe = bench_dir / name
        if not exe.exists():
            results.append({"bench": name, "status": "missing"})
            print(f"[bench_json] {name}: MISSING", file=sys.stderr)
            continue
        start = time.monotonic()
        try:
            proc = subprocess.run([str(exe), *flags], capture_output=True,
                                  text=True, timeout=args.timeout)
            status = "ok" if proc.returncode == 0 else "failed"
            entry = {
                "bench": name,
                "status": status,
                "exit_code": proc.returncode,
                "seconds": round(time.monotonic() - start, 3),
                "rows": parse_rows(proc.stdout),
                "stdout": proc.stdout.splitlines(),
            }
            # fig3/fig4 assert on their measured speedups when the box has
            # enough hardware threads; keep the machine-readable verdict
            # (ok / skipped / fail) in the document either way.
            for line in proc.stdout.splitlines():
                if line.startswith("SPEEDUP-GATE "):
                    entry["speedup_gate"] = parse_kv_line(line)
            if proc.stderr.strip():
                entry["stderr"] = proc.stderr.splitlines()
        except subprocess.TimeoutExpired:
            entry = {"bench": name, "status": "timeout",
                     "seconds": round(time.monotonic() - start, 3)}
        results.append(entry)
        print(f"[bench_json] {name}: {entry['status']} "
              f"({entry.get('seconds', 0)}s)", file=sys.stderr)

    if not args.no_micro:
        entry = run_gbench(bench_dir, MICRO_BENCH, MICRO_FILTER,
                           args.timeout, args.mode == "quick")
        entry = check_alloc_budget(entry)
        results.append(entry)
        print(f"[bench_json] {MICRO_BENCH}: {entry['status']} "
              f"({entry.get('seconds', 0)}s)", file=sys.stderr)

    if not args.no_ablation and not args.micro_only:
        entry = run_gbench(bench_dir, ABLATION_BENCH, ABLATION_FILTER,
                           args.timeout, args.mode == "quick")
        results.append(entry)
        print(f"[bench_json] {ABLATION_BENCH}: {entry['status']} "
              f"({entry.get('seconds', 0)}s)", file=sys.stderr)

    if not args.no_sustained and not args.micro_only:
        entry = run_sustained(bench_dir, args.timeout)
        results.append(entry)
        print(f"[bench_json] {SUSTAINED_BENCH}: {entry['status']} "
              f"({entry.get('seconds', 0)}s)", file=sys.stderr)

    if not args.no_dispatch and not args.micro_only:
        entry = run_dispatch(bench_dir, args.timeout, args.mode == "quick")
        results.append(entry)
        print(f"[bench_json] {DISPATCH_BENCH}: {entry['status']} "
              f"({entry.get('seconds', 0)}s)", file=sys.stderr)

    if not args.no_fig11 and not args.micro_only:
        entry = run_fig11(bench_dir, args.timeout, args.mode == "quick")
        results.append(entry)
        print(f"[bench_json] {FIG11_BENCH}: {entry['status']} "
              f"({entry.get('seconds', 0)}s)", file=sys.stderr)

    doc = {
        "schema": "mutls-bench-results/1",
        "generated_utc": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "git_rev": git_rev(repo),
        "mode": args.mode,
        "flags": flags,
        "host": {
            "cpus": os.cpu_count(),
            "machine": platform.machine(),
            "system": platform.system(),
            "release": platform.release(),
        },
        "benches": results,
    }
    if args.baseline:
        doc["baseline"] = extract_baseline(Path(args.baseline))
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(f"[bench_json] wrote {args.out}", file=sys.stderr)
    failed = [r["bench"] for r in results if r.get("status") != "ok"]
    if failed:
        print(f"[bench_json] FAILED: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
