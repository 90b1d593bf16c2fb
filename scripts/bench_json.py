#!/usr/bin/env python3
"""Run the figure-reproduction benches and emit BENCH_results.json.

Seeds and extends the repo's perf trajectory: each invocation runs the
benches of the chosen --sections from a build directory and writes one
JSON document with one entry per bench: its wall time, its exit status
and what it reported. The figure benches' table rows are parsed into
(label, values) pairs and their stdout kept verbatim; the Google-Benchmark
binaries run in JSON mode and every counter of each run is kept; the other
binaries print `RECORD section=<key> k=v ...` lines (bench/common.h), each
filed under <key> in its bench's entry. SCHEMA gates the entries: a bench
that exits nonzero is "failed", one whose output breaks a gate "invalid"
with a "problems" list, and either makes the script exit 1. --baseline
embeds the hot-path rows of a previous document for a before/after record.

Usage:
  scripts/bench_json.py --bench-dir build/bench [--out BENCH_results.json]
                        [--mode quick|full|paper] [--no-sim|--no-measured]
                        [--sections figs,micro,...] [--baseline OLD.json]

The CMake target `bench_json` wraps this with the default build tree.
"""

import argparse
import datetime
import itertools
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
MICRO_BENCH = "bench_micro_runtime"
ABLATION_BENCH = "bench_ablation_buffer_map"

# Section -> [(binary, its arguments)]; None stands for the harness flags
# (--quick, --no-sim, ...). The sustained-load bench always runs at full
# duration: the committed document must clear its >=1M fork/join floor (CI
# smoke runs the binary's own --quick instead).
SECTIONS = {
    "figs": [(name, None) for name in FIG_BENCHES],
    "micro": [(MICRO_BENCH, ["--benchmark_filter=Buffered|ForkJoin"])],
    "ablation": [(ABLATION_BENCH, ["--benchmark_filter=SpecBuffer|"
                                   "ValidateCommit|OverCapacity|ResetSmall"])],
    "sustained": [("bench_sustained_load", [])],
    "dispatch": [("bench_interp_dispatch", None)],
    "fig11": [("bench_fig11_rollback_sensitivity", None)],
}
GBENCH_SECTIONS = ("micro", "ablation")

# Google Benchmark's own fields of a run. A run keeps its name, its label
# as "backend" and every other field: those are its counters.
GBENCH_FIELDS = ("name", "label", "family_index", "per_family_instance_index",
                 "run_name", "run_type", "repetitions", "repetition_index",
                 "threads", "iterations", "time_unit")

# Sections that hold one record; every other section is a list of them.
SINGLE = ("total", "speedup_gate")

BACKENDS = ("static-hash", "growable-log")

# The gates, per bench and section. "matrix" maps a key to the values it
# must take: every combination must appear in some record, so a sweep that
# silently loses a contestant (a backend, a dispatch mode, a ratio or a
# batch size) fails instead of shrinking the document. Keys in "required"
# must be present in every record, keys in "positive" present and > 0 (a
# cell that stopped measuring its window cannot slip in), keys in "zero"
# present and 0 (the zero-allocation steady state).
SCHEMA = {
    MICRO_BENCH: {"runs": {
        "matrix": {"backend": BACKENDS}, "zero": ("alloc_events",)}},
    ABLATION_BENCH: {"runs": {"matrix": {"backend": BACKENDS}}},
    "bench_sustained_load": {"cells": {
        "matrix": {"backend": BACKENDS, "skew": ("uniform", "zipf-1.1"),
                   "batch": (128, 512)},
        "required": ("req_per_s", "p50_ns", "p99_ns", "p999_ns", "doom_rate"),
        "positive": ("duration_s",), "zero": ("alloc_events",)},
        "total": {"positive": ("duration_s",)}},
    "bench_interp_dispatch": {"cells": {
        "matrix": {"kernel": ("fib", "fill"),
                   "mode": ("switch", "direct-threaded"), "backend": BACKENDS},
        "required": ("iters", "instrs", "ns_per_instr", "back_edges",
                     "commits", "rollbacks"),
        "positive": ("wall_ns",)}},
    "bench_fig11_rollback_sensitivity": {"cells": {
        "matrix": {"backend": BACKENDS, "ratio_pct": (1, 5, 10, 20, 50, 100),
                   "predict": ("off", "on")},
        "required": ("conflicts", "commits", "rollbacks", "predicted_reads",
                     "predictor_hits", "predictor_mispredicts",
                     "saved_rollbacks", "epochs_per_s"),
        "positive": ("epochs", "wall_ns")}},
}

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


def parse_value(val: str):
    for cast in (int, float):
        try:
            return cast(val)
        except ValueError:
            pass
    return val


def parse_records(stdout: str):
    """Group the RECORD lines of a bench's stdout by section."""
    sections = {}
    for line in stdout.splitlines():
        tokens = line.split()
        if not tokens or tokens[0] != "RECORD":
            continue
        record = {}
        for tok in tokens[1:]:
            key, _, val = tok.partition("=")
            record[key] = parse_value(val)
        sections.setdefault(record.pop("section", None), []).append(record)
    return {key: recs[-1] if key in SINGLE else recs
            for key, recs in sections.items()}


def check(records, gate):
    """Return what one section's records break of its gate."""
    if isinstance(records, dict):
        records = [records]
    if not records:
        return ["no records"]
    dims = gate.get("matrix", {})
    required, positive, zero = (gate.get(k, ()) for k in
                                ("required", "positive", "zero"))
    problems = []
    for r in records:
        where = ("record " + "/".join(str(r.get(k)) for k in dims)).strip()
        problems += [f"{where} missing {k}" for k in (*required, *positive,
                                                      *zero) if k not in r]
        problems += [f"{where} has non-positive {k}" for k in positive
                     if k in r and not (isinstance(r[k], (int, float))
                                        and r[k] > 0)]
        problems += [f"{where} has nonzero {k}" for k in zero if r.get(k)]
    seen = {tuple(r.get(k) for k in dims) for r in records}
    lost = [c for c in itertools.product(*dims.values()) if c not in seen]
    if lost:
        problems.append(f"missing cells {'/'.join(dims)}: {lost}")
    return problems


def record_entry(section: str, name: str, returncode: int, stdout: str,
                 stderr: str):
    """Build one bench's entry from its exit status and output, gated."""
    entry = {"bench": name, "exit_code": returncode,
             "status": "ok" if returncode == 0 else "failed"}
    if stderr.strip():
        entry["stderr"] = stderr.splitlines()
    if section in GBENCH_SECTIONS:
        try:
            entry["runs"] = [
                {"name": b.get("name"), "backend": b.get("label"),
                 **{k: v for k, v in b.items() if k not in GBENCH_FIELDS}}
                for b in json.loads(stdout).get("benchmarks", [])]
        except json.JSONDecodeError as e:
            entry.update(status="failed", error=str(e))
    else:
        entry.update(parse_records(stdout))
    if section == "figs":
        entry["rows"] = parse_rows(stdout)
        entry["stdout"] = stdout.splitlines()
    problems = [f"{key}: {p}"
                for key, gate in SCHEMA.get(name, {}).items()
                for p in check(entry.get(key, []), gate)]
    if entry["status"] == "ok" and problems:
        entry.update(status="invalid", problems=problems)
        for p in problems:
            print(f"[bench_json] {name}: {p}", file=sys.stderr)
    return entry


def run_bench(section: str, bench_dir: Path, name: str, argv, timeout: int):
    exe = bench_dir / name
    if not exe.exists():
        return {"bench": name, "status": "missing"}
    start = time.monotonic()
    try:
        proc = subprocess.run([str(exe), *argv], capture_output=True,
                              text=True, timeout=timeout)
        entry = record_entry(section, name, proc.returncode, proc.stdout,
                             proc.stderr)
    except subprocess.TimeoutExpired:
        entry = {"bench": name, "status": "timeout"}
    entry["seconds"] = round(time.monotonic() - start, 3)
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
    ap.add_argument("--bench-dir", required=True, type=Path,
                    help="directory containing the built bench binaries")
    ap.add_argument("--out", default="BENCH_results.json")
    ap.add_argument("--mode", choices=["quick", "full", "paper"],
                    default="quick",
                    help="workload sizes: quick (CI smoke), full, paper")
    ap.add_argument("--no-sim", action="store_true")
    ap.add_argument("--no-measured", action="store_true")
    ap.add_argument("--sections", default=",".join(SECTIONS),
                    help="comma-separated sections to run, of: "
                         + ",".join(SECTIONS) + " (default: all)")
    ap.add_argument("--baseline", default=None,
                    help="previous BENCH_results.json whose hot-path rows "
                         "are embedded as the before of a before/after")
    ap.add_argument("--timeout", type=int, default=1800,
                    help="per-bench timeout in seconds")
    args = ap.parse_args()
    chosen = args.sections.split(",")
    if not set(chosen) <= set(SECTIONS):
        ap.error(f"--sections takes some of {','.join(SECTIONS)}")

    flags = {"quick": ["--quick"], "full": [], "paper": ["--paper"]}[args.mode]
    flags += ["--no-sim"] * args.no_sim
    flags += ["--no-measured"] * args.no_measured
    results = []
    for section in (s for s in SECTIONS if s in chosen):
        for name, argv in SECTIONS[section]:
            if argv is None:
                argv = flags
            elif section in GBENCH_SECTIONS:
                # A plain double, not "0.05s": old libbenchmark rejects the
                # suffix while 1.8+ merely warns about the missing one.
                argv = argv + ["--benchmark_format=json"] + (
                    ["--benchmark_min_time=0.05"] if args.mode == "quick"
                    else [])
            entry = run_bench(section, args.bench_dir, name, argv,
                              args.timeout)
            results.append(entry)
            print(f"[bench_json] {name}: {entry['status']} "
                  f"({entry.get('seconds', 0)}s)", file=sys.stderr)

    doc = {
        "schema": "mutls-bench-results/1",
        "generated_utc": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "git_rev": git_rev(Path(__file__).resolve().parent.parent),
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
