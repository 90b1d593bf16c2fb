#!/usr/bin/env python3
"""End-to-end MUTLS benchmark runner.

Builds bench/e2e (a standalone CMake project that pulls in mutls_core),
runs each workload in its own process, checks correctness, and prints every
metric with its name and unit. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

  python3 bench/e2e/run.py --workload md --seed 1 --seconds 15 --trace 0
  python3 bench/e2e/run.py                      # all workloads, untraced
  python3 bench/e2e/run.py --trace 1            # per-layer metrics + trace
  python3 bench/e2e/run.py --smoke              # all workloads, < 10 s
  python3 bench/e2e/run.py --out A.json         # append results to A.json
  python3 bench/e2e/run.py --compare A.json B.json
  python3 bench/e2e/run.py --self-test          # prove the gates can fail

The metric lists, their bounds and the run length come from BENCHMARK.json
at the repository root. The exit code is nonzero when any operation
disagrees with the sequential oracle, when a warmed-up runtime allocated,
or when a metric is missing.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = 0.3

# End-to-end metrics the driver reports that BENCHMARK.json does not gate,
# with the (better, bound) --compare applies to them. BENCHMARK.json lists
# only metrics that every workload reports and that hold their bound over
# ten runs on a shared host. The serve-zipf latency and throughput exist
# for one workload only. Absolute run time followed host load: md's and
# fft's run_s spread reached 0.30 over ten runs, while the paired speedup
# stayed within 0.25.
REPORTED_ONLY = {
    "run_s": ("lower", 0.25),
    "req_per_s": ("higher", 0.25),
    "batch_p50_us": ("lower", 0.25),
    "batch_p99_us": ("lower", 0.25),
}


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or str(ROOT / ".bench_build")
    return Path(base).resolve() / "mutls-e2e"


def build():
    """Configures (once) and builds the driver; returns its path."""
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", "mutls_bench",
                  "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout)
            sys.exit(f"build failed: {' '.join(cmd)}")
    return bdir / "mutls_bench"


def run_driver(exe, workload, seed, seconds, trace_out=None, smoke=False,
               extra=()):
    """Runs one workload in its own process; returns its JSON record."""
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if smoke:
        cmd.append("--smoke")
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    cmd += list(extra)
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                       timeout=RUN_TIMEOUT_S)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{workload}: driver exited with {p.returncode}")
    return json.loads(lines[-1])


def check(record, wanted):
    """The correctness gates; returns a list of failure messages."""
    errors = []
    if record["attempted"] < 1:
        errors.append("no operation attempted")
    if record["failed"]:
        errors.append(f"{record['failed']} of {record['attempted']} operations "
                      "differ from the sequential oracle")
    if record["alloc_events"]:
        errors.append(f"{record['alloc_events']} heap allocations after "
                      "warm-up")
    missing = [m for m in wanted if m not in record["metrics"]]
    if missing:
        errors.append("missing metrics: " + ", ".join(missing))
    return [f"{record['workload']}: {e}" for e in errors]


def print_record(record):
    print(f"== {record['workload']} (seed {record['seed']}, "
          f"{record['threads']} threads): {record['attempted']} operations, "
          f"{record['failed']} failed")
    for name, m in record["metrics"].items():
        print(f"  {name:30s} {m['value']:>16.6g} {m['unit']:6s} n={m['n']}")


def wanted_metrics(spec, traced):
    return [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]


def run_set(args, spec):
    workloads = ([args.workload] if args.workload else
                 [w["name"] for w in spec["workloads"]])
    seconds = SMOKE_SECONDS if args.smoke else (
        args.seconds or spec["run_seconds"])
    extra = [f for f, on in (("--corrupt-expected", args.corrupt_expected),
                             ("--inject-alloc", args.inject_alloc)) if on]
    exe = build()
    modes = [False, True] if args.smoke else [args.trace == 1]
    records, errors = [], []
    for traced in modes:
        for w in workloads:
            trace_out = None
            if traced:
                trace_out = Path(args.trace_out or build_dir() / "traces" /
                                 f"{w}-seed{args.seed}.json")
                trace_out.parent.mkdir(parents=True, exist_ok=True)
            r = run_driver(exe, w, args.seed, seconds, trace_out, args.smoke,
                           extra)
            r["trace"] = int(traced)
            print_record(r)
            if trace_out:
                print(f"  trace written to {trace_out}")
            errors += check(r, wanted_metrics(spec, traced))
            records.append(r)
    if args.out:
        append_records(args.out, records)
    for e in errors:
        print("FAIL " + e, file=sys.stderr)
    # One workload: the metrics by name. Several: prefixed by workload.
    metrics = {}
    for r in records:
        prefix = "" if len(records) == 1 else r["workload"] + "."
        for name in wanted_metrics(spec, r["trace"]):
            if name in r["metrics"]:
                m = r["metrics"][name]
                metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if not errors else 1


def append_records(path, records):
    path = Path(path)
    old = json.loads(path.read_text()) if path.exists() else []
    path.write_text(json.dumps(old + records, indent=1) + "\n")


# --- comparison -------------------------------------------------------------

def spread(values):
    """Quartile distance over the median. Inclusive quartiles: with five
    runs the default (exclusive) method puts q3 next to the maximum, so a
    single outlying run would set the spread."""
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / abs(statistics.median(values))


def classify(a, b, better, bound):
    """Verdict for one (metric, workload): B against baseline A."""
    ma, mb = statistics.median(a), statistics.median(b)
    worse = (mb - ma) / abs(ma) if better == "lower" else (ma - mb) / abs(ma)
    if better == "lower":
        all_better, all_worse = max(b) < min(a), min(b) > max(a)
    else:
        all_better, all_worse = min(b) > max(a), max(b) < min(a)
    if max(spread(a), spread(b)) > bound:
        if all_better:
            return "improved", worse
        if all_worse and worse > bound:
            return "regressed", worse
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if -worse > bound:
        return "improved", worse
    return "unchanged", worse


def compare_bounds(spec):
    """(better, bound) of every end-to-end metric --compare judges."""
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    bounds.update(REPORTED_ONLY)
    return bounds


def compare(path_a, path_b, spec):
    """Prints one row per (metric, workload); returns the number of
    regressed and unresolved rows."""
    bounds = compare_bounds(spec)
    runs = []
    for path in (path_a, path_b):
        by_key = {}
        for r in json.loads(Path(path).read_text()):
            if r.get("trace"):
                continue
            for name, m in r["metrics"].items():
                if name in bounds:
                    by_key.setdefault((name, r["workload"]), []).append(
                        m["value"])
        runs.append(by_key)
    bad = 0
    print(f"{'metric':14s} {'workload':11s} {'median A':>12s} {'median B':>12s}"
          f" {'worse':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    for key in sorted(set(runs[0]) & set(runs[1])):
        a, b = runs[0][key], runs[1][key]
        better, bound = bounds[key[0]]
        verdict, worse = classify(a, b, better, bound)
        bad += verdict in ("regressed", "unresolved")
        print(f"{key[0]:14s} {key[1]:11s} {statistics.median(a):12.6g} "
              f"{statistics.median(b):12.6g} {worse:+8.1%} "
              f"{max(spread(a), spread(b)):7.1%} {bound:6.0%}  {verdict}"
              f"  (k={len(a)}/{len(b)})")
    return bad


# --- self-test --------------------------------------------------------------

def self_test(spec):
    """Shows that each gate can fail: a wrong expected result, a post-warm-up
    allocation, and a run_s regression beyond its bound must all be
    caught."""
    me = [sys.executable, str(Path(__file__).resolve())]
    ok = True

    def expect(label, cmd, want_fail):
        nonlocal ok
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=RUN_TIMEOUT_S * 4)
        last = (p.stdout.strip().splitlines() or ["{}"])[-1]
        failed = p.returncode != 0
        good = failed == want_fail
        ok &= good
        print(f"{'ok  ' if good else 'BAD '} {label}: exit {p.returncode}; "
              f"{last[:120]}")

    expect("clean smoke run passes", me + ["--smoke"], False)
    for w in ("md", "serve-zipf"):
        expect(f"wrong expected result fails ({w})",
               me + ["--smoke", "--workload", w, "--corrupt-expected"], True)
        expect(f"allocation after warm-up fails ({w})",
               me + ["--smoke", "--workload", w, "--inject-alloc"], True)

    # A regression must exceed the bound to count, so inject twice the
    # run_s bound (at least 20%).
    worse = max(0.2, 2 * compare_bounds(spec)["run_s"][1])
    base = [1.00, 1.01, 0.99, 1.02, 0.98]
    records = {
        "A": [{"workload": "md", "metrics": {"run_s": {"value": v}}}
              for v in base],
        "B": [{"workload": "md", "metrics": {"run_s": {"value": v * (1 + worse)}}}
              for v in base],
    }
    with tempfile.TemporaryDirectory(dir=build_dir()) as d:
        paths = []
        for name, recs in records.items():
            paths.append(Path(d) / f"{name}.json")
            paths[-1].write_text(json.dumps(recs))
        flagged = compare(paths[0], paths[1], spec) > 0
        clean = compare(paths[0], paths[0], spec) == 0
    print(f"{'ok  ' if flagged else 'BAD '} compare flags a {worse:.0%} run_s "
          "regression")
    print(f"{'ok  ' if clean else 'BAD '} compare accepts identical sets")
    ok &= flagged and clean
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                    help="run one workload (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measured seconds per workload (default: "
                         "BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run, per-layer metrics and a Chrome trace")
    ap.add_argument("--trace-out", help="trace file (default: in the build "
                                        "directory)")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, both modes, all code paths")
    ap.add_argument("--out", help="append the result records to this file")
    ap.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--corrupt-expected", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--inject-alloc", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # running driver instead of leaving it orphaned.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.compare:
        return 1 if compare(*args.compare, spec) else 0
    if args.self_test:
        build()
        return self_test(spec)
    return run_set(args, spec)


if __name__ == "__main__":
    sys.exit(main())
