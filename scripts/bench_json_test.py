#!/usr/bin/env python3
"""Proves every bench_json.py gate can fail.

Feeds crafted RECORD streams and Google-Benchmark JSON through
bench_json.record_entry, the function that turns a bench's exit status and
output into its document entry: a complete stream must read "ok", and each
gate (a missing matrix cell, a missing key, a non-positive measurement, a
nonzero or missing alloc_events) must turn it non-ok.

Run: python3 scripts/bench_json_test.py (ctest runs it as bench_json_test).
"""

import contextlib
import copy
import io
import itertools
import json
import unittest

import bench_json

BACKENDS = ("static-hash", "growable-log")


def cells(dims, **fields):
    """One record per combination of the dims' values, each with fields."""
    return [dict(zip(dims, combo), **fields)
            for combo in itertools.product(*dims.values())]


SUSTAINED = {
    "cells": cells({"backend": BACKENDS, "skew": ("uniform", "zipf-1.1"),
                    "batch": (128, 512)},
                   predict="off", duration_s=1.25, requests=4096,
                   req_per_s=3276.8, fork_joins=512, p50_ns=9000,
                   p99_ns=40000, p999_ns=90000, doom_rate=0.25, commits=384,
                   rollbacks=128, alloc_events=0),
    "total": [{"fork_joins": 4096, "duration_s": 10.0, "alloc_events": 0}],
}
DISPATCH = {
    "cells": cells({"kernel": ("fib", "fill"),
                    "mode": ("switch", "direct-threaded"),
                    "backend": BACKENDS},
                   wall_ns=885502, iters=20000, instrs=140012,
                   ns_per_instr=6.32, back_edges=19999, commits=1,
                   rollbacks=0),
    "region_heat": [{"kernel": "fib", "mode": "switch",
                     "backend": "static-hash", "region": "fib:loop",
                     "count": 19999}],
}
FIG11 = {
    "cells": cells({"backend": BACKENDS,
                    "ratio_pct": (1, 5, 10, 20, 50, 100),
                    "predict": ("off", "on")},
                   epochs=800, conflicts=8, commits=792, rollbacks=8,
                   predicted_reads=0, predictor_hits=0,
                   predictor_mispredicts=0, saved_rollbacks=0,
                   wall_ns=4971650, epochs_per_s=160912.4),
    "total": [{"cells": 24, "wall_ns": 130000000}],
}
RECORD_BENCHES = {
    "sustained": ("bench_sustained_load", SUSTAINED),
    "dispatch": ("bench_interp_dispatch", DISPATCH),
    "fig11": ("bench_fig11_rollback_sensitivity", FIG11),
}


def gbench_run(name, backend=None, **counters):
    run = {"name": name, "family_index": 0, "per_family_instance_index": 0,
           "run_name": name, "run_type": "iteration", "repetitions": 1,
           "repetition_index": 0, "threads": 1, "iterations": 1000,
           "real_time": 3000.0, "cpu_time": 2990.0, "time_unit": "ns"}
    if backend:
        run["label"] = backend
    run.update(counters)
    return run


MICRO = [gbench_run("BM_ForkJoinRoundTrip", alloc_events=0, commits=1.0)] + [
    gbench_run(f"BM_BufferedLoadStore/backend:{i}", backend, alloc_events=0,
               validated_words=1024.0, items_per_second=6e7)
    for i, backend in enumerate(BACKENDS)]
ABLATION = [gbench_run(f"BM_SpecBufferStoreLoad/backend:{i}/n:64", backend,
                       resize_events=0.0, avg_probe_len=0.0)
            for i, backend in enumerate(BACKENDS)]


def render(sections):
    return "".join(
        " ".join(["RECORD", f"section={section}",
                  *(f"{k}={v}" for k, v in record.items())]) + "\n"
        for section, records in sections.items() for record in records)


def gbench(runs):
    return json.dumps({"context": {"host_name": "test"}, "benchmarks": runs})


def entry(section, name, stdout, returncode=0):
    with contextlib.redirect_stderr(io.StringIO()):
        return bench_json.record_entry(section, name, returncode, stdout, "")


class CompleteStreams(unittest.TestCase):
    def test_record_benches_are_ok(self):
        for section, (name, sections) in RECORD_BENCHES.items():
            e = entry(section, name, render(sections))
            self.assertEqual(e["status"], "ok", (name, e.get("problems")))
            self.assertEqual(len(e["cells"]), len(sections["cells"]))
        e = entry("sustained", "bench_sustained_load", render(SUSTAINED))
        self.assertEqual(e["total"], SUSTAINED["total"][0])

    def test_gbench_runs_are_ok_and_keep_counters_only(self):
        e = entry("micro", "bench_micro_runtime", gbench(MICRO))
        self.assertEqual(e["status"], "ok", e.get("problems"))
        run = e["runs"][1]
        self.assertEqual(run["backend"], "static-hash")
        self.assertEqual(run["validated_words"], 1024.0)
        self.assertNotIn("iterations", run)
        self.assertNotIn("label", run)
        e = entry("ablation", "bench_ablation_buffer_map", gbench(ABLATION))
        self.assertEqual(e["status"], "ok", e.get("problems"))

    def test_figure_bench_keeps_rows_and_speedup_gate(self):
        out = ("md          2      0.010     0.008     1.25\n"
               "RECORD section=speedup_gate fig=3 status=fail "
               "worst_best=0.76 floor=1.05\n")
        e = entry("figs", "bench_fig3_compute_speedup", out, returncode=1)
        self.assertEqual(e["status"], "failed")
        self.assertEqual(e["speedup_gate"], {"fig": 3, "status": "fail",
                                             "worst_best": 0.76,
                                             "floor": 1.05})
        self.assertEqual(e["rows"], [{"label": "md",
                                      "values": [2.0, 0.01, 0.008, 1.25]}])


class Gates(unittest.TestCase):
    def assert_not_ok(self, section, name, stdout, why):
        e = entry(section, name, stdout)
        self.assertNotEqual(e["status"], "ok", why)

    def mutate(self, section, edit, why):
        """Applies edit to a copy of a complete stream; must turn it bad."""
        name, sections = RECORD_BENCHES[section]
        sections = copy.deepcopy(sections)
        edit(sections)
        self.assert_not_ok(section, name, render(sections), why)

    def test_missing_matrix_cell(self):
        # Every cell, the sustained batch-512 ones included, is required.
        for section, (_, sections) in RECORD_BENCHES.items():
            for i in range(len(sections["cells"])):
                self.mutate(section, lambda s: s["cells"].pop(i),
                            f"{section} without cell {i}")
        for section, name, runs in (
                ("micro", "bench_micro_runtime", MICRO),
                ("ablation", "bench_ablation_buffer_map", ABLATION)):
            lost = [r for r in runs if r.get("label") != "growable-log"]
            self.assert_not_ok(section, name, gbench(lost),
                               f"{name} without growable-log")

    def test_missing_key(self):
        required = {
            "sustained": ("duration_s", "req_per_s", "p50_ns", "p99_ns",
                          "p999_ns", "doom_rate", "alloc_events"),
            "dispatch": ("wall_ns", "iters", "instrs", "ns_per_instr",
                         "back_edges", "commits", "rollbacks"),
            "fig11": ("epochs", "conflicts", "commits", "rollbacks",
                      "predicted_reads", "predictor_hits",
                      "predictor_mispredicts", "saved_rollbacks", "wall_ns",
                      "epochs_per_s"),
        }
        for section, keys in required.items():
            for key in keys:
                self.mutate(section, lambda s: s["cells"][-1].pop(key),
                            f"{section} cell without {key}")
        self.mutate("sustained", lambda s: s.pop("total"), "no total")
        self.mutate("sustained", lambda s: s["total"][0].pop("duration_s"),
                    "total without duration_s")

    def test_non_positive_measurement(self):
        for section, key in (("sustained", "duration_s"),
                             ("dispatch", "wall_ns"), ("fig11", "wall_ns"),
                             ("fig11", "epochs")):
            for bad in (0, -1.5):
                self.mutate(section,
                            lambda s: s["cells"][2].update({key: bad}),
                            f"{section} {key}={bad}")
        self.mutate("sustained",
                    lambda s: s["total"][0].update(duration_s=0.0),
                    "total duration_s=0")

    def test_alloc_events_nonzero_or_missing(self):
        self.mutate("sustained",
                    lambda s: s["cells"][5].update(alloc_events=3),
                    "sustained alloc_events=3")
        for bad in (1, 1e-6, None):
            runs = copy.deepcopy(MICRO)
            if bad is None:
                del runs[0]["alloc_events"]
            else:
                runs[2]["alloc_events"] = bad
            self.assert_not_ok("micro", "bench_micro_runtime", gbench(runs),
                               f"micro alloc_events={bad}")

    def test_exit_status_and_unreadable_output(self):
        name, sections = RECORD_BENCHES["fig11"]
        e = entry("fig11", name, render(sections), returncode=1)
        self.assertEqual(e["status"], "failed")
        e = entry("micro", "bench_micro_runtime", gbench(MICRO)[:-7])
        self.assertEqual(e["status"], "failed")
        self.assert_not_ok("sustained", "bench_sustained_load",
                           render(SUSTAINED).replace("RECORD", "SUSTAINED"),
                           "no RECORD lines")


if __name__ == "__main__":
    unittest.main()
