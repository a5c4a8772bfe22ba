#!/usr/bin/env python3
"""Tests of the benchmark itself, at tiny scale (tables of a few thousand
rows). Run from the repository root:

    python3 perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
ROWS = "4000"


def run_bench(*extra, cwd=ROOT):
    """Runs run.py; returns (exit code, report, result) where report and
    result are the last two stdout lines parsed (None when absent)."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--seconds", "1", "--rows", ROWS, *extra]
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    report = result = None
    if len(lines) >= 2:
        report = json.loads(lines[-2])["report"]
        result = json.loads(lines[-1])
    return proc.returncode, report, result


class CrashTolerance(unittest.TestCase):
    def check_killed(self, workload, op, clients=1):
        code, report, result = run_bench("--workload", workload, "--seed", "5",
                                         "--trace", "0", "--kill-at-op",
                                         str(op))
        self.assertEqual(code, 0)
        self.assertEqual(report["restarts"], 1)
        crashed = report["failures"].get("crash", 0)
        # The killed op, plus whatever the other clients had in flight.
        self.assertGreaterEqual(crashed, 1)
        self.assertLessEqual(crashed, clients)
        self.assertEqual(report["failures"], {"crash": crashed})
        self.assertEqual(result["failed"], crashed)
        self.assertTrue(result["correct"])
        self.assertEqual(result["attempted"],
                         report["cycles"] * len(report["program"]["mix"]))

    def test_killed_child_restarts_and_completes(self):
        self.check_killed("query_cold", 3)

    def test_killed_ingest_child_replays_acknowledged_appends(self):
        # Op 3 is the second APPEND and dies unacknowledged: the restarted
        # child replays batch 0 only, and the reads after it are checked
        # against the naive result over the rows actually applied.
        self.check_killed("ingest_mixed", 3)

    def test_killed_two_client_child(self):
        self.check_killed("serve_warm", 4, clients=2)


class CorrectnessGate(unittest.TestCase):
    def test_corrupted_digest_is_a_failed_operation(self):
        for workload in ("cli_batch", "shard_scatter", "ingest_mixed"):
            with self.subTest(workload=workload):
                code, report, result = run_bench(
                    "--workload", workload, "--seed", "6", "--trace", "0",
                    "--corrupt-op", "2")
                self.assertEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], 1)
                self.assertEqual(report["failures"], {"mismatch": 1})


class TracedSpans(unittest.TestCase):
    def test_distributed_query_holds_only_its_own_subqueries(self):
        # Two cycles, the first untraced: the traced queries must not take
        # the worker records of the untraced cycle before them.
        code, report, result = run_bench("--workload", "shard_scatter",
                                         "--seed", "8", "--trace", "1")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        with open(os.path.join(ROOT, report["trace_file"]),
                  encoding="utf-8") as f:
            events = json.load(f)["traceEvents"]
        subqueries = {}
        for event in events:
            if event["name"] == "dist.subquery":
                parent = event["args"]["parent"]
                subqueries[parent] = subqueries.get(parent, 0) + 1
        queries = [e for e in events if e["name"] == "dist.query"]
        self.assertTrue(queries)
        for query in queries:
            expected = 1 if query["args"]["regime"] == "fallback" else 2
            self.assertEqual(subqueries.get(query["args"]["id"], 0),
                             expected)


class MetricNames(unittest.TestCase):
    def test_emitted_metrics_match_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as f:
            spec = json.load(f)
        expected = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    code, report, result = run_bench(
                        "--workload", workload, "--seed", "7", "--trace",
                        str(trace))
                    self.assertEqual(code, 0)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed",
                                      "metrics"})
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, expected[trace])
                    if trace:
                        self.assertTrue(report["trace_valid"])


class BareCheckout(unittest.TestCase):
    def test_fails_without_library_sources(self):
        bare = os.path.join(ROOT, ".bench_build", "perfbench-bare")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 "query_cold", "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=bare, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
