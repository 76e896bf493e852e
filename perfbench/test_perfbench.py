"""Self-tests of the benchmark harness.

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
from checks import check_trial  # noqa: E402
from layers import Tracer, layer_metrics  # noqa: E402

from matchsim import (  # noqa: E402
    CostLedger,
    NestedConfig,
    NoisyOracleSpec,
    SweepConfig,
    classical_sort_scan,
    classical_two_sort_merge,
    generate_instance,
    naive_grover_pairs,
    nested_grover_match,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    """A clock that returns the scripted readings in order."""

    def __init__(self, readings):
        self.readings = iter(readings)

    def __call__(self) -> int:
        return next(self.readings)


class TestSelfTime(unittest.TestCase):
    def test_self_time_subtracts_child_spans(self):
        # outer 0..100 holds inner spans 10..40 and 50..60, the first of
        # which holds a grandchild 20..25
        tracer = Tracer(clock=FakeClock([0, 10, 20, 25, 40, 50, 60, 100]))
        leaf = tracer.wrap(lambda: None, "leaf")
        mid = tracer.wrap(lambda nested: leaf() if nested else None, "mid")
        outer = tracer.wrap(lambda: (mid(True), mid(False)), "outer")
        outer()
        self.assertEqual(tracer.stats["outer"], {"calls": 1, "self_ns": 100 - 30 - 10})
        self.assertEqual(tracer.stats["mid"], {"calls": 2, "self_ns": 30 - 5 + 10})
        self.assertEqual(tracer.stats["leaf"], {"calls": 1, "self_ns": 5})

    def test_failing_span_is_still_closed(self):
        tracer = Tracer(clock=FakeClock([0, 2, 7, 10]))

        def boom():
            raise KeyError("x")

        inner = tracer.wrap(boom, "inner")

        def body():
            try:
                inner()
            except KeyError:
                pass

        tracer.wrap(body, "outer")()
        self.assertEqual(tracer.stats["outer"]["self_ns"], 10 - 5)
        self.assertEqual(tracer.stats["inner"]["self_ns"], 5)

    def test_self_times_and_unattributed_add_up_to_wall(self):
        stats = {
            "experiments.trial": {"calls": 1, "self_ns": 300_000_000},
            "sortsearch.sort": {"calls": 2, "self_ns": 500_000_000, "cells": 64},
            "model.ledger": {"calls": 9, "self_ns": 150_000_000},
        }
        metrics = layer_metrics(stats, 1.0, [])
        self_times = [v for k, v in metrics.items() if k.endswith("self_s")]
        total = sum(self_times) + metrics["experiments.trial_overhead_s"]
        self.assertAlmostEqual(total + metrics["trace.unattributed_s"], 1.0)
        self.assertAlmostEqual(metrics["trace.unattributed_s"], 0.05)
        self.assertEqual(metrics["sortsearch.sort.cells"], 64)

    def test_installed_restores_the_original(self):
        owner = SimpleNamespace(fn=lambda x: x + 1)
        original = owner.fn
        tracer = Tracer()
        with tracer.installed([(owner, "fn", "layer", None)]):
            self.assertIsNot(owner.fn, original)
            self.assertEqual(owner.fn(1), 2)
        self.assertIs(owner.fn, original)
        self.assertEqual(tracer.stats["layer"]["calls"], 1)


class TestStatistics(unittest.TestCase):
    def test_tail_has_ten_samples_beyond_it(self):
        samples = [float(i) for i in range(40, 0, -1)]
        level, value = run.tail(samples)
        self.assertEqual(value, 30.0)
        self.assertEqual(sum(s > value for s in samples), 10)
        self.assertAlmostEqual(level, 75.0)

    def test_tail_falls_back_to_median_with_few_samples(self):
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (50.0, 2.0))
        self.assertEqual(run.tail([float(i) for i in range(21)]), (50.0, 10.0))

    def test_scale_divides_by_mean_slowness(self):
        self.assertAlmostEqual(speed.scale(3.0, 1.0, 2.0), 2.0)


class TestCompare(unittest.TestCase):
    def test_ratios_against_base(self):
        def doc(metrics):
            return {
                "workloads": {
                    "w": {"metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()}}
                }
            }

        rows = run.compare_rows(
            doc({"a": 2.0, "zero": 0.0, "gone": 1.0}), doc({"a": 3.0, "zero": 1.0, "new": 4.0})
        )
        by_metric = {row[1]: row for row in rows}
        self.assertEqual(by_metric["a"], ("w", "a", "s", 2.0, 3.0, 1.5))
        self.assertIsNone(by_metric["zero"][5])
        self.assertEqual(by_metric["gone"][3:], (1.0, None, None))
        self.assertEqual(by_metric["new"][3:], (None, 4.0, None))
        self.assertIn("1.500", run.format_compare(rows))


def _trial(algorithm: str, n: int, seed: int, noise=None):
    """One trial as run_sweep would run it, without going through a sweep."""
    config = SweepConfig(algorithm=algorithm, n_values=(n,))
    instance = generate_instance(n, seed)
    ledger = CostLedger()
    nested = NestedConfig(noise=noise, rng_seed=seed + 1)
    if algorithm == "sort_scan":
        report = classical_sort_scan(instance, ledger)
    elif algorithm == "two_sort":
        report = classical_two_sort_merge(instance, ledger)
    elif algorithm == "naive_grover":
        report = naive_grover_pairs(instance, nested, ledger)
    else:
        report = nested_grover_match(instance, nested, ledger)
    row = SimpleNamespace(
        algorithm=algorithm,
        n=n,
        trial=0,
        seed=seed,
        success=int(report.correct),
        total_cost=ledger.total_cost(),
    )
    return config, row, instance, report


class TestOutputCheck(unittest.TestCase):
    CASES = [
        (algorithm, n, seed)
        for algorithm in ("sort_scan", "two_sort", "naive_grover", "nested")
        for n in (16, 64)
        for seed in range(4)
    ]

    def test_correct_trials_pass(self):
        for case in self.CASES:
            with self.subTest(case=case):
                self.assertEqual(check_trial(*_trial(*case)), [])

    def test_ledger_off_by_one_is_caught(self):
        for case in self.CASES:
            config, row, instance, report = _trial(*case)
            for delta in (-1, 1):
                with self.subTest(case=case, delta=delta):
                    row.total_cost += delta
                    self.assertEqual(len(check_trial(config, row, instance, report)), 1)
                    row.total_cost -= delta

    def test_success_with_wrong_pair_is_caught(self):
        config, row, instance, report = _trial("sort_scan", 16, 1)
        report.found = (instance.planted_pos1, (instance.planted_pos2 + 1) % 16)
        self.assertEqual(len(check_trial(config, row, instance, report)), 1)

    def test_unverified_nested_run_is_predicted(self):
        # with every outer round dropped the measured block is uniform, so
        # most runs miss the planted one and skip the final queries
        unverified = 0
        for seed in range(8):
            config, row, instance, report = _trial("nested", 64, seed, NoisyOracleSpec(1.0))
            unverified += not report.engine_stats["inner_verified"]
            self.assertEqual(check_trial(config, row, instance, report), [])
        self.assertGreater(unverified, 0)


class TestContract(unittest.TestCase):
    def test_refuses_a_statevector_cap_override(self):
        with mock.patch.dict(os.environ, {run.CAP_ENV: "64"}):
            with self.assertRaisesRegex(run.BenchError, run.CAP_ENV):
                run.run_benchmark("noisy_small_batch", 1, 1.0, 0)

    def _run(self, trace: int) -> dict:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "noisy_small_batch",
             "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=180,
        )
        self.assertEqual(out.returncode, 0, out.stderr)
        return json.loads(out.stdout.strip().splitlines()[-1])

    def test_result_line_carries_every_metric(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            with self.subTest(trace=trace):
                result = self._run(trace)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                want = {m["name"]: m["unit"] for m in BENCHMARK[key]}
                got = {name: m["unit"] for name, m in result["metrics"].items()}
                self.assertEqual(got, want)


if __name__ == "__main__":
    unittest.main()
