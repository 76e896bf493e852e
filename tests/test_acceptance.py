"""Acceptance gate: every headline claim checked at its stated tolerance.

Each criterion prints one PASS/FAIL line (visible with `pytest -s`) and
then asserts, so a red run still reports every measured number.
"""

import math
import time

import numpy as np
import pytest

from matchsim.experiments import SweepConfig, run_sweep
from matchsim.grover import (
    NoisyOracleSpec,
    Search,
    iteration_schedule,
    run_analytic,
    run_statevector,
    success_probability,
)
from matchsim.matchers import (
    NestedConfig,
    classical_sort_scan,
    classical_two_sort_merge,
    exhaustive_pairs,
    naive_grover_pairs,
    nested_grover_match,
)
from matchsim.model import generate_instance
from references import (
    composed_success_probability,
    failure_probability,
    two_level_outcome_distribution,
)

SCALING_SIZES = (4**4, 4**5, 4**6, 4**7, 4**8)


def _report(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    return ok


@pytest.fixture(scope="module")
def scaling_sweeps():
    """Shared analytic-engine sweeps over 4^4 .. 4^8 for criteria 4 and 5."""
    sweeps = {}
    for algo in ("sort_scan", "nested", "naive_grover"):
        config = SweepConfig(
            algorithm=algo,
            n_values=SCALING_SIZES,
            trials_per_n=3,
            base_seed=2024,
            engine="analytic",
        )
        sweeps[algo] = run_sweep(config)
    return sweeps


def test_criterion_1_engine_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    checked = 0
    sizes = list(range(2, 65)) + [128, 256, 512, 1024]
    for m in sizes:
        for k in (0, 1, 2, 4):
            if k > m:
                continue
            r_top = (iteration_schedule(m, k) if k else 0) + 2
            search = Search(m, tuple(range(k)))
            for r in range(r_top + 1):
                # the marked mass is the second element of a run's result
                sv = run_statevector(search, r, rng.random(1).tolist())[1]
                an = run_analytic(search, r, rng.random(1).tolist())[1]
                worst = max(worst, abs(sv - an))
                checked += 1
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    assert _report(
        1, "engine equivalence", ok,
        f"{checked} grid points, max |Δp|={worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_scheduled_failure_bound():
    start = time.perf_counter()
    worst_margin = -1.0
    for exp in range(2, 17):
        m = 1 << exp
        r = iteration_schedule(m, 1)
        failure = 1.0 - success_probability(m, 1, r)
        worst_margin = max(worst_margin, failure * m)
    elapsed = time.perf_counter() - start
    ok = worst_margin <= 1.0 and elapsed < 1.0
    assert _report(
        2, "failure bound", ok,
        f"max failure*M={worst_margin:.3f} over M=4..2^16, {elapsed:.2f}s",
    )


def test_failure_probability_at_huge_spaces():
    # 1 - success_probability cancels to 0 here; cos^2 keeps the digits
    # (reference values from 60-digit arithmetic)
    expected = {56: 0.53829647973, 60: 0.0042578717359, 62: 0.75602200798}
    for exp, want in expected.items():
        m = 1 << exp
        r = iteration_schedule(m, 1)
        scaled = failure_probability(m, 1, r) * m
        assert scaled <= 1.0
        assert scaled == pytest.approx(want, rel=1e-6)


def test_criterion_3_correctness_oracle():
    start = time.perf_counter()
    mismatches = 0
    runs = 0
    for n in (4, 16, 64, 256):
        for seed in range(100):
            inst = generate_instance(n, seed)
            truth = exhaustive_pairs(inst).found
            assert truth is not None
            for name, report in (
                ("sort_scan", classical_sort_scan(inst)),
                ("two_sort", classical_two_sort_merge(inst)),
                ("naive", naive_grover_pairs(inst, NestedConfig(rng_seed=seed))),
                ("nested", nested_grover_match(inst, NestedConfig(rng_seed=seed))),
            ):
                runs += 1
                if name in ("sort_scan", "two_sort"):
                    if report.found != truth:
                        mismatches += 1
                elif report.found is not None and report.found != truth:
                    mismatches += 1

    # the nested misses must track the composed prediction
    n = 256
    trials = 600
    p = composed_success_probability(n)
    hits = 0
    for t in range(trials):
        inst = generate_instance(n, t % 100)
        hits += nested_grover_match(inst, NestedConfig(rng_seed=10_000 + t)).correct
    rate = hits / trials
    sigma = math.sqrt(p * (1 - p) / trials)
    rate_ok = abs(rate - p) <= 3 * sigma
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and rate_ok and elapsed < 120.0
    assert _report(
        3, "correctness oracle", ok,
        f"{runs} runs, {mismatches} mismatches; nested rate {rate:.4f} "
        f"vs predicted {p:.4f} (3σ={3 * sigma:.4f}), {elapsed:.1f}s",
    )


def test_criterion_4_scaling_separation(scaling_sweeps):
    start = time.perf_counter()
    slopes = {}
    for algo, result in scaling_sweeps.items():
        agg = result.aggregate()
        slopes[algo] = (
            agg["fit_log_normalized"]["slope"],
            agg["fit"]["slope"],
        )
    sort_slope = slopes["sort_scan"][0]
    nested_slope = slopes["nested"][0]
    naive_slope = slopes["naive_grover"][1]
    elapsed = time.perf_counter() - start
    ok = (
        0.95 <= sort_slope <= 1.05
        and 0.70 <= nested_slope <= 0.85
        and 0.95 <= naive_slope <= 1.05
        and elapsed < 300.0
    )
    assert _report(
        4, "scaling separation", ok,
        f"sort_scan {sort_slope:.4f} in [0.95,1.05], "
        f"nested {nested_slope:.4f} in [0.70,0.85], "
        f"naive {naive_slope:.4f} in [0.95,1.05], {elapsed:.1f}s",
    )


def test_criterion_5_workspace_bound(scaling_sweeps):
    worst_ratio = 0.0
    for row in scaling_sweeps["nested"].rows:
        worst_ratio = max(worst_ratio, row.peak_workspace / (4 * math.sqrt(row.n)))
    ok = worst_ratio <= 1.0
    assert _report(
        5, "workspace bound", ok,
        f"max peak/(4*sqrt(n))={worst_ratio:.3f} over nested sweep rows",
    )


def test_criterion_6_noise_degradation():
    start = time.perf_counter()
    n = 4096
    blocks = 64
    trials = 10_000
    ideal = composed_success_probability(n)
    instances = [generate_instance(n, seed) for seed in range(50)]

    hits = 0
    for t in range(trials):
        report = nested_grover_match(
            instances[t % 50],
            NestedConfig(
                engine="analytic", noise=NoisyOracleSpec(1.0 / n), rng_seed=t
            ),
        )
        hits += report.correct
    noisy_rate = hits / trials
    degradation = ideal - noisy_rate
    sigma = math.sqrt(ideal * (1 - ideal) / trials)
    bound = 5.0 * n ** (-0.75) + 3 * sigma
    degradation_ok = degradation <= bound

    # full dropout: the outer stage must collapse to uniform block sampling
    outer_hits = 0
    for t in range(trials):
        report = nested_grover_match(
            instances[t % 50],
            NestedConfig(engine="analytic", noise=NoisyOracleSpec(1.0), rng_seed=t),
        )
        stats = report.engine_stats
        outer_hits += stats["outer_measured_block"] == stats["outer_marked_block"]
    outer_rate = outer_hits / trials
    sigma_u = math.sqrt((1 / blocks) * (1 - 1 / blocks) / trials)
    collapse_ok = abs(outer_rate - 1 / blocks) <= 3 * sigma_u

    elapsed = time.perf_counter() - start
    ok = degradation_ok and collapse_ok and elapsed < 300.0
    assert _report(
        6, "noise degradation", ok,
        f"degradation {degradation:.5f} <= {bound:.5f}; "
        f"full-dropout outer rate {outer_rate:.5f} vs 1/B={1 / blocks:.5f} "
        f"(3σ={3 * sigma_u:.5f}), {elapsed:.1f}s",
    )


def test_criterion_7_two_level_cross_check():
    start = time.perf_counter()
    worst_tv = 0.0
    samples = 100_000
    for n in (4, 16):
        inst = generate_instance(n, 0)
        exact = two_level_outcome_distribution(inst)
        # the semantic run models the coherent leak as outer dropout at
        # exactly the closed-form inner miss rate
        eps = 1.0 - success_probability(n, 1, iteration_schedule(n, 1))
        noise = NoisyOracleSpec(eps) if eps > 0 else None
        counts: dict[tuple[int, bool], int] = {}
        for t in range(samples):
            report = nested_grover_match(
                inst, NestedConfig(noise=noise, rng_seed=t)
            )
            key = (report.engine_stats["outer_measured_block"], report.found is not None)
            counts[key] = counts.get(key, 0) + 1
        keys = set(exact) | set(counts)
        tv = 0.5 * sum(
            abs(exact.get(k, 0.0) - counts.get(k, 0) / samples) for k in keys
        )
        worst_tv = max(worst_tv, tv)
    elapsed = time.perf_counter() - start
    ok = worst_tv <= 0.01
    assert _report(
        7, "two-level cross-check", ok,
        f"max TV={worst_tv:.4f} over n in (4, 16) at {samples} samples, {elapsed:.1f}s",
    )


def test_criterion_8_reproducible_outputs(tmp_path):
    outputs = []
    for attempt in range(2):
        out = tmp_path / f"attempt{attempt}" / "rows.csv"
        config = SweepConfig(
            algorithm="nested",
            n_values=(16, 64, 256),
            trials_per_n=5,
            base_seed=77,
            noise_preset="inv_n",
            output=str(out),
        )
        run_sweep(config)
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] and len(outputs[0]) > 0
    assert _report(
        8, "reproducible outputs", ok,
        f"{len(outputs[0])} CSV bytes identical across reruns",
    )
