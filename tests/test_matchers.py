"""Tests for the five matching strategies and their cost predictions."""

import ast
import hashlib
import itertools
import json
import math
import tracemalloc
from pathlib import Path

import pytest

from matchsim import matchers, sortsearch
from matchsim.experiments import (
    ALGORITHMS,
    NOISE_PRESETS,
    SweepConfig,
    noise_spec,
    run_matcher,
    run_sweep,
)
from matchsim.grover import (
    NoisyOracleSpec,
    ResourceLimitError,
    iteration_schedule,
    success_probability,
)
from matchsim.matchers import (
    NestedConfig,
    classical_sort_scan,
    classical_two_sort_merge,
    composed_success_probability,
    exhaustive_pairs,
    naive_grover_pairs,
    nested_grover_match,
    noisy_success_probability,
    predicted_total_cost,
    two_level_outcome_distribution,
)
from matchsim.model import CostLedger, MatchInstance, RunReport, generate_instance, seeded_rng
from matchsim.sortsearch import binary_membership, membership_probe_depth, sort_charges
from search_record import GroverProblem, run_record
from test_model import frozen_strided
from test_sortsearch import block_view


def brute_force_match(instance):
    """Independent ground-truth scan: plain double loop, no shortcuts."""
    for i, v1 in enumerate(instance.list1):
        for j, v2 in enumerate(instance.list2):
            if v1 == v2:
                return (i, j)
    return None


def reference_sort_scan(instance):
    """Forward scan of list2 against list1: the last hit wins, a miss is None."""
    first = {}
    for i, v in enumerate(instance.list1):
        first.setdefault(v, i)
    found = None
    for j, v in enumerate(instance.list2):
        if v in first:
            found = (first[v], j)
    return found


def reference_two_sort_merge(instance):
    """The step-by-step walk the closed form replaced: (found, ledger).

    Sorts (value, index) entries with ``sorted``, walks both lists one
    compare at a time, and charges every phase as the matcher does.
    """
    ledger = CostLedger()
    n = instance.n
    ledger.charge_batch("sort", l1_queries=n, mem_writes=n)
    ledger.charge_batch("sort", l2_queries=n, mem_writes=n)
    ledger.workspace_acquire(2 * n)
    reads, writes = sort_charges(n)
    for _ in range(2):  # each sort holds one n-cell buffer while it runs
        ledger.workspace_acquire(n)
        ledger.charge_batch("sort", mem_reads=reads, mem_writes=writes)
        ledger.workspace_release(n)
    sorted1 = sorted((v, i) for i, v in enumerate(instance.list1))
    sorted2 = sorted((v, j) for j, v in enumerate(instance.list2))
    found = None
    p1 = p2 = 0
    while p1 < n and p2 < n:
        v1, i1 = sorted1[p1]
        v2, j2 = sorted2[p2]
        if v1 == v2:
            found = (i1, j2)
            break
        if v1 < v2:
            p1 += 1
        else:
            p2 += 1
    # 2 reads per step: one step per advance, plus the one that matched
    steps = p1 + p2 + (found is not None)
    ledger.charge_batch("final_verify", mem_reads=2 * steps)
    ledger.workspace_release(2 * n)
    return found, ledger


def reference_nested_match(instance, config=None, ledger=None):
    """The record-based nested matcher that the plan-charged one replaced.

    Each search is a ``GroverProblem`` run through ``run_record``, which
    charges its rounds through the record; the inner record charges the
    verification probe once more.
    """
    config = config if config is not None else NestedConfig()
    ledger = ledger if ledger is not None else CostLedger()
    n = instance.n
    b, blocks, r_outer, r_inner = matchers._nested_shape(n, config.block_size)
    rng = seeded_rng(config.rng_seed)
    engine = "statevector" if config.engine == "statevector" else "analytic"

    def search(problem, iterations, noise=None):
        failure_prob = noise.failure_prob if noise is not None else 0.0
        return run_record(
            problem, iterations, rng, ledger, engine=engine, failure_prob=failure_prob
        )

    marked_block = instance.planted_pos1 // b
    outer_problem = GroverProblem(
        space_size=blocks,
        marked=(marked_block,),
        predicate=lambda beta: beta == marked_block,
        charge_fn=lambda led, times: matchers._outer_oracle_charge(led, times, b, r_inner),
        uncompute_factor=config.uncompute_factor,
    )
    outer = search(outer_problem, r_outer, config.noise)
    beta = outer.measured_index
    block = block_view(instance, beta, b, ledger)
    depth = membership_probe_depth(len(block))
    inner_problem = GroverProblem(
        space_size=n,
        marked=(instance.planted_pos2,) if beta == marked_block else (),
        predicate=lambda j: binary_membership(block, int(instance.values2[j])) is not None,
        charge_fn=lambda led, times: led.charge_batch(
            "inner_search", l2_queries=times, mem_reads=2 * depth * times
        ),
        uncompute_factor=config.uncompute_factor,
    )
    inner = search(inner_problem, r_inner)
    inner_problem.charge(ledger, 1)
    found = None
    if inner.verified:
        j_hat = inner.measured_index
        v_hat = int(instance.values2[j_hat])
        i_hat = binary_membership(block, v_hat)
        ledger.charge_batch("final_verify", l1_queries=1, l2_queries=1)
        if i_hat is not None and int(instance.values1[i_hat]) == v_hat:
            found = (i_hat, j_hat)
    ledger.workspace_release(len(block))
    return RunReport(
        found=found,
        correct=found is not None and found == (instance.planted_pos1, instance.planted_pos2),
        ledger=ledger,
        engine_stats={
            "algorithm": "nested",
            "block_size": b,
            "block_count": blocks,
            "outer_iterations": r_outer,
            "inner_iterations": r_inner,
            "outer_measured_block": beta,
            "outer_marked_block": marked_block,
            "outer_marked_mass": outer.predicted_success,
            "inner_verified": inner.verified,
            "outer_fire_pattern": outer.fire_pattern,
            "engine_outer": outer.engine,
            "engine_inner": inner.engine,
        },
        rng_seed=config.rng_seed,
        predicted_success=composed_success_probability(n, config),
    )


class TestExhaustivePairs:
    def test_tiny_hand_instance(self):
        inst = MatchInstance.from_lists([5, 1, 9], [2, 9, 4])
        report = exhaustive_pairs(inst)
        assert report.found == (2, 1)
        assert report.correct

    def test_agrees_with_double_loop(self):
        for seed in range(20):
            inst = generate_instance(64, seed)
            report = exhaustive_pairs(inst)
            assert report.found == brute_force_match(inst)
            assert report.correct

    def test_cost_is_full_pair_scan(self):
        for n in [2, 16, 64]:
            led = CostLedger()
            exhaustive_pairs(generate_instance(n, 0), led)
            assert led.l1_queries == n * n
            assert led.l2_queries == n * n
            assert n <= led.total_cost() <= 4 * n * n

    def test_no_workspace(self):
        led = CostLedger()
        exhaustive_pairs(generate_instance(32, 1), led)
        assert led.peak_workspace == 0


class TestClassicalSortScan:
    def test_small_instance_correct(self):
        inst = MatchInstance.from_lists([8, 3, 11, 6], [14, 6, 9, 2])
        report = classical_sort_scan(inst)
        assert report.found == (3, 1)
        assert report.correct

    def test_always_correct(self):
        for seed in range(25):
            inst = generate_instance(128, seed)
            report = classical_sort_scan(inst)
            assert report.correct
            assert report.found == brute_force_match(inst)

    def test_match_at_last_scan_position(self):
        values = list(range(100, 100 + 16))
        list2 = list(range(500, 500 + 15)) + [values[4]]
        inst = MatchInstance.from_lists(values, list2)
        report = classical_sort_scan(inst)
        assert report.found == (4, 15)

    def test_last_hit_wins_over_the_full_64_bit_range(self):
        # two shared values (not a valid instance): the later list2 position
        # is reported, and values past 2**63 order as unsigned
        top = 2**64 - 1
        inst = MatchInstance(
            list1=(2**63, top, 5, 1), list2=(top, 7, 2**63, 9),
            planted_value=top, planted_pos1=1, planted_pos2=0,
        )
        assert classical_sort_scan(inst).found == (0, 2)

    @pytest.mark.parametrize(
        "list1,list2",
        [
            # 7 repeats within list1 but never reaches list2
            ((7, 3, 7, 9), (1, 9, 4, 2)),
            # the only repeated value is list1's own: nothing is shared
            ((7, 3, 7, 9), (1, 8, 4, 2)),
            # every list1 value twice, three of them shared
            (tuple(3 * (k // 2) for k in range(512)), (*range(1000, 1509), 30, 600, 3)),
        ],
    )
    def test_lists_that_repeat_values_match_the_references(self, list1, list2):
        inst = MatchInstance(
            list1=list1, list2=list2,
            planted_value=list1[0], planted_pos1=0, planted_pos2=0,
        )
        assert classical_sort_scan(inst).found == reference_sort_scan(inst)
        assert exhaustive_pairs(inst).found == brute_force_match(inst)
        report = classical_two_sort_merge(inst)
        found, ledger = reference_two_sort_merge(inst)
        assert report.found == found
        assert report.ledger.as_dict() == ledger.as_dict()

    def test_missed_probe_reports_nothing(self):
        inst = MatchInstance(
            list1=(4, 8, 2**64 - 1), list2=(1, 9, 2**64 - 2),
            planted_value=4, planted_pos1=0, planted_pos2=0,
        )
        assert classical_sort_scan(inst).found is None

    def test_cost_bound(self):
        n = 1024
        led = CostLedger()
        classical_sort_scan(generate_instance(n, 3), led)
        assert led.total_cost() <= 16 * n * 10  # ~ n log n with small constant

    def test_cost_is_deterministic_across_instances(self):
        costs = set()
        for seed in range(5):
            led = CostLedger()
            classical_sort_scan(generate_instance(256, seed), led)
            costs.add(led.total_cost())
        assert len(costs) == 1

    def test_scans_every_probe_position(self):
        # l2 queries must cover the whole second list, match position aside
        led = CostLedger()
        classical_sort_scan(generate_instance(64, 1), led)
        assert led.l2_queries == 64

    def test_workspace_is_sorted_copy_plus_buffer(self):
        led = CostLedger()
        classical_sort_scan(generate_instance(256, 2), led)
        assert led.peak_workspace == 2 * 256
        assert led.live_workspace == 0


class TestClassicalTwoSortMerge:
    def test_small_instance_correct(self):
        inst = MatchInstance.from_lists([8, 3], [3, 14])
        report = classical_two_sort_merge(inst)
        assert report.found == (1, 0)

    def test_always_correct(self):
        for seed in range(25):
            inst = generate_instance(128, seed)
            report = classical_two_sort_merge(inst)
            assert report.correct
            assert report.found == brute_force_match(inst)

    def test_walk_charge_bound(self):
        n = 256
        led = CostLedger()
        classical_two_sort_merge(generate_instance(n, 7), led)
        assert led.phase_breakdown["final_verify"].mem_reads <= 2 * 2 * n

    def test_within_twice_of_sort_scan(self):
        n = 1024
        led_a, led_b = CostLedger(), CostLedger()
        classical_sort_scan(generate_instance(n, 1), led_a)
        classical_two_sort_merge(generate_instance(n, 1), led_b)
        assert led_b.total_cost() <= 2 * led_a.total_cost()

    def test_workspace_holds_both_copies(self):
        led = CostLedger()
        classical_two_sort_merge(generate_instance(128, 2), led)
        assert led.peak_workspace == 3 * 128  # two held copies + sort buffer
        assert led.live_workspace == 0


class TestNaiveGroverPairs:
    def test_certain_at_n_two(self):
        # pair space 4 with one marked: one iteration is exact
        for seed in range(10):
            inst = generate_instance(2, seed)
            report = naive_grover_pairs(inst, NestedConfig(rng_seed=seed))
            assert report.correct
            assert report.predicted_success == pytest.approx(1.0, abs=1e-12)

    def test_oracle_charges_match_schedule(self):
        inst = generate_instance(16, 1)
        r = iteration_schedule(256, 1)
        assert r == 12
        for u in (1, 2, 3):
            led = CostLedger()
            naive_grover_pairs(inst, NestedConfig(uncompute_factor=u, rng_seed=0), led)
            assert led.l1_queries + led.l2_queries == 2 * r * u
            assert led.total_cost() == 2 * r * u

    def test_success_rate_tracks_prediction(self):
        inst = generate_instance(8, 5)
        p = success_probability(64, 1, iteration_schedule(64, 1))
        hits = 0
        trials = 2000
        for t in range(trials):
            hits += naive_grover_pairs(inst, NestedConfig(rng_seed=t)).correct
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) < 4 * sigma

    def test_engines_agree_on_prediction(self):
        inst = generate_instance(16, 3)
        sv = naive_grover_pairs(inst, NestedConfig(engine="statevector", rng_seed=1))
        an = naive_grover_pairs(inst, NestedConfig(engine="analytic", rng_seed=1))
        assert sv.predicted_success == pytest.approx(an.predicted_success, abs=1e-12)

    def test_analytic_handles_large_pair_space(self):
        inst = generate_instance(4096, 2)
        led = CostLedger()
        report = naive_grover_pairs(inst, NestedConfig(engine="analytic", rng_seed=0), led)
        r = iteration_schedule(4096 * 4096, 1)
        assert led.total_cost() == 2 * r * 2
        assert report.predicted_success > 1 - 1e-6


class TestNestedGroverMatch:
    def test_block_and_iteration_geometry(self):
        report = nested_grover_match(generate_instance(256, 1))
        stats = report.engine_stats
        assert stats["block_size"] == 16
        assert stats["block_count"] == 16
        assert stats["outer_iterations"] == 3
        assert stats["inner_iterations"] == 12

    def test_non_square_size_uses_ceiling_block(self):
        report = nested_grover_match(generate_instance(20, 1))
        assert report.engine_stats["block_size"] == 5
        assert report.engine_stats["block_count"] == 4

    def test_found_pair_points_at_planted_value(self):
        for seed in range(50):
            inst = generate_instance(64, seed)
            report = nested_grover_match(inst, NestedConfig(rng_seed=seed))
            if report.found is not None:
                assert report.found == brute_force_match(inst)
                assert report.correct
            else:
                assert not report.correct

    def test_high_success_at_large_size(self):
        hits = 0
        for seed in range(200):
            inst = generate_instance(4096, seed)
            report = nested_grover_match(
                inst, NestedConfig(engine="analytic", rng_seed=seed)
            )
            hits += report.correct
        assert hits >= 180

    def test_success_rate_matches_composed_prediction(self):
        n = 16
        p = composed_success_probability(n)
        trials = 3000
        hits = 0
        for t in range(trials):
            inst = generate_instance(n, t % 20)
            hits += nested_grover_match(inst, NestedConfig(rng_seed=t)).correct
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) < 4 * sigma

    def test_smallest_size_is_coin_flip_then_certain(self):
        # n=4 splits into 2 blocks; zero outer iterations means the
        # block is sampled uniformly, and the inner stage is exact
        assert composed_success_probability(4) == pytest.approx(0.5, abs=1e-12)
        hits = 0
        trials = 2000
        for t in range(trials):
            hits += nested_grover_match(generate_instance(4, 9), NestedConfig(rng_seed=t)).correct
        assert abs(hits / trials - 0.5) < 4 * math.sqrt(0.25 / trials)

    def test_run_ledger_equals_predicted_ledger(self):
        # explicit block sizes and uncompute factors catch a plan cached
        # under too few of the knobs it depends on
        cases = [
            (16, 4, NestedConfig(rng_seed=1)),
            (64, 0, NestedConfig(rng_seed=1)),
            (256, 7, NestedConfig(rng_seed=1)),
            (1024, 2, NestedConfig(rng_seed=1)),
            (64, 0, NestedConfig(block_size=4, rng_seed=1)),
            (256, 0, NestedConfig(block_size=32, rng_seed=1)),
            (64, 0, NestedConfig(uncompute_factor=3, rng_seed=1)),
            (256, 0, NestedConfig(block_size=8, uncompute_factor=3, rng_seed=1)),
            (1024, 0, NestedConfig(uncompute_factor=3, rng_seed=1)),
        ]
        for n, seed, config in cases:
            inst = generate_instance(n, seed)
            led = CostLedger()
            report = nested_grover_match(inst, config, led)
            assert report.found is not None  # seeds chosen to verify
            predicted = predicted_total_cost(n, config)
            assert led.total_cost() == predicted.total_cost()
            assert led.l1_queries == predicted.l1_queries
            assert led.l2_queries == predicted.l2_queries
            assert led.mem_reads == predicted.mem_reads
            assert led.mem_writes == predicted.mem_writes
            assert led.peak_workspace == predicted.peak_workspace
            for phase in ("sort", "inner_search", "outer_search", "final_verify"):
                assert led.phase_breakdown[phase].as_dict() == (
                    predicted.phase_breakdown[phase].as_dict()
                )

    def test_unverified_run_skips_only_final_confirmation(self):
        # hunt for a seed whose final membership probe fails
        n = 16
        config_base = predicted_total_cost(n).total_cost()
        miss = None
        for t in range(4000):
            led = CostLedger()
            report = nested_grover_match(generate_instance(n, 3), NestedConfig(rng_seed=t), led)
            if report.found is None:
                miss = led
                break
        assert miss is not None
        assert miss.total_cost() == config_base - 2

    def test_outer_charge_formula(self):
        # each outer oracle evaluation: copy b cells, sort them, then
        # (r_inner + 1) membership probes at 1 query + 2 depth reads;
        # a short last block is still charged at the full b
        cases = [(256, 16, 2), (16, 1, 1), (16, 1, 3), (100, 7, 3), (1024, 33, 1), (64, 5, 3)]
        for n, b, u in cases:
            blocks = -(-n // b)
            r_inner = iteration_schedule(n, 1)
            r_outer = iteration_schedule(blocks, 1)
            assert r_outer > 0, (n, b)
            reads_sort, writes_sort = sort_charges(b)
            evaluations = r_outer * u
            led = CostLedger()
            config = NestedConfig(block_size=b, uncompute_factor=u, rng_seed=1)
            nested_grover_match(generate_instance(n, 1), config, led)
            assert led.phase_breakdown["outer_search"].as_dict() == {
                "l1_queries": b * evaluations,
                "l2_queries": (r_inner + 1) * evaluations,
                "mem_reads": (reads_sort + (r_inner + 1) * 2 * b.bit_length()) * evaluations,
                "mem_writes": (b + writes_sort) * evaluations,
            }, (n, b, u)

    def test_uncompute_factor_scales_outer_phase(self):
        inst = generate_instance(256, 5)
        led1, led2 = CostLedger(), CostLedger()
        nested_grover_match(inst, NestedConfig(uncompute_factor=1, rng_seed=0), led1)
        nested_grover_match(inst, NestedConfig(uncompute_factor=2, rng_seed=0), led2)
        assert led2.phase_total("outer_search") == 2 * led1.phase_total("outer_search")

    def test_peak_workspace_two_blocks(self):
        for n in [16, 64, 256, 1024, 4096]:
            led = CostLedger()
            nested_grover_match(generate_instance(n, 1), NestedConfig(rng_seed=1), led)
            b = math.isqrt(n - 1) + 1
            assert led.peak_workspace == 2 * b
            assert led.peak_workspace <= 4 * math.sqrt(n)
            assert led.live_workspace == 0

    def test_explicit_block_size_respected(self):
        led = CostLedger()
        report = nested_grover_match(
            generate_instance(64, 2), NestedConfig(block_size=4, rng_seed=0), led
        )
        assert report.engine_stats["block_size"] == 4
        assert report.engine_stats["block_count"] == 16
        assert led.peak_workspace == 8

    def test_engines_give_same_prediction_and_costs(self):
        inst = generate_instance(256, 8)
        led_sv, led_an = CostLedger(), CostLedger()
        sv = nested_grover_match(inst, NestedConfig(engine="statevector", rng_seed=2), led_sv)
        an = nested_grover_match(inst, NestedConfig(engine="analytic", rng_seed=2), led_an)
        assert sv.predicted_success == pytest.approx(an.predicted_success, abs=1e-12)
        assert led_sv.total_cost() == led_an.total_cost()

    @pytest.mark.parametrize("engine", ["statevector", "analytic"])
    @pytest.mark.parametrize("n", [2, 3, 16, 17, 64, 100, 1024])
    def test_equals_the_record_based_reference(self, n, engine, monkeypatch):
        monkeypatch.delenv("MATCH_SIM_STATEVECTOR_CAP", raising=False)
        grid = itertools.product((None, 1, 5, 1000), NOISE_PRESETS, (1, 3), range(10))
        for block_size, preset, u, seed in grid:
            inst = generate_instance(n, seed)
            config = NestedConfig(
                block_size=block_size, engine=engine, uncompute_factor=u,
                noise=noise_spec(preset, n), rng_seed=seed,
            )
            ledger, reference_ledger = CostLedger(), CostLedger()
            report = nested_grover_match(inst, config, ledger)
            expected = reference_nested_match(inst, config, reference_ledger)
            case = (block_size, preset, u, seed)
            assert json.dumps(report.as_dict()) == json.dumps(expected.as_dict()), case
            assert ledger.as_dict() == reference_ledger.as_dict(), case

    def test_refused_inner_statevector_leaves_the_reference_ledger(self, monkeypatch):
        # the outer search fits under the cap, the inner one does not
        monkeypatch.setenv("MATCH_SIM_STATEVECTOR_CAP", "64")
        inst = generate_instance(100, 4)
        config = NestedConfig(engine="statevector", noise=noise_spec("inv_n", 100), rng_seed=4)
        ledgers = []
        for matcher in (nested_grover_match, reference_nested_match):
            ledgers.append(CostLedger())
            with pytest.raises(ResourceLimitError):
                matcher(inst, config, ledgers[-1])
        assert ledgers[0].as_dict() == ledgers[1].as_dict()
        assert ledgers[0].phase_total("outer_search") > 0

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            NestedConfig(block_size=0)
        with pytest.raises(ValueError):
            NestedConfig(engine="magic")
        with pytest.raises(ValueError):
            NestedConfig(uncompute_factor=0)


class TestComposedPrediction:
    def test_composition_of_closed_forms(self):
        for n in [16, 64, 256, 4096]:
            b = math.isqrt(n - 1) + 1
            blocks = -(-n // b)
            expected = success_probability(
                blocks, 1, iteration_schedule(blocks, 1)
            ) * success_probability(n, 1, iteration_schedule(n, 1))
            assert composed_success_probability(n) == pytest.approx(expected, abs=1e-12)

    def test_failure_rate_shrinks_with_size(self):
        # schedule granularity wiggles the small sizes, so compare from
        # 256 up and only bound the trend
        failures = [1 - composed_success_probability(n) for n in [256, 4096, 65536]]
        assert failures == sorted(failures, reverse=True)
        assert failures[-1] < 0.01

    def test_noisy_outer_lowers_prediction(self):
        clean = composed_success_probability(256)
        noisy = composed_success_probability(
            256, NestedConfig(noise=NoisyOracleSpec(0.2))
        )
        assert noisy < clean

    def test_noisy_mixture_equals_pattern_enumeration(self):
        # independent oracle: explicit 2^r dropout patterns with the
        # closed-form angle advanced or reflected per round
        for blocks, eps in [(16, 0.1), (64, 1 / 64), (8, 0.5)]:
            r = iteration_schedule(blocks, 1)
            theta = math.asin(math.sqrt(1 / blocks))
            expected = 0.0
            for pattern in itertools.product([True, False], repeat=r):
                weight, angle = 1.0, theta
                for fires in pattern:
                    if fires:
                        weight *= 1 - eps
                        angle = angle + 2 * theta
                    else:
                        weight *= eps
                        angle = 2 * theta - angle
                expected += weight * math.sin(angle) ** 2
            assert noisy_success_probability(blocks, r, eps) == pytest.approx(
                expected, abs=1e-12
            )

    def test_full_dropout_collapses_to_uniform(self):
        assert noisy_success_probability(64, 6, 1.0) == pytest.approx(1 / 64, abs=1e-15)

    def test_zero_dropout_matches_clean_form(self):
        assert noisy_success_probability(64, 6, 0.0) == pytest.approx(
            success_probability(64, 1, 6), abs=1e-15
        )


PLAN_SIZES = [*range(2, 71), 255, 256, 1024, 4097]


class TestNestedPlan:
    @pytest.mark.parametrize("n", PLAN_SIZES)
    def test_plan_matches_uncached_recomputation(self, n):
        for block_size in (None, 1, 3, n, n + 5):
            shape = matchers._nested_shape(n, block_size)
            b = block_size if block_size is not None else math.isqrt(n - 1) + 1
            blocks = -(-n // b)
            r_outer, r_inner = iteration_schedule(blocks, 1), iteration_schedule(n, 1)
            assert shape == (b, blocks, r_outer, r_inner)
            for failure_prob in (0.0, 1 / n, 1 / math.sqrt(n), 1.0):
                plan = matchers._nested_plan(n, block_size, failure_prob)
                assert (plan.block_size, plan.blocks, plan.r_outer, plan.r_inner) == shape
                if failure_prob > 0.0:
                    p_outer = noisy_success_probability(blocks, r_outer, failure_prob)
                else:
                    p_outer = success_probability(blocks, 1, r_outer)
                expected = p_outer * success_probability(n, 1, r_inner)
                assert plan.predicted_success == expected
                noise = NoisyOracleSpec(failure_prob) if failure_prob > 0.0 else None
                for u in (1, 2, 3):
                    config = NestedConfig(block_size=block_size, uncompute_factor=u, noise=noise)
                    assert composed_success_probability(n, config) == expected

    def test_cold_and_warm_caches_give_the_same_outputs(self, tmp_path):
        # the criterion-8 sweep, once with every cache emptied, once warm
        out = tmp_path / "rows.csv"
        config = SweepConfig(
            algorithm="nested",
            n_values=(16, 64, 256),
            trials_per_n=5,
            base_seed=77,
            noise_preset="inv_n",
            output=str(out),
        )
        outputs = []
        for attempt in ("cold", "warm"):
            if attempt == "cold":
                matchers._nested_plan.cache_clear()
            run_sweep(config)
            outputs.append((out.read_bytes(), out.with_suffix(".json").read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] and outputs[0][1]

    def test_a_warm_call_recomputes_nothing(self, monkeypatch):
        calls = []

        def counting(name):
            fn = getattr(matchers, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return wrapper

        for name in ("iteration_schedule", "noisy_success_probability"):
            monkeypatch.setattr(matchers, name, counting(name))
        inst = generate_instance(16, 3)
        config = NestedConfig(noise=NoisyOracleSpec(1 / 16), rng_seed=0)
        matchers._nested_plan.cache_clear()
        nested_grover_match(inst, config)
        assert calls  # the warm-up built the plan through the wrapped names
        calls.clear()
        # the block-oracle charge asks sort_charges every call, as a cache hit
        misses = matchers.sort_charges.cache_info().misses
        nested_grover_match(inst, NestedConfig(noise=NoisyOracleSpec(1 / 16), rng_seed=1))
        assert calls == []
        assert matchers.sort_charges.cache_info().misses == misses

    @pytest.mark.parametrize("engine", ["analytic", "statevector"])
    def test_each_call_builds_one_search_per_stage(self, monkeypatch, engine):
        built = []
        search = matchers.Search

        def counting(*args):
            built.append(args[0])
            return search(*args)

        inst = generate_instance(64, 5)
        config = NestedConfig(engine=engine, noise=noise_spec("inv_n", inst.n), rng_seed=1)
        nested_grover_match(inst, config)  # warm the plan before counting
        monkeypatch.setattr(matchers, "Search", counting)
        nested_grover_match(inst, config)
        assert built == [8, 64]  # the outer search over 8 blocks, the inner one over list2
        built.clear()
        naive_grover_pairs(inst, config)
        assert built == [64 * 64]

    def test_predicted_total_cost_reads_no_cache(self, monkeypatch):
        def never(*args):
            raise AssertionError("predicted_total_cost read a cache")

        monkeypatch.setattr(matchers, "_nested_plan", never)
        for n in (16, 64, 1024):
            assert predicted_total_cost(n).total_cost() > 0


# (n, block_size, seed) -> (block count, marked block, P(marked block, verified),
# P(marked block, unverified), P(each other block, unverified)), recorded from
# the dense-matrix form of two_level_outcome_distribution (n x n prep,
# diffusion and per-block rotation matrices) before it applied its reflections
# as row operations.  Every unmarked block read exactly the same probability.
TWO_LEVEL_PINS = {
    (2, None, 0): (1, 0, 0.5000000000000001, 0.4999999999999999, None),
    (2, None, 1): (1, 0, 0.5000000000000001, 0.4999999999999999, None),
    (2, None, 2): (1, 0, 0.5000000000000001, 0.4999999999999999, None),
    (2, 1, 0): (2, 0, 0.25, 0.2499999999999999, 0.4999999999999999),
    (2, 1, 1): (2, 1, 0.25, 0.2499999999999999, 0.4999999999999999),
    (2, 1, 2): (2, 1, 0.25, 0.2499999999999999, 0.4999999999999999),
    (2, 3, 0): (1, 0, 0.5000000000000001, 0.4999999999999999, None),
    (2, 3, 1): (1, 0, 0.5000000000000001, 0.4999999999999999, None),
    (2, 3, 2): (1, 0, 0.5000000000000001, 0.4999999999999999, None),
    (3, None, 0): (2, 0, 0.46296296296296297, 0.03703703703703692, 0.4999999999999999),
    (3, None, 1): (2, 1, 0.46296296296296297, 0.03703703703703692, 0.4999999999999999),
    (3, None, 2): (2, 1, 0.46296296296296297, 0.03703703703703692, 0.4999999999999999),
    (3, 1, 0): (3, 0, 0.8166946095615508, 0.06533556876492386, 0.05898491083676263),
    (3, 1, 1): (3, 2, 0.8166946095615506, 0.06533556876492383, 0.058984910836762744),
    (3, 1, 2): (3, 2, 0.8166946095615508, 0.06533556876492386, 0.05898491083676265),
    (3, 3, 0): (1, 0, 0.9259259259259262, 0.07407407407407385, None),
    (3, 3, 1): (1, 0, 0.9259259259259262, 0.07407407407407385, None),
    (3, 3, 2): (1, 0, 0.9259259259259262, 0.07407407407407385, None),
    (5, None, 0): (2, 0, 0.4839999999999999, 0.01600000000000001, 0.4999999999999999),
    (5, None, 1): (2, 1, 0.4839999999999999, 0.01600000000000001, 0.4999999999999999),
    (5, None, 2): (2, 1, 0.4839999999999999, 0.01600000000000001, 0.4999999999999999),
    (5, 1, 0): (5, 0, 0.9132344319999998, 0.03018956800000002, 0.014143999999999981),
    (5, 1, 1): (5, 4, 0.913234432, 0.030189568000000028, 0.014144000000000016),
    (5, 1, 2): (5, 4, 0.913234432, 0.030189568000000028, 0.014144000000000006),
    (5, 3, 0): (2, 0, 0.4839999999999999, 0.01600000000000001, 0.4999999999999999),
    (5, 3, 1): (2, 1, 0.4839999999999999, 0.01600000000000001, 0.4999999999999999),
    (5, 3, 2): (2, 1, 0.4839999999999999, 0.01600000000000001, 0.4999999999999999),
    (16, None, 0): (4, 2, 0.9334303635987451, 0.03755886369617655, 0.009670257568359384),
    (16, None, 1): (4, 1, 0.9334303635987451, 0.03755886369617655, 0.00967025756835939),
    (16, None, 2): (4, 1, 0.9334303635987451, 0.03755886369617655, 0.009670257568359368),
    (16, 1, 0): (16, 11, 0.8907117505869206, 0.03583997536130924, 0.004896551603451382),
    (16, 1, 1): (16, 4, 0.8907117505869206, 0.03583997536130924, 0.004896551603451387),
    (16, 1, 2): (16, 7, 0.890711750586921, 0.035839975361309256, 0.004896551603451366),
    (16, 3, 0): (6, 3, 0.8447636516626785, 0.03399114072736766, 0.02424904152199073),
    (16, 3, 1): (6, 1, 0.8447636516626787, 0.03399114072736767, 0.024249041521990734),
    (16, 3, 2): (6, 2, 0.8447636516626785, 0.03399114072736766, 0.02424904152199072),
    (17, None, 0): (4, 1, 0.9642536599770413, 0.020289966014554517, 0.0051521246694678545),
    (17, None, 1): (4, 1, 0.9642536599770415, 0.020289966014554524, 0.0051521246694678615),
    (17, None, 2): (4, 1, 0.9642536599770415, 0.020289966014554524, 0.0051521246694678615),
    (17, 1, 0): (17, 9, 0.940627163653817, 0.019792813836306492, 0.002473751406867312),
    (17, 1, 1): (17, 7, 0.9406271636538176, 0.019792813836306503, 0.002473751406867318),
    (17, 1, 2): (17, 8, 0.9406271636538176, 0.019792813836306503, 0.002473751406867321),
    (17, 3, 0): (6, 3, 0.8737561486366605, 0.018385704194545653, 0.021571629433758684),
    (17, 3, 1): (6, 2, 0.873756148636661, 0.018385704194545664, 0.021571629433758687),
    (17, 3, 2): (6, 2, 0.8737561486366607, 0.01838570419454566, 0.021571629433758687),
    (64, None, 0): (8, 1, 0.939293655494249, 0.0032180357761710707, 0.00821261553279698),
    (64, None, 1): (8, 0, 0.9392936554942493, 0.0032180357761710716, 0.008212615532796985),
    (64, None, 2): (8, 6, 0.9392936554942493, 0.0032180357761710716, 0.008212615532796992),
    (64, 1, 0): (64, 13, 0.9898451418728704, 0.003391226014126451, 0.00010735923988898391),
    (64, 1, 1): (64, 2, 0.9898451418728702, 0.0033912260141264502, 0.0001073592398889832),
    (64, 1, 2): (64, 48, 0.9898451418728699, 0.0033912260141264494, 0.0001073592398889836),
    (64, 3, 0): (22, 4, 0.9889061670202671, 0.0033880090705743176, 0.0003669439956742028),
    (64, 3, 1): (22, 0, 0.9889061670202669, 0.0033880090705743168, 0.00036694399567420357),
    (64, 3, 2): (22, 16, 0.9889061670202679, 0.0033880090705743202, 0.0003669439956742034),
    (100, None, 0): (10, 5, 0.9897472447421654, 0.004629419643123862, 0.0006248150682973537),
    (100, None, 1): (10, 3, 0.9897472447421685, 0.004629419643123877, 0.0006248150682974079),
    (100, None, 2): (10, 1, 0.9897472447421662, 0.004629419643123867, 0.0006248150682973572),
    (100, 1, 0): (100, 52, 0.9861444632388275, 0.004612568080717361, 9.336332000347356e-05),
    (100, 1, 1): (100, 37, 0.986144463238844, 0.004612568080717438, 9.336332000347354e-05),
    (100, 1, 2): (100, 19, 0.9861444632388302, 0.004612568080717374, 9.336332000347235e-05),
    (100, 3, 0): (34, 17, 0.9904646304183194, 0.004632775125403329, 0.00014856346837006256),
    (100, 3, 1): (34, 12, 0.9904646304183276, 0.004632775125403367, 0.00014856346837007126),
    (100, 3, 2): (34, 6, 0.9904646304183207, 0.004632775125403335, 0.00014856346837006267),
}


class TestTwoLevelDistribution:
    def test_distribution_sums_to_one(self):
        for n, seed in [(4, 0), (16, 3), (64, 5)]:
            dist = two_level_outcome_distribution(generate_instance(n, seed))
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)

    def test_tiny_size_is_uniform_over_blocks(self):
        # two blocks, zero outer rounds: block measurement is uniform
        inst = generate_instance(4, 2)
        dist = two_level_outcome_distribution(inst)
        marked = inst.planted_pos1 // 2
        assert dist[(marked, True)] == pytest.approx(0.5, abs=1e-12)
        assert dist[(1 - marked, False)] == pytest.approx(0.5, abs=1e-12)

    def test_close_to_dropout_model_at_sixteen(self):
        # the coherent run's uncompute leak should look like per-round
        # dropout at exactly the inner miss rate
        n = 16
        inst = generate_instance(n, 7)
        r_inner = iteration_schedule(n, 1)
        p_inner = success_probability(n, 1, r_inner)
        eps = 1 - p_inner
        blocks = 4
        r_outer = iteration_schedule(blocks, 1)
        p_outer = noisy_success_probability(blocks, r_outer, eps)
        dist = two_level_outcome_distribution(inst)
        marked = inst.planted_pos1 // 4
        assert dist[(marked, True)] == pytest.approx(p_outer * p_inner, abs=1e-6)

    @pytest.mark.parametrize("n,block_size,seed", list(TWO_LEVEL_PINS))
    def test_matches_the_pinned_distributions(self, n, block_size, seed):
        blocks, marked, verified, unverified, other = TWO_LEVEL_PINS[n, block_size, seed]
        expected = {(i, False): other for i in range(blocks) if i != marked}
        expected[marked, True] = verified
        expected[marked, False] = unverified
        dist = two_level_outcome_distribution(
            generate_instance(n, seed), NestedConfig(block_size=block_size)
        )
        assert set(dist) == set(expected)
        for key, p in expected.items():
            assert dist[key] == pytest.approx(p, abs=1e-10), key

    def test_respects_joint_cap(self):
        # 64 blocks of 64 over 4096 list2 indices: 2^18 cells
        assert matchers.MAX_JOINT_CELLS == 1 << 16
        with pytest.raises(ResourceLimitError):
            two_level_outcome_distribution(generate_instance(4096, 0))

    def test_memory_is_bounded_by_the_joint_state(self):
        # 24 blocks of 24 over 576 list2 indices: 13 824 cells, 108 KiB a
        # state; n x n operators alone would take 2.5 MiB each
        inst = generate_instance(576, 0)
        tracemalloc.start()
        try:
            two_level_outcome_distribution(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


def _digest(texts):
    return hashlib.sha256("\n".join(texts).encode("utf-8")).hexdigest()


RUNS = {
    "sort_scan": lambda inst, seed: classical_sort_scan(inst),
    "two_sort": lambda inst, seed: classical_two_sort_merge(inst),
    "nested": lambda inst, seed: nested_grover_match(inst, NestedConfig(rng_seed=seed)),
}

# sha256 of the reports over seeds 0-2, recorded while the kernels still
# merged, walked and charged cell by cell; the closed forms must match
REPORT_PINS = [
    ("sort_scan", 2, "00e22724b2e383841d4fb7f02f054155092d5123e7c7bbbb08daf51798b6aa56"),
    ("sort_scan", 3, "f575a322834ed16adf5f698b965e218fb39dc567b660c33a3faf006265bdde32"),
    ("sort_scan", 16, "f05d85a16ec458c03ffb14b6fed8f2fdb6be27793a0c077e72f88448339c1ea7"),
    ("sort_scan", 17, "c2a2d74914195a63c95f3782c43210f2fd0519a89dc13bf51577f77f3d801718"),
    ("sort_scan", 100, "e06e89ea19dc5cb2757cc96b72c3abcf2fdd63185de35f063c192a6cce4e3e1c"),
    ("sort_scan", 1024, "5074eac5dee39560b884e11dad0c04ef8ebc42934ac8b69bebd43c65771fd6b1"),
    ("sort_scan", 4097, "7859526eff954ea6283ee042011240d9cd5255790f7707af630c79e2f5cb0c86"),
    ("two_sort", 2, "b43a7b0a5cd9994be855836e31e20e2a2230123eebadfb5b59e593fe1131a3bf"),
    ("two_sort", 3, "765f2fbe60d39717048a0afb5a024fe0f6a99d0f374caac7e82d3e24ff4644de"),
    ("two_sort", 16, "cc5445e7d12fa3599a57bf81fc61f5e9769bbec240ae80d37526d813e95b380f"),
    ("two_sort", 17, "5aa2f6b4f6849b80964bbba4737e7ea5b480e29082884446f4bee5f89154ee0a"),
    ("two_sort", 100, "26570abdea6aa3d40afe9770a4bb72da78ee88e3b0e011683899859425663bcb"),
    ("two_sort", 1024, "468171d7ffeefe7defcd44eefbc253dac50fe0dd51262941ec0b444aa4478993"),
    ("two_sort", 4097, "4079249a1f8ef0056bc6269c107772f2fb3ce7a21c8962fd7b1eb3cdefed1071"),
    ("nested", 2, "508d3726ea079149285411daa2b2e5e48c8e8a418b415be2a3d6a7be33756994"),
    ("nested", 3, "3781f8d5ae15a1acf07a869dbfe1f115c952c2417ff6b04311b9066270f46f06"),
    ("nested", 16, "ec729b3f826f9f6c9a0e8110001cab4357444ac476c4d9eb69f27aac86af212a"),
    ("nested", 17, "72b0046ddb1e204442e0864dd7574ec8a87a524dc051830b36f877de225d9804"),
    ("nested", 100, "815c8a1a264661433b197ba8a6e67f87bfc4b9b94b5e415cc0db7dab9106c2a2"),
    ("nested", 1024, "2058801c512eaed263046453bc09cfa209898c521c3c78075b46f9f46433e67f"),
    ("nested", 4097, "f7ae9324633a86c1c07b43750f64c230a9a51b45e843b958c2f89fd475f35ce1"),
]

# sha256 of every block's sorted entries and ledger on instance seed 0
BLOCK_VIEW_PINS = [
    (16, 4, "37fc7241b0d760a35eac3fce93e51c42ad4c88a25892620c8e5443579f16d5ad"),
    (17, 5, "4892e12fde511839d4395a5a39cddb65960934e1e998e3649283036b261b118c"),
    (100, 7, "45c7cdae6f11ec1f5314d1c052fb8a96563f30d96177227cea0a9981e73d3269"),
    (1024, 32, "7cf601666a103a2b6569fa8a59f39cfa86f4dcc17846869e5b93f91998f2cbda"),
    (4097, 65, "9519777bc62df76b3e58da6a0b95ec5126165331ebf746f2f1f35d5cb9c9cd14"),
]


class TestPinnedOutputs:
    @pytest.mark.parametrize("algorithm,n,digest", REPORT_PINS)
    def test_reports_pinned(self, algorithm, n, digest):
        reports = [RUNS[algorithm](generate_instance(n, seed), seed) for seed in range(3)]
        texts = [json.dumps(report.as_dict(), sort_keys=True) for report in reports]
        assert _digest(texts) == digest

    @pytest.mark.parametrize("n", sorted({n for algorithm, n, _ in REPORT_PINS}))
    def test_two_sort_matches_reference_walk(self, n):
        for seed in range(3):
            inst = generate_instance(n, seed)
            report = classical_two_sort_merge(inst)
            found, ledger = reference_two_sort_merge(inst)
            assert report.found == found
            assert report.ledger.as_dict() == ledger.as_dict()
            assert classical_sort_scan(inst).found == reference_sort_scan(inst)

    @pytest.mark.parametrize("n,b,digest", BLOCK_VIEW_PINS)
    def test_block_view_ledgers_pinned(self, n, b, digest):
        inst = generate_instance(n, 0)
        texts = []
        for index in range(-(-n // b)):
            led = CostLedger()
            view = block_view(inst, index, b, led)
            led.workspace_release(len(view))
            texts.append(json.dumps([list(view), led.as_dict()], sort_keys=True))
        assert _digest(texts) == digest


class TestArrayPaths:
    @pytest.mark.parametrize("algorithm", sorted(RUNS) + ["exhaustive"])
    def test_matchers_never_build_the_int_tuples(self, algorithm):
        # list1/list2 are built on first use; one tolist per run would cost
        # more than the kernels at large n
        run = RUNS.get(algorithm, lambda inst, seed: exhaustive_pairs(inst))
        for n in (2, 17, 64 if algorithm == "exhaustive" else 1024):
            inst = generate_instance(n, 4)
            run(inst, 4)
            assert "list1" not in vars(inst) and "list2" not in vars(inst)

    @pytest.mark.parametrize(
        "matcher", [exhaustive_pairs, classical_sort_scan, classical_two_sort_merge],
        ids=["exhaustive", "sort_scan", "two_sort"],
    )
    def test_classical_reports_equal_on_read_only_strided_views(self, matcher):
        # the twin search reads 32-bit keys through a contiguous view
        for n, seed in ((2, 0), (17, 1), (64, 2), (1024, 3)):
            inst = generate_instance(n, seed)
            strided = MatchInstance(
                frozen_strided(inst.values1), frozen_strided(inst.values2),
                inst.planted_value, inst.planted_pos1, inst.planted_pos2, seed,
            )
            for values in (strided.values1, strided.values2):
                assert values.strides == (16,) and not values.flags.writeable
            assert matcher(strided).as_dict() == matcher(inst).as_dict()
            assert strided == inst


class TestNothingSortedOrProbed:
    # what a matcher must never call: it charges sorts and probes by closed forms
    NEVER_CALLED = ("block_view", "sort_instrumented", "binary_membership", "argsort")

    @pytest.mark.parametrize("engine", ["statevector", "analytic"])
    def test_no_matcher_sorts_or_probes(self, engine, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a matcher sorted or probed")

        monkeypatch.setattr(sortsearch, "sort_instrumented", never)
        monkeypatch.setattr(matchers, "sort_instrumented", never)
        monkeypatch.setattr(matchers, "binary_membership", never)
        for algorithm, n, seed in itertools.product(ALGORITHMS, (2, 17, 64), range(3)):
            config = NestedConfig(engine=engine, noise=noise_spec("inv_n", n), rng_seed=seed)
            run_matcher(algorithm, generate_instance(n, seed), config, CostLedger())

    def test_no_matcher_calls_a_sort_or_probe_by_name(self):
        tree = ast.parse(Path(matchers.__file__).read_text())
        called = {
            node.func.attr if isinstance(node.func, ast.Attribute) else node.func.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Attribute, ast.Name))
        }
        assert called.isdisjoint(self.NEVER_CALLED), sorted(called & set(self.NEVER_CALLED))


class CountingLedger(CostLedger):
    """A ledger that counts every call made to it."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def charge(self, *args, **kwargs):
        self.calls += 1
        super().charge(*args, **kwargs)

    def charge_batch(self, *args, **kwargs):
        self.calls += 1
        super().charge_batch(*args, **kwargs)

    def workspace_acquire(self, cells):
        self.calls += 1
        super().workspace_acquire(cells)

    def workspace_release(self, cells):
        self.calls += 1
        super().workspace_release(cells)


class TestChargeCounts:
    @pytest.mark.parametrize(
        "matcher,calls",
        [(classical_sort_scan, 7), (classical_two_sort_merge, 11)],
        ids=["sort_scan", "two_sort"],
    )
    def test_classical_ledger_calls_independent_of_n(self, matcher, calls):
        # each sort and the probe or walk phase charge once, whatever n
        for n in (2, 17, 1024):
            led = CountingLedger()
            matcher(generate_instance(n, 5), led)
            assert led.calls == calls, n
