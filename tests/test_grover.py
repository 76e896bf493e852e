"""Tests for schedules, success probabilities, and the three engines."""

import itertools
import math

import numpy as np
import pytest

from matchsim.grover import (
    GroverProblem,
    NoisyOracleSpec,
    ResourceLimitError,
    ScheduleUndefinedError,
    failure_probability,
    iteration_schedule,
    noisy_success_probability,
    run_analytic,
    run_noisy_outer,
    run_statevector,
    statevector_amplitudes,
    success_probability,
)
from matchsim.matchers import NestedConfig, naive_grover_pairs, nested_grover_match
from matchsim.model import CostLedger, generate_instance


def first_k_problem(m, k, uncompute_factor=1, charge=None):
    return GroverProblem(
        space_size=m,
        marked=tuple(range(k)),
        predicate=lambda i: i < k,
        charge_fn=charge,
        uncompute_factor=uncompute_factor,
    )


def textbook_iteration_count(space_size, marked_count):
    """Reference round count: the usual floor((pi / 4) * sqrt(M / k))."""
    if space_size < 1:
        raise ValueError("space_size must be at least 1")
    if marked_count == 0:
        raise ScheduleUndefinedError("iteration count undefined with no marked elements")
    if not 0 < marked_count <= space_size:
        raise ValueError("marked_count must lie in [0, space_size]")
    return math.floor((math.pi / 4.0) * math.sqrt(space_size / marked_count))


def schedule_by_search(m, k):
    """Independent schedule oracle: argmin over a wide explicit range."""
    theta = math.asin(math.sqrt(k / m))
    best_r, best_err = 0, abs(theta - math.pi / 2)
    for r in range(1, 2000):
        err = abs((2 * r + 1) * theta - math.pi / 2)
        if err < best_err - 1e-15:
            best_r, best_err = r, err
    return best_r


def dense_rotation_step(m, k, fires):
    """Independent one-round matrix: diffusion times (optional) flip."""
    oracle = np.eye(m)
    for i in range(k):
        oracle[i, i] = -1.0
    diffusion = np.full((m, m), 2.0 / m) - np.eye(m)
    return diffusion @ oracle if fires else diffusion


class TestSchedules:
    @pytest.mark.parametrize(
        "m,k,expected",
        [(1, 1, 0), (2, 1, 0), (4, 1, 1), (16, 1, 3), (64, 1, 6), (256, 1, 12)],
    )
    def test_known_small_schedules(self, m, k, expected):
        assert iteration_schedule(m, k) == expected

    def test_large_schedule_value(self):
        assert iteration_schedule(1024, 1) == 25

    @pytest.mark.parametrize("m", [2, 3, 5, 17, 100, 1024, 4096, 65536])
    def test_agrees_with_explicit_minimization(self, m):
        for k in [1, 2, 3]:
            if k <= m:
                assert iteration_schedule(m, k) == schedule_by_search(m, k)

    def test_zero_marked_raises_schedule_error(self):
        with pytest.raises(ScheduleUndefinedError):
            iteration_schedule(64, 0)
        with pytest.raises(ScheduleUndefinedError):
            textbook_iteration_count(64, 0)

    def test_invalid_counts_raise(self):
        with pytest.raises(ValueError):
            iteration_schedule(4, 5)
        with pytest.raises(ValueError):
            iteration_schedule(0, 1)
        with pytest.raises(ValueError):
            noisy_success_probability(0, 3, 0.1)
        with pytest.raises(ValueError):
            noisy_success_probability(16, -2, 0.1)

    def test_matches_textbook_count_for_single_marked(self):
        for exp in range(2, 17):
            m = 1 << exp
            assert iteration_schedule(m, 1) == textbook_iteration_count(m, 1)

    def test_scheduled_failure_below_sampling_floor(self):
        # stopping at the scheduled count may miss, but never more often
        # than a bare uniform sample would
        for exp in range(2, 17):
            m = 1 << exp
            r = iteration_schedule(m, 1)
            assert 1.0 - success_probability(m, 1, r) <= 1.0 / m

    def test_full_marking_needs_no_iterations(self):
        assert iteration_schedule(8, 8) == 0
        assert success_probability(8, 8, 0) == 1.0


class TestSuccessProbability:
    @pytest.mark.parametrize("m,k", [(4, 1), (10, 3), (100, 7)])
    def test_zero_iterations_is_uniform_sampling(self, m, k):
        assert success_probability(m, k, 0) == pytest.approx(k / m, abs=1e-12)

    def test_single_marked_in_four_peaks_exactly(self):
        assert success_probability(4, 1, 1) == pytest.approx(1.0, abs=1e-12)

    def test_two_element_space_overshoots(self):
        assert success_probability(2, 1, 1) == pytest.approx(0.5, abs=1e-12)

    def test_zero_marked_is_zero(self):
        assert success_probability(16, 0, 5) == 0.0

    def test_matches_independent_matrix_power(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = int(rng.integers(2, 40))
            k = int(rng.integers(1, m + 1))
            r = int(rng.integers(0, 12))
            step = dense_rotation_step(m, k, fires=True)
            state = np.linalg.matrix_power(step, r) @ np.full(m, 1 / math.sqrt(m))
            expected = float(np.sum(state[:k] ** 2))
            assert success_probability(m, k, r) == pytest.approx(expected, abs=1e-9)

    def test_noiseless_noisy_formula_is_the_clean_one_bit_for_bit(self):
        # the nested plan computes its outer success with the noisy formula only
        for m in range(1, 5000):
            for r in range(6):
                assert noisy_success_probability(m, r, 0.0) == success_probability(m, 1, r)


class TestStatevectorEngine:
    def test_certain_hit_at_four(self):
        out = run_statevector(first_k_problem(4, 1), 1, np.random.default_rng(0))
        assert out.predicted_success == pytest.approx(1.0, abs=1e-12)
        assert out.measured_index == 0
        assert out.verified

    def test_marked_mass_matches_closed_form(self):
        out = run_statevector(first_k_problem(8, 1), 2, np.random.default_rng(1))
        expected = success_probability(8, 1, 2)
        assert out.predicted_success == pytest.approx(expected, abs=1e-9)

    def test_no_marked_elements_stays_uniform(self):
        prob = first_k_problem(16, 0)
        amps = statevector_amplitudes(prob, 3)
        assert np.allclose(amps, 1 / 4.0, atol=1e-12)
        out = run_statevector(prob, 3, np.random.default_rng(2))
        assert out.predicted_success == 0.0
        assert not out.verified

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = int(rng.integers(2, 64))
            k = int(rng.integers(0, m + 1))
            r = int(rng.integers(0, 10))
            amps = statevector_amplitudes(first_k_problem(m, k), r)
            assert float(np.sum(amps * amps)) == pytest.approx(1.0, abs=1e-12)

    def test_measurement_follows_amplitudes(self):
        prob = first_k_problem(8, 1)
        r = 1
        p_hit = success_probability(8, 1, r)
        rng = np.random.default_rng(7)
        hits = sum(
            run_statevector(prob, r, rng).verified for _ in range(4000)
        )
        sigma = math.sqrt(p_hit * (1 - p_hit) / 4000)
        assert abs(hits / 4000 - p_hit) < 4 * sigma

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("MATCH_SIM_STATEVECTOR_CAP", "1024")
        prob = first_k_problem(2048, 1)
        with pytest.raises(ResourceLimitError) as err:
            run_statevector(prob, 1, np.random.default_rng(0))
        assert "2048" in str(err.value)

    def test_oracle_charges_per_iteration_times_uncompute(self):
        prob = first_k_problem(
            64, 1, uncompute_factor=2,
            charge=lambda led, t: led.charge("l2_queries", t, "inner_search"),
        )
        led = CostLedger()
        run_statevector(prob, 6, np.random.default_rng(0), led)
        assert led.l2_queries == 6 * 2


class TestAnalyticEngine:
    def test_equivalent_to_statevector_across_grid(self):
        rng = np.random.default_rng(11)
        for m in [2, 3, 5, 8, 17, 64, 257]:
            for k in [0, 1, 2, 4]:
                if k > m:
                    continue
                r_top = (iteration_schedule(m, k) if k else 2) + 2
                for r in range(r_top + 1):
                    prob = first_k_problem(m, k)
                    sv = run_statevector(prob, r, rng)
                    an = run_analytic(prob, r, rng)
                    assert an.predicted_success == pytest.approx(
                        sv.predicted_success, abs=1e-9
                    )

    def test_outcome_rate_matches_prediction(self):
        prob = first_k_problem(16, 1)
        r = 1
        p = success_probability(16, 1, r)
        rng = np.random.default_rng(5)
        hits = sum(run_analytic(prob, r, rng).verified for _ in range(4000))
        sigma = math.sqrt(p * (1 - p) / 4000)
        assert abs(hits / 4000 - p) < 4 * sigma

    def test_unmarked_misses_spread_over_unmarked(self):
        prob = first_k_problem(4, 1)
        rng = np.random.default_rng(9)
        seen = set()
        for _ in range(500):
            out = run_analytic(prob, 0, rng)
            if not out.verified:
                seen.add(out.measured_index)
        assert seen == {1, 2, 3}

    def test_charges_equal_statevector_charges(self):
        def charge(led, t):
            led.charge("l1_queries", t, "outer_search")

        led_sv, led_an = CostLedger(), CostLedger()
        prob = first_k_problem(32, 2, uncompute_factor=3, charge=charge)
        run_statevector(prob, 4, np.random.default_rng(0), led_sv)
        run_analytic(prob, 4, np.random.default_rng(0), led_an)
        assert led_sv.total_cost() == led_an.total_cost() == 4 * 3

    def test_huge_space_without_amplitudes(self):
        m = 1 << 32
        prob = GroverProblem(space_size=m, marked=(7,), predicate=lambda i: i == 7)
        r = iteration_schedule(m, 1)
        out = run_analytic(prob, r, np.random.default_rng(0))
        assert out.predicted_success > 1 - 1e-9
        assert out.measured_index == 7

    def test_choose_engine_auto_respects_cap(self, monkeypatch):
        # auto runs the reduced engine at every size, so the amplitude cap
        # bounds only runs that name the statevector engine
        monkeypatch.setenv("MATCH_SIM_STATEVECTOR_CAP", "64")
        for n in (4, 8, 16):  # pair spaces 16 and 64 fit the cap, 256 does not
            report = naive_grover_pairs(generate_instance(n, 1), NestedConfig(rng_seed=0))
            assert report.engine_stats["engine"] == "analytic"
        for engine in ("auto", "analytic"):
            for n in (16, 256):  # n = 16's searches fit the cap, n = 256's inner one does not
                stats = nested_grover_match(
                    generate_instance(n, 1), NestedConfig(engine=engine, rng_seed=0)
                ).engine_stats
                assert stats["engine_outer"] == stats["engine_inner"] == "analytic"
        with pytest.raises(ResourceLimitError):
            naive_grover_pairs(
                generate_instance(16, 1), NestedConfig(engine="statevector", rng_seed=0)
            )

    def test_same_seed_measures_same_index_as_statevector(self):
        # both engines turn the same uniform draws into the same index
        for m in [1, 2, 3, 7, 16, 33, 100]:
            for marked in [(), (0,), (m - 1,), (m // 2,), (0, m // 3, m - 1)]:
                marked = tuple(sorted(set(marked)))
                prob = GroverProblem(
                    space_size=m, marked=marked, predicate=marked.__contains__
                )
                for r in range(6):
                    for eps in (0.0, 0.3):
                        for seed in range(8):
                            sv = run_statevector(
                                prob, r, np.random.default_rng(seed), failure_prob=eps
                            )
                            an = run_analytic(
                                prob, r, np.random.default_rng(seed), failure_prob=eps
                            )
                            assert an.measured_index == sv.measured_index
                            assert an.fire_pattern == sv.fire_pattern
                            assert an.predicted_success == pytest.approx(
                                sv.predicted_success, abs=1e-12
                            )

    def test_outcome_names_engine_and_pattern(self):
        prob = first_k_problem(16, 1)
        an = run_analytic(prob, 3, np.random.default_rng(0))
        sv = run_statevector(prob, 3, np.random.default_rng(0))
        assert (an.engine, an.fire_pattern) == ("analytic", None)
        assert (sv.engine, sv.fire_pattern) == ("statevector", None)
        noisy = run_noisy_outer(prob, 3, NoisyOracleSpec(0.5), np.random.default_rng(0))
        assert noisy.engine == "analytic"
        assert len(noisy.fire_pattern) == 3

    def test_noiseless_run_has_no_per_round_work(self):
        # a per-round loop could not finish 10^12 rounds
        r = 10**12
        led = CostLedger()
        prob = first_k_problem(
            1 << 40, 1, uncompute_factor=2,
            charge=lambda led, t: led.charge("l2_queries", t, "inner_search"),
        )
        out = run_analytic(prob, r, np.random.default_rng(0), led)
        assert out.predicted_success == pytest.approx(success_probability(1 << 40, 1, r))
        assert led.l2_queries == 2 * r


class TestEngineGuards:
    """The engines read ``problem.marked`` as is: the problem checks it once."""

    @pytest.mark.parametrize("engine", ["analytic", "noisy"])
    @pytest.mark.parametrize("index", [-1, 8])
    def test_out_of_range_marked_index_rejected(self, engine, index):
        # the problem refuses the index before either engine can run on it
        with pytest.raises(ValueError):
            run_engine(
                engine,
                GroverProblem(space_size=8, marked=(index,), predicate=lambda i: i == index),
            )

    def test_repeated_marked_index_rejected(self):
        with pytest.raises(ValueError):
            GroverProblem(space_size=8, marked=(3, 3), predicate=lambda i: i == 3)

    def test_marked_set_stored_sorted_and_counted(self):
        prob = GroverProblem(space_size=8, marked=[5, 0, 3], predicate=lambda i: i in (0, 3, 5))
        assert prob.marked == (0, 3, 5)
        assert prob.marked_count == 3
        assert GroverProblem(space_size=8, marked=(), predicate=bool).marked_count == 0

    @pytest.mark.parametrize("field,value", [("space_size", 0), ("uncompute_factor", 0)])
    def test_bad_sizes_rejected(self, field, value):
        kwargs = dict(space_size=8, marked=(0,), predicate=bool, uncompute_factor=1)
        kwargs[field] = value
        with pytest.raises(ValueError):
            GroverProblem(**kwargs)

    def test_charge_needs_ledger_charge_fn_and_positive_times(self):
        seen = []
        prob = first_k_problem(8, 1, charge=lambda led, t: seen.append(t))
        prob.charge(None, 3)
        prob.charge(CostLedger(), 0)
        prob.charge(CostLedger(), 4)
        first_k_problem(8, 1).charge(CostLedger(), 5)
        assert seen == [4]


def run_engine(engine, problem):
    rng = np.random.default_rng(0)
    if engine == "noisy":
        return run_noisy_outer(problem, 1, NoisyOracleSpec(0.5), rng)
    return run_analytic(problem, 1, rng)


class TestFailureProbability:
    def test_complements_success_where_both_are_resolvable(self):
        for m, k, r in [(4, 1, 0), (10, 3, 1), (64, 1, 6), (100, 7, 2), (8, 8, 0)]:
            total = success_probability(m, k, r) + failure_probability(m, k, r)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_edges(self):
        assert failure_probability(16, 0, 3) == 1.0
        assert failure_probability(8, 8, 0) == 0.0
        with pytest.raises(ValueError):
            failure_probability(4, 5, 1)
        with pytest.raises(ValueError):
            failure_probability(4, 1, -1)


class TestOutcome:
    @pytest.mark.parametrize("run", [run_analytic, run_statevector])
    def test_outcome_is_immutable(self, run):
        outcome = run(first_k_problem(8, 1), 1, np.random.default_rng(3))
        for name in outcome._fields:
            with pytest.raises(AttributeError):
                setattr(outcome, name, None)


class TestNoisyEngine:
    def test_zero_failure_equals_clean_engine(self):
        prob = first_k_problem(32, 1)
        r = 4
        seq_clean = [
            run_statevector(prob, r, np.random.default_rng(s)).measured_index
            for s in range(50)
        ]
        seq_noisy = [
            run_noisy_outer(
                prob, r, NoisyOracleSpec(0.0), np.random.default_rng(s)
            ).measured_index
            for s in range(50)
        ]
        assert seq_clean == seq_noisy

    def test_certain_failure_reduces_to_uniform_sampling(self):
        prob = first_k_problem(64, 1)
        rng = np.random.default_rng(1)
        for _ in range(20):
            out = run_noisy_outer(prob, 6, NoisyOracleSpec(1.0), rng)
            assert out.predicted_success == pytest.approx(1 / 64, abs=1e-12)

    def test_invalid_failure_prob_rejected(self):
        with pytest.raises(ValueError):
            NoisyOracleSpec(-0.1)
        with pytest.raises(ValueError):
            NoisyOracleSpec(1.5)

    def test_dropped_rounds_still_charge(self):
        def charge(led, t):
            led.charge("l2_queries", t, "outer_search")

        prob = first_k_problem(16, 1, charge=charge)
        led = CostLedger()
        run_noisy_outer(prob, 3, NoisyOracleSpec(1.0), np.random.default_rng(0), led)
        assert led.l2_queries == 3

    def test_success_rate_matches_pattern_enumeration(self):
        # independent oracle: average the dense-matrix success over all
        # dropout patterns, then compare a large empirical rate
        m, r, eps = 16, 3, 1 / 16
        expected = 0.0
        uniform = np.full(m, 1 / math.sqrt(m))
        for pattern in itertools.product([True, False], repeat=r):
            weight = 1.0
            state = uniform
            for fires in pattern:
                weight *= (1 - eps) if fires else eps
                state = dense_rotation_step(m, 1, fires) @ state
            expected += weight * float(state[0] ** 2)
        prob = first_k_problem(m, 1)
        rng = np.random.default_rng(42)
        trials = 100_000
        hits = sum(
            run_noisy_outer(prob, r, NoisyOracleSpec(eps), rng).verified
            for _ in range(trials)
        )
        sigma = math.sqrt(expected * (1 - expected) / trials)
        assert abs(hits / trials - expected) < 3 * sigma

    def test_fire_pattern_reproduces_dense_matrices(self):
        m, k = 12, 2
        uniform = np.full(m, 1 / math.sqrt(m))
        for pattern in [(True, False, True), (False, False), (True,) * 4]:
            state = uniform
            for fires in pattern:
                state = dense_rotation_step(m, k, fires) @ state
            amps = statevector_amplitudes(
                first_k_problem(m, k), len(pattern), fire_pattern=pattern
            )
            assert np.allclose(amps, state, atol=1e-12)
