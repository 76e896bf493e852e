"""Tests for schedules, success probabilities, and the engines' runners."""

import itertools
import math

import numpy as np
import pytest

from matchsim import grover
from matchsim.grover import (
    NoisyOracleSpec,
    ResourceLimitError,
    ScheduleUndefinedError,
    Search,
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
from references import failure_probability
from search_record import GroverProblem, draw_uniforms, run_record


def first_k(m, k):
    """The search over m indices that marks the first k."""
    return Search(m, tuple(range(k)))


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
    def test_the_noisy_success_sums_left_to_right(self, monkeypatch):
        # a noisy nested run at n = 56 (7 blocks, 2 outer rounds, dropout
        # 1/sqrt(56)); compensated addition, sum's from Python 3.12, ends in ...54
        assert noisy_success_probability(7, 2, 1 / math.sqrt(56)) == 0.7704997875890053
        monkeypatch.setattr(grover, "float_sum", math.fsum)
        assert noisy_success_probability(7, 2, 1 / math.sqrt(56)) == 0.7704997875890054

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
        uniforms = np.random.default_rng(0).random(1).tolist()
        measured, mass, _ = run_statevector(first_k(4, 1), 1, uniforms)
        assert mass == pytest.approx(1.0, abs=1e-12)
        assert measured == 0

    def test_marked_mass_matches_closed_form(self):
        mass = run_statevector(first_k(8, 1), 2, np.random.default_rng(1).random(1).tolist())[1]
        expected = success_probability(8, 1, 2)
        assert mass == pytest.approx(expected, abs=1e-9)

    def test_no_marked_elements_stays_uniform(self):
        search = first_k(16, 0)
        amps = statevector_amplitudes(search, 3)
        assert np.allclose(amps, 1 / 4.0, atol=1e-12)
        assert run_statevector(search, 3, np.random.default_rng(2).random(1).tolist())[1] == 0.0

    def test_norm_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = int(rng.integers(2, 64))
            k = int(rng.integers(0, m + 1))
            r = int(rng.integers(0, 10))
            amps = statevector_amplitudes(first_k(m, k), r)
            assert float(np.sum(amps * amps)) == pytest.approx(1.0, abs=1e-12)

    def test_measurement_follows_amplitudes(self):
        search = first_k(8, 1)
        r = 1
        p_hit = success_probability(8, 1, r)
        rng = np.random.default_rng(7)
        hits = sum(
            run_statevector(search, r, rng.random(1).tolist())[0] == 0 for _ in range(4000)
        )
        sigma = math.sqrt(p_hit * (1 - p_hit) / 4000)
        assert abs(hits / 4000 - p_hit) < 4 * sigma

    def test_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("MATCH_SIM_STATEVECTOR_CAP", "1024")
        with pytest.raises(ResourceLimitError) as err:
            run_statevector(first_k(2048, 1), 1, np.random.default_rng(0).random(1).tolist())
        assert "2048" in str(err.value)

    def test_oracle_charges_per_iteration_times_uncompute(self):
        # the runner charges nothing: the record charges the rounds it ran
        prob = first_k_problem(
            64, 1, uncompute_factor=2,
            charge=lambda led, t: led.charge("l2_queries", t, "inner_search"),
        )
        led = CostLedger()
        run_record(prob, 6, draw_uniforms(np.random.default_rng(0)), led, engine="statevector")
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
                    search = first_k(m, k)
                    sv = run_statevector(search, r, rng.random(1).tolist())[1]
                    an = run_analytic(search, r, rng.random(1).tolist())[1]
                    assert an == pytest.approx(sv, abs=1e-9)

    def test_outcome_rate_matches_prediction(self):
        search = first_k(16, 1)
        r = 1
        p = success_probability(16, 1, r)
        rng = np.random.default_rng(5)
        hits = sum(run_analytic(search, r, rng.random(1).tolist())[0] == 0 for _ in range(4000))
        sigma = math.sqrt(p * (1 - p) / 4000)
        assert abs(hits / 4000 - p) < 4 * sigma

    def test_unmarked_misses_spread_over_unmarked(self):
        search = first_k(4, 1)
        rng = np.random.default_rng(9)
        seen = {run_analytic(search, 0, rng.random(1).tolist())[0] for _ in range(500)}
        assert seen - {0} == {1, 2, 3}

    def test_charges_equal_statevector_charges(self):
        def charge(led, t):
            led.charge("l1_queries", t, "outer_search")

        led_sv, led_an = CostLedger(), CostLedger()
        prob = first_k_problem(32, 2, uncompute_factor=3, charge=charge)
        run_record(prob, 4, draw_uniforms(np.random.default_rng(0)), led_sv, engine="statevector")
        run_record(prob, 4, draw_uniforms(np.random.default_rng(0)), led_an, engine="analytic")
        assert led_sv.total_cost() == led_an.total_cost() == 4 * 3

    def test_huge_space_without_amplitudes(self):
        m = 1 << 32
        r = iteration_schedule(m, 1)
        uniforms = np.random.default_rng(0).random(1).tolist()
        measured, mass, _ = run_analytic(Search(m, (7,)), r, uniforms)
        assert mass > 1 - 1e-9
        assert measured == 7

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
        # both runners turn the same uniform draws into the same index
        for m in [1, 2, 3, 7, 16, 33, 100]:
            for marked in [(), (0,), (m - 1,), (m // 2,), (0, m // 3, m - 1)]:
                search = Search(m, tuple(sorted(set(marked))))
                for r in range(6):
                    for eps in (0.0, 0.3):
                        for seed in range(8):
                            uniforms = draw_uniforms(np.random.default_rng(seed), r, eps)
                            sv = run_statevector(search, r, uniforms, eps)
                            an = run_analytic(search, r, uniforms, eps)
                            assert an[0] == sv[0]
                            assert an[2] == sv[2]
                            assert an[1] == pytest.approx(sv[1], abs=1e-12)

    def test_outcome_names_engine_and_pattern(self):
        # the runners report the drawn pattern; the record names the engine that ran
        search = first_k(16, 1)
        assert run_analytic(search, 3, np.random.default_rng(0).random(1).tolist())[2] is None
        assert run_statevector(search, 3, np.random.default_rng(0).random(1).tolist())[2] is None
        uniforms = np.random.default_rng(0).random(4).tolist()
        noisy = run_noisy_outer(search, 3, NoisyOracleSpec(0.5), uniforms)
        assert len(noisy[2]) == 3
        for engine in ("analytic", "statevector"):
            uniforms = draw_uniforms(np.random.default_rng(0))
            out = run_record(first_k_problem(16, 1), 3, uniforms, engine=engine)
            assert out.engine == engine

    def test_noiseless_run_has_no_per_round_work(self):
        # a per-round loop could not finish 10^12 rounds
        r = 10**12
        led = CostLedger()
        prob = first_k_problem(
            1 << 40, 1, uncompute_factor=2,
            charge=lambda led, t: led.charge("l2_queries", t, "inner_search"),
        )
        out = run_record(prob, r, draw_uniforms(np.random.default_rng(0)), led)
        assert out.predicted_success == pytest.approx(success_probability(1 << 40, 1, r))
        assert led.l2_queries == 2 * r


class TestEngineGuards:
    """Both runners refuse a search whose marked set is not strictly
    ascending in [0, space_size), and the test-side record checks its
    own fields when it is built."""

    @pytest.mark.parametrize("engine", ["analytic", "noisy", "statevector"])
    @pytest.mark.parametrize("index", [-1, 8])
    def test_out_of_range_marked_index_rejected(self, engine, index):
        with pytest.raises(ValueError):
            run_engine(engine, Search(8, (index,)))

    @pytest.mark.parametrize("run", [run_statevector, run_analytic])
    @pytest.mark.parametrize(
        "search",
        [Search(8, (3, 3)), Search(8, (5, 0)), Search(0, ())],
        ids=["repeated", "unsorted", "empty_space"],
    )
    def test_malformed_search_rejected(self, run, search):
        # an unsorted set is refused, never reordered
        with pytest.raises(ValueError):
            run(search, 1, np.random.default_rng(0).random(1).tolist())

    @pytest.mark.parametrize("run", [run_statevector, run_analytic])
    @pytest.mark.parametrize("eps", [0.0, 0.25, 1.0])
    def test_a_run_reads_one_uniform_a_dropout_round_then_one_to_measure(self, run, eps):
        search = first_k(16, 1)
        rng = np.random.default_rng(31)
        for r in range(6):
            k = r * (eps > 0.0) + 1
            uniforms = rng.random(k + 1).tolist()
            pattern = run(search, r, uniforms[:k], eps)[2]
            if eps > 0.0:
                assert pattern == tuple(u >= eps for u in uniforms[:r])
            # the measurement reads the last uniform: the lowest and highest draws reach both ends
            lowest = run(search, r, [*uniforms[: k - 1], 0.0], eps)[0]
            highest = run(search, r, [*uniforms[: k - 1], 1 - 1e-12], eps)[0]
            assert (lowest, highest) == (0, 15)
            for wrong in (k - 1, k + 1):  # a shorter or a longer list is refused
                with pytest.raises(ValueError, match="uniforms"):
                    run(search, r, uniforms[:wrong], eps)
        with pytest.raises(ValueError, match="uniforms"):
            run_noisy_outer(search, 3, NoisyOracleSpec(0.5), rng.random(3).tolist())

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


def run_engine(engine, search):
    rng = np.random.default_rng(0)
    if engine == "noisy":
        return run_noisy_outer(search, 1, NoisyOracleSpec(0.5), rng.random(2).tolist())
    run = run_statevector if engine == "statevector" else run_analytic
    return run(search, 1, rng.random(1).tolist())


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
        outcome = run(first_k(8, 1), 1, np.random.default_rng(3).random(1).tolist())
        assert len(outcome) == 3
        with pytest.raises(TypeError):
            outcome[0] = None


class TestNoisyEngine:
    def test_zero_failure_equals_clean_engine(self):
        search = first_k(32, 1)
        r = 4
        seq_clean = [
            run_statevector(search, r, np.random.default_rng(s).random(1).tolist())[0]
            for s in range(50)
        ]
        default_rng = np.random.default_rng
        seq_noisy = [
            run_noisy_outer(search, r, NoisyOracleSpec(0.0), draw_uniforms(default_rng(s)))[0]
            for s in range(50)
        ]
        assert seq_clean == seq_noisy

    def test_certain_failure_reduces_to_uniform_sampling(self):
        search = first_k(64, 1)
        rng = np.random.default_rng(1)
        for _ in range(20):
            mass = run_noisy_outer(search, 6, NoisyOracleSpec(1.0), rng.random(7).tolist())[1]
            assert mass == pytest.approx(1 / 64, abs=1e-12)

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
        run_record(prob, 3, draw_uniforms(np.random.default_rng(0), 3, 1.0), led, failure_prob=1.0)
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
        search = first_k(m, 1)
        rng = np.random.default_rng(42)
        trials = 100_000
        hits = sum(
            run_noisy_outer(search, r, NoisyOracleSpec(eps), rng.random(r + 1).tolist())[0] == 0
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
            amps = statevector_amplitudes(first_k(m, k), len(pattern), fire_pattern=pattern)
            assert np.allclose(amps, state, atol=1e-12)


class TestWalkedMasses:
    # c by hand: 1, then c + 2 on a fired round and 2 - c on a dropped one
    HAND_WALKED = {
        (): 1, (True,): 3, (False,): 1, (True, True): 5, (True, False): -1,
        (False, True): 3, (True, False, True): 1, (True, True, False): -3,
        (True, True, False, True): -1, (False, False, False): 1,
    }

    @pytest.mark.parametrize("space_size", [1, 4, 17, 100])
    def test_a_run_ends_at_the_hand_walked_c(self, space_size):
        for k in sorted({0, 1, min(2, space_size), space_size}):
            for pattern, c in self.HAND_WALKED.items():
                walked = grover.walked_masses(space_size, k, len(pattern), pattern)
                assert walked == grover._masses(space_size, k, c), (k, pattern)
            for r in range(5):  # noiseless: c = 2r + 1
                walked = grover.walked_masses(space_size, k, r, None)
                assert walked == grover._masses(space_size, k, 2 * r + 1)

    @pytest.mark.parametrize("space_size", [2, 5, 16, 33])
    def test_both_masses_are_the_statevectors_for_the_same_pattern(self, space_size):
        for k in (1, 2):
            search = first_k(space_size, k)
            for r in range(6):
                patterns = [None, *itertools.product((True, False), repeat=r)]
                for pattern in patterns:
                    amps = statevector_amplitudes(search, r, pattern)
                    marked_mass, unmarked_mass = grover.walked_masses(space_size, k, r, pattern)
                    assert marked_mass == pytest.approx(np.sum(amps[:k] ** 2), abs=1e-12)
                    assert unmarked_mass == pytest.approx(np.sum(amps[k:] ** 2), abs=1e-12)
