"""Property tests: the reduced engine against the full statevector."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from matchsim.grover import (  # noqa: E402
    GroverProblem,
    NoisyOracleSpec,
    Oracle,
    run_noisy_outer,
    statevector_amplitudes,
)


@st.composite
def noisy_searches(draw):
    m = draw(st.integers(1, 64))
    k = draw(st.integers(0, m))
    marked = tuple(sorted(draw(st.sets(st.integers(0, m - 1), min_size=k, max_size=k))))
    r = draw(st.integers(0, 12))
    failure_prob = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**32 - 1))
    return m, marked, r, failure_prob, seed


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(noisy_searches())
def test_fire_pattern_replays_to_reported_mass(search):
    m, marked, r, failure_prob, seed = search
    problem = GroverProblem(
        space_size=m,
        marked_count=len(marked),
        oracle=Oracle(predicate=marked.__contains__, marked_indices=marked),
    )
    out = run_noisy_outer(
        problem, r, NoisyOracleSpec(failure_prob), np.random.default_rng(seed)
    )
    if failure_prob == 0.0:
        assert out.fire_pattern is None
    else:
        assert len(out.fire_pattern) == r
    amps = statevector_amplitudes(problem, r, fire_pattern=out.fire_pattern)
    replayed = float(np.sum(amps[list(marked)] ** 2))
    assert out.predicted_success == pytest.approx(replayed, abs=1e-12)
