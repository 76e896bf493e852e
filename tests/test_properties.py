"""Property tests: the reduced engine against the full statevector, and
sweep-config parsing against arbitrary JSON."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from matchsim.experiments import ALGORITHMS, NOISE_PRESETS, SweepConfig  # noqa: E402
from matchsim.grover import (  # noqa: E402
    ENGINES,
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


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: st.lists(children) | st.dictionaries(st.text(), children),
    max_leaves=8,
)


def field(valid):
    """A config value: one the key accepts, or any JSON at all."""
    return valid | json_values


# config objects whose values are often, but not always, the right kind
config_docs = st.fixed_dictionaries(
    {
        "algorithm": field(st.sampled_from(ALGORITHMS)),
        "n_values": field(
            st.lists(st.integers(-2, 70), max_size=4, unique=True).map(sorted)
        ),
    },
    optional={
        "trials_per_n": field(st.integers(-1, 5)),
        "base_seed": field(st.integers(-1, 2**64)),
        "engine": field(st.sampled_from(ENGINES)),
        "noise_preset": field(st.sampled_from(NOISE_PRESETS)),
        "uncompute_factor": field(st.integers(-1, 5)),
        "output": field(st.none() | st.text()),
        "shots": json_values,
    },
)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(json_values | config_docs)
def test_any_json_is_a_valid_config_or_a_value_error(doc):
    try:
        config = SweepConfig.from_dict(doc)
    except ValueError:
        return
    assert SweepConfig.from_dict(config.as_dict()) == config
    assert all(type(n) is int and n >= 2 for n in config.n_values)
    for value in (config.trials_per_n, config.base_seed, config.uncompute_factor):
        assert type(value) is int
