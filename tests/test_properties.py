"""Property tests: the reduced engine against the full statevector, the
array kernels against their step-by-step references, sweep-config
parsing against arbitrary JSON, and the command line against arbitrary
argument lists."""

import io
import json
import os
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from matchsim.cli import main  # noqa: E402
from matchsim.experiments import ALGORITHMS, NOISE_PRESETS, SweepConfig, run_sweep  # noqa: E402
from matchsim.grover import (  # noqa: E402
    ENGINES,
    STATEVECTOR_CAP_ENV,
    NoisyOracleSpec,
    Search,
    run_noisy_outer,
    statevector_amplitudes,
)
from matchsim.matchers import (  # noqa: E402
    classical_sort_scan,
    classical_two_sort_merge,
    exhaustive_pairs,
)
from matchsim.model import MatchInstance  # noqa: E402
from matchsim.sortsearch import sort_instrumented  # noqa: E402
from test_matchers import (  # noqa: E402
    brute_force_match,
    reference_sort_scan,
    reference_two_sort_merge,
)
from test_sortsearch import reference_order  # noqa: E402


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
def test_fire_pattern_replays_to_reported_mass(case):
    m, marked, r, failure_prob, seed = case
    search = Search(m, marked)
    _, mass, fire_pattern = run_noisy_outer(
        search, r, NoisyOracleSpec(failure_prob), np.random.default_rng(seed)
    )
    if failure_prob == 0.0:
        assert fire_pattern is None
    else:
        assert len(fire_pattern) == r
    amps = statevector_amplitudes(search, r, fire_pattern=fire_pattern)
    replayed = float(np.sum(amps[list(marked)] ** 2))
    assert mass == pytest.approx(replayed, abs=1e-12)


# 64-bit values, crowded at both ends of the range and around 2**63,
# where a signed compare would misorder them
values_64 = (
    st.integers(0, 2**64 - 1)
    | st.integers(0, 40)
    | st.integers(2**63 - 40, 2**63 + 40)
    | st.integers(2**64 - 40, 2**64 - 1)
)


def arrange(draw, values):
    """The values shuffled, sorted, or reversed."""
    how = draw(st.sampled_from(("shuffled", "sorted", "reversed")))
    if how == "shuffled":
        return draw(st.permutations(values))
    return sorted(values, reverse=how == "reversed")


@st.composite
def walk_instances(draw):
    """Instances whose lists share 1 value (via from_lists), or 0 or 2-4 (built directly).

    Each list holds distinct values.  The shared values are the
    smallest, the largest or any of the drawn values, and each list
    comes shuffled, sorted or reversed.
    """
    n = draw(st.integers(2, 24))
    shared = min(n, draw(st.sampled_from((1, 1, 0, 2, 3, 4))))
    pool = draw(st.lists(values_64, min_size=2 * n - shared, max_size=2 * n - shared, unique=True))
    where = draw(st.sampled_from(("smallest", "largest", "any")))
    if where == "any":
        pool = draw(st.permutations(pool))
    else:
        pool = sorted(pool, reverse=where == "largest")
    common, rest = pool[:shared], draw(st.permutations(pool[shared:]))
    list1 = arrange(draw, common + rest[: n - shared])
    list2 = arrange(draw, common + rest[n - shared :])
    if shared == 1:
        return MatchInstance.from_lists(list1, list2)
    first = common[0] if common else list1[0]
    return MatchInstance(
        list1=list1, list2=list2, planted_value=first,
        planted_pos1=list1.index(first), planted_pos2=list2.index(first) if common else 0,
    )


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(walk_instances())
# three shared values on both sides of 2**63, where a signed compare flips
@hypothesis.example(MatchInstance(
    list1=(2**63, 2**64 - 1, 5, 2**63 - 1), list2=(2**64 - 1, 7, 2**63, 2**63 - 1),
    planted_value=2**63, planted_pos1=0, planted_pos2=2,
))
def test_classical_kernels_match_their_step_by_step_references(instance):
    report = classical_two_sort_merge(instance)
    found, ledger = reference_two_sort_merge(instance)
    assert report.found == found
    assert report.ledger.as_dict() == ledger.as_dict()
    assert classical_sort_scan(instance).found == reference_sort_scan(instance)
    assert exhaustive_pairs(instance).found == brute_force_match(instance)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(st.lists(values_64, max_size=300, unique=True))
def test_sort_permutation_is_the_merge_sort_order(values):
    order = sort_instrumented(np.array(values, dtype=np.uint64))
    assert order.tolist() == reference_order(values)


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


# files every example finds in its working directory, plus one it never does
CLI_FILES = (
    "good.csv", "short.csv", "good.json", "bad.json", "limit.json", "deep.json",
    "missing.csv",
)
small_ints = st.integers(-64, 64).map(str)

# a token never starts with "-" unless it is a flag or a number, so argparse
# cannot read junk as an abbreviated flag
cli_tokens = (
    st.sampled_from(ALGORITHMS + NOISE_PRESETS + ENGINES + CLI_FILES)
    | small_ints
    | st.text(max_size=6).filter(lambda t: not t.startswith("-"))
)


# each subcommand's flags and the values they take (None: takes no value)
CLI_OPTIONS = {
    "sweep": {"--config": st.sampled_from(CLI_FILES)},
    "run": {
        "--algorithm": st.sampled_from(ALGORITHMS),
        "--n": small_ints,
        "--seed": small_ints,
        "--noise": st.sampled_from(NOISE_PRESETS),
        "--engine": st.sampled_from(ENGINES),
        "--uncompute": small_ints,
        "--block-size": small_ints,
    },
    "fit": {"--input": st.sampled_from(CLI_FILES), "--log-normalize": None},
    "compare": {"--output": st.sampled_from(("out.csv", "good.csv"))},
}
CLI_REQUIRED = ("--config", "--algorithm", "--n", "--input")
CLI_FLAGS = tuple(flag for options in CLI_OPTIONS.values() for flag in options) + ("--help",)


@st.composite
def cli_argvs(draw):
    """A well-formed command line, half the time with one token replaced or added."""
    command = draw(st.sampled_from(tuple(CLI_OPTIONS)))
    argv = [command]
    for flag, values in CLI_OPTIONS[command].items():
        if flag in CLI_REQUIRED or draw(st.booleans()):
            argv.append(flag)
            if values is not None:
                argv.append(draw(values))
    if command == "compare":
        argv += draw(st.lists(st.sampled_from(CLI_FILES), max_size=3))
    if draw(st.booleans()):
        where = draw(st.integers(0, len(argv)))
        token = draw(st.sampled_from(CLI_FLAGS) | cli_tokens)
        argv[where:where + draw(st.integers(0, 1))] = [token]
    return argv


@pytest.fixture(scope="session")
def cli_files(tmp_path_factory):
    """A directory of small valid and malformed CLI inputs."""
    root = tmp_path_factory.mktemp("cli_files")
    run_sweep(
        SweepConfig(algorithm="sort_scan", n_values=(4, 8, 16), output=str(root / "good.csv"))
    )
    (root / "good.json").unlink()  # the sweep's aggregate; good.json is a config
    lines = (root / "good.csv").read_text().splitlines()
    lines[2] = ",".join(lines[2].split(",")[:3])
    (root / "short.csv").write_text("\n".join(lines) + "\n")
    configs = {
        "good.json": {"algorithm": "nested", "n_values": [4, 9], "output": "out.csv"},
        "bad.json": {"algorithm": "sort_scan", "n_values": [1]},
        # refused by the amplitude cap before any amplitude is allocated
        "limit.json": {"algorithm": "naive_grover", "n_values": [1025], "engine": "statevector"},
    }
    for name, doc in configs.items():
        (root / name).write_text(json.dumps(doc))
    # nested past the JSON decoder's recursion limit
    (root / "deep.json").write_text("[" * 100_000)
    return root


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(cli_argvs())
@hypothesis.example(["fit", "--input", "short.csv"])
@hypothesis.example(["compare", "good.csv", "short.csv"])
@hypothesis.example(["sweep", "--config", "limit.json"])
@hypothesis.example(["sweep", "--config", "deep.json"])
def test_any_argv_exits_zero_two_or_three(cli_files, argv):
    # each example works in a fresh copy, so outputs never clobber inputs;
    # the default cap keeps limit.json from allocating its amplitudes
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work, mock.patch.dict(os.environ):
        os.environ.pop(STATEVECTOR_CAP_ENV, None)
        shutil.copytree(cli_files, work, dirs_exist_ok=True)
        os.chdir(work)
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main(argv)
        except SystemExit as exit_:  # argparse exits on usage errors and --help
            code = exit_.code
        finally:
            os.chdir(cwd)
    assert code in (0, 2, 3)
