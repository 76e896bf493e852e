"""Property tests: the reduced engine against the full statevector, the
array kernels against their step-by-step references, an instance's raw
reads against its laid-out lists, sweeps against the cell-by-cell
reference, sweep-config parsing against arbitrary JSON, and the command
line against arbitrary argument lists."""

import dataclasses
import io
import json
import math
import os
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from matchsim.cli import main  # noqa: E402
from matchsim import experiments  # noqa: E402
from matchsim.experiments import (  # noqa: E402
    ALGORITHMS,
    NOISE_PRESETS,
    SweepConfig,
    derive_seed,
    run_sweep,
)
from matchsim.grover import (  # noqa: E402
    ENGINES,
    STATEVECTOR_CAP_ENV,
    NoisyOracleSpec,
    Search,
    iteration_schedule,
    run_noisy_outer,
    statevector_amplitudes,
)
from matchsim.matchers import (  # noqa: E402
    classical_sort_scan,
    classical_two_sort_merge,
    exhaustive_pairs,
)
from matchsim.model import (  # noqa: E402
    AMPLITUDE_ROUNDS_PER_WORK,
    MAX_INSTANCE_SIZE,
    MAX_SWEEP_WORK,
    TRIAL_WORK,
    CostLedger,
    ResourceLimitError,
    generate_instance,
)
from matchsim.sortsearch import sort_instrumented  # noqa: E402
from references import instance_from_lists, reference_sweep  # noqa: E402
from search_record import draw_uniforms  # noqa: E402
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
@hypothesis.given(
    st.integers(0, 2**64 - 1),
    st.lists(st.tuples(st.integers(2, 2**64), st.integers(0, 2**40)), max_size=8),
)
def test_paired_digests_are_the_two_derived_seeds(base_seed, cells):
    assert list(experiments._seed_pairs(base_seed, cells)) == [
        (derive_seed(base_seed, n, t, "instance"), derive_seed(base_seed, n, t, "run"))
        for n, t in cells
    ]


@st.composite
def ledger_parts(draw):
    """Parts as ``CostLedger.merge`` takes them: four counters, 16 per-phase counters, and a
    peak at least the live cells."""
    counters = draw(st.tuples(*[st.integers(0, 2**70)] * 4))
    phases = draw(st.tuples(*[st.integers(0, 2**64) | st.just(0)] * 16))
    live = draw(st.integers(0, 2**40))
    return (*counters, phases, live + draw(st.integers(0, 2**40)), live)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(ledger_parts())
def test_a_ledger_from_a_part_is_a_fresh_ledger_that_merged_it(part):
    merged = CostLedger()
    merged.merge(part)
    built = CostLedger.from_part(part)
    assert built.as_dict() == merged.as_dict()
    assert built.phase_breakdown == merged.phase_breakdown
    assert built.live_workspace == merged.live_workspace
    assert built.part() == merged.part()


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(noisy_searches())
def test_fire_pattern_replays_to_reported_mass(case):
    m, marked, r, failure_prob, seed = case
    search = Search(m, marked)
    _, mass, fire_pattern = run_noisy_outer(
        search, r, NoisyOracleSpec(failure_prob),
        draw_uniforms(np.random.default_rng(seed), r, failure_prob),
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
    """Instances sharing one value, built by instance_from_lists.

    Each list holds distinct values.  The shared value is the smallest,
    the largest or any of the drawn values, and each list comes
    shuffled, sorted or reversed.
    """
    n = draw(st.integers(2, 24))
    pool = draw(st.lists(values_64, min_size=2 * n - 1, max_size=2 * n - 1, unique=True))
    where = draw(st.sampled_from(("smallest", "largest", "any")))
    if where == "any":
        pool = draw(st.permutations(pool))
    else:
        pool = sorted(pool, reverse=where == "largest")
    common, rest = pool[:1], draw(st.permutations(pool[1:]))
    list1 = arrange(draw, common + rest[: n - 1])
    list2 = arrange(draw, common + rest[n - 1 :])
    return instance_from_lists(list1, list2)


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(walk_instances())
# values on both sides of 2**63, where a signed compare flips
@hypothesis.example(instance_from_lists(
    (2**63, 2**64 - 1, 5, 2**63 - 1), (2**64 - 2, 7, 2**63, 2**63 + 1),
))
def test_classical_kernels_match_their_step_by_step_references(instance):
    report = classical_two_sort_merge(instance)
    found, ledger = reference_two_sort_merge(instance)
    assert report.found == found
    assert report.ledger.as_dict() == ledger.as_dict()
    assert classical_sort_scan(instance).found == reference_sort_scan(instance)
    assert exhaustive_pairs(instance).found == brute_force_match(instance)


def straddles(cells, shift):
    """The values whose 8 bytes start ``shift`` bytes into each cell and end in the next."""
    raw = b"".join(cell.to_bytes(8, sys.byteorder) for cell in cells)
    return [int.from_bytes(raw[at : at + 8], sys.byteorder) for at in range(shift, len(raw) - 8, 8)]


def raw_reads(inst, blocks, probes):
    """``find1`` of each block's probe values in it, then ``value2`` of every index."""
    found = [
        [inst.find1(v, start, stop) for v in values] for (start, stop), values in zip(blocks, probes)
    ]
    return found, [inst.value2(j) for j in range(inst.n)]


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(
    st.integers(2, 300).flatmap(lambda n: st.tuples(
        st.just(n), st.one_of(st.just(math.isqrt(n - 1) + 1), st.integers(1, n)),
    )),
    st.integers(0, 2**64 - 1),
    st.integers(1, 7),
)
@hypothesis.example((2, 1), 0, 4)
@hypothesis.example((7, 3), 5, 1)  # the draw is longer than 2n below n = 9
@hypothesis.example((17, 5), 3, 7)  # non-square: the last block holds 2 cells
@hypothesis.example((300, 18), 11, 3)
def test_raw_reads_equal_the_laid_out_lists(shape, seed, shift):
    # every block's find1 of every list1 and list2 value, the planted value and values
    # across two cells (the laid-out and the raw run's neighbours), and value2 of every
    # index, on the same instance before and after its lists are laid out
    n, b = shape
    twin = generate_instance(n, seed)
    list1, list2, planted = twin.list1, twin.list2, twin.planted_value
    where = {v: i for i, v in enumerate(list1)}
    blocks = [(start, min(start + b, n)) for start in range(0, n, b)]
    probes, expected = [], []
    for start, stop in blocks:
        cells = list1[start:stop]
        unplanted = [v for v in cells if v != planted]
        values = [*list1, *list2, planted, *straddles(cells, shift), *straddles(unplanted, shift)]
        probes.append(values)
        expected.append([where[v] if start <= where.get(v, -1) < stop else None for v in values])
    expected = expected, list(list2)
    inst = generate_instance(n, seed)
    assert "values1" not in vars(inst)
    assert raw_reads(inst, blocks, probes) == expected
    assert inst.list1 == list1
    assert raw_reads(inst, blocks, probes) == expected


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
            st.lists(st.integers(-2, 70) | st.integers(2, 2**23), max_size=12, unique=True)
            .map(sorted)
        ),
    },
    optional={
        # up to far over the sweep work cap
        "trials_per_n": field(st.integers(-1, 5) | st.integers(2**20, 2**40)),
        "base_seed": field(st.integers(-1, 2**64)),
        "engine": field(st.sampled_from(ENGINES)),
        "noise_preset": field(st.sampled_from(NOISE_PRESETS)),
        "uncompute_factor": field(st.integers(-1, 5)),
        "output": field(st.none() | st.text()),
        "shots": json_values,
    },
)


def sweep_work(doc: dict) -> int:
    """A well-formed config's work: trials_per_n * sum(2n + TRIAL_WORK), and on the
    statevector engine an amplified search's amplitudes times rounds + 1 (nested: both
    searches, at blocks of ceil(sqrt(n))) over AMPLITUDE_ROUNDS_PER_WORK."""
    trials, sizes, algorithm = doc.get("trials_per_n", 1), doc["n_values"], doc["algorithm"]
    work = trials * sum(2 * n + TRIAL_WORK for n in sizes)
    if doc.get("engine", "auto") != "statevector" or algorithm not in ("naive_grover", "nested"):
        return work
    steps = 0
    for n in sizes:
        if algorithm == "naive_grover":
            steps += n * n * (iteration_schedule(n * n, 1) + 1)
        else:
            blocks = -(-n // math.ceil(math.sqrt(n)))
            steps += blocks * (iteration_schedule(blocks, 1) + 1)
            steps += n * (iteration_schedule(n, 1) + 1)
    return work + trials * steps // AMPLITUDE_ROUNDS_PER_WORK


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(json_values | config_docs)
@hypothesis.example({"algorithm": "exhaustive", "n_values": [MAX_INSTANCE_SIZE + 1]})
def test_any_json_is_a_valid_config_or_a_value_error(doc):
    try:
        config = SweepConfig.from_dict(doc)
    except ValueError:
        return
    except ResourceLimitError:  # well formed, but over the instance size cap or the work cap
        assert max(doc["n_values"]) > MAX_INSTANCE_SIZE or sweep_work(doc) > MAX_SWEEP_WORK
        return
    assert max(config.n_values) <= MAX_INSTANCE_SIZE
    assert sweep_work(config.as_dict()) <= MAX_SWEEP_WORK
    assert SweepConfig.from_dict(config.as_dict()) == config
    assert all(type(n) is int and n >= 2 for n in config.n_values)
    for value in (config.trials_per_n, config.base_seed, config.uncompute_factor):
        assert type(value) is int


# files every example finds in its working directory, plus one it never does
CLI_FILES = (
    "good.csv", "short.csv", "good.json", "bad.json", "limit.json", "over.json", "deep.json",
    "into_dir.json", "json_dir.json", "taken.csv", "missing.csv",
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
        # refused by the amplitude cap before any amplitude is allocated, once the sweep
        # has made its output's directory and temporary file
        "limit.json": {
            "algorithm": "naive_grover", "n_values": [1025], "engine": "statevector",
            "output": "made/rows.csv",
        },
        # refused by the sweep work cap, before it makes its output's directories
        "over.json": {
            "algorithm": "nested", "n_values": [16], "trials_per_n": 10**30,
            "output": "new/sub/rows.csv",
        },
        # refused before any trial runs: its output is a directory
        "into_dir.json": {
            "algorithm": "nested", "n_values": [16, 64, 256], "trials_per_n": 50,
            "output": "taken.csv",
        },
        # refused before any trial runs: its aggregate JSON path is a directory
        "json_dir.json": {
            "algorithm": "nested", "n_values": [16, 64, 256], "trials_per_n": 50,
            "output": "clash.csv",
        },
    }
    for name, doc in configs.items():
        (root / name).write_text(json.dumps(doc))
    # nested past the JSON decoder's recursion limit
    (root / "deep.json").write_text("[" * 100_000)
    (root / "taken.csv").mkdir()
    (root / "clash.json").mkdir()
    return root


def tree(root) -> list[str]:
    """Every file and directory under root, by relative path."""
    return sorted(
        os.path.relpath(os.path.join(parent, name), root)
        for parent, dirs, files in os.walk(root)
        for name in dirs + files
    )


@hypothesis.settings(max_examples=200, deadline=None)
@hypothesis.given(cli_argvs())
@hypothesis.example(["fit", "--input", "short.csv"])
@hypothesis.example(["compare", "good.csv", "short.csv"])
@hypothesis.example(["sweep", "--config", "limit.json"])
@hypothesis.example(["sweep", "--config", "over.json"])
@hypothesis.example(["sweep", "--config", "deep.json"])
@hypothesis.example(["sweep", "--config", "into_dir.json"])
@hypothesis.example(["sweep", "--config", "json_dir.json"])
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
        left = tree(work)
    assert code in (0, 2, 3)
    # a refused command leaves no CSV, JSON, temporary file or directory behind
    assert code == 0 or left == tree(cli_files)


# sweeps over every algorithm, engine and preset, small enough to run many; nested, which
# crosses the most fast paths (stream regimes, per-size noise, ledgers from cached parts),
# about half the time
sweep_configs = st.builds(
    SweepConfig,
    algorithm=st.just("nested") | st.sampled_from(ALGORITHMS),
    n_values=st.lists(st.integers(2, 40), min_size=1, max_size=4, unique=True).map(sorted),
    trials_per_n=st.integers(1, 70),
    base_seed=st.integers(0, 2**64 - 1),
    engine=st.sampled_from(ENGINES),
    noise_preset=st.sampled_from(NOISE_PRESETS),
    uncompute_factor=st.integers(1, 3),
)

# each fast path's switch, on either side of every regime and chunk boundary
fast_path_switches = st.fixed_dictionaries(
    {
        "SWEEP_CHUNK": st.sampled_from((1, 3, 7, 64, 1024)),
        "SEED_WORDS_BREAK_EVEN": st.sampled_from((1, 2, 8, 64)),
        "RUN_STREAM_BREAK_EVEN": st.sampled_from((1, 5, 64)),
        "GENERATION_BATCH_VALUES": st.sampled_from((64, 512, 1 << 16)),
    }
)


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(sweep_configs, fast_path_switches)
def test_a_sweep_writes_what_the_cell_by_cell_reference_computes(config, switches):
    with tempfile.TemporaryDirectory() as work, mock.patch.multiple(experiments, **switches):
        config = dataclasses.replace(config, output=str(Path(work) / "rows.csv"))
        with mock.patch.dict(os.environ):
            os.environ.pop(STATEVECTOR_CAP_ENV, None)
            run_sweep(config, keep_rows=False)
            expected = reference_sweep(config)
        written = Path(work, "rows.csv").read_bytes(), Path(work, "rows.json").read_bytes()
    assert written == tuple(text.encode() for text in expected)
