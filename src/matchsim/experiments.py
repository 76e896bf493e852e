"""Seeded sweeps, CSV/JSON emission, exponent fits, and comparisons.

A sweep runs one matcher over a grid of sizes with per-trial seeds
derived deterministically from a base seed, so identical configs yield
byte-identical outputs, written a chunk of rows at a time with each
distinct row tail formatted once.  Fits are ordinary least squares on
log-log points, optionally dividing costs by ceil(log2 n) first to
separate a pure power law from a power law with a log factor.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from collections import defaultdict
from dataclasses import asdict, dataclass
from contextlib import suppress
from functools import lru_cache
from itertools import groupby, islice, repeat, takewhile
from operator import itemgetter
from pathlib import Path
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

# statevector_cap_from_env is re-exported: perfbench's worker records the
# cap in its provenance through this module
from .grover import NoisyOracleSpec, ResourceLimitError, statevector_cap_from_env
from .matchers import (
    NestedConfig,
    amplitude_rounds,
    classical_sort_scan,
    classical_two_sort_merge,
    exhaustive_pairs,
    naive_grover_pairs,
    nested_grover_match,
    run_stream_length,
)
from .model import (
    ACCESS_KINDS,
    AMPLITUDE_ROUNDS_PER_WORK,
    MAX_SWEEP_WORK,
    TRIAL_WORK,
    MatchInstance,
    RunReport,
    check_instance_size,
    float_sum,
    generate_instance,
    generate_instances,
    run_streams,
    seed_words,
    seeded_rng,
)

# matcher entry point per algorithm, by name: run_matcher looks each up
# in this module's globals at call time, so a patched entry point runs
MATCHERS = {
    "exhaustive": "exhaustive_pairs",
    "sort_scan": "classical_sort_scan",
    "two_sort": "classical_two_sort_merge",
    "naive_grover": "naive_grover_pairs",
    "nested": "nested_grover_match",
}
ALGORITHMS = tuple(MATCHERS)
# the algorithms that take a run config and measure on a run stream
AMPLIFIED = ("naive_grover", "nested")
NOISE_PRESETS = ("none", "inv_n", "inv_sqrt_n")


@lru_cache(maxsize=64, typed=True)
def _seed_prefix(base_seed: int, n: int):
    """The hash state after ``f"{base_seed}:{n}:"``; only ever copied, never updated."""
    return hashlib.blake2b(f"{base_seed}:{n}:".encode(), digest_size=8)


def derive_seed(base_seed: int, n: int, trial: int, stream: str) -> int:
    """Stable 64-bit sub-seed for one trial's instance or run stream (blake2b of its key)."""
    digest = _seed_prefix(base_seed, n).copy()
    digest.update(f"{trial}:{stream}".encode())
    return int.from_bytes(digest.digest(), "big")


def _seed_pairs(base_seed: int, cells: list[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """Each (n, trial) cell's ``derive_seed`` instance and run seeds, from one digest of the
    cell's key up to its stream, copied: a trial's two seeds hash its key once, and a run of
    cells of one size looks its prefix up once."""
    for n, run_of_cells in groupby(cells, key=itemgetter(0)):
        prefix = _seed_prefix(base_seed, n)
        for _, trial in run_of_cells:
            digest = prefix.copy()
            digest.update(b"%d:" % trial)
            run = digest.copy()
            digest.update(b"instance")
            run.update(b"run")
            yield int.from_bytes(digest.digest(), "big"), int.from_bytes(run.digest(), "big")


def noise_spec(preset: str, n: int) -> Optional[NoisyOracleSpec]:
    """Map a preset name to a dropout spec for size n."""
    if preset == "none":
        return None
    if preset == "inv_n":
        return NoisyOracleSpec(1.0 / n)
    if preset == "inv_sqrt_n":
        return NoisyOracleSpec(1.0 / math.sqrt(n))
    raise ValueError(f"unknown noise preset {preset!r}")


class TrialRow(NamedTuple):
    """One CSV row of a sweep, its fields in column order."""

    algorithm: str
    n: int
    trial: int
    seed: int
    success: int
    total_cost: int
    l1_queries: int
    l2_queries: int
    mem_reads: int
    mem_writes: int
    peak_workspace: int
    predicted_success: float


CSV_COLUMNS = TrialRow._fields
# one CSV line per row, the bytes csv.writer gives: the name, ten ints by
# str, then a float by repr (what str gives), none of them quoted; a row's
# head is algorithm to seed, its tail success to predicted_success
_HEAD_FORMAT, _TAIL_FORMAT = "%s," + "%d," * 3, "%d," * 7 + "%r\n"
_CSV_HEADER = ",".join(CSV_COLUMNS) + "\n"


def _rows_text(rows: Sequence[TrialRow]) -> str:
    """The CSV lines of ``rows``, each distinct tail formatted once: a noisy sweep's rows
    repeat a few tails, and a call's memo holds at most its rows' tails."""
    tails, lines = {}, []
    for row in rows:
        tail = row[4:]
        if (text := tails.get(tail)) is None:
            text = _TAIL_FORMAT % tail
            if tail[-1]:  # 0.0 and -0.0 are one key but two texts: a zero is not kept
                tails[tail] = text
        lines.append(_HEAD_FORMAT % row[:4] + text)
    return "".join(lines)


# the JSON types each config key accepts, matched exactly: a JSON boolean
# parses as a bool, which is not a size or a seed
_CONFIG_TYPES = {
    "algorithm": (str,),
    "n_values": (list, tuple),
    "trials_per_n": (int,),
    "base_seed": (int,),
    "engine": (str,),
    "noise_preset": (str,),
    "uncompute_factor": (int,),
    "output": (str, type(None)),
}


@dataclass(frozen=True)
class SweepConfig:
    """Declarative description of one sweep."""

    algorithm: str
    n_values: tuple[int, ...]
    trials_per_n: int = 1
    base_seed: int = 0
    engine: str = "auto"
    noise_preset: str = "none"
    uncompute_factor: int = 2
    output: Optional[str] = None

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        values = tuple(self.n_values)
        object.__setattr__(self, "n_values", values)
        if not values:
            raise ValueError("n_values must not be empty")
        if any(n < 2 for n in values):
            raise ValueError("all n_values must be at least 2")
        if list(values) != sorted(set(values)):
            raise ValueError("n_values must be strictly ascending")
        check_instance_size(values[-1])
        if self.trials_per_n < 1:
            raise ValueError("trials_per_n must be at least 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be non-negative")
        # NestedConfig owns the engine and uncompute_factor checks and their messages
        NestedConfig(engine=self.engine, uncompute_factor=self.uncompute_factor)
        if self.noise_preset not in NOISE_PRESETS:
            raise ValueError(f"unknown noise preset {self.noise_preset!r}")
        # the aggregate JSON goes next to the CSV, under the .json suffix
        if self.output is not None and Path(self.output).suffix.lower() == ".json":
            raise ValueError(f"output {self.output!r} would be overwritten by the sweep's JSON")
        work = self.trials_per_n * sum(2 * n + TRIAL_WORK for n in values)
        # a statevector run steps every amplitude each round; a size far past the cap has no schedule
        if work <= MAX_SWEEP_WORK and self.engine == "statevector" and self.algorithm in AMPLIFIED:
            steps = sum(amplitude_rounds(self.algorithm == "nested", n) for n in values)
            work += self.trials_per_n * steps // AMPLITUDE_ROUNDS_PER_WORK
        if work > MAX_SWEEP_WORK:
            raise ResourceLimitError(f"sweep work {work} exceeds the cap of {MAX_SWEEP_WORK}")

    @classmethod
    def from_dict(cls, doc: dict) -> "SweepConfig":
        """Build a config from parsed JSON; any malformed value is a ValueError."""
        if not isinstance(doc, dict):
            raise ValueError("config must be a JSON object")
        unknown = set(doc) - set(_CONFIG_TYPES)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown, key=str)}")
        if "algorithm" not in doc or "n_values" not in doc:
            raise ValueError("config requires 'algorithm' and 'n_values'")
        for key, value in doc.items():
            if type(value) not in _CONFIG_TYPES[key] or (
                key == "n_values" and any(type(n) is not int for n in value)
            ):
                raise ValueError(f"config key {key!r} has the wrong type: {value!r}")
        return cls(**{**doc, "n_values": tuple(doc["n_values"])})

    @classmethod
    def from_json(cls, text: str) -> "SweepConfig":
        """Parse a config file's text; malformed JSON is a ValueError too."""
        try:
            doc = json.loads(text)
        except RecursionError:
            raise ValueError("config JSON nests too deeply") from None
        return cls.from_dict(doc)

    def as_dict(self) -> dict:
        # json.dumps writes the n_values tuple as a list
        return asdict(self)


def _exp_mean(log_sum: float, count: int) -> float:
    """exp(log_sum / count), a geometric mean from its logs; ValueError past the float range."""
    try:
        return math.exp(log_sum / count)
    except OverflowError:
        raise ValueError(f"geometric-mean cost e^{log_sum / count:.1f} overflows a float") from None


@dataclass(frozen=True)
class FitResult:
    """OLS slope of log cost against log n."""

    slope: float
    stderr: float
    intercept: float
    n_points: int
    log_normalized: bool

    def as_dict(self) -> dict:
        return asdict(self)


def fit_exponent(
    points: Sequence[tuple[int, float]], log_normalize: bool = False
) -> FitResult:
    """Fit cost ~ n^slope (optionally cost / ceil(log2 n) ~ n^slope).

    Needs at least 3 distinct sizes.  stderr is the usual OLS standard
    error of the slope; an exact power law fits with stderr ~ 0.
    """
    if len({n for n, _ in points}) < 3:
        raise ValueError("exponent fit needs at least 3 distinct sizes")
    xs, ys = [], []
    for n, cost in points:
        if n < 2 or cost <= 0:
            raise ValueError("fit points need n >= 2 and positive cost")
        norm = math.ceil(math.log2(n)) if log_normalize else 1
        xs.append(math.log(n))
        ys.append(math.log(cost / norm))
    m = len(xs)
    mean_x = float_sum(xs) / m
    mean_y = float_sum(ys) / m
    sxx = float_sum((x - mean_x) ** 2 for x in xs)
    sxy = float_sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ssr = float_sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    stderr = math.sqrt(ssr / (m - 2) / sxx)
    return FitResult(slope, stderr, intercept, m, log_normalize)


def run_matcher(
    algorithm: str, instance: MatchInstance, run_config: NestedConfig, uniforms=None
) -> RunReport:
    """Run one matcher by algorithm name on a fresh ledger; the classical ones ignore config.
    An amplified one measures on ``uniforms`` if given, else on its seed's stream."""
    matcher = globals()[MATCHERS[algorithm]]
    if algorithm in AMPLIFIED:
        return matcher(instance, run_config, uniforms=uniforms)
    return matcher(instance)


def _run_trial(
    config: SweepConfig,
    instance: MatchInstance,
    trial: int,
    run_seed: int,
    run_config: NestedConfig,
    uniforms: Optional[list[float]],
) -> TrialRow:
    """One matcher call's row; an amplified run measures on ``uniforms``, from ``run_seed``."""
    report = run_matcher(config.algorithm, instance, run_config, uniforms)
    if uniforms is not None:
        report.rng_seed = run_seed
    ledger = report.ledger
    # by position, in column order: keywords cost a NamedTuple twice as much
    return TrialRow(
        config.algorithm,
        instance.n,
        trial,
        instance.seed,
        int(report.correct),
        ledger.total_cost(),
        ledger.l1_queries,
        ledger.l2_queries,
        ledger.mem_reads,
        ledger.mem_writes,
        ledger.peak_workspace,
        report.predicted_success,
    )


class SizeTally:
    """One size's running aggregates, folded from its rows in sweep order a run at a time: its
    float sums, of log(total_cost) and of predicted success, add left to right, as ``float_sum``
    adds a list, and its size does not grow with its trials."""

    __slots__ = ("trials", "successes", "max_peak_workspace", "log_cost_sum", "predicted_sum")

    def __init__(self) -> None:
        self.trials = self.successes = self.max_peak_workspace = 0
        self.log_cost_sum = self.predicted_sum = 0.0

    def fold(self, rows: Sequence[TrialRow]) -> None:
        """Add ``rows``, this size's next rows in sweep order."""
        _, _, _, _, successes, costs, _, _, _, _, peaks, predicted = zip(*rows)
        self.trials += len(rows)
        self.successes += sum(successes)
        self.max_peak_workspace = max(self.max_peak_workspace, *peaks)
        self.log_cost_sum = float_sum(map(math.log, costs), self.log_cost_sum)
        self.predicted_sum = float_sum(predicted, self.predicted_sum)


@dataclass
class SweepResult:
    """A finished sweep: its per-size aggregates and, with ``keep_rows``, its rows (else None)."""

    config: SweepConfig
    rows: Optional[list[TrialRow]]
    sizes: dict[int, SizeTally]

    def aggregate(self) -> dict:
        per_n = []
        for n, tally in self.sizes.items():
            trials = tally.trials
            per_n.append(
                {
                    "n": n,
                    "trials": trials,
                    "geomean_cost": _exp_mean(tally.log_cost_sum, trials),
                    "success_rate": tally.successes / trials,
                    "mean_predicted_success": tally.predicted_sum / trials,
                    "max_peak_workspace": tally.max_peak_workspace,
                }
            )
        doc: dict = {"algorithm": self.config.algorithm, "per_n": per_n}
        if len(per_n) >= 3:
            points = [(entry["n"], entry["geomean_cost"]) for entry in per_n]
            doc["fit"] = fit_exponent(points, log_normalize=False).as_dict()
            doc["fit_log_normalized"] = fit_exponent(points, log_normalize=True).as_dict()
        else:
            doc["fit"] = None
            doc["fit_log_normalized"] = None
        return doc

    def to_json_text(self) -> str:
        doc = {"config": self.config.as_dict(), "aggregate": self.aggregate()}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def write_outputs(self, csv_path: str | Path) -> tuple[Path, Path]:
        """Write the aggregate JSON next to ``csv_path``, then move the streamed CSV into place;
        a failed move deletes the JSON."""
        csv_path, json_path, part = output_paths(csv_path)
        if not part.is_file():
            raise ValueError(f"no streamed CSV {part} to move into place: nothing written")
        json_path.write_text(self.to_json_text(), encoding="utf-8")
        try:
            part.replace(csv_path)
        except BaseException:
            json_path.unlink(missing_ok=True)
            raise
        return csv_path, json_path


def output_paths(csv_path: str | Path) -> tuple[Path, Path, Path]:
    """The CSV path a sweep writes, its aggregate JSON beside it and the file it streams rows to."""
    csv_path = Path(csv_path)
    return csv_path, csv_path.with_suffix(".json"), Path(f"{csv_path}.tmp")


# run_sweep's unit of work: this many consecutive trials in sweep order, which
# may span sizes, so a size of a few trials still shares one seed_words call
SWEEP_CHUNK = 1024

# Chunks that draw from fewer seeds hash none.  One seed_words call costs about 50 us: with the
# generators built from its words, 8 seeds took 81-93 us against 105-159 us for 8 default_rng
# calls, and 4 seeds 75 against 50 us (2-core x86-64 VM).
SEED_WORDS_BREAK_EVEN = 8

# Batches of at most this many values (rows times 2n, a row counting at least 64): keys of at
# most 256 KB.  noisy_small_batch's sweep against batches of one, CPU time, medians of 40 runs
# interleaved, twice (2-core x86-64 VM): 2^14 x0.77, 2^15 x0.75-0.76, 2^16 x0.76; earlier, 2^10
# x0.92, 2^12 x0.85.  Fewer than 8 rows go one at a time: 8 at n = 1024 took x0.89, 4 x0.99.
GENERATION_BATCH_VALUES = 1 << 16

# Hashed chunks of at least this many amplified trials draw all run streams in one run_streams
# pass; smaller ones build a generator a trial.  Noisy nested sweeps of T trials, n = 16..1024,
# pass against generators, medians of 60 interleaved runs (2-core x86-64 VM): T = 16 x1.09,
# 32 x1.05, 48 x0.99, 64 x0.99, 96 x0.96, 128 x0.94.  It gates only how streams are drawn:
# each trial runs the same matcher path in every chunk.
RUN_STREAM_BREAK_EVEN = 64


def _run_chunk(
    config: SweepConfig,
    cells: list[tuple[int, int]],
    run_configs: dict[int, NestedConfig],
) -> list[TrialRow]:
    """The rows of the cells given, batch by batch.  A chunk that draws from at least
    ``SEED_WORDS_BREAK_EVEN`` seeds hashes them in one ``seed_words`` call, instance seeds first.
    If amplified, it plans each size, then draws every run stream: in one
    ``run_streams`` pass from ``RUN_STREAM_BREAK_EVEN`` hashed trials, else by a generator a trial,
    from its seed's words if hashed.  Each trial is one matcher call with its size's config."""
    count = len(cells)
    instance_seeds, run_seeds = map(list, zip(*_seed_pairs(config.base_seed, cells)))
    amplified = config.algorithm in AMPLIFIED
    drawn = instance_seeds + run_seeds if amplified else instance_seeds
    hashed = len(drawn) >= SEED_WORDS_BREAK_EVEN
    words = seed_words(drawn) if hashed else [None] * len(drawn)
    streams, rows = None, []
    try:
        if amplified:
            nested, sizes = config.algorithm == "nested", {n for n, _ in cells}
            lengths = {n: run_stream_length(nested, n, run_configs[n].noise) for n in sizes}
            run_words, longest = words[count:], max(lengths.values())
            if hashed and count >= RUN_STREAM_BREAK_EVEN:
                streams = run_streams(run_words, longest)
            else:
                rngs = map(seeded_rng, run_seeds, run_words)
                streams = np.array([rng.random(longest) for rng in rngs])
        for n, group in groupby(zip(cells, run_seeds), key=lambda c: c[0][0]):
            per_batch = GENERATION_BATCH_VALUES // max(2 * n, 64) if hashed else 1
            while batch := list(islice(group, per_batch if per_batch >= 8 else 1)):
                # the batch's seeds, words and streams start where the rows so far end
                at, trial = slice(len(rows), len(rows) + len(batch)), batch[0][0][1]
                seeds = instance_seeds[at]
                if len(seeds) == 1:  # through generate_instance, which the layer tracer times
                    instances = [generate_instance(n, seeds[0], words[at][0])]
                else:
                    instances = generate_instances(n, seeds, words[at])
                uniforms = repeat(None) if streams is None else streams[at, : lengths[n]].tolist()
                run_config = run_configs[n]
                for ((_, trial), run_seed), instance, stream in zip(batch, instances, uniforms):
                    rows.append(_run_trial(config, instance, trial, run_seed, run_config, stream))
                del instances, instance  # not held while the next batch is drawn
    except ResourceLimitError as err:
        raise ResourceLimitError(f"n={n}, trial={trial}: {err}") from err
    return rows


def run_sweep(config: SweepConfig, keep_rows: bool = True) -> SweepResult:
    """Run every (n, trial) cell of the sweep deterministically.

    Each size's run config is built once.  Trials run in chunks of up to ``SWEEP_CHUNK``
    consecutive cells.  A chunk's instance and run seeds are derived before its first trial.
    A chunk that draws from enough seeds hashes them in one pass; an amplified chunk draws
    each trial's run stream from its run seed, which the report names (``_run_chunk``).  Its
    rows are then folded into per-size aggregates, appended to ``<output>.tmp`` when the
    config names an output, and kept only with ``keep_rows``, so without them memory follows
    one chunk and not the sweep.  That stream is a sweep's only CSV; ``write_outputs`` writes
    the JSON and renames it.  An output or JSON path that is a directory is refused before
    anything runs.  A sweep that raises deletes its temporary file, and each directory it made
    for it that is empty, and leaves no output.
    """
    sizes = {n: SizeTally() for n in config.n_values}
    result = SweepResult(config, [] if keep_rows else None, sizes)
    knobs = (config.engine, config.uncompute_factor)  # a size's trials share one run config
    run_configs = {n: NestedConfig(None, *knobs, noise_spec(config.noise_preset, n)) for n in sizes}
    # a generator: itertools.product would hold every trial number as an int
    cells = ((n, trial) for n in config.n_values for trial in range(config.trials_per_n))
    stream, made = None, []
    try:
        if config.output is not None:
            if Path(config.output).is_dir():  # "", "." and ".." too
                raise ValueError(f"output {config.output!r} is a directory")
            _, json_path, part = output_paths(config.output)
            if json_path.is_dir():
                raise ValueError(f"the sweep's JSON {str(json_path)!r} is a directory")
            # the missing directories, deepest first
            made = list(takewhile(lambda d: not d.exists(), part.parents))
            part.parent.mkdir(parents=True, exist_ok=True)
            stream = open(part, "w", encoding="utf-8")
            stream.write(_CSV_HEADER)
        while chunk := list(islice(cells, SWEEP_CHUNK)):
            rows = _run_chunk(config, chunk, run_configs)
            if stream is not None:
                stream.write(_rows_text(rows))
            for n, run in groupby(rows, key=itemgetter(1)):
                sizes[n].fold(list(run))
            if keep_rows:
                result.rows.extend(rows)
            del rows  # not held while the next chunk runs
        if stream is not None:
            stream.close()
            result.write_outputs(config.output)
    except BaseException:
        if stream is not None:
            stream.close()
            part.unlink(missing_ok=True)
        for directory in made:
            with suppress(OSError):  # not empty: something else wrote there
                directory.rmdir()
        raise
    return result


def _trial_row(fields: list[str]) -> TrialRow:
    if len(fields) != len(CSV_COLUMNS):
        raise ValueError(f"expected {len(CSV_COLUMNS)} fields, got {len(fields)}")
    # the algorithm name, then every integer column, then predicted_success
    row = TrialRow(fields[0], *map(int, fields[1:-1]), float(fields[-1]))
    if row.algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {row.algorithm!r}")
    for name in ("trial", "seed", *ACCESS_KINDS, "peak_workspace"):
        if getattr(row, name) < 0:
            raise ValueError(f"{name} is negative: {getattr(row, name)}")
    accesses = sum(getattr(row, kind) for kind in ACCESS_KINDS)
    if row.total_cost != accesses:
        raise ValueError(f"total_cost {row.total_cost} is not the sum of its counters, {accesses}")
    if row.total_cost < 1:
        raise ValueError("total_cost must be at least 1")
    if row.success not in (0, 1):
        raise ValueError(f"success must be 0 or 1, got {row.success}")
    if row.n < 2:
        raise ValueError(f"n must be at least 2, got {row.n}")
    if not 0.0 <= row.predicted_success <= 1.0:
        raise ValueError(f"predicted_success {row.predicted_success} is outside [0, 1]")
    return row


def load_rows(csv_path: str | Path) -> list[TrialRow]:
    """Read sweep rows back from a CSV file; a malformed line is a ValueError."""
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows: dict[tuple[int, int], TrialRow] = {}
        try:
            if tuple(next(reader, ())) != CSV_COLUMNS:
                raise ValueError("unexpected CSV header")
            # blank lines carry no row, and no sweep writes an (n, trial) twice
            for row in (_trial_row(fields) for fields in reader if fields):
                if (row.n, row.trial) in rows:
                    raise ValueError(f"a second row for n={row.n}, trial={row.trial}")
                rows[row.n, row.trial] = row
        except (ValueError, csv.Error) as err:
            raise ValueError(f"{csv_path}, line {reader.line_num}: {err}") from err
    if not rows:
        raise ValueError(f"{csv_path} has no rows")
    return list(rows.values())


def geomean_costs(rows: Sequence[TrialRow]) -> dict[int, float]:
    """The geometric-mean total cost per n of one algorithm's rows, n ascending, folded
    through ``SizeTally`` as a sweep's JSON folds them."""
    if not rows:
        raise ValueError("no rows to group")
    algorithms = {r.algorithm for r in rows}
    if len(algorithms) != 1:
        raise ValueError(f"rows mix algorithms: {sorted(algorithms)}")
    sizes: defaultdict[int, SizeTally] = defaultdict(SizeTally)
    for n, run in groupby(rows, key=itemgetter(1)):
        sizes[n].fold(list(run))
    return {n: _exp_mean(sizes[n].log_cost_sum, sizes[n].trials) for n in sorted(sizes)}


@dataclass(frozen=True)
class CompareTable:
    """Side-by-side geometric-mean costs for several sweeps."""

    n_values: tuple[int, ...]
    labels: tuple[str, ...]
    costs: dict[str, dict[int, float]]
    crossover_n: Optional[int]

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", *self.labels])
        for n in self.n_values:
            writer.writerow([n, *(repr(self.costs[label][n]) for label in self.labels)])
        return buf.getvalue()

    def to_text(self) -> str:
        lines = ["  ".join([f"{'n':>8}", *(f"{label:>16}" for label in self.labels)])]
        for n in self.n_values:
            cells = [f"{n:>8}", *(f"{self.costs[label][n]:>16.1f}" for label in self.labels)]
            lines.append("  ".join(cells))
        if self.crossover_n is not None:
            lines.append(f"nested beats sort_scan from n={self.crossover_n}")
        elif "nested" in self.labels and "sort_scan" in self.labels:
            lines.append("nested never beats sort_scan in this range")
        return "\n".join(lines) + "\n"


def compare_report(row_sets: Sequence[Sequence[TrialRow]]) -> CompareTable:
    """Align several sweeps' rows, one algorithm each, over identical n grids.

    Raises ValueError unless at least two row sets cover the exact same
    sizes.  When both a sort_scan and a nested sweep are present,
    reports the smallest n where nested is cheaper.
    """
    if len(row_sets) < 2:
        raise ValueError("comparison needs at least two sweeps")
    # one label per row set, in order: the dict keeps them
    costs: dict[str, dict[int, float]] = {}
    for rows in row_sets:
        per_n = geomean_costs(rows)
        label = rows[0].algorithm
        if label in costs:
            suffix = 2
            while f"{label}#{suffix}" in costs:
                suffix += 1
            label = f"{label}#{suffix}"
        costs[label] = per_n
    n_values = tuple(next(iter(costs.values())))
    for per_n in costs.values():
        if tuple(per_n) != n_values:
            raise ValueError(f"sweeps cover different sizes: {tuple(per_n)} vs {n_values}")
    crossover = None
    if "nested" in costs and "sort_scan" in costs:
        crossover = next((n for n in n_values if costs["nested"][n] < costs["sort_scan"][n]), None)
    return CompareTable(n_values, tuple(costs), costs, crossover)
