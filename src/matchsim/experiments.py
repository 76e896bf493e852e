"""Seeded sweeps, CSV/JSON emission, exponent fits, and comparisons.

A sweep runs one matcher over a grid of sizes with per-trial seeds
derived deterministically from a base seed, so identical configs yield
byte-identical outputs.  Fits are ordinary least squares on log-log
points, optionally dividing costs by ceil(log2 n) first to separate a
pure power law from a power law with a log factor.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

# statevector_cap_from_env is re-exported: perfbench's worker records the
# cap in its provenance through this module
from .grover import ENGINES, NoisyOracleSpec, ResourceLimitError, statevector_cap_from_env
from .matchers import (
    NestedConfig,
    classical_sort_scan,
    classical_two_sort_merge,
    exhaustive_pairs,
    naive_grover_pairs,
    nested_grover_match,
)
from .model import (
    ACCESS_KINDS,
    CostLedger,
    MatchInstance,
    RunReport,
    forget_seed_words,
    generate_instance,
    remember_seed_words,
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
# the algorithms that take a run config and draw from its run seed
AMPLIFIED = ("naive_grover", "nested")
NOISE_PRESETS = ("none", "inv_n", "inv_sqrt_n")


def derive_seed(base_seed: int, n: int, trial: int, stream: str) -> int:
    """Stable 64-bit sub-seed for one trial's instance or run stream."""
    digest = hashlib.blake2b(
        f"{base_seed}:{n}:{trial}:{stream}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


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
        if self.trials_per_n < 1:
            raise ValueError("trials_per_n must be at least 1")
        if self.base_seed < 0:
            raise ValueError("base_seed must be non-negative")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.noise_preset not in NOISE_PRESETS:
            raise ValueError(f"unknown noise preset {self.noise_preset!r}")
        if self.uncompute_factor < 1:
            raise ValueError("uncompute_factor must be at least 1")
        # the aggregate JSON goes next to the CSV, under the .json suffix
        if self.output is not None and Path(self.output).suffix.lower() == ".json":
            raise ValueError(f"output {self.output!r} would be overwritten by the sweep's JSON")

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


def geometric_mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("geometric mean of no values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


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
    mean_x = sum(xs) / m
    mean_y = sum(ys) / m
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ssr = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys))
    stderr = math.sqrt(ssr / (m - 2) / sxx)
    return FitResult(
        slope=slope,
        stderr=stderr,
        intercept=intercept,
        n_points=m,
        log_normalized=log_normalize,
    )


def run_matcher(
    algorithm: str,
    instance: MatchInstance,
    run_config: NestedConfig,
    ledger: CostLedger,
) -> RunReport:
    """Run one matcher by algorithm name; the classical ones ignore config."""
    matcher = globals()[MATCHERS[algorithm]]
    if algorithm in AMPLIFIED:
        return matcher(instance, run_config, ledger)
    return matcher(instance, ledger)


def _run_trial(
    config: SweepConfig,
    n: int,
    trial: int,
    instance_seed: int,
    run_seed: int,
    noise: Optional[NoisyOracleSpec],
) -> TrialRow:
    instance = generate_instance(n, instance_seed)
    ledger = CostLedger()
    run_config = NestedConfig(
        engine=config.engine,
        uncompute_factor=config.uncompute_factor,
        noise=noise,
        rng_seed=run_seed,
    )
    report = run_matcher(config.algorithm, instance, run_config, ledger)
    # by position, in column order: keywords cost a NamedTuple twice as much
    return TrialRow(
        config.algorithm,
        n,
        trial,
        instance_seed,
        int(report.correct),
        ledger.total_cost(),
        ledger.l1_queries,
        ledger.l2_queries,
        ledger.mem_reads,
        ledger.mem_writes,
        ledger.peak_workspace,
        report.predicted_success,
    )


@dataclass
class SweepResult:
    """All rows of a finished sweep plus derived aggregates."""

    config: SweepConfig
    rows: list[TrialRow]

    def aggregate(self) -> dict:
        per_n = []
        for n, rows in rows_by_size(self.rows).items():
            per_n.append(
                {
                    "n": n,
                    "trials": len(rows),
                    "geomean_cost": geometric_mean([r.total_cost for r in rows]),
                    "success_rate": sum(r.success for r in rows) / len(rows),
                    "mean_predicted_success": sum(r.predicted_success for r in rows)
                    / len(rows),
                    "max_peak_workspace": max(r.peak_workspace for r in rows),
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

    def to_csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        # csv writes an int with str and a float with repr: the bytes str gives
        writer.writerows(self.rows)
        return buf.getvalue()

    def to_json_text(self) -> str:
        doc = {"config": self.config.as_dict(), "aggregate": self.aggregate()}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    def write_outputs(self, csv_path: str | Path) -> tuple[Path, Path]:
        """Write rows as CSV and aggregates as JSON next to it."""
        csv_path, json_path = output_paths(csv_path)
        csv_path.parent.mkdir(parents=True, exist_ok=True)
        csv_path.write_text(self.to_csv_text(), encoding="utf-8")
        json_path.write_text(self.to_json_text(), encoding="utf-8")
        return csv_path, json_path


def output_paths(csv_path: str | Path) -> tuple[Path, Path]:
    """The CSV path a sweep writes and the aggregate JSON path next to it."""
    csv_path = Path(csv_path)
    return csv_path, csv_path.with_suffix(".json")


def run_sweep(config: SweepConfig) -> SweepResult:
    """Run every (n, trial) cell of the sweep deterministically.

    Each trial's instance and run seeds are derived once, up front, and
    the seeds the algorithm draws from are hashed in one pass before the
    first trial (``remember_seed_words``); they are forgotten again when
    the sweep returns or raises.
    """
    base, trials = config.base_seed, range(config.trials_per_n)
    instance_seeds = [
        derive_seed(base, n, trial, "instance") for n in config.n_values for trial in trials
    ]
    run_seeds = [derive_seed(base, n, trial, "run") for n in config.n_values for trial in trials]
    seeds = zip(instance_seeds, run_seeds)
    rows: list[TrialRow] = []
    try:
        remember_seed_words(
            instance_seeds + run_seeds if config.algorithm in AMPLIFIED else instance_seeds
        )
        for n in config.n_values:
            noise = noise_spec(config.noise_preset, n)
            for trial in trials:
                instance_seed, run_seed = next(seeds)
                try:
                    rows.append(_run_trial(config, n, trial, instance_seed, run_seed, noise))
                except ResourceLimitError as err:
                    raise ResourceLimitError(f"n={n}, trial={trial}: {err}") from err
    finally:
        forget_seed_words()
    result = SweepResult(config=config, rows=rows)
    if config.output is not None:
        result.write_outputs(config.output)
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
        try:
            if tuple(next(reader, ())) != CSV_COLUMNS:
                raise ValueError("unexpected CSV header")
            # blank lines carry no row
            return [_trial_row(fields) for fields in reader if fields]
        except (ValueError, csv.Error) as err:
            raise ValueError(f"{csv_path}, line {reader.line_num}: {err}") from err


def rows_by_size(rows: Sequence[TrialRow]) -> dict[int, list[TrialRow]]:
    """One algorithm's rows grouped by n: sizes ascending, each size's rows in order."""
    if not rows:
        raise ValueError("no rows to rebuild a sweep from")
    algorithms = {r.algorithm for r in rows}
    if len(algorithms) != 1:
        raise ValueError(f"rows mix algorithms: {sorted(algorithms)}")
    groups: dict[int, list[TrialRow]] = {}
    for row in rows:
        groups.setdefault(row.n, []).append(row)
    return {n: groups[n] for n in sorted(groups)}


def geomean_costs(rows: Sequence[TrialRow]) -> dict[int, float]:
    """The geometric-mean total cost per n of one algorithm's rows, n ascending."""
    by_n = rows_by_size(rows)
    return {n: geometric_mean([r.total_cost for r in group]) for n, group in by_n.items()}


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
        lines = []
        header = ["n"] + [f"{label:>16}" for label in self.labels]
        lines.append("  ".join([f"{'n':>8}"] + header[1:]))
        for n in self.n_values:
            cells = [f"{n:>8}"]
            for label in self.labels:
                cells.append(f"{self.costs[label][n]:>16.1f}")
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
        for n in n_values:
            if costs["nested"][n] < costs["sort_scan"][n]:
                crossover = n
                break
    return CompareTable(
        n_values=n_values,
        labels=tuple(costs),
        costs=costs,
        crossover_n=crossover,
    )
