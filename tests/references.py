"""References and helpers that only the tests call, built on the package's
own private functions.

- ``two_level_outcome_distribution`` is the exact outcome law of a joint
  two-level statevector run: the coherent model that the nested
  matcher's composed success (outer hit times final verify) and its
  sampled outcomes are checked against.
- ``composed_success_probability`` and ``failure_probability`` read the
  closed forms the matchers and runners already compute.
- ``instance_from_lists`` builds an instance from hand-written lists, on
  the constructor generation uses, from their ``raw_draw``, and
  ``check_instance`` checks every structural invariant of one;
  ``instance_fields`` is what two instances compare equal by.
- ``record_generation`` hooks a sweep's instance generation, one seed or
  a batch at a time.
- ``sweep_csv`` runs a sweep into a directory and reads its CSV back: the
  one way the tests take a sweep's CSV text.
- ``reference_sweep`` is a sweep's CSV and JSON text computed one cell at a
  time, with none of ``run_sweep``'s fast paths.
"""

import csv
import dataclasses
import io
import json
import math
from pathlib import Path
from typing import Optional

import numpy as np

from matchsim import experiments, matchers
from matchsim.experiments import (
    AMPLIFIED,
    CSV_COLUMNS,
    MATCHERS,
    SweepConfig,
    TrialRow,
    derive_seed,
    fit_exponent,
    load_rows,
    noise_spec,
    run_sweep,
)
from matchsim.grover import _check_counts, _masses, success_probability
from matchsim.matchers import NestedConfig, _nested_plan, _nested_shape
from matchsim.model import (
    CostLedger,
    MatchInstance,
    ResourceLimitError,
    _repeats,
    generate_instance,
)


def failure_probability(space_size: int, marked_count: int, iterations: int) -> float:
    """Probability of measuring an unmarked index after ``iterations`` rounds.

    Equals cos^2((2r + 1) * asin(sqrt(k / M))), accurate where it is far
    below the float spacing near 1 and ``1 - success_probability`` is 0:
    the unmarked mass ``run_analytic`` samples from.
    """
    _check_counts(space_size, marked_count, iterations)
    return _masses(space_size, marked_count, 2 * iterations + 1)[1]


def composed_success_probability(n: int, config: Optional[NestedConfig] = None) -> float:
    """Predicted success of the nested matcher: outer hit times final verify."""
    config = config if config is not None else NestedConfig()
    failure_prob = config.noise.failure_prob if config.noise is not None else 0.0
    return _nested_plan(n, config.block_size, failure_prob).predicted_success


def check_instance(inst: MatchInstance) -> None:
    """Check every structural invariant of an instance; raise ValueError on failure."""
    if inst.n < 2:
        raise ValueError("instance size must be at least 2")
    if _repeats(inst.values1) or _repeats(inst.values2):
        raise ValueError("lists must not repeat values internally")
    if np.intersect1d(inst.values1, inst.values2).tolist() != [inst.planted_value]:
        raise ValueError("lists must share exactly the planted value")
    if not (0 <= inst.planted_pos1 < inst.n and 0 <= inst.planted_pos2 < inst.n):
        raise ValueError("planted positions out of range")
    if int(inst.values1[inst.planted_pos1]) != inst.planted_value:
        raise ValueError("planted_pos1 does not point at planted_value")
    if int(inst.values2[inst.planted_pos2]) != inst.planted_value:
        raise ValueError("planted_pos2 does not point at planted_value")


def raw_draw(values1, values2, pos1: int, pos2: int) -> np.ndarray:
    """The raw draw that lays out to two uint64 lists whose shared value sits at ``pos1`` and
    ``pos2``: that value, list1 and then list2 without it, and one filler word."""
    planted, filler = values1[pos1 : pos1 + 1], np.zeros(1, np.uint64)
    return np.concatenate((planted, np.delete(values1, pos1), np.delete(values2, pos2), filler))


def instance_from_lists(list1, list2, seed: Optional[int] = None) -> MatchInstance:
    """The instance over two explicit lists of equal length that share exactly one value:
    built from their ``raw_draw`` by the constructor generation uses, laid out and checked."""
    n = len(list1)
    if len(list2) != n:
        raise ValueError("lists must have equal length")
    values1, values2 = np.asarray(list1, np.uint64), np.asarray(list2, np.uint64)
    shared = np.intersect1d(values1, values2)
    if len(shared) != 1:
        raise ValueError(f"lists must share exactly one value, found {len(shared)}")
    pos1, pos2 = (int((values == shared[0]).argmax()) for values in (values1, values2))
    inst = MatchInstance(raw_draw(values1, values2, pos1, pos2), n, pos1, pos2, seed)
    check_instance(inst)
    return inst


def instance_fields(inst: MatchInstance) -> dict:
    """An instance's public fields once its lists are laid out, in their order, arrays as
    lists: what two instances compare by.  The raw draw's words past 2n are not compared."""
    inst.values1  # the first read lays the lists out
    return {
        k: v.tolist() if isinstance(v, np.ndarray) else v
        for k, v in vars(inst).items() if not k.startswith("_")
    }


MAX_JOINT_CELLS = 1 << 16


def two_level_outcome_distribution(
    instance: MatchInstance,
    config: Optional[NestedConfig] = None,
) -> dict[tuple[int, bool], float]:
    """Exact outcome distribution of a joint two-level statevector run.

    Simulates the nested iteration on one real-valued (blocks, n) state
    over (block, list2 index) pairs: each outer oracle application runs
    every block's inner rotation (D O)^r A in superposition, phase-flips
    branches whose inner register verifies, and unwinds it as A (O D)^r,
    so imperfect uncomputation shows up as leaked amplitude.  A (index 0
    to uniform), O (the block's flip) and D (inversion about the mean)
    act on each row in O(n), so a run holds no array larger than the
    state; over MAX_JOINT_CELLS cells it raises ResourceLimitError.  Returns
    probabilities for (measured block, final pass verified) outcomes;
    the final pass is scored with the closed-form membership success.
    """
    config = config if config is not None else NestedConfig()
    n = instance.n
    b, blocks, r_outer, r_inner = _nested_shape(n, config.block_size)
    if blocks * n > MAX_JOINT_CELLS:
        raise ResourceLimitError(
            f"joint space of {blocks * n} cells exceeds the cap of {MAX_JOINT_CELLS}"
        )
    # O: row i is -1 where list2 holds a value of block i
    flips = np.ones((blocks, n))
    for i in range(blocks):
        flips[i, np.isin(instance.values2, instance.values1[i * b : (i + 1) * b])] = -1.0
    # A is v - 2 (v.w) w; n >= 2 (``_nested_shape``), so w is never zero
    w = np.full(n, -1.0 / math.sqrt(n))
    w[0] += 1.0
    w /= np.linalg.norm(w)

    def prep(psi: np.ndarray) -> np.ndarray:
        return psi - 2.0 * np.outer(psi @ w, w)

    def diffuse(psi: np.ndarray) -> np.ndarray:
        return 2.0 * psi.mean(axis=1, keepdims=True) - psi

    psi = np.zeros((blocks, n))
    psi[:, 0] = 1.0 / math.sqrt(blocks)
    for _ in range(r_outer):
        psi = prep(psi)
        for _ in range(r_inner):
            psi = diffuse(psi * flips)
        psi *= flips
        for _ in range(r_inner):
            psi = diffuse(psi) * flips
        psi = prep(psi)
        psi = 2.0 * psi.mean(axis=0) - psi

    out = {(i, False): float(p) for i, p in enumerate((psi * psi).sum(axis=1))}
    # only the marked block's final pass can verify
    marked_block = instance.planted_pos1 // b
    p = out.pop((marked_block, False))
    p_inner = success_probability(n, 1, r_inner)
    out[(marked_block, True)] = p * p_inner
    if p_inner < 1.0:
        out[(marked_block, False)] = p * (1.0 - p_inner)
    return out


def record_generation(monkeypatch, record) -> None:
    """Call ``record(n, seed)`` before each instance a sweep generates, in order.

    Patches both names ``run_sweep`` generates through,
    ``experiments.generate_instance`` and ``experiments.generate_instances``;
    a batch records each of its seeds before any of them is drawn.
    """
    one, batch = experiments.generate_instance, experiments.generate_instances

    def generate_instance(n, seed, words=None):
        record(n, seed)
        return one(n, seed, words)

    def generate_instances(n, seeds, words):
        for seed in seeds:
            record(n, seed)
        return batch(n, seeds, words)

    monkeypatch.setattr(experiments, "generate_instance", generate_instance)
    monkeypatch.setattr(experiments, "generate_instances", generate_instances)


def sweep_csv(config: SweepConfig, directory: Path) -> tuple[str, list[TrialRow]]:
    """Run ``config`` with its output at ``directory / "rows.csv"`` (the aggregate JSON
    beside it): the CSV file's exact text, and ``load_rows`` of it."""
    path = directory / "rows.csv"
    run_sweep(dataclasses.replace(config, output=str(path)), keep_rows=False)
    return path.read_bytes().decode("utf-8"), load_rows(path)


def reference_sweep(config: SweepConfig) -> tuple[str, str]:
    """The CSV and aggregate JSON text ``run_sweep`` writes for ``config``, each cell computed
    alone: its seeds by two ``derive_seed`` calls, its instance by ``generate_instance`` from
    the seed alone, and its matcher run on a ledger of its own, an amplified one drawing its
    stream from ``rng_seed``.  The CSV goes through ``csv.writer``; the JSON's sums are plain
    left-to-right loops."""
    matcher = getattr(matchers, MATCHERS[config.algorithm])
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    per_n = []
    for n in config.n_values:
        successes = peak = 0
        log_cost_sum = predicted_sum = 0.0
        for trial in range(config.trials_per_n):
            seed = derive_seed(config.base_seed, n, trial, "instance")
            run_config = NestedConfig(
                engine=config.engine,
                uncompute_factor=config.uncompute_factor,
                noise=noise_spec(config.noise_preset, n),
                rng_seed=derive_seed(config.base_seed, n, trial, "run"),
            )
            instance, ledger = generate_instance(n, seed), CostLedger()
            if config.algorithm in AMPLIFIED:
                report = matcher(instance, run_config, ledger)
            else:
                report = matcher(instance, ledger)
            writer.writerow([
                config.algorithm, n, trial, seed, int(report.correct), ledger.total_cost(),
                ledger.l1_queries, ledger.l2_queries, ledger.mem_reads, ledger.mem_writes,
                ledger.peak_workspace, report.predicted_success,
            ])
            successes += report.correct
            peak = max(peak, ledger.peak_workspace)
            log_cost_sum += math.log(ledger.total_cost())
            predicted_sum += report.predicted_success
        trials = config.trials_per_n
        per_n.append({
            "n": n,
            "trials": trials,
            "geomean_cost": math.exp(log_cost_sum / trials),
            "success_rate": successes / trials,
            "mean_predicted_success": predicted_sum / trials,
            "max_peak_workspace": peak,
        })
    aggregate = {"algorithm": config.algorithm, "per_n": per_n}
    points = [(entry["n"], entry["geomean_cost"]) for entry in per_n]
    for key, log_normalize in (("fit", False), ("fit_log_normalized", True)):
        fit = fit_exponent(points, log_normalize) if len(points) >= 3 else None
        aggregate[key] = fit and dataclasses.asdict(fit)
    doc = {"config": dataclasses.asdict(config), "aggregate": aggregate}
    return out.getvalue(), json.dumps(doc, indent=2, sort_keys=True) + "\n"
