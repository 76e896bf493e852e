"""Matching strategies over a two-list instance, classical and amplified.

All strategies answer the same question (where is the one shared value?)
against the same cost model, so their ledgers are directly comparable:

- exhaustive_pairs: probe every pair.
- classical_sort_scan: sort list1, probe every list2 value against it.
- classical_two_sort_merge: sort both lists, walk them in step.
- naive_grover_pairs: single amplified search over the N^2 pair space.
- nested_grover_match: amplified search over sqrt(N) blocks of list1
  whose oracle internally runs an amplified membership search over
  list2, then a final sort-and-verify pass on the measured block.

No matcher performs the sorts and membership probes it is charged for:
each charges them by the closed forms of ``sortsearch`` and finds what
it reports by compare.  The amplified matchers run each search as a
``Search`` through the configured engine's runner, looked up in this
module at call time, and charge its rounds themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from .grover import (  # run_noisy_outer: unused, but the layer tracer patches it here
    ENGINES,
    NoisyOracleSpec,
    ResourceLimitError,
    Search,
    iteration_schedule,
    noisy_success_probability,
    run_analytic,
    run_noisy_outer,
    run_statevector,
    success_probability,
)
from .model import CostLedger, MatchInstance, RunReport, _repeats, seeded_rng
# binary_membership, sort_instrumented: unused, but the layer tracer patches them here
from .sortsearch import (
    block_count,
    binary_membership,
    charge_sort,
    membership_probe_depth,
    sort_charges,
    sort_instrumented,
)


@dataclass(frozen=True)
class NestedConfig:
    """Knobs for the amplified matchers.

    ``block_size`` defaults to ceil(sqrt(n)); ``engine`` picks the
    search engine (auto runs the reduced engine; statevector runs the
    full-amplitude reference, noisy runs included);
    ``uncompute_factor`` multiplies every in-iteration oracle charge to
    model running the oracle circuit forward and back; ``noise`` applies
    per-round dropout to the nested matcher's outer stage.
    """

    block_size: Optional[int] = None
    engine: str = "auto"
    uncompute_factor: int = 2
    noise: Optional[NoisyOracleSpec] = None
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.block_size is not None and self.block_size < 1:
            raise ValueError("block_size must be at least 1")
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.uncompute_factor < 1:
            raise ValueError("uncompute_factor must be at least 1")


def _failure_prob(config: NestedConfig) -> float:
    return config.noise.failure_prob if config.noise is not None else 0.0


def _engine(config: NestedConfig) -> tuple[str, Callable]:
    """The engine that runs (auto runs the reduced one) and its runner."""
    if config.engine == "statevector":
        return "statevector", run_statevector
    return "analytic", run_analytic


def _nested_shape(n: int, block_size: Optional[int]) -> tuple[int, int, int, int]:
    """(block size, block count, outer rounds, inner rounds) of a nested run.

    The block size defaults to ceil(sqrt(n)).
    """
    if n < 2:
        raise ValueError("instance size must be at least 2")
    b = block_size if block_size is not None else math.isqrt(n - 1) + 1
    blocks = block_count(n, b)
    return b, blocks, iteration_schedule(blocks, 1), iteration_schedule(n, 1)


def _is_correct(instance: MatchInstance, found: Optional[tuple[int, int]]) -> bool:
    """Whether found points at the planted value in both lists."""
    return (
        found is not None
        and int(instance.values1[found[0]]) == instance.planted_value
        and int(instance.values2[found[1]]) == instance.planted_value
    )


def _shared_values(values1: np.ndarray, values2: np.ndarray) -> np.ndarray:
    """The values both lists hold, ascending and distinct.

    A MatchInstance repeats at most one value across its lists
    (``_repeats``), shared unless a list repeats it; with more,
    np.intersect1d keeps the cost O(n log n).
    """
    twins = _repeats(values1, values2)
    if len(twins) > 1:
        return np.intersect1d(values1, values2)
    shared = len(twins) == 1 and (values1 == twins[0]).any() and (values2 == twins[0]).any()
    return twins if shared else twins[:0]


def exhaustive_pairs(instance: MatchInstance, ledger: Optional[CostLedger] = None) -> RunReport:
    """Probe all n^2 pairs; the ground-truth baseline.

    Charges the full pair scan (2 accesses per pair) up front; the pair
    the scan would reach first is the smallest list1 position holding a
    shared value, with that value's list2 position.
    """
    ledger = ledger if ledger is not None else CostLedger()
    n = instance.n
    ledger.charge_batch("outer_search", l1_queries=n * n, l2_queries=n * n)
    values1, values2 = instance.values1, instance.values2
    found = None
    shared = _shared_values(values1, values2)
    if len(shared):
        i = int(np.isin(values1, shared, kind="sort").argmax())
        found = (i, int((values2 == values1[i]).argmax()))
    return RunReport(found, _is_correct(instance, found), ledger, {"algorithm": "exhaustive"})


def classical_sort_scan(instance: MatchInstance, ledger: Optional[CostLedger] = None) -> RunReport:
    """Sort list1, then probe every list2 value against the sorted copy.

    Both are charged by closed forms.  The last hit wins, as in a
    forward scan: the last list2 position holding a shared value
    (``_shared_values``), with that value's list1 position.
    """
    ledger = ledger if ledger is not None else CostLedger()
    n = instance.n
    ledger.charge_batch("sort", l1_queries=n, mem_writes=n)
    ledger.workspace_acquire(n)
    charge_sort(n, ledger)
    # every list2 value is queried once and probed at full depth
    ledger.charge_batch(
        "final_verify", l2_queries=n, mem_reads=2 * membership_probe_depth(n) * n
    )
    values1, values2 = instance.values1, instance.values2
    found = None
    shared = _shared_values(values1, values2)
    if len(shared):
        j = int(np.flatnonzero(np.isin(values2, shared, kind="sort"))[-1])
        found = (int((values1 == values2[j]).argmax()), j)
    ledger.workspace_release(n)
    return RunReport(found, _is_correct(instance, found), ledger, {"algorithm": "sort_scan"})


def classical_two_sort_merge(instance: MatchInstance, ledger: Optional[CostLedger] = None) -> RunReport:
    """Sort both lists and walk them in step until the values collide.

    The walk advances past the smaller head until the heads are equal,
    so its length is a closed form in ranks.  It stops at the smallest
    shared value v* after p1 = #{list1 < v*} plus p2 = #{list2 < v*}
    advances and one matching step.  With no shared value it stops when
    one list runs out: the list whose largest value is the smaller one,
    after every value of the other list below that largest value.  The
    sorts are only charged; ranks are compares against either value.
    """
    ledger = ledger if ledger is not None else CostLedger()
    n = instance.n
    ledger.charge_batch("sort", l1_queries=n, mem_writes=n)
    ledger.charge_batch("sort", l2_queries=n, mem_writes=n)
    ledger.workspace_acquire(2 * n)
    charge_sort(n, ledger)
    charge_sort(n, ledger)
    values1, values2 = instance.values1, instance.values2
    found = None
    shared = _shared_values(values1, values2)
    if len(shared):
        v = shared[0]
        found = (int((values1 == v).argmax()), int((values2 == v).argmax()))
        steps = int(np.count_nonzero(values1 < v) + np.count_nonzero(values2 < v)) + 1
    else:
        max1, max2 = values1.max(), values2.max()
        ended_max, other = (max2, values1) if max1 > max2 else (max1, values2)
        steps = n + int(np.count_nonzero(other < ended_max))
    # 2 reads per step: each step reads both heads
    ledger.charge_batch("final_verify", mem_reads=2 * steps)
    ledger.workspace_release(2 * n)
    return RunReport(found, _is_correct(instance, found), ledger, {"algorithm": "two_sort"})


def naive_grover_pairs(
    instance: MatchInstance,
    config: Optional[NestedConfig] = None,
    ledger: Optional[CostLedger] = None,
) -> RunReport:
    """One flat amplified search over the n^2 pair space.

    Each oracle evaluation probes one pair (1 list1 query + 1 list2
    query), charged uncompute_factor times per iteration.
    """
    config = config if config is not None else NestedConfig()
    ledger = ledger if ledger is not None else CostLedger()
    n = instance.n
    m = n * n
    iterations = iteration_schedule(m, 1)
    engine, run = _engine(config)
    pair_star = instance.planted_pos1 * n + instance.planted_pos2
    measured = run(Search(m, (pair_star,)), iterations, seeded_rng(config.rng_seed))[0]
    evaluations = iterations * config.uncompute_factor
    if evaluations:
        ledger.charge_batch("outer_search", l1_queries=evaluations, l2_queries=evaluations)
    i, j = divmod(measured, n)
    found = (i, j) if instance.values1[i] == instance.values2[j] else None
    return RunReport(
        found=found,
        correct=_is_correct(instance, found),
        ledger=ledger,
        engine_stats={
            "algorithm": "naive_grover",
            "engine": engine,
            "iterations": iterations,
            "pair_space": m,
        },
        rng_seed=config.rng_seed,
        predicted_success=success_probability(m, 1, iterations),
    )


def _outer_oracle_charge(ledger: CostLedger, times: int, block_size: int, r_inner: int) -> None:
    """Ledger cost of ``times`` evaluations of the block oracle.

    One evaluation copies and sorts a block, runs r_inner amplified
    membership probes against it plus one verification probe, and
    releases the block again.
    """
    reads_sort, writes_sort = sort_charges(block_size)
    probe_reads = 2 * membership_probe_depth(block_size)
    ledger.charge_batch(
        "outer_search",
        l1_queries=block_size * times,
        l2_queries=(r_inner + 1) * times,
        mem_reads=(reads_sort + (r_inner + 1) * probe_reads) * times,
        mem_writes=(block_size + writes_sort) * times,
    )
    # block copy plus the sort's auxiliary buffer
    cells = block_size + (block_size if block_size >= 2 else 0)
    ledger.workspace_acquire(cells)
    ledger.workspace_release(cells)


class _NestedPlan(NamedTuple):
    """A nested run's shape and composed success, from its size and knobs alone."""

    block_size: int
    blocks: int
    r_outer: int
    r_inner: int
    predicted_success: float


@lru_cache(maxsize=256)
def _nested_plan(n: int, block_size: Optional[int], failure_prob: float) -> _NestedPlan:
    """The plan of a nested run on n values, built once per size and knobs."""
    b, blocks, r_outer, r_inner = _nested_shape(n, block_size)
    # with no dropout this is success_probability(blocks, 1, r_outer), bit for bit
    p_outer = noisy_success_probability(blocks, r_outer, failure_prob)
    p_inner = success_probability(n, 1, r_inner)
    return _NestedPlan(b, blocks, r_outer, r_inner, p_outer * p_inner)


def nested_grover_match(
    instance: MatchInstance,
    config: Optional[NestedConfig] = None,
    ledger: Optional[CostLedger] = None,
) -> RunReport:
    """Amplified search over blocks of list1, then a final verify pass.

    The outer search runs over ceil(n / b) blocks; each oracle
    evaluation stands for copy + sort of the block and an amplified
    membership search of list2 against it.  The final pass is charged as
    a copy and sort of the measured block, the membership search once
    more and direct queries confirming the pair, but sorts and probes
    nothing: the measured list2 value is looked up by compare in the
    block's unsorted slice of list1.  A run whose verification probe
    misses reports no match rather than guessing.  Both searches run
    through the configured engine's runner; the plan fixes what they
    charge.
    """
    config = config if config is not None else NestedConfig()
    ledger = ledger if ledger is not None else CostLedger()
    n = instance.n
    failure_prob = _failure_prob(config)
    b, blocks, r_outer, r_inner, predicted_success = _nested_plan(
        n, config.block_size, failure_prob
    )
    engine, run = _engine(config)
    rng = seeded_rng(config.rng_seed)
    marked_block = instance.planted_pos1 // b
    beta, outer_mass, fire_pattern = run(Search(blocks, (marked_block,)), r_outer, rng, failure_prob)
    outer_evaluations = r_outer * config.uncompute_factor
    if outer_evaluations:  # with none, no block is copied and no workspace is held
        _outer_oracle_charge(ledger, outer_evaluations, b, r_inner)

    # final pass: the measured block's copy and sort, charged
    offset = beta * b
    block = instance.values1[offset : offset + b].tolist()
    ledger.charge_batch("sort", l1_queries=len(block), mem_writes=len(block))
    ledger.workspace_acquire(len(block))
    charge_sort(len(block), ledger)
    marked = (instance.planted_pos2,) if beta == marked_block else ()
    j_hat = run(Search(n, marked), r_inner, rng)[0]
    # the amplified membership probes and the measured index's verification probe
    probes = r_inner * config.uncompute_factor + 1
    ledger.charge_batch(
        "inner_search", l2_queries=probes, mem_reads=2 * membership_probe_depth(len(block)) * probes
    )
    v_hat = int(instance.values2[j_hat])
    try:  # the verification probe, by compare: a list holds a value at most once
        i_hat = offset + block.index(v_hat)
    except ValueError:
        i_hat = None
    inner_verified = i_hat is not None

    found = None
    if inner_verified:
        ledger.charge_batch("final_verify", l1_queries=1, l2_queries=1)
        found = (i_hat, j_hat)
    ledger.workspace_release(len(block))

    return RunReport(
        found=found,
        correct=_is_correct(instance, found),
        ledger=ledger,
        engine_stats={
            "algorithm": "nested",
            "block_size": b,
            "block_count": blocks,
            "outer_iterations": r_outer,
            "inner_iterations": r_inner,
            "outer_measured_block": beta,
            "outer_marked_block": marked_block,
            "outer_marked_mass": outer_mass,
            "inner_verified": inner_verified,
            "outer_fire_pattern": fire_pattern,
            "engine_outer": engine,
            "engine_inner": engine,
        },
        rng_seed=config.rng_seed,
        predicted_success=predicted_success,
    )


def composed_success_probability(n: int, config: Optional[NestedConfig] = None) -> float:
    """Predicted success of the nested matcher: outer hit times final verify."""
    config = config if config is not None else NestedConfig()
    return _nested_plan(n, config.block_size, _failure_prob(config)).predicted_success


def predicted_total_cost(n: int, config: Optional[NestedConfig] = None) -> CostLedger:
    """Ledger-shaped cost prediction for a nested run on equal blocks.

    Mirrors the instrumented charges exactly when block_size divides n
    and the run's final verification succeeds; otherwise the prediction
    is for the full (verified) path on full-size blocks.
    """
    config = config if config is not None else NestedConfig()
    b, _, r_outer, r_inner = _nested_shape(n, config.block_size)
    u = config.uncompute_factor
    ledger = CostLedger()
    _outer_oracle_charge(ledger, r_outer * u, b, r_inner)
    # final pass: copy + sort the measured block
    ledger.charge_batch("sort", l1_queries=b, mem_writes=b)
    ledger.workspace_acquire(b)
    if b >= 2:
        reads_sort, writes_sort = sort_charges(b)
        ledger.workspace_acquire(b)
        ledger.charge_batch("sort", mem_reads=reads_sort, mem_writes=writes_sort)
        ledger.workspace_release(b)
    # amplified membership probes plus the one verification probe
    probe_reads = 2 * membership_probe_depth(b)
    ledger.charge_batch(
        "inner_search",
        l2_queries=r_inner * u + 1,
        mem_reads=probe_reads * (r_inner * u + 1),
    )
    ledger.charge_batch("final_verify", l1_queries=1, l2_queries=1)
    ledger.workspace_release(b)
    return ledger


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
