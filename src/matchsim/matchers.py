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
it reports by compare.  The amplified matchers measure on the run
stream's uniforms: drawn in one call, or the caller's
(``run_stream_length`` of them).  Each search runs as a ``Search``
through its engine's runner, looked up here at call time, except the
reduced nested ones, sampled from ``walked_masses``.  The nested matcher
adds its charges as one cached part per shape (``_nested_charges``).
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
    Search,
    _fire_pattern,
    _sample_reduced,
    iteration_schedule,
    noisy_success_probability,
    run_analytic,
    run_noisy_outer,
    run_statevector,
    success_probability,
    walked_masses,
)
from .model import CostLedger, MatchInstance, RunReport, seeded_rng
# binary_membership, sort_instrumented: unused, but the layer tracer patches them here
from .sortsearch import (
    block_count,
    binary_membership,
    charge_sort,
    membership_probe_depth,
    sort_charges,
    sort_instrumented,
)


@dataclass(frozen=True, slots=True)
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


def exhaustive_pairs(instance: MatchInstance, ledger: Optional[CostLedger] = None) -> RunReport:
    """Probe all n^2 pairs; the ground-truth baseline.

    Charges the full pair scan (2 accesses per pair) up front; the pair
    the scan reaches is the shared value's position in each list.
    """
    ledger = ledger if ledger is not None else CostLedger()
    n = instance.n
    ledger.charge_batch("outer_search", l1_queries=n * n, l2_queries=n * n)
    v = instance.shared_values[0]
    found = (int((instance.values1 == v).argmax()), int((instance.values2 == v).argmax()))
    return RunReport(found, _is_correct(instance, found), ledger, {"algorithm": "exhaustive"})


def classical_sort_scan(instance: MatchInstance, ledger: Optional[CostLedger] = None) -> RunReport:
    """Sort list1, then probe every list2 value against the sorted copy.

    Both are charged by closed forms.  The one hit is the shared value
    (``instance.shared_values``), at its position in each list.
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
    v = instance.shared_values[0]
    found = (int((instance.values1 == v).argmax()), int((instance.values2 == v).argmax()))
    ledger.workspace_release(n)
    return RunReport(found, _is_correct(instance, found), ledger, {"algorithm": "sort_scan"})


def classical_two_sort_merge(instance: MatchInstance, ledger: Optional[CostLedger] = None) -> RunReport:
    """Sort both lists and walk them in step until the values collide.

    The walk advances past the smaller head until the heads are equal,
    so its length is a closed form in ranks.  It stops at the smallest
    shared value v* after p1 = #{list1 < v*} plus p2 = #{list2 < v*}
    advances and one matching step.  The sorts are only charged; ranks
    are compares against v*.
    """
    ledger = ledger if ledger is not None else CostLedger()
    n = instance.n
    ledger.charge_batch("sort", l1_queries=n, mem_writes=n)
    ledger.charge_batch("sort", l2_queries=n, mem_writes=n)
    ledger.workspace_acquire(2 * n)
    charge_sort(n, ledger)
    charge_sort(n, ledger)
    values1, values2 = instance.values1, instance.values2
    v = instance.shared_values[0]
    found = (int((values1 == v).argmax()), int((values2 == v).argmax()))
    steps = int(np.count_nonzero(values1 < v) + np.count_nonzero(values2 < v)) + 1
    # 2 reads per step: each step reads both heads
    ledger.charge_batch("final_verify", mem_reads=2 * steps)
    ledger.workspace_release(2 * n)
    return RunReport(found, _is_correct(instance, found), ledger, {"algorithm": "two_sort"})


def naive_grover_pairs(
    instance: MatchInstance,
    config: Optional[NestedConfig] = None,
    ledger: Optional[CostLedger] = None,
    *,
    uniforms: Optional[list[float]] = None,
) -> RunReport:
    """One flat amplified search over the n^2 pair space.

    Each oracle evaluation probes one pair (1 list1 query + 1 list2
    query), charged uncompute_factor times per iteration.  The search
    measures on ``uniforms``, by default its run seed's first double.
    """
    config = config if config is not None else NestedConfig()
    ledger = ledger if ledger is not None else CostLedger()
    n = instance.n
    m = n * n
    iterations = iteration_schedule(m, 1)
    engine, run = _engine(config)
    pair_star = instance.planted_pos1 * n + instance.planted_pos2
    uniforms = [seeded_rng(config.rng_seed).random()] if uniforms is None else uniforms
    measured = run(Search(m, (pair_star,)), iterations, uniforms)[0]
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
    stream: int  # uniforms a run reads: the outer rounds when noisy, both measurements


@lru_cache(maxsize=256)
def _nested_plan(n: int, block_size: Optional[int], failure_prob: float) -> _NestedPlan:
    """The plan of a nested run on n values, built once per size and knobs."""
    b, blocks, r_outer, r_inner = _nested_shape(n, block_size)
    # with no dropout this is success_probability(blocks, 1, r_outer), bit for bit
    p_outer = noisy_success_probability(blocks, r_outer, failure_prob)
    stream = r_outer + 2 if failure_prob else 2
    predicted = p_outer * success_probability(n, 1, r_inner)
    return _NestedPlan(b, blocks, r_outer, r_inner, predicted, stream)


def run_stream_length(nested: bool, n: int, noise: Optional[NoisyOracleSpec]) -> int:
    """The uniforms one amplified run on n values reads at the default block size:
    ``nested``'s plan, else the naive search's one measurement."""
    return _nested_plan(n, None, noise.failure_prob if noise else 0.0).stream if nested else 1


def amplitude_rounds(nested: bool, n: int) -> int:
    """Amplitudes times rounds + 1 that one statevector run on n values steps at the default
    block size: ``nested``'s two searches, else the naive search over n^2 pairs."""
    if nested:
        _, blocks, r_outer, r_inner = _nested_shape(n, None)
        return blocks * (r_outer + 1) + n * (r_inner + 1)
    return n * n * (iteration_schedule(n * n, 1) + 1)


@lru_cache(maxsize=1024)
def _nested_charges(
    block_size: int, r_outer: int, r_inner: int, u: int, block_len: int, verified: bool
) -> tuple:
    """A nested run's whole ledger part (``CostLedger.part``), from the matcher's own charge code:
    the outer oracle evaluations, the measured block's copy and sort, the probes and, if
    ``verified``, the confirming queries, then the block's release."""
    ledger = CostLedger()
    if r_outer:  # with no outer rounds, no block is copied and no workspace is held
        _outer_oracle_charge(ledger, r_outer * u, block_size, r_inner)
    ledger.charge_batch("sort", l1_queries=block_len, mem_writes=block_len)
    ledger.workspace_acquire(block_len)
    charge_sort(block_len, ledger)
    probes = r_inner * u + 1
    ledger.charge_batch(
        "inner_search", l2_queries=probes, mem_reads=2 * membership_probe_depth(block_len) * probes
    )
    if verified:
        ledger.charge_batch("final_verify", l1_queries=1, l2_queries=1)
    ledger.workspace_release(block_len)
    return ledger.part()


def nested_grover_match(
    instance: MatchInstance,
    config: Optional[NestedConfig] = None,
    ledger: Optional[CostLedger] = None,
    *,
    uniforms: Optional[list[float]] = None,
) -> RunReport:
    """Amplified search over blocks of list1, then a final verify pass.

    The outer search runs over ceil(n / b) blocks; each oracle
    evaluation stands for copy + sort of the block and an amplified
    membership search of list2 against it.  The final pass is charged as
    a copy and sort of the measured block, the membership search once
    more and direct queries confirming the pair, but sorts and probes
    nothing: the measured list2 value (``MatchInstance.value2``) is looked
    up by compare in the block's unsorted slice of list1
    (``MatchInstance.find1``), so the run reads the instance's raw draw and
    lays out no list.  A run whose verification probe misses reports no
    match rather than guessing.  Both searches measure on ``uniforms``, by
    default the run seed's stream.  The reduced engine (any but
    ``statevector``) samples each from its ``walked_masses``, calling no
    runner; the statevector engine runs both through its runner.  Either
    way the run's charges are one part (``_nested_charges``), added once
    verification is known: as the ledger itself if none is given, else
    merged into the given one, which a refused search leaves as it was.
    """
    config = config if config is not None else NestedConfig()
    n, noise = instance.n, config.noise
    failure_prob = noise.failure_prob if noise is not None else 0.0
    b, blocks, r_outer, r_inner, predicted_success, stream = _nested_plan(
        n, config.block_size, failure_prob
    )
    reduced = config.engine != "statevector"  # auto runs the reduced engine
    engine = "analytic" if reduced else "statevector"
    # the run stream: the outer search's dropout rounds and measurement, then the inner one's
    if uniforms is None:
        uniforms = seeded_rng(config.rng_seed).random(stream).tolist()
    marked_block = instance.planted_pos1 // b
    if reduced:
        fire_pattern = _fire_pattern(r_outer, failure_prob, uniforms[:-1])
        outer_mass, unmarked_mass = walked_masses(blocks, 1, r_outer, fire_pattern)
        beta = _sample_reduced(blocks, (marked_block,), outer_mass, unmarked_mass, uniforms[-2])
        marked = (instance.planted_pos2,) if beta == marked_block else ()
        inner_masses = walked_masses(n, len(marked), r_inner, None)
        j_hat = _sample_reduced(n, marked, *inner_masses, uniforms[-1])
    else:
        outer = Search(blocks, (marked_block,))
        beta, outer_mass, fire_pattern = run_statevector(outer, r_outer, uniforms[:-1], failure_prob)
        marked = (instance.planted_pos2,) if beta == marked_block else ()
        j_hat = run_statevector(Search(n, marked), r_inner, uniforms[-1:])[0]
    offset = beta * b
    stop = min(offset + b, n)
    # the verification probe, by compare: v_hat in the block's slice of list1
    v_hat = instance.value2(j_hat)
    i_hat = instance.find1(v_hat, offset, stop)
    found = (i_hat, j_hat) if i_hat is not None else None
    inner_verified = found is not None
    u = config.uncompute_factor
    whole = _nested_charges(b, r_outer, r_inner, u, stop - offset, inner_verified)
    if ledger is None:
        ledger = CostLedger.from_part(whole)
    else:
        ledger.merge(whole)
    stats = {
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
    }
    # a found pair holds v_hat on both sides: it is correct when v_hat is the planted value
    correct = inner_verified and v_hat == instance.planted_value
    # by position, in field order: keywords cost a dataclass twice as much
    return RunReport(found, correct, ledger, stats, config.rng_seed, predicted_success)


def predicted_total_cost(
    n: int,
    config: Optional[NestedConfig] = None,
    *,
    block_len: Optional[int] = None,
    verified: bool = True,
) -> CostLedger:
    """Ledger-shaped cost prediction for a nested run on n values.

    Beyond the size and knobs, a run's ledger depends on two facts: the
    length of the block its outer search measured (``block_len``: a full
    block by default; only the last block may be shorter) and whether
    its final verification probe found the measured value
    (``verified``).  Given both, every counter, the phase breakdown and
    the peak workspace equal the run's.
    """
    config = config if config is not None else NestedConfig()
    b, blocks, r_outer, r_inner = _nested_shape(n, config.block_size)
    length = min(b, n) if block_len is None else block_len
    if length not in (min(b, n), n - (blocks - 1) * b):
        raise ValueError(f"no block of {length} values in a nested run on n={n} with b={b}")
    u = config.uncompute_factor
    ledger = CostLedger()
    if r_outer:  # with no outer rounds, no block is copied and no workspace is held
        _outer_oracle_charge(ledger, r_outer * u, b, r_inner)
    # final pass: copy + sort the measured block
    ledger.charge_batch("sort", l1_queries=length, mem_writes=length)
    ledger.workspace_acquire(length)
    if length >= 2:
        reads_sort, writes_sort = sort_charges(length)
        ledger.workspace_acquire(length)
        ledger.charge_batch("sort", mem_reads=reads_sort, mem_writes=writes_sort)
        ledger.workspace_release(length)
    # amplified membership probes plus the one verification probe
    probe_reads = 2 * membership_probe_depth(length)
    ledger.charge_batch(
        "inner_search",
        l2_queries=r_inner * u + 1,
        mem_reads=probe_reads * (r_inner * u + 1),
    )
    if verified:
        ledger.charge_batch("final_verify", l1_queries=1, l2_queries=1)
    ledger.workspace_release(length)
    return ledger
