"""Per-layer tracing: spans around matchsim's public functions.

The tracer replaces functions at the sites where the package looks
them up (module globals and class attributes), so every call crossing a
layer boundary opens a span.  Spans nest on one stack; a layer's self
time is its spans' durations minus the durations of their child spans.
Spans are folded into per-layer totals as they close, so memory stays
flat however many calls a pass makes.

Because every span's duration is its self time plus its children's
durations, the self times of all layers add up to the summed duration
of the root spans; what a pass spends outside any span is reported as
unattributed time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Callable, Optional

ROOT_LAYER = "experiments.trial"


class Tracer:
    """Span stack plus per-layer counters; one instance per process."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.stats: dict[str, dict[str, int]] = {}
        self._stack: list[int] = []

    def reset(self) -> None:
        for stat in self.stats.values():
            for key in stat:
                stat[key] = 0

    def _stat(self, layer: str) -> dict[str, int]:
        return self.stats.setdefault(layer, {"calls": 0, "self_ns": 0})

    def wrap(self, fn: Callable, layer: str, count: Optional[Callable] = None) -> Callable:
        """Return fn wrapped in a span of ``layer``.

        ``count(stat, args, result)`` may add work counters to the
        layer's stat dict; it runs after the span closes, so its cost
        lands in the caller's self time rather than the layer's.
        """
        stat = self._stat(layer)
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += duration
                stat["calls"] += 1
                stat["self_ns"] += duration - child
            if count is not None:
                count(stat, args, result)
            return result

        return traced

    @contextmanager
    def installed(self, sites):
        """Patch every (owner, attr, layer, count) site for the block's duration."""
        originals = []
        try:
            for owner, attr, layer, count in sites:
                fn = getattr(owner, attr)
                originals.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(fn, layer, count))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)


def _add(stat: dict, key: str, amount: int) -> None:
    stat[key] = stat.get(key, 0) + amount


def _count_statevector(stat, args, result) -> None:
    problem, iterations = args[0], args[1]
    _add(stat, "rounds", iterations)
    _add(stat, "amplitude_rounds", problem.space_size * iterations)


def _count_rounds(stat, args, result) -> None:
    _add(stat, "rounds", args[1])


def _count_cells(stat, args, result) -> None:
    _add(stat, "cells", len(args[0]))


def _count_values(stat, args, result) -> None:
    # generate_instance(n, seed) draws 2n - 1 distinct values
    _add(stat, "values", 2 * args[0] - 1)


def _count_emitted(stat, args, result) -> None:
    _add(stat, "bytes", sum(path.stat().st_size for path in result))


# matcher entry points as sweeps call them, keyed by algorithm name
MATCHER_SITES = {
    "sort_scan": "classical_sort_scan",
    "two_sort": "classical_two_sort_merge",
    "naive_grover": "naive_grover_pairs",
    "nested": "nested_grover_match",
}


def layer_sites() -> list[tuple]:
    """Every (owner, attr, layer, count) site the traced run patches."""
    from matchsim import experiments, matchers, model, sortsearch

    sites = [
        (matchers, "run_statevector", "grover.statevector", _count_statevector),
        (matchers, "run_noisy_outer", "grover.noisy", _count_rounds),
        (matchers, "run_analytic", "grover.analytic", None),
        (matchers, "sort_instrumented", "sortsearch.sort", _count_cells),
        (sortsearch, "sort_instrumented", "sortsearch.sort", _count_cells),
        (matchers, "binary_membership", "sortsearch.membership", None),
        (matchers, "sort_charges", "sortsearch.sort_charges", None),
        (experiments, "generate_instance", "model.generate_instance", _count_values),
        (model.CostLedger, "charge", "model.ledger", None),
        (model.CostLedger, "charge_batch", "model.ledger", None),
        (experiments.SweepResult, "write_outputs", "experiments.emit", _count_emitted),
    ]
    for algorithm, attr in MATCHER_SITES.items():
        sites.append((experiments, attr, f"matchers.{algorithm}", None))
    return sites


def layer_metrics(stats: dict, wall_s: float, rows: list, speed: float = 1.0) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by metric name.

    ``stats`` is the tracer's per-layer totals for the pass, ``wall_s``
    the pass's traced wall time and ``rows`` its sweep rows.  Every time
    is multiplied by ``speed``, the pass's calibrated over wall time.
    """
    zero = {"calls": 0, "self_ns": 0}

    def get(layer: str, key: str) -> int:
        return stats.get(layer, zero).get(key, 0)

    def self_s(layer: str) -> float:
        return get(layer, "self_ns") * speed / 1e9

    sv_amp_rounds = get("grover.statevector", "amplitude_rounds")
    out = {
        "grover.statevector.calls": get("grover.statevector", "calls"),
        "grover.statevector.rounds": get("grover.statevector", "rounds"),
        "grover.statevector.amplitude_rounds": sv_amp_rounds,
        "grover.statevector.self_s": self_s("grover.statevector"),
        "grover.statevector.ns_per_amplitude_round": (
            get("grover.statevector", "self_ns") * speed / sv_amp_rounds if sv_amp_rounds else 0.0
        ),
        "grover.noisy.calls": get("grover.noisy", "calls"),
        "grover.noisy.rounds": get("grover.noisy", "rounds"),
        "grover.noisy.self_s": self_s("grover.noisy"),
        "grover.analytic.calls": get("grover.analytic", "calls"),
        "grover.analytic.self_s": self_s("grover.analytic"),
        "sortsearch.sort.calls": get("sortsearch.sort", "calls"),
        "sortsearch.sort.cells": get("sortsearch.sort", "cells"),
        "sortsearch.sort.self_s": self_s("sortsearch.sort"),
        "sortsearch.membership.calls": get("sortsearch.membership", "calls"),
        "sortsearch.membership.self_s": self_s("sortsearch.membership"),
        "sortsearch.sort_charges.calls": get("sortsearch.sort_charges", "calls"),
        "sortsearch.sort_charges.self_s": self_s("sortsearch.sort_charges"),
        "model.generate_instance.calls": get("model.generate_instance", "calls"),
        "model.generate_instance.values": get("model.generate_instance", "values"),
        "model.generate_instance.self_s": self_s("model.generate_instance"),
        "model.ledger.charge_calls": get("model.ledger", "calls"),
        "model.ledger.charge_self_s": self_s("model.ledger"),
        "model.ledger.total_cost": sum(row.total_cost for row in rows),
        "model.ledger.peak_workspace_max": max((row.peak_workspace for row in rows), default=0),
    }
    for algorithm in MATCHER_SITES:
        out[f"matchers.{algorithm}.calls"] = get(f"matchers.{algorithm}", "calls")
        out[f"matchers.{algorithm}.self_s"] = self_s(f"matchers.{algorithm}")
    out["experiments.trial_overhead_s"] = self_s(ROOT_LAYER)
    out["experiments.emit.self_s"] = self_s("experiments.emit")
    out["experiments.emit.bytes"] = get("experiments.emit", "bytes")
    attributed = sum(stat["self_ns"] for stat in stats.values()) / 1e9
    out["trace.sweep_s"] = wall_s * speed
    out["trace.unattributed_s"] = (wall_s - attributed) * speed
    return out
