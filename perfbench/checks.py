"""Output checks: every trial's ledger against an independent prediction.

The predictions use closed forms in the size alone (plus, for two_sort,
the planted value's ranks, which the merge walk depends on) and the
one RNG-dependent fact each run reports about itself: whether the
nested inner search verified.  They never pin success flags or other
rows that follow the RNG streams, so they keep holding when an engine
draws its randomness differently.
"""

from __future__ import annotations

import math
from functools import lru_cache


@lru_cache(maxsize=64)
def _sort_cost(n: int) -> int:
    from matchsim import sort_charges

    reads, writes = sort_charges(n)
    return reads + writes


def expected_total_cost(algorithm: str, uncompute_factor: int, instance, report) -> int:
    """The total_cost a correct run of ``algorithm`` must charge."""
    from matchsim import NestedConfig, iteration_schedule, membership_probe_depth
    from matchsim import predicted_total_cost

    n = instance.n
    if algorithm == "sort_scan":
        # copy list1 (query + write), sort, then per list2 value one query
        # and a full-depth probe at 2 reads per level
        return 2 * n + _sort_cost(n) + n * (1 + 2 * membership_probe_depth(n))
    if algorithm == "two_sort":
        # the walk advances past every smaller value in either list, then
        # stops on the planted one; each step reads both heads
        value = instance.planted_value
        rank1 = sorted(instance.list1).index(value)
        rank2 = sorted(instance.list2).index(value)
        return 4 * n + 2 * _sort_cost(n) + 2 * (rank1 + rank2 + 1)
    if algorithm == "naive_grover":
        # one list1 and one list2 query per oracle evaluation
        return 2 * uncompute_factor * iteration_schedule(n * n, 1)
    if algorithm == "nested":
        if math.isqrt(n) ** 2 != n:
            raise ValueError(f"no exact nested prediction for non-square n={n}")
        predicted = predicted_total_cost(n, NestedConfig(uncompute_factor=uncompute_factor))
        # an unverified inner search skips the final list1 + list2 query
        skipped = 0 if report.engine_stats["inner_verified"] else 2
        return predicted.total_cost() - skipped
    raise ValueError(f"no output check for algorithm {algorithm!r}")


def check_trial(config, row, instance, report) -> list[str]:
    """Problems found in one trial's row and report; empty when it is correct."""
    problems = []
    where = f"{row.algorithm} n={row.n} trial={row.trial}"
    if (row.n, row.seed) != (instance.n, instance.seed):
        return [f"{where}: row does not belong to the captured instance"]
    want = expected_total_cost(config.algorithm, config.uncompute_factor, instance, report)
    if row.total_cost != want:
        problems.append(f"{where}: total_cost {row.total_cost}, predicted {want}")
    planted = (instance.planted_pos1, instance.planted_pos2)
    if row.success == 1 and report.found != planted:
        problems.append(f"{where}: success=1 but found {report.found}, planted {planted}")
    return problems
