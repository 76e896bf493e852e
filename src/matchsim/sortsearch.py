"""Classical kernels: sort charges and membership probe depth.

Charges follow a fixed, data-oblivious schedule: a bottom-up merge sort
where a merge of t cells always costs t - 1 compares and t moves, and a
membership probe that always walks the full bisection depth.  Every
kernel's cost is therefore a closed form in the sizes alone, and
``charge_sort`` charges a sort's to the ``"sort"`` phase.  No matcher
performs the sorts and probes it is charged for: each calls
``charge_sort`` and charges ``2 * membership_probe_depth(n)`` reads per
probe, in whichever phase it runs, and finds its answer by compare.  A compare costs 2 reads; a move
costs 1 read + 1 write.  The tests keep the merge sort itself, and the
block extraction the nested matcher once performed, as the references
the closed forms are checked against.

``sort_instrumented`` (one ``np.argsort``) and ``binary_membership``
(``bisect`` over sorted (value, source index) entries) are still here
because the benchmark's layer tracer looks them up by name; nothing in
the package calls them.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from operator import itemgetter
from typing import Optional

import numpy as np

from .model import CostLedger

Entries = tuple[tuple[int, int], ...]


@lru_cache(maxsize=1024)
def sort_charges(n: int) -> tuple[int, int]:
    """(reads, writes) of the merge sort on n cells, level by level.

    A level of width w moves all n cells; each of its n // 2w full merges
    compares 2w - 1 times, and a trailing run of rem = n % 2w cells
    compares rem - 1 times only when two runs meet there (rem > w).
    Cached per n: a sweep's sorts, nested templates and predictions ask for few sizes.
    """
    if n < 0:
        raise ValueError("size must be non-negative")
    reads = writes = 0
    width = 1
    while width < n:
        full, rem = divmod(n, 2 * width)
        compares = full * (2 * width - 1) + (rem - 1 if rem > width else 0)
        reads += 2 * compares + n
        writes += n
        width *= 2
    return reads, writes


def charge_sort(n: int, ledger: Optional[CostLedger]) -> None:
    """Charge ``sort_charges(n)`` to the ``"sort"`` phase, holding one
    n-cell buffer on top of the caller's n cells; under two cells need neither."""
    if ledger is not None and n > 1:
        reads, writes = sort_charges(n)
        ledger.workspace_acquire(n)
        ledger.charge_batch("sort", mem_reads=reads, mem_writes=writes)
        ledger.workspace_release(n)


def sort_instrumented(values: np.ndarray, ledger: Optional[CostLedger] = None) -> np.ndarray:
    """Permutation that sorts ``values`` ascending, charged by ``charge_sort``.

    The values of one list are distinct, so this is the merge sort's
    order; among repeated values the order is unspecified.
    """
    # the method: np.argsort's dispatch costs more than a block-sized sort
    order = values.argsort()
    charge_sort(len(values), ledger)
    return order


def block_count(n: int, block_size: int) -> int:
    if block_size < 1:
        raise ValueError("block size must be at least 1")
    return -(-n // block_size)


def membership_probe_depth(n: int) -> int:
    """Fixed probe count for a membership test over n sorted cells."""
    if n < 0:
        raise ValueError("size must be non-negative")
    return n.bit_length()


def binary_membership(entries: Entries, query_value: int) -> Optional[int]:
    """Source index of query_value in sorted entries, or None."""
    k = bisect_left(entries, query_value, key=itemgetter(0))
    if k < len(entries) and entries[k][0] == query_value:
        return entries[k][1]
    return None
