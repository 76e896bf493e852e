"""Classical kernels: sort charges, block extraction, membership.

Charges follow a fixed, data-oblivious schedule: a bottom-up merge sort
where a merge of t cells always costs t - 1 compares and t moves, and a
membership probe that always walks the full bisection depth.  Every
kernel's cost is therefore a closed form in the sizes alone, and
``charge_sort`` charges a sort's to the ``"sort"`` phase.  The classical
matchers call it without sorting; a block sort (``sort_instrumented``)
is one ``np.argsort``.  A membership lookup charges nothing: its callers
charge each probe as ``2 * membership_probe_depth(n)`` reads, in
whichever phase they run.  A compare costs 2 reads; a move costs 1 read
+ 1 write.  The tests keep the merge sort itself, as the reference the
closed forms are checked against.

A sorted block (``block_view``, about sqrt(n) cells) is a tuple of
(value, source index) entries of Python ints in ascending value order,
which ``binary_membership`` searches with ``bisect``.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from operator import itemgetter
from typing import Optional

import numpy as np

from .model import CostLedger, MatchInstance

Entries = tuple[tuple[int, int], ...]


@lru_cache(maxsize=1024)
def sort_charges(n: int) -> tuple[int, int]:
    """(reads, writes) of the merge sort on n cells, level by level.

    A level of width w moves all n cells; each of its n // 2w full merges
    compares 2w - 1 times, and a trailing run of rem = n % 2w cells
    compares rem - 1 times only when two runs meet there (rem > w).
    Cached per n: every block sort of a nested run asks for the same n.
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


def block_view(
    instance: MatchInstance,
    block_index: int,
    block_size: int,
    ledger: Optional[CostLedger] = None,
) -> Entries:
    """Copy one block of list1 into workspace and sort it.

    Charges one list1 query plus one write per copied cell, then the
    sort.  The caller owns the returned entries' workspace cells until
    it releases them.
    """
    if block_size < 1:
        raise ValueError("block size must be at least 1")
    offset = block_index * block_size
    if block_index < 0 or offset >= instance.n:
        raise ValueError(f"block index {block_index} out of range")
    length = min(block_size, instance.n - offset)
    if ledger is not None:
        ledger.charge_batch("sort", l1_queries=length, mem_writes=length)
        ledger.workspace_acquire(length)
    block = instance.values1[offset : offset + length]
    order = sort_instrumented(block, ledger)
    values = block.tolist()
    return tuple([(values[k], offset + k) for k in order.tolist()])


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
