"""Problem instances, query-cost accounting, and run reports.

A problem instance is a pair of equal-length lists of distinct 64-bit
values that share exactly one value.  Every matcher draws its inputs
only through list queries and workspace reads/writes, and all of those
accesses are recorded in a :class:`CostLedger`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

ACCESS_KINDS = ("l1_queries", "l2_queries", "mem_reads", "mem_writes")
PHASES = ("sort", "inner_search", "outer_search", "final_verify")

_VALUE_BOUND = 1 << 64

# Largest list length generate_instance accepts: above the 4^10 sweep
# sizes, and small enough that 2n - 1 Python ints fit in a few hundred MB.
MAX_INSTANCE_SIZE = 1 << 22


class ResourceLimitError(RuntimeError):
    """Raised when a run would exceed a fixed size or amplitude cap."""


@dataclass
class PhaseCosts:
    """Access counters attributed to one phase of a run."""

    l1_queries: int = 0
    l2_queries: int = 0
    mem_reads: int = 0
    mem_writes: int = 0

    def total(self) -> int:
        return self.l1_queries + self.l2_queries + self.mem_reads + self.mem_writes

    def as_dict(self) -> dict[str, int]:
        return {kind: getattr(self, kind) for kind in ACCESS_KINDS}


class CostLedger:
    """Mutable counter set for list queries and workspace traffic.

    ``total_cost`` is the work factor of a run: the sum of the four
    access counters.  Workspace occupancy is tracked separately via
    ``workspace_acquire``/``workspace_release``; ``peak_workspace`` is
    the high-water mark of simultaneously live auxiliary cells.  The
    input lists are static and never count as workspace.
    """

    def __init__(self) -> None:
        self.l1_queries = 0
        self.l2_queries = 0
        self.mem_reads = 0
        self.mem_writes = 0
        self.phase_breakdown: dict[str, PhaseCosts] = {p: PhaseCosts() for p in PHASES}
        self.peak_workspace = 0
        self._live_workspace = 0

    def charge(self, kind: str, amount: int, phase: str) -> None:
        """Add ``amount`` accesses of one kind, attributed to ``phase``."""
        if kind not in ACCESS_KINDS:
            raise ValueError(f"unknown access kind {kind!r}")
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}")
        if amount < 0:
            raise ValueError("charge amount must be non-negative")
        setattr(self, kind, getattr(self, kind) + amount)
        counters = self.phase_breakdown[phase]
        setattr(counters, kind, getattr(counters, kind) + amount)

    def charge_batch(
        self,
        phase: str,
        *,
        l1_queries: int = 0,
        l2_queries: int = 0,
        mem_reads: int = 0,
        mem_writes: int = 0,
    ) -> None:
        """Charge several kinds at once under a single phase."""
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}")
        if min(l1_queries, l2_queries, mem_reads, mem_writes) < 0:
            raise ValueError("charge amount must be non-negative")
        counters = self.phase_breakdown[phase]
        self.l1_queries += l1_queries
        counters.l1_queries += l1_queries
        self.l2_queries += l2_queries
        counters.l2_queries += l2_queries
        self.mem_reads += mem_reads
        counters.mem_reads += mem_reads
        self.mem_writes += mem_writes
        counters.mem_writes += mem_writes

    def workspace_acquire(self, cells: int) -> None:
        if cells < 0:
            raise ValueError("cell count must be non-negative")
        self._live_workspace += cells
        if self._live_workspace > self.peak_workspace:
            self.peak_workspace = self._live_workspace

    def workspace_release(self, cells: int) -> None:
        if cells < 0:
            raise ValueError("cell count must be non-negative")
        if cells > self._live_workspace:
            raise ValueError("releasing more workspace cells than are live")
        self._live_workspace -= cells

    @property
    def live_workspace(self) -> int:
        return self._live_workspace

    def total_cost(self) -> int:
        return self.l1_queries + self.l2_queries + self.mem_reads + self.mem_writes

    def phase_total(self, phase: str) -> int:
        if phase not in PHASES:
            raise ValueError(f"unknown phase {phase!r}")
        return self.phase_breakdown[phase].total()

    def as_dict(self) -> dict:
        return {
            "l1_queries": self.l1_queries,
            "l2_queries": self.l2_queries,
            "mem_reads": self.mem_reads,
            "mem_writes": self.mem_writes,
            "total_cost": self.total_cost(),
            "peak_workspace": self.peak_workspace,
            "phase_breakdown": {p: self.phase_breakdown[p].as_dict() for p in PHASES},
        }


@dataclass(frozen=True)
class MatchInstance:
    """Two equal-length lists of distinct values with one shared value.

    ``planted_value`` appears at ``list1[planted_pos1]`` and
    ``list2[planted_pos2]`` and nowhere else; no other value occurs in
    both lists, and neither list repeats a value internally.
    """

    n: int
    list1: tuple[int, ...]
    list2: tuple[int, ...]
    planted_value: int
    planted_pos1: int
    planted_pos2: int
    seed: Optional[int] = None

    def validate(self) -> None:
        """Check every structural invariant; raise ValueError on failure."""
        if self.n < 2:
            raise ValueError("instance size must be at least 2")
        if len(self.list1) != self.n or len(self.list2) != self.n:
            raise ValueError("lists must both have length n")
        s1, s2 = set(self.list1), set(self.list2)
        if len(s1) != self.n or len(s2) != self.n:
            raise ValueError("lists must not repeat values internally")
        if s1 & s2 != {self.planted_value}:
            raise ValueError("lists must share exactly the planted value")
        if not (0 <= self.planted_pos1 < self.n and 0 <= self.planted_pos2 < self.n):
            raise ValueError("planted positions out of range")
        if self.list1[self.planted_pos1] != self.planted_value:
            raise ValueError("planted_pos1 does not point at planted_value")
        if self.list2[self.planted_pos2] != self.planted_value:
            raise ValueError("planted_pos2 does not point at planted_value")
        for v in self.list1 + self.list2:
            if not (0 <= v < _VALUE_BOUND):
                raise ValueError("values must fit in 64 bits")

    @classmethod
    def from_lists(cls, list1, list2, seed: Optional[int] = None) -> "MatchInstance":
        """Build an instance from explicit lists, locating the shared value."""
        t1, t2 = tuple(list1), tuple(list2)
        if len(t1) != len(t2):
            raise ValueError("lists must have equal length")
        shared = set(t1) & set(t2)
        if len(shared) != 1:
            raise ValueError(f"lists must share exactly one value, found {len(shared)}")
        value = shared.pop()
        inst = cls(
            n=len(t1),
            list1=t1,
            list2=t2,
            planted_value=value,
            planted_pos1=t1.index(value),
            planted_pos2=t2.index(value),
            seed=seed,
        )
        inst.validate()
        return inst

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "seed": self.seed,
                "list1": list(self.list1),
                "list2": list(self.list2),
                "planted_value": self.planted_value,
                "planted_pos1": self.planted_pos1,
                "planted_pos2": self.planted_pos2,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "MatchInstance":
        doc = json.loads(text)
        inst = cls(
            n=int(doc["n"]),
            list1=tuple(int(v) for v in doc["list1"]),
            list2=tuple(int(v) for v in doc["list2"]),
            planted_value=int(doc["planted_value"]),
            planted_pos1=int(doc["planted_pos1"]),
            planted_pos2=int(doc["planted_pos2"]),
            seed=doc.get("seed"),
        )
        inst.validate()
        return inst


def _draw_distinct(rng: np.random.Generator, count: int) -> list[int]:
    """Draw ``count`` distinct 64-bit values, preserving draw order.

    Fast path: the first batch of ``max(16, count)`` draws is sorted once
    and its neighbours compared; if its first ``count`` values hold no
    repeat, they are the answer.  Otherwise the per-value loop takes over
    from that same batch, skipping repeats and drawing further batches
    as needed.  Both paths make the same generator calls and return the
    same values as the loop alone would.
    """
    batch = rng.integers(0, _VALUE_BOUND, size=max(16, count), dtype=np.uint64)
    head = np.sort(batch[:count])
    if not np.any(head[1:] == head[:-1]):
        return batch[:count].tolist()
    seen: set[int] = set()
    out: list[int] = []
    while True:
        for v in batch.tolist():
            if v not in seen:
                seen.add(v)
                out.append(v)
                if len(out) == count:
                    return out
        batch = rng.integers(0, _VALUE_BOUND, size=max(16, count - len(out)), dtype=np.uint64)


def check_instance_size(n: int) -> None:
    """Refuse a size below 2 (ValueError) or above ``MAX_INSTANCE_SIZE``."""
    if n < 2:
        raise ValueError("instance size must be at least 2")
    if n > MAX_INSTANCE_SIZE:
        raise ResourceLimitError(
            f"instance size {n} exceeds the cap of {MAX_INSTANCE_SIZE} values per list"
        )


def generate_instance(n: int, seed: int) -> MatchInstance:
    """Deterministically generate a size-``n`` instance from ``seed``.

    Draws 2n - 1 distinct 64-bit values, plants the first at a uniform
    position in each list, and fills the rest disjointly.  The size is
    checked before anything is drawn.
    """
    check_instance_size(n)
    rng = np.random.default_rng(seed)
    values = _draw_distinct(rng, 2 * n - 1)
    planted = values[0]
    pos1 = int(rng.integers(n))
    pos2 = int(rng.integers(n))
    l1 = values[1:n]
    l1.insert(pos1, planted)
    l2 = values[n : 2 * n - 1]
    l2.insert(pos2, planted)
    return MatchInstance(
        n=n,
        list1=tuple(l1),
        list2=tuple(l2),
        planted_value=planted,
        planted_pos1=pos1,
        planted_pos2=pos2,
        seed=seed,
    )


@dataclass
class RunReport:
    """Outcome of one matcher run.

    ``found`` is the reported index pair (pos in list1, pos in list2) or
    None when the run gave up; ``correct`` records whether the reported
    pair points at the planted value on both sides.  ``predicted_success``
    is the analytic success probability for the configuration that
    produced the run, and ``engine_stats`` carries engine-level detail
    such as iteration counts and measured indices.
    """

    found: Optional[tuple[int, int]]
    correct: bool
    ledger: CostLedger
    engine_stats: dict
    rng_seed: Optional[int] = None
    predicted_success: float = 1.0

    def as_dict(self) -> dict:
        return {
            "found": list(self.found) if self.found is not None else None,
            "correct": self.correct,
            "rng_seed": self.rng_seed,
            "predicted_success": self.predicted_success,
            "engine_stats": self.engine_stats,
            "ledger": self.ledger.as_dict(),
        }
