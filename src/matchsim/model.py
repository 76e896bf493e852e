"""Problem instances, query-cost accounting, seeded generators, run reports.

A problem instance is a pair of equal-length lists of distinct 64-bit
values that share exactly one value.  Every matcher draws its inputs
only through list queries and workspace reads/writes, and all of those
accesses are recorded in a :class:`CostLedger`.

Every generator is built from a seed by :func:`seeded_rng`, which gives
the stream ``np.random.default_rng(seed)`` gives.  A caller that knows
its seeds ahead (a sweep) passes them to :func:`remember_seed_words`,
which hashes them all in one numpy pass (:func:`seed_words`), and
clears them with :func:`forget_seed_words`; ``seeded_rng`` then builds
those generators from their words instead of hashing each seed again.
numpy.random itself is imported on the first generator built.  Generation
and the classical matchers find repeated values with :func:`_repeats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

ACCESS_KINDS = ("l1_queries", "l2_queries", "mem_reads", "mem_writes")
PHASES = ("sort", "inner_search", "outer_search", "final_verify")

_VALUE_BOUND = 1 << 64
_M32 = 0xFFFFFFFF

# Largest list length generate_instance accepts: above the 4^10 sweep
# sizes, and small enough that a classical run's 8-byte cells (two uint64
# lists and the sorted copy of their union) fit in a few hundred MB.
MAX_INSTANCE_SIZE = 1 << 22

# _repeats filters by 32-bit key up to 2^17 values (m random ones repeat about
# m^2 / 2^33 keys) and 8 repeated keys; beyond, a plain sort costs as little
_KEYED_VALUES, _KEY_PASSES = 1 << 17, 8


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
        self.charge_batch(phase, **{kind: amount})

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
        # one int OR is negative exactly when some amount is
        if l1_queries | l2_queries | mem_reads | mem_writes < 0:
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


class MatchInstance:
    """Two lists of ``n`` distinct values each, with one shared value.

    ``planted_value`` appears at ``list1[planted_pos1]`` and
    ``list2[planted_pos2]`` and nowhere else; no other value occurs in
    both lists, and neither list repeats a value internally.

    The lists are held as read-only uint64 arrays, ``values1`` and
    ``values2``, which the kernels read; a generated instance keeps both
    in one read-only buffer, list1 first.  ``list1`` and ``list2`` are
    the same values as tuples of Python ints, built on first use.  The
    constructor takes any sequence of Python or numpy ints for either
    list and takes ``n`` from their length.  It raises ValueError for
    lists of unequal length, any other value (a bool included) or one
    outside [0, 2**64).  It keeps a read-only uint64 array whose owner
    is read-only too, and copies anything else, so no writeable array
    shares memory with an instance.  Two instances are equal when all
    their fields hold the same values.
    """

    def __init__(
        self,
        list1,
        list2,
        planted_value: int,
        planted_pos1: int,
        planted_pos2: int,
        seed: Optional[int] = None,
    ) -> None:
        self.values1 = _as_values(list1)
        self.values2 = _as_values(list2)
        if len(self.values1) != len(self.values2):
            raise ValueError("lists must have equal length")
        self.n = len(self.values1)
        self.planted_value = planted_value
        self.planted_pos1 = planted_pos1
        self.planted_pos2 = planted_pos2
        self.seed = seed

    @cached_property
    def list1(self) -> tuple[int, ...]:
        return tuple(self.values1.tolist())

    @cached_property
    def list2(self) -> tuple[int, ...]:
        return tuple(self.values2.tolist())

    def _scalars(self) -> tuple:
        return (self.n, self.planted_value, self.planted_pos1, self.planted_pos2, self.seed)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchInstance):
            return NotImplemented
        return (
            self._scalars() == other._scalars()
            and np.array_equal(self.values1, other.values1)
            and np.array_equal(self.values2, other.values2)
        )

    def __repr__(self) -> str:
        return (
            f"MatchInstance(n={self.n}, planted_value={self.planted_value}, "
            f"planted_pos1={self.planted_pos1}, planted_pos2={self.planted_pos2}, "
            f"seed={self.seed})"
        )

    def validate(self) -> None:
        """Check every structural invariant; raise ValueError on failure."""
        if self.n < 2:
            raise ValueError("instance size must be at least 2")
        if len(_repeats(self.values1)) or len(_repeats(self.values2)):
            raise ValueError("lists must not repeat values internally")
        if _repeats(self.values1, self.values2).tolist() != [self.planted_value]:
            raise ValueError("lists must share exactly the planted value")
        if not (0 <= self.planted_pos1 < self.n and 0 <= self.planted_pos2 < self.n):
            raise ValueError("planted positions out of range")
        if int(self.values1[self.planted_pos1]) != self.planted_value:
            raise ValueError("planted_pos1 does not point at planted_value")
        if int(self.values2[self.planted_pos2]) != self.planted_value:
            raise ValueError("planted_pos2 does not point at planted_value")

    @classmethod
    def from_lists(cls, list1, list2, seed: Optional[int] = None) -> "MatchInstance":
        """Build an instance from explicit lists, locating the shared value."""
        a1, a2 = _as_values(list1), _as_values(list2)
        shared = np.intersect1d(a1, a2)
        if len(shared) != 1:
            raise ValueError(f"lists must share exactly one value, found {len(shared)}")
        value = shared[0]
        inst = cls(
            list1=a1,
            list2=a2,
            planted_value=int(value),
            planted_pos1=int(np.argmax(a1 == value)),
            planted_pos2=int(np.argmax(a2 == value)),
            seed=seed,
        )
        inst.validate()
        return inst


def _frozen(array: np.ndarray) -> bool:
    """Whether ``array`` and every array it views are read-only."""
    while isinstance(array, np.ndarray):
        if array.flags.writeable:
            return False
        array = array.base
    # a foreign owner (bytes, mmap, ...) may be written through another handle
    return array is None


def _as_values(values) -> np.ndarray:
    """``values`` as a read-only uint64 array that no writeable array shares.

    A read-only uint64 array over read-only owners is kept as it is;
    anything else is copied.  Raises ValueError for a value that is not
    a Python or numpy integer (a bool is not), or lies outside [0, 2**64).
    """
    if isinstance(values, np.ndarray) and values.dtype == np.uint64:
        if _frozen(values):
            return values
        values = values.copy()
    else:
        try:
            values = tuple(values)
        except TypeError:
            raise ValueError("values must be a sequence of integers") from None
        # np.array would truncate a float, take a bool as 0 or 1, and raise
        # TypeError on a string
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values):
            raise ValueError("values must be integers")
        # checked here: numpy would raise OverflowError, or wrap a negative int64
        if values and not (0 <= min(values) and max(values) < _VALUE_BOUND):
            raise ValueError("values must fit in 64 bits")
        values = np.array(values, dtype=np.uint64)
    values.flags.writeable = False
    return values


def _repeats(*parts: np.ndarray) -> np.ndarray:
    """The distinct values that occur more than once across ``parts``, ascending.

    Up to ``_KEYED_VALUES`` values, it sorts one uint32 key per value (its first
    32-bit half in memory) and, if at most ``_KEY_PASSES`` keys repeat, sorts
    only the values under them.  Otherwise it sorts all values.
    """
    if sum(len(p) for p in parts) <= _KEYED_VALUES:
        words = [np.ascontiguousarray(p).view(np.uint32)[::2] for p in parts]
        keys = _joined(words)
        keys.sort()
        if not np.count_nonzero(keys[1:] == keys[:-1]):
            return np.empty(0, dtype=np.uint64)
        twin_keys = _twins(keys)
        if len(twin_keys) <= _KEY_PASSES:  # np.isin would copy strided words: page faults
            hits = [w == twin_keys[0] for w in words]
            for key in twin_keys[1:]:
                for hit, w in zip(hits, words):
                    hit |= w == key
            parts = tuple(p[hit] for p, hit in zip(parts, hits))
    candidates = _joined(parts)
    candidates.sort()
    return _twins(candidates)


def _joined(parts) -> np.ndarray:
    """A new array of the parts end to end; one part is copied, which costs less."""
    return parts[0].copy() if len(parts) == 1 else np.concatenate(parts)


def _twins(ordered: np.ndarray) -> np.ndarray:
    """The distinct values a sorted array repeats (np.unique allots ~1 MB, even for few)."""
    twins = ordered[1:][ordered[1:] == ordered[:-1]]
    return np.concatenate((twins[:1], twins[1:][twins[1:] != twins[:-1]]))


def _draw_distinct(rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` distinct 64-bit values, preserving draw order.

    Values come straight from the raw stream of the PCG64 bit generator
    that ``seeded_rng`` builds.  Over the full 64-bit range that stream
    is what ``rng.integers(0, 2**64, dtype=np.uint64)`` returns, value
    for value and with the same generator state after.  Each batch is
    ``max(16, values still missing)`` draws; a repeat is skipped.
    """
    seen: set[int] = set()
    out: list[int] = []
    while True:
        for v in rng.bit_generator.random_raw(max(16, count - len(out))).tolist():
            if v not in seen:
                seen.add(v)
                out.append(v)
                if len(out) == count:
                    return np.array(out, dtype=np.uint64)


def _draw_positions(rng: np.random.Generator, n: int, raw: Optional[int] = None) -> tuple[int, int]:
    """Two uniform positions below ``n``, for 2 <= n < 2**32, from the raw stream.

    They are what two ``int(rng.integers(n))`` calls return on a PCG64
    generator that has drawn only raw values so far (``raw``, if given,
    is the next).  numpy draws each by Lemire's method on one 32-bit
    word, redrawing while the low half of word * n is below 2**32 mod n.
    PCG64 hands out 32-bit words as the low, then the high half of one
    raw value, so both positions usually come from a single raw draw.
    """
    threshold = (1 << 32) % n
    positions: list[int] = []
    halves: list[int] = []
    while len(positions) < 2:
        if not halves:
            raw = rng.bit_generator.random_raw() if raw is None else raw
            halves, raw = [raw >> 32, raw & _M32], None  # popped low half first
        scaled = halves.pop() * n
        if scaled & _M32 >= threshold:
            positions.append(scaled >> 32)
    return positions[0], positions[1]


# numpy's SeedSequence, specialised to an integer seed in [0, 2**64) and
# PCG64's request of four uint64 words.  All arithmetic is mod 2**32.
# hashmix(v) is ``v ^= h; h *= MULT_A; v *= h; v ^= v >> 16`` with one
# running h from INIT_A, so every step's two constants are known ahead.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def _hash_constants(start: int, mult: int, count: int) -> list[int]:
    """h, h * mult, h * mult**2, ... mod 2**32: ``count`` + 1 values."""
    out = [start]
    for _ in range(count):
        out.append(out[-1] * mult & _M32)
    return out


# every constant as a column, to broadcast over the (4, seeds) pool: the 4
# pool hashmixes, then 3 per source in the mixing pass
_H_A = np.array(_hash_constants(_INIT_A, _MULT_A, 4 + 4 * 3), dtype=np.uint32)[:, np.newaxis]
_POOL_XOR, _POOL_MUL = _H_A[:4], _H_A[1:5]
_MIX_STEPS = tuple(
    (
        src,
        [dst for dst in range(4) if dst != src],
        _H_A[4 + 3 * src : 7 + 3 * src],
        _H_A[5 + 3 * src : 8 + 3 * src],
    )
    for src in range(4)
)
# 8 output uint32 words, read in pairs as 4 little-endian uint64 words
_H_B = np.array(_hash_constants(_INIT_B, _MULT_B, 8), dtype=np.uint32)
_OUT_XOR, _OUT_MUL = _H_B[:8], _H_B[1:]


def seed_words(seeds: Sequence[int]) -> np.ndarray:
    """PCG64's four seed words for each seed, as one (len(seeds), 4) uint64 array.

    Row i equals ``np.random.SeedSequence(seeds[i]).generate_state(4,
    np.uint64)`` for every seed in [0, 2**64), computed for all seeds at
    once: the pool is hashmix of the seed's low and high 32 bits and of
    two zeros; each pool word then mixes into the other three, one
    source at a time; the output hashes the pool twice around.
    """
    s = np.asarray(seeds, dtype=np.uint64)
    pool = np.zeros((4, s.size), dtype=np.uint32)
    pool[0] = s  # the low 32 bits
    pool[1] = s >> np.uint64(32)
    pool ^= _POOL_XOR
    pool *= _POOL_MUL
    pool ^= pool >> _SHIFT
    for src, dsts, xor, mul in _MIX_STEPS:
        mixed = pool[src] ^ xor
        mixed *= mul
        mixed ^= mixed >> _SHIFT
        mixed *= _MIX_R
        dst = pool[dsts]
        dst *= _MIX_L
        dst -= mixed
        dst ^= dst >> _SHIFT
        pool[dsts] = dst
    # one row of 8 uint32 words per seed: the pool twice around
    out = np.empty((s.size, 8), dtype=np.uint32)
    out[:, :4] = out[:, 4:] = pool.T
    out ^= _OUT_XOR
    out *= _OUT_MUL
    out ^= out >> _SHIFT
    return out.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _SeedMemo(NamedTuple):
    """Remembered seeds: ``words[index[seed]]`` are the seed words of ``seed``."""

    index: dict[int, int]
    words: np.ndarray


_NO_SEEDS = _SeedMemo({}, np.empty((0, 4), dtype=np.uint64))

# Filled by remember_seed_words and read by seeded_rng.  It is replaced
# whole, never edited, so a reader sees one consistent memo; a seed
# missing from it (never remembered, or dropped by another caller) only
# takes the slow path and never changes a stream.  Seeds map to row
# numbers, not row views: a view object per seed would triple the memo.
_seed_memo = _NO_SEEDS

# Below this many seeds, one seed_words call (about 50 us fixed) saves
# less than the default_rng calls it replaces (12-17 us each, against
# 3 us for a generator built from its words).  Remembering k seeds and
# building their generators, against k default_rng calls, on a 2-core
# x86-64 VM: 75 against 50 us at k = 4, even at k = 6, and 81-93 against
# 105-159 us at k = 8.
SEED_WORDS_BREAK_EVEN = 8


def remember_seed_words(seeds: Sequence[int]) -> None:
    """Hash ``seeds`` in one pass for ``seeded_rng``, replacing any remembered before.

    Remembers nothing, and forgets what was remembered before, for
    fewer than ``SEED_WORDS_BREAK_EVEN`` seeds.
    """
    global _seed_memo
    _seed_memo = _NO_SEEDS
    if len(seeds) >= SEED_WORDS_BREAK_EVEN:
        words = seed_words(seeds)
        words.flags.writeable = False
        _seed_memo = _SeedMemo(dict(zip(seeds, range(len(seeds)))), words)


def forget_seed_words() -> None:
    """Drop every remembered seed."""
    global _seed_memo
    _seed_memo = _NO_SEEDS


@cache
def _generator_parts() -> tuple:
    """(Generator, PCG64, seed-words shim), built on first use.

    numpy.random is imported here and not at module import, which keeps
    it out of ``import matchsim``.
    """
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class _SeedWords(ISeedSequence):
        """Hands PCG64 seed words computed ahead by ``seed_words``."""

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise RuntimeError(
                    f"PCG64 asked for {n_words} {np.dtype(dtype)} seed words, not 4 uint64"
                )
            return self.words

    return Generator, PCG64, _SeedWords


def seeded_rng(seed: int) -> np.random.Generator:
    """The generator ``np.random.default_rng(seed)`` builds, state for state.

    A remembered seed skips SeedSequence's hashing and builds PCG64 from
    its words; any other seed goes through ``default_rng``.  Every call
    returns a new generator.
    """
    memo = _seed_memo
    row = memo.index.get(seed)
    if row is None:
        return np.random.default_rng(seed)
    generator, pcg64, seed_words_shim = _generator_parts()
    return generator(pcg64(seed_words_shim(memo.words[row])))


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
    checked before anything is drawn.  One raw draw holds the values, the
    rest of ``_draw_distinct``'s first batch and the positions' word, and
    becomes the buffer; a repeat redraws through ``_draw_distinct``.
    """
    check_instance_size(n)
    rng = seeded_rng(seed)
    count = 2 * n - 1
    words = rng.bit_generator.random_raw(max(16, count) + 1)
    raw = int(words[-1])
    if len(_repeats(words[:count])):
        rng, raw = seeded_rng(seed), None
        # the last word is a placeholder that the moves below overwrite
        words = np.append(_draw_distinct(rng, count), words[:1])
    pos1, pos2 = _draw_positions(rng, n, raw)
    lists = words if len(words) == 2 * n else words[: 2 * n].copy()
    planted = int(lists[0])
    # shift list2's tail right and list1's head left: a slot for the planted value in each
    lists[n + pos2 + 1 :] = lists[n + pos2 : -1]
    lists[n + pos2] = planted
    lists[:pos1] = lists[1 : pos1 + 1]
    lists[pos1] = planted
    lists.flags.writeable = False
    return MatchInstance(lists[:n], lists[n:], planted, pos1, pos2, seed)


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
