"""Problem instances, query-cost accounting, seeded generators, run reports.

A problem instance is a pair of equal-length lists of distinct 64-bit
values that share exactly one value.  Every matcher draws its inputs
only through list queries and workspace reads/writes, and all of those
accesses are recorded in a :class:`CostLedger`.

Every generator is built from a seed by :func:`seeded_rng`, which gives the
stream ``np.random.default_rng(seed)`` gives, or is its bare PCG64 bit generator
(:func:`seeded_bits`, which it wraps), all that a batch of instances draws from.
A caller that knows its seeds ahead (a sweep) hashes them in one numpy pass
(:func:`seed_words`) and hands each seed's row down with it, so no seed is hashed
twice.  Short streams need no generator: :func:`run_streams` runs PCG64 over many
rows.  numpy.random itself is imported on the first generator built.  Generation
has one draw rule: a row in which two values are equal is drawn again, whole, from its
own stream.  :func:`_repeats` says whether a row repeats a value; a batch flags rows by
one row-wise key sort (:func:`generate_instances`) and draws each flagged row alone.
Each raw draw is kept as it came: an instance lays its lists out on their first
read, and its two raw reads (``MatchInstance.find1`` and ``value2``) read either
layout, so a nested run lays out nothing.  An instance's byte layout is known here
alone.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cache, lru_cache, reduce
from operator import add
from types import MappingProxyType
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

ACCESS_KINDS = ("l1_queries", "l2_queries", "mem_reads", "mem_writes")
PHASES = ("sort", "inner_search", "outer_search", "final_verify")

_M32 = 0xFFFFFFFF

# Largest list length generate_instance accepts: above the 4^10 sweep
# sizes, and small enough that a classical run's 8-byte cells (two uint64
# lists and the sorted copy of their union) fit in a few hundred MB.
MAX_INSTANCE_SIZE = 1 << 22
# Largest sweep SweepConfig accepts, in trials_per_n * sum(2n + TRIAL_WORK): 4095 trials at
# MAX_INSTANCE_SIZE or 3.3e7 at n = 2, 15-35 min either way on a 2-core x86-64 VM.  A statevector
# amplified trial adds its amplitude rounds over AMPLITUDE_ROUNDS_PER_WORK (about 1 ns each at
# 2^20 amplitudes): 651 naive trials at n = 1024 (8-11 min), 2.7e7 at n = 16 (34-49 min).
MAX_SWEEP_WORK, TRIAL_WORK, AMPLITUDE_ROUNDS_PER_WORK = 1 << 35, 1 << 10, 16

# _repeats filters by 32-bit key up to 2^17 values (m random ones repeat about
# m^2 / 2^33 keys) and 8 repeated keys; beyond, a plain sort costs as little
_KEYED_VALUES, _KEY_PASSES = 1 << 17, 8


def float_sum(values: Iterable[float], start: float = 0.0) -> float:
    """``values`` added left to right to ``start``: ``sum`` compensates floats from Python 3.12."""
    return reduce(add, values, start)


class ResourceLimitError(RuntimeError):
    """Raised when a run would exceed a fixed size, amplitude or sweep-work cap."""


class PhaseCosts(NamedTuple):
    """One phase's access counters: a read-only snapshot that later charges do not change."""

    l1_queries: int = 0
    l2_queries: int = 0
    mem_reads: int = 0
    mem_writes: int = 0

    def as_dict(self) -> dict[str, int]:
        return dict(zip(ACCESS_KINDS, self))


# where each phase's four counters start in a ledger's per-phase list
_PHASE_OFFSETS = {phase: 4 * i for i, phase in enumerate(PHASES)}


class CostLedger:
    """Mutable counter set for list queries and workspace traffic.

    ``total_cost`` is the work factor of a run: the sum of the four
    access counters.  Workspace occupancy, ``live_workspace``, is tracked via
    ``workspace_acquire``/``workspace_release``; ``peak_workspace`` is
    the high-water mark of simultaneously live auxiliary cells.  The
    input lists are static and never count as workspace.  The per-phase
    counters are one flat list, ``phase_breakdown`` a snapshot of it.
    ``part`` is what one recorded, for ``merge`` or ``from_part`` to take.
    """

    __slots__ = (*ACCESS_KINDS, "peak_workspace", "live_workspace", "_by_phase")

    def __init__(self) -> None:
        self.l1_queries = 0
        self.l2_queries = 0
        self.mem_reads = 0
        self.mem_writes = 0
        self.peak_workspace = 0
        self.live_workspace = 0
        self._by_phase = [0] * (4 * len(PHASES))

    @property
    def phase_breakdown(self) -> MappingProxyType:
        """Each phase's ``PhaseCosts``, in ``PHASES`` order, read-only."""
        c = self._by_phase
        return MappingProxyType({p: PhaseCosts(*c[i : i + 4]) for p, i in _PHASE_OFFSETS.items()})

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
        try:
            at = _PHASE_OFFSETS[phase]
        except (KeyError, TypeError):
            raise ValueError(f"unknown phase {phase!r}") from None
        # one int OR is negative exactly when some amount is
        if l1_queries | l2_queries | mem_reads | mem_writes < 0:
            raise ValueError("charge amount must be non-negative")
        counts = self._by_phase
        self.l1_queries += l1_queries
        counts[at] += l1_queries
        self.l2_queries += l2_queries
        counts[at + 1] += l2_queries
        self.mem_reads += mem_reads
        counts[at + 2] += mem_reads
        self.mem_writes += mem_writes
        counts[at + 3] += mem_writes

    def workspace_acquire(self, cells: int) -> None:
        if cells < 0:
            raise ValueError("cell count must be non-negative")
        self.live_workspace += cells
        if self.live_workspace > self.peak_workspace:
            self.peak_workspace = self.live_workspace

    def workspace_release(self, cells: int) -> None:
        if cells < 0:
            raise ValueError("cell count must be non-negative")
        if cells > self.live_workspace:
            raise ValueError("releasing more workspace cells than are live")
        self.live_workspace -= cells

    def part(self) -> tuple:
        """What this ledger recorded since it was built, as ``merge`` takes it: the four counters,
        the per-phase counters as a tuple in their list's order, the peak and the live cells."""
        counters = (self.l1_queries, self.l2_queries, self.mem_reads, self.mem_writes)
        return (*counters, tuple(self._by_phase), self.peak_workspace, self.live_workspace)

    @classmethod
    def from_part(cls, part: tuple) -> "CostLedger":
        """The ledger that ``CostLedger()`` followed by ``merge(part)`` gives, built in one step."""
        self = cls.__new__(cls)
        (self.l1_queries, self.l2_queries, self.mem_reads, self.mem_writes, phases,
         self.peak_workspace, self.live_workspace) = part
        self._by_phase = list(phases)
        return self

    def merge(self, part: tuple) -> None:
        """Add a ``part``: its peak counts from the live level here, and its live cells stay."""
        l1_queries, l2_queries, mem_reads, mem_writes, phases, peak, live = part
        self.l1_queries += l1_queries
        self.l2_queries += l2_queries
        self.mem_reads += mem_reads
        self.mem_writes += mem_writes
        self._by_phase = list(map(add, self._by_phase, phases))
        peak += self.live_workspace
        if peak > self.peak_workspace:
            self.peak_workspace = peak
        self.live_workspace += live

    def total_cost(self) -> int:
        return self.l1_queries + self.l2_queries + self.mem_reads + self.mem_writes

    def as_dict(self) -> dict:
        return {
            **{kind: getattr(self, kind) for kind in ACCESS_KINDS},
            "total_cost": self.total_cost(),
            "peak_workspace": self.peak_workspace,
            "phase_breakdown": {p: c.as_dict() for p, c in self.phase_breakdown.items()},
        }


class MatchInstance:
    """Two lists of ``n`` distinct values each, with one shared value.

    ``planted_value`` appears at ``list1[planted_pos1]`` and
    ``list2[planted_pos2]`` and nowhere else; no other value occurs in
    both lists, and neither list repeats a value internally.

    An instance holds the raw draw that generation made: the planted value,
    list1's other n - 1 values, list2's other n - 1, then any others.  A
    list1 cell i is draw word i + 1 below ``pos1`` and word i above it; a
    list2 cell j is word n + j below ``pos2`` and n + j - 1 above it.
    ``find1`` and ``value2`` read list1 and list2 through that map, so a
    nested run lays nothing out.  The first read of ``values1``, ``values2``,
    ``shared_values``, ``list1`` or ``list2`` lays the lists out in place
    (``__getattr__``): the planted value moves into both slots, and the draw
    becomes one read-only uint64 buffer, list1 first, whose halves are the
    kernels' two arrays.  The recorded slots become -1 and n, which makes
    the map the identity: both layouts share one read path.
    ``list1`` and ``list2`` are the same values as tuples of Python ints,
    built on each read and never kept (a Python int costs about five times
    its uint64 cell), and ``shared_values`` is a view of the one value both
    lists hold.
    """

    def __init__(self, words: np.ndarray, n: int, pos1: int, pos2: int, seed: Optional[int]):
        self.n, self.planted_value, self.planted_pos1, self.planted_pos2 = n, words.item(0), pos1, pos2
        self.seed, self._words, self._slot1, self._slot2 = seed, words, pos1, pos2

    def __getattr__(self, name: str):
        """Lay the lists out on the first read of one of them (see the class)."""
        if name not in ("values1", "values2", "shared_values"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        words, n, pos1, pos2 = self._words, self.n, self.planted_pos1, self.planted_pos2
        # shift list2's tail right and list1's head left: a slot for the planted value in each
        words[n + pos2 + 1 : 2 * n] = words[n + pos2 : 2 * n - 1]
        words[n + pos2] = self.planted_value
        words[:pos1] = words[1 : pos1 + 1]
        words[pos1] = self.planted_value
        words.setflags(write=False)
        self._slot1, self._slot2 = -1, n
        self.values1, self.values2 = words[:n], words[n : 2 * n]
        # 2n - 1 distinct values were drawn, and only the planted one is in both lists
        self.shared_values = words[pos1 : pos1 + 1]
        return vars(self)[name]

    @property
    def list1(self) -> tuple[int, ...]:
        return tuple(self.values1.tolist())

    @property
    def list2(self) -> tuple[int, ...]:
        return tuple(self.values2.tolist())

    def find1(self, value: int, start: int, stop: int) -> Optional[int]:
        """The index of ``value`` in ``list1[start:stop]``, or None: a compare with the planted
        value if its slot is in the slice, and a byte search of the one run of words holding
        the slice's other cells."""
        pos1, slot = self.planted_pos1, self._slot1
        if start <= pos1 < stop and value == self.planted_value:
            return pos1
        lo, key = start + (start <= slot), value.to_bytes(8, sys.byteorder)
        cells = self._words[lo : stop + (stop <= slot)].tobytes()
        at = cells.find(key)
        while at % 8 and at >= 0:  # across two cells: not a value the slice holds
            at = cells.find(key, at + 1)
        r = lo + at // 8  # the run's word at byte ``at``: list1 cell r - 1 up to the slot
        return r - (r <= slot) if at >= 0 else None

    def value2(self, j: int) -> int:
        """``list2[j]`` as an int."""
        if j == self.planted_pos2:
            return self.planted_value
        return self._words.item(self.n + j - (j > self._slot2))


def _repeats(values: np.ndarray) -> bool:
    """Whether any value occurs more than once in ``values``.

    Up to ``_KEYED_VALUES`` values, it sorts one uint32 key per value (its first
    32-bit half in memory): no repeated key, no repeated value.  If at most
    ``_KEY_PASSES`` sorted neighbours share a key, it sorts only the values under
    those keys; otherwise it sorts all values.
    """
    if len(values) <= _KEYED_VALUES:
        words = np.ascontiguousarray(values).view(np.uint32)[::2]
        keys = np.sort(words)
        same = keys[1:] == keys[:-1]
        if not np.count_nonzero(same):
            return False
        twin_keys = keys[1:][same]
        if len(twin_keys) <= _KEY_PASSES:  # np.isin would copy strided words: page faults
            hit = words == twin_keys[0]
            for key in twin_keys[1:]:
                hit |= words == key
            values = values[hit]
    ordered = np.sort(values)
    return bool(np.count_nonzero(ordered[1:] == ordered[:-1]))


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


# PCG64's 128-bit multiplier M; every constant that meets an array is a np.uint64
_PCG_MULT, _M128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1
_1, _11, _32, _58, _63, _LOW32 = np.array([1, 11, 32, 58, 63, _M32], dtype=np.uint64)


def _mul128(ah, al, bh, bl):
    """(ah, al) * (bh, bl) mod 2**128 on (high, low) uint64 words; the carry of
    al * bl into the high word is built from 32-bit limbs."""
    a0, a1, b0, b1 = al & _LOW32, al >> _32, bl & _LOW32, bl >> _32
    cross1, cross2 = a0 * b1, a1 * b0
    carry = ((a0 * b0 >> _32) + (cross1 & _LOW32) + (cross2 & _LOW32)) >> _32
    return a1 * b1 + (cross1 >> _32) + (cross2 >> _32) + carry + ah * bl + al * bh, al * bl


@lru_cache(maxsize=64)
def _pcg_jumps(k: int) -> np.ndarray:
    """Draw j's factors for j = 1..k, M**(j + 1) and 1 + M + ... + M**j mod 2**128,
    as (4, k) read-only uint64 words: the first's high and low, then the second's."""
    power, total, columns = _PCG_MULT, 1, []
    for _ in range(k):
        power, total = power * _PCG_MULT & _M128, (total * _PCG_MULT + 1) & _M128
        columns.append((*divmod(power, 1 << 64), *divmod(total, 1 << 64)))
    jumps = np.array(columns, dtype=np.uint64).reshape(k, 4).T
    jumps.flags.writeable = False
    return jumps


def run_streams(words: np.ndarray, k: int) -> np.ndarray:
    """A (len(words), k) array: row i is ``np.random.default_rng(seed).random(k)``, bit for
    bit, where ``words[i]`` is ``seed``'s row of ``seed_words``.

    numpy's PCG64 (XSL-RR 128/64; O'Neill 2014) takes those words: initstate
    (high, low), then initseq.  From state 0 and inc = 2 initseq + 1, it steps (state
    = M state + inc mod 2**128), adds initstate and steps again; a draw steps, rotates
    high ^ low right by high >> 58 and keeps the top 53 bits as a double.  So draw j's
    state is M**(j + 1) (inc + initstate) + (1 + ... + M**j) inc (``_pcg_jumps``).
    """
    init_hi, init_lo, seq_hi, seq_lo = np.hsplit(words, 4)
    inc_hi, inc_lo = seq_hi << _1 | seq_lo >> _63, seq_lo << _1 | _1
    lo = inc_lo + init_lo
    a_hi, a_lo, b_hi, b_lo = _pcg_jumps(k)
    a_hi, a_lo = _mul128(inc_hi + init_hi + (lo < inc_lo), lo, a_hi, a_lo)
    b_hi, b_lo = _mul128(inc_hi, inc_lo, b_hi, b_lo)
    lo = a_lo + b_lo
    hi = a_hi + b_hi + (lo < a_lo)
    out, turn = hi ^ lo, hi >> _58
    return ((out >> turn | out << (-turn & _63)) >> _11) * 2.0**-53


@cache
def _generator_parts() -> tuple:
    """(Generator, PCG64, seed-words shim), imported on first use: not with ``import matchsim``."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class _SeedWords(ISeedSequence):
        """Hands PCG64 seed words computed ahead by ``seed_words``."""

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 passes np.uint64 itself, and np.dtype() on it costs 0.3 us a build
            if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
                raise RuntimeError(
                    f"PCG64 asked for {n_words} {np.dtype(dtype)} seed words, not 4 uint64"
                )
            return self.words

    return Generator, PCG64, _SeedWords


def seeded_bits(seed: int, words: np.ndarray):
    """The PCG64 that ``default_rng(seed)`` wraps, built from ``words``, its ``seed_words`` row."""
    _, pcg64, seed_words_shim = _generator_parts()
    return pcg64(seed_words_shim(words))


def seeded_rng(seed: int, words: Optional[np.ndarray] = None) -> np.random.Generator:
    """The generator ``np.random.default_rng(seed)`` builds, state for state.

    Given ``words``, the seed's row of ``seed_words``, it skips SeedSequence's
    hashing and wraps ``seeded_bits``.  Every call returns a new generator.
    """
    if words is None:
        return np.random.default_rng(seed)
    return _generator_parts()[0](seeded_bits(seed, words))


def check_instance_size(n: int) -> None:
    """Refuse a size below 2 (ValueError) or above ``MAX_INSTANCE_SIZE``."""
    if n < 2:
        raise ValueError("instance size must be at least 2")
    if n > MAX_INSTANCE_SIZE:
        raise ResourceLimitError(
            f"instance size {n} exceeds the cap of {MAX_INSTANCE_SIZE} values per list"
        )


def generate_instance(n: int, seed: int, words: Optional[np.ndarray] = None) -> MatchInstance:
    """Deterministically generate a size-``n`` instance from ``seed``.

    Draws 2n - 1 distinct 64-bit values, plants the first at a uniform position in each
    list, and fills the rest disjointly.  The size is checked before anything is drawn.
    One raw draw holds the values, filler words and, last, the positions' word, and is the
    instance's draw.  While two of its values are equal, the same stream's next words, as
    many, replace the whole draw, so the values stay uniform over distinct ones.
    Given ``words``, the seed's row of ``seed_words``, the seed is not hashed.
    """
    check_instance_size(n)
    rng = seeded_rng(seed, words)
    count = 2 * n - 1
    # the 16 matters only below n = 9, where it fixes which word gives the pinned positions
    drawn = rng.bit_generator.random_raw(max(16, count) + 1)
    while _repeats(drawn[:count]):
        drawn = rng.bit_generator.random_raw(len(drawn))
    return MatchInstance(drawn, n, *_draw_positions(rng, n, int(drawn[-1])), seed)


def generate_instances(n: int, seeds: Sequence[int], words: np.ndarray) -> list[MatchInstance]:
    """``generate_instance(n, seed, row)`` for each seed and its row of ``words``: one in-place
    row-wise sort of the whole draws' low 32-bit words as a (seeds, length) matrix, one flat
    compare of adjacent keys with the row boundaries masked, and one positions pass over the
    draws' last words.  A row whose word repeats (a filler or positions word too: drawn alone,
    it is the same instance), or with a rejected half, is drawn alone."""
    check_instance_size(n)
    length = max(16, 2 * n - 1) + 1
    draws = [seeded_bits(s, w).random_raw(length) for s, w in zip(seeds, words)]
    keys = np.concatenate(draws, dtype=np.uint32, casting="unsafe")  # the low words
    keys.reshape(len(seeds), length).sort(axis=1)
    same = keys[1:] == keys[:-1]
    same[length - 1 :: length] = False  # a row's last key and the next row's first
    # Lemire's method on each last word, low half first, as _draw_positions takes them
    raw = np.array([drawn[-1] for drawn in draws])
    scaled = np.stack((raw & _M32, raw >> 32)) * np.uint64(n)
    alone = ((scaled & _M32) < (1 << 32) % n).any(0)
    alone[np.flatnonzero(same) // length] = True
    rows = zip(seeds, words, draws, (scaled >> 32).T.tolist(), alone.tolist())
    return [generate_instance(n, s, w) if a else MatchInstance(d, n, *p, s)
            for s, w, d, p, a in rows]


@dataclass(slots=True)
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
