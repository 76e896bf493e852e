"""Amplitude-amplification engines over an abstract index space.

Every search here starts uniform over M indices and phase-flips a fixed
set of k marked ones, so its state never leaves the plane spanned by the
uniform state over the marked set and the uniform state over the rest.
In that plane the state is the angle c * theta, theta = asin(sqrt(k/M)),
for an odd integer c that starts at 1.  A firing round (phase flip, then
inversion about the mean) advances c by 2.  A round whose oracle drops
out only inverts about the mean, which reflects the state about the
uniform direction and maps c to 2 - c.

A search is the two-field value ``Search(space_size, marked)``, with
``marked`` strictly ascending below ``space_size``.  Each engine is one
runner, (search, iterations, uniforms, failure_prob) -> (measured_index,
marked_mass, fire_pattern), that checks the search and charges nothing.
The reduced runner (``run_analytic``) tracks c alone and samples the
amplitude vector it implies, so its work does not grow with M; its c
walk is ``walked_masses``, the only one a run takes.  The statevector
runner (``run_statevector``) simulates all M real amplitudes round by
round; it is the independent reference and runs only when named.
Neither holds a generator: both read the caller's list of uniform
floats in [0, 1) alike (one per round when dropout is on, then one
inverse-CDF draw to measure), so on the same uniforms they measure the
same index.  What a search's rounds cost is the caller's to charge.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional

import numpy as np

from .model import ResourceLimitError, float_sum

DEFAULT_STATEVECTOR_CAP = 1 << 20
STATEVECTOR_CAP_ENV = "MATCH_SIM_STATEVECTOR_CAP"

ENGINES = ("statevector", "analytic", "auto")


def statevector_cap_from_env() -> int:
    """Amplitude cap, overridable through MATCH_SIM_STATEVECTOR_CAP."""
    raw = os.environ.get(STATEVECTOR_CAP_ENV)
    if raw is None:
        return DEFAULT_STATEVECTOR_CAP
    try:
        cap = int(raw)
    except ValueError as err:
        raise ValueError(f"{STATEVECTOR_CAP_ENV} must be an integer, got {raw!r}") from err
    if cap < 1:
        raise ValueError(f"{STATEVECTOR_CAP_ENV} must be positive")
    return cap


class ScheduleUndefinedError(ValueError):
    """Raised when asked for an iteration count with zero marked elements."""


@dataclass(frozen=True)
class NoisyOracleSpec:
    """Per-round oracle dropout: with this probability a round marks nothing."""

    failure_prob: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.failure_prob <= 1.0:
            raise ValueError("failure_prob must lie in [0, 1]")


class Search(NamedTuple):
    """A search over ``space_size`` indices that phase-flips the ``marked`` ones.

    ``marked`` must ascend strictly and lie in [0, space_size); the
    runners refuse it otherwise rather than reorder it.
    """

    space_size: int
    marked: tuple[int, ...]


def _check_search(search: Search) -> None:
    space_size, marked = search
    if space_size < 1:
        raise ValueError("space_size must be at least 1")
    if marked and not (0 <= marked[0] and marked[-1] < space_size):
        raise ValueError("marked index out of range")
    if len(marked) > 1 and any(a >= b for a, b in zip(marked, marked[1:])):
        raise ValueError("marked indices must ascend strictly")


def _angle(space_size: int, marked_count: int) -> float:
    return math.asin(math.sqrt(marked_count / space_size))


def _masses(space_size: int, marked_count: int, c: int) -> tuple[float, float]:
    """Marked and unmarked probability mass of the state at angle c * theta.

    The unmarked mass is cos^2 directly, never 1 - sin^2, which cancels
    to zero once it drops below the float spacing near 1.
    """
    if marked_count == 0:
        return 0.0, 1.0
    angle = c * _angle(space_size, marked_count)
    unmarked = math.cos(angle) ** 2 if marked_count < space_size else 0.0
    return math.sin(angle) ** 2, unmarked


@lru_cache(maxsize=4096)
def walked_masses(
    space_size: int, marked_count: int, iterations: int, fire_pattern: Optional[tuple[bool, ...]]
) -> tuple[float, float]:
    """Both masses ``_masses`` gives at the c a run ends on: 2r + 1 with no ``fire_pattern``,
    else the walk from 1 that each fired round moves to c + 2 and each dropped one to 2 - c."""
    c = 2 * iterations + 1 if fire_pattern is None else 1
    for fires in fire_pattern or ():
        c = c + 2 if fires else 2 - c
    return _masses(space_size, marked_count, c)


def _check_counts(space_size: int, marked_count: int, iterations: int) -> None:
    if space_size < 1:
        raise ValueError("space_size must be at least 1")
    if not 0 <= marked_count <= space_size:
        raise ValueError("marked_count must lie in [0, space_size]")
    if iterations < 0:
        raise ValueError("iterations must be non-negative")


def success_probability(space_size: int, marked_count: int, iterations: int) -> float:
    """Probability of measuring a marked index after ``iterations`` rounds.

    Equals sin^2((2r + 1) * asin(sqrt(k / M))); with r = 0 this is the
    bare sampling probability k / M.
    """
    _check_counts(space_size, marked_count, iterations)
    return _masses(space_size, marked_count, 2 * iterations + 1)[0]


def noisy_success_probability(space_size: int, iterations: int, failure_prob: float) -> float:
    """Exact hit probability of a 1-marked search with per-round dropout.

    Averages the marked mass over the 2^r dropout patterns, each of
    which moves the angle multiple c as in ``walked_masses``; the average
    collapses to a small distribution over c.
    """
    _check_counts(space_size, 1, iterations)
    if not 0.0 <= failure_prob <= 1.0:
        raise ValueError("failure_prob must lie in [0, 1]")
    theta = _angle(space_size, 1)
    dist: dict[int, float] = {1: 1.0}
    for _ in range(iterations):
        nxt: dict[int, float] = {}
        for c, p in dist.items():
            nxt[c + 2] = nxt.get(c + 2, 0.0) + p * (1.0 - failure_prob)
            if failure_prob > 0.0:
                nxt[2 - c] = nxt.get(2 - c, 0.0) + p * failure_prob
        dist = nxt
    return float_sum(p * math.sin(c * theta) ** 2 for c, p in dist.items())


def iteration_schedule(space_size: int, marked_count: int) -> int:
    """Iteration count minimizing the distance of (2r+1)*theta from pi/2.

    Ties break toward the smaller count.  At the returned count the
    failure probability is at most marked_count / space_size.
    """
    _check_counts(space_size, marked_count, 0)
    if marked_count == 0:
        raise ScheduleUndefinedError("iteration schedule undefined with no marked elements")
    theta = _angle(space_size, marked_count)
    # exact for k = M (theta = pi/2): any r works, r = 0 is minimal
    target = (math.pi / (2.0 * theta) - 1.0) / 2.0
    lo = max(0, math.floor(target))
    err_lo = abs((2 * lo + 1) * theta - math.pi / 2.0)
    err_next = abs((2 * lo + 3) * theta - math.pi / 2.0)
    # ties keep the smaller count
    return lo + 1 if err_next < err_lo - 1e-15 else lo


def _fire_pattern(
    iterations: int, failure_prob: float, uniforms: list[float]
) -> Optional[tuple[bool, ...]]:
    """Per round, whether the oracle fires (None when noiseless); checks the uniforms' count."""
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    if not 0.0 <= failure_prob <= 1.0:
        raise ValueError("failure_prob must lie in [0, 1]")
    rounds = iterations if failure_prob > 0.0 else 0
    if len(uniforms) != rounds + 1:
        raise ValueError(f"a run of {rounds} dropout rounds reads {rounds + 1} uniforms")
    return tuple([draw >= failure_prob for draw in uniforms[:rounds]]) if failure_prob else None


def statevector_amplitudes(
    search: Search,
    iterations: int,
    fire_pattern: Optional[tuple[bool, ...]] = None,
) -> np.ndarray:
    """Amplitudes after the given rounds, with no sampling.

    ``fire_pattern`` selects which rounds apply the phase flip; rounds
    beyond its length (or all rounds when it is None) always fire.  The
    inversion about the mean runs every round regardless.
    """
    _check_search(search)
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    space_size = search.space_size
    amps = np.full(space_size, 1.0 / math.sqrt(space_size))
    marked = np.array(search.marked, dtype=np.intp)
    for t in range(iterations):
        if fire_pattern is None or t >= len(fire_pattern) or fire_pattern[t]:
            amps[marked] = -amps[marked]
        # 2 * mean - amps in place: np.mean's wrapper costs more than the sum at small M
        np.subtract(2.0 * (amps.sum() / space_size), amps, out=amps)
    return amps


def _sample_index(amps: np.ndarray, uniform: float) -> int:
    probs = amps * amps
    cum = np.cumsum(probs)
    draw = uniform * cum[-1]
    idx = int(np.searchsorted(cum, draw, side="right"))
    return min(idx, len(amps) - 1)


def _sample_reduced(
    space_size: int,
    marked: tuple[int, ...],
    marked_mass: float,
    unmarked_mass: float,
    uniform: float,
) -> int:
    """One inverse-CDF draw from the amplitude vector the reduced state implies.

    Each marked index carries marked_mass / k and every other index
    unmarked_mass / (M - k).  The cumulative mass is walked in index
    order, one run of unmarked indices at a time, as ``_sample_index``
    walks the full vector, so both turn one uniform into one index.
    """
    k = len(marked)
    per_marked = marked_mass / k if k else 0.0
    per_unmarked = unmarked_mass / (space_size - k) if k < space_size else 0.0
    draw = uniform * (marked_mass + unmarked_mass)
    start = 0
    for idx in marked:
        run = (idx - start) * per_unmarked
        if draw < run:
            return min(start + int(draw / per_unmarked), idx - 1)
        draw -= run
        if draw < per_marked:
            return idx
        draw -= per_marked
        start = idx + 1
    if per_unmarked == 0.0:
        return marked[-1]
    return min(start + int(draw / per_unmarked), space_size - 1)


StepResult = tuple[int, float, Optional[tuple[bool, ...]]]


def run_statevector(
    search: Search, iterations: int, uniforms: list[float], failure_prob: float = 0.0
) -> StepResult:
    """Reference runner: simulate all amplitudes and sample one measurement.

    Refuses a space above ``statevector_cap_from_env()``, read when the
    run starts.  With ``failure_prob`` > 0 each round's phase flip
    independently drops out, and the marked mass is the one realized
    under the drawn pattern.
    """
    cap = statevector_cap_from_env()
    if search.space_size > cap:
        raise ResourceLimitError(
            f"statevector space of {search.space_size} amplitudes exceeds the cap of {cap}"
        )
    pattern = _fire_pattern(iterations, failure_prob, uniforms)
    amps = statevector_amplitudes(search, iterations, pattern)
    hits = amps[list(search.marked)]
    return _sample_index(amps, uniforms[-1]), float(np.sum(hits * hits)), pattern


def run_analytic(
    search: Search, iterations: int, uniforms: list[float], failure_prob: float = 0.0
) -> StepResult:
    """Reduced runner: track the state's angle and sample the outcome it implies.

    Measures what ``run_statevector`` measures on the same uniforms.
    """
    _check_search(search)
    pattern = _fire_pattern(iterations, failure_prob, uniforms)
    space_size, marked = search
    marked_mass, unmarked_mass = walked_masses(space_size, len(marked), iterations, pattern)
    measured = _sample_reduced(space_size, marked, marked_mass, unmarked_mass, uniforms[-1])
    return measured, marked_mass, pattern


def run_noisy_outer(
    search: Search, iterations: int, noise: NoisyOracleSpec, uniforms: list[float]
) -> StepResult:
    """``run_analytic`` with the spec's per-round dropout."""
    return run_analytic(search, iterations, uniforms, noise.failure_prob)
