"""A search as one record, run through the package's runners: the reference
that the matchers' plain ``Search`` values and own charges must equal.

``GroverProblem`` holds the space size, the marked set (checked once and
kept sorted), the predicate that checks the measured index, and the
charge function that records oracle evaluations on a cost ledger.
``run_record`` runs one engine on a record: it charges ``iterations *
uncompute_factor`` evaluations and calls the predicate on the measured
index; any further charge is the caller's.
"""

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

from matchsim.grover import Search, run_analytic, run_statevector
from matchsim.model import CostLedger


@dataclass(frozen=True)
class GroverProblem:
    """A search over ``space_size`` indices that phase-flips the ``marked`` ones.

    ``marked`` is validated once here (no repeats, every index in range)
    and stored in ascending order.  ``predicate`` only checks the
    measured index, and ``charge_fn(ledger, times)`` records the ledger
    cost of ``times`` oracle evaluations.
    """

    space_size: int
    marked: tuple[int, ...]
    predicate: Callable[[int], bool]
    charge_fn: Optional[Callable[[CostLedger, int], None]] = None
    uncompute_factor: int = 1

    def __post_init__(self) -> None:
        if self.space_size < 1:
            raise ValueError("space_size must be at least 1")
        if self.uncompute_factor < 1:
            raise ValueError("uncompute_factor must be at least 1")
        marked = tuple(sorted(self.marked))
        if len(set(marked)) != len(marked):
            raise ValueError("marked indices repeat")
        if marked and not (0 <= marked[0] and marked[-1] < self.space_size):
            raise ValueError("marked index out of range")
        object.__setattr__(self, "marked", marked)

    @property
    def marked_count(self) -> int:
        return len(self.marked)

    def charge(self, ledger: Optional[CostLedger], times: int) -> None:
        """Record ``times`` oracle evaluations, if there is a ledger and a charge."""
        if ledger is not None and self.charge_fn is not None and times > 0:
            self.charge_fn(ledger, times)


class GroverOutcome(NamedTuple):
    """Measured index, its post-measurement check, and the marked mass.

    ``engine`` names the engine that ran; ``fire_pattern`` holds, per
    round, whether its oracle fired, or is None for a noiseless run.
    """

    measured_index: int
    verified: bool
    predicted_success: float
    engine: str
    fire_pattern: Optional[tuple[bool, ...]] = None


def run_record(
    problem: GroverProblem,
    iterations: int,
    rng,
    ledger: Optional[CostLedger] = None,
    *,
    engine: str = "analytic",
    failure_prob: float = 0.0,
) -> GroverOutcome:
    """Run ``engine``'s runner on the record, charge its rounds, check the measured index."""
    run = run_statevector if engine == "statevector" else run_analytic
    search = Search(problem.space_size, problem.marked)
    measured, mass, pattern = run(search, iterations, rng, failure_prob)
    problem.charge(ledger, iterations * problem.uncompute_factor)
    return GroverOutcome(measured, bool(problem.predicate(measured)), mass, engine, pattern)
