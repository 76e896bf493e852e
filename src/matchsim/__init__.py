"""Query-model simulator for finding the one value shared by two lists.

Classical baselines, a flat amplified search over pairs, and a nested
block search are all instrumented against the same query-cost model so
their scaling can be measured and compared.
"""

from .experiments import (
    ALGORITHMS,
    CSV_COLUMNS,
    NOISE_PRESETS,
    CompareTable,
    FitResult,
    SweepConfig,
    SweepResult,
    TrialRow,
    compare_report,
    derive_seed,
    fit_exponent,
    load_rows,
    noise_spec,
    run_sweep,
)
from .grover import (
    DEFAULT_STATEVECTOR_CAP,
    NoisyOracleSpec,
    ResourceLimitError,
    ScheduleUndefinedError,
    Search,
    iteration_schedule,
    noisy_success_probability,
    run_analytic,
    run_statevector,
    statevector_amplitudes,
    success_probability,
)
from .matchers import (
    NestedConfig,
    classical_sort_scan,
    classical_two_sort_merge,
    exhaustive_pairs,
    naive_grover_pairs,
    nested_grover_match,
    predicted_total_cost,
)
from .model import (
    ACCESS_KINDS,
    PHASES,
    CostLedger,
    MatchInstance,
    RunReport,
    generate_instance,
)
from .sortsearch import (
    block_count,
    membership_probe_depth,
    sort_charges,
)

__version__ = "0.1.0"
