"""The benchmark's workloads: each is a fixed list of sweep configs.

A workload is what ``match-sim sweep`` would receive after parsing its
config files.  The seed given on the command line becomes every
config's ``base_seed``; nothing else about the inputs depends on it.
Importing this module does not import matchsim, so the harness can list
workloads without paying the package's import cost.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

NOISY_OUTPUT = "noisy_small_batch.csv"


@dataclass(frozen=True)
class Workload:
    name: str
    # keyword arguments for SweepConfig, minus base_seed and output
    configs: tuple[dict, ...]
    writes_output: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="classical_sort",
            configs=(
                dict(algorithm="sort_scan", n_values=(16384, 65536)),
                dict(algorithm="two_sort", n_values=(16384, 65536)),
            ),
        ),
        Workload(
            name="amplified_statevector",
            configs=(
                dict(algorithm="naive_grover", n_values=(256, 512, 1024)),
                dict(algorithm="nested", n_values=(4096, 16384, 65536), trials_per_n=3),
            ),
        ),
        Workload(
            name="noisy_small_batch",
            configs=(
                dict(
                    algorithm="nested",
                    n_values=(16, 64, 256, 1024),
                    trials_per_n=250,
                    noise_preset="inv_sqrt_n",
                ),
            ),
            writes_output=True,
        ),
    )
}


def build_configs(workload: Workload, seed: int, out_dir: str) -> list:
    """The workload's SweepConfigs for one seed; outputs go under out_dir."""
    from matchsim import SweepConfig

    output = os.path.join(out_dir, NOISY_OUTPUT) if workload.writes_output else None
    return [SweepConfig(base_seed=seed, output=output, **kw) for kw in workload.configs]
