"""Sweeps rerun byte for byte across processes.

Criterion 8 checks reruns within one process.  Here each sweep runs as
``python -m matchsim.cli sweep`` in two fresh interpreters, under
``PYTHONHASHSEED`` 1 and 2, and its CSV and JSON must match byte for
byte.  The amplified sweeps also run on the statevector engine, whose
reference runner reads the same uniforms: its CSV must equal the reduced
engine's.  These are the sweeps and comparisons of CI's "Reruns match
across processes" step, which runs them through the installed command.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matchsim
from matchsim.experiments import AMPLIFIED

SRC = str(Path(matchsim.__file__).resolve().parents[1])

# a noisy nested sweep of 200 trials (one run-stream pass; its n = 1024 rows are drawn
# in two generation batches, 32 + 18), one of 9 (a generator a trial from its seed words),
# one of 3 and a naive one of 3 (6 seeds each, none hashed: a generator a trial from its
# seed), a ragged one at non-square n (a short last block of list1, read from each raw
# draw), a classical one, which reads the shared value generation carries, and a nested
# and a classical one of 1200 trials each, whose rows run in two chunks, the first
# ending inside their second size
RERUN_CONFIGS = {
    "nested": {
        "algorithm": "nested", "n_values": [16, 64, 256, 1024], "trials_per_n": 50,
        "noise_preset": "inv_sqrt_n",
    },
    "small": {
        "algorithm": "nested", "n_values": [16, 64, 256], "trials_per_n": 3,
        "noise_preset": "inv_sqrt_n",
    },
    "tiny": {
        "algorithm": "nested", "n_values": [16, 64, 256], "trials_per_n": 1,
        "noise_preset": "inv_sqrt_n",
    },
    "ragged": {
        "algorithm": "nested", "n_values": [17, 100, 1000], "trials_per_n": 20,
        "noise_preset": "inv_sqrt_n",
    },
    "naive_grover": {"algorithm": "naive_grover", "n_values": [16, 32, 64], "trials_per_n": 1},
    "two_sort": {"algorithm": "two_sort", "n_values": [4, 16, 64, 1024], "trials_per_n": 5},
    "chunked": {
        "algorithm": "nested", "n_values": [16, 64], "trials_per_n": 600,
        "noise_preset": "inv_sqrt_n",
    },
    "two_sort_chunked": {"algorithm": "two_sort", "n_values": [4, 16], "trials_per_n": 600},
}


def sweep(doc, directory, hash_seed=None):
    """The CSV and JSON bytes of ``doc`` swept by the CLI in a fresh interpreter, under
    ``PYTHONHASHSEED`` hash_seed (None: a random one)."""
    config = directory / "sweep.json"
    config.write_text(json.dumps({**doc, "output": str(directory / "rows.csv")}))
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONWARNINGS": "error"}
    env.pop("PYTHONHASHSEED", None)
    env.pop("MATCH_SIM_STATEVECTOR_CAP", None)
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    subprocess.run(
        [sys.executable, "-m", "matchsim.cli", "sweep", "--config", str(config)],
        env=env, check=True, capture_output=True, timeout=60,
    )
    return (directory / "rows.csv").read_bytes(), (directory / "rows.json").read_bytes()


@pytest.mark.parametrize("name", RERUN_CONFIGS)
def test_reruns_match_across_processes(name, tmp_path):
    doc = RERUN_CONFIGS[name]
    first = sweep(doc, tmp_path, "1")
    assert sweep(doc, tmp_path, "2") == first
    if doc["algorithm"] in AMPLIFIED:
        statevector_csv, _ = sweep({**doc, "engine": "statevector"}, tmp_path)
        assert statevector_csv == first[0]
