"""The package names the perfbench harness patches or calls must resolve.

perfbench/ is only read here: layers.py is loaded from its source
without writing bytecode next to it.  A rename that these checks catch
would otherwise surface only when the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path
from unittest import mock

import matchsim
from matchsim import experiments

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    with mock.patch.object(sys, "dont_write_bytecode", True):
        spec.loader.exec_module(module)
    return module


def test_every_traced_site_resolves_to_a_callable():
    sites = load_layers().layer_sites()
    assert sites
    for owner, attr, layer, _ in sites:
        assert callable(getattr(owner, attr, None)), (owner, attr, layer)


def test_names_the_worker_and_checks_use_resolve():
    # perfbench/worker.py
    assert callable(experiments.statevector_cap_from_env)
    assert callable(matchsim.run_sweep)
    assert isinstance(matchsim.__version__, str)
    # perfbench/checks.py
    for name in (
        "sort_charges",
        "NestedConfig",
        "iteration_schedule",
        "membership_probe_depth",
        "predicted_total_cost",
    ):
        assert callable(getattr(matchsim, name, None)), name
