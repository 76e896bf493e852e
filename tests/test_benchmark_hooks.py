"""The package names the perfbench harness patches or calls must resolve,
and its output check must accept what the matchers report.

perfbench/ is only read here: layers.py and checks.py are loaded from
their source without writing bytecode next to them.  A rename or a
change to the instance type that these checks catch would otherwise
surface only when the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path
from unittest import mock

import pytest

import matchsim
from matchsim import experiments

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.object(sys, "dont_write_bytecode", True):
        spec.loader.exec_module(module)
    return module


def load_layers():
    return load_perfbench("layers")


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


@pytest.mark.parametrize("algorithm", ["sort_scan", "two_sort", "naive_grover", "nested"])
def test_output_check_predicts_every_reported_total_cost(algorithm):
    expected_total_cost = load_perfbench("checks").expected_total_cost
    for seed in range(3):
        instance = matchsim.generate_instance(16, seed)
        ledger = matchsim.CostLedger()
        config = matchsim.NestedConfig(uncompute_factor=2, rng_seed=seed)
        report = experiments.run_matcher(algorithm, instance, config, ledger)
        assert expected_total_cost(algorithm, 2, instance, report) == ledger.total_cost()
