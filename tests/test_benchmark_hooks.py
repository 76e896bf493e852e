"""The package names the perfbench harness patches or calls must resolve,
and its output check must accept what the matchers report.

perfbench/ is only read here: layers.py and checks.py are loaded from
their source without writing bytecode next to them.  A rename or a
change to the instance type that these checks catch would otherwise
surface only when the benchmark runs.
"""

import ast
import importlib.util
import inspect
import sys
from pathlib import Path
from unittest import mock

import pytest

import matchsim
from matchsim import experiments, matchers

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # registered as it runs: a dataclass looks its module up there
    sys.modules[spec.name] = module
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


def test_names_the_self_tests_import_resolve():
    # perfbench/test_perfbench.py, which only CI's unittest step runs:
    # every name it imports from matchsim, and every keyword it calls one with
    tree = ast.parse((PERFBENCH / "test_perfbench.py").read_text())
    names = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "matchsim"
        for alias in node.names
    }
    assert names
    for name in names:
        assert hasattr(matchsim, name), name
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in names:
            parameters = inspect.signature(getattr(matchsim, node.func.id)).parameters
            for keyword in node.keywords:
                assert keyword.arg in parameters, (node.func.id, keyword.arg)


@pytest.mark.parametrize("algorithm", ["sort_scan", "two_sort", "naive_grover", "nested"])
def test_output_check_predicts_every_reported_total_cost(algorithm):
    expected_total_cost = load_perfbench("checks").expected_total_cost
    for seed in range(3):
        instance = matchsim.generate_instance(16, seed)
        ledger = matchsim.CostLedger()
        config = matchsim.NestedConfig(uncompute_factor=2, rng_seed=seed)
        report = experiments.run_matcher(algorithm, instance, config, ledger)
        assert expected_total_cost(algorithm, 2, instance, report) == ledger.total_cost()


def traced_sweep(config):
    """Run a sweep under the layer tracer; return its per-layer metrics."""
    layers = load_layers()
    tracer = layers.Tracer()
    with tracer.installed(layers.layer_sites()):
        result = experiments.run_sweep(config)
    return layers.layer_metrics(tracer.stats, 0.0, result.rows)


TRACED_SIZES = (16, 64, 100)
TRACED_TRIALS = 3


def assert_nested_searches_are_traced(engine):
    """A noisy nested sweep runs two searches a trial through the traced
    runner of its engine, crosses no traced sort or membership name, and
    tracing changes no cost."""
    config = experiments.SweepConfig(
        algorithm="nested", n_values=TRACED_SIZES, trials_per_n=TRACED_TRIALS,
        engine=engine, noise_preset="inv_n",
    )
    metrics = traced_sweep(config)
    trials = TRACED_TRIALS * len(TRACED_SIZES)
    other = "analytic" if engine == "statevector" else "statevector"
    assert metrics[f"grover.{engine}.calls"] == 2 * trials
    assert metrics[f"grover.{other}.calls"] == 0
    if engine == "statevector":
        shapes = [matchers._nested_shape(n, None) for n in TRACED_SIZES]
        rounds = sum(r_outer + r_inner for _, _, r_outer, r_inner in shapes)
        amplitude_rounds = sum(
            blocks * r_outer + n * r_inner
            for n, (_, blocks, r_outer, r_inner) in zip(TRACED_SIZES, shapes)
        )
        assert metrics["grover.statevector.rounds"] == TRACED_TRIALS * rounds
        assert metrics["grover.statevector.amplitude_rounds"] == TRACED_TRIALS * amplitude_rounds
    # the grover.noisy site wraps only run_noisy_outer, which no matcher calls,
    # so it never sees dropout rounds on either engine
    assert metrics["grover.noisy.calls"] == metrics["grover.noisy.rounds"] == 0
    assert metrics["matchers.nested.calls"] == trials
    # the final pass charges its block sort and probes but performs neither
    assert metrics["sortsearch.sort.calls"] == metrics["sortsearch.membership.calls"] == 0
    untraced = experiments.run_sweep(config).rows
    assert metrics["model.ledger.total_cost"] == sum(row.total_cost for row in untraced)


def test_traced_noisy_nested_counts_the_outer_rounds(monkeypatch):
    monkeypatch.delenv("MATCH_SIM_STATEVECTOR_CAP", raising=False)
    assert_nested_searches_are_traced("analytic")


def test_traced_noisy_nested_on_the_statevector_engine(monkeypatch):
    monkeypatch.delenv("MATCH_SIM_STATEVECTOR_CAP", raising=False)
    assert_nested_searches_are_traced("statevector")


def test_traced_naive_grover_counts_amplitude_rounds(monkeypatch):
    monkeypatch.delenv("MATCH_SIM_STATEVECTOR_CAP", raising=False)
    sizes = (4, 16, 32)
    config = experiments.SweepConfig(
        algorithm="naive_grover", n_values=sizes, trials_per_n=2, engine="statevector",
    )
    metrics = traced_sweep(config)
    rounds = [matchsim.iteration_schedule(n * n, 1) for n in sizes]
    assert metrics["grover.statevector.calls"] == 2 * len(sizes)
    assert metrics["grover.statevector.rounds"] == 2 * sum(rounds)
    assert metrics["grover.statevector.amplitude_rounds"] == 2 * sum(
        n * n * r for n, r in zip(sizes, rounds)
    )
    assert metrics["grover.analytic.calls"] == metrics["grover.noisy.calls"] == 0


def imported_names(tree):
    """Every name an import statement binds in a module, except __future__'s."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_no_module_imports_a_name_it_never_uses():
    # a module may import a name only for someone else to look it up there:
    # a traced site, a sweep's matcher entry point, or what the worker reads
    pinned = {(owner.__name__, attr) for owner, attr, _, _ in load_layers().layer_sites()}
    pinned |= {(experiments.__name__, name) for name in experiments.MATCHERS.values()}
    worker = ast.parse((PERFBENCH / "worker.py").read_text())
    pinned |= {
        (experiments.__name__, node.attr)
        for node in ast.walk(worker)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "experiments"
    }
    # the test modules too, which nothing else reads names from
    package = Path(matchsim.__file__).parent
    modules = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    for path in modules + sorted(Path(__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        module = f"{path.parent.name}.{path.stem}"
        unused = {
            name for name in imported_names(tree)
            if name not in used and (module, name) not in pinned
        }
        assert not unused, (path.name, sorted(unused))
