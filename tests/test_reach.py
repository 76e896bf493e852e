"""Every line of every function in the ``matchsim`` package runs under some command.

``reach_driver.py`` runs every subcommand, option and exit code through ``cli.main`` in a
fresh interpreter, under a line tracer.  A function body's lines are its statements that
compile to code (``co_lines``), found by the AST: a nested function's are its own.  Every
one must run, except ``raise`` statements (an ``except`` clause that only raises holds no
other) and the entries of ``UNREACHED``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from types import CodeType

import pytest

import matchsim

PACKAGE = Path(matchsim.__file__).resolve().parent
ROOT = Path(__file__).resolve().parent.parent
DRIVER = ROOT / "tests" / "reach_driver.py"

# What no command runs: a whole function, by its qualified name under the package, or one
# line of one, by (function, the line's text).  Each says why; a reason that starts with a
# perfbench/ file names the benchmark file that needs it, so both can leave together.
UNREACHED = {
    "model.MatchInstance.list1": "perfbench/checks.py: ranks the planted value in list1",
    "model.MatchInstance.list2": "perfbench/checks.py: ranks the planted value in list2",
    "model.CostLedger.charge": "perfbench/layers.py: a traced site",
    "grover.run_noisy_outer": "perfbench/layers.py: a traced site, which no matcher calls",
    "sortsearch.sort_instrumented": "perfbench/layers.py: a traced site, which no matcher calls",
    "sortsearch.binary_membership": "perfbench/layers.py: a traced site, which no matcher calls",
    "matchers.predicted_total_cost": "perfbench/checks.py: predicts every nested ledger",
    ("experiments.run_sweep", "result.rows.extend(rows)"):
        "perfbench/passes.py: reads a sweep's rows, which no command keeps",
    ("matchers.nested_grover_match", "ledger.merge(whole)"):
        "perfbench/test_perfbench.py: passes a ledger to a run, which no command does",
    "model.CostLedger.merge":
        "perfbench/test_perfbench.py: merges a nested run into the ledger it passes",
    ("experiments.SweepResult.write_outputs", "json_path.unlink(missing_ok=True)"):
        "a failed rename: the CSV path became a directory after the sweep checked it",
    ("model.generate_instance", "drawn = rng.bit_generator.random_raw(len(drawn))"):
        "a redraw: two of a row's 2n - 1 random 64-bit values are equal",
    ("model.MatchInstance.find1", "at = cells.find(key, at + 1)"):
        "the measured value's 8 bytes sit across two cells of the block: about n^2 / 2^64",
    ("grover._sample_reduced", "return marked[-1]"):
        "a float guard: a draw past the marked mass when every index is marked",
}

# statements that compile to no code of their own, or only to set up the next one
_NO_CODE = tuple(
    getattr(ast, name) for name in ("Pass", "Global", "Nonlocal", "Try", "TryStar")
    if hasattr(ast, name)
)


def code_lines(code: CodeType) -> set[int]:
    """The lines that hold code in every function nested in ``code`` (a module)."""
    lines = set()
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= {line for _, _, line in const.co_lines() if line is not None}
            lines |= code_lines(const)
    return lines


def body_statements(function: ast.AST):
    """The statements of a function's body at any depth, not those of a nested
    function or class, nor a definition itself."""
    for node in ast.iter_child_nodes(function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.stmt) and not isinstance(node, (ast.Raise, *_NO_CODE)):
            yield node
        yield from body_statements(node)


def functions(node: ast.AST, prefix: str):
    """(qualified name, definition) of each function under ``node``, methods and
    nested functions included, named by the path of definitions down to it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{prefix}.{child.name}", child
            yield from functions(child, f"{prefix}.{child.name}")
        elif isinstance(child, ast.ClassDef):
            yield from functions(child, f"{prefix}.{child.name}")
        else:
            yield from functions(child, prefix)


def function_lines() -> dict[str, dict[int, str]]:
    """Each function's checked lines: line number to the line's text."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        texts = source.splitlines()
        compiled = code_lines(compile(source, str(path), "exec"))
        for name, node in functions(ast.parse(source), path.stem):
            lines = {s.lineno for s in body_statements(node)} & compiled
            out[name] = {line: texts[line - 1].strip() for line in sorted(lines)}
    return out


@pytest.fixture(scope="module")
def ran() -> dict[str, set[int]]:
    """The lines the driver's commands ran, by module name."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-W", "error", str(DRIVER)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    return {Path(path).stem: set(lines) for path, lines in json.loads(done.stdout).items()}


def test_every_function_line_runs_under_some_command(ran):
    allowed = {entry for entry in UNREACHED if isinstance(entry, str)}
    missed = []
    for name, lines in function_lines().items():
        if name in allowed:
            continue
        ran_here = ran.get(name.split(".")[0], set())
        missed += [
            f"{name}:{line}: {text}"
            for line, text in lines.items()
            if line not in ran_here and (name, text) not in UNREACHED
        ]
    assert not missed, "\n".join(missed)


def test_every_unreached_entry_names_code_that_exists_and_does_not_run(ran):
    lines = function_lines()
    for entry, reason in UNREACHED.items():
        name, text = (entry, None) if isinstance(entry, str) else entry
        assert name in lines, f"no function {name}"
        named = [line for line, t in lines[name].items() if text in (None, t)]
        assert named, f"{entry}: no such line in {name}"
        ran_here = [line for line in named if line in ran.get(name.split(".")[0], set())]
        assert not ran_here, f"{entry} runs, at line {ran_here[0]}: delete the entry"
        assert reason and "\n" not in reason, entry
        if reason.startswith("perfbench/"):
            assert (ROOT / reason.split(":")[0]).is_file(), reason
