"""Run every ``match-sim`` subcommand, option and exit code through ``cli.main`` under a
line tracer, and print the lines of the ``matchsim`` package that ran, as JSON.

    PYTHONPATH=src python tests/reach_driver.py

The tracer is installed before ``matchsim`` is imported, in the interpreter that runs
this script, so code that runs at import, and the first call behind each cache, count
as they do in a command.  ``test_reach.py`` checks the output against the package's
function bodies.  Each command's exit code is checked here; a wrong one is an error.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from unittest import mock

PACKAGE = str(Path(importlib.util.find_spec("matchsim").origin).parent)
RAN: defaultdict[str, set[int]] = defaultdict(set)

ALGORITHMS = ("exhaustive", "sort_scan", "two_sort", "naive_grover", "nested")
ENGINES = ("auto", "analytic", "statevector")
PRESETS = ("none", "inv_n", "inv_sqrt_n")
CAP = "MATCH_SIM_STATEVECTOR_CAP"


def _line(frame, event, arg):
    if event == "line":
        RAN[frame.f_code.co_filename].add(frame.f_lineno)
    return _line


def _call(frame, event, arg):
    return _line if frame.f_code.co_filename.startswith(PACKAGE) else None


def commands(tmp: Path):
    """(argv, expected exit code, environment overrides) of every command the driver runs;
    config files and the CSVs that fit and compare read are made in ``tmp`` on the way."""

    def config(name: str, **doc) -> str:
        path = tmp / f"{name}.config"
        path.write_text(doc.pop("text", None) or json.dumps(doc))
        return str(path)

    def sweep(name: str, **doc) -> list[str]:
        return ["sweep", "--config", config(name, **doc)]

    def to_csv(name: str, **doc) -> tuple[list[str], int, dict]:
        return sweep(name, output=str(tmp / f"{name}.csv"), **doc), 0, {}

    # classical sweeps: batches of generated rows, to files, and one unhashed trial to stdout
    for algorithm in ALGORITHMS[:3]:
        yield to_csv(algorithm, algorithm=algorithm, n_values=[16, 17, 64], trials_per_n=9)
        yield sweep(f"{algorithm}-1", algorithm=algorithm, n_values=[5]), 0, {}
    # amplified sweeps on every engine and preset: unhashed streams (3 trials), streams
    # from a generator a trial (9) and from one run_streams pass (70)
    for algorithm in ALGORITHMS[3:]:
        for engine in ENGINES:
            for preset in PRESETS:
                for trials in (3, 9, 70):
                    doc = dict(n_values=[4, 16], trials_per_n=trials, engine=engine)
                    name = f"{algorithm}-{engine}-{preset}-{trials}"
                    yield sweep(name, algorithm=algorithm, noise_preset=preset, **doc), 0, {}
    # fit and compare on those files, with every option: nested beats sort_scan from some
    # size, and never when its oracle is uncomputed 90 times
    yield to_csv("nested", algorithm="nested", n_values=[16, 17, 64])
    yield to_csv("costly", algorithm="nested", n_values=[16, 17, 64], uncompute_factor=90)
    csv = {name: str(tmp / f"{name}.csv") for name in (*ALGORITHMS, "costly")}
    yield ["fit", "--input", csv["sort_scan"]], 0, {}
    yield ["fit", "--input", csv["two_sort"], "--log-normalize"], 0, {}
    yield ["compare", csv["sort_scan"], csv["sort_scan"], csv["sort_scan"]], 0, {}
    yield ["compare", csv["exhaustive"], csv["nested"], csv["sort_scan"]], 0, {}
    yield ["compare", csv["sort_scan"], csv["costly"], "--output", str(tmp / "table.csv")], 0, {}
    # run: every algorithm, option and engine; a block as long as the list; a size whose
    # values repeat two 32-bit keys (seed 1), and one past the keyed repeat check
    for algorithm in ALGORITHMS:
        yield ["run", "--algorithm", algorithm, "--n", "16"], 0, {}
    for engine in ENGINES:
        options = ["--noise", "inv_n", "--engine", engine, "--uncompute", "1"]
        yield ["run", "--algorithm", "nested", "--n", "9", "--seed", "4", *options], 0, {}
        yield ["run", "--algorithm", "naive_grover", "--n", "9", *options], 0, {}
    yield ["run", "--algorithm", "nested", "--n", "16", "--block-size", "16"], 0, {}
    yield ["run", "--algorithm", "two_sort", "--n", "65536"], 0, {}
    yield ["run", "--algorithm", "sort_scan", "--n", "65537"], 0, {}
    cap = {CAP: "256"}
    yield ["run", "--algorithm", "nested", "--n", "16", "--engine", "statevector"], 0, cap
    # exit 2: bad arguments, bad values, bad files and bad configs
    yield ["run", "--algorithm", "bogus", "--n", "4"], 2, {}
    yield ["run", "--algorithm", "nested", "--n", "1"], 2, {}
    yield ["run", "--algorithm", "nested", "--n", "4", "--block-size", "0"], 2, {}
    for bad in ("lots", "0"):
        yield ["run", "--algorithm", "nested", "--n", "4", "--engine", "statevector"], 2, {CAP: bad}
    yield ["fit", "--input", str(tmp / "missing.csv")], 2, {}
    yield ["fit", "--input", str(tmp / "nested.config")], 2, {}
    yield to_csv("two-sizes", algorithm="exhaustive", n_values=[2, 3])
    yield ["fit", "--input", str(tmp / "two-sizes.csv")], 2, {}
    yield ["compare", csv["sort_scan"]], 2, {}
    bad_configs = [
        {"text": "{"}, {"text": "[" * 100_000}, {"text": "[1]"},
        {"algorithm": "nested"}, {"algorithm": "nested", "n_values": [4], "shots": 1},
        {"algorithm": "nested", "n_values": [4], "trials_per_n": True},
        {"algorithm": "nested", "n_values": [4, 2]},
        {"algorithm": "nested", "n_values": [4], "output": str(tmp / "x.json")},
        {"algorithm": "nested", "n_values": [4], "output": str(tmp)},
        {"algorithm": "nested", "n_values": [4], "output": str(tmp / "clash.csv")},
    ]
    (tmp / "clash.json").mkdir()  # the last config's aggregate JSON path
    for i, doc in enumerate(bad_configs):
        yield sweep(f"bad-{i}", **doc), 2, {}
    yield ["sweep", "--config", str(tmp / "missing.config")], 2, {}
    # exit 3: the work cap and the size cap, both when the config is built, and the amplitude
    # cap mid-sweep into directories the sweep made and removes again
    yield sweep("work", algorithm="sort_scan", n_values=[4], trials_per_n=2**40), 3, {}
    out = str(tmp / "made" / "deeper" / "rows.csv")
    yield sweep("size", algorithm="sort_scan", n_values=[2, 2**22 + 1], output=out), 3, {}
    doc = dict(algorithm="nested", n_values=[4, 512], engine="statevector", output=out)
    yield sweep("amplitudes", **doc), 3, cap
    yield ["run", "--algorithm", "sort_scan", "--n", str(2**22 + 1)], 3, {}


def main() -> None:
    os.environ.pop(CAP, None)
    sys.settrace(_call)
    from matchsim import cli

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for argv, expected, env in commands(Path(tmp)):
            out = io.StringIO()
            with (
                mock.patch.dict(os.environ, env),
                contextlib.redirect_stdout(out),
                contextlib.redirect_stderr(out),
            ):
                try:
                    code = cli.main(argv)
                except SystemExit as stop:  # argparse's refusals
                    code = stop.code
            if code != expected:
                failures.append(f"{argv}: exit {code}, not {expected}: {out.getvalue()[-300:]}")
        failed_sweeps_left = [*Path(tmp).glob("made"), *Path(tmp).glob("**/*.tmp")]
    sys.settrace(None)
    if failures or failed_sweeps_left:
        sys.exit("\n".join(failures + [f"left behind: {p}" for p in failed_sweeps_left]))
    json.dump({path: sorted(ran) for path, ran in RAN.items()}, sys.stdout)


if __name__ == "__main__":
    main()
