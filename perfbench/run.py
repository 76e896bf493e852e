"""matchsim sweep benchmark: end-to-end host time and per-layer traces.

Run from the root of a checkout:

    python3 perfbench/run.py --workload classical_sort --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --compare BASE.json NEW.json

With ``--trace 0`` a run reports the end-to-end metrics: the median and
tail wall time of one pass over the workload's sweep configs, the
set-up time of a fresh interpreter, and the worker's peak resident
memory.  With ``--trace 1`` it reports the per-layer metrics of a traced
run instead.  Every trial of every pass is checked (see checks.py); the
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--out FILE`` also merges the result into
a results file that ``--compare`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

from speed import REFERENCE_S, pin_to_one_cpu, scale, slowness  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# overriding the cap silently changes which engine "auto" picks
CAP_ENV = "MATCH_SIM_STATEVECTOR_CAP"
# one thread everywhere: the load model is a single closed-loop client
BLAS_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
# fresh interpreters timed for setup_s, after one that warms the caches
SETUP_PROBES = 9
# every child must be done by then, so a run ends well within 180 s
RUN_TIMEOUT_S = 170.0
# the tail is the highest percentile with at least this many passes beyond it
TAIL_BEYOND = 10


def metric_units() -> dict[str, str]:
    """The unit of every metric, as BENCHMARK.json lists it."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


class BenchError(Exception):
    """The benchmark could not run; reported without a result line."""


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with TAIL_BEYOND samples above.

    Never below the median: with too few samples for a higher
    percentile, the tail is the median.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n - TAIL_BEYOND - 1 > (n - 1) / 2:
        return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]
    return 50.0, statistics.median(ordered)


def _spawn(args: list[str], env: dict, deadline: float) -> tuple[float, str]:
    """Run the worker; return seconds until it printed ``ready`` and the rest of stdout."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left to start the worker after {RUN_TIMEOUT_S} s")
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(WORKER), *args], stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT
    ) as proc:
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            first = proc.stdout.readline()
            ready_s = time.perf_counter() - start
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0 or first != "ready\n":
        raise BenchError(f"worker {' '.join(args)} failed with exit code {code}")
    return ready_s, rest


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_benchmark(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict, list]:
    """Return (result line, provenance, human-readable notes) for one run."""
    if CAP_ENV in os.environ:
        raise BenchError(
            f"{CAP_ENV} is set; it changes which engine 'auto' picks, so unset it to benchmark"
        )
    if not (SRC / "matchsim" / "__init__.py").is_file():
        raise BenchError(f"no matchsim package under {SRC}; run from the root of a checkout")
    if seed < 0:
        raise BenchError("--seed must be non-negative (it becomes each config's base_seed)")
    if seconds <= 0:
        raise BenchError("--seconds must be positive")
    deadline = time.monotonic() + RUN_TIMEOUT_S
    cpu = pin_to_one_cpu()
    env = dict(os.environ, **BLAS_THREADS)
    common = ["--workload", workload, "--seed", str(seed)]
    setup, setup_walls = [], []
    if trace == 0:
        _spawn(common + ["--probe"], env, deadline)  # compiles bytecode, fills the page cache
        before = slowness()
        for _ in range(SETUP_PROBES):
            ready_s, _ = _spawn(common + ["--probe"], env, deadline)
            after = slowness()
            setup.append(scale(ready_s, before, after))
            setup_walls.append(ready_s)
            before = after
    _, out = _spawn(common + ["--seconds", str(seconds), "--trace", str(trace)], env, deadline)
    doc = json.loads(out.strip().splitlines()[-1])

    attempted, failed = doc["attempted"], doc["failed"]
    passes = doc["sweep_norm"]
    level, tail_s = tail(passes)
    notes = [
        f"sweep_s: median {statistics.median(passes):.4f} s, p{level:.0f} {tail_s:.4f} s "
        f"over {len(passes)} untraced passes (wall median "
        f"{statistics.median(doc['sweep_walls']):.4f} s)",
        f"checks: {failed} of {attempted} trials failed",
    ]
    if trace:
        values = dict(doc["layers"], check_fail_frac=failed / attempted)
        notes.append(
            f"traced: median {statistics.median(doc['traced_norm']):.4f} s "
            f"over {len(doc['traced_norm'])} passes"
        )
    else:
        values = {
            "sweep_s": statistics.median(passes),
            "sweep_tail_s": tail_s,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": doc["peak_rss_mb"],
        }
        notes.append(
            f"setup_s: median of {len(setup)} fresh interpreters "
            f"(wall median {statistics.median(setup_walls):.4f} s)"
        )
    units = metric_units()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    provenance = dict(
        doc["provenance"],
        workload=workload,
        seed=seed,
        seconds=seconds,
        trace=trace,
        sweep_passes=len(passes),
        sweep_tail_percentile=level,
        python_version=platform.python_version(),
        platform=platform.platform(),
        nproc=os.cpu_count(),
        pinned_cpu=cpu,
        calibration_reference_s=REFERENCE_S,
        git_commit=_git_commit(),
        blas_threads={name: env[name] for name in BLAS_THREADS},
    )
    return result, provenance, notes


def save_result(path: Path, workload: str, trace: int, result: dict, provenance: dict) -> None:
    """Merge one run into a results file keyed by workload."""
    doc = json.loads(path.read_text()) if path.exists() else {"workloads": {}}
    entry = doc["workloads"].setdefault(workload, {"metrics": {}, "runs": {}})
    entry["metrics"].update(result["metrics"])
    entry["runs"][f"trace{trace}"] = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "provenance": provenance,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def compare_rows(base: dict, new: dict) -> list[tuple]:
    """(workload, metric, unit, base, new, new/base) for every metric in either file.

    The ratio is None where the metric is missing on one side or the
    base value is zero.
    """
    rows = []
    workloads = dict.fromkeys([*base["workloads"], *new["workloads"]])
    for workload in workloads:
        b = base["workloads"].get(workload, {}).get("metrics", {})
        n = new["workloads"].get(workload, {}).get("metrics", {})
        for metric in dict.fromkeys([*b, *n]):
            bv = b.get(metric, {}).get("value")
            nv = n.get(metric, {}).get("value")
            unit = (b.get(metric) or n.get(metric))["unit"]
            ratio = nv / bv if bv and nv is not None else None
            rows.append((workload, metric, unit, bv, nv, ratio))
    return rows


def format_compare(rows: list[tuple]) -> str:
    def cell(value) -> str:
        return "-" if value is None else f"{value:.6g}"

    lines = [f"{'workload':<22} {'metric':<42} {'unit':<6} {'base':>12} {'new':>12} {'ratio':>8}"]
    for workload, metric, unit, bv, nv, ratio in rows:
        ratio_text = "-" if ratio is None else f"{ratio:.3f}"
        lines.append(
            f"{workload:<22} {metric:<42} {unit:<6} {cell(bv):>12} {cell(nv):>12} {ratio_text:>8}"
        )
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="matchsim sweep benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also merge the result into this JSON file")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        base, new = (json.loads(path.read_text()) for path in args.compare)
        sys.stdout.write(format_compare(compare_rows(base, new)))
        return 0
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required unless --compare is given")
    try:
        result, provenance, notes = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.out is not None:
        save_result(args.out, args.workload, args.trace, result, provenance)
    for line in notes:
        print(line)
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
