"""One workload in a fresh interpreter; started by run.py.

Protocol on stdout: the line ``ready`` once matchsim is imported and
the workload's SweepConfigs are built (run.py times the interval from
process start to this line as set-up), then, unless ``--probe`` is
given, one JSON line with the pass times, check counts and, with
``--trace 1``, the per-layer metrics (see passes.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

# only what set-up needs is imported before ``ready``; the rest of the
# harness loads after it, so setup_s times matchsim and not the benchmark
from workloads import WORKLOADS, build_configs  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    args = parser.parse_args(argv)

    import matchsim

    if not Path(matchsim.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: matchsim imported from {matchsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    # run_sweep creates the output directory when it first writes there
    out_dir = ROOT / f".perfbench-{os.getpid()}"
    configs = build_configs(WORKLOADS[args.workload], args.seed, str(out_dir))
    print("ready", flush=True)
    if args.probe:
        return 0

    import numpy
    import passes
    from layers import MATCHER_SITES
    from matchsim import experiments

    try:
        capture = passes.Capture(experiments, MATCHER_SITES.values())
        runner = passes.Runner(configs, capture, matchsim.run_sweep, bool(args.trace))
        doc = passes.measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    doc.update(
        attempted=runner.attempted,
        failed=runner.failed,
        provenance={
            "matchsim_version": matchsim.__version__,
            "numpy_version": numpy.__version__,
            "statevector_cap": experiments.statevector_cap_from_env(),
        },
    )
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
