"""Command-line front end: sweep, run, fit, compare."""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .experiments import (
    ALGORITHMS,
    NOISE_PRESETS,
    SweepConfig,
    compare_report,
    derive_seed,
    fit_exponent,
    geomean_costs,
    load_rows,
    noise_spec,
    output_paths,
    run_matcher,
    run_sweep,
)
from .grover import ENGINES, ResourceLimitError
from .matchers import NestedConfig
from .model import CostLedger, generate_instance


def _cmd_sweep(args: argparse.Namespace) -> int:
    with open(args.config, encoding="utf-8") as fh:
        config = SweepConfig.from_json(fh.read())
    # run_sweep writes the outputs itself when the config names them
    result = run_sweep(config)
    if config.output is not None:
        csv_path, json_path = output_paths(config.output)
        print(f"wrote {csv_path} and {json_path}")
    else:
        sys.stdout.write(result.to_json_text())
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    instance = generate_instance(args.n, args.seed)
    ledger = CostLedger()
    run_config = NestedConfig(
        block_size=args.block_size,
        engine=args.engine,
        uncompute_factor=args.uncompute,
        noise=noise_spec(args.noise, args.n),
        rng_seed=derive_seed(args.seed, args.n, 0, "run"),
    )
    report = run_matcher(args.algorithm, instance, run_config, ledger)
    doc = {"algorithm": args.algorithm, "n": args.n, "seed": args.seed}
    doc.update(report.as_dict())
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    points = list(geomean_costs(load_rows(args.input)).items())
    fit = fit_exponent(points, log_normalize=args.log_normalize)
    print(json.dumps(fit.as_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    table = compare_report([load_rows(path) for path in args.inputs])
    sys.stdout.write(table.to_text())
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(table.to_csv_text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="match-sim",
        description="Query-cost simulator for finding the one value shared by two lists.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a sweep described by a JSON config")
    p_sweep.add_argument("--config", required=True, help="path to a JSON sweep config")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_run = sub.add_parser("run", help="run one matcher once and print its report")
    p_run.add_argument("--algorithm", required=True, choices=ALGORITHMS)
    p_run.add_argument("--n", type=int, required=True, help="list length")
    p_run.add_argument("--seed", type=int, default=1, help="instance seed")
    p_run.add_argument("--noise", choices=NOISE_PRESETS, default="none")
    p_run.add_argument("--engine", choices=ENGINES, default="auto")
    p_run.add_argument("--uncompute", type=int, default=2, metavar="FACTOR")
    p_run.add_argument("--block-size", type=int, default=None)
    p_run.set_defaults(func=_cmd_run)

    p_fit = sub.add_parser("fit", help="fit a cost exponent to a sweep CSV")
    p_fit.add_argument("--input", required=True, help="sweep CSV path")
    p_fit.add_argument("--log-normalize", action="store_true")
    p_fit.set_defaults(func=_cmd_fit)

    p_cmp = sub.add_parser("compare", help="tabulate several sweep CSVs side by side")
    p_cmp.add_argument("inputs", nargs="+", help="two or more sweep CSV paths")
    p_cmp.add_argument("--output", default=None, help="also write the table as CSV")
    p_cmp.set_defaults(func=_cmd_compare)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceLimitError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
