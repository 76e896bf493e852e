"""The timed passes of one workload, run inside the worker after set-up.

The workload runs in a closed loop on one thread: each config's
``run_sweep`` starts when the previous one returns.  One pass is the
workload's whole list of configs.  The first pass is a warm-up and is
checked but not timed into the samples.  Every config is timed between
two speed calibrations (see speed.py), which gives each pass a wall
time and a time calibrated to the reference speed.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import layers
from checks import check_trial
from speed import scale, slowness

# passes of each kind a run makes even when --seconds runs out first
MIN_PASSES = 3
# problems printed per run; the rest are only counted
MAX_REPORTED = 10


class Capture:
    """Records (instance, report) for every matcher call a sweep makes.

    The wrappers sit at the matcher entry points in matchsim.experiments
    for the whole run, traced or not, so the checks see exactly what
    the timed passes produced.
    """

    def __init__(self, experiments, attrs) -> None:
        self.calls: list[tuple] = []
        for attr in attrs:
            setattr(experiments, attr, self._wrap(getattr(experiments, attr)))

    def _wrap(self, fn):
        calls = self.calls

        def captured(instance, *args, **kwargs):
            report = fn(instance, *args, **kwargs)
            calls.append((instance, report))
            return report

        return captured


class Runner:
    def __init__(self, configs, capture, run_sweep, trace: bool) -> None:
        self.configs = configs
        self.capture = capture
        self.run_sweep = run_sweep
        self.attempted = 0
        self.failed = 0
        self.reported = 0
        self.first_outputs: dict = {}
        self.tracer = None
        if trace:
            self.tracer = layers.Tracer()
            self.sites = layers.layer_sites()
            self.traced_sweep = self.tracer.wrap(run_sweep, layers.ROOT_LAYER)

    def _problem(self, text: str) -> None:
        if self.reported < MAX_REPORTED:
            print(f"check failed: {text}", file=sys.stderr)
        self.reported += 1

    def one_pass(self, traced: bool, calibrated: bool = True) -> tuple[float, float, list]:
        """Run every config once; return wall and calibrated seconds and the rows."""
        gc.collect()
        self.capture.calls.clear()
        results = []
        if traced:
            self.tracer.reset()
            with self.tracer.installed(self.sites):
                wall, norm = self._timed(self.traced_sweep, results, calibrated)
        else:
            wall, norm = self._timed(self.run_sweep, results, calibrated)
        rows = []
        for config, start, result in results:
            rows.extend(self._check(config, start, result))
        return wall, norm, rows

    def _timed(self, run, results, calibrated: bool) -> tuple[float, float]:
        """Time each config between two speed calibrations."""
        speed = slowness if calibrated else (lambda: 1.0)
        wall = norm = 0.0
        before = speed()
        for config in self.configs:
            start = len(self.capture.calls)
            start_s = time.perf_counter()
            try:
                result = run(config)
            except Exception:  # a failing config must not stop the run
                traceback.print_exc()
                result = None
            elapsed = time.perf_counter() - start_s
            after = speed()
            wall += elapsed
            norm += scale(elapsed, before, after)
            before = after
            results.append((config, start, result))
        return wall, norm

    def _check(self, config, start: int, result) -> list:
        trials = len(config.n_values) * config.trials_per_n
        self.attempted += trials
        if result is None:
            self.failed += trials
            self._problem(f"{config.algorithm}: run_sweep raised")
            return []
        calls = self.capture.calls[start : start + len(result.rows)]
        if len(result.rows) != trials or len(calls) != trials:
            self.failed += trials
            self._problem(f"{config.algorithm}: {len(result.rows)} rows for {trials} trials")
            return result.rows
        for row, (instance, report) in zip(result.rows, calls):
            try:
                problems = check_trial(config, row, instance, report)
            except Exception as err:  # an unpredictable trial counts as failed
                problems = [f"{row.algorithm} n={row.n}: check raised {err!r}"]
            if problems:
                self.failed += 1
                for text in problems:
                    self._problem(text)
        if config.output is not None:
            self._check_rerun(config, trials)
        return result.rows

    def _check_rerun(self, config, trials: int) -> None:
        csv_path = Path(config.output)
        outputs = (csv_path.read_bytes(), csv_path.with_suffix(".json").read_bytes())
        first = self.first_outputs.setdefault(config.output, outputs)
        if outputs != first:
            self.failed += trials
            self._problem(f"{config.algorithm}: rerun output differs from the first pass")


def measure(runner: Runner, seconds: float, trace: bool) -> dict:
    """Warm up, then alternate passes until ``seconds`` are spent; return the samples."""
    deadline = time.perf_counter() + seconds
    # the warm-up runs before the calibration kernel first runs, so
    # the peak resident memory read after it is the workload's own
    runner.one_pass(traced=False, calibrated=False)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls: list[float] = []
    plain: list[float] = []
    traced: list[tuple[float, dict]] = []
    while (
        time.perf_counter() < deadline
        or len(plain) < MIN_PASSES
        or (trace and len(traced) < MIN_PASSES)
    ):
        if trace and len(traced) < len(plain):
            wall, norm, rows = runner.one_pass(traced=True)
            stats = runner.tracer.stats
            traced.append((norm, layers.layer_metrics(stats, wall, rows, speed=norm / wall)))
        else:
            wall, norm, _ = runner.one_pass(traced=False)
            walls.append(wall)
            plain.append(norm)
    doc = {"sweep_walls": walls, "sweep_norm": plain, "peak_rss_mb": peak_rss_mb}
    if trace:
        # report the layers of the median traced pass, so its self times
        # and unattributed remainder add up to that pass's time
        traced.sort(key=lambda item: item[0])
        median_pass = dict(traced[(len(traced) - 1) // 2][1])
        norms = [norm for norm, _ in traced]
        median_pass["trace.overhead_s"] = statistics.median(norms) - statistics.median(plain)
        doc["layers"] = median_pass
        doc["traced_norm"] = norms
    return doc
