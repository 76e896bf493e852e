"""Machine-speed calibration for the benchmark's timings.

On a shared machine the speed of one core drifts by up to half over
tens of seconds as neighbours load its sibling thread or the memory
bus, which swamps the differences a change to matchsim makes.  So the
harness runs one fixed interpreter-bound kernel (benchmark code, never
matchsim) right before and after every measured interval, on the same
core, and rescales the interval to the speed at which the kernel takes
its reference time:

    calibrated = measured / mean(slowness before, slowness after)

where slowness is the kernel's time over its reference time.  Every
workload and the set-up time use the same kernel and the same formula.
Calibrated values are in seconds on a machine running at the reference
speed; the raw wall times are reported next to them.
"""

from __future__ import annotations

import os
import time

# kernel time on an otherwise idle 2-core x86-64 Xeon VM at 2.1 GHz
# (Python 3.11), so calibrated seconds read close to wall seconds there
REFERENCE_S = 0.0090


def _kernel() -> None:
    acc = []
    total = 0
    for i in range(150_000):
        total += i & 7
        if i & 15 == 0:
            acc.append((i, total))


def slowness() -> float:
    """How many times slower than the reference speed this core runs now."""
    start = time.perf_counter()
    _kernel()
    return (time.perf_counter() - start) / REFERENCE_S


def scale(measured_s: float, before: float, after: float) -> float:
    """``measured_s`` rescaled to the reference speed, given the slowness around it."""
    return measured_s / ((before + after) / 2.0)


def pin_to_one_cpu() -> int | None:
    """Pin this process (and the children it starts) to one allowed CPU.

    The kernel and the work it calibrates then share a core.  Returns
    the CPU, or None where affinity cannot be set.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu
