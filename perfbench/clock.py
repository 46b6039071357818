"""Wall time scaled to a reference processor speed.

On a shared machine the processor's speed changes by up to 2.5x from one
second to the next (measured on a 2-vCPU Xeon virtual machine, in
processor time as much as in wall time), which swamps any change to the
program.  So each timed stretch of work is bracketed by a fixed
calibration task, and its wall time is scaled by ``reference /
calibration``: the time the work would have taken on a machine that runs
the calibration task in ``reference``.
The program's code never runs inside a calibration task.

Two tasks are used, each resembling the work it scales, because a task
unlike the work tracks its speed poorly (on that machine a tight loop of
float math slowed 1.8x while the trajectory code slowed 1.2x):

* work in this process is bracketed by ``calibrate``: a small column
  solve written like the package's (closures, Newton steps, logarithms and
  a frozen dataclass per result), which is frozen here and never follows
  changes to the package;
* a CLI process is bracketed by a fresh interpreter importing standard
  library modules (``CHILD_TASK``).  Scaled by it, the spread of CLI wall
  times on that machine fell from 13 % to 5 %.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from time import perf_counter_ns

# Round figures near each task's time on that machine in its fast phases,
# so scaled times read close to the wall times seen there when it is quiet.
TASK_REFERENCE_NS = 200_000
CHILD_REFERENCE_NS = 100_000_000
CHILD_TASK = (
    "import argparse, csv, decimal, email.message, http.client, json, logging, unittest,"
    " xml.dom.minidom"
)

_REPEATS = 3
_TASK_INPUTS = [(100.0 * k, -20.0 + 0.8 * (k % 50)) for k in range(60)]


@dataclass(frozen=True)
class _State:
    H: float
    p: float
    T: float
    rho: float


def _newton(f, fprime, x):
    for _ in range(50):
        step = f(x) / fprime(x)
        x -= step
        if abs(step) < 1e-9:
            break
    return x


def _column(H, dT):
    def f(Hp):
        return Hp + dT / -6.5e-3 * math.log((288.15 - 6.5e-3 * Hp) / 288.15) - H

    def fprime(Hp):
        t = 288.15 - 6.5e-3 * Hp
        return (t + dT) / t

    Hp = _newton(f, fprime, H)
    p = 101325.0 * (1.0 - 6.5e-3 / 288.15 * Hp) ** 5.25588
    T = 288.15 - 6.5e-3 * Hp + dT
    return _State(H=H, p=p, T=T, rho=p / (287.05287 * T))


def calibrate() -> int:
    """Fastest of a few runs of the in-process calibration task [ns]."""
    best = None
    for _ in range(_REPEATS):
        start = perf_counter_ns()
        for H, dT in _TASK_INPUTS:
            _column(H, dT)
        elapsed = perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best


class Speed:
    """Scale factors for consecutive stretches of work.

    Calibrates once up front; each ``factor()`` calibrates again and gives
    the factor for the work done since the previous calibration, from the
    mean of the calibrations at its two ends.
    """

    def __init__(self, task=calibrate, reference_ns=TASK_REFERENCE_NS):
        self.task = task
        self.reference_ns = reference_ns
        self.last = task()

    def factor(self) -> float:
        now = self.task()
        factor = self.reference_ns / ((self.last + now) / 2.0)
        self.last = now
        return factor
