"""Fixed pieces of work, apart from tailtilt, that gauge the machine's speed.

The machine this benchmark was built on is a shared 2-core virtual machine
whose speed drifts by up to a third over minutes, as its neighbours come and
go; every timing in a run drifts with it. The run times this yardstick
before each cell and multiplies its timings by ``(Y_REF / Y) ** SENSITIVITY``,
``Y`` being the yardstick's median over the run. A run whose yardstick takes
``Y_REF`` seconds thus reports its raw timings, and most of the drift shared
by the program and the yardstick cancels.

``SENSITIVITY`` is how far the program's timings follow the yardstick's:
fitted on nine sets of ten runs (three on each workload), for each of the
three timings, the slope of log program time on log yardstick time had a
median of 0.77, from 0.45 to 1.5. Dividing by the whole yardstick ratio overcorrected: in a set where the
yardstick spread 30%, ``solve_s`` on ``vine`` spread 15% raw and 19% scaled,
and 10% with the exponent 0.75; over the three sets, the widest scaled
spread fell from 19% to 10%.

The yardstick never calls tailtilt, so no change to the program moves it.
It does the kind of work tailtilt does: Philox streams, normal and t
quantiles and CDFs, small matrix products and reductions over 500-row
blocks, in a Python loop, and the same functions over one 40k-element block.
Changing it, ``Y_REF`` or ``SENSITIVITY`` changes every timing metric; do
none of these.

Set-up time is mostly imports, and drifts in its own way: the compute
yardstick does not track it (over seven minutes of alternating probes their
correlation was 0.33). The import yardstick does (0.63): a fresh Python
process that imports numpy and the scipy modules tailtilt uses, timed from
its spawn until it is ready, just before each timed set-up process. A set-up
time is divided by it and multiplied by ``IMPORT_REF``. It never imports
tailtilt, so a change to the program's set-up moves the scaled figure by
the same share as the raw one.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np
from numpy.random import Generator, Philox
from scipy import special

# seconds the yardsticks take on the reference machine (see README.md)
Y_REF = 0.05
SENSITIVITY = 0.75
IMPORT_REF = 1.25

_IMPORTS = ("import numpy, scipy.integrate, scipy.linalg, scipy.optimize, scipy.special, "
            "scipy.stats, time; print(repr(time.monotonic()))")

_L = np.array([[1.0, 0.0], [0.5, np.sqrt(0.75)]])
_BIG = np.linspace(1e-6, 1.0 - 1e-6, 40_000)


def run_once() -> float:
    """Seconds one pass of the yardstick takes."""
    t0 = time.perf_counter()
    for r in range(80):
        g = Generator(Philox(key=np.array([7, r], dtype=np.uint64)))
        u = ((g.integers(0, 2**63, size=1000) >> 10).astype(np.float64) + 0.5) * 2.0**-53
        z = special.ndtri(u).reshape(500, 2) @ _L.T
        v = special.ndtr(z)
        t = special.stdtrit(5.0, v[:40, 0])
        w = np.exp(-z[:, 1]) * np.all(v > 0.9, axis=1)
        w.mean(), w.std(), special.stdtr(5.0, z[:, 0]).sum(), t.sum()
    q = special.ndtri(_BIG)
    special.stdtr(5.0, q)
    np.log1p(np.exp(-np.abs(q))) ** 1.5
    return time.perf_counter() - t0


class Gauge:
    """Yardstick samples taken through a run."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(run_once())

    def factor(self) -> float:
        """``Y_REF`` over the median yardstick time, to the power
        ``SENSITIVITY``: multiply a timing by it."""
        return (Y_REF / median(self.samples)) ** SENSITIVITY


def seconds_to_ready(args: list[str], cwd: Path) -> float:
    """Seconds from spawning ``python3 args`` until it prints its
    ``time.monotonic()`` as the last line of its standard output."""
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1]) - t0


def import_once(cwd: Path) -> float:
    """Seconds the import yardstick takes."""
    return seconds_to_ready(["-c", _IMPORTS], cwd)
