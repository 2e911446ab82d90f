"""The benchmark's three workloads, as lists of cells.

A cell is one (model, corner, method) estimate at n=500 draws per
replication: the benchmark solves its tilt with ``solve_event_theta`` and
estimates it with ``replicate``. Each cell carries the reference it is
checked against; the references come from ``refs.py``, never from tailtilt.

Replication seeds derive from the run's ``--seed`` and the pass number, so
each pass of a run draws afresh and the run's median averages over draws
as well as over time. The cells expected to fail (``timed=False``) keep a
fixed seed, so they fail the same way in every pass of every run, and they
stay out of every timed metric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy import special, stats

import refs
from tailtilt import CopulaSpec, CornerEvent, MarginSpec, vine_preset

N_DRAWS = 500
WORKLOADS = ("paper-2d", "vine", "deep")

# replications per cell, sized so one pass over a workload takes a few
# seconds on one core
_M = {"paper-2d": 500, "vine": 200, "deep": 1000}

# seed of the cells expected to fail; their inputs must not depend on --seed
FIXED_SEED = 0
_RUN_STRIDE = 10**6
_PASS_STRIDE = 1000


@dataclass(frozen=True)
class Cell:
    """One estimate the benchmark makes, with its reference and its role."""

    key: str
    model: object
    event: CornerEvent
    method: str
    M: int
    seed: int
    ref: Callable[[], float] = field(repr=False)
    solver: str | None = None
    timed: bool = True

    def seed_for(self, pass_no: int) -> int:
        """The replication seed of this cell in pass ``pass_no``."""
        return self.seed if not self.timed else self.seed + _PASS_STRIDE * pass_no

    @property
    def solve_kw(self) -> dict:
        return {} if self.solver is None else {"solver": self.solver}


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple[Cell, ...]
    # keys of cells whose estimates must agree with one another
    agree: tuple[tuple[str, ...], ...]
    # bivariate Gaussian corner (rho, threshold) for the closed-form solver probe
    tallis_probe: tuple[float, float]
    # rows per call into the sampling layers, as the workload makes them
    block_rows: int


_NORMAL = MarginSpec("std-normal")
_T2 = MarginSpec("student-t", df=2.0)


def _corr2(rho: float) -> np.ndarray:
    return np.array([[1.0, rho], [rho, 1.0]])


def gaussian2(rho: float) -> CopulaSpec:
    return CopulaSpec("gaussian", (_NORMAL, _NORMAL), sigma=_corr2(rho))


def gaussian4() -> CopulaSpec:
    return CopulaSpec("gaussian", (_NORMAL,) * 4, sigma=refs.tridiag4())


def student2(rho: float, margin: MarginSpec = _NORMAL) -> CopulaSpec:
    return CopulaSpec("student-t", (margin, margin), sigma=_corr2(rho), nu=5.0)


def clayton2() -> CopulaSpec:
    return CopulaSpec("clayton", (_NORMAL, _NORMAL), delta=3.0)


def _corner(p: float, d: int) -> CornerEvent:
    return CornerEvent("upper", (p,) * d)


def _t_latent(u: float) -> float:
    """t(5) quantile of a copula-scale threshold, through scipy.stats."""
    return float(stats.t.ppf(u, 5.0))


def _committed(name: str) -> Callable[[], float]:
    return lambda: refs.load_committed()[name]


def build(name: str, seed: int) -> Workload:
    """Cells of workload ``name`` with replication seeds drawn from ``seed``."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose one of {WORKLOADS}")
    M = _M[name]
    cells: list[Cell] = []

    def add(key, model, p, method, ref, solver=None, timed=True):
        cell_seed = FIXED_SEED if not timed else _RUN_STRIDE * seed + len(cells)
        cells.append(Cell(key, model, _corner(p, model.d), method, M, cell_seed, ref,
                          solver, timed))

    if name == "paper-2d":
        # the rarest column (about 1e-3) of cases 1, 9 and 12
        t9 = student2(0.0, _T2)
        a9 = _t_latent(stats.t.cdf(6.128, 2.0))
        for key, model, p, ref in (
            ("case1", gaussian2(0.0), 1.857, lambda: refs.gauss_indep_upper(1.857)),
            ("case9", t9, 6.128, lambda: refs.t2_upper(5.0, 0.0, a9)),
            ("case12", clayton2(), 2.130,
             lambda: refs.clayton2_upper(3.0, special.ndtr(2.130))),
        ):
            for method in ("naive", "is-t1", "is-t2", "is-t3"):
                add(f"{key}/{method}", model, p, method, ref)
        return Workload(name, tuple(cells), (), (0.0, 1.857), N_DRAWS)

    if name == "vine":
        agree = []
        for d in ("3d", "4d"):
            ref = _committed(f"vine{d}@0.975")
            for method in ("naive", "is-t1", "is-t3"):
                add(f"{d}-vine/{method}", vine_preset(d), 0.975, method, ref)
            agree.append(tuple(f"{d}-vine/{m}" for m in ("naive", "is-t1", "is-t3")))
        return Workload(name, tuple(cells), tuple(agree), (0.0, 1.857), N_DRAWS)

    # deep: corners from 1e-4 down to 1e-10
    g5, g4, cl = gaussian2(0.5), gaussian4(), clayton2()
    add("gauss-rho0.5@2.955/is-t2", g5, 2.955, "is-t2",
        lambda: refs.gauss2_upper(0.5, 2.955), solver="saa")
    add("clayton@2.573/is-t2", cl, 2.573, "is-t2",
        lambda: refs.clayton2_upper(3.0, special.ndtr(2.573)))
    add("gauss4@1.868/is-t2", g4, 1.868, "is-t2", _committed("gauss4-tridiag@1.868"))
    t5 = student2(0.5)
    agree = []
    for p in (5.0, 5.6, 6.1):
        a = _t_latent(special.ndtr(p))
        for method in ("is-t2", "is-ld"):
            add(f"t@{p}/{method}", t5, p, method, lambda a=a: refs.t2_upper(5.0, 0.5, a))
        agree.append((f"t@{p}/is-t2", f"t@{p}/is-ld"))
    # attempted in every pass and expected to fail until the solvers are mended
    add("gauss-rho0@3.090/is-t2", gaussian2(0.0), 3.090, "is-t2",
        lambda: refs.gauss_indep_upper(3.090), timed=False)
    add("gauss-rho0.5@3.873/is-t2", g5, 3.873, "is-t2",
        lambda: refs.gauss2_upper(0.5, 3.873), timed=False)
    add("gauss-rho0.5@3.873/is-t1", g5, 3.873, "is-t1",
        lambda: refs.gauss2_upper(0.5, 3.873), timed=False)
    add("clayton@3.290/is-t2", cl, 3.290, "is-t2",
        lambda: refs.clayton2_upper(3.0, special.ndtr(3.290)), timed=False)
    add("gauss4@2.582/is-t2", g4, 2.582, "is-t2", _committed("gauss4-tridiag@2.582"),
        timed=False)
    return Workload(name, tuple(cells), tuple(agree), (0.5, 2.955), 100_000)
