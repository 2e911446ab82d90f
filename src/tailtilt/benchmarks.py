"""Benchmark case registry with frozen reference results.

Twelve numbered cases cover bivariate Gaussian corners under two margin
choices (1-6), a four-dimensional Gaussian with tridiagonal correlation
(7-8), bivariate t copulas (9-11), and a bivariate Clayton copula (12).
Two named cases add the three- and four-dimensional vine models. Each case
carries reference estimates, spreads, tilts, and efficiency ratios at
n=500, M=5000 for regression comparison; ``run_case`` recomputes them and
``format_comparison`` prints both sets side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .copulas import CopulaSpec, CornerEvent, RVineSpec, vine_preset
from .errors import ConfigError
from .estimators import EstimateResult, ExperimentConfig, replicate, sd_eff
from .randkit import MarginSpec

__all__ = [
    "BenchmarkCase",
    "BenchRow",
    "benchmark_keys",
    "get_case",
    "run_case",
    "format_comparison",
]

_NORMAL = MarginSpec("std-normal")
_EXP = MarginSpec("exponential", rate=1.0)
_T2 = MarginSpec("student-t", df=2.0)


def _corr2(rho: float) -> np.ndarray:
    return np.array([[1.0, rho], [rho, 1.0]])


def _tridiag4() -> np.ndarray:
    s = np.eye(4)
    for i in range(3):
        s[i, i + 1] = s[i + 1, i] = 0.5
    return s


@dataclass(frozen=True)
class BenchmarkCase:
    """One benchmark table: model, thresholds, and reference columns.

    ``reference`` maps method name to column arrays indexed like ``p``:
    ``u`` and ``sd`` for every method, plus ``theta`` and ``sd_eff`` for
    the importance samplers. Tilt vectors follow each family's layout
    (the frailty component comes first for Clayton).
    """

    key: str
    title: str
    model: CopulaSpec | RVineSpec
    p: tuple[float, ...]
    methods: tuple[str, ...]
    reference: Mapping[str, Mapping[str, tuple]]


def _case(key, title, model, p, ref) -> BenchmarkCase:
    methods = tuple(m for m in ("is-t1", "is-t2", "is-t3") if m in ref)
    return BenchmarkCase(key, title, model, tuple(p), methods, ref)


_CASES = (
    _case(
        "1", "gaussian rho=0, std-normal margins",
        CopulaSpec("gaussian", (_NORMAL,) * 2, sigma=_corr2(0.0)),
        (0.760, 1.282, 1.471, 1.857),
        {
            "naive": {"u": (4.99e-2, 1.00e-2, 5.00e-3, 1.00e-3),
                      "sd": (9.56e-3, 4.44e-3, 3.15e-3, 1.41e-3)},
            "is-t1": {"theta": ((7.09, 7.09), (15.95, 15.95), (22.56, 22.56), (50.34, 50.34)),
                      "u": (5.00e-2, 1.00e-2, 5.00e-3, 1.00e-3),
                      "sd": (2.63e-3, 5.29e-4, 2.65e-4, 5.20e-5),
                      "sd_eff": (3.64, 8.43, 12.01, 27.13)},
            "is-t2": {"theta": ((1.14, 1.14), (1.58, 1.58), (1.74, 1.74), (2.09, 2.09)),
                      "u": (5.02e-2, 1.00e-2, 5.00e-3, 1.00e-3),
                      "sd": (4.18e-3, 1.05e-3, 5.66e-4, 1.41e-4),
                      "sd_eff": (2.29, 4.21, 5.61, 10.68)},
            "is-t3": {"theta": (0.33, 0.57, 0.62, 0.71),
                      "u": (5.01e-2, 1.00e-2, 5.00e-3, 9.98e-4),
                      "sd": (6.41e-3, 1.71e-3, 9.49e-4, 2.43e-4),
                      "sd_eff": (1.49, 2.60, 3.32, 5.80)},
        },
    ),
    _case(
        "2", "gaussian rho=0.5, std-normal margins",
        CopulaSpec("gaussian", (_NORMAL,) * 2, sigma=_corr2(0.5)),
        (1.100, 1.712, 1.936, 2.395),
        {
            "naive": {"u": (5.02e-2, 1.00e-2, 5.10e-3, 1.00e-3),
                      "sd": (9.93e-3, 4.42e-3, 3.19e-3, 1.40e-3)},
            "is-t1": {"theta": ((13.94, 4.02), (44.93, 6.48), (74.50, 7.78), (240.44, 11.66)),
                      "u": (5.00e-2, 1.00e-2, 5.00e-3, 1.00e-3),
                      "sd": (2.35e-3, 4.69e-4, 2.45e-4, 4.99e-5),
                      "sd_eff": (4.22, 9.34, 13.38, 28.12)},
            "is-t2": {"theta": ((1.01, 1.01), (1.36, 1.36), (1.49, 1.49), (1.77, 1.77)),
                      "u": (5.00e-2, 1.00e-2, 5.00e-3, 1.00e-3),
                      "sd": (3.59e-3, 9.00e-4, 4.69e-4, 1.00e-4),
                      "sd_eff": (2.77, 4.92, 6.73, 12.75)},
            "is-t3": {"theta": (0.40, 0.60, 0.65, 0.73),
                      "u": (5.00e-2, 1.00e-2, 4.99e-3, 9.95e-4),
                      "sd": (5.85e-3, 1.56e-3, 8.70e-4, 2.13e-4),
                      "sd_eff": (1.70, 2.83, 3.67, 6.57)},
        },
    ),
    _case(
        "3", "gaussian rho=-0.5, std-normal margins",
        CopulaSpec("gaussian", (_NORMAL,) * 2, sigma=_corr2(-0.5)),
        (0.411, 0.806, 0.947, 1.233),
        {
            "naive": {"u": (5.03e-2, 1.01e-2, 5.00e-3, 1.00e-3),
                      "sd": (9.90e-3, 4.45e-3, 3.10e-3, 1.37e-3)},
            "is-t1": {"theta": ((3.58, 8.20), (6.25, 24.25), (7.68, 39.2), (12.09, 121.57)),
                      "u": (5.01e-2, 1.00e-2, 5.00e-3, 1.00e-3),
                      "sd": (3.51e-3, 7.35e-4, 3.74e-4, 1.00e-4),
                      "sd_eff": (2.82, 6.06, 8.30, 13.75)},
            "is-t2": {"theta": ((1.44, 1.44), (2.07, 2.07), (2.31, 2.31), (2.81, 2.81)),
                      "u": (5.00e-2, 1.00e-2, 5.00e-3, 1.00e-3),
                      "sd": (4.96e-3, 1.30e-3, 6.86e-4, 1.73e-4),
                      "sd_eff": (1.99, 3.41, 4.51, 7.94)},
            "is-t3": {"theta": (0.20, 0.51, 0.58, 0.68),
                      "u": (4.99e-2, 1.00e-2, 5.00e-3, 9.94e-4),
                      "sd": (7.69e-3, 2.06e-3, 1.15e-3, 3.05e-4),
                      "sd_eff": (1.29, 2.16, 2.70, 4.49)},
        },
    ),
    _case(
        "4", "gaussian rho=0, exponential margins",
        CopulaSpec("gaussian", (_EXP,) * 2, sigma=_corr2(0.0)),
        (1.498, 2.303, 2.649, 3.454),
        {
            "naive": {"u": (4.99e-2, 0.99e-2, 5.07e-3, 1.04e-3),
                      "sd": (9.69e-3, 4.50e-3, 3.17e-3, 1.45e-3)},
            "is-t1": {"theta": ((7.09, 7.09), (15.94, 15.94), (22.53, 22.53), (50.40, 50.40)),
                      "u": (5.00e-2, 1.00e-2, 5.00e-3, 1.00e-3),
                      "sd": (2.61e-3, 5.29e-4, 2.65e-4, 5.31e-5),
                      "sd_eff": (3.71, 8.59, 12.01, 27.31)},
            "is-t2": {"theta": ((1.14, 1.14), (1.58, 1.58), (1.74, 1.74), (2.09, 2.09)),
                      "u": (5.00e-2, 1.00e-2, 5.00e-3, 0.99e-3),
                      "sd": (4.19e-3, 1.07e-3, 5.74e-4, 1.41e-4),
                      "sd_eff": (2.32, 4.21, 5.54, 10.98)},
            "is-t3": {"theta": (0.33, 0.57, 0.62, 0.71),
                      "u": (5.00e-2, 1.00e-2, 5.00e-3, 1.00e-3),
                      "sd": (6.50e-3, 1.77e-3, 9.52e-4, 2.39e-4),
                      "sd_eff": (1.49, 2.54, 3.33, 6.07)},
        },
    ),
    _case(
        "5", "gaussian rho=0.5, exponential margins",
        CopulaSpec("gaussian", (_EXP,) * 2, sigma=_corr2(0.5)),
        (1.997, 3.137, 3.633, 4.791),
        {
            "naive": {"u": (5.02e-2, 1.01e-2, 5.06e-3, 0.99e-3),
                      "sd": (9.79e-3, 4.49e-3, 3.19e-3, 1.41e-3)},
            "is-t1": {"theta": ((13.93, 4.02), (44.97, 6.49), (74.49, 7.78), (240.62, 11.66)),
                      "u": (5.00e-2, 1.00e-2, 5.00e-3, 1.00e-3),
                      "sd": (2.32e-3, 4.80e-4, 2.45e-4, 4.82e-5),
                      "sd_eff": (4.23, 9.43, 13.34, 29.33)},
            "is-t2": {"theta": ((1.01, 1.01), (1.36, 1.36), (1.49, 1.49), (1.77, 1.77)),
                      "u": (5.01e-2, 1.00e-2, 5.00e-3, 1.00e-3),
                      "sd": (3.59e-3, 9.00e-4, 4.80e-4, 1.00e-4),
                      "sd_eff": (2.73, 4.98, 6.66, 13.01)},
            "is-t3": {"theta": (0.40, 0.60, 0.65, 0.73),
                      "u": (5.00e-2, 9.99e-3, 5.01e-3, 1.00e-3),
                      "sd": (5.89e-3, 1.53e-3, 8.68e-4, 2.09e-4),
                      "sd_eff": (1.66, 2.93, 3.68, 6.75)},
        },
    ),
    _case(
        "6", "gaussian rho=-0.5, exponential margins",
        CopulaSpec("gaussian", (_EXP,) * 2, sigma=_corr2(-0.5)),
        (1.078, 1.560, 1.761, 2.218),
        {
            "naive": {"u": (5.01e-2, 0.98e-2, 4.95e-3, 1.03e-3),
                      "sd": (9.73e-3, 4.33e-3, 3.19e-3, 1.42e-3)},
            "is-t1": {"theta": ((3.58, 8.21), (6.25, 24.25), (7.68, 39.17), (12.08, 121.46)),
                      "u": (5.00e-2, 1.00e-2, 5.00e-3, 1.00e-3),
                      "sd": (3.55e-3, 7.48e-4, 3.87e-4, 1.00e-4),
                      "sd_eff": (2.74, 5.79, 8.35, 18.83)},
            "is-t2": {"theta": ((1.44, 1.44), (2.07, 2.07), (2.31, 2.31), (2.81, 2.81)),
                      "u": (5.00e-2, 1.00e-2, 5.02e-3, 1.00e-3),
                      "sd": (4.96e-3, 1.26e-3, 7.00e-4, 1.73e-4),
                      "sd_eff": (1.96, 3.43, 4.55, 8.66)},
            "is-t3": {"theta": (0.20, 0.51, 0.58, 0.68),
                      "u": (5.02e-2, 1.00e-2, 4.98e-3, 9.99e-4),
                      "sd": (7.71e-3, 2.10e-3, 1.16e-3, 3.08e-4),
                      "sd_eff": (1.26, 2.06, 2.75, 4.61)},
        },
    ),
    _case(
        "7", "gaussian 4-d tridiagonal, std-normal margins",
        CopulaSpec("gaussian", (_NORMAL,) * 4, sigma=_tridiag4()),
        (0.394, 0.886, 1.064, 1.428),
        {
            "naive": {"u": (4.98e-2, 1.01e-2, 5.03e-3, 1.00e-3),
                      "sd": (9.62e-3, 4.44e-3, 3.17e-3, 1.40e-3)},
            "is-t2": {"theta": ((0.70, 0.47, 0.47, 0.70), (0.99, 0.62, 0.62, 0.99),
                                (1.11, 0.68, 0.68, 1.11), (1.35, 0.81, 0.81, 1.35)),
                      "u": (5.01e-2, 1.00e-2, 5.01e-3, 1.00e-3),
                      "sd": (4.54e-3, 1.20e-3, 6.57e-4, 1.64e-4),
                      "sd_eff": (2.12, 3.71, 4.83, 8.52)},
        },
    ),
    _case(
        "8", "gaussian 4-d tridiagonal, exponential margins",
        CopulaSpec("gaussian", (_EXP,) * 4, sigma=_tridiag4()),
        (1.059, 1.673, 1.941, 2.569),
        {
            "naive": {"u": (5.02e-2, 1.01e-2, 5.03e-3, 1.00e-3),
                      "sd": (9.91e-3, 4.52e-3, 3.13e-3, 1.40e-3)},
            "is-t2": {"theta": ((0.70, 0.47, 0.47, 0.70), (0.99, 0.62, 0.62, 0.99),
                                (1.11, 0.68, 0.68, 1.11), (1.35, 0.81, 0.81, 1.35)),
                      "u": (5.00e-2, 1.00e-2, 5.00e-3, 1.00e-3),
                      "sd": (4.44e-3, 1.21e-3, 6.69e-4, 1.61e-4),
                      "sd_eff": (2.23, 3.74, 4.68, 8.68)},
        },
    ),
    _case(
        "9", "t nu=5 rho=0, t2 margins",
        CopulaSpec("student-t", (_T2,) * 2, sigma=_corr2(0.0), nu=5.0),
        (1.000, 2.268, 3.066, 6.128),
        {
            "naive": {"u": (5.02e-2, 1.00e-2, 5.00e-3, 1.00e-3),
                      "sd": (9.75e-3, 4.50e-3, 3.11e-3, 1.43e-3)},
            "is-t1": {"theta": ((8.19, 6.83), (25.68, 11.35), (44.15, 12.88), (169.88, 15.22)),
                      "u": (4.99e-2, 1.00e-2, 5.00e-3, 1.00e-3),
                      "sd": (2.45e-3, 4.80e-4, 2.45e-4, 5.11e-5),
                      "sd_eff": (3.98, 9.43, 12.94, 27.93)},
            "is-t2": {"theta": ((1.25, 1.25), (2.09, 2.09), (2.51, 2.51), (3.68, 3.68)),
                      "u": (4.99e-2, 1.00e-2, 5.00e-3, 1.00e-3),
                      "sd": (4.31e-3, 9.85e-4, 5.10e-4, 1.00e-4),
                      "sd_eff": (2.26, 4.57, 6.07, 13.16)},
            "is-t3": {"theta": (0.36, 0.59, 0.65, 0.73),
                      "u": (5.00e-2, 9.99e-3, 4.97e-3, 9.95e-4),
                      "sd": (6.12e-3, 1.53e-3, 8.38e-4, 2.01e-4),
                      "sd_eff": (1.59, 2.94, 3.71, 7.11)},
        },
    ),
    _case(
        "10", "t nu=5 rho=0.5, t2 margins",
        CopulaSpec("student-t", (_T2,) * 2, sigma=_corr2(0.5), nu=5.0),
        (1.592, 3.677, 5.111, 10.938),
        {
            "naive": {"u": (5.01e-2, 1.00e-2, 5.10e-3, 1.00e-3),
                      "sd": (9.77e-3, 4.42e-3, 3.20e-3, 1.44e-3)},
            "is-t1": {"theta": ((15.61, 3.58), (63.35, 4.56), (118.94, 4.82), (537.92, 5.22)),
                      "u": (5.00e-2, 1.00e-2, 5.00e-3, 1.00e-3),
                      "sd": (2.23e-3, 4.69e-4, 2.45e-4, 4.73e-5),
                      "sd_eff": (4.38, 9.41, 13.46, 30.47)},
            "is-t2": {"theta": ((1.15, 1.15), (1.88, 1.88), (2.25, 2.25), (3.27, 3.27)),
                      "u": (5.00e-2, 1.00e-2, 5.00e-3, 1.00e-3),
                      "sd": (3.67e-3, 8.25e-4, 4.36e-4, 1.00e-4),
                      "sd_eff": (2.66, 5.37, 7.42, 15.98)},
            "is-t3": {"theta": (0.42, 0.61, 0.66, 0.73),
                      "u": (5.00e-2, 1.00e-2, 5.00e-3, 1.00e-3),
                      "sd": (5.81e-3, 1.49e-3, 8.30e-4, 1.99e-4),
                      "sd_eff": (1.68, 2.97, 3.86, 7.24)},
        },
    ),
    _case(
        "11", "t nu=5 rho=-0.5, t2 margins",
        CopulaSpec("student-t", (_T2,) * 2, sigma=_corr2(-0.5), nu=5.0),
        (0.502, 1.197, 1.573, 2.842),
        {
            "naive": {"u": (5.01e-2, 0.99e-2, 5.00e-3, 1.00e-3),
                      "sd": (9.68e-3, 4.39e-3, 3.17e-3, 1.41e-3)},
            "is-t1": {"theta": ((3.92, 9.03), (8.61, 27.21), (12.54, 40.87), (35.43, 78.93)),
                      "u": (5.01e-2, 1.00e-2, 5.00e-3, 1.00e-3),
                      "sd": (3.14e-3, 5.48e-4, 2.65e-4, 4.94e-5),
                      "sd_eff": (3.08, 7.97, 12.34, 28.65)},
            "is-t2": {"theta": ((1.48, 1.48), (2.60, 2.60), (3.15, 3.15), (4.68, 4.68)),
                      "u": (5.00e-2, 1.00e-2, 5.00e-3, 1.00e-3),
                      "sd": (5.15e-3, 1.22e-3, 6.48e-4, 1.41e-4),
                      "sd_eff": (1.88, 3.58, 4.88, 10.22)},
            "is-t3": {"theta": (0.24, 0.55, 0.62, 0.72),
                      "u": (4.99e-2, 9.98e-3, 5.00e-3, 1.00e-3),
                      "sd": (7.36e-3, 1.79e-3, 9.58e-4, 2.25e-4),
                      "sd_eff": (1.32, 2.45, 3.31, 6.27)},
        },
    ),
    _case(
        "12", "clayton delta=3, std-normal margins",
        CopulaSpec("clayton", (_NORMAL,) * 2, delta=3.0),
        (1.115, 1.600, 1.780, 2.130),
        {
            "naive": {"u": (5.03e-2, 1.03e-2, 5.10e-3, 1.00e-3),
                      "sd": (9.81e-3, 4.52e-3, 3.18e-3, 1.44e-3)},
            "is-t1": {"theta": ((12.74, 4.03), (29.93, 8.57), (43.33, 11.94), (97.00, 25.36)),
                      "u": (5.04e-2, 1.03e-2, 5.10e-3, 1.00e-3),
                      "sd": (2.45e-3, 5.20e-4, 2.65e-4, 5.46e-5),
                      "sd_eff": (4.00, 8.68, 12.27, 26.33)},
            "is-t2": {"theta": ((0.775, 2.53, 2.53), (0.828, 5.31, 5.31),
                                (0.837, 7.22, 7.22), (0.848, 14.58, 14.58)),
                      "u": (5.04e-2, 1.03e-2, 5.10e-3, 1.00e-3),
                      "sd": (4.78e-3, 1.14e-3, 5.57e-4, 1.41e-4),
                      "sd_eff": (2.05, 3.96, 5.71, 11.67)},
            "is-t3": {"theta": (0.36, 0.57, 0.63, 0.71),
                      "u": (5.05e-2, 1.03e-2, 5.05e-3, 1.05e-3),
                      "sd": (6.26e-3, 1.75e-3, 9.46e-4, 2.47e-4),
                      "sd_eff": (1.57, 2.58, 3.36, 5.83)},
        },
    ),
    _case(
        "3d-vine", "3-d vine, uniform margins",
        vine_preset("3d"),
        (0.9, 0.95, 0.975),
        {
            "naive": {"u": (2.40e-2, 8.73e-3, 3.16e-3),
                      "sd": (6.76e-3, 4.16e-3, 2.51e-3)},
            "is-t1": {"theta": ((20.19, 3.77, 1.09), (41.35, 4.88, 0.51), (91.92, 7.75, 1.02)),
                      "u": (2.42e-2, 8.65e-3, 3.17e-3),
                      "sd": (1.29e-3, 4.95e-4, 1.77e-4),
                      "sd_eff": (5.26, 8.39, 14.19)},
            "is-t3": {"theta": (0.35, 0.47, 0.55),
                      "u": (2.41e-2, 8.63e-3, 3.15e-3),
                      "sd": (3.89e-3, 1.71e-3, 7.45e-4),
                      "sd_eff": (1.74, 2.42, 3.36)},
        },
    ),
    _case(
        "4d-vine", "4-d vine, uniform margins",
        vine_preset("4d"),
        (0.9, 0.95, 0.975),
        {
            "naive": {"u": (2.33e-2, 8.36e-3, 3.04e-3),
                      "sd": (6.74e-3, 4.00e-3, 2.49e-3)},
            "is-t1": {"theta": ((20.53, 4.24, 1.05, 0.13), (46.03, 6.91, 1.41, 0.11),
                                (91.44, 7.55, 1.46, 0.15)),
                      "u": (2.34e-2, 8.40e-3, 3.07e-3),
                      "sd": (1.22e-3, 4.63e-4, 1.73e-4),
                      "sd_eff": (5.52, 8.64, 14.45)},
            "is-t3": {"theta": (0.22, 0.34, 0.43),
                      "u": (2.34e-2, 8.36e-3, 3.08e-3),
                      "sd": (4.57e-3, 2.07e-3, 9.37e-4),
                      "sd_eff": (1.47, 1.94, 2.66)},
        },
    ),
)

_BY_KEY = {c.key: c for c in _CASES}


def benchmark_keys() -> tuple[str, ...]:
    return tuple(_BY_KEY)


def get_case(key) -> BenchmarkCase:
    case = _BY_KEY.get(str(key))
    if case is None:
        raise ConfigError(f"unknown benchmark case {key!r}; choose one of {benchmark_keys()}")
    return case


@dataclass(frozen=True)
class BenchRow:
    """Measured outcome for one (threshold, method) cell of a case."""

    case: str
    method: str
    p: float
    result: EstimateResult
    sd_eff_naive: float | None


def run_case(
    key,
    methods: tuple[str, ...] | None = None,
    n: int = 500,
    M: int = 5000,
    seed: int = 0,
    p_values: tuple[float, ...] | None = None,
) -> list[BenchRow]:
    """Estimate every requested cell of a benchmark case.

    The crude estimator runs first at each threshold, unless ``methods``
    puts it later, so the efficiency ratio of each importance sampler can
    be filled in. Each cell is one :func:`replicate` call that solves its
    tilt fresh (never copied from the reference columns) and reports it as
    ``result.theta``; a solve that does not converge raises
    :class:`SolverError`.
    """
    case = get_case(key)
    model = case.model
    if methods is None:
        methods = ("naive",) + case.methods
    elif "naive" not in methods:
        methods = ("naive",) + tuple(methods)
    for m in methods:
        if m != "naive" and m not in case.methods and m != "is-ld":
            raise ConfigError(f"case {case.key} has no reference column for {m!r}")
    rows: list[BenchRow] = []
    for p in p_values if p_values is not None else case.p:
        event = CornerEvent("upper", (p,) * model.d)
        naive_res = None
        for method in methods:
            res = replicate(ExperimentConfig(model, event, method, n=n, M=M, seed=seed))
            if method == "naive":
                naive_res, eff = res, None
            else:
                eff = sd_eff(naive_res, res) if naive_res is not None and res.sd > 0 else None
            rows.append(BenchRow(case=case.key, method=method, p=p, result=res,
                                 sd_eff_naive=eff))
    return rows


def _fmt_theta(theta) -> str:
    if theta is None:
        return "-"
    vals = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    if vals.size == 1:
        return f"{vals[0]:.2f}"
    return "(" + ", ".join(f"{v:.2f}" for v in vals) + ")"


def _sci(x) -> str:
    return "-" if x is None else f"{x:.2E}"


def _num(x) -> str:
    return "-" if x is None else f"{x:.2f}"


def format_comparison(key, rows: list[BenchRow]) -> str:
    """Reference and measured columns of one case, laid out side by side."""
    case = get_case(key)
    p_vals = sorted({r.p for r in rows})
    cell = {(r.method, r.p): r for r in rows}
    width = 24
    scale = f"(n={rows[0].result.n}, M={rows[0].result.reps})" if rows else ""
    lines = [f"case {case.key}: {case.title}  {scale}"]
    header = "p".ljust(26) + "".join(f"{p:<{width}.3f}" for p in p_vals)
    lines.append(header)
    lines.append("-" * len(header))

    def row(label, values):
        lines.append(label.ljust(26) + "".join(str(v).ljust(width) for v in values))

    def ref_col(method, field, p):
        if p not in case.p:
            return None
        col = case.reference.get(method, {}).get(field)
        return col[case.p.index(p)] if col is not None else None

    for method in [m for m in ("naive",) + case.methods + ("is-ld",)
                   if any((m, p) in cell for p in p_vals)]:
        got = [cell.get((method, p)) for p in p_vals]
        if method != "naive":
            row(f"theta({method}) ref", [_fmt_theta(ref_col(method, "theta", p)) for p in p_vals])
            row(f"theta({method})", [_fmt_theta(r.result.theta if r else None) for r in got])
        row(f"u({method}) ref", [_sci(ref_col(method, "u", p)) for p in p_vals])
        row(f"u({method})", [_sci(r.result.u_hat if r else None) for r in got])
        row(f"sd({method}) ref", [_sci(ref_col(method, "sd", p)) for p in p_vals])
        row(f"sd({method})", [_sci(r.result.sd if r else None) for r in got])
        if method != "naive":
            row(f"sd_eff({method}) ref", [_num(ref_col(method, "sd_eff", p)) for p in p_vals])
            row(f"sd_eff({method})", [_num(r.sd_eff_naive if r else None) for r in got])
        row(f"wnrv({method})", [_sci(r.result.wnrv if r else None) for r in got])
        lines.append("")
    return "\n".join(lines)
