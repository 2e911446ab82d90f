"""The tilt solvers at the paper's depth: corners from 1e-6 to 1e-12.

Each tilt comes from ``solve_event_theta`` (the closed form for a bivariate
Gaussian under is-t2, otherwise cross-entropy pre-tilt, pilot and Newton),
and each estimate at n=500, M=200 must lie within 4 standard errors of a
deterministic reference.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri, stdtr

from tailtilt.copulas import CopulaSpec, CornerEvent, vine_preset
from tailtilt.errors import DegeneratePilotError
from tailtilt.estimators import ExperimentConfig, replicate, solve_event_theta
from tailtilt.oracle import (clayton_corner_prob, rect_prob_gaussian, rect_prob_t,
                             vine_corner_prob)
from tailtilt.randkit import MarginSpec

UNIF = MarginSpec("uniform01")
NORMAL = MarginSpec("std-normal")
SEED = 41


def z_at(model, event, method, ref):
    """(u_hat − ref)/se of a solved run, and the solution."""
    cfg = ExperimentConfig(model, event, method, n=500, M=200, seed=SEED)
    sol = solve_event_theta(cfg)
    assert sol.converged and sol.pre_levels[-1] == 0.0
    r = replicate(ExperimentConfig(model, event, method, n=500, M=200, seed=SEED,
                                   theta=tuple(np.atleast_1d(sol.theta_o))))
    return (r.u_hat - ref) / r.se, sol


@pytest.mark.parametrize("u", [1e-8, 1e-12])
@pytest.mark.parametrize("method", ["is-t1", "is-t3"])
@pytest.mark.parametrize("direction", ["upper", "lower"])
def test_independent_gaussian_corner(u, method, direction):
    a = float(-ndtri(np.sqrt(u)))
    ref = float(ndtr(-a)) ** 2
    model = CopulaSpec("gaussian", (NORMAL, NORMAL), sigma=np.eye(2))
    event = CornerEvent(direction, (a, a) if direction == "upper" else (-a, -a))
    z, sol = z_at(model, event, method, ref)
    assert abs(z) <= 4.0
    # the levels climb: at least one below the event before it is reached
    assert len(sol.pre_levels) >= 2


@pytest.mark.parametrize("u", [1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("rho", [0.0, 0.5])
def test_gaussian_closed_form_corner(u, rho):
    # the default solver for a bivariate Gaussian is-t2 corner is the closed
    # form; its tilt must match the pilot solver's and estimate the corner
    sigma = np.array([[1.0, rho], [rho, 1.0]])
    a = brentq(lambda x: np.log(rect_prob_gaussian(sigma, [x, x]) / u), 0.0, 12.0)
    model = CopulaSpec("gaussian", (NORMAL, NORMAL), sigma=sigma)
    cfg = ExperimentConfig(model, CornerEvent("upper", (a, a)), "is-t2", n=500, M=200,
                           seed=SEED)
    sol = solve_event_theta(cfg)
    assert sol.method == "tallis-newton" and sol.converged
    saa = solve_event_theta(cfg, solver="saa")
    np.testing.assert_allclose(sol.theta_o, saa.theta_o, rtol=0.02)
    r = replicate(replace(cfg, theta=tuple(sol.theta_o)))
    assert abs(r.u_hat - u) <= 4.0 * r.se


@pytest.mark.parametrize("u", [1e-8, 1e-12])
def test_clayton_corner(u):
    v = brentq(lambda v: clayton_corner_prob(3.0, v) - u, 0.5, 1.0 - 1e-15, xtol=1e-17)
    model = CopulaSpec("clayton", (UNIF, UNIF), delta=3.0)
    z, _ = z_at(model, CornerEvent("upper", (v, v)), "is-t2", clayton_corner_prob(3.0, v))
    assert abs(z) <= 4.0


@pytest.mark.parametrize("u", [1e-8, 1e-12])
def test_t_copula_corner(u):
    sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
    c = brentq(lambda x: rect_prob_t(5.0, sigma, np.array([x, x])) - u, 1.0, 1e4)
    v = float(stdtr(5.0, c))
    model = CopulaSpec("student-t", (UNIF, UNIF), sigma=sigma, nu=5.0)
    ref = rect_prob_t(5.0, sigma, np.array([c, c]))
    z, _ = z_at(model, CornerEvent("upper", (v, v)), "is-t2", ref)
    assert abs(z) <= 4.0


def test_three_dim_vine_corner():
    rv = vine_preset("3d")
    for p in (0.9999, 0.99999):  # about 1.5e-6 and 6.4e-8
        z, _ = z_at(rv, CornerEvent("upper", (p,) * 3), "is-t1", vine_corner_prob(rv, p))
        assert abs(z) <= 4.0, p


def test_hazard_twist_stalls_on_the_deep_four_dim_vine():
    # one scalar twist cannot climb to this corner; the levels must stop, and
    # say where
    cfg = ExperimentConfig(vine_preset("4d"), CornerEvent("upper", (0.999,) * 4), "is-t3",
                           n=500, M=10, seed=0)
    t0 = time.perf_counter()
    with pytest.raises(DegeneratePilotError, match="level"):
        solve_event_theta(cfg)
    assert time.perf_counter() - t0 < 5.0
