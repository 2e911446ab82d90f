"""Estimation methods, replication engine, efficiency metrics."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, stdtr

from tailtilt import estimators
from tailtilt.copulas import (
    CopulaSpec,
    CornerEvent,
    RVineSpec,
    event_uniform_thresholds,
    rosenblatt_inverse,
    sample_copula_uniforms,
    sample_vine_uniforms,
    vine_preset,
    vine_rosenblatt_forward,
    vine_rosenblatt_inverse,
)
from tailtilt.errors import ConfigError, DomainError, ParameterError, ShapeError, SolverError
from tailtilt.estimators import (
    EstimateResult,
    ExperimentConfig,
    replicate,
    sd_eff,
    solve_event_theta,
    wnrv,
)
from tailtilt.estimators import _chain_hits, _plan_for, _row_min
from tailtilt.oracle import clayton_corner_prob, rect_prob_t
from tailtilt.randkit import MarginSpec, make_stream
from tailtilt.tilting import sample_tilted
from test_vines import gaussian_vine

NORMAL = MarginSpec("std-normal")
T2_MARGIN = MarginSpec("student-t", df=2.0)


def corr(rho: float, d: int = 2) -> np.ndarray:
    s = np.full((d, d), rho)
    np.fill_diagonal(s, 1.0)
    return s


def gauss_model(rho: float = 0.0) -> CopulaSpec:
    return CopulaSpec("gaussian", (NORMAL, NORMAL), sigma=corr(rho))


def upper(p: float, d: int = 2) -> CornerEvent:
    return CornerEvent("upper", (p,) * d)


T_MODEL = CopulaSpec("student-t", (T2_MARGIN, T2_MARGIN), sigma=corr(0.0), nu=5.0)
CLAYTON_MODEL = CopulaSpec("clayton", (NORMAL, NORMAL), delta=3.0)


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(gauss_model(), upper(1.0), "is-t9")
    with pytest.raises(ConfigError):
        ExperimentConfig(gauss_model(), upper(1.0), "naive", n=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(gauss_model(), upper(1.0), "naive", M=0)
    for bad in ({"n": 100.5}, {"M": 20.0}, {"n": True}, {"M": True},
                {"seed": 1.5}, {"seed": "a"}, {"seed": True}, {"seed": -1},
                {"seed": 2**64}, {"seed": np.int64(-1)}):
        with pytest.raises(ConfigError):
            ExperimentConfig(gauss_model(), upper(1.0), "naive", **bad)
    for bad in ("abc", {"a": 1.0}, [[1.0], [1.0, 2.0]]):
        with pytest.raises(ConfigError):
            ExperimentConfig(gauss_model(), upper(1.0), "is-t2", theta=bad)
    for theta in ((1.0, 1.0), 0.0):
        with pytest.raises(ConfigError, match="no tilt"):
            ExperimentConfig(gauss_model(), upper(1.0), "naive", theta=theta)
    for model, event in (("gauss", upper(1.0)), (None, upper(1.0)),
                         (gauss_model(), (1.0, 1.0)), (gauss_model(), None)):
        with pytest.raises(ConfigError):
            ExperimentConfig(model, event, "naive")
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError):
            CornerEvent("upper", (bad, bad))
    for ev in (upper(1.0, d=3), upper(1.0, d=1)):
        with pytest.raises(ShapeError):
            replicate(ExperimentConfig(gauss_model(), ev, "naive", n=10, M=2))


# ---------------------------------------------------------------------------
# crude estimation


def test_crude_gaussian_corner():
    cfg = ExperimentConfig(gauss_model(), upper(1.282), "naive", n=500, M=2000, seed=501)
    r = replicate(cfg)
    truth = float(ndtr(-1.282)) ** 2
    assert abs(r.u_hat - truth) < 3.0 * r.sd / np.sqrt(r.reps)
    assert abs(r.sd / 4.44e-3 - 1.0) < 0.25
    assert r.method == "naive" and r.n == 500 and r.reps == 2000


def test_crude_whole_space():
    cfg = ExperimentConfig(gauss_model(), upper(-37.0), "naive", n=200, M=50, seed=502)
    r = replicate(cfg)
    assert r.u_hat == 1.0
    assert r.sd == 0.0


def test_crude_clayton_corner():
    cfg = ExperimentConfig(CLAYTON_MODEL, upper(2.130), "naive", n=500, M=2000, seed=503)
    r = replicate(cfg)
    truth = clayton_corner_prob(3.0, float(ndtr(2.130)))
    assert abs(r.u_hat - truth) < 3.0 * r.sd / np.sqrt(r.reps)


# ---------------------------------------------------------------------------
# importance sampling


def test_is_t1_deep_gaussian_corner():
    cfg = ExperimentConfig(gauss_model(), upper(1.857), "is-t1", n=500, M=1000,
                           seed=504, theta=(50.34, 50.34))
    r = replicate(cfg)
    truth = float(ndtr(-1.857)) ** 2
    assert abs(r.u_hat - truth) < 3.0 * r.sd / np.sqrt(r.reps)
    assert 0.5 < r.sd / 5.20e-5 < 2.0


def test_is_t2_t_copula_corner():
    cfg = ExperimentConfig(T_MODEL, upper(6.128), "is-t2", n=500, M=1000,
                           seed=505, theta=(3.68, 3.68))
    r = replicate(cfg)
    a = 3.1419202680056277
    truth = rect_prob_t(5.0, corr(0.0), np.array([a, a]))
    assert abs(r.u_hat - truth) < 3.0 * r.sd / np.sqrt(r.reps)
    assert 0.5 < r.sd / 1.00e-4 < 2.0


def test_is_theta_outside_domain():
    cfg = ExperimentConfig(T_MODEL, upper(6.128), "is-t2", theta=(20.0, 20.0))
    with pytest.raises(DomainError):
        replicate(cfg)


def _crude(draw, model, event: CornerEvent, M: int, seed: int) -> tuple[float, float]:
    """(u_hat, sd) of the crude estimate whose replication r tests every row
    of ``draw(make_stream(seed, r))``."""
    u0 = event_uniform_thresholds(model, event)
    est = np.empty(M)
    for r in range(M):
        u = draw(make_stream(seed, r))
        est[r] = np.mean(np.all(u < u0, axis=1) if event.direction == "lower"
                         else np.all(u > u0, axis=1))
    return float(est.mean()), float(est.std(ddof=1))


def crude_chain(model, event: CornerEvent, n: int, M: int, seed: int) -> tuple[float, float]:
    """(u_hat, sd) of the crude estimate on the conditional-inverse chain,
    every row of replication r mapped from ``make_stream(seed, r)``."""
    if isinstance(model, RVineSpec):
        return _crude(lambda s: sample_vine_uniforms(s, model, n), model, event, M, seed)
    return _crude(lambda s: sample_copula_uniforms(model, s, n, "cim"), model, event, M, seed)


def crude_latent(model, event: CornerEvent, n: int, M: int, seed: int) -> tuple[float, float]:
    """(u_hat, sd) of the crude estimate through the latent construction."""
    return _crude(lambda s: sample_copula_uniforms(model, s, n, "direct"),
                  model, event, M, seed)


def test_zero_tilt_matches_crude_bitwise():
    model = gauss_model()
    ev = upper(1.282)
    direct = crude_latent(model, ev, n=500, M=100, seed=7)
    cim = crude_chain(model, ev, n=500, M=100, seed=7)
    t2 = replicate(ExperimentConfig(model, ev, "is-t2", n=500, M=100, seed=7, theta=(0.0, 0.0)))
    t1 = replicate(ExperimentConfig(model, ev, "is-t1", n=500, M=100, seed=7, theta=(0.0, 0.0)))
    t3 = replicate(ExperimentConfig(model, ev, "is-t3", n=500, M=100, seed=7, theta=(0.0,)))
    assert (t2.u_hat, t2.sd) == direct
    assert (t1.u_hat, t1.sd) == cim
    assert (t3.u_hat, t3.sd) == cim


def test_zero_tilt_matches_crude_t_and_clayton():
    # is-t2 at the zero tilt draws the latent construction, stream by stream
    tev = upper(2.0)
    tz = replicate(ExperimentConfig(T_MODEL, tev, "is-t2", n=400, M=50, seed=8, theta=(0.0, 0.0)))
    assert tz.u_hat > 0.0
    assert (tz.u_hat, tz.sd) == crude_latent(T_MODEL, tev, n=400, M=50, seed=8)
    cev = upper(1.115)
    cz = replicate(ExperimentConfig(CLAYTON_MODEL, cev, "is-t2", n=400, M=50, seed=8,
                                    theta=(0.0, 0.0, 0.0)))
    assert cz.u_hat > 0.0
    assert (cz.u_hat, cz.sd) == crude_latent(CLAYTON_MODEL, cev, n=400, M=50, seed=8)


def test_replicate_refuses_a_tilt_whose_cumulant_overflows():
    # each coordinate's cumulant is finite at 1e308, their sum is not
    cfg = ExperimentConfig(gauss_model(), upper(1.282), "is-t1", n=10, M=2,
                           theta=(1e308, 1e308))
    with pytest.raises(DomainError, match="not finite"):
        replicate(cfg)


def test_hazard_twist_estimate():
    cfg = ExperimentConfig(gauss_model(), upper(1.857), "is-t3", n=500, M=1000,
                           seed=506, theta=0.71)
    r = replicate(cfg)
    truth = float(ndtr(-1.857)) ** 2
    assert abs(r.u_hat - truth) < 3.0 * r.sd / np.sqrt(r.reps)
    assert 0.5 < r.sd / 2.43e-4 < 2.0


def test_hazard_twist_clayton():
    cfg = ExperimentConfig(CLAYTON_MODEL, upper(2.130), "is-t3", n=500, M=1000,
                           seed=507, theta=0.71)
    r = replicate(cfg)
    truth = clayton_corner_prob(3.0, float(ndtr(2.130)))
    assert abs(r.u_hat - truth) < 3.0 * r.sd / np.sqrt(r.reps)


def test_hazard_twist_domain():
    base = ExperimentConfig(gauss_model(), upper(1.857), "is-t3", n=100, M=10, seed=1)
    for bad in (1.0, -0.2, 1.3):
        with pytest.raises(DomainError):
            replicate(ExperimentConfig(gauss_model(), upper(1.857), "is-t3",
                                       n=100, M=10, seed=1, theta=bad))
    # the unified entry keeps zero as the crude-degenerate case
    r = replicate(ExperimentConfig(gauss_model(), upper(1.857), "is-t3",
                                   n=100, M=10, seed=1, theta=(0.0,)))
    assert r.method == "is-t3"
    with pytest.raises(DomainError):
        replicate(ExperimentConfig(gauss_model(), upper(1.857), "is-t3",
                                   n=100, M=10, seed=1, theta=(-0.2,)))
    assert base.theta is None


def test_hazard_twist_of_the_wrong_shape_is_a_shape_error():
    for bad in ([], [0.3, 0.3]):
        with pytest.raises(ShapeError):
            replicate(ExperimentConfig(gauss_model(), upper(1.857), "is-t3",
                                       n=100, M=10, seed=1, theta=bad))


def test_solved_run_cannot_reach_the_solver_stream():
    limit = estimators.SOLVER_STREAM
    with pytest.raises(ConfigError, match=f"{limit}.*M={limit + 1}"):
        ExperimentConfig(gauss_model(), upper(1.0), "is-t2", M=limit + 1)
    # a solved run may use every stream below the solver's; a given tilt and
    # the crude estimator never read it
    ExperimentConfig(gauss_model(), upper(1.0), "is-t2", M=limit)
    ExperimentConfig(gauss_model(), upper(1.0), "is-t2", M=limit + 1, theta=(1.0, 1.0))
    ExperimentConfig(gauss_model(), upper(1.0), "naive", M=limit + 1)


# ---------------------------------------------------------------------------
# lower corners


def test_lower_corner_estimates():
    model = gauss_model()
    ev = CornerEvent("lower", (-1.282, -1.282))
    truth = float(ndtr(-1.282)) ** 2
    sol = solve_event_theta(ExperimentConfig(model, ev, "is-t2", seed=510))
    assert sol.reflected
    r2 = replicate(ExperimentConfig(model, ev, "is-t2", n=500, M=500, seed=510,
                                    theta=sol.theta_o))
    assert abs(r2.u_hat - truth) < 3.0 * r2.sd / np.sqrt(r2.reps)
    # the trunc-exp tilt handles the lower corner with a negative tilt
    sol1 = solve_event_theta(ExperimentConfig(model, ev, "is-t1", seed=510))
    assert np.all(sol1.theta_o < 0.0) and not sol1.reflected
    r1 = replicate(ExperimentConfig(model, ev, "is-t1", n=500, M=500, seed=510,
                                    theta=sol1.theta_o))
    assert abs(r1.u_hat - truth) < 3.0 * r1.sd / np.sqrt(r1.reps)
    assert r1.sd < r2.sd < 2.5e-3


def test_lower_corner_hazard_reflects():
    model = gauss_model()
    ev = CornerEvent("lower", (-1.857, -1.857))
    sol = solve_event_theta(ExperimentConfig(model, ev, "is-t3", seed=511))
    assert sol.reflected
    r = replicate(ExperimentConfig(model, ev, "is-t3", n=500, M=500, seed=511,
                                   theta=sol.theta_o))
    truth = float(ndtr(-1.857)) ** 2
    assert abs(r.u_hat - truth) < 3.0 * r.sd / np.sqrt(r.reps)


def test_lower_corner_frailty_rejected():
    ev = CornerEvent("lower", (-1.0, -1.0))
    with pytest.raises(ConfigError):
        solve_event_theta(ExperimentConfig(CLAYTON_MODEL, ev, "is-t2"))


# ---------------------------------------------------------------------------
# tilt solving dispatch


def test_solver_dispatch():
    model = gauss_model()
    cfg = ExperimentConfig(model, upper(1.282), "is-t2", seed=512)
    det = solve_event_theta(cfg)
    assert det.method == "tallis-newton"
    assert np.all(np.abs(det.theta_o - 1.58) < 0.05)
    saa = solve_event_theta(cfg, solver="saa")
    assert saa.method == "saa"
    assert np.all(np.abs(saa.theta_o / det.theta_o - 1.0) < 0.05)
    with pytest.raises(ConfigError):
        solve_event_theta(ExperimentConfig(model, upper(1.282), "naive"))
    for bad in (cfg, ExperimentConfig(model, upper(1.857), "is-t3"),
                ExperimentConfig(T_MODEL, upper(6.128), "is-ld")):
        with pytest.raises(ConfigError):
            solve_event_theta(bad, solver="simplex")
    with pytest.raises(ConfigError):
        solve_event_theta(ExperimentConfig(model, upper(1.857), "is-t3"), solver="tallis")
    with pytest.raises(ConfigError):
        solve_event_theta(ExperimentConfig(T_MODEL, upper(6.128), "is-ld"), solver="saa")
    with pytest.raises(ConfigError):
        solve_event_theta(ExperimentConfig(T_MODEL, upper(6.128), "is-t2"), solver="tallis")


def test_tallis_converges_on_case_2_deepest_corner():
    sol = solve_event_theta(ExperimentConfig(gauss_model(0.5), upper(2.395), "is-t2"))
    assert sol.method == "tallis-newton"
    assert sol.converged


def test_large_deviation_dispatch():
    cfg = ExperimentConfig(T_MODEL, upper(6.128), "is-ld", seed=513)
    sol = solve_event_theta(cfg)
    assert sol.method == "large-deviation"
    a = 3.1419202680056277
    assert np.allclose(sol.theta_o, [a, a], atol=1e-12)
    with pytest.raises(ConfigError):
        solve_event_theta(ExperimentConfig(gauss_model(), upper(1.0), "is-ld"))
    r = replicate(ExperimentConfig(T_MODEL, upper(6.128), "is-ld", n=500, M=500,
                                   seed=513, theta=sol.theta_o))
    truth = rect_prob_t(5.0, corr(0.0), np.array([a, a]))
    assert abs(r.u_hat - truth) < 3.0 * r.sd / np.sqrt(r.reps)


def test_vine_family_tilt_rejected():
    rv = vine_preset("3d")
    ev = CornerEvent("upper", (0.95, 0.95, 0.95))
    with pytest.raises(ConfigError):
        solve_event_theta(ExperimentConfig(rv, ev, "is-t2"))


# ---------------------------------------------------------------------------
# replication engine


def test_replicate_thread_determinism():
    cfg = ExperimentConfig(gauss_model(), upper(1.282), "is-t2", n=500, M=200,
                           seed=9, theta=(1.58, 1.58))
    a = replicate(cfg, threads=1)
    b = replicate(cfg, threads=8)
    assert a.u_hat == b.u_hat
    assert a.sd == b.sd
    assert a.solve_seconds == 0.0


def test_replicate_refuses_a_thread_count_that_is_not_a_positive_integer():
    cfg = ExperimentConfig(gauss_model(), upper(1.282), "naive", n=10, M=2)
    for bad in (0, -1, 1.5, 2.0, "2", True, None):
        with pytest.raises(ParameterError, match="thread count"):
            replicate(cfg, threads=bad)
    assert replicate(cfg, threads=np.int64(2)).reps == 2


def test_replicate_single_run_flagged():
    cfg = ExperimentConfig(gauss_model(), upper(1.282), "naive", n=2000, M=1, seed=10)
    r = replicate(cfg)
    assert r.sd_within_run
    assert r.sd > 0.0
    assert r.reps == 1
    assert r.se == r.sd
    assert r.theta is None and r.solve_seconds == 0.0


def test_replicate_correlated_gaussian_example():
    model = gauss_model(0.5)
    cfg = ExperimentConfig(model, upper(2.395), "is-t2", n=500, M=1000, seed=514)
    sol = solve_event_theta(cfg)
    assert np.all(np.abs(sol.theta_o / 1.77 - 1.0) < 0.1)
    r = replicate(ExperimentConfig(model, upper(2.395), "is-t2", n=500, M=1000,
                                   seed=514, theta=sol.theta_o))
    from tailtilt.oracle import rect_prob_gaussian
    truth = rect_prob_gaussian(corr(0.5), np.array([2.395, 2.395]))
    assert abs(r.u_hat - truth) < 3.0 * r.sd / np.sqrt(r.reps)
    assert 0.5 < r.sd / 1.00e-4 < 2.0


def test_replicate_solves_when_theta_missing():
    cfg = ExperimentConfig(gauss_model(), upper(1.282), "is-t2", n=500, M=300, seed=515)
    r = replicate(cfg)
    truth = float(ndtr(-1.282)) ** 2
    assert r.se == r.sd / np.sqrt(r.reps)
    assert abs(r.u_hat - truth) < 4.0 * r.se
    assert r.solve_seconds > 0.0


def test_replicate_refuses_an_unconverged_solve(monkeypatch):
    real = estimators.solve_event_theta
    drawn = []
    monkeypatch.setattr(estimators, "solve_event_theta",
                        lambda cfg, **kw: replace(real(cfg, **kw), converged=False))
    monkeypatch.setattr(estimators, "make_stream",
                        lambda *a: drawn.append(a) or make_stream(*a))
    cfg = ExperimentConfig(gauss_model(), upper(1.282), "is-t2", n=100, M=4, seed=516)
    with pytest.raises(SolverError, match="did not converge") as exc:
        replicate(cfg)
    assert "converged: False" in str(exc.value)  # the solver's report
    assert drawn == []  # nothing was sampled
    # a given tilt runs no solve, so nothing is refused
    assert replicate(replace(cfg, theta=(1.58, 1.58))).theta == (1.58, 1.58)


REPORTED_TILT_CASES = {
    "is-t1": (gauss_model(), upper(1.282), "is-t1"),
    "is-t2-closed-form": (gauss_model(0.5), upper(1.282), "is-t2"),
    "is-t2-t": (T_MODEL, upper(6.128), "is-t2"),
    "is-t3": (gauss_model(), upper(1.857), "is-t3"),
    "is-ld": (T_MODEL, upper(6.128), "is-ld"),
}


@pytest.mark.parametrize("name", list(REPORTED_TILT_CASES))
def test_replicate_reports_the_tilt_it_sampled_at(name):
    model, ev, method = REPORTED_TILT_CASES[name]
    cfg = ExperimentConfig(model, ev, method, n=200, M=20, seed=517)
    solved = replicate(cfg)
    sol = solve_event_theta(cfg)
    assert sol.converged
    assert solved.theta == tuple(np.atleast_1d(sol.theta_o).tolist())  # bit for bit
    assert solved.solve_seconds > 0.0
    given = replicate(replace(cfg, theta=solved.theta))
    assert given.theta == solved.theta and given.solve_seconds == 0.0
    assert (given.u_hat, given.sd) == (solved.u_hat, solved.sd)


def test_vine_estimates_agree():
    rv = vine_preset("3d")
    ev = CornerEvent("upper", (0.95, 0.95, 0.95))
    naive = replicate(ExperimentConfig(rv, ev, "naive", n=500, M=400, seed=516))
    t1 = replicate(ExperimentConfig(rv, ev, "is-t1", n=500, M=400, seed=516))
    gap = abs(naive.u_hat - t1.u_hat)
    joint = np.hypot(naive.sd, t1.sd) / np.sqrt(400)
    assert gap < 3.0 * joint
    assert t1.sd < naive.sd / 4.0


# (model, upper corner, lower corner, {method: tilt}) for the block tests; the
# tilts are fixed so that no solve runs
VINE_3D, VINE_4D = vine_preset("3d"), vine_preset("4d")
BLOCK_CASES = {
    "gaussian": (gauss_model(0.5), upper(1.5), CornerEvent("lower", (-1.5, -1.5)),
                 {"naive": None, "is-t1": (2.0, 2.0), "is-t2": (1.5, 1.5), "is-t3": 0.5}),
    "student-t": (T_MODEL, upper(2.0), CornerEvent("lower", (-2.0, -2.0)),
                  {"naive": None, "is-t1": (2.0, 2.0), "is-t2": (0.3, 0.3),
                   "is-t3": 0.5, "is-ld": (0.3, 0.3)}),
    "clayton": (CLAYTON_MODEL, upper(1.2), CornerEvent("lower", (-1.2, -1.2)),
                {"naive": None, "is-t1": (2.0, 2.0), "is-t2": (0.5, 2.0, 2.0), "is-t3": 0.5}),
    "vine-3d": (VINE_3D, upper(0.975, 3), CornerEvent("lower", (0.05,) * 3),
                {"naive": None, "is-t1": (3.0,) * 3, "is-t3": 0.6}),
    "vine-4d": (VINE_4D, upper(0.975, 4), CornerEvent("lower", (0.05,) * 4),
                {"naive": None, "is-t1": (3.0,) * 4, "is-t3": 0.6}),
}


def _bits(r: EstimateResult) -> tuple:
    return r.u_hat, r.sd, r.sd_within_run


@pytest.mark.parametrize("lower", [False, True], ids=["upper", "lower"])
@pytest.mark.parametrize("name", list(BLOCK_CASES))
def test_blocks_of_any_size_give_the_same_bits(monkeypatch, name, lower):
    model, up, low, tilts = BLOCK_CASES[name]
    ev = low if lower else up
    n = 500
    B = estimators._BLOCK_ROWS // n
    assert B > 2
    for method, theta in tilts.items():
        if lower and name == "clayton" and method == "is-t2":
            continue  # the frailty tilt covers upper corners only
        if lower and method == "is-t1":
            theta = tuple(-t for t in theta)  # the trunc-exp tilt leans towards zero
        for M in (1, B // 2, B + 1):
            cfg = ExperimentConfig(model, ev, method, n=n, M=M, seed=41, theta=theta)
            blocks = replicate(cfg)
            pooled = replicate(cfg, threads=2)
            with monkeypatch.context() as mp:
                mp.setattr(estimators, "_BLOCK_ROWS", n)  # one stream per block
                single = replicate(cfg)
            assert _bits(blocks) == _bits(single) == _bits(pooled), (method, M)
            assert blocks.sd_within_run == (M == 1)


@pytest.mark.parametrize("lower", [False, True], ids=["upper", "lower"])
@pytest.mark.parametrize("name", ["vine-3d", "vine-4d", "gaussian-cim", "student-t",
                                  "clayton"])
def test_crude_chain_routes_match_the_full_map(name, lower):
    """The crude replications, and is-t1 at zero tilt on the Gaussian's cim
    chain, test each stream's words without mapping most rows; a reference
    that maps every row gives the same bits."""
    if name == "gaussian-cim":
        model, method, theta = gauss_model(0.5), "is-t1", (0.0, 0.0)
        ev = CornerEvent("lower", (-1.96, -1.96)) if lower else upper(1.96)
    elif name in ("student-t", "clayton"):
        model, up, low, _ = BLOCK_CASES[name]
        method, theta, ev = "naive", None, low if lower else up
    else:
        model, method, theta = VINE_3D if name == "vine-3d" else VINE_4D, "naive", None
        ev = CornerEvent("lower" if lower else "upper", (0.025 if lower else 0.975,) * model.d)
    n, M, seed = 500, 20, 43
    want = crude_chain(model, ev, n, M, seed)
    got = replicate(ExperimentConfig(model, ev, method, n=n, M=M, seed=seed, theta=theta))
    assert want[0] > 0.0
    assert (got.u_hat, got.sd) == want


# the t copula takes numpy's t kernel at nu = 5 (BLOCK_CASES) and scipy's at 2.5
ZERO_TILT_CASES = {**BLOCK_CASES,
                   "student-t-nu2.5": (replace(T_MODEL, nu=2.5),) + BLOCK_CASES["student-t"][1:]}


@pytest.mark.parametrize("lower", [False, True], ids=["upper", "lower"])
@pytest.mark.parametrize("name", list(ZERO_TILT_CASES))
def test_crude_is_t1_at_the_zero_tilt(name, lower):
    model, up, low, _ = ZERO_TILT_CASES[name]
    ev = low if lower else up
    d = model.d
    cfg = ExperimentConfig(model, ev, "naive", n=300, M=12, seed=45)
    crude = replicate(cfg)
    t1 = replicate(replace(cfg, method="is-t1", theta=(0.0,) * d))
    assert crude.u_hat > 0.0
    assert (t1.u_hat, t1.sd) == (crude.u_hat, crude.sd)
    assert crude.theta is None and t1.theta == (0.0,) * d
    if not lower:  # the hazard twist meets a lower corner through reflected uniforms
        t3 = replicate(replace(cfg, method="is-t3", theta=(0.0,)))
        assert (t3.u_hat, t3.sd) == (crude.u_hat, crude.sd)


# ---------------------------------------------------------------------------
# efficiency metrics


def make_result(sd: float, seconds: float, u: float = 1e-3, reps: int = 100) -> EstimateResult:
    return EstimateResult(u_hat=u, sd=sd, n=500, reps=reps, seconds=seconds,
                          wnrv=None, method="naive")


def test_sd_eff_basics():
    a = make_result(4e-3, 1.0)
    assert sd_eff(a, a) == 1.0
    b = make_result(1e-3, 1.0)
    assert sd_eff(a, b) * sd_eff(b, a) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ParameterError):
        sd_eff(a, make_result(0.0, 1.0))


def test_sd_eff_deep_corner():
    naive = replicate(ExperimentConfig(gauss_model(), upper(1.857), "naive",
                                       n=500, M=2000, seed=517))
    t1 = replicate(ExperimentConfig(gauss_model(), upper(1.857), "is-t1",
                                    n=500, M=2000, seed=517, theta=(50.34, 50.34)))
    assert abs(sd_eff(naive, t1) / 27.13 - 1.0) < 0.4


def test_wnrv_formula():
    r = make_result(0.0, 5.0)
    assert wnrv(r, 1e-3) == 0.0
    a = make_result(2e-3, 1.0)
    b = make_result(2e-3, 2.0)
    assert wnrv(b, 1e-3) == pytest.approx(2.0 * wnrv(a, 1e-3), rel=1e-12)
    with pytest.raises(ParameterError):
        wnrv(a, 0.0)
    assert wnrv(a, 1e-3) == pytest.approx((4e-6 / 1e-6) * (1.0 / 100), rel=1e-12)


def test_wnrv_field_and_ordering():
    naive = replicate(ExperimentConfig(gauss_model(), upper(1.857), "naive",
                                       n=500, M=1000, seed=518))
    t1 = replicate(ExperimentConfig(gauss_model(), upper(1.857), "is-t1",
                                    n=500, M=1000, seed=518, theta=(50.34, 50.34)))
    assert naive.wnrv == pytest.approx(wnrv(naive, naive.u_hat), rel=1e-12)
    truth = float(ndtr(-1.857)) ** 2
    assert wnrv(t1, truth) < wnrv(naive, truth)


def test_variance_ordering_shallow_corner():
    model, ev = gauss_model(), upper(1.282)
    naive = replicate(ExperimentConfig(model, ev, "naive", n=500, M=1000, seed=519))
    t1 = replicate(ExperimentConfig(model, ev, "is-t1", n=500, M=1000, seed=519,
                                    theta=(15.95, 15.95)))
    t2 = replicate(ExperimentConfig(model, ev, "is-t2", n=500, M=1000, seed=519,
                                    theta=(1.58, 1.58)))
    t3 = replicate(ExperimentConfig(model, ev, "is-t3", n=500, M=1000, seed=519,
                                    theta=(0.57,)))
    assert t1.sd < t2.sd < t3.sd < naive.sd


UNIF = MarginSpec("uniform01")
CHAIN_MODELS = {
    "gaussian0.5": CopulaSpec("gaussian", (UNIF,) * 3, sigma=corr(0.5, 3)),
    "gaussian0": CopulaSpec("gaussian", (UNIF,) * 2, sigma=corr(0.0)),
    "gaussian-0.5": CopulaSpec("gaussian", (UNIF,) * 2, sigma=corr(-0.5)),
    "t0.5": CopulaSpec("student-t", (UNIF,) * 2, sigma=corr(0.5), nu=0.5),
    "t1": CopulaSpec("student-t", (UNIF,) * 2, sigma=corr(0.5), nu=1.0),
    "t4": CopulaSpec("student-t", (UNIF,) * 2, sigma=corr(0.5), nu=4.0),
    "t5": CopulaSpec("student-t", (UNIF,) * 3, sigma=corr(0.3, 3), nu=5.0),
    "clayton": CopulaSpec("clayton", (UNIF,) * 3, delta=3.0),
    "vine3": vine_preset("3d"),
    "vine4": vine_preset("4d"),
    "dvine5": gaussian_vine(5, 0.5, "d"),
}


def inverse_map(model, v):
    """The model's inverse Rosenblatt map on every row of v."""
    if isinstance(model, RVineSpec):
        return vine_rosenblatt_inverse(model, v)
    return rosenblatt_inverse(model, v)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300),
       near=st.integers(0, 40), lower=st.booleans(),
       first=st.one_of(st.floats(0.02, 0.98), st.floats(-1e-8, 1e-8).map(lambda x: 0.5 + x)),
       rest=st.lists(st.floats(0.02, 0.98), min_size=4, max_size=4))
def test_chain_hits_match_the_full_map_property(seed, n, near, lower, first, rest):
    direction = "lower" if lower else "upper"
    rng = np.random.default_rng(seed)
    k = min(near, n)
    for name, model in CHAIN_MODELS.items():
        th = np.array([first, *rest][:model.d])
        v = rng.uniform(size=(n, model.d))
        # rows whose first uniform sits within 1e-7 of the threshold, half of
        # them within 1e-15, where a round trip off by an ulp decides; near
        # 0.5 the t round trip at nu = 1 and 4 is off by up to 1.1e-8
        gap = 10.0 ** rng.uniform(-16.0, -7.0, k)
        gap[: k // 2] = rng.uniform(-1e-15, 1e-15, k // 2)
        v[:k, 0] = th[0] + gap * rng.choice([-1.0, 1.0], k)
        if isinstance(model, RVineSpec):
            # the vine maps column j + 1 only on the rows inside the corner on
            # columns 1..j: put rows within 1e-15 of the threshold on each
            # column, and inside the corner on the others
            lo, hi = (np.zeros_like(th), th) if lower else (th, np.ones_like(th))
            x = lo + (hi - lo) * rng.uniform(size=(k, model.d))
            near_th = rng.uniform(size=(k, model.d)) < 0.5
            x[near_th] = (th + rng.uniform(-1e-15, 1e-15, (k, model.d)))[near_th]
            v[:k] = vine_rosenblatt_forward(model, x)
        u = inverse_map(model, v)
        want = np.all(u < th, axis=1) if lower else np.all(u > th, axis=1)
        assert np.array_equal(_chain_hits(model, v, th, direction), want), name


def test_first_column_of_every_rosenblatt_inverse_is_known_in_advance():
    tail = 10.0 ** -np.linspace(1.0, 16.0, 61)
    first = np.concatenate([[2.0**-54, np.nextafter(1.0, 0.0)], tail, 1.0 - tail,
                            0.5 - tail, 0.5 + tail, np.linspace(0.01, 0.99, 99)])
    t_models = {f"t{nu:g}-2d": CopulaSpec("student-t", (UNIF,) * 2, sigma=corr(0.5), nu=nu)
                for nu in (0.2, 0.5, 1.0, 4.0, 5.0, 6.0, 30.0)}
    rng = np.random.default_rng(9)
    for name, model in {**CHAIN_MODELS, **t_models}.items():
        v = rng.uniform(size=(first.size, model.d))
        v[:, 0] = first
        assert np.array_equal(inverse_map(model, v)[:, 0], first), name


def test_row_min_is_the_axis_min():
    rng = np.random.default_rng(5)
    for d in (1, 2, 4):
        a = rng.normal(size=(300, d))
        a[::7, d - 1] = np.nan
        assert np.array_equal(_row_min(a), a.min(axis=1), equal_nan=True)


# (model, method, lower corner on the margin scale, upper corner) for each of
# the five plans; the frailty tilt covers upper corners only
PLAN_CASES = (
    (gauss_model(0.5), "is-t1", -0.8, 0.8),
    (CHAIN_MODELS["vine3"], "is-t1", 0.2, 0.8),
    (gauss_model(0.5), "is-t3", -0.8, 0.8),
    (CHAIN_MODELS["vine3"], "is-t3", 0.2, 0.8),
    (gauss_model(0.5), "is-t2", -0.8, 0.8),
    (CopulaSpec("student-t", (NORMAL, NORMAL), sigma=corr(0.3), nu=5.0), "is-t2", -0.8, 0.8),
    (CLAYTON_MODEL, "is-t2", None, 0.8),
)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lower=st.booleans(), tilt=st.floats(-0.5, 0.9))
def test_every_indicator_is_its_score_test_property(seed, lower, tilt):
    for model, method, lo, hi in PLAN_CASES:
        if lower and lo is None:
            continue
        event = CornerEvent("lower" if lower else "upper", ((lo if lower else hi),) * model.d)
        plan = _plan_for(ExperimentConfig(model, event, method))
        theta = np.full(plan.family.theta_dim, tilt)
        if plan.family.kind == "t-gamma-normal":
            theta *= 0.3  # inside the t family's ellipsoid
        ts = sample_tilted(plan.family, make_stream(seed, 0), theta, 400)
        hits = plan.score(ts) > 0.0
        assert np.array_equal(plan.indicator(ts), hits), (method, event)
        if method in ("is-t1", "is-t3"):
            # the chain indicator and the full map, with is-t3's reflection
            v = 1.0 - ts.x if plan.reflected else ts.x
            u0 = event_uniform_thresholds(model, event)
            assert np.array_equal(_chain_hits(model, v, u0, event.direction), hits)
            u = inverse_map(model, v)
            assert np.array_equal(np.all(u < u0, axis=1) if lower else np.all(u > u0, axis=1),
                                  hits)
