"""Tilting families: cumulants, samplers, weights, and the tilt solvers."""

import inspect
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import ndtr, stdtr

from tailtilt import tilting
from tailtilt.copulas import CopulaSpec, CornerEvent, rosenblatt_inverse, sample_copula_uniforms
from tailtilt.errors import (
    DegeneratePilotError,
    DomainError,
    FactorizationError,
    ParameterError,
    ShapeError,
    SolverError,
)
from tailtilt.estimators import ExperimentConfig, solve_event_theta
from tailtilt.oracle import clayton_corner_prob, rect_prob_gaussian, rect_prob_t
from tailtilt.randkit import MarginSpec, make_stream, sample_mvn
from tailtilt.tilting import (
    G_hat,
    Pilot,
    TiltFamily,
    _match_mean,
    draw_pilot,
    first_order_gap,
    grad_psi,
    hess_psi,
    psi,
    sample_tilted,
    solve_hrt_theta,
    solve_theta_gaussian_tallis,
    solve_theta_large_deviation,
    solve_theta_saa,
    truncated_mvn_first_moment,
)

UNIF = MarginSpec("uniform01")


def corr(rho: float, d: int = 2) -> np.ndarray:
    s = np.full((d, d), rho)
    np.fill_diagonal(s, 1.0)
    return s


def te_family(d: int = 2) -> TiltFamily:
    return TiltFamily("trunc-exp-product", d)


def mvn_family(rho: float = 0.0, d: int = 2) -> TiltFamily:
    return TiltFamily("mvn-shift", d, sigma=corr(rho, d))


def t_family(a: float, nu: float = 5.0, rho: float = 0.0, d: int = 2) -> TiltFamily:
    return TiltFamily("t-gamma-normal", d, sigma=corr(rho, d), nu=nu, a_star=np.full(d, a))


def clayton_family(delta: float = 3.0, d: int = 2) -> TiltFamily:
    return TiltFamily("clayton-mo", d, delta=delta)


def hazard_family(d: int = 2) -> TiltFamily:
    return TiltFamily("hazard-rate", d)


def all_above(threshold: float):
    def indicator(ts):
        return np.all(ts.x > threshold, axis=1)

    return indicator


def gap_above(threshold: float):
    """The score of ``all_above(threshold)``: positive exactly on its hits."""
    def score(ts):
        return (ts.x - threshold).min(axis=1)

    return score


def never(ts):
    return np.zeros(ts.x.shape[0], dtype=bool)


def never_score(ts):
    return np.full(ts.x.shape[0], -1.0)


def interior_points(f: TiltFamily, rng: np.random.Generator, count: int = 20) -> list:
    """Random tilt vectors safely inside the family's domain."""
    pts = []
    while len(pts) < count:
        if f.kind == "trunc-exp-product":
            th = rng.uniform(-3.0, 3.0, f.d)
        elif f.kind == "mvn-shift":
            th = rng.uniform(-2.0, 2.0, f.d)
        elif f.kind == "t-gamma-normal":
            th = rng.uniform(-1.0, 1.5, f.d)
            margin = 1.0 + 2.0 * th @ f.a_star / f.nu - th @ f.sigma @ th / f.nu
            if margin < 0.3:
                continue
        elif f.kind == "clayton-mo":
            th = np.concatenate([rng.uniform(-2.0, 0.9, 1), rng.uniform(-3.0, 3.0, f.d)])
        else:
            th = rng.uniform(-2.0, 0.9, 1)
        pts.append(th)
    return pts


# ---------------------------------------------------------------------------
# family construction


def test_family_validation():
    with pytest.raises(ParameterError):
        TiltFamily("gamma-shift", 2)
    with pytest.raises(ParameterError):
        TiltFamily("trunc-exp-product", 0)
    with pytest.raises(ParameterError):
        TiltFamily("mvn-shift", 2)
    with pytest.raises(ShapeError):
        TiltFamily("mvn-shift", 3, sigma=corr(0.5, 2))
    bad = corr(0.5)
    bad[0, 1] = 0.3
    with pytest.raises(ParameterError):
        TiltFamily("mvn-shift", 2, sigma=bad)
    with pytest.raises(FactorizationError):
        TiltFamily("mvn-shift", 2, sigma=corr(1.5, 2))
    with pytest.raises(ParameterError):
        TiltFamily("t-gamma-normal", 2, sigma=corr(0.0, 2), nu=5.0)
    with pytest.raises(ParameterError):
        TiltFamily("t-gamma-normal", 2, sigma=corr(0.0, 2), nu=-1.0, a_star=np.ones(2))
    with pytest.raises(ShapeError):
        TiltFamily("t-gamma-normal", 2, sigma=corr(0.0, 2), nu=5.0, a_star=np.ones(3))
    with pytest.raises(ParameterError):
        TiltFamily("clayton-mo", 2, delta=0.0)
    for delta in (np.inf, np.nan, 5e-324):
        with pytest.raises(ParameterError):
            TiltFamily("clayton-mo", 2, delta=delta)
    for nu in (np.inf, np.nan):
        with pytest.raises(ParameterError):
            TiltFamily("t-gamma-normal", 2, sigma=corr(0.0, 2), nu=nu, a_star=np.ones(2))
    for d in (2.0, "2", True):
        with pytest.raises(ParameterError):
            TiltFamily("trunc-exp-product", d)


def test_t_family_has_the_t_quantile_floor():
    # the same floor as the t copula, pair and margin
    with pytest.raises(ParameterError, match="at least 0.2"):
        TiltFamily("t-gamma-normal", 2, sigma=corr(0.0), nu=0.05, a_star=np.ones(2))
    assert TiltFamily("t-gamma-normal", 2, sigma=corr(0.0), nu=0.2, a_star=np.ones(2)).nu == 0.2


def test_theta_dim_and_label():
    assert te_family(3).theta_dim == 3
    assert mvn_family(0.5).theta_dim == 2
    assert t_family(2.0).theta_dim == 2
    assert clayton_family(d=2).theta_dim == 3
    assert hazard_family(4).theta_dim == 1
    assert te_family().label() == "trunc-exp-product(d=2)"
    assert t_family(2.0).label() == "t-gamma-normal(nu=5, d=2)"
    assert clayton_family().label() == "clayton-mo(delta=3, d=2)"


# ---------------------------------------------------------------------------
# cumulant values and domain


def test_psi_zero_at_zero_tilt():
    families = [te_family(), mvn_family(0.5), t_family(3.0), clayton_family(), hazard_family()]
    for f in families:
        assert psi(f, np.zeros(f.theta_dim)) == 0.0


def test_psi_trunc_exp_closed_form():
    f = te_family()
    assert psi(f, (1.0, 1.0)) == pytest.approx(2.0 * np.log(np.e - 1.0), rel=1e-13)
    # mixed signs against the direct formula ln((e^t - 1)/t)
    want = float(np.log(np.expm1(-2.0) / -2.0) + np.log(np.expm1(3.0) / 3.0))
    assert psi(f, (-2.0, 3.0)) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("t", [-1e308, -1e17, -1.6e6, -600.0, -1.0, -1e-5,
                               1e-5, 1.0, 600.0, 1e7, 1e300])
def test_psi_trunc_exp_is_accurate_relative_to_its_value(t):
    # the deep lower-corner is-t1 tilts reach about -1.6e6
    f = te_family(1)
    with mpmath.workdps(40):
        tm = mpmath.mpf(t)
        want = float(tm + mpmath.log(-mpmath.expm1(-tm) / tm) if t > 0
                     else mpmath.log(mpmath.expm1(tm) / tm))
    assert psi(f, (t,)) == pytest.approx(want, rel=1e-15, abs=0.0)
    # the gradient and Hessian overflow nothing there either
    assert np.all(np.isfinite(grad_psi(f, (t,)))) and np.all(np.isfinite(hess_psi(f, (t,))))


def test_psi_mvn_quadratic():
    f = mvn_family(0.5)
    assert psi(f, (1.0, 1.0)) == pytest.approx(1.5, rel=1e-14)


def test_psi_domain_errors():
    ft = t_family(1.0)
    with pytest.raises(DomainError):
        psi(ft, (10.0, 10.0))
    with pytest.raises(DomainError):
        psi(clayton_family(), (1.0, 0.0, 0.0))
    with pytest.raises(DomainError):
        psi(hazard_family(), (1.5,))
    with pytest.raises(ShapeError):
        psi(te_family(), (1.0, 1.0, 1.0))
    with pytest.raises(DomainError):
        psi(te_family(), (np.inf, 0.0))


def test_grad_values():
    assert np.array_equal(grad_psi(te_family(), (0.0, 0.0)), [0.5, 0.5])
    f = mvn_family(0.5)
    th = np.array([0.7, -0.3])
    assert np.allclose(grad_psi(f, th), f.sigma @ th, rtol=1e-14)
    ft = t_family(2.5)
    assert np.allclose(grad_psi(ft, (0.0, 0.0)), [-2.5, -2.5], rtol=1e-14)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(3001)
    families = [te_family(), mvn_family(0.5), t_family(2.0, rho=0.3),
                clayton_family(), hazard_family()]
    for f in families:
        for th in interior_points(f, rng):
            g = grad_psi(f, th)
            for i in range(f.theta_dim):
                h = 1e-6 * max(1.0, abs(th[i]))
                e = np.zeros(f.theta_dim)
                e[i] = h
                fd = (psi(f, th + e) - psi(f, th - e)) / (2.0 * h)
                assert abs(fd - g[i]) <= 1e-6 * max(1.0, abs(g[i])), (f.kind, th, i)


def test_hessian_matches_finite_differences():
    rng = np.random.default_rng(3002)
    families = [te_family(), mvn_family(0.3), t_family(2.0, rho=0.4),
                clayton_family(), hazard_family()]
    for f in families:
        th = interior_points(f, rng, count=1)[0]
        H = hess_psi(f, th)
        k = f.theta_dim
        fd = np.empty((k, k))
        for j in range(k):
            h = 1e-6 * max(1.0, abs(th[j]))
            e = np.zeros(k)
            e[j] = h
            fd[:, j] = (grad_psi(f, th + e) - grad_psi(f, th - e)) / (2.0 * h)
        assert np.allclose(fd, H, rtol=1e-5, atol=1e-7), f.kind


# ---------------------------------------------------------------------------
# tilted sampling: zero-tilt degeneracy, moments


def test_zero_tilt_reproduces_uniform_block():
    # trunc-exp and hazard both collapse to the raw uniform block
    for f in (te_family(), hazard_family()):
        s1, s2 = make_stream(31, 301), make_stream(31, 301)
        ts = sample_tilted(f, s1, np.zeros(f.theta_dim), 256)
        u = s2.uniforms(256 * f.d).reshape(256, f.d)
        assert np.array_equal(ts.x, u)
        assert np.all(ts.log_lr == 0.0)
        assert s1.position == s2.position


def test_zero_tilt_reproduces_mvn():
    f = mvn_family(0.5)
    s1, s2 = make_stream(31, 302), make_stream(31, 302)
    ts = sample_tilted(f, s1, (0.0, 0.0), 256)
    assert np.array_equal(ts.x, sample_mvn(s2, 0.0, f.sigma, 256))
    assert np.all(ts.log_lr == 0.0)


def test_zero_tilt_reproduces_t_copula_draws():
    c = CopulaSpec("student-t", (UNIF, UNIF), sigma=corr(0.3), nu=5.0)
    f = TiltFamily("t-gamma-normal", 2, sigma=corr(0.3), nu=5.0, a_star=np.array([2.0, 2.0]))
    s1, s2 = make_stream(31, 303), make_stream(31, 303)
    ts = sample_tilted(f, s1, (0.0, 0.0), 200)
    uu = sample_copula_uniforms(c, s2, 200)
    assert np.array_equal(stdtr(5.0, ts.x), uu)
    assert s1.position == s2.position


def test_zero_tilt_reproduces_clayton_copula_draws():
    c = CopulaSpec("clayton", (UNIF, UNIF), delta=3.0)
    f = clayton_family(3.0)
    s1, s2 = make_stream(31, 304), make_stream(31, 304)
    ts = sample_tilted(f, s1, np.zeros(3), 200)
    assert np.array_equal(ts.x, sample_copula_uniforms(c, s2, 200))
    assert np.all(ts.log_lr == 0.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), n=st.integers(1, 64))
def test_zero_tilt_reproduces_crude_draws_property(seed, n):
    c_t = CopulaSpec("student-t", (UNIF, UNIF), sigma=corr(0.3), nu=5.0)
    c_clayton = CopulaSpec("clayton", (UNIF, UNIF), delta=3.0)
    crude = [
        (te_family(), lambda s: s.uniforms(n * 2).reshape(n, 2)),
        (hazard_family(), lambda s: s.uniforms(n * 2).reshape(n, 2)),
        (mvn_family(0.5), lambda s: sample_mvn(s, 0.0, corr(0.5), n)),
        (TiltFamily("t-gamma-normal", 2, sigma=corr(0.3), nu=5.0, a_star=np.full(2, 2.0)),
         lambda s: sample_copula_uniforms(c_t, s, n)),
        (clayton_family(3.0), lambda s: sample_copula_uniforms(c_clayton, s, n)),
    ]
    for f, draw in crude:
        s1, s2 = make_stream(seed, 320), make_stream(seed, 320)
        ts = sample_tilted(f, s1, np.zeros(f.theta_dim), n)
        x = stdtr(5.0, ts.x) if f.kind == "t-gamma-normal" else ts.x
        assert np.array_equal(x, draw(s2)), f.kind
        assert np.all(ts.log_lr == 0.0), f.kind
        assert s1.position == s2.position, f.kind


BLOCK_DRAWS = {
    "trunc-exp-product": lambda s, n: sample_tilted(te_family(), s, (2.0, -1.0), n),
    "mvn-shift": lambda s, n: sample_tilted(mvn_family(0.5), s, (1.2, 0.4), n),
    "t-gamma-normal": lambda s, n: sample_tilted(t_family(2.0, rho=0.3), s, (0.8, 0.8), n),
    "clayton-mo": lambda s, n: sample_tilted(clayton_family(), s, (0.5, 2.0, 2.0), n),
    "hazard-rate": lambda s, n: sample_tilted(hazard_family(3), s, (0.5,), n),
    "gaussian": lambda s, n: sample_copula_uniforms(
        CopulaSpec("gaussian", (UNIF, UNIF), sigma=corr(0.5)), s, n),
    "student-t": lambda s, n: sample_copula_uniforms(
        CopulaSpec("student-t", (UNIF, UNIF, UNIF), sigma=corr(0.3, 3), nu=0.6), s, n),
    "clayton": lambda s, n: sample_copula_uniforms(
        CopulaSpec("clayton", (UNIF, UNIF), delta=3.0), s, n),
}


@pytest.mark.parametrize("n", [1, 7, 500])
@pytest.mark.parametrize("name", list(BLOCK_DRAWS))
def test_a_block_of_streams_draws_its_streams_stacked(name, n):
    def arrays(out):
        return (out.x, out.stat, out.log_lr) if hasattr(out, "log_lr") else (out,)

    ids = range(60, 68)
    alone, positions = [], []
    for r in ids:
        s = make_stream(23, r)
        alone.append(arrays(BLOCK_DRAWS[name](s, n)))
        positions.append(s.position)
    block = make_stream(23, ids)
    got = arrays(BLOCK_DRAWS[name](block, n))
    for k, a in enumerate(got):
        assert np.array_equal(a, np.concatenate([parts[k] for parts in alone])), k
    assert np.array_equal(block.position, positions)


@pytest.mark.parametrize("f, th, stream", [
    (mvn_family(0.0), (2.09, 2.09), 331),
    (te_family(), (2.0, -1.0), 332),
    (t_family(3.1419202680056277), (1.0, 1.0), 333),
    (clayton_family(3.0), (0.5, 1.5, -2.0), 334),
    (hazard_family(), (0.5,), 335),
], ids=["mvn-shift", "trunc-exp-product", "t-gamma-normal", "clayton-mo", "hazard-rate"])
def test_tilted_statistic_mean_is_the_cumulant_gradient(f, th, stream):
    # the exponential-family identity E_Q[T] = grad psi(theta); for the t family
    # the statistic's law depends on Y's tilted rate, the frailty's on W's
    ts = sample_tilted(f, make_stream(55, stream), th, 100_000)
    se = ts.stat.std(axis=0) / np.sqrt(len(ts.stat))
    assert np.all(np.abs(ts.stat.mean(axis=0) - grad_psi(f, th)) < 4.0 * se)


def test_likelihood_ratio_normalizes():
    cases = [
        (te_family(), (3.0, -1.0)),
        (mvn_family(0.5), (1.2, 0.4)),
        (t_family(2.0), (0.8, 0.8)),
        (clayton_family(), (0.5, 2.0, 2.0)),
        (hazard_family(), (0.5,)),
    ]
    for f, th in cases:
        ts = sample_tilted(f, make_stream(99, 307), th, 100_000)
        w = np.exp(ts.log_lr)
        assert np.all(np.isfinite(w)) and np.all(w > 0.0), f.kind
        se = w.std() / np.sqrt(w.size)
        assert abs(w.mean() - 1.0) < 4.0 * se, f.kind


def test_sample_size_validated():
    for n in (0, 2.5, "2"):
        with pytest.raises(ParameterError):
            sample_tilted(te_family(), make_stream(1, 308), (0.0, 0.0), n)


# ---------------------------------------------------------------------------
# unbiasedness of weighted corner estimates against the oracles


def weighted_estimate(f, theta, indicator, stream_id, n):
    ts = sample_tilted(f, make_stream(404, stream_id), theta, n)
    term = indicator(ts) * np.exp(ts.log_lr)
    return term.mean(), term.std() / np.sqrt(n)


def test_unbiased_trunc_exp():
    truth = 0.01  # two independent uniforms above 0.9
    ind = all_above(0.9)
    for i, th in enumerate([(0.0, 0.0), (5.0, 5.0), (12.0, 8.0)]):
        est, se = weighted_estimate(te_family(), th, ind, 340 + i, 200_000)
        assert abs(est - truth) < 4.0 * max(se, 1e-12), th


def test_unbiased_mvn():
    sigma = corr(0.5)
    truth = rect_prob_gaussian(sigma, np.array([1.0, 1.0]))
    f = mvn_family(0.5)
    ind = all_above(1.0)
    for i, th in enumerate([(0.0, 0.0), (1.0, 1.0), (1.36, 1.36)]):
        est, se = weighted_estimate(f, th, ind, 344 + i, 100_000)
        assert abs(est - truth) < 4.0 * max(se, 1e-12), th


def test_unbiased_t():
    a = 2.5
    truth = rect_prob_t(5.0, corr(0.0), np.array([a, a]))
    f = t_family(a)
    ind = all_above(a)
    for i, th in enumerate([(0.0, 0.0), (1.0, 1.0), (2.5, 2.5)]):
        est, se = weighted_estimate(f, th, ind, 348 + i, 100_000)
        assert abs(est - truth) < 4.0 * max(se, 1e-12), th


def test_unbiased_clayton():
    truth = clayton_corner_prob(3.0, 0.95)
    f = clayton_family(3.0)
    ind = all_above(0.95)
    for i, th in enumerate([(0.0, 0.0, 0.0), (0.7, 4.0, 4.0)]):
        est, se = weighted_estimate(f, th, ind, 352 + i, 200_000)
        assert abs(est - truth) < 4.0 * max(se, 1e-12), th


def test_unbiased_hazard():
    truth = 0.01
    f = hazard_family()
    ind = all_above(0.9)
    for i, th in enumerate([(0.0,), (0.4,), (0.75,)]):
        est, se = weighted_estimate(f, th, ind, 356 + i, 200_000)
        assert abs(est - truth) < 4.0 * max(se, 1e-12), th


# ---------------------------------------------------------------------------
# pilot machinery and the proxy surface


def test_pilot_at_zero_tilt_counts_hits():
    f = te_family()
    ind = all_above(0.6)
    pilot = draw_pilot(f, ind, make_stream(12, 360), 10_000, (0.0, 0.0))
    assert pilot.size == 10_000
    assert pilot.stat.shape == (pilot.hits, 2)
    assert np.all(pilot.log_weight == 0.0)
    # at the zero tilt the proxy is just the hit fraction
    assert G_hat(f, (0.0, 0.0), pilot) == pytest.approx(pilot.hits / pilot.size, rel=1e-12)


def test_degenerate_pilot_rejected():
    f = te_family()
    pilot = draw_pilot(f, never, make_stream(12, 361), 500, (0.0, 0.0))
    with pytest.raises(DegeneratePilotError):
        G_hat(f, (0.0, 0.0), pilot)
    empty = Pilot(stat=np.empty((0, 2)), log_weight=np.empty(0), size=0)
    with pytest.raises(DegeneratePilotError):
        G_hat(f, (0.0, 0.0), empty)


def test_proxy_midpoint_convexity():
    rng = np.random.default_rng(3003)
    cases = [
        (te_family(), all_above(0.6), (0.0, 0.0)),
        (mvn_family(0.5), all_above(0.5), (0.0, 0.0)),
        (t_family(1.5), lambda ts: np.all(ts.stat > 0.0, axis=1), (0.5, 0.5)),
        (clayton_family(), all_above(0.6), (0.0, 0.0, 0.0)),
        (hazard_family(), all_above(0.6), (0.0,)),
    ]
    for f, ind, proposal in cases:
        pilot = draw_pilot(f, ind, make_stream(12, 362), 4_000, proposal)
        pairs = zip(interior_points(f, rng, 100), interior_points(f, rng, 100))
        for th1, th2 in pairs:
            mid = 0.5 * (np.asarray(th1) + np.asarray(th2))
            lhs = G_hat(f, mid, pilot)
            rhs = 0.5 * (G_hat(f, th1, pilot) + G_hat(f, th2, pilot))
            assert lhs <= rhs * (1.0 + 1e-12), (f.kind, th1, th2)


# ---------------------------------------------------------------------------
# sample-average solver


def test_solve_saa_gaussian_corner():
    f = mvn_family(0.0)
    sol = solve_theta_saa(f, all_above(1.282), make_stream(900, 310), score=gap_above(1.282))
    assert sol.converged and sol.method == "saa"
    assert np.all(np.abs(sol.theta_o - 1.58) < 0.1)
    assert sol.residual_norm <= 1e-6 * sol.G_hat_at_solution
    assert sol.pilot_hits >= 200
    text = sol.report()
    assert "method: saa" in text and "converged: True" in text


def test_solve_saa_trunc_exp_corner():
    u0 = float(ndtr(1.282))
    sol = solve_theta_saa(te_family(), all_above(u0), make_stream(900, 311),
                          score=gap_above(u0))
    assert sol.converged
    assert np.all(np.abs(sol.theta_o / 15.95 - 1.0) < 0.1)


def test_solve_saa_clayton_corner():
    u0 = float(ndtr(2.130))
    sol = solve_theta_saa(clayton_family(3.0), all_above(u0), make_stream(900, 324),
                          score=gap_above(u0))
    assert sol.converged
    assert abs(sol.theta_o[0] - 0.848) < 0.05
    assert np.all(np.abs(sol.theta_o[1:] / 14.58 - 1.0) < 0.1)


def test_solve_saa_t_corner():
    a = 3.1419202680056277  # matching a tail event of probability 1e-3
    f = t_family(a)
    ind = lambda ts: np.all(ts.stat > 0.0, axis=1)
    sol = solve_theta_saa(f, ind, make_stream(900, 316), score=lambda ts: ts.stat.min(axis=1))
    assert sol.converged
    assert np.all(np.abs(sol.theta_o / 3.68 - 1.0) < 0.1)


def test_first_order_condition_on_fresh_pilot():
    f = mvn_family(0.0)
    sol = solve_theta_saa(f, all_above(1.282), make_stream(900, 310), score=gap_above(1.282))
    pilot = draw_pilot(f, all_above(1.282), make_stream(900, 313), 40_000, sol.theta_o)
    gap, se = first_order_gap(f, sol.theta_o, pilot)
    assert np.all(np.abs(gap) <= 3.0 * se)


def test_solve_saa_flags_non_convergence(monkeypatch):
    monkeypatch.setattr(tilting, "_NEWTON_MAX_ITERS", 1)
    f = mvn_family(0.0)
    sol = solve_theta_saa(f, all_above(1.282), make_stream(900, 310), gap_above(1.282))
    assert not sol.converged
    assert sol.iterations == 1


def test_solve_saa_degenerate_event():
    # a score that never turns positive holds γ at -1, so the third level stalls
    with pytest.raises(DegeneratePilotError, match="level 3"):
        solve_theta_saa(mvn_family(0.0), never, make_stream(900, 317), score=never_score)


def test_cross_entropy_levels_end_at_the_event():
    f = mvn_family(0.0)
    a = 3.0902323061678132  # Φ(-a) = 1e-3
    sol = solve_theta_saa(f, lambda ts: ts.x[:, 0] > a, make_stream(900, 320),
                          score=lambda ts: ts.x[:, 0] - a)
    assert sol.converged
    assert sol.pre_levels[-1] == 0.0
    assert len(sol.pre_levels) >= 2 and all(g < 0.0 for g in sol.pre_levels[:-1])
    assert f"pre-tilt: levels={len(sol.pre_levels)} last_gamma=0" in sol.report()
    # the closed-form and the large-deviation solvers run no levels
    closed = solve_theta_gaussian_tallis(corr(0.0), [1.282, 1.282])
    assert closed.pre_levels == () and "pre-tilt" not in closed.report()
    assert solve_theta_large_deviation(t_family(3.0)).pre_levels == ()


def test_pilot_solvers_take_what_solve_event_theta_passes():
    for solve in (solve_theta_saa, solve_hrt_theta):
        assert list(inspect.signature(solve).parameters) == ["f", "indicator", "s", "score"]
    assert list(inspect.signature(solve_event_theta).parameters) == ["cfg", "solver"]


def test_solve_saa_records_reflection():
    # the caller reflects a lower corner and marks the pilot solution
    c = CopulaSpec("gaussian", (MarginSpec("std-normal"),) * 2, sigma=corr(0.0))
    cfg = ExperimentConfig(c, CornerEvent("lower", (-1.282, -1.282)), "is-t2", seed=900)
    sol = solve_event_theta(cfg, solver="saa")
    assert sol.reflected and sol.method == "saa"
    assert "reflected: true" in sol.report()


def test_moment_match_solves_the_mean_equation_inside_the_domain():
    # includes means the per-family matchers used to clip: the hazard twist
    # to [0, 0.98], the frailty tilt to [-5, 0.98] (0.98 is a mean of 50/delta)
    # and trunc-exp means to [1e-9, 1 - 1e-9]
    cases = [
        (te_family(), (0.3, 0.97)),
        (te_family(), (0.5, 1.0 - 1e-7)),
        (te_family(), (1e-10, 0.8)),
        (mvn_family(0.5), (2.0, 1.5)),
        (t_family(2.0), (0.3, 0.35)),
        (t_family(2.0, rho=0.5), (1.2, 0.1)),
        (clayton_family(3.0), (0.5, 0.9, 0.95)),
        (clayton_family(3.0), (60.0 / 3.0, 0.9, 1.0 - 1e-7)),
        (clayton_family(3.0), (1e-3, 0.2, 0.8)),
        (hazard_family(2), (1.5,)),
        (hazard_family(2), (150.0,)),
    ]
    for f, m in cases:
        m = np.array(m)
        theta = _match_mean(f, m)
        psi(f, theta)  # raises DomainError outside the family's domain
        assert np.linalg.norm(grad_psi(f, theta) - m) <= 1e-6, (f.kind, m, theta)


# ---------------------------------------------------------------------------
# closed-form truncated moment and the deterministic Gaussian solver


def test_truncated_moment_untruncated_limit():
    m = truncated_mvn_first_moment(corr(0.0), [-37.0, -37.0], [0.0, 0.0])
    assert np.all(np.abs(m) < 1e-6)


def test_truncated_moment_half_normal():
    m = truncated_mvn_first_moment(corr(0.0), [0.0, 0.0], [0.0, 0.0])
    assert np.allclose(m, np.sqrt(2.0 / np.pi), atol=1e-4)


def test_truncated_moment_matches_rejection():
    sigma = corr(0.5)
    m = truncated_mvn_first_moment(sigma, [1.0, 1.0], [0.0, 0.0])
    rng = np.random.default_rng(3004)
    L = np.linalg.cholesky(sigma)
    kept = []
    for _ in range(20):
        z = rng.standard_normal((100_000, 2)) @ L.T
        kept.append(z[np.all(z > 1.0, axis=1)])
    v = np.vstack(kept)
    se = v.std(axis=0) / np.sqrt(v.shape[0])
    assert np.all(np.abs(m - v.mean(axis=0)) < 4.0 * se)


def test_truncated_moment_with_shift_matches_rejection():
    sigma = corr(0.5)
    theta = np.array([0.7, 0.4])
    lower = np.array([0.2, -0.1])
    m = truncated_mvn_first_moment(sigma, lower, theta)
    rng = np.random.default_rng(3005)
    L = np.linalg.cholesky(sigma)
    kept = []
    for _ in range(20):
        z = rng.standard_normal((100_000, 2)) @ L.T - sigma @ theta
        kept.append(z[np.all(z > lower, axis=1)])
    v = np.vstack(kept)
    se = v.std(axis=0) / np.sqrt(v.shape[0])
    assert np.all(np.abs(m - v.mean(axis=0)) < 4.0 * se)


def test_truncated_moment_validation():
    with pytest.raises(FactorizationError):
        truncated_mvn_first_moment(corr(1.2), [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ParameterError):
        truncated_mvn_first_moment(np.diag([2.0, 2.0]), [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ShapeError):
        truncated_mvn_first_moment(np.eye(5), np.zeros(5), np.zeros(5))


def test_tallis_solver_independent_corner():
    sol = solve_theta_gaussian_tallis(corr(0.0), [1.282, 1.282])
    assert sol.converged and sol.method == "tallis-newton"
    assert np.all(np.abs(sol.theta_o - 1.58) < 0.05)
    assert sol.residual_norm <= 1e-10


def test_tallis_solver_correlated_corner():
    sol = solve_theta_gaussian_tallis(corr(0.5), [1.712, 1.712])
    assert sol.converged
    assert np.all(np.abs(sol.theta_o - 1.36) < 0.05)


def test_tallis_solver_common_event_needs_no_tilt():
    sol = solve_theta_gaussian_tallis(corr(0.0), [-5.0, -5.0])
    assert np.all(np.abs(sol.theta_o) < 0.02)


@pytest.mark.parametrize("rho", [-0.5, 0.0, 0.5])
def test_tallis_newton_alone_solves_deep_bivariate_corners(rho):
    # the rectangle is accurate relative to its value, so one damped Newton
    # reaches the tolerance down to 1e-18 without a quadrature warning
    for u in (1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 1e-18):
        a = brentq(lambda x: np.log(rect_prob_gaussian(corr(rho), [x, x]) / u), -1.0, 12.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_theta_gaussian_tallis(corr(rho), [a, a])
        assert sol.converged and sol.residual_norm <= 1e-10, (u, sol)
        assert sol.iterations <= 5


def test_tallis_four_dim_tilt_is_pinned():
    # the tridiagonal 4-d corners of the deep benchmark; d = 3, 4 rectangles
    # still come from tensor quadrature
    sigma = np.eye(4) + 0.5 * (np.eye(4, k=1) + np.eye(4, k=-1))
    for p, want in ((1.428, [1.35107, 0.80589, 0.80589, 1.35106]),
                    (1.868, [1.66195, 0.95992, 0.95975, 1.66133])):
        sol = solve_theta_gaussian_tallis(sigma, [p] * 4)
        assert sol.converged
        np.testing.assert_allclose(sol.theta_o, want, rtol=0, atol=1e-3)


def test_tallis_agrees_with_saa():
    det = solve_theta_gaussian_tallis(corr(0.0), [1.282, 1.282])
    saa = solve_theta_saa(mvn_family(0.0), all_above(1.282), make_stream(900, 310),
                          score=gap_above(1.282))
    assert np.all(np.abs(saa.theta_o / det.theta_o - 1.0) < 0.05)


# ---------------------------------------------------------------------------
# large-deviation tilt


def test_large_deviation_identity_case():
    sol = solve_theta_large_deviation(t_family(3.0))
    assert np.array_equal(sol.theta_o, [3.0, 3.0])
    assert sol.converged and sol.method == "large-deviation"


def test_large_deviation_correlated_interior():
    f = t_family(3.0, rho=0.5)
    sol = solve_theta_large_deviation(f)
    assert np.allclose(sol.theta_o, [2.0, 2.0], atol=1e-10)
    assert np.allclose(f.sigma @ sol.theta_o - f.a_star, 0.0, atol=1e-10)


def test_large_deviation_active_set():
    f = TiltFamily("t-gamma-normal", 2, sigma=corr(0.9), nu=5.0,
                   a_star=np.array([3.0, 0.5]))
    sol = solve_theta_large_deviation(f)
    assert np.allclose(sol.theta_o, [3.0, 0.0], atol=1e-12)
    slack = f.sigma @ sol.theta_o - f.a_star
    assert slack[1] == pytest.approx(2.2, abs=1e-12)


def test_large_deviation_is_a_minimum():
    f = t_family(3.0, rho=0.5)
    sol = solve_theta_large_deviation(f)
    val = psi(f, sol.theta_o)
    assert val <= psi(f, 0.5 * f.a_star)
    assert val <= psi(f, np.array([2.1, 1.9]))


def test_large_deviation_validation():
    f = TiltFamily("t-gamma-normal", 2, sigma=corr(0.0, 2), nu=5.0, a_star=(1.0, -0.5))
    with pytest.raises(DomainError):
        solve_theta_large_deviation(f)
    with pytest.raises(ParameterError):
        solve_theta_large_deviation(mvn_family(0.0))


def test_large_deviation_meets_kkt_at_any_dimension():
    # random correlation matrices and corners at d = 1..8 reach active sets
    # of every size; the KKT conditions of the convex program certify the
    # minimum: theta >= 0, slack = Sigma theta - a* >= 0, theta . slack = 0
    rng = np.random.default_rng(2101)
    cases = []
    for d in range(1, 9):
        for _ in range(25):
            g = rng.standard_normal((d, d + 2))
            sigma = g @ g.T
            sigma /= np.sqrt(np.outer(np.diag(sigma), np.diag(sigma)))
            cases.append((sigma, rng.uniform(0.1, 5.0, d)))
    cases.append((corr(0.5, 16), np.linspace(1.0, 3.0, 16)))  # ten coordinates at 0
    for sigma, a in cases:
        f = TiltFamily("t-gamma-normal", len(a), sigma=sigma, nu=5.0, a_star=a)
        sol = solve_theta_large_deviation(f)
        th, slack = sol.theta_o, sigma @ sol.theta_o - a
        assert sol.converged and sol.iterations == 1
        assert np.all(th >= 0.0)
        assert np.all(slack >= -1e-10 * (1.0 + a.max()))
        assert abs(th @ slack) <= 1e-10 * (1.0 + th @ a)


def test_large_deviation_nnls_failure_is_a_solver_error(monkeypatch):
    def capped(A, b):
        raise RuntimeError("Maximum number of iterations reached.")

    monkeypatch.setattr(tilting, "nnls", capped)
    with pytest.raises(SolverError, match="Maximum number of iterations"):
        solve_theta_large_deviation(t_family(3.0, rho=0.5))


# ---------------------------------------------------------------------------
# scalar hazard twist


def test_hrt_gaussian_corner():
    u0 = float(ndtr(1.857))
    sol = solve_hrt_theta(hazard_family(), all_above(u0), make_stream(900, 314),
                          score=gap_above(u0))
    assert isinstance(sol.theta_o[0], float) and sol.theta_o.shape == (1,)
    assert abs(sol.theta_o[0] - 0.71) < 0.05
    assert sol.converged and sol.pilot_hits >= 200
    assert sol.method == "hrt"


def test_short_pilot_raises_naming_both_counts(monkeypatch):
    # 100 pilot rows cannot carry the 200 hits the Newton stage needs
    monkeypatch.setattr(tilting, "_N_PILOT", 100)
    u0 = float(ndtr(1.857))
    with pytest.raises(DegeneratePilotError,
                       match=r"produced \d+ event hits of 100 draws, below the required 200"):
        solve_hrt_theta(hazard_family(), all_above(u0), make_stream(900, 314), gap_above(u0))


def test_hrt_t_copula_corner():
    c = CopulaSpec("student-t", (UNIF, UNIF), sigma=corr(0.0), nu=5.0)
    u0 = float(stdtr(2.0, 6.128))

    def ind(ts):
        return np.all(rosenblatt_inverse(c, ts.x) > u0, axis=1)

    def score(ts):
        return (rosenblatt_inverse(c, ts.x) - u0).min(axis=1)

    sol = solve_hrt_theta(hazard_family(), ind, make_stream(900, 330), score=score)
    assert abs(sol.theta_o[0] - 0.73) < 0.05


def test_hrt_whole_space_needs_no_twist():
    # Ĝ's unconstrained minimum sits near 0, on either side of it by pilot
    # noise; below 0 the solver projects it onto 0
    everything = lambda ts: np.ones(ts.x.shape[0], dtype=bool)
    for stream_id in (308, 311, 312, 315):
        sol = solve_hrt_theta(hazard_family(), everything, make_stream(900, stream_id),
                              score=lambda ts: np.ones(ts.x.shape[0]))
        assert 0.0 <= sol.theta_o[0] < 0.05, stream_id
        assert sol.converged and sol.method == "hrt"


def test_hrt_projects_a_negative_minimum_onto_zero():
    # {v1 < 0.5} favours a negative twist: Ĝ's minimum lies well below 0
    first_low = lambda ts: ts.x[:, 0] < 0.5
    sol = solve_hrt_theta(hazard_family(), first_low, make_stream(900, 321),
                          score=lambda ts: 0.5 - ts.x[:, 0])
    assert sol.theta_o[0] == 0.0
    assert sol.converged and sol.method == "hrt"


def test_hrt_validation():
    with pytest.raises(ParameterError):
        solve_hrt_theta(te_family(), all_above(0.9), make_stream(900, 319), gap_above(0.9))
    with pytest.raises(DegeneratePilotError, match="level 3"):
        solve_hrt_theta(hazard_family(), never, make_stream(900, 319), score=never_score)
