"""Conditional distribution functions of the pair copula families."""

import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import stdtrit

from tailtilt.copulas import PairCopula, h_func, h_inv, pairs
from tailtilt.errors import ParameterError, SolverError

GRID = np.linspace(0.01, 0.99, 15)

ALL_PAIRS = [
    PairCopula("gaussian", rho=0.5),
    PairCopula("gaussian", rho=-0.8),
    PairCopula("student-t", nu=5.0, rho=0.5),
    PairCopula("student-t", nu=2.0, rho=-0.4),
    PairCopula("clayton", delta=3.0),
    PairCopula("clayton", delta=0.7),
    PairCopula("gumbel", delta=3.0),
    PairCopula("gumbel", delta=1.4),
    PairCopula("frank", delta=3.0),
    PairCopula("frank", delta=-4.0),
    PairCopula("joe", delta=3.0),
    PairCopula("joe", delta=1.2),
]


def test_parameter_validation():
    with pytest.raises(ParameterError):
        PairCopula("ali-mikhail-haq", delta=0.3)
    with pytest.raises(ParameterError):
        PairCopula("gaussian", rho=1.0)
    with pytest.raises(ParameterError):
        PairCopula("student-t", nu=0.0, rho=0.2)
    with pytest.raises(ParameterError):
        PairCopula("clayton", delta=0.0)
    with pytest.raises(ParameterError):
        PairCopula("gumbel", delta=0.99)
    with pytest.raises(ParameterError):
        PairCopula("joe", delta=0.5)
    with pytest.raises(ParameterError):
        PairCopula("frank", delta=0.0)
    for nu in (np.inf, np.nan):
        with pytest.raises(ParameterError):
            PairCopula("student-t", nu=nu, rho=0.5)
    for delta in (np.inf, np.nan, 5e-324):
        with pytest.raises(ParameterError):
            PairCopula("clayton", delta=delta)
    for family in ("gumbel", "joe"):
        with pytest.raises(ParameterError):
            PairCopula(family, delta=np.inf)
    for nu in (0.05, 0.1, np.nextafter(0.2, 0.0)):  # under the t quantile's floor
        with pytest.raises(ParameterError, match=r"at least 0\.2"):
            PairCopula("student-t", nu=nu, rho=0.5)
    assert PairCopula("student-t", nu=0.2, rho=0.5).nu == 0.2


def test_gaussian_independence_and_median():
    indep = PairCopula("gaussian", rho=0.0)
    assert abs(h_func(indep, 0.3, 0.7) - 0.3) < 1e-12
    assert abs(h_inv(indep, 0.3, 0.7) - 0.3) < 1e-12
    half = PairCopula("gaussian", rho=0.5)
    assert abs(h_func(half, 0.5, 0.5) - 0.5) < 1e-12
    assert abs(h_inv(half, 0.5, 0.5) - 0.5) < 1e-12


def test_gumbel_and_joe_reduce_to_independence_at_one():
    for family in ("gumbel", "joe"):
        pc = PairCopula(family, delta=1.0)
        np.testing.assert_allclose(h_func(pc, GRID, 0.37), GRID, atol=1e-12)
        np.testing.assert_allclose(h_inv(pc, GRID, 0.37), GRID, atol=1e-9)


def test_clayton_matches_plain_space_formula():
    d = 3.0
    pc = PairCopula("clayton", delta=d)
    v1, v2 = np.meshgrid(GRID, GRID)
    want = v1 ** -(d + 1.0) * (v1**-d + v2**-d - 1.0) ** -(1.0 / d + 1.0)
    np.testing.assert_allclose(h_func(pc, v2, v1), want, rtol=1e-12)
    q = h_func(pc, 0.9, 0.9)
    assert abs(h_inv(pc, q, 0.9) - 0.9) < 1e-8


def test_clayton_survives_extreme_conditioning_values():
    pc = PairCopula("clayton", delta=3.0)
    out = h_func(pc, np.array([0.2, 0.8]), np.array([1e-250, 1e-250]))
    assert np.all(np.isfinite(out))
    assert np.all((out > 0.0) & (out < 1.0))


@pytest.mark.parametrize("pc", ALL_PAIRS, ids=lambda pc: pc.label())
def test_h_round_trip_both_ways(pc):
    q, v1 = (g.ravel() for g in np.meshgrid(GRID, GRID))
    v2 = h_inv(pc, q, v1)
    np.testing.assert_allclose(h_func(pc, v2, v1), q, atol=1e-8)
    back = h_inv(pc, h_func(pc, q, v1), v1)
    np.testing.assert_allclose(back, q, atol=1e-8)


@pytest.mark.parametrize(
    "pc",
    [PairCopula("gumbel", delta=3.0), PairCopula("joe", delta=3.0)],
    ids=lambda pc: pc.label(),
)
def test_numeric_inverses_hit_tight_tolerance(pc):
    q, v1 = (g.ravel() for g in np.meshgrid(GRID, GRID))
    err = np.abs(h_func(pc, h_inv(pc, q, v1), v1) - q)
    assert err.max() < 1e-10


@pytest.mark.parametrize("pc", ALL_PAIRS, ids=lambda pc: pc.label())
def test_h_monotone_in_second_argument(pc):
    v2 = np.linspace(0.01, 0.99, 200)
    for v1 in (0.1, 0.5, 0.9):
        out = h_func(pc, v2, np.full_like(v2, v1))
        assert np.all(np.diff(out) >= 0.0)
        assert out.min() >= 0.0 and out.max() <= 1.0


def test_joe_inverse_converges_for_a_lone_element():
    pc = PairCopula("joe", delta=3.0)
    q, v1 = 0.887309882497851, 0.9999847192800818
    v2 = h_inv(pc, [q], [v1])
    assert abs(h_func(pc, v2, [v1])[0] - q) < 1e-9


@pytest.mark.parametrize(
    "pc",
    [PairCopula("gumbel", delta=3.0), PairCopula("joe", delta=3.0)],
    ids=lambda pc: pc.label(),
)
def test_numeric_inverse_of_an_element_ignores_the_rest_of_the_call(pc):
    rng = np.random.default_rng(11)
    q, v1 = rng.uniform(0.0, 1.0, 400), 1.0 - 10.0 ** rng.uniform(-6.0, 0.0, 400)
    batch = h_inv(pc, q, v1)
    single = np.array([h_inv(pc, [qi], [vi])[0] for qi, vi in zip(q, v1)])
    assert np.array_equal(single, batch)
    np.testing.assert_allclose(h_func(pc, single, v1), q, rtol=0, atol=1e-9)


@pytest.mark.parametrize("delta", [1.0, 1.2, 3.0])
def test_joe_inverse_takes_few_steps_on_corner_draws(delta, monkeypatch):
    steps = []
    iterate = pairs._iterate_each

    def counted(step, *rest):
        calls = [0]

        def counting(*state):
            calls[0] += 1
            return step(*state)

        out = iterate(counting, *rest)
        steps.append(calls[0])
        return out

    monkeypatch.setattr(pairs, "_iterate_each", counted)
    rng = np.random.default_rng(15)
    q, v1 = rng.uniform(0.0, 1.0, 2000), 1.0 - 10.0 ** rng.uniform(-8.0, 0.0, 2000)
    pc = PairCopula("joe", delta=delta)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for qi, vi in zip(q, v1):
            h_inv(pc, [qi], [vi])
    assert max(steps, default=0) <= 30


def test_numeric_inverse_that_reaches_its_cap_raises():
    def creep(t):
        return (t * (1.0 + 1e-6),)

    with pytest.raises(SolverError, match=r"joe h_inv: 2 of 3 elements .* 5 steps"):
        pairs._iterate_each(creep, (np.array([0.0, 1.0, 2.0]),), (), 1e-12, 5, "joe")


@pytest.mark.parametrize("delta", [3.0, 30.0])
def test_joe_h_func_stays_finite_at_the_upper_corner(delta):
    # (1 - v)^delta underflows near (1, 1); the closed form divides its
    # powers and returned NaN there
    pts = np.array([1e-3, 0.1, 0.5, 0.9, 1 - 1e-3, 1 - 1e-6, 1 - 1e-9,
                    1 - 1e-10, 1 - 1e-12, 1 - 1e-13, 1 - 1e-15])
    v2, v1 = (g.ravel() for g in np.meshgrid(pts, pts))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = h_func(PairCopula("joe", delta=delta), v2, v1)
    assert np.all(np.isfinite(out))
    assert out.min() >= 1e-15 and out.max() <= 1.0 - 1e-15
    # with 1 - v1 ten times below 1 - v2, h is about 0.1^(delta - 1)
    corner = h_func(PairCopula("joe", delta=delta), [1 - 1e-12], [1 - 1e-13])[0]
    assert corner == pytest.approx(max(0.1 ** (delta - 1.0), 1e-15), rel=1e-3)
    # where the direct formula is finite it agrees; away from 0 its 1 - v
    # rounds by at most 1e-13 relative
    with np.errstate(all="ignore"):
        ub, vb = 1.0 - v1, 1.0 - v2
        s = ub**delta + vb**delta * (1.0 - ub**delta)
        direct = np.clip(s ** (1.0 / delta - 1.0) * ub ** (delta - 1.0) * (1.0 - vb**delta),
                         1e-15, 1.0 - 1e-15)
    ok = np.isfinite(direct)
    assert ok.sum() >= 100
    np.testing.assert_allclose(out[ok], direct[ok], rtol=1e-12, atol=0.0)


def test_t_quantile_inverts_the_t_cdf_at_the_nu_floor():
    # the t maps rest on stdtrit; at the floor its quantile's tail
    # probability, at 50 digits, is v's own to a few ulps on either side
    nu = 0.2
    lo = 2.0 ** np.arange(-53.0, -1.0, 0.125)
    v = np.concatenate([lo, np.linspace(0.26, 0.74, 49), 1.0 - lo[::-1]])
    q = stdtrit(nu, v)
    assert np.all(np.isfinite(q))
    with mp.workdps(50):
        n = mp.mpf(nu)
        for vi, qi in zip(v, q):
            x = mp.mpf(float(qi))
            # P(T < x) for x < 0 and P(T > x) for x >= 0
            tail = mp.betainc(n / 2, mp.mpf(0.5), 0, n / (n + x * x), regularized=True) / 2
            want = mp.mpf(float(vi)) if qi < 0 else 1 - mp.mpf(float(vi))
            assert abs(tail / want - 1) <= 2e-15, vi
