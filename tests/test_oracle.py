"""Reference-probability checks against independent closed forms."""

import mpmath as mp
import numpy as np
import pytest
from scipy.special import ndtr, stdtr, stdtrit

from tailtilt.copulas import vine_preset
from tailtilt.errors import FactorizationError, ParameterError, ShapeError, SolverError
from tailtilt.oracle import clayton_corner_prob, rect_prob_gaussian, rect_prob_t, vine_corner_prob
from tailtilt.tilting import truncated_mvn_first_moment


def corr(rho: float, d: int = 2) -> np.ndarray:
    s = np.full((d, d), rho)
    np.fill_diagonal(s, 1.0)
    return s


# ---------------------------------------------------------------------------
# gaussian rectangles


def test_univariate_reduces_to_normal_tail():
    assert abs(rect_prob_gaussian(np.eye(1), [1.857]) - ndtr(-1.857)) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_independence_factorizes(d):
    a = np.array([1.282, -0.3, 0.5, 2.0])[:d]
    want = np.prod(ndtr(-a))
    assert abs(rect_prob_gaussian(np.eye(d), a) - want) < 1e-9


def test_equal_corner_at_origin_is_quarter():
    assert abs(rect_prob_gaussian(np.eye(2), [0.0, 0.0]) - 0.25) < 1e-12


def test_bivariate_orthant_closed_form():
    # P(X > 0) = 1/4 + arcsin(rho) / (2 pi)
    for rho in (0.5, -0.5, 0.3):
        want = 0.25 + np.arcsin(rho) / (2.0 * np.pi)
        assert abs(rect_prob_gaussian(corr(rho), [0.0, 0.0]) - want) < 1e-8
    assert abs(rect_prob_gaussian(corr(0.5), [0.0, 0.0]) - 1.0 / 3.0) < 1e-8


def test_trivariate_orthant_closed_form():
    # P(X > 0) = 1/8 + (sum of pairwise arcsin rho) / (4 pi); exchangeable
    # rho = 0.5 gives exactly 1/4
    assert abs(rect_prob_gaussian(corr(0.5, 3), np.zeros(3)) - 0.25) < 1e-8


def test_gaussian_tail_example_near_one_percent():
    val = rect_prob_gaussian(np.eye(2), [1.282, 1.282])
    assert abs(val - ndtr(-1.282) ** 2) < 1e-9
    assert abs(val - 1.00e-02) < 2e-4


def test_lower_direction_is_reflected_upper():
    sigma = corr(0.5)
    a = np.array([0.7, -0.2])
    lo = rect_prob_gaussian(sigma, a, "lower")
    up = rect_prob_gaussian(sigma, -a, "upper")
    assert lo == up


def test_gaussian_monotone_in_thresholds():
    sigma = corr(-0.5)
    vals = [rect_prob_gaussian(sigma, [t, t]) for t in (0.411, 0.806, 0.947, 1.233)]
    assert all(x > y for x, y in zip(vals, vals[1:]))


def test_gaussian_rejects_bad_inputs():
    with pytest.raises(ShapeError):
        rect_prob_gaussian(np.eye(3), [0.0, 0.0])
    with pytest.raises(ParameterError):
        rect_prob_gaussian(np.eye(5), np.zeros(5))
    with pytest.raises(ParameterError):
        rect_prob_gaussian(np.eye(2), [0.0, 0.0], "sideways")
    with pytest.raises(FactorizationError):
        rect_prob_gaussian(np.array([[1.0, 1.0], [1.0, 1.0]]), [0.0, 0.0])


def test_tridiagonal_four_dim_case_is_stable():
    sigma = np.eye(4) + 0.5 * (np.eye(4, k=1) + np.eye(4, k=-1))
    val = rect_prob_gaussian(sigma, [1.428, 1.428, 1.428, 1.428])
    assert 0.0 < val < ndtr(-1.428)
    again = rect_prob_gaussian(sigma, [1.428, 1.428, 1.428, 1.428])
    assert val == again


def mp_rect2(rho: float, b1: float, b2: float) -> mp.mpf:
    """P(Z1 > b1, Z2 > b2) in mpmath by Plackett's identity: the rectangle's
    derivative in the correlation is the bivariate density at (b1, b2), so
    it is the independent rectangle plus that density integrated from 0 to
    rho. A negative rho cancels digits; the precision doubles until the
    integral's error estimate is 1e-14 of the result."""
    dps = 30
    while True:
        with mp.workdps(dps):
            r, x, y = mp.mpf(rho), mp.mpf(b1), mp.mpf(b2)

            def density(c):
                return (mp.exp(-(x * x - 2 * c * x * y + y * y) / (2 * (1 - c * c)))
                        / (2 * mp.pi * mp.sqrt(1 - c * c)))

            part, err = mp.quad(density, mp.linspace(0, r, 17), error=True)
            val = mp.ncdf(-x) * mp.ncdf(-y) + part
            if val > 0 and err < mp.mpf(10) ** -14 * val:
                return +val
        dps *= 2


@pytest.mark.parametrize("rho", [-0.9, -0.5, 0.0, 0.5, 0.9])
def test_bivariate_rectangle_accurate_relative_to_its_value(rho):
    # equal and unequal thresholds, each pair given in both orders, from two
    # below the mean down to rectangles of 1e-20 and below; the deepest pairs
    # are left out where a negative rho would cancel a hundred digits in the
    # reference
    pairs = [(-2.0, -0.5), (-1.0, 0.5), (0.5, 1.5), (2.0, 2.0), (1.0, 3.0)]
    if rho > -0.9:
        pairs += [(4.5, 4.5), (1.0, 9.5)]
    if rho >= 0.0:
        pairs += [(9.0, 9.0)]
    truths = [mp_rect2(rho, *b) for b in pairs]
    for b, truth in zip(pairs, truths):
        for a in (b, b[::-1]):
            got = rect_prob_gaussian(corr(rho), list(a))
            assert abs(got - truth) <= 1e-10 * truth, (a, got, truth)
    assert min(truths) < 1e-20


def test_rectangle_past_double_range_raises_in_the_moment():
    # exp(-40²/2) underflows, so the rectangle is 0 and the moment cannot
    # divide by it
    assert rect_prob_gaussian(corr(0.5), [40.0, 40.0]) == 0.0
    with pytest.raises(SolverError, match="underflowed"):
        truncated_mvn_first_moment(corr(0.5), [20.0, 20.0], [10.0, 10.0])


# ---------------------------------------------------------------------------
# t rectangles


def test_t_origin_corner_is_quarter():
    assert abs(rect_prob_t(5.0, np.eye(2), [0.0, 0.0]) - 0.25) < 1e-9


def test_t_univariate_matches_cdf():
    val = rect_prob_t(5.0, np.eye(1), [2.268])
    assert abs(val - (1.0 - stdtr(5.0, 2.268))) < 1e-7


def test_t_large_dof_approaches_gaussian():
    tv = rect_prob_t(1e6, np.eye(2), [1.282, 1.282])
    gv = rect_prob_gaussian(np.eye(2), [1.282, 1.282])
    assert abs(tv - gv) < 1e-4


def test_t_heavy_tail_target_value():
    # thresholds mapped through a t(2) margin at 6.128, then onto the
    # latent t(5) scale; frozen from an independent product-form mixture
    # integral evaluated at high precision
    astar = stdtrit(5.0, stdtr(2.0, 6.128))
    assert abs(astar - 3.1419202680) < 1e-9
    val = rect_prob_t(5.0, np.eye(2), [astar, astar])
    assert abs(val - 9.998608e-04) < 1e-7
    assert abs(val - 1.00e-03) / 1.00e-03 < 0.05


@pytest.mark.parametrize("p, want", [(5.0, 5.9545e-8), (5.6, 2.2209e-9), (6.1, 1.0983e-10)])
def test_t_deep_corner_keeps_relative_accuracy(p, want):
    # the t(5) corner at Gaussian depth p; values from a log-space mixture
    # quadrature independent of this oracle
    a = stdtrit(5.0, ndtr(p))
    val = rect_prob_t(5.0, corr(0.5), [a, a])
    assert abs(val / want - 1.0) < 1e-4


def test_t_unresolved_corner_raises():
    # the true value, about 1e-400, underflows: no silent zero
    with pytest.raises(SolverError):
        rect_prob_t(5.0, corr(0.5), [1e80, 1e80])


def test_t_monotone_and_direction():
    sigma = corr(0.5)
    vals = [rect_prob_t(5.0, sigma, [t, t]) for t in (0.5, 1.0, 2.0)]
    assert vals[0] > vals[1] > vals[2]
    assert rect_prob_t(5.0, sigma, [0.4, -0.1], "lower") == rect_prob_t(
        5.0, sigma, [-0.4, 0.1], "upper"
    )


def test_t_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        rect_prob_t(0.0, np.eye(2), [0.0, 0.0])
    with pytest.raises(ParameterError):
        rect_prob_t(5.0, np.eye(3), np.zeros(3))


# ---------------------------------------------------------------------------
# clayton corners


def test_clayton_closed_form_values():
    # frozen evaluations of 1 - 2 u0 + (2 u0^-d - 1)^(-1/d)
    assert abs(clayton_corner_prob(3.0, ndtr(2.130)) - 1.0483310e-03) < 1e-9
    assert abs(clayton_corner_prob(3.0, ndtr(1.115)) - 5.0421738e-02) < 1e-8


def test_clayton_matches_bivariate_survival_identity():
    for delta, u0 in [(0.5, 0.3), (1.0, 0.9), (3.0, 0.983414), (8.0, 0.99)]:
        direct = 1.0 - 2.0 * u0 + (2.0 * u0**-delta - 1.0) ** (-1.0 / delta)
        assert abs(clayton_corner_prob(delta, u0) - direct) < 1e-12


def test_clayton_small_threshold_tends_to_one():
    assert abs(clayton_corner_prob(3.0, 1e-12) - 1.0) < 1e-9


def test_clayton_monotone_decreasing_in_threshold():
    u = [ndtr(p) for p in (1.115, 1.600, 1.780, 2.130)]
    vals = [clayton_corner_prob(3.0, x) for x in u]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_clayton_higher_dimension_is_smaller():
    p2 = clayton_corner_prob(3.0, 0.95, d=2)
    p3 = clayton_corner_prob(3.0, 0.95, d=3)
    assert 0.0 < p3 < p2


def test_clayton_rejects_bad_inputs():
    with pytest.raises(ParameterError):
        clayton_corner_prob(-1.0, 0.5)
    with pytest.raises(ParameterError):
        clayton_corner_prob(3.0, 1.0)
    with pytest.raises(ParameterError):
        clayton_corner_prob(3.0, 0.5, d=0)
    for d in (2.0, 2.5, True, "2"):
        with pytest.raises(ParameterError):
            clayton_corner_prob(3.0, 0.9, d)


def test_clayton_rejects_a_parameter_whose_reciprocal_overflows():
    # 1/delta is the shape of the frailty's gamma law; at 1e-320 it is inf
    with pytest.raises(ParameterError, match="finite reciprocal"):
        clayton_corner_prob(1e-320, 0.5)


@pytest.mark.parametrize("call", [
    lambda: clayton_corner_prob("3", 0.5),
    lambda: clayton_corner_prob(3.0, "0.5"),
    lambda: vine_corner_prob(vine_preset("3d"), "0.9"),
    lambda: rect_prob_t("5", np.eye(2), [1.0, 1.0]),
    lambda: rect_prob_gaussian(np.eye(2), ["a", 1]),
], ids=["clayton-delta", "clayton-threshold", "vine-threshold", "t-nu", "gaussian-thresholds"])
def test_oracles_refuse_non_numeric_arguments(call):
    with pytest.raises(ParameterError, match="must be real"):
        call()
