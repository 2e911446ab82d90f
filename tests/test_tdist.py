"""The numpy t CDF and quantile for integer degrees of freedom, checked
against mpmath at 60 digits, and their fallback to scipy for every other nu."""

from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mp_t import t_cdf as mp_cdf
from mp_t import t_quantile as mp_quantile
from scipy.special import stdtr, stdtrit

from tailtilt.randkit import _T_INT_MAX, _t_cdf, _t_quantile

NUS = list(range(1, _T_INT_MAX + 1))
ABS = 2.0**-52  # largest absolute error of F
REL = 1e-13  # largest relative error of F where F < 1/2

X = np.concatenate([-np.logspace(8, -8, 129), [0.0], np.logspace(-8, 8, 129),
                    np.linspace(-12.0, 12.0, 121)])
P = np.sort(np.concatenate([np.logspace(-300, -2, 120), np.linspace(0.01, 0.99, 99),
                            1.0 - np.logspace(-2, np.log10(2.0**-53), 40), [2.0**-53, 0.5]]))


def assert_near(got: list, want, what: str) -> None:
    """Each mpf in ``got`` within ABS of ``want``'s, and within REL of it,
    relative, where it is below 1/2."""
    for g, w in zip(got, want):
        w = mpmath.mpf(float(w)) if not isinstance(w, mpmath.mpf) else w
        err = abs(g - w)
        assert err <= ABS, (what, float(w), float(err))
        assert w >= 0.5 or err <= REL * w, (what, float(w), float(err / w))


@pytest.mark.parametrize("nu", NUS)
def test_cdf_matches_mpmath(nu):
    with mpmath.workdps(60):
        want = [mp_cdf(nu, x) for x in X]
        assert_near([mpmath.mpf(float(f)) for f in _t_cdf(nu, X)], want, f"cdf nu={nu}")


@pytest.mark.parametrize("nu", NUS)
def test_cdf_at_the_quantile_returns_p(nu):
    q = _t_quantile(nu, P)
    assert np.all(np.diff(q) >= 0.0)
    with mpmath.workdps(60):
        assert_near([mp_cdf(nu, x) for x in q], P, f"quantile nu={nu}")


@settings(max_examples=300, deadline=None)
@given(nu=st.sampled_from(NUS), a=st.floats(-1e8, 1e8), b=st.floats(-1e8, 1e8))
def test_cdf_is_monotone_and_its_two_tails_sum_to_one(nu, a, b):
    lo, hi = sorted((a, b))
    F_lo, F_hi, F_mirror = _t_cdf(nu, np.array([lo, hi, -lo]))
    # monotone up to the error each value may carry: rounding makes any
    # computed CDF, scipy's too, step down by an ulp between some neighbours
    assert F_lo <= F_hi + 2.0 * (ABS if F_hi >= 0.5 else min(ABS, REL * F_hi))
    assert abs(Fraction(F_lo) + Fraction(F_mirror) - 1) <= 2**-52


@pytest.mark.parametrize("nu", [0.2, 2.5, 30.5, _T_INT_MAX + 1])
def test_every_other_nu_is_scipys(nu):
    np.testing.assert_array_equal(_t_cdf(nu, X), stdtr(nu, X))
    np.testing.assert_array_equal(_t_quantile(nu, P), stdtrit(nu, P))


@pytest.mark.parametrize("e", [1e-12, -1e-12, 1e-9, -1e-9, 3e-9, -3e-9, 2e-5, -2e-5])
@pytest.mark.parametrize("nu", [4, 6])
def test_quantile_near_one_half(nu, e):
    # scipy's stdtrit(4, 1/2 + e) reads exactly 0 for |e| <= 3e-9, and is off
    # by 2.8e-6, relative, at e = 3e-6
    p = 0.5 + e
    with mpmath.workdps(60):
        want = mp_quantile(nu, p, start=float(stdtrit(nu, p)))
        err = abs(mpmath.mpf(float(_t_quantile(nu, p))) - want)
        assert err <= 1e-15 * abs(want), float(err / abs(want))
