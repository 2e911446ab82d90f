"""Stream reproducibility, margin transforms, and base sampler checks.

Expected moments come from closed forms evaluated inside the tests, and
sampling checks use a 4 standard error budget so they are deterministic
under the fixed seeds yet would catch a real distributional bug.
"""

import mpmath
import numpy as np
import pytest
from scipy.stats import kstest

from tailtilt.errors import DomainError, FactorizationError, ParameterError
from tailtilt.randkit import (
    MarginSpec,
    RngStream,
    make_stream,
    margin_cdf,
    margin_quantile,
    sample_gamma,
    sample_mvn,
)
from tailtilt.tilting import TiltFamily, sample_tilted

N_BIG = 100_000

# quantile of the t distribution with 2 degrees of freedom at q = 0.9,
# from the closed form (2q - 1) * sqrt(2 / (4 q (1 - q)))
T2_QUANTILE_090 = 0.8 * np.sqrt(2.0 / 0.36)


def trunc_exp(s, theta: float, n: int) -> np.ndarray:
    """``n`` draws of density theta e^{theta v}/(e^theta - 1) on (0,1)."""
    return sample_tilted(TiltFamily("trunc-exp-product", 1), s, (theta,), n).x[:, 0]


def trunc_exp_mean(theta: float) -> float:
    """Mean of density theta*e^{theta v}/(e^theta - 1) on (0,1)."""
    if theta == 0.0:
        return 0.5
    return 1.0 / (-np.expm1(-theta)) - 1.0 / theta


# ---------------------------------------------------------------------------
# streams


def test_same_key_reproduces_identical_draws():
    a = make_stream(42, 0).uniforms(100)
    b = make_stream(42, 0).uniforms(100)
    np.testing.assert_array_equal(a, b)


def test_position_counts_words_and_splits_are_invariant():
    s = make_stream(7, 3)
    assert s.position == 0
    u = s.uniforms(7)
    assert s.position == 7
    s.normals(5)
    assert s.position == 12

    whole = make_stream(7, 3).uniforms(10)
    split = make_stream(7, 3)
    parts = np.concatenate([split.uniforms(4), split.uniforms(6)])
    np.testing.assert_array_equal(whole, parts)
    assert u.shape == (7,)


def test_distinct_stream_ids_decorrelate():
    u0 = make_stream(42, 0).uniforms(N_BIG)
    u1 = make_stream(42, 1).uniforms(N_BIG)
    assert not np.array_equal(u0, u1)
    corr = np.corrcoef(u0, u1)[0, 1]
    assert abs(corr) < 0.01


def test_uniforms_lie_strictly_inside_unit_interval():
    u = make_stream(1, 0).uniforms(N_BIG)
    assert u.min() > 0.0
    assert u.max() < 1.0


class FixedWords:
    """Stands in for a stream's generator: returns the given raw words."""

    def __init__(self, words):
        self.words = np.array(words, dtype=np.uint64)

    def integers(self, low, high, size, dtype, endpoint):
        return self.words[:size].copy()


def edge_stream() -> RngStream:
    """A stream whose words are the two lowest and the two highest of the
    2⁶⁴: both ends of the uniform grid, and the top 2¹¹ words, whose
    midpoint rounds to 1."""
    return RngStream(seed=0, stream_id=0,
                     _gen=FixedWords([0, 2**11, 2**64 - 2**11, 2**64 - 1]))


def test_uniforms_at_the_top_words_stay_below_one():
    u = edge_stream().uniforms(4)
    np.testing.assert_array_equal(u, [2.0**-54, 1.5 * 2.0**-53, 1.0 - 2.0**-53, 1.0 - 2.0**-53])


def test_uniforms_pass_ks_against_uniform():
    u = make_stream(42, 0).uniforms(N_BIG)
    assert kstest(u, "uniform").pvalue > 0.001


def test_normals_pass_ks_and_match_moments():
    z = make_stream(42, 5).normals(N_BIG)
    assert kstest(z, "norm").pvalue > 0.001
    assert abs(z.mean()) < 4.0 / np.sqrt(N_BIG)
    # variance of the sample variance of a normal is 2/n
    assert abs(z.var() - 1.0) < 4.0 * np.sqrt(2.0 / N_BIG)


# ---------------------------------------------------------------------------
# margins


def test_margin_spec_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        MarginSpec("lognormal")
    with pytest.raises(ParameterError):
        MarginSpec("exponential", rate=0.0)
    with pytest.raises(ParameterError):
        MarginSpec("student-t", df=-2.0)


def test_student_t_margin_has_the_t_quantile_floor():
    # at df = 0.1 scipy's quantile at 1.9e-16 reads +inf
    for df in (0.05, 0.1, np.nextafter(0.2, 0.0), np.inf, np.nan):
        with pytest.raises(ParameterError, match=r"df must be finite and at least 0\.2"):
            MarginSpec("student-t", df=df)
    m = MarginSpec("student-t", df=0.2)
    v = np.array([1.878e-16, 1e-12, 0.3])
    x = margin_quantile(m, v)
    assert np.all(np.isfinite(x)) and np.all(np.diff(x) > 0.0)
    np.testing.assert_allclose(margin_cdf(m, x), v, rtol=1e-6)


def test_margin_labels():
    assert MarginSpec("std-normal").label() == "std-normal"
    assert MarginSpec("exponential", rate=2.0).label() == "exponential(2)"
    assert MarginSpec("student-t", df=5.0).label() == "student-t(5)"


def test_std_normal_margin_values():
    m = MarginSpec("std-normal")
    assert margin_cdf(m, 0.0) == 0.5
    assert abs(margin_quantile(m, 0.975) - 1.959964) < 1e-5


def test_exponential_margin_matches_closed_form():
    m = MarginSpec("exponential", rate=2.0)
    x = np.array([0.1, 0.5, 2.0])
    np.testing.assert_allclose(margin_cdf(m, x), -np.expm1(-2.0 * x), rtol=1e-14)
    assert margin_cdf(m, -1.0) == 0.0
    assert margin_cdf(m, 0.0) == 0.0
    assert abs(margin_quantile(m, 0.5) - np.log(2.0) / 2.0) < 1e-14


def test_student_t2_margin_matches_closed_form():
    # with 2 degrees of freedom: F(x) = 1/2 + x / (2 sqrt(2 + x^2))
    m = MarginSpec("student-t", df=2.0)
    x = np.array([-6.128, -1.0, 0.0, 1.886, 3.066, 6.128])
    closed = 0.5 + x / (2.0 * np.sqrt(2.0 + x * x))
    np.testing.assert_allclose(margin_cdf(m, x), closed, atol=1e-12)
    assert abs(margin_quantile(m, 0.9) - T2_QUANTILE_090) < 1e-9


def test_uniform_margin_is_identity_with_clamping():
    m = MarginSpec("uniform01")
    np.testing.assert_array_equal(margin_cdf(m, [-0.5, 0.25, 2.0]), [0.0, 0.25, 1.0])
    assert margin_quantile(m, 0.3) == 0.3


@pytest.mark.parametrize(
    "m",
    [
        MarginSpec("std-normal"),
        MarginSpec("exponential", rate=1.0),
        MarginSpec("exponential", rate=0.25),
        MarginSpec("student-t", df=2.0),
        MarginSpec("student-t", df=5.0),
        MarginSpec("uniform01"),
    ],
    ids=lambda m: m.label(),
)
def test_quantile_cdf_roundtrip(m):
    lo = np.logspace(-8, -1, 30)
    q = np.unique(np.concatenate([lo, np.linspace(0.1, 0.9, 17), 1.0 - lo]))
    back = margin_cdf(m, margin_quantile(m, q))
    np.testing.assert_allclose(back, q, atol=1e-9, rtol=0.0)


@pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
def test_quantile_rejects_boundary_arguments(bad):
    with pytest.raises(DomainError):
        margin_quantile(MarginSpec("std-normal"), bad)


# ---------------------------------------------------------------------------
# tilted uniforms


def test_trunc_exp_zero_tilt_is_plain_uniform_bit_for_bit():
    u = make_stream(11, 0).uniforms(1000)
    v = trunc_exp(make_stream(11, 0), 0.0, 1000)
    np.testing.assert_array_equal(u, v)
    w = trunc_exp(make_stream(11, 0), -0.0, 1000)
    np.testing.assert_array_equal(u, w)


@pytest.mark.parametrize("theta", [-5.0, -1.0, 0.0, 1.0, 5.0, 20.0])
def test_trunc_exp_mean_matches_closed_form(theta):
    v = trunc_exp(make_stream(3, 1), theta, N_BIG)
    assert v.min() > 0.0 and v.max() < 1.0
    se = v.std(ddof=1) / np.sqrt(N_BIG)
    assert abs(v.mean() - trunc_exp_mean(theta)) < 4.0 * se


def test_trunc_exp_conjugate_false_reflects_the_mean():
    theta = 2.0
    v = trunc_exp(make_stream(9, 4), -theta, N_BIG)
    se = v.std(ddof=1) / np.sqrt(N_BIG)
    assert abs(v.mean() - (1.0 - trunc_exp_mean(theta))) < 4.0 * se
    # and the frozen value of the conjugate mean itself at theta = 2
    assert abs(trunc_exp_mean(2.0) - 0.6565176) < 1e-6


def test_trunc_exp_branch_seams_are_continuous():
    # same words on both sides of each branch threshold
    for lo, hi, tol in [(9.9e-7, 1.01e-6, 1e-8), (499.5, 500.5, 1e-4)]:
        a = trunc_exp(make_stream(5, 2), lo, 10_000)
        b = trunc_exp(make_stream(5, 2), hi, 10_000)
        assert np.max(np.abs(a - b)) < tol


def test_trunc_exp_extreme_tilt_stays_in_bounds():
    v = trunc_exp(make_stream(6, 0), 800.0, 10_000)
    assert v.min() > 0.0 and v.max() < 1.0
    se = max(v.std(ddof=1) / np.sqrt(10_000), 1e-12)
    assert abs(v.mean() - trunc_exp_mean(800.0)) < 4.0 * se + 1e-6


@pytest.mark.parametrize("theta", [1.0, -1.0, 50.0, -50.0, 600.0, -600.0, 1e7, -1e7])
def test_trunc_exp_is_accurate_at_both_edges_of_the_grid(theta):
    v = trunc_exp(edge_stream(), theta, 4)
    u = edge_stream().uniforms(4)
    assert np.all((v > 0.0) & (v < 1.0))
    for ui, vi in zip(u, v):
        with mpmath.workdps(40):
            t = mpmath.mpf(theta)
            want = float(mpmath.log1p(ui * mpmath.expm1(t)) / t)
        # 1 itself is no draw: the closest is the largest double below it
        want = min(want, 1.0 - 2.0**-53)
        assert vi == pytest.approx(want, rel=4e-16, abs=0.0), (ui, vi, want)


def test_trunc_exp_rejects_non_finite_tilt():
    with pytest.raises(DomainError):
        trunc_exp(make_stream(0, 0), np.inf, 1)
    with pytest.raises(DomainError):
        trunc_exp(make_stream(0, 0), np.nan, 1)


# ---------------------------------------------------------------------------
# gamma


@pytest.mark.parametrize("shape,rate", [(1.0, 1.0), (1.0 / 3.0, 1.0), (2.5, 0.5), (7.0, 2.0)])
def test_gamma_moments(shape, rate):
    g = sample_gamma(make_stream(13, 0), shape, rate, N_BIG)
    assert g.min() > 0.0
    se = g.std(ddof=1) / np.sqrt(N_BIG)
    assert abs(g.mean() - shape / rate) < 4.0 * se


def test_gamma_variance_at_shape_two_point_five():
    g = sample_gamma(make_stream(14, 0), 2.5, 0.5, N_BIG)
    assert abs(g.var(ddof=1) - 10.0) < 0.3


def test_gamma_is_reproducible_despite_rejection():
    a = sample_gamma(make_stream(21, 8), 0.4, 1.5, 5000)
    b = sample_gamma(make_stream(21, 8), 0.4, 1.5, 5000)
    np.testing.assert_array_equal(a, b)


def test_gamma_rejects_bad_parameters():
    s = make_stream(0, 0)
    with pytest.raises(ParameterError):
        sample_gamma(s, 0.0, 1.0)
    with pytest.raises(ParameterError):
        sample_gamma(s, 2.0, -1.0)
    for shape, rate in ((np.inf, 1.0), (np.nan, 1.0), (2.0, np.inf), (2.0, np.nan)):
        with pytest.raises(ParameterError):
            sample_gamma(s, shape, rate, 5)


# ---------------------------------------------------------------------------
# multivariate normal


def test_mvn_identity_moments():
    x = sample_mvn(make_stream(17, 0), 0.0, np.eye(2), N_BIG)
    assert x.shape == (N_BIG, 2)
    assert np.max(np.abs(x.mean(axis=0))) < 4.0 / np.sqrt(N_BIG)
    c = np.corrcoef(x.T)[0, 1]
    assert abs(c) < 4.0 / np.sqrt(N_BIG)


def test_mvn_correlated_moments_and_shifted_mean():
    rho = 0.5
    sigma = np.array([[1.0, rho], [rho, 1.0]])
    theta = np.array([1.58, 1.58])
    x = sample_mvn(make_stream(17, 1), sigma @ theta, sigma, N_BIG)
    c = np.corrcoef(x.T)[0, 1]
    assert abs(c - rho) < 4.0 * (1.0 - rho**2) / np.sqrt(N_BIG)
    np.testing.assert_allclose(x.mean(axis=0), sigma @ theta, atol=4.0 / np.sqrt(N_BIG))


def test_mvn_rejects_non_positive_definite_covariance():
    s = make_stream(0, 0)
    with pytest.raises(FactorizationError):
        sample_mvn(s, 0.0, np.array([[1.0, 1.0], [1.0, 1.0]]), 10)
    near = 1.0 - 1e-15
    with pytest.raises(FactorizationError):
        sample_mvn(s, 0.0, np.array([[1.0, near], [near, 1.0]]), 10)
