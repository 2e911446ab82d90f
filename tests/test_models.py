"""Copula model construction, event transforms, Rosenblatt maps, samplers."""

import mp_t
import mpmath
import numpy as np
import pytest
from scipy.special import ndtr, stdtr, stdtrit
from scipy.stats import kstest

from tailtilt.copulas import (
    CopulaSpec,
    CornerEvent,
    PairCopula,
    event_uniform_thresholds,
    h_func,
    latent_thresholds,
    rosenblatt_forward,
    rosenblatt_inverse,
    sample_copula_uniforms,
    vine_preset,
    vine_rosenblatt_forward,
    vine_rosenblatt_inverse,
)
from tailtilt.errors import DomainError, ParameterError, ShapeError
from tailtilt.oracle import clayton_corner_prob, rect_prob_gaussian, rect_prob_t
from tailtilt.randkit import MarginSpec, make_stream, margin_quantile

STD_NORMAL = MarginSpec("std-normal")


def corr(rho: float, d: int = 2) -> np.ndarray:
    s = np.full((d, d), rho)
    np.fill_diagonal(s, 1.0)
    return s


def gaussian_spec(rho: float, d: int = 2, margin: MarginSpec = STD_NORMAL) -> CopulaSpec:
    return CopulaSpec("gaussian", margins=(margin,) * d, sigma=corr(rho, d))


def t_spec(nu: float, rho: float, d: int = 2, margin: MarginSpec = STD_NORMAL) -> CopulaSpec:
    return CopulaSpec("student-t", margins=(margin,) * d, sigma=corr(rho, d), nu=nu)


def clayton_spec(delta: float, d: int = 2, margin: MarginSpec = STD_NORMAL) -> CopulaSpec:
    return CopulaSpec("clayton", margins=(margin,) * d, delta=delta)


# ---------------------------------------------------------------------------
# construction and event transforms


def test_spec_validation():
    with pytest.raises(ParameterError):
        CopulaSpec("gumbel", margins=(STD_NORMAL,) * 2, delta=3.0)
    with pytest.raises(ParameterError):
        CopulaSpec("gaussian", margins=(STD_NORMAL,) * 2)
    with pytest.raises(ShapeError):
        CopulaSpec("gaussian", margins=(STD_NORMAL,) * 3, sigma=corr(0.5, 2))
    bad = corr(0.5)
    bad[0, 1] = 0.4
    with pytest.raises(ParameterError):
        CopulaSpec("gaussian", margins=(STD_NORMAL,) * 2, sigma=bad)
    with pytest.raises(ParameterError):
        CopulaSpec("gaussian", margins=(STD_NORMAL,) * 2, sigma=2.0 * np.eye(2))
    with pytest.raises(ParameterError):
        CopulaSpec("student-t", margins=(STD_NORMAL,) * 2, sigma=corr(0.2), nu=0.0)
    with pytest.raises(ParameterError):
        CopulaSpec("clayton", margins=(STD_NORMAL,) * 2, delta=-1.0)
    for nu in (np.inf, np.nan):
        with pytest.raises(ParameterError):
            CopulaSpec("student-t", margins=(STD_NORMAL,) * 2, sigma=corr(0.5), nu=nu)
    for nu in (0.05, 0.1, np.nextafter(0.2, 0.0)):  # under the t quantile's floor
        with pytest.raises(ParameterError, match=r"at least 0\.2"):
            CopulaSpec("student-t", margins=(STD_NORMAL,) * 2, sigma=corr(0.5), nu=nu)
    assert CopulaSpec("student-t", margins=(STD_NORMAL,) * 2, sigma=corr(0.5), nu=0.2).nu == 0.2
    for delta in (np.inf, np.nan, 5e-324):
        with pytest.raises(ParameterError):
            CopulaSpec("clayton", margins=(STD_NORMAL,) * 2, delta=delta)
    with pytest.raises(ParameterError):
        CornerEvent("diagonal", [1.0, 1.0])


@pytest.mark.parametrize("field, build", [
    ("df", lambda: MarginSpec("student-t", df="3")),
    ("rate", lambda: MarginSpec("exponential", rate=None)),
    ("nu", lambda: CopulaSpec("student-t", (STD_NORMAL,) * 2, sigma=corr(0.5), nu="5")),
    ("delta", lambda: CopulaSpec("clayton", (STD_NORMAL,) * 2, delta="3")),
    ("sigma", lambda: CopulaSpec("gaussian", (STD_NORMAL,) * 2, sigma="x")),
    ("sigma", lambda: CopulaSpec("gaussian", (STD_NORMAL,) * 2, sigma=[[1.0, 0.0], [0.0]])),
    ("thresholds", lambda: CornerEvent("upper", ["a", "b"])),
    ("thresholds", lambda: CornerEvent("upper", [True, True])),
])
def test_non_numeric_parameters_raise_naming_the_field(field, build):
    with pytest.raises(ParameterError, match=field):
        build()


def test_transform_event_gaussian_margins_cancel():
    c = gaussian_spec(0.0)
    a = latent_thresholds(c, CornerEvent("upper", [1.857, 1.857]))
    np.testing.assert_allclose(a, [1.857, 1.857], atol=1e-12)


def test_transform_event_exponential_margins():
    c = gaussian_spec(0.0, margin=MarginSpec("exponential", rate=1.0))
    a = latent_thresholds(c, CornerEvent("upper", [3.454, 3.454]))
    np.testing.assert_allclose(a, [1.857, 1.857], atol=1e-3)


def test_transform_event_t():
    c = t_spec(5.0, 0.0, margin=MarginSpec("student-t", df=2.0))
    a = latent_thresholds(c, CornerEvent("upper", [6.128, 6.128]))
    np.testing.assert_allclose(a, [3.1419202680] * 2, atol=1e-9)


def test_transform_event_clayton_is_uniform_scale():
    c = clayton_spec(3.0)
    e = CornerEvent("upper", [2.130, 2.130])
    np.testing.assert_allclose(latent_thresholds(c, e), [0.983414193316] * 2, atol=1e-10)
    np.testing.assert_array_equal(event_uniform_thresholds(c, e), latent_thresholds(c, e))


def test_transform_event_outside_support():
    c = gaussian_spec(0.0, margin=MarginSpec("exponential", rate=1.0))
    with pytest.raises(DomainError):
        latent_thresholds(c, CornerEvent("upper", [-0.5, 1.0]))
    cu = gaussian_spec(0.0, margin=MarginSpec("uniform01"))
    with pytest.raises(DomainError):
        latent_thresholds(cu, CornerEvent("upper", [0.5, 1.5]))


@pytest.mark.parametrize(
    "c",
    [gaussian_spec(0.5), t_spec(5.0, 0.5), clayton_spec(3.0)],
    ids=["gaussian", "student-t", "clayton"],
)
def test_transform_event_monotone_in_thresholds(c):
    grid = np.linspace(0.2, 2.5, 9)
    stars = np.array([latent_thresholds(c, CornerEvent("upper", [t, t]))[0] for t in grid])
    assert np.all(np.diff(stars) > 0.0)


# ---------------------------------------------------------------------------
# Rosenblatt transforms


def test_gaussian_independence_rosenblatt_is_identity():
    c = gaussian_spec(0.0)
    v = make_stream(1, 0).uniforms(200).reshape(100, 2)
    np.testing.assert_allclose(rosenblatt_inverse(c, v), v, atol=1e-12)


def test_gaussian_median_point_is_fixed():
    c = gaussian_spec(0.5)
    u = rosenblatt_inverse(c, np.array([[0.5, 0.5]]))
    np.testing.assert_allclose(u, [[0.5, 0.5]], atol=1e-12)


@pytest.mark.parametrize(
    "c",
    [
        gaussian_spec(0.5),
        gaussian_spec(-0.5),
        CopulaSpec(
            "gaussian",
            margins=(STD_NORMAL,) * 4,
            sigma=np.eye(4) + 0.5 * (np.eye(4, k=1) + np.eye(4, k=-1)),
        ),
        t_spec(5.0, 0.5),
        t_spec(5.0, 0.5, d=3),
        clayton_spec(3.0),
        clayton_spec(3.0, d=4),
    ],
    ids=["g05", "gm05", "g4tri", "t2d", "t3d", "cl2d", "cl4d"],
)
def test_rosenblatt_round_trip(c):
    v = make_stream(7, 1).uniforms(400 * c.d).reshape(400, c.d)
    u = rosenblatt_inverse(c, v)
    np.testing.assert_allclose(rosenblatt_forward(c, u), v, atol=1e-7)


def test_clayton_round_trip_on_grid():
    c = clayton_spec(3.0)
    g = np.linspace(0.05, 0.95, 10)
    v = np.stack([x.ravel() for x in np.meshgrid(g, g)], axis=1)
    u = rosenblatt_inverse(c, v)
    np.testing.assert_allclose(rosenblatt_forward(c, u), v, atol=1e-8)


def test_rosenblatt_shape_errors():
    c = gaussian_spec(0.5)
    with pytest.raises(ShapeError):
        rosenblatt_inverse(c, np.zeros((10, 3)))
    with pytest.raises(ShapeError):
        rosenblatt_forward(c, np.zeros((4, 1)))


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("family", ["gaussian", "student-t"])
def test_rosenblatt_inverse_maps_a_row_alone_as_in_a_block(family, d):
    # the corner indicators map only the rows that can still reach the
    # corner, so a row's image must not depend on how many rows share its call
    c = gaussian_spec(0.5, d) if family == "gaussian" else t_spec(5.0, 0.5, d)
    v = make_stream(11, 2).uniforms(500 * d).reshape(500, d)
    alone = np.concatenate([rosenblatt_inverse(c, row[None, :]) for row in v])
    np.testing.assert_array_equal(alone, rosenblatt_inverse(c, v))


@pytest.mark.parametrize(
    "c,pc",
    [
        (gaussian_spec(0.5), PairCopula("gaussian", rho=0.5)),
        (t_spec(5.0, 0.5), PairCopula("student-t", nu=5.0, rho=0.5)),
        (clayton_spec(3.0), PairCopula("clayton", delta=3.0)),
    ],
    ids=["gaussian", "student-t", "clayton"],
)
def test_bivariate_forward_agrees_with_pair_h(c, pc):
    u = make_stream(3, 2).uniforms(600).reshape(300, 2)
    v = rosenblatt_forward(c, u)
    np.testing.assert_allclose(v[:, 0], u[:, 0], atol=1e-12)
    np.testing.assert_allclose(v[:, 1], h_func(pc, u[:, 1], u[:, 0]), atol=1e-9)


# the 4-d tridiagonal correlation: its Cholesky factor is bidiagonal
TRIDIAG_4 = np.eye(4) + np.diag([0.5, 0.4, -0.3], 1) + np.diag([0.5, 0.4, -0.3], -1)
# every how many rows of 50,000 the t maps are checked, by dimension
ROWS_STEP = {2: 100, 4: 250}


def _t_conditional(sigma, nu, q, k):
    """Location, scale and degrees of freedom of t component k given the
    components q[:, :k], from the conditional law of the multivariate t."""
    a, b = sigma[:k, :k], sigma[k, :k]
    w = np.linalg.solve(a, b)
    quad = np.einsum("ij,ji->i", q[:, :k], np.linalg.solve(a, q[:, :k].T))
    scale = np.sqrt((nu + quad) / (nu + k) * (sigma[k, k] - b @ w))
    return q[:, :k] @ w, scale, nu + k


def _mp_t_cdf(df, x):
    with mpmath.workdps(30):
        return np.array([float(mp_t.t_cdf(df, float(a))) for a in x])


def _mp_t_quantile(df, p):
    with mpmath.workdps(30):
        return np.array([float(mp_t.t_quantile(df, float(a), start=float(stdtrit(df, a))))
                         for a in p])


def _t_forward_reference(c, u):
    q = np.column_stack([_mp_t_quantile(c.nu, u[:, k]) for k in range(c.d)])
    v = u.copy()
    for k in range(1, c.d):
        loc, scale, df = _t_conditional(c.sigma, c.nu, q, k)
        v[:, k] = _mp_t_cdf(df, (q[:, k] - loc) / scale)
    return v


def _t_inverse_reference(c, v):
    q = np.empty_like(v)
    q[:, 0] = _mp_t_quantile(c.nu, v[:, 0])
    for k in range(1, c.d):
        loc, scale, df = _t_conditional(c.sigma, c.nu, q, k)
        q[:, k] = loc + scale * _mp_t_quantile(df, v[:, k])
    u = v.copy()
    for k in range(1, c.d):
        u[:, k] = _mp_t_cdf(c.nu, q[:, k])
    return u


@pytest.mark.parametrize("nu", [0.2, 3.0, 30.0])
@pytest.mark.parametrize("sigma", [corr(-0.6), TRIDIAG_4], ids=["d2", "d4-tridiagonal"])
def test_t_maps_match_the_conditional_law(sigma, nu):
    # the references take the t quantiles and CDFs from mpmath, on a subsample
    # of the rows: scipy's quantile is off by up to 3e-9 near 1/2 at df = 4
    c = CopulaSpec("student-t", (STD_NORMAL,) * len(sigma), sigma=sigma, nu=nu)
    w = make_stream(17, 0).uniforms(50_000 * c.d).reshape(-1, c.d)[::ROWS_STEP[c.d]]
    np.testing.assert_allclose(rosenblatt_forward(c, w), _t_forward_reference(c, w),
                               rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(rosenblatt_inverse(c, w), _t_inverse_reference(c, w),
                               rtol=0.0, atol=1e-12)


def test_t_inverse_keeps_the_exact_zero_of_a_bidiagonal_factor():
    # with v3 = v4 = 1/2 the latent q4 = L43 y3 + L44 y4 is exactly 0, however
    # far out v1 and v2 lie, so u4 is the t median
    c = CopulaSpec("student-t", (STD_NORMAL,) * 4, sigma=TRIDIAG_4, nu=0.5)
    tiny = 2.0**-53
    v = np.array([[1.0 - tiny, tiny, 0.5, 0.5], [tiny, 1e-12, 0.5, 0.5]])
    assert rosenblatt_inverse(c, v)[:, 3].tolist() == [0.5, 0.5]


DOMAIN_MAPS = {
    "gaussian": (gaussian_spec(0.5), rosenblatt_forward, rosenblatt_inverse, "u"),
    "student-t": (t_spec(5.0, 0.5), rosenblatt_forward, rosenblatt_inverse, "u"),
    "clayton": (clayton_spec(3.0), rosenblatt_forward, rosenblatt_inverse, "u"),
    "vine-3d": (vine_preset("3d"), vine_rosenblatt_forward, vine_rosenblatt_inverse, "x"),
}


@pytest.mark.parametrize("bad", [0.0, 1.0, np.nan, 1.5], ids=["0", "1", "nan", "1.5"])
@pytest.mark.parametrize("inverse", [False, True], ids=["forward", "inverse"])
@pytest.mark.parametrize("name", list(DOMAIN_MAPS))
def test_rosenblatt_maps_refuse_entries_outside_the_open_unit_interval(name, inverse, bad):
    model, forward, backward, arg = DOMAIN_MAPS[name]
    rows = np.full((3, model.d), 0.5)
    rows[1, -1] = bad
    with pytest.raises(DomainError, match=f"entry of {'v' if inverse else arg} "):
        (backward if inverse else forward)(model, rows)


# ---------------------------------------------------------------------------
# crude samplers


def test_gaussian_cim_route_maps_the_same_words_as_direct():
    # both routes read the same words; they round apart because the inverse
    # map passes v1 through and sums each column elementwise, where the
    # latent route takes ndtr(ndtri(v1)) and a matrix product
    c = gaussian_spec(0.5, 3)
    a = sample_copula_uniforms(c, make_stream(5, 0), 1000, route="direct")
    b = sample_copula_uniforms(c, make_stream(5, 0), 1000, route="cim")
    np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-15)


def test_sampler_rejects_bad_route_and_size():
    c = gaussian_spec(0.5)
    with pytest.raises(ParameterError):
        sample_copula_uniforms(c, make_stream(0, 0), 10, route="sobol")
    for n in (0, 2.5, "3", True):
        with pytest.raises(ParameterError, match="sample size"):
            sample_copula_uniforms(c, make_stream(0, 0), n)


N_DIST = 1_000_000


@pytest.fixture(scope="module")
def gaussian_draws():
    return sample_copula_uniforms(gaussian_spec(0.5), make_stream(101, 0), N_DIST)


@pytest.fixture(scope="module")
def t_draws():
    return sample_copula_uniforms(t_spec(5.0, 0.0), make_stream(102, 0), N_DIST)


@pytest.fixture(scope="module")
def clayton_draws():
    return sample_copula_uniforms(clayton_spec(3.0), make_stream(103, 0), N_DIST)


@pytest.mark.parametrize("p", [0.3, 0.8, 1.100, 1.712, 1.936, 2.395])
def test_gaussian_corner_probabilities(gaussian_draws, p):
    u0 = ndtr(p)
    hits = np.all(gaussian_draws > u0, axis=1).mean()
    want = rect_prob_gaussian(corr(0.5), [p, p])
    se = np.sqrt(want * (1.0 - want) / N_DIST)
    assert abs(hits - want) < 4.0 * se


@pytest.mark.parametrize("p", [0.2, 0.8, 1.25, 2.09, 2.51, 3.68])
def test_t_corner_probabilities(t_draws, p):
    u0 = stdtr(5.0, p)
    hits = np.all(t_draws > u0, axis=1).mean()
    want = rect_prob_t(5.0, np.eye(2), [p, p])
    se = np.sqrt(want * (1.0 - want) / N_DIST)
    assert abs(hits - want) < 4.0 * se


@pytest.mark.parametrize("p", [0.3, 0.8, 1.115, 1.600, 1.780, 2.130])
def test_clayton_corner_probabilities(clayton_draws, p):
    u0 = float(ndtr(p))
    hits = np.all(clayton_draws > u0, axis=1).mean()
    want = clayton_corner_prob(3.0, u0)
    se = np.sqrt(want * (1.0 - want) / N_DIST)
    assert abs(hits - want) < 4.0 * se


def test_t_heavy_tail_corner_matches_mixture_oracle(t_draws):
    astar = stdtrit(5.0, stdtr(2.0, 6.128))
    u0 = stdtr(5.0, astar)
    hits = np.all(t_draws > u0, axis=1).mean()
    want = rect_prob_t(5.0, np.eye(2), [astar, astar])
    se = np.sqrt(want * (1.0 - want) / N_DIST)
    assert abs(hits - want) < 4.0 * se


@pytest.mark.parametrize(
    "c,margin_checks",
    [
        (
            gaussian_spec(0.5, margin=MarginSpec("exponential", rate=1.0)),
            ("expon", ()),
        ),
        (t_spec(5.0, 0.5, margin=MarginSpec("student-t", df=2.0)), ("t", (2.0,))),
        (clayton_spec(3.0), ("norm", ())),
    ],
    ids=["gaussian-exp", "t-t2", "clayton-normal"],
)
def test_crude_margins_pass_ks(c, margin_checks):
    dist, args = margin_checks
    u = sample_copula_uniforms(c, make_stream(104, 0), 100_000, "direct")
    x = np.column_stack([margin_quantile(m, np.clip(u[:, i], 1e-15, 1.0 - 1e-15))
                         for i, m in enumerate(c.margins)])
    for col in range(c.d):
        assert kstest(x[:, col], dist, args=args).pvalue > 0.001
