"""Copula model construction, event transforms, Rosenblatt maps, samplers."""

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
    rosenblatt_forward,
    rosenblatt_inverse,
    sample_copula_crude,
    sample_copula_uniforms,
    transform_event,
)
from tailtilt.errors import DomainError, ParameterError, ShapeError
from tailtilt.oracle import clayton_corner_prob, rect_prob_gaussian, rect_prob_t
from tailtilt.randkit import MarginSpec, make_stream

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
    e = transform_event(c, CornerEvent("upper", [1.857, 1.857]))
    np.testing.assert_allclose(e.a_star, [1.857, 1.857], atol=1e-12)


def test_transform_event_exponential_margins():
    c = gaussian_spec(0.0, margin=MarginSpec("exponential", rate=1.0))
    e = transform_event(c, CornerEvent("upper", [3.454, 3.454]))
    np.testing.assert_allclose(e.a_star, [1.857, 1.857], atol=1e-3)


def test_transform_event_t():
    c = t_spec(5.0, 0.0, margin=MarginSpec("student-t", df=2.0))
    e = transform_event(c, CornerEvent("upper", [6.128, 6.128]))
    np.testing.assert_allclose(e.a_star, [3.1419202680] * 2, atol=1e-9)


def test_transform_event_clayton_is_uniform_scale():
    c = clayton_spec(3.0)
    e = transform_event(c, CornerEvent("upper", [2.130, 2.130]))
    np.testing.assert_allclose(e.a_star, [0.983414193316] * 2, atol=1e-10)
    np.testing.assert_allclose(event_uniform_thresholds(c, e), e.a_star)


def test_transform_event_outside_support():
    c = gaussian_spec(0.0, margin=MarginSpec("exponential", rate=1.0))
    with pytest.raises(DomainError):
        transform_event(c, CornerEvent("upper", [-0.5, 1.0]))
    cu = gaussian_spec(0.0, margin=MarginSpec("uniform01"))
    with pytest.raises(DomainError):
        transform_event(cu, CornerEvent("upper", [0.5, 1.5]))


@pytest.mark.parametrize(
    "c",
    [gaussian_spec(0.5), t_spec(5.0, 0.5), clayton_spec(3.0)],
    ids=["gaussian", "student-t", "clayton"],
)
def test_transform_event_monotone_in_thresholds(c):
    grid = np.linspace(0.2, 2.5, 9)
    stars = np.array(
        [transform_event(c, CornerEvent("upper", [t, t])).a_star[0] for t in grid]
    )
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


# ---------------------------------------------------------------------------
# crude samplers


def test_gaussian_cim_route_matches_direct_bit_for_bit():
    c = gaussian_spec(0.5)
    a = sample_copula_uniforms(c, make_stream(5, 0), 1000, route="direct")
    b = sample_copula_uniforms(c, make_stream(5, 0), 1000, route="cim")
    np.testing.assert_array_equal(a, b)


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
    x = sample_copula_crude(c, make_stream(104, 0), 100_000)
    for col in range(c.d):
        assert kstest(x[:, col], dist, args=args).pvalue > 0.001
