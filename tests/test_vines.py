"""Vine structures, the edge-list text format, and vine transforms."""

import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import log_ndtr, ndtr

from tailtilt.copulas import (
    CopulaSpec,
    CornerEvent,
    PairCopula,
    RVineSpec,
    VineEdge,
    load_vine,
    parse_vine,
    rosenblatt_inverse,
    sample_vine_uniforms,
    vine_preset,
    vine_rosenblatt_forward,
    vine_rosenblatt_inverse,
    vines,
)
from tailtilt.copulas.pairs import h_func
from tailtilt.errors import DegeneratePilotError, ParameterError, StructureError
from tailtilt.estimators import ExperimentConfig, replicate, solve_event_theta
from tailtilt.oracle import vine_corner_prob
from tailtilt.randkit import MarginSpec, make_stream

from perfbench import refs


def gaussian_vine(d: int, rho: float, kind: str = "c") -> RVineSpec:
    """The C-vine (kind "c", root j in tree j) or D-vine (kind "d", path
    1-2-...-d) of the equicorrelated Gaussian copula: every pair at tree k+1
    carries the partial correlation rho/(1 + k rho)."""
    edges = []
    for k in range(2, d + 1):
        for j in range(1, k):
            m, D = (j, range(1, j)) if kind == "c" else (k - j, range(k - j + 1, k))
            pair = PairCopula("gaussian", rho=rho / (1.0 + (j - 1) * rho))
            edges.append(VineEdge((m, k), tuple(D), pair))
    return RVineSpec(edges=tuple(edges), margins=(MarginSpec("uniform01"),) * d)


# the README's 5-d C-vine, one pair of every family
FIVE_D = """
1,2 |       gaussian  rho=0.5
1,3 |       student-t nu=5 rho=0.4
1,4 |       clayton   delta=2
1,5 |       gumbel    delta=1.5
2,3 | 1     frank     delta=3
2,4 | 1     gaussian  rho=0.3
2,5 | 1     joe       delta=1.3
3,4 | 1,2   gaussian  rho=0.2
3,5 | 1,2   clayton   delta=1
4,5 | 1,2,3 gaussian  rho=0.1
"""


def vine_of(d: int, signatures) -> RVineSpec:
    pair = PairCopula("gaussian", rho=0.3)
    edges = tuple(VineEdge(c, D, pair) for c, D in signatures)
    return RVineSpec(edges=edges, margins=(MarginSpec("uniform01"),) * d)


# ---------------------------------------------------------------------------
# structure and parsing


def test_presets_build_and_expose_pairs():
    rv3 = vine_preset("3d")
    assert rv3.d == 3
    assert rv3.pair((1, 2)).family == "gaussian"
    assert rv3.pair((1, 3)).family == "student-t"
    assert rv3.pair((2, 3), (1,)).family == "clayton"
    rv4 = vine_preset("4d")
    assert rv4.d == 4
    assert rv4.pair((2, 4)).family == "gumbel"
    assert rv4.pair((1, 4), (2,)).family == "frank"
    assert rv4.pair((3, 4), (1, 2)).family == "joe"
    with pytest.raises(Exception):
        vine_preset("5d")


def test_edge_normalization_orders_labels():
    e = VineEdge((3, 1), (2,), PairCopula("gaussian", rho=0.1))
    assert e.conditioned == (1, 3)


def test_structure_validation_rejects_wrong_shapes():
    indep = PairCopula("gaussian", rho=0.0)
    with pytest.raises(StructureError):
        RVineSpec(
            edges=(VineEdge((1, 2), (), indep),),
            margins=(MarginSpec("uniform01"),) * 3,
        )
    with pytest.raises(StructureError):
        RVineSpec(
            edges=(
                VineEdge((1, 2), (), indep),
                VineEdge((1, 3), (), indep),
                VineEdge((2, 3), (4,), indep),
            ),
            margins=(MarginSpec("uniform01"),) * 3,
        )
    # a 4-dimensional list whose second tree pairs the wrong variables
    with pytest.raises(StructureError):
        RVineSpec(
            edges=(
                VineEdge((1, 2), (), indep),
                VineEdge((1, 3), (), indep),
                VineEdge((2, 4), (), indep),
                VineEdge((2, 3), (1,), indep),
                VineEdge((1, 4), (3,), indep),
                VineEdge((3, 4), (1, 2), indep),
            ),
            margins=(MarginSpec("uniform01"),) * 4,
        )


def test_parse_vine_round_trips_through_file(tmp_path):
    text = """
    # comment line
    1,2 |     gaussian  rho=0.5
    1,3 |     student-t nu=5 rho=0.5
    2,3 | 1   clayton   delta=3
    """
    rv = parse_vine(text)
    assert rv == vine_preset("3d")
    path = tmp_path / "vine.txt"
    path.write_text(text)
    assert load_vine(path) == rv


@pytest.mark.parametrize(
    "line",
    [
        "1,2 gaussian rho=0.5",
        "1,x | gaussian rho=0.5",
        "1,2 |",
        "1,2 | gaussian rho=high",
        "1,2 | gaussian rho=0.5 extra",
        "1,2 | hyperbolic delta=1",
    ],
)
def test_parse_vine_rejects_malformed_lines(line):
    with pytest.raises(StructureError):
        parse_vine(line)


# ---------------------------------------------------------------------------
# transforms


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 8])
def test_independence_vine_is_identity(d):
    v = make_stream(1, 0).uniforms(50 * d).reshape(50, d)
    for kind in ("c", "d"):
        rv = gaussian_vine(d, 0.0, kind)  # independence
        np.testing.assert_allclose(vine_rosenblatt_inverse(rv, v), v, atol=1e-12)
        np.testing.assert_allclose(vine_rosenblatt_forward(rv, v), v, atol=1e-12)


def test_three_dim_round_trip():
    rv = vine_preset("3d")
    v = make_stream(2, 0).uniforms(300).reshape(100, 3)
    x = vine_rosenblatt_inverse(rv, v)
    np.testing.assert_allclose(vine_rosenblatt_forward(rv, x), v, atol=1e-8)


def test_four_dim_round_trip():
    rv = vine_preset("4d")
    v = make_stream(2, 1).uniforms(400).reshape(100, 4)
    x = vine_rosenblatt_inverse(rv, v)
    np.testing.assert_allclose(vine_rosenblatt_forward(rv, x), v, atol=1e-7)


def test_transform_shape_errors():
    rv = vine_preset("3d")
    with pytest.raises(StructureError):
        vine_rosenblatt_inverse(rv, np.zeros((5, 4)))


@pytest.mark.parametrize("name", ["3d", "4d"])
def test_column_prefix_matches_full_map(name):
    rv = vine_preset(name)
    v = make_stream(3, 0).uniforms(100 * rv.d).reshape(100, rv.d)
    x = vine_rosenblatt_inverse(rv, v)
    u = vine_rosenblatt_forward(rv, x)
    for k in range(1, rv.d + 1):
        assert np.array_equal(vine_rosenblatt_inverse(rv, v[:, :k]), x[:, :k])
        assert np.array_equal(vine_rosenblatt_forward(rv, x[:, :k]), u[:, :k])
    with pytest.raises(StructureError):
        vine_rosenblatt_forward(rv, np.zeros((5, 0)))


def equicorr(rho: float, d: int) -> np.ndarray:
    return np.full((d, d), rho) + (1.0 - rho) * np.eye(d)


UNIF = MarginSpec("uniform01")
# every chain map takes the same row test: the vines and the parametric maps
KEEP_MODELS = {
    "5d": parse_vine(FIVE_D),
    "5d-gaussian-d": gaussian_vine(5, 0.5, "d"),
    "gaussian-3d": CopulaSpec("gaussian", (UNIF,) * 3, sigma=equicorr(0.5, 3)),
    "gaussian-4d": CopulaSpec("gaussian", (UNIF,) * 4, sigma=equicorr(-0.2, 4)),
    "t0.5-3d": CopulaSpec("student-t", (UNIF,) * 3, sigma=equicorr(0.5, 3), nu=0.5),
    "t5-3d": CopulaSpec("student-t", (UNIF,) * 3, sigma=equicorr(0.3, 3), nu=5.0),
    "clayton-3d": CopulaSpec("clayton", (UNIF,) * 3, delta=3.0),
}


@pytest.mark.parametrize("name", ["3d", "4d", *KEEP_MODELS])
def test_keep_maps_the_rows_it_keeps_to_the_full_maps_bits(name):
    rv = KEEP_MODELS.get(name) or vine_preset(name)
    rinv = vine_rosenblatt_inverse if isinstance(rv, RVineSpec) else rosenblatt_inverse
    v = make_stream(6, rv.d).uniforms(400 * rv.d).reshape(400, rv.d)
    full = rinv(rv, v)
    dropped = {}

    def keep(k, xk):
        inside = xk > 0.25
        dropped[k] = int(np.count_nonzero(~inside))
        return inside

    x = rinv(rv, v, keep=keep)
    assert sorted(dropped) == list(range(1, rv.d)) and min(dropped.values()) > 0
    # column k + 1 is mapped on exactly the rows whose first k columns were kept
    mapped = np.ones(v.shape[0], dtype=bool)
    for k in range(rv.d):
        assert np.array_equal(np.isnan(x[:, k]), ~mapped), k
        assert np.array_equal(x[mapped, k], full[mapped, k]), k
        mapped &= full[:, k] > 0.25


@pytest.mark.parametrize("name, rebuilt", [("3d", []), ("4d", [(1, 2)])])
def test_the_inverse_reads_the_conditionals_it_passes_through(name, rebuilt, monkeypatch):
    # one h_func call per map on the 4-d preset: F(1 | 2), which lies off
    # the chain's own path
    seen = []

    def counted(pc, v2, v1):
        seen.append(pc)
        return h_func(pc, v2, v1)

    rv = vine_preset(name)
    monkeypatch.setattr(vines, "h_func", counted)
    v = make_stream(7, 0).uniforms(50 * rv.d).reshape(50, rv.d)
    for keep in (None, lambda k, xk: xk > 0.5):
        seen.clear()
        vine_rosenblatt_inverse(rv, v, keep=keep)
        assert seen == [rv.pair(c) for c in rebuilt]


# ---------------------------------------------------------------------------
# distributional checks


def test_three_dim_corner_probability_matches_reference():
    rv = vine_preset("3d")
    n = 1_000_000
    u = sample_vine_uniforms(make_stream(201, 0), rv, n)
    hits = np.all(u > 0.975, axis=1).mean()
    se = np.sqrt(hits * (1.0 - hits) / n)
    assert abs(hits - 3.16e-03) < 3.0 * se


def test_four_dim_corner_probability_matches_reference():
    rv = vine_preset("4d")
    n = 1_000_000
    u = sample_vine_uniforms(make_stream(202, 0), rv, n)
    hits = np.all(u > 0.9, axis=1).mean()
    se = np.sqrt(hits * (1.0 - hits) / n)
    assert abs(hits - 2.33e-02) < 3.0 * se


def test_vine_corner_oracle_on_independence():
    rv = gaussian_vine(3, 0.0)
    for p in (0.9, 0.99, 0.999):
        assert vine_corner_prob(rv, p) == pytest.approx((1.0 - p) ** 3, rel=1e-12)


def test_vine_corner_oracle_matches_independent_quadrature():
    for p in (0.9, 0.975, 0.999, 1.0 - 1e-5):
        ref = refs.vine3_preset_upper(p)
        assert vine_corner_prob(vine_preset("3d"), p) == pytest.approx(ref, rel=1e-4)
    ref = refs.vine4_preset_upper(0.975)
    assert vine_corner_prob(vine_preset("4d"), 0.975) == pytest.approx(ref, rel=1e-4)


# ---------------------------------------------------------------------------
# vines beyond the presets


def test_structure_validation_follows_the_joining_rule():
    for c, D in (((3, 3), ()), ((2, 3), (3,)), ((1, 2), (3, 3))):
        with pytest.raises(StructureError, match="repeats a variable"):
            VineEdge(c, D, PairCopula("gaussian", rho=0.3))
    with pytest.raises(StructureError, match="constraint set"):
        vine_of(3, [((1, 2), ()), ((1, 2), ()), ((2, 3), (1,))])
    # variable 5 joins 4, then 2 given 4: no edge joins 2 and 4 in tree 1
    d_vine_4 = [((1, 2), ()), ((2, 3), ()), ((3, 4), ()), ((1, 3), (2,)), ((2, 4), (3,)),
                ((1, 4), (2, 3))]
    with pytest.raises(StructureError, match="proximity"):
        vine_of(5, d_vine_4 + [((4, 5), ()), ((2, 5), (4,)), ((3, 5), (2, 4)),
                               ((1, 5), (2, 3, 4))])
    # a regular vine, the D-vine on the path 1-3-2-4, whose labels are not in
    # a joining order: variable 2 has no edge to variable 1 alone
    with pytest.raises(StructureError, match="variable 2 does not join"):
        vine_of(4, [((1, 3), ()), ((2, 3), ()), ((2, 4), ()), ((1, 2), (3,)), ((3, 4), (2,)),
                    ((1, 4), (2, 3))])
    # the same vine relabelled along its path builds
    assert vine_of(4, d_vine_4).d == 4


@pytest.mark.parametrize("d", [5, 8])
def test_c_and_d_vines_of_one_gaussian_copula_share_their_maps(d):
    c, dv = gaussian_vine(d, 0.5, "c"), gaussian_vine(d, 0.5, "d")
    v = make_stream(4, d).uniforms(200 * d).reshape(200, d)
    x = vine_rosenblatt_inverse(c, v)
    np.testing.assert_allclose(vine_rosenblatt_inverse(dv, v), x, rtol=0, atol=1e-12)
    for rv in (c, dv):
        x = vine_rosenblatt_inverse(rv, v)
        u = vine_rosenblatt_forward(rv, x)
        np.testing.assert_allclose(u, v, rtol=0, atol=1e-12)
        for k in range(1, d + 1):
            assert np.array_equal(vine_rosenblatt_inverse(rv, v[:, :k]), x[:, :k])
            assert np.array_equal(vine_rosenblatt_forward(rv, x[:, :k]), u[:, :k])


def test_sample_vine_uniforms_rejects_bad_sizes():
    for n in (0, 2.5, "3", True):
        with pytest.raises(ParameterError, match="sample size"):
            sample_vine_uniforms(make_stream(0, 0), vine_preset("3d"), n)


def test_vine_corner_oracle_names_its_dimensions():
    with pytest.raises(ParameterError, match="2..4"):
        vine_corner_prob(gaussian_vine(5, 0.5), 0.9)


RHO = 0.5


def equicorrelated_corner(d: int, a: float) -> float:
    """P(Z_i > a for all i) for d standard normals of pairwise correlation RHO:
    E[Phi-bar((a - sqrt(RHO) W)/sqrt(1 - RHO))^d] over a standard normal W."""

    def log_f(w):
        return d * log_ndtr((np.sqrt(RHO) * w - a) / np.sqrt(1.0 - RHO)) - 0.5 * w * w

    peak = brentq(lambda w: log_f(w + 1e-6) - log_f(w - 1e-6), -1.0, 20.0)
    val, err = quad(lambda w: np.exp(log_f(w)), peak - 12.0, peak + 12.0, points=[peak],
                    epsabs=0.0, epsrel=1e-10, limit=200)
    return val / np.sqrt(2.0 * np.pi)


def corner_threshold(d: int, prob: float) -> tuple[float, float]:
    """The copula-scale threshold of the equal corner with this probability."""
    a = brentq(lambda a: np.log(equicorrelated_corner(d, a) / prob), 0.0, 8.0, xtol=1e-13)
    return float(ndtr(a)), equicorrelated_corner(d, a)


@pytest.mark.parametrize("d", [5, 8])
@pytest.mark.parametrize("prob", [1e-3, 1e-6])
def test_trunc_exp_tilt_on_equicorrelated_gaussian_vines(d, prob):
    p, ref = corner_threshold(d, prob)
    cfg = ExperimentConfig(gaussian_vine(d, RHO, "c" if d == 5 else "d"),
                           CornerEvent("upper", (p,) * d), "is-t1", n=500, M=100, seed=43)
    sol = solve_event_theta(cfg)
    assert sol.converged and sol.pre_levels[-1] == 0.0
    r = replicate(ExperimentConfig(cfg.model, cfg.event, "is-t1", n=500, M=100, seed=43,
                                   theta=tuple(sol.theta_o)))
    assert abs(r.u_hat - ref) / r.se <= 4.0


def test_hazard_twist_stalls_on_the_eight_dim_vine():
    p, _ = corner_threshold(8, 1e-3)
    cfg = ExperimentConfig(gaussian_vine(8, RHO, "d"), CornerEvent("upper", (p,) * 8), "is-t3",
                           n=500, M=10, seed=0)
    t0 = time.perf_counter()
    with pytest.raises(DegeneratePilotError, match="level"):
        solve_event_theta(cfg)
    assert time.perf_counter() - t0 < 5.0
