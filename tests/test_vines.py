"""Vine structures, the edge-list text format, and vine transforms."""

import numpy as np
import pytest

from tailtilt.copulas import (
    PairCopula,
    RVineSpec,
    VineEdge,
    load_vine,
    parse_vine,
    sample_vine_uniforms,
    vine_preset,
    vine_rosenblatt_forward,
    vine_rosenblatt_inverse,
)
from tailtilt.errors import StructureError
from tailtilt.oracle import vine_corner_prob
from tailtilt.randkit import MarginSpec, make_stream

from perfbench import refs


def independence_vine(d: int) -> RVineSpec:
    indep = PairCopula("gaussian", rho=0.0)
    edges = []
    if d >= 2:
        edges.append(VineEdge((1, 2), (), indep))
    if d >= 3:
        edges += [VineEdge((1, 3), (), indep), VineEdge((2, 3), (1,), indep)]
    if d >= 4:
        edges += [
            VineEdge((2, 4), (), indep),
            VineEdge((1, 4), (2,), indep),
            VineEdge((3, 4), (1, 2), indep),
        ]
    return RVineSpec(edges=tuple(edges), margins=(MarginSpec("uniform01"),) * d)


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


@pytest.mark.parametrize("d", [2, 3, 4])
def test_independence_vine_is_identity(d):
    rv = independence_vine(d)
    v = make_stream(1, 0).uniforms(50 * d).reshape(50, d)
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
    rv = independence_vine(3)
    for p in (0.9, 0.99, 0.999):
        assert vine_corner_prob(rv, p) == pytest.approx((1.0 - p) ** 3, rel=1e-12)


def test_vine_corner_oracle_matches_independent_quadrature():
    for p in (0.9, 0.975, 0.999, 1.0 - 1e-5):
        ref = refs.vine3_preset_upper(p)
        assert vine_corner_prob(vine_preset("3d"), p) == pytest.approx(ref, rel=1e-4)
    ref = refs.vine4_preset_upper(0.975)
    assert vine_corner_prob(vine_preset("4d"), 0.975) == pytest.approx(ref, rel=1e-4)
