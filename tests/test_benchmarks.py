"""Benchmark registry shape checks and a reduced-scale run."""

import numpy as np
import pytest

from tailtilt.benchmarks import benchmark_keys, format_comparison, get_case, run_case
from tailtilt.copulas import CopulaSpec
from tailtilt.errors import ConfigError


def test_registry_keys():
    keys = benchmark_keys()
    assert keys[:12] == tuple(str(k) for k in range(1, 13))
    assert set(keys[12:]) == {"3d-vine", "4d-vine"}
    with pytest.raises(ConfigError):
        get_case("0")


def test_registry_columns_align():
    for key in benchmark_keys():
        case = get_case(key)
        n_p = len(case.p)
        assert "naive" in case.reference
        for method, cols in case.reference.items():
            for field, col in cols.items():
                assert len(col) == n_p, (key, method, field)
        model = case.model
        assert model.d == len(np.atleast_1d(case.reference[case.methods[0]]["theta"][0])) or \
            model.family == "clayton"


def test_reference_tilt_layouts():
    assert get_case("12").reference["is-t2"]["theta"][3] == (0.848, 14.58, 14.58)
    assert get_case("7").reference["is-t2"]["theta"][0] == (0.70, 0.47, 0.47, 0.70)
    assert get_case("9").p[3] == 6.128
    assert get_case("1").reference["is-t1"]["sd"][3] == 5.20e-5
    for key in ("1", "9", "12"):
        theta3 = get_case(key).reference["is-t3"]["theta"]
        assert all(np.isscalar(t) for t in theta3)


def test_margins_match_titles():
    for key in benchmark_keys()[:12]:
        case = get_case(key)
        model = case.model
        assert isinstance(model, CopulaSpec)
        label = model.margins[0].label()
        if "exponential" in case.title:
            assert label.startswith("exponential")
        elif "t2 margins" in case.title:
            assert label == "student-t(2)"
        else:
            assert label == "std-normal"


def test_run_case_reduced():
    rows = run_case("7", M=60, n=300, p_values=(0.394,))
    assert [r.method for r in rows] == ["naive", "is-t2"]
    t2 = rows[1]
    assert t2.result.theta is not None and len(t2.result.theta) == 4
    assert np.allclose(t2.result.theta, [0.70, 0.47, 0.47, 0.70], atol=0.08)
    assert t2.sd_eff_naive is not None and t2.sd_eff_naive > 1.0
    text = format_comparison("7", rows)
    assert "4.54E-03" in text and "u(is-t2) ref" in text


def test_run_case_rejects_unknown_method():
    with pytest.raises(ConfigError):
        run_case("7", methods=("is-t1",), M=5)
