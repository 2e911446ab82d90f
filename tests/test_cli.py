"""End-to-end command-line interface checks, all run in process."""

import csv
import json

import numpy as np
import pytest
from scipy.special import ndtr

from tailtilt.cli import CSV_COLUMNS, main
from tailtilt.oracle import clayton_corner_prob


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def test_oracle_clayton_u0(capsys):
    code, payload = run_json(capsys, "oracle", "--copula", "clayton",
                             "--delta", "3", "--u0", "0.98341")
    assert code == 0
    assert payload["value"] == pytest.approx(clayton_corner_prob(3.0, 0.98341), rel=1e-12)


def test_oracle_clayton_margin_threshold(capsys):
    code, payload = run_json(capsys, "oracle", "--copula", "clayton", "--delta", "3",
                             "--margins", "std-normal", "--p", "2.130")
    assert code == 0
    assert payload["u0"] == pytest.approx(float(ndtr(2.130)), rel=1e-12)
    assert payload["value"] == pytest.approx(1.048e-3, rel=1e-3)


def test_oracle_gaussian_orthant(capsys):
    code, payload = run_json(capsys, "oracle", "--copula", "gaussian", "--rho", "0.5",
                             "--margins", "std-normal", "--p", "0")
    assert code == 0
    assert payload["value"] == pytest.approx(1.0 / 3.0, abs=1e-8)


def test_oracle_vine_reference(capsys):
    code, payload = run_json(capsys, "oracle", "--copula", "3d-vine", "--p", "0.9")
    assert code == 0
    assert set(payload) == {"command", "copula", "direction", "p", "value"}
    assert payload["value"] == pytest.approx(2.416542e-2, rel=1e-6)


@pytest.mark.parametrize("argv", [
    ("--copula", "clayton", "--delta", "3", "--u0", "0.02"),
    ("--copula", "clayton", "--delta", "3", "--margins", "std-normal", "--p", "1.0"),
    ("--copula", "3d-vine", "--p", "0.9"),
])
def test_oracle_rejects_lower_corner(capsys, argv):
    code, out = run(capsys, "oracle", *argv, "--direction", "lower")
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("--copula", "clayton", "--delta", "3", "--margins", "std-normal", "--p", "1.0", "2.0"),
    ("--copula", "3d-vine", "--p", "0.9", "0.9", "0.95"),
    ("--copula", "3d-vine", "--p", "0.9", "0.95"),
])
def test_oracle_rejects_unequal_thresholds(capsys, argv):
    code, out = run(capsys, "oracle", *argv)
    assert code == 2
    assert out == ""


def test_oracle_rejects_non_integer_dimension(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    for dim in (2.5, 3.0, True):
        cfg.write_text(json.dumps({"copula": "clayton", "delta": 3.0, "u0": 0.9, "dim": dim}))
        code, out = run(capsys, "oracle", "--config", str(cfg))
        assert code == 2
        assert out == ""


def test_estimate_json_and_csv(capsys, tmp_path):
    out_csv = tmp_path / "rows.csv"
    code, payload = run_json(capsys, "estimate", "--copula", "gaussian", "--rho", "0",
                             "--margins", "std-normal", "--p", "1.282",
                             "--method", "is-t2", "--theta", "[1.58, 1.58]",
                             "--n", "500", "--reps", "200", "--seed", "7",
                             "--csv", str(out_csv))
    assert code == 0
    assert payload["theta"] == [1.58, 1.58]
    assert abs(payload["u_hat"] - 1e-2) < 4 * payload["sd"] / np.sqrt(200)
    with out_csv.open() as fh:
        rows = list(csv.DictReader(fh))
    assert tuple(rows[0]) == CSV_COLUMNS
    assert rows[0]["method"] == "is-t2"
    assert rows[0]["theta"] == "1.58;1.58"
    assert float(rows[0]["u_hat"]) == payload["u_hat"]


def test_estimate_deterministic_modulo_timing(capsys, tmp_path):
    argv = ("estimate", "--copula", "clayton", "--delta", "3", "--margins",
            "std-normal", "--p", "1.6", "--method", "naive", "--n", "400",
            "--reps", "50", "--seed", "11")
    rows = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        code, _ = run(capsys, *argv, "--csv", str(path))
        assert code == 0
        with path.open() as fh:
            rows.append(list(csv.DictReader(fh)))
    a, b = rows[0][0], rows[1][0]
    for col in CSV_COLUMNS:
        if col in ("seconds", "wnrv"):
            continue
        assert a[col] == b[col]


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "copula": "gaussian", "rho": 0.0, "margins": "std-normal",
        "p": [1.282], "method": "naive", "n": 500, "reps": 4000, "seed": 2,
    }))
    code, payload = run_json(capsys, "estimate", "--config", str(cfg), "--reps", "60")
    assert code == 0
    assert payload["reps"] == 60
    assert payload["seed"] == 2


def test_solve_theta_clayton_frailty(capsys):
    code, payload = run_json(capsys, "solve-theta", "--copula", "clayton",
                             "--delta", "3", "--margins", "std-normal",
                             "--p", "2.130", "--family", "clayton-mo")
    assert code == 0
    assert payload["converged"]
    assert abs(payload["theta"][0] - 0.848) < 0.05
    assert payload["solver"] == "saa"


def test_solve_theta_gaussian_closed_form(capsys):
    code, payload = run_json(capsys, "solve-theta", "--copula", "gaussian",
                             "--rho", "0", "--margins", "std-normal",
                             "--p", "1.282", "--method", "is-t2")
    assert code == 0
    assert payload["solver"] == "tallis-newton"
    assert np.allclose(payload["theta"], [1.58, 1.58], atol=0.05)


def test_hazard_twist_projected_onto_zero(capsys):
    # Ĝ's unconstrained minimum is slightly negative on this near-sure corner
    code, payload = run_json(capsys, "estimate", "--copula", "gaussian", "--rho", "0",
                             "--p", "-4", "--method", "is-t3", "--n", "200",
                             "--reps", "20", "--seed", "311")
    assert code == 0
    assert payload["theta"] == [0.0]


def test_solve_theta_family_method_mismatch(capsys):
    code, _ = run(capsys, "solve-theta", "--copula", "gaussian", "--rho", "0",
                  "--margins", "std-normal", "--p", "1.282",
                  "--family", "mvn-shift", "--method", "is-t1")
    assert code == 2


def test_solver_failure_exit_code(capsys):
    code, _ = run(capsys, "solve-theta", "--copula", "gaussian", "--rho", "0",
                  "--margins", "std-normal", "--p", "5.5",
                  "--family", "mvn-shift", "--solver", "saa")
    assert code == 3


def test_estimate_threshold_outside_support(capsys):
    code, _ = run(capsys, "estimate", "--copula", "gaussian", "--rho", "0",
                  "--margins", "std-normal", "--p", "40", "--method", "naive",
                  "--reps", "5")
    assert code == 2


def test_unknown_copula_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--copula", "gumbel", "--p", "1.0"])
    assert exc.value.code == 2


def test_bench_rows(capsys, tmp_path):
    out_csv = tmp_path / "bench.csv"
    code, _ = run(capsys, "bench", "--table", "1", "--methods", "is-t2",
                  "--p", "0.760", "--n", "300", "--reps", "40", "--seed", "5",
                  "--csv", str(out_csv))
    assert code == 0
    with out_csv.open() as fh:
        rows = list(csv.DictReader(fh))
    assert [r["method"] for r in rows] == ["naive", "is-t2"]
    assert rows[0]["theta"] == "" and rows[1]["theta"] != ""
    assert rows[1]["family"] == "gaussian"
    assert float(rows[1]["u_hat"]) == pytest.approx(5e-2, rel=0.3)


def test_reproduce_output(capsys):
    code, out = run(capsys, "reproduce", "--table", "12", "--n", "300",
                    "--reps", "40", "--seed", "5")
    assert code == 0
    assert out.startswith("case 12: clayton")
    assert "sd_eff(is-t2) ref" in out
    assert "u(naive) ref" in out
    assert "1.44E-03" in out


def test_bench_unknown_case(capsys):
    code, _ = run(capsys, "bench", "--table", "13")
    assert code == 2
