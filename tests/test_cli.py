"""End-to-end command-line interface checks, all run in process."""

import csv
import json
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import ndtr

from tailtilt import estimators
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
    code, payload = run_json(capsys, "oracle", "--copula", "clayton", "--delta", "3",
                             "--margins", "uniform01", "--p", "0.98341")
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
    ("--copula", "clayton", "--delta", "3", "--margins", "uniform01", "--p", "0.02"),
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
        cfg.write_text(json.dumps({"copula": "clayton", "delta": 3.0, "margins": "uniform01",
                                   "p": 0.9, "dim": dim}))
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
    assert payload["se"] == payload["sd"] / np.sqrt(200)
    assert abs(payload["u_hat"] - 1e-2) < 4 * payload["se"]
    # the tilt was given, so nothing was solved
    assert payload["solve_seconds"] == 0.0
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
    assert payload["solve_seconds"] == 0.0


@pytest.mark.parametrize("keys", [
    {"n": 100.7, "reps": 5.9, "seed": 1.5},
    {"n": "50"},
    {"copula": "clayton", "delta": "3"},
    {"copula": "gumbel"},
    {"rep": 5},
])
def test_config_file_values_checked_like_flags(capsys, tmp_path, keys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"copula": "gaussian", "rho": 0.5, "p": 1.0,
                               "method": "naive", "n": 100, "reps": 5, **keys}))
    code, out = run(capsys, "estimate", "--config", str(cfg))
    assert code == 2
    assert out == ""


def test_solve_theta_clayton_frailty(capsys):
    code, payload = run_json(capsys, "solve-theta", "--copula", "clayton",
                             "--delta", "3", "--margins", "std-normal",
                             "--p", "2.130", "--method", "is-t2")
    assert code == 0
    assert payload["converged"]
    assert abs(payload["theta"][0] - 0.848) < 0.05
    assert payload["solver"] == "saa"
    assert payload["pre_levels"] >= 2 and payload["pre_last_gamma"] == 0.0


def test_solve_theta_gaussian_closed_form(capsys):
    code, payload = run_json(capsys, "solve-theta", "--copula", "gaussian",
                             "--rho", "0", "--margins", "std-normal",
                             "--p", "1.282", "--method", "is-t2")
    assert code == 0
    assert payload["solver"] == "tallis-newton"
    assert np.allclose(payload["theta"], [1.58, 1.58], atol=0.05)
    assert payload["pre_levels"] == 0 and payload["pre_last_gamma"] is None


def test_hazard_twist_projected_onto_zero(capsys):
    # Ĝ's minimum on this near-sure corner lies within pilot noise of 0; the
    # projection itself is tested on solve_hrt_theta
    code, payload = run_json(capsys, "estimate", "--copula", "gaussian", "--rho", "0",
                             "--p", "-4", "--method", "is-t3", "--n", "200",
                             "--reps", "20", "--seed", "311")
    assert code == 0
    assert 0.0 <= payload["theta"][0] < 0.01
    assert payload["solve_seconds"] > 0.0
    assert payload["seconds"] > 0.0


def test_solver_failure_exit_code(capsys):
    # one scalar hazard twist cannot climb to this 4-d vine corner: the
    # cross-entropy levels stall
    code, out = run(capsys, "solve-theta", "--copula", "4d-vine", "--p", "0.999",
                    "--method", "is-t3")
    assert code == 3
    assert out == ""


def test_unconverged_tilt_exits_3_before_any_row(capsys, monkeypatch, tmp_path):
    real = estimators.solve_event_theta
    monkeypatch.setattr(estimators, "solve_event_theta",
                        lambda cfg, **kw: replace(real(cfg, **kw), converged=False))
    rows = tmp_path / "rows.csv"
    for argv in (("bench", "--table", "1", "--methods", "is-t2", "--p", "1.282"),
                 ("estimate", "--copula", "gaussian", "--rho", "0", "--p", "1.282",
                  "--method", "is-t2")):
        code = main(list(argv) + ["--reps", "4", "--csv", str(rows)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "did not converge" in captured.err
    assert not rows.exists()


@pytest.mark.parametrize("argv", [
    ("--method", "is-t3", "--theta", "[]"),
    ("--method", "naive", "--theta", "[1, 1]"),
    ("--method", "is-t2", "--n", "1", "--reps", "1000000"),
])
def test_estimate_refuses_a_tilt_or_budget_it_cannot_use(capsys, argv):
    code, out = run(capsys, "estimate", "--copula", "gaussian", "--rho", "0",
                    "--p", "1.282", *argv)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_estimate_refuses_a_seed_outside_the_stream_keys(capsys, seed):
    code, out = run(capsys, "estimate", "--copula", "gaussian", "--rho", "0",
                    "--p", "1.282", "--reps", "2", "--seed", seed)
    assert code == 2
    assert out == ""


def test_estimate_on_case_2_deepest_corner(capsys):
    # the closed-form solve converges here, so the run estimates and exits 0
    code, payload = run_json(capsys, "estimate", "--copula", "gaussian", "--rho", "0.5",
                             "--p", "2.395", "--method", "is-t2", "--reps", "4")
    assert code == 0
    assert payload["u_hat"] > 0.0


def test_solve_theta_pilot_solver_at_a_deep_corner(capsys):
    # Φ(-5.5)² ≈ 3.6e-16, far below what crude draws at the zero tilt can see
    code, payload = run_json(capsys, "solve-theta", "--copula", "gaussian", "--rho", "0",
                             "--margins", "std-normal", "--p", "5.5",
                             "--method", "is-t2", "--solver", "saa")
    assert code == 0
    assert payload["converged"] and payload["solver"] == "saa"
    assert payload["pre_last_gamma"] == 0.0
    assert np.allclose(payload["theta"], 5.6, atol=0.1)


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


@pytest.mark.parametrize("dim", ["-1", "0"])
@pytest.mark.parametrize("model", [
    ("--copula", "gaussian", "--rho", "0"),
    ("--copula", "student-t", "--rho", "0", "--nu", "5"),
    ("--copula", "clayton", "--delta", "3"),
], ids=lambda argv: argv[1])
def test_estimate_rejects_dimension_below_one(capsys, model, dim):
    code = main(["estimate", *model, "--p", "1", "--dim", dim, "--reps", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--dim" in captured.err


@pytest.mark.parametrize("model", [
    ("--copula", "gaussian", "--rho", "0"),
    ("--copula", "student-t", "--rho", "0", "--nu", "5"),
], ids=lambda argv: argv[1])
def test_estimate_one_dimensional_model(capsys, model):
    code, out = run_json(capsys, "estimate", *model, "--p", "1", "--dim", "1",
                         "--n", "10", "--reps", "3")
    assert code == 0
    assert "sigma=[[1.0]];" in out["params"]


@pytest.mark.parametrize("argv", [
    ("--copula", "gaussian", "--rho", "0.9", "--sigma", "[[1, 0.5], [0.5, 1]]"),
    ("--copula", "student-t", "--nu", "5", "--dim", "3", "--rho", "0.9",
     "--sigma", "[[1, 0.5], [0.5, 1]]"),
    ("--copula", "3d-vine", "--dim", "5"),
], ids=["rho-and-sigma", "dim-against-sigma", "dim-against-vine"])
def test_model_flags_the_model_would_ignore_are_refused(capsys, argv):
    code = main(["oracle", *argv, "--p", "0.9"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--rho" in captured.err or "--dim" in captured.err


@pytest.mark.parametrize("argv, dropped", [
    (("--copula", "clayton", "--delta", "3", "--rho", "0.9", "--nu", "4", "--p", "2"),
     ("--rho", "--nu")),
    (("--copula", "gaussian", "--rho", "0.5", "--delta", "7", "--p", "2"), ("--delta",)),
    (("--copula", "3d-vine", "--margins", "exponential", "--delta", "2", "--p", "0.5"),
     ("--margins", "--delta")),
    (("--copula", "gaussian", "--rho", "0.5", "--margin-df", "3", "--p", "2"),
     ("--margin-df",)),
], ids=["clayton", "gaussian", "vine", "margin-df"])
def test_flags_of_another_model_are_refused_by_name(capsys, argv, dropped):
    code = main(["oracle", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    for flag in dropped:
        assert flag in captured.err


def test_config_keys_of_another_model_are_refused(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"copula": "gaussian", "rho": 0.5, "nu": 4.0, "p": [2.0]}))
    code = main(["oracle", "--config", str(cfg)])
    assert code == 2
    assert "--nu" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("--copula", "gaussian", "--dim", "2", "--sigma", "[[1, 0.5], [0.5, 1]]"),
    ("--copula", "3d-vine", "--dim", "3"),
], ids=["sigma", "vine"])
def test_a_matching_dimension_is_accepted(capsys, argv):
    code, payload = run_json(capsys, "oracle", *argv, "--p", "0.9")
    assert code == 0 and payload["value"] > 0.0
