"""tools/sweep_diff.py: pairing and judging two bench sweeps."""

import csv
import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "sweep_diff", Path(__file__).resolve().parents[1] / "tools" / "sweep_diff.py"
)
sweep_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sweep_diff)

COLUMNS = ("method", "family", "params", "p", "u_hat", "sd", "seconds", "wnrv", "theta", "seed")
# a params field holding commas, as a 4-d model's does
SIGMA4 = "sigma=[[1.0, 0.5], [0.5, 1.0]];margins=std-normal, std-normal"


def row(method, params, u_hat, seconds="0.1"):
    return {"method": method, "family": "gaussian", "params": params, "p": "2.0",
            "u_hat": u_hat, "sd": "0.01", "seconds": seconds, "wnrv": "", "theta": "", "seed": "3"}


def write(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.DictWriter(fh, fieldnames=COLUMNS)
        w.writeheader()
        w.writerows(rows)
    return str(path)


def test_sweep_diff_counts_and_bounds(tmp_path, capsys):
    before = write(tmp_path / "a.csv", [row("naive", "rho=0", "0.05"),
                                        row("is-t1", SIGMA4, "0.05")])
    # timing columns may differ on an identical row; a move of 0.0095 is 4.25
    # combined standard errors of two sd=0.01 means over 40 replications
    same = write(tmp_path / "b.csv", [row("naive", "rho=0", "0.05", seconds="0.2"),
                                      row("is-t1", SIGMA4, "0.0505")])
    far = write(tmp_path / "c.csv", [row("naive", "rho=0", "0.05"), row("is-t1", SIGMA4, "0.0595")])
    short = write(tmp_path / "d.csv", [row("naive", "rho=0", "0.05")])

    assert sweep_diff.main([before, same, "--reps", "40"]) == 0
    out = capsys.readouterr().out
    assert "identical rows: 1" in out and "moved rows: 1" in out
    assert "largest move: 0.2236" in out
    assert "largest relative move: 0.01 at ('is-t1'" in out
    assert sweep_diff.main([before, far, "--reps", "40"]) == 1
    assert "largest relative move: 0.19 at ('is-t1'" in capsys.readouterr().out
    assert sweep_diff.main([before, short, "--reps", "40"]) == 1
    out = capsys.readouterr().out
    assert "only in before" in out and "largest relative move: 0\n" in out


def test_sweep_diff_exact_fails_on_any_moved_row(tmp_path, capsys):
    before = write(tmp_path / "a.csv", [row("naive", "rho=0", "0.05"),
                                        row("is-t1", SIGMA4, "0.05")])
    # only timing differs: identical under --exact
    timed = write(tmp_path / "b.csv", [row("naive", "rho=0", "0.05", seconds="0.2"),
                                       row("is-t1", SIGMA4, "0.05", seconds="0.3")])
    # a move in the last digit, far inside the 4-se bound
    ulp = write(tmp_path / "c.csv", [row("naive", "rho=0", "0.05"),
                                     row("is-t1", SIGMA4, "0.05000000000000001")])

    assert sweep_diff.main([before, timed, "--reps", "40", "--exact"]) == 0
    assert "moved rows: 0" in capsys.readouterr().out
    assert sweep_diff.main([before, ulp, "--reps", "40"]) == 0
    capsys.readouterr()
    assert sweep_diff.main([before, ulp, "--reps", "40", "--exact"]) == 1
    out = capsys.readouterr().out
    assert "moved rows: 1" in out and "--exact: 1 rows moved" in out
