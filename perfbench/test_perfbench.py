"""Quick tests of the benchmark's own code: its references and one tiny run
of every workload.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import refs
import run


@pytest.mark.parametrize("b", [0.5, 1.857, 3.09, 5.0])
def test_gaussian_quadrature_at_rho_zero_is_the_product(b):
    assert refs.gauss2_upper(0.0, b) == pytest.approx(special.ndtr(-b) ** 2, rel=1e-9)


def test_t_quadrature_tends_to_the_gaussian():
    g = refs.gauss2_upper(0.5, 2.0)
    gaps = [abs(refs.t2_upper(nu, 0.5, 2.0) / g - 1.0) for nu in (100.0, 1000.0, 10000.0)]
    # the gap closes as 1/nu
    assert 8.0 < gaps[0] / gaps[1] < 12.0
    assert 8.0 < gaps[1] / gaps[2] < 12.0
    assert gaps[2] < 2e-3


def test_clayton_closed_form_matches_the_plain_formula():
    u, delta = 0.9, 3.0
    plain = 1.0 - 2.0 * u + (2.0 * u**-delta - 1.0) ** (-1.0 / delta)
    assert refs.clayton2_upper(delta, u) == pytest.approx(plain, rel=1e-12)


def test_four_dim_gaussian_quadrature_on_independence():
    assert refs.gauss4_upper(np.eye(4), 1.5) == pytest.approx(special.ndtr(-1.5) ** 4, rel=1e-9)


def test_vine_quadratures_on_independence():
    def ind(v, u):
        return v

    def prod(a, b):
        return a * b

    assert refs.vine3_upper(0.9, ind, ind, prod) == pytest.approx(0.1**3, rel=1e-9)
    assert refs.vine4_upper(0.9, 0.0, ind, ind, ind, ind, prod) == pytest.approx(0.1**4, rel=1e-9)


def test_committed_references_are_reproduced():
    made = refs.make_committed()["values"]
    committed = refs.load_committed()
    assert made.keys() == committed.keys()
    for name, value in made.items():
        assert committed[name] == pytest.approx(value, rel=1e-10), name


@pytest.fixture
def tiny(monkeypatch):
    """Runs of 20 replications per cell that time one set-up process."""
    run.load_program()
    import workloads

    monkeypatch.setattr(workloads, "_M", dict.fromkeys(workloads._M, 20))
    monkeypatch.setattr(run, "SETUP_RUNS", 1)


def _tiny_run(capsys, workload, trace=0):
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)])
    assert rc == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,failed_per_pass", [("paper-2d", 0), ("vine", 0), ("deep", 5)])
def test_tiny_run_of_every_workload(tiny, capsys, workload, failed_per_pass):
    out = _tiny_run(capsys, workload)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"]
    assert set(out["metrics"]) == set(run.declared("end_to_end"))
    assert all(m["value"] > 0 for m in out["metrics"].values())
    cells = len(run.set_up(workload, 3).cells)
    passes = out["attempted"] // cells
    assert out["attempted"] == passes * cells and passes >= run.MIN_PASSES
    assert out["failed"] == passes * failed_per_pass


def test_tiny_traced_run_reports_every_layer(tiny, capsys):
    out = _tiny_run(capsys, "paper-2d", trace=1)
    assert out["correct"]
    assert set(out["metrics"]) == set(run.declared("per_layer"))
    assert Path(run.OUT, "trace-paper-2d-seed3.json").is_file()


def test_run_without_the_program_fails(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "deep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
