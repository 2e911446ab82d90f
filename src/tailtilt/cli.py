"""Command-line experiment runner.

Subcommands: ``estimate`` runs one estimation task, ``solve-theta`` solves
a tilt without estimating, ``oracle`` prints a reference probability,
``bench`` runs benchmark cases into CSV rows, and ``reproduce`` prints a
benchmark case next to its frozen reference columns.

Flags can also come from a JSON config file (``--config``); flags given on
the command line override file keys. Data rows go to CSV with the fixed
column set method,family,params,p,u_hat,sd,seconds,wnrv,theta,seed; full
diagnostics go to JSON. Exit status is 0 on success, 2 on a configuration
problem, 3 when a tilt solver fails to converge.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .benchmarks import benchmark_keys, format_comparison, get_case, run_case
from .copulas import CopulaSpec, CornerEvent, transform_event, vine_preset
from .errors import ConfigError, DegeneratePilotError, SolverError, TailTiltError
from .estimators import ExperimentConfig, replicate, solve_event_theta
from .oracle import clayton_corner_prob, rect_prob_gaussian, rect_prob_t, vine_corner_prob
from .randkit import MarginSpec, margin_cdf

CSV_COLUMNS = ("method", "family", "params", "p", "u_hat", "sd",
               "seconds", "wnrv", "theta", "seed")

_VINES = ("3d-vine", "4d-vine")

_FAMILY_TO_METHOD = {
    "trunc-exp-product": "is-t1",
    "mvn-shift": "is-t2",
    "t-gamma-normal": "is-t2",
    "clayton-mo": "is-t2",
    "hazard-rate": "is-t3",
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="tailtilt",
                                  description="rare-event estimation for copula models")
    sub = top.add_subparsers(dest="command", required=True)

    def model_flags(p):
        p.add_argument("--config", help="JSON file with defaults for any flag")
        p.add_argument("--copula",
                       choices=("gaussian", "student-t", "clayton") + _VINES)
        p.add_argument("--rho", type=float, help="off-diagonal correlation (d=2)")
        p.add_argument("--sigma", help="full correlation matrix as JSON")
        p.add_argument("--nu", type=float, help="t copula degrees of freedom")
        p.add_argument("--delta", type=float, help="clayton parameter")
        p.add_argument("--dim", type=int, help="dimension (default 2)")
        p.add_argument("--margins",
                       choices=("std-normal", "exponential", "student-t", "uniform01"))
        p.add_argument("--margin-df", type=float, help="df for student-t margins")
        p.add_argument("--margin-rate", type=float, help="rate for exponential margins")

    def event_flags(p):
        p.add_argument("--p", type=float, nargs="+",
                       help="corner threshold(s) on the margin scale")
        p.add_argument("--direction", choices=("upper", "lower"))

    def run_flags(p):
        p.add_argument("--n", type=int, help="samples per replication (default 500)")
        p.add_argument("--reps", type=int, help="replications M (default 5000)")
        p.add_argument("--seed", type=int)
        p.add_argument("--csv", help="append data rows to this CSV file")
        p.add_argument("--json-out", help="write the diagnostics JSON here too")

    est = sub.add_parser("estimate", help="estimate one corner probability")
    model_flags(est)
    event_flags(est)
    est.add_argument("--method",
                     choices=("naive", "is-t1", "is-t2", "is-t3", "is-ld"))
    est.add_argument("--theta", help="tilt as JSON (number or list); omit to solve")
    est.add_argument("--route", choices=("direct", "cim"))
    run_flags(est)

    sol = sub.add_parser("solve-theta", help="solve a tilt without estimating")
    model_flags(sol)
    event_flags(sol)
    sol.add_argument("--family", choices=tuple(_FAMILY_TO_METHOD),
                     help="tilting family (picks the matching method)")
    sol.add_argument("--method", choices=("is-t1", "is-t2", "is-t3", "is-ld"))
    sol.add_argument("--solver", choices=("saa", "tallis"))
    sol.add_argument("--seed", type=int)
    sol.add_argument("--json-out", help="write the diagnostics JSON here too")

    orc = sub.add_parser("oracle", help="print a reference probability")
    model_flags(orc)
    event_flags(orc)
    orc.add_argument("--u0", type=float, help="copula-scale threshold, same in every axis")
    orc.add_argument("--json-out", help="write the diagnostics JSON here too")

    ben = sub.add_parser("bench", help="run benchmark cases into CSV rows")
    ben.add_argument("--table", required=True,
                     help="case key (%s) or 'all'" % ", ".join(benchmark_keys()))
    ben.add_argument("--methods", help="comma-separated subset of a case's methods")
    ben.add_argument("--p", type=float, nargs="+", help="subset of the case's thresholds")
    ben.add_argument("--n", type=int)
    ben.add_argument("--reps", type=int)
    ben.add_argument("--seed", type=int)
    ben.add_argument("--csv", help="append rows here instead of stdout")

    rep = sub.add_parser("reproduce", help="compare a benchmark case to its reference")
    rep.add_argument("--table", required=True,
                     help="case key (%s)" % ", ".join(benchmark_keys()))
    rep.add_argument("--n", type=int)
    rep.add_argument("--reps", type=int)
    rep.add_argument("--seed", type=int)
    rep.add_argument("--csv", help="also append the measured rows to this CSV file")

    return top


def _merge_config(args: argparse.Namespace) -> dict:
    """File values first, then any flag that was actually given."""
    merged: dict = {}
    path = getattr(args, "config", None)
    if path:
        try:
            loaded = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        merged.update(loaded)
    for key, val in vars(args).items():
        if key in ("command", "config") or val is None:
            continue
        merged[key] = val
    return merged


def _require(opt: dict, key: str):
    val = opt.get(key)
    if val is None:
        raise ConfigError(f"missing required option --{key.replace('_', '-')}")
    return val


def _dim(opt: dict) -> int:
    d = opt.get("dim", 2)
    if isinstance(d, bool) or not isinstance(d, int):
        raise ConfigError(f"--dim must be an integer, got {d!r}")
    return d


def _build_margin(opt: dict) -> MarginSpec:
    kind = opt.get("margins", "std-normal")
    if kind == "student-t":
        return MarginSpec("student-t", df=_require(opt, "margin_df"))
    if kind == "exponential":
        return MarginSpec("exponential", rate=opt.get("margin_rate", 1.0))
    return MarginSpec(kind)


def _build_model(opt: dict):
    family = _require(opt, "copula")
    if family in _VINES:
        return vine_preset(family[:2])
    if family == "clayton":
        d = _dim(opt)
        return CopulaSpec("clayton", (_build_margin(opt),) * d,
                          delta=_require(opt, "delta"))
    if opt.get("sigma") is not None:
        raw = opt["sigma"]
        try:
            sigma = np.asarray(json.loads(raw) if isinstance(raw, str) else raw,
                               dtype=np.float64)
        except (json.JSONDecodeError, ValueError) as exc:
            raise ConfigError(f"--sigma must be a JSON matrix: {exc}")
        d = sigma.shape[0] if sigma.ndim == 2 else 0
    else:
        rho = _require(opt, "rho")
        d = _dim(opt)
        sigma = np.full((d, d), float(rho))
        np.fill_diagonal(sigma, 1.0)
    margins = (_build_margin(opt),) * d
    if family == "student-t":
        return CopulaSpec("student-t", margins, sigma=sigma, nu=_require(opt, "nu"))
    return CopulaSpec("gaussian", margins, sigma=sigma)


def _build_event(opt: dict, d: int) -> CornerEvent:
    p = _require(opt, "p")
    vals = [float(v) for v in (p if isinstance(p, (list, tuple)) else [p])]
    if len(vals) == 1:
        vals = vals * d
    if len(vals) != d:
        raise ConfigError(f"got {len(vals)} thresholds for a {d}-dimensional model")
    return CornerEvent(opt.get("direction", "upper"), tuple(vals))


def _model_labels(model) -> tuple[str, str]:
    """(family, params) columns for a model."""
    if not isinstance(model, CopulaSpec):
        return f"rvine-{model.d}d", "preset"
    margin = model.margins[0].label()
    if model.family == "clayton":
        return "clayton", f"delta={model.delta:g};margins={margin}"
    off = model.sigma[np.triu_indices(model.d, 1)]
    if np.all(off == off[0]) or model.d == 2:
        corr = f"rho={off[0]:g}"
    else:
        corr = "sigma=" + json.dumps([[round(v, 6) for v in row] for row in model.sigma])
    if model.family == "student-t":
        return "student-t", f"nu={model.nu:g};{corr};margins={margin}"
    return "gaussian", f"{corr};margins={margin}"


def _fmt_p(event_or_p) -> str:
    vals = np.atleast_1d(getattr(event_or_p, "a", event_or_p))
    if np.all(vals == vals[0]):
        return f"{vals[0]:g}"
    return ";".join(f"{v:g}" for v in vals)


def _fmt_theta(theta) -> str:
    if theta is None:
        return ""
    return ";".join(repr(float(v)) for v in np.atleast_1d(theta))


def _csv_row(model, p, result, theta, seed) -> dict:
    family, params = _model_labels(model)
    return {
        "method": result.method,
        "family": family,
        "params": params,
        "p": _fmt_p(p),
        "u_hat": repr(result.u_hat),
        "sd": repr(result.sd),
        "seconds": f"{result.seconds:.6f}",
        "wnrv": "" if result.wnrv is None else repr(result.wnrv),
        "theta": _fmt_theta(theta),
        "seed": str(seed),
    }


def _write_rows(rows: list[dict], path: str | None) -> None:
    out = open(path, "a", newline="") if path else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS)
        if not path or out.tell() == 0:
            writer.writeheader()
        writer.writerows(rows)
    finally:
        if path:
            out.close()


def _emit_json(payload: dict, json_path: str | None) -> None:
    text = json.dumps(payload, indent=2, default=float)
    print(text)
    if json_path:
        Path(json_path).write_text(text + "\n")


def _parse_theta(raw):
    if raw is None:
        return None
    if isinstance(raw, (int, float, list, tuple)):
        return raw
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--theta must be JSON: {exc}")


def _cmd_estimate(opt: dict) -> int:
    model = _build_model(opt)
    event = _build_event(opt, model.d)
    method = opt.get("method", "naive")
    seed = int(opt.get("seed", 0))
    cfg = ExperimentConfig(model, event, method,
                           n=int(opt.get("n", 500)), M=int(opt.get("reps", 5000)),
                           seed=seed, theta=_parse_theta(opt.get("theta")),
                           route=opt.get("route", "direct"))
    theta = None
    if method != "naive":
        if cfg.theta is None:
            sol = solve_event_theta(cfg)
            if not sol.converged:
                print(f"tilt solver did not converge: {sol.report()}", file=sys.stderr)
                return 3
            theta = tuple(np.atleast_1d(sol.theta_o))
            cfg = ExperimentConfig(model, event, method, n=cfg.n, M=cfg.M,
                                   seed=seed, theta=theta, route=cfg.route)
        else:
            theta = tuple(np.atleast_1d(np.asarray(cfg.theta, dtype=np.float64)))
    result = replicate(cfg)
    family, params = _model_labels(model)
    _emit_json({
        "command": "estimate", "method": method, "family": family, "params": params,
        "p": _fmt_p(event), "direction": event.direction, "n": result.n,
        "reps": result.reps, "seed": seed, "u_hat": result.u_hat, "sd": result.sd,
        "sd_within_run": result.sd_within_run, "seconds": result.seconds,
        "wnrv": result.wnrv, "theta": None if theta is None else list(theta),
    }, opt.get("json_out"))
    if opt.get("csv"):
        _write_rows([_csv_row(model, event, result, theta, seed)], opt["csv"])
    return 0


def _cmd_solve_theta(opt: dict) -> int:
    model = _build_model(opt)
    event = _build_event(opt, model.d)
    method = opt.get("method")
    if opt.get("family"):
        mapped = _FAMILY_TO_METHOD[opt["family"]]
        if method is not None and method != mapped:
            raise ConfigError(f"--family {opt['family']} pairs with {mapped}, not {method}")
        method = mapped
    if method is None:
        raise ConfigError("pass --family or --method to pick the tilt")
    cfg = ExperimentConfig(model, event, method, seed=int(opt.get("seed", 0)))
    sol = solve_event_theta(cfg, solver=opt.get("solver"))
    _emit_json({
        "command": "solve-theta", "method": method,
        "theta": list(np.atleast_1d(sol.theta_o)), "solver": sol.method,
        "iterations": sol.iterations, "residual_norm": sol.residual_norm,
        "pilot_size": sol.pilot_size, "pilot_hits": sol.pilot_hits,
        "G_hat": sol.G_hat_at_solution, "converged": sol.converged,
        "reflected": sol.reflected,
    }, opt.get("json_out"))
    return 0 if sol.converged else 3


def _equal_threshold(opt: dict, family: str, d: int) -> float:
    a = _build_event(opt, d).a
    if np.any(a != a[0]):
        raise ConfigError(f"the {family} oracle takes one threshold, got {list(a)}")
    return float(a[0])


def _cmd_oracle(opt: dict) -> int:
    family = _require(opt, "copula")
    direction = opt.get("direction", "upper")
    payload: dict = {"command": "oracle", "copula": family, "direction": direction}
    if direction != "upper" and (family in _VINES or family == "clayton"):
        raise ConfigError(f"the {family} oracle computes upper corners only")
    if family in _VINES:
        rv = vine_preset(family[:2])
        p = _equal_threshold(opt, family, rv.d)
        payload.update(p=p, value=vine_corner_prob(rv, p))
    elif family == "clayton":
        d = _dim(opt)
        if opt.get("u0") is not None:
            u0 = float(opt["u0"])
        else:
            u0 = float(margin_cdf(_build_margin(opt), _equal_threshold(opt, family, d)))
        payload.update(u0=u0, value=clayton_corner_prob(float(_require(opt, "delta")), u0, d))
    else:
        model = _build_model(opt)
        if opt.get("u0") is not None:
            from scipy.special import ndtri, stdtrit
            u0 = float(opt["u0"])
            if family == "gaussian":
                a_star = np.full(model.d, ndtri(u0))
            else:
                a_star = np.full(model.d, stdtrit(model.nu, u0))
        else:
            event = transform_event(model, _build_event(opt, model.d))
            a_star = np.asarray(event.a_star)
        if family == "gaussian":
            value = rect_prob_gaussian(model.sigma, a_star, direction)
        else:
            value = rect_prob_t(model.nu, model.sigma, a_star, direction)
        payload.update(value=value, latent_thresholds=list(a_star))
    _emit_json(payload, opt.get("json_out"))
    return 0


def _cmd_bench(opt: dict) -> int:
    keys = benchmark_keys() if opt["table"] == "all" else (opt["table"],)
    methods = None
    if opt.get("methods"):
        methods = tuple(m.strip() for m in opt["methods"].split(",") if m.strip())
    all_rows = []
    for key in keys:
        case = get_case(key)
        rows = run_case(key, methods=methods, n=int(opt.get("n", 500)),
                        M=int(opt.get("reps", 5000)), seed=int(opt.get("seed", 0)),
                        p_values=tuple(opt["p"]) if opt.get("p") else None)
        model = case.model()
        for r in rows:
            all_rows.append(_csv_row(model, (r.p,) * model.d, r.result, r.theta,
                                     int(opt.get("seed", 0))))
    _write_rows(all_rows, opt.get("csv"))
    return 0


def _cmd_reproduce(opt: dict) -> int:
    key = opt["table"]
    case = get_case(key)
    rows = run_case(key, n=int(opt.get("n", 500)), M=int(opt.get("reps", 5000)),
                    seed=int(opt.get("seed", 0)))
    print(format_comparison(key, rows))
    if opt.get("csv"):
        model = case.model()
        _write_rows([_csv_row(model, (r.p,) * model.d, r.result, r.theta,
                              int(opt.get("seed", 0))) for r in rows], opt["csv"])
    return 0


_COMMANDS = {
    "estimate": _cmd_estimate,
    "solve-theta": _cmd_solve_theta,
    "oracle": _cmd_oracle,
    "bench": _cmd_bench,
    "reproduce": _cmd_reproduce,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        opt = _merge_config(args)
        return _COMMANDS[args.command](opt)
    except (SolverError, DegeneratePilotError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TailTiltError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
