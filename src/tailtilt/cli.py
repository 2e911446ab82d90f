"""Command-line experiment runner.

Subcommands: ``estimate`` runs one estimation task, ``solve-theta`` solves
a tilt without estimating, ``oracle`` prints a reference probability,
``bench`` runs benchmark cases into CSV rows, and ``reproduce`` prints a
benchmark case next to its frozen reference columns.

Flags can also come from a JSON config file (``--config``) whose keys are
the flag names in ``dest`` form (``margin_df`` for ``--margin-df``). The
parser's declarations are the one schema: each key is checked against the
flags of the subcommand that ran, with the type and choices the flag takes,
and ``--sigma`` and ``--theta`` take JSON either way. Flags given on the
command line override file keys. Data rows go to CSV with the fixed
column set method,family,params,p,u_hat,sd,seconds,wnrv,theta,seed; full
diagnostics go to JSON, among them the standard error ``se`` of the
estimate and the solve time ``solve_seconds``, which ``seconds`` leaves
out. Exit status is 0 on success, 2 on a configuration problem, 3 when a
tilt solver fails to converge.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .benchmarks import benchmark_keys, format_comparison, get_case, run_case
from .copulas import CopulaSpec, CornerEvent, latent_thresholds, vine_preset
from .errors import ConfigError, DegeneratePilotError, SolverError, TailTiltError
from .estimators import ExperimentConfig, replicate, solve_event_theta
from .oracle import clayton_corner_prob, rect_prob_gaussian, rect_prob_t, vine_corner_prob
from .randkit import MarginSpec, _check_real, margin_cdf

CSV_COLUMNS = ("method", "family", "params", "p", "u_hat", "sd",
               "seconds", "wnrv", "theta", "seed")

_VINES = ("3d-vine", "4d-vine")

_Flags = dict[str, argparse.Action]


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, _Flags]]:
    """The parser, and each subcommand's flags keyed by ``dest``."""
    top = argparse.ArgumentParser(prog="tailtilt",
                                  description="rare-event estimation for copula models")
    sub = top.add_subparsers(dest="command", required=True)
    schema: dict[str, _Flags] = {}

    def command(name: str, summary: str):
        parser = sub.add_parser(name, help=summary)
        flags = schema[name] = {}

        def add(*names, **kw):
            action = parser.add_argument(*names, **kw)
            flags[action.dest] = action
        return add

    def model_flags(add):
        add("--config", help="JSON file with defaults for any flag")
        add("--copula", choices=("gaussian", "student-t", "clayton") + _VINES)
        add("--rho", type=float, help="off-diagonal correlation (d=2)")
        add("--sigma", type=json.loads, help="full correlation matrix as JSON")
        add("--nu", type=float, help="t copula degrees of freedom, at least 0.2")
        add("--delta", type=float, help="clayton parameter")
        add("--dim", type=int, help="dimension (default 2)")
        add("--margins", choices=("std-normal", "exponential", "student-t", "uniform01"))
        add("--margin-df", type=float, help="df for student-t margins, at least 0.2")
        add("--margin-rate", type=float, help="rate for exponential margins")

    def event_flags(add):
        add("--p", type=float, nargs="+", help="corner threshold(s) on the margin scale")
        add("--direction", choices=("upper", "lower"))

    def run_flags(add):
        add("--n", type=int, help="samples per replication (default 500)")
        add("--reps", type=int, help="replications M (default 5000)")
        add("--seed", type=int)
        add("--csv", help="append data rows to this CSV file")
        add("--json-out", help="write the diagnostics JSON here too")

    add = command("estimate", "estimate one corner probability")
    model_flags(add)
    event_flags(add)
    add("--method", choices=("naive", "is-t1", "is-t2", "is-t3", "is-ld"))
    add("--theta", type=json.loads, help="tilt as JSON (number or list); omit to solve")
    run_flags(add)

    add = command("solve-theta", "solve a tilt without estimating")
    model_flags(add)
    event_flags(add)
    add("--method", choices=("is-t1", "is-t2", "is-t3", "is-ld"))
    add("--solver", choices=("saa", "tallis"))
    add("--seed", type=int)
    add("--json-out", help="write the diagnostics JSON here too")

    add = command("oracle", "print a reference probability")
    model_flags(add)
    event_flags(add)
    add("--json-out", help="write the diagnostics JSON here too")

    add = command("bench", "run benchmark cases into CSV rows")
    add("--table", required=True,
        help="case key (%s) or 'all'" % ", ".join(benchmark_keys()))
    add("--methods", help="comma-separated subset of a case's methods")
    add("--p", type=float, nargs="+", help="subset of the case's thresholds")
    add("--n", type=int)
    add("--reps", type=int)
    add("--seed", type=int)
    add("--csv", help="append rows here instead of stdout")

    add = command("reproduce", "compare a benchmark case to its reference")
    add("--table", required=True, help="case key (%s)" % ", ".join(benchmark_keys()))
    add("--n", type=int)
    add("--reps", type=int)
    add("--seed", type=int)
    add("--csv", help="also append the measured rows to this CSV file")

    return top, schema


_JSON_TYPES = {int: int, float: (int, float), None: str}  # by the flag's argparse type


def _file_value(flags: _Flags, key: str, val):
    """A config-file value, checked as argparse checks the flag's text."""
    action = flags.get(key) if key != "config" else None
    if action is None:
        raise ConfigError(f"config key {key!r} names no flag of this command")
    if action.type is json.loads:
        return val
    items = val if action.nargs == "+" and isinstance(val, list) else [val]
    for v in items:
        if (isinstance(v, bool) or not isinstance(v, _JSON_TYPES[action.type])
                or (action.choices is not None and v not in action.choices)):
            raise ConfigError(f"config key {key!r} cannot take {v!r}")
    if action.type is float:
        items = [float(v) for v in items]
    return items if action.nargs == "+" else items[0]


def _merge_config(args: argparse.Namespace, flags: _Flags) -> dict:
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
        merged = {key: _file_value(flags, key, val) for key, val in loaded.items()}
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


def _build_margin(opt: dict) -> MarginSpec:
    kind = opt.get("margins", "std-normal")
    if kind == "student-t":
        return MarginSpec("student-t", df=_require(opt, "margin_df"))
    if kind == "exponential":
        return MarginSpec("exponential", rate=opt.get("margin_rate", 1.0))
    return MarginSpec(kind)


def _build_model(opt: dict):
    family = _require(opt, "copula")
    if opt.get("dim", 2) < 1:
        raise ConfigError(f"--dim must be at least 1, got {opt['dim']}")
    if family in _VINES:
        return vine_preset(family[:2])
    if family == "clayton":
        return CopulaSpec("clayton", (_build_margin(opt),) * opt.get("dim", 2),
                          delta=_require(opt, "delta"))
    if opt.get("sigma") is not None:
        sigma = _check_real(opt["sigma"], "--sigma", array=True)
        d = sigma.shape[0] if sigma.ndim == 2 else 0
    else:
        rho = _require(opt, "rho")
        d = opt.get("dim", 2)
        sigma = np.full((d, d), rho)
        np.fill_diagonal(sigma, 1.0)
    margins = (_build_margin(opt),) * d
    if family == "student-t":
        return CopulaSpec("student-t", margins, sigma=sigma, nu=_require(opt, "nu"))
    return CopulaSpec("gaussian", margins, sigma=sigma)


def _build_event(opt: dict, d: int) -> CornerEvent:
    vals = _require(opt, "p")
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
    if off.size and (np.all(off == off[0]) or model.d == 2):
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
    return "" if theta is None else ";".join(map(repr, theta))


def _csv_row(model, p, result, seed) -> dict:
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
        "theta": _fmt_theta(result.theta),
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


def _cmd_estimate(opt: dict) -> int:
    model = _build_model(opt)
    event = _build_event(opt, model.d)
    method = opt.get("method", "naive")
    seed = opt.get("seed", 0)
    cfg = ExperimentConfig(model, event, method, n=opt.get("n", 500),
                           M=opt.get("reps", 5000), seed=seed, theta=opt.get("theta"))
    result = replicate(cfg)
    family, params = _model_labels(model)
    _emit_json({
        "command": "estimate", "method": method, "family": family, "params": params,
        "p": _fmt_p(event), "direction": event.direction, "n": result.n,
        "reps": result.reps, "seed": seed, "u_hat": result.u_hat, "sd": result.sd,
        "se": result.se, "sd_within_run": result.sd_within_run,
        "seconds": result.seconds, "solve_seconds": result.solve_seconds,
        "wnrv": result.wnrv, "theta": None if result.theta is None else list(result.theta),
    }, opt.get("json_out"))
    if opt.get("csv"):
        _write_rows([_csv_row(model, event, result, seed)], opt["csv"])
    return 0


def _cmd_solve_theta(opt: dict) -> int:
    model = _build_model(opt)
    event = _build_event(opt, model.d)
    method = _require(opt, "method")
    cfg = ExperimentConfig(model, event, method, seed=opt.get("seed", 0))
    sol = solve_event_theta(cfg, solver=opt.get("solver"))
    _emit_json({
        "command": "solve-theta", "method": method,
        "theta": list(np.atleast_1d(sol.theta_o)), "solver": sol.method,
        "iterations": sol.iterations, "residual_norm": sol.residual_norm,
        "pilot_size": sol.pilot_size, "pilot_hits": sol.pilot_hits,
        "G_hat": sol.G_hat_at_solution, "converged": sol.converged,
        "reflected": sol.reflected, "pre_levels": len(sol.pre_levels),
        "pre_last_gamma": sol.pre_levels[-1] if sol.pre_levels else None,
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
    model = _build_model(opt)
    if family in _VINES:
        p = _equal_threshold(opt, family, model.d)
        payload.update(p=p, value=vine_corner_prob(model, p))
    elif family == "clayton":
        u0 = float(margin_cdf(model.margins[0], _equal_threshold(opt, family, model.d)))
        payload.update(u0=u0, value=clayton_corner_prob(model.delta, u0, model.d))
    else:
        a_star = latent_thresholds(model, _build_event(opt, model.d))
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
        rows = run_case(key, methods=methods, n=opt.get("n", 500),
                        M=opt.get("reps", 5000), seed=opt.get("seed", 0),
                        p_values=tuple(opt["p"]) if opt.get("p") else None)
        model = case.model()
        for r in rows:
            all_rows.append(_csv_row(model, (r.p,) * model.d, r.result, opt.get("seed", 0)))
    _write_rows(all_rows, opt.get("csv"))
    return 0


def _cmd_reproduce(opt: dict) -> int:
    key = opt["table"]
    case = get_case(key)
    rows = run_case(key, n=opt.get("n", 500), M=opt.get("reps", 5000),
                    seed=opt.get("seed", 0))
    print(format_comparison(key, rows))
    if opt.get("csv"):
        model = case.model()
        _write_rows([_csv_row(model, (r.p,) * model.d, r.result, opt.get("seed", 0))
                     for r in rows], opt["csv"])
    return 0


_COMMANDS = {
    "estimate": _cmd_estimate,
    "solve-theta": _cmd_solve_theta,
    "oracle": _cmd_oracle,
    "bench": _cmd_bench,
    "reproduce": _cmd_reproduce,
}


def main(argv=None) -> int:
    parser, schema = _build_parser()
    args = parser.parse_args(argv)
    try:
        opt = _merge_config(args, schema[args.command])
        return _COMMANDS[args.command](opt)
    except (SolverError, DegeneratePilotError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TailTiltError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
