"""Benchmark of tailtilt on the paper's claim: rare corners, estimated fast.

Run from the repository root:

    python3 perfbench/run.py --workload paper-2d --seed 1 --seconds 30 --trace 0

The run builds its workload's cells from ``--seed`` (see ``workloads.py``),
then solves and estimates every cell through the public API
(``solve_event_theta``, ``replicate`` with ``threads=1``) in whole passes
until ``--seconds`` are used, at least three passes. Every estimate is
checked against references computed apart from tailtilt (``refs.py``) and
against the property checks in ``checks.py``.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics: medians over the passes, scaled to the reference
speed of a yardstick timed through the run, and the median set-up time of
fresh processes, each scaled by an import yardstick timed just before it
(``yardstick.py``). With
``--trace 1`` the run traces passes at the layer boundaries (``spans.py``),
times each layer's public functions from outside (``layers.py``), writes its
spans to ``perfbench/out/`` and prints the per-layer metrics instead.
Human-readable progress goes to standard error.
"""

from __future__ import annotations

import os

# one BLAS thread, before numpy loads: the benchmark times one core
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

MIN_PASSES = 3
SETUP_RUNS = 4
TARGET_RSE = 1e-3  # the 0.1% relative standard error of tts_0.1pct_s


def declared(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    ``BENCHMARK.json`` declares; a run reports exactly these."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def as_reported(kind: str, values: dict[str, float]) -> dict[str, dict]:
    """The declared metrics of ``kind`` with their values and units."""
    return {k: {"value": values[k], "unit": u} for k, u in declared(kind).items()}


def load_program() -> None:
    """Import tailtilt from this checkout's ``src``, or stop the run."""
    if not (SRC / "tailtilt" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tailtilt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import tailtilt

    if Path(tailtilt.__file__).resolve().parent != (SRC / "tailtilt").resolve():
        raise SystemExit(f"perfbench: tailtilt was imported from {tailtilt.__file__}, "
                         f"not from {SRC}")


def set_up(name: str, seed: int):
    """Everything before the first timed call: imports, the workload's models
    and events, and one warm-up ``replicate``."""
    load_program()
    import workloads
    from tailtilt import ExperimentConfig, replicate

    wl = workloads.build(name, seed)
    first = wl.cells[0]
    replicate(ExperimentConfig(first.model, first.event, "naive", n=workloads.N_DRAWS, M=20,
                               seed=first.seed), threads=1)
    return wl


def measure_setup(name: str, seed: int) -> tuple[float, list[float], list[float]]:
    """setup_s: over ``SETUP_RUNS`` fresh processes, the median of each one's
    set-up seconds (from its spawn until it is ready for the first timed call)
    over the import yardstick timed just before it, times ``IMPORT_REF``.

    Returns that and the raw set-up and yardstick seconds.
    """
    import yardstick

    probe = [str(Path(__file__).resolve()), "--setup-probe", "--workload", name,
             "--seed", str(seed), "--seconds", "0"]
    raw, yard = [], []
    for _ in range(SETUP_RUNS):
        yard.append(yardstick.import_once(ROOT))
        raw.append(yardstick.seconds_to_ready(probe, ROOT))
    setup_s = median(r / y for r, y in zip(raw, yard)) * yardstick.IMPORT_REF
    return setup_s, raw, yard


# ---------------------------------------------------------------------------
# passes


@dataclass(frozen=True)
class Outcome:
    """What one cell returned in one pass: a result, or the error it raised."""

    res: object = None
    solve_s: float = 0.0
    sol: object = None
    error: str | None = None


def run_cell(cell, tracer, pass_no: int, gauge=None) -> Outcome:
    import workloads
    from tailtilt import ExperimentConfig, TailTiltError, replicate, solve_event_theta

    cfg = ExperimentConfig(cell.model, cell.event, cell.method, n=workloads.N_DRAWS, M=cell.M,
                           seed=cell.seed_for(pass_no))
    if gauge is not None:
        gauge.sample()
    tracer.cell = cell.key
    try:
        with tracer.span("bench.cell"):
            sol, solve_s = None, 0.0
            if cell.method != "naive":
                with tracer.span("estimators.solve_event_theta"):
                    t0 = time.perf_counter()
                    sol = solve_event_theta(cfg, **cell.solve_kw)
                    solve_s = time.perf_counter() - t0
                cfg = ExperimentConfig(cell.model, cell.event, cell.method, n=cfg.n, M=cfg.M,
                                       seed=cfg.seed, theta=tuple(sol.theta_o.ravel()))
            with tracer.span("estimators.replicate"):
                res = replicate(cfg, threads=1)
        return Outcome(res, solve_s, sol)
    except TailTiltError as exc:
        return Outcome(error=f"{type(exc).__name__}: {exc}")
    finally:
        tracer.cell = None


def run_pass(wl, tracer, pass_no: int, gauge=None) -> dict:
    return {cell.key: run_cell(cell, tracer, pass_no, gauge) for cell in wl.cells}


def pass_metrics(wl, outcomes: dict) -> dict[str, float]:
    """solve_s and draws_per_s of one pass over the timed cells."""
    solve = draws = seconds = 0.0
    for cell in wl.cells:
        out = outcomes[cell.key]
        if not cell.timed or out.res is None:
            continue
        draws += out.res.n * out.res.reps
        seconds += out.res.seconds
        solve += out.solve_s
    return {"solve_s": solve, "draws_per_s": draws / seconds if seconds > 0 else 0.0}


def time_to_target(wl, passes) -> float:
    """tts_0.1pct_s: the geometric mean over the timed importance-sampling
    cells of solve seconds plus wnrv / 0.001^2.

    Per cell, the solve seconds are the median over passes and wnrv the mean
    over passes. Each pass draws afresh, so the mean pools the passes' variance
    estimates as one larger sample would.
    """
    logs = []
    for cell in wl.cells:
        if not cell.timed or cell.method == "naive":
            continue
        outs = [o[cell.key] for o, _ in passes if o[cell.key].res is not None]
        wn = [out.res.wnrv for out in outs if out.res.wnrv is not None]
        if not wn:
            continue
        solve = median(out.solve_s for out in outs)
        logs.append(math.log(solve + sum(wn) / len(wn) / TARGET_RSE**2))
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def run_passes(wl, seconds: float, tracer_for_pass, min_passes: int = MIN_PASSES,
               gauge=None) -> list[tuple[dict, float]]:
    """Whole passes until ``seconds`` would be exceeded, at least ``min_passes``.

    ``tracer_for_pass(i)`` gives the tracer, the boundary context and the
    seed number of pass i; ``gauge``, if given, samples the yardstick before
    each cell. Returns (outcomes, wall seconds) per pass.
    """
    passes = []
    start = time.monotonic()
    while True:
        tracer, ctx, pass_no = tracer_for_pass(len(passes))
        t0 = time.monotonic()
        with ctx:
            outcomes = run_pass(wl, tracer, pass_no, gauge)
        passes.append((outcomes, time.monotonic() - t0))
        typical = median(d for _, d in passes)
        if len(passes) >= min_passes and time.monotonic() - start + typical > seconds:
            return passes


# ---------------------------------------------------------------------------
# checks


def check(wl, passes) -> list[str]:
    """Reference and agreement checks on every pass; property checks once."""
    import checks

    ref_values = {}
    bad = []
    for i, (outcomes, _) in enumerate(passes, start=1):
        results = {k: o.res for k, o in outcomes.items() if o.res is not None}
        for key in results:
            if key not in ref_values:
                ref_values[key] = next(c for c in wl.cells if c.key == key).ref()
        bad += [f"pass {i}: {m}" for m in checks.reference(wl, results, ref_values)]
        bad += [f"pass {i}: {m}" for m in checks.agreement(wl, results)]
    first = passes[0][0]
    thetas = {k: o.sol.theta_o.ravel() for k, o in first.items() if o.sol is not None}
    bad += checks.zero_tilt(wl)
    bad += checks.threads(wl, thetas)
    for key, ref in ref_values.items():
        got = [o[key].res for o, _ in passes if o[key].res is not None]
        zs = [checks.z_score(r.u_hat - ref, r.sd / math.sqrt(r.reps)) for r in got]
        print(f"  {key:28s} ref {ref:.6e}  z " + " ".join(f"{z:+.2f}" for z in zs),
              file=sys.stderr)
    return bad


def counts(passes) -> tuple[int, int]:
    attempted = sum(len(o) for o, _ in passes)
    failed = sum(1 for o, _ in passes for out in o.values() if out.error is not None)
    return attempted, failed


def report_failures(passes) -> None:
    for key, out in passes[0][0].items():
        if out.error is not None:
            print(f"  failed {key}: {out.error}", file=sys.stderr)


# ---------------------------------------------------------------------------
# the two kinds of run


def untraced_run(wl, seed: int, seconds: float):
    """The end-to-end metrics: set-up time scaled by the import yardstick,
    and raw medians over passes scaled by the compute yardstick's speed
    factor (``yardstick.py``)."""
    from contextlib import nullcontext

    from spans import NullTracer
    from yardstick import Gauge

    setup_s, setup_raw, setup_yard = measure_setup(wl.name, seed)
    gauge = Gauge()
    passes = run_passes(wl, seconds, lambda i: (NullTracer(), nullcontext(), i), gauge=gauge)
    per_pass = [pass_metrics(wl, o) for o, _ in passes]
    for i, (m, (_, wall)) in enumerate(zip(per_pass, passes), start=1):
        print(f"pass {i}: {wall:.2f} s  " + "  ".join(f"{k} {v:.6g}" for k, v in m.items()),
              file=sys.stderr)
    raw = {k: median(m[k] for m in per_pass) for k in per_pass[0]}
    raw["tts_0.1pct_s"] = time_to_target(wl, passes)
    f = gauge.factor()
    print(f"raw {' '.join(f'{k} {v:.6g}' for k, v in raw.items())}; yardstick median "
          f"{median(gauge.samples):.5f} s over {len(gauge.samples)} samples, factor {f:.4f}",
          file=sys.stderr)
    print(f"set-up: raw median {median(setup_raw):.4f} s, import yardstick median "
          f"{median(setup_yard):.4f} s over {len(setup_raw)} processes", file=sys.stderr)
    metrics = {k: v * f for k, v in raw.items()}
    metrics["draws_per_s"] = raw["draws_per_s"] / f
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return passes, as_reported("end_to_end", metrics)


def traced_run(wl, seed: int, seconds: float):
    """Untraced and traced passes in turn, two pairs at least, for half the
    time; then the probes.

    Returns the passes, the per-layer metrics and the failed checks.
    """
    from contextlib import nullcontext

    import checks
    import layers
    import spans

    tracer = spans.Tracer()

    def traced(i: int) -> bool:
        # passes 2k and 2k+1 share seed number k; one of them is traced, the
        # first in odd pairs and the second in even ones
        return i % 2 != (i // 2) % 2

    passes = run_passes(wl, seconds * 0.5,
                        lambda i: (tracer, tracer.boundaries(), i // 2) if traced(i)
                        else (spans.NullTracer(), nullcontext(), i // 2), min_passes=4)
    bad = []
    walls_plain = []
    for i in range(0, len(passes) - 1, 2):
        (out_p, wall_p), (out_t, _) = passes[i:i + 2][::1 if traced(i + 1) else -1]
        bad += checks.same_bits({k: o.res for k, o in out_p.items() if o.res is not None},
                                {k: o.res for k, o in out_t.items() if o.res is not None},
                                f"with tracing on (passes {i + 1} and {i + 2})")
        walls_plain.append(wall_p)
    n_traced = sum(traced(i) for i in range(len(passes)))

    cell_spans = list(tracer.spans)
    # the overhead is worked out from the cost of one span: the wall times of
    # traced and untraced passes differ by more than that as the machine drifts
    cost = spans.span_cost()
    overhead = cost * len(cell_spans) / n_traced / median(walls_plain)
    split = spans.solver_split(cell_spans)
    reps = sum(out.res.reps for i, (o, _) in enumerate(passes) if traced(i)
               for out in o.values() if out.res is not None)
    metrics = layers.probe_all(wl, tracer)
    metrics["estimators.overhead_us_per_rep"] = spans.replicate_self(cell_spans, cost) / reps * 1e6
    for stage in ("prestage", "pilot", "newton"):
        metrics[f"tilting.{stage}_s"] = split[f"{stage}_s"] / n_traced
    metrics["tilting.solver_words"] = split["words"] / n_traced
    metrics["tilting.newton_iters"] = split["newton_iters"] / n_traced
    metrics["tilting.pilot_hits"] = split["hits"] / n_traced

    self_s = {k: v / n_traced for k, v in spans.self_times(cell_spans).items()}
    layer_s = {k: v / n_traced for k, v in spans.layer_self_times(cell_spans).items()}
    print(f"tracing overhead {100 * overhead:.2f}% ({len(cell_spans) // n_traced} spans per "
          f"pass at {1e6 * cost:.2f} us, median untraced pass {median(walls_plain):.3f} s)",
          file=sys.stderr)
    for name, sec in sorted(layer_s.items(), key=lambda kv: -kv[1]):
        print(f"  self {name:12s} {sec:9.4f} s per pass", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{wl.name}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": wl.name, "seed": seed, "traced_passes": n_traced,
            "overhead": {"span_cost_s": cost, "share": overhead},
            "self_s_per_pass": self_s, "layer_self_s_per_pass": layer_s,
            "metrics": metrics,
            "span_fields": spans.FIELDS,
            "spans": tracer.spans,
        }, fh)
    print(f"spans written to {path}", file=sys.stderr)
    return passes, as_reported("per_layer", metrics), bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    wl = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(repr(time.monotonic()))
        return 0

    if args.trace:
        passes, metrics, bad = traced_run(wl, args.seed, args.seconds)
    else:
        passes, metrics = untraced_run(wl, args.seed, args.seconds)
        bad = []
    report_failures(passes)
    bad += check(wl, passes)
    for msg in bad:
        print(f"CHECK FAILED {msg}", file=sys.stderr)
    attempted, failed = counts(passes)
    print(json.dumps({"correct": not bad, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
