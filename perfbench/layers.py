"""Per-layer probes: each layer's public functions timed from outside.

Every probe calls one public function of one module on inputs shaped like
the workload's (``block_rows`` rows per call: 500 where replications do the
work, 100k where the solver's crude pre-stage does) and reports the median
cost per unit over several calls. The solver split, its counts and the
replication overhead come from the traced passes instead (``run.py``).
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

from tailtilt import make_stream, rect_prob_gaussian
from tailtilt.copulas import (
    PairCopula,
    h_func,
    h_inv,
    rosenblatt_inverse,
    sample_copula_uniforms,
    vine_preset,
    vine_rosenblatt_inverse,
)
from tailtilt.randkit import sample_gamma, sample_mvn
from tailtilt.tilting import TiltFamily, sample_tilted, solve_theta_gaussian_tallis

import workloads

_MODELS = ("gaussian", "student-t", "clayton")


# the pair copulas of the preset vines, one per family
_PAIRS = {
    "gaussian": PairCopula("gaussian", rho=0.5),
    "student-t": PairCopula("student-t", nu=5.0, rho=0.5),
    "clayton": PairCopula("clayton", delta=3.0),
    "gumbel": PairCopula("gumbel", delta=3.0),
    "frank": PairCopula("frank", delta=3.0),
    "joe": PairCopula("joe", delta=3.0),
}

_SIGMA = np.array([[1.0, 0.5], [0.5, 1.0]])

# one tilt per family, near the tilts the 1e-3 corners solve to
_FAMILIES = {
    "trunc-exp-product": (TiltFamily("trunc-exp-product", 2), (50.0, 50.0)),
    "mvn-shift": (TiltFamily("mvn-shift", 2, sigma=_SIGMA), (1.77, 1.77)),
    "t-gamma-normal": (TiltFamily("t-gamma-normal", 2, sigma=_SIGMA, nu=5.0,
                                  a_star=np.array([3.0, 3.0])), (1.0, 1.0)),
    "clayton-mo": (TiltFamily("clayton-mo", 2, delta=3.0), (0.85, 14.6, 14.6)),
    "hazard-rate": (TiltFamily("hazard-rate", 2), (0.7,)),
}


def _time_calls(fn, min_calls: int = 5, min_seconds: float = 0.04) -> float:
    """Median seconds per call of ``fn`` after one warm-up call, over at least
    ``min_calls`` calls and ``min_seconds``; calls longer than 20 ms count
    towards at most three."""
    t0 = time.perf_counter()
    fn()
    if time.perf_counter() - t0 > 0.02:
        min_calls = min(min_calls, 3)
    times = []
    start = time.perf_counter()
    while len(times) < min_calls or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return median(times)


def _models():
    return dict(zip(_MODELS, (workloads.gaussian2(0.5), workloads.student2(0.5),
                              workloads.clayton2())))


def probe_randkit(rows: int, tracer) -> dict[str, float]:
    out = {}
    s = make_stream(7, 1)
    with tracer.span("randkit.uniforms"):
        out["randkit.uniform_ns_per_word"] = _time_calls(
            lambda: s.uniforms(2 * rows)) / (2 * rows) * 1e9
    ids = iter(range(10**9))
    with tracer.span("randkit.make_stream"):
        out["randkit.stream_us_per_make"] = _time_calls(
            lambda: make_stream(7, next(ids)), min_calls=200) * 1e6
    with tracer.span("randkit.sample_mvn"):
        out["randkit.mvn_ns_per_row"] = _time_calls(
            lambda: sample_mvn(s, 0.0, _SIGMA, rows)) / rows * 1e9
    for label, shape, rate in (("t", 2.5, 0.5), ("clayton", 1.0 / 3.0, 1.0)):
        g = make_stream(7, 2)
        calls = [0]

        def draw():
            sample_gamma(g, shape, rate, rows)
            calls[0] += 1

        with tracer.span("randkit.sample_gamma"):
            out[f"randkit.gamma_ns_per_draw.{label}"] = _time_calls(draw) / rows * 1e9
        out[f"randkit.gamma_words_per_draw.{label}"] = g.position / (calls[0] * rows)
    return out


def probe_models(rows: int, tracer) -> dict[str, float]:
    out = {}
    s = make_stream(7, 3)
    for fam, model in _models().items():
        v = s.uniforms(rows * model.d).reshape(rows, model.d)
        with tracer.span("models.rosenblatt_inverse"):
            out[f"models.rinv_ns_per_row.{fam}"] = _time_calls(
                lambda: rosenblatt_inverse(model, v)) / rows * 1e9
        with tracer.span("models.sample_copula_uniforms"):
            out[f"models.crude_ns_per_row.{fam}"] = _time_calls(
                lambda: sample_copula_uniforms(model, s, rows, "direct")) / rows * 1e9
    return out


def probe_pairs(rows: int, tracer) -> dict[str, float]:
    out = {}
    s = make_stream(7, 4)
    v1, v2 = s.uniforms(rows), s.uniforms(rows)
    for fam, pc in _PAIRS.items():
        with tracer.span("pairs.h_func"):
            out[f"pairs.h_func_ns.{fam}"] = _time_calls(lambda: h_func(pc, v2, v1)) / rows * 1e9
        with tracer.span("pairs.h_inv"):
            out[f"pairs.h_inv_ns.{fam}"] = _time_calls(lambda: h_inv(pc, v2, v1)) / rows * 1e9
    return out


def probe_vines(rows: int, tracer) -> dict[str, float]:
    out = {}
    s = make_stream(7, 5)
    for name in ("3d", "4d"):
        rv = vine_preset(name)
        v = s.uniforms(rows * rv.d).reshape(rows, rv.d)
        with tracer.span("vines.vine_rosenblatt_inverse"):
            out[f"vines.rinv_ns_per_row.{name}"] = _time_calls(
                lambda: vine_rosenblatt_inverse(rv, v)) / rows * 1e9
    return out


def probe_tilting(rows: int, tallis_corner: tuple[float, float], tracer) -> dict[str, float]:
    out = {}
    s = make_stream(7, 6)
    for kind, (fam, theta) in _FAMILIES.items():
        th = np.asarray(theta)
        with tracer.span("tilting.sample_tilted"):
            out[f"tilting.sample_ns_per_row.{kind}"] = _time_calls(
                lambda: sample_tilted(fam, s, th, rows)) / rows * 1e9
    rho, p = tallis_corner
    sigma = np.array([[1.0, rho], [rho, 1.0]])
    with tracer.span("tilting.solve_theta_gaussian_tallis"):
        out["tilting.tallis_s"] = _time_calls(
            lambda: solve_theta_gaussian_tallis(sigma, (p, p)), min_calls=3)
    # the closed-form solver's first rectangle: a + sigma theta at its
    # starting tilt theta = sigma^-1 a, that is 2a
    b = np.array([2.0 * p, 2.0 * p])
    with tracer.span("oracle.rect_prob_gaussian"):
        out["oracle.rect_gaussian_ms.d2"] = _time_calls(
            lambda: rect_prob_gaussian(sigma, b, "upper")) * 1e3
    return out


def probe_all(wl, tracer) -> dict[str, float]:
    """Every per-layer metric except those the traced passes give, on the
    workload's row counts."""
    rows = wl.block_rows
    out = {}
    out.update(probe_randkit(rows, tracer))
    out.update(probe_models(rows, tracer))
    out.update(probe_pairs(rows, tracer))
    out.update(probe_vines(rows, tracer))
    out.update(probe_tilting(rows, wl.tallis_probe, tracer))
    return out
