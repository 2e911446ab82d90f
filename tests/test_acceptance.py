"""Desk-scale acceptance checks, run at n=500 draws and M=5000 replications.

Every test ends by printing a single PASS or FAIL line through the
uncaptured terminal, so a full run reads as a short checklist. The checks
pin the shipped estimators to independently computed corner probabilities,
to the frozen reference columns in :mod:`tailtilt.benchmarks`, and to the
structural identities the samplers are supposed to satisfy.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.special import ndtr, stdtr

from tailtilt.benchmarks import get_case
from tailtilt.copulas import CopulaSpec, CornerEvent, vine_preset
from tailtilt.copulas import (
    rosenblatt_forward,
    rosenblatt_inverse,
    vine_rosenblatt_forward,
    vine_rosenblatt_inverse,
)
from tailtilt.estimators import ExperimentConfig, replicate, sd_eff, solve_event_theta
from tailtilt.oracle import (
    clayton_corner_prob,
    rect_prob_gaussian,
    rect_prob_t,
    vine_corner_prob,
)
from tailtilt.randkit import MarginSpec, make_stream
from tailtilt.tilting import (
    G_hat,
    TiltFamily,
    draw_pilot,
    first_order_gap,
    grad_psi,
    psi,
    sample_tilted,
    solve_theta_gaussian_tallis,
)
from test_estimators import crude_chain

N = 500
M = 5000
SEED = 0

_MODELS = {}
_CELLS = {}


@pytest.fixture
def emit(capsys):
    def _emit(name, ok, detail):
        with capsys.disabled():
            print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)
        assert ok, f"{name}: {detail}"

    return _emit


def _model(case_key):
    if case_key not in _MODELS:
        _MODELS[case_key] = get_case(case_key).model()
    return _MODELS[case_key]


def _cell(case_key, p_index, method, reps=M):
    """Run (and memoize) one estimator on one benchmark corner."""
    key = (case_key, p_index, method, reps)
    if key in _CELLS:
        return _CELLS[key]
    case = get_case(case_key)
    model = _model(case_key)
    event = CornerEvent("upper", (case.p[p_index],) * model.d)
    cfg = ExperimentConfig(model=model, event=event, method=method,
                           n=N, M=reps, seed=SEED)
    sol = None
    if method != "naive":
        sol = solve_event_theta(cfg)
        cfg = ExperimentConfig(model=model, event=event, method=method, n=N,
                               M=reps, seed=SEED,
                               theta=tuple(np.atleast_1d(sol.theta_o)))
    res = replicate(cfg)
    _CELLS[key] = (res, sol)
    return res, sol


def _se(res):
    return res.sd / math.sqrt(res.reps)


def test_criterion_1_case1_reproduction(emit):
    """Estimates, binomial noise, and tilted spreads on the first corner set."""
    case = get_case("1")
    sigma = np.eye(2)
    worst_z = 0.0
    naive_sd_err = 0.0
    band_lo, band_hi = math.inf, 0.0
    ok = True
    for i, p in enumerate(case.p):
        u_true = rect_prob_gaussian(sigma, np.array([p, p]))
        for method in ("naive", "is-t1", "is-t2"):
            res, _ = _cell("1", i, method)
            z = abs(res.u_hat - u_true) / _se(res)
            worst_z = max(worst_z, z)
            ok = ok and z <= 3.0
        naive, _ = _cell("1", i, "naive")
        binom = math.sqrt(u_true * (1.0 - u_true) / N)
        naive_sd_err = max(naive_sd_err, abs(naive.sd / binom - 1.0))
        for method in ("is-t1", "is-t2"):
            res, _ = _cell("1", i, method)
            ratio = res.sd / case.reference[method]["sd"][i]
            band_lo, band_hi = min(band_lo, ratio), max(band_hi, ratio)
    ok = ok and naive_sd_err <= 0.25 and 0.5 <= band_lo and band_hi <= 2.0
    emit("criterion 1 (case-1 reproduction)", ok,
         f"max |u-truth|/se {worst_z:.2f} over 12 runs, naive sd within "
         f"{100 * naive_sd_err:.1f}% of binomial, tilted sd in "
         f"[{band_lo:.2f}, {band_hi:.2f}] of reference")


def test_criterion_2_variance_reduction_floors(emit):
    vals = {}
    naive1, _ = _cell("1", 3, "naive")
    vals["case-1 is-t1"] = (sd_eff(naive1, _cell("1", 3, "is-t1")[0]), 13.0)
    vals["case-1 is-t2"] = (sd_eff(naive1, _cell("1", 3, "is-t2")[0]), 5.0)
    naive9, _ = _cell("9", 3, "naive")
    vals["case-9 is-t1"] = (sd_eff(naive9, _cell("9", 3, "is-t1")[0]), 14.0)
    naive12, _ = _cell("12", 3, "naive")
    vals["case-12 is-t1"] = (sd_eff(naive12, _cell("12", 3, "is-t1")[0]), 13.0)
    ok = all(v >= floor for v, floor in vals.values())
    emit("criterion 2 (variance-reduction floors)", ok,
         ", ".join(f"{k} {v:.1f}>={floor:g}" for k, (v, floor) in vals.items()))


def test_criterion_3_tilt_agreement(emit):
    case1 = get_case("1")
    worst = 0.0
    for i in range(len(case1.p)):
        for method in ("is-t1", "is-t2"):
            _, sol = _cell("1", i, method)
            ref = np.asarray(case1.reference[method]["theta"][i])
            worst = max(worst, float(np.max(np.abs(sol.theta_o / ref - 1.0))))
    _, sol9 = _cell("9", 3, "is-t2")
    ref9 = np.asarray(get_case("9").reference["is-t2"]["theta"][3])
    worst = max(worst, float(np.max(np.abs(sol9.theta_o / ref9 - 1.0))))
    _, sol12 = _cell("12", 3, "is-t2")
    ref_w = get_case("12").reference["is-t2"]["theta"][3][0]
    worst = max(worst, abs(float(sol12.theta_o[0]) / ref_w - 1.0))

    # closed-form Gaussian corner solver against the pilot-based one
    worst_pair = 0.0
    for key in ("1", "2", "3"):
        case = get_case(key)
        model = _model(key)
        for p in case.p:
            cfg = ExperimentConfig(model=model, event=CornerEvent("upper", (p, p)),
                                   method="is-t2", n=N, M=M, seed=SEED)
            closed = solve_event_theta(cfg)
            assert closed.method == "tallis-newton"
            pilot = solve_event_theta(cfg, solver="saa")
            gap = float(np.max(np.abs(pilot.theta_o / closed.theta_o - 1.0)))
            worst_pair = max(worst_pair, gap)
    ok = worst <= 0.10 and worst_pair <= 0.05
    emit("criterion 3 (tilt agreement)", ok,
         f"solved tilts within {100 * worst:.1f}% of reference (cap 10%), "
         f"closed-form vs pilot within {100 * worst_pair:.1f}% on 12 Gaussian "
         f"corners (cap 5%)")


def test_criterion_4_clayton_corner_truth(emit):
    case = get_case("12")
    worst = 0.0
    for i, p in enumerate(case.p):
        u_true = clayton_corner_prob(3.0, float(ndtr(p)))
        for method in ("naive", "is-t1", "is-t2", "is-t3"):
            res, _ = _cell("12", i, method)
            worst = max(worst, abs(res.u_hat - u_true) / _se(res))
    ok = worst <= 3.0
    emit("criterion 4 (clayton corner truth)", ok,
         f"max |u-truth|/se {worst:.2f} over 16 runs against the closed form")


def test_criterion_5_vine_corners(emit):
    worst_gap = 0.0
    effs = {}
    ok = True
    for key in ("3d-vine", "4d-vine"):
        case = get_case(key)
        rv = _model(key)
        for i, p in enumerate(case.p):
            res, _ = _cell(key, i, "is-t1")
            gap = abs(res.u_hat - vine_corner_prob(rv, p)) / _se(res)
            ok = ok and gap <= 3.0
            worst_gap = max(worst_gap, gap)
        naive, _ = _cell(key, 2, "naive")
        effs[key] = sd_eff(naive, _cell(key, 2, "is-t1")[0])
        ok = ok and effs[key] >= 7.0
    emit("criterion 5 (vine corners)", ok,
         f"max |u-ref|/se {worst_gap:.2f}<=3 over 6 corners against the chain quadrature, "
         + ", ".join(f"{k} sd_eff {v:.1f}>=7" for k, v in effs.items()))


def test_criterion_6_structural_invariants(emit):
    bad = []

    # importance weights average to one under the sampling measure
    for kind, d, theta in (("trunc-exp-product", 2, (1.3, 0.6)),
                           ("hazard-rate", 2, (0.45,))):
        f = TiltFamily(kind, d)
        ts = sample_tilted(f, make_stream(3, 0), theta, 200_000)
        w = np.exp(ts.log_lr)
        if abs(w.mean() - 1.0) > 4.0 * w.std(ddof=1) / math.sqrt(w.size):
            bad.append(f"lr-normalization {kind}")

    # the zero tilt reproduces the crude estimator draw for draw
    model = _model("1")
    event = CornerEvent("upper", (1.282, 1.282))
    small = dict(model=model, event=event, n=200, M=40, seed=5)
    direct = replicate(ExperimentConfig(method="naive", **small))
    cim = crude_chain(**small)
    pairs = [
        ((direct.u_hat, direct.sd),
         replicate(ExperimentConfig(method="is-t2", theta=(0.0, 0.0), **small))),
        (cim, replicate(ExperimentConfig(method="is-t1", theta=(0.0, 0.0), **small))),
        (cim, replicate(ExperimentConfig(method="is-t3", theta=(0.0,), **small))),
    ]
    for crude, tilted in pairs:
        if crude != (tilted.u_hat, tilted.sd):
            bad.append(f"zero-tilt identity {tilted.method}")

    # conditional transforms invert each other
    u = make_stream(21, 0).uniforms(800).reshape(400, 2)
    for spec in (CopulaSpec("gaussian", model.margins, sigma=_corr(0.5)),
                 CopulaSpec("student-t", model.margins, sigma=_corr(0.5), nu=5.0),
                 CopulaSpec("clayton", model.margins, delta=3.0)):
        back = rosenblatt_inverse(spec, rosenblatt_forward(spec, u))
        if float(np.max(np.abs(back - u))) > 1e-7:
            bad.append(f"round-trip {spec.family}")
    rv = vine_preset("3d")
    uv = make_stream(21, 1).uniforms(900).reshape(300, 3)
    back = vine_rosenblatt_forward(rv, vine_rosenblatt_inverse(rv, uv))
    if float(np.max(np.abs(back - uv))) > 1e-7:
        bad.append("round-trip vine")

    # cumulant gradients against central differences
    corner = np.array([3.14, 3.14])
    fams = [
        (TiltFamily("trunc-exp-product", 2), (1.1, -0.7)),
        (TiltFamily("mvn-shift", 2, sigma=_corr(0.5)), (0.8, 0.5)),
        (TiltFamily("t-gamma-normal", 2, sigma=np.eye(2), nu=5.0, a_star=corner),
         (1.2, 0.9)),
        (TiltFamily("clayton-mo", 2, delta=3.0), (0.5, 1.1, 0.8)),
        (TiltFamily("hazard-rate", 2), (0.55,)),
    ]
    for f, th in fams:
        g = grad_psi(f, th)
        if float(np.max(np.abs(g - _fd_grad(f, th)))) > 1e-6 * (1.0 + float(np.max(np.abs(g)))):
            bad.append(f"gradient {f.kind}")

    # the pilot objective is convex along segments
    a = np.array([1.282, 1.282])
    theta_star = solve_theta_gaussian_tallis(np.eye(2), a).theta_o
    f2 = TiltFamily("mvn-shift", 2, sigma=np.eye(2))
    ind = lambda ts: np.all(ts.x >= a[None, :], axis=1)
    pilot = draw_pilot(f2, ind, make_stream(SEED, 424_242), 200_000, theta_star)
    lo, hi = 0.6 * theta_star, 1.4 * theta_star
    mid = 0.5 * (lo + hi)
    if G_hat(f2, mid, pilot) > 0.5 * (G_hat(f2, lo, pilot) + G_hat(f2, hi, pilot)) + 1e-12:
        bad.append("pilot convexity")

    # first-order optimality holds at the solved tilt, up to pilot noise
    gap, se = first_order_gap(f2, theta_star, pilot)
    if not np.all(np.abs(gap) <= 3.0 * se):
        bad.append("optimality gap")

    # replication results do not depend on the worker count
    tcfg = dict(model=model, event=event, method="is-t1", theta=(0.5, 0.5),
                n=300, M=60, seed=9)
    one = replicate(ExperimentConfig(**tcfg), threads=1)
    eight = replicate(ExperimentConfig(**tcfg), threads=8)
    if (one.u_hat, one.sd) != (eight.u_hat, eight.sd):
        bad.append("thread determinism")

    emit("criterion 6 (structural invariants)", not bad,
         "all 7 identity groups hold" if not bad else "failed " + ", ".join(bad))


def _corr(rho):
    return np.array([[1.0, rho], [rho, 1.0]])


def _fd_grad(f, theta, h=1e-6):
    th = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    g = np.empty_like(th)
    for j in range(th.size):
        step = np.zeros_like(th)
        step[j] = h
        g[j] = (psi(f, th + step) - psi(f, th - step)) / (2.0 * h)
    return g


def _per_draw_ratios(model, events, u_refs, method, power):
    """Per-draw relative variance of one estimator across event depths, each
    at the tilt ``replicate`` solves for it."""
    ratios = []
    for event, u_ref in zip(events, u_refs):
        res = replicate(ExperimentConfig(model=model, event=event, method=method,
                                         n=N, M=1500, seed=SEED))
        ratios.append(N * res.sd ** 2 / u_ref ** power)
    return ratios


def test_criterion_7_relative_error_bands(emit):
    """Per-draw variance over u in [1e-5, 1e-2] stays flat where it should."""
    targets = (1e-2, 1e-3, 1e-4, 1e-5)
    uniform = (MarginSpec("uniform01"),) * 2
    eye = np.eye(2)
    bands = {}

    tmodel = CopulaSpec("student-t", uniform, sigma=eye, nu=5.0)
    corners = [brentq(lambda x, u=u: rect_prob_t(5.0, eye, np.array([x, x])) - u,
                      0.3, 60.0) for u in targets]
    t_events = [CornerEvent("upper", (float(stdtr(5.0, c)),) * 2) for c in corners]
    t_refs = [rect_prob_t(5.0, eye, np.array([c, c])) for c in corners]
    bands["t is-t2"] = _per_draw_ratios(tmodel, t_events, t_refs, "is-t2", 2.0)
    bands["t is-ld"] = _per_draw_ratios(tmodel, t_events, t_refs, "is-ld", 2.0)

    cmodel = CopulaSpec("clayton", uniform, delta=3.0)
    u0s = [brentq(lambda v, u=u: clayton_corner_prob(3.0, v) - u,
                  0.5, 1.0 - 1e-12) for u in targets]
    c_events = [CornerEvent("upper", (v, v)) for v in u0s]
    c_refs = [clayton_corner_prob(3.0, v) for v in u0s]
    bands["clayton is-t2"] = _per_draw_ratios(cmodel, c_events, c_refs, "is-t2", 2.0)

    gmodel = CopulaSpec("gaussian", (MarginSpec("std-normal"),) * 2, sigma=eye)
    g_corners = [brentq(lambda x, u=u: rect_prob_gaussian(eye, np.array([x, x])) - u,
                        0.1, 6.0) for u in targets]
    g_events = [CornerEvent("upper", (c, c)) for c in g_corners]
    g_refs = [rect_prob_gaussian(eye, np.array([c, c])) for c in g_corners]
    bands["gaussian is-t2"] = _per_draw_ratios(gmodel, g_events, g_refs, "is-t2", 1.8)

    spreads = {k: max(r) / min(r) for k, r in bands.items()}
    caps = {"t is-t2": 3.0, "t is-ld": 3.0, "clayton is-t2": 3.0, "gaussian is-t2": 10.0}
    ok = all(spreads[k] < caps[k] for k in caps)
    emit("criterion 7 (relative-error bands)", ok,
         ", ".join(f"{k} spread {spreads[k]:.2f}<{caps[k]:g}" for k in caps))


def test_criterion_8_work_normalized_variance(emit):
    rows = []
    ok = True
    for key in ("1", "9", "12"):
        naive, _ = _cell(key, 3, "naive")
        for method in ("is-t1", "is-t2"):
            res, _ = _cell(key, 3, method)
            ok = ok and res.wnrv < naive.wnrv
            rows.append(f"case-{key} {method} {res.wnrv:.1e}<{naive.wnrv:.1e}")
    emit("criterion 8 (work-normalized variance)", ok, ", ".join(rows))


def test_variance_ordering(emit):
    """The four estimators rank the same way on every deep corner."""
    ok = True
    rows = []
    for key in ("1", "9", "12"):
        sds = [_cell(key, 3, m)[0].sd for m in ("is-t1", "is-t2", "is-t3", "naive")]
        ok = ok and sds[0] < sds[1] < sds[2] < sds[3]
        rows.append("case-" + key + " " + "<".join(f"{s:.1e}" for s in sds))
    emit("variance ordering (is-t1 < is-t2 < is-t3 < naive)", ok, ", ".join(rows))
