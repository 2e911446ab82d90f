"""Correctness checks on what the benchmark's cells returned.

Each check returns a list of failure messages; an empty list passes.

- Reference: every estimate lies within 4 standard errors of its cell's
  reference (``refs.py``), the standard error being sd/sqrt(M).
- Agreement: estimates that must agree (the vine methods, is-t2 against
  is-ld on the deep t corners) lie within 4 combined standard errors.
- Zero tilt: ``sample_tilted`` at theta = 0 reproduces the crude draws of
  the matching route bit for bit, with every log likelihood ratio zero.
- Threads: ``replicate`` gives bit-identical results with threads=1 and 2.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr, stdtr

from tailtilt import ExperimentConfig, RVineSpec, make_stream, replicate
from tailtilt.copulas import rosenblatt_inverse, sample_copula_uniforms, vine_rosenblatt_inverse
from tailtilt.tilting import TiltFamily, sample_tilted

Z_CHECK = 4.0


def _se(res) -> float:
    return res.sd / np.sqrt(res.reps)


def z_score(diff: float, se: float) -> float:
    """diff in standard errors; infinite when a nonzero diff has no spread."""
    if se > 0.0:
        return diff / se
    return 0.0 if diff == 0.0 else float(np.copysign(np.inf, diff))


def reference(wl, results: dict, ref_values: dict) -> list[str]:
    bad = []
    for cell in wl.cells:
        res = results.get(cell.key)
        if res is None:
            continue
        ref = ref_values[cell.key]
        z = z_score(res.u_hat - ref, _se(res))
        if not abs(z) <= Z_CHECK:
            bad.append(f"{cell.key}: u_hat {res.u_hat:.6e} is {z:+.1f} standard errors "
                       f"from the reference {ref:.6e}")
    return bad


def agreement(wl, results: dict) -> list[str]:
    bad = []
    for group in wl.agree:
        got = [(k, results[k]) for k in group if k in results]
        for i in range(len(got)):
            for j in range(i + 1, len(got)):
                (ka, a), (kb, b) = got[i], got[j]
                z = z_score(a.u_hat - b.u_hat, np.hypot(_se(a), _se(b)))
                if not abs(z) <= Z_CHECK:
                    bad.append(f"{ka} ({a.u_hat:.6e}) and {kb} ({b.u_hat:.6e}) differ by "
                               f"{abs(z):.1f} standard errors")
    return bad


def _zero_tilt_pairs(model):
    """(label, tilted-sampler function, crude function) pairs for one model;
    each function takes a fresh stream and returns copula-scale draws."""
    n = 64
    d = model.d
    rinv = vine_rosenblatt_inverse if isinstance(model, RVineSpec) else rosenblatt_inverse

    def crude_cim(s):
        return rinv(model, s.uniforms(n * d).reshape(n, d))

    def to_copula(x):
        return rinv(model, x)

    pairs = [
        ("trunc-exp-product", TiltFamily("trunc-exp-product", d), to_copula, crude_cim),
        ("hazard-rate", TiltFamily("hazard-rate", d), to_copula, crude_cim),
    ]
    if isinstance(model, RVineSpec):
        return pairs
    direct = (lambda s: sample_copula_uniforms(model, s, n, "direct"))
    if model.family == "gaussian":
        pairs.append(("mvn-shift", TiltFamily("mvn-shift", d, sigma=model.sigma), ndtr, direct))
    elif model.family == "student-t":
        f = TiltFamily("t-gamma-normal", d, sigma=model.sigma, nu=model.nu,
                       a_star=np.ones(d))
        pairs.append(("t-gamma-normal", f, lambda x: stdtr(model.nu, x), direct))
    else:
        pairs.append(("clayton-mo", TiltFamily("clayton-mo", d, delta=model.delta),
                      lambda x: x, direct))
    return pairs


def zero_tilt(wl) -> list[str]:
    bad = []
    seen = set()
    for cell in wl.cells:
        if id(cell.model) in seen:
            continue
        seen.add(id(cell.model))
        for label, fam, to_copula, crude in _zero_tilt_pairs(cell.model):
            ts = sample_tilted(fam, make_stream(cell.seed, 5), np.zeros(fam.theta_dim), 64)
            want = crude(make_stream(cell.seed, 5))
            if not (np.array_equal(to_copula(ts.x), want) and not np.any(ts.log_lr)):
                bad.append(f"{cell.key}: {label} at zero tilt does not reproduce the crude draws")
    return bad


def threads(wl, thetas: dict) -> list[str]:
    """Bit-identity of ``replicate`` across thread counts, on the first
    importance-sampling cell and the first crude cell that succeeded."""
    bad = []
    picked = {}
    for cell in wl.cells:
        kind = "naive" if cell.method == "naive" else "is"
        if cell.timed and kind not in picked and (kind == "naive" or cell.key in thetas):
            picked[kind] = cell
    for kind, cell in picked.items():
        theta = None if kind == "naive" else tuple(thetas[cell.key])
        cfg = ExperimentConfig(cell.model, cell.event, cell.method, n=500, M=16,
                               seed=cell.seed, theta=theta)
        one, two = replicate(cfg, threads=1), replicate(cfg, threads=2)
        if (one.u_hat, one.sd) != (two.u_hat, two.sd):
            bad.append(f"{cell.key}: threads=1 gives {one.u_hat!r}, threads=2 {two.u_hat!r}")
    return bad


def same_bits(a: dict, b: dict, what: str) -> list[str]:
    """Every estimate in ``a`` equals the one in ``b`` to the last bit."""
    bad = []
    for key, ra in a.items():
        rb = b.get(key)
        if rb is None or (ra.u_hat, ra.sd) != (rb.u_hat, rb.sd):
            bad.append(f"{key}: estimate differs {what}")
    return bad

