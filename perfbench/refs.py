"""Corner probabilities computed apart from tailtilt.

Nothing here imports tailtilt. Every function is a closed form or a
deterministic quadrature written from textbook formulas, so the benchmark
can judge the program's estimates against numbers the program did not make.

- ``gauss2_upper``: bivariate normal orthant by one-dimensional quadrature
  over the first coordinate.
- ``t2_upper``: bivariate t orthant by quadrature over the chi-square mixing
  variable, with ``gauss2_upper`` inside.
- ``clayton2_upper``: the Clayton survival function in closed form.
- ``gauss4_upper``: four-dimensional normal orthant, conditioning on the two
  middle coordinates (Gauss-Legendre over them) and integrating the
  remaining bivariate orthant by Gauss-Legendre as well.
- ``vine3_upper`` and ``vine4_upper``: the preset vines' corners, integrating
  the conditional survival of the last tree's copula over the first one or
  two coordinates.

The last three have no closed form here, so their values are committed in
``refs.json``. Run ``python3 perfbench/refs.py`` from the repository root to
make them anew; it rewrites that file.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate, special, stats

REFS_FILE = Path(__file__).with_name("refs.json")

_SQRT2PI = np.sqrt(2.0 * np.pi)
# normal scores beyond this carry under 1e-13 of mass, and Phi(7.5) still
# differs from 1 in double precision, which the t quantile needs
_Z_TOP = 7.5


def _norm_pdf(x):
    return np.exp(-0.5 * np.asarray(x) ** 2) / _SQRT2PI


def _gl(lo, hi, m):
    """Gauss-Legendre nodes and weights on [lo, hi]; lo and hi may be arrays."""
    x, w = leggauss(m)
    lo = np.asarray(lo, dtype=np.float64)[..., None]
    hi = np.asarray(hi, dtype=np.float64)[..., None]
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


# ---------------------------------------------------------------------------
# Gaussian and t


def gauss_indep_upper(b: float, d: int = 2) -> float:
    """P(Z_1 > b, ..., Z_d > b) for independent standard normals."""
    return float(special.ndtr(-b) ** d)


def gauss2_upper(rho: float, b1: float, b2: float | None = None) -> float:
    """P(Z1 > b1, Z2 > b2) for a standard bivariate normal with correlation rho.

    Integrates phi(z) * P(Z2 > b2 | Z1 = z) over z > b1 after the shift
    z = b1 + t, with phi(b1) taken out so deep corners keep their digits.
    """
    b2 = b1 if b2 is None else b2
    s = np.sqrt(1.0 - rho * rho)

    def f(t):
        z = b1 + t
        return np.exp(-b1 * t - 0.5 * t * t + special.log_ndtr((rho * z - b2) / s))

    scale = 1.0 / max(b1, 1.0)
    val, _ = integrate.quad(f, 0.0, 60.0 * scale, epsabs=0.0, epsrel=1e-11, limit=400,
                            points=[scale, 4.0 * scale])
    return float(_norm_pdf(b1) * val)


def t2_upper(nu: float, rho: float, a: float) -> float:
    """P(T1 > a, T2 > a) for a standard bivariate t with nu degrees of freedom.

    T = Z / sqrt(W / nu) with W chi-square(nu), so the orthant is
    E[P(Z1 > a r, Z2 > a r)] with r = sqrt(W / nu). The outer integral runs
    in log W around the peak of its integrand.
    """
    law = stats.chi2(nu)
    # the integrand peaks where (nu/2 - 1)/w = 1/2 + a^2/(nu (1 + rho))
    w_peak = max(nu / 2.0 - 1.0, 0.5) / (0.5 + a * a / (nu * (1.0 + rho)))

    def f(s):
        w = w_peak * np.exp(s)
        inner = gauss2_upper(rho, a * np.sqrt(w / nu))
        return inner * np.exp(law.logpdf(w)) * w

    val, _ = integrate.quad(f, -40.0, 12.0, epsabs=0.0, epsrel=1e-10, limit=400,
                            points=[-2.0, 0.0, 2.0])
    return float(val)


def gauss4_upper(sigma, b: float, m: int = 96) -> float:
    """P(Z > b) componentwise for a 4-d normal with correlation matrix sigma.

    Conditions on (Z2, Z3) and integrates, by Gauss-Legendre, their bivariate
    density times the bivariate orthant of (Z1, Z4) given them. The inner
    orthant is itself a Gauss-Legendre integral over Z1.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    mid, out = [1, 2], [0, 3]
    s_mm = sigma[np.ix_(mid, mid)]
    s_om = sigma[np.ix_(out, mid)]
    gain = s_om @ np.linalg.inv(s_mm)
    cond = sigma[np.ix_(out, out)] - gain @ s_om.T
    sd = np.sqrt(np.diag(cond))
    r = cond[0, 1] / (sd[0] * sd[1])
    rho_m = s_mm[0, 1]

    span = 9.0
    z, wz = _gl(b, b + span, m)
    z2, z3 = np.meshgrid(z, z, indexing="ij")
    w2 = np.multiply.outer(wz, wz)
    q = (z2 * z2 - 2.0 * rho_m * z2 * z3 + z3 * z3) / (1.0 - rho_m * rho_m)
    dens = np.exp(-0.5 * q) / (2.0 * np.pi * np.sqrt(1.0 - rho_m * rho_m))
    mean = np.stack([z2, z3], axis=-1) @ gain.T
    c1 = (b - mean[..., 0]) / sd[0]
    c4 = (b - mean[..., 1]) / sd[1]
    # inner orthant P(W1 > c1, W4 > c4) with corr r, integrated over W1
    hi = np.maximum(c1, 0.0) + span
    w1, ww = _gl(c1, hi, m)
    inner = np.sum(ww * _norm_pdf(w1)
                   * special.ndtr((r * w1 - c4[..., None]) / np.sqrt(1.0 - r * r)), axis=-1)
    return float(np.sum(w2 * dens * inner))


# ---------------------------------------------------------------------------
# Clayton


def clayton2_upper(delta: float, u: float) -> float:
    """P(U1 > u, U2 > u) under a bivariate Clayton copula, in closed form.

    1 - 2u + C(u, u) with C(u, u) = (2 u^-delta - 1)^(-1/delta), written
    through v = 1 - u with expm1/log1p so the O(v^2) result keeps its digits.
    """
    v = 1.0 - u
    big = np.log1p(2.0 * np.expm1(-delta * np.log1p(-v)))
    return float(np.expm1(-big / delta) + 2.0 * v)


# ---------------------------------------------------------------------------
# pair copulas of the preset vines, from their textbook formulas
# (h(v | u) is the conditional CDF of the second argument given the first)


def h_gauss(rho):
    return lambda v, u: special.ndtr(
        (special.ndtri(v) - rho * special.ndtri(u)) / np.sqrt(1.0 - rho * rho))


def h_t(nu, rho):
    def h(v, u):
        x, y = stats.t.ppf(u, nu), stats.t.ppf(v, nu)
        scale = np.sqrt((nu + x * x) * (1.0 - rho * rho) / (nu + 1.0))
        return stats.t.cdf((y - rho * x) / scale, nu + 1.0)
    return h


def h_clayton(delta):
    def h(v, u):
        return u ** (-delta - 1.0) * (u ** -delta + v ** -delta - 1.0) ** (-1.0 / delta - 1.0)
    return h


def h_gumbel(delta):
    def h(v, u):
        x, y = -np.log(u), -np.log(v)
        a = (x ** delta + y ** delta) ** (1.0 / delta)
        return np.exp(-a) * a ** (1.0 - delta) * x ** (delta - 1.0) / u
    return h


def h_frank(delta):
    def h(v, u):
        eu, ev = np.exp(-delta * u), np.exp(-delta * v)
        return eu * (ev - 1.0) / ((np.exp(-delta) - 1.0) + (eu - 1.0) * (ev - 1.0))
    return h


def c_clayton(delta):
    return lambda u, v: (u ** -delta + v ** -delta - 1.0) ** (-1.0 / delta)


def c_joe(delta):
    def c(u, v):
        a, b = (1.0 - u) ** delta, (1.0 - v) ** delta
        return 1.0 - (a + b - a * b) ** (1.0 / delta)
    return c


def _survival(cdf, a, b):
    """P(A > a, B > b) for a pair (A, B) of uniforms with copula ``cdf``."""
    return 1.0 - a - b + cdf(a, b)


def vine3_upper(p: float, h12, h13, c23_1, m: int = 200) -> float:
    """P(U1 > p, U2 > p, U3 > p) for the vine 1-2, 1-3, 2-3|1.

    Given U1 = u, the pair (F(U2|u), F(U3|u)) has copula c23|1, so the corner
    is the integral over u > p of that copula's survival at
    (h12(p|u), h13(p|u)). Runs in z = Phi^-1(u), where du = phi(z) dz.
    """
    z, w = _gl(special.ndtri(p), _Z_TOP, m)
    u = special.ndtr(z)
    pp = np.full_like(u, p)
    return float(np.sum(w * _norm_pdf(z) * _survival(c23_1, h12(pp, u), h13(pp, u))))


def vine4_upper(p: float, rho12: float, h13, h24, h23_1, h14_2, c34_12, m: int = 200) -> float:
    """P(U > p) componentwise for the vine 1-2, 1-3, 2-4, 2-3|1, 1-4|2, 3-4|1,2.

    Given (U1, U2) = (u1, u2), the pair (F(U3|u1,u2), F(U4|u1,u2)) has copula
    c34|12, and F(p|u1,u2) is h23|1(h13(p|u1) | h12(u2|u1)) for the third
    coordinate and h14|2(h24(p|u2) | h21(u1|u2)) for the fourth. The 1-2 pair
    is Gaussian with correlation ``rho12``, so the outer integral runs over
    normal scores with the bivariate normal density as weight.
    """
    h12 = h_gauss(rho12)
    z, w = _gl(special.ndtri(p), _Z_TOP, m)
    z1, z2 = np.meshgrid(z, z, indexing="ij")
    ww = np.multiply.outer(w, w)
    q = (z1 * z1 - 2.0 * rho12 * z1 * z2 + z2 * z2) / (1.0 - rho12 * rho12)
    dens = np.exp(-0.5 * q) / (2.0 * np.pi * np.sqrt(1.0 - rho12 * rho12))
    u1, u2 = special.ndtr(z1), special.ndtr(z2)
    pp = np.full_like(u1, p)
    a = h23_1(h13(pp, u1), h12(u2, u1))
    b = h14_2(h24(pp, u2), h12(u1, u2))
    return float(np.sum(ww * dens * _survival(c34_12, a, b)))


def vine3_preset_upper(p: float, m: int = 200) -> float:
    """The 3-d preset: 1-2 Gaussian 0.5, 1-3 t(5, 0.5), 2-3|1 Clayton 3."""
    return vine3_upper(p, h_gauss(0.5), h_t(5.0, 0.5), c_clayton(3.0), m)


def vine4_preset_upper(p: float, m: int = 200) -> float:
    """The 4-d preset: the 3-d one plus 2-4 Gumbel 3, 1-4|2 Frank 3, 3-4|1,2 Joe 3."""
    return vine4_upper(p, 0.5, h_t(5.0, 0.5), h_gumbel(3.0), h_clayton(3.0), h_frank(3.0),
                       c_joe(3.0), m)


def tridiag4(rho: float = 0.5) -> np.ndarray:
    s = np.eye(4)
    for i in range(3):
        s[i, i + 1] = s[i + 1, i] = rho
    return s


# ---------------------------------------------------------------------------
# committed references


def committed_specs() -> dict:
    """Name -> function making the reference; the names key ``refs.json``."""
    return {
        "vine3d@0.975": lambda: vine3_preset_upper(0.975),
        "vine4d@0.975": lambda: vine4_preset_upper(0.975),
        "gauss4-tridiag@1.868": lambda: gauss4_upper(tridiag4(), 1.868),
        "gauss4-tridiag@2.582": lambda: gauss4_upper(tridiag4(), 2.582),
    }


def load_committed() -> dict[str, float]:
    with open(REFS_FILE, encoding="utf-8") as fh:
        return {k: float(v) for k, v in json.load(fh)["values"].items()}


def make_committed() -> dict:
    values = {name: fn() for name, fn in committed_specs().items()}
    return {
        "made_by": "python3 perfbench/refs.py",
        "method": "deterministic Gauss-Legendre quadrature, see perfbench/refs.py",
        "values": values,
    }


if __name__ == "__main__":
    doc = make_committed()
    with open(REFS_FILE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    json.dump(doc["values"], sys.stdout, indent=2)
    sys.stdout.write("\n")
