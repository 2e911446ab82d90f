"""Bivariate copula families and their conditional distribution functions.

For a pair copula C(v1, v2) the h-function is the conditional CDF of the
second argument given the first, h(v2 | v1) = dC(v1, v2)/dv1. Every family
here is exchangeable, so a single formula serves both conditioning orders
(callers swap arguments when they need the other one). Gaussian, t, Clayton,
and Frank inverses exist in closed form; the t pair's take their t CDFs and
quantiles from ``randkit._t_cdf`` and ``randkit._t_quantile``, numpy forms
for integer nu up to 8 and scipy's for any other nu. Gumbel and Joe are
inverted numerically to 1e-10 by a bracketed Newton iteration in a transformed
coordinate where the root problem is monotone and well scaled. Joe's starts
at the root of its equation without the log1p(-t) term, which lies at or
above the true one, and stops once a step moves t by at most 1e-12 of
itself. An element still moving at its iteration cap raises SolverError.

Inputs are clamped a hair inside (0,1) so that compositions of many
h-functions cannot round onto the boundary and poison downstream quantile
transforms. Clayton evaluations run in log space throughout because v^(-delta)
overflows long before v reaches the smallest normal double; Joe's h-function
does too, because (1 - v)^delta underflows near the upper corner.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from ..errors import ParameterError, SolverError
from ..randkit import _check_clayton_delta, _check_t_nu, _t_cdf, _t_quantile

__all__ = ["PairCopula", "h_func", "h_inv"]

_FAMILIES = ("gaussian", "student-t", "clayton", "gumbel", "frank", "joe")

# keep probabilities strictly inside the open unit interval
_LO = 1e-15
_HI = 1.0 - 1e-15


@dataclass(frozen=True)
class PairCopula:
    """One bivariate copula: family name plus that family's parameters."""

    family: str
    rho: float = 0.0
    nu: float = 1.0
    delta: float = 1.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ParameterError(f"unknown pair copula family {self.family!r}")
        if self.family in ("gaussian", "student-t") and not abs(self.rho) < 1:
            raise ParameterError(f"correlation must satisfy |rho| < 1, got {self.rho}")
        if self.family == "student-t":
            _check_t_nu(self.nu)
        if self.family == "clayton":
            _check_clayton_delta(self.delta, "clayton")
        if self.family in ("gumbel", "joe") and not 1.0 <= self.delta < np.inf:
            raise ParameterError(
                f"{self.family} parameter must be finite and at least 1, got {self.delta}"
            )
        if self.family == "frank" and (self.delta == 0 or not np.isfinite(self.delta)):
            raise ParameterError(f"frank parameter must be finite and nonzero, got {self.delta}")

    def label(self) -> str:
        if self.family == "gaussian":
            return f"gaussian(rho={self.rho:g})"
        if self.family == "student-t":
            return f"student-t(nu={self.nu:g}, rho={self.rho:g})"
        return f"{self.family}(delta={self.delta:g})"


def _clip01(v) -> np.ndarray:
    return np.clip(np.asarray(v, dtype=np.float64), _LO, _HI)


def h_func(pc: PairCopula, v2, v1) -> np.ndarray:
    """Conditional CDF of ``v2`` given ``v1`` under the pair copula."""
    v2 = _clip01(v2)
    v1 = _clip01(v1)
    if pc.family == "gaussian":
        q2, q1 = ndtri(v2), ndtri(v1)
        out = ndtr((q2 - pc.rho * q1) / np.sqrt(1.0 - pc.rho**2))
    elif pc.family == "student-t":
        nu, rho = pc.nu, pc.rho
        q2, q1 = _t_quantile(nu, v2), _t_quantile(nu, v1)
        z = np.sqrt((nu + 1.0) / (nu + q1**2)) * (q2 - rho * q1) / np.sqrt(1.0 - rho**2)
        out = _t_cdf(nu + 1.0, z)
    elif pc.family == "clayton":
        d = pc.delta
        l1, l2 = -d * np.log(v1), -d * np.log(v2)
        m = np.maximum(l1, l2)
        log_s = m + np.log(np.exp(l1 - m) + np.exp(l2 - m) - np.exp(-m))
        out = np.exp((1.0 + 1.0 / d) * (l1 - log_s))
    elif pc.family == "gumbel":
        d = pc.delta
        x, y = -np.log(v1), -np.log(v2)
        log_s = np.logaddexp(d * np.log(x), d * np.log(y)) / d
        out = np.exp(x - np.exp(log_s) + (d - 1.0) * (np.log(x) - log_s))
    elif pc.family == "frank":
        d = pc.delta
        num = np.exp(-d * v1) * np.expm1(-d * v2)
        den = np.expm1(-d) + np.expm1(-d * v1) * np.expm1(-d * v2)
        out = num / den
    else:  # joe
        # h = (ub^d / s)^(1 - 1/d) (1 - vb^d), s = ub^d + vb^d (1 - ub^d), with
        # ub = 1 - v1 and vb = 1 - v2; in logs, since both powers underflow
        # near the upper corner
        d = pc.delta
        la, lb = d * np.log1p(-v1), d * np.log1p(-v2)
        log_ratio = -np.logaddexp(0.0, lb - la + np.log(-np.expm1(la)))
        out = np.exp((1.0 - 1.0 / d) * log_ratio + np.log(-np.expm1(lb)))
    return np.clip(out, _LO, _HI)


def h_inv(pc: PairCopula, q, v1) -> np.ndarray:
    """Solve h_func(pc, v2, v1) = q for v2."""
    q = _clip01(q)
    v1 = _clip01(v1)
    if pc.family == "gaussian":
        out = ndtr(np.sqrt(1.0 - pc.rho**2) * ndtri(q) + pc.rho * ndtri(v1))
    elif pc.family == "student-t":
        nu, rho = pc.nu, pc.rho
        q1 = _t_quantile(nu, v1)
        scale = np.sqrt((nu + q1**2) * (1.0 - rho**2) / (nu + 1.0))
        out = _t_cdf(nu, _t_quantile(nu + 1.0, q) * scale + rho * q1)
    elif pc.family == "clayton":
        d = pc.delta
        log_b = -d * np.log(v1)
        log_inner = log_b + np.log(np.expm1(-d / (d + 1.0) * np.log(q)) + np.exp(-log_b))
        out = np.exp(-log_inner / d)
    elif pc.family == "gumbel":
        out = _gumbel_h_inv(pc.delta, q, v1)
    elif pc.family == "frank":
        d = pc.delta
        den = np.exp(-d * v1) - q * np.expm1(-d * v1)
        out = -np.log1p(q * np.expm1(-d) / den) / d
    else:  # joe
        out = _joe_h_inv(pc.delta, q, v1)
    return np.clip(out, _LO, _HI)


def _iterate_each(step, state: tuple, args: tuple, rtol: float, max_iter: int,
                  family: str) -> np.ndarray:
    """Run ``state = step(*state, *args)`` elementwise over flat arrays.

    Each element stops once its first state entry moves by at most ``rtol``
    times its new value, and only the elements still moving are iterated,
    so an element's result does not depend on the others in the call.
    Returns the final first state entry; raises :class:`SolverError`,
    naming ``family``, if any element still moves after ``max_iter`` steps.
    """
    out = state[0].copy()
    idx = np.arange(out.size)
    for _ in range(max_iter):
        new = step(*state, *args)
        out[idx] = new[0]
        live = np.flatnonzero(np.abs(new[0] - state[0]) > rtol * new[0])
        if live.size == 0:
            return out
        if live.size < idx.size:
            idx = idx[live]
            new = tuple(z[live] for z in new)
            args = tuple(z[live] for z in args)
        state = new
    raise SolverError(f"{family} h_inv: {idx.size} of {out.size} elements did not "
                      f"converge in {max_iter} steps")


def _gumbel_h_inv(d: float, q: np.ndarray, v1: np.ndarray) -> np.ndarray:
    """Invert the Gumbel h-function by Newton in s = (x^d + y^d)^(1/d).

    With x = -ln v1 held fixed, ln h = x - s + (d-1) ln(x/s) is strictly
    decreasing and convex in s on (x, inf), and g(s0) <= 0 at the starting
    point s0 = x - ln q, so the iteration decreases monotonically onto the
    root. y is recovered through expm1 to survive the s ~ x regime.
    """
    q, v1 = np.broadcast_arrays(q, v1)
    x = -np.log(v1.ravel())
    ln_q = np.log(q.ravel())

    def step(s, x, ln_x, ln_q):
        g = x - s + (d - 1.0) * (ln_x - np.log(s)) - ln_q
        return (np.maximum(s - g / (-1.0 - (d - 1.0) / s), x),)

    s = _iterate_each(step, (x - ln_q,), (x, np.log(x), ln_q), 1e-13, 100, "gumbel")
    y = x * np.expm1(d * np.log(s / x)) ** (1.0 / d)
    return np.exp(-y).reshape(q.shape)


def _joe_h_inv(d: float, q: np.ndarray, v1: np.ndarray) -> np.ndarray:
    """Invert the Joe h-function by bracketed Newton in t = (1 - v2)^d.

    With a = (1 - v1)^d and r = (1 - a)/a, ln h - ln q is
    g(t) = c1 log1p(t r) + log1p(-t) - ln q, c1 = 1/d - 1, once the terms
    c1 ln a and (d - 1) ln(1 - v1), which cancel exactly, are dropped: kept,
    they bury g in rounding when q is near 1.
    g is strictly decreasing on (0,1) with g(0) = -ln q > 0, so a
    sign-change bracket always exists; Newton steps that leave the bracket
    fall back to bisection. A step that lands on a bracket end is kept: at
    the root the step rounds to zero, and bisecting from there would throw
    the converged value away.

    The start, the root of g without its log1p(-t) term capped at 1 - q, has
    g <= 0, so it lies at or just above the root. An element stops once its
    step is at most 1e-12 of t; a tighter rule crept on through steps that
    move only rounding. At d = 1 (independence) v2 = q.
    """
    q, v1 = np.broadcast_arrays(q, v1)
    if d == 1.0:
        return q.copy()
    q, ub = q.ravel(), 1.0 - v1.ravel()
    c1 = 1.0 / d - 1.0
    # a is floored at the smallest normal double so that r stays finite
    a = np.maximum(ub**d, np.finfo(np.float64).tiny)
    r = (1.0 - a) / a
    ln_q = np.log(q)

    def step(t, lo, hi, r, ln_q):
        tr = t * r
        g = c1 * np.log1p(tr) + np.log1p(-t) - ln_q
        lo = np.where(g > 0, t, lo)
        hi = np.where(g < 0, t, hi)
        gp = c1 * r / (1.0 + tr) - 1.0 / (1.0 - t)
        t_new = t - g / gp
        outside = (t_new < lo) | (t_new > hi)
        return np.where(outside, 0.5 * (lo + hi), t_new), lo, hi

    # the exponent is capped where the start exceeds 1 - q anyway
    w0 = np.minimum(np.expm1(np.minimum(ln_q / c1, 700.0)), (1.0 - q) * r)
    t0 = np.clip(w0 / r, 1e-300, 1.0 - 1e-16)
    state = (t0, np.zeros_like(t0), np.full_like(t0, 1.0 - 1e-16))
    t = _iterate_each(step, state, (r, ln_q), 1e-12, 200, "joe")
    return (1.0 - t ** (1.0 / d)).reshape(v1.shape)
