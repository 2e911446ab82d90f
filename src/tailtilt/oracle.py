"""Reference probabilities the estimator tests are judged against.

Gaussian rectangles are integrated deterministically: after a Cholesky
factorization the tail event is rewritten as an integral over the unit cube
(sequential conditioning, each coordinate mapped through the normal CDF),
then evaluated by tensorized Gauss-Legendre quadrature whose node count
doubles until two successive estimates agree to 1e-9. Dimensions up to four
are supported, which keeps tensor quadrature both exact enough and cheap.

Student t rectangles reuse the Gaussian integrator under the scale-mixture
representation of the t law, integrating the conditional Gaussian rectangle
over the logarithm of the chi-square mixing variable to a relative
tolerance, so deep corners keep their digits.

Clayton equal corners have an exact closed form. Vine corners are integrated
along the vine's Rosenblatt chain the same way: level k's uniform must exceed
the forward map of the threshold given the earlier levels, and tensor nodes
double until two passes agree to 1e-6 relative (a stop rule, not an error bound).
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import comb

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.special import gammaln, ndtr, ndtri

from .copulas.vines import vine_rosenblatt_forward, vine_rosenblatt_inverse
from .errors import ParameterError, ShapeError, SolverError
from .randkit import _cholesky

__all__ = ["rect_prob_gaussian", "rect_prob_t", "clayton_corner_prob", "vine_corner_prob"]

# node cap by dimension d: the count doubles per refinement, memory grows as m^(d-1)
_M_MAX = {2: 4096, 3: 1024, 4: 128}


def _check_direction(direction: str) -> None:
    if direction not in ("upper", "lower"):
        raise ParameterError(f"direction must be 'upper' or 'lower', got {direction!r}")


def rect_prob_gaussian(sigma, a, direction: str = "upper") -> float:
    """P(V > a) (or P(V < a)) for V ~ MN(0, sigma), to absolute error 1e-8.

    Lower corners are mapped to upper ones through the symmetry V ~ -V.
    """
    _check_direction(direction)
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    d = a.shape[0]
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.shape != (d, d):
        raise ShapeError(f"covariance shape {sigma.shape} does not match {d} thresholds")
    if d > 4:
        raise ParameterError(f"quadrature oracle supports d <= 4, got d={d}")
    if direction == "lower":
        a = -a
    L = _cholesky(sigma)
    if d == 1:
        return float(ndtr(-a[0] / L[0, 0]))

    m, m_max = 8, _M_MAX[d]
    prev = None
    while m <= m_max:
        val = _genz_tensor(L, a, m)
        if prev is not None and abs(val - prev) < 1e-9:
            return val
        prev = val
        m *= 2
    raise SolverError(f"rectangle quadrature did not stabilize below m={m_max} nodes")


@lru_cache(maxsize=None)
def _unit_nodes(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on (0,1) composed with a cosine map.

    The sequentially conditioned integrand has derivative blow-ups at the
    cube boundary (a normal quantile of an argument tending to 0 or 1), which
    stalls plain Gauss-Legendre. Substituting x = (1 - cos(pi s))/2 flattens
    the integrand at both endpoints and restores fast convergence.
    """
    x, w = leggauss(m)
    s = 0.5 * (x + 1.0)
    nodes = 0.5 * (1.0 - np.cos(np.pi * s))
    weights = 0.5 * w * 0.5 * np.pi * np.sin(np.pi * s)
    return nodes, weights


def _tensor_grid(m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k-fold tensor product of the m unit nodes: points (m^k, k), weights."""
    x, w = _unit_nodes(m)
    grids = np.meshgrid(*([x] * k), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wts = reduce(np.multiply.outer, [w] * k).ravel() if k > 1 else w
    return pts, wts


def _genz_tensor(L: np.ndarray, a: np.ndarray, m: int) -> float:
    """One tensor Gauss-Legendre pass of the sequentially conditioned integral."""
    d = a.shape[0]
    pts, wts = _tensor_grid(m, d - 1)

    d1 = float(ndtr(a[0] / L[0, 0]))
    dk = np.full(pts.shape[0], d1)
    fk = np.full(pts.shape[0], 1.0 - d1)
    ys = np.empty((pts.shape[0], d - 1))
    for k in range(1, d):
        # fk already carries a zero factor wherever dk rounded to 1, so the
        # quantile argument only needs to stay finite there
        q_arg = np.clip(dk + pts[:, k - 1] * (1.0 - dk), 1e-300, 1.0 - 1e-16)
        ys[:, k - 1] = ndtri(q_arg)
        shifted = a[k] - ys[:, :k] @ L[k, :k]
        dk = ndtr(shifted / L[k, k])
        fk *= 1.0 - dk
    return float(fk @ wts)


def rect_prob_t(nu: float, sigma, a, direction: str = "upper") -> float:
    """Tail rectangle probability for a centered multivariate t, d <= 2.

    Conditional on the chi-square mixing variable Y, the t vector is Gaussian
    with thresholds scaled by sqrt(Y/nu). The outer integral runs over
    s = ln Y to a tolerance relative to its value, split where the mixing
    density peaks (Y = nu) and where the largest scaled threshold crosses 1
    (Y = nu/max a_i^2), near which a deep corner's mass sits. A result not
    resolved to 1e-6 relative raises :class:`SolverError`.
    """
    _check_direction(direction)
    if not nu > 0:
        raise ParameterError(f"degrees of freedom must be positive, got {nu}")
    a = np.atleast_1d(np.asarray(a, dtype=np.float64))
    if a.shape[0] > 2:
        raise ParameterError(f"t-rectangle oracle supports d <= 2, got d={a.shape[0]}")
    if direction == "lower":
        a = -a
    log_norm = -0.5 * nu * np.log(2.0) - gammaln(0.5 * nu)

    def integrand(s: float) -> float:
        # density of ln Y; past s = 700 it is e^{-e^700/2}, zero in floats
        y = np.exp(min(s, 700.0))
        dens = np.exp(log_norm + 0.5 * nu * s - 0.5 * y)
        if dens == 0.0:
            return 0.0
        return dens * rect_prob_gaussian(sigma, np.sqrt(y / nu) * a, "upper")

    a2 = float(np.max(a * a))
    cuts = sorted({np.log(nu), np.log(nu / a2)} if a2 > 0.0 else {np.log(nu)})
    edges = [-np.inf, *cuts, np.inf]
    val = err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        # the pieces to the left hold the mixing mass below nu and so bound the
        # total from below; the last piece can be 1e-20 of it
        v, e = quad(integrand, lo, hi, epsabs=1e-10 * val, epsrel=1e-9, limit=200)
        val += v
        err += e
    if not (val > 0.0 and err <= 1e-6 * val):
        raise SolverError(f"mixture quadrature did not resolve the probability: "
                          f"{val:.3e} with error estimate {err:.2e}")
    return float(val)


def clayton_corner_prob(delta: float, u0: float, d: int = 2) -> float:
    """Exact P(U_1 > u0, ..., U_d > u0) under a Clayton copula.

    Inclusion-exclusion over the k-margin CDFs, each written as
    u0 * (k - (k-1) u0^delta)^(-1/delta) so no intermediate quantity
    overflows however small u0 or large delta gets.
    """
    if not delta > 0:
        raise ParameterError(f"clayton parameter must be positive, got {delta}")
    if not 0.0 < u0 < 1.0:
        raise ParameterError(f"threshold must lie in (0,1), got {u0}")
    if isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 1:
        raise ParameterError(f"dimension must be an integer of at least 1, got {d!r}")
    ud = u0**delta
    total = 0.0
    for k in range(d + 1):
        total += (-1) ** k * comb(d, k) * u0 * (k - (k - 1) * ud) ** (-1.0 / delta)
    return total


def vine_corner_prob(rv, p: float) -> float:
    """P(U_i > p for all i) under a vine copula, by quadrature along its chain."""
    if not 0.0 < p < 1.0:
        raise ParameterError(f"threshold must lie in (0,1), got {p}")
    m, m_max = 8, _M_MAX[rv.d]
    prev = None
    while m <= m_max:
        val = _vine_chain_pass(rv, p, m)
        if not val > 0.0:
            raise SolverError(f"vine corner at p={p} vanished in double precision")
        if prev is not None and abs(val - prev) <= 1e-6 * val:
            return val
        prev = val
        m *= 2
    raise SolverError(f"vine corner quadrature did not stabilize below m={m_max} nodes")


def _vine_chain_pass(rv, p: float, m: int) -> float:
    """One tensor Gauss-Legendre pass over the first d-1 chain uniforms."""
    d = rv.d
    pts, wts = _tensor_grid(m, d - 1)
    v = np.full((pts.shape[0], d), p)
    lo, fk = p, 1.0 - p
    for k in range(1, d):
        v[:, k - 1] = lo + pts[:, k - 1] * (1.0 - lo)
        # column k of either map depends only on columns <= k, so the filler
        # in the later columns never reaches the lower limit of level k
        x = vine_rosenblatt_inverse(rv, v)
        x[:, k:] = p
        lo = vine_rosenblatt_forward(rv, x)[:, k]
        fk *= 1.0 - lo
    return float(fk @ wts)
