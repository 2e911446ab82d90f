"""Full copula models, corner events, and the Rosenblatt transform pair.

Three joint families are supported: Gaussian and Student t (parameterized by
a correlation matrix, plus degrees of freedom for t) and Clayton
(parameterized by delta, any dimension). Each one gets a forward Rosenblatt
transform mapping copula-scale vectors onto i.i.d. uniforms by sequential
conditioning, an inverse transform, and a crude sampler on the margin scale.
The crude sampler exposes two routes: ``direct`` draws through the latent
representation (multivariate normal, scale mixture, or the gamma-frailty
construction), while ``cim`` pushes i.i.d. uniforms through the inverse
Rosenblatt map. Both routes consume stream words in a documented order so
that tilted samplers can reproduce them bit for bit at a zero tilt.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import ndtr, ndtri, stdtr, stdtrit

from ..errors import DomainError, ParameterError, ShapeError
from ..randkit import (
    MarginSpec,
    RngStream,
    _check_clayton_delta,
    _check_real,
    _check_sigma,
    _check_size,
    _cholesky,
    margin_cdf,
    margin_quantile,
    sample_gamma,
    sample_mvn,
)

__all__ = [
    "CopulaSpec",
    "CornerEvent",
    "transform_event",
    "rosenblatt_forward",
    "rosenblatt_inverse",
    "sample_copula_uniforms",
    "sample_copula_crude",
]


@dataclass(frozen=True)
class CopulaSpec:
    """A d-dimensional copula model with margins attached.

    ``gaussian`` and ``student-t`` require ``sigma``, a correlation matrix
    (symmetric, positive definite, unit diagonal); ``clayton`` requires
    ``delta`` and takes its dimension from the margins.
    """

    family: str
    margins: tuple[MarginSpec, ...]
    sigma: np.ndarray | None = field(default=None, repr=False)
    nu: float = 0.0
    delta: float = 0.0

    def __post_init__(self):
        if self.family not in ("gaussian", "student-t", "clayton"):
            raise ParameterError(f"unknown copula family {self.family!r}")
        object.__setattr__(self, "margins", tuple(self.margins))
        d = len(self.margins)
        if d < 1:
            raise ParameterError("at least one margin is required")
        if self.family in ("gaussian", "student-t"):
            if self.sigma is None:
                raise ParameterError(f"{self.family} copula requires a correlation matrix")
            object.__setattr__(self, "sigma", _check_sigma(self.sigma, d, unit_diag=True))
        if self.family == "student-t" and not 0.0 < _check_real(self.nu, "nu") < np.inf:
            raise ParameterError(f"degrees of freedom must be finite and positive, got {self.nu}")
        if self.family == "clayton":
            _check_clayton_delta(self.delta, "clayton")

    @property
    def d(self) -> int:
        return len(self.margins)


@dataclass(frozen=True)
class CornerEvent:
    """A corner event {X_i > a_i for all i} (or < for direction 'lower').

    ``a`` lives on the margin scale; ``a_star`` is the latent-scale image
    filled in by :func:`transform_event` (normal quantiles for Gaussian,
    t quantiles for t, plain uniform thresholds for Clayton).
    """

    direction: str
    a: np.ndarray
    a_star: np.ndarray | None = None

    def __post_init__(self):
        if self.direction not in ("upper", "lower"):
            raise ParameterError(f"direction must be 'upper' or 'lower', got {self.direction!r}")
        object.__setattr__(self, "a", _check_real(self.a, "thresholds a", array=True))
        if not np.all(np.isfinite(self.a)):
            raise DomainError(f"thresholds must be finite, got {self.a}")
        if self.a_star is not None:
            object.__setattr__(self, "a_star", _check_real(self.a_star, "a_star", array=True))


def transform_event(c: CopulaSpec, e: CornerEvent) -> CornerEvent:
    """Fill in the latent-scale thresholds of a corner event."""
    u0 = event_uniform_thresholds(c, e)
    if c.family == "gaussian":
        a_star = ndtri(u0)
    elif c.family == "student-t":
        a_star = stdtrit(c.nu, u0)
    else:
        a_star = u0
    return CornerEvent(direction=e.direction, a=e.a, a_star=a_star)


def event_uniform_thresholds(c: CopulaSpec, e: CornerEvent) -> np.ndarray:
    """Copula-scale thresholds u0_i = F_i(a_i), validated against the support."""
    if e.a.shape[0] != c.d:
        raise ShapeError(f"event has {e.a.shape[0]} thresholds for a {c.d}-dimensional copula")
    u0 = np.array([float(margin_cdf(c.margins[i], e.a[i])) for i in range(c.d)])
    if np.any(u0 <= 0.0) or np.any(u0 >= 1.0):
        raise DomainError(f"thresholds {e.a} fall outside the margin support")
    return u0


def _check_matrix(c: CopulaSpec, arr: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != c.d:
        raise ShapeError(f"{name} must have shape (n, {c.d}), got {arr.shape}")
    return arr


# ---------------------------------------------------------------------------
# Rosenblatt transforms


def _t_conditional_terms(sigma: np.ndarray, nu: float, q: np.ndarray, k: int):
    """Location, scale, and df for component k of a t vector given q[:, :k]."""
    a = sigma[:k, :k]
    b = sigma[k, :k]
    w = np.linalg.solve(a, b)
    loc = q[:, :k] @ w
    schur = sigma[k, k] - b @ w
    sol = np.linalg.solve(a, q[:, :k].T)
    qf = np.einsum("ij,ji->i", q[:, :k], sol)
    scale = np.sqrt((nu + qf) / (nu + k) * schur)
    return loc, scale, nu + k


def rosenblatt_forward(c: CopulaSpec, u) -> np.ndarray:
    """Map copula-scale vectors to i.i.d. uniforms by sequential conditioning."""
    u = _check_matrix(c, u, "u")
    if c.family == "gaussian":
        L = _cholesky(c.sigma)
        z = ndtri(u)
        y = solve_triangular(L, z.T, lower=True).T
        return ndtr(y)
    if c.family == "student-t":
        q = stdtrit(c.nu, u)
        v = np.empty_like(u)
        v[:, 0] = u[:, 0]
        for k in range(1, c.d):
            loc, scale, df = _t_conditional_terms(c.sigma, c.nu, q, k)
            v[:, k] = stdtr(df, (q[:, k] - loc) / scale)
        return v
    return _clayton_forward(c.delta, u)


def rosenblatt_inverse(c: CopulaSpec, v) -> np.ndarray:
    """Map i.i.d. uniforms to copula-scale vectors; inverse of the forward map.

    Column 1 is v1 itself for the t and Clayton maps; the Gaussian map
    round-trips it through ``ndtr(ndtri(v1))``, within 2.2e-16 of v1.
    """
    v = _check_matrix(c, v, "v")
    if c.family == "gaussian":
        L = _cholesky(c.sigma)
        return ndtr(ndtri(v) @ L.T)
    if c.family == "student-t":
        q = np.empty_like(v)
        q[:, 0] = stdtrit(c.nu, v[:, 0])
        for k in range(1, c.d):
            loc, scale, df = _t_conditional_terms(c.sigma, c.nu, q, k)
            q[:, k] = loc + scale * stdtrit(df, v[:, k])
        u = np.empty_like(v)
        u[:, 0] = v[:, 0]
        u[:, 1:] = stdtr(c.nu, q[:, 1:])
        return u
    return _clayton_inverse(c.delta, v)


def _clayton_clip(delta: float, u: np.ndarray) -> np.ndarray:
    # keep u^(-delta) representable; the clip point is far below any mass
    # the estimators can reach
    return np.clip(u, np.exp(-600.0 / delta), 1.0 - 1e-16)


def _clayton_forward(delta: float, u: np.ndarray) -> np.ndarray:
    u = _clayton_clip(delta, u)
    n, d = u.shape
    t = u**-delta
    v = np.empty_like(u)
    v[:, 0] = u[:, 0]
    s = t[:, 0].copy()
    for k in range(1, d):
        v[:, k] = (1.0 + (t[:, k] - 1.0) / s) ** -(1.0 / delta + k)
        s += t[:, k] - 1.0
    return v


def _clayton_inverse(delta: float, v: np.ndarray) -> np.ndarray:
    v = np.clip(v, 1e-300, 1.0 - 1e-16)
    n, d = v.shape
    u = np.empty_like(v)
    u[:, 0] = v[:, 0]
    s = _clayton_clip(delta, v[:, 0]) ** -delta
    for k in range(1, d):
        grow = np.expm1(-np.log(v[:, k]) / (1.0 / delta + k))
        u[:, k] = (s * grow + 1.0) ** (-1.0 / delta)
        s += _clayton_clip(delta, u[:, k]) ** -delta - 1.0
    return u


# ---------------------------------------------------------------------------
# crude samplers


def sample_copula_uniforms(
    c: CopulaSpec, s: RngStream, n: int, route: str = "direct"
) -> np.ndarray:
    """Draw n copula-scale vectors U.

    ``direct`` uses the latent construction (word order: gamma variables
    first where the family has them, then the Gaussian block or the uniform
    block); ``cim`` draws d uniforms per vector and applies the inverse
    Rosenblatt map.
    """
    _check_size(n)
    if route == "cim":
        v = s.uniforms(n * c.d).reshape(n, c.d)
        return rosenblatt_inverse(c, v)
    if route != "direct":
        raise ParameterError(f"route must be 'direct' or 'cim', got {route!r}")
    if c.family == "gaussian":
        z = sample_mvn(s, 0.0, c.sigma, n)
        return ndtr(z)
    if c.family == "student-t":
        y = sample_gamma(s, c.nu / 2.0, 0.5, n)
        z = sample_mvn(s, 0.0, c.sigma, n)
        t = z * np.sqrt(c.nu / y)[:, None]
        return stdtr(c.nu, t)
    w = sample_gamma(s, 1.0 / c.delta, 1.0, n)
    v = s.uniforms(n * c.d).reshape(n, c.d)
    return (1.0 - np.log(v) / w[:, None]) ** (-1.0 / c.delta)


def sample_copula_crude(c, s: RngStream, n: int, route: str = "direct") -> np.ndarray:
    """Draw n margin-scale vectors X from a copula model or a vine."""
    from .vines import RVineSpec, sample_vine_uniforms

    if isinstance(c, RVineSpec):
        u = sample_vine_uniforms(s, c, n)
        margins = c.margins
    else:
        u = sample_copula_uniforms(c, s, n, route)
        margins = c.margins
    x = np.empty_like(u)
    for i, m in enumerate(margins):
        x[:, i] = margin_quantile(m, np.clip(u[:, i], 1e-15, 1.0 - 1e-15))
    return x
