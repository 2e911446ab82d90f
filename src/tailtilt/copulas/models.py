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
that tilted samplers can reproduce them bit for bit at a zero tilt (is-t1
and is-t3 reproduce ``cim``, is-t2 ``direct``). The routes are samplers at
this layer only: a crude estimate of these models is is-t1 at the zero
tilt, so it takes ``cim``.
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
    _check_open_unit,
    _check_real,
    _check_sigma,
    _check_size,
    _check_t_nu,
    _cholesky,
    _rows_times,
    margin_cdf,
    margin_quantile,
    sample_gamma,
    sample_mvn,
)

__all__ = [
    "CopulaSpec",
    "CornerEvent",
    "latent_thresholds",
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
        if self.family == "student-t":
            _check_t_nu(self.nu)
        if self.family == "clayton":
            _check_clayton_delta(self.delta, "clayton")

    @property
    def d(self) -> int:
        return len(self.margins)


@dataclass(frozen=True)
class CornerEvent:
    """A corner event {X_i > a_i for all i} (or < for direction 'lower'),
    with ``a`` on the margin scale."""

    direction: str
    a: np.ndarray

    def __post_init__(self):
        if self.direction not in ("upper", "lower"):
            raise ParameterError(f"direction must be 'upper' or 'lower', got {self.direction!r}")
        object.__setattr__(self, "a", _check_real(self.a, "thresholds a", array=True))
        if not np.all(np.isfinite(self.a)):
            raise DomainError(f"thresholds must be finite, got {self.a}")


def latent_thresholds(c: CopulaSpec, e: CornerEvent) -> np.ndarray:
    """The event's thresholds on the latent scale: normal quantiles for the
    Gaussian copula, t quantiles for the t, uniform thresholds for Clayton."""
    u0 = event_uniform_thresholds(c, e)
    if c.family == "gaussian":
        return ndtri(u0)
    if c.family == "student-t":
        return stdtrit(c.nu, u0)
    return u0


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
    return _check_open_unit(arr, name)


# ---------------------------------------------------------------------------
# Rosenblatt transforms
#
# Both elliptical families condition along the Cholesky factor L of sigma:
# y = L^-1 q holds the standardized residuals of the latent vector q. For
# the t, column k of y (counting from 0) given the columns before it is a t
# with nu + k degrees of freedom once scaled by sqrt((nu + k) / (nu + s_k)),
# s_k the sum of their squares (Genz & Bretz 2009).


def rosenblatt_forward(c: CopulaSpec, u) -> np.ndarray:
    """Map copula-scale vectors to i.i.d. uniforms by sequential conditioning."""
    u = _check_matrix(c, u, "u")
    if c.family == "clayton":
        return _clayton_forward(c.delta, u)
    L = _cholesky(c.sigma)
    if c.family == "gaussian":
        return ndtr(solve_triangular(L, ndtri(u).T, lower=True).T)
    y = solve_triangular(L, stdtrit(c.nu, u).T, lower=True).T
    v = np.empty_like(u)
    v[:, 0] = u[:, 0]
    ss = y[:, 0] ** 2
    for k in range(1, c.d):
        df = c.nu + k
        v[:, k] = stdtr(df, y[:, k] * np.sqrt(df / (c.nu + ss)))
        ss += y[:, k] ** 2
    return v


def rosenblatt_inverse(c: CopulaSpec, v) -> np.ndarray:
    """Map i.i.d. uniforms to copula-scale vectors; inverse of the forward map.

    Column 1 is v1 itself for the t and Clayton maps; the Gaussian map
    round-trips it through ``ndtr(ndtri(v1))``, within 2.2e-16 of v1.
    """
    v = _check_matrix(c, v, "v")
    if c.family == "clayton":
        return _clayton_inverse(c.delta, v)
    L = _cholesky(c.sigma)
    if c.family == "gaussian":
        return ndtr(_rows_times(ndtri(v), L.T))
    y = np.empty_like(v)
    ss = np.zeros(v.shape[0])
    for k in range(c.d):  # at k = 0 the scale is nu / nu, exactly 1
        df = c.nu + k
        y[:, k] = stdtrit(df, v[:, k]) * np.sqrt((c.nu + ss) / df)
        ss += y[:, k] ** 2
    u = np.empty_like(v)
    u[:, 0] = v[:, 0]
    u[:, 1:] = stdtr(c.nu, _rows_times(y, L[1:].T))
    return u


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
    """Draw n copula-scale vectors U per stream of the block ``s``, stream-major.

    ``direct`` uses the latent construction (word order: gamma variables
    first where the family has them, then the Gaussian block or the uniform
    block); ``cim`` draws d uniforms per vector and applies the inverse
    Rosenblatt map.
    """
    _check_size(n)
    if route == "cim":
        v = s.uniforms(n * c.d).reshape(-1, c.d)
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
    v = s.uniforms(n * c.d).reshape(-1, c.d)
    return (1.0 - np.log(v) / w[:, None]) ** (-1.0 / c.delta)


def sample_copula_crude(c, s: RngStream, n: int) -> np.ndarray:
    """Draw n margin-scale vectors X from a vine on its chain, or from a
    parametric copula through its latent construction."""
    from .vines import RVineSpec, sample_vine_uniforms

    if isinstance(c, RVineSpec):
        u = sample_vine_uniforms(s, c, n)
    else:
        u = sample_copula_uniforms(c, s, n)
    x = np.empty_like(u)
    for i, m in enumerate(c.margins):
        x[:, i] = margin_quantile(m, np.clip(u[:, i], 1e-15, 1.0 - 1e-15))
    return x
