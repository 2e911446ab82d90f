"""Reproducible random streams, margin transforms, and base samplers.

The stream model is counter-based: a :class:`RngStream` is keyed by
``(seed, stream_id)`` through a Philox generator, so replication ``r`` of an
experiment can use ``stream_id = r`` and obtain the same draws no matter how
replications are scheduled across threads. Every variate ultimately consumes
an integral number of raw 64-bit words, counted in ``stream.position``:
uniforms cost one word each, normals are produced by quantile inversion
(one word), and rejection samplers count the words they actually consume.

Margins cover the four families the estimators need (standard normal,
exponential, Student t, uniform), delegating CDFs and quantiles to
``scipy.special`` which comfortably meets a 1e-9 accuracy target even far
into the tails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtr, ndtri, stdtr, stdtrit

from .errors import DomainError, FactorizationError, ParameterError, ShapeError

__all__ = [
    "RngStream",
    "MarginSpec",
    "make_stream",
    "margin_cdf",
    "margin_quantile",
    "sample_gamma",
    "sample_mvn",
]

_U64_MAX = np.uint64(2**64 - 1)
_SHIFT11 = np.uint64(11)
_INV_2_53 = 2.0**-53
_BELOW_ONE = 1.0 - 2.0**-53  # the largest double below 1


@dataclass
class RngStream:
    """A counter-based random stream identified by ``(seed, stream_id)``.

    ``position`` counts raw 64-bit words consumed so far; two streams with
    equal key and equal position continue identically.
    """

    seed: int
    stream_id: int
    position: int = 0
    _gen: Generator = field(repr=False, default=None)

    def _raw(self, n: int) -> np.ndarray:
        self.position += int(n)
        return self._gen.integers(0, _U64_MAX, size=n, dtype=np.uint64, endpoint=True)

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` doubles strictly inside (0,1), one word per draw; the top
        2¹¹ words, whose midpoint rounds to 1, give the largest double below 1."""
        w = self._raw(n)
        u = ((w >> _SHIFT11).astype(np.float64) + 0.5) * _INV_2_53
        return np.minimum(u, _BELOW_ONE, out=u)

    def normals(self, n: int) -> np.ndarray:
        """``n`` standard normals by quantile inversion (one word each)."""
        return ndtri(self.uniforms(n))


def make_stream(seed: int, stream_id: int) -> RngStream:
    """Create the stream for replication ``stream_id`` under ``seed``."""
    key = np.array([np.uint64(seed & (2**64 - 1)), np.uint64(stream_id & (2**64 - 1))])
    return RngStream(seed=int(seed), stream_id=int(stream_id), _gen=Generator(Philox(key=key)))


# ---------------------------------------------------------------------------
# margins


@dataclass(frozen=True)
class MarginSpec:
    """A one-dimensional margin: its family plus that family's parameter.

    families: ``std-normal``, ``exponential`` (rate), ``student-t`` (df),
    ``uniform01``.
    """

    family: str
    rate: float = 1.0
    df: float = 1.0

    def __post_init__(self):
        if self.family not in ("std-normal", "exponential", "student-t", "uniform01"):
            raise ParameterError(f"unknown margin family {self.family!r}")
        if self.family == "exponential" and not _check_real(self.rate, "rate") > 0:
            raise ParameterError(f"exponential rate must be positive, got {self.rate}")
        if self.family == "student-t":
            _check_t_nu(self.df, "df")

    def label(self) -> str:
        if self.family == "exponential":
            return f"exponential({self.rate:g})"
        if self.family == "student-t":
            return f"student-t({self.df:g})"
        return self.family


def margin_cdf(m: MarginSpec, x):
    """F(x) for margin ``m``; values outside the support clamp to 0 or 1."""
    x = np.asarray(x, dtype=np.float64)
    if m.family == "std-normal":
        return ndtr(x)
    if m.family == "exponential":
        return np.where(x > 0, -np.expm1(-m.rate * np.maximum(x, 0.0)), 0.0)
    if m.family == "student-t":
        return stdtr(m.df, x)
    return np.clip(x, 0.0, 1.0)


def margin_quantile(m: MarginSpec, q):
    """F^{-1}(q) for q strictly inside (0,1)."""
    q = np.asarray(q, dtype=np.float64)
    if np.any(q <= 0.0) or np.any(q >= 1.0):
        raise DomainError("quantile argument must lie strictly inside (0,1)")
    if m.family == "std-normal":
        return ndtri(q)
    if m.family == "exponential":
        return -np.log1p(-q) / m.rate
    if m.family == "student-t":
        return stdtrit(m.df, q)
    return q


# ---------------------------------------------------------------------------
# scalar/vector samplers


def _trunc_exp_inverse_cdf(u: np.ndarray, t: float) -> np.ndarray:
    """Inverse CDF of density ∝ e^{t·v} on (0,1) for any finite t: within an
    ulp or two at both ends of (0,1), and never rounded up to 1."""
    if abs(t) < 1e-6:
        # second-order expansion of log1p(u·expm1(t))/t; the t=0 case
        # returns u exactly, which downstream bit-identity checks rely on
        return u + t * (u * (1.0 - u) / 2.0 + t * (u / 6.0 - u * u / 2.0 + u**3 / 3.0))
    if t < 0:
        # log1p(x) keeps v near 0; where x = u·expm1(t) nears −1 the product
        # has lost the small 1 + x, which (1 − u) + u·e^t sums without loss
        x = u * np.expm1(t)
        v = np.where(x > -0.5, np.log1p(x), np.log((1.0 - u) + u * np.exp(t))) / t
    elif t <= 500.0:
        v = np.log1p(u * np.expm1(t)) / t
    else:
        # 1 + u(e^t - 1) = e^t (u + (1-u)e^{-t}); avoids overflow
        v = 1.0 + np.log(u + (1.0 - u) * np.exp(-t)) / t
    return np.minimum(v, _BELOW_ONE, out=v)


def sample_gamma(s: RngStream, shape: float, rate: float, n: int = 1) -> np.ndarray:
    """Draw Gamma(shape, rate) variates (mean shape/rate).

    Marsaglia-Tsang rejection for shape >= 1; smaller shapes use the
    boosting identity G(a) = G(a+1) * U^{1/a}. Draw counts are data
    dependent but fully determined by the stream, so reproducibility holds.
    """
    shape = float(shape)
    rate = float(rate)
    if not 0.0 < shape < np.inf:
        raise ParameterError(f"gamma shape must be finite and positive, got {shape}")
    if not 0.0 < rate < np.inf:
        raise ParameterError(f"gamma rate must be finite and positive, got {rate}")

    a = shape if shape >= 1.0 else shape + 1.0
    d = a - 1.0 / 3.0
    c = 1.0 / np.sqrt(9.0 * d)
    out = np.empty(n, dtype=np.float64)
    filled = 0
    while filled < n:
        m = n - filled
        x = s.normals(m)
        u = s.uniforms(m)
        v = (1.0 + c * x) ** 3
        ok = v > 0
        vsafe = np.where(ok, v, 1.0)
        acc = ok & (np.log(u) < 0.5 * x * x + d - d * vsafe + d * np.log(vsafe))
        k = int(np.count_nonzero(acc))
        out[filled : filled + k] = d * vsafe[acc]
        filled += k
    if shape < 1.0:
        out *= s.uniforms(n) ** (1.0 / shape)
    return out / rate


_CHOL_CACHE: dict[tuple, np.ndarray] = {}


def _cholesky(sigma: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of ``sigma``, cached per matrix contents."""
    sigma = np.asarray(sigma, dtype=np.float64)
    key = (sigma.shape[0], sigma.tobytes())
    L = _CHOL_CACHE.get(key)
    if L is None:
        try:
            L = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError as exc:
            raise FactorizationError(f"covariance is not positive definite: {exc}") from exc
        pivots = np.diag(L) ** 2
        if pivots.min() <= 1e-12 * np.trace(sigma):
            raise FactorizationError(
                f"covariance nearly singular: smallest pivot {pivots.min():.3e}"
            )
        _CHOL_CACHE[key] = L
    return L


def _check_size(n, name: str = "sample size") -> None:
    """Reject a count, by default a sample size, that is not an integer of at
    least 1."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterError(f"{name} must be an integer of at least 1, got {n!r}")


def _check_real(value, name: str, *, array: bool = False) -> np.ndarray | float:
    """``value`` as floats: one real number, or an array of at least one
    dimension if ``array``; strings, booleans and ragged nesting are refused."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or not (array or arr.ndim == 0):
        raise ParameterError(f"{name} must be real {'numbers' if array else 'number'}, "
                             f"got {value!r}")
    return np.atleast_1d(arr.astype(np.float64, copy=False)) if array else float(arr)


def _check_open_unit(arr: np.ndarray, name: str) -> np.ndarray:
    """``arr`` itself, once every entry is known to lie strictly inside (0, 1)."""
    if arr.size and not (arr.min() > 0.0 and arr.max() < 1.0):  # NaN fails both
        raise DomainError(f"every entry of {name} must lie strictly inside (0, 1)")
    return arr


def _check_sigma(sigma, d: int, *, unit_diag: bool) -> np.ndarray:
    """``sigma`` as a float array, checked to be a symmetric positive definite
    d×d matrix, and a correlation matrix when ``unit_diag``."""
    sigma = _check_real(sigma, "sigma", array=True)
    if sigma.shape != (d, d):
        raise ShapeError(f"covariance shape {sigma.shape} does not match d={d}")
    if not np.allclose(sigma, sigma.T, atol=1e-12):
        raise ParameterError("covariance must be symmetric")
    if unit_diag and not np.allclose(np.diag(sigma), 1.0, atol=1e-12):
        raise ParameterError("correlation matrix must have a unit diagonal")
    _cholesky(sigma)  # fails fast if not positive definite
    return sigma


# scipy's t quantile stops inverting its own CDF below this many degrees of
# freedom: at nu = 0.1, stdtr(nu, stdtrit(nu, v)) reads 1.0 at some v near
# 1e-16. At 0.2 the quantile's tail probability, taken at 50 digits, is
# within 6e-16 of v's, relative, for v from 2^-53 to 1 - 2^-53.
_T_NU_MIN = 0.2


def _check_t_nu(nu: float, name: str = "nu") -> None:
    """Reject t degrees of freedom that are not finite or lie below ``_T_NU_MIN``."""
    if not _T_NU_MIN <= _check_real(nu, name) < np.inf:
        raise ParameterError(f"student-t degrees of freedom {name} must be finite and at "
                             f"least {_T_NU_MIN:g}, where scipy's t quantile still inverts "
                             f"the t CDF, got {nu}")


def _check_clayton_delta(delta: float, what: str) -> None:
    """Reject a Clayton parameter unless it and its reciprocal, the shape of
    the frailty's gamma law, are finite and positive."""
    _check_real(delta, f"{what} delta")
    if not (0.0 < delta < np.inf and 1.0 / float(delta) < np.inf):
        raise ParameterError(f"{what} parameter must be finite and positive, with a "
                             f"finite reciprocal, got {delta}")


def sample_mvn(s: RngStream, mean, sigma, n: int = 1) -> np.ndarray:
    """Draw ``n`` vectors from MN(mean, sigma) via the cached Cholesky factor."""
    L = _cholesky(sigma)
    d = L.shape[0]
    mean = np.broadcast_to(np.asarray(mean, dtype=np.float64), (d,))
    z = s.normals(n * d).reshape(n, d)
    return mean + z @ L.T
