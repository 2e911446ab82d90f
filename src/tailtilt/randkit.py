"""Reproducible random streams, margin transforms, and base samplers.

The stream model is counter-based (Salmon, Moraes, Dror & Shaw 2011): the
stream ``(seed, r)`` is the sequence of 64-bit words Philox4x64 gives under
key ``(seed, r)``, so replication ``r`` of an experiment uses stream ``r``
and obtains the same draws no matter how replications are scheduled across
blocks and threads. A stream holds no generator, only its key and
``position``, the count of words it has read; each read sets one shared
Philox bit generator per thread to the stream's key and to counter
``position // 4``, and skips ``position % 4`` words. An :class:`RngStream`
is a block of consecutive streams, one or more: every sampler draws its
count per stream and returns the streams' draws stream-major, so a block's
arrays are exactly its streams' arrays laid end to end, and all the work
after reading the words runs once per block. Every variate consumes an
integral number of words: uniforms cost one word each, normals are produced
by quantile inversion (one word), and rejection samplers count the words
each stream actually consumes.

Margins cover the four families the estimators need (standard normal,
exponential, Student t, uniform), delegating CDFs and quantiles to
``scipy.special`` which comfortably meets a 1e-9 accuracy target even far
into the tails.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Philox
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

_M64 = 2**64 - 1
_SHIFT11 = np.uint64(11)
_INV_2_53 = 2.0**-53
_BELOW_ONE = 1.0 - 2.0**-53  # the largest double below 1

_THREAD = threading.local()


def _thread_philox() -> Philox:
    """This thread's Philox bit generator. Every read sets its whole state
    first, so the streams of any number of blocks can share it."""
    bits = getattr(_THREAD, "philox", None)
    if bits is None:
        bits = _THREAD.philox = Philox(0)
    return bits


@dataclass(eq=False)
class RngStream:
    """A block of counter-based streams ``(seed, r)``, one per ``r`` in
    ``stream_id``: an int for a block of one stream, a range for more.

    The block holds no generator. ``position`` counts the words each stream
    has read, an int for one stream and an array for a range. Each read sets
    this thread's Philox bit generator to the stream's key and to counter
    ``position // 4`` and drops ``position % 4`` words, so a stream gives
    the same words read alone or in a block, whole or in parts. Samplers
    draw their count per stream and return the draws stream-major.
    """

    seed: int
    stream_id: int | range
    _bits: object = field(repr=False, default=None)  # None: this thread's Philox
    _at: list[int] = field(init=False, repr=False)

    def __post_init__(self):
        self._at = [0] * self.streams

    @property
    def streams(self) -> int:
        """How many streams the block holds."""
        return len(self.stream_id) if isinstance(self.stream_id, range) else 1

    @property
    def position(self) -> int | np.ndarray:
        """Words read so far: an int for one stream, one count per stream
        for a range."""
        return np.array(self._at) if isinstance(self.stream_id, range) else self._at[0]

    def _raw(self, k) -> np.ndarray:
        """``k`` words from every stream, stream-major; ``k`` is one count,
        or a list of one count per stream."""
        bits = self._bits if self._bits is not None else _thread_philox()
        ids = self.stream_id if isinstance(self.stream_id, range) else (self.stream_id,)
        counts = k if isinstance(k, list) else [int(k)] * len(ids)
        seed = self.seed & _M64
        parts = []
        for i, (r, c) in enumerate(zip(ids, counts)):
            if c:
                p = self._at[i]
                bits.state = {"bit_generator": "Philox",
                              "state": {"counter": [p // 4, 0, 0, 0], "key": [seed, r & _M64]},
                              "buffer": [0, 0, 0, 0], "buffer_pos": 4,
                              "has_uint32": 0, "uinteger": 0}
                parts.append(bits.random_raw(p % 4 + c)[p % 4:])
                self._at[i] = p + c
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.uint64)

    def uniforms(self, n) -> np.ndarray:
        """``n`` doubles strictly inside (0,1) per stream, one word per draw,
        ``n`` being one count or a list of one count per stream; the top 2¹¹
        words, whose midpoint rounds to 1, give the largest double below 1."""
        w = self._raw(n)
        u = ((w >> _SHIFT11).astype(np.float64) + 0.5) * _INV_2_53
        return np.minimum(u, _BELOW_ONE, out=u)

    def normals(self, n) -> np.ndarray:
        """``n`` standard normals per stream, counted as in :meth:`uniforms`,
        by quantile inversion (one word each)."""
        return ndtri(self.uniforms(n))


def make_stream(seed: int, stream_id: int | range) -> RngStream:
    """The stream of replication ``stream_id`` under ``seed``, or the block
    of the streams of a range of replications."""
    if not isinstance(stream_id, range):
        stream_id = int(stream_id)
    return RngStream(seed=int(seed), stream_id=stream_id)


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
    """Draw ``n`` Gamma(shape, rate) variates (mean shape/rate) per stream.

    Marsaglia-Tsang rejection for shape >= 1; smaller shapes use the
    boosting identity G(a) = G(a+1) * U^{1/a}. Each round, every stream
    still short of ``n`` reads m normal words and then m uniform words, m
    being what it lacks, and keeps its accepted candidates in order; one
    acceptance test covers the whole block. Word counts are data dependent
    but fully determined by each stream, so reproducibility holds.
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
    out = np.empty(s.streams * n, dtype=np.float64)
    filled = [0] * s.streams
    while any(f < n for f in filled):
        lack = [n - f for f in filled]
        x = s.normals(lack)
        u = s.uniforms(lack)
        v = (1.0 + c * x) ** 3
        ok = v > 0
        vsafe = np.where(ok, v, 1.0)
        acc = ok & (np.log(u) < 0.5 * x * x + d - d * vsafe + d * np.log(vsafe))
        kept = d * vsafe[acc]
        at = took = 0
        for i, m in enumerate(lack):
            k = int(np.count_nonzero(acc[at:at + m]))
            out[i * n + filled[i]:i * n + filled[i] + k] = kept[took:took + k]
            filled[i] += k
            at, took = at + m, took + k
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
    """Draw ``n`` vectors per stream from MN(mean, sigma) via the cached
    Cholesky factor, one row per vector."""
    L = _cholesky(sigma)
    d = L.shape[0]
    mean = np.broadcast_to(np.asarray(mean, dtype=np.float64), (d,))
    z = s.normals(n * d).reshape(-1, d)
    return mean + _rows_times(z, L.T)


def _rows_times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for a 2-d ``a``, every row rounded as in a product of many
    rows: numpy hands a single row to a dot kernel that rounds otherwise, so
    a row's value would depend on how many rows it was drawn with."""
    if a.shape[0] == 1:
        return (np.concatenate([a, a]) @ b)[:1]
    return a @ b
