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

The t CDF and quantile that the t copula's Rosenblatt maps and the t pair's
h-functions call per row are :func:`_t_cdf` and :func:`_t_quantile`. For
integer degrees of freedom from 1 to ``_T_INT_MAX`` they are numpy closed
forms and series, faster than scipy's ``stdtr``/``stdtrit`` on arrays of a
few hundred rows and more, and accurate near F = 1/2, where ``stdtrit`` is
not; for any other nu they are scipy's calls. The margins, the latent
thresholds and the latent (``direct``) samplers keep scipy's calls: they are
not per row on the maps, and the zero-tilt checks compare the direct route
with ``stdtr`` bit for bit.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction

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


# ---------------------------------------------------------------------------
# Student t CDF and quantile for integer degrees of freedom
#
# For integer nu the t CDF has a closed form (Abramowitz & Stegun 26.7.3-4).
# With u = x / sqrt(nu) and c = 1 / (1 + u^2), F(x) = 1/2 + G(x), where
#   nu = 2m+1:  G = (atan u + u c T(c)) / pi,  T(c) = sum_{k<m} (2k)!!/(2k+1)!! c^k,
#   nu = 2m:    G = S(c) x / (2 sqrt(nu + x^2)),  S(c) = sum_{k<m} (2k-1)!!/(2k)!! c^k.
# G keeps its own relative accuracy near 0 and serves F for |x| <= x_in:
# sqrt(nu) for odd nu, and for even nu the point where F = _T_INNER.
# Beyond, the tail L = F(-|x|) gives F as L or 1 - L:
#   odd nu:  L = (atan(1/u) - u c T(c)) / pi keeps 1 - L to an ulp, and L,
#            though it cancels, to 3e-14 down to L = _T_SERIES; below that,
#            L = c^(nu/2) / (nu B(nu/2, 1/2)) 2F1(nu, 1; nu/2 + 1; z) with
#            z = (1 - sqrt(1 - c)) / 2 (DLMF 8.17.7 under the quadratic map
#            15.8.18), summed to 2^-56 at L = _T_SERIES, where z < 0.05;
#   even nu: L = (1 - (1 - c) S(c)^2) / (2 (1 + sqrt(1 - c) S(c))), whose
#            numerator is c^m Q(c), Q's coefficients exact and positive.
# The quantile finds t = |x| from pl = min(p, 1 - p), exact: on G(t) = 1/2 - pl
# for t <= x_in, which is exact near p = 1/2, and on L(t) = pl beyond, by the
# series where nu is odd and p < _T_SERIES. It starts from Hill's (1970)
# approximation, his central or his tail branch by his own rule, and takes
# Newton steps with the second-order (Taylor) term, as R's qt does. nu = 1
# and 2 have closed-form quantiles and take no step.

_T_INT_MAX = 8  # integer nu up to this get the forms above; any other nu, scipy's
_T_INNER = 0.1  # for even nu, G serves F where F and 1 - F are at least this
_T_SERIES = 0.003  # for odd nu, the closed-form L serves down to this, the series below
_T_X_CLIP = 1e150  # beyond, F is 0 or 1 in doubles, and x^2 stays finite


def _ipow(x: np.ndarray, m: int) -> np.ndarray:
    """x^m for an integer m >= 1, by products."""
    y = x
    for _ in range(m - 1):
        y = y * x
    return y


def _horner(coef: list[float], x: np.ndarray) -> np.ndarray:
    """sum_k coef[k] x^k."""
    acc = np.full_like(x, coef[-1])
    for a in coef[-2::-1]:
        acc *= x
        acc += a
    return acc


class _IntegerT:
    """The t law with integer ``nu`` degrees of freedom: its constants and
    closed forms."""

    def __init__(self, nu: int):
        self.nu, self.odd, m = nu, nu % 2 == 1, nu // 2
        f = math.factorial
        self.sqrt_nu = math.sqrt(nu)
        if self.odd:  # B(nu/2, 1/2) = pi (2m)! / (4^m m!^2)
            b_pi = Fraction(f(2 * m), 4**m * f(m) ** 2)
            self.dens = float(1 / b_pi) / (math.pi * self.sqrt_nu)
            self.T = [float(Fraction(4**k * f(k) ** 2, f(2 * k + 1))) for k in range(m)]
            # 2F1's terms (nu)_n / (nu/2 + 1)_n z^n, 1 / (nu B) folded in, until
            # they fall below 2^-56 of the first where L = _T_SERIES
            self.t_series = -float(stdtrit(nu, _T_SERIES))
            c = nu / (nu + self.t_series**2)
            z = c / (2.0 * (1.0 + math.sqrt(1.0 - c)))
            h, self.H = 1 / (nu * b_pi), []
            while not self.H or float(h) * z ** len(self.H) > 2.0**-56 * self.H[0] * math.pi:
                n = len(self.H)
                self.H.append(float(h) / math.pi)
                h *= Fraction(2 * (nu + n), nu + 2 + 2 * n)
        else:  # B(nu/2, 1/2) = 4^m m! (m-1)! / (2m)!
            b = Fraction(4**m * f(m) * f(m - 1), f(2 * m))
            self.dens = float(1 / b) / self.sqrt_nu
            S = [Fraction(f(2 * k), 4**k * f(k) ** 2) for k in range(m)]
            self.S = [float(a) for a in S]
            self.x_in = -float(stdtrit(nu, _T_INNER))
            # 1 - (1 - c) S(c)^2: its terms below c^m cancel exactly
            D = [Fraction(int(k == 0)) for k in range(2 * m)]
            for i in range(m):
                for j in range(m):
                    D[i + j] -= S[i] * S[j]
                    D[i + j + 1] += S[i] * S[j]
            assert not any(D[:m]) and all(a > 0 for a in D[m:])
            self.Q = [float(a / 2) for a in D[m:]]
        # Newton steps after Hill's start: enough to meet the bounds of the
        # tests, the steps being cubic
        self.steps = 0 if nu <= 2 else 2 if nu <= 4 else 1
        a = 1.0 / (nu - 0.5)
        b = 48.0 / (a * a)
        c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
        d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(a * math.pi / 2.0) * nu
        self.hill = a, b, c, d

    def halves(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """For 0 <= t <= _T_X_CLIP: whether t <= x_in, G(t) there and the
        tail L = F(-t) beyond, by the closed forms, and c. L keeps 1 - L, and
        itself down to _T_SERIES; for odd nu, G and L come from atan u and
        its complement atan(1/u), so that both angles stay below pi/4."""
        if self.odd:
            u = t / self.sqrt_nu
            inner = u <= 1.0
            c = 1.0 / (1.0 + u * u)
            ang = np.arctan(np.minimum(u, 1.0 / u))
            if not self.T:
                return inner, ang / np.pi, c
            uc = u * c
            s = uc * c * _horner(self.T[1:], c) if len(self.T) > 1 else 0.0
            return inner, np.where(inner, (ang + uc) + s, (ang - uc) - s) / np.pi, c
        inner = t <= self.x_in
        w = self.nu + t * t
        c = self.nu / w
        sn = t / np.sqrt(w)
        cs = c * _horner(self.S[1:], c) if len(self.S) > 1 else 0.0  # S(c) - 1
        G = 0.5 * sn + sn * (0.5 * cs)
        L = _ipow(c, self.nu // 2) * _horner(self.Q, c) / (1.0 + sn * (1.0 + cs))
        return inner, np.where(inner, G, L), c

    def series(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For odd nu and t > t_series, L = F(-t) to its relative accuracy,
        and c."""
        r = self.sqrt_nu / t
        r2 = r * r
        s = 1.0 / (1.0 + r2)
        sq = np.sqrt(s)
        c = r2 * s
        return (r * sq) ** self.nu * _horner(self.H, 0.5 * c / (1.0 + sq)), c

    def cdf(self, x: np.ndarray) -> np.ndarray:
        """F(x): 1/2 + G for |x| <= x_in, L or 1 - L beyond."""
        inner, V, _ = self.halves(np.minimum(np.abs(x), _T_X_CLIP))
        F = np.where(inner, 0.5 + np.copysign(V, x), np.where(x < 0.0, V, 1.0 - V))
        if self.odd:
            deep = x < -self.t_series
            if deep.any():
                F[deep] = self.series(-x[deep])[0]
        return F

    def start(self, pl: np.ndarray) -> np.ndarray:
        """t = -F^{-1}(pl) for 0 < pl <= 1/2: exact at nu = 1 and 2, else by
        Hill's approximation, his central branch or his tail one."""
        nu = self.nu
        if nu == 1:
            return np.where(pl < 0.25, 1.0 / np.tan(np.pi * pl), np.tan(np.pi * (0.5 - pl)))
        if nu == 2:
            return (1.0 - 2.0 * pl) / np.sqrt(2.0 * pl * (1.0 - pl))
        a, b, c, d = self.hill
        w = (2.0 * d * pl) ** (1.0 / nu)
        y = w * w
        central = y > 0.05 + a
        if central.all():
            return self._hill_central(pl)
        A = 1.0 / (((nu + 6.0) / (nu * y) - 0.089 * d - 0.822) * (nu + 2) * 3) + 0.5 / (nu + 4)
        t = np.sqrt(nu * (1.0 + y * (A * y - 1.0) * ((nu + 1) / (nu + 2)))) / w
        if central.any():
            t[central] = self._hill_central(pl[central])
        return t

    def _hill_central(self, pl: np.ndarray) -> np.ndarray:
        """Hill's central branch, an expansion about the normal quantile."""
        nu, (a, b, c, d) = self.nu, self.hill
        x = ndtri(pl)
        if nu < 5:
            c = c + 0.3 * (nu - 4.5) * (x + 0.6)
        c = (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b + c
        x2 = x * x
        y = (((((0.4 * x2 + 6.3) * x2 + 36.0) * x2 + 94.5) / c - x2 - 3.0) / b + 1.0) * x
        return np.sqrt(nu * np.expm1(a * y * y))

    def solve(self, pl: np.ndarray, deep: bool = False) -> np.ndarray:
        """t = -F^{-1}(pl) for 0 < pl <= 1/2: on G(t) = 1/2 - pl for t <=
        x_in, which is exact near pl = 1/2, and beyond on L(t) = pl, by the
        closed form or, if ``deep``, by the series. The two agree but for
        rounding, so the iterate picks its form."""
        t = self.start(pl)
        k = 0.5 * (self.nu + 1)
        for _ in range(self.steps):
            if deep:
                V, c = self.series(t)
                e = V - pl
            else:
                inner, V, c = self.halves(t)
                e = np.where(inner, (0.5 - pl) - V, V - pl)
            # divided by f = dens c^m c^(1/2 or 1) in two steps, since far out
            # the product underflows
            e /= self.dens * _ipow(c, self.nu // 2)
            e /= c if self.odd else np.sqrt(c)
            t = t + e * (1.0 + e * (k / self.nu) * t * c)
        return t


_INTEGER_T = {nu: _IntegerT(nu) for nu in range(1, _T_INT_MAX + 1)}


def _integer_t(nu) -> _IntegerT | None:
    nu = float(nu)
    return _INTEGER_T.get(int(nu)) if nu.is_integer() else None


def _t_cdf(nu, x) -> np.ndarray:
    """The t CDF with ``nu`` degrees of freedom: scipy's ``stdtr`` unless nu
    is an integer from 1 to ``_T_INT_MAX``, where it is within 2^-52 of F and,
    where F < 1/2, within 1e-13 of it relative."""
    law = _integer_t(nu)
    if law is None:
        return stdtr(nu, x)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        return law.cdf(np.asarray(x, dtype=np.float64))


def _t_quantile(nu, p) -> np.ndarray:
    """The t quantile with ``nu`` degrees of freedom at p strictly inside
    (0, 1): scipy's ``stdtrit`` unless nu is an integer from 1 to
    ``_T_INT_MAX``, where the t CDF at the quantile is within the bounds
    :func:`_t_cdf` keeps of p."""
    law = _integer_t(nu)
    if law is None:
        return stdtrit(nu, p)
    p = np.asarray(p, dtype=np.float64)
    pl = np.minimum(p, 1.0 - p)  # exact
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        deep = p < _T_SERIES if law.odd and law.steps else None
        if deep is None or not deep.any():
            t = law.solve(pl)
        elif deep.all():
            t = law.solve(pl, deep=True)
        else:
            t = np.empty_like(pl)
            t[~deep] = law.solve(pl[~deep])
            t[deep] = law.solve(pl[deep], deep=True)
    return np.where(p < 0.5, -t, t)


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
