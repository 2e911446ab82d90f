"""Exponential tilting families and the solvers for the optimal tilt.

Each family fixes a latent base measure P, a statistic T with cumulant
ψ(θ) = ln E_P[e^{θ·T}], and the tilted measure Q_θ with dQ_θ/dP =
e^{θ·T − ψ(θ)}. An importance-sampling estimator draws from Q_θ and weighs
by the inverse ratio, so every tilted draw carries log dP/dQ_θ =
ψ(θ) − θ·T. The conjugate measure Q̄_θ used in the optimality condition is
simply Q_{−θ}.

Five families are provided:

``trunc-exp-product``
    d independent uniforms, each tilted to density θ_i e^{θ_i v}/(e^{θ_i}−1).
``mvn-shift``
    a centered normal vector with covariance Σ, tilted to mean Σθ.
``t-gamma-normal``
    the latent (Y, Z) pair behind a multivariate t vector X = Z √(ν/Y),
    with statistic W = √(Y/ν) Z − (Y/ν) a*, so that {X > a*} = {W > 0}.
``clayton-mo``
    the frailty construction of a Clayton corner: a gamma frailty W plus d
    uniforms, with θ = (θ_w, θ_1, …, θ_d).
``hazard-rate``
    d uniforms sharing one scalar twist of the hazard −ln(1−v), density
    (1−θ)(1−v)^{−θ} per component.

The solvers minimize the second-moment proxy G(θ) = E_P[1{A} e^{−θ·T+ψ(θ)}]:
``solve_theta_saa`` freezes a pilot sample and runs damped Newton on the
resulting deterministic convex surface, ``solve_theta_gaussian_tallis``
solves the Gaussian first-order condition through the closed-form truncated
normal moment, ``solve_theta_large_deviation`` minimizes ψ itself for the t
family over θ ≥ 0, one non-negative least-squares solve in any dimension,
and ``solve_hrt_theta`` is the one-parameter case of ``solve_theta_saa``
for the scalar hazard-rate twist, projected onto [0, 1). Every pilot solve
runs the same pre-tilt, pilot stage and damped Newton. The pre-tilt is
multilevel cross-entropy on a continuous score whose event is {score > 0}
(Rubinstein 1997; de Boer, Kroese, Mannor & Rubinstein 2005): each level
raises the score level γ towards 0 and refits the tilt by matching the
weighted mean of the statistic over the rows above γ, a moment match that
is the damped Newton too, run on a one-row pilot.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import solve_triangular
from scipy.optimize import nnls

from .errors import (
    DegeneratePilotError,
    DomainError,
    ParameterError,
    ShapeError,
    SolverError,
)
from .oracle import rect_prob_gaussian
from .randkit import (RngStream, _check_clayton_delta, _check_real, _check_sigma,
                      _check_size, _check_t_nu, _cholesky, _rows_times,
                      _trunc_exp_inverse_cdf, sample_gamma, sample_mvn)

__all__ = [
    "TiltFamily",
    "TiltedSample",
    "Pilot",
    "TiltSolution",
    "psi",
    "grad_psi",
    "hess_psi",
    "sample_tilted",
    "G_hat",
    "draw_pilot",
    "first_order_gap",
    "solve_theta_saa",
    "truncated_mvn_first_moment",
    "solve_theta_gaussian_tallis",
    "solve_theta_large_deviation",
    "solve_hrt_theta",
]

_KINDS = ("trunc-exp-product", "mvn-shift", "t-gamma-normal", "clayton-mo", "hazard-rate")
_SQRT_2PI = np.sqrt(2.0 * np.pi)

# pilot solver: pilot draws, the fewest event hits it may carry, and the
# gradient-norm tolerance and step cap of its damped Newton on log Ĝ
_N_PILOT = 20_000
_PILOT_MIN_HITS = 200
_NEWTON_TOL = 1e-6
_NEWTON_MAX_ITERS = 100
# cross-entropy pre-tilt: rows per level, elite fraction ρ and level cap; the
# chain scores map every row, so more rows per level cost the vines more
# than the pilot they save
_CE_ROWS = 2_000
_CE_RHO = 0.1
_CE_MAX_LEVELS = 40
# closed-form Gaussian solver: residual tolerance and Newton step cap
_TALLIS_TOL = 1e-10
_TALLIS_MAX_ITERS = 100
# large-deviation solver: KKT violation allowed, relative to 1 + max a*
_LD_TOL = 1e-10


@dataclass(frozen=True)
class TiltFamily:
    """One of the five tilting families, with its fixed shape parameters.

    ``d`` is the number of model coordinates. The tilt vector has length
    ``d`` for most kinds, ``d + 1`` for ``clayton-mo`` (frailty coordinate
    first), and 1 for ``hazard-rate`` (a single shared twist). ``a_star``
    is the latent corner point: ``t-gamma-normal`` needs it for its
    statistic, and ``mvn-shift`` carries it for the closed-form solver.
    """

    kind: str
    d: int
    sigma: np.ndarray | None = field(default=None, repr=False)
    nu: float = 0.0
    delta: float = 0.0
    a_star: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ParameterError(f"unknown tilting family {self.kind!r}")
        _check_size(self.d, "dimension")
        if self.kind in ("mvn-shift", "t-gamma-normal"):
            if self.sigma is None:
                raise ParameterError(f"{self.kind} requires a covariance matrix")
            object.__setattr__(self, "sigma", _check_sigma(self.sigma, self.d, unit_diag=False))
        if self.kind == "t-gamma-normal":
            _check_t_nu(self.nu)
            if self.a_star is None:
                raise ParameterError("t-gamma-normal requires the corner point a_star")
        if self.a_star is not None:
            a = _check_real(self.a_star, "a_star", array=True)
            if a.shape != (self.d,):
                raise ShapeError(f"a_star shape {a.shape} does not match d={self.d}")
            if not np.all(np.isfinite(a)):
                raise ParameterError("a_star must be finite")
            object.__setattr__(self, "a_star", a)
        if self.kind == "clayton-mo":
            _check_clayton_delta(self.delta, "clayton-mo")

    @property
    def theta_dim(self) -> int:
        if self.kind == "clayton-mo":
            return self.d + 1
        if self.kind == "hazard-rate":
            return 1
        return self.d

    def label(self) -> str:
        if self.kind == "t-gamma-normal":
            return f"t-gamma-normal(nu={self.nu:g}, d={self.d})"
        if self.kind == "clayton-mo":
            return f"clayton-mo(delta={self.delta:g}, d={self.d})"
        return f"{self.kind}(d={self.d})"


@dataclass(frozen=True)
class TiltedSample:
    """A batch of draws from Q_θ (rows) with their importance weights.

    ``x`` is the model-scale output: the uniforms themselves for
    ``trunc-exp-product`` and ``hazard-rate``, the normal vector for
    ``mvn-shift``, the t vector for ``t-gamma-normal``, and the copula-scale
    vector for ``clayton-mo``. ``stat`` holds the tilting statistic entering
    the weight, and ``log_lr`` is log dP/dQ_θ at each row.
    """

    x: np.ndarray
    stat: np.ndarray
    log_lr: np.ndarray


@dataclass(frozen=True)
class Pilot:
    """A frozen pilot: statistic rows and log weights of the event hits.

    ``size`` counts every draw of the pilot, ``hits`` only the rows kept;
    weighted averages over the hit rows divide by ``size``. ``log_weight`` is
    log dP/dQ at each hit under the proposal the pilot was drawn from.
    """

    stat: np.ndarray
    log_weight: np.ndarray
    size: int

    @property
    def hits(self) -> int:
        return len(self.log_weight)


@dataclass(frozen=True)
class TiltSolution:
    """Output of a tilt solver, with enough diagnostics to audit it.

    ``pre_levels`` holds the score level γ of each cross-entropy pre-tilt
    level, ending at 0; it is empty when no cross-entropy pre-tilt ran.
    """

    theta_o: np.ndarray
    method: str
    residual_norm: float
    iterations: int
    pilot_size: int
    pilot_hits: int
    G_hat_at_solution: float | None
    converged: bool
    reflected: bool = False
    pre_levels: tuple[float, ...] = ()

    def report(self) -> str:
        lines = [
            f"method: {self.method}",
            "theta_o: " + np.array2string(self.theta_o, precision=6, separator=", "),
            f"residual_norm: {self.residual_norm:.6e}",
            f"iterations: {self.iterations}",
            f"pilot: size={self.pilot_size} hits={self.pilot_hits}",
            f"converged: {self.converged}",
        ]
        if self.G_hat_at_solution is not None:
            lines.insert(2, f"G_hat: {self.G_hat_at_solution:.6e}")
        if self.pre_levels:
            lines.append(f"pre-tilt: levels={len(self.pre_levels)} "
                         f"last_gamma={self.pre_levels[-1]:.6g}")
        if self.reflected:
            lines.append("reflected: true")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# cumulant, gradient, Hessian


def _as_theta(f: TiltFamily, theta) -> np.ndarray:
    th = np.atleast_1d(np.asarray(theta, dtype=np.float64))
    if th.shape != (f.theta_dim,):
        raise ShapeError(f"tilt vector shape {th.shape} does not match {f.label()}")
    if not np.all(np.isfinite(th)):
        raise DomainError(f"tilt vector must be finite, got {th}")
    margin = _margin(f, th)
    if not margin > 0.0:
        raise DomainError(f"tilt {th} lies outside the domain of {f.label()}: "
                          f"its margin {margin:.6g} must be positive")
    return th


def _margin(f: TiltFamily, th: np.ndarray) -> float:
    """Positive exactly inside the domain of the cumulant: the t family's
    ellipsoid 1 + 2θ'a*/ν − θ'Σθ/ν, 1 − θ₀ for the families whose first
    coordinate twists a gamma or a hazard, and +inf for the others."""
    if f.kind == "t-gamma-normal":
        return 1.0 + 2.0 * (th @ f.a_star) / f.nu - (th @ f.sigma @ th) / f.nu
    if f.kind in ("clayton-mo", "hazard-rate"):
        return 1.0 - th[0]
    return np.inf


# the trunc-exp moments: a series for small |t|, a closed form elsewhere, each
# fed t only where it is used, so that huge tilts overflow nothing
def _psi_te(t: np.ndarray) -> np.ndarray:
    """ln((e^t - 1)/t) per component, accurate relative to its value for
    either sign and any magnitude."""
    t = np.asarray(t, dtype=np.float64)
    small = np.abs(t) < 1e-4
    ts, a = np.where(small, t, 0.0), np.where(small, 1.0, np.abs(t))
    series = ts / 2.0 + ts * ts / 24.0 - ts**4 / 2880.0
    # (e^t - 1)/t = e^{max(t, 0)} (1 - e^{-|t|})/|t|; no e^t to add back for t < 0
    tail, log_a = np.log1p(-np.exp(-a)), np.log(a)
    big = np.where(t > 0.0, a + tail - log_a, tail - log_a)
    return np.where(small, series, big)


def _dpsi_te(t: np.ndarray) -> np.ndarray:
    """Mean of the tilted uniform, e^t/(e^t - 1) - 1/t."""
    t = np.asarray(t, dtype=np.float64)
    small = np.abs(t) < 1e-4
    ts, tsafe = np.where(small, t, 0.0), np.where(small, 1.0, t)
    with np.errstate(over="ignore"):
        exact = 1.0 / (-np.expm1(-tsafe)) - 1.0 / tsafe
    series = 0.5 + ts / 12.0 - ts**3 / 720.0
    return np.where(small, series, exact)


def _d2psi_te(t: np.ndarray) -> np.ndarray:
    """Variance of the tilted uniform, 1/t^2 - e^t/(e^t - 1)^2."""
    t = np.asarray(t, dtype=np.float64)
    small = np.abs(t) < 0.05
    ts, tsafe = np.where(small, t, 0.0), np.where(small, 1.0, t)
    half = np.minimum(np.abs(tsafe) / 2.0, 400.0)
    with np.errstate(over="ignore"):
        exact = 1.0 / (tsafe * tsafe) - 1.0 / (4.0 * np.sinh(half) ** 2)
    series = 1.0 / 12.0 - ts * ts / 240.0 + ts**4 / 6048.0
    return np.where(small, series, exact)


def psi(f: TiltFamily, theta) -> float:
    """Cumulant of the tilting statistic; zero at the zero tilt."""
    th = _as_theta(f, theta)
    if f.kind == "trunc-exp-product":
        return float(np.sum(_psi_te(th)))
    if f.kind == "mvn-shift":
        return float(0.5 * th @ f.sigma @ th)
    if f.kind == "t-gamma-normal":
        return float(-(f.nu / 2.0) * np.log(_margin(f, th)))
    if f.kind == "clayton-mo":
        return float(-np.log1p(-th[0]) / f.delta + np.sum(_psi_te(th[1:])))
    return float(-f.d * np.log1p(-th[0]))


def _moments(f: TiltFamily, th: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of the cumulant at a tilt already checked to
    lie in its domain."""
    if f.kind == "trunc-exp-product":
        return _dpsi_te(th), np.diag(_d2psi_te(th))
    if f.kind == "mvn-shift":
        return f.sigma @ th, f.sigma.copy()
    if f.kind == "t-gamma-normal":
        margin = _margin(f, th)
        r = (f.sigma @ th - f.a_star) / margin
        return r, f.sigma / margin + (2.0 / f.nu) * np.outer(r, r)
    if f.kind == "clayton-mo":
        t, w = 1.0 - th[0], th[1:]
        return (np.concatenate(([1.0 / (f.delta * t)], _dpsi_te(w))),
                np.diag(np.concatenate(([1.0 / (f.delta * t ** 2)], _d2psi_te(w)))))
    t = 1.0 - th[0]
    return np.array([f.d / t]), np.array([[f.d / t ** 2]])


def grad_psi(f: TiltFamily, theta) -> np.ndarray:
    """Gradient of the cumulant, the tilted mean of the statistic."""
    return _moments(f, _as_theta(f, theta))[0]


def hess_psi(f: TiltFamily, theta) -> np.ndarray:
    """Hessian of the cumulant, the tilted covariance of the statistic."""
    return _moments(f, _as_theta(f, theta))[1]


# ---------------------------------------------------------------------------
# tilted sampling


def _trunc_exp_block(s: RngStream, th: np.ndarray, n: int) -> np.ndarray:
    """``n`` rows per stream of independent uniforms, column j tilted by ``th[j]``."""
    u = s.uniforms(n * len(th)).reshape(-1, len(th))
    if not th.any():
        return u  # what the inverse CDF returns at t = 0, bit for bit
    v = np.empty_like(u)
    for j, t in enumerate(th):
        v[:, j] = _trunc_exp_inverse_cdf(u[:, j], t)
    return v


def sample_tilted(f: TiltFamily, s: RngStream, theta, n: int = 1) -> TiltedSample:
    """Draw ``n`` rows from Q_θ per stream of the block ``s``, stream-major.

    At the zero tilt every family consumes the stream exactly like the
    matching crude sampler and reproduces its draws bit for bit, with all
    log likelihood ratios equal to zero.
    """
    th = _as_theta(f, theta)
    _check_size(n)

    if f.kind == "trunc-exp-product":
        x = stat = _trunc_exp_block(s, th, n)
    elif f.kind == "mvn-shift":
        x = stat = sample_mvn(s, f.sigma @ th, f.sigma, n)
    elif f.kind == "t-gamma-normal":
        rate = _margin(f, th) / 2.0
        y = sample_gamma(s, f.nu / 2.0, rate, n)
        z = sample_mvn(s, 0.0, f.sigma, n)
        r = np.sqrt(y / f.nu)
        z = z + r[:, None] * (f.sigma @ th)[None, :]
        stat = r[:, None] * z - (y / f.nu)[:, None] * f.a_star[None, :]
        x = z * np.sqrt(f.nu / y)[:, None]
    elif f.kind == "clayton-mo":
        w = sample_gamma(s, 1.0 / f.delta, 1.0 - th[0], n)
        v = _trunc_exp_block(s, th[1:], n)
        x = (1.0 - np.log(v) / w[:, None]) ** (-1.0 / f.delta)
        stat = np.column_stack([w, v])
    else:
        u = s.uniforms(n * f.d).reshape(-1, f.d)
        if th[0] == 0.0:
            v = u
        else:
            v = 1.0 - (1.0 - u) ** (1.0 / (1.0 - th[0]))
            v = np.minimum(v, 1.0 - 1e-16)
        stat = -np.sum(np.log1p(-v), axis=1)[:, None]
        x = v

    log_lr = psi(f, th) - _rows_times(stat, th)
    return TiltedSample(x=x, stat=stat, log_lr=log_lr)


# ---------------------------------------------------------------------------
# pilot machinery and the second-moment proxy


def draw_pilot(f: TiltFamily, indicator, s: RngStream, n: int, proposal_theta) -> Pilot:
    """Draw ``n`` rows from Q at ``proposal_theta`` and keep the event hits."""
    ts = sample_tilted(f, s, proposal_theta, n)
    keep = np.asarray(indicator(ts), dtype=bool)
    if keep.shape != (n,):
        raise ShapeError(f"indicator returned shape {keep.shape} for {n} draws")
    return Pilot(stat=ts.stat[keep], log_weight=ts.log_lr[keep], size=n)


def G_hat(f: TiltFamily, theta, pilot: Pilot) -> float:
    """Pilot average of 1{A} e^{−θ·T + ψ(θ)}, reweighted to the base measure.

    For a pilot drawn at the zero tilt the weights are all one and the value
    at θ = 0 is the pilot's empirical event probability.
    """
    th = _as_theta(f, theta)
    if pilot.size == 0 or pilot.hits == 0:
        raise DegeneratePilotError(
            f"pilot carries no event hits ({pilot.hits} of {pilot.size} draws)"
        )
    return float(np.exp(_log_g(f, th, pilot)))


def _log_g(f: TiltFamily, th: np.ndarray, pilot: Pilot) -> float:
    return float(
        psi(f, th)
        + _log_sum_exp(pilot.log_weight - pilot.stat @ th)
        - np.log(pilot.size)
    )


# max-shifted in plain numpy: scipy's logsumexp and softmax wrappers cost
# tens of µs per call even on one element, paid at every pre-tilt Newton step
def _log_sum_exp(x: np.ndarray) -> float:
    top = x.max()
    return top + np.log(np.sum(np.exp(x - top)))


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max())
    return e / e.sum()


def first_order_gap(f: TiltFamily, theta, pilot: Pilot) -> tuple[np.ndarray, np.ndarray]:
    """Optimality-condition gap on a pilot, with its standard errors.

    Returns ``lhs − rhs`` where the left side is the self-normalized pilot
    estimate of the event-conditional statistic mean under the conjugate
    measure at ``theta`` and the right side is the cumulant gradient, along
    with a componentwise standard error for the left side.
    """
    th = _as_theta(f, theta)
    if pilot.hits == 0:
        raise DegeneratePilotError("pilot carries no event hits")
    p = _softmax(pilot.log_weight - pilot.stat @ th)
    lhs = p @ pilot.stat
    centered = pilot.stat - lhs[None, :]
    se = np.sqrt((p * p) @ (centered * centered))
    return lhs - grad_psi(f, th), se


# ---------------------------------------------------------------------------
# cross-entropy pre-tilt. Level k draws rows at the current tilt, sets γ_k to
# the upper-ρ quantile of the score (capped at 0) and refits the tilt to the
# likelihood-weighted mean of the statistic over the rows scoring ≥ γ_k; the
# level with γ = 0 refits on the event itself. For an exponential family that
# refit is the moment match ∇ψ(θ) = m, and ψ(θ) − θ·m is log Ĝ of a one-row
# pilot at stat = m, so the pilot's own damped Newton solves it from θ = 0.


def _match_mean(f: TiltFamily, m: np.ndarray) -> np.ndarray:
    """Solve grad_psi(θ) = m for θ, the moment-matching pre-tilt."""
    pilot = Pilot(stat=m[None, :], log_weight=np.zeros(1), size=1)
    return _newton_minimize_log_g(f, pilot, np.zeros(f.theta_dim))[0]


def _cross_entropy_pre_tilt(
    f: TiltFamily, score, s: RngStream
) -> tuple[np.ndarray, tuple[float, ...]]:
    """Cross-entropy levels from θ = 0 up to the event {score > 0}.

    Returns the tilt refitted at the level γ = 0 and the γ of every level.
    Rows whose score is NaN count as misses. Raises
    :class:`DegeneratePilotError` when γ is no higher than two levels back,
    or no row has a score, or the level cap is reached below 0.
    """
    theta = np.zeros(f.theta_dim)
    gammas: list[float] = []
    for level in range(1, _CE_MAX_LEVELS + 1):
        ts = sample_tilted(f, s, theta, _CE_ROWS)
        sc = np.asarray(score(ts), dtype=np.float64)
        if sc.shape != (_CE_ROWS,):
            raise ShapeError(f"score returned shape {sc.shape} for {_CE_ROWS} draws")
        gamma = min(float(np.nanquantile(sc, 1.0 - _CE_RHO)), 0.0)
        if np.isnan(gamma) or (level > 2 and gamma <= gammas[-2]):
            raise DegeneratePilotError(
                f"cross-entropy pre-tilt stalled at level {level}: gamma {gamma:.6g} "
                f"after {', '.join(f'{g:.6g}' for g in gammas[-2:]) or 'none'}"
            )
        gammas.append(gamma)
        elite = sc >= gamma
        m = _softmax(ts.log_lr[elite]) @ ts.stat[elite]
        theta = _match_mean(f, m)
        if gamma == 0.0:
            return theta, tuple(gammas)
    raise DegeneratePilotError(
        f"cross-entropy pre-tilt reached its cap of {_CE_MAX_LEVELS} levels "
        f"at level {_CE_MAX_LEVELS} with gamma {gammas[-1]:.6g}"
    )


# ---------------------------------------------------------------------------
# sample-average-approximation solver


def _fraction_to_boundary(f: TiltFamily, th: np.ndarray, step: np.ndarray) -> float:
    """Largest multiple of ``step`` from ``th`` staying inside the domain."""
    if f.kind == "t-gamma-normal":
        c2 = -(step @ f.sigma @ step) / f.nu
        c1 = 2.0 * (step @ (f.a_star - f.sigma @ th)) / f.nu
        c0 = _margin(f, th)
        if c2 >= -1e-300:
            return np.inf if c1 >= 0 else -c0 / c1
        disc = c1 * c1 - 4.0 * c2 * c0
        return (-c1 - np.sqrt(disc)) / (2.0 * c2)
    if f.kind in ("clayton-mo", "hazard-rate") and step[0] > 0.0:
        return (1.0 - th[0]) / step[0]
    return np.inf


def _newton_minimize_log_g(
    f: TiltFamily, pilot: Pilot, theta0: np.ndarray
) -> tuple[np.ndarray, float, int, bool]:
    """Damped Newton descent of log Ĝ from ``theta0``, at most
    ``_NEWTON_MAX_ITERS`` steps.

    Returns (theta, gradient norm of log Ĝ, iterations, converged). The
    surface is convex, so the Hessian only needs jitter against roundoff.
    """
    stat = pilot.stat
    lw = pilot.log_weight
    th = theta0.astype(np.float64).copy()
    fval = _log_g(f, th, pilot)
    for it in range(_NEWTON_MAX_ITERS + 1):
        p = _softmax(lw - stat @ th)
        mu = p @ stat
        dpsi, d2psi = _moments(f, th)
        g = dpsi - mu
        gnorm = float(np.linalg.norm(g))
        if gnorm <= _NEWTON_TOL or it == _NEWTON_MAX_ITERS:
            return th, gnorm, it, gnorm <= _NEWTON_TOL
        cov = (stat * p[:, None]).T @ stat - np.outer(mu, mu)
        H = d2psi + 0.5 * (cov + cov.T)
        jitter = 0.0
        while True:
            try:
                d = np.linalg.solve(H + jitter * np.eye(len(th)), -g)
                if np.all(np.isfinite(d)):
                    break
            except np.linalg.LinAlgError:
                pass
            jitter = max(jitter * 100.0, 1e-10 * max(np.trace(H), 1.0))
            if jitter > 1e6 * max(np.trace(H), 1.0):
                return th, gnorm, it + 1, False
        step = min(1.0, 0.95 * _fraction_to_boundary(f, th, d))
        slope = float(g @ d)
        while step > 1e-14:
            trial = th + step * d
            tval = _log_g(f, trial, pilot)
            if tval <= fval + 1e-4 * step * slope:
                th, fval = trial, tval
                break
            step /= 2.0
        else:
            return th, gnorm, it + 1, False


def solve_theta_saa(f: TiltFamily, indicator, s: RngStream, score) -> TiltSolution:
    """Minimize the pilot estimate of the second-moment proxy G.

    The pilot proposal comes from a cross-entropy pre-tilt on ``score``, a
    function of a :class:`TiltedSample` giving one float per row, positive
    exactly where ``indicator`` is true. Starting at θ = 0, each level draws
    2,000 rows from ``s``, sets γ to the upper 0.1 quantile of the score,
    capped at 0, and refits the tilt to the likelihood-weighted mean of the
    statistic over the rows scoring ≥ γ, by the same damped Newton run on a
    one-row pilot; the levels stop at γ = 0. A γ no higher than two levels
    back, or 40 levels, raises :class:`DegeneratePilotError` naming the
    level. The pilot is one draw of 20,000 rows at the pre-tilt; fewer than
    200 hits raises :class:`DegeneratePilotError`. Damped Newton then
    descends log Ĝ from the pre-tilt, for at most 100 steps, until the
    gradient norm of log Ĝ, a tolerance relative to Ĝ, is at most 1e-6.

    ``indicator`` receives a :class:`TiltedSample` and must return one
    boolean per row; it should already describe an upper-corner event, with
    any reflection applied, and recorded on the solution, by the caller.
    """
    theta_hat, levels = _cross_entropy_pre_tilt(f, score, s)
    pilot = draw_pilot(f, indicator, s, _N_PILOT, theta_hat)
    if pilot.hits < _PILOT_MIN_HITS:
        raise DegeneratePilotError(
            f"pilot proposal produced {pilot.hits} event hits of {pilot.size} draws, "
            f"below the required {_PILOT_MIN_HITS}"
        )
    theta, gnorm, iters, converged = _newton_minimize_log_g(f, pilot, theta_hat)
    g_val = float(np.exp(_log_g(f, theta, pilot)))
    return TiltSolution(theta_o=theta, method="saa", residual_norm=gnorm * g_val,
                        iterations=iters, pilot_size=pilot.size, pilot_hits=pilot.hits,
                        G_hat_at_solution=g_val, converged=converged, pre_levels=levels)


def solve_hrt_theta(f: TiltFamily, indicator, s: RngStream, score) -> TiltSolution:
    """Minimize the pilot second-moment proxy over the scalar twist in [0, 1).

    The hazard twist is the one-parameter case of :func:`solve_theta_saa`,
    which does the work, cross-entropy pre-tilt on ``score`` included; the
    levels may pass through negative twists. The solution is labelled
    ``"hrt"``. Ĝ is convex, so when Newton's minimum lies below 0 the
    minimum over [0, 1) is at 0 and the twist is projected there.
    ``G_hat_at_solution`` and ``residual_norm`` are then still those at
    Newton's minimum, not at 0.
    """
    if f.kind != "hazard-rate":
        raise ParameterError(f"hazard twist solver applies to hazard-rate, not {f.kind}")
    sol = solve_theta_saa(f, indicator, s, score)
    return replace(sol, theta_o=np.maximum(sol.theta_o, 0.0), method="hrt")


# ---------------------------------------------------------------------------
# Gaussian corner: closed-form moment and deterministic Newton


def _check_correlation(sigma) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=np.float64)
    d = sigma.shape[0]
    if not 1 <= d <= 4:
        raise ShapeError(f"need a square matrix of dimension 1..4, got shape {sigma.shape}")
    return _check_sigma(sigma, d, unit_diag=True)


def _norm_pdf(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * x * x) / _SQRT_2PI


def truncated_mvn_first_moment(sigma, lower, theta) -> np.ndarray:
    """E[V | V > lower] componentwise for V ~ MN(−Σθ, Σ).

    Uses the closed-form first moment of a truncated centered normal: each
    coordinate contributes a normal density at its shifted threshold times
    the survival probability of the remaining coordinates conditioned on
    that threshold, from the rectangle oracle. Dimensions up to four are
    supported.
    """
    sigma = _check_correlation(sigma)
    d = sigma.shape[0]
    lower = np.broadcast_to(np.asarray(lower, dtype=np.float64), (d,))
    th = np.broadcast_to(np.asarray(theta, dtype=np.float64), (d,))
    shift = sigma @ th
    b = lower + shift
    den = rect_prob_gaussian(sigma, b, "upper")
    if not den > 0.0:
        raise SolverError(f"survival probability underflowed at thresholds {b}")
    w = np.empty(d)
    for q in range(d):
        rest = [i for i in range(d) if i != q]
        r = sigma[rest, q]
        scale = np.sqrt(1.0 - r * r)
        corr = (sigma[np.ix_(rest, rest)] - np.outer(r, r)) / np.outer(scale, scale)
        np.fill_diagonal(corr, 1.0)
        surv = rect_prob_gaussian(corr, (b[rest] - r * b[q]) / scale, "upper") if rest else 1.0
        w[q] = float(_norm_pdf(b[q])) * surv
    return sigma @ w / den - shift


def solve_theta_gaussian_tallis(sigma, a_star) -> TiltSolution:
    """Solve the Gaussian upper-corner optimality condition deterministically.

    The condition equates the event-conditional mean under the conjugate
    shifted normal with Σθ. Damped Newton on that residual with a central
    finite-difference Jacobian converges in a handful of steps; a solve
    whose damped step no longer lowers the residual is returned with
    ``converged=False``.
    """
    sigma = _check_correlation(sigma)
    d = sigma.shape[0]
    a = np.broadcast_to(np.asarray(a_star, dtype=np.float64), (d,)).copy()

    def resid(th: np.ndarray) -> np.ndarray:
        return truncated_mvn_first_moment(sigma, a, th) - sigma @ th

    theta = np.linalg.solve(sigma, a)
    r = resid(theta)
    rnorm = float(np.linalg.norm(r))
    iters = 0
    while rnorm > _TALLIS_TOL and iters < _TALLIS_MAX_ITERS:
        J = np.empty((d, d))
        for j in range(d):
            h = 1e-6 * (1.0 + abs(theta[j]))
            e = np.zeros(d)
            e[j] = h
            J[:, j] = (resid(theta + e) - resid(theta - e)) / (2.0 * h)
        try:
            step = np.linalg.solve(J, -r)
        except np.linalg.LinAlgError:
            break
        iters += 1
        for lam in 0.5 ** np.arange(27):  # 1 down to 1.5e-8
            trial = theta + lam * step
            rt = resid(trial)
            if np.linalg.norm(rt) < rnorm:
                theta, r, rnorm = trial, rt, float(np.linalg.norm(rt))
                break
        else:
            break

    g_exact = float(np.exp(theta @ sigma @ theta) * rect_prob_gaussian(sigma, a + sigma @ theta))
    return TiltSolution(
        theta_o=theta,
        method="tallis-newton",
        residual_norm=rnorm,
        iterations=iters,
        pilot_size=0,
        pilot_hits=0,
        G_hat_at_solution=g_exact,
        converged=rnorm <= _TALLIS_TOL,
    )


# ---------------------------------------------------------------------------
# large-deviation tilt for the t family


def solve_theta_large_deviation(f: TiltFamily) -> TiltSolution:
    """Minimize the t family's cumulant over the nonnegative orthant.

    The cumulant decreases with the ellipsoid margin, so this is the
    quadratic program min ½θ'Σθ − θ'a* subject to θ ≥ 0. With Σ = LLᵀ that is
    the non-negative least-squares problem min ‖Lᵀθ − L⁻¹a*‖, one call to
    scipy's active-set ``nnls`` in any dimension (Lawson & Hanson 1974,
    ch. 23); an ``nnls`` that stops at its iteration cap raises
    :class:`SolverError`. ``residual_norm`` is the KKT violation
    ‖min(θ, Σθ − a*)‖∞, and the solve converged when it is at most
    1e-10 (1 + max a*). With Σ equal to the identity the answer is a* itself.
    """
    if f.kind != "t-gamma-normal":
        raise ParameterError(f"large-deviation tilt applies to t-gamma-normal, not {f.kind}")
    a = f.a_star
    if np.any(a <= 0.0):
        raise DomainError(f"corner must be componentwise positive, got {a}")
    L = _cholesky(f.sigma)
    b = solve_triangular(L, a, lower=True)
    try:
        theta = nnls(L.T, b)[0]
    except RuntimeError as exc:
        raise SolverError(f"non-negative least squares for the large-deviation tilt "
                          f"failed: {exc}") from exc
    resid = float(np.linalg.norm(np.minimum(theta, f.sigma @ theta - a), np.inf))
    return TiltSolution(theta_o=theta, method="large-deviation", residual_norm=resid,
                        iterations=1, pilot_size=0, pilot_hits=0, G_hat_at_solution=None,
                        converged=resid <= _LD_TOL * (1.0 + a.max()))
