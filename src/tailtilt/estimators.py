"""Corner-probability estimators and the replication engine.

A corner event is estimated by one of five methods. ``naive``, the crude
estimator, is ``is-t1`` at the zero tilt on every model. ``is-t1`` tilts
the uniform block feeding the conditional-inverse sampler with a product of
truncated exponentials, which works for every model including vines.
``is-t2`` tilts the model's own latent representation (mean shift for the
Gaussian copula, the gamma-normal pair for the t copula, the frailty
construction for Clayton). ``is-t3`` twists the hazard of each uniform
with one shared scalar. ``is-ld`` samples the t family at its
large-deviation point. Every method runs through :func:`replicate`.

Each importance-sampling method also has a continuous score per row whose
event is {score > 0}: the smallest distance inside the corner over the
coordinates, min(u − u0) on the copula scale after the inverse map for
is-t1 and is-t3 (u0 − u for a lower corner, with the is-t3 reflection
applied first), min(x − a) for the Gaussian, min(stat) for the t family and
min(x − u0) for Clayton. The pilot solvers' cross-entropy pre-tilt climbs
towards the event on it. IEEE subtraction keeps the sign, so the
latent-family indicators are the score test itself, bit for bit.

The is-t1 and is-t3 indicators, the crude estimate's among them, map only
the rows that can still reach the corner: on every model, column k + 1 is
mapped only on the rows whose columns 1..k lie inside it. The scores map
every row.

Every method draws replication r from ``make_stream(seed, r)``. A block of
consecutive replications is one function call: it draws from the block of
their streams and tests the event once on all their rows, and each
replication's estimate is the mean of its own rows, so results are
bit-identical for any block size and thread count.
With the tilt vector at zero the importance samplers draw their family's
base measure bit for bit: is-t1 and is-t3 the conditional-inverse chain,
which is the crude estimate, and is-t2 the latent construction of
``sample_copula_uniforms(..., "direct")``.

Lower corners reuse the upper-corner machinery. The trunc-exp family simply
tilts toward zero (its tilt space is two-sided), the hazard twist feeds
reflected uniforms through the inverse map, and the elliptical families
solve the mirrored corner at the negated threshold, which has the same
probability by symmetry. Mirrored constructions are recorded on the
solution's ``reflected`` flag. The frailty tilt covers upper corners only.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .copulas import (
    CopulaSpec,
    CornerEvent,
    RVineSpec,
    event_uniform_thresholds,
    latent_thresholds,
    rosenblatt_inverse,
    sample_copula_uniforms,  # unused; perfbench's traced run wraps it as a span boundary
    sample_vine_uniforms,  # unused; perfbench's traced run wraps it as a span boundary
    vine_rosenblatt_inverse,
)
from .errors import ConfigError, DomainError, ParameterError, SolverError
from .randkit import make_stream
from .tilting import (
    TiltFamily,
    TiltSolution,
    psi,
    sample_tilted,
    solve_hrt_theta,
    solve_theta_gaussian_tallis,
    solve_theta_large_deviation,
    solve_theta_saa,
)

__all__ = [
    "ExperimentConfig",
    "EstimateResult",
    "replicate",
    "solve_event_theta",
    "sd_eff",
    "wnrv",
    "SOLVER_STREAM",
]

_METHODS = ("naive", "is-t1", "is-t2", "is-t3", "is-ld")

# stream id reserved for solver pilots, far above any sane replication count
SOLVER_STREAM = 999_983


@dataclass(frozen=True)
class ExperimentConfig:
    """One estimation task: model, corner event, method, and budget.

    ``theta`` is the tilt to use; leave it None to have :func:`replicate`
    solve for it, and refuse a solve that did not converge. The crude
    estimator takes no tilt: it is is-t1 at the zero tilt, on the
    conditional-inverse chain of every model. A solved run takes at most
    ``SOLVER_STREAM`` replications, so that none of them draws from the
    solver's stream. ``seed`` lies in [0, 2^64), the key space of the
    streams, so that no two seeds draw the same words.
    """

    model: CopulaSpec | RVineSpec
    event: CornerEvent
    method: str = "naive"
    n: int = 500
    M: int = 5000
    seed: int = 0
    theta: object = None

    def __post_init__(self):
        if not isinstance(self.model, (CopulaSpec, RVineSpec)):
            raise ConfigError("model must be a CopulaSpec or RVineSpec, "
                              f"got {type(self.model).__name__}")
        if not isinstance(self.event, CornerEvent):
            raise ConfigError(f"event must be a CornerEvent, got {type(self.event).__name__}")
        if self.method not in _METHODS:
            raise ConfigError(f"unknown method {self.method!r}; choose one of {_METHODS}")
        if self.method == "naive" and self.theta is not None:
            raise ConfigError("the crude estimator uses no tilt; leave theta unset")
        for name, v in (("n", self.n), ("M", self.M), ("seed", self.seed)):
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {v!r}")
        if self.n < 1 or self.M < 1:
            raise ConfigError(f"need n >= 1 and M >= 1, got n={self.n}, M={self.M}")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.theta is None and self.method != "naive" and self.M > SOLVER_STREAM:
            raise ConfigError(f"a solved run takes at most {SOLVER_STREAM} replications, "
                              f"got M={self.M}: replication {SOLVER_STREAM} would draw from "
                              "the solver's stream; give theta to run more")
        try:
            np.asarray(0.0 if self.theta is None else self.theta, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"theta must be a number or a list of numbers: {exc}") from exc


@dataclass(frozen=True)
class EstimateResult:
    """Aggregated estimate with its replication spread and timing.

    ``sd`` is the standard deviation of the M per-replication estimates;
    with a single replication it falls back to the within-run standard
    error and ``sd_within_run`` is set. ``se`` is the standard error of
    ``u_hat``, sd/√M. ``seconds`` times the replications only and
    ``solve_seconds`` the tilt solve :func:`replicate` ran, 0.0 when it ran
    none. ``theta`` is the tilt the replications sampled at, solved or
    given, and None for the crude estimator. ``wnrv`` uses the estimate
    itself as reference; :func:`wnrv` computes it against any other.
    """

    u_hat: float
    sd: float
    n: int
    reps: int
    seconds: float
    wnrv: float | None
    method: str
    sd_within_run: bool = False
    solve_seconds: float = 0.0
    theta: tuple[float, ...] | None = None

    @property
    def se(self) -> float:
        return self.sd / float(np.sqrt(self.reps))


@dataclass(frozen=True)
class _Plan:
    family: TiltFamily
    indicator: object
    score: object
    reflected: bool


def _row_min(a: np.ndarray) -> np.ndarray:
    """``a.min(axis=1)``, taken column by column: on a few columns numpy
    does that in a third of the time of the axis reduction."""
    out = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        np.minimum(out, a[:, j], out=out)
    return out


def _corner_score(u: np.ndarray, u0: np.ndarray, direction: str) -> np.ndarray:
    """Per row, how far inside the corner its nearest coordinate lies;
    positive exactly where every coordinate lies inside it."""
    return _row_min(u - u0 if direction == "upper" else u0 - u)


def _chain_hits(model, v: np.ndarray, u0: np.ndarray, direction: str) -> np.ndarray:
    """``_corner_score(x, u0, direction) > 0`` for x the model's inverse
    Rosenblatt map of v, mapping column k + 1 only on the rows inside the
    corner on columns 1..k: a hit is a row kept through the last column."""
    upper = direction == "upper"

    def keep(k, xk):
        return xk > u0[k - 1] if upper else xk < u0[k - 1]

    rinv = vine_rosenblatt_inverse if isinstance(model, RVineSpec) else rosenblatt_inverse
    return keep(model.d, rinv(model, v, keep)[:, -1])


def _score_plan(f: TiltFamily, score, reflected: bool) -> _Plan:
    return _Plan(f, lambda ts: score(ts) > 0.0, score, reflected)


def _plan_for(cfg: ExperimentConfig) -> _Plan:
    """Tilting family, event indicator and score for a method; the crude
    estimator takes is-t1's."""
    model, ev = cfg.model, cfg.event
    u0 = event_uniform_thresholds(model, ev)
    d = model.d
    lower = ev.direction == "lower"

    if cfg.method in ("naive", "is-t1", "is-t3"):
        # the hazard twist is solved over [0, 1), which pushes mass toward 1,
        # so it meets a lower corner through reflected uniforms
        t3 = cfg.method == "is-t3"
        f = TiltFamily("hazard-rate" if t3 else "trunc-exp-product", d)
        reflect = t3 and lower
        rinv = vine_rosenblatt_inverse if isinstance(model, RVineSpec) else rosenblatt_inverse

        def rows(ts):
            return 1.0 - ts.x if reflect else ts.x

        def indicator(ts):
            return _chain_hits(model, rows(ts), u0, ev.direction)

        def score(ts):
            return _corner_score(rinv(model, rows(ts)), u0, ev.direction)

        return _Plan(f, indicator, score, reflect)

    if isinstance(model, RVineSpec):
        raise ConfigError(f"{cfg.method} tilts a parametric copula family; vines support "
                          "is-t1 and is-t3 through the conditional-inverse route")
    if cfg.method == "is-ld" and model.family != "student-t":
        raise ConfigError("the large-deviation tilt is defined for the t copula only")

    a = latent_thresholds(model, ev)
    corner = -a if lower else a
    if model.family == "gaussian":
        f = TiltFamily("mvn-shift", d, sigma=model.sigma, a_star=corner)
        return _score_plan(f, lambda ts: _row_min(ts.x - corner), lower)

    if model.family == "student-t":
        f = TiltFamily("t-gamma-normal", d, sigma=model.sigma, nu=model.nu, a_star=corner)
        return _score_plan(f, lambda ts: _row_min(ts.stat), lower)

    if lower:
        raise ConfigError("the frailty tilt covers upper corners only; "
                          "use is-t1 or is-t3 for a lower corner")
    return _score_plan(TiltFamily("clayton-mo", d, delta=model.delta),
                       lambda ts: _row_min(ts.x - u0), False)


def solve_event_theta(cfg: ExperimentConfig, *, solver: str | None = None) -> TiltSolution:
    """Solve for the method's tilt on this model and event.

    The default picks the deterministic closed-form solver for bivariate
    Gaussian corners under is-t2, the large-deviation point for is-ld, and
    otherwise the pilot solver: a cross-entropy pre-tilt on the plan's score,
    then damped Newton on the pilot estimate of the second moment, which for
    is-t3 runs over the scalar hazard twist. Pass
    ``solver="saa"`` to force the pilot solver, or ``solver="tallis"`` to
    insist on the closed-form one; a solver that does not fit the method
    raises :class:`ConfigError`. The pre-tilt and the pilot are drawn from
    ``make_stream(cfg.seed, SOLVER_STREAM)``.
    """
    if cfg.method == "naive":
        raise ConfigError("the crude estimator uses no tilt")
    plan = _plan_for(cfg)
    model = cfg.model
    gaussian = cfg.method == "is-t2" and model.family == "gaussian"
    fits = {None: True, "saa": cfg.method != "is-ld", "tallis": gaussian}
    if not fits.get(solver, False):
        raise ConfigError(f"solver {solver!r} does not apply to {cfg.method} here: 'saa' "
                          "fits every method but is-ld, 'tallis' Gaussian corners under is-t2")

    if cfg.method == "is-ld":
        sol = solve_theta_large_deviation(plan.family)
    elif solver == "tallis" or (solver is None and gaussian and model.d <= 2):
        sol = solve_theta_gaussian_tallis(plan.family.sigma, plan.family.a_star)
    else:
        solve = solve_hrt_theta if cfg.method == "is-t3" else solve_theta_saa
        sol = solve(plan.family, plan.indicator, make_stream(cfg.seed, SOLVER_STREAM),
                    plan.score)
    return replace(sol, reflected=plan.reflected)


def _resolve_theta(cfg: ExperimentConfig, plan: _Plan) -> tuple[np.ndarray, float]:
    """The tilt to sample at and the seconds spent solving for it; a solve
    that did not converge raises :class:`SolverError`."""
    if cfg.method == "naive":
        return np.zeros(cfg.model.d), 0.0
    if cfg.theta is None:
        t0 = time.perf_counter()
        sol = solve_event_theta(cfg)
        seconds = time.perf_counter() - t0
        if not sol.converged:
            raise SolverError(f"tilt solver did not converge:\n{sol.report()}")
        return np.atleast_1d(np.asarray(sol.theta_o, dtype=np.float64)), seconds
    th = np.atleast_1d(np.asarray(cfg.theta, dtype=np.float64))
    with np.errstate(over="ignore"):
        log_mgf = psi(plan.family, th)  # validates shape and domain
    if not np.isfinite(log_mgf):
        raise DomainError(f"the cumulant of {plan.family.label()} is not finite at tilt {th}")
    if cfg.method == "is-t3" and th[0] < 0.0:
        raise DomainError(f"hazard twist must lie in [0, 1), got {th[0]:.6g}")
    return th, 0.0


_BLOCK_ROWS = 3072  # rows per block of replications, chosen by measurement


def replicate(cfg: ExperimentConfig, *, threads: int = 1) -> EstimateResult:
    """Run M independent replications and aggregate them.

    Replication r draws from ``make_stream(cfg.seed, r)``. For every
    method, the crude one at is-t1's zero tilt, a block of about
    ``_BLOCK_ROWS`` rows of consecutive replications is one
    ``sample_tilted`` call on the block of their streams and one event test
    on all their rows. Each replication's estimate is the mean of its own n
    terms, so the result is bit-identical for any block size and
    ``threads``; more than one thread spreads the blocks over a pool.
    Solving for the tilt, when ``cfg.theta`` is None, happens before the
    clock starts and is timed on its own as ``solve_seconds``; a solve that
    did not converge raises :class:`SolverError` carrying the solver's
    report, and nothing is sampled.
    """
    if isinstance(threads, bool) or not isinstance(threads, (int, np.integer)) or threads < 1:
        raise ParameterError(f"thread count must be an integer of at least 1, got {threads!r}")
    plan = _plan_for(cfg)
    theta, solve_seconds = _resolve_theta(cfg, plan)

    M, n = cfg.M, cfg.n
    B = max(1, _BLOCK_ROWS // n)
    est = np.empty(M)

    def run(r0: int) -> np.ndarray:
        rs = range(r0, min(r0 + B, M))
        ts = sample_tilted(plan.family, make_stream(cfg.seed, rs), theta, n)
        terms = plan.indicator(ts) * np.exp(ts.log_lr)
        est[rs.start:rs.stop] = terms.reshape(len(rs), n).mean(axis=1)
        return terms

    t0 = time.perf_counter()
    if threads == 1 or M <= B:
        for r0 in range(0, M, B):
            terms = run(r0)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for _ in pool.map(run, range(0, M, B)):
                pass
    seconds = time.perf_counter() - t0

    u_hat = float(est.mean())
    if M > 1:
        sd = float(est.std(ddof=1))
        sd_within = False
    else:
        sd = float(terms.std() / np.sqrt(cfg.n))
        sd_within = True
    wn = (sd * sd / (u_hat * u_hat)) * (seconds / M) if u_hat > 0.0 else None
    return EstimateResult(u_hat=u_hat, sd=sd, n=cfg.n, reps=M, seconds=seconds,
                          wnrv=wn, method=cfg.method, sd_within_run=sd_within,
                          solve_seconds=solve_seconds,
                          theta=None if cfg.method == "naive" else tuple(map(float, theta)))


def sd_eff(a: EstimateResult, b: EstimateResult) -> float:
    """Spread ratio sd(a)/sd(b), the variance-reduction factor of b over a."""
    if not b.sd > 0.0:
        raise ParameterError("reference estimator has zero spread")
    return a.sd / b.sd


def wnrv(r: EstimateResult, u_ref: float) -> float:
    """Work-normalized relative variance against a reference probability."""
    if not u_ref > 0.0:
        raise ParameterError(f"reference probability must be positive, got {u_ref}")
    return (r.sd * r.sd / (u_ref * u_ref)) * (r.seconds / r.reps)
