"""Spans around the calls from one layer of tailtilt into another.

The traced run wraps a fixed set of public functions at the module
attribute through which their callers reach them (for example
``estimators.sample_tilted``, which ``replicate`` calls once per
replication). Each wrapper records a span: name, start, end, parent span
and cell id. Spans stay in memory until the run writes them out. The
wrappers only pass arguments through, so every estimate is bit-identical
with and without them; the run checks that.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from tailtilt import estimators, tilting

# (module, attribute, span name): the boundaries the traced run records
BOUNDARIES = (
    (estimators, "make_stream", "randkit.make_stream"),
    (estimators, "sample_tilted", "tilting.sample_tilted"),
    (estimators, "rosenblatt_inverse", "models.rosenblatt_inverse"),
    (estimators, "vine_rosenblatt_inverse", "vines.vine_rosenblatt_inverse"),
    (estimators, "sample_copula_uniforms", "models.sample_copula_uniforms"),
    (estimators, "sample_vine_uniforms", "vines.sample_vine_uniforms"),
    (estimators, "solve_theta_saa", "tilting.solve_theta_saa"),
    (estimators, "solve_hrt_theta", "tilting.solve_hrt_theta"),
    (estimators, "solve_theta_gaussian_tallis", "tilting.solve_theta_gaussian_tallis"),
    (estimators, "solve_theta_large_deviation", "tilting.solve_theta_large_deviation"),
    (tilting, "sample_tilted", "tilting.sample_tilted"),
    (tilting, "draw_pilot", "tilting.draw_pilot"),
    (tilting, "rect_prob_gaussian", "oracle.rect_prob_gaussian"),
)

# the pilot solvers: they take their random stream as third positional
# argument and return a ``TiltSolution`` (``solve_hrt_theta`` returns
# ``(theta, solution)``)
_PILOT_SOLVERS = {"tilting.solve_theta_saa", "tilting.solve_hrt_theta"}
# the one pilot solver whose stage after the pilot is Newton's method
_NEWTON = "tilting.solve_theta_saa"

# a span is a list: [name, start, end, parent index, cell id, stream words,
# solver iterations, pilot hits]; the last three are set on pilot-solver
# spans only, the last two only when the solve returned
NAME, START, END, PARENT, CELL, WORDS, ITERS, HITS = range(8)
FIELDS = ("name", "start", "end", "parent", "cell", "words", "iters", "hits")


class Tracer:
    """Collects spans in memory; spans nest by a stack."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.cell: str | None = None

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.cell,
               None, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    @contextmanager
    def boundaries(self):
        """Wrap every boundary in ``BOUNDARIES`` for the duration of the block."""
        missing = [f"{mod.__name__}.{attr}" for mod, attr, _ in BOUNDARIES
                   if not hasattr(mod, attr)]
        if missing:
            # a boundary that moved would silently fold its time into its caller's
            raise RuntimeError("traced boundaries not found: " + ", ".join(missing))
        saved = []
        for mod, attr, name in BOUNDARIES:
            orig = getattr(mod, attr)
            saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, name))
        try:
            yield self
        finally:
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    def _wrap(self, fn, name: str):
        open_, close = self._open, self._close
        solver = name in _PILOT_SOLVERS

        def wrapper(*args, **kwargs):
            rec = open_(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                close(rec)
                if solver:
                    rec[WORDS] = int(args[2].position)
            if solver:
                sol = out[-1] if isinstance(out, tuple) else out
                rec[ITERS], rec[HITS] = sol.iterations, sol.pilot_hits
            return out

        return wrapper


class NullTracer:
    """Stands in for ``Tracer`` in untraced passes; records nothing."""

    cell: str | None = None

    @contextmanager
    def span(self, name: str):
        yield None


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per span name, less the time its child spans cover."""
    child = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] += s[END] - s[START]
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        out[s[NAME]] += s[END] - s[START] - child[i]
    return dict(out)


def layer_self_times(spans: list[list]) -> dict[str, float]:
    """Self seconds summed by layer, the span name's part before the first dot."""
    out: dict[str, float] = defaultdict(float)
    for name, sec in self_times(spans).items():
        out[name.split(".", 1)[0]] += sec
    return dict(out)


def replicate_self(spans: list[list], cost: float) -> float:
    """Seconds inside ``replicate`` spans outside their child spans, less the
    ``cost`` each child's wrapper adds."""
    reps = {i for i, s in enumerate(spans) if s[NAME] == "estimators.replicate"}
    kids = sum(1 for s in spans if s[PARENT] in reps)
    return self_times(spans).get("estimators.replicate", 0.0) - kids * cost


def solver_split(spans: list[list]) -> dict[str, float]:
    """Stages and counts of the pilot solvers' solves.

    Within one solve, the pre-stage runs from its start to the first pilot
    draw and the pilot is every ``draw_pilot`` span; a solve that draws no
    pilot is all pre-stage. ``prestage_s``, ``pilot_s``, ``words`` (stream
    words, failed solves included) and ``hits`` (pilot hits) sum over both
    pilot solvers. ``newton_s`` (from the end of the last pilot draw to the
    end of the solve) and ``newton_iters`` count ``solve_theta_saa`` only:
    after its pilot, ``solve_hrt_theta`` runs a bounded scalar minimiser.
    """
    out = {"prestage_s": 0.0, "pilot_s": 0.0, "newton_s": 0.0, "words": 0, "hits": 0,
           "newton_iters": 0}
    pilots = defaultdict(list)
    for s in spans:
        if s[NAME] == "tilting.draw_pilot" and s[PARENT] is not None:
            pilots[s[PARENT]].append(s)
    for i, s in enumerate(spans):
        if s[NAME] not in _PILOT_SOLVERS:
            continue
        out["words"] += s[WORDS]
        out["hits"] += s[HITS] or 0
        if s[NAME] == _NEWTON:
            out["newton_iters"] += s[ITERS] or 0
        mine = pilots.get(i)
        if not mine:
            out["prestage_s"] += s[END] - s[START]
            continue
        out["prestage_s"] += mine[0][START] - s[START]
        out["pilot_s"] += sum(p[END] - p[START] for p in mine)
        if s[NAME] == _NEWTON:
            out["newton_s"] += s[END] - mine[-1][END]
    return out


def span_cost(calls: int = 100_000) -> float:
    """Seconds a boundary wrapper adds to one call, measured on a no-op."""
    def noop():
        return None

    wrapped = Tracer()._wrap(noop, "noop")
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    return (time.perf_counter() - t0 - bare) / calls
