"""Regular vine copulas: edge lists, presets, and Rosenblatt transforms.

A vine is given as an explicit edge list, one edge per pair copula, each edge
carrying its conditioned pair, conditioning set, and pair copula. Any regular
vine can be labelled so that it obeys the joining rule: variable k joins
variables 1..k-1 through k-1 edges (k, m_j | D_j), j = 1..k-1, with D_1 empty
and D_(j+1) = D_j + {m_j}. Edge lists are checked against that rule, and the
proximity condition, when the vine is built.

Both transforms run on one memoised recursion (Dissmann, Brechmann, Czado &
Kurowicka 2013; Czado 2019, ch. 6): F(a | D) is h(F(a | D-b) given
F(b | D-b)) under the edge whose constraint set is {a} + D, b being that
edge's other conditioned variable. The forward map is v_k = F(k | 1..k-1),
and builds every conditional it needs with h_func. The inverse undoes
variable k's edges from its last tree back with h_inv, and keeps each
F(k | D + {m}) it passes through in the memo, as vine samplers keep their
arrays (Aas, Czado, Frigessi & Bakken 2009, Algorithms 1-2): later columns
read them instead of rebuilding them with h_func. On the 3-d preset the
inverse then calls h_func on no edge, and on the 4-d preset only for
F(1 | 2), the one conditional its chain never passes through. Both maps loop
over k, so the first k columns of either need only the first k input
columns. The inverse can drop rows after each column; the memoised values
are subset with them.

Edge lists can also be read from text: one edge per line, as in

    1,2 | gaussian rho=0.5
    1,3 | student-t nu=5 rho=0.5
    2,3 | 1 clayton delta=3

with the conditioning set (possibly empty) between the bar and the family
name. Blank lines and '#' comments are ignored.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ParameterError, StructureError
from ..randkit import MarginSpec, RngStream, _check_open_unit, _check_size
from .models import _by_column
from .pairs import PairCopula, h_func, h_inv

__all__ = [
    "VineEdge",
    "RVineSpec",
    "parse_vine",
    "load_vine",
    "vine_preset",
    "vine_rosenblatt_forward",
    "vine_rosenblatt_inverse",
    "sample_vine_uniforms",
]


@dataclass(frozen=True)
class VineEdge:
    """One vine edge: conditioned pair (1-based), conditioning set, copula."""

    conditioned: tuple[int, int]
    conditioning: tuple[int, ...]
    pair: PairCopula

    def __post_init__(self):
        i, j = self.conditioned
        object.__setattr__(self, "conditioned", (min(i, j), max(i, j)))
        object.__setattr__(self, "conditioning", tuple(sorted(self.conditioning)))
        if len(self.constraint) != 2 + len(self.conditioning):
            raise StructureError(f"edge {i},{j} | {self.conditioning} repeats a variable")

    @property
    def constraint(self) -> frozenset:
        """The conditioned pair and the conditioning set, together."""
        return frozenset(self.conditioned + self.conditioning)


@dataclass(frozen=True)
class RVineSpec:
    """A regular vine copula model over d uniform or general margins."""

    edges: tuple[VineEdge, ...]
    margins: tuple[MarginSpec, ...]
    # the edges by constraint set, and each variable's joining steps (pair, m_j, D_j)
    _by_set: dict = field(init=False, repr=False, compare=False)
    _joins: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "margins", tuple(self.margins))
        d = len(self.margins)
        if len(self.edges) != d * (d - 1) // 2:
            raise StructureError(
                f"a {d}-dimensional vine needs {d * (d - 1) // 2} edges, got {len(self.edges)}"
            )
        labels = {v for e in self.edges for v in e.constraint}
        if labels and (min(labels) < 1 or max(labels) > d):
            raise StructureError(f"edge variable labels {sorted(labels)} exceed dimension {d}")
        by_set = {e.constraint: e for e in self.edges}
        if len(by_set) < len(self.edges):
            raise StructureError("two edges share a constraint set")
        joins = []
        for k in range(1, d + 1):
            group = sorted((e for e in self.edges if max(e.constraint) == k),
                           key=lambda e: len(e.conditioning))
            steps, D = [], frozenset()
            for e in group:
                m = sum(e.conditioned) - k
                if k not in e.conditioned or set(e.conditioning) != D:
                    break
                parent = by_set.get(D | {m})
                if D and (parent is None or m not in parent.conditioned):
                    raise StructureError(
                        f"edge {e.conditioned} | {e.conditioning} breaks the proximity "
                        f"condition: no edge conditions {m} on {sorted(D)}")
                steps.append((e.pair, m, D))
                D = D | {m}
            if len(steps) != k - 1:
                raise StructureError(
                    f"variable {k} does not join variables 1..{k - 1} through edges "
                    "(k, m_j | D_j) with D_1 empty and D_(j+1) = D_j + {m_j}; the edges "
                    "are not a regular vine, or their labels are not in a joining order")
            joins.append(tuple(steps))
        object.__setattr__(self, "_by_set", by_set)
        object.__setattr__(self, "_joins", tuple(joins))

    @property
    def d(self) -> int:
        return len(self.margins)

    def pair(self, conditioned: tuple[int, int], conditioning: tuple[int, ...] = ()) -> PairCopula:
        """The pair copula attached to one edge signature."""
        for e in self.edges:
            if e.conditioned == conditioned and e.conditioning == conditioning:
                return e.pair
        raise StructureError(f"no edge {conditioned} | {conditioning} in this vine")


# ---------------------------------------------------------------------------
# text format


def parse_vine(text: str) -> RVineSpec:
    """Build a vine on uniform margins from its text form (see the module
    docstring); ``dataclasses.replace(rv, margins=...)`` puts it on others."""
    edges = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "|" not in line:
            raise StructureError(f"line {ln}: expected 'i,j | [conditioning] family params'")
        head, tail = line.split("|", 1)
        try:
            i, j = (int(t) for t in head.strip().split(","))
        except ValueError as exc:
            raise StructureError(f"line {ln}: conditioned pair must be 'i,j'") from exc
        tokens = tail.split()
        conditioning = []
        while tokens and tokens[0].replace(",", "").isdigit():
            conditioning.extend(int(t) for t in tokens.pop(0).split(",") if t)
        if not tokens:
            raise StructureError(f"line {ln}: missing copula family")
        family = tokens.pop(0)
        params = {}
        for tok in tokens:
            if "=" not in tok:
                raise StructureError(f"line {ln}: expected key=value, got {tok!r}")
            key, val = tok.split("=", 1)
            try:
                params[key] = float(val)
            except ValueError as exc:
                raise StructureError(f"line {ln}: bad numeric value {val!r}") from exc
        try:
            pair = PairCopula(family=family, **params)
        except (TypeError, ParameterError) as exc:
            raise StructureError(f"line {ln}: {exc}") from exc
        edges.append(VineEdge(conditioned=(i, j), conditioning=tuple(conditioning), pair=pair))

    d = max((v for e in edges for v in e.conditioned + e.conditioning), default=0)
    return RVineSpec(edges=tuple(edges), margins=(MarginSpec("uniform01"),) * d)


def load_vine(path) -> RVineSpec:
    """Read a vine edge list from a text file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_vine(fh.read())


_PRESET_3D = """
# three-variable chain
1,2 |        gaussian  rho=0.5
1,3 |        student-t nu=5 rho=0.5
2,3 | 1      clayton   delta=3
"""

_PRESET_4D = """
# four-variable chain
1,2 |        gaussian  rho=0.5
1,3 |        student-t nu=5 rho=0.5
2,4 |        gumbel    delta=3
2,3 | 1      clayton   delta=3
1,4 | 2      frank     delta=3
3,4 | 1,2    joe       delta=3
"""


def vine_preset(name: str) -> RVineSpec:
    """Built-in example vines on uniform margins: ``3d`` and ``4d``."""
    if name == "3d":
        return parse_vine(_PRESET_3D)
    if name == "4d":
        return parse_vine(_PRESET_4D)
    raise ParameterError(f"unknown vine preset {name!r}; available: '3d', '4d'")


# ---------------------------------------------------------------------------
# transforms


def _as_matrix(rv: RVineSpec, arr, name: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or not 1 <= arr.shape[1] <= rv.d:
        raise StructureError(f"{name} must have shape (n, k), k in 1..{rv.d}, got {arr.shape}")
    return _check_open_unit(arr, name)


def _conditionals(rv: RVineSpec, memo: dict):
    """F(a | D), memoised in ``memo`` by (a, D); x_a is the entry (a, {}),
    and F(a | D) reads only the entries of a and D."""

    def F(a: int, D: frozenset) -> np.ndarray:
        if (a, D) not in memo:
            e = rv._by_set[D | {a}]
            b = sum(e.conditioned) - a
            rest = D - {b}
            memo[a, D] = h_func(e.pair, F(a, rest), F(b, rest))
        return memo[a, D]

    return F


def vine_rosenblatt_forward(rv: RVineSpec, x) -> np.ndarray:
    """Map copula-scale X to i.i.d. uniforms V, v_k = F(x_k | x_1..x_(k-1));
    k columns give V's first k."""
    x = _as_matrix(rv, x, "x")
    F = _conditionals(rv, {(a, frozenset()): x[:, a - 1] for a in range(1, x.shape[1] + 1)})
    v = np.empty_like(x)
    for k in range(1, x.shape[1] + 1):
        v[:, k - 1] = F(k, frozenset(range(1, k)))
    return v


def vine_rosenblatt_inverse(rv: RVineSpec, v, keep=None) -> np.ndarray:
    """Inverse of the forward map: uniforms V to copula-scale X; k columns give X's first k.

    ``keep(k, x_k)``, if given, tests column k's values x_k and is True on
    the rows to map on column k + 1. The later columns of the other rows
    are not mapped and read NaN; since every h-function acts elementwise,
    the mapped entries are bit-identical to the full map's.
    """
    v = _as_matrix(rv, v, "v")

    def step(k, t, memo):
        F = _conditionals(rv, memo)
        for pair, m, D in reversed(rv._joins[k]):
            memo[k + 1, D | {m}] = t  # t is F(k + 1 | D + {m}) here; later columns read it
            t = h_inv(pair, t, F(m, D))
        memo[k + 1, frozenset()] = t
        return t

    return _by_column(v, step, keep)


def sample_vine_uniforms(s: RngStream, rv: RVineSpec, n: int) -> np.ndarray:
    """Draw n copula-scale vectors per stream of the block ``s``, stream-major,
    from the vine by the conditional inverse map."""
    _check_size(n)
    v = s.uniforms(n * rv.d).reshape(-1, rv.d)
    return vine_rosenblatt_inverse(rv, v)
