"""Regular vine copulas: edge lists, presets, and Rosenblatt transforms.

A vine is given as an explicit edge list, one edge per tree level, each edge
carrying its conditioned pair, conditioning set, and pair copula. The
transforms below implement the conditional-inverse chains for the supported
tree sequences in dimensions 2, 3, and 4 (a single pair; the three-variable
sequence 1-2, 1-3, 2-3|1; and the four-variable sequence that adds 2-4,
1-4|2, 3-4|1,2). Edge lists are validated against those shapes at
construction, so the chain evaluators can hard-code their h-function
compositions.

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
from ..randkit import MarginSpec, RngStream
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


# tree sequences the chain evaluators understand, keyed by dimension:
# each entry is the set of (conditioned pair, conditioning set) signatures
_SUPPORTED = {
    2: {((1, 2), ())},
    3: {((1, 2), ()), ((1, 3), ()), ((2, 3), (1,))},
    4: {
        ((1, 2), ()),
        ((1, 3), ()),
        ((2, 4), ()),
        ((2, 3), (1,)),
        ((1, 4), (2,)),
        ((3, 4), (1, 2)),
    },
}


@dataclass(frozen=True)
class RVineSpec:
    """A regular vine copula model over d uniform or general margins."""

    edges: tuple[VineEdge, ...]
    margins: tuple[MarginSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple(self.edges))
        object.__setattr__(self, "margins", tuple(self.margins))
        d = len(self.margins)
        if len(self.edges) != d * (d - 1) // 2:
            raise StructureError(
                f"a {d}-dimensional vine needs {d * (d - 1) // 2} edges, got {len(self.edges)}"
            )
        labels = {v for e in self.edges for v in e.conditioned + e.conditioning}
        if labels and (min(labels) < 1 or max(labels) > d):
            raise StructureError(f"edge variable labels {sorted(labels)} exceed dimension {d}")
        signatures = {(e.conditioned, e.conditioning) for e in self.edges}
        if d not in _SUPPORTED or signatures != _SUPPORTED[d]:
            raise StructureError(
                "unsupported vine tree sequence; supported structures are the "
                "built-in 2-, 3-, and 4-dimensional chains"
            )

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


def parse_vine(text: str, margins=None) -> RVineSpec:
    """Build a vine from its text form (see the module docstring)."""
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
    if margins is None:
        margins = tuple(MarginSpec("uniform01") for _ in range(d))
    return RVineSpec(edges=tuple(edges), margins=tuple(margins))


def load_vine(path, margins=None) -> RVineSpec:
    """Read a vine edge list from a text file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_vine(fh.read(), margins=margins)


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


def vine_preset(name: str, margins=None) -> RVineSpec:
    """Built-in example vines: ``3d`` and ``4d``."""
    if name == "3d":
        return parse_vine(_PRESET_3D, margins=margins)
    if name == "4d":
        return parse_vine(_PRESET_4D, margins=margins)
    raise ParameterError(f"unknown vine preset {name!r}; available: '3d', '4d'")


# ---------------------------------------------------------------------------
# transforms


def _as_matrix(rv: RVineSpec, arr, name: str) -> np.ndarray:
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or not 1 <= arr.shape[1] <= rv.d:
        raise StructureError(f"{name} must have shape (n, k), k in 1..{rv.d}, got {arr.shape}")
    return arr


def vine_rosenblatt_forward(rv: RVineSpec, x) -> np.ndarray:
    """Map copula-scale X to i.i.d. uniforms V along the chain; k columns give V's first k."""
    x = _as_matrix(rv, x, "x")
    d = x.shape[1]
    v = np.empty_like(x)
    v[:, 0] = x[:, 0]
    if d == 1:
        return v
    c12 = rv.pair((1, 2))
    t2_1 = h_func(c12, x[:, 1], x[:, 0])
    v[:, 1] = t2_1
    if d == 2:
        return v
    c13 = rv.pair((1, 3))
    c23_1 = rv.pair((2, 3), (1,))
    t3_1 = h_func(c13, x[:, 2], x[:, 0])
    v[:, 2] = h_func(c23_1, t3_1, t2_1)
    if d == 3:
        return v
    c24 = rv.pair((2, 4))
    c14_2 = rv.pair((1, 4), (2,))
    c34_12 = rv.pair((3, 4), (1, 2))
    t4_2 = h_func(c24, x[:, 3], x[:, 1])
    t1_2 = h_func(c12, x[:, 0], x[:, 1])
    t4_12 = h_func(c14_2, t4_2, t1_2)
    v[:, 3] = h_func(c34_12, t4_12, v[:, 2])
    return v


def vine_rosenblatt_inverse(rv: RVineSpec, v) -> np.ndarray:
    """Inverse of the forward chain: uniforms V to copula-scale X; k columns give X's first k."""
    v = _as_matrix(rv, v, "v")
    d = v.shape[1]
    x = np.empty_like(v)
    x[:, 0] = v[:, 0]
    if d == 1:
        return x
    c12 = rv.pair((1, 2))
    x[:, 1] = h_inv(c12, v[:, 1], x[:, 0])
    if d == 2:
        return x
    c13 = rv.pair((1, 3))
    c23_1 = rv.pair((2, 3), (1,))
    t2_1 = h_func(c12, x[:, 1], x[:, 0])
    t3_1 = h_inv(c23_1, v[:, 2], t2_1)
    x[:, 2] = h_inv(c13, t3_1, x[:, 0])
    if d == 3:
        return x
    c24 = rv.pair((2, 4))
    c14_2 = rv.pair((1, 4), (2,))
    c34_12 = rv.pair((3, 4), (1, 2))
    t3_21 = h_func(c23_1, h_func(c13, x[:, 2], x[:, 0]), t2_1)
    t1_2 = h_func(c12, x[:, 0], x[:, 1])
    a = h_inv(c34_12, v[:, 3], t3_21)
    b = h_inv(c14_2, a, t1_2)
    x[:, 3] = h_inv(c24, b, x[:, 1])
    return x


def sample_vine_uniforms(s: RngStream, rv: RVineSpec, n: int) -> np.ndarray:
    """Draw n copula-scale vectors from the vine by the conditional inverse map."""
    if n < 1:
        raise ParameterError(f"sample size must be at least 1, got {n}")
    v = s.uniforms(n * rv.d).reshape(n, rv.d)
    return vine_rosenblatt_inverse(rv, v)
