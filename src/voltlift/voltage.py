"""Voltage digraphs, group-algebra arithmetic, and the explicit lift.

The group-algebra side (convolution, matrix powers) is kept in exact Python
integers so walk counts are never subject to rounding; characters and
eigensolvers are applied only downstream. The explicit lift is the
brute-force oracle everything else is checked against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .groups import GroupError, GroupTable


class VoltageError(ValueError):
    """Raised for malformed voltage-digraph documents."""


@dataclass(frozen=True)
class VoltageDigraph:
    """A base multidigraph with an arc-indexed voltage assignment.

    Loops and repeated (tail, head, voltage) triples are allowed; repeats
    are genuine parallel arcs, never deduplicated.
    """

    group: GroupTable
    vertices: tuple
    arcs: tuple  # of (tail index, head index, voltage element index)

    @property
    def order(self) -> int:
        return len(self.vertices)

    def out_degrees(self) -> np.ndarray:
        deg = np.zeros(self.order, dtype=np.int64)
        for u, _, _ in self.arcs:
            deg[u] += 1
        return deg

    def in_degrees(self) -> np.ndarray:
        deg = np.zeros(self.order, dtype=np.int64)
        for _, v, _ in self.arcs:
            deg[v] += 1
        return deg


def make_voltage_digraph(group: GroupTable, vertices: Sequence[str], arcs) -> VoltageDigraph:
    vertices = tuple(vertices)
    if not vertices:
        raise VoltageError("vertex list is empty")
    if len(set(vertices)) != len(vertices):
        raise VoltageError("duplicate vertex names")
    r = len(vertices)
    checked = []
    for u, v, x in arcs:
        if not (0 <= u < r and 0 <= v < r):
            raise VoltageError(f"arc endpoint out of range: ({u}, {v})")
        if not (0 <= x < group.order):
            raise VoltageError(f"voltage index out of range: {x}")
        checked.append((int(u), int(v), int(x)))
    return VoltageDigraph(group=group, vertices=vertices, arcs=tuple(checked))


def parse_voltage_digraph(doc, group: GroupTable) -> VoltageDigraph:
    """Parse a digraph document (JSON text or parsed dict).

    Format: ``{"vertices": ["a", "b"], "arcs": [{"from": "a", "to": "a",
    "voltage": "s"}, ...]}``. Voltage names must be element names of the
    group.
    """
    if isinstance(doc, (str, bytes)):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise VoltageError("digraph document must be a JSON object")
    vertices = doc.get("vertices", [])
    arc_docs = doc.get("arcs", [])
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise VoltageError('"vertices" must be a list of names')
    if not isinstance(arc_docs, list):
        raise VoltageError('"arcs" must be a list')
    if not vertices:
        raise VoltageError("vertex list is empty")
    vindex = {name: i for i, name in enumerate(vertices)}
    arcs = []
    for arc in arc_docs:
        if not isinstance(arc, dict) or not all(
            isinstance(arc.get(key), str) for key in ("from", "to", "voltage")
        ):
            raise VoltageError(
                f'arc {arc!r} must be an object with string "from", "to" and "voltage"'
            )
        for key in ("from", "to"):
            if arc[key] not in vindex:
                raise VoltageError(f"unknown vertex {arc[key]!r} in arc {arc}")
        try:
            x = group.index_of(arc["voltage"])
        except GroupError:
            raise VoltageError(
                f"unknown voltage name {arc['voltage']!r} in arc {arc}"
            ) from None
        arcs.append((vindex[arc["from"]], vindex[arc["to"]], x))
    return make_voltage_digraph(group, vertices, arcs)


# ---------------------------------------------------------------------------
# Group algebra


@dataclass(frozen=True)
class GroupAlgebraElement:
    """An integer-coefficient element of the group algebra."""

    group: GroupTable
    coeffs: tuple  # length n, exact Python ints

    def __post_init__(self):
        if len(self.coeffs) != self.group.order:
            raise VoltageError("coefficient vector length != group order")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return GroupAlgebraElement(
            self.group, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def apply_character(self, chi: np.ndarray) -> complex:
        """Extend a character row linearly: chi(sum a_g g) = sum a_g chi(g)."""
        return complex(sum(c * chi[i] for i, c in enumerate(self.coeffs) if c))

    def __str__(self):
        names = self.group.element_names
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            terms.append(names[i] if c == 1 else f"{c}*{names[i]}")
        return " + ".join(terms) if terms else "0"


def algebra_zero(group: GroupTable) -> GroupAlgebraElement:
    return GroupAlgebraElement(group, (0,) * group.order)


def algebra_unit(group: GroupTable) -> GroupAlgebraElement:
    coeffs = [0] * group.order
    coeffs[group.identity] = 1
    return GroupAlgebraElement(group, tuple(coeffs))


def algebra_mul(a: GroupAlgebraElement, b: GroupAlgebraElement) -> GroupAlgebraElement:
    """Convolution product in the group algebra, exact integer arithmetic."""
    if a.group is not b.group and a.group.order != b.group.order:
        raise VoltageError("operands live in different group algebras")
    group = a.group
    out = [0] * group.order
    mul = group.mul
    for i, ai in enumerate(a.coeffs):
        if ai == 0:
            continue
        row = mul[i]
        for j, bj in enumerate(b.coeffs):
            if bj:
                out[row[j]] += ai * bj
    return GroupAlgebraElement(group, tuple(out))


@dataclass(frozen=True)
class GroupAlgebraMatrix:
    """Square matrix over the group algebra (the lift's quotient matrix)."""

    group: GroupTable
    size: int
    entries: tuple  # r x r nested tuple of GroupAlgebraElement

    def entry(self, u: int, v: int) -> GroupAlgebraElement:
        return self.entries[u][v]

    def trace(self) -> GroupAlgebraElement:
        t = algebra_zero(self.group)
        for u in range(self.size):
            t = t + self.entries[u][u]
        return t


def algebra_identity_matrix(group: GroupTable, size: int) -> GroupAlgebraMatrix:
    unit = algebra_unit(group)
    zero = algebra_zero(group)
    rows = tuple(
        tuple(unit if u == v else zero for v in range(size)) for u in range(size)
    )
    return GroupAlgebraMatrix(group=group, size=size, entries=rows)


def algebra_matmul(a: GroupAlgebraMatrix, b: GroupAlgebraMatrix) -> GroupAlgebraMatrix:
    if a.size != b.size:
        raise VoltageError("matrix size mismatch")
    r = a.size
    rows = []
    for u in range(r):
        row = []
        for v in range(r):
            acc = algebra_zero(a.group)
            for w in range(r):
                if a.entries[u][w].is_zero() or b.entries[w][v].is_zero():
                    continue
                acc = acc + algebra_mul(a.entries[u][w], b.entries[w][v])
            row.append(acc)
        rows.append(tuple(row))
    return GroupAlgebraMatrix(group=a.group, size=r, entries=tuple(rows))


def algebra_matrix_power(b: GroupAlgebraMatrix, ell: int) -> GroupAlgebraMatrix:
    """B^ell by repeated multiplication; B^0 is the algebra identity."""
    if ell < 0:
        raise VoltageError("negative power")
    out = algebra_identity_matrix(b.group, b.size)
    for _ in range(ell):
        out = algebra_matmul(out, b)
    return out


def associated_matrix(d: VoltageDigraph) -> GroupAlgebraMatrix:
    """The quotient matrix: entry (u, v) counts arcs u->v by voltage."""
    r = d.order
    n = d.group.order
    counts = [[[0] * n for _ in range(r)] for _ in range(r)]
    for u, v, x in d.arcs:
        counts[u][v][x] += 1
    rows = tuple(
        tuple(GroupAlgebraElement(d.group, tuple(counts[u][v])) for v in range(r))
        for u in range(r)
    )
    return GroupAlgebraMatrix(group=d.group, size=r, entries=rows)


# ---------------------------------------------------------------------------
# The explicit lift


@dataclass(frozen=True)
class LiftDigraph:
    """The explicit lift: one vertex (u, g) per base vertex and group element.

    Vertex order is vertex-major, element-index minor: (u, g) sits at index
    u * n + g. The adjacency matrix counts parallel arcs.
    """

    base: VoltageDigraph
    arcs: tuple  # of (lift tail index, lift head index)
    adjacency: np.ndarray  # (rn, rn) int64

    def __post_init__(self):
        self.adjacency.setflags(write=False)

    @property
    def order(self) -> int:
        return self.adjacency.shape[0]

    def vertex_index(self, u: int, g: int) -> int:
        return u * self.base.group.order + g

    def vertex_labels(self) -> list:
        group = self.base.group
        return [
            f"{u}.{e}"
            for u in self.base.vertices
            for e in group.element_names
        ]


def build_lift(d: VoltageDigraph) -> LiftDigraph:
    """Expand the voltage digraph into its covering digraph.

    Each base arc (u, v, x) contributes the arcs (u, g) -> (v, g*x) for
    every group element g.
    """
    group = d.group
    n = group.order
    rn = d.order * n
    adj = np.zeros((rn, rn), dtype=np.int64)
    arcs = []
    for u, v, x in d.arcs:
        heads = group.mul[:, x]  # g * x for every g
        for g in range(n):
            i = u * n + g
            j = v * n + int(heads[g])
            arcs.append((i, j))
            adj[i, j] += 1
    return LiftDigraph(base=d, arcs=tuple(arcs), adjacency=adj)


def count_walks_lift(lift: LiftDigraph, source: int, target: int, ell: int) -> int:
    """Number of length-ell walks between two lift vertices, exactly.

    This is the brute-force oracle: an integer power of the explicit
    adjacency matrix, computed over Python ints so it cannot overflow.
    """
    if ell < 0:
        raise VoltageError("negative walk length")
    power = lift_adjacency_power(lift, ell)
    return int(power[source, target])


def lift_adjacency_power(lift: LiftDigraph, ell: int) -> np.ndarray:
    """A^ell over exact Python integers (dtype=object)."""
    if ell < 0:
        raise VoltageError("negative walk length")
    a = lift.adjacency.astype(object)
    out = np.eye(lift.order, dtype=object)
    for _ in range(ell):
        out = out @ a
    return out


def lift_to_json(lift: LiftDigraph) -> dict:
    """Serialize the lift with vertex names ``<base>.<element>``."""
    labels = lift.vertex_labels()
    return {
        "vertices": labels,
        "arcs": [[labels[i], labels[j]] for i, j in lift.arcs],
    }
