"""Voltage digraphs, group-algebra arithmetic, and the explicit lift.

The group-algebra side (convolution, matrix powers) is kept in exact Python
integers so walk counts are never subject to rounding; characters and
eigensolvers are applied only downstream. The explicit lift is the
brute-force oracle everything else is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .groups import GroupError, GroupTable, decode_json


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
        return np.bincount(_arc_array(self)[:, 0], minlength=self.order)

    def in_degrees(self) -> np.ndarray:
        return np.bincount(_arc_array(self)[:, 1], minlength=self.order)


def _arc_array(d: VoltageDigraph) -> np.ndarray:
    """The arcs as an (|arcs|, 3) int64 array of (tail, head, voltage)."""
    return np.array(d.arcs, dtype=np.int64).reshape(-1, 3)


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
    doc = decode_json(doc, VoltageError)
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
#
# A matrix over the group algebra Z[G] is one object array b[r, r, n] of
# exact Python ints: b[u, v, g] is the coefficient of element g in entry
# (u, v), and an algebra element is a length-n vector. The arrays carry no
# group, so every function here takes the GroupTable.


def associated_matrix(d: VoltageDigraph) -> np.ndarray:
    """The quotient matrix: b[u, v, x] counts the arcs u->v with voltage x."""
    b = np.zeros((d.order, d.order, d.group.order), dtype=object)
    for u, v, x in d.arcs:
        b[u, v, x] += 1
    return b


def algebra_matmul(a: np.ndarray, b: np.ndarray, group: GroupTable) -> np.ndarray:
    """Exact product of group-algebra matrices, (ab)[u, v] = sum_w a[u, w] b[w, v].

    Each nonzero b[w, v, h] adds b[w, v, h] * a[u, w, g h^-1] to the
    coefficient of g in (ab)[u, v], so the cost scales with the nonzeros of
    the right operand.
    """
    if a.shape[1] != b.shape[0]:
        raise VoltageError("matrix size mismatch")
    mul = group.mul
    inv = group.inverse
    out = np.zeros((a.shape[0], b.shape[1], group.order), dtype=object)
    for w, v, h in zip(*np.nonzero(b)):
        out[:, v] += b[w, v, h] * a[:, w, mul[:, inv[h]]]
    return out


def algebra_mul(x: np.ndarray, y: np.ndarray, group: GroupTable) -> np.ndarray:
    """Convolution product of two algebra elements: the 1 x 1 matrix case."""
    return algebra_matmul(x[None, None], y[None, None], group)[0, 0]


def algebra_matrix_power(b: np.ndarray, ell: int, group: GroupTable) -> np.ndarray:
    """B^ell by ell multiplications with the sparse B; B^0 is the identity."""
    if ell < 0:
        raise VoltageError("negative power")
    r = b.shape[0]
    out = np.zeros((r, r, group.order), dtype=object)
    out[np.arange(r), np.arange(r), group.identity] = 1
    for _ in range(ell):
        out = algebra_matmul(out, b, group)
    return out


def algebra_trace_powers(b: np.ndarray, length: int, group: GroupTable) -> np.ndarray:
    """Exact traces of B^1..B^length as the columns of an (n, length) array."""
    traces = np.zeros((group.order, length), dtype=object)
    power = b
    for ell in range(length):
        if ell:
            power = algebra_matmul(power, b, group)
        traces[:, ell] = np.trace(power)
    return traces


# ---------------------------------------------------------------------------
# The explicit lift
#
# One vertex (u, g) per base vertex and group element, vertex-major and
# element-index minor: (u, g) sits at index u * n + g, and is labelled
# "<u>.<g>". Only the brute-force oracles need the adjacency matrix; the
# digraph alone fully describes the lift, so lift_to_json never builds it.


def _lift_arcs(d: VoltageDigraph):
    """Lift tail and head indices as two (|arcs|, n) arrays.

    Each base arc (u, v, x) contributes the arcs (u, g) -> (v, g*x) for
    every group element g: row a lists arc a's n lift arcs, g = 0..n-1.
    """
    n = d.group.order
    u, v, x = _arc_array(d).T
    return u[:, None] * n + np.arange(n), v[:, None] * n + d.group.mul[:, x].T


def build_lift(d: VoltageDigraph) -> np.ndarray:
    """The lift's read-only (rn, rn) int64 adjacency; it counts parallel arcs."""
    rn = d.order * d.group.order
    adj = np.zeros((rn, rn), dtype=np.int64)
    np.add.at(adj, _lift_arcs(d), 1)
    adj.setflags(write=False)
    return adj


def lift_to_json(d: VoltageDigraph) -> dict:
    """Serialize the lift of d with vertex names ``<base>.<element>``."""
    labels = [f"{u}.{e}" for u in d.vertices for e in d.group.element_names]
    tails, heads = (a.ravel().tolist() for a in _lift_arcs(d))
    return {
        "vertices": labels,
        "arcs": [[labels[i], labels[j]] for i, j in zip(tails, heads)],
    }
