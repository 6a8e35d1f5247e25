"""Voltage digraphs, group-algebra arithmetic, and the explicit lift.

The group-algebra side (convolution, matrix powers, traces of powers) is
exact, so walk counts are never subject to rounding: products run in int64
residues modulo as many word-size primes as an a-priori bound on the result
needs, and the Chinese remainder theorem returns every coefficient as a
Python int. Characters and eigensolvers are applied only downstream. The
explicit lift is the brute-force oracle everything else is checked against.
"""

from __future__ import annotations

import collections
import functools
import itertools
from dataclasses import dataclass
from math import prod

import numpy as np

from .groups import GroupTable, decode_json, expect_group, short_repr


class VoltageError(ValueError):
    """Raised for malformed voltage-digraph documents."""


@dataclass(frozen=True)
class VoltageDigraph:
    """A base multidigraph with an arc-indexed voltage assignment, proven when
    made: VoltageError unless the vertex names are distinct and each arc is
    three integers (tail, head, voltage element) in range, held as Python ints.

    Loops and repeated (tail, head, voltage) triples are allowed; repeats
    are genuine parallel arcs, never deduplicated.
    """

    group: GroupTable
    vertices: tuple
    arcs: tuple  # of (tail index, head index, voltage element index)

    def __post_init__(self):
        group, vertices = expect_group(self.group, VoltageError), tuple(self.vertices)
        if not vertices:
            raise VoltageError("vertex list is empty")
        if len(set(vertices)) != len(vertices):
            raise VoltageError("duplicate vertex names")
        r = len(vertices)
        checked = []
        for arc in self.arcs:  # integers only: int() would truncate a float and take a bool
            entries = tuple(arc) if isinstance(arc, (tuple, list, np.ndarray)) else ()
            if len(entries) != 3 or bool in map(type, entries) or not all(
                    isinstance(e, (int, np.integer)) for e in entries):
                raise VoltageError(
                    f"arc {short_repr(arc)} is not three integers (tail, head, voltage)")
            u, v, x = entries
            if not (0 <= u < r and 0 <= v < r):
                raise VoltageError(f"arc endpoint out of range: ({u}, {v})")
            if not (0 <= x < group.order):
                raise VoltageError(f"voltage index out of range: {x}")
            checked.append((int(u), int(v), int(x)))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "arcs", tuple(checked))

    @property
    def order(self) -> int:
        return len(self.vertices)

    def in_degrees(self) -> np.ndarray:
        return np.bincount(_arc_array(self)[:, 1], minlength=self.order)


def _arc_array(d: VoltageDigraph) -> np.ndarray:
    """The arcs as an (|arcs|, 3) int64 array of (tail, head, voltage)."""
    return np.array(d.arcs, dtype=np.int64).reshape(-1, 3)


def _quotient_terms(d: VoltageDigraph) -> tuple:
    """The nonzeros of the quotient matrix B, read from the arcs without
    building B: int64 arrays (u, v, x, count), count the number of arcs
    u -> v with voltage x, in the order np.nonzero(associated_matrix(d))
    lists them (ascending flat index (u * r + v) * n + x)."""
    r, n = d.order, d.group.order
    u, v, x = _arc_array(d).T
    keys, count = np.unique((u * r + v) * n + x, return_counts=True)
    uv, x = np.divmod(keys, n)
    return (*np.divmod(uv, r), x, count)


def parse_voltage_digraph(doc, group: GroupTable) -> VoltageDigraph:
    """Parse a digraph document (JSON text or parsed dict).

    Format: ``{"vertices": ["a", "b"], "arcs": [{"from": "a", "to": "a",
    "voltage": "s"}, ...]}``. Voltage names must be element names of the
    group.
    """
    expect_group(group, VoltageError)
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
    eindex = {name: i for i, name in enumerate(group.element_names)}
    arcs = []
    for arc in arc_docs:
        if not isinstance(arc, dict) or not all(
            isinstance(arc.get(key), str) for key in ("from", "to", "voltage")
        ):
            raise VoltageError(
                f'arc {short_repr(arc)} must be an object with string "from", "to" and "voltage"'
            )
        for key, index, what in (("from", vindex, "vertex"), ("to", vindex, "vertex"),
                                 ("voltage", eindex, "voltage name")):
            if arc[key] not in index:
                raise VoltageError(
                    f"unknown {what} {short_repr(arc[key])} in arc {short_repr(arc)}"
                )
        arcs.append((vindex[arc["from"]], vindex[arc["to"]], eindex[arc["voltage"]]))
    return VoltageDigraph(group, vertices, arcs)


# ---------------------------------------------------------------------------
# Group algebra
#
# A matrix over the group algebra Z[G] is one object array b[r, r, n] of
# exact Python ints: b[u, v, g] is the coefficient of element g in entry
# (u, v), and an algebra element is a length-n vector. The arrays carry no
# group, so every function here takes the GroupTable.
#
# Products run in int64 residues modulo k primes below 2^31 at once, and
# Garner's Chinese remaindering turns the residues back into Python ints at
# the end. k comes from an a-priori bound on the result: the row norm
# ||b|| = max_u sum_{v,g} |b[u, v, g]| is submultiplicative, so every
# coefficient of B^l lies within ||b||^l, and the primes' product M
# exceeds twice the bound. One rule keeps the int64 arithmetic exact:
# every term added to a sum is a residue below 2^31, so a product of two
# residues (below 2^62) is reduced before it is added (see
# _residue_product).

def associated_matrix(d: VoltageDigraph) -> np.ndarray:
    """The quotient matrix: b[u, v, x] counts the arcs u->v with voltage x."""
    b = np.zeros((d.order, d.order, d.group.order), dtype=object)
    for u, v, x in d.arcs:
        b[u, v, x] += 1
    return b


def _is_prime(m: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5 and 7, exact for odd 7 < m < 3.2e9."""
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=None)
def _prime_below(m: int) -> int:
    """The largest prime below the odd number m."""
    m -= 2
    while not _is_prime(m):
        m -= 2
    return m


def _primes_for(bound: int) -> list:
    """The fewest of the largest primes below 2^31 (at least one) whose
    product exceeds 2 * bound, so that every |x| <= bound is recovered
    from its residues."""
    primes = [_prime_below(2**31 + 1)]
    product = primes[0]
    while product <= 2 * bound:
        primes.append(_prime_below(primes[-1]))
        product *= primes[-1]
    return primes


def _row_norm(x: np.ndarray) -> int:
    """||x|| = max_u sum_{v,g} |x[u, v, g]|, exact; 0 for an empty matrix."""
    return int(np.abs(np.asarray(x, dtype=object)).sum(axis=(1, 2)).max(initial=0))


def _to_residues(x: np.ndarray, primes: list) -> np.ndarray:
    """x[u, w, g] modulo each prime p_i as an int64 array res[w, g, i, u]:
    the layout that lets one gather over g move contiguous (i, u) rows."""
    res = np.stack([np.asarray(x % p, dtype=np.int64) for p in primes])
    return np.ascontiguousarray(res.transpose(2, 3, 0, 1))


def _from_residues(res: np.ndarray, primes: list) -> np.ndarray:
    """Garner's Chinese remaindering: the Python ints x with |x| < M / 2,
    M the product of the primes, whose residues lie along res's leading
    axis.

    The mixed-radix digits of x mod M, x = d_0 + p_0 (d_1 + p_1 (d_2 + ...)),
    are found in int64, one prime at a time, and Horner's rule sums them
    from the most significant: its first step, d + p d' < p p' < 2^62, stays
    in int64 and every later one runs in Python ints, so with one or two
    primes x and its sign fix stay in int64 and become Python ints once.
    """
    digits = []
    for j, p in enumerate(primes):
        # the digits so far, evaluated mod p by Horner's rule; every
        # intermediate stays below p * p + p < 2^63
        acc = np.zeros(res.shape[1:], dtype=np.int64)
        for d, q in zip(digits[::-1], primes[:j][::-1]):
            acc = (acc * q + d) % p
        scale = pow(prod(primes[:j]) % p, -1, p)
        digits.append((res[j] - acc) * scale % p)
    x = digits[-1]
    for j in reversed(range(len(primes) - 1)):
        x = digits[j] + primes[j] * x
        if j:  # a later step follows
            x = x.astype(object)
    m = prod(primes)
    return np.where(x > m // 2, x - m, x).astype(object, copy=False)


def _product_terms(b: np.ndarray, primes: list, group: GroupTable) -> list:
    """The nonzeros b[w, v, h] of a right operand as (w, v, cols, scale)
    terms for _residue_product.

    cols[g] = g h^-1 lists the element of the left operand that lands on g.
    scale is None for a coefficient of 1, which needs no product, and the
    int64 (k, 1) column of the coefficient's residues for any other.
    """
    terms = []
    for w, v, h in zip(*np.nonzero(b)):
        c = int(b[w, v, h])
        scale = None if c == 1 else np.array([c % p for p in primes])[:, None]
        terms.append((w, v, group.mul[:, group.inverse[h]], scale))
    return terms


def _residue_product(a: np.ndarray, terms: list, width: int, primes: list) -> np.ndarray:
    """a times the right operand given by its terms, in residues: a and the
    result are laid out as _to_residues makes them, the result reduced.

    A scaled term is a product of two residues, below 2^62, and is reduced
    at once; an unscaled one is a residue of a. So every term added is a
    residue below max p < 2^31, and a column of an r-row right operand has
    at most r * n terms, fewer than 2^32 for any B that fits in memory
    (r * n >= 2^32 needs r >= 2^20, so a square B has r^2 * n >= 2^52
    entries): no sum passes 2^63 - 1.
    """
    mod = np.array(primes)[:, None]
    out = np.zeros((width,) + a.shape[1:], dtype=np.int64)
    rows = list(out)  # views, so that += adds in place without a setitem
    for w, v, cols, scale in terms:
        term = a[w].take(cols, axis=0)
        if scale is not None:
            term *= scale
            term %= mod
        rows[v] += term
    out %= mod
    return out


def algebra_matmul(a: np.ndarray, b: np.ndarray, group: GroupTable) -> np.ndarray:
    """Exact product of group-algebra matrices, (ab)[u, v] = sum_w a[u, w] b[w, v].

    Each nonzero b[w, v, h] adds b[w, v, h] * a[u, w, g h^-1] to the
    coefficient of g in (ab)[u, v], so the cost scales with the nonzeros of
    the right operand. Every coefficient lies within ||a|| * max |b|.
    """
    if a.shape[1] != b.shape[0]:
        raise VoltageError("matrix size mismatch")
    primes = _primes_for(_row_norm(a) * int(np.abs(np.asarray(b, dtype=object)).max(initial=0)))
    terms = _product_terms(b, primes, group)
    out = _residue_product(_to_residues(a, primes), terms, b.shape[1], primes)
    return _from_residues(out.transpose(2, 3, 0, 1), primes)


def algebra_mul(x: np.ndarray, y: np.ndarray, group: GroupTable) -> np.ndarray:
    """Convolution product of two algebra elements: the 1 x 1 matrix case."""
    return algebra_matmul(x[None, None], y[None, None], group)[0, 0]


def _residue_powers(b: np.ndarray, length: int, primes: list, group: GroupTable):
    """B^0, B^1, ..., B^length in residues, laid out as _to_residues makes
    them, one at a time: each is made from the one before, so a caller that
    drops each before the next holds two at most."""
    if b.shape[0] != b.shape[1]:
        raise VoltageError("matrix size mismatch")
    r = b.shape[0]
    terms = _product_terms(b, primes, group)
    power = np.zeros((r, group.order, len(primes), r), dtype=np.int64)
    power[np.arange(r), group.identity, :, np.arange(r)] = 1
    yield power
    for _ in range(length):
        power = _residue_product(power, terms, r, primes)
        yield power


def algebra_matrix_power(b: np.ndarray, ell: int, group: GroupTable) -> np.ndarray:
    """B^ell by ell multiplications with the sparse B; B^0 is the identity.

    Every coefficient of B^ell lies within ||b||^ell.
    """
    if ell < 0:
        raise VoltageError("negative power")
    primes = _primes_for(_row_norm(b) ** ell)
    power = collections.deque(_residue_powers(b, ell, primes, group), maxlen=1).pop()
    return _from_residues(power.transpose(2, 3, 0, 1), primes)


def algebra_trace_powers(b: np.ndarray, length: int, group: GroupTable) -> np.ndarray:
    """Exact traces of B^1..B^length as the columns of an (n, length) array.

    Every trace coefficient lies within r ||b||^length.
    """
    r = b.shape[0]
    primes = _primes_for(r * _row_norm(b) ** length)
    traces = np.zeros((len(primes), group.order, length), dtype=np.int64)
    diag = np.arange(r)
    powers = itertools.islice(_residue_powers(b, length, primes, group), 1, None)
    for ell, power in enumerate(powers):
        # power[u, g, i, u] summed over u: r residues, each below 2^31
        traces[:, :, ell] = power[diag, :, :, diag].sum(axis=0).T % np.array(primes)[:, None]
    return _from_residues(traces, primes)


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
    """Serialize the lift of d with vertex names ``<base>.<element>``.

    Names that hold dots can give two lift vertices one label, as base
    vertex x.y with element z and base vertex x with element y.z do; such
    a label is refused, never written twice."""
    names = d.group.element_names
    labels = [f"{u}.{e}" for u in d.vertices for e in names]
    if len(set(labels)) < len(labels):
        owner = {}
        for label, pair in zip(labels, itertools.product(d.vertices, names)):
            pair = "({}, {})".format(*pair)
            if owner.setdefault(label, pair) != pair:
                raise VoltageError(f"lift vertex label {label!r} names both {owner[label]} "
                                   f"and {pair}; rename the dotted names")
    tails, heads = (a.ravel().tolist() for a in _lift_arcs(d))
    return {
        "vertices": labels,
        "arcs": [[labels[i], labels[j]] for i, j in zip(tails, heads)],
    }
