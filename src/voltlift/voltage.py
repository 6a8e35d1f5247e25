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
from dataclasses import dataclass, field
from math import prod

import numpy as np

from .groups import BLOCK_ENTRIES, GroupTable, decode_json, expect_group, short_repr


class VoltageError(ValueError):
    """Raised for malformed voltage-digraph documents."""


@dataclass(frozen=True)
class VoltageDigraph:
    """A base multidigraph with an arc-indexed voltage assignment, proven when
    made: VoltageError unless the vertex names are distinct and each arc is
    three integers (tail, head, voltage element) in range, held as Python ints.

    Loops and repeated (tail, head, voltage) triples are allowed; repeats
    are genuine parallel arcs, never deduplicated. ``arc_array``, no
    argument, holds the same arcs once more as a read-only (|arcs|, 3)
    int64 array, the form the array code reads.
    """

    group: GroupTable
    vertices: tuple
    arcs: tuple  # of (tail index, head index, voltage element index)
    arc_array: np.ndarray = field(init=False, repr=False, compare=False)

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
        arc_array = np.array(checked, dtype=np.int64).reshape(-1, 3)
        arc_array.setflags(write=False)
        for name, value in (("vertices", vertices), ("arcs", tuple(checked)),
                            ("arc_array", arc_array)):
            object.__setattr__(self, name, value)

    @property
    def order(self) -> int:
        return len(self.vertices)

    def in_degrees(self) -> np.ndarray:
        return np.bincount(self.arc_array[:, 1], minlength=self.order)


def _quotient_terms(d: VoltageDigraph) -> tuple:
    """The nonzeros of the quotient matrix B, read from the arcs without
    building B: int64 arrays (u, v, x, count), count the number of arcs
    u -> v with voltage x, in the order np.nonzero(associated_matrix(d))
    lists them (ascending flat index (u * r + v) * n + x)."""
    r, n = d.order, d.group.order
    u, v, x = d.arc_array.T
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
# Every exact result is a power of one square matrix B, read as its terms
# (w, v, h, coeff): one int64 array per index and one of coefficients, a
# nonzero b[w, v, h] = coeff per position, in np.nonzero's order. The
# quotient matrix's terms come from the arcs (_quotient_terms), int64
# counts, and associated_matrix scatters the same terms; a public function
# given an object array passes its np.nonzero into the kernel (_terms),
# with Python-int coefficients. A product ab is block (0, 2) of M^2 for
# M = [[0, a, 0], [0, 0, b], [0, 0, 0]], so it is a power too.
#
# Products run in int64 residues modulo k primes below 2^31 at once, and
# Garner's Chinese remaindering turns the residues back into Python ints at
# the end. k comes from an a-priori bound on the result: the row norm
# ||b|| = max_w sum_{v,h} |b[w, v, h]|, an exact sum over the terms, is
# submultiplicative, so every coefficient of B^l lies within ||b||^l, and
# the product of the primes exceeds twice the bound.
#
# One step B^l -> B^(l+1) is one batched gather (_residue_product). The
# power is an int64 buffer whose row w * n + g holds the residues res[i, u]
# of B^l[u, w, g^-1] (the involution x* of Z[G], which sends g to g^-1 and
# reverses products), and one zero row ends it. Right multiplication by h
# sends the coefficient of g h^-1 to g, so it sends that of h y to
# y = g^-1: each slot reads row h of the group table, one contiguous row.
# B's terms are grouped by column and padded to the largest column count
# c, so each entry of a product sums c gathered entries of the power, the
# pads reading the zero row.
#
# One bound keeps the int64 arithmetic exact. Every entry is a
# nonnegative int64 congruent to its coefficient modulo each prime, and
# the power loop (_residue_powers) tracks an a-priori bound top on the
# entries. The first step, from the identity, leaves B's own
# coefficients, at most 1 when they all are 1. Each later step of such a
# B takes top to c * top, so top is c^(l - 1) after step l. A step with
# any other coefficient first reduces its operand below 2^31, multiplies
# by the coefficient's residues and reduces each product at once, so it
# ends at c * (P - 1), P the largest prime. Entries are reduced modulo the
# primes only when the next step could pass 2^63 - 1 (delayed reduction,
# as in von zur Gathen and Gerhard, Modern Computer Algebra), and always
# before Garner and before a diagonal is summed.

_INT64_MAX = 2**63 - 1


def associated_matrix(d: VoltageDigraph) -> np.ndarray:
    """The quotient matrix: b[u, v, x] counts the arcs u->v with voltage x."""
    u, v, x, count = _quotient_terms(d)
    b = np.zeros((d.order, d.order, d.group.order), dtype=object)
    b[u, v, x] = count
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


def _terms(b: np.ndarray) -> tuple:
    """The terms (w, v, h, coeff) of a group-algebra matrix b: its nonzeros
    in the order np.nonzero lists them, each coefficient a Python int."""
    w, v, h = np.nonzero(b)
    return w, v, h, np.asarray(b[w, v, h], dtype=object)


def _square_terms(b: np.ndarray) -> tuple:
    """The terms of b, an r x r matrix: VoltageError if it is not square."""
    if b.shape[0] != b.shape[1]:
        raise VoltageError("matrix size mismatch")
    return _terms(b)


def _row_norm(terms: tuple, rows: int) -> int:
    """||x|| = max_w sum_{v,h} |x[w, v, h]| of the matrix of rows rows with
    these terms, exact: summed in the coefficients' own dtype, int64 counts
    of arcs or Python ints; 0 for a matrix with no rows."""
    w, coeff = terms[0], terms[3]
    norm = np.zeros(rows, dtype=coeff.dtype)
    np.add.at(norm, w, np.abs(coeff))
    return int(norm.max(initial=0))


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


def _product_terms(terms: tuple, r: int, primes: list, group: GroupTable) -> tuple:
    """The terms (w, v, h, coeff) of an r x r matrix B as (c, blocks) for
    _residue_product.

    The terms are grouped by column v, each column's in the order given,
    and each column is padded to the largest column count c. Slot s of
    column v reads, for each y, row offset[v, s] + mul[h, y] of the power's
    buffer, where offset[v, s] = w * n and element[v, s] = h. A pad has
    offset r * n, the buffer's zero row. Each block is
    (offset[:, slots, None], element[:, slots], scale) over a run of slots
    whose gather holds at most BLOCK_ENTRIES entries, or over one slot; a
    matrix with no terms has one block of no slots.
    scale is None when every coefficient is 1, which needs no product, and
    else the int64 (columns, slots, 1, k, 1) residues of each slot's
    coefficient.
    """
    n = group.order
    order = np.argsort(terms[1], kind="stable")  # by column
    w, v, h, coeff = (t[order] for t in terms)
    count = np.bincount(v, minlength=r)
    slot = np.arange(len(v)) - (np.cumsum(count) - count)[v]
    c = int(count.max(initial=0))
    offset = np.full((r, c, 1), r * n, dtype=np.int64)
    offset[v, slot, 0] = w * n
    element = np.zeros((r, c), dtype=np.int64)
    element[v, slot] = h
    scale = None
    if not np.all(coeff == 1):
        scale = np.zeros((r, c, 1, len(primes), 1), dtype=np.int64)
        scale[v, slot, 0, :, 0] = np.array([coeff % p for p in primes], dtype=np.int64).T
    size = max(1, BLOCK_ENTRIES // max(1, r * r * n * len(primes)))
    return c, [(offset[:, s:s + size], element[:, s:s + size],
                None if scale is None else scale[:, s:s + size])
               for s in range(0, max(c, 1), size)]


def _residue_product(a: np.ndarray, blocks: list, r: int, primes: list,
                     group: GroupTable) -> np.ndarray:
    """a B for the r x r matrix B given by its blocks (_product_terms): a
    and the result are power buffers, laid out as the comment above says,
    and the result's entries are congruent to the product's, unreduced.

    Each block is one gather of (columns, slots, n, k, r) entries and one
    sum over the slot axis, the first written to the result and each later
    one added to it. A pad's rows lie past the buffer's last, its zero row,
    and the gather clips them to it; no live row is clipped.

    Exact in int64: let every entry of a lie in [0, top]. With every
    coefficient 1, an entry of the result sums c entries of a, so it lies
    in [0, c * top], and the caller keeps c * top <= 2^63 - 1. Otherwise a
    is reduced (top < P <= 2^31, P the largest prime); a scaled entry is a
    product of two residues, below 2^62, reduced at once, so the result
    lies in [0, c * (P - 1)]. A column has at most r * n nonzeros, fewer
    than 2^32 for any B that fits in memory (r * n >= 2^32 would be 2^32
    entries of one column of b alone), so c * (P - 1) < 2^63.
    """
    n = group.order
    mod = np.array(primes)[:, None]

    def gather(offset, element, scale):
        part = a.take(offset + group.mul[element], axis=0, mode="clip")
        if scale is not None:
            part *= scale
            part %= mod
        return part

    out = np.empty((r * n + 1,) + a.shape[1:], dtype=np.int64)
    out[-1] = 0
    acc = out[:-1].reshape((r, n) + a.shape[1:])
    gather(*blocks[0]).sum(axis=1, out=acc)
    for block in blocks[1:]:
        acc += gather(*block).sum(axis=1)
    return out


def algebra_matmul(a: np.ndarray, b: np.ndarray, group: GroupTable) -> np.ndarray:
    """Exact product of group-algebra matrices, (ab)[u, v] = sum_w a[u, w] b[w, v].

    ab is block (0, 2) of M^2 for the square M = [[0, a, 0], [0, 0, b],
    [0, 0, 0]], so it is one power of M's terms. Every coefficient lies
    within ||M||^2 = max(||a||, ||b||)^2.
    """
    (p, q), s = a.shape[:2], b.shape[1]
    if q != b.shape[0]:
        raise VoltageError("matrix size mismatch")
    (aw, av, ah, ac), (bw, bv, bh, bc) = _terms(a), _terms(b)
    terms = (np.concatenate([aw, p + bw]), np.concatenate([p + av, p + q + bv]),
             np.concatenate([ah, bh]), np.concatenate([ac, bc]))
    return _matrix_power(terms, p + q + s, 2, group)[:p, p + q:]


def algebra_mul(x: np.ndarray, y: np.ndarray, group: GroupTable) -> np.ndarray:
    """Convolution product of two algebra elements: the 1 x 1 matrix case."""
    return algebra_matmul(x[None, None], y[None, None], group)[0, 0]


def _residue_powers(terms: tuple, r: int, length: int, primes: list, group: GroupTable):
    """B^0, B^1, ..., B^length of the r x r matrix B with these terms, one
    at a time, as (r, n, k, r) views res[w, g, i, u] of power buffers, the
    residues of B^l[u, w, g^-1] (the comment above). Each is made from the
    one before, so a caller that drops each before the next holds two at
    most. Entries are nonnegative int64s congruent to the
    coefficients but not reduced, so a caller reduces them before Garner or
    before it sums them; a reduction here rewrites the last power yielded
    in place, to the same residues.

    Exact in int64: every entry lies in [0, top]. The identity has top = 1.
    Entry (u, v, g) of I B sums the slots (w, h) of column v, each reading
    I[u, w, g h^-1], which is nonzero only for w = u and h = g: one slot
    of the column at most. So step 1 leaves B's coefficients (their
    residues below P, P the largest prime, on a scaled step), top = 1 when
    every coefficient is 1, and each later step sums c slots: top is
    c^(l - 1) after step l, attained by the all-ones B over the trivial
    group. Before a step with every coefficient 1, the power is reduced
    (top = P - 1) when c * top could pass 2^63 - 1; c * (P - 1) cannot
    (_residue_product). Before a scaled step it is reduced unless it
    already lies below P. Either way _residue_product's condition holds.
    """
    n = group.order
    c, blocks = _product_terms(terms, r, primes, group)
    scaled = blocks[0][2] is not None
    mod = np.array(primes)[:, None]
    power = np.zeros((r * n + 1, len(primes), r), dtype=np.int64)
    power[np.arange(r) * n + group.identity, :, np.arange(r)] = 1
    yield power[:-1].reshape(r, n, len(primes), r)
    top = 1
    for step in range(length):
        if c * top > _INT64_MAX or (scaled and top >= primes[0]):
            power %= mod
            top = primes[0] - 1
        power = _residue_product(power, blocks, r, primes, group)
        top = (primes[0] - 1 if scaled else top) * (c if step else 1)
        yield power[:-1].reshape(r, n, len(primes), r)


def _matrix_power(terms: tuple, r: int, ell: int, group: GroupTable) -> np.ndarray:
    """B^ell of the r x r matrix B with these terms, by ell multiplications
    with the sparse B; B^0 is the identity. Every coefficient of B^ell lies
    within ||B||^ell."""
    if ell < 0:
        raise VoltageError("negative power")
    primes = _primes_for(_row_norm(terms, r) ** ell)
    power = collections.deque(_residue_powers(terms, r, ell, primes, group), maxlen=1).pop()
    # the residues of B^ell[u, w, g], reduced and laid out [i, u, w, g]
    power = power[:, np.asarray(group.inverse)] % np.array(primes)[:, None]
    return _from_residues(power.transpose(2, 3, 0, 1), primes)


def algebra_matrix_power(b: np.ndarray, ell: int, group: GroupTable) -> np.ndarray:
    """B^ell by ell multiplications with the sparse B; B^0 is the identity.

    Every coefficient of B^ell lies within ||b||^ell.
    """
    return _matrix_power(_square_terms(b), len(b), ell, group)


def _trace_powers(terms: tuple, r: int, length: int, group: GroupTable) -> np.ndarray:
    """Exact traces of B^1..B^length, B the r x r matrix with these terms,
    as the columns of an (n, length) array. Every trace coefficient lies
    within r ||B||^length."""
    primes = _primes_for(r * _row_norm(terms, r) ** length)
    mod = np.array(primes)
    traces = np.zeros((len(primes), group.order, length), dtype=np.int64)
    diag = np.arange(r)
    powers = itertools.islice(_residue_powers(terms, r, length, primes, group), 1, None)
    for ell, power in enumerate(powers):
        # power[u, g, i, u] reduced, then summed over u: r residues, each
        # below 2^31; column g holds the trace's coefficient of g^-1
        traces[:, :, ell] = (power[diag, :, :, diag] % mod).sum(axis=0).T % mod[:, None]
    return _from_residues(traces[:, np.asarray(group.inverse)], primes)


def algebra_trace_powers(b: np.ndarray, length: int, group: GroupTable) -> np.ndarray:
    """Exact traces of B^1..B^length as the columns of an (n, length) array.

    Every trace coefficient lies within r ||b||^length.
    """
    return _trace_powers(_square_terms(b), len(b), length, group)


# ---------------------------------------------------------------------------
# The explicit lift
#
# One vertex (u, g) per base vertex and group element, vertex-major and
# element-index minor: (u, g) sits at index u * n + g, and is labelled
# "<u>.<g>". The library's oracles, the brute-force spectrum and the walks
# table's check (_walk_table), read the lift's arcs (_lift_arcs), and
# build_lift's dense adjacency is for callers and tests: the digraph alone
# fully describes the lift, so lift_to_json never builds it either.


def _lift_arcs(d: VoltageDigraph):
    """Lift tail and head indices as two (|arcs|, n) arrays.

    Each base arc (u, v, x) contributes the arcs (u, g) -> (v, g*x) for
    every group element g: row a lists arc a's n lift arcs, g = 0..n-1.
    """
    n = d.group.order
    u, v, x = d.arc_array.T
    return u[:, None] * n + np.arange(n), v[:, None] * n + d.group.mul[:, x].T


def _walk_table(d: VoltageDigraph, ell: int) -> tuple:
    """(B^ell, verdict): the walks table of d, and whether the explicit
    lift's walks agree with it entry by entry, or None past 200 lift
    vertices, where nothing of the lift is read.

    Walks of length ell from (u, e) to (v, g) are the coefficients of g in
    B^ell[u, v]: only the r rows of A^ell at the identity fibre are
    compared, so only they are stepped ell times over the lift's arcs
    (_lift_arcs, which reads the table's columns mul[:, x] where the exact
    engine reads its rows), in exact Python ints.
    """
    group, r, n = d.group, d.order, d.group.order
    power = _matrix_power(_quotient_terms(d), r, ell, group)
    if r * n > 200:
        return power, None
    tails, heads = (a.ravel() for a in _lift_arcs(d))
    rows = np.zeros((r, r * n), dtype=object)
    rows[np.arange(r), np.arange(r) * n + group.identity] = 1
    for _ in range(ell):
        walked, rows = rows, np.zeros_like(rows)
        np.add.at(rows, (slice(None), heads), walked[:, tails])
    return power, np.array_equal(rows.reshape(power.shape), power)


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
