"""Finite groups as explicit multiplication tables.

Elements are referred to by index everywhere inside the library; names are
only used for I/O. The multiplication convention is ``mul[g][x] = g * x``
(left factor picks the row), and voltages act on the right throughout.
"""

from __future__ import annotations

import json
import math
import reprlib
import weakref
from dataclasses import dataclass, field
from itertools import chain, product
from typing import Optional, Sequence

import numpy as np

MAX_ORDER = 4096
# The Latin-square and associativity checks, and the irrep checks of reps,
# work in blocks of at most this many entries at a time (cache-sized).
BLOCK_ENTRIES = 2 ** 16


class GroupError(ValueError):
    """Raised for malformed group tables or group-spec strings."""


@dataclass(frozen=True)
class GroupTable:
    """A finite group given by its full multiplication table, proven when
    made: GroupError unless the names are distinct and ``mul`` is a Latin
    square with an identity, inverses and an associative product. A caller's
    table is copied (frozen_here), and the other fields are derived from it.

    ``classes`` is the conjugacy-class partition, each class sorted, classes
    ordered by minimum element index with the identity's class first.
    ``generators`` is a generating set found greedily, each the first
    element not yet reached from the identity by right multiplication by
    the ones before (at most log2(order) elements; empty for the trivial
    group); validation of the table and of irreps goes through it. ``family``, no argument, is the canonical
    builtin spec (e.g. ``"dihedral:3"``) that only :func:`build_builtin_group`
    sets, on the table it built; any other table has ``None``.
    """

    element_names: tuple
    mul: np.ndarray
    family: Optional[str] = field(init=False, default=None)
    order: int = field(init=False)
    identity: int = field(init=False)
    inverse: tuple = field(init=False)
    classes: tuple = field(init=False)
    generators: tuple = field(init=False)

    def __post_init__(self):
        names, mul = tuple(self.element_names), self.mul
        n = len(names)
        if n == 0:
            raise GroupError("empty element list")
        if n > MAX_ORDER:
            raise GroupError(f"group order {n} exceeds supported maximum {MAX_ORDER}")
        if len(set(names)) != n:
            raise GroupError("duplicate element names")
        try:
            table = np.asarray(mul)
        except (TypeError, ValueError):  # ragged nesting
            table = None
        # integer dtypes only: floats would be truncated, ints past int64 come
        # out as dtype object, and booleans mixed with ints as int64
        if (
            table is None
            or table.dtype.kind not in "iu"
            or (table.ndim == 2 and table is not mul and has_bool(mul, 2))
        ):
            raise GroupError("multiplication table must be a square array of integers")
        if not frozen_here(table):  # a caller's table is copied
            table = table.astype(np.int64)
            table.setflags(write=False)
        if table.shape != (n, n):
            raise GroupError(f"multiplication table must be {n}x{n}, got {table.shape}")
        if table.min() < 0 or table.max() >= n:
            raise GroupError("table entry out of range")
        _check_latin_square(table)
        identity = _find_identity(table)
        inverse = _find_inverses(table, identity)
        generators = _generating_set(table, identity)
        _check_associativity(table, generators)
        classes = _conjugacy_partition(table, inverse, identity, generators)
        for name, value in (("element_names", names), ("mul", table), ("order", n),
                            ("identity", identity), ("inverse", inverse),
                            ("classes", classes), ("generators", generators)):
            object.__setattr__(self, name, value)

    def index_of(self, name: str) -> int:
        try:
            return self.element_names.index(name)
        except ValueError:
            raise GroupError(f"unknown element name {short_repr(name)}") from None

    def is_abelian(self) -> bool:
        # abelian iff every conjugacy class is a singleton
        return len(self.classes) == self.order

    def __repr__(self):
        tag = self.family or "custom"
        return f"GroupTable(order={self.order}, {tag})"


def decode_json(doc, error: type):
    """Parse a document given as JSON text; parsed documents pass through.

    Text that is not JSON raises ``error``, the calling parser's own type.
    """
    if isinstance(doc, (str, bytes)):
        try:
            return json.loads(doc)
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF, too deep
            raise error(f"document is not valid JSON: {exc}") from None
    return doc


def expect_group(group, error: type) -> GroupTable:
    """group, when it is a GroupTable, so proven; else ``error``, the caller's own type."""
    if not isinstance(group, GroupTable):
        raise error(f"expected a GroupTable, got {type(group).__name__}")
    return group


_SHORT = reprlib.Repr()
_SHORT.maxstring = 60


def short_repr(value) -> str:
    """repr(value) for an error message that echoes a document value: reprlib
    elides long strings, lists and nesting, and the whole is cut to 100 characters."""
    text = _SHORT.repr(value)
    return text if len(text) <= 100 else text[:97] + "..."


# id -> each array the library made read-only itself, while it lives
_FROZEN = weakref.WeakValueDictionary()


def freeze(a: np.ndarray) -> np.ndarray:
    """a made read-only with every array it views, for an array no caller
    holds; it is recorded, so that frozen_here(a) holds from then on."""
    view = a
    while isinstance(view, np.ndarray):
        view.setflags(write=False)
        view = view.base
    _FROZEN[id(a)] = a
    return a


def frozen_here(a) -> bool:
    """Whether freeze made a read-only. Only such an array is kept as given:
    a caller's array, read-only or not, is copied, since its owner can
    turn writing back on."""
    return _FROZEN.get(id(a)) is a


def has_bool(nested, depth: int) -> bool:
    """Whether a regular nested list of the given depth holds a bool.

    np.asarray promotes a JSON true or false mixed with numbers to a number
    ([false, 1] becomes int64), so parsers look for them before converting.
    """
    items = nested
    for _ in range(depth - 1):
        items = chain.from_iterable(items)
    return bool in map(type, items)


def _check_latin_square(mul: np.ndarray) -> None:
    # entries are already known to lie in range(n), so a row (column) is a
    # permutation iff every value occurs in it. A block of k rows (columns)
    # is keyed line * n + value (value * k + line), and every one of its
    # k * n keys occurs only if each of its lines is a permutation. The
    # buffers are made once: a fresh block-sized array per block costs
    # more than the check
    n = mul.shape[0]
    size = min(n, max(1, BLOCK_ENTRIES // n))
    buffer, seen = np.empty(size * n, dtype=np.int64), np.empty(size * n, dtype=bool)
    for start in range(0, n, size):
        rows = mul[start:start + size]
        keys = buffer[:rows.size].reshape(rows.shape)
        np.add(rows, n * np.arange(len(rows))[:, None], out=keys)
        if not _covers(keys, seen):
            raise GroupError("multiplication table is not a Latin square (bad row)")
    for start in range(0, n, size):
        cols = mul[:, start:start + size]  # read row by row, not down each column
        keys = buffer[:cols.size].reshape(cols.shape)
        np.multiply(cols, cols.shape[1], out=keys)
        keys += np.arange(cols.shape[1])
        if not _covers(keys, seen):
            raise GroupError("multiplication table is not a Latin square (bad column)")


def _covers(keys: np.ndarray, seen: np.ndarray) -> bool:
    """Whether keys, all in range(keys.size), hit every value in it."""
    seen[:keys.size] = False
    seen[keys.ravel()] = True
    return bool(seen[:keys.size].all())


def _find_identity(mul: np.ndarray) -> int:
    # in a Latin square only one row maps 0 to 0, so only it can be the identity
    n = mul.shape[0]
    target = np.arange(n)
    e = int(np.argmax(mul[:, 0] == 0))
    if np.array_equal(mul[e], target) and np.array_equal(mul[:, e], target):
        return e
    raise GroupError("table has no identity element")


def _find_inverses(mul: np.ndarray, identity: int) -> tuple:
    inv = np.argmax(mul == identity, axis=1)
    bad = np.flatnonzero(mul[inv, np.arange(mul.shape[0])] != identity)
    if bad.size:
        raise GroupError(f"element {bad[0]} has no two-sided inverse")
    return tuple(inv.tolist())


def _generating_set(mul: np.ndarray, identity: int) -> tuple:
    """Greedy generators: add the first element not yet reached, until every
    element is reached.

    The reached set is the identity's component of the links x -- x*s over
    the generators s so far, one connected_components pass per generator.
    The table is already a Latin square, so right multiplication by s is a
    permutation of the elements, and its inverse is one of its powers: the
    component is exactly the set of left-bracketed products
    (..((e*s_1)*s_2)..)*s_k of generators. Light's test (_check_associativity)
    needs no more: the elements it passes are closed under products, so if
    every generator passes, so does every such product, that is, every
    element. In a group the component is the subgroup the generators
    generate, the set a closure under products reaches, so the generators
    are the ones that closure rule picks; each new one at least doubles the
    reached subgroup, giving at most log2(n) generators.
    """
    n = mul.shape[0]
    nodes = np.arange(n)
    reached = nodes == identity
    gens = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        label = connected_components(n, np.tile(nodes, len(gens)), mul[:, gens].T.ravel())
        reached = label == label[identity]
    return tuple(gens)


def _check_associativity(mul: np.ndarray, generators: tuple) -> None:
    """Light's associativity test over a generating set.

    The elements a with (x*a)*y == x*(a*y) for all x, y are closed under
    products and include the identity, so if every generator passes, the
    whole table is associative. Each generator's two sides are compared
    in row blocks of at most BLOCK_ENTRIES entries, each side one
    contiguous gather, so the first failing (x, y) of a generator is the
    first in row-major order, the one the whole n x n comparison names.
    """
    n = mul.shape[0]
    size = max(1, BLOCK_ENTRIES // n)
    for a in generators:
        at_left, at_right = mul[:, a], mul[a]
        for start in range(0, n, size):
            left = mul.take(at_left[start:start + size], axis=0)   # (x*a)*y
            right = mul[start:start + size].take(at_right, axis=1)  # x*(a*y)
            if not np.array_equal(left, right):
                i, y = np.argwhere(left != right)[0]
                x = start + i
                raise GroupError(
                    f"associativity fails at ({x}, {a}, {y}): "
                    f"({x}*{a})*{y} = {left[i, y]} != {x}*({a}*{y}) = {right[i, y]}"
                )


def connected_components(m: int, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Components of the graph on nodes 0..m-1 with undirected links
    tails[i] -- heads[i]: label[i] is the smallest node of i's component.
    Min-label propagation with pointer jumping (Shiloach and Vishkin,
    J. Algorithms 3, 1982); labels only fall, each stays in its component,
    and at the fixed point every link joins equal labels."""
    label = np.arange(m)
    while True:
        old = label
        label = label.copy()
        np.minimum.at(label, tails, label[heads])
        np.minimum.at(label, heads, label[tails])
        label = label[label]
        if np.array_equal(label, old):
            return label


def _conjugacy_partition(
    mul: np.ndarray, inverse: tuple, identity: int, generators: tuple
) -> tuple:
    """The conjugacy classes, the components of the links x -- s x s^-1 over
    generators s. A stable argsort of the labels lists each class ascending,
    the classes by smallest element, and the identity's class {identity} first."""
    n = mul.shape[0]
    gens = np.asarray(generators, dtype=np.int64)
    inv = np.asarray(inverse)
    conj = mul[mul[gens, :], inv[gens][:, None]]  # conj[k, x] = s_k x s_k^{-1}
    label = connected_components(n, np.tile(np.arange(n), len(gens)), conj.reshape(-1))
    label[identity] = -1  # sorts the identity's class first
    order = np.argsort(label, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(label[order])) + 1).tolist(), n]
    order = order.tolist()
    return tuple(tuple(order[a:b]) for a, b in zip(cuts, cuts[1:]))


def make_group_table(element_names: Sequence[str], mul: Sequence[Sequence[int]]) -> GroupTable:
    """The GroupTable of names and a raw table, proven when made (see
    GroupTable), with no ``family``: only build_builtin_group sets one."""
    return GroupTable(element_names, mul)


# ---------------------------------------------------------------------------
# Builtin families


def _windows(m: int) -> np.ndarray:
    """The (m + 1) x m view [s, b] = (s + b) mod m: row s is the window at s
    of arange(2m) mod m, so a table built from it needs no m x m modulo."""
    return np.lib.stride_tricks.sliding_window_view(np.arange(2 * m) % m, m)


def _cyclic_table(m: int) -> tuple:
    return [f"g^{j}" for j in range(m)], _windows(m)[:m].copy()


def _dihedral_table(m: int) -> tuple:
    # order 2m: r^j at index j, r^j*s at m + j; r^m = s^2 = (r s)^2 = identity
    names = [f"r^{j}" for j in range(m)] + [f"r^{j}*s" for j in range(m)]
    windows = _windows(m)
    plus = windows[:m]             # r^a r^b = r^(a+b)
    minus = windows[1:, ::-1]      # [a, b] = (a + 1 + m - 1 - b) mod m = (a - b) mod m
    mul = np.empty((2 * m, 2 * m), dtype=np.int64)
    mul[:m, :m] = plus
    np.add(plus, m, out=mul[:m, m:])    # r^a (r^b s) = r^(a+b) s
    np.add(minus, m, out=mul[m:, :m])   # (r^a s) r^b = r^(a-b) s
    mul[m:, m:] = minus                 # (r^a s)(r^b s) = r^(a-b)
    return names, mul


# kind -> (table builder, order per unit of m, least m, message for a smaller m)
_FAMILIES = {
    "cyclic": (_cyclic_table, 1, 1, "cyclic group order must be >= 1"),
    "dihedral": (_dihedral_table, 2, 2, "dihedral parameter must be >= 2"),
}


def parse_builtin_spec(spec: str) -> list:
    """The factors (kind, m) of a builtin spec, one for a single family, with
    every order, a product's too, checked against MAX_ORDER."""
    spec = spec.strip()
    if spec.startswith("product:"):
        parts = spec[len("product:"):].split(",")
        if len(parts) < 2:
            raise GroupError(f"product spec needs at least two factors: {short_repr(spec)}")
        factors = []
        for part in parts:
            if part.startswith("product:"):
                raise GroupError("nested product specs are not supported")
            factors += parse_builtin_spec(part)  # one factor: a part has no comma
        n = math.prod(_FAMILIES[kind][1] * m for kind, m in factors)
        if n > MAX_ORDER:
            raise GroupError(f"product order {short_repr(n)} exceeds supported maximum {MAX_ORDER}")
        return factors
    kind, _, arg = spec.partition(":")
    try:  # n is ASCII digits: int() alone takes "+3", " 3", "3_0" and other scripts' digits
        if not (arg.isascii() and arg.isdigit()):
            raise ValueError
        m = int(arg)  # past the interpreter's digit limit, this raises too
    except ValueError:
        raise GroupError(f"malformed group spec {short_repr(spec)}") from None
    if kind not in _FAMILIES:
        raise GroupError(f"unknown group family {short_repr(kind)} in spec {short_repr(spec)}")
    _, per_m, least, too_small = _FAMILIES[kind]
    if per_m * m > MAX_ORDER:
        raise GroupError(f"order {short_repr(per_m * m)} exceeds supported maximum {MAX_ORDER}")
    if m < least:
        raise GroupError(too_small)
    return [(kind, m)]


def build_builtin_group(spec: str) -> GroupTable:
    """A builtin group from a spec: ``cyclic:n`` (n >= 1), ``dihedral:n`` (n >= 2,
    order 2n) or ``product:<spec>,<spec>,...`` of these, a product's table
    composed from its factors' plain arrays and validated once, as a whole.
    Only here is ``family`` set: the spec in canonical form, e.g. ``cyclic:7``."""
    factors = parse_builtin_spec(spec)
    family = ",".join(f"{kind}:{m}" for kind, m in factors)
    tables = [_FAMILIES[kind][0](m) for kind, m in factors]
    names, mul = tables.pop(0)
    if tables:  # a product: element (i, j) of G x H at index i * |H| + j
        names = ["(" + ",".join(t) + ")" for t in product(names, *(t[0] for t in tables))]
        family = "product:" + family
        for _, b in tables:
            n = len(mul) * len(b)
            mul = (mul[:, None, :, None] * len(b) + b[None, :, None, :]).reshape(n, n)
        del tables, b  # only the product's table is kept while it is validated
    # frozen here, so that the GroupTable proves and keeps it uncopied
    g = make_group_table(names, freeze(mul))
    object.__setattr__(g, "family", family)  # the tag of a table proven above
    return g


def parse_group_table(doc) -> GroupTable:
    """Parse a group-table document (JSON text or parsed dict).

    Format: ``{"elements": ["e", "a", ...], "mul": [[...], ...]}`` where
    ``mul[i][j]`` is the index of element_i * element_j. Identity, inverses,
    and conjugacy classes are inferred; all structural invariants are
    verified.
    """
    doc = decode_json(doc, GroupError)
    if not isinstance(doc, dict) or "elements" not in doc or "mul" not in doc:
        raise GroupError('group-table document must have "elements" and "mul" keys')
    elements = doc["elements"]
    if not isinstance(elements, list) or not all(isinstance(x, str) for x in elements):
        raise GroupError('"elements" must be a list of names')
    return make_group_table(elements, doc["mul"])
