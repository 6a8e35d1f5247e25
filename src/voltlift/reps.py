"""Irreducible representations and character tables.

Builtin constructions cover cyclic groups, dihedral groups, and direct
products of these; anything else is supplied by the user as a JSON document
and validated here. Representations are always compared through their
character rows, never matrix-by-matrix, since they are only defined up to
equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .groups import GroupError, GroupTable, build_builtin_group, decode_json, has_bool

# Entrywise tolerance for the homomorphism check; aggregate sums (zero-sum,
# orthogonality) use 1e-8 * n. Roots of unity are computed, not exact.
HOM_TOL = 1e-10
SUM_TOL = 1e-8


class RepresentationError(ValueError):
    """Raised when a supplied representation or character table is invalid."""


@dataclass(frozen=True)
class Irrep:
    """One irreducible representation: element index -> dim x dim matrix."""

    dim: int
    matrices: np.ndarray  # shape (n, dim, dim), complex

    def __post_init__(self):
        self.matrices.setflags(write=False)

    def character(self) -> np.ndarray:
        return np.trace(self.matrices, axis1=1, axis2=2)


@dataclass(frozen=True)
class IrrepSet:
    """A complete set of irreps for a group, the trivial one first."""

    group: GroupTable
    irreps: tuple

    @property
    def dims(self) -> tuple:
        return tuple(r.dim for r in self.irreps)


@dataclass(frozen=True)
class CharacterTable:
    """Character values per element index, one row per irrep."""

    group: GroupTable
    rows: np.ndarray  # shape (nu, n), complex

    def __post_init__(self):
        self.rows.setflags(write=False)

    @property
    def dims(self) -> tuple:
        e = self.group.identity
        return tuple(int(round(v.real)) for v in self.rows[:, e])


def _validate_irrep(group: GroupTable, irrep: Irrep, label: str) -> None:
    n = group.order
    d = irrep.dim
    mats = irrep.matrices
    if mats.shape != (n, d, d):
        raise RepresentationError(
            f"{label}: expected {n} matrices of size {d}x{d}, got shape {mats.shape}"
        )
    if not np.allclose(mats[group.identity], np.eye(d), atol=HOM_TOL):
        raise RepresentationError(f"{label}: identity element is not mapped to I")
    # rho(g) rho(s) == rho(g s) for every g and generator s, together with
    # rho(e) == I, gives rho(g) rho(h) == rho(g h) for all pairs by induction
    # on the word length of h
    gens = list(group.generators) or [group.identity]
    # one BLAS product; a stacked matmul of tiny matrices is ~10x slower
    prod = np.tensordot(mats, mats[gens], axes=(2, 1)).transpose(2, 0, 1, 3)
    expected = mats[group.mul[:, gens].T]          # [k, g] = rho(g s_k)
    err = np.abs(prod - expected).reshape(len(gens), n, -1).max(axis=2)
    if err.max() > HOM_TOL:
        k, a = np.unravel_index(np.argmax(err), err.shape)
        b = gens[k]
        raise RepresentationError(
            f"{label}: not a homomorphism at pair "
            f"({group.element_names[a]!r}, {group.element_names[b]!r}), "
            f"max entry error {err[k, a]:.3e}"
        )


def _check_zero_sum(group: GroupTable, irrep: Irrep, label: str) -> None:
    total = irrep.matrices.sum(axis=0)
    if np.abs(total).max() > SUM_TOL * group.order:
        raise RepresentationError(f"{label}: non-trivial irrep with nonzero element sum")


def _is_trivial_row(row: np.ndarray) -> bool:
    return bool(np.allclose(row, 1.0, atol=1e-8))


def _check_row_orthogonality(group: GroupTable, rows: np.ndarray) -> None:
    n = group.order
    gram = rows @ rows.conj().T
    target = n * np.eye(len(rows))
    err = np.abs(gram - target)
    if err.max() > SUM_TOL * n:
        i, j = np.unravel_index(np.argmax(err), err.shape)
        raise RepresentationError(
            f"character rows {i} and {j} violate orthogonality "
            f"(<chi_{i}, chi_{j}> = {gram[i, j]:.6g}, expected {target[i, j]:.0f})"
        )


def validate_irrep_set(s: IrrepSet) -> None:
    """Assert every Irrep/IrrepSet invariant, raising on the first failure."""
    group = s.group
    n = group.order
    nu = len(group.classes)
    if len(s.irreps) != nu:
        raise RepresentationError(
            f"expected {nu} irreps (one per conjugacy class), got {len(s.irreps)}"
        )
    if sum(r.dim ** 2 for r in s.irreps) != n:
        raise RepresentationError(
            f"sum of squared dimensions {sum(r.dim ** 2 for r in s.irreps)} != group order {n}"
        )
    rows = []
    for i, irrep in enumerate(s.irreps):
        label = f"irrep {i} (dim {irrep.dim})"
        _validate_irrep(group, irrep, label)
        if i > 0:
            _check_zero_sum(group, irrep, label)
        rows.append(irrep.character())
    _check_row_orthogonality(group, np.asarray(rows))
    if not _is_trivial_row(rows[0]):
        raise RepresentationError("first irrep is not the trivial representation")


def _snap_integers(rows: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Replace values within tol of a Gaussian integer by that integer.

    Character values are algebraic integers; when the true value is an
    ordinary integer (as for all dihedral characters), snapping removes the
    rounding noise of the trigonometric construction and keeps downstream
    power sums exact.
    """
    re = np.round(rows.real)
    im = np.round(rows.imag)
    snapped = re + 1j * im
    close = np.abs(rows - snapped) < tol
    return np.where(close, snapped, rows)


def character_table(s: IrrepSet) -> CharacterTable:
    """Character table of an IrrepSet: rows[i][g] = trace of irrep i at g."""
    rows = _snap_integers(np.asarray([r.character() for r in s.irreps]))
    return CharacterTable(group=s.group, rows=rows)


def validate_character_table(t: CharacterTable) -> None:
    group = t.group
    nu = len(group.classes)
    if t.rows.shape != (nu, group.order):
        raise RepresentationError(
            f"character table must be {nu} x {group.order}, got {t.rows.shape}"
        )
    class_min = np.empty(group.order, dtype=np.int64)  # element -> its class's first element
    for cls in group.classes:
        class_min[list(cls)] = cls[0]
    off = np.argwhere(np.abs(t.rows - t.rows[:, class_min]) > 1e-9)
    if off.size:
        i, g = off[0]
        cls = next(c for c in group.classes if g in c)
        raise RepresentationError(f"row {i} is not constant on class {cls}")
    d = t.rows[:, group.identity]
    degree = np.round(d.real)
    bad = (np.abs(d.imag) > 1e-9) | (np.abs(d.real - degree) > 1e-9) | (degree < 1)
    if bad.any():
        i = int(np.argmax(bad))
        raise RepresentationError(
            f"row {i}: value at identity is {d[i]:.6g}, not a positive integer"
        )
    if not _is_trivial_row(t.rows[0]):
        raise RepresentationError("first character row is not all ones")
    _check_row_orthogonality(group, t.rows)


def validate_column_orthogonality(t: CharacterTable) -> None:
    """Second (column) orthogonality relation, used as an extra validator."""
    group = t.group
    reps = [cls[0] for cls in group.classes]
    cols = t.rows[:, reps]
    gram = cols.T @ cols.conj()  # [g, h] = sum over irreps of chi(g) conj(chi(h))
    expected = np.diag([group.order / len(cls) for cls in group.classes])
    err = np.abs(gram - expected)
    if err.max() > SUM_TOL * group.order:
        gi, hi = np.unravel_index(np.argmax(err), err.shape)
        raise RepresentationError(
            f"column orthogonality fails for elements {reps[gi]}, {reps[hi]}: "
            f"{gram[gi, hi]:.6g} != {expected[gi, hi]:.6g}"
        )


# ---------------------------------------------------------------------------
# Builtin irreps


def _cyclic_irreps(group: GroupTable, m: int) -> list:
    k = np.arange(m)
    table = np.exp(2j * np.pi * k[:, None] * k[None, :] / m)  # [k, j] = w^(kj)
    return [Irrep(dim=1, matrices=row.reshape(m, 1, 1)) for row in table]


def _dihedral_irreps(group: GroupTable, m: int) -> list:
    # element indices: j -> r^j, m+j -> r^j * s
    n = 2 * m
    powers = np.arange(m)

    def one_dim(chi_r, chi_s):
        rot = chi_r ** powers
        vals = np.concatenate([rot, rot * chi_s]).astype(complex)
        return Irrep(dim=1, matrices=vals.reshape(n, 1, 1))

    irreps = [one_dim(1.0, 1.0), one_dim(1.0, -1.0)]
    if m % 2 == 0:
        irreps.append(one_dim(-1.0, 1.0))
        irreps.append(one_dim(-1.0, -1.0))
    two_dim_count = (m - 1) // 2 if m % 2 else m // 2 - 1
    j = np.arange(1, two_dim_count + 1)[:, None]
    theta = 2 * np.pi * j * powers[None, :] / m
    c, s = np.cos(theta), np.sin(theta)
    # r^a -> rotation by theta; r^a s -> rotation @ diag(1, -1)
    rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    refl = np.stack([np.stack([c, s], -1), np.stack([s, -c], -1)], -2)
    mats = np.concatenate([rot, refl], axis=1).astype(complex)
    irreps.extend(Irrep(dim=2, matrices=block) for block in mats)
    return irreps


def _product_irreps(group: GroupTable, factor_specs: list) -> list:
    factors = [build_builtin_group(spec) for spec in factor_specs]
    factor_irreps = [builtin_irreps(f).irreps for f in factors]
    combos = [()]
    for irreps in factor_irreps:
        combos = [c + (r,) for c in combos for r in irreps]
    out = []
    for combo in combos:
        # Kronecker product for every element pair at once; element indices
        # are lexicographic, first factor most significant
        mats = combo[0].matrices
        for r in combo[1:]:
            (na, di, dj), (nb, dk, dl) = mats.shape, r.matrices.shape
            mats = np.einsum("aij,bkl->abikjl", mats, r.matrices)
            mats = mats.reshape(na * nb, di * dk, dj * dl)
        out.append(Irrep(dim=mats.shape[1], matrices=mats))
    return out


def builtin_irreps(g: GroupTable) -> IrrepSet:
    """A complete validated IrrepSet for a group built by build_builtin_group."""
    if g.family is None:
        raise RepresentationError(
            "group has no builtin family tag; supply irreps via load_irreps"
        )
    kind, _, arg = g.family.partition(":")
    if kind == "cyclic":
        irreps = _cyclic_irreps(g, int(arg))
    elif kind == "dihedral":
        irreps = _dihedral_irreps(g, int(arg))
    elif kind == "product":
        irreps = _product_irreps(g, arg.split(","))
    else:
        raise RepresentationError(f"unsupported builtin family {g.family!r}")
    s = IrrepSet(group=g, irreps=tuple(irreps))
    validate_irrep_set(s)
    return s


# ---------------------------------------------------------------------------
# User-supplied documents


def _matrix_from_json(entry) -> np.ndarray:
    # each scalar is a [re, im] pair of JSON numbers: the dtype check
    # rejects strings such as "1", which np.asarray(dtype=float) would parse,
    # and has_bool a true or false, which np.asarray would make a number
    try:
        arr = np.asarray(entry)
    except (TypeError, ValueError):  # ragged nesting
        arr = None
    if arr is None or arr.dtype.kind not in "iuf":
        raise RepresentationError("matrix entry is not a nested list of [re, im] pairs")
    if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 2:
        raise RepresentationError(f"matrix entry has bad shape {arr.shape}")
    if has_bool(entry, 3):
        raise RepresentationError("matrix entry is not a nested list of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def load_irreps(doc, g: GroupTable) -> IrrepSet:
    """Load and validate a user-supplied complete set of irreps.

    Document format: ``[{"dim": d, "matrices": {"<element-name>":
    [[[re, im], ...], ...]}}, ...]``. The trivial irrep is moved to the
    front if it appears elsewhere.
    """
    doc = decode_json(doc, RepresentationError)
    if not isinstance(doc, list):
        raise RepresentationError("irreps document must be a JSON list")
    irreps = []
    for i, entry in enumerate(doc):
        if not (
            isinstance(entry, dict)
            and isinstance(entry.get("dim"), int)
            and not isinstance(entry["dim"], bool)
            and entry["dim"] >= 1
            and isinstance(entry.get("matrices"), dict)
        ):
            raise RepresentationError(
                f'irrep {i}: expected an object with a positive integer "dim" '
                'and a "matrices" object'
            )
        d = entry["dim"]
        mats = []
        for name in g.element_names:  # in element-index order
            if name not in entry["matrices"]:
                raise RepresentationError(f"irrep {i}: missing matrix for element {name!r}")
            m = _matrix_from_json(entry["matrices"][name])
            if m.shape != (d, d):
                raise RepresentationError(
                    f"irrep {i}: matrix for {name!r} has shape {m.shape}, expected ({d}, {d})"
                )
            mats.append(m)
        irreps.append(Irrep(dim=d, matrices=np.array(mats)))
    # move the trivial irrep first if present elsewhere
    for i, irrep in enumerate(irreps):
        if irrep.dim == 1 and _is_trivial_row(irrep.character()):
            if i != 0:
                irreps.insert(0, irreps.pop(i))
            break
    s = IrrepSet(group=g, irreps=tuple(irreps))
    validate_irrep_set(s)
    return s


def _is_list_of_lists(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, list) for v in value)


def load_character_table(doc, g: GroupTable) -> CharacterTable:
    """Load and validate a character table given per-class values.

    Document format: ``{"classes": [["e"], ["s", "r*s", ...], ...],
    "rows": [[[re, im], ...], ...]}`` with one value per class per row.
    """
    doc = decode_json(doc, RepresentationError)
    if not (
        isinstance(doc, dict)
        and _is_list_of_lists(doc.get("classes"))
        and _is_list_of_lists(doc.get("rows"))
    ):
        raise RepresentationError(
            'character-table document must be an object with "classes" and '
            '"rows" lists of lists'
        )
    try:
        classes = [tuple(sorted(g.index_of(name) for name in cls)) for cls in doc["classes"]]
    except GroupError as exc:
        raise RepresentationError(f"document classes: {exc}") from None
    if sorted(classes) != sorted(g.classes):
        raise RepresentationError(
            "document classes do not match the group's conjugacy classes"
        )
    rows_in = doc["rows"]
    nu = len(g.classes)
    if len(rows_in) != nu:
        raise RepresentationError(f"expected {nu} character rows, got {len(rows_in)}")
    rows = np.empty((nu, g.order), dtype=complex)
    for i, row in enumerate(rows_in):
        if len(row) != len(classes):
            raise RepresentationError(f"row {i} has {len(row)} values, expected {len(classes)}")
        for cls, val in zip(classes, row):
            if not (isinstance(val, list) and len(val) == 2
                    and all(isinstance(x, (int, float)) for x in val)):
                raise RepresentationError(f"row {i}: value {val!r} is not a [re, im] pair")
            rows[i, list(cls)] = complex(val[0], val[1])
    # put the trivial row first if it is elsewhere
    order = sorted(range(nu), key=lambda i: not _is_trivial_row(rows[i]))
    rows = rows[order]
    t = CharacterTable(group=g, rows=rows)
    validate_character_table(t)
    return t
