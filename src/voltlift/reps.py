"""Irreducible representations and character tables.

Builtin constructions cover cyclic groups, dihedral groups, and direct
products of these; anything else is supplied by the user as a JSON document
and validated here. Representations are validated and compared through
their character rows, since they are only defined up to equivalence; only
the conjugate pairing (IrrepSet.conjugates) compares matrices, exactly,
and an irrep it cannot pair is merely solved on its own.
"""

from __future__ import annotations

import itertools
import types
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from .groups import (
    BLOCK_ENTRIES, GroupTable, decode_json, expect_group, freeze, frozen_here, has_bool,
    parse_builtin_spec, short_repr,
)

# Entrywise tolerance for the homomorphism check; aggregate sums (zero-sum,
# orthogonality) use 1e-8 * n. Roots of unity are computed, not exact.
HOM_TOL = 1e-10
SUM_TOL = 1e-8
SNAP_TOL = 1e-9  # character values this close to a Gaussian integer snap to it


class RepresentationError(ValueError):
    """Raised when a supplied representation or character table is invalid."""


@dataclass(frozen=True)
class IrrepSet:
    """A complete, validated set of irreps for a group, the trivial one first.

    ``stacks``, a read-only mapping, holds at ``stacks[d]`` the irreps of
    dimension d as one read-only (K_d, n, d, d) array: element index g of
    its q-th row is rho(g). The irrep order, that of the character rows,
    is dimension-major: the stacks by ascending d, each in row order. So
    ``dims``, derived from the stacks, is non-decreasing, and row q of
    stacks[d] is irrep dims.index(d) + q. A stack is float64 when it has no
    nonzero imaginary part, as every dihedral one has, and complex128
    otherwise, so its dtype is the record of its realness: the irrep routes
    build, solve and write a float64 stack's images in float64. A given
    stack is kept only when the library froze it itself, its maker having
    chosen the dtype; a caller's array is copied (_stored_stack). Every
    IrrepSet is validated when made (validate_irrep_set), which sets
    ``characters``, the read-only (nu, n) complex character rows: for an
    all-1-dim complex128 set whose values snapping leaves bit for bit, as
    every builtin cyclic set's, the view stacks[1][:, :, 0, 0], and
    otherwise a snapped copy, so an abelian set holds its n x n values
    once. ``conjugates``
    pairs each irrep with the one whose matrices at the generators are
    exactly the complex conjugates of its own: for a quotient matrix B with
    integer coefficients the partner's image is conj(rho(B)), with the
    conjugate eigenvalues, so the repr route solves one irrep of each pair.
    """

    group: GroupTable
    stacks: Mapping
    characters: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        expect_group(self.group, RepresentationError)
        # frozen before validation, so no route sees matrices no check saw
        stacks = {d: _stored_stack(stack, f"stack of dim {short_repr(d)}")
                  for d, stack in self.stacks.items()}
        for d, stack in stacks.items():  # before sorting, which needs comparable keys
            _check_stack_shape(d, stack, self.group.order)
        object.__setattr__(self, "stacks", types.MappingProxyType(dict(sorted(stacks.items()))))
        object.__setattr__(self, "characters", freeze(validate_irrep_set(self)))

    @cached_property
    def dims(self) -> tuple:
        return tuple(d for d, stack in self.stacks.items() for _ in range(len(stack)))

    @cached_property
    def conjugates(self) -> np.ndarray:
        """Read-only (nu,) int array, an involution computed on first read:
        conjugates[i] = j when rho_j(s) = conj(rho_i(s)) exactly, entry by
        entry, at every generator s, and i when no irrep is.

        Homomorphisms that agree on a generating set are equal, so then
        rho_j = conj(rho_i) and chi_j = conj(chi_i); distinct irreps differ
        at some generator, so a partner is unique. Per stack, one np.unique
        over the bytes of each irrep's generator images and of their
        conjugates (+ 0, so that -0.0 reads as 0.0) labels equal keys alike,
        with no tolerance. An irrep whose conjugate is written in another
        basis, or is one ulp off, is its own partner and is solved on its own.
        """
        gens = list(self.group.generators) or [self.group.identity]
        pairing = np.arange(len(self.dims))
        for d, stack in self.stacks.items():
            first, k = self.dims.index(d), len(stack)
            at_gens = (stack[:, gens] + 0).reshape(k, -1)
            keys = np.ascontiguousarray(np.concatenate([at_gens, at_gens.conj() + 0]))
            _, seen, label = np.unique(keys.view(f"V{keys.itemsize * keys.shape[1]}")[:, 0],
                                       return_index=True, return_inverse=True)
            partner = seen[label[k:]]  # the first key equal to conj(rho_q)'s, < k iff an irrep's
            pairing[first:first + k] = first + np.where(partner < k, partner, np.arange(k))
        pairing.setflags(write=False)
        return pairing


def _numbers(a, what: str) -> np.ndarray:
    """a as one complex array. What numpy cannot read as one, a ragged
    list say, raises RepresentationError."""
    try:
        return np.asarray(a, dtype=complex)
    except (TypeError, ValueError):
        raise RepresentationError(f"{what}: not one array of numbers") from None


def _unwritable(a, what: str) -> np.ndarray:
    """a as a read-only complex array: kept when the library froze it
    itself (groups.frozen_here), else copied and frozen."""
    a = _numbers(a, what)
    return a if frozen_here(a) else freeze(a.copy())


def _real_if_exact(a: np.ndarray) -> np.ndarray:
    """A complex array's real part, a view, when none of its imaginary
    parts is nonzero (-0.0 counts as zero, 5e-324 does not); else the array."""
    return a if a.imag.any() else a.real


def _stored_stack(a, what: str) -> np.ndarray:
    """a as IrrepSet stores a stack: kept when the library froze it itself
    (groups.frozen_here), float64 or complex128 as its maker built it, with
    no scan; else copied and frozen, float64 when no imaginary part is
    nonzero (_real_if_exact) and complex128 otherwise."""
    return a if frozen_here(a) else freeze(_real_if_exact(_numbers(a, what)).copy())


@dataclass(frozen=True)
class CharacterTable:
    """Character values per element index, one row per irrep: ``rows`` is
    a read-only (nu, n) complex array, copied unless the library froze it
    itself (_unwritable). It is proven when made, as an IrrepSet is: the
    rows are checked to be finite, nu x n, with positive integer degrees
    chi_i(e) whose squares sum to n, and put in dimension-major order by a
    stable sort on degree, which copies nothing when they are in order;
    ``dims``, the sorted degrees, is set then; and _check_characters proves
    them the irreducible characters of the group. Only character_table(s)
    skips that proof: s proved its rows."""

    group: GroupTable
    rows: np.ndarray  # shape (nu, n), complex
    dims: tuple = field(init=False)

    def __post_init__(self):
        group = expect_group(self.group, RepresentationError)
        rows = _unwritable(self.rows, "character rows")
        nu, n = len(group.classes), group.order
        if rows.shape != (nu, n):
            raise RepresentationError(f"character rows: expected shape ({nu}, {n}), "
                                      f"got {rows.shape}")
        # every comparison with nan is false, so no later check would see one
        if not np.isfinite(rows).all():
            raise RepresentationError("character rows hold a non-finite entry")
        d = rows[:, group.identity]
        degree = np.round(d.real)
        good = (np.abs(d.imag) <= 1e-9) & (np.abs(d.real - degree) <= 1e-9) & (degree >= 1)
        if not good.all():
            i = int(np.argmin(good))
            raise RepresentationError(f"row {i}: value at identity is {d[i]:.6g}, "
                                      "not a positive integer")
        squares = sum(int(k) ** 2 for k in degree)
        if squares != n:
            raise RepresentationError(f"sum of squared degrees {squares} != group order {n}")
        if (np.diff(degree) < 0).any():
            rows, degree = freeze(rows[np.argsort(degree, kind="stable")]), np.sort(degree)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "dims", tuple(int(k) for k in degree))
        _check_characters(self)


def _reject_first(bad: np.ndarray, first: int, d: int, what: str) -> None:
    if bad.any():
        raise RepresentationError(f"irrep {first + int(np.argmax(bad))} (dim {d}): {what}")


def _proven_blocks(group: GroupTable, stack: np.ndarray, first: int):
    """Prove the irreps first + k of one (K, n, d, d) stack, laid out as
    IrrepSet holds it, in blocks of at most BLOCK_ENTRIES entries per
    product; yield (start, a), a[k, i, j, g] = stack[start + k][g][i, j],
    for each block once it is proven: every entry finite, rho(e) = I,
    rho(g) rho(s) = rho(g s) for every element g and generator s (which
    gives the homomorphism property by induction on word length), and a
    zero element sum for all but irrep 0."""
    n, d = group.order, stack.shape[-1]
    gens = list(group.generators) or [group.identity]
    size = max(1, BLOCK_ENTRIES // (n * d * d * len(gens)))
    for start in range(0, len(stack), size):
        a = np.ascontiguousarray(stack[start:start + size].transpose(0, 2, 3, 1))
        num, at = len(a), first + start
        # every comparison with nan is false, so no later check would see one;
        # a complex block is tested as its float view, in one real pass
        if not np.isfinite(a.view(float) if a.dtype == complex else a).all():
            raise RepresentationError(f"stack of dim {d}: holds a non-finite entry")
        off = np.abs(a[..., group.identity] - np.eye(d)).reshape(num, -1).max(axis=1)
        _reject_first(off > HOM_TOL, at, d, "identity element is not mapped to I")
        # diff[k, i, l, j, g] = rho(g s_j)[i, l] - sum_t rho(g)[i, t] rho(s_j)[t, l],
        # the element axis innermost, so each product runs over n entries
        diff = np.take(a, group.mul[:, gens].T, axis=3)
        term = np.empty_like(diff)
        at_gens = a[..., gens]  # [k, t, l, j] = rho(s_j)[t, l]
        for t in range(d):
            np.multiply(a[:, :, t, None, None, :], at_gens[:, None, t, :, :, None], out=term)
            diff -= term
        err = np.abs(diff).max(axis=(1, 2)).reshape(num, -1)  # [k, j * n + g]
        if err.max() > HOM_TOL:
            q = int(np.argmax(err.max(axis=1) > HOM_TOL))
            j, g = divmod(int(np.argmax(err[q])), n)
            names = group.element_names
            raise RepresentationError(
                f"irrep {at + q} (dim {d}): not a homomorphism at pair "
                f"{short_repr((names[g], names[gens[j]]))}, max entry error {err[q].max():.3e}"
            )
        total = np.abs(a.sum(axis=3)).reshape(num, -1).max(axis=1)
        nonzero = (total > SUM_TOL * n) & (np.arange(at, at + num) > 0)
        _reject_first(nonzero, at, d, "non-trivial irrep with nonzero element sum")
        del diff, term, err  # freed before the caller works on the block, as a function's would be
        yield start, a


def _is_trivial_row(row: np.ndarray) -> bool:
    return bool(np.allclose(row, 1.0, atol=1e-8))


def _check_orthogonality(gram: np.ndarray, first: int, n: int) -> None:
    """gram[q, j] = <chi_(first + q), chi_j> must be n [first + q = j]
    within SUM_TOL * n; the worst pair is named."""
    q = np.arange(len(gram))
    err = np.abs(gram)
    err[q, first + q] = np.abs(gram[q, first + q] - n)
    if err.max() > SUM_TOL * n:
        k, j = np.unravel_index(np.argmax(err), err.shape)
        i = first + int(k)
        raise RepresentationError(
            f"character rows {i} and {j} violate orthogonality "
            f"(<chi_{i}, chi_{j}> = {gram[k, j]:.6g}, expected {n if i == j else 0})"
        )


def _check_regular_character(group: GroupTable, rows: np.ndarray, dims) -> None:
    """sum_i dims_i chi_i must be n [g = e], the regular character, and row 0
    trivial. Only on failure is the Gram product formed, to name a pair."""
    n = group.order
    regular = np.asarray(dims, dtype=float) @ rows
    regular[group.identity] -= n
    if np.abs(regular).max() > SUM_TOL * n:
        _check_orthogonality(rows @ rows.conj().T, 0, n)
        raise RepresentationError(
            "character rows violate orthogonality: sum of dim * chi is not the regular character"
        )
    if not _is_trivial_row(rows[0]):
        raise RepresentationError("first character row is not the trivial character")


def _check_stack_shape(d, stack, n: int) -> None:
    """stack must be a (K, n, d, d) array with K >= 1, for an int d >= 1."""
    if not (isinstance(d, int) and not isinstance(d, bool) and d >= 1 and np.ndim(stack) == 4
            and len(stack) and np.shape(stack)[1:] == (n, d, d)):
        d = short_repr(d)
        raise RepresentationError(f"stack of dim {d}: expected shape (K, {n}, {d}, {d}) "
                                  f"with K >= 1, got {np.shape(stack)}")


def validate_irrep_set(s) -> np.ndarray:
    """Assert every IrrepSet invariant on s's group, dims and stacks; return the rows.

    Each stacks[d] has the (K, n, d, d) shape IrrepSet has checked, and dims
    their dimensions in order (see IrrepSet). After the two counts, one walk
    per stack (_proven_blocks) proves it block by block, and each proven
    block's snapped traces and their norms <chi, chi> are kept as it
    arrives. The rows need no Gram product:
    <chi_i, chi_i> = n makes each row irreducible, and then, with nu rows
    and sum dim^2 = n, sum_i dim_i chi_i = n [g = e] (the regular
    character) holds only if each irreducible character appears once
    (Serre, Linear Representations of Finite Groups, 2.3-2.4).

    When s's only stack is a complex128 stack of dimension 1, its entries
    are its character values. The rows are then the read-only view
    stacks[1][:, :, 0, 0], for as long as every block's snapped traces equal
    its entries bit for bit; the first block where they do not turns the
    rows into a copy, and from it on each block's snapped traces are
    written, as they are for every other set. So the rows are the snapped
    traces bit for bit either way.
    """
    group = s.group
    n, nu = group.order, len(group.classes)
    dims = s.dims
    if len(dims) != nu:
        raise RepresentationError(f"expected {nu} irreps (one per conjugacy class), "
                                  f"got {len(dims)}")
    if sum(d * d for d in dims) != n:
        raise RepresentationError(f"sum of squared dimensions {sum(d * d for d in dims)} "
                                  f"!= group order {n}")
    view = list(s.stacks) == [1] and s.stacks[1].dtype == complex
    rows = s.stacks[1][:, :, 0, 0] if view else np.empty((nu, n), dtype=complex)
    norms = np.empty(nu)
    for d, stack in s.stacks.items():
        first = dims.index(d)
        for start, a in _proven_blocks(group, stack, first):
            at = slice(first + start, first + start + len(a))
            snapped = _snap_integers(np.trace(a, axis1=1, axis2=2))
            if view and not np.array_equal(snapped.view(np.int64), a[:, 0, 0].view(np.int64)):
                rows, view = np.array(rows), False
            if not view:
                rows[at] = snapped
            norms[at] = np.einsum("ig,ig->i", rows[at].view(float), rows[at].view(float))
            del snapped  # freed before the next block is proven
    i = int(np.argmax(np.abs(norms - n)))
    if abs(norms[i] - n) > SUM_TOL * n:
        raise RepresentationError(f"character rows {i} and {i} violate orthogonality "
                                  f"(<chi_{i}, chi_{i}> = {norms[i]:.6g}, expected {n})")
    _check_regular_character(group, rows, dims)
    return rows


def _snap_integers(rows: np.ndarray) -> np.ndarray:
    """Replace values within SNAP_TOL of a Gaussian integer by that integer;
    rows itself when that changes no value bit for bit, else a complex copy.

    Character values are algebraic integers; when the true value is an
    ordinary integer (as for all dihedral characters), snapping removes the
    rounding noise of the trigonometric construction and keeps downstream
    power sums exact. |z - snapped| is at least |Re z - round(Re z)|, so
    only the values whose real part is within SNAP_TOL of an integer, few
    in a row of roots of unity, are snapped and compared; the result is
    that of snapping every value.
    """
    re = np.round(rows.real)
    near = np.nonzero(np.abs(rows.real - re) < SNAP_TOL)
    z = rows[near].astype(complex, copy=False)
    snapped = re[near] + 1j * np.round(z.imag)
    moved = np.abs(z - snapped) < SNAP_TOL
    moved &= (snapped.view(np.int64) != z.view(np.int64)).reshape(-1, 2).any(axis=1)
    if not moved.any():
        return rows
    out = rows.astype(complex)
    out[tuple(i[moved] for i in near)] = snapped[moved]
    return out


def character_table(s: IrrepSet) -> CharacterTable:
    """Character table of an IrrepSet: rows[i][g] = trace of irrep i at g,
    the rows that validating the set computed. They were proven then, so the
    table is made without CharacterTable's checks, which would prove them again."""
    t = object.__new__(CharacterTable)
    for name, value in (("group", s.group), ("rows", s.characters), ("dims", s.dims)):
        object.__setattr__(t, name, value)
    return t


def _check_characters(t: CharacterTable) -> None:
    """Check that t's rows, whose shape, finiteness and degrees were
    checked when t was made, are the irreducible characters of its group:
    constant on classes; the degree-1 rows a stack of 1-dim irreps
    (_proven_blocks, at HOM_TOL); sum_i d_i chi_i regular and row 0 trivial,
    as for an IrrepSet; and each row of degree 2 or more orthogonal to
    every row, in one product over classes weighted by their sizes.
    On exact tables this accepts what the full Gram test XX* = nI
    accepts: a linear row psi listed twice would give
    <sum_i d_i chi_i, psi> = 2n, not n, so the linear rows are distinct
    homomorphisms, which are pairwise orthogonal. At the edge of the
    tolerances the two differ: the degree-1 rows are held to HOM_TOL, and
    the error of sum_i d_i chi_i grows with sum_i d_i, so the
    regular-character test can refuse a table the Gram product accepts."""
    group, rows, n = t.group, t.rows, t.group.order
    # each element after the first of its class, none in an abelian group,
    # compared with that first element in blocks of rows of at most
    # BLOCK_ENTRIES entries, so the first failure found is the first in
    # row-major order
    later = np.array([(g, c[0]) for c in group.classes for g in c[1:]], dtype=np.int64)
    later, first = later.reshape(-1, 2).T
    size = max(1, BLOCK_ENTRIES // max(1, len(later)))
    for start in range(0, len(rows), size):
        block = rows[start:start + size]
        off = np.abs(block.take(later, axis=1) - block.take(first, axis=1)) > 1e-9
        if off.any():
            i, k = np.unravel_index(np.argmax(off), off.shape)
            cls = next(c for c in group.classes if later[k] in c)
            raise RepresentationError(f"row {start + i} is not constant on class {short_repr(cls)}")
    linear = t.dims.count(1)  # the degree-1 rows come first
    for _ in _proven_blocks(group, rows[:linear, :, None, None], 0):
        pass
    _check_regular_character(group, rows, t.dims)
    if linear < len(rows):  # never for an abelian group
        at = rows[:, [cls[0] for cls in group.classes]]
        sizes = np.array([len(cls) for cls in group.classes], dtype=float)
        _check_orthogonality((at[linear:] * sizes) @ at.conj().T, linear, n)


# ---------------------------------------------------------------------------
# Builtin irreps


def _roots_of_unity(m: int) -> np.ndarray:
    """w^k = exp(2 pi i k / m) for k = 0..m-1, each computed once, at an
    argument at most pi, with w^(m-k) = conj(w^k) exactly, w^(m/2) = -1
    and, when 4 divides m, w^(m/4) = i and w^(3m/4) = -i.

    So every builtin irrep maps x^-1 to rho(x)^H bit for bit, and the image
    of an undirected digraph's quotient matrix is Hermitian up to the
    rounding of its sums alone (see spectra._hermitian). Every root that is
    a Gaussian integer is exact, so snapping a cyclic stack's characters
    changes nothing (validate_irrep_set), and a quarter turn of a dihedral
    rotation has cosine 0.
    """
    k = np.arange(m // 2 + 1)
    w = np.empty(m, dtype=complex)
    w[k] = np.exp(2j * np.pi * k / m)
    if m % 4 == 0:
        w[m // 4] = 1j
    w[m - k[1:]] = w[k[1:]].conj()
    if m % 2 == 0:
        w[m // 2] = -1
    return w


def _cyclic_irreps(m: int) -> dict:
    """The stack of the m x m table [k, j] = w^(k j mod m), gathered in
    blocks of rows of at most BLOCK_ENTRIES entries, so no m x m index
    array is made; for m <= 2 every root is 1 or -1, and the stack is
    float64."""
    w = _roots_of_unity(m)
    w = w if m > 2 else w.real
    table, k = np.empty((m, m), dtype=w.dtype), np.arange(m)
    size = max(1, BLOCK_ENTRIES // m)
    for start in range(0, m, size):
        kj = np.outer(k[start:start + size], k)
        kj %= m  # so "clip", which writes to out unbuffered, clips nothing
        np.take(w, kj, mode="clip", out=table[start:start + size])
    return {1: table.reshape(m, m, 1, 1)}


def _dihedral_irreps(m: int) -> dict:
    # element indices: j -> r^j, m+j -> r^j * s; every matrix is real, and
    # both stacks are float64
    n = 2 * m
    powers = np.arange(m)
    # the 1-dim irreps r -> chi_r, s -> chi_s, for (chi_r, chi_s) = (1, 1),
    # (1, -1), and for even m also (-1, 1), (-1, -1)
    one = 4 if m % 2 == 0 else 2
    chi_r, chi_s = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])[:, :one, None]
    at_r = chi_r ** powers
    vals = np.concatenate([at_r, at_r * chi_s], axis=1)
    j = np.arange(1, (m + 1) // 2)[:, None]  # (m - 1) // 2 irreps of dim 2, none for m = 2
    w = _roots_of_unity(m)[j * powers % m]
    c, s = w.real, w.imag
    # r^a -> rotation by 2 pi j a / m; r^a s -> rotation @ diag(1, -1)
    mats = np.empty((len(j), n, 2, 2))
    rot, refl = mats[:, :m], mats[:, m:]
    rot[..., 0, 0], rot[..., 0, 1], rot[..., 1, 0], rot[..., 1, 1] = c, -s, s, c
    refl[..., 0, 0], refl[..., 0, 1], refl[..., 1, 0], refl[..., 1, 1] = c, s, s, -c
    return {d: stack for d, stack in {1: vals.reshape(one, n, 1, 1), 2: mats}.items() if len(stack)}


_FAMILY_IRREPS = {"cyclic": _cyclic_irreps, "dihedral": _dihedral_irreps}


def _builtin_stacks(factors: list) -> dict:
    """The stacks of the irreps of the product of the factors (kind, m), a
    single family included: Kronecker products of the factors' irreps
    (Serre, Linear Representations of Finite Groups, 3.2). Each choice of
    one stack per factor, in itertools.product order, gives a block, the
    first factor most significant; a dimension's stack is its blocks in
    that order, frozen, and a lone block is not copied. A block is float64
    when every factor's stack is, and complex128 otherwise: a cyclic factor
    of order 3 or more, whose stack has a nonreal value, is in every block,
    and at its identity elements each other factor's irrep is I, so every
    complex block, and so every complex stack, has a nonzero imaginary part."""
    blocks = {}
    for choice in itertools.product(*(_FAMILY_IRREPS[kind](m).values() for kind, m in factors)):
        mats = choice[0]
        for b in choice[1:]:
            # np.kron(mats, b), except that a product -0.0 comes out as 0.0
            shape = np.multiply(mats.shape, b.shape)
            mats = np.einsum("pgij,qhkl->pqghikjl", mats, b).reshape(shape)
        blocks.setdefault(mats.shape[-1], []).append(mats)
    return {d: freeze(np.concatenate(parts) if len(parts) > 1 else parts[0])
            for d, parts in blocks.items()}


def _builtin_family(g: GroupTable) -> str:
    """g's ``family``: None or the canonical spec that only
    build_builtin_group sets, so a tag needs no check of its own. None, a
    group read from a document, has no builtin irreps: RepresentationError."""
    if expect_group(g, RepresentationError).family is None:
        raise RepresentationError("unsupported builtin family None; supply irreps via load_irreps")
    return g.family


def builtin_irreps(g: GroupTable) -> IrrepSet:
    """The IrrepSet of a builtin group, validated once, as a whole, when
    made."""
    return IrrepSet(g, _builtin_stacks(parse_builtin_spec(_builtin_family(g))))


# ---------------------------------------------------------------------------
# User-supplied documents


def _complex_from_json(entry, depth: int, what: str) -> np.ndarray:
    """A regular nested list, depth levels deep, of [re, im] pairs of JSON
    numbers, as a complex array. The dtype check rejects strings such as
    "1", which np.asarray(dtype=float) would parse, and has_bool a true or
    false, which np.asarray would make a number."""
    try:
        arr = np.asarray(entry)
    except (TypeError, ValueError):  # ragged nesting
        arr = None
    if (arr is None or arr.dtype.kind not in "iuf" or arr.ndim != depth + 1
            or arr.shape[-1] != 2 or has_bool(entry, depth + 1)):
        raise RepresentationError(f"{what} is not a nested list of [re, im] pairs")
    if not np.isfinite(arr).all():
        raise RepresentationError(f"{what} holds a non-finite [re, im] pair")
    return arr[..., 0] + 1j * arr[..., 1]


def load_irreps(doc, g: GroupTable) -> IrrepSet:
    """Load and validate a user-supplied complete set of irreps.

    Document format: ``[{"dim": d, "matrices": {"<element-name>":
    [[[re, im], ...], ...]}}, ...]``. The irreps of each dimension are
    stacked in document order, the trivial irrep moved to the front of
    the 1-dim ones, so the set's order (see IrrepSet) is dimension-major.
    A stack whose imaginary parts are all zero is stored once, as float64
    (_real_if_exact).
    """
    expect_group(g, RepresentationError)
    doc = decode_json(doc, RepresentationError)
    if not isinstance(doc, list):
        raise RepresentationError("irreps document must be a JSON list")
    by_dim, names = {}, set(g.element_names)
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
        d, given = entry["dim"], entry["matrices"]
        missing = [name for name in g.element_names if name not in given]
        if missing:
            raise RepresentationError(
                f"irrep {i}: missing matrix for element {short_repr(missing[0])}"
            )
        unknown = [name for name in given if name not in names]
        if unknown:
            raise RepresentationError(f"irrep {i}: unknown element name {short_repr(unknown[0])}")
        mats = _complex_from_json(  # in element-index order
            [given[name] for name in g.element_names], 3, f"irrep {i}: matrix entry"
        )
        if mats.shape[1:] != (d, d):
            raise RepresentationError(
                f"irrep {i}: matrices have shape {mats.shape[1:]}, expected ({d}, {d})"
            )
        by_dim.setdefault(d, []).append(mats)
    by_dim.get(1, []).sort(key=lambda m: not _is_trivial_row(m))  # the trivial irrep first
    return IrrepSet(g, {d: freeze(np.ascontiguousarray(_real_if_exact(np.stack(mats))))
                        for d, mats in by_dim.items()})


def _is_list_of_lists(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, list) for v in value)


def load_character_table(doc, g: GroupTable) -> CharacterTable:
    """Load a character table given per-class values; it is proven when made.

    Document format: ``{"classes": [["e"], ["s", "r*s", ...], ...],
    "rows": [[[re, im], ...], ...]}`` with one value per class per row.
    """
    expect_group(g, RepresentationError)
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
    index = {name: i for i, name in enumerate(g.element_names)}

    def lookup(name):
        if not (isinstance(name, str) and name in index):
            raise RepresentationError(
                f"document classes: unknown element name {short_repr(name)}")
        return index[name]

    classes = [tuple(sorted(lookup(name) for name in cls)) for cls in doc["classes"]]
    if sorted(classes) != sorted(g.classes):
        raise RepresentationError(
            "document classes do not match the group's conjugacy classes"
        )
    values = _complex_from_json(doc["rows"], 2, "character rows")
    if values.shape[1] != len(classes):
        raise RepresentationError(
            f"rows have {values.shape[1]} values, expected {len(classes)} (one per class)"
        )
    column = np.empty(g.order, dtype=np.int64)  # element -> its class's column
    for c, cls in enumerate(classes):
        column[list(cls)] = c
    rows = values[:, column]
    # put the trivial row first if it is elsewhere
    order = sorted(range(len(rows)), key=lambda i: not _is_trivial_row(rows[i]))
    return CharacterTable(group=g, rows=freeze(rows[order]))
