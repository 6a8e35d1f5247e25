"""Lift spectra three ways, plus eigenvector construction and comparison.

The default route maps the quotient matrix through each irreducible
representation and solves the resulting small dense eigenproblems, one
batched call per irrep dimension. Irreps with complex-conjugate characters
have conjugate eigenvalues, since the quotient matrix has integer
coefficients, so only one irrep of each such pair is solved and its
partner gets the conjugates. The character route recovers the same
per-irrep eigenvalues from power sums: Newton's identities give each
character's polynomial, and one batched companion-matrix eigensolve per
character degree gives its roots. The brute-force route diagonalizes the
explicit lift. The spectrum routes compute eigenvalues only; the lift
eigenvectors come from one batched residual-checked eigensolve per irrep
dimension. verify cross-checks the routes: it alone decides which are
compared and at what tolerance, and `voltlift verify` prints its reports.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from .groups import GroupTable
from .reps import CharacterTable, IrrepSet, by_dimension, character_table
from .voltage import (
    VoltageDigraph,
    algebra_trace_powers,
    associated_matrix,
    build_lift,
)

# Power-sum root recovery is ill-conditioned as the degree grows; refuse
# above the hard cap and warn above the soft one.
CHARSUM_HARD_CAP = 32
CHARSUM_WARN_DEGREE = 12

# the largest lift the brute-force route builds and diagonalizes densely
BRUTEFORCE_MAX_ORDER = 2000

EIG_RESIDUAL_FACTOR = 1e-8
ZERO_VECTOR_NORM = 1e-12
DEFECTIVE_COND_LIMIT = 1e12


class SpectrumError(ValueError):
    """Raised for eigensolver failures, size caps, and inconsistent inputs."""


# ---------------------------------------------------------------------------
# Spectrum multisets


@dataclass(frozen=True)
class SpectrumMultiset:
    """Clustered eigenvalues with multiplicities.

    Entries are sorted by descending real part, then ascending imaginary
    part; total multiplicity equals the matrix dimension.
    """

    entries: tuple  # of (complex value, int multiplicity)

    @property
    def total(self) -> int:
        return sum(m for _, m in self.entries)

    def __str__(self):
        return ", ".join(f"{format_eigenvalue(v)}^{m}" for v, m in self.entries)


def format_eigenvalue(z: complex) -> str:
    """Compact text form: integers stay integers, reals drop the imag part."""
    def fmt_real(x):
        r = round(x)
        return str(int(r)) if abs(x - r) < 1e-9 else f"{x:.10g}"

    if abs(z.imag) < 1e-9:
        return fmt_real(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{fmt_real(z.real)}{sign}{fmt_real(abs(z.imag))}i"


def _check_tol(tol: float) -> None:
    # inf would merge every value into one cluster, and nan would link none
    if not 0 < tol < np.inf:
        raise SpectrumError(f"tolerance must be positive and finite, got {tol}")


def cluster_spectrum(values: Sequence[complex], tol: float) -> SpectrumMultiset:
    """Single-linkage clustering of eigenvalues in the complex plane.

    Two values are linked iff |z_i - z_j| < tol; each cluster is reported
    at its mean, which for a smeared multiple eigenvalue is far more
    accurate than the individual values (the sum is trace-exact). Exact
    duplicates are merged first, and only pairs whose real parts lie
    within tol of each other are ever compared.
    """
    _check_tol(tol)
    vals = np.sort(np.asarray(values, dtype=complex).reshape(-1))
    if not vals.size:
        return SpectrumMultiset(entries=())
    if not np.all(np.isfinite(vals)):
        raise SpectrumError("cannot cluster non-finite eigenvalues")
    # distinct values, sorted by real part then imaginary part
    first = np.flatnonzero(np.r_[True, vals[1:] != vals[:-1]])
    distinct = vals[first]
    counts = np.diff(np.r_[first, vals.size])
    m = distinct.size
    # every value that can link to i lies in its window i .. i + width[i] - 1:
    # a real part past fl(re_i + tol) is at least tol away, and so is the value
    re = distinct.real
    width = np.searchsorted(re, re + tol, side="right") - np.arange(m)
    links = []
    for k in range(1, int(width.max())):
        i = np.flatnonzero(width > k)
        gap = distinct[i + k] - distinct[i]
        # hypot, as abs() of a complex scalar: the vectorised complex abs
        # can round differently and flip a link at distance ~tol
        i = i[np.hypot(gap.real, gap.imag) < tol]
        links.append((i, i + k))
    # connected components by min-label propagation with pointer jumping;
    # at the fixed point every link joins equal labels, and each label is
    # the smallest index of its component
    label = np.arange(m)
    if links:
        tails, heads = map(np.concatenate, zip(*links))
        while True:
            old = label
            label = label.copy()
            np.minimum.at(label, tails, label[heads])
            np.minimum.at(label, heads, label[tails])
            label = label[label]
            if np.array_equal(label, old):
                break
    _, cluster = np.unique(label, return_inverse=True)
    mult = np.bincount(cluster, weights=counts).astype(np.int64)
    weighted = distinct * counts
    mean = (
        np.bincount(cluster, weights=weighted.real)
        + 1j * np.bincount(cluster, weights=weighted.imag)
    ) / mult
    # descending real part, then ascending imaginary part; ties keep the
    # order of each cluster's smallest value
    order = np.lexsort((mean.imag, -mean.real))
    return SpectrumMultiset(
        entries=tuple(zip(mean[order].tolist(), mult[order].tolist()))
    )


@dataclass(frozen=True)
class MatchReport:
    """Result of a tolerance-aware multiset comparison."""

    matched: bool
    worst_distance: float
    count_left: int
    count_right: int
    message: str = ""

    def __str__(self):
        verdict = "MATCH" if self.matched else "MISMATCH"
        extra = f" ({self.message})" if self.message else ""
        return f"{verdict} (worst {self.worst_distance:.1e}){extra}"


def _distinct(s: SpectrumMultiset) -> tuple:
    """The distinct values of s, sorted by real part then imaginary part,
    and the total multiplicity of each."""
    vals, inverse = np.unique(
        np.array([v for v, _ in s.entries], dtype=complex), return_inverse=True
    )
    mults = np.bincount(inverse, weights=[m for _, m in s.entries], minlength=len(vals))
    return vals, mults.astype(np.int64)


def spectra_equal(a: SpectrumMultiset, b: SpectrumMultiset, tol: float) -> MatchReport:
    """Greedy minimal-distance matching of two eigenvalue multisets.

    Both sides are sorted, then each left value grabs its nearest unused
    right value, the first in sorted order on a tie. Adequate whenever tol
    is far below the eigenvalue gaps; mismatch is reported, never raised.

    Copies of one value are adjacent after sorting and all see the same
    distances, so each distinct left value is processed once: its copies
    take the nearest distinct right value with copies left, as many as it
    has, then the next nearest, and so on.
    """
    va, ma = _distinct(a)
    vb, mb = _distinct(b)
    count_left, count_right = int(ma.sum()), int(mb.sum())
    if count_left != count_right:
        return MatchReport(
            matched=False,
            worst_distance=float("inf"),
            count_left=count_left,
            count_right=count_right,
            message=f"sizes differ: {count_left} vs {count_right}",
        )
    worst = 0.0
    for x, need in zip(va, ma.tolist()):
        dist = np.abs(vb - x)
        dist[mb == 0] = np.inf
        while need:
            j = int(np.argmin(dist))
            take = min(need, int(mb[j]))
            need -= take
            mb[j] -= take
            worst = max(worst, float(dist[j]))
            if not mb[j]:
                dist[j] = np.inf
    return MatchReport(
        matched=worst <= tol,
        worst_distance=worst,
        count_left=count_left,
        count_right=count_right,
    )


def charsum_match_tol(values: Dict[int, np.ndarray], tol: float) -> tuple:
    """Tolerance for matching the charsum spectrum against repr's.

    Root recovery smears a k-fold root of one character's polynomial by
    about eps**(1/k), relative to the spectral radius rho. ``values`` are
    repr's eigenvalues per irrep image, as irrep_eigenvalues returns them;
    k is the largest multiplicity of one of them within one image,
    clustered at tol by single linkage as in cluster_spectrum. Returns
    (max(tol, 1e-6, 10 * (1 + rho) * eps**(1/k)), k): the bound depends on
    the root multiplicity, never on the polynomial degree.
    """
    k = 1
    for v in values.values():
        gap = v[:, :, None] - v[:, None, :]
        # reach[q, i, j]: z_i and z_j of image q are linked by a chain;
        # squaring doubles the chain length until nothing changes
        reach = (np.hypot(gap.real, gap.imag) < tol).astype(float)
        while True:
            longer = (reach @ reach > 0).astype(float)
            if np.array_equal(longer, reach):
                break
            reach = longer
        k = max(k, int(reach.sum(axis=2).max()))
    rho = max(float(np.abs(v).max()) for v in values.values())
    eps = float(np.finfo(float).eps)
    return max(tol, 1e-6, 10 * (1 + rho) * eps ** (1 / k)), k


def _checked_cluster_tol(d: VoltageDigraph, tol: Optional[float]) -> float:
    """The tolerance the spectrum routes cluster d's lift at: tol, or
    1e-9 * (1 + the lift adjacency 1-norm) for None.

    Refuses a tolerance that is not positive and finite, and, when d has
    arcs, one of 2 * (adjacency 1-norm) or more: every eigenvalue lies
    within the 1-norm of 0, so from there on any two spectra match within
    the tolerance, and above it clustering links every pair. A digraph
    with no arcs has only the eigenvalue 0, which no tolerance misreports.
    """
    # the 1-norm of the lift adjacency equals the maximum in-degree of the
    # base (each lift column replicates one base column's count)
    norm = int(d.in_degrees().max()) if d.arcs else 0
    if tol is None:
        return 1e-9 * (1 + norm)
    _check_tol(tol)
    if norm and tol >= 2 * norm:
        raise SpectrumError(
            f"tolerance {tol} merges the whole spectrum: every eigenvalue lies "
            f"within {norm} of 0, so at a tolerance of {2 * norm} or more any "
            "two spectra match"
        )
    return tol


# ---------------------------------------------------------------------------
# Dense eigensolvers


def _solve(solver, m: np.ndarray):
    """solver(m) for one of numpy's eigensolvers, a convergence failure
    raised as SpectrumError."""
    try:
        return solver(m)
    except np.linalg.LinAlgError as exc:
        raise SpectrumError(f"eigensolver did not converge: {exc}") from exc


def eig(m: np.ndarray):
    """Residual-checked eigenpairs of a (K, N, N) stack, in one batched solve.

    Returns the eigenvalues (K, N), the eigenvectors (K, N, N) as columns,
    the per-column residuals (K, N), each relative to its column's norm,
    and the per-matrix bounds 1e-8 * (1 + ||M||_2) as a (K,) array. The
    computed vectors of a Jordan block meet the bound too, so a caller that
    needs a basis also tests the conditioning (lift_eigenvectors does).
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise SpectrumError(f"expected a stack of square matrices, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise SpectrumError("matrix has non-finite entries")
    vals, vecs = _solve(np.linalg.eig, m)
    if not m.size:
        return vals, vecs, np.empty(vals.shape), np.zeros(len(m))
    res = np.linalg.norm(m @ vecs - vecs * vals[:, None, :], axis=1)
    res = res / np.maximum(np.linalg.norm(vecs, axis=1), 1e-300)
    bound = EIG_RESIDUAL_FACTOR * (1 + np.linalg.norm(m, 2, axis=(1, 2)))
    return vals, vecs, res, bound


# ---------------------------------------------------------------------------
# Representation route


def rho_matrix(b: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Images of b under a (K, n, d, d) stack of irreps of one dimension d,
    as a (K, r*d, r*d) stack: each algebra entry becomes a d x d block.

    Only the nonzero coefficients of b are visited: each adds its multiple
    of rho(x) into its (u, v) block, in the order np.nonzero lists them.
    """
    r = b.shape[0]
    num, _, d, _ = stack.shape
    u, v, x = np.nonzero(b)
    terms = b[u, v, x].astype(complex)[:, None, None] * stack[:, x]
    blocks = np.zeros((num, r, r, d, d), dtype=complex)
    np.add.at(blocks, (slice(None), u, v), terms)
    return blocks.transpose(0, 1, 3, 2, 4).reshape(num, r * d, r * d)


def _check_same_group(group: GroupTable, digraph_group: GroupTable, what: str) -> None:
    """Irreps and characters must be those of the digraph's group: the same
    multiplication table, not only the same order."""
    if not (group is digraph_group or np.array_equal(group.mul, digraph_group.mul)):
        raise SpectrumError(f"{what} and digraph use different groups")


def _irrep_images(d: VoltageDigraph, s: IrrepSet):
    """Every irrep route's prologue: check s's group, validate s, build B
    once, and yield (dim, irrep index array, rho_matrix images) per dim."""
    _check_same_group(s.group, d.group, "irrep set")
    s.characters  # the first read validates the set
    b = associated_matrix(d)
    dims = np.asarray(s.dims)
    for dim, stack in s.stacks.items():
        yield dim, np.flatnonzero(dims == dim), rho_matrix(b, stack)


def irrep_eigenvalues(d: VoltageDigraph, s: IrrepSet) -> Dict[int, np.ndarray]:
    """Eigenvalues of the image of the quotient matrix under each irrep.

    For each irrep dimension k, a (K, r*k) array whose row q holds the
    eigenvalues of the image under the q-th irrep of dimension k, in global
    irrep order.

    B has integer coefficients, so the image under the irrep with the
    conjugate character (IrrepSet.conjugates) is conj(rho(B)) up to
    equivalence and has the conjugate eigenvalues. Only the
    representatives, the irreps i with conjugates[i] >= i, are solved, in
    one batched eigvals call per dimension; each partner's row is the
    exact conj of its representative's row.
    """
    values = {}
    for dim, idx, images in _irrep_images(d, s):
        partner = np.searchsorted(idx, s.conjugates[idx])  # within this dimension
        rep = partner >= np.arange(len(idx))
        if rep.all():  # no pairs: the images are solved as they are
            values[dim] = _solve(np.linalg.eigvals, images)
        else:
            vals = values[dim] = np.empty(images.shape[:2], dtype=complex)
            vals[rep] = _solve(np.linalg.eigvals, images[rep])
            vals[~rep] = vals[partner[~rep]].conj()
    return values


def spectrum_from_irrep_eigenvalues(
    values: Dict[int, np.ndarray], tol: float
) -> SpectrumMultiset:
    """The lift spectrum from irrep_eigenvalues: each eigenvalue of the
    image under a dim-k irrep enters k times."""
    flat = np.concatenate([np.repeat(v.reshape(-1), k) for k, v in values.items()])
    return cluster_spectrum(flat, tol)


def lift_spectrum_repr(
    d: VoltageDigraph, s: IrrepSet, tol: Optional[float] = None
) -> SpectrumMultiset:
    """Full lift spectrum from the per-irrep quotient eigenproblems.

    Eigenvalues only: irrep_eigenvalues, each entered dim times by
    spectrum_from_irrep_eigenvalues.
    """
    tol = _checked_cluster_tol(d, tol)
    return spectrum_from_irrep_eigenvalues(irrep_eigenvalues(d, s), tol)


def lift_spectrum_bruteforce(
    d: VoltageDigraph, tol: Optional[float] = None
) -> SpectrumMultiset:
    """Spectrum of the explicit lift adjacency matrix (the oracle path).

    Eigenvalues only, in real arithmetic; a symmetric adjacency (every
    undirected lift) goes to the Hermitian solver. The oracle uses neither
    the irreps nor any block structure of the lift. Lifts of more than
    BRUTEFORCE_MAX_ORDER vertices are refused.
    """
    tol = _checked_cluster_tol(d, tol)  # before the lift is built
    rn = d.order * d.group.order
    if rn > BRUTEFORCE_MAX_ORDER:
        raise SpectrumError(f"lift order {rn} exceeds brute-force cap {BRUTEFORCE_MAX_ORDER}")
    a = build_lift(d)
    vals = _solve(np.linalg.eigvalsh if np.array_equal(a, a.T) else np.linalg.eigvals, a)
    return cluster_spectrum(vals, tol)


# ---------------------------------------------------------------------------
# Character / power-sum route


def power_sums_from_characters(
    b: np.ndarray, chi: np.ndarray, length: int, group: GroupTable
) -> np.ndarray:
    """s_l = chi(trace(B^l)) for l = 1..length, traces exact in the group algebra.

    ``chi`` is one character row (n,) or a stack of rows (nu, n); the sums
    come back as (length,) or (nu, length), one row per character.
    """
    traces = algebra_trace_powers(b, length, group)
    return np.asarray(chi, dtype=complex) @ traces.astype(complex)


def _newton_poly_coeffs(sums: np.ndarray) -> np.ndarray:
    """Monic polynomial coefficients (highest power first) for each row of a
    (K, d) array of power sums, via Newton's identities
    k*e_k = sum_{j=1..k} (-1)^(j-1) e_{k-j} s_j, vectorised over the rows."""
    rows, d = sums.shape
    signed = sums * (-1.0) ** np.arange(d)  # (-1)^(j-1) s_j in column j-1
    e = np.zeros((rows, d + 1), dtype=complex)
    e[:, 0] = 1
    for k in range(1, d + 1):
        e[:, k] = (e[:, k - 1::-1] * signed[:, :k]).sum(axis=1) / k
    return e * (-1.0) ** np.arange(d + 1)


def roots_from_power_sums(sums: np.ndarray) -> np.ndarray:
    """Recover the unique multisets with the given power sums.

    ``sums`` is one row (d,) or a stack (K, d) of power sums s_1..s_d; the
    roots come back in the same shape. Newton's identities give each row's
    monic polynomial, and one batched eigvals call solves the (K, d, d)
    stack of companion matrices. The roots must reproduce their sums.
    """
    sums = np.asarray(sums, dtype=complex)
    d = sums.shape[-1]
    if d < 1:
        raise SpectrumError("degree must be >= 1")
    if d > CHARSUM_HARD_CAP:
        raise SpectrumError(f"degree {d} exceeds cap {CHARSUM_HARD_CAP}")
    rows = sums.reshape(-1, d)
    # companion matrices in np.roots' layout: -coefficients on the first
    # row, ones on the subdiagonal
    companion = np.zeros((len(rows), d, d), dtype=complex)
    companion[:, 0] = -_newton_poly_coeffs(rows)[:, 1:]
    companion[:, np.arange(1, d), np.arange(d - 1)] = 1
    roots = _solve(np.linalg.eigvals, companion)
    # residual check: the recovered roots must reproduce the input sums
    recomputed = (roots[:, None, :] ** np.arange(1, d + 1)[:, None]).sum(axis=2)
    worst = np.abs(recomputed - rows).max(axis=1)
    smax = np.maximum(1.0, np.abs(rows).max(axis=1))
    if not np.all(worst <= 1e-5 * smax):
        raise SpectrumError(
            f"inconsistent power sums: round-trip error {worst.max():.3e}"
        )
    return roots.reshape(sums.shape)


def lift_spectrum_charsum(
    d: VoltageDigraph, t: CharacterTable, tol: Optional[float] = None
) -> SpectrumMultiset:
    """Lift spectrum from character power sums and root recovery.

    Character row i gives the power sums chi_i(tr B^l), l = 1..r*d_i, of
    the eigenvalues of the image of B under the i-th irrep. The rows of one
    degree d_i are solved together by roots_from_power_sums, and the roots
    are assembled as in the repr route, each entered d_i times.
    """
    _check_same_group(t.group, d.group, "character table")
    tol = _checked_cluster_tol(d, tol)
    r = d.order
    dims = t.dims
    top = r * max(dims)
    if top > CHARSUM_HARD_CAP:
        raise SpectrumError(
            f"power-sum degree {top} exceeds conditioning cap {CHARSUM_HARD_CAP}"
        )
    for k in sorted(set(dims)):
        if r * k > CHARSUM_WARN_DEGREE:
            warnings.warn(
                f"power-sum degree {r * k} above {CHARSUM_WARN_DEGREE}; "
                "root recovery may lose accuracy",
                stacklevel=2,
            )
    # exact traces of B^l once for every l any row needs, then the whole
    # character table in one (nu x n) @ (n x L) product
    sums = power_sums_from_characters(associated_matrix(d), t.rows, top, d.group)
    values = {
        k: roots_from_power_sums(sums[idx, :r * k]) for k, idx in by_dimension(dims)
    }
    return spectrum_from_irrep_eigenvalues(values, tol)


# ---------------------------------------------------------------------------
# Cross-checking the routes


def verify(
    d: VoltageDigraph, s: IrrepSet, t: Optional[CharacterTable] = None,
    tol: Optional[float] = None,
) -> Dict[str, tuple]:
    """Cross-check the spectrum routes on d's lift, all clustered at tol.

    Returns {name: (MatchReport, details)}, details naming the comparison
    tolerance: "repr vs bruteforce" at max(tol, 1e-7), then, if r * max(dim)
    <= CHARSUM_HARD_CAP, "charsum vs repr" with characters from t (from s
    if None) at charsum_match_tol, whose root multiplicity k is added.
    """
    tol = _checked_cluster_tol(d, tol)
    per_irrep = irrep_eigenvalues(d, s)
    by_repr = spectrum_from_irrep_eigenvalues(per_irrep, tol)
    by_brute = lift_spectrum_bruteforce(d, tol)
    cmp_tol = max(tol, 1e-7)
    reports = {"repr vs bruteforce": (
        spectra_equal(by_repr, by_brute, cmp_tol), {"tolerance": cmp_tol})}
    t = character_table(s) if t is None else t
    if d.order * max(t.dims) <= CHARSUM_HARD_CAP:
        by_chars = lift_spectrum_charsum(d, t, tol)
        # root recovery smears a k-fold root by about eps**(1/k)
        char_tol, k = charsum_match_tol(per_irrep, tol)
        reports["charsum vs repr"] = (
            spectra_equal(by_chars, by_repr, char_tol),
            {"tolerance": char_tol, "root_multiplicity": k},
        )
    return reports


# ---------------------------------------------------------------------------
# Eigenvectors of the lift


@dataclass(frozen=True)
class LiftEigenvectors:
    """Eigenpairs of the lift plus bookkeeping about exclusions.

    ``pairs`` holds (eigenvalue, vector) with vectors indexed in lift
    vertex order (vertex-major, element-index minor). Irreps whose quotient
    image is defective are skipped and listed in ``skipped_irreps``;
    ``skip_reasons`` names, for each, the failed test and its numbers.
    """

    pairs: tuple
    zero_vectors_excluded: int
    skipped_irreps: tuple
    skip_reasons: tuple = ()


def lift_eigenvectors(d: VoltageDigraph, s: IrrepSet) -> LiftEigenvectors:
    """Lift eigenvectors assembled from quotient eigenvectors.

    For each irrep rho, each eigencolumn x of its quotient image and each
    of the dim coordinate slots k, the lift vector takes the value
    (rho(h) x_v)_k at lift vertex (v, h), where x_v is vertex v's block of
    x. Pairs come in irrep order, then eigencolumn, then slot.

    The irreps of one dimension d are solved together: one batched,
    residual-checked eigensolve of their (K, r*d, r*d) image stack, and
    one batched condition number of the eigenvector matrices. An irrep is
    skipped when its eigenvector matrix is worse conditioned than
    DEFECTIVE_COND_LIMIT or a column misses the residual bound. The
    vectors of the kept irreps are written in place into one array
    fib[K, r*d, d, r, n]: slice (q, c, k) is already the lift vector of
    irrep q, column c, slot k, filled by one matmul per slot, and the
    returned vectors are views of it.
    """
    n, r = d.group.order, d.order
    kept = {}
    reasons = {}
    for di, idx, images in _irrep_images(d, s):
        idx = idx.tolist()
        vals, vecs, res, bound = eig(images)
        cond = np.linalg.cond(vecs)
        worst = res.max(axis=1)
        for q, i in enumerate(idx):
            if not (np.isfinite(cond[q]) and cond[q] <= DEFECTIVE_COND_LIMIT):
                reasons[i] = f"cond {cond[q]:.1e} > {DEFECTIVE_COND_LIMIT:.0e}"
            elif not worst[q] <= bound[q]:
                reasons[i] = f"residual {worst[q]:.1e} > bound {bound[q]:.1e}"
        ok = [q for q, i in enumerate(idx) if i not in reasons]
        if not ok:
            continue
        # fib[q, c, k, v, h] = sum_j rho_q(h)[k, j] x[q, v*d + j, c]: for
        # slot k, a (K, r) batch of (r*d, d) @ (d, n) products, written
        # through a strided view of fib
        rho = s.stacks[di][ok]
        x = vecs[ok].reshape(len(ok), r, di, r * di).transpose(0, 1, 3, 2)
        fib = np.empty((len(ok), r * di, di, r, n), dtype=complex)
        for k in range(di):
            np.matmul(
                x, rho[:, None, :, k, :].transpose(0, 1, 3, 2),
                out=fib[:, :, k].transpose(0, 2, 1, 3),
            )
        w = fib.reshape(len(ok), r * di, di, r * n)
        norms = np.sqrt(
            np.einsum("qckx,qckx->qck", w.real, w.real)
            + np.einsum("qckx,qckx->qck", w.imag, w.imag)
        )
        for q, wq, nq in zip(ok, w, norms):
            kept[idx[q]] = (vals[q].tolist(), wq, nq < ZERO_VECTOR_NORM)
    pairs = []
    zeros = 0
    for i in sorted(kept):
        mus, wq, small = kept[i]
        zeros += int(np.count_nonzero(small))
        pairs += [(mus[c], wq[c, k]) for c, k in zip(*np.nonzero(~small))]
    skipped = sorted(reasons)
    return LiftEigenvectors(
        pairs=tuple(pairs),
        zero_vectors_excluded=zeros,
        skipped_irreps=tuple(skipped),
        skip_reasons=tuple(reasons[i] for i in skipped),
    )


# ---------------------------------------------------------------------------
# JSON output


def spectrum_to_json(spectrum: SpectrumMultiset, method: str) -> dict:
    return {
        "order": spectrum.total,
        "eigenvalues": [
            {"re": v.real, "im": v.imag, "mult": m} for v, m in spectrum.entries
        ],
        "method": method,
    }


def spectrum_to_text(spectrum: SpectrumMultiset) -> str:
    return "\n".join(f"{format_eigenvalue(v)}^{m}" for v, m in spectrum.entries)
