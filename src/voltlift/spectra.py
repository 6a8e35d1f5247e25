"""Lift spectra three ways, plus eigenvector construction and comparison.

The default route maps the quotient matrix through each irreducible
representation and solves the resulting small dense eigenproblems, in
batched calls per irrep dimension. The images are sums over the nonzero
coefficients of B, and the irrep routes read those from the arcs, never
building B; rho_matrix is the public form of the same kernel, taking them
from a given B. An irrep whose matrices at the generators are exactly the
complex conjugates of another's (IrrepSet.conjugates) has the conjugate
image, since the quotient matrix has integer coefficients, so only one
irrep of each such pair is solved and its partner gets the conjugate
eigenvalues. Each image goes to a solver of its own: one that is
Hermitian up to rounding, as every image of an undirected digraph under a
unitary irrep is, to the Hermitian solver, and every other to the general
one, whatever the digraph. Each stack is read as IrrepSet stores it,
float64 when it has no nonzero imaginary part, as every dihedral one, and
complex128 otherwise. A float64 stack's images are float64, so the
Hermitian solvers, eigvalsh and eigh, and the lift vectors stay real; its
images that miss the gate are cast to complex128 for the general solver,
so their eigenvalues are those of the same images in complex128, to the
bit: a real general solver would split a defective eigenvalue
differently. The character route recovers the same per-irrep eigenvalues
from power sums: Newton's identities give each character's polynomial,
and one batched companion-matrix eigensolve per character degree gives
its roots. The
brute-force route reads the explicit lift from its arc list, splits it
into its weakly connected components and solves each component's
diagonal block alone, written from the arcs, by the singular values of
its biadjacency block when the lift is undirected and the component
bipartite, else by the symmetric or the general solver; components of
one shape share one batched call, and a connected lift is a stack of one
block, so every dense solve takes a 3-D stack. The lift of a connected
base digraph whose closed walks' net voltages generate a subgroup of
index k has k isomorphic components (Gross and Tucker, Topological Graph
Theory, 1987), so it pays about 1/k^2 of the whole solve, and the route
admits a lift by that cost, priced from solver times measured at each
block size, not by its vertex count: at most one general solve of 2000
vertices, with a ceiling on vertices for memory. The spectrum routes
compute eigenvalues only; the lift eigenvectors come from one batched
residual-checked eigensolve per irrep dimension. verify cross-checks the
routes: it alone decides which are compared and at what tolerance, it
builds the builtin irreps, when none are given, only once the oracle has
admitted the lift, and `voltlift verify` prints its reports. One
single-linkage kernel serves clustering, comparison and charsum's root
multiplicity: spectra_equal links the values of both sides and pairs the
copies of each component that holds as many of one side as of the other.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from .groups import GroupTable, connected_components
from .reps import (
    CharacterTable,
    IrrepSet,
    RepresentationError,
    _builtin_family,
    builtin_irreps,
    character_table,
)
from .voltage import (
    VoltageDigraph,
    _lift_arcs,
    _quotient_terms,
    _terms,
    _trace_powers,
    algebra_trace_powers,
)

# Power-sum root recovery is ill-conditioned as the degree grows; refuse
# above the hard cap and warn above the soft one.
CHARSUM_HARD_CAP = 32
CHARSUM_WARN_DEGREE = 12

# The brute-force route's admission. BRUTEFORCE_COST[kind][i] is the time
# of one solve of a BRUTEFORCE_SIZES[i]-vertex block as a fraction of one
# eigvals solve of 2000 vertices, measured in batched solves of random
# matrices, one OpenBLAS thread, on an Intel Xeon, where eigvals at 2000
# took 2.77 s: eigvals of a general matrix, eigvalsh of a symmetric one,
# and the singular values (svd, compute_uv False) of a square one. Per
# p^3, a 256 x 256 eigvals block costs about 5 times what a 2000 x 2000
# one does, and a 64 x 64 one about 9 times, so the sizes the route admits
# are measured, not scaled from one. A lift whose blocks cost more than 1,
# one eigvals solve of 2000 vertices, is refused, and so is one of more
# than BRUTEFORCE_MAX_VERTICES vertices: the route holds about 115 bytes
# per vertex besides the arcs (traced peak), so that many come to about
# one 2000 x 2000 float64 matrix.
BRUTEFORCE_SIZES = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2000)
BRUTEFORCE_COST = {
    "eigvals": (6.8e-8, 2.5e-7, 1.2e-6, 4.2e-6, 1.4e-5, 5.9e-5, 2.8e-4, 1.9e-3, 9.5e-3,
                0.067, 0.28, 1.0),
    "eigvalsh": (8e-9, 9.1e-8, 5e-7, 1.5e-6, 4.6e-6, 1.5e-5, 5.8e-5, 2.3e-4, 9.9e-4,
                 4.8e-3, 0.039, 0.26),
    "svd": (1.6e-7, 3.3e-7, 8e-7, 2.2e-6, 6e-6, 1.9e-5, 7e-5, 3.7e-4, 1.9e-3, 0.011,
            0.11, 0.84),
}
BRUTEFORCE_MAX_VERTICES = 250_000

EIG_RESIDUAL_FACTOR = 1e-8
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


def _link_components(values: np.ndarray, tol: float) -> np.ndarray:
    """Single-linkage component labels of a (K, m) array of finite values,
    each row sorted as np.sort sorts complex values: two values of one row
    are linked iff |z_i - z_j| < tol, and no two rows are. A label is the
    flat index of its component's first value in the rows laid end to
    end, each with one pad slot after it: for one row, an index into it."""
    num, m = values.shape
    # the values that can link to i lie in its window, those after it in
    # its row up to re_j <= fl(re_i + tol): a real part past that is at
    # least tol away, and so is the value. A +inf pad ends each row, and a
    # window that misses offset k misses k + 1
    flat = np.concatenate([values, np.full((num, 1), np.inf)], axis=1).ravel()
    reach, i = flat.real + tol, np.arange(flat.size).reshape(num, m + 1)[:, :m].ravel()
    # run[j] counts the steps j -> j + 1 -> ... linked one after another
    # from j. Once the steps are known, (j, j + k) is implied for
    # k <= run[j] and not stored, so c values within tol of each other
    # cost c - 1 links, not c (c - 1) / 2; and j whose window ends within
    # its run has no link left to find
    run = np.zeros(flat.size, dtype=np.int64)
    links, k = [(np.arange(0), np.arange(0))], 1
    while i.size:
        i = i[flat.real[i + k] <= reach[i]]
        gap = flat[i + k] - flat[i]
        # hypot, as abs() of a complex scalar: the vectorised complex abs
        # can round differently and flip a link at distance ~tol
        linked = i[np.hypot(gap.real, gap.imag) < tol]
        linked = linked[run[linked] < k]
        links.append((linked, linked + k))
        if k == 1 and linked.size:  # j less its place in linked is constant along a run
            key = linked - np.arange(linked.size)
            run[linked] = np.searchsorted(key, key, side="right") - np.arange(linked.size)
            i = i[flat.real[i + run[i] + 1] <= reach[i]]
        k += 1
    label = connected_components(flat.size, *map(np.concatenate, zip(*links)))
    return label.reshape(num, m + 1)[:, :m]


def cluster_spectrum(values: Sequence[complex], tol: float) -> SpectrumMultiset:
    """Single-linkage clustering of eigenvalues in the complex plane.

    Two values are linked iff |z_i - z_j| < tol; each cluster is reported
    at its mean, which for a smeared multiple eigenvalue is far more
    accurate than the individual values (the sum is trace-exact). Exact
    duplicates are merged first; the clusters are the components that
    _link_components finds among the distinct values.
    """
    _check_tol(tol)
    vals = np.asarray(values, dtype=complex).reshape(-1)
    if not vals.size:
        return SpectrumMultiset(entries=())
    if not np.all(np.isfinite(vals)):
        raise SpectrumError("cannot cluster non-finite eigenvalues")
    # distinct values, sorted by real part then imaginary part
    distinct, counts = np.unique(vals, return_counts=True)
    _, cluster = np.unique(_link_components(distinct[None], tol)[0], return_inverse=True)
    mult = np.bincount(cluster, weights=counts).astype(np.int64)
    weighted = distinct * counts
    mean = (
        np.bincount(cluster, weights=weighted.real)
        + 1j * np.bincount(cluster, weights=weighted.imag)
    ) / mult
    # descending real part, then ascending imaginary part: one stable sort
    # of the complex keys (-re, im), so ties keep the order of each
    # cluster's smallest value
    order = np.argsort(-mean.conj(), kind="stable")
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


def spectra_equal(a: SpectrumMultiset, b: SpectrumMultiset, tol: float) -> MatchReport:
    """Compare two eigenvalue multisets by balanced components.

    The distinct values of both sides are linked when at most tol apart;
    each left copy weighs +1, each right copy -1. Inside each component
    that sums to zero, and in one pool of the copies of all others, the
    left and right copies are paired in sorted (re, im) order.
    worst_distance is the largest distance of that pairing, always of a
    real left-right pair, so a shifted eigenvalue reports its shift. The
    sides match iff every component balances and worst_distance <= tol:
    - a MATCH is sound: its pairing is within tol;
    - the verdict is exact for real spectra, and whenever tol is below the
      least distance between distinct values of the two sides;
    - from there on, single linkage can chain values more than tol apart,
      and a complex component's sorted pairing can miss a pairing within
      tol that exists; neither this rule nor a greedy one is complete.
    Unequal sizes give a MISMATCH at worst inf. tol must be non-negative
    and finite (inf would link every pair, nan none); 0 is exact equality.
    """
    if not 0 <= tol < np.inf:
        raise SpectrumError(f"tolerance must be non-negative and finite, got {tol}")
    vals = [np.array([v for v, _ in s.entries], dtype=complex) for s in (a, b)]
    mults = [np.array([m for _, m in s.entries], dtype=np.int64) for s in (a, b)]
    count_left, count_right = (int(m.sum()) for m in mults)
    if count_left != count_right:
        return MatchReport(False, float("inf"), count_left, count_right,
                           f"sizes differ: {count_left} vs {count_right}")
    values, inverse = np.unique(np.concatenate(vals), return_inverse=True)
    # copies[side][j]: how many copies of values[j] that side holds
    copies = [np.bincount(i, weights=m, minlength=len(values)).astype(np.int64)
              for i, m in zip(np.split(inverse, [len(vals[0])]), mults)]
    label = _link_components(values[None], np.nextafter(tol, np.inf))[0]
    unbalanced = np.bincount(label, weights=copies[0] - copies[1]) != 0
    # one part per balanced component, and one pool (-1) for the rest
    part = np.where(unbalanced[label], -1, label)
    left_copies, right_copies = (
        idx[np.argsort(part[idx], kind="stable")]
        for idx in (np.repeat(np.arange(len(values)), c) for c in copies)
    )
    worst = float(np.abs(values[right_copies] - values[left_copies]).max(initial=0.0))
    matched = not unbalanced.any() and worst <= tol
    return MatchReport(matched, worst, count_left, count_right)


def charsum_match_tol(values: Dict[int, np.ndarray], tol: float) -> tuple:
    """Tolerance for matching the charsum spectrum against repr's.

    Root recovery smears a k-fold root of one character's polynomial by
    about eps**(1/k), relative to the spectral radius rho. ``values`` are
    repr's eigenvalues per irrep image, as irrep_eigenvalues returns them;
    k is the largest multiplicity of one of them within one image,
    clustered at tol as in cluster_spectrum: the largest component that
    _link_components finds in a dimension's images, sorted row by row.
    Returns (max(tol, 1e-6, 10 * (1 + rho) * eps**(1/k)), k): the bound
    depends on the root multiplicity, never on the polynomial degree.
    """
    k = max(int(np.bincount(_link_components(np.sort(v, axis=1), tol).ravel()).max())
            for v in values.values())
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


def _solve(solver, m: np.ndarray, **kwargs):
    """solver(m, **kwargs) for one of numpy's eigensolvers or svd, a
    convergence failure raised as SpectrumError."""
    try:
        return solver(m, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise SpectrumError(f"eigensolver did not converge: {exc}") from exc


def _hermitian(m: np.ndarray) -> np.ndarray:
    """Which matrices of a (K, N, N) stack are Hermitian up to rounding, as
    a (K,) bool mask: M passes iff ||M - M^H||_F <= N^2 * eps * ||M||_F.

    The bound is the order of the a-priori backward error of the
    Householder reduction that starts both LAPACK solvers: N - 2
    reflections of order N, each adding O(N eps ||M||_F) (Higham, Accuracy
    and Stability of Numerical Algorithms, on sequences of Householder
    transformations). So a passing M is within the general solver's own
    backward error of its Hermitian part H = (M + M^H) / 2, and since H is
    normal, every eigenvalue of M lies within ||M - H||_2 of one of H's
    (Bauer-Fike).
    Only H may reach eigh or eigvalsh: they read one triangle. The image of
    an undirected digraph under a unitary irrep passes, unless its sums
    cancel to far below the size of their terms; under a non-unitary irrep
    P U P^-1 it is off by the order of ||M|| and fails. A directed
    digraph's image passes only when it is Hermitian all the same, as
    the trivial irrep's image is whenever each pair of vertices has as
    many arcs one way as the other.
    """
    n = m.shape[-1]
    eps = np.finfo(float).eps
    skew = np.linalg.norm(m - m.conj().swapaxes(1, 2), axis=(1, 2))
    return skew <= n * n * eps * np.linalg.norm(m, axis=(1, 2))


def _hermitian_part(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().swapaxes(1, 2)) / 2


def _eigvals(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of a float64 or complex128 (K, N, N) stack, as a complex
    (K, N) array: the matrices that _hermitian passes go to one eigvalsh
    call on their Hermitian parts, real symmetric ones for a float64 stack,
    and every other, cast to complex128, to one eigvals call."""
    hermitian = _hermitian(m)
    vals = np.empty(m.shape[:2], dtype=complex)
    if hermitian.any():
        vals[hermitian] = _solve(np.linalg.eigvalsh, _hermitian_part(m[hermitian]))
    if not hermitian.all():
        vals[~hermitian] = _solve(np.linalg.eigvals, m[~hermitian].astype(complex, copy=False))
    return vals


def eig(m: np.ndarray):
    """Residual-checked eigenpairs of a (K, N, N) stack, in one batched
    solve per solver.

    Returns the eigenvalues (K, N), complex, the eigenvectors (K, N, N) as
    columns, the per-column residuals (K, N), each relative to its
    column's norm, and the per-matrix bounds 1e-8 * (1 + ||M||_2) as a
    (K,) array. A float64 stack stays real, and any other is taken as
    complex128. Each matrix that _hermitian passes goes to eigh, on its
    Hermitian part H, real symmetric for a float64 stack: its eigenvalues
    are real, its eigenvectors orthonormal, and ||M||_2 is taken as
    max |lambda| = ||H||_2. Every other, cast to complex128, goes to eig.
    So the eigenvectors are float64 when the stack is and every matrix
    passes the gate, and complex128 otherwise. Residuals are always of M
    itself. The computed vectors of a Jordan block meet the bound too, so
    a caller that needs a basis also tests the conditioning
    (lift_eigenvectors does).
    """
    m = np.asarray(m)
    m = m if m.dtype == float else m.astype(complex)
    if m.ndim != 3 or m.shape[1] != m.shape[2]:
        raise SpectrumError(f"expected a stack of square matrices, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise SpectrumError("matrix has non-finite entries")
    return _eig(m)[1:]


def _eig(m: np.ndarray):
    """eig's solve of a checked float64 or complex128 stack, led by the
    (K,) mask _hermitian(m) of the matrices that went to eigh: (hermitian,
    eigenvalues, eigenvectors, residuals, bounds)."""
    hermitian = _hermitian(m)
    real = m.dtype == float and hermitian.all()
    vals = np.empty(m.shape[:2], dtype=complex)
    vecs = np.empty(m.shape, dtype=float if real else complex)
    if not m.size:
        return hermitian, vals, vecs, np.empty(vals.shape), np.zeros(len(m))
    norm = np.empty(len(m))
    if hermitian.any():
        vals[hermitian], vecs[hermitian] = _solve(
            np.linalg.eigh, _hermitian_part(m[hermitian]))
        norm[hermitian] = np.abs(vals[hermitian]).max(axis=1)
    general = ~hermitian
    if general.any():
        g = m[general].astype(complex, copy=False)
        vals[general], vecs[general] = _solve(np.linalg.eig, g)
        norm[general] = np.linalg.norm(g, 2, axis=(1, 2))
    res = np.linalg.norm(m @ vecs - vecs * (vals.real if real else vals)[:, None, :], axis=1)
    res = res / np.maximum(np.linalg.norm(vecs, axis=1), 1e-300)
    return hermitian, vals, vecs, res, EIG_RESIDUAL_FACTOR * (1 + norm)


# ---------------------------------------------------------------------------
# Representation route


def _term_images(terms: tuple, r: int, stack: np.ndarray) -> np.ndarray:
    """Images of the r x r algebra matrix with nonzeros terms = (u, v, x,
    coefficient) under a (K, n, d, d) stack of irreps of one dimension d,
    as a (K, r*d, r*d) stack, float64 for a float64 stack and complex128
    for any other: each term adds its multiple of rho(x) into its (u, v)
    d x d block, in the order the terms are listed. Where rho(x) has zero
    imaginary parts, the real part of the complex product c rho(x) is the
    float product c Re rho(x), up to the sign of a zero, which the sum into
    zeros drops, and it is summed in the same order: so the images of a
    float64 stack are the real parts of those of the same stack in
    complex128, to the bit."""
    u, v, x, coeff = terms
    num, _, d, _ = stack.shape
    dtype = float if stack.dtype == float else complex
    blocks = np.zeros((num, r, r, d, d), dtype=dtype)
    np.add.at(blocks, (slice(None), u, v), coeff.astype(dtype)[:, None, None] * stack[:, x])
    return blocks.transpose(0, 1, 3, 2, 4).reshape(num, r * d, r * d)


def rho_matrix(b: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Images of b under a (K, n, d, d) stack of irreps of one dimension d,
    as a (K, r*d, r*d) stack: each algebra entry becomes a d x d block.

    The public form of the irrep routes' kernel (_term_images): its terms
    are the nonzero coefficients of b, in the order np.nonzero lists them
    (voltage._terms). The routes read the same terms from the arcs
    (_irrep_images). The images are float64 for a float64 stack, as
    IrrepSet stores every stack with no nonzero imaginary part, and
    complex128 for any other.
    """
    return _term_images(_terms(b), b.shape[0], stack)


def _check_input(x, kind: type, d: VoltageDigraph, what: str) -> None:
    """x must be a kind, proven when made, of d's group: the same table, not only its order."""
    if not isinstance(x, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise RepresentationError(f"expected {article} {kind.__name__}, got {type(x).__name__}")
    if not (x.group is d.group or np.array_equal(x.group.mul, d.group.mul)):
        raise SpectrumError(f"{what} and digraph use different groups")


def _irrep_images(d: VoltageDigraph, s: IrrepSet):
    """Every irrep route's prologue: check that s is an IrrepSet (so valid)
    of d's group, read B's nonzeros from the arcs once (_quotient_terms,
    the terms rho_matrix takes from B, in its order, so every image is
    rho_matrix(associated_matrix(d), stack) to the bit), and yield (dim,
    first irrep, images) per stack, read as stored: a float64 stack's
    images are float64. B itself is never built."""
    _check_input(s, IrrepSet, d, "irrep set")
    terms = _quotient_terms(d)
    for dim, stack in s.stacks.items():
        yield dim, s.dims.index(dim), _term_images(terms, d.order, stack)


def irrep_eigenvalues(d: VoltageDigraph, s: IrrepSet) -> Dict[int, np.ndarray]:
    """Eigenvalues of the image of the quotient matrix under each irrep.

    For each irrep dimension k, a (K, r*k) array whose row q holds the
    eigenvalues of the image under the q-th irrep of dimension k, row q of
    stacks[k].

    B has integer coefficients, so the image under the partner
    (IrrepSet.conjugates) of irrep i, conj(rho_i) at every generator and
    so everywhere, is conj(rho_i(B)) and has the conjugate eigenvalues.
    Only the representatives, the irreps i with conjugates[i] >= i, are
    solved, in at most two batched calls per dimension (_eigvals): each
    image that is Hermitian up to rounding (see _hermitian) goes to
    eigvalsh and has real eigenvalues, every other to eigvals. Each
    partner's row is the exact conj of its representative's row.
    """
    values = {}
    for dim, first, images in _irrep_images(d, s):
        # a partner has the same matrix size, so it is in this stack
        partner = s.conjugates[first:first + len(images)] - first
        rep = partner >= np.arange(len(images))
        vals = values[dim] = np.empty(images.shape[:2], dtype=complex)
        vals[rep] = _eigvals(images[rep])
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

    Eigenvalues only, in real arithmetic, from the lift's arc list, one
    diagonal block per weakly connected component (_lift_eigenvalues): the
    dense lift is never built. The symmetry test is the oracle's own, not
    the irrep routes' _hermitian gate, and the oracle uses neither the
    irreps nor the voltage block structure of the lift.

    A lift is admitted by its solve cost, priced from its component shapes
    before any block is made: each p x p block at its solver's measured
    cost at size p (BRUTEFORCE_COST, interpolated between the measured
    sizes), and a p x q biadjacency block at the svd cost of the square
    block of as many p q min(p, q) operations. A lift that costs more than
    one eigvals solve of 2000 vertices is refused with SpectrumError, and
    so, before its arcs are read, is one of more than
    BRUTEFORCE_MAX_VERTICES vertices. So every lift of at most 2000
    vertices is admitted, a lift in small components up to that ceiling,
    and a connected undirected one up to 3133 vertices, or 4238 when it
    is bipartite with sides of equal size.
    """
    tol = _checked_cluster_tol(d, tol)  # before the lift is read
    return cluster_spectrum(_lift_eigenvalues(d), tol)


def _lift_eigenvalues(d: VoltageDigraph) -> np.ndarray:
    """Eigenvalues of d's lift adjacency A, one diagonal block per weakly
    connected component of the lift, written from the lift's arcs
    (voltage._lift_arcs): a disconnected graph's spectrum is the union of
    its components' (Cvetkovic, Doob and Sachs, Spectra of Graphs, section
    1.4).

    A is exactly symmetric iff its arc multiset equals its reverse: iff
    the sorted keys t * rn + h of its arcs t -> h equal the sorted keys
    h * rn + t. One connected_components pass labels the components. If A
    is symmetric, the pass runs over the bipartite double cover (nodes v
    and v + rn per lift vertex v, a link t -- h + rn per lift arc t -> h,
    the reverse arc h -> t giving t + rn -- h). Labels are smallest nodes,
    so min(label[v], label[v + rn]) is the smallest vertex of v's
    component, and the component is bipartite iff v's two copies fall in
    different components of the cover; then v lies on the side label[v] >
    label[v + rn], the side without that smallest vertex. Ordered by
    side, the block is [[0, C], [C^T, 0]] with C a p x q block, whose
    eigenvalues are +sigma and -sigma for each singular value sigma of C,
    and |p - q| zeros (ibid., section 3). Each computed sigma is exact for
    some C + E with ||E||_2 = O(eps ||C||_2), so by Weyl every eigenvalue
    moves by at most ||E||_2: the backward error eigvalsh gives too. A
    non-bipartite component goes to eigvalsh. If A is not symmetric, the
    cover joins only t and h + rn, which says nothing of t's and h's
    components, so the pass runs over the lift's own arcs, and every
    component goes to eigvals.

    A lift of more than BRUTEFORCE_MAX_VERTICES vertices is refused before
    its arcs are read, and one whose components' shapes (kind, p, q) cost
    more than one eigvals solve of 2000 vertices before any block is made
    (see lift_spectrum_bruteforce). Each vertex's place in its block is its
    rank among the vertices of its component and side, in index order.
    Components of one kind and shape, in the order of their smallest
    vertices, make one float64 (K, p, q) stack, written by one np.add.at
    over the arcs out of their row sides, and solved in one batched call;
    a connected lift is a (1, rn, rn) stack, or (1, p, q) when it is
    bipartite.
    """
    rn = d.order * d.group.order
    if rn > BRUTEFORCE_MAX_VERTICES:
        raise SpectrumError(f"the {rn}-vertex lift is past the brute-force route's ceiling "
                            f"of {BRUTEFORCE_MAX_VERTICES} vertices")
    tails, heads = (x.ravel() for x in _lift_arcs(d))
    symmetric = np.array_equal(np.sort(tails * rn + heads), np.sort(heads * rn + tails))
    if symmetric:
        label = connected_components(2 * rn, tails, heads + rn)
        lo, hi = label[:rn], label[rn:]
        component, side, bipartite = np.minimum(lo, hi), lo > hi, lo != hi
    else:
        component = connected_components(rn, tails, heads)
        side = bipartite = np.zeros(rn, dtype=bool)
    kind = "eigvalsh" if symmetric else "eigvals"
    solver = getattr(np.linalg, kind)
    roots = np.flatnonzero(component == np.arange(rn))  # each component's smallest vertex
    qs = np.bincount(component[side], minlength=rn)[roots]
    ps = np.bincount(component, minlength=rn)[roots] - qs
    bips = bipartite[roots]
    _check_solve_cost(kind, ps, qs, bips, rn)
    # one integer per shape, since p and q are at most rn
    _, first, shape_of = np.unique((bips * (rn + 1) + ps) * (rn + 1) + qs,
                                   return_index=True, return_inverse=True)
    # each arc out of a row side, as (its block's place in its shape's
    # stack, row, column): a vertex's row or column is its rank in its
    # component and side, and a block's place its rank in its shape
    out = ~side[tails]
    tails, heads = tails[out], heads[out]
    which = np.searchsorted(roots, component[tails])
    rank = _ranks(component * 2 + side)
    slot, row, col = _ranks(shape_of)[which], rank[tails], rank[heads]
    arc_shape, counts = shape_of[which], np.bincount(shape_of)
    parts = []
    for j, (bip, p, q) in enumerate(zip(bips[first], ps[first], qs[first])):
        at = arc_shape == j
        block = np.zeros((counts[j], p, q if bip else p))
        np.add.at(block, (slot[at], row[at], col[at]), 1.0)
        if bip:
            sigma = _solve(np.linalg.svd, block, compute_uv=False)
            zeros = np.zeros((*sigma.shape[:-1], abs(p - q)))
            parts.append(np.concatenate([sigma, -sigma, zeros], axis=-1))
        else:
            parts.append(_solve(solver, block))
    return np.concatenate([x.ravel() for x in parts])


def _ranks(keys: np.ndarray) -> np.ndarray:
    """rank[i]: how many j < i have keys[j] == keys[i]."""
    order = np.argsort(keys, kind="stable")
    rank = np.empty(len(keys), dtype=np.int64)
    rank[order] = np.arange(len(keys)) - np.searchsorted(keys[order], keys[order])
    return rank


def _check_solve_cost(kind: str, ps: np.ndarray, qs: np.ndarray, bips: np.ndarray,
                      rn: int) -> None:
    """Refuse, with SpectrumError, a lift whose component blocks, p x p
    ones for the solver kind and p x q biadjacency ones (bips) for svd,
    cost more than one eigvals solve of 2000 vertices (see
    lift_spectrum_bruteforce)."""
    ps, qs = ps.astype(float), qs.astype(float)
    cost = (np.sum(_block_cost(kind, ps[~bips]))
            + np.sum(_block_cost("svd", np.cbrt((ps * qs * np.minimum(ps, qs))[bips]))))
    if not cost <= 1:
        raise SpectrumError(
            f"brute-force solve of the {rn}-vertex lift costs as much as {cost:.6g} eigvals "
            f"solves of {BRUTEFORCE_SIZES[-1]} vertices, over the budget of one"
        )


def _block_cost(kind: str, sizes: np.ndarray) -> np.ndarray:
    """BRUTEFORCE_COST[kind] at each size, interpolated linearly in log-log
    between the measured sizes; a block smaller than the first is priced as
    one of it, and one past the last at the last cost times the cube of
    the size ratio."""
    sizes, top = np.maximum(sizes, 1.0), BRUTEFORCE_SIZES[-1]
    cost = np.interp(np.log(sizes), np.log(BRUTEFORCE_SIZES), np.log(BRUTEFORCE_COST[kind]))
    return np.exp(cost) * np.maximum(sizes / top, 1.0) ** 3


# ---------------------------------------------------------------------------
# Character / power-sum route


def power_sums_from_characters(
    b: np.ndarray, chi: np.ndarray, length: int, group: GroupTable
) -> np.ndarray:
    """s_l = chi(trace(B^l)) for l = 1..length, traces exact in the group algebra.

    ``chi`` is one character row (n,) or a stack of rows (nu, n); the sums
    come back as (length,) or (nu, length), one row per character.
    """
    return _power_sums(algebra_trace_powers(b, length, group), chi)


def _power_sums(traces: np.ndarray, chi) -> np.ndarray:
    """Power sums: character rows chi, (n,) or (nu, n), times the exact
    traces (n, L), one column per power of B."""
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
    are assembled as in the repr route, each entered d_i times. A table is
    proven when it is made, and its rows are in
    dimension-major order (see CharacterTable), so each degree's rows are
    one slice and the spectrum has r * sum d_i^2 = r * n values.
    """
    _check_input(t, CharacterTable, d, "character table")
    tol = _checked_cluster_tol(d, tol)
    r = d.order
    dims = t.dims
    top = r * max(dims)
    if top > CHARSUM_HARD_CAP:
        raise SpectrumError(
            f"power-sum degree {top} exceeds conditioning cap {CHARSUM_HARD_CAP}"
        )
    # exact traces of B^l, from B's terms read off the arcs, once for every
    # l any row needs, then the whole character table in one (nu x n) @
    # (n x L) product
    sums = _power_sums(_trace_powers(_quotient_terms(d), r, top, d.group), t.rows)
    values = {}
    for k in sorted(set(dims)):
        if r * k > CHARSUM_WARN_DEGREE:
            warnings.warn(f"power-sum degree {r * k} above {CHARSUM_WARN_DEGREE}; "
                          "root recovery may lose accuracy", stacklevel=2)
        first = dims.index(k)
        values[k] = roots_from_power_sums(sums[first:first + dims.count(k), :r * k])
    return spectrum_from_irrep_eigenvalues(values, tol)


# ---------------------------------------------------------------------------
# Cross-checking the routes


def verify(
    d: VoltageDigraph, s: Optional[IrrepSet] = None, t: Optional[CharacterTable] = None,
    tol: Optional[float] = None,
) -> Dict[str, tuple]:
    """Cross-check the spectrum routes on d's lift, all clustered at tol.

    Returns {name: (MatchReport, details)}, details naming the comparison
    tolerance: "repr vs bruteforce" at max(tol, 1e-7), then, if r * max(dim)
    <= CHARSUM_HARD_CAP, "charsum vs repr" with characters from t (from s
    if None) at charsum_match_tol, whose root multiplicity k is added. The
    irreps are s, or builtin_irreps(d.group) if s is None. The inputs are
    checked first, and a group read from a document, given no s, is
    refused with RepresentationError. Then the brute-force oracle runs, so
    a lift past its solve budget or its vertex ceiling is refused with
    SpectrumError before the builtin irreps are built or any irrep image
    is made.
    """
    tol = _checked_cluster_tol(d, tol)
    if t is not None:  # even when charsum does not run
        _check_input(t, CharacterTable, d, "character table")
    if s is not None:
        _check_input(s, IrrepSet, d, "irrep set")
    else:
        _builtin_family(d.group)  # a document group has no builtin irreps
    by_brute = lift_spectrum_bruteforce(d, tol)
    s = builtin_irreps(d.group) if s is None else s
    per_irrep = irrep_eigenvalues(d, s)
    by_repr = spectrum_from_irrep_eigenvalues(per_irrep, tol)
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
    """Eigenpairs of the lift plus bookkeeping about skipped irreps.

    ``pairs`` holds (eigenvalue, vector) with vectors indexed in lift
    vertex order (vertex-major, element-index minor). Each eigenvalue is a
    complex number. A vector is float64 when its irrep's stack is float64
    (IrrepSet) and every image of that stack passed the Hermitian gate, so
    that eigh's real vectors built it, and complex128 otherwise: the
    vectors of an undirected dihedral lift are real. Irreps whose quotient
    image is defective are skipped and listed in ``skipped_irreps``, by index;
    ``skip_reasons`` names, for each, the failed test and its numbers.
    No vector can be zero (see lift_eigenvectors): ``zero_vectors_excluded``
    is always 0 and stays only for readers that still account for it.
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
    x. Pairs come in the set's irrep order, then eigencolumn, then slot.
    None is zero: by Schur orthogonality its norm^2 is (n/dim) ||x||^2 for
    a unitary rho, and at least that over cond(P)^2 for rho = P U P^-1.

    The irreps of one dimension d are solved together: one batched,
    residual-checked eigensolve of their (K, r*d, r*d) image stack (eig:
    the images that are Hermitian up to rounding go to eigh, every other
    to the general solver), and one batched condition number of the
    general solver's eigenvector matrices; eigh's are unitary. An irrep is
    skipped when its eigenvector matrix is worse conditioned than
    DEFECTIVE_COND_LIMIT or a column misses the residual bound. The vectors
    of the kept irreps are written in place into one array
    fib[K, r*d, d, r, n]: slice (q, c, k) is already the lift vector of
    irrep q, column c, slot k, filled by one matmul per slot, and the
    returned vectors are the rows of its (K, r*d*d, r*n) reshape. fib is
    float64 when the eigenvectors are, which needs a float64 stack, and
    complex128 otherwise.
    """
    n, r = d.group.order, d.order
    pairs, skipped, reasons = [], [], []
    for di, first, images in _irrep_images(d, s):
        hermitian, vals, vecs, res, bound = _eig(images)
        # _eig sends the images _hermitian passes to eigh, whose basis is
        # unitary to working precision: its condition number is 1 + O(N eps)
        # and cannot fail the test, so only the general solver's are taken
        general = ~hermitian
        cond = np.ones(len(images))
        if general.any():
            cond[general] = np.linalg.cond(vecs[general])
        worst = res.max(axis=1)
        bad_cond, bad_res = ~(cond <= DEFECTIVE_COND_LIMIT), ~(worst <= bound)  # nan is bad
        for q in np.flatnonzero(bad_cond | bad_res).tolist():
            skipped.append(first + q)
            reasons.append(f"cond {cond[q]:.1e} > {DEFECTIVE_COND_LIMIT:.0e}" if bad_cond[q]
                           else f"residual {worst[q]:.1e} > bound {bound[q]:.1e}")
        ok = np.flatnonzero(~(bad_cond | bad_res))
        if not len(ok):
            continue
        # fib[q, c, k, v, h] = sum_j rho_q(h)[k, j] x[q, v*d + j, c]: for
        # slot k, a (K, r) batch of (r*d, d) @ (d, n) products, written
        # through a strided view of fib, in the dtype of the eigenvectors
        rho = s.stacks[di][ok]
        x = vecs[ok].reshape(len(ok), r, di, r * di).transpose(0, 1, 3, 2)
        fib = np.empty((len(ok), r * di, di, r, n), dtype=vecs.dtype)
        for k in range(di):
            np.matmul(
                x, rho[:, None, :, k, :].transpose(0, 1, 3, 2),
                out=fib[:, :, k].transpose(0, 2, 1, 3),
            )
        # row c*d + k is column c, slot k
        mus = np.repeat(vals[ok], di, axis=1).tolist()
        for mq, wq in zip(mus, fib.reshape(len(ok), r * di * di, r * n)):
            pairs += zip(mq, wq)
    return LiftEigenvectors(
        pairs=tuple(pairs),
        zero_vectors_excluded=0,
        skipped_irreps=tuple(skipped),
        skip_reasons=tuple(reasons),
    )
