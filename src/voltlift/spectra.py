"""Lift spectra three ways, plus eigenvector construction and comparison.

The default route maps the quotient matrix through each irreducible
representation and solves the resulting small dense eigenproblems, one
batched call per irrep dimension. The character route recovers eigenvalues
from power sums (Newton's identities, cross-checked against a determinant
formula), and the brute-force route diagonalizes the explicit lift. The
spectrum routes compute eigenvalues only; the residual-checked eigenpair
solver serves the lift eigenvectors. All three routes must agree, and the
test suite holds them to that.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from math import factorial
from typing import List, Optional, Sequence

import numpy as np

from .groups import GroupTable
from .reps import CharacterTable, Irrep, IrrepSet
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

    def values(self) -> np.ndarray:
        """All eigenvalues with repetition, in entry order."""
        return np.concatenate(
            [np.full(m, v, dtype=complex) for v, m in self.entries]
        ) if self.entries else np.empty(0, dtype=complex)

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


def cluster_spectrum(values: Sequence[complex], tol: float) -> SpectrumMultiset:
    """Single-linkage clustering of eigenvalues in the complex plane.

    Two values are linked iff |z_i - z_j| < tol; each cluster is reported
    at its mean, which for a smeared multiple eigenvalue is far more
    accurate than the individual values (the sum is trace-exact). Exact
    duplicates are merged first, and only pairs whose real parts lie
    within tol of each other are ever compared.
    """
    if not tol > 0:
        raise SpectrumError("tolerance must be positive")
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


def _sorted(vals):
    return sorted(vals, key=lambda z: (complex(z).real, complex(z).imag))


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
    """Greedy minimal-distance matching of two eigenvalue multisets.

    Both sides are sorted, then each left value grabs its nearest unused
    right value. Adequate whenever tol is far below the eigenvalue gaps;
    mismatch is reported, never raised.
    """
    va = _sorted(a.values())
    vb = _sorted(b.values())
    if len(va) != len(vb):
        return MatchReport(
            matched=False,
            worst_distance=float("inf"),
            count_left=len(va),
            count_right=len(vb),
            message=f"sizes differ: {len(va)} vs {len(vb)}",
        )
    if not va:
        return MatchReport(True, 0.0, 0, 0)
    vb_arr = np.asarray(vb, dtype=complex)
    used = np.zeros(len(vb), dtype=bool)
    worst = 0.0
    for x in va:
        dist = np.abs(vb_arr - complex(x))
        dist[used] = np.inf
        j = int(np.argmin(dist))
        used[j] = True
        worst = max(worst, float(dist[j]))
    return MatchReport(
        matched=worst <= tol,
        worst_distance=worst,
        count_left=len(va),
        count_right=len(vb),
    )


def default_cluster_tol(d: VoltageDigraph) -> float:
    """1e-9 * (1 + the lift adjacency 1-norm), computed from the base."""
    # the 1-norm of the lift adjacency equals the maximum in-degree of the
    # base (each lift column replicates one base column's count)
    max_in = int(d.in_degrees().max()) if d.arcs else 0
    return 1e-9 * (1 + max_in)


# ---------------------------------------------------------------------------
# Dense eigensolver wrapper


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenpairs plus per-pair residuals.

    ``vector_ok[i]`` marks pairs whose residual meets the bound
    1e-8 * (1 + ||M||); eigenvalues are always reported, but vectors of
    defective matrices may fail the bound and are flagged instead of
    trusted.
    """

    dim: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray  # columns paired with eigenvalues
    residuals: np.ndarray
    residual_bound: float
    vector_ok: np.ndarray


def eig(m: np.ndarray) -> EigenDecomposition:
    """Eigenpairs of a general dense complex matrix, residual-checked.

    Only lift_eigenvectors needs the vectors; the spectrum routes solve for
    eigenvalues alone.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SpectrumError(f"matrix must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise SpectrumError("matrix has non-finite entries")
    try:
        vals, vecs = np.linalg.eig(m)
    except np.linalg.LinAlgError as exc:
        raise SpectrumError(f"eigensolver did not converge: {exc}") from exc
    if m.size:
        res = np.linalg.norm(m @ vecs - vecs * vals, axis=0)
        scale = np.maximum(np.linalg.norm(vecs, axis=0), 1e-300)
        res = res / scale
    else:
        res = np.empty(0)
    bound = EIG_RESIDUAL_FACTOR * (1 + np.linalg.norm(m, 2)) if m.size else 0.0
    return EigenDecomposition(
        dim=m.shape[0],
        eigenvalues=vals,
        eigenvectors=vecs,
        residuals=res,
        residual_bound=bound,
        vector_ok=res <= bound,
    )


# ---------------------------------------------------------------------------
# Representation route


def _rho_stack(b: np.ndarray, irreps: Sequence[Irrep]) -> np.ndarray:
    """Images of b under irreps of one dimension d, as a (K, r*d, r*d) stack.

    Only the nonzero coefficients of b are visited: each adds its multiple
    of rho(x) into its (u, v) block, in the order np.nonzero lists them.
    """
    r = b.shape[0]
    d = irreps[0].dim
    u, v, x = np.nonzero(b)
    terms = b[u, v, x].astype(complex)[:, None, None] * np.array(
        [irrep.matrices[x] for irrep in irreps]
    )
    blocks = np.zeros((len(irreps), r, r, d, d), dtype=complex)
    np.add.at(blocks, (slice(None), u, v), terms)
    return blocks.transpose(0, 1, 3, 2, 4).reshape(len(irreps), r * d, r * d)


def rho_matrix(b: np.ndarray, irrep: Irrep) -> np.ndarray:
    """Apply an irrep entrywise: each algebra entry becomes a d x d block."""
    return _rho_stack(b, [irrep])[0]


def _checked_total(spectrum: SpectrumMultiset, total: int) -> SpectrumMultiset:
    if spectrum.total != total:
        raise SpectrumError(
            f"clustered multiplicities sum to {spectrum.total}, expected {total}"
        )
    return spectrum


def lift_spectrum_repr(
    d: VoltageDigraph, s: IrrepSet, tol: Optional[float] = None
) -> SpectrumMultiset:
    """Full lift spectrum from the per-irrep quotient eigenproblems.

    Each eigenvalue of the image of the quotient matrix under irrep i is
    inserted with multiplicity dim_i. Eigenvalues only: the images of all
    irreps of one dimension are solved in one batched call.
    """
    if s.group.order != d.group.order:
        raise SpectrumError("irrep set and digraph use different groups")
    tol = default_cluster_tol(d) if tol is None else tol
    if tol <= 0:
        raise SpectrumError("tolerance must be positive")
    b = associated_matrix(d)
    values = []
    for dim in sorted(set(s.dims)):
        same_dim = [irrep for irrep in s.irreps if irrep.dim == dim]
        try:
            vals = np.linalg.eigvals(_rho_stack(b, same_dim))
        except np.linalg.LinAlgError as exc:
            raise SpectrumError(f"eigensolver did not converge: {exc}") from exc
        values.append(np.repeat(vals.reshape(-1), dim))
    return _checked_total(
        cluster_spectrum(np.concatenate(values), tol), d.order * d.group.order
    )


def lift_spectrum_bruteforce(
    d: VoltageDigraph, tol: Optional[float] = None, max_order: int = 2000
) -> SpectrumMultiset:
    """Spectrum of the explicit lift adjacency matrix (the oracle path).

    Eigenvalues only, in real arithmetic; a symmetric adjacency (every
    undirected lift) goes to the Hermitian solver. The oracle uses neither
    the irreps nor any block structure of the lift.
    """
    tol = default_cluster_tol(d) if tol is None else tol
    if tol <= 0:
        raise SpectrumError("tolerance must be positive")
    rn = d.order * d.group.order
    if rn > max_order:
        raise SpectrumError(f"lift order {rn} exceeds brute-force cap {max_order}")
    a = build_lift(d).adjacency
    try:
        vals = np.linalg.eigvalsh(a) if np.array_equal(a, a.T) else np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise SpectrumError(f"eigensolver did not converge: {exc}") from exc
    return _checked_total(cluster_spectrum(vals, tol), rn)


# ---------------------------------------------------------------------------
# Character / power-sum route


@dataclass(frozen=True)
class PowerSums:
    """Power sums s_1..s_L of a degree-d multiset of complex numbers."""

    sums: tuple
    degree: int

    def __post_init__(self):
        if len(self.sums) < self.degree:
            raise SpectrumError(
                f"need at least {self.degree} power sums, got {len(self.sums)}"
            )


def power_sums_from_characters(
    b: np.ndarray, chi: np.ndarray, length: int, group: GroupTable
) -> PowerSums:
    """s_l = chi(trace(B^l)) for l = 1..length, traces exact in the group algebra."""
    traces = algebra_trace_powers(b, length, group)
    sums = np.asarray(chi, dtype=complex) @ traces.astype(complex)
    return PowerSums(sums=tuple(sums.tolist()), degree=length)


def _newton_poly_coeffs(sums: Sequence[complex], degree: int) -> np.ndarray:
    """Monic polynomial coefficients (highest power first) via Newton's
    identities: k*e_k = sum_{j=1..k} (-1)^(j-1) e_{k-j} s_j."""
    e = [1.0 + 0j]
    for k in range(1, degree + 1):
        acc = 0j
        for j in range(1, k + 1):
            acc += (-1) ** (j - 1) * e[k - j] * sums[j - 1]
        e.append(acc / k)
    return np.array([(-1) ** k * e[k] for k in range(degree + 1)], dtype=complex)


def _determinant_poly_coeffs(sums: Sequence[complex], degree: int) -> np.ndarray:
    """Same polynomial from the (d+1) x (d+1) power-sum determinant.

    Row 0 holds z^d .. z, 1; row k holds (s_k, s_{k-1}, ..., s_1, k, 0, ...).
    Cofactor expansion along row 0 gives each coefficient as a numeric
    minor determinant; dividing by d! makes the polynomial monic.
    """
    d = degree
    c = np.zeros((d + 1, d + 1), dtype=complex)
    for k in range(1, d + 1):
        for col in range(k):
            c[k, col] = sums[k - 1 - col]
        c[k, k] = k
    coeffs = np.empty(d + 1, dtype=complex)
    for j in range(d + 1):
        minor = np.delete(np.delete(c, 0, axis=0), j, axis=1)
        det = np.linalg.det(minor) if minor.size else 1.0
        coeffs[j] = (-1) ** j * det / factorial(d)
    return coeffs


def roots_from_power_sums(p: PowerSums, max_degree: int = CHARSUM_HARD_CAP) -> np.ndarray:
    """Recover the unique multiset with the given power sums.

    Both the Newton-identity recurrence and the determinant formula are
    evaluated and must agree coefficientwise; roots come from the Newton
    polynomial via a companion-matrix eigensolve.
    """
    d = p.degree
    if d < 1:
        raise SpectrumError("degree must be >= 1")
    if d > max_degree:
        raise SpectrumError(f"degree {d} exceeds cap {max_degree}")
    sums = p.sums[:d]
    newton = _newton_poly_coeffs(sums, d)
    determinant = _determinant_poly_coeffs(sums, d)
    smax = max(1.0, max(abs(s) for s in sums))
    if np.abs(newton - determinant).max() > 1e-8 * smax ** d:
        raise SpectrumError(
            "Newton-identity and determinant polynomials disagree: "
            f"max coefficient gap {np.abs(newton - determinant).max():.3e}"
        )
    roots = np.roots(newton)
    # residual check: the recovered roots must reproduce the input sums
    recomputed = [complex(np.sum(roots ** k)) for k in range(1, d + 1)]
    worst = max(abs(a - b) for a, b in zip(recomputed, sums))
    if worst > 1e-5 * smax:
        raise SpectrumError(
            f"inconsistent power sums: round-trip error {worst:.3e}"
        )
    return roots


def lift_spectrum_charsum(
    d: VoltageDigraph, t: CharacterTable, tol: Optional[float] = None
) -> SpectrumMultiset:
    """Lift spectrum from character power sums and root recovery."""
    if t.group.order != d.group.order:
        raise SpectrumError("character table and digraph use different groups")
    tol = default_cluster_tol(d) if tol is None else tol
    if tol <= 0:
        raise SpectrumError("tolerance must be positive")
    r = d.order
    dims = t.dims
    for di in dims:
        if r * di > CHARSUM_HARD_CAP:
            raise SpectrumError(
                f"power-sum degree {r * di} exceeds conditioning cap {CHARSUM_HARD_CAP}"
            )
        if r * di > CHARSUM_WARN_DEGREE:
            warnings.warn(
                f"power-sum degree {r * di} above {CHARSUM_WARN_DEGREE}; "
                "root recovery may lose accuracy",
                stacklevel=2,
            )
    # exact traces of B^l once for every l any row needs, then the whole
    # character table in one (nu x n) @ (n x L) product
    traces = algebra_trace_powers(associated_matrix(d), r * max(dims), d.group)
    table = t.rows @ traces.astype(complex)
    values: List[complex] = []
    for sums, di in zip(table, dims):
        roots = roots_from_power_sums(PowerSums(tuple(sums[:r * di].tolist()), r * di))
        for z in roots:
            values.extend([complex(z)] * di)
    return _checked_total(cluster_spectrum(values, tol), r * d.group.order)


# ---------------------------------------------------------------------------
# Eigenvectors of the lift


@dataclass(frozen=True)
class LiftEigenvectors:
    """Eigenpairs of the lift plus bookkeeping about exclusions.

    ``pairs`` holds (eigenvalue, vector) with vectors indexed in lift
    vertex order (vertex-major, element-index minor). Irreps whose quotient
    image is defective are skipped and listed in ``skipped_irreps``.
    """

    pairs: tuple
    zero_vectors_excluded: int
    skipped_irreps: tuple


def lift_eigenvectors(d: VoltageDigraph, s: IrrepSet) -> LiftEigenvectors:
    """Lift eigenvectors assembled from quotient eigenvectors.

    For each irrep, each eigencolumn of the quotient image, and each of the
    dim coordinate slots, the lift vector takes value (rho(h) x_v c)_k at
    lift vertex (v, h), where x_v is vertex v's row block of the quotient
    eigenvector matrix.
    """
    group = d.group
    n = group.order
    r = d.order
    b = associated_matrix(d)
    pairs = []
    skipped = []
    zeros = 0
    for i, irrep in enumerate(s.irreps):
        di = irrep.dim
        m = rho_matrix(b, irrep)
        dec = eig(m)
        u_mat = dec.eigenvectors
        if m.size:
            cond = np.linalg.cond(u_mat)
            if (
                not np.isfinite(cond)
                or cond > DEFECTIVE_COND_LIMIT
                or not np.all(dec.vector_ok)
            ):
                skipped.append(i)
                continue
        # x_blocks[v] is the di x (r*di) row block for base vertex v
        for c in range(r * di):
            mu = complex(dec.eigenvalues[c])
            col = u_mat[:, c]
            # value at lift vertex (v, h), all h at once: rho(h) @ x_v_col
            fibers = np.empty((r, n, di), dtype=complex)
            for v in range(r):
                xc = col[v * di:(v + 1) * di]
                fibers[v] = np.einsum("hij,j->hi", irrep.matrices, xc)
            for k in range(di):
                w = fibers[:, :, k].reshape(r * n)
                if np.linalg.norm(w) < ZERO_VECTOR_NORM:
                    zeros += 1
                    continue
                pairs.append((mu, w))
    return LiftEigenvectors(
        pairs=tuple(pairs),
        zero_vectors_excluded=zeros,
        skipped_irreps=tuple(skipped),
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
