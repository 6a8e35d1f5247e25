"""Brute-force oracles that the tests check the library against.

Each serves only as an independent second route: a search for a
multiplication-preserving bijection between two group tables and
closed-walk power sums by direct enumeration (both exponential in their
input), group-algebra products by a loop over the right operand's nonzeros
in Python-int object arithmetic, single-linkage clustering by a quadratic
pairwise loop, charsum's root multiplicity by dense linking of every pair
within one image, lift eigenvectors by one eigensolve per irrep and one
product per eigencolumn and base vertex, the polynomial behind a row of
power sums by a determinant formula and by a scalar Newton recurrence with
np.roots, and irrep-set validation by one check per irrep plus the
character Gram product, character-table validation by the Gram product
over every element, the least distance within which two spectra pair up
by an exact bottleneck matching over every copy, the conjugate pairing by
a nearest-row search over the character table, an irrep set's character
rows by snapping every trace, with no prefilter, the eigenvalues of a
lift by one dense solve of its whole adjacency, by one solve per
connected component, found by breadth-first search, and by the blocks
gathered out of the dense adjacency, as the brute-force route once
did, a group's greedy
generators by closing the reached set under products, whether a small
table is a group by testing every triple, the message a refused table gets
when the Latin scan runs first, and the quotient matrix by one increment
per arc.
"""

from itertools import product
from math import factorial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from voltlift import groups
from voltlift.groups import GroupError, GroupTable, connected_components
from voltlift.reps import HOM_TOL, SNAP_TOL, SUM_TOL, IrrepSet, RepresentationError
from voltlift.spectra import (
    DEFECTIVE_COND_LIMIT,
    LiftEigenvectors,
    SpectrumMultiset,
    eig,
    rho_matrix,
)
from voltlift.voltage import VoltageDigraph, _lift_arcs, build_lift

from conftest import irrep_matrices

# a lift vector below this norm counts as zero in lift_eigenvectors_loop
ZERO_VECTOR_NORM = 1e-12


def find_isomorphism(g1: GroupTable, g2: GroupTable):
    """Brute-force search for a mul-preserving bijection g1 -> g2.

    Returns the bijection as a tuple (image of each g1 index) or None.
    Exponential; intended only as a test helper for tiny groups.
    """
    import itertools

    if g1.order != g2.order:
        return None
    n = g1.order
    for perm in itertools.permutations(range(n)):
        if perm[g1.identity] != g2.identity:
            continue
        p = np.asarray(perm)
        if np.array_equal(p[g1.mul], g2.mul[p[:, None], p[None, :]]):
            return tuple(perm)
    return None


def power_sums_by_walk_enumeration(
    d: VoltageDigraph, chi: np.ndarray, length: int
) -> tuple:
    """Independent oracle: sum chi over all closed walks' net voltages.

    Enumerates every closed walk of each length directly; exponential, so
    only sensible for very short lengths.
    """
    chi = np.asarray(chi, dtype=complex)
    group = d.group
    out_arcs: List[List[Tuple[int, int]]] = [[] for _ in range(d.order)]
    for u, v, x in d.arcs:
        out_arcs[u].append((v, x))
    sums = []
    for ell in range(1, length + 1):
        total = 0j
        for start in range(d.order):
            stack = [(start, group.identity, 0)]
            while stack:
                vertex, voltage, steps = stack.pop()
                if steps == ell:
                    if vertex == start:
                        total += chi[voltage]
                    continue
                for head, x in out_arcs[vertex]:
                    stack.append((head, int(group.mul[voltage, x]), steps + 1))
        sums.append(complex(total))
    return tuple(sums)


def closure_generators(mul: np.ndarray, identity: int) -> tuple:
    """Greedy generators by the closure rule: add the first element not yet
    reached, then close the reached set under products, by repeated
    squaring of the reached set, until no product adds an element."""
    n = mul.shape[0]
    reached = np.zeros(n, dtype=bool)
    reached[identity] = True
    gens = []
    while not reached.all():
        g = int(np.argmin(reached))
        gens.append(g)
        reached[g] = True
        while not reached.all():
            r = np.flatnonzero(reached)
            reached[mul[np.ix_(r, r)]] = True
            if reached.sum() == r.size:  # closed under products
                break
    return tuple(gens)


def naive_group(mul) -> Optional[tuple]:
    """(identity, inverse, classes) of a table, as GroupTable orders them,
    or None when it is no group: every triple is tested for associativity,
    every element for a two-sided identity and each for a two-sided inverse,
    and a class is the set of s x s^-1 over every element s."""
    m = [[int(v) for v in row] for row in mul]
    n = len(m)
    if any(m[m[x][y]][z] != m[x][m[y][z]] for x, y, z in product(range(n), repeat=3)):
        return None
    ids = [e for e in range(n) if all(m[e][x] == x == m[x][e] for x in range(n))]
    if not ids:
        return None
    e = ids[0]
    inverse = [next((y for y in range(n) if m[x][y] == e == m[y][x]), None) for x in range(n)]
    if None in inverse:
        return None
    classes = {tuple(sorted({m[m[s][x]][inverse[s]] for s in range(n)})) for x in range(n)}
    return e, tuple(inverse), tuple(sorted(classes, key=lambda c: (e not in c, c[0])))


def right_product_generators(mul: np.ndarray, identity: int) -> tuple:
    """Greedy generators of a Latin square with no doubling guard: add the
    first element not yet reached, the reached set being every product
    (..((e*s_1)*s_2)..)*s_k, until every element is reached. On a Latin
    square right multiplication is a permutation, so this is the set the
    links x -- x*s connect to the identity."""
    n = mul.shape[0]
    reached, gens = {identity}, []
    while len(reached) < n:
        gens.append(min(set(range(n)) - reached))
        frontier = list(reached)
        for x in frontier:  # the frontier grows while it is read
            for s in gens:
                y = int(mul[x, s])
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
    return tuple(gens)


def latin_first_refusal(mul: np.ndarray) -> Optional[str]:
    """The message of the first GroupError the table's checks raise in the
    order Latin scan, identity, inverses, greedy generators, Light's test,
    or None when none does. Each check is the library's own, bar the
    generators, which are right_product_generators."""
    try:
        groups._check_latin_square(mul)
        identity = groups._find_identity(mul)
        groups._find_inverses(mul, identity)
        groups._check_associativity(mul, right_product_generators(mul, identity))
    except GroupError as exc:
        return str(exc)
    return None


def associated_matrix_loop(d: VoltageDigraph) -> np.ndarray:
    """The quotient matrix by one increment per arc: b[u, v, x] counts the
    arcs u -> v with voltage x, in Python ints."""
    b = np.zeros((d.order, d.order, d.group.order), dtype=object)
    for u, v, x in d.arcs:
        b[u, v, x] += 1
    return b


def algebra_matmul_loop(a: np.ndarray, b: np.ndarray, group: GroupTable) -> np.ndarray:
    """(ab)[u, v] = sum_w a[u, w] b[w, v] in Python ints: each nonzero
    b[w, v, h] adds b[w, v, h] * a[u, w, g h^-1] to the coefficient of g."""
    a = np.asarray(a, dtype=object)
    b = np.asarray(b, dtype=object)
    mul, inv = group.mul, group.inverse
    out = np.zeros((a.shape[0], b.shape[1], group.order), dtype=object)
    for w, v, h in zip(*np.nonzero(b)):
        out[:, v] += b[w, v, h] * a[:, w, mul[:, inv[h]]]
    return out


def algebra_matrix_power_loop(b: np.ndarray, ell: int, group: GroupTable) -> np.ndarray:
    """B^ell by ell products algebra_matmul_loop(., b); B^0 is the identity."""
    r = b.shape[0]
    out = np.zeros((r, r, group.order), dtype=object)
    out[np.arange(r), np.arange(r), group.identity] = 1
    for _ in range(ell):
        out = algebra_matmul_loop(out, b, group)
    return out


def algebra_trace_powers_loop(b: np.ndarray, length: int, group: GroupTable) -> np.ndarray:
    """Traces of B^1..B^length as the columns of an (n, length) object array."""
    traces = np.zeros((group.order, length), dtype=object)
    power = algebra_matrix_power_loop(b, 0, group)
    for ell in range(length):
        power = algebra_matmul_loop(power, b, group)
        traces[:, ell] = np.trace(power)
    return traces


def bottleneck_distance_loop(a: SpectrumMultiset, b: SpectrumMultiset) -> float:
    """The least d such that the copies of a and b can be paired one to one
    with every pair at most d apart (inf if the sizes differ).

    An exact bottleneck matching over every copy: the distinct pair
    distances are swept in increasing order, each threshold adds its pairs
    to a bipartite graph, and augmenting paths grow one matching until it
    is perfect. Distances are np.abs of right minus left, as spectra_equal
    takes them.
    """
    va = [v for v, m in a.entries for _ in range(m)]
    vb = [v for v, m in b.entries for _ in range(m)]
    if len(va) != len(vb):
        return float("inf")
    if not va:
        return 0.0
    dist = np.abs(np.asarray(vb, dtype=complex)[None, :] - np.asarray(va, dtype=complex)[:, None])
    partner = [-1] * len(vb)  # the left copy each right copy is paired with

    def augment(i, seen, limit):
        for j in np.flatnonzero(dist[i] <= limit):
            if j not in seen:
                seen.add(j)
                if partner[j] < 0 or augment(partner[j], seen, limit):
                    partner[j] = i
                    return True
        return False

    unmatched = list(range(len(va)))
    for limit in np.unique(dist):
        unmatched = [i for i in unmatched if not augment(i, set(), limit)]
        if not unmatched:
            return float(limit)
    raise AssertionError("the complete bipartite graph has a perfect matching")


def cluster_spectrum_loop(values: Sequence[complex], tol: float) -> list:
    """Single-linkage clustering by the pairwise loop: link iff |z_i - z_j| < tol.

    Returns (mean, multiplicity) pairs, sorted by descending real part, then
    ascending imaginary part. O(m^2) with union-find over sorted values.
    """
    vals = sorted((complex(v) for v in values), key=lambda z: (z.real, z.imag))
    m = len(vals)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    arr = np.asarray(vals, dtype=complex)
    for i in range(m):
        # values are sorted by real part: once the real gap alone reaches
        # tol, no later value can link to i
        for j in range(i + 1, m):
            if arr[j].real - arr[i].real >= tol:
                break
            if abs(arr[j] - arr[i]) < tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(vals[i])
    entries = [(complex(np.mean(c)), len(c)) for c in groups.values()]
    entries.sort(key=lambda e: (-e[0].real, e[0].imag))
    return entries


def charsum_match_tol_dense(values: Dict[int, np.ndarray], tol: float) -> tuple:
    """charsum_match_tol by dense linking: every pair of values within one
    image is linked iff |z_i - z_j| < tol, from a (K, N, N) array of gaps
    per dimension, and k is the largest component of one
    groups.connected_components call per dimension."""
    k = 1
    for v in values.values():
        num, size = v.shape
        gap = v[:, :, None] - v[:, None, :]
        # value i of image q is node q * size + i: no link joins two images
        q, i, j = np.nonzero(np.hypot(gap.real, gap.imag) < tol)
        label = connected_components(num * size, q * size + i, q * size + j)
        k = max(k, int(np.bincount(label).max()))
    rho = max(float(np.abs(v).max()) for v in values.values())
    eps = float(np.finfo(float).eps)
    return max(tol, 1e-6, 10 * (1 + rho) * eps ** (1 / k)), k


def lift_eigenvectors_loop(d: VoltageDigraph, s: IrrepSet) -> LiftEigenvectors:
    """Lift eigenvectors assembled from quotient eigenvectors.

    For each irrep, each eigencolumn of the quotient image, and each of the
    dim coordinate slots, the lift vector takes value (rho(h) x_v c)_k at
    lift vertex (v, h), where x_v is vertex v's row block of the quotient
    eigenvector matrix. Each image is solved alone, by the solver that the
    library picks for it (spectra.eig): the Hermitian one only when the
    image passes the rounding-level test. Each irrep's matrices are read
    from its stack as stored: those of a float64 stack, one with no nonzero
    imaginary part, give a real image.
    """
    group = d.group
    n = group.order
    r = d.order
    b = associated_matrix_loop(d)
    pairs = []
    skipped = []
    zeros = 0
    for i, di in enumerate(s.dims):
        mats = irrep_matrices(s, i)
        m = rho_matrix(b, mats[None])[0]
        vals, u_mat, res, bound = (a[0] for a in eig(m[None]))
        if m.size:
            cond = np.linalg.cond(u_mat)
            if (
                not np.isfinite(cond)
                or cond > DEFECTIVE_COND_LIMIT
                or not np.all(res <= bound)
            ):
                skipped.append(i)
                continue
        # x_blocks[v] is the di x (r*di) row block for base vertex v
        for c in range(r * di):
            mu = complex(vals[c])
            col = u_mat[:, c]
            # value at lift vertex (v, h), all h at once: rho(h) @ x_v_col
            fibers = np.empty((r, n, di), dtype=np.result_type(mats, u_mat))
            for v in range(r):
                xc = col[v * di:(v + 1) * di]
                fibers[v] = np.einsum("hij,j->hi", mats, xc)
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


def determinant_poly_coeffs(sums: Sequence[complex]) -> np.ndarray:
    """Monic polynomial (highest power first) with power sums s_1..s_d, from
    the (d+1) x (d+1) power-sum determinant.

    Row 0 holds z^d .. z, 1; row k holds (s_k, s_{k-1}, ..., s_1, k, 0, ...).
    Cofactor expansion along row 0 gives each coefficient as a numeric
    minor determinant; dividing by d! makes the polynomial monic.
    """
    d = len(sums)
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


def roots_from_power_sums_loop(sums: Sequence[complex]) -> np.ndarray:
    """Roots of one row of power sums s_1..s_d: Newton's identities
    k*e_k = sum_{j=1..k} (-1)^(j-1) e_{k-j} s_j one scalar at a time, then
    np.roots of the monic polynomial."""
    d = len(sums)
    e = [1.0 + 0j]
    for k in range(1, d + 1):
        acc = 0j
        for j in range(1, k + 1):
            acc += (-1) ** (j - 1) * e[k - j] * sums[j - 1]
        e.append(acc / k)
    return np.roots(np.array([(-1) ** k * e[k] for k in range(d + 1)], dtype=complex))


def _validate_irrep(group: GroupTable, mats: np.ndarray, d: int, label: str) -> None:
    n = group.order
    if mats.shape != (n, d, d):
        raise RepresentationError(
            f"{label}: expected {n} matrices of size {d}x{d}, got shape {mats.shape}"
        )
    if not np.allclose(mats[group.identity], np.eye(d), atol=HOM_TOL):
        raise RepresentationError(f"{label}: identity element is not mapped to I")
    gens = list(group.generators) or [group.identity]
    prod = np.tensordot(mats, mats[gens], axes=(2, 1)).transpose(2, 0, 1, 3)
    expected = mats[group.mul[:, gens].T]          # [k, g] = rho(g s_k)
    err = np.abs(prod - expected).reshape(len(gens), n, -1).max(axis=2)
    if not err.max() <= HOM_TOL:
        k, a = np.unravel_index(np.argmax(err), err.shape)
        b = gens[k]
        raise RepresentationError(
            f"{label}: not a homomorphism at pair "
            f"({group.element_names[a]!r}, {group.element_names[b]!r}), "
            f"max entry error {err[k, a]:.3e}"
        )


@np.errstate(invalid="ignore")  # an inf entry gives nan, which must fail a test
def validate_irrep_set_loop(s: IrrepSet) -> None:
    """Irrep-set validation one irrep at a time: identity, homomorphism
    through the generators and zero element sum per irrep, then the full
    nu x nu Gram product of the character rows. Each tolerance test here
    and in validate_character_table_gram reads not (x <= tol), so that a
    nan, which compares false with everything, fails it."""
    group = s.group
    n = group.order
    nu = len(group.classes)
    if len(s.dims) != nu:
        raise RepresentationError(
            f"expected {nu} irreps (one per conjugacy class), got {len(s.dims)}"
        )
    if sum(d ** 2 for d in s.dims) != n:
        raise RepresentationError(
            f"sum of squared dimensions {sum(d ** 2 for d in s.dims)} != group order {n}"
        )
    rows = []
    for i, d in enumerate(s.dims):
        label = f"irrep {i} (dim {d})"
        mats = irrep_matrices(s, i)
        _validate_irrep(group, mats, d, label)
        if i > 0 and not np.abs(mats.sum(axis=0)).max() <= SUM_TOL * n:
            raise RepresentationError(f"{label}: non-trivial irrep with nonzero element sum")
        rows.append(np.trace(mats, axis1=1, axis2=2))
    _check_gram(np.asarray(rows), n)
    if not np.allclose(rows[0], 1.0, atol=1e-8):
        raise RepresentationError("first irrep is not the trivial representation")


def _check_gram(rows: np.ndarray, n: int) -> None:
    gram = rows @ rows.conj().T
    target = n * np.eye(len(rows))
    err = np.abs(gram - target)
    if not err.max() <= SUM_TOL * n:
        i, j = np.unravel_index(np.argmax(err), err.shape)
        raise RepresentationError(
            f"character rows {i} and {j} violate orthogonality "
            f"(<chi_{i}, chi_{j}> = {gram[i, j]:.6g}, expected {target[i, j]:.0f})"
        )


@np.errstate(invalid="ignore")  # an inf entry gives nan, which must fail a test
def validate_character_table_gram(t) -> None:
    """Character-table validation by the full Gram product, on any holder
    of group and rows: shape and degrees, constancy on every element of
    each class, each degree-1 row a homomorphism at 1e-9 one row and one
    generator at a time, the trivial row first, then the nu x nu Gram
    product of the rows over all n elements."""
    group, rows = t.group, np.asarray(t.rows, dtype=complex)
    nu, n = len(group.classes), group.order
    if rows.shape != (nu, n):
        raise RepresentationError(f"character table must be {nu} x {n}, got {rows.shape}")
    d = rows[:, group.identity]
    degree = np.round(d.real)
    good = (np.abs(d.imag) <= 1e-9) & (np.abs(d.real - degree) <= 1e-9) & (degree >= 1)
    if not good.all():
        raise RepresentationError(f"row {np.argmin(good)}: value at identity is not a "
                                  "positive integer")
    if sum(int(k) ** 2 for k in degree) != n:
        raise RepresentationError(f"sum of squared degrees != group order {n}")
    for cls in group.classes:
        off = ~(np.abs(rows[:, cls] - rows[:, cls[:1]]) <= 1e-9)
        if off.any():
            i = np.argmax(off.any(axis=1))
            raise RepresentationError(f"row {i} is not constant on class {cls}")
    gens = list(group.generators) or [group.identity]
    for i in np.flatnonzero(degree == 1):
        for s in gens:
            err = np.abs(rows[i, group.mul[:, s]] - rows[i] * rows[i, s])
            if not err.max() <= 1e-9:
                raise RepresentationError(f"row {i} has degree 1 but is not a homomorphism")
    if not np.allclose(rows[0], 1.0, atol=1e-8):
        raise RepresentationError("first character row is not all ones")
    _check_gram(rows, n)


def snapped_characters(s: IrrepSet) -> np.ndarray:
    """The (nu, n) complex character rows of s: the traces of its stacks,
    each value within SNAP_TOL of a Gaussian integer replaced by that
    integer, computed over every value at once."""
    traces = np.concatenate([np.trace(stack, axis1=2, axis2=3) for stack in s.stacks.values()])
    snapped = np.round(traces.real) + 1j * np.round(traces.imag)
    return np.where(np.abs(traces - snapped) < SNAP_TOL, snapped, traces)


def conjugate_pairing_by_characters(rows: np.ndarray) -> np.ndarray:
    """For each character row i, the row j nearest to conj(chi_i) in the
    max norm: a brute-force O(nu^2 n) search over the whole table."""
    dist = np.abs(rows[None, :, :] - rows.conj()[:, None, :]).max(axis=2)
    return dist.argmin(axis=1)


def lift_eigenvalues_whole(d: VoltageDigraph) -> np.ndarray:
    """The eigenvalues of d's lift from one solve of its whole adjacency:
    eigvalsh when it is exactly symmetric, eigvals otherwise."""
    a = build_lift(d)
    return (np.linalg.eigvalsh if np.array_equal(a, a.T) else np.linalg.eigvals)(a)


def lift_eigenvalues_gathered(d: VoltageDigraph) -> np.ndarray:
    """The eigenvalues of d's lift as the brute-force route computed them
    from the dense lift, before it read the arcs: symmetry by A == A^T on
    build_lift's adjacency A, the same component labels, the vertices
    sorted by (component, side, index), and each shape's (K, p, q) stack
    gathered out of A by fancy indexing; a connected lift that is not
    bipartite goes to its solver as A itself, where the route solves it as
    a stack of one. The route must give these eigenvalues bit for bit, in
    this order."""
    a = build_lift(d)
    rn = len(a)
    tails, heads = (x.ravel() for x in _lift_arcs(d))
    symmetric = np.array_equal(a, a.T)
    if symmetric:
        label = connected_components(2 * rn, tails, heads + rn)
        lo, hi = label[:rn], label[rn:]
        component, side, bipartite = np.minimum(lo, hi), lo > hi, lo != hi
    else:
        component = connected_components(rn, tails, heads)
        side = bipartite = np.zeros(rn, dtype=bool)
    solver = np.linalg.eigvalsh if symmetric else np.linalg.eigvals
    roots = np.flatnonzero(component == np.arange(rn))
    if len(roots) == 1 and not bipartite[0]:
        return solver(a)
    order = np.lexsort((side, component))
    starts = np.searchsorted(component[order], roots)
    qs = np.bincount(component[side], minlength=rn)[roots]
    ps = np.diff(starts, append=rn) - qs
    shapes = np.stack([bipartite[roots], ps, qs], axis=1)
    _, first, shape_of = np.unique((shapes[:, 0] * (rn + 1) + ps) * (rn + 1) + qs,
                                   return_index=True, return_inverse=True)
    parts = []
    for j, (bip, p, q) in enumerate(shapes[first].tolist()):
        at = starts[shape_of == j]
        rows = order[at[:, None] + np.arange(p)]
        cols = order[at[:, None] + p + np.arange(q)] if bip else rows
        block = a[rows[:, :, None], cols[:, None, :]]
        if bip:
            sigma = np.linalg.svd(block, compute_uv=False)
            zeros = np.zeros((*sigma.shape[:-1], abs(p - q)))
            parts.append(np.concatenate([sigma, -sigma, zeros], axis=-1))
        else:
            parts.append(solver(block))
    return np.concatenate([x.ravel() for x in parts])


def lift_eigenvalues_by_component(d: VoltageDigraph) -> np.ndarray:
    """The eigenvalues of d's lift from one solve per weakly connected
    component, in a loop. Each component is found and 2-coloured by a
    breadth-first search from its smallest vertex, and its vertices are
    taken in ascending order. If the whole adjacency is exactly symmetric,
    a component whose colouring holds is solved by the singular values of
    its biadjacency block, rows the smallest vertex's colour (+sigma,
    -sigma and |p - q| zeros), and any other by eigvalsh; if it is not,
    every component goes to eigvals."""
    a = build_lift(d)
    rn = len(a)
    symmetric = np.array_equal(a, a.T)
    neighbours = [np.flatnonzero(a[v] + a[:, v]).tolist() for v in range(rn)]
    colour = [-1] * rn
    parts = []
    for root in range(rn):
        if colour[root] >= 0:
            continue
        colour[root], queue, bipartite = 0, [root], True
        for v in queue:
            for w in neighbours[v]:
                if colour[w] < 0:
                    colour[w] = 1 - colour[v]
                    queue.append(w)
                elif colour[w] == colour[v]:
                    bipartite = False
        comp = sorted(queue)
        if not symmetric:
            parts.append(np.linalg.eigvals(a[np.ix_(comp, comp)]))
        elif bipartite:
            rows = [v for v in comp if colour[v] == 0]
            cols = [v for v in comp if colour[v] == 1]
            sigma = np.linalg.svd(a[np.ix_(rows, cols)], compute_uv=False)
            parts.append(np.concatenate([sigma, -sigma, np.zeros(abs(len(rows) - len(cols)))]))
        else:
            parts.append(np.linalg.eigvalsh(a[np.ix_(comp, comp)]))
    return np.concatenate(parts)
