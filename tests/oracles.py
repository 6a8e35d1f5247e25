"""Brute-force oracles that the tests check the library against.

Each serves only as an independent second route: a search for a
multiplication-preserving bijection between two group tables and
closed-walk power sums by direct enumeration (both exponential in their
input), and single-linkage clustering by a quadratic pairwise loop.
"""

from typing import List, Sequence, Tuple

import numpy as np

from voltlift.groups import GroupTable
from voltlift.voltage import VoltageDigraph


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
                    stack.append((head, group.mul_idx(voltage, x), steps + 1))
        sums.append(complex(total))
    return tuple(sums)


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
