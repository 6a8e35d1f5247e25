"""Brute-force oracles that the tests check the library against.

Both are exponential in their input and serve only as independent second
routes: a search for a multiplication-preserving bijection between two
group tables, and closed-walk power sums by direct enumeration.
"""

from typing import List, Tuple

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
