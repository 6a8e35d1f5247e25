"""Exact walk counting through the group algebra.

Powers of the quotient matrix, computed with exact integer coefficients,
encode all walk counts of the lift: the coefficient of group element g in
entry (u, v) of the L-th power counts length-L walks from (u, h) to
(v, h*g) for every fiber offset h. We check that against brute-force
powers of the explicit lift adjacency matrix.
"""

import numpy as np

import voltlift as vl

group = vl.build_builtin_group("dihedral:3")
digraph = vl.parse_voltage_digraph(
    {
        "vertices": ["a", "b"],
        "arcs": [
            {"from": "a", "to": "a", "voltage": "r^0*s"},
            {"from": "b", "to": "b", "voltage": "r^0*s"},
            {"from": "a", "to": "b", "voltage": "r^0"},
            {"from": "b", "to": "a", "voltage": "r^0"},
            {"from": "a", "to": "b", "voltage": "r^1"},
            {"from": "b", "to": "a", "voltage": "r^1"},
        ],
    },
    group,
)



def algebra_str(coeffs):
    names = group.element_names
    terms = [names[g] if coeffs[g] == 1 else f"{coeffs[g]}*{names[g]}" for g in np.flatnonzero(coeffs)]
    return " + ".join(terms) or "0"


# bp[u, v, g] is the coefficient of group element g in entry (u, v); the
# lift adjacency is one (rn, rn) array, with lift vertex (u, g) at u * n + g
b = vl.associated_matrix(digraph)
adj = vl.build_lift(digraph).astype(object)  # exact Python ints
n = group.order

for length in (2, 3, 4):
    bp = vl.algebra_matrix_power(b, length, group)
    ap = np.linalg.matrix_power(adj, length)
    print(f"\nlength {length}: entry (a, a) of the matrix power = {algebra_str(bp[0, 0])}")
    # cross-check every coefficient against explicit walk counts
    a = 0  # base vertex a
    ok = True
    for g in range(n):
        for h in range(n):
            src = a * n + h
            dst = a * n + int(group.mul[h, g])
            if ap[src, dst] != bp[a, a, g]:
                ok = False
    print(f"  all {n * n} fiber-offset walk counts agree: {ok}")

# the closed-walk total is fiber-independent: trace(A^L) = n * sum of
# identity coefficients on the diagonal
length = 4
bp = vl.algebra_matrix_power(b, length, group)
ap = np.linalg.matrix_power(adj, length)
diag = sum(bp[u, u, group.identity] for u in range(digraph.order))
print(f"\ntrace(A^{length}) = {np.trace(ap)} = {n} * {diag}")
