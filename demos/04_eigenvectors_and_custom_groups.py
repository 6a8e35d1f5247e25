"""Lift eigenvectors, and running with user-supplied group data.

Eigenvectors of the lift come for free from the quotient eigenproblems:
an eigencolumn of the irrep image is replicated across each fiber by
multiplying with the representation matrices. We verify the residuals
directly, then show an irrep skipped as defective, with its reason. The
second half loads a group and its character table from
JSON documents instead of using a builtin family.
"""

import numpy as np

import voltlift as vl

group = vl.build_builtin_group("dihedral:3")
irreps = vl.builtin_irreps(group)
digraph = vl.VoltageDigraph(
    group,
    ["u", "v", "w"],
    [(0, 1, 1), (1, 2, 4), (2, 0, 3), (0, 0, 0), (2, 1, 2)],
)

result = vl.lift_eigenvectors(digraph, irreps)
a = vl.build_lift(digraph).astype(float)
print(f"lift on {len(a)} vertices; {len(result.pairs)} eigenpairs returned,")
print(f"irreps skipped as defective: {list(result.skipped_irreps)}")

worst = 0.0
for mu, w in result.pairs:
    worst = max(worst, np.linalg.norm(a @ w - mu * w) / np.linalg.norm(w))
print(f"worst eigenpair residual: {worst:.2e}")

# loops r and r*s over dihedral:4: the 2-dim image rho(r)(1 + rho(s)) is
# nonzero but squares to zero, so its eigenvectors cannot span and that
# irrep is skipped
d4 = vl.build_builtin_group("dihedral:4")
d4_irreps = vl.builtin_irreps(d4)
names = d4.element_names
nilpotent = vl.VoltageDigraph(
    d4, ["u"], [(0, 0, names.index("r^1")), (0, 0, names.index("r^1*s"))]
)
result = vl.lift_eigenvectors(nilpotent, d4_irreps)
print(f"\nloops r and r*s over dihedral:4: {len(result.pairs)} eigenpairs; skipped:")
for i, why in zip(result.skipped_irreps, result.skip_reasons):
    print(f"  irrep {i} (dim {d4_irreps.dims[i]}): {why}")

# --- user-supplied group: the Klein four-group as a raw table -------------

klein = vl.parse_group_table(
    {
        "elements": ["e", "x", "y", "xy"],
        "mul": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
    }
)
print("\nparsed group:", klein)

chartable = vl.load_character_table(
    {
        "classes": [["e"], ["x"], ["y"], ["xy"]],
        "rows": [
            [[1, 0], [1, 0], [1, 0], [1, 0]],
            [[1, 0], [1, 0], [-1, 0], [-1, 0]],
            [[1, 0], [-1, 0], [1, 0], [-1, 0]],
            [[1, 0], [-1, 0], [-1, 0], [1, 0]],
        ],
    },
    klein,
)
print("character table validated")

digraph = vl.parse_voltage_digraph(
    {
        "vertices": ["p", "q"],
        "arcs": [
            {"from": "p", "to": "q", "voltage": "x"},
            {"from": "q", "to": "p", "voltage": "y"},
            {"from": "p", "to": "p", "voltage": "xy"},
        ],
    },
    klein,
)
by_chars = vl.lift_spectrum_charsum(digraph, chartable)
by_brute = vl.lift_spectrum_bruteforce(digraph)
print("charsum spectrum:", by_chars)
print("agreement with explicit lift:", vl.spectra_equal(by_chars, by_brute, 1e-7))
