"""Cayley digraphs as lifts of a single vertex with loops.

A one-vertex base whose loops carry voltages D in a cyclic group Z_m
lifts to the circulant digraph on m vertices with connection set D. Its
eigenvalues have the classical closed form sum_{d in D} exp(2*pi*i*k*d/m),
which the representation route reproduces exactly.
"""

import numpy as np

import voltlift as vl

m = 12
deltas = [1, 3, 8]

group = vl.build_builtin_group(f"cyclic:{m}")
digraph = vl.VoltageDigraph(group, ["v"], [(0, 0, d) for d in deltas])

spectrum = vl.lift_spectrum_repr(digraph, vl.builtin_irreps(group))
print(f"circulant on Z_{m} with connection set {deltas}")
print("spectrum:", spectrum)

closed_form = [
    complex(np.sum(np.exp(2j * np.pi * k * np.asarray(deltas) / m)))
    for k in range(m)
]
expected = vl.cluster_spectrum(closed_form, 1e-9)
print("closed form:", expected)
print("agreement:", vl.spectra_equal(spectrum, expected, 1e-9))

# the same works over a non-abelian group: loops in the dihedral group.
# this lift has a defective zero eigenvalue, which eigensolvers smear by
# roughly the square root of machine precision; clustering at 1e-6
# collapses the smear back onto its (trace-accurate) mean
group = vl.build_builtin_group("dihedral:4")
digraph = vl.VoltageDigraph(
    group, ["v"], [(0, 0, group.index_of("r^1")), (0, 0, group.index_of("r^0*s"))]
)
by_repr = vl.lift_spectrum_repr(digraph, vl.builtin_irreps(group), tol=1e-6)
by_brute = vl.lift_spectrum_bruteforce(digraph, tol=1e-6)
print("\nCayley digraph of the order-8 dihedral group, generators {r, s}")
print("spectrum:", by_repr)
print("agreement with explicit lift:", vl.spectra_equal(by_repr, by_brute, 1e-8))
