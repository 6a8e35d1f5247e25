"""Compute one lift spectrum three independent ways.

The base digraph is K2 with both loops and a doubled digon, carrying
voltages in the dihedral group of order 6. Its lift is a 12-vertex
3-regular digraph whose spectrum we compute via irreducible
representations, via character power sums, and by diagonalizing the
explicit lift. All three answers must coincide.
"""

import numpy as np

import voltlift as vl

group = vl.build_builtin_group("dihedral:3")
print("group:", group)
print("conjugacy classes:", [tuple(group.element_names[i] for i in c) for c in group.classes])

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


# b[u, v, g] is the coefficient of group element g in entry (u, v)
b = vl.associated_matrix(digraph)
print("\nquotient matrix over the group algebra:")
for u in range(2):
    print("  ", [algebra_str(b[u, v]) for v in range(2)])

irreps = vl.builtin_irreps(group)
print("\nirrep dimensions:", irreps.dims)
table = vl.character_table(irreps)

# irreps 0 and 1 are the 1-dim stack; one rho_matrix call maps b through both
print("\nimages of the quotient matrix under irreps 0 and 1 (the 1-dim characters):")
for image in vl.rho_matrix(b, irreps.stacks[1][:2]):
    print(image.real)

print("\npower sums for the 2-dim irrep (lengths 1..4):")
sums = vl.power_sums_from_characters(b, table.rows[2], 4, group)
print("  ", sums.real)
print("  recovered roots:", np.round(vl.roots_from_power_sums(sums), 9))

by_repr = vl.lift_spectrum_repr(digraph, irreps)
by_chars = vl.lift_spectrum_charsum(digraph, table)
by_brute = vl.lift_spectrum_bruteforce(digraph)

print("\nspectrum via representations: ", by_repr)
print("spectrum via character sums:  ", by_chars)
print("spectrum via explicit lift:   ", by_brute)
print("\nrepr vs brute:   ", vl.spectra_equal(by_repr, by_brute, 1e-8))
print("charsum vs brute:", vl.spectra_equal(by_chars, by_brute, 1e-8))
