"""voltlift: spectra of lifted digraphs from voltage assignments.

Build a voltage digraph over a finite group, then compute the spectrum of
its lift either through the group's irreducible representations, through
character power sums, or by diagonalizing the explicit lift; the three
routes cross-check each other.
"""

from .groups import (
    GroupError,
    GroupTable,
    build_builtin_group,
    make_group_table,
    parse_group_table,
)
from .reps import (
    CharacterTable,
    IrrepSet,
    RepresentationError,
    builtin_irreps,
    character_table,
    load_character_table,
    load_irreps,
    make_irrep_set,
    validate_character_table,
    validate_irrep_set,
)
from .voltage import (
    VoltageDigraph,
    VoltageError,
    algebra_matmul,
    algebra_matrix_power,
    algebra_mul,
    associated_matrix,
    build_lift,
    lift_to_json,
    make_voltage_digraph,
    parse_voltage_digraph,
)
from .spectra import (
    LiftEigenvectors,
    MatchReport,
    SpectrumError,
    SpectrumMultiset,
    cluster_spectrum,
    eig,
    format_eigenvalue,
    irrep_eigenvalues,
    lift_eigenvectors,
    lift_spectrum_bruteforce,
    lift_spectrum_charsum,
    lift_spectrum_repr,
    power_sums_from_characters,
    rho_matrix,
    roots_from_power_sums,
    spectra_equal,
    spectrum_to_json,
    spectrum_to_text,
    verify,
)

__version__ = "0.1.0"
