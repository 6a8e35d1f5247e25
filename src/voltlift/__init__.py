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
)
from .voltage import (
    VoltageDigraph,
    VoltageError,
    algebra_matrix_power,
    associated_matrix,
    build_lift,
    lift_to_json,
    parse_voltage_digraph,
)
from .spectra import (
    LiftEigenvectors,
    MatchReport,
    SpectrumError,
    SpectrumMultiset,
    cluster_spectrum,
    eig,
    irrep_eigenvalues,
    lift_eigenvectors,
    lift_spectrum_bruteforce,
    lift_spectrum_charsum,
    lift_spectrum_repr,
    power_sums_from_characters,
    rho_matrix,
    roots_from_power_sums,
    spectra_equal,
    verify,
)

__version__ = "0.1.0"
