"""Exact distance spectra of graphs via orbit-partition quotient matrices."""

from orbitspectra.exactla import (
    IntMatrix,
    IntPolynomial,
    char_poly,
    eigen_multiplicity,
    integer_roots,
)
from orbitspectra.graphs import (
    DisconnectedGraphError,
    Graph,
    InputError,
    all_pairs_distances,
    build_circulant,
    build_complete,
    build_crown,
    build_cycle,
    build_johnson,
    build_lcr,
    build_line_graph,
    is_distance_regular,
    pair_vertices,
)
from orbitspectra.perms import (
    AutomorphismError,
    GeneratorSet,
    OrbitPartition,
    Permutation,
    is_automorphism,
    is_vertex_transitive_under,
    lcr_automorphism_gens,
    lcr_stabilizer_gens,
    orbits,
    pair_action,
    parse_cycles,
    swap_action,
    symmetric_group_gens,
    two_point_stabilizer_gens,
)
from orbitspectra.spectral import (
    IntegralityReport,
    QuotientMatrix,
    Spectrum,
    VerificationError,
    distance_spectrum,
    is_distance_integral,
    lcr_quotient_closed_form,
    quotient_matrix,
    verify_lcr,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
