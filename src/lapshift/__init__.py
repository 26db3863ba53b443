"""Exact Laplacian immanantal polynomials, orientation censuses, and shift posets."""

from .canon import canonical_form
from .characters import CharacterTable, character, character_degree, character_table
from .errors import (
    CapacityError,
    ConvergenceError,
    DomainError,
    InvalidInputError,
    ParseError,
)
from .families import (
    FamilySpec,
    connected_bipartite_graphs,
    family_members,
    free_trees,
    path_form,
    star_form,
    unicyclic_family,
)
from .graphs import (
    Graph,
    adjacency_matrix,
    complete_graph,
    cycle_graph,
    format_edge_list,
    has_bipartition,
    is_bipartite,
    laplacian,
    parse_edge_list,
    path_graph,
    read_edge_list,
    spectral_radius,
    star_graph,
    wiener_index,
)
from .immanants import (
    ImmanantalPolynomial,
    coefficient_via_subsets,
    determinant_exact,
    immanant,
    immanant_by_shape,
    immanantal_polynomial,
    normalized_immanant,
    permanent_exact,
)
from .orientations import (
    VertexOrientation,
    census_by_size,
    census_transform,
    classify_type,
    coefficient_via_orientations,
    enumerate_orientations,
    immanant_via_orientations,
    orientation_census,
    polynomial_via_orientations,
    subset_orientation_census,
    transport_orientation,
)
from .partitions import (
    Partition,
    enumerate_partitions,
    format_partition,
    parse_partition,
)
from .posets import HasseDiagram, build_poset, export_csv, export_dot
from .shifts import (
    ShiftMove,
    apply_shift,
    enumerate_shifts,
    kelmans,
    resolve_move,
    shift_applicable,
)
from .symfunc import (
    BASES,
    ClassFunction,
    basis_binomial,
    character_binomial,
    inverse_frobenius,
    kostka,
)
from .verify import (
    CheckReport,
    SuiteConfig,
    format_reports,
    run_suite,
    suite_passed,
)

__all__ = [name for name in dir() if not name.startswith("_")]
