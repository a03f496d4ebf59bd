"""Randic matrices, exact characteristic polynomials, spectra and energies
of named graph families, with a three-way cross-check harness."""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    DomainError,
    EdgeNotFoundError,
    UnsupportedFamilyError,
)
from .graphs import (
    FAMILIES,
    FamilySpec,
    Graph,
    delete_edge,
    format_edge_list,
    generate,
    is_bipartite,
    parse_edge_list,
    permute_vertices,
)
from .ratpoly import RatPoly, format_poly
from .spectral import (
    Spectrum,
    SymMatrix,
    adjacency_matrix,
    charpoly_exact,
    eigenvalues,
    graph_energy,
    randic_energy,
    randic_matrix,
)
from .closed_forms import (
    closed_charpoly,
    closed_energy,
    lambda_poly,
    path_graph_energy,
)
from .verify import (
    Report,
    VerdictRecord,
    check_edge_deletion_lemmas,
    sweep_specs,
    verify_all,
    verify_instance,
)

__all__ = [
    "__version__",
    "ConvergenceError",
    "DomainError",
    "EdgeNotFoundError",
    "UnsupportedFamilyError",
    "FAMILIES",
    "FamilySpec",
    "Graph",
    "delete_edge",
    "format_edge_list",
    "generate",
    "is_bipartite",
    "parse_edge_list",
    "permute_vertices",
    "RatPoly",
    "format_poly",
    "Spectrum",
    "SymMatrix",
    "adjacency_matrix",
    "charpoly_exact",
    "eigenvalues",
    "graph_energy",
    "randic_energy",
    "randic_matrix",
    "closed_charpoly",
    "closed_energy",
    "lambda_poly",
    "path_graph_energy",
    "Report",
    "VerdictRecord",
    "check_edge_deletion_lemmas",
    "sweep_specs",
    "verify_all",
    "verify_instance",
]
