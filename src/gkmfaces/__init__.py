"""Combinatorics of torus actions: flats lattices, locally geometric
posets, GKM-graphs, and face-poset reconstruction, all in exact
rational arithmetic."""

from .matroid import (
    Flat,
    SimplicialComplex,
    WeightSystem,
    closure,
    flats_lattice,
    h_vector,
    independence_complex,
    independence_degree,
)
from .poset import (
    GradedPoset,
    are_isomorphic,
    check_coherent,
    check_gkm_coherent,
    compactify,
    glue_top,
    is_geometric_lattice,
    is_graded,
    is_locally_geometric,
    mobius,
    projectivize,
)
from .complexes import order_complex, proper_betti, reduced_betti, verify_wedge_prediction
from .gkm import (
    Connection,
    GkmGraph,
    GkmSubgraph,
    canonical_connection,
    enumerate_faces,
    enumerate_tg_faces,
    local_face_poset,
    validate_connection,
    validate_graph,
)
from .ratlinalg import Subspace
from .reconstruct import FaceReport, pi_map, reconstruct_face_poset, verify_galois

__all__ = [
    "Connection",
    "FaceReport",
    "Flat",
    "GkmGraph",
    "GkmSubgraph",
    "GradedPoset",
    "SimplicialComplex",
    "Subspace",
    "WeightSystem",
    "are_isomorphic",
    "canonical_connection",
    "check_coherent",
    "check_gkm_coherent",
    "closure",
    "compactify",
    "enumerate_faces",
    "enumerate_tg_faces",
    "flats_lattice",
    "glue_top",
    "h_vector",
    "independence_complex",
    "independence_degree",
    "is_geometric_lattice",
    "is_graded",
    "is_locally_geometric",
    "local_face_poset",
    "mobius",
    "order_complex",
    "pi_map",
    "projectivize",
    "proper_betti",
    "reconstruct_face_poset",
    "reduced_betti",
    "validate_connection",
    "validate_graph",
    "verify_galois",
    "verify_wedge_prediction",
]
