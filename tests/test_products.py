"""Structured graphs beyond the corpus: a sphere-product cube and the
double-edge graph of the compactified plane representation."""

from gkmfaces.gkm import (
    GkmGraph,
    canonical_connection,
    enumerate_faces,
    enumerate_tg_faces,
    local_face_poset,
    validate_graph,
)
from gkmfaces.matroid import WeightSystem, flats_lattice
from gkmfaces.poset import are_isomorphic, compactify, is_locally_geometric
from gkmfaces.reconstruct import reconstruct_face_poset, verify_galois

from helpers import face_payloads, hypercube_graph
from oracles import gkm_faces_oracle


def double_edge_graph():
    """Two parallel edges with independent weights: the 4-sphere graph."""
    return GkmGraph(
        2,
        ["p", "q"],
        [("e1", "p", "q"), ("e2", "p", "q")],
        {"e1": (1, 0), "e2": (0, 1)},
    )


def test_cube_is_valid():
    report = validate_graph(hypercube_graph(3))
    assert report.ok and report.dimension == 3 and report.rank == 3


def test_cube_faces_match_oracle_and_product_count():
    g = hypercube_graph(3)
    poset = enumerate_faces(g)
    faces = face_payloads(poset)
    oracle = gkm_faces_oracle(g)
    got = sorted(
        [(h.vertices, h.edges) for h in faces],
        key=lambda f: (len(f[0]), sorted(map(str, f[0])), sorted(map(str, f[1]))),
    )
    assert got == oracle
    # sub-products: choose a sub-axis set S and a 0/1 position per other axis
    assert len(faces) == 27
    by_rank = {}
    for e in poset.elements:
        by_rank[poset.rank[e]] = by_rank.get(poset.rank[e], 0) + 1
    assert by_rank == {0: 8, 1: 12, 2: 6, 3: 1}


def test_q4_faces_match_closed_form():
    # a rank-r face of Q_4 frees r of the 4 coordinates and fixes the others
    poset = enumerate_faces(hypercube_graph(4))
    by_rank = {}
    for e in poset.elements:
        by_rank[poset.rank[e]] = by_rank.get(poset.rank[e], 0) + 1
    assert by_rank == {0: 16, 1: 32, 2: 24, 3: 8, 4: 1}


def test_cube_reconstruction_is_boolean_locally():
    g = hypercube_graph(3)
    report = reconstruct_face_poset(g, "faces")
    assert not report.diagnostics
    assert len(report.faces.elements) == 27  # every face survives
    assert is_locally_geometric(report.faces)
    b3 = flats_lattice(WeightSystem(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    for x in report.faces.minimal_elements():
        assert are_isomorphic(report.faces.upper_ideal(x), b3)
    vertex = next(iter(report.faces.payload[report.faces.minimal_elements()[0]].vertices))
    assert are_isomorphic(local_face_poset(g, vertex), b3)


def test_cube_tg_and_galois():
    g = hypercube_graph(3)
    theta = canonical_connection(g)
    assert len(enumerate_tg_faces(g, theta).elements) == 27
    assert verify_galois(reconstruct_face_poset(g, "faces")).ok
    assert verify_galois(reconstruct_face_poset(g, "tg")).ok


def test_double_edge_is_valid_multigraph():
    report = validate_graph(double_edge_graph())
    assert report.ok and report.dimension == 2 and report.rank == 2


def test_double_edge_faces():
    g = double_edge_graph()
    faces = face_payloads(enumerate_faces(g))
    oracle = gkm_faces_oracle(g)
    got = sorted(
        [(h.vertices, h.edges) for h in faces],
        key=lambda f: (len(f[0]), sorted(map(str, f[0])), sorted(map(str, f[1]))),
    )
    assert got == oracle
    assert len(faces) == 5  # 2 vertices, 2 edges, the double edge itself


def test_double_edge_reconstruction_is_compactified_plane():
    g = double_edge_graph()
    report = reconstruct_face_poset(g, "faces")
    assert not report.diagnostics
    b2 = flats_lattice(WeightSystem(2, [(1, 0), (0, 1)]))
    assert are_isomorphic(report.faces, compactify(b2))
    assert verify_galois(report).ok
