import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gkmfaces.gkm as gkm_module
from gkmfaces.errors import (
    ConnectionNotCanonical,
    DimensionMismatch,
    EnumerationCapExceeded,
    GraphModeError,
    InvalidGraph,
    ZeroWeight,
)
from gkmfaces.gkm import (
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
from gkmfaces.formats import format_graph, parse_graph_with_connection
from gkmfaces.matroid import flats_lattice
from gkmfaces.poset import are_isomorphic, is_graded
from gkmfaces.ratlinalg import Subspace
from gkmfaces.reconstruct import reconstruct_face_poset, verify_galois

from helpers import (
    GKM_CORPUS,
    UNIFORM23,
    corpus_graph,
    cp2_graph,
    face_payloads,
    flag_graph,
    graph_product,
    grassmannian_graph,
    hypercube_graph,
    lens_graph,
    scrambled,
    sphere_graph,
    square_graph,
)
from oracles import collinear_oracle, face_key_oracle, gkm_faces_oracle, rank_oracle


def vector_pairs(k):
    vectors = st.tuples(*[st.integers(-3, 3)] * k)
    return st.tuples(vectors, vectors)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(vector_pairs))
def test_collinear_matches_the_rank_oracle(pair):
    a, b = pair
    assert collinear_oracle(a, b) == (rank_oracle([a, b]) <= 1)


def nonzero_pairs(k):
    vectors = st.tuples(*[st.integers(-3, 3)] * k).filter(any)
    return st.tuples(vectors, vectors)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(nonzero_pairs))
def test_axial_vectors_share_a_line_exactly_when_collinear(pair):
    a, b = pair
    g = GkmGraph(len(a), ["x", "y", "z"], [("p", "x", "y"), ("q", "y", "z")], {"p": a, "q": b})
    assert (g._line[0] == g._line[1]) == (rank_oracle([a, b]) <= 1)
    for i, w in enumerate((a, b)):
        assert tuple(g._scale[i] * x for x in g._lines[g._line[i]]) == w


def test_single_edge_graph_valid():
    g, _ = corpus_graph("s2.gkm")
    report = validate_graph(g)
    assert report.ok
    assert report.dimension == 1
    assert report.rank == 1


def test_cp2_triangle_valid():
    report = validate_graph(cp2_graph())
    assert report.ok and report.dimension == 2 and report.rank == 2


def test_collinear_pair_at_vertex_invalid():
    g = GkmGraph(
        2,
        ["A", "B", "C"],
        [("ab", "A", "B"), ("ac", "A", "C"), ("bc", "B", "C")],
        {"ab": (1, 0), "ac": (0, 1), "bc": (2, 0)},
    )
    report = validate_graph(g)
    assert not report.ok
    assert any("dependent" in v for v in report.violations)


def test_book_star_graph_not_regular():
    g = GkmGraph(
        2,
        ["center", "p", "q"],
        [("e1", "center", "p"), ("e2", "center", "q")],
        {"e1": (1, 0), "e2": (0, 1)},
    )
    report = validate_graph(g)
    assert not report.ok
    assert any("not regular" in v for v in report.violations)


def test_disconnected_graph_invalid():
    g = GkmGraph(
        1,
        ["a", "b", "c", "d"],
        [("e1", "a", "b"), ("e2", "c", "d")],
        {"e1": (1,), "e2": (1,)},
    )
    assert any("disconnected" in v for v in validate_graph(g).violations)


def test_zero_axial_rejected_at_construction():
    with pytest.raises(ZeroWeight):
        GkmGraph(2, ["a", "b"], [("e", "a", "b")], {"e": (0, 0)})


def test_loop_rejected_at_construction():
    with pytest.raises(ValueError):
        GkmGraph(2, ["a"], [("e", "a", "a")], {"e": (1, 0)})


def test_empty_vertex_list_rejected_at_construction():
    # validate_graph starts its connectivity walk at the first vertex
    with pytest.raises(ValueError, match="at least one vertex"):
        GkmGraph(1, [], [], {})


@pytest.mark.parametrize(
    "rank, vertices, edges, axial, error, message",
    [
        (0, ["a"], [], {}, ValueError, "ambient rank must be at least 1"),
        (1, ["a", "a"], [], {}, ValueError, "duplicate vertex identifiers"),
        (
            1,
            ["a", "b"],
            [("e", "a", "b"), ("e", "b", "a")],
            {"e": (1,)},
            ValueError,
            "duplicate edge identifiers",
        ),
        (1, ["a"], [("e", "a", "z")], {"e": (1,)}, ValueError, "edge 'e' uses unknown endpoints"),
        (1, ["a", "b"], [("e", "a", "b")], {}, ValueError, "edge 'e' has no axial vector"),
        (
            2,
            ["a", "b"],
            [("e", "a", "b")],
            {"e": (1,)},
            DimensionMismatch,
            "axial vector of edge 'e' has length 1, expected 2",
        ),
    ],
    ids=["rank", "vertices", "edges", "endpoints", "axial", "length"],
)
def test_gkm_graph_constructor_checks(rank, vertices, edges, axial, error, message):
    with pytest.raises(error, match=message):
        GkmGraph(rank, vertices, edges, axial)


def test_alpha_from_needs_a_signed_graph():
    g = square_graph()
    e = g.edges[0]
    with pytest.raises(GraphModeError, match="oriented axial values need a signed graph"):
        g.alpha_from(e.name, e.u)


@pytest.mark.parametrize(
    "ask",
    [lambda g, name, x: g.edge(name).other(x), lambda g, name, x: g.alpha_from(name, x)],
    ids=["other", "alpha_from"],
)
def test_a_vertex_off_the_edge_is_not_an_endpoint(ask):
    g = square_graph(signed=True)
    e = g.edges[0]
    x = next(v for v in g.vertices if v not in (e.u, e.v))
    with pytest.raises(ValueError) as err:
        ask(g, e.name, x)
    assert str(err.value) == f"vertex {x!r} is not an endpoint of edge {e.name!r}"


def test_canonical_connection_square_carry_across():
    g = square_graph(signed=True)
    theta = canonical_connection(g)
    assert theta.maps[("b", "v00")] == {"b": "b", "l": "r"}
    assert theta.maps[("l", "v01")] == {"l": "l", "t": "b"}
    assert validate_connection(g, theta).ok


def test_canonical_connection_cp2_stars_of_two():
    g = cp2_graph(signed=True)
    theta = canonical_connection(g)
    assert validate_connection(g, theta).ok
    assert theta.maps[("ab", "A")] == {"ab": "ab", "ac": "bc"}


def test_canonical_connection_g6_not_unique():
    g, _ = corpus_graph("g6.gkm")
    with pytest.raises(ConnectionNotCanonical):
        canonical_connection(g)


def test_g6_file_connection_satisfies_relaxed_axioms():
    g, theta = corpus_graph("g6.gkm")
    assert theta is not None
    assert validate_connection(g, theta).ok


def test_connection_axiom1_violation():
    g = square_graph(signed=True)
    theta = canonical_connection(g)
    broken = {k: dict(v) for k, v in theta.maps.items()}
    broken[("b", "v00")] = {"b": "r", "l": "b"}  # bijective, but moves the traversed edge
    report = validate_connection(g, Connection(broken))
    assert not report.ok
    assert any("moves the edge itself" in v for v in report.violations)


def test_connection_axiom2_violation():
    g = square_graph(signed=True)
    theta = canonical_connection(g)
    broken = {k: dict(v) for k, v in theta.maps.items()}
    # keep both maps bijections fixing the edge, but break mutual inversion:
    # square stars have one non-via edge each, so swap images along l instead
    broken[("l", "v00")] = {"l": "l", "b": "t"}
    broken[("l", "v01")] = {"l": "l", "t": "t"}
    report = validate_connection(g, Connection(broken))
    assert not report.ok


def test_validate_connection_signed_translation_axiom():
    # stretch the right edge so carrying l across the bottom changes the
    # axial value in a direction not collinear to the bottom edge
    g = GkmGraph(
        2,
        ["v00", "v10", "v01", "v11"],
        [("b", "v00", "v10"), ("t", "v01", "v11"), ("l", "v00", "v01"), ("r", "v10", "v11")],
        {"b": (1, 0), "t": (1, 0), "l": (0, 1), "r": (0, 2)},
        signed=True,
    )
    theta = Connection(
        {
            ("b", "v00"): {"b": "b", "l": "r"},
            ("b", "v10"): {"b": "b", "r": "l"},
            ("t", "v01"): {"t": "t", "l": "r"},
            ("t", "v11"): {"t": "t", "r": "l"},
            ("l", "v00"): {"l": "l", "b": "t"},
            ("l", "v01"): {"l": "l", "t": "b"},
            ("r", "v10"): {"r": "r", "b": "t"},
            ("r", "v11"): {"r": "r", "t": "b"},
        }
    )
    report = validate_connection(g, theta)
    assert not report.ok
    assert any("collinear" in v for v in report.violations)


def test_representation_face_poset_counts():
    assert len(flats_lattice(UNIFORM23).elements) == 5
    p = flats_lattice(UNIFORM23)
    assert p.drk[(1, 2, 3)] == 3


def test_local_face_poset_g6_is_u23():
    g, _ = corpus_graph("g6.gkm")
    for x in g.vertices:
        local = local_face_poset(g, x)
        assert are_isomorphic(local, flats_lattice(UNIFORM23))


def test_local_face_poset_cp2_is_boolean():
    g = cp2_graph()
    local = local_face_poset(g, "A")
    assert len(local.elements) == 4


def test_local_face_poset_unknown_vertex():
    with pytest.raises(ValueError):
        local_face_poset(cp2_graph(), "Z")


def test_enumerate_faces_requires_valid_graph():
    from gkmfaces.errors import InvalidGraph

    g = GkmGraph(
        2,
        ["center", "p", "q"],
        [("e1", "center", "p"), ("e2", "center", "q")],
        {"e1": (1, 0), "e2": (0, 1)},
    )
    with pytest.raises(InvalidGraph):
        enumerate_faces(g)


def test_enumerate_faces_single_edge():
    g, _ = corpus_graph("s2.gkm")
    poset = enumerate_faces(g)
    assert len(poset.elements) == 3
    ranks = sorted(poset.rank.values())
    assert ranks == [0, 0, 1]


def test_enumerate_faces_cp2():
    poset = enumerate_faces(cp2_graph())
    assert len(poset.elements) == 7
    by_rank = sorted(poset.rank.values())
    assert by_rank == [0, 0, 0, 1, 1, 1, 2]


def test_enumerate_faces_square():
    poset = enumerate_faces(square_graph())
    assert len(poset.elements) == 9


def test_enumerate_faces_g6_matches_oracle():
    g, _ = corpus_graph("g6.gkm")
    poset = enumerate_faces(g)
    faces = face_payloads(poset)
    oracle = gkm_faces_oracle(g)
    got = sorted(
        [(h.vertices, h.edges) for h in faces],
        key=lambda f: (len(f[0]), sorted(map(str, f[0])), sorted(map(str, f[1]))),
    )
    assert got == oracle
    assert len(faces) == 31  # 6 vertices, 9 edges, 16 rank-2 subgraphs
    assert sum(1 for e in poset.elements if poset.rank[e] == 2) == 16


def test_enumerate_faces_matches_oracle_on_small_graphs():
    # the lens products join vertices by two parallel edges, each kept in faces
    small = [
        cp2_graph(),
        square_graph(),
        grassmannian_graph(2, 4)[0],
        graph_product(lens_graph(), sphere_graph()),
        graph_product(lens_graph(), cp2_graph()),
    ]
    for g in (*small, *(corpus_graph(name)[0] for name in GKM_CORPUS)):
        faces = face_payloads(enumerate_faces(g))
        oracle = gkm_faces_oracle(g)
        got = sorted(
            [(h.vertices, h.edges) for h in faces],
            key=lambda f: (len(f[0]), sorted(map(str, f[0])), sorted(map(str, f[1]))),
        )
        assert got == oracle


def test_face_poset_covers_are_the_sorted_inclusion_covers():
    # pins the order of `GradedPoset.covers` on face posets; the exports sort covers themselves
    for g in (hypercube_graph(3), *(corpus_graph(name)[0] for name in GKM_CORPUS)):
        p = enumerate_faces(g)
        inside = {
            (a, b) for a in p.elements for b in p.elements
            if a != b and p.payload[b].contains(p.payload[a])
        }
        expected = sorted(
            (a, b) for a, b in inside
            if not any((a, c) in inside and (c, b) in inside for c in p.elements)
        )
        assert list(p.covers) == expected


ORACLE_GRAPHS = {
    "q2": hypercube_graph(2),
    "q3": hypercube_graph(3),
    "cp2xs2": graph_product(cp2_graph(), sphere_graph()),
    "fl3": corpus_graph("g6.gkm")[0],  # stars not 3-independent: the search branches
}


@settings(derandomize=True, max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(ORACLE_GRAPHS)), seed=st.integers(0, 2**32 - 1))
def test_face_search_matches_oracle_on_scrambled_graphs(name, seed):
    g = scrambled(random.Random(seed), ORACLE_GRAPHS[name])
    faces = face_payloads(enumerate_faces(g))
    assert Counter((h.vertices, h.edges) for h in faces) == Counter(gkm_faces_oracle(g))
    assert faces == sorted(faces, key=lambda h: face_key_oracle(g, h))


def test_face_flats_vertex_independent():
    # the raw axial vectors at each vertex of a face span the same space as
    # all of the face's: equal ranks, one set inside the other
    g, _ = corpus_graph("g6.gkm")
    poset = enumerate_faces(g)
    for e in poset.elements:
        h = poset.payload[e]
        whole = [g.alpha(name) for name in h.edges]
        for x in h.vertices:
            at_x = [g.alpha(name) for name in g.star(x) if name in h.edges]
            assert rank_oracle(at_x) == rank_oracle(whole) == poset.rank[e]


def test_face_rank_examples():
    g, _ = corpus_graph("g6.gkm")
    poset = enumerate_faces(g)
    by_subgraph = {poset.payload[e]: e for e in poset.elements}
    vertex = GkmSubgraph(frozenset(["123"]), frozenset())
    edge = GkmSubgraph(frozenset(["123", "132"]), frozenset(["e123_132"]))
    whole = GkmSubgraph(frozenset(g.vertices), frozenset(e.name for e in g.edges))
    ranks = [(poset.rank[by_subgraph[h]], poset.drk[by_subgraph[h]]) for h in (vertex, edge, whole)]
    assert ranks == [(0, 0), (1, 1), (2, 3)]
    span = gkm_module._span_at(g, g.vertex_key("123"), 1 << g.edge_key("e123_132"))
    assert span == Subspace.span([g.alpha("e123_132")], g.ambient_rank)


def test_tg_faces_cp2_all_geodesic():
    g = cp2_graph()
    theta = canonical_connection(g)
    assert len(enumerate_tg_faces(g, theta).elements) == 7


def test_tg_faces_square_all_geodesic():
    g = square_graph()
    theta = canonical_connection(g)
    assert len(enumerate_tg_faces(g, theta).elements) == 9


def triangle_graph(signed: bool) -> GkmGraph:
    """Valid, but its span-compatible map fails the translation axiom."""
    return GkmGraph(
        2,
        ["A", "B", "C"],
        [("ab", "A", "B"), ("ac", "A", "C"), ("bc", "B", "C")],
        {"ab": (1, 0), "ac": (0, 1), "bc": (1, 2)},
        signed=signed,
    )


@pytest.mark.parametrize("signed", [False, True])
def test_span_compatible_map_failing_the_axioms_is_not_canonical(signed):
    g = triangle_graph(signed)
    assert validate_graph(g).ok
    with pytest.raises(ConnectionNotCanonical, match="^connection not canonical: ") as err:
        canonical_connection(g)
    assert "collinear" in str(err.value)
    for run in (enumerate_tg_faces, lambda g: reconstruct_face_poset(g, "tg")):
        with pytest.raises(ConnectionNotCanonical) as again:
            run(g)
        assert str(again.value) == str(err.value)
    assert len(enumerate_faces(g).elements) == 7


def test_tg_faces_without_a_connection_use_the_canonical_one():
    for g in (cp2_graph(), square_graph(), hypercube_graph(3)):
        assert enumerate_tg_faces(g) == enumerate_tg_faces(g, canonical_connection(g))


def test_tg_faces_reject_an_invalid_connection():
    g, theta = corpus_graph("g6.gkm")
    broken = {k: dict(v) for k, v in theta.maps.items()}
    key = ("e123_132", "123")
    broken[key]["e123_213"], broken[key]["e123_321"] = broken[key]["e123_321"], broken[key]["e123_213"]
    assert not validate_connection(g, Connection(broken)).ok
    for run in (enumerate_tg_faces, lambda g, t: reconstruct_face_poset(g, "tg", connection=t)):
        with pytest.raises(InvalidGraph, match="^supplied connection is invalid: "):
            run(g, Connection(broken))


def test_tg_faces_g6_counts():
    g, theta = corpus_graph("g6.gkm")
    poset = enumerate_tg_faces(g, theta)
    assert len(poset.elements) == 19  # 6 vertices, 9 edges, 4 geodesic rank-2
    rank2 = [e for e in poset.elements if poset.rank[e] == 2]
    assert len(rank2) == 4


def test_tg_faces_subset_of_faces_and_include_skeleton():
    g, theta = corpus_graph("g6.gkm")
    faces = {(h.vertices, h.edges) for h in face_payloads(enumerate_faces(g))}
    tg = enumerate_tg_faces(g, theta)
    for e in tg.elements:
        h = tg.payload[e]
        assert (h.vertices, h.edges) in faces
        if tg.rank[e] <= 1:  # vertices and edges are always geodesic
            assert True
    skeleton = sum(1 for e in tg.elements if tg.rank[e] <= 1)
    assert skeleton == 15


def test_enumeration_cap_is_enforced():
    g, _ = corpus_graph("g6.gkm")
    with pytest.raises(EnumerationCapExceeded) as err:
        enumerate_faces(g, cap=10)
    assert (err.value.cap, err.value.reached) == (10, 11)
    assert str(err.value).startswith(
        "enumeration cap of 10 candidate subgraphs exceeded: 11 seed and branch states reached"
    )


def test_cap_counts_seed_and_branch_states():
    g, _ = corpus_graph("g6.gkm")
    assert len(enumerate_faces(g, cap=82).elements) == 31
    with pytest.raises(EnumerationCapExceeded):
        enumerate_faces(g, cap=81)


def test_cap_below_one_is_rejected():
    g, _ = corpus_graph("g6.gkm")
    with pytest.raises(ValueError):
        enumerate_faces(g, cap=0)


def test_every_vertex_face_sits_under_an_edge_face():
    for name in ("cp2.gkm", "square.gkm", "g6.gkm"):
        g, _ = corpus_graph(name)
        poset = enumerate_faces(g)
        ranks = poset.rank
        for e in poset.elements:
            if ranks[e] == 0:
                assert any(
                    ranks[f] == 1 and poset.leq(e, f) for f in poset.elements
                )


def test_faces_poset_rank_labels_are_not_a_grading_certificate():
    # the full face poset of g6 keeps its stored span ranks even though the
    # poset itself is not graded by them
    g, _ = corpus_graph("g6.gkm")
    poset = enumerate_faces(g)
    assert not is_graded(poset)


def test_one_graph_is_validated_once(monkeypatch):
    from gkmfaces import gkm

    validated = []
    validate = gkm.validate_graph
    monkeypatch.setattr(gkm, "validate_graph", lambda g: validated.append(g) or validate(g))
    g = cp2_graph()
    canonical_connection(g)
    enumerate_faces(g)
    enumerate_tg_faces(g)
    for mode in ("faces", "tg"):
        reconstruct_face_poset(g, mode)
    assert validated == [g]
    assert g._plane_table is g._plane_table  # built once and kept


def swap_connection(g: GkmGraph) -> Connection:
    """The connection of `flag_graph(n)`: along the swap of a and b, swaps go to their conjugates."""
    values = {e.name: {c for c, d in zip(e.u, e.v) if c != d} for e in g.edges}
    at = {(x, frozenset(values[name])): name for x in g.vertices for name in g.star(x)}
    maps = {}
    for e in g.edges:
        a, b = values[e.name]
        swap = {a: b, b: a}
        for tail in (e.u, e.v):
            head = e.other(tail)
            maps[(e.name, tail)] = {
                f: at[(head, frozenset(swap.get(c, c) for c in values[f]))] for f in g.star(tail)
            }
    return Connection(maps)


@pytest.mark.parametrize(
    "make, bound, canonical",
    [(lambda d=d: hypercube_graph(d), d * d, True) for d in range(3, 7)]
    + [(lambda: flag_graph(4), 36, False)],
    ids=["q3", "q4", "q5", "q6", "fl4"],
)
def test_each_pair_of_lines_is_reduced_once(monkeypatch, make, bound, canonical):
    # d lines for Q_d and 6 root lines for Fl(4), however many vertices and edges;
    # the Fl(4) face search takes seconds and reduces nothing, so it is left out
    reduced = []
    reduce = gkm_module._line_residue
    monkeypatch.setattr(
        gkm_module, "_line_residue", lambda v, line: reduced.append((v, line)) or reduce(v, line)
    )
    g = make()
    assert validate_graph(g).ok
    if canonical:
        reconstruct_face_poset(g, "tg")
    else:
        with pytest.raises(ConnectionNotCanonical):
            canonical_connection(g)
        assert validate_connection(g, swap_connection(g)).ok
    assert 0 < len(reduced) <= bound
    assert len(set(reduced)) == len(reduced)


@pytest.mark.parametrize(
    "make, mode",
    [
        (lambda: hypercube_graph(3), "faces"),
        (lambda: graph_product(cp2_graph(), cp2_graph()), "tg"),
        (lambda: corpus_graph("g6.gkm"), "tg"),
        (lambda: grassmannian_graph(2, 4), "faces"),
    ],
    ids=["q3", "cp2xcp2-tg", "fl3-tg", "gr24"],
)
def test_a_checked_reconstruction_builds_each_table_and_span_once(monkeypatch, make, mode):
    # the adjacency is built with the graph, the plane table on first read,
    # and each span on the first question about its set of lines
    made = make()
    text = format_graph(*made) if isinstance(made, tuple) else format_graph(made)
    graphs, tables, spans = [], [], []
    init, table, span = GkmGraph.__init__, GkmGraph._plane_table, Subspace.span
    monkeypatch.setattr(
        GkmGraph, "__init__", lambda g, *args, **kw: graphs.append(g) or init(g, *args, **kw)
    )
    monkeypatch.setattr(
        GkmGraph,
        "_plane_table",
        property(lambda g: (g._planes is None and tables.append(g)) or table.fget(g)),
    )
    monkeypatch.setattr(
        Subspace,
        "span",
        classmethod(lambda cls, vectors, k: spans.append(frozenset(vectors)) or span(vectors, k)),
    )
    g, theta = parse_graph_with_connection(text)
    adjacent = g._adjacent
    report = reconstruct_face_poset(g, mode, connection=theta)
    assert verify_galois(report).ok
    assert graphs == [g] and g._adjacent is adjacent
    assert tables == [g]
    assert spans and len(set(spans)) == len(spans)
