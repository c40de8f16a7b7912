"""The GKM face questions on bitmasks against the pair-by-pair oracles.

The plane table, the face poset and the Galois monotonicity check run on
edge positions and membership masks; `tests/oracles.py` keeps the
versions that span one plane per pair of edges and scan all pairs of
faces.  They are compared on scrambled Q2, Q3, CP2xS2, Fl(3), CP2xCP2,
Gr(2,4) and a product with two parallel edges, and the plane table and
the whole `validate_graph` report also on graphs made invalid by a
collinear star or an extra parallel edge.  Face spans are compared with
spans of the raw axial vectors, and `validate_connection`'s report with
the raw-vector rule on damaged canonical connections, and the Galois
check's failures with those of checking every cover, under projections
moved at random or left undefined.  On graphs without
a connection of their own, the faces closed under the canonical
connection are all the faces, no face is tested against that connection,
and its existence check raises what building it raises; under a file
connection the closed faces are the ones the by-name test keeps.  The
reconstruction's span rule keeps what the per-(vertex, span) maxima
selection of `tests/oracles.py` keeps.  The face posets' payloads, read
lazily, name what the eager `{id: _subgraph}` dicts named, and a report
that keeps its survivors by position projects as one that names them
back.  The search's state totals and cap messages are pinned, and so is
the number of spans each graph computes, one per set of lines.
"""

import io
import random
from contextlib import redirect_stdout
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gkmfaces.gkm as gkm_module
import gkmfaces.reconstruct as reconstruct_module
from gkmfaces import cli
from gkmfaces.errors import (
    ConnectionNotCanonical,
    EnumerationCapExceeded,
    ReconstructionAmbiguous,
)
from gkmfaces.gkm import (
    Connection,
    GkmGraph,
    canonical_connection,
    enumerate_faces,
    enumerate_tg_faces,
    validate_connection,
    validate_graph,
)
from gkmfaces.formats import format_graph
from gkmfaces.poset import GradedPoset
from gkmfaces.ratlinalg import Subspace
from gkmfaces.reconstruct import pi_map, reconstruct_face_poset, verify_galois

from helpers import (
    GKM_CORPUS,
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
from oracles import (
    connection_violations_oracle,
    face_poset_oracle,
    face_selection_oracle,
    galois_failures_oracle,
    graph_report_oracle,
    non_monotone_pairs_oracle,
    plane_table_oracle,
    totally_geodesic_oracle,
)

BASES = {
    "q2": lambda: hypercube_graph(2),
    "q3": lambda: hypercube_graph(3),
    "cp2xs2": lambda: graph_product(cp2_graph(), sphere_graph()),
    "fl3": lambda: corpus_graph("g6.gkm")[0],
    "cp2xcp2": lambda: graph_product(cp2_graph(), cp2_graph()),
    "gr24": lambda: grassmannian_graph(2, 4)[0],
    "lensxcp2": lambda: graph_product(lens_graph(), cp2_graph()),
}

graphs = st.builds(
    lambda name, seed: scrambled(random.Random(seed), BASES[name]()),
    st.sampled_from(sorted(BASES)),
    st.integers(0, 10**6),
)


def _edit(g: GkmGraph, edges, axial) -> GkmGraph:
    return GkmGraph(g.ambient_rank, g.vertices, edges, axial)


def collinear_star(g: GkmGraph, rng: random.Random) -> GkmGraph:
    """One edge's axial vector replaced by a multiple of a neighbour's."""
    x = rng.choice(g.vertices)
    keep, change = rng.sample(g.star(x), 2)
    factor = rng.choice((2, -1, -3))
    axial = dict(g.axial)
    axial[change] = tuple(factor * a for a in g.alpha(keep))
    return _edit(g, [(e.name, e.u, e.v) for e in g.edges], axial)


def parallel_edge(g: GkmGraph, rng: random.Random) -> GkmGraph:
    """An extra edge beside an existing one, with a random or a parallel weight."""
    twin = rng.choice(g.edges)
    if rng.random() < 0.5:
        weight = tuple(-a for a in g.alpha(twin.name))
    else:
        weight = (0,) * g.ambient_rank
        while not any(weight):
            weight = tuple(rng.randint(-2, 2) for _ in range(g.ambient_rank))
    edges = [(e.name, e.u, e.v) for e in g.edges]
    edges.insert(rng.randrange(len(edges) + 1), ("extra", twin.v, twin.u))
    return _edit(g, edges, {**g.axial, "extra": weight})


invalid_graphs = st.builds(
    lambda g, seed, damage: damage(g, random.Random(seed)),
    graphs,
    st.integers(0, 10**6),
    st.sampled_from([collinear_star, parallel_edge]),
)


def by_name(g: GkmGraph) -> dict:
    """The plane table in the oracle's terms: (e1, e2, z) -> edge names at z."""
    return {
        (g.edges[i].name, g.edges[j].name, g.vertices[z]): tuple(
            e for e in g.star(g.vertices[z]) if plane >> g.edge_key(e) & 1
        )
        for (j, z), row in g._plane_table.items()
        for i, plane in row
    }


def check_plane_table(g: GkmGraph) -> None:
    assert by_name(g) == plane_table_oracle(g)
    report = validate_graph(g)
    assert (report.ok, report.dimension, report.rank, report.violations) == graph_report_oracle(g)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(graphs)
def test_plane_table_matches_the_pairwise_oracle(g):
    check_plane_table(g)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(invalid_graphs)
def test_plane_table_matches_the_oracle_on_invalid_graphs(g):
    check_plane_table(g)
    assert not validate_graph(g).ok


@settings(derandomize=True, max_examples=25, deadline=None)
@given(graphs)
def test_face_spans_are_the_spans_of_the_raw_axial_vectors(g):
    # at every vertex of a face: the span the reconstruction reads, and the
    # rank and drk labels of the face poset
    poset = enumerate_faces(g)
    for e in poset.elements:
        h = poset.payload[e]
        edges = gkm_module._face_of(g, h)[1]
        for x in h.vertices:
            raw = [g.alpha(name) for name in g.star(x) if name in h.edges]
            span = Subspace.span(raw, g.ambient_rank)
            assert gkm_module._span_at(g, g.vertex_key(x), edges) == span
            assert (poset.rank[e], poset.drk[e]) == (span.dim, len(raw))


# Subspace.span calls after validate_graph, enumerate_faces and reconstruct_face_poset
SPAN_CALLS = {"q3": (1, 8, 8), "fl3": (1, 8, 8), "cp2xs2": (3, 12, 12)}


@pytest.mark.parametrize("name", sorted(SPAN_CALLS))
def test_each_line_set_is_spanned_once_per_graph(name):
    g = BASES[name]()
    span, calls, counts = Subspace.span.__func__, [], []
    spanned = classmethod(lambda cls, vectors, ambient: calls.append(1) or span(cls, vectors, ambient))
    with mock.patch.object(Subspace, "span", spanned):
        for step in (validate_graph, enumerate_faces, reconstruct_face_poset):
            step(g)
            counts.append(len(calls))
    assert tuple(counts) == SPAN_CALLS[name]
    assert len(g._spans) == counts[-1]  # one span per distinct set of lines


def same_poset(got, expected) -> None:
    assert got.elements == expected.elements
    assert got.covers == expected.covers
    assert (got.rank, got.drk) == (expected.rank, expected.drk)
    assert got.payload == expected.payload
    assert got.labels == expected.labels


@settings(derandomize=True, max_examples=25, deadline=None)
@given(graphs)
def test_face_posets_match_the_all_pairs_oracle(g):
    poset = enumerate_faces(g)
    same_poset(poset, face_poset_oracle(g, face_payloads(poset)))
    report = reconstruct_face_poset(g, "faces")
    survivors = [report.subgraph(e) for e in report.faces.elements]
    same_poset(report.faces, face_poset_oracle(g, survivors, prefix="F"))


@settings(derandomize=True, max_examples=25, deadline=None)
@given(graphs)
def test_span_rule_keeps_the_maxima_of_every_vertex_span_group(g):
    report = reconstruct_face_poset(g, "faces")
    survivors, diagnostics = face_selection_oracle(g, list(report.candidates))
    assert [report.subgraph(e) for e in report.faces.elements] == survivors
    assert [(d.vertex, d.flat, d.maxima) for d in report.diagnostics] == diagnostics


def outcome(call, *args):
    try:
        return call(*args)
    except ReconstructionAmbiguous as exc:
        return str(exc)


def check_payload(g, poset, faces, prefix="H") -> None:
    """The payload is the mapping of ids to the faces' subgraphs, each built once."""
    eager = {f"{prefix}{i}": gkm_module._subgraph(g, face) for i, face in enumerate(faces)}
    assert list(poset.payload) == list(poset.elements) == list(eager)
    assert len(poset.payload) == len(eager) and "nope" not in poset.payload
    assert poset.payload.get("nope") is None
    assert dict(poset.payload) == eager and poset.payload == eager
    assert all(poset.payload[e] is poset.payload[e] for e in poset.elements)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.one_of(graphs.map(lambda g: (g, None)), st.sampled_from(GKM_CORPUS).map(corpus_graph)))
def test_lazy_payloads_name_what_eager_ones_named(case):
    g, theta = case
    every = gkm_module._face_positions(g, gkm_module.DEFAULT_CAP)
    check_payload(g, enumerate_faces(g), every)
    try:
        closed = gkm_module._tg_faces(g, theta, gkm_module.DEFAULT_CAP)
    except ConnectionNotCanonical:  # Fl(3) without its file connection has no canonical one
        modes = {"faces": every}
    else:
        check_payload(g, enumerate_tg_faces(g, theta), closed)
        modes = {"faces": every, "tg": closed}
    for mode, faces in modes.items():
        report = reconstruct_face_poset(g, mode, connection=theta)
        candidates = tuple(gkm_module._subgraph(g, f) for f in faces)
        assert report.candidates == candidates
        survivors, _ = face_selection_oracle(g, list(candidates))
        assert list(report._survivors[0]) == [gkm_module._face_of(g, h) for h in survivors]
        check_payload(g, report.faces, report._survivors[0], prefix="F")
        # a report whose payload is a plain dict names its survivors back
        p = report.faces
        eager = replace(
            report, faces=GradedPoset(p.elements, p.covers, p.rank, p.drk, dict(p.payload))
        )
        assert eager._survivors == report._survivors
        assert [outcome(pi_map, report, h) for h in candidates] == [
            outcome(pi_map, eager, h) for h in candidates
        ]
        assert verify_galois(report) == verify_galois(eager)


# graphs with a connection of their own; scrambling keeps the edge names it maps
CONNECTED = {"fl3": lambda: corpus_graph("g6.gkm"), "gr24": lambda: grassmannian_graph(2, 4)}


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.sampled_from(sorted(CONNECTED)), st.integers(0, 10**6))
def test_tg_faces_under_a_file_connection_match_the_oracles(name, seed):
    base, theta = CONNECTED[name]()
    g = scrambled(random.Random(seed), base)
    every = face_payloads(enumerate_faces(g))
    faces = [h for h in every if totally_geodesic_oracle(g, theta, h)]
    tg = enumerate_tg_faces(g, theta)
    assert face_payloads(tg) == faces
    same_poset(tg, face_poset_oracle(g, faces))
    report = reconstruct_face_poset(g, "tg", connection=theta)
    assert list(report.candidates) == faces
    survivors, diagnostics = face_selection_oracle(g, faces)
    assert [report.subgraph(e) for e in report.faces.elements] == survivors
    assert [(d.vertex, d.flat, d.maxima) for d in report.diagnostics] == diagnostics
    same_poset(report.faces, face_poset_oracle(g, survivors, prefix="F"))


def test_tg_face_posets_match_the_all_pairs_oracle():
    for name, make in BASES.items():
        g, theta = (make(), None) if name != "fl3" else corpus_graph("g6.gkm")
        poset = enumerate_tg_faces(g, theta)
        same_poset(poset, face_poset_oracle(g, face_payloads(poset)))


# graphs with a canonical connection (Fl(3) and Fl(4) have none)
CANONICAL = {
    "q3": lambda: hypercube_graph(3),
    "q4": lambda: hypercube_graph(4),
    "cp2xs2": lambda: graph_product(cp2_graph(), sphere_graph()),
    "cp2xcp2": lambda: graph_product(cp2_graph(), cp2_graph()),
}
canonical_graphs = st.one_of(
    st.builds(
        lambda name, seed: scrambled(random.Random(seed), CANONICAL[name]()),
        st.sampled_from(sorted(CANONICAL)),
        st.integers(0, 10**6),
    ),
    st.sampled_from([square_graph, cp2_graph]).map(lambda make: make(signed=True)),
)


def swapped_images(g: GkmGraph, maps: dict, rng: random.Random) -> GkmGraph:
    """Two images exchanged in one star map."""
    mapping = maps[rng.choice(sorted(maps))]
    f1, f2 = rng.sample(sorted(mapping), 2)
    mapping[f1], mapping[f2] = mapping[f2], mapping[f1]
    return g


def moved_image(g: GkmGraph, maps: dict, rng: random.Random) -> GkmGraph:
    """One image sent to another edge of the star at the head."""
    key = rng.choice(sorted(maps))
    mapping = maps[key]
    f = rng.choice(sorted(mapping))
    mapping[f] = rng.choice([e for e in g.star(g.edge(key[0]).other(key[1])) if e != mapping[f]])
    return g


def dropped_map(g: GkmGraph, maps: dict, rng: random.Random) -> GkmGraph:
    """One (edge, tail) star map deleted."""
    del maps[rng.choice(sorted(maps))]
    return g


def rescaled_axial(g: GkmGraph, maps: dict, rng: random.Random) -> GkmGraph:
    """One axial vector rebuilt at x2, x-1 or x-3, with the maps kept."""
    name = rng.choice(sorted(g.axial))
    factor = rng.choice((2, -1, -3))
    axial = {**g.axial, name: tuple(factor * a for a in g.alpha(name))}
    edges = [(e.name, e.u, e.v) for e in g.edges]
    return GkmGraph(g.ambient_rank, g.vertices, edges, axial, signed=g.signed)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(
    canonical_graphs,
    st.integers(0, 10**6),
    st.lists(st.sampled_from([swapped_images, moved_image, dropped_map, rescaled_axial]), max_size=3),
)
def test_connection_violations_match_the_raw_vector_oracle(g, seed, damages):
    rng = random.Random(seed)
    maps = {key: dict(mapping) for key, mapping in canonical_connection(g).maps.items()}
    for damage in damages:
        g = damage(g, maps, rng)
    theta = Connection(maps)
    report = validate_connection(g, theta)
    expected = connection_violations_oracle(g, theta)
    assert (report.ok, report.violations) == (not expected, expected)


def canonical_error(check, g) -> str | None:
    """The ConnectionNotCanonical text check(g) raises, None when it raises none."""
    try:
        check(g)
    except ConnectionNotCanonical as exc:
        return str(exc)
    return None


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.one_of(canonical_graphs, graphs),
    st.integers(0, 10**6),
    st.booleans(),
)
def test_the_canonical_check_raises_what_building_the_connection_raises(g, seed, rescale):
    # tg faces without a file connection only check that the canonical one
    # exists; rescaled axial vectors keep every line, so the graph stays
    # valid and each plane keeps one edge, but the translation axiom can fail
    if rescale:
        g = rescaled_axial(g, {}, random.Random(seed))
    assert canonical_error(enumerate_tg_faces, g) == canonical_error(canonical_connection, g)


def test_the_canonical_check_meets_each_outcome():
    q3, fl3 = hypercube_graph(3), corpus_graph("g6.gkm")[0]
    first = q3.edges[0].name
    axial = {**q3.axial, first: tuple(2 * a for a in q3.alpha(first))}
    rescaled = GkmGraph(3, q3.vertices, [(e.name, e.u, e.v) for e in q3.edges], axial)
    errors = [canonical_error(enumerate_tg_faces, g) for g in (q3, fl3, rescaled)]
    assert errors == [canonical_error(canonical_connection, g) for g in (q3, fl3, rescaled)]
    assert errors[0] is None
    assert "span-compatible images across" in errors[1]
    assert "fails the connection axioms" in errors[2]


@settings(derandomize=True, max_examples=20, deadline=None)
@given(canonical_graphs)
def test_tg_faces_without_a_file_connection_are_all_faces(tmp_path_factory, g):
    same_poset(enumerate_tg_faces(g), enumerate_faces(g))
    path = tmp_path_factory.getbasetemp() / "canonical.gkm"
    path.write_text(format_graph(g))
    runs = []
    for mode in ("faces", "tg"):
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main(["gkm", "reconstruct", str(path), "--mode", mode, "--verify-galois"])
        runs.append((code, out.getvalue()))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0


def test_canonical_tg_faces_never_test_total_geodesy(tmp_path):
    def tested(*args):
        raise AssertionError("a face was tested against the canonical connection")

    with mock.patch.object(gkm_module, "_is_closed", tested):
        for name in ("q3", "cp2xs2"):
            path = tmp_path / f"{name}.gkm"
            path.write_text(format_graph(CANONICAL[name]()))
            for command in (["tg-faces"], ["reconstruct", "--mode", "tg", "--verify-galois"]):
                with redirect_stdout(io.StringIO()):
                    assert cli.main(["gkm", *command, str(path)]) == 0


def test_a_file_connection_still_filters_the_faces():
    g, theta = corpus_graph("g6.gkm")
    tested = mock.Mock(wraps=gkm_module._is_closed)
    with mock.patch.object(gkm_module, "_is_closed", tested):
        poset = enumerate_tg_faces(g, theta)
    assert (len(poset.elements), tested.call_count) == (19, 31)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(graphs, st.integers(0, 10**6), st.integers(0, 3))
def test_monotonicity_on_covers_agrees_with_all_pairs(g, seed, moves):
    # honest projections, then a few candidates sent to the top or to a
    # random survivor; moves to the top often keep the map monotone
    report = reconstruct_face_poset(g, "faces")
    rng = random.Random(seed)
    projection = {h: reconstruct_module.pi_map(report, h) for h in report.candidates}
    for h in rng.sample(report.candidates, moves):
        projection[h] = rng.choice((report.faces.top(), rng.choice(report.faces.elements)))
    by_face = dict(zip(report._candidate_faces, report.candidates))
    with mock.patch.object(reconstruct_module, "_projection", lambda r, f: projection[by_face[f]]):
        failures = verify_galois(report).failures
    flagged = "projection is not monotone on a nested pair of faces" in failures
    assert flagged == bool(non_monotone_pairs_oracle(report, projection))
    if not moves:
        assert failures == ()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(graphs, st.integers(0, 10**6), st.sampled_from([0.0, 0.1, 0.3]), st.sampled_from([0.0, 0.1]))
def test_galois_failures_match_the_cover_by_cover_oracle(g, seed, moved, undefined):
    # each candidate projected honestly, to a random survivor (rate `moved`)
    # or nowhere (rate `undefined`); the same answer each time it is asked
    report = reconstruct_face_poset(g, "faces")
    rng = random.Random(seed)
    honest = reconstruct_module._projection
    projection = {}
    for face in report._candidate_faces:
        draw = rng.random()
        if draw < undefined:
            projection[face] = None
        elif draw < undefined + moved:
            projection[face] = rng.choice(report.faces.elements)
        else:
            projection[face] = honest(report, face)

    def patched(r, face):
        if projection[face] is None:
            raise ReconstructionAmbiguous("no projection drawn")
        return projection[face]

    with mock.patch.object(reconstruct_module, "_projection", patched):
        assert verify_galois(report).failures == galois_failures_oracle(report)


Q3_CAPS = {
    1: "2 seed and branch states reached while growing faces of degree 1 from vertex "
    "'N.N.N', with 0 faces of positive degree found",
    5: "6 seed and branch states reached while growing faces of degree 1 from vertex "
    "'N.N.N', with 2 faces of positive degree found",
    12: "13 seed and branch states reached while growing faces of degree 1 from vertex "
    "'N.S.N', with 5 faces of positive degree found",
    40: "41 seed and branch states reached while growing faces of degree 2 from vertex "
    "'N.S.N', with 16 faces of positive degree found",
    55: "56 seed and branch states reached while growing faces of degree 3 from vertex "
    "'N.N.N', with 18 faces of positive degree found",
}


@pytest.mark.parametrize("cap", sorted(Q3_CAPS))
def test_cap_errors_on_q3_are_unchanged(cap):
    with pytest.raises(EnumerationCapExceeded) as err:
        enumerate_faces(hypercube_graph(3), cap=cap)
    assert str(err.value) == (
        f"enumeration cap of {cap} candidate subgraphs exceeded: {Q3_CAPS[cap]}"
    )


def test_q3_needs_56_states():
    assert len(enumerate_faces(hypercube_graph(3), cap=56).elements) == 27


def test_cap_errors_on_scrambled_q3_and_fl3_are_unchanged():
    g = scrambled(random.Random(2026), hypercube_graph(3))
    cases = [
        (g, 30, "31 seed and branch states reached while growing faces of degree 2 from "
         "vertex 'N.N.N', with 13 faces of positive degree found"),
        (g, 60, "61 seed and branch states reached while growing faces of degree 3 from "
         "vertex 'N.S.S', with 19 faces of positive degree found"),
        (corpus_graph("g6.gkm")[0], 81, "82 seed and branch states reached while growing "
         "faces of degree 3 from vertex '123', with 24 faces of positive degree found"),
    ]
    for graph, cap, message in cases:
        with pytest.raises(EnumerationCapExceeded) as err:
            enumerate_faces(graph, cap=cap)
        assert str(err.value) == (
            f"enumeration cap of {cap} candidate subgraphs exceeded: {message}"
        )
    assert len(enumerate_faces(g, cap=61).elements) == 27


def test_search_states_on_flag_graphs_are_unchanged():
    # Stars with several edges in one plane through an edge, as in Fl(3)
    # and Fl(4), are where the closure test prunes in both directions.
    fl3 = corpus_graph("g6.gkm")[0]
    for g, faces, states in (
        (graph_product(fl3, sphere_graph()), 93, 356),
        (graph_product(sphere_graph(), fl3), 93, 348),
        (graph_product(fl3, cp2_graph()), 217, 1118),
    ):
        assert len(gkm_module._face_positions(g, states)) == faces
        with pytest.raises(EnumerationCapExceeded):
            gkm_module._face_positions(g, states - 1)
    fl4 = scrambled(random.Random(4), flag_graph(4))
    with pytest.raises(EnumerationCapExceeded) as err:
        gkm_module._face_positions(fl4, 77777)
    assert str(err.value) == (
        "enumeration cap of 77777 candidate subgraphs exceeded: 77778 seed and branch states "
        "reached while growing faces of degree 4 from vertex '4231', with 2282 faces of "
        "positive degree found"
    )


# Seed and branch states of the whole search, the faces found, and where the
# search stands one state short, on Q3, Fl(3) and CP2xCP2 and two scrambles
# of each.  The totals are fixed: a search that visits other states, or the
# same ones in another order, fails here.
TOTALS_BASES = {
    "q3": lambda: hypercube_graph(3),
    "fl3": lambda: flag_graph(3),
    "cp2xcp2": lambda: graph_product(cp2_graph(), cp2_graph()),
}
SEARCH_TOTALS = [
    ("q3", None, 56, 27, "3 from vertex 'N.N.N', with 18"),
    ("q3", 11, 60, 27, "3 from vertex 'N.S.N', with 19"),
    ("q3", 12, 60, 27, "3 from vertex 'N.S.S', with 19"),
    ("fl3", None, 82, 31, "3 from vertex '123', with 24"),
    ("fl3", 11, 83, 31, "3 from vertex '231', with 25"),
    ("fl3", 12, 82, 31, "3 from vertex '123', with 25"),
    ("cp2xcp2", None, 135, 49, "4 from vertex 'A.A', with 39"),
    ("cp2xcp2", 11, 143, 49, "4 from vertex 'C.A', with 40"),
    ("cp2xcp2", 12, 145, 49, "4 from vertex 'C.A', with 40"),
]


@pytest.mark.parametrize("name, seed, states, faces, where", SEARCH_TOTALS)
def test_search_state_totals_are_pinned(name, seed, states, faces, where):
    g = TOTALS_BASES[name]()
    if seed is not None:
        g = scrambled(random.Random(seed), g)
    assert len(gkm_module._face_positions(g, states)) == faces
    with pytest.raises(EnumerationCapExceeded) as err:
        gkm_module._face_positions(g, states - 1)
    assert str(err.value) == (
        f"enumeration cap of {states - 1} candidate subgraphs exceeded: {states} seed and branch "
        f"states reached while growing faces of degree {where} faces of positive degree found"
    )
