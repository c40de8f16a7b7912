from dataclasses import replace

import pytest

import gkmfaces.reconstruct as reconstruct_module
from gkmfaces.errors import ReconstructionAmbiguous
from gkmfaces.gkm import GkmSubgraph, _face_of, local_face_poset
from gkmfaces.matroid import WeightSystem, flats_lattice
from gkmfaces.poset import (
    GradedPoset,
    are_isomorphic,
    check_gkm_coherent,
    compactify,
    grading_of,
    is_locally_geometric,
    projectivize,
)
from gkmfaces.complexes import order_complex, reduced_betti
from gkmfaces.reconstruct import pi_map, reconstruct_face_poset, verify_galois

from helpers import GKM_CORPUS, corpus_graph, square_graph
from oracles import face_selection_oracle


def reconstruct(name, mode):
    g, theta = corpus_graph(name)
    return g, reconstruct_face_poset(g, mode, connection=theta)


def test_single_edge_reconstruction_is_sphere_poset():
    g, report = reconstruct("s2.gkm", "faces")
    assert len(report.faces.elements) == 3
    assert not report.diagnostics
    b1 = flats_lattice(WeightSystem(1, [(1,)]))
    assert are_isomorphic(report.faces, compactify(b1))


def test_unknown_mode_is_refused():
    with pytest.raises(ValueError, match=r"^mode must be one of \('faces', 'tg'\)$"):
        reconstruct_face_poset(square_graph(), "bogus")


def test_cp2_reconstruction_is_projectivized_boolean():
    g, report = reconstruct("cp2.gkm", "faces")
    assert len(report.faces.elements) == 7
    b3 = flats_lattice(WeightSystem(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    assert are_isomorphic(report.faces, projectivize(b3))


def test_square_reconstruction_count():
    g, report = reconstruct("square.gkm", "faces")
    assert len(report.faces.elements) == 9
    assert not report.diagnostics


def test_g6_reconstruction_counts():
    g, report = reconstruct("g6.gkm", "faces")
    assert len(report.faces.elements) == 16
    assert not report.diagnostics
    rank2 = [e for e in report.faces.elements if report.faces.rank[e] == 2]
    assert len(rank2) == 1  # only the whole graph survives at rank 2
    top = rank2[0]
    assert report.subgraph(top).vertices == frozenset(g.vertices)


def test_g6_tg_reconstruction_counts():
    g, report = reconstruct("g6.gkm", "tg")
    assert len(report.faces.elements) == 16
    assert not report.diagnostics


def test_reconstructed_posets_locally_geometric():
    for name in GKM_CORPUS:
        for mode in ("faces", "tg"):
            g, report = reconstruct(name, mode)
            assert not report.diagnostics
            assert is_locally_geometric(report.faces)


def test_upper_ideals_match_vertex_matroids():
    for name in GKM_CORPUS:
        g, report = reconstruct(name, "faces")
        for x in report.faces.minimal_elements():
            upper = report.faces.upper_ideal(x)
            vertex = next(iter(report.subgraph(x).vertices))
            assert are_isomorphic(upper, local_face_poset(g, vertex))


def test_reconstructed_posets_gkm_coherent_with_matching_drk():
    for name in GKM_CORPUS:
        for mode in ("faces", "tg"):
            g, report = reconstruct(name, mode)
            result = check_gkm_coherent(report.faces)
            assert result
            assert result.drk == report.faces.drk


def test_reconstructed_complexity_nonnegative_and_monotone():
    for name in GKM_CORPUS:
        g, report = reconstruct(name, "faces")
        for e in report.faces.elements:
            assert report.complexity(e) >= 0
        for low, high in report.faces.covers:
            assert report.complexity(low) <= report.complexity(high)


def test_reconstructed_acyclicity():
    # strict upper intervals minus the top are wedges concentrated in
    # degree (top rank - rank - 2)
    for name in GKM_CORPUS:
        g, report = reconstruct(name, "faces")
        faces = report.faces
        ranks = grading_of(faces)
        top = faces.top()
        k = ranks[top]
        for s in faces.elements:
            keep = [e for e in faces.up_set(s) if e not in (s, top)]
            if not keep:
                continue
            betti = reduced_betti(order_complex(faces.induced(keep)))
            degree = k - ranks[s] - 2
            assert all(b == 0 for d, b in betti.items() if d != degree)


def test_pi_map_vertex_and_top():
    g, report = reconstruct("g6.gkm", "faces")
    vertex = GkmSubgraph(frozenset(["123"]), frozenset())
    element = pi_map(report, vertex)
    assert report.subgraph(element) == vertex
    whole = GkmSubgraph(frozenset(g.vertices), frozenset(e.name for e in g.edges))
    assert pi_map(report, whole) == report.faces.top()


def test_pi_map_nonsurviving_rank2_goes_to_top():
    g, report = reconstruct("g6.gkm", "faces")
    survivors = set(report.faces.payload.values())
    dropped = [
        h
        for h in report.candidates
        if h not in survivors and len(h.edges) > 1
    ]
    assert dropped
    for h in dropped:
        assert pi_map(report, h) == report.faces.top()


def test_pi_map_monotone():
    g, report = reconstruct("cp2.gkm", "faces")
    for h1 in report.candidates:
        for h2 in report.candidates:
            if h2.contains(h1):
                assert report.faces.leq(pi_map(report, h1), pi_map(report, h2))


def test_verify_galois_corpus_both_modes():
    for name in GKM_CORPUS:
        g, theta = corpus_graph(name)
        for mode in ("faces", "tg"):
            result = verify_galois(reconstruct_face_poset(g, mode, connection=theta))
            assert result.ok, (name, mode, result.failures)


def test_verify_galois_face_counts():
    g, theta = corpus_graph("g6.gkm")
    assert verify_galois(reconstruct_face_poset(g, "faces")).checked_faces == 31
    tg = reconstruct_face_poset(g, "tg", connection=theta)
    assert verify_galois(tg).checked_faces == 19


def test_pi_map_requires_clean_reconstruction():
    g, report = reconstruct("s2.gkm", "faces")
    from dataclasses import replace
    from gkmfaces.reconstruct import Diagnostic
    from gkmfaces.ratlinalg import Subspace

    fake = replace(
        report,
        diagnostics=(Diagnostic("N", Subspace.span([], 1), tuple()),),
    )
    with pytest.raises(ReconstructionAmbiguous):
        pi_map(fake, GkmSubgraph(frozenset(["N"]), frozenset()))


def test_pi_map_of_a_subgraph_outside_the_graph_is_undefined():
    g, report = reconstruct("cp2.gkm", "faces")
    for h in (_sub(["A", "Z"]), _sub(["A", "B"], ["ab", "zz"])):
        with pytest.raises(ReconstructionAmbiguous, match="no surviving face contains"):
            pi_map(report, h)


# ----------------------------------------------------------------------
# hand-made reports: the selection's diagnostics and each Galois failure


def _sub(vertices, edges=()):
    return GkmSubgraph(frozenset(vertices), frozenset(edges))


def test_selection_reports_incomparable_maxima_in_group_order(monkeypatch):
    # On the square, two pairs of incomparable candidates share a rank-1 span
    # through v00 each; a fifth one lies inside the first pair and is dropped.
    g = square_graph()
    h1 = _sub(["v00", "v10", "v11"], ["b"])
    h2 = _sub(["v00", "v10", "v01"], ["b"])
    h3 = _sub(["v00", "v01", "v10"], ["l"])
    h4 = _sub(["v00", "v01", "v11"], ["l"])
    h5 = _sub(["v00", "v10"], ["b"])
    candidates = [h1, h2, h3, h4, h5]
    monkeypatch.setattr(
        reconstruct_module, "_face_positions", lambda g, cap: [_face_of(g, h) for h in candidates]
    )
    report = reconstruct_face_poset(g, "faces")
    assert report.candidates == tuple(candidates)
    assert [(d.vertex, d.flat.basis, d.maxima) for d in report.diagnostics] == [
        ("v00", ((0, 1),), (h3, h4)),
        ("v00", ((1, 0),), (h2, h1)),
        ("v10", ((1, 0),), (h2, h1)),  # the square lists v10 before v01
        ("v01", ((0, 1),), (h3, h4)),
    ]
    assert [d.describe() for d in report.diagnostics] == [
        f"no greatest face at vertex {x!r} for a rank-1 span: 2 incomparable maxima"
        for x in ("v00", "v00", "v10", "v01")
    ]
    assert list(report.faces.payload.values()) == [h1, h2, h3, h4]
    survivors, diagnostics = face_selection_oracle(g, candidates)
    assert survivors == [h1, h2, h3, h4]
    assert [(d.vertex, d.flat, d.maxima) for d in report.diagnostics] == diagnostics
    galois = verify_galois(report)
    assert not galois.ok
    assert galois.failures == tuple(d.describe() for d in report.diagnostics)


def _cp2_report():
    g, report = reconstruct("cp2.gkm", "faces")
    result = verify_galois(report)
    assert result.ok and bool(result) is True
    return g, report


def _with_faces(report, elements, covers, payload):
    faces = GradedPoset(
        elements,
        covers,
        rank={e: report.faces.rank.get(e, 0) for e in elements},
        drk={e: report.faces.drk.get(e, 0) for e in elements},
        payload=payload,
    )
    return replace(report, faces=faces)


def test_verify_galois_reports_a_projection_that_misses_its_face(monkeypatch):
    g, report = _cp2_report()
    vertex = next(e for e in report.faces.elements if report.faces.rank[e] == 0)
    monkeypatch.setattr(reconstruct_module, "_projection", lambda report, face: vertex)
    failures = verify_galois(report).failures
    missed = [
        h for h in report.candidates if not report.subgraph(vertex).contains(h)
    ]
    assert missed
    for h in missed:
        listed = [str(x) for x in sorted(h.vertices, key=g.vertex_key)]
        assert f"projection of a face on vertices {listed} does not contain it" in failures


def test_verify_galois_reports_a_surviving_face_that_is_not_fixed():
    # reverse one cover between a vertex and an edge through it: the edge is
    # then the smallest survivor holding the vertex, which no longer projects
    # to itself
    _, report = _cp2_report()
    faces = report.faces
    vertex, edge = next(
        (low, high) for low, high in faces.covers if faces.rank[low] == 0
    )
    covers = [(high, low) if (low, high) == (vertex, edge) else (low, high) for low, high in faces.covers]
    broken = _with_faces(report, faces.elements, covers, faces.payload)
    result = verify_galois(broken)
    assert not result.ok and bool(result) is False
    assert f"projection does not fix surviving face {vertex}" in result.failures


def test_verify_galois_reports_a_projection_that_is_not_monotone(monkeypatch):
    g, report = _cp2_report()
    top = report.faces.top()
    honest = reconstruct_module._projection
    # the whole graph goes to a vertex, everything else where it belongs
    vertex = next(e for e in report.faces.elements if report.faces.rank[e] == 0)
    whole = _face_of(g, report.subgraph(top))
    monkeypatch.setattr(
        reconstruct_module,
        "_projection",
        lambda r, face: vertex if face == whole else honest(r, face),
    )
    result = verify_galois(report)
    assert "projection is not monotone on a nested pair of faces" in result.failures
    assert "projection of a face on vertices ['A', 'B', 'C'] does not contain it" in result.failures


def test_verify_galois_reports_a_survivor_missing_from_the_face_list():
    # a survivor outside the candidate list: the projection is defined
    # (it is its own smallest container) but it was never enumerated
    _, report = _cp2_report()
    faces = report.faces
    stray = _sub(["A"], ["ab"])  # not a face of CP2
    vertex = next(e for e in faces.elements if report.subgraph(e) == _sub(["A"]))
    elements = (*faces.elements, "X")
    covers = [*faces.covers, (vertex, "X"), ("X", faces.top())]
    payload = {**faces.payload, "X": stray}
    broken = _with_faces(report, elements, covers, payload)
    result = verify_galois(broken)
    assert not result.ok
    assert result.failures == ("surviving face X is missing from the full face list",)


def test_verify_galois_reports_a_face_that_no_survivor_contains():
    # drop the top survivor: the whole graph, a candidate, then projects nowhere
    _, report = _cp2_report()
    faces = report.faces
    top = faces.top()
    elements = [e for e in faces.elements if e != top]
    covers = [pair for pair in faces.covers if top not in pair]
    broken = _with_faces(report, elements, covers, {e: faces.payload[e] for e in elements})
    with pytest.raises(ReconstructionAmbiguous):
        pi_map(broken, report.subgraph(top))
    result = verify_galois(broken)
    assert result.failures == (
        "projection of a face on vertices ['A', 'B', 'C'] is undefined: "
        "no surviving face contains the given subgraph (internal inconsistency)",
    )


def test_verify_galois_reports_a_face_with_two_minimal_survivors():
    # an incomparable copy X of a rank-1 survivor: that edge's subgraph then
    # has two minimal surviving containers
    g, report = _cp2_report()
    faces = report.faces
    edge = next(e for e in faces.elements if faces.rank[e] == 1)
    elements = (*faces.elements, "X")
    below = [low for low, high in faces.covers if high == edge]
    covers = [*faces.covers, *((low, "X") for low in below), ("X", faces.top())]
    payload = {**faces.payload, "X": report.subgraph(edge)}
    broken = _with_faces(report, elements, covers, payload)
    with pytest.raises(ReconstructionAmbiguous):
        pi_map(broken, report.subgraph(edge))
    listed = [str(x) for x in sorted(report.subgraph(edge).vertices, key=g.vertex_key)]
    result = verify_galois(broken)
    assert result.failures == (
        f"projection of a face on vertices {listed} is undefined: "
        "2 minimal surviving faces contain the subgraph",
    )


@pytest.mark.parametrize("name", GKM_CORPUS)
@pytest.mark.parametrize("mode", ["faces", "tg"])
def test_verify_galois_reads_the_containers_kept_on_the_report(monkeypatch, name, mode):
    g, report = reconstruct(name, mode)
    computed = []
    containers = reconstruct_module._containers
    monkeypatch.setattr(
        reconstruct_module,
        "_containers",
        lambda g, faces: computed.append(faces) or containers(g, faces),
    )
    verify_galois(report)
    assert computed == []
    assert report._candidate_faces == tuple(_face_of(g, h) for h in report.candidates)
    assert list(report._candidate_containers) == containers(g, report._candidate_faces)
