"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines.  All
checks are exact (integer counts, exact arithmetic); there are no
tolerances to tune.
"""

import functools
import io
from contextlib import redirect_stdout

from gkmfaces.cli import main as cli_main
from gkmfaces.complexes import verify_wedge_prediction
from gkmfaces.gkm import local_face_poset
from gkmfaces.matroid import WeightSystem, all_flats, flats_lattice
from gkmfaces.poset import (
    are_isomorphic,
    check_coherent,
    check_gkm_coherent,
    compactify,
    glue_top,
    grading_of,
    is_geometric_lattice,
    is_locally_geometric,
    projectivize,
)
from gkmfaces.reconstruct import reconstruct_face_poset, verify_galois

from helpers import (
    BASIS2,
    GKM_CORPUS,
    UNIFORM23,
    corpus_graph,
    corpus_path,
    weight_corpus,
)
from oracles import flats_oracle

SYSTEMS = weight_corpus(seed=20260809, count=200)
BOOLEAN3 = WeightSystem(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def criterion(number, description):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL  {description}")
                raise
            print(f"criterion {number}: PASS  {description}")

        return run

    return wrap


@criterion(1, "all_flats matches the 2^n closure oracle on 200 random systems")
def test_flats_oracle_equivalence():
    for ws in SYSTEMS:
        got = [(f.members, f.rank) for f in all_flats(ws)]
        assert got == flats_oracle(ws.weights)


@criterion(2, "flats lattices and all their upper ideals are geometric lattices")
def test_geometric_lattice_axioms():
    for ws in SYSTEMS:
        lattice = flats_lattice(ws)
        assert is_geometric_lattice(lattice)
        for s in lattice.elements:
            assert is_geometric_lattice(lattice.upper_ideal(s))


@criterion(3, "sphere-wedge homology predictions hold on every generated system")
def test_wedge_predictions():
    for ws in SYSTEMS:
        report = verify_wedge_prediction(ws)
        assert report.ok, (ws, report)
    u23 = verify_wedge_prediction(UNIFORM23)
    assert u23.mobius_magnitude == 2 and u23.proper_betti[0] == 2
    b3 = verify_wedge_prediction(BOOLEAN3)
    assert b3.mobius_magnitude == 1
    assert b3.proper_betti == {-1: 0, 0: 0, 1: 1}  # hexagon circle
    assert all(v == 0 for v in b3.complex_betti.values())
    assert b3.top_h == 0


@criterion(4, "reconstructed posets are locally geometric with matroid local structure")
def test_reconstruction_local_structure():
    for name in GKM_CORPUS:
        g, theta = corpus_graph(name)
        for mode in ("faces", "tg"):
            report = reconstruct_face_poset(g, mode, connection=theta)
            assert not report.diagnostics
            assert is_locally_geometric(report.faces)
            for x in report.faces.minimal_elements():
                vertex = next(iter(report.faces.payload[x].vertices))
                assert are_isomorphic(
                    report.faces.upper_ideal(x), local_face_poset(g, vertex)
                )


@criterion(5, "reconstruction counts on the corpus: 3, 7, 9, and 16 faces")
def test_algorithm_on_corpus():
    expected = {"s2.gkm": 3, "cp2.gkm": 7, "square.gkm": 9, "g6.gkm": 16}
    for name, count in expected.items():
        g, theta = corpus_graph(name)
        report = reconstruct_face_poset(g, "faces")
        assert len(report.faces.elements) == count, name
    g, _ = corpus_graph("cp2.gkm")
    report = reconstruct_face_poset(g, "faces")
    b3 = flats_lattice(BOOLEAN3)
    assert are_isomorphic(report.faces, projectivize(b3))
    g, _ = corpus_graph("g6.gkm")
    report = reconstruct_face_poset(g, "faces")
    rank2 = [e for e in report.faces.elements if report.faces.rank[e] == 2]
    assert len(rank2) == 1


@criterion(6, "Galois insertion laws hold on every corpus graph in both modes")
def test_galois_insertions():
    for name in GKM_CORPUS:
        g, theta = corpus_graph(name)
        for mode in ("faces", "tg"):
            result = verify_galois(g, reconstruct_face_poset(g, mode, connection=theta))
            assert result.ok, (name, mode, result.failures)


@criterion(7, "coherence passes with multiplicity weights and fails on the glued poset")
def test_coherence():
    for ws in SYSTEMS:
        lattice = flats_lattice(ws)
        ranks = grading_of(lattice)
        atoms = [e for e in lattice.elements if ranks[e] == 1]
        result = check_coherent(lattice, {a: lattice.drk[a] for a in atoms})
        assert result
        assert result.drk[lattice.top()] == ws.size
    for name in GKM_CORPUS:
        g, theta = corpus_graph(name)
        for mode in ("faces", "tg"):
            report = reconstruct_face_poset(g, mode, connection=theta)
            result = check_gkm_coherent(report.faces)
            assert result
            assert result.drk == report.faces.drk
    glued = glue_top(flats_lattice(BASIS2), flats_lattice(UNIFORM23))
    result = check_gkm_coherent(glued)
    assert not result
    assert result.element == glued.top()
    assert sorted(total for _, total in result.conflict) == [2, 3]


@criterion(8, "compactification and projectivization stay locally geometric")
def test_constructions():
    for ws in SYSTEMS[:100]:
        lattice = flats_lattice(ws)
        assert is_locally_geometric(compactify(lattice))
        if grading_of(lattice)[lattice.top()] >= 1:
            assert is_locally_geometric(projectivize(lattice))
    assert len(projectivize(flats_lattice(BASIS2)).elements) == 3
    b1 = flats_lattice(WeightSystem(1, [(1,)]))
    g, _ = corpus_graph("s2.gkm")
    report = reconstruct_face_poset(g, "faces")
    assert are_isomorphic(compactify(b1), report.faces)


CLI_MATRIX = [
    ("matroid", "flats", "b2.wt"),
    ("matroid", "flats", "u23.wt"),
    ("matroid", "flats", "coll.wt"),
    ("matroid", "check", "b2.wt"),
    ("matroid", "check", "u23.wt"),
    ("matroid", "check", "coll.wt"),
    ("matroid", "wedge", "b2.wt"),
    ("matroid", "wedge", "u23.wt"),
    ("matroid", "wedge", "coll.wt"),
    ("poset", "check", "glued.poset"),
    ("poset", "homology", "glued.poset"),
    ("gkm", "validate", "s2.gkm"),
    ("gkm", "validate", "cp2.gkm"),
    ("gkm", "validate", "square.gkm"),
    ("gkm", "validate", "g6.gkm"),
    ("gkm", "faces", "s2.gkm"),
    ("gkm", "faces", "cp2.gkm"),
    ("gkm", "faces", "square.gkm"),
    ("gkm", "faces", "g6.gkm"),
    ("gkm", "tg-faces", "s2.gkm"),
    ("gkm", "tg-faces", "cp2.gkm"),
    ("gkm", "tg-faces", "square.gkm"),
    ("gkm", "tg-faces", "g6.gkm"),
    ("gkm", "connection", "square.gkm"),
    ("gkm", "connection", "g6.gkm"),
    ("gkm", "reconstruct", "s2.gkm"),
    ("gkm", "reconstruct", "cp2.gkm"),
    ("gkm", "reconstruct", "square.gkm"),
    ("gkm", "reconstruct", "g6.gkm"),
]


def _run_cli(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli_main(argv)
    return code, buffer.getvalue()


@criterion(9, "CLI output is byte-identical across reruns")
def test_cli_determinism():
    for command in CLI_MATRIX:
        argv = [*command[:-1], str(corpus_path(command[-1]))]
        first = _run_cli(argv)
        second = _run_cli(argv)
        assert first == second, command
        for flag in (["--json"], ["--dot"]):
            if command[1] in ("flats", "faces", "tg-faces", "reconstruct"):
                assert _run_cli(argv + flag) == _run_cli(argv + flag), (command, flag)
