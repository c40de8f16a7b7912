"""Tests of the benchmark's seeded input generators.

Run with `PYTHONPATH=src python -m pytest bench/test_generators.py`.
"""

import io
import random
from contextlib import redirect_stdout
from importlib import resources

import pytest

from gkmfaces.cli import main
from gkmfaces.formats import parse_graph_with_connection, parse_matroid, parse_poset
from gkmfaces.gkm import enumerate_faces, enumerate_tg_faces
from gkmfaces.matroid import flats_lattice
from gkmfaces.poset import are_isomorphic

import generators as gen
import workloads

GRAPHS = {
    "q2": gen.hypercube(2),
    "q3": gen.hypercube(3),
    "cp2xs2": gen.product(gen.cp2(), gen.sphere()),
    "cp2xcp2": gen.product(gen.cp2(), gen.cp2()),
    "fl3": gen.flag3(),
}


def test_workload_files_repeat_per_seed(tmp_path):
    data = resources.files("gkmfaces") / "data"
    for name in workloads.WORKLOADS:
        dirs = {tag: tmp_path / f"{name}-{tag}" for tag in ("a", "b", "other")}
        for d in dirs.values():
            d.mkdir()
        a = workloads.build(name, 3, dirs["a"], data)
        b = workloads.build(name, 3, dirs["b"], data)
        workloads.build(name, 4, dirs["other"], data)
        assert [j.label for j in a] == [j.label for j in b]
        files = sorted(p.name for p in dirs["a"].iterdir())
        read = {tag: [(d / f).read_bytes() for f in files] for tag, d in dirs.items()}
        assert read["a"] == read["b"]
        assert read["a"] != read["other"]


@pytest.mark.parametrize("name", GRAPHS)
@pytest.mark.parametrize("seed", [1, 2])
def test_generated_graphs_pass_validate(tmp_path, name, seed):
    path = tmp_path / f"{name}.gkm"
    path.write_text(gen.graph_file(gen.scramble(random.Random(seed), GRAPHS[name])))
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["gkm", "validate", str(path)])
    assert code == 0
    assert out.getvalue().startswith("valid:")


@pytest.mark.parametrize("case", workloads.graph_cases(), ids=lambda c: c.name)
def test_graph_invariants_do_not_depend_on_seed(case):
    counts = set()
    for seed in (1, 2):
        g, theta = parse_graph_with_connection(
            gen.graph_file(gen.scramble(random.Random(seed), case.graph))
        )
        faces = enumerate_faces(g)
        tg = enumerate_tg_faces(g, theta) if theta is not None else None
        ranks = sorted(faces.rank.values())
        counts.add((len(faces.elements), tuple(ranks), None if tg is None else len(tg.elements)))
    assert len(counts) == 1
    total, ranks, tg = counts.pop()
    assert total == sum(case.faces.values())
    assert ranks == tuple(sorted(r for r, c in case.faces.items() for _ in range(c)))
    if tg is not None:
        assert tg == case.tg_faces


@pytest.mark.parametrize("seed", [1, 2])
def test_type_a_disguise_keeps_the_lattice(seed):
    rng = random.Random(seed)
    for n in (3, 4):
        lattice = flats_lattice(parse_matroid(gen.weight_file(n, gen.type_a_weights(rng, n))))
        partitions = parse_poset(gen.partition_lattice_poset(rng, n))
        assert len(lattice.elements) == len(partitions.elements) == workloads.bell(n + 1)
        assert sorted(lattice.rank.values()) == sorted(partitions.rank.values())
        assert sorted(lattice.drk.values()) == sorted(partitions.drk.values())
        assert len(lattice.covers) == len(partitions.covers)
        if n == 3:  # the backtracking isomorphism test is too slow on larger ones
            assert are_isomorphic(lattice, partitions)


def test_flag3_matches_the_bundled_g6():
    bundled = parse_graph_with_connection((resources.files("gkmfaces") / "data" / "g6.gkm").read_text())
    generated = parse_graph_with_connection(gen.graph_file(gen.flag3()))
    assert generated == bundled


def test_random_weights_stay_in_range():
    rng = random.Random(5)
    for n, k in workloads.RANDOM_SHAPES:
        weights = gen.random_weights(rng, n, k)
        assert len(weights) == n
        assert all(len(w) == k and any(w) and all(-3 <= x <= 3 for x in w) for w in weights)
