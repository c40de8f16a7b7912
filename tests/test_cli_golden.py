"""Byte-for-byte CLI outputs on the bundled corpus.

`data/cli_golden.json` holds, for every corpus command and output flag,
the exit code, stdout and stderr of `gkmfaces.cli.main`.  An argument
written `@name` stands for the path of the bundled file `name`, and one
written `%name` for a file holding the seeded scrambled graph `name` of
`helpers.scrambled_graphs(GRAPH_SEED)`: Q3, CP2xS2, Fl(3) and CP2xCP2,
the graph families the benchmark runs.  `%name.wt` and `%name.poset` are
the weight systems of `weight_inputs()`, disguised A3-A5 and two seeded
`helpers.weight_corpus` batches, and their flats lattices, built without
the package; `%empty.wt` declares an ambient rank and no weights.
`%conflict.poset`, `%misranked.poset` and `%bowtie.poset` are the
posets of `BAD_POSETS`, which fail the grading or the locally geometric
check in the three ways named there.  No
command is listed whose output would contain a path of the checkout
(`corpus` without a name prints the data directory).

Regenerate it, only when an output change is intended, with

    PYTHONPATH=src:tests python tests/test_cli_golden.py
"""

import atexit
import functools
import io
import json
import random
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from gkmfaces.cli import main
from gkmfaces.formats import format_graph, format_matroid
from gkmfaces.matroid import WeightSystem

from helpers import (
    corpus_path,
    disguised,
    flats_lattice_text,
    partition_lattice_text,
    scrambled_graphs,
    type_a_roots,
    weight_corpus,
)

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
GRAPH_SEED = 2026
WEIGHT_SEED = 2026

BAD_POSETS = {
    # a<c, b<c, a<d<c: the covers reach c at ranks 1 and 2
    "conflict": "element a rank 0\nelement b rank 0\nelement d rank 1\nelement c rank 2\n"
    "cover a < c\ncover b < c\ncover a < d\ncover d < c\n",
    # the Boolean lattice B2 with its top stored at rank 3 instead of 2
    "misranked": "element 0 rank 0 drk 0\nelement x rank 1 drk 1\nelement y rank 1 drk 1\n"
    "element 1 rank 3 drk 2\ncover 0 < x\ncover 0 < y\ncover x < 1\ncover y < 1\n",
    # graded with a top, but a and b have two minimal upper bounds
    "bowtie": "element 0 rank 0\nelement a rank 1\nelement b rank 1\nelement c rank 2\n"
    "element d rank 2\nelement 1 rank 3\ncover 0 < a\ncover 0 < b\ncover a < c\n"
    "cover a < d\ncover b < c\ncover b < d\ncover c < 1\ncover d < 1\n",
}


@functools.lru_cache(maxsize=None)
def weight_inputs() -> dict[str, tuple[str, str]]:
    """name -> (.wt text, .poset text of its flats lattice)."""
    rng = random.Random(WEIGHT_SEED)
    out = {}
    for n in (3, 4, 5):
        ws = disguised(rng, WeightSystem(n, type_a_roots(n)))
        out[f"a{n}"] = (format_matroid(ws), partition_lattice_text(rng, n))
    for i, ws in enumerate(weight_corpus(WEIGHT_SEED, 8)):
        out[f"r{i}"] = (format_matroid(ws), flats_lattice_text(rng, ws))
    # fewer coordinates, so parallel and repeated weights at ranks 2 and 3
    for i, ws in enumerate(weight_corpus(WEIGHT_SEED + 1, 6, max_k=3)):
        out[f"s{i}"] = (format_matroid(ws), flats_lattice_text(rng, ws))
    return out


def golden_commands() -> list[list[str]]:
    out = []
    for name in ("b2.wt", "coll.wt", "u23.wt"):
        for flags in ([], ["--json"], ["--dot"]):
            out.append(["matroid", "flats", f"@{name}", *flags])
        out.append(["matroid", "check", f"@{name}"])
        for flags in ([], ["--json"]):
            out.append(["matroid", "wedge", f"@{name}", *flags])
    glued = "@glued.poset"
    for flags in ([], ["--gkm-coherent"]):
        out.append(["poset", "check", glued, *flags])
    for flags in ([], ["--proper"], ["--json"], ["--proper", "--json"]):
        out.append(["poset", "homology", glued, *flags])
    for flags in ([], ["--json"], ["--dot"]):
        out.append(["poset", "glue", glued, glued, *flags])
        out.append(["poset", "compactify", glued, *flags])
        out.append(["poset", "projectivize", glued, *flags])
    for name in ("cp2.gkm", "g6.gkm", "s2.gkm", "square.gkm"):
        graph = f"@{name}"
        for flags in ([], ["--json"]):
            out.append(["gkm", "validate", graph, *flags])
            out.append(["gkm", "connection", graph, *flags])
        for command in ("faces", "tg-faces"):
            for flags in ([], ["--json"], ["--dot"], ["--cap", "5"]):
                out.append(["gkm", command, graph, *flags])
        for mode in ("faces", "tg"):
            for galois in ([], ["--verify-galois"]):
                for flags in ([], ["--json"], ["--dot"], ["--cap", "5"]):
                    out.append(["gkm", "reconstruct", graph, "--mode", mode, *galois, *flags])
    out.append(["corpus", "u23.wt"])
    for name in scrambled_graphs(GRAPH_SEED):
        graph = f"%{name}"
        for flags in ([], ["--json"]):
            for command in ("validate", "faces", "tg-faces", "connection"):
                out.append(["gkm", command, graph, *flags])
            for mode in ("faces", "tg"):
                out.append(["gkm", "reconstruct", graph, "--mode", mode, "--verify-galois", *flags])
    for name in weight_inputs():
        wt, lattice = f"%{name}.wt", f"%{name}.poset"
        for flags in ([], ["--json"]):
            out.append(["matroid", "flats", wt, *flags])
        out.append(["matroid", "check", wt])
        for flags in ([], ["--json"]):
            out.append(["matroid", "wedge", wt, *flags])
        out.append(["poset", "check", lattice, "--gkm-coherent"])
        out.append(["poset", "homology", lattice, "--proper"])
    for flags in ([], ["--json"]):
        out.append(["matroid", "wedge", "%empty.wt", *flags])
    for name in BAD_POSETS:
        bad = f"%{name}.poset"
        for flags in ([], ["--gkm-coherent"]):
            out.append(["poset", "check", bad, *flags])
        out.append(["poset", "compactify", bad])
        out.append(["poset", "projectivize", bad])
        out.append(["poset", "glue", bad, bad])
    return out


@functools.lru_cache(maxsize=None)
def input_dir() -> Path:
    """A temporary directory holding every `%name` input file."""
    path = Path(tempfile.mkdtemp(prefix="gkmfaces-golden-"))
    atexit.register(shutil.rmtree, path, ignore_errors=True)
    for name, (g, theta) in scrambled_graphs(GRAPH_SEED).items():
        (path / f"{name}.gkm").write_text(format_graph(g, theta))
    for name, (wt, lattice) in weight_inputs().items():
        (path / f"{name}.wt").write_text(wt)
        (path / f"{name}.poset").write_text(lattice)
    (path / "empty.wt").write_text(format_matroid(WeightSystem(2, [])))
    for name, text in BAD_POSETS.items():
        (path / f"{name}.poset").write_text(text)
    return path


def resolve(arg: str) -> str:
    if arg.startswith("@"):
        return str(corpus_path(arg[1:]))
    if arg.startswith("%"):
        name = arg[1:]
        return str(input_dir() / (name if "." in name else f"{name}.gkm"))
    return arg


def run(argv: list[str]) -> dict:
    resolved = [resolve(a) for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(resolved)
    return {"argv": argv, "code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}


def _entries() -> list[dict]:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


def test_golden_covers_every_command():
    assert [entry["argv"] for entry in _entries()] == golden_commands()


@pytest.mark.parametrize("entry", _entries(), ids=lambda e: " ".join(e["argv"]))
def test_cli_bytes_match_the_golden_file(entry):
    assert run(entry["argv"]) == entry


if __name__ == "__main__":
    data_dir = str(corpus_path(""))
    entries = [run(argv) for argv in golden_commands()]
    assert not any(
        path in e["stdout"] + e["stderr"] for e in entries for path in (data_dir, str(input_dir()))
    )
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n")
    print(f"{len(entries)} commands recorded", file=sys.stderr)
