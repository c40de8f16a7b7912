"""Byte-for-byte CLI outputs on the bundled corpus.

`data/cli_golden.json` holds, for every corpus command and output flag,
the exit code, stdout and stderr of `gkmfaces.cli.main`.  An argument
written `@name` stands for the path of the bundled file `name`, and one
written `%name` for a file holding the seeded scrambled graph `name` of
`helpers.scrambled_graphs(GRAPH_SEED)`: Q3, CP2xS2, Fl(3) and CP2xCP2,
the graph families the benchmark runs.  No command is listed whose
output would contain a path of the checkout (`corpus` without a name
prints the data directory).

Regenerate it, only when an output change is intended, with

    PYTHONPATH=src:tests python tests/test_cli_golden.py
"""

import atexit
import functools
import io
import json
import shutil
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from gkmfaces.cli import main
from gkmfaces.formats import format_graph

from helpers import corpus_path, scrambled_graphs

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
GRAPH_SEED = 2026


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
    return out


@functools.lru_cache(maxsize=None)
def graph_dir() -> Path:
    """A temporary directory holding one .gkm file per scrambled graph."""
    path = Path(tempfile.mkdtemp(prefix="gkmfaces-golden-"))
    atexit.register(shutil.rmtree, path, ignore_errors=True)
    for name, (g, theta) in scrambled_graphs(GRAPH_SEED).items():
        (path / f"{name}.gkm").write_text(format_graph(g, theta))
    return path


def resolve(arg: str) -> str:
    if arg.startswith("@"):
        return str(corpus_path(arg[1:]))
    if arg.startswith("%"):
        return str(graph_dir() / f"{arg[1:]}.gkm")
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
        path in e["stdout"] + e["stderr"] for e in entries for path in (data_dir, str(graph_dir()))
    )
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n")
    print(f"{len(entries)} commands recorded", file=sys.stderr)
