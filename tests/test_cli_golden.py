"""Byte-for-byte CLI outputs on the bundled corpus.

`data/cli_golden.json` holds, for every corpus command and output flag,
the exit code, stdout and stderr of `gkmfaces.cli.main`.  An argument
written `@name` stands for the path of the bundled file `name`; no
command is listed whose output would contain a path of the checkout
(`corpus` without a name prints the data directory).

Regenerate it, only when an output change is intended, with

    PYTHONPATH=src:tests python tests/test_cli_golden.py
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from gkmfaces.cli import main

from helpers import corpus_path

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"


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
    return out


def run(argv: list[str]) -> dict:
    resolved = [str(corpus_path(a[1:])) if a.startswith("@") else a for a in argv]
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
    assert not any(data_dir in e["stdout"] + e["stderr"] for e in entries)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n")
    print(f"{len(entries)} commands recorded", file=sys.stderr)
