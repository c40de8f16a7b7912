"""The package's public surface: `gkmfaces.__all__` is sorted, has no
duplicates, and names exactly the public names bound in the package other
than its submodules, so a stale import or export fails here.  The README's
file-format examples parse and its library sketch runs."""

import re
from pathlib import Path
from types import ModuleType

import gkmfaces
from gkmfaces.formats import parse_graph_with_connection, parse_matroid, parse_poset


def test_all_names_exactly_the_public_bindings():
    exported = gkmfaces.__all__
    assert exported == sorted(set(exported))
    bound = {
        name
        for name, value in vars(gkmfaces).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(exported) == bound


def test_flats_are_read_off_the_lattice_only():
    """`flats_lattice` is the one way to the flats: its elements and rank labels."""
    assert "all_flats" not in gkmfaces.__all__
    assert not hasattr(gkmfaces.matroid, "all_flats") and not hasattr(gkmfaces.matroid, "flat_id")


README = Path(__file__).resolve().parents[1] / "README.md"
PARSERS = {".wt": parse_matroid, ".poset": parse_poset, ".gkm": parse_graph_with_connection}


def _section(title: str) -> str:
    text = README.read_text(encoding="utf-8")
    return text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_readme_file_format_examples_parse():
    examples = re.findall(r"\(`(\.\w+)`\):.*?\n```\n(.*?)```", _section("File formats"), re.S)
    assert sorted(kind for kind, _ in examples) == sorted(PARSERS)
    for kind, text in examples:
        PARSERS[kind](text)


def test_readme_library_sketch_runs(monkeypatch):
    (sketch,) = re.findall(r"```python\n(.*?)```", _section("Library sketch"), re.S)
    monkeypatch.chdir(Path(gkmfaces.__file__).parent / "data")
    exec(compile(sketch, "README.md", "exec"), {})
