import argparse
import ast
import io
import json
import os
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

import gkmfaces
from gkmfaces import formats, reconstruct
from gkmfaces.cli import build_parser, main
from gkmfaces.formats import format_graph, format_matroid
from gkmfaces.gkm import GkmSubgraph
from gkmfaces.matroid import Flat, WeightSystem, closure
from gkmfaces.ratlinalg import Subspace
from gkmfaces.reconstruct import Diagnostic, GaloisReport

from helpers import corpus_path, graded_posets, hypercube_graph, type_a_roots


def run_cli(*argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(list(argv))
    return code, buffer.getvalue()


def path(name):
    return str(corpus_path(name))


# a `python -m gkmfaces.cli` child imports the gkmfaces under test, installed or not
_paths = (str(Path(gkmfaces.__file__).parents[1]), os.environ.get("PYTHONPATH"))
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, _paths))}


def test_matroid_flats_u23():
    code, out = run_cli("matroid", "flats", path("u23.wt"))
    assert code == 0
    assert out.startswith("flats: 5\n")
    assert "{1,2,3} rank 2 drk 3" in out


def test_matroid_flats_json_and_dot():
    code, out = run_cli("matroid", "flats", path("b2.wt"), "--json")
    assert code == 0 and '"kind": "poset"' in out
    code, out = run_cli("matroid", "flats", path("b2.wt"), "--dot")
    assert code == 0 and out.startswith("digraph poset {")


def test_matroid_check_coll():
    code, out = run_cli("matroid", "check", path("coll.wt"))
    assert code == 0
    assert "geometric lattice: pass" in out
    assert "coherent with multiplicity weights: pass" in out
    assert "independence degree: 1" in out


def test_matroid_wedge_pass():
    code, out = run_cli("matroid", "wedge", path("u23.wt"))
    assert code == 0
    assert "wedge prediction: pass" in out
    assert "mobius magnitude: 2" in out


def test_poset_check_glued_plain():
    code, out = run_cli("poset", "check", path("glued.poset"))
    assert code == 0
    assert "locally geometric: pass (rank 2)" in out


def test_poset_check_glued_gkm_coherent_fails():
    code, out = run_cli("poset", "check", path("glued.poset"), "--gkm-coherent")
    assert code == 1
    assert "gkm-coherent: fail at element top" in out
    assert "sum 2" in out and "sum 3" in out


def test_poset_constructions_emit_parseable_text():
    from gkmfaces.formats import parse_poset

    code, out = run_cli("poset", "glue", path("glued.poset"), path("glued.poset"))
    assert code == 0
    assert len(parse_poset(out).elements) == 15
    code, out = run_cli("poset", "projectivize", path("glued.poset"))
    assert code == 1  # glued poset has no unique bottom
    code, out = run_cli("poset", "homology", path("glued.poset"), "--proper")
    assert code == 1  # and no unique bottom either, so no proper part


def test_poset_homology_plain():
    code, out = run_cli("poset", "homology", path("glued.poset"))
    assert code == 0
    assert "b~0 = 0" in out  # has a top, hence contractible


B2_POSET = (
    "element bot rank 0\n"
    "element a rank 1\n"
    "element b rank 1\n"
    "element top rank 2\n"
    "cover bot < a\ncover bot < b\ncover a < top\ncover b < top\n"
)


def test_poset_compactify_and_projectivize_cli(tmp_path):
    src = tmp_path / "b2.poset"
    src.write_text(B2_POSET)
    code, out = run_cli("poset", "compactify", str(src))
    assert code == 0
    assert out.count("element") == 5
    assert "element 0' rank 0" in out
    code, out = run_cli("poset", "projectivize", str(src))
    assert code == 0
    assert out.count("element") == 3


def test_gkm_validate_cp2():
    code, out = run_cli("gkm", "validate", path("cp2.gkm"))
    assert code == 0
    assert out.strip() == "valid: dimension 2, rank 2"


def test_gkm_faces_square():
    code, out = run_cli("gkm", "faces", path("square.gkm"))
    assert code == 0
    assert out.startswith("faces: 9\n")


def test_gkm_tg_faces_g6():
    code, out = run_cli("gkm", "tg-faces", path("g6.gkm"))
    assert code == 0
    assert out.startswith("faces: 19\n")


def test_gkm_connection_derive_square():
    code, out = run_cli("gkm", "connection", path("square.gkm"))
    assert code == 0
    assert "connection l at v00 -> r via b" in out


def test_gkm_connection_validate_g6_file():
    code, out = run_cli("gkm", "connection", path("g6.gkm"))
    assert code == 0
    assert out.strip() == "connection: pass"


def test_gkm_reconstruct_g6_with_galois():
    code, out = run_cli("gkm", "reconstruct", path("g6.gkm"), "--verify-galois")
    assert code == 0
    assert out.startswith("faces: 16\n")
    assert "galois: pass" in out
    assert "diagnostics: none" in out


def test_gkm_reconstruct_tg_mode():
    code, out = run_cli("gkm", "reconstruct", path("g6.gkm"), "--mode", "tg")
    assert code == 0
    assert out.startswith("faces: 16\n")


def test_gkm_reconstruct_cap_error(capsys):
    code, out = run_cli("gkm", "reconstruct", path("g6.gkm"), "--cap", "5")
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "error: enumeration cap of 5 candidate subgraphs exceeded: "
        "6 seed and branch states reached while growing faces of degree 1 from vertex '123'"
    )


# the reconstruction's failing reports, made by hand: selection diagnostics,
# which skip the Galois check, and a Galois check that fails
DIAGNOSTICS = tuple(
    Diagnostic(
        vertex,
        Subspace.span([(1, 0)], 2),
        (GkmSubgraph(frozenset([vertex]), frozenset()),) * 2,
    )
    for vertex in ("v00", "v10")
)
DIAGNOSTIC_LINES = [
    f"no greatest face at vertex {x!r} for a rank-1 span: 2 incomparable maxima"
    for x in ("v00", "v10")
]
GALOIS_FAILURES = (
    "projection is not monotone on a nested pair of faces",
    "surviving face X is missing from the full face list",
)


def test_gkm_reconstruct_with_diagnostics_exits_1(monkeypatch):
    argv = ("gkm", "reconstruct", path("square.gkm"), "--verify-galois")
    _, text = run_cli(*argv)
    _, payload = run_cli(*argv, "--json")
    honest = reconstruct.reconstruct_face_poset
    monkeypatch.setattr(
        reconstruct,
        "reconstruct_face_poset",
        lambda *args, **kwargs: replace(honest(*args, **kwargs), diagnostics=DIAGNOSTICS),
    )
    monkeypatch.setattr(reconstruct, "verify_galois", lambda *args: pytest.fail("galois ran"))
    notes = "".join(f"  {line}\n" for line in DIAGNOSTIC_LINES)
    assert run_cli(*argv) == (
        1, text.replace("diagnostics: none\ngalois: pass\n", "diagnostics:\n" + notes)
    )
    expected = json.loads(payload)
    del expected["galois"]
    expected["diagnostics"] = DIAGNOSTIC_LINES
    assert run_cli(*argv, "--json") == (1, formats.dump_json(expected))


def test_gkm_reconstruct_failing_the_galois_check_exits_1(monkeypatch):
    argv = ("gkm", "reconstruct", path("square.gkm"), "--verify-galois")
    _, text = run_cli(*argv)
    _, payload = run_cli(*argv, "--json")
    failed = GaloisReport(False, "faces", 9, GALOIS_FAILURES)
    monkeypatch.setattr(reconstruct, "verify_galois", lambda report: failed)
    notes = "".join(f"  {failure}\n" for failure in GALOIS_FAILURES)
    assert run_cli(*argv) == (1, text.replace("galois: pass\n", "galois: fail\n" + notes))
    expected = json.loads(payload)
    expected["galois"] = "fail"
    assert run_cli(*argv, "--json") == (1, formats.dump_json(expected))


@pytest.mark.parametrize("flag", [("--cap", "-1")])
def test_enumeration_flags_below_one_are_usage_errors(flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli("gkm", "faces", path("g6.gkm"), *flag)
    assert exit_info.value.code == 2
    assert f"argument {flag[0]}: must be at least 1" in capsys.readouterr().err


def test_the_removed_workers_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run_cli("gkm", "reconstruct", path("g6.gkm"), "--workers", "1")
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --workers 1" in capsys.readouterr().err


def leaf_parsers(parser, path=()):
    """(command words, parser) for each subcommand that takes no further subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from leaf_parsers(child, (*path, name))


def test_json_and_dot_together_are_a_usage_error(capsys):
    """Every subcommand with both output flags refuses the pair before reading its files."""
    leaves = [
        (path, leaf)
        for path, leaf in leaf_parsers(build_parser())
        if {"--json", "--dot"} <= set(leaf._option_string_actions)
    ]
    # matroid flats; poset compactify, projectivize, glue; gkm faces, tg-faces, reconstruct
    assert len(leaves) == 7
    for path, leaf in leaves:
        files = ["missing" for a in leaf._actions if not a.option_strings]
        with pytest.raises(SystemExit) as exit_info:
            run_cli(*path, *files, "--json", "--dot")
        assert exit_info.value.code == 2
        assert "argument --dot: not allowed with argument --json" in capsys.readouterr().err


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.wt"
    bad.write_text("ambient_rank: 2\nw1 = (0,0)\n")
    code, out = run_cli("matroid", "flats", str(bad))
    assert code == 2


def test_rank_zero_weight_file_is_a_parse_error(tmp_path):
    bad = tmp_path / "rank0.wt"
    bad.write_text("ambient_rank: 0\n")
    code, out = run_cli("matroid", "flats", str(bad))
    assert code == 2


@pytest.mark.parametrize(
    "command, name, text, message",
    [
        (
            ("poset", "check"),
            "cyclic.poset",
            "element a rank 0\nelement b rank 1\ncover a < b\ncover b < a\n",
            "line 1, column 1: covers contain a cycle",
        ),
        (
            ("gkm", "validate"),
            "row.gkm",
            "ambient_rank: 1\nvertex a\nvertex b\nedge e a b weight (1)\n"
            "connection e at zz -> e via e\n",
            "line 5, column 1: unknown vertex 'zz' in connection",
        ),
    ],
)
def test_semantic_parse_errors_exit_2(tmp_path, capsys, command, name, text, message):
    bad = tmp_path / name
    bad.write_text(text)
    assert run_cli(*command, str(bad)) == (2, "")
    assert capsys.readouterr().err == f"error: {message}\n"


def test_missing_file_is_an_error(tmp_path):
    code, out = run_cli("matroid", "flats", str(tmp_path / "absent.wt"))
    assert code == 1


@pytest.mark.parametrize("command", ["matroid flats", "poset check", "gkm validate"])
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_an_unreadable_path_is_a_one_line_error(tmp_path, capsys, command, kind):
    suffix = {"matroid": ".wt", "poset": ".poset", "gkm": ".gkm"}[command.split()[0]]
    target = tmp_path / f"input{suffix}"
    if kind == "directory":
        target.mkdir()
    with pytest.raises(OSError) as err:
        target.read_bytes()
    assert run_cli(*command.split(), str(target)) == (1, "")
    assert capsys.readouterr().err == f"error: cannot read {target}: {err.value.strerror}\n"


def test_corpus_listing_and_cat():
    code, out = run_cli("corpus")
    assert code == 0 and out.strip().endswith("data")
    code, out = run_cli("corpus", "u23.wt")
    assert code == 0 and "w3 = (1,1)" in out
    code, out = run_cli("corpus", "missing.wt")
    assert code == 1


@pytest.mark.parametrize(
    "name",
    [str(Path(gkmfaces.__file__).with_name("errors.py")), "../errors.py", "./u23.wt"],
    ids=["absolute", "parent", "dot"],
)
def test_corpus_serves_only_bundled_names(name):
    """A path, absolute or relative, is refused even where it names a readable file."""
    code, out, err = run_cli_with_stderr("corpus", name)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: no bundled file {name!r}; available: b2.wt, coll.wt, ")


@pytest.mark.parametrize(
    "command, text",
    [
        ("matroid flats", b"ambient_rank: 2\nw1 = (1,0)\nw2 = (0,1) # \xff\n"),
        ("matroid flats", b"\xef\xbb\xbfambient_rank: 2\nw1 = (1,0)\nw2 = (0,1) # \xff\n"),
        ("poset check", b"element 0 rank 0\r\ncover 0 < \xfe\r\n"),
        ("gkm validate", b"ambient_rank: 1\rvertex A\r\xc3(\r"),
    ],
    ids=["wt", "wt-bom", "poset", "gkm"],
)
def test_input_that_is_not_utf8_is_a_parse_error(tmp_path, command, text):
    """Inputs are decoded as UTF-8 whatever the locale; the bad byte's line is named."""
    suffix = {"matroid": ".wt", "poset": ".poset", "gkm": ".gkm"}[command.split()[0]]
    target = tmp_path / f"input{suffix}"
    target.write_bytes(text)
    code, out, err = run_cli_with_stderr(*command.split(), str(target))
    line = 3 if command != "poset check" else 2
    assert (code, out, err) == (2, "", f"error: line {line}, column 1: input is not UTF-8 text\n")


@pytest.mark.parametrize(
    "command, name",
    [("matroid flats", "coll.wt"), ("poset check", "glued.poset"), ("gkm faces", "cp2.gkm")],
    ids=["wt", "poset", "gkm"],
)
def test_a_utf8_byte_order_mark_is_skipped(tmp_path, command, name):
    marked = tmp_path / name
    marked.write_bytes(b"\xef\xbb\xbf" + corpus_path(name).read_bytes())
    expected = run_cli(*command.split(), path(name))
    assert expected[0] == 0
    assert run_cli(*command.split(), str(marked)) == expected


def test_matroid_commands_build_no_flat(tmp_path, monkeypatch):
    """A flat is its lattice element: flats, check and wedge on A4 construct no `Flat`."""
    built = []
    init = Flat.__init__
    monkeypatch.setattr(Flat, "__init__", lambda *args: built.append(init(*args)))
    weights = tmp_path / "a4.wt"
    weights.write_text(format_matroid(WeightSystem(4, type_a_roots(4))))
    for command in ("flats", "check", "wedge"):
        assert run_cli("matroid", command, str(weights))[0] == 0
    assert built == []
    closure(WeightSystem(1, [(1,)]), {1})
    assert len(built) == 1  # the count sees a `Flat` where one is built


ALL_COMMANDS = [
    ("matroid", "flats", "b2.wt"),
    ("matroid", "flats", "u23.wt"),
    ("matroid", "flats", "coll.wt"),
    ("matroid", "check", "u23.wt"),
    ("matroid", "wedge", "coll.wt"),
    ("poset", "check", "glued.poset"),
    ("gkm", "validate", "g6.gkm"),
    ("gkm", "faces", "cp2.gkm"),
    ("gkm", "tg-faces", "square.gkm"),
    ("gkm", "reconstruct", "s2.gkm"),
    ("gkm", "reconstruct", "g6.gkm"),
]


@pytest.mark.parametrize("command", ALL_COMMANDS, ids=lambda c: "-".join(c))
def test_cli_outputs_are_deterministic(command):
    argv = [*command[:-1], path(command[-1])]
    first = run_cli(*argv)
    second = run_cli(*argv)
    assert first == second


def test_main_dispatches_to_the_handler_bound_now(monkeypatch):
    from gkmfaces import cli

    run_cli("corpus")  # the parser is built and kept from here on
    seen = []

    def wrapped(args, out):
        seen.append(args.name)
        return original(args, out)

    original = cli.cmd_corpus
    monkeypatch.setattr(cli, "cmd_corpus", wrapped)
    code, out = run_cli("corpus", "u23.wt")
    assert code == 0 and out
    assert seen == ["u23.wt"]


def test_console_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "gkmfaces.cli", "gkm", "validate", path("s2.gkm")],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "valid: dimension 1, rank 1"


def test_reader_closing_the_pipe_early_exits_1_without_a_traceback(tmp_path):
    # the face table of Q6 is about 73 KiB, more than a pipe holds
    graph = tmp_path / "q6.gkm"
    graph.write_text(format_graph(hypercube_graph(6)))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gkmfaces.cli", "gkm", "faces", str(graph)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=CHILD_ENV,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (1, b"")


def test_unknown_subcommand_usage_exit():
    result = subprocess.run(
        [sys.executable, "-m", "gkmfaces.cli", "bogus"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert result.returncode == 2
    assert "usage" in result.stderr


GKM_COMMANDS = [
    ("validate",),
    ("faces",),
    ("tg-faces",),
    ("connection",),
    ("reconstruct",),
    ("reconstruct", "--verify-galois"),
    ("reconstruct", "--mode", "tg"),
    ("reconstruct", "--mode", "tg", "--verify-galois"),
]


@pytest.mark.parametrize("name", ["cp2.gkm", "g6.gkm", "s2.gkm", "square.gkm"])
@pytest.mark.parametrize("command", GKM_COMMANDS, ids=" ".join)
def test_gkm_commands_validate_and_check_a_connection_at_most_once(monkeypatch, name, command):
    from gkmfaces import gkm

    calls = Counter()

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)

        return wrapper

    for fn in (gkm.validate_graph, gkm.validate_connection):
        monkeypatch.setattr(gkm, fn.__name__, counted(fn))
    code, _ = run_cli("gkm", command[0], path(name), *command[1:])
    assert code == 0
    assert calls["validate_graph"] <= 1
    assert calls["validate_connection"] <= 1


def run_cli_with_stderr(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


TRIANGLE = """ambient_rank: 2
{signed}vertex A
vertex B
vertex C
edge ab A B weight (1,0)
edge ac A C weight (0,1)
edge bc B C weight (1,2)
"""


@pytest.mark.parametrize("signed", ["", "signed\n"], ids=["unsigned", "signed"])
def test_span_compatible_map_failing_the_axioms_fails_every_tg_command(tmp_path, signed):
    f = tmp_path / "triangle.gkm"
    f.write_text(TRIANGLE.format(signed=signed))
    errors = set()
    for command in (("connection",), ("tg-faces",), ("reconstruct", "--mode", "tg")):
        code, out, err = run_cli_with_stderr("gkm", command[0], str(f), *command[1:])
        assert (code, out) == (1, "")
        errors.add(err)
    assert len(errors) == 1
    assert errors.pop().startswith("error: connection not canonical: ")
    for command in (("faces",), ("reconstruct",)):
        code, out, err = run_cli_with_stderr("gkm", command[0], str(f), *command[1:])
        assert (code, err) == (0, "")


def test_invalid_file_connection_fails_every_tg_command(tmp_path):
    f = tmp_path / "g6-broken.gkm"
    text = corpus_path("g6.gkm").read_text()
    # swap the images of two edges carried across e123_132 out of 123
    swaps = (("e123_213", "e132_312", "e132_231"), ("e123_321", "e132_231", "e132_312"))
    for source, image, swapped in swaps:
        row = f"connection {source} at 123 -> {{}} via e123_132\n"
        assert row.format(image) in text
        text = text.replace(row.format(image), row.format(swapped))
    f.write_text(text)
    code, out, err = run_cli_with_stderr("gkm", "connection", str(f))
    assert (code, out.splitlines()[0]) == (1, "connection: fail")
    for command in (("tg-faces",), ("reconstruct", "--mode", "tg")):
        code, out, err = run_cli_with_stderr("gkm", command[0], str(f), *command[1:])
        assert (code, out) == (1, "")
        assert err.startswith("error: supplied connection is invalid: ")
    code, out, err = run_cli_with_stderr("gkm", "reconstruct", str(f))
    assert (code, err) == (0, "")


TWO_EDGES = """ambient_rank: 2
vertex a
vertex b
vertex c
vertex d
edge e a b weight (1,0)
edge f c d weight (0,1)
connection e at a -> e via e
connection e at b -> e via e
connection f at c -> f via f
connection f at d -> f via f
"""


def test_valid_file_connection_on_an_invalid_graph_fails_every_tg_command(tmp_path):
    # each star map is a bijection, but the graph is disconnected
    f = tmp_path / "two-edges.gkm"
    f.write_text(TWO_EDGES)
    errors = set()
    for command in (
        ("connection",),
        ("connection", "--json"),
        ("tg-faces",),
        ("reconstruct", "--mode", "tg"),
    ):
        code, out, err = run_cli_with_stderr("gkm", command[0], str(f), *command[1:])
        assert (code, out) == (1, "")
        errors.add(err)
    assert errors == {
        "error: graph is disconnected: vertex 'c' unreachable; "
        "axial span at vertex 'c' differs from the span at 'a'\n"
    }


def test_glue_needs_a_unique_top_in_both_posets(tmp_path):
    f = tmp_path / "vee.poset"
    f.write_text("element b rank 0\nelement x rank 1\nelement y rank 1\ncover b < x\ncover b < y\n")
    code, out, err = run_cli_with_stderr("poset", "glue", path("glued.poset"), str(f))
    assert (code, out, err) == (1, "", "error: both posets need a unique top element\n")


def test_connection_row_missing_a_token_is_a_parse_error_at_its_line(tmp_path):
    f = tmp_path / "s2-short-row.gkm"
    f.write_text(corpus_path("s2.gkm").read_text() + "connection e at N -> e\n")
    line = len(f.read_text().splitlines())
    code, out, err = run_cli_with_stderr("gkm", "connection", str(f))
    assert (code, out) == (2, "")
    assert err == (
        f"error: line {line}, column 1: "
        "expected 'connection <from> at <vertex> -> <to> via <edge>'\n"
    )


def test_wedge_on_a_weight_file_without_weights_is_a_typed_error(tmp_path):
    f = tmp_path / "empty.wt"
    f.write_text("ambient_rank: 2\n")
    for flags in ([], ["--json"]):
        code, out, err = run_cli_with_stderr("matroid", "wedge", str(f), *flags)
        assert (code, out) == (1, "")
        assert err == "error: wedge predictions need a weight system of rank at least 1\n"


@pytest.mark.parametrize(
    "argv, minima",
    [
        (("matroid", "check", "u23.wt"), 1),
        (("matroid", "check", "coll.wt"), 1),
        (("poset", "check", "glued.poset", "--gkm-coherent"), 2),
    ],
    ids=lambda a: " ".join(a) if isinstance(a, tuple) else str(a),
)
def test_check_commands_scan_each_up_set_once(monkeypatch, argv, minima):
    from gkmfaces import poset

    scans = Counter()
    scan = poset._geometric_by_covers

    def counted(p, s):
        scans[s] += 1
        return scan(p, s)

    monkeypatch.setattr(poset, "_geometric_by_covers", counted)
    run_cli(argv[0], argv[1], path(argv[2]), *argv[3:])
    assert len(scans) == minima and set(scans.values()) == {1}


@pytest.mark.parametrize(
    "argv",
    [
        ("matroid", "check", "u23.wt"),
        ("matroid", "check", "coll.wt"),
        ("poset", "check", "glued.poset", "--gkm-coherent"),
    ],
    ids=" ".join,
)
def test_check_commands_grade_one_poset_once(monkeypatch, argv):
    graded = graded_posets(monkeypatch)
    run_cli(argv[0], argv[1], path(argv[2]), *argv[3:])
    assert len(graded) == 1


def test_text_io_names_its_encoding():
    """No module decodes or encodes text with the locale's encoding."""
    package = Path(gkmfaces.__file__).parent
    implicit = [
        f"{source.name}:{node.lineno}"
        for source in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == "open")
            or (isinstance(node.func, ast.Attribute) and node.func.attr in ("read_text", "write_text"))
        )
        and not any(keyword.arg == "encoding" for keyword in node.keywords)
    ]
    assert implicit == []


def test_cli_reads_no_private_name_of_the_package():
    from gkmfaces import cli

    tree = ast.parse(Path(cli.__file__).read_text())
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if node.module is None
    }
    assert modules >= {"gkm", "poset"}
    private = [
        f"{node.value.id}.{node.attr} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
        and node.attr.startswith("_")
    ]
    private += [
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or "gkmfaces" in (node.module or ""))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
