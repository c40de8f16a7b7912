"""Command-line front end.

Exit codes: 0 when every requested check passes, 1 when a check fails or
the input is semantically unusable (invalid graph, cap exceeded), 2 for
usage and parse errors.  Each command's input files are read and parsed
once, in `main`, before its handler runs.  Output is assembled in memory
and flushed once, so identical invocations produce byte-identical output;
a reader that closes the pipe before it is written gets exit code 1 and
no traceback.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from importlib import resources

from . import complexes, formats, gkm, poset, reconstruct
from .errors import GkmFacesError, ParseError
from .matroid import flats_lattice, independence_degree


def _read(path: str) -> str:
    try:
        with io.FileIO(path) as f:  # raw bytes: no buffer, no decoding
            data = f.readall()
    except OSError as exc:
        raise GkmFacesError(f"cannot read {path}: {exc.strerror}") from exc
    data = data.removeprefix(b"\xef\xbb\xbf")  # a UTF-8 byte-order mark, as some editors save
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bad byte's line, numbered as the parsers number lines
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())
        raise ParseError("input is not UTF-8 text", line) from exc


def _face_table(p) -> str:
    rows = [f"faces: {len(p.elements)}"]
    for e in p.elements:
        com = p.drk[e] - p.rank[e]
        rows.append(f"{e} rank {p.rank[e]} drk {p.drk[e]} com {com} vertices {p.labels[e]}")
    return "\n".join(rows)


def _flats_table(p) -> str:
    rows = [f"flats: {len(p.elements)}"]
    rows += [f"{p.labels[e]} rank {p.rank[e]} drk {p.drk[e]}" for e in p.elements]
    return "\n".join(rows)


def _emit_poset(p, args, out: list[str], text=None) -> None:
    """Append p as JSON or DOT when asked, else as `text(p)` (default the .poset form)."""
    if args.json:
        out.append(formats.dump_json(formats.poset_to_json(p)).rstrip("\n"))
    elif args.dot:
        out.append(formats.poset_to_dot(p).rstrip("\n"))
    else:
        out.append((text or formats.format_poset)(p).rstrip("\n"))


def _emit(args, out: list[str], payload: dict, lines: list[str]) -> None:
    """Append a report as its JSON payload when asked, else as its text lines."""
    if args.json:
        out.append(formats.dump_json(payload).rstrip("\n"))
    else:
        out.extend(lines)


# ----------------------------------------------------------------------
# matroid subcommands


def cmd_matroid_flats(ws, args, out: list[str]) -> int:
    _emit_poset(flats_lattice(ws), args, out, text=_flats_table)
    return 0


def cmd_matroid_check(ws, args, out: list[str]) -> int:
    lattice = flats_lattice(ws)
    geometric = coherent = poset.is_geometric_lattice(lattice)
    out.append(f"flats: {len(lattice.elements)}")
    out.append("geometric lattice: " + ("pass" if geometric else f"fail: {geometric.reason}"))
    if geometric:
        coherent = poset.check_coherent(lattice, lattice.drk)  # atoms weighted by multiplicity
        out.append(
            "coherent with multiplicity weights: "
            + ("pass" if coherent else f"fail at {coherent.element}")
        )
    out.append(f"independence degree: {independence_degree(lattice)}")
    return 0 if coherent else 1


def cmd_matroid_wedge(ws, args, out: list[str]) -> int:
    report = complexes.verify_wedge_prediction(ws)
    payload = {
        "kind": "wedge-report",
        "rank": report.rank,
        "mobius_magnitude": report.mobius_magnitude,
        "flats_interval_betti": (
            None
            if report.proper_betti is None
            else {str(d): b for d, b in report.proper_betti.items()}
        ),
        "flats_interval": (
            "skipped" if report.proper_betti is None else "pass" if report.proper_ok else "fail"
        ),
        "top_h": report.top_h,
        "independence_betti": {str(d): b for d, b in report.complex_betti.items()},
        "independence": "pass" if report.complex_ok else "fail",
        "ok": report.ok,
    }
    lines = [f"matroid rank: {report.rank}", f"mobius magnitude: {report.mobius_magnitude}"]
    if report.proper_betti is None:
        lines.append("flats interval: skipped (rank below 2)")
    else:
        betti = " ".join(f"b~{d}={b}" for d, b in sorted(report.proper_betti.items()))
        lines.append(f"flats interval: {'pass' if report.proper_ok else 'fail'} ({betti})")
    betti = " ".join(f"b~{d}={b}" for d, b in sorted(report.complex_betti.items()))
    lines.append(f"top h-number: {report.top_h}")
    lines.append(f"independence complex: {'pass' if report.complex_ok else 'fail'} ({betti})")
    lines.append(f"wedge prediction: {'pass' if report.ok else 'fail'}")
    _emit(args, out, payload, lines)
    return 0 if report.ok else 1


# ----------------------------------------------------------------------
# poset subcommands


def cmd_poset_check(p, args, out: list[str]) -> int:
    graded = poset.is_graded(p)
    out.append("graded: " + ("pass" if graded else f"fail: {graded.reason}"))
    if not graded:
        return 1
    locally = poset.is_locally_geometric(p)
    out.append(
        "locally geometric: "
        + (f"pass (rank {locally.rank})" if locally else f"fail: {locally.reason}")
    )
    if not args.gkm_coherent:
        return 0 if locally else 1
    if not locally:
        out.append("gkm-coherent: skipped (not locally geometric)")
        return 1
    result = poset.check_gkm_coherent(p)
    if result:
        out.append(f"gkm-coherent: pass (drk at top = {result.drk[p.top()]})")
        return 0
    (x1, s1), (x2, s2) = result.conflict
    out.append(
        f"gkm-coherent: fail at element {result.element}: "
        f"sum {s1} from {x1} vs sum {s2} from {x2}"
    )
    return 1


def cmd_poset_compactify(p, args, out: list[str]) -> int:
    _emit_poset(poset.compactify(p), args, out)
    return 0


def cmd_poset_projectivize(p, args, out: list[str]) -> int:
    _emit_poset(poset.projectivize(p), args, out)
    return 0


def cmd_poset_glue(p1, p2, args, out: list[str]) -> int:
    _emit_poset(poset.glue_top(p1, p2), args, out)
    return 0


def cmd_poset_homology(p, args, out: list[str]) -> int:
    if args.proper:
        betti = complexes.proper_betti(p)
    else:
        betti = complexes.reduced_betti(complexes.order_complex(p))
    payload = {"kind": "betti", "reduced_betti": {str(d): b for d, b in betti.items()}}
    _emit(args, out, payload, [f"b~{degree} = {betti[degree]}" for degree in sorted(betti)])
    return 0


# ----------------------------------------------------------------------
# gkm subcommands: `graph` is the parsed (graph, file connection or None)


def cmd_gkm_validate(graph, args, out: list[str]) -> int:
    g, _ = graph
    report = gkm.validate_graph(g)
    payload = {
        "kind": "validation",
        "ok": report.ok,
        "dimension": report.dimension,
        "rank": report.rank,
        "violations": list(report.violations),
    }
    if report.ok:
        lines = [f"valid: dimension {report.dimension}, rank {report.rank}"]
    else:
        lines = ["invalid:", *(f"  {violation}" for violation in report.violations)]
    _emit(args, out, payload, lines)
    return 0 if report.ok else 1


def cmd_gkm_faces(graph, args, out: list[str]) -> int:
    g, _ = graph
    _emit_poset(gkm.enumerate_faces(g, cap=args.cap), args, out, text=_face_table)
    return 0


def cmd_gkm_tg_faces(graph, args, out: list[str]) -> int:
    g, theta = graph
    _emit_poset(gkm.enumerate_tg_faces(g, theta, cap=args.cap), args, out, text=_face_table)
    return 0


def cmd_gkm_connection(graph, args, out: list[str]) -> int:
    g, theta = graph
    if theta is not None:
        report = gkm.validate_connection(g, theta)
        if report.ok:  # then the graph, in the order the tg commands check the two
            gkm.require_valid(g)
        violations = list(report.violations)
        payload = {"kind": "connection-check", "ok": report.ok, "violations": violations}
        lines = [f"connection: {'pass' if report.ok else 'fail'}", *(f"  {v}" for v in violations)]
        _emit(args, out, payload, lines)
        return 0 if report.ok else 1
    theta = gkm.canonical_connection(g)
    rows = [
        {"via": e.name, "at": str(tail), "from": source, "to": theta.maps[(e.name, tail)][source]}
        for e in g.edges
        for tail in (e.u, e.v)
        for source in g.star(tail)
        if source != e.name
    ]
    lines = [f"connection {r['from']} at {r['at']} -> {r['to']} via {r['via']}" for r in rows]
    _emit(args, out, {"kind": "connection", "rows": rows}, lines)
    return 0


def cmd_gkm_reconstruct(graph, args, out: list[str]) -> int:
    g, theta = graph
    report = reconstruct.reconstruct_face_poset(g, args.mode, connection=theta, cap=args.cap)
    galois = None
    if args.verify_galois and not report.diagnostics:
        galois = reconstruct.verify_galois(report)
    if args.json:
        payload = {
            "kind": "face-report",
            "mode": report.mode,
            "faces": formats.poset_to_json(report.faces),
            "diagnostics": [d.describe() for d in report.diagnostics],
        }
        if galois is not None:
            payload["galois"] = "pass" if galois.ok else "fail"
        out.append(formats.dump_json(payload).rstrip("\n"))
    else:
        notes = ["diagnostics:" if report.diagnostics else "diagnostics: none"]
        notes += [f"  {d.describe()}" for d in report.diagnostics]
        if galois is not None:
            notes.append(f"galois: {'pass' if galois.ok else 'fail'}")
            notes += [f"  {failure}" for failure in galois.failures]
        _emit_poset(report.faces, args, out, text=lambda p: "\n".join([_face_table(p), *notes]))
    if report.diagnostics:
        return 1
    if galois is not None and not galois.ok:
        return 1
    return 0


# ----------------------------------------------------------------------
# corpus helper


def cmd_corpus(args, out: list[str]) -> int:
    data = resources.files("gkmfaces") / "data"
    if args.name is None:
        out.append(str(data))
        return 0
    names = sorted(p.name for p in data.iterdir() if p.is_file())
    if args.name not in names:  # a path, even one that resolves into the data, is no name
        raise GkmFacesError(f"no bundled file {args.name!r}; available: {', '.join(names)}")
    out.append((data / args.name).read_text(encoding="utf-8").rstrip("\n"))
    return 0


# ----------------------------------------------------------------------
# argument plumbing


def _output_flags(sub):
    group = sub.add_mutually_exclusive_group()  # one output format; both together exit 2
    group.add_argument("--json", action="store_true", help="structured JSON output")
    group.add_argument("--dot", action="store_true", help="DOT export of the resulting poset")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _enum_flags(sub):
    sub.add_argument(
        "--cap", type=_positive_int, default=gkm.DEFAULT_CAP, help="face search state cap"
    )


def _command(group, name, handler, help, reader=None, files=("file",)):
    """Add subcommand `name` run by `handler`.

    With a `reader`, the name of a `formats` parser, the command takes the
    positional `files`, and `main` reads and parses each before `handler` runs.
    """
    sub = group.add_parser(name, help=help)
    files = files if reader else ()
    for file in files:
        sub.add_argument(file)
    sub.set_defaults(handler=handler, reader=reader, files=files)
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gkmfaces",
        description="Flats lattices, locally geometric posets, and GKM face-poset reconstruction.",
    )
    top = parser.add_subparsers(dest="command", required=True)
    matroid, posets, graphs = (
        top.add_parser(name, help=help).add_subparsers(dest="subcommand", required=True)
        for name, help in (
            ("matroid", "weight-system operations"),
            ("poset", "graded poset operations"),
            ("gkm", "GKM-graph operations"),
        )
    )
    # the readers of .wt, .poset and .gkm files
    wt, po, gr = "parse_matroid", "parse_poset", "parse_graph_with_connection"

    _output_flags(_command(matroid, "flats", cmd_matroid_flats, "list the flats lattice", wt))
    _command(matroid, "check", cmd_matroid_check, "geometric-lattice and coherence checks", wt)
    _command(
        matroid, "wedge", cmd_matroid_wedge, "verify the sphere-wedge homology predictions", wt
    ).add_argument("--json", action="store_true")

    _command(
        posets, "check", cmd_poset_check, "gradedness, local geometricity, coherence", po
    ).add_argument("--gkm-coherent", action="store_true", dest="gkm_coherent")
    for name, handler in (
        ("compactify", cmd_poset_compactify),
        ("projectivize", cmd_poset_projectivize),
    ):
        _output_flags(_command(posets, name, handler, f"{name} a geometric lattice", po))
    glue = _command(
        posets, "glue", cmd_poset_glue, "identify the tops of two lattices", po, ("file", "file2")
    )
    _output_flags(glue)
    homology = _command(
        posets, "homology", cmd_poset_homology, "reduced Betti numbers of the order complex", po
    )
    homology.add_argument("--proper", action="store_true", help="strip bottom and top first")
    homology.add_argument("--json", action="store_true")

    _command(
        graphs, "validate", cmd_gkm_validate, "check the GKM-graph axioms", gr
    ).add_argument("--json", action="store_true")
    for name, handler, help in (
        ("faces", cmd_gkm_faces, "enumerate all faces"),
        ("tg-faces", cmd_gkm_tg_faces, "enumerate totally geodesic faces"),
    ):
        sub = _command(graphs, name, handler, help, gr)
        _output_flags(sub)
        _enum_flags(sub)
    connection = "validate the file connection or derive the canonical one"
    _command(graphs, "connection", cmd_gkm_connection, connection, gr).add_argument(
        "--json", action="store_true"
    )
    rec = _command(
        graphs, "reconstruct", cmd_gkm_reconstruct, "recover the manifold face poset", gr
    )
    rec.add_argument("--mode", choices=("faces", "tg"), default="faces")
    rec.add_argument("--verify-galois", action="store_true", dest="verify_galois")
    _output_flags(rec)
    _enum_flags(rec)

    corpus = _command(top, "corpus", cmd_corpus, "locate or print the bundled example files")
    corpus.add_argument("name", nargs="?", default=None)
    return parser


# built on the first `main` call and reused: building the tree costs far
# more than parsing one command line with it
_parser: argparse.ArgumentParser | None = None


def main(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    # dispatch by name, so a handler rebound after the parser was built
    # (for instance wrapped by a profiler) is the one that runs; so is each
    # input's `formats` parser, and every input is read and parsed here, once
    handler = globals()[args.handler.__name__]
    out: list[str] = []
    try:
        inputs = [getattr(formats, args.reader)(_read(getattr(args, f))) for f in args.files]
        code = handler(*inputs, args, out)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GkmFacesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if out:
        try:
            sys.stdout.write("\n".join(out) + "\n")
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed the pipe early; point stdout at devnull so the
            # interpreter's own flush at exit does not fail on it again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
