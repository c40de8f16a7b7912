"""Text grammars for the three input kinds, plus DOT and JSON export.

All three formats are line-based; `#` starts a comment anywhere and blank
lines are skipped.  Parsers report every failure with its line and the
column of the offending token.

matroid (.wt)      ambient_rank: <k>
                   w1 = (a_1,...,a_k)        weights numbered from 1, in order

poset (.poset)     element <id> rank <r> [drk <d>]
                   cover <id> < <id>

graph (.gkm)       ambient_rank: <k>
                   signed                    optional; weights are then oriented
                                             from the first listed endpoint
                   vertex <id>
                   edge <id> <u> <v> weight (a_1,...,a_k)
                   connection <from> at <vertex> -> <to> via <edge>
                                             optional; the map along `via` out
                                             of `vertex`; via -> via is implicit
"""

from __future__ import annotations

import json
import re

from .errors import GkmFacesError, ParseError
from .gkm import Connection, GkmGraph
from .matroid import WeightSystem
from .poset import GradedPoset, _fresh_id
from .ratlinalg import IntVector

# the grammars' patterns; a rank or a drk is what int() reads, where str.isdigit() also passes "²"
_ENTRY, _RANK, _DRK = re.compile(r"[+-]?\d+"), re.compile(r"-?[0-9]+"), re.compile(r"[0-9]+")
_AMBIENT, _WEIGHT = re.compile(r"ambient_rank\s*:\s*(\d+)"), re.compile(r"w(\d+)\s*=\s*(\(.*\))")


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line.strip():
            yield lineno, line


def _parse_vector(token: str, lineno: int, column: int) -> IntVector:
    body = token.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise ParseError(f"expected a parenthesized vector, got {token!r}", lineno, column)
    inner = body[1:-1].strip()
    if not inner:
        raise ParseError("empty vector", lineno, column)
    entries = []
    for part in inner.split(","):
        part = part.strip()
        if not _ENTRY.fullmatch(part):
            raise ParseError(f"bad integer {part!r} in vector", lineno, column)
        entries.append(int(part))
    return tuple(entries)


def _weight(token: str, what: str, ambient: int, lineno: int, column: int) -> IntVector:
    """A nonzero vector of `ambient` entries; `what` names it in the messages."""
    vector = _parse_vector(token, lineno, column)
    if len(vector) != ambient:
        raise ParseError(f"{what} has {len(vector)} entries, expected {ambient}", lineno, column)
    if not any(vector):
        raise ParseError("zero weight forbidden", lineno, column)
    return vector


def _ambient_rank(line: str, lineno: int, given: int | None) -> int:
    """The rank an ambient_rank line declares; `given` is the one declared before, if any."""
    if given is not None:
        raise ParseError("ambient_rank given twice", lineno, 1)
    match = _AMBIENT.fullmatch(line.strip())
    if not match:
        raise ParseError("expected 'ambient_rank: <k>'", lineno, 1)
    rank = int(match.group(1))
    if rank < 1:
        raise ParseError("ambient_rank must be at least 1", lineno, 1)
    return rank


# ----------------------------------------------------------------------
# matroid files


def parse_matroid(text: str) -> WeightSystem:
    ambient = None
    weights: list[IntVector] = []
    for lineno, line in _lines(text):
        stripped = line.strip()
        if stripped.startswith("ambient_rank"):
            ambient = _ambient_rank(stripped, lineno, ambient)
            continue
        match = _WEIGHT.fullmatch(stripped)
        if not match:
            raise ParseError(f"expected 'w<i> = (…)', got {stripped!r}", lineno, 1)
        index = int(match.group(1))
        if index != len(weights) + 1:
            raise ParseError(f"expected weight w{len(weights) + 1}, got w{index}", lineno, 1)
        if ambient is None:
            raise ParseError("ambient_rank must come before the weights", lineno, 1)
        column = line.index("(") + 1
        weights.append(_weight(match.group(2), f"weight w{index}", ambient, lineno, column))
    if ambient is None:
        raise ParseError("missing ambient_rank", 1, 1)
    return WeightSystem(ambient, weights)


def format_matroid(ws: WeightSystem) -> str:
    out = [f"ambient_rank: {ws.ambient_rank}"]
    for i in ws.indices:
        out.append(f"w{i} = ({','.join(map(str, ws.weight(i)))})")
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# poset files


def parse_poset(text: str) -> GradedPoset:
    declared: dict[str, int] = {}  # element -> its line, in declaration order
    rank: dict[str, int] = {}
    drk: dict[str, int] = {}
    covers: list[tuple[str, str]] = []
    for lineno, line in _lines(text):
        tokens = line.split()
        if tokens[0] == "element":
            if len(tokens) not in (4, 6) or tokens[2] != "rank":
                raise ParseError("expected 'element <id> rank <r> [drk <d>]'", lineno, 1)
            name = tokens[1]
            if name in declared:
                raise ParseError(f"element {name!r} declared twice", lineno, 1)
            if not _RANK.fullmatch(tokens[3]):
                raise ParseError(f"bad rank {tokens[3]!r}", lineno, 1)
            declared[name] = lineno
            rank[name] = int(tokens[3])
            if len(tokens) == 6:
                if tokens[4] != "drk" or not _DRK.fullmatch(tokens[5]):
                    raise ParseError("expected 'drk <d>'", lineno, 1)
                drk[name] = int(tokens[5])
        elif tokens[0] == "cover":
            if len(tokens) != 4 or tokens[2] != "<":
                raise ParseError("expected 'cover <id> < <id>'", lineno, 1)
            low, high = tokens[1], tokens[3]
            for name in (low, high):
                if name not in rank:
                    raise ParseError(f"unknown element {name!r} in cover", lineno, 1)
            if low == high:
                raise ParseError(f"cover ({low!r}, {high!r}) is a self-loop", lineno, 1)
            covers.append((low, high))
        else:
            raise ParseError(f"unknown directive {tokens[0]!r}", lineno, 1)
    if not declared:
        raise ParseError("poset file declares no elements", 1, 1)
    if drk and set(drk) != set(declared):
        missing = next(e for e in declared if e not in drk)
        raise ParseError(f"drk given for some elements but not {missing!r}", declared[missing], 1)
    try:
        return GradedPoset(list(declared), covers, rank=rank, drk=drk or None)
    except ValueError as exc:
        raise ParseError(str(exc), 1, 1) from exc


_TOKEN = re.compile(r"[A-Za-z0-9_.:\-{},']+")


def _export_ids(p: GradedPoset) -> dict:
    """Stable printable identifiers for arbitrary element objects."""
    out = {}
    used = set()
    for pos, e in enumerate(p.elements):
        for candidate in (e if isinstance(e, str) else None, p.labels.get(e)):
            if isinstance(candidate, str) and _TOKEN.fullmatch(candidate) and candidate not in used:
                break
        else:  # n<pos>, primed past the names already given out
            candidate = _fresh_id(used, f"n{pos}")
        used.add(candidate)
        out[e] = candidate
    return out


def _export_view(p: GradedPoset) -> tuple[dict, dict | None, str, list[tuple[str, str]]]:
    """Export ids, stored else computed ranks (None and why, if ungradable), sorted id covers."""
    names = _export_ids(p)
    ranks, reason = p.rank, ""
    if ranks is None:
        level, _, reason = p._grading
        ranks = None if level is None else dict(zip(p.elements, level))
    ordered = sorted(p.covers, key=lambda c: (p._index[c[0]], p._index[c[1]]))
    return names, ranks, reason, [(names[low], names[high]) for low, high in ordered]


def format_poset(p: GradedPoset) -> str:
    names, ranks, reason, covers = _export_view(p)
    if ranks is None:
        raise GkmFacesError(f"cannot export an ungradable poset: {reason}")
    out = []
    for e in p.elements:
        line = f"element {names[e]} rank {ranks[e]}"
        if p.drk is not None:
            line += f" drk {p.drk[e]}"
        out.append(line)
    out.extend(f"cover {low} < {high}" for low, high in covers)
    return "\n".join(out) + "\n"


def poset_to_json(p: GradedPoset) -> dict:
    names, ranks, _, covers = _export_view(p)
    elements = []
    for e in p.elements:
        entry: dict = {"id": names[e]}
        if ranks is not None:
            entry["rank"] = ranks[e]
        if p.drk is not None:
            entry["drk"] = p.drk[e]
            if ranks is not None:
                entry["com"] = p.drk[e] - ranks[e]
        if e in p.labels and p.labels[e] != names[e]:
            entry["label"] = p.labels[e]
        elements.append(entry)
    return {"kind": "poset", "elements": elements, "covers": [list(c) for c in covers]}


def poset_to_dot(p: GradedPoset) -> str:
    """Hasse diagram with one layer per rank, lowest rank at the bottom."""
    names, ranks, _, covers = _export_view(p)
    out = ["digraph poset {", "  rankdir=BT;", "  node [shape=box];"]
    for e in p.elements:
        label = p.labels.get(e, names[e]).replace("\\", "\\\\").replace('"', '\\"')
        out.append(f'  "{names[e]}" [label="{label}"];')
    if ranks is not None:
        for level in sorted(set(ranks.values())):
            same = " ".join(f'"{names[e]}";' for e in p.elements if ranks[e] == level)
            out.append(f"  {{ rank=same; {same} }}")
    out.extend(f'  "{low}" -> "{high}";' for low, high in covers)
    out.append("}")
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# graph files


def parse_graph_with_connection(text: str) -> tuple[GkmGraph, Connection | None]:
    ambient = None
    signed = False
    vertices: dict[str, None] = {}  # declaration order
    edges: list[tuple[str, str, str]] = []
    axial: dict[str, IntVector] = {}
    connection_rows: list[tuple[int, str, str, str, str]] = []
    for lineno, line in _lines(text):
        tokens = line.split()
        if tokens[0].startswith("ambient_rank"):
            ambient = _ambient_rank(line.strip(), lineno, ambient)
        elif tokens[0] == "signed":
            if len(tokens) != 1:
                raise ParseError("'signed' takes no arguments", lineno, 1)
            signed = True
        elif tokens[0] == "vertex":
            if len(tokens) != 2:
                raise ParseError("expected 'vertex <id>'", lineno, 1)
            if tokens[1] in vertices:
                raise ParseError(f"vertex {tokens[1]!r} declared twice", lineno, 1)
            vertices[tokens[1]] = None
        elif tokens[0] == "edge":
            tokens = line.split(maxsplit=5)  # the vector is the rest of the line
            if len(tokens) != 6 or tokens[4] != "weight":
                raise ParseError("expected 'edge <id> <u> <v> weight (…)'", lineno, 1)
            name, u, v = tokens[1], tokens[2], tokens[3]
            if name in axial:
                raise ParseError(f"edge {name!r} declared twice", lineno, 1)
            for x in (u, v):
                if x not in vertices:
                    raise ParseError(f"unknown vertex {x!r}", lineno, 1)
            if u == v:
                raise ParseError(f"edge {name!r} is a loop", lineno, 1)
            if ambient is None:
                raise ParseError("ambient_rank must come before the edges", lineno, 1)
            column = line.index("(") + 1 if "(" in line else 1
            axial[name] = _weight(tokens[5], "edge weight", ambient, lineno, column)
            edges.append((name, u, v))
        elif tokens[0] == "connection":
            if len(tokens) != 8 or tokens[2] != "at" or tokens[4] != "->" or tokens[6] != "via":
                raise ParseError(
                    "expected 'connection <from> at <vertex> -> <to> via <edge>'", lineno, 1
                )
            connection_rows.append((lineno, tokens[1], tokens[3], tokens[5], tokens[7]))
        else:
            raise ParseError(f"unknown directive {tokens[0]!r}", lineno, 1)
    if ambient is None:
        raise ParseError("missing ambient_rank", 1, 1)
    if not vertices:
        raise ParseError("graph file declares no vertices", 1, 1)
    try:
        graph = GkmGraph(ambient, vertices, edges, axial, signed=signed)
    except ValueError as exc:
        raise ParseError(str(exc), 1, 1) from exc
    return graph, _assemble_connection(graph, connection_rows) if connection_rows else None


def _assemble_connection(graph: GkmGraph, rows) -> Connection:
    maps: dict[tuple[str, str], dict[str, str]] = {}
    first_row: dict[tuple[str, str], int] = {}  # the line of each (via, vertex) pair's first row
    known = set(graph.vertices)
    for lineno, source, vertex, target, via in rows:
        for name in (source, via, target):
            if name not in graph.axial:
                raise ParseError(f"unknown edge {name!r} in connection", lineno, 1)
        if vertex not in known:
            raise ParseError(f"unknown vertex {vertex!r} in connection", lineno, 1)
        via_edge = graph.edge(via)
        if vertex not in (via_edge.u, via_edge.v):
            raise ParseError(f"vertex {vertex!r} is not an endpoint of {via!r}", lineno, 1)
        head = via_edge.other(vertex)
        if source not in graph.star(vertex):
            raise ParseError(f"edge {source!r} is not at vertex {vertex!r}", lineno, 1)
        if target not in graph.star(head):
            raise ParseError(f"edge {target!r} is not at vertex {head!r}", lineno, 1)
        entry = maps.setdefault((via, vertex), {via: via})
        first_row.setdefault((via, vertex), lineno)
        if source in entry and entry[source] != target:
            raise ParseError(f"conflicting images for {source!r} across {via!r}", lineno, 1)
        entry[source] = target
    for (via, vertex), mapping in sorted(maps.items()):
        missing = [f for f in graph.star(vertex) if f not in mapping]
        if missing:
            raise ParseError(
                f"connection along {via!r} out of {vertex!r} misses edge {missing[0]!r}",
                first_row[via, vertex],
                1,
            )
    for edge in graph.edges:
        for tail in (edge.u, edge.v):
            if (edge.name, tail) not in maps:
                raise ParseError(
                    f"no connection rows along {edge.name!r} out of {tail!r}", 1, 1
                )
    return Connection(maps)


def format_graph(graph: GkmGraph, theta: Connection | None = None) -> str:
    out = [f"ambient_rank: {graph.ambient_rank}"]
    if graph.signed:
        out.append("signed")
    for x in graph.vertices:
        out.append(f"vertex {x}")
    for e in graph.edges:
        weight = ",".join(map(str, graph.alpha(e.name)))
        out.append(f"edge {e.name} {e.u} {e.v} weight ({weight})")
    if theta is not None:
        for e in graph.edges:
            for tail in (e.u, e.v):
                mapping = theta.maps[(e.name, tail)]
                star = graph.star(tail)
                for source in star:
                    if source == e.name and len(star) > 1:  # implicit, unless it is all there is
                        continue
                    out.append(
                        f"connection {source} at {tail} -> {mapping[source]} via {e.name}"
                    )
    return "\n".join(out) + "\n"


def dump_json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
