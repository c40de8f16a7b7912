"""Property tests on the file formats, the CLI and the flats lattice.

Each format's writer and parser are inverse on random inputs: weight
systems, posets with stored ranks and optional drk labels, and graphs
with and without a connection.  Random line-structured text, made of
the grammars' own tokens, makes each parser either return or raise
`ParseError`, never anything else.  The CLI, run on files written from
the same random inputs, exits 0, 1 or 2 and writes to stderr only the
message of a `GkmFacesError`.  On flats lattices of random weight
systems the Möbius function alternates in sign by rank (Rota's sign
theorem for geometric lattices).
"""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from gkmfaces import cli
from gkmfaces.errors import ParseError
from gkmfaces.formats import (
    format_graph,
    format_matroid,
    format_poset,
    parse_graph_with_connection,
    parse_matroid,
    parse_poset,
)
from gkmfaces.gkm import Connection, GkmGraph
from gkmfaces.matroid import WeightSystem, flats_lattice
from gkmfaces.poset import GradedPoset, mobius

# identifiers the exporters write back unchanged
IDS = st.text("abcxyz0123_.:-{},'", min_size=1, max_size=4)


def vectors(k):
    return st.tuples(*[st.integers(-3, 3)] * k).filter(any)


@st.composite
def weight_systems(draw, max_n=7):
    k = draw(st.integers(1, 4))
    return WeightSystem(k, draw(st.lists(vectors(k), min_size=1, max_size=max_n)))


@st.composite
def ranked_posets(draw):
    """Up to eight named elements, random upward covers, stored ranks and maybe drk."""
    names = draw(st.lists(IDS, min_size=1, max_size=8, unique=True))
    n = len(names)
    hidden = draw(st.permutations(range(n)))
    pairs = [(names[hidden[a]], names[hidden[b]]) for a in range(n) for b in range(a + 1, n)]
    covers = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=16)) if pairs else []
    rank = {e: draw(st.integers(-2, 5)) for e in names}
    drk = {e: draw(st.integers(0, 6)) for e in names} if draw(st.booleans()) else None
    return GradedPoset(names, covers, rank=rank, drk=drk)


@st.composite
def graphs(draw, with_connection):
    """A multigraph on named vertices; with a connection, at least one edge.

    Vertices of degree 0 and 1 occur, so a star may hold only the edge
    that the map runs along.  The connection sends each other edge at
    the tail to any edge at the head, other than the one it runs along
    when there is one: the parser checks only that the rows name edges
    at the right vertices, not the connection axioms.
    """
    k = draw(st.integers(1, 3))
    vertices = draw(st.lists(IDS, min_size=2 if with_connection else 1, max_size=5, unique=True))
    n = len(vertices)
    ends = []
    if n > 1:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
        ends += draw(st.lists(pair, min_size=int(with_connection), max_size=6))
    names = [f"e{i}" for i in range(len(ends))]
    g = GkmGraph(
        k,
        vertices,
        [(name, vertices[a], vertices[b]) for name, (a, b) in zip(names, ends)],
        {name: draw(vectors(k)) for name in names},
        signed=draw(st.booleans()),
    )
    if not with_connection:
        return g, None
    maps = {}
    for e in g.edges:
        for tail in (e.u, e.v):
            head = [f for f in g.star(e.other(tail)) if f != e.name] or [e.name]
            maps[(e.name, tail)] = {
                f: e.name if f == e.name else draw(st.sampled_from(head)) for f in g.star(tail)
            }
    return g, Connection(maps)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(weight_systems())
def test_matroid_files_round_trip(ws):
    assert parse_matroid(format_matroid(ws)) == ws


@settings(derandomize=True, max_examples=150, deadline=None)
@given(ranked_posets())
def test_poset_files_round_trip(p):
    text = format_poset(p)
    q = parse_poset(text)
    assert q == p and q.elements == p.elements
    assert format_poset(q) == text


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.booleans().flatmap(graphs))
def test_graph_files_round_trip(case):
    g, theta = case
    assert parse_graph_with_connection(format_graph(g, theta)) == (g, theta)


# per file kind: its contents, and the commands run on it
COMMANDS = {
    "wt": (
        weight_systems().map(format_matroid),
        [["matroid", "flats", "--json"], ["matroid", "check"], ["matroid", "wedge"]],
    ),
    "poset": (
        ranked_posets().map(format_poset),
        [
            ["poset", "check", "--gkm-coherent"],
            ["poset", "compactify", "--dot"],
            ["poset", "projectivize"],
            ["poset", "homology"],
            ["poset", "homology", "--proper", "--json"],
        ],
    ),
    "gkm": (
        st.booleans().flatmap(graphs).map(lambda case: format_graph(*case)),
        [
            ["gkm", "validate"],
            ["gkm", "faces", "--json"],
            ["gkm", "tg-faces"],
            ["gkm", "connection"],
            ["gkm", "reconstruct", "--verify-galois"],
            ["gkm", "reconstruct", "--mode", "tg", "--dot"],
        ],
    ),
}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(sorted(COMMANDS)), st.data())
def test_cli_on_generated_files_exits_0_1_or_2(tmp_path_factory, kind, data):
    contents, commands = COMMANDS[kind]
    path = tmp_path_factory.getbasetemp() / f"generated.{kind}"
    path.write_text(data.draw(contents))
    command = data.draw(st.sampled_from(commands))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main([*command[:2], str(path), *command[2:]])
    assert code in (0, 1, 2)
    assert err.getvalue() == "" or (code != 0 and err.getvalue().startswith("error: "))


WORDS = (
    "ambient_rank:", "ambient_rank", ":", "-1", "0", "1", "2", "w1", "w2", "=", "(1,0)",
    "(0,1)", "(1,1)", "(0,0)", "(1,0,0)", "()", "(1,", "(a)", "element", "rank", "drk",
    "cover", "<", "a", "b", "vertex", "edge", "weight", "connection", "at", "->", "via",
    "signed", "#",
)
NAME = st.sampled_from(("a", "b", "c", "e0", "e1"))
NUMBER = st.sampled_from(("-1", "0", "1", "2", "x", "--1", "²"))
VECTOR = st.sampled_from(("(1,0)", "(0,1)", "(1,1)", "(-1,2)", "(0,0)", "(1,0,0)", "(1,"))
# per parser: a header, and its directives with random arguments
GRAMMARS = {
    "matroid": (
        parse_matroid,
        "ambient_rank: 2",
        [st.builds("w{} = {}".format, st.sampled_from(("1", "2", "3")), VECTOR)],
    ),
    "poset": (
        parse_poset,
        "element a rank 0",
        [
            st.builds("element {} rank {}".format, NAME, NUMBER),
            st.builds("element {} rank {} drk {}".format, NAME, NUMBER, NUMBER),
            st.builds("cover {} < {}".format, NAME, NAME),
        ],
    ),
    "graph": (
        parse_graph_with_connection,
        "ambient_rank: 2\nsigned",
        [
            st.builds("vertex {}".format, NAME),
            st.builds("edge {} {} {} weight {}".format, NAME, NAME, NAME, VECTOR),
            st.builds("connection {} at {} -> {} via {}".format, NAME, NAME, NAME, NAME),
        ],
    ),
}
WORD_LINES = st.lists(st.sampled_from(WORDS), max_size=8).map(" ".join)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.sampled_from(sorted(GRAMMARS)), st.booleans(), st.data())
def test_parsers_raise_only_parse_errors(kind, with_header, data):
    parse, header, directives = GRAMMARS[kind]
    lines = data.draw(st.lists(st.one_of(*directives, WORD_LINES), max_size=10))
    try:
        parse("\n".join([header, *lines] if with_header else lines))
    except ParseError:
        pass


@settings(derandomize=True, max_examples=100, deadline=None)
@given(weight_systems())
def test_mobius_signs_alternate_by_rank(ws):
    lattice = flats_lattice(ws)
    bottom = lattice.bottom()
    for t in lattice.elements:
        assert (-1) ** lattice.rank[t] * mobius(lattice, bottom, t) > 0
