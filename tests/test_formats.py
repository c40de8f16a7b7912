import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmfaces.errors import GkmFacesError, ParseError
from gkmfaces.formats import (
    dump_json,
    format_graph,
    format_matroid,
    format_poset,
    parse_graph_with_connection,
    parse_matroid,
    parse_poset,
    poset_to_dot,
    poset_to_json,
)
from gkmfaces.gkm import validate_graph
from gkmfaces.matroid import flats_lattice
from gkmfaces.poset import GradedPoset, compactify

from helpers import BASIS2, UNIFORM23, corpus_text


def test_parse_matroid_basic():
    ws = parse_matroid("ambient_rank: 2\nw1 = (1,0)\nw2 = (0,1)\n")
    assert ws == BASIS2


def test_parse_matroid_comments_and_spacing():
    ws = parse_matroid("# hi\nambient_rank: 2\n\nw1 = ( 1 , 0 )  # inline\nw2 = (0,1)\n")
    assert ws == BASIS2
    assert parse_matroid("ambient_rank : 2\nw1=( +1 , -2 )\n").weights == ((1, -2),)


def test_parse_matroid_zero_weight():
    with pytest.raises(ParseError) as err:
        parse_matroid("ambient_rank: 2\nw1 = (0,0)\n")
    assert "zero weight forbidden" in str(err.value)
    assert err.value.line == 2


def test_parse_matroid_wrong_index():
    with pytest.raises(ParseError) as err:
        parse_matroid("ambient_rank: 2\nw2 = (1,0)\n")
    assert "expected weight w1" in str(err.value)


def test_parse_matroid_bad_arity():
    with pytest.raises(ParseError):
        parse_matroid("ambient_rank: 2\nw1 = (1,0,0)\n")


def test_parse_rank_zero():
    for parse, text in (
        (parse_matroid, "ambient_rank: 0\n"),
        (parse_graph_with_connection, "ambient_rank: 0\nvertex a\n"),
    ):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert "ambient_rank must be at least 1" in str(err.value)
        assert err.value.line == 1


def test_parse_matroid_missing_rank():
    with pytest.raises(ParseError):
        parse_matroid("w1 = (1,0)\n")


def test_matroid_round_trip():
    for name in ("b2.wt", "u23.wt", "coll.wt"):
        ws = parse_matroid(corpus_text(name))
        again = parse_matroid(format_matroid(ws))
        assert again == ws
        assert format_matroid(again) == format_matroid(ws)


def test_parse_poset_glued():
    p = parse_poset(corpus_text("glued.poset"))
    assert len(p.elements) == 8
    assert p.rank["top"] == 2


def test_parse_poset_drk():
    p = parse_poset("element a rank 0 drk 1\nelement b rank 1 drk 2\ncover a < b\n")
    assert p.drk == {"a": 1, "b": 2}


def test_parse_poset_partial_drk_rejected():
    with pytest.raises(ParseError):
        parse_poset("element a rank 0 drk 1\nelement b rank 1\ncover a < b\n")


def test_parse_poset_unknown_cover():
    with pytest.raises(ParseError) as err:
        parse_poset("element a rank 0\ncover a < b\n")
    assert err.value.line == 2


def test_parse_poset_duplicate_element():
    with pytest.raises(ParseError):
        parse_poset("element a rank 0\nelement a rank 1\n")


def test_poset_round_trip():
    p = parse_poset(corpus_text("glued.poset"))
    text = format_poset(p)
    again = parse_poset(text)
    assert again == p
    assert format_poset(again) == text


def test_format_poset_of_flats_uses_brace_labels():
    text = format_poset(flats_lattice(UNIFORM23))
    assert "element {} rank 0 drk 0" in text
    assert "element {1,2,3} rank 2 drk 3" in text
    parsed = parse_poset(text)
    assert len(parsed.elements) == 5


def test_poset_json_stable_shape():
    data = poset_to_json(parse_poset(corpus_text("glued.poset")))
    assert data["kind"] == "poset"
    assert [e["id"] for e in data["elements"]][:2] == ["l0", "l1"]
    assert ["l0", "l1"] in data["covers"]


def test_poset_dot_layers():
    dot = poset_to_dot(flats_lattice(BASIS2))
    assert dot.startswith("digraph poset {")
    assert "rank=same" in dot
    assert '"{1}" -> "{1,2}";' in dot


def test_exports_do_not_depend_on_the_declared_cover_order():
    rng = random.Random(3)
    for p in (flats_lattice(UNIFORM23), parse_poset(corpus_text("glued.poset"))):
        covers = list(p.covers)
        rng.shuffle(covers)
        assert covers != list(p.covers)
        q = GradedPoset(p.elements, covers, rank=p.rank, drk=p.drk, labels=p.labels)
        assert format_poset(q) == format_poset(p)
        assert dump_json(poset_to_json(q)) == dump_json(poset_to_json(p))
        assert poset_to_dot(q) == poset_to_dot(p)


def test_format_poset_refuses_an_unlabelled_poset_without_a_grading():
    # the pentagon: chains of lengths 2 and 3 from bottom to top
    pentagon = GradedPoset(
        ["0", "a", "b", "c", "1"], [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")]
    )
    with pytest.raises(GkmFacesError, match="^cannot export an ungradable poset: "):
        format_poset(pentagon)


def test_compactify_exports_one_id_per_element():
    """`a"b` is no token, so it gets a fallback id, which must not be the name `n1` taken."""
    p = parse_poset(
        'element n1 rank 0\nelement a"b rank 1\nelement c rank 1\nelement t rank 2\n'
        'cover n1 < a"b\ncover n1 < c\ncover a"b < t\ncover c < t\n'
    )
    text = format_poset(compactify(p))
    assert "element n1 rank 0\nelement n1' rank 1\n" in text
    assert len(parse_poset(text).elements) == 5


# names that are no token (quotes, backslashes, spaces) beside names an `n<pos>` id could take
TRICKY_NAMES = st.sampled_from(['"', "\\", 'a"b', "c\\d", "x y", "n0", "n1", "n2", "n0'", "b"])


@st.composite
def tricky_posets(draw):
    """Graded posets on tricky names: every element above rank 0 covers one a rank below."""
    names = draw(st.lists(TRICKY_NAMES, min_size=1, max_size=8, unique=True))
    ranks = [0]
    for _ in names[1:]:
        ranks.append(ranks[-1] + draw(st.integers(0, 1)))
    covers = set()
    for j, rank in enumerate(ranks):
        below = [i for i, r in enumerate(ranks) if r == rank - 1]
        if below:
            lower = draw(st.sets(st.sampled_from(below), min_size=1))
            covers.update((names[i], names[j]) for i in lower)
    order = draw(st.permutations(names))
    labels = {e: f"L:{e}" for e in names} if draw(st.booleans()) else None  # as `poset glue` does
    return GradedPoset(order, sorted(covers), labels=labels)


# a DOT quoted string: each character is neither quote nor backslash, or is escaped by a backslash
QUOTED = re.compile(r'"((?:[^"\\]|\\.)*)"')


@settings(derandomize=True, max_examples=300, deadline=None)
@given(tricky_posets())
def test_exports_of_tricky_names_stay_well_formed(p):
    again = parse_poset(format_poset(p))
    assert (len(again.elements), len(again.covers)) == (len(p.elements), len(p.covers))
    ids = [entry["id"] for entry in poset_to_json(p)["elements"]]
    assert len(set(ids)) == len(ids)
    dot = poset_to_dot(p).splitlines()
    for line in dot:
        rest = QUOTED.sub("", line)
        assert '"' not in rest and "\\" not in rest
    node_lines = [line for line in dot if "[label=" in line]
    labels = [re.sub(r"\\(.)", r"\1", QUOTED.findall(line)[1]) for line in node_lines]
    assert labels == [p.labels.get(e, i) for e, i in zip(p.elements, ids)]


def test_parse_graph_simple():
    g, _ = parse_graph_with_connection(corpus_text("cp2.gkm"))
    assert validate_graph(g).ok
    assert g.alpha("bc") == (-1, 1)


def test_parse_graph_edge_vectors_may_hold_spaces():
    text = corpus_text("cp2.gkm")
    spaced = text.replace(",", " , ").replace("(", "( ").replace(")", " )")
    assert "weight ( 1 , 0 )" in spaced
    assert parse_graph_with_connection(spaced) == parse_graph_with_connection(text)


def test_parse_graph_unknown_vertex():
    text = "ambient_rank: 1\nvertex a\nedge e a b weight (1)\n"
    with pytest.raises(ParseError) as err:
        parse_graph_with_connection(text)
    assert err.value.line == 3


def test_parse_graph_zero_weight():
    text = "ambient_rank: 2\nvertex a\nvertex b\nedge e a b weight (0,0)\n"
    with pytest.raises(ParseError) as err:
        parse_graph_with_connection(text)
    assert "zero weight forbidden" in str(err.value)


def test_parse_graph_signed_header():
    text = "ambient_rank: 1\nsigned\nvertex a\nvertex b\nedge e a b weight (1)\n"
    g, _ = parse_graph_with_connection(text)
    assert g.signed
    assert g.alpha_from("e", "a") == (1,)
    assert g.alpha_from("e", "b") == (-1,)


def test_parse_graph_connection_table():
    g, theta = parse_graph_with_connection(corpus_text("g6.gkm"))
    assert theta is not None
    assert theta.maps[("e123_132", "123")]["e123_132"] == "e123_132"  # implicit
    assert len(theta.maps) == 18


def test_parse_graph_incomplete_connection():
    text = corpus_text("g6.gkm")
    lines = [l for l in text.splitlines() if l.startswith("connection")]
    partial = text.replace(lines[-1] + "\n", "")
    with pytest.raises(ParseError):
        parse_graph_with_connection(partial)


def test_graph_round_trip_with_connection():
    g, theta = parse_graph_with_connection(corpus_text("g6.gkm"))
    text = format_graph(g, theta)
    g2, theta2 = parse_graph_with_connection(text)
    assert g2 == g
    assert theta2 == theta
    assert format_graph(g2, theta2) == text


def test_graph_round_trip_plain():
    for name in ("s2.gkm", "cp2.gkm", "square.gkm"):
        g, _ = parse_graph_with_connection(corpus_text(name))
        assert parse_graph_with_connection(format_graph(g)) == (g, None)


# ----------------------------------------------------------------------
# every error path of the parsers, with its exact message and position

EDGE_AB = "ambient_rank: 2\nvertex a\nvertex b\n"
SQUARE = (
    "ambient_rank: 2\nvertex v00\nvertex v10\nvertex v01\nvertex v11\n"
    "edge b v00 v10 weight (1,0)\nedge t v01 v11 weight (1,0)\n"
    "edge l v00 v01 weight (0,1)\nedge r v10 v11 weight (0,1)\n"
)  # nine lines: the first connection row is line 10


def _g6_without_its_last_connection_row():
    text = corpus_text("g6.gkm")
    last = [line for line in text.splitlines() if line.startswith("connection")][-1]
    return text.replace(last + "\n", "")


PARSE_ERRORS = [
    # vectors
    (parse_matroid, "ambient_rank: 2\nw1 = ()\n", "empty vector", 2, 6),
    (parse_matroid, "ambient_rank: 2\nw1 = (1,x)\n", "bad integer 'x' in vector", 2, 6),
    (parse_matroid, "ambient_rank: 2\nw1 = (1,,2)\n", "bad integer '' in vector", 2, 6),
    (parse_graph_with_connection, EDGE_AB + "edge e a b weight 1,0\n",
     "expected a parenthesized vector, got '1,0'", 4, 1),
    # weight files
    (parse_matroid, "ambient_rank: 2\nambient_rank: 2\n", "ambient_rank given twice", 2, 1),
    (parse_matroid, "ambient_rank: two\n", "expected 'ambient_rank: <k>'", 1, 1),
    (parse_matroid, "ambient_rank: 2\nv1 = (1,0)\n", "expected 'w<i> = (…)', got 'v1 = (1,0)'", 2, 1),
    (parse_graph_with_connection, "ambient_rank 2\nvertex a\n",
     "expected 'ambient_rank: <k>'", 1, 1),
    # poset files
    (parse_poset, "element a\n", "expected 'element <id> rank <r> [drk <d>]'", 1, 1),
    (parse_poset, "element a rank 0\nelement b rank 1\ncover a < b\ncover b < a\n",
     "covers contain a cycle", 1, 1),
    (parse_poset, "element a rank 0\ncover a < a\n", "cover ('a', 'a') is a self-loop", 2, 1),
    (parse_poset, "element a rank 0 drk 0\nelement b rank 1\nelement c rank 2 drk 1\n",
     "drk given for some elements but not 'b'", 2, 1),
    # graph files
    (parse_graph_with_connection, "ambient_rank: 2\nsigned yes\n",
     "'signed' takes no arguments", 2, 1),
    (parse_graph_with_connection, EDGE_AB + "vertex\n", "expected 'vertex <id>'", 4, 1),
    (parse_graph_with_connection, EDGE_AB + "vertex a\n", "vertex 'a' declared twice", 4, 1),
    (parse_graph_with_connection, EDGE_AB + "edge e a b (1,0)\n",
     "expected 'edge <id> <u> <v> weight (…)'", 4, 1),
    (parse_graph_with_connection, EDGE_AB + "edge e a b weight (1,0)\nedge e a b weight (0,1)\n",
     "edge 'e' declared twice", 5, 1),
    (parse_graph_with_connection, "vertex a\nvertex b\nedge e a b weight (1,0)\nambient_rank: 2\n",
     "ambient_rank must come before the edges", 3, 1),
    (parse_graph_with_connection, EDGE_AB + "edge e a b weight (1,0,1)\n",
     "edge weight has 3 entries, expected 2", 4, 19),
    (parse_graph_with_connection, EDGE_AB + "edge e a b weight ( 1 , 0 , 1 )\n",
     "edge weight has 3 entries, expected 2", 4, 19),
    (parse_graph_with_connection, EDGE_AB + "edge e a b weight (0,0)\n",
     "zero weight forbidden", 4, 19),
    (parse_graph_with_connection, EDGE_AB + "edge e a a weight (1,0)\n",
     "edge 'e' is a loop", 4, 1),
    # connection rows
    (parse_graph_with_connection, SQUARE + "connection x at v00 -> r via b\n",
     "unknown edge 'x' in connection", 10, 1),
    (parse_graph_with_connection, SQUARE + "connection l at zz -> r via b\n",
     "unknown vertex 'zz' in connection", 10, 1),
    (parse_graph_with_connection, SQUARE + "connection l at v01 -> r via b\n",
     "vertex 'v01' is not an endpoint of 'b'", 10, 1),
    (parse_graph_with_connection, SQUARE + "connection t at v00 -> r via b\n",
     "edge 't' is not at vertex 'v00'", 10, 1),
    (parse_graph_with_connection, SQUARE + "connection l at v00 -> t via b\n",
     "edge 't' is not at vertex 'v10'", 10, 1),
    (parse_graph_with_connection,
     SQUARE + "connection l at v00 -> r via b\nconnection l at v00 -> b via b\n",
     "conflicting images for 'l' across 'b'", 11, 1),
    (parse_graph_with_connection, _g6_without_its_last_connection_row(),
     "connection along 'e312_321' out of '321' misses edge 'e231_321'", 62, 1),
    (parse_graph_with_connection,
     SQUARE + "connection l at v00 -> r via b\nconnection r at v10 -> l via b\n",
     "no connection rows along 't' out of 'v01'", 1, 1),
]


@pytest.mark.parametrize("parse, text, message, line, column", PARSE_ERRORS)
def test_parse_error_message_and_position(parse, text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == f"line {line}, column {column}: {message}"
    assert (err.value.line, err.value.column) == (line, column)
