"""The order core of `poset` against the pairwise scans in `tests/oracles.py`.

`_cover_pairs` takes the covers within a mask as the minimal elements of
each strict up-set, and `_minimal` keeps the elements of a mask with
nothing of it strictly below.  `hasse_covers`, `induced`, the face
posets and the Galois check all read covers through them.  They are
compared, pair for pair and in order, with the scan for an element
strictly between and the scan for an element strictly below, on posets
from random acyclic covers (transitively redundant ones among them) and
on random masks.

A poset built from covers as index pairs (`GradedPoset._from_positions`,
as the flats lattices, the face posets and the poset parser build them)
is the poset `GradedPoset` builds from the same covers by name: the same
covers in the same order, order masks (also checked against networkx
reachability), extremal elements, grading, verdicts and exports.  A
cycle raises on both paths, at a cover that lies on it.  So is a face
poset built from its containment masks (`GradedPoset._from_up_sets`, for
`enumerate_faces`, `enumerate_tg_faces` and the reconstruction's
survivors in both modes), whose covers are derived from the masks in
the order their ids sort, on scrambled graphs and the corpus.
"""

from functools import cache

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gkmfaces.errors import ConnectionNotCanonical, GkmFacesError
from gkmfaces.formats import dump_json, format_poset, poset_to_json
from gkmfaces.gkm import (
    DEFAULT_CAP,
    _containers,
    _face_poset,
    _face_positions,
    enumerate_faces,
    enumerate_tg_faces,
)
from gkmfaces.matroid import flats_lattice
from gkmfaces.poset import (
    GradedPoset,
    _cover_pairs,
    _CoverCycle,
    _minimal,
    is_geometric_lattice,
    is_graded,
    is_locally_geometric,
)
from gkmfaces.reconstruct import reconstruct_face_poset

from helpers import (
    GKM_CORPUS,
    corpus_graph,
    cp2_graph,
    graph_product,
    hypercube_graph,
    sphere_graph,
    weight_corpus,
)
from oracles import cover_pairs_oracle, minimal_oracle
from test_face_masks import graphs as scrambled_face_graphs


@st.composite
def cover_dags(draw, max_n=10):
    """A poset on up to max_n elements and a mask of them.

    The covers are random upward pairs of a hidden linear order, so some
    are transitively redundant, and element order is not that order.
    """
    n = draw(st.integers(1, max_n))
    hidden = draw(st.permutations(range(n)))
    pairs = [(hidden[a], hidden[b]) for a in range(n) for b in range(a + 1, n)]
    covers = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=24)) if pairs else []
    return GradedPoset(range(n), covers), draw(st.integers(0, (1 << n) - 1))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(cover_dags())
def test_hasse_covers_match_the_between_scan(case):
    p, _ = case  # element i is the integer i
    everything = (1 << len(p.elements)) - 1
    assert p.hasse_covers() == cover_pairs_oracle(p._up, everything)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(cover_dags())
def test_induced_covers_match_the_between_scan(case):
    p, mask = case
    keep = [e for e in p.elements if mask >> e & 1]
    if keep:
        assert list(p.induced(keep).covers) == cover_pairs_oracle(p._up, mask)
    assert _cover_pairs(p._up, mask) == cover_pairs_oracle(p._up, mask)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(cover_dags())
def test_minimal_matches_the_below_scan(case):
    p, mask = case
    assert _minimal(p._up, mask) == minimal_oracle(p._up, mask)


GRAPHS = {
    "q3": hypercube_graph(3),
    "cp2xs2": graph_product(cp2_graph(), sphere_graph()),
    "fl3": corpus_graph("g6.gkm")[0],
}


@cache
def _faces(name):
    return _face_positions(GRAPHS[name], DEFAULT_CAP)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.data())
def test_face_poset_covers_match_the_between_scan(data):
    name = data.draw(st.sampled_from(sorted(GRAPHS)))
    g, faces = GRAPHS[name], _faces(name)
    mask = data.draw(st.integers(1, (1 << len(faces)) - 1))
    chosen = [h for i, h in enumerate(faces) if mask >> i & 1]
    p = _face_poset(g, chosen)
    pairs = cover_pairs_oracle(_containers(g, chosen), (1 << len(chosen)) - 1)
    assert list(p.covers) == sorted((p.elements[i], p.elements[j]) for i, j in pairs)


# ----------------------------------------------------------------------
# building from positions


def _exported(p):
    """The .poset text, or why there is none, and the JSON export."""
    try:
        text = format_poset(p)
    except GkmFacesError as exc:
        text = str(exc)
    return text, dump_json(poset_to_json(p))


def assert_same_poset(q, p):
    """q, built from positions, is p, built from names; their masks are networkx reachability."""
    assert (q.elements, q.covers, q._pairs) == (p.elements, p.covers, p._pairs)
    assert (q.rank, q.drk, q.labels, q.payload) == (p.rank, p.drk, p.labels, p.payload)
    assert (q._minima, q._maxima) == (p._minima, p._maxima)
    assert q._grading == p._grading
    for predicate in (is_graded, is_geometric_lattice, is_locally_geometric):
        assert predicate(q) == predicate(p)
    assert _exported(q) == _exported(p)
    reach = nx.DiGraph(q._pairs)
    reach.add_nodes_from(range(len(q.elements)))
    up = [sum(1 << j for j in nx.descendants(reach, i) | {i}) for i in range(len(q.elements))]
    down = [sum(1 << j for j in nx.ancestors(reach, i) | {i}) for i in range(len(q.elements))]
    assert (q._up, q._down) == (p._up, p._down) == (up, down)


def by_names(q):
    """The poset `GradedPoset` builds from q's elements, covers and labellings."""
    return GradedPoset(
        q.elements, q.covers, rank=q.rank, drk=q.drk, payload=q.payload, labels=q.labels
    )


@st.composite
def graded_cover_lists(draw):
    """(names, pairs, rank, drk): up to four levels, each element above 0 covering some below it.

    The elements are declared level by level, so every pair ascends, or
    in shuffled order; the covers are listed in shuffled order; stored
    ranks (the levels, or one of them moved) and drk labels are optional.
    """
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    level = [r for r, size in enumerate(sizes) for _ in range(size)]
    n = len(level)
    covers = []
    for j in range(n):
        below = [i for i in range(n) if level[i] == level[j] - 1]
        if below:
            lower = draw(st.lists(st.sampled_from(below), min_size=1, unique=True))
            covers += [(i, j) for i in lower]
    order = range(n) if draw(st.booleans()) else draw(st.permutations(range(n)))
    at = {e: k for k, e in enumerate(order)}
    pairs = [(at[i], at[j]) for i, j in draw(st.permutations(covers))]
    names = [f"v{e}" for e in order]
    rank = drk = None
    if draw(st.booleans()):
        rank = {f"v{e}": level[e] for e in order}
        if draw(st.booleans()):
            rank[draw(st.sampled_from(names))] += 1
    if draw(st.booleans()):
        drk = {name: draw(st.integers(0, 4)) for name in names}
    return names, pairs, rank, drk


@settings(derandomize=True, max_examples=200, deadline=None)
@given(graded_cover_lists())
def test_positions_build_the_poset_names_build(case):
    names, pairs, rank, drk = case
    q = GradedPoset._from_positions(names, pairs, rank=rank, drk=drk)
    assert_same_poset(q, by_names(q))
    assert q.covers == tuple((names[i], names[j]) for i, j in pairs)


@pytest.mark.parametrize("seed", range(3))
def test_flats_lattices_from_positions_are_those_from_names(seed):
    for ws in weight_corpus(seed=seed, count=15, max_n=6):
        q = flats_lattice(ws)
        assert_same_poset(q, by_names(q))


# the face posets built from containment masks, on a graph and its connection
UP_SET_POSETS = {
    "faces": lambda g, theta: enumerate_faces(g),
    "tg-faces": lambda g, theta: enumerate_tg_faces(g, theta),
    "survivors": lambda g, theta: reconstruct_face_poset(g, "faces").faces,
    "tg-survivors": lambda g, theta: reconstruct_face_poset(g, "tg", connection=theta).faces,
}


def assert_up_sets_build_the_poset_names_build(q):
    assert q._pair_list is None and q._down_masks is None  # nothing derived at construction
    assert_same_poset(q, by_names(q))
    assert list(q.covers) == sorted(q.covers)  # as the ids sort


@pytest.mark.parametrize("kind", sorted(UP_SET_POSETS))
@pytest.mark.parametrize("name", GKM_CORPUS)
def test_face_posets_from_up_sets_are_those_from_names(name, kind):
    assert_up_sets_build_the_poset_names_build(UP_SET_POSETS[kind](*corpus_graph(name)))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(scrambled_face_graphs, st.sampled_from(sorted(UP_SET_POSETS)))
def test_face_posets_from_up_sets_on_scrambled_graphs(g, kind):
    try:
        q = UP_SET_POSETS[kind](g, None)
    except ConnectionNotCanonical:  # Fl(3) and Gr(2,4) without their file connections
        assume(False)
    assert_up_sets_build_the_poset_names_build(q)


def test_up_sets_must_hold_their_element():
    with pytest.raises(ValueError, match="each element's up-set must hold it"):
        GradedPoset._from_up_sets(["a", "b"], [0b11, 0b01])
    with pytest.raises(ValueError, match="each element's up-set must hold it"):
        GradedPoset._from_up_sets(["a", "b"], [0b11])
    with pytest.raises(ValueError, match="rank labelling must cover exactly the elements"):
        GradedPoset._from_up_sets(["a", "b"], [0b11, 0b10], rank={"a": 0})


@st.composite
def cyclic_cover_lists(draw):
    """(n, pairs): random upward pairs of a hidden order and some closing cycles, shuffled."""
    n = draw(st.integers(2, 8))
    hidden = draw(st.permutations(range(n)))
    up = [(hidden[a], hidden[b]) for a in range(n) for b in range(a + 1, n)]
    pairs = draw(st.lists(st.sampled_from(up), min_size=1, unique=True, max_size=12))
    reach = nx.transitive_closure_dag(nx.DiGraph(pairs))
    back = st.sampled_from(sorted((j, i) for i, j in reach.edges))
    return n, draw(st.permutations(pairs + draw(st.lists(back, min_size=1, unique=True))))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(cyclic_cover_lists())
def test_a_cycle_raises_on_both_paths_at_a_cover_on_it(case):
    n, pairs = case
    names = [f"v{i}" for i in range(n)]
    with pytest.raises(ValueError, match="covers contain a cycle"):
        GradedPoset(names, [(names[i], names[j]) for i, j in pairs])
    with pytest.raises(_CoverCycle) as raised:
        GradedPoset._from_positions(names, pairs)
    low, high = pairs[raised.value.at]
    assert nx.has_path(nx.DiGraph(pairs), high, low)
