"""The order core of `poset` against the pairwise scans in `tests/oracles.py`.

`_cover_pairs` takes the covers within a mask as the minimal elements of
each strict up-set, and `_minimal` keeps the elements of a mask with
nothing of it strictly below.  `hasse_covers`, `induced`, the face
posets and the Galois check all read covers through them.  They are
compared, pair for pair and in order, with the scan for an element
strictly between and the scan for an element strictly below, on posets
from random acyclic covers (transitively redundant ones among them) and
on random masks.
"""

from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from gkmfaces.gkm import DEFAULT_CAP, _containers, _face_poset, _face_positions
from gkmfaces.poset import GradedPoset, _cover_pairs, _minimal

from helpers import cp2_graph, corpus_graph, graph_product, hypercube_graph, sphere_graph
from oracles import cover_pairs_oracle, minimal_oracle


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
