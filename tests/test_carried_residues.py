"""The residue-carrying flats search and what is read off it, against eliminating oracles.

`matroid._flats_with_covers` reduces each weight's residue by one row
per search step.  `independence_complex` walks the covers of the flats
lattice it built, and `h_vector` and `independence_degree` read their
answers off the complex and the lattice.  `tests/oracles.py` keeps the
flats search that reduces every class against the whole basis of its
flat, the full-rank subset scan for bases and face counts, and the
subset scan for the independence degree.  They are compared on random
weight systems built to hold parallel, negated, scaled and repeated
weights, and on the edge cases of the flats search: no weights, and
ranks 1 and 2, where the bottom or the atoms are the coatoms.  The flats
search carries residues only below the coatoms.  The walk's faces and
insertable masks are those that `matroid._face_levels` hands down from
its bases.  The flats lattice is also checked to be invariant under
permuting, scaling and negating the weights.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmfaces.matroid import (
    WeightSystem,
    _face_levels,
    _flats_with_covers,
    flats_lattice,
    h_vector,
    independence_complex,
    independence_degree,
)

from helpers import disguised, type_a_roots
from oracles import (
    flats_with_covers_oracle,
    independence_complex_oracle,
    independence_degree_oracle,
    independent_sets_by_size_oracle,
)

SCALES = (1, -1, 2, -2, 3)


@st.composite
def weight_systems(draw, max_n=8):
    """Up to max_n weights: copies of a few directions, scaled, negated and shuffled."""
    k = draw(st.integers(1, 4) | st.integers(3, 4))
    direction = st.tuples(*[st.integers(-3, 3)] * k).filter(any)
    weights = []
    for w in draw(st.lists(direction, min_size=2, max_size=6)):
        for c in draw(st.lists(st.sampled_from(SCALES), min_size=1, max_size=3)):
            weights.append(tuple(c * x for x in w))
    return WeightSystem(k, draw(st.permutations(weights))[:max_n])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(weight_systems())
def test_flats_and_covers_match_the_full_elimination_oracle(ws):
    assert _flats_with_covers(ws) == flats_with_covers_oracle(ws)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(weight_systems())
def test_bases_match_the_full_rank_subset_scan(ws):
    facets = independence_complex(ws).facets
    assert [tuple(sorted(f)) for f in facets] == independence_complex_oracle(list(ws.weights))


def assert_walk_hands_down_like_the_bases(ws):
    complex_ = independence_complex(ws)
    assert complex_._faces == _face_levels(ws.indices, complex_.facets)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(weight_systems())
def test_walk_lists_the_faces_the_bases_hand_down(ws):
    assert_walk_hands_down_like_the_bases(ws)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_walk_lists_the_faces_the_bases_hand_down_on_disguised_type_a(n):
    ws = disguised(random.Random(n), WeightSystem(n, type_a_roots(n)))
    assert_walk_hands_down_like_the_bases(ws)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(weight_systems(max_n=7))
def test_f_and_h_vectors_count_the_independent_sets(ws):
    complex_ = independence_complex(ws)
    f = independent_sets_by_size_oracle(list(ws.weights))
    assert complex_.f_vector() == f
    d = len(f) - 1
    h = h_vector(complex_)
    # h is the binomial transform of f, and sum(h) counts the bases
    assert sum(h) == f[-1] and all(x >= 0 for x in h) and len(h) == d + 1


@settings(max_examples=150, deadline=None, derandomize=True)
@given(weight_systems())
def test_independence_degree_matches_the_subset_scan(ws):
    assert independence_degree(flats_lattice(ws)) == independence_degree_oracle(ws)


EDGE_SYSTEMS = {
    "no weights": WeightSystem(2, []),
    "all parallel, rank 1": WeightSystem(2, [(1, 2), (-1, -2), (3, 6), (2, 4)]),
    "rank 2": WeightSystem(3, [(1, 0, 1), (0, 1, 0), (1, 1, 1), (2, 0, 2), (0, -1, 0)]),
    "repeated, negated and scaled": WeightSystem(
        3, [(1, 2, 0), (-1, -2, 0), (2, 4, 0), (0, 1, 1), (0, 1, 1), (0, -3, -3), (1, 0, 0)]
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_SYSTEMS))
def test_flats_and_covers_match_the_oracle_on_edge_cases(name):
    ws = EDGE_SYSTEMS[name]
    assert _flats_with_covers(ws) == flats_with_covers_oracle(ws)


@pytest.mark.parametrize(
    "ws", [WeightSystem(n, type_a_roots(n)) for n in (3, 4)] + list(EDGE_SYSTEMS.values())
)
def test_residues_are_carried_once_per_flat_below_the_coatoms(monkeypatch, ws):
    """On A3 that is once per rank-1 flat: 6 carries."""
    from gkmfaces import matroid

    calls = []
    carry = matroid._carry_residues
    monkeypatch.setattr(
        matroid, "_carry_residues", lambda row, entries: calls.append(row) or carry(row, entries)
    )
    _, ranks, _, _ = _flats_with_covers(ws)
    assert len(calls) == sum(1 <= rank <= ws.rank() - 2 for rank in ranks)


def test_searches_match_the_oracles_on_type_a():
    for n in (2, 3, 4):
        ws = WeightSystem(n, type_a_roots(n))
        assert _flats_with_covers(ws) == flats_with_covers_oracle(ws)
        facets = [tuple(sorted(f)) for f in independence_complex(ws).facets]
        assert facets == independence_complex_oracle(list(ws.weights))
        assert independence_degree(flats_lattice(ws)) == independence_degree_oracle(ws) == 2


@settings(max_examples=100, deadline=None, derandomize=True)
@given(weight_systems(), st.data())
def test_flats_lattice_is_invariant_under_permuting_scaling_and_negating(ws, data):
    order = data.draw(st.permutations(range(ws.size)))
    scales = data.draw(st.lists(st.sampled_from(SCALES), min_size=ws.size, max_size=ws.size))
    moved = [None] * ws.size
    for i, (j, c) in enumerate(zip(order, scales)):
        moved[j] = tuple(c * x for x in ws.weights[i])
    image = {i + 1: j + 1 for i, j in enumerate(order)}

    def relabelled(p):
        def new(e):
            return tuple(sorted(image[i] for i in e))

        return (
            {new(e): (p.rank[e], p.drk[e]) for e in p.elements},
            {(new(low), new(high)) for low, high in p.covers},
        )

    q = flats_lattice(WeightSystem(ws.ambient_rank, moved))
    labels = {e: (q.rank[e], q.drk[e]) for e in q.elements}
    assert relabelled(flats_lattice(ws)) == (labels, set(q.covers))
