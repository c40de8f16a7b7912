import random
from itertools import combinations
from math import comb

import pytest

from gkmfaces.errors import DimensionMismatch, PreconditionFailed, ZeroWeight
from gkmfaces.matroid import (
    Flat,
    WeightSystem,
    closure,
    flats_lattice,
    h_vector,
    independence_complex,
    independence_degree,
)
from gkmfaces.poset import GradedPoset, grading_of

from helpers import BASIS2, COLLINEAR, UNIFORM23, weight_corpus
from oracles import closure_oracle, faces_oracle, flats_lattice_oracle, flats_oracle, rank_oracle


def test_weight_system_rejects_zero():
    with pytest.raises(ZeroWeight):
        WeightSystem(2, [(1, 0), (0, 0)])


@pytest.mark.parametrize(
    "rank, weights, error, message",
    [
        (0, [], ValueError, "ambient rank must be at least 1"),
        (2, [(1, 0), (1, 0, 0)], DimensionMismatch, "weight 2 has length 3, expected 2"),
    ],
    ids=["rank", "length"],
)
def test_weight_system_constructor_checks(rank, weights, error, message):
    with pytest.raises(error, match=message):
        WeightSystem(rank, weights)


def test_weight_system_rejects_bad_length():
    with pytest.raises(DimensionMismatch):
        WeightSystem(2, [(1, 0, 0)])


def test_weight_index_out_of_range():
    with pytest.raises(IndexError):
        UNIFORM23.weight(4)


def test_closure_empty_is_empty():
    assert closure(UNIFORM23, ()) == Flat(frozenset(), 0)


def test_closure_collinear_pair():
    flat = closure(COLLINEAR, {1})
    assert flat.members == frozenset({1, 2})
    assert flat.rank == 1
    assert flat.multiplicity == 2
    assert closure_oracle(COLLINEAR.weights, {1}) == (flat.members, flat.rank)


def test_closure_fills_the_plane():
    flat = closure(UNIFORM23, {1, 2})
    assert flat.members == frozenset({1, 2, 3})
    assert flat.rank == 2
    assert closure_oracle(UNIFORM23.weights, {1, 2}) == (flat.members, flat.rank)


def test_closure_index_out_of_range():
    with pytest.raises(IndexError):
        closure(UNIFORM23, {9})


def flat_ranks(ws):
    """Each flat of ws as its member set, with its rank, in the flats lattice's order."""
    p = flats_lattice(ws)
    return {frozenset(e): p.rank[e] for e in p.elements}


def test_flats_boolean2():
    assert flats_lattice(BASIS2).elements == ((), (1,), (2,), (1, 2))


def test_flats_u23():
    assert flats_lattice(UNIFORM23).elements == ((), (1,), (2,), (3,), (1, 2, 3))


def test_flats_collinear():
    assert flats_lattice(COLLINEAR).elements == ((), (1, 2), (3,), (1, 2, 3))


def test_flats_match_subset_oracle():
    for ws in weight_corpus(seed=101, count=60, max_n=6):
        assert list(flat_ranks(ws).items()) == flats_oracle(ws.weights)


def test_flats_lattice_has_no_payload():
    assert flats_lattice(COLLINEAR).payload == {}


def with_parallel_copies(rng, ws):
    """ws plus repeated, negated and scaled copies of some of its weights."""
    extra = [
        tuple(rng.choice((1, -1, 2, -3)) * x for x in rng.choice(ws.weights))
        for _ in range(rng.randint(1, 3))
    ]
    weights = list(ws.weights) + extra
    rng.shuffle(weights)
    return WeightSystem(ws.ambient_rank, weights)


def test_flats_lattice_matches_pairwise_oracle_with_parallel_weights():
    rng = random.Random(139)
    for ws in weight_corpus(seed=149, count=25, max_n=5):
        ws = with_parallel_copies(rng, ws)
        p = flats_lattice(ws)
        ids, covers, rank = flats_lattice_oracle(ws.weights)
        assert list(p.elements) == ids
        assert list(p.covers) == covers
        assert p.rank == rank
        assert p.drk == {e: len(e) for e in ids}
        r = max(rank.values())
        bases = [
            frozenset(c) for c in combinations(ws.indices, r)
            if rank_oracle([ws.weight(i) for i in c]) == r
        ]
        assert independence_complex(ws).facets == (tuple(sorted(bases, key=sorted)) if r else ())


def stirling2(n, k):
    """Set partitions of n items into k blocks."""
    if n == k:
        return 1
    if k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def test_a6_flats_lattice_closed_form():
    # flats of A6 (roots e_i - e_j of Z^7) are the set partitions of 7 items;
    # rank r means 7 - r blocks, and a partition with b blocks has C(b, 2) covers
    roots = [tuple(int(t == i) - int(t == j) for t in range(7)) for i, j in combinations(range(7), 2)]
    p = flats_lattice(WeightSystem(7, roots))
    assert len(p.elements) == 877
    counts = [0] * 7
    for e in p.elements:
        counts[p.rank[e]] += 1
    assert counts == [stirling2(7, 7 - r) for r in range(7)]
    assert len(p.covers) == sum(stirling2(7, b) * comb(b, 2) for b in range(1, 8))


def test_closure_operator_laws():
    rng = random.Random(103)
    for ws in weight_corpus(seed=107, count=30, max_n=6):
        pool = list(ws.indices)
        for _ in range(10):
            a = set(rng.sample(pool, rng.randint(0, len(pool))))
            b = set(rng.sample(pool, rng.randint(0, len(pool))))
            ca = closure(ws, a)
            assert a <= ca.members
            assert closure(ws, ca.members) == ca
            if a <= b:
                assert ca.members <= closure(ws, b).members
            cup = closure(ws, a | b)
            assert ca.members <= cup.members


def test_flats_lattice_labels_b2():
    p = flats_lattice(BASIS2)
    ranks = grading_of(p)
    assert sorted(ranks.values()) == [0, 1, 1, 2]
    assert p.drk[(1, 2)] == 2


def test_flats_lattice_collinear_drk():
    p = flats_lattice(COLLINEAR)
    ranks = grading_of(p)
    atoms = [e for e in p.elements if ranks[e] == 1]
    assert len(atoms) == 2
    assert p.drk[(1, 2)] == 2


def test_flats_lattice_u23_atoms():
    p = flats_lattice(UNIFORM23)
    ranks = grading_of(p)
    assert len([e for e in p.elements if ranks[e] == 1]) == 3


def test_lattice_laws_exhaustive():
    for ws in weight_corpus(seed=109, count=25, max_n=7):
        p = flats_lattice(ws)
        for f in p.elements:
            for g in p.elements:
                assert tuple(sorted(set(f) & set(g))) in p.rank  # meets are intersections
                join = p.join(f, g)
                assert join is not None
                assert join == tuple(sorted(closure(ws, set(f) | set(g)).members))


def test_semimodularity():
    for ws in weight_corpus(seed=113, count=25, max_n=6):
        rank = flat_ranks(ws)
        for f in rank:
            for g in rank:
                join = closure(ws, f | g).members
                assert rank[join] + rank[f & g] <= rank[f] + rank[g]


def test_atomisticity():
    for ws in weight_corpus(seed=127, count=25, max_n=6):
        rank = flat_ranks(ws)
        atoms = [f for f, r in rank.items() if r == 1]
        for f in rank:
            assert closure(ws, frozenset().union(*(a for a in atoms if a <= f))).members == f


def test_drk_additivity_over_atoms():
    for ws in weight_corpus(seed=131, count=25, max_n=6):
        p = flats_lattice(ws)
        atoms = [e for e in p.elements if p.rank[e] == 1]
        for e in p.elements:
            assert sum(p.drk[a] for a in atoms if set(a) <= set(e)) == p.drk[e] == len(e)


def test_independence_complex_examples():
    assert independence_complex(BASIS2).facets == (frozenset({1, 2}),)
    assert set(independence_complex(UNIFORM23).facets) == {
        frozenset({1, 2}),
        frozenset({1, 3}),
        frozenset({2, 3}),
    }
    assert set(independence_complex(COLLINEAR).facets) == {
        frozenset({1, 3}),
        frozenset({2, 3}),
    }


def test_independence_complex_pure_and_extendable():
    for ws in weight_corpus(seed=137, count=30, max_n=6):
        complex_ = independence_complex(ws)
        rank = ws.rank()
        assert all(len(f) == rank for f in complex_.facets)
        for face in faces_oracle(complex_):
            assert ws.span_of(face).dim == len(face)  # faces really are independent
            assert any(face <= facet for facet in complex_.facets)


def test_h_vector_examples():
    assert h_vector(independence_complex(BASIS2)) == (1, 0, 0)
    assert h_vector(independence_complex(UNIFORM23)) == (1, 1, 1)
    assert h_vector(independence_complex(COLLINEAR)) == (1, 1, 0)


def test_h_vector_requires_pure():
    from gkmfaces.matroid import SimplicialComplex

    mixed = SimplicialComplex((1, 2, 3), (frozenset({1, 2}), frozenset({3})))
    with pytest.raises(ValueError):
        h_vector(mixed)


def test_independence_degree():
    assert independence_degree(flats_lattice(BASIS2)) == 2
    assert independence_degree(flats_lattice(UNIFORM23)) == 2
    assert independence_degree(flats_lattice(COLLINEAR)) == 1
    assert independence_degree(flats_lattice(WeightSystem(2, [(1, 0)]))) == 1


def test_independence_degree_needs_rank_and_drk_labels():
    lattice = flats_lattice(UNIFORM23)
    for rank, drk in ((None, lattice.drk), (lattice.rank, None)):
        unlabelled = GradedPoset(lattice.elements, lattice.covers, rank=rank, drk=drk)
        with pytest.raises(PreconditionFailed, match="needs rank and drk labels"):
            independence_degree(unlabelled)
