import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmfaces.errors import DimensionMismatch
from gkmfaces.ratlinalg import Subspace, _carry_residues, _line_residue, _primitive

from oracles import in_span_oracle, rank_oracle, rref_oracle


def test_rank_empty():
    assert Subspace.span([], 2).dim == 0


def test_rank_plane():
    assert Subspace.span([(1, 0), (0, 1), (1, 1)], 2).dim == 2


def test_rank_collinear_matches_oracle():
    vs = [(2, 4), (1, 2), (3, 6)]
    assert rank_oracle(vs) == 1
    assert Subspace.span(vs, 2).dim == 1


def test_rank_ignores_zero_vectors():
    assert Subspace.span([(0, 0), (1, 2), (0, 0)], 2).dim == 1


def test_rank_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Subspace.span([(1, 0), (1, 0, 0)], 2)


def test_in_span_zero_of_empty():
    assert Subspace.span([], 2).contains((0, 0))


def test_in_span_negative():
    assert not Subspace.span([(1, 0)], 2).contains((1, 1))


def test_in_span_rational_solution():
    # (3,3) = 3*(1,1); needs a rational combination of (1,0),(1,1)
    assert Subspace.span([(1, 0), (1, 1)], 2).contains((3, 3))
    assert in_span_oracle((3, 3), [(1, 0), (1, 1)])


def test_in_span_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        Subspace.span([(1, 0)], 3)


def test_span_equal_scalar_multiple():
    assert Subspace.span([(1, 0)], 2) == Subspace.span([(2, 0)], 2)
    assert Subspace.span([(1, 0)], 2) == Subspace.span([(-3, 0)], 2)


def test_span_equal_distinct_lines():
    assert Subspace.span([(1, 0)], 2) != Subspace.span([(0, 1)], 2)


def test_span_equal_full_plane():
    assert Subspace.span([(1, 1), (1, -1)], 2) == Subspace.span([(1, 0), (0, 1)], 2)


def test_rank_invariance_under_permutation_duplication_scaling():
    rng = random.Random(7)
    for _ in range(200):
        k = rng.randint(1, 4)
        vs = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(rng.randint(0, 6))]
        r = Subspace.span(vs, k).dim
        assert r == rank_oracle(vs)
        shuffled = vs[:]
        rng.shuffle(shuffled)
        assert Subspace.span(shuffled, k).dim == r
        if vs:
            dup = vs + [rng.choice(vs)]
            assert Subspace.span(dup, k).dim == r
            scaled = [tuple(3 * x for x in v) if i == 0 else v for i, v in enumerate(vs)]
            assert Subspace.span(scaled, k).dim == r


def test_in_span_additive():
    rng = random.Random(11)
    for _ in range(100):
        k = rng.randint(1, 4)
        base = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(rng.randint(1, 4))]
        coeffs = [rng.randint(-2, 2) for _ in base]
        v = tuple(sum(c * w[i] for c, w in zip(coeffs, base)) for i in range(k))
        coeffs2 = [rng.randint(-2, 2) for _ in base]
        w = tuple(sum(c * b[i] for c, b in zip(coeffs2, base)) for i in range(k))
        span = Subspace.span(base, k)
        assert span.contains(v) and span.contains(w)
        assert span.contains(tuple(a + b for a, b in zip(v, w)))


def test_span_equal_is_equivalence():
    rng = random.Random(13)
    pool = []
    for _ in range(12):
        k = 3
        pool.append([tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(rng.randint(0, 3))])
    spans = [Subspace.span(vs, 3) for vs in pool]
    for a in spans:
        assert a == a
        for b in spans:
            assert (a == b) == (b == a)
            for c in spans:
                if a == b and b == c:
                    assert a == c


def test_subspace_canonical_form_is_span_invariant():
    rng = random.Random(17)
    for _ in range(100):
        k = rng.randint(1, 4)
        vs = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(rng.randint(1, 4))]
        s1 = Subspace.span(vs, k)
        shuffled = vs[:]
        rng.shuffle(shuffled)
        scaled = [tuple(-2 * x for x in v) for v in shuffled]
        s2 = Subspace.span(scaled + vs, k)
        assert s1 == s2
        assert hash(s1) == hash(s2)
        for v in vs:
            assert s1.contains(v)


def test_echelon_basis_incremental_rank():
    vectors = [(1, 1, 0), (2, 2, 0), (0, 1, 1)]
    assert [Subspace.span(vectors[:n], 3).dim for n in range(4)] == [0, 1, 1, 2]
    span = Subspace.span(vectors, 3)
    assert span.basis == ((1, 0, -1), (0, 1, 1))
    assert span.contains((1, 0, -1))
    assert not span.contains((0, 0, 1))
    assert span.residue((0, 0, 1)) == (0, 0, 1)


def test_one_shot_iterables_are_read_once():
    vectors = [(1, 0, 2), (0, 1, 1), (1, 1, 3)]
    assert Subspace.span((v for v in [(1, 0), (0, 1)]), 2).dim == 2
    assert Subspace.span(iter(vectors), 3).contains((2, 3, 7))
    assert not Subspace.span(iter(vectors), 3).contains((0, 0, 1))
    assert Subspace.span(iter(vectors), 3) == Subspace.span((v for v in vectors[:2]), 3)
    assert Subspace.span(iter(vectors), 3) != Subspace.span(iter(vectors[:1]), 3)
    assert Subspace.span(iter(vectors), 3) == Subspace.span(vectors, 3)
    assert Subspace.span(iter(vectors), 3).dim == 2


@st.composite
def vector_lists(draw):
    k = draw(st.integers(1, 5))
    vector = st.tuples(*[st.integers(-4, 4)] * k).filter(any)
    return k, draw(st.lists(vector, min_size=1, max_size=8))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(vector_lists())
def test_carried_residues_are_the_echelon_residues(case):
    """Each row step gives exactly `Subspace.residue` modulo the grown span."""
    k, vectors = case
    spanning = []
    carried = [(i, Subspace.span(spanning, k).residue(v)) for i, v in enumerate(vectors)]
    while carried:
        (i, row), rest = carried[0], carried[1:]
        spanning.append(vectors[i])
        carried = _carry_residues(row, rest)
        span = Subspace.span(spanning, k)
        expected = [(j, span.residue(vectors[j])) for j, _ in rest]
        assert carried == [(j, r) for j, r in expected if r is not None]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(vector_lists())
def test_line_residue_is_the_echelon_residue_with_its_factor(case):
    """Modulo a line: `Subspace.residue`, and factor * residue = line[p] v - v[p] line."""
    k, vectors = case
    line = _primitive(vectors[0])
    span = Subspace.span([line], k)
    p = next(i for i, x in enumerate(line) if x)
    for v in vectors:
        residue, factor = _line_residue(v, line)
        assert residue == span.residue(v)
        reduced = [line[p] * a - v[p] * b for a, b in zip(v, line)]
        assert reduced == [factor * x for x in residue or (0,) * k]
        assert (factor == 0) == (rank_oracle([line, v]) <= 1)


@st.composite
def spans_with_two_vectors(draw):
    """(k, spanning vectors, u, w); zero vectors allowed, w often in span + <u>."""
    k = draw(st.integers(1, 5))
    vector = st.tuples(*[st.integers(-4, 4)] * k)
    spanning = draw(st.lists(vector, max_size=5))
    u = draw(vector)
    if draw(st.booleans()):
        w = draw(vector)
    else:
        n = len(spanning) + 1
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        w = tuple(sum(c * v[i] for c, v in zip(coeffs, spanning + [u])) for i in range(k))
    return k, spanning, u, w


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spans_with_two_vectors())
def test_span_basis_is_the_sympy_rref(case):
    k, spanning, u, w = case
    for vectors in (spanning, spanning + [u, w]):
        assert Subspace.span(vectors, k).basis == rref_oracle(vectors, k)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spans_with_two_vectors())
def test_residue_vanishes_exactly_when_the_rank_stays(case):
    k, spanning, u, w = case
    span, rank = Subspace.span(spanning, k), rank_oracle(spanning)
    for v in (u, w):
        assert (span.residue(v) is None) == (rank_oracle(spanning + [v]) == rank)
        assert span.contains(v) == (span.residue(v) is None)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(spans_with_two_vectors())
def test_residues_agree_exactly_when_both_raise_the_rank_by_one(case):
    k, spanning, u, w = case
    span, rank = Subspace.span(spanning, k), rank_oracle(spanning)
    ru, rw = span.residue(u), span.residue(w)
    if ru is not None and rw is not None:
        assert (ru == rw) == (rank_oracle(spanning + [u, w]) == rank + 1)
