import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmfaces.errors import DimensionMismatch
from gkmfaces.ratlinalg import (
    EchelonBasis,
    Subspace,
    _carry_residues,
    _line_residue,
    _primitive,
    in_span,
    rank_of,
    span_equal,
)

from oracles import in_span_oracle, rank_oracle


def test_rank_empty():
    assert rank_of([]) == 0


def test_rank_plane():
    assert rank_of([(1, 0), (0, 1), (1, 1)]) == 2


def test_rank_collinear_matches_oracle():
    vs = [(2, 4), (1, 2), (3, 6)]
    assert rank_oracle(vs) == 1
    assert rank_of(vs) == 1


def test_rank_ignores_zero_vectors():
    assert rank_of([(0, 0), (1, 2), (0, 0)]) == 1


def test_rank_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        rank_of([(1, 0), (1, 0, 0)])


def test_in_span_zero_of_empty():
    assert in_span((0, 0), [])


def test_in_span_negative():
    assert not in_span((1, 1), [(1, 0)])


def test_in_span_rational_solution():
    # (3,3) = 3*(1,1); needs a rational combination of (1,0),(1,1)
    assert in_span((3, 3), [(1, 0), (1, 1)])
    assert in_span_oracle((3, 3), [(1, 0), (1, 1)])


def test_in_span_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        in_span((1, 0, 0), [(1, 0)])


def test_span_equal_scalar_multiple():
    assert span_equal([(1, 0)], [(2, 0)])
    assert span_equal([(1, 0)], [(-3, 0)])


def test_span_equal_distinct_lines():
    assert not span_equal([(1, 0)], [(0, 1)])


def test_span_equal_full_plane():
    assert span_equal([(1, 1), (1, -1)], [(1, 0), (0, 1)])


def test_rank_invariance_under_permutation_duplication_scaling():
    rng = random.Random(7)
    for _ in range(200):
        k = rng.randint(1, 4)
        vs = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(rng.randint(0, 6))]
        r = rank_of(vs)
        assert r == rank_oracle(vs)
        shuffled = vs[:]
        rng.shuffle(shuffled)
        assert rank_of(shuffled) == r
        if vs:
            dup = vs + [rng.choice(vs)]
            assert rank_of(dup) == r
            scaled = [tuple(3 * x for x in v) if i == 0 else v for i, v in enumerate(vs)]
            assert rank_of(scaled) == r


def test_in_span_additive():
    rng = random.Random(11)
    for _ in range(100):
        k = rng.randint(1, 4)
        base = [tuple(rng.randint(-3, 3) for _ in range(k)) for _ in range(rng.randint(1, 4))]
        coeffs = [rng.randint(-2, 2) for _ in base]
        v = tuple(sum(c * w[i] for c, w in zip(coeffs, base)) for i in range(k))
        coeffs2 = [rng.randint(-2, 2) for _ in base]
        w = tuple(sum(c * b[i] for c, b in zip(coeffs2, base)) for i in range(k))
        assert in_span(v, base) and in_span(w, base)
        assert in_span(tuple(a + b for a, b in zip(v, w)), base)


def test_span_equal_is_equivalence():
    rng = random.Random(13)
    pool = []
    for _ in range(12):
        k = 3
        pool.append([tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(rng.randint(0, 3))])
    for a in pool:
        assert span_equal(a, a)
        for b in pool:
            assert span_equal(a, b) == span_equal(b, a)
            for c in pool:
                if span_equal(a, b) and span_equal(b, c):
                    assert span_equal(a, c)


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
    eb = EchelonBasis(3)
    assert eb.add((1, 1, 0))
    assert not eb.add((2, 2, 0))
    assert eb.add((0, 1, 1))
    assert eb.dim == 2
    assert eb.contains((1, 0, -1))
    assert not eb.contains((0, 0, 1))


@st.composite
def vector_lists(draw):
    k = draw(st.integers(1, 5))
    vector = st.tuples(*[st.integers(-4, 4)] * k).filter(any)
    return k, draw(st.lists(vector, min_size=1, max_size=8))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(vector_lists())
def test_carried_residues_are_the_echelon_residues(case):
    """Each row step gives exactly `EchelonBasis.residue` modulo the grown basis."""
    k, vectors = case
    basis = EchelonBasis(k)
    carried = [(i, basis.residue(v)) for i, v in enumerate(vectors)]
    while carried:
        (i, row), rest = carried[0], carried[1:]
        basis.add(vectors[i])
        carried = _carry_residues(row, rest)
        expected = [(j, basis.residue(vectors[j])) for j, _ in rest]
        assert carried == [(j, r) for j, r in expected if r is not None]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(vector_lists())
def test_line_residue_is_the_echelon_residue_with_its_factor(case):
    """Modulo a line: `EchelonBasis.residue`, and factor * residue = line[p] v - v[p] line."""
    k, vectors = case
    line = _primitive(vectors[0])
    basis = EchelonBasis(k)
    basis.add(line)
    p = next(i for i, x in enumerate(line) if x)
    for v in vectors:
        residue, factor = _line_residue(v, line)
        assert residue == basis.residue(v)
        reduced = [line[p] * a - v[p] * b for a, b in zip(v, line)]
        assert reduced == [factor * x for x in residue or (0,) * k]
        assert (factor == 0) == (rank_oracle([line, v]) <= 1)
