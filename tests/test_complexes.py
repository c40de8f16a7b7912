from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmfaces.complexes import order_complex, reduced_betti, verify_wedge_prediction
from gkmfaces.errors import EmptyComplex, GkmFacesError, PreconditionFailed
from gkmfaces.matroid import (
    SimplicialComplex,
    WeightSystem,
    flats_lattice,
    h_vector,
    independence_complex,
)
from gkmfaces.poset import GradedPoset, grading_of

from helpers import BASIS2, COLLINEAR, UNIFORM23, weight_corpus
from oracles import euler_characteristic, reduced_betti_oracle, sympy_betti

# the 6-vertex real projective plane: H_1 = Z/2, so every rational reduced Betti number is 0
RP2 = SimplicialComplex(
    tuple(range(1, 7)),
    tuple(
        frozenset(t)
        for t in (
            (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
            (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6),
        )
    ),
)


def type_a(n: int) -> WeightSystem:
    """Roots e_i - e_j of Z^(n+1)."""
    return WeightSystem(
        n + 1,
        [tuple(int(t == i) - int(t == j) for t in range(n + 1)) for i, j in combinations(range(n + 1), 2)],
    )


def strict_upper_intervals(lattice):
    """Order complexes of the open intervals (s, top) that are nonempty."""
    top = lattice.top()
    for s in lattice.elements:
        keep = [e for e in lattice.up_set(s) if e not in (s, top)]
        if keep:
            yield s, order_complex(lattice.induced(keep))


def test_order_complex_two_chain():
    p = GradedPoset(["a", "b"], [("a", "b")])
    assert order_complex(p).facets == (("a", "b"),)


def test_order_complex_antichain():
    p = GradedPoset(["a", "b", "c"], [])
    assert order_complex(p).facets == (("a",), ("b",), ("c",))


def test_order_complex_u23_proper_part():
    proper = flats_lattice(UNIFORM23).proper_part()
    facets = order_complex(proper).facets
    assert sorted(facets) == [((1,),), ((2,),), ((3,),)]


def test_betti_point():
    single = SimplicialComplex((1,), (frozenset({1}),))
    assert reduced_betti(single) == {-1: 0, 0: 0}


def test_betti_three_points():
    three = SimplicialComplex((1, 2, 3), (frozenset({1}), frozenset({2}), frozenset({3})))
    assert reduced_betti(three) == {-1: 0, 0: 2}


def test_betti_circle():
    triangle = SimplicialComplex(
        (1, 2, 3), (frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3}))
    )
    assert reduced_betti(triangle) == {-1: 0, 0: 0, 1: 1}


def test_betti_two_sphere():
    tetra_boundary = SimplicialComplex(
        (1, 2, 3, 4),
        tuple(frozenset({1, 2, 3, 4}) - {i} for i in (1, 2, 3, 4)),
    )
    assert reduced_betti(tetra_boundary) == {-1: 0, 0: 0, 1: 0, 2: 1}


def test_betti_empty_complex_rejected():
    with pytest.raises(EmptyComplex):
        reduced_betti(SimplicialComplex((), ()))


def test_betti_of_the_empty_face_alone():
    # {empty set}: no vertices, so the augmentation has rank 0 and b~_-1 = 1
    only_empty = SimplicialComplex((), (frozenset(),))
    assert reduced_betti(only_empty) == {-1: 1}
    assert reduced_betti_oracle(only_empty) == {-1: 1}
    assert euler_characteristic(only_empty) == -1


def test_betti_rp2_has_no_rational_homology():
    edges = [e for t in RP2.facets for e in combinations(sorted(t), 2)]
    assert len(set(edges)) == 15 and all(edges.count(e) == 2 for e in set(edges))
    assert euler_characteristic(RP2) == 0
    expected = {-1: 0, 0: 0, 1: 0, 2: 0}
    assert reduced_betti(RP2) == reduced_betti_oracle(RP2) == sympy_betti(RP2) == expected


def test_order_complex_vertices_are_a_linear_extension():
    # listed top-first, so the linear extension reverses the element order
    p = GradedPoset(["t", "b", "a", "z"], [("z", "a"), ("z", "b"), ("a", "t"), ("b", "t")])
    oc = order_complex(p)
    assert oc.vertices == ("z", "b", "a", "t")
    lattice = flats_lattice(type_a(3)).proper_part()
    vertices = order_complex(lattice).vertices
    assert sorted(vertices, key=lattice.elements.index) == list(lattice.elements)
    position = {e: i for i, e in enumerate(vertices)}
    assert all(position[low] < position[high] for low, high in lattice.covers)


def test_betti_matches_oracle_on_weight_corpus():
    for ws in weight_corpus(seed=227, count=30, max_n=6):
        lattice = flats_lattice(ws)
        complexes = [independence_complex(ws)]  # corpus weights are nonzero, so rank >= 1
        if grading_of(lattice)[lattice.top()] >= 2:
            complexes.append(order_complex(lattice.proper_part()))
        complexes += [oc for _, oc in strict_upper_intervals(lattice)]
        for complex_ in complexes:
            assert reduced_betti(complex_) == reduced_betti_oracle(complex_)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_betti_matches_oracle_on_type_a(n):
    ws = type_a(n)
    proper = order_complex(flats_lattice(ws).proper_part())
    complex_ = independence_complex(ws)
    assert reduced_betti(proper) == reduced_betti_oracle(proper)
    assert reduced_betti(complex_) == reduced_betti_oracle(complex_)


@st.composite
def random_complexes(draw, vertex_count=7, max_facet=4):
    """Facets on a few vertices, listed in a shuffled vertex order."""
    vertices = tuple(draw(st.permutations(range(vertex_count))))
    facets = draw(
        st.lists(
            st.frozensets(st.integers(0, vertex_count - 1), max_size=max_facet),
            min_size=1,
            max_size=10,
        )
    )
    return SimplicialComplex(vertices, tuple(facets))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(random_complexes())
def test_betti_matches_oracle_on_random_complexes(complex_):
    betti = reduced_betti(complex_)
    assert betti == reduced_betti_oracle(complex_)
    assert euler_characteristic(complex_) == sum((-1) ** d * b for d, b in betti.items())


@settings(derandomize=True, max_examples=40, deadline=None)
@given(random_complexes(vertex_count=6, max_facet=4))
def test_betti_matches_sympy_ranks(complex_):
    assert reduced_betti(complex_) == sympy_betti(complex_)


def test_betti_matches_sympy_ranks_on_type_a3():
    ws = type_a(3)
    for complex_ in (order_complex(flats_lattice(ws).proper_part()), independence_complex(ws)):
        assert reduced_betti(complex_) == sympy_betti(complex_)


def test_euler_characteristic_consistency():
    for ws in weight_corpus(seed=211, count=25, max_n=6):
        lattice = flats_lattice(ws)
        if grading_of(lattice)[lattice.top()] < 2:
            continue
        complex_ = order_complex(lattice.proper_part())
        betti = reduced_betti(complex_)
        assert euler_characteristic(complex_) == sum(
            (-1) ** d * b for d, b in betti.items()
        )


def test_wedge_u23():
    report = verify_wedge_prediction(UNIFORM23)
    assert report.ok
    assert report.mobius_magnitude == 2
    assert report.proper_betti[0] == 2
    assert report.top_h == 1
    assert report.complex_betti[1] == 1


def test_wedge_boolean3():
    b3 = WeightSystem(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    report = verify_wedge_prediction(b3)
    assert report.ok
    # proper part of the rank-3 Boolean lattice is a hexagon circle
    assert report.mobius_magnitude == 1
    assert report.proper_betti == {-1: 0, 0: 0, 1: 1}
    assert report.top_h == 0
    assert all(v == 0 for v in report.complex_betti.values())


def test_wedge_rank_one_skips_proper_part():
    report = verify_wedge_prediction(WeightSystem(2, [(1, 0)]))
    assert report.proper_skipped
    assert report.proper_betti is None
    assert report.ok
    assert report.top_h == 0


def test_wedge_without_weights_is_a_precondition_failure():
    with pytest.raises(PreconditionFailed, match="rank at least 1") as info:
        verify_wedge_prediction(WeightSystem(2, []))
    assert isinstance(info.value, GkmFacesError)


def test_wedge_collinear():
    assert verify_wedge_prediction(COLLINEAR).ok


def test_wedge_randomized_suite():
    for ws in weight_corpus(seed=223, count=40, max_n=6):
        assert verify_wedge_prediction(ws).ok


def test_strict_upper_interval_acyclicity():
    # wedge concentration degree k - rk(s) - 2 for every strict upper interval
    for ws in (BASIS2, UNIFORM23, COLLINEAR):
        lattice = flats_lattice(ws)
        ranks = grading_of(lattice)
        k = ranks[lattice.top()]
        for s, complex_ in strict_upper_intervals(lattice):
            betti = reduced_betti(complex_)
            degree = k - ranks[s] - 2
            assert all(b == 0 for d, b in betti.items() if d != degree)


def test_faces_of_a_simplicial_complex_are_listed_once(monkeypatch):
    """By facets, the faces are handed down once; an independence complex comes with its own."""
    from gkmfaces import matroid

    listed, searched = [], []
    face_levels, search = matroid._face_levels, matroid._flats_with_covers
    monkeypatch.setattr(
        matroid, "_face_levels", lambda *args: listed.append(args) or face_levels(*args)
    )
    monkeypatch.setattr(matroid, "_flats_with_covers", lambda ws: searched.append(ws) or search(ws))
    rp2 = SimplicialComplex(RP2.vertices, RP2.facets)
    assert rp2.f_vector() == (1, 6, 15, 10)
    assert reduced_betti(rp2) == {-1: 0, 0: 0, 1: 0, 2: 0}
    assert len(listed) == 1

    complex_ = independence_complex(WeightSystem(2, UNIFORM23.weights))
    levels = complex_._faces
    assert h_vector(complex_) == (1, 1, 1)
    assert reduced_betti(complex_) == {-1: 0, 0: 0, 1: 1}
    assert complex_.f_vector() == (1, 3, 3)
    assert complex_._faces is levels and len(listed) == 1

    ws = WeightSystem(4, type_a(3).weights)
    assert verify_wedge_prediction(ws).ok
    assert len(flats_lattice(ws).elements) == 15 and len(independence_complex(ws).facets) == 16
    assert searched == [WeightSystem(2, UNIFORM23.weights), ws] and len(listed) == 1
