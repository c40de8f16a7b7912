"""Order complexes listed from the order masks, against brute force.

`order_complex` numbers a poset's elements over a linear extension and
keeps each one's strict up-set as a mask; `_simplices_by_dim` lists the
chains from those masks by extension.  Both are compared with
`chains_oracle`, every subset that the order makes a chain, on random
posets: redundant declared covers, non-graded shapes, several minima and
maxima, single elements, and element orders that are not linear
extensions.  The Betti numbers are compared with the boundary-matrix
oracle on the complex of those chains.  Homology of an order complex
and the wedge check never walk the maximal chains; the wedge's top
h-number is the independence complex's.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmfaces import cli
from gkmfaces.complexes import (
    OrderComplex,
    _simplices_by_dim,
    order_complex,
    reduced_betti,
    verify_wedge_prediction,
)
from gkmfaces.formats import format_poset
from gkmfaces.matroid import (
    SimplicialComplex,
    WeightSystem,
    flats_lattice,
    h_vector,
    independence_complex,
)
from gkmfaces.poset import GradedPoset, _bits

from helpers import type_a_roots
from oracles import chains_oracle, reduced_betti_oracle


@st.composite
def posets(draw, max_n=8):
    """Named elements in an order that hides the poset's, with random upward covers."""
    n = draw(st.integers(1, max_n))
    hidden = draw(st.permutations(range(n)))
    pairs = [(f"x{hidden[a]}", f"x{hidden[b]}") for a in range(n) for b in range(a + 1, n)]
    covers = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=20)) if pairs else []
    return GradedPoset([f"x{i}" for i in range(n)], covers)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(posets())
def test_chains_match_the_subset_scan(p):
    oc = order_complex(p)
    assert sorted(oc.vertices, key=p.elements.index) == list(p.elements)
    for v, mask in enumerate(oc.above):
        above = {oc.vertices[w] for w in _bits(mask)}
        assert above == {e for e in p.elements if p.lt(oc.vertices[v], e)}
        assert mask & ((2 << v) - 1) == 0  # a linear extension: everything above comes later
    levels = _simplices_by_dim(oc)
    expected = chains_oracle(p)
    assert len(levels) == len(expected)
    for level, chains in zip(levels, expected):
        assert level == sorted(set(level))
        assert {frozenset(oc.vertices[v] for v in chain) for chain in level} == chains
    all_chains = SimplicialComplex(p.elements, tuple(c for level in expected for c in level))
    assert reduced_betti(oc) == reduced_betti_oracle(all_chains)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(posets())
def test_facets_are_the_maximal_chains_by_length_then_position(p):
    oc = order_complex(p)
    chains = [c for level in chains_oracle(p) for c in level]
    maximal = [c for c in chains if not any(c < d for d in chains)]
    position = {e: i for i, e in enumerate(p.elements)}
    in_order = [sorted(c, key=oc.vertices.index) for c in maximal]
    in_order.sort(key=lambda chain: (len(chain), [position[e] for e in chain]))
    assert oc.facets == tuple(map(tuple, in_order))


@pytest.fixture
def facets_forbidden(monkeypatch):
    def walked(self):
        raise AssertionError("the maximal chains were walked")

    monkeypatch.setattr(OrderComplex, "facets", property(walked))


@pytest.mark.parametrize("proper", [False, True])
def test_poset_homology_never_walks_the_maximal_chains(facets_forbidden, proper, tmp_path, capsys):
    lattice = tmp_path / "a3.poset"
    lattice.write_text(format_poset(flats_lattice(WeightSystem(3, type_a_roots(3)))))
    assert cli.main(["poset", "homology", str(lattice)] + ["--proper"] * proper) == 0
    assert capsys.readouterr().out.endswith("b~1 = 6\n" if proper else "b~3 = 0\n")


def test_wedge_never_walks_the_maximal_chains(facets_forbidden):
    assert verify_wedge_prediction(WeightSystem(3, type_a_roots(3))).ok


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(st.tuples(*[st.integers(-2, 2)] * k).filter(any), min_size=1, max_size=7),
        )
    )
)
def test_wedge_top_h_is_the_independence_complex_top_h(case):
    ws = WeightSystem(*case)
    assert verify_wedge_prediction(ws).top_h == h_vector(independence_complex(ws))[-1]
