"""Proper-part homology of geometric lattices by the homotopy complementation formula.

`proper_betti` reads the Betti numbers of a geometric lattice's proper
part off the coatoms not above one atom in each interval, and takes the
chain engine's answer for any other poset.  It is compared with the
chain engine on flats lattices in shuffled element orders, and on
intersection-closed families, which are lattices under inclusion and
geometric only sometimes.  With `CHAIN_CAP` at 0 the chain engine
refuses everything, so a result proves that no chain was listed; a
refusal proves the fallback ran, which it must on every poset that is
not a geometric lattice: the pentagon, the hexagon and the bowtie among
them.
"""

import re
from unittest import mock

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from gkmfaces import complexes
from gkmfaces.complexes import order_complex, proper_betti, reduced_betti
from gkmfaces.errors import EnumerationCapExceeded, GkmFacesError
from gkmfaces.matroid import WeightSystem, flats_lattice
from gkmfaces.poset import GradedPoset, _cover_pairs, is_geometric_lattice


def chain_engine(p):
    return reduced_betti(order_complex(p.proper_part()))


def formula_alone(p):
    """proper_betti with the chain engine refusing every chain, or None when it falls back."""
    with mock.patch.object(complexes, "CHAIN_CAP", 0):
        try:
            return proper_betti(p)
        except EnumerationCapExceeded:
            return None


def poset_of(elements, relations):
    return GradedPoset(elements, [tuple(pair.split("<")) for pair in relations.split()])


@st.composite
def intersection_closed(draw):
    """Proper subsets of 3-6 points and the full set, closed under intersection, in a drawn order."""
    n = draw(st.integers(3, 6))
    family = {(1 << n) - 1, *draw(st.lists(st.integers(1, (1 << n) - 2), min_size=2, max_size=10))}
    while any(a & b not in family for a in family for b in family):
        family |= {a & b for a in family for b in family}
    members = draw(st.permutations(sorted(family)))
    up = [sum(1 << j for j, y in enumerate(members) if x & y == x) for x in members]
    covers = [(members[i], members[j]) for i, j in _cover_pairs(up, (1 << len(members)) - 1)]
    return GradedPoset(members, covers)


@st.composite
def shuffled_flats_lattices(draw):
    """The flats lattice of 2-7 small weights in Z^2-Z^4, of rank at least 2, elements shuffled."""
    k = draw(st.integers(2, 4))
    vectors = st.tuples(*[st.integers(-2, 2)] * k).filter(any)
    ws = WeightSystem(k, draw(st.lists(vectors, min_size=2, max_size=7)))
    assume(ws.rank() >= 2)
    lattice = flats_lattice(ws)
    return GradedPoset(draw(st.permutations(lattice.elements)), lattice.covers)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(shuffled_flats_lattices())
def test_formula_matches_the_chain_engine_on_flats_lattices(p):
    assert formula_alone(p) == chain_engine(p)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(intersection_closed())
def test_formula_runs_on_exactly_the_geometric_intersection_closed_families(p):
    assume(len(p.elements) > 2)
    expected = chain_engine(p)
    assert proper_betti(p) == expected
    alone = formula_alone(p)
    event("fell back" if alone is None else "formula")
    assert alone == (expected if is_geometric_lattice(p) else None)


# 0 < z < 1 beside 0 < x < y < 1: a lattice, not graded
PENTAGON = poset_of(["0", "z", "x", "y", "1"], "0<x x<y y<1 0<z z<1")
# 0 < x < y < 1 beside 0 < z < w < 1: a graded lattice, y and w not joins of atoms
HEXAGON = poset_of(["0", "x", "y", "z", "w", "1"], "0<x x<y y<1 0<z z<w w<1")
# a and b below c and d, with no least upper bound: graded, no lattice
BOWTIE = poset_of(["0", "a", "b", "c", "d", "1"], "0<a 0<b a<c a<d b<c b<d c<1 d<1")


@pytest.mark.parametrize(
    "p, expected",
    [
        (PENTAGON, {-1: 0, 0: 1, 1: 0}),  # degrees run to the longest chain of the proper part
        (HEXAGON, {-1: 0, 0: 1, 1: 0}),
        (BOWTIE, {-1: 0, 0: 0, 1: 1}),
    ],
    ids=["pentagon", "hexagon", "bowtie"],
)
def test_posets_that_are_no_geometric_lattice_fall_back(p, expected):
    assert formula_alone(p) is None
    assert proper_betti(p) == expected == chain_engine(p)


@pytest.mark.parametrize(
    "p",
    [
        poset_of(["0", "a", "b"], "0<a 0<b"),  # no top
        poset_of(["a", "b", "1"], "a<1 b<1"),  # no bottom
        poset_of(["0", "1"], "0<1"),  # nothing between the two
        GradedPoset(["0"], []),
    ],
    ids=["no top", "no bottom", "two-element chain", "one element"],
)
def test_errors_are_those_of_the_proper_part(p):
    with pytest.raises(GkmFacesError) as expected:
        p.proper_part()
    with pytest.raises(type(expected.value), match=f"^{re.escape(str(expected.value))}$"):
        proper_betti(p)
