"""Order complexes listed from the order masks, against brute force.

`order_complex` numbers a poset's elements over a linear extension and
keeps each one's strict up- and down-sets as masks; `_simplices_by_dim`
lists the chains from those masks by extension, each as a vertex mask
with the mask of the vertices that can be inserted into it.  Both are
compared with `chains_oracle`, every subset that the order makes a
chain, on random posets: redundant declared covers, non-graded shapes, several minima and
maxima, single elements, and element orders that are not linear
extensions.  The Betti numbers are compared with the boundary-matrix
oracle on the complex of those chains.  Homology of an order complex
and the wedge check never walk the maximal chains.

The reduction builds a coboundary column only where two columns meet
at one pivot: never on shuffled flats lattices or on independence
complexes, and where columns do meet, the Betti numbers are those of
the boundary-matrix oracle and of sympy's ranks.  No element order
changes them.  An order complex with more than `CHAIN_CAP` chains is
refused, with the count, before any chain is listed, for its homology
and for its facets alike, and so is an
independence complex with more than `matroid.INDEPENDENT_SET_CAP`
nonempty faces.  The proper parts of flats lattices list no chain at
all (`proper_betti`), so A7 passes `poset homology --proper` and
every A_n passes it with the cap at 0.  The wedge check lists no
independent set either: its f-vector is counted off the flats lattice
and matches the subset scan and the listed complex, its Betti numbers
(by deletion and contraction) match those of the listed complex on
weights with repeats and parallels, its top h-number is the listed
complex's, and it passes on disguised A3-A6 with the independent-set
cap at 0 and on 1 500 weights in the plane, past that cap.
"""

import random
from math import factorial
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gkmfaces import cli, complexes, matroid
from gkmfaces.complexes import (
    CHAIN_CAP,
    OrderComplex,
    _chain_count,
    _simplices_by_dim,
    order_complex,
    reduced_betti,
    verify_wedge_prediction,
)
from gkmfaces.errors import EnumerationCapExceeded
from gkmfaces.formats import format_matroid, format_poset, parse_poset
from gkmfaces.matroid import (
    SimplicialComplex,
    WeightSystem,
    flats_lattice,
    h_vector,
    independence_complex,
)
from gkmfaces.poset import GradedPoset, _bits

from helpers import (
    disguised,
    flats_lattice_text,
    partition_lattice_text,
    type_a_roots,
    weight_corpus,
)
from oracles import (
    chains_oracle,
    independent_sets_by_size_oracle,
    reduced_betti_oracle,
    sympy_betti,
)


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
    for v, (mask, down) in enumerate(zip(oc.above, oc.below)):
        above = {oc.vertices[w] for w in _bits(mask)}
        assert above == {e for e in p.elements if p.lt(oc.vertices[v], e)}
        assert {oc.vertices[w] for w in _bits(down)} == {
            e for e in p.elements if p.lt(e, oc.vertices[v])
        }
        assert mask & ((2 << v) - 1) == 0  # a linear extension: everything above comes later
    levels = _simplices_by_dim(oc)
    expected = chains_oracle(p)
    assert len(levels) == len(expected)
    assert _chain_count(oc.above) == sum(map(len, levels))

    def names(mask):
        return frozenset(oc.vertices[v] for v in _bits(mask))

    for dim, (level, chains) in enumerate(zip(levels, expected)):
        assert len({chain for chain, _ in level}) == len(level)
        assert {names(chain) for chain, _ in level} == chains
        longer = expected[dim + 1] if dim + 1 < len(expected) else set()
        for chain, insertable in level:
            assert chain & insertable == 0
            assert {names(chain | 1 << v) for v in _bits(insertable)} == {
                c for c in longer if names(chain) < c
            }
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


@pytest.fixture
def columns_built(monkeypatch):
    """The (face, insertable) arguments of every coboundary column the reduction builds."""
    built = []
    column = complexes._column
    monkeypatch.setattr(complexes, "_column", lambda *args: built.append(args) or column(*args))
    return built


def test_flats_lattices_and_independence_complexes_build_no_column(columns_built):
    """The lowest coface of every column reached is a new pivot, whatever the element order."""
    rng = random.Random(15)
    for n in (3, 4, 5):  # the partition lattice of n + 1 blocks, as a shuffled file
        proper = parse_poset(partition_lattice_text(rng, n)).proper_part()
        assert reduced_betti(order_complex(proper))[n - 2] == factorial(n)
    for ws in weight_corpus(seed=15, count=40, max_n=6):
        lattice = parse_poset(flats_lattice_text(rng, ws))
        if len(lattice.elements) > 2:
            reduced_betti(order_complex(lattice.proper_part()))
        reduced_betti(independence_complex(disguised(rng, ws)))
    assert columns_built == []


# a < b < c beside d < c, numbered d, a, b, c: the columns of a and b meet at {a, b}
MEETING = GradedPoset(["d", "a", "b", "c"], [("b", "c"), ("a", "b"), ("d", "c")])


def test_columns_meet_and_an_emergent_column_is_built_on_demand(columns_built):
    oc = order_complex(MEETING)
    assert oc.vertices == ("d", "a", "b", "c")
    betti = reduced_betti(oc)
    # vertex b's lowest coface {a, b} is vertex a's emergent pivot, so both columns are built
    assert [face for face, _ in columns_built] == [0b0100, 0b0010]
    all_chains = SimplicialComplex(MEETING.elements, oc.facets)
    assert betti == reduced_betti_oracle(all_chains) == sympy_betti(all_chains)
    assert betti == {-1: 0, 0: 0, 1: 0, 2: 0}


@settings(derandomize=True, max_examples=40, deadline=None)
@given(posets())
def test_betti_where_columns_meet_match_the_oracles(p):
    column = complexes._column
    built = []
    with mock.patch.object(complexes, "_column", lambda *a: built.append(a) or column(*a)):
        betti = reduced_betti(order_complex(p))
    assume(built)
    all_chains = SimplicialComplex(
        p.elements, tuple(c for level in chains_oracle(p) for c in level)
    )
    assert betti == reduced_betti_oracle(all_chains) == sympy_betti(all_chains)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(posets(), st.randoms(use_true_random=False))
def test_element_order_leaves_the_betti_numbers_unchanged(p, rng):
    shuffled = list(p.elements)
    rng.shuffle(shuffled)
    again = GradedPoset(shuffled, p.covers)
    assert reduced_betti(order_complex(again)) == reduced_betti(order_complex(p))


def chain_cap_message(vertices: int, chains: int, cap: int = CHAIN_CAP) -> str:
    return (
        f"error: enumeration cap of {cap} order-complex chains exceeded: the order complex "
        f"on {vertices} vertices has {chains} chains, counted before listing any\n"
    )


@pytest.fixture(scope="module")
def a7_poset(tmp_path_factory):
    path = tmp_path_factory.mktemp("a7") / "a7.poset"
    path.write_text(partition_lattice_text(random.Random(7), 7))
    return path


def test_a7_proper_part_homology_lists_no_chain(a7_poset, capsys):
    assert cli.main(["poset", "homology", "--proper", str(a7_poset)]) == 0
    assert capsys.readouterr() == ("".join(f"b~{d} = 0\n" for d in range(-1, 5)) + "b~5 = 5040\n", "")


def test_a7_proper_part_is_refused_by_the_chain_engine_before_any_chain_is_listed(a7_poset):
    proper = parse_poset(a7_poset.read_text()).proper_part()
    with pytest.raises(EnumerationCapExceeded) as err:
        reduced_betti(order_complex(proper))
    assert f"error: {err.value}\n" == chain_cap_message(4138, 10_270_695)


def test_a7_homology_without_proper_is_refused_before_any_chain_is_listed(a7_poset, capsys):
    assert cli.main(["poset", "homology", str(a7_poset)]) == 1
    assert capsys.readouterr() == ("", chain_cap_message(4140, 41_082_783))


def test_facets_are_listed_under_the_chain_cap(monkeypatch):
    """The A3 proper part has 31 chains, and its facets are read off their listing."""
    proper = flats_lattice(WeightSystem(3, type_a_roots(3))).proper_part()
    monkeypatch.setattr(complexes, "CHAIN_CAP", 31)
    assert len(order_complex(proper).facets) == 18
    monkeypatch.setattr(complexes, "CHAIN_CAP", 30)
    with pytest.raises(EnumerationCapExceeded) as err:
        order_complex(proper).facets
    assert (err.value.cap, err.value.reached) == (30, 31)
    assert f"error: {err.value}\n" == chain_cap_message(13, 31, cap=30)


def test_chain_cap_counts_every_chain(monkeypatch):
    """The proper part of the A3 partition lattice: 6 atoms, 7 coatoms and 18 edges."""
    proper = flats_lattice(WeightSystem(3, type_a_roots(3))).proper_part()
    monkeypatch.setattr(complexes, "CHAIN_CAP", 31)
    assert reduced_betti(order_complex(proper))[1] == 6
    monkeypatch.setattr(complexes, "CHAIN_CAP", 30)
    with pytest.raises(EnumerationCapExceeded) as err:
        reduced_betti(order_complex(proper))
    assert f"error: {err.value}\n" == chain_cap_message(13, 31, cap=30)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_lattice_homology_lists_no_chain(n, monkeypatch, tmp_path, capsys):
    """With no chain allowed, `matroid wedge` and `poset homology --proper` still pass on A_n."""
    weights, lattice = tmp_path / "a.wt", tmp_path / "a.poset"
    weights.write_text(format_matroid(WeightSystem(n, type_a_roots(n))))
    lattice.write_text(partition_lattice_text(random.Random(n), n))
    monkeypatch.setattr(complexes, "CHAIN_CAP", 0)
    assert cli.main(["matroid", "wedge", str(weights)]) == 0
    assert capsys.readouterr().out.endswith("wedge prediction: pass\n")
    assert cli.main(["poset", "homology", "--proper", str(lattice)]) == 0
    assert capsys.readouterr().out.endswith(f"b~{n - 2} = {factorial(n)}\n")


def test_independent_set_cap_counts_every_nonempty_independent_set(monkeypatch):
    """A3 has 6 + 15 + 16 = 37 nonempty independent sets, counted size by size."""
    ws = WeightSystem(3, type_a_roots(3))
    monkeypatch.setattr(matroid, "INDEPENDENT_SET_CAP", 37)
    assert len(independence_complex(ws).facets) == 16
    monkeypatch.setattr(matroid, "INDEPENDENT_SET_CAP", 36)
    with pytest.raises(EnumerationCapExceeded) as err:
        independence_complex(ws)
    assert f"error: {err.value}\n" == (
        "error: enumeration cap of 36 independent sets exceeded: the 6 weights have 37 "
        "nonempty independent sets of at most 3 weights, counted before listing them\n"
    )


@pytest.mark.parametrize("n, betti", [(3, 6), (4, 51), (5, 560), (6, 7575)])
def test_wedge_lists_no_independent_set(n, betti, monkeypatch, tmp_path, capsys):
    """With no independent set allowed, `matroid wedge` still passes on disguised A_n."""
    path = tmp_path / "a.wt"
    path.write_text(format_matroid(disguised(random.Random(n), WeightSystem(n, type_a_roots(n)))))
    monkeypatch.setattr(matroid, "INDEPENDENT_SET_CAP", 0)
    assert cli.main(["matroid", "wedge", str(path)]) == 0
    out = capsys.readouterr().out
    zeros = "".join(f"b~{d}=0 " for d in range(-1, n - 1))
    assert f"top h-number: {betti}\nindependence complex: pass ({zeros}b~{n - 1}={betti})\n" in out


@st.composite
def parallel_weight_systems(draw):
    """Weights drawn from a few lines in Z^k, k <= 4, with repeats and scaled (parallel) copies."""
    k = draw(st.integers(1, 4))
    lines = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * k).filter(any), min_size=1, max_size=5))
    picks = st.tuples(st.sampled_from(lines), st.sampled_from([1, 1, -1, 2, -3]))
    weights = draw(st.lists(picks, min_size=1, max_size=8))
    return WeightSystem(k, [tuple(c * x for x in line) for line, c in weights])


@settings(derandomize=True, max_examples=150, deadline=None)
@given(parallel_weight_systems())
def test_wedge_independence_betti_is_that_of_the_listed_complex(ws):
    report = verify_wedge_prediction(ws)
    assert report.complex_betti == reduced_betti(independence_complex(ws))
    assert report.complex_ok


@settings(derandomize=True, max_examples=100, deadline=None)
@given(parallel_weight_systems())
def test_counted_f_vector_is_the_subset_scan(ws):
    f, _ = complexes._independence_numbers(*ws._lattice)
    assert f == independent_sets_by_size_oracle(list(ws.weights))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_counted_f_vector_of_a_n_is_the_listed_one(n):
    ws = disguised(random.Random(n), WeightSystem(n, type_a_roots(n)))
    f, _ = complexes._independence_numbers(*ws._lattice)
    assert f == independence_complex(ws).f_vector()


def test_wedge_on_generic_plane_weights_past_the_independent_set_cap(tmp_path, capsys):
    """1 500 weights (1, i): 1 125 750 nonempty independent sets, more than the cap.

    Every pair is a basis, so the complex is the complete graph on 1 500
    vertices, b~1 = C(1499, 2).  A recursion per weight would pass
    Python's default limit of 1 000 frames; this one is two deep.
    """
    n = 1500
    path = tmp_path / "plane.wt"
    path.write_text(format_matroid(WeightSystem(2, [(1, i) for i in range(n)])))
    assert cli.main(["matroid", "wedge", str(path)]) == 0
    out = capsys.readouterr().out
    betti = (n - 1) * (n - 2) // 2
    assert f"independence complex: pass (b~-1=0 b~0=0 b~1={betti})\n" in out


@pytest.mark.parametrize("command", ["flats", "check", "wedge"])
def test_flats_cap_counts_every_flat(command, monkeypatch, tmp_path, capsys):
    """A3 has Bell(4) = 15 flats, counted as the search finds them, bottom and top among them."""
    path = tmp_path / "a3.wt"
    path.write_text(format_matroid(WeightSystem(3, type_a_roots(3))))
    monkeypatch.setattr(matroid, "FLATS_CAP", 15)
    assert cli.main(["matroid", command, str(path)]) == 0
    monkeypatch.setattr(matroid, "FLATS_CAP", 14)
    capsys.readouterr()
    assert cli.main(["matroid", command, str(path)]) == 1
    assert capsys.readouterr() == (
        "",
        "error: enumeration cap of 14 flats exceeded: 15 flats of the 6 weights (rank 3) "
        "found, the last of rank 2\n",
    )
