import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkmfaces.errors import (
    EmptyPoset,
    GkmFacesError,
    Incomparable,
    MissingAtomWeight,
    NotLocallyGeometric,
    PreconditionFailed,
)
from gkmfaces.matroid import WeightSystem, flats_lattice
from gkmfaces.poset import (
    GradedPoset,
    _first_failure,
    _geometric_by_covers,
    are_isomorphic,
    check_coherent,
    check_gkm_coherent,
    compactify,
    glue_top,
    grading_of,
    is_geometric_lattice,
    is_graded,
    is_locally_geometric,
    mobius,
    projectivize,
)

from helpers import (
    BASIS2,
    COLLINEAR,
    UNIFORM23,
    corpus_matroid,
    corpus_poset,
    graded_posets,
    random_weight_system,
    type_a_roots,
    weight_corpus,
)
from oracles import (
    computed_ranks_oracle,
    is_geometric_lattice_oracle,
    is_locally_geometric_oracle,
    mobius_oracle,
)


def chain(n):
    elems = list(range(n))
    return GradedPoset(elems, [(i, i + 1) for i in range(n - 1)])


def test_empty_poset_rejected():
    with pytest.raises(EmptyPoset):
        GradedPoset([], [])


def test_cycle_rejected():
    with pytest.raises(ValueError):
        GradedPoset(["a", "b"], [("a", "b"), ("b", "a")])


@pytest.mark.parametrize(
    "elements, covers, labels, message",
    [
        (["a", "a"], [], {}, "duplicate element identifiers"),
        (["a", "b"], [("a", "c")], {}, r"cover \('a', 'c'\) uses unknown elements"),
        (["a", "b"], [("a", "a")], {}, r"cover \('a', 'a'\) is a self-loop"),
        (["a", "b"], [("a", "b")], {"rank": {"a": 0}}, "rank labelling must cover exactly"),
        (["a", "b"], [("a", "b")], {"drk": {"a": 0, "c": 1}}, "drk labelling must cover exactly"),
    ],
    ids=["duplicate", "unknown", "self-loop", "rank", "drk"],
)
def test_graded_poset_constructor_checks(elements, covers, labels, message):
    with pytest.raises(ValueError, match=message):
        GradedPoset(elements, covers, **labels)


def test_is_graded_chain():
    verdict = is_graded(chain(3))
    assert verdict
    assert grading_of(chain(3)) == {0: 0, 1: 1, 2: 2}


def test_is_graded_rank_conflict():
    # c is reachable at rank 1 via a and rank 2 via a < d < c
    p = GradedPoset(["a", "b", "c", "d"], [("a", "c"), ("b", "c"), ("a", "d"), ("d", "c")])
    verdict = is_graded(p)
    assert not verdict
    assert "c" in verdict.reason


def test_is_graded_flats_u23():
    assert is_graded(flats_lattice(UNIFORM23))


def test_is_graded_checks_stored_ranks():
    p = GradedPoset(["a", "b"], [("a", "b")], rank={"a": 0, "b": 2})
    verdict = is_graded(p)
    assert not verdict and "stored rank" in verdict.reason


def test_geometric_lattice_boolean():
    from gkmfaces.matroid import WeightSystem

    b3 = flats_lattice(WeightSystem(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    assert is_geometric_lattice(b3)


def test_geometric_lattice_u23():
    assert is_geometric_lattice(flats_lattice(UNIFORM23))


def test_geometric_lattice_rejects_unequal_chains():
    p = GradedPoset(
        ["bot", "a", "b", "c", "top"],
        [("bot", "a"), ("a", "top"), ("bot", "b"), ("b", "c"), ("c", "top")],
    )
    verdict = is_geometric_lattice(p)
    assert not verdict
    assert "not graded" in verdict.reason


def test_locally_geometric_on_geometric_lattices():
    for ws in (BASIS2, UNIFORM23, COLLINEAR):
        assert is_locally_geometric(flats_lattice(ws))


def test_locally_geometric_compactified():
    verdict = is_locally_geometric(compactify(flats_lattice(UNIFORM23)))
    assert verdict and verdict.rank == 2


def test_mobius_identity():
    p = flats_lattice(UNIFORM23)
    for e in p.elements:
        assert mobius(p, e, e) == 1


def test_mobius_boolean_square():
    b2 = flats_lattice(BASIS2)
    assert mobius(b2, (), (1, 2)) == 1


def test_mobius_u23_matches_oracle():
    p = flats_lattice(UNIFORM23)
    expected = mobius_oracle(p.leq, list(p.elements), (), (1, 2, 3))
    assert expected == 2
    assert mobius(p, (), (1, 2, 3)) == 2


def test_mobius_incomparable():
    p = flats_lattice(UNIFORM23)
    with pytest.raises(Incomparable):
        mobius(p, (1,), (2,))


def test_mobius_rota_sign_on_random_lattices():
    for ws in weight_corpus(seed=23, count=40, max_n=6):
        p = flats_lattice(ws)
        ranks = grading_of(p)
        top = p.top()
        value = mobius(p, p.bottom(), top)
        assert value != 0
        assert (value > 0) == (ranks[top] % 2 == 0)


def test_check_coherent_flats_multiplicity():
    p = flats_lattice(COLLINEAR)
    atoms = [e for e in p.elements if grading_of(p)[e] == 1]
    result = check_coherent(p, {a: p.drk[a] for a in atoms})
    assert result
    assert result.drk[p.top()] == COLLINEAR.size
    assert result.drk[p.bottom()] == 0


def test_check_coherent_single_point():
    p = GradedPoset(["x"], [])
    result = check_coherent(p, {})
    assert result and result.drk == {"x": 0}


def test_check_coherent_glued_violation():
    glued = glue_top(flats_lattice(BASIS2), flats_lattice(UNIFORM23))
    assert is_locally_geometric(glued)
    result = check_coherent(glued, {a: 1 for a in glued.elements if grading_of(glued)[a] == 1})
    assert not result
    assert result.element == ("top",)
    sums = sorted(total for _, total in result.conflict)
    assert sums == [2, 3]


def test_check_gkm_coherent_boolean():
    from gkmfaces.matroid import WeightSystem

    bn = flats_lattice(WeightSystem(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    result = check_gkm_coherent(bn)
    assert result and result.drk[bn.top()] == 3


def test_check_gkm_coherent_collinear_lattice():
    p = flats_lattice(COLLINEAR)
    result = check_gkm_coherent(p)
    assert result
    # with unit atom weights drk counts atoms, not weight multiplicity
    assert result.drk[p.top()] == 2
    assert p.drk[p.top()] == 3


def test_check_gkm_coherent_glued_fails():
    glued = glue_top(flats_lattice(BASIS2), flats_lattice(UNIFORM23))
    assert not check_gkm_coherent(glued)


def test_check_coherent_requires_locally_geometric():
    p = GradedPoset(["a", "b"], [])  # two incomparable points, no top
    with pytest.raises(NotLocallyGeometric):
        check_coherent(p, {})


def test_check_coherent_needs_a_positive_weight_on_every_atom():
    p = flats_lattice(UNIFORM23)
    atoms = [a for a in p.elements if p.rank[a] == 1]
    weights = {a: 1 for a in atoms}
    with pytest.raises(MissingAtomWeight, match=re.escape(f"no weight for atom {atoms[-1]!r}")):
        check_coherent(p, {a: 1 for a in atoms[:-1]})
    weights[atoms[0]] = 0
    message = re.escape(f"atom weight for {atoms[0]!r} must be positive")
    with pytest.raises(ValueError, match=message):
        check_coherent(p, weights)


def test_compactify_b1():
    from gkmfaces.matroid import WeightSystem

    b1 = flats_lattice(WeightSystem(1, [(1,)]))
    doubled = compactify(b1)
    assert len(doubled.elements) == 3
    assert len(doubled.minimal_elements()) == 2
    assert doubled.top() is not None
    assert is_locally_geometric(doubled)


def test_compactify_primes_the_double_past_a_taken_name():
    doubled = compactify(GradedPoset(["0", "0'"], [("0", "0'")]))
    assert doubled.elements == ("0", "0'", "0''")
    assert doubled.labels["0''"] == "0'"
    assert ("0''", "0'") in doubled.covers


def test_compactify_u23_and_b2_counts():
    assert len(compactify(flats_lattice(UNIFORM23)).elements) == 6
    b2c = compactify(flats_lattice(BASIS2))
    assert len(b2c.elements) == 5
    ranks = grading_of(b2c)
    assert sorted(ranks.values()) == [0, 0, 1, 1, 2]


def test_projectivize_b2():
    p = projectivize(flats_lattice(BASIS2))
    assert len(p.elements) == 3
    assert len(p.minimal_elements()) == 2
    assert grading_of(p)[p.top()] == 1


def test_projectivize_b3_shape():
    from gkmfaces.matroid import WeightSystem

    b3 = flats_lattice(WeightSystem(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    cp2 = projectivize(b3)
    assert len(cp2.elements) == 7
    ranks = grading_of(cp2)
    assert sorted(ranks.values()) == [0, 0, 0, 1, 1, 1, 2]


def test_projectivize_u23_count():
    assert len(projectivize(flats_lattice(UNIFORM23)).elements) == 4


def test_projectivize_builds_its_result_once(monkeypatch):
    """Counted in `_build`, the construction core of `__init__` and `_from_positions` alike."""
    lattice = flats_lattice(UNIFORM23)
    built = []
    build = GradedPoset._build

    def counted(self, *args):
        built.append(self)
        build(self, *args)

    monkeypatch.setattr(GradedPoset, "_build", counted)
    p = projectivize(lattice)
    assert built == [p]


def test_projectivize_rank_zero_rejected():
    p = GradedPoset(["x"], [])
    with pytest.raises(ValueError):
        projectivize(p)


def test_glue_top_counts():
    b2 = flats_lattice(BASIS2)
    assert len(glue_top(b2, b2).elements) == 7
    glued = glue_top(b2, flats_lattice(UNIFORM23))
    assert len(glued.elements) == 8
    assert is_locally_geometric(glued)


def test_glue_top_b1_pair():
    from gkmfaces.matroid import WeightSystem

    b1 = flats_lattice(WeightSystem(1, [(1,)]))
    assert len(glue_top(b1, b1).elements) == 3


def test_glue_top_unequal_ranks():
    from gkmfaces.matroid import WeightSystem

    b1 = flats_lattice(WeightSystem(1, [(1,)]))
    with pytest.raises(ValueError):
        glue_top(b1, flats_lattice(BASIS2))


def test_upper_ideals_of_flats_are_geometric():
    for ws in (BASIS2, UNIFORM23, COLLINEAR):
        p = flats_lattice(ws)
        for s in p.elements:
            assert is_geometric_lattice(p.upper_ideal(s))


def test_constructions_locally_geometric_randomized():
    for ws in weight_corpus(seed=31, count=25, max_n=5):
        p = flats_lattice(ws)
        assert is_locally_geometric(compactify(p))
        if grading_of(p)[p.top()] >= 1:
            assert is_locally_geometric(projectivize(p))


def test_com_monotone_on_flats_lattices():
    for ws in weight_corpus(seed=37, count=30, max_n=6):
        p = flats_lattice(ws)
        ranks = grading_of(p)
        atoms = [e for e in p.elements if ranks[e] == 1]
        result = check_coherent(p, {a: p.drk[a] for a in atoms})
        assert result
        for low, high in p.covers:
            com_low = result.drk[low] - ranks[low]
            com_high = result.drk[high] - ranks[high]
            assert com_low <= com_high


def test_isomorphism_positive_and_negative():
    b2 = flats_lattice(BASIS2)
    relabeled = GradedPoset(
        ["x", "p", "q", "t"],
        [("x", "p"), ("x", "q"), ("p", "t"), ("q", "t")],
    )
    assert are_isomorphic(b2, relabeled)
    assert not are_isomorphic(b2, flats_lattice(UNIFORM23))
    assert not are_isomorphic(b2, chain(4))


def test_isomorphism_detects_cover_structure():
    p = GradedPoset(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    q = GradedPoset(["a", "b", "c", "d"], [("a", "b"), ("a", "c"), ("b", "d")])
    assert not are_isomorphic(p, q)


def test_hasse_covers_strip_redundant_pairs():
    p = GradedPoset(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")])
    assert sorted(p.hasse_covers()) == [("a", "b"), ("b", "c")]


def test_meet_join_on_u23():
    p = flats_lattice(UNIFORM23)
    assert p.join((1,), (2,)) == (1, 2, 3)
    assert p.meet((1,), (2,)) == ()


def test_random_flats_lattice_meets_are_intersections():
    rng = random.Random(41)
    for ws in weight_corpus(seed=43, count=20, max_n=6):
        p = flats_lattice(ws)
        elems = list(p.elements)
        for _ in range(30):
            a, b = rng.choice(elems), rng.choice(elems)
            meet = p.meet(a, b)
            assert set(meet) == set(a) & set(b)


# ----------------------------------------------------------------------
# lattice predicates against the all-pairs oracles


def poset_of(elements, relations):
    return GradedPoset(elements, [tuple(pair.split("<")) for pair in relations.split()])


BOWTIE = poset_of(["0", "a", "b", "c", "d", "1"], "0<a 0<b a<c a<d b<c b<d c<1 d<1")
BASIS3 = WeightSystem(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
NOT_ATOMISTIC = poset_of(["0", "a", "b", "c", "d", "1"], "0<a 0<b a<c b<c a<d c<1 d<1")
# name -> (a builder, called by the test, so that a defect in it fails one case; expected reason)
NAMED_POSETS = {
    # the pentagon: chains of lengths 2 and 3 between 0 and 1
    "pentagon": (lambda: poset_of(["0", "a", "b", "c", "1"], "0<a a<b b<1 0<c c<1"), "not graded"),
    "bowtie": (lambda: BOWTIE, "join of 'a' and 'b' does not exist"),
    "bowtie, tops first": (
        lambda: GradedPoset(["c", "d", "0", "a", "b", "1"], BOWTIE.covers),
        "meet of 'c' and 'd' does not exist",
    ),
    "not atomistic": (lambda: NOT_ATOMISTIC, "element 'd' is not the join of the atoms below it"),
    "not submodular": (
        lambda: poset_of(["0", "a", "b", "c", "d", "x", "y", "1"], "0<a 0<b 0<c 0<d a<x b<x c<y d<y x<1 y<1"),
        "rank submodularity fails for 'a', 'c'",
    ),
    # two minimal elements below s; the ideal at s is listed first and fails
    "two minima": (
        lambda: poset_of(["s", "x1", "x2", "a", "b", "c", "d", "1"], "x1<s x2<s s<a s<b a<c a<d b<c b<d c<1 d<1"),
        "upper ideal at 's' is not a geometric lattice: join of 'a' and 'b' does not exist",
    ),
    # the first minimal element passes, the second one fails
    "glued, right side fails": (
        lambda: glue_top(flats_lattice(BASIS3), NOT_ATOMISTIC),
        "upper ideal at ('R', '0') is not a geometric lattice: "
        "element ('R', 'd') is not the join of the atoms below it",
    ),
    # below: the cases the cover test `_geometric_by_covers` must not pass
    "chain": (
        lambda: poset_of(["0", "a", "b"], "0<a a<b"),
        "element 'b' is not the join of the atoms below it",
    ),
    # one atom, so every element-atom join exists; x and y have two minimal upper bounds
    "bowtie over one atom": (
        lambda: poset_of(["0", "a", "x", "y", "u", "v", "1"], "0<a a<x a<y x<u x<v y<u y<v u<1 v<1"),
        "join of 'x' and 'y' does not exist",
    ),
    # any two atoms are joined by a line, but the lines ac and cd through c only by the top
    "semimodular at the atoms only": (
        lambda: poset_of(
            ["0", "a", "b", "c", "d", "ab", "ac", "ad", "bc", "bd", "cd", "abc", "abd", "bcd", "1"],
            "0<a 0<b 0<c 0<d a<ab b<ab a<ac c<ac a<ad d<ad b<bc c<bc b<bd d<bd c<cd d<cd "
            "ab<abc ac<abc bc<abc ab<abd ad<abd bd<abd bc<bcd bd<bcd cd<bcd abc<1 abd<1 bcd<1",
        ),
        "rank submodularity fails for 'a', 'cd'",
    ),
    "glued": (lambda: corpus_poset("glued.poset"), ""),
    "compactified u23": (lambda: compactify(flats_lattice(UNIFORM23)), ""),
    "compactified coll": (lambda: compactify(flats_lattice(COLLINEAR)), ""),
}


def same_verdict(fast, oracle):
    return (fast.ok, fast.reason, fast.rank) == (oracle.ok, oracle.reason, oracle.rank)


@pytest.mark.parametrize("name", sorted(NAMED_POSETS))
def test_named_posets_match_the_oracles(name):
    build, expected = NAMED_POSETS[name]
    p = build()
    geometric, locally = is_geometric_lattice(p), is_locally_geometric(p)
    assert same_verdict(geometric, is_geometric_lattice_oracle(p))
    assert same_verdict(locally, is_locally_geometric_oracle(p))
    assert expected in locally.reason
    if name.startswith("compactified") or name == "glued":
        assert locally and len(p.minimal_elements()) == 2


def test_passing_posets_scan_no_pairs(monkeypatch):
    """The cover test passes every geometric up-set without the all-pairs scan."""
    from gkmfaces import poset

    passing = [
        corpus_poset("glued.poset"),
        *(flats_lattice(corpus_matroid(name)) for name in ("b2.wt", "u23.wt", "coll.wt")),
        *(flats_lattice(WeightSystem(n, type_a_roots(n))) for n in (2, 3, 4)),
        *(compactify(flats_lattice(ws)) for ws in (UNIFORM23, COLLINEAR)),
        *(flats_lattice(ws) for ws in weight_corpus(seed=17, count=20, max_n=6)),
    ]
    scans = []
    monkeypatch.setattr(poset, "_first_failure", lambda p, s: scans.append(s))
    for p in passing:
        assert is_locally_geometric(p)
        if p.bottom() is not None:
            assert is_geometric_lattice(p)
    assert scans == []


@st.composite
def small_posets(draw):
    """Posets on up to 9 elements built by levels, some not graded.

    Covers join consecutive levels, plus at times one pair that skips a
    level; a bottom and a top may be added.  The element order is drawn
    too, since the predicates report the first witness in that order.
    """
    n = draw(st.integers(1, 7))
    level = [draw(st.integers(0, 3)) for _ in range(n)]
    covers = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if level[j] == level[i] + 1 and draw(st.booleans())
    ]
    skips = [(i, j) for i in range(n) for j in range(n) if level[j] > level[i] + 1]
    if skips and draw(st.booleans()):
        covers.append(draw(st.sampled_from(skips)))
    names = [f"e{i}" for i in range(n)]
    if draw(st.booleans()):
        maxima = set(range(n)) - {low for low, _ in covers}
        names.append("top")
        covers += [(i, n) for i in sorted(maxima)]
    if draw(st.booleans()):
        minima = set(range(len(names))) - {high for _, high in covers}
        names.append("bot")
        covers += [(len(names) - 1, i) for i in sorted(minima)]
    order = draw(st.permutations(names))
    return GradedPoset(order, [(names[a], names[b]) for a, b in covers])


@st.composite
def layered_posets(draw):
    """Graded posets with a top and one or two minimal elements.

    Up to three levels of one to three elements; every element covers
    one on the level below and is covered by one on the level above, and
    the minimal elements lie below the whole first level.
    """
    layers, n = [], 0
    for size in draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)):
        layers.append(range(n, n + size))
        n += size
    covers = set()
    for low, high in zip(layers, layers[1:]):
        covers |= {(i, j) for i in low for j in high if draw(st.booleans())}
        covers |= {(draw(st.sampled_from(low)), j) for j in high if not any((i, j) in covers for i in low)}
        covers |= {(i, draw(st.sampled_from(high))) for i in low if not any((i, j) in covers for j in high)}
    names = [f"e{i}" for i in range(n)]
    for b in range(draw(st.integers(1, 2))):
        names.append(f"bot{b}")
        covers |= {(len(names) - 1, i) for i in layers[0]}
    names.append("top")
    covers |= {(i, len(names) - 1) for i in layers[-1]}
    order = draw(st.permutations(names))
    return GradedPoset(order, [(names[a], names[b]) for a, b in sorted(covers)])


@st.composite
def flats_based_posets(draw):
    """Flats lattices, compactified, glued or with one element removed."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    p = flats_lattice(random_weight_system(rng, max_n=5, max_k=3))
    change = draw(st.sampled_from(["none", "compactify", "glue", "drop"]))
    if change == "compactify":
        p = compactify(p)
    elif change == "glue":
        q = flats_lattice(random_weight_system(rng, max_n=5, max_k=3))
        if grading_of(p)[p.top()] == grading_of(q)[q.top()]:
            p = glue_top(p, q)
    elif change == "drop" and len(p.elements) > 2:
        dropped = draw(st.sampled_from(p.elements))
        p = p.induced(e for e in p.elements if e != dropped)
    order = draw(st.permutations(p.elements))
    return GradedPoset(order, p.covers)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.one_of(small_posets(), layered_posets(), flats_based_posets()))
def test_lattice_predicates_match_the_oracles(p):
    assert same_verdict(is_geometric_lattice(p), is_geometric_lattice_oracle(p))
    assert same_verdict(is_locally_geometric(p), is_locally_geometric_oracle(p))
    if is_graded(p):  # the cover test sends exactly the failing up-sets to the scan
        for s in range(len(p.elements)):
            assert _geometric_by_covers(p, s) == (_first_failure(p, s) == "")
    for s in p.elements:
        for t in p.up_set(s):
            assert mobius(p, s, t) == mobius_oracle(p.leq, list(p.elements), s, t)


def is_graded_oracle(p) -> bool:
    """Graded exactly when, at every element, the longest and the shortest
    path from a source of the cover DAG have the same length, and that
    length is the stored rank when there is one (networkx path lengths)."""
    import networkx as nx

    source = ("source",)
    dag = nx.DiGraph()
    dag.add_nodes_from(p.elements)
    dag.add_edges_from(p.covers, weight=-1)
    dag.add_edges_from(((source, e) for e in p.elements if dag.in_degree(e) == 0), weight=-1)
    shortest = nx.single_source_shortest_path_length(dag, source)
    longest = {e: -d for e, d in nx.single_source_bellman_ford_path_length(dag, source).items()}
    return all(
        shortest[e] == longest[e] and (p.rank is None or p.rank[e] == shortest[e] - 1)
        for e in p.elements
    )


@st.composite
def ranked_cover_dags(draw):
    """Cover DAGs over up to four levels, with or without stored ranks.

    Covers go upward between levels, either only to the next level or
    across any gap.  Stored ranks, when present, are the longest-path
    ranks, with one of them moved by one in some examples.
    """
    levels = sorted(draw(st.lists(st.integers(0, 3), min_size=2, max_size=8)))
    n = len(levels)
    step = draw(st.sampled_from([1, None]))
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if levels[i] < levels[j] and step in (None, levels[j] - levels[i])
    ]
    covers = []
    if pairs:
        at_least = min(len(pairs), n - 1)
        covers = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=at_least, max_size=14))
    stored = draw(st.sampled_from(["none", "longest", "moved"]))
    rank = None
    if stored != "none":
        rank = dict.fromkeys(range(n), 0)
        for i, j in sorted(covers, key=lambda c: levels[c[0]]):
            rank[j] = max(rank[j], rank[i] + 1)
        if stored == "moved":
            rank[draw(st.integers(0, n - 1))] += draw(st.sampled_from([-1, 1]))
    return GradedPoset(draw(st.permutations(range(n))), covers, rank=rank)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(ranked_cover_dags())
def test_is_graded_matches_the_networkx_oracle(p):
    verdict = is_graded(p)
    assert bool(verdict) == is_graded_oracle(p)
    if verdict:
        assert verdict.rank == max(grading_of(p).values())
    else:
        assert verdict.reason


@settings(derandomize=True, max_examples=100, deadline=None)
@given(ranked_cover_dags())
def test_extremal_elements_are_the_ends_of_no_cover(p):
    lows, highs = {low for low, _ in p.covers}, {high for _, high in p.covers}
    assert p.minimal_elements() == [e for e in p.elements if e not in highs]
    assert p.maximal_elements() == [e for e in p.elements if e not in lows]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(ranked_cover_dags())
def test_join_and_meet_match_the_brute_force_bounds(p):
    """Non-lattices too: a pair with no common bound, or with several minimal ones, gets None."""
    for a in p.elements:
        for b in p.elements:
            upper = [c for c in p.elements if p.leq(a, c) and p.leq(b, c)]
            lower = [c for c in p.elements if p.leq(c, a) and p.leq(c, b)]
            least = [c for c in upper if all(p.leq(c, d) for d in upper)]
            greatest = [c for c in lower if all(p.leq(d, c) for d in lower)]
            assert p.join(a, b) == (least[0] if least else None)
            assert p.meet(a, b) == (greatest[0] if greatest else None)


def graded_ranks_oracle(p):
    """The cover-pass ranks, or None and why, also failing where a stored label disagrees."""
    ranks, reason = computed_ranks_oracle(p)
    if ranks is None or p.rank is None:
        return ranks, reason
    for e in p.elements:
        if p.rank[e] != ranks[e]:
            return None, f"stored rank {p.rank[e]} of {e!r} disagrees with computed {ranks[e]}"
    return ranks, ""


def outcome(fn, *args):
    """What fn(*args) returns, or the type and message of the error it raises."""
    try:
        return fn(*args)
    except GkmFacesError as exc:
        return type(exc), str(exc)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(ranked_cover_dags())
def test_grading_matches_the_cover_pass_oracle(p):
    ranks, reason = graded_ranks_oracle(p)
    verdict = is_graded(p)
    assert (verdict.ok, verdict.reason) == (ranks is not None, reason)
    ungraded = (PreconditionFailed, f"poset is not graded: {reason}")
    assert outcome(grading_of, p) == (ranks if ranks is not None else ungraded)
    # weight 1 on the atoms; check_coherent fails before reading it on a poset without ranks
    ones = {e: 1 for e in p.elements if ranks is not None and ranks[e] == 1}
    coherent = outcome(check_coherent, p, ones)
    locally = is_locally_geometric_oracle(p)
    if not locally:
        reason = f"poset is not locally geometric: {locally.reason}"
        assert coherent == (NotLocallyGeometric, reason)
    # only covers that force no ranking at all have a message of their own
    covers_ranks, covers_reason = computed_ranks_oracle(p)
    if covers_ranks is None:
        coherent = (NotLocallyGeometric, f"poset is not graded: {covers_reason}")
    assert outcome(check_gkm_coherent, p) == coherent


def test_check_gkm_coherent_grades_the_poset_once(monkeypatch):
    p = corpus_poset("glued.poset")
    graded = graded_posets(monkeypatch)
    check_gkm_coherent(p)
    assert graded == [p]


@pytest.mark.parametrize(
    "make", [lambda: corpus_poset("glued.poset"), lambda: flats_lattice(UNIFORM23)], ids=["glued", "u23"]
)
def test_check_coherent_after_the_check_scans_no_up_set(monkeypatch, make):
    from gkmfaces import poset

    p = make()
    assert is_locally_geometric(p)
    scans = []
    scan = poset._geometric_by_covers
    monkeypatch.setattr(poset, "_geometric_by_covers", lambda q, s: scans.append(s) or scan(q, s))
    check_coherent(p, dict.fromkeys(poset.atoms_of(p), 1))
    check_gkm_coherent(p)
    assert scans == []
