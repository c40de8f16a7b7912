"""Finite graded posets stored by their cover relation.

Elements are opaque hashable identifiers; the full order is the
reflexive-transitive closure of the declared covers, precomputed at
construction as up- and down-set bitmasks so every predicate afterwards
is pure reads.  The order core is three module functions on those
masks, shared with the face posets and the reconstruction: `_bits`
walks the set bits of a mask, `_minimal` keeps the elements of a mask
with nothing of it strictly below them, and `_cover_pairs` takes the
covers within a mask as the minimal elements of each strict up-set.
The join of a and b is the only minimal element of their common upper
bounds, their meet that of their common lower bounds by the down-sets.
Rank and drk labellings are optional data.  A poset keeps its minimal
and maximal elements (`_minima`, `_maxima`) from construction, and from
first use the ranks its covers force, checked against stored labels,
with the mask of each rank (`_grading`), and the cover test's verdict on
the up-set of each minimal element (`_geometric_up_sets`); the
predicates read them there.
The axioms are checked on the bitmasks of one up-set, without building
subposets: the bottom's for a lattice, each minimal element's for the
locally geometric check, since every upper ideal is an interval of such
an up-set and intervals of geometric lattices are geometric.  A test on
covers decides an up-set: every element the join of the atoms below it,
and any two elements covering one element joined two levels above it.
Only when it fails does a scan visit all pairs of the up-set, to name
the first failure, with joins and meets found by dict lookup of
bitmasks.  The subposet-building versions are test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

from .errors import (
    EmptyPoset,
    Incomparable,
    MissingAtomWeight,
    NotLocallyGeometric,
    PreconditionFailed,
)

Element = Hashable


def _bits(mask: int) -> list[int]:
    """The set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _minimal(up: Sequence[int], mask: int) -> list[int]:
    """Elements of mask with nothing of mask strictly below them, ascending; up[i] is i's up-set."""
    higher = 0
    for i in _bits(mask):
        higher |= up[i] ^ (1 << i)  # up[i] holds i
    return _bits(mask & ~higher)


def _cover_pairs(up: Sequence[int], mask: int) -> list[tuple[int, int]]:
    """(i, j) for each j covering i within mask, ascending: j is minimal in mask above i."""
    above = [u & mask & ~(1 << i) for i, u in enumerate(up)]  # each strict up-set, once
    pairs = []
    for i in _bits(mask):
        higher = 0
        for j in _bits(above[i]):
            higher |= above[j]
        for j in _bits(above[i] & ~higher):
            pairs.append((i, j))
    return pairs


@dataclass(frozen=True)
class Verdict:
    """Outcome of a structural predicate, with a human-readable certificate."""

    ok: bool
    reason: str = ""
    rank: int | None = None  # top rank for locally geometric checks

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class CoherenceResult:
    """drk assignment if the atom sums agree, else the first witness."""

    ok: bool
    drk: dict | None = None
    element: Element | None = None
    conflict: tuple = ()  # ((minimal, sum), (minimal, sum)) on failure

    def __bool__(self) -> bool:
        return self.ok


class GradedPoset:
    """Immutable finite poset with optional rank/drk/payload labellings.

    `rank` and `drk` are plain dicts that must not be changed once the
    poset is in use: what it keeps (the grading, checked against `rank`,
    and the verdicts) is not recomputed.
    """

    def __init__(
        self,
        elements: Iterable[Element],
        covers: Iterable[tuple[Element, Element]],
        rank: Mapping[Element, int] | None = None,
        drk: Mapping[Element, int] | None = None,
        payload: Mapping[Element, object] | None = None,
        labels: Mapping[Element, str] | None = None,
    ):
        self.elements: tuple[Element, ...] = tuple(elements)
        if not self.elements:
            raise EmptyPoset("poset must have at least one element")
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("duplicate element identifiers")
        self._index = {e: i for i, e in enumerate(self.elements)}
        self.covers: tuple[tuple[Element, Element], ...] = tuple(covers)
        for low, high in self.covers:
            if low not in self._index or high not in self._index:
                raise ValueError(f"cover ({low!r}, {high!r}) uses unknown elements")
            if low == high:
                raise ValueError(f"cover ({low!r}, {high!r}) is a self-loop")
        self.rank = dict(rank) if rank is not None else None
        if self.rank is not None and set(self.rank) != set(self.elements):
            raise ValueError("rank labelling must cover exactly the elements")
        self.drk = dict(drk) if drk is not None else None
        if self.drk is not None and set(self.drk) != set(self.elements):
            raise ValueError("drk labelling must cover exactly the elements")
        self.payload = dict(payload) if payload is not None else {}
        self.labels = dict(labels) if labels is not None else {}
        self._up, self._down, self._minima, self._maxima = self._closure()
        self._all = (1 << len(self.elements)) - 1  # the mask of every element
        # kept on first use as plain attributes: cached_property reads `__dict__`, which slows reads
        self._graded = self._geometric = None

    # ------------------------------------------------------------------
    # order core

    def _closure(self) -> tuple[list[int], list[int], list[int], list[int]]:
        """Up- and down-set masks, then the minimal and the maximal element indices, ascending."""
        n = len(self.elements)
        above = [[] for _ in range(n)]
        indeg = [0] * n
        for low, high in self.covers:
            above[self._index[low]].append(self._index[high])
            indeg[self._index[high]] += 1
        # Kahn topological order doubles as the acyclicity check
        order = [i for i in range(n) if indeg[i] == 0]
        minima = list(order)
        seen = 0
        queue = list(order)
        while queue:
            i = queue.pop()
            seen += 1
            for j in above[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    queue.append(j)
                    order.append(j)
        if seen != n:
            raise ValueError("covers contain a cycle")
        up = [1 << i for i in range(n)]
        for i in reversed(order):
            for j in above[i]:
                up[i] |= up[j]
        down = [1 << i for i in range(n)]
        for i in order:
            for j in above[i]:
                down[j] |= down[i]
        return up, down, minima, [i for i in range(n) if not above[i]]

    def leq(self, a: Element, b: Element) -> bool:
        return bool(self._up[self._index[a]] & (1 << self._index[b]))

    def lt(self, a: Element, b: Element) -> bool:
        return a != b and self.leq(a, b)

    def up_set(self, a: Element) -> list[Element]:
        return [self.elements[i] for i in _bits(self._up[self._index[a]])]

    def down_set(self, a: Element) -> list[Element]:
        return [self.elements[i] for i in _bits(self._down[self._index[a]])]

    def minimal_elements(self) -> list[Element]:
        return [self.elements[i] for i in self._minima]

    def maximal_elements(self) -> list[Element]:
        return [self.elements[i] for i in self._maxima]

    def top(self) -> Element | None:
        return self.elements[self._maxima[0]] if len(self._maxima) == 1 else None

    def bottom(self) -> Element | None:
        return self.elements[self._minima[0]] if len(self._minima) == 1 else None

    def hasse_covers(self) -> list[tuple[Element, Element]]:
        """True cover pairs recomputed from the order relation.

        Differs from the declared covers only when the input listed a
        transitively redundant pair.
        """
        name = self.elements
        return [(name[i], name[j]) for i, j in _cover_pairs(self._up, self._all)]

    @property
    def _grading(self) -> tuple[list[int] | None, list[int] | None, str]:
        """`_grade`, computed on first read and kept."""
        if self._graded is None:
            self._graded = self._grade()
        return self._graded

    def _grade(self) -> tuple[list[int] | None, list[int] | None, str]:
        """Rank of each element index forced by the covers, and each rank's row; or None, None, why.

        Each cover is looked at once, when its lower end has been ranked,
        and its upper end must then sit one rank higher.  The covers are
        acyclic, so every pass ranks something and every cover gets its
        look.  Stored rank labels, when present, must agree with the
        computed ranks.  Row r masks the elements of rank r; an empty row
        above the top lets every element read the row above its own.
        """
        name, index = self.elements, self._index
        level: list = [None] * len(name)
        for i in self._minima:
            level[i] = 0
        pending = [(index[low], index[high]) for low, high in self.covers]
        while pending:
            rest = []
            for low, high in pending:
                if level[low] is None:
                    rest.append((low, high))
                    continue
                value = level[low] + 1
                if level[high] is None:
                    level[high] = value
                elif level[high] != value:
                    return None, None, (
                        f"element {name[high]!r} is reached at ranks {level[high]} and {value}"
                    )
            pending = rest
        rows = [0] * (max(level) + 2)
        for i, (e, r) in enumerate(zip(name, level)):
            if self.rank is not None and self.rank[e] != r:
                stored = self.rank[e]
                return None, None, f"stored rank {stored} of {e!r} disagrees with computed {r}"
            rows[r] |= 1 << i
        return level, rows, ""

    @property
    def _geometric_up_sets(self) -> dict[int, bool]:
        """`_geometric_by_covers` of each minimal element index, kept; read only once graded."""
        if self._geometric is None:
            self._geometric = {x: _geometric_by_covers(self, x) for x in self._minima}
        return self._geometric

    # ------------------------------------------------------------------
    # lattice operations

    def join(self, a: Element, b: Element) -> Element | None:
        up, index = self._up, self._index
        least = _minimal(up, up[index[a]] & up[index[b]])
        return self.elements[least[0]] if len(least) == 1 else None

    def meet(self, a: Element, b: Element) -> Element | None:
        down, index = self._down, self._index  # minimal in the reversed order: the greatest
        greatest = _minimal(down, down[index[a]] & down[index[b]])
        return self.elements[greatest[0]] if len(greatest) == 1 else None

    # ------------------------------------------------------------------
    # derived posets

    def induced(self, keep: Iterable[Element], rank: Mapping[Element, int] | None = None) -> "GradedPoset":
        """Subposet on `keep`, covers recomputed from the induced order."""
        keep_set = set(keep)
        kept = [e for e in self.elements if e in keep_set]
        mask = sum(1 << self._index[e] for e in kept)
        name = self.elements
        return GradedPoset(
            kept,
            [(name[i], name[j]) for i, j in _cover_pairs(self._up, mask)],
            rank=rank,
            drk={e: self.drk[e] for e in kept} if self.drk is not None else None,
            payload={e: self.payload[e] for e in kept if e in self.payload},
            labels={e: self.labels[e] for e in kept if e in self.labels},
        )

    def upper_ideal(self, s: Element) -> "GradedPoset":
        """The subposet of everything above s, stored ranks shifted to start at 0."""
        keep = self.up_set(s)
        rank = None if self.rank is None else {e: self.rank[e] - self.rank[s] for e in keep}
        return self.induced(keep, rank=rank)

    def proper_part(self) -> "GradedPoset":
        bottom, top = self.bottom(), self.top()
        if bottom is None or top is None:
            raise PreconditionFailed("proper part needs a unique bottom and top")
        keep = [e for e in self.elements if e not in (bottom, top)]
        if not keep:
            raise EmptyPoset("proper part is empty")
        return self.induced(keep)

    # ------------------------------------------------------------------
    # equality (structural; used by parser round-trips)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedPoset):
            return NotImplemented
        return (
            set(self.elements) == set(other.elements)
            and set(self.covers) == set(other.covers)
            and self.rank == other.rank
            and self.drk == other.drk
        )

    __hash__ = None  # type: ignore[assignment]


# ----------------------------------------------------------------------
# predicates


def is_graded(p: GradedPoset) -> Verdict:
    """Minimal elements at rank 0 and every cover raising rank by one.

    Stored rank labels, when present, must agree with the computed ones.
    """
    level, _, reason = p._grading
    return Verdict(False, reason) if level is None else Verdict(True, rank=max(level))


def grading_of(p: GradedPoset) -> dict:
    """Computed ranks of a poset known to be graded."""
    level, _, reason = p._grading
    if level is None:
        raise PreconditionFailed(f"poset is not graded: {reason}")
    return dict(zip(p.elements, level))


def _not_atomistic(p: GradedPoset, s: int) -> int | None:
    """First element of the up-set of s that is not the join of the atoms below it.

    p is graded.  e is that join exactly when the common upper bounds of
    those atoms (and of s, for e = s) are the up-set of e.
    """
    up, down, (level, rows, _) = p._up, p._down, p._grading
    region = up[s]
    atoms = region & rows[level[s] + 1]
    for e in _bits(region):
        common = region
        for a in _bits(down[e] & atoms):
            common &= up[a]
        if common != up[e]:
            return e
    return None


def _geometric_by_covers(p: GradedPoset, s: int) -> bool:
    """Whether the up-set of element index s is a geometric lattice, p graded.

    The test passes when every element is the join of the atoms below
    it (`_not_atomistic`) and, for every z, any two elements covering z
    have a join two levels above z.

    It is exact; x v y is the join of x and y.  The level step alone
    gives every element y a join with every atom a, one that covers y
    when a is not below y, so element-atom joins need no step of their
    own.  By induction on the level of y: take y' covered by y; then
    w = y' v a covers y', so y and w have a join j one level above y,
    and every upper bound of y and a lies above y' and a, so above w and
    y, so above j.  With every element the join of its atoms, the upper
    bounds of x and y are those of x and of the atoms below y, so x v y
    is x joined with those atoms one at a time.  In a finite poset with
    a bottom, joins give meets: the meet of x and y is the join of their
    common lower bounds.  So the up-set is an atomistic lattice.  Two
    elements covering z meet at z, and a finite lattice is rank
    submodular exactly when any two elements covering their meet have a
    join covering both (Stanley, Enumerative Combinatorics I, Prop.
    3.3.2): that is the level step.  A join is one dict lookup, since
    the common upper bounds of x and y are the up-set of their join when
    it exists.
    """
    if _not_atomistic(p, s) is not None:
        return False
    up, (level, rows, _) = p._up, p._grading
    members = _bits(up[s])
    level_of = {up[i]: level[i] for i in members}  # by up-set
    for z in members:
        covers = [up[c] for c in _bits(up[z] & rows[level[z] + 1])]
        for t, up_x in enumerate(covers):
            for up_y in covers[t + 1 :]:
                if level_of.get(up_x & up_y) != level[z] + 2:
                    return False
    return True


def _first_failure(p: GradedPoset, s: int) -> str:
    """The first reason, in element order, that the up-set of s is not a geometric lattice.

    All pairs are scanned in element order and the first failure is
    named: a missing join or meet first, then an element that is not the
    join of the atoms below it, then a pair that breaks rank
    submodularity; "" when there is none.  The common upper bounds of a
    and b are the up-set of their join when it exists, and their common
    lower bounds above s are the down-set of their meet within the
    up-set, so each is one dict lookup of a bitmask.  Every pair check
    is symmetric, so only pairs with a before b are visited.
    """
    up, down, name, level = p._up, p._down, p.elements, p._grading[0]
    region = up[s]
    members = _bits(region)
    join_of = {up[i]: i for i in members}
    meet_of = {down[i] & region: i for i in members}
    submodular = ""
    for x, a in enumerate(members):
        up_a, down_a, level_a = up[a], down[a] & region, level[a]
        for b in members[x + 1 :]:
            join = join_of.get(up_a & up[b])
            if join is None:
                return f"join of {name[a]!r} and {name[b]!r} does not exist"
            meet = meet_of.get(down_a & down[b])
            if meet is None:
                return f"meet of {name[a]!r} and {name[b]!r} does not exist"
            if level[join] + level[meet] > level_a + level[b] and not submodular:
                submodular = f"rank submodularity fails for {name[a]!r}, {name[b]!r}"
    e = _not_atomistic(p, s)
    if e is not None:
        return f"element {name[e]!r} is not the join of the atoms below it"
    return submodular


def is_geometric_lattice(p: GradedPoset) -> Verdict:
    """Graded lattice, atomistic and rank-submodular."""
    graded = is_graded(p)
    if not graded:
        return Verdict(False, f"not graded: {graded.reason}")
    bottom, top = p.bottom(), p.top()
    if bottom is None:
        return Verdict(False, "no unique bottom element")
    if top is None:
        return Verdict(False, "no unique top element")
    s = p._index[bottom]
    return graded if p._geometric_up_sets[s] else Verdict(False, _first_failure(p, s))


def is_locally_geometric(p: GradedPoset) -> Verdict:
    """Graded with a greatest element, every upper ideal a geometric lattice.

    Every upper ideal is an interval of the up-set of a minimal element
    below it, and intervals of a geometric lattice are geometric, so the
    minimal elements decide the verdict.  Only when one of them fails are
    all elements scanned, to name the first failing ideal in element order.
    """
    graded = is_graded(p)
    if not graded:
        return Verdict(False, f"not graded: {graded.reason}")
    if p.top() is None:
        return Verdict(False, "no greatest element")
    verdicts = p._geometric_up_sets
    if not all(verdicts.values()):
        for s, element in enumerate(p.elements):
            if not (verdicts[s] if s in verdicts else _geometric_by_covers(p, s)):
                failure = _first_failure(p, s)
                return Verdict(
                    False, f"upper ideal at {element!r} is not a geometric lattice: {failure}"
                )
    return graded


def mobius(p: GradedPoset, s: Element, t: Element) -> int:
    """Mobius function by the defining recursion over the interval [s, t].

    The interval's elements are visited by the size of their down-sets
    within it, which lists every element after all those below it.
    """
    if not p.leq(s, t):
        raise Incomparable(f"{s!r} is not below {t!r}")
    first = p._index[s]
    interval = p._up[first] & p._down[p._index[t]]
    below = {u: p._down[u] & interval & ~(1 << u) for u in _bits(interval)}
    values: dict[int, int] = {}
    for u in sorted(below, key=lambda u: below[u].bit_count()):
        values[u] = 1 if u == first else -sum(values[v] for v in _bits(below[u]))
    return values[p._index[t]]


def atoms_of(p: GradedPoset) -> list[Element]:
    return [e for e, r in grading_of(p).items() if r == 1]


def check_coherent(p: GradedPoset, d: Mapping[Element, int]) -> CoherenceResult:
    """Test that atom sums below each element agree for all base points.

    For every s and every minimal x <= s the sum of d over atoms a with
    x < a <= s must be the same; the common values form the drk labelling
    (0 on minimal elements).  The first disagreement, in element order,
    is reported as a witness.
    """
    verdict = is_locally_geometric(p)
    if not verdict:
        raise NotLocallyGeometric(f"poset is not locally geometric: {verdict.reason}")
    # the atoms between x and s: those in the up-set of x and the down-set of s
    atoms = atoms_of(p)
    for a in atoms:
        if a not in d:
            raise MissingAtomWeight(f"no weight for atom {a!r}")
        if d[a] <= 0:
            raise ValueError(f"atom weight for {a!r} must be positive")
    weight = {p._index[a]: d[a] for a in atoms}
    atom_mask = sum(1 << i for i in weight)
    minima = p._minima
    drk: dict[Element, int] = {}
    for s, element in enumerate(p.elements):
        below = p._down[s]
        sums = [
            (p.elements[x], sum(weight[a] for a in _bits(p._up[x] & below & atom_mask)))
            for x in minima
            if below >> x & 1
        ]
        first = sums[0]
        other = next((pair for pair in sums if pair[1] != first[1]), None)
        if other is not None:
            return CoherenceResult(False, element=element, conflict=(first, other))
        drk[element] = first[1]
    return CoherenceResult(True, drk=drk)


def check_gkm_coherent(p: GradedPoset) -> CoherenceResult:
    """Coherence for the constant atom weight 1.

    Covers that force no ranking are named as such; every other failure,
    a stored rank that disagrees with the covers among them, is
    `check_coherent`'s.
    """
    level, _, reason = p._grading
    if level is None and not reason.startswith("stored rank"):
        raise NotLocallyGeometric(f"poset is not graded: {reason}")
    return check_coherent(p, dict.fromkeys(atoms_of(p) if level else (), 1))


# ----------------------------------------------------------------------
# constructions


def _fresh_id(taken, base: str) -> str:
    """`base`, primed until it is not in the container `taken`."""
    candidate = base
    while candidate in taken:
        candidate += "'"
    return candidate


def compactify(p: GradedPoset) -> GradedPoset:
    """Double the bottom element: a second minimal point under every s != bottom."""
    bottom = p.bottom()
    if bottom is None:
        raise PreconditionFailed("compactification needs a unique bottom element")
    rank = grading_of(p)
    double = _fresh_id(p._index, "0'")
    elements = list(p.elements) + [double]
    covers = list(p.covers) + [(double, a) for a in atoms_of(p)]
    rank[double] = 0
    labels = dict(p.labels)
    labels[double] = "0'"
    return GradedPoset(elements, covers, rank=rank, payload=dict(p.payload), labels=labels)


def projectivize(p: GradedPoset) -> GradedPoset:
    """Remove the bottom element and shift all ranks down by one.

    drk labels are dropped: dimension data does not transfer under the
    construction (every face loses one).
    """
    bottom = p.bottom()
    if bottom is None:
        raise PreconditionFailed("projectivization needs a unique bottom element")
    ranks = grading_of(p)
    if max(ranks.values()) < 1:
        raise PreconditionFailed("cannot projectivize a rank-0 lattice")
    keep = [e for e in p.elements if e != bottom]
    name = p.elements
    return GradedPoset(
        keep,
        [(name[i], name[j]) for i, j in _cover_pairs(p._up, p._all & ~(1 << p._index[bottom]))],
        rank={e: ranks[e] - 1 for e in keep},
        payload={e: p.payload[e] for e in keep if e in p.payload},
        labels={e: p.labels[e] for e in keep if e in p.labels},
    )


def glue_top(p1: GradedPoset, p2: GradedPoset) -> GradedPoset:
    """Disjoint union of two lattices with their top elements identified."""
    tops = (p1.top(), p2.top())
    if tops[0] is None or tops[1] is None:
        raise PreconditionFailed("both posets need a unique top element")
    gradings = grading_of(p1), grading_of(p2)
    k1, k2 = gradings[0][tops[0]], gradings[1][tops[1]]
    if k1 != k2:
        raise PreconditionFailed(f"ranks differ: {k1} vs {k2}")
    top = ("top",)
    elements: list[Element] = []
    covers: list[tuple[Element, Element]] = []
    rank: dict[Element, int] = {top: k1}
    labels: dict[Element, str] = {top: "top"}
    for p, ranks, tag, old_top in zip((p1, p2), gradings, "LR", tops):
        rename = {e: top if e == old_top else (tag, e) for e in p.elements}
        for e in p.elements:
            if e == old_top:
                continue
            elements.append(rename[e])
            rank[rename[e]] = ranks[e]
            labels[rename[e]] = f"{tag}:{p.labels.get(e, e)}"
        covers.extend((rename[a], rename[b]) for a, b in p.covers)
    elements.append(top)
    return GradedPoset(elements, covers, rank=rank, labels=labels)


# ----------------------------------------------------------------------
# isomorphism


def _refine_colors(p: GradedPoset) -> dict[Element, tuple]:
    uppers: dict[Element, list[Element]] = {e: [] for e in p.elements}
    lowers: dict[Element, list[Element]] = {e: [] for e in p.elements}
    for low, high in p.hasse_covers():
        uppers[low].append(high)
        lowers[high].append(low)
    color: dict[Element, tuple] = {
        e: (len(uppers[e]), len(lowers[e]), len(p.up_set(e)), len(p.down_set(e)))
        for e in p.elements
    }
    for _ in range(len(p.elements)):
        palette = sorted(set(color.values()))
        key = {c: i for i, c in enumerate(palette)}
        new = {
            e: (
                key[color[e]],
                tuple(sorted(key[color[u]] for u in uppers[e])),
                tuple(sorted(key[color[v]] for v in lowers[e])),
            )
            for e in p.elements
        }
        if len(set(new.values())) == len(set(color.values())):
            color = new
            break
        color = new
    return color


def are_isomorphic(p: GradedPoset, q: GradedPoset) -> bool:
    """Order isomorphism via color refinement plus backtracking."""
    if len(p.elements) != len(q.elements):
        return False
    pc, qc = _refine_colors(p), _refine_colors(q)
    if sorted(pc.values()) != sorted(qc.values()):
        return False
    by_color: dict[tuple, list[Element]] = {}
    for e in q.elements:
        by_color.setdefault(qc[e], []).append(e)
    order = sorted(p.elements, key=lambda e: (pc[e], p.elements.index(e)))
    image: dict[Element, Element] = {}
    used: set[Element] = set()

    def compatible(e: Element, f: Element) -> bool:
        for done_e, done_f in image.items():
            if p.leq(e, done_e) != q.leq(f, done_f):
                return False
            if p.leq(done_e, e) != q.leq(done_f, f):
                return False
        return True

    def backtrack(i: int) -> bool:
        if i == len(order):
            return True
        e = order[i]
        for f in by_color[pc[e]]:
            if f not in used and compatible(e, f):
                image[e] = f
                used.add(f)
                if backtrack(i + 1):
                    return True
                del image[e]
                used.discard(f)
        return False

    return backtrack(0)
