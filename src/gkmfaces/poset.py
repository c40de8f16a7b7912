"""Finite graded posets stored by their cover relation.

Elements are opaque hashable identifiers; the full order is the
reflexive-transitive closure of the declared covers.  A poset keeps its
covers as pairs of element indices, which producers that hold positions
hand over directly (`GradedPoset._from_positions`).  The first order
question builds the closure as up- and down-set bitmasks and keeps
them, so every predicate afterwards is pure reads, and a poset that is
only printed never builds them.  A producer that holds the whole order
hands over the up-set masks instead (`GradedPoset._from_up_sets`, as
the face posets are built): the down-sets are then their transpose, and
the covers are derived from them only when something reads them, so a
face table that is only printed derives neither.  The order core is
three module functions on those masks, shared with the face posets and
the reconstruction: `_bits` walks the set bits of a mask, `_minimal`
keeps the elements of a mask with nothing of it strictly below them,
and `_cover_pairs` takes the covers within a mask as the minimal
elements of each strict up-set.
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


def _transposed(up: Sequence[int]) -> list[int]:
    """The down-set masks of the order whose up-set masks are `up`."""
    down = [0] * len(up)
    for i, mask in enumerate(up):
        bit = 1 << i
        for j in _bits(mask):
            down[j] |= bit
    return down


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


class _CoverCycle(ValueError):
    """Covers that contain a cycle; `at` is the position in the cover list of one on the cycle."""

    def __init__(self, at: int):
        super().__init__("covers contain a cycle")
        self.at = at


def _topological(n: int, pairs: Sequence[tuple[int, int]]) -> list[int]:
    """Indices 0..n-1, each after every index below it by the cover `pairs` (Kahn's sort).

    Covers that contain a cycle raise `_CoverCycle` at the first-listed
    cover of one cycle.  The elements the sort leaves each have a cover
    from another one left, so walking down those covers must come back
    to an element it has met: the walk from there on is a cycle.
    """
    above: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for i, j in pairs:
        above[i].append(j)
        indeg[j] += 1
    order = [i for i in range(n) if not indeg[i]]
    for i in order:  # grows as it is read
        for j in above[i]:
            indeg[j] -= 1
            if not indeg[j]:
                order.append(j)
    if len(order) == n:
        return order
    into: dict[int, int] = {}  # each element left -> the first-listed cover into it from one left
    for at, (i, j) in enumerate(pairs):
        if indeg[i] and indeg[j]:
            into.setdefault(j, at)
    walk: dict[int, int] = {}  # element -> the cover walked down from it, in walking order
    j = next(iter(into))
    while j not in walk:
        walk[j] = into[j]
        j = pairs[into[j]][0]
    steps = list(walk)
    raise _CoverCycle(min(walk[k] for k in steps[steps.index(j) :]))


def _indexed(elements: Iterable[Element]) -> tuple[tuple, dict]:
    """The elements and each one's index; they must be distinct, and at least one."""
    elements = tuple(elements)
    if not elements:
        raise EmptyPoset("poset must have at least one element")
    index = {e: i for i, e in enumerate(elements)}
    if len(index) != len(elements):
        raise ValueError("duplicate element identifiers")
    return elements, index


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
        elements, index = _indexed(elements)
        covers = tuple(covers)
        pairs = []
        for low, high in covers:
            i, j = index.get(low), index.get(high)
            if i is None or j is None:
                raise ValueError(f"cover ({low!r}, {high!r}) uses unknown elements")
            if i == j:
                raise ValueError(f"cover ({low!r}, {high!r}) is a self-loop")
            pairs.append((i, j))
        self._build(
            elements,
            index,
            pairs,
            covers,
            None if rank is None else dict(rank),
            None if drk is None else dict(drk),
            {} if payload is None else dict(payload),
            {} if labels is None else dict(labels),
        )

    @classmethod
    def _from_positions(
        cls,
        elements: Iterable[Element],
        pairs: list[tuple[int, int]],
        rank: dict | None = None,
        drk: dict | None = None,
        payload: dict | None = None,
        labels: dict | None = None,
    ) -> "GradedPoset":
        """The poset on `elements` whose covers are the index pairs `pairs`, for producers.

        It checks what `__init__` checks but the covers' names, which are
        built on first read; a pair of equal positions is a cycle.  The
        labellings are kept, not copied.
        """
        p = cls.__new__(cls)
        elements, index = _indexed(elements)
        p._build(elements, index, pairs, None, rank, drk, payload or {}, labels or {})
        return p

    @classmethod
    def _from_up_sets(
        cls,
        elements: Iterable[Element],
        up: list[int],
        rank: dict | None = None,
        drk: dict | None = None,
        payload: dict | None = None,
        labels: dict | None = None,
    ) -> "GradedPoset":
        """The poset on `elements` in which up[i] masks the elements at or above element i.

        For producers that hold the whole order, as containment of
        distinct faces is a partial order.  The masks become `_up`; the
        down-sets are their transpose, built on first read, and the covers
        are derived from them by `_cover_pairs` on first read and listed
        as their names sort, so the elements must be orderable.  It checks
        the labellings and that each up[i] holds i, not that the masks are
        transitive and antisymmetric.  The labellings are kept, not copied.
        """
        p = cls.__new__(cls)
        elements, index = _indexed(elements)
        n = len(elements)
        if len(up) != n or any(not mask >> i & 1 for i, mask in enumerate(up)):
            raise ValueError("each element's up-set must hold it")
        p._keep(elements, index, rank, drk, payload or {}, labels or {})
        p._up_masks = up
        p._minima = _minimal(up, p._all)
        p._maxima = [i for i, mask in enumerate(up) if mask == 1 << i]
        return p

    def _build(self, elements, index, pairs, covers, rank, drk, payload, labels) -> None:
        """Check the labellings, and the covers (also the index `pairs`) for a cycle; store them.

        `covers` are the pairs by name, or None to name them on first read.
        When every pair ascends, the element order is already an order in
        which each element follows those below it, and no sort is needed.
        """
        self._keep(elements, index, rank, drk, payload, labels)
        n = len(elements)
        # each element index after those below it: what the masks are built in
        self._order = range(n) if all(i < j for i, j in pairs) else _topological(n, pairs)
        self._pair_list, self._cover_names = pairs, covers
        has_lower, has_upper = bytearray(n), bytearray(n)
        for i, j in pairs:
            has_upper[i] = has_lower[j] = 1
        self._minima = [i for i in range(n) if not has_lower[i]]
        self._maxima = [i for i in range(n) if not has_upper[i]]

    def _keep(self, elements, index, rank, drk, payload, labels) -> None:
        """Check that the labellings cover exactly the elements; store them, nothing derived yet."""
        for labelling, what in ((rank, "rank"), (drk, "drk")):
            if labelling is not None and set(labelling) != index.keys():
                raise ValueError(f"{what} labelling must cover exactly the elements")
        self.elements: tuple[Element, ...] = elements
        self._index = index
        self.rank, self.drk, self.payload, self.labels = rank, drk, payload, labels
        self._all = (1 << len(elements)) - 1  # the mask of every element
        # kept on first use as plain attributes: cached_property reads `__dict__`, which slows reads
        self._pair_list = self._cover_names = self._up_masks = self._down_masks = None
        self._graded = self._geometric = None

    # ------------------------------------------------------------------
    # order core

    @property
    def covers(self) -> tuple[tuple[Element, Element], ...]:
        """The covers by name, in the order of `_pairs`."""
        if self._cover_names is None:
            name = self.elements
            self._cover_names = tuple([(name[i], name[j]) for i, j in self._pairs])
        return self._cover_names

    @property
    def _pairs(self) -> list[tuple[int, int]]:
        """The covers as index pairs: as given, or derived from the up-sets on first read."""
        if self._pair_list is None:
            name = self.elements
            pairs = _cover_pairs(self._up_masks, self._all)
            pairs.sort(key=lambda c: (name[c[0]], name[c[1]]))
            self._pair_list = pairs
        return self._pair_list

    @property
    def _up(self) -> list[int]:
        """The up-set mask of each element index: as given, else from `_order_masks`."""
        return self._up_masks or self._order_masks()[0]

    @property
    def _down(self) -> list[int]:
        """Each element index's down-set mask: the given up-sets transposed, else `_order_masks`."""
        if self._down_masks is None:
            if self._up_masks is None:
                self._order_masks()
            else:
                self._down_masks = _transposed(self._up_masks)
        return self._down_masks

    def _order_masks(self) -> tuple[list[int], list[int]]:
        """Up- and down-set masks from the covers, built by the first order question and kept."""
        n = len(self.elements)
        above: list[list[int]] = [[] for _ in range(n)]
        for i, j in self._pair_list:
            above[i].append(j)
        up = [1 << i for i in range(n)]
        for i in reversed(self._order):
            mask = up[i]
            for j in above[i]:
                mask |= up[j]
            up[i] = mask
        down = [1 << i for i in range(n)]
        for i in self._order:
            mask = down[i]
            for j in above[i]:
                down[j] |= mask
        self._up_masks, self._down_masks = up, down
        return up, down

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
        name = self.elements
        level: list = [None] * len(name)
        for i in self._minima:
            level[i] = 0
        pending = self._pairs
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
        return self._restricted(
            sum(1 << self._index[e] for e in kept),
            rank=None if rank is None else dict(rank),
            drk={e: self.drk[e] for e in kept} if self.drk is not None else None,
        )

    def _restricted(self, mask: int, rank: dict | None, drk: dict | None) -> "GradedPoset":
        """The induced subposet on the element indices in `mask`, with these labellings."""
        kept = _bits(mask)
        at = {i: k for k, i in enumerate(kept)}
        name = [self.elements[i] for i in kept]
        return GradedPoset._from_positions(
            name,
            [(at[i], at[j]) for i, j in _cover_pairs(self._up, mask)],
            rank=rank,
            drk=drk,
            payload={e: self.payload[e] for e in name if e in self.payload},
            labels={e: self.labels[e] for e in name if e in self.labels},
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
    return p._restricted(
        p._all & ~(1 << p._index[bottom]), rank={e: ranks[e] - 1 for e in keep}, drk=None
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
