"""Order complexes and reduced rational homology.

Simplices are vertex bitmasks: bit v for the v-th vertex of the
complex's `vertices`.  Each simplex is listed with its insertable mask,
the vertices that can join it to make a simplex one larger.  A chain of
an order complex grows by a vertex w above its top t, and the chain it
makes carries `gap & ~above[t] | above[t] & below[w] | above[w]`: what
could go below t still can, and w opens what lies between t and w and
above w.  An independence complex is listed once, bottom up, off the
flats lattice (`matroid.independence_complex`); a complex given by its
facets lists its faces once, top size down, each size reading its
insertable masks off the size above (`matroid.SimplicialComplex`).

Betti numbers come from exact ranks of the coboundary maps delta^d,
whose ranks are those of the boundary maps, reduced from low degree
upward.  Rows are simplices ordered by integer value, so the pivot (the
lowest row) of a simplex's column is the simplex plus the lowest
insertable vertex, read off the two masks.  When that row is not yet a
pivot, the column is already reduced: the pair is emergent (Bauer,
Ripser, J. Appl. Comput. Topol. 5, 2021) and no column is built.  Only
when two columns meet at one pivot is the later one built from its
insertable mask and reduced by fraction-free elimination
(cross-multiplication, gcd division); an emergent pivot's column is
built when a later column first needs it.  A reduced column with pivot
s is a cocycle whose lowest entry is at s, so the column of s in the
next coboundary is a combination of columns after s and is skipped
unreduced: "clearing" (Chen and Kerber, Persistent homology computation
with a twist, 2011).  Any cochain less a combination of those cocycles,
taken lowest pivot first, has no entry at a cleared simplex, and the
cocycles lie in the kernel, so the columns left span the whole image:
the rank is the same for any fixed row order.

The vertex order decides how often columns meet.  `order_complex`
numbers each height level by the sorted numbers of the minimal vertices
below each element, then by position.  Geometric lattices are shellable
in the lexicographic order of their atoms (Bjorner, Shellable and
Cohen-Macaulay partially ordered sets, Trans. AMS 260, 1980), and with
this numbering no column of a flats lattice's order complex, nor of an
independence complex numbered by weight index, has been seen to meet
another: homology there is pairing alone (the tests check it on
shuffled lattices).  Without the numbering, columns meet some 18 000
times on the A6 partition lattice.  Other posets can meet too, and the
elimination keeps the ranks exact.  An order complex counts its chains
from the `above` masks before listing any, and more than CHAIN_CAP of
them raise EnumerationCapExceeded; its facets, the maximal chains, are
read off that listing.  Only homology over Q is computed: the spaces
verified here are predicted wedges of spheres, where rational Betti
numbers decide the claim.

Proper parts of geometric lattices have a second engine, `proper_betti`,
with no chains (A7's proper part has 10 270 695).  If the complements b
of an element of a bounded lattice form an antichain, its proper part is
homotopy equivalent to the wedge of the suspensions of (0, b) * (b, 1)
(Bjorner and Walker, A homotopy complementation formula for partially
ordered sets, European J. Combin. 4, 1983): b~_k sums b~_i(0, b)
b~_j(b, 1) over b and i + j = k - 2, b~_-1 = 1 on an empty interval.
In a geometric lattice the complements of an atom are the coatoms not
above it.  Every other poset goes to the chains.  The wedge check's
independence complex is not listed either: its numbers are counted on
the flats lattice (`matroid._independence_numbers`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import gcd

from .errors import EmptyComplex, EnumerationCapExceeded, PreconditionFailed
from .matroid import WeightSystem, _independence_numbers, flats_lattice
from .poset import GradedPoset, _bits, _minimal, mobius

# more chains than this are not listed; the A6 proper part has 262 759, A7's 10 270 695
CHAIN_CAP = 1_000_000


@dataclass(frozen=True)
class OrderComplex:
    """Chains of a poset, numbered over a linear extension of it; facets are the maximal chains."""

    vertices: tuple  # a linear extension: by height, then minimal elements below, then position
    positions: tuple[int, ...]  # positions[v]: vertex v's position in the poset
    above: tuple[int, ...]  # above[v]: mask of the vertices strictly above vertex v
    below: tuple[int, ...]  # below[v]: mask of the vertices strictly below vertex v

    @property
    def facets(self) -> tuple[tuple, ...]:
        """Maximal chains, elements in increasing order, by length and then element positions."""
        # the listed chains nothing can be inserted into, so CHAIN_CAP holds for them too
        facets = [_bits(chain) for level in _chains(self) for chain, gap in level if not gap]
        facets.sort(key=lambda chain: (len(chain), [self.positions[v] for v in chain]))
        return tuple(tuple(self.vertices[v] for v in chain) for chain in facets)


def order_complex(p: GradedPoset) -> OrderComplex:
    """The order complex of p, its vertices peeled off level by level from the bottom.

    Each level holds the minimal elements left, whose longest chain below
    is one longer; it is numbered by the minimal elements of p below each
    one, as a sorted list, then by position.
    """
    order = list(p._minima)
    minima = sum(1 << i for i in order)
    rest = p._all & ~minima
    while rest:
        level = _minimal(p._up, rest)
        # the minima are numbered by position, so their positions sort as their numbers do
        level.sort(key=lambda i: (_bits(p._down[i] & minima), i))
        order += level
        rest &= ~sum(1 << i for i in level)
    vertex = {i: v for v, i in enumerate(order)}

    def strict(masks):
        return tuple(sum(1 << vertex[j] for j in _bits(masks[i] ^ (1 << i))) for i in order)

    vertices = tuple(p.elements[i] for i in order)
    return OrderComplex(vertices, tuple(order), strict(p._up), strict(p._down))


def _chain_count(above: tuple[int, ...]) -> int:
    """The number of nonempty chains: those from v are v and v under each chain from above v."""
    counts = [0] * len(above)
    for v in reversed(range(len(above))):
        counts[v] = 1 + sum(counts[w] for w in _bits(above[v]))
    return sum(counts)


def _simplices_by_dim(complex_) -> list[list[tuple[int, int]]]:
    """(simplex, insertable mask) pairs of each dimension i, as vertex bitmasks: chains or faces."""
    return _chains(complex_) if isinstance(complex_, OrderComplex) else complex_._faces


def _chains(complex_: OrderComplex) -> list[list[tuple[int, int]]]:
    """The chains by dimension, each with its insertable mask.

    A chain extends by every vertex strictly above its top, which lists
    each chain once.  The chains are counted first, and more than
    CHAIN_CAP of them are refused unlisted.
    """
    above, below = complex_.above, complex_.below
    count = _chain_count(above)
    if count > CHAIN_CAP:
        raise EnumerationCapExceeded(
            CHAIN_CAP,
            count,
            f"enumeration cap of {CHAIN_CAP} order-complex chains exceeded: the order complex "
            f"on {len(above)} vertices has {count} chains, counted before listing any",
        )
    # for each top t: what a chain keeps of its insertable mask, and what each w above t adds
    keep = [~up for up in above]
    steps = [[(1 << w, up & below[w] | above[w]) for w in _bits(up)] for up in above]
    level = [(1 << v, up | down) for v, (up, down) in enumerate(zip(above, below))]
    levels = []
    while level:
        levels.append(level)
        level = [
            (chain | bit, kept | opened)
            for chain, gap in level
            for top in (chain.bit_length() - 1,)
            for kept in (gap & keep[top],)
            for bit, opened in steps[top]
        ]
    return levels


def _column(face: int, insertable: int) -> dict[int, int]:
    """The coboundary column of face: +-1 at each coface, +1 at the lowest."""
    low = insertable & -insertable
    column = {}
    for v in _bits(insertable):
        bit = 1 << v
        # the boundary sign of v in the coface, relative to that of the lowest insertable vertex
        column[face | bit] = -1 if (face & (bit - low)).bit_count() & 1 else 1
    return column


def _reduce(faces: list[tuple[int, int]], cleared) -> dict[int, int | dict[int, int]]:
    """Pivot rows of the reduced coboundary out of faces' dimension: their count is its rank.

    Faces in `cleared` are skipped.  A pivot maps to its reduced column,
    or, while emergent, to the insertable mask of its face (the pivot
    less the mask's lowest bit), from which the column is built if a
    later column meets it.
    """
    pivots: dict[int, int | dict[int, int]] = {}
    for face, gap in faces:
        if not gap or face in cleared:
            continue
        row = face | gap & -gap
        if row not in pivots:  # emergent: the unbuilt column is reduced as it is
            pivots[row] = gap
            continue
        col = _column(face, gap)
        while col:
            row = min(col)
            piv = pivots.get(row)
            if piv is None:  # columns keep gcd 1, so only the sign is normalised
                pivots[row] = col if col[row] > 0 else {r: -v for r, v in col.items()}
                break
            if type(piv) is int:
                piv = pivots[row] = _column(row ^ (piv & -piv), piv)
            a, b = piv[row], col[row]
            merged = col if a == 1 else {r: a * v for r, v in col.items()}
            for r, v in piv.items():
                merged[r] = merged.get(r, 0) - b * v
            col = {r: v for r, v in merged.items() if v}
            g = 0
            for v in col.values():
                g = gcd(g, v)
            if g > 1:
                col = {r: v // g for r, v in col.items()}
    return pivots


def reduced_betti(complex_) -> dict[int, int]:
    """Reduced rational Betti numbers, degrees -1 through dim.

    Accepts an `OrderComplex` or a `matroid.SimplicialComplex`; a
    simplicial complex without facets, not even the empty one, is refused.
    """
    levels = _simplices_by_dim(complex_)
    if not levels and not complex_.facets:
        raise EmptyComplex("cannot take homology of an empty complex")
    # the empty face's coboundary sums the vertices: rank 1, pivot at the lowest vertex
    ranks, cleared = ([1], {levels[0][0][0]}) if levels else ([0], ())
    for faces in levels[:-1]:
        cleared = _reduce(faces, cleared)
        ranks.append(len(cleared))
    ranks.append(0)  # no coboundary out of the top degree
    betti = {-1: 1 - ranks[0]}
    for dim, level in enumerate(levels):
        betti[dim] = len(level) - ranks[dim] - ranks[dim + 1]
    return betti


def proper_betti(p: GradedPoset) -> dict[int, int]:
    """Reduced Betti numbers of the proper part of p, degrees -1 through its dimension.

    On a geometric lattice, recognised by the cover test, every interval
    [lo, hi] is geometric, and the complements of an atom a there are
    the coatoms not above it: such a coatom b meets a at lo, and a v b
    lies strictly above b, so is hi; a complement b has r(b) >= r(hi) +
    r(lo) - r(a) = r(hi) - 1 by submodularity.  Coatoms form an
    antichain, so any atom serves.  Any other poset goes to the chain
    engine, exact on every poset.
    """
    if len(p._minima) != 1 or len(p._maxima) != 1 or len(p.elements) < 3:
        p.proper_part()  # raises: no bottom or no top, or nothing between them
    (bottom,), (top,) = p._minima, p._maxima
    up, down, (level, rows, _) = p._up, p._down, p._grading
    if level is None or not p._geometric_up_sets[bottom]:
        return reduced_betti(order_complex(p.proper_part()))

    @cache
    def betti(lo: int, hi: int) -> dict[int, int]:
        inside = up[lo] & down[hi]
        if inside == 1 << lo | 1 << hi:
            return {-1: 1}
        atoms = inside & rows[level[lo] + 1]
        a = (atoms & -atoms).bit_length() - 1
        total: dict[int, int] = {}
        for b in _bits(inside & rows[level[hi] - 1] & ~up[a]):
            for i, x in betti(lo, b).items():
                for j, y in betti(b, hi).items():
                    total[i + j + 2] = total.get(i + j + 2, 0) + x * y
        return total

    total = betti(bottom, top)
    del betti  # it names itself, a cycle holding its memo that only the cyclic collector frees
    return {d: total.get(d, 0) for d in range(-1, level[top] - 1)}


def _concentrated(betti: dict[int, int], degree: int, value: int) -> bool:
    return all(v == (value if d == degree else 0) for d, v in betti.items())


@dataclass(frozen=True)
class WedgeReport:
    """Outcome of checking the two sphere-wedge predictions for a matroid."""

    rank: int
    mobius_magnitude: int | None
    proper_betti: dict[int, int] | None  # None where part (a) is skipped
    proper_ok: bool
    top_h: int
    complex_betti: dict[int, int]
    complex_ok: bool

    @property
    def ok(self) -> bool:
        return (self.proper_ok or self.proper_betti is None) and self.complex_ok


def verify_wedge_prediction(ws: WeightSystem) -> WedgeReport:
    """Check both homology predictions for a weight system.

    (a) the open interval of the flats lattice has reduced homology
    concentrated in degree rank-2 with total the Mobius magnitude;
    (b) the independence complex is concentrated in degree rank-1 with
    total the top h-number.  Part (a) is skipped for rank below 2.
    Part (b) lists no independent set: deletion and contraction give the
    Betti numbers, concentrated by the lemma of
    `matroid._independence_numbers`, and the check compares the top one
    with the h-number counted apart.
    """
    lattice = flats_lattice(ws)  # searches the flats once; `ws._lattice` keeps them
    rank = lattice.rank[lattice.top()]
    if rank < 1:
        raise PreconditionFailed("wedge predictions need a weight system of rank at least 1")
    mu = abs(mobius(lattice, lattice.bottom(), lattice.top()))
    interval = None if rank < 2 else proper_betti(lattice)
    proper_ok = interval is not None and _concentrated(interval, rank - 2, mu)
    f, top_betti = _independence_numbers(ws)
    top_h = sum((-1) ** (rank - j) * count for j, count in enumerate(f))  # h_r of `h_vector`
    complex_betti = {d: top_betti if d == rank - 1 else 0 for d in range(-1, rank)}
    complex_ok = top_betti == top_h
    return WedgeReport(
        rank=rank,
        mobius_magnitude=mu,
        proper_betti=interval,
        proper_ok=proper_ok,
        top_h=top_h,
        complex_betti=complex_betti,
        complex_ok=complex_ok,
    )
