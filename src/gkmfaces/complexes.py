"""Order complexes and reduced rational homology.

Simplices are tuples of vertex indices, numbered in the complex's
`vertices` order.  The simplices of an order complex are its chains,
listed from its order masks; its facets are walked only when read and
kept.  A simplicial complex keeps its faces once listed (`_faces`).
Betti numbers come from exact ranks of the coboundary maps delta^(d-1),
whose ranks are those of the boundary maps.  Each is kept as sparse
integer columns, one per (d-1)-simplex with entries at its cofaces, and
reduced from low degree upward by fraction-free elimination:
cross-multiplication, gcd division, pivot at the smallest row.  A
reduced column with pivot s lies in the kernel of delta^d, so the column
of s in delta^d is in the span of the columns after it and is skipped
unreduced: "clearing" (Chen and Kerber, Persistent homology computation
with a twist, 2011), which spares the columns that would only reduce to
zero.  Only homology over Q is computed: the spaces verified here are
predicted wedges of spheres, where rational Betti numbers decide the
claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from math import gcd

from .errors import EmptyComplex, PreconditionFailed
from .matroid import WeightSystem, flats_lattice, h_vector, independence_complex
from .poset import GradedPoset, _bits, _minimal, mobius


@dataclass(frozen=True)
class OrderComplex:
    """Chains of a poset, numbered over a linear extension of it; facets are the maximal chains."""

    vertices: tuple  # a linear extension: by height, then by position in the poset
    positions: tuple[int, ...]  # positions[v]: vertex v's position in the poset
    above: tuple[int, ...]  # above[v]: mask of the vertices strictly above vertex v

    @cached_property
    def facets(self) -> tuple[tuple, ...]:
        """Maximal chains, elements in increasing order, by length and then element positions."""
        up = [mask | 1 << v for v, mask in enumerate(self.above)]
        uppers = [_minimal(up, mask) for mask in self.above]  # the upper covers
        chains, facets = [(v,) for v in _minimal(up, (1 << len(up)) - 1)], []
        while chains:  # saturated chains from a minimal vertex, one cover longer each round
            facets += [chain for chain in chains if not uppers[chain[-1]]]
            chains = [chain + (w,) for chain in chains for w in uppers[chain[-1]]]
        facets.sort(key=lambda chain: (len(chain), [self.positions[v] for v in chain]))
        return tuple(tuple(self.vertices[v] for v in chain) for chain in facets)


def order_complex(p: GradedPoset) -> OrderComplex:
    """The order complex of p, its vertices peeled off level by level from the bottom."""
    order, rest = [], p._all
    while rest:  # each level: the minimal elements left, whose longest chain below is one longer
        level = _minimal(p._up, rest)
        order += level
        rest &= ~sum(1 << i for i in level)
    vertex = {i: v for v, i in enumerate(order)}
    above = tuple(sum(1 << vertex[j] for j in _bits(p._up[i] ^ (1 << i))) for i in order)
    return OrderComplex(tuple(p.elements[i] for i in order), tuple(order), above)


def _simplices_by_dim(complex_) -> list[list[tuple[int, ...]]]:
    """Sorted i-simplices for each dimension i, as vertex-index tuples.

    A chain extends by every vertex strictly above its last one, which
    lists each chain once and in order; other complexes keep their faces.
    """
    if not isinstance(complex_, OrderComplex):
        return complex_._faces
    uppers = [_bits(mask) for mask in complex_.above]
    levels = [[(v,) for v in range(len(uppers))]]
    while longer := [chain + (w,) for chain in levels[-1] for w in uppers[chain[-1]]]:
        levels.append(longer)
    return levels


def _coboundary(faces: list[tuple], cofaces: list[tuple]) -> list[dict[int, int]]:
    """Sparse columns of the coboundary: one per face, entries at its cofaces."""
    index = {s: i for i, s in enumerate(faces)}
    columns: list[dict[int, int]] = [{} for _ in faces]
    for row, simplex in enumerate(cofaces):
        sign = (-1) ** (len(simplex) - 1)  # combinations omit the last vertex first
        for face in map(index.__getitem__, combinations(simplex, len(simplex) - 1)):
            columns[face][row] = sign
            sign = -sign
    return columns


def _reduce(columns: list[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Reduced nonzero columns by pivot row: their count is the rank."""
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        while col:
            row = min(col)
            piv = pivots.get(row)
            if piv is None:  # columns keep gcd 1, so only the sign is normalised
                pivots[row] = col if col[row] > 0 else {r: -v for r, v in col.items()}
                break
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

    Accepts an order complex, or anything with `vertices` and nonempty `facets`.
    """
    if not isinstance(complex_, OrderComplex) and not complex_.facets:
        raise EmptyComplex("cannot take homology of an empty complex")
    levels = _simplices_by_dim(complex_)
    # the empty face's coboundary sums the vertices: rank 1, pivot at the first vertex
    ranks, cleared = ([1], {0}) if levels else ([0], ())
    for dim in range(len(levels) - 1):
        columns = _coboundary(levels[dim], levels[dim + 1])
        cleared = _reduce([col for j, col in enumerate(columns) if j not in cleared]).keys()
        ranks.append(len(cleared))
    ranks.append(0)  # no coboundary out of the top degree
    betti = {-1: 1 - ranks[0]}
    for dim, level in enumerate(levels):
        betti[dim] = len(level) - ranks[dim] - ranks[dim + 1]
    return betti


def _concentrated(betti: dict[int, int], degree: int, value: int) -> bool:
    return all(v == (value if d == degree else 0) for d, v in betti.items())


@dataclass(frozen=True)
class WedgeReport:
    """Outcome of checking the two sphere-wedge predictions for a matroid."""

    rank: int
    mobius_magnitude: int | None
    proper_betti: dict[int, int] | None
    proper_ok: bool
    proper_skipped: bool
    top_h: int
    complex_betti: dict[int, int]
    complex_ok: bool

    @property
    def ok(self) -> bool:
        return (self.proper_ok or self.proper_skipped) and self.complex_ok


def verify_wedge_prediction(ws: WeightSystem) -> WedgeReport:
    """Check both homology predictions for a weight system.

    (a) the open interval of the flats lattice has reduced homology
    concentrated in degree rank-2 with total the Mobius magnitude;
    (b) the independence complex is concentrated in degree rank-1 with
    total the top h-number.  Part (a) is skipped for rank below 2.
    """
    rank = ws.rank()
    if rank < 1:
        raise PreconditionFailed("wedge predictions need a weight system of rank at least 1")
    lattice = flats_lattice(ws)
    mu = abs(mobius(lattice, lattice.bottom(), lattice.top()))
    if rank >= 2:
        proper = order_complex(lattice.proper_part())
        proper_betti = reduced_betti(proper)
        proper_ok = _concentrated(proper_betti, rank - 2, mu)
        skipped = False
    else:
        proper_betti, proper_ok, skipped = None, False, True
    independence = independence_complex(ws)  # faces listed once, for both calls
    top_h = h_vector(independence)[-1]
    complex_betti = reduced_betti(independence)
    complex_ok = _concentrated(complex_betti, rank - 1, top_h)
    return WedgeReport(
        rank=rank,
        mobius_magnitude=mu,
        proper_betti=proper_betti,
        proper_ok=proper_ok,
        proper_skipped=skipped,
        top_h=top_h,
        complex_betti=complex_betti,
        complex_ok=complex_ok,
    )
