"""Linear matroids over Q presented by integer weight multisets.

A weight system is an ordered multiset of nonzero integer vectors; the
1-based position of a weight is its identity, so duplicate vectors are
distinct matroid elements.  Flats are index sets closed under rational
span.  They are grown bottom-up together with their covers: the weights
are first grouped into parallel classes (the same line through the
origin), and the flats covering a flat F are found by grouping the
classes outside F whose residues modulo span(F) are equal.  Both
searches here (flats and bases) carry those residues down: a child's
residues are its parent's reduced by the one new row, one row operation
each instead of an elimination against a whole basis.  The flats search
stops at the coatoms, whose only cover is the top, and runs on member
bitmasks and numbered flats until its final sort.  The cost is
governed by the number of flats and classes, not by 2^n subsets (the
subset scans and the pairwise cover scan are kept as test oracles).  The
independence degree is read off the flats lattice's labels.  A
simplicial complex lists its faces once, as bitmasks each with the mask
of the vertices that can join it, for its f- and h-vectors and its
homology alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Iterable, Sequence

from .errors import DimensionMismatch, PreconditionFailed, ZeroWeight
from .poset import GradedPoset, _bits
from .ratlinalg import EchelonBasis, IntVector, Subspace, _carry_residues, as_vector


@dataclass(frozen=True)
class WeightSystem:
    """Ordered multiset of nonzero weights in Z^ambient_rank."""

    ambient_rank: int
    weights: tuple[IntVector, ...]

    def __init__(self, ambient_rank: int, weights: Iterable[Sequence[int]]):
        if ambient_rank < 1:
            raise ValueError("ambient rank must be at least 1")
        ws = tuple(as_vector(w) for w in weights)
        for pos, w in enumerate(ws, start=1):
            if len(w) != ambient_rank:
                raise DimensionMismatch(
                    f"weight {pos} has length {len(w)}, expected {ambient_rank}"
                )
            if not any(w):
                raise ZeroWeight(f"weight {pos} is zero")
        object.__setattr__(self, "ambient_rank", ambient_rank)
        object.__setattr__(self, "weights", ws)

    @property
    def size(self) -> int:
        return len(self.weights)

    @property
    def indices(self) -> range:
        return range(1, len(self.weights) + 1)

    def weight(self, index: int) -> IntVector:
        if not 1 <= index <= len(self.weights):
            raise IndexError(f"weight index {index} out of range 1..{len(self.weights)}")
        return self.weights[index - 1]

    def span_of(self, indices: Iterable[int]) -> Subspace:
        return Subspace.span([self.weight(i) for i in indices], self.ambient_rank)

    def rank(self) -> int:
        return self.span_of(self.indices).dim


@dataclass(frozen=True)
class Flat:
    """A span-closed index set with its rank; multiplicity counts repeats."""

    members: frozenset[int]
    rank: int

    @property
    def multiplicity(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class SimplicialComplex:
    """Stored by facets; faces are implicitly all subsets of facets."""

    vertices: tuple[int, ...]
    facets: tuple[frozenset[int], ...]
    # set on first read of `_faces`; a plain attribute, since cached_property reads `__dict__`
    _levels: list | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def _faces(self) -> list[list[tuple[int, int]]]:
        """(face, insertable mask) pairs of size j + 1 at index j; listed once and kept."""
        if self._levels is None:
            object.__setattr__(self, "_levels", _face_levels(self.vertices, self.facets))
        return self._levels

    def f_vector(self) -> tuple[int, ...]:
        """(f_-1, f_0, ..., f_{d-1}) with d the largest face cardinality."""
        return (1, *map(len, self._faces))


def _face_levels(vertices, facets) -> list[list[tuple[int, int]]]:
    """Faces by size, ascending as bitmasks, each with the mask of the vertices that can join it.

    Bit i stands for vertices[i]; a facet's vertex missing there is
    numbered after them.  Each size hands its faces down to the size
    below, and a face dropping vertex v gets v as insertable.
    """
    index = {v: i for i, v in enumerate(vertices)}
    masks = [sum(1 << index.setdefault(v, len(index)) for v in f) for f in facets]
    top = max(map(int.bit_count, masks), default=0)
    by_size: list[dict[int, int]] = [{} for _ in range(top + 1)]
    for mask in masks:
        by_size[mask.bit_count()].setdefault(mask, 0)
    for size in range(len(by_size) - 1, 1, -1):
        lower = by_size[size - 1]
        for face in by_size[size]:
            for v in _bits(face):
                bit = 1 << v
                lower[face ^ bit] = lower.get(face ^ bit, 0) | bit
    return [sorted(level.items()) for level in by_size[1:]]


def closure(ws: WeightSystem, subset: Iterable[int]) -> Flat:
    """Smallest flat containing the given indices."""
    chosen = set(subset)
    span = ws.span_of(chosen)
    members = frozenset(i for i in ws.indices if span.contains(ws.weight(i)))
    return Flat(members, span.dim)


def _residues(ws: WeightSystem) -> list[tuple[int, IntVector]]:
    """(index, residue modulo the zero span) for every weight: its primitive direction."""
    origin = EchelonBasis(ws.ambient_rank)
    return [(i, origin.residue(w)) for i, w in enumerate(ws.weights, start=1)]


def _flats_with_covers(ws: WeightSystem) -> tuple[list[Flat], list[tuple[int, int]]]:
    """Every flat sorted by (rank, members), and the covers as sorted pairs of positions there.

    The flats covering F are the closures of F plus one parallel class
    outside F, and two such classes give the same cover exactly when
    their residues modulo span(F) are equal.  Each frontier flat carries
    the residues of the classes outside it; a new cover takes them over,
    reduced by the residue of a class it absorbed, and the classes whose
    residues vanish are the ones it absorbed.  With r the rank of the
    system, a flat of rank r - 1 has the top as its only cover, so it
    joins no frontier and carries nothing.  Until the final sort a flat
    is a number, its members a bitmask (bit i for weight i) and a cover
    a pair of numbers; one `Flat` per flat is built after it.
    """
    r = ws.rank()
    masks, ranks, covers = [0], [0], []  # by flat number: the bottom is 0, the top 1
    if r:
        masks.append(sum(1 << i for i in ws.indices))
        ranks.append(r)
    if r == 1:
        covers.append((0, 1))
    parallel: dict[IntVector, int] = {}
    for i, residue in _residues(ws):
        parallel[residue] = parallel.get(residue, 0) | 1 << i
    classes = list(parallel.values())
    number = {0: 0}  # members -> flat number
    frontier = [(0, list(enumerate(parallel)))] if r > 1 else []
    while frontier:
        low, outside = frontier.pop()
        rank = ranks[low] + 1
        by_residue: dict[IntVector, int] = {}
        for c, residue in outside:
            by_residue[residue] = by_residue.get(residue, 0) | classes[c]
        for residue, absorbed in by_residue.items():
            members = masks[low] | absorbed
            high = number.get(members)
            if high is None:
                high = number[members] = len(masks)
                masks.append(members)
                ranks.append(rank)
                if rank < r - 1:
                    frontier.append((high, _carry_residues(residue, outside)))
                else:
                    covers.append((high, 1))
            covers.append((low, high))
    ids = [tuple(_bits(m)) for m in masks]
    order = sorted(range(len(masks)), key=lambda f: (ranks[f], ids[f]))
    position = [0] * len(order)
    for at, f in enumerate(order):
        position[f] = at
    flats = [Flat(frozenset(ids[f]), ranks[f]) for f in order]
    return flats, sorted((position[low], position[high]) for low, high in covers)


def all_flats(ws: WeightSystem) -> list[Flat]:
    """Every flat exactly once, sorted by (rank, members)."""
    return _flats_with_covers(ws)[0]


def flat_id(flat: Flat) -> tuple[int, ...]:
    return tuple(sorted(flat.members))


def flats_lattice(ws: WeightSystem) -> GradedPoset:
    """Lattice of flats ordered by inclusion.

    Element ids are sorted member tuples; rank labels are flat ranks and
    drk labels count the weights in the flat with multiplicity.  Covers
    are listed by the position of the lower flat, then of the upper one.
    """
    flats, covers = _flats_with_covers(ws)
    ids = [flat_id(f) for f in flats]
    return GradedPoset(
        ids,
        [(ids[low], ids[high]) for low, high in covers],
        rank={e: f.rank for e, f in zip(ids, flats)},
        drk={e: f.multiplicity for e, f in zip(ids, flats)},
        payload=dict(zip(ids, flats)),
        labels={e: "{" + ",".join(map(str, e)) + "}" for e in ids},
    )


def independence_complex(ws: WeightSystem) -> SimplicialComplex:
    """Faces are the linearly independent index sets; facets are the bases.

    The bases are grown in increasing index order, so they come out
    sorted.  Each independent set carries the residues of the weights
    after it modulo its span, without those that vanished (the dependent
    ones).  One weight short of a basis, every carried weight completes
    it; two short, the pairs with different residues do.
    """
    rank = ws.rank()
    bases: list[frozenset[int]] = []

    def extend(chosen: tuple[int, ...], later: list[tuple[int, IntVector]]) -> None:
        short = rank - len(chosen)
        for t in range(len(later) - short + 1):
            i, row = later[t]
            if short == 1:
                bases.append(frozenset((*chosen, i)))
            elif short == 2:
                bases.extend(frozenset((*chosen, i, j)) for j, r in later[t + 1 :] if r != row)
            else:
                extend((*chosen, i), _carry_residues(row, later[t + 1 :]))

    if rank == 0:
        return SimplicialComplex(tuple(), tuple())
    extend((), _residues(ws))
    return SimplicialComplex(tuple(ws.indices), tuple(bases))


def h_vector(complex_: SimplicialComplex) -> tuple[int, ...]:
    """Binomial transform of the f-vector of a pure complex.

    h_j = sum_{i=0..j} (-1)^(j-i) C(d-i, j-i) f_{i-1}, with d the facet size.
    """
    sizes = {len(f) for f in complex_.facets}
    if len(sizes) > 1:
        raise ValueError(f"complex is not pure: facet sizes {sorted(sizes)}")
    f, d = complex_.f_vector(), sizes.pop() if sizes else 0
    return tuple(
        sum((-1) ** (j - i) * comb(d - i, j - i) * f[i] for i in range(j + 1))
        for j in range(d + 1)
    )


def independence_degree(lattice: GradedPoset) -> int:
    """Largest j such that every subset of at most j weights is independent.

    `lattice` is a flats lattice: rank labels are flat ranks and drk
    labels count weights.  The closure of a smallest dependent set holds
    more weights than its rank, one less than the set's size, and a flat
    with more weights than its rank r holds a dependent set of at most
    r + 1 of them.  So the answer is the least rank of such a flat, or
    the number of weights (the top's drk) when there is none.
    """
    if lattice.rank is None or lattice.drk is None:
        raise PreconditionFailed("the independence degree needs rank and drk labels")
    return min(
        (r for e, r in lattice.rank.items() if lattice.drk[e] > r),
        default=max(lattice.drk.values()),
    )
