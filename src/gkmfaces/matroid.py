"""Linear matroids over Q presented by integer weight multisets.

A weight system is an ordered multiset of nonzero integer vectors; the
1-based position of a weight is its identity, so duplicate vectors are
distinct matroid elements.  Flats are index sets closed under rational
span.  They are grown bottom-up together with their covers: the weights
are first grouped into parallel classes (the same line through the
origin), and the flats covering a flat F are found by grouping the
classes outside F whose residues modulo span(F) are equal.  That search
carries the residues down: a child's residues are its parent's reduced
by the one new row, one row operation each instead of an elimination
against a whole basis.  It stops at the coatoms, whose only cover is the
top, and runs on member bitmasks and numbered flats until its final
sort.  The cost is governed by the number of flats and classes, not by
2^n subsets (the subset scans and the pairwise cover scan are kept as
test oracles).  It is the one search over a weight system, which keeps
its result: the independence complex and the independence degree are
read off the flats lattice, and so are the wedge check's face counts and
Betti number (`complexes.verify_wedge_prediction`), which list no face.
Only `independence_complex` lists independent sets, so only it is bound
by INDEPENDENT_SET_CAP.  A simplicial complex lists its faces once, as
bitmasks each with the mask of the vertices that can join it, for its
f- and h-vectors and its homology alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Iterable, Sequence

from .errors import DimensionMismatch, EnumerationCapExceeded, PreconditionFailed, ZeroWeight
from .poset import GradedPoset, _bits
from .ratlinalg import IntVector, Subspace, _carry_residues, _primitive, as_vector

# more nonempty independent sets than this are not listed; A7 has 561 947
INDEPENDENT_SET_CAP = 1_000_000
# more flats than this are not searched for; A9 has Bell(10) = 115 975, U(8,20) 137 981
FLATS_CAP = 120_000


@dataclass(frozen=True)
class WeightSystem:
    """Ordered multiset of nonzero weights in Z^ambient_rank."""

    ambient_rank: int
    weights: tuple[IntVector, ...]
    # set on first read of `_lattice`; a plain attribute, since cached_property reads `__dict__`
    _flats: tuple | None = field(default=None, init=False, repr=False, compare=False)

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

    @property
    def _lattice(self) -> tuple[list[Flat], list[tuple[int, int]]]:
        """The flats and covers of `_flats_with_covers`, searched on first read and kept."""
        if self._flats is None:
            object.__setattr__(self, "_flats", _flats_with_covers(self))
        return self._flats


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
    # set by `independence_complex` or on first read of `_faces`; a plain attribute, like `_flats`
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

    For a complex given by facets: bit i stands for vertices[i], a facet's
    vertex missing there is numbered after them, each size hands its faces
    down to the size below, and a face dropping v gets v as insertable.
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
    a pair of numbers; one `Flat` per flat is built after it.  The flats
    are counted as they are found, and more than FLATS_CAP of them raise
    EnumerationCapExceeded.
    """
    r = ws.rank()
    masks, ranks, covers = [0], [0], []  # by flat number: the bottom is 0, the top 1
    if r:
        masks.append(sum(1 << i for i in ws.indices))
        ranks.append(r)
    if r == 1:
        covers.append((0, 1))
    parallel: dict[IntVector, int] = {}  # primitive direction -> class members
    for i, residue in enumerate(map(_primitive, ws.weights), 1):
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
                if high >= FLATS_CAP:  # this flat is one more than the cap allows
                    raise EnumerationCapExceeded(
                        FLATS_CAP,
                        high + 1,
                        f"enumeration cap of {FLATS_CAP} flats exceeded: {high + 1} flats of the "
                        f"{ws.size} weights (rank {r}) found, the last of rank {rank}",
                    )
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
    return list(ws._lattice[0])


def flat_id(flat: Flat) -> tuple[int, ...]:
    return tuple(sorted(flat.members))


def flats_lattice(ws: WeightSystem) -> GradedPoset:
    """Lattice of flats ordered by inclusion.

    Element ids are sorted member tuples; rank labels are flat ranks and
    drk labels count the weights in the flat with multiplicity.  Covers
    are listed by the position of the lower flat, then of the upper one.
    """
    flats, covers = ws._lattice
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

    Read off the flats lattice (Bjorner, The homology and shellability of
    matroids and geometric lattices, 1992): an independent set with
    closure F takes exactly the weights outside F, and adding weight v
    moves its closure up to the flat covering F that holds v.  A face
    grows by the weights outside its flat above its highest one, so every
    face is listed once, each size in lexicographic order, with the
    complement of its flat as its insertable mask; the bases are the top
    size.  Each size is counted before it is listed, and more than
    INDEPENDENT_SET_CAP nonempty faces raise EnumerationCapExceeded.
    """
    flats, covers = ws._lattice
    full = (1 << ws.size) - 1
    outside = [full ^ sum(1 << i - 1 for i in f.members) for f in flats]  # bit i - 1: weight i
    up: list[dict[int, int]] = [{} for _ in flats]  # up[F][v]: the flat covering F that holds v
    for low, high in covers:
        for v in _bits(outside[low] ^ outside[high]):
            up[low][v] = high
    levels, count = [[(0, 0)]], 0  # (face, flat) pairs by size; flat 0 is the bottom
    while levels[-1]:
        grow = [  # each face, its flat, and the weights outside the flat above the face's top
            (face, f, outside[f] >> face.bit_length() << face.bit_length())
            for face, f in levels[-1]
        ]
        count += sum(g.bit_count() for _, _, g in grow)
        if count > INDEPENDENT_SET_CAP:
            raise EnumerationCapExceeded(
                INDEPENDENT_SET_CAP,
                count,
                f"enumeration cap of {INDEPENDENT_SET_CAP} independent sets exceeded: the "
                f"{ws.size} weights have {count} nonempty independent sets of at most "
                f"{len(levels)} weights, counted before listing them",
            )
        levels.append([(face | 1 << v, up[f][v]) for face, f, g in grow for v in _bits(g)])
    levels = levels[1:-1]
    facets = tuple(frozenset(_bits(face << 1)) for face, _ in levels[-1]) if levels else ()
    complex_ = SimplicialComplex(tuple(ws.indices), facets)
    faces = [sorted((face, outside[f]) for face, f in level) for level in levels]
    object.__setattr__(complex_, "_levels", faces)
    return complex_


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
