"""Exact linear algebra over the rationals on integer vectors.

Everything here is fraction-free: vectors stay integer tuples, elimination
uses cross-multiplication followed by division by the row gcd, so no
floating point and no rational type ever enters a rank decision.  A
subspace is represented by its canonical reduced echelon basis (primitive
integer rows, positive leading entry), which makes subspaces hashable and
directly comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

from .errors import DimensionMismatch

IntVector = tuple[int, ...]


def as_vector(entries: Iterable[int]) -> IntVector:
    return tuple(int(e) for e in entries)


def _check_lengths(vectors: Sequence[IntVector], ambient: int | None = None) -> int:
    """Return the common length, raising DimensionMismatch on disagreement."""
    k = ambient
    for v in vectors:
        if k is None:
            k = len(v)
        elif len(v) != k:
            raise DimensionMismatch(f"vector of length {len(v)} mixed with length {k}")
    return 0 if k is None else k


def _primitive(row: list[int]) -> tuple[int, ...] | None:
    """Divide by the gcd and normalize the leading entry to be positive."""
    g = gcd(*row)
    if g == 0:
        return None
    for lead in row:
        if lead:
            break
    if lead < 0:
        g = -g
    return tuple(row) if g == 1 else tuple([x // g for x in row])


def _line_residue(v: Sequence[int], line: IntVector) -> tuple[IntVector | None, int]:
    """v modulo a primitive `line` with positive lead: (residue, factor), or (None, 0).

    The reduction v -> line[p] v - v[p] line, at the lead p of `line`, is
    linear with kernel the line and equals factor * residue, where the
    residue is what `EchelonBasis.residue` gives modulo the line.  So an
    integer combination of vectors lies on the line exactly when the same
    combination of their factor * residue vanishes.
    """
    pivot = next(i for i, x in enumerate(line) if x)
    p, c = line[pivot], v[pivot]
    work = [p * a - c * b for a, b in zip(v, line)]
    residue = _primitive(work)
    if residue is None:
        return None, 0
    return residue, next(a // r for a, r in zip(work, residue) if r)


def _eliminate(row: Sequence[int], basis: list[tuple[int, IntVector]]) -> tuple[int, ...] | None:
    """Reduce `row` against echelon `basis` rows; primitive remainder or None."""
    work = list(row)
    for pivot, base in basis:
        c = work[pivot]
        if c:
            p = base[pivot]
            work = [p * a - c * b for a, b in zip(work, base)]
    return _primitive(work)


def _carry_residues(
    row: IntVector, entries: Sequence[tuple[int, IntVector]]
) -> list[tuple[int, IntVector]]:
    """Residues modulo span + <row> from residues modulo span: one row operation each.

    `entries` are (index, residue) pairs and `row` a nonzero residue, all
    modulo the same span.  Clearing the new pivot with `row` gives exactly
    what `EchelonBasis.residue` gives for the grown basis: both are the
    primitive vector with positive lead in Q(v + span) that vanishes on
    every pivot column.  Pairs whose residue vanishes (those equal to
    `row`) are dropped; the others keep their order.
    """
    pivot = next(i for i, x in enumerate(row) if x)
    p = row[pivot]
    kept = []
    for index, residue in entries:
        c = residue[pivot]
        if c:
            residue = _primitive([p * a - c * b for a, b in zip(residue, row)])
            if residue is None:
                continue
        kept.append((index, residue))
    return kept


class EchelonBasis:
    """Incrementally built integer echelon basis of a rational row space."""

    def __init__(self, ambient: int):
        self.ambient = ambient
        self._rows: list[tuple[int, IntVector]] = []  # (pivot column, primitive row)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def add(self, v: Sequence[int]) -> bool:
        """Insert v; True if it enlarged the span."""
        if len(v) != self.ambient:
            raise DimensionMismatch(f"vector of length {len(v)} in ambient rank {self.ambient}")
        reduced = _eliminate(v, self._rows)
        if reduced is None:
            return False
        pivot = next(i for i, x in enumerate(reduced) if x != 0)
        self._rows.append((pivot, reduced))
        self._rows.sort(key=lambda pr: pr[0])
        return True

    def contains(self, v: Sequence[int]) -> bool:
        return self.residue(v) is None

    def residue(self, v: Sequence[int]) -> IntVector | None:
        """v reduced against the basis, primitive with positive lead; None in the span.

        Up to a nonzero factor the reduction is a linear map whose kernel
        is the span, so two vectors outside the span have the same residue
        exactly when each lies in the span of the basis and the other.
        """
        if len(v) != self.ambient:
            raise DimensionMismatch(f"vector of length {len(v)} in ambient rank {self.ambient}")
        return _eliminate(v, self._rows)

    def canonical_rows(self) -> tuple[IntVector, ...]:
        """Fully reduced form: pivots cleared above, rows primitive.

        The reduced echelon form of a row space is unique, so this tuple is
        a canonical key for the subspace.
        """
        rows = [list(r) for _, r in self._rows]
        pivots = [p for p, _ in self._rows]
        for j in range(len(rows) - 1, -1, -1):
            pj = pivots[j]
            for i in range(j):
                c = rows[i][pj]
                if c:
                    p = rows[j][pj]
                    rows[i] = [p * a - c * b for a, b in zip(rows[i], rows[j])]
                    rows[i] = list(_primitive(rows[i]))  # nonzero: pivot column survives
        return tuple(tuple(r) for r in rows)


@dataclass(frozen=True)
class Subspace:
    """A rational subspace of Q^k in canonical echelon form (hashable)."""

    ambient: int
    basis: tuple[IntVector, ...]

    @classmethod
    def span(cls, vectors: Iterable[Sequence[int]], ambient: int) -> "Subspace":
        eb = EchelonBasis(ambient)
        for v in vectors:
            eb.add(v)
        return cls(ambient, eb.canonical_rows())

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Sequence[int]) -> bool:
        if len(v) != self.ambient:
            raise DimensionMismatch(f"vector of length {len(v)} in ambient rank {self.ambient}")
        pivoted = [(next(i for i, x in enumerate(r) if x), r) for r in self.basis]
        return _eliminate(v, pivoted) is None

    def sort_key(self) -> tuple:
        return (self.dim, self.basis)


def rank_of(vectors: Sequence[Sequence[int]]) -> int:
    """Rank of the rational span; 0 for empty input."""
    k = _check_lengths([tuple(v) for v in vectors])
    eb = EchelonBasis(k)
    for v in vectors:
        eb.add(v)
    return eb.dim


def in_span(v: Sequence[int], vectors: Sequence[Sequence[int]]) -> bool:
    """True iff v lies in the rational span of `vectors`."""
    vs = [tuple(w) for w in vectors]
    _check_lengths(vs, ambient=len(v))
    eb = EchelonBasis(len(v))
    for w in vs:
        eb.add(w)
    return eb.contains(tuple(v))


def span_equal(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> bool:
    """True iff the two sequences span the same rational subspace."""
    avs = [tuple(v) for v in a]
    bvs = [tuple(v) for v in b]
    k = _check_lengths(avs + bvs)
    return Subspace.span(avs, k) == Subspace.span(bvs, k)
