"""Exact linear algebra over the rationals on integer vectors.

Everything here is fraction-free: vectors stay integer tuples, elimination
uses cross-multiplication followed by division by the row gcd, so no
floating point and no rational type ever enters a rank decision.  The one
span type is `Subspace`: its canonical reduced echelon basis (primitive
integer rows, positive leading entry) makes it hashable and directly
comparable, and `Subspace.residue` is the one reduction modulo a span.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterable, Sequence

from .errors import DimensionMismatch

IntVector = tuple[int, ...]


def as_vector(entries: Iterable[int]) -> IntVector:
    return tuple(int(e) for e in entries)


def _check_length(v: Sequence[int], ambient: int) -> None:
    if len(v) != ambient:
        raise DimensionMismatch(f"vector of length {len(v)} in ambient rank {ambient}")


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
    residue is what `Subspace.residue` gives modulo the line.  So an
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
    what `Subspace.residue` gives for the grown span: both are the
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


@dataclass(frozen=True)
class Subspace:
    """A rational subspace of Q^k in canonical reduced echelon form (hashable)."""

    ambient: int
    basis: tuple[IntVector, ...]

    @classmethod
    def span(cls, vectors: Iterable[Sequence[int]], ambient: int) -> "Subspace":
        """The span of `vectors`, each of length `ambient`, read once.

        Each vector is reduced against the echelon rows so far and what is
        left goes in at its pivot column; then each pivot is cleared upward.
        The reduced echelon form of a row space is unique, so the basis is
        a canonical key for the subspace.
        """
        rows: list[tuple[int, IntVector]] = []  # (pivot column, primitive row), by pivot
        for v in vectors:
            _check_length(v, ambient)
            reduced = _eliminate(v, rows)
            if reduced is not None:
                insort(rows, (next(i for i, x in enumerate(reduced) if x), reduced))
        for j in range(len(rows) - 1, 0, -1):
            pivot, row = rows[j]
            for i in range(j):
                c = rows[i][1][pivot]
                if c:  # nonzero after: the pivot column of row i survives
                    work = [row[pivot] * a - c * b for a, b in zip(rows[i][1], row)]
                    rows[i] = rows[i][0], _primitive(work)
        return cls(ambient, tuple(row for _, row in rows))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def _pivoted(self) -> list[tuple[int, IntVector]]:
        return [(next(i for i, x in enumerate(r) if x), r) for r in self.basis]

    def residue(self, v: Sequence[int]) -> IntVector | None:
        """v reduced modulo the span, primitive with positive lead; None in the span.

        Up to a nonzero factor the reduction is a linear map whose kernel
        is the span, so two vectors outside the span have the same residue
        exactly when each lies in the span of the basis and the other.
        """
        _check_length(v, self.ambient)
        return _eliminate(v, self._pivoted)

    def contains(self, v: Sequence[int]) -> bool:
        return self.residue(v) is None

    def sort_key(self) -> tuple:
        return (self.dim, self.basis)

