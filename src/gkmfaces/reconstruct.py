"""Recovering the face poset of a manifold from its GKM-graph.

Among all faces through a vertex x carrying a given span, only the
largest one corresponds to an actual invariant submanifold; dropping the
others from the enumerated face poset leaves a poset isomorphic to the
manifold's.  When some (vertex, span) group has no greatest member the
input cannot come from a normal weak GKM action: the anomaly is recorded
as a diagnostic and all maximal members are kept rather than guessed
between.  In "tg" mode the candidates are the totally geodesic faces,
taken from `gkm._tg_face_subgraphs` with the supplied connection or the
canonical one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ReconstructionAmbiguous
from .gkm import (
    DEFAULT_CAP,
    Connection,
    GkmGraph,
    GkmSubgraph,
    _check_limits,
    _face_poset,
    _tg_face_subgraphs,
    enumerate_face_subgraphs,
    subgraph_flat,
    subgraph_sort_key,
)
from .poset import GradedPoset
from .ratlinalg import Subspace

MODES = ("faces", "tg")


@dataclass(frozen=True)
class Diagnostic:
    """A (vertex, span) group whose maxima are not dominated by one face."""

    vertex: object
    flat: Subspace
    maxima: tuple[GkmSubgraph, ...]

    def describe(self) -> str:
        return (
            f"no greatest face at vertex {self.vertex!r} for a rank-{self.flat.dim} "
            f"span: {len(self.maxima)} incomparable maxima"
        )


@dataclass(frozen=True)
class FaceReport:
    """Surviving face poset plus everything the selection was run on."""

    mode: str
    faces: GradedPoset  # payload maps ids to GkmSubgraph witnesses
    candidates: tuple[GkmSubgraph, ...]  # the full enumerated face list
    diagnostics: tuple[Diagnostic, ...]

    def subgraph(self, element) -> GkmSubgraph:
        return self.faces.payload[element]

    def complexity(self, element) -> int:
        return self.faces.drk[element] - self.faces.rank[element]


def reconstruct_face_poset(
    g: GkmGraph,
    mode: str = "faces",
    connection: Connection | None = None,
    cap: int = DEFAULT_CAP,
    workers: int = 1,
) -> FaceReport:
    """Keep only the greatest face per (vertex, span) group.

    In "tg" mode the candidates are the faces closed under `connection`,
    or under the canonical connection when it is None; a supplied
    connection that fails the axioms raises InvalidGraph, a derived one
    ConnectionNotCanonical.  "faces" mode ignores `connection`.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    if mode == "tg":
        _check_limits(cap, workers)
        candidates = _tg_face_subgraphs(g, connection, cap)
    else:
        candidates = enumerate_face_subgraphs(g, cap=cap, workers=workers)

    flats = {h: subgraph_flat(g, h, min(h.vertices, key=g.vertex_key)) for h in candidates}
    groups: dict[tuple[int, Subspace], list[GkmSubgraph]] = {}
    for h in candidates:
        for x in h.vertices:
            groups.setdefault((g.vertex_key(x), flats[h]), []).append(h)

    keep: set[GkmSubgraph] = set(candidates)
    diagnostics: list[Diagnostic] = []
    for (vertex_key, flat), members in sorted(
        groups.items(), key=lambda item: (item[0][0], item[0][1].sort_key())
    ):
        maxima = [
            h
            for h in members
            if not any(other is not h and other.contains(h) for other in members)
        ]
        if len(maxima) > 1:
            diagnostics.append(
                Diagnostic(
                    g.vertices[vertex_key],
                    flat,
                    tuple(sorted(maxima, key=lambda h: subgraph_sort_key(g, h))),
                )
            )
        dropped = set(members) - set(maxima)
        keep -= dropped

    survivors = [h for h in candidates if h in keep]
    return FaceReport(
        mode=mode,
        faces=_face_poset(g, survivors, prefix="F"),
        candidates=tuple(candidates),
        diagnostics=tuple(diagnostics),
    )


def pi_map(report: FaceReport, h: GkmSubgraph):
    """Smallest surviving face whose subgraph contains h."""
    if report.diagnostics:
        raise ReconstructionAmbiguous(
            "reconstruction produced diagnostics; the projection is not defined"
        )
    containers = [e for e in report.faces.elements if report.subgraph(e).contains(h)]
    if not containers:
        raise ReconstructionAmbiguous(
            "no surviving face contains the given subgraph (internal inconsistency)"
        )
    minima = [
        e
        for e in containers
        if not any(f != e and report.faces.lt(f, e) for f in containers)
    ]
    if len(minima) != 1:
        raise ReconstructionAmbiguous(
            f"{len(minima)} minimal surviving faces contain the subgraph"
        )
    return minima[0]


@dataclass(frozen=True)
class GaloisReport:
    ok: bool
    mode: str
    checked_faces: int
    failures: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def verify_galois(g: GkmGraph, report: FaceReport) -> GaloisReport:
    """Check the insertion laws between all faces and surviving faces.

    `report` is the reconstruction of `g` to check.  For every enumerated
    face h: the projection of h contains h.  For every surviving face:
    projecting its own subgraph returns it.  Both the projection and the
    inclusion must be monotone.
    """
    if report.diagnostics:
        return GaloisReport(
            False,
            report.mode,
            len(report.candidates),
            tuple(d.describe() for d in report.diagnostics),
        )
    failures: list[str] = []
    projection = {h: pi_map(report, h) for h in report.candidates}
    for h in report.candidates:
        if not report.subgraph(projection[h]).contains(h):
            failures.append(
                f"projection of a face on vertices "
                f"{[str(x) for x in sorted(h.vertices, key=g.vertex_key)]} "
                "does not contain it"
            )
    for e in report.faces.elements:
        if projection[report.subgraph(e)] != e:
            failures.append(f"projection does not fix surviving face {e}")
    for h1 in report.candidates:
        for h2 in report.candidates:
            if h2.contains(h1) and not report.faces.leq(projection[h1], projection[h2]):
                failures.append(
                    "projection is not monotone on a nested pair of faces"
                )
    survivors = set(report.candidates)
    for e in report.faces.elements:
        if report.subgraph(e) not in survivors:
            failures.append(f"surviving face {e} is missing from the full face list")
    return GaloisReport(not failures, report.mode, len(report.candidates), tuple(failures))
