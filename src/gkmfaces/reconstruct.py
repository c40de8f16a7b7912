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

Each candidate's span is computed once and gives the survivors their
ranks.  A candidate survives when no other candidate with its span
contains it: one containing h holds every vertex of h, so h is then a
maximum of each of its (vertex, span) groups, and the groups, built over
the survivors for the diagnostics, hold exactly their maxima.  The
candidates' container masks are computed once and kept on the report.
The projection to surviving faces and the Galois check take containment
from membership masks too: the projection is the one minimal container,
`poset._minimal`, and monotonicity is checked on the covers of the
inclusion order among the candidates, `poset._cover_pairs` on the kept
masks, which implies it on every nested pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .errors import ReconstructionAmbiguous
from .gkm import (
    DEFAULT_CAP,
    Connection,
    GkmGraph,
    GkmSubgraph,
    _containers,
    _face_poset,
    _flat,
    _Membership,
    _tg_face_subgraphs,
    enumerate_face_subgraphs,
    subgraph_sort_key,
)
from .poset import GradedPoset, _cover_pairs, _minimal
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
    # per candidate, the mask of the candidates containing it; None when not given
    _candidate_containers: tuple[int, ...] | None = field(default=None, repr=False, compare=False)

    def subgraph(self, element) -> GkmSubgraph:
        return self.faces.payload[element]

    def complexity(self, element) -> int:
        return self.faces.drk[element] - self.faces.rank[element]

    @cached_property
    def _survivors(self) -> _Membership:
        """Membership masks of the surviving faces, in element order."""
        return _Membership([self.subgraph(e) for e in self.faces.elements])


def reconstruct_face_poset(
    g: GkmGraph,
    mode: str = "faces",
    connection: Connection | None = None,
    cap: int = DEFAULT_CAP,
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
        candidates = _tg_face_subgraphs(g, connection, cap)
    else:
        candidates = enumerate_face_subgraphs(g, cap=cap)

    flats = [_flat(g, h) for h in candidates]
    same_span: dict[Subspace, int] = {}  # span -> bitmask of the candidates with it
    for i, flat in enumerate(flats):
        same_span[flat] = same_span.get(flat, 0) | 1 << i
    containers = _containers(candidates)
    survivors = [i for i, flat in enumerate(flats) if containers[i] & same_span[flat] == 1 << i]
    # (vertex key, span) -> the survivors in that group, which are its maxima
    groups: dict[tuple[int, Subspace], list[GkmSubgraph]] = {}
    for i in survivors:
        for x in candidates[i].vertices:
            groups.setdefault((g.vertex_key(x), flats[i]), []).append(candidates[i])
    diagnostics = [
        Diagnostic(g.vertices[key], flat, tuple(sorted(hs, key=lambda h: subgraph_sort_key(g, h))))
        for (key, flat), hs in groups.items()
        if len(hs) > 1
    ]
    diagnostics.sort(key=lambda d: (g.vertex_key(d.vertex), d.flat.sort_key()))
    return FaceReport(
        mode=mode,
        faces=_face_poset(
            g, [candidates[i] for i in survivors], [flats[i].dim for i in survivors], prefix="F"
        ),
        candidates=tuple(candidates),
        diagnostics=tuple(diagnostics),
        _candidate_containers=tuple(containers),
    )


def pi_map(report: FaceReport, h: GkmSubgraph):
    """Smallest surviving face whose subgraph contains h."""
    if report.diagnostics:
        raise ReconstructionAmbiguous(
            "reconstruction produced diagnostics; the projection is not defined"
        )
    containers = report._survivors.containers(h)
    if not containers:
        raise ReconstructionAmbiguous(
            "no surviving face contains the given subgraph (internal inconsistency)"
        )
    minima = _minimal(report.faces._up, containers)
    if len(minima) != 1:
        raise ReconstructionAmbiguous(f"{len(minima)} minimal surviving faces contain the subgraph")
    return report.faces.elements[minima[0]]


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
    face h: the projection of h is defined and contains h.  For every
    surviving face: projecting its own subgraph returns it.  Both the
    projection and the inclusion must be monotone.  A face whose
    projection is undefined fails once and is left out of the later laws.
    """
    if report.diagnostics:
        return GaloisReport(
            False,
            report.mode,
            len(report.candidates),
            tuple(d.describe() for d in report.diagnostics),
        )
    failures: list[str] = []
    candidates = report.candidates
    projection = []  # None where the projection is undefined
    for h in candidates:
        try:
            image = pi_map(report, h)
            failure = "" if report.subgraph(image).contains(h) else "does not contain it"
        except ReconstructionAmbiguous as exc:
            image, failure = None, f"is undefined: {exc}"
        if failure:
            listed = [str(x) for x in sorted(h.vertices, key=g.vertex_key)]
            failures.append(f"projection of a face on vertices {listed} {failure}")
        projection.append(image)
    position = {h: i for i, h in enumerate(candidates)}
    for e in report.faces.elements:
        i = position.get(report.subgraph(e))
        if i is not None and projection[i] not in (e, None):
            failures.append(f"projection does not fix surviving face {e}")
    # monotone on the covers of the inclusion order, so on every nested pair
    containers = report._candidate_containers
    if containers is None:
        containers = _containers(candidates)
    for i, j in _cover_pairs(containers, (1 << len(candidates)) - 1):
        if None not in (projection[i], projection[j]) and not report.faces.leq(
            projection[i], projection[j]
        ):
            failures.append("projection is not monotone on a nested pair of faces")
    for e in report.faces.elements:
        if report.subgraph(e) not in position:
            failures.append(f"surviving face {e} is missing from the full face list")
    return GaloisReport(not failures, report.mode, len(candidates), tuple(failures))
