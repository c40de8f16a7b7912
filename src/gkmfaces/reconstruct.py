"""Recovering the face poset of a manifold from its GKM-graph.

Among all faces through a vertex x carrying a given span, only the
largest one corresponds to an actual invariant submanifold; dropping the
others from the enumerated face poset leaves a poset isomorphic to the
manifold's.  When some (vertex, span) group has no greatest member the
input cannot come from a normal weak GKM action: the anomaly is recorded
as a diagnostic and all maximal members are kept rather than guessed
between.  In "tg" mode the candidates are the totally geodesic faces,
taken from `gkm._tg_faces` with the supplied connection or the canonical
one.

The selection runs on the faces as the search gives them, `gkm.Face`,
and builds one `GkmSubgraph` per candidate.  Each candidate's span is
computed once.  A candidate survives when no other candidate with its
span contains it: one containing h holds every vertex of h, so h is then
a maximum of each of its (vertex, span) groups, and the groups, built
over the survivors for the diagnostics, hold exactly their maxima.  The
candidates' positions and container masks are kept on the report.  The
projection to surviving faces and the Galois check take containment
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
    Face,
    GkmGraph,
    GkmSubgraph,
    _containers,
    _face_key,
    _face_of,
    _face_poset,
    _face_positions,
    _held_by,
    _membership,
    _span_at,
    _subgraph,
    _tg_faces,
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
    # the graph, and per candidate its positions and the mask of its containers
    _graph: GkmGraph = field(repr=False, compare=False)
    _candidate_faces: tuple[Face, ...] = field(repr=False, compare=False)
    _candidate_containers: tuple[int, ...] = field(repr=False, compare=False)

    def subgraph(self, element) -> GkmSubgraph:
        return self.faces.payload[element]

    def complexity(self, element) -> int:
        return self.faces.drk[element] - self.faces.rank[element]

    @cached_property
    def _survivors(self) -> tuple[int, list[int], list[int]]:
        """Membership masks of the surviving faces, in element order, by position."""
        g, known = self._graph, dict(zip(self.candidates, self._candidate_faces))
        faces = [known.get(h) or _face_of(g, h) for h in map(self.subgraph, self.faces.elements)]
        return _membership(g, faces)


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
    faces = _tg_faces(g, connection, cap) if mode == "tg" else _face_positions(g, cap)
    spans = [_span_at(g, xs[0], edges) for xs, edges in faces]
    same_span: dict[Subspace, int] = {}  # span -> bitmask of the candidates with it
    for i, span in enumerate(spans):
        same_span[span] = same_span.get(span, 0) | 1 << i
    containers = _containers(g, faces)
    survivors = [i for i, span in enumerate(spans) if containers[i] & same_span[span] == 1 << i]
    # (vertex, span) -> the survivors in that group, which are its maxima
    groups: dict[tuple[int, Subspace], list[int]] = {}
    for i in survivors:
        for x in faces[i][0]:
            groups.setdefault((x, spans[i]), []).append(i)
    candidates = [_subgraph(g, face) for face in faces]
    diagnostics = [
        Diagnostic(
            g.vertices[x],
            span,
            tuple(candidates[i] for i in sorted(members, key=lambda i: _face_key(faces[i]))),
        )
        for (x, span), members in groups.items()
        if len(members) > 1
    ]
    diagnostics.sort(key=lambda d: (g.vertex_key(d.vertex), d.flat.sort_key()))
    return FaceReport(
        mode=mode,
        faces=_face_poset(
            g, [faces[i] for i in survivors], "F", [candidates[i] for i in survivors]
        ),
        candidates=tuple(candidates),
        diagnostics=tuple(diagnostics),
        _graph=g,
        _candidate_faces=tuple(faces),
        _candidate_containers=tuple(containers),
    )


def pi_map(report: FaceReport, h: GkmSubgraph):
    """Smallest surviving face whose subgraph contains h."""
    if report.diagnostics:
        raise ReconstructionAmbiguous(
            "reconstruction produced diagnostics; the projection is not defined"
        )
    g = report._graph
    known = h.vertices <= g._vertex_pos.keys() and h.edges <= g._edge_pos.keys()
    return _projection(report, _face_of(g, h) if known else None)


def _projection(report: FaceReport, face: Face | None):
    """`pi_map` on a face by position, None for one outside the graph; diagnostics unchecked."""
    containers = 0 if face is None else _held_by(report._survivors, face)
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


def verify_galois(report: FaceReport) -> GaloisReport:
    """Check the insertion laws between all faces and surviving faces.

    For every enumerated face h: the projection of h is defined and
    contains h.  For every surviving face: projecting its own subgraph
    returns it.  Both the projection and the inclusion must be monotone.
    A face whose projection is undefined fails once and is left out of
    the later laws.
    """
    if report.diagnostics:
        return GaloisReport(
            False,
            report.mode,
            len(report.candidates),
            tuple(d.describe() for d in report.diagnostics),
        )
    failures: list[str] = []
    g, candidates = report._graph, report.candidates
    projection = []  # None where the projection is undefined
    for h, face in zip(candidates, report._candidate_faces):
        try:
            image = _projection(report, face)
            failure = "" if report.subgraph(image).contains(h) else "does not contain it"
        except ReconstructionAmbiguous as exc:
            image, failure = None, f"is undefined: {exc}"
        if failure:
            listed = [str(g.vertices[x]) for x in face[0]]
            failures.append(f"projection of a face on vertices {listed} {failure}")
        projection.append(image)
    position = {h: i for i, h in enumerate(candidates)}
    for e in report.faces.elements:
        i = position.get(report.subgraph(e))
        if i is not None and projection[i] not in (e, None):
            failures.append(f"projection does not fix surviving face {e}")
    # monotone on the covers of the inclusion order, so on every nested pair
    for i, j in _cover_pairs(report._candidate_containers, (1 << len(candidates)) - 1):
        if None not in (projection[i], projection[j]) and not report.faces.leq(
            projection[i], projection[j]
        ):
            failures.append("projection is not monotone on a nested pair of faces")
    for e in report.faces.elements:
        if report.subgraph(e) not in position:
            failures.append(f"surviving face {e} is missing from the full face list")
    return GaloisReport(not failures, report.mode, len(candidates), tuple(failures))
