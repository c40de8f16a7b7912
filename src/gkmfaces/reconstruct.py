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
and computes each candidate's span once.  A candidate survives when no
other candidate with its span contains it: one containing h holds every
vertex of h, so h is then a maximum of each of its (vertex, span)
groups, and the groups, built over the survivors for the diagnostics,
hold exactly their maxima.  The report keeps the candidates' positions
and container masks; names, `GkmSubgraph`, are built for the survivors'
payloads and the diagnostics' maxima, and for all candidates only when
`FaceReport.candidates` is read.  The projection to surviving faces and
the Galois check take containment from membership masks and match
survivors to candidates by position: the projection is the one minimal
container, `poset._minimal`, and monotonicity is checked on the covers
of the inclusion order among the candidates, `poset._cover_pairs` on the
kept masks, which implies it on every nested pair.
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
    diagnostics: tuple[Diagnostic, ...]
    # the graph, and per candidate its positions and the mask of its containers
    _graph: GkmGraph = field(repr=False, compare=False)
    _candidate_faces: tuple[Face, ...] = field(repr=False)
    _candidate_containers: tuple[int, ...] = field(repr=False, compare=False)

    @cached_property
    def candidates(self) -> tuple[GkmSubgraph, ...]:
        """The full enumerated face list, by names."""
        return tuple(_subgraph(self._graph, face) for face in self._candidate_faces)

    def subgraph(self, element) -> GkmSubgraph:
        return self.faces.payload[element]

    def complexity(self, element) -> int:
        return self.faces.drk[element] - self.faces.rank[element]

    @cached_property
    def _survivors(self) -> tuple[list[Face], tuple[int, list[int], list[int]]]:
        """The surviving faces by position, in element order, and their membership masks."""
        faces = [_face_of(self._graph, self.subgraph(e)) for e in self.faces.elements]
        return faces, _membership(self._graph, faces)


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
    groups: dict[tuple[int, Subspace], list[Face]] = {}
    for i in survivors:
        for x in faces[i][0]:
            groups.setdefault((x, spans[i]), []).append(faces[i])
    diagnostics = [
        Diagnostic(g.vertices[x], span, tuple(_subgraph(g, f) for f in sorted(fs, key=_face_key)))
        for (x, span), fs in groups.items()
        if len(fs) > 1
    ]
    diagnostics.sort(key=lambda d: (g.vertex_key(d.vertex), d.flat.sort_key()))
    return FaceReport(
        mode=mode,
        faces=_face_poset(g, [faces[i] for i in survivors], "F"),
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
    containers = 0 if face is None else _held_by(report._survivors[1], face)
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
    count = len(report._candidate_faces)
    if report.diagnostics:
        return GaloisReport(
            False, report.mode, count, tuple(d.describe() for d in report.diagnostics)
        )
    failures: list[str] = []
    g, (survivors, membership) = report._graph, report._survivors
    projection = []  # None where the projection is undefined
    for face in report._candidate_faces:
        try:
            image = _projection(report, face)
            held = _held_by(membership, face) >> report.faces._index[image] & 1
            failure = "" if held else "does not contain it"
        except ReconstructionAmbiguous as exc:
            image, failure = None, f"is undefined: {exc}"
        if failure:
            listed = [str(g.vertices[x]) for x in face[0]]
            failures.append(f"projection of a face on vertices {listed} {failure}")
        projection.append(image)
    position = {face: i for i, face in enumerate(report._candidate_faces)}
    for e, face in zip(report.faces.elements, survivors):
        i = position.get(face)
        if i is not None and projection[i] not in (e, None):
            failures.append(f"projection does not fix surviving face {e}")
    # monotone on the covers of the inclusion order, so on every nested pair
    for i, j in _cover_pairs(report._candidate_containers, (1 << count) - 1):
        if None not in (projection[i], projection[j]) and not report.faces.leq(
            projection[i], projection[j]
        ):
            failures.append("projection is not monotone on a nested pair of faces")
    for e, face in zip(report.faces.elements, survivors):
        if face not in position:
            failures.append(f"surviving face {e} is missing from the full face list")
    return GaloisReport(not failures, report.mode, count, tuple(failures))
