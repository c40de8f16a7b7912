"""Abstract GKM-graphs: axioms, connections, and face enumeration.

A graph is a finite multigraph with an integer axial vector on every
edge.  In unsigned mode one vector per edge is stored and all span and
collinearity questions ignore signs; in signed mode the stored vector is
the value for the edge oriented from its first declared endpoint, and the
reverse orientation is its exact negation.

A connection is a family of bijections between the vertex stars along the
edges.  `validate_connection` checks its axioms, with the sign rule of the
graph's mode; `canonical_connection` derives the span-compatible one and
checks it the same way.

Faces are connected subgraphs that are GKM-graphs in their own right:
regular of some degree and closed under two-dimensional spans.  A face is
fixed by its star at each vertex, so faces are grown from a first vertex
and a subset of its star, one reached vertex at a time, through the stars
there that agree with the vertices already placed and close every
two-plane across to them.  Search states are counted against a hard cap,
so pathological inputs fail loudly instead of hanging.  Totally geodesic
faces are the faces closed under a connection; `_tg_face_subgraphs` is
the one path to them.

A graph keeps what it derives: vertex and edge positions, and from first
use its plane table and its `validate_graph` report, which every
question needing a valid graph reads through `require_valid`.

Axial vectors are the tangent weights at the fixed points, so few lines
carry many edges (d lines for the d 2^(d-1) edges of Q_d).  The graph
indexes each edge by its line, the primitive vector with positive lead,
and its integer scale, alpha = scale * line, and keeps two memos by
line: one line reduced modulo another, as a residue and a factor, and
the span of a set of lines.  Each elimination is then done once per
pair or set of lines, however many edges share them.  Two axial vectors
are dependent exactly when they share a line; the vertex and face spans
come from the span memo; an edge e3 lies in the plane of e1 and e2
exactly when its residue modulo e2's line is None or equals e1's; and a
connection's image differs from its source by a multiple of the edge
exactly when their residues agree and so do scale * factor, with the
orientation sign on signed graphs and up to sign otherwise.

The face search holds stars as edge masks.  The plane table stores each
plane as a mask of edges, so the closure test is one AND.  Inclusion
between faces is the AND of one membership mask per vertex and per edge.
Those masks are the up-sets of the face poset, whose covers come from
the order core, `poset._cover_pairs`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .errors import (
    ConnectionNotCanonical,
    DimensionMismatch,
    EnumerationCapExceeded,
    GraphModeError,
    InvalidGraph,
    ZeroWeight,
)
from .matroid import WeightSystem, flats_lattice
from .poset import GradedPoset, _bits, _cover_pairs
from .ratlinalg import IntVector, Subspace, _line_residue, _primitive, as_vector

DEFAULT_CAP = 10**6


@dataclass(frozen=True)
class Edge:
    name: str
    u: object
    v: object

    def other(self, x):
        if x == self.u:
            return self.v
        if x == self.v:
            return self.u
        raise ValueError(f"vertex {x!r} is not an endpoint of edge {self.name!r}")


class GkmGraph:
    """Multigraph with axial vectors; GKM axioms are checked by validate_graph.

    `axial` is a plain dict that must not be changed once the graph is
    built: the line index, the plane table and the validation report it
    keeps are not recomputed.
    """

    def __init__(
        self,
        ambient_rank: int,
        vertices: Iterable,
        edges: Iterable[tuple[str, object, object]],
        axial: Mapping[str, Sequence[int]],
        signed: bool = False,
    ):
        if ambient_rank < 1:
            raise ValueError("ambient rank must be at least 1")
        self.ambient_rank = ambient_rank
        self.vertices = tuple(vertices)
        if not self.vertices:
            raise ValueError("graph must have at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex identifiers")
        vertex_set = set(self.vertices)
        self.edges = tuple(Edge(name, u, v) for name, u, v in edges)
        names = [e.name for e in self.edges]
        if len(set(names)) != len(names):
            raise ValueError("duplicate edge identifiers")
        for e in self.edges:
            if e.u not in vertex_set or e.v not in vertex_set:
                raise ValueError(f"edge {e.name!r} uses unknown endpoints")
            if e.u == e.v:
                raise ValueError(f"edge {e.name!r} is a loop")
        self.axial: dict[str, IntVector] = {}
        for e in self.edges:
            if e.name not in axial:
                raise ValueError(f"edge {e.name!r} has no axial vector")
            w = as_vector(axial[e.name])
            if len(w) != ambient_rank:
                raise DimensionMismatch(
                    f"axial vector of edge {e.name!r} has length {len(w)}, expected {ambient_rank}"
                )
            if not any(w):
                raise ZeroWeight(f"axial vector of edge {e.name!r} is zero")
            self.axial[e.name] = w
        self.signed = signed
        self._edge_by_name = {e.name: e for e in self.edges}
        self._vertex_pos = {x: i for i, x in enumerate(self.vertices)}
        self._edge_pos = {e.name: i for i, e in enumerate(self.edges)}
        # by position, for the face questions: the two ends of each edge, and
        # the edges at each vertex in declaration order
        self._ends = [(self._vertex_pos[e.u], self._vertex_pos[e.v]) for e in self.edges]
        self._star_at: list[list[int]] = [[] for _ in self.vertices]
        for i, (a, b) in enumerate(self._ends):
            self._star_at[a].append(i)
            self._star_at[b].append(i)
        self._star = {
            x: tuple(self.edges[i].name for i in at) for x, at in zip(self.vertices, self._star_at)
        }
        # the line index: each edge's line, as a position in `_lines`, and the
        # integer scale with alpha = scale * line
        lines: dict[IntVector, int] = {}
        self._line: list[int] = []
        self._scale: list[int] = []
        for e in self.edges:
            w = self.axial[e.name]
            line = _primitive(w)
            self._line.append(lines.setdefault(line, len(lines)))
            self._scale.append(next(a // b for a, b in zip(w, line) if b))
        self._lines = list(lines)
        # memos by line: one line modulo another, and the span of a set of lines
        self._residues: dict[tuple[int, int], tuple[IntVector | None, int]] = {}
        self._spans: dict[frozenset[int], Subspace] = {}
        # kept on first use as plain attributes: cached_property reads `__dict__`, which slows reads
        self._planes = self._report = None

    def _residue(self, a: int, b: int) -> tuple[IntVector | None, int]:
        """Line a modulo line b as `_line_residue` gives it, computed once per pair."""
        found = self._residues.get((a, b))
        if found is None:
            found = self._residues[(a, b)] = _line_residue(self._lines[a], self._lines[b])
        return found

    def _span(self, lines: frozenset[int]) -> Subspace:
        """The span of a set of lines, computed once per set."""
        found = self._spans.get(lines)
        if found is None:
            found = self._spans[lines] = Subspace.span(
                [self._lines[i] for i in lines], self.ambient_rank
            )
        return found

    @property
    def _plane_table(self) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
        """For each edge e2 and end z: (e1, plane mask) per other edge e1 at the far end y.

        Edges are positions.  The plane mask holds the edges at z other than e2
        in the span of alpha_e1 and alpha_e2, and e1 runs through the star at y
        in order.  e3 lies in the plane exactly when the residue of its line
        modulo e2's is None or equals the residue of e1's line.  Built on first
        read and kept.
        """
        if self._planes is not None:
            return self._planes
        table = self._planes = {}
        line = self._line
        for j, ends in enumerate(self._ends):
            residue = {
                i: self._residue(line[i], line[j])[0]
                for x in ends
                for i in self._star_at[x]
                if i != j
            }
            for y, z in (ends, ends[::-1]):
                at_z = [i for i in self._star_at[z] if i != j]
                table[(j, z)] = tuple(
                    (
                        i,
                        sum(1 << k for k in at_z if residue[k] is None or residue[k] == residue[i]),
                    )
                    for i in self._star_at[y]
                    if i != j
                )
        return table

    def edge(self, name: str) -> Edge:
        return self._edge_by_name[name]

    def star(self, x) -> tuple[str, ...]:
        if x not in self._star:
            raise ValueError(f"unknown vertex {x!r}")
        return self._star[x]

    def alpha(self, name: str) -> IntVector:
        return self.axial[name]

    def alpha_from(self, name: str, tail) -> IntVector:
        """Signed axial value for the edge oriented out of `tail`."""
        if not self.signed:
            raise GraphModeError("oriented axial values need a signed graph")
        e = self.edge(name)
        w = self.axial[name]
        if tail == e.u:
            return w
        if tail == e.v:
            return tuple(-x for x in w)
        raise ValueError(f"vertex {tail!r} is not an endpoint of edge {name!r}")

    def vertex_key(self, x) -> int:
        return self._vertex_pos[x]

    def edge_key(self, name: str) -> int:
        return self._edge_pos[name]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GkmGraph):
            return NotImplemented
        return (
            self.ambient_rank == other.ambient_rank
            and self.vertices == other.vertices
            and self.edges == other.edges
            and self.axial == other.axial
            and self.signed == other.signed
        )

    __hash__ = None  # type: ignore[assignment]


@dataclass(frozen=True)
class GraphReport:
    ok: bool
    dimension: int | None
    rank: int | None
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def validate_graph(g: GkmGraph) -> GraphReport:
    """Check the GKM-graph axioms, reporting every violation."""
    violations: list[str] = []

    seen = {g.vertices[0]}
    frontier = [g.vertices[0]]
    while frontier:
        x = frontier.pop()
        for name in g.star(x):
            y = g.edge(name).other(x)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    if len(seen) != len(g.vertices):
        missing = next(x for x in g.vertices if x not in seen)
        violations.append(f"graph is disconnected: vertex {missing!r} unreachable")

    degrees = {x: len(g.star(x)) for x in g.vertices}
    dimension = degrees[g.vertices[0]]
    if len(set(degrees.values())) != 1:
        worst = sorted(degrees.items(), key=lambda kv: (kv[1], g.vertex_key(kv[0])))
        violations.append(
            f"graph is not regular: vertex {worst[0][0]!r} has degree {worst[0][1]}, "
            f"vertex {worst[-1][0]!r} has degree {worst[-1][1]}"
        )
        dimension = None

    # two nonzero vectors are dependent exactly when they share a line
    line = g._line
    for x, at in zip(g.vertices, g._star_at):
        for i, j in combinations(at, 2):
            if line[i] == line[j]:
                violations.append(
                    f"edges {g.edges[i].name!r} and {g.edges[j].name!r} at vertex {x!r} "
                    "have dependent axial vectors"
                )

    # across every edge e2 from y to z, each other edge e1 at y needs an edge
    # at z other than e2 in the span of alpha_e1 and alpha_e2
    planes = g._plane_table
    for j, ends in enumerate(g._ends):
        for z in ends[::-1]:
            violations.extend(
                f"no edge at {g.vertices[z]!r} continues the span of "
                f"{g.edges[i].name!r} and {g.edges[j].name!r}"
                for i, plane in planes[(j, z)]
                if not plane
            )

    spans = [g._span(frozenset(line[i] for i in at)) for at in g._star_at]
    rank = spans[0].dim
    for x, span in zip(g.vertices, spans):
        if span != spans[0]:
            violations.append(
                f"axial span at vertex {x!r} differs from the span at {g.vertices[0]!r}"
            )
            rank = None
            break

    return GraphReport(not violations, dimension, rank, tuple(violations))


def require_valid(g: GkmGraph) -> GraphReport:
    """The graph's `validate_graph` report, run once and kept; InvalidGraph when it fails."""
    if g._report is None:
        g._report = validate_graph(g)
    report = g._report
    if not report:
        raise InvalidGraph("; ".join(report.violations))
    return report


# ----------------------------------------------------------------------
# connections


class Connection:
    """Star bijections per oriented edge: maps[(edge, tail)][f] = image edge."""

    def __init__(self, maps: Mapping[tuple[str, object], Mapping[str, str]]):
        self.maps = {key: dict(value) for key, value in maps.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Connection):
            return NotImplemented
        return self.maps == other.maps


@dataclass(frozen=True)
class ConnectionReport:
    ok: bool
    violations: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.ok


def validate_connection(g: GkmGraph, theta: Connection) -> ConnectionReport:
    """Check the three connection axioms, reporting every violation.

    Each star map must be a bijection between the vertex stars that keeps
    its own edge, the two maps along an edge must be mutually inverse, and
    the axial value of each image must differ from that of its source by a
    multiple of the edge's.  That last rule is exact on signed graphs; on
    unsigned graphs it accepts either sign of the source value, since
    stored vectors are only defined up to sign.  One walk over the edges
    looks each map up once; the report lists the star violations, then the
    inverse ones, then the translation ones, each in edge order.
    """
    shape: list[str] = []
    inverse: list[str] = []
    translation: list[str] = []
    stars = {x: set(g.star(x)) for x in g.vertices}
    # alpha = scale * line and a line modulo e's is factor * residue, so the
    # difference lies on e's line exactly when the residues agree and so do
    # scale * factor, signed by orientation (or up to sign, unsigned)
    line, scale, residue, position = g._line, g._scale, g._residue, g._edge_pos
    for j, e in enumerate(g.edges):
        b = line[j]
        forward = None  # the map out of e.u, once it is known to be a bijection
        for tail, head in ((e.u, e.v), (e.v, e.u)):
            mapping = theta.maps.get((e.name, tail))
            if mapping is None:
                shape.append(f"no star map along edge {e.name!r} out of {tail!r}")
                continue
            if set(mapping) != stars[tail] or set(mapping.values()) != stars[head]:
                shape.append(
                    f"map along {e.name!r} out of {tail!r} is not a bijection "
                    "between the vertex stars"
                )
            else:
                forward = mapping if tail == e.u else forward
                if mapping[e.name] != e.name:
                    shape.append(f"map along {e.name!r} out of {tail!r} moves the edge itself")
            for f, image in mapping.items():
                if f not in stars[tail] or image not in stars[head]:
                    continue
                i, k = position[f], position[image]
                r_f, c_f = residue(line[i], b)
                r_image, c_image = residue(line[k], b)
                a_f, a_image = scale[i] * c_f, scale[k] * c_image
                if not g.signed:
                    a_f, a_image = abs(a_f), abs(a_image)
                elif (tail == g.edges[i].u) != (head == g.edges[k].u):
                    a_f = -a_f  # alpha_from negates at second endpoints; two negations cancel
                if r_f != r_image or a_f != a_image:
                    translation.append(
                        f"difference of axial values of {image!r} and {f!r} is not "
                        f"collinear to the edge {e.name!r}"
                    )
        if forward is not None and mapping is not None:  # mapping: the map out of e.v
            for f, image in forward.items():
                if mapping.get(image) != f:
                    inverse.append(f"maps along {e.name!r} are not mutually inverse at {f!r}")
                    break
    out = shape + inverse + translation
    return ConnectionReport(not out, tuple(out))


def canonical_connection(g: GkmGraph) -> Connection:
    """The unique span-compatible connection, where one exists.

    Along an oriented edge e from u to v, every other edge f at u must see
    exactly one edge at v inside the plane span(alpha_f, alpha_e), else this
    raises, as does a span-compatible map that fails `validate_connection`.
    The images are then distinct, as the graph is valid: each edge other
    than e at u or v lies in one plane through e, two-plane closure makes
    the planes met at v those met at u, and the d - 1 edges at v, one to a
    plane, fill d - 1 planes, so each also holds just one edge at u.
    """
    require_valid(g)
    maps: dict[tuple[str, object], dict[str, str]] = {}
    planes = g._plane_table
    for j, e in enumerate(g.edges):
        for tail, head in zip((e.u, e.v), g._ends[j][::-1]):
            mapping = {e.name: e.name}
            for i, plane in planes[(j, head)]:
                f = g.edges[i].name
                if plane.bit_count() != 1:
                    raise ConnectionNotCanonical(
                        f"connection not canonical: edge {f!r} at {tail!r} has "
                        f"{plane.bit_count()} span-compatible images across {e.name!r}"
                    )
                mapping[f] = g.edges[plane.bit_length() - 1].name
            maps[(e.name, tail)] = mapping
    theta = Connection(maps)
    check = validate_connection(g, theta)
    if not check:
        raise ConnectionNotCanonical(
            "connection not canonical: the span-compatible map fails the connection axioms: "
            + "; ".join(check.violations)
        )
    return theta


# ----------------------------------------------------------------------
# faces


@dataclass(frozen=True)
class GkmSubgraph:
    vertices: frozenset
    edges: frozenset[str]

    def contains(self, other: "GkmSubgraph") -> bool:
        return other.vertices <= self.vertices and other.edges <= self.edges


def subgraph_sort_key(g: GkmGraph, h: GkmSubgraph) -> tuple:
    return (
        len(h.vertices),
        sorted(g.vertex_key(x) for x in h.vertices),
        sorted(g.edge_key(e) for e in h.edges),
    )


def subgraph_flat(g: GkmGraph, h: GkmSubgraph, x) -> Subspace:
    """Span of the axial vectors of h-edges at x."""
    if x not in h.vertices:
        raise ValueError(f"vertex {x!r} does not belong to the subgraph")
    at_x = g._star_at[g._vertex_pos[x]]
    return g._span(frozenset(g._line[i] for i in at_x if g.edges[i].name in h.edges))


def subgraph_degree(g: GkmGraph, h: GkmSubgraph) -> int:
    x = min(h.vertices, key=g.vertex_key)
    return sum(1 for name in g.star(x) if name in h.edges)


def _grown_stars(g: GkmGraph, d: int, x: int, stars: dict, z: int):
    """`stars` extended by each d-edge star at z that a face grown from x allows.

    Vertices are positions and stars are edge masks.  An edge to a placed
    vertex is kept exactly when that vertex's star keeps it, edges to
    vertices before x are left out, and the two-planes across every kept
    edge e to a placed vertex w must close in both directions: each edge
    of w's star other than e needs a plane edge in the star at z, and each
    edge of the star at z other than e needs one in w's star.  The second
    rule depends only on w's star, so it sifts the free edges before they
    are combined; the states yielded, and their order, stay those of
    testing every combination.
    """
    across, free = [], []
    for e in g._star_at[z]:
        a, b = g._ends[e]
        w = b if a == z else a
        if w in stars:
            if stars[w] >> e & 1:
                across.append(e)
        elif w > x:
            free.append(e)
    if len(across) > d:
        return
    kept = sum(1 << e for e in across)
    allowed = -1  # edges at z whose planes across every kept edge close at the far end
    needs = []  # plane masks at z that the star there must meet
    planes = g._planes  # built when the graph was validated; read without the property call
    for e in across:
        a, b = g._ends[e]
        w = b if a == z else a
        for i, plane in planes[(e, z)]:
            if stars[w] >> i & 1 and not plane & kept:
                needs.append(plane)
        for i, plane in planes[(e, w)]:
            if not plane & stars[w]:
                allowed &= ~(1 << i)
    if kept & ~allowed:
        return
    free = [e for e in free if allowed >> e & 1]
    for extra in combinations(free, d - len(across)):
        star = kept | sum(1 << e for e in extra)
        if all(plane & star for plane in needs):
            yield {**stars, z: star}


def enumerate_face_subgraphs(g: GkmGraph, cap: int = DEFAULT_CAP) -> list[GkmSubgraph]:
    """All faces as subgraphs, canonically sorted.

    Each face of degree d is grown exactly once: from its first vertex x (by
    vertex_key) with a d-edge star there, then at each reached vertex, in
    the order reached, through every star `_grown_stars` allows.  Each seed
    and branch counts as one search state; more than `cap` of them raise
    EnumerationCapExceeded.  The search runs on vertex and edge positions;
    each face is found as its reached vertices and the OR of its stars'
    edge masks.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    report = require_valid(g)
    n = len(g.vertices)
    found = [((x,), 0) for x in range(n)]
    # (degree, first vertex, edge-mask stars of the placed vertices, vertices reached)
    stack = [(d, x, {}, (x,)) for d in range(report.dimension, 0, -1) for x in reversed(range(n))]
    states = 0
    while stack:
        d, x, stars, order = stack.pop()
        if len(stars) == len(order):
            edges = 0
            for star in stars.values():
                edges |= star
            found.append((order, edges))
            continue
        z = order[len(stars)]
        for grown in _grown_stars(g, d, x, stars, z):
            states += 1
            if states > cap:
                raise EnumerationCapExceeded(
                    cap,
                    states,
                    f"enumeration cap of {cap} candidate subgraphs exceeded: {states} seed and "
                    f"branch states reached while growing faces of degree {d} from vertex "
                    f"{g.vertices[x]!r}, with {len(found) - n} faces of positive degree found",
                )
            kept = grown[z]
            ends = dict.fromkeys(
                b if a == z else a for a, b in (g._ends[e] for e in g._star_at[z] if kept >> e & 1)
            )
            stack.append((d, x, grown, order + tuple(w for w in ends if w not in order)))
    # the order of subgraph_sort_key, on positions
    keyed = sorted((len(order), sorted(order), _bits(edges)) for order, edges in found)
    return [
        GkmSubgraph(
            frozenset(g.vertices[x] for x in vertices), frozenset(g.edges[e].name for e in edges)
        )
        for _, vertices, edges in keyed
    ]


def is_totally_geodesic(g: GkmGraph, theta: Connection, h: GkmSubgraph) -> bool:
    """Star intersections must map onto each other along every h-edge."""
    for name in h.edges:
        e = g.edge(name)
        for tail in (e.u, e.v):
            head = e.other(tail)
            inside_tail = {f for f in g.star(tail) if f in h.edges}
            inside_head = {f for f in g.star(head) if f in h.edges}
            mapping = theta.maps[(name, tail)]
            if {mapping[f] for f in inside_tail} != inside_head:
                return False
    return True


class _Membership:
    """Membership masks of a list of faces: bit i is set where faces[i] holds the vertex or edge."""

    def __init__(self, faces: Sequence[GkmSubgraph]):
        self.everything = (1 << len(faces)) - 1
        self.at_vertex: dict = {}
        self.at_edge: dict[str, int] = {}
        for i, h in enumerate(faces):
            bit = 1 << i
            for x in h.vertices:
                self.at_vertex[x] = self.at_vertex.get(x, 0) | bit
            for e in h.edges:
                self.at_edge[e] = self.at_edge.get(e, 0) | bit

    def containers(self, h: GkmSubgraph) -> int:
        """Bitmask of the faces that contain h: the AND over h's vertices and edges."""
        mask = self.everything
        for x in h.vertices:
            mask &= self.at_vertex.get(x, 0)
        for e in h.edges:
            mask &= self.at_edge.get(e, 0)
        return mask


def _containers(faces: Sequence[GkmSubgraph]) -> list[int]:
    """Per face, the bitmask of the faces containing it, itself included."""
    membership = _Membership(faces)
    return [membership.containers(h) for h in faces]


def _flat(g: GkmGraph, h: GkmSubgraph) -> Subspace:
    """The span of h at its first vertex, whose rank is h's rank label."""
    return subgraph_flat(g, h, min(h.vertices, key=g.vertex_key))


def _face_poset(
    g: GkmGraph, faces: list[GkmSubgraph], ranks: Sequence[int], prefix: str = "H"
) -> GradedPoset:
    """Inclusion poset of `faces`, where ranks[i] is the rank label of faces[i]."""
    ids = [f"{prefix}{i}" for i in range(len(faces))]
    everything = (1 << len(faces)) - 1
    covers = sorted((ids[i], ids[j]) for i, j in _cover_pairs(_containers(faces), everything))
    labels = {
        i: "{" + ",".join(str(x) for x in sorted(h.vertices, key=g.vertex_key)) + "}"
        for i, h in zip(ids, faces)
    }
    return GradedPoset(
        ids,
        covers,
        rank=dict(zip(ids, ranks)),
        drk={i: subgraph_degree(g, h) for i, h in zip(ids, faces)},
        payload=dict(zip(ids, faces)),
        labels=labels,
    )


def enumerate_faces(g: GkmGraph, cap: int = DEFAULT_CAP) -> GradedPoset:
    """Poset of all faces ordered by inclusion; rank labels are span ranks."""
    faces = enumerate_face_subgraphs(g, cap)
    return _face_poset(g, faces, [_flat(g, h).dim for h in faces])


def enumerate_tg_faces(
    g: GkmGraph, theta: Connection | None = None, cap: int = DEFAULT_CAP
) -> GradedPoset:
    """Poset of the faces closed under `theta`, or under the canonical connection when it is None.

    A `theta` that fails the connection axioms raises InvalidGraph; a derived
    map that fails them raises ConnectionNotCanonical.
    """
    faces = _tg_face_subgraphs(g, theta, cap)
    return _face_poset(g, faces, [_flat(g, h).dim for h in faces])


def _tg_face_subgraphs(g: GkmGraph, theta: Connection | None, cap: int) -> list[GkmSubgraph]:
    """Faces closed under `theta`, or under the canonical connection when it is None, sorted.

    A supplied `theta` is checked first and raises InvalidGraph when it
    fails the connection axioms; the graph is checked next.  Every face
    is closed under the canonical connection, so that is derived only for
    its errors and the face list is returned: its image of a star edge f
    across a face edge e is the one edge at the far end in the plane of f
    and e, which two-plane closure puts in the face whenever f is in it.
    """
    if theta is not None:
        check = validate_connection(g, theta)
        if not check:
            raise InvalidGraph("supplied connection is invalid: " + "; ".join(check.violations))
    require_valid(g)
    if theta is None:
        canonical_connection(g)
        return enumerate_face_subgraphs(g, cap)
    return [h for h in enumerate_face_subgraphs(g, cap) if is_totally_geodesic(g, theta, h)]


# ----------------------------------------------------------------------
# local face posets


def local_face_poset(g: GkmGraph, x) -> GradedPoset:
    """Flats lattice of the axial vectors at one vertex."""
    star = g.star(x)
    return flats_lattice(WeightSystem(g.ambient_rank, [g.alpha(name) for name in star]))
