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
faces are the faces closed under a connection; `_tg_faces` is the one
path to them.

A graph keeps what it derives: vertex and edge positions, each vertex's
(edge, far end) pairs and star mask, and from first use its plane table
and its `validate_graph` report, read through `require_valid`.  Axial
vectors are the tangent weights at the fixed points, so few lines carry
many edges (d lines for the d 2^(d-1) edges of Q_d).  Each edge is
indexed by its line, the primitive vector with positive lead, and its
integer scale, alpha = scale * line; one line modulo another, as a
residue and a factor, and the span of a set of lines, keyed by the mask
of their positions, are memoised, so each elimination is done once per
pair or set of lines.  Two axial vectors are dependent exactly when they
share a line; e3 lies in the plane of e1 and e2 exactly when its residue
modulo e2's line is None or equals e1's; and a connection's image
differs from its source by a multiple of the edge exactly when their
residues agree and so do scale * factor, signed by orientation on
signed graphs.

Faces keep one form from the search to the face poset, a `Face`: vertex
positions, ascending, and an edge mask.  The search places stars as
edge masks, and the plane table stores each plane as one, so the
closure test is one AND.  A face's rank is its span at its first vertex,
its drk the bits of its mask in that vertex's star, and its containers
the AND of one membership mask per vertex and per edge.  The containers
are the face poset's up-sets, handed to it whole
(`GradedPoset._from_up_sets`), so its covers are derived only when
something reads them, as the JSON and DOT exports do.  A face poset's
payload, `_Subgraphs`, keeps the faces by position and makes a face a
`GkmSubgraph`, by names, when its entry is first read; so does
`reconstruct` where it hands names out.  No function asks a subgraph
for its span or degree, which the labels carry.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from itertools import combinations

from .errors import (
    ConnectionNotCanonical,
    DimensionMismatch,
    EnumerationCapExceeded,
    GraphModeError,
    InvalidGraph,
    ZeroWeight,
)
from .matroid import WeightSystem, flats_lattice
from .poset import GradedPoset, _bits
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
        self._vertex_pos = {x: i for i, x in enumerate(self.vertices)}
        self._edge_pos = {e.name: i for i, e in enumerate(self.edges)}
        # by position, for the face questions: the two ends of each edge, the
        # (edge, far end) pairs at each vertex in edge order, and each star as a mask
        self._ends = [(self._vertex_pos[e.u], self._vertex_pos[e.v]) for e in self.edges]
        self._adjacent: list[list[tuple[int, int]]] = [[] for _ in self.vertices]
        self._star_mask = [0] * len(self.vertices)
        for i, (a, b) in enumerate(self._ends):
            self._adjacent[a].append((i, b))
            self._adjacent[b].append((i, a))
            self._star_mask[a] |= 1 << i
            self._star_mask[b] |= 1 << i
        stars = zip(self.vertices, self._adjacent)
        self._star = {x: tuple(self.edges[i].name for i, _ in at) for x, at in stars}
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
        # memos by line: one line modulo another, and the span of a set of lines as a mask
        self._residues: dict[tuple[int, int], tuple[IntVector | None, int]] = {}
        self._spans: dict[int, Subspace] = {}
        # kept on first use as plain attributes: cached_property reads `__dict__`, which slows reads
        self._planes = self._report = None

    def _residue(self, a: int, b: int) -> tuple[IntVector | None, int]:
        """Line a modulo line b as `_line_residue` gives it, computed once per pair."""
        found = self._residues.get((a, b))
        if found is None:
            found = self._residues[(a, b)] = _line_residue(self._lines[a], self._lines[b])
        return found

    def _span(self, lines: int) -> Subspace:
        """The span of the lines whose positions are the bits of `lines`, computed once per set."""
        found = self._spans.get(lines)
        if found is None:
            found = self._spans[lines] = Subspace.span(
                [self._lines[i] for i in _bits(lines)], self.ambient_rank
            )
        return found

    @property
    def _plane_table(self) -> dict[tuple[int, int], tuple[tuple[int, int], ...]]:
        """For each edge e2 and end z: (e1, plane mask) per other edge e1 at the far end y.

        Edges are positions.  The plane mask holds the edges at z other than e2
        in the span of alpha_e1 and alpha_e2, and e1 runs through the star at y
        in order.  e3 lies in the plane exactly when the residue of its line
        modulo e2's is None or equals the residue of e1's line, so the edges at
        z are grouped by residue once.  Built on first read and kept.
        """
        if self._planes is not None:
            return self._planes
        table = self._planes = {}
        line, adjacent = self._line, self._adjacent
        for j, ends in enumerate(self._ends):
            residue = {
                i: self._residue(line[i], line[j])[0]
                for x in ends
                for i, _ in adjacent[x]
                if i != j
            }
            for y, z in (ends, ends[::-1]):
                at_z: dict[IntVector | None, int] = {}  # residue -> the edges at z with it
                for k, _ in adjacent[z]:
                    if k != j:
                        at_z[residue[k]] = at_z.get(residue[k], 0) | 1 << k
                common = at_z.get(None, 0)
                table[(j, z)] = tuple(
                    (i, at_z.get(residue[i], 0) | common) for i, _ in adjacent[y] if i != j
                )
        return table

    def edge(self, name: str) -> Edge:
        return self.edges[self._edge_pos[name]]

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

    seen = [True] + [False] * (len(g.vertices) - 1)
    frontier = [0]
    while frontier:
        for _, y in g._adjacent[frontier.pop()]:
            if not seen[y]:
                seen[y] = True
                frontier.append(y)
    if not all(seen):
        missing = g.vertices[seen.index(False)]
        violations.append(f"graph is disconnected: vertex {missing!r} unreachable")

    degrees = {x: len(at) for x, at in zip(g.vertices, g._adjacent)}
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
    for x, at in zip(g.vertices, g._adjacent):
        for (i, _), (j, _) in combinations(at, 2):
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

    spans = [_span_at(g, x, star) for x, star in enumerate(g._star_mask)]
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
    position, vertex = g._edge_pos, g._vertex_pos
    for j, e in enumerate(g.edges):
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
                if not _translates(g, j, position[f], position[image], vertex[tail], vertex[head]):
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


def _translates(g: GkmGraph, j: int, i: int, k: int, tail: int, head: int) -> bool:
    """Whether alpha_k at `head` minus alpha_i at `tail` is a multiple of alpha_j, j from tail.

    All are positions.  That holds exactly when the residues modulo j's line
    agree and so do scale * factor, signed by orientation or up to sign.
    """
    r_i, c_i = g._residue(g._line[i], g._line[j])
    r_k, c_k = g._residue(g._line[k], g._line[j])
    a_i, a_k = g._scale[i] * c_i, g._scale[k] * c_k
    if not g.signed:
        a_i, a_k = abs(a_i), abs(a_k)
    elif (tail == g._ends[i][0]) != (head == g._ends[k][0]):
        a_i = -a_i  # alpha_from negates at second endpoints; two negations cancel
    return r_i == r_k and a_i == a_k


def _canonical_images(g: GkmGraph):
    """(e, f, image, tail, head) by position: the one edge at the head in f's plane with e.

    Raises ConnectionNotCanonical where that plane holds other than one edge.
    """
    planes = g._plane_table
    for j, (u, v) in enumerate(g._ends):
        for tail, head in ((u, v), (v, u)):
            for i, plane in planes[(j, head)]:
                if plane.bit_count() != 1:
                    raise ConnectionNotCanonical(
                        f"connection not canonical: edge {g.edges[i].name!r} at "
                        f"{g.vertices[tail]!r} has {plane.bit_count()} span-compatible images "
                        f"across {g.edges[j].name!r}"
                    )
                yield j, i, plane.bit_length() - 1, tail, head


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
    maps = {(e.name, x): {e.name: e.name} for e in g.edges for x in (e.u, e.v)}
    for j, i, k, tail, _ in _canonical_images(g):
        maps[(g.edges[j].name, g.vertices[tail])][g.edges[i].name] = g.edges[k].name
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


Face = tuple[tuple[int, ...], int]  # vertex positions, ascending, and the edge mask


def _face_key(face: Face) -> tuple:
    """The canonical order of faces: by size, then vertex and edge positions."""
    return len(face[0]), face[0], _bits(face[1])


def _face_of(g: GkmGraph, h: GkmSubgraph) -> Face:
    edges = 0
    for e in h.edges:
        edges |= 1 << g._edge_pos[e]
    return tuple(sorted(map(g._vertex_pos.__getitem__, h.vertices))), edges


def _subgraph(g: GkmGraph, face: Face) -> GkmSubgraph:
    names = frozenset(g.edges[e].name for e in _bits(face[1]))
    return GkmSubgraph(frozenset(g.vertices[x] for x in face[0]), names)


class _Subgraphs(Mapping):
    """A face poset's payload: each face's `GkmSubgraph`, built when first read and kept.

    Its keys are the poset's elements, in order, through the poset's
    index, and `faces` holds their faces by position, in the same order.
    """

    __slots__ = ("_graph", "_index", "faces", "_built")

    def __init__(self, g: GkmGraph, index: dict, faces: Sequence[Face]):
        self._graph, self._index, self.faces = g, index, faces
        self._built: dict = {}

    def __getitem__(self, key) -> GkmSubgraph:
        found = self._built.get(key)
        if found is None:
            found = self._built[key] = _subgraph(self._graph, self.faces[self._index[key]])
        return found

    def __iter__(self) -> Iterator:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, key) -> bool:
        return key in self._index


def _span_at(g: GkmGraph, x: int, edges: int) -> Subspace:
    """The span of the axial vectors of the edges in the mask at vertex x."""
    edges &= g._star_mask[x]
    line, lines = g._line, 0  # the mask of their lines
    while edges:
        low = edges & -edges
        lines |= 1 << line[low.bit_length() - 1]
        edges ^= low
    return g._span(lines)


def _grown_stars(g: GkmGraph, d: int, x: int, stars: list[int], z: int) -> list[int]:
    """Each d-edge star at z, as an edge mask, that a face grown from x allows.

    stars[w] is the star placed at w, 0 where none is.  An edge to a placed
    vertex is kept exactly when that vertex's star keeps it, edges to
    vertices before x are left out, and the two-planes across every kept
    edge e to a placed w must close both ways: each edge of w's star other
    than e needs a plane edge in the star at z, and each edge at z other
    than e one in w's star.  The second rule sifts the free edges before
    they are combined; the stars, and their order, are those of testing
    every combination.
    """
    across, free = [], []
    for e, w in g._adjacent[z]:
        star = stars[w]
        if not star:
            if w > x:
                free.append(e)
        elif star >> e & 1:
            across.append((e, w, star))
    extra = d - len(across)
    if extra < 0:
        return []
    kept = 0
    for e, _, _ in across:
        kept |= 1 << e
    allowed = -1  # edges at z whose planes across every kept edge close at the far end
    needs = []  # plane masks at z that the star there must meet
    planes = g._planes  # built when the graph was validated; read without the property call
    for e, w, star in across:
        for i, plane in planes[(e, z)]:
            if star >> i & 1 and not plane & kept:
                needs.append(plane)
        for i, plane in planes[(e, w)]:
            if not plane & star:
                allowed &= ~(1 << i)
    if kept & ~allowed:
        return []
    if not extra:  # no plane in `needs` meets `kept`
        return [] if needs else [kept]
    free = [1 << e for e in free if allowed >> e & 1]
    grown = (kept | sum(bits) for bits in combinations(free, extra))
    return [star for star in grown if all(plane & star for plane in needs)]


def _face_positions(g: GkmGraph, cap: int) -> list[Face]:
    """All faces, in the order of `_face_key`.

    Each face of degree d is grown exactly once: from its first vertex x
    with a d-edge star there, then at each reached vertex, in the order
    reached, through every star `_grown_stars` allows, depth first and the
    last branch first.  Each seed and branch counts as one search state;
    more than `cap` of them raise EnumerationCapExceeded.  One list holds
    the placed stars by vertex, and going back to a branch clears the ones
    placed since; a face is the reached vertices and the OR of their stars.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    n = len(g.vertices)
    found = [((x,), 0) for x in range(n)]
    stars = [0] * n
    states = 0
    for d in range(1, require_valid(g).dimension + 1):
        for x in range(n):
            order, placed, branches = [x], 0, []  # reached vertices; the first `placed` have stars
            while True:
                if placed == len(order):
                    edges = 0
                    for w in order:
                        edges |= stars[w]
                    found.append((tuple(sorted(order)), edges))
                else:
                    for star in _grown_stars(g, d, x, stars, order[placed]):
                        states += 1
                        if states > cap:
                            raise EnumerationCapExceeded(
                                cap,
                                states,
                                f"enumeration cap of {cap} candidate subgraphs exceeded: {states} "
                                f"seed and branch states reached while growing faces of degree {d} "
                                f"from vertex {g.vertices[x]!r}, with {len(found) - n} faces of "
                                "positive degree found",
                            )
                        branches.append((placed, len(order), star))
                if not branches:
                    break
                at, reached, star = branches.pop()
                for w in order[at:placed]:
                    stars[w] = 0
                del order[reached:]
                stars[order[at]] = star
                for e, w in g._adjacent[order[at]]:
                    if star >> e & 1 and w not in order:
                        order.append(w)
                placed = at + 1
            for w in order[:placed]:
                stars[w] = 0
    found.sort(key=_face_key)
    return found


def _star_maps(g: GkmGraph, theta: Connection) -> dict[tuple[int, int], list[tuple[int, int]]]:
    """theta on positions: per (edge, tail), each edge at the tail and its image, as bits."""
    position = g._edge_pos
    return {
        (j, tail): [(1 << i, 1 << position[mapping[g.edges[i].name]]) for i, _ in g._adjacent[tail]]
        for j, e in enumerate(g.edges)
        for tail, mapping in zip(g._ends[j], (theta.maps[(e.name, e.u)], theta.maps[(e.name, e.v)]))
    }


def _is_closed(g: GkmGraph, maps: dict, face: Face) -> bool:
    """Whether the face's stars map onto each other along each of its edges, under `_star_maps`."""
    edges = face[1]
    return all(
        sum({image for bit, image in maps[(j, tail)] if edges & bit}) == edges & g._star_mask[head]
        for j in _bits(edges)
        for tail, head in (g._ends[j], g._ends[j][::-1])
    )


def _membership(g: GkmGraph, faces: Sequence[Face]) -> tuple[int, list[int], list[int]]:
    """The mask of all `faces`, and per vertex and per edge the mask of the faces holding it."""
    at_vertex, at_edge = [0] * len(g.vertices), [0] * len(g.edges)
    for i, (vertices, edges) in enumerate(faces):
        for x in vertices:
            at_vertex[x] |= 1 << i
        while edges:
            low = edges & -edges
            at_edge[low.bit_length() - 1] |= 1 << i
            edges ^= low
    return (1 << len(faces)) - 1, at_vertex, at_edge


def _held_by(membership: tuple[int, list[int], list[int]], face: Face) -> int:
    """The mask of the faces that hold every vertex and edge of `face`."""
    mask, at_vertex, at_edge = membership
    vertices, edges = face
    for x in vertices:
        mask &= at_vertex[x]
    while edges:
        low = edges & -edges
        mask &= at_edge[low.bit_length() - 1]
        edges ^= low
    return mask


def _containers(g: GkmGraph, faces: Sequence[Face]) -> list[int]:
    """Per face, the mask of the faces containing it, itself included."""
    membership = _membership(g, faces)
    return [_held_by(membership, face) for face in faces]


def _face_poset(
    g: GkmGraph, faces: Sequence[Face], prefix: str = "H", ranks: Sequence[int] | None = None
) -> GradedPoset:
    """Inclusion poset of `faces`, ranked by span, with their subgraphs as the payload.

    Its up-sets are the faces' containers; `ranks`, the faces' span ranks,
    are computed when not given.  The payload is `_Subgraphs`, which names
    a face only when its entry is read.
    """
    ids = [f"{prefix}{i}" for i in range(len(faces))]
    if ranks is None:
        ranks = [_span_at(g, xs[0], edges).dim for xs, edges in faces]
    p = GradedPoset._from_up_sets(
        ids,
        _containers(g, faces),
        rank=dict(zip(ids, ranks)),
        drk={i: (edges & g._star_mask[xs[0]]).bit_count() for i, (xs, edges) in zip(ids, faces)},
        labels={
            i: "{" + ",".join(str(g.vertices[x]) for x in face[0]) + "}"
            for i, face in zip(ids, faces)
        },
    )
    p.payload = _Subgraphs(g, p._index, faces)
    return p


def enumerate_faces(g: GkmGraph, cap: int = DEFAULT_CAP) -> GradedPoset:
    """Poset of all faces ordered by inclusion; rank labels are span ranks."""
    return _face_poset(g, _face_positions(g, cap))


def enumerate_tg_faces(
    g: GkmGraph, theta: Connection | None = None, cap: int = DEFAULT_CAP
) -> GradedPoset:
    """Poset of the faces closed under `theta`, or under the canonical connection when it is None.

    A `theta` that fails the connection axioms raises InvalidGraph; a derived
    map that fails them raises ConnectionNotCanonical.
    """
    return _face_poset(g, _tg_faces(g, theta, cap))


def _tg_faces(g: GkmGraph, theta: Connection | None, cap: int) -> list[Face]:
    """Faces closed under `theta`, or under the canonical connection when it is None, sorted.

    A supplied `theta` is checked first and raises InvalidGraph when it
    fails the connection axioms; the graph is checked next.  Every face is
    closed under the canonical connection: its image of a star edge f
    across a face edge e is the one edge at the far end in the plane of f
    and e, which two-plane closure puts in the face.  So only that it exists
    is checked, which with one image per plane is the translation axiom
    (see `canonical_connection`); a failure builds the maps for the error.
    """
    if theta is not None:
        check = validate_connection(g, theta)
        if not check:
            raise InvalidGraph("supplied connection is invalid: " + "; ".join(check.violations))
    require_valid(g)
    if theta is None:
        if not all(_translates(g, *image) for image in _canonical_images(g)):
            canonical_connection(g)  # raises
        return _face_positions(g, cap)
    maps = _star_maps(g, theta)
    return [face for face in _face_positions(g, cap) if _is_closed(g, maps, face)]


# ----------------------------------------------------------------------
# local face posets


def local_face_poset(g: GkmGraph, x) -> GradedPoset:
    """Flats lattice of the axial vectors at one vertex."""
    star = g.star(x)
    return flats_lattice(WeightSystem(g.ambient_rank, [g.alpha(name) for name in star]))
