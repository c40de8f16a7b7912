"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's code paths: rank comes from plain
Gaussian elimination over fractions.Fraction, reduced echelon bases from
sympy's `rref`, closures from a subset scan,
flat lists from the full 2^n sweep, reduced Betti numbers from
eliminating every boundary matrix (or from sympy's ranks of the dense
ones), and GKM faces from checking every edge
subset.  The GKM plane table spans one `Subspace` per pair of edges, the face
poset and the Galois monotonicity check scan all pairs of faces, and a
face's span is that of the raw axial vectors of its edges at its first
vertex, its degree their count.  The graph and connection reports test
collinearity and spans on the raw axial vectors, pair by pair.  Slow
and obvious on purpose.  Bases are the full-rank subsets of that size, the
faces of a complex are all subsets of its facets, and the
independence degree comes from scanning subsets by size.  The flats
search that reduces every class by `Subspace.residue` against the whole
span of each flat is kept as the residue oracle.  Ranks come from
repeated passes over the covers of a poset.  The lattice predicates scan all
pairs of elements through `GradedPoset.join`, `meet` and `leq`, and
check every upper ideal as a poset of its own; they import gkmfaces
when called, so importing this module does not (bench/workloads.py
imports it before the package).  Covers within a mask come from the
pairwise scan for an element strictly between, and minimal elements
from a scan for an element strictly below.  The chains of a poset are
the subsets it orders totally, found among all subsets.  The face
reconstruction's selection groups the candidates by (vertex, span) and
keeps the members of each group that no other member contains, and the
Galois check names a monotonicity failure on each cover of the
inclusion order whose projections are not ordered.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm


def rank_oracle(vectors):
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / prow[col]
                rows[r] = [a - f * b for a, b in zip(rows[r], prow)]
        rank += 1
    return rank


def in_span_oracle(v, vectors):
    return rank_oracle(list(vectors) + [v]) == rank_oracle(list(vectors))


def collinear_oracle(a, b):
    """Whether a and b span at most a line: b[j] a[p] = a[j] b[p] at a pivot p of a."""
    p = next((i for i, x in enumerate(a) if x), None)
    return p is None or all(a[p] * y == x * b[p] for x, y in zip(a, b))


def closure_oracle(weights, subset):
    """Flat spanned by the chosen 1-based indices, via a membership scan."""
    chosen = [weights[i - 1] for i in subset]
    members = frozenset(
        i for i in range(1, len(weights) + 1) if in_span_oracle(weights[i - 1], chosen)
    )
    return members, rank_oracle(chosen)


def flats_oracle(weights):
    """All flats of the weight multiset by closing every one of the 2^n subsets."""
    n = len(weights)
    seen = {}
    for size in range(n + 1):
        for subset in combinations(range(1, n + 1), size):
            members, rank = closure_oracle(weights, subset)
            seen[members] = rank
    return sorted(seen.items(), key=lambda mr: (mr[1], sorted(mr[0])))


def flats_lattice_oracle(weights):
    """(ids, covers, rank) of the flats lattice from the subset scan.

    Covers pair every flat with every flat one rank higher that contains
    it, in the order of the sorted flat list.
    """
    flats = flats_oracle(weights)
    ids = [tuple(sorted(members)) for members, _ in flats]
    covers = [
        (tuple(sorted(low)), tuple(sorted(high)))
        for low, low_rank in flats
        for high, high_rank in flats
        if high_rank == low_rank + 1 and low < high
    ]
    return ids, covers, {tuple(sorted(m)): r for m, r in flats}


def flats_with_covers_oracle(ws):
    """(masks, ranks, covers, members) as `matroid._flats_with_covers` gives them, by eliminations.

    Flats are member sets until the end, then masks with bit i for weight
    i and sorted member tuples; covers are pairs of positions in the
    sorted flat list.  Each
    frontier flat keeps the weights that span it and builds their
    `Subspace`; every class outside it is reduced by `Subspace.residue`
    against that span.
    """
    from gkmfaces.ratlinalg import Subspace

    nothing = Subspace.span([], ws.ambient_rank)
    parallel = {}
    for i in ws.indices:
        parallel.setdefault(nothing.residue(ws.weight(i)), []).append(i)
    classes = [(ws.weight(members[0]), frozenset(members)) for members in parallel.values()]
    found = {frozenset(): 0}  # members -> rank
    covers = []
    frontier = [(frozenset(), [], range(len(classes)))]
    while frontier:
        flat, spanning, outside = frontier.pop()
        span = Subspace.span(spanning, ws.ambient_rank)
        by_residue = {}
        for c in outside:
            by_residue.setdefault(span.residue(classes[c][0]), []).append(c)
        for group in by_residue.values():
            members = flat.union(*(classes[c][1] for c in group))
            if members not in found:
                found[members] = found[flat] + 1
                rest = [c for c in outside if c not in group]
                frontier.append((members, spanning + [classes[group[0]][0]], rest))
            covers.append((flat, members))
    flats = sorted(found, key=lambda members: (found[members], sorted(members)))
    position = {flat: i for i, flat in enumerate(flats)}
    return (
        [sum(1 << i for i in flat) for flat in flats],
        [found[flat] for flat in flats],
        sorted((position[low], position[high]) for low, high in covers),
        [tuple(sorted(flat)) for flat in flats],
    )


def independence_complex_oracle(weights):
    """Bases as sorted index tuples in lexicographic order: the r-subsets of rank r."""
    r = rank_oracle(weights)
    if r == 0:
        return []
    return [
        subset
        for subset in combinations(range(1, len(weights) + 1), r)
        if rank_oracle([weights[i - 1] for i in subset]) == r
    ]


def independent_sets_by_size_oracle(weights):
    """(f_-1, f_0, ...): the number of independent index sets of each size."""
    counts = [1]
    for size in range(1, len(weights) + 1):
        count = sum(
            rank_oracle([weights[i] for i in subset]) == size
            for subset in combinations(range(len(weights)), size)
        )
        if not count:
            break
        counts.append(count)
    return tuple(counts)


def faces_oracle(complex_):
    """Every face of a complex stored by facets, the empty one too: all subsets of every facet."""
    out = {frozenset()}
    for facet in complex_.facets:
        items = sorted(facet)
        for size in range(1, len(items) + 1):
            out.update(frozenset(c) for c in combinations(items, size))
    return out


def independence_degree_oracle(ws):
    """Largest j with every subset of at most j weights independent, by a subset scan."""
    for j in range(1, ws.size + 1):
        for subset in combinations(ws.indices, j):
            if ws.span_of(subset).dim < j:
                return j - 1
    return ws.size


def computed_ranks_oracle(p):
    """Rank labelling forced by the covers, or None and why, by passes over the covers.

    Each pass ranks the upper end of every cover whose lower end is
    ranked, one above it, and names the first upper end reached at two
    different ranks.  Stored rank labels are not looked at.
    """
    ranks = {e: 0 for e in p.elements if all(high != e for _, high in p.covers)}
    pending = list(p.covers)
    progress = True
    while pending and progress:
        progress = False
        rest = []
        for low, high in pending:
            if low in ranks:
                value = ranks[low] + 1
                if ranks.setdefault(high, value) != value:
                    return None, (
                        f"element {high!r} is reached at ranks {ranks[high]} and {value}"
                    )
                progress = True
            else:
                rest.append((low, high))
        pending = rest
    return ranks, ""


def is_geometric_lattice_oracle(p):
    """Graded lattice, atomistic and rank-submodular, by all-pairs scans."""
    from gkmfaces.poset import Verdict, is_graded

    graded = is_graded(p)
    if not graded:
        return Verdict(False, f"not graded: {graded.reason}")
    ranks, _ = computed_ranks_oracle(p)
    if p.bottom() is None:
        return Verdict(False, "no unique bottom element")
    if p.top() is None:
        return Verdict(False, "no unique top element")
    for a in p.elements:
        for b in p.elements:
            if p.join(a, b) is None:
                return Verdict(False, f"join of {a!r} and {b!r} does not exist")
            if p.meet(a, b) is None:
                return Verdict(False, f"meet of {a!r} and {b!r} does not exist")
    atoms = [e for e in p.elements if ranks[e] == 1]
    for s in p.elements:
        current = p.bottom()
        for a in atoms:
            if p.leq(a, s):
                current = p.join(current, a)
        if current != s:
            return Verdict(False, f"element {s!r} is not the join of the atoms below it")
    for a in p.elements:
        for b in p.elements:
            if ranks[p.join(a, b)] + ranks[p.meet(a, b)] > ranks[a] + ranks[b]:
                return Verdict(False, f"rank submodularity fails for {a!r}, {b!r}")
    return Verdict(True, rank=ranks[p.top()])


def is_locally_geometric_oracle(p):
    """Every upper ideal, built as a poset of its own, checked by the oracle above."""
    from gkmfaces.poset import Verdict, is_graded

    graded = is_graded(p)
    if not graded:
        return Verdict(False, f"not graded: {graded.reason}")
    top = p.top()
    if top is None:
        return Verdict(False, "no greatest element")
    ranks, _ = computed_ranks_oracle(p)
    k = ranks[top]
    for s in p.elements:
        up = p.up_set(s)
        ideal = p.induced(up, rank={e: ranks[e] - ranks[s] for e in up})
        verdict = is_geometric_lattice_oracle(ideal)
        if not verdict:
            return Verdict(
                False, f"upper ideal at {s!r} is not a geometric lattice: {verdict.reason}"
            )
        if verdict.rank != k - ranks[s]:
            return Verdict(
                False, f"upper ideal at {s!r} has rank {verdict.rank}, expected {k - ranks[s]}"
            )
    return Verdict(True, rank=k)


def cover_pairs_oracle(up, mask):
    """(i, j) for each j covering i within mask, both ascending: nothing of mask between.

    `up[i]` is the bitmask of the elements at or above i; the down-sets
    are read off it.
    """
    n = len(up)
    down = [sum(1 << k for k in range(n) if up[k] >> j & 1) for j in range(n)]
    out = []
    for i in range(n):
        if not mask >> i & 1:
            continue
        for j in range(n):
            if j != i and mask >> j & 1 and up[i] >> j & 1:
                between = up[i] & down[j] & mask & ~(1 << i) & ~(1 << j)
                if between == 0:
                    out.append((i, j))
    return out


def minimal_oracle(up, mask):
    """The elements of mask below which no other element of mask lies, ascending."""
    members = [i for i in range(len(up)) if mask >> i & 1]
    return [j for j in members if not any(k != j and up[k] >> j & 1 for k in members)]


def chains_oracle(p):
    """Every nonempty chain of poset p, by size: levels[d] holds the (d+1)-element ones.

    A chain is a subset that `p.leq` orders totally; all subsets are tried.
    """
    levels = []
    for size in range(1, len(p.elements) + 1):
        level = {
            frozenset(subset)
            for subset in combinations(p.elements, size)
            if all(p.leq(a, b) or p.leq(b, a) for a, b in combinations(subset, 2))
        }
        if not level:
            break
        levels.append(level)
    return levels


def mobius_oracle(leq, elements, s, t):
    """Direct recursion for the Mobius function of a finite poset.

    `leq(a, b)` must answer the order relation; no memoisation on purpose.
    """
    if s == t:
        return 1
    interval = [u for u in elements if leq(s, u) and leq(u, t)]
    return -sum(mobius_oracle(leq, elements, s, u) for u in interval if u != t)


def simplices_oracle(facets):
    """Every nonempty face of the facets, by dimension, in repr order."""
    levels = []
    for facet in facets:
        items = tuple(sorted(facet, key=repr))
        levels.extend(set() for _ in range(len(items) - len(levels)))
        for size in range(1, len(items) + 1):
            levels[size - 1].update(combinations(items, size))
    return [sorted(level, key=lambda s: tuple(map(repr, s))) for level in levels]


def boundary_columns(levels, dim):
    """Sparse columns of the boundary map from dimension dim to dim - 1."""
    index = {s: i for i, s in enumerate(levels[dim - 1])}
    return [
        {index[simplex[:omit] + simplex[omit + 1 :]]: (-1) ** omit for omit in range(len(simplex))}
        for simplex in levels[dim]
    ]


def sparse_rank_oracle(columns):
    """Exact rank of an integer matrix given as sparse columns.

    Fraction-free elimination of every column in turn, pivot at the
    smallest row, with cross-multiplication and gcd division.
    """
    pivots = {}
    for col in columns:
        col = dict(col)
        while col:
            row = min(col)
            if row not in pivots:
                pivots[row] = col
                break
            piv = pivots[row]
            a, b = piv[row], col[row]
            merged = {r: a * v for r, v in col.items()}
            for r, v in piv.items():
                merged[r] = merged.get(r, 0) - b * v
            col = {r: v for r, v in merged.items() if v}
            g = 0
            for v in col.values():
                g = gcd(g, v)
            if g > 1:
                col = {r: v // g for r, v in col.items()}
    return len(pivots)


def betti_from_ranks(sizes, ranks):
    """Reduced Betti numbers from face counts and boundary ranks.

    ranks[d] is the rank of the boundary out of dimension d, with
    ranks[0] the augmentation's; the boundary out of the top is zero.
    """
    ranks = list(ranks) + [0]
    betti = {-1: 1 - ranks[0]}
    for dim, size in enumerate(sizes):
        betti[dim] = size - ranks[dim] - ranks[dim + 1]
    return betti


def reduced_betti_oracle(complex_):
    """Reduced rational Betti numbers by eliminating every boundary matrix."""
    levels = simplices_oracle(complex_.facets)
    ranks = [1 if levels else 0]
    ranks += [sparse_rank_oracle(boundary_columns(levels, dim)) for dim in range(1, len(levels))]
    return betti_from_ranks([len(level) for level in levels], ranks)


def rref_oracle(vectors, k):
    """sympy's reduced row echelon rows, each a primitive integer row with positive lead."""
    import sympy

    matrix, pivots = sympy.Matrix(len(vectors), k, [x for v in vectors for x in v]).rref()
    rows = []
    for r in range(len(pivots)):
        fractions = [Fraction(int(x.p), int(x.q)) for x in matrix.row(r)]
        scale = lcm(*(x.denominator for x in fractions))
        ints = [int(x * scale) for x in fractions]
        rows.append(tuple(x // gcd(*ints) for x in ints))
    return tuple(rows)


def sympy_betti(complex_):
    """Reduced Betti numbers from sympy ranks of dense boundary matrices."""
    import sympy

    levels = simplices_oracle(complex_.facets)
    ranks = [1 if levels else 0]
    for dim in range(1, len(levels)):
        matrix = sympy.zeros(len(levels[dim - 1]), len(levels[dim]))
        for j, col in enumerate(boundary_columns(levels, dim)):
            for i, v in col.items():
                matrix[i, j] = v
        ranks.append(matrix.rank())
    return betti_from_ranks([len(level) for level in levels], ranks)


def euler_characteristic(complex_):
    """Alternating sum of face counts, reduced (empty face included)."""
    levels = simplices_oracle(complex_.facets)
    return -1 + sum((-1) ** dim * len(level) for dim, level in enumerate(levels))


def gkm_faces_oracle(graph):
    """Every face of a GKM graph by checking all edge subsets.

    Returns a sorted list of (vertex frozenset, edge frozenset) pairs.
    Uses rank_oracle for all span questions.
    """
    edge_ids = [e.name for e in graph.edges]
    ends = {e.name: (e.u, e.v) for e in graph.edges}
    weight = {e.name: graph.alpha(e.name) for e in graph.edges}

    def connected(vertices, edges):
        if not vertices:
            return False
        start = next(iter(vertices))
        seen = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for eid in edges:
                u, v = ends[eid]
                if u == x and v not in seen:
                    seen.add(v)
                    frontier.append(v)
                if v == x and u not in seen:
                    seen.add(u)
                    frontier.append(u)
        return seen == set(vertices)

    def is_face(edges):
        vertices = set()
        for eid in edges:
            vertices.update(ends[eid])
        if not connected(vertices, edges):
            return None
        degree = {x: 0 for x in vertices}
        for eid in edges:
            u, v = ends[eid]
            degree[u] += 1
            degree[v] += 1
        if len(set(degree.values())) != 1:
            return None
        # two-plane closure inside the subgraph
        for e1 in edges:
            for e2 in edges:
                if e1 == e2:
                    continue
                for y in set(ends[e1]) & set(ends[e2]):
                    z = ends[e2][0] if ends[e2][1] == y else ends[e2][1]
                    plane = [weight[e1], weight[e2]]
                    base = rank_oracle(plane)
                    good = any(
                        e3 != e2
                        and z in ends[e3]
                        and rank_oracle(plane + [weight[e3]]) == base
                        for e3 in edges
                    )
                    if not good:
                        return None
        return frozenset(vertices), frozenset(edges)

    faces = [(frozenset([x]), frozenset()) for x in graph.vertices]
    for size in range(1, len(edge_ids) + 1):
        for chosen in combinations(edge_ids, size):
            face = is_face(set(chosen))
            if face is not None:
                faces.append(face)
    return sorted(faces, key=lambda f: (len(f[0]), sorted(map(str, f[0])), sorted(map(str, f[1]))))


def plane_table_oracle(graph):
    """(e1, e2, z) -> edges at z other than e2 in the span of alpha_e1 and alpha_e2.

    Keyed for every edge e2 from y to z and every other edge e1 at y; each
    plane is one `Subspace` per pair of edges, each edge at z one
    membership test.
    """
    from gkmfaces.ratlinalg import Subspace

    planes = {}
    table = {}
    for e2 in graph.edges:
        for y, z in ((e2.u, e2.v), (e2.v, e2.u)):
            for e1 in graph.star(y):
                if e1 == e2.name:
                    continue
                pair = frozenset((e1, e2.name))
                if pair not in planes:
                    planes[pair] = Subspace.span(
                        [graph.alpha(e1), graph.alpha(e2.name)], graph.ambient_rank
                    )
                table[(e1, e2.name, z)] = tuple(
                    e3
                    for e3 in graph.star(z)
                    if e3 != e2.name and planes[pair].contains(graph.alpha(e3))
                )
    return table


def graph_report_oracle(graph):
    """`validate_graph`'s (ok, dimension, rank, violations) from the raw axial vectors.

    Stars are read off the edge list; dependent pairs come from
    `collinear_oracle`, the closure from `plane_table_oracle`, and two
    stars span the same space exactly when each has the rank of both.
    """
    vertices, edges = graph.vertices, graph.edges
    star = {x: [e.name for e in edges if x in (e.u, e.v)] for x in vertices}
    vectors = {x: [graph.alpha(name) for name in star[x]] for x in vertices}
    violations = []
    seen, frontier = {vertices[0]}, [vertices[0]]
    while frontier:
        x = frontier.pop()
        for e in edges:
            if x in (e.u, e.v):
                y = e.v if e.u == x else e.u
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
    missing = [x for x in vertices if x not in seen]
    if missing:
        violations.append(f"graph is disconnected: vertex {missing[0]!r} unreachable")
    order = sorted(range(len(vertices)), key=lambda i: (len(star[vertices[i]]), i))
    low, high = vertices[order[0]], vertices[order[-1]]
    dimension = len(star[vertices[0]])
    if len(star[low]) != len(star[high]):
        violations.append(
            f"graph is not regular: vertex {low!r} has degree {len(star[low])}, "
            f"vertex {high!r} has degree {len(star[high])}"
        )
        dimension = None
    for x in vertices:
        for f1, f2 in combinations(star[x], 2):
            if collinear_oracle(graph.alpha(f1), graph.alpha(f2)):
                violations.append(
                    f"edges {f1!r} and {f2!r} at vertex {x!r} have dependent axial vectors"
                )
    table = plane_table_oracle(graph)
    violations.extend(
        f"no edge at {z!r} continues the span of {e1!r} and {e2.name!r}"
        for e2 in edges
        for y, z in ((e2.u, e2.v), (e2.v, e2.u))
        for e1 in star[y]
        if e1 != e2.name and not table[(e1, e2.name, z)]
    )
    first = vectors[vertices[0]]
    rank = rank_oracle(first)
    for x in vertices:
        both = rank_oracle(first + vectors[x])
        if both != rank or both != rank_oracle(vectors[x]):
            violations.append(
                f"axial span at vertex {x!r} differs from the span at {vertices[0]!r}"
            )
            rank = None
            break
    return not violations, dimension, rank, tuple(violations)


def connection_violations_oracle(graph, theta):
    """`validate_connection`'s violations, the translation rule on the raw vectors.

    The image's axial value minus the source's must be collinear to the
    edge's by `collinear_oracle`: with the values out of each endpoint
    from `alpha_from` on signed graphs, and with either sign of the
    source's value on unsigned ones.
    """
    star = {x: {e.name for e in graph.edges if x in (e.u, e.v)} for x in graph.vertices}
    out = []
    for e in graph.edges:
        for tail, head in ((e.u, e.v), (e.v, e.u)):
            mapping = theta.maps.get((e.name, tail))
            if mapping is None:
                out.append(f"no star map along edge {e.name!r} out of {tail!r}")
            elif set(mapping) != star[tail] or set(mapping.values()) != star[head]:
                out.append(
                    f"map along {e.name!r} out of {tail!r} is not a bijection "
                    "between the vertex stars"
                )
            elif mapping[e.name] != e.name:
                out.append(f"map along {e.name!r} out of {tail!r} moves the edge itself")
    for e in graph.edges:
        mapping, inverse = theta.maps.get((e.name, e.u)), theta.maps.get((e.name, e.v))
        if mapping is None or inverse is None:
            continue
        if set(mapping) == star[e.u] and set(mapping.values()) == star[e.v]:
            wrong = [f for f, image in mapping.items() if inverse.get(image) != f]
            if wrong:
                out.append(f"maps along {e.name!r} are not mutually inverse at {wrong[0]!r}")
    for e in graph.edges:
        for tail, head in ((e.u, e.v), (e.v, e.u)):
            for f, image in theta.maps.get((e.name, tail), {}).items():
                if f not in star[tail] or image not in star[head]:
                    continue
                if graph.signed:
                    a_f, a_image = graph.alpha_from(f, tail), graph.alpha_from(image, head)
                    differences = [[p - q for p, q in zip(a_image, a_f)]]
                else:
                    a_f, a_image = graph.alpha(f), graph.alpha(image)
                    differences = [[p - s * q for p, q in zip(a_image, a_f)] for s in (1, -1)]
                if not any(collinear_oracle(graph.alpha(e.name), d) for d in differences):
                    out.append(
                        f"difference of axial values of {image!r} and {f!r} is not "
                        f"collinear to the edge {e.name!r}"
                    )
    return tuple(out)


def totally_geodesic_oracle(graph, theta, h):
    """Whether theta maps the h-edges at each end of every h-edge onto those at the other, by names."""
    for name in h.edges:
        e = graph.edge(name)
        for tail, head in ((e.u, e.v), (e.v, e.u)):
            inside_tail = {f for f in graph.star(tail) if f in h.edges}
            inside_head = {f for f in graph.star(head) if f in h.edges}
            if {theta.maps[(name, tail)][f] for f in inside_tail} != inside_head:
                return False
    return True


def face_span_oracle(graph, h):
    """The span of the raw axial vectors of h's edges at its first vertex, and their number."""
    from gkmfaces.ratlinalg import Subspace

    x = min(h.vertices, key=graph.vertex_key)
    raw = [graph.alpha(name) for name in graph.star(x) if name in h.edges]
    return Subspace.span(raw, graph.ambient_rank), len(raw)


def face_key_oracle(graph, h):
    """Faces in canonical order: by size, then vertex positions, then edge positions."""
    vertices = sorted(map(graph.vertex_key, h.vertices))
    return len(vertices), vertices, sorted(map(graph.edge_key, h.edges))


def face_poset_oracle(graph, faces, prefix="H"):
    """The face poset by all-pairs `GkmSubgraph.contains`, rank and drk by `face_span_oracle`."""
    from gkmfaces.poset import GradedPoset

    ids = [f"{prefix}{i}" for i in range(len(faces))]
    by_id = dict(zip(ids, faces))
    spans = {i: face_span_oracle(graph, h) for i, h in by_id.items()}
    rank = {i: span.dim for i, (span, _) in spans.items()}
    drk = {i: degree for i, (_, degree) in spans.items()}
    above = [0] * len(faces)
    below = [0] * len(faces)
    for i, low in enumerate(faces):
        for j, high in enumerate(faces):
            if i != j and high.contains(low):
                above[i] |= 1 << j
                below[j] |= 1 << i
    covers = sorted(
        (ids[i], ids[j])
        for i in range(len(faces))
        for j in range(len(faces))
        if above[i] >> j & 1 and not above[i] & below[j]
    )
    labels = {
        i: "{" + ",".join(str(x) for x in sorted(h.vertices, key=graph.vertex_key)) + "}"
        for i, h in by_id.items()
    }
    return GradedPoset(ids, covers, rank=rank, drk=drk, payload=by_id, labels=labels)


def non_monotone_pairs_oracle(report, projection):
    """Nested candidate pairs (h1 inside h2) whose projections are not ordered."""
    return [
        (h1, h2)
        for h1 in report.candidates
        for h2 in report.candidates
        if h2.contains(h1) and not report.faces.leq(projection[h1], projection[h2])
    ]


def galois_failures_oracle(report):
    """`verify_galois`'s failures with monotonicity checked cover by cover, as it names them.

    The projection is `reconstruct._projection`, looked up at each call, so
    a replaced one is used; containment is `GkmSubgraph.contains` and the
    covers of the inclusion order among the candidates come from
    `cover_pairs_oracle`.  Monotone on every cover means monotone on every
    nested pair, since the surviving order is transitive.
    """
    import gkmfaces.reconstruct as reconstruct
    from gkmfaces.errors import ReconstructionAmbiguous

    if report.diagnostics:
        return tuple(d.describe() for d in report.diagnostics)
    graph, candidates, faces = report._graph, list(report.candidates), report.faces
    failures, projection = [], []
    for face, h in zip(report._candidate_faces, candidates):
        try:
            image = reconstruct._projection(report, face)
            failure = "" if report.subgraph(image).contains(h) else "does not contain it"
        except ReconstructionAmbiguous as exc:
            image, failure = None, f"is undefined: {exc}"
        if failure:
            listed = [str(x) for x in sorted(h.vertices, key=graph.vertex_key)]
            failures.append(f"projection of a face on vertices {listed} {failure}")
        projection.append(image)
    survivors = [report.subgraph(e) for e in faces.elements]
    for e, h in zip(faces.elements, survivors):
        if h in candidates and projection[candidates.index(h)] not in (e, None):
            failures.append(f"projection does not fix surviving face {e}")
    up = [
        sum(1 << j for j, high in enumerate(candidates) if high.contains(low)) for low in candidates
    ]
    for i, j in cover_pairs_oracle(up, (1 << len(candidates)) - 1):
        low, high = projection[i], projection[j]
        if None not in (low, high) and not faces.leq(low, high):
            failures.append("projection is not monotone on a nested pair of faces")
    for e, h in zip(faces.elements, survivors):
        if h not in candidates:
            failures.append(f"surviving face {e} is missing from the full face list")
    return tuple(failures)


def face_selection_oracle(graph, candidates):
    """The maxima of each (vertex, span) group of candidates, by all-pairs `contains` per group.

    Returns the candidates that are a maximum of every group they lie in,
    in candidate order, and (vertex, span, maxima) for each group with
    more than one maximum, maxima by `face_key_oracle`, groups by vertex
    position and then span; spans come from `face_span_oracle`.
    """
    groups = {}
    for i, h in enumerate(candidates):
        flat, _ = face_span_oracle(graph, h)
        for x in h.vertices:
            groups.setdefault((graph.vertex_key(x), flat), []).append(i)
    dropped, diagnostics = set(), []
    for (key, flat), members in groups.items():
        maxima = [
            i
            for i in members
            if not any(j != i and candidates[j].contains(candidates[i]) for j in members)
        ]
        dropped.update(set(members) - set(maxima))
        if len(maxima) > 1:
            ordered = sorted(
                (candidates[i] for i in maxima), key=lambda h: face_key_oracle(graph, h)
            )
            diagnostics.append((graph.vertices[key], flat, tuple(ordered)))
    diagnostics.sort(key=lambda d: (graph.vertex_key(d[0]), d[1].sort_key()))
    return [h for i, h in enumerate(candidates) if i not in dropped], diagnostics
