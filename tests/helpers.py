"""Shared fixtures: random weight systems, corpus access, small graphs."""

import itertools
import random
from importlib import resources

from gkmfaces.formats import parse_graph_with_connection, parse_matroid, parse_poset
from gkmfaces.gkm import Connection, GkmGraph
from gkmfaces.matroid import WeightSystem

# the three standing small examples used throughout the suite
BASIS2 = WeightSystem(2, [(1, 0), (0, 1)])
UNIFORM23 = WeightSystem(2, [(1, 0), (0, 1), (1, 1)])
COLLINEAR = WeightSystem(2, [(1, 0), (2, 0), (0, 1)])


def random_weight_system(rng: random.Random, max_n: int = 7, max_k: int = 4) -> WeightSystem:
    """Random nonzero integer weights, entries in [-3, 3]."""
    k = rng.randint(1, max_k)
    n = rng.randint(1, max_n)
    weights = []
    while len(weights) < n:
        w = tuple(rng.randint(-3, 3) for _ in range(k))
        if any(w):
            weights.append(w)
    return WeightSystem(k, weights)


def weight_corpus(seed: int, count: int, max_n: int = 7, max_k: int = 4):
    rng = random.Random(seed)
    return [random_weight_system(rng, max_n, max_k) for _ in range(count)]


def corpus_path(name: str):
    return resources.files("gkmfaces") / "data" / name


def corpus_text(name: str) -> str:
    return corpus_path(name).read_text()


def corpus_matroid(name: str) -> WeightSystem:
    return parse_matroid(corpus_text(name))


def corpus_poset(name: str):
    return parse_poset(corpus_text(name))


def graded_posets(monkeypatch) -> list:
    """Every poset whose grading is computed from now on, once per computation.

    The list holds the posets themselves, so none is freed and its id
    reused while the list is alive.
    """
    from gkmfaces.poset import GradedPoset

    graded = []
    compute = GradedPoset._grade

    def counted(p):
        graded.append(p)
        return compute(p)

    monkeypatch.setattr(GradedPoset, "_grade", counted)
    return graded


def corpus_graph(name: str):
    """(graph, connection-or-None) for a bundled .gkm file."""
    return parse_graph_with_connection(corpus_text(name))


GKM_CORPUS = ("s2.gkm", "cp2.gkm", "square.gkm", "g6.gkm")


def face_payloads(poset) -> list:
    """The subgraphs of a face poset, in element order."""
    return [poset.payload[e] for e in poset.elements]


def square_graph(signed: bool = False) -> GkmGraph:
    return GkmGraph(
        2,
        ["v00", "v10", "v01", "v11"],
        [("b", "v00", "v10"), ("t", "v01", "v11"), ("l", "v00", "v01"), ("r", "v10", "v11")],
        {"b": (1, 0), "t": (1, 0), "l": (0, 1), "r": (0, 1)},
        signed=signed,
    )


def cp2_graph(signed: bool = False) -> GkmGraph:
    return GkmGraph(
        2,
        ["A", "B", "C"],
        [("ab", "A", "B"), ("ac", "A", "C"), ("bc", "B", "C")],
        {"ab": (1, 0), "ac": (0, 1), "bc": (-1, 1)},
        signed=signed,
    )


def sphere_graph() -> GkmGraph:
    return GkmGraph(1, ["N", "S"], [("a", "N", "S")], {"a": (1,)})


def graph_product(g: GkmGraph, h: GkmGraph) -> GkmGraph:
    """Cartesian product; axial vectors live in the direct sum."""
    vertices = [f"{x}.{y}" for x in g.vertices for y in h.vertices]
    edges, axial = [], {}
    for e in g.edges:
        for y in h.vertices:
            edges.append((f"{e.name}.{y}", f"{e.u}.{y}", f"{e.v}.{y}"))
            axial[f"{e.name}.{y}"] = g.alpha(e.name) + (0,) * h.ambient_rank
    for e in h.edges:
        for x in g.vertices:
            edges.append((f"{x}.{e.name}", f"{x}.{e.u}", f"{x}.{e.v}"))
            axial[f"{x}.{e.name}"] = (0,) * g.ambient_rank + h.alpha(e.name)
    return GkmGraph(g.ambient_rank + h.ambient_rank, vertices, edges, axial)


def hypercube_graph(d: int) -> GkmGraph:
    """Q_d, the graph of (S^2)^d."""
    g = sphere_graph()
    for _ in range(d - 1):
        g = graph_product(g, sphere_graph())
    return g


def flag_graph(n: int) -> GkmGraph:
    """Fl(n): permutations of 1..n, an edge for each swap of two values.

    The edge swapping a < b carries the root e_a - e_b in simple-root
    coordinates of Z^(n-1).
    """
    perms = ["".join(p) for p in itertools.permutations("123456789"[:n])]
    edges, axial = [], {}
    for x, y in itertools.combinations(perms, 2):
        swapped = sorted(int(a) for a, b in zip(x, y) if a != b)
        if len(swapped) == 2:
            a, b = swapped
            edges.append((f"e{x}_{y}", x, y))
            axial[f"e{x}_{y}"] = tuple(int(a <= t < b) for t in range(1, n))
    return GkmGraph(n - 1, perms, edges, axial)


def unimodular(rng: random.Random, k: int) -> list[list[int]]:
    """A random matrix in GL_k(Z): a row permutation and k random shears."""
    rows = [[int(i == j) for j in range(k)] for i in range(k)]
    rng.shuffle(rows)
    for _ in range(k if k > 1 else 0):  # unimodular shears keep every span's rank
        i, j = rng.sample(range(k), 2)
        rows[i] = [a + rng.choice((1, -1)) * b for a, b in zip(rows[i], rows[j])]
    return rows


def scrambled(rng: random.Random, g: GkmGraph) -> GkmGraph:
    """Same names and faces; new declaration order, edge ends, coordinates and signs."""
    k = g.ambient_rank
    rows = unimodular(rng, k)
    vertices = list(g.vertices)
    rng.shuffle(vertices)
    edges = [(e.name, *rng.sample((e.u, e.v), 2)) for e in g.edges]
    rng.shuffle(edges)
    axial = {}
    for name, w in g.axial.items():
        sign = rng.choice((1, -1))
        axial[name] = tuple(sign * sum(a * x for a, x in zip(row, w)) for row in rows)
    return GkmGraph(k, vertices, edges, axial)


def scrambled_graphs(seed: int) -> dict:
    """name -> (graph, connection-or-None): scrambled Q3, CP2xS2, Fl(3) and CP2xCP2.

    Fl(3) is the bundled g6.gkm with its geometric connection; scrambling
    keeps edge names, so the connection still applies.
    """
    rng = random.Random(seed)
    flag, theta = corpus_graph("g6.gkm")
    return {
        "q3": (scrambled(rng, hypercube_graph(3)), None),
        "cp2xs2": (scrambled(rng, graph_product(cp2_graph(), sphere_graph())), None),
        "fl3": (scrambled(rng, flag), theta),
        "cp2xcp2": (scrambled(rng, graph_product(cp2_graph(), cp2_graph())), None),
    }


def type_a_roots(n: int) -> list[tuple[int, ...]]:
    """Positive roots e_i - e_j of A_n in simple-root coordinates of Z^n."""
    return [
        tuple(int(i <= t < j) for t in range(n)) for i in range(n + 1) for j in range(i + 1, n + 1)
    ]


def disguised(rng: random.Random, ws: WeightSystem) -> WeightSystem:
    """The same matroid up to relabelling: new coordinates, weight order and signs."""
    rows = unimodular(rng, ws.ambient_rank)
    weights = [tuple(sum(a * x for a, x in zip(row, w)) for row in rows) for w in ws.weights]
    rng.shuffle(weights)
    signed = [w if rng.random() < 0.5 else tuple(-x for x in w) for w in weights]
    return WeightSystem(ws.ambient_rank, signed)


def poset_text(rng: random.Random, elements, covers) -> str:
    """A .poset file of (name, rank, drk) elements and (low, high) covers, lines shuffled."""
    rows = [f"element {name} rank {rank} drk {drk}" for name, rank, drk in elements]
    edges = [f"cover {low} < {high}" for low, high in covers]
    rng.shuffle(rows)
    rng.shuffle(edges)
    return "\n".join(rows + edges) + "\n"


def partition_lattice_text(rng: random.Random, n: int) -> str:
    """The partition lattice of {0..n}, the flats lattice of A_n, as a .poset file.

    A block B holds C(|B|, 2) roots, so drk sums those over the blocks.
    Built from set partitions alone, without the package.
    """
    parts = [[]]
    for item in range(n + 1):
        parts = [p[:i] + [b + (item,)] + p[i + 1 :] for p in parts for i, b in enumerate(p)] + [
            p + [(item,)] for p in parts
        ]
    name = {tuple(sorted(p)): f"p{i}" for i, p in enumerate(parts)}
    elements = [(name[p], n + 1 - len(p), sum(len(b) * (len(b) - 1) // 2 for b in p)) for p in name]
    covers = []
    for p in name:
        for i, j in itertools.combinations(range(len(p)), 2):
            merged = [b for t, b in enumerate(p) if t not in (i, j)] + [tuple(sorted(p[i] + p[j]))]
            covers.append((name[p], name[tuple(sorted(merged))]))
    return poset_text(rng, elements, covers)


def flats_lattice_text(rng: random.Random, ws: WeightSystem) -> str:
    """The flats lattice of a small weight system as a .poset file, from the subset-scan oracle."""
    from oracles import flats_lattice_oracle

    ids, covers, rank = flats_lattice_oracle(list(ws.weights))

    def label(flat):
        return "{" + ",".join(map(str, flat)) + "}"

    elements = [(label(f), rank[f], len(f)) for f in ids]
    return poset_text(rng, elements, [(label(a), label(b)) for a, b in covers])


def grassmannian_graph(k: int, n: int) -> tuple[GkmGraph, Connection]:
    """Gr(k, n) with its geometric connection: k-subsets of 1..n, an edge per swap of two values.

    The edge swapping a < b carries the root e_a - e_b in simple-root
    coordinates of Z^(n-1), as in `flag_graph`.  Along it the connection
    sends the swap of c and d to the swap of their images under (a b).
    """
    subsets = ["".join(s) for s in itertools.combinations("123456789"[:n], k)]
    edges, axial, swapped = [], {}, {}
    for x, y in itertools.combinations(subsets, 2):
        pair = set(x) ^ set(y)
        if len(pair) == 2:
            a, b = sorted(int(c) for c in pair)
            name = f"e{x}_{y}"
            edges.append((name, x, y))
            axial[name] = tuple(int(a <= t < b) for t in range(1, n))
            swapped[name] = pair
    g = GkmGraph(n - 1, subsets, edges, axial)
    at = {(x, frozenset(swapped[name])): name for x in subsets for name in g.star(x)}
    maps = {}
    for e in g.edges:
        a, b = swapped[e.name]
        swap = {a: b, b: a}
        for tail in (e.u, e.v):
            maps[(e.name, tail)] = {
                f: at[(e.other(tail), frozenset(swap.get(c, c) for c in swapped[f]))]
                for f in g.star(tail)
            }
    return g, Connection(maps)


def lens_graph() -> GkmGraph:
    """Two vertices joined by two edges with independent weights: S^4 under a 2-torus."""
    return GkmGraph(2, ["N", "S"], [("a", "N", "S"), ("b", "N", "S")], {"a": (1, 0), "b": (0, 1)})
