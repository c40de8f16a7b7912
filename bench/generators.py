"""Seeded input generators for the benchmark workloads.

Everything here is built from first principles, without calling the
package under test, so the expected answers the workloads check (Bell
numbers, n!, 3^d faces and so on) are independent of it.

Randomness only disguises the inputs: weights are written in random
unimodular coordinates, shuffled and negated at random; graph vertices
and edges get random names and a random declaration order.  None of
this changes any invariant the workloads check.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

Vector = tuple[int, ...]


# ----------------------------------------------------------------------
# linear algebra helpers


def unimodular(rng: random.Random, k: int) -> list[list[int]]:
    """A random matrix in GL_k(Z): a row permutation and k random ±1 shears.

    Few shears keep the entries small, so arithmetic cost barely depends
    on the seed.
    """
    rows = [[int(i == j) for j in range(k)] for i in range(k)]
    rng.shuffle(rows)
    for _ in range(k):
        if k < 2:
            break
        i, j = rng.sample(range(k), 2)
        sign = rng.choice((1, -1))
        rows[i] = [a + sign * b for a, b in zip(rows[i], rows[j])]
    return rows


def apply(matrix: list[list[int]], v: Vector) -> Vector:
    return tuple(sum(a * x for a, x in zip(row, v)) for row in matrix)


def disguise(rng: random.Random, k: int, weights: list[Vector]) -> list[Vector]:
    """Unimodular change of coordinates, a shuffle and random signs."""
    u = unimodular(rng, k)
    out = [apply(u, w) for w in weights]
    rng.shuffle(out)
    return [w if rng.random() < 0.5 else tuple(-x for x in w) for w in out]


def weight_file(k: int, weights: list[Vector]) -> str:
    lines = [f"ambient_rank: {k}"]
    lines += [f"w{i} = ({','.join(map(str, w))})" for i, w in enumerate(weights, start=1)]
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# type A root systems and partition lattices


def type_a_roots(n: int) -> list[Vector]:
    """Positive roots e_i - e_j of A_n in simple-root coordinates (Z^n)."""
    return [
        tuple(int(i <= t < j) for t in range(n))
        for i in range(n + 1)
        for j in range(i + 1, n + 1)
    ]


def type_a_weights(rng: random.Random, n: int) -> list[Vector]:
    return disguise(rng, n, type_a_roots(n))


def set_partitions(items: list) -> list[list[tuple]]:
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for p in set_partitions(rest):
        out.append([(first,)] + p)
        for i, block in enumerate(p):
            out.append(p[:i] + [(first,) + block] + p[i + 1 :])
    return out


def partition_lattice_poset(rng: random.Random, n: int) -> str:
    """The partition lattice of {0..n} as a .poset file.

    It is the flats lattice of A_n: a block B holds C(|B|, 2) roots, so
    drk is the sum of those over blocks.  Element names and line order
    are shuffled.
    """
    parts = [tuple(sorted(tuple(sorted(b)) for b in p)) for p in set_partitions(list(range(n + 1)))]
    names = [f"p{i}" for i in range(len(parts))]
    rng.shuffle(names)
    name = dict(zip(parts, names))
    elements = [
        f"element {name[p]} rank {n + 1 - len(p)} drk {sum(len(b) * (len(b) - 1) // 2 for b in p)}"
        for p in parts
    ]
    covers = []
    for p in parts:
        for i, j in itertools.combinations(range(len(p)), 2):
            merged = [b for t, b in enumerate(p) if t not in (i, j)] + [tuple(sorted(p[i] + p[j]))]
            covers.append(f"cover {name[p]} < {name[tuple(sorted(merged))]}")
    rng.shuffle(elements)
    rng.shuffle(covers)
    return "\n".join(elements + covers) + "\n"


# ----------------------------------------------------------------------
# small random weight systems


def random_weights(rng: random.Random, n: int, k: int) -> list[Vector]:
    """n nonzero weights in Z^k with entries in [-3, 3]; repeats allowed."""
    out: list[Vector] = []
    while len(out) < n:
        w = tuple(rng.randint(-3, 3) for _ in range(k))
        if any(w):
            out.append(w)
    return out


# ----------------------------------------------------------------------
# GKM graphs


@dataclass
class Graph:
    """A GKM graph plus an optional connection, in file-ready form.

    `connection[(via, tail)][source] = target` lists the non-trivial
    rows of the star bijection along `via` out of `tail`.
    """

    ambient: int
    vertices: list[str]
    edges: list[tuple[str, str, str]]
    axial: dict[str, Vector]
    connection: dict[tuple[str, str], dict[str, str]] = field(default_factory=dict)

    def star(self, x: str) -> list[str]:
        return [name for name, u, v in self.edges if x in (u, v)]


def sphere() -> Graph:
    """S^2 with its rotation: one edge of weight (1)."""
    return Graph(1, ["N", "S"], [("a", "N", "S")], {"a": (1,)})


def cp2() -> Graph:
    """The triangle of CP^2."""
    return Graph(
        2,
        ["A", "B", "C"],
        [("ab", "A", "B"), ("ac", "A", "C"), ("bc", "B", "C")],
        {"ab": (1, 0), "ac": (0, 1), "bc": (-1, 1)},
    )


def product(g: Graph, h: Graph) -> Graph:
    """Cartesian product; axial vectors live in the direct sum."""
    vertices = [f"{x}.{y}" for x in g.vertices for y in h.vertices]
    edges, axial = [], {}
    for name, u, v in g.edges:
        for y in h.vertices:
            e = f"{name}.{y}"
            edges.append((e, f"{u}.{y}", f"{v}.{y}"))
            axial[e] = g.axial[name] + (0,) * h.ambient
    for name, u, v in h.edges:
        for x in g.vertices:
            e = f"{x}.{name}"
            edges.append((e, f"{x}.{u}", f"{x}.{v}"))
            axial[e] = (0,) * g.ambient + h.axial[name]
    return Graph(g.ambient + h.ambient, vertices, edges, axial)


def hypercube(d: int) -> Graph:
    """Q_d, the graph of (S^2)^d."""
    g = sphere()
    for _ in range(d - 1):
        g = product(g, sphere())
    return g


_A2_ROOT = {frozenset((1, 2)): (1, 0), frozenset((2, 3)): (0, 1), frozenset((1, 3)): (1, 1)}


def flag3() -> Graph:
    """Fl(3): permutations of 123, edges swap two values, with the
    geometric connection (across the edge swapping {a, b}, the edge
    swapping {c, d} goes to the edge swapping s_ab({c, d}))."""
    perms = ["".join(p) for p in itertools.permutations("123")]
    edges, axial, swapped = [], {}, {}
    for x, y in itertools.combinations(perms, 2):
        diff = {int(a) for a, b in zip(x, y) if a != b}
        if len(diff) == 2:
            name = f"e{x}_{y}"
            edges.append((name, x, y))
            axial[name] = _A2_ROOT[frozenset(diff)]
            swapped[name] = frozenset(diff)
    g = Graph(2, perms, edges, axial)
    for via, u, v in edges:
        a, b = sorted(swapped[via])
        reflect = {a: b, b: a}
        for tail, head in ((u, v), (v, u)):
            rows = {}
            for f in g.star(tail):
                if f == via:
                    continue
                image = frozenset(reflect.get(t, t) for t in swapped[f])
                rows[f] = next(h for h in g.star(head) if h != via and swapped[h] == image)
            g.connection[(via, tail)] = rows
    return g


def scramble(rng: random.Random, g: Graph) -> Graph:
    """Random names, declaration order, coordinates and edge signs."""
    vnames = [f"v{i}" for i in range(len(g.vertices))]
    enames = [f"e{i}" for i in range(len(g.edges))]
    rng.shuffle(vnames)
    rng.shuffle(enames)
    vmap = dict(zip(g.vertices, vnames))
    emap = dict(zip((name for name, _, _ in g.edges), enames))
    u = unimodular(rng, g.ambient)
    edges = []
    for name, a, b in g.edges:
        ends = [vmap[a], vmap[b]]
        rng.shuffle(ends)
        edges.append((emap[name], *ends))
    axial = {}
    for name, w in g.axial.items():
        w = apply(u, w)
        axial[emap[name]] = w if rng.random() < 0.5 else tuple(-x for x in w)
    vertices = sorted(vnames, key=lambda _: rng.random())
    rng.shuffle(edges)
    connection = {
        (emap[via], vmap[tail]): {emap[f]: emap[t] for f, t in rows.items()}
        for (via, tail), rows in g.connection.items()
    }
    return Graph(g.ambient, vertices, edges, axial, connection)


def graph_file(g: Graph) -> str:
    lines = [f"ambient_rank: {g.ambient}"]
    lines += [f"vertex {x}" for x in g.vertices]
    lines += [f"edge {name} {u} {v} weight ({','.join(map(str, g.axial[name]))})" for name, u, v in g.edges]
    for (via, tail), rows in sorted(g.connection.items()):
        lines += [f"connection {f} at {tail} -> {t} via {via}" for f, t in sorted(rows.items())]
    return "\n".join(lines) + "\n"
