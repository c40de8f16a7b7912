"""The three benchmark workloads as lists of CLI jobs with expected results.

`build(name, seed, workdir, data_dir)` writes the workload's input files
into `workdir` and returns one cycle of jobs.  Every job carries the exit
code it must return and a check of its output against values known
independently of the package under test:

- type A: Bell(n+1) flats, Stirling numbers per rank, |mu| = n!, and
  reduced homology of the proper part n! in degree n-2;
- GKM graphs: 3^d faces for Q_d, products of the factor counts for the
  CP^2 products, and 31 / 19 / 16 for Fl(3);
- random weight systems: the brute-force oracles in tests/oracles.py;
- the bundled corpus: hand-derived counts, exit codes and error messages.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import generators as gen
import oracles

Check = Callable[[str, str], bool]  # (stdout, stderr) -> correct


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    code: int  # expected exit code
    check: Check
    raises: bool = False  # ends in a typed error reported on stderr

    @property
    def label(self) -> str:
        return " ".join(Path(a).name if "/" in a else a for a in self.argv)


# ----------------------------------------------------------------------
# output checks


def lines(*expected: str) -> Check:
    return lambda out, err: out.splitlines() == list(expected)


def has(*expected: str) -> Check:
    return lambda out, err: all(line in out.splitlines() for line in expected)


def error(message: str) -> Check:
    return lambda out, err: out == "" and err.startswith(f"error: {message}")


def both(*checks: Check) -> Check:
    return lambda out, err: all(c(out, err) for c in checks)


def face_table(count: int) -> Check:
    """`faces: N` followed by at least N rows."""
    return lambda out, err: out.startswith(f"faces: {count}\n") and len(out.splitlines()) > count


def face_ranks(by_rank: dict[int, int]) -> Check:
    """A face table whose rows have these counts per rank."""

    def check(out, err):
        rows = out.splitlines()
        seen: dict[int, int] = {}
        for row in rows[1 : sum(by_rank.values()) + 1]:
            r = int(row.split()[2])
            seen[r] = seen.get(r, 0) + 1
        return face_table(sum(by_rank.values()))(out, err) and seen == by_rank

    return check


def row_count(count: int, prefix: str) -> Check:
    return lambda out, err: len(out.splitlines()) == count and all(
        r.startswith(prefix) for r in out.splitlines()
    )


def poset_counts(elements: int, covers: int) -> Check:
    def check(out, err):
        rows = out.splitlines()
        return (
            sum(r.startswith("element ") for r in rows) == elements
            and sum(r.startswith("cover ") for r in rows) == covers
        )

    return check


def betti_lines(top: int, degree: int, value: int) -> Check:
    return lines(*(f"b~{d} = {value if d == degree else 0}" for d in range(-1, top + 1)))


# ----------------------------------------------------------------------
# closed forms


def bell(n: int) -> int:
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def stirling2(n: int, k: int) -> int:
    return sum((-1) ** i * math.comb(k, i) * (k - i) ** n for i in range(k + 1)) // math.factorial(k)


# ----------------------------------------------------------------------
# type A


def type_a_jobs(n: int, wt: list[Path], poset: list[Path]) -> list[Job]:
    """The five jobs of one A_n round; each job reads its own disguised copy."""
    m = n * (n + 1) // 2
    flats = bell(n + 1)
    mu = math.factorial(n)
    top = "{" + ",".join(map(str, range(1, m + 1))) + "}"
    by_rank = {r: stirling2(n + 1, n + 1 - r) for r in range(n + 1)}

    def flats_check(out, err):
        rows = out.splitlines()
        seen: dict[int, int] = {}
        for row in rows[1:]:
            r = int(row.split()[2])
            seen[r] = seen.get(r, 0) + 1
        return rows[0] == f"flats: {flats}" and rows[-1] == f"{top} rank {n} drk {m}" and seen == by_rank

    betti = " ".join(f"b~{d}={mu if d == n - 2 else 0}" for d in range(-1, n - 1))
    wedge = has(
        f"matroid rank: {n}",
        f"mobius magnitude: {mu}",
        f"flats interval: pass ({betti})",
        "wedge prediction: pass",
    )
    return [
        Job(("matroid", "flats", str(wt[0])), 0, flats_check),
        Job(
            ("matroid", "check", str(wt[1])),
            0,
            lines(
                f"flats: {flats}",
                "geometric lattice: pass",
                "coherent with multiplicity weights: pass",
                "independence degree: 2",
            ),
        ),
        Job(("matroid", "wedge", str(wt[2])), 0, wedge),
        Job(
            ("poset", "check", str(poset[0]), "--gkm-coherent"),
            0,
            lines("graded: pass", f"locally geometric: pass (rank {n})", f"gkm-coherent: pass (drk at top = {m})"),
        ),
        Job(("poset", "homology", str(poset[1]), "--proper"), 0, betti_lines(n - 2, n - 2, mu)),
    ]


# Rounds of each rank per cycle: A5 few but heavy, A3/A4 most of the count.
# With 21 A3 rounds the 90th percentile falls in the middle of the eight
# A4 `matroid wedge` / `poset check` jobs of about equal cost, not at the
# edge of that group, where it would jump to the next job kind.
TYPE_A_ROUNDS = {5: 1, 4: 4, 3: 21}


def type_a(rng: random.Random, workdir: Path) -> list[Job]:
    rounds = []
    for n, count in TYPE_A_ROUNDS.items():
        for i in range(count):
            wt = [workdir / f"a{n}_{i}_{j}.wt" for j in range(3)]
            poset = [workdir / f"a{n}_{i}_{j}.poset" for j in range(2)]
            for path in wt:
                path.write_text(gen.weight_file(n, gen.type_a_weights(rng, n)))
            for path in poset:
                path.write_text(gen.partition_lattice_poset(rng, n))
            rounds.append(type_a_jobs(n, wt, poset))
    rng.shuffle(rounds)
    return [job for r in rounds for job in r]


# ----------------------------------------------------------------------
# GKM graphs

SPHERE = {0: 2, 1: 1}  # faces of S^2 by rank
CP2 = {0: 3, 1: 3, 2: 1}


def product_counts(*factors: dict[int, int]) -> dict[int, int]:
    out = {0: 1}
    for f in factors:
        nxt: dict[int, int] = {}
        for (r1, c1), (r2, c2) in itertools.product(out.items(), f.items()):
            nxt[r1 + r2] = nxt.get(r1 + r2, 0) + c1 * c2
        out = nxt
    return out


@dataclass(frozen=True)
class GraphCase:
    name: str
    graph: gen.Graph
    dimension: int
    rank: int
    faces: dict[int, int]  # by rank
    tg_faces: int
    survivors: int


def graph_cases() -> list[GraphCase]:
    cases = []
    for name, factors, graph in (
        ("q2", [SPHERE] * 2, gen.hypercube(2)),
        ("q3", [SPHERE] * 3, gen.hypercube(3)),
        ("cp2xs2", [CP2, SPHERE], gen.product(gen.cp2(), gen.sphere())),
    ):
        counts = product_counts(*factors)
        total = sum(counts.values())
        cases.append(GraphCase(name, graph, max(counts), max(counts), counts, total, total))
    # 6 vertices and 9 edges leave 16 of the 31 faces at rank 2
    cases.append(GraphCase("fl3", gen.flag3(), 3, 2, {0: 6, 1: 9, 2: 16}, 19, 16))
    return cases


CP2XCP2_FACES = product_counts(CP2, CP2)
# Rounds of each graph per CP2 x CP2 face enumeration.  The counts put the
# median job among the CP2xS2 / Fl(3) face enumerations and the 90th
# percentile in the middle of the Q3 face and tg-face jobs, each well
# inside a run of jobs of about equal cost, so that neither order
# statistic sits at the edge of a gap between job kinds and jumps across
# it from run to run.
GKM_ROUNDS = {"q2": 5, "q3": 10, "cp2xs2": 18, "fl3": 18}


def graph_jobs(case: GraphCase, path: Path) -> list[Job]:
    f = str(path)
    g = case.graph
    if g.connection:
        connection = lines("connection: pass")
    else:
        connection = row_count(2 * len(g.edges) * (case.dimension - 1), "connection ")
    survivors = both(face_table(case.survivors), has("diagnostics: none"), has("galois: pass"))
    return [
        Job(("gkm", "validate", f), 0, lines(f"valid: dimension {case.dimension}, rank {case.rank}")),
        Job(("gkm", "faces", f), 0, face_ranks(case.faces)),
        Job(("gkm", "tg-faces", f), 0, face_table(case.tg_faces)),
        Job(("gkm", "connection", f), 0, connection),
        Job(("gkm", "reconstruct", f, "--verify-galois"), 0, survivors),
        Job(("gkm", "reconstruct", f, "--mode", "tg", "--verify-galois"), 0, survivors),
    ]


def gkm_graphs(rng: random.Random, workdir: Path) -> list[Job]:
    rounds = []
    for case in graph_cases():
        for i in range(GKM_ROUNDS[case.name]):
            path = workdir / f"{case.name}_{i}.gkm"
            path.write_text(gen.graph_file(gen.scramble(rng, case.graph)))
            rounds.append(graph_jobs(case, path))
    rng.shuffle(rounds)
    jobs = [job for r in rounds for job in r]
    big = workdir / "cp2xcp2.gkm"
    big.write_text(gen.graph_file(gen.scramble(rng, gen.product(gen.cp2(), gen.cp2()))))
    jobs.insert(rng.randrange(len(jobs) + 1), Job(("gkm", "faces", str(big)), 0, face_ranks(CP2XCP2_FACES)))
    return jobs


# ----------------------------------------------------------------------
# small CLI jobs: the bundled corpus and random weight systems


def corpus_jobs(data: Path) -> list[Job]:
    """Every corpus command, with expectations derived by hand."""

    def d(name):
        return str(data / name)

    u23 = (data / "u23.wt").read_text().rstrip("\n") + "\n"
    return [
        Job(("matroid", "flats", d("b2.wt")), 0, lines(
            "flats: 4", "{} rank 0 drk 0", "{1} rank 1 drk 1", "{2} rank 1 drk 1", "{1,2} rank 2 drk 2")),
        Job(("matroid", "flats", d("u23.wt")), 0, lines(
            "flats: 5", "{} rank 0 drk 0", "{1} rank 1 drk 1", "{2} rank 1 drk 1", "{3} rank 1 drk 1",
            "{1,2,3} rank 2 drk 3")),
        Job(("matroid", "flats", d("coll.wt")), 0, lines(
            "flats: 4", "{} rank 0 drk 0", "{1,2} rank 1 drk 2", "{3} rank 1 drk 1", "{1,2,3} rank 2 drk 3")),
        Job(("matroid", "flats", d("b2.wt"), "--json"), 0,
            lambda out, err: json.loads(out)["kind"] == "poset" and len(json.loads(out)["elements"]) == 4),
        Job(("matroid", "flats", d("u23.wt"), "--dot"), 0,
            lambda out, err: out.startswith("digraph poset {") and out.count("->") == 6),
        *(
            Job(("matroid", "check", d(name)), 0, lines(
                f"flats: {flats}", "geometric lattice: pass", "coherent with multiplicity weights: pass",
                f"independence degree: {degree}"))
            for name, flats, degree in (("b2.wt", 4, 2), ("u23.wt", 5, 2), ("coll.wt", 4, 1))
        ),
        *(
            Job(("matroid", "wedge", d(name)), 0, has(
                "matroid rank: 2", f"mobius magnitude: {mu}", f"flats interval: pass (b~-1=0 b~0={mu})",
                "wedge prediction: pass"))
            for name, mu in (("b2.wt", 1), ("u23.wt", 2), ("coll.wt", 1))
        ),
        Job(("matroid", "wedge", d("u23.wt"), "--json"), 0,
            lambda out, err: json.loads(out)["mobius_magnitude"] == 2 and json.loads(out)["ok"] is True),
        Job(("poset", "check", d("glued.poset")), 0, lines("graded: pass", "locally geometric: pass (rank 2)")),
        Job(("poset", "check", d("glued.poset"), "--gkm-coherent"), 1, both(
            has("graded: pass", "locally geometric: pass (rank 2)"),
            lambda out, err: "gkm-coherent: fail at element top" in out and "sum 2" in out and "sum 3" in out)),
        Job(("poset", "homology", d("glued.poset")), 0, betti_lines(2, 2, 0)),
        Job(("poset", "homology", d("glued.poset"), "--proper"), 1,
            error("proper part needs a unique bottom and top"), raises=True),
        Job(("poset", "compactify", d("glued.poset")), 1,
            error("compactification needs a unique bottom element"), raises=True),
        Job(("poset", "projectivize", d("glued.poset")), 1,
            error("projectivization needs a unique bottom element"), raises=True),
        Job(("poset", "glue", d("glued.poset"), d("glued.poset")), 0, poset_counts(15, 20)),
        *(
            Job(("gkm", "validate", d(name)), 0, lines(f"valid: dimension {dim}, rank {rank}"))
            for name, dim, rank in (("s2.gkm", 1, 1), ("cp2.gkm", 2, 2), ("g6.gkm", 3, 2))
        ),
        *(
            Job(("gkm", "faces", d(name)), 0, face_table(count))
            for name, count in (("s2.gkm", 3), ("cp2.gkm", 7), ("square.gkm", 9), ("g6.gkm", 31))
        ),
        *(
            Job(("gkm", "tg-faces", d(name)), 0, face_table(count))
            for name, count in (("cp2.gkm", 7), ("square.gkm", 9), ("g6.gkm", 19))
        ),
        Job(("gkm", "connection", d("cp2.gkm")), 0, row_count(6, "connection ")),
        Job(("gkm", "connection", d("square.gkm")), 0,
            both(has("connection l at v00 -> r via b"), row_count(8, "connection "))),
        Job(("gkm", "connection", d("g6.gkm")), 0, lines("connection: pass")),
        *(
            Job(("gkm", "reconstruct", d(name)), 0, both(face_table(count), has("diagnostics: none")))
            for name, count in (("s2.gkm", 3), ("cp2.gkm", 7), ("square.gkm", 9), ("g6.gkm", 16))
        ),
        Job(("gkm", "reconstruct", d("g6.gkm"), "--verify-galois"), 0,
            both(face_table(16), has("diagnostics: none", "galois: pass"))),
        Job(("gkm", "reconstruct", d("g6.gkm"), "--mode", "tg"), 0,
            both(face_table(16), has("diagnostics: none"))),
        Job(("gkm", "reconstruct", d("g6.gkm"), "--cap", "5"), 1,
            error("enumeration cap of 5 candidate subgraphs exceeded"), raises=True),
        Job(("corpus", "u23.wt"), 0, lambda out, err: out == u23),
        Job(("corpus", "missing.wt"), 1, error("no bundled file 'missing.wt'"), raises=True),
    ]


# (n, k) shapes of the random weight systems; entries in [-3, 3]
RANDOM_SHAPES = ((4, 2), (5, 2), (6, 2), (5, 3), (6, 3), (7, 3), (5, 4), (6, 4))


def random_system_jobs(rng: random.Random, workdir: Path, i: int, n: int, k: int) -> list[Job]:
    # rank >= 2 keeps the proper part of the lattice nonempty, so every job has an answer
    while True:
        weights = gen.random_weights(rng, n, k)
        rank = oracles.rank_oracle(weights)
        if rank >= 2:
            break
    flats = oracles.flats_oracle(weights)  # [(members, rank)] sorted by rank
    members = [m for m, _ in flats]
    ranks = [r for _, r in flats]
    covers = [
        (a, b)
        for a in range(len(flats))
        for b in range(len(flats))
        if ranks[b] == ranks[a] + 1 and members[a] < members[b]
    ]
    below: dict[int, list[int]] = {b: [] for b in range(len(flats))}
    for a in range(len(flats)):
        for b in range(len(flats)):
            if a != b and members[a] <= members[b]:
                below[b].append(a)
    mobius: list[int] = []
    for b in range(len(flats)):  # flats are sorted by rank, so below comes first
        mobius.append(1 if b == 0 else -sum(mobius[a] for a in below[b]))
    mu = abs(mobius[-1])
    atoms = sum(r == 1 for r in ranks)
    degree = next(
        (j - 1 for j in range(1, n + 1) for s in itertools.combinations(weights, j)
         if oracles.rank_oracle(list(s)) < j),
        n,
    )

    wt = workdir / f"r{i}.wt"
    wt.write_text(gen.weight_file(k, weights))
    names = [f"f{t}" for t in range(len(flats))]
    rng.shuffle(names)
    rows = [f"element {names[t]} rank {ranks[t]} drk {len(members[t])}" for t in range(len(flats))]
    rows += [f"cover {names[a]} < {names[b]}" for a, b in covers]
    poset = workdir / f"r{i}.poset"
    poset.write_text("\n".join(rows) + "\n")

    expected_flats = sorted(
        ("{" + ",".join(map(str, sorted(m))) + "}", r, len(m)) for m, r in flats
    )

    def flats_check(out, err):
        rows = out.splitlines()
        got = sorted(
            (row.split()[0], int(row.split()[2]), int(row.split()[4])) for row in rows[1:]
        )
        return rows[0] == f"flats: {len(flats)}" and got == expected_flats

    F, C = len(flats), len(covers)
    return [
        Job(("matroid", "flats", str(wt)), 0, flats_check),
        Job(("matroid", "check", str(wt)), 0, lines(
            f"flats: {F}", "geometric lattice: pass", "coherent with multiplicity weights: pass",
            f"independence degree: {degree}")),
        Job(("matroid", "wedge", str(wt)), 0,
            has(f"matroid rank: {rank}", f"mobius magnitude: {mu}", "wedge prediction: pass")),
        Job(("poset", "check", str(poset)), 0, lines("graded: pass", f"locally geometric: pass (rank {rank})")),
        Job(("poset", "compactify", str(poset)), 0, poset_counts(F + 1, C + atoms)),
        Job(("poset", "projectivize", str(poset)), 0, poset_counts(F - 1, C - atoms)),
        Job(("poset", "glue", str(poset), str(poset)), 0, poset_counts(2 * F - 1, 2 * C)),
        Job(("poset", "homology", str(poset), "--proper"), 0, betti_lines(rank - 2, rank - 2, mu)),
    ]


def small_cli(rng: random.Random, workdir: Path, data: Path) -> list[Job]:
    jobs = corpus_jobs(data)
    for i, (n, k) in enumerate(RANDOM_SHAPES):
        jobs += random_system_jobs(rng, workdir, i, n, k)
    rng.shuffle(jobs)
    return jobs


WORKLOADS = ("typeA", "gkm-graphs", "small-cli")


def build(name: str, seed: int, workdir: Path, data: Path) -> list[Job]:
    rng = random.Random(f"{name}:{seed}")
    if name == "typeA":
        return type_a(rng, workdir)
    if name == "gkm-graphs":
        return gkm_graphs(rng, workdir)
    return small_cli(rng, workdir, data)
