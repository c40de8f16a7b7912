"""Host-speed correction of job times.

The benchmark runs on small virtual machines shared with other tenants,
whose speed drifts by up to half within one run and between runs.  Job
times of identical code then spread more from run to run than the
changes the benchmark has to resolve.

So before every job the benchmark times `reference()`, a fixed loop of
the kinds of work the CLI does (rational elimination, an argparse
parser, parsing and formatting text, hashing frozensets) written with
the standard library only.  It never calls the package under test, so
it costs the same at every commit.  A job time is reported scaled to a
host on which the loop takes `REFERENCE_S`:

    scaled = elapsed * REFERENCE_S / local

where `local` is the median of the reference times taken from
`WINDOW_S` before the job starts to `WINDOW_S` after it ends, and always
includes the timings right before and right after it.  That follows the
drift, which shows over seconds, but not the noise of one short sample.  `REFERENCE_S` is the loop's median time on the
2-vCPU machine the benchmark was defined on, so scaled figures read as
milliseconds on that machine at its usual speed.  Raw wall times are
printed next to the scaled ones.
"""

from __future__ import annotations

import argparse
import itertools
import statistics
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

REFERENCE_S = 0.0007  # median of `reference()` between jobs, 2-vCPU defining machine
WINDOW_S = 0.5  # seconds on each side of a job whose reference timings it is scaled by

_TEXT = "\n".join(f"w{i} = ({i % 3},{-i % 5},{i * 7 % 4})" for i in range(12))


def _eliminate() -> int:
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(4)] for i in range(4)]
    seen = set()
    for p in range(4):
        pivot = rows[p][p] or Fraction(1)
        for r in range(p + 1, 4):
            f = rows[r][p] / pivot
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[p])]
            seen.add(tuple(rows[r]))
    return len(seen)


def _parser() -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="reference")
    parser.add_argument("file")
    parser.add_argument("--cap", type=int, default=3)
    return parser.parse_args(["input.wt", "--cap", "5"])


def _text() -> str:
    out = []
    for line in _TEXT.splitlines():
        key, value = line.split(" = ")
        nums = tuple(int(x) for x in value.strip("()").split(","))
        out.append(f"{key} {{{','.join(map(str, nums))}}} rank {len(nums)}")
    return "\n".join(out)


def _sets() -> int:
    kept = {frozenset(c) for c in itertools.combinations(range(8), 3) if sum(c) % 3}
    return len({s: len(s) for s in kept})


def reference() -> tuple[float, float]:
    """(start, seconds) of one pass of the fixed reference loop, run now."""
    start = time.perf_counter()
    _eliminate()
    _parser()
    _text()
    _sets()
    return start, time.perf_counter() - start


def scale(elapsed: list[float], refs: list[tuple[float, float]]) -> list[float]:
    """Scale job i, timed right after reference pass i, by the passes around it."""
    starts = [start for start, _ in refs]
    seconds = [s for _, s in refs]
    out = []
    for i, t in enumerate(elapsed):
        lo = bisect_left(starts, starts[i] - WINDOW_S)
        hi = max(bisect_right(starts, starts[i] + seconds[i] + t + WINDOW_S), i + 2)
        out.append(t * REFERENCE_S / statistics.median(seconds[lo:hi]))
    return out


def speed_factor() -> float:
    """REFERENCE_S over the median of 15 reference passes run now."""
    return REFERENCE_S / statistics.median(reference()[1] for _ in range(15))
