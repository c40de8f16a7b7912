"""Benchmark of the gkmfaces CLI: seeded workloads, closed loop, one client.

    python3 bench/run.py --workload typeA --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Each job is one `gkmfaces` invocation through `cli.main`, in process,
with stdout and stderr captured, and is checked against independently
known answers (see workloads.py).  Jobs run one after another from a
single thread.  A run repeats whole cycles of the workload's job mix
until about `--seconds` have passed, after an untimed warm-up.

Job times are scaled to a reference host speed, measured by a fixed
loop timed before every job (see hostspeed.py), because the speed of
the shared machines this runs on drifts by far more than the changes
the benchmark must resolve.  jobs_per_s is the correct jobs over the
sum of the scaled job times; job_p50_ms and job_p90_ms are order
statistics of the scaled times.  The raw wall-time figures are printed
on the summary lines too.

setup_s runs from the start of a workload's process to its first timed
job: the benchmark's own imports, the gkmfaces import, writing the
inputs and computing the expected values.  It is the median over this
process and fresh ones that do only the set-up (`--setup-only`), so
every sample is a cold start, each scaled by the reference loop's speed
timed right after it in the same process.

With `--trace 0` the last line reports the end-to-end metrics.  With
`--trace 1` the same untraced run is followed by one traced cycle (see
tracing.py) and the last line reports the per-layer metrics; the spans and
a per-job breakdown are written under bench/_work/<workload>/.

`--workload all` runs every workload in its own process, one after the
other, and prints each one's summary.  The program is always the one in
src/ next to this directory; the run fails if it is missing.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # workload start: setup_s runs from here to the first timed job

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH), str(ROOT / "tests")]

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

SETUP_REPEATS = 5  # setup_s is the median over this many processes, this one included
CROSS_CHECKS = 5  # corpus commands also run through `python -m gkmfaces.cli`
WARMUP_S = 1.0  # untimed jobs before the timed run

END_TO_END_UNITS = {
    "jobs_per_s": "jobs/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def import_package():
    """Import gkmfaces from SRC, failing if it is not there."""
    sys.path.insert(0, str(SRC))
    import gkmfaces.cli

    location = Path(gkmfaces.cli.__file__).resolve()
    if SRC not in location.parents:
        raise SystemExit(f"gkmfaces was imported from {location}, not from {SRC}")
    return gkmfaces.cli


def setup(workload: str, seed: int, workdir: Path):
    """Import, generate and write the inputs, compute expected values.

    Returns the seconds since this process started, which include the
    benchmark's own imports, then the package and the jobs, scaled to
    the reference host speed.
    """
    cli = import_package()
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    jobs = workloads.build(workload, seed, workdir, Path(cli.__file__).parent / "data")
    seconds = time.perf_counter() - STARTED
    return seconds * hostspeed.speed_factor(), cli, jobs


def fresh_setups(args, count: int) -> list[float]:
    """Set-up times of fresh processes that each do only the set-up."""
    out = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0", "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout))
    return out


def run_job(cli, job) -> tuple[float, bool]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(job.argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:  # an uncaught exception is a failed job, not a crash of the run
        code = None
        err.write(traceback.format_exc())
    elapsed = time.perf_counter() - start
    stdout = out.getvalue()
    try:
        ok = code == job.code and job.check(stdout, err.getvalue())
    except (ValueError, IndexError, KeyError):  # output too malformed to check
        ok = False
    if not ok:
        print(f"FAILED: {job.label}: exit {code}\n{stdout[:400]}{err.getvalue()[-800:]}", file=sys.stderr)
    return elapsed, ok


def run_cycle(cli, jobs, times: list[float], refs: list[tuple[float, float]], tracer: Tracer | None = None) -> int:
    """Run every job once, each after one timing of the reference loop."""
    failed = 0
    for index, job in enumerate(jobs):
        refs.append(hostspeed.reference())
        if tracer is not None:
            tracer.job = index
        elapsed, ok = run_job(cli, job)
        if tracer is not None:
            tracer.end_job()
        times.append(elapsed)
        failed += not ok
    return failed


def warm_up(cli, jobs) -> None:
    start = time.perf_counter()
    for job in jobs:
        run_job(cli, job)
        if time.perf_counter() - start >= WARMUP_S:
            return


def timed_run(cli, jobs, seconds: float) -> tuple[list[float], list[tuple[float, float]], int, float]:
    """Whole cycles, as many as bring the run closest to `seconds`."""
    times: list[float] = []
    refs: list[tuple[float, float]] = []
    failed = cycles = 0
    start = time.perf_counter()
    while True:
        failed += run_cycle(cli, jobs, times, refs)
        cycles += 1
        wall = time.perf_counter() - start
        if wall + wall / cycles / 2 >= seconds:
            return times, refs, failed, wall


def cross_check(cli, workdir: Path) -> tuple[list[float], int]:
    """Subprocess runs must match the in-process bytes and exit codes."""
    jobs = workloads.corpus_jobs(Path(cli.__file__).parent / "data")[::8][:CROSS_CHECKS]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls, mismatches = [], 0
    for job in jobs:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(list(job.argv))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "gkmfaces.cli", *job.argv],
            cwd=workdir, env=env, capture_output=True, timeout=120,
        )
        walls.append(time.perf_counter() - start)
        if proc.returncode != code or proc.stdout != out.getvalue().encode():
            print(f"FAILED: subprocess differs on {job.label}", file=sys.stderr)
            mismatches += 1
    return walls, mismatches


def run_workload(args) -> int:
    if args.setup_only:
        print(setup(args.workload, args.seed, BENCH / "_work" / f"{args.workload}.setup")[0])
        return 0
    workdir = BENCH / "_work" / args.workload
    seconds, cli, jobs = setup(args.workload, args.seed, workdir)
    setups = [seconds, *fresh_setups(args, SETUP_REPEATS - 1)]

    warm_up(cli, jobs)
    times, refs, timed_failed, wall = timed_run(cli, jobs, args.seconds)
    walls, mismatches = cross_check(cli, workdir)
    attempted = len(times) + len(walls)
    failed = timed_failed + mismatches
    scaled = hostspeed.scale(times, refs)
    e2e = {
        "jobs_per_s": (len(times) - timed_failed) / sum(scaled),
        "job_p50_ms": statistics.median(scaled) * 1e3,
        "job_p90_ms": statistics.quantiles(scaled, n=10)[8] * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
    }
    raw = {
        "jobs_per_s": (len(times) - timed_failed) / wall,
        "job_p50_ms": statistics.median(times) * 1e3,
        "job_p90_ms": statistics.quantiles(times, n=10)[8] * 1e3,
    }
    samples = {"jobs_per_s": len(times), "job_p50_ms": len(times), "job_p90_ms": len(times),
               "peak_rss_mb": 1, "setup_s": len(setups)}
    for name, value in e2e.items():
        note = f", raw {raw[name]:.6g}" if name in raw else ""
        print(f"{args.workload} {name} = {value:.6g} {END_TO_END_UNITS[name]} (n={samples[name]}{note})")
    ref_s = statistics.median(s for _, s in refs)
    print(f"{args.workload} host speed = {hostspeed.REFERENCE_S / ref_s:.3g} x reference"
          f" (reference loop median {ref_s * 1e3:.3g} ms)")
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} ratio (n={attempted})")

    metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in e2e.items()}
    if args.trace:
        layer = traced_cycle(cli, jobs, workdir)
        failed += layer.pop("failed")
        attempted += layer.pop("attempted")
        layer["cli.cold_start_ms"] = statistics.median(walls) * 1e3
        layer["trace.overhead_frac"] = 1 - layer.pop("jobs_per_s") / e2e["jobs_per_s"]
        inside, outside = layer.pop("overhead_ns")
        print(f"{args.workload} trace wrapper cost per span, taken off the layer times:"
              f" {inside:.6g} ns inside the span, {outside:.6g} ns in its caller")
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in sorted(layer.items())}
        for name, m in metrics.items():
            print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("bytes_in") or name.endswith("bytes_out"):
        return "bytes"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def traced_cycle(cli, jobs, workdir: Path) -> dict:
    tracer = Tracer()
    tracer.install()
    times: list[float] = []
    refs: list[tuple[float, float]] = []
    try:
        failed = run_cycle(cli, jobs, times, refs, tracer)
    finally:
        tracer.uninstall()
    out = tracer.metrics()
    out["jobs_per_s"] = (len(jobs) - failed) / sum(hostspeed.scale(times, refs))
    expected_errors = sum(job.raises for job in jobs)
    if sum(tracer.errors.values()) != expected_errors:
        print(f"FAILED: traced {sum(tracer.errors.values())} errors, expected {expected_errors}", file=sys.stderr)
        failed += 1
    tracer.write_spans(workdir / "spans.tsv")
    labels = [job.label for job in jobs]
    (workdir / "per_job.json").write_text(json.dumps(tracer.per_job(labels), indent=1, sort_keys=True))
    out.update(failed=failed, attempted=len(jobs), overhead_ns=(tracer.overhead_in_ns, tracer.overhead_out_ns))
    return out


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        *summary, last = proc.stdout.splitlines()
        print("\n".join(summary))
        result = json.loads(last)
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time one set-up, print its seconds")
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
