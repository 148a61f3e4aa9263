"""Run one provergames benchmark workload and print its metrics.

    python3 bench/run.py --workload gap-scan --seed 1 --seconds 15 --trace 0

Runs from any directory; the engine is imported from `src/` next to this
directory. The load is a closed loop: one process, one client, one job at a
time, no threads. Inputs come from the seed alone (see `workloads.py`).

With `--trace 0` the run runs jobs block by block until `--seconds` of job
time at the reference speed have passed and the current block is done, and
sets the workload up several times spread over the run, reporting the median
as `setup_s`. Set-up and job times are measured at a reference host speed
(`HostSpeed`), so that the swings of a shared host's speed cancel; the
wall-clock figures are printed in the summary lines. Each job's output is
checked as the job ends, with the clock stopped: exact seed-independent checks, and
for the default seed the report digests recorded in `digests.json`. The last
line of standard output is one JSON object: correct, attempted, failed and
the end-to-end metrics. `error_rate` (failed / attempted) is printed in the
summary lines above it; it is 0 on a correct run, so it travels as
`attempted` and `failed`.

With `--trace 1` the run builds the input set twice, untraced, and executes a
fixed job list from each, job by job alternately untraced and under the layer
tracer (`layertrace.py`), and reports the per-layer metrics. The two passes
must give identical report digests, and the trace must pass its completeness
self-check. Spans are written to `.bench_trace/` in the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_REPEATS = 5
PROBE_TERMS = 100  # the reference loop: about 0.5 ms on an unloaded core
REF_PROBE_S = 0.0005  # the reference speed: the loop takes exactly this long
TICK_S = 0.01  # wall time between two timings of the loop inside a job
WALL_LIMIT = 4  # a run stops after this many times --seconds of wall job time


def _machine() -> str:
    cpu = platform.processor() or "unknown CPU"
    try:
        with open("/proc/cpuinfo") as fp:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fp if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    src = os.path.join(ROOT, "src", "provergames")
    lines = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fp:
                lines += sum(1 for _ in fp)
    return (
        f"Python {platform.python_version()}, nproc {os.cpu_count()}, {cpu}; "
        f"src/provergames {lines} lines"
    )


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _probe() -> float:
    """Seconds a fixed reference loop takes: the engine's kind of work, small
    exact fractions summed into a dict keyed by tuples, without the engine."""
    start = time.perf_counter()
    mass = {}
    for i in range(PROBE_TERMS):
        h = (i % 3, i % 5)
        mass[h] = mass.get(h, 0) + Fraction(1, 1 + i % 4) * Fraction(1 + i % 3, 4)
    return time.perf_counter() - start


class HostSpeed:
    """Times work at the reference speed instead of the host's current speed.

    The host's speed swings by up to about 2x within fractions of a second
    as its other tenants come and go, and CPU time swings with wall time, so
    a wall-clock figure measures the neighbours as much as the engine.
    `timed` therefore times `_probe` right before and right after the work
    and, from a SIGALRM timer, every TICK_S while it runs, and reports the
    work's wall time less the probes inside it, scaled by REF_PROBE_S over
    the probes' mean: the time the work would take on a host where the loop
    takes REF_PROBE_S, about this benchmark's machine when unloaded. The
    engine and the loop both spend their time in Fraction and dict work, so
    they slow down alike.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []

    def _tick(self, signum, frame) -> None:
        self.probes.append(_probe())

    def timed(self, fn) -> tuple[bool, object, float, float]:
        """Run fn(): (ok, result or exception, reference seconds, wall seconds)."""
        first = len(self.probes)
        self.probes.append(_probe())
        handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        start = time.perf_counter()
        try:
            result, ok = fn(), True
        except Exception as exc:  # a failing job is counted, not fatal
            result, ok = exc, False
        finally:
            wall = time.perf_counter() - start
            inside = sum(self.probes[first + 1 :])
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, handler)
        self.probes.append(_probe())
        probes = self.probes[first:]
        return ok, result, (wall - inside) * REF_PROBE_S * len(probes) / sum(probes), wall


def _run_job(job, tracer=None) -> tuple[bool, object, float]:
    """Run one job once: (ok, result or exception, seconds)."""
    if tracer is not None:
        tracer.job = job.key
    start = time.perf_counter()
    try:
        result, ok = job.run(), True
    except Exception as exc:  # a failing job is counted, not fatal
        result, ok = exc, False
    return ok, result, time.perf_counter() - start


class Checker:
    """Checks each job's output as the job finishes; keeps only its digest.

    The first time a key is seen its report is checked exactly (and against
    the recorded digest, if any); on later repeats it must give the same
    report. A job counts as failed if its key has failed so far.
    """

    def __init__(self, recorded: dict | None) -> None:
        self.recorded = recorded
        self.first: dict[str, str] = {}
        self.bad_keys: set[str] = set()
        self.problems: list[str] = []
        self.failed = 0

    def __call__(self, job, ok: bool, result) -> str:
        """Check one finished job; returns its report digest, "" if it has none."""
        digest = ""
        found: list[str] = []
        if not ok:
            found.append(f"raised {type(result).__name__}: {result}")
        else:
            try:
                digest = _digest(job.report(result))
            except Exception as exc:
                found.append(f"report raised {type(exc).__name__}: {exc}")
        if digest and job.key in self.first:
            if self.first[job.key] != digest:
                found.append("report differs between repeats")
        elif digest:
            self.first[job.key] = digest
            try:
                found += job.check(result)
            except Exception as exc:
                found.append(f"check raised {type(exc).__name__}: {exc}")
            if self.recorded is not None and self.recorded.get(job.key) != digest:
                found.append("report digest differs from the recorded one")
        if found:
            self.bad_keys.add(job.key)
            self.problems.extend(f"{job.key}: {p}" for p in found)
        self.failed += job.key in self.bad_keys
        return digest


def _recorded_digests(workload: str, seed: int) -> dict | None:
    from workloads import DEFAULT_SEED

    if seed != DEFAULT_SEED:
        return None
    with open(os.path.join(BENCH_DIR, "digests.json")) as fp:
        return json.load(fp)[workload]


def _measure(workload, seed: int, seconds: float, workdir: str, check: Checker, speed: HostSpeed):
    """Run the closed loop and time SETUP_REPEATS set-ups spread over it.

    The loop runs the head jobs, then whole blocks until `seconds` of job
    time at the reference speed have passed (see `HostSpeed`), so a run
    does the same jobs however fast the host happens to be, unless a very
    slow host makes the jobs take WALL_LIMIT times `seconds` of wall time
    first. The clock runs only inside jobs: each output is checked
    as its job ends, and only its digest is kept, so neither the checks nor
    the results of earlier jobs weigh on the figures.

    The machine's speed drifts over tens of seconds, so set-ups timed back to
    back would all sample the same few seconds of it. Instead the input set
    is built again, timed, each time another 1/SETUP_REPEATS of `seconds`
    has passed, and the loop goes on with the next block of the new set. It
    is also built again, untimed, when every block has run. Either way the
    old set is dropped first, so at most one set is alive, and no job meets
    a tree whose per-tree caches an earlier job filled. Every build writes
    its input files to the same paths: after the first, a build overwrites
    files instead of creating them, because creating a file after many were
    deleted can cost a millisecond each on ext4 and drifts from run to run.

    Returns (set-up seconds per repeat, (job seconds, wall seconds) per job,
    passes).
    """
    setup_times: list[float] = []

    def build(timed: bool):
        if not timed:
            return workload.setup(seed, workdir)
        ok, inputs, t, _ = speed.timed(lambda: workload.setup(seed, workdir))
        if not ok:
            raise inputs
        setup_times.append(t)
        return inputs

    inputs = build(timed=True)
    timings: list[tuple[float, float]] = []
    job_s = wall_s = 0.0
    head = list(inputs.head)
    b = passes = 0
    while True:
        for job in head + inputs.blocks[b]:
            ok, result, t, wall = speed.timed(job.run)
            timings.append((t, wall))
            job_s += t
            wall_s += wall
            check(job, ok, result)
            result = None  # no result outlives its check
        head = []
        b += 1
        if job_s >= seconds or wall_s >= WALL_LIMIT * seconds:
            break
        due = len(setup_times) < SETUP_REPEATS and (
            job_s >= len(setup_times) * seconds / SETUP_REPEATS
        )
        if b == len(inputs.blocks):
            b, passes = 0, passes + 1
        elif not due:
            continue
        inputs = None
        inputs = build(timed=due)
    inputs = None
    while len(setup_times) < SETUP_REPEATS:
        build(timed=True)
    return setup_times, timings, passes + (b > 0)


def _untraced_run(workload, seed: int, seconds: float, workdir: str, speed: HostSpeed):
    check = Checker(_recorded_digests(workload.name, seed))
    setup_times, timings, passes = _measure(workload, seed, seconds, workdir, check, speed)
    n, failed = len(timings), check.failed
    latencies = sorted(t for t, _ in timings)
    wall = sorted(w for _, w in timings)
    metrics = {
        "jobs_per_s": (n / sum(latencies), "jobs/s"),
        "job_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "job_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1000, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"closed loop, one job at a time: {n} jobs in {sum(latencies):.2f} s of job time "
        f"at the reference speed ({sum(wall):.2f} s wall), "
        f"{passes} pass(es) over the input set; p90 has {n - int(0.9 * n)} samples beyond it",
        f"times are at the reference speed; the reference loop took "
        f"{statistics.median(speed.probes) * 1000:.3f} ms at the median against "
        f"{REF_PROBE_S * 1000:.3f} ms at the reference speed, over {len(speed.probes)} timings",
        f"wall clock: {n / sum(wall):.4f} jobs/s, p50 "
        f"{statistics.median(wall) * 1000:.3f} ms, p90 "
        f"{statistics.quantiles(wall, n=10)[8] * 1000:.3f} ms",
        f"setup_s is the median of {SETUP_REPEATS} set-ups spread over the run: "
        + ", ".join(f"{t:.3f}" for t in setup_times),
        f"error_rate {failed / n:.4f} share ({failed} of {n} jobs failed)",
    ]
    return n, failed, check.problems, metrics, notes


def _traced_run(workload, seed: int, workdir: str):
    from layertrace import Tracer

    def job_list(inputs):
        blocks = inputs.blocks[: workload.trace_blocks]
        return inputs.head + [job for block in blocks for job in block]

    # Two input sets from the same seed, both built untraced, so neither pass
    # finds the other's per-tree caches filled and the trace sees only the
    # jobs. Jobs alternate between the passes, so machine speed drifts alike
    # for both and the overhead ratio is not skewed.
    plain_jobs = job_list(workload.setup(seed, os.path.join(workdir, "plain")))
    traced_jobs = job_list(workload.setup(seed, os.path.join(workdir, "traced")))
    recorded = _recorded_digests(workload.name, seed)
    check_plain, check_traced = Checker(recorded), Checker(recorded)
    tracer = Tracer()
    plain_s = traced_s = 0.0
    digests_plain, digests_traced = [], []
    for plain_job, traced_job in zip(plain_jobs, traced_jobs):
        ok, result, t = _run_job(plain_job)
        plain_s += t
        digests_plain.append(check_plain(plain_job, ok, result))
        tracer.install()
        try:
            ok, result, t = _run_job(traced_job, tracer)
        finally:
            tracer.uninstall()
        traced_s += t
        digests_traced.append(check_traced(traced_job, ok, result))

    problems = check_plain.problems + check_traced.problems
    if digests_plain != digests_traced:
        problems.append("traced and untraced runs gave different report digests")
    metrics = tracer.layer_metrics(traced_s / plain_s)
    is_sse_calls = metrics["equilibrium.is_sse.calls"][0]
    splice_calls = metrics["gaps.splice.calls"][0]
    if workload.name == "sse-enum":
        expected = sum(job.profiles for job in traced_jobs)
        if is_sse_calls != expected:
            problems.append(f"trace saw {is_sse_calls} is_sse calls, expected {expected}")
        if splice_calls:
            problems.append(f"trace saw {splice_calls} splice calls on sse-enum")
    if workload.name == "gap-scan" and is_sse_calls:
        problems.append(f"trace saw {is_sse_calls} is_sse calls on gap-scan")

    trace_dir = os.path.join(ROOT, ".bench_trace")
    os.makedirs(trace_dir, exist_ok=True)
    spans_path = os.path.join(trace_dir, f"{workload.name}-seed{seed}.tsv")
    tracer.write_spans(spans_path)
    n = len(plain_jobs) + len(traced_jobs)
    failed = check_plain.failed + check_traced.failed
    notes = [
        f"{len(traced_jobs)} jobs per pass, alternating; untraced {plain_s:.2f} s, "
        f"traced {traced_s:.2f} s",
        f"{len(tracer.spans)} spans written to {os.path.relpath(spans_path, ROOT)}",
        f"error_rate {failed / n:.4f} share",
    ]
    return n, failed, problems, metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    speed = HostSpeed()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # Timed: import is part of set-up.
    ok, imported, import_s, _ = speed.timed(
        lambda: (importlib.import_module("provergames"), importlib.import_module("workloads"))
    )
    if not ok:
        print(f"error: cannot import the engine from {ROOT}/src: {imported}", file=sys.stderr)
        return 2
    provergames, workloads = imported
    if not os.path.abspath(provergames.__file__).startswith(os.path.join(ROOT, "src", "")):
        print(f"error: provergames imported from {provergames.__file__}, not {ROOT}/src", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        declared = json.load(fp)
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    seconds = declared["run_seconds"] if args.seconds is None else args.seconds
    why = next(w["why"] for w in declared["workloads"] if w["name"] == args.workload)
    workload = workloads.WORKLOADS[args.workload]

    workdir = os.path.join(ROOT, ".bench_work", str(os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        if args.trace:
            n, failed, problems, metrics, notes = _traced_run(workload, seed, workdir)
            names = [m["name"] for m in declared["per_layer"]]
        else:
            n, failed, problems, metrics, notes = _untraced_run(
                workload, seed, seconds, workdir, speed
            )
            value, unit = metrics["setup_s"]
            metrics["setup_s"] = (value + import_s, unit)
            notes.append(f"setup_s includes {import_s:.3f} s of import")
            names = [m["name"] for m in declared["end_to_end"]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))  # only if no other run is using it

    if sorted(names) != sorted(metrics):
        print(
            "error: metrics differ from BENCHMARK.json: "
            f"{sorted(set(names) ^ set(metrics))}",
            file=sys.stderr,
        )
        return 2
    print(f"workload {workload.name}, seed {seed}, trace {args.trace}: {why}")
    print(f"machine: {_machine()}")
    for note in notes:
        print(note)
    for problem in problems[:50]:
        print(f"problem: {problem}")
    for name in names:
        value, unit = metrics[name]
        print(f"{name} {value} {unit}")
    correct = failed == 0 and not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": n,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name][0], "unit": metrics[name][1]}
                    for name in names
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
