"""tierlang benchmark: one workload per invocation, one closed-loop client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload check --seed 1 --seconds 20 --trace 0

Workloads: ``check``, ``run``, ``diverge``, ``explore`` (see README.md).
The job list of a workload is fixed by ``--seed``.  A pass runs every
job once, back to back, in this process; after a short untimed warm-up,
passes are timed until ``--seconds`` have gone by.  Every job's answer
is checked against its known answer in every pass, and every pass must
give the same answers and output bytes as the first.  Times are
reported at a reference speed, measured by a fixed loop run before each
job (see ``reference_loop`` and README.md), so that a machine whose
speed drifts gives steady figures.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run (spans also go to ``perfbench/out/``).  Lines before it,
starting with ``#``, say how the figures were taken.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("check", "run", "diverge", "explore")
SETUP_REPEATS = 11
MIN_TIMED_PASSES = 2
TAIL_BEYOND = 10  # the tail percentile keeps at least this many jobs above it
# Times are reported at a reference speed: each is multiplied by
# REFERENCE_LOOP_S over the time ``reference_loop`` takes at that moment.
# REFERENCE_LOOP_S is the loop's time on the machine the benchmark was
# built on (2-vCPU VM, Python 3.11) at rest, where the two agree.
REFERENCE_LOOP_ITERATIONS = 3000
REFERENCE_LOOP_S = 0.001


class BenchError(Exception):
    """The benchmark could not run; it prints no result."""


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_benchmark():
    """Import tierlang from this checkout's ``src/`` and the job lists."""
    src = ROOT / "src"
    if not (src / "tierlang" / "__init__.py").is_file():
        raise BenchError(f"no tierlang sources under {src}")
    sys.path.insert(0, str(src))
    import tierlang

    if Path(tierlang.__file__).resolve().parent != src / "tierlang":
        raise BenchError(f"imported tierlang from {tierlang.__file__}, not from {src}")
    import tracing
    import workloads

    return workloads, tracing


def prepare(workloads, name: str, seed: int, workdir: Path):
    workload = workloads.JOB_LISTS[name](seed, workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    for path, text in workload.files.items():
        Path(path).write_text(text)
    return workload


def setup_probe(args: argparse.Namespace) -> int:
    """Child process: get a workload ready, say so, clean up."""
    workdir = OUT / f"setup-{args.workload}-{os.getpid()}"
    try:
        workloads, _ = import_benchmark()
        prepare(workloads, args.workload, args.seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def measure_setup(args: argparse.Namespace, repeats: int) -> list[tuple[float, float]]:
    """Seconds from starting a fresh interpreter until the workload is
    ready to run: interpreter start, ``import tierlang`` (with numpy),
    fixture loading and input generation.  Returns (measured, at
    reference speed) per repeat; reference loops run just before and
    just after each probe."""
    argv = [sys.executable, str(HERE / "run.py"), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(repeats):
        loops = [reference_loop() for _ in range(5)]
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            try:
                _, err = proc.communicate(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise BenchError("set-up probe did not exit") from None
        if proc.returncode != 0 or line.strip() != b"ready":
            raise BenchError(f"set-up probe failed: {err.decode(errors='replace').strip()}")
        loops += [reference_loop() for _ in range(5)]
        times.append((elapsed, elapsed * speed_factor(loops)))
    return times


def reference_loop() -> float:
    """Seconds for a fixed piece of pure-Python work (dict lookups, small
    tuples, ``str`` and integer arithmetic, as the interpreter runs them
    in tierlang).  The collector is off, so the program's heap cannot
    change the loop's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table: dict = {}
        total = 0
        for i in range(REFERENCE_LOOP_ITERATIONS):
            key = (i % 97, i & 7)
            table[key] = table.get(key, 0) + i
            total += len(str(i)) * (i % 5)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_factor(loops: list[float]) -> float:
    """Reference speed over the machine's speed of the moment, from
    reference-loop times taken at that moment."""
    return REFERENCE_LOOP_S / statistics.median(loops)


def run_pass(jobs, tracer=None) -> tuple[float, float, list[tuple[float, object, str | None]]]:
    """Run every job once, each after one reference loop; returns the
    wall time, the pass's speed factor and (seconds, outcome, exception)
    per job.  Oracles run afterwards, outside the timing."""
    gc.collect()
    results, loops = [], []
    begin = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        loops.append(reference_loop())
        start = time.perf_counter()
        try:
            outcome, error = job.call(), None
        except Exception as exc:  # a job that raises is a failed job, not a crash
            outcome, error = None, f"{type(exc).__name__}: {str(exc)[:120]}"
        results.append((time.perf_counter() - start, outcome, error))
    return time.perf_counter() - begin, speed_factor(loops), results


def judge(jobs, results) -> tuple[str, list[str], list[str]]:
    """Fingerprint of a pass, the jobs that raised, the jobs that answered wrong."""
    digest = hashlib.sha256()
    raised, wrong = [], []
    for job, (_, outcome, error) in zip(jobs, results):
        if error is not None:
            raised.append(f"{job.name}: {error}")
            digest.update(f"{job.name} raised {error.split(':')[0]}\n".encode())
            continue
        problem = job.check(outcome)
        if problem is not None:
            wrong.append(f"{job.name}: {problem}")
        digest.update(f"{job.name} {problem is None} {outcome.fingerprint()}\n".encode())
    return digest.hexdigest(), raised, wrong


def tail_rank(n: int) -> tuple[int, int]:
    """The highest whole percentile with at least ``TAIL_BEYOND`` of ``n``
    jobs above it, and the 0-based rank that reads it (nearest rank)."""
    if n <= TAIL_BEYOND:
        return 0, 0
    pct = math.floor(100 * (n - TAIL_BEYOND) / n)
    while pct > 0 and n - math.ceil(pct * n / 100) < TAIL_BEYOND:
        pct -= 1
    return pct, max(math.ceil(pct * n / 100) - 1, 0)


def seed_problems(workloads, name: str, seed: int, workdir: Path) -> list[str]:
    """The seed must reach the inputs: every job marked ``seeded`` (the
    generated check programs, the NI store-pair seeds, generated words)
    must get another input under another seed."""
    ours = {job.name: job.spec for job in workloads.JOB_LISTS[name](seed, workdir).jobs
            if job.seeded}
    theirs = {job.name: job.spec for job in workloads.JOB_LISTS[name](seed + 1, workdir).jobs
              if job.seeded}
    if not ours:
        return ["no seeded jobs"]
    return [f"{job} has the same input under seeds {seed} and {seed + 1}"
            for job, spec in ours.items() if theirs.get(job) == spec]


class Bench:
    """One invocation: the job list, its passes, and what they showed."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.reference: str | None = None
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.raised: list[str] = []
        self.unstable = False

    def run(self, tracer=None, jobs=None) -> tuple[float, float, list[float]]:
        """One pass: its measured wall time, its speed factor, and each
        job's time at reference speed."""
        jobs = self.jobs if jobs is None else jobs
        wall, factor, results = run_pass(jobs, tracer)
        digest, raised, wrong = judge(jobs, results)
        if jobs is self.jobs:
            if self.reference is None:
                self.reference, self.raised = digest, raised
            elif digest != self.reference:
                self.unstable = True
        self.attempted += len(jobs)
        self.failed += len(raised) + len(wrong)
        self.wrong += wrong
        return wall, factor, [seconds * factor for seconds, _, _ in results]


def warm_up(jobs) -> None:
    """Run the first job of each kind once, untimed and unjudged, so lazy
    imports and first-call costs (numpy's polyfit, say) stay out of the
    timed passes."""
    kinds = {}
    for job in jobs:
        kinds.setdefault(job.name.split("/")[0], job)
    run_pass(list(kinds.values()))


def per_job_medians(passes: list[list[float]]) -> list[float]:
    """Each job's median time over the passes, sorted."""
    return sorted(statistics.median(times) for times in zip(*passes))


def end_to_end(bench: Bench, args) -> dict:
    begin = time.perf_counter()
    warm_up(bench.jobs)
    walls, factors, passes = [], [], []
    # Set-up probes run between passes, so their median samples the
    # machine over the whole run rather than one moment of it.
    setup_times = measure_setup(args, 1)
    while len(walls) < MIN_TIMED_PASSES or time.perf_counter() - begin < args.seconds:
        wall, factor, seconds = bench.run()
        walls.append(wall)
        factors.append(factor)
        passes.append(seconds)
        if len(setup_times) < SETUP_REPEATS:
            setup_times += measure_setup(args, 1)
    setup_times += measure_setup(args, SETUP_REPEATS - len(setup_times))
    per_job = per_job_medians(passes)
    measured = per_job_medians([[t / f for t in seconds] for f, seconds in zip(factors, passes)])
    pct, rank = tail_rank(len(per_job))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    per_pass_failed = bench.failed / len(walls)
    print(f"# timed passes: {len(walls)}, {len(bench.jobs)} jobs per pass")
    print(f"# wall_s is the sum of per-job median times; job_ms_tail is p{pct} of "
          f"{len(per_job)} per-job medians ({len(per_job) - rank - 1} jobs above it)")
    print(f"# times are at reference speed; speed factor per pass: "
          f"{', '.join(f'{f:.3f}' for f in factors)}")
    print(f"# as measured: wall_s {sum(measured):.4f}, job_ms_p50 "
          f"{1000 * statistics.median(measured):.4f}, job_ms_tail {1000 * measured[rank]:.4f}, "
          f"setup_s {statistics.median(t for t, _ in setup_times):.4f}")
    print(f"# setup_s samples at reference speed: "
          f"{', '.join(f'{t:.4f}' for _, t in setup_times)}")
    print(f"# measured wall time per pass: {', '.join(f'{w:.4f}' for w in walls)}")
    print(f"# fail_ratio {bench.failed / bench.attempted:.4f} "
          f"({per_pass_failed:g} of {len(bench.jobs)} jobs per pass)")
    unit = {"setup_s": "s", "wall_s": "s", "job_ms_p50": "ms", "job_ms_tail": "ms",
            "ok_ratio": "1", "peak_rss_mb": "MB"}
    values = {
        "setup_s": statistics.median(t for _, t in setup_times),
        "wall_s": sum(per_job),
        "job_ms_p50": 1000 * statistics.median(per_job),
        "job_ms_tail": 1000 * per_job[rank],
        "ok_ratio": 1 - bench.failed / bench.attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: {"value": value, "unit": unit[name]} for name, value in values.items()}


PER_LAYER_UNITS = {"self_s": "s", "calls": "count", "bytes_per_s": "B/s", "ast_nodes": "count",
                   "ms_per_check": "ms", "steps": "count", "steps_per_s": "1/s",
                   "sched_steps": "count", "sched_steps_per_s": "1/s", "fuel_steps": "count",
                   "useful_step_ratio": "1", "states": "count", "states_per_s": "1/s",
                   "new_state_ratio": "1", "stuck_states": "count", "trials": "count",
                   "edges": "count", "compiled_nodes": "count", "verify_steps": "count",
                   "src_lines": "count", "overhead_s": "s", "parse_ms": "ms", "check_ms": "ms",
                   "infer_ms": "ms"}


def per_layer(bench: Bench, args, workloads, tracing) -> dict:
    probes = workloads.probe_jobs()
    tm_jobs = {job.name for job in bench.jobs + probes if job.tag == "tm"}
    tracer = tracing.Tracer()
    begin = time.perf_counter()
    warm_up(bench.jobs + probes)
    plain, traced, rows = [], [], []
    while not traced or time.perf_counter() - begin < args.seconds:
        plain.append(bench.run()[2])
        first, calls_before = len(tracer.spans), tracer.step_calls
        with tracer.installed():
            traced.append(bench.run(tracer)[2])
            bench.run(tracer, probes)
        tracer.finish(first)
        row = tracing.layer_metrics(tracer.spans, first, tracer.step_calls - calls_before, tm_jobs)
        row.update(tracing.probe_metrics(tracer.spans[first:]))
        rows.append(row)
        for span in tracer.spans[first:]:
            span.result = None  # the figures are taken; let the reports go
    counts = [k for k in rows[0] if PER_LAYER_UNITS[k.rsplit(".", 1)[1]] == "count"]
    if any(row[k] != rows[0][k] for row in rows for k in counts):
        bench.unstable = True  # exact counts must repeat in every traced pass
    values = tracing.medians(rows)
    values["repo.src_lines"] = tracing.src_lines(ROOT)
    plain_s, traced_s = sum(per_job_medians(plain)), sum(per_job_medians(traced))
    values["trace.overhead_s"] = traced_s - plain_s
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps([span.to_dict() for span in tracer.spans]))
    print(f"# {len(traced)} traced and {len(plain)} untraced passes; "
          f"wall_s untraced {plain_s:.4f}, traced {traced_s:.4f}")
    print(f"# {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    return {name: {"value": value, "unit": PER_LAYER_UNITS[name.rsplit(".", 1)[1]]}
            for name, value in sorted(values.items())}


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    workloads, tracing = import_benchmark()
    workdir = OUT / f"work-{args.workload}-{time.time_ns()}"
    try:
        workload = prepare(workloads, args.workload, args.seed, workdir)
        seed_issues = seed_problems(workloads, args.workload, args.seed, workdir)
        bench = Bench(workload.jobs)
        if args.trace:
            metrics = per_layer(bench, args, workloads, tracing)
        else:
            metrics = end_to_end(bench, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"# workload {args.workload}, seed {args.seed}: fingerprint {bench.reference}")
    for line in bench.raised:
        print(f"# raised: {line}")
    for line in sorted(set(bench.wrong)) + seed_issues:
        print(f"# WRONG: {line}")
    if bench.unstable:
        print("# WRONG: a pass gave other answers or output bytes than the first pass")
    correct = not bench.wrong and not seed_issues and not bench.unstable
    print(json.dumps({"correct": correct, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        sys.exit(1)
