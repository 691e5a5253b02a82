"""Run one ybnichols benchmark workload and print its metrics.

    python3 perfbench/run.py --workload rack72 --seed 1 --seconds 20 --trace 0

Run from the repository root; the library is imported from ``src/``.  One
process, one thread, jobs run back to back (a closed loop with one client).

With ``--trace 0`` the command reports the end-to-end metrics: the wall
and CPU time of a pass with each job at its fastest over the run (see
``best_pass_time``), the process's peak resident memory, and the median
cold set-up time (import plus input building and validation) over fresh
child processes.  With ``--trace 1`` it
makes a warm-up pass, then alternates traced and untraced passes over the
same inputs and reports the per-layer metrics of ``tracing.layer_metrics``;
the traced spans go to ``perfbench/out/``.  Every job's answer is checked;
if any check fails the command prints no metrics and exits with status 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

# one thread for the bench process and its set-up probes
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

WORKLOADS = ("rack72", "theorem", "growth-q2", "census")
SETUP_PROBES = 5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one cold set-up in a fresh process, timed
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def timed_setup(workload: str, seed: int):
    """Import the library and build the first pass's inputs, timed together."""
    start = time.perf_counter()
    import ybnichols  # noqa: F401  (the import is part of the measured set-up)
    import workloads

    jobs = workloads.prepare(workload, seed, 0)
    return time.perf_counter() - start, jobs


def probe_setups(workload: str, seed: int) -> list:
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--seconds", "1"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


@dataclass
class PassResult:
    wall: float
    cpu: float
    jobs: int
    failures: list = field(default_factory=list)
    job_walls: list = field(default_factory=list)  # per job, in job order
    job_cpus: list = field(default_factory=list)


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def run_pass(jobs, tracer=None) -> PassResult:
    """Run every job and check its answer; a raising job counts as failed."""
    gc.collect()
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    failures, job_walls, job_cpus = [], [], []
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        job_start, job_cpu0 = time.perf_counter(), time.process_time()
        try:
            problems = job.check(job.run())
        except Exception as exc:  # any raising job is a failed job, not a crash
            problems = [f"raised {type(exc).__name__}: {exc}"]
        job_walls.append(time.perf_counter() - job_start)
        job_cpus.append(time.process_time() - job_cpu0)
        if problems:
            failures.append({"job": job.label, "problems": problems})
    return PassResult(
        time.perf_counter() - start, _cpu_seconds() - cpu0, len(jobs), failures,
        job_walls, job_cpus,
    )


def best_pass_time(per_job: list) -> float:
    """Sum over job positions of the fastest time any pass took for that job.

    Other tenants of a shared host only ever slow a job down, and they come
    and go within seconds, so a job's fastest time over the run's passes is
    far steadier than a pass median.  Pass ``i`` runs on its own seeded
    inputs, so this is the time of one pass in which every job ran at its
    best, each on whichever of the run's inputs that was."""
    return sum(min(times) for times in zip(*per_job, strict=True))


def end_to_end_metrics(passes, setup_samples, peak_rss_mb: float) -> dict:
    return {
        "wall_s": best_pass_time([p.job_walls for p in passes]),
        "cpu_s": best_pass_time([p.job_cpus for p in passes]),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_samples),
    }


def environment(args) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
            )
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def declared_metrics(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def measure(args, jobs) -> tuple:
    """Untraced passes, each on a fresh seeded variant, until time is up."""
    import workloads

    passes = []
    start = time.perf_counter()
    variant = 0
    while True:
        passes.append(run_pass(jobs))
        if passes[-1].failures or time.perf_counter() - start >= args.seconds:
            break
        variant += 1
        jobs = workloads.prepare(args.workload, args.seed, variant)
    return passes, {}


def measure_traced(args, jobs) -> tuple:
    """A warm-up pass, then pairs of a traced and an untraced pass, all on
    the seed's first variant.  The first pass of a process can run slower
    than later ones, so it is not the untraced reference for the overhead."""
    import tracing
    import workloads

    passes = [run_pass(jobs)]
    layer_runs, spans = [], None
    start = time.perf_counter()
    while not passes[-1].failures:
        tracer = tracing.Tracer()
        with tracer.installed():
            tracer.job = tracing.SETUP_JOB
            jobs = workloads.prepare(args.workload, args.seed, 0)
            traced = run_pass(jobs, tracer)
        passes.append(traced)
        if traced.failures:
            break
        untraced = run_pass(workloads.prepare(args.workload, args.seed, 0))
        passes.append(untraced)
        layer_runs.append(tracing.layer_metrics(tracer, traced.wall, untraced.wall))
        if spans is None:
            spans = tracer.spans
        if time.perf_counter() - start >= args.seconds:
            break
    # median_low keeps each value one that was measured, and counts whole
    per_layer = {
        name: statistics.median_low(run[name] for run in layer_runs) for name in layer_runs[0]
    } if layer_runs else {}
    return passes, {"per_layer": per_layer, "spans": spans}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ybnichols" / "__init__.py").is_file():
        print(f"error: no ybnichols sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        elapsed, _ = timed_setup(args.workload, args.seed)
        print(json.dumps({"setup_s": elapsed}))
        return 0

    setup_samples = probe_setups(args.workload, args.seed)
    first_setup, jobs = timed_setup(args.workload, args.seed)
    record = environment(args)
    passes, traced = (measure_traced if args.trace else measure)(args, jobs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # in a traced run the untraced passes are the even ones
    end_to_end = end_to_end_metrics(
        passes[0::2] if args.trace else passes, setup_samples, peak_rss_mb
    )
    attempted = sum(p.jobs for p in passes)
    failures = [f for p in passes for f in p.failures]
    record.update(
        passes=len(passes),
        pass_wall_s=[p.wall for p in passes],
        pass_cpu_s=[p.cpu for p in passes],
        jobs_per_pass=passes[0].jobs,
        setup_samples_s=setup_samples,
        in_process_setup_s=first_setup,
        end_to_end=end_to_end,
        per_layer=traced.get("per_layer"),
        failures=failures,
    )

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(stem.with_suffix(".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if traced.get("spans") is not None:
        with open(f"{stem}-spans.jsonl", "w") as fh:
            for name, start, end, parent, job in traced["spans"]:
                fh.write(json.dumps([name, start, end, parent, job]) + "\n")

    if failures:
        for failure in failures:
            print(f"FAILED {failure['job']}: {'; '.join(failure['problems'])}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": len(failures), "metrics": {}}))
        return 1

    values = traced["per_layer"] if args.trace else end_to_end
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in declared_metrics(kind).items()
    }
    print(json.dumps({key: record[key] for key in (
        "workload", "seed", "nproc", "cpu_model", "python", "numpy", "commit",
        "passes", "jobs_per_pass")}))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
