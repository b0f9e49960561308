"""envcover benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload fixture --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nowhere else. The last line of standard output is the
result, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones from wrapped module calls, plus
the tracing overhead. The line before it is a record of the run: machine,
seed, sample counts and percentiles, the workload's named metrics,
failures.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 7
MIN_ITERATIONS = 2

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import envcover.pipeline; print(time.perf_counter() - t)"
)


def import_envcover() -> None:
    """Import envcover from this checkout's src/, or raise ImportError."""
    sys.path.insert(0, str(SRC))
    import envcover

    where = Path(envcover.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"envcover was imported from {where}, not from {SRC}")


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing envcover.pipeline."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout.strip())


def machine_record(seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def summary(samples: list[float]) -> dict:
    """Median, plus the highest of p90/p99 with at least ten samples beyond it."""
    out = {"n": len(samples), "median": statistics.median(samples)}
    for p in (99, 90):
        if len(samples) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(samples, n=100)[p - 1]
            break
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    import pace
    import tracing
    import workloads

    workload = workloads.WORKLOADS[workload_name]()
    work = OUT / f"work-{os.getpid()}"
    ctx = workloads.Context(ROOT, work, seed)
    ctx.pace = pace.Pace()
    tracer = tracing.Tracer() if trace else None
    try:
        for r in range(SETUP_REPS):
            # the timer is off while the import probe's child process runs,
            # so no reference competes with it
            ctx.pace.stop()
            first = len(ctx.pace.refs)
            ctx.pace.record(("setup", r), import_seconds(), first)
            ctx.pace.start()
            ctx.pace.call(("setup", r), workload.setup, ctx)
        if trace:
            # no reference inside a span: they are taken between iterations
            ctx.pace.stop()

        traced_iterations = set()
        i = 0
        deadline = time.perf_counter() + seconds
        while i < MIN_ITERATIONS or time.perf_counter() < deadline:
            traced = tracer is not None and i % 2 == 1
            ctx.iteration = i
            if trace:
                ctx.pace.reference_now()
            if traced:
                tracer.group = f"it{i}"
                traced_iterations.add(i)
                tracer.install()
                ctx.tracer = tracer
            try:
                workload.iteration(ctx, i)
            finally:
                if traced:
                    tracer.uninstall()
                    ctx.tracer = None
            i += 1
    finally:
        ctx.pace.stop()
        shutil.rmtree(work, ignore_errors=True)

    iter_times = [0.0] * i
    steps: list[list[float]] = [[], [], []]
    steps_wall: list[list[float]] = [[], [], []]
    setup = [0.0] * SETUP_REPS
    setup_wall = [0.0] * SETUP_REPS
    for (kind, it, *step), rescaled, wall in ctx.pace.samples():
        if kind == "setup":
            setup[it] += rescaled
            setup_wall[it] += wall
            continue
        iter_times[it] += rescaled
        if it not in traced_iterations:
            steps[step[0]].append(rescaled)
            steps_wall[step[0]].append(wall)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    completed = ctx.attempted - ctx.failed
    measured = sum(sum(s) for s in steps)
    record = {
        "benchmark": "envcover",
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_record(seed),
        "closed_loop": {"clients": 1, "jobs": 1, "iterations": i},
        "pace": {"ref_s": pace.REF_S, "refs": len(ctx.pace.refs), **summary(ctx.pace.refs)},
        "setup_s": {"samples": setup, "wall": setup_wall},
        "steps": {
            f"step{k + 1}_s": {
                "what": workload.steps[k],
                **summary(steps[k]),
                "wall": summary(steps_wall[k]),
            }
            for k in range(3)
        },
        "ops": {"unit": workload.op_unit, "completed": completed},
        "fail_ratio": ctx.failed / ctx.attempted,
        "failures": ctx.failures[:20],
        "check_failures": ctx.check_failures[:20],
    }
    if trace:
        layers = tracer.layer_metrics([f"it{it}" for it in sorted(traced_iterations)])
        layers["trajectories.peak_alloc_mb"] = tracer.trajectories_peak_alloc_mb()
        plain = statistics.median(t for it, t in enumerate(iter_times) if it not in traced_iterations)
        traced_median = statistics.median(iter_times[it] for it in traced_iterations)
        layers["trace.overhead_pct"] = 100 * (traced_median - plain) / plain
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{workload_name}.json"
        tracer.dump(spans_file)
        record["spans"] = {"file": str(spans_file.relative_to(ROOT)), "count": len(tracer.spans)}
        metrics = {
            name: {"value": layers[name], "unit": unit} for name, unit in tracing.PER_LAYER.items()
        }
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            **{
                f"step{k + 1}_s": {"value": statistics.median(steps[k]), "unit": "s"}
                for k in range(3)
            },
            "ops_per_s": {"value": completed / measured, "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        record["named"] = named_metrics(workload_name, metrics, steps, ctx)
    result = {
        "correct": not ctx.check_failures,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": metrics,
    }
    return record, result


def named_metrics(workload_name: str, metrics: dict, steps: list[list[float]], ctx) -> dict:
    """The workload's end-to-end metrics under descriptive names (run_all_s.g0.2, ...)."""
    named = {
        "setup_s": metrics["setup_s"],
        "peak_rss_mb": metrics["peak_rss_mb"],
        "fail_ratio": {"value": ctx.failed / ctx.attempted, "unit": "ratio"},
    }
    if workload_name == "fixture":
        for k, grid in enumerate(("0.2", "0.1", "0.05")):
            named[f"run_all_s.g{grid}"] = {"unit": "s", **summary(steps[k])}
    elif workload_name == "collect_wide":
        named["collect_s"] = {"unit": "s", **summary(steps[2])}
    elif workload_name == "solver_dense":
        named["scenes_per_s"] = metrics["ops_per_s"]
    elif workload_name == "recheck":
        passes = [sum(t) for t in zip(*steps)]
        named["recheck_s"] = {"unit": "s", **summary(passes)}
    return named


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["fixture", "collect_wide", "solver_dense", "recheck"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        import_envcover()
    except ImportError as exc:
        print(f"bench: cannot import envcover from this checkout: {exc}", file=sys.stderr)
        return 2
    record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
