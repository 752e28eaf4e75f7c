"""The pathkf benchmark: one workload per run, measured in a closed loop.

    python3 perfbench/run.py --workload panel --seed 1 --seconds 15 --trace 0

Run it from the root of a pathkf checkout; the package is imported from
``./src``. Each pass of the timed loop starts when the previous one ends.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. Either way the outputs are checked, and
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record,
with the environment and the raw times, goes to ``.perfbench/results/``.
End-to-end times are scaled to a fixed reference speed of the host, which
``calibrate`` measures between passes.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

WORKLOADS = ("panel", "bd-long", "table", "ragged")

#: Thread-count variables of the BLAS builds numpy may load. All are pinned
#: to one so that the pool's workers never run more threads than cores.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

#: Fresh interpreters timed for setup_s, after one untimed launch.
SETUP_LAUNCHES = 7
SETUP_SNIPPET = "import sys; sys.path.insert(0, 'src'); import pathkf, pathkf.cli"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MB."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def measure_setup(root: str) -> dict:
    """Times for a fresh interpreter to import pathkf and its CLI, each
    followed by reference chunks."""
    from calibrate import REFERENCE_SHARE, reference_walls

    cmd = [sys.executable, "-c", SETUP_SNIPPET]
    times, refs = [], []
    for launch in range(SETUP_LAUNCHES + 1):
        start = perf_counter()
        # no timeout: waiting with one polls in 50 ms steps, which would
        # quantize the measurement; the caller's own time limit still applies
        subprocess.run(cmd, cwd=root, check=True, stdout=subprocess.DEVNULL)
        if launch:
            times.append(perf_counter() - start)
            refs.append(reference_walls(REFERENCE_SHARE * times[-1]))
    return {"times": times, "refs": refs}


def measure(workload, seconds: float) -> dict:
    """Untraced closed loop; returns the timing half of the end-to-end metrics.

    Each pass is followed by reference chunks (``calibrate``), on as many
    processors as the pass used, for a fixed share of the pass's time, so
    that every block of passes carries the host speed it ran at.
    """
    from calibrate import REFERENCE_SHARE, Reference

    with Reference(workload.jobs) as reference:
        workload.run_pass(0)  # warm-up: lazy imports and caches settle untimed
        reference.walls(0.5)
        walls, cpus, refs = [], [], []
        start = perf_counter()
        index = 0
        while index < workload.min_passes or perf_counter() - start < seconds:
            cpu0 = cpu_seconds()
            t0 = perf_counter()
            out = workload.run_pass(index)
            walls.append(perf_counter() - t0)
            cpus.append(cpu_seconds() - cpu0)
            workload.record(out)
            refs.append(reference.walls(REFERENCE_SHARE * walls[-1]))
            index += 1
        # read before the reference workers or any other child is reaped
        rss = peak_rss_mb()
    return {"peak_rss_mb": rss, "walls": walls, "cpus": cpus, "refs": refs}


def measure_traced(workload, seconds: float, nproc: int, results_stem: str) -> tuple[dict, dict]:
    """Cycles of untraced and traced passes on the same input.

    The untraced passes give the tracing overhead and, for the pool workload,
    the serial and pooled ``batch_run`` times. Spans are recorded only at
    jobs=1, because spans recorded inside pool workers would be lost.
    """
    import layers
    from spans import Tracer, parallel_efficiency
    from workloads import CsvPanel

    tracer = Tracer(layers.bindings())
    walls = {label: [] for label, _, _ in workload.trace_variants}
    batch_s = {label: [] for label, _, _ in workload.trace_variants}
    workload.run_pass(0)
    start = perf_counter()
    cycle = 0
    while cycle < 1 or perf_counter() - start < seconds:
        for label, jobs, traced in workload.trace_variants:
            with tracer if traced else contextlib.nullcontext():
                t0 = perf_counter()
                out = workload.run_pass(cycle, jobs)
                walls[label].append(perf_counter() - t0)
            batch_s[label].append(getattr(out, "batch_s", 0.0))
            workload.record(out)
        cycle += 1

    traced_jobs = next(jobs for _, jobs, traced in workload.trace_variants if traced)
    baseline = next(
        label for label, jobs, traced in workload.trace_variants
        if not traced and jobs == traced_jobs
    )
    extra = {
        "overhead_share":
            statistics.median(walls["traced"]) / statistics.median(walls[baseline]) - 1.0,
    }
    if isinstance(workload, CsvPanel):
        extra["csv_rows"] = workload.csv_rows
        extra["results_bytes"] = workload.results_bytes
    if "pool" in walls:
        extra["parallel_efficiency"] = parallel_efficiency(
            statistics.median(batch_s["serial"]), statistics.median(batch_s["pool"]), nproc
        )
        extra["ipc_bytes_per_series"] = workload.ipc_bytes_per_series()
    metrics = layers.layer_metrics(tracer, sum(walls["traced"]), len(walls["traced"]), extra)
    tracer.write_csv(results_stem + ".spans.csv")
    detail = {
        "walls": walls,
        "self_time_ranking_s": layers.self_time_ranking(tracer),
        "spans": len(tracer.spans),
    }
    return metrics, detail


def git_commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _read(path: str) -> str | None:
    try:
        with open(path) as handle:
            return handle.read().strip()
    except OSError:
        return None


def environment(root: str, args, nproc: int) -> dict:
    """What ran, and on what."""
    import numpy
    import pathkf

    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = [
        {"level": _read(f"{d}/level"), "type": _read(f"{d}/type"), "size": _read(f"{d}/size")}
        for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"))
    ]
    source = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(root, "src", "pathkf", "*.py"))):
        with open(path, "rb") as handle:
            source.update(os.path.basename(path).encode() + b"\0" + handle.read())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "cpu_model": cpu_model,
        "caches": caches,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pathkf": pathkf.__version__,
        "git_commit": git_commit(root),
        "source_sha256": source.hexdigest(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pathkf", "__init__.py")):
        print(f"error: no pathkf package under {src}; run from a checkout's root",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, src)
    # numpy is first imported here, after the thread counts are pinned
    import pathkf
    import workloads
    from calibrate import scaled_block_median

    if os.path.dirname(os.path.abspath(pathkf.__file__)) != os.path.join(src, "pathkf"):
        print(f"error: pathkf imported from {pathkf.__file__}, not {src}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    results_dir = os.path.join(root, ".perfbench", "results")
    work_root = os.path.join(root, ".perfbench", "work")
    os.makedirs(results_dir, exist_ok=True)
    os.makedirs(work_root, exist_ok=True)
    stem = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, nproc)
        if args.trace:
            metrics, detail = measure_traced(workload, args.seconds, nproc, stem)
            workload.finish()
        else:
            timing = measure(workload, args.seconds)
            workload.finish()
            mse, score = workload.accuracy()
            setup = measure_setup(root)
            # launches vary more than passes: each one is scaled on its own
            setup_s = scaled_block_median(setup["times"], setup["refs"], blocks=SETUP_LAUNCHES)
            metrics = {
                "setup_s": (setup_s, "s"),
                "wall_s": (scaled_block_median(timing["walls"], timing["refs"]), "s"),
                "cpu_s": (scaled_block_median(timing["cpus"], timing["refs"]), "s"),
                "peak_rss_mb": (timing["peak_rss_mb"], "MB"),
                "success_ratio": ((workload.attempted - workload.failed) / workload.attempted, "ratio"),
                "mse": (mse, "data_units2"),
                "changepoint_score": (score, "ln"),
            }
            detail = {**timing, "setup": setup}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(root, args, nproc)
    result = {
        "correct": not workload.problems,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    with open(stem + ".json", "w") as handle:
        json.dump({"environment": env, "problems": workload.problems, "detail": detail,
                   **result}, handle, indent=2)
        handle.write("\n")
    for problem in workload.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
