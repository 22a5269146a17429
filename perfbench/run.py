#!/usr/bin/env python3
"""Benchmark of the sectorfem contour pipeline, one workload per process.

    python3 perfbench/run.py --workload mixed_decay --seed 1 --seconds 32 --trace 0

Run from the root of a sectorfem checkout; the package is imported from its
``src`` directory.  BLAS and OpenMP pools are pinned to a single thread.
The workloads live in ``workloads.py``.

``--trace 0`` measures the end-to-end metrics.  Set-up time is the median
over fresh child processes of the time from process start to the first
timed pass (importing sectorfem and building the workload's specs).  The
process then repeats full passes while the next one is expected to fit in
``--seconds``, always at least one, and reports the median pass time, its
own peak resident memory and the worst relative L2 error of the answers.

``--trace 1`` alternates untraced passes with traced ones, in which
``tracing.py`` records spans around calls into each module, and reports
the per-layer metrics.  Its spans are written to
``.perfbench-out/spans-<workload>-seed<seed>.json``.

Every pass is checked against the exact solutions and the workload's gates;
a breach counts as a failed operation and the run continues.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record the
environment and each metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

SETUP_PROBES = 5
TAIL_SAMPLES = 40   # finest-mesh solves needed so ten lie beyond the p75
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "l2_err": "1"}
PER_LAYER_UNITS = {
    "mesh.generate_s": "s", "mesh.generate_calls": "count", "mesh.triangles": "count",
    "fem.dofmap_s": "s", "fem.assemble_s": "s", "fem.assemble_calls": "count",
    "fem.load_s": "s", "fem.load_calls": "count",
    "fem.project_s": "s", "fem.project_calls": "count",
    "fem.real_solve_s": "s", "fem.real_solves": "count",
    "fem.complex_solve_s": "s", "fem.complex_solves": "count",
    "fem.complex_solve_s.p50": "s", "fem.complex_solve_s.p75": "s",
    "fem.residual_max": "1",
    "contour.evolve_s": "s", "contour.evolve_calls": "count", "contour.self_s": "s",
    "contour.fold_s": "s", "contour.solves_per_evolve": "1",
    "problems.field_s": "s", "problems.field_points": "count",
    "specialfn.ml_calls": "count", "specialfn.ml_contour_calls": "count",
    "specialfn.ml_contour_ratio": "1",
    "harness.error_s": "s", "harness.error_calls": "count",
    "trace.overhead_s": "s",
}
# Printed by the traced run but left out of its JSON result: on some
# workloads the layer is never entered, so the time reads 0 on every run.
PRINTED_ONLY_UNITS = {"specialfn.ml_s": "s", "harness.study_self_s": "s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="coarsest mesh sizes, for a quick check that every metric is emitted")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def cap_threads() -> int:
    """Pin BLAS/OpenMP pools to one thread; must run before numpy loads.

    The solves are SuperLU factorizations, which run serially.  With two
    BLAS threads on a 2-core machine a pass took twice the CPU time for no
    gain in wall time, and its wall time varied more from pass to pass.
    Returns the number of usable cores, which is recorded with the result.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' outside git."""
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


def environment(args, nproc: int) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "nproc": nproc,
        "cpu_count": os.cpu_count(),
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def _monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)  # system-wide, so comparable across processes


def measure_setup(args) -> list[float]:
    """Seconds from spawning a fresh process to the point its first pass would start."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(SETUP_PROBES):
        start = _monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return times


def run_untraced(wl, seconds: float):
    """Repeat passes while the next is expected to fit; returns walls, ops, rel errors."""
    walls, ops, rel_errors = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start + statistics.median(walls) <= seconds:
        t0 = time.perf_counter()
        result = wl.run_pass(wl.specs)
        walls.append(time.perf_counter() - t0)
        pass_ops, pass_errors = wl.check(result)
        ops += pass_ops
        rel_errors += pass_errors
    return walls, ops, rel_errors


def run_traced(wl, seconds: float, tracer):
    """Alternate untraced and traced passes; traced ones until the tail has its samples."""
    import tracing
    from workloads import Operation

    walls = {False: [], True: []}
    ops = []
    start = time.perf_counter()
    while True:
        n_finest = len(tracing.finest_solve_times(tracer.spans))
        ready = walls[False] and walls[True] and n_finest >= TAIL_SAMPLES
        longest = max(walls[False] + walls[True], default=0.0)
        if ready and time.perf_counter() - start + longest > seconds:
            break
        traced = bool(walls[False]) and (n_finest < TAIL_SAMPLES
                                         or len(walls[True]) < len(walls[False]))
        pass_id = len(walls[False]) + len(walls[True])
        if traced:
            specs = [tracer.wrap_spec(spec) for spec in wl.specs]
            with tracer.traced_pass(pass_id):
                t0 = time.perf_counter()
                result = wl.run_pass(specs)
                walls[True].append(time.perf_counter() - t0)
            residual = max((s.residual for s in tracer.spans
                            if s.pass_id == pass_id and not math.isnan(s.residual)),
                           default=0.0)
            ops.append(Operation(f"pass {pass_id} residual contract",
                                 residual <= tracing.RESIDUAL_CONTRACT,
                                 f"max relative residual {residual:.3e}"))
        else:
            t0 = time.perf_counter()
            result = wl.run_pass(wl.specs)
            walls[False].append(time.perf_counter() - t0)
        ops += wl.check(result)[0]
    return walls[True], walls[False], ops


def emit(metrics, units, samples, ops):
    failed = [op for op in ops if not op.ok]
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]} ({samples[name]})")
    print(f"metric failed_frac = {len(failed) / len(ops)!r} 1 "
          f"({len(failed)} failed / {len(ops)} attempted)")
    for op in failed:
        print(f"FAILED {op.name}: {op.detail}")
    result = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": result}))


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = cap_threads()
    if not (SRC / "sectorfem" / "__init__.py").is_file():
        print(f"error: no sectorfem package under {SRC}; run from a sectorfem checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sectorfem
    if Path(sectorfem.__file__).resolve().parent != (SRC / "sectorfem").resolve():
        print(f"error: imported sectorfem from {sectorfem.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.probe_setup:
        workloads.make(args.workload, args.seed, args.smoke)
        print(repr(_monotonic()))
        return 0

    print("env " + json.dumps(environment(args, nproc), sort_keys=True))
    if args.trace:
        import tracing
        wl = workloads.make(args.workload, args.seed, args.smoke)
        tracer = tracing.Tracer()
        traced, untraced, ops = run_traced(wl, args.seconds, tracer)
        layers, n_finest = tracing.layer_metrics(tracer, traced, untraced)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
        units = {**PER_LAYER_UNITS, **PRINTED_ONLY_UNITS}
        samples = {name: f"median of {len(traced)} traced passes" for name in units}
        for name in ("fem.complex_solve_s.p50", "fem.complex_solve_s.p75"):
            samples[name] = f"{n_finest} finest-mesh solves"
        samples["fem.residual_max"] = "max over all traced solves"
        samples["trace.overhead_s"] = (f"median of {len(traced)} traced minus median of "
                                       f"{len(untraced)} untraced passes")
        for name in PRINTED_ONLY_UNITS:
            print(f"metric {name} = {layers[name]!r} s ({samples[name]}; not in the JSON result)")
        metrics = {name: layers[name] for name in PER_LAYER_UNITS}
        emit(metrics, PER_LAYER_UNITS, samples, ops)
        return 0

    setups = measure_setup(args)
    wl = workloads.make(args.workload, args.seed, args.smoke)
    walls, ops, rel_errors = run_untraced(wl, args.seconds)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    # No answer at all reads as error 1.0, the relative error of answering zero.
    l2_err = max(rel_errors, default=1.0)
    metrics = {"setup_s": statistics.median(setups), "wall_s": statistics.median(walls),
               "peak_rss_mb": peak_kb / 1024, "l2_err": l2_err}
    samples = {"setup_s": f"median of {len(setups)} fresh processes: "
                          + " ".join(f"{x:.3f}" for x in setups),
               "wall_s": f"median of {len(walls)} passes: "
                         + " ".join(f"{x:.3f}" for x in walls),
               "peak_rss_mb": "1 process", "l2_err": f"max over {len(rel_errors)} answers"}
    emit(metrics, END_TO_END_UNITS, samples, ops)
    return 0


if __name__ == "__main__":
    sys.exit(main())
