"""rigidlab benchmark: three verification workloads in a closed loop.

Run from the root of a rigidlab checkout (the package is imported from
``src``; nothing is installed):

    python3 perfbench/run.py --workload kernel-certificate --seed 1 \
        --seconds 35 --trace 0

Workloads (see ``workloads.py`` for why each exists):
``kernel-certificate``, ``identity-sweep``, ``boundary-charts``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
an untraced run, each a median over passes: wall time per pass, median and
tail time per case,
sample points verified per second, peak RSS of the workload's own fresh
process, and set-up time (median of several fresh processes that import
rigidlab with numpy/scipy and load the workload's surfaces).  With
``--trace 1`` it carries the per-layer metrics of a traced run instead.
The line before it is a JSON detail record: environment (nproc, pinned
thread counts, library versions), pass times, tail percentile and sample
count, failed ratio, mismatches and each case's report SHA-256.

Every case execution goes through the correctness gate (``gate.py``);
``failed`` counts executions that raised, exited with an unexpected code,
or returned a wrong verdict, kernel dimension or spectral route.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import gate  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYER_SELF_TIMES  # noqa: E402

SETUP_REPEATS = 5
RUN_TIMEOUT_S = 170.0
WORK_ROOT = ".perfbench_work"
PACKAGE = os.path.join("src", "rigidlab", "__init__.py")


class BenchError(RuntimeError):
    pass


def child_env():
    """Environment of every child: rigidlab from ``src``, and no more
    BLAS/OpenMP threads than the CPUs this process may use."""
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = threads
    src = os.path.abspath("src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def run_child(argv, env, log_path, deadline):
    """Run a child to completion; return (wall seconds, rusage).  The wait
    blocks (no polling that would steal a BLAS thread's CPU); a timer kills
    the child at the deadline."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=log, stderr=log)
        killer = threading.Timer(max(0.0, deadline - time.monotonic()),
                                 proc.kill)
        killer.start()
        try:
            _pid, status, rusage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(log_path, "r", encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"{argv[1]} exited {proc.returncode}:\n{tail}")
    return wall, rusage


def tail_time(times, percentile):
    if percentile >= 100:
        return max(times)
    return float(np.percentile(times, percentile))


def summarize(cases, result, setup, rusage, workload, trace):
    expect = {c["id"]: c["expect"] for c in cases}
    executions = result["executions"]
    failures = []
    for ex in executions:
        found = gate.mismatches(expect[ex["id"]], ex["outcome"])
        if found:
            failures.append({"id": ex["id"], "pass": ex["pass"],
                             "mismatches": found})
    attempted = len(executions)
    hashes = {}
    for ex in executions:
        sha = ex["outcome"].get("sha256")
        if sha:
            hashes.setdefault(ex["id"], set()).add(sha)

    untraced = [p for p in result["passes"] if not p["traced"]]
    # per-case times of each untraced pass; case statistics are taken per
    # pass and then, like every end-to-end metric, the median over passes
    times = {}
    for ex in executions:
        if not result["passes"][ex["pass"]]["traced"]:
            times.setdefault(ex["pass"], []).append(ex["seconds"])
    percentile = workloads.tail_percentile(len(cases))
    detail = {
        "workload": workload,
        "environment": result["environment"],
        "pass_wall_s": [p["wall_s"] for p in result["passes"]],
        "pass_traced": [p["traced"] for p in result["passes"]],
        "cases_per_pass": len(cases),
        "case_tail": {"percentile": percentile,
                      "samples": sum(len(t) for t in times.values()),
                      "passes": len(times)},
        "failed_ratio": len(failures) / attempted,
        "failures": failures[:20],
        "report_sha256": {k: sorted(v)[0] for k, v in sorted(hashes.items())},
        "report_bytes_varied": sorted(k for k, v in hashes.items()
                                      if len(v) > 1),
        "spans": result["spans"],
        "negative_self_spans": result["negative_self_spans"],
    }
    if trace:
        layers = result["layers"]
        metrics = {name: {"value": statistics.median(m[name] for m in layers),
                          "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        metrics = {
            "wall_s": (statistics.median(p["wall_s"] for p in untraced), "s"),
            "case_p50_s": (statistics.median(
                statistics.median(t) for t in times.values()), "s"),
            "case_tail_s": (statistics.median(
                tail_time(t, percentile) for t in times.values()), "s"),
            "points_per_s": (statistics.median(
                p["points"] / p["wall_s"] for p in untraced), "1/s"),
            "peak_rss_mb": (rusage.ru_maxrss / 1024.0, "MB"),
            "setup_s": (statistics.median(setup), "s"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        detail["setup_s"] = setup
    line = {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": metrics}
    return detail, line


def _layer_units():
    units = {f"{name}.self_s": "s" for name in LAYER_SELF_TIMES}
    units.update({
        "expressions.evaluate_jet.calls": "count",
        "expressions.evaluate_jet.mean_batch": "points/call",
        "geometry.frame_at.calls": "count",
        "geometry.frame_at.points": "points",
        "linalg.singular_values.calls": "count",
        "linalg.singular_values.max_cols": "count",
        "flex.operator.unknowns": "count",
        "flex.operator.nnz": "count",
        "flex.operator.bytes_computed": "bytes",
        "flex.kernel_dimension.route_dense": "count",
        "flex.kernel_dimension.route_sector": "count",
        "cli.glue_s": "s",
        "trace.overhead_s": "s",
    })
    for order in range(4):
        units[f"expressions.evaluate_jet.point_evals.o{order}"] = "points"
        units[f"expressions.evaluate_jet.self_s.o{order}"] = "s"
    return units


LAYER_UNITS = _layer_units()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(PACKAGE):
        print(f"perfbench: {PACKAGE} not found; run from the root of a "
              "rigidlab checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_TIMEOUT_S
    workdir = os.path.join(WORK_ROOT,
                           f"{args.workload}-s{args.seed}-{os.getpid()}")
    try:
        cases = workloads.generate(args.workload, args.seed,
                                   os.path.join(workdir, "inputs"))
        cases_path = os.path.join(workdir, "cases.json")
        with open(cases_path, "w", encoding="utf-8") as fh:
            json.dump(cases, fh)
        env = child_env()
        worker = [sys.executable, os.path.join(HERE, "worker.py"),
                  "--cases", cases_path]
        log = os.path.join(workdir, "worker.log")
        setup = []
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                wall, _rusage = run_child(worker + ["--setup-only"], env, log,
                                          deadline)
                setup.append(wall)
        out = os.path.join(workdir, "result.json")
        _wall, rusage = run_child(
            worker + ["--out", out, "--seconds", str(args.seconds),
                      "--trace", str(args.trace)], env, log, deadline)
        with open(out, "r", encoding="utf-8") as fh:
            result = json.load(fh)
        detail, line = summarize(cases, result, setup, rusage,
                                 args.workload, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
