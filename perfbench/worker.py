"""Closed-loop case runner; runs in its own fresh process.

One client in one process: each case starts when the previous one has
finished.  A pass runs the whole case list once.  Passes repeat while the
next one is expected to end within ``--seconds`` (at least two passes).
With ``--trace 1`` a first untraced pass warms up, then untraced passes and
passes under the outside-in tracer alternate (at least one of each), so
the tracing overhead is measured within the same process.

Usage (from the root of a rigidlab checkout, with ``src`` on PYTHONPATH):

    python3 perfbench/worker.py --cases CASES.json --out RESULT.json \
        --seconds 35 --trace 0
    python3 perfbench/worker.py --cases CASES.json --setup-only

The result file holds every case execution (time, observed outcome, report
SHA-256), the pass wall times and, for traced runs, per-pass layer
metrics.  Gating and the end-to-end metrics are left to ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import sys
import time

import numpy as np
import scipy

import rigidlab
from rigidlab import boundary, cli, flex, geometry, highdim, surfaces

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

def _identity(name, value, tolerance):
    return {"name": name, "kind": "identity",
            "verdict": "pass" if float(value) <= tolerance else "fail"}


def _condition(name, ok):
    return {"name": name, "kind": "condition",
            "verdict": "pass" if ok else "fail"}


# Residual tolerances for library-call cases: the same bounds the package's
# own test suite holds these identities to on trivial motions.
def _pointwise_checks(function, immersion, fld, pts):
    if function == "phi_relation_residual":
        res = flex.phi_relation_residual(immersion, fld, pts)
        return [_identity("phi-relation", np.max(res.max_residual), 1e-8),
                _identity("b-field", np.max(res.b_field_residual), 1e-8)]
    if function == "w_tensor":
        wt = flex.w_tensor(immersion, fld, pts)
        return [_identity("w-vanishes", np.max(np.abs(wt.w)), 1e-10),
                _identity("w-symmetry", np.max(wt.symmetry_residual), 1e-10),
                _identity("w-trace", np.max(wt.trace_residual), 1e-10),
                _identity("w-codazzi", np.max(wt.codazzi_residual), 1e-10)]
    dec = highdim.decompose_rotation_bivector(immersion, fld, pts)
    return [_identity("flex", np.max(dec.flex_residual), 1e-12),
            _identity("rotation", np.max(np.abs(dec.rotation - fld.matrix)),
                      1e-12),
            _identity("tangential", np.max(dec.tangential_residual), 1e-8),
            _identity("w-sym", np.max(np.abs(dec.w_sym)), 1e-8),
            _identity("symmetry", np.max(dec.symmetry_residual), 1e-10)]


class Runner:
    """Executes cases against prepared inputs and records outcomes."""

    def __init__(self, cases, workdir):
        self.cases = cases
        self.report_dir = os.path.join(workdir, "reports")
        os.makedirs(self.report_dir, exist_ok=True)
        # set-up: every surface the workload uses, loaded once
        self.surfaces = {path: surfaces.load_surface(path)
                         for case in cases for path in case["surfaces"]}
        self.inputs = {}
        for case in cases:
            if case["kind"] == "pointwise":
                imm = self.surfaces[case["surface"]]
                rng = np.random.default_rng(case["point_seed"])
                pts = geometry.interior_points(imm, case["points"], rng)
                with open(case["field"], "r", encoding="utf-8") as fh:
                    fld = flex.load_field(json.load(fh), imm.dim)
                self.inputs[case["id"]] = (imm, fld, pts)

    def _cli(self, case):
        path = os.path.join(self.report_dir, case["id"] + ".json")
        if os.path.exists(path):
            os.remove(path)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(case["argv"] + ["--report", path])
        return path, code

    def _library(self, case):
        kind = case["kind"]
        if kind == "pointwise":
            imm, fld, pts = self.inputs[case["id"]]
            return _pointwise_checks(case["function"], imm, fld, pts)
        imm = self.surfaces[case["surface"]]
        edge = tuple(case["edge"])
        if kind == "chart":
            chart = geometry.geodesic_boundary_chart(
                imm, edge, depth=case["depth"], n_s=case["n_s"],
                n_t=case["n_t"])
            dong = boundary.dong_conditions(chart)
            checks = [_condition("turning", dong.turning_ok),
                      _condition("closure", dong.closure_ok)]
            if dong.flux_ok is not None:
                checks.append(_condition("flux", dong.flux_ok))
            return checks
        rep = boundary.lemma_hh_check((imm, edge), depth=case["depth"],
                                      n_s=case["n_s"], n_t=case["n_t"])
        return [_identity("l-vanishes", rep.max_l, 1e-6),
                _identity("m-vanishes", rep.max_m, 1e-6),
                _identity("n-root", rep.n_residual, 1e-4),
                _identity("lt-root", rep.lt_residual, 1e-4)]

    def execute(self, case, trace=None):
        """Run one case; return (seconds, outcome)."""
        if case["kind"] == "cli":
            call = lambda: self._cli(case)  # noqa: E731
        else:
            call = lambda: self._library(case)  # noqa: E731
        start = time.perf_counter()
        try:
            result = trace.case(case["id"], call) if trace else call()
        except Exception as exc:  # a raising case is a failed case
            return time.perf_counter() - start, {
                "error": f"{type(exc).__name__}: {exc}"}
        seconds = time.perf_counter() - start
        if case["kind"] != "cli":
            return seconds, {"checks": result}
        path, code = result
        outcome = {"exit": code, "checks": [], "sha256": None}
        if os.path.exists(path):
            with open(path, "rb") as fh:
                raw = fh.read()
            outcome["sha256"] = hashlib.sha256(raw).hexdigest()
            report = json.loads(raw)
            outcome["checks"] = [{"name": c["name"], "kind": c["kind"],
                                  "verdict": c["verdict"]}
                                 for c in report["checks"]]
            for c in report["checks"]:
                if c["name"] == "kernel-dimension":
                    outcome["kernel"] = {
                        "verdict": c["metadata"]["rigidity_verdict"],
                        "dimension": int(c["value"])}
        return seconds, outcome

    def run_pass(self, index, trace=None):
        executions = []
        start = time.perf_counter()
        for case in self.cases:
            seconds, outcome = self.execute(case, trace)
            executions.append({"id": case["id"], "pass": index,
                               "seconds": seconds, "outcome": outcome})
        return time.perf_counter() - start, executions


def _is_traced(index, traced):
    """Traced runs: pass 0 warms up untraced, then untraced and traced
    passes alternate, so the overhead compares warm passes only."""
    return traced and index > 0 and index % 2 == 0


def measure(runner, seconds, traced):
    """Closed loop for ``seconds``; returns the result document."""
    passes = []
    executions = []
    layers = []
    tracer = tracing.Tracer() if traced else None
    min_passes = 3 if traced else workloads.MIN_PASSES
    start = time.perf_counter()
    while True:
        index = len(passes)
        use_trace = _is_traced(index, traced)
        if use_trace:
            lo = len(tracer.spans)
            tracer.install()
            try:
                wall, done = runner.run_pass(index, tracer)
            finally:
                tracer.uninstall()
            routes = {tracer.spans[i][4]: route for i, route
                      in tracing.kernel_routes(tracer.spans).items()
                      if i >= lo}
            for ex in done:
                if ex["id"] in routes:
                    ex["outcome"]["route"] = routes[ex["id"]]
            layers.append((lo, len(tracer.spans)))
        else:
            wall, done = runner.run_pass(index)
        passes.append({"wall_s": wall, "traced": use_trace,
                       "points": sum(c["points"] for c in runner.cases)})
        executions.extend(done)
        if len(passes) < min_passes:
            continue
        upcoming = [p["wall_s"] for p in passes
                    if p["traced"] == _is_traced(index + 1, traced)]
        if time.perf_counter() - start + max(upcoming) > seconds:
            break
    result = {"passes": passes, "executions": executions, "layers": [],
              "spans": 0, "negative_self_spans": 0}
    if traced:
        spans = tracer.spans
        selfs = tracing.self_times(spans)
        untraced = statistics.median(p["wall_s"] for p in passes[1:]
                                     if not p["traced"])
        traced_wall = statistics.median(p["wall_s"] for p in passes
                                        if p["traced"])
        for lo, hi in layers:
            metrics = tracing.layer_metrics(spans, selfs, lo, hi)
            metrics["trace.overhead_s"] = traced_wall - untraced
            result["layers"].append(metrics)
        result["spans"] = len(spans)
        result["negative_self_spans"] = sum(1 for s in selfs if s < 0)
    return result


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "rigidlab": rigidlab.__version__,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", required=True)
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    with open(args.cases, "r", encoding="utf-8") as fh:
        cases = json.load(fh)
    runner = Runner(cases, os.path.dirname(os.path.abspath(args.cases)))
    if args.setup_only:
        return 0
    result = measure(runner, args.seconds, bool(args.trace))
    result["environment"] = environment()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
