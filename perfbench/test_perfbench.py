"""Self-checks of the benchmark itself (not of rigidlab).

Run from the root of the checkout:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import gate  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _snapshot(workload, seed, workdir):
    """Case list with paths made relative, plus every input file's bytes."""
    cases = workloads.generate(workload, seed, str(workdir))
    text = repr(cases).replace(str(workdir), "<inputs>")
    files = {}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            files[name] = fh.read()
    return text, files


def _shape(cases):
    """What must not move with the seed: kinds, ids, expected outcomes."""
    return [(c["id"], c["kind"], c["expect"]) for c in cases]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    first = _snapshot(workload, 7, tmp_path / "a")
    second = _snapshot(workload, 7, tmp_path / "b")
    assert first == second
    other = _snapshot(workload, 8, tmp_path / "c")
    assert other != first


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_second_seed_keeps_case_mix(workload, tmp_path):
    a = workloads.generate(workload, 1, str(tmp_path / "a"))
    b = workloads.generate(workload, 2, str(tmp_path / "b"))
    assert _shape(a) == _shape(b)
    kernel = [c for c in a if "kernel" in c["expect"]]
    if workload == "kernel-certificate":
        routes = {c["expect"]["route"] for c in kernel}
        verdicts = {c["expect"]["kernel"]["verdict"] for c in kernel}
        assert routes == {"dense", "sector"}
        assert verdicts == {"certified-rigid", "flexible"}


def test_every_workload_has_a_negative_case(tmp_path):
    for workload in workloads.WORKLOADS:
        cases = workloads.generate(workload, 3, str(tmp_path / workload))
        negative = [c for c in cases
                    if c["expect"].get("exit", 0) != 0
                    or "fail" in c["expect"].get("checks", {}).values()
                    or c["expect"].get("kernel", {}).get("verdict")
                    == "flexible"]
        assert negative, workload


_KERNEL_EXPECT = {"exit": 0,
                  "checks": {"kernel-dimension": "pass"},
                  "identities": "pass",
                  "kernel": {"verdict": "certified-rigid", "dimension": 6},
                  "route": "dense"}
_KERNEL_OUTCOME = {"exit": 0,
                   "checks": [{"name": "trivial-motions-in-kernel",
                               "kind": "identity", "verdict": "pass"},
                              {"name": "kernel-dimension", "kind": "kernel",
                               "verdict": "pass"}],
                   "kernel": {"verdict": "certified-rigid", "dimension": 6},
                   "route": "dense"}


def test_gate_accepts_the_expected_outcome():
    assert gate.mismatches(_KERNEL_EXPECT, _KERNEL_OUTCOME) == []


@pytest.mark.parametrize("mutate", [
    lambda o: o["kernel"].update(dimension=7),
    lambda o: o["kernel"].update(verdict="flexible"),
    lambda o: o.update(exit=2),
    lambda o: o["checks"][0].update(verdict="fail"),
    lambda o: o["checks"][1].update(verdict="indeterminate"),
    lambda o: o.update(route="sector"),
    lambda o: o.update(error="FlexError: boom"),
    lambda o: o["checks"].pop(),
])
def test_gate_flags_a_wrong_outcome(mutate):
    outcome = copy.deepcopy(_KERNEL_OUTCOME)
    mutate(outcome)
    assert gate.mismatches(_KERNEL_EXPECT, outcome)


def test_gate_ignores_report_hash():
    outcome = dict(_KERNEL_OUTCOME, sha256="0" * 64)
    assert gate.mismatches(_KERNEL_EXPECT, outcome) == []


def _smoke_cases(tmp_path, seed):
    """A cheap subset touching every case kind and both spectral routes."""
    picked = []
    for workload, ids in (
            ("kernel-certificate", ("cylinder", "ellipsoid")),
            ("identity-sweep", ("check-plane", "pair-flat-cylinder",
                                "w_tensor-saddle", "gauss-n4-rank2")),
            ("boundary-charts", ("chart-flat-disk", "boundary-closing-0"))):
        cases = workloads.generate(workload, seed, str(tmp_path / workload))
        picked += [c for c in cases if c["id"] in ids]
    for case in picked:
        if case["id"] == "ellipsoid":
            # route only; the verdict at a coarse grid is not the point
            case["argv"][case["argv"].index("--grid") + 1] = "16x8"
            case["expect"] = {"route": "dense"}
        if case["kind"] == "pointwise":
            case["points"] = 200
    return picked


_COUNTS = ("expressions.evaluate_jet.calls",
           "expressions.evaluate_jet.point_evals.o0",
           "expressions.evaluate_jet.point_evals.o1",
           "expressions.evaluate_jet.point_evals.o2",
           "expressions.evaluate_jet.point_evals.o3",
           "geometry.frame_at.calls", "geometry.frame_at.points",
           "linalg.singular_values.calls", "linalg.singular_values.max_cols",
           "flex.operator.unknowns", "flex.operator.nnz",
           "flex.kernel_dimension.route_dense",
           "flex.kernel_dimension.route_sector")


def _traced_run(tmp_path, seed):
    cases = _smoke_cases(tmp_path, seed)
    runner = worker.Runner(cases, str(tmp_path))
    result = worker.measure(runner, seconds=0.0, traced=True)
    expect = {c["id"]: c["expect"] for c in cases}
    for ex in result["executions"]:
        assert gate.mismatches(expect[ex["id"]], ex["outcome"]) == [], ex
    return result


def test_traced_run_counts_repeat_and_self_times_are_valid(tmp_path):
    first = _traced_run(tmp_path / "a", 5)
    second = _traced_run(tmp_path / "b", 5)
    assert first["negative_self_spans"] == 0
    assert first["spans"] > 0
    counts = [{k: m[k] for k in _COUNTS}
              for run in (first, second) for m in run["layers"]]
    assert all(c == counts[0] for c in counts)
    assert counts[0]["flex.kernel_dimension.route_dense"] == 1
    assert counts[0]["flex.kernel_dimension.route_sector"] == 1
    routes = {ex["id"]: ex["outcome"].get("route")
              for ex in first["executions"] if ex["outcome"].get("route")}
    assert routes == {"cylinder": "sector", "ellipsoid": "dense"}


def test_tracer_restores_every_binding():
    import rigidlab
    from rigidlab import boundary, geometry

    before = (geometry.evaluate_jet, boundary.evaluate_jet,
              rigidlab.frame_at, boundary.BoundaryProfile.__dict__["from_theta"])
    tracer = tracing.Tracer()
    tracer.install()
    assert geometry.evaluate_jet is not before[0]
    assert boundary.evaluate_jet is geometry.evaluate_jet
    assert rigidlab.frame_at is not before[2]
    tracer.uninstall()
    after = (geometry.evaluate_jet, boundary.evaluate_jet,
             rigidlab.frame_at, boundary.BoundaryProfile.__dict__["from_theta"])
    assert after == before


def test_self_times_subtract_direct_children():
    spans = [["case", 0, 100, -1, "c", None],
             ["a", 10, 60, 0, "c", None],
             ["b", 20, 30, 1, "c", None],
             ["b", 70, 90, 0, "c", None]]
    assert tracing.self_times(spans) == [30, 40, 10, 20]
