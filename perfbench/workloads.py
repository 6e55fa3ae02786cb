"""Seeded workload generator for the rigidlab benchmark.

``generate(workload, seed, workdir)`` writes the inputs a workload hands to
the program (surface, pair, field and ``h`` JSON files, ``theta,kg`` CSV
files) under ``workdir`` and returns the case list.  The case list carries,
for every case, the expected outcome known by construction, so the
correctness gate never compares floats against another commit.

Every seed yields the same case mix in the same order: the same kinds, the
same spectral route (dense or Fourier-sector) and the same verdicts.  Only
the parameters (radii, semi-axes, rigid motions, sample points, profile
coefficients) move with the seed.

This module imports numpy but not rigidlab, so generating inputs never
runs the code under test.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

TWO_PI = 2.0 * math.pi
HALF_PI = 0.5 * math.pi

WORKLOADS = ("kernel-certificate", "identity-sweep", "boundary-charts")

MIN_PASSES = 2


def tail_percentile(cases_per_pass):
    """Highest of p99/p95/p90/p75/p50 with at least 10 cases beyond it in
    the two passes every run makes at least; 100 (the maximum) when two
    passes hold fewer than 20 cases."""
    samples = MIN_PASSES * cases_per_pass
    for p in (99, 95, 90, 75, 50):
        if samples * (100 - p) >= 1000:
            return p
    return 100


# check-surface suite on a 2-D chart; plane has support mu = 0 everywhere,
# so its shape identity is skipped by construction
_SURFACE_CHECKS = ("normal-frame", "metric-positive", "gauss-equation",
                   "codazzi-h", "support-norm", "support-position",
                   "monge-ampere", "shape-identity")
_PAIR_CHECKS = ("isometry", "equal-h-determinants", "w-from-support",
                "w-trace-free", "w-codazzi")
_BOUNDARY_CLOSING = ("turning-angle", "tangent-loop-closure",
                     "reference-curve-closure", "reference-curve-area",
                     "ode-vs-closed-form", "admissibility", "uv-roots",
                     "uv-slope-identity", "energy-route-agreement",
                     "energy-inequality")


# ---------------------------------------------------------------------------
# chart text (the benchmark's own copy; the program parses it)
# ---------------------------------------------------------------------------

def _num(v):
    return f"({float(v)!r})"


def _ellipsoid(name, a, b, c):
    return {
        "name": name, "dim": 2,
        "components": [f"{_num(a)}*cos(x1)*cos(x2)",
                       f"{_num(b)}*sin(x1)*cos(x2)",
                       f"{_num(c)}*sin(x2)"],
        "domain": [[0.0, TWO_PI], [-HALF_PI, HALF_PI]],
        "periodic": [True, False],
        "orientation": "outward",
        "closed_poles": [True, True],
    }


def _cylinder(name, radius):
    return {
        "name": name, "dim": 2,
        "components": [f"{_num(radius)}*cos(x1)", f"{_num(radius)}*sin(x1)",
                       "x2"],
        "domain": [[0.0, TWO_PI], [-1.0, 1.0]],
        "periodic": [True, False],
    }


_QUARTIC_CAP = ["x1", "x2", "(1 - x1^2 - x2^2)^2"]
_SADDLE = ["x1", "x2", "x1^2 - x2^2"]


def _graph(name, components, half_width):
    return {
        "name": name, "dim": 2, "components": list(components),
        "domain": [[-half_width, half_width], [-half_width, half_width]],
        "periodic": [False, False],
    }


def _moved(spec, rotation, translation):
    """The chart x -> Q x + b, written out as expression text."""
    comps = spec["components"]
    out = []
    for row, shift in zip(rotation, translation):
        terms = [_num(shift)]
        terms += [f"{_num(q)}*({c})" for q, c in zip(row, comps)]
        out.append(" + ".join(terms))
    moved = dict(spec, components=out, name=spec["name"] + "_moved")
    # a general rotation breaks the pole wrap (it is about z only)
    moved.pop("closed_poles", None)
    return moved


def _rotation(rng):
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q.tolist()


def _spherical_cap(name, lat0, lat1):
    return {
        "name": name, "dim": 2,
        "components": ["cos(x1)*cos(x2)", "sin(x1)*cos(x2)", "sin(x2)"],
        "domain": [[0.0, TWO_PI], [float(lat0), float(lat1)]],
        "periodic": [True, False],
    }


def _quartic_cap_polar():
    return {
        "name": "quartic_cap_polar", "dim": 2,
        "components": ["x2*cos(x1)", "x2*sin(x1)", "(1 - x2^2)^2"],
        "domain": [[0.0, TWO_PI], [0.2, 1.0]],
        "periodic": [True, False],
        "orientation": "inward",
    }


def _flat_disk(name, inner):
    return {
        "name": name, "dim": 2,
        "components": ["x2*cos(x1)", "x2*sin(x1)", "0"],
        "domain": [[0.0, TWO_PI], [float(inner), 1.0]],
        "periodic": [True, False],
    }


def _trivial_field(rng):
    raw = rng.standard_normal((3, 3))
    skew = (raw - raw.T).tolist()
    return {"trivial": {"A": skew, "b": rng.standard_normal(3).tolist()}}


def _symmetric_with_rank(rng, n, rank):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.zeros(n)
    vals[:rank] = rng.uniform(0.5, 3.0, rank) * rng.choice([-1.0, 1.0], rank)
    h = q @ np.diag(vals) @ q.T
    return (0.5 * (h + h.T)).tolist()


# ---------------------------------------------------------------------------
# boundary profiles
# ---------------------------------------------------------------------------

def _inverse_kg_modes(rng, first_mode):
    """Fourier modes (k, a_k, b_k) of 1/k_g.  Without a first mode the
    profile closes; modes 4 and 5 stay clear of the modes of f below, so
    the loop integral of phi_s ds vanishes too."""
    modes = [(4, rng.uniform(-0.15, 0.15), rng.uniform(-0.15, 0.15)),
             (5, rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))]
    if first_mode:
        modes.append((1, rng.uniform(0.2, 0.3), rng.uniform(-0.1, 0.1)))
    return modes


def _modes_text(const, modes):
    parts = [_num(const)]
    for k, a, b in modes:
        parts.append(f"{_num(a)}*cos({k}*x1) + {_num(b)}*sin({k}*x1)")
    return " + ".join(parts)


def _kg_text(modes):
    return f"1/({_modes_text(1.0, modes)})"


def _write_kg_csv(path, modes, samples=512):
    theta = TWO_PI * np.arange(samples) / samples
    inv = np.ones(samples)
    for k, a, b in modes:
        inv += a * np.cos(k * theta) + b * np.sin(k * theta)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("theta,kg\n")
        for t, v in zip(theta, 1.0 / inv):
            fh.write(f"{float(t)!r},{float(v)!r}\n")


def _f_text(rng, inadmissible):
    """f = F / k_g = a sin(2 theta): admissible for every profile above.
    A constant offset c keeps u and v closed but adds c (1 - cos theta) to
    phi_s, whose loop integral against 1/k_g is c times the length, so the
    data is inadmissible.  f stays short because the boundary ODE evaluates
    it one point at a time."""
    text = f"{_num(rng.uniform(0.5, 1.5))}*sin(2*x1)"
    if inadmissible:
        text = f"{_num(rng.uniform(0.3, 0.6))} + {text}"
    return text


# ---------------------------------------------------------------------------
# the three workloads
# ---------------------------------------------------------------------------

class _Writer:
    def __init__(self, workdir):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def json(self, name, data):
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True)
        return path

    def path(self, name):
        return os.path.join(self.workdir, name)


def _cli(case_id, argv, points, expect, surfaces=()):
    return {"id": case_id, "kind": "cli", "argv": argv, "points": points,
            "expect": expect, "surfaces": list(surfaces)}


def _kernel_certificate(rng, w):
    """Why: flex and linalg do more than 90% of the work here, and jets do
    almost none.  This is where a sparse or deflated spectrum, a
    memory-based guard, or a faster assembly shows its gain.  Grids stay at or below 48x24: a
    sphere at 64x32 peaks at 1.78 GB and an ellipsoid at 64x32 takes about
    55 s, too long to repeat.  The ellipsoid runs at 40x20 (about 3 s
    against 8 s at 48x24) so a run holds three or more passes."""
    cases = []

    def flex(case_id, spec, grid, verdict, dim, route):
        path = w.json(case_id + ".json", spec)
        ns, nt = grid
        cases.append(_cli(
            case_id, ["flex-kernel", path, "--grid", f"{ns}x{nt}",
                      "--seed", str(int(rng.integers(1 << 30)))],
            ns * nt,
            {"exit": 0, "checks": {"trivial-motions-in-kernel": "pass",
                                   "kernel-dimension": "pass"},
             "kernel": {"verdict": verdict, "dimension": dim},
             "route": route},
            surfaces=[path]))

    # surface of revolution: Fourier-sector route, ~600 MB peak
    a = rng.uniform(0.8, 1.5)
    flex("revolution", _ellipsoid("spheroid", a, a, rng.uniform(0.6, 1.6)),
         (48, 24), "certified-rigid", 6, "sector")
    # three distinct semi-axes: dense SVD route, most of the pass
    flex("ellipsoid", _ellipsoid("ellipsoid", rng.uniform(1.7, 2.2),
                                 rng.uniform(1.15, 1.45),
                                 rng.uniform(0.6, 0.9)),
         (40, 20), "certified-rigid", 6, "dense")
    # flexible negatives
    flex("quartic-cap", _moved(_graph("quartic_cap", _QUARTIC_CAP, 0.7),
                               _rotation(rng), rng.uniform(-0.5, 0.5, 3)),
         (32, 16), "flexible", 50, "dense")
    flex("cylinder", _cylinder("cylinder", rng.uniform(0.7, 1.6)),
         (32, 16), "flexible", 64, "sector")
    flex("saddle", _moved(_graph("saddle", _SADDLE, 1.0), _rotation(rng),
                          rng.uniform(-0.5, 0.5, 3)),
         (32, 16), "flexible", 95, "dense")
    return cases


# Batch sizes keep the median case above 0.3 s, so the occasional stall of
# a tiny pointwise-gauss case (waking the BLAS threads) cannot move it.
_CATALOG_POINTS = {"plane": 1000, "sphere": 100000, "ellipsoid": 30000,
                   "cylinder": 30000, "saddle": 30000, "quartic_cap": 30000,
                   "quartic_cap_polar": 30000}


def _identity_sweep(rng, w):
    """Why: expressions (jet throughput), geometry.frame_at, darboux, pairs
    and the flex pointwise pipeline carry the load on batches of 1e3-1e5
    points, and flex assembly and spectrum are idle.  At 1e5 points
    order-3 jets take most of frame_at's time, and phi_relation_residual
    builds its frame three times.  This workload shows the gain from jet
    caching or packed third derivatives."""
    cases = []
    grid = 16

    def surface_check(case_id, source, points, surfaces=()):
        checks = {name: "pass" for name in _SURFACE_CHECKS}
        if source == "plane":
            checks["shape-identity"] = "skip"
        cases.append(_cli(
            case_id, ["check-surface", source, "--points", str(points),
                      "--grid", f"{grid}x{grid}",
                      "--seed", str(int(rng.integers(1 << 30)))],
            points + grid * grid,
            {"exit": 0, "checks": checks, "identities": "pass"},
            surfaces=surfaces))

    for name in sorted(_CATALOG_POINTS):
        surface_check(f"check-{name}", name, _CATALOG_POINTS[name])
    # rigid motions of closed or convex charts; translations stay small so
    # the origin stays inside and the support mu keeps away from zero
    moved = {
        "sphere": _ellipsoid("sphere", 1.0, 1.0, 1.0),
        "ellipsoid": _ellipsoid("ellipsoid", 2.0, 1.0, 1.0),
        "cylinder": _cylinder("cylinder", 1.0),
    }
    for name, spec in moved.items():
        path = w.json(f"moved-{name}.json", _moved(
            spec, _rotation(rng), rng.uniform(-0.3, 0.3, 3)))
        surface_check(f"check-moved-{name}", path, 20000, surfaces=[path])

    pair = w.json("flat-cylinder-pair.json", {
        "surfaces": ["cylinder", {
            "name": "half_cylinder_wide", "dim": 2,
            "components": ["2.0*cos(x1/2.0)", "2.0*sin(x1/2.0)", "x2"],
            "domain": [[0.0, TWO_PI], [-1.0, 1.0]],
            "periodic": [False, False]}],
        "tolerance": 1e-10})
    cases.append(_cli(
        "pair-flat-cylinder", ["pair-check", pair, "--points", "20000",
                               "--seed", str(int(rng.integers(1 << 30)))],
        20000, {"exit": 0, "checks": {n: "pass" for n in _PAIR_CHECKS},
                "identities": "pass"}))

    # pointwise flex pipeline with seeded trivial motions
    flex_surfaces = [
        w.json("flex-sphere.json",
               _ellipsoid("sphere", *([rng.uniform(0.8, 1.5)] * 3))),
        w.json("flex-ellipsoid.json", _moved(
            _ellipsoid("ellipsoid", 2.0, 1.3, 0.8), _rotation(rng),
            rng.uniform(-0.3, 0.3, 3))),
        w.json("flex-saddle.json", _graph("saddle", _SADDLE, 1.0)),
    ]
    for func, points in (("phi_relation_residual", 10000),
                         ("w_tensor", 15000),
                         ("decompose_rotation_bivector", 20000)):
        for path in flex_surfaces:
            tag = os.path.basename(path)[len("flex-"):-len(".json")]
            case_id = f"{func}-{tag}"
            field = w.json(case_id + "-field.json", _trivial_field(rng))
            cases.append({
                "id": case_id, "kind": "pointwise", "function": func,
                "surface": path, "field": field, "points": points,
                "point_seed": int(rng.integers(1 << 30)),
                "expect": {"identities": "pass"}, "surfaces": [path]})

    # rank >= 3 means rigid (exit 0); rank <= 2 is not certified (exit 2)
    for n, rank in ((3, 3), (4, 2), (5, 4)):
        rigid = rank >= 3
        path = w.json(f"h-{n}-{rank}.json",
                      {"h": _symmetric_with_rank(rng, n, rank)})
        cases.append(_cli(
            f"gauss-n{n}-rank{rank}", ["pointwise-gauss", "--h-file", path],
            1, {"exit": 0 if rigid else 2,
                "checks": {"pointwise-rigidity": "pass" if rigid
                           else "fail"}}))
    return cases


# RK4 steps of the boundary ODE: 4 scalar evaluate_jet calls per step
_BOUNDARY_STEPS = 1024


def _boundary_charts(rng, w):
    """Why: it uses the same jet layer the opposite way.  A boundary case
    makes about 4k evaluate_jet calls (16k at the CLI's default 4096 steps)
    and a chart about 25k; batches average 3-4 points, and about 70% of the
    time is in these calls.  A change that speeds large batches but adds
    per-call cost (hash-consing, caches) shows its regression here, as does
    vectorizing speed()/rk4_path."""
    cases = []

    def chart(case_id, spec, edge, depth, dong):
        path = w.json(case_id + ".json", spec)
        cases.append({
            "id": case_id, "kind": "chart", "surface": path, "edge": edge,
            "depth": depth, "n_s": 64, "n_t": 64, "points": 64 * 65,
            "expect": {"checks": dong, "identities": "pass"},
            "surfaces": [path]})

    # a convex cap with planar boundary: all three conditions hold
    chart("chart-quartic-cap", _quartic_cap_polar(), [1, "hi"],
          rng.uniform(0.08, 0.12),
          {"turning": "pass", "closure": "pass", "flux": "pass"})
    # spherical bands: by Gauss-Bonnet the boundary turns by 2 pi sin(lat0)
    # only, so turning and closure fail; K is constant, so K_t B_t is zero
    # up to rounding and its sign is not gated
    for k, (lo, hi) in enumerate(((0.2, 0.6), (0.7, 1.0))):
        chart(f"chart-spherical-cap-{k}",
              _spherical_cap("spherical_cap", rng.uniform(lo, hi), 1.4),
              [1, "lo"], rng.uniform(0.2, 0.35),
              {"turning": "fail", "closure": "fail"})
    # flat annulus: the unit circle closes, but K = 0 exactly gives no flux
    chart("chart-flat-disk", _flat_disk("flat_disk_polar",
                                        rng.uniform(0.2, 0.4)),
          [1, "hi"], rng.uniform(0.3, 0.5),
          {"turning": "pass", "closure": "pass", "flux": "fail"})

    path = w.json("lemma-quartic-cap.json", _quartic_cap_polar())
    for k in range(2):
        cases.append({
            "id": f"lemma-hh-quartic-cap-{k}", "kind": "lemma",
            "surface": path, "edge": [1, "hi"],
            "depth": rng.uniform(0.08, 0.12), "n_s": 32, "n_t": 64,
            "points": 32 * 65, "expect": {"identities": "pass"},
            "surfaces": [path]})

    closing = {n: "pass" for n in _BOUNDARY_CLOSING}
    inadmissible = {n: "pass" for n in _BOUNDARY_CLOSING[:5]}
    inadmissible["admissibility"] = "fail"
    non_closing = {"turning-angle": "pass", "tangent-loop-closure": "fail",
                   "reference-curve-closure": "fail",
                   "ode-vs-closed-form": "pass"}
    # 14 fast ODE cases, then (slowest last) 2 lemma cases, the disk, the
    # bands and the cap: p75 falls inside the block of the two lemma cases
    # rather than on a step between case kinds
    plan = ([("closing", False, False, closing, 0)] * 6
            + [("inadmissible", False, True, inadmissible, 2)] * 4
            + [("non-closing", True, False, non_closing, 2)] * 4)
    for k, (tag, first_mode, bad_f, checks, code) in enumerate(plan):
        modes = _inverse_kg_modes(rng, first_mode)
        if k % 2:
            kg = w.path(f"boundary-{k}.csv")
            _write_kg_csv(kg, modes)
        else:
            kg = _kg_text(modes)
        cases.append(_cli(
            f"boundary-{tag}-{k}",
            ["boundary", "--kg", kg, "--f", _f_text(rng, bad_f),
             "--steps", str(_BOUNDARY_STEPS)],
            _BOUNDARY_STEPS, {"exit": code, "checks": checks}))
    return cases


_GENERATORS = {
    "kernel-certificate": _kernel_certificate,
    "identity-sweep": _identity_sweep,
    "boundary-charts": _boundary_charts,
}


def generate(workload, seed, workdir):
    """Write the inputs of ``workload`` for ``seed`` under ``workdir`` and
    return its case list (JSON-serializable)."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    cases = _GENERATORS[workload](rng, _Writer(workdir))
    for case in cases:
        case["workload"] = workload
    return cases
