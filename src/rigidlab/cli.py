"""Command line interface: surface/pair/flex/boundary check suites with a
deterministic JSON report.

Exit codes: 0 all non-skip checks pass, 2 at least one failure, 3 kernel
verdict indeterminate (and nothing failed), 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import math
import os
import sys

import numpy as np

from . import boundary as bd
from . import darboux as dx
from . import flex as fx
from . import geometry as gm
from . import highdim as hd
from . import pairs as pr
from . import surfaces as sf
from .jets import RigidlabError, read_input
from .linalg import contract
from .report import CheckEntry, Report

USAGE_ERROR = 64
# the pointwise suites verify about 4e5 points per second (2 cores), so
# check-surface and pair-check stop at about four minutes of sampling
MAX_POINTS = 10**8


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _grid(text):
    a, sep, b = text.lower().partition("x")
    if not (sep and a.isdecimal() and b.isdecimal()):
        raise _UsageError(f"bad grid {text!r}, expected e.g. 64x32")
    return int(a), int(b)


def _count(text):
    if not text.isdecimal():
        raise _UsageError(f"bad count {text!r}, expected an integer >= 0")
    return int(text)


def _points(text):
    count = _count(text)
    if count > MAX_POINTS:
        raise _UsageError(f"--points {count} exceeds the limit {MAX_POINTS}")
    return count


def _tolerance(text):
    try:
        value = float(text)
        if not 0.0 <= value < 1.0:          # NaN fails the comparison too
            raise ValueError
    except ValueError as exc:
        raise _UsageError(f"bad tolerance {text!r}, expected a finite "
                          "number in [0, 1)") from exc
    return value


@functools.cache          # parsing leaves no state in the parser
def build_parser():
    parser = _Parser(prog="rigidlab",
                     description="numerical rigidity checks for immersed "
                                 "surface charts")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=_count, default=0)
        p.add_argument("--report", help="write the JSON report here")

    p = sub.add_parser("check-surface", help="pointwise identity suite")
    p.add_argument("surface", help="catalog name or surface JSON file")
    p.add_argument("--grid", type=_grid, default=(32, 32))
    p.add_argument("--points", type=_points, default=200)
    common(p)

    p = sub.add_parser("pair-check", help="isometric-pair diagnostics")
    p.add_argument("pair", help="pair JSON file: {surfaces: [a, b], "
                                "tolerance: t}")
    p.add_argument("--points", type=_points, default=100)
    common(p)

    p = sub.add_parser("flex-kernel", help="discrete kernel certification")
    p.add_argument("surface")
    p.add_argument("--grid", type=_grid, default=(64, 32))
    p.add_argument("--svd-tol", type=_tolerance, default=1e-8)
    common(p)
    p.add_argument("--csv-dir", help="write singular_values.csv (index, "
                                     "sigma; ascending) into this directory: "
                                     "the full spectrum on the sector and "
                                     "dense routes, only the resolved sigma_7 "
                                     "and sigma_max on the deflated route")

    p = sub.add_parser("pointwise-gauss", help="rank-based pointwise "
                                               "rigidity test")
    p.add_argument("--h", help="comma-separated diagonal of h")
    p.add_argument("--h-file", help="JSON file with {\"h\": [[...]]}")
    p.add_argument("--dim", type=_count, default=None)
    p.add_argument("--rank-tol", type=_tolerance, default=1e-10)
    common(p)

    p = sub.add_parser("boundary", help="boundary profile suite")
    p.add_argument("--kg", default="1", help="k_g as an expression in x1 "
                                             "(the turning angle) or a "
                                             "CSV sample file")
    p.add_argument("--f", default="0", help="inhomogeneity F/k_g in x1")
    p.add_argument("--steps", type=int, default=4096)
    common(p)
    p.add_argument("--csv-dir", help="write boundary_series.csv (theta, x1, "
                                     "x2, U, V) into this directory")

    p = sub.add_parser("catalog", help="list shipped surfaces")
    common(p)
    return parser


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------

def _surface_inputs(immersion):
    return {"surface": immersion.name, "dim": immersion.dim}


def _point_blocks(immersion, count, rng, tail=None):
    """The sample points in consecutive blocks of at most
    ``gm.POINT_BLOCK``: ``count`` interior points drawn from ``rng`` block
    by block (bitwise one draw of all of them), then the rows of ``tail``."""
    tail = np.empty((0, immersion.dim)) if tail is None else tail
    total, block = count + len(tail), gm.POINT_BLOCK
    for start in range(0, total, block):
        stop = min(start + block, total)
        drawn = gm.interior_points(immersion, max(min(stop, count) - start, 0),
                                   rng)
        yield np.concatenate(
            [drawn, tail[max(start - count, 0):max(stop - count, 0)]])


def _fold_max(worst, **values):
    """Fold each block's residual array into its running maximum in
    ``worst``; NaN propagates as in one np.max over the whole batch."""
    for name, value in values.items():
        worst[name] = np.maximum(worst.get(name, -np.inf), np.max(value))


def run_check_surface(args):
    immersion = sf.load_surface(args.surface)
    report = Report(command="check-surface", seed=args.seed,
                    inputs={**_surface_inputs(immersion),
                            "grid": list(args.grid), "points": args.points})
    on_grid = immersion.dim == len(args.grid)
    total = args.points + (math.prod(args.grid) if on_grid else 0)
    if total > MAX_POINTS:
        raise _UsageError(f"--points {args.points} and --grid "
                          f"{'x'.join(map(str, args.grid))} give {total} "
                          f"points, which exceeds the limit {MAX_POINTS}")
    if total == 0:
        raise _UsageError("check-surface needs at least one sample point "
                          "(--points or --grid)")
    grid_pts = gm.sample_grid(immersion, args.grid, margin=0.02).reshape(
        -1, immersion.dim) if on_grid else None
    # every check is a max of residuals, a min eigenvalue or a count, so
    # folding them block by block gives the bits of one whole-batch pass
    worst, eigmin, skipped = {}, np.inf, 0
    rng = np.random.default_rng(args.seed)
    for pts in _point_blocks(immersion, args.points, rng, grid_pts):
        frame = gm.frame_at(immersion, pts, order=3)
        _fold_max(
            worst,
            unit=np.abs(contract("...a,...a->...", frame.normal,
                                 frame.normal) - 1),
            orth=np.abs(contract("...a,...ai->...i", frame.normal,
                                 frame.tangents)),
            codazzi=gm.codazzi_residual(frame))
        eigmin = np.minimum(eigmin,
                            np.linalg.eigvalsh(frame.metric)[..., 0].min())
        sup = dx.support_at(frame)
        shape = dx.verify_shape_identity(frame, sup)
        skipped += int(np.sum(shape.skipped))
        _fold_max(worst, norm=sup.norm_residual,
                  position=sup.position_residual,
                  shape=np.where(shape.skipped, 0.0, shape.max_residual))
        if immersion.dim == 2:
            intrinsic = gm.brioschi_curvature(frame)
            scale = np.maximum(1.0, np.abs(frame.curvature))
            _fold_max(worst,
                      gauss=np.abs(intrinsic - frame.curvature) / scale,
                      monge=dx.darboux_residual(frame, sup))

    report.add(CheckEntry.residual(
        "normal-frame", max(float(worst["unit"]), float(worst["orth"])),
        1e-12, "geometry", "unit normal orthogonal to all tangents"))
    report.add(CheckEntry.condition(
        "metric-positive", bool(eigmin > 0), float(eigmin),
        "geometry", "induced metric is positive definite"))
    if immersion.dim == 2:
        report.add(CheckEntry.residual(
            "gauss-equation", float(worst["gauss"]), 1e-6, "geometry",
            "det(h)/det(g) equals the metric-only curvature"))
    report.add(CheckEntry.residual(
        "codazzi-h", float(worst["codazzi"]), 1e-8, "geometry",
        "covariant derivative of h is symmetric in all slots"))
    report.add(CheckEntry.residual(
        "support-norm", float(worst["norm"]), 1e-10, "darboux",
        "mu^2 = 2 rho - |grad rho|^2"))
    report.add(CheckEntry.residual(
        "support-position", float(worst["position"]), 1e-10,
        "darboux", "r = g^{ij} rho_i r_j + mu n"))
    if immersion.dim == 2:
        report.add(CheckEntry.residual(
            "monge-ampere", float(worst["monge"]), 1e-8, "darboux",
            "det(rho_hess - g) = K det(g) mu^2"))
    report.add(CheckEntry.residual(
        "shape-identity", float(worst["shape"]), 1e-8, "darboux",
        "h mu = rho_hess - g (skipping support-degenerate points)",
        skip=skipped == total, skipped_points=skipped))
    return report


def _load_pair(path):
    spec = read_input(path, as_json=True)
    surfaces = spec.get("surfaces") if isinstance(spec, dict) else None
    if not isinstance(surfaces, list) or len(surfaces) != 2:
        raise _UsageError("pair file needs a two-element 'surfaces' list")
    tolerance = spec.get("tolerance", 1e-10)
    if type(tolerance) not in (int, float) or not 0 <= tolerance < math.inf:
        raise _UsageError(f"bad pair tolerance {tolerance!r}, expected a "
                          "finite number >= 0")
    first, second = map(sf.load_surface, surfaces)
    if first.dim != 2 or second.dim != 2:
        raise _UsageError(f"pair-check needs surface charts (dim 2), got "
                          f"dims {first.dim} and {second.dim}")
    return pr.IsometricPair(first, second, tolerance=float(tolerance))


def run_pair_check(args):
    if args.points == 0:
        raise _UsageError("pair-check needs --points >= 1")
    pair = _load_pair(args.pair)
    report = Report(command="pair-check", seed=args.seed,
                    inputs={"first": pair.first.name,
                            "second": pair.second.name,
                            "tolerance": pair.tolerance,
                            "points": args.points})
    deviation = pr.check_isometric(pair)
    report.add(CheckEntry.residual(
        "isometry", deviation, pair.tolerance, "pairs",
        "the two charts induce the same metric"))
    if deviation > pair.tolerance:
        return report

    worst = {}
    rng = np.random.default_rng(args.seed)
    for pts in _point_blocks(pair.first, args.points, rng):
        # one order-3 frame per surface serves all three checks
        frames = tuple(gm.frame_at(s, pts, order=3)
                       for s in (pair.first, pair.second))
        d = pr.difference_tensors(frames)
        w = pr.verify_w_formula(d)
        trace, codazzi = pr.verify_gauss_trace_and_codazzi(frames, d)
        _fold_max(worst, det=d.det_residual, w=w, trace=trace,
                  codazzi=codazzi)
    report.add(CheckEntry.residual(
        "equal-h-determinants", float(worst["det"]), 1e-8, "pairs",
        "det(h) and det(h~) both equal K det(g)"))
    report.add(CheckEntry.residual(
        "w-from-support", float(worst["w"]), 1e-8, "pairs",
        "W (mu + mu~) = 2 Phi_hess + hbar (mu - mu~)"))
    report.add(CheckEntry.residual(
        "w-trace-free", float(worst["trace"]), 1e-7, "pairs",
        "hbar-trace of W vanishes (cofactor form when singular)"))
    report.add(CheckEntry.residual(
        "w-codazzi", float(worst["codazzi"]), 1e-7, "pairs",
        "covariant derivative of W is symmetric"))
    return report


def run_flex_kernel(args):
    immersion = sf.load_surface(args.surface)
    report = Report(command="flex-kernel", seed=args.seed,
                    inputs={**_surface_inputs(immersion),
                            "grid": list(args.grid),
                            "svd_tol": args.svd_tol})
    op = fx.assemble_flex_operator(immersion, grid=args.grid)
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(10):
        coords = op.evaluate_field(fx.random_trivial_motion(rng))
        scale = max(1.0, float(np.max(np.abs(coords))))
        worst = max(worst, float(np.max(np.abs(op.apply(coords)))) / scale)
    report.add(CheckEntry.residual(
        "trivial-motions-in-kernel", worst, 1e-10, "flex",
        "fields A r + b (A skew) solve the discrete system exactly"))

    ker = fx.kernel_dimension(op, rel_tol=args.svd_tol)
    verdict = ("pass" if ker.verdict in ("certified-rigid", "flexible")
               else "indeterminate")
    report.add(CheckEntry(
        name="kernel-dimension", kind="kernel", value=float(ker.dimension),
        tolerance=None, verdict=verdict, module="flex",
        claim=(_DEFLATED_CLAIM if ker.route == "deflated"
               else _SPECTRUM_CLAIM),
        metadata={"gap_ratio": ker.gap_ratio, "sigma_max": ker.sigma_max,
                  "kernel_sigma": ker.kernel_sigma,
                  "next_sigma": ker.next_sigma,
                  "rigidity_verdict": ker.verdict,
                  "expected_trivial": ker.expected_trivial,
                  "unknowns": op.unknown_count,
                  "route": ker.route,
                  "operator_shape": [op.operator.shape[0],
                                     op.unknown_count]}))
    if args.csv_dir:
        index = ker.resolved or range(len(ker.singular_values))
        _write_csv(args.csv_dir, "singular_values.csv", ["index", "sigma"],
                   zip(index, ker.singular_values))
    return report


_SPECTRUM_CLAIM = ("count of singular values under the relative threshold, "
                   "with a mandatory spectral gap")
_DEFLATED_CLAIM = ("six singular values under the relative threshold, with "
                   "a mandatory spectral gap, from the bounds kernel_sigma "
                   ">= sigma_6 (the trivial motions) and next_sigma <= "
                   "sigma_7 (their complement)")


def _parse_h(args):
    if args.h and args.h_file:
        raise _UsageError("give either --h or --h-file, not both")
    if args.h:
        try:
            h = np.diag([float(x) for x in args.h.split(",")])
        except ValueError as exc:
            raise _UsageError(f"bad --h diagonal {args.h!r}") from exc
    elif args.h_file:
        spec = read_input(args.h_file, as_json=True)
        try:
            h = np.asarray(spec["h"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise _UsageError(f"{args.h_file}: needs a numeric 'h' "
                              "matrix") from exc
    else:
        raise _UsageError("pointwise-gauss needs --h or --h-file")
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise _UsageError(f"h must be a square matrix, got shape {h.shape}")
    if args.dim is not None and args.dim != len(h):
        raise _UsageError(f"--dim {args.dim} does not match the {len(h)}x"
                          f"{len(h)} h")
    if not np.all(np.isfinite(h)):
        raise _UsageError("h has non-finite entries")
    return h


def run_pointwise_gauss(args):
    h = _parse_h(args)
    report = Report(command="pointwise-gauss", seed=args.seed,
                    inputs={"h": [list(map(float, row)) for row in h],
                            "rank_tol": args.rank_tol})
    verdict = hd.dr_rigidity_test(h, rank_tol=args.rank_tol)
    report.add(CheckEntry.condition(
        "pointwise-rigidity", verdict.verdict == "rigid",
        float(verdict.null_dimension), "highdim",
        "rank(h) >= 3 and the linearized Gauss system pins w = 0",
        rank=verdict.rank, null_dimension=verdict.null_dimension,
        rigidity_verdict=verdict.verdict))
    return report


def _kg_inputs(kg):
    """Report inputs for ``--kg``: a CSV profile is recorded by file name
    and the SHA-256 of its bytes, so the report does not depend on the
    directory the file is read from."""
    if not kg.endswith(".csv"):
        return {"kg": kg}
    with open(kg, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {"kg": os.path.basename(kg), "kg_sha256": digest}


def run_boundary(args):
    if args.steps < 1:
        raise _UsageError("boundary needs --steps >= 1")
    report = Report(command="boundary", seed=args.seed,
                    inputs={**_kg_inputs(args.kg), "f": args.f,
                            "steps": args.steps})
    if args.kg.endswith(".csv"):
        profile = bd.BoundaryProfile.from_csv(args.kg)
    else:
        profile = bd.BoundaryProfile.from_theta(args.kg)
    dong = bd.dong_conditions(profile)
    report.add(CheckEntry.residual(
        "turning-angle", dong.turning_residual, bd.DONG_TOL, "boundary",
        "total geodesic turning equals 2 pi"))
    report.add(CheckEntry.residual(
        "tangent-loop-closure", dong.closure_residual, bd.DONG_TOL,
        "boundary", "the unit tangent loop integral closes"))

    sol = bd.solve_boundary_ode(profile, args.f, c1=1.0, c2=0.5,
                                n_steps=args.steps)
    # the chain decides admissibility, and refuses before building its
    # curve; a profile that does not turn once describes no closed curve
    energy, skip = None, not dong.turning_ok
    gap = area = worst = math.nan
    if not skip:
        try:
            energy = bd.boundary_energy_inequality(profile, args.f)
            curve, residuals = energy.uv.curve, energy.uv.admissibility
        except bd.InadmissibleError as exc:
            curve = bd.reference_curve(profile)
            residuals = exc.residuals.values()
        gap, area = curve.closure_gap, curve.area
        worst = max(map(abs, residuals))
    report.add(CheckEntry.residual(
        "reference-curve-closure", gap, 1e-6, "boundary",
        "the curvature-k_g planar curve closes", skip=skip))
    report.add(CheckEntry.condition(
        "reference-curve-area", area > 0, area, "boundary",
        "the enclosed area is positive", skip=skip))
    report.add(CheckEntry.residual(
        "ode-vs-closed-form", sol.max_deviation, 1e-8, "boundary",
        "time stepping matches the quadrature solution of the boundary "
        "system"))
    report.add(CheckEntry.condition(
        "admissibility", energy is not None, worst, "boundary",
        "u and v close up and the phi_s loop integral vanishes", skip=skip))
    if energy is not None:
        uv = energy.uv
        report.add(CheckEntry.residual(
            "uv-roots", max(abs(uv.u_zero_residuals[0]),
                            abs(uv.u_zero_residuals[1])), 1e-10, "boundary",
            "the shifted antiderivative U vanishes at 0 and pi"))
        report.add(CheckEntry.residual(
            "uv-slope-identity", uv.slope_identity_residual, 1e-6,
            "boundary", "U' cot(theta) = V' away from the axis"))
        report.add(CheckEntry.residual(
            "energy-route-agreement", energy.route_agreement, 1e-6,
            "boundary", "direct and U/V evaluations of the boundary "
                        "energy agree"))
        report.add(CheckEntry(
            name="energy-inequality", kind="inequality",
            value=energy.value_direct, tolerance=1e-10,
            verdict="pass" if energy.value_direct <= 1e-10 else "fail",
            module="boundary",
            claim="the boundary energy loop integral is non-positive",
            metadata={"uv_route": energy.value_uv_route,
                      "area": uv.curve.area, "constant": uv.constant}))
        if args.csv_dir:
            _write_csv(args.csv_dir, "boundary_series.csv",
                       ["theta", "x1", "x2", "U", "V"],
                       zip(uv.theta, uv.curve.x1, uv.curve.x2,
                           uv.big_u, uv.big_v))
    return report


def run_catalog(args):
    report = Report(command="catalog", seed=args.seed, inputs={})
    for name in sf.catalog_names():
        immersion = sf.load_surface(name)
        spec = sf.surface_to_dict(immersion)
        report.add(CheckEntry.condition(
            f"catalog-{name}", True, float(immersion.dim), "geometry",
            "shipped surface definition loads and validates",
            components=spec["components"], periodic=spec["periodic"]))
    return report


def _write_csv(directory, name, header, rows):
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


_RUNNERS = {
    "check-surface": run_check_surface,
    "pair-check": run_pair_check,
    "flex-kernel": run_flex_kernel,
    "pointwise-gauss": run_pointwise_gauss,
    "boundary": run_boundary,
    "catalog": run_catalog,
}


_INPUT_ERRORS = (_UsageError, OSError, RigidlabError)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # non-finite values are refused where they arise (a chart's frame,
        # its flex mesh), so no numpy warning reaches stderr
        with np.errstate(all="ignore"):
            report = _RUNNERS[args.command](args)
        if args.report:
            report.write(args.report)
    except _INPUT_ERRORS as exc:
        print(f"rigidlab: {exc}", file=sys.stderr)
        return USAGE_ERROR
    for entry in report.entries:
        tol = "" if entry.tolerance is None else f" (tol {entry.tolerance:g})"
        print(f"[{entry.verdict.upper():>13}] {entry.name}: "
              f"{entry.value:.6g}{tol}")
    return report.exit_code()


if __name__ == "__main__":
    sys.exit(main())
