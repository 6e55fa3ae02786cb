import contextlib
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidlab import flex, linalg
from rigidlab import surfaces as sf
from rigidlab.boundary import dong_conditions, lemma_hh_check
from rigidlab.expressions import evaluate_jet, parse_expression
from rigidlab.flex import (ExpressionField, FlexError, TrivialMotion,
                           assemble_flex_operator, boundary_adapted_field,
                           closed_one_form_residual, first_order_residual,
                           kernel_dimension, phi_relation_residual,
                           random_trivial_motion, rotation_data,
                           trivial_motion_count, w_tensor)
from rigidlab.geometry import geodesic_boundary_chart, interior_points
from rigidlab.highdim import decompose_rotation_bivector


def expr_field(*components, dim=2):
    return ExpressionField(tuple(parse_expression(c, dim)
                                 for c in components))


SPHERE_PTS = np.array([[0.3, 0.2], [2.1, -0.7], [4.0, 1.0]])


def test_trivial_motion_validation():
    with pytest.raises(FlexError):
        TrivialMotion(((0.0, 1.0), (1.0, 0.0)), (0.0, 0.0))
    tm = TrivialMotion.from_axis((0.0, 0.0, 1.0))
    assert np.array_equal(tm.matrix, -tm.matrix.T)


def test_first_order_residual_examples():
    sphere = sf.sphere(1.0)
    const = TrivialMotion(((0,) * 3,) * 3, (0.0, 0.0, 1.0))
    assert np.max(np.abs(first_order_residual(sphere, const,
                                              SPHERE_PTS))) < 1e-15
    rot = TrivialMotion.from_axis((0.0, 0.0, 1.0))
    assert np.max(np.abs(first_order_residual(sphere, rot,
                                              SPHERE_PTS))) < 1e-14
    dilation = expr_field("cos(x1)*cos(x2)", "sin(x1)*cos(x2)", "sin(x2)")
    res = first_order_residual(sphere, dilation, SPHERE_PTS)
    g = np.stack([np.eye(2) * np.array([np.cos(t) ** 2, 1.0])
                  for t in SPHERE_PTS[:, 1]])
    assert res == pytest.approx(2.0 * g, abs=1e-13)


def test_rotation_vector_recovers_generator():
    sphere = sf.sphere(1.0)
    const = TrivialMotion(((0,) * 3,) * 3, (0.3, -0.7, 0.9))
    rot = rotation_data(sphere, const, SPHERE_PTS)
    assert np.max(np.abs(rot.y)) < 1e-14
    axis = (0.4, -1.1, 0.6)
    spin = TrivialMotion.from_axis(axis, (0.0, 0.2, -0.1))
    rot = rotation_data(sphere, spin, SPHERE_PTS)
    assert rot.y == pytest.approx(np.broadcast_to(axis, rot.y.shape),
                                  abs=1e-13)
    assert np.max(np.abs(rot.dy)) < 1e-12
    assert np.max(rot.tangency_residual) < 1e-12
    assert rot.is_flex.all()


def test_dilation_is_flagged_not_a_flex():
    sphere = sf.sphere(1.0)
    dilation = expr_field("cos(x1)*cos(x2)", "sin(x1)*cos(x2)", "sin(x2)")
    rot = rotation_data(sphere, dilation, SPHERE_PTS)
    assert not rot.is_flex.any()
    assert np.min(rot.rotation_residual) > 0.1


def test_is_flex_verdict_does_not_depend_on_the_batch():
    sphere = sf.sphere(1.0)
    tau = expr_field("0", "0", "1e-7*x1 + 1e3*x1^8")
    pts = np.array([[0.05, 0.2], [3.0, 0.2]])
    batched = rotation_data(sphere, tau, pts).is_flex
    alone = [rotation_data(sphere, tau, p[None]).is_flex[0] for p in pts]
    assert not alone[0]
    assert list(batched) == alone


@pytest.mark.parametrize("orientation", ["outward", "inward"])
@pytest.mark.parametrize("chart", ["plane_graph", "sheared_cylinder"])
def test_rotation_pipeline_agrees_across_modules(chart, orientation):
    # a vertical flex of the plane, and a bending of the unit cylinder
    # (rotation angle s about the axis) on a chart with g != identity
    if chart == "plane_graph":
        components = ["x1", "x2", "1"]
        tau = expr_field("0", "0", "x1^3*x2 + x2^2 - 0.5*x1*x2")
    else:
        components = ["cos(x1)", "sin(x1)", "x2 + 0.5*x1^2"]
        tau = expr_field("-(x1*sin(x1) + cos(x1))", "x1*cos(x1) - sin(x1)",
                         "0")
    surf = sf.load_surface({
        "name": chart, "dim": 2, "components": components,
        "domain": [[-1, 1], [-1, 1]], "periodic": [False, False],
        "orientation": orientation})
    pts = np.array([[0.2, -0.4], [0.5, 0.1], [-0.3, 0.6]])
    wt = w_tensor(surf, tau, pts)
    dec = decompose_rotation_bivector(surf, tau, pts)
    assert np.max(np.abs(wt.w - dec.w_sym)) <= 1e-12
    assert np.max(dec.symmetry_residual) <= 1e-12
    rot = rotation_data(surf, tau, pts)
    assert rot.is_flex.all()
    assert np.max(np.abs(rot.y - np.stack([dec.rotation[..., 2, 1],
                                           dec.rotation[..., 0, 2],
                                           dec.rotation[..., 1, 0]],
                                          axis=-1))) <= 1e-14


def test_w_tensor_vanishes_for_trivial_motions():
    rng = np.random.default_rng(1)
    for surf in (sf.sphere(1.0), sf.ellipsoid(), sf.saddle()):
        pts = interior_points(surf, 25, rng)
        wt = w_tensor(surf, random_trivial_motion(rng), pts)
        assert np.max(np.abs(wt.w)) < 1e-10, surf.name
        assert np.max(wt.symmetry_residual) < 1e-10
        assert np.max(wt.trace_residual) < 1e-10
        assert np.max(wt.codazzi_residual) < 1e-10


def test_plane_graph_flex_w_is_minus_hessian():
    plane1 = sf.load_surface({
        "name": "lifted_plane", "dim": 2,
        "components": ["x1", "x2", "1"],
        "domain": [[-1, 1], [-1, 1]], "periodic": [False, False]})
    f_text = "x1^3*x2 + x2^2 - 0.5*x1*x2"
    tau = expr_field("0", "0", f_text)
    pts = np.array([[0.2, -0.4], [0.5, 0.1], [-0.3, 0.6]])
    wt = w_tensor(plane1, tau, pts)
    jet = evaluate_jet(parse_expression(f_text, 2), pts, order=3)
    assert wt.w == pytest.approx(-jet.hess, abs=1e-13)
    assert wt.w_cov == pytest.approx(-np.moveaxis(jet.third, -1, -3),
                                     abs=1e-13)
    assert np.max(wt.codazzi_residual) < 1e-13
    res = phi_relation_residual(plane1, tau, pts)
    assert np.max(res.max_residual) < 1e-13
    assert not res.skipped.any()


def test_phi_relation_for_trivial_motions():
    rng = np.random.default_rng(2)
    moved = sf.rigid_motion(sf.sphere(1.0), np.eye(3),
                            np.array([0.0, 0.0, 2.0]))
    for surf in (sf.sphere(1.0), moved, sf.ellipsoid()):
        pts = interior_points(surf, 25, rng)
        res = phi_relation_residual(surf, random_trivial_motion(rng), pts)
        assert np.max(res.max_residual) < 1e-8, surf.name
        assert np.max(res.b_field_residual) < 1e-8, surf.name


def test_phi_relation_skips_support_degenerate_points():
    res = phi_relation_residual(sf.plane(), random_trivial_motion(
        np.random.default_rng(3)), np.array([[0.1, 0.2]]))
    assert res.skipped.all()


def _count_jet_evaluations(monkeypatch):
    """Orders of every evaluate_jet call any rigidlab module makes."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs.get("order"))
        return evaluate_jet(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.startswith("rigidlab.")
                and getattr(module, "evaluate_jet", None) is evaluate_jet):
            monkeypatch.setattr(module, "evaluate_jet", counted)
    return calls


def test_phi_relation_evaluates_each_chart_jet_once(monkeypatch):
    calls = _count_jet_evaluations(monkeypatch)
    surf = sf.ellipsoid()
    pts = interior_points(surf, 10, np.random.default_rng(5))
    res = phi_relation_residual(surf, random_trivial_motion(
        np.random.default_rng(6)), pts)
    # one order-3 frame serves the rotation, w and the support data, and
    # its three components come from one run of the chart's program
    assert calls == [3]
    assert np.max(res.max_residual) < 1e-8


def _chart_jet_consumers():
    surf = sf.ellipsoid()
    pts = interior_points(surf, 10, np.random.default_rng(5))
    motion = random_trivial_motion(np.random.default_rng(6))
    op = assemble_flex_operator(sf.sphere(), grid=(8, 6))
    chart = geodesic_boundary_chart(sf.quartic_cap_polar(), (1, "hi"),
                                    depth=0.1, n_s=32, n_t=64)
    spin = TrivialMotion.from_axis((0.0, 0.0, 1.0))
    return {
        "w_tensor": lambda: w_tensor(surf, motion, pts),
        "first_order_residual": lambda: first_order_residual(
            surf, motion, pts),
        "closed_one_form_residual": lambda: closed_one_form_residual(
            sf.sphere(), motion, spin, grid=(12, 8)),
        "evaluate_field": lambda: op.evaluate_field(motion),
        "lemma_hh_check": lambda: lemma_hh_check(chart),
        "dong_conditions": lambda: dong_conditions(chart),
    }


@pytest.mark.parametrize("consumer, orders", [
    # one call per chart: its components come from one program run
    ("w_tensor", [3]),
    ("first_order_residual", [1]),
    ("closed_one_form_residual", [2]),
    # trivial-motion coordinates come from the operator's grid positions
    ("evaluate_field", []),
    # the geodesic chart keeps the frame of its points
    ("lemma_hh_check", []),
    ("dong_conditions", []),
])
def test_chart_jets_are_evaluated_once_per_point_set(monkeypatch, consumer,
                                                      orders):
    run = _chart_jet_consumers()[consumer]
    calls = _count_jet_evaluations(monkeypatch)
    run()
    assert calls == orders


# -- closed one-form ----------------------------------------------------------

def test_closed_one_form_trivial_cases():
    sphere = sf.sphere(1.0)
    tau = TrivialMotion.from_axis((0.2, 0.5, -0.3), (0.1, 0.0, 0.4))
    for e_fld in (TrivialMotion(((0,) * 3,) * 3, (0.0, 0.0, 1.0)),
                  TrivialMotion.from_axis((1.0, 0.0, 0.0))):
        res = closed_one_form_residual(sphere, tau, e_fld, grid=(32, 24))
        assert res.max_curl < 1e-7
        assert res.precondition_residual < 1e-12


def test_closed_one_form_nontrivial_flex_on_plane():
    plane1 = sf.load_surface({
        "name": "lifted_plane", "dim": 2,
        "components": ["x1", "x2", "1"],
        "domain": [[-1, 1], [-1, 1]], "periodic": [False, False]})
    # vertical polynomial flex: omega is a polynomial one-form of degree 4,
    # so 4th-order differencing of its curl is exact to rounding
    tau = expr_field("0", "0", "x1^3*x2 + x2^3 - x1*x2")
    spin = TrivialMotion.from_axis((0.0, 0.0, 1.0))
    res = closed_one_form_residual(plane1, tau, spin, grid=(24, 24))
    assert res.omega_scale > 0.1           # genuinely nonzero one-form
    assert res.max_curl < 1e-12


def test_closed_one_form_rejects_non_isometric_direction_field():
    sphere = sf.sphere(1.0)
    tau = TrivialMotion.from_axis((0.0, 0.0, 1.0))
    dilation = expr_field("cos(x1)*cos(x2)", "sin(x1)*cos(x2)", "sin(x2)")
    with pytest.raises(FlexError):
        closed_one_form_residual(sphere, tau, dilation, grid=(16, 12))


def test_boundary_adapted_field_examples():
    c1, c2, motion = boundary_adapted_field((0.0, 0.0, 1.0), (1.0, 0.0, 0.0),
                                            1.0, 1.0)
    assert (c1, c2) == pytest.approx((-1.0, -1.0))
    c1, c2, _ = boundary_adapted_field((0.0, 0.0, 1.0), (1.0, 0.0, 0.0),
                                       0.0, 0.0)
    assert (c1, c2) == pytest.approx((0.0, 0.0))
    with pytest.raises(FlexError):
        boundary_adapted_field((0.0, 0.0, 1.0), (0.0, 0.0, 1.0), 1.0, 1.0)
    # the constructed field is exactly a trivial motion
    res = first_order_residual(sf.sphere(1.0), motion, SPHERE_PTS)
    assert np.max(np.abs(res)) < 1e-14


# -- discrete operator --------------------------------------------------------

def test_field_json_schemas():
    from rigidlab.flex import load_field

    trivial = load_field({"trivial": {"A": [[0, -1, 0], [1, 0, 0], [0, 0, 0]],
                                      "b": [0.1, 0.2, 0.3]}}, dim=2)
    assert isinstance(trivial, TrivialMotion)
    assert trivial.vector == pytest.approx([0.1, 0.2, 0.3])
    exprs = load_field({"components": ["0", "0", "x1*x2"]}, dim=2)
    assert isinstance(exprs, ExpressionField)
    with pytest.raises(FlexError):
        load_field({"nonsense": 1}, dim=2)


def test_plane_rotation_rows_vanish():
    op = assemble_flex_operator(sf.plane(), grid=(16, 16))
    coords = op.evaluate_field(TrivialMotion.from_axis((0.0, 0.0, 1.0)))
    assert np.max(np.abs(op.apply(coords))) < 1e-13


def test_disk_kernel_counts_normal_fields_plus_planar_motions():
    op = assemble_flex_operator(sf.plane(), grid=(16, 16))
    rep = kernel_dimension(op, rel_tol=1e-8)
    assert rep.dimension == 16 * 16 + 3
    assert rep.verdict == "flexible"
    assert rep.gap_ratio > 1e3


def test_sphere_small_grid_certificate():
    op = assemble_flex_operator(sf.sphere(1.0), grid=(24, 12))
    rng = np.random.default_rng(0)
    for _ in range(5):
        coords = op.evaluate_field(random_trivial_motion(rng))
        scale = max(1.0, float(np.max(np.abs(coords))))
        assert np.max(np.abs(op.apply(coords))) / scale < 1e-12
    rep = kernel_dimension(op, rel_tol=1e-8)
    assert rep.dimension == trivial_motion_count(3) == 6
    assert rep.verdict == "certified-rigid"
    assert rep.gap_ratio > 1e3


def test_sector_decomposition_matches_dense_spectrum():
    from rigidlab.flex import _sector_singular_values
    from rigidlab.linalg import singular_values

    op = assemble_flex_operator(sf.sphere(1.0), grid=(16, 8))
    rot = op.rotation
    assert rot is not None
    fast = _sector_singular_values(op, rot)
    dense = singular_values(op.matrix)
    assert fast.shape == dense.shape
    assert np.max(np.abs(fast - dense)) < 1e-12 * dense[0]
    # a chart without the revolution symmetry falls back to the dense path
    ell = assemble_flex_operator(sf.ellipsoid(), grid=(16, 8))
    assert ell.rotation is None
    rep = kernel_dimension(ell, rel_tol=1e-8)
    assert rep.dimension == 6


@pytest.mark.parametrize("surface, grid, dim", [
    (sf.ellipsoid(1.2, 1.2, 0.7), (24, 12), 6),    # closed poles
    (sf.cylinder(1.3), (24, 12), 48),               # open edges
])
def test_sector_route_matches_the_dense_oracle(surface, grid, dim):
    from rigidlab.linalg import singular_values

    op = assemble_flex_operator(surface, grid=grid)
    assert op.rotation is not None
    rep = kernel_dimension(op, rel_tol=1e-8)
    assert rep.route == "sector"
    assert rep.dimension == dim
    dense = singular_values(op.matrix)[::-1]
    assert rep.singular_values.shape == dense.shape == (op.unknown_count,)
    assert np.max(np.abs(rep.singular_values - dense)) < 1e-12 * dense[-1]


@pytest.mark.parametrize("surface", [sf.sphere(1.0), sf.saddle()])
def test_sparse_apply_matches_the_dense_matrix(surface):
    op = assemble_flex_operator(surface, grid=(16, 8))
    v = np.random.default_rng(4).standard_normal(op.unknown_count)
    dense = op.matrix @ v
    assert np.max(np.abs(op.apply(v) - dense)) < 1e-13 * np.max(np.abs(dense))
    # reduce_vector is the orthonormal projection onto the reduced basis
    grid_v = v if op.basis is None else op.basis @ v
    assert np.max(np.abs(op.reduce_vector(grid_v) - v)) < 1e-14


def test_sphere_certificate_memory():
    import tracemalloc

    tracemalloc.start()
    try:
        op = assemble_flex_operator(sf.sphere(1.0), grid=(64, 32))
        rep = kernel_dimension(op, rel_tol=1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.verdict == "certified-rigid"
    assert rep.route == "sector"
    assert peak < 250e6, f"peak {peak / 1e6:.0f} MB"


def test_sphere_certificate_beyond_the_old_unknown_limit():
    # 24576 unknowns: refused when the guard counted unknowns (20000)
    op = assemble_flex_operator(sf.sphere(1.0), grid=(128, 64))
    rep = kernel_dimension(op, rel_tol=1e-8)
    assert rep.dimension == 6
    assert rep.verdict == "certified-rigid"


def _moved(immersion, seed=3, scale=1.0):
    """The chart x -> scale Q x + b (Q a rotation), written out as
    expressions."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    q[:, 0] *= np.sign(np.linalg.det(q))
    spec = sf.surface_to_dict(immersion)
    comps = spec["components"]
    spec["components"] = [
        " + ".join([repr(float(b))] + [f"({scale * qa!r})*({c})"
                                       for qa, c in zip(row, comps)])
        for row, b in zip(q.tolist(), rng.uniform(-0.5, 0.5, 3))]
    spec["name"] += "_moved"
    return sf.load_surface(spec)


@pytest.mark.parametrize("grid", [(40, 20), (48, 24)])
def test_deflated_route_matches_the_dense_oracle(grid):
    from rigidlab.linalg import singular_values

    op = assemble_flex_operator(
        sf.ellipsoid(2.0, 1.3, 0.75), grid=grid)
    assert op.rotation is None
    rep = kernel_dimension(op, rel_tol=1e-8)
    assert rep.route == "deflated"
    assert rep.verdict == "certified-rigid" and rep.dimension == 6
    # the certificate never builds the dense operator
    assert "matrix" not in op.__dict__
    dense = singular_values(op.matrix)[::-1]
    assert abs(rep.next_sigma - dense[6]) < 1e-8 * dense[6]
    assert abs(rep.sigma_max - dense[-1]) < 1e-12 * dense[-1]
    assert rep.kernel_sigma <= 1e-8 * rep.sigma_max
    assert rep.gap_ratio == rep.next_sigma / rep.kernel_sigma
    assert rep.resolved == (6, op.unknown_count - 1)
    assert rep.singular_values.tolist() == [rep.next_sigma, rep.sigma_max]


@pytest.mark.parametrize("surface, grid, route", [
    (sf.ellipsoid(), (16, 8), "deflated"),
    (sf.ellipsoid(), (24, 12), "deflated"),
    (_moved(sf.ellipsoid()), (16, 8), "deflated"),
    (_moved(sf.sphere(1.0)), (16, 8), "deflated"),
    (sf.plane(), (12, 12), "dense"),
    (sf.saddle(), (24, 16), "dense"),
    (_moved(sf.saddle()), (16, 12), "dense"),
    (sf.quartic_cap(), (24, 16), "dense"),
    (_moved(sf.quartic_cap()), (16, 12), "dense"),
])
def test_deflated_route_agrees_with_the_dense_route(surface, grid, route):
    op = assemble_flex_operator(surface, grid=grid)
    assert op.rotation is None
    rep = kernel_dimension(op, rel_tol=1e-8)
    dense = kernel_dimension(op.matrix, rel_tol=1e-8)
    assert rep.route == route
    assert (rep.dimension, rep.verdict) == (dense.dimension, dense.verdict)
    if route == "dense":
        # the fallback is the plain dense SVD, bit for bit
        assert dense.verdict != "certified-rigid"
        assert np.array_equal(rep.singular_values, dense.singular_values)
        assert (rep.kernel_sigma, rep.next_sigma, rep.gap_ratio) == (
            dense.kernel_sigma, dense.next_sigma, dense.gap_ratio)



@pytest.mark.parametrize("surface, grid", [
    (sf.ellipsoid(), (16, 8)),                  # pole-reduced basis
    (_moved(sf.quartic_cap()), (16, 12)),       # no poles
])
def test_banded_cholesky_holds_the_whole_band(surface, grid):
    import scipy.sparse
    import scipy.sparse.linalg

    op = assemble_flex_operator(surface, grid=grid)
    a = op.operator if op.basis is None else op.operator @ op.basis
    # N + c I of the deflated route, with c = NORMAL_SHIFT ||N||_1
    normal = (a.T @ a).tocsr()
    matrix = normal + flex.NORMAL_SHIFT * scipy.sparse.linalg.norm(
        normal, 1) * scipy.sparse.identity(a.shape[1], format="csr")
    perm, band = flex._rcm_lower_band(matrix)
    assert band.flags.f_contiguous
    width, n = band.shape[0] - 1, band.shape[1]
    assert n == op.unknown_count and width < n
    # the band expanded back to a dense lower triangle is the ordered
    # matrix's lower triangle, entry for entry: nothing fell outside it
    dense = np.zeros((n, n))
    for k in range(width + 1):
        dense[np.arange(k, n), np.arange(n - k)] = band[k, :n - k]
    ordered = matrix[perm][:, perm].toarray()
    assert np.array_equal(dense, np.tril(ordered))
    solve = flex._banded_cholesky(matrix)
    b = np.random.default_rng(5).standard_normal(n)
    x = solve(b)
    assert np.linalg.norm(matrix @ x - b) <= (
        1e-12 * scipy.sparse.linalg.norm(matrix, 1) * np.linalg.norm(x))


def test_a_failed_factorization_falls_back_to_the_dense_svd(monkeypatch):
    failures = []
    factor = flex._banded_cholesky

    def recorded(matrix):
        try:
            return factor(matrix)
        except np.linalg.LinAlgError as exc:
            failures.append(exc)
            raise

    # a negative shift makes N + c I indefinite on the trivial motions
    monkeypatch.setattr(flex, "NORMAL_SHIFT", -1e-3)
    monkeypatch.setattr(flex, "_banded_cholesky", recorded)
    op = assemble_flex_operator(sf.ellipsoid(), grid=(16, 8))
    rep = kernel_dimension(op, rel_tol=1e-8)
    dense = kernel_dimension(op.matrix, rel_tol=1e-8)
    assert len(failures) == 1
    assert rep.route == "dense"
    assert (rep.dimension, rep.verdict) == (dense.dimension, dense.verdict)
    assert rep.verdict == "certified-rigid"


@pytest.mark.parametrize("surface, grid, route", [
    (sf.ellipsoid(), (16, 8), "deflated"),
    (sf.quartic_cap(), (16, 12), "dense"),
], ids=["deflated", "dense"])
@settings(max_examples=4, derandomize=True, deadline=None)
@given(scale=st.floats(0.25, 4.0), seed=st.integers(0, 2**16))
def test_kernel_verdict_is_invariant_under_similarities(surface, grid, route,
                                                        scale, seed):
    base = kernel_dimension(assemble_flex_operator(surface, grid=grid))
    moved = kernel_dimension(assemble_flex_operator(
        _moved(surface, seed=seed, scale=scale), grid=grid))
    assert base.route == route
    assert (moved.route, moved.dimension, moved.verdict) == (
        base.route, base.dimension, base.verdict)


def _scaled_about_z(immersion, scale, angle):
    """The chart x -> scale R x, R the rotation by ``angle`` about the
    z-axis, written out as expressions: a chart of revolution keeps its
    axis, so it stays on the sector route."""
    c, s = math.cos(angle), math.sin(angle)
    spec = sf.surface_to_dict(immersion)
    comps = spec["components"]
    spec["components"] = [
        " + ".join(f"({scale * qa!r})*({comp})"
                   for qa, comp in zip(row, comps) if qa)
        for row in ((c, -s, 0.0), (s, c, 0.0), (0.0, 0.0, 1.0))]
    return sf.load_surface(spec)


@pytest.mark.parametrize("surface, grid, verdict, dimension", [
    (sf.ellipsoid(1.2, 1.2, 0.8), (24, 12), "certified-rigid", 6),
    (sf.cylinder(), (16, 8), "flexible", 32),
], ids=["spheroid", "cylinder"])
def test_sector_verdict_is_invariant_under_similarities(surface, grid,
                                                        verdict, dimension):
    base = kernel_dimension(assemble_flex_operator(surface, grid=grid))
    assert (base.route, base.verdict, base.dimension) == (
        "sector", verdict, dimension)
    for scale in (1e-3, 0.1, 10.0, 1e3):
        moved = kernel_dimension(assemble_flex_operator(
            _scaled_about_z(surface, scale, 0.7), grid=grid))
        assert (moved.route, moved.verdict, moved.dimension) == (
            "sector", verdict, dimension)
        # kernel_sigma is at rounding level, so the gap ratio is not
        for name in ("sigma_max", "next_sigma"):
            assert getattr(moved, name) == pytest.approx(
                scale * getattr(base, name), rel=1e-12, abs=0.0)


def _sphere_chart(t_domain, closed_poles):
    return sf.load_surface({
        "name": "sphere_band", "dim": 2,
        "components": ["cos(x1)*cos(x2)", "sin(x1)*cos(x2)", "sin(x2)"],
        "domain": [[0.0, 2 * np.pi], list(t_domain)],
        "periodic": [True, False], "closed_poles": closed_poles})


def _torus():
    return sf.load_surface({
        "name": "torus", "dim": 2,
        "components": ["(2 + 0.5*cos(x2))*cos(x1)",
                       "(2 + 0.5*cos(x2))*sin(x1)", "0.5*sin(x2)"],
        "domain": [[0.0, 2 * np.pi], [0.0, 2 * np.pi]],
        "periodic": [True, True]})


def test_doubly_periodic_differences_converge():
    # one node per period on both axes: D = centered + forward is about
    # 2 d/dt with a first-order error, which halves on the refined grid
    from rigidlab.flex import _difference_matrices, _grid_axes
    torus = _torus()
    errors = []
    for grid in ((32, 16), (64, 32)):
        (s, h_s), (t, h_t) = _grid_axes(torus, grid)
        s, t = (a.ravel() for a in np.meshgrid(s, t, indexing="ij"))
        r = np.stack([(2 + 0.5 * np.cos(t)) * np.cos(s),
                      (2 + 0.5 * np.cos(t)) * np.sin(s), 0.5 * np.sin(t)], 1)
        r_t = 0.5 * np.stack([-np.sin(t) * np.cos(s),
                              -np.sin(t) * np.sin(s), np.cos(t)], 1)
        d_t = _difference_matrices(torus, grid, h_s, h_t)[1]
        errors.append(np.max(np.abs(d_t @ r - 2 * r_t)))
    assert errors[1] <= 0.55 * errors[0], errors


def _oracle_operator(immersion, grid, positions):
    """The operator entry by entry from the FlexOperator docstring, in plain
    loops: row 3 k + p of node k and pair p = (a, b) is
    D_a r . D_b tau + D_b r . D_a tau."""
    ns, nt = grid
    closed = immersion.closed_poles or (False, False)
    r = positions.reshape(-1, 3)

    def neighbor(i, j, axis, off):
        """Node ``off`` steps along ``axis``: wrapped, mirrored through a
        closed pole, or None past an open edge."""
        idx = [i, j]
        idx[axis] += off
        if immersion.periodic[axis]:
            idx[axis] %= grid[axis]
        elif axis == 1 and idx[1] < 0 and closed[0]:
            idx = [(i + ns // 2) % ns, -1 - idx[1]]
        elif axis == 1 and idx[1] >= nt and closed[1]:
            idx = [(i + ns // 2) % ns, 2 * nt - 1 - idx[1]]
        elif not 0 <= idx[axis] < grid[axis]:
            return None
        return idx[0] * nt + idx[1]

    def stencil(i, j, axis):
        lo, hi = immersion.domain[axis]
        m = grid[axis]
        if immersion.periodic[axis] or (axis == 1 and any(closed)):
            h = (hi - lo) / m
        else:
            h = (hi - lo) / (m - 1)
        centered = {-2: 1 / (12 * h), -1: -8 / (12 * h),
                   1: 8 / (12 * h), 2: -1 / (12 * h)}
        forward, backward = {0: -1 / h, 1: 1 / h}, {-1: -1 / h, 0: 1 / h}

        def fits(part):
            return all(neighbor(i, j, axis, off) is not None for off in part)

        parts = [centered] if fits(centered) else []
        parts.append(forward if fits(forward) else backward)
        if axis == 1 and j == 0 and closed[0]:
            parts.append(backward)              # through the bottom pole
        out = {}
        for part in parts:
            for off, coeff in part.items():
                k = neighbor(i, j, axis, off)
                out[k] = out.get(k, 0.0) + coeff
        return out

    n = 3 * ns * nt
    dense = np.zeros((n, n))
    for i in range(ns):
        for j in range(nt):
            k = i * nt + j
            st = [stencil(i, j, axis) for axis in range(2)]
            d_r = [sum(c * r[nb] for nb, c in s.items()) for s in st]
            for p, (a, b) in enumerate([(0, 0), (0, 1), (1, 1)]):
                for da, db in ((a, b), (b, a)):
                    for nb, c in st[db].items():
                        for alpha in range(3):
                            dense[3 * k + p, 3 * nb + alpha] += (
                                c * d_r[da][alpha])
    return dense


@pytest.mark.parametrize("surface, grid", [
    (sf.plane(), (12, 12)),                                  # open
    (sf.saddle(), (16, 8)),
    (sf.cylinder(1.3), (16, 8)),                             # periodic s
    (sf.sphere(1.0), (16, 8)),                               # both poles
    (_sphere_chart([0.0, np.pi / 2], [False, True]), (16, 8)),
    (_sphere_chart([-np.pi / 2, 0.0], [True, False]), (16, 8)),
    (_torus(), (16, 8)),                                     # doubly periodic
], ids=["plane", "saddle", "cylinder", "sphere", "top-pole-hemisphere",
        "bottom-pole-hemisphere", "torus"])
def test_operator_matches_its_stencil_definition(surface, grid):
    op = assemble_flex_operator(surface, grid=grid)
    got = op.operator.toarray()
    want = _oracle_operator(surface, grid, op.positions)
    assert got.shape == want.shape
    tol = 1e-13 * np.max(np.abs(want))
    # an entry missing from the operator or extra in it shows as a difference
    off = np.abs(got - want) > tol
    assert not off.any(), (f"{np.count_nonzero(off)} entries differ, "
                           f"{np.count_nonzero(off & (want == 0.0))} of them "
                           "absent from the stencil")


def test_kernel_verdicts_on_synthetic_spectra():
    # a gradual spectrum near the cut never certifies
    vague = np.diag(np.concatenate([np.full(6, 1e-9),
                                    np.geomspace(3e-9, 1.0, 30)]))
    rep = kernel_dimension(vague, rel_tol=1e-8)
    assert rep.verdict == "indeterminate"
    # a clear gap but fewer zeros than trivial motions is not a certificate
    short = np.diag(np.concatenate([np.full(2, 1e-14), np.ones(20)]))
    rep = kernel_dimension(short, rel_tol=1e-8)
    assert rep.dimension == 2
    assert rep.verdict == "indeterminate"
    # six exact zeros with a strong gap certify
    good = np.diag(np.concatenate([np.full(6, 1e-14),
                                   np.linspace(0.5, 2.0, 20)]))
    rep = kernel_dimension(good, rel_tol=1e-8)
    assert rep.verdict == "certified-rigid"
    assert rep.gap_ratio > 1e10


def test_grid_size_guards():
    with pytest.raises(FlexError, match="too coarse"):
        assemble_flex_operator(sf.plane(), grid=(4, 16))
    with pytest.raises(FlexError, match="exceed"):
        assemble_flex_operator(sf.plane(), grid=(100, 70))


def test_pole_wrap_validated_against_the_chart():
    bogus = sf.load_surface({
        "name": "fake_poles", "dim": 2,
        "components": ["cos(x1)", "sin(x1)", "x2"],
        "domain": [[0.0, 2 * np.pi], [-1.0, 1.0]],
        "periodic": [True, False], "closed_poles": [True, True]})
    with pytest.raises(FlexError, match="wrap"):
        assemble_flex_operator(bogus, grid=(16, 8))


def test_non_finite_chart_positions_are_refused_before_any_spectrum():
    overflow = sf.load_surface({
        "name": "steep_graph", "dim": 2,
        "components": ["x1", "x2", "x1^100000000"],
        "domain": [[0.0, 2.0], [-1.0, 1.0]], "periodic": [False, False]})
    # x1 = 16 / 15 at i = 8 is the first node past 1, where the power
    # overflows
    with pytest.raises(FlexError, match=r"grid node \(8, 0\)"):
        assemble_flex_operator(overflow, grid=(16, 8))


def test_a_degenerate_discrete_metric_is_refused_at_its_node():
    double_cone = sf.load_surface({
        "name": "double_cone", "dim": 2,
        "components": ["x2*cos(x1)", "x2*sin(x1)", "x2"],
        "domain": [[0.0, 2 * np.pi], [-1.0, 1.0]], "periodic": [True, False]})
    # the apex x2 = 0 is the middle ring, j = 4 of 9; D_0 r vanishes there
    with pytest.raises(FlexError, match=r"degenerate discrete metric at "
                                        r"grid node \(0, 4\)"):
        assemble_flex_operator(double_cone, grid=(16, 9))
    # an even ring count puts no ring at the apex
    assert assemble_flex_operator(double_cone, grid=(16, 8)).grid == (16, 8)


def _traced_peak(call):
    import tracemalloc

    tracemalloc.start()
    try:
        result = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("surface", [_moved(sf.quartic_cap()), sf.saddle()],
                         ids=["moved-quartic-cap", "saddle"])
def test_dense_route_spectrum_is_the_svd_of_the_oracle(surface):
    import scipy.linalg

    op = assemble_flex_operator(surface, grid=(24, 12))
    rep = kernel_dimension(op, rel_tol=1e-8)
    assert rep.route == "dense"
    assert (rep.singular_values[::-1].tobytes()
            == scipy.linalg.svdvals(op.matrix).tobytes())


def test_dense_route_factors_one_copy_of_the_operator():
    op = assemble_flex_operator(sf.quartic_cap(), grid=(24, 12))
    rep, peak = _traced_peak(lambda: kernel_dimension(op, rel_tol=1e-8))
    assert rep.route == "dense"
    # the cached oracle is not built; gesdd overwrites the one dense copy
    assert "matrix" not in op.__dict__
    assert peak <= 1.3 * op.matrix.nbytes, (peak, op.matrix.nbytes)


def _blas_threads():
    """The current count of every OpenBLAS setter, left as read."""
    counts = []
    for setter in linalg._openblas_thread_setters():
        count = setter(1)
        setter(count)
        counts.append(count)
    return counts


@contextlib.contextmanager
def _blas_threads_at(count):
    """Every OpenBLAS setter at ``count`` for the block, then back at its
    count before."""
    setters = linalg._openblas_thread_setters()
    previous = [setter(count) for setter in setters]
    try:
        yield
    finally:
        for setter, before in zip(setters, previous):
            setter(before)


@pytest.fixture
def two_blas_threads():
    """Two OpenBLAS threads for the test, so that one thread
    inside a route differs from the caller's count."""
    if not linalg._openblas_thread_setters():
        pytest.skip("no OpenBLAS with openblas_set_num_threads_local")
    with _blas_threads_at(2):
        yield _blas_threads()


def _record_blas_threads(monkeypatch, names):
    """Wrap each flex function in ``names`` to log the BLAS thread counts it
    runs at, in call order, as (name, counts)."""
    seen = []

    def recording(name, function):
        def recorded(*args, **kwargs):
            seen.append((name, _blas_threads()))
            return function(*args, **kwargs)
        return recorded

    for name in names:
        monkeypatch.setattr(flex, name, recording(name, getattr(flex, name)))
    return seen


@pytest.mark.parametrize("surface, grid, route, calls", [
    (sf.sphere(1.0), (16, 8), "sector", ["_sector_singular_values"]),
    (sf.ellipsoid(), (16, 8), "deflated",
     ["_deflated_certificate", "singular_values"]),
    # the deflated route declines, then the dense SVD decides
    (sf.saddle(), (16, 8), "dense",
     ["_deflated_certificate", "singular_values", "singular_values"]),
], ids=["sector", "deflated", "dense"])
def test_only_the_dense_svd_keeps_the_callers_blas_threads(
        monkeypatch, two_blas_threads, surface, grid, route, calls):
    op = assemble_flex_operator(surface, grid=grid)
    seen = _record_blas_threads(monkeypatch, [
        "_sector_singular_values", "_deflated_certificate",
        "singular_values"])
    rep = kernel_dimension(op)
    assert rep.route == route
    assert [name for name, _ in seen] == calls
    one = [1] * len(two_blas_threads)
    dense = two_blas_threads if route == "dense" else one
    # every call but the dense route's own SVD runs at one thread
    assert [counts for _, counts in seen] == [one] * (len(calls) - 1) + [
        dense]
    assert _blas_threads() == two_blas_threads


@pytest.mark.parametrize("name, surface", [
    ("_sector_singular_values", sf.sphere(1.0)),
    ("_deflated_certificate", sf.ellipsoid()),
])
def test_blas_threads_are_restored_when_a_route_raises(
        monkeypatch, two_blas_threads, name, surface):
    op = assemble_flex_operator(surface, grid=(16, 8))
    seen = []

    def failing(*args):
        seen.append(_blas_threads())
        raise FlexError("route failed")

    monkeypatch.setattr(flex, name, failing)
    with pytest.raises(FlexError, match="route failed"):
        kernel_dimension(op)
    assert seen == [[1] * len(two_blas_threads)]
    assert _blas_threads() == two_blas_threads


def test_blas_discovery_without_proc_finds_nothing(monkeypatch):
    def no_proc(path, *args, **kwargs):
        raise FileNotFoundError(path)

    monkeypatch.setattr(linalg, "open", no_proc, raising=False)
    assert linalg._openblas_thread_setters.__wrapped__() == ()


@pytest.mark.parametrize("surface, grid, route", [
    (sf.sphere(1.0), (32, 16), "sector"),
    (sf.cylinder(1.3), (16, 8), "sector"),
    (sf.ellipsoid(), (24, 12), "deflated"),
], ids=["sphere", "cylinder", "ellipsoid"])
def test_single_threaded_routes_are_bitwise_the_one_thread_call(
        two_blas_threads, surface, grid, route):
    op = assemble_flex_operator(surface, grid=grid)
    rep = kernel_dimension(op)
    assert rep.route == route
    if route == "sector":
        got = rep.singular_values

        def direct():
            return flex._sector_singular_values(op, op.rotation)[::-1]
    else:
        got = np.array([rep.kernel_sigma, rep.next_sigma, rep.sigma_max])

        def direct():
            return np.array(flex._deflated_certificate(op, 1e-8))
    # the route function called directly at one thread, whatever the
    # caller's count: at two threads this ellipsoid's mu can differ in its
    # last bit (OpenBLAS 0.3.31, Haswell kernels)
    with _blas_threads_at(1):
        assert np.array_equal(got, direct())
    if route == "sector":
        # and at the caller's two threads: blocks of 3 nt <= 48 columns
        # stay below OpenBLAS's threading thresholds
        assert np.array_equal(got, direct())


def _full_fft_sector_values(op):
    """The sector spectrum by the full DFT of ring 0's dense rows over all
    ns column rings and one SVD per mode m = 0..ns-1."""
    import scipy.linalg

    ns, nt = op.grid
    delta = 2.0 * np.pi / ns
    c = 1.0 / np.sqrt(2.0)
    u = np.array([[c, c, 0.0], [1j * c, -1j * c, 0.0], [0.0, 0.0, 1.0]])
    eig = np.diag(u.conj().T @ op.rotation @ u)
    freqs = np.round(np.angle(eig) / delta).astype(int)
    ring = op.operator[:3 * nt].toarray().reshape(3 * nt, ns, nt, 3)
    modes = np.fft.ifft(ring, axis=1, norm="forward") @ u
    poles = [j for j, flag in zip((0, nt - 1),
                                  op.immersion.closed_poles or ()) if flag]
    svals = []
    for m in range(ns):
        cols = []
        for d in range(3):
            k = (m + freqs[d]) % ns
            keep = [j for j in range(nt)
                    if j not in poles or k in (0, 1, ns - 1)]
            cols.append(modes[:, k, keep, d])
        svals.append(scipy.linalg.svdvals(np.concatenate(cols, axis=1)))
    return np.sort(np.concatenate(svals))[::-1]


@pytest.mark.parametrize("surface, grid", [
    (sf.sphere(1.0), (16, 8)),
    (sf.ellipsoid(1.2, 1.2, 0.7), (24, 12)),
    (sf.cylinder(1.3), (24, 12)),
    (_sphere_chart([-np.pi / 2, 0.0], [True, False]), (16, 8)),
    (sf.cylinder(1.3), (15, 8)),
], ids=["sphere", "spheroid", "cylinder", "hemisphere", "odd-ns-cylinder"])
def test_sector_route_matches_a_full_fft_reference(surface, grid):
    from rigidlab.flex import _sector_singular_values

    op = assemble_flex_operator(surface, grid=grid)
    assert op.rotation is not None
    fast = _sector_singular_values(op, op.rotation)
    reference = _full_fft_sector_values(op)
    assert fast.shape == reference.shape == (op.unknown_count,)
    assert np.max(np.abs(fast - reference)) <= 1e-12 * reference[0]


def test_sector_spectrum_memory():
    # the full-DFT route held ring 0's dense rows over all 96 column rings
    # and two complex copies of them, about 80 MB
    op = assemble_flex_operator(sf.sphere(1.0), grid=(96, 48))
    rep, peak = _traced_peak(lambda: kernel_dimension(op, rel_tol=1e-8))
    assert rep.route == "sector" and rep.verdict == "certified-rigid"
    assert peak < 25e6, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("motion", ["trivial", "dilation"])
def test_flex_pointwise_pipeline_does_not_depend_on_the_batch(
        motion, assert_batch_invariant):
    ellipsoid = sf.ellipsoid()
    fld = (random_trivial_motion(np.random.default_rng(4))
           if motion == "trivial" else ExpressionField(ellipsoid.components))
    pts = interior_points(ellipsoid, 3000, np.random.default_rng(5))
    for check in (rotation_data, w_tensor, phi_relation_residual,
                  decompose_rotation_bivector):
        assert_batch_invariant(lambda p: check(ellipsoid, fld, p), pts)


# -- closed-form bendings of caps ---------------------------------------------

# On the unit sphere, colatitude theta = pi/2 - x2, longitude x1 and
# u = tan(theta / 2), phi_m = u^m (m + cos theta) cos(m x1) solves the
# Darboux equation lap phi + 2 phi = 0 away from the antipode u = inf, and
# tau_m below (dtau_m = Y x dr, Y = grad phi_m + phi_m n) is a bending of
# every cap that omits the antipode.  A linear map A carries it to the
# bending A^-T tau_m of the image cap (Darboux-Sauer).
_U = f"tan({math.pi / 4!r} - x2/2)"
_CAP_BENDINGS = {
    2: (f"2*({_U})^3*(cos(2*x1) + 2)*sin(x1)",
        f"2*({_U})^3*(2 - cos(2*x1))*cos(x1)",
        f"({_U})^2*(3 - ({_U})^2)*sin(2*x1)"),
    4: (f"2*({_U})^5*(24*sin(x1)^4 - 40*sin(x1)^2 + 15)*sin(x1)",
        f"2*({_U})^5*(-24*cos(x1)^4 + 40*cos(x1)^2 - 15)*cos(x1)",
        f"({_U})^4*(5 - 3*({_U})^2)*sin(4*x1)"),
}
_CAP_AXES = {"hemisphere": (1.0, 1.0, 1.0),
             "half-ellipsoid": (2.0, 1.3, 0.75)}


def _upper_cap(axes):
    """The upper half of the ellipsoid with semi-axes ``axes``, free at the
    equator and closed at the pole."""
    a, b, c = map(repr, axes)
    return sf.load_surface({
        "name": "upper_cap", "dim": 2,
        "components": [f"{a}*cos(x1)*cos(x2)", f"{b}*sin(x1)*cos(x2)",
                       f"{c}*sin(x2)"],
        "domain": [[0.0, 2 * math.pi], [0.0, math.pi / 2]],
        "periodic": [True, False], "closed_poles": [False, True]})


def _cap_bending(m, axes):
    return expr_field(*(f"({text})/(1 + ({_U})^2)/{scale!r}"
                        for text, scale in zip(_CAP_BENDINGS[m], axes)))


@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("cap", list(_CAP_AXES))
def test_closed_form_cap_bendings_pass_the_pointwise_suite(cap, m):
    axes = _CAP_AXES[cap]
    surf, tau = _upper_cap(axes), _cap_bending(m, axes)
    pts = interior_points(surf, 300, np.random.default_rng(m))
    assert np.max(np.abs(first_order_residual(surf, tau, pts))) < 1e-12
    wt = w_tensor(surf, tau, pts)
    assert np.max(np.abs(wt.w)) > 1.0          # a bending, not a motion
    assert np.max(wt.symmetry_residual) < 1e-12
    assert np.max(wt.trace_residual) < 1e-12
    assert np.max(wt.codazzi_residual) < 1e-12
    phi = phi_relation_residual(surf, tau, pts)
    assert not phi.skipped.any()
    assert np.max(phi.max_residual) < 1e-12
    assert np.max(phi.b_field_residual) < 1e-12
    rot = rotation_data(surf, tau, pts)
    assert rot.is_flex.all()
    if cap == "hemisphere":                    # n . Y is the Darboux phi_m
        theta = np.pi / 2 - pts[:, 1]
        phi_m = (np.tan(theta / 2) ** m * (m + np.cos(theta))
                 * np.cos(m * pts[:, 0]))
        assert np.max(np.abs(rot.w_scalar - phi_m)) < 1e-12


@pytest.mark.parametrize("cap", list(_CAP_AXES))
def test_closed_form_cap_bending_lies_in_the_discrete_kernel(cap):
    # the sampled m = 2 bending, orthogonal to the trivial motions, is
    # carried by the right singular vectors with sigma < 1e-5 sigma_max.
    # They are the eigenvectors of A^T A under 1e-10 of its largest
    # eigenvalue, a cut six decades above its rounding floor, found in a
    # third of the time of the SVD
    axes = _CAP_AXES[cap]
    op = assemble_flex_operator(_upper_cap(axes), grid=(32, 16))
    v = op.evaluate_field(_cap_bending(2, axes))
    trivial = flex._trivial_basis(op)
    v = v - trivial @ (trivial.T @ v)
    sigma_sq, vectors = np.linalg.eigh(op.matrix.T @ op.matrix)
    small = vectors[:, sigma_sq < 1e-10 * sigma_sq[-1]]
    weight = np.sum((small.T @ v) ** 2) / np.sum(v ** 2)
    assert weight >= 0.99, weight
