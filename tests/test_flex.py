import sys

import numpy as np
import pytest

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
    # one order-3 frame serves the rotation, w and the support data
    assert sorted(calls) == [3, 3, 3]
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
    ("w_tensor", [3, 3, 3]),
    ("first_order_residual", [1, 1, 1]),
    ("closed_one_form_residual", [2, 2, 2]),
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


def _moved(immersion, seed=3):
    """The chart x -> Q x + b (Q a rotation), written out as expressions."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    q[:, 0] *= np.sign(np.linalg.det(q))
    spec = sf.surface_to_dict(immersion)
    comps = spec["components"]
    spec["components"] = [
        " + ".join([repr(float(b))] + [f"({qa!r})*({c})"
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
