import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidlab import geometry as gm
from rigidlab import linalg
from rigidlab import surfaces as sf
from rigidlab.darboux import darboux_residual, support_at
from rigidlab.expressions import evaluate_jet, parse_expression
from rigidlab.geometry import (DegenerateFrameError, GeodesicChartError,
                               GeometryError, Immersion,
                               _geodesic_acceleration,
                               brioschi_curvature,
                               codazzi_residual, covariant_hessian, frame_at,
                               geodesic_boundary_chart, interior_points,
                               second_form_derivatives)
from rigidlab.jets import batch_first, stacked
from rigidlab.linalg import cofactor, contract
from rigidlab.quadrature import gauss_legendre

CATALOG = [sf.sphere(1.0), sf.sphere(2.0), sf.ellipsoid(), sf.cylinder(1.0),
           sf.saddle(), sf.quartic_cap()]


def test_unit_sphere_frame_at_origin_of_chart():
    fr = frame_at(sf.sphere(1.0), np.array([0.0, 0.0]))
    assert fr.metric == pytest.approx(np.eye(2), abs=1e-14)
    assert fr.normal == pytest.approx(np.array([1.0, 0.0, 0.0]), abs=1e-14)
    assert fr.curvature == pytest.approx(1.0)
    # outward normal and mu > 0 make h = -g here
    assert fr.second_form == pytest.approx(-fr.metric, abs=1e-14)


def test_plane_frame():
    fr = frame_at(sf.plane(), np.array([0.3, -0.2]))
    assert fr.metric == pytest.approx(np.eye(2))
    assert fr.second_form == pytest.approx(np.zeros((2, 2)))
    assert fr.curvature == pytest.approx(0.0)


def test_saddle_curvature_at_origin():
    fr = frame_at(sf.saddle(), np.array([0.0, 0.0]))
    assert fr.curvature == pytest.approx(-4.0)


def test_degenerate_frame_raises():
    with pytest.raises(DegenerateFrameError):
        frame_at(sf.sphere(1.0), np.array([0.1, np.pi / 2]))


def _field_hessian(surf, point, text):
    jet = evaluate_jet(parse_expression(text, 2), point, order=2)
    return covariant_hessian(frame_at(surf, point, order=2), jet.grad,
                             jet.hess)


def test_covariant_hessian_of_constant_vanishes():
    for surf in (sf.sphere(1.0), sf.saddle()):
        h = _field_hessian(surf, np.array([0.4, 0.2]), "4")
        assert h == pytest.approx(np.zeros((2, 2)), abs=1e-14)


def test_covariant_hessian_of_support_on_cylinder():
    h = _field_hessian(sf.cylinder(1.0), np.array([1.0, 0.3]), "(1+x2^2)/2")
    assert h == pytest.approx(np.diag([0.0, 1.0]), abs=1e-14)


def test_second_form_parallel_on_sphere_and_plane():
    pts = np.array([[0.5, 0.3], [2.0, -0.8]])
    for surf in (sf.sphere(1.0), sf.plane()):
        nabla_h = second_form_derivatives(frame_at(surf, pts, order=3))
        assert np.max(np.abs(nabla_h)) < 1e-13, surf.name


def test_codazzi_residual_on_catalog():
    rng = np.random.default_rng(7)
    for surf in CATALOG:
        pts = interior_points(surf, 40, rng)
        assert np.max(codazzi_residual(frame_at(surf, pts, order=3))) < 1e-8, \
            surf.name


def test_gauss_equation_brioschi_vs_extrinsic():
    rng = np.random.default_rng(11)
    for surf in CATALOG:
        pts = interior_points(surf, 40, rng)
        fr = frame_at(surf, pts, order=3)
        intrinsic = brioschi_curvature(fr)
        scale = np.maximum(1.0, np.abs(fr.curvature))
        assert np.max(np.abs(intrinsic - fr.curvature) / scale) < 1e-6, surf.name


def test_orientation_flip_negates_h_keeps_K():
    surf = sf.sphere(1.0)
    flipped = sf.load_surface({**sf.surface_to_dict(surf),
                               "orientation": "inward"})
    pts = np.array([[0.4, 0.2], [1.1, -0.5]])
    a = frame_at(surf, pts)
    b = frame_at(flipped, pts)
    assert b.normal == pytest.approx(-a.normal)
    assert b.second_form == pytest.approx(-a.second_form)
    assert b.curvature == pytest.approx(a.curvature)


# -- geodesic boundary charts ------------------------------------------------

def test_equator_chart_of_sphere():
    band = sf.spherical_cap(0.0, 1.4)
    chart = geodesic_boundary_chart(band, (1, "lo"), depth=0.8,
                                    n_s=32, n_t=32)
    assert np.max(np.abs(chart.B - np.cos(chart.t)[None, :])) < 1e-10
    assert np.max(np.abs(chart.kg)) < 1e-12          # the equator is geodesic
    assert chart.max_offdiag < 1e-6
    assert chart.max_gtt_error < 1e-10
    assert chart.max_b0_error < 1e-10


def test_flat_disk_chart():
    chart = geodesic_boundary_chart(sf.flat_disk_polar(), (1, "hi"),
                                    depth=0.5, n_s=32, n_t=16)
    assert np.max(np.abs(chart.B - (1.0 - chart.t)[None, :])) < 1e-10
    # inward-t convention: B_t(s, 0) = -1 on the unit circle
    assert chart.kg == pytest.approx(np.full(32, -1.0), abs=1e-12)


def test_spherical_cap_geodesic_curvature():
    lat0 = 0.5
    chart = geodesic_boundary_chart(sf.spherical_cap(lat0, 1.4), (1, "lo"),
                                    depth=0.3, n_s=32, n_t=16)
    assert np.max(np.abs(chart.kg + np.tan(lat0))) < 1e-6
    expected = np.cos(lat0 + chart.t) / np.cos(lat0)
    assert np.max(np.abs(chart.B - expected[None, :])) < 1e-10


def test_chart_start_points_are_equally_spaced_in_arclength():
    # the edge x2 = 1 is the ellipse (2 cos x1, sin x1, 0), whose parameter
    # speed sqrt(1 + 3 sin^2 x1) is far from constant
    cap = Immersion("elliptic_cap", 2, tuple(
        parse_expression(c, 2)
        for c in ("2*x2*cos(x1)", "x2*sin(x1)", "(1 - x2^2)^2")),
        ((0.0, 2 * np.pi), (0.2, 1.0)), (True, False))
    chart = geodesic_boundary_chart(cap, (1, "hi"), depth=0.05,
                                    n_s=64, n_t=4)

    def speed(x):
        return np.sqrt(1.0 + 3.0 * np.sin(x) ** 2)

    sigma = chart.points[:, 0, 0]
    ends = np.append(sigma[1:], sigma[0] + 2 * np.pi)
    arcs = np.array([gauss_legendre(speed, a, b)
                     for a, b in zip(sigma, ends)])
    assert chart.length == pytest.approx(
        gauss_legendre(speed, 0.0, 2 * np.pi, cells=32), abs=1e-12)
    assert np.max(np.abs(arcs - chart.length / 64)) < 1e-12


# -- one connection formula: Gamma^k_ij = g^{kl} r_l . r_ij -----------------

def _bracket_christoffels(fr):
    """1/2 g^{kl} (d_i g_jl + d_j g_il - d_l g_ij) from ``fr.dmetric``."""
    dg = np.asarray(fr.dmetric)                         # [..., l, i, j]
    bracket = (np.einsum("...ijl->...lij", dg) + np.einsum("...jil->...lij", dg)
               - dg)
    return 0.5 * np.einsum("...kl,...lij->...kij", fr.metric_inv, bracket)


def _inward(surf):
    return sf.load_surface({**sf.surface_to_dict(surf),
                            "orientation": "inward"})


CONNECTION_CHARTS = [builder() for builder in sf.catalog().values()] + [
    sf.spherical_cap(0.2, 1.3), sf.flat_disk_polar(),
    sf.rigid_motion(sf.ellipsoid(), [[0.0, -1.0, 0.0], [0.6, 0.0, -0.8],
                                     [0.8, 0.0, 0.6]], [0.3, -0.2, 0.1]),
    _inward(sf.quartic_cap_polar())]


@pytest.mark.parametrize("order", [2, 3])
def test_christoffels_are_the_metric_bracket(order):
    rng = np.random.default_rng(31)
    for surf in CONNECTION_CHARTS:
        fr = frame_at(surf, interior_points(surf, 200, rng), order=order)
        expected = _bracket_christoffels(fr)
        assert np.max(np.abs(fr.christoffels - expected)) <= 1e-13 * np.max(
            np.abs(expected)), surf.name


def test_geodesic_acceleration_is_minus_christoffels_of_the_velocity():
    rng = np.random.default_rng(32)
    for surf in CONNECTION_CHARTS:
        pts = interior_points(surf, 200, rng)
        vel = rng.normal(size=pts.shape)
        acc = _geodesic_acceleration(surf, pts, vel)
        fr = frame_at(surf, pts, order=2)
        expected = -np.einsum("...kij,...i,...j->...k", fr.christoffels,
                              vel, vel)
        # relative to |v|^2 too, where Gamma vanishes (plane, cylinder)
        scale = max(np.max(np.abs(expected)), np.max(vel ** 2))
        assert np.max(np.abs(acc - expected)) <= 1e-13 * scale, surf.name


def _reference_acceleration(immersion, x, v):
    """The geodesic stage through ``stacked``, ``cofactor`` and
    ``contract``, as written for charts of any dimension."""
    jts = evaluate_jet(immersion.components, x, order=2)
    tangents, d2 = stacked(jts, (1, 2))
    metric = contract("...ai,...aj->...ij", tangents, tangents)
    det, adj = cofactor(metric)
    r_vv = contract("...aij,...i,...j->...a", d2, v, v)
    return -contract("...kl,...l->...k", adj / det[..., None, None],
                     contract("...al,...a->...l", tangents, r_vv))


def test_geodesic_stage_is_bitwise_the_general_contraction():
    rng = np.random.default_rng(33)
    for surf in CONNECTION_CHARTS:
        pts = interior_points(surf, 200, rng)
        vel = rng.normal(size=pts.shape)
        assert np.array_equal(_geodesic_acceleration(surf, pts, vel),
                              _reference_acceleration(surf, pts, vel)), \
            surf.name


def test_geodesic_stage_does_not_depend_on_the_batch(assert_batch_invariant):
    rng = np.random.default_rng(34)
    surf = sf.quartic_cap_polar()
    pts = interior_points(surf, 64, rng)
    vel = rng.normal(size=pts.shape)
    assert_batch_invariant(
        lambda xv: _geodesic_acceleration(surf, xv[:, :2], xv[:, 2:]),
        np.concatenate([pts, vel], axis=1))
    batch = _geodesic_acceleration(surf, pts, vel)
    for k in (0, 17, 63):
        alone = _geodesic_acceleration(surf, pts[k], vel[k])
        assert alone.shape == (2,)
        assert alone.tobytes() == batch[k].tobytes()


def test_geodesic_stage_refuses_degenerate_and_non_finite_frames():
    # the sphere's chart pole, as in test_degenerate_frame_raises
    pts = np.array([[0.1, 0.3], [0.1, np.pi / 2]])
    with pytest.raises(DegenerateFrameError):
        _geodesic_acceleration(sf.sphere(1.0), pts, np.ones_like(pts))
    overflow = sf.load_surface({
        "name": "overflow", "dim": 2, "components": ["x1", "x2", "x1^1000"],
        "domain": [[0, 2], [-1, 1]], "periodic": [False, False]})
    pts = np.array([[0.5, 0.25], [1.5, -0.125], [1.75, 0.5]])
    with np.errstate(all="ignore"), pytest.raises(GeometryError) as err:
        _geodesic_acceleration(overflow, pts, np.ones_like(pts))
    assert not isinstance(err.value, DegenerateFrameError)
    assert "det g at (x1, x2) = (1.5, -0.125) is not finite" in str(err.value)


@pytest.mark.parametrize("surf, edge, depth", [
    (sf.quartic_cap_polar(), (1, "hi"), 0.1),
    (sf.spherical_cap(0.4, 1.4), (1, "lo"), 0.3),
    (sf.flat_disk_polar(), (1, "hi"), 0.4),
])
def test_geodesic_chart_is_bitwise_the_general_stage(monkeypatch, surf, edge,
                                                     depth):
    fused = geodesic_boundary_chart(surf, edge, depth=depth, n_s=32, n_t=16)
    monkeypatch.setattr(gm, "_geodesic_acceleration", _reference_acceleration)
    general = geodesic_boundary_chart(surf, edge, depth=depth, n_s=32, n_t=16)
    for name in ("points", "velocities", "B"):
        assert np.array_equal(getattr(fused, name), getattr(general, name)), \
            name


def _christoffel_edge_kg(fr0, other, nu):
    """B_t(s, 0) for the inward chart by the Christoffel route: minus the
    g-projection of the curve acceleration D_T T onto the inward normal."""
    g0 = fr0.metric
    gpp = g0[..., other, other]
    # dT^k/ds along the curve for T = e_other / sqrt(g_pp)
    dgpp = fr0.dmetric[..., other, other, other]      # d_other g_pp
    dT = np.zeros_like(nu)
    dT[:, other] = -0.5 * dgpp / gpp ** 2
    acc = dT + fr0.christoffels[..., other, other] / gpp[..., None]
    return -np.einsum("...i,...ij,...j->...", acc, g0, nu)


@pytest.mark.parametrize("surf, edge", [
    (sf.quartic_cap_polar(), (1, "hi")),
    (sf.spherical_cap(0.0, 1.2), (1, "lo")),
    (sf.spherical_cap(0.5, 1.4), (1, "lo")),
    (sf.flat_disk_polar(), (1, "hi")),
])
def test_edge_kg_is_the_christoffel_projection(surf, edge):
    chart = geodesic_boundary_chart(surf, edge, depth=0.05, n_s=32, n_t=2)
    fr0 = frame_at(surf, chart.points[:, 0], order=2)
    expected = _christoffel_edge_kg(fr0, 1 - edge[0], chart.velocities[:, 0])
    assert np.max(np.abs(chart.kg - expected)) <= 1e-13 * max(
        1.0, np.max(np.abs(expected)))
    if surf.name == "flat_disk_polar":
        assert chart.kg == pytest.approx(np.full(32, -1.0), abs=1e-12)


def test_geodesic_leaves_domain_raises():
    band = sf.spherical_cap(0.0, 0.4)
    with pytest.raises(GeodesicChartError):
        geodesic_boundary_chart(band, (1, "lo"), depth=0.8, n_s=16, n_t=16)


def test_open_edge_rejected():
    with pytest.raises(GeodesicChartError):
        geodesic_boundary_chart(sf.saddle(), (1, "lo"), depth=0.1)


# -- points-innermost frame layout ------------------------------------------

FRAME_FIELDS = ("position", "tangents", "d2", "d3", "normal", "metric",
                "metric_inv", "det_metric", "second_form", "christoffels",
                "dmetric", "curvature")


def _pointwise_results(imm, pts):
    fr = frame_at(imm, pts, order=3)
    sup = support_at(fr)
    out = {name: getattr(fr, name) for name in FRAME_FIELDS}
    out.update({f"support.{name}": getattr(sup, name)
                for name in ("rho", "grad_rho", "rho_hess", "mu",
                             "norm_residual", "position_residual")})
    out["codazzi"] = codazzi_residual(fr)
    out["brioschi"] = brioschi_curvature(fr)
    out["darboux"] = darboux_residual(fr, sup)
    return out


def test_point_alone_matches_the_same_point_in_a_large_batch():
    imm = sf.ellipsoid()
    pts = interior_points(imm, 100_000, np.random.default_rng(8))
    batch = _pointwise_results(imm, pts)
    for k in np.linspace(0, len(pts) - 1, 40).astype(int):
        for alone in (pts[k], pts[k:k + 1]):
            single = _pointwise_results(imm, alone)
            for name, values in batch.items():
                assert np.array_equal(
                    np.reshape(single[name], values.shape[1:]), values[k]), \
                    (name, k, alone.shape)


def test_frame_batch_axis_has_unit_stride():
    fr = frame_at(sf.ellipsoid(), interior_points(
        sf.ellipsoid(), 500, np.random.default_rng(2)), order=3)
    for name in FRAME_FIELDS:
        values = getattr(fr, name)
        assert values.shape[0] == 500
        assert values.strides[0] == values.itemsize, name
    for name in ("position", "tangents", "d2", "d3"):
        assert not getattr(fr, name).flags.writeable, name


@st.composite
def _well_conditioned(draw):
    """A batch of n x n matrices I * scale + a perturbation of norm < 1/2
    (so every singular value is at least scale / 2), n in 1..4."""
    n = draw(st.integers(1, 4))
    batch = draw(st.integers(1, 5))
    entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=batch * n * n,
                            max_size=batch * n * n))
    scale = draw(st.floats(0.1, 10.0))
    noise = np.reshape(entries, (batch, n, n)) / (2.0 * n)
    return scale * (np.eye(n) + noise)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_well_conditioned())
def test_cofactor_matches_numpy_linalg(mats):
    det, adj = cofactor(mats)
    assert det == pytest.approx(np.linalg.det(mats), rel=1e-12)
    inv = adj / det[..., None, None]
    assert np.max(np.abs(inv - np.linalg.inv(mats))) <= 1e-12 * max(
        1.0, np.max(np.abs(np.linalg.inv(mats))))
    assert np.array_equal(cofactor(mats, adjugate=False)[0], det)


def _cofactor_by_sign_products(matrix):
    """``cofactor`` as first written: each level's products into a new
    array, and the adjugate's sign as a product with +-1.0 per entry."""
    m = np.asarray(matrix)
    n, batch = m.shape[-1], m.shape[:-2]
    levels, adj_index, _ = linalg._laplace_tables(n, True)
    comp = m.transpose((m.ndim - 2, m.ndim - 1) + tuple(range(m.ndim - 2)))
    flat = comp.reshape((n * n,) + batch)
    below = minors = flat
    for entry, sub in levels:
        terms = flat[entry] * minors[sub]
        acc = terms[:, 0]
        for t in range(1, entry.shape[1]):
            acc = acc - terms[:, t] if t % 2 else acc + terms[:, t]
        below, minors = minors, acc
    sign = np.array([(-1.0) ** (i + j) for j in range(n) for i in range(n)])
    adj = below[adj_index] * sign.reshape((n * n,) + (1,) * len(batch))
    return minors[0], batch_first(adj.reshape((n, n) + batch), 2)


def _bytes(array):
    """The bytes of a float array, or of every jet coefficient in an
    object array of jets."""
    if array.dtype != object:
        return array.tobytes()
    return b"".join(jet.coef.tobytes() for jet in array.ravel())


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cofactor_is_bitwise_its_first_formulation_on_floats(n):
    rng = np.random.default_rng(40 + n)
    batch = rng.standard_normal((64, n, n))
    # a single matrix, a batch, and the batch with the points innermost
    for mats in (batch[0], batch,
                 np.moveaxis(np.ascontiguousarray(np.moveaxis(batch, 0, -1)),
                             -1, 0)):
        det, adj = cofactor(mats)
        want_det, want_adj = _cofactor_by_sign_products(mats)
        assert det.tobytes() == want_det.tobytes()
        assert adj.tobytes() == want_adj.tobytes()


@pytest.mark.parametrize("n, order", [(2, 2), (3, 2), (2, 3), (3, 3)])
def test_cofactor_is_bitwise_its_first_formulation_on_jets(n, order):
    rng = np.random.default_rng(50 + 10 * n + order)
    texts = [f"sin({a:.3f}*x1 + {b:.3f}*x2) + {c:.3f}*x1*x2"
             for a, b, c in rng.uniform(-2.0, 2.0, size=(n * n, 3))]
    jts = evaluate_jet(tuple(parse_expression(text, 2) for text in texts),
                       rng.uniform(-1.0, 1.0, size=(16, 2)), order=order)
    mats = np.empty((n, n), dtype=object)
    mats.ravel()[:] = jts
    det, adj = cofactor(mats)
    want_det, want_adj = _cofactor_by_sign_products(mats)
    assert det.coef.tobytes() == want_det.coef.tobytes()
    assert _bytes(adj) == _bytes(want_adj)


@pytest.mark.parametrize("radius", [1.0, 2, np.float64(0.5)])
def test_sphere_and_ellipsoid_share_their_chart_text(radius):
    # one lat-long builder: the semi-axes enter as float literals, whatever
    # number type they are given as
    sphere, ellipsoid = (sf.surface_to_dict(s) for s in (
        sf.sphere(radius), sf.ellipsoid(radius, radius, radius)))
    assert sphere["components"] == ellipsoid["components"]
    assert sphere["components"][2] == f"{float(radius)!r} * sin(x2)"
