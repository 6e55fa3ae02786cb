import importlib.resources
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidlab import surfaces as sf
from rigidlab.darboux import (darboux_residual, support_at,
                              verify_shape_identity)
from rigidlab.geometry import GeometryError, frame_at, interior_points
from rigidlab.pairs import (EnergyPositivityError, IsometricPair, PairError,
                            check_isometric, cofactor_divergence_identity,
                            difference_tensors, energy_inner_product,
                            energy_integrand, verify_gauss_trace_and_codazzi,
                            verify_w_formula)


def shipped_flat_cylinder_pair():
    path = importlib.resources.files("rigidlab") / "data" / \
        "flat_cylinder_pair.json"
    spec = json.loads(path.read_text())
    return IsometricPair(*map(sf.load_surface, spec["surfaces"]),
                         tolerance=spec["tolerance"])


def pair_frames(pair, pts, order):
    return tuple(frame_at(s, pts, order=order)
                 for s in (pair.first, pair.second))


def difference(pair, pts):
    return difference_tensors(pair_frames(pair, pts, order=2))


def trace_and_codazzi(pair, pts):
    frames = pair_frames(pair, pts, order=3)
    return verify_gauss_trace_and_codazzi(frames, difference_tensors(frames))


def cylinder_pair():
    return IsometricPair(sf.cylinder(1.0), sf.half_cylinder_wide(),
                         tolerance=1e-12)


def rotated_sphere_pair():
    ang, tilt = np.pi / 6, 0.4
    qz = np.array([[np.cos(ang), -np.sin(ang), 0.0],
                   [np.sin(ang), np.cos(ang), 0.0], [0.0, 0.0, 1.0]])
    qx = np.array([[1.0, 0.0, 0.0],
                   [0.0, np.cos(tilt), -np.sin(tilt)],
                   [0.0, np.sin(tilt), np.cos(tilt)]])
    moved = sf.rigid_motion(sf.sphere(1.0), qx @ qz,
                            np.array([0.2, -0.1, 0.4]))
    return IsometricPair(sf.sphere(1.0), moved, tolerance=1e-12)


def test_flat_cylinders_are_isometric():
    assert check_isometric(cylinder_pair()) < 1e-12


def test_rigid_motion_pair_is_isometric():
    assert check_isometric(rotated_sphere_pair()) < 1e-12


def test_sphere_vs_ellipsoid_rejected():
    pair = IsometricPair(sf.sphere(1.0), sf.ellipsoid(), tolerance=1e-10)
    assert check_isometric(pair) > 1e-2


def test_cylinder_pair_difference_tensors():
    pt = np.array([1.3, 0.4])
    d = difference(cylinder_pair(), pt)
    assert d.phi == pytest.approx(1.5)
    assert d.w_diff == pytest.approx(np.array([[0.5, 0.0], [0.0, 0.0]]),
                                     abs=1e-14)
    assert d.mu == pytest.approx(1.0)
    assert d.mu_tilde == pytest.approx(2.0)
    assert d.det_residual < 1e-14


def test_identical_pair_vanishing_difference():
    pair = IsometricPair(sf.sphere(1.0), sf.sphere(1.0))
    d = difference(pair, np.array([0.5, 0.2]))
    assert abs(d.phi) < 1e-15
    assert np.max(np.abs(d.w_diff)) < 1e-15


def test_rigid_pair_keeps_second_form():
    pair = rotated_sphere_pair()
    pts = np.array([[0.3, 0.2], [2.5, -0.6], [4.4, 0.9]])
    d = difference(pair, pts)
    assert np.max(np.abs(d.w_diff)) < 1e-12
    assert np.std(d.phi) > 1e-3           # support difference is not constant


def test_w_formula_on_cylinder_pair():
    pair = cylinder_pair()
    pt = np.array([2.0, -0.5])
    d = difference(pair, pt)
    assert verify_w_formula(d) < 1e-14
    rhs = (2 * 0.0 + d.h_bar[0, 0] * (d.mu - d.mu_tilde)) / (d.mu + d.mu_tilde)
    assert d.w_diff[0, 0] == pytest.approx(rhs)
    assert d.w_diff[0, 0] == pytest.approx(0.5)


def test_w_formula_on_rigid_pair():
    pts = np.array([[0.7, 0.1], [3.0, -0.9]])
    assert np.max(verify_w_formula(difference(rotated_sphere_pair(),
                                              pts))) < 1e-8


def test_trace_and_codazzi_residuals():
    pts = np.array([[1.0, 0.2], [2.2, -0.4]])
    tr, cz = trace_and_codazzi(cylinder_pair(), pts)
    assert np.max(tr) < 1e-12 and np.max(cz) < 1e-12
    tr, cz = trace_and_codazzi(rotated_sphere_pair(), pts)
    assert np.max(tr) < 1e-7 and np.max(cz) < 1e-7


@pytest.mark.parametrize("scale", [1.0, 1e-3, 1e-6])
def test_trace_verdict_does_not_depend_on_the_units(scale):
    # spheres of radii 1 and 1.2 (times ``scale``) are not isometric: the
    # hbar-trace of W is 2/11 wherever it is taken.  At scale 1e-6,
    # det hbar ~ 1e-12 is tiny in absolute terms but not against
    # max |hbar|^2, so the trace must not fall back to the cofactor form
    pair = IsometricPair(sf.sphere(scale), sf.sphere(1.2 * scale))
    pts = interior_points(pair.first, 50, np.random.default_rng(3))
    tr, _ = trace_and_codazzi(pair, pts)
    assert np.max(tr) == pytest.approx(2.0 / 11.0, rel=1e-12)


# -- energy pairing -----------------------------------------------------------

def test_energy_of_metric_on_identical_spheres():
    pair = IsometricPair(sf.sphere(1.0), sf.sphere(1.0))
    val = energy_inner_product(pair, lambda p, fr: fr.metric,
                               lambda p, fr: fr.metric, grid=(48, 6))
    assert val == pytest.approx(16 * np.pi, rel=1e-9)


def test_energy_zero_and_bilinear_symmetric():
    pair = IsometricPair(sf.sphere(1.0), sf.sphere(1.0))
    rng = np.random.default_rng(4)
    a = rng.standard_normal((2, 2)); a = a + a.T
    b = rng.standard_normal((2, 2)); b = b + b.T
    zero = np.zeros((2, 2))
    grid = (24, 4)
    assert energy_inner_product(pair, zero, b, grid=grid) == pytest.approx(0.0)
    ab = energy_inner_product(pair, a, b, grid=grid)
    ba = energy_inner_product(pair, b, a, grid=grid)
    assert ab == pytest.approx(ba, rel=1e-12)
    two_a = energy_inner_product(pair, 2.0 * a, b, grid=grid)
    assert two_a == pytest.approx(2.0 * ab, rel=1e-12)


def test_energy_precondition_fails_on_flat_pair():
    with pytest.raises(EnergyPositivityError):
        energy_inner_product(cylinder_pair(), np.eye(2), np.eye(2))


def test_energy_integrand_pointwise_nonnegative():
    pair = rotated_sphere_pair()
    rng = np.random.default_rng(8)
    pts = interior_points(pair.first, 100, rng)
    alphas = rng.standard_normal((100, 2, 2))
    alphas = alphas + np.swapaxes(alphas, -1, -2)
    frames = pair_frames(pair, pts, order=2)
    d = difference_tensors(frames)
    vals = energy_integrand(frames, d, alphas, alphas)
    assert np.min(vals) > -1e-12
    # strictly positive away from alpha = 0, zero at alpha = 0
    assert np.min(vals[np.max(np.abs(alphas), axis=(-1, -2)) > 0.1]) > 1e-6
    zero = np.zeros((100, 2, 2))
    assert np.max(np.abs(energy_integrand(frames, d, zero, zero))) < 1e-15
    # dual route: the quadratic form equals the trace formulation
    prod = np.linalg.inv(d.h_bar) @ alphas
    det_g = frame_at(pair.first, pts).det_metric
    trace_form = (np.linalg.det(d.h_bar) / det_g
                  * np.einsum("...ij,...ji->...", prod, prod)
                  * (d.mu + d.mu_tilde))
    assert vals == pytest.approx(trace_form, rel=1e-10)


# -- pointwise cofactor identity ----------------------------------------------

def test_cofactor_identity_unit_example():
    hb = np.eye(2)
    w = np.diag([1.0, -1.0])
    assert cofactor_divergence_identity(hb, w) < 1e-15
    lhs = np.linalg.det(hb) * np.linalg.inv(hb) @ w @ np.linalg.inv(hb)
    assert lhs[0] == pytest.approx(np.array([1.0, 0.0]))   # (-w22, w21)
    assert lhs[1] == pytest.approx(np.array([0.0, -1.0]))  # (w12, -w11)


def test_cofactor_identity_zero_w():
    assert cofactor_divergence_identity(np.diag([2.0, 3.0]),
                                        np.zeros((2, 2))) == 0.0


def test_cofactor_identity_requires_trace_free():
    with pytest.raises(PairError):
        cofactor_divergence_identity(np.eye(2), np.eye(2))


def _tracefree_projection(hb, w):
    trace = np.trace(np.linalg.inv(hb) @ w)
    return w - 0.5 * trace * hb


def test_cofactor_identity_random_sweep():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(300):
        a = rng.standard_normal((2, 2))
        hb = a @ a.T + 0.3 * np.eye(2)
        if rng.uniform() < 0.5:
            hb = -hb                      # negative definite side
        w = rng.standard_normal((2, 2))
        w = _tracefree_projection(hb, 0.5 * (w + w.T))
        worst = max(worst, float(cofactor_divergence_identity(hb, w)))
    assert worst < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2),
       st.floats(0.2, 3), st.floats(0.2, 3), st.floats(-0.9, 0.9))
def test_cofactor_identity_property(w11, w12, w22, d1, d2, offdiag):
    hb = np.array([[d1, offdiag * np.sqrt(d1 * d2)],
                   [offdiag * np.sqrt(d1 * d2), d2]])
    w = _tracefree_projection(hb, np.array([[w11, w12], [w12, w22]]))
    assert cofactor_divergence_identity(hb, w) < 1e-12


def test_pair_checks_do_not_depend_on_the_batch(assert_batch_invariant):
    pair = shipped_flat_cylinder_pair()
    pts = interior_points(pair.first, 3000, np.random.default_rng(6))
    for check in (difference,
                  lambda pr, p: verify_w_formula(difference(pr, p)),
                  trace_and_codazzi):
        assert_batch_invariant(lambda p: check(pair, p), pts)


@pytest.mark.parametrize("surf", [sf.ellipsoid(), sf.quartic_cap(),
                                  sf.saddle(), sf.cylinder(1.0)],
                         ids=lambda s: s.name)
def test_order_three_frames_give_the_order_two_bits(surf):
    # the CLI reads one order-3 frame per point block where the checks
    # once built order-2 frames; the extra order must not move a bit
    moved = sf.rigid_motion(surf, np.eye(3), np.array([0.2, -0.1, 0.4]))
    pair = IsometricPair(surf, moved)
    pts = interior_points(surf, 500, np.random.default_rng(12))
    results = []
    for order in (2, 3):
        frames = pair_frames(pair, pts, order=order)
        sup = support_at(frames[0])
        d = difference_tensors(frames)
        results.append({
            **{f"support.{k}": v for k, v in vars(sup).items()},
            "darboux": darboux_residual(frames[0], sup),
            **{f"shape.{k}": v for k, v in
               vars(verify_shape_identity(frames[0], sup)).items()},
            **{f"difference.{k}": v for k, v in vars(d).items()},
            "w_formula": verify_w_formula(d)})
    low, high = results
    assert low.keys() == high.keys()
    for name, values in low.items():
        assert values.tobytes() == high[name].tobytes(), (surf.name, name)


def _graph3(name, height):
    return sf.load_surface({
        "name": name, "dim": 3, "components": ["x1", "x2", "x3", height],
        "domain": [[-0.5, 0.5]] * 3, "periodic": [False] * 3})


def test_the_trace_rule_refuses_forms_that_are_not_2x2():
    # graphs whose second forms at the origin are (hbar -/+ W) / 2 for
    # hbar = diag(1, 2, 3) and W = diag(1, 1, -5): hbar^{ij} W_ij = -1/6
    # there, while the 2x2 cofactor rule would read 0.5 from the leading
    # block alone
    pair = IsometricPair(_graph3("first", "0.25*x2^2 + 2*x3^2"),
                         _graph3("second", "0.5*x1^2 + 0.75*x2^2 - 0.5*x3^2"))
    frames = pair_frames(pair, np.zeros((1, 3)), order=3)
    d = difference_tensors(frames)
    assert np.allclose(np.abs(d.h_bar[0]), np.diag([1.0, 2.0, 3.0]))
    assert np.allclose(np.abs(d.w_diff[0]), np.diag([1.0, 1.0, 5.0]))
    with pytest.raises(GeometryError, match="2x2 forms, got 3x3"):
        verify_gauss_trace_and_codazzi(frames, d)
    # trace-free in the leading 2x2 block only: hbar^{ij} w_ij = 7/3
    with pytest.raises(GeometryError, match="2x2 forms, got 3x3"):
        cofactor_divergence_identity(np.diag([1.0, 2.0, 3.0]),
                                     np.diag([1.0, -2.0, 7.0]))
