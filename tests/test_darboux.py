import numpy as np
import pytest

from rigidlab import surfaces as sf
from rigidlab.darboux import (darboux_residual, support_at,
                              verify_shape_identity)
from rigidlab.geometry import frame_at, interior_points

CATALOG = [sf.sphere(1.0), sf.sphere(2.0), sf.ellipsoid(), sf.cylinder(1.0),
           sf.saddle(), sf.quartic_cap()]


def _monge_ampere(surf, pts):
    fr = frame_at(surf, pts, order=2)
    return darboux_residual(fr, support_at(fr))


def _shape(surf, pts):
    fr = frame_at(surf, pts, order=2)
    return verify_shape_identity(fr, support_at(fr))


def test_sphere_support_quantities():
    sup = support_at(frame_at(sf.sphere(2.0), np.array([0.7, -0.4]),
                              order=2))
    assert sup.rho == pytest.approx(2.0)                 # R^2 / 2
    assert sup.grad_rho == pytest.approx(np.zeros(2), abs=1e-13)
    assert sup.mu == pytest.approx(2.0)


def test_cylinder_support_quantities():
    sup = support_at(frame_at(sf.cylinder(1.0), np.array([1.2, 0.5]),
                              order=2))
    assert sup.rho == pytest.approx((1 + 0.25) / 2)
    assert sup.mu == pytest.approx(1.0)


def test_translated_sphere_keeps_support_identities():
    moved = sf.rigid_motion(sf.sphere(1.0), np.eye(3),
                            np.array([0.0, 0.0, 2.0]))
    rng = np.random.default_rng(0)
    pts = interior_points(moved, 50, rng)
    sup = support_at(frame_at(moved, pts, order=2))
    assert np.std(sup.mu) > 0.1            # mu genuinely varies
    assert np.max(sup.norm_residual) < 1e-10
    assert np.max(sup.position_residual) < 1e-10


@pytest.mark.parametrize("surf,expect", [
    (sf.sphere(1.0), 1e-10),
    (sf.cylinder(1.0), 1e-10),
    (sf.quartic_cap(), 1e-8),
])
def test_monge_ampere_residual_examples(surf, expect):
    rng = np.random.default_rng(2)
    pts = interior_points(surf, 30, rng)
    assert np.max(_monge_ampere(surf, pts)) < expect


def test_shape_identity_closed_forms():
    res = _shape(sf.sphere(1.0), np.array([0.3, 0.25]))
    assert res.max_residual < 1e-13 and not res.skipped
    res = _shape(sf.cylinder(1.0), np.array([0.9, -0.2]))
    assert res.max_residual < 1e-13 and not res.skipped


def test_plane_through_origin_is_support_degenerate():
    res = _shape(sf.plane(), np.array([[0.2, 0.1]]))
    assert res.skipped.all()


def test_catalog_support_and_darboux_sweep():
    rng = np.random.default_rng(5)
    for surf in CATALOG:
        pts = interior_points(surf, 120, rng)
        fr = frame_at(surf, pts, order=2)
        sup = support_at(fr)
        assert np.max(sup.norm_residual) < 1e-10, surf.name
        assert np.max(sup.position_residual) < 1e-10, surf.name
        assert np.max(darboux_residual(fr, sup)) < 1e-8, surf.name
        shape = verify_shape_identity(fr, sup)
        live = np.where(shape.skipped, 0.0, shape.max_residual)
        assert np.max(live) < 1e-8, surf.name


def test_translation_changes_support_not_residual():
    rng = np.random.default_rng(9)
    surf = sf.ellipsoid()
    moved = sf.rigid_motion(surf, np.eye(3), np.array([0.4, -0.3, 1.1]))
    pts = interior_points(surf, 40, rng)
    base = support_at(frame_at(surf, pts, order=2))
    shifted = support_at(frame_at(moved, pts, order=2))
    assert np.max(np.abs(base.rho - shifted.rho)) > 0.1
    assert np.max(_monge_ampere(moved, pts)) < 1e-8
