"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  Tolerances are pinned here and nowhere else.
"""

import json
import math
import time

import numpy as np

from rigidlab import cli
from rigidlab import surfaces as sf
from rigidlab.boundary import (BoundaryProfile, _constraint_matrix,
                               boundary_energy_inequality, dong_conditions,
                               lemma_hh_check,
                               random_admissible_profile_function,
                               reference_curve)
from rigidlab.darboux import darboux_residual, support_at, verify_shape_identity
from rigidlab.flex import (TrivialMotion, assemble_flex_operator,
                           closed_one_form_residual, first_order_residual,
                           kernel_dimension, phi_relation_residual,
                           random_trivial_motion, rotation_data, w_tensor)
from rigidlab.geometry import codazzi_residual, frame_at, interior_points
from rigidlab.highdim import (linearized_gauss_nullspace,
                              random_symmetric_with_rank)
from rigidlab.pairs import (IsometricPair, check_isometric,
                            cofactor_divergence_identity, difference_tensors,
                            energy_inner_product, energy_integrand,
                            verify_gauss_trace_and_codazzi, verify_w_formula)

CATALOG = [sf.sphere(1.0), sf.sphere(2.0), sf.ellipsoid(), sf.cylinder(1.0),
           sf.saddle(), sf.quartic_cap()]


def _pair_frames(pair, pts, order):
    return tuple(frame_at(s, pts, order=order)
                 for s in (pair.first, pair.second))


class _Criterion:
    def __init__(self, number, title):
        self.number = number
        self.title = title

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.number:2d}] {status} "
              f"({elapsed:6.1f}s)  {self.title}")
        return False


def test_criterion_01_identity_suite():
    with _Criterion(1, "pointwise identity suite on the catalog"):
        start = time.perf_counter()
        rng = np.random.default_rng(0)
        for surf in CATALOG:
            pts = interior_points(surf, 200, rng)
            fr = frame_at(surf, pts, order=3)
            unit = np.abs(np.einsum("...a,...a->...",
                                    fr.normal, fr.normal) - 1.0)
            orth = np.abs(np.einsum("...a,...ai->...i",
                                    fr.normal, fr.tangents))
            assert max(unit.max(), orth.max()) <= 1e-8, surf.name
            assert np.all(np.linalg.eigvalsh(fr.metric)[..., 0] > 0)
            assert np.max(np.abs(fr.second_form
                                 - np.swapaxes(fr.second_form, -1, -2))) == 0
            assert np.max(codazzi_residual(fr)) <= 1e-8
            sup = support_at(fr)
            assert np.max(sup.norm_residual) <= 1e-8, surf.name
            assert np.max(sup.position_residual) <= 1e-8, surf.name
            assert np.max(darboux_residual(fr, sup)) <= 1e-8
            shape = verify_shape_identity(fr, sup)
            live = np.where(shape.skipped, 0.0, shape.max_residual)
            assert np.max(live) <= 1e-8, surf.name
        elapsed = time.perf_counter() - start
        assert elapsed <= 10.0, f"identity suite took {elapsed:.1f}s"


def test_criterion_02_flat_cylinder_pair_oracle():
    with _Criterion(2, "flat cylinder pair difference tensors"):
        pair = IsometricPair(sf.cylinder(1.0), sf.half_cylinder_wide(),
                             tolerance=1e-12)
        assert check_isometric(pair) <= 1e-12
        rng = np.random.default_rng(1)
        pts = interior_points(pair.first, 50, rng)
        frames = _pair_frames(pair, pts, order=2)
        d = difference_tensors(frames)
        assert np.max(np.abs(d.w_diff[..., 0, 0] - 0.5)) <= 1e-10
        assert np.max(np.abs(d.w_diff[..., 0, 1])) <= 1e-10
        assert np.max(np.abs(d.w_diff[..., 1, 1])) <= 1e-10
        assert np.max(verify_w_formula(d)) <= 1e-10
        cof = (d.h_bar[..., 0, 0] * d.w_diff[..., 1, 1]
               + d.h_bar[..., 1, 1] * d.w_diff[..., 0, 0]
               - 2.0 * d.h_bar[..., 0, 1] * d.w_diff[..., 0, 1])
        assert np.max(np.abs(cof)) <= 1e-12
        frames = _pair_frames(pair, pts, order=3)
        _, codazzi = verify_gauss_trace_and_codazzi(
            frames, difference_tensors(frames))
        assert np.max(codazzi) <= 1e-10


def test_criterion_03_cofactor_divergence_identity():
    with _Criterion(3, "pointwise cofactor-divergence identity, 1000 draws"):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            a = rng.standard_normal((2, 2))
            h_bar = a @ a.T + 0.2 * np.eye(2)
            if rng.uniform() < 0.5:
                h_bar = -h_bar
            w = rng.standard_normal((2, 2))
            w = 0.5 * (w + w.T)
            trace = np.trace(np.linalg.inv(h_bar) @ w)
            w = w - 0.5 * trace * h_bar
            assert cofactor_divergence_identity(h_bar, w) <= 1e-12


def test_criterion_04_energy_positivity():
    with _Criterion(4, "energy pairing value and pointwise positivity"):
        pair = IsometricPair(sf.sphere(1.0), sf.sphere(1.0))
        val = energy_inner_product(pair, lambda p, fr: fr.metric,
                                   lambda p, fr: fr.metric, grid=(64, 8))
        assert abs(val - 16 * math.pi) / (16 * math.pi) <= 1e-6
        rng = np.random.default_rng(3)
        pts = interior_points(pair.first, 100, rng)
        alphas = rng.standard_normal((100, 2, 2))
        alphas = alphas + np.swapaxes(alphas, -1, -2)
        frames = _pair_frames(pair, pts, order=2)
        vals = energy_integrand(frames, difference_tensors(frames), alphas,
                                alphas)
        assert np.min(vals) >= -1e-12


def test_criterion_05_trivial_flex_suite():
    with _Criterion(5, "trivial motions: flex, rotation, w, phi, closedness"):
        rng = np.random.default_rng(4)
        e_fields = [TrivialMotion(((0.0,) * 3,) * 3, (0.0, 0.0, 1.0)),
                    TrivialMotion.from_axis((1.0, 0.0, 0.0)),
                    TrivialMotion.from_axis((0.0, 1.0, 0.0))]
        for surf in CATALOG:
            pts = interior_points(surf, 30, rng)
            for _ in range(20):
                motion = random_trivial_motion(rng)
                axial = np.array([motion.matrix[2, 1], motion.matrix[0, 2],
                                  motion.matrix[1, 0]])
                res = first_order_residual(surf, motion, pts)
                assert np.max(np.abs(res)) <= 1e-12, surf.name
                rot = rotation_data(surf, motion, pts)
                assert np.max(np.abs(rot.y - axial)) <= 1e-8, surf.name
                wt = w_tensor(surf, motion, pts)
                assert np.max(np.abs(wt.w)) <= 1e-10, surf.name
                phi = phi_relation_residual(surf, motion, pts)
                assert np.max(phi.max_residual) <= 1e-8, surf.name
            tau = random_trivial_motion(rng)
            for e_fld in e_fields:
                closed = closed_one_form_residual(surf, tau, e_fld,
                                                  grid=(24, 16))
                assert closed.max_curl <= 1e-7, surf.name


def test_criterion_06_kernel_certification():
    with _Criterion(6, "kernel certification: sphere 64x32 and disk 16x16"):
        start = time.perf_counter()
        op = assemble_flex_operator(sf.sphere(1.0), grid=(64, 32))
        rep = kernel_dimension(op, rel_tol=1e-8)
        assert rep.dimension == 6, rep
        assert rep.verdict == "certified-rigid"
        assert rep.gap_ratio >= 1e3
        disk = assemble_flex_operator(sf.plane(), grid=(16, 16))
        disk_rep = kernel_dimension(disk, rel_tol=1e-8)
        assert disk_rep.dimension == 16 * 16 + 3
        elapsed = time.perf_counter() - start
        assert elapsed <= 60.0, f"kernel certification took {elapsed:.1f}s"


def test_criterion_07_pointwise_rank_dichotomy():
    with _Criterion(7, "null space trivial iff rank(h) >= 3, 1000 draws"):
        dim, _ = linearized_gauss_nullspace(np.diag([1.0, 2.0, 3.0]))
        assert dim == 0
        dim, _ = linearized_gauss_nullspace(np.diag([1.0, 1.0, 0.0]))
        assert dim == 2
        rng = np.random.default_rng(5)
        for _ in range(1000):
            n = int(rng.integers(3, 6))
            rank = int(rng.integers(0, n + 1))
            h = random_symmetric_with_rank(rng, n, rank)
            null_dim, _ = linearized_gauss_nullspace(h)
            assert (null_dim == 0) == (rank >= 3), (n, rank, null_dim)


def test_criterion_08_boundary_suite():
    with _Criterion(8, "boundary energy, reference curve, closure"):
        circle = BoundaryProfile.from_theta(1.0)
        res = boundary_energy_inequality(circle, "sin(2*x1)")
        assert abs(res.value_direct + math.pi / 3) <= 1e-8
        assert res.route_agreement <= 1e-6
        rng = np.random.default_rng(6)
        cmat = _constraint_matrix(circle, 8)
        for _ in range(100):
            f = random_admissible_profile_function(circle, rng, 8, cmat)
            r = boundary_energy_inequality(circle, f)
            assert r.value_direct <= 1e-10
            assert r.route_agreement <= 1e-6
        curve = reference_curve(circle)
        assert abs(curve.area - math.pi) <= 1e-10
        dong = dong_conditions(circle)
        assert dong.turning_residual <= 1e-12
        assert dong.closure_residual <= 1e-12


def test_criterion_09_boundary_second_form_limits():
    with _Criterion(9, "flat-boundary cap second-form boundary values"):
        rep = lemma_hh_check((sf.quartic_cap_polar(), (1, "hi")),
                             depth=0.1, n_s=32, n_t=64)
        assert rep.max_l <= 1e-6
        assert rep.max_m <= 1e-6
        assert rep.n_residual <= 1e-4
        assert rep.lt_residual <= 1e-4


def test_criterion_10_deterministic_reports(tmp_path):
    with _Criterion(10, "byte-identical reports for identical runs"):
        pairs = [
            (["boundary", "--kg", "1", "--f", "sin(2*x1)", "--seed", "0"],
             "boundary"),
            (["check-surface", "sphere", "--points", "80", "--seed", "0"],
             "surface"),
        ]
        for argv, tag in pairs:
            out_a = tmp_path / f"{tag}_a.json"
            out_b = tmp_path / f"{tag}_b.json"
            assert cli.main(argv + ["--report", str(out_a)]) == 0
            assert cli.main(argv + ["--report", str(out_b)]) == 0
            assert out_a.read_bytes() == out_b.read_bytes()
            assert json.loads(out_a.read_text())["schema"] == \
                "rigidlab-report/1"
