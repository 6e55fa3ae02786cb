import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rigidlab.flex import TrivialMotion
from rigidlab.highdim import (HighDimError, decompose_rotation_bivector,
                              dr_rigidity_test, generalized_kronecker,
                              linearized_gauss_constraints,
                              linearized_gauss_nullspace,
                              random_symmetric_with_rank)
from rigidlab.surfaces import load_surface


@pytest.mark.parametrize("upper,lower,expected", [
    ((1, 2), (1, 2), 1),
    ((1, 2), (2, 1), -1),
    ((1, 1, 2), (1, 2, 3), 0),
    ((1, 2, 3), (3, 1, 2), 1),
    ((1, 2, 3), (1, 3, 2), -1),
    ((1, 2), (3, 4), 0),
])
def test_generalized_kronecker_values(upper, lower, expected):
    assert generalized_kronecker(upper, lower) == expected


def test_generalized_kronecker_errors():
    with pytest.raises(HighDimError):
        generalized_kronecker((0, 1), (1, 2))
    with pytest.raises(HighDimError):
        generalized_kronecker((1, 2, 3), (1, 2))


def test_kronecker_antisymmetry_property():
    rng = np.random.default_rng(0)
    for _ in range(50):
        up = tuple(rng.integers(1, 6, size=3))
        low = tuple(rng.integers(1, 6, size=3))
        swapped = (up[1], up[0], up[2])
        assert generalized_kronecker(swapped, low) == \
            -generalized_kronecker(up, low)


def s3_patch():
    return load_surface({
        "name": "s3_patch", "dim": 3,
        "components": ["cos(x1)*cos(x2)*cos(x3)", "sin(x1)*cos(x2)*cos(x3)",
                       "sin(x2)*cos(x3)", "sin(x3)"],
        "domain": [[0.2, 0.8]] * 3, "periodic": [False, False, False]})


def test_bivector_decomposition_of_trivial_motions():
    rng = np.random.default_rng(5)
    surf = s3_patch()
    pts = rng.uniform(0.3, 0.7, (8, 3))
    raw = rng.standard_normal((4, 4))
    motion = TrivialMotion(tuple(map(tuple, (raw - raw.T).tolist())),
                           tuple(rng.standard_normal(4)))
    dec = decompose_rotation_bivector(surf, motion, pts)
    assert np.max(dec.flex_residual) < 1e-12
    assert np.max(np.abs(dec.rotation - motion.matrix)) < 1e-12
    assert np.max(dec.tangential_residual) < 1e-8
    assert np.max(np.abs(dec.w_sym)) < 1e-8
    assert np.max(dec.symmetry_residual) < 1e-10
    # frame components are exactly antisymmetric by construction
    assert dec.w_frame == pytest.approx(
        -np.swapaxes(dec.w_frame, -1, -2), abs=1e-14)


def test_bivector_of_translation_vanishes():
    surf = s3_patch()
    motion = TrivialMotion(((0.0,) * 4,) * 4, (1.0, -2.0, 0.5, 3.0))
    dec = decompose_rotation_bivector(surf, motion,
                                      np.array([[0.4, 0.5, 0.6]]))
    assert np.max(np.abs(dec.rotation)) < 1e-14
    assert np.max(np.abs(dec.w_frame)) < 1e-14


# -- linearized Gauss system ---------------------------------------------------

def test_nullspace_of_full_rank_diagonal():
    dim, basis = linearized_gauss_nullspace(np.diag([1.0, 2.0, 3.0]))
    assert dim == 0 and basis.shape == (0, 6)


def test_nullspace_without_constraints():
    dim, _ = linearized_gauss_nullspace(np.zeros((3, 3)))
    assert dim == 6


def test_nullspace_of_rank_two_diagonal():
    dim, basis = linearized_gauss_nullspace(np.diag([1.0, 1.0, 0.0]))
    assert dim == 2
    # the free directions live on the rank-two block: w11 = -w22 and w12
    for vec in basis:
        w = np.zeros((3, 3))
        pairs = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
        for k, (i, j) in enumerate(pairs):
            w[i, j] = w[j, i] = vec[k]
        assert abs(w[0, 0] + w[1, 1]) < 1e-10
        assert np.max(np.abs(w[:, 2])) < 1e-10


def test_diagonal_constraint_block_matches_reduction():
    # for diagonal h the diagonal-w unknowns see the 3x3 system with rows
    # (h22, h11, 0), (h33, 0, h11), (0, h33, h22)
    h = np.diag([1.0, 2.0, 3.0])
    mat = linearized_gauss_constraints(h)
    diag_cols = [0, 3, 5]          # pair ordering (0,0), (1,1), (2,2)
    block = mat[:, diag_cols]
    rows = {tuple(r) for r in block if np.any(r)}
    expected = np.array([[2.0, 1.0, 0.0], [3.0, 0.0, 1.0], [0.0, 3.0, 2.0]])
    for row in expected:
        assert tuple(row) in rows or tuple(-row) in rows
    assert np.linalg.det(expected) == pytest.approx(-12.0)


def test_rigidity_verdicts():
    rng = np.random.default_rng(0)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    spectrum = q @ np.diag([1.0, 2.0, 3.0, 4.0]) @ q.T
    assert dr_rigidity_test(spectrum).verdict == "rigid"

    v = rng.standard_normal(4)
    low = dr_rigidity_test(np.outer(v, v))
    assert low.verdict == "not-certified" and low.null_dimension > 0

    mixed = dr_rigidity_test(np.diag([5.0, -3.0, 2.0, 0.0]))
    assert mixed.verdict == "rigid" and mixed.rank == 3


def test_nullspace_dimension_invariant_under_conjugation():
    rng = np.random.default_rng(11)
    for n in (3, 4):
        for rank in (1, 2, 3):
            h = random_symmetric_with_rank(rng, n, rank)
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            d1, _ = linearized_gauss_nullspace(h)
            d2, _ = linearized_gauss_nullspace(q @ h @ q.T)
            assert d1 == d2


def test_rank_dichotomy_sweep():
    rng = np.random.default_rng(42)
    for n in (3, 4, 5):
        for rank in range(n + 1):
            for _ in range(10):
                h = random_symmetric_with_rank(rng, n, rank)
                dim, _ = linearized_gauss_nullspace(h)
                assert (dim == 0) == (rank >= 3), (n, rank, dim)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from([-2.0, -1.0, 0.0, 0.5, 1.0, 1.5]),
                min_size=3, max_size=4),
       st.integers(-20, 22), st.booleans(), st.integers(0, 2**16))
@example([1.0, 1.0, 1.0], 23, False, 0)         # 2^1023 on the diagonal
def test_rigidity_verdict_is_invariant_under_scaling(eigenvalues, exponent,
                                                     rotate, seed):
    # max |h| <= 2^23, so 2^1000 h reaches the top of the float range and
    # 2^-1000 h its bottom
    h = np.diag(eigenvalues) * 2.0 ** exponent
    if rotate:
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal(
            (len(eigenvalues),) * 2))
        h = q @ h @ q.T
    outcomes = set()
    for k in (-1000, -500, 0, 500, 1000):
        verdict = dr_rigidity_test(h * 2.0 ** k)
        outcomes.add((verdict.verdict, verdict.rank, verdict.null_dimension))
    assert len(outcomes) == 1, outcomes


@pytest.mark.parametrize("scale", [1.0, 1e-13, 1e300])
def test_symmetry_check_does_not_depend_on_the_scale_of_h(scale):
    h = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    with pytest.raises(HighDimError, match="symmetric"):
        linearized_gauss_nullspace(scale * h)
    with pytest.raises(HighDimError, match="symmetric"):
        dr_rigidity_test(scale * h)


def test_small_dimension_rejected():
    with pytest.raises(HighDimError):
        dr_rigidity_test(np.eye(2))
