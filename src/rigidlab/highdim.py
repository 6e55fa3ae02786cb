"""Pointwise rigidity algebra for hypersurfaces in R^(n+1), n >= 3.

The rotation of a deformation field generalizes to a bivector field; its
chart derivative, expanded in the wedge frame built from the tangents and
the normal, has vanishing tangential-tangential components, and the
normal-tangent block defines the symmetric tensor w.  The homogeneous
linearized Gauss constraints

    h_kj w_il - h_lj w_ik = h_ki w_jl - h_li w_jk

over all index 4-tuples admit only w = 0 exactly when rank(h) >= 3, which
is the pointwise certificate this module tests, with a brute-force null
space as its own oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .flex import rotation_jets
from .geometry import in_point_blocks
from .jets import RigidlabError, stacked
from .linalg import contract, null_space, numerical_rank

__all__ = [
    "HighDimError",
    "RigidityInconsistencyError",
    "generalized_kronecker",
    "BivectorDecomposition",
    "decompose_rotation_bivector",
    "linearized_gauss_nullspace",
    "DRVerdict",
    "dr_rigidity_test",
    "random_symmetric_with_rank",
]


class HighDimError(RigidlabError):
    pass


class RigidityInconsistencyError(HighDimError):
    """The rank test and the null-space test disagree; this would contradict
    the pointwise rigidity dichotomy and aborts instead of guessing."""


def generalized_kronecker(upper, lower):
    """Antisymmetrized permutation symbol delta^{upper}_{lower} in {-1,0,1}.

    Equals the sign of the permutation mapping ``lower`` to ``upper``; zero
    when either tuple repeats an index or the index sets differ.
    """
    up = tuple(int(i) for i in upper)
    low = tuple(int(i) for i in lower)
    if len(up) != len(low):
        raise HighDimError("index tuples must have equal length")
    for i in (*up, *low):
        if i < 1:
            raise HighDimError(f"indices are 1-based, got {i}")
    if len(set(up)) != len(up) or len(set(low)) != len(low):
        return 0
    if set(up) != set(low):
        return 0
    # sign of the permutation sending low to up: the parity of its inversions
    perm = [low.index(i) for i in up]
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    return -1 if inversions % 2 else 1


# ---------------------------------------------------------------------------
# rotation bivector of a flex on a hypersurface
# ---------------------------------------------------------------------------

@dataclass
class BivectorDecomposition:
    rotation: np.ndarray          # (..., A, A) pointwise skew rotation matrix
    w_frame: np.ndarray           # (..., n, A, A) frame components of dY
    w_sym: np.ndarray             # (..., n, n) w_kj = r_j . (Y_k n)
    tangential_residual: np.ndarray   # max |W_i^{j gamma}|, tangential pairs
    symmetry_residual: np.ndarray
    flex_residual: np.ndarray     # how well dtau = Y dr held pointwise


@in_point_blocks
def decompose_rotation_bivector(immersion, fld, point):
    """Pointwise rotation of a flex and the frame expansion of its derivative.

    Takes the skew rotation Y with dtau = Y dr from the shared jet pipeline
    (:func:`rigidlab.flex.rotation_jets`) and expands each derivative Y_k in
    the frame bivector basis e_alpha ^ e_beta with e_1..e_n the tangents and
    e_{n+1} the oriented normal.  Tangential-tangential components must
    vanish and w_kj = r_j . (Y_k n) must be symmetric; for trivial motions
    everything is zero.
    """
    n = immersion.dim
    rj = rotation_jets(immersion, fld, point, order=2)
    y_val, y_der = rj.rotation()

    # frame expansion: dY_k = E (2 W_k) E^T with E = [r_1 .. r_n | n],
    # whose inverse has the rows t^1 .. t^n, n (t^i = g^{ij} r_j)
    frame_inv, = stacked([*rj.dual, rj.normal], (0,))
    left = contract("...pa,...kab->...kpb", frame_inv, y_der)
    w_frame = 0.5 * contract("...kpb,...qb->...kpq", left, frame_inv)

    tang_res = np.max(np.abs(w_frame[..., :, :n, :n]), axis=(-1, -2, -3))
    w_sym, _ = rj.w()
    sym_res = np.max(np.abs(w_sym - np.swapaxes(w_sym, -1, -2)), axis=(-1, -2))
    return BivectorDecomposition(
        rotation=y_val, w_frame=w_frame, w_sym=w_sym,
        tangential_residual=tang_res, symmetry_residual=sym_res,
        flex_residual=rj.flex_residual())


# ---------------------------------------------------------------------------
# linearized Gauss null space and the rank-3 rigidity test
# ---------------------------------------------------------------------------

def _sym_index(n):
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    lookup = {}
    for k, (i, j) in enumerate(pairs):
        lookup[(i, j)] = k
        lookup[(j, i)] = k
    return pairs, lookup


def _normalized(h):
    """h / max |h_ij| (h itself when zero): the linearized Gauss system is
    homogeneous in h, so its null space does not change, and an h near the
    top of the float range cannot overflow where a row sums two entries."""
    peak = float(np.max(np.abs(h), initial=0.0))
    return h / peak if peak > 0.0 else h


def linearized_gauss_constraints(h):
    """Constraint matrix of h_kj w_il - h_lj w_ik = h_ki w_jl - h_li w_jk
    over all index 4-tuples; unknowns are the n(n+1)/2 entries of w.
    Symmetry of h is checked relative to max |h_ij|."""
    h = np.asarray(h, dtype=float)
    n = h.shape[0]
    if h.shape != (n, n):
        raise HighDimError("h must be square")
    unit = _normalized(h)
    if not np.allclose(unit, unit.T, atol=1e-12):
        raise HighDimError("h must be symmetric")
    pairs, lookup = _sym_index(n)
    rows = []
    for i, j, k, l in itertools.product(range(n), repeat=4):
        row = np.zeros(len(pairs))
        row[lookup[(i, l)]] += h[k, j]
        row[lookup[(i, k)]] -= h[l, j]
        row[lookup[(j, l)]] -= h[k, i]
        row[lookup[(j, k)]] += h[l, i]
        if np.any(row):
            rows.append(row)
    if not rows:
        rows = [np.zeros(len(pairs))]
    return np.array(rows)


def linearized_gauss_nullspace(h, rel_tol=1e-10):
    """Null-space dimension and orthonormal basis of the linearized Gauss
    system; basis rows are coordinates in the symmetric-pair ordering
    (0,0), (0,1), ..., (n-1,n-1)."""
    h = np.asarray(h, dtype=float)
    n = h.shape[0]
    if n < 3:
        raise HighDimError("the pointwise test is stated for n >= 3")
    mat = linearized_gauss_constraints(_normalized(h))
    basis = null_space(mat, rel_tol=rel_tol)
    return basis.shape[0], basis


def _nullspace_dimension_diagonalized(h, rel_tol=1e-10):
    """Cross-check route: diagonalize h orthogonally first.  The dimension
    is invariant under the congruence because w transforms tensorially."""
    eigvals, _ = np.linalg.eigh(np.asarray(h, dtype=float))
    dim, _ = linearized_gauss_nullspace(np.diag(eigvals), rel_tol=rel_tol)
    return dim


@dataclass
class DRVerdict:
    rank: int
    null_dimension: int
    verdict: str                  # "rigid" | "not-certified"


def dr_rigidity_test(h, rank_tol=1e-10):
    """Pointwise rigidity verdict: "rigid" iff the numerical rank of h is at
    least 3 and the linearized Gauss system pins w = 0.

    Both tests run; a disagreement between them would contradict the
    dichotomy the test relies on and raises
    :class:`RigidityInconsistencyError` with the diagnostic data.
    """
    h = np.asarray(h, dtype=float)
    n = h.shape[0]
    if n < 3:
        raise HighDimError("the pointwise test is stated for n >= 3")
    rank = numerical_rank(h, rel_tol=rank_tol)
    null_dim, _ = linearized_gauss_nullspace(h, rel_tol=rank_tol)
    diag_dim = _nullspace_dimension_diagonalized(h, rel_tol=rank_tol)
    if null_dim != diag_dim:
        raise RigidityInconsistencyError(
            f"direct ({null_dim}) and diagonalized ({diag_dim}) null-space "
            "dimensions disagree")
    if rank >= 3 and null_dim == 0:
        return DRVerdict(rank=rank, null_dimension=0, verdict="rigid")
    if rank >= 3 and null_dim > 0:
        raise RigidityInconsistencyError(
            f"rank {rank} >= 3 but the null space has dimension {null_dim}")
    if rank <= 2 and null_dim == 0:
        raise RigidityInconsistencyError(
            f"rank {rank} <= 2 but the null space is trivial")
    return DRVerdict(rank=rank, null_dimension=null_dim,
                     verdict="not-certified")


def random_symmetric_with_rank(rng, n, rank, scale=(0.1, 3.0)):
    """Random symmetric n x n matrix with controlled rank: orthogonal
    conjugation of a +-[scale] diagonal with ``rank`` nonzero entries."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.zeros(n)
    mags = rng.uniform(scale[0], scale[1], size=rank)
    signs = rng.choice([-1.0, 1.0], size=rank)
    vals[:rank] = mags * signs
    rng.shuffle(vals)
    return q @ np.diag(vals) @ q.T
