"""Infinitesimal-rigidity machinery for surfaces in R^3.

A deformation field tau solves the linearized isometry equation when
dr . dtau = 0.  Every such field has a rotation, a skew matrix Y with
dtau = Y dr (in R^3, Y v = y x v for the rotation vector y); one jet
pipeline computes it for hypersurfaces of any dimension.  The derivative
of Y is encoded by the symmetric tensor w_ij = r_j . (Y_i n), taken
against the oriented normal n; on an outward surface chart

    y_1 = (-w_12 r_1 + w_11 r_2) / sqrt(det g)
    y_2 = (-w_22 r_1 + w_21 r_2) / sqrt(det g),

and for genuine flexes w is h-trace-free and Codazzi.  With phi = r . tau
and nu = 2 (phi - grad phi . grad rho) the tensor satisfies the pointwise
relation

    w_ij = ( h_ij nu / (2 mu) - phi_{i,j} ) / mu        (mu != 0).

The discrete side assembles the linearized isometry operator on a chart
grid with difference stencils shared between r and tau, which puts every
trivial motion tau = A r + b (A skew) in the exact kernel; kernel size and
spectral gap of the assembled matrix then certify rigidity.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse

from . import jets as jt
from .darboux import SUPPORT_DEGENERATE_TOL, support_at
from .expressions import evaluate_jet, parse_expression
from .geometry import (_codazzi_defect, _cofactor_trace, _component_jets,
                       _covariant_derivative, _relative_residual, frame_at,
                       sample_grid)
from .jets import Jet, RigidlabError, batch_first, derivative_view, stacked
from .linalg import cofactor, contract, singular_values

__all__ = [
    "FlexError",
    "TrivialMotion",
    "ExpressionField",
    "RotationJets",
    "RotationData",
    "WTensor",
    "PhiRelationResult",
    "ClosednessResult",
    "FlexOperator",
    "KernelReport",
    "first_order_residual",
    "rotation_jets",
    "rotation_data",
    "w_tensor",
    "phi_relation_residual",
    "closed_one_form_residual",
    "boundary_adapted_field",
    "assemble_flex_operator",
    "kernel_dimension",
    "random_trivial_motion",
    "load_field",
    "trivial_motion_count",
]

# bytes the spectrum of an assembled operator may allocate on its route
MAX_SPECTRUM_BYTES = 4 * 2**30
FLEX_RESIDUAL_TOL = 1e-8
# deflated route: an eigenvalue of N = A^T A computed through N carries an
# absolute error of a small multiple of eps * sigma_max^2.  Every bound the
# route compares is moved by NORMAL_ROUNDING such units (eps * sigma_max for
# singular values) against the certificate, and sigma_7^2 must exceed
# NORMAL_FLOOR of them, so that the margin is at most 1e-3 of sigma_7^2.
NORMAL_ROUNDING = 1e3
NORMAL_FLOOR = 1e6
NORMAL_SHIFT = 1e-10              # c = NORMAL_SHIFT * sigma_max^2


class FlexError(RigidlabError):
    pass


def trivial_motion_count(ambient_dim):
    """Skew matrices plus translations: A(A-1)/2 + A = A(A+1)/2 for ambient
    dimension A, the expected kernel size of a rigid closed hypersurface."""
    return ambient_dim * (ambient_dim + 1) // 2


# ---------------------------------------------------------------------------
# deformation fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrivialMotion:
    """tau = A r + b with A exactly skew."""

    a_matrix: tuple
    offset: tuple

    def __post_init__(self):
        a = np.asarray(self.a_matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise FlexError("A must be square")
        if not np.array_equal(a, -a.T):
            raise FlexError("A must be exactly skew-symmetric")
        if len(self.offset) != a.shape[0]:
            raise FlexError("offset length must match A")
        object.__setattr__(self, "a_matrix", tuple(map(tuple, a.tolist())))
        object.__setattr__(self, "offset", tuple(float(b) for b in self.offset))

    @property
    def matrix(self):
        return np.asarray(self.a_matrix, dtype=float)

    @property
    def vector(self):
        return np.asarray(self.offset, dtype=float)

    @classmethod
    def from_axis(cls, axis, offset=None):
        """3D rotation generator a x r + b from an axis vector a."""
        a1, a2, a3 = (float(v) for v in axis)
        mat = ((0.0, -a3, a2), (a3, 0.0, -a1), (-a2, a1, 0.0))
        off = (0.0, 0.0, 0.0) if offset is None else tuple(offset)
        return cls(mat, off)


@dataclass(frozen=True)
class ExpressionField:
    """Deformation field given componentwise by chart expressions."""

    components: tuple


def random_trivial_motion(rng, ambient_dim=3, scale=1.0):
    raw = rng.standard_normal((ambient_dim, ambient_dim)) * scale
    return TrivialMotion(tuple(map(tuple, (raw - raw.T).tolist())),
                         tuple(rng.standard_normal(ambient_dim) * scale))


def load_field(source, dim):
    """Field from the JSON schema: {"trivial": {"A": ..., "b": ...}} or
    {"components": [expr, ...]}."""
    if isinstance(source, (TrivialMotion, ExpressionField)):
        return source
    if "trivial" in source:
        spec = source["trivial"]
        return TrivialMotion(tuple(map(tuple, spec["A"])), tuple(spec["b"]))
    if "components" in source:
        return ExpressionField(tuple(
            parse_expression(c, dim) if isinstance(c, str) else c
            for c in source["components"]))
    raise FlexError("field definition needs 'trivial' or 'components'")


def _field_jets(fld, pts, r):
    """Jets of the deformation field ``fld`` at ``pts``, at the order of the
    chart jets ``r`` the caller holds: a trivial motion A r + b is built
    from ``r``, an expression field from its components."""
    if isinstance(fld, TrivialMotion):
        return [reduce(operator.add,
                       (m * c for m, c in zip(row, r) if m != 0.0),
                       Jet.constant(b, r[0].nvars, r[0].order, pts.shape[:-1]))
                for row, b in zip(fld.matrix, fld.vector)]
    if isinstance(fld, ExpressionField):
        return [evaluate_jet(c, pts, order=r[0].order) for c in fld.components]
    raise FlexError(f"unknown field type {type(fld)!r}")


def _first_order(r, tau):
    """r_i . tau_j + r_j . tau_i from chart and field jets, and tau_i."""
    (tangents,), (dtau,) = stacked(r, (1,)), stacked(tau, (1,))
    s = contract("...ai,...aj->...ij", tangents, dtau)
    return s + np.swapaxes(s, -1, -2), dtau


def first_order_residual(immersion, fld, point):
    """Symmetric residual r_i . tau_j + r_j . tau_i; zero for flexes."""
    pts, r = _component_jets(immersion, point, 1)
    return _first_order(r, _field_jets(fld, pts, r))[0]


# ---------------------------------------------------------------------------
# the rotation of a deformation field, for hypersurfaces of any dimension
# ---------------------------------------------------------------------------

def _dot(u, v):
    return reduce(operator.add, (a * b for a, b in zip(u, v)))


def _minor(m, i, j):
    return [row[:j] + row[j + 1:] for k, row in enumerate(m) if k != i]


def _det(m):
    """Determinant of a square nested list of jets (Laplace expansion)."""
    if len(m) == 1:
        return m[0][0]
    acc = m[0][0] * _det(_minor(m, 0, 0))
    for j in range(1, len(m)):
        term = m[0][j] * _det(_minor(m, 0, j))
        acc = acc - term if j % 2 else acc + term
    return acc


@dataclass
class RotationJets:
    """Jets along the chart of the rotation Y of a deformation field, the
    skew matrix with dtau = Y dr, on a hypersurface in R^(n+1).

    Nested lists are indexed [i][a] with i a chart and a an ambient index.
    Only the entries a < b of Y are built; ``y`` maps (a, b) to them.  The
    normal carries the chart orientation.
    """

    tangents: list                # r_i
    dtau: list                    # tau_i
    normal: list                  # oriented unit normal n
    dual: list                    # t^i = g^{ij} r_j
    y: dict                       # (a, b) -> Y_ab, a < b
    tau: list                     # the field tau, at the chart jets' order

    def rotation(self):
        """Values of Y, shape (..., A, A), and of its chart derivatives
        Y_k, shape (..., n, A, A)."""
        batch = self.normal[0].batch_shape
        a_dim, n = len(self.normal), len(self.tangents)
        y = batch_first(np.zeros((a_dim, a_dim) + batch), 2)
        dy = batch_first(np.zeros((n, a_dim, a_dim) + batch), 3)
        for (a, b), jet in self.y.items():
            y[..., a, b], y[..., b, a] = jet.value, -jet.value
            dy[..., :, a, b], dy[..., :, b, a] = jet.grad, -jet.grad
        return y, dy

    def flex_residual(self):
        """max |tau_i - Y r_i| per point; zero exactly for flexes."""
        y, _ = self.rotation()
        tangents, dtau = np.moveaxis(
            stacked([self.tangents, self.dtau], (0,))[0], -3, 0)
        y_r = contract("...ab,...ib->...ia", y, tangents)
        return np.max(np.abs(dtau - y_r), axis=(-1, -2))

    def w(self):
        """The tensor w_kj = r_j . (Y_k n), symmetric for flexes: values
        (..., k, j) and derivatives d_l w_kj as (..., k, j, l), the latter
        None when Y carries first derivatives only."""
        order = next(iter(self.y.values())).order - 1
        nrm = [c.truncate(order) for c in self.normal]
        wedge = []                    # r_j ^ n on the pairs a < b
        for row in self.tangents:
            rj = [c.truncate(order) for c in row]
            wedge.append({(a, b): rj[a] * nrm[b] - rj[b] * nrm[a]
                          for a, b in self.y})
        n = len(self.tangents)
        w = [[reduce(operator.add, (derivative_view(y, k) * wedge[j][ab]
                                    for ab, y in self.y.items()))
              for j in range(n)] for k in range(n)]
        if order < 1:
            return stacked(w, (0,))[0], None
        return tuple(stacked(w, (0, 1)))


def rotation_jets(immersion, fld, point, order):
    """Rotation of ``fld`` from chart jets of ``order`` >= 2; the returned
    jets are one order lower.

    With S_ij = r_i . tau_j, u_i = n . tau_i and p = u_i t^i,

        Y = sum_{i<j} (S_ij - S_ji) / 2 (t^i t^j^T - t^j t^i^T) + n p^T - p n^T

    is the unique skew solution of dtau = Y dr when ``fld`` is a flex;
    otherwise :meth:`RotationJets.flex_residual` measures the failure.
    """
    return _rotation_from(immersion, fld,
                          *_component_jets(immersion, point, order))


def _rotation_from(immersion, fld, pts, r):
    """:func:`rotation_jets` from the chart jets ``r`` at ``pts``."""
    tau = _field_jets(fld, pts, r)
    n, a_dim = immersion.dim, len(r)
    ri = [[derivative_view(c, i) for c in r] for i in range(n)]
    taui = [[derivative_view(c, i) for c in tau] for i in range(n)]

    g = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = _dot(ri[i], ri[j])
    inv_det = _det(g).reciprocal()
    ginv = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            cof = _det(_minor(g, i, j)) if n > 1 else 1.0
            ginv[i][j] = ginv[j][i] = (-cof if (i + j) % 2 else cof) * inv_det
    dual = [[_dot([ginv[i][j] for j in range(n)], [ri[j][a] for j in range(n)])
             for a in range(a_dim)] for i in range(n)]

    # generalized cross product of the tangents, |N|^2 = det g
    flip = immersion.orientation == "inward"
    unit = jt.sqrt(inv_det)
    normal = []
    for a in range(a_dim):
        minor = _det([row[:a] + row[a + 1:] for row in ri])
        normal.append((-minor if (a % 2 == 1) != flip else minor) * unit)

    u = [_dot(normal, taui[i]) for i in range(n)]
    p = [_dot(u, [dual[i][a] for i in range(n)]) for a in range(a_dim)]
    skew = {(i, j): 0.5 * (_dot(ri[i], taui[j]) - _dot(ri[j], taui[i]))
            for i in range(n) for j in range(i + 1, n)}
    y = {}
    for a in range(a_dim):
        for b in range(a + 1, a_dim):
            acc = normal[a] * p[b] - p[a] * normal[b]
            for (i, j), s in skew.items():
                acc = acc + s * (dual[i][a] * dual[j][b]
                                 - dual[j][a] * dual[i][b])
            y[(a, b)] = acc
    return RotationJets(tangents=ri, dtau=taui, normal=normal,
                        dual=dual, y=y, tau=tau)


def _surface_rotation(immersion, fld, pts, r):
    if immersion.dim != 2:
        raise FlexError("rotation data is defined for surfaces (n = 2)")
    return _rotation_from(immersion, fld, pts, r)


@dataclass
class RotationData:
    u: np.ndarray                 # (..., 2), u_i = n . tau_i
    w_scalar: np.ndarray          # n . Y
    y: np.ndarray                 # (..., 3) rotation vector
    dy: np.ndarray                # (..., 2, 3), Y_k
    a_mixed: np.ndarray           # (..., 2, 2), Y_k = a_k^l r_l
    rotation_residual: np.ndarray  # max_i |tau_i - Y x r_i| (flex health)
    tangency_residual: np.ndarray  # max_k |n . Y_k|
    is_flex: np.ndarray


def _hodge(y):
    """Rotation vectors (Y_21, Y_02, Y_10) of skew 3x3 matrices, so that
    Y v = y x v, in the memory order of ``y``."""
    out = np.empty_like(y[..., 0])
    out[..., 0], out[..., 1], out[..., 2] = (
        y[..., 2, 1], y[..., 0, 2], y[..., 1, 0])
    return out


def rotation_data(immersion, fld, point):
    """Rotation vector Y with dtau = Y x dr, its derivative, and the mixed
    tensor a_k^l.  Non-flex inputs are flagged through ``is_flex`` and the
    rotation residual instead of raising; each point is judged on its own
    scale, so a verdict does not depend on the rest of the batch."""
    return _rotation_data(_surface_rotation(
        immersion, fld, *_component_jets(immersion, point, 2)))


def _rotation_data(rj):
    y_mat, dy_mat = rj.rotation()
    y, dy = _hodge(y_mat), _hodge(dy_mat)
    n_val, = stacked(rj.normal, (0,))
    taui, dual = np.moveaxis(stacked([rj.dtau, rj.dual], (0,))[0], -3, 0)
    residual = rj.flex_residual()
    scale = np.maximum(1.0, np.maximum(np.max(np.abs(y), axis=-1),
                                       np.max(np.abs(taui), axis=(-1, -2))))
    tangency = np.max(np.abs(contract("...a,...ka->...k", n_val, dy)),
                      axis=-1)
    return RotationData(
        u=contract("...a,...ia->...i", n_val, taui),
        w_scalar=contract("...a,...a->...", n_val, y), y=y, dy=dy,
        a_mixed=contract("...ka,...la->...kl", dy, dual),
        rotation_residual=residual, tangency_residual=tangency,
        is_flex=residual <= FLEX_RESIDUAL_TOL * scale)


@dataclass
class WTensor:
    w: np.ndarray                 # (..., 2, 2) symmetric
    w_cov: np.ndarray             # (..., k, i, j) covariant derivatives w_{ij,k}
    symmetry_residual: np.ndarray
    trace_residual: np.ndarray    # h-trace (cofactor form when h singular)
    codazzi_residual: np.ndarray


def w_tensor(immersion, fld, point):
    """Extract w_ij = r_j . (Y_i n) from the rotation derivative, with
    covariant derivatives and the trace/Codazzi health residuals.  w is
    taken against the oriented normal, so it changes sign with the
    orientation."""
    fr = frame_at(immersion, point, order=3)
    return _w_tensor(_surface_rotation(immersion, fld, fr.point, fr.jets), fr)


def _w_tensor(rj, fr):
    w_val, dw = rj.w()
    # dw[..., i, j, k] = d_k w_ij -> reorder to (..., k, i, j)
    dw = np.moveaxis(dw, -1, -3)

    sym_res = np.abs(w_val[..., 0, 1] - w_val[..., 1, 0])
    w_sym = 0.5 * (w_val + np.swapaxes(w_val, -1, -2))

    w_cov = _covariant_derivative(dw, fr.christoffels, w_sym)

    h = fr.second_form
    det_h = cofactor(h, adjugate=False)[0]
    cof = _cofactor_trace(h, w_sym)
    h_scale = np.maximum(np.max(np.abs(h), axis=(-1, -2)) ** 2, 1e-30)
    with np.errstate(divide="ignore", invalid="ignore"):
        proper = cof / det_h
    trace = np.where(np.abs(det_h) <= 1e-10 * h_scale, cof, proper)
    w_scale = np.maximum(1.0, np.max(np.abs(w_sym), axis=(-1, -2)))
    trace_res = np.abs(trace) / w_scale

    return WTensor(w=w_sym, w_cov=w_cov, symmetry_residual=sym_res,
                   trace_residual=trace_res,
                   codazzi_residual=_codazzi_defect(w_cov))


@dataclass
class PhiRelationResult:
    max_residual: np.ndarray
    skipped: np.ndarray
    phi: np.ndarray
    nu: np.ndarray
    b_field_residual: np.ndarray  # reconstruction check of b = tau - Y x r


def phi_relation_residual(immersion, fld, point):
    """Residual of  w_ij mu^2 + phi_{i,j} mu - h_ij nu / 2  (relative),
    with phi = r . tau and nu = 2 (phi - grad phi . grad rho).

    Also verifies the normal decomposition of b = tau - Y x r.  Points with
    |mu| < 1e-8 are flagged skipped.
    """
    fr = frame_at(immersion, point, order=3)
    rj = _surface_rotation(immersion, fld, fr.point, fr.jets)
    wt = _w_tensor(rj, fr)
    sup = support_at(immersion, point, frame=fr)
    tau, dtau, ddtau = stacked(rj.tau, (0, 1, 2))

    pos, tang = fr.position, fr.tangents
    phi = contract("...a,...a->...", pos, tau)
    dphi = (contract("...ai,...a->...i", tang, tau)
            + contract("...a,...ai->...i", pos, dtau))
    ddphi = (contract("...aij,...a->...ij", fr.d2, tau)
             + contract("...ai,...aj->...ij", tang, dtau)
             + contract("...aj,...ai->...ij", tang, dtau)
             + contract("...a,...aij->...ij", pos, ddtau))
    phi_hess = ddphi - contract("...kij,...k->...ij", fr.christoffels, dphi)

    grad_pair = contract("...i,...ij,...j->...",
                         dphi, fr.metric_inv, sup.grad_rho)
    nu = 2.0 * (phi - grad_pair)
    mu = sup.mu

    res = _relative_residual(
        wt.w * (mu**2)[..., None, None] + phi_hess * mu[..., None, None],
        0.5 * fr.second_form * nu[..., None, None])
    skipped = np.abs(mu) < SUPPORT_DEGENERATE_TOL

    # b = tau - Y x r should equal g^{ij} phi_i r_j + (phi - grad phi .
    # grad rho) / mu * n wherever mu is not degenerate
    b_vec = tau - contract("...ab,...b->...a", rj.rotation()[0], pos)
    with np.errstate(divide="ignore", invalid="ignore"):
        beta = np.where(skipped, 0.0, (phi - grad_pair)
                        / np.where(skipped, 1.0, mu))
    recon = (contract("...ij,...j,...ai->...a", fr.metric_inv, dphi, tang)
             + beta[..., None] * fr.normal)
    b_res = np.max(np.abs(b_vec - recon), axis=-1)
    b_res = np.where(skipped, 0.0, b_res)
    return PhiRelationResult(max_residual=np.where(skipped, 0.0, res),
                             skipped=skipped, phi=phi, nu=nu,
                             b_field_residual=b_res)


# ---------------------------------------------------------------------------
# closed one-form  omega = dY . E
# ---------------------------------------------------------------------------

@dataclass
class ClosednessResult:
    max_curl: float
    precondition_residual: float
    omega_scale: float


def closed_one_form_residual(immersion, tau_field, e_field, grid=(48, 48)):
    """Check that omega_k = Y_k . E is closed on a chart grid.

    ``e_field`` must itself satisfy dr . dE = 0 (checked first; rejected via
    :class:`FlexError` otherwise).  The curl is formed with 4th-order
    differences, wrapping periodic directions and restricting to interior
    nodes otherwise.
    """
    pts = sample_grid(immersion, grid, margin=0.02)
    # one order-2 evaluation of the chart serves E and the rotation of tau
    _, r = _component_jets(immersion, pts, 2)
    e_jets = _field_jets(e_field, pts, r)
    e_res, e_grad = _first_order(r, e_jets)
    e_scale = max(1.0, float(np.max(np.abs(e_grad))))
    pre = float(np.max(np.abs(e_res))) / e_scale
    if pre > FLEX_RESIDUAL_TOL:
        raise FlexError(
            f"E is not an admissible field: dr . dE residual {pre:.3e}")

    if isinstance(e_field, TrivialMotion):
        # the matmul of FlexOperator.evaluate_field, on the chart values
        e_val = (np.stack([c.value for c in r], axis=-1) @ e_field.matrix.T
                 + e_field.vector)
    else:
        e_val, = stacked(e_jets, (0,))
    rot = _rotation_data(_surface_rotation(immersion, tau_field, pts, r))
    omega = contract("...ka,...a->...k", rot.dy, e_val)

    spacings = [float(pts[1, 0, 0] - pts[0, 0, 0]),
                float(pts[0, 1, 1] - pts[0, 0, 1])]

    d1_omega2 = _grid_derivative(omega[..., 1], 0, spacings[0],
                                 immersion.periodic[0])
    d2_omega1 = _grid_derivative(omega[..., 0], 1, spacings[1],
                                 immersion.periodic[1])
    # restrict to nodes where both stencils were applied
    curl = (d1_omega2 - d2_omega1)[tuple(
        slice(None) if per else slice(2, -2) for per in immersion.periodic)]
    max_curl = float(np.max(np.abs(curl))) if curl.size else 0.0
    return ClosednessResult(max_curl=max_curl, precondition_residual=pre,
                            omega_scale=float(np.max(np.abs(omega))))


def _grid_derivative(values, axis, spacing, periodic):
    """4th-order centered difference along ``axis``; non-periodic edges are
    left untouched (callers mask them)."""
    v = np.moveaxis(values, axis, 0)
    out = np.zeros_like(v)
    if periodic:
        out = (np.roll(v, 2, axis=0) - 8.0 * np.roll(v, 1, axis=0)
               + 8.0 * np.roll(v, -1, axis=0) - np.roll(v, -2, axis=0)) / 12.0
    else:
        out[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / 12.0
    return np.moveaxis(out, 0, axis) / spacing


# ---------------------------------------------------------------------------
# boundary-adapted auxiliary field
# ---------------------------------------------------------------------------

def boundary_adapted_field(n1, n2, mu1, mu2):
    """Solve the 2x2 system pairing two boundary-plane normals with their
    support values and return (c1, c2, E) where

        E(x) = (n1 x n2) x (x + c1 n1 + c2 n2)

    is a trivial motion field (hence dr . dE = 0 exactly)."""
    n1 = np.asarray(n1, dtype=float)
    n2 = np.asarray(n2, dtype=float)
    axis = np.cross(n1, n2)
    if np.linalg.norm(axis) <= 1e-10:
        raise FlexError("boundary normals are parallel; the pairing system "
                        "is singular")
    c = float(n1 @ n2)
    mat = np.array([[1.0, c], [c, 1.0]])
    sol = np.linalg.solve(mat, -np.array([mu1, mu2], dtype=float))
    c1, c2 = float(sol[0]), float(sol[1])
    offset_point = c1 * n1 + c2 * n2
    motion = TrivialMotion.from_axis(axis, offset=np.cross(axis, offset_point))
    return c1, c2, motion


# ---------------------------------------------------------------------------
# discrete operator and kernel certification
# ---------------------------------------------------------------------------

@dataclass
class FlexOperator:
    """Sparse assembled linearized-isometry operator over grid unknowns.

    Rows: for every node and index pair p = (a, b), a <= b, the
    shared-stencil residual D_a r . D_b tau + D_b r . D_a tau.  Along each
    axis D sums the 4th-order centered difference where its 5-point window
    fits, the 2-point forward difference where it fits, else the backward
    one, and on ring 0 of a closed bottom pole the backward difference
    through that pole.  Neighbours wrap on a periodic axis, are mirrored
    through a closed pole (ring -1 - j below, 2 nt - 1 - j above, half a
    period round in s) and do not exist past an open edge.  Sharing the
    stencils between r and tau makes every trivial motion an exact kernel
    vector; the one-sided part removes the checkerboard modes centered
    stencils cannot see.  Row 3 (i nt + j) + p and column
    3 (i nt + j) + alpha belong to node (i, j).

    On pole-closed charts the unknowns of the pole-adjacent rings are
    restricted to ring Fourier frequencies {0, 1}: any field smooth across
    the pole has O(spacing^2) content beyond those on a ring of
    near-degenerate radius, while trivial motions have exactly none, so the
    restriction removes the under-resolved cap oscillations without
    touching the certified kernel.  ``basis`` is the sparse orthonormal
    (grid unknowns x reduced unknowns) basis of that restriction, None
    without poles.  ``rotation`` is the grid rotation of a chart of
    revolution (see ``_grid_rotation``), None otherwise; it selects the
    Fourier-sector spectrum over the deflated certificate and the dense
    SVD.
    """

    operator: scipy.sparse.csr_matrix     # rows x grid unknowns
    basis: Optional[scipy.sparse.csr_matrix]
    rotation: Optional[np.ndarray]
    immersion: object
    grid: tuple
    nodes: np.ndarray             # (ns, nt, 2)
    positions: np.ndarray         # (ns, nt, 3)
    unknown_count: int            # reduced count (matrix columns)
    node_matrix: None = None      # no dense node copy; perfbench reads it

    @functools.cached_property
    def matrix(self):
        """Dense rows x reduced unknowns operator: the dense SVD route and
        the test oracle for the other two."""
        reduced = self.operator if self.basis is None else (
            self.operator @ self.basis)
        return reduced.toarray()

    def reduce_vector(self, vec):
        """Grid vector -> reduced coordinates (orthonormal projection)."""
        return vec if self.basis is None else self.basis.T @ vec

    def evaluate_field(self, fld):
        """Coordinates of a deformation field on the grid (reduced basis
        when a pole restriction is active); a trivial motion is read off
        the grid positions."""
        if isinstance(fld, TrivialMotion):
            values = self.positions @ fld.matrix.T + fld.vector
        else:
            values = np.stack([evaluate_jet(c, self.nodes, order=0).value
                               for c in fld.components], axis=-1)
        return self.reduce_vector(values.reshape(-1))

    def apply(self, vector):
        if self.basis is not None:
            vector = self.basis @ vector
        return self.operator @ vector


def _grid_axes(immersion, grid):
    """Node coordinates and spacing of both axes, as ((s, h_s), (t, h_t)):
    one node per period on a periodic axis, endpoints included on an open
    one, and offset half a spacing from the ends on the pole axis of a chart
    with ``closed_poles``."""
    ns, nt = grid
    (slo, shi), (tlo, thi) = immersion.domain
    if not immersion.periodic[0] and immersion.periodic[1]:
        raise FlexError("grids expect the periodic axis first when present")
    if immersion.periodic[0]:
        s_axis = (slo + (shi - slo) * np.arange(ns) / ns, (shi - slo) / ns)
    else:
        s_axis = (np.linspace(slo, shi, ns), (shi - slo) / (ns - 1))
    closed = immersion.closed_poles
    if closed and any(closed):
        if not immersion.periodic[0]:
            raise FlexError("pole closure needs a periodic first axis")
        if ns % 2:
            raise FlexError("pole closure needs an even periodic node count")
        h = (thi - tlo) / nt
        t_axis = (tlo + (np.arange(nt) + 0.5) * h, h)
    else:
        t_axis = (np.linspace(tlo, thi, nt),
                  (thi - tlo) / (nt if immersion.periodic[1] else nt - 1))
    return s_axis, t_axis


def _difference_1d(m, h, periodic, closed=(False, False)):
    """The difference D of ``FlexOperator`` along one axis of ``m`` nodes
    spaced ``h``, as sparse (m x m) parts (within, through): ``through``
    reaches the neighbors mirrored through a closed pole.  The backward
    difference through the bottom pole on ring 0 pins cap modes that
    oscillate across it, as the forward one does across the top pole."""
    # coefficients at the offsets -2..2
    centered = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12 * h)
    forward = np.array([0.0, 0.0, -1.0, 1.0, 0.0]) / h
    backward = np.array([0.0, -1.0, 1.0, 0.0, 0.0]) / h
    bottom, top = (bool(c) and not periodic for c in closed)
    node = np.arange(m)[:, None]
    k = node + np.arange(-2, 3)
    below, above = k < 0, k >= m
    through = (below & bottom) | (above & top)
    if periodic:
        col = k % m
    else:
        col = np.where(below, -1 - k, np.where(above, 2 * m - 1 - k, k))
        col[(below | above) & ~through] = -1      # past an open edge
    # a stencil fits at a node when every offset it weighs reaches a node
    fit_c, fit_f = (np.all((col >= 0) | (st == 0.0), axis=1, keepdims=True)
                    for st in (centered, forward))
    coef = (fit_c * centered + fit_f * forward
            + (~fit_f | ((node == 0) & bottom)) * backward)
    rows = np.broadcast_to(node, k.shape)
    return [scipy.sparse.csr_matrix((coef[sel], (rows[sel], col[sel])),
                                    shape=(m, m))
            for sel in ((coef != 0.0) & ~through, (coef != 0.0) & through)]


def _difference_matrices(immersion, grid, h_s, h_t):
    """Sparse (nodes x nodes) differences D_0 along s and D_1 along t, node
    i nt + j at (i, j): D_0 = D_s (x) I, and D_1 = I (x) D_t within the axis
    plus the half-period shift (x) D_t through the poles."""
    ns, nt = grid
    d_s, _ = _difference_1d(ns, h_s, immersion.periodic[0])
    d_t, d_pole = _difference_1d(nt, h_t, immersion.periodic[1],
                                 immersion.closed_poles or (False, False))
    eye_s = scipy.sparse.identity(ns, format="csr")
    half_turn = eye_s[np.roll(np.arange(ns), -(ns // 2))]
    return [scipy.sparse.kron(d_s, scipy.sparse.identity(nt), format="csr"),
            scipy.sparse.kron(eye_s, d_t, format="csr")
            + scipy.sparse.kron(half_turn, d_pole, format="csr")]


def assemble_flex_operator(immersion, grid=(64, 32)):
    """Assemble the discrete linearized-isometry operator on ``grid``.

    The grid is node-per-period in periodic directions, endpoint-inclusive
    otherwise, and pole-offset (no node at the degenerate ends) on charts
    with ``closed_poles``; closure across poles is realized by the exact
    half-period wrap of the chart, which is verified numerically.

    The operator is sparse; ``kernel_dimension`` takes its spectrum by
    Fourier sectors on charts of revolution; on other charts it tries the
    deflated certificate and falls back to a dense SVD.  A grid whose
    route would allocate more than ``MAX_SPECTRUM_BYTES`` (the dense SVD,
    charged in full because it stays the fallback) is refused here, and one
    that neither route could take before anything grid-sized is built.
    """
    if immersion.dim != 2:
        raise FlexError("the flex operator is assembled for surfaces (n = 2)")
    ns, nt = grid
    if min(grid) < 5:
        raise FlexError(f"grid {ns}x{nt} too coarse for the 5-point stencil")
    n_nodes = ns * nt
    n_unknowns = 3 * n_nodes
    (s_axis, h_s), (t_axis, h_t) = _grid_axes(immersion, grid)
    # each pole-adjacent ring keeps 3 of its ns unknowns per component
    n_cols = n_unknowns - 3 * (ns - 3) * len(_pole_rings(immersion, grid))
    need = {"dense SVD": 2 * n_unknowns * n_cols * 8}
    if _turns_once(immersion):
        # ring-0 rows, their DFT and its product with u (8 + 16 + 16 bytes
        # per entry), plus one complex block
        need["Fourier-sector"] = 40 * 3 * nt * n_unknowns + 16 * (3 * nt) ** 2
    _charge_spectrum(" or ".join(need), min(need.values()), n_unknowns)
    mesh = np.stack(np.meshgrid(s_axis, t_axis, indexing="ij"), axis=-1)
    positions = np.stack(
        [evaluate_jet(c, mesh, order=0).value for c in immersion.components],
        axis=-1)
    _validate_pole_wrap(immersion, grid, mesh, positions, h_t)
    rotation = _grid_rotation(immersion, grid, positions)
    route = "dense SVD" if rotation is None else "Fourier-sector"
    _charge_spectrum(route, need[route], n_unknowns)
    basis = _pole_ring_basis(immersion, grid, s_axis)

    # the block of pair (a, b) and component alpha is
    # diag(D_a r_alpha) D_b + diag(D_b r_alpha) D_a; interleaving puts row
    # p N + k at 3 k + p and column alpha N + k at 3 k + alpha
    d = _difference_matrices(immersion, grid, h_s, h_t)
    d_r = [dk @ positions.reshape(n_nodes, 3) for dk in d]
    blocks = [[scipy.sparse.diags(d_r[a][:, alpha]) @ d[b]
               + scipy.sparse.diags(d_r[b][:, alpha]) @ d[a]
               for alpha in range(3)] for a, b in ((0, 0), (0, 1), (1, 1))]
    order = np.arange(n_unknowns).reshape(3, n_nodes).T.ravel()
    csr = scipy.sparse.bmat(blocks, format="csr")[order][:, order]
    csr.sort_indices()
    return FlexOperator(operator=csr, basis=basis, rotation=rotation,
                        immersion=immersion, grid=grid, nodes=mesh,
                        positions=positions, unknown_count=n_cols)


def _charge_spectrum(route, need, n_unknowns):
    if need > MAX_SPECTRUM_BYTES:
        raise FlexError(f"the {route} spectrum of {n_unknowns} unknowns "
                        f"needs {need} bytes, which exceeds the limit "
                        f"{MAX_SPECTRUM_BYTES}")


def _pole_rings(immersion, grid):
    """t-indices of the pole-adjacent rings."""
    closed = immersion.closed_poles or (False, False)
    nt = grid[1]
    return [j for j, flag in ((0, closed[0]), (nt - 1, closed[1])) if flag]


def _pole_ring_basis(immersion, grid, s_axis):
    """Sparse orthonormal unknown basis restricting each pole-adjacent ring
    to the span of {1, cos s, sin s} per ambient component; identity
    elsewhere.  Columns: the free unknowns in grid order, then three per
    (ring, component).  None without poles."""
    rings = _pole_rings(immersion, grid)
    if not rings:
        return None
    ns, nt = grid
    raw = np.stack([np.ones(ns), np.cos(s_axis), np.sin(s_axis)], axis=1)
    ring_q, _ = np.linalg.qr(raw)               # (ns, 3) orthonormal

    n_unknowns = 3 * ns * nt
    eye = scipy.sparse.identity(n_unknowns, format="csc")
    free = np.ones(n_unknowns, dtype=bool)
    blocks = []
    for j in rings:
        for alpha in range(3):
            idx = 3 * (np.arange(ns) * nt + j) + alpha
            free[idx] = False
            blocks.append(scipy.sparse.csc_matrix(eye[:, idx] @ ring_q))
    return scipy.sparse.hstack([eye[:, np.flatnonzero(free)], *blocks],
                               format="csr")


def _validate_pole_wrap(immersion, grid, mesh, positions, h):
    """Check that the ghost ring half a spacing ``h`` past each closed pole
    is the pole-adjacent ring turned by half a period."""
    closed = immersion.closed_poles or (False, False)
    ns, nt = grid
    (tlo, thi) = immersion.domain[1]
    for t_ghost, j_real, flag in ((tlo - 0.5 * h, 0, closed[0]),
                                  (thi + 0.5 * h, nt - 1, closed[1])):
        if not flag:
            continue
        ghost_pts = np.stack(
            [mesh[:, 0, 0], np.full(ns, t_ghost)], axis=-1)
        ghost_pos = np.stack(
            [evaluate_jet(c, ghost_pts, order=0).value
             for c in immersion.components], axis=-1)
        wrapped = positions[np.mod(np.arange(ns) + ns // 2, ns), j_real]
        if float(np.max(np.abs(ghost_pos - wrapped))) > 1e-9:
            raise FlexError(
                "closed_poles is set but the chart does not wrap through "
                "the pole (half-period shift mismatch)")


# ---------------------------------------------------------------------------
# sector decomposition for charts of revolution
# ---------------------------------------------------------------------------

def _turns_once(immersion):
    """Whether the first axis is periodic over one full turn: what a grid
    rotation needs before any sample is taken."""
    lo, hi = immersion.domain[0]
    return (immersion.periodic[0]
            and abs((hi - lo) - 2.0 * math.pi) <= 1e-12)


def _grid_rotation(immersion, grid, positions, tol=1e-12):
    """Rotation R about the ambient z-axis with r(i+1, j) = R r(i, j) for
    the whole grid, or None.  Shared stencils make the assembled operator
    exactly equivariant under (shift in i, conjugation by R) whenever the
    samples satisfy this, which block-diagonalizes it by s-frequency."""
    if not _turns_once(immersion):
        return None
    ns = grid[0]
    delta = 2.0 * math.pi / ns
    c, s = math.cos(delta), math.sin(delta)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    shifted = np.roll(positions, -1, axis=0)
    err = np.max(np.abs(shifted - positions @ rot.T))
    scale = max(1.0, float(np.max(np.abs(positions))))
    return rot if err <= tol * scale else None


def _sector_singular_values(op, rot):
    """Singular values of the (pole-reduced) operator through the discrete
    Fourier block decomposition; equals the dense spectrum to rounding.

    Equivariance makes the rows of s-ring i the rows of ring 0 with the
    columns shifted by i rings and the components rotated by R^i.  With u_d
    the eigenvectors of R (R u_d = exp(i c_d delta) u_d), the column vector
    exp(2 pi i k i' / ns) u_d is therefore mapped into s-frequency
    m = k - c_d, and the m-th block is the k-th inverse DFT of ring 0's
    rows over the column ring, contracted with u (Golub and Van Loan,
    Matrix Computations, 4th ed., sec. 8.6, for the block-wise SVD)."""
    ns, nt = op.grid
    delta = 2.0 * math.pi / ns
    # eigenvectors of the component rotation and their integer frequencies
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    u = np.array([[inv_sqrt2, inv_sqrt2, 0.0],
                  [1j * inv_sqrt2, -1j * inv_sqrt2, 0.0],
                  [0.0, 0.0, 1.0]], dtype=complex)   # columns: e+, e-, ez
    eig = np.diag(u.conj().T @ rot @ u)
    freqs = np.round(np.angle(eig) / delta).astype(int)   # c_d per column
    if np.max(np.abs(eig - np.exp(1j * freqs * delta))) > 1e-10:
        raise FlexError("component rotation is not a grid rotation")

    # ring-0 rows by (column mode k, column ring j, eigen-component d)
    ring = op.operator[:3 * nt].toarray().reshape(3 * nt, ns, nt, 3)
    modes = np.fft.ifft(ring, axis=1, norm="forward") @ u
    del ring

    rings = _pole_rings(op.immersion, op.grid)
    keep_raw = {0, 1, ns - 1}
    svals = []
    for m in range(ns):
        cols = []
        for d in range(3):
            k = (m + freqs[d]) % ns
            keep = [j for j in range(nt)
                    if j not in rings or k in keep_raw]
            cols.append(modes[:, k, keep, d])
        svals.append(scipy.linalg.svdvals(np.concatenate(cols, axis=1)))
    return np.sort(np.concatenate(svals))[::-1]


# ---------------------------------------------------------------------------
# deflated sparse certificate for every other chart
# ---------------------------------------------------------------------------

class _NoCertificate(Exception):
    """A Rayleigh quotient on the complement of the trivial motions fell
    below what a certificate needs."""


def _trivial_basis(op):
    """Orthonormal reduced coordinates (unknowns x 6) of the three unit
    translations and the three axis rotations."""
    eye = np.eye(3)
    fields = [TrivialMotion(np.zeros((3, 3)), e) for e in eye]
    fields += [TrivialMotion.from_axis(e) for e in eye]
    q, _ = np.linalg.qr(np.stack([op.evaluate_field(f) for f in fields],
                                 axis=1))
    return q


def _deflated_certificate(op, rel_tol, gap_requirement):
    """Certificate from two Courant-Fischer bounds, without a dense SVD.

    With T the orthonormal trivial motions and A the reduced operator,
    kappa = ||A T||_2 bounds sigma_6 from above and mu = min over v _|_ T
    of ||A v|| / ||v|| bounds sigma_7 from below.  mu^2 + c is the inverse
    of the largest eigenvalue of P (N + c I)^-1 P on the range of
    P = I - T T^T, N = A^T A, taken by Lanczos (ARPACK's eigsh, Lehoucq,
    Sorensen and Yang 1998) on one sparse factorization of N + c I; the
    Ritz value plus its residual norm bounds that eigenvalue from above as
    long as the Lanczos start vector, a fixed pseudo-random one, has a
    component along its eigenvector.

    Returns (kappa, mu, sigma_max) when kappa <= cut < mu,
    mu >= gap_requirement * kappa and mu^2 is at least NORMAL_FLOOR
    rounding units above zero, each with its rounding margin against the
    certificate; None otherwise.  Since sigma_6 <= kappa and
    sigma_7 >= mu, a chart certified here is certified by the dense SVD.
    The iteration stops early once a Rayleigh quotient ||A w||^2 / ||w||^2
    of an iterate w _|_ T, an upper bound on mu^2, is too small; flexible
    charts get there after one or two solves.
    """
    # imported here, not with the module: every CLI command imports flex,
    # and only this route needs ARPACK and SuperLU (2 MB of RSS)
    from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator,
                                     eigsh, splu)

    a = (op.operator if op.basis is None else op.operator @ op.basis).tocsr()
    at = a.T.tocsr()
    n = a.shape[1]
    eps = np.finfo(float).eps
    trivial = _trivial_basis(op)
    kappa = float(singular_values(a @ trivial)[0])

    def project(x):
        return x - trivial @ (trivial.T @ x)

    def quotient(x):
        return float(np.sum((a @ x) ** 2) / np.sum(x ** 2))

    start = np.random.default_rng(0).standard_normal(n)
    normal = LinearOperator((n, n), matvec=lambda x: at @ (a @ x),
                            dtype=float)
    try:
        (top,), vec = eigsh(normal, k=1, which="LA", v0=start)
    except ArpackNoConvergence:
        return None
    vec = vec[:, 0]
    top_hi = top + float(np.linalg.norm(normal @ vec - top * vec))
    margin = NORMAL_ROUNDING * eps * top_hi
    sigma_lo = math.sqrt(max(top - margin, 0.0))
    sigma_hi = math.sqrt(top_hi + margin)
    kappa_hi = kappa + NORMAL_ROUNDING * eps * sigma_hi
    if not (top > 0.0 and kappa_hi <= rel_tol * sigma_lo):
        return None
    # mu^2 must exceed all three, each with its margin
    need = max((rel_tol * sigma_hi) ** 2, (gap_requirement * kappa_hi) ** 2,
               NORMAL_FLOOR * eps * top_hi)

    shift = NORMAL_SHIFT * top
    lu = splu((at @ a + shift * scipy.sparse.identity(n)).tocsc(),
              permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0,
              options={"SymmetricMode": True})

    def inverse(x):
        y = project(lu.solve(project(np.ravel(x))))
        if quotient(y) + margin <= need:
            raise _NoCertificate
        return y

    deflated = LinearOperator((n, n), matvec=inverse, dtype=float)
    try:
        (theta,), vec = eigsh(deflated, k=1, which="LA", v0=project(start))
        vec = project(vec[:, 0])
        residual = float(np.linalg.norm(inverse(vec) - theta * vec)
                         / np.linalg.norm(vec))
    except (_NoCertificate, ArpackNoConvergence):
        return None
    mu_sq = 1.0 / theta - shift
    mu_sq_lo = 1.0 / (theta + residual) - shift - margin
    # mu^2 <= the Rayleigh quotient of any v _|_ T: a lower bound above it
    # means the Ritz pair is not trustworthy
    if not need < mu_sq_lo <= quotient(vec) + margin:
        return None
    return kappa, math.sqrt(mu_sq), math.sqrt(top)


@dataclass
class KernelReport:
    dimension: int
    gap_ratio: float
    sigma_max: float
    kernel_sigma: float           # largest singular value counted as zero
    next_sigma: float             # smallest singular value above the cut
    rel_tol: float
    verdict: str
    expected_trivial: int = 6
    singular_values: Optional[np.ndarray] = None   # ascending
    # "dense" SVD, Fourier "sector" blocks, or "deflated" bounds; on the
    # deflated route kernel_sigma is the bound kappa >= sigma_6, next_sigma
    # is mu <= sigma_7, and singular_values holds only mu and sigma_max at
    # their ascending indices ``resolved``
    route: str = "dense"
    resolved: Optional[tuple] = None


def kernel_dimension(op, rel_tol=1e-8, gap_requirement=10.0):
    """Count near-zero singular values of the assembled operator.

    dim = #(sigma <= rel_tol * sigma_max).  A rigidity certificate is
    issued only when dim equals the trivial-motion count and the spectral
    gap ratio sigma_(dim+1)/sigma_(dim) is at least ``gap_requirement``;
    without a clear gap the verdict is "indeterminate", never a false
    certificate.

    Routes, in the order tried: charts of revolution take the full
    spectrum by Fourier sectors.  Every other assembled operator first
    tries the deflated certificate (``_deflated_certificate``), which
    proves sigma_6 <= kappa <= cut < mu <= sigma_7 with the gap and reports
    only those bounds; when it cannot, the full spectrum comes from one
    dense SVD, exactly as without the deflated route.  A plain matrix
    always takes the dense SVD.
    """
    expected = trivial_motion_count(3)
    if isinstance(op, FlexOperator) and op.rotation is None:
        bounds = _deflated_certificate(op, rel_tol, gap_requirement)
        if bounds is not None:
            kappa, mu, smax = bounds
            gap = mu / max(kappa, smax * 1e-300)
            return KernelReport(
                dimension=expected, gap_ratio=gap, sigma_max=smax,
                kernel_sigma=kappa, next_sigma=mu, rel_tol=rel_tol,
                verdict="certified-rigid", expected_trivial=expected,
                singular_values=np.array([mu, smax]), route="deflated",
                resolved=(expected, op.unknown_count - 1))
    if not isinstance(op, FlexOperator):
        svals, route = singular_values(np.asarray(op)), "dense"
    elif op.rotation is not None:
        svals, route = _sector_singular_values(op, op.rotation), "sector"
    else:
        svals, route = singular_values(op.matrix), "dense"
    asc = svals[::-1]
    smax = float(svals[0])
    if smax == 0.0:
        raise FlexError("operator is identically zero")
    cut = rel_tol * smax
    dim = int(np.sum(asc <= cut))
    kernel_sigma = float(asc[dim - 1]) if dim > 0 else 0.0
    next_sigma = float(asc[dim]) if dim < asc.size else float("inf")
    if dim == 0:
        gap = float("inf")
    else:
        gap = next_sigma / max(kernel_sigma, smax * 1e-300)
    if gap < gap_requirement:
        verdict = "indeterminate"
    elif dim == expected:
        verdict = "certified-rigid"
    elif dim > expected:
        verdict = "flexible"
    else:
        verdict = "indeterminate"
    return KernelReport(dimension=dim, gap_ratio=float(gap), sigma_max=smax,
                        kernel_sigma=kernel_sigma, next_sigma=next_sigma,
                        rel_tol=rel_tol, verdict=verdict,
                        expected_trivial=expected, singular_values=asc,
                        route=route)
