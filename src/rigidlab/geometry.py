"""Immersed hypersurface charts: frames, fundamental forms, curvature,
covariant derivatives, and boundary-adapted geodesic coordinates.

Sign conventions used throughout the package:

* the normal is the normalized generalized cross product of the tangents
  (right-handed frame), negated when ``orientation == "inward"``;
* the second fundamental form is ``h_ij = (d_ij r) . n``, which makes ``h``
  negative definite on a sphere with outward normal and support ``mu > 0``;
* in a boundary chart with inward arclength parameter t, the reported
  geodesic curvature is ``k_g = B_t(s, 0)``; a flat disk therefore reports
  ``k_g = -1``.  Callers that need the classical (Gauss-Bonnet) sign flip it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .expressions import evaluate_jet
from .jets import RigidlabError, batch_first, stacked
from .linalg import cofactor, contract
from .quadrature import invert_antiderivative, spectral_derivative

__all__ = [
    "GeometryError",
    "DegenerateFrameError",
    "GeodesicChartError",
    "Immersion",
    "PointFrame",
    "GeodesicChart",
    "frame_at",
    "covariant_hessian",
    "second_form_derivatives",
    "brioschi_curvature",
    "geodesic_boundary_chart",
    "interior_points",
    "sample_grid",
    "POINT_BLOCK",
    "in_point_blocks",
]

# Tangent frames are rejected when det(g) falls below this times the natural
# scale (max tangent norm)^(2n).
DEGENERACY_RTOL = 1e-12
# Immersion.contains accepts points this fraction of an axis's width outside
CONTAINS_SLACK = 1e-9
# _trace_residual treats h as singular when |det h| <= this times max |h_ij|^2
SINGULAR_FORM_RTOL = 1e-10
# points per block of the pointwise suites (in_point_blocks, and the
# check-surface and pair-check loops): a block's order-3 jets and frame stay
# in cache-sized arrays, and memory does not grow with the batch
POINT_BLOCK = 4096


class GeometryError(RigidlabError):
    pass


class DegenerateFrameError(GeometryError):
    pass


class GeodesicChartError(GeometryError):
    pass


@dataclass(frozen=True)
class Immersion:
    """Parametrized hypersurface chart r : box in R^n -> R^(n+1).

    ``components`` are expression ASTs in x1..xn.  ``closed_poles`` marks a
    chart (periodic in the first axis) that closes smoothly across the lo/hi
    ends of the second axis through a half-period shift, as a lat-long sphere
    chart does; only the flex-operator assembly consumes it.
    """

    name: str
    dim: int
    components: tuple
    domain: tuple
    periodic: tuple
    orientation: str = "outward"
    closed_poles: Optional[tuple] = None

    def __post_init__(self):
        if len(self.components) != self.dim + 1:
            raise GeometryError(
                f"immersion {self.name}: expected {self.dim + 1} components, "
                f"got {len(self.components)}")
        if len(self.domain) != self.dim or len(self.periodic) != self.dim:
            raise GeometryError(f"immersion {self.name}: domain/periodic size "
                                "must match the chart dimension")
        if self.closed_poles is not None and len(self.closed_poles) != 2:
            raise GeometryError(f"immersion {self.name}: closed_poles needs "
                                "two flags, one per end of the second axis")
        if self.orientation not in ("outward", "inward"):
            raise GeometryError("orientation must be 'outward' or 'inward'")

    @property
    def ambient_dim(self):
        return self.dim + 1

    def contains(self, point):
        """Whether each point lies in the domain box, widened on every
        non-periodic axis by ``CONTAINS_SLACK`` of its width."""
        pts = np.asarray(point, dtype=float)
        ok = np.ones(pts.shape[:-1], dtype=bool)
        for i, (lo, hi) in enumerate(self.domain):
            if self.periodic[i]:
                continue
            slack = CONTAINS_SLACK * (hi - lo)
            ok &= (pts[..., i] >= lo - slack) & (pts[..., i] <= hi + slack)
        return ok


@dataclass
class PointFrame:
    """All pointwise first/second (optionally third) order data of a chart.

    Arrays are batched: ``point`` of shape (..., n) yields e.g. ``metric``
    of shape (..., n, n).  ``christoffels[..., k, i, j]`` is Gamma^k_ij and
    ``dmetric[..., k, i, j]`` is d_k g_ij.  Every field but ``point`` is a
    batch-first view whose points axis is innermost in memory.
    """

    point: np.ndarray
    position: np.ndarray
    tangents: np.ndarray          # (..., A, n), column i is r_i
    d2: np.ndarray                # (..., A, n, n)
    normal: np.ndarray            # (..., A)
    metric: np.ndarray
    metric_inv: np.ndarray
    det_metric: np.ndarray
    second_form: np.ndarray
    christoffels: np.ndarray
    dmetric: np.ndarray
    curvature: np.ndarray
    order: int
    d3: Optional[np.ndarray] = None   # (..., A, n, n, n)
    jets: Optional[list] = field(default=None, repr=False)


def _component_jets(immersion, point, order):
    pts = np.asarray(point, dtype=float)
    return pts, evaluate_jet(immersion.components, pts, order=order)


def frame_at(immersion, point, order=2):
    """Evaluate the moving frame and curvature data at ``point``.

    Raises :class:`GeometryError` when a position or det g is not finite,
    and :class:`DegenerateFrameError` when the tangent Gram determinant
    falls under ``1e-12 * (max tangent norm)^(2n)``.
    """
    if order < 2:
        raise ValueError("frames need jets of order >= 2")
    pts, jts = _component_jets(immersion, point, order)
    position, tangents, d2, *d3 = stacked(jts, range(order + 1))
    _refuse_non_finite(immersion, pts, "position",
                       np.all(np.isfinite(position), axis=-1))
    metric, det_metric, metric_inv = _metric(immersion, pts, tangents)
    # the connection is the tangential part of r_ij:
    # Gamma^k_ij = g^{kl} r_l . r_ij, from first[..., l, i, j] = r_l . r_ij
    first = contract("...al,...aij->...lij", tangents, d2)
    christoffels = contract("...kl,...lij->...kij", metric_inv, first)
    # d_k g_ij = r_j . r_ik + r_i . r_jk
    dmetric = np.swapaxes(first, -1, -3)
    dmetric = dmetric + np.swapaxes(dmetric, -1, -2)

    normal = _cross_normal(tangents)
    nrm = np.sqrt(contract("...a,...a->...", normal, normal))
    if immersion.orientation == "inward":
        nrm = -nrm
    normal = normal / nrm[..., None]

    second_form = contract("...aij,...a->...ij", d2, normal)
    curvature = cofactor(second_form, adjugate=False)[0] / det_metric

    return PointFrame(
        point=pts, position=position, tangents=tangents, d2=d2,
        normal=normal, metric=metric, metric_inv=metric_inv,
        det_metric=det_metric, second_form=second_form,
        christoffels=christoffels, dmetric=dmetric, curvature=curvature,
        order=order, d3=d3[0] if d3 else None, jets=jts)


def _metric(immersion, points, tangents):
    """Metric, det g and inverse metric from the chart tangents."""
    metric = contract("...ai,...aj->...ij", tangents, tangents)
    det_metric, adj_metric = cofactor(metric)
    _refuse_degenerate(immersion, points, det_metric, np.max(np.diagonal(
        metric, axis1=-2, axis2=-1), axis=-1) ** tangents.shape[-1])
    return metric, det_metric, adj_metric / det_metric[..., None, None]


def _refuse_degenerate(immersion, points, det_metric, scale):
    """Refuse det g where it is not finite (:class:`GeometryError` naming
    the first such point) or not above ``DEGENERACY_RTOL (max_i g_ii)^n``."""
    # NaN fails this comparison, so a non-finite det g lands here too
    if not np.all(det_metric > DEGENERACY_RTOL * scale):
        _refuse_non_finite(immersion, points, "det g",
                           np.isfinite(det_metric))
        raise DegenerateFrameError(
            f"immersion {immersion.name}: degenerate tangent frame "
            f"(min det g = {np.min(det_metric):.3e})")


def _refuse_non_finite(immersion, points, what, finite):
    """Raise :class:`GeometryError` naming the first of ``points`` where
    the boolean array ``finite`` is false."""
    bad = np.argwhere(~finite)
    if bad.size:
        x = points[tuple(bad[0])]
        raise GeometryError(
            f"immersion {immersion.name}: the chart {what} at "
            f"({', '.join(f'x{i + 1}' for i in range(len(x)))}) = "
            f"({', '.join(repr(float(v)) for v in x)}) is not finite")


def _cross_normal(tangents):
    """Generalized cross product of the tangent columns, shape (..., A):
    component a is (-1)^a det of the tangents without row a."""
    a_dim, n = tangents.shape[-2:]
    batch = tangents.ndim - 2
    rows = [[b for b in range(a_dim) if b != a] for a in range(a_dim)]
    # (A, n, n, ...) minors, viewed as (A, ..., n, n) for the cofactor
    minors = tangents.transpose((batch, batch + 1) + tuple(range(batch)))[rows]
    det = cofactor(minors.transpose(
        (0,) + tuple(range(3, batch + 3)) + (1, 2)), adjugate=False)[0]
    sign = np.array([(-1.0) ** a for a in range(a_dim)])
    return batch_first(det * sign.reshape((a_dim,) + (1,) * batch), 1)


def in_point_blocks(f):
    """Run the pointwise entry point ``f(immersion, fld, point)`` on
    consecutive ``POINT_BLOCK``-point slices of the flattened batch and join
    each array field of the returned dataclass back into the batch shape,
    batch-first with the points axis innermost in memory.  A point's result
    does not depend on its batch, so the join is bitwise one call on the
    whole batch; a batch of at most ``POINT_BLOCK`` points calls ``f``
    unchanged."""
    @functools.wraps(f)
    def run(immersion, fld, point):
        pts = np.asarray(point, dtype=float)
        flat = pts.reshape(-1, pts.shape[-1])
        count, block = len(flat), POINT_BLOCK
        if count <= block:
            return f(immersion, fld, point)
        storage = None
        for start in range(0, count, block):
            part = f(immersion, fld, flat[start:start + block])
            if storage is None:
                storage = {name: np.empty(value.shape[1:] + (count,),
                                          value.dtype)
                           for name, value in vars(part).items()}
            for name, value in vars(part).items():
                storage[name][..., start:start + block] = np.moveaxis(
                    value, 0, -1)
        return type(part)(**{
            name: batch_first(s.reshape(s.shape[:-1] + pts.shape[:-1]),
                              s.ndim - 1)
            for name, s in storage.items()})
    return run


def covariant_hessian(frame, grad, hess):
    """Covariant Hessian f_{,ij} = d_ij f - Gamma^k_ij d_k f of a scalar f
    at the points of ``frame``, from its chart gradient ``grad`` (..., n)
    and chart Hessian ``hess`` (..., n, n)."""
    return hess - contract("...kij,...k->...ij", frame.christoffels, grad)


def second_form_derivatives(frame):
    """Covariant derivative of the second fundamental form at the points
    of ``frame``, which must be of order 3.

    Returns ``nabla_h[..., k, i, j] = h_{ij,k}``.  For a genuine immersion
    this tensor is symmetric in (j, k) as well (the integrability condition
    a Codazzi tensor satisfies); the residual is a standard health check.
    """
    if frame.order < 3 or frame.d3 is None:
        raise ValueError("second_form_derivatives needs an order-3 frame")
    h_mixed = contract("...lm,...mk->...lk", frame.metric_inv,
                       frame.second_form)
    dnormal = -contract("...lk,...al->...ak", h_mixed, frame.tangents)
    dh = contract("...aijk,...a->...kij", frame.d3, frame.normal)
    dh += contract("...aij,...ak->...kij", frame.d2, dnormal)
    return _covariant_derivative(dh, frame.christoffels, frame.second_form)


def _covariant_derivative(partial, christoffels, t):
    """t_{ij,k} = d_k t_ij - Gamma^l_ki t_lj - Gamma^l_kj t_il of a
    symmetric 2-tensor t, shape (..., k, i, j), from its partial
    derivatives ``partial[..., k, i, j] = d_k t_ij``."""
    corr = contract("...lki,...lj->...kij", christoffels, t)
    return partial - corr - np.swapaxes(corr, -1, -2)


def _codazzi_defect(nabla):
    """Max over components of |t_{ij,k} - t_{kj,i}| for ``nabla[..., k, i,
    j] = t_{ij,k}`` (which covers all pairs), relative to max(1, |nabla|)."""
    asym = nabla - np.swapaxes(nabla, -3, -2)
    scale = np.maximum(1.0, np.max(np.abs(nabla), axis=(-1, -2, -3)))
    return np.max(np.abs(asym), axis=(-1, -2, -3)) / scale


def _relative_residual(lhs, rhs):
    """max |lhs - rhs| over the trailing (n, n) axes, relative to
    max(1, max |lhs|, max |rhs|)."""
    scale = np.maximum(1.0, np.maximum(
        np.max(np.abs(lhs), axis=(-1, -2)), np.max(np.abs(rhs), axis=(-1, -2))))
    return np.max(np.abs(lhs - rhs), axis=(-1, -2)) / scale


def _cofactor_trace(h, w):
    """det(h) h^{ij} w_ij of 2x2 tensors without inverting:
    h_11 w_22 + h_22 w_11 - 2 h_12 w_12.  Raises :class:`GeometryError` on
    forms that are not 2x2."""
    if h.shape[-2:] != (2, 2):
        raise GeometryError("the h-trace rule is written for 2x2 forms, "
                            f"got {h.shape[-2]}x{h.shape[-1]}")
    return (h[..., 0, 0] * w[..., 1, 1] + h[..., 1, 1] * w[..., 0, 0]
            - 2.0 * h[..., 0, 1] * w[..., 0, 1])


def _trace_residual(h, w):
    """|h^{ij} w_ij| of 2x2 forms relative to max(1, max |w_ij|), with the
    cofactor form det(h) h^{ij} w_ij where h is singular: |det h| <=
    SINGULAR_FORM_RTOL max |h_ij|^2, a cut relative to h's own scale
    (floored at 1e-30), so the choice does not depend on the units of h.
    Raises :class:`GeometryError` on forms that are not 2x2."""
    det_h = cofactor(h, adjugate=False)[0]
    cof = _cofactor_trace(h, w)
    scale = np.maximum(np.max(np.abs(h), axis=(-1, -2)) ** 2, 1e-30)
    with np.errstate(divide="ignore", invalid="ignore"):
        proper = cof / det_h
    trace = np.where(np.abs(det_h) <= SINGULAR_FORM_RTOL * scale, cof, proper)
    return np.abs(trace) / np.maximum(1.0, np.max(np.abs(w), axis=(-1, -2)))


def codazzi_residual(frame):
    """Max over components of |h_{ij,k} - h_{ik,j}|, relative to |h| scale,
    from an order-3 ``frame``."""
    return _codazzi_defect(second_form_derivatives(frame))


def second_metric_derivative(frame, k, l, i, j):
    """d_k d_l g_ij from third-order jets, shape (...)."""
    if frame.d3 is None:
        raise ValueError("needs an order-3 frame")
    d3, d2, tang = frame.d3, frame.d2, frame.tangents
    return (contract("...a,...a->...", d3[..., i, k, l], tang[..., j])
            + contract("...a,...a->...", d2[..., i, k], d2[..., j, l])
            + contract("...a,...a->...", d2[..., i, l], d2[..., j, k])
            + contract("...a,...a->...", tang[..., i], d3[..., j, k, l]))


def brioschi_curvature(frame):
    """Intrinsic Gaussian curvature (n = 2) from the metric alone, from an
    order-3 ``frame``.

    Independent of the second fundamental form; comparing it with
    det(h)/det(g) exercises the Gauss equation numerically.
    """
    if frame.metric.shape[-1] != 2:
        raise GeometryError("the intrinsic curvature formula is for n = 2")
    dg = frame.dmetric                # (..., k, i, j)

    g = frame.metric
    E, F, G = g[..., 0, 0], g[..., 0, 1], g[..., 1, 1]
    E_u, E_v = dg[..., 0, 0, 0], dg[..., 1, 0, 0]
    F_u, F_v = dg[..., 0, 0, 1], dg[..., 1, 0, 1]
    G_u, G_v = dg[..., 0, 1, 1], dg[..., 1, 1, 1]
    E_vv = second_metric_derivative(frame, 1, 1, 0, 0)
    G_uu = second_metric_derivative(frame, 0, 0, 1, 1)
    F_uv = second_metric_derivative(frame, 0, 1, 0, 1)

    zero = np.zeros_like(E)
    m1, m2 = (cofactor(batch_first(np.array(rows), 2), adjugate=False)[0]
              for rows in (
                  [[-0.5 * E_vv + F_uv - 0.5 * G_uu, 0.5 * E_u,
                    F_u - 0.5 * E_v],
                   [F_v - 0.5 * G_u, E, F],
                   [0.5 * G_v, F, G]],
                  [[zero, 0.5 * E_v, 0.5 * G_u],
                   [0.5 * E_v, E, F],
                   [0.5 * G_u, F, G]]))
    return (m1 - m2) / frame.det_metric ** 2


# ---------------------------------------------------------------------------
# sampling helpers
# ---------------------------------------------------------------------------

def interior_points(immersion, count, rng, margin=0.05):
    """Uniform random points in the domain box, shrunk by ``margin`` per side."""
    lo = np.array([d[0] for d in immersion.domain])
    hi = np.array([d[1] for d in immersion.domain])
    w = hi - lo
    return rng.uniform(lo + margin * w, hi - margin * w,
                       size=(count, immersion.dim))


def sample_grid(immersion, shape, margin=0.0):
    """Tensor grid over the domain: periodic axes get ``m`` points without the
    duplicated endpoint, non-periodic axes get ``m`` points inclusive (shrunk
    by ``margin``).  Returns an array of shape ``shape + (n,)``."""
    axes = []
    for i, m in enumerate(shape):
        lo, hi = immersion.domain[i]
        w = hi - lo
        if immersion.periodic[i]:
            axes.append(lo + w * np.arange(m) / m)
        else:
            axes.append(np.linspace(lo + margin * w, hi - margin * w, m))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1)


# ---------------------------------------------------------------------------
# geodesic boundary chart
# ---------------------------------------------------------------------------

@dataclass
class GeodesicChart:
    """Boundary-based coordinates (s, t): s = boundary arclength, t = distance
    along inward unit-speed geodesics.

    ``points[i, j]`` is the original-chart position of (s_i, t_j);
    ``B[i, j]`` the induced metric satisfies g = dt^2 + B^2 ds^2.  ``kg``
    stores B_t(s, 0) (inward-t convention; -1 on the flat unit disk).
    ``frame`` is the order-2 :class:`PointFrame` of ``points``; its
    ``curvature`` is K on the (s, t) grid.
    """

    immersion: Immersion
    edge: tuple
    s: np.ndarray
    t: np.ndarray
    points: np.ndarray            # (n_s, n_t + 1, 2)
    velocities: np.ndarray        # (n_s, n_t + 1, 2)
    dpoints_ds: np.ndarray        # (n_s, n_t + 1, 2), spectral d/ds of the map
    B: np.ndarray                 # (n_s, n_t + 1)
    kg: np.ndarray                # (n_s,)
    length: float
    max_offdiag: float
    max_gtt_error: float
    max_b0_error: float
    frame: PointFrame = field(repr=False)

    def second_form_grid(self):
        """Pulled-back second fundamental form components (L, M, N) on the
        (s, t) grid, i.e. h(F_s, F_s), h(F_s, F_t), h(F_t, F_t)."""
        Fs, Ft, h = self.dpoints_ds, self.velocities, self.frame.second_form
        L = contract("...ij,...i,...j->...", h, Fs, Fs)
        M = contract("...ij,...i,...j->...", h, Fs, Ft)
        N = contract("...ij,...i,...j->...", h, Ft, Ft)
        return L, M, N


def geodesic_boundary_chart(immersion, edge, depth, n_s=64, n_t=64):
    """Construct geodesic coordinates based on a closed boundary edge.

    ``edge = (axis, side)`` names a domain edge (side in {"lo", "hi"}) whose
    complementary axis must be periodic so the edge is a closed curve.
    Geodesics are shot inward to ``depth`` with ``n_t`` classical RK4 steps.
    """
    axis, side = edge
    if side not in ("lo", "hi"):
        raise GeometryError("edge side must be 'lo' or 'hi'")
    if immersion.dim != 2:
        raise GeometryError("geodesic boundary charts are built for n = 2")
    other = 1 - axis
    if not immersion.periodic[other]:
        raise GeodesicChartError("the boundary edge is not a closed curve "
                                 "(complementary axis is not periodic)")
    if immersion.periodic[axis]:
        raise GeodesicChartError("the edge axis must be non-periodic")

    lo, hi = immersion.domain[axis]
    edge_value = lo if side == "lo" else hi
    plo, phi = immersion.domain[other]
    period = phi - plo

    def curve_point(sigma):
        sig = np.asarray(sigma, dtype=float)
        pt = np.empty(sig.shape + (2,))
        pt[..., axis] = edge_value
        pt[..., other] = sig
        return pt

    def speed(sigma):
        _, jts = _component_jets(immersion, curve_point(sigma), 1)
        rows = [jet.coef[1 + other] for jet in jts]
        return np.sqrt(functools.reduce(np.add, [r * r for r in rows]))

    # equal-arclength parameter values and the total boundary length from
    # the spectral antiderivative of the speed on a fine grid
    sigma_nodes, length = invert_antiderivative(
        lambda x: speed(plo + x), period, n_s, 4096)
    ds = length / n_s
    start_pts = curve_point(plo + sigma_nodes)

    # inward unit normals in chart coordinates
    fr0 = frame_at(immersion, start_pts, order=2)
    g0 = fr0.metric
    nu = np.zeros((n_s, 2))
    nu[:, axis] = 1.0
    nu[:, other] = -g0[:, axis, other] / g0[:, other, other]
    norm = np.sqrt(contract("...i,...ij,...j->...", nu, g0, nu))
    nu = nu / norm[:, None]
    if side == "hi":
        nu = -nu

    # geodesic curvature of the edge, chart convention B_t(s, 0) =
    # -g(D_T T, nu) for T = r_p / sqrt(g_pp): only the tangential part of
    # the curve acceleration r_pp / g_pp counts, and r_p is g-orthogonal
    # to nu, so k_g = -(r_pp . r_x nu) / g_pp
    nu_ambient = contract("...ai,...i->...a", fr0.tangents, nu)
    kg = -(contract("...a,...a->...", fr0.d2[..., other, other], nu_ambient)
           / g0[..., other, other])

    # shoot all geodesics at once
    t_nodes = np.linspace(0.0, depth, n_t + 1)
    hstep = depth / n_t
    pts, vel = np.empty((2, n_s, n_t + 1, 2))
    x, v = start_pts, nu
    pts[:, 0], vel[:, 0] = x, v
    for j in range(n_t):
        x, v = _rk4_geodesic_step(immersion, x, v, hstep)
        if not np.all(immersion.contains(x)):
            raise GeodesicChartError(
                f"geodesic left the domain at t = {t_nodes[j + 1]:.4f}")
        pts[:, j + 1], vel[:, j + 1] = x, v

    # pull the metric back through the chart map; the periodic chart
    # coordinate winds once around the boundary loop, so remove the linear
    # ramp before the spectral derivative and add its slope back
    s_nodes = ds * np.arange(n_s)
    ramp = np.zeros_like(pts)
    ramp[..., other] = (period / length) * s_nodes[:, None]
    Fs = spectral_derivative(pts - ramp, length)
    Fs[..., other] += period / length
    frame = frame_at(immersion, pts, order=2)
    g_grid = frame.metric
    Ft = vel
    g_ss = contract("...i,...ij,...j->...", Fs, g_grid, Fs)
    g_st = contract("...i,...ij,...j->...", Fs, g_grid, Ft)
    g_tt = contract("...i,...ij,...j->...", Ft, g_grid, Ft)
    B = np.sqrt(g_ss)
    if np.any(B < 1e-3):
        raise GeodesicChartError("caustic: B dropped to zero inside the chart")

    return GeodesicChart(
        immersion=immersion, edge=edge, s=s_nodes, t=t_nodes,
        points=pts, velocities=vel, dpoints_ds=Fs, B=B, kg=kg, length=length,
        max_offdiag=float(np.max(np.abs(g_st))),
        max_gtt_error=float(np.max(np.abs(g_tt - 1.0))),
        max_b0_error=float(np.max(np.abs(B[:, 0] - 1.0))), frame=frame)


def _geodesic_acceleration(immersion, x, v):
    """x'' = -Gamma(v, v) = -g^{-1} r_x^T (r_xx[v, v]) at ``x`` (..., 2)
    and velocity ``v``, from jet rows as whole-batch arrays and the 2x2
    closed form, summed in ``contract``/``cofactor`` order: bitwise theirs."""
    pts, jts = _component_jets(immersion, x, 2)
    # rows d0, d1, c00, c01, c11 of each component a: (5, A, N)
    coef = np.stack([jet.coef for jet in jts], axis=1)[1:]
    vel = np.asarray(v, dtype=float).reshape(-1, 2).T[:, None]  # (2, 1, N)
    # sums over a run in order: g_ij = sum_a r_ai r_aj, and p_l below
    g = functools.reduce(np.add, np.moveaxis(coef[:2, None] * coef[:2], 2, 0))
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    _refuse_degenerate(immersion, pts.reshape(-1, 2), det,
                       np.maximum(g[0, 0], g[1, 1]) ** 2)
    inv = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]]) / det
    hess = coef[[2, 3, 3, 4]]         # r_aij over (i, j) = 00, 01, 10, 11
    hess[::3] *= 2.0                  # r_ii = 2 c_ii, as ``stacked`` has it
    r_vv = functools.reduce(np.add, hess * vel[[0, 0, 1, 1]]
                            * vel[[0, 1, 0, 1]])
    p = functools.reduce(np.add, (coef[:2] * r_vv).swapaxes(0, 1))
    return -(inv[:, 0] * p[0] + inv[:, 1] * p[1]).T.reshape(pts.shape)


def _rk4_geodesic_step(immersion, x, v, h):
    def rhs(state_x, state_v):
        return state_v, _geodesic_acceleration(immersion, state_x, state_v)

    k1x, k1v = rhs(x, v)
    k2x, k2v = rhs(x + 0.5 * h * k1x, v + 0.5 * h * k1v)
    k3x, k3v = rhs(x + 0.5 * h * k2x, v + 0.5 * h * k2v)
    k4x, k4v = rhs(x + h * k3x, v + h * k3v)
    return (x + h * (k1x + 2 * k2x + 2 * k3x + k4x) / 6.0,
            v + h * (k1v + 2 * k2v + 2 * k3v + k4v) / 6.0)
