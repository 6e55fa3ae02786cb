"""Diagnostics for pairs of isometric immersions over one chart.

For two immersions r, r~ with the same induced metric the difference data

    Phi  = rho~ - rho,   W_ij = h~_ij - h_ij,   hbar_ij = h_ij + h~_ij

satisfies, pointwise,

    W_ij (mu + mu~) = 2 Phi_{i,j} + hbar_ij (mu - mu~)
    hbar^{ij} W_ij  = 0            (linearized Gauss, cofactor form when
                                    hbar is singular)
    W_{ij,k} = W_{ik,j}            (Codazzi)

and the energy pairing of two symmetric 2-tensors

    (a, b) = integral  det(hbar)/det(g) hbar^{ij} hbar^{kl}
             a_ik b_jl (mu + mu~)  dV_g

is a positive semidefinite bilinear form whenever det(hbar) > 0 and
mu + mu~ > 0 on the chart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .darboux import support_at
from .geometry import (_codazzi_defect, _cofactor_trace, _relative_residual,
                       _trace_residual, frame_at, sample_grid,
                       second_form_derivatives)
from .jets import RigidlabError
from .linalg import cofactor, contract
from .quadrature import gauss_legendre_nodes

__all__ = [
    "IsometricPair",
    "DifferenceTensors",
    "PairError",
    "EnergyPositivityError",
    "check_isometric",
    "difference_tensors",
    "verify_w_formula",
    "verify_gauss_trace_and_codazzi",
    "energy_inner_product",
    "energy_integrand",
    "cofactor_divergence_identity",
]


# check_isometric compares the two metrics on this sample grid
ISOMETRY_GRID = (48, 24)


class PairError(RigidlabError):
    pass


class EnergyPositivityError(PairError):
    """The energy pairing's positivity regime (det hbar > 0, mu + mu~ > 0)
    fails somewhere on the integration grid."""


@dataclass(frozen=True)
class IsometricPair:
    first: object
    second: object
    tolerance: float = 1e-10

    def __post_init__(self):
        if self.first.dim != self.second.dim:
            raise PairError("pair members live on charts of different dim")
        if self.first.domain != self.second.domain:
            raise PairError("pair members must share the chart domain")


@dataclass
class DifferenceTensors:
    phi: np.ndarray
    w_diff: np.ndarray            # W_ij = h~ - h
    h_bar: np.ndarray             # h + h~
    mu: np.ndarray
    mu_tilde: np.ndarray
    det_residual: np.ndarray      # |det h~ - det h|
    phi_hess: np.ndarray          # Phi_{i,j} = rho~_{i,j} - rho_{i,j}


def check_isometric(pair):
    """Sup-norm metric deviation over the ``ISOMETRY_GRID`` sample grid;
    the pair is accepted when it is within ``pair.tolerance``."""
    pts = sample_grid(pair.first, ISOMETRY_GRID, margin=0.02)
    g1 = frame_at(pair.first, pts, order=2).metric
    g2 = frame_at(pair.second, pts, order=2).metric
    return float(np.max(np.abs(g1 - g2)))


def difference_tensors(frames):
    """Difference data of the pair from its two frames ``(f1, f2)`` at the
    same points."""
    f1, f2 = frames
    s1, s2 = support_at(f1), support_at(f2)
    w = f2.second_form - f1.second_form
    hbar = f2.second_form + f1.second_form
    det_res = np.abs(cofactor(f2.second_form, adjugate=False)[0]
                     - cofactor(f1.second_form, adjugate=False)[0])
    return DifferenceTensors(phi=s2.rho - s1.rho, w_diff=w, h_bar=hbar,
                             mu=s1.mu, mu_tilde=s2.mu, det_residual=det_res,
                             phi_hess=s2.rho_hess - s1.rho_hess)


def verify_w_formula(difference):
    """Residual of W_ij (mu + mu~) - 2 Phi_{i,j} - hbar_ij (mu - mu~),
    relative to the size of its terms.  Phi_{i,j} is the covariant Hessian
    of the support difference in the shared metric.  ``difference`` is a
    :func:`difference_tensors` result."""
    d = difference
    mu_sum = d.mu + d.mu_tilde
    if np.any(np.abs(mu_sum) < 1e-8):
        raise PairError("mu + mu~ vanishes; the W formula divides by it")
    return _relative_residual(
        d.w_diff * mu_sum[..., None, None],
        2.0 * d.phi_hess + d.h_bar * (d.mu - d.mu_tilde)[..., None, None])


def verify_gauss_trace_and_codazzi(frames, difference):
    """(trace residual, Codazzi residual) of the difference form W.

    The trace is hbar^{ij} W_ij, or its cofactor form where hbar is
    singular relative to its own scale (``geometry._trace_residual``, which
    refuses charts of dim other than 2).  Codazzi compares the covariant
    derivatives W_{ij,k} and W_{ik,j}, each surface differentiating its own
    second form.  ``frames`` must be of order 3; ``difference`` is their
    :func:`difference_tensors` result.
    """
    trace_res = _trace_residual(difference.h_bar, difference.w_diff)
    f1, f2 = frames
    codazzi_res = _codazzi_defect(
        second_form_derivatives(f2) - second_form_derivatives(f1))
    return trace_res, codazzi_res


# ---------------------------------------------------------------------------
# energy inner product
# ---------------------------------------------------------------------------

def _tensor_field_values(alpha, points, frame):
    if callable(alpha):
        return np.asarray(alpha(points, frame), dtype=float)
    arr = np.asarray(alpha, dtype=float)
    return np.broadcast_to(arr, points.shape[:-1] + arr.shape[-2:])


def energy_integrand(frames, difference, alpha_values, beta_values):
    """Pointwise integrand of the energy pairing (without the volume factor):
    det(hbar)/det(g) hbar^{ij} hbar^{kl} a_ik b_jl (mu + mu~).

    For a = b this equals det(hbar)/det(g) tr((hbar^{-1} a)^2) (mu + mu~),
    which is non-negative whenever det(hbar) > 0 and mu + mu~ > 0.
    ``difference`` is the :func:`difference_tensors` result of ``frames``.
    """
    d = difference
    det_hbar, adj_hbar = cofactor(d.h_bar)
    hbar_inv = adj_hbar / det_hbar[..., None, None]
    contraction = contract("...ij,...kl,...ik,...jl->...",
                           hbar_inv, hbar_inv, alpha_values, beta_values)
    return ((det_hbar / frames[0].det_metric) * contraction
            * (d.mu + d.mu_tilde))


def energy_inner_product(pair, alpha, beta, grid=(64, 8), nodes=16):
    """Energy pairing of two symmetric 2-tensor fields over the chart.

    ``alpha``/``beta`` are constant (2, 2) arrays or callables
    ``f(points, frame) -> (..., 2, 2)``.  Quadrature is a periodic trapezoid
    in periodic directions and composite Gauss-Legendre (``nodes`` per cell,
    ``grid[i]`` cells) otherwise.  Raises :class:`EnergyPositivityError`
    outside the positivity regime.
    """
    imm = pair.first
    if imm.dim != 2:
        raise PairError("the energy pairing is implemented for n = 2")
    axes, weights = [], []
    for i in range(2):
        lo, hi = imm.domain[i]
        if imm.periodic[i]:
            m = grid[i]
            axes.append(lo + (hi - lo) * np.arange(m) / m)
            weights.append(np.full(m, (hi - lo) / m))
        else:
            x, w = gauss_legendre_nodes(lo, hi, cells=grid[i], nodes=nodes)
            axes.append(x)
            weights.append(w)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack(mesh, axis=-1)
    w2d = weights[0][:, None] * weights[1][None, :]

    frames = tuple(frame_at(s, pts) for s in (pair.first, pair.second))
    d = difference_tensors(frames)
    det_hbar = cofactor(d.h_bar, adjugate=False)[0]
    mu_sum = d.mu + d.mu_tilde
    if np.any(det_hbar <= 0.0) or np.any(mu_sum <= 0.0):
        raise EnergyPositivityError(
            "energy pairing needs det(hbar) > 0 and mu + mu~ > 0 on the "
            f"grid (min det hbar = {float(np.min(det_hbar)):.3e}, "
            f"min mu sum = {float(np.min(mu_sum)):.3e})")

    av = _tensor_field_values(alpha, pts, frames[0])
    bv = _tensor_field_values(beta, pts, frames[0])
    integrand = energy_integrand(frames, d, av, bv)
    return float(np.sum(integrand * np.sqrt(frames[0].det_metric) * w2d))


# ---------------------------------------------------------------------------
# pointwise cofactor-divergence identity
# ---------------------------------------------------------------------------

def cofactor_divergence_identity(h_bar, w):
    """Residual of the algebraic identity behind the divergence structure of
    the energy pairing: for symmetric 2x2 ``h_bar`` (det != 0) and symmetric
    ``w`` with hbar^{ij} w_ij = 0,

        det(hbar) hbar^{-1} w hbar^{-1} = [[-w_22, w_12], [w_12, -w_11]].

    Returns the max componentwise residual; raises when the trace-free
    precondition fails.
    """
    hb = np.asarray(h_bar, dtype=float)
    ww = np.asarray(w, dtype=float)
    det, adj = cofactor(hb)
    if np.any(np.abs(det) < 1e-14):
        raise PairError("h_bar must be invertible")
    trace = _cofactor_trace(hb, ww) / det
    scale = np.maximum(1.0, np.max(np.abs(ww), axis=(-1, -2)))
    if np.any(np.abs(trace) > 1e-9 * scale):
        raise PairError("w is not trace-free with respect to h_bar")
    hb_inv = adj / det[..., None, None]
    lhs = det[..., None, None] * (hb_inv @ ww @ hb_inv)
    rhs = np.empty_like(lhs)
    rhs[..., 0, 0] = -ww[..., 1, 1]
    rhs[..., 0, 1] = ww[..., 0, 1]
    rhs[..., 1, 0] = ww[..., 0, 1]
    rhs[..., 1, 1] = -ww[..., 0, 0]
    return np.max(np.abs(lhs - rhs), axis=(-1, -2))
