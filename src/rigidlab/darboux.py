"""Support-function quantities and the Monge-Ampere identity they satisfy.

With rho = |r|^2 / 2 and mu = r . n, every immersion obeys

    rho_{i,j} = g_ij + mu h_ij            (covariant Hessian)
    mu^2      = 2 rho - |grad rho|^2
    det(rho_{i,j} - g_ij) = K det(g) mu^2   (n = 2)

These are the pointwise checks this module evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import _relative_residual, covariant_hessian
from .linalg import cofactor, contract

__all__ = [
    "SupportData",
    "ShapeIdentityResult",
    "support_at",
    "darboux_residual",
    "verify_shape_identity",
    "SUPPORT_DEGENERATE_TOL",
]

# |mu| below this is reported as support-degenerate; identities that divide
# by mu are skipped there.
SUPPORT_DEGENERATE_TOL = 1e-8


@dataclass
class SupportData:
    rho: np.ndarray
    grad_rho: np.ndarray          # chart components rho_i
    rho_hess: np.ndarray          # covariant rho_{i,j}
    mu: np.ndarray
    norm_residual: np.ndarray     # | mu^2 - (2 rho - |grad rho|^2_g) |
    position_residual: np.ndarray  # | r - g^{ij} rho_i r_j - mu n |_inf


def support_at(frame):
    """Support quantities of r at the points of ``frame`` (batched)."""
    pos, tang, g_inv = frame.position, frame.tangents, frame.metric_inv
    rho = 0.5 * contract("...a,...a->...", pos, pos)
    grad_rho = contract("...a,...ai->...i", pos, tang)
    # d_ij rho = g_ij + r . r_ij
    hess = covariant_hessian(
        frame, grad_rho,
        frame.metric + contract("...a,...aij->...ij", pos, frame.d2))
    mu = contract("...a,...a->...", pos, frame.normal)

    grad_sq = contract("...i,...ij,...j->...", grad_rho, g_inv, grad_rho)
    norm_residual = np.abs(mu**2 - (2.0 * rho - grad_sq))
    recon = (contract("...ij,...j,...ai->...a", g_inv, grad_rho, tang)
             + mu[..., None] * frame.normal)
    position_residual = np.max(np.abs(pos - recon), axis=-1)
    return SupportData(rho=rho, grad_rho=grad_rho, rho_hess=hess, mu=mu,
                       norm_residual=norm_residual,
                       position_residual=position_residual)


def darboux_residual(frame, support):
    """det(rho_{i,j} - g_ij) - K det(g) mu^2 at the points of ``frame``
    (n = 2 only), divided by max(1, |lhs|, |rhs|).

    Zero up to rounding for a genuine immersion.  ``support`` is the
    :func:`support_at` result of the same frame.
    """
    if frame.metric.shape[-1] != 2:
        raise ValueError("the Monge-Ampere identity is stated for n = 2")
    lhs = cofactor(support.rho_hess - frame.metric, adjugate=False)[0]
    rhs = frame.curvature * frame.det_metric * support.mu**2
    return np.abs(lhs - rhs) / np.maximum(
        1.0, np.maximum(np.abs(lhs), np.abs(rhs)))


@dataclass
class ShapeIdentityResult:
    max_residual: np.ndarray
    skipped: np.ndarray           # support-degenerate points (|mu| tiny)


def verify_shape_identity(frame, support):
    """Componentwise residual of  h_ij mu - (rho_{i,j} - g_ij),  relative to
    the size of its terms.  Points with |mu| < 1e-8 are flagged as skipped
    rather than failed.  ``support`` is as in :func:`darboux_residual`."""
    res = _relative_residual(frame.second_form * support.mu[..., None, None],
                             support.rho_hess - frame.metric)
    skipped = np.abs(support.mu) < SUPPORT_DEGENERATE_TOL
    return ShapeIdentityResult(max_residual=res, skipped=skipped)
