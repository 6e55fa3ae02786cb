"""Dense linear algebra wrappers: singular values, numerical rank, null
spaces."""

from __future__ import annotations

import numpy as np
import scipy.linalg

__all__ = [
    "singular_values",
    "numerical_rank",
    "null_space",
]


def singular_values(matrix):
    """Singular values in descending order; raises on non-finite input."""
    a = np.asarray(matrix, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError("singular_values: matrix has non-finite entries")
    return scipy.linalg.svdvals(a)


def numerical_rank(matrix, rel_tol=1e-10):
    s = singular_values(matrix)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rel_tol * s[0]))


def null_space(matrix, rel_tol=1e-10):
    """Orthonormal basis (rows) of the numerical null space."""
    a = np.atleast_2d(np.asarray(matrix, dtype=float))
    if not np.all(np.isfinite(a)):
        raise ValueError("null_space: matrix has non-finite entries")
    _, s, vt = scipy.linalg.svd(a, full_matrices=True)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > rel_tol * smax)) if smax > 0 else 0
    return vt[rank:]
