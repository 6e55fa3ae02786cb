"""Dense linear algebra wrappers: singular values, numerical rank, null
spaces, and closed-form determinants and adjugates of small pointwise
matrices.

``numerical_rank`` and ``null_space`` factor small matrices (the pointwise
rank test's n x n h and its linearized Gauss constraints) with
``np.linalg.svd``, the LAPACK that numpy loads anyway.  Only the flex
spectra import ``scipy.linalg``, and only when called: through
``singular_values``, their in-place gesdd, and ``_single_threaded_blas``.

``_single_threaded_blas`` runs a block with every loaded OpenBLAS at one
thread and then restores each library's previous count.  The flex
spectra's sector blocks and deflated certificate work on a few hundred
columns at most, where OpenBLAS threads cost more than they save; the
dense SVD keeps the caller's threads.  The count it sets is the
process's: in the pthreads builds that numpy's and scipy's wheels bundle,
``openblas_set_num_threads_local`` sets the count of every thread.  So
other threads' BLAS calls run on one thread during the block too, and the
manager is not safe to enter from several threads at once: their saves
and restores can interleave and leave the process at one thread.  Without an OpenBLAS that exports
``openblas_set_num_threads_local`` (older OpenBLAS releases do not) or
without ``/proc`` it does nothing."""

from __future__ import annotations

import contextlib
import ctypes
import itertools
import os
from functools import lru_cache

import numpy as np

from .jets import batch_first

__all__ = [
    "singular_values",
    "numerical_rank",
    "null_space",
    "cofactor",
    "contract",
]


def singular_values(matrix):
    """Singular values in descending order; raises on non-finite input.

    ``matrix`` is a dense array or a scipy sparse matrix.  Either way it is
    copied once into a Fortran-ordered dense array, which LAPACK's gesdd
    then factors in place, so the call holds one dense copy and leaves
    ``matrix`` unchanged.  The finiteness check reduces with min and max
    (NaN propagates through both) instead of allocating a mask."""
    import scipy.linalg      # not at import: most commands never need it
    if hasattr(matrix, "toarray"):
        a = matrix.toarray(order="F")
    else:
        a = np.array(matrix, dtype=float, order="F")
    _refuse_non_finite(a, "singular_values")
    return scipy.linalg.svdvals(a, overwrite_a=True, check_finite=False)


@lru_cache(maxsize=None)
def _openblas_thread_setters():
    """``openblas_set_num_threads_local`` of every OpenBLAS library mapped
    into this process (numpy's and scipy's wheels each bundle one), read
    from ``/proc/self/maps`` once ``scipy.linalg`` has loaded its own.  The
    setter sets the library's count (for the whole process in a pthreads
    build) and returns its previous count; () without ``/proc`` or without
    such a library."""
    import scipy.linalg      # noqa: F401 -- maps scipy's BLAS first
    try:
        # fields: address, perms, offset, dev, inode and the mapped path
        with open("/proc/self/maps") as fh:
            maps = [line.split(maxsplit=5) for line in fh]
    except OSError:
        return ()
    setters = []
    for path in sorted({fields[5].rstrip("\n") for fields in maps
                        if len(fields) == 6
                        and "openblas" in os.path.basename(fields[5])}):
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        setters.append(setter)
    return tuple(setters)


@contextlib.contextmanager
def _single_threaded_blas():
    """Run the block with every OpenBLAS at one thread, then restore each
    library's previous count.  The count is the process's, so do not enter
    this from two threads at once."""
    setters = _openblas_thread_setters()
    previous = [setter(1) for setter in setters]
    try:
        yield
    finally:
        for setter, count in zip(setters, previous):
            setter(count)


def _refuse_non_finite(a, routine):
    if a.size and not (np.isfinite(a.min()) and np.isfinite(a.max())):
        raise ValueError(f"{routine}: matrix has non-finite entries")


def numerical_rank(matrix, rel_tol=1e-10):
    """Count of singular values above ``rel_tol`` times the largest."""
    a = np.atleast_2d(np.asarray(matrix, dtype=float))
    _refuse_non_finite(a, "numerical_rank")
    s = np.linalg.svd(a, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > rel_tol * s[0]))


def null_space(matrix, rel_tol=1e-10):
    """Orthonormal basis (rows) of the numerical null space."""
    a = np.atleast_2d(np.asarray(matrix, dtype=float))
    _refuse_non_finite(a, "null_space")
    # zero rows up to the column count keep the null space and let the
    # economy SVD return all of V^T without an m x m left factor
    rows, cols = a.shape
    padded = np.zeros((max(rows, cols), cols))
    padded[:rows] = a
    _, s, vt = np.linalg.svd(padded, full_matrices=False)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > rel_tol * smax)) if smax > 0 else 0
    return vt[rank:]


@lru_cache(maxsize=None)
def _laplace_tables(n, adjugate):
    """Gather tables of the Laplace expansion of an n x n determinant and,
    with ``adjugate``, of all its (n - 1) x (n - 1) minors.

    Level k (2..n) holds the k x k minors minor(R, C) on the row sets R it
    needs (the last k rows; for the adjugate also the last k rows of every
    set of all rows but one) and every k-subset C of columns; each expands
    along its first row, minor(R, C) = sum_t (-1)^t m[R_0, C_t]
    minor(R - R_0, C - C_t).  A level is the flat entry index R_0 n + C_t
    and the index of each sub-minor in the level below, both (pairs, k);
    level 1 is the flat matrix.  The adjugate adj[j, i] = (-1)^(i + j)
    minor(all - i, all - j) is read from level n - 1 (the single empty
    minor, 1, when n = 1); ``odd`` lists its entries of odd i + j."""
    full = tuple(range(n))
    drop = [full[:i] + full[i + 1:] for i in full]
    row_sets = [full] + (drop if adjugate else [])
    index = below = {((i,), (j,)): i * n + j for i in full for j in full}
    levels = []
    for k in range(2, n + 1):
        pairs = [(r, c) for r in sorted({rows[len(rows) - k:]
                                         for rows in row_sets
                                         if len(rows) >= k})
                 for c in itertools.combinations(full, k)]
        entry = np.array([[r[0] * n + c[t] for t in range(k)]
                          for r, c in pairs], dtype=np.intp)
        sub = np.array([[index[(r[1:], c[:t] + c[t + 1:])] for t in range(k)]
                        for r, c in pairs], dtype=np.intp)
        levels.append((entry, sub))
        below, index = index, {p: q for q, p in enumerate(pairs)}
    if not adjugate:
        return levels, None, None
    adj = np.array([below[(drop[i], drop[j])] if n > 1 else 0
                    for j in full for i in full], dtype=np.intp)
    odd = [j * n + i for j in full for i in full if (i + j) % 2]
    return levels, adj, odd


def cofactor(matrix, adjugate=True):
    """Determinant and adjugate of square matrices ``matrix`` (..., n, n) in
    closed form (Laplace expansion), for any n.

    Works entry by entry over the batch, so a matrix gives bitwise the same
    result alone or in any batch, and keeps the points axis innermost in
    memory when the input has it there; an object array of jets is
    expanded with the jet arithmetic.  Returns ``det`` (...) and ``adj``
    (..., n, n) with adj @ matrix = det I, so the inverse is
    ``adj / det[..., None, None]``; ``adj`` is None without ``adjugate``.
    """
    m = np.asarray(matrix)
    n, batch = m.shape[-1], m.shape[:-2]
    levels, adj_index, odd = _laplace_tables(n, adjugate)
    # (n, n, ...) view, then the entries flat as level 1: (n * n, ...)
    comp = m.transpose((m.ndim - 2, m.ndim - 1) + tuple(range(m.ndim - 2)))
    flat = comp.reshape((n * n,) + batch)
    below = minors = flat
    for entry, sub in levels:
        terms = flat[entry]           # a gathered copy: multiply in place
        terms *= minors[sub]
        acc = terms[:, 0]
        for t in range(1, entry.shape[1]):
            acc = acc - terms[:, t] if t % 2 else acc + terms[:, t]
        below, minors = minors, acc
    if not adjugate:
        return minors[0], None
    if n == 1:
        below = np.ones((1,) + batch)
    adj = below[adj_index]
    for k in odd:                     # the sign (-1)^(i + j), in place
        np.negative(adj[k:k + 1], out=adj[k:k + 1])
    return minors[0], batch_first(adj.reshape((n, n) + batch), 2)


@lru_cache(maxsize=None)
def _subscript_labels(subscripts):
    inputs, output = subscripts.replace("...", "").split("->")
    return tuple(inputs.split(",")), output


@lru_cache(maxsize=None)
def _contraction_terms(subscripts, label_shapes, batch_dims):
    """One entry per value of the summed labels (in order of first
    appearance, lexicographic), with one step per operand: the basic index
    that fixes its summed labels and adds the output labels it lacks as new
    axes, or, when its other labels run out of output order, the index
    that fixes the summed labels, the transpose into output order and the
    index that adds the missing axes."""
    inputs, output = _subscript_labels(subscripts)
    sizes = {label: size for labels, shape in zip(inputs, label_shapes)
             for label, size in zip(labels, shape)}
    summed = [label for label in dict.fromkeys("".join(inputs))
              if label not in output]
    terms = []
    for values in itertools.product(*(range(sizes[s]) for s in summed)):
        fixed = dict(zip(summed, values))
        steps = []
        for labels, nb in zip(inputs, batch_dims):
            kept = [label for label in labels if label not in fixed]
            order = [label for label in output if label in kept]
            if order == kept:
                index, pos = [Ellipsis], 0
                for label in labels:
                    if label in kept:
                        while output[pos] != label:
                            index.append(None)
                            pos += 1
                        pos += 1
                    index.append(fixed.get(label, slice(None)))
                index += [None] * (len(output) - pos)
                steps.append((tuple(index), None, None))
                continue
            steps.append((
                (Ellipsis,) + tuple(fixed.get(label, slice(None))
                                    for label in labels),
                tuple(range(nb)) + tuple(nb + kept.index(label)
                                         for label in order),
                (Ellipsis,) + tuple(slice(None) if label in kept else None
                                    for label in output)))
        terms.append(steps)
    return terms


def contract(subscripts, *operands):
    """``np.einsum(subscripts, *operands)`` for batch-first operands
    (``...`` leads every operand and the output), summed term by term over
    the summed labels with elementwise products and sums in one fixed
    order.  A point's result is therefore bitwise the same alone or in any
    batch, whatever the memory layout, where einsum's own reduction loops
    change with the strides.  Object arrays of jets contract with the jet
    product and sum."""
    inputs, _ = _subscript_labels(subscripts)
    terms = _contraction_terms(
        subscripts,
        tuple(op.shape[op.ndim - len(labels):]
              for op, labels in zip(operands, inputs)),
        tuple(op.ndim - len(labels) for op, labels in zip(operands, inputs)))
    total = None
    for steps in terms:
        term = None
        for op, (index, axes, expand) in zip(operands, steps):
            part = op[index]
            if axes is not None:
                part = part.transpose(axes)[expand]
            term = part if term is None else term * part
        if total is None:
            total = term
        elif len(operands) > 1:       # a product: ``total`` is our own
            total += term
        else:
            total = total + term
    return total
