"""Truncated Taylor (jet) arithmetic up to third order in n chart variables.

A jet keeps the distinct Taylor coefficients c_alpha = d^alpha f / alpha!,
|alpha| <= order, of a batch of scalars: one row per multi-index, degree by
degree, each degree in lexicographic order of its sorted index tuples ((),
(0,), .., (0, 0), (0, 1), ..), the flattened batch on the last, contiguous
axis.  Products are one table-driven gather-multiply-add, unary functions
one Taylor composition (Griewank and Walther, Evaluating Derivatives, 2nd
ed., ch. 13); both are exact to rounding.
"""

from __future__ import annotations

import itertools
import json
import math
from functools import lru_cache

import numpy as np

__all__ = ["Jet", "RigidlabError", "JetDomainError", "read_input", "sin",
           "cos", "tan", "exp", "log", "sqrt", "derivative_view", "stacked",
           "batch_first"]

# entries (index pairs x points) in one block of a product: bounds its
# temporaries without adding numpy calls per index pair
_BLOCK = 1 << 16


class RigidlabError(ValueError):
    """Base of every error a bad input raises in this package; the CLI maps
    it to a usage error."""


def read_input(path, as_json=False):
    """Text of the UTF-8 file ``path``, or its JSON when ``as_json``; a file
    that does not decode raises a RigidlabError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh) if as_json else fh.read()
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RigidlabError(f"{path}: {exc}") from exc


class JetDomainError(RigidlabError):
    """Raised when a function is evaluated outside its domain (log of a
    non-positive number, division by zero, and similar)."""


def _first(n, degree):
    """Row of the first multi-index of ``degree`` (the count of lower ones)."""
    return math.comb(n + degree - 1, n)


@lru_cache(maxsize=None)
def _layout(n, order):
    """Sorted index tuples of degree <= ``order``, in row order; their rows."""
    idx = [t for d in range(order + 1)
           for t in itertools.combinations_with_replacement(range(n), d)]
    return idx, {t: r for r, t in enumerate(idx)}


@lru_cache(maxsize=None)
def _full_index(n, degree):
    """Row and alpha! of each entry of the full (n,) * degree tensor, C order."""
    keys = [tuple(sorted(t))
            for t in itertools.product(range(n), repeat=degree)]
    fact = [math.prod(math.factorial(k.count(i)) for i in set(k)) for k in keys]
    return (np.array([_layout(n, degree)[1][k] for k in keys], dtype=np.intp),
            np.array(fact, dtype=float))


@lru_cache(maxsize=None)
def _product_table(n, order, low_a=0, low_b=0):
    """Pairs (alpha, beta), alpha + beta = gamma, of c = a b for factors with
    rows of degree >= low_a, low_b only.  Outputs run in stable order of
    their pair counts: the j-th pairs of all outputs that have one are one
    slice (``sizes``) added to a tail, and ``unsort`` restores row order."""
    idx, row = _layout(n, order)
    first = _first(n, low_a + low_b)
    runs = [[] for _ in idx[first:]]
    for ra, a in enumerate(idx[_first(n, low_a):]):
        for rb, b in enumerate(idx[_first(n, low_b):]):
            if len(a) + len(b) <= order:
                runs[row[tuple(sorted(a + b))] - first].append((ra, rb))
    by_length = sorted(range(len(runs)), key=lambda g: len(runs[g]))
    layers = [[runs[g][j] for g in by_length if len(runs[g]) > j]
              for j in range(len(runs[by_length[-1]]))]
    left, right = (np.array(c, dtype=np.intp)
                   for c in zip(*itertools.chain(*layers)))
    return left, right, [len(p) for p in layers], np.argsort(by_length)


def _product(a, b, table):
    """Rows of a b from rows ``a``, ``b`` (rows, N) in blocks of points; each
    output adds its pairs in table order, point by point, so a point's
    result does not depend on the rest of its batch."""
    left, right, sizes, unsort = table
    block = max(_BLOCK // len(left), 1)
    if a.shape[1] > block:
        return np.concatenate([
            _product(a[:, s:s + block], b[:, s:s + block], table)
            for s in range(0, a.shape[1], block)], axis=1)
    terms = a.take(left, axis=0)
    terms *= b.take(right, axis=0)
    outputs = start = sizes[0]
    for size in sizes[1:]:
        terms[outputs - size:outputs] += terms[start:start + size]
        start += size
    return terms[:outputs].take(unsort, axis=0)


def batch_first(storage, k):
    """View of ``storage``, whose ``k`` leading axes are components and the
    rest the batch, with the component axes moved behind the batch: shape
    S + components, the points axis still innermost in memory."""
    return storage.transpose(tuple(range(k, storage.ndim)) + tuple(range(k)))


def stacked(jets, degrees):
    """Derivatives of each of ``degrees`` of one jet or an array of jets
    (``np.array(jets, dtype=object)`` of any shape C, nested lists too),
    with the component axes leading the storage: for degree d, a read-only
    array of shape S + C + (n,) * d, a :func:`batch_first` view of storage
    (C, n.., S)."""
    jets = np.asarray(jets, dtype=object)
    first = jets.flat[0]
    out = []
    for d in degrees:
        rows, fact = _full_index(first.nvars, d)
        part = np.empty((jets.size, len(rows), first.coef.shape[1]))
        for jet, dest in zip(jets.flat, part):
            jet.coef.take(rows, axis=0, out=dest)
        if d >= 2:
            part *= fact[:, None]
        part = part.reshape(jets.shape + (first.nvars,) * d
                            + first.batch_shape)
        part.flags.writeable = False
        out.append(batch_first(part, jets.ndim + d))
    return out


class Jet:
    """Value and partial derivatives up to ``order`` (0..3) in ``nvars``
    variables: packed coefficients ``coef`` (rows, prod(S)) over the batch
    shape S = ``batch_shape``, read as read-only arrays of batch-first shape
    whose points axis is innermost in memory (:func:`batch_first` views):
    value : ndarray, ``S`` (a view of ``coef``)
    grad  : ndarray, ``S + (n,)`` or None when order < 1
    hess  : ndarray, ``S + (n, n)``, symmetric, or None when order < 2
    third : ndarray, ``S + (n, n, n)``, fully symmetric, or None when order < 3
    ``coordinate`` is i when the jet is the coordinate function x_i itself
    (:meth:`variable`), else None.
    """

    __slots__ = ("nvars", "order", "coef", "batch_shape", "coordinate")

    def __init__(self, coef, nvars, order, batch_shape, coordinate=None):
        coef.flags.writeable = False
        self.nvars, self.order, self.coef, self.batch_shape = (
            nvars, order, coef, batch_shape)
        self.coordinate = coordinate

    @classmethod
    def constant(cls, value, nvars, order, batch_shape=()):
        batch_shape = tuple(batch_shape)
        coef = np.zeros((_first(nvars, order + 1), math.prod(batch_shape)))
        coef[0] = np.broadcast_to(value, batch_shape).reshape(-1)
        return cls(coef, nvars, order, batch_shape)

    @classmethod
    def variable(cls, values, index, nvars, order):
        """Jet of the coordinate function ``x_index`` (0-based) at ``values``."""
        v = np.asarray(values, dtype=float)
        coef = np.zeros((_first(nvars, order + 1), v.size))
        coef[0] = v.reshape(-1)
        coef[1 + index:2 + index] = 1.0       # the gradient row, if any
        return cls(coef, nvars, order, v.shape, coordinate=index)

    def _part(self, degree):
        """The derivatives of one degree as a batch-first symmetric tensor."""
        return None if degree > self.order else stacked(self, (degree,))[0]

    value = property(lambda self: self.coef[0].reshape(self.batch_shape))
    grad = property(lambda self: self._part(1))
    hess = property(lambda self: self._part(2))
    third = property(lambda self: self._part(3))

    def _like(self, coef):
        return Jet(coef, self.nvars, self.order, self.batch_shape)

    def _coerce(self, other):
        """``other`` as a jet like this one, or a plain scalar (0-d arrays
        too) as a float the arithmetic applies to the coefficients directly;
        anything else is a TypeError."""
        if isinstance(other, Jet):
            if (other.nvars, other.order, other.batch_shape) != (
                    self.nvars, self.order, self.batch_shape):
                raise ValueError("jet nvars/order/batch shape mismatch")
            return other
        if isinstance(other, (int, float, np.integer, np.floating)) or (
                isinstance(other, np.ndarray) and other.ndim == 0):
            return float(other)
        raise TypeError(f"jet arithmetic takes jets and scalars, not "
                        f"{type(other).__name__}")

    def truncate(self, order):
        """View of this jet at a lower order (coefficients are shared)."""
        if order > self.order:
            raise ValueError("truncate cannot raise the order")
        return Jet(self.coef[:_first(self.nvars, order + 1)],
                   self.nvars, order, self.batch_shape)

    def __add__(self, other):
        o = self._coerce(other)
        if not isinstance(o, Jet):
            coef = self.coef.copy()
            coef[0] += o
            return self._like(coef)
        return self._like(self.coef + o.coef)

    __radd__ = __add__

    def __neg__(self):
        return self._like(-self.coef)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if not isinstance(o, Jet):
            # the product rule with a constant, whose derivatives are zero
            return self._like(self.coef * o)
        return self._like(_product(self.coef, o.coef,
                                   _product_table(self.nvars, self.order)))

    __rmul__ = __mul__

    def reciprocal(self):
        u = self.coef[0]
        if np.any(u == 0.0):
            raise JetDomainError("division by zero")

        def taylor():
            r = 1.0 / u
            yield r
            r2 = r * r
            yield -r2
            yield r2 * r
            yield -r2 * r2
        return _compose(self, taylor())

    def __truediv__(self, other):
        o = self._coerce(other)
        if isinstance(o, Jet):
            return self * o.reciprocal()
        if o == 0.0:
            raise JetDomainError("division by zero")
        return self * (1.0 / o)

    def __rtruediv__(self, other):
        return self._coerce(other) * self.reciprocal()

    def __pow__(self, exponent):
        if not isinstance(exponent, (int, np.integer)):
            raise TypeError("jet exponent must be an integer")
        m = int(exponent)
        u = self.coef[0]
        if m < 0 and np.any(u == 0.0):
            raise JetDomainError("zero raised to a negative power")
        # Taylor coefficients binom(m, k) u^(m - k) for any integer m
        binom = [math.prod(range(m - k + 1, m + 1)) / math.factorial(k)
                 for k in range(self.order + 1)]
        return _compose(self, [c * u ** (m - k) if c else 0.0 * u
                               for k, c in enumerate(binom)])

    def __repr__(self):
        return f"Jet(order={self.order}, nvars={self.nvars}, value={self.value!r})"


def _powers(delta, n, order):
    """delta^2 .. delta^order from the rows ``delta`` of degree >= 1."""
    powers = [delta]
    for k in range(2, order + 1):
        powers.append(_product(powers[-1], delta,
                               _product_table(n, order, k - 1, 1)))
    return powers[1:]


@lru_cache(maxsize=None)
def _coordinate_powers(n, order, index):
    """:func:`_powers` of the coordinate jet x_index, taken once on one
    point as read-only (rows, 1) columns: they are the same exact 0/1
    pattern at every point."""
    delta = Jet.variable(np.zeros(1), index, n, order).coef[1:]
    powers = _powers(delta, n, order)
    for power in powers:
        power.flags.writeable = False
    return powers


def _compose(u, taylor):
    """Jet of f(u) = sum_k t_k delta^k, t_k = f^(k)(u_0) / k! the k-th item
    of the iterator ``taylor``, of which only t_0 .. t_order are formed;
    delta = u - u_0 (the rows of degree >= 1); delta^k has rows >= k only.
    A coordinate jet reads its powers from a table instead of products."""
    n, order, delta = u.nvars, u.order, u.coef[1:]
    taylor = iter(taylor)
    out = np.empty_like(u.coef)
    out[0] = next(taylor)
    if order:
        np.multiply(next(taylor), delta, out=out[1:])
    powers = (_powers(delta, n, order) if u.coordinate is None
              else _coordinate_powers(n, order, u.coordinate))
    # powers first: zip stops there without forming t_(order + 1)
    for k, (power, t) in enumerate(zip(powers, taylor), start=2):
        out[_first(n, k):] += t * power
    return u._like(out)


def sin(x):
    def taylor():
        s = np.sin(x.coef[0])
        yield s
        c = np.cos(x.coef[0])
        yield c
        yield -0.5 * s
        yield c / -6.0
    return _compose(x, taylor())


def cos(x):
    def taylor():
        c = np.cos(x.coef[0])
        yield c
        s = np.sin(x.coef[0])
        yield -s
        yield -0.5 * c
        yield s / 6.0
    return _compose(x, taylor())


def tan(x):
    if np.any(np.abs(np.cos(x.coef[0])) < 1e-300):
        raise JetDomainError("tan evaluated at a pole")

    def taylor():
        t = np.tan(x.coef[0])
        yield t
        sec2 = 1.0 + t * t
        yield sec2
        yield t * sec2
        yield sec2 * (sec2 + 2.0 * t * t) / 3.0
    return _compose(x, taylor())


def exp(x):
    def taylor():
        e = np.exp(x.coef[0])
        yield e
        yield e
        yield 0.5 * e
        yield e / 6.0
    return _compose(x, taylor())


def log(x):
    u = x.coef[0]
    if np.any(u <= 0.0):
        raise JetDomainError("log of a non-positive number")

    def taylor():
        yield np.log(u)
        r = 1.0 / u
        yield r
        yield -0.5 * r * r
        yield r * r * r / 3.0
    return _compose(x, taylor())


def sqrt(x):
    u = x.coef[0]
    if np.any(u <= 0.0):
        raise JetDomainError("sqrt of a non-positive number (its derivatives "
                             "need a positive argument)")

    def taylor():
        r = np.sqrt(u)
        yield r
        yield 0.5 / r
        yield -0.125 / (u * r)
        yield 0.0625 / (u * u * r)
    return _compose(x, taylor())


@lru_cache(maxsize=None)
def _shift(n, order, index):
    """Rows of beta + e_index and weights beta_index + 1, |beta| <= order."""
    idx, row = _layout(n, order + 1)
    lower = idx[:_first(n, order + 1)]
    return (np.array([row[tuple(sorted(t + (index,)))] for t in lower],
                     dtype=np.intp),
            np.array([t.count(index) + 1.0 for t in lower]))


def derivative_view(jet, index):
    """Jet of d(jet)/dx_index, one order lower: the weighted coefficient
    shift (beta_index + 1) c_(beta + e_index), so quantities built from
    second derivatives get differentiated again without a new evaluation."""
    if jet.order < 1:
        raise ValueError("cannot take a derivative view of an order-0 jet")
    rows, weight = _shift(jet.nvars, jet.order - 1, index)
    return Jet(jet.coef[rows] * weight[:, None], jet.nvars, jet.order - 1,
               jet.batch_shape)
