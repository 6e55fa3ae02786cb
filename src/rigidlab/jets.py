"""Truncated Taylor (jet) arithmetic up to third order in n chart variables.

A jet carries the value of a scalar quantity together with its partial
derivatives up to a requested order.  All arithmetic propagates derivatives
exactly (to floating point rounding), so downstream identity checks see no
finite-difference noise.  Jets are batched: every component array may carry
arbitrary leading batch dimensions.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Jet",
    "RigidlabError",
    "JetDomainError",
    "sin",
    "cos",
    "tan",
    "exp",
    "log",
    "sqrt",
    "derivative_view",
]


class RigidlabError(ValueError):
    """Base of every error a bad input raises in this package; the CLI maps
    it to a usage error."""


class JetDomainError(RigidlabError):
    """Raised when a function is evaluated outside its domain (log of a
    non-positive number, division by zero, and similar)."""


def _as_array(x):
    return np.asarray(x, dtype=float)


class Jet:
    """Value plus partial derivatives up to ``order`` (0..3) in ``nvars``
    variables.

    Attributes
    ----------
    value : ndarray, batch shape ``S``
    grad  : ndarray, ``S + (n,)`` or None when order < 1
    hess  : ndarray, ``S + (n, n)``, symmetric, or None when order < 2
    third : ndarray, ``S + (n, n, n)``, fully symmetric, or None when order < 3
    """

    __slots__ = ("nvars", "order", "value", "grad", "hess", "third")

    def __init__(self, value, grad=None, hess=None, third=None, *, nvars, order):
        if not 0 <= order <= 3:
            raise ValueError(f"jet order must be in 0..3, got {order}")
        self.nvars = int(nvars)
        self.order = int(order)
        self.value = _as_array(value)
        self.grad = None if order < 1 else _as_array(grad)
        self.hess = None if order < 2 else _as_array(hess)
        self.third = None if order < 3 else _as_array(third)

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, value, nvars, order, batch_shape=()):
        v = np.broadcast_to(_as_array(value), batch_shape).copy()
        n = nvars
        g = np.zeros(batch_shape + (n,)) if order >= 1 else None
        h = np.zeros(batch_shape + (n, n)) if order >= 2 else None
        t = np.zeros(batch_shape + (n, n, n)) if order >= 3 else None
        return cls(v, g, h, t, nvars=n, order=order)

    @classmethod
    def variable(cls, values, index, nvars, order):
        """Jet of the coordinate function ``x_index`` (0-based) at ``values``."""
        v = _as_array(values)
        n = nvars
        shape = v.shape
        g = h = t = None
        if order >= 1:
            g = np.zeros(shape + (n,))
            g[..., index] = 1.0
        if order >= 2:
            h = np.zeros(shape + (n, n))
        if order >= 3:
            t = np.zeros(shape + (n, n, n))
        return cls(v, g, h, t, nvars=n, order=order)

    # -- helpers -----------------------------------------------------------

    def _like(self, value, grad, hess, third):
        return Jet(value, grad, hess, third, nvars=self.nvars, order=self.order)

    def _coerce(self, other):
        """``other`` as a jet like this one; a plain scalar (0-d included)
        comes back as a float, which the arithmetic applies to the arrays
        directly instead of running the jet rules with a constant jet."""
        if isinstance(other, Jet):
            if other.nvars != self.nvars or other.order != self.order:
                raise ValueError("jet nvars/order mismatch")
            return other
        if isinstance(other, (int, float, np.integer, np.floating)) or (
                isinstance(other, np.ndarray) and other.ndim == 0):
            return float(other)
        arr = _as_array(other)
        shape = np.broadcast_shapes(arr.shape, self.value.shape)
        return Jet.constant(arr, self.nvars, self.order, batch_shape=shape)

    def truncate(self, order):
        """View of this jet at a lower order (components are shared)."""
        if order > self.order:
            raise ValueError("truncate cannot raise the order")
        return Jet(
            self.value,
            self.grad if order >= 1 else None,
            self.hess if order >= 2 else None,
            self.third if order >= 3 else None,
            nvars=self.nvars, order=order)

    # -- ring operations ----------------------------------------------------

    def _map(self, value_fn, deriv_fn):
        """New jet with ``value_fn`` applied to the value and ``deriv_fn``
        to every derivative array."""
        return self._like(
            value_fn(self.value),
            None if self.order < 1 else deriv_fn(self.grad),
            None if self.order < 2 else deriv_fn(self.hess),
            None if self.order < 3 else deriv_fn(self.third),
        )

    def __add__(self, other):
        o = self._coerce(other)
        if not isinstance(o, Jet):
            return self._map(lambda v: v + o, np.copy)
        return self._like(
            self.value + o.value,
            None if self.order < 1 else self.grad + o.grad,
            None if self.order < 2 else self.hess + o.hess,
            None if self.order < 3 else self.third + o.third,
        )

    __radd__ = __add__

    def __neg__(self):
        return self._like(
            -self.value,
            None if self.order < 1 else -self.grad,
            None if self.order < 2 else -self.hess,
            None if self.order < 3 else -self.third,
        )

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + self._coerce(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if not isinstance(o, Jet):
            # the product rule with a constant, whose derivatives are zero
            return self._map(lambda v: v * o, lambda d: d * o)
        a, b = self, o
        value = a.value * b.value
        grad = hess = third = None
        if self.order >= 1:
            grad = a.value[..., None] * b.grad + b.value[..., None] * a.grad
        if self.order >= 2:
            cross = a.grad[..., :, None] * b.grad[..., None, :]
            hess = (
                a.value[..., None, None] * b.hess
                + b.value[..., None, None] * a.hess
                + cross
                + np.swapaxes(cross, -1, -2)
            )
        if self.order >= 3:
            third = (
                a.value[..., None, None, None] * b.third
                + b.value[..., None, None, None] * a.third
                + _sym_grad_hess(a.grad, b.hess)
                + _sym_grad_hess(b.grad, a.hess)
            )
        return self._like(value, grad, hess, third)

    __rmul__ = __mul__

    def reciprocal(self):
        u = self.value
        if np.any(u == 0.0):
            raise JetDomainError("division by zero")
        return _compose(self, 1.0 / u, -1.0 / u**2, 2.0 / u**3, -6.0 / u**4)

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
        u = self.value
        if m < 0 and np.any(u == 0.0):
            raise JetDomainError("zero raised to a negative power")
        derivs = []
        coeff = 1.0
        for k in range(4):
            p = m - k
            if coeff == 0.0:
                derivs.append(np.zeros_like(u))
            else:
                derivs.append(coeff * _int_power(u, p))
            coeff *= m - k
        return _compose(self, *derivs)

    def __repr__(self):
        return f"Jet(order={self.order}, nvars={self.nvars}, value={self.value!r})"


def _int_power(u, p):
    if p == 0:
        return np.ones_like(u)
    if p > 0:
        return u ** p
    return 1.0 / u ** (-p)


def _sym_grad_hess(g, h):
    """Symmetrized grad x hess contribution to a third derivative:
    g_i h_jk + g_j h_ik + g_k h_ij."""
    t = g[..., :, None, None] * h[..., None, :, :]
    t = t + g[..., None, :, None] * h[..., :, None, :]
    t = t + g[..., None, None, :] * h[..., :, :, None]
    return t


def _compose(u, f0, f1, f2=None, f3=None):
    """Jet of f(u) given the derivatives of f at u.value (Faa di Bruno to
    third order)."""
    value = np.asarray(f0, dtype=float)
    grad = hess = third = None
    if u.order >= 1:
        f1 = np.asarray(f1, dtype=float)
        grad = f1[..., None] * u.grad
    if u.order >= 2:
        f2 = np.asarray(f2, dtype=float)
        outer = u.grad[..., :, None] * u.grad[..., None, :]
        hess = f2[..., None, None] * outer + f1[..., None, None] * u.hess
    if u.order >= 3:
        f3 = np.asarray(f3, dtype=float)
        cube = (
            u.grad[..., :, None, None]
            * u.grad[..., None, :, None]
            * u.grad[..., None, None, :]
        )
        third = (
            f3[..., None, None, None] * cube
            + f2[..., None, None, None] * _sym_grad_hess(u.grad, u.hess)
            + f1[..., None, None, None] * u.third
        )
    return Jet(value, grad, hess, third, nvars=u.nvars, order=u.order)


def sin(x):
    if not isinstance(x, Jet):
        return np.sin(x)
    s, c = np.sin(x.value), np.cos(x.value)
    return _compose(x, s, c, -s, -c)


def cos(x):
    if not isinstance(x, Jet):
        return np.cos(x)
    s, c = np.sin(x.value), np.cos(x.value)
    return _compose(x, c, -s, -c, s)


def tan(x):
    if not isinstance(x, Jet):
        return np.tan(x)
    c = np.cos(x.value)
    if np.any(np.abs(c) < 1e-300):
        raise JetDomainError("tan evaluated at a pole")
    t = np.tan(x.value)
    sec2 = 1.0 + t * t
    return _compose(x, t, sec2, 2.0 * t * sec2, 2.0 * sec2 * (sec2 + 2.0 * t * t))


def exp(x):
    if not isinstance(x, Jet):
        return np.exp(x)
    e = np.exp(x.value)
    return _compose(x, e, e, e, e)


def log(x):
    if not isinstance(x, Jet):
        return np.log(x)
    u = x.value
    if np.any(u <= 0.0):
        raise JetDomainError("log of a non-positive number")
    return _compose(x, np.log(u), 1.0 / u, -1.0 / u**2, 2.0 / u**3)


def sqrt(x):
    if not isinstance(x, Jet):
        return np.sqrt(x)
    u = x.value
    if np.any(u <= 0.0):
        raise JetDomainError("sqrt of a non-positive number (derivatives "
                             "require a strictly positive argument)")
    r = np.sqrt(u)
    return _compose(x, r, 0.5 / r, -0.25 / (u * r), 0.375 / (u * u * r))


def derivative_view(jet, index, order=None):
    """Jet of the partial derivative d(jet)/dx_index, one order lower.

    The components of the returned jet are slices of the higher components
    of ``jet``; this is how quantities built from second derivatives get
    differentiated once more without any new evaluation.
    """
    if jet.order < 1:
        raise ValueError("cannot take a derivative view of an order-0 jet")
    new_order = jet.order - 1 if order is None else order
    if new_order > jet.order - 1:
        raise ValueError("derivative view cannot raise the order")
    value = jet.grad[..., index]
    grad = jet.hess[..., index, :] if new_order >= 1 else None
    hess = jet.third[..., index, :, :] if new_order >= 2 else None
    if new_order >= 3:
        raise ValueError("third-order views are not available")
    return Jet(value, grad, hess, None, nvars=jet.nvars, order=new_order)
