"""Quadrature rules, the periodic spectral calculus on uniform samples of
one period (Trefethen, Spectral Methods in MATLAB, SIAM 2000, ch. 3-4) and
the classical RK4 stepper shared across modules."""

from __future__ import annotations

import numpy as np

__all__ = [
    "periodic_trapezoid",
    "gauss_legendre_nodes",
    "gauss_legendre",
    "rk4_stage_times",
    "rk4_path",
    "periodic_antiderivative",
    "trig_interpolate",
    "trig_resample",
    "spectral_derivative",
    "invert_antiderivative",
]

TWO_PI = 2.0 * np.pi
_CHUNK = 4096        # (points x modes) entries per block: 32 KB temporaries


def periodic_trapezoid(samples, period=2.0 * np.pi):
    """Integral of a smooth periodic function from uniform samples along
    the last axis (no duplicated endpoint); spectrally accurate.  Complex
    samples allowed."""
    samples = np.asarray(samples)
    if not np.iscomplexobj(samples):
        samples = samples.astype(float)
    if samples.shape[-1] == 0:
        raise ValueError("periodic_trapezoid needs at least one sample")
    return np.mean(samples, axis=-1) * period


def gauss_legendre_nodes(a, b, cells=8, nodes=16):
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    if cells < 1 or nodes < 1:
        raise ValueError("cells and nodes must be positive")
    x0, w0 = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(a, b, cells + 1)
    half = 0.5 * np.diff(edges)[:, None]
    return (edges[:-1, None] + half * (x0 + 1.0)).ravel(), (half * w0).ravel()


def gauss_legendre(f, a, b, cells=8, nodes=16):
    """Composite Gauss-Legendre integral of a callable on [a, b];
    exact for polynomials of degree 2*nodes - 1 per cell."""
    x, w = gauss_legendre_nodes(a, b, cells, nodes)
    return float(np.sum(w * np.asarray(f(x), dtype=float)))


def rk4_stage_times(t0, t1, steps):
    """Step nodes t_k of :func:`rk4_path`, its step h, and the (steps, 3)
    table of the times t_k, t_k + h/2, t_k + h at which it calls ``rhs``
    (bit for bit), so a right-hand side can be tabulated before stepping."""
    t_nodes = np.linspace(t0, t1, steps + 1)
    h = (t1 - t0) / steps
    start = t_nodes[:-1]
    return t_nodes, h, np.stack([start, start + 0.5 * h, start + h], axis=1)


def rk4_path(rhs, y0, t0, t1, steps):
    """Classical RK4 integration returning the whole path.

    ``rhs(t, y)`` maps to dy/dt; ``y0`` may be any array shape.  Returns
    (t_nodes, states) with states of shape (steps + 1,) + y0.shape.
    """
    y = np.array(y0, dtype=float)
    t_nodes, h, stages = rk4_stage_times(t0, t1, steps)
    out = np.empty((steps + 1,) + y.shape)
    out[0] = y
    for k, (t, t_half, t_end) in enumerate(stages):
        k1 = np.asarray(rhs(t, y))
        k2 = np.asarray(rhs(t_half, y + 0.5 * h * k1))
        k3 = np.asarray(rhs(t_half, y + 0.5 * h * k2))
        k4 = np.asarray(rhs(t_end, y + h * k3))
        y = y + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        out[k + 1] = y
    return t_nodes, out


def periodic_antiderivative(values, period):
    """Antiderivative samples (starting at 0) of a periodic sample set:
    mean ramp plus spectral antiderivative of the oscillating part."""
    m = values.size
    mean = float(np.mean(values))
    spectrum = np.fft.rfft(values - mean)
    k = np.fft.rfftfreq(m, d=1.0 / m)
    factor = np.zeros_like(spectrum)
    nonzero = k > 0
    factor[nonzero] = 1.0 / (1j * k[nonzero] * TWO_PI / period)
    if m % 2 == 0:
        factor[-1] = 0.0
    anti = np.fft.irfft(spectrum * factor, n=m)
    anti = anti - anti[0]
    x = period * np.arange(m) / m
    return anti + mean * x


def trig_interpolate(samples, period, points):
    """Evaluate the trigonometric interpolant of uniform periodic samples,
    in blocks of about ``_CHUNK`` (points x modes) entries: the working set
    stays bounded and a point's value does not depend on its batch."""
    coef = _kept_modes(samples)
    freq = TWO_PI * np.arange(coef.size)
    pts = np.asarray(points, dtype=float)
    flat, out = pts.ravel(), np.empty(pts.size)
    step = max(1, _CHUNK // coef.size)
    for lo in range(0, flat.size, step):
        phase = np.multiply.outer(flat[lo:lo + step], freq) / period
        out[lo:lo + step] = (np.einsum("pk,k->p", np.cos(phase), coef.real)
                             - np.einsum("pk,k->p", np.sin(phase), coef.imag))
    return out.reshape(pts.shape)


def _kept_modes(samples):
    """Coefficients c_k of the interpolant sum_k Re(c_k e^{ikx}) of m
    uniform periodic samples, less the trailing modes of summed magnitude
    at most eps sum_k |c_k| (mode 0 always kept)."""
    m = samples.size
    k = np.arange(m // 2 + 1)
    # mode 0 and the unpaired Nyquist mode of an even m once, the rest twice
    weight = np.where((k == 0) | (2 * k == m), 1.0, 2.0)
    coef = weight * np.fft.rfft(samples) / m
    tail = np.cumsum(np.abs(coef[::-1]))[::-1]
    kept = np.count_nonzero(tail > np.finfo(float).eps * tail[0])
    return coef[:max(1, kept)]


def trig_resample(samples, count):
    """The trigonometric interpolant of m uniform periodic samples at
    ``count`` uniform nodes of one period, by FFT: zero-padded to the least
    multiple of ``count`` not below m (splitting the Nyquist mode of an even
    m) and decimated, which folds the aliased modes above count / 2."""
    m = samples.size
    size = count * -(-m // count)
    spectrum = np.fft.rfft(samples)
    if size > m and m % 2 == 0:
        spectrum[-1] /= 2.0
    return np.fft.irfft(spectrum, n=size)[::size // count] * (size / m)


def spectral_derivative(values, period):
    """Derivative of smooth periodic samples along the first axis,
    spectrally."""
    m = values.shape[0]
    spectrum = np.fft.rfft(values, axis=0)
    k = np.fft.rfftfreq(m, d=1.0 / m)          # 0, 1, ..., m/2
    if m % 2 == 0:
        k[-1] = 0.0                            # drop the unpaired Nyquist mode
    k = k.reshape((-1,) + (1,) * (values.ndim - 1))
    spectrum = spectrum * (1j * k * TWO_PI / period)
    return np.fft.irfft(spectrum, n=m, axis=0)


def invert_antiderivative(density, period, count, samples):
    """Nodes x_k with int_0^{x_k} density = total k / count,
    k = 0 .. count - 1, and the total integral over one period.

    ``density`` is a positive periodic callable, sampled at ``samples``
    uniform points for a spectral antiderivative F.  Monotone linear
    inversion of the F samples gives the start; three Newton steps follow,
    each evaluating F exactly (trig interpolant of its periodic part plus
    the mean ramp) and dividing by the exact density."""
    grid = period * np.arange(samples) / samples
    values = density(grid)
    slope = float(np.mean(values))
    total = slope * period
    anti = periodic_antiderivative(values, period)
    periodic_part = anti - slope * grid
    targets = total * np.arange(count) / count
    nodes = np.interp(targets, np.append(anti, total),
                      np.append(grid, period))
    for _ in range(3):
        residual = (trig_interpolate(periodic_part, period, nodes)
                    + slope * nodes - targets)
        nodes = nodes - residual / density(nodes)
    return nodes, total
