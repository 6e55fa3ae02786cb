"""Boundary machinery for convex caps with planar tangential boundary.

A closed boundary profile is the positive geodesic curvature k_g of the
boundary curve together with the derived turning angle
theta(s) = int_0^s k_g, which for an admissible profile sweeps [0, 2 pi].
On such a boundary the restriction of phi = r . tau satisfies the linear
ODE (in arclength; theta used as the independent variable below)

    phi_s'(theta) = phi_t(theta),
    phi_t'(theta) = -phi_s(theta) + f(theta),       f = F / k_g,

whose solution with c1 = phi_s(0), c2 = phi_t(0) is

    phi_s(theta) = -cos(theta) (u - c1) + sin(theta) (v + c2),
    u(theta) = int_0^theta f sin,  v(theta) = int_0^theta f cos.

The boundary energy int phi_s F ds is evaluated two ways: directly as
2 int -v' u dtheta, and through the shifted functions

    U = u + C X2,  V = v + C X1,  X1 = int cos/k_g, X2 = int sin/k_g,
    C = -u(pi) / X2(pi),

for which U' cot(theta) = V'  and

    int phi_s F ds = - int (U / sin(theta))^2 dtheta - 2 C^2 S ,

with S > 0 the area of the reference curve with curvature k_g.  The
right-hand side is manifestly non-positive, which is the inequality this
module certifies numerically.  (The cot integration by parts produces the
1/sin^2 weight; U vanishing at 0, pi, 2 pi keeps the integral finite.)
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .expressions import evaluate_jet, parse_expression
from .geometry import GeodesicChart, geodesic_boundary_chart
from .jets import RigidlabError, read_input
from .quadrature import (invert_antiderivative, periodic_antiderivative,
                         periodic_trapezoid, rk4_path, rk4_stage_times,
                         spectral_derivative, trig_interpolate)

__all__ = [
    "BoundaryError",
    "InadmissibleError",
    "BoundaryProfile",
    "BoundaryODESolution",
    "ReferenceCurve",
    "UVData",
    "DongReport",
    "EnergyInequalityResult",
    "LemmaHHReport",
    "dong_conditions",
    "lemma_hh_check",
    "solve_boundary_ode",
    "reference_curve",
    "uv_functions",
    "boundary_energy_inequality",
    "admissibility_residuals",
    "project_to_admissible",
    "random_admissible_profile_function",
    "trig_polynomial",
]

TWO_PI = 2.0 * math.pi
ADMISSIBLE_TOL = 1e-8
THETA_SAMPLES = 4096          # turning angles of every profile; even: hits pi
S_SAMPLES = 2048              # k_g(s) samples of a callable arclength profile
UV_EXCLUSION = 1e-3           # U/V slope identity skips this near 0, pi, 2 pi
# the boundary ODE keeps its stage table, the tabulated f and the path:
# peak RSS grows by about 490 bytes per RK4 step (100k and 200k steps)
MAX_ODE_BYTES = 2**30
ODE_BYTES_PER_STEP = 512


class BoundaryError(RigidlabError):
    pass


class InadmissibleError(BoundaryError):
    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


def _as_theta_function(f, name):
    """Normalize a profile input: callable, expression text/AST, or a
    constant (None reads 0), into a vectorized function of theta whose
    samples are refused, as ``name``, unless finite."""
    if callable(f):
        fn = f
    elif f is None or isinstance(f, (int, float)):
        fn = functools.partial(np.full_like,
                               fill_value=0.0 if f is None else float(f))
    else:
        ast = parse_expression(f, 1) if isinstance(f, str) else f

        def fn(theta):
            return evaluate_jet(ast, theta[..., None], order=0).value

    def samples(theta):
        with np.errstate(all="ignore"):      # non-finite values are refused
            vals = np.asarray(fn(np.asarray(theta, dtype=float)), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise BoundaryError(f"{name} has non-finite samples")
        return vals

    return samples


def _positive_kg(kg_vals):
    """k_g samples, refused unless finite and positive (NaN fails both)."""
    if not np.all((kg_vals > 0.0) & (kg_vals < np.inf)):
        raise BoundaryError("k_g must be finite and positive everywhere")
    return kg_vals


@dataclass
class BoundaryProfile:
    """Positive periodic geodesic-curvature data with its two natural
    parametrizations (arclength s and turning angle theta)."""

    theta: np.ndarray             # uniform grid on [0, total turning)
    kg_theta: np.ndarray          # k_g at those turning angles
    s_of_theta: np.ndarray
    length: float
    total_turning: float
    kg_s: Optional[Callable] = None

    @classmethod
    def from_theta(cls, kg):
        """Profile from k_g as a function of the turning angle; the total
        turning is 2 pi by construction."""
        theta = TWO_PI * np.arange(THETA_SAMPLES) / THETA_SAMPLES
        kg_vals = _positive_kg(_as_theta_function(kg, "k_g")(theta))
        inv = 1.0 / kg_vals
        s_vals = periodic_antiderivative(inv, TWO_PI)
        length = float(periodic_trapezoid(inv, TWO_PI))
        return cls(theta=theta, kg_theta=kg_vals, s_of_theta=s_vals,
                   length=length, total_turning=TWO_PI)

    @classmethod
    def from_arclength(cls, kg, length):
        """Profile from k_g as a periodic function of arclength on
        [0, length); the total turning is measured, not assumed.

        ``kg`` may also be a 1-D array of uniform periodic samples over
        [0, length): k_g is then their trigonometric interpolant, whose
        antiderivative is exact to rounding on twice as many samples."""
        if isinstance(kg, np.ndarray):
            samples = 2 * kg.size

            def fn(s):
                return trig_interpolate(kg, length, s)
        else:
            samples = S_SAMPLES
            fn = _as_theta_function(kg, "k_g")

        def density(s):
            return _positive_kg(fn(s))

        s_of_theta, turning = invert_antiderivative(density, length,
                                                    THETA_SAMPLES, samples)
        theta = turning * np.arange(THETA_SAMPLES) / THETA_SAMPLES
        kg_theta = density(np.mod(s_of_theta, length))
        return cls(theta=theta, kg_theta=kg_theta, s_of_theta=s_of_theta,
                   length=float(length), total_turning=turning, kg_s=fn)

    @classmethod
    def from_csv(cls, path):
        """Profile from a two-column CSV of uniform periodic samples.

        Header ``theta,kg`` gives k_g over one full turn of the turning
        angle; header ``s,kg`` gives k_g over one boundary period in
        arclength (no duplicated endpoint in either case)."""
        first, *lines = read_input(path).splitlines() or [""]
        header = first.strip().lower().split(",")
        rows = [line.strip().split(",") for line in lines if line.strip()]
        if len(header) != 2 or header[1] != "kg" or \
                header[0] not in ("theta", "s"):
            raise BoundaryError("profile CSV needs header 'theta,kg' or "
                                "'s,kg'")
        try:
            table = np.array(rows, dtype=float).reshape(len(rows), 2)
        except ValueError as exc:
            raise BoundaryError(f"profile CSV rows must be two numbers "
                                f"each ({exc})") from exc
        params, values = table.T
        if params.size < 4:
            raise BoundaryError("profile CSV needs at least four samples")
        step = params[1] - params[0]
        if not np.all(np.abs(np.diff(params) - step) <= 1e-9 * abs(step)):
            raise BoundaryError("profile CSV samples must be uniform")
        _positive_kg(values)
        period = params.size * step
        if header[0] == "theta":
            if abs(period - TWO_PI) > 1e-9:
                raise BoundaryError("theta samples must cover one full turn")
            return cls.from_theta(
                lambda x: trig_interpolate(values, period, x))
        return cls.from_arclength(values, period)

    @classmethod
    def from_chart(cls, chart: GeodesicChart):
        """Profile of a geodesic boundary chart.  The chart stores
        k_g = B_t(s, 0) with inward t; the boundary profile uses the
        classical orientation, which flips the sign (a convex cap then has
        positive k_g)."""
        return cls.from_arclength(-chart.kg, chart.length)


def _antiderivative_half_step(integrand_aligned, theta_aligned):
    """Antiderivative of a periodic integrand on the half-step offset grid:
    the periodic part is shifted spectrally (exact phase factor), the mean
    ramp exactly."""
    m = integrand_aligned.size
    slope = float(np.mean(integrand_aligned))
    full = periodic_antiderivative(integrand_aligned, TWO_PI)
    periodic_part = full - slope * theta_aligned
    spectrum = np.fft.rfft(periodic_part)
    k = np.fft.rfftfreq(m, d=1.0 / m)
    shifted = np.fft.irfft(spectrum * np.exp(1j * k * np.pi / m), n=m)
    return shifted + slope * (theta_aligned + np.pi / m)


# ---------------------------------------------------------------------------
# closure conditions
# ---------------------------------------------------------------------------

@dataclass
class DongReport:
    turning_residual: float       # | total turning - 2 pi |
    closure_residual: float       # | loop integral of e^{i theta(s)} ds |
    min_curvature_flux: Optional[float]  # min over boundary of K_t B_t
    turning_ok: bool
    closure_ok: bool
    flux_ok: Optional[bool]

    def all_hold(self):
        checks = [self.turning_ok, self.closure_ok]
        if self.flux_ok is not None:
            checks.append(self.flux_ok)
        return all(checks)


def dong_conditions(source, tol=1e-6, depth=0.1, n_s=64, n_t=64):
    """Necessary conditions for a profile to bound a smooth cap:
    total turning 2 pi, closed tangent loop, and positive transversal
    curvature flux on the boundary.

    ``source`` is a :class:`BoundaryProfile` (flux check skipped, needs an
    embedding), a :class:`GeodesicChart`, or an immersion+edge pair
    ``(immersion, edge)``.  The flux is reported as min K_t * B_t in the
    chart's own t convention, a quantity invariant under flipping t.
    """
    chart = None
    if isinstance(source, BoundaryProfile):
        profile = source
    elif isinstance(source, GeodesicChart):
        chart = source
        profile = BoundaryProfile.from_chart(chart)
    else:
        immersion, edge = source
        chart = geodesic_boundary_chart(immersion, edge, depth=depth,
                                        n_s=n_s, n_t=n_t)
        profile = BoundaryProfile.from_chart(chart)

    turning_residual = abs(profile.total_turning - TWO_PI)

    if profile.kg_s is not None:
        s_grid = profile.length * np.arange(S_SAMPLES) / S_SAMPLES
        kg_vals = profile.kg_s(s_grid)
        theta_of_s = periodic_antiderivative(kg_vals, profile.length)
        closure = periodic_trapezoid(np.exp(1j * theta_of_s), profile.length)
    else:
        closure = periodic_trapezoid(
            np.exp(1j * profile.theta) / profile.kg_theta, TWO_PI)
    closure_residual = float(abs(closure))

    flux = flux_ok = None
    if chart is not None:
        K = chart.frame.curvature
        dt = chart.t[1] - chart.t[0]
        Kt = _one_sided_derivative(K, dt)
        Bt = _one_sided_derivative(chart.B, dt)
        flux = float(np.min(Kt * Bt))
        flux_ok = flux > 0.0
    return DongReport(
        turning_residual=float(turning_residual),
        closure_residual=closure_residual,
        min_curvature_flux=flux,
        turning_ok=turning_residual <= tol,
        closure_ok=closure_residual <= tol,
        flux_ok=flux_ok)


def _one_sided_derivative(grid_values, dt):
    """4th-order one-sided derivative at the boundary column t = 0."""
    c = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12.0 * dt)
    return sum(c[k] * grid_values[:, k] for k in range(5))


@dataclass
class LemmaHHReport:
    max_l: float                  # |h(F_s, F_s)| on the boundary
    max_m: float                  # |h(F_s, F_t)| on the boundary
    n_residual: float             # |N - sqrt(K_t / B_t)|
    lt_residual: float            # |L_t - sqrt(K_t B_t)|
    k_t: np.ndarray
    b_t: np.ndarray


def lemma_hh_check(source, depth=0.1, n_s=32, n_t=64,
                   k_boundary_tol=1e-6, k_t_min=1e-3):
    """Boundary behavior of the second fundamental form on a flat-boundary
    cap: the tangential components L, M vanish where K = 0 on the boundary,
    and N and the transversal derivative of L match sqrt(K_t / B_t) and
    sqrt(K_t B_t).

    Preconditions (checked numerically): K = 0 on the boundary and
    K_t != 0 there.  Derivatives are one-sided in t; they are taken in the
    co-orientation (outward) for which the two square-root identities pick
    the positive roots on an upward-oriented cap.
    """
    if isinstance(source, GeodesicChart):
        chart = source
    else:
        immersion, edge = source
        chart = geodesic_boundary_chart(immersion, edge, depth=depth,
                                        n_s=n_s, n_t=n_t)
    K = chart.frame.curvature
    k_scale = max(1.0, float(np.max(np.abs(K))))
    if float(np.max(np.abs(K[:, 0]))) > k_boundary_tol * k_scale:
        raise BoundaryError(
            "boundary is not curvature-flat: max |K| = "
            f"{float(np.max(np.abs(K[:, 0]))):.3e}")
    dt = chart.t[1] - chart.t[0]
    k_t = -_one_sided_derivative(K, dt)          # outward co-orientation
    b_t = -_one_sided_derivative(chart.B, dt)
    if float(np.min(np.abs(k_t))) < k_t_min:
        raise BoundaryError("K_t vanishes on the boundary; the square-root "
                            "identities are indeterminate")
    if np.any(k_t * b_t <= 0.0):
        raise BoundaryError("K_t B_t is not positive on the boundary")

    L, M, N = chart.second_form_grid()
    l_t = -_one_sided_derivative(L, dt)
    n_res = float(np.max(np.abs(N[:, 0] - np.sqrt(k_t / b_t))))
    lt_res = float(np.max(np.abs(l_t - np.sqrt(k_t * b_t))))
    return LemmaHHReport(
        max_l=float(np.max(np.abs(L[:, 0]))),
        max_m=float(np.max(np.abs(M[:, 0]))),
        n_residual=n_res, lt_residual=lt_res, k_t=k_t, b_t=b_t)


# ---------------------------------------------------------------------------
# the boundary ODE and its closed form
# ---------------------------------------------------------------------------

@dataclass
class BoundaryODESolution:
    theta: np.ndarray
    phi_s: np.ndarray
    phi_t: np.ndarray
    u: np.ndarray
    v: np.ndarray
    phi_s_closed: np.ndarray
    phi_t_closed: np.ndarray
    max_deviation: float
    c1: float
    c2: float


def solve_boundary_ode(profile, f, c1=0.0, c2=0.0, n_steps=4096):
    """Integrate the boundary ODE in the turning angle and compare with the
    closed form built from u = int f sin, v = int f cos.

    f is evaluated once, on the table of RK4 stage angles (a callable f
    must accept an array of angles); the stepper then reads it by angle.
    Step counts whose tables would pass ``MAX_ODE_BYTES`` are refused
    before anything is allocated."""
    if n_steps * ODE_BYTES_PER_STEP > MAX_ODE_BYTES:
        raise BoundaryError(
            f"{n_steps} ODE steps would need about "
            f"{n_steps * ODE_BYTES_PER_STEP / 2**20:.0f} MiB, over the "
            f"{MAX_ODE_BYTES / 2**20:.0f} MiB budget")
    stages = rk4_stage_times(0.0, TWO_PI, n_steps)[2].ravel()
    f_vals = np.broadcast_to(_as_theta_function(f, "f")(stages),
                             stages.shape)
    f_at = dict(zip(stages.tolist(), f_vals.tolist()))

    def rhs(theta, y):
        phi_s, phi_t, u, v = y
        fv = f_at[theta]
        return np.array([phi_t, -phi_s + fv,
                         fv * math.sin(theta), fv * math.cos(theta)])

    theta, path = rk4_path(rhs, np.array([c1, c2, 0.0, 0.0]),
                           0.0, TWO_PI, n_steps)
    phi_s, phi_t, u, v = path.T
    phi_s_closed = -np.cos(theta) * (u - c1) + np.sin(theta) * (v + c2)
    phi_t_closed = np.sin(theta) * (u - c1) + np.cos(theta) * (v + c2)
    dev = float(max(np.max(np.abs(phi_s - phi_s_closed)),
                    np.max(np.abs(phi_t - phi_t_closed))))
    return BoundaryODESolution(theta=theta, phi_s=phi_s, phi_t=phi_t,
                               u=u, v=v, phi_s_closed=phi_s_closed,
                               phi_t_closed=phi_t_closed,
                               max_deviation=dev, c1=c1, c2=c2)


# ---------------------------------------------------------------------------
# reference curve
# ---------------------------------------------------------------------------

@dataclass
class ReferenceCurve:
    theta: np.ndarray
    kg: np.ndarray                # k_g samples at theta
    x1: np.ndarray
    x2: np.ndarray
    area: float
    closure_gap: float


def reference_curve(profile):
    """Planar curve with curvature k_g(theta), the profile's samples read
    over one full turn, in the unit-speed-in-theta/k_g parametrization;
    returns the area S = -loop x2 dx1 (positive for closing profiles) and
    the endpoint gap."""
    theta = TWO_PI * np.arange(THETA_SAMPLES) / THETA_SAMPLES
    kg = profile.kg_theta
    dx1 = np.cos(theta) / kg
    dx2 = np.sin(theta) / kg
    x1 = periodic_antiderivative(dx1, TWO_PI)
    x2 = periodic_antiderivative(dx2, TWO_PI)
    gap = math.hypot(float(periodic_trapezoid(dx1, TWO_PI)),
                     float(periodic_trapezoid(dx2, TWO_PI)))
    area = -float(periodic_trapezoid(x2 * dx1, TWO_PI))
    return ReferenceCurve(theta=theta, kg=kg, x1=x1, x2=x2, area=area,
                          closure_gap=gap)


# ---------------------------------------------------------------------------
# admissibility, U/V functions, the energy inequality
# ---------------------------------------------------------------------------

def _sample_uv(profile, f):
    """f sampled once on the turning angles of :func:`reference_curve`, the
    antiderivatives u = int f sin, v = int f cos, and from them the
    admissibility residuals (u(2pi), v(2pi), loop integral of phi_s ds)."""
    theta = TWO_PI * np.arange(THETA_SAMPLES) / THETA_SAMPLES
    f_vals = _as_theta_function(f, "f")(theta)
    f_sin = f_vals * np.sin(theta)
    f_cos = f_vals * np.cos(theta)
    u = periodic_antiderivative(f_sin, TWO_PI)
    v = periodic_antiderivative(f_cos, TWO_PI)
    phi_s_free = -np.cos(theta) * u + np.sin(theta) * v
    residuals = (float(periodic_trapezoid(f_sin, TWO_PI)),
                 float(periodic_trapezoid(f_cos, TWO_PI)),
                 float(periodic_trapezoid(phi_s_free / profile.kg_theta,
                                          TWO_PI)))
    return f_vals, u, v, residuals


def admissibility_residuals(profile, f):
    """(u(2pi), v(2pi), loop integral of phi_s ds) for the given inhomogeneity.

    All three vanish for boundary data coming from a genuine deformation:
    the first two because the rotation increment closes up, the third because
    phi is single-valued.
    """
    return _sample_uv(profile, f)[3]


@dataclass
class UVData:
    theta: np.ndarray
    f: np.ndarray                 # f samples at theta
    u: np.ndarray
    v: np.ndarray
    big_u: np.ndarray
    big_v: np.ndarray
    constant: float
    u_zero_residuals: tuple       # (U(0), U(pi))
    slope_identity_residual: float  # max |U' cot - V'| away from {0, pi, 2pi}
    curve: ReferenceCurve         # X1, X2, k_g and S on the same grid
    admissibility: tuple          # the residuals the admissibility guard passed


def uv_functions(profile, f):
    """Shifted antiderivative pair (U, V) and the normalizing constant C,
    built on the grid of :func:`reference_curve` from its X1, X2.

    Requires admissible data: the u, v it builds on also give the residuals
    of :func:`admissibility_residuals`, refused past ``ADMISSIBLE_TOL``.
    The identity U'(theta) cot(theta) = V'(theta) is checked on the grid
    away from ``UV_EXCLUSION`` of {0, pi, 2 pi}, derivatives spectral.
    """
    f_vals, u, v, residuals = _sample_uv(profile, f)
    names = ("u(2pi)", "v(2pi)", "loop phi_s ds")
    for name, value in zip(names, residuals):
        if abs(value) > ADMISSIBLE_TOL:
            raise InadmissibleError(
                f"inadmissible boundary data: {name} = {value:.3e}",
                residuals=dict(zip(names, residuals)))
    curve = reference_curve(profile)
    theta = curve.theta

    half = theta.size // 2      # the even grid hits pi exactly
    denom = curve.x2[half]
    if abs(denom) < 1e-14:
        raise BoundaryError("degenerate normalization: int_0^pi sin/k_g = 0")
    constant = -u[half] / denom
    big_u = u + constant * curve.x2
    big_v = v + constant * curve.x1

    # numeric identity check: differentiate the constructed U, V spectrally
    du = spectral_derivative(big_u, TWO_PI)
    dv = spectral_derivative(big_v, TWO_PI)
    keep = np.ones_like(theta, dtype=bool)
    for point in (0.0, math.pi, TWO_PI):
        keep &= np.abs(theta - point) > UV_EXCLUSION
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = du * np.cos(theta) / np.sin(theta) - dv
    residual = float(np.max(np.abs(slope[keep])))
    return UVData(theta=theta, f=f_vals, u=u, v=v, big_u=big_u, big_v=big_v,
                  constant=constant,
                  u_zero_residuals=(float(big_u[0]), float(big_u[half])),
                  slope_identity_residual=residual, curve=curve,
                  admissibility=residuals)


@dataclass
class EnergyInequalityResult:
    value_direct: float           # 2 int -v' u dtheta
    value_uv_route: float         # -int (U/sin)^2 - 2 C^2 S
    route_agreement: float
    uv: UVData                    # C = uv.constant, S = uv.curve.area


def boundary_energy_inequality(profile, f):
    """Evaluate the boundary energy loop integral of phi_s F ds two ways and
    return both; each is non-positive for admissible data.  Built on
    :func:`uv_functions`, on the same grid.

    The U/V route samples U on the offset grid so the removable
    singularities of (U / sin)^2 at {0, pi, 2 pi} are never hit.
    """
    uv = uv_functions(profile, f)
    theta, f_vals, n = uv.theta, uv.f, uv.theta.size
    value_direct = -2.0 * float(periodic_trapezoid(
        f_vals * np.cos(theta) * uv.u, TWO_PI))

    u_off = _antiderivative_half_step(f_vals * np.sin(theta), theta)
    x2_off = _antiderivative_half_step(np.sin(theta) / uv.curve.kg, theta)
    big_u_off = u_off + uv.constant * x2_off
    ratio = big_u_off / np.sin(TWO_PI * (np.arange(n) + 0.5) / n)
    value_uv = -float(periodic_trapezoid(ratio**2, TWO_PI)) \
        - 2.0 * uv.constant**2 * uv.curve.area
    return EnergyInequalityResult(
        value_direct=value_direct, value_uv_route=value_uv,
        route_agreement=abs(value_direct - value_uv), uv=uv)


# ---------------------------------------------------------------------------
# admissible random data
# ---------------------------------------------------------------------------

def trig_polynomial(coeffs):
    """Callable theta -> a0 + sum_k (a_k cos k theta + b_k sin k theta) for
    coeffs = [a0, a1, b1, a2, b2, ...]."""
    coeffs = np.asarray(coeffs, dtype=float)

    def fn(theta):
        theta = np.asarray(theta, dtype=float)
        out = np.full(theta.shape, coeffs[0])
        k = 1
        idx = 1
        while idx < coeffs.size:
            out = out + coeffs[idx] * np.cos(k * theta)
            if idx + 1 < coeffs.size:
                out = out + coeffs[idx + 1] * np.sin(k * theta)
            idx += 2
            k += 1
        return out

    return fn


def _constraint_matrix(profile, degree):
    n_coeff = 1 + 2 * degree
    rows = []
    for j in range(n_coeff):
        e = np.zeros(n_coeff)
        e[j] = 1.0
        rows.append(admissibility_residuals(profile, trig_polynomial(e)))
    return np.array(rows).T          # (3, n_coeff)


def project_to_admissible(profile, coeffs, constraint_matrix=None):
    """Least-squares projection of trig-polynomial coefficients onto the
    admissible subspace (the three linear closure constraints)."""
    coeffs = np.asarray(coeffs, dtype=float)
    degree = (coeffs.size - 1) // 2
    cmat = (constraint_matrix if constraint_matrix is not None
            else _constraint_matrix(profile, degree))
    gram = cmat @ cmat.T
    sol = np.linalg.lstsq(gram, cmat @ coeffs, rcond=None)[0]
    return coeffs - cmat.T @ sol


def random_admissible_profile_function(profile, rng, degree=8,
                                       constraint_matrix=None):
    raw = rng.standard_normal(1 + 2 * degree)
    projected = project_to_admissible(profile, raw, constraint_matrix)
    return trig_polynomial(projected)
