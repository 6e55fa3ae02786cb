import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from rigidlab import boundary
from rigidlab import surfaces as sf
from rigidlab.boundary import (BoundaryError, BoundaryProfile,
                               InadmissibleError, admissibility_residuals,
                               boundary_energy_inequality, dong_conditions,
                               lemma_hh_check, project_to_admissible,
                               random_admissible_profile_function,
                               reference_curve, solve_boundary_ode,
                               trig_polynomial, uv_functions)
from rigidlab.boundary import _constraint_matrix
from rigidlab.expressions import evaluate_jet, parse_expression
from rigidlab.geometry import Immersion, geodesic_boundary_chart
from rigidlab.quadrature import spectral_derivative, trig_interpolate

TWO_PI = 2 * math.pi


@pytest.fixture(scope="module")
def circle():
    return BoundaryProfile.from_theta(1.0)


def test_profile_needs_positive_curvature():
    with pytest.raises(BoundaryError):
        BoundaryProfile.from_theta("cos(x1)")


@pytest.mark.parametrize("build", [
    lambda: BoundaryProfile.from_theta("1 + 0*exp(800*x1)"),     # NaN
    lambda: BoundaryProfile.from_theta("exp(800*x1)"),           # inf
    lambda: BoundaryProfile.from_theta(lambda t: np.where(t > 3, np.nan,
                                                          1.0)),
    lambda: BoundaryProfile.from_arclength(
        np.array([1.0, np.nan, 1.0, 1.0]), TWO_PI),
], ids=["nan-expression", "inf-expression", "nan-callable", "nan-samples"])
def test_profile_refuses_non_finite_curvature(build):
    with pytest.raises(BoundaryError, match="finite"):
        build()


def test_non_finite_f_samples_are_refused(circle):
    for f in ("exp(800*x1)", lambda t: np.where(t > 3, np.inf, 0.0)):
        for stage in (lambda: solve_boundary_ode(circle, f, n_steps=8),
                      lambda: admissibility_residuals(circle, f),
                      lambda: uv_functions(circle, f),
                      lambda: boundary_energy_inequality(circle, f)):
            with pytest.raises(BoundaryError, match="f has non-finite"):
                stage()


def test_arclength_profile_measures_turning(circle):
    prof = BoundaryProfile.from_arclength(2.0, TWO_PI)
    assert prof.total_turning == pytest.approx(4 * math.pi)
    assert circle.total_turning == pytest.approx(TWO_PI)
    assert circle.length == pytest.approx(TWO_PI)


def test_arclength_profile_inverts_the_turning_angle():
    # k_g(s) = 1 + 0.5 cos s + 0.2 sin 3s turns by
    # theta(s) = s + 0.5 sin s + 0.2 (1 - cos 3s) / 3
    prof = BoundaryProfile.from_arclength(
        lambda s: 1 + 0.5 * np.cos(s) + 0.2 * np.sin(3 * s), TWO_PI)
    s = prof.s_of_theta
    theta = s + 0.5 * np.sin(s) + 0.2 * (1 - np.cos(3 * s)) / 3
    assert prof.total_turning == pytest.approx(TWO_PI, abs=1e-12)
    assert np.max(np.abs(theta - prof.theta)) < 1e-12


def test_homogeneous_ode_solution_rotates(circle):
    sol = solve_boundary_ode(circle, 0.0, c1=1.0, c2=0.0, n_steps=2048)
    assert np.max(np.abs(sol.phi_s - np.cos(sol.theta))) < 1e-10
    assert np.max(np.abs(sol.phi_t + np.sin(sol.theta))) < 1e-10


def _rk4_reference(f_at, c1, c2, n_steps):
    """The boundary ODE stepped by classical RK4 with f evaluated one angle
    at a time, in the arithmetic order of ``rk4_path``."""
    h = TWO_PI / n_steps

    def rhs(theta, y):
        fv = f_at(theta)
        return np.array([y[1], -y[0] + fv,
                         fv * math.sin(theta), fv * math.cos(theta)])

    y = np.array([c1, c2, 0.0, 0.0])
    path = [y]
    for t in np.linspace(0.0, TWO_PI, n_steps + 1)[:-1]:
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        path.append(y)
    return np.array(path)


@pytest.mark.parametrize("n_steps", [1, 7, 1024])
def test_ode_evaluates_f_once_per_solve(circle, monkeypatch, n_steps):
    text = "0.4 + 1.3*sin(2*x1) + cos(x1)^2"
    ast = parse_expression(text, 1)
    poly = trig_polynomial([0.2, 0.5, -0.3, 0.1, 0.4])
    jet_calls, poly_calls = [], []

    def counted_jet(*args, **kwargs):
        jet_calls.append(args)
        return evaluate_jet(*args, **kwargs)

    def counted_poly(theta):
        poly_calls.append(theta)
        return poly(theta)

    monkeypatch.setattr(boundary, "evaluate_jet", counted_jet)
    for f, f_at, calls, expected in (
            (text, lambda t: float(evaluate_jet(
                ast, np.asarray(t)[..., None], order=0).value),
             jet_calls, 1),
            (counted_poly, lambda t: float(poly(np.asarray(t))),
             poly_calls, 1),
            (0.7, lambda t: 0.7, jet_calls, 0)):
        calls.clear()
        sol = solve_boundary_ode(circle, f, c1=0.3, c2=-0.7,
                                 n_steps=n_steps)
        assert len(calls) == expected, f
        path = np.stack([sol.phi_s, sol.phi_t, sol.u, sol.v], axis=1)
        assert np.array_equal(path, _rk4_reference(f_at, 0.3, -0.7,
                                                   n_steps)), f


def test_ode_refuses_step_counts_over_its_memory_budget(circle,
                                                        monkeypatch):
    def stage_table(*args):
        raise AssertionError("the stage table was allocated")

    monkeypatch.setattr(boundary, "rk4_stage_times", stage_table)
    limit = boundary.MAX_ODE_BYTES // boundary.ODE_BYTES_PER_STEP
    for n_steps in (limit + 1, 10**8, 10**30):
        with pytest.raises(BoundaryError, match="MiB budget"):
            solve_boundary_ode(circle, "sin(2*x1)", n_steps=n_steps)
    with pytest.raises(AssertionError, match="stage table"):
        solve_boundary_ode(circle, "sin(2*x1)", n_steps=limit)


def test_ode_memory_budget_tracks_the_real_cost(circle):
    n_steps = 2048
    tracemalloc.start()
    try:
        solve_boundary_ode(circle, "sin(2*x1)", n_steps=n_steps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    per_step = peak / n_steps
    assert boundary.ODE_BYTES_PER_STEP / 2 <= per_step \
        <= boundary.ODE_BYTES_PER_STEP, per_step


def test_ode_matches_closed_form_for_sin2(circle):
    sol = solve_boundary_ode(circle, "sin(2*x1)", c1=0.3, c2=-0.7,
                             n_steps=4096)
    assert sol.max_deviation < 1e-8
    u_exact = (2.0 / 3.0) * np.sin(sol.theta) ** 3
    v_exact = (2.0 / 3.0) * (1.0 - np.cos(sol.theta) ** 3)
    assert np.max(np.abs(sol.u - u_exact)) < 1e-10
    assert np.max(np.abs(sol.v - v_exact)) < 1e-10
    assert abs(sol.u[-1]) < 1e-10 and abs(sol.v[-1]) < 1e-10


def test_reference_curve_unit_circle(circle):
    curve = reference_curve(circle)
    assert curve.area == pytest.approx(math.pi, abs=1e-10)
    assert curve.closure_gap < 1e-12
    assert np.max(np.abs(curve.x1 - np.sin(curve.theta))) < 1e-12
    assert np.max(np.abs(curve.x2 - (1 - np.cos(curve.theta)))) < 1e-12


def test_reference_curve_scales_like_inverse_curvature():
    prof = BoundaryProfile.from_theta(2.0)
    curve = reference_curve(prof)
    assert curve.area == pytest.approx(math.pi / 4, abs=1e-10)


def test_reference_curve_perturbed_profile_closes():
    prof = BoundaryProfile.from_theta("1 + 0.3*cos(2*x1)")
    curve = reference_curve(prof)
    assert curve.closure_gap < 1e-8
    assert curve.area > 0


def test_reference_curve_curvature_reconstruction():
    prof = BoundaryProfile.from_theta("1 + 0.3*cos(2*x1)")
    curve = reference_curve(prof)
    x1p = spectral_derivative(curve.x1, TWO_PI)
    x2p = spectral_derivative(curve.x2, TWO_PI)
    x1pp = spectral_derivative(x1p, TWO_PI)
    x2pp = spectral_derivative(x2p, TWO_PI)
    kappa = (x1p * x2pp - x2p * x1pp) / (x1p**2 + x2p**2) ** 1.5
    assert np.max(np.abs(kappa - prof.kg_theta)) < 1e-6


# -- admissibility and the energy inequality ----------------------------------

def test_sin2_is_admissible_with_zero_constant(circle):
    uv = uv_functions(circle, "sin(2*x1)")
    assert abs(uv.constant) < 1e-12
    assert max(abs(r) for r in uv.u_zero_residuals) < 1e-12
    assert uv.slope_identity_residual < 1e-6


def test_constant_inhomogeneity_rejected(circle):
    u_end, v_end, loop = admissibility_residuals(circle, 1.0)
    assert abs(loop - TWO_PI) < 1e-10
    with pytest.raises(InadmissibleError):
        uv_functions(circle, 1.0)


def test_zero_inhomogeneity_trivial(circle):
    uv = uv_functions(circle, 0.0)
    assert np.max(np.abs(uv.big_u)) < 1e-12
    assert np.max(np.abs(uv.big_v)) < 1e-12
    res = boundary_energy_inequality(circle, 0.0)
    assert res.value_direct == pytest.approx(0.0, abs=1e-14)


def test_energy_value_for_sin2(circle):
    res = boundary_energy_inequality(circle, "sin(2*x1)")
    assert res.value_direct == pytest.approx(-math.pi / 3, abs=1e-8)
    assert res.route_agreement < 1e-6
    assert res.value_direct <= 1e-10


def test_energy_inequality_on_random_admissible_data(circle):
    rng = np.random.default_rng(31)
    cmat = _constraint_matrix(circle, 8)
    for _ in range(30):
        f = random_admissible_profile_function(circle, rng, 8, cmat)
        res = boundary_energy_inequality(circle, f)
        assert res.value_direct <= 1e-10
        assert res.route_agreement < 1e-6


def test_energy_nonpositive_on_noncircular_profile():
    prof = BoundaryProfile.from_theta("1 + 0.25*cos(3*x1)")
    rng = np.random.default_rng(17)
    cmat = _constraint_matrix(prof, 6)
    for _ in range(10):
        f = random_admissible_profile_function(prof, rng, 6, cmat)
        res = boundary_energy_inequality(prof, f)
        assert res.value_direct <= 1e-10
        assert res.route_agreement < 1e-6


def _assert_same_bits(a, b):
    assert type(a) is type(b)
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if dataclasses.is_dataclass(x):
            _assert_same_bits(x, y)
        else:
            assert np.asarray(x).tobytes() == np.asarray(y).tobytes(), \
                field.name


@pytest.mark.parametrize("source", ["expression", "csv"])
def test_energy_chain_reuses_uv_and_reference_curve(tmp_path, source):
    kg = "1 + 0.3*cos(2*x1)"
    if source == "csv":
        theta = TWO_PI * np.arange(64) / 64
        path = tmp_path / "kg.csv"
        path.write_text("theta,kg\n" + "".join(
            f"{float(t)!r},{float(1 + 0.3 * np.cos(2 * t))!r}\n"
            for t in theta))
        prof = BoundaryProfile.from_csv(str(path))
    else:
        prof = BoundaryProfile.from_theta(kg)
    f = "0.8*sin(2*x1)"
    energy = boundary_energy_inequality(prof, f)
    _assert_same_bits(energy.uv, uv_functions(prof, f))
    _assert_same_bits(energy.uv.curve, reference_curve(prof))
    assert np.array_equal(energy.uv.curve.kg, prof.kg_theta)
    assert np.array(energy.uv.admissibility).tobytes() == \
        np.array(admissibility_residuals(prof, f)).tobytes()


def test_inadmissible_error_carries_the_admissibility_residuals():
    prof = BoundaryProfile.from_theta("1 + 0.3*cos(2*x1)")
    f = "0.4 + 0.8*sin(2*x1)"
    with pytest.raises(InadmissibleError) as err:
        uv_functions(prof, f)
    residuals = tuple(err.value.residuals.values())
    assert np.array(residuals).tobytes() == \
        np.array(admissibility_residuals(prof, f)).tobytes()
    assert max(map(abs, residuals)) > boundary.ADMISSIBLE_TOL


def test_projection_is_idempotent(circle):
    rng = np.random.default_rng(3)
    cmat = _constraint_matrix(circle, 8)
    raw = rng.standard_normal(17)
    once = project_to_admissible(circle, raw, cmat)
    twice = project_to_admissible(circle, once, cmat)
    assert np.max(np.abs(once - twice)) < 1e-12
    f = trig_polynomial(once)
    assert max(abs(r) for r in admissibility_residuals(circle, f)) < 1e-10


# -- closure conditions and the boundary lemma ---------------------------------

def test_dong_conditions_unit_circle(circle):
    rep = dong_conditions(circle)
    assert rep.turning_residual < 1e-12
    assert rep.closure_residual < 1e-12
    assert rep.min_curvature_flux is None
    assert rep.all_hold()


def test_dong_conditions_fail_for_wrong_turning():
    prof = BoundaryProfile.from_arclength(2.0, TWO_PI)
    rep = dong_conditions(prof)
    assert not rep.turning_ok
    assert rep.turning_residual == pytest.approx(TWO_PI)


def test_dong_conditions_quartic_cap():
    rep = dong_conditions(geodesic_boundary_chart(
        sf.quartic_cap_polar(), (1, "hi"), depth=0.1, n_s=64, n_t=64))
    assert rep.turning_residual < 1e-6
    assert rep.closure_residual < 1e-6
    assert rep.min_curvature_flux > 0
    assert rep.all_hold()


def test_lemma_hh_on_quartic_cap():
    rep = lemma_hh_check((sf.quartic_cap_polar(), (1, "hi")),
                         depth=0.1, n_s=32, n_t=64)
    assert rep.max_l < 1e-6
    assert rep.max_m < 1e-6
    assert rep.n_residual < 1e-4
    assert rep.lt_residual < 1e-4
    assert rep.k_t == pytest.approx(np.full(32, 64.0), abs=1e-3)
    assert rep.b_t == pytest.approx(np.full(32, 1.0), abs=1e-6)


def test_lemma_hh_preconditions():
    with pytest.raises(BoundaryError, match="curvature-flat"):
        lemma_hh_check((sf.spherical_cap(0.0, 1.2), (1, "lo")), depth=0.3)
    with pytest.raises(BoundaryError, match="K_t vanishes"):
        lemma_hh_check((sf.flat_disk_polar(), (1, "hi")), depth=0.3)


def test_profile_from_csv_samples(tmp_path):
    n = 64
    theta = TWO_PI * np.arange(n) / n
    path = tmp_path / "profile.csv"
    rows = "\n".join(f"{float(t)!r},{float(1 + 0.3 * np.cos(2 * t))!r}" for t in theta)
    path.write_text("theta,kg\n" + rows + "\n")
    prof = BoundaryProfile.from_csv(str(path))
    curve = reference_curve(prof)
    assert curve.closure_gap < 1e-8

    s_path = tmp_path / "profile_s.csv"
    s_vals = TWO_PI * np.arange(n) / n
    rows = "\n".join(f"{float(s)!r},2.0" for s in s_vals)
    s_path.write_text("s,kg\n" + rows + "\n")
    prof_s = BoundaryProfile.from_csv(str(s_path))
    assert prof_s.total_turning == pytest.approx(4 * math.pi)

    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n0,1\n")
    with pytest.raises(BoundaryError):
        BoundaryProfile.from_csv(str(bad))


def test_profile_from_chart_flips_to_classical_sign():
    chart = geodesic_boundary_chart(sf.flat_disk_polar(), (1, "hi"),
                                    depth=0.4, n_s=32, n_t=16)
    prof = BoundaryProfile.from_chart(chart)
    assert prof.total_turning == pytest.approx(TWO_PI, abs=1e-9)
    assert np.max(np.abs(prof.kg_theta - 1.0)) < 1e-9


def _exact_turning(kg_samples, length, s):
    """theta(s): the integral from 0 to s of the trigonometric interpolant
    of uniform k_g samples over [0, length), mode by mode."""
    m = kg_samples.size
    coeffs = np.fft.rfft(kg_samples) / m
    omega = TWO_PI / length
    theta = coeffs[0].real * s
    for k in range(1, coeffs.size):
        weight = 1.0 if (m % 2 == 0 and k == m // 2) else 2.0
        a, b = weight * coeffs[k].real, -weight * coeffs[k].imag
        theta = theta + (a * np.sin(k * omega * s)
                         - b * (np.cos(k * omega * s) - 1.0)) / (k * omega)
    return theta


def test_sampled_arclength_profiles_invert_on_twice_their_samples(
        monkeypatch, tmp_path):
    inverted = boundary.invert_antiderivative
    sample_counts = []

    def counted(density, period, count, samples):
        sample_counts.append(samples)
        return inverted(density, period, count, samples)

    monkeypatch.setattr(boundary, "invert_antiderivative", counted)
    # the edge x2 = 1 is the ellipse (2 cos x1, sin x1, 0)
    cap = Immersion("elliptic_cap", 2, tuple(
        parse_expression(c, 2)
        for c in ("2*x2*cos(x1)", "x2*sin(x1)", "(1 - x2^2)^2")),
        ((0.0, TWO_PI), (0.2, 1.0)), (True, False))
    chart = geodesic_boundary_chart(cap, (1, "hi"), depth=0.05,
                                    n_s=64, n_t=4)
    length = 1.3 * TWO_PI
    s = length * np.arange(512) / 512
    kg = 1.0 / (1.0 + 0.3 * np.cos(s / 1.3) + 0.1 * np.sin(4 * s / 1.3))
    path = tmp_path / "profile_s.csv"
    path.write_text("s,kg\n" + "".join(
        f"{float(a)!r},{float(b)!r}\n" for a, b in zip(s, kg)))

    for build, samples in ((lambda: BoundaryProfile.from_chart(chart),
                            -chart.kg),
                           (lambda: BoundaryProfile.from_csv(str(path)), kg)):
        sample_counts.clear()
        prof = build()
        assert sample_counts == [2 * samples.size]
        full, _ = inverted(
            lambda x: trig_interpolate(samples, prof.length, x),
            prof.length, prof.theta.size, 2048)
        assert np.max(np.abs(prof.s_of_theta - full)) < 1e-13
        theta = _exact_turning(samples, prof.length, prof.s_of_theta)
        assert np.max(np.abs(theta - prof.theta)) < 1e-12
