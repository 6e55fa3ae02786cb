import contextlib
import hashlib
import importlib.resources
import io
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidlab import boundary, cli, darboux, flex, pairs, quadrature
from rigidlab import surfaces as sf
from rigidlab.geometry import geodesic_boundary_chart
from rigidlab.linalg import null_space, numerical_rank, singular_values
from rigidlab.quadrature import (gauss_legendre, gauss_legendre_nodes,
                                 periodic_trapezoid, rk4_path,
                                 trig_interpolate, trig_resample)
from rigidlab.report import CheckEntry, Report


# -- quadrature ----------------------------------------------------------------

def test_periodic_trapezoid_sin_squared():
    theta = 2 * np.pi * np.arange(64) / 64
    assert periodic_trapezoid(np.sin(theta) ** 2) == pytest.approx(
        np.pi, abs=1e-12)


def test_periodic_trapezoid_sin4_cos2():
    theta = 2 * np.pi * np.arange(64) / 64
    val = periodic_trapezoid(np.sin(theta) ** 4 * np.cos(theta) ** 2)
    assert val == pytest.approx(np.pi / 8, abs=1e-10)


def test_gauss_legendre_cubic_exact_with_two_nodes():
    val = gauss_legendre(lambda x: x ** 3, 0.0, 1.0, cells=1, nodes=2)
    assert val == pytest.approx(0.25, abs=1e-15)


def test_gauss_legendre_nodes_weights_sum():
    x, w = gauss_legendre_nodes(-1.0, 3.0, cells=4, nodes=8)
    assert w.sum() == pytest.approx(4.0)
    assert x.min() > -1.0 and x.max() < 3.0


def test_rk4_convergence_on_oscillator():
    def rhs(t, y):
        return np.array([y[1], -y[0]])

    _, path = rk4_path(rhs, np.array([1.0, 0.0]), 0.0, 2 * np.pi, 512)
    assert path[-1] == pytest.approx(np.array([1.0, 0.0]), abs=1e-8)


def _per_mode_sum(samples, phase):
    """The trigonometric interpolant summed one mode at a time: mode 0 and
    the unpaired Nyquist mode of an even count once, every other mode
    twice; ``phase(k)`` is mode k's phase at the points."""
    m = samples.size
    spectrum = np.fft.rfft(samples) / m
    result = np.full(np.shape(phase(0)), spectrum[0].real)
    for k in range(1, spectrum.size):
        weight = 1.0 if (m % 2 == 0 and k == m // 2) else 2.0
        result = result + weight * (spectrum[k].real * np.cos(phase(k))
                                    - spectrum[k].imag * np.sin(phase(k)))
    return result


@pytest.mark.parametrize("m", [4, 5, 64, 65, 4096])
@pytest.mark.parametrize("shape", [(), (3001,), (7, 13)])
def test_trig_interpolate_matches_the_per_mode_sum(m, shape):
    rng = np.random.default_rng(m)
    samples = rng.standard_normal(m)
    period = 2.5
    points = rng.uniform(-period, 2 * period, shape)
    # below 2049 modes, 3001 points fill no whole number of blocks
    want = _per_mode_sum(samples, lambda k: 2 * np.pi * k * points / period)
    got = trig_interpolate(samples, period, points)
    assert got.shape == want.shape == shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # white noise has no rounding tail: no mode is dropped
    assert quadrature._kept_modes(samples).size == m // 2 + 1


@pytest.mark.parametrize("m", [64, 4095, 4096, 6001, 8192])
def test_trig_resample_is_the_interpolant_at_uniform_nodes(m):
    # below, at and above the turning-angle sample count, odd and even;
    # the oracle reduces each phase k x_j exactly, since a phase of size
    # 2 pi k rounds to about k ulp(2 pi), which at white-noise samples
    # moves point evaluation by 3e-12 at 4096 samples
    count = boundary.THETA_SAMPLES
    samples = np.random.default_rng(m).standard_normal(m)
    nodes = np.arange(count)
    want = _per_mode_sum(samples,
                         lambda k: 2 * np.pi * (k * nodes % count) / count)
    got = trig_resample(samples, count)
    assert got.shape == (count,)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    at_nodes = trig_interpolate(samples, 2 * np.pi, 2 * np.pi * nodes / count)
    assert np.max(np.abs(got - at_nodes)) <= 1e-11 * np.max(np.abs(want))


def test_trig_interpolate_is_batch_invariant(assert_batch_invariant):
    samples = np.random.default_rng(3).standard_normal(64)
    points = np.random.default_rng(4).uniform(0.0, 2 * np.pi, 5000)
    assert_batch_invariant(
        lambda pts: trig_interpolate(samples, 2 * np.pi, pts), points)


def _quartic_cap_interpolants(monkeypatch):
    """(samples, period) of every trig_interpolate call that the quartic
    cap's boundary chart and its profile make, in call order."""
    calls, interpolate = [], quadrature.trig_interpolate

    def spy(samples, period, points):
        calls.append((samples, period))
        return interpolate(samples, period, points)

    monkeypatch.setattr(quadrature, "trig_interpolate", spy)
    monkeypatch.setattr(boundary, "trig_interpolate", spy)
    chart = geodesic_boundary_chart(sf.quartic_cap_polar(), (1, "hi"), 0.1)
    boundary.BoundaryProfile.from_chart(chart)
    monkeypatch.undo()
    return calls


def test_trig_interpolate_drops_the_rounding_tail_of_chart_profiles(
        monkeypatch):
    calls = _quartic_cap_interpolants(monkeypatch)
    kept = [(samples.size, quadrature._kept_modes(samples).size)
            for samples, _ in calls]
    # three Newton steps of the speed inversion (the periodic part of the
    # arclength of 4096 speed samples: rounding only, as the boundary
    # circle has unit speed), then the k_g profile: its 64 curvature
    # samples as density, and the periodic part of its antiderivative on
    # 128 samples, three times each, and k_g once more at the nodes
    assert kept[:3] == [(4096, 1)] * 3
    assert sorted(set(kept[3:])) == [(64, 26), (128, 1)]


def test_trig_interpolate_moves_no_value_beyond_a_rounding_unit(
        monkeypatch):
    # the k_g density of the quartic cap's profile, 26 of its 33 modes kept
    samples, period = _quartic_cap_interpolants(monkeypatch)[3]
    m = samples.size
    k = np.arange(m // 2 + 1)
    coef = np.where((k == 0) | (2 * k == m), 1.0, 2.0) * np.fft.rfft(
        samples) / m
    points = np.random.default_rng(6).uniform(0.0, period, 4096)
    phase = np.multiply.outer(points, 2 * np.pi * k) / period
    untruncated = (np.einsum("pk,k->p", np.cos(phase), coef.real)
                   - np.einsum("pk,k->p", np.sin(phase), coef.imag))
    got = trig_interpolate(samples, period, points)
    assert quadrature._kept_modes(samples).size == 26
    assert np.max(np.abs(got - untruncated)) <= (
        np.finfo(float).eps * np.sum(np.abs(coef)))


def test_truncated_trig_interpolate_is_batch_invariant(monkeypatch,
                                                       assert_batch_invariant):
    samples, period = _quartic_cap_interpolants(monkeypatch)[3]
    points = np.random.default_rng(7).uniform(0.0, period, 5000)
    assert_batch_invariant(
        lambda pts: trig_interpolate(samples, period, pts), points)


def test_trig_interpolate_working_set_is_bounded():
    # 4096 modes at 4096 points: one (points x modes) array would be 134 MB
    samples = np.random.default_rng(5).standard_normal(8191)
    points = np.linspace(0.0, 2 * np.pi, 4096)
    tracemalloc.start()
    try:
        trig_interpolate(samples, 2 * np.pi, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


# -- linear algebra --------------------------------------------------------------

def test_svd_identity():
    assert singular_values(np.eye(3)) == pytest.approx(np.ones(3))
    assert null_space(np.eye(3)).shape == (0, 3)


def test_svd_rank_one_detection():
    mat = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert singular_values(mat) == pytest.approx(np.array([2.0, 0.0]),
                                                 abs=1e-14)
    assert numerical_rank(mat, rel_tol=1e-8) == 1
    assert null_space(mat, rel_tol=1e-8).shape == (1, 2)


def test_singular_values_descending():
    rng = np.random.default_rng(0)
    mat = rng.standard_normal((50, 30))
    s = singular_values(mat)
    assert s.shape == (30,)
    assert np.all(np.diff(s) <= 0)
    assert np.linalg.norm(s) == pytest.approx(np.linalg.norm(mat), rel=1e-12)


def _full_svd_null_space(mat, rel_tol=1e-10):
    """The null space from the full SVD (m x m left factor included)."""
    _, s, vt = scipy.linalg.svd(mat, full_matrices=True)
    rank = int(np.sum(s > rel_tol * s[0])) if s.size and s[0] > 0 else 0
    return vt[rank:]


@pytest.mark.parametrize("rows, cols, rank", [
    (400, 15, 11), (12, 12, 7), (5, 12, 5), (3, 9, 1), (20, 6, 6)])
def test_null_space_matches_the_full_svd(rows, cols, rank):
    rng = np.random.default_rng(rows * cols + rank)
    mat = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    basis, full = null_space(mat), _full_svd_null_space(mat)
    assert basis.shape == full.shape == (cols - rank, cols)
    assert np.max(np.abs(basis.T @ basis - full.T @ full)) < 1e-12


def test_svd_rejects_non_finite():
    for routine in (singular_values, numerical_rank, null_space):
        with pytest.raises(ValueError, match="non-finite"):
            routine(np.array([[1.0, np.nan]]))


# -- report ----------------------------------------------------------------------

def test_residual_entry_verdicts():
    ok = CheckEntry.residual("a", 1e-12, 1e-8, "m", "claim")
    bad = CheckEntry.residual("b", 1e-3, 1e-8, "m", "claim")
    skipped = CheckEntry.residual("c", 0.0, 1e-8, "m", "claim", skip=True)
    assert (ok.verdict, bad.verdict, skipped.verdict) == \
        ("pass", "fail", "skip")


def test_indeterminate_reserved_for_kernel_checks():
    with pytest.raises(ValueError):
        CheckEntry(name="x", kind="identity", value=0.0, tolerance=1.0,
                   verdict="indeterminate", module="m", claim="c")


def test_report_exit_codes():
    rep = Report(command="t", seed=0)
    rep.add(CheckEntry.residual("a", 0.0, 1.0, "m", "c"))
    assert rep.exit_code() == 0
    rep.add(CheckEntry(name="k", kind="kernel", value=1.0, tolerance=None,
                       verdict="indeterminate", module="m", claim="c"))
    assert rep.exit_code() == 3
    rep.add(CheckEntry.residual("b", 2.0, 1.0, "m", "c"))
    assert rep.exit_code() == 2


def test_report_json_is_canonical():
    rep = Report(command="t", seed=0, inputs={"b": 1, "a": 2})
    rep.add(CheckEntry.residual("a", 1e-12, 1e-8, "m", "claim", extra=3.0))
    text = rep.to_json()
    assert json.loads(text)["summary"]["pass"] == 1
    assert text == Report(command="t", seed=0,
                          inputs={"a": 2, "b": 1},
                          entries=list(rep.entries)).to_json()


# -- CLI --------------------------------------------------------------------------

def test_cli_catalog_ok(capsys):
    assert cli.main(["catalog"]) == 0
    assert "catalog-sphere" in capsys.readouterr().out


def test_cli_check_surface_catalog_name(tmp_path, capsys):
    report = tmp_path / "out.json"
    code = cli.main(["check-surface", "sphere", "--points", "60",
                     "--report", str(report)])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["schema"] == "rigidlab-report/1"
    assert all(c["verdict"] in ("pass", "skip") for c in data["checks"])


def test_cli_check_surface_from_file(tmp_path, capsys):
    surf = {"name": "tilted_plane", "dim": 2,
            "components": ["x1", "x2", "0.5*x1 + 1"],
            "domain": [[-1, 1], [-1, 1]], "periodic": [False, False]}
    path = tmp_path / "surf.json"
    path.write_text(json.dumps(surf))
    assert cli.main(["check-surface", str(path), "--points", "40"]) == 0
    # x1 inside 5000 parentheses, past the recursion limit
    surf["components"][0] = "(" * 5000 + "x1" + ")" * 5000
    path.write_text(json.dumps(surf))
    assert cli.main(["check-surface", str(path), "--points", "40"]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_cli_pair_check(tmp_path):
    pair = {"surfaces": [
        "cylinder",
        {"name": "half_cylinder_wide", "dim": 2,
         "components": ["2.0*cos(x1/2.0)", "2.0*sin(x1/2.0)", "x2"],
         "domain": [[0.0, 2 * math.pi], [-1.0, 1.0]],
         "periodic": [False, False]}],
        "tolerance": 1e-10}
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(pair))
    assert cli.main(["pair-check", str(path), "--points", "50"]) == 0


def test_cli_pair_check_packaged_example(tmp_path):
    path = importlib.resources.files("rigidlab") / "data" / \
        "flat_cylinder_pair.json"
    report = tmp_path / "pair.json"
    assert cli.main(["pair-check", str(path), "--points", "50",
                     "--report", str(report)]) == 0
    checks = json.loads(report.read_text())["checks"]
    assert checks and all(c["verdict"] == "pass" for c in checks)


def _count_calls(monkeypatch, module, name, owners):
    """Wrap ``module.name`` (and the references ``owners`` hold) so that
    the returned list records one entry per call."""
    calls, original = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for owner in (module, *owners):
        monkeypatch.setattr(owner, name, counted)
    return calls


def test_cli_builds_support_and_difference_data_once(tmp_path, monkeypatch):
    support = _count_calls(monkeypatch, darboux, "support_at", [pairs])
    difference = _count_calls(monkeypatch, pairs, "difference_tensors", [])
    path = importlib.resources.files("rigidlab") / "data" / \
        "flat_cylinder_pair.json"
    assert cli.main(["pair-check", str(path), "--points", "100",
                     "--report", str(tmp_path / "pair.json")]) == 0
    assert (len(difference), len(support)) == (1, 2)
    support.clear()
    assert cli.main(["check-surface", "ellipsoid", "--points", "100",
                     "--report", str(tmp_path / "surface.json")]) == 0
    assert len(support) == 1


def test_package_sources_are_ascii():
    src = importlib.resources.files("rigidlab")
    for path in sorted(src.iterdir()):
        if path.name.endswith(".py"):
            assert path.read_bytes().isascii(), path.name


def test_cli_pointwise_gauss_exit_codes():
    assert cli.main(["pointwise-gauss", "--h", "1,2,3", "--dim", "3"]) == 0
    assert cli.main(["pointwise-gauss", "--h", "1,1,0", "--dim", "3"]) == 2


def test_cli_pointwise_gauss_h_file(tmp_path):
    path = tmp_path / "h.json"
    path.write_text(json.dumps(
        {"h": [[5.0, 0, 0, 0], [0, -3.0, 0, 0], [0, 0, 2.0, 0],
               [0, 0, 0, 0.0]]}))
    assert cli.main(["pointwise-gauss", "--h-file", str(path)]) == 0
    assert cli.main(["pointwise-gauss", "--h-file", str(path),
                     "--dim", "4"]) == 0
    assert cli.main(["pointwise-gauss", "--h", "1,2", "--dim", "3"]) == 64


def test_cli_flex_kernel_small(tmp_path):
    report = tmp_path / "flex.json"
    code = cli.main(["flex-kernel", "plane", "--grid", "12x12",
                     "--report", str(report), "--csv-dir", str(tmp_path)])
    assert code == 0
    data = json.loads(report.read_text())
    kernel = [c for c in data["checks"] if c["kind"] == "kernel"][0]
    assert kernel["value"] == 12 * 12 + 3
    assert (tmp_path / "singular_values.csv").exists()


@pytest.mark.parametrize("surface, grid, route, shape",
                         [("plane", "12x12", "dense", [432, 432]),
                          # two pole rings of 3 x 16 unknowns keep 9 each
                          ("sphere", "16x8", "sector", [384, 306])])
def test_cli_flex_kernel_reports_its_route(tmp_path, surface, grid, route,
                                           shape):
    report = tmp_path / "flex.json"
    code = cli.main(["flex-kernel", surface, "--grid", grid,
                     "--report", str(report), "--csv-dir", str(tmp_path)])
    assert code == 0
    kernel = [c for c in json.loads(report.read_text())["checks"]
              if c["kind"] == "kernel"][0]
    assert kernel["metadata"]["route"] == route
    assert kernel["metadata"]["operator_shape"] == shape
    assert kernel["metadata"]["unknowns"] == shape[1]
    # the full spectrum: one singular value per unknown
    rows = (tmp_path / "singular_values.csv").read_text().splitlines()
    assert len(rows) == 1 + shape[1]


def test_cli_flex_kernel_deflated_csv_holds_only_resolved_values(tmp_path,
                                                                capsys):
    report = tmp_path / "flex.json"
    code = cli.main(["flex-kernel", "ellipsoid", "--grid", "16x8",
                     "--report", str(report), "--csv-dir", str(tmp_path)])
    assert code == 0
    kernel = [c for c in json.loads(report.read_text())["checks"]
              if c["kind"] == "kernel"][0]
    meta = kernel["metadata"]
    assert meta["route"] == "deflated"
    assert meta["rigidity_verdict"] == "certified-rigid"
    assert "sigma_7" in kernel["claim"]
    # sigma_7 and sigma_max at their ascending indices, nothing else
    rows = (tmp_path / "singular_values.csv").read_text().splitlines()
    assert rows == ["index,sigma",
                    f"6.0,{meta['next_sigma']!r}",
                    f"{float(meta['unknowns'] - 1)!r},{meta['sigma_max']!r}"]
    with pytest.raises(SystemExit):
        cli.main(["flex-kernel", "--help"])
    assert "deflated route" in " ".join(capsys.readouterr().out.split())


def test_cli_boundary_with_csv(tmp_path):
    code = cli.main(["boundary", "--kg", "1", "--f", "sin(2*x1)",
                     "--csv-dir", str(tmp_path)])
    assert code == 0
    header = (tmp_path / "boundary_series.csv").read_text().splitlines()[0]
    assert header == "theta,x1,x2,U,V"


@pytest.mark.parametrize("source", ["expression", "csv"])
def test_cli_boundary_series_is_the_reference_curve(tmp_path, source,
                                                    monkeypatch):
    kg = "1 + 0.3*cos(2*x1)"
    if source == "csv":
        theta = 2 * math.pi * np.arange(64) / 64
        path = tmp_path / "kg.csv"
        path.write_text("theta,kg\n" + "".join(
            f"{float(t)!r},{float(1 + 0.3 * np.cos(2 * t))!r}\n"
            for t in theta))
        kg = str(path)
        profile = boundary.BoundaryProfile.from_csv(kg)
    else:
        profile = boundary.BoundaryProfile.from_theta(kg)
    curve = boundary.reference_curve(profile)

    sampled = []
    as_theta_function = boundary._as_theta_function

    def counted_function(fn, name):
        samples = as_theta_function(fn, name)

        def counted(theta):
            sampled.append(name)
            return samples(theta)

        return counted

    monkeypatch.setattr(boundary, "_as_theta_function", counted_function)
    resampled = _count_calls(monkeypatch, boundary, "trig_resample", [])
    curves = _count_calls(monkeypatch, boundary, "reference_curve", [])
    admissibility = _count_calls(monkeypatch, boundary, "_sample_uv", [])
    # k_g once (the profile: the text sampled, the CSV samples resampled),
    # f twice (the ODE stage table and the chain), one curve and one set of
    # admissibility residuals: the chain's, or on inadmissible data the
    # refusal's residuals and the curve the chain never reached
    reads = (0, 1) if source == "csv" else (1, 0)
    for f, code in (("sin(2*x1)", 0), ("0.4 + sin(2*x1)", 2)):
        for calls in (sampled, resampled, curves, admissibility):
            calls.clear()
        assert cli.main(["boundary", "--kg", kg, "--f", f,
                         "--csv-dir", str(tmp_path)]) == code
        assert (sampled.count("k_g"), len(resampled)) == reads
        assert sampled.count("f") == 2
        assert (len(curves), len(admissibility)) == (1, 1)
    table = np.loadtxt(tmp_path / "boundary_series.csv", delimiter=",",
                       skiprows=1)
    for column, expected in zip(table.T[:3],
                                (curve.theta, curve.x1, curve.x2)):
        assert np.array_equal(column, expected)


def test_cli_boundary_inadmissible_fails():
    assert cli.main(["boundary", "--kg", "1", "--f", "1"]) == 2


def test_cli_boundary_reports_a_profile_that_turns_twice(tmp_path):
    # k_g = 2 over one arclength period of 2 pi turns by 4 pi: the turning
    # check fails, and the checks that read the profile as one closed curve
    # are skipped, with no energy chain and no boundary series
    path = tmp_path / "twice.csv"
    path.write_text("s,kg\n" + "".join(
        f"{2 * math.pi * k / 64!r},2.0\n" for k in range(64)))
    report = tmp_path / "twice.json"
    series = tmp_path / "series"
    assert cli.main(["boundary", "--kg", str(path), "--f", "sin(2*x1)",
                     "--report", str(report), "--csv-dir", str(series)]) == 2
    verdicts = {c["name"]: c["verdict"]
                for c in json.loads(report.read_text())["checks"]}
    assert verdicts == {
        "turning-angle": "fail", "tangent-loop-closure": "pass",
        "reference-curve-closure": "skip", "reference-curve-area": "skip",
        "ode-vs-closed-form": "pass", "admissibility": "skip"}
    assert not series.exists()


def test_cli_boundary_accepts_csv_profile(tmp_path):
    n = 64
    theta = 2 * math.pi * np.arange(n) / n
    rows = "\n".join(f"{float(t)!r},1.0" for t in theta)
    path = tmp_path / "kg.csv"
    path.write_text("theta,kg\n" + rows + "\n")
    assert cli.main(["boundary", "--kg", str(path), "--f", "sin(2*x1)"]) == 0


def test_cli_boundary_csv_report_is_independent_of_its_directory(tmp_path):
    n = 64
    theta = 2 * math.pi * np.arange(n) / n
    text = "theta,kg\n" + "\n".join(
        f"{float(t)!r},{float(1 + 0.2 * np.cos(2 * t))!r}" for t in theta)
    reports = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        path = tmp_path / sub / "kg.csv"
        path.write_text(text + "\n")
        reports.append(tmp_path / f"{sub}.json")
        assert cli.main(["boundary", "--kg", str(path), "--f", "sin(2*x1)",
                         "--report", str(reports[-1])]) == 0
    assert reports[0].read_bytes() == reports[1].read_bytes()
    inputs = json.loads(reports[0].read_text())["inputs"]
    assert inputs["kg"] == "kg.csv"
    assert inputs["kg_sha256"] == hashlib.sha256(
        (text + "\n").encode()).hexdigest()


def test_cli_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    argv = ["flex-kernel", "sphere", "--grid", "8x6"]
    assert cli.main(argv + ["--svd-tol", "0.5", "--report", str(first)]) in (
        0, 2, 3)
    assert json.loads(first.read_text())["inputs"]["svd_tol"] == 0.5
    capsys.readouterr()
    # a usage error after a good run: exit 64 and one stderr line
    assert cli.main(["flex-kernel", "sphere", "--grid", "8"]) == 64
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("rigidlab: bad grid")
    # neither option of the first run reaches the next ones
    first.unlink()
    cli.main(argv)
    assert not first.exists()
    cli.main(argv + ["--report", str(second)])
    assert json.loads(second.read_text())["inputs"]["svd_tol"] == 1e-8
    assert not first.exists()


def test_cli_boundary_compiles_a_sum_of_thousands_of_terms(capsys):
    # a left-deep tree 2000 operations deep, and sin(2*x1) inside 300
    # parentheses: both past the recursion limit
    for f in (" + ".join(["cos(x1)"] * 2000),
              "(" * 300 + "sin(2*x1)" + ")" * 300):
        assert cli.main(["boundary", "--kg", "1", "--f", f,
                         "--steps", "64"]) in (0, 2, 3)
        assert "Traceback" not in capsys.readouterr().err


def test_cli_usage_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"name": "x", "dim": 2}))
    text_row = tmp_path / "text_row.csv"
    text_row.write_text("s,kg\n0,1\n1,one\n2,1\n3,1\n")
    nan_h = tmp_path / "nan_h.json"
    nan_h.write_text('{"h": [[1, 0, 0], [0, NaN, 0], [0, 0, 1]]}')
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"surfaces": ["sphere", "sphere"]}))
    surface = {"name": "x", "dim": 2, "components": ["x1", "x2", "x3"],
               "domain": [[0, 1], [0, 1]], "periodic": [False, False]}
    bad_variable = tmp_path / "bad_variable.json"
    bad_variable.write_text(json.dumps(surface))
    bad_bound = tmp_path / "bad_bound.json"
    bad_bound.write_text(json.dumps({**surface, "domain": [["a", 1], [0, 1]]}))
    bad_domains = []
    for k, change in enumerate(({"domain": [[1, 0], [0, 1]]},
                                {"domain": [[0, math.inf], [0, 1]]},
                                {"dim": 3}, {"dim": 0, "domain": []})):
        bad_domains.append(tmp_path / f"bad_domain_{k}.json")
        bad_domains[-1].write_text(json.dumps({**surface, **change}))
    bad_fields = []
    for k, change in enumerate(({"periodic": "no"}, {"periodic": [1, 0]},
                                {"periodic": [True]},
                                {"closed_poles": "no"},
                                {"closed_poles": [True]},
                                {"closed_poles": [True, True, True]},
                                {"closed_poles": [1, 1]},
                                {"name": None}, {"name": 5}, {"dim": True},
                                {"dim": 2.0})):
        bad_fields.append(tmp_path / f"bad_fields_{k}.json")
        bad_fields[-1].write_text(json.dumps(
            {**surface, "components": ["x1", "x2", "0"], **change}))
    overflow = tmp_path / "overflow.json"        # positions past 1e308
    overflow.write_text(json.dumps(
        {**surface, "components": ["x1", "x2", "x1^100000000"],
         "domain": [[0, 2], [-1, 1]]}))
    overflow_x = tmp_path / "overflow_x.json"    # x1 component past 1e308
    overflow_x.write_text(json.dumps(
        {**surface, "components": ["x1^100000000", "x2", "0"],
         "domain": [[0, 2], [-1, 1]]}))
    # chart jets past 1e308, through check-surface and a pair of the chart
    # with itself: the message names the first point whose frame overflows
    non_finite = []
    for chart in (overflow, overflow_x):
        chart_pair = tmp_path / f"pair_{chart.name}"
        chart_pair.write_text(json.dumps({"surfaces": [str(chart)] * 2}))
        non_finite += [("check-surface", str(chart), "--points", "100"),
                       ("pair-check", str(chart_pair), "--points", "100")]
    steep = tmp_path / "steep.json"              # differences past 1e308
    steep.write_text(json.dumps(
        {**surface, "components": ["x1", "x2", "1e308*x1"],
         "domain": [[-1, 1], [-1, 1]]}))
    bad_component = tmp_path / "bad_component.json"
    bad_component.write_text(json.dumps({**surface,
                                         "components": [0, "x2", "0"]}))
    pair_files = []
    for k, spec in enumerate((
            {"surfaces": 5}, 5,
            {"surfaces": ["sphere", "sphere"], "tolerance": "abc"},
            {"surfaces": ["sphere", "sphere"], "tolerance": None})):
        pair_files.append(tmp_path / f"bad_pair_{k}.json")
        pair_files[-1].write_text(json.dumps(spec))
    scalar_h = tmp_path / "scalar_h.json"
    scalar_h.write_text('{"h": 5}')
    h4 = tmp_path / "h4.json"
    h4.write_text(json.dumps({"h": np.diag([1.0, 2.0, 3.0, 4.0]).tolist()}))
    nan_row = tmp_path / "nan_row.csv"
    nan_row.write_text("theta,kg\n" + "".join(
        f"{2 * math.pi * k / 8!r},{'nan' if k == 3 else '1.0'}\n"
        for k in range(8)))
    binary = {}
    for name in ("binary.json", "binary.csv"):
        binary[name] = tmp_path / name
        binary[name].write_bytes(b"\xff\xfe\x00\x81")
    binary_pair = tmp_path / "binary_pair.json"
    binary_pair.write_text(json.dumps(
        {"surfaces": ["sphere", str(binary["binary.json"])]}))
    # argv -> the file its message must name
    undecodable = {
        ("check-surface", str(binary["binary.json"])): "binary.json",
        ("pair-check", str(binary["binary.json"])): "binary.json",
        ("pair-check", str(binary_pair)): "binary.json",
        ("pointwise-gauss", "--h-file", str(binary["binary.json"])):
            "binary.json",
        ("boundary", "--kg", str(binary["binary.csv"])): "binary.csv"}
    # argv -> the text its message must contain
    names = {**undecodable, **dict.fromkeys(
        non_finite, "the chart position at (x1, x2) = (")}
    existing = tmp_path / "existing_file"
    existing.write_text("")
    for argv in (
            ["no-such-command"],
            ["check-surface", "missing.json"],
            ["flex-kernel", "plane", "--grid", "banana"],
            ["pointwise-gauss"],
            ["check-surface", str(bad)],
            ["boundary", "--kg", "cos(x1)"],                 # k_g <= 0
            ["check-surface", str(incomplete)],
            ["check-surface", str(bad_variable)],
            ["boundary", "--kg", str(text_row)],
            ["pointwise-gauss", "--h", "1,nan,2"],
            ["pointwise-gauss", "--h", "1,inf,2"],
            ["pointwise-gauss", "--h-file", str(nan_h)],
            ["check-surface", "sphere", "--points", "-1"],
            ["pair-check", str(pair), "--points", "0"],
            ["check-surface", "sphere", "--points", "0", "--grid", "0x0"],
            ["boundary", "--f", "sin("],
            ["boundary", "--kg", "log(x1)"],
            ["boundary", "--steps", "0"],
            ["flex-kernel", "sphere", "--grid", "0x0"],
            ["flex-kernel", "sphere", "--grid", "8x6", "--svd-tol", "nan"],
            ["flex-kernel", "sphere", "--grid", "8x6", "--svd-tol", "inf"],
            ["pointwise-gauss", "--h", "1,2,3", "--rank-tol", "nan"],
            ["pointwise-gauss", "--h", "1,2,3", "--rank-tol", "-1"],
            ["check-surface", "plane", "--grid", "1x-2"],
            *(["pair-check", str(path)] for path in pair_files),
            ["check-surface", str(bad_bound)],
            ["flex-kernel", str(bad_bound)],
            *(["check-surface", str(path)] for path in bad_domains),
            ["check-surface", str(bad_component)],
            *(["check-surface", str(path)] for path in bad_fields),
            *(["flex-kernel", str(path)] for path in bad_fields),
            ["flex-kernel", str(overflow), "--grid", "16x8"],
            ["flex-kernel", str(steep), "--grid", "16x8"],
            ["flex-kernel", str(bad_component)],
            ["pointwise-gauss", "--h-file", str(scalar_h)],
            ["pointwise-gauss", "--h-file", str(h4), "--dim", "3"],
            ["pointwise-gauss", "--h-file", str(h4), "--dim", "0"],
            ["pointwise-gauss", "--h", "1,2,3", "--dim", "-7"],
            ["boundary", "--kg", "1+0*exp(800*x1)"],         # NaN k_g
            ["boundary", "--kg", str(nan_row)],
            ["boundary", "--kg", "exp(800*x1)"],             # inf k_g
            ["boundary", "--f", "exp(800*x1)"],              # inf f
            ["boundary", "--steps", "100000000"],            # ~49 GiB
            ["check-surface", str(tmp_path)],                # a directory
            ["pair-check", str(tmp_path)],
            ["pointwise-gauss", "--h-file", str(tmp_path)],
            *map(list, undecodable),                        # not UTF-8
            *map(list, non_finite),
            ["boundary", "--csv-dir", str(existing)],
            ["flex-kernel", "sphere", "--grid", "8x6", "--csv-dir",
             str(existing)],
            ["boundary", "--report", str(tmp_path / "missing" / "r.json")]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(argv) == 64, argv
        assert not caught, (argv, [str(w.message) for w in caught])
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert len(captured.err.splitlines()) == 1, (argv, captured.err)
        assert names.get(tuple(argv), "") in captured.err, argv


def test_cli_refuses_an_oversized_flex_grid_before_its_mesh(monkeypatch,
                                                           capsys):
    def refused(*args, **kwargs):
        raise AssertionError("built a grid-sized array")

    monkeypatch.setattr(flex.np, "meshgrid", refused)
    monkeypatch.setattr(flex, "evaluate_jet", refused)
    assert cli.main(["flex-kernel", "sphere", "--grid", "100000x100000"]) \
        == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "rigidlab: the dense SVD or Fourier-sector spectrum of 30000000000 "
        "unknowns needs 360001440000000000 bytes, which exceeds the limit "
        f"{flex.MAX_SPECTRUM_BYTES}"]
    # a chart whose first axis does not turn once can only take the dense
    # SVD, so only that route is charged
    assert cli.main(["flex-kernel", "plane", "--grid", "400000x5"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "rigidlab: the dense SVD spectrum of 6000000 unknowns needs "
        "576000000000000 bytes, which exceeds the limit "
        f"{flex.MAX_SPECTRUM_BYTES}"]



def test_cli_refuses_too_many_points_before_drawing_one(tmp_path,
                                                        monkeypatch, capsys):
    import time

    def refused(*args, **kwargs):
        raise AssertionError("drew sample points")

    monkeypatch.setattr(cli.gm, "interior_points", refused)
    monkeypatch.setattr(cli.gm, "sample_grid", refused)
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"surfaces": ["sphere", "sphere"],
                                "tolerance": 1e-8}))
    for argv, message in (
            (["check-surface", "sphere", "--points", "100000000000"],
             "--points 100000000000 exceeds the limit"),
            (["pair-check", str(pair), "--points",
              str(cli.MAX_POINTS + 1)],
             f"--points {cli.MAX_POINTS + 1} exceeds the limit"),
            (["check-surface", "sphere", "--points", "10",
              "--grid", "100000x100000"],
             "--points 10 and --grid 100000x100000 give 10000000010 "
             "points, which exceeds the limit")):
        start = time.perf_counter()
        assert cli.main(argv) == 64, argv
        assert time.perf_counter() - start < 1.0, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"rigidlab: {message} {cli.MAX_POINTS}"]

_FUZZ_NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["0", "-0", "1e-8", "0.5", "1", "abc", ""]))
_FUZZ_TOLERANCE = st.one_of(
    st.floats(0.0, 1.0, exclude_max=True).map(repr), _FUZZ_NUMBER)
_FUZZ_EXPRESSION = st.one_of(
    st.builds("{:.3f} + {:.3f}*cos({}*x1)".format, st.floats(-1.0, 3.0),
              st.floats(-1.0, 1.0), st.integers(0, 4)),
    st.sampled_from(["x1", "log(x1)", "1/x1", "exp(800*x1)", "sin(", "x2"]),
    st.text(alphabet="x12+-*/^().e sincoglqrt", max_size=12))


def _fuzz_grid(longest):
    return st.builds("{}x{}".format, st.integers(4, 8),
                     st.integers(4, longest))


@st.composite
def _fuzz_argv(draw):
    """Cheap argv for every numeric CLI input: grids up to 8x8, at most 50
    points and 64 ODE steps."""
    kind = draw(st.sampled_from(["gauss", "boundary", "surface", "flex"]))
    if kind == "gauss":
        entries = st.one_of(st.floats(-3.0, 3.0).map(repr), _FUZZ_NUMBER)
        argv = ["pointwise-gauss",
                "--h", ",".join(draw(st.lists(entries, max_size=5))),
                "--rank-tol=" + draw(_FUZZ_TOLERANCE)]
    elif kind == "boundary":
        argv = ["boundary", "--kg", draw(_FUZZ_EXPRESSION),
                "--f", draw(_FUZZ_EXPRESSION),
                "--steps", str(draw(st.integers(-1, 64)))]
    elif kind == "surface":
        argv = ["check-surface",
                draw(st.sampled_from(["sphere", "saddle", "quartic_cap"])),
                "--points", str(draw(st.integers(-1, 50))),
                "--grid", draw(_fuzz_grid(8))]
    else:
        argv = ["flex-kernel",
                draw(st.sampled_from(["sphere", "plane", "saddle"])),
                "--grid", draw(_fuzz_grid(6)),
                "--svd-tol=" + draw(_FUZZ_TOLERANCE)]
    return argv + [f"--seed={draw(st.integers(-1, 3))}"]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_fuzz_argv())
def test_cli_fuzz_exits_with_a_code_never_a_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3, 64), (argv, code)
    assert "Traceback" not in err.getvalue(), argv


def _fresh_interpreter(*args):
    """Run ``python *args`` in a new process that imports the same rigidlab
    package as this one."""
    import os
    import subprocess
    import sys as _sys

    import rigidlab
    src = os.path.dirname(os.path.dirname(rigidlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([_sys.executable, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def test_module_entry_point():
    proc = _fresh_interpreter("-m", "rigidlab", "catalog")
    assert proc.returncode == 0
    assert "catalog-sphere" in proc.stdout


def test_cli_import_leaves_scipy_linalg_and_sparse_unloaded():
    proc = _fresh_interpreter("-c", (
        "import sys, rigidlab.cli\n"
        "print(sorted({'scipy.linalg', 'scipy.sparse'} & set(sys.modules)))"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_PACKAGED_PAIR = str(importlib.resources.files("rigidlab") / "data"
                    / "flat_cylinder_pair.json")


@pytest.mark.parametrize("argv", [
    ["catalog"],
    ["check-surface", "ellipsoid", "--points", "50", "--grid", "8x8"],
    ["pair-check", _PACKAGED_PAIR, "--points", "50"],
    ["pointwise-gauss", "--h", "1,2,3"],
    ["boundary", "--kg", "1 + 0.3*cos(2*x1)", "--f", "sin(2*x1)"],
    ["flex-kernel", "ellipsoid", "--grid", "16x8"],
], ids=lambda argv: argv[0])
def test_only_flex_kernel_loads_scipy_linalg_and_sparse(argv):
    loaded = (["scipy.linalg", "scipy.sparse"] if argv[0] == "flex-kernel"
              else [])
    proc = _fresh_interpreter("-c", (
        "import sys\n"
        "from rigidlab import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(code, sorted({'scipy.linalg', 'scipy.sparse'}"
        " & set(sys.modules)))"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"0 {loaded}"


@pytest.mark.parametrize("argv", [
    ["check-surface", "ellipsoid", "--points", "50", "--grid", "8x8"],
    ["pair-check", _PACKAGED_PAIR, "--points", "50"],
    ["flex-kernel", "ellipsoid", "--grid", "16x8"],     # deflated route
    ["pointwise-gauss", "--h", "1,2,3"],
    ["boundary", "--kg", "1 + 0.3*cos(2*x1)", "--f", "sin(2*x1)"],
    ["catalog"],
], ids=lambda argv: argv[0])
def test_cli_reports_are_byte_stable(tmp_path, argv):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        code = cli.main(argv + ["--seed", "7", "--report", str(target)])
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("surface, route", [("sphere", "sector"),
                                            ("ellipsoid", "deflated")])
def test_flex_kernel_without_an_openblas_thread_setter(tmp_path, monkeypatch,
                                                      surface, route):
    from rigidlab import linalg

    argv = ["flex-kernel", surface, "--grid", "16x8", "--report"]
    policy, fallback = tmp_path / "policy.json", tmp_path / "fallback.json"
    assert cli.main(argv + [str(policy)]) == 0
    # as on a BLAS that is not OpenBLAS, or a system without /proc: the
    # routes run at the caller's count, here the one thread they run at
    # under the policy, since this ellipsoid's bits change with the count
    with linalg._single_threaded_blas():
        monkeypatch.setattr(linalg, "_openblas_thread_setters", lambda: ())
        assert cli.main(argv + [str(fallback)]) == 0
    kernel = [c for c in json.loads(fallback.read_text())["checks"]
              if c["kind"] == "kernel"][0]
    assert kernel["metadata"]["route"] == route
    assert fallback.read_bytes() == policy.read_bytes()


def test_cli_pair_check_refuses_charts_that_are_not_surfaces(tmp_path,
                                                            capsys):
    chart = tmp_path / "graph3.json"
    chart.write_text(json.dumps({
        "name": "graph3", "dim": 3,
        "components": ["x1", "x2", "x3", "x1^2 + 2*x2^2 + 3*x3^2"],
        "domain": [[-0.5, 0.5]] * 3, "periodic": [False] * 3}))
    pair = tmp_path / "pair3.json"
    pair.write_text(json.dumps({"surfaces": [str(chart)] * 2}))
    assert cli.main(["pair-check", str(pair)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "rigidlab: pair-check needs surface charts (dim 2), got dims 3 and 3"]


def _chart_file(tmp_path, components):
    path = tmp_path / "chart.json"
    path.write_text(json.dumps({
        "name": "bad", "dim": 2, "components": components,
        "domain": [[0.0, 1.0], [0.0, 1.0]], "periodic": [False, False]}))
    return str(path)


@pytest.mark.parametrize("argv, message", [
    (["check-surface", ["x1", "x2", "x1^\u00b2"]],
     "rigidlab: non-decimal digit '\u00b2' (offset 4)"),
    (["check-surface", ["x1", "x2", "x\u00b2"]],
     "rigidlab: non-decimal digit '\u00b2' (offset 2)"),
    (["boundary", "--kg", "x\u00b2"],
     "rigidlab: non-decimal digit '\u00b2' (offset 2)"),
    (["flex-kernel", ["0", "0", "0"], "--grid", "8x8"],
     "rigidlab: immersion bad: degenerate discrete metric at grid node "
     "(0, 0), (x1, x2) = (0.0, 0.0): det g = 0.000e+00"),
    (["flex-kernel", ["x1", "0", "0"], "--grid", "8x8"],
     "rigidlab: immersion bad: degenerate discrete metric at grid node "
     "(0, 0), (x1, x2) = (0.0, 0.0): det g = 0.000e+00"),
    (["flex-kernel", ["x1+x2", "x1+x2", "0"], "--grid", "8x8"],
     "rigidlab: immersion bad: degenerate discrete metric at grid node "
     "(0, 0), (x1, x2) = (0.0, 0.0): det g = 0.000e+00"),
], ids=["superscript-exponent", "superscript-variable",
        "boundary-superscript-variable", "flex-zero-chart",
        "flex-line-chart", "flex-diagonal-line-chart"])
def test_cli_refuses_non_decimal_digits_and_degenerate_flex_metrics(
        tmp_path, capsys, argv, message):
    argv = [_chart_file(tmp_path, arg) if isinstance(arg, list) else arg
            for arg in argv]
    assert cli.main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message]


def test_cli_csv_dir_is_an_option_of_the_commands_that_write_csv(tmp_path,
                                                                capsys):
    csv_dir = tmp_path / "csv"
    for argv in (["check-surface", "sphere"], ["pair-check", _PACKAGED_PAIR],
                 ["pointwise-gauss", "--h", "1,2,3"], ["catalog"]):
        assert cli.main(argv + ["--csv-dir", str(csv_dir)]) == 64, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert len(captured.err.splitlines()) == 1, (argv, captured.err)
        assert "--csv-dir" in captured.err, argv
    assert not csv_dir.exists()
    assert cli.main(["flex-kernel", "plane", "--grid", "6x6",
                     "--csv-dir", str(csv_dir)]) == 0
    assert cli.main(["boundary", "--f", "sin(2*x1)",
                     "--csv-dir", str(csv_dir)]) == 0
    assert sorted(p.name for p in csv_dir.iterdir()) == [
        "boundary_series.csv", "singular_values.csv"]


def _similar_chart(immersion, scale, rotation, translation):
    """The chart x -> scale Q x + b, written out as expressions."""
    spec = sf.surface_to_dict(immersion)
    comps = spec["components"]
    spec["components"] = [
        " + ".join([repr(float(b))] + [f"({scale * qa!r})*({c})"
                                       for qa, c in zip(row, comps)])
        for row, b in zip(rotation.tolist(), translation)]
    return spec


def _check_surface_outcome(tmp_path, spec):
    chart, report = tmp_path / "chart.json", tmp_path / "report.json"
    chart.write_text(json.dumps(spec))
    code = cli.main(["check-surface", str(chart), "--points", "50",
                     "--grid", "16x16", "--report", str(report)])
    return code, [(c["name"], c["verdict"],
                   c["metadata"].get("skipped_points"))
                  for c in json.loads(report.read_text())["checks"]]


@pytest.mark.parametrize("name", sf.catalog_names())
def test_check_surface_verdicts_are_invariant_under_similarities(tmp_path,
                                                                 name):
    immersion = sf.load_surface(name)
    base = _check_surface_outcome(
        tmp_path, _similar_chart(immersion, 1.0, np.eye(3), np.zeros(3)))
    assert base[0] == 0
    rng = np.random.default_rng(11)
    for scale in (0.1, 0.5, 2.0, 10.0):
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q = q * np.sign(np.diag(r))
        q[:, 0] *= np.sign(np.linalg.det(q))
        # a translation b moves the support, mu -> mu + b . n, so it keeps
        # the support-degenerate points only where it is tangent: the plane
        # (mu = 0 everywhere) moves within its plane, and the saddle (mu = 0
        # on its diagonals, where the grid samples) is not translated
        direction = rng.standard_normal(3)
        if name == "plane":
            direction[2] = 0.0
        length = 0.0 if name == "saddle" else 0.1 * scale * rng.uniform()
        b = q @ (length * direction / np.linalg.norm(direction))
        moved = _check_surface_outcome(
            tmp_path, _similar_chart(immersion, scale, q, b))
        assert moved == base, (scale, moved)
