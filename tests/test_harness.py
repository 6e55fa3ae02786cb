import contextlib
import hashlib
import importlib.resources
import io
import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidlab import boundary, cli, darboux, flex, pairs
from rigidlab.linalg import null_space, numerical_rank, singular_values
from rigidlab.quadrature import (gauss_legendre, gauss_legendre_nodes,
                                 periodic_trapezoid, rk4_path)
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
    for routine in (singular_values, null_space):
        with pytest.raises(ValueError):
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


def test_cli_check_surface_from_file(tmp_path):
    surf = {"name": "tilted_plane", "dim": 2,
            "components": ["x1", "x2", "0.5*x1 + 1"],
            "domain": [[-1, 1], [-1, 1]], "periodic": [False, False]}
    path = tmp_path / "surf.json"
    path.write_text(json.dumps(surf))
    assert cli.main(["check-surface", str(path), "--points", "40"]) == 0


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
    curves = _count_calls(monkeypatch, boundary, "reference_curve", [])
    admissibility = _count_calls(monkeypatch, boundary, "_sample_uv", [])
    # k_g once (the profile), f twice (the ODE stage table and the chain),
    # one curve and one set of admissibility residuals: the chain's, or on
    # inadmissible data the refusal's residuals and the curve the chain
    # never reached
    for f, code in (("sin(2*x1)", 0), ("0.4 + sin(2*x1)", 2)):
        for calls in (sampled, curves, admissibility):
            calls.clear()
        assert cli.main(["boundary", "--kg", kg, "--f", f,
                         "--csv-dir", str(tmp_path)]) == code
        assert (sampled.count("k_g"), sampled.count("f")) == (1, 2)
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
            ["boundary", "--csv-dir", str(existing)],
            ["flex-kernel", "sphere", "--grid", "8x6", "--csv-dir",
             str(existing)],
            ["boundary", "--report", str(tmp_path / "missing" / "r.json")]):
        assert cli.main(argv) == 64, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert len(captured.err.splitlines()) == 1, (argv, captured.err)
        assert undecodable.get(tuple(argv), "") in captured.err, argv


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


def test_module_entry_point():
    import os
    import subprocess
    import sys as _sys

    import rigidlab
    # the child imports the same package as this process
    src = os.path.dirname(os.path.dirname(rigidlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([_sys.executable, "-m", "rigidlab", "catalog"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "catalog-sphere" in proc.stdout


_PACKAGED_PAIR = str(importlib.resources.files("rigidlab") / "data"
                    / "flat_cylinder_pair.json")


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
