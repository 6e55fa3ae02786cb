"""Point blocks: the pointwise suites run on POINT_BLOCK-point slices and
must give the bits of one pass over the whole batch."""

import importlib.resources
import tracemalloc

import numpy as np
import pytest

from rigidlab import cli, geometry
from rigidlab import surfaces as sf
from rigidlab.expressions import parse_expression
from rigidlab.flex import (ExpressionField, phi_relation_residual,
                           random_trivial_motion, rotation_data, w_tensor)
from rigidlab.highdim import decompose_rotation_bivector

BLOCKED = (rotation_data, w_tensor, phi_relation_residual,
           decompose_rotation_bivector)


def _moved_ellipsoid():
    q, _ = np.linalg.qr(np.random.default_rng(11).standard_normal((3, 3)))
    return sf.rigid_motion(sf.ellipsoid(), q, np.array([0.2, -0.1, 0.3]))


def _fields():
    return {"trivial": random_trivial_motion(np.random.default_rng(12)),
            "expression": ExpressionField(tuple(
                parse_expression(c, 2)
                for c in ("x1*x2", "sin(x2) + cos(x1)^2", "exp(x2)/3")))}


@pytest.mark.parametrize("field", ["trivial", "expression"])
@pytest.mark.parametrize("batch", [(23,), (4, 9)])
def test_blocked_entry_points_are_one_call(field, batch, monkeypatch):
    """Blocks of 7 points (4 and 6 blocks) against one call on the batch:
    every field has the same shape, the same bytes and its points axis
    innermost in memory."""
    immersion, fld = _moved_ellipsoid(), _fields()[field]
    pts = geometry.interior_points(
        immersion, int(np.prod(batch)), np.random.default_rng(13)).reshape(
            batch + (2,))
    for entry in BLOCKED:
        whole = vars(entry(immersion, fld, pts))
        monkeypatch.setattr(geometry, "POINT_BLOCK", 7)
        blocked = vars(entry(immersion, fld, pts))
        monkeypatch.undo()
        assert blocked.keys() == whole.keys()
        for name, value in blocked.items():
            where = (entry.__name__, name)
            assert value.shape == whole[name].shape, where
            assert value.dtype == whole[name].dtype, where
            assert value.tobytes() == whole[name].tobytes(), where
            assert value.strides[len(batch) - 1] == value.itemsize, where


PAIR = str(importlib.resources.files("rigidlab") / "data"
           / "flat_cylinder_pair.json")


def _report_bytes(tmp_path, argv, name):
    path = tmp_path / name
    assert cli.main(argv + ["--report", str(path)]) == 0
    return path.read_bytes()


@pytest.mark.parametrize("argv", [
    ["check-surface", "sphere", "--points", "40", "--grid", "4x4"],
    ["check-surface", "ellipsoid", "--points", "40", "--grid", "4x4"],
    # every point of the plane is support-degenerate: shape-identity skips
    ["check-surface", "plane", "--points", "40", "--grid", "4x4"],
    ["pair-check", PAIR, "--points", "40"],
])
def test_cli_reports_do_not_depend_on_the_block(argv, tmp_path, monkeypatch,
                                                capsys):
    whole = _report_bytes(tmp_path, argv, "whole.json")
    monkeypatch.setattr(geometry, "POINT_BLOCK", 7)
    assert _report_bytes(tmp_path, argv, "blocked.json") == whole
    capsys.readouterr()


def test_check_surface_memory_does_not_grow_with_the_points(capsys):
    """200000 points in blocks: the traced peak stays a few blocks' worth,
    where one pass over the whole batch peaks above 200 MB."""
    tracemalloc.start()
    try:
        assert cli.main(["check-surface", "sphere", "--points", "200000",
                         "--grid", "4x4"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < 16 * 2**20, peak
