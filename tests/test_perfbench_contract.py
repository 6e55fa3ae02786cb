"""The names the benchmark's tracer patches must exist in the package.

``perfbench/tracer.py`` wraps functions and methods by name; a rename in
``rigidlab`` would otherwise only surface inside traced benchmark runs.
The tracer file is loaded read-only from the checkout.
"""

import importlib
import importlib.util
from pathlib import Path

from rigidlab import surfaces as sf
from rigidlab.flex import assemble_flex_operator

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    for module_name, attr, _span, _hook in _load_tracer().TARGETS:
        module = importlib.import_module(f"rigidlab.{module_name}")
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(module, cls_name)), attr
        else:
            assert callable(getattr(module, attr, None)), attr


def test_flex_operator_keeps_the_traced_attributes():
    op = assemble_flex_operator(sf.sphere(1.0), grid=(16, 8))
    for name in ("matrix", "node_matrix", "unknown_count"):
        assert hasattr(op, name), name
