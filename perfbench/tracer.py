"""Outside-in tracer: spans around calls into rigidlab's public functions,
installed from the benchmark's own files without touching the package.

Modules import with ``from .x import f``, so wrapping only the defining
module would miss most calls.  ``Tracer.install`` therefore rebinds every
attribute of every loaded ``rigidlab.*`` module that *is* the target
function, and patches methods on their classes.  ``uninstall`` puts the
originals back.

A span is ``[name, start_ns, end_ns, parent, case_id, attrs]``.  Spans are
kept in memory; self time is the span's duration minus the durations of
its direct children, computed after the run from integer nanoseconds, so
it cannot go negative by rounding.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

__all__ = ["Tracer", "TARGETS", "LAYER_SELF_TIMES", "self_times",
           "kernel_routes", "layer_metrics"]


def _batch(point):
    shape = np.shape(point)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _jet_attrs(args, kwargs, result):
    return {"order": int(_arg(args, kwargs, 2, "order", 3)),
            "points": _batch(_arg(args, kwargs, 1, "point"))}


def _frame_attrs(args, kwargs, result):
    return {"points": _batch(_arg(args, kwargs, 1, "point"))}


def _operator_attrs(args, kwargs, result):
    op = result
    nbytes = op.matrix.nbytes
    if op.node_matrix is not None and op.node_matrix is not op.matrix:
        nbytes += op.node_matrix.nbytes
    return {"unknowns": int(op.unknown_count),
            "nnz": int(np.count_nonzero(op.matrix)),
            "bytes": int(nbytes),
            "node_entries": int(op.node_matrix.size
                                if op.node_matrix is not None else 0),
            "matrix_bytes": int(op.matrix.nbytes)}


def _svd_attrs(args, kwargs, result):
    shape = np.shape(_arg(args, kwargs, 0, "matrix"))
    return {"cols": int(shape[1]) if len(shape) == 2 else 1}


# (module, attribute or Class.method, span name, attribute hook)
TARGETS = (
    ("expressions", "evaluate_jet", "expressions.evaluate_jet", _jet_attrs),
    ("expressions", "parse_expression", "expressions.parse_expression", None),
    ("geometry", "frame_at", "geometry.frame_at", _frame_attrs),
    ("geometry", "geodesic_boundary_chart",
     "geometry.geodesic_boundary_chart", None),
    ("geometry", "brioschi_curvature", "geometry.brioschi_curvature", None),
    ("geometry", "codazzi_residual", "geometry.codazzi_residual", None),
    ("darboux", "support_at", "darboux.support_at", None),
    ("darboux", "verify_shape_identity", "darboux.verify_shape_identity",
     None),
    ("darboux", "darboux_residual", "darboux.darboux_residual", None),
    ("pairs", "check_isometric", "pairs.check_isometric", None),
    ("pairs", "verify_w_formula", "pairs.verify_w_formula", None),
    ("pairs", "verify_gauss_trace_and_codazzi",
     "pairs.verify_gauss_trace_and_codazzi", None),
    ("flex", "phi_relation_residual", "flex.phi_relation_residual", None),
    ("flex", "w_tensor", "flex.w_tensor", None),
    ("flex", "assemble_flex_operator", "flex.assemble_flex_operator",
     _operator_attrs),
    ("flex", "kernel_dimension", "flex.kernel_dimension", None),
    ("flex", "FlexOperator.evaluate_field", "flex.trivial_check", None),
    ("flex", "FlexOperator.apply", "flex.trivial_check", None),
    ("highdim", "decompose_rotation_bivector",
     "highdim.decompose_rotation_bivector", None),
    ("highdim", "dr_rigidity_test", "highdim.dr_rigidity_test", None),
    ("linalg", "singular_values", "linalg.singular_values", _svd_attrs),
    ("boundary", "BoundaryProfile.from_theta", "boundary.profile_build",
     None),
    ("boundary", "BoundaryProfile.from_arclength", "boundary.profile_build",
     None),
    ("boundary", "BoundaryProfile.from_csv", "boundary.profile_build", None),
    ("boundary", "BoundaryProfile.from_chart", "boundary.profile_build",
     None),
    ("boundary", "solve_boundary_ode", "boundary.solve_boundary_ode", None),
    ("boundary", "uv_functions", "boundary.uv_functions", None),
    ("boundary", "boundary_energy_inequality",
     "boundary.boundary_energy_inequality", None),
    ("boundary", "dong_conditions", "boundary.dong_conditions", None),
    ("boundary", "lemma_hh_check", "boundary.lemma_hh_check", None),
    ("quadrature", "rk4_path", "quadrature.rk4_path", None),
    ("report", "Report.write", "report.write", None),
)

CASE_SPAN = "case"


class Tracer:
    def __init__(self):
        self.spans = []
        self.case_id = None
        self._stack = []
        self._patches = []

    # -- span recording -----------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0, 0, parent, self.case_id, None])
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter_ns()
        return idx

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def case(self, case_id, fn):
        """Run ``fn()`` under a root span for one case."""
        self.case_id = case_id
        idx = self._open(CASE_SPAN)
        try:
            return fn()
        finally:
            self._close(idx)
            self.case_id = None

    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                tracer.spans[idx][5] = hook(args, kwargs, result)
            return result
        return traced

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None
                   and (key == "rigidlab" or key.startswith("rigidlab."))]
        for module_name, attr, name, hook in TARGETS:
            module = importlib.import_module(f"rigidlab.{module_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                raw = owner.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, hook))
                else:
                    wrapped = self._wrap(name, raw, hook)
                setattr(owner, meth, wrapped)
                self._patches.append((owner, meth, raw))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._patches.append((mod, key, original))

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)


def self_times(spans):
    """Self time in ns of every span: duration minus direct children."""
    child = [0] * len(spans)
    for name, start, end, parent, _case, _attrs in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c
            for (_n, start, end, _p, _c, _a), c in zip(spans, child)]


def kernel_routes(spans):
    """Route per kernel_dimension span index: "dense" exactly when
    linalg.singular_values runs inside it, else "sector"."""
    routes = {i: "sector" for i, s in enumerate(spans)
              if s[0] == "flex.kernel_dimension"}
    for s in spans:
        if s[0] != "linalg.singular_values":
            continue
        parent = s[3]
        while parent >= 0:
            if parent in routes:
                routes[parent] = "dense"
                break
            parent = spans[parent][3]
    return routes


LAYER_SELF_TIMES = (
    "expressions.parse_expression", "geometry.frame_at",
    "geometry.geodesic_boundary_chart", "geometry.brioschi_curvature",
    "geometry.codazzi_residual", "darboux.support_at",
    "darboux.verify_shape_identity", "darboux.darboux_residual",
    "pairs.check_isometric", "pairs.verify_w_formula",
    "pairs.verify_gauss_trace_and_codazzi", "flex.phi_relation_residual",
    "flex.w_tensor", "highdim.decompose_rotation_bivector",
    "highdim.dr_rigidity_test", "flex.assemble_flex_operator",
    "flex.kernel_dimension", "linalg.singular_values", "flex.trivial_check",
    "boundary.profile_build", "boundary.solve_boundary_ode",
    "boundary.uv_functions", "boundary.boundary_energy_inequality",
    "boundary.dong_conditions", "boundary.lemma_hh_check",
    "quadrature.rk4_path", "report.write",
)


def layer_metrics(spans, selfs, lo, hi):
    """Per-layer totals over spans[lo:hi] (one pass)."""
    out = {f"{name}.self_s": 0.0 for name in LAYER_SELF_TIMES}
    jet_calls = 0
    evals = [0] * 4
    jet_self = [0] * 4
    frame_calls = frame_points = 0
    svd_calls = svd_cols = 0
    unknowns = nnz = peak_bytes = 0
    glue = 0
    routes = kernel_routes(spans)
    dense = sector = 0
    operators = {}
    for i in range(lo, hi):
        name, _start, _end, _parent, case, attrs = spans[i]
        key = f"{name}.self_s"
        if key in out:
            out[key] += selfs[i] * 1e-9
        if name == "expressions.evaluate_jet":
            order = attrs["order"]
            jet_calls += 1
            evals[order] += attrs["points"]
            jet_self[order] += selfs[i]
        elif name == "geometry.frame_at":
            frame_calls += 1
            frame_points += attrs["points"]
        elif name == "linalg.singular_values":
            svd_calls += 1
            svd_cols = max(svd_cols, attrs["cols"])
        elif name == "flex.assemble_flex_operator":
            unknowns += attrs["unknowns"]
            nnz += attrs["nnz"]
            operators[case] = attrs
        elif name == "flex.kernel_dimension":
            attrs_op = operators.get(case, {})
            # bytes of the operator arrays plus the spectrum's main working
            # array: the complex 6-D sector tensor or one dense SVD copy
            if routes[i] == "dense":
                dense += 1
                work = attrs_op.get("matrix_bytes", 0)
            else:
                sector += 1
                work = 16 * attrs_op.get("node_entries", 0)
            peak_bytes = max(peak_bytes, attrs_op.get("bytes", 0) + work)
        elif name == CASE_SPAN:
            glue += selfs[i]
    out["expressions.evaluate_jet.calls"] = jet_calls
    out["expressions.evaluate_jet.mean_batch"] = (
        sum(evals) / jet_calls if jet_calls else 0.0)
    for order in range(4):
        out[f"expressions.evaluate_jet.point_evals.o{order}"] = evals[order]
        out[f"expressions.evaluate_jet.self_s.o{order}"] = jet_self[order] * 1e-9
    out["geometry.frame_at.calls"] = frame_calls
    out["geometry.frame_at.points"] = frame_points
    out["linalg.singular_values.calls"] = svd_calls
    out["linalg.singular_values.max_cols"] = svd_cols
    out["flex.operator.unknowns"] = unknowns
    out["flex.operator.nnz"] = nnz
    out["flex.operator.bytes_computed"] = peak_bytes
    out["flex.kernel_dimension.route_dense"] = dense
    out["flex.kernel_dimension.route_sector"] = sector
    out["cli.glue_s"] = glue * 1e-9
    return out
