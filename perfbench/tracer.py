"""Outside-in tracer: wraps solitonlab's public functions from the benchmark's
side, records one span per call, and turns the spans into per-layer metrics.

A span is ``[label, parent, start, end, size, count, error]``: ``parent``
indexes the span list (-1 for a call made directly by the op), ``size`` is
read off the arguments (grid nodes, operator dimension, bytes written),
``count`` off the result (solver iterations), and ``error`` is the name of
the exception the call raised. A span's self time is its duration minus the
durations of its direct children. Leaf helpers such as ``geometry.d1`` are
deliberately not wrapped: at tens of thousands of calls per op the wrapper
would cost more than they do.
"""

from __future__ import annotations

import os
import time
from collections import Counter, defaultdict

import numpy as np

from solitonlab import entropy, flows, gauge, geometry, harness, stability
from solitonlab.geometry import FrameModel, GridModel

LAYERS = ("geometry", "flows", "entropy", "gauge", "stability", "harness")


def _nodes(args):
    """Grid nodes of the model argument; a homogeneous frame model is one node."""
    model = args[0]
    return int(np.prod(model.dims)) if isinstance(model, GridModel) else 1


def _operator_dim(args):
    return int(args[0].matrix.shape[0])


def _bytes_written(args):
    return os.path.getsize(args[1])


def _iterations(result):
    return result.iterations


# (owner, attribute, layer, label, size hook on the arguments read after the
# call, count hook on the result or on a NonConvergenceError's last iterate).
# Wrapped are the functions a per-layer metric names and those called across
# a layer boundary, so that each layer's self time holds its own work only;
# helpers called only from inside their own layer are left unwrapped.
WRAPPED = [
    (geometry, "christoffel", "geometry", "christoffel", None, None),
    (geometry, "inverse_metric", "geometry", "inverse_metric", None, None),
    (geometry, "_ricci_grid", "geometry", "ricci", None, None),
    (geometry, "_ricci_frame", "geometry", "ricci", None, None),
    (geometry, "scalar_curvature", "geometry", "scalar_curvature", None, None),
    (geometry, "validate_spd", "geometry", "validate_spd", None, None),
    (geometry, "partials", "geometry", "partials", None, None),
    (geometry, "hessian", "geometry", "hessian", None, None),
    (geometry, "lie_derivative_metric", "geometry", "lie_derivative_metric", None, None),
    (geometry, "laplacian_scalar", "geometry", "laplacian_scalar", None, None),
    (geometry, "divergence", "geometry", "divergence", None, None),
    (geometry, "norms", "geometry", "norms", None, None),
    (geometry, "volume", "geometry", "volume", None, None),
    (FrameModel, "with_a", "geometry", "frame_with_a", None, None),
    (flows, "run_flow", "flows", "run_flow", None, None),
    (flows, "step", "flows", "step", None, None),
    (flows, "cfl_bound", "flows", "cfl_bound", None, None),
    (flows, "rhs_tau_flow", "flows", "rhs", _nodes, None),
    (flows, "rhs_unnormalized", "flows", "rhs", _nodes, None),
    (flows, "rhs_deturck", "flows", "rhs", _nodes, None),
    (flows.MetricInterpolant, "__call__", "flows", "interpolant", None, None),
    (entropy, "minimize_mu", "entropy", "minimize_mu", _nodes, _iterations),
    (entropy, "minimize_mu_multistart", "entropy", "minimize_mu_multistart", None, None),
    (entropy, "entropy_record", "entropy", "entropy_record", None, None),
    (entropy, "monotonicity_report", "entropy", "monotonicity_report", None, None),
    (entropy, "normalize_f", "entropy", "normalize_f", None, None),
    (entropy, "constant_potential", "entropy", "constant_potential", None, None),
    (gauge, "deturck_vector", "gauge", "deturck_vector", None, None),
    (gauge, "harmonic_map_rhs", "gauge", "harmonic_map_rhs", None, None),
    (gauge, "run_harmonic_gauge", "gauge", "run_harmonic_gauge", None, None),
    (gauge, "interp_periodic", "gauge", "interp_periodic", None, None),
    (gauge, "pullback_metric", "gauge", "pullback_metric", None, None),
    (gauge, "invert_diffeo", "gauge", "invert_diffeo", None, None),
    (gauge, "divergence_gauge_fix", "gauge", "divergence_gauge_fix", None, None),
    (gauge, "gauge_residual", "gauge", "gauge_residual", None, None),
    (gauge, "gauge_equivalence_check", "gauge", "gauge_equivalence_check", None, None),
    (stability, "assemble_linearized_pde", "stability", "assemble_linearized_pde", None, None),
    (stability, "spectrum", "stability", "spectrum", _operator_dim, None),
    (stability, "nearest_soliton_in_family", "stability", "nearest_soliton_in_family", None, None),
    (stability, "fit_exponential_rate", "stability", "fit_exponential_rate", None, None),
    (stability, "three_interval_test", "stability", "three_interval_test", None, None),
    (stability.SpectralReport, "to_document", "stability", "to_document", None, None),
    (harness, "run_experiment", "harness", "run_experiment", None, None),
    (harness, "save_trajectory", "harness", "save_trajectory", _bytes_written, None),
    (harness, "build_model", "harness", "build_model", None, None),
    (harness, "flat_background", "harness", "flat_background", None, None),
    (harness, "parse_config", "harness", "parse_config", None, None),
]
_LAYER_OF = {label: layer for _, _, layer, label, _, _ in WRAPPED}


class Tracer:
    """Records the spans of the calls made while it is installed."""

    def __init__(self):
        self.spans = []
        self._stack = [-1]

    def _wrap(self, fn, label, size_hook, count_hook):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            span = [label, stack[-1], 0.0, 0.0, 0, 0, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[6] = type(exc).__name__
                last = getattr(exc, "last_iterate", None)
                if count_hook is not None and last is not None:
                    span[5] = count_hook(last)
                raise
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                if size_hook is not None:
                    span[4] = size_hook(args)
            if count_hook is not None:
                span[5] = count_hook(result)
            return result

        return wrapper

    def trace(self, fn, *args):
        """Run ``fn(*args)`` with every wrapper installed; returns its result."""
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in WRAPPED]
        for owner, attr, _, label, size_hook, count_hook in WRAPPED:
            setattr(owner, attr, self._wrap(owner.__dict__[attr], label, size_hook, count_hook))
        try:
            return fn(*args)
        finally:
            for owner, attr, fn_orig in reversed(originals):
                setattr(owner, attr, fn_orig)


def op_metrics(spans) -> dict:
    """Per-layer metrics of one traced op, from its spans.

    Every label gets ``<layer>.<label>.calls``, ``.self_s`` and ``.total_s``
    (calls and total time count only the outermost call of a label, so
    ``rhs_tau_flow`` calling ``rhs_unnormalized`` is one RHS evaluation);
    the ratios and counts the layers are judged by are added by name.
    """
    n = len(spans)
    child_time = [0.0] * n
    for s in spans:
        if s[1] >= 0:
            child_time[s[1]] += s[3] - s[2]
    # ancestor labels of each span; parents always precede their children
    anc = [frozenset()] * n
    for i, s in enumerate(spans):
        if s[1] >= 0:
            anc[i] = anc[s[1]] | {spans[s[1]][0]}

    calls, self_s, total_s, size = Counter(), defaultdict(float), defaultdict(float), Counter()
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, (label, _, t0, t1, sz, _, _) in enumerate(spans):
        own = (t1 - t0) - child_time[i]
        self_s[label] += own
        layer_self[_LAYER_OF[label]] += own
        if label not in anc[i]:
            calls[label] += 1
            total_s[label] += t1 - t0
            size[label] += sz

    def ratio(a, b):
        return a / b if b else 0.0

    def under(label, ancestor):
        return sum(1 for i, s in enumerate(spans) if s[0] == label and ancestor in anc[i])

    # ricci calls inside grid mu solves (size = grid nodes; 1 for radial solves)
    grid_solves = {i for i, s in enumerate(spans) if s[0] == "minimize_mu" and s[4] > 1}
    grid_ricci = sum(1 for i, s in enumerate(spans) if s[0] == "ricci"
                     and not grid_solves.isdisjoint(_chain(spans, i)))

    m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    for label, layer in _LAYER_OF.items():
        m[f"{layer}.{label}.calls"] = calls[label]
        m[f"{layer}.{label}.self_s"] = self_s[label]
        m[f"{layer}.{label}.total_s"] = total_s[label]
    m.update({
        "geometry.christoffel_per_rhs": ratio(calls["christoffel"], calls["rhs"]),
        "flows.step.rejected": sum(1 for s in spans
                                   if s[0] == "step" and s[6] == "StepRejectedError"),
        "flows.rhs.node_evals_per_s": ratio(size["rhs"], total_s["rhs"]),
        "flows.rhs_per_step": ratio(under("rhs", "step") - under("rhs", "rhs"), calls["step"]),
        "entropy.minimize_mu.iterations": sum(s[5] for s in spans if s[0] == "minimize_mu"),
        "entropy.minimize_mu.ricci_per_solve": ratio(grid_ricci, len(grid_solves)),
        "stability.spectrum.dim": max((s[4] for s in spans if s[0] == "spectrum"), default=0),
        "harness.save_trajectory.bytes": size["save_trajectory"],
        "harness.run_flow_per_run": ratio(under("run_flow", "run_experiment"),
                                          calls["run_experiment"]),
    })
    return m


def _chain(spans, i):
    """Indices of the ancestors of span ``i``."""
    p = spans[i][1]
    while p >= 0:
        yield p
        p = spans[p][1]
