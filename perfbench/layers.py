"""What the traced run wraps, the per-layer metrics it derives, and what each should move.

Span names are ``<module>.<function>`` or ``<module>.<Class>.<method>``,
with the ``qsts.`` prefix dropped.  Every metric below is normalised per op
of the traced phase unless its definition says otherwise, so with a fixed
traced op list the counts repeat exactly from run to run.

Functions that are not wrapped count as self time of their nearest wrapped
caller (for example ``s2_matrix`` inside ``relative_entropy``).
"""

from __future__ import annotations

import importlib
import inspect

from spans import COUNTS, END, NAME, START, self_times, subtree_counts

# functions named by the metric table, besides the whole public surface of
# spectral and distributions, whose module totals are reported
NAMED_TARGETS = [
    "toeplitz.toeplitz_from_density",
    "toeplitz.circulant_from_density",
    "toeplitz.toeplitz_circulant_gap",
    "toeplitz.eigen_bracket_check",
    "gaussian_states.relative_entropy",
    "gaussian_states.pinsker_trace_bound",
    "measurement.sample_pi_blocks",
    "measurement.pi_moments",
    "measurement.NumberOpSampler.__init__",
    "measurement.NumberOpSampler.draw",
    "estimators.preliminary_estimator",
    "estimators.project_theta",
    "estimators.improved_estimator",
    "estimators.nonparametric_estimate",
    "estimators.phi_matrices",
    "experiments.audit_state_approximation",
    "experiments.audit_hellinger_chain",
    "harness.mc_run",
    "harness.normality_check",
    "harness.RngStream.generator",
    "cli.cli_dispatch",
]

WHOLE_MODULES = ["spectral", "distributions"]

MODULES = ["spectral", "toeplitz", "gaussian_states", "distributions",
           "measurement", "estimators", "experiments", "harness", "cli"]


def _note_blocks(args, kwargs, result):
    scheme = args[1] if len(args) > 1 else kwargs["scheme"]
    return {"blocks": scheme.r}


def _note_active(args, kwargs, result):
    import numpy as np

    given = np.asarray(args[0], dtype=float).reshape(-1)
    return {"active": 0 if np.array_equal(given, result) else 1}


NOTES = {
    "measurement.sample_pi_blocks": _note_blocks,
    "estimators.project_theta": _note_active,
}

EIGEN_COUNTERS = [("eigensolves", "numpy.linalg", "eigh"),
                  ("eigensolves", "numpy.linalg", "eigvalsh")]


def targets(include_cli: bool = True):
    """[(span name, owner, attr, note)] for ``Tracer.install``; imports qsts."""
    names = list(NAMED_TARGETS)
    for mod_name in WHOLE_MODULES:
        mod = importlib.import_module("qsts." + mod_name)
        names += sorted(
            f"{mod_name}.{k}" for k, v in vars(mod).items()
            if inspect.isfunction(v) and v.__module__ == mod.__name__
            and not k.startswith("_"))
    out = []
    for name in names:
        parts = name.split(".")
        if parts[0] == "cli" and not include_cli:
            continue
        owner = importlib.import_module("qsts." + parts[0])
        for part in parts[1:-1]:
            owner = getattr(owner, part)
        out.append((name, owner, parts[-1], NOTES.get(name)))
    return out


def counters():
    return [(key, importlib.import_module(mod), attr)
            for key, mod, attr in EIGEN_COUNTERS]


# ------------------------------------------------------------------ metrics
#
# (metric name, unit, better, kind, span or module, counter)
#   calls     spans of that name per op
#   self      self seconds per op
#   modself   self seconds per op of every span of that module
#   rate      counter summed / inclusive seconds of those spans
#   frac      counter summed / spans of that name
#   percall   counter summed over each span's subtree / spans of that name

SPAN_METRICS = [
    ("measurement.sample_pi_blocks.calls", "count", "lower", "calls", "measurement.sample_pi_blocks", None),
    ("measurement.sample_pi_blocks.self_s", "s", "lower", "self", "measurement.sample_pi_blocks", None),
    ("measurement.sample_pi_blocks.blocks_per_s", "1/s", "higher", "rate", "measurement.sample_pi_blocks", "blocks"),
    ("harness.RngStream.generator.calls", "count", "lower", "calls", "harness.RngStream.generator", None),
    ("harness.RngStream.generator.self_s", "s", "lower", "self", "harness.RngStream.generator", None),
    ("harness.mc_run.self_s", "s", "lower", "self", "harness.mc_run", None),
    ("harness.normality_check.self_s", "s", "lower", "self", "harness.normality_check", None),
    ("estimators.preliminary_estimator.self_s", "s", "lower", "self", "estimators.preliminary_estimator", None),
    ("estimators.project_theta.self_s", "s", "lower", "self", "estimators.project_theta", None),
    ("estimators.improved_estimator.self_s", "s", "lower", "self", "estimators.improved_estimator", None),
    ("estimators.project_theta.active_frac", "frac", "lower", "frac", "estimators.project_theta", "active"),
    ("estimators.nonparametric_estimate.self_s", "s", "lower", "self", "estimators.nonparametric_estimate", None),
    ("estimators.phi_matrices.self_s", "s", "lower", "self", "estimators.phi_matrices", None),
    ("gaussian_states.relative_entropy.calls", "count", "lower", "calls", "gaussian_states.relative_entropy", None),
    ("gaussian_states.relative_entropy.self_s", "s", "lower", "self", "gaussian_states.relative_entropy", None),
    ("gaussian_states.relative_entropy.eigensolves", "count", "lower", "percall", "gaussian_states.relative_entropy", "eigensolves"),
    ("gaussian_states.pinsker_trace_bound.self_s", "s", "lower", "self", "gaussian_states.pinsker_trace_bound", None),
    ("measurement.NumberOpSampler.init_s", "s", "lower", "self", "measurement.NumberOpSampler.__init__", None),
    ("measurement.NumberOpSampler.draw_s", "s", "lower", "self", "measurement.NumberOpSampler.draw", None),
    ("measurement.NumberOpSampler.eigensolves", "count", "lower", "percall", "measurement.NumberOpSampler.__init__", "eigensolves"),
    ("toeplitz.toeplitz_from_density.calls", "count", "lower", "calls", "toeplitz.toeplitz_from_density", None),
    ("toeplitz.toeplitz_from_density.self_s", "s", "lower", "self", "toeplitz.toeplitz_from_density", None),
    ("toeplitz.circulant_from_density.calls", "count", "lower", "calls", "toeplitz.circulant_from_density", None),
    ("toeplitz.circulant_from_density.self_s", "s", "lower", "self", "toeplitz.circulant_from_density", None),
    ("toeplitz.toeplitz_circulant_gap.calls", "count", "lower", "calls", "toeplitz.toeplitz_circulant_gap", None),
    ("toeplitz.toeplitz_circulant_gap.self_s", "s", "lower", "self", "toeplitz.toeplitz_circulant_gap", None),
    ("experiments.audit_state_approximation.self_s", "s", "lower", "self", "experiments.audit_state_approximation", None),
    ("experiments.audit_hellinger_chain.self_s", "s", "lower", "self", "experiments.audit_hellinger_chain", None),
    ("cli.cli_dispatch.self_s", "s", "lower", "self", "cli.cli_dispatch", None),
    ("bench.op.self_s", "s", "lower", "self", "op", None),
] + [(f"{mod}.self_s", "s", "lower", "modself", mod, None) for mod in MODULES]

# metrics the run computes outside the span tree
RUN_METRICS = [
    ("cli.import_s", "s", "lower"),         # import qsts.cli in a fresh interpreter, per op
    ("cli.output_bytes", "B", "lower"),     # stdout plus --out file bytes, per op
    ("trace.ops", "count", "higher"),       # ops in the traced phase
    ("trace.spans_per_op", "count", "lower"),
    ("trace.overhead_ms", "ms", "lower"),   # traced minus untraced wall time, per op
    ("trace.overhead_frac", "frac", "lower"),
]

PER_LAYER = [(n, u, b) for n, u, b, *_ in SPAN_METRICS] + RUN_METRICS


def span_metrics(spans, n_ops: int) -> dict:
    """Per-layer metrics from recorded spans of ``n_ops`` traced ops."""
    selfs = self_times(spans)
    eig = subtree_counts(spans, "eigensolves")
    calls, self_sum, dur_sum, counts, eig_sum = {}, {}, {}, {}, {}
    for sid, rec in enumerate(spans):
        name = rec[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_sum[name] = self_sum.get(name, 0.0) + selfs[sid]
        dur_sum[name] = dur_sum.get(name, 0.0) + (rec[END] - rec[START])
        eig_sum[name] = eig_sum.get(name, 0.0) + eig[sid]
        for key, value in (rec[COUNTS] or {}).items():
            counts[(name, key)] = counts.get((name, key), 0) + value
    per = 1.0 / max(n_ops, 1)
    out = {}
    for metric, _unit, _better, kind, target, counter in SPAN_METRICS:
        n = calls.get(target, 0)
        if kind == "calls":
            value = n * per
        elif kind == "self":
            value = self_sum.get(target, 0.0) * per
        elif kind == "modself":
            value = per * sum(s for name, s in self_sum.items()
                              if name.startswith(target + "."))
        elif kind == "rate":
            dur = dur_sum.get(target, 0.0)
            value = counts.get((target, counter), 0) / dur if dur > 0 else 0.0
        elif kind == "frac":
            value = counts.get((target, counter), 0) / n if n else 0.0
        else:  # percall
            value = eig_sum.get(target, 0.0) / n if n else 0.0
        out[metric] = float(value)
    return out


# ------------------------------------------------------- the mapping table
#
# (layer metrics, end-to-end metrics it should move, workloads where it
#  should move them, workloads where it should not move)

LAYER_TABLE = [
    ("measurement.sample_pi_blocks.{calls,self_s,blocks_per_s}",
     "ops_per_s, op_p50_ms", "mc_blocked", "dense_symbols"),
    ("harness.RngStream.generator.{calls,self_s}",
     "op_p50_ms, op_tail_ms", "mc_blocked, cli_oneshot (mc moments)", "dense_symbols"),
    ("harness.mc_run.self_s", "ops_per_s", "cli_oneshot, mc_blocked", "dense_symbols"),
    ("harness.normality_check.self_s", "ops_per_s", "mc_blocked", "dense_symbols"),
    ("estimators.{preliminary_estimator,project_theta,improved_estimator}.self_s, "
     "estimators.project_theta.active_frac",
     "op_p50_ms (bounded by their ~2% share)", "mc_blocked", "dense_symbols"),
    ("estimators.{nonparametric_estimate,phi_matrices}.self_s",
     "op_p50_ms", "dense_symbols", "cli_oneshot"),
    ("gaussian_states.relative_entropy.{calls,self_s,eigensolves}",
     "ops_per_s, op_p50_ms", "dense_symbols", "mc_blocked"),
    ("gaussian_states.pinsker_trace_bound.self_s", "ops_per_s", "dense_symbols", "mc_blocked"),
    ("measurement.NumberOpSampler.{init_s,draw_s,eigensolves}",
     "op_tail_ms, ops_per_s", "dense_symbols", "mc_blocked"),
    ("toeplitz.{toeplitz_from_density,circulant_from_density,toeplitz_circulant_gap}.{calls,self_s}",
     "ops_per_s", "dense_symbols", "mc_blocked"),
    ("experiments.audit_state_approximation.self_s, experiments.audit_hellinger_chain.self_s",
     "ops_per_s", "dense_symbols, cli_oneshot", "mc_blocked"),
    ("spectral.self_s, distributions.self_s", "op_p50_ms", "cli_oneshot", "mc_blocked"),
    ("cli.{import_s,cli_dispatch.self_s,output_bytes}, cli.self_s",
     "setup_s, op_p50_ms", "cli_oneshot", "mc_blocked and dense_symbols, except setup_s"),
    ("toeplitz.self_s, gaussian_states.self_s", "ops_per_s", "dense_symbols", "mc_blocked"),
    ("measurement.self_s, harness.self_s", "ops_per_s", "mc_blocked", "dense_symbols"),
    ("estimators.self_s, experiments.self_s", "ops_per_s",
     "mc_blocked (estimators), dense_symbols (both)", "none; both workloads call them"),
    ("bench.op.self_s", "none; benchmark glue and unwrapped callees", "all", "all"),
    ("trace.{ops,spans_per_op,overhead_ms,overhead_frac}",
     "none; the tracing cost itself", "all", "all"),
]
