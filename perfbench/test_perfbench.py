"""Tests of the benchmark itself.

Run from the root of the repository:

    python3 -m pytest perfbench -q
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, covered, self_times, subtree_counts  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(autouse=True)
def at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def span(name, start, end, parent=None, op=0, counts=None):
    return [name, start, end, parent, op, 1, counts]


# ---------------------------------------------------------- self-time arithmetic

def test_covered_is_union_clipped_to_parent():
    assert covered([(1, 4), (3, 6)], 0, 10) == 5
    assert covered([(1, 2), (5, 7)], 0, 10) == 3
    assert covered([(2, 3), (1, 5)], 0, 10) == 4       # nested inside another
    assert covered([(-2, 3), (8, 12)], 0, 10) == 5     # clipped at both ends
    assert covered([], 0, 10) == 0


def test_self_times_on_synthetic_spans():
    spans = [
        span("op", 0.0, 10.0),
        span("a.f", 1.0, 4.0, parent=0),
        span("a.g", 2.0, 3.0, parent=1),
        span("b.h", 3.5, 6.0, parent=0),   # overlaps a.f, as a pool thread would
        span("b.h", 7.0, 8.0, parent=0),
    ]
    assert self_times(spans) == pytest.approx([10 - 6, 3 - 1, 1, 2.5, 1])


def test_subtree_counts_reach_every_ancestor():
    spans = [
        span("op", 0, 10),
        span("a.f", 1, 4, parent=0, counts={"eigensolves": 2}),
        span("a.g", 2, 3, parent=1, counts={"eigensolves": 3}),
        span("b.h", 5, 6, parent=0),
    ]
    assert subtree_counts(spans, "eigensolves") == [5, 5, 3, 0]


def test_span_metrics_per_op():
    spans = [
        span("op", 0, 10),
        span("gaussian_states.relative_entropy", 1, 4, parent=0, counts={"eigensolves": 8}),
        span("gaussian_states.pinsker_trace_bound", 5, 9, parent=0),
        span("gaussian_states.relative_entropy", 6, 8, parent=2, counts={"eigensolves": 8}),
        span("op", 10, 12, op=1),
        span("measurement.sample_pi_blocks", 10, 12, parent=4, op=1, counts={"blocks": 409}),
    ]
    m = layers.span_metrics(spans, n_ops=2)
    assert m["gaussian_states.relative_entropy.calls"] == 1.0
    assert m["gaussian_states.relative_entropy.self_s"] == pytest.approx(2.5)
    assert m["gaussian_states.relative_entropy.eigensolves"] == 8.0
    assert m["gaussian_states.pinsker_trace_bound.self_s"] == pytest.approx(1.0)
    assert m["gaussian_states.self_s"] == pytest.approx(3.5)
    assert m["bench.op.self_s"] == pytest.approx((10 - 3 - 4) / 2)
    assert m["measurement.sample_pi_blocks.blocks_per_s"] == pytest.approx(409 / 2)
    assert m["harness.mc_run.self_s"] == 0.0


# ------------------------------------------------------------------- names

def test_names_and_units_match_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    for name in names + list(workloads.WORKLOADS):
        assert NAME_RE.fullmatch(name), name
    assert set(workloads.WORKLOADS) == {w["name"] for w in bench["workloads"]}
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [tuple(x) for x in layers.PER_LAYER]


# ------------------------------------------------- traced equals untraced

def test_traced_mc_replicates_equal_untraced():
    import numpy as np
    from qsts import measurement

    w = workloads.McBlocked(5)
    w.CHUNK = 3
    plain = w.unit(0)
    original = measurement.sample_pi_blocks
    tracer = Tracer()
    tracer.install(layers.targets(include_cli=False), layers.counters())
    try:
        traced = w.unit(0, tracer)
    finally:
        tracer.uninstall()
    assert measurement.sample_pi_blocks is original
    assert np.array_equal(plain.output, traced.output)
    m = layers.span_metrics(tracer.spans, n_ops=3)
    assert m["harness.RngStream.generator.calls"] == 409.0
    assert m["measurement.sample_pi_blocks.calls"] == 1.0


def test_traced_dense_audit_equals_untraced():
    w = workloads.DenseSymbols(5)
    w.items = w.items[:1]
    plain = w.unit(0)
    tracer = Tracer()
    tracer.install(layers.targets(include_cli=False), layers.counters())
    try:
        traced = w.unit(0, tracer)
    finally:
        tracer.uninstall()
    assert plain.ok == traced.ok == [True]
    assert plain.output == traced.output
    m = layers.span_metrics(tracer.spans, n_ops=1)
    assert m["gaussian_states.relative_entropy.calls"] == 6.0   # 2 per m value
    assert m["gaussian_states.relative_entropy.eigensolves"] == 8.0


def test_traced_cli_command_prints_the_same_bytes(tmp_path):
    w = workloads.CliOneshot(5, run.child_env(ROOT))
    argv = ["--seed", "5", "estimate", "onestep", "--density", "cos:2,0.5",
            "--n", "4096", "--d", "1", "--M", "5"]
    rc, out, _, _, _ = w.command(argv)
    spans_path = str(tmp_path / "spans.json")
    rc2, out2, _, _, _ = w.command(argv, spans_path)
    assert rc == rc2 == 0
    assert out == out2
    assert w.check("estimate_onestep", out, b"", []) == ""
    tracer = Tracer()
    tracer.merge_file(spans_path, op_id=0, output_bytes=len(out2))
    m = layers.span_metrics(tracer.spans, n_ops=1)
    assert m["harness.RngStream.generator.calls"] == 409.0
    assert tracer.totals["import_s"] > 0


# -------------------------------------------------- failures are counted

def _raw(units, peak=1.0):
    for u in units:
        u.busy_s = u.busy_scaled_s = 1.0
    return {"units": [u.to_json() for u in units], "peak_rss_mb": peak}


def test_wrong_reference_fails_the_op():
    w = workloads.DenseSymbols(5)
    w.items = w.items[:1]
    w.reference["audit_geom64"]["79"] *= 1.5
    unit = w.unit(0)
    assert unit.ok == [False]
    assert "reference" in unit.errors[0]
    assert run.end_to_end(_raw([unit]), [(1.0, 1.0)])["failed_frac"] == 1.0


def test_failed_normality_check_fails_every_op():
    import numpy as np

    w = workloads.McBlocked(5)
    rng = np.random.default_rng(0)
    units = []
    for _ in range(2):
        u = workloads.Unit()
        u.output = rng.standard_normal((300, 3)) * 3.0   # variance 9, target about 3.5
        for _ in range(300):
            u.record(0.01, True)
        units.append(u)
    assert run.end_to_end(_raw(units), [(1.0, 1.0)])["failed_frac"] == 0.0
    problems = w.check_units(units)
    assert problems and "normality" in problems[0]
    assert run.end_to_end(_raw(units), [(1.0, 1.0)])["failed_frac"] == 1.0


def test_cli_checks_reject_bad_output():
    w = workloads.CliOneshot(5, run.child_env(ROOT))
    assert w.check("state_entropy", b"0.5\n", b"", []) != ""
    assert w.check("mc_moments_threads2", b"b", b"", [(0, b"a", b"")]) != ""
    assert w.check("audit_chain", b"label,n,m,value,bound,pass\nx,1,1,0.1,,False\n",
                   b"", []) != ""


# ------------------------------------------------------------- the command

def test_refuses_a_directory_without_the_source(tmp_path):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                           "mc_blocked", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
