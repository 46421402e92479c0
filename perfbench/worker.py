"""One benchmark process: set up a workload, run it, optionally trace it.

Started by run.py with ``src`` on PYTHONPATH and BLAS threads fixed.  It
prints ``ready`` as soon as the first op could run, then, unless
``--setup-only``, runs the workload and prints its raw result as one JSON
line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _import_qsts(root: str):
    """Import qsts and refuse a copy that is not this checkout's ``src``."""
    import qsts

    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(qsts.__file__).startswith(src + os.sep):
        raise SystemExit(f"qsts imported from {qsts.__file__}, not from {src}")
    return qsts


def software() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_env": {k: os.environ.get(k) for k in
                                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS")}}


def _compare(workload, untraced, traced) -> list[str]:
    out = []
    for i, (a, b) in enumerate(zip(untraced, traced)):
        if not workload.same_output(a.output, b.output):
            out.append(f"traced unit {i} output differs from the untraced run")
    return out


def trace_phase(workload, units) -> dict:
    """Repeat a fixed prefix of ``units`` with wrappers installed; per-layer metrics."""
    import layers
    from spans import Tracer

    tracer = Tracer()
    in_process = workload.name != "cli_oneshot"
    if in_process:
        tracer.install(layers.targets(include_cli=False), layers.counters())
    try:
        traced = workload.replay(tracer)
    finally:
        tracer.uninstall()
    mismatches = _compare(workload, units, traced)
    for unit in traced:
        if mismatches:
            unit.ok = [False] * len(unit.ok)
    n_ops = sum(len(u.ok) for u in traced)
    metrics = layers.span_metrics(tracer.spans, n_ops)
    per_op_untraced = sorted(u.busy_scaled_s / len(u.ok) for u in units)
    median_untraced = per_op_untraced[len(per_op_untraced) // 2]
    traced_per_op = sum(u.busy_scaled_s for u in traced) / n_ops
    metrics.update({
        "cli.import_s": tracer.totals.get("import_s", 0.0) / n_ops,
        "cli.output_bytes": tracer.totals.get("output_bytes", 0.0) / n_ops,
        "trace.ops": float(n_ops),
        "trace.spans_per_op": len(tracer.spans) / n_ops,
        "trace.overhead_ms": 1e3 * (traced_per_op - median_untraced),
        "trace.overhead_frac": traced_per_op / median_untraced - 1.0,
    })
    spans_path = os.path.join(".perfbench_out", f"{workload.name}.spans.json")
    tracer.dump(spans_path, meta={"workload": workload.name, "ops": n_ops})
    return {"metrics": metrics, "ops": n_ops,
            "failed": sum(not ok for u in traced for ok in u.ok),
            "errors": mismatches + [e for u in traced for e in u.errors][:20],
            "spans_file": spans_path, "spans": len(tracer.spans)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    root = os.getcwd()

    import workloads

    _import_qsts(root)
    cls = workloads.WORKLOADS[args.workload]
    if cls is workloads.CliOneshot:
        # its set-up is measured on bare `import qsts.cli` processes by
        # run.py; this process only drives the command subprocesses
        workload = cls(args.seed, dict(os.environ))
    else:
        workload = cls(args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    t0 = time.perf_counter()
    units = workload.run(args.seconds)
    run_s = time.perf_counter() - t0
    problems = workload.check_units(units)
    who = resource.RUSAGE_CHILDREN if cls is workloads.CliOneshot else resource.RUSAGE_SELF
    peak_kb = resource.getrusage(who).ru_maxrss
    result = {
        "software": software(),
        "run_s": run_s,
        "units": [u.to_json() for u in units],
        "errors": (problems + [e for u in units for e in u.errors])[:20],
        "peak_rss_mb": peak_kb / 1024.0,
    }
    if args.trace:
        result["trace"] = trace_phase(workload, units)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
