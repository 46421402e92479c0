"""qsts benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mc_blocked --seed 1 --seconds 15 --trace 0

Workloads: mc_blocked, dense_symbols, cli_oneshot (see perfbench/README.md).
With ``--trace 0`` the last stdout line carries the end-to-end metrics
(setup_s, ops_per_s, op_p50_ms, peak_rss_mb); op_tail_ms and failed_frac
are printed above it.  With ``--trace 1`` the run also repeats a fixed
prefix of its ops with span wrappers installed and the last line carries
the per-layer metrics.  The full result, provenance included, goes to
``.perfbench_out/<workload>-seed<seed>-trace<t>.json``.

All qsts work runs in child processes started from this one, one at a
time, with ``src`` on PYTHONPATH and BLAS threads fixed at 1.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from speed import LOOP

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
WORKLOADS = ("mc_blocked", "dense_symbols", "cli_oneshot")
SETUP_SAMPLES = 5
BLAS_THREADS = "1"
DEADLINE_S = 170.0
CLI_SETUP = "import sys, qsts.cli; sys.stdout.write('ready\\n')"

MACHINE_LIMITS = [
    "no tracing of the whole machine: spans come from wrappers in the benchmark's own processes",
    "no dropping of the file cache: set-up is timed with whatever the cache holds",
    "the machine is shared and its speed drifts; times are scaled by interleaved "
    "speed probes (perfbench/speed.py) and the measured times are kept beside them",
]


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("QSTS_SEED", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = BLAS_THREADS
    return env


def start_until_ready(cmd, env, timeout: float):
    """Start ``cmd``; return (process, seconds until it printed 'ready')."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{cmd[1:3]} did not get ready: {line!r}")
    if ready > timeout:
        proc.kill()
        proc.wait()
        raise RuntimeError("set-up exceeded the time left")
    return proc, ready


def finish(proc, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker exceeded the run deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def setup_sample(workload: str, seed: int, env: dict, timeout: float) -> float:
    if workload == "cli_oneshot":
        cmd = [sys.executable, "-c", CLI_SETUP]
    else:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
               "--seed", str(seed), "--setup-only"]
    proc, ready = start_until_ready(cmd, env, timeout)
    finish(proc, timeout)
    return ready


def tail_percentile(latencies):
    """Highest percentile with at least ten samples beyond it.

    None when that percentile would fall below p90, that is with fewer
    than 100 ops: it would not be a tail.
    """
    n = len(latencies)
    if n < 100:
        return None
    ordered = sorted(latencies)
    return {"percentile": 100.0 * (n - 10) / n, "value_ms": 1e3 * ordered[n - 11],
            "samples": n, "beyond": 10}


def end_to_end(raw: dict, setups: list) -> dict:
    """End-to-end figures; ``setups`` holds (measured, scaled) set-up seconds.

    Times are scaled to the reference speed (see speed.py); the measured
    figures are kept under ``measured``.
    """
    units = raw["units"]
    lat = [x for u in units for x in u["latencies"]]
    scaled = [x * f for u in units for x, f in zip(u["latencies"], u["scales"])]
    oks = [x for u in units for x in u["ok"]]
    failed = sum(not ok for ok in oks)
    return {
        "setup_s": statistics.median(s for _, s in setups) if setups else None,
        "ops": len(lat),
        "ops_per_s": len(lat) / sum(u["busy_scaled_s"] for u in units),
        "op_p50_ms": 1e3 * statistics.median(scaled),
        "op_tail_ms": tail_percentile(scaled),
        "peak_rss_mb": raw["peak_rss_mb"],
        "failed": failed,
        "failed_frac": failed / len(oks),
        "measured": {
            "setup_samples_s": [m for m, _ in setups],
            "setup_s": statistics.median(m for m, _ in setups) if setups else None,
            "ops_per_s": len(lat) / sum(u["busy_s"] for u in units),
            "op_p50_ms": 1e3 * statistics.median(lat),
            "busy_s": sum(u["busy_s"] for u in units),
        },
    }


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def provenance(root: str, args, software: dict) -> dict:
    commit = "unavailable (not a git checkout)"
    try:
        top = subprocess.run(["git", "-C", root, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(root):
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "qsts")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu = next((ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
                if ln.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for idx in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{idx}/"
        level, size = _read(base + "level").strip(), _read(base + "size").strip()
        if level in ("2", "3") and size:
            caches[f"L{level}"] = size
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        **software,
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "caches": caches,
        "ram_gb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2 ** 30,
        "client": "closed loop, 1 client, 1 process, threads=1, one subprocess at a time",
        "machine_limits": MACHINE_LIMITS,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")

    t_begin = time.perf_counter()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "qsts", "__init__.py")):
        print("perfbench: no qsts source at ./src/qsts; run from the root of a checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    # bytecode is written once per checkout; set-up timings exclude compiling
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)
    env = child_env(root)

    def left() -> float:
        return DEADLINE_S - (time.perf_counter() - t_begin)

    try:
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worker, _ = start_until_ready(cmd, env, left())
        raw = json.loads(finish(worker, left()).strip().splitlines()[-1])
        setups = []
        if not args.trace:
            before = LOOP.take()
            while len(setups) < SETUP_SAMPLES:
                measured = setup_sample(args.workload, args.seed, env, left())
                after = LOOP.take()
                setups.append((measured, measured * LOOP.scale(before, after)))
                before = after
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    e2e = end_to_end(raw, setups)
    result = {"provenance": provenance(root, args, raw["software"]),
              "end_to_end": e2e, "errors": raw["errors"]}
    attempted, failed = e2e["ops"], e2e["failed"]
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{e2e['ops']} ops, {e2e['measured']['busy_s']:.2f} s busy")
    if not args.trace:
        tail = e2e["op_tail_ms"]
        tail_text = ("undefined: fewer than 100 ops" if tail is None else
                     f"{tail['value_ms']:.4f} ms at p{tail['percentile']:.2f} "
                     f"({tail['samples']} samples, {tail['beyond']} beyond)")
        meas = e2e["measured"]
        print("  times at reference speed (measured in brackets)")
        print(f"  setup_s      {e2e['setup_s']:.4f} s "
              f"({meas['setup_s']:.4f}; median of {len(setups)})")
        print(f"  ops_per_s    {e2e['ops_per_s']:.4f} 1/s ({meas['ops_per_s']:.4f})")
        print(f"  op_p50_ms    {e2e['op_p50_ms']:.4f} ms ({meas['op_p50_ms']:.4f})")
        print(f"  op_tail_ms   {tail_text}")
        print(f"  peak_rss_mb  {e2e['peak_rss_mb']:.2f} MB")
        print(f"  failed_frac  {e2e['failed_frac']:.4f} ({e2e['failed']}/{e2e['ops']})")
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in
                   (("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
                    ("peak_rss_mb", "MB"))}
    else:
        import layers

        tr = raw["trace"]
        attempted += tr["ops"]
        failed += tr["failed"]
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
        metrics = {name: {"value": tr["metrics"][name], "unit": units[name]}
                   for name, _, _ in layers.PER_LAYER}
        result["per_layer"] = metrics
        result["layer_table"] = [dict(zip(("layer_metrics", "moves", "on", "no_change_on"), row))
                                 for row in layers.LAYER_TABLE]
        result["trace"] = {k: tr[k] for k in ("ops", "failed", "errors", "spans_file", "spans")}
        result["errors"] = result["errors"] + tr["errors"]
        print(f"  traced ops {tr['ops']}, spans {tr['spans']} -> {tr['spans_file']}")
        for name, m in metrics.items():
            if m["value"]:
                print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    for err in result["errors"][:5]:
        print(f"  error: {err}")
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1)
    print(f"  result -> {path}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
