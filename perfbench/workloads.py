"""The three workloads: fixtures, ops and the checks on their outputs.

Each workload is a closed loop with one client.  ``run`` measures ops in
whole units (a chunk of replicates, a pass over a fixed list) until
``seconds`` have passed, and ``replay`` repeats a fixed prefix of those
units under a tracer so the traced outputs can be compared with the
untraced ones.

Every op yields ``(latency_s, ok)``.  An op that raises or fails its check
is not ok; a run-level check that fails marks every op it covered as
failed.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
GEOM_DECAY = os.path.join("demos", "densities", "geom_decay.json")


def _op_context(tracer, op_id):
    return tracer.op(op_id) if tracer is not None else contextlib.nullcontext()


class Unit:
    """One measured unit: per-op records, busy time and comparable output.

    ``scales`` holds, per op, the factor from ``Probe.scale`` that maps its
    time to the reference speed; ``busy_s`` is the unit's measured time
    without probes and checks, ``busy_scaled_s`` the same at reference speed.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.scales: list[float] = []
        self.ok: list[bool] = []
        self.errors: list[str] = []
        self.output = None
        self.busy_s = 0.0
        self.busy_scaled_s = 0.0

    def record(self, latency: float, ok: bool, error: str = "", factor: float = 1.0):
        self.latencies.append(latency)
        self.scales.append(factor)
        self.ok.append(ok)
        if error:
            self.errors.append(error)

    def to_json(self) -> dict:
        return {"busy_s": self.busy_s, "busy_scaled_s": self.busy_scaled_s,
                "latencies": self.latencies, "scales": self.scales, "ok": self.ok}


def run_units(make_unit, seconds: float, min_units: int = 1) -> list[Unit]:
    """Call ``make_unit(i)`` for i = 0, 1, ... until ``seconds`` have passed."""
    units = []
    start = time.perf_counter()
    while len(units) < min_units or time.perf_counter() - start < seconds:
        units.append(make_unit(len(units)))
    return units


def finish_pass(unit: Unit):
    """Busy time of a pass: its ops back to back, without probes and checks."""
    unit.busy_s = sum(unit.latencies)
    unit.busy_scaled_s = sum(x * f for x, f in zip(unit.latencies, unit.scales))


class Workload:
    """Shared loop: ``unit(i, tracer)`` makes unit i; subclasses define it."""

    name = ""
    # the speed probe that matches the workload's dominant work
    PROBE = speed.LOOP
    MIN_UNITS = 1
    # units the traced phase repeats
    REPLAY_UNITS = 1

    def unit(self, i: int, tracer=None) -> Unit:
        raise NotImplementedError

    def run(self, seconds: float) -> list[Unit]:
        return run_units(self.unit, seconds, self.MIN_UNITS)

    def replay(self, tracer) -> list[Unit]:
        units = [self.unit(i, tracer) for i in range(self.REPLAY_UNITS)]
        self.check_units(units)
        return units

    def check_units(self, units: list[Unit]) -> list[str]:
        """Run-level checks; the default has none."""
        return []

    @staticmethod
    def same_output(a, b) -> bool:
        return a == b


# ---------------------------------------------------------------- mc_blocked

class McBlocked(Workload):
    """Blocked measurement at n=4096, d=1 (409 blocks of m=9), then the estimators.

    One op is one replicate of the criterion-10 pipeline,
    sample_pi_blocks -> preliminary_estimator -> project_theta ->
    improved_estimator, run by ``mc_run`` in chunks of CHUNK replicates.
    Chunk c draws from streams (seed * 2**20 + c, 1..CHUNK).
    """

    name = "mc_blocked"
    N, D, M_BALL = 4096, 1, 5.0
    CHUNK = 50
    # the normality check needs at least 500 replicates; the traced phase
    # repeats that many, so it can run the check too
    MIN_UNITS = REPLAY_UNITS = 10
    # A correct sampler fails these with negligible probability: each KS
    # test at level 1e-6; the Frobenius error of the 3x3 sample covariance,
    # which measured 0.04-0.10 on six disjoint sets of 500 replicates,
    # against a limit of 0.35; and each mean within 6 standard errors of 0.
    KS_ALPHA = 1e-6
    FROB_TOL = 0.35
    MEAN_SE = 6.0

    def __init__(self, seed: int):
        import numpy as np
        from qsts import estimators, measurement, spectral, toeplitz

        self.seed = seed
        self.a = spectral.parse_density("cos:2,0.5")
        self.scheme = measurement.block_scheme(self.N, self.D)
        self.theta = spectral.RealParam.from_density(self.a, d=self.D).theta
        self.space = spectral.theta2prime_space(self.D, self.M_BALL)
        m, d = self.scheme.m, self.D
        self.root_rm = math.sqrt(self.scheme.r * m)
        # exact finite-block covariance of sqrt(rm)(theta_tilde - theta),
        # linearised at the true theta
        _, cov_pi = measurement.pi_moments(toeplitz.toeplitz_from_density(self.a, m))
        W, F, delta = estimators.design_matrices(m, d, self.theta)
        Wd = W / delta[:, None]
        G = np.linalg.solve(W.T @ Wd, Wd.T)
        self.target = np.diag(F) @ G @ cov_pi @ G.T @ np.diag(F)

    def unit(self, c: int, tracer=None) -> Unit:
        import numpy as np
        from qsts import estimators, harness, measurement

        unit = Unit()
        nan_row = np.full(self.theta.size, np.nan)

        def replicate(stream):
            t0 = time.perf_counter()
            with _op_context(tracer, c * self.CHUNK + stream.stream_id - 1):
                try:
                    draw = measurement.sample_pi_blocks(self.a, self.scheme, stream)
                    m = self.scheme.m
                    prelim = estimators.preliminary_estimator(draw.pi_bar, m, self.D)
                    projected = estimators.project_theta(prelim, self.space)
                    theta = estimators.improved_estimator(draw.pi_bar, projected, m, self.D)
                    row = self.root_rm * (theta - self.theta)
                    ok = bool(np.all(np.isfinite(row)))
                    err = "" if ok else "non-finite estimate"
                except Exception as exc:  # an op that raises counts as failed
                    row, ok, err = nan_row, False, f"{type(exc).__name__}: {exc}"
            unit.record(time.perf_counter() - t0, ok, err)
            return row if ok else nan_row

        before = self.PROBE.take()
        t0 = time.perf_counter()
        _, rows = harness.mc_run(replicate, self.CHUNK, seed=self.seed * 2 ** 20 + c,
                                 collect=True)
        unit.busy_s = time.perf_counter() - t0
        factor = self.PROBE.scale(before, self.PROBE.take())
        unit.scales = [factor] * len(unit.ok)
        unit.busy_scaled_s = unit.busy_s * factor
        unit.output = rows
        return unit

    def check_units(self, units: list[Unit]) -> list[str]:
        """Normality of the scaled errors; on failure every op is marked failed."""
        import numpy as np
        from qsts import harness
        from qsts.errors import QstsError

        rows = np.vstack([u.output for u in units])
        good = rows[np.all(np.isfinite(rows), axis=1)]
        problems = []
        try:
            rep = harness.normality_check(good, self.target, frob_tol=self.FROB_TOL,
                                          ks_alpha=self.KS_ALPHA)
            if not rep.passed:
                problems.append(f"normality: frob {rep.frob_rel_err:.4f} (limit "
                                f"{self.FROB_TOL}), ks {np.max(rep.ks_stats):.4f} "
                                f"(critical {rep.ks_critical:.4f})")
        except QstsError as exc:
            problems.append(f"normality: {type(exc).__name__}: {exc}")
        if good.shape[0]:
            se = np.sqrt(np.diag(self.target) / good.shape[0])
            worst = float(np.max(np.abs(good.mean(axis=0)) / se))
            if worst > self.MEAN_SE:
                problems.append(f"mean of scaled errors is {worst:.2f} SE from 0")
        if problems:
            for u in units:
                u.ok = [False] * len(u.ok)
                u.errors.extend(problems)
        return problems

    @staticmethod
    def same_output(a, b) -> bool:
        import numpy as np
        return bool(np.array_equal(a, b, equal_nan=True))


# ------------------------------------------------------------- dense_symbols

class DenseSymbols(Workload):
    """A fixed list of dense symbol-level computations, no Monte Carlo loop.

    One op is one item; one unit is one pass over the list.  The draw in
    item 3 of pass p uses stream (seed, p).
    """

    name = "dense_symbols"
    PROBE = speed.EIGH
    # entropies must match the seed commit within ATOL + RTOL * |reference|
    ATOL, RTOL = 1e-12, 1e-6
    # the nonparametric estimate must lie within THETA_SE standard errors
    THETA_SE = 6.0
    N_DRAW, D_N = 1025, 3

    def __init__(self, seed: int):
        from qsts import spectral

        self.seed = seed
        self.geom = spectral.parse_density(GEOM_DECAY)
        self.cos = spectral.parse_density("cos:2,0.5")
        self.theta_true = spectral.RealParam.from_density(self.cos, d=self.D_N).theta
        with open(os.path.join(HERE, "reference.json")) as fh:
            self.reference = json.load(fh)["dense_symbols"]
        self.items = [
            ("audit_geom64", lambda p: self._audit(self.geom, 64, [67, 71, 79])),
            ("audit_cos256", lambda p: self._audit(self.cos, 256, None)),
            ("nonparam1025", self._nonparam),
        ]

    @staticmethod
    def _audit(a, n, ms):
        from qsts import experiments

        report = experiments.audit_state_approximation(a, n, ms)
        return [(r.label, r.n, r.m, r.value, r.passed) for r in report.rows]

    def _nonparam(self, p):
        from qsts import estimators, harness, measurement, toeplitz

        sampler = measurement.NumberOpSampler(
            toeplitz.toeplitz_from_density(self.cos, self.N_DRAW))
        N = sampler.draw(harness.RngStream(self.seed, p))
        _, theta = estimators.nonparametric_estimate(2.0 * N + 1.0, self.D_N)
        phi0, _ = estimators.phi_matrices(self.theta_true, self.D_N)
        return [float(x) for x in theta], [float(x) for x in phi0.diagonal()]

    def check_item(self, label: str, out) -> str:
        """'' when the item's output is right, else the reason."""
        if label == "nonparam1025":
            theta, phi0_diag = out
            for j, (t, t0, v) in enumerate(zip(theta, self.theta_true, phi0_diag)):
                se = math.sqrt(v / self.N_DRAW)
                if not abs(t - t0) <= self.THETA_SE * se:
                    return (f"theta[{j - self.D_N}] = {t:.6g} is "
                            f"{abs(t - t0) / se:.1f} SE from {t0:.6g}")
            return ""
        ref = self.reference[label]
        for row_label, n, m, value, passed in out:
            if not passed:
                return f"audit row {row_label} m={m} failed its bound"
            if row_label == "relative_entropy":
                expect = ref[str(m)]
                if not value >= 0.0:
                    return f"entropy at m={m} is negative: {value!r}"
                if not abs(value - expect) <= self.ATOL + self.RTOL * abs(expect):
                    return f"entropy at m={m} is {value!r}, reference {expect!r}"
        return ""

    def unit(self, p: int, tracer=None) -> Unit:
        unit = Unit()
        outputs = []
        before = self.PROBE.take()
        for k, (label, fn) in enumerate(self.items):
            t0 = time.perf_counter()
            with _op_context(tracer, p * len(self.items) + k):
                try:
                    out = fn(p)
                    err = ""
                except Exception as exc:  # an op that raises counts as failed
                    out, err = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - t0
            after = self.PROBE.take()
            if not err:
                err = self.check_item(label, out)
            unit.record(latency, not err, err and f"{label}: {err}",
                        self.PROBE.scale(before, after))
            outputs.append(out)
            before = after
        finish_pass(unit)
        unit.output = outputs
        return unit


# --------------------------------------------------------------- cli_oneshot

def _geo_kl(a1: float, a2: float) -> float:
    """KL(Geo(p1) || Geo(p2)) with p = (a-1)/(a+1), in closed form."""
    p1, p2 = (a1 - 1) / (a1 + 1), (a2 - 1) / (a2 + 1)
    return math.log((1 - p1) / (1 - p2)) + p1 / (1 - p1) * math.log(p1 / p2)


class CliOneshot(Workload):
    """One ``python -m qsts.cli`` subprocess at a time over a fixed script.

    One op is one command; one unit is one pass over the script.  The last
    command repeats ``mc moments`` with ``--threads 2 --no-timestamp``; its
    output must be byte-identical to the ``--threads 1`` run before it.
    """

    name = "cli_oneshot"
    # each command's latency is one sample; two passes give the median 18
    MIN_UNITS = 2
    OUT_DIR = os.path.join(".perfbench_out", "cli")
    TIMEOUT_S = 60
    ONESTEP_SE = 8.0

    def __init__(self, seed: int, env: dict):
        self.seed = seed
        self.env = env
        os.makedirs(self.OUT_DIR, exist_ok=True)
        self.out_file = os.path.join(self.OUT_DIR, "measure.csv")
        s = ["--seed", str(seed)]
        cos = "cos:2,0.5"
        moments = ["mc", "moments", "--density", cos, "--m", "7", "--replicates", "20000"]
        self.script = [
            ("symbol_bracket", ["symbol", "bracket", "--density", cos, "--n", "64"]),
            ("state_entropy", ["state", "entropy", "--a1", "const:2", "--a2", "const:3",
                               "--n", "1"]),
            ("dist_chernoff", ["dist", "chernoff", "--a0", "const:2", "--a1", "const:3",
                               "--quantum", "--classical"]),
            ("audit_chain", s + ["audit", "chain", "--density", cos,
                                 "--n-list", "65,129,257,513"]),
            ("audit_state", ["audit", "state", "--density", GEOM_DECAY, "--n", "64"]),
            ("simulate_measure", s + ["--no-timestamp", "simulate", "measure", "--density", cos,
                                      "--n", "65536", "--out", self.out_file]),
            ("estimate_onestep", s + ["estimate", "onestep", "--density", cos, "--n", "4096",
                                      "--d", "1", "--M", "5"]),
            ("mc_moments", s + ["--threads", "1"] + moments),
            ("mc_moments_threads2", s + ["--threads", "2", "--no-timestamp"] + moments),
        ]
        with open(os.path.join(HERE, "reference.json")) as fh:
            self.reference = json.load(fh)

    def command(self, argv, spans_path=None):
        """(returncode, stdout, --out file bytes, wall seconds, stderr) of one command."""
        if spans_path is None:
            cmd = [sys.executable, "-m", "qsts.cli"] + argv
        else:
            cmd = [sys.executable, os.path.join(HERE, "cli_traced.py"), spans_path] + argv
        if os.path.exists(self.out_file):
            os.remove(self.out_file)
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, timeout=self.TIMEOUT_S)
        wall = time.perf_counter() - t0
        out_bytes = b""
        if "--out" in argv and os.path.exists(self.out_file):
            with open(self.out_file, "rb") as fh:
                out_bytes = fh.read()
            os.remove(self.out_file)
        return proc.returncode, proc.stdout, out_bytes, wall, proc.stderr

    def unit(self, p: int, tracer=None) -> Unit:
        unit = Unit()
        outputs = []
        before = self.PROBE.take()
        for k, (label, argv) in enumerate(self.script):
            spans_path = None
            if tracer is not None:
                spans_path = os.path.join(self.OUT_DIR, f"spans_{k}.json")
            try:
                rc, out, extra, wall, stderr = self.command(argv, spans_path)
            except subprocess.TimeoutExpired:
                unit.record(float(self.TIMEOUT_S), False, f"{label}: timed out")
                outputs.append(None)
                before = self.PROBE.take()
                continue
            after = self.PROBE.take()
            err = ""
            if rc != 0:
                err = f"exit code {rc}: {stderr.decode(errors='replace').strip()[-200:]}"
            else:
                try:
                    err = self.check(label, out, extra, outputs)
                except (ValueError, KeyError, IndexError, TypeError) as exc:
                    err = f"output does not parse: {type(exc).__name__}: {exc}"
            unit.record(wall, not err, err and f"{label}: {err}",
                        self.PROBE.scale(before, after))
            outputs.append((rc, out, extra))
            if tracer is not None and os.path.exists(spans_path):
                tracer.merge_file(spans_path, op_id=p * len(self.script) + k,
                                  output_bytes=len(out) + len(extra))
            before = after
        finish_pass(unit)
        unit.output = outputs
        return unit

    def check(self, label: str, out: bytes, extra: bytes, earlier) -> str:
        text = out.decode()
        if label == "symbol_bracket":
            obj = json.loads(text)
            return "" if obj["pass"] and obj["inf_a"] <= obj["lambda_min"] else "bracket failed"
        if label == "state_entropy":
            value, expect = float(text), _geo_kl(2.0, 3.0)
            return "" if abs(value - expect) <= 1e-12 else f"entropy {value!r} != {expect!r}"
        if label == "dist_chernoff":
            obj = json.loads(text)
            gap = abs(obj["quantum_inf"] - obj["classical_inf"])
            return "" if gap <= 1e-9 else f"quantum and classical exponents differ by {gap:g}"
        if label in ("audit_chain", "audit_state"):
            lines = text.strip().splitlines()
            if lines[0] != "label,n,m,value,bound,pass":
                return "unexpected CSV header"
            rows = [ln.split(",") for ln in lines[1:]]
            if not rows or any(r[5] != "True" for r in rows):
                return "an audit row failed"
            if label == "audit_state":
                ref = self.reference["cli_oneshot"]["audit_state"]
                for r in rows:
                    if r[0] == "relative_entropy":
                        value, expect = float(r[3]), ref[r[2]]
                        if not (value >= 0.0 and abs(value - expect)
                                <= DenseSymbols.ATOL + DenseSymbols.RTOL * abs(expect)):
                            return f"entropy at m={r[2]} is {value!r}, reference {expect!r}"
            return ""
        if label == "simulate_measure":
            lines = extra.decode().splitlines()
            header = json.loads(lines[0][2:])
            if lines[1] != "block,j,N":
                return "unexpected CSV header"
            rows = lines[2:]
            if len(rows) != header["r"] * header["m"] or header["n"] != 65536:
                return f"{len(rows)} rows for r={header['r']}, m={header['m']}"
            if any(int(r.rsplit(",", 1)[1]) < 0 for r in rows):
                return "negative count"
            return ""
        if label == "estimate_onestep":
            obj = json.loads(text)
            theta = obj["theta"]
            se = self.reference["cli_oneshot"]["onestep_se"]
            truth = self.reference["cli_oneshot"]["onestep_theta"]
            for j, (t, t0, s) in enumerate(zip(theta, truth, se)):
                if not abs(t - t0) <= self.ONESTEP_SE * s:
                    return f"theta[{j}] = {t!r} is {abs(t - t0) / s:.1f} SE from {t0!r}"
            return "" if len(theta) == 3 else "theta has wrong length"
        if label == "mc_moments":
            obj = json.loads(text)
            return "" if obj["pass"] else "moments check failed"
        if label == "mc_moments_threads2":
            first = earlier[-1]
            return "" if first is not None and first[1] == out else \
                "output differs from the --threads 1 run"
        raise KeyError(label)


WORKLOADS = {cls.name: cls for cls in (McBlocked, DenseSymbols, CliOneshot)}
