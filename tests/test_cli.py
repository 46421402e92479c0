import contextlib
import hashlib
import io
import json
import math
import os
import re
import resource
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qsts import errors, estimators
from qsts.cli import _write_raw_rows, build_parser, cli_dispatch
from qsts.harness import RngStream
from qsts.measurement import NumberOpSampler
from qsts.spectral import (
    RealParam,
    SpectralDensity,
    eval_density,
    membership,
    parse_density,
    theta2prime_space,
)
from qsts.toeplitz import toeplitz_from_density

ROOT = Path(__file__).resolve().parents[1]
GEOM_DECAY = str(ROOT / "demos" / "densities" / "geom_decay.json")
# at this seed the preliminary estimate lies outside the space, so the one-step
# estimate projects (``prelim_outside_the_space`` shows it)
PROJECTING = ["--seed", "1", "estimate", "onestep", "--density", "cos:2,0.5", "--n", "64",
              "--d", "1", "--M", "5"]


def prelim_outside_the_space():
    """Whether the preliminary estimate of ``PROJECTING`` lies outside its space."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_dispatch([*PROJECTING[:2], "estimate", "prelim", *PROJECTING[4:-2]]) == 0
    theta = np.array(json.loads(out.getvalue())["theta"])
    return not membership(RealParam(1, theta).to_density(), theta2prime_space(1, 5.0)).member


def run(capsys, *argv):
    code = cli_dispatch(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDensityCommands:
    def test_eval(self, capsys):
        code, out, _ = run(capsys, "density", "eval", "--density", "cos:2,0.5",
                           "--omega", "0")
        assert code == 0
        assert float(out.split()[1]) == pytest.approx(2.5, abs=1e-12)

    def test_norms(self, capsys):
        code, out, _ = run(capsys, "density", "norms", "--density", "const:2",
                           "--alpha", "1")
        assert code == 0
        obj = json.loads(out)
        assert obj["norm_sq"] == pytest.approx(4.0)

    def test_membership(self, capsys):
        code, out, _ = run(capsys, "density", "membership", "--density",
                           "cos:2,0.5", "--space", "theta2", "--d", "1",
                           "--M", "5")
        assert code == 0 and json.loads(out)["member"] is True

    def test_membership_sees_a_minimum_between_grid_points(self, capsys, tmp_path):
        # a = 1.6 + 0.5 cos(1024 w) dips to 1.1 at w = pi/1024; a grid of
        # 1024 steps saw only its maximum 2.1 and called it a member
        c = np.zeros(1025)
        c[0], c[1024] = 1.6, 0.25
        path = tmp_path / "k1024.json"
        path.write_text(json.dumps(SpectralDensity(c).to_json()))
        code, out, _ = run(capsys, "density", "membership", "--density", str(path),
                           "--space", "theta2", "--d", "1024", "--M", "5")
        obj = json.loads(out)
        assert code == 0 and obj["member"] is False and obj["constraint"] == "lower_bound"
        assert obj["value"] == pytest.approx(1.1, abs=1e-12)
        assert eval_density(parse_density(str(path)), obj["location"]) == pytest.approx(
            1.1, abs=1e-12)

    def test_bad_density_exit_1(self, capsys):
        code, _, err = run(capsys, "density", "eval", "--density",
                           "cos:2", "--omega", "0")
        assert code == 1 and "cos density" in err


class TestSymbolCommands:
    def test_build_json(self, capsys):
        code, out, _ = run(capsys, "symbol", "build", "--density", "cos:2,0.5",
                           "--n", "3")
        assert code == 0
        obj = json.loads(out)
        assert obj["n"] == 3 and obj["tag"] == "toeplitz"
        assert obj["re"][0][1] == pytest.approx(0.25)

    def test_eigs(self, capsys):
        code, out, _ = run(capsys, "symbol", "eigs",
                           "--density", "const:4", "--m", "3")
        assert code == 0
        assert [float(x) for x in out.split()] == pytest.approx([4.0] * 3)

    def test_gap_passes(self, capsys):
        code, out, _ = run(capsys, "symbol", "gap", "--density", "cos:2,0.5",
                           "--n", "16", "--m", "21", "--alpha", "1")
        assert code == 0 and json.loads(out)["pass"] is True

    def test_bracket(self, capsys):
        code, out, _ = run(capsys, "symbol", "bracket",
                           "--density", "cos:2,0.5", "--n", "16")
        obj = json.loads(out)
        assert code == 0 and obj["pass"] is True
        assert obj["inf_a"] == pytest.approx(1.5, abs=1e-9)


class TestStateCommands:
    def test_entropy_zero(self, capsys):
        code, out, _ = run(capsys, "state", "entropy", "--a1", "const:3",
                           "--a2", "const:3", "--n", "4")
        assert code == 0 and float(out) == pytest.approx(0.0, abs=1e-10)

    def test_entropy_one_mode_value(self, capsys):
        code, out, _ = run(capsys, "state", "entropy", "--a1", "const:3",
                           "--a2", "const:5", "--n", "1")
        assert float(out) == pytest.approx(math.log(9 / 8), abs=1e-12)

    def test_entropy_of_distant_one_mode_symbols(self, capsys):
        # printed nan, after numpy's divide-by-zero warning, when the subtractive
        # KL form rounded (a1 - a2)/(a2 + 1) to -1
        code, out, err = run(capsys, "state", "entropy", "--a1", "const:1.0001",
                             "--a2", "const:1e300", "--n", "1")
        assert (code, out, err) == (0, "690.081835542026\n", "")

    def test_not_faithful_exit_2(self, capsys):
        code, _, err = run(capsys, "state", "entropy", "--a1", "const:1",
                           "--a2", "const:3", "--n", "2")
        assert code == 2 and "NotFaithful" in err

    def test_json_errors(self, capsys):
        code, _, err = run(capsys, "--json-errors", "state", "entropy",
                           "--a1", "const:1", "--a2", "const:3", "--n", "2")
        assert code == 2
        obj = json.loads(err)
        assert obj["error"] == "NotFaithful" and obj["exit_code"] == 2


class TestDistCommands:
    def test_chernoff_agreement(self, capsys):
        code, out, _ = run(capsys, "dist", "chernoff", "--a0", "const:2",
                           "--a1", "const:4", "--quantum", "--classical",
                           "--t", "0.5")
        obj = json.loads(out)
        assert code == 0
        assert obj["quantum"] == pytest.approx(obj["classical"], abs=1e-8)

    def test_chernoff_infimum(self, capsys):
        code, out, _ = run(capsys, "dist", "chernoff", "--a0", "const:2",
                           "--a1", "const:4")
        obj = json.loads(out)
        assert obj["quantum_inf"] == pytest.approx(obj["classical_inf"], abs=1e-8)

    @pytest.mark.parametrize("flags", [[], ["--classical"]])
    def test_chernoff_of_a_huge_symbol(self, capsys, flags):
        # (a0 + 1) - (a0 - 1) rounded to 0 at t = 1: this exited 1 with a math domain error
        code, out, _ = run(capsys, "dist", "chernoff", "--a0", "const:1e300",
                           "--a1", "const:3", *flags)
        obj = json.loads(out)
        assert code == 0
        assert sorted(obj) == (["classical_inf", "classical_t"] if flags else
                               ["classical_inf", "classical_t", "quantum_inf", "quantum_t"])
        assert all(v == pytest.approx(-682.17955920310225, rel=1e-13)
                   for k, v in obj.items() if k.endswith("_inf"))

    def test_chernoff_of_equal_symbols_prints_plus_zero(self, capsys):
        code, out, _ = run(capsys, "dist", "chernoff", "--a0", "cos:2,0.5", "--a1", "cos:2,0.5")
        obj = json.loads(out)
        assert code == 0 and obj["classical_inf"] == 0.0 and obj["quantum_inf"] == 0.0
        assert "-0.0" not in out

    def test_hellinger(self, capsys):
        code, out, _ = run(capsys, "dist", "hellinger", "--lam", "2",
                           "--mu", "3")
        obj = json.loads(out)
        assert obj["h2_bound"] == pytest.approx(0.5)
        assert obj["h2_exact"] < obj["h2_bound"]

    def test_varstab(self, capsys):
        code, out, _ = run(capsys, "dist", "varstab", "--a", "2")
        obj = json.loads(out)
        assert obj["residual"] < 1e-12


class TestSimulateAndEstimate:
    def test_measure_file_bytes_are_pinned(self, tmp_path, capsys):
        # SHA-256 of the file as the per-entry writer produced it
        out = tmp_path / "m.csv"
        code, _, _ = run(capsys, "--seed", "5", "--no-timestamp", "simulate", "measure",
                         "--density", "cos:2,0.5", "--n", "65536", "--out", str(out))
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "21cab9b38e9d341366d1263500aec29867cc60a529ded793d99b21b75a2679d0")

    def test_measure_deterministic(self, tmp_path, capsys):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for f, threads in ((f1, "1"), (f2, "4")):
            code, _, _ = run(capsys, "--seed", "7", "--threads", threads,
                             "--no-timestamp", "simulate", "measure",
                             "--density", "cos:2,0.5", "--n", "64", "--d", "1",
                             "--out", str(f))
            assert code == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_geo_seeded(self, capsys):
        code, out1, _ = run(capsys, "--seed", "3", "simulate", "geo",
                            "--density", "const:3", "--n", "10")
        code, out2, _ = run(capsys, "--seed", "3", "simulate", "geo",
                            "--density", "const:3", "--n", "10")
        assert out1 == out2 and out1.startswith("j,X")

    def test_geo_at_a_symbol_above_two_to_the_53(self, capsys):
        # p = (a - 1)/(a + 1) rounds to 1 there, and numpy refused 1 - p = 0
        code, out, err = run(capsys, "--seed", "1", "--no-timestamp", "simulate", "geo",
                             "--density", "const:1e17", "--n", "5")
        assert code == 0 and err == ""
        draws = [int(line.split(",")[1]) for line in out.splitlines()[1:]]
        assert len(draws) == 5 and min(draws) >= 0

    def test_env_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("QSTS_SEED", "99")
        _, out1, _ = run(capsys, "simulate", "geo", "--density", "const:3",
                         "--n", "10")
        _, out2, _ = run(capsys, "--seed", "99", "simulate", "geo",
                         "--density", "const:3", "--n", "10")
        assert out1 == out2

    def test_estimate_prelim_json(self, capsys):
        code, out, _ = run(capsys, "--seed", "5", "estimate", "prelim",
                           "--density", "cos:2,0.5", "--n", "256", "--d", "1")
        obj = json.loads(out)
        assert code == 0
        assert set(obj) == {"theta", "d", "n", "m", "r", "seed"}
        assert len(obj["theta"]) == 3

    def test_estimate_onestep(self, capsys):
        code, out, _ = run(capsys, "--seed", "5", "estimate", "onestep",
                           "--density", "cos:2,0.5", "--n", "256", "--d", "1",
                           "--M", "5")
        assert code == 0
        assert abs(json.loads(out)["theta"][1] - 2.0) < 0.5

    def test_estimate_nonparam(self, capsys):
        code, out, _ = run(capsys, "--seed", "5", "estimate", "nonparam",
                           "--density", "const:3", "--n", "257", "--d-n", "4")
        obj = json.loads(out)
        assert code == 0 and obj["K_max"] == 4

    def test_wn_csv(self, capsys):
        code, out, _ = run(capsys, "--seed", "2", "simulate", "wn",
                           "--density", "cos:2,0.5", "--n", "64", "--L", "128")
        lines = out.strip().split("\n")
        assert code == 0 and lines[0] == "omega,cumulative"
        assert len(lines) == 130


class TestAuditCommands:
    def test_chain(self, capsys):
        code, out, _ = run(capsys, "audit", "chain", "--density", "cos:2,0.5",
                           "--n-list", "65,129")
        assert code == 0
        assert out.startswith("label,n,m,value,bound,pass")

    def test_state_json(self, tmp_path, capsys):
        dens = tmp_path / "lifted.json"
        from qsts.spectral import SpectralDensity
        import numpy as np
        lifted = SpectralDensity(
            np.concatenate([[2.0], [2.0 ** -k for k in range(1, 11)]]).astype(complex))
        dens.write_text(json.dumps(lifted.to_json()))
        code, out, _ = run(capsys, "audit", "state", "--density", str(dens),
                           "--n", "32", "--m", "35,39", "--format", "json")
        assert code == 0
        obj = json.loads(out)
        assert obj["rows"] and all(r["pass"] for r in obj["rows"])

    def test_sufficiency(self, capsys):
        code, out, _ = run(capsys, "--seed", "11", "audit", "sufficiency",
                           "--p", "0.5", "--draws", "20000")
        assert code == 0 and json.loads(out)["p_value"] > 0.001

    @pytest.mark.parametrize("seed", ["2", "7"])
    def test_sufficiency_on_degenerate_and_sparse_samples(self, seed, capsys):
        code, out, err = run(capsys, "--seed", seed, "audit", "sufficiency",
                             "--p", "0.01", "--draws", "1")
        assert (code, out) == (2, "") and "DegenerateSamples" in err
        code, out, _ = run(capsys, "--seed", seed, "audit", "sufficiency",
                           "--p", "0.99", "--draws", "20")

        def no_constants(name):
            raise ValueError(f"{name} is not JSON")

        obj = json.loads(out, parse_constant=no_constants)
        assert code == (0 if obj["pass"] else 3)


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"density": "const:3", "bogus": 1}))
        code, _, err = run(capsys, "--config", str(cfg), "density", "eval",
                           "--density", "const:3", "--omega", "0")
        assert code == 1 and "bogus" in err

    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 42}))
        _, out1, _ = run(capsys, "--config", str(cfg), "simulate", "geo",
                         "--density", "const:3", "--n", "10")
        _, out2, _ = run(capsys, "--seed", "42", "simulate", "geo",
                         "--density", "const:3", "--n", "10")
        assert out1 == out2


class TestMcCommands:
    def test_moments_small(self, capsys):
        code, out, _ = run(capsys, "--seed", "3", "mc", "moments",
                           "--density", "cos:2,0.5", "--m", "5",
                           "--replicates", "4000")
        assert code == 0 and json.loads(out)["pass"] is True

    def test_moments_thread_invariance(self, capsys):
        _, out1, _ = run(capsys, "--seed", "3", "--threads", "1", "mc",
                         "moments", "--density", "const:3", "--m", "3",
                         "--replicates", "1000")
        _, out2, _ = run(capsys, "--seed", "3", "--threads", "3", "mc",
                         "moments", "--density", "const:3", "--m", "3",
                         "--replicates", "1000")
        assert out1 == out2

    def test_moments_raw_rows_are_one_batch(self, tmp_path, capsys):
        seed, density, m, replicates = 3, "cos:2,0.5", 5, 4000
        raw = tmp_path / "raw.csv"
        code, out, _ = run(capsys, "--seed", str(seed), "mc", "moments",
                           "--density", density, "--m", str(m),
                           "--replicates", str(replicates), "--raw-out", str(raw))
        A = toeplitz_from_density(parse_density(density), m)
        expect = 2 * NumberOpSampler(A).draw(RngStream(seed, 0), size=replicates) + 1
        lines = raw.read_text().splitlines()
        assert lines[0] == "replicate,coordinate,value"
        values = np.array([float(ln.rsplit(",", 1)[1]) for ln in lines[1:]])
        assert np.array_equal(values.reshape(replicates, m), expect)
        assert code == 0 and json.loads(out)["empirical_mean"] == list(expect.mean(axis=0))

    @staticmethod
    def per_entry_raw_rows(path, rows):
        """The earlier --raw-out writer: one write and one numpy scalar read per entry."""
        with open(path, "w") as fh:
            fh.write("replicate,coordinate,value\n")
            for i in range(rows.shape[0]):
                for j in range(rows.shape[1]):
                    fh.write(f"{i + 1},{j},{float(rows[i, j])!r}\n")

    @pytest.mark.parametrize("shape", [(1, 1), (3, 5), (20000, 7)])
    def test_raw_rows_bytes_equal_the_per_entry_writer(self, tmp_path, shape):
        gen = np.random.default_rng(31)
        rows = gen.standard_normal(shape) * 10.0 ** gen.integers(-300, 300, shape)
        rows.flat[::7] = np.array([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1.0, 0.1])[
            :rows.flat[::7].size]
        _write_raw_rows(tmp_path / "new.csv", rows)
        self.per_entry_raw_rows(tmp_path / "old.csv", rows)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_normality_raw_rows(self, tmp_path, capsys):
        argv = ["--seed", "2", "mc", "normality", "--density", "cos:2,0.5", "--n", "64",
                "--d", "1", "--replicates", "500", "--frob-tol", "1"]
        raw = tmp_path / "raw.csv"
        code, out, _ = run(capsys, *argv, "--raw-out", str(raw))
        assert (code, out) == run(capsys, *argv)[:2]
        lines = raw.read_text().splitlines()
        assert lines[0] == "replicate,coordinate,value" and len(lines) == 1 + 500 * 3
        assert [ln.split(",")[:2] for ln in lines[1:4]] == [["1", "0"], ["1", "1"], ["1", "2"]]
        assert lines[-1].startswith("500,2,")

    def test_moments_one_replicate_exits_1(self, capsys):
        code, out, err = run(capsys, "mc", "moments", "--density", "const:3",
                             "--m", "3", "--replicates", "1")
        assert code == 1 and out == "" and "RangeError" in err


class TestBatchMemory:
    """The sampling commands hold about two copies of their batch at their peak.

    tracemalloc peak of one in-process call after a warm one; the earlier code,
    which held three to five copies, read 7.65, 7.64, 6.28 and 4.69 MiB.
    """

    @pytest.mark.parametrize("argv, mib", [
        (["mc", "moments", "--density", "cos:2,0.5", "--m", "7", "--replicates", "20000"], 5.0),
        (["mc", "moments", "--density", "cos:2,0.5", "--m", "7", "--replicates", "20000",
          "--raw-out", "{out}"], 5.0),
        (["audit", "chain", "--density", "cos:2,0.5", "--n-list", "65,129,257,513"], 4.5),
        (["simulate", "measure", "--density", "cos:2,0.5", "--n", "65536", "--out", "{out}"], 3.5),
    ], ids=["mc_moments", "mc_moments_raw_out", "audit_chain", "simulate_measure"])
    def test_peak_traced_memory(self, tmp_path, capsys, argv, mib):
        argv = ["--seed", "1", "--no-timestamp"] + [
            str(tmp_path / "out.csv") if a == "{out}" else a for a in argv]
        assert run(capsys, *argv)[0] == 0
        tracemalloc.start()
        try:
            code = cli_dispatch(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0 and peak <= mib * 2 ** 20, peak / 2 ** 20


_NO_SCIPY_SCRIPT = """
import io, json, sys
def scipy_modules():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
seen = {}
import qsts
seen["import qsts"] = scipy_modules()
import qsts.cli
seen["import qsts.cli"] = scipy_modules()
for argv in json.loads(sys.argv[1]):
    sys.stdout = io.StringIO()
    code = qsts.cli.cli_dispatch(argv)
    sys.stdout = sys.__stdout__
    seen[" ".join(argv[2:4] if argv[0] == "--seed" else argv[:2])] = [code] + scipy_modules()
print(json.dumps(seen))
"""


def test_no_scipy_module_at_import_or_in_light_commands():
    """Structural: importing the CLI and running these commands loads no scipy module."""
    commands = [
        ["symbol", "bracket", "--density", "cos:2,0.5", "--n", "16"],
        ["state", "entropy", "--a1", "const:2", "--a2", "const:3", "--n", "1"],
        ["audit", "state", "--density", GEOM_DECAY, "--n", "16"],
        ["mc", "moments", "--density", "cos:2,0.5", "--m", "5", "--replicates", "200"],
        # the full-length draw's FFTs stay on numpy.fft
        ["estimate", "nonparam", "--density", "cos:2,0.5", "--n", "1025", "--d-n", "3"],
        # the chi-square tail and quantile are closed form, log-gamma is math.lgamma
        ["audit", "chain", "--density", "cos:2,0.5", "--n-list", "65,129"],
        ["audit", "sufficiency", "--p", "0.5"],
        ["dist", "hellinger", "--lam", "2", "--mu", "3", "--r", "1.5", "--r2", "2.5"],
        ["simulate", "measure", "--density", "cos:2,0.5", "--n", "256"],
        # normal cdf and Kolmogorov quantile are closed form; n = 4096 never projects
        ["mc", "normality", "--density", "cos:2,0.5", "--n", "4096", "--d", "1",
         "--replicates", "500"],
        # the projection's active-set loop is numpy alone
        PROJECTING,
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    assert prelim_outside_the_space()
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_SCRIPT, json.dumps(commands)],
                          env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    seen = json.loads(proc.stdout)
    assert seen == {"import qsts": [], "import qsts.cli": [], "symbol bracket": [0],
                    "state entropy": [0], "audit state": [0], "mc moments": [0],
                    "estimate nonparam": [0], "audit chain": [0], "audit sufficiency": [0],
                    "dist hellinger": [0], "simulate measure": [0], "mc normality": [3],
                    "estimate onestep": [0]}


def test_nonparam_estimate_far_past_a_dense_symbol():
    """At n = 65537 the symbol A_n would take 68 GB; the draw needs only its lags."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    limit = 2 * 2 ** 30   # address space: a dense n x n regression fails fast

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run([sys.executable, "-m", "qsts.cli", "--seed", "2", "estimate",
                           "nonparam", "--density", "cos:2,0.5", "--n", "65537", "--d-n", "3"],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=300,
                          preexec_fn=cap_memory)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout)["n"] == 65537


def test_circulant_eigs_far_past_a_dense_circulant():
    """At m = 100001 the dense circulant would take 160 GB; the eigenvalues need only its lags."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    limit = 2 * 2 ** 30   # address space: a dense m x m regression fails fast

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run([sys.executable, "-m", "qsts.cli", "symbol", "eigs",
                           "--density", "cos:2,0.5", "--m", "100001"],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=300,
                          preexec_fn=cap_memory)
    assert proc.returncode == 0, proc.stderr[-2000:]
    eigs = np.array(proc.stdout.split(), dtype=float)
    assert eigs.size == 100001 and eigs.min() >= 1.5 and eigs.max() <= 2.5


def test_symbol_gap_far_past_a_dense_symbol():
    """At n = 100001 a dense A_n - block difference would take 149 GiB; the gap needs only lags."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    limit = 2 * 2 ** 30   # address space: a dense n x n regression fails fast

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = subprocess.run([sys.executable, "-m", "qsts.cli", "symbol", "gap",
                           "--density", "cos:2,0.5", "--n", "100001", "--m", "100003"],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=300,
                          preexec_fn=cap_memory)
    assert proc.returncode == 0, proc.stderr[-2000:]
    obj = json.loads(proc.stdout)
    assert obj["pass"] and obj["hs_sq"] == 0.0


def _text_file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _json_file(tmp_path, name, obj):
    return _text_file(tmp_path, name, json.dumps(obj))


def _config(tmp_path, obj):
    return _json_file(tmp_path, "cfg.json", obj)


EXIT_CASES = {
    "success": (0, ["dist", "varstab", "--a", "2"]),
    "bad_input": (1, ["density", "eval", "--density", "cos:2", "--omega", "0"]),
    "usage": (1, ["density", "eval", "--omega", "0"]),
    "overflow": (1, ["symbol", "build", "--density", "const:1.5e308", "--n", "2"]),
    "config_schema": (1, ["--config", "{cfg}", "dist", "varstab", "--a", "2"]),
    "config_unreadable": (1, ["--config", "{absent}", "dist", "varstab", "--a", "2"]),
    "config_invalid_json": (1, ["--config", "{bad_json}", "dist", "varstab", "--a", "2"]),
    "config_not_an_object": (1, ["--config", "{list_cfg}", "dist", "varstab", "--a", "2"]),
    "config_flag_not_boolean": (1, ["--config", "{flag_cfg}", "dist", "varstab", "--a", "2"]),
    # a seed that SeedSequence refuses, from --seed or from the environment
    "negative_seed": (1, ["--seed", "-3", "simulate", "geo", "--density", "cos:2,0.5",
                          "--n", "3"]),
    "negative_env_seed": (1, ["QSTS_SEED=-3", "simulate", "geo", "--density", "cos:2,0.5",
                              "--n", "3"]),
    "non_numeric_omega": (1, ["density", "eval", "--density", "cos:2,0.5", "--omega", "abc"]),
    "density_json_missing_key": (1, ["density", "eval", "--density", "{no_im}",
                                     "--omega", "0"]),
    "density_json_bare_coeff": (1, ["density", "eval", "--density", "{bare}",
                                    "--omega", "0"]),
    "density_json_huge_k_max": (1, ["density", "eval", "--density", "{huge}",
                                    "--omega", "0"]),
    "density_json_negative_k_max": (1, ["density", "eval", "--density", "{negative}",
                                        "--omega", "0"]),
    "density_json_duplicate_lag": (1, ["density", "eval", "--density", "{duplicate}",
                                       "--omega", "0"]),
    # float options refuse nan and inf, which pass every x <= limit check
    "nan_radius": (1, ["density", "membership", "--density", "const:0.5",
                       "--space", "theta2", "--M", "nan"]),
    "nan_radius_config": (1, ["--config", "{nan_cfg}", "density", "membership",
                              "--density", "const:0.5", "--space", "theta2"]),
    # below M = 2.1479 no density clears both a_0^2 <= M and a >= 1 + 1/M
    "empty_space": (1, ["density", "membership", "--density", "const:2",
                        "--space", "theta2", "--d", "1", "--M", "2"]),
    # a negative bandwidth or draw count is refused, not left to numpy
    "negative_space_bandwidth": (1, ["density", "membership", "--density", "cos:2,0.5",
                                     "--space", "theta2", "--d", "-1", "--M", "5"]),
    "negative_design_bandwidth": (1, ["estimate", "nonparam", "--density", "cos:2,0.5",
                                      "--n", "65", "--d-n", "-1"]),
    "no_sufficiency_draws": (1, ["audit", "sufficiency", "--draws", "0"]),
    # n = 0 once divided by zero, n = -1 took sqrt(2 pi / n) or a complex cube root
    "white_noise_n_zero": (1, ["simulate", "wn", "--density", "cos:2,0.5", "--n", "0"]),
    "white_noise_n_negative": (1, ["simulate", "wn", "--density", "cos:2,0.5", "--n", "-1"]),
    "audit_state_n_negative": (1, ["audit", "state", "--density", "cos:2,0.5", "--n", "-1"]),
    # no odd m with n < m < 2 (n - 1) exists for n = 2
    "audit_state_no_default_m": (1, ["audit", "state", "--density", "cos:2,0.5", "--n", "2"]),
    # a = 1.2 + 0.5 cos w dips to 0.7, where arccosh is undefined
    "white_noise_drift_below_one": (1, ["simulate", "wn", "--density", "cos:1.2,0.5",
                                        "--n", "16", "--L", "64"]),
    "white_noise_center_below_one": (1, ["simulate", "wn", "--density", "cos:2,0.5",
                                         "--n", "16", "--L", "64", "--transform", "local",
                                         "--center", "const:0.5"]),
    "white_noise_local_without_center": (1, ["simulate", "wn", "--density", "cos:2,0.5",
                                             "--n", "16", "--L", "64",
                                             "--transform", "local"]),
    # a ladder out of order once failed its decay row (exit 3) with no bound violated
    "audit_chain_decreasing": (1, ["audit", "chain", "--density", "cos:2,0.5",
                                   "--n-list", "65,33"]),
    "audit_chain_repeated": (1, ["audit", "chain", "--density", "cos:2,0.5",
                                 "--n-list", "65,65"]),
    # symbols at 1 or near the float limit: a typed error or finite values, no traceback
    "hellinger_symbol_at_one": (1, ["dist", "hellinger", "--lam", "1", "--mu", "2"]),
    "hellinger_huge_symbol": (0, ["dist", "hellinger", "--lam", "1e308", "--mu", "2"]),
    "hellinger_huge_symbol_nb": (0, ["dist", "hellinger", "--lam", "2", "--mu", "1e308",
                                     "--r", "1"]),
    "varstab_huge_symbol": (1, ["dist", "varstab", "--a", "1e100"]),
    "nan_smoothness": (1, ["symbol", "gap", "--density", "cos:2,0.5", "--n", "20",
                           "--m", "25", "--alpha", "nan"]),
    "nan_audit_radius": (1, ["audit", "state", "--density", "cos:2,0.5", "--n", "64",
                             "--M", "nan"]),
    "non_finite_omega": (1, ["density", "eval", "--density", "cos:2,0.5",
                             "--omega", "nan", "inf"]),
    "numerical": (2, ["state", "entropy", "--a1", "const:1", "--a2", "const:3",
                      "--n", "2"]),
    # a_min - 1 = 1e-12: the lags of 1/(a^2 - 1) need more than spectral._GRID_CAP points
    "phi_grid_cap": (2, ["mc", "normality", "--density", "cos:1.500000000001,0.5",
                         "--n", "64", "--d", "1", "--replicates", "500"]),
    # a_min - 1 = 1e-13: the Chernoff quadrature needs more than spectral._GRID_CAP points
    "chernoff_grid_cap": (2, ["dist", "chernoff", "--a0", "cos:1.5000000000001,0.5",
                              "--a1", "const:3"]),
    # an option that another one qualifies is refused without it, not dropped
    "r2_without_r": (1, ["dist", "hellinger", "--lam", "2", "--mu", "3", "--r2", "2.5"]),
    "center_without_local": (1, ["simulate", "wn", "--density", "cos:2,0.5", "--n", "16",
                                 "--L", "64", "--center", "cos:2,0.4"]),
    "audit": (3, ["symbol", "gap", "--density", GEOM_DECAY, "--n", "16", "--m", "19",
                  "--alpha", "1", "--M", "1e-9"]),
}


class TestExitCodes:
    @pytest.mark.parametrize("case", sorted(EXIT_CASES))
    def test_exit_code_and_json_error(self, case, tmp_path, capsys, monkeypatch):
        expect, argv = EXIT_CASES[case]
        files = {"{cfg}": _config(tmp_path, {"bogus": 1}),
                 "{nan_cfg}": _json_file(tmp_path, "nan_cfg.json", {"M": math.nan}),
                 "{absent}": str(tmp_path / "absent.json"),
                 "{bad_json}": _text_file(tmp_path, "bad.json", "{"),
                 "{list_cfg}": _json_file(tmp_path, "list.json", [{"a": 2}]),
                 "{flag_cfg}": _json_file(tmp_path, "flag.json", {"no_timestamp": "yes"}),
                 "{no_im}": _json_file(tmp_path, "no_im.json",
                                       {"K_max": 1, "coeffs": [{"k": 0, "re": 2.0}]}),
                 "{bare}": _json_file(tmp_path, "bare.json", {"K_max": 1, "coeffs": [3]}),
                 # K_max beyond the stored lags would allocate 1.42 PiB
                 "{huge}": _json_file(tmp_path, "huge.json",
                                      {"K_max": 10 ** 14, "coeffs": []}),
                 "{negative}": _json_file(tmp_path, "negative.json",
                                          {"K_max": -5, "coeffs": [{"k": 0, "re": 2.0,
                                                                    "im": 0.0}]}),
                 # lag 0 twice and lag 1 not at all
                 "{duplicate}": _json_file(tmp_path, "duplicate.json",
                                           {"K_max": 1, "coeffs": [
                                               {"k": 0, "re": 2.0, "im": 0.0},
                                               {"k": 0, "re": 3.0, "im": 0.0}]})}
        argv = [files.get(a, a) for a in argv]
        if argv[0].startswith("QSTS_SEED="):   # an environment prefix, as in a shell
            monkeypatch.setenv("QSTS_SEED", argv.pop(0).split("=", 1)[1])
        code, _, err = run(capsys, *argv)
        assert code == expect
        assert (err == "") == (expect == 0)
        code, _, err = run(capsys, "--json-errors", *argv)
        assert code == expect
        lines = err.splitlines()
        if expect == 0:
            assert lines == []
        else:
            obj = json.loads(lines[0])
            assert len(lines) == 1 and obj["exit_code"] == expect
            # the error is the package's own class for that exit code, not a bare ValueError
            cls = getattr(errors, obj["error"], None)
            assert isinstance(cls, type) and issubclass(cls, errors.QstsError), obj
            assert cls.exit_code == expect

    def test_exhausted_projection_budget_is_a_numerical_failure(self, capsys, monkeypatch):
        # a solver that gave up with a bare RuntimeError once ended in a traceback
        assert prelim_outside_the_space()
        monkeypatch.setattr(estimators, "_PROJECTION_STEPS", 0)
        code, out, err = run(capsys, *PROJECTING)
        assert (code, out) == (2, "") and err.startswith("qsts: NonConvergence:")
        code, out, err = run(capsys, "--json-errors", *PROJECTING)
        lines = err.splitlines()
        assert (code, out, len(lines)) == (2, "", 1)
        obj = json.loads(lines[0])
        assert (obj["error"], obj["exit_code"]) == ("NonConvergence", 2)
        assert "_PROJECTION_STEPS = 0" in obj["message"]

    def test_non_finite_density_json_is_input_error(self, tmp_path, capsys):
        # json.load accepts NaN, and such a file was once reported a member
        path = _json_file(tmp_path, "nan.json", {"K_max": 1, "coeffs": [
            {"k": 0, "re": 2.0, "im": 0.0}, {"k": 1, "re": math.nan, "im": 0.0}]})
        code, out, err = run(capsys, "--json-errors", "density", "membership",
                             "--density", path, "--M", "5", "--space", "theta2", "--d", "1")
        obj = json.loads(err)
        assert (code, out) == (1, "")
        assert obj["error"] == "InputError" and "finite" in obj["message"]


D = ["--density", "cos:2,0.5"]
# one valid argument set per registered command, each run in well under a second
SWEEP_BASES = {
    ("density", "eval"): [*D, "--omega", "0"],
    ("density", "norms"): [*D, "--alpha", "1"],
    ("density", "membership"): [*D, "--space", "theta2", "--M", "5"],
    ("symbol", "build"): [*D, "--n", "5", "--circulant"],
    ("symbol", "eigs"): [*D, "--m", "5"],
    ("symbol", "gap"): [*D, "--n", "20", "--m", "25"],
    ("symbol", "bracket"): [*D, "--n", "4"],
    ("state", "entropy"): ["--a1", "cos:2,0.5", "--a2", "const:3", "--n", "4"],
    ("state", "pinsker"): ["--a1", "cos:2,0.5", "--a2", "const:3", "--n", "4"],
    ("state", "bound"): ["--a1", "const:3", "--a2", "const:4", "--n", "4", "--lam", "0.75"],
    ("dist", "hellinger"): ["--lam", "2", "--mu", "3"],
    ("dist", "chernoff"): ["--a0", "const:2", "--a1", "const:3"],
    ("dist", "varstab"): ["--a", "2"],
    ("simulate", "geo"): [*D, "--n", "10"],
    ("simulate", "wn"): [*D, "--n", "16", "--L", "64"],
    ("simulate", "measure"): [*D, "--n", "16", "--d", "1"],
    ("estimate", "prelim"): [*D, "--n", "65", "--d", "1"],
    ("estimate", "onestep"): [*D, "--n", "65", "--d", "1", "--M", "5"],
    ("estimate", "nonparam"): [*D, "--n", "65", "--d-n", "1"],
    ("audit", "chain"): [*D, "--n-list", "9,17"],
    ("audit", "state"): [*D, "--n", "16"],
    ("audit", "sufficiency"): ["--draws", "500"],
    ("mc", "normality"): [*D, "--n", "64", "--d", "1", "--replicates", "500",
                          "--frob-tol", "1"],
    ("mc", "moments"): [*D, "--m", "5", "--replicates", "20"],
}
# integer sizes at 0 and -1, bandwidths (0 is valid) at -1, ladders not increasing
SIZE_VALUES = {"--n": ("0", "-1"), "--m": ("0", "-1"), "--L": ("0", "-1"),
               "--draws": ("0", "-1"), "--replicates": ("0", "-1"),
               "--d": ("-1",), "--d-n": ("-1",), "--n-list": ("9,9", "17,9")}
SIZE_CASES = [(key, flag, value)
              for key, parser in build_parser().commands.items()
              for action in parser._actions
              for flag in action.option_strings if flag in SIZE_VALUES
              for value in SIZE_VALUES[flag]]


def _with(argv, flag, value):
    """argv with ``flag`` set to ``value``: replaced where it is given, else appended."""
    if flag in argv:
        i = argv.index(flag) + 1
        return [*argv[:i], value, *argv[i + 1:]]
    return [*argv, flag, value]


class TestSizeSweep:
    """No size value escapes the CLI as a traceback, a bare ValueError or an audit failure."""

    def test_every_command_has_a_valid_base(self, capsys):
        assert set(SWEEP_BASES) == set(build_parser().commands)
        for key, argv in SWEEP_BASES.items():
            assert run(capsys, *key, *argv)[0] == 0, key

    @pytest.mark.parametrize("key, flag, value", SIZE_CASES,
                             ids=[f"{g}-{c}{f}={v}" for (g, c), f, v in SIZE_CASES])
    def test_size_value_is_an_input_error(self, key, flag, value, capsys):
        code, _, err = run(capsys, "--json-errors", *key, *_with(SWEEP_BASES[key], flag, value))
        assert_one_input_error(code, err)


def assert_one_input_error(code, err):
    """Exit 1 with exactly one JSON line on stderr that names an InputError subclass."""
    lines = err.splitlines()
    assert (code, len(lines)) == (1, 1), err
    obj = json.loads(lines[0])
    assert set(obj) == {"error", "message", "exit_code"} and obj["exit_code"] == 1
    cls = getattr(errors, obj["error"], None)
    assert isinstance(cls, type) and issubclass(cls, errors.InputError), obj


# a malformed number (argparse names the option), a malformed shorthand and a missing
# file (parse_density's own messages)
DENSITY_VALUES = ("cos:x,1", "const:", "cos:1", "{missing}")
DENSITY_CASES = [(key, action.option_strings[0], value)
                 for key, parser in build_parser().commands.items()
                 for action in parser._actions if action.type is parse_density
                 for value in DENSITY_VALUES]


class TestDensitySweep:
    """No density or seed text escapes the CLI as anything but an InputError."""

    def test_every_density_option_is_typed(self):
        options = {(key, flag) for key, flag, _ in DENSITY_CASES}
        assert len(options) == 26
        assert {flag for _, flag in options} == {"--density", "--a0", "--a1", "--a2",
                                                 "--center"}

    @pytest.mark.parametrize("key, flag, value", DENSITY_CASES,
                             ids=[f"{g}-{c}{f}={v}" for (g, c), f, v in DENSITY_CASES])
    def test_density_value_is_an_input_error(self, key, flag, value, tmp_path, capsys):
        argv = SWEEP_BASES[key]
        if flag == "--center":
            argv = _with(argv, "--transform", "local")
        value = str(tmp_path / "absent.json") if value == "{missing}" else value
        code, _, err = run(capsys, "--json-errors", *key, *_with(argv, flag, value))
        assert_one_input_error(code, err)

    @pytest.mark.parametrize("value", ["abc", "1.5"])
    def test_environment_seed_is_an_input_error(self, value, capsys, monkeypatch):
        monkeypatch.setenv("QSTS_SEED", value)
        code, _, err = run(capsys, "--json-errors", "simulate", "geo",
                           *SWEEP_BASES["simulate", "geo"])
        assert_one_input_error(code, err)
        assert "--seed" in json.loads(err)["message"]


class TestConfigPrecedence:
    def test_command_line_beats_config_in_every_spelling(self, tmp_path, capsys):
        cfg = _config(tmp_path, {"density": "const:5"})
        for argv in (["--density=const:3"], ["--density", "const:3"], ["--dens", "const:3"]):
            code, out, _ = run(capsys, "--config", cfg, "density", "eval", *argv,
                               "--omega", "0")
            assert code == 0 and float(out.split()[1]) == 3.0
        code, out, _ = run(capsys, "--config", cfg, "density", "eval", "--omega", "0")
        assert code == 0 and float(out.split()[1]) == 5.0

    def test_key_without_option_is_schema_error(self, tmp_path, capsys):
        cfg = _config(tmp_path, {"density2": "const:3"})
        code, _, err = run(capsys, "--json-errors", "--config", cfg, "density", "eval",
                           "--density", "const:3", "--omega", "0")
        obj = json.loads(err)
        assert code == 1 and obj["error"] == "SchemaError" and "density2" in obj["message"]

    def test_frob_tol_key_takes_effect(self, tmp_path, capsys):
        argv = ["--seed", "4", "mc", "normality", "--density", "cos:2,0.5", "--n", "64",
                "--d", "1", "--replicates", "500"]
        code, out, _ = run(capsys, "--config", _config(tmp_path, {"frob_tol": 0.0}), *argv)
        assert code == 3 and json.loads(out)["pass"] is False
        # with the Frobenius limit out of reach, the verdict is the KS tests'
        code, out, _ = run(capsys, "--config", _config(tmp_path, {"frob_tol": 10.0}), *argv)
        assert (code, out) == run(capsys, *argv, "--frob-tol", "10")[:2]
        report = json.loads(out)
        assert report["pass"] == all(ks < report["ks_critical"] for ks in report["ks_stats"])
        assert code == (0 if report["pass"] else 3)

    def test_no_timestamp_key_takes_effect(self, tmp_path, capsys):
        argv = ["audit", "chain", "--density", "cos:2,0.5", "--n-list", "65",
                "--format", "json"]
        _, stamped, _ = run(capsys, *argv)
        code, out, _ = run(capsys, "--config", _config(tmp_path, {"no_timestamp": True}),
                           *argv)
        _, flag, _ = run(capsys, "--no-timestamp", *argv)
        assert code == 0 and out == flag
        assert "written" not in json.loads(out)["meta"]
        assert "written" in json.loads(stamped)["meta"]

    def test_value_outside_choices_rejected(self, tmp_path, capsys):
        cfg = _config(tmp_path, {"format": "xml"})
        code, _, err = run(capsys, "--config", cfg, "audit", "chain", "--density",
                           "cos:2,0.5", "--n-list", "65")
        assert code == 1 and "format" in err

    def test_seed_order(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("QSTS_SEED", "99")
        cfg = _config(tmp_path, {"seed": 42})
        geo = ["simulate", "geo", "--density", "const:3", "--n", "10"]
        outs = {}
        for name, argv in (("flag", ["--seed", "5", "--config", cfg]),
                           ("flag_last", ["--config", cfg, "--seed", "5"]),
                           ("config", ["--config", cfg]), ("env", []),
                           ("s5", ["--seed", "5"]), ("s42", ["--seed", "42"])):
            outs[name] = run(capsys, *argv, *geo)[1]
        assert outs["flag"] == outs["flag_last"] == outs["s5"]
        assert outs["config"] == outs["s42"] != outs["env"]


def test_readme_commands_parse(monkeypatch):
    monkeypatch.chdir(ROOT)   # a density path in the README is relative to the repository
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## CLI", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = [ln for ln in block.splitlines() if ln.startswith("qsts ")]
    assert lines
    for line in lines:
        args = build_parser().parse_args(shlex.split(line)[1:])
        assert callable(args.fn)
