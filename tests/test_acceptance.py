"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
Criteria 9 and 10 compare finite-block covariances against their infinite-m
limits; the block size grows only logarithmically, so the deterministic
taper-compensation error exceeds the stated tolerance at every reachable
size.  They are implemented exactly as stated and are expected to fail;
see the companion exact-target tests at the bottom for the green
counterpart evidence.
"""

import json
import math
import time

import numpy as np
import pytest

from qsts.distributions import (
    chernoff_geo,
    chernoff_geo_inf,
    chernoff_quantum,
    chernoff_quantum_inf,
    varstab_arccosh,
    varstab_ode_residual,
)
from qsts.estimators import (
    exact_pi_bar_mean,
    improved_estimator,
    phi_matrices,
    preliminary_estimator,
    project_theta,
)
from qsts.experiments import audit_hellinger_chain, nb_sufficiency_test
from qsts.gaussian_states import pinsker_trace_bound, relative_entropy
from qsts.harness import RngStream, mc_run, normality_check
from qsts.measurement import (
    NumberOpSampler,
    block_scheme,
    joint_pmf_from_pgf,
    pi_moments,
    sample_pi_blocks,
)
from qsts.spectral import RealParam, SpectralDensity, sobolev_norm, theta2prime_space
from qsts.toeplitz import (
    SymbolMatrix,
    eigen_bracket_check,
    toeplitz_circulant_gap,
    toeplitz_from_density,
)

SEED = 20240801
COS_DENSITY = SpectralDensity.cosine(2.0, 0.5)
COS_THETA = RealParam.from_density(COS_DENSITY, d=1).theta

GEOM_RAW = SpectralDensity(np.array([2.0 ** -abs(k) for k in range(131)],
                                    dtype=complex), label="geom_raw")
INVSQ_RAW = SpectralDensity(np.array([(1.0 + k) ** -2 for k in range(131)],
                                     dtype=complex), label="invsq_raw")
GEOM_LIFTED = SpectralDensity(
    np.concatenate([[2.0], [2.0 ** -k for k in range(1, 21)]]).astype(complex),
    label="geom_lifted")


def report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {name}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def geo_kl_series(a1, a2):
    """Independent oracle: KL(Geo||Geo) by direct summation, 1e-14 tail."""
    p1 = (a1 - 1) / (a1 + 1)
    p2 = (a2 - 1) / (a2 + 1)
    total, k = 0.0, 0
    while True:
        q1 = (1 - p1) * p1 ** k
        total += q1 * math.log(q1 / ((1 - p2) * p2 ** k))
        if q1 / (1 - p1) < 1e-16 and k > 60:
            return total
        k += 1


def geo_l1_series(a1, a2):
    p1 = (a1 - 1) / (a1 + 1)
    p2 = (a2 - 1) / (a2 + 1)
    total, k = 0.0, 0
    while True:
        q1 = (1 - p1) * p1 ** k
        q2 = (1 - p2) * p2 ** k
        total += abs(q1 - q2)
        if max(q1, q2) < 1e-16 and k > 100:
            return total
        k += 1


def test_criterion_01_entropy_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 9))
        d1 = 1.2 + rng.uniform(0.1, 5.0, size=n)
        d2 = 1.2 + rng.uniform(0.1, 5.0, size=n)
        S = relative_entropy(np.diag(d1).astype(complex),
                             np.diag(d2).astype(complex))
        oracle = sum(geo_kl_series(x, y) for x, y in zip(d1, d2))
        worst = max(worst, abs(S - oracle))
    elapsed = time.monotonic() - t0
    report(1, "entropy equals summed geometric KL on commuting symbols",
           worst <= 1e-10 and elapsed < 5.0,
           f"max |diff| = {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_entropy_unitary_invariance():
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 7))
        H1 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        H1 = 0.5 * (H1 + H1.conj().T) / math.sqrt(n)
        H1 += (1.5 - np.linalg.eigvalsh(H1)[0]) * np.eye(n)
        H2 = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        H2 = 0.5 * (H2 + H2.conj().T) / math.sqrt(n)
        H2 += (1.5 - np.linalg.eigvalsh(H2)[0]) * np.eye(n)
        M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        Q, R = np.linalg.qr(M)
        U = Q * (np.diag(R) / np.abs(np.diag(R)))
        S0 = relative_entropy(H1, H2)
        S1 = relative_entropy(U.conj().T @ H1 @ U, U.conj().T @ H2 @ U)
        worst = max(worst, abs(S0 - S1))
    report(2, "entropy invariant under unitary conjugation",
           worst < 1e-9, f"max |diff| = {worst:.2e}")


def test_criterion_03_pinsker_consistency():
    worst = -1.0
    ok = True
    for a2 in (3.05, 3.1, 3.2):
        bound = pinsker_trace_bound(np.array([[3.0]], dtype=complex),
                                    np.array([[a2]], dtype=complex))
        l1 = geo_l1_series(3.0, a2)
        ok = ok and (l1 <= bound + 1e-10)
        worst = max(worst, l1 - bound)
    report(3, "exact L1 distance within the Pinsker bound sqrt(2S)",
           ok, f"max l1 - bound = {worst:.2e}")


def test_criterion_04_circulant_gap_bound():
    alpha = 1.0
    ok = True
    checked = 0
    worst = -math.inf
    for a in (GEOM_RAW, INVSQ_RAW):
        _, M = sobolev_norm(a, alpha)
        for n in (32, 64, 128):
            m = n + 1 if n % 2 == 0 else n + 2
            while m < 2 * (n - 1):
                gap, bound = toeplitz_circulant_gap(a, n, m, alpha, M)
                ok = ok and (gap <= bound + 1e-9)
                worst = max(worst, gap - bound)
                checked += 1
                m += 2
    report(4, "squared HS gap within 4(m-n+1)^(1-2a) M for all admissible m",
           ok, f"{checked} (n,m) pairs, max gap - bound = {worst:.2e}")


def test_criterion_05_eigenvalue_brackets():
    densities = [SpectralDensity.constant(3.0), COS_DENSITY,
                 GEOM_RAW, INVSQ_RAW, GEOM_LIFTED]
    ok = True
    for a in densities:
        for n in (16, 64, 256, 512):
            lam_min, lam_max, lo, hi, passed = eigen_bracket_check(a, n)
            ok = ok and passed
    report(5, "inf a <= eigenvalues of A_n <= sup a for all test densities",
           ok, "5 densities x n in {16, 64, 256, 512}")


def test_criterion_06_measurement_sampler_moments():
    t0 = time.monotonic()
    m, reps = 7, 2 * 10 ** 5
    A = toeplitz_from_density(COS_DENSITY, m)
    mean, cov = pi_moments(A)
    N = NumberOpSampler(A).draw(RngStream(SEED, 6), size=reps)
    pi = 2.0 * N + 1.0
    emp_mean = pi.mean(axis=0)
    se_mean = np.sqrt(np.diag(cov) / reps)
    mean_ok = bool(np.all(np.abs(emp_mean - mean) < 4 * se_mean))
    centered = pi - emp_mean
    emp_cov = (centered.T @ centered) / (reps - 1)
    prod_var = (np.einsum("ij,ik->jk", centered ** 2, centered ** 2) / reps
                - emp_cov ** 2)
    se_cov = np.sqrt(prod_var / reps)
    cov_ok = bool(np.all(np.abs(emp_cov - cov) < 5 * se_cov))

    A2 = SymbolMatrix(np.array([[2.0, 0.5 + 0.3j], [0.5 - 0.3j, 1.8]]))
    pmf = joint_pmf_from_pgf(A2, k_max=12)
    draws = NumberOpSampler(A2).draw(RngStream(SEED, 7), size=5 * 10 ** 5)
    emp = np.zeros((13, 13))
    inside = (draws[:, 0] <= 12) & (draws[:, 1] <= 12)
    np.add.at(emp, (draws[inside, 0], draws[inside, 1]), 1.0)
    emp /= draws.shape[0]
    tv = 0.5 * float(np.sum(np.abs(emp - pmf)))
    elapsed = time.monotonic() - t0
    report(6, "sampler moments within 4/5 SE and PGF total variation < 0.01",
           mean_ok and cov_ok and tv < 0.01 and elapsed < 120.0,
           f"TV = {tv:.4f}, {elapsed:.1f} s")


def test_criterion_07_estimator_fixed_points():
    worst = 0.0
    for m, d in ((7, 1), (21, 2)):
        theta = np.zeros(2 * d + 1)
        theta[d] = 2.0
        theta[d + 1] = 0.35
        if d >= 2:
            theta[d - 1] = -0.15
        mean = exact_pi_bar_mean(theta, m)
        t_hat = preliminary_estimator(mean, m, d)
        t_tilde = improved_estimator(mean, theta + 0.01, m, d)
        worst = max(worst, float(np.max(np.abs(t_hat - theta))),
                    float(np.max(np.abs(t_tilde - theta))))
    report(7, "both estimators exactly invert the analytic mean",
           worst <= 1e-12, f"max error = {worst:.2e}")


def test_criterion_08_preliminary_unbiasedness():
    scheme = block_scheme(512, 1)

    def sampler(stream):
        pi_bar = sample_pi_blocks(COS_DENSITY, scheme, stream).pi_bar
        return preliminary_estimator(pi_bar, scheme.m, 1)

    out = mc_run(sampler, 10 ** 4, seed=SEED + 8)
    dev = np.abs(out.mean - COS_THETA) / out.se
    report(8, "preliminary estimator unbiased within 4 SE per coordinate",
           bool(np.all(dev < 4.0)), f"max |dev| = {float(np.max(dev)):.2f} SE")


def _ladder_cov_errors():
    phi0, _ = phi_matrices(COS_THETA, 1)
    errors = []
    for n in (512, 1024, 2048, 4096):
        scheme = block_scheme(n, 1)

        def sampler(stream, scheme=scheme):
            pi_bar = sample_pi_blocks(COS_DENSITY, scheme, stream).pi_bar
            return preliminary_estimator(pi_bar, scheme.m, 1)

        _, rows = mc_run(sampler, 4000, seed=SEED + n, collect=True)
        emp = np.cov(rows.T) * (scheme.r * scheme.m)
        errors.append(float(np.linalg.norm(emp - phi0) / np.linalg.norm(phi0)))
    return errors


def test_criterion_09_covariance_convergence():
    t0 = time.monotonic()
    errors = _ladder_cov_errors()
    elapsed = time.monotonic() - t0
    inversions = [(b - a) / a for a, b in zip(errors, errors[1:]) if b > a]
    trend_ok = len(inversions) <= 1 and all(x <= 0.20 for x in inversions)
    final_ok = errors[-1] <= 0.15
    report(9, "scaled covariance of theta_hat approaches phi0 along the ladder",
           trend_ok and final_ok and elapsed < 600.0,
           "errors = " + ", ".join(f"{e:.3f}" for e in errors)
           + f"; {elapsed:.0f} s")


def test_criterion_10_asymptotic_normality():
    n, d, reps = 4096, 1, 2000
    scheme = block_scheme(n, d)
    _, phi = phi_matrices(COS_THETA, d)
    target = np.linalg.inv(phi)
    space = theta2prime_space(d, 5.0)
    scale = math.sqrt(scheme.r * scheme.m)

    def sampler(stream):
        draw = sample_pi_blocks(COS_DENSITY, scheme, stream)
        prelim = preliminary_estimator(draw.pi_bar, scheme.m, d)
        projected = project_theta(prelim, space)
        theta = improved_estimator(draw.pi_bar, projected, scheme.m, d)
        return scale * (theta - COS_THETA)

    _, rows = mc_run(sampler, reps, seed=SEED + 10, collect=True)
    rep = normality_check(rows, target, frob_tol=0.15, ks_alpha=0.01)
    report(10, "sqrt(rm)(theta_tilde - theta) is N(0, phi^-1) at stated tolerances",
           rep.passed,
           f"frob = {rep.frob_rel_err:.3f}, max KS = {float(np.max(rep.ks_stats)):.4f}"
           f" vs crit {rep.ks_critical:.4f}")


def test_criterion_11_chernoff_agreement():
    a0 = SpectralDensity.constant(2.0)
    a1 = SpectralDensity.constant(4.0)
    worst = 0.0
    for t in np.linspace(0.0, 1.0, 101):
        worst = max(worst, abs(chernoff_quantum(a0, a1, float(t))
                               - chernoff_geo(2.0, 4.0, float(t))))
    _, vq = chernoff_quantum_inf(a0, a1)
    _, vg = chernoff_geo_inf(2.0, 4.0)
    report(11, "quantum and geometric error exponents agree for constant densities",
           worst <= 1e-8 and abs(vq - vg) <= 1e-8,
           f"max |diff| = {worst:.2e}, |inf diff| = {abs(vq - vg):.2e}")


def test_criterion_12_variance_stabilization():
    grid = np.linspace(1.01, 10.0, 200)
    h = 1e-6
    worst_fd = 0.0
    worst_an = 0.0
    for a in grid:
        fd = (varstab_arccosh(a + h) - varstab_arccosh(a - h)) / (2 * h)
        worst_fd = max(worst_fd, abs(fd - 1.0 / math.sqrt(a * a - 1.0)))
        worst_an = max(worst_an, varstab_ode_residual(a))
    report(12, "arccosh derivative matches 1/sqrt(a^2-1)",
           worst_fd <= 1e-8 and worst_an <= 1e-12,
           f"fd = {worst_fd:.2e}, analytic = {worst_an:.2e}")


def test_criterion_13_hellinger_chain_decay():
    rep = audit_hellinger_chain(COS_DENSITY, [65, 129, 257, 513], seed=SEED)
    s1 = [r.value for r in rep.rows if r.label == "hellinger_circulant_vs_avg"]
    s2 = [r.value for r in rep.rows if r.label == "hellinger_points_vs_avg"]
    ok = (all(b < a for a, b in zip(s1, s1[1:]))
          and all(b < a for a, b in zip(s2, s2[1:]))
          and s1[-1] < 0.05 and s2[-1] < 0.05)
    report(13, "both Hellinger sums strictly decrease with final value < 0.05",
           ok, f"final sums = {s1[-1]:.2e}, {s2[-1]:.2e}")


def test_criterion_14_nb_sufficiency():
    chi2, crit, p_value = nb_sufficiency_test(0.5, 50_000, RngStream(SEED, 14))
    report(14, "sum of 8 NB(1/8, 1/2) draws indistinguishable from Geo(1/2)",
           p_value > 0.001, f"p = {p_value:.3f}")


def test_criterion_15_thread_determinism(tmp_path):
    from qsts.cli import cli_dispatch

    outputs = {}
    for threads in ("1", "4"):
        d = tmp_path / f"t{threads}"
        d.mkdir()
        files = {
            "measure.csv": ["--seed", "7", "--threads", threads, "--no-timestamp",
                            "simulate", "measure", "--density", "cos:2,0.5",
                            "--n", "128", "--d", "1"],
            "estimate.json": ["--seed", "7", "--threads", threads,
                              "estimate", "prelim", "--density", "cos:2,0.5",
                              "--n", "128", "--d", "1"],
            "audit.csv": ["--seed", "7", "--threads", threads, "--no-timestamp",
                          "audit", "chain", "--density", "cos:2,0.5",
                          "--n-list", "65,129"],
        }
        for name, argv in files.items():
            path = d / name
            code = cli_dispatch(argv + ["--out", str(path)])
            assert code == 0
            outputs.setdefault(name, []).append(path.read_bytes())
    ok = all(a == b for a, b in outputs.values())
    report(15, "same seed, different --threads: byte-identical outputs", ok)


# ---------------------------------------------------------------------------
# Companion evidence for criteria 9 and 10: the identical Monte Carlo
# machinery checked against the exact finite-block covariance (the
# deterministic linear-algebra target) passes comfortably, isolating the
# red criteria to the logarithmic gap between the finite block size and
# the infinite-m limit matrices.

def test_companion_covariance_exact_target():
    from qsts.estimators import _design

    scheme = block_scheme(1024, 1)
    m, d = scheme.m, 1
    A = toeplitz_from_density(COS_DENSITY, m)
    _, cov_pi = pi_moments(A)
    W, F = _design(m, d)
    target = np.diag(F) @ W.T @ cov_pi @ W @ np.diag(F)

    def sampler(stream):
        pi_bar = sample_pi_blocks(COS_DENSITY, scheme, stream).pi_bar
        return preliminary_estimator(pi_bar, m, d)

    _, rows = mc_run(sampler, 4000, seed=SEED + 90, collect=True)
    emp = np.cov(rows.T) * (scheme.r * scheme.m)
    err = float(np.linalg.norm(emp - target) / np.linalg.norm(target))
    assert err < 0.10


def test_companion_normality_exact_target():
    from qsts.estimators import _design, design_matrices

    n, d, reps = 4096, 1, 2000
    scheme = block_scheme(n, d)
    m = scheme.m
    A = toeplitz_from_density(COS_DENSITY, m)
    _, cov_pi = pi_moments(A)
    W, F = _design(m, d)
    _, _, Delta = design_matrices(m, d, COS_THETA)
    Wd = W / Delta[:, None]
    G = np.linalg.solve(W.T @ Wd, Wd.T)
    target = np.diag(F) @ G @ cov_pi @ G.T @ np.diag(F)
    space = theta2prime_space(d, 5.0)
    scale = math.sqrt(scheme.r * scheme.m)

    def sampler(stream):
        draw = sample_pi_blocks(COS_DENSITY, scheme, stream)
        prelim = preliminary_estimator(draw.pi_bar, scheme.m, d)
        projected = project_theta(prelim, space)
        theta = improved_estimator(draw.pi_bar, projected, scheme.m, d)
        return scale * (theta - COS_THETA)

    _, rows = mc_run(sampler, reps, seed=SEED + 91, collect=True)
    rep = normality_check(rows, target, frob_tol=0.15, ks_alpha=0.01)
    assert rep.passed
