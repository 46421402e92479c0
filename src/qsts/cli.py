"""Batch command-line surface.

Subcommand groups: density, symbol, state, dist, simulate, estimate, audit,
mc.  Exit codes: 0 success, 1 invalid input or config, 2 numerical failure,
3 an audit row violated a proven bound.  The default seed comes from the
QSTS_SEED environment variable; --seed overrides it.  With a fixed seed and
--no-timestamp, output files are byte identical across runs.  --threads is
accepted and has no effect: replicate loops run serially.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .distributions import (
    chernoff_geo,
    chernoff_geo_inf,
    chernoff_quantum,
    chernoff_quantum_inf,
    geo_stats,
    hellinger_geo,
    nb_hellinger_bound_shapes,
    nb_hellinger_bound_symbols,
    varstab_arccosh,
    varstab_ode_residual,
)
from .errors import AuditFailure, InputError, QstsError, SchemaError
from .estimators import (
    improved_estimator,
    nonparametric_estimate,
    phi_matrices,
    preliminary_estimator,
    project_theta,
)
from .experiments import (
    audit_hellinger_chain,
    audit_state_approximation,
    nb_sufficiency_test,
    simulate_geo_regression,
    simulate_white_noise,
)
from .gaussian_states import entropy_symbol_bound, pinsker_trace_bound, relative_entropy
from .harness import RngStream, mc_run, normality_check
from .measurement import (
    block_scheme,
    pi_moments,
    sample_pi_blocks,
)
from .spectral import (
    SpectralDensity,
    eval_density,
    membership,
    parse_density,
    sobolev_norm,
    theta1_space,
    theta2_space,
    theta2prime_space,
)
from .toeplitz import (
    circulant_eigs,
    circulant_from_density,
    eigen_bracket_check,
    toeplitz_circulant_gap,
    toeplitz_from_density,
)

_DEFAULT_SEED = 20240801

_CONFIG_KEYS = {
    "density", "density2", "alpha", "d", "M", "n", "m", "seed",
    "replicates", "out", "format", "space", "lam", "t", "L",
    "variant", "transform", "d_n", "threads",
}


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError("config must be a JSON object")
    unknown = set(obj) - _CONFIG_KEYS
    if unknown:
        raise SchemaError(f"unknown config keys: {sorted(unknown)}")
    return obj


def _out_stream(args):
    if args.out and args.out != "-":
        return open(args.out, "w")
    return sys.stdout


def _emit(args, text: str):
    fh = _out_stream(args)
    try:
        fh.write(text if text.endswith("\n") else text + "\n")
    finally:
        if fh is not sys.stdout:
            fh.close()


def _density_arg(value: str) -> SpectralDensity:
    return parse_density(value)


def _space_from_args(args):
    kind = args.space
    if kind == "theta1":
        return theta1_space(args.alpha, args.M, args.grid_size)
    if kind == "theta2":
        return theta2_space(args.d, args.M, args.grid_size)
    if kind == "theta2prime":
        return theta2prime_space(args.d, args.M, args.grid_size)
    raise InputError(f"unknown space {kind!r}")


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


# ---------------------------------------------------------------- density

def cmd_density_eval(args) -> int:
    a = _density_arg(args.density)
    vals = [(w, eval_density(a, w)) for w in args.omega]
    _emit(args, "\n".join(f"{w:.12g} {v:.15g}" for w, v in vals))
    return 0


def cmd_density_norms(args) -> int:
    a = _density_arg(args.density)
    semi, norm = sobolev_norm(a, args.alpha)
    _emit(args, _json_dump({"alpha": args.alpha, "seminorm_sq": semi,
                            "norm_sq": norm}))
    return 0


def cmd_density_membership(args) -> int:
    a = _density_arg(args.density)
    w = membership(a, _space_from_args(args))
    _emit(args, _json_dump({
        "member": w.member, "constraint": w.constraint,
        "location": None if math.isnan(w.location) else w.location,
        "value": w.value, "limit": w.limit}))
    return 0


# ----------------------------------------------------------------- symbol

def cmd_symbol_build(args) -> int:
    a = _density_arg(args.density)
    if args.circulant:
        M = circulant_from_density(a, args.m if args.m else args.n)
    else:
        M = toeplitz_from_density(a, args.n)
    _emit(args, _json_dump(M.to_json()))
    return 0


def cmd_symbol_eigs(args) -> int:
    a = _density_arg(args.density)
    eigs = circulant_eigs(circulant_from_density(a, args.m))
    _emit(args, "\n".join(f"{v:.15g}" for v in eigs))
    return 0


def cmd_symbol_gap(args) -> int:
    a = _density_arg(args.density)
    M = args.M if args.M is not None else sobolev_norm(a, args.alpha)[1]
    gap, bound = toeplitz_circulant_gap(a, args.n, args.m, args.alpha, M)
    ok = gap <= bound + 1e-9
    _emit(args, _json_dump({"hs_sq": gap, "bound": bound, "pass": ok}))
    return 0 if ok else 3


def cmd_symbol_bracket(args) -> int:
    a = _density_arg(args.density)
    lam_min, lam_max, lo, hi, ok = eigen_bracket_check(a, args.n)
    _emit(args, _json_dump({"lambda_min": lam_min, "lambda_max": lam_max,
                            "inf_a": lo, "sup_a": hi, "pass": ok}))
    return 0 if ok else 3


# ------------------------------------------------------------------ state

def cmd_state_entropy(args) -> int:
    A1 = toeplitz_from_density(_density_arg(args.a1), args.n)
    A2 = toeplitz_from_density(_density_arg(args.a2), args.n)
    _emit(args, f"{relative_entropy(A1, A2):.15g}")
    return 0


def cmd_state_pinsker(args) -> int:
    A1 = toeplitz_from_density(_density_arg(args.a1), args.n)
    A2 = toeplitz_from_density(_density_arg(args.a2), args.n)
    _emit(args, f"{pinsker_trace_bound(A1, A2):.15g}")
    return 0


def cmd_state_bound(args) -> int:
    A1 = toeplitz_from_density(_density_arg(args.a1), args.n)
    A2 = toeplitz_from_density(_density_arg(args.a2), args.n)
    rep = entropy_symbol_bound(A1, A2, args.lam)
    _emit(args, _json_dump({
        "delta": rep.delta, "holds": rep.holds, "vacuous": rep.vacuous,
        "h_norm": rep.h_norm, "symbol_norm": rep.symbol_norm,
        "entropy": rep.entropy}))
    return 0 if rep.holds else 3


# ------------------------------------------------------------------- dist

def cmd_dist_hellinger(args) -> int:
    out = {}
    if args.r is not None and args.r2 is None:
        out["nb_bound_symbols"] = nb_hellinger_bound_symbols(args.r, args.lam, args.mu)
    elif args.r is not None and args.r2 is not None:
        out["nb_bound_shapes"] = nb_hellinger_bound_shapes(args.r, args.r2)
    h2, bound = hellinger_geo(args.lam, args.mu)
    out.update({"h2_exact": h2, "h2_bound": bound})
    _emit(args, _json_dump(out))
    return 0


def cmd_dist_chernoff(args) -> int:
    a0 = _density_arg(args.a0)
    a1 = _density_arg(args.a1)
    out = {}
    want_both = args.quantum == args.classical  # neither or both flags
    if args.t is not None:
        if args.quantum or want_both:
            out["quantum"] = chernoff_quantum(a0, a1, args.t)
        if args.classical or want_both:
            out["classical"] = chernoff_geo(
                float(eval_density(a0, 0.0)), float(eval_density(a1, 0.0)), args.t)
    else:
        if args.quantum or want_both:
            t, v = chernoff_quantum_inf(a0, a1)
            out["quantum_t"], out["quantum_inf"] = t, v
        if args.classical or want_both:
            t, v = chernoff_geo_inf(
                float(eval_density(a0, 0.0)), float(eval_density(a1, 0.0)))
            out["classical_t"], out["classical_inf"] = t, v
    _emit(args, _json_dump(out))
    return 0


def cmd_dist_varstab(args) -> int:
    out = {"a": args.a, "g": varstab_arccosh(args.a),
           "residual": varstab_ode_residual(args.a),
           "fisher_j": geo_stats(args.a).fisher_j}
    _emit(args, _json_dump(out))
    return 0


# --------------------------------------------------------------- simulate

def cmd_simulate_geo(args) -> int:
    a = _density_arg(args.density)
    lines = ["j,X"]
    draws = simulate_geo_regression(a, args.n, args.variant,
                                    RngStream(args.seed, 0))
    lines += [f"{j + 1},{int(x)}" for j, x in enumerate(draws)]
    _emit(args, "\n".join(lines))
    return 0


def cmd_simulate_wn(args) -> int:
    a = _density_arg(args.density)
    center = _density_arg(args.center) if args.center else None
    path = simulate_white_noise(a, args.n, args.L, args.transform,
                                RngStream(args.seed, 0), a0=center)
    lines = ["omega,cumulative"]
    lines += [f"{float(w)!r},{float(y)!r}"
              for w, y in zip(path.grid, path.cumulative)]
    _emit(args, "\n".join(lines))
    return 0


def cmd_simulate_measure(args) -> int:
    a = _density_arg(args.density)
    scheme = block_scheme(args.n, args.d)
    draw = sample_pi_blocks(a, scheme, RngStream(args.seed, 0))
    fh = _out_stream(args)
    try:
        draw.write_csv(fh, no_timestamp=args.no_timestamp, seed=args.seed)
    finally:
        if fh is not sys.stdout:
            fh.close()
    return 0


# --------------------------------------------------------------- estimate

def _estimate_json(theta, args, scheme) -> str:
    return _json_dump({
        "theta": list(np.asarray(theta, dtype=float)),
        "d": scheme.d, "n": scheme.n, "m": scheme.m, "r": scheme.r,
        "seed": args.seed,
    })


def cmd_estimate_prelim(args) -> int:
    a = _density_arg(args.density)
    scheme = block_scheme(args.n, args.d)
    draw = sample_pi_blocks(a, scheme, RngStream(args.seed, 0))
    theta = preliminary_estimator(draw.pi_bar, scheme.m, args.d)
    _emit(args, _estimate_json(theta, args, scheme))
    return 0


def cmd_estimate_onestep(args) -> int:
    a = _density_arg(args.density)
    scheme = block_scheme(args.n, args.d)
    draw = sample_pi_blocks(a, scheme, RngStream(args.seed, 0))
    prelim = preliminary_estimator(draw.pi_bar, scheme.m, args.d)
    space = theta2prime_space(args.d, args.M)
    projected = project_theta(prelim, space)
    theta = improved_estimator(draw.pi_bar, projected, scheme.m, args.d)
    _emit(args, _estimate_json(theta, args, scheme))
    return 0


def cmd_estimate_nonparam(args) -> int:
    from .measurement import NumberOpSampler

    a = _density_arg(args.density)
    if args.n % 2 == 0:
        raise InputError("nonparametric estimation needs odd n")
    sampler = NumberOpSampler(toeplitz_from_density(a, args.n))
    N = sampler.draw(RngStream(args.seed, 0))
    density, theta = nonparametric_estimate(2.0 * N + 1.0, args.d_n)
    obj = density.to_json()
    obj["theta"] = list(theta)
    obj["n"] = args.n
    obj["seed"] = args.seed
    _emit(args, _json_dump(obj))
    return 0


# ------------------------------------------------------------------ audit

def _write_report(report, args) -> int:
    fh = _out_stream(args)
    try:
        if args.format == "json":
            fh.write(_json_dump(report.to_json(no_timestamp=args.no_timestamp)) + "\n")
        else:
            report.write_csv(fh)
    finally:
        if fh is not sys.stdout:
            fh.close()
    if not report.all_passed:
        raise AuditFailure("an audit row failed its bound")
    return 0


def cmd_audit_chain(args) -> int:
    a = _density_arg(args.density)
    ns = [int(x) for x in args.n_list.split(",")]
    report = audit_hellinger_chain(a, ns, seed=args.seed)
    return _write_report(report, args)


def cmd_audit_state(args) -> int:
    a = _density_arg(args.density)
    ms = None if args.m is None else [int(x) for x in str(args.m).split(",")]
    report = audit_state_approximation(a, args.n, ms, alpha=args.alpha,
                                       M=args.M)
    return _write_report(report, args)


def cmd_audit_sufficiency(args) -> int:
    chi2, crit, p_value = nb_sufficiency_test(args.p, args.draws,
                                              RngStream(args.seed, 0))
    ok = chi2 <= crit
    _emit(args, _json_dump({"chi2": chi2, "critical_0p001": crit,
                            "p_value": p_value, "pass": ok}))
    if not ok:
        raise AuditFailure("sufficiency test rejected at alpha = 0.001")
    return 0


# --------------------------------------------------------------------- mc

def _write_raw_rows(path: str, rows: np.ndarray):
    """Raw replicate dump, one line per (replicate, coordinate, value)."""
    with open(path, "w") as fh:
        fh.write("replicate,coordinate,value\n")
        for i in range(rows.shape[0]):
            for j in range(rows.shape[1]):
                fh.write(f"{i + 1},{j},{float(rows[i, j])!r}\n")


def cmd_mc_moments(args) -> int:
    from .measurement import NumberOpSampler

    a = _density_arg(args.density)
    A = toeplitz_from_density(a, args.m)
    mean, cov = pi_moments(A)
    sampler = NumberOpSampler(A)

    def one(stream):
        return 2.0 * sampler.draw(stream).astype(float) + 1.0

    out, rows = mc_run(one, args.replicates, args.seed, collect=True)
    if args.raw_out:
        _write_raw_rows(args.raw_out, rows)
    se = np.sqrt(np.diag(cov) / args.replicates)
    worst = float(np.max(np.abs(out.mean - mean) / se))
    ok = worst < 4.0
    _emit(args, _json_dump({
        "mean_max_se_units": worst, "pass": ok,
        "analytic_mean": list(mean), "empirical_mean": list(out.mean)}))
    if not ok:
        raise AuditFailure("empirical mean outside 4 standard errors")
    return 0


def cmd_mc_normality(args) -> int:
    from .spectral import RealParam

    a = _density_arg(args.density)
    scheme = block_scheme(args.n, args.d)
    theta_true = RealParam.from_density(a, d=args.d).theta
    _, phi = phi_matrices(theta_true, args.d)
    target = np.linalg.inv(phi)
    space = theta2prime_space(args.d, args.M)
    scale = math.sqrt(scheme.r * scheme.m)

    def one(stream):
        draw = sample_pi_blocks(a, scheme, stream)
        prelim = preliminary_estimator(draw.pi_bar, scheme.m, args.d)
        projected = project_theta(prelim, space)
        theta = improved_estimator(draw.pi_bar, projected, scheme.m, args.d)
        return scale * (theta - theta_true)

    _, rows = mc_run(one, args.replicates, args.seed, collect=True)
    if args.raw_out:
        _write_raw_rows(args.raw_out, rows)
    rep = normality_check(rows, target, frob_tol=args.frob_tol)
    _emit(args, _json_dump({
        "frob_rel_err": rep.frob_rel_err,
        "ks_stats": list(rep.ks_stats),
        "ks_critical": rep.ks_critical,
        "pass": rep.passed,
        "n": args.n, "rm": scheme.r * scheme.m, "replicates": args.replicates,
    }))
    if not rep.passed:
        raise AuditFailure("normality check failed")
    return 0


# ------------------------------------------------------------------ wiring

def _add_common_out(p):
    p.add_argument("--out", default="-", help="output path, - for stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="qsts",
        description=__doc__,
    )
    root.add_argument("--version", action="version", version=__version__)
    root.add_argument("--seed", type=int, default=None,
                      help="random seed; default from QSTS_SEED or built in")
    root.add_argument("--threads", type=int, default=1,
                      help="accepted and has no effect; replicate loops run serially")
    root.add_argument("--json-errors", action="store_true",
                      help="emit machine-readable errors on stderr")
    root.add_argument("--no-timestamp", action="store_true",
                      help="suppress timestamps so outputs are byte reproducible")
    root.add_argument("--config", default=None,
                      help="JSON config file supplying argument defaults")
    groups = root.add_subparsers(dest="group", required=True)

    def dens(p):
        p.add_argument("--density", required=True,
                       help="const:<v>, cos:<a0>,<a1> or a density JSON path")

    # density
    g = groups.add_parser("density", help="spectral density queries").add_subparsers(
        dest="cmd", required=True)
    p = g.add_parser("eval", help="a(w) = sum_k a_k exp(ikw) at given frequencies")
    dens(p)
    p.add_argument("--omega", type=float, nargs="+", required=True)
    _add_common_out(p)
    p.set_defaults(fn=cmd_density_eval)
    p = g.add_parser("norms", help="Sobolev seminorm and norm squared "
                                    "sum |k|^(2a)|a_k|^2")
    dens(p)
    p.add_argument("--alpha", type=float, required=True)
    _add_common_out(p)
    p.set_defaults(fn=cmd_density_norms)
    p = g.add_parser("membership", help="norm constraint plus min a >= 1 + 1/M")
    dens(p)
    p.add_argument("--space", choices=("theta1", "theta2", "theta2prime"),
                   required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--d", type=int, default=0)
    p.add_argument("--M", type=float, required=True)
    p.add_argument("--grid-size", type=int, default=1024)
    _add_common_out(p)
    p.set_defaults(fn=cmd_density_membership)

    # symbol
    g = groups.add_parser("symbol", help="symbol matrix operations").add_subparsers(
        dest="cmd", required=True)
    p = g.add_parser("build", help="Toeplitz A[j][k] = a_{k-j} or its circulant")
    dens(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--circulant", action="store_true")
    p.add_argument("--m", type=int, default=None)
    _add_common_out(p)
    p.set_defaults(fn=cmd_symbol_build)
    p = g.add_parser("eigs", help="circulant eigenvalues a~_m(2 pi j / m)")
    dens(p)
    p.add_argument("--m", type=int, required=True)
    _add_common_out(p)
    p.set_defaults(fn=cmd_symbol_eigs)
    p = g.add_parser("gap", help="||A_n - circulant block||_2^2 vs "
                                  "4 (m-n+1)^(1-2a) M")
    dens(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--M", type=float, default=None)
    _add_common_out(p)
    p.set_defaults(fn=cmd_symbol_gap)
    p = g.add_parser("bracket", help="inf a <= eigenvalues of A_n <= sup a")
    dens(p)
    p.add_argument("--n", type=int, required=True)
    _add_common_out(p)
    p.set_defaults(fn=cmd_symbol_bracket)

    # state
    g = groups.add_parser("state", help="Gaussian state functionals").add_subparsers(
        dest="cmd", required=True)
    p = g.add_parser("entropy", help="S = Tr (I+Q1)[R1(log R1 - log R2) + "
                                      "(I-R1)(log(I-R1) - log(I-R2))]")
    p.add_argument("--a1", required=True)
    p.add_argument("--a2", required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common_out(p)
    p.set_defaults(fn=cmd_state_entropy)
    p = g.add_parser("pinsker", help="trace-distance bound sqrt(2 S)")
    p.add_argument("--a1", required=True)
    p.add_argument("--a2", required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common_out(p)
    p.set_defaults(fn=cmd_state_pinsker)
    p = g.add_parser("bound", help="S <= ||R1-R2||^2 / delta for small gaps, "
                                    "delta = min((1-lam)/2, (1-lam)^3/(8 lam))")
    p.add_argument("--a1", required=True)
    p.add_argument("--a2", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lam", type=float, required=True)
    _add_common_out(p)
    p.set_defaults(fn=cmd_state_bound)

    # dist
    g = groups.add_parser("dist", help="distribution distances").add_subparsers(
        dest="cmd", required=True)
    p = g.add_parser("hellinger", help="H^2 exact and the ratio bound "
                                        "(lam-mu)^2/((lam-1)(mu-1))")
    p.add_argument("--lam", type=float, required=True)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--r2", type=float, default=None)
    _add_common_out(p)
    p.set_defaults(fn=cmd_dist_hellinger)
    p = g.add_parser("chernoff", help="error exponent "
                     "-log (1/2)[(a0+1)^t(a1+1)^(1-t) - (a0-1)^t(a1-1)^(1-t)], "
                     "frequency averaged in the quantum case")
    p.add_argument("--a0", required=True)
    p.add_argument("--a1", required=True)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--quantum", action="store_true")
    p.add_argument("--classical", action="store_true")
    _add_common_out(p)
    p.set_defaults(fn=cmd_dist_chernoff)
    p = g.add_parser("varstab", help="g(a) = log(a + sqrt(a^2-1)) with "
                                      "g' = 1/sqrt(a^2-1)")
    p.add_argument("--a", type=float, required=True)
    _add_common_out(p)
    p.set_defaults(fn=cmd_dist_varstab)

    # simulate
    g = groups.add_parser("simulate", help="model simulators").add_subparsers(
        dest="cmd", required=True)
    p = g.add_parser("geo", help="X_j ~ Geo(p(J_{j,n})) or Geo(p(a(t_{j,n})))")
    dens(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--variant", choices=("averages", "points"),
                   default="averages")
    _add_common_out(p)
    p.set_defaults(fn=cmd_simulate_geo)
    p = g.add_parser("wn", help="dY = drift(w) dw + sqrt(2 pi/n) dW, drift "
                                 "arccosh(a) or a with localized noise")
    dens(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--L", type=int, default=1024)
    p.add_argument("--transform", choices=("arccosh", "local"),
                   default="arccosh")
    p.add_argument("--center", default=None,
                   help="localization center density for --transform local")
    _add_common_out(p)
    p.set_defaults(fn=cmd_simulate_wn)
    p = g.add_parser("measure", help="number outcomes of r independent "
                                      "m-mode blocks, plus averaged 2N+1")
    dens(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=0)
    _add_common_out(p)
    p.set_defaults(fn=cmd_simulate_measure)

    # estimate
    g = groups.add_parser("estimate", help="parameter estimators").add_subparsers(
        dest="cmd", required=True)
    p = g.add_parser("prelim", help="theta_hat = m^(-1/2) F W' Pi_bar")
    dens(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    _add_common_out(p)
    p.set_defaults(fn=cmd_estimate_prelim)
    p = g.add_parser("onestep", help="weighted estimator "
                     "m^(-1/2) F (W'D^-1 W)^-1 W'D^-1 Pi_bar at the projected "
                     "preliminary value")
    dens(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--M", type=float, required=True)
    _add_common_out(p)
    p.set_defaults(fn=cmd_estimate_onestep)
    p = g.add_parser("nonparam", help="truncated series estimate "
                                       "sum_j theta_hat_j psi_j")
    dens(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d-n", dest="d_n", type=int, required=True)
    _add_common_out(p)
    p.set_defaults(fn=cmd_estimate_nonparam)

    # audit
    g = groups.add_parser("audit", help="equivalence audits").add_subparsers(
        dest="cmd", required=True)
    p = g.add_parser("chain", help="Hellinger-sum decay between geometric "
                                    "regressions along an odd-size ladder")
    dens(p)
    p.add_argument("--n-list", dest="n_list", required=True,
                   help="comma separated odd sizes")
    _add_common_out(p)
    p.set_defaults(fn=cmd_audit_chain)
    p = g.add_parser("state", help="symbol gap vs bound, relative entropy "
                                    "and Pinsker bound for circulant blocks")
    dens(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", default=None,
                   help="odd m or comma list; default n + ceil(n^(1/3)) odd")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--M", type=float, default=None)
    _add_common_out(p)
    p.set_defaults(fn=cmd_audit_state)
    p = g.add_parser("sufficiency", help="chi-square two-sample test of "
                     "sum of 8 NB(1/8,p) draws against Geo(p)")
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--draws", type=int, default=50_000)
    _add_common_out(p)
    p.set_defaults(fn=cmd_audit_sufficiency)

    # mc
    g = groups.add_parser("mc", help="Monte Carlo diagnostics").add_subparsers(
        dest="cmd", required=True)
    p = g.add_parser("normality", help="scaled estimator errors against "
                                        "N(0, Phi^-1): Frobenius + KS checks")
    dens(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--M", type=float, default=5.0)
    p.add_argument("--replicates", type=int, default=2000)
    p.add_argument("--frob-tol", dest="frob_tol", type=float, default=0.15)
    p.add_argument("--raw-out", dest="raw_out", default=None,
                   help="also dump raw replicates as CSV (large)")
    _add_common_out(p)
    p.set_defaults(fn=cmd_mc_normality)
    p = g.add_parser("moments", help="empirical mean of 2N+1 against the "
                                      "analytic tapered band values")
    dens(p)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--replicates", type=int, default=20_000)
    p.add_argument("--raw-out", dest="raw_out", default=None,
                   help="also dump raw replicates as CSV (large)")
    _add_common_out(p)
    p.set_defaults(fn=cmd_mc_moments)

    return root


_CONFIG_FLAGS = {"d_n": "--d-n", "n_list": "--n-list"}


_ROOT_KEYS = {"seed", "threads"}


def _merge_config_argv(argv: list) -> list:
    """Expand --config FILE into explicit flags; given flags win."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        raise InputError("--config needs a file path")
    config = _load_config(argv[i + 1])
    merged = list(argv)
    for key, value in config.items():
        flag = _CONFIG_FLAGS.get(key, "--" + key.replace("_", "-"))
        if flag in merged:
            continue
        if key in _ROOT_KEYS:
            merged = merged[: i] + [flag, str(value)] + merged[i:]
            i += 2
        else:
            merged += [flag, str(value)]
    return merged


def cli_dispatch(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    fallback = argparse.Namespace(json_errors="--json-errors" in argv)
    try:
        args = parser.parse_args(_merge_config_argv(list(argv)))
        if args.seed is None:
            env = os.environ.get("QSTS_SEED")
            args.seed = int(env) if env else _DEFAULT_SEED
        return args.fn(args)
    except QstsError as exc:
        _report_error(fallback, exc)
        return exc.exit_code
    except (ValueError, OSError) as exc:
        _report_error(fallback, exc, code=1)
        return 1


def _report_error(args, exc, code=None):
    code = getattr(exc, "exit_code", code or 1)
    if getattr(args, "json_errors", False):
        sys.stderr.write(json.dumps({
            "error": type(exc).__name__, "message": str(exc),
            "exit_code": code}) + "\n")
    else:
        sys.stderr.write(f"qsts: {type(exc).__name__}: {exc}\n")


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
