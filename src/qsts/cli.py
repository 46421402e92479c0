"""Batch command-line surface.

Subcommand groups: density, symbol, state, dist, simulate, estimate, audit,
mc.  Each subcommand is declared once, by ``@command`` on its handler, and
the parser, the config keys and the output file all come from that
declaration.  Exit codes: 0 success, 1 invalid input, config or usage,
2 numerical failure, 3 an audit row violated a proven bound.  With
--json-errors every error, usage errors included, is one JSON line on
stderr.

A JSON config (--config FILE) supplies option defaults for the chosen
command.  Its keys are option dests (density, n_list, frob_tol,
no_timestamp, ...); each value is converted and checked as the option's
own value would be, and a key that names no option is an error.  Each
option's type converts its text, so a malformed density or seed exits 1
naming its option, and a float option takes finite numbers only.  An
option given on the command line wins, so the seed is --seed, else the
config's seed, else QSTS_SEED (converted as --seed is), else a built-in.
--format (csv or json) exists on audit chain and audit state only.  With a
fixed seed and --no-timestamp, output files are byte identical across
runs.  --threads is accepted and has no effect: replicate loops run
serially, and mc moments draws all its replicates as one batch from
stream (seed, 0).
The batch commands (mc moments, simulate measure, audit chain, audit
sufficiency) release each batch temporary as soon as the next exists and
format their rows a chunk at a time, so each holds about two copies of its
batch at its peak.

No command loads a scipy module: numpy is the only runtime dependency.
"""

from __future__ import annotations

import argparse
import contextlib
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
from .errors import AuditFailure, InputError, QstsError, RangeError, SchemaError
from .estimators import (
    nonparametric_estimate,
    onestep_estimator,
    phi_matrices,
    preliminary_estimator,
)
from .experiments import (
    audit_hellinger_chain,
    audit_state_approximation,
    nb_sufficiency_test,
    simulate_geo_regression,
    simulate_white_noise,
)
from .gaussian_states import entropy_symbol_bound, pinsker_trace_bound, relative_entropy
from .harness import _CHUNK_ROWS, RngStream, mc_run, normality_check
from .measurement import (
    NumberOpSampler,
    block_scheme,
    pi_moments,
    sample_pi_blocks,
)
from .spectral import (
    ParameterSpace,
    RealParam,
    eval_density,
    membership,
    parse_density,
    sobolev_norm,
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

_GROUPS = {
    "density": "spectral density queries",
    "symbol": "symbol matrix operations",
    "state": "Gaussian state functionals",
    "dist": "distribution distances",
    "simulate": "model simulators",
    "estimate": "parameter estimators",
    "audit": "equivalence audits",
    "mc": "Monte Carlo diagnostics",
}

# (group, name, help, option specs, handler), in declaration order
_COMMANDS = []


def arg(*flags, **opts):
    """One option spec: the flags and keywords of ``add_argument``."""
    return flags, opts


def command(group: str, name: str, help: str, *args):
    """Register the decorated handler as ``qsts GROUP NAME`` with options ``args``.

    Every command also takes ``--out``.  A handler writes its output and
    returns; a failed audit raises ``AuditFailure``.
    """
    def register(fn):
        _COMMANDS.append((group, name, help, args, fn))
        return fn
    return register


def _int_list(text: str) -> list:
    return [int(x) for x in text.split(",")]


def _finite_float(text: str) -> float:
    """The value of a float option, from the command line or a config: finite only.

    ``float`` alone accepts nan and inf, which pass every ``x <= limit`` check.
    """
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


ROOT = (
    arg("--version", action="version", version=__version__),
    arg("--seed", type=int,
        help="random seed; default from the config, QSTS_SEED or built in"),
    arg("--threads", type=int, default=1,
        help="accepted and has no effect; replicate loops run serially"),
    arg("--json-errors", action="store_true",
        help="emit machine-readable errors on stderr"),
    arg("--no-timestamp", action="store_true",
        help="suppress timestamps so outputs are byte reproducible"),
    arg("--config", default=None,
        help="JSON config file supplying option defaults"),
)
DENSITY = arg("--density", type=parse_density, required=True,
              help="const:<v>, cos:<a0>,<a1> or a density JSON path")
N = arg("--n", type=int, required=True)
D = arg("--d", type=int, required=True)
A1 = arg("--a1", type=parse_density, required=True)
A2 = arg("--a2", type=parse_density, required=True)
FORMAT = arg("--format", choices=("csv", "json"), default="csv")
RAW_OUT = arg("--raw-out", default=None,
              help="also dump raw replicates as CSV (large)")
OUT = arg("--out", default="-", help="output path, - for stdout")


@contextlib.contextmanager
def _output(args):
    """The --out file, opened for writing and closed on exit; stdout for -."""
    if args.out in ("", "-"):
        yield sys.stdout
    else:
        with open(args.out, "w") as fh:
            yield fh


def _emit(args, text: str):
    with _output(args) as fh:
        fh.write(text if text.endswith("\n") else text + "\n")


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _check(ok: bool, message: str):
    """Raise AuditFailure (exit 3) unless the audit passed."""
    if not ok:
        raise AuditFailure(message)


# ---------------------------------------------------------------- density

@command("density", "eval", "a(w) = sum_k a_k exp(ikw) at given frequencies",
         DENSITY, arg("--omega", type=_finite_float, nargs="+", required=True))
def cmd_density_eval(args):
    _emit(args, "\n".join(f"{w:.12g} {eval_density(args.density, w):.15g}" for w in args.omega))


@command("density", "norms", "Sobolev seminorm and norm squared sum |k|^(2a)|a_k|^2",
         DENSITY, arg("--alpha", type=_finite_float, required=True))
def cmd_density_norms(args):
    semi, norm = sobolev_norm(args.density, args.alpha)
    _emit(args, _json_dump({"alpha": args.alpha, "seminorm_sq": semi,
                            "norm_sq": norm}))


@command("density", "membership", "norm constraint plus min a >= 1 + 1/M",
         DENSITY,
         arg("--space", choices=("theta1", "theta2", "theta2prime"), required=True),
         arg("--alpha", type=_finite_float, default=1.0),
         arg("--d", type=int, default=0),
         arg("--M", type=_finite_float, required=True))
def cmd_density_membership(args):
    w = membership(args.density, ParameterSpace(args.space, M=args.M, alpha=args.alpha, d=args.d))
    _emit(args, _json_dump({**w._asdict(),
                            "location": None if math.isnan(w.location) else w.location}))


# ----------------------------------------------------------------- symbol

@command("symbol", "build", "Toeplitz A[j][k] = a_{k-j}, or with --circulant the n x n "
                            "circulant", DENSITY, N, arg("--circulant", action="store_true"))
def cmd_symbol_build(args):
    if args.circulant:
        M = circulant_from_density(args.density, args.n)
    else:
        M = toeplitz_from_density(args.density, args.n)
    _emit(args, _json_dump(M.to_json()))


@command("symbol", "eigs", "circulant eigenvalues a~_m(2 pi j / m)",
         DENSITY, arg("--m", type=int, required=True))
def cmd_symbol_eigs(args):
    eigs = circulant_eigs(args.density, args.m)
    _emit(args, "\n".join(f"{v:.15g}" for v in eigs))


@command("symbol", "gap", "||A_n - circulant block||_2^2 vs 4 (m-n+1)^(1-2a) M",
         DENSITY, N, arg("--m", type=int, required=True),
         arg("--alpha", type=_finite_float, default=1.0), arg("--M", type=_finite_float, default=None))
def cmd_symbol_gap(args):
    M = args.M if args.M is not None else sobolev_norm(args.density, args.alpha)[1]
    gap, bound = toeplitz_circulant_gap(args.density, args.n, args.m, args.alpha, M)
    ok = gap <= bound + 1e-9
    _emit(args, _json_dump({"hs_sq": gap, "bound": bound, "pass": ok}))
    _check(ok, "Toeplitz-circulant gap exceeds its bound")


@command("symbol", "bracket", "inf a <= eigenvalues of A_n <= sup a", DENSITY, N)
def cmd_symbol_bracket(args):
    lam_min, lam_max, lo, hi, ok = eigen_bracket_check(args.density, args.n)
    _emit(args, _json_dump({"lambda_min": lam_min, "lambda_max": lam_max,
                            "inf_a": lo, "sup_a": hi, "pass": ok}))
    _check(ok, "an eigenvalue of A_n lies outside [inf a, sup a]")


# ------------------------------------------------------------------ state

def _symbols(args):
    return (toeplitz_from_density(args.a1, args.n),
            toeplitz_from_density(args.a2, args.n))


@command("state", "entropy", "S = Tr (I+Q1)[R1(log R1 - log R2) + "
                             "(I-R1)(log(I-R1) - log(I-R2))]", A1, A2, N)
def cmd_state_entropy(args):
    _emit(args, f"{relative_entropy(*_symbols(args)):.15g}")


@command("state", "pinsker", "trace-distance bound sqrt(2 S)", A1, A2, N)
def cmd_state_pinsker(args):
    _emit(args, f"{pinsker_trace_bound(*_symbols(args)):.15g}")


@command("state", "bound", "S <= ||R1-R2||^2 / delta for small gaps, "
                           "delta = min((1-lam)/2, (1-lam)^3/(8 lam))",
         A1, A2, N, arg("--lam", type=_finite_float, required=True))
def cmd_state_bound(args):
    rep = entropy_symbol_bound(*_symbols(args), args.lam)
    _emit(args, _json_dump(rep._asdict()))
    _check(rep.holds, "relative entropy exceeds the symbol-distance bound")


# ------------------------------------------------------------------- dist

@command("dist", "hellinger", "H^2 exact and the ratio bound (lam-mu)^2/((lam-1)(mu-1))",
         arg("--lam", type=_finite_float, required=True), arg("--mu", type=_finite_float, required=True),
         arg("--r", type=_finite_float, default=None), arg("--r2", type=_finite_float, default=None))
def cmd_dist_hellinger(args):
    if args.r2 is not None and args.r is None:
        raise InputError("--r2 is the second shape of --r: it needs --r")
    out = {}
    if args.r2 is not None:
        out["nb_bound_shapes"] = nb_hellinger_bound_shapes(args.r, args.r2)
    elif args.r is not None:
        out["nb_bound_symbols"] = nb_hellinger_bound_symbols(args.r, args.lam, args.mu)
    h2, bound = hellinger_geo(args.lam, args.mu)
    out.update({"h2_exact": h2, "h2_bound": bound})
    _emit(args, _json_dump(out))


@command("dist", "chernoff", "error exponent "
         "-log (1/2)[(a0+1)^t(a1+1)^(1-t) - (a0-1)^t(a1-1)^(1-t)], "
         "frequency averaged in the quantum case",
         arg("--a0", type=parse_density, required=True), A1,
         arg("--t", type=_finite_float, default=None),
         arg("--quantum", action="store_true"), arg("--classical", action="store_true"))
def cmd_dist_chernoff(args):
    out = {}
    want_both = args.quantum == args.classical  # neither or both flags
    if args.quantum or want_both:
        if args.t is None:
            out["quantum_t"], out["quantum_inf"] = chernoff_quantum_inf(args.a0, args.a1)
        else:
            out["quantum"] = chernoff_quantum(args.a0, args.a1, args.t)
    if args.classical or want_both:
        p0, p1 = float(eval_density(args.a0, 0.0)), float(eval_density(args.a1, 0.0))
        if args.t is None:
            out["classical_t"], out["classical_inf"] = chernoff_geo_inf(p0, p1)
        else:
            out["classical"] = chernoff_geo(p0, p1, args.t)
    _emit(args, _json_dump(out))


@command("dist", "varstab", "g(a) = log(a + sqrt(a^2-1)) with g' = 1/sqrt(a^2-1)",
         arg("--a", type=_finite_float, required=True))
def cmd_dist_varstab(args):
    _emit(args, _json_dump({"a": args.a, "g": varstab_arccosh(args.a),
                            "residual": varstab_ode_residual(args.a),
                            "fisher_j": geo_stats(args.a).fisher_j}))


# --------------------------------------------------------------- simulate

def _blocks(args):
    """The block scheme of (--n, --d) and one blocked draw from stream (seed, 0)."""
    scheme = block_scheme(args.n, args.d)
    return scheme, sample_pi_blocks(args.density, scheme, RngStream(args.seed, 0))


@command("simulate", "geo", "X_j ~ Geo(p(J_{j,n})) or Geo(p(a(t_{j,n})))",
         DENSITY, N, arg("--variant", choices=("averages", "points"), default="averages"))
def cmd_simulate_geo(args):
    draws = simulate_geo_regression(args.density, args.n, args.variant,
                                    RngStream(args.seed, 0))
    _emit(args, "\n".join(["j,X"] + [f"{j + 1},{int(x)}" for j, x in enumerate(draws)]))


@command("simulate", "wn", "dY = drift(w) dw + sqrt(2 pi/n) dW, drift "
                           "arccosh(a) or a with localized noise",
         DENSITY, N, arg("--L", type=int, default=1024),
         arg("--transform", choices=("arccosh", "local"), default="arccosh"),
         arg("--center", type=parse_density, default=None,
             help="localization center density for --transform local"))
def cmd_simulate_wn(args):
    if args.center is not None and args.transform != "local":
        raise InputError("--center localizes the noise of --transform local only")
    path = simulate_white_noise(args.density, args.n, args.L,
                                args.transform, RngStream(args.seed, 0), a0=args.center)
    lines = ["omega,cumulative"]
    lines += [f"{float(w)!r},{float(y)!r}" for w, y in zip(path.grid, path.cumulative)]
    _emit(args, "\n".join(lines))


@command("simulate", "measure", "number outcomes of r independent "
                                "m-mode blocks, plus averaged 2N+1",
         DENSITY, N, arg("--d", type=int, default=0))
def cmd_simulate_measure(args):
    _, draw = _blocks(args)
    with _output(args) as fh:
        draw.write_csv(fh, no_timestamp=args.no_timestamp)


# --------------------------------------------------------------- estimate

def _emit_estimate(args, scheme, theta):
    _emit(args, _json_dump({
        "theta": list(np.asarray(theta, dtype=float)),
        "d": scheme.d, "n": scheme.n, "m": scheme.m, "r": scheme.r,
        "seed": args.seed,
    }))


@command("estimate", "prelim", "theta_hat = m^(-1/2) F W' Pi_bar", DENSITY, N, D)
def cmd_estimate_prelim(args):
    scheme, draw = _blocks(args)
    _emit_estimate(args, scheme, preliminary_estimator(draw.pi_bar, scheme.m, args.d))


@command("estimate", "onestep", "weighted estimator "
         "m^(-1/2) F (W'D^-1 W)^-1 W'D^-1 Pi_bar at the projected preliminary value",
         DENSITY, N, D, arg("--M", type=_finite_float, required=True))
def cmd_estimate_onestep(args):
    scheme, draw = _blocks(args)
    space = theta2prime_space(args.d, args.M)
    _emit_estimate(args, scheme, onestep_estimator(draw.pi_bar, scheme.m, args.d, space))


@command("estimate", "nonparam", "truncated series estimate sum_j theta_hat_j psi_j",
         DENSITY, N, arg("--d-n", type=int, required=True))
def cmd_estimate_nonparam(args):
    if args.n % 2 == 0:
        raise InputError("nonparametric estimation needs odd n")
    sampler = NumberOpSampler(toeplitz_from_density(args.density, args.n))
    N = sampler.draw(RngStream(args.seed, 0))
    density, theta = nonparametric_estimate(2.0 * N + 1.0, args.d_n)
    obj = density.to_json()
    obj.update(theta=list(theta), n=args.n, seed=args.seed)
    _emit(args, _json_dump(obj))


# ------------------------------------------------------------------ audit

def _write_report(args, report):
    with _output(args) as fh:
        if args.format == "json":
            fh.write(_json_dump(report.to_json(no_timestamp=args.no_timestamp)) + "\n")
        else:
            report.write_csv(fh)
    _check(report.all_passed, "an audit row failed its bound")


@command("audit", "chain", "Hellinger-sum decay between geometric "
                           "regressions along an odd-size ladder",
         DENSITY, arg("--n-list", type=_int_list, required=True,
                      help="comma separated odd sizes"), FORMAT)
def cmd_audit_chain(args):
    _write_report(args, audit_hellinger_chain(args.density, args.n_list,
                                              seed=args.seed))


@command("audit", "state", "symbol gap vs bound, relative entropy "
                           "and Pinsker bound for circulant blocks",
         DENSITY, N,
         arg("--m", type=_int_list, default=None,
             help="odd m or comma list; default n + ceil(n^(1/3)) odd"),
         arg("--alpha", type=_finite_float, default=1.0), arg("--M", type=_finite_float, default=None),
         FORMAT)
def cmd_audit_state(args):
    _write_report(args, audit_state_approximation(args.density, args.n,
                                                  args.m, alpha=args.alpha, M=args.M))


@command("audit", "sufficiency", "chi-square two-sample test of "
                                 "sum of 8 NB(1/8,p) draws against Geo(p)",
         arg("--p", type=_finite_float, default=0.5), arg("--draws", type=int, default=50_000))
def cmd_audit_sufficiency(args):
    chi2, crit, p_value = nb_sufficiency_test(args.p, args.draws,
                                              RngStream(args.seed, 0))
    ok = chi2 <= crit
    _emit(args, _json_dump({"chi2": chi2, "critical_0p001": crit,
                            "p_value": p_value, "pass": ok}))
    _check(ok, "sufficiency test rejected at alpha = 0.001")


# --------------------------------------------------------------------- mc

def _write_raw_rows(path: str, rows: np.ndarray):
    """Raw replicate dump, one line per (replicate, coordinate, value)."""
    # one write per replicate: field 0 is the replicate, field j + 1 its coordinate j
    lines = "".join(f"{{0}},{j},{{{j + 1}!r}}\n" for j in range(rows.shape[1]))
    rows = np.asarray(rows, dtype=float)
    with open(path, "w") as fh:
        fh.write("replicate,coordinate,value\n")
        for start in range(0, rows.shape[0], _CHUNK_ROWS):
            for i, row in enumerate(rows[start:start + _CHUNK_ROWS].tolist(), start + 1):
                fh.write(lines.format(i, *row))


@command("mc", "normality", "scaled estimator errors against "
                            "N(0, Phi^-1): Frobenius + KS checks",
         DENSITY, N, D, arg("--M", type=_finite_float, default=5.0),
         arg("--replicates", type=int, default=2000),
         arg("--frob-tol", type=_finite_float, default=0.15), RAW_OUT)
def cmd_mc_normality(args):
    scheme = block_scheme(args.n, args.d)
    theta_true = RealParam.from_density(args.density, d=args.d).theta
    _, phi = phi_matrices(theta_true, args.d)
    target = np.linalg.inv(phi)
    space = theta2prime_space(args.d, args.M)
    scale = math.sqrt(scheme.r * scheme.m)

    def one(stream):
        draw = sample_pi_blocks(args.density, scheme, stream)
        return scale * (onestep_estimator(draw.pi_bar, scheme.m, args.d, space) - theta_true)

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
    _check(rep.passed, "normality check failed")


@command("mc", "moments", "empirical mean of 2N+1 against the "
                          "analytic tapered band values",
         DENSITY, arg("--m", type=int, required=True),
         arg("--replicates", type=int, default=20_000), RAW_OUT)
def cmd_mc_moments(args):
    A = toeplitz_from_density(args.density, args.m)
    mean, cov = pi_moments(A)
    if args.replicates < 2:
        raise RangeError("need at least 2 replicates")
    rows = 2.0 * NumberOpSampler(A).draw(RngStream(args.seed, 0), size=args.replicates)
    rows += 1.0
    if args.raw_out:
        _write_raw_rows(args.raw_out, rows)
    empirical = rows.mean(axis=0)
    se = np.sqrt(np.diag(cov) / args.replicates)
    worst = float(np.max(np.abs(empirical - mean) / se))
    ok = worst < 4.0
    _emit(args, _json_dump({
        "mean_max_se_units": worst, "pass": ok,
        "analytic_mean": list(mean), "empirical_mean": list(empirical)}))
    _check(ok, "empirical mean outside 4 standard errors")


# ------------------------------------------------------------------ wiring

class _Parser(argparse.ArgumentParser):
    """Raises ``InputError`` on a usage error, so it exits 1 like other bad input."""

    commands: dict  # (group, name) -> leaf parser, on the root built by build_parser

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _root_parser(**kw) -> _Parser:
    root = _Parser(prog="qsts", description=__doc__, **kw)
    for flags, opts in ROOT:
        root.add_argument(*flags, **opts)
    # a string default goes through --seed's type, as a command-line value would
    root.set_defaults(seed=os.environ.get("QSTS_SEED") or str(_DEFAULT_SEED))
    return root


def build_parser() -> argparse.ArgumentParser:
    root = _root_parser()
    groups = root.add_subparsers(dest="group", required=True)
    subs = {name: groups.add_parser(name, help=text).add_subparsers(dest="cmd", required=True)
            for name, text in _GROUPS.items()}
    root.commands = {}
    for group, name, text, specs, fn in _COMMANDS:
        p = root.commands[group, name] = subs[group].add_parser(name, help=text)
        for flags, opts in (*specs, OUT):
            p.add_argument(*flags, **opts)
        p.set_defaults(fn=fn)
    return root


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
    return obj


def _apply_config(config: dict, *parsers: _Parser):
    """Make each config value the default of the option of ``parsers`` with its dest.

    The value is converted by the option's type and checked against its
    choices as a command-line value would be; an option the config supplies
    is no longer required, and the command line still overrides it.
    """
    options = {a.dest: a for p in parsers for a in p._actions
               if a.option_strings and a.dest not in ("help", "version", "config")}
    for key, value in config.items():
        action = options.get(key)
        if action is None:
            raise SchemaError(f"config key {key!r} names no option of this command")
        if action.nargs == 0:  # a flag
            if not isinstance(value, bool):
                raise SchemaError(f"config key {key!r} must be true or false")
        else:
            strings = [str(v) for v in value] if isinstance(value, list) else [str(value)]
            try:
                value = parsers[0]._get_values(action, strings)
            except (argparse.ArgumentError, ValueError) as exc:
                raise SchemaError(f"config key {key!r}: {exc}") from exc
        action.default, action.required = value, False


def _parse(argv: list) -> argparse.Namespace:
    """Parse ``argv``, with the values of its --config file as option defaults.

    A first pass over the root options alone finds the config file and the
    chosen command, whose options the config then fills.
    """
    parser = build_parser()
    pre = _root_parser(add_help=False)
    pre.add_argument("command", nargs=argparse.REMAINDER)
    known = pre.parse_known_args(argv)[0]
    leaf = parser.commands.get(tuple(known.command[:2]))
    if known.config and leaf is not None:
        _apply_config(_load_config(known.config), parser, leaf)
    return parser.parse_args(argv)


def cli_dispatch(argv=None) -> int:
    """Run one command; return its exit code, with any error reported on stderr."""
    argv = sys.argv[1:] if argv is None else list(argv)
    json_errors = "--json-errors" in argv
    try:
        args = _parse(argv)
        json_errors = args.json_errors
        args.fn(args)
        return 0
    except (QstsError, ValueError, OSError) as exc:
        code = getattr(exc, "exit_code", 1)
        if json_errors:
            sys.stderr.write(json.dumps({"error": type(exc).__name__, "message": str(exc),
                                         "exit_code": code}) + "\n")
        else:
            sys.stderr.write(f"qsts: {type(exc).__name__}: {exc}\n")
        return code


def main() -> None:
    sys.exit(cli_dispatch())


if __name__ == "__main__":
    main()
