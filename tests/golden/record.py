"""Record the golden corpus of fixed-seed CLI outputs in ``cli.json`` beside this file.

Run as ``python tests/golden/record.py``; it puts ``src`` on the path.  Each
case of ``CASES`` runs in-process through ``cli_dispatch`` from the
repository root.  The corpus stores, per case, the exit code, stderr, the
sha256 of stdout and stdout parsed: JSON, or else one row per line of comma
or space separated fields, each an int, a float or a string.  It also stores the
option surface of ``build_parser()`` and the numpy version it was recorded
with.  ``tests/test_golden.py`` replays it.  A re-record prints each value
that moves against the committed corpus, old -> new, for CHANGES.md: it
compares by ``same``, as the replay does, but with no tolerance.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
CORPUS = Path(__file__).resolve().with_name("cli.json")
GEOM = "demos/densities/geom_decay.json"
CONFIG = "tests/golden/chernoff_config.json"

#: name -> argv; every case sets --seed and --no-timestamp, so its bytes are fixed
CASES = {
    "density_eval": ["density", "eval", "--density", "cos:2,0.5",
                     "--omega", "0", "1.5708", "-3"],
    "density_norms": ["density", "norms", "--density", GEOM, "--alpha", "1"],
    "density_membership_theta1": ["density", "membership", "--density", GEOM,
                                  "--space", "theta1", "--alpha", "1", "--M", "20"],
    "density_membership_theta2": ["density", "membership", "--density", "cos:1.2,0.5",
                                  "--space", "theta2", "--d", "1", "--M", "5"],
    "density_membership_theta2prime": ["density", "membership", "--density", GEOM,
                                       "--space", "theta2prime", "--d", "20", "--M", "20"],
    "symbol_build": ["symbol", "build", "--density", "cos:2,0.5", "--n", "4"],
    "symbol_build_circulant": ["symbol", "build", "--density", GEOM, "--n", "5",
                               "--circulant"],
    "symbol_eigs": ["symbol", "eigs", "--density", GEOM, "--m", "7"],
    "symbol_gap": ["symbol", "gap", "--density", "cos:2,0.5", "--n", "16", "--m", "21",
                   "--alpha", "1"],
    "symbol_bracket_cos": ["symbol", "bracket", "--density", "cos:3,-1.2", "--n", "33"],
    "symbol_bracket_geom": ["symbol", "bracket", "--density", GEOM, "--n", "64"],
    "state_entropy": ["state", "entropy", "--a1", "cos:2,0.5", "--a2", "cos:2.2,0.4",
                      "--n", "16"],
    "state_entropy_distant": ["state", "entropy", "--a1", "const:1.0001", "--a2", "const:1e300",
                              "--n", "1"],
    "state_pinsker": ["state", "pinsker", "--a1", "cos:2,0.5", "--a2", "cos:2.2,0.4",
                      "--n", "16"],
    "state_bound": ["state", "bound", "--a1", "cos:3,0.5", "--a2", "cos:3.05,0.5",
                    "--n", "16", "--lam", "0.6"],
    "dist_hellinger": ["dist", "hellinger", "--lam", "2", "--mu", "3"],
    "dist_hellinger_shapes": ["dist", "hellinger", "--lam", "2", "--mu", "3",
                              "--r", "1.5", "--r2", "2.5"],
    "dist_hellinger_symbols": ["dist", "hellinger", "--lam", "2", "--mu", "3",
                               "--r", "1.5"],
    "dist_hellinger_huge": ["dist", "hellinger", "--lam", "1e15", "--mu", "2e15"],
    "dist_chernoff": ["dist", "chernoff", "--a0", "const:2", "--a1", "cos:3,0.5"],
    "dist_chernoff_t": ["dist", "chernoff", "--a0", "const:2", "--a1", "const:4",
                        "--t", "0.3", "--classical"],
    "dist_chernoff_equal": ["dist", "chernoff", "--a0", "cos:2,0.5", "--a1", "cos:2,0.5"],
    "dist_chernoff_near": ["dist", "chernoff", "--a0", "const:43.53229371173461",
                           "--a1", "const:43.498961346488855"],
    "dist_chernoff_huge": ["dist", "chernoff", "--a0", "const:1e300", "--a1", "const:3"],
    "dist_varstab": ["dist", "varstab", "--a", "2"],
    "simulate_geo": ["simulate", "geo", "--density", "cos:2,0.5", "--n", "20"],
    "simulate_geo_points": ["simulate", "geo", "--density", GEOM, "--n", "20",
                            "--variant", "points"],
    "simulate_wn": ["simulate", "wn", "--density", "cos:2,0.5", "--n", "16", "--L", "64"],
    "simulate_wn_local": ["simulate", "wn", "--density", "cos:2,0.5", "--n", "16",
                          "--L", "64", "--transform", "local", "--center", "cos:2,0.4"],
    "simulate_measure": ["simulate", "measure", "--density", "cos:2,0.5", "--n", "30",
                         "--d", "1"],
    "estimate_prelim": ["estimate", "prelim", "--density", "cos:2,0.5", "--n", "64",
                        "--d", "1"],
    "estimate_onestep": ["estimate", "onestep", "--density", "cos:2,0.5", "--n", "64",
                         "--d", "1", "--M", "5"],
    "estimate_nonparam": ["estimate", "nonparam", "--density", "cos:2,0.5", "--n", "65",
                          "--d-n", "2"],
    "audit_chain": ["audit", "chain", "--density", "cos:2,0.5", "--n-list", "65,129",
                    "--format", "json"],
    "audit_chain_large": ["audit", "chain", "--density", "cos:2,0.5", "--n-list", "257,513",
                          "--format", "json"],
    "audit_state": ["audit", "state", "--density", GEOM, "--n", "32", "--m", "35,41"],
    "audit_sufficiency": ["audit", "sufficiency", "--p", "0.5", "--draws", "2000"],
    "mc_normality": ["mc", "normality", "--density", "cos:2,0.5", "--n", "64", "--d", "1",
                     "--replicates", "500"],
    "mc_moments_odd": ["mc", "moments", "--density", "cos:2,0.5", "--m", "7",
                       "--replicates", "300"],
    "mc_moments_even": ["mc", "moments", "--density", GEOM, "--m", "8",
                        "--replicates", "300"],
    "config_dist_chernoff": ["--config", CONFIG, "dist", "chernoff"],
}

SEED = "1"


def argv_of(name: str) -> list:
    return ["--seed", SEED, "--no-timestamp", *CASES[name]]


def command_of(argv: list) -> tuple:
    """The (group, command) of a case's argv, after a leading ``--config FILE``."""
    return tuple(argv[2:4] if argv[0] == "--config" else argv[:2])


def _field(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse(stdout: str):
    """stdout as JSON, else as rows of comma or space separated fields."""
    try:
        return {"json": json.loads(stdout)}
    except json.JSONDecodeError:
        return {"rows": [[_field(t) for t in re.split(r"[ ,]", line)]
                         for line in stdout.splitlines()]}


def same(got, want, rel_tol: float = 1e-12) -> bool:
    """Whether two parsed outputs agree: floats to rel_tol relative, all else exactly."""
    if isinstance(want, float) and type(got) is float:
        return got == want or math.isclose(got, want, rel_tol=rel_tol) or (
            math.isnan(got) and math.isnan(want))
    if type(got) is not type(want):
        return False
    if isinstance(want, list):
        return len(got) == len(want) and all(same(g, w, rel_tol) for g, w in zip(got, want))
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(same(got[k], want[k], rel_tol) for k in want)
    return got == want


def moved(old, new, rel_tol: float = 1e-12, path: str = ""):
    """Yield (path, old, new) for each value of new that is not ``same`` as old's.

    Lists of one length and dicts of one key set are walked into; any other
    difference, a changed shape included, is one moved value at its path.
    """
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        for key in old:
            yield from moved(old[key], new[key], rel_tol, f"{path}.{key}")
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (o, n) in enumerate(zip(old, new)):
            yield from moved(o, n, rel_tol, f"{path}[{i}]")
    elif not same(new, old, rel_tol):
        yield path, old, new


def case_moves(name: str, old: dict, new: dict, rel_tol: float = 1e-12) -> list:
    """Lines "name.key...: old -> new" for a case's exit code, stderr and stdout."""
    return [f"{name}.{key}{path}: {o!r} -> {n!r}"
            for key in ("exit_code", "stderr", "stdout")
            for path, o, n in moved(old[key], new[key], rel_tol)]


def run_case(name: str) -> dict:
    """Run one case in-process from the repository root."""
    from qsts.cli import cli_dispatch

    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_dispatch(argv_of(name))
    finally:
        os.chdir(cwd)
    stdout = out.getvalue()
    return {"exit_code": code, "sha256": hashlib.sha256(stdout.encode()).hexdigest(),
            "stdout": parse(stdout), "stderr": err.getvalue()}


def option_surface() -> list:
    """Sorted [group, command, option] over the root ("", "") and every subcommand."""
    from qsts.cli import build_parser

    def options(parser):
        return [a.option_strings[-1] for a in parser._actions
                if a.option_strings and a.dest != "help"]

    root = build_parser()
    rows = [["", "", opt] for opt in options(root)]
    rows += [[group, name, opt] for (group, name), leaf in root.commands.items()
             for opt in options(leaf)]
    return sorted(rows)


def record() -> dict:
    return {"numpy": np.__version__, "python": platform.python_version(),
            "seed": int(SEED), "options": option_surface(),
            "cases": {name: {"argv": argv_of(name), **run_case(name)} for name in CASES}}


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    committed = json.loads(CORPUS.read_text())["cases"] if CORPUS.exists() else {}
    corpus = record()
    for name, case in corpus["cases"].items():
        old = committed.get(name)
        for line in case_moves(name, old, case, 0.0) if old else [f"{name}: new case"]:
            print(line)
    for name in committed.keys() - corpus["cases"].keys():
        print(f"{name}: case removed")
    CORPUS.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"wrote {CORPUS.relative_to(ROOT)}: {len(CASES)} cases")
