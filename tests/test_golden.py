"""The golden corpus: every subcommand's fixed-seed output, replayed in-process.

``tests/golden/cli.json`` is written by ``tests/golden/record.py``.  Exit codes,
stderr, integers, booleans and strings must match exactly and floats to 1e-12
relative, so a BLAS or numpy update that moves the last digits does not fail
it.  A case whose stdout bytes differ while its values match is printed, not
failed.
"""

import json
import math
from pathlib import Path

from golden.record import CASES, CORPUS, command_of, option_surface, run_case

CORPUS_DATA = json.loads(Path(CORPUS).read_text())


def same(got, want) -> bool:
    """Whether two parsed outputs agree: floats to 1e-12 relative, all else exactly."""
    if isinstance(want, float) and type(got) is float:
        return got == want or math.isclose(got, want, rel_tol=1e-12) or (
            math.isnan(got) and math.isnan(want))
    if type(got) is not type(want):
        return False
    if isinstance(want, list):
        return len(got) == len(want) and all(map(same, got, want))
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(same(got[k], want[k]) for k in want)
    return got == want


def test_corpus_covers_every_case_and_subcommand():
    assert sorted(CORPUS_DATA["cases"]) == sorted(CASES)
    commands = {command_of(argv) for argv in CASES.values()}
    assert commands == {(g, c) for g, c, _ in option_surface() if g}
    assert len(commands) == 24


def test_option_surface_is_recorded():
    assert option_surface() == CORPUS_DATA["options"]


def test_outputs_match_the_corpus():
    moved, byte_diffs = [], []
    for name in CASES:
        want, got = CORPUS_DATA["cases"][name], run_case(name)
        for key in ("exit_code", "stderr", "stdout"):
            if not same(got[key], want[key]):
                moved.append(f"{name}: {key}")
        if got["sha256"] != want["sha256"]:
            byte_diffs.append(name)
    if byte_diffs:
        print(f"stdout bytes differ from the corpus (numpy {CORPUS_DATA['numpy']}): "
              + ", ".join(byte_diffs))
    assert moved == []


def test_same_compares_floats_relatively_and_all_else_exactly():
    assert same({"x": [1.0, "a", True]}, {"x": [1.0 + 1e-14, "a", True]})
    assert not same([1.0], [1.0 + 1e-9])
    assert not same([1], [1.0]) and not same([True], [1]) and not same(["1"], [1])
    assert same(math.nan, math.nan) and not same({"a": 1}, {"b": 1})
