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

from golden.record import (CASES, CORPUS, case_moves, command_of, moved, option_surface,
                           run_case, same)

CORPUS_DATA = json.loads(Path(CORPUS).read_text())


def test_corpus_covers_every_case_and_subcommand():
    assert sorted(CORPUS_DATA["cases"]) == sorted(CASES)
    commands = {command_of(argv) for argv in CASES.values()}
    assert commands == {(g, c) for g, c, _ in option_surface() if g}
    assert len(commands) == 24


def test_option_surface_is_recorded():
    assert option_surface() == CORPUS_DATA["options"]


def test_outputs_match_the_corpus():
    moves, byte_diffs = [], []
    for name in CASES:
        want, got = CORPUS_DATA["cases"][name], run_case(name)
        moves += case_moves(name, want, got)
        if got["sha256"] != want["sha256"]:
            byte_diffs.append(name)
    if byte_diffs:
        print(f"stdout bytes differ from the corpus (numpy {CORPUS_DATA['numpy']}): "
              + ", ".join(byte_diffs))
    assert moves == []


def test_same_compares_floats_relatively_and_all_else_exactly():
    assert same({"x": [1.0, "a", True]}, {"x": [1.0 + 1e-14, "a", True]})
    assert not same([1.0], [1.0 + 1e-9])
    assert not same([1], [1.0]) and not same([True], [1]) and not same(["1"], [1])
    assert same(math.nan, math.nan) and not same({"a": 1}, {"b": 1})
    assert not same([1.0], [1.0 + 1e-14], rel_tol=0.0)


def test_moved_lists_each_value_that_moves_old_to_new():
    old = {"json": {"v": [1.0, 2.0], "t": "a"}}
    new = {"json": {"v": [1.0 + 1e-14, 2.5], "t": "b"}}
    assert list(moved(old, new)) == [(".json.v[1]", 2.0, 2.5), (".json.t", "a", "b")]
    assert list(moved(old, new, 0.0))[0] == (".json.v[0]", 1.0, 1.0 + 1e-14)
    assert list(moved([1, 2], [1, 2, 3])) == [("", [1, 2], [1, 2, 3])]
    case = {"exit_code": 0, "stderr": "", "stdout": {"json": {"x": 1.0}}}
    assert case_moves("c", case, {**case, "stdout": {"json": {"x": -1.0}}}) == [
        "c.stdout.json.x: 1.0 -> -1.0"]
