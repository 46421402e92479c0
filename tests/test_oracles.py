"""The test-side references in oracles.py stay out of the package, in one copy."""

import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import qsts

import oracles

PACKAGE = pathlib.Path(qsts.__file__).parent

#: what oracles.py defines at top level, and the wrappers deleted in its favour
GUARDED = ["GaussState", "sample_number_ops"] + [
    getattr(node, "name", None) or node.targets[0].id
    for node in ast.parse(pathlib.Path(oracles.__file__).read_text()).body
    if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Assign))]


@pytest.mark.parametrize("module", ["qsts"] + [
    "qsts." + info.name for info in pkgutil.iter_modules(qsts.__path__)])
def test_no_oracle_is_reachable_from_the_package(module):
    assert {"EPS_CLAMP", "_log_psd", "s2_matrix", "geo_l1"} <= set(GUARDED)
    mod = importlib.import_module(module)
    assert [name for name in GUARDED if hasattr(mod, name)] == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_package_does_not_import_oracles(path):
    assert not re.search(r"^\s*(from|import)\s+\S*\boracles\b", path.read_text(), re.M)
