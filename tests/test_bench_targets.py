"""The benchmark's traced run finds every function it names on qsts.

``perfbench/layers.py`` lists the functions its span wrappers rebind by
dotted name.  The list is read with ``ast`` (perfbench is not imported), so
a rename or removal in qsts fails here instead of in a traced benchmark run.
"""

import ast
import importlib
import pathlib

import pytest

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def named_targets():
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "NAMED_TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/layers.py defines no NAMED_TARGETS")


@pytest.mark.parametrize("name", named_targets())
def test_named_target_resolves(name):
    module, *attrs = name.split(".")
    owner = importlib.import_module("qsts." + module)
    for attr in attrs:
        owner = getattr(owner, attr)
    assert callable(owner)
