"""Every leaf class of ``qsts.errors`` is raised somewhere in the package.

A class that nothing raises is surface a caller can only catch in vain.  The
package source is read with ``ast`` (``raise Name(...)``, ``raise Name`` and
``raise module.Name(...)``); a leaf is a class of ``qsts.errors`` that no other
class there subclasses.
"""

import ast
import inspect
import pathlib

import pytest

import qsts
from qsts import errors

PACKAGE = pathlib.Path(qsts.__file__).parent
CLASSES = [c for _, c in inspect.getmembers(errors, inspect.isclass)
           if c.__module__ == errors.__name__]
LEAVES = sorted(c.__name__ for c in CLASSES
                if not any(o is not c and issubclass(o, c) for o in CLASSES))


def raised_names() -> set:
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                names.add(getattr(exc, "id", None) or getattr(exc, "attr", None))
    return names


RAISED = raised_names()


def test_leaves_are_the_classes_without_subclasses():
    assert {"NotToeplitz", "NonConvergence", "AuditFailure"} <= set(LEAVES)
    assert not {"QstsError", "InputError", "NumericalError"} & set(LEAVES)


@pytest.mark.parametrize("name", LEAVES)
def test_every_leaf_error_is_raised_in_the_package(name):
    assert name in RAISED, f"qsts.errors.{name} is raised nowhere in src/qsts"
