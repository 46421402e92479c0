"""Every leaf class of ``qsts.errors`` is raised somewhere in the package, and
the package raises nothing else.

A class that nothing raises is surface a caller can only catch in vain, and a
raise of any other class escapes the CLI's exit-code map.  The package source
is read with ``ast`` (``raise Name(...)``, ``raise Name`` and
``raise module.Name(...)``); a leaf is a class of ``qsts.errors`` that no other
class there subclasses.  Errors raised inside numpy are not seen here; the
CLI sweeps check those.
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


#: the option types of the CLI raise argparse's own error, which argparse reports
OPTION_TYPE_RAISES = [("cli.py", "argparse.ArgumentTypeError")] * 5


def raise_sites() -> list:
    """(file, raised class as written) of every raise in the package; None for a bare raise."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                sites.append((path.name, None if exc is None else ast.unparse(exc)))
    return sites


SITES = raise_sites()
RAISED = {name.rpartition(".")[2] for _, name in SITES if name is not None}


def test_leaves_are_the_classes_without_subclasses():
    assert {"NotAdmissible", "NonConvergence", "AuditFailure"} <= set(LEAVES)
    assert not {"QstsError", "InputError", "NumericalError"} & set(LEAVES)


@pytest.mark.parametrize("name", LEAVES)
def test_every_leaf_error_is_raised_in_the_package(name):
    assert name in RAISED, f"qsts.errors.{name} is raised nowhere in src/qsts"


def test_the_package_raises_only_its_own_classes():
    own = {c.__name__ for c in CLASSES}
    foreign = [site for site in SITES if (site[1] or "").removeprefix("errors.") not in own]
    assert foreign == OPTION_TYPE_RAISES
