"""The benchmark's traced run finds every function it names on qsts.

``perfbench/layers.py`` lists the functions its span wrappers rebind by
dotted name, plus modules whose whole public surface it wraps.  The lists
are read with ``ast`` (perfbench is not imported), so a rename or removal in
qsts fails here instead of in a traced benchmark run.  Each target must be a
plain function: the traced run skips what ``inspect.isfunction`` rejects,
so a cache wrapper (cache the private builder it calls instead) would
silently drop a span from the per-layer trace.

``perfbench/workloads.py`` calls qsts directly as well; every
``<qsts module>.<attr>...`` chain it spells, and every name it imports from a
qsts module, must resolve.  The eigensolves of its dense audits are pinned
here, so a return to solves where the lag floor or values alone suffice
fails this suite rather than a benchmark pair.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

from qsts.experiments import audit_state_approximation
from qsts.spectral import parse_density

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
WORKLOADS = LAYERS.with_name("workloads.py")


def layers_constant(name):
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/layers.py defines no {name}")


def named_targets():
    return layers_constant("NAMED_TARGETS")


@pytest.mark.parametrize("name", named_targets())
def test_named_target_resolves(name):
    module, *attrs = name.split(".")
    owner = importlib.import_module("qsts." + module)
    for attr in attrs:
        owner = getattr(owner, attr)
    assert inspect.isfunction(owner), f"{name} is {type(owner).__name__}, not a function"


@pytest.mark.parametrize("module", layers_constant("WHOLE_MODULES"))
def test_whole_module_surface_is_plain_functions(module):
    mod = importlib.import_module("qsts." + module)
    wrapped = [k for k, v in vars(mod).items()
               if not k.startswith("_") and callable(v) and not isinstance(v, type)
               and getattr(v, "__module__", None) == mod.__name__
               and not inspect.isfunction(v)]
    assert wrapped == []


def workload_references():
    """Dotted names ``module.attr...`` that workloads.py reads off qsts."""
    tree = ast.parse(WORKLOADS.read_text())
    modules, refs = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "qsts":
            modules.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qsts."):
            refs.update(node.module[len("qsts."):] + "." + alias.name for alias in node.names)
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            refs.add(".".join([node.id] + chain))
    return sorted(refs)


def test_workloads_reach_qsts():
    assert {"estimators.design_matrices", "spectral.RealParam.from_density",
            "errors.QstsError"} <= set(workload_references())


@pytest.mark.parametrize("name", workload_references())
def test_workload_reference_resolves(name):
    module, *attrs = name.split(".")
    owner = importlib.import_module("qsts." + module)
    for attr in attrs:
        owner = getattr(owner, attr)


def test_cos256_audit_solves_for_values_only(solves):
    # the circulant block equals A_256 (K_max = 1), so only the
    # faithfulness gate runs, and the lag floor of A_256 clears it
    report = audit_state_approximation(parse_density("cos:2,0.5"), 256, None)
    assert [r.value for r in report.rows if r.label == "relative_entropy"] == [0.0]
    assert solves == []
