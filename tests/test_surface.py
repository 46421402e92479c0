"""Every name that ``qsts`` exports has a reader outside the tests.

A public name that only tests reach is surface that no command, demo or
workload needs.  The scan reads, with ``ast``, the package modules (all but
``__init__.py``, which only re-exports), the demos and the benchmark under
``perfbench/``, and counts a name as referenced where it appears as a name, an
attribute or an imported name.  The few names kept for the tests by decision
are listed with their reasons.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "qsts"

#: exported names that only the tests read, each kept for the reason given
TEST_ONLY = {
    "joint_pmf_from_pgf": "criterion oracle: the exact joint law of the number outcomes",
    "exact_pi_bar_mean": "criterion oracle: the exact mean of the averaged observable",
    "geo_kl": "the face the tests check the private KL kernel against",
    "nb_sample": "the face the tests check the sufficiency test's draws against",
}


def exported() -> set:
    """The names that ``qsts/__init__.py`` imports from its modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def referenced(paths) -> set:
    """Every name, attribute and imported name that appears in ``paths``."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update({node.name, node.asname} - {None})
    return names


def readers() -> list:
    """The files outside ``tests/`` that may read an exported name."""
    return ([p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
            + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")))


def test_every_export_has_a_reader_outside_the_tests():
    unread = exported() - referenced(readers())
    assert unread == set(TEST_ONLY), sorted(unread ^ set(TEST_ONLY))


def test_the_scan_sees_names_attributes_and_imports(tmp_path):
    assert len(exported()) > 80 and {"sample_pi_blocks", "RngStream"} <= exported()
    probe = tmp_path / "probe.py"
    probe.write_text("from a import b as c\nd.e(f)\n")
    assert referenced([probe]) == {"b", "c", "d", "e", "f"}
