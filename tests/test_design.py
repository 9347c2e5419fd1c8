"""Design rules of the package, read from its source with ``ast``.

* Only ``pbw`` builds a polynomial from terms it declares normalized: every
  other module sums through ``pbw.linear_combination``.
* ``params._accumulate`` is the one add-into loop for sparse term maps.
* ``elements`` reaches no private name of ``pbw`` but the rewrite tables,
  which ``clear_caches`` empties.
* ``classical`` imports nothing from ``pbw``.
* Every public function has a caller in the package or is a library entry point.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "envshift"


@pytest.fixture(scope="module")
def trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_only_pbw_passes_the_normalized_keyword(trees):
    users = {name for name, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, ast.keyword) and node.arg == "normalized"}
    assert users == {"pbw.py"}


def test_accumulate_is_defined_once_in_params(trees):
    defs = [name for name, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "_accumulate"]
    assert defs == ["params.py"]


def test_elements_imports_no_private_pbw_name_but_the_tables(trees):
    tree = trees["elements.py"]
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "pbw"
                for alias in node.names}
    assert {name for name in imported if name.startswith("_")} == {"_TABLES"}
    # nor through the module object
    assert not any(isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
                   and any(alias.name == "pbw" for alias in node.names)
                   for node in ast.walk(tree))


def test_classical_imports_nothing_from_pbw(trees):
    names = {name for node in ast.walk(trees["classical.py"])
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for name in [getattr(node, "module", None) or "", *(a.name for a in node.names)]}
    assert not any(name.split(".")[-1] == "pbw" for name in names)


ENTRY_POINTS = {"parse", "shift_generator", "default_chain", "clear_caches"}


def _reference(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def test_every_public_function_is_called_in_the_package(trees):
    tops = [top for tree in trees.values() for top in tree.body]
    defined = {top.name for top in tops
               if isinstance(top, ast.FunctionDef) and not top.name.startswith("_")}
    # a reference inside a function's own definition does not count
    used = {_reference(node) for top in tops for node in ast.walk(top)
            if _reference(node) != getattr(top, "name", None)}
    assert defined - used - ENTRY_POINTS == set()
