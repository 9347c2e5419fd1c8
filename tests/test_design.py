"""Design rules of the package, read from its source with ``ast``.

* Only ``pbw`` builds a polynomial from terms it declares normalized: every
  other module sums through ``pbw.linear_combination``.
* ``params._accumulate`` is the one add-into loop for sparse term maps.
* ``elements`` reaches no private name of ``pbw`` but the rewrite tables,
  which ``clear_caches`` empties.
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
