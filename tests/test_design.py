"""Design rules of the package, read from its source with ``ast``.

* Only ``pbw`` builds a polynomial from terms it declares normalized: every
  other module sums through ``pbw.linear_combination``.
* ``params._accumulate`` is the one add-into loop for sparse term maps.
* ``elements`` reaches no private name of ``pbw`` but the rewrite tables,
  which ``clear_caches`` empties.
* ``classical`` imports nothing from ``pbw``.
* Only ``algebra`` states the so/sp pair relation: ``classical`` and ``shifts``
  call no ``eps``.
* ``AlgebraSpec.coordinate_pattern`` is the one statement of a generator as a
  matrix: it is read only by ``AlgebraSpec.realize``, its inverse
  ``coordinates_of`` and its transpose ``classical.coordinate_gradient``, and no
  module names a ``defining_matrix``.
* Every public function has a caller in the package or is a library entry point,
  and every public method or property of a package class is reached as an
  attribute, ``obj.name``, in the package outside its own body; the name of a
  function of an imported module, ``linalg.rank``, is not such a reference.
* Only ``pbw._walk`` and the product cache ``_Tables.mul_word_gen`` call
  ``pbw._fold``: every product and every raw term map reaches normal form
  through the one prefix walk.
* Every option of a CLI command is read by that command's runner or by
  ``cli.main``, and a runner reads no option its command does not declare.
* No module imports ``dataclasses``, and importing the CLI loads neither it
  nor ``inspect``: every CLI process pays for its imports before any check.
* Nothing waits for interpreter teardown, which ``cli.run`` skips with its one
  ``os._exit``: no module imports ``atexit``, ``threading``, ``weakref`` or
  ``signal`` or defines ``__del__``, and every ``open`` is a ``with`` item.
"""

import argparse
import ast
import subprocess
import sys
from collections import Counter
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


def _functions(tree):
    """(qualified name, node) of each top-level function and method."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            yield top.name, top
        elif isinstance(top, ast.ClassDef):
            yield from ((f"{top.name}.{fn.name}", fn) for fn in top.body
                        if isinstance(fn, ast.FunctionDef))


def _modules(tree):
    """The names a file binds to modules: ``import json``, ``from . import linalg``,
    ``from . import elements as el``."""
    return {alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module is None
            for alias in node.names}


def _attributes(node, modules):
    """obj.name references under ``node``, but for a module's own names."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
                   and not (isinstance(n.value, ast.Name) and n.value.id in modules))


def test_every_public_method_is_referenced_in_the_package(trees):
    # a method is reached as obj.name, so a bare name of the same spelling
    # (an imported function, a local) does not count as a reference, nor does
    # a module's function of that name (linalg.rank for ShiftMatrix.rank)
    references = sum((_attributes(tree, _modules(tree)) for tree in trees.values()), Counter())
    unused = set()
    for tree in trees.values():
        modules = _modules(tree)
        for name, fn in _functions(tree):
            method = name.split(".")[-1]
            if "." not in name or method.startswith("_"):
                continue  # a function, a dunder or a private method
            # a reference inside the method's own body does not count
            if references[method] == _attributes(fn, modules)[method]:
                unused.add(name)
    assert unused == set()


def test_only_algebra_states_the_pair_relation(trees):
    # the so/sp relation -eps(i)*eps(j)*B[-j,-i] is algebra.involution's;
    # classical and shifts reach it through involution, symmetry_signs and sign_basis
    assert {name for name in ("classical.py", "shifts.py") for node in ast.walk(trees[name])
            if isinstance(node, ast.Call) and _reference(node.func) == "eps"} == set()


def test_one_map_from_coordinates_to_matrices(trees):
    readers = {(module, name) for module, tree in trees.items() for name, fn in _functions(tree)
               for node in ast.walk(fn) if _reference(node) == "coordinate_pattern"
               and name != "AlgebraSpec.coordinate_pattern"}
    assert readers == {("algebra.py", "AlgebraSpec.realize"),
                       ("algebra.py", "AlgebraSpec.coordinates_of"),
                       ("classical.py", "coordinate_gradient")}
    assert [module for module, tree in trees.items() for node in ast.walk(tree)
            if _reference(node) == "defining_matrix"
            or getattr(node, "name", None) == "defining_matrix"] == []


def test_fold_is_called_only_by_the_walk_and_the_product_cache(trees):
    callers = {(module, name) for module, tree in trees.items() for name, fn in _functions(tree)
               for node in ast.walk(fn)
               if isinstance(node, ast.Call) and _reference(node.func) == "_fold"}
    assert callers == {("pbw.py", "_walk"), ("pbw.py", "_Tables.mul_word_gen")}


def _leaf_parsers(parser, path=()):
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield " ".join(path), parser
    for action in subparsers:
        for name, child in action.choices.items():
            yield from _leaf_parsers(child, (*path, name))


def _args_read(tree, function):
    [fn] = [top for top in tree.body if isinstance(top, ast.FunctionDef) and top.name == function]
    return {node.attr for node in ast.walk(fn) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}


def test_every_cli_option_is_read_where_it_is_declared(trees):
    from envshift import cli

    shared = _args_read(trees["cli.py"], "main")
    leaves = dict(_leaf_parsers(cli.build_parser()))
    assert sorted(leaves) == ["chain", "classical duality", "classical lemma2",
                              "classical tangent", "expand", "rank", "verify"]
    for command, parser in leaves.items():
        dests = {a.dest for a in parser._actions if not isinstance(a, argparse._HelpAction)}
        options = {a.dest for a in parser._actions
                   if a.option_strings and not isinstance(a, argparse._HelpAction)}
        read = _args_read(trees["cli.py"], parser.get_default("run").__name__)
        assert options - read - shared == set(), command
        assert read - dests == set(), command


def _imported(trees):
    """(module file, top-level name of a library it imports)."""
    imported = {(name, alias.name.split(".")[0]) for name, tree in trees.items()
                for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    return imported | {(name, node.module.split(".")[0]) for name, tree in trees.items()
                       for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module}


def test_no_module_imports_dataclasses(trees):
    assert {name for name, module in _imported(trees) if module == "dataclasses"} == set()


def test_nothing_waits_for_interpreter_teardown(trees):
    # ``python -m envshift`` leaves through os._exit once its report is closed
    teardown = {"atexit", "threading", "weakref", "signal"}
    assert {(name, module) for name, module in _imported(trees) if module in teardown} == set()
    assert [name for name, tree in trees.items() for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "__del__"] == []
    managed = {id(item.context_expr) for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.With) for item in node.items}
    assert [(name, node.lineno) for name, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _reference(node.func) in ("open", "fdopen")
            and id(node) not in managed] == []
    exits = {(module, name) for module, tree in trees.items() for name, fn in _functions(tree)
             for node in ast.walk(fn)
             if isinstance(node, ast.Call) and _reference(node.func) == "_exit"}
    assert exits == {("cli.py", "run")}


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # -I -S: no site, no user paths, no PYTHON* variables, so the rule does
    # not depend on what the machine's site-packages import at start-up
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import envshift.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
