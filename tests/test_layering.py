"""Module layering of the package: each module imports only the modules
below it in LAYERS, only at module top, and only names it uses; every
module-level private name is used somewhere in the package; and every
public function and class of the layers below io is exported or used;
every dataclass field is read somewhere in the package or its tests."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "toricfano"
LAYERS = ("errors", "lattice", "fan", "primitive", "fvector", "invariants",
          "io", "oracle", "cli")
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _package_imports(node: ast.AST) -> list[str]:
    """The package modules an import statement names; [] for any other
    statement or an import from outside the package."""
    if isinstance(node, ast.Import):
        paths = [a.name.split(".") for a in node.names]
        return [p[1] for p in paths if p[0] == "toricfano" and len(p) > 1]
    if not isinstance(node, ast.ImportFrom):
        return []
    path = (["toricfano"] if node.level else []) + \
        (node.module.split(".") if node.module else [])
    if path[:1] != ["toricfano"]:
        return []
    return path[1:2] or [a.name for a in node.names]


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def test_every_module_has_a_layer():
    assert MODULES == sorted(LAYERS)


@pytest.mark.parametrize("module", MODULES)
def test_imports_point_down_the_layers(module):
    rank = LAYERS.index(module)
    for node in ast.walk(_tree(module)):
        for target in _package_imports(node):
            assert LAYERS.index(target) < rank, \
                f"{module} imports {target} (line {node.lineno})"


@pytest.mark.parametrize("module", MODULES)
def test_no_package_import_inside_a_function(module):
    for func in ast.walk(_tree(module)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            assert not _package_imports(node), \
                f"{module}.{func.name} imports {_package_imports(node)} " \
                f"(line {node.lineno})"


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_used(module):
    tree = _tree(module)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items()
              if name not in used}
    assert not unused, f"{module} imports unused names {unused}"


def _top_level_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return [t.id for target in targets for t in ast.walk(target)
            if isinstance(t, ast.Name)]


def _mentioned(node: ast.AST) -> set[str]:
    """The names and attribute names that a statement mentions."""
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | \
        {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def _unmentioned(wanted) -> list[str]:
    """module.name for each module-level name that wanted(module, statement,
    name) selects and that no other package statement mentions. The
    statement that defines a name is no use of it, so a helper that loses
    its last caller shows up here."""
    statements = [(p.stem, top) for p in sorted(PACKAGE.glob("*.py"))
                  for top in ast.parse(p.read_text(encoding="utf-8")).body]
    mentioned = [_mentioned(top) for _, top in statements]
    return [f"{module}.{name}"
            for i, (module, top) in enumerate(statements)
            for name in _top_level_names(top)
            if wanted(module, top, name)
            and not any(name in m for j, m in enumerate(mentioned)
                        if j != i)]


def test_every_private_name_is_used():
    unused = _unmentioned(lambda module, top, name: name.startswith("_")
                          and not name.startswith("__"))
    assert not unused, f"private names with no use: {unused}"


def test_every_public_name_is_exported_or_used():
    # io and oracle hold entry points for users and tests, such as
    # parse_fan and write_corpus, so they are left out.
    exported = {alias.asname or alias.name for node in _tree("__init__").body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    unused = _unmentioned(
        lambda module, top, name: module in ("lattice", "fan", "primitive",
                                             "fvector", "invariants")
        and isinstance(top, (ast.FunctionDef, ast.ClassDef))
        and not name.startswith("_") and name not in exported)
    assert not unused, f"public names neither exported nor used: {unused}"


def test_only_fan_names_the_cone_table():
    # The other modules read the table through _cone_coordinates,
    # validate or _h_counts; an import of it counts as naming it.
    naming = []
    for module in MODULES + ["__init__"]:
        tree = _tree(module)
        imported = {a.name for a in ast.walk(tree)
                    if isinstance(a, ast.alias)}
        if "_cone_adjugates" in _mentioned(tree) | imported:
            naming.append(module)
    assert naming == ["fan"]


def _is_dataclass(node: ast.AST) -> bool:
    return isinstance(node, ast.ClassDef) and any(
        isinstance(d, ast.Name) and d.id == "dataclass" or
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
        and d.func.id == "dataclass" for d in node.decorator_list)


def test_every_dataclass_field_is_read():
    # A field is read when some attribute access names it, as in
    # report.factors; building the record is no use of it, so a field that
    # nothing reads shows up here.
    paths = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    read = {n.attr for p in paths
            for n in ast.walk(ast.parse(p.read_text(encoding="utf-8")))
            if isinstance(n, ast.Attribute)}
    unread = [f"{module}.{cls.name}.{field.target.id}" for module in MODULES
              for cls in ast.walk(_tree(module)) if _is_dataclass(cls)
              for field in cls.body if isinstance(field, ast.AnnAssign)
              and field.target.id not in read]
    assert not unread, f"dataclass fields that nothing reads: {unread}"
