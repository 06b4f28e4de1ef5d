"""The physics stack does not know the agent exists, and neither knows the harness."""
from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "qdrl"

PHYSICS = ["qcore", "pulse", "noise", "tomography", "seeding", "rlenv"]


def imported_modules(path: Path) -> set[str]:
    """Absolute names of the qdrl modules a source file imports."""
    package = ["qdrl", *path.relative_to(SRC).parent.parts]
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def files_of(layer: str) -> list[Path]:
    return [SRC / f"{layer}.py"] if (SRC / f"{layer}.py").exists() else sorted(
        (SRC / layer).glob("*.py")
    )


def test_imports_resolve_relative_to_the_package():
    # rlagent/sac.py reaches tomography through "from ..tomography import ..."
    assert "qdrl.tomography" in imported_modules(SRC / "rlagent" / "sac.py")
    assert "qdrl.rlagent" in imported_modules(SRC / "harness" / "config.py")


@pytest.mark.parametrize("layer,forbidden", [
    *[(name, ("qdrl.rlagent", "qdrl.harness")) for name in PHYSICS],
    ("rlagent", ("qdrl.harness",)),
])
def test_layer_does_not_import_upward(layer, forbidden):
    files = files_of(layer)
    assert files
    for path in files:
        bad = sorted(
            name for name in imported_modules(path)
            if any(name == f or name.startswith(f + ".") for f in forbidden)
        )
        assert not bad, f"{path.relative_to(SRC)} imports {bad}"


# the determinism contract's record comparison; only tests compare reruns
TEST_ONLY_PUBLIC = {"records_equal"}


def _is_dataclass(node: ast.ClassDef) -> bool:
    """Decorated with @dataclass, @dataclass(...) or @dataclasses.dataclass."""
    return any(ast.unparse(deco).split("(")[0].split(".")[-1] == "dataclass"
               for deco in node.decorator_list)


def _is_classmethod(node: ast.FunctionDef) -> bool:
    return any(ast.unparse(deco) == "classmethod" for deco in node.decorator_list)


def public_definitions():
    """(qualified name, name, how it is read) of top-level functions, classes
    and UPPER_CASE constants, and of class methods, properties, nested
    classes and dataclass fields. How it is read: None for a top-level name,
    "" for a member read as any object's attribute, and the class's name for
    a classmethod, read as `<Class>.<name>`."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper() and target.id[0] != "_":
                    yield f"{path.relative_to(SRC)}:{target.id}", target.id, None
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name[0] != "_":
                yield f"{path.relative_to(SRC)}:{node.name}", node.name, None
            for item in node.body if isinstance(node, ast.ClassDef) else []:
                owner = ""
                if isinstance(item, (ast.FunctionDef, ast.ClassDef)):
                    name = item.name
                    if isinstance(item, ast.FunctionDef) and _is_classmethod(item):
                        owner = node.name
                elif (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                      and _is_dataclass(node)):
                    name = item.target.id
                else:
                    continue
                if name[0] != "_":
                    yield f"{path.relative_to(SRC)}:{node.name}.{name}", name, owner


def test_every_public_helper_has_a_non_test_caller():
    # a top-level name counts where it is read, bare or as a module
    # attribute, so a constant's own assignment is not its caller; a class
    # member (method, property, dataclass field) counts only where some
    # object's attribute of that name is read or called, not where a local
    # variable happens to share its name; a classmethod counts only where it
    # is read off its own class, not where another class's member shares
    # its name
    root = SRC.parents[1]
    names, attributes = set(), set()
    for tree in ("src", "demos", "perfbench"):
        for path in (root / tree).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    attributes.add(node.attr)
                    if isinstance(node.value, (ast.Name, ast.Attribute)):
                        owner = ast.unparse(node.value).split(".")[-1]
                        attributes.add(f"{owner}.{node.attr}")
    unused = sorted(where for where, name, owner in public_definitions()
                    if (f"{owner}.{name}" if owner else name) not in attributes
                    and (owner is not None or name not in names)
                    and name not in TEST_ONLY_PUBLIC)
    assert not unused, f"public helpers without a caller outside tests: {unused}"
