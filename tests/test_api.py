"""The package ``__all__`` lists match what each ``__init__`` imports, and
every name the package defines has a use."""
import ast
import importlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _bound_names(init: Path) -> list:
    """Names an __init__ binds at module level: its imports and assignments, less __all__."""
    names = []
    for node in ast.parse(init.read_text()).body:
        if isinstance(node, ast.ImportFrom):
            names += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name) and t.id != "__all__"]
    return names


@pytest.mark.parametrize("package", ["rbfuq", "rbfuq.models"])
def test_all_lists_exactly_the_imported_names(package):
    module = importlib.import_module(package)
    init = SRC.joinpath(*package.split("."), "__init__.py")
    bound = _bound_names(init)
    assert len(module.__all__) == len(set(module.__all__))
    assert len(bound) == len(set(bound))
    assert sorted(module.__all__) == sorted(bound)


ROOT = SRC.parent
# Where a use of a public name counts: the package, and the code that ships beside it.
USERS = ("src", "demos", "perfbench", "tools", "stubs")


def _referenced_names(files) -> set:
    """Names loaded, read as attributes or imported anywhere in ``files``,
    outside the package ``__init__`` re-exports."""
    inits = {SRC / "rbfuq" / "__init__.py", SRC / "rbfuq" / "models" / "__init__.py"}
    names = set()
    for path in files:
        if path in inits:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("package", ["rbfuq", "rbfuq.models"])
def test_every_public_name_has_a_use_outside_the_tests(package):
    files = [p for top in USERS for p in sorted((ROOT / top).rglob("*.py"))]
    files.append(ROOT / "tests" / "test_acceptance.py")
    public = set(importlib.import_module(package).__all__) - {"__version__"}
    unused = sorted(public - _referenced_names(files))
    assert not unused, f"{package} exports names that only their own tests use: {unused}"


def test_every_private_definition_is_used_in_the_package():
    # a definition is not a use, so a private helper whose last caller went is caught
    files = sorted(SRC.rglob("*.py"))
    private = [
        f"{path.relative_to(SRC)}::{node.name}"
        for path in files
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    used = _referenced_names(files)
    unused = [name for name in private if name.split("::")[1] not in used]
    assert not unused, f"private definitions that nothing in src/ uses: {unused}"
