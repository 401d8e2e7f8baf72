"""The package ``__all__`` lists match what each ``__init__`` imports."""
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
