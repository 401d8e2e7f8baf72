"""The benchmark's hooks into rbfuq still resolve.

perfbench wraps functions where rbfuq's callers look them up, including
names that ``rbfuq.cli`` imports for it alone; deleting one of those
breaks the benchmark, which this file catches.
"""
import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

layers = importlib.import_module("perfbench.layers")


@pytest.mark.parametrize(
    "module,attr", [(module, attr) for module, attr, _, _ in layers.targets()],
    ids=lambda v: v if isinstance(v, str) else v.__name__,
)
def test_wrapped_attribute_exists_and_is_callable(module, attr):
    assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} is missing or not callable"


def test_workloads_import():
    importlib.import_module("perfbench.workloads")
