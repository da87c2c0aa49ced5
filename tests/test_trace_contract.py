"""The benchmark's traced run patches obscheck callables by name; a renamed
or moved one would only show when that run crashes, so the names are
checked here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child.TRACED


@pytest.mark.parametrize("name,where,attr", [entry[:3] for entry in _traced()])
def test_traced_name_resolves(name, where, attr):
    module_name, _, class_name = where.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    assert callable(getattr(owner, attr, None)), f"{name}: {where}.{attr} is missing"
