"""Every name an obscheck module exports is defined there, and the package
root re-exports only exported names, so a deletion cannot leave a stale
export behind."""

import ast
import importlib
from pathlib import Path

import pytest

import obscheck

PACKAGE = Path(obscheck.__file__).parent
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem not in ("__init__", "__main__"))


def _defined(path: Path) -> set[str]:
    """The names that the source at ``path`` binds at top level by a
    ``def``, a ``class`` or an assignment, not by an import."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_are_defined_in_their_module(name):
    module = importlib.import_module(f"obscheck.{name}")
    exported = getattr(module, "__all__", [])
    assert sorted(set(exported) - _defined(PACKAGE / f"{name}.py")) == []
    assert len(set(exported)) == len(exported)


def test_package_root_imports_only_exported_names():
    imports = [node for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
               if isinstance(node, ast.ImportFrom)]
    assert imports and all(node.level == 1 for node in imports)
    for node in imports:
        exported = importlib.import_module(f"obscheck.{node.module}").__all__
        assert [alias.name for alias in node.names if alias.name not in exported] == [], \
            node.module


def test_package_root_has_no_one_point_helpers():
    # the batch path (maximize_rows, run_study) replaced them
    for name in ("maximize", "check_maximum", "local_variance", "run_part1", "run_part2"):
        assert not hasattr(obscheck, name), name
