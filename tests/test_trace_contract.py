"""The benchmark's traced run patches obscheck callables by name; a renamed
or moved one would only show when that run crashes, so the names are
checked here, and so are the ``obscheck run`` flags it passes, every
obscheck name that the benchmark and the scripts import, and that a traced
name still sees the calls it counts."""

import argparse
import ast
import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from obscheck import ModelSpec, PosteriorContext, load_model
from obscheck.cli import _build_parser
from obscheck.samples import design_disturbance_matrix
from obscheck.study import _fit_blocks, make_design_observations

from conftest import DESK_LCD

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def _child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


def _traced():
    return _child().TRACED


@pytest.mark.parametrize("name,where,attr", [entry[:3] for entry in _traced()])
def test_traced_name_resolves(name, where, attr):
    module_name, _, class_name = where.partition(":")
    owner = importlib.import_module(module_name)
    if class_name:
        owner = getattr(owner, class_name)
    assert callable(getattr(owner, attr, None)), f"{name}: {where}.{attr} is missing"


def _benchmark_run_flags() -> set[str]:
    """Every ``--flag`` constant in the ``args = [...]`` list of the
    benchmark's ``invoke``, which it passes to ``obscheck run``."""
    tree = ast.parse((CHILD.parent / "run.py").read_text())
    flags = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name == "invoke":
            for node in ast.walk(fn):
                if (isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
                        and any(isinstance(t, ast.Name) and t.id == "args"
                                for t in node.targets)):
                    flags.update(
                        c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str)
                        and c.value.startswith("--")
                    )
    return flags


def test_benchmark_run_flags_are_run_options():
    parser = _build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = subparsers.choices["run"]._option_string_actions
    flags = _benchmark_run_flags()
    assert "--threads" in flags and "--cache-dir" in flags
    assert sorted(f for f in flags if f not in options) == []


def _obscheck_imports() -> list[tuple[str, str, str]]:
    """(file, module, name) of every ``from obscheck... import name`` in the
    benchmark and the scripts, most of them inside functions."""
    root = CHILD.parent.parent
    found = []
    for path in sorted([*root.glob("perfbench/*.py"), *root.glob("scripts/*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "obscheck":
                found += [(path.name, node.module, alias.name) for alias in node.names]
    return sorted(set(found))


@pytest.mark.parametrize("where,module_name,name", _obscheck_imports())
def test_imported_name_resolves(where, module_name, name):
    module = importlib.import_module(module_name)
    # a name may be an attribute or a submodule of the package
    assert (hasattr(module, name)
            or importlib.util.find_spec(f"{module_name}.{name}") is not None), (
        f"{where}: from {module_name} import {name} fails")


def test_traced_model_evaluations_follow_every_posterior_call(monkeypatch):
    # the traced run reads the fit's expression evaluations from the spans
    # of models.mean_scale_prior_grad: every neg2l_rows call of the fit and
    # of its checks evaluates the expressions through it exactly once
    model = load_model("mean_and_variance")
    z = make_design_observations(model, design_disturbance_matrix(4, 20, DESK_LCD))
    tracer = _child().Tracer()
    for owner, attr in ((ModelSpec, "mean_scale_prior_grad"), (PosteriorContext, "neg2l_rows")):
        monkeypatch.setattr(owner, attr, tracer.wrap(attr, getattr(owner, attr)))
    _fit_blocks(model, [z])
    names = [tracer.names[span[0]] for span in tracer.spans]
    counts = Counter(names)
    assert counts["mean_scale_prior_grad"] == counts["neg2l_rows"] > 2
    assert all(names[span[3]] == "neg2l_rows"
               for name, span in zip(names, tracer.spans) if name == "mean_scale_prior_grad")


def test_traced_checks_see_every_fitted_row(monkeypatch):
    # the traced run reads the check metrics from the spans of
    # optimize.check_maximum, patched where TRACED names it: the study
    # checks each fitted maximum through that name once
    child = _child()
    (where, attr, attrs), = [entry[1:] for entry in child.TRACED
                             if entry[0] == "optimize.check_maximum"]
    owner = importlib.import_module(where)
    tracer = child.Tracer()
    monkeypatch.setattr(owner, attr, tracer.wrap("check_maximum", getattr(owner, attr), attrs))
    model = load_model("mean_and_variance")
    z = make_design_observations(model, design_disturbance_matrix(4, 20, DESK_LCD))
    # and a row whose start is infeasible, which has no maximum to check
    records, (infeasible,) = _fit_blocks(
        model, [z, np.array([1.0, np.inf, 0.0, 2.0])])
    assert infeasible.checks is None
    assert [span[5]["passed"] for span in tracer.spans] == [r.passed for r in records]
    assert len(records) == 20 and all(r.passed for r in records)
