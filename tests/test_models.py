import json
import math
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from obscheck import ModelError, ModelSpec, ParamSpec, bundled_model_names, load_model
from obscheck.expressions import DomainError
from obscheck.models import model_from_dict
from obscheck.study import make_design_observations

from conftest import _POINTS, _expr_strategy
from tree_walker import eval_expr, eval_hessian


def test_bundled_models_all_load():
    names = bundled_model_names()
    assert {
        "unknown_variance",
        "mean_and_variance",
        "additive_mean_pair",
        "reciprocal_mean",
        "ratio_mean_scale_sqrt_a",
        "ratio_mean_scale_sqrt_ab",
        "ratio_mean_scale_sqrt_ratio",
        "product_mean",
    } <= set(names)
    for name in names:
        model = load_model(name)
        assert model.param_names


def test_true_values_of_study_models():
    model = load_model("mean_and_variance")
    assert model.true_values() == {"a": 0.6, "b": 0.4}
    # eps = 0 and 1 give m and m + s at the true values
    assert make_design_observations(model, [0.0, 1.0]) == pytest.approx([0.6, 0.6 + np.sqrt(0.4)])


def test_load_from_path(tmp_path):
    path = tmp_path / "custom.json"
    path.write_text(
        json.dumps(
            {
                "parameters": [{"name": "c", "true_value": 2.0, "lower": 0.5}],
                "mean": "c",
                "scale": "1",
            }
        )
    )
    model = load_model(path)
    assert model.name == "custom"
    assert model.bounds() == [(0.5, np.inf)]
    assert str(model.log_prior_expr) == "0.0"  # default uniform prior


def test_missing_model_file():
    with pytest.raises(ModelError, match="not found"):
        load_model("no_such_model")


_MINE = json.dumps({"parameters": [{"name": "c", "true_value": 2.0}], "mean": "c", "scale": "1"})


@pytest.mark.parametrize("made,source,loads", [
    # a bare bundled name, with or without .json, is the bundled model
    # whatever the working directory holds
    ("unknown_variance", "unknown_variance", "bundled"),
    ("unknown_variance/", "unknown_variance", "bundled"),
    ("unknown_variance.json", "unknown_variance", "bundled"),
    ("unknown_variance.json", "unknown_variance.json", "bundled"),
    # any other source is a path
    ("unknown_variance.json", "./unknown_variance.json", "file"),
    ("unknown_variance.json", "no/such/dir/unknown_variance.json", "missing"),
    ("unknown_variance.json", "{tmp}/unknown_variance", "missing"),
    ("mine.json", "mine.json", "file"),
    ("mine", "mine", "file"),
], ids=["file-named-like-bundled", "dir-named-like-bundled", "json-file-named-like-bundled",
        "json-file-named-like-bundled-json", "dot-slash-path", "mistyped-relative-path",
        "mistyped-absolute-path", "unbundled-name", "unbundled-name-without-json"])
def test_a_bare_bundled_name_never_reads_the_working_directory(tmp_path, monkeypatch, made,
                                                               source, loads):
    monkeypatch.chdir(tmp_path)
    if made.endswith("/"):
        (tmp_path / made).mkdir()
    else:
        (tmp_path / made).write_text(_MINE)
    source = source.format(tmp=tmp_path)
    if loads == "missing":
        with pytest.raises(ModelError) as info:
            load_model(source)
        assert str(info.value) == f"model file not found: {source}"
    elif loads == "bundled":
        bundled = resources.files("obscheck").joinpath("models", "unknown_variance.json")
        assert load_model(source) == load_model(str(bundled))
    else:
        model = load_model(source)
        assert model.name == Path(made).stem and model.param_names == ("c",)


def test_duplicate_parameter_names_rejected():
    with pytest.raises(ModelError, match="duplicate"):
        model_from_dict(
            {
                "parameters": [
                    {"name": "a", "true_value": 1.0},
                    {"name": "a", "true_value": 2.0},
                ],
                "mean": "a",
                "scale": "1",
            }
        )


def test_undeclared_parameter_rejected():
    with pytest.raises(ModelError, match="undeclared"):
        model_from_dict(
            {"parameters": [{"name": "a", "true_value": 1.0}], "mean": "a + q", "scale": "1"}
        )


def test_scale_must_be_positive_at_true_values():
    with pytest.raises(ModelError, match="positive"):
        model_from_dict(
            {"parameters": [{"name": "a", "true_value": -1.0}], "mean": "0", "scale": "a"}
        )


def test_scale_must_be_evaluable_at_true_values():
    with pytest.raises(ModelError, match="evaluable"):
        model_from_dict(
            {"parameters": [{"name": "a", "true_value": -1.0}], "mean": "0", "scale": "sqrt(a)"}
        )


@pytest.mark.parametrize(
    "field,params,text",
    [
        ("mean", [{"name": "a", "true_value": -1.0}], "sqrt(a)"),
        ("log_prior", [{"name": "b", "true_value": 0.4}], "log(b - 1)"),
        ("mean", [{"name": "a", "true_value": 1000.0}], "exp(a)"),
        ("mean", [{"name": "a", "true_value": 0.0}], "a^0.5"),  # a value, but no gradient
    ],
)
def test_mean_and_log_prior_must_be_evaluable_at_true_values(field, params, text):
    spec = {"parameters": params, "mean": "0", "scale": "1", field: text}
    with pytest.raises(ModelError, match=f"{field} is not evaluable"):
        model_from_dict(spec)


def test_mean_must_be_finite_at_true_values():
    with pytest.raises(ModelError, match="mean is not finite"):
        model_from_dict(
            {"parameters": [{"name": "a", "true_value": 1e308}], "mean": "a * 10", "scale": "1"}
        )


_VALID = {"parameters": [{"name": "a", "true_value": 0.6}], "mean": "a", "scale": "1"}


@pytest.mark.parametrize("data,message", [
    ([1], "must hold a JSON object, got list"),
    ({**_VALID, "parameters": 5}, "parameters must be a list, got int"),
    ({**_VALID, "parameters": [{"true_value": 0.6}]}, "with a name and a true_value"),
    ({**_VALID, "parameters": [{"name": "a", "true_value": "abc"}]},
     "parameter 'a': could not convert string to float: 'abc'"),
    ({**_VALID, "mean": 5}, "mean must be an expression string, got int"),
    ({**_VALID, "parameters": [], "mean": "0"}, "a model must declare at least one parameter"),
    # names that no expression can reference, so a typo could not read as a
    # model whose mean ignores the parameter
    *[({**_VALID, "parameters": [{"name": name, "true_value": 0.6}], "mean": "0"},
       f"parameter name {text} cannot appear in an expression")
      for name, text in (("", "''"), ("a b", "'a b'"), (5, "'5'"), ("1a", "'1a'"),
                         ("a-b", "'a-b'"), (" a", "' a'"))],
    # JSON booleans, which float() would read as 1.0 and 0.0
    ({**_VALID, "parameters": [{"name": "a", "true_value": True}]},
     "parameter 'a': true_value must be a number, not a bool"),
    ({**_VALID, "parameters": [{"name": "a", "true_value": 0.6, "lower": False}]},
     "parameter 'a': lower must be a number, not a bool"),
    ({**_VALID, "parameters": [{"name": "a", "true_value": 0.6, "upper": True}]},
     "parameter 'a': upper must be a number, not a bool"),
    # JSON integers too large for a float
    *[({**_VALID, "parameters": [{"name": "a", "true_value": 0.6, field: 10**400}]},
       "parameter 'a': int too large to convert to float")
      for field in ("true_value", "lower", "upper")],
])
def test_malformed_model_file_raises_model_error(tmp_path, data, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ModelError) as raised:
        load_model(path)
    assert message in str(raised.value)
    with pytest.raises(ModelError):
        model_from_dict(data)


@pytest.mark.parametrize("param,message", [
    ({"true_value": math.inf}, "true value of a must be finite, got inf"),
    ({"true_value": math.nan}, "true value of a must be finite, got nan"),
    ({"lower": math.nan}, "bounds of a must not be NaN"),
    ({"upper": math.nan}, "bounds of a must not be NaN"),
    ({"lower": 2.0, "upper": 1.0}, "must be below its upper bound, got [2.0, 1.0]"),
    ({"lower": 0.6, "upper": 0.6}, "must be below its upper bound, got [0.6, 0.6]"),
    ({"lower": 1.0}, "true value of a (0.6) lies outside its bounds [1.0, inf]"),
    ({"upper": 0.5}, "true value of a (0.6) lies outside its bounds [-inf, 0.5]"),
])
def test_parameter_values_that_make_the_verdict_meaningless_are_rejected(param, message):
    # the expressions do not use a, so only the parameter checks can reject it
    data = {"parameters": [{"name": "a", "true_value": 0.6, **param}],
            "mean": "0", "scale": "1"}
    with pytest.raises(ModelError) as raised:
        model_from_dict(data)
    assert message in str(raised.value)


@pytest.mark.parametrize("param", [
    {"lower": 0.6},  # a true value on its bound
    {"upper": 0.6},
    {"lower": -math.inf, "upper": math.inf},
    {"lower": 0.0, "upper": 1.0},
])
def test_valid_parameter_values_are_accepted(param):
    data = {"parameters": [{"name": "a", "true_value": 0.6, **param}],
            "mean": "a", "scale": "1"}
    assert model_from_dict(data).true_values() == {"a": 0.6}


def _walker_load_error(exprs, values):
    """The message of the check at the true values ``values`` done by the
    tree walker, or None where the model loads: mean, scale and log-prior in
    turn must have a value and a gradient, the scale must be positive and
    each value finite."""
    for label, expr in zip(("mean", "scale", "log_prior"), exprs):
        try:
            value = eval_hessian(expr, values, list(values))[0]
        except (DomainError, OverflowError) as exc:
            return f"{label} is not evaluable at the true values: {exc}"
        if label == "scale" and not value > 0.0:
            return f"scale must be strictly positive at the true values, got {value}"
        if not math.isfinite(value):
            return f"{label} is not finite at the true values: {value}"
    return None


def _load_error(names, exprs, point):
    try:
        ModelSpec("m", tuple(ParamSpec(n, v) for n, v in zip(names, point)), *exprs)
    except ModelError as exc:
        return str(exc)
    return None


@given(st.tuples(_expr_strategy(), _expr_strategy(), _expr_strategy()),
       st.tuples(_POINTS, _POINTS, _POINTS))
def test_load_check_equals_the_tree_walkers(exprs, point):
    # a model loads exactly where the walker gives the three values and their
    # gradients, and is rejected with the walker's message elsewhere
    names = ("a", "b", "c")
    assert _load_error(names, exprs, point) == \
        _walker_load_error(exprs, dict(zip(names, point)))


@pytest.mark.parametrize("name", bundled_model_names())
@given(point=st.tuples(_POINTS, _POINTS))
def test_bundled_load_check_and_mean_scale_equal_the_tree_walkers(name, point):
    # at the true values and at other points taken as true values
    model = load_model(name)
    exprs = (model.mean_expr, model.scale_expr, model.log_prior_expr)
    for omega in (model.true_vector().tolist(), list(point[: len(model.params)])):
        values = dict(zip(model.param_names, omega))
        error = _load_error(model.param_names, exprs, omega)
        assert error == _walker_load_error(exprs, values)
        if error is not None:  # the walker's mean or scale raised too
            continue
        # with omega as its true values the model pushes eps through
        # m + s * eps with the walker's m and s
        at_omega = ModelSpec(model.name, tuple(map(ParamSpec, model.param_names, omega)), *exprs)
        m, s = (eval_expr(e, values) for e in exprs[:2])
        eps = np.array([0.0, 1.0, -2.5])
        got = make_design_observations(at_omega, eps)
        assert got.dtype == np.float64 and got.tobytes() == (m + s * eps).tobytes()
