import json
import math

import numpy as np
import pytest

from obscheck import ModelError, bundled_model_names, load_model
from obscheck.models import model_from_dict


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
    assert model.mean_scale(model.true_vector()) == pytest.approx([0.6, np.sqrt(0.4)])


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
