import json

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
