import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from obscheck import PosteriorContext, load_model
from obscheck.closed_form import (
    UndefinedEstimatorError,
    mean_and_variance_oracle,
    reciprocal_mean_oracle,
    unknown_variance_oracle,
)
from obscheck.optimize import check_maximum, maximize
from obscheck.samples import design_disturbance_matrix, representative_disturbances
from obscheck.study import make_design_observations

from conftest import DESK_LCD, local_variances_at

VARIANCE_ONLY = load_model("unknown_variance")
MEAN_AND_VARIANCE = load_model("mean_and_variance")
RECIPROCAL_MEAN = load_model("reciprocal_mean")


class TestUnknownVariance:
    def test_design_pair_recovers_b(self):
        z = np.array([math.sqrt(0.8), -math.sqrt(0.8)])
        assert unknown_variance_oracle(z).estimates["b"] == pytest.approx(0.8)

    def test_estimator_variance(self):
        result = unknown_variance_oracle(np.zeros(20), b_true=0.8)
        assert result.variances["b"] == pytest.approx(0.064)

    def test_degenerate_observation(self):
        result = unknown_variance_oracle(np.zeros(4))
        assert result.estimates["b"] == 0.0
        assert result.local_variances["b"] == 0.0

    def test_local_variance_formula(self):
        z = np.array([1.0, 0.5, -0.25, 2.0])
        result = unknown_variance_oracle(z)
        b_hat = result.estimates["b"]
        assert result.local_variances["b"] == pytest.approx(2 * b_hat**2 / 4)


class TestMeanAndVariance:
    def test_bias_of_variance_estimate(self):
        result = mean_and_variance_oracle(np.zeros(4), a_true=0.6, b_true=0.4)
        assert result.expected_values["b"] == pytest.approx(0.3)
        assert result.expected_values["a"] == pytest.approx(0.6)

    def test_representative_design_vector(self):
        z = make_design_observations(
            MEAN_AND_VARIANCE, representative_disturbances(4, DESK_LCD)
        )
        result = mean_and_variance_oracle(z)
        assert result.estimates["a"] == pytest.approx(0.6, abs=1e-12)
        assert result.estimates["b"] == pytest.approx(0.4, abs=1e-12)
        assert result.local_variances["a"] == pytest.approx(0.1, abs=1e-12)
        assert result.local_variances["b"] == pytest.approx(0.08, abs=1e-12)

    def test_constant_observations(self):
        result = mean_and_variance_oracle(np.full(6, 1.7))
        assert result.estimates["a"] == pytest.approx(1.7)
        assert result.estimates["b"] == 0.0

    def test_single_observation_rejected(self):
        with pytest.raises(ValueError):
            mean_and_variance_oracle(np.array([1.0]))


class TestReciprocalMean:
    def test_simple_values(self):
        # what = T / sum(z)
        assert reciprocal_mean_oracle(np.array([2.0, 2.0])).estimates["w"] == pytest.approx(0.5)
        assert reciprocal_mean_oracle(np.array([0.5, 0.5, 1.0])).estimates["w"] == pytest.approx(1.5)

    def test_zero_sum_is_undefined(self):
        with pytest.raises(UndefinedEstimatorError):
            reciprocal_mean_oracle(np.array([1.0, -1.0]))

    def test_local_variance_formula(self):
        # -2L'' = 2T / what^4 at what = T / sum z, so LVar = what^4 / T
        result = reciprocal_mean_oracle(np.array([0.5, 0.5, 1.0]))
        assert result.local_variances["w"] == pytest.approx(1.5 ** 4 / 3)


@given(seed=st.integers(0, 2**32 - 1), horizon=st.integers(2, 30))
@settings(max_examples=40)
def test_numeric_maximization_matches_variance_oracle(seed, horizon):
    rng = np.random.default_rng(seed)
    z = rng.normal(0.0, math.sqrt(0.8), size=horizon)
    oracle = unknown_variance_oracle(z)
    ctx = PosteriorContext(VARIANCE_ONLY, z)
    result = maximize(ctx, np.array([0.8]))
    assert result.omega_hat[0] == pytest.approx(oracle.estimates["b"], abs=1e-6)
    lvar = check_maximum(ctx, result).local_variances
    assert lvar[0] == pytest.approx(oracle.local_variances["b"], rel=1e-6)


@given(seed=st.integers(0, 2**32 - 1), horizon=st.integers(2, 30))
@settings(max_examples=40)
def test_numeric_maximization_matches_mean_variance_oracle(seed, horizon):
    rng = np.random.default_rng(seed)
    z = rng.normal(0.6, math.sqrt(0.4), size=horizon)
    oracle = mean_and_variance_oracle(z)
    ctx = PosteriorContext(MEAN_AND_VARIANCE, z)
    result = maximize(ctx, np.array([0.6, 0.4]))
    assert result.estimates["a"] == pytest.approx(oracle.estimates["a"], abs=1e-6)
    assert result.estimates["b"] == pytest.approx(oracle.estimates["b"], abs=1e-6)
    lvar = check_maximum(ctx, result).local_variances
    assert lvar[0] == pytest.approx(oracle.local_variances["a"], rel=1e-6)
    assert lvar[1] == pytest.approx(oracle.local_variances["b"], rel=1e-6)


@given(seed=st.integers(0, 2**32 - 1), horizon=st.integers(2, 29))
@settings(max_examples=40)
def test_numeric_maximization_matches_reciprocal_mean_oracle(seed, horizon):
    # away from a zero sum, where what = T / sum z is undefined, every fit
    # that passes its checks is the closed form's maximum
    rng = np.random.default_rng(seed)
    z = rng.normal(1.0, 1.0, size=horizon)
    assume(abs(z.sum()) >= 0.2 * horizon)
    oracle = reciprocal_mean_oracle(z)
    ctx = PosteriorContext(RECIPROCAL_MEAN, z)
    result = maximize(ctx, RECIPROCAL_MEAN.true_vector())
    report = check_maximum(ctx, result)
    assume(report.passed)
    assert result.omega_hat[0] == pytest.approx(oracle.estimates["w"], rel=1e-6)
    assert report.local_variances[0] == pytest.approx(oracle.local_variances["w"], rel=1e-6)


@pytest.mark.parametrize("name,oracle", [
    ("unknown_variance", unknown_variance_oracle),
    ("mean_and_variance", mean_and_variance_oracle),
    ("reciprocal_mean", reciprocal_mean_oracle),
])
def test_exact_curvature_gives_oracle_local_variances(name, oracle):
    # at the closed-form estimates, the local variances from the exact -2L
    # Hessian are the closed-form ones up to rounding
    model = load_model(name)
    rng = np.random.default_rng(12)
    rows = []
    for horizon in range(2, 21):
        rows.extend(rng.standard_normal((20, horizon)))
        rows.append(representative_disturbances(horizon, DESK_LCD))
    for horizon in (4, 12, 20):
        rows.extend(design_disturbance_matrix(horizon, 200, DESK_LCD))
    for eps in rows:
        z = make_design_observations(model, eps)
        result = oracle(z)
        omega = [result.estimates[name] for name in model.param_names]
        want = [result.local_variances[name] for name in model.param_names]
        lvar = local_variances_at(PosteriorContext(model, z), omega)
        assert lvar.tolist() == pytest.approx(want, rel=1e-12, abs=0.0)
