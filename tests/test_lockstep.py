"""The lock-step fit against one-row fits, and the work it does on a study.

Each row of a lock-step run must equal, bit for bit, the fit of a context
that holds that row alone, the curvature at its maximum included: the rows
advance together, one ``neg2l_rows`` call and one stacked ``eigh`` per
round, but no row's arithmetic depends on the others.  A row whose start
is infeasible fails with the reason that the tree walker gives for it.
"""

import pytest

from obscheck import InfeasiblePointError, bundled_model_names, load_model
from obscheck.closed_form import mean_and_variance_oracle, unknown_variance_oracle
from obscheck.models import model_from_dict
from obscheck.optimize import _MAX_ITERS, OptConfig, maximize_rows
from obscheck.posterior import PosteriorContext
from obscheck.samples import design_disturbance_matrix, representative_disturbances
from obscheck.study import StudyConfig, _fit_blocks, make_design_observations

from conftest import DESK_LCD, _TreeWalkerContext, curvature_key


def _outcome(result):
    if isinstance(result, InfeasiblePointError):
        return str(result)
    return (result.omega_hat.tobytes(), result.iterations, result.converged,
            result.grad_inf_norm, result.trace, curvature_key(result.curvature))


def _walker_start_reason(model, z, x0):
    try:
        _TreeWalkerContext(model, z).neg2l_grad(x0)
    except InfeasiblePointError as exc:
        return str(exc)
    return None


def _assert_rows_equal_one_row_fits(model, eps, cfg=OptConfig()):
    """Every design row of one lock-step run equals the fit of that row on
    its own, and a row whose start is infeasible fails with the walker's
    reason."""
    observations = make_design_observations(model, eps)
    x0 = model.true_vector()
    results = maximize_rows(PosteriorContext(model, observations), x0, cfg)
    want = [maximize_rows(PosteriorContext(model, z), x0, cfg)[0] for z in observations]
    assert [_outcome(r) for r in results] == [_outcome(w) for w in want]
    infeasible = [k for k, r in enumerate(results) if isinstance(r, InfeasiblePointError)]
    reasons = [_walker_start_reason(model, observations[k], x0) for k in infeasible]
    assert [str(results[k]) for k in infeasible] == reasons
    if infeasible:
        study_cfg = StudyConfig(model=model, T_list=(eps.shape[1],), opt=cfg)
        (records,) = _fit_blocks(model, [observations[infeasible]], study_cfg)
        assert [r.reason for r in records] == [f"infeasible start: {r}" for r in reasons]
    return results


README_MODEL = model_from_dict({
    "parameters": [{"name": "a", "true_value": 0.6},
                   {"name": "b", "true_value": 0.4, "lower": 0.0}],
    "mean": "a", "scale": "sqrt(b)", "log_prior": "0",
}, name="readme_example")


@pytest.mark.parametrize("horizon", [4, 20])
@pytest.mark.parametrize("name", bundled_model_names())
def test_bundled_designs_equal_per_row_reference(name, horizon):
    model = load_model(name)
    _assert_rows_equal_one_row_fits(model, design_disturbance_matrix(horizon, 200, DESK_LCD))


def test_projection_equals_per_row_reference():
    # the README's model bounds b below by 0: trial steps get projected
    _assert_rows_equal_one_row_fits(README_MODEL, design_disturbance_matrix(4, 200, DESK_LCD))


def test_iteration_cap_rows_equal_per_row_reference():
    # away from the bundled true values the posterior of three of eight rows
    # has no maximum: they run into the iteration cap while the others
    # converge within 9 iterations
    model = model_from_dict({
        "parameters": [{"name": "a", "true_value": 1.438}, {"name": "b", "true_value": 3.0}],
        "mean": "a/b", "scale": "sqrt(a*b)",
    })
    results = _assert_rows_equal_one_row_fits(model, design_disturbance_matrix(4, 8, DESK_LCD))
    assert [r.iterations for r in results] == [9, 500, 7, 6, 7, 7, 500, 500]


def test_infeasible_starts_equal_per_row_reference():
    # Q overflows on the rows whose deviations are largest: those starts are
    # infeasible, the others fit
    model = model_from_dict({"parameters": [{"name": "b", "true_value": 1e154}],
                             "mean": "0", "scale": "b"})
    results = _assert_rows_equal_one_row_fits(model, design_disturbance_matrix(4, 200, DESK_LCD))
    assert 0 < sum(isinstance(r, InfeasiblePointError) for r in results) < len(results)


def test_infeasible_start_hessians_equal_per_row_reference():
    # at b = 1e-90 the scale's fourth power underflows: every start is
    # feasible, but no row has a Hessian there, so each stays at its start
    model = model_from_dict({"parameters": [{"name": "b", "true_value": 1e-90}],
                             "mean": "0", "scale": "b"})
    results = _assert_rows_equal_one_row_fits(model, design_disturbance_matrix(4, 8, DESK_LCD))
    assert all(r.omega_hat.tolist() == [1e-90] and r.iterations == 0 and not r.converged
               for r in results)


# per bundled model, the rounds of one lock-step fit of a study at T = 4, 20
# (K = 200, 150 placement iterations), and those that the L-BFGS fit it
# replaced took
STUDY_ROUNDS = {
    "unknown_variance": (13, 20),
    "mean_and_variance": (21, 45),
    "ratio_mean_scale_sqrt_a": (36, 103),
    "ratio_mean_scale_sqrt_ab": (29, 69),
    "additive_mean_pair": (2, 8),
    "product_mean": (12, 12),
    "ratio_mean_scale_sqrt_ratio": (24, 24),
    "reciprocal_mean": (29, 40),
}
CLOSED_FORMS = {
    "unknown_variance": lambda z: unknown_variance_oracle(z).estimates,
    "mean_and_variance": lambda z: mean_and_variance_oracle(z).estimates,
}


def _study_blocks(model):
    """Part I's vector and Part II's 200 design vectors at T = 4 and 20."""
    return [block for horizon in (4, 20) for block in (
        make_design_observations(model, representative_disturbances(horizon, DESK_LCD)),
        make_design_observations(model, design_disturbance_matrix(horizon, 200, DESK_LCD)))]


@pytest.mark.parametrize("name", bundled_model_names())
def test_study_rounds_iterations_and_closed_forms(name):
    model = load_model(name)
    blocks = _study_blocks(model)
    ctx = PosteriorContext(model, blocks)
    calls = []
    rows_call = ctx.neg2l_rows

    def counted(rows, points):
        calls.append(len(rows))
        return rows_call(rows, points)

    ctx.neg2l_rows = counted
    results = maximize_rows(ctx, model.true_vector())
    # the starts, then one call per round
    assert calls[0] == len(ctx)
    rounds, lbfgs_rounds = STUDY_ROUNDS[name]
    assert len(calls) - 1 == rounds <= lbfgs_rounds
    assert max(r.iterations for r in results) < _MAX_ITERS
    if name in CLOSED_FORMS:
        part2 = [*blocks[1], *blocks[3]]
        for z, fit in zip(part2, results[1:201] + results[202:]):
            want = CLOSED_FORMS[name](z)
            got = fit.estimates
            assert all(abs(got[p] - want[p]) <= 1e-9 * abs(want[p]) for p in want), (got, want)


@pytest.mark.parametrize("name", bundled_model_names())
def test_a_study_evaluates_once_at_the_starts_and_once_per_round(name, monkeypatch):
    # the checks read the curvature that each fit holds: fitting and
    # checking a study takes the call at the starts and one call per round,
    # and no call at the maxima
    model = load_model(name)
    calls = []
    rows_call = PosteriorContext.neg2l_rows

    def counted(self, rows, points):
        calls.append(len(rows))
        return rows_call(self, rows, points)

    monkeypatch.setattr(PosteriorContext, "neg2l_rows", counted)
    records = _fit_blocks(model, _study_blocks(model), StudyConfig(model=model, T_list=(4, 20)))
    rounds, _ = STUDY_ROUNDS[name]
    assert len(calls) == 1 + rounds
    assert calls[0] == sum(len(block) for block in records) == 402
    assert all(r.checks is not None for block in records for r in block)
