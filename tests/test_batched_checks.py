"""The batched Hessians and checks against the one-row code they replaced.

``reference_hessian`` (conftest) is the Hessian of -2L for one row by the
chain rule through the tree walker ``tree_walker.eval_hessian``, and
``_reference_check`` the four checks of one maximum from one ``eigh`` of
that matrix.  Every row of
:meth:`PosteriorContext.neg2l_rows` and every check of a fitted maximum,
which reads the curvature its fit holds, must equal them bit for bit, notes
and error messages included; both give every NaN entry as ``np.nan``.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from obscheck import InfeasiblePointError, bundled_model_names, load_model
from obscheck.expressions import parse_expr
from obscheck.models import ModelError, ModelSpec, ParamSpec, model_from_dict
from obscheck.optimize import (
    MaxResult, OptConfig, _curvatures, check_maximum, check_rows, maximize_rows,
)
from obscheck.posterior import PosteriorContext
from obscheck.samples import design_disturbance_matrix
from obscheck.study import (
    StudyConfig, _aggregate, _baseline, _fit_blocks, make_design_observations, run_part1,
    run_part2, run_study,
)

from conftest import DESK_LCD, curvature_key, local_variances_at, reference_hessian
from test_expressions import _POINTS, _expr_strategy

THREE_PARAMETERS = model_from_dict({
    "parameters": [{"name": "a", "true_value": 0.5}, {"name": "b", "true_value": 1.2},
                   {"name": "c", "true_value": 0.8, "lower": 0.0}],
    "mean": "a * b + c", "scale": "sqrt(b * c) + a^2", "log_prior": "log(c) - a * b / 2",
}, name="three_parameters")


def _reference_check_of(hessian, result, cfg=OptConfig()):
    """The checks of ``result`` from its Hessian, or from the error raised
    in its place, by one ``eigh`` of that one matrix."""
    grad_inf = float(result.grad_inf_norm)
    try:
        if isinstance(hessian, Exception):
            raise hessian
        eigvals, eigvecs = np.linalg.eigh(hessian)
        if np.any(eigvals == 0.0):
            lvar = np.full(len(eigvals), np.inf)
        else:
            lvar = 2.0 * (eigvecs * eigvecs) @ (1.0 / eigvals)
    except (InfeasiblePointError, np.linalg.LinAlgError) as exc:
        return (False, False, False, False, np.float64(grad_inf).tobytes(),
                np.float64(np.nan).tobytes(), None, f"curvature evaluation failed: {exc}")
    lam_min, lam_max = float(eigvals[0]), float(eigvals[-1])
    hessian_pd = lam_min > 0.0
    eig_ratio = lam_min / lam_max if lam_max != 0.0 else float("nan")
    lvar_finite = hessian_pd and all(math.isfinite(v) and v < cfg.lvar_max for v in lvar.tolist())
    return (grad_inf < cfg.grad_check, hessian_pd,
            math.isfinite(eig_ratio) and eig_ratio > cfg.eig_ratio_min, lvar_finite,
            np.float64(grad_inf).tobytes(), np.float64(eig_ratio).tobytes(),
            lvar.tobytes() if hessian_pd else None, None)


def _reference_check(ctx, result, k, cfg=OptConfig()):
    try:
        hessian = reference_hessian(ctx, result.omega_hat, k)
    except InfeasiblePointError as exc:
        hessian = exc
    return _reference_check_of(hessian, result, cfg)


def _check_key(report):
    lvar = report.local_variances
    return (report.grad_ok, report.hessian_pd, report.eig_ratio_ok, report.lvar_finite,
            np.float64(report.grad_inf_norm).tobytes(), np.float64(report.eig_ratio).tobytes(),
            None if lvar is None else np.asarray(lvar, dtype=float).tobytes(), report.note)


def _hessian_or_error(fn):
    try:
        return fn().tobytes()
    except InfeasiblePointError as exc:
        return "infeasible", str(exc)


def _assert_hessians_equal_reference(ctx, rows, points):
    *_, hess, _, why = ctx.neg2l_rows(rows, points)
    assert hess.shape == (len(rows),) + (len(ctx.param_names),) * 2
    for i, (k, omega) in enumerate(zip(rows, points)):
        want = _hessian_or_error(lambda: reference_hessian(ctx, omega, k))
        assert (why(i) is None) == (not isinstance(want, tuple))
        if why(i) is None:
            assert hess[i].tobytes() == want
        assert _hessian_or_error(lambda: ctx.hessian_neg2l(omega, k)) == want


def _fitted_design(model, horizon, count=200):
    ctx = PosteriorContext(model, make_design_observations(
        model, design_disturbance_matrix(horizon, count, DESK_LCD)))
    results = maximize_rows(ctx, model.true_vector())
    rows = [k for k, r in enumerate(results) if isinstance(r, MaxResult)]
    return ctx, rows, [results[k] for k in rows]


@pytest.mark.parametrize("horizon", [4, 20])
@pytest.mark.parametrize("name", bundled_model_names())
def test_hessian_rows_equal_reference_at_fitted_maxima(name, horizon):
    ctx, rows, results = _fitted_design(load_model(name), horizon)
    _assert_hessians_equal_reference(ctx, rows, np.array([r.omega_hat for r in results]))


def test_hessian_rows_equal_reference_with_three_parameters():
    ctx, rows, results = _fitted_design(THREE_PARAMETERS, 4, 50)
    points = np.array([r.omega_hat for r in results])
    _assert_hessians_equal_reference(ctx, rows, points)
    # and away from the maxima, where a and c go out of the domain
    rng = np.random.default_rng(3)
    _assert_hessians_equal_reference(ctx, rows, points + rng.normal(0.0, 1.0, points.shape))


@settings(suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_expr_strategy(), _expr_strategy(), _expr_strategy(),
       st.lists(st.tuples(_POINTS, _POINTS, _POINTS), min_size=1, max_size=4),
       st.integers(0, 2**32 - 1))
# drawn examples where m is about 1e200, so Q + T (zbar - m)^2 and -2L
# overflow: the Hessian call marks them as the gradient call does
@example(parse_expr("-(1/b)"), parse_expr("1"), parse_expr("1"), [(0.0, 1e-200, 0.0)], 0)
@example(parse_expr("-(6.0133474049845175/b)"), parse_expr("abs(5.621198822699153)"),
         parse_expr("abs(5.621198822699153)"),
         [(0.5, 9.419479717936017e-177, -2.993279487712422e-263)] * 4, 0)
# a feasible point whose Hessians hold NaN entries, whose sign bit numpy sets
# by the number of rows in the call and by the row: at a = 0, a^1.5 has the
# second derivative inf, times 0 off the diagonal
@example(parse_expr("a^1.5 + b"), parse_expr("1"), parse_expr("1"), [(0.0, 0.5, 0.5)] * 4, 0)
def test_hessian_rows_equal_reference_on_expression_trees(mean, scale, prior, points, seed):
    # log, exp and ^ anywhere, points off the domain and scales that are not
    # positive there
    params = (ParamSpec("a", 0.7), ParamSpec("b", 1.3), ParamSpec("c", 0.4))
    try:
        model = ModelSpec(name="tree", params=params, mean_expr=mean,
                          scale_expr=scale, log_prior_expr=prior)
    except ModelError:
        assume(False)
    z = np.random.default_rng(seed).normal(0.6, 0.8, size=(len(points), 3))
    ctx = PosteriorContext(model, z)
    _assert_hessians_equal_reference(ctx, list(range(len(points))), np.array(points))


@pytest.mark.parametrize("name", [*bundled_model_names(), "three_parameters"])
def test_check_rows_equal_reference_over_a_design(name):
    model = THREE_PARAMETERS if name == "three_parameters" else load_model(name)
    ctx, rows, results = _fitted_design(model, 4)
    reports = check_rows(results)
    assert [_check_key(r) for r in reports] == [
        _reference_check(ctx, result, k) for k, result in zip(rows, results)]
    assert [_check_key(check_maximum(result)) for result in results] \
        == [_check_key(r) for r in reports]
    if name == "additive_mean_pair":
        # a straight ridge: every Hessian has an exact zero eigenvalue, and
        # every local variance is infinite
        assert all(r.eig_ratio == 0.0 and not r.hessian_pd for r in reports)
        assert np.isinf(local_variances_at(ctx, results[0].omega_hat, rows[0])).all()


def test_check_rows_keep_the_one_row_records_of_failing_rows(monkeypatch):
    # fitted rows, a row that is not finite, a row whose Q overflows (so
    # does -2L), a point where the gradient overflows before the scale's
    # fourth power underflows, one on a row of zeros where only the fourth
    # power underflows, and a point off the domain; one call gives their
    # Hessians and names why the infeasible ones are, as the fit's call at
    # its starts does, and the checks read the curvatures alone
    model = load_model("unknown_variance")
    design = make_design_observations(model, design_disturbance_matrix(4, 20, DESK_LCD))
    blocks = [design, np.array([1.0, np.inf, 0.0, 2.0]), np.array([1e200, -1e200, 0.0, 1.0]),
              np.zeros(4)]
    ctx = PosteriorContext(model, blocks)
    fitted = maximize_rows(ctx, model.true_vector())[:22]
    results = [r for r in fitted if isinstance(r, MaxResult)]
    rows = [k for k, r in enumerate(fitted) if isinstance(r, MaxResult)]
    assert rows == list(range(20))

    rows += [20, 21, 3, 22, 4]
    points = np.array([r.omega_hat for r in results] + [[0.8], [0.8], [1e-180], [1e-180], [-1.0]])
    calls = []
    rows_call = PosteriorContext.neg2l_rows

    def counted(self, rows, points):
        calls.append(len(rows))
        return rows_call(self, rows, points)

    monkeypatch.setattr(PosteriorContext, "neg2l_rows", counted)
    *_, hess, feasible, why = ctx.neg2l_rows(rows, points)
    curvatures = _curvatures(hess, feasible & np.isfinite(hess).all(axis=(1, 2)), why)
    # the curvatures that the fitted rows hold are those of one call at
    # their maxima
    assert [curvature_key(c) for c in curvatures[:20]] == [
        curvature_key(r.curvature) for r in results]
    results += [MaxResult(omega_hat=omega, param_names=("b",), converged=False, iterations=0,
                          grad_inf_norm=1e-3, trace=(0.0,), curvature=curvature)
                for omega, curvature in zip(points[20:], curvatures[20:])]
    reports = check_rows(results)
    assert calls == [25]  # the one call above: the checks make none
    assert [_check_key(r) for r in reports] == [
        _reference_check(ctx, result, k) for k, result in zip(rows, results)]
    notes = [r.note for r in reports[20:]]
    assert notes[0] == "curvature evaluation failed: observation vector must be finite"
    assert notes[1] == "curvature evaluation failed: -2 log-posterior is not finite (inf)"
    assert notes[2] == "curvature evaluation failed: gradient of -2 log-posterior is not finite"
    assert notes[3] == ("curvature evaluation failed: scale 1e-90 is too small: "
                        "its fourth power underflows")
    assert notes[4].startswith("curvature evaluation failed: sqrt of non-positive value")
    assert all(r.note is None for r in reports[:20]) and all(r.passed for r in reports[:20])


def _results(matrices):
    """Two-parameter maxima whose curvatures come from the given Hessians,
    as the fit hands them to ``_curvatures``: with the mask of the finite
    ones, and no failed test to name."""
    hess = np.array(matrices, dtype=float)
    curvatures = _curvatures(hess, np.isfinite(hess).all(axis=(1, 2)), lambda i: None)
    return [MaxResult(omega_hat=[0.0, 0.0], param_names=("x", "y"), converged=True,
                      iterations=1, grad_inf_norm=1e-7, trace=(0.0,), curvature=curvature)
            for curvature in curvatures]


MATRICES = [[[2.0, 0.5], [0.5, 1.0]], [[np.nan, 0.0], [0.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]],
            [[4.0, 0.0], [0.0, 1e-9]], [[1.0, 0.0], [0.0, -1.0]], [[np.inf, 0.0], [0.0, 1.0]]]


def test_a_stack_with_one_nan_matrix_checks_every_other_row():
    results = _results(MATRICES)
    reports = check_rows(results)
    assert [_check_key(r) for r in reports] == [
        _reference_check_of(np.array(h), r) for h, r in zip(MATRICES, results)]
    assert reports[0].passed and not reports[1].passed


def test_a_stack_that_fails_to_converge_goes_matrix_by_matrix(monkeypatch):
    eigh = np.linalg.eigh

    def fails_on_stacks(a):
        if a.ndim == 3 and len(a) > 1:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", fails_on_stacks)
    results = _results(MATRICES)
    monkeypatch.undo()
    assert [_check_key(r) for r in check_rows(results)] == [
        _reference_check_of(np.array(h), r) for h, r in zip(MATRICES, results)]


def _record_key(record):
    def floats(d):
        return None if d is None else {n: np.float64(v).tobytes() for n, v in d.items()}

    return (record.k, floats(record.estimates), record.passed, record.reason, record.converged,
            record.iterations, record.grad_inf_norm,
            None if record.checks is None else _check_key(record.checks),
            floats(record.local_variances))


def _part2_key(part):
    return (part.horizon, [_record_key(r) for r in part.records], part.n_passed, part.n_failed,
            part.empirical_mean, part.empirical_variance, part.mean_local_variance,
            part.median_grad_inf_norm)


@pytest.mark.parametrize("random_baseline", [False, True])
@pytest.mark.parametrize("name", ["mean_and_variance", "product_mean"])
def test_study_equals_its_parts_run_one_by_one(name, random_baseline):
    model = load_model(name)
    cfg = StudyConfig(model=model, T_list=(4, 20), K=200, lcd=DESK_LCD,
                      random_baseline=random_baseline)
    report = run_study(cfg)
    for horizon, part1, part2 in zip(cfg.T_list, report.part1, report.part2):
        alone = run_part1(model, horizon, cfg)
        assert part1.z_rep.tobytes() == alone.z_rep.tobytes()
        assert _record_key(part1.run) == _record_key(alone.run)
        assert _part2_key(part2) == _part2_key(run_part2(model, horizon, cfg.K, cfg))
    if random_baseline:
        for horizon, part in zip(cfg.T_list, report.baseline):
            (records,) = _fit_blocks(model, [_baseline(model, horizon, cfg)], cfg)
            assert _part2_key(part) == _part2_key(_aggregate(model, horizon, records))
    else:
        assert report.baseline is None


def test_one_context_holds_blocks_of_different_horizons():
    model = load_model("mean_and_variance")
    z4, z20 = np.arange(4.0) / 4.0, np.arange(40.0).reshape(2, 20) / 40.0
    ctx = PosteriorContext(model, [z4, z20])
    assert len(ctx) == 3 and ctx.horizon.tolist() == [4, 20, 20]
    assert ctx.finite.tolist() == [True, True, True]
    for k, one in enumerate([PosteriorContext(model, z4), PosteriorContext(model, z20[0]),
                             PosteriorContext(model, z20[1])]):
        for omega in ([0.5, 0.3], [0.6, 0.4]):
            assert ctx.neg2l_grad(omega, k) == one.neg2l_grad(omega)
            assert ctx.hessian_neg2l(omega, k).tobytes() == one.hessian_neg2l(omega).tobytes()
            assert -0.5 * ctx.neg2l(omega, k) == -0.5 * one.neg2l(omega)
    with pytest.raises(ValueError, match="observations must be"):
        PosteriorContext(model, [z4, np.zeros((2, 2, 2))])
