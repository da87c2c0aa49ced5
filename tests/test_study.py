import inspect
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import obscheck
from obscheck import (
    NOT_OBSERVABLE,
    OBSERVABLE,
    DiracMixture,
    Expr,
    InfeasiblePointError,
    LcdConfig,
    ModelSpec,
    OptConfig,
    ParamSpec,
    PartIResult,
    PosteriorContext,
    RunRecord,
    StudyConfig,
    bundled_model_names,
    load_model,
    make_design_observations,
    plot_csv,
    report_from_json,
    report_to_json,
    run_study,
)
from obscheck.expressions import Binary, Literal, Param, Unary
from obscheck.models import model_from_dict
from obscheck.optimize import CheckReport, MaxResult, check_maximum, maximize
from obscheck.study import (
    StudyReport, _aggregate, _fit_blocks, _record, render_report, report_to_dict, run_part1,
    run_part2,
)

from conftest import DESK_LCD, _TreeWalkerContext

VARIANCE_ONLY = load_model("unknown_variance")
MEAN_AND_VARIANCE = load_model("mean_and_variance")


def small_config(model, T_list=(4,), K=10):
    return StudyConfig(model=model, T_list=T_list, K=K, lcd=DESK_LCD)


class TestDesignObservations:
    def test_variance_model_pair(self):
        z = make_design_observations(VARIANCE_ONLY, np.array([1.0, -1.0]))
        root = math.sqrt(0.8)
        assert z == pytest.approx([root, -root])

    def test_mean_and_variance_substitution(self):
        z = make_design_observations(MEAN_AND_VARIANCE, np.array([-1.0, 1.0]))
        root = math.sqrt(0.4)
        assert z == pytest.approx([0.6 - root, 0.6 + root])

    def test_zero_disturbances_give_the_mean(self):
        z = make_design_observations(MEAN_AND_VARIANCE, np.zeros(5))
        assert z == pytest.approx(np.full(5, 0.6))

    def test_matrix_shape_preserved(self):
        eps = np.arange(6.0).reshape(3, 2)
        z = make_design_observations(VARIANCE_ONLY, eps)
        assert z.shape == (3, 2)


class TestPartOne:
    def test_variance_model_table_row(self):
        cfg = small_config(VARIANCE_ONLY)
        result = run_part1(VARIANCE_ONLY, 12, cfg)
        assert result.passed
        assert result.run.estimates["b"] == pytest.approx(0.8, abs=1e-9)
        assert result.run.local_variances["b"] == pytest.approx(2 * 0.64 / 12, abs=1e-6)

    def test_mean_and_variance_table_row(self):
        cfg = small_config(MEAN_AND_VARIANCE)
        result = run_part1(MEAN_AND_VARIANCE, 20, cfg)
        assert result.passed
        assert result.run.estimates == pytest.approx({"a": 0.6, "b": 0.4}, abs=1e-9)
        assert result.run.local_variances["a"] == pytest.approx(0.02, abs=1e-6)
        assert result.run.local_variances["b"] == pytest.approx(0.016, abs=1e-6)

    def test_ridge_model_fails_checks(self):
        model = load_model("product_mean")
        result = run_part1(model, 2, small_config(model))
        assert not result.passed
        assert not result.run.checks.eig_ratio_ok

    def test_constant_scale_model_recovers_location_exactly(self):
        # representative disturbances have mean 0, so the residual symmetry
        # puts the mode of a constant-scale model at the true location
        model = load_model("reciprocal_mean")
        result = run_part1(model, 4, small_config(model))
        assert result.passed
        assert result.run.estimates["w"] == pytest.approx(1.0, abs=1e-9)

    def test_infeasible_start_is_a_failed_record(self):
        # s^3 underflows at these true values, as in the Part II case below
        data = load_model("ratio_mean_scale_sqrt_a").to_dict()
        data["parameters"][0]["true_value"] = 3.6e-221
        data["parameters"][1]["true_value"] = 1.0
        model = model_from_dict(data)
        result = run_part1(model, 2, small_config(model, T_list=(2,), K=4))
        assert not result.passed
        assert result.run.reason.startswith("infeasible start")
        assert result.run.estimates is None and result.run.checks is None
        assert result.run.iterations == 0 and not result.run.converged

    def test_representative_set_is_placed_once(self, monkeypatch):
        from obscheck import samples as samples_module

        calls = []
        place = samples_module.optimize_mixture

        def counting(*args):
            calls.append(args)
            return place(*args)

        monkeypatch.setattr(samples_module, "_matrix_cache", {})
        monkeypatch.setattr(samples_module, "optimize_mixture", counting)
        cfg = small_config(VARIANCE_ONLY)
        first = run_part1(VARIANCE_ONLY, 6, cfg)
        second = run_part1(MEAN_AND_VARIANCE, 6, cfg)
        assert calls == [(1, 6, cfg.lcd)]
        eps = samples_module.representative_disturbances(6, cfg.lcd)
        assert not eps.flags.writeable
        assert first.z_rep.tobytes() == make_design_observations(VARIANCE_ONLY, eps).tobytes()
        assert second.z_rep.tobytes() == make_design_observations(MEAN_AND_VARIANCE, eps).tobytes()


class TestPartTwo:
    def test_variance_model_small_sample(self):
        cfg = small_config(VARIANCE_ONLY, K=20)
        result = run_part2(VARIANCE_ONLY, 4, 20, cfg)
        assert result.n_passed + result.n_failed == 20
        assert result.n_passed >= 18
        assert result.empirical_mean["b"] == pytest.approx(0.8, rel=0.05)

    def test_origin_row_is_tallied_not_fatal(self):
        # odd K pins a design vector at the origin; for this model that
        # observation has no maximum (the estimator is undefined there)
        cfg = small_config(VARIANCE_ONLY, T_list=(2,), K=5)
        result = run_part2(VARIANCE_ONLY, 2, 5, cfg)
        assert result.n_failed >= 1
        assert result.n_passed + result.n_failed == 5
        reasons = {r.reason for r in result.records if not r.passed}
        assert any("checks failed" in r for r in reasons)

    def test_gradient_underflow_at_start_is_tallied_not_fatal(self):
        # at these true values s^3 underflows while -2L is finite, so the
        # gradient at the starting point is undefined
        data = load_model("ratio_mean_scale_sqrt_a").to_dict()
        data["parameters"][0]["true_value"] = 3.6e-221
        data["parameters"][1]["true_value"] = 1.0
        model = model_from_dict(data)
        result = run_part2(model, 2, 4, small_config(model, T_list=(2,), K=4))
        assert result.n_failed == 4
        assert all(r.reason.startswith("infeasible start") for r in result.records)

    def test_statistics_only_over_passing_runs(self):
        cfg = small_config(VARIANCE_ONLY, T_list=(2,), K=5)
        result = run_part2(VARIANCE_ONLY, 2, 5, cfg)
        passing = [r for r in result.records if r.passed]
        expected = np.mean([r.estimates["b"] for r in passing])
        assert result.empirical_mean["b"] == pytest.approx(expected)

    def test_order_invariance_of_statistics(self):
        cfg = small_config(VARIANCE_ONLY, K=12)
        result = run_part2(VARIANCE_ONLY, 4, 12, cfg)
        records = list(result.records)
        random.Random(0).shuffle(records)
        records.sort(key=lambda r: r.k)
        again = _aggregate(VARIANCE_ONLY, 4, records)
        assert again.empirical_mean == result.empirical_mean
        assert again.empirical_variance == result.empirical_variance

    def test_median_gradient_norm_equals_numpy_median(self):
        cfg = small_config(MEAN_AND_VARIANCE, K=12)
        records = run_part2(MEAN_AND_VARIANCE, 4, 12, cfg).records
        for n in range(1, len(records) + 1):  # odd and even counts of passing runs
            norms = [r.grad_inf_norm for r in records[:n] if r.passed]
            got = _aggregate(MEAN_AND_VARIANCE, 4, list(records[:n])).median_grad_inf_norm
            assert got == (float(np.median(norms)) if norms else None)


def test_study_does_not_import_numpy_ma(tmp_path):
    # np.median imports numpy.ma, ~15 ms of start-up for one median
    code = (
        "import sys\n"
        "from obscheck import LcdConfig, StudyConfig, load_model, run_study\n"
        "cfg = StudyConfig(model=load_model('unknown_variance'), T_list=(2,), K=6,\n"
        f"                  lcd=LcdConfig(max_iters=5), cache_dir={str(tmp_path)!r})\n"
        "assert run_study(cfg).part2[0].n_passed > 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = Path(obscheck.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


@pytest.mark.parametrize("name", bundled_model_names())
@given(data=st.data())
@settings(max_examples=10)
def test_part2_tallies_every_design_vector(name, data):
    # any true values inside the bounds, any short horizon: every design
    # vector ends as a record, none as an exception
    model = load_model(name)
    params = tuple(
        ParamSpec(p.name, data.draw(st.floats(
            0.05 if p.lower is None else max(p.lower, 0.05),
            3.0 if p.upper is None else min(p.upper, 3.0),
        ), label=p.name), p.lower, p.upper)
        for p in model.params
    )
    model = ModelSpec(model.name, params, model.mean_expr, model.scale_expr, model.log_prior_expr)
    horizon = data.draw(st.integers(2, 8), label="T")
    count = 2 * horizon
    cfg = StudyConfig(model=model, T_list=(horizon,), K=count, lcd=DESK_LCD)
    result = run_part2(model, horizon, count, cfg)
    assert [r.k for r in result.records] == list(range(count))
    assert result.n_passed + result.n_failed == count
    assert all(r.passed or r.reason for r in result.records)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("horizon", [4, 20])
@pytest.mark.parametrize("name", bundled_model_names())
def test_study_emits_no_numpy_warning(name, horizon):
    # finished and infeasible rows of a lock-step fit compute garbage; none of
    # it may surface as a warning, which the command line prints
    model = load_model(name)
    cfg = StudyConfig(model=model, T_list=(horizon,), K=200, lcd=DESK_LCD)
    run_part1(model, horizon, cfg)
    run_part2(model, horizon, cfg.K, cfg)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_statistics_fail_without_numpy_warning():
    # every observation vector is finite, but its mean or its sum of squares
    # overflows
    model = model_from_dict({"parameters": [{"name": "b", "true_value": 1e308}],
                             "mean": "0", "scale": "b"})
    cfg = small_config(model, T_list=(2,), K=8)
    runs = [run_part1(model, 2, cfg).run, *run_part2(model, 2, 8, cfg).records]
    assert {r.reason for r in runs} == {"infeasible start: -2 log-posterior is not finite (nan)"}


def test_infeasible_rows_are_not_fitted_again(monkeypatch):
    # a row whose start is infeasible takes its reason from the lock-step
    # run's own context; no row is fitted a second time on its own
    def refit(*args, **kwargs):
        raise AssertionError("an infeasible row was fitted again")

    monkeypatch.setattr(obscheck.study, "maximize", refit)
    eps = np.array([[1.0, -1.0], [np.inf, 0.0], [1e200, -1e200], [0.5, -0.5]])
    cfg = small_config(VARIANCE_ONLY, T_list=(2,), K=4)
    (records,) = _fit_blocks(VARIANCE_ONLY, [make_design_observations(VARIANCE_ONLY, eps)], cfg)
    assert [r.passed for r in records] == [True, False, False, True]
    assert [r.reason for r in records[1:3]] == [
        "infeasible start: observation vector must be finite",
        "infeasible start: -2 log-posterior is not finite (inf)",
    ]
    assert records[1].estimates is None and records[1].iterations == 0


def walker_reason(ctx, method, omega, k=0):
    """The message of the ``InfeasiblePointError`` that ``method`` of the
    tree-walker context ``ctx`` raises at ``omega`` for row ``k``, or None."""
    try:
        getattr(ctx, method)(omega, k)
    except InfeasiblePointError as exc:
        return str(exc)
    return None


def test_fit_blocks_take_every_reason_from_the_batch_calls(monkeypatch):
    # a row that is not finite, a row whose Q overflows and a row whose fit
    # runs toward the bound b = 1e-90 until the scale's fourth power
    # underflows at every trial: each reason comes from a rows call, none
    # from a one-point call, and equals the tree walker's
    model = model_from_dict({"parameters": [{"name": "b", "true_value": 1.0, "lower": 1e-90}],
                             "mean": "0", "scale": "b"})
    z = np.array([[1.0, np.inf, 0.0, 2.0], [1e200, -1e200, 0.0, 1.0],
                  [0.0, 0.0, 0.0, 0.0], [0.3, 1.1, -0.4, 0.9]])
    walkers = [_TreeWalkerContext(model, row) for row in z]

    def one_point(*args, **kwargs):
        raise AssertionError("a one-point posterior call")

    for name in ("neg2l", "neg2l_grad", "hessian_neg2l"):
        monkeypatch.setattr(PosteriorContext, name, one_point)
    (records,) = _fit_blocks(model, [z], small_config(model))
    for walker, record in zip(walkers, records):
        start = walker_reason(walker, "neg2l_grad", model.true_vector())
        if start is not None:
            assert record.reason == f"infeasible start: {start}"
            continue
        curvature = walker_reason(walker, "hessian_neg2l", [record.estimates["b"]])
        assert record.checks.note == (
            None if curvature is None else f"curvature evaluation failed: {curvature}")
    assert [r.reason for r in records[:2]] == [
        "infeasible start: observation vector must be finite",
        "infeasible start: -2 log-posterior is not finite (inf)",
    ]
    # a trial without a Hessian is rejected, so the fit ends where the
    # Hessian is still defined
    assert 0.0 < records[2].estimates["b"] ** 4 < 1e-320
    assert records[2].checks.note is None
    assert records[3].passed


def test_a_start_whose_hessian_is_infeasible_stays_at_its_start(monkeypatch):
    # at b = 1e-90 -2L and its gradient are defined but the scale's fourth
    # power underflows: each row stays at its start, and its checks name the
    # Hessian's reason, from the call at the starts, as the tree walker does
    model = model_from_dict({"parameters": [{"name": "b", "true_value": 1e-90}],
                             "mean": "0", "scale": "b"})
    z = make_design_observations(model, np.array([[1.0, -1.0, 0.5, -0.5],
                                                  [0.3, 1.1, -0.4, -1.0]]))
    calls = []
    rows_call = PosteriorContext.neg2l_rows

    def counted(self, rows, points):
        calls.append(len(rows))
        return rows_call(self, rows, points)

    monkeypatch.setattr(PosteriorContext, "neg2l_rows", counted)
    (records,) = _fit_blocks(model, [z], small_config(model))
    assert calls == [2]  # the starts; the checks make no call
    reason = "scale 1e-90 is too small: its fourth power underflows"
    assert [(r.estimates, r.iterations, r.converged, r.checks.note) for r in records] == [
        ({"b": 1e-90}, 0, False, f"curvature evaluation failed: {reason}")] * 2
    assert [walker_reason(_TreeWalkerContext(model, row), "hessian_neg2l", [1e-90])
            for row in z] == [reason] * 2


def test_a_start_whose_gradient_is_not_finite_is_infeasible(monkeypatch):
    # at (a, b) = (-1e-200, 1e-200) -2L is finite but 1/b and a/b^2
    # overflow: each row's start is infeasible, so no fit spends its
    # rounds on trials that are all inf or NaN.  The one call at the
    # starts finds them and names why, with the walker's reason
    model = model_from_dict({
        "parameters": [{"name": "a", "true_value": -1e-200}, {"name": "b", "true_value": 1e-200}],
        "mean": "3.4270110250347745 + a / b", "scale": "1.0275573311"})
    z = make_design_observations(model, np.array([[1.0, -1.0, 0.5, -0.5],
                                                  [0.3, 1.1, -0.4, -1.0],
                                                  [-1.2, 0.2, 0.6, 0.4]]))
    calls = []
    rows_call = PosteriorContext.neg2l_rows

    def counted(self, rows, points):
        calls.append(len(rows))
        return rows_call(self, rows, points)

    monkeypatch.setattr(PosteriorContext, "neg2l_rows", counted)
    (records,) = _fit_blocks(model, [z], small_config(model))
    # the starts; no maximum is left to check, and the checks make no call
    assert calls == [3]
    reason = "gradient of -2 log-posterior is not finite"
    assert [r.reason for r in records] == [f"infeasible start: {reason}"] * 3
    assert [walker_reason(_TreeWalkerContext(model, row), "neg2l_grad", model.true_vector())
            for row in z] == [reason] * 3


class TestVerdict:
    def test_observable_model(self):
        report = run_study(small_config(VARIANCE_ONLY, T_list=(4,), K=10))
        assert report.verdict == OBSERVABLE
        assert report.n_passing_total > 0

    @pytest.mark.parametrize(
        "name", ["additive_mean_pair", "ratio_mean_scale_sqrt_ratio", "product_mean"]
    )
    def test_unobservable_models(self, name):
        model = load_model(name)
        report = run_study(small_config(model, T_list=(2,), K=8))
        assert report.verdict == NOT_OBSERVABLE
        assert report.n_passing_total == 0
        for part2 in report.part2:
            for record in part2.records:
                assert not record.passed
                assert record.checks is not None  # never a silent crash

    def test_observable_pair_of_ratio_models(self):
        for name in ("ratio_mean_scale_sqrt_a", "ratio_mean_scale_sqrt_ab"):
            model = load_model(name)
            report = run_study(small_config(model, T_list=(4,), K=10))
            assert report.verdict == OBSERVABLE

    def test_removing_one_passing_run_keeps_verdict(self):
        report = run_study(small_config(VARIANCE_ONLY, T_list=(4,), K=8))
        assert report.n_passing_total >= 2
        # dropping any single passing run leaves at least one pass
        assert report.n_passing_total - 1 >= 1


class TestConsistencyTrend:
    def test_variance_model_trend(self):
        report = run_study(small_config(VARIANCE_ONLY, T_list=(4, 12, 20), K=48))
        assert report.consistency["empirical_variance"]["b"]
        assert report.consistency["mean_local_variance"]["b"]


class TestSerialization:
    def test_json_round_trip(self):
        report = run_study(small_config(VARIANCE_ONLY, T_list=(4,), K=10))
        text = report_to_json(report)
        data = report_from_json(text)
        assert data["verdict"] == OBSERVABLE
        assert data["K"] == 10
        assert len(data["part2"][0]["estimates"]["b"]) == 10
        assert data["part1"][0]["estimate"]["b"] == pytest.approx(0.8, abs=1e-9)

    def test_json_rejects_foreign_documents(self):
        with pytest.raises(ValueError):
            report_from_json(json.dumps({"schema": "something-else"}))

    def test_plot_csv_layout(self):
        report = run_study(small_config(VARIANCE_ONLY, T_list=(4,), K=10))
        lines = plot_csv(report).splitlines()
        assert lines[0] == "k,param,estimate"
        assert lines[1] == "# T=4"
        first = lines[2].split(",")
        assert first[0] == "0" and first[1] == "b"
        assert float(first[2]) > 0.0

    def test_render_report_shows_tables(self):
        report = run_study(small_config(VARIANCE_ONLY, T_list=(4,), K=10))
        text = render_report(report_to_dict(report))
        assert "verdict: OBSERVABLE" in text
        assert "Part I" in text and "Part II" in text

    def test_render_zero_passing_runs(self):
        model = load_model("product_mean")
        report = run_study(small_config(model, T_list=(2,), K=4))
        text = render_report(report_to_dict(report))
        assert "0 passing runs" in text

    def test_every_report_renders(self):
        from obscheck import bundled_model_names

        for name in bundled_model_names():
            model = load_model(name)
            report = run_study(small_config(model, T_list=(2,), K=4))
            assert render_report(report_to_dict(report))


def test_random_baseline_section():
    cfg = StudyConfig(
        model=VARIANCE_ONLY, T_list=(4,), K=8, lcd=DESK_LCD, random_baseline=True
    )
    report = run_study(cfg)
    assert report.baseline is not None
    data = report_to_dict(report)
    assert data["random_baseline"][0]["n_runs"] == 8
    # baseline draws are seeded: a re-run reproduces them
    again = run_study(cfg)
    assert report_to_json(again) == report_to_json(report)


def test_study_config_validation():
    # the horizon messages read the same to a library caller and to a CLI user
    for horizons, message in (((), r"at least one horizon T is needed"),
                              ((0, 4), r"every horizon T must be >= 1, got \[0, 4\]"),
                              ((4, 12, 4), r"horizon T = 4 is listed twice: \[4, 12, 4\]")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            StudyConfig(model=VARIANCE_ONLY, T_list=horizons)
    with pytest.raises(ValueError):
        StudyConfig(model=VARIANCE_ONLY, T_list=(4,), K=1)


def test_study_config_needs_two_design_vectors_per_horizon():
    # whitening K point-symmetric vectors in T dimensions needs K >= 2T; a
    # smaller K fails here, not later inside the study's whitening
    with pytest.raises(ValueError, match=r"^K = 30 is too small for T = 20: "
                                         r"a study needs K >= 2T = 40$"):
        StudyConfig(model=VARIANCE_ONLY, T_list=(20, 4), K=30)
    assert StudyConfig(model=VARIANCE_ONLY, T_list=(20, 4), K=40).K == 40


def test_record_reasons_name_the_failed_checks():
    names = VARIANCE_ONLY.param_names

    def fit(converged):
        # _record reads the checks, not the curvature they came from
        return MaxResult(omega_hat=[0.8], param_names=names, converged=converged,
                         iterations=3, grad_inf_norm=1e-3, trace=(1.0,), curvature=None)

    check = CheckReport(grad_ok=False, hessian_pd=True, eig_ratio_ok=True, lvar_finite=False,
                        grad_inf_norm=1e-3, eig_ratio=1.0, local_variances=np.array([1e9]))
    failed = _record(0, fit(True), check, names)
    assert not failed.passed
    assert failed.reason == "checks failed: gradient,local_variance"
    unconverged = _record(0, fit(False), check, names)
    assert unconverged.reason == ("checks failed: gradient,local_variance "
                                  "(optimizer did not converge)")
    passing = CheckReport(grad_ok=True, hessian_pd=True, eig_ratio_ok=True, lvar_finite=True,
                          grad_inf_norm=1e-9, eig_ratio=1.0, local_variances=np.array([0.3]))
    record = _record(0, fit(False), passing, names)
    assert record.passed and record.reason is None
    assert record.local_variances == {"b": 0.3}


def test_results_that_hold_arrays_compare_and_hash_by_identity():
    # methods derived from the fields would compare numpy arrays, which have
    # no truth value, and hash them or dictionaries, which neither allows
    z = np.array([0.3, 1.1, -0.4, 0.9])
    contexts = [PosteriorContext(MEAN_AND_VARIANCE, z) for _ in range(2)]
    fits = [maximize(contexts[0], [0.6, 0.4]) for _ in range(2)]
    checks = [check_maximum(fit) for fit in fits]
    mixtures = [DiracMixture(dim=2, count=2, points=[[1.0, 0.0], [-1.0, 0.0]])
                for _ in range(2)]
    (record,) = _fit_blocks(MEAN_AND_VARIANCE, [z], small_config(MEAN_AND_VARIANCE))[0]
    part1 = [PartIResult(horizon=4, z_rep=z, run=record) for _ in range(2)]
    records = [RunRecord(**vars(record)) for _ in range(2)]
    part2 = [_aggregate(MEAN_AND_VARIANCE, 4, [record]) for _ in range(2)]
    reports = [StudyReport(model=MEAN_AND_VARIANCE, T_list=(4,), K=2, seed=0, part1=tuple(part1),
                           part2=tuple(part2), consistency={}) for _ in range(2)]
    for a, b in (contexts, fits, checks, mixtures, part1, records, part2, reports):
        assert a == a and a != b and not a == b
        assert {a: 1, b: 2}[a] == 1 and hash(a) == hash(a)


# each value type: a maker of equal values from a field value, two field
# values and the field they set
VALUES = [
    (lambda v: Expr(), None, None, None),
    (Literal, 1.5, 2.5, "value"),
    (Param, "a", "b", "name"),
    (lambda v: Unary(v, Param("b")), "sqrt", "log", "op"),
    (lambda v: Binary("+", v, Literal(1.0)), Param("a"), Param("b"), "left"),
    (lambda v: ParamSpec("b", v, lower=0.0), 0.5, 0.6, "true_value"),
    (lambda v: ModelSpec("m", (ParamSpec("b", 0.5),), Literal(0.0), v, Literal(0.0)),
     Param("b"), Unary("sqrt", Param("b")), "scale_expr"),
    (lambda v: OptConfig(grad_check=v), 1e-4, 1e-3, "grad_check"),
    (lambda v: LcdConfig(max_iters=v), 150, 151, "max_iters"),
    (lambda v: StudyConfig(VARIANCE_ONLY, T_list=(4,), K=v, lcd=LcdConfig(max_iters=150)),
     8, 9, "K"),
]


@pytest.mark.parametrize("make, value, other, field", VALUES,
                         ids=[type(make(value)).__name__ for make, value, *_ in VALUES])
def test_value_types_compare_and_hash_by_their_fields(make, value, other, field):
    a, b = make(value), make(value)
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert {a: 1}[b] == 1 and repr(a) == repr(b)
    assert a != Literal(0.0)
    if field is not None:
        changed = make(other)
        assert a != changed and getattr(changed, field) == other
        with pytest.raises(AttributeError):
            setattr(a, field, other)
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert getattr(a, field) == value
    with pytest.raises(AttributeError):
        a.extra = 1
    # a field's default is readable on the class, as the CLI's flags read it
    for name, param in inspect.signature(type(a)).parameters.items():
        if param.default is not inspect.Parameter.empty:
            assert getattr(type(a), name) == param.default


def test_model_equality_ignores_the_compiled_closures():
    a, b = load_model("mean_and_variance"), load_model("mean_and_variance")
    assert a._compiled[0] is not b._compiled[0]
    assert a == b and hash(a) == hash(b) and "_compiled" not in repr(a)
    assert LcdConfig.seed == 12345 and OptConfig.grad_check == 1e-5
