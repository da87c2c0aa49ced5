import itertools
import random
import struct

import numpy as np
import pytest

from obscheck import (
    CheckReport,
    MaxResult,
    OptConfig,
    PosteriorContext,
    bundled_model_names,
    load_model,
)
from obscheck.optimize import (
    _ETA, _NOISE, _acceptable, _eigen, _secular, check_maximum, maximize,
)
from obscheck.samples import design_disturbance_matrix, representative_disturbances
from obscheck.study import make_design_observations

from conftest import DESK_LCD, local_variances_at

VARIANCE_ONLY = load_model("unknown_variance")
MEAN_AND_VARIANCE = load_model("mean_and_variance")
RATIO_RIDGE = load_model("ratio_mean_scale_sqrt_ratio")


class QuadraticContext:
    """Synthetic one-row context with -2L = sum (x_j - c_j)^2, offering only
    what the fit and the checks ask for."""

    def __init__(self, center, bounds=None):
        self.center = np.asarray(center, dtype=float)
        self.param_names = tuple(f"x{j}" for j in range(self.center.size))
        self._bounds = bounds or [(-np.inf, np.inf)] * self.center.size

    def __len__(self):
        return 1

    def bounds(self):
        return self._bounds

    def neg2l_rows(self, rows, points):
        d = points - self.center
        n = self.center.size
        hess = np.broadcast_to(2.0 * np.eye(n), (len(points), n, n))
        return (np.sum(d * d, axis=1), 2.0 * d, hess, np.ones(len(points), dtype=bool),
                lambda i: None)


class TestMaximize:
    def test_synthetic_quadratic(self):
        ctx = QuadraticContext([3.0])
        result = maximize(ctx, np.array([0.0]))
        assert result.omega_hat[0] == pytest.approx(3.0, abs=1e-8)
        assert result.converged

    def test_variance_model_from_perturbed_start(self):
        eps = representative_disturbances(4, DESK_LCD)
        z = make_design_observations(VARIANCE_ONLY, eps)
        ctx = PosteriorContext(VARIANCE_ONLY, z)
        result = maximize(ctx, np.array([0.8 + 0.3]))
        assert result.omega_hat[0] == pytest.approx(0.8, abs=1e-8)

    def test_mean_and_variance_representative(self):
        eps = representative_disturbances(4, DESK_LCD)
        z = make_design_observations(MEAN_AND_VARIANCE, eps)
        ctx = PosteriorContext(MEAN_AND_VARIANCE, z)
        result = maximize(ctx, np.array([0.6, 0.4]))
        assert result.estimates["a"] == pytest.approx(0.6, abs=1e-8)
        assert result.estimates["b"] == pytest.approx(0.4, abs=1e-8)

    def test_infeasible_start_raises(self):
        ctx = PosteriorContext(VARIANCE_ONLY, np.array([1.0]))
        with pytest.raises(ValueError, match="infeasible starting point"):
            maximize(ctx, np.array([-1.0]))

    def test_trace_is_monotone_nonincreasing(self):
        rng = np.random.default_rng(2)
        z = rng.normal(0.6, 0.6, size=8)
        ctx = PosteriorContext(MEAN_AND_VARIANCE, z)
        result = maximize(ctx, np.array([0.1, 1.5]))
        trace = np.array(result.trace)
        assert np.all(np.diff(trace) <= 0.0)

    def test_bounds_are_respected(self):
        ctx = QuadraticContext([3.0], bounds=[(-1.0, 2.0)])
        result = maximize(ctx, np.array([0.0]))
        assert result.omega_hat[0] == pytest.approx(2.0)
        assert not result.converged  # gradient cannot vanish on the face

    def test_line_search_rejects_infeasible_points(self):
        # starting near the boundary forces trial rejections, not crashes
        z = np.array([0.9, -0.4, 0.2, 0.5])
        ctx = PosteriorContext(VARIANCE_ONLY, z)
        result = maximize(ctx, np.array([1e-3]))
        assert result.omega_hat[0] == pytest.approx(float(np.mean(z**2)), rel=1e-8)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        z = rng.normal(0.6, 0.7, size=6)
        ctx = PosteriorContext(MEAN_AND_VARIANCE, z)
        r1 = maximize(ctx, np.array([0.2, 1.0]))
        r2 = maximize(ctx, np.array([0.2, 1.0]))
        assert r1.omega_hat.tobytes() == r2.omega_hat.tobytes()
        assert r1.trace == r2.trace

    def test_undefined_gradient_at_accepted_point_backtracks(self):
        # -2L is finite beyond x = 2.5 but its gradient is not: the line
        # search must treat those trial points as infeasible, not crash
        class Cliff(QuadraticContext):
            def neg2l_rows(self, rows, points):
                values, grads, hess, feasible, _ = super().neg2l_rows(rows, points)
                return (values, grads, hess, feasible & (points[:, 0] <= 2.5),
                        lambda i: "beyond the cliff")

        result = maximize(Cliff([3.0]), np.array([0.0]))
        assert 2.0 < result.omega_hat[0] <= 2.5
        assert not result.converged


class _CountingContext(PosteriorContext):
    """Records the points of each ``neg2l_rows`` call and counts one-row
    evaluations."""

    def __init__(self, model, obs):
        super().__init__(model, obs)
        self.calls = {"neg2l": 0, "rows_calls": []}

    def neg2l(self, omega, k=0):
        self.calls["neg2l"] += 1
        return super().neg2l(omega, k)

    def neg2l_rows(self, rows, points):
        self.calls["rows_calls"].append(list(map(tuple, points.tolist())))
        return super().neg2l_rows(rows, points)


@pytest.mark.parametrize("name", bundled_model_names())
def test_one_evaluation_per_line_search_trial(name):
    # the start is evaluated once, with its Hessian; then each trial of the
    # trust-region step is evaluated once, and an accepted trial keeps that
    # evaluation's gradient and Hessian.  A rejected trial shrinks the
    # radius below its step, so the next trial is a new point: no point is
    # evaluated twice in a row.  Trials from different iterates may still
    # meet.
    model = load_model(name)
    eps = design_disturbance_matrix(4, 20, DESK_LCD)[0]
    ctx = _CountingContext(model, make_design_observations(model, eps))
    result = maximize(ctx, model.true_vector())
    start, *trial_calls = ctx.calls["rows_calls"]
    assert ctx.calls["neg2l"] == 0
    assert len(start) == 1
    assert all(len(points) == 1 for points in trial_calls)
    points = start + [p for (p,) in trial_calls]
    assert len(points) > 2  # the start and at least two trials
    assert len(trial_calls) >= result.iterations
    assert all(a != b for a, b in zip(points, points[1:]))


class _JitteredQuartic:
    """-2L = 1 + (x - 1)^4 + (y + 0.5)^2, optionally plus a value jitter of up
    to 2e-13 drawn from the bits of the point: rounding noise in -2L, far
    below the gradient's resolution, but above the last steps' falls, so a
    fit that shrank its radius on the noise would not converge.  Counts its
    evaluations."""

    param_names = ("x", "y")

    def __init__(self, jitter):
        self.jitter = jitter
        self.calls = 0

    def __len__(self):
        return 1

    def bounds(self):
        return [(-np.inf, np.inf)] * 2

    def neg2l_rows(self, rows, points):
        values, grads, hessians = [], [], []
        for x, y in points.tolist():
            self.calls += 1
            value = 1.0 + (x - 1.0) ** 4 + (y + 0.5) ** 2
            if self.jitter:
                value += random.Random(struct.pack("<2d", x, y)).uniform(-2e-13, 2e-13)
            values.append(value)
            grads.append([4.0 * (x - 1.0) ** 3, 2.0 * (y + 0.5)])
            hessians.append([[12.0 * (x - 1.0) ** 2, 0.0], [0.0, 2.0]])
        return (np.array(values), np.array(grads), np.array(hessians),
                np.ones(len(points), dtype=bool), lambda i: None)


def test_rounding_noise_in_the_value_costs_no_evaluations():
    # once -2L differences are noise, the noise rule accepts on the falling
    # gradient instead of shrinking the radius on the noise
    calls = []
    for jitter in (False, True):
        ctx = _JitteredQuartic(jitter)
        result = maximize(ctx, [0.3, 0.7])
        assert result.converged
        calls.append(ctx.calls)
    assert calls[1] <= calls[0]


@pytest.mark.parametrize("f", [1.0, -250.0, 3e7])
def test_noise_rule_bounds_the_rise(f):
    # one row per case, all tested at once: a fall of 1 is predicted and the
    # gradient's inf-norm is 1 before the step
    allowed = _NOISE * abs(f)
    cases = [  # (f_new, grad_inf_new, acceptable)
        # a sufficient fall is accepted even where the gradient grows
        (f - 0.5, 2.0, True),
        (f - 0.5 * _ETA, 2.0, False),
        # a rise within rounding noise is accepted where the gradient shrinks
        (f + 0.5 * allowed, 0.5, True),
        (f + 2.0 * allowed, 0.5, False),
        (f, 1.0, False),
    ]
    rows = len(cases)
    got = _acceptable(np.full(rows, f), np.array([c[0] for c in cases]), np.ones(rows),
                      np.ones(rows), np.array([c[1] for c in cases]))
    assert got.tolist() == [c[2] for c in cases]


def test_secular_steps_stay_within_the_radius():
    # per row: a Newton step inside the radius; one the radius cuts; one
    # whose secular iteration stalls, as the cube of its tiny eigenvalues
    # overflows the iteration's terms; and one of a zero Hessian
    lam = np.array([[1.0, 2.0], [1.0, 2.0], [1e-200, 1e-200], [0.0, 0.0]])
    c = np.array([[0.3, 0.4], [3.0, 4.0], [1.0, 1.0], [1.0, -1.0]])
    radius = np.array([1.0, 0.5, 1.0, 2.0])
    with np.errstate(all="ignore"):
        u, cut = _secular(lam, c, radius)
    length = np.sqrt(np.sum(u * u, axis=1))
    assert cut.tolist() == [False, True, True, True]
    assert u[0].tolist() == [0.3, 0.2]
    assert np.all(length <= 1.1 * radius) and np.all(length[1:] >= 0.9 * radius[1:])


@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("scale", range(11))
def test_two_loop_matches_numpy_reference(n, scale):
    # the trust-region step, which replaced the L-BFGS two-loop recursion as
    # the fit's step, against a dense numpy reference: 20 symmetric Hessians
    # with eigenvalues of both signs, one row each in one batch, at a radius
    # of 2^(scale - 5) times the length of the step that no radius cuts
    rng = np.random.default_rng([n, scale])
    rows = 20
    q = np.linalg.qr(rng.normal(size=(rows, n, n)))[0]
    eig = rng.choice([-1.0, 1.0], size=(rows, n)) * rng.uniform(0.5, 2.0, size=(rows, n))
    hess = q @ (eig[:, :, None] * np.swapaxes(q, 1, 2))
    hess = 0.5 * (hess + np.swapaxes(hess, 1, 2))
    g = rng.normal(size=(rows, n))
    # |H| + 1e-8 max|lambda| I from the SVD: a symmetric H's singular values
    # are its |eigenvalues|
    _, sv, vt = np.linalg.svd(hess)
    floored = sv + 1e-8 * sv.max(axis=1, keepdims=True)
    m = np.swapaxes(vt, 1, 2) @ (floored[:, :, None] * vt)
    newton = np.linalg.solve(m, -g[:, :, None])[:, :, 0]
    radius = 2.0 ** (scale - 5) * np.linalg.norm(newton, axis=1)

    lam, vec = _eigen(hess)
    u, cut = _secular(lam, np.einsum("rji,rj->ri", vec, g), radius)
    step = -np.einsum("rij,rj->ri", vec, u)
    length = np.linalg.norm(step, axis=1)
    assert cut.tolist() == [scale < 5] * rows
    if not cut.any():  # mu = 0: the step solves |H| p = -g
        np.testing.assert_allclose(step, newton, rtol=1e-10, atol=1e-12)
        return
    # the least mu >= 0 with ||p|| <= radius, to within 10% of the radius:
    # (|H| + mu I) p = -g for one mu > 0, and ||p|| in [radius, 1.1 radius]
    mu = -np.einsum("ri,ri->r", step, g + np.einsum("rij,rj->ri", m, step)) / length ** 2
    residual = np.einsum("rij,rj->ri", m, step) + mu[:, None] * step + g
    assert np.all(mu > 0.0)
    np.testing.assert_allclose(residual, 0.0, atol=1e-12 * np.abs(g).max())
    assert np.all(length >= (1.0 - 1e-12) * radius)
    assert np.all(length <= 1.1 * radius)


@pytest.mark.parametrize("name", bundled_model_names())
def test_trace_rises_by_at_most_eps_relative(name):
    model = load_model(name)
    eps = design_disturbance_matrix(4, 20, DESK_LCD)[0]
    ctx = PosteriorContext(model, make_design_observations(model, eps))
    trace = maximize(ctx, model.true_vector()).trace
    assert all(b - a <= _NOISE * abs(a) for a, b in zip(trace, trace[1:]))


class TestCheckMaximum:
    def _converged_result(self, ctx, x0):
        return maximize(ctx, x0)

    def test_variance_model_passes_all_checks(self):
        for horizon in (4, 12, 20):
            eps = representative_disturbances(horizon, DESK_LCD)
            z = make_design_observations(VARIANCE_ONLY, eps)
            ctx = PosteriorContext(VARIANCE_ONLY, z)
            result = self._converged_result(ctx, np.array([0.8]))
            report = check_maximum(result)
            assert report.passed
            assert report.grad_ok and report.hessian_pd
            assert report.eig_ratio_ok and report.lvar_finite

    def test_ridge_model_fails_eigenvalue_ratio(self):
        eps = representative_disturbances(2, DESK_LCD)
        z = make_design_observations(RATIO_RIDGE, eps)
        ctx = PosteriorContext(RATIO_RIDGE, z)
        result = self._converged_result(ctx, np.array([0.6, 0.4]))
        report = check_maximum(result)
        assert not report.eig_ratio_ok
        assert not report.passed

    def test_straight_ridge_has_no_positive_definite_hessian(self):
        # the additive pair sees only m1 + m2: its exact Hessian is singular
        # at every candidate, never positive definite by rounding
        model = load_model("additive_mean_pair")
        for eps in design_disturbance_matrix(4, 200, DESK_LCD):
            ctx = PosteriorContext(model, make_design_observations(model, eps))
            assert not check_maximum(maximize(ctx, model.true_vector())).hessian_pd

    def test_gradient_threshold_boundary(self):
        ctx = QuadraticContext([0.0])
        # a candidate held off the optimum, as an unconverged fit hands it
        # over, with the curvature that the fit holds there
        result = MaxResult(omega_hat=[0.0], param_names=ctx.param_names, converged=False,
                           iterations=0, grad_inf_norm=2e-5, trace=(0.0,),
                           curvature=maximize(ctx, [0.0]).curvature)
        report = check_maximum(result)
        assert not report.grad_ok

    def test_passed_is_conjunction_of_flags(self):
        eps = representative_disturbances(4, DESK_LCD)
        z = make_design_observations(VARIANCE_ONLY, eps)
        ctx = PosteriorContext(VARIANCE_ONLY, z)
        result = self._converged_result(ctx, np.array([0.8]))
        report = check_maximum(result)
        assert report.passed == (
            report.grad_ok and report.hessian_pd and report.eig_ratio_ok and report.lvar_finite
        )

    def test_failed_names_the_failing_checks_in_check_order(self):
        names = ("gradient", "hessian_pd", "eig_ratio", "local_variance")
        for flags in itertools.product([True, False], repeat=4):
            report = CheckReport(*flags, grad_inf_norm=0.0, eig_ratio=1.0, local_variances=None)
            assert report.failed == tuple(n for n, ok in zip(names, flags) if not ok)
            assert report.passed is (report.failed == ())
            assert report.passed == all(flags)

    def test_threshold_scaling_never_changes_estimate(self):
        eps = representative_disturbances(4, DESK_LCD)
        z = make_design_observations(MEAN_AND_VARIANCE, eps)
        ctx = PosteriorContext(MEAN_AND_VARIANCE, z)
        result = maximize(ctx, np.array([0.6, 0.4]))
        loose = check_maximum(result, OptConfig(grad_check=1e-2, eig_ratio_min=1e-2))
        tight = check_maximum(result, OptConfig(grad_check=1e-8, eig_ratio_min=0.5))
        assert result.omega_hat.tobytes() == result.omega_hat.tobytes()
        assert loose.grad_inf_norm == tight.grad_inf_norm

    @pytest.mark.parametrize("name", bundled_model_names())
    def test_gradient_check_reuses_the_fit_gradient(self, name):
        # check_maximum does not evaluate the gradient at omega_hat; the norm
        # maximize hands over must be the one evaluating it would give.
        model = load_model(name)
        eps = np.random.default_rng(5).standard_normal(20)
        ctx = PosteriorContext(model, make_design_observations(model, eps))
        result = maximize(ctx, model.true_vector())
        _, grad = ctx.neg2l_grad(result.omega_hat)
        assert check_maximum(result).grad_inf_norm == float(np.max(np.abs(grad)))

    def test_second_order_sufficiency_on_pass(self):
        eps = representative_disturbances(12, DESK_LCD)
        z = make_design_observations(MEAN_AND_VARIANCE, eps)
        ctx = PosteriorContext(MEAN_AND_VARIANCE, z)
        result = maximize(ctx, np.array([0.6, 0.4]))
        report = check_maximum(result)
        assert report.passed
        eigvals = np.linalg.eigvalsh(ctx.hessian_neg2l(result.omega_hat))
        assert eigvals[0] > 0.0


class TestLocalVariance:
    def test_table_one_values(self):
        for horizon, expected in [(4, 0.32), (12, 2 * 0.64 / 12), (20, 0.064)]:
            eps = representative_disturbances(horizon, DESK_LCD)
            z = make_design_observations(VARIANCE_ONLY, eps)
            ctx = PosteriorContext(VARIANCE_ONLY, z)
            lvar = local_variances_at(ctx, [0.8])
            assert lvar[0] == pytest.approx(expected, abs=1e-6)

    def test_table_three_values(self):
        eps = representative_disturbances(12, DESK_LCD)
        z = make_design_observations(MEAN_AND_VARIANCE, eps)
        ctx = PosteriorContext(MEAN_AND_VARIANCE, z)
        lvar = local_variances_at(ctx, [0.6, 0.4])
        assert lvar == pytest.approx([0.4 / 12, 2 * 0.16 / 12], abs=1e-6)

    def test_one_dimensional_formula(self):
        # matches -1/L'' = (2/T) bhat^2
        z = np.array([1.2, -0.3, 0.7, -0.9, 0.1])
        b_hat = float(np.mean(z * z))
        ctx = PosteriorContext(VARIANCE_ONLY, z)
        lvar = local_variances_at(ctx, [b_hat])
        assert lvar[0] == pytest.approx(2.0 * b_hat**2 / 5.0, rel=1e-7)

    def test_singular_hessian_yields_infinity(self):
        class Flat:
            param_names = ("x",)

            def bounds(self):
                return [(-np.inf, np.inf)]

            def neg2l_rows(self, rows, points):
                return (np.zeros(len(points)), np.zeros((len(points), 1)),
                        np.zeros((len(points), 1, 1)), np.ones(len(points), dtype=bool),
                        lambda i: None)

        assert np.isinf(local_variances_at(Flat(), [0.0])[0])


def test_maximize_refuses_a_context_of_several_rows():
    ctx = PosteriorContext(VARIANCE_ONLY, np.ones((2, 3)))
    with pytest.raises(ValueError, match="not 2 rows; fit them with maximize_rows"):
        maximize(ctx, [0.8])


def test_opt_config_rejects_nonpositive_thresholds():
    with pytest.raises(ValueError):
        OptConfig(grad_check=0.0)
