"""The lock-step fit against the one-row L-BFGS loop it replaced.

``_reference_maximize`` is that loop on lists of Python floats, one fit at a
time, evaluating -2L by walking the expression trees.  Its dot products
are written out as left-to-right sums from 0.0: ``sum()`` sums floats that
way through Python 3.11 but compensates from 3.12 on.  Every row of a
lock-step run must equal it bit for bit.
"""

import math

import numpy as np
import pytest

from obscheck import InfeasiblePointError, bundled_model_names, load_model
from obscheck.models import model_from_dict
from obscheck.optimize import (
    _ARMIJO_C1, _BACKTRACK_FACTOR, _MAX_BACKTRACKS, _MAX_ITERS, _MEMORY, _WOLFE_DELTA,
    _WOLFE_EPS, _WOLFE_SIGMA, OptConfig, maximize_rows,
)
from obscheck.posterior import PosteriorContext
from obscheck.samples import design_disturbance_matrix
from obscheck.study import StudyConfig, _fit_blocks, make_design_observations

from conftest import DESK_LCD, _TreeWalkerContext


def _dot(a, b):
    total = 0.0
    for p, q in zip(a, b):
        total += p * q
    return total


def _inf_norm(v):
    norm = 0.0
    for a in v:
        a = abs(a)
        if not a <= norm:
            if a != a:
                return a
            norm = a
    return norm


def _project(x, lower, upper):
    out = []
    for v, lo, hi in zip(x, lower, upper):
        if v <= lo:
            v = lo
        if v >= hi:
            v = hi
        out.append(v)
    return out


def _acceptable(f, g, f_new, g_new, s):
    gs = _dot(g, s)
    if f_new <= f + _ARMIJO_C1 * gs:
        return True
    return f_new - f <= _WOLFE_EPS * abs(f) and (
        _WOLFE_SIGMA * gs <= _dot(g_new, s) <= (2.0 * _WOLFE_DELTA - 1.0) * gs
    )


def _two_loop(g, s_hist, y_hist, rho_hist):
    q = g
    alphas = []
    for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
        a = rho * _dot(s, q)
        alphas.append(a)
        q = [qi - a * yi for qi, yi in zip(q, y)]
    if s_hist:
        s, y = s_hist[-1], y_hist[-1]
        gamma = _dot(s, y) / _dot(y, y)
        q = [qi * gamma for qi in q]
    for (s, y, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
        beta = rho * _dot(y, q)
        q = [qi + (a - beta) * si for qi, si in zip(q, s)]
    return q


def _reference_maximize(ctx, x0, cfg):
    """(omega_hat, iterations, converged, grad_inf_norm, trace) of one fit, or
    the message of the infeasible start."""
    lower = [float(lo) for lo, _ in ctx.bounds()]
    upper = [float(hi) for _, hi in ctx.bounds()]
    x = _project([float(v) for v in x0], lower, upper)
    try:
        f, g = ctx.neg2l_grad(x)
    except InfeasiblePointError as exc:
        return str(exc)
    g = [float(v) for v in g]
    s_hist, y_hist, rho_hist = [], [], []
    trace = [f]
    iterations = 0
    grad_inf = _inf_norm(g)
    converged = grad_inf < cfg.grad_tol
    while not converged and iterations < _MAX_ITERS:
        direction = [-a for a in _two_loop(g, s_hist, y_hist, rho_hist)]
        slope = _dot(direction, g)
        if not math.isfinite(slope) or slope >= 0.0:
            s_hist.clear(); y_hist.clear(); rho_hist.clear()
            direction = [-a for a in g]
        step = 1.0 if s_hist else min(1.0, 1.0 / max(grad_inf, 1e-300))
        accepted = False
        trial = None
        for _ in range(_MAX_BACKTRACKS):
            previous = trial
            trial = _project([a + step * d for a, d in zip(x, direction)], lower, upper)
            actual = [t - a for t, a in zip(trial, x)]
            if not any(actual):
                break
            if trial == previous:
                step *= _BACKTRACK_FACTOR
                continue
            try:
                f_new, g_new = ctx.neg2l_grad(trial)
                g_new = [float(v) for v in g_new]
                if _acceptable(f, g, f_new, g_new, actual):
                    accepted = True
                    break
            except InfeasiblePointError:
                pass
            step *= _BACKTRACK_FACTOR
        if not accepted:
            break
        s = actual
        y = [b - a for a, b in zip(g, g_new)]
        sy = _dot(s, y)
        if sy > 1e-12 * math.sqrt(_dot(s, s)) * math.sqrt(_dot(y, y)):
            s_hist.append(s)
            y_hist.append(y)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > _MEMORY:
                s_hist.pop(0); y_hist.pop(0); rho_hist.pop(0)
        else:
            s_hist.clear(); y_hist.clear(); rho_hist.clear()
        x, f, g = trial, f_new, g_new
        trace.append(f)
        iterations += 1
        grad_inf = _inf_norm(g)
        converged = grad_inf < cfg.grad_tol
    return np.array(x).tobytes(), iterations, converged, grad_inf, tuple(trace)


def _outcome(result):
    if isinstance(result, InfeasiblePointError):
        return str(result)
    return (result.omega_hat.tobytes(), result.iterations, result.converged,
            result.grad_inf_norm, result.trace)


def _assert_rows_equal_reference(model, eps, cfg=OptConfig()):
    """Every design row of one lock-step run equals its reference fit, and a
    row whose start is infeasible fails with the reference's message."""
    observations = make_design_observations(model, eps)
    x0 = model.true_vector()
    results = maximize_rows(PosteriorContext(model, observations), x0, cfg)
    want = [_reference_maximize(_TreeWalkerContext(model, z), x0, cfg) for z in observations]
    infeasible = [k for k, w in enumerate(want) if isinstance(w, str)]
    assert [_outcome(r) for r in results] == want
    if infeasible:
        study_cfg = StudyConfig(model=model, T_list=(eps.shape[1],), opt=cfg)
        (records,) = _fit_blocks(model, [observations[infeasible]], study_cfg)
        assert [r.reason for r in records] == [f"infeasible start: {want[k]}" for k in infeasible]
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
    _assert_rows_equal_reference(model, design_disturbance_matrix(horizon, 200, DESK_LCD))


def test_projection_equals_per_row_reference():
    # the README's model bounds b below by 0: trial steps get projected
    _assert_rows_equal_reference(README_MODEL, design_disturbance_matrix(4, 200, DESK_LCD))


def test_iteration_cap_rows_equal_per_row_reference():
    # away from the bundled true values three of eight rows run into the
    # iteration cap while the others converge within 16 iterations
    model = model_from_dict({
        "parameters": [{"name": "a", "true_value": 1.438}, {"name": "b", "true_value": 3.0}],
        "mean": "a/b", "scale": "sqrt(a*b)",
    })
    results = _assert_rows_equal_reference(model, design_disturbance_matrix(4, 8, DESK_LCD))
    assert [r.iterations for r in results] == [16, 500, 14, 12, 13, 13, 500, 500]


def test_infeasible_starts_equal_per_row_reference():
    # Q overflows on the rows whose deviations are largest: those starts are
    # infeasible, the others fit
    model = model_from_dict({"parameters": [{"name": "b", "true_value": 1e154}],
                             "mean": "0", "scale": "b"})
    results = _assert_rows_equal_reference(model, design_disturbance_matrix(4, 200, DESK_LCD))
    assert 0 < sum(isinstance(r, InfeasiblePointError) for r in results) < len(results)


class _ClippedCliff:
    """-2L = (x - 3)^2 + 1e-30 y with x at most 0.3, infeasible beyond x = 0.2.
    From (0, 1) the first trials clip x to its bound while y's step is below
    rounding, so a halved step can land on the trial just rejected.  Records
    the points it evaluates."""

    param_names = ("x", "y")

    def __init__(self):
        self.points = []

    def __len__(self):
        return 1

    def bounds(self):
        return [(-np.inf, 0.3), (-np.inf, np.inf)]

    def neg2l_rows(self, rows, points, hessian=False):
        self.points += [tuple(p) for p in points.tolist()]
        x, y = points[:, 0], points[:, 1]
        return ((x - 3.0) ** 2 + 1e-30 * y,
                np.stack([2.0 * (x - 3.0), np.full(len(x), 1e-30)], axis=1), None, x <= 0.2,
                lambda i: "beyond the cliff")

    def neg2l_grad(self, omega):
        (value,), (grad,), _, (feasible,), why = self.neg2l_rows([0], np.array([omega]))
        if not feasible:
            raise InfeasiblePointError(why(0))
        return float(value), grad.tolist()


def test_a_halved_step_onto_the_rejected_trial_is_not_evaluated_again():
    ctx = _ClippedCliff()
    (result,) = maximize_rows(ctx, [0.0, 1.0])
    points = ctx.points
    # the first steps, 1/6 and 1/12, both clip to (0.3, 1.0), which is
    # evaluated once; the next trial evaluated is the step 1/24
    assert points[:3] == [(0.0, 1.0), (0.3, 1.0), (0.25, 1.0)]
    assert all(a != b for a, b in zip(points, points[1:]))
    assert _outcome(result) == _reference_maximize(_ClippedCliff(), [0.0, 1.0], OptConfig())
