import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from obscheck import InfeasiblePointError, PosteriorContext, bundled_model_names, load_model
from obscheck.expressions import parse_expr
from obscheck.models import ModelError, ModelSpec, ParamSpec, model_from_dict

from conftest import _POINTS, _TreeWalkerContext, _expr_strategy, central_difference_hessian

VARIANCE_ONLY = load_model("unknown_variance")
MEAN_AND_VARIANCE = load_model("mean_and_variance")
ADDITIVE_PAIR = load_model("additive_mean_pair")
PRODUCT_MEAN = load_model("product_mean")


class TestLogPosterior:
    def test_variance_only_value(self):
        z = np.array([math.sqrt(0.8), -math.sqrt(0.8)])
        ctx = PosteriorContext(VARIANCE_ONLY, z)
        assert -0.5 * ctx.neg2l(np.array([0.8])) == pytest.approx(
            -1.0 - math.log(0.8), abs=1e-12
        )

    def test_zero_residuals_leave_only_scale_term(self):
        ctx = PosteriorContext(MEAN_AND_VARIANCE, np.array([0.6, 0.6]))
        assert -0.5 * ctx.neg2l(np.array([0.6, 0.4])) == pytest.approx(
            -math.log(0.4), abs=1e-9
        )

    def test_additive_pair_depends_only_on_sum(self):
        ctx = PosteriorContext(ADDITIVE_PAIR, np.array([1.5, 0.5]))
        for delta in (0.1, -0.3, 2.0):
            assert -0.5 * ctx.neg2l(np.array([0.6 + delta, 0.4 - delta])) == pytest.approx(
                -0.5 * ctx.neg2l(np.array([0.6, 0.4])), rel=1e-12
            )

    def test_nonpositive_scale_is_infeasible(self):
        ctx = PosteriorContext(VARIANCE_ONLY, np.array([1.0]))
        with pytest.raises(InfeasiblePointError):
            ctx.neg2l(np.array([-0.5]))

    def test_translation_invariance_of_location_family(self):
        rng = np.random.default_rng(3)
        z = rng.normal(0.6, 0.6, size=6)
        ctx = PosteriorContext(MEAN_AND_VARIANCE, z)
        for shift in (0.5, -1.2):
            shifted = PosteriorContext(MEAN_AND_VARIANCE, z + shift)
            assert -0.5 * shifted.neg2l(np.array([0.6 + shift, 0.4])) == pytest.approx(
                -0.5 * ctx.neg2l(np.array([0.6, 0.4])), rel=1e-9
            )


class TestGradient:
    def test_stationary_at_analytic_maximum(self):
        rng = np.random.default_rng(11)
        z = rng.normal(0.0, 1.0, size=8)
        b_hat = float(np.mean(z * z))
        ctx = PosteriorContext(VARIANCE_ONLY, z)
        _, grad = ctx.neg2l_grad(np.array([b_hat]))
        assert abs(grad[0]) < 1e-12

    def test_value_is_minus_two_log_posterior(self):
        z = np.array([0.2, 0.9, 0.5])
        omega = np.array([0.55, 0.3])
        value, _ = PosteriorContext(MEAN_AND_VARIANCE, z).neg2l_grad(omega)
        walker = _TreeWalkerContext(MEAN_AND_VARIANCE, z)  # L on its own
        assert value == pytest.approx(-2.0 * walker.log_posterior(omega), rel=1e-14)

    def test_ridge_direction_gradient_component_vanishes(self):
        ctx = PosteriorContext(ADDITIVE_PAIR, np.array([1.5, 0.5]))
        _, grad = ctx.neg2l_grad(np.array([0.7, 0.1]))
        assert grad[0] - grad[1] == 0.0

    @given(
        a=st.floats(-0.5, 1.5),
        b=st.floats(0.05, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_gradient_matches_finite_differences(self, a, b, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(0.5, 0.8, size=5)
        ctx = PosteriorContext(MEAN_AND_VARIANCE, z)
        omega = np.array([a, b])
        _, grad = ctx.neg2l_grad(omega)
        for j in range(2):
            h = 1e-6 * max(1.0, abs(omega[j]))
            up = omega.copy()
            up[j] += h
            dn = omega.copy()
            dn[j] -= h
            fd = (ctx.neg2l(up) - ctx.neg2l(dn)) / (2 * h)
            assert grad[j] == pytest.approx(fd, rel=2e-6, abs=1e-7)


class TestScaleUnderflow:
    # a scale whose square, cube or fourth power underflows to zero makes the
    # point infeasible rather than raising ZeroDivisionError

    def test_cube_underflow_makes_gradient_infeasible(self):
        ctx = PosteriorContext(load_model("ratio_mean_scale_sqrt_a"), np.array([0.70]))
        omega = [3.6e-221, 1.0]
        with pytest.raises(InfeasiblePointError, match="cube underflows"):
            ctx.neg2l(omega)
        with pytest.raises(InfeasiblePointError, match="cube underflows"):
            ctx.neg2l_grad(omega)

    def test_square_underflow_is_infeasible(self):
        model = model_from_dict({"parameters": [{"name": "s", "true_value": 1.0}],
                                 "mean": "0", "scale": "s"})
        ctx = PosteriorContext(model, np.array([0.5, -0.5]))
        with pytest.raises(InfeasiblePointError, match="cube underflows"):
            ctx.neg2l([1e-170])
        with pytest.raises(InfeasiblePointError):
            ctx.neg2l_grad([1e-170])

    def test_fourth_power_underflow_makes_hessian_infeasible(self):
        # zero residuals keep the gradient, 2/b, finite: with any others it
        # overflows as s^4 underflows, and the gradient's point is infeasible
        ctx = PosteriorContext(VARIANCE_ONLY, np.array([0.0, 0.0]))
        ctx.neg2l_grad([1e-165])  # s^3 is still representable
        with pytest.raises(InfeasiblePointError, match="fourth power underflows"):
            ctx.hessian_neg2l([1e-165])


@pytest.mark.parametrize("mean,a", [("exp(a)", 800.0), ("a^2", 1e200)])
def test_float_overflow_is_infeasible(mean, a):
    # a compiled exp above ~709 and a float power both raise OverflowError
    model = model_from_dict({
        "parameters": [{"name": "a", "true_value": 0.0},
                       {"name": "b", "true_value": 1.0, "lower": 0.0}],
        "mean": mean, "scale": "sqrt(b)",
    })
    ctx = PosteriorContext(model, np.array([1.0, 2.0]))
    with pytest.raises(InfeasiblePointError):
        ctx.neg2l([a, 1.0])
    with pytest.raises(InfeasiblePointError):
        ctx.neg2l_grad([a, 1.0])
    with pytest.raises(InfeasiblePointError):
        ctx.hessian_neg2l([a, 1.0])


class TestHessian:
    def test_variance_only_curvature(self):
        # -2L'' at the mode is T / bhat^2 (local variance (2/T) bhat^2)
        z = np.array([0.5, -1.1, 0.9, 0.3])
        b_hat = float(np.mean(z * z))
        ctx = PosteriorContext(VARIANCE_ONLY, z)
        hess = ctx.hessian_neg2l(np.array([b_hat]))
        assert hess[0, 0] == pytest.approx(4.0 / b_hat**2, rel=1e-12)

    def test_mean_variance_decouple_at_mode(self):
        rng = np.random.default_rng(5)
        z = rng.normal(0.6, 0.7, size=10)
        a_hat = float(np.mean(z))
        b_hat = float(np.mean((z - a_hat) ** 2))
        ctx = PosteriorContext(MEAN_AND_VARIANCE, z)
        hess = ctx.hessian_neg2l(np.array([a_hat, b_hat]))
        # off-diagonal is proportional to sum(z - ahat) = 0 at the mode
        assert hess[0, 1] == 0.0
        assert hess[0, 0] == pytest.approx(2 * 10 / b_hat, rel=1e-12)
        assert hess[1, 1] == pytest.approx(10 / b_hat**2, rel=1e-12)

    def test_product_mean_ridge_has_singular_hessian(self):
        # candidates satisfy sum(z - a b) = 0: the curvature is rank one
        z = np.array([0.30, 0.18])
        target = float(np.mean(z))  # a*b at any ridge candidate
        ctx = PosteriorContext(PRODUCT_MEAN, z)
        for a in (0.4, 0.6, 1.1):
            hess = ctx.hessian_neg2l(np.array([a, target / a]))
            eigvals = np.linalg.eigvalsh(hess)
            assert abs(np.linalg.det(hess)) < 1e-6 * max(1.0, eigvals[-1]) ** 2

    def test_symmetry_enforced(self):
        ctx = PosteriorContext(MEAN_AND_VARIANCE, np.array([0.1, 0.8, 0.4]))
        hess = ctx.hessian_neg2l(np.array([0.5, 0.35]))
        assert np.array_equal(hess, hess.T)

    def test_exact_curvature_next_to_the_boundary(self):
        # -2L = T log b + S/b with S = sum z^2, so -2L'' = -T/b^2 + 2S/b^3;
        # no finite-difference step fits between b = 1e-9 and the bound b > 0
        ctx = PosteriorContext(VARIANCE_ONLY, np.array([1.0, -0.5]))
        b = 1e-9
        hess = ctx.hessian_neg2l(np.array([b]))
        assert hess[0, 0] == pytest.approx(-2.0 / b**2 + 2.0 * 1.25 / b**3, rel=1e-12)

    def test_strict_concavity_near_mode(self):
        z = np.array([0.9, -0.7, 0.2, 1.1])
        b_hat = float(np.mean(z * z))
        ctx = PosteriorContext(VARIANCE_ONLY, z)
        hess = ctx.hessian_neg2l(np.array([b_hat]))
        assert hess[0, 0] > 0.0  # -2L convex <=> L concave at the mode


def test_observation_vector_must_be_finite():
    ctx = PosteriorContext(VARIANCE_ONLY, np.array([1.0, np.inf]))
    for method in (lambda omega: -0.5 * ctx.neg2l(omega), ctx.neg2l, ctx.neg2l_grad,
                   ctx.hessian_neg2l):
        with pytest.raises(InfeasiblePointError, match="observation vector must be finite"):
            method([0.8])


def test_context_is_immutable():
    # the context keeps no observations, and its statistics are read-only:
    # a write would silently move -2L
    ctx = PosteriorContext(VARIANCE_ONLY, np.array([0.9, -0.7, 0.2, 1.1]))
    before = ctx.neg2l([0.8])
    for name in ("horizon", "obs_mean", "obs_css", "finite"):
        with pytest.raises(ValueError):
            getattr(ctx, name)[0] = 100.0
    assert not hasattr(ctx, "obs")
    assert ctx.horizon.tolist() == [4] and ctx.neg2l([0.8]) == before


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("horizon", [1, 2, 4, 8, 12, 20, 33, 129])
def test_statistics_bit_equal_the_per_row_reduction(horizon):
    # the reference reduces each row on its own, as row.mean() and dev @ dev;
    # rows 1-3 hold an inf, a nan and a finite sum that overflows
    z = np.random.default_rng(horizon).normal(0.6, 0.8, size=(5, horizon))
    z[1, -1], z[2, 0], z[3] = np.inf, np.nan, 1e308
    ctx = PosteriorContext(VARIANCE_ONLY, [z[:2], z[2:]])
    zbar, css, finite = [], [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for row in z:
            zbar.append(row.mean())
            dev = row - zbar[-1]
            css.append(dev @ dev)
            finite.append(bool(np.isfinite(row).all()))
    assert ctx.obs_mean.tobytes() == np.array(zbar).tobytes()
    assert ctx.obs_css.tobytes() == np.array(css).tobytes()
    assert ctx.finite.tolist() == finite
    for k in (1, 2):
        with pytest.raises(InfeasiblePointError, match="observation vector must be finite"):
            ctx.neg2l_grad([0.8], k)
    with pytest.raises(InfeasiblePointError, match=r"-2 log-posterior is not finite \("):
        ctx.neg2l_grad([0.8], 3)


def _one_shot(ctx, method, omega, k=0):
    """``ctx``'s one-shot ``method`` at row ``k``.  A context's L
    (``"log_posterior"``) is -1/2 :meth:`neg2l`; the walker computes its own."""
    if method == "log_posterior" and not isinstance(ctx, _TreeWalkerContext):
        return -0.5 * ctx.neg2l(omega, k)
    return getattr(ctx, method)(omega, k)


def _bytes_or_error(fn):
    try:
        out = fn()
    except Exception as exc:  # the same failure, whatever it is, counts as equal
        return type(exc), str(exc)
    if isinstance(out, tuple):
        return np.float64(out[0]).tobytes(), np.asarray(out[1], dtype=float).tobytes()
    return np.asarray(out, dtype=float).tobytes()


# exp, log, ^ and abs, with a scale that underflows and a power whose base
# is not positive
SYNTHETIC = model_from_dict({
    "parameters": [{"name": "a", "true_value": 0.5}, {"name": "b", "true_value": 1.0}],
    "mean": "exp(a) - log(abs(b))", "scale": "abs(b)^a", "log_prior": "-a^2 / 2",
}, name="synthetic")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", [*bundled_model_names(), "synthetic"])
@given(
    omegas=st.lists(
        st.lists(st.one_of(st.floats(-1.0, 2.0), st.sampled_from([0.0, -0.0, 1e-9])),
                 min_size=2, max_size=2),
        min_size=1, max_size=4),
    scale=st.sampled_from([1.0, 1e-110, 1e-55, 1e3]),
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(1, 20),
)
def test_compiled_posterior_bit_equals_tree_walkers(name, omegas, scale, seed, horizon):
    # one observation vector and one point per row, all rows evaluated at
    # once; a row is infeasible exactly where the walker raises.  -2L and L
    # are the walker's wherever the gradient is defined, and raise the
    # gradient's reason elsewhere
    model = SYNTHETIC if name == "synthetic" else load_model(name)
    z = np.random.default_rng(seed).normal(0.6, 0.8, size=(len(omegas), horizon))
    points = scale * np.array([omega[: len(model.params)] for omega in omegas])
    values, grads, _, feasible, _ = PosteriorContext(model, z).neg2l_rows(
        np.arange(len(points)), points)
    for k, omega in enumerate(points):
        ctx = PosteriorContext(model, z[k])
        ref = _TreeWalkerContext(model, z[k])
        want = _bytes_or_error(lambda: ref.neg2l_grad(omega))
        if feasible[k]:
            assert (values[k].tobytes(), grads[k].tobytes()) == want
        else:
            assert want[0] is InfeasiblePointError
        for method in ("log_posterior", "neg2l", "neg2l_grad"):
            got = _bytes_or_error(lambda: _one_shot(ctx, method, omega))
            assert got == _bytes_or_error(lambda: _one_shot(ref, method, omega)), method
            if not feasible[k]:
                assert got == want, method


# a point for each failure kind, and the text that names the kind
FAILURE_KINDS = {
    "sqrt of non-positive value": ("mean_and_variance", [0.5, -1.0]),
    "log of non-positive value": ("synthetic", [0.5, 0.0]),
    "division by zero": ("reciprocal_mean", [0.0]),
    "math range error": ("synthetic", [800.0, 1.0]),  # exp overflows
    "Numerical result out of range": ("synthetic", [-400.0, 1e-300]),  # a power overflows
    "with non-integer exponent": ("square_root", [-1.0]),
    "zero raised to a negative power": ("reciprocal_power", [0.0]),
    "derivative of power undefined at zero base": ("square_root", [0.0]),
    "with parameter-dependent exponent": ("self_power", [-1.0]),
    "scale is not positive": ("signed_scale", [0.0]),
    "its cube underflows": ("ratio_mean_scale_sqrt_ab", [3.6e-221, 1.0]),
    # a scale of a, not sqrt(b): the gradient's tests come first, and where
    # the fourth power of sqrt(b) underflows its gradient overflows
    "its fourth power underflows": ("signed_scale", [1e-90]),
    "-2 log-posterior is not finite": ("unknown_variance", [0.8]),  # row 2: Q overflows
    # 1/b and a/b^2 overflow, while a/b is -1
    "gradient of -2 log-posterior is not finite": ("quotient_mean", [-1e-200, 1e-200]),
    "observation vector must be finite": ("product_mean", [0.6, 0.4]),  # row 1
}
ONE_PARAMETER = {
    "square_root": ("a^0.5", "1"), "reciprocal_power": ("a^(-1)", "1"),
    "self_power": ("a^a", "1"), "signed_scale": ("0", "a"),
}


def _grid():
    """(name, model, observations, cases) of the bundled models and the
    synthetic ones, where a case (k, omega) pairs a row of the observations
    with a point of a grid or of :data:`FAILURE_KINDS`."""
    models = {name: load_model(name) for name in bundled_model_names()}
    models["synthetic"] = SYNTHETIC
    models["quotient_mean"] = model_from_dict({
        "parameters": [{"name": "a", "true_value": 1.0}, {"name": "b", "true_value": 1.0}],
        "mean": "3.4270110250347745 + a / b", "scale": "1.0275573311"})
    for name, (mean, scale) in ONE_PARAMETER.items():
        models[name] = model_from_dict({
            "parameters": [{"name": "a", "true_value": 1.0}], "mean": mean, "scale": scale})
    # rows: finite, not finite, and finite with an overflowing Q
    z = np.array([[0.3, 1.1, -0.4, 0.9], [0.2, np.inf, 0.1, 0.5], [1e200, -1e200, 0.0, 1.0]])
    grid = [-1.0, -0.0, 0.0, 1e-165, 3.6e-221, 0.5, 800.0]
    for name, model in models.items():
        points = [[a] for a in grid] if len(model.params) == 1 else \
            [[a, b] for a in grid for b in grid]
        points += [omega for where, omega in FAILURE_KINDS.values() if where == name]
        yield name, model, z, [(k, omega) for omega in points for k in range(len(z))]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_reasons_equal_the_tree_walkers():
    # every one-shot method gives the walker's value or names the reason
    # that the walker and the posterior's tests give first, on the bundled
    # models and on synthetic ones, at every point of a grid and at the
    # points above; each failure kind shows at least once.  One rows call of
    # each kind over all the points of a model names each point's reason too
    seen = set()
    for name, model, z, cases in _grid():
        ctx, ref = PosteriorContext(model, z), _TreeWalkerContext(model, z)
        want = {"neg2l_grad": [], "hessian_neg2l": []}
        for k, omega in cases:
            for method in ("log_posterior", "neg2l", "neg2l_grad", "hessian_neg2l"):
                got = _bytes_or_error(lambda: _one_shot(ctx, method, omega, k))
                assert got == _bytes_or_error(lambda: _one_shot(ref, method, omega, k)), \
                    (name, omega, k, method)
                if got[0] is InfeasiblePointError:
                    seen.add(got[1])
                if method in want:
                    want[method].append(got[1] if got[0] is InfeasiblePointError else None)
        rows, batch = [k for k, _ in cases], np.array([omega for _, omega in cases])
        for method, hessian in (("neg2l_grad", False), ("hessian_neg2l", True)):
            *_, feasible, why = ctx.neg2l_rows(rows, batch, hessian)
            reasons = [None if ok else why(i) for i, ok in enumerate(feasible)]
            assert reasons == want[method], (name, method)
            assert [why(i) for i in range(len(rows))] == reasons
    for kind in FAILURE_KINDS:
        assert any(kind in reason for reason in seen), kind


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_expr_strategy(), _expr_strategy(), _expr_strategy(),
       st.lists(st.tuples(_POINTS, _POINTS, _POINTS), min_size=1, max_size=4),
       st.integers(0, 2**32 - 1))
# a drawn point where -2L is finite but the gradient is not: a / b with b's
# square underflowing gives the mean's derivatives inf and, in c, NaN
@example(parse_expr("abs(3.427) + a / b"), parse_expr("1"), parse_expr("1"),
         [(-1e-200, 1e-200, 1e-11)], 0)
def test_reasons_equal_the_tree_walkers_on_expression_trees(mean, scale, prior, points, seed):
    # one rows call gives each point the walker's -2L and gradient, or the
    # reason the walker raises, on models of drawn expressions
    params = (ParamSpec("a", 0.7), ParamSpec("b", 1.3), ParamSpec("c", 0.4))
    try:
        model = ModelSpec(name="tree", params=params, mean_expr=mean,
                          scale_expr=scale, log_prior_expr=prior)
    except ModelError:
        assume(False)
    z = np.random.default_rng(seed).normal(0.6, 0.8, size=(len(points), 3))
    ctx, ref = PosteriorContext(model, z), _TreeWalkerContext(model, z)
    rows, batch = np.arange(len(points)), np.array(points)
    values, grads, _, feasible, why = ctx.neg2l_rows(rows, batch)
    got = [(values[k].tobytes(), grads[k].tobytes()) if feasible[k]
           else (InfeasiblePointError, why(k)) for k in rows]
    assert got == [_bytes_or_error(lambda: ref.neg2l_grad(point, k))
                   for k, point in enumerate(points)]


def _assert_one_rule(ctx, rows, points) -> int:
    """The Hessian call marks every point that the gradient call marks, with
    the same reason, and others only where the scale's fourth power
    underflows; wherever the gradient call keeps a point, both give the same
    value and gradient bit for bit.  Returns how many points only the
    Hessian call marks."""
    values, grads, none, feasible, why = ctx.neg2l_rows(rows, points)
    values_h, grads_h, hess, feasible_h, why_h = ctx.neg2l_rows(rows, points, hessian=True)
    assert none is None and hess.shape == (len(rows),) + (len(ctx.param_names),) * 2
    extra = 0
    for i in range(len(rows)):
        if not feasible[i]:
            assert (feasible_h[i], why_h(i)) == (False, why(i))
            continue
        assert (values_h[i].tobytes(), grads_h[i].tobytes()) == \
            (values[i].tobytes(), grads[i].tobytes())
        if not feasible_h[i]:
            assert why_h(i).endswith("is too small: its fourth power underflows")
            extra += 1
    return extra


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_the_hessian_call_keeps_the_gradient_calls_rule():
    extra = 0
    for _, model, z, cases in _grid():
        ctx = PosteriorContext(model, z)
        extra += _assert_one_rule(ctx, [k for k, _ in cases],
                                  np.array([omega for _, omega in cases]))
    assert extra > 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(_expr_strategy(), _expr_strategy(), _expr_strategy(),
       st.lists(st.tuples(_POINTS, _POINTS, _POINTS), min_size=1, max_size=4),
       st.integers(0, 2**32 - 1))
def test_the_hessian_call_keeps_the_gradient_calls_rule_on_expression_trees(
        mean, scale, prior, points, seed):
    params = (ParamSpec("a", 0.7), ParamSpec("b", 1.3), ParamSpec("c", 0.4))
    try:
        model = ModelSpec(name="tree", params=params, mean_expr=mean,
                          scale_expr=scale, log_prior_expr=prior)
    except ModelError:
        assume(False)
    z = np.random.default_rng(seed).normal(0.6, 0.8, size=(len(points), 3))
    _assert_one_rule(PosteriorContext(model, z), np.arange(len(points)), np.array(points))


def test_neg2l_that_overflows_is_infeasible():
    # L = exp(709.5), about 1.36e308, is finite, but -2L overflows
    model = model_from_dict({"parameters": [{"name": "a", "true_value": 0.0}],
                             "mean": "0", "scale": "1", "log_prior": "exp(a)"})
    ctx = PosteriorContext(model, np.zeros(2))
    assert not ctx.neg2l_rows([0], np.array([[709.5]]))[3][0]
    for method in (ctx.neg2l_grad, ctx.neg2l, lambda omega: -0.5 * ctx.neg2l(omega)):
        with pytest.raises(InfeasiblePointError) as raised:
            method([709.5])
        assert str(raised.value) == "-2 log-posterior is not finite (-inf)"
    assert -0.5 * ctx.neg2l([709.0]) == math.exp(709.0)


def test_contexts_compare_and_hash_by_identity():
    # the fields are numpy arrays, which have no truth value and no hash
    ctx_a = PosteriorContext(MEAN_AND_VARIANCE, np.ones((2, 3)))
    ctx_b = PosteriorContext(MEAN_AND_VARIANCE, np.ones((2, 3)))
    assert ctx_a == ctx_a and ctx_a != ctx_b
    assert {ctx_a: 1, ctx_b: 2}[ctx_a] == 1 and hash(ctx_a) == hash(ctx_a)


@pytest.mark.parametrize("name", bundled_model_names())
def test_row_k_equals_a_one_row_context(name):
    # every one-shot method at row k of a K-row context is byte-equal to the
    # same method on a one-row context of that row, errors and messages
    # included; rows 2 and 3 are not finite
    model = load_model(name)
    z = np.random.default_rng(4).normal(0.6, 0.8, size=(5, 4))
    z[2, 1], z[3, 0] = np.inf, np.nan
    z[4] *= 1e154  # finite, but Q overflows
    ctx = PosteriorContext(model, z)
    assert len(ctx) == 5
    for omega in ([0.55, 0.3], [0.7, -0.2], [1e-170, 1e-170], [0.6, 0.4]):
        omega = omega[: len(model.params)]
        for k in range(len(z)):
            one = PosteriorContext(model, z[k])
            for method in ("log_posterior", "neg2l", "neg2l_grad", "hessian_neg2l"):
                got = _bytes_or_error(lambda: _one_shot(ctx, method, omega, k))
                assert got == _bytes_or_error(lambda: _one_shot(one, method, omega)), (method, k)
                if k in (2, 3):
                    assert got == (InfeasiblePointError, "observation vector must be finite")


def _direct_neg2l_grad(model, z, omega):
    """-2L and its gradient from the residuals z_t - m, with the magnitude of
    the terms each one sums.  Rounding in zbar, Q and z_t - m is relative to
    |z_t| + |m|, not to the residuals, so the magnitudes are taken from those."""
    (m, dm), (s, ds), (prior, dprior) = [
        (float(v[0]), g[0].tolist()) for v, g, *_ in model.mean_scale_prior_grad([omega])]
    res = z - m
    rss = float(res @ res)
    sum_res = float(res.sum())
    size = np.abs(z) + abs(m)
    rss_mag = float(size @ size)
    res_mag = float(size.sum())
    horizon = z.size
    value = 2.0 * horizon * math.log(s) + rss / (s * s) - 2.0 * prior
    value_mag = abs(2.0 * horizon * math.log(s)) + rss_mag / (s * s) + abs(2.0 * prior)
    grad, grad_mag = [], []
    for a, b, c in zip(ds, dm, dprior):
        terms = (2.0 * horizon * a / s, -2.0 * sum_res * b / s**2, -2.0 * rss * a / s**3, -2.0 * c)
        grad.append(sum(terms))
        grad_mag.append(2.0 * (horizon * abs(a) / s + res_mag * abs(b) / s**2
                               + rss_mag * abs(a) / s**3 + abs(c)))
    return (value, value_mag), list(zip(grad, grad_mag))


@pytest.mark.parametrize("name", bundled_model_names())
@given(
    omega=st.lists(st.floats(0.05, 2.0), min_size=2, max_size=2),
    loc=st.floats(-5.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(1, 20),
)
def test_sufficient_statistics_match_residual_sums(name, omega, loc, seed, horizon):
    # neg2l and neg2l_grad read rss = Q + T (zbar - m)^2 and sum of residuals
    # = T (zbar - m); the oracle sums the residuals themselves
    model = load_model(name)
    z = np.random.default_rng(seed).normal(loc, 0.8, size=horizon)
    omega = omega[: len(model.params)]
    ctx = PosteriorContext(model, z)
    try:
        value, grad = ctx.neg2l_grad(omega)
    except InfeasiblePointError:
        return
    (want, mag), grad_want = _direct_neg2l_grad(model, z, omega)
    assert abs(value - want) <= 1e-12 * mag
    assert abs(ctx.neg2l(omega) - want) <= 1e-12 * mag
    for got, (want, mag) in zip(grad, grad_want):
        assert abs(got - want) <= 1e-12 * mag


@pytest.mark.parametrize("name", bundled_model_names())
@given(
    omega=st.lists(st.floats(0.05, 2.0), min_size=2, max_size=2),
    loc=st.floats(-5.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(1, 20),
)
def test_hessian_matches_central_differences(name, omega, loc, seed, horizon):
    # the exact Hessian against central differences of the compiled gradient
    model = load_model(name)
    z = np.random.default_rng(seed).normal(loc, 0.8, size=horizon)
    omega = omega[: len(model.params)]
    ctx = PosteriorContext(model, z)
    hess = ctx.hessian_neg2l(omega)
    assert np.array_equal(hess, hess.T)
    fd = central_difference_hessian(lambda x: ctx.neg2l_grad(x)[1], omega)
    assert np.max(np.abs(hess - fd)) <= 1e-6 * np.max(np.abs(hess))
