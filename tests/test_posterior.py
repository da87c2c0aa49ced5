import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from obscheck import InfeasiblePointError, PosteriorContext, bundled_model_names, load_model
from obscheck.expressions import DomainError, eval_expr, eval_grad
from obscheck.posterior import StencilError

VARIANCE_ONLY = load_model("unknown_variance")
MEAN_AND_VARIANCE = load_model("mean_and_variance")
ADDITIVE_PAIR = load_model("additive_mean_pair")
PRODUCT_MEAN = load_model("product_mean")


class TestLogPosterior:
    def test_variance_only_value(self):
        z = np.array([math.sqrt(0.8), -math.sqrt(0.8)])
        ctx = PosteriorContext(VARIANCE_ONLY, z)
        assert ctx.log_posterior(np.array([0.8])) == pytest.approx(
            -1.0 - math.log(0.8), abs=1e-12
        )

    def test_zero_residuals_leave_only_scale_term(self):
        ctx = PosteriorContext(MEAN_AND_VARIANCE, np.array([0.6, 0.6]))
        assert ctx.log_posterior(np.array([0.6, 0.4])) == pytest.approx(
            -math.log(0.4), abs=1e-9
        )

    def test_additive_pair_depends_only_on_sum(self):
        ctx = PosteriorContext(ADDITIVE_PAIR, np.array([1.5, 0.5]))
        for delta in (0.1, -0.3, 2.0):
            assert ctx.log_posterior(np.array([0.6 + delta, 0.4 - delta])) == pytest.approx(
                ctx.log_posterior(np.array([0.6, 0.4])), rel=1e-12
            )

    def test_nonpositive_scale_is_infeasible(self):
        ctx = PosteriorContext(VARIANCE_ONLY, np.array([1.0]))
        with pytest.raises(InfeasiblePointError):
            ctx.log_posterior(np.array([-0.5]))

    def test_translation_invariance_of_location_family(self):
        rng = np.random.default_rng(3)
        z = rng.normal(0.6, 0.6, size=6)
        ctx = PosteriorContext(MEAN_AND_VARIANCE, z)
        for shift in (0.5, -1.2):
            shifted = PosteriorContext(MEAN_AND_VARIANCE, z + shift)
            assert shifted.log_posterior(np.array([0.6 + shift, 0.4])) == pytest.approx(
                ctx.log_posterior(np.array([0.6, 0.4])), rel=1e-9
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
        ctx = PosteriorContext(MEAN_AND_VARIANCE, np.array([0.2, 0.9, 0.5]))
        omega = np.array([0.55, 0.3])
        value, _ = ctx.neg2l_grad(omega)
        assert value == pytest.approx(-2.0 * ctx.log_posterior(omega), rel=1e-14)

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


class TestHessian:
    def test_variance_only_curvature(self):
        # -2L'' at the mode is T / bhat^2 (local variance (2/T) bhat^2)
        z = np.array([0.5, -1.1, 0.9, 0.3])
        b_hat = float(np.mean(z * z))
        ctx = PosteriorContext(VARIANCE_ONLY, z)
        hess = ctx.hessian_neg2l(np.array([b_hat]))
        assert hess[0, 0] == pytest.approx(4.0 / b_hat**2, rel=1e-7)

    def test_mean_variance_decouple_at_mode(self):
        rng = np.random.default_rng(5)
        z = rng.normal(0.6, 0.7, size=10)
        a_hat = float(np.mean(z))
        b_hat = float(np.mean((z - a_hat) ** 2))
        ctx = PosteriorContext(MEAN_AND_VARIANCE, z)
        hess = ctx.hessian_neg2l(np.array([a_hat, b_hat]))
        # off-diagonal is proportional to sum(z - ahat) = 0 at the mode
        assert abs(hess[0, 1]) < 1e-6 * abs(hess[0, 0])
        assert hess[0, 0] == pytest.approx(2 * 10 / b_hat, rel=1e-7)
        assert hess[1, 1] == pytest.approx(10 / b_hat**2, rel=1e-7)

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

    def test_infeasible_stencil_raises_stencil_error(self):
        ctx = PosteriorContext(VARIANCE_ONLY, np.array([1.0, -0.5]))
        # so close to the boundary that even the shrunken step leaves b > 0
        with pytest.raises(StencilError):
            ctx.hessian_neg2l(np.array([1e-9]))

    def test_strict_concavity_near_mode(self):
        z = np.array([0.9, -0.7, 0.2, 1.1])
        b_hat = float(np.mean(z * z))
        ctx = PosteriorContext(VARIANCE_ONLY, z)
        hess = ctx.hessian_neg2l(np.array([b_hat]))
        assert hess[0, 0] > 0.0  # -2L convex <=> L concave at the mode


def test_observation_vector_must_be_finite():
    with pytest.raises(ValueError):
        PosteriorContext(VARIANCE_ONLY, np.array([1.0, np.inf]))


def test_context_is_immutable():
    ctx = PosteriorContext(VARIANCE_ONLY, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        ctx.obs[0] = 3.0
    assert ctx.horizon == 2


class _TreeWalkerContext(PosteriorContext):
    """-2L and its gradient evaluated by walking the expression trees, as the
    reference for the compiled closures; the Hessian stencil is inherited."""

    def _values(self, omega):
        return {name: float(v) for name, v in zip(self.param_names, omega)}

    def log_posterior(self, omega):
        model, values = self.model, self._values(omega)
        try:
            m = eval_expr(model.mean_expr, values)
            s = eval_expr(model.scale_expr, values)
            prior = eval_expr(model.log_prior_expr, values)
        except DomainError as exc:
            raise InfeasiblePointError(str(exc)) from exc
        if not s > 0.0:
            raise InfeasiblePointError(f"scale is not positive ({s})")
        res = self.obs - m
        rss = float(res @ res)
        value = -self.horizon * math.log(s) - rss / (2.0 * s * s) + prior
        if not math.isfinite(value):
            raise InfeasiblePointError(f"log-posterior is not finite ({value})")
        return value

    def neg2l_grad(self, omega):
        model, values, names = self.model, self._values(omega), self.param_names
        try:
            m, dm = eval_grad(model.mean_expr, values, names)
            s, ds = eval_grad(model.scale_expr, values, names)
            prior, dprior = eval_grad(model.log_prior_expr, values, names)
        except DomainError as exc:
            raise InfeasiblePointError(str(exc)) from exc
        if not s > 0.0:
            raise InfeasiblePointError(f"scale is not positive ({s})")
        res = self.obs - m
        rss = float(res @ res)
        sum_res = float(np.sum(res))
        s2 = s * s
        value = -self.horizon * math.log(s) - rss / (2.0 * s2) + prior
        if not math.isfinite(value):
            raise InfeasiblePointError(f"log-posterior is not finite ({value})")
        grad_l = (-self.horizon / s) * ds + (sum_res / s2) * dm + (rss / (s2 * s)) * ds + dprior
        return -2.0 * value, -2.0 * grad_l


def _bytes_or_error(fn):
    try:
        out = fn()
    except Exception as exc:  # the same failure, whatever it is, counts as equal
        return type(exc), str(exc)
    if isinstance(out, tuple):
        return np.float64(out[0]).tobytes(), out[1].tobytes()
    return np.asarray(out, dtype=float).tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", bundled_model_names())
@given(
    omega=st.lists(st.one_of(st.floats(-1.0, 2.0), st.sampled_from([0.0, -0.0, 1e-9])),
                   min_size=2, max_size=2),
    seed=st.integers(0, 2**32 - 1),
    horizon=st.integers(1, 20),
)
def test_compiled_posterior_bit_equals_tree_walkers(name, omega, seed, horizon):
    model = load_model(name)
    z = np.random.default_rng(seed).normal(0.6, 0.8, size=horizon)
    omega = np.array(omega[: len(model.params)])
    ctx = PosteriorContext(model, z)
    ref = _TreeWalkerContext(model, z)
    for method in ("neg2l", "neg2l_grad", "hessian_neg2l"):
        got = _bytes_or_error(lambda: getattr(ctx, method)(omega))
        assert got == _bytes_or_error(lambda: getattr(ref, method)(omega)), method
