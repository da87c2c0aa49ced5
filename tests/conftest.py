import math

import numpy as np
from hypothesis import HealthCheck, settings

from obscheck import InfeasiblePointError, LcdConfig, PosteriorContext
from obscheck.expressions import DomainError, eval_expr, eval_hessian

settings.register_profile(
    "default",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
# the weekly CI job runs the derivative tests with --hypothesis-profile=weekly
settings.register_profile("weekly", parent=settings.get_profile("default"), max_examples=500)
settings.load_profile("default")


# Desk-scale placement budget: quality plateaus well before the default
# iteration cap, and the studies whiten to exact covariance regardless.
DESK_LCD = LcdConfig(max_iters=150)


def central_difference_hessian(grad, x):
    """Central differences of ``grad`` at ``x`` with per-coordinate step
    eps^(1/3) |x_j|: the oracle for exact Hessians."""
    step = float(np.finfo(float).eps) ** (1.0 / 3.0)
    columns = []
    for j in range(len(x)):
        h = step * abs(x[j])
        up, dn = list(x), list(x)
        up[j] += h
        dn[j] -= h
        columns.append([(p - q) / (2.0 * h) for p, q in zip(grad(up), grad(dn))])
    return np.array(columns).T


class _TreeWalkerContext(PosteriorContext):
    """-2L and its gradient evaluated by walking the expression trees, as the
    reference for the compiled closures."""

    def _values(self, omega):
        return {name: float(v) for name, v in zip(self.param_names, omega)}

    def log_posterior(self, omega, k=0):
        model, values = self.model, self._values(omega)
        try:
            m = eval_expr(model.mean_expr, values)
            s = eval_expr(model.scale_expr, values)
            prior = eval_expr(model.log_prior_expr, values)
        except (DomainError, OverflowError) as exc:
            raise InfeasiblePointError(str(exc)) from exc
        if not s > 0.0:
            raise InfeasiblePointError(f"scale is not positive ({s})")
        d = float(self.obs_mean[k]) - m
        rss = float(self.obs_css[k]) + self.horizon * d * d
        if 2.0 * s * s == 0.0:
            raise InfeasiblePointError(f"scale {s} is too small: its square underflows")
        value = -self.horizon * math.log(s) - rss / (2.0 * s * s) + prior
        if not math.isfinite(value):
            raise InfeasiblePointError(f"log-posterior is not finite ({value})")
        return value

    def neg2l_grad(self, omega, k=0):
        model, values, names = self.model, self._values(omega), self.param_names
        try:
            m, dm, _ = eval_hessian(model.mean_expr, values, names)
            s, ds, _ = eval_hessian(model.scale_expr, values, names)
            prior, dprior, _ = eval_hessian(model.log_prior_expr, values, names)
        except (DomainError, OverflowError) as exc:
            raise InfeasiblePointError(str(exc)) from exc
        if not s > 0.0:
            raise InfeasiblePointError(f"scale is not positive ({s})")
        d = float(self.obs_mean[k]) - m
        sum_res = self.horizon * d
        rss = float(self.obs_css[k]) + sum_res * d
        s2 = s * s
        if s2 * s == 0.0:
            raise InfeasiblePointError(f"scale {s} is too small: its cube underflows")
        value = -self.horizon * math.log(s) - rss / (2.0 * s2) + prior
        if not math.isfinite(value):
            raise InfeasiblePointError(f"log-posterior is not finite ({value})")
        dm, ds, dprior = np.array(dm), np.array(ds), np.array(dprior)
        grad_l = (-self.horizon / s) * ds + (sum_res / s2) * dm + (rss / (s2 * s)) * ds + dprior
        return -2.0 * value, -2.0 * grad_l
