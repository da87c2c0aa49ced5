import math

import numpy as np
from hypothesis import HealthCheck, settings, strategies as st

from obscheck import InfeasiblePointError, LcdConfig, PosteriorContext
from obscheck.expressions import _BINARY, _UNARY, Binary, DomainError, Literal, Param, Unary
from obscheck.optimize import _curvatures

from tree_walker import eval_expr, eval_hessian

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


def _expr_strategy():
    """Expression trees in the parameters a, b and c with up to 12 leaves and
    every operator of the language."""
    leaves = st.one_of(
        st.floats(0.1, 9.9).map(lambda v: Literal(float(v))),
        st.sampled_from(["a", "b", "c"]).map(Param),
    )

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from(list(_UNARY)), children).map(lambda t: Unary(*t)),
            st.tuples(st.sampled_from(list(_BINARY)), children, children).map(
                lambda t: Binary(t[0], t[1], t[2])
            ),
        )

    return st.recursive(leaves, extend, max_leaves=12)


# signed zeros, values whose square underflows, and points off the domain
_POINTS = st.one_of(
    st.floats(-4.0, 4.0),
    st.sampled_from([0.0, -0.0, 1e-200, -1e-200, 1e200]),
)


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


def local_variances_at(ctx, omega, k=0):
    """The local variances 2 diag(H^{-1}) the fit computes from the -2L
    Hessian of row ``k`` at ``omega``, a feasible point."""
    *_, hess, feasible, why = ctx.neg2l_rows([k], np.array([omega], dtype=float))
    ((_, lvar),) = _curvatures(hess, feasible & np.isfinite(hess).all(axis=(1, 2)), why)
    return lvar


def curvature_key(curvature):
    """A maximum's ``curvature`` as bytes, or its error's type and message."""
    if isinstance(curvature, Exception):
        return type(curvature).__name__, str(curvature)
    return tuple(np.asarray(a, dtype=float).tobytes() for a in curvature)


def _walker_row(ctx, k):
    if not ctx.finite[k]:
        raise InfeasiblePointError("observation vector must be finite")
    return int(ctx.horizon[k]), float(ctx.obs_mean[k]), float(ctx.obs_css[k])


def _walker_jets(ctx, omega):
    """Value, gradient and Hessian of the mean, the scale and the log-prior."""
    names, model = ctx.param_names, ctx.model
    values = dict(zip(names, [float(v) for v in omega]))
    exprs = (model.mean_expr, model.scale_expr, model.log_prior_expr)
    try:
        jets = [eval_hessian(e, values, names) for e in exprs]
    except (DomainError, OverflowError) as exc:
        raise InfeasiblePointError(str(exc)) from exc
    s = jets[1][0]
    if not s > 0.0:
        raise InfeasiblePointError(f"scale is not positive ({s})")
    return jets


def reference_neg2l_grad(ctx, omega, k=0):
    """-2L and its gradient for row ``k`` of ``ctx`` through the walker's
    derivatives of the mean, the scale and the log-prior.  Raises the reason
    of the first test that fails, in this order: the row is not finite, an
    expression raises, the scale is not positive, its cube underflows, -2L
    is not finite, and its gradient is not finite."""
    t, zbar, css = _walker_row(ctx, k)
    (m, dm, _), (s, ds, _), (prior, dprior, _) = _walker_jets(ctx, omega)
    d = zbar - m
    sum_res = t * d
    rss = css + sum_res * d
    s2 = s * s
    if s2 * s == 0.0:
        raise InfeasiblePointError(f"scale {s} is too small: its cube underflows")
    neg2l = -2.0 * (-t * math.log(s) - rss / (2.0 * s2) + prior)
    if not math.isfinite(neg2l):
        raise InfeasiblePointError(f"-2 log-posterior is not finite ({neg2l})")
    dm, ds, dprior = np.array(dm), np.array(ds), np.array(dprior)
    with np.errstate(all="ignore"):  # a derivative may be inf or NaN
        grad = -2.0 * ((-t / s) * ds + (sum_res / s2) * dm + (rss / (s2 * s)) * ds + dprior)
    if not np.isfinite(grad).all():
        raise InfeasiblePointError("gradient of -2 log-posterior is not finite")
    return neg2l, grad


def reference_hessian(ctx, omega, k=0):
    """The Hessian of -2L for row ``k`` of ``ctx``: the chain rule of
    phi(m, s) = 2T log s + (Q + T (zbar - m)^2) / s^2 through the walker's
    Hessians of the mean, the scale and the log-prior.  It raises where
    :func:`reference_neg2l_grad` does and then where the scale's fourth
    power underflows.  Every NaN entry is ``np.nan``, as in ``neg2l_rows``:
    the scalar arithmetic here, as numpy's there, may leave either sign bit
    on a NaN."""
    reference_neg2l_grad(ctx, omega, k)
    t, zbar, css = _walker_row(ctx, k)
    (m, dm, hm), (s, ds, hs), (_, _, hp) = _walker_jets(ctx, omega)
    d = zbar - m
    s2 = s * s
    s4 = s2 * s2
    if s4 == 0.0:
        raise InfeasiblePointError(f"scale {s} is too small: its fourth power underflows")
    rss = css + t * d * d
    phi_m, phi_s = -2.0 * t * d / s2, 2.0 * t / s - 2.0 * rss / (s2 * s)
    phi_mm, phi_ms, phi_ss = 2.0 * t / s2, 4.0 * t * d / (s2 * s), 6.0 * rss / s4 - 2.0 * t / s2
    hessian = np.array([
        [phi_m * hm[i][j] + phi_s * hs[i][j] + phi_mm * (dm[i] * dm[j])
         + phi_ms * (dm[i] * ds[j] + ds[i] * dm[j]) + phi_ss * (ds[i] * ds[j]) - 2.0 * hp[i][j]
         for j in range(len(dm))]
        for i in range(len(dm))
    ])
    hessian[np.isnan(hessian)] = np.nan
    return hessian


class _TreeWalkerContext(PosteriorContext):
    """-2L with its gradient and its Hessian evaluated by walking the
    expression trees, as the reference for the compiled closures.  Each
    raises the reason of the first test that fails, in this order: the row
    is not finite, an expression raises, the scale is not positive, its
    cube underflows, -2L is not finite, its gradient is not finite, and
    (Hessian) its fourth power underflows;
    :meth:`log_posterior`, L on its own (the context's L is -1/2
    :meth:`neg2l`), and :meth:`neg2l` raise where the gradient does."""

    def log_posterior(self, omega, k=0):
        self.neg2l_grad(omega, k)
        t, zbar, css = _walker_row(self, k)
        model = self.model
        values = dict(zip(self.param_names, [float(v) for v in omega]))
        m = eval_expr(model.mean_expr, values)
        s = eval_expr(model.scale_expr, values)
        prior = eval_expr(model.log_prior_expr, values)
        d = zbar - m
        rss = css + t * d * d
        return -t * math.log(s) - rss / (2.0 * s * s) + prior

    def neg2l(self, omega, k=0):
        return -2.0 * self.log_posterior(omega, k)

    def neg2l_grad(self, omega, k=0):
        return reference_neg2l_grad(self, omega, k)

    def hessian_neg2l(self, omega, k=0):
        return reference_hessian(self, omega, k)
