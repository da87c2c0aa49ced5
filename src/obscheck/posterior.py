"""Log-posterior of a location-scale model given observation vectors.

For observations z_1..z_T from Z_t = m(omega) + s(omega) * eps_t with
standard normal eps_t and the model's (default uniform) log-prior, additive
constants are dropped and

    L(omega | z) = -T log s - sum_t (z_t - m)^2 / (2 s^2) + log_prior(omega).

The likelihood sees z only through its mean zbar and its centred sum of
squares Q = sum_t (z_t - zbar)^2.  A context computes both once per
observation vector; every evaluation then takes

    sum_t (z_t - m)^2 = Q + T (zbar - m)^2,    sum_t (z_t - m) = T (zbar - m),

so its cost does not grow with T.

The optimizer minimizes -2L, so this module exposes -2L with its exact
gradient and its exact Hessian, both by forward mode through the
mean/scale/prior expressions.  :class:`PosteriorContext` binds a model to
K >= 1 observation vectors, the rows of a (K, T) array.  The fit calls only
:meth:`~PosteriorContext.neg2l_grad_rows`, which evaluates -2L and its
gradient for many rows at once through the model's compiled closures, each
row with the operations of a one-row evaluation.  The one-shot methods
:meth:`~PosteriorContext.neg2l_grad` (that evaluation for one point),
:meth:`~PosteriorContext.log_posterior`, :meth:`~PosteriorContext.neg2l`
and :meth:`~PosteriorContext.hessian_neg2l` take a row index ``k``; all
but the first walk the expression trees.  The Hessian serves only the
validity checks and local variances of a candidate maximum; the fit itself
never asks for curvature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expressions import DomainError, eval_hessian
from .models import ModelSpec

__all__ = ["PosteriorContext", "InfeasiblePointError"]


class InfeasiblePointError(Exception):
    """The parameter point leaves the model's admissible domain (domain error
    or float overflow in an expression, or non-positive scale), or the
    observation vector is not finite.  Recoverable: the optimizer's line
    search treats it as +inf."""


def _statistics(obs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """zbar and Q of each row of the (K, T) array ``obs``.  Each row is
    reduced on its own, as ``row.mean()`` and ``dev @ dev``: a reduction along
    axis 1 may sum in another order.  A row too large to sum overflows to a
    non-finite statistic, which makes every point infeasible for it."""
    zbar, css = np.empty(len(obs)), np.empty(len(obs))
    with np.errstate(over="ignore", invalid="ignore"):
        for k, row in enumerate(obs):
            zbar[k] = row.mean()
            dev = row - zbar[k]
            css[k] = dev @ dev
    return zbar, css


@dataclass(frozen=True)
class PosteriorContext:
    """A model bound to K >= 1 observation vectors, the rows of a (K, T)
    array; a 1-D vector is one row.  A row that is not finite is kept, and
    every point is infeasible for it."""

    model: ModelSpec
    obs: np.ndarray
    horizon: int = field(init=False)
    obs_mean: np.ndarray = field(init=False)  # zbar per row
    obs_css: np.ndarray = field(init=False)  # Q = sum_t (z_t - zbar)^2 per row

    def __post_init__(self):
        obs = np.array(self.obs, dtype=float, ndmin=2)
        if obs.ndim != 2 or obs.size < 1:
            raise ValueError("observations must be a vector or a (K, T) matrix, K, T >= 1")
        obs.flags.writeable = False
        zbar, css = _statistics(obs)
        object.__setattr__(self, "obs", obs)
        object.__setattr__(self, "horizon", int(obs.shape[1]))
        object.__setattr__(self, "obs_mean", zbar)
        object.__setattr__(self, "obs_css", css)

    def __len__(self) -> int:
        return len(self.obs)

    @property
    def param_names(self) -> tuple[str, ...]:
        return self.model.param_names

    def bounds(self) -> list[tuple[float, float]]:
        return self.model.bounds()

    def _stats(self, k: int) -> tuple[float, float]:
        """zbar and Q of row ``k``; ``InfeasiblePointError`` if the row is not
        finite.  A row that is not finite has no finite zbar, so the row
        itself is read only when its statistics are not finite."""
        zbar, css = float(self.obs_mean[k]), float(self.obs_css[k])
        if not (math.isfinite(zbar) and math.isfinite(css)) and not np.isfinite(self.obs[k]).all():
            raise InfeasiblePointError("observation vector must be finite")
        return zbar, css

    def log_posterior(self, omega: np.ndarray, k: int = 0) -> float:
        """L(omega | z) for row ``k`` up to an additive constant."""
        zbar, css = self._stats(k)
        try:
            m, s, prior = self.model.mean_scale_prior(omega)
        except (DomainError, OverflowError) as exc:
            raise InfeasiblePointError(str(exc)) from exc
        if not s > 0.0:
            raise InfeasiblePointError(f"scale is not positive ({s})")
        d = zbar - m
        rss = css + self.horizon * d * d
        denom = 2.0 * s * s
        if denom == 0.0:
            raise InfeasiblePointError(f"scale {s} is too small: its square underflows")
        value = -self.horizon * math.log(s) - rss / denom + prior
        if not math.isfinite(value):
            raise InfeasiblePointError(f"log-posterior is not finite ({value})")
        return value

    def neg2l(self, omega: np.ndarray, k: int = 0) -> float:
        return -2.0 * self.log_posterior(omega, k)

    def neg2l_grad_rows(self, rows, points: np.ndarray):
        """-2L and its gradient at ``points[i]`` given row ``rows[i]``: values
        (k,), gradients (k, n) and the mask (k,) of the feasible points."""
        horizon = self.horizon
        (m, dm, ok_m), (s, ds, ok_s), (prior, dprior, ok_p) = \
            self.model.mean_scale_prior_grad(points)
        with np.errstate(all="ignore"):  # infeasible rows compute garbage
            d = self.obs_mean[rows] - m
            sum_res = horizon * d
            rss = self.obs_css[rows] + sum_res * d
            s2 = s * s
            s3 = s2 * s
            # math.log, not np.log, which may differ in the last bit
            log_s = np.array([math.log(v) if v > 0.0 else math.nan for v in s.tolist()])
            value = -horizon * log_s - rss / (2.0 * s2) + prior
            # dL = -T ds/s + (sum res) dm / s^2 + rss ds / s^3 + dprior, summed
            # per component in that order
            c_ds = -horizon / s
            c_dm = sum_res / s2
            c_ds3 = rss / s3
            grad = -2.0 * (c_ds[:, None] * ds + c_dm[:, None] * dm + c_ds3[:, None] * ds + dprior)
        ok = ok_m & ok_s & ok_p & (s > 0.0) & (s3 != 0.0) & np.isfinite(value)
        return -2.0 * value, grad, ok

    def neg2l_grad(self, omega: np.ndarray, k: int = 0) -> tuple[float, list[float]]:
        """Value and exact gradient of -2L for row ``k``, bit for bit what
        :meth:`neg2l_grad_rows` gives; the gradient is a list of floats laid
        out like :attr:`param_names`."""
        point = np.asarray(omega, dtype=float).reshape(1, -1)
        value, grad, ok = self.neg2l_grad_rows([k], point)
        if not ok[0]:
            raise InfeasiblePointError(self._infeasibility(point[0].tolist(), k))
        return float(value[0]), grad[0].tolist()

    def _infeasibility(self, omega: list[float], k: int) -> str:
        """Why -2L or its gradient is undefined at ``omega`` for row ``k``: the
        error the expression walker raises, or the first test of -2L that
        fails.  A row that is not finite raises its own error instead."""
        zbar, css = self._stats(k)
        names = self.param_names
        values = dict(zip(names, omega))
        exprs = (self.model.mean_expr, self.model.scale_expr, self.model.log_prior_expr)
        try:
            m, s, prior = [eval_hessian(e, values, names)[0] for e in exprs]
        except (DomainError, OverflowError) as exc:
            return str(exc)
        if not s > 0.0:
            return f"scale is not positive ({s})"
        s2 = s * s
        if s2 * s == 0.0:
            return f"scale {s} is too small: its cube underflows"
        d = zbar - m
        rss = css + self.horizon * d * d
        value = -self.horizon * math.log(s) - rss / (2.0 * s2) + prior
        return f"log-posterior is not finite ({value})"

    def hessian_neg2l(self, omega: np.ndarray, k: int = 0) -> np.ndarray:
        """Exact Hessian of -2L for row ``k``: -2L = phi(m, s) - 2 log p(omega), where
        phi = 2T log s + (Q + T (zbar - m)^2) / s^2, by the chain rule through
        the gradients and Hessians of the mean, the scale and the log-prior."""
        zbar, css = self._stats(k)
        names = self.param_names
        values = dict(zip(names, [float(v) for v in omega]))
        exprs = (self.model.mean_expr, self.model.scale_expr, self.model.log_prior_expr)
        try:
            (m, dm, hm), (s, ds, hs), (_, _, hp) = [eval_hessian(e, values, names) for e in exprs]
        except (DomainError, OverflowError) as exc:
            raise InfeasiblePointError(str(exc)) from exc
        if not s > 0.0:
            raise InfeasiblePointError(f"scale is not positive ({s})")
        t, d = self.horizon, zbar - m
        s2 = s * s
        s4 = s2 * s2
        if s4 == 0.0:
            raise InfeasiblePointError(f"scale {s} is too small: its fourth power underflows")
        rss = css + t * d * d
        phi_m, phi_s = -2.0 * t * d / s2, 2.0 * t / s - 2.0 * rss / (s2 * s)
        phi_mm, phi_ms, phi_ss = 2.0 * t / s2, 4.0 * t * d / (s2 * s), 6.0 * rss / s4 - 2.0 * t / s2
        # every term is symmetric in (i, j) bit for bit, so the matrix is too
        return np.array([
            [phi_m * hm[i][j] + phi_s * hs[i][j] + phi_mm * (dm[i] * dm[j])
             + phi_ms * (dm[i] * ds[j] + ds[i] * dm[j]) + phi_ss * (ds[i] * ds[j]) - 2.0 * hp[i][j]
             for j in range(len(dm))]
            for i in range(len(dm))
        ])
