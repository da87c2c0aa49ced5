"""Log-posterior of a location-scale model given an observation vector.

For observations z_1..z_T from Z_t = m(omega) + s(omega) * eps_t with
standard normal eps_t and the model's (default uniform) log-prior, additive
constants are dropped and

    L(omega | z) = -T log s - sum_t (z_t - m)^2 / (2 s^2) + log_prior(omega).

The likelihood sees z only through its mean zbar and its centred sum of
squares Q = sum_t (z_t - zbar)^2.  A context computes both once; every
evaluation then takes

    sum_t (z_t - m)^2 = Q + T (zbar - m)^2,    sum_t (z_t - m) = T (zbar - m),

so its cost does not grow with T and it makes no numpy call.

The optimizer minimizes -2L, so this module exposes -2L with its exact
gradient and its exact Hessian, both by forward mode through the
mean/scale/prior expressions.  :meth:`PosteriorContext.neg2l_grad`, which the
optimizer evaluates at every point, runs the model's compiled expression
closures; the one-shot :meth:`~PosteriorContext.log_posterior`,
:meth:`~PosteriorContext.neg2l` and :meth:`~PosteriorContext.hessian_neg2l`
walk the expression trees.  The Hessian serves only the validity checks and
local variances of a candidate maximum; the fit itself never asks for
curvature.
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
    or float overflow in an expression, or non-positive scale).  Recoverable:
    the optimizer's line search treats it as +inf."""


@dataclass(frozen=True)
class PosteriorContext:
    """A model bound to a concrete observation vector."""

    model: ModelSpec
    obs: np.ndarray
    horizon: int = field(init=False)
    obs_mean: float = field(init=False)  # zbar
    obs_css: float = field(init=False)  # Q = sum_t (z_t - zbar)^2

    def __post_init__(self):
        obs = np.asarray(self.obs, dtype=float).ravel().copy()
        if obs.size < 1:
            raise ValueError("observation vector must have at least one entry")
        if not np.all(np.isfinite(obs)):
            raise ValueError("observation vector must be finite")
        obs.flags.writeable = False
        object.__setattr__(self, "obs", obs)
        object.__setattr__(self, "horizon", int(obs.size))
        zbar = float(obs.mean())
        dev = obs - zbar
        object.__setattr__(self, "obs_mean", zbar)
        object.__setattr__(self, "obs_css", float(dev @ dev))

    @property
    def param_names(self) -> tuple[str, ...]:
        return self.model.param_names

    def bounds(self) -> list[tuple[float, float]]:
        return self.model.bounds()

    def log_posterior(self, omega: np.ndarray) -> float:
        """L(omega | z) up to an additive constant."""
        try:
            m, s, prior = self.model.mean_scale_prior(omega)
        except (DomainError, OverflowError) as exc:
            raise InfeasiblePointError(str(exc)) from exc
        if not s > 0.0:
            raise InfeasiblePointError(f"scale is not positive ({s})")
        d = self.obs_mean - m
        rss = self.obs_css + self.horizon * d * d
        denom = 2.0 * s * s
        if denom == 0.0:
            raise InfeasiblePointError(f"scale {s} is too small: its square underflows")
        value = -self.horizon * math.log(s) - rss / denom + prior
        if not math.isfinite(value):
            raise InfeasiblePointError(f"log-posterior is not finite ({value})")
        return value

    def neg2l(self, omega: np.ndarray) -> float:
        return -2.0 * self.log_posterior(omega)

    def neg2l_grad(self, omega: np.ndarray) -> tuple[float, list[float]]:
        """Value and exact gradient of -2L; the gradient is a list of floats
        laid out like :attr:`param_names`."""
        try:
            (m, dm), (s, ds), (prior, dprior) = self.model.mean_scale_prior_grad(omega)
        except (DomainError, OverflowError) as exc:
            raise InfeasiblePointError(str(exc)) from exc
        if not s > 0.0:
            raise InfeasiblePointError(f"scale is not positive ({s})")
        d = self.obs_mean - m
        sum_res = self.horizon * d
        rss = self.obs_css + sum_res * d
        s2 = s * s
        s3 = s2 * s
        if s3 == 0.0:
            raise InfeasiblePointError(f"scale {s} is too small: its cube underflows")
        value = -self.horizon * math.log(s) - rss / (2.0 * s2) + prior
        if not math.isfinite(value):
            raise InfeasiblePointError(f"log-posterior is not finite ({value})")
        # dL = -T ds/s + (sum res) dm / s^2 + rss ds / s^3 + dprior, summed
        # per component in that order
        c_ds = -self.horizon / s
        c_dm = sum_res / s2
        c_ds3 = rss / s3
        grad = [
            -2.0 * (c_ds * a + c_dm * b + c_ds3 * a + c)
            for a, b, c in zip(ds, dm, dprior)
        ]
        return -2.0 * value, grad

    def hessian_neg2l(self, omega: np.ndarray) -> np.ndarray:
        """Exact Hessian of -2L = phi(m, s) - 2 log p(omega), where
        phi = 2T log s + (Q + T (zbar - m)^2) / s^2, by the chain rule through
        the gradients and Hessians of the mean, the scale and the log-prior."""
        names = self.param_names
        values = dict(zip(names, [float(v) for v in omega]))
        exprs = (self.model.mean_expr, self.model.scale_expr, self.model.log_prior_expr)
        try:
            (m, dm, hm), (s, ds, hs), (_, _, hp) = [eval_hessian(e, values, names) for e in exprs]
        except (DomainError, OverflowError) as exc:
            raise InfeasiblePointError(str(exc)) from exc
        if not s > 0.0:
            raise InfeasiblePointError(f"scale is not positive ({s})")
        t, d = self.horizon, self.obs_mean - m
        s2 = s * s
        s4 = s2 * s2
        if s4 == 0.0:
            raise InfeasiblePointError(f"scale {s} is too small: its fourth power underflows")
        rss = self.obs_css + t * d * d
        phi_m, phi_s = -2.0 * t * d / s2, 2.0 * t / s - 2.0 * rss / (s2 * s)
        phi_mm, phi_ms, phi_ss = 2.0 * t / s2, 4.0 * t * d / (s2 * s), 6.0 * rss / s4 - 2.0 * t / s2
        # every term is symmetric in (i, j) bit for bit, so the matrix is too
        return np.array([
            [phi_m * hm[i][j] + phi_s * hs[i][j] + phi_mm * (dm[i] * dm[j])
             + phi_ms * (dm[i] * ds[j] + ds[i] * dm[j]) + phi_ss * (ds[i] * ds[j]) - 2.0 * hp[i][j]
             for j in range(len(dm))]
            for i in range(len(dm))
        ])
