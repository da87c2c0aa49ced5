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
mean/scale/prior expressions.  :class:`PosteriorRows` binds a model to the
rows of a (K, T) observation matrix, and its
:meth:`~PosteriorRows.neg2l_grad_rows` evaluates -2L and its gradient for
many rows at once through the model's compiled closures, each row with the
operations of a one-row evaluation; the fit calls nothing else.
:class:`PosteriorContext` binds a model to one vector: its
:meth:`~PosteriorContext.neg2l_grad` is that evaluation for a batch of one,
while :meth:`~PosteriorContext.log_posterior`,
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

__all__ = ["PosteriorContext", "PosteriorRows", "InfeasiblePointError"]


class InfeasiblePointError(Exception):
    """The parameter point leaves the model's admissible domain (domain error
    or float overflow in an expression, or non-positive scale).  Recoverable:
    the optimizer's line search treats it as +inf."""


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


def _neg2l_grad_rows(model: ModelSpec, horizon: int, zbar: np.ndarray, css: np.ndarray,
                     points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """-2L and its gradient at each row of ``points`` for statistics ``zbar``
    and ``css``, with the mask of the feasible rows."""
    (m, dm, ok_m), (s, ds, ok_s), (prior, dprior, ok_p) = model.mean_scale_prior_grad(points)
    with np.errstate(all="ignore"):  # infeasible rows compute garbage
        d = zbar - m
        sum_res = horizon * d
        rss = css + sum_res * d
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


@dataclass(frozen=True)
class PosteriorRows:
    """A model bound to the K rows of a (K, T) observation matrix, one
    observation vector per row.  A row that is not finite is kept, and every
    point is infeasible for it."""

    model: ModelSpec
    obs: np.ndarray
    horizon: int = field(init=False)
    obs_mean: np.ndarray = field(init=False)  # zbar per row
    obs_css: np.ndarray = field(init=False)  # Q per row

    def __post_init__(self):
        obs = np.array(self.obs, dtype=float)
        if obs.ndim != 2 or obs.shape[1] < 1:
            raise ValueError("observations must be a (K, T) matrix with T >= 1")
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

    def neg2l_grad_rows(self, rows: np.ndarray, points: np.ndarray):
        """-2L and its gradient at ``points[i]`` given row ``rows[i]``: values
        (k,), gradients (k, n) and the mask (k,) of the feasible points.  Each
        feasible entry is bit for bit what :meth:`PosteriorContext.neg2l_grad`
        returns for that row."""
        return _neg2l_grad_rows(self.model, self.horizon, self.obs_mean[rows],
                                self.obs_css[rows], points)

    def row(self, k: int) -> PosteriorContext:
        """Row ``k`` as a one-row context with this context's statistics for
        it, for a row whose statistics are finite (so are its observations)."""
        view = object.__new__(PosteriorContext)
        for name, value in (("model", self.model), ("obs", self.obs[k]), ("horizon", self.horizon),
                            ("obs_mean", float(self.obs_mean[k])),
                            ("obs_css", float(self.obs_css[k]))):
            object.__setattr__(view, name, value)
        return view


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
        (zbar,), (css,) = _statistics(obs[None, :])
        object.__setattr__(self, "obs", obs)
        object.__setattr__(self, "horizon", int(obs.size))
        object.__setattr__(self, "obs_mean", float(zbar))
        object.__setattr__(self, "obs_css", float(css))

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

    def neg2l_grad_rows(self, rows: np.ndarray, points: np.ndarray):
        """:meth:`PosteriorRows.neg2l_grad_rows` for this one vector: every
        point is taken with it, whatever ``rows`` holds."""
        count = len(points)
        return _neg2l_grad_rows(self.model, self.horizon, np.full(count, self.obs_mean),
                                np.full(count, self.obs_css), points)

    def neg2l_grad(self, omega: np.ndarray) -> tuple[float, list[float]]:
        """Value and exact gradient of -2L; the gradient is a list of floats
        laid out like :attr:`param_names`."""
        point = np.asarray(omega, dtype=float).reshape(1, -1)
        value, grad, ok = self.neg2l_grad_rows(None, point)
        if not ok[0]:
            raise InfeasiblePointError(self._infeasibility(point[0].tolist()))
        return float(value[0]), grad[0].tolist()

    def _infeasibility(self, omega: list[float]) -> str:
        """Why -2L or its gradient is undefined at ``omega``: the error the
        expression walker raises, or the first test of -2L that fails."""
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
        d = self.obs_mean - m
        rss = self.obs_css + self.horizon * d * d
        value = -self.horizon * math.log(s) - rss / (2.0 * s2) + prior
        return f"log-posterior is not finite ({value})"

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
