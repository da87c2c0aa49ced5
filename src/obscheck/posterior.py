"""Log-posterior of a location-scale model given observation vectors.

For observations z_1..z_T from Z_t = m(omega) + s(omega) * eps_t with
standard normal eps_t and the model's (default uniform) log-prior, additive
constants are dropped and

    L(omega | z) = -T log s - sum_t (z_t - m)^2 / (2 s^2) + log_prior(omega).

The likelihood sees z only through its mean zbar and its centred sum of
squares Q = sum_t (z_t - zbar)^2.  A context computes both once per
observation vector and keeps no observations; every evaluation then takes

    sum_t (z_t - m)^2 = Q + T (zbar - m)^2,    sum_t (z_t - m) = T (zbar - m),

so its cost does not grow with T.

The optimizer minimizes -2L, so this module exposes -2L with its exact
gradient and its exact Hessian, both by forward mode through the
mean/scale/prior expressions.  :class:`PosteriorContext` binds a model to
K >= 1 observation vectors, given as one block, the rows of a (K, T) array,
or as several blocks whose T may differ; its only per-row state is T, zbar,
Q and whether the row is finite, all read-only, so one context holds every
vector of a study.

There is one evaluator and one feasibility rule.  The fit and the checks
both call :meth:`~PosteriorContext.neg2l_rows`, which evaluates many rows at
once through the model's compiled closures, the package's one expression
evaluator, and gives the Hessians only when asked; its mask is the AND of
one ordered list of tests, and next to it comes a function that names an
infeasible point's first failing test.  The one-shot methods
:meth:`~PosteriorContext.neg2l`, :meth:`~PosteriorContext.neg2l_grad` and
:meth:`~PosteriorContext.hessian_neg2l` are that call on one point, so all
three raise wherever the gradient is undefined.  They raise
:class:`InfeasiblePointError` with that reason, and take a row index ``k``.
The fit itself never asks for curvature.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .expressions import first_failure
from .models import ModelSpec

__all__ = ["PosteriorContext", "InfeasiblePointError"]


class InfeasiblePointError(Exception):
    """The parameter point leaves the model's admissible domain (domain error
    or float overflow in an expression, or non-positive scale), or the
    observation vector is not finite.  Recoverable: the optimizer's line
    search treats it as +inf."""


def _statistics(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """zbar, Q and finiteness of each row of the (K, T) array ``block``.
    ``mean(axis=1)`` and the stacked ``matmul`` sum each row as ``row.mean()``
    and ``dev @ dev`` do, bit for bit (``einsum`` does not).  A row too large
    to sum overflows to a non-finite statistic, which makes every point
    infeasible for it."""
    with np.errstate(over="ignore", invalid="ignore"):
        zbar = block.mean(axis=1)
        dev = block - zbar[:, None]
        css = np.matmul(dev[:, None, :], dev[:, :, None])[:, 0, 0]
    return zbar, css, np.isfinite(block).all(axis=1)


def _blocks(obs) -> list[np.ndarray]:
    """The blocks of ``obs`` as 2-D arrays: a list or tuple that holds
    vectors or matrices is a sequence of blocks, anything else is one."""
    if isinstance(obs, (list, tuple)) and any(np.ndim(b) for b in obs):
        blocks = [np.array(b, dtype=float, ndmin=2) for b in obs]
    else:
        blocks = [np.array(obs, dtype=float, ndmin=2)]
    if any(b.ndim != 2 or b.size < 1 for b in blocks):
        raise ValueError("observations must be a vector or a (K, T) matrix, K, T >= 1, "
                         "or a sequence of these")
    return blocks


@dataclass(frozen=True, eq=False)
class PosteriorContext:
    """A model bound to K >= 1 observation vectors.  ``obs`` is one block, a
    vector (one row) or a (K, T) array, or a list of blocks whose T may
    differ, stacked in order.  A row that is not finite is kept, and every
    point is infeasible for it.

    The context stores no observations: its only per-row state is four
    read-only arrays, ``horizon``, ``obs_mean``, ``obs_css`` and ``finite``.
    Two contexts are equal only when they are the same object, and a context
    hashes by identity.
    """

    model: ModelSpec
    obs: InitVar[object]
    horizon: np.ndarray = field(init=False)  # T per row
    obs_mean: np.ndarray = field(init=False)  # zbar per row
    obs_css: np.ndarray = field(init=False)  # Q = sum_t (z_t - zbar)^2 per row
    finite: np.ndarray = field(init=False)  # whether the row is a finite vector

    def __post_init__(self, obs):
        blocks = _blocks(obs)
        columns = zip(*[(np.full(len(b), b.shape[1]), *_statistics(b)) for b in blocks])
        for name, column in zip(("horizon", "obs_mean", "obs_css", "finite"), columns):
            values = np.concatenate(column)
            values.flags.writeable = False
            object.__setattr__(self, name, values)

    def __len__(self) -> int:
        return len(self.horizon)

    @property
    def param_names(self) -> tuple[str, ...]:
        return self.model.param_names

    def bounds(self) -> list[tuple[float, float]]:
        return self.model.bounds()

    def neg2l_rows(self, rows, points: np.ndarray, hessian: bool = False):
        """-2L, its gradient and, with ``hessian``, its Hessian at
        ``points[i]`` given row ``rows[i]``: the compiled closures' shape,
        values (k,), gradients (k, n), Hessians (k, n, n) or None, the mask
        (k,) of the feasible points and the function that names why point i
        is not (None for a feasible point).

        A point is feasible where it passes every test of the one rule, and
        its reason is the first test it fails: 1. the row is finite; 2. mean,
        scale and log-prior and their derivatives are defined; 3. the scale
        is positive; 4. its cube does not underflow; 5. -2L is finite (not
        so where L is above half the largest float); 6. so is its gradient;
        and, with ``hessian``, 7. the scale's fourth power does not
        underflow.

        -2L = phi(m, s) - 2 log p(omega), where phi = 2T log s
        + (Q + T (zbar - m)^2) / s^2, so its derivatives follow by the chain
        rule from those of the mean, the scale and the log-prior.  Every
        Hessian entry is a sum of terms symmetric in (i, j) bit for bit, so
        each matrix is too.  A NaN entry is ``np.nan``, so a row's matrix
        does not depend on the other rows of the call.
        """
        rows = np.asarray(rows, dtype=np.intp)
        t = self.horizon[rows]
        model = self.model
        exprs = (model.mean_scale_prior_hessian if hessian else model.mean_scale_prior_grad)(points)
        (m, dm, hm, ok_m, _), (s, ds, hs, ok_s, _), (prior, dprior, hp, ok_p, _) = exprs
        hess = None
        with np.errstate(all="ignore"):  # infeasible rows compute garbage
            d = self.obs_mean[rows] - m
            sum_res = t * d
            rss = self.obs_css[rows] + sum_res * d
            s2 = s * s
            s3 = s2 * s
            # math.log, not np.log, which may differ in the last bit
            log_s = np.array([math.log(v) if v > 0.0 else math.nan for v in s.tolist()])
            value = -2.0 * (-t * log_s - rss / (2.0 * s2) + prior)
            # dL = -T ds/s + (sum res) dm / s^2 + rss ds / s^3 + dprior, summed
            # per component in that order
            c_ds = -t / s
            c_dm = sum_res / s2
            c_ds3 = rss / s3
            grad = -2.0 * (c_ds[:, None] * ds + c_dm[:, None] * dm + c_ds3[:, None] * ds + dprior)
            if hessian:
                s4 = s2 * s2
                phi_m, phi_s, phi_mm, phi_ms, phi_ss = (c[:, None, None] for c in (
                    -2.0 * t * d / s2, 2.0 * t / s - 2.0 * rss / s3,
                    2.0 * t / s2, 4.0 * t * d / s3, 6.0 * rss / s4 - 2.0 * t / s2))
                dm_i, dm_j = dm[:, :, None], dm[:, None, :]
                ds_i, ds_j = ds[:, :, None], ds[:, None, :]
                hess = (phi_m * hm + phi_s * hs + phi_mm * (dm_i * dm_j)
                        + phi_ms * (dm_i * ds_j + ds_i * dm_j) + phi_ss * (ds_i * ds_j) - 2.0 * hp)
                hess[np.isnan(hess)] = np.nan  # numpy's NaN sign bit varies with the rows a call holds
        tests = [
            (self.finite[rows], lambda i: "observation vector must be finite"),
            (ok_m & ok_s & ok_p, lambda i: next(why(i) for *_, ok, why in exprs if not ok[i])),
            (s > 0.0, lambda i: f"scale is not positive ({float(s[i])})"),
            (s3 != 0.0, lambda i: f"scale {float(s[i])} is too small: its cube underflows"),
            (np.isfinite(value), lambda i: f"-2 log-posterior is not finite ({float(value[i])})"),
            (np.isfinite(grad).all(axis=1), lambda i: "gradient of -2 log-posterior is not finite"),
        ]
        if hessian:
            tests.append((s4 != 0.0, lambda i: f"scale {float(s[i])} is too small: "
                                               f"its fourth power underflows"))
        feasible = np.logical_and.reduce([mask for mask, _ in tests])
        return value, grad, hess, feasible, first_failure(tests)

    # the three one-row shells are unused in the package; perfbench/child.py
    # traces them by name
    def neg2l(self, omega: np.ndarray, k: int = 0) -> float:
        """-2L for row ``k``, which raises wherever the gradient is
        undefined."""
        return float(self._at(omega, k)[0])

    def neg2l_grad(self, omega: np.ndarray, k: int = 0) -> tuple[float, list[float]]:
        """Value and exact gradient of -2L for row ``k``; the gradient is a
        list of floats laid out like :attr:`param_names`."""
        value, grad, _ = self._at(omega, k)
        return float(value), grad.tolist()

    def hessian_neg2l(self, omega: np.ndarray, k: int = 0) -> np.ndarray:
        """Exact Hessian of -2L for row ``k``."""
        return self._at(omega, k, hessian=True)[2]

    def _at(self, omega: np.ndarray, k: int, hessian: bool = False):
        """Value, gradient and Hessian (or None) of -2L for row ``k`` at the
        one point ``omega``, bit for bit what a :meth:`neg2l_rows` call of
        any size gives for it; an infeasible point raises
        :class:`InfeasiblePointError` with its reason."""
        point = np.asarray(omega, dtype=float).reshape(1, -1)
        value, grad, hess, ok, why = self.neg2l_rows([k], point, hessian)
        if not ok[0]:
            raise InfeasiblePointError(why(0))
        return value[0], grad[0], None if hess is None else hess[0]
