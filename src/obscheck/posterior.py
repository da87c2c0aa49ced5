"""Log-posterior of a location-scale model given an observation vector.

For observations z_1..z_T from Z_t = m(omega) + s(omega) * eps_t with
standard normal eps_t and the model's (default uniform) log-prior, additive
constants are dropped and

    L(omega | z) = -T log s - sum_t (z_t - m)^2 / (2 s^2) + log_prior(omega).

The optimizer minimizes -2L, so this module exposes -2L with its exact
gradient (forward-mode through the mean/scale/prior expressions) and a
finite-difference Hessian of that gradient.  Mean, scale and log-prior come
from the model's compiled expression closures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expressions import DomainError
from .models import ModelSpec

__all__ = ["PosteriorContext", "InfeasiblePointError", "StencilError"]

_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)


class InfeasiblePointError(Exception):
    """The parameter point leaves the model's admissible domain (domain error
    in an expression or non-positive scale).  Recoverable: the optimizer's
    line search treats it as +inf."""


class StencilError(Exception):
    """A finite-difference stencil point is infeasible even after shrinking."""


@dataclass(frozen=True)
class PosteriorContext:
    """A model bound to a concrete observation vector."""

    model: ModelSpec
    obs: np.ndarray
    horizon: int = field(init=False)

    def __post_init__(self):
        obs = np.asarray(self.obs, dtype=float).ravel().copy()
        if obs.size < 1:
            raise ValueError("observation vector must have at least one entry")
        if not np.all(np.isfinite(obs)):
            raise ValueError("observation vector must be finite")
        obs.flags.writeable = False
        object.__setattr__(self, "obs", obs)
        object.__setattr__(self, "horizon", int(obs.size))

    @property
    def param_names(self) -> tuple[str, ...]:
        return self.model.param_names

    def bounds(self) -> list[tuple[float, float]]:
        return self.model.bounds()

    def log_posterior(self, omega: np.ndarray) -> float:
        """L(omega | z) up to an additive constant."""
        try:
            m, s, prior = self.model.mean_scale_prior(omega)
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

    def neg2l(self, omega: np.ndarray) -> float:
        return -2.0 * self.log_posterior(omega)

    def neg2l_grad(self, omega: np.ndarray) -> tuple[float, np.ndarray]:
        """Value and exact gradient of -2L."""
        try:
            (m, dm), (s, ds), (prior, dprior) = self.model.mean_scale_prior_grad(omega)
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
        # dL = -T ds/s + (sum res) dm / s^2 + rss ds / s^3 + dprior, summed
        # per component in that order
        c_ds = -self.horizon / s
        c_dm = sum_res / s2
        c_ds3 = rss / (s2 * s)
        grad = [
            -2.0 * (c_ds * a + c_dm * b + c_ds3 * a + c)
            for a, b, c in zip(ds, dm, dprior)
        ]
        return -2.0 * value, np.array(grad)

    def hessian_neg2l(self, omega: np.ndarray) -> np.ndarray:
        """Symmetric finite-difference Hessian of -2L.

        Central differences of the exact gradient with per-coordinate step
        eps^(1/3) * max(1, |omega_j|); an infeasible stencil point shrinks
        the step once by 10x before giving up with :class:`StencilError`.
        """
        omega = np.asarray(omega, dtype=float)
        n = omega.size
        columns = []
        for j in range(n):
            h = _FD_STEP * max(1.0, abs(float(omega[j])))
            for attempt in range(2):
                try:
                    plus = omega.copy()
                    plus[j] += h
                    minus = omega.copy()
                    minus[j] -= h
                    _, gp = self.neg2l_grad(plus)
                    _, gm = self.neg2l_grad(minus)
                    columns.append((gp - gm) / (2.0 * h))
                    break
                except InfeasiblePointError:
                    if attempt == 1:
                        raise StencilError(
                            f"Hessian stencil infeasible for parameter "
                            f"'{self.param_names[j]}' near {omega[j]!r}"
                        ) from None
                    h /= 10.0
        hess = np.column_stack(columns)
        return 0.5 * (hess + hess.T)

