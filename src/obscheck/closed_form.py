"""Closed-form estimators for the analytically solvable study models.

These are hand-derived anchors used by the test suite to validate the
numerical pipeline; they are not part of the user-facing workflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "OracleResult",
    "UndefinedEstimatorError",
    "unknown_variance_oracle",
    "mean_and_variance_oracle",
    "reciprocal_mean_oracle",
]


class UndefinedEstimatorError(Exception):
    """The estimator is undefined for this realization."""


@dataclass(frozen=True)
class OracleResult:
    estimates: dict[str, float]
    local_variances: dict[str, float]
    variances: dict[str, float] | None = None
    expected_values: dict[str, float] | None = None


def unknown_variance_oracle(z, b_true: float | None = None) -> OracleResult:
    """Model Z_t = sqrt(b) * eps_t.

    Derivation: L(b) = -(1/2b) sum z_t^2 - (T/2) log b, so L'(b) = 0 at
    bhat = (1/T) sum z_t^2.  L''(bhat) = -T/(2 bhat^2) gives the local
    variance -1/L'' = (2/T) bhat^2.  Over random observations
    E[bhat] = b and Var(bhat) = (2/T) b^2.
    """
    z = np.asarray(z, dtype=float).ravel()
    horizon = z.size
    if horizon < 1:
        raise ValueError("need at least one observation")
    b_hat = float(np.mean(z * z))
    result = OracleResult(
        estimates={"b": b_hat},
        local_variances={"b": 2.0 * b_hat * b_hat / horizon},
        variances={"b": 2.0 * b_true * b_true / horizon} if b_true is not None else None,
        expected_values={"b": b_true} if b_true is not None else None,
    )
    return result


def mean_and_variance_oracle(
    z, a_true: float | None = None, b_true: float | None = None
) -> OracleResult:
    """Model Z_t = a + sqrt(b) * eps_t.

    Derivation: L(a, b) = -(1/2b) sum (z_t - a)^2 - (T/2) log b.  dL/da = 0
    at ahat = mean(z); substituting, dL/db = 0 at bhat = (1/T) sum
    (z_t - ahat)^2.  The Hessian at the maximum is diagonal,
    diag(-T/bhat, -T/(2 bhat^2)), so the local variances are
    (bhat/T, 2 bhat^2 / T).  The estimator of b is biased:
    E[bhat] = ((T-1)/T) b.
    """
    z = np.asarray(z, dtype=float).ravel()
    horizon = z.size
    if horizon < 2:
        raise ValueError("need at least two observations (bhat degenerates to 0 at T=1)")
    a_hat = float(np.mean(z))
    b_hat = float(np.mean((z - a_hat) ** 2))
    expected = None
    if a_true is not None and b_true is not None:
        expected = {"a": a_true, "b": (horizon - 1) / horizon * b_true}
    variances = None
    if b_true is not None:
        variances = {"a": b_true / horizon}
    return OracleResult(
        estimates={"a": a_hat, "b": b_hat},
        local_variances={"a": b_hat / horizon, "b": 2.0 * b_hat * b_hat / horizon},
        variances=variances,
        expected_values=expected,
    )


def reciprocal_mean_oracle(z) -> OracleResult:
    """Model Z_t = 1/w + eps_t.

    Derivation: -2L(w) = sum (z_t - 1/w)^2, whose derivative
    2 sum (z_t - 1/w) / w^2 vanishes at what = T / sum z_t, undefined when
    the observations sum to zero.  Its second derivative
    2 sum [1/w^4 - 2 (z_t - 1/w) / w^3] is 2T / what^4 there, as the sum of
    residuals vanishes, so the local variance 2 / (-2L)'' = -1/L'' is
    what^4 / T.
    """
    z = np.asarray(z, dtype=float).ravel()
    total = float(np.sum(z))
    if total == 0.0:
        raise UndefinedEstimatorError("observations sum to zero; estimate undefined")
    w_hat = z.size / total
    return OracleResult(estimates={"w": w_hat}, local_variances={"w": w_hat ** 4 / z.size})
