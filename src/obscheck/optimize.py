"""Numerical maximization of the log-posterior and validation of maxima.

Maximization runs limited-memory BFGS on -2L with Armijo backtracking;
infeasible trial points are rejected by the line search.  Near a maximum,
-2L differences fall to rounding noise and Armijo's test decides on that
noise, so a feasible trial that Armijo rejects is accepted anyway when it
meets the approximate Wolfe conditions of Hager & Zhang ("A new conjugate
gradient method with guaranteed descent and an efficient line search",
SIAM J. Optim. 16, 2005): -2L rose by at most eps * |f| and the slope along
the step s satisfies sigma g's <= g_new's <= (2 delta - 1) g's.  The trace
of -2L may therefore rise by up to eps * |f| per step.  A candidate
maximum then passes four checks before it counts:

  1. the inf-norm of grad(-2L) is below ``grad_check``,
  2. the exact Hessian of -2L is positive definite,
  3. the eigenvalue ratio lambda_min/lambda_max exceeds ``eig_ratio_min``
     (a tiny ratio means a ridge),
  4. all local variances are finite and below ``lvar_max``
     (an infinite local variance means a plateau).

Local variances are the diagonal of the inverted curvature, 2 * diag(H^{-1})
for the Hessian H of -2L (no step size), equal to -1/L'' in one dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from .posterior import InfeasiblePointError

__all__ = ["OptConfig", "MaxResult", "CheckReport", "maximize", "check_maximum", "local_variance"]

# L-BFGS history length, iteration cap, Armijo constant and backtracking
# (Nocedal & Wright, Numerical Optimization, 2nd ed., sections 3.1 and 7.2)
_MEMORY = 10
_MAX_ITERS = 500
_ARMIJO_C1 = 1e-4
_BACKTRACK_FACTOR = 0.5
_MAX_BACKTRACKS = 60
# approximate Wolfe constants eps, delta and sigma (Hager & Zhang, 2005)
_WOLFE_EPS = 1e-12
_WOLFE_DELTA = 0.1
_WOLFE_SIGMA = 0.9


@dataclass(frozen=True)
class OptConfig:
    """The convergence target of :func:`maximize` and the three thresholds
    of :func:`check_maximum`."""

    grad_tol: float = 1e-9
    grad_check: float = 1e-5
    eig_ratio_min: float = 1e-5
    lvar_max: float = 1e8

    def __post_init__(self):
        for name in ("grad_tol", "grad_check", "eig_ratio_min", "lvar_max"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class MaxResult:
    """Outcome of one maximization."""

    omega_hat: np.ndarray
    param_names: tuple[str, ...]
    converged: bool
    iterations: int
    grad_inf_norm: float
    trace: tuple[float, ...]  # -2L at the start and after each accepted step

    def __post_init__(self):
        omega = np.asarray(self.omega_hat, dtype=float).copy()
        omega.flags.writeable = False
        object.__setattr__(self, "omega_hat", omega)

    @property
    def estimates(self) -> dict[str, float]:
        return {name: float(v) for name, v in zip(self.param_names, self.omega_hat)}


@dataclass(frozen=True)
class CheckReport:
    """The four validity checks for a candidate maximum."""

    grad_ok: bool
    hessian_pd: bool
    eig_ratio_ok: bool
    lvar_finite: bool
    grad_inf_norm: float
    eig_ratio: float
    local_variances: np.ndarray | None  # present only when hessian_pd
    note: str | None = None

    @property
    def passed(self) -> bool:
        return self.grad_ok and self.hessian_pd and self.eig_ratio_ok and self.lvar_finite


def _inf_norm(v) -> float:
    """max |v_i|; NaN when any v_i is NaN, as numpy's ``max`` gives."""
    norm = 0.0
    for a in v:
        a = abs(a)
        if not a <= norm:
            if a != a:
                return a
            norm = a
    return norm


def _project(x: list[float], box) -> list[float]:
    """``x`` clipped to ``box = (lower, upper)`` as ``np.minimum(np.maximum(x,
    lower), upper)`` clips it (a NaN passes through); ``box`` is None when
    every bound is infinite, and ``x`` comes back as is."""
    if box is None:
        return x
    out = []
    for v, lo, hi in zip(x, *box):
        if v <= lo:
            v = lo
        if v >= hi:
            v = hi
        out.append(v)
    return out


def maximize(ctx, x0, cfg: OptConfig = OptConfig()) -> MaxResult:
    """Maximize the log-posterior of ``ctx`` starting from ``x0``.

    ``ctx`` needs only ``neg2l_grad(omega) -> (value, gradient)``,
    ``param_names`` and ``bounds()``;
    :class:`~obscheck.posterior.PosteriorContext` provides them.  ``omega``
    is passed as a list of Python floats, and the gradient may be any
    sequence of floats.  Each line-search trial is evaluated once, by
    ``neg2l_grad``: the Armijo test reads its value, the approximate Wolfe
    test its value and gradient, and an accepted trial keeps its gradient.
    Each entry of the returned ``trace`` is at most ``eps * |previous|``
    above the one before it (``eps`` = 1e-12); a step Armijo accepts
    always lowers -2L.  Trial points are projected onto the declared box
    bounds and rejected (treated as +inf) when infeasible, including when
    only the gradient is undefined there.  Deterministic given identical
    inputs.  Raises ``ValueError`` if ``x0`` itself is infeasible; a line
    search that finds no acceptable step, or the iteration cap, ends the fit
    with ``converged=False`` at the last accepted point.

    The iteration runs on lists of Python floats: its vectors have one entry
    per parameter, where numpy's per-call overhead would dominate the fit.
    """
    bounds = ctx.bounds()
    lower = [float(lo) for lo, _ in bounds]
    upper = [float(hi) for _, hi in bounds]
    box = None
    if any(lo != -math.inf for lo in lower) or any(hi != math.inf for hi in upper):
        box = (lower, upper)
    x = _project([float(v) for v in x0], box)
    try:
        f, g = ctx.neg2l_grad(x)
    except InfeasiblePointError as exc:
        raise ValueError(f"infeasible starting point: {exc}") from exc

    s_hist: list[list[float]] = []
    y_hist: list[list[float]] = []
    rho_hist: list[float] = []
    trace = [f]
    iterations = 0
    grad_inf = _inf_norm(g)
    converged = grad_inf < cfg.grad_tol

    while not converged and iterations < _MAX_ITERS:
        direction = [-a for a in _two_loop(g, s_hist, y_hist, rho_hist)]
        slope = sum(map(mul, direction, g))
        if not math.isfinite(slope) or slope >= 0.0:
            # not a descent direction: drop the history, fall back to
            # steepest descent
            s_hist.clear(); y_hist.clear(); rho_hist.clear()
            direction = [-a for a in g]

        # fresh-start steps are normalized to unit length; with curvature
        # history the natural step is 1
        step = 1.0 if s_hist else min(1.0, 1.0 / max(grad_inf, 1e-300))
        accepted = False
        trial = None
        for _ in range(_MAX_BACKTRACKS):
            previous = trial
            trial = _project([a + step * d for a, d in zip(x, direction)], box)
            actual = [t - a for t, a in zip(trial, x)]
            if not any(actual):
                break
            if trial == previous:
                # the halved step rounded onto the trial just rejected
                step *= _BACKTRACK_FACTOR
                continue
            try:
                f_new, g_new = ctx.neg2l_grad(trial)
                if _acceptable(f, g, f_new, g_new, actual):
                    accepted = True
                    break
            except InfeasiblePointError:
                pass
            step *= _BACKTRACK_FACTOR
        if not accepted:
            break

        s = actual  # trial - x of the accepted step
        y = [b - a for a, b in zip(g, g_new)]
        sy = sum(map(mul, s, y))
        if sy > 1e-12 * math.sqrt(sum(map(mul, s, s))) * math.sqrt(sum(map(mul, y, y))):
            s_hist.append(s)
            y_hist.append(y)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > _MEMORY:
                s_hist.pop(0); y_hist.pop(0); rho_hist.pop(0)
        else:
            # negative-curvature stretch: the stored quadratic model is
            # stale and would shrink steps indefinitely
            s_hist.clear(); y_hist.clear(); rho_hist.clear()
        x, f, g = trial, f_new, g_new
        trace.append(f)
        iterations += 1
        grad_inf = _inf_norm(g)
        converged = grad_inf < cfg.grad_tol

    return MaxResult(
        omega_hat=x,
        param_names=tuple(ctx.param_names),
        converged=bool(converged),
        iterations=iterations,
        grad_inf_norm=grad_inf,
        trace=tuple(trace),
    )


def _acceptable(f: float, g: list[float], f_new: float, g_new, s: list[float]) -> bool:
    """Whether the step ``s`` from (``f``, ``g``) to (``f_new``, ``g_new``)
    meets Armijo's sufficient decrease or, failing that, the approximate
    Wolfe conditions of the module docstring."""
    gs = sum(map(mul, g, s))
    if f_new <= f + _ARMIJO_C1 * gs:
        return True
    return f_new - f <= _WOLFE_EPS * abs(f) and (
        _WOLFE_SIGMA * gs <= sum(map(mul, g_new, s)) <= (2.0 * _WOLFE_DELTA - 1.0) * gs
    )


def _two_loop(g: list[float], s_hist, y_hist, rho_hist) -> list[float]:
    """The L-BFGS inverse-Hessian product H g by Nocedal's two-loop recursion
    over the stored pairs (oldest first), scaled by s'y / y'y of the newest."""
    q = g
    alphas = []
    for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
        a = rho * sum(map(mul, s, q))
        alphas.append(a)
        q = [qi - a * yi for qi, yi in zip(q, y)]
    if s_hist:
        s, y = s_hist[-1], y_hist[-1]
        gamma = sum(map(mul, s, y)) / sum(map(mul, y, y))
        q = [qi * gamma for qi in q]
    for (s, y, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
        beta = rho * sum(map(mul, y, q))
        q = [qi + (a - beta) * si for qi, si in zip(q, s)]
    return q


def check_maximum(ctx, result: MaxResult, cfg: OptConfig = OptConfig()) -> CheckReport:
    """Run the four validity checks at ``result.omega_hat``.

    The gradient check reads ``result.grad_inf_norm``, which :func:`maximize`
    computed at ``omega_hat``, so the gradient is not evaluated again.
    Positive definiteness, the eigenvalue ratio and the local variances all
    come from one symmetric eigendecomposition of the Hessian, so they
    cannot disagree: a ridge whose smallest eigenvalue rounds to a tiny
    positive number yields huge local variances, not a failed inversion.
    """
    grad_inf = float(result.grad_inf_norm)
    try:
        eigvals, lvar = _curvature(ctx.hessian_neg2l(result.omega_hat))
    except (InfeasiblePointError, np.linalg.LinAlgError) as exc:
        return CheckReport(
            grad_ok=False, hessian_pd=False, eig_ratio_ok=False, lvar_finite=False,
            grad_inf_norm=grad_inf, eig_ratio=float("nan"),
            local_variances=None, note=f"curvature evaluation failed: {exc}",
        )

    lam_min = float(eigvals[0])
    lam_max = float(eigvals[-1])
    hessian_pd = lam_min > 0.0
    eig_ratio = lam_min / lam_max if lam_max != 0.0 else float("nan")
    lvar_finite = hessian_pd and all(
        math.isfinite(v) and v < cfg.lvar_max for v in lvar.tolist()
    )
    return CheckReport(
        grad_ok=grad_inf < cfg.grad_check,
        hessian_pd=hessian_pd,
        eig_ratio_ok=math.isfinite(eig_ratio) and eig_ratio > cfg.eig_ratio_min,
        lvar_finite=lvar_finite,
        grad_inf_norm=grad_inf,
        eig_ratio=eig_ratio,
        local_variances=lvar if hessian_pd else None,
    )


def _curvature(hess: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of the -2L Hessian and the local variances
    2 * diag(H^{-1}) = 2 * sum_j V_ij^2 / lambda_j from one ``eigh``; a zero
    eigenvalue (a plateau) makes every local variance +inf."""
    eigvals, eigvecs = np.linalg.eigh(hess)
    if np.any(eigvals == 0.0):
        return eigvals, np.full(len(eigvals), np.inf)
    return eigvals, 2.0 * (eigvecs * eigvecs) @ (1.0 / eigvals)


def local_variance(ctx, omega_hat: np.ndarray) -> np.ndarray:
    """2 * diag(H_{-2L}^{-1}) at the candidate maximum.

    A singular Hessian signals a plateau: the result is +inf per parameter
    rather than an exception, so callers can fold it into the checks.
    """
    return _curvature(ctx.hessian_neg2l(omega_hat))[1]
