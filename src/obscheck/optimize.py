"""Numerical maximization of the log-posterior and validation of maxima.

Maximization runs limited-memory BFGS on -2L with Armijo backtracking;
infeasible trial points are rejected by the line search.  A candidate
maximum then passes four checks before it counts:

  1. the inf-norm of grad(-2L) is below ``grad_check``,
  2. the Hessian of -2L is positive definite,
  3. the eigenvalue ratio lambda_min/lambda_max exceeds ``eig_ratio_min``
     (a tiny ratio means a ridge),
  4. all local variances are finite and below ``lvar_max``
     (an infinite local variance means a plateau).

Local variances are the diagonal of the inverted curvature:
2 * diag(H_{-2L}^{-1}), equal to -1/L'' in one dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .posterior import InfeasiblePointError, StencilError

__all__ = ["OptConfig", "MaxResult", "CheckReport", "maximize", "check_maximum", "local_variance"]


@dataclass(frozen=True)
class OptConfig:
    memory: int = 10
    max_iters: int = 500
    grad_tol: float = 1e-9
    armijo_c1: float = 1e-4
    backtrack_factor: float = 0.5
    max_backtracks: int = 60
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


def _project(x: np.ndarray, box) -> np.ndarray:
    """``x`` clipped to ``box = (lower, upper)``; ``box`` is None when every
    bound is infinite, and ``x`` comes back as is."""
    if box is None:
        return x
    return np.minimum(np.maximum(x, box[0]), box[1])


def maximize(ctx, x0, cfg: OptConfig = OptConfig()) -> MaxResult:
    """Maximize the log-posterior of ``ctx`` starting from ``x0``.

    ``ctx`` needs ``neg2l_grad(omega) -> (value, gradient)``, ``neg2l``,
    ``param_names`` and ``bounds()``; :class:`~obscheck.posterior.PosteriorContext`
    provides them.  Trial points are projected onto the declared box bounds
    and rejected (treated as +inf) when infeasible.  Deterministic given
    identical inputs.  Raises ``ValueError`` if ``x0`` itself is infeasible;
    any later failure returns ``converged=False`` with diagnostics instead.
    """
    x = np.asarray(x0, dtype=float).copy()
    bounds = ctx.bounds()
    lower = np.array([lo for lo, _ in bounds], dtype=float)
    upper = np.array([hi for _, hi in bounds], dtype=float)
    box = None if np.all(lower == -np.inf) and np.all(upper == np.inf) else (lower, upper)
    x = _project(x, box)
    try:
        f, g = ctx.neg2l_grad(x)
    except InfeasiblePointError as exc:
        raise ValueError(f"infeasible starting point: {exc}") from exc

    s_hist: list[np.ndarray] = []
    y_hist: list[np.ndarray] = []
    rho_hist: list[float] = []
    trace = [f]
    iterations = 0
    converged = float(np.abs(g).max()) < cfg.grad_tol

    while not converged and iterations < cfg.max_iters:
        direction = -_two_loop(g, s_hist, y_hist, rho_hist)
        slope = float(direction @ g)
        if not math.isfinite(slope) or slope >= 0.0:
            # not a descent direction: drop the history, fall back to
            # steepest descent
            s_hist.clear(); y_hist.clear(); rho_hist.clear()
            direction = -g
            slope = float(direction @ g)

        # fresh-start steps are normalized to unit length; with curvature
        # history the natural step is 1
        step = 1.0 if s_hist else min(1.0, 1.0 / max(float(np.abs(g).max()), 1e-300))
        accepted = False
        for _ in range(cfg.max_backtracks):
            trial = _project(x + step * direction, box)
            actual = trial - x
            if not actual.any():
                break
            try:
                f_trial = ctx.neg2l(trial)
            except InfeasiblePointError:
                step *= cfg.backtrack_factor
                continue
            if f_trial <= f + cfg.armijo_c1 * float(g @ actual):
                accepted = True
                break
            step *= cfg.backtrack_factor
        if not accepted:
            break

        f_new, g_new = ctx.neg2l_grad(trial)
        s = actual  # trial - x of the accepted step
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12 * math.sqrt(float(s @ s)) * math.sqrt(float(y @ y)):
            s_hist.append(s)
            y_hist.append(y)
            rho_hist.append(1.0 / sy)
            if len(s_hist) > cfg.memory:
                s_hist.pop(0); y_hist.pop(0); rho_hist.pop(0)
        else:
            # negative-curvature stretch: the stored quadratic model is
            # stale and would shrink steps indefinitely
            s_hist.clear(); y_hist.clear(); rho_hist.clear()
        x, f, g = trial, f_new, g_new
        trace.append(f)
        iterations += 1
        converged = float(np.abs(g).max()) < cfg.grad_tol

    if not converged and hasattr(ctx, "hessian_neg2l"):
        # the line search can stall once -2L differences fall below float
        # resolution; Newton steps on the gradient push the gradient down to
        # the target without needing a measurable decrease in -2L
        x, f, g, converged, polish_trace = _newton_polish(ctx, x, f, g, box, cfg)
        trace.extend(polish_trace)

    return MaxResult(
        omega_hat=x,
        param_names=tuple(ctx.param_names),
        converged=bool(converged),
        iterations=iterations,
        grad_inf_norm=float(np.abs(g).max()),
        trace=tuple(trace),
    )


def _newton_polish(ctx, x, f, g, box, cfg: OptConfig):
    """Up to three Newton steps accepted only when they reduce both the
    gradient norm and (weakly) -2L; keeps the accepted-value trace monotone."""
    trace = []
    grad_inf = float(np.abs(g).max())
    for _ in range(3):
        if grad_inf < cfg.grad_tol:
            return x, f, g, True, trace
        try:
            hess = ctx.hessian_neg2l(x)
            step = np.linalg.solve(hess, -g)
        except (InfeasiblePointError, StencilError, np.linalg.LinAlgError):
            break
        if not np.all(np.isfinite(step)):
            break
        trial = _project(x + step, box)
        try:
            f_new, g_new = ctx.neg2l_grad(trial)
        except InfeasiblePointError:
            break
        new_inf = float(np.abs(g_new).max())
        if new_inf >= grad_inf or f_new > f:
            break
        x, f, g, grad_inf = trial, f_new, g_new, new_inf
        trace.append(f)
    return x, f, g, grad_inf < cfg.grad_tol, trace


def _two_loop(g: np.ndarray, s_hist, y_hist, rho_hist) -> np.ndarray:
    q = g.copy()
    alphas = []
    for s, y, rho in zip(reversed(s_hist), reversed(y_hist), reversed(rho_hist)):
        a = rho * float(s @ q)
        alphas.append(a)
        q -= a * y
    if s_hist:
        gamma = float(s_hist[-1] @ y_hist[-1]) / float(y_hist[-1] @ y_hist[-1])
        q *= gamma
    for (s, y, rho), a in zip(zip(s_hist, y_hist, rho_hist), reversed(alphas)):
        beta = rho * float(y @ q)
        q += (a - beta) * s
    return q


def check_maximum(ctx, result: MaxResult, cfg: OptConfig = OptConfig()) -> CheckReport:
    """Run the four validity checks at ``result.omega_hat``.

    Positive definiteness, the eigenvalue ratio and the local variances all
    come from one symmetric eigendecomposition of the Hessian, so they
    cannot disagree: a ridge whose smallest eigenvalue rounds to a tiny
    positive number yields huge local variances, not a failed inversion.
    """
    omega = result.omega_hat
    try:
        _, g = ctx.neg2l_grad(omega)
        grad_inf = float(np.abs(g).max())
        eigvals, lvar = _curvature(ctx.hessian_neg2l(omega))
    except (InfeasiblePointError, StencilError, np.linalg.LinAlgError) as exc:
        return CheckReport(
            grad_ok=False, hessian_pd=False, eig_ratio_ok=False, lvar_finite=False,
            grad_inf_norm=float(result.grad_inf_norm), eig_ratio=float("nan"),
            local_variances=None, note=f"curvature evaluation failed: {exc}",
        )

    grad_ok = grad_inf < cfg.grad_check
    lam_min = float(eigvals[0])
    lam_max = float(eigvals[-1])
    hessian_pd = lam_min > 0.0
    eig_ratio = lam_min / lam_max if lam_max != 0.0 else float("nan")
    eig_ratio_ok = bool(np.isfinite(eig_ratio) and eig_ratio > cfg.eig_ratio_min)

    local_variances = lvar if hessian_pd else None
    lvar_finite = bool(
        hessian_pd and np.all(np.isfinite(lvar)) and np.all(lvar < cfg.lvar_max)
    )
    return CheckReport(
        grad_ok=grad_ok,
        hessian_pd=hessian_pd,
        eig_ratio_ok=eig_ratio_ok,
        lvar_finite=lvar_finite,
        grad_inf_norm=grad_inf,
        eig_ratio=eig_ratio,
        local_variances=local_variances,
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
    return _curvature(ctx.hessian_neg2l(np.asarray(omega_hat, dtype=float)))[1]
