"""Numerical maximization of the log-posterior and validation of maxima.

Maximization runs limited-memory BFGS on -2L with Armijo backtracking;
infeasible trial points are rejected by the line search.  One loop,
:func:`maximize_rows`, fits every row of a posterior context in lock-step,
over numpy arrays with one row per fit, and gives each row the result a fit
on its own would; :func:`maximize` is that loop on a one-row context.  The
fit and the checks ask the context for one thing, ``neg2l_rows``: -2L and
its gradient for many rows at once, with the reasons of the infeasible
points next to the mask.  :func:`check_rows` checks many maxima at once: it
asks for their Hessians as well, in one call, and decomposes the stack with
one ``eigh``; :func:`check_maximum` is that on one maximum.

Near a maximum, -2L differences fall to rounding noise and Armijo's test
decides on that noise, so a feasible trial that Armijo rejects is accepted
anyway when it meets the approximate Wolfe conditions of Hager & Zhang ("A
new conjugate gradient method with guaranteed descent and an efficient line
search", SIAM J. Optim. 16, 2005): -2L rose by at most eps * |f| and the
slope along the step s satisfies sigma g's <= g_new's <= (2 delta - 1) g's.
The trace of -2L may therefore rise by up to eps * |f| per step.  A
candidate maximum then passes four checks before it counts:

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

import numpy as np

from ._value import Value
from .posterior import InfeasiblePointError

__all__ = ["OptConfig", "MaxResult", "CheckReport", "maximize_rows", "check_rows"]

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


class OptConfig(Value):
    """The convergence target of :func:`maximize_rows` and the three
    thresholds of :func:`check_rows`."""

    grad_tol = 1e-9
    grad_check = 1e-5
    eig_ratio_min = 1e-5
    lvar_max = 1e8
    _fields = ("grad_tol", "grad_check", "eig_ratio_min", "lvar_max")

    def __init__(self, grad_tol: float = grad_tol, grad_check: float = grad_check,
                 eig_ratio_min: float = eig_ratio_min, lvar_max: float = lvar_max):
        self.__dict__.update(grad_tol=grad_tol, grad_check=grad_check,
                             eig_ratio_min=eig_ratio_min, lvar_max=lvar_max)
        for name in self._fields:
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")


class MaxResult:
    """Outcome of one maximization.  It holds an array, so it equals and
    hashes as itself only."""

    def __init__(self, omega_hat: np.ndarray, param_names: tuple[str, ...], converged: bool,
                 iterations: int, grad_inf_norm: float, trace: tuple[float, ...]):
        omega = np.asarray(omega_hat, dtype=float).copy()
        omega.flags.writeable = False
        self.omega_hat = omega
        self.param_names = param_names
        self.converged = converged
        self.iterations = iterations
        self.grad_inf_norm = grad_inf_norm
        self.trace = trace  # -2L at the start and after each accepted step

    @property
    def estimates(self) -> dict[str, float]:
        return {name: float(v) for name, v in zip(self.param_names, self.omega_hat)}


class CheckReport:
    """The four validity checks for a candidate maximum.  It holds an array,
    so it equals and hashes as itself only."""

    def __init__(self, grad_ok: bool, hessian_pd: bool, eig_ratio_ok: bool, lvar_finite: bool,
                 grad_inf_norm: float, eig_ratio: float, local_variances: np.ndarray | None,
                 note: str | None = None):
        self.grad_ok = grad_ok
        self.hessian_pd = hessian_pd
        self.eig_ratio_ok = eig_ratio_ok
        self.lvar_finite = lvar_finite
        self.grad_inf_norm = grad_inf_norm
        self.eig_ratio = eig_ratio
        self.local_variances = local_variances  # present only when hessian_pd
        self.note = note

    @property
    def failed(self) -> tuple[str, ...]:
        """The names of the checks that fail, in check order."""
        return tuple(name for name, ok in (
            ("gradient", self.grad_ok), ("hessian_pd", self.hessian_pd),
            ("eig_ratio", self.eig_ratio_ok), ("local_variance", self.lvar_finite),
        ) if not ok)

    @property
    def passed(self) -> bool:
        return not self.failed


# unused in the package; perfbench/child.py traces it by name as study.maximize
def maximize(ctx, x0, cfg: OptConfig = OptConfig()) -> MaxResult:
    """Maximize the log-posterior of the one row of ``ctx`` from ``x0``:
    :func:`maximize_rows` on a one-row context.

    Each line-search trial is evaluated once: the Armijo test reads its
    value, the approximate Wolfe test its value and gradient, and an
    accepted trial keeps its gradient.  Each entry of the returned
    ``trace`` is at most ``eps * |previous|`` above the one before it
    (``eps`` = 1e-12); a step Armijo accepts always lowers -2L.  Trial
    points are projected onto the declared box bounds and rejected (treated
    as +inf) when infeasible, including when only the gradient is undefined
    there.  Deterministic given identical inputs.  Raises ``ValueError`` if
    ``x0`` itself is infeasible, chained from the ``InfeasiblePointError``
    that :func:`maximize_rows` gives for the row; a line search that
    finds no acceptable step, or the iteration cap, ends the fit with
    ``converged=False`` at the last accepted point.  A context with more
    than one row is a ``ValueError``: :func:`maximize_rows` fits those.
    """
    if len(ctx) != 1:
        raise ValueError(f"maximize fits a one-row context, not {len(ctx)} rows; "
                         f"fit them with maximize_rows")
    (result,) = maximize_rows(ctx, x0, cfg)
    if isinstance(result, InfeasiblePointError):
        raise ValueError(f"infeasible starting point: {result}") from result
    return result


def maximize_rows(ctx, x0, cfg: OptConfig = OptConfig()) -> list:
    """Maximize the log-posterior of every row of ``ctx`` from ``x0``.

    This is the one fit contract.  ``ctx`` has ``len(ctx)`` rows,
    ``param_names``, ``bounds()`` and ``neg2l_rows(rows, points,
    hessian=False) -> (values, gradients, hessians or None, feasible, why)``,
    which evaluates -2L for row ``rows[i]`` at ``points[i]`` and gives the
    function ``why(i)`` that names why point i is infeasible; the fit never
    asks for Hessians.  :class:`~obscheck.posterior.PosteriorContext`
    provides them.  The entry of a row is its ``MaxResult`` or, where the
    start (``x0`` projected onto the bounds) is infeasible, an
    ``InfeasiblePointError`` with the reason that the call at the starts
    names.

    The rows advance in lock-step: in each round every unfinished row
    evaluates exactly one trial, the first step of a new iteration or a
    backtrack, and all of them go to ``neg2l_rows`` in one call.  Each
    row keeps its own step, history and stopping state, and its arithmetic
    is that of a fit on its own: dot products sum left to right from 0.0,
    as Python's ``sum`` sums floats (through 3.11).
    """
    count = len(ctx)
    names = tuple(ctx.param_names)
    box = _box(ctx.bounds())
    with np.errstate(all="ignore"):  # rows that are done or infeasible compute garbage
        x = _project(np.tile(np.asarray(x0, dtype=float), (count, 1)), box)
        f, g, _, started, why = ctx.neg2l_rows(np.arange(count), x)
        failed = {i: InfeasiblePointError(why(i)) for i in np.flatnonzero(~started).tolist()}
        f, g = np.array(f, dtype=float), np.array(g, dtype=float)
        traces = [[v] for v in f.tolist()]
        iterations = np.zeros(count, dtype=int)
        grad_inf = _inf_norm(g)
        converged = grad_inf < cfg.grad_tol
        active = started & ~converged
        history = _History(count, x.shape[1])
        # per row, the line search of its current iteration; a row that has
        # taken no trial yet starts a new iteration
        direction, step = np.zeros_like(x), np.zeros(count)
        tries = np.zeros(count, dtype=int)  # trials taken, evaluated or not
        trial = np.zeros_like(x)  # the latest
        while True:
            new = np.flatnonzero(active & (tries == 0))
            if new.size:
                direction[new], step[new] = _search_direction(history, new, g[new], grad_inf[new])

            # each row's next trial that needs an evaluation; a row whose step
            # no longer moves it, or whose backtracks run out, is done
            pending, ready = np.flatnonzero(active), [np.zeros(0, dtype=np.intp)]
            while pending.size:
                exhausted = tries[pending] >= _MAX_BACKTRACKS
                active[pending[exhausted]] = False
                pending = pending[~exhausted]
                tries[pending] += 1
                t = _project(x[pending] + step[pending, None] * direction[pending], box)
                moves = np.any(t - x[pending] != 0.0, axis=1)
                # the halved step rounded onto the trial just taken
                repeat = moves & (tries[pending] > 1) & np.all(t == trial[pending], axis=1)
                trial[pending] = t
                active[pending[~moves]] = False
                ready.append(pending[moves & ~repeat])
                pending = pending[repeat]
                step[pending] *= _BACKTRACK_FACTOR
            ready = np.concatenate(ready)
            if not ready.size:
                break

            f_new, g_new, _, feasible, _ = ctx.neg2l_rows(ready, trial[ready])
            moved = trial[ready] - x[ready]
            accept = feasible & _acceptable(f[ready], g[ready], f_new, g_new, moved)
            step[ready[~accept]] *= _BACKTRACK_FACTOR
            stepped = ready[accept]
            f_new, g_new = f_new[accept], g_new[accept]
            history.update(stepped, moved[accept], g_new - g[stepped])
            x[stepped], f[stepped], g[stepped] = trial[stepped], f_new, g_new
            for i, v in zip(stepped.tolist(), f_new.tolist()):
                traces[i].append(v)
            iterations[stepped] += 1
            grad_inf[stepped] = _inf_norm(g_new)
            converged[stepped] = grad_inf[stepped] < cfg.grad_tol
            active[stepped] = ~converged[stepped] & (iterations[stepped] < _MAX_ITERS)
            tries[stepped] = 0

    return [
        MaxResult(omega_hat=x[i], param_names=names, converged=bool(converged[i]),
                  iterations=int(iterations[i]), grad_inf_norm=float(grad_inf[i]),
                  trace=tuple(traces[i]))
        if started[i] else failed[i]
        for i in range(count)
    ]


def _box(bounds):
    """(lower, upper) arrays of ``bounds``, or None when every bound is
    infinite."""
    lower = np.array([float(lo) for lo, _ in bounds])
    upper = np.array([float(hi) for _, hi in bounds])
    if np.all(lower == -np.inf) and np.all(upper == np.inf):
        return None
    return lower, upper


def _project(x: np.ndarray, box) -> np.ndarray:
    """Each row of ``x`` clipped to ``box``: an entry at or below its lower
    bound becomes that bound, then one at or above its upper bound becomes
    that (a NaN passes through, -0.0 at a bound 0.0 becomes 0.0)."""
    if box is None:
        return x
    lower, upper = box
    x = np.where(x <= lower, lower, x)
    return np.where(x >= upper, upper, x)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products summed left to right from 0.0."""
    products = a * b
    total = np.zeros(len(a))
    for j in range(products.shape[1]):
        total = total + products[:, j]
    return total


def _inf_norm(g: np.ndarray) -> np.ndarray:
    """max_i |g_i| per row (0.0 for no parameters); NaN where any g_i is."""
    return np.max(np.abs(g), axis=1, initial=0.0)


def _acceptable(f, g, f_new, g_new, s) -> np.ndarray:
    """Per row, whether the step ``s`` from (``f``, ``g``) to (``f_new``,
    ``g_new``) meets Armijo's sufficient decrease or, failing that, the
    approximate Wolfe conditions of the module docstring."""
    gs = _dot(g, s)
    gs_new = _dot(g_new, s)
    return (f_new <= f + _ARMIJO_C1 * gs) | (
        (f_new - f <= _WOLFE_EPS * np.abs(f))
        & (_WOLFE_SIGMA * gs <= gs_new) & (gs_new <= (2.0 * _WOLFE_DELTA - 1.0) * gs)
    )


def _search_direction(history: _History, rows: np.ndarray, g: np.ndarray, grad_inf: np.ndarray):
    """Direction and first step of a new iteration for ``rows``.  A row whose
    L-BFGS direction is not a descent direction drops its history and falls
    back to steepest descent.  Fresh-start steps are normalized to unit
    length; with curvature history the natural step is 1."""
    direction = -_two_loop(g, history.s[rows], history.y[rows], history.rho[rows],
                           history.length[rows])
    slope = _dot(direction, g)
    reset = ~np.isfinite(slope) | (slope >= 0.0)
    history.length[rows[reset]] = 0
    direction[reset] = -g[reset]
    # min(1.0, 1.0 / max(grad_inf, 1e-300)) as Python takes it: 1.0 at a NaN
    inverse = 1.0 / np.where(1e-300 > grad_inf, 1e-300, grad_inf)
    step = np.where(history.length[rows] > 0, 1.0, np.where(inverse < 1.0, inverse, 1.0))
    return direction, step


class _History:
    """Each row's L-BFGS pairs (s, y) and rho = 1 / s'y, oldest first, at
    most ``_MEMORY`` of them."""

    def __init__(self, count: int, n: int):
        self.s = np.zeros((count, _MEMORY, n))
        self.y = np.zeros((count, _MEMORY, n))
        self.rho = np.zeros((count, _MEMORY))
        self.length = np.zeros(count, dtype=int)

    def update(self, rows: np.ndarray, s: np.ndarray, y: np.ndarray) -> None:
        """Store the accepted step ``s`` and gradient change ``y`` of each of
        ``rows`` when they meet the curvature condition; otherwise the row is
        in a negative-curvature stretch, where the stored quadratic model is
        stale and would shrink steps indefinitely, and its history goes."""
        sy = _dot(s, y)
        keep = sy > 1e-12 * np.sqrt(_dot(s, s)) * np.sqrt(_dot(y, y))
        self.length[rows[~keep]] = 0
        rows, s, y, sy = rows[keep], s[keep], y[keep], sy[keep]
        full = rows[self.length[rows] == _MEMORY]
        for pairs in (self.s, self.y, self.rho):  # drop the oldest pair
            pairs[full, :-1] = pairs[full, 1:]
        slot = np.minimum(self.length[rows], _MEMORY - 1)
        self.s[rows, slot], self.y[rows, slot], self.rho[rows, slot] = s, y, 1.0 / sy
        self.length[rows] = slot + 1


def _two_loop(g, s, y, rho, length) -> np.ndarray:
    """The L-BFGS inverse-Hessian product H g for each row of ``g`` by
    Nocedal's two-loop recursion over the first ``length`` pairs of its row
    of ``s``, ``y`` and ``rho``, scaled by s'y / y'y of the newest."""
    q = g
    alphas = np.zeros_like(rho)
    deepest = int(length.max(initial=0))
    stored = length[:, None, None] > np.arange(deepest)[:, None]  # (rows, pair, 1)
    for j in reversed(range(deepest)):
        a = rho[:, j] * _dot(s[:, j], q)
        alphas[:, j] = a
        q = np.where(stored[:, j], q - a[:, None] * y[:, j], q)
    if deepest:
        newest = np.arange(len(q)), np.maximum(length - 1, 0)
        gamma = _dot(s[newest], y[newest]) / _dot(y[newest], y[newest])
        q = np.where(stored[:, 0], q * gamma[:, None], q)
    for j in range(deepest):
        beta = rho[:, j] * _dot(y[:, j], q)
        q = np.where(stored[:, j], q + (alphas[:, j] - beta)[:, None] * s[:, j], q)
    return q


# unused in the package; perfbench/child.py traces it by name as study.check_maximum
def check_maximum(ctx, result: MaxResult, cfg: OptConfig = OptConfig(),
                  k: int = 0) -> CheckReport:
    """Run the four validity checks at ``result.omega_hat``, the maximum of
    row ``k`` of ``ctx``: :func:`check_rows` on that one maximum."""
    (report,) = check_rows(ctx, [k], [result], cfg)
    return report


def check_rows(ctx, rows, results: list[MaxResult],
               cfg: OptConfig = OptConfig()) -> list[CheckReport]:
    """Run the four validity checks at each ``results[i].omega_hat``, the
    maximum of row ``rows[i]`` of ``ctx``.

    The context has the fit contract of :func:`maximize_rows`; the checks
    call ``neg2l_rows(rows, points, hessian=True)`` once, for the (k, n, n)
    Hessians of -2L, their mask and the function ``why(i)`` that names why
    point i is infeasible.
    The gradient check reads ``grad_inf_norm``, which :func:`maximize_rows`
    computed at ``omega_hat``, so the gradient is not evaluated again.
    Positive definiteness, the eigenvalue ratio and the local variances all
    come from one symmetric eigendecomposition of each Hessian, so they
    cannot disagree: a ridge whose smallest eigenvalue rounds to a tiny
    positive number yields huge local variances, not a failed inversion.  A
    maximum whose Hessian is infeasible or cannot be decomposed fails every
    check with a note that says why.
    """
    points = np.array([r.omega_hat for r in results], dtype=float)
    points = points.reshape(len(results), len(ctx.param_names))
    return [_report(result, curvature, cfg)
            for result, curvature in zip(results, _curvatures(ctx, rows, points))]


def _curvatures(ctx, rows, points: np.ndarray) -> list:
    """Per point, the ascending eigenvalues and the local variances of the
    -2L Hessian of row ``rows[i]`` at ``points[i]``, or the error that makes
    them undefined.  The finite Hessians go to ``eigh`` as one stack; as one
    matrix that does not converge makes the whole stack raise, the stack
    then goes matrix by matrix, as does every feasible Hessian that is not
    finite."""
    *_, hess, feasible, why = ctx.neg2l_rows(rows, points, hessian=True)
    out = [None if ok else InfeasiblePointError(why(i)) for i, ok in enumerate(feasible.tolist())]
    stack = np.flatnonzero(feasible & np.isfinite(hess).all(axis=(1, 2)))
    if stack.size:
        try:
            eigvals, lvar = _curvature(hess[stack])
            for i, e, v in zip(stack.tolist(), eigvals, lvar):
                out[i] = e, v
        except np.linalg.LinAlgError:
            pass
    for i in [i for i, c in enumerate(out) if c is None]:
        try:
            eigvals, lvar = _curvature(hess[i:i + 1])
            out[i] = eigvals[0], lvar[0]
        except np.linalg.LinAlgError as exc:
            out[i] = exc
    return out


def _report(result: MaxResult, curvature, cfg: OptConfig) -> CheckReport:
    """The checks of ``result`` from its (eigenvalues, local variances) or
    from the error that left them undefined."""
    grad_inf = float(result.grad_inf_norm)
    if isinstance(curvature, Exception):
        return CheckReport(
            grad_ok=False, hessian_pd=False, eig_ratio_ok=False, lvar_finite=False,
            grad_inf_norm=grad_inf, eig_ratio=float("nan"),
            local_variances=None, note=f"curvature evaluation failed: {curvature}",
        )
    eigvals, lvar = curvature
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
    """Ascending eigenvalues of each -2L Hessian of the (k, n, n) stack and
    its local variances 2 * diag(H^{-1}) = 2 * sum_j V_ij^2 / lambda_j, from
    one ``eigh``; a zero eigenvalue (a plateau) makes every local variance of
    its matrix +inf."""
    eigvals, eigvecs = np.linalg.eigh(hess)
    plateau = np.any(eigvals == 0.0, axis=1)
    inverse = 1.0 / np.where(plateau[:, None], 1.0, eigvals)
    lvar = np.matmul(2.0 * (eigvecs * eigvecs), inverse[:, :, None])[:, :, 0]
    lvar[plateau] = np.inf
    return eigvals, lvar

