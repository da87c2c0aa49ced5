"""Numerical maximization of the log-posterior and validation of maxima.

Maximization runs a trust-region Newton method on -2L with its exact
Hessian (Moré & Sorensen, "Computing a trust region step", SIAM J. Sci.
Stat. Comput. 4, 1983; Nocedal & Wright, Numerical Optimization, 2nd ed.,
ch. 4).  With H = V diag(lambda) V' at the current point, the step is

    p = -V diag(1 / (|lambda| + 1e-8 max|lambda| + mu)) V' g,

where mu >= 0 is the least value with ||p|| <= Delta, the trust radius;
Moré and Sorensen's secular iteration finds it to within 10% of Delta.  The
absolute eigenvalues make p a descent step where H is indefinite, and the
floor bounds it where H is singular.  The step is projected onto the box
bounds.  A trial is accepted when -2L falls by at least 1e-4 of the fall
that the quadratic model with those eigenvalues predicts.  Near a maximum,
-2L differences fall to rounding noise, so a trial is also accepted when
-2L rises by at most 1e-12 * |f| and the inf-norm of the gradient falls;
the trace of -2L may therefore rise by that much per step.  A rejected
trial, among them one that is infeasible or whose Hessian is not finite,
sets Delta to a quarter of the step's length.  Delta starts
infinite and doubles when a step that the radius cut lowers -2L by more
than 3/4 of the predicted fall.

One loop, :func:`maximize_rows`, fits every row of a posterior context in
lock-step, over numpy arrays with one row per fit, and gives each row the
result a fit on its own would; :func:`maximize` is that loop on a one-row
context.  The fit asks the context for one thing, ``neg2l_rows``: -2L, its
gradient and its Hessian for many rows at once, with the reasons of the
infeasible points next to the mask.  It decomposes the Hessian at each
row's point once, at the start and in the round that accepts a step, and
keeps the eigenvalues and eigenvectors; when it ends, each result carries
the curvature that they give.  :func:`check_maximum` checks one maximum from
its curvature and gradient norm alone, with no evaluation.  A candidate
maximum passes four checks before it counts:

  1. the inf-norm of grad(-2L) is below ``_GRAD_CHECK`` = 1e-5,
  2. the exact Hessian of -2L is positive definite,
  3. the eigenvalue ratio lambda_min/lambda_max exceeds ``_EIG_RATIO_MIN``
     = 1e-5 (a tiny ratio means a ridge),
  4. all local variances are finite and below ``_LVAR_MAX`` = 1e8
     (an infinite local variance means a plateau).

The thresholds are absolute, in the units of each parameter.

Local variances are the diagonal of the inverted curvature, 2 * diag(H^{-1})
for the Hessian H of -2L (no step size), equal to -1/L'' in one dimension.
"""

from __future__ import annotations

import math

import numpy as np

from .posterior import InfeasiblePointError

__all__ = ["MaxResult", "CheckReport", "maximize_rows", "check_maximum"]

# the stop on the gradient's inf-norm, the iteration cap and the trust
# region's constants of the module docstring (Nocedal & Wright, Numerical
# Optimization, 2nd ed., ch. 4): the share of the predicted fall that accepts
# a trial, the rise that counts as rounding noise relative to |f|, the
# eigenvalue floor relative to the largest |eigenvalue|, and the tolerance of
# the secular iteration relative to Delta
_GRAD_TOL = 1e-9
_MAX_ITERS = 500
_ETA = 1e-4
_NOISE = 1e-12
_EIG_FLOOR = 1e-8
_RADIUS_TOL = 0.1
# the thresholds of the four checks of the module docstring
_GRAD_CHECK = 1e-5
_EIG_RATIO_MIN = 1e-5
_LVAR_MAX = 1e8


class MaxResult:
    """Outcome of one maximization.  ``curvature`` holds the ascending
    eigenvalues and the local variances of the -2L Hessian at ``omega_hat``,
    or the error that leaves them undefined.  It holds arrays, so it equals
    and hashes as itself only."""

    def __init__(self, omega_hat: np.ndarray, param_names: tuple[str, ...], converged: bool,
                 iterations: int, grad_inf_norm: float, trace: tuple[float, ...],
                 curvature: tuple[np.ndarray, np.ndarray] | Exception):
        omega = np.asarray(omega_hat, dtype=float).copy()
        omega.flags.writeable = False
        self.omega_hat = omega
        self.param_names = param_names
        self.converged = converged
        self.iterations = iterations
        self.grad_inf_norm = grad_inf_norm
        self.trace = trace  # -2L at the start and after each accepted step
        self.curvature = curvature

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
def maximize(ctx, x0) -> MaxResult:
    """Maximize the log-posterior of the one row of ``ctx`` from ``x0``:
    :func:`maximize_rows` on a one-row context, a trust-region Newton fit
    on the exact Hessian (Moré & Sorensen, SIAM J. Sci. Stat. Comput. 1983;
    Nocedal & Wright, Numerical Optimization, ch. 4).

    Each trial is evaluated once, with its Hessian, and an accepted trial
    keeps its gradient and Hessian.  A trial is accepted when -2L falls by
    at least 1e-4 of the predicted fall or, at rounding noise, rises by at
    most 1e-12 * |f| while the gradient's inf-norm falls, so each entry of
    the returned ``trace`` is at most ``1e-12 * |previous|`` above the one
    before it; a step accepted on its predicted fall always lowers -2L.
    Trial points are projected onto the declared box bounds and rejected
    when infeasible, including when only the gradient is undefined there,
    or when the Hessian is not finite.  Deterministic given identical
    inputs.  Raises ``ValueError`` if ``x0`` itself is infeasible, chained
    from the ``InfeasiblePointError`` that :func:`maximize_rows` gives for
    the row; a start whose Hessian is not finite, a radius that
    shrinks below rounding, or the iteration cap ends the fit with
    ``converged=False`` at the last accepted point.  A context with more
    than one row is a ``ValueError``: :func:`maximize_rows` fits those.
    """
    if len(ctx) != 1:
        raise ValueError(f"maximize fits a one-row context, not {len(ctx)} rows; "
                         f"fit them with maximize_rows")
    (result,) = maximize_rows(ctx, x0)
    if isinstance(result, InfeasiblePointError):
        raise ValueError(f"infeasible starting point: {result}") from result
    return result


def maximize_rows(ctx, x0) -> list:
    """Maximize the log-posterior of every row of ``ctx`` from ``x0`` by the
    trust-region Newton method of the module docstring (Moré & Sorensen,
    SIAM J. Sci. Stat. Comput. 1983; Nocedal & Wright, Numerical
    Optimization, ch. 4): the step -V diag(1 / (|lambda| + 1e-8 max|lambda|
    + mu)) V' g with the least mu >= 0 that keeps it within the radius, and
    a trial accepted on 1e-4 of its predicted fall or, at rounding noise,
    on a rise of at most 1e-12 * |f| with a falling gradient.

    ``x0`` is one start of shape (n,) for every row, or one start per row,
    of shape (len(ctx), n); any other shape is a ``ValueError``.

    This is the one fit contract.  ``ctx`` has ``len(ctx)`` rows,
    ``param_names``, ``bounds()`` and ``neg2l_rows(rows, points) -> (values,
    gradients, hessians, feasible, why)``, which evaluates -2L with its
    derivatives for row ``rows[i]`` at ``points[i]`` and gives the function
    ``why(i)`` that names why point i is infeasible.
    :class:`~obscheck.posterior.PosteriorContext` provides them.  The entry
    of a row is its ``MaxResult`` or, where the start (``x0`` projected onto
    the bounds) is infeasible, an ``InfeasiblePointError`` with the reason
    that the one call at the starts names.  A row whose start Hessian is
    not finite stays at its start.  Its ``curvature`` is the
    ``InfeasiblePointError`` of the reason ``why`` names for it; where
    ``why`` names none, that Hessian is decomposed on its own, and the
    ``curvature`` holds its eigenvalues and local variances, NaN where the
    entries are, or the ``LinAlgError`` that ``eigh`` raises on it.
    Every other row keeps the eigendecomposition of the Hessian at its point,
    from the call that gave it, and its ``curvature`` holds those eigenvalues
    and their local variances; a Hessian that ``eigh`` cannot decompose stops
    its row, and the error is its ``curvature``.

    The rows advance in lock-step: in each round every unfinished row
    evaluates exactly one trial, and all of them go to ``neg2l_rows`` in
    one call, and the Hessians of the rows that step go to one stacked
    ``eigh``.  Each row keeps its own radius and stopping state, and its
    arithmetic is that of a fit on its own: dot products sum left to right
    from 0.0.
    """
    count = len(ctx)
    names = tuple(ctx.param_names)
    box = _box(ctx.bounds())
    x0, shape = np.asarray(x0, dtype=float), (count, len(names))
    if x0.shape not in (shape[1:], shape):
        raise ValueError(f"x0 has shape {x0.shape}, not {shape[1:]} for one start of every "
                         f"row or {shape} for one start per row")
    with np.errstate(all="ignore"):  # rows that are done or infeasible compute garbage
        x = _project(np.broadcast_to(x0, shape).copy(), box)
        f, g, hess, started, why = ctx.neg2l_rows(np.arange(count), x)
        f, g = (np.array(a, dtype=float) for a in (f, g))
        traces = [[v] for v in f.tolist()]
        iterations = np.zeros(count, dtype=int)
        grad_inf = _inf_norm(g)
        converged = grad_inf < _GRAD_TOL
        # per row, the eigenvalues and eigenvectors of the Hessian at x or in
        # ``errors`` why they are undefined, and the trust radius.  An accepted
        # trial's Hessian is finite, so ``usable`` rows have one throughout
        usable = started & np.isfinite(hess).all(axis=(1, 2))
        errors = {i: InfeasiblePointError(reason) for i, ok in enumerate(usable.tolist())
                  if not ok and (reason := why(i)) is not None}
        lam, vec = np.zeros_like(x), np.zeros(x.shape + x.shape[1:])
        active = usable & ~converged
        kept = np.flatnonzero(usable)
        active[_eigh(hess[kept], kept, lam, vec, errors)] = False
        # a start Hessian not finite for no reason ``why`` names goes apart, lest the stack raise
        unnamed = ~usable
        unnamed[list(errors)] = False
        if (odd := np.flatnonzero(unnamed)).size:
            _eigh(hess[odd], odd, lam, vec, errors)
        radius = np.full(count, np.inf)
        while True:
            rows = np.flatnonzero(active)
            v, v_t, eig = vec[rows], np.swapaxes(vec[rows], 1, 2), np.abs(lam[rows])
            eig += _EIG_FLOOR * eig.max(axis=1, initial=0.0, keepdims=True)
            c = _dot(v_t, g[rows, None, :])  # V'g
            u, boundary = _secular(eig, c, radius[rows])
            trial = _project(x[rows] - _dot(v, u[:, None, :]), box)
            s = trial - x[rows]
            # a row whose step no longer moves it, or not by a finite
            # amount, is done
            moves = np.any(s != 0.0, axis=1) & np.isfinite(s).all(axis=1)
            if not moves.all():
                active[rows[~moves]] = False
                rows, v_t, eig, c, boundary, trial, s = (
                    a[moves] for a in (rows, v_t, eig, c, boundary, trial, s))
            if not rows.size:
                break

            f_new, g_new, hess, feasible, _ = ctx.neg2l_rows(rows, trial)
            # the fall that the quadratic model with the floored eigenvalues
            # predicts for the step s, with w = V's
            w = _dot(v_t, s[:, None, :])
            predicted = -_dot(c + 0.5 * eig * w, w)
            grad_inf_new = _inf_norm(g_new)
            accept = feasible & np.isfinite(hess).all(axis=(1, 2)) & _acceptable(
                f[rows], f_new, predicted, grad_inf[rows], grad_inf_new)
            radius[rows[~accept]] = 0.25 * np.sqrt(_dot(s[~accept], s[~accept]))
            # a real decrease of more than 3/4 of the predicted fall
            good = (predicted > 0.0) & (f[rows] - f_new > 0.75 * predicted)
            radius[rows[accept & boundary & good]] *= 2.0
            stepped = rows[accept]
            x[stepped], f[stepped], g[stepped] = trial[accept], f_new[accept], g_new[accept]
            for i, value in zip(stepped.tolist(), f_new[accept].tolist()):
                traces[i].append(value)
            iterations[stepped] += 1
            grad_inf[stepped] = grad_inf_new[accept]
            converged[stepped] = grad_inf[stepped] < _GRAD_TOL
            active[stepped] = ~converged[stepped] & (iterations[stepped] < _MAX_ITERS)
            active[_eigh(hess[accept], stepped, lam, vec, errors)] = False

    # the local variances 2 diag(H^{-1}) = 2 (V o V)(1 / lambda), +inf where
    # an eigenvalue is zero (a plateau).  An infeasible start's entry is its error
    plateau = np.any(lam == 0.0, axis=1)
    inverse = 1.0 / np.where(plateau[:, None], 1.0, lam)
    lvar = np.matmul(2.0 * (vec * vec), inverse[:, :, None])[:, :, 0]
    lvar[plateau] = np.inf
    return [
        MaxResult(omega_hat=x[i], param_names=names, converged=bool(converged[i]),
                  iterations=int(iterations[i]), grad_inf_norm=float(grad_inf[i]),
                  trace=tuple(traces[i]), curvature=errors.get(i, (lam[i], lvar[i])))
        if started[i] else errors[i]
        for i in range(count)
    ]


def _box(bounds):
    """(lower, upper) arrays of ``bounds``, -inf or +inf on an open side."""
    lower = np.array([float(lo) for lo, _ in bounds])
    upper = np.array([float(hi) for _, hi in bounds])
    return lower, upper


def _project(x: np.ndarray, box) -> np.ndarray:
    """Each row of ``x`` clipped to ``box``: an entry at or below its lower
    bound becomes that bound, then one at or above its upper bound becomes
    that (a NaN passes through, -0.0 at a bound 0.0 becomes 0.0).  At
    infinite bounds every entry, +-inf included, is returned unchanged."""
    lower, upper = box
    x = np.where(x <= lower, lower, x)
    return np.where(x >= upper, upper, x)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis of ``a * b``, summed left to right
    from 0.0."""
    products = a * b
    total = np.zeros(products.shape[:-1])
    for j in range(products.shape[-1]):
        total = total + products[..., j]
    return total


def _inf_norm(g: np.ndarray) -> np.ndarray:
    """max_i |g_i| per row (0.0 for no parameters); NaN where any g_i is."""
    return np.max(np.abs(g), axis=1, initial=0.0)


def _acceptable(f, f_new, predicted, grad_inf, grad_inf_new) -> np.ndarray:
    """Per row, whether a trial is accepted: -2L fell from ``f`` to
    ``f_new`` by at least ``_ETA`` of the ``predicted`` fall or, failing
    that, rose by at most ``_NOISE * |f|`` while the gradient's inf-norm
    fell from ``grad_inf`` to ``grad_inf_new``."""
    fall = f - f_new
    return (((predicted > 0.0) & (fall >= _ETA * predicted))
            | ((-fall <= _NOISE * np.abs(f)) & (grad_inf_new < grad_inf)))


def _eigh(hess: np.ndarray, rows: np.ndarray, lam: np.ndarray, vec: np.ndarray,
          errors: dict) -> list[int]:
    """Keep in ``lam[rows]`` and ``vec[rows]`` the ascending eigenvalues and
    the eigenvectors of the matrices of the (k, n, n) stack ``hess``, from
    one ``eigh``.  As one matrix that does not converge makes the whole stack
    raise, the stack then goes matrix by matrix, and the error of a matrix
    that still fails goes to ``errors`` under its row.  Returns those rows."""
    try:
        lam[rows], vec[rows] = np.linalg.eigh(hess)
        return []
    except np.linalg.LinAlgError:
        failed = []
    for row, matrix in zip(rows.tolist(), hess):
        try:
            lam[row], vec[row] = np.linalg.eigh(matrix)
        except np.linalg.LinAlgError as exc:
            errors[row] = exc
            failed.append(row)
    return failed


def _secular(lam: np.ndarray, c: np.ndarray, radius: np.ndarray):
    """Per row, the step u = c / (lam + mu) in eigenvector coordinates for
    the least mu >= 0 with ||u|| <= radius, and whether mu > 0.

    Moré and Sorensen's iteration, Newton's method on 1/||u(mu)|| =
    1/radius, rises to that mu from mu = 0 and stops once ||u|| is within
    ``_RADIUS_TOL`` of the radius.  Where it stalls (mu would not grow, as
    when a term overflows), mu = ||c|| / radius, at which ||u|| <= radius
    as every lam is >= 0, ends it; so no step is longer than 1.1 radius."""
    mu = np.zeros(len(c))
    u = c / lam
    norm = np.sqrt(_dot(u, u))
    todo = np.flatnonzero(norm > (1.0 + _RADIUS_TOL) * radius)
    while todo.size:
        d, n, r = lam[todo] + mu[todo, None], norm[todo], radius[todo]
        new = mu[todo] + n * n / _dot(u[todo] * u[todo], 1.0 / d) * (n - r) / r
        mu[todo] = np.where(new > mu[todo], new, np.sqrt(_dot(c[todo], c[todo])) / r)
        u[todo] = c[todo] / (lam[todo] + mu[todo, None])
        norm[todo] = np.sqrt(_dot(u[todo], u[todo]))
        todo = todo[norm[todo] > (1.0 + _RADIUS_TOL) * radius[todo]]
    return u, mu > 0.0


# perfbench/child.py traces it by name as study.check_maximum
def check_maximum(result: MaxResult) -> CheckReport:
    """Run the four validity checks at ``result.omega_hat`` from the
    maximum's ``curvature`` and ``grad_inf_norm`` alone, which
    :func:`maximize_rows` computed there, so nothing is evaluated again.

    Positive definiteness, the eigenvalue ratio and the local variances all
    come from one symmetric eigendecomposition of the Hessian, so they
    cannot disagree: a ridge whose smallest eigenvalue rounds to a tiny
    positive number yields huge local variances, not a failed inversion.  A
    maximum whose Hessian fails a test or cannot be decomposed fails every
    check with a note that says why.
    """
    grad_inf = float(result.grad_inf_norm)
    if isinstance(result.curvature, Exception):
        return CheckReport(
            grad_ok=False, hessian_pd=False, eig_ratio_ok=False, lvar_finite=False,
            grad_inf_norm=grad_inf, eig_ratio=float("nan"),
            local_variances=None, note=f"curvature evaluation failed: {result.curvature}",
        )
    eigvals, lvar = result.curvature
    lam_min = float(eigvals[0])
    lam_max = float(eigvals[-1])
    hessian_pd = lam_min > 0.0
    eig_ratio = lam_min / lam_max if lam_max != 0.0 else float("nan")
    lvar_finite = hessian_pd and all(
        math.isfinite(v) and v < _LVAR_MAX for v in lvar.tolist()
    )
    return CheckReport(
        grad_ok=grad_inf < _GRAD_CHECK,
        hessian_pd=hessian_pd,
        eig_ratio_ok=math.isfinite(eig_ratio) and eig_ratio > _EIG_RATIO_MIN,
        lvar_finite=lvar_finite,
        grad_inf_norm=grad_inf,
        eig_ratio=eig_ratio,
        local_variances=lvar if hessian_pd else None,
    )

