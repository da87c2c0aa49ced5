"""Deterministic point-symmetric sample sets for standard normal densities.

A sample set ("Dirac mixture") is M equally weighted points in d dimensions
placed to approximate N(0, I_d).  Placement minimizes a kernel distance
between the smoothed cumulative representations of the discrete and the
continuous distribution: with the Gaussian kernel
K(x - m, b) = exp(-||x - m||^2 / (2 b^2)), both distributions are smoothed to

    Ftilde(m, b) = (1/M) sum_i K(x_i - m, b)
    F(m, b)      = (b^2/(1+b^2))^(d/2) * exp(-||m||^2 / (2 (1+b^2)))

and the distance is the squared L2 gap integrated over kernel locations m
and widths b in (0, b_max]:

    D(X) = int_0^bmax int (Ftilde - F)^2 dm db.

The inner integral over m has the closed form T1(b) - 2 T2(b) + T3(b):

    T1 = (1/M^2) sum_{i,j} (pi b^2)^(d/2) exp(-||x_i - x_j||^2 / (4 b^2))
    T2 = (1/M)   sum_i  (b^2 sqrt(2 pi/(1+2 b^2)))^d
                        * exp(-||x_i||^2 / (2 (1+2 b^2)))
    T3 = (b^2/(1+b^2))^d * (pi (1+b^2))^(d/2)

The outer integral over b uses fixed-node Gauss-Legendre quadrature.  The
closed forms are validated against brute-force quadrature of the defining
double integral in the test suite.

The constants c1 = (pi b^2)^(d/2), c2 = (b^2 sqrt(2 pi/(1+2 b^2)))^d and
T3 depend only on the node and d; they are computed once per configuration.

Point symmetry is built into the parameterization: only n = floor(M/2)
points f_1..f_n are free, their negations complete the set, and an odd M
pins one point at the origin: X = [F; -F; 0?].  After placement the set is
whitened so the sample covariance (denominator M, mean is exactly zero)
equals the identity.

Placement evaluates the distance from F alone.  Every ordered pair of X has
one of five squared distances:

    ||f_i - f_j||^2   (f_i, f_j) and (-f_i, -f_j)      2 per (i, j)
    ||f_i + f_j||^2   (f_i, -f_j) and (-f_i, f_j)      2 per (i, j)
    4 ||f_i||^2       the i = j case of the line above
    ||f_i||^2         (0, +-f_i) and (+-f_i, 0)        4 per i, odd M only
    0                 (x, x)                           M in total

The first two are symmetric in (i, j), so T1 needs the kernel on the i < j
pairs only: about M^2/4 exponentials per node instead of M^2.  T2 sums
2 exp(-||f_i||^2 / (2 (1+2 b^2))) over i, plus exp(0) = 1 for the origin.
The gradient with respect to F (the mirror's contribution chained in)
comes out of the same node-weighted kernel sums.
"""

from __future__ import annotations

import hashlib
import threading
import warnings
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._files import write_atomic

__all__ = [
    "LcdConfig",
    "DiracMixture",
    "InvalidMixtureError",
    "lcd_distance",
    "lcd_gradient",
    "symmetric_free_gradient",
    "optimize_mixture",
    "representative_disturbances",
    "design_disturbance_matrix",
    "write_sample_csv",
    "read_sample_csv",
]


class InvalidMixtureError(Exception):
    """The point set cannot yield a valid approximation (non-finite values,
    or a singular sample covariance that cannot be whitened)."""


@dataclass(frozen=True)
class LcdConfig:
    """Discretization and placement settings for sample-set generation.

    b_max:      upper kernel-width bound of the outer integral.
    quad_nodes: Gauss-Legendre node count on (0, b_max].
    max_iters:  iteration cap for the placement descent.
    step_tol:   convergence tolerance; placement stops once the inf-norm of
                the free-coordinate gradient falls below it.
    seed:       64-bit seed for the deterministic initializer.
    """

    b_max: float = 10.0
    quad_nodes: int = 128
    max_iters: int = 600
    step_tol: float = 1e-8
    seed: int = 12345

    def __post_init__(self):
        if not self.b_max > 0.0:
            raise ValueError(f"b_max must be positive, got {self.b_max}")
        if self.quad_nodes < 2:
            raise ValueError(f"quad_nodes must be >= 2, got {self.quad_nodes}")


@dataclass(frozen=True)
class DiracMixture:
    """M equally weighted points (weight exactly 1/M each) in d dimensions."""

    dim: int
    count: int
    points: np.ndarray  # (M, d), read-only
    placement_converged: bool = True

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.shape != (self.count, self.dim):
            raise ValueError(f"points shape {pts.shape} != ({self.count}, {self.dim})")
        pts = pts.copy()
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def weight(self) -> float:
        return 1.0 / self.count


class _Nodes(NamedTuple):
    """Gauss-Legendre nodes on (0, b_max] with the per-node constants of the
    closed-form inner integral (see the module docstring)."""

    w: np.ndarray   # quadrature weights
    b2: np.ndarray  # squared kernel widths b^2
    c1: np.ndarray  # (pi b^2)^(d/2), the T1 prefactor
    v: np.ndarray   # 1 + 2 b^2, the T2 width
    c2: np.ndarray  # (b^2 sqrt(2 pi / v))^d, the T2 prefactor
    t3: np.ndarray  # T3, which does not depend on the points


@lru_cache(maxsize=64)
def _nodes(b_max: float, quad_nodes: int, d: int) -> _Nodes:
    x, w = np.polynomial.legendre.leggauss(quad_nodes)
    b = 0.5 * b_max * (x + 1.0)
    b2 = b * b
    v = 1.0 + 2.0 * b2
    nodes = _Nodes(
        w=0.5 * b_max * w,
        b2=b2,
        c1=(np.pi * b2) ** (0.5 * d),
        v=v,
        c2=(b2 * np.sqrt(2.0 * np.pi / v)) ** d,
        t3=(b2 / (1.0 + b2)) ** d * (np.pi * (1.0 + b2)) ** (0.5 * d),
    )
    for arr in nodes:
        arr.flags.writeable = False
    return nodes


def _points_of(mix) -> np.ndarray:
    if isinstance(mix, DiracMixture):
        return mix.points
    pts = np.asarray(mix, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]  # M scalar points in one dimension
    return pts


def _check_finite(points: np.ndarray) -> None:
    if not np.all(np.isfinite(points)):
        raise InvalidMixtureError("mixture contains non-finite coordinates")


def lcd_distance(mix, cfg: LcdConfig = LcdConfig()) -> float:
    """Kernel distance between the point set and N(0, I_d).

    Accepts a :class:`DiracMixture` or a plain (M, d) array; a 1-D array is
    treated as M points in one dimension.
    """
    value, _ = _distance_impl(_points_of(mix), cfg, want_grad=False)
    return value


def lcd_gradient(mix, cfg: LcdConfig = LcdConfig()) -> np.ndarray:
    """Partial derivatives of :func:`lcd_distance` with respect to every
    point coordinate, as an (M, d) matrix.

    These are raw per-point partials; the symmetry parameterization used
    during placement combines them via :func:`symmetric_free_gradient`.
    """
    _, grad = _distance_impl(_points_of(mix), cfg, want_grad=True)
    return grad


def _distance_impl(points: np.ndarray, cfg: LcdConfig, want_grad: bool):
    """Distance of an arbitrary (M, d) point set and, if asked, its raw
    per-point gradient.  Placement uses :func:`_free_kernel` instead."""
    _check_finite(points)
    m_count, d = points.shape
    if m_count < 1 or d < 1:
        raise ValueError("mixture must have at least one point and one dimension")
    nodes = _nodes(cfg.b_max, cfg.quad_nodes, d)

    diff = points[:, None, :] - points[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)  # (M, M)
    norm2 = np.einsum("ik,ik->i", points, points)  # (M,)

    # quadrature nodes are processed in fixed-size chunks: bounded memory,
    # deterministic accumulation order
    chunk = max(1, min(cfg.quad_nodes, int(4_000_000 // (m_count * m_count)) or 1))

    total = 0.0
    grad = np.zeros_like(points) if want_grad else None
    for q in _chunks(cfg.quad_nodes, chunk):
        w, b2, c1, v, c2, t3 = (arr[q] for arr in nodes)
        kernel = np.exp(dist2[None, :, :] / (-4.0 * b2)[:, None, None])  # (Q, M, M)
        t1 = c1 * kernel.sum(axis=(1, 2)) / (m_count * m_count)
        e2 = np.exp(norm2[None, :] / (-2.0 * v)[:, None])  # (Q, M)
        t2 = c2 * e2.sum(axis=1) / m_count
        total += float(np.dot(w, t1 - 2.0 * t2 + t3))

        if want_grad:
            # dT1/dx_i = -(c1 / (M^2 b^2)) sum_q kernel_iq (x_i - x_q)
            u1 = w * c1 / (m_count * m_count * b2)  # (Q,)
            wk = np.einsum("q,qij->ij", u1, kernel)  # (M, M)
            g1 = wk @ points - points * wk.sum(axis=1)[:, None]
            # dT2/dx_i = -(c2 / (M v)) e2_i x_i
            u2 = w * c2 / (m_count * v)  # (Q,)
            g2 = points * (u2 @ e2)[:, None]
            grad += g1 + 2.0 * g2

    if not np.isfinite(total):
        raise InvalidMixtureError(f"distance is not finite ({total})")
    return float(total), grad


def _chunks(total: int, size: int):
    return (slice(start, start + size) for start in range(0, total, size))


def _free_kernel(free: np.ndarray, m_count: int, cfg: LcdConfig) -> tuple[float, np.ndarray]:
    """Distance of the symmetric set [free; -free; origin?] and its gradient
    with respect to the free block, computed from the free block alone.

    Every pair of the full set falls into one of the classes listed in the
    module docstring, so T1 needs the kernel only on the i < j pairs of
    ||f_i - f_j||^2 and ||f_i + f_j||^2 plus two (or three) per-point terms:
    about M^2/4 exponentials per node instead of M^2.
    """
    _check_finite(free)
    n, d = free.shape
    origin = m_count - 2 * n  # 1 when odd M pins a point at the origin
    nodes = _nodes(cfg.b_max, cfg.quad_nodes, d)

    norm2 = np.einsum("ik,ik->i", free, free)  # (n,)
    rows, cols = np.triu_indices(n, 1)
    sums = norm2[rows] + norm2[cols]
    cross = 2.0 * (free @ free.T)[rows, cols]
    # squared distances of each pair class, and how many ordered pairs of
    # the full set share it; the n + n + origin zero-distance pairs add M
    dist2 = [np.maximum(sums - cross, 0.0), sums + cross, 4.0 * norm2]
    mult = [np.full(len(rows), 4.0), np.full(len(rows), 4.0), np.full(n, 2.0)]
    if origin:
        dist2.append(norm2)
        mult.append(np.full(n, 4.0))
    dist2 = np.concatenate(dist2)
    mult = np.concatenate(mult)

    chunk = max(1, min(cfg.quad_nodes, int(4_000_000 // max(len(dist2), 1))))
    total = 0.0
    wk = np.zeros_like(dist2)  # node-weighted kernel per pair class entry
    we2 = np.zeros(n)  # node-weighted T2 exponentials per free point
    for q in _chunks(cfg.quad_nodes, chunk):
        w, b2, c1, v, c2, t3 = (arr[q] for arr in nodes)
        kernel = np.multiply.outer(-0.25 / b2, dist2)  # (Q, L)
        np.exp(kernel, out=kernel)
        t1 = c1 * (m_count + kernel @ mult) / (m_count * m_count)
        e2 = np.exp(np.multiply.outer(-0.5 / v, norm2))  # (Q, n)
        t2 = c2 * (origin + 2.0 * e2.sum(axis=1)) / m_count
        total += float(np.dot(w, t1 - 2.0 * t2 + t3))
        wk += (w * c1 / (m_count * m_count * b2)) @ kernel
        we2 += (w * c2 / (m_count * v)) @ e2

    if not np.isfinite(total):
        raise InvalidMixtureError(f"distance is not finite ({total})")

    # d/df_k of the T1 sum: -2 [f_k (sum_j A_kj + B_kj + 2 B_kk + C_k)
    #                          + sum_j (B_kj - A_kj) f_j], j != k
    p = len(rows)
    w_minus, w_plus, w_self = wk[:p], wk[p : 2 * p], wk[2 * p : 2 * p + n]
    coupling = np.zeros((n, n))
    coupling[rows, cols] = w_plus - w_minus
    coupling += coupling.T
    pair_sum = w_minus + w_plus
    diag = np.bincount(rows, pair_sum, n) + np.bincount(cols, pair_sum, n) + 2.0 * w_self
    if origin:
        diag += wk[2 * p + n :]
    grad = 4.0 * we2[:, None] * free - 2.0 * (diag[:, None] * free + coupling @ free)
    return total, grad


# ---------------------------------------------------------------------------
# Symmetric placement
# ---------------------------------------------------------------------------


def _assemble(free: np.ndarray, m_count: int, d: int) -> np.ndarray:
    """Full point set [free; -free; origin?] from the free block."""
    blocks = [free, -free]
    if m_count % 2 == 1:
        blocks.append(np.zeros((1, d)))
    return np.concatenate(blocks, axis=0)


def symmetric_free_gradient(mix: DiracMixture, cfg: LcdConfig = LcdConfig()) -> np.ndarray:
    """Gradient under the point-symmetric parameterization, scattered back to
    point layout: free rows carry the total derivative (mirror contribution
    chained in), mirror rows its negation, and the pinned origin row is
    exactly zero.

    ``mix`` must be in placement layout [free; -free; origin?], as
    :func:`optimize_mixture` returns it.
    """
    n_free = mix.count // 2
    free = mix.points[:n_free]
    if not np.array_equal(_assemble(free, mix.count, mix.dim), mix.points):
        raise ValueError("mixture is not in point-symmetric layout [free; -free; origin?]")
    _, grad = _free_kernel(free, mix.count, cfg)
    return _assemble(grad, mix.count, mix.dim)


def _initial_free_points(d: int, m_count: int, cfg: LcdConfig) -> np.ndarray:
    n_free = m_count // 2
    rng = np.random.default_rng([cfg.seed, d, m_count])
    free = rng.standard_normal((n_free, d))
    # scale so the full symmetric set has unit average per-coordinate variance
    scatter = 2.0 * float(np.sum(free * free)) / (m_count * d)
    if scatter > 0.0:
        free = free / np.sqrt(scatter)
    return free


def _whiten(free: np.ndarray, m_count: int, d: int) -> np.ndarray:
    """Rescale free points so the full set's covariance is the identity.

    Applies x -> C^(-1/2) x with C the sample scatter (denominator M); one
    refinement pass absorbs rounding.  Requires the free points to span R^d,
    i.e. floor(M/2) >= d.
    """
    for _ in range(3):
        full = _assemble(free, m_count, d)
        cov = full.T @ full / m_count
        dev = float(np.max(np.abs(cov - np.eye(d))))
        if dev <= 1e-14:
            break
        eigvals, eigvecs = np.linalg.eigh(cov)
        if np.min(eigvals) <= 0.0:
            raise InvalidMixtureError(
                f"sample covariance is singular (needs floor(M/2) >= d; "
                f"M={m_count}, d={d})"
            )
        inv_sqrt = (eigvecs / np.sqrt(eigvals)) @ eigvecs.T
        free = free @ inv_sqrt
    return free


def optimize_mixture(d: int, m_count: int, cfg: LcdConfig = LcdConfig()) -> DiracMixture:
    """Place an M-point symmetric approximation of N(0, I_d).

    Free points start from seeded standard-normal draws scaled to unit sample
    variance, descend on :func:`lcd_distance` (steepest descent, adaptive
    Barzilai-Borwein trial step, Armijo backtracking) until the free-gradient
    inf-norm drops below ``step_tol`` or ``max_iters`` is hit, then the set
    is whitened to exact unit covariance.  Deterministic: identical inputs
    produce bit-identical output.

    M = 1 returns the origin-only set without optimization.  Non-convergence
    within ``max_iters`` flags the result and emits a warning instead of
    raising.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if m_count < 1:
        raise ValueError(f"point count must be >= 1, got {m_count}")
    if m_count == 1:
        return DiracMixture(dim=d, count=1, points=np.zeros((1, d)))

    free, converged = _descend(d, m_count, cfg)
    free = _whiten(free, m_count, d)
    if not converged:
        warnings.warn(
            f"sample placement (d={d}, M={m_count}) stopped at max_iters="
            f"{cfg.max_iters} before reaching step_tol",
            stacklevel=2,
        )
    return DiracMixture(
        dim=d,
        count=m_count,
        points=_assemble(free, m_count, d),
        placement_converged=converged,
    )


def _descend(d: int, m_count: int, cfg: LcdConfig) -> tuple[np.ndarray, bool]:
    """Gradient descent on the free block; returns the pre-whitening solution."""
    free = _initial_free_points(d, m_count, cfg)
    f, g = _free_kernel(free, m_count, cfg)

    def small_enough(grad_inf: float, value: float) -> bool:
        # first-order optimality relative to the objective's scale, which
        # grows like b_max^d; for O(1) objectives this is an absolute test
        return grad_inf < cfg.step_tol * max(1.0, abs(value))

    converged = small_enough(float(np.max(np.abs(g))), f)
    # trial steps start from the Barzilai-Borwein estimate, safeguarded
    # relative to the previously accepted step; scales of the objective vary
    # over many orders of magnitude with d, so no absolute clamps
    t_accept = 0.1 / max(float(np.max(np.abs(g))), 1e-300)
    bb = t_accept
    iters = 0
    stalled = 0
    while not converged and iters < cfg.max_iters:
        g2 = float(np.sum(g * g))
        accepted = False
        t = bb if np.isfinite(bb) and bb > 0.0 else 2.0 * t_accept
        t = min(max(t, t_accept / 64.0), t_accept * 64.0)
        for _ in range(40):
            trial = free - t * g
            # the gradient comes with every trial, so the accepted one needs
            # no second evaluation
            f_new, g_new = _free_kernel(trial, m_count, cfg)
            if f_new <= f - 1e-4 * t * g2:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        t_accept = t
        s = trial - free
        y = g_new - g
        sy = float(np.sum(s * y))
        bb = float(np.sum(s * s)) / sy if sy > 0.0 else 2.0 * t
        stalled = stalled + 1 if f - f_new <= 1e-11 * abs(f) else 0
        free, f, g = trial, f_new, g_new
        iters += 1
        converged = small_enough(float(np.max(np.abs(g))), f)
        if stalled >= 3:
            # progress is below float resolution of the objective; the
            # remaining mismatch is absorbed by whitening
            converged = True
            break

    return free, converged


_matrix_cache: dict = {}
_matrix_lock = threading.Lock()


def representative_disturbances(horizon: int, cfg: LcdConfig = LcdConfig()) -> np.ndarray:
    """The single T-point one-dimensional disturbance vector, sorted ascending.

    Memoized per (T, cfg) like :func:`design_disturbance_matrix`; the result
    is read-only.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    key = ("representative", horizon, cfg)
    with _matrix_lock:
        memoized = _matrix_cache.get(key)
    if memoized is not None:
        return memoized
    eps = np.sort(optimize_mixture(1, horizon, cfg).points[:, 0])
    eps.flags.writeable = False
    with _matrix_lock:
        _matrix_cache[key] = eps
    return eps


def design_disturbance_matrix(horizon: int, count: int, cfg: LcdConfig = LcdConfig(),
                              cache_dir: str | Path | None = None) -> np.ndarray:
    """K design disturbance vectors as rows of a (K, T) matrix.

    Rows are the points of the d = T, M = K sample set.  Generation is
    expensive, so results are memoized per (T, K, cfg) and optionally
    persisted as CSV under ``cache_dir``.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if count < 2:
        raise ValueError(
            f"need at least 2 design vectors to probe estimator variance, got {count}"
        )
    key = (horizon, count, cfg)
    cache_path = None
    if cache_dir is not None:
        cache_path = Path(cache_dir) / _cache_filename(horizon, count, cfg)
    with _matrix_lock:
        memoized = _matrix_cache.get(key)
    if memoized is not None:
        if cache_path is not None and not cache_path.is_file():
            cache_path.parent.mkdir(parents=True, exist_ok=True)
            write_sample_csv(cache_path, memoized, cfg)
        return memoized
    points = None
    if cache_path is not None and cache_path.is_file():
        points = _load_cached(cache_path, horizon, count, cfg)
    if points is None:
        points = optimize_mixture(horizon, count, cfg).points
        if cache_path is not None:
            cache_path.parent.mkdir(parents=True, exist_ok=True)
            write_sample_csv(cache_path, points, cfg)
    points = points.copy()
    points.flags.writeable = False
    with _matrix_lock:
        _matrix_cache[key] = points
    return points


# Part of every cache key.  Bump it whenever a change to placement moves the
# sets it produces, so that files placed by the old code count as misses and
# a warm cache reports what a cold one would.
_PLACEMENT_REVISION = 2

# The type of each field of a sample set's key, for reading a header back.
_KEY_FIELDS = {"dim": int, "count": int, "b_max": float, "quad_nodes": int, "seed": int,
               "max_iters": int, "step_tol": float, "placement": int}


def _cache_key(d: int, m_count: int, cfg: LcdConfig) -> dict:
    """Everything that decides which set placement produces.  The CSV header
    records it and the cache file name carries its digest, so a file copied
    under another key's name fails the header check."""
    return {"dim": d, "count": m_count, "b_max": cfg.b_max, "quad_nodes": cfg.quad_nodes,
            "seed": cfg.seed, "max_iters": cfg.max_iters, "step_tol": cfg.step_tol,
            "placement": _PLACEMENT_REVISION}


def _key_line(key: dict) -> str:
    # .17g round-trips every float, so a header read back equals the key
    return ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in key.values())


def _cache_filename(d: int, m_count: int, cfg: LcdConfig) -> str:
    digest = hashlib.sha256(_key_line(_cache_key(d, m_count, cfg)).encode()).hexdigest()[:12]
    return f"samples_d{d}_M{m_count}_{digest}.csv"


def _load_cached(path: Path, d: int, m_count: int, cfg: LcdConfig) -> np.ndarray | None:
    """The design cached at ``path``, or None after a warning when the file
    is unreadable or does not hold a whitened point-symmetric set for these
    settings (a damaged file is then placed afresh and overwritten)."""
    try:
        points, meta = read_sample_csv(path)
    except (OSError, ValueError) as exc:
        problem = f"unreadable ({exc})"
    else:
        problem = _design_problem(points, meta, d, m_count, cfg)
        if problem is None:
            return points
    warnings.warn(f"sample-set cache file {path} is {problem}; placing the set afresh",
                  stacklevel=3)
    return None


def _design_problem(points: np.ndarray, meta: dict, d: int, m_count: int,
                    cfg: LcdConfig) -> str | None:
    if meta != _cache_key(d, m_count, cfg):
        return f"for other settings ({meta})"
    if not np.array_equal(_assemble(points[: m_count // 2], m_count, d), points):
        return "not point-symmetric"
    cov = points.T @ points / m_count
    if not np.max(np.abs(cov - np.eye(d))) <= 1e-9:
        return "not of unit covariance"
    return None


# ---------------------------------------------------------------------------
# Sample-set CSV files
# ---------------------------------------------------------------------------


def write_sample_csv(path: str | Path, mix, cfg: LcdConfig) -> None:
    """Write a sample set with its cache key as a comment header, atomically.

    Values use 17 significant digits so the round trip through
    :func:`read_sample_csv` is lossless.
    """
    points = _points_of(mix)
    key = _cache_key(points.shape[1], points.shape[0], cfg)
    lines = ["# " + ",".join(key), "# " + _key_line(key)]
    for row in points:
        lines.append(",".join(f"{v:.17g}" for v in row))
    write_atomic(path, "\n".join(lines) + "\n")


def read_sample_csv(path: str | Path) -> tuple[np.ndarray, dict]:
    """Read a sample set written by :func:`write_sample_csv`.

    Returns the (M, d) point array and the header metadata, a dict of the
    header's fields (``dim`` and ``count`` always among them).
    """
    lines = Path(path).read_text().splitlines()
    header = [ln[1:].strip() for ln in lines if ln.startswith("#")]
    if len(header) < 2:
        raise ValueError(f"{path}: missing sample-set header")
    names = header[0].split(",")
    fields = header[1].split(",")
    if (len(fields) != len(names) or not {"dim", "count"} <= set(names)
            or not set(names) <= set(_KEY_FIELDS)):
        raise ValueError(f"{path}: malformed sample-set header")
    meta = {name: _KEY_FIELDS[name](v) for name, v in zip(names, fields)}
    rows = [ln for ln in lines if ln and not ln.startswith("#")]
    points = np.array([[float(v) for v in ln.split(",")] for ln in rows])
    if points.shape != (meta["count"], meta["dim"]):
        raise ValueError(f"{path}: point block does not match header counts")
    return points, meta
