"""Deterministic point-symmetric sample sets for standard normal densities.

A sample set ("Dirac mixture") is M equally weighted points in d dimensions
placed to approximate N(0, I_d).  Placement minimizes a kernel distance
between the smoothed cumulative representations of the discrete and the
continuous distribution: with the Gaussian kernel
K(x - m, b) = exp(-||x - m||^2 / (2 b^2)), both distributions are smoothed to

    Ftilde(m, b) = (1/M) sum_i K(x_i - m, b)
    F(m, b)      = (b^2/(1+b^2))^(d/2) * exp(-||m||^2 / (2 (1+b^2)))

and the distance is the squared L2 gap integrated over kernel locations m
and widths b in (0, b_max], with the fixed bound b_max = 10:

    D(X) = int_0^bmax int (Ftilde - F)^2 dm db.

The inner integral over m has the closed form T1(b) - 2 T2(b) + T3(b):

    T1 = (1/M^2) sum_{i,j} (pi b^2)^(d/2) exp(-||x_i - x_j||^2 / (4 b^2))
    T2 = (1/M)   sum_i  (b^2 sqrt(2 pi/(1+2 b^2)))^d
                        * exp(-||x_i||^2 / (2 (1+2 b^2)))
    T3 = (b^2/(1+b^2))^d * (pi (1+b^2))^(d/2)

The closed forms are validated against brute-force quadrature of the
defining double integral in the test suite.

The outer integral over b is Gauss-Legendre quadrature in t on (0, 1] with
b = b_max t^2, so db = 2 b_max t dt and node j carries the weight
b_max t_j w_j (w_j the Legendre weight on [-1, 1]).  The map crowds nodes
towards small widths, where the kernel of a close pair changes fastest.
The node count depends on d (:func:`_node_count`).

The constants c1 = (pi b^2)^(d/2), c2 = (b^2 sqrt(2 pi/(1+2 b^2)))^d and
T3 depend only on the node and d; they are computed once per dimension.
They are finite for d <= 246; a larger d raises :class:`InvalidMixtureError`.
At wide kernels every exponential is close to 1 and T1, 2 T2 and T3 nearly
cancel, so the kernels sum deviations from 1 instead.  With the M^2 ordered
pairs of T1 and the M points of T2, per node

    T1 - 2 T2 + T3 = (c1 - 2 c2 + T3)
                     + (c1/M^2) sum_pairs (e - 1) - (2 c2/M) sum_i (e2_i - 1)

where e and e2 are the T1 and T2 exponentials, evaluated as expm1.  The
gradient weights sum u_q (e - 1) over nodes q and add sum_q u_q back.

Both kernels walk pair entries in fixed blocks with every node
(:func:`_kernel_sums`).  The reference kernel behind :func:`lcd_distance`
and :func:`lcd_gradient` takes the i < j pairs of an arbitrary set, with
squared distances from exact differences; placement takes the pair classes
of its symmetric layout below.

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

import warnings
import zlib
from functools import lru_cache
from pathlib import Path

import numpy as np

from ._files import write_atomic
from ._value import Value

__all__ = [
    "LcdConfig",
    "DiracMixture",
    "InvalidMixtureError",
    "lcd_distance",
    "lcd_gradient",
    "optimize_mixture",
    "representative_disturbances",
    "design_disturbance_matrix",
    "write_sample_csv",
    "read_sample_csv",
]


class InvalidMixtureError(Exception):
    """The point set cannot yield a valid approximation (non-finite values,
    or a singular sample covariance that cannot be whitened)."""


class LcdConfig(Value):
    """Placement settings for sample-set generation; the kernel-width bound
    ``_B_MAX``, the node rule and the stop are fixed.

    max_iters:  iteration cap for the placement descent.
    seed:       seed for the deterministic initializer, any non-negative integer.
    """

    max_iters = 600
    seed = 12345
    _fields = ("max_iters", "seed")

    def __init__(self, max_iters: int = max_iters, seed: int = seed):
        self.__dict__.update(max_iters=max_iters, seed=seed)
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


# upper bound of the kernel widths b of the outer integral
_B_MAX = 10.0

# placement stops once the inf-norm of the free-coordinate gradient falls
# below this, relative to the distance where that exceeds 1
_STEP_TOL = 1e-8


def _node_count(d: int) -> int:
    """The width-quadrature node count in d dimensions: 128 for d <= 3, 64
    for 4 <= d <= 7 and 32 for d >= 8.  On placed sets each tier keeps the
    placement gradient within 1e-9 relative of a 1024-node reference."""
    return 128 if d <= 3 else 64 if d <= 7 else 32


class DiracMixture:
    """M equally weighted points (weight exactly 1/M each) in d dimensions.
    It holds an array, so it equals and hashes as itself only."""

    def __init__(self, dim: int, count: int, points: np.ndarray,
                 placement_converged: bool = True):
        pts = np.asarray(points, dtype=float)
        if pts.shape != (count, dim):
            raise ValueError(f"points shape {pts.shape} != ({count}, {dim})")
        pts = pts.copy()
        pts.flags.writeable = False
        self.dim = dim
        self.count = count
        self.points = pts  # (M, d), read-only
        self.placement_converged = placement_converged

    @property
    def weight(self) -> float:
        return 1.0 / self.count


@lru_cache(maxsize=64)
def _nodes(quad_nodes: int, d: int) -> tuple[np.ndarray, ...]:
    """Width-quadrature nodes on (0, _B_MAX] with the per-node constants of
    the closed-form inner integral (see the module docstring), read-only:
    w, the quadrature weights; b2, the squared kernel widths b^2; c1 =
    (pi b^2)^(d/2), the T1 prefactor; v = 1 + 2 b^2, the T2 width; c2 =
    (b^2 sqrt(2 pi / v))^d, the T2 prefactor; and d0 = c1 - 2 c2 + T3, the
    inner integral with every point at 0.  A d so large that a constant
    is not finite (d >= 247) raises :class:`InvalidMixtureError`."""
    x, w = np.polynomial.legendre.leggauss(quad_nodes)
    with np.errstate(all="ignore"):  # checked below
        t = 0.5 * (x + 1.0)
        b = _B_MAX * t * t
        b2 = b * b
        v = 1.0 + 2.0 * b2
        c1 = (np.pi * b2) ** (0.5 * d)
        c2 = (b2 * np.sqrt(2.0 * np.pi / v)) ** d
        t3 = (b2 / (1.0 + b2)) ** d * (np.pi * (1.0 + b2)) ** (0.5 * d)
        nodes = (_B_MAX * t * w, b2, c1, v, c2, c1 - 2.0 * c2 + t3)
    if not all(np.isfinite(arr).all() for arr in nodes):
        raise InvalidMixtureError(f"d = {d} is out of range: the width quadrature's "
                                  f"constants overflow")
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
    treated as M points in one dimension.  ``cfg`` is accepted and unused:
    the distance has no setting.
    """
    points = _points_of(mix)
    d = points.shape[1]
    value, _ = _distance_impl(points, _nodes(_node_count(d), d))
    return value


def lcd_gradient(mix, cfg: LcdConfig = LcdConfig()) -> np.ndarray:
    """Partial derivatives of :func:`lcd_distance` with respect to every
    point coordinate, as an (M, d) matrix.

    These are raw per-point partials, computed with the distance in one walk
    over the i < j pairs; placement differentiates the free block of its
    point-symmetric layout with :func:`_free_kernel` instead.  ``cfg`` is
    accepted and unused, as in :func:`lcd_distance`.
    """
    points = _points_of(mix)
    d = points.shape[1]
    _, grad = _distance_impl(points, _nodes(_node_count(d), d))
    return grad


def _distance_impl(points: np.ndarray, nodes: tuple) -> tuple[float, np.ndarray]:
    """Distance of an arbitrary (M, d) point set and its raw per-point
    gradient, on the width quadrature ``nodes`` of :func:`_nodes`.
    Placement uses :func:`_free_kernel` instead."""
    _check_finite(points)
    m_count, d = points.shape
    if m_count < 1 or d < 1:
        raise ValueError("mixture must have at least one point and one dimension")

    # the i < j pairs from exact differences, one row at a time; each stands
    # for two ordered pairs, and the M pairs (x, x) have deviation 0
    dist2 = np.concatenate([np.einsum("jk,jk->j", diff, diff)
                            for diff in (points[i + 1 :] - points[i] for i in range(m_count))])
    norm2 = np.einsum("ik,ik->i", points, points)
    total, wk, we2 = _kernel_sums(dist2, np.full(len(dist2), 2.0), norm2, 1.0, m_count, nodes)

    # dD/dx_i = sum_j W_ij (x_j - x_i) + 2 we2_i x_i, W the symmetric coupling
    coupling = np.zeros((m_count, m_count))
    coupling[np.triu_indices(m_count, 1)] = wk
    coupling += coupling.T
    return total, coupling @ points + (2.0 * we2 - coupling.sum(axis=1))[:, None] * points


# pair entries per block of the kernel walk; a (Q, 4096) block of floats is
# 4 MB at 128 nodes
_PAIR_BLOCK = 4096


def _kernel_sums(dist2: np.ndarray, mult: np.ndarray, norm2: np.ndarray, t2_mult: float,
                 m_count: int, nodes: tuple) -> tuple[float, np.ndarray, np.ndarray]:
    """D of an M-point set from its T1 pair entries (squared distances
    ``dist2``, each ``mult`` ordered pairs) and T2 points (squared norms
    ``norm2``, each ``t2_mult`` points); left-out pairs have deviation 0.
    Also returns the node-weighted kernel per entry and the node-weighted T2
    exponential per point.  Entries are walked in fixed blocks with every
    node, and block sums are added in block order, so D is deterministic."""
    w, b2, c1, v, c2, d0 = nodes
    scale1 = -0.25 / b2
    u1 = w * c1 / (m_count * m_count * b2)
    t1 = np.zeros(len(w))  # per node: sum over entries of mult * (kernel - 1)
    wk = np.empty_like(dist2)
    # one buffer for every block, so no block pays for fresh pages
    buf = np.empty((len(w), min(len(dist2), _PAIR_BLOCK)))
    for start in range(0, len(dist2), _PAIR_BLOCK):
        blk = slice(start, start + _PAIR_BLOCK)
        seg = dist2[blk]
        kernel = buf[:, : len(seg)]
        np.multiply.outer(scale1, seg, out=kernel)
        np.expm1(kernel, out=kernel)
        t1 += kernel @ mult[blk]
        wk[blk] = u1 @ kernel
    wk += u1.sum()
    e2 = np.expm1(np.multiply.outer(-0.5 / v, norm2))  # (Q, points)
    total = float(np.dot(w, d0 + c1 * t1 / (m_count * m_count)
                         - 2.0 * t2_mult * c2 * e2.sum(axis=1) / m_count))
    if not np.isfinite(total):
        raise InvalidMixtureError(f"distance is not finite ({total})")
    u2 = w * c2 / (m_count * v)
    return total, wk, u2 @ e2 + u2.sum()


@lru_cache(maxsize=16)
def _pair_layout(n: int, origin: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The i < j pairs of an n-point free block and the multiplicity of each
    pair-class entry of :func:`_free_kernel`, read-only."""
    rows, cols = np.triu_indices(n, 1)
    mult = [np.full(2 * len(rows), 4.0), np.full(n, 2.0), np.full(origin * n, 4.0)]
    layout = (rows, cols, np.concatenate(mult))
    for arr in layout:
        arr.flags.writeable = False
    return layout


def _free_kernel(free: np.ndarray, m_count: int, nodes: tuple) -> tuple[float, np.ndarray]:
    """Distance of the symmetric set [free; -free; origin?] and its gradient
    with respect to the free block, computed from the free block alone, on
    the width quadrature ``nodes`` of :func:`_nodes`.

    Every pair of the full set falls into one of the classes listed in the
    module docstring, so T1 needs the kernel only on the i < j pairs of
    ||f_i - f_j||^2 and ||f_i + f_j||^2 plus two (or three) per-point terms:
    about M^2/4 exponentials per node instead of M^2.
    """
    _check_finite(free)
    n, d = free.shape
    origin = m_count - 2 * n  # 1 when odd M pins a point at the origin
    rows, cols, mult = _pair_layout(n, origin)

    norm2 = np.einsum("ik,ik->i", free, free)  # (n,)
    sums = norm2[rows] + norm2[cols]
    cross = 2.0 * (free @ free.T)[rows, cols]
    # squared distances of each pair class, each shared by mult ordered pairs
    # of the full set; the M zero-distance pairs and the origin's T2 term
    # have deviation 0, and each free point stands for two T2 points
    dist2 = [np.maximum(sums - cross, 0.0), sums + cross, 4.0 * norm2]
    if origin:
        dist2.append(norm2)
    total, wk, we2 = _kernel_sums(np.concatenate(dist2), mult, norm2, 2.0, m_count, nodes)

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
    inf-norm drops below ``_STEP_TOL`` or ``max_iters`` is hit, then the set
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
            f"{cfg.max_iters} before its gradient's inf-norm fell below the fixed "
            f"tolerance {_STEP_TOL} * max(1, distance)",
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
    nodes = _nodes(_node_count(d), d)
    f, g = _free_kernel(free, m_count, nodes)

    def small_enough(grad_inf: float, value: float) -> bool:
        # first-order optimality relative to the objective's scale, which
        # grows like b_max^d; for O(1) objectives this is an absolute test
        return grad_inf < _STEP_TOL * max(1.0, abs(value))

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
            f_new, g_new = _free_kernel(trial, m_count, nodes)
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


def representative_disturbances(horizon: int, cfg: LcdConfig = LcdConfig(),
                                cache_dir: str | Path | None = None) -> np.ndarray:
    """The single T-point one-dimensional disturbance vector, sorted ascending.

    The d = 1, M = T set is memoized and cached like
    :func:`design_disturbance_matrix`'s sets, in the ``representative``
    subdirectory of ``cache_dir`` so that the top level holds only the
    (T, K) designs; the result is read-only.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if cache_dir is not None:
        cache_dir = Path(cache_dir) / "representative"
    eps = np.sort(_sample_set(1, horizon, cfg, cache_dir)[:, 0])
    eps.flags.writeable = False
    return eps


def design_disturbance_matrix(horizon: int, count: int, cfg: LcdConfig = LcdConfig(),
                              cache_dir: str | Path | None = None) -> np.ndarray:
    """K design disturbance vectors as rows of a (K, T) matrix.

    Rows are the points of the d = T, M = K sample set.  Generation is
    expensive, so results are memoized per sample-set key and optionally
    persisted as CSV under ``cache_dir``.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if count < 2:
        raise ValueError(
            f"need at least 2 design vectors to probe estimator variance, got {count}"
        )
    return _sample_set(horizon, count, cfg, cache_dir)


def _sample_set(d: int, m_count: int, cfg: LcdConfig, cache_dir) -> np.ndarray:
    """The points of the (d, M) set, read-only: from the in-process memo, else
    from its CSV under ``cache_dir``, else placed afresh.  The memo shares the
    file's key, and the file is written wherever it is missing or damaged;
    a file that cannot be written is a warning, and the set placed is used.
    The origin-only set (M = 1) needs no placement and is never written."""
    key = _key_line(_cache_key(d, m_count, cfg))
    path = None
    if cache_dir is not None and m_count > 1:
        path = Path(cache_dir) / _cache_filename(d, m_count, cfg)
    on_disk = path is not None and path.is_file()
    points = _matrix_cache.get(key)
    if points is None and on_disk:
        points = _load_cached(path, d, m_count, cfg)
        on_disk = points is not None
    if points is None:
        points = optimize_mixture(d, m_count, cfg).points
    if path is not None and not on_disk:
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            write_sample_csv(path, points, cfg)
        except OSError as exc:
            warnings.warn(f"sample-set cache file {path} cannot be written "
                          f"({exc.strerror or exc}); using the set placed", stacklevel=3)
    points.flags.writeable = False
    _matrix_cache[key] = points
    return points


# Part of every cache key.  Bump it whenever a change to placement moves the
# sets it produces, so that files placed by the old code count as misses and
# a warm cache reports what a cold one would.
_PLACEMENT_REVISION = 3

# The type of each field of a sample set's key, for reading a header back.
_KEY_FIELDS = {"dim": int, "count": int, "b_max": float, "quad_nodes": int, "seed": int,
               "max_iters": int, "step_tol": float, "placement": int}


def _cache_key(d: int, m_count: int, cfg: LcdConfig) -> dict:
    """Everything that decides which set placement produces.  The CSV header
    records it and the cache file name carries its CRC-32, so a file copied
    under another key's name fails the header check.  The width bound, the
    node count and the step tolerance are fixed, and stay in the key so that
    the files of earlier releases, which recorded them, keep their names and
    headers."""
    return {"dim": d, "count": m_count, "b_max": _B_MAX, "quad_nodes": _node_count(d),
            "seed": cfg.seed, "max_iters": cfg.max_iters, "step_tol": _STEP_TOL,
            "placement": _PLACEMENT_REVISION}


def _key_line(key: dict) -> str:
    # .17g round-trips every float, so a header read back equals the key
    return ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in key.values())


def _cache_filename(d: int, m_count: int, cfg: LcdConfig) -> str:
    # the header, not the name, decides whether a file is used: a checksum
    # that loads no cryptographic library is enough to keep keys apart
    crc = zlib.crc32(_key_line(_cache_key(d, m_count, cfg)).encode())
    return f"samples_d{d}_M{m_count}_{crc:08x}.csv"


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
                  stacklevel=4)
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
    points = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2) if rows else np.empty((0, 0))
    if points.shape != (meta["count"], meta["dim"]):
        raise ValueError(f"{path}: point block does not match header counts")
    return points, meta
