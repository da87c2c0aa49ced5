import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from obscheck.samples import (
    InvalidMixtureError,
    LcdConfig,
    design_disturbance_matrix,
    lcd_distance,
    lcd_gradient,
    optimize_mixture,
    read_sample_csv,
    representative_disturbances,
    write_sample_csv,
)

from conftest import DESK_LCD

CFG = LcdConfig()


def lcd_distance_bruteforce(points: np.ndarray, b_max: float = 10.0) -> float:
    """Independent oracle: adaptive quadrature of the defining double
    integral of the squared gap between the smoothed cumulative
    representations (one-dimensional mixtures)."""
    pts = np.asarray(points, dtype=float).ravel()
    span = float(np.max(np.abs(pts)))

    def inner(b):
        width = 9.0 * np.sqrt(1.0 + b * b) + span + 9.0 * b
        breaks = sorted(
            {0.0, *pts, *(x - 30.0 * b for x in pts), *(x + 30.0 * b for x in pts)}
        )
        breaks = [x for x in breaks if -width < x < width]

        def integrand(m):
            smoothed_mix = np.mean(np.exp(-((pts - m) ** 2) / (2.0 * b * b)))
            smoothed_normal = np.sqrt(b * b / (1.0 + b * b)) * np.exp(
                -(m * m) / (2.0 * (1.0 + b * b))
            )
            return (smoothed_mix - smoothed_normal) ** 2

        value, _ = quad(
            integrand, -width, width, points=breaks, limit=800, epsabs=0.0, epsrel=1e-11
        )
        return value

    cuts = [0.0, 0.02, 0.05, 0.1, 0.15, 0.25, 0.5, 1.0, 2.0, 4.0, 7.0, b_max]
    return sum(
        quad(inner, lo, hi, limit=200, epsabs=0.0, epsrel=1e-9)[0]
        for lo, hi in zip(cuts, cuts[1:])
    )


class TestDistance:
    def test_closed_form_matches_double_integral(self):
        points = np.array([-1.0, 1.0])
        closed = lcd_distance(points, CFG)
        brute = lcd_distance_bruteforce(points)
        assert closed == pytest.approx(brute, rel=1e-6)

    def test_closed_form_matches_double_integral_three_points(self):
        points = np.array([-1.3, 0.2, 0.9])
        closed = lcd_distance(points, CFG)
        brute = lcd_distance_bruteforce(points)
        assert closed == pytest.approx(brute, rel=1e-6)

    def test_permutation_symmetry_is_exact(self):
        assert lcd_distance(np.array([-1.0, 1.0]), CFG) == lcd_distance(
            np.array([1.0, -1.0]), CFG
        )

    def test_collapsed_pair_is_worse(self):
        good = lcd_distance(np.array([-1.0, 1.0]), CFG)
        collapsed = lcd_distance(np.array([-0.1, 0.1]), CFG)
        assert good < collapsed

    def test_multidimensional_inner_integral(self):
        # closed-form inner integrand against a 2-D plane quadrature at
        # fixed kernel widths (validates the per-dimension factors)
        rng = np.random.default_rng(7)
        pts = rng.standard_normal((3, 2))
        for b in (0.5, 2.0):
            closed = _inner_closed(pts, b)
            brute = _inner_brute_2d(pts, b)
            assert closed == pytest.approx(brute, rel=1e-8)

    def test_nonfinite_points_rejected(self):
        with pytest.raises(InvalidMixtureError):
            lcd_distance(np.array([np.nan, 1.0]), CFG)

    def test_quadrature_convergence(self):
        base = lcd_distance(np.array([-1.0, 1.0]), CFG)
        doubled = lcd_distance(np.array([-1.0, 1.0]), LcdConfig(quad_nodes=256))
        assert abs(base - doubled) < 1e-9


def _inner_closed(points: np.ndarray, b: float) -> float:
    m_count, d = points.shape
    b2 = b * b
    dist2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)
    t1 = (np.pi * b2) ** (d / 2) * np.sum(np.exp(-dist2 / (4 * b2))) / m_count**2
    v = 1 + 2 * b2
    norm2 = (points**2).sum(axis=1)
    t2 = (b2 * np.sqrt(2 * np.pi / v)) ** d * np.sum(np.exp(-norm2 / (2 * v))) / m_count
    t3 = (b2 / (1 + b2)) ** d * (np.pi * (1 + b2)) ** (d / 2)
    return t1 - 2 * t2 + t3


def _inner_brute_2d(points: np.ndarray, b: float) -> float:
    from scipy.integrate import dblquad

    def gap_sq(y, x):
        m = np.array([x, y])
        smoothed_mix = np.mean(
            np.exp(-((points - m) ** 2).sum(axis=1) / (2.0 * b * b))
        )
        smoothed_normal = (b * b / (1 + b * b)) * np.exp(
            -(m @ m) / (2.0 * (1.0 + b * b))
        )
        return (smoothed_mix - smoothed_normal) ** 2

    width = 8.0 * np.sqrt(1.0 + b * b) + 3.0
    value, _ = dblquad(gap_sq, -width, width, -width, width, epsabs=1e-13, epsrel=1e-10)
    return value


class TestGradient:
    @pytest.mark.parametrize("d,m_count", [(1, 2), (1, 3), (2, 3), (2, 5), (3, 5)])
    def test_matches_finite_differences_on_random_mixtures(self, d, m_count):
        rng = np.random.default_rng(d * 100 + m_count)
        points = rng.standard_normal((m_count, d))
        grad = lcd_gradient(points, CFG)
        h = 1e-5
        for i in range(m_count):
            for k in range(d):
                up = points.copy()
                up[i, k] += h
                dn = points.copy()
                dn[i, k] -= h
                fd = (lcd_distance(up, CFG) - lcd_distance(dn, CFG)) / (2 * h)
                assert grad[i, k] == pytest.approx(fd, rel=1e-4, abs=1e-10)

    def test_converged_pair_has_tiny_free_gradient(self):
        from obscheck.samples import _descend, _free_kernel

        free, converged = _descend(1, 2, CFG)
        assert converged
        _, grad = _free_kernel(free, 2, CFG)
        assert np.max(np.abs(grad)) < CFG.step_tol


class TestFreeKernel:
    """The placement kernel works on the free block F of [F; -F; 0?]; the
    general kernel on the assembled set is its reference."""

    @pytest.mark.parametrize(
        "d,m_count",
        [(1, 2), (1, 3), (1, 12), (1, 13), (2, 8), (2, 9), (4, 24), (4, 25), (20, 60), (20, 61),
         (4, 200)],
    )
    def test_matches_general_kernel(self, d, m_count):
        from obscheck.samples import _assemble, _distance_impl, _free_kernel

        n_free = m_count // 2
        free = np.random.default_rng(d * 1000 + m_count).standard_normal((n_free, d))
        value, grad = _free_kernel(free, m_count, CFG)
        ref_value, raw = _distance_impl(_assemble(free, m_count, d), CFG)
        ref_grad = raw[:n_free] - raw[n_free : 2 * n_free]
        # odd M: the origin's T2 term exp(0) = 1 moves the value but not the
        # gradient, so the value is compared on its own
        assert value == pytest.approx(ref_value, rel=1e-12, abs=0.0)
        assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))

    def test_one_kernel_call_per_line_search_trial(self, monkeypatch):
        from obscheck import samples as samples_module

        calls = []
        kernel = samples_module._free_kernel

        def counting(free, m_count, cfg):
            calls.append(free.tobytes())
            return kernel(free, m_count, cfg)

        def general(*args, **kwargs):
            raise AssertionError("placement must not use the general kernel")

        monkeypatch.setattr(samples_module, "_free_kernel", counting)
        monkeypatch.setattr(samples_module, "_distance_impl", general)
        free, _ = samples_module._descend(2, 9, LcdConfig(max_iters=25))
        # the start plus one call per trial; the accepted trial's value and
        # gradient are reused, so no point is evaluated twice
        assert len(calls) > 25
        assert len(set(calls)) == len(calls)
        assert free.tobytes() in calls


def _dense_reference(points: np.ndarray, cfg: LcdConfig) -> tuple[float, np.ndarray]:
    """The distance and raw gradient with expm1 over the full (M, M) matrix
    of every node at once, the arithmetic of the reference kernel before it
    shared the pair-block walk with placement."""
    from obscheck.samples import _nodes

    m_count, d = points.shape
    w, b2, c1, v, c2, d0 = _nodes(cfg.b_max, cfg.nodes_for(d), d)
    diff = points[:, None, :] - points[None, :, :]
    dist2 = np.einsum("ijk,ijk->ij", diff, diff)
    norm2 = np.einsum("ik,ik->i", points, points)
    kernel = np.expm1(dist2[None, :, :] / (-4.0 * b2)[:, None, None])  # (Q, M, M)
    e2 = np.expm1(norm2[None, :] / (-2.0 * v)[:, None])  # (Q, M)
    value = float(np.dot(w, d0 + c1 * kernel.sum(axis=(1, 2)) / (m_count * m_count)
                         - 2.0 * c2 * e2.sum(axis=1) / m_count))
    u1 = w * c1 / (m_count * m_count * b2)
    wk = np.einsum("q,qij->ij", u1, kernel) + u1.sum()
    u2 = w * c2 / (m_count * v)
    grad = (wk @ points - points * wk.sum(axis=1)[:, None]
            + 2.0 * points * (u2 @ e2 + u2.sum())[:, None])
    return value, grad


class TestReferenceKernel:
    """``lcd_distance`` and ``lcd_gradient`` walk the i < j pairs in blocks;
    a dense evaluation is their reference."""

    def test_matches_dense_evaluation_over_two_blocks(self):
        # 7,140 pairs: one full 4096-entry block and a partial one
        points = np.random.default_rng(2120).standard_normal((120, 2))
        ref_value, ref_grad = _dense_reference(points, CFG)
        assert lcd_distance(points, CFG) == pytest.approx(ref_value, rel=1e-12, abs=0.0)
        grad = lcd_gradient(points, CFG)
        assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))

    def test_gradient_memory_is_bounded(self):
        # no (M, M, d) difference tensor and no (Q, M, M) kernel array
        points = np.random.default_rng(201000).standard_normal((1000, 20))
        tracemalloc.start()
        try:
            lcd_gradient(points, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6


class TestNodeRule:
    """Without ``quad_nodes`` the width quadrature takes 128 nodes for
    d <= 3, 64 for 4 <= d <= 7 and 32 for d >= 8."""

    def test_tiers_and_override(self):
        dims = (1, 3, 4, 7, 8, 20)
        assert [CFG.nodes_for(d) for d in dims] == [128, 128, 64, 64, 32, 32]
        assert [LcdConfig(quad_nodes=40).nodes_for(d) for d in dims] == [40] * len(dims)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 6, 8, 20])
    def test_gradient_matches_fine_reference(self, d):
        from obscheck.samples import _free_kernel

        m_count = 2 * d + 8
        free = optimize_mixture(d, m_count, LcdConfig(max_iters=40, seed=d)).points
        free = free[: m_count // 2]
        _, grad = _free_kernel(free, m_count, CFG)
        _, ref = _free_kernel(free, m_count, LcdConfig(quad_nodes=1024))
        assert np.max(np.abs(grad - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_cache_key_holds_resolved_count(self):
        from obscheck import samples as samples_module

        assert samples_module._cache_key(4, 200, CFG)["quad_nodes"] == 64
        name = samples_module._cache_filename(4, 200, CFG)
        assert name == samples_module._cache_filename(4, 200, LcdConfig(quad_nodes=64))
        assert name != samples_module._cache_filename(4, 200, LcdConfig(quad_nodes=128))

    def test_revision_two_file_is_a_miss(self, tmp_path, monkeypatch):
        from obscheck import samples as samples_module

        # a set placed before the width map and the node rule came in
        cfg = LcdConfig(max_iters=40, seed=4545)
        revision = samples_module._PLACEMENT_REVISION
        monkeypatch.setattr(samples_module, "_matrix_cache", {})
        monkeypatch.setattr(samples_module, "_PLACEMENT_REVISION", 2)
        design_disturbance_matrix(2, 6, cfg, cache_dir=tmp_path)
        (old,) = tmp_path.glob("samples_*.csv")

        placed = []
        place = samples_module.optimize_mixture

        def counting(*args):
            placed.append(args)
            return place(*args)

        monkeypatch.setattr(samples_module, "_matrix_cache", {})
        monkeypatch.setattr(samples_module, "_PLACEMENT_REVISION", revision)
        monkeypatch.setattr(samples_module, "optimize_mixture", counting)
        design_disturbance_matrix(2, 6, cfg, cache_dir=tmp_path)
        assert placed == [(2, 6, cfg)]
        (new,) = set(tmp_path.glob("samples_*.csv")) - {old}
        assert read_sample_csv(old)[1]["placement"] == 2
        assert read_sample_csv(new)[1]["placement"] == 3


class TestOptimize:
    def test_pair_is_plus_minus_one(self):
        mix = optimize_mixture(1, 2, CFG)
        assert np.sort(mix.points[:, 0]) == pytest.approx([-1.0, 1.0], abs=1e-9)

    def test_single_point_is_origin(self):
        mix = optimize_mixture(1, 1, CFG)
        assert mix.points.shape == (1, 1)
        assert mix.points[0, 0] == 0.0

    def test_five_points_in_plane(self):
        mix = optimize_mixture(2, 5, CFG)
        pts = mix.points
        origin_rows = np.where(~pts.any(axis=1))[0]
        assert len(origin_rows) == 1
        others = np.delete(pts, origin_rows[0], axis=0)
        # the four remaining points form two antithetic pairs away from 0
        assert np.min(np.linalg.norm(others, axis=1)) > 0.5
        _assert_negation_closed(others)

    def test_optimized_beats_initializer(self):
        from obscheck.samples import _assemble, _initial_free_points

        for d, m_count in [(1, 4), (2, 5), (3, 6)]:
            init = _assemble(_initial_free_points(d, m_count, CFG), m_count, d)
            mix = optimize_mixture(d, m_count, CFG)
            assert lcd_distance(mix, CFG) <= lcd_distance(init, CFG)

    def test_deterministic_bit_identical(self):
        first = optimize_mixture(2, 6, CFG)
        second = optimize_mixture(2, 6, CFG)
        assert first.points.tobytes() == second.points.tobytes()

    def test_seed_changes_output(self):
        base = optimize_mixture(3, 8, DESK_LCD)
        other = optimize_mixture(3, 8, LcdConfig(max_iters=150, seed=99))
        assert base.points.tobytes() != other.points.tobytes()

    def test_whitening_impossible_when_too_few_points(self):
        # one free point cannot span two dimensions
        with pytest.raises(InvalidMixtureError, match="singular"):
            optimize_mixture(2, 2, CFG)

    @pytest.mark.parametrize("d,m_count", [(1, 2), (1, 5), (2, 4), (2, 7), (3, 8)])
    def test_symmetry_mean_covariance(self, d, m_count):
        mix = optimize_mixture(d, m_count, CFG)
        pts = mix.points
        _assert_negation_closed(pts)
        # mirror pairs cancel bit-exactly; a plain mean only shows summation
        # rounding on top of that
        assert np.max(np.abs(pts.mean(axis=0))) < 1e-14
        cov = pts.T @ pts / m_count
        assert np.max(np.abs(cov - np.eye(d))) < 1e-12
        if m_count % 2 == 1:
            assert (~pts.any(axis=1)).sum() == 1  # exactly one origin point


def _assert_negation_closed(points: np.ndarray) -> None:
    remaining = [tuple(row) for row in points]
    while remaining:
        row = remaining.pop()
        if all(v == 0.0 for v in row):
            continue  # the origin is its own mirror
        mirror = tuple(-v for v in row)
        assert mirror in remaining, f"no mirror for {row}"
        remaining.remove(mirror)


class TestRepresentative:
    def test_two_steps(self):
        assert representative_disturbances(2, CFG) == pytest.approx([-1.0, 1.0], abs=1e-9)

    def test_single_step(self):
        assert representative_disturbances(1, CFG) == pytest.approx([0.0])

    def test_four_steps_ordered_pairs(self):
        eps = representative_disturbances(4, CFG)
        beta, alpha = -eps[0], -eps[1]
        assert 0.0 < alpha < beta
        assert eps == pytest.approx([-beta, -alpha, alpha, beta])
        assert np.mean(eps**2) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(eps) > 0)

    def test_disk_cache_round_trip(self, tmp_path, monkeypatch):
        from obscheck import samples as samples_module

        cfg = LcdConfig(max_iters=40, seed=4141)
        monkeypatch.setattr(samples_module, "_matrix_cache", {})
        fresh = representative_disturbances(5, cfg, cache_dir=tmp_path)
        (path,) = (tmp_path / "representative").glob("samples_*.csv")
        assert path.name == samples_module._cache_filename(1, 5, cfg)
        assert not list(tmp_path.glob("*.csv"))  # the top level holds designs only

        def no_placement(*args):
            raise AssertionError("placed again instead of reading the cache")

        monkeypatch.setattr(samples_module, "_matrix_cache", {})
        monkeypatch.setattr(samples_module, "optimize_mixture", no_placement)
        cached = representative_disturbances(5, cfg, cache_dir=tmp_path)
        assert cached.tobytes() == fresh.tobytes()
        assert not cached.flags.writeable

    def test_damaged_cache_file_is_placed_afresh(self, tmp_path, monkeypatch):
        from obscheck import samples as samples_module

        cfg = LcdConfig(max_iters=40, seed=4141)
        monkeypatch.setattr(samples_module, "_matrix_cache", {})
        fresh = representative_disturbances(4, cfg, cache_dir=tmp_path)
        (path,) = (tmp_path / "representative").glob("samples_*.csv")
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        monkeypatch.setattr(samples_module, "_matrix_cache", {})
        with pytest.warns(UserWarning, match="placing the set afresh"):
            again = representative_disturbances(4, cfg, cache_dir=tmp_path)
        assert again.tobytes() == fresh.tobytes()
        assert path.read_text() == text

    def test_single_step_writes_no_file(self, tmp_path):
        # the origin-only set is not placed, so there is nothing to cache
        assert representative_disturbances(1, CFG, cache_dir=tmp_path) == pytest.approx([0.0])
        assert not list(tmp_path.rglob("*"))


class TestDesignMatrix:
    def test_rejects_single_vector(self):
        with pytest.raises(ValueError):
            design_disturbance_matrix(2, 1, CFG)

    def test_five_vectors_in_plane(self):
        mat = design_disturbance_matrix(2, 5, CFG)
        assert mat.shape == (5, 2)
        origin_rows = np.where(~mat.any(axis=1))[0]
        assert len(origin_rows) == 1
        _assert_negation_closed(np.delete(mat, origin_rows[0], axis=0))

    def test_four_vectors_are_two_antithetic_pairs(self):
        mat = design_disturbance_matrix(2, 4, CFG)
        _assert_negation_closed(mat)

    @pytest.mark.parametrize("horizon,count", [(2, 4), (2, 5), (3, 9)])
    def test_column_moments(self, horizon, count):
        mat = design_disturbance_matrix(horizon, count, CFG)
        assert np.max(np.abs(mat.mean(axis=0))) < 1e-14
        cov = mat.T @ mat / count
        assert np.max(np.abs(cov - np.eye(horizon))) < 1e-12

    def test_disk_cache_round_trip(self, tmp_path):
        cfg = LcdConfig(max_iters=40, seed=4242)
        fresh = design_disturbance_matrix(2, 6, cfg, cache_dir=tmp_path)
        files = list(tmp_path.glob("samples_*.csv"))
        assert len(files) == 1
        # a second call with a clean in-memory cache must reload losslessly
        from obscheck import samples as samples_module

        samples_module._matrix_cache.clear()
        cached = design_disturbance_matrix(2, 6, cfg, cache_dir=tmp_path)
        assert cached.tobytes() == fresh.tobytes()


    def test_cache_name_carries_placement_revision(self, monkeypatch):
        # files placed by an older descent must count as misses
        from obscheck import samples as samples_module

        name = samples_module._cache_filename(4, 200, CFG)
        monkeypatch.setattr(samples_module, "_PLACEMENT_REVISION", 1)
        assert samples_module._cache_filename(4, 200, CFG) != name

    def test_file_copied_under_another_settings_name_is_placed_afresh(self, tmp_path,
                                                                        monkeypatch):
        # the header carries the whole key: a set placed with another
        # iteration cap fails the check even under this setting's file name
        from obscheck import samples as samples_module

        cfg = LcdConfig(max_iters=40, seed=4444)
        other = LcdConfig(max_iters=41, seed=4444)
        design_disturbance_matrix(2, 6, other, cache_dir=tmp_path)
        (placed,) = tmp_path.glob("samples_*.csv")
        path = tmp_path / samples_module._cache_filename(2, 6, cfg)
        assert path != placed
        placed.rename(path)
        monkeypatch.setattr(samples_module, "_matrix_cache", {})
        with pytest.warns(UserWarning, match="for other settings.*placing the set afresh"):
            again = design_disturbance_matrix(2, 6, cfg, cache_dir=tmp_path)
        assert again.tobytes() == optimize_mixture(2, 6, cfg).points.tobytes()
        _, meta = read_sample_csv(path)
        assert meta["max_iters"] == 40

    @pytest.mark.parametrize("damage", ["truncate", "asymmetric", "header", "garbled", "ragged",
                                        "empty"])
    def test_damaged_cache_file_is_placed_afresh(self, tmp_path, monkeypatch, damage):
        from obscheck import samples as samples_module

        cfg = LcdConfig(max_iters=40, seed=4343)
        fresh = design_disturbance_matrix(2, 7, cfg, cache_dir=tmp_path)
        (path,) = tmp_path.glob("samples_*.csv")
        text = path.read_text()
        lines = text.splitlines()
        if damage == "truncate":
            path.write_text(text[: len(text) - 12])
        elif damage == "asymmetric":
            lines[2] = ",".join(str(2.0 * float(v)) for v in lines[2].split(","))
            path.write_text("\n".join(lines) + "\n")
        elif damage == "header":
            path.write_text("\n".join(lines[:1] + ["# 2,7"] + lines[2:]) + "\n")
        elif damage == "empty":
            path.write_text("\n".join(lines[:2]) + "\n")
        else:  # one non-numeric field, or one row with an extra value
            lines[3] = "x" + lines[3] if damage == "garbled" else lines[3] + ",0.5"
            path.write_text("\n".join(lines) + "\n")
        monkeypatch.setattr(samples_module, "_matrix_cache", {})
        with pytest.warns(UserWarning, match="placing the set afresh") as seen:
            again = design_disturbance_matrix(2, 7, cfg, cache_dir=tmp_path)
        assert not [w for w in seen if "loadtxt" in str(w.message)]  # one notice, no parser noise
        assert again.tobytes() == fresh.tobytes()
        assert path.read_text() == text
        assert not list(tmp_path.glob("*.tmp"))


class TestSampleCsv:
    def test_round_trip_is_lossless(self, tmp_path):
        mix = optimize_mixture(2, 5, CFG)
        path = tmp_path / "set.csv"
        write_sample_csv(path, mix, CFG)
        points, meta = read_sample_csv(path)
        assert points.tobytes() == mix.points.tobytes()
        assert meta == {
            "dim": 2,
            "count": 5,
            "b_max": CFG.b_max,
            "quad_nodes": CFG.nodes_for(2),
            "seed": CFG.seed,
            "max_iters": CFG.max_iters,
            "step_tol": CFG.step_tol,
            "placement": 3,
        }

    def test_header_line(self, tmp_path):
        path = tmp_path / "set.csv"
        write_sample_csv(path, optimize_mixture(1, 2, CFG), CFG)
        first, second = path.read_text().splitlines()[:2]
        assert first == "# dim,count,b_max,quad_nodes,seed,max_iters,step_tol,placement"
        assert second.startswith("# 1,2,")


@given(
    st.integers(1, 3),
    st.integers(2, 6),
    st.integers(0, 2**63 - 1),
)
@settings(max_examples=10)
def test_mixture_invariants_hold_for_any_seed(d, m_count, seed):
    if m_count // 2 < d:
        return  # covariance cannot be whitened
    cfg = LcdConfig(max_iters=30, seed=seed)
    mix = optimize_mixture(d, m_count, cfg)
    pts = mix.points
    _assert_negation_closed(pts)
    assert np.max(np.abs(pts.mean(axis=0))) < 1e-14
    cov = pts.T @ pts / m_count
    assert np.max(np.abs(cov - np.eye(d))) < 1e-12


def test_dirac_mixture_is_immutable():
    mix = optimize_mixture(1, 2, CFG)
    with pytest.raises(ValueError):
        mix.points[0, 0] = 5.0
    assert mix.weight == 0.5
