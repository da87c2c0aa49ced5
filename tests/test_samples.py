import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from obscheck.samples import (
    DiracMixture,
    InvalidMixtureError,
    LcdConfig,
    design_disturbance_matrix,
    lcd_distance,
    lcd_gradient,
    optimize_mixture,
    read_sample_csv,
    representative_disturbances,
    symmetric_free_gradient,
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
        from obscheck.samples import _assemble, _descend

        free, converged = _descend(1, 2, CFG)
        assert converged
        grad = symmetric_free_gradient(
            DiracMixture(dim=1, count=2, points=_assemble(free, 2, 1)), CFG
        )
        assert np.max(np.abs(grad[0])) < CFG.step_tol

    def test_origin_row_gradient_is_exactly_zero(self):
        mix = optimize_mixture(1, 3, CFG)
        free = symmetric_free_gradient(mix, CFG)
        assert free[2, 0] == 0.0  # pinned origin point carries no free coordinate


class TestFreeKernel:
    """The placement kernel works on the free block F of [F; -F; 0?]; the
    general kernel on the assembled set is its reference."""

    @pytest.mark.parametrize(
        "d,m_count",
        [(1, 2), (1, 3), (1, 12), (1, 13), (2, 8), (2, 9), (4, 24), (4, 25), (20, 60), (20, 61)],
    )
    def test_matches_general_kernel(self, d, m_count):
        from obscheck.samples import _assemble, _distance_impl, _free_kernel

        n_free = m_count // 2
        free = np.random.default_rng(d * 1000 + m_count).standard_normal((n_free, d))
        value, grad = _free_kernel(free, m_count, CFG)
        ref_value, raw = _distance_impl(_assemble(free, m_count, d), CFG, want_grad=True)
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

    def test_symmetric_free_gradient_needs_symmetric_layout(self):
        points = np.array([[1.0], [-0.5]])
        with pytest.raises(ValueError, match="point-symmetric"):
            symmetric_free_gradient(DiracMixture(dim=1, count=2, points=points), CFG)


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

    @pytest.mark.parametrize("damage", ["truncate", "asymmetric", "header"])
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
        else:
            path.write_text("\n".join(lines[:1] + ["# 2,7"] + lines[2:]) + "\n")
        monkeypatch.setattr(samples_module, "_matrix_cache", {})
        with pytest.warns(UserWarning, match="placing the set afresh"):
            again = design_disturbance_matrix(2, 7, cfg, cache_dir=tmp_path)
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
            "quad_nodes": CFG.quad_nodes,
            "seed": CFG.seed,
            "max_iters": CFG.max_iters,
            "step_tol": CFG.step_tol,
            "placement": 2,
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
