"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Studies run at desk scale (K = 200 design vectors, placement capped at 150
iterations) with the correspondingly widened statistical tolerances; the
full-scale runs are available behind the ``slow`` marker.
"""

import math
import sys

import numpy as np
import pytest

from obscheck import (
    NOT_OBSERVABLE,
    LcdConfig,
    PosteriorContext,
    StudyConfig,
    lcd_distance,
    lcd_gradient,
    load_model,
    optimize_mixture,
    report_to_json,
    run_study,
)
from obscheck.closed_form import mean_and_variance_oracle, unknown_variance_oracle
from obscheck.optimize import check_maximum, maximize

from conftest import DESK_LCD

VARIANCE_ONLY = load_model("unknown_variance")
MEAN_AND_VARIANCE = load_model("mean_and_variance")

DESK_K = 200


def _report(criterion: int, ok: bool, detail: str) -> None:
    line = f"[acceptance criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


@pytest.fixture(scope="session")
def variance_study():
    cfg = StudyConfig(model=VARIANCE_ONLY, T_list=(4, 12, 20), K=DESK_K, lcd=DESK_LCD)
    return run_study(cfg)


@pytest.fixture(scope="session")
def mean_variance_study():
    cfg = StudyConfig(model=MEAN_AND_VARIANCE, T_list=(4, 12, 20), K=DESK_K, lcd=DESK_LCD)
    return run_study(cfg)


def test_criterion_1_part1_variance_model(variance_study):
    anchors = {4: 2 * 0.64 / 4, 12: 2 * 0.64 / 12, 20: 2 * 0.64 / 20}
    ok = True
    details = []
    for part1 in variance_study.part1:
        estimate = part1.run.estimates["b"]
        lvar = part1.run.local_variances["b"]
        good = (
            part1.passed
            and abs(estimate - 0.8) < 1e-6
            and abs(lvar - anchors[part1.horizon]) < 1e-3
        )
        ok &= good
        details.append(f"T={part1.horizon}: b_hat={estimate:.8f} LVar={lvar:.4f}")
    _report(1, ok, "; ".join(details))


def test_criterion_2_part1_mean_and_variance_model(mean_variance_study):
    anchors = {
        4: (0.1, 0.08),
        12: (0.4 / 12, 2 * 0.16 / 12),
        20: (0.02, 0.016),
    }
    ok = True
    details = []
    for part1 in mean_variance_study.part1:
        est = part1.run.estimates
        lvar = part1.run.local_variances
        expect_a, expect_b = anchors[part1.horizon]
        good = (
            part1.passed
            and abs(est["a"] - 0.6) < 1e-6
            and abs(est["b"] - 0.4) < 1e-6
            and abs(lvar["a"] - expect_a) < 1e-3
            and abs(lvar["b"] - expect_b) < 1e-3
        )
        ok &= good
        details.append(
            f"T={part1.horizon}: ({est['a']:.7f},{est['b']:.7f}) "
            f"LVar=({lvar['a']:.4f},{lvar['b']:.4f})"
        )
    _report(2, ok, "; ".join(details))


def test_criterion_3_part2_statistics(variance_study):
    part2 = next(p for p in variance_study.part2 if p.horizon == 4)
    mean = part2.empirical_mean["b"]
    var = part2.empirical_variance["b"]
    mean_lvar = part2.mean_local_variance["b"]
    var_anchor = 2 * 0.64 / 4  # 0.32
    lvar_anchor = (2 / 4) * (var_anchor + 0.64)  # 0.48
    # desk scale K=200: variance within 25%, mean local variance within 10%
    ok = (
        abs(mean - 0.8) < 0.01 * 0.8
        and abs(var - var_anchor) < 0.25 * var_anchor
        and abs(mean_lvar - lvar_anchor) < 0.10 * lvar_anchor
    )
    _report(
        3,
        ok,
        f"K={DESK_K}: mean={mean:.6f} (0.8 +/-1%), var={var:.4f} (0.32 +/-25%), "
        f"meanLVar={mean_lvar:.4f} (0.48 +/-10%)",
    )


def test_criterion_4_bias_reproduction(mean_variance_study):
    ok = True
    details = []
    for part2 in mean_variance_study.part2:
        horizon = part2.horizon
        mean_a = part2.empirical_mean["a"]
        mean_b = part2.empirical_mean["b"]
        var_a = part2.empirical_variance["a"]
        bias_anchor = (horizon - 1) / horizon * 0.4
        var_anchor = 0.4 / horizon
        good = (
            abs(mean_a - 0.6) < 0.01 * 0.6
            and abs(mean_b - bias_anchor) < 0.05 * bias_anchor
            and abs(var_a - var_anchor) < 0.15 * var_anchor
        )
        ok &= good
        details.append(
            f"T={horizon}: E[a]={mean_a:.5f}, E[b]={mean_b:.5f} (~{bias_anchor:.4f}), "
            f"Var[a]={var_a:.5f} (~{var_anchor:.4f})"
        )
    _report(4, ok, "; ".join(details))


def test_criterion_5_unobservability_detection():
    ok = True
    details = []
    for name in ("additive_mean_pair", "ratio_mean_scale_sqrt_ratio", "product_mean"):
        model = load_model(name)
        report = run_study(StudyConfig(model=model, T_list=(2,), K=50, lcd=DESK_LCD))
        ridge_or_plateau = True
        for part2 in report.part2:
            for record in part2.records:
                if record.checks is None:
                    ridge_or_plateau = False  # silent crash
                elif not (not record.checks.eig_ratio_ok or not record.checks.lvar_finite):
                    ridge_or_plateau = False
        for part1 in report.part1:
            check = part1.run.checks
            if not (not check.eig_ratio_ok or not check.lvar_finite):
                ridge_or_plateau = False
        good = (
            report.verdict == NOT_OBSERVABLE
            and report.n_passing_total == 0
            and ridge_or_plateau
        )
        ok &= good
        details.append(f"{name}: {report.verdict} ({report.n_passing_total} passes)")
    _report(5, ok, "; ".join(details))


def test_criterion_6_gradient_consistency(variance_study, mean_variance_study):
    grads = []
    for study in (variance_study, mean_variance_study):
        for part1 in study.part1:
            if part1.passed:
                grads.append(part1.run.grad_inf_norm)
        for part2 in study.part2:
            grads.extend(r.grad_inf_norm for r in part2.records if r.passed)
    grads = np.array(grads)
    median = float(np.median(grads))
    ok = bool(np.all(grads < 1e-5) and median <= 1e-7)
    _report(
        6,
        ok,
        f"{grads.size} passing maxima: max grad {grads.max():.2e} (<1e-5), "
        f"median {median:.2e} (<=1e-7)",
    )


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(20240501)
    worst_est = worst_lvar = 0.0
    ok = True
    for _ in range(100):
        horizon = int(rng.integers(2, 21))
        z = rng.normal(0.0, math.sqrt(0.8), size=horizon)
        oracle = unknown_variance_oracle(z)
        ctx = PosteriorContext(VARIANCE_ONLY, z)
        result = maximize(ctx, np.array([0.8]))
        lvar = check_maximum(result).local_variances
        err_est = abs(result.omega_hat[0] - oracle.estimates["b"])
        err_lvar = abs(lvar[0] - oracle.local_variances["b"]) / max(
            1.0, oracle.local_variances["b"]
        )
        worst_est = max(worst_est, err_est)
        worst_lvar = max(worst_lvar, err_lvar)
        ok &= err_est < 1e-6 and err_lvar < 1e-6
    for _ in range(100):
        horizon = int(rng.integers(3, 21))
        z = rng.normal(0.6, math.sqrt(0.4), size=horizon)
        oracle = mean_and_variance_oracle(z)
        ctx = PosteriorContext(MEAN_AND_VARIANCE, z)
        result = maximize(ctx, np.array([0.6, 0.4]))
        lvar = check_maximum(result).local_variances
        for j, name in enumerate(("a", "b")):
            err_est = abs(result.estimates[name] - oracle.estimates[name])
            err_lvar = abs(lvar[j] - oracle.local_variances[name]) / max(
                1.0, oracle.local_variances[name]
            )
            worst_est = max(worst_est, err_est)
            worst_lvar = max(worst_lvar, err_lvar)
            ok &= err_est < 1e-6 and err_lvar < 1e-6
    _report(7, ok, f"200 random vectors: worst estimate err {worst_est:.2e}, "
                   f"worst local-variance err {worst_lvar:.2e} (<1e-6)")


def test_criterion_8_sampling_properties():
    ok = True
    details = []

    pair = optimize_mixture(1, 2, LcdConfig())
    pair_err = float(np.max(np.abs(np.sort(pair.points[:, 0]) - [-1.0, 1.0])))
    ok &= pair_err < 1e-9
    details.append(f"pair recovery err {pair_err:.1e}")

    moment_ok = True
    for d, m_count in [(1, 4), (1, 7), (2, 6), (3, 9)]:
        mix = optimize_mixture(d, m_count, DESK_LCD)
        pts = mix.points
        paired = {tuple(r) for r in pts if any(r)}
        closure = all(tuple(-v for v in r) in paired for r in paired)
        cov = pts.T @ pts / m_count
        moment_ok &= (
            closure
            and float(np.max(np.abs(pts.mean(axis=0)))) < 1e-14
            and float(np.max(np.abs(cov - np.eye(d)))) < 1e-12
        )
    ok &= moment_ok
    details.append(f"symmetry/mean/cov {'ok' if moment_ok else 'FAIL'}")

    rng = np.random.default_rng(99)
    grad_ok = True
    for d, m_count in [(1, 3), (2, 5)]:
        pts = rng.standard_normal((m_count, d))
        grad = lcd_gradient(pts, LcdConfig())
        for i in range(m_count):
            for k in range(d):
                up, dn = pts.copy(), pts.copy()
                up[i, k] += 1e-5
                dn[i, k] -= 1e-5
                fd = (lcd_distance(up, LcdConfig()) - lcd_distance(dn, LcdConfig())) / 2e-5
                grad_ok &= abs(grad[i, k] - fd) <= 1e-4 * max(abs(fd), 1e-12)
    ok &= grad_ok
    details.append(f"gradient-vs-FD {'ok' if grad_ok else 'FAIL'}")

    base = lcd_distance(np.array([-1.0, 1.0]), LcdConfig())
    doubled = lcd_distance(np.array([-1.0, 1.0]), LcdConfig(quad_nodes=256))
    quad_ok = abs(base - doubled) < 1e-9
    ok &= quad_ok
    details.append(f"quadrature stability {abs(base - doubled):.1e}")

    _report(8, ok, "; ".join(details))


def test_criterion_9_run_to_run_determinism(tmp_path, monkeypatch):
    # each run starts from an empty memo and an empty cache directory, so the
    # second run places the (4, 200) design again rather than reusing it
    from obscheck import samples

    texts = []
    for run in range(2):
        monkeypatch.setattr(samples, "_matrix_cache", {})
        cfg = StudyConfig(
            model=VARIANCE_ONLY, T_list=(4,), K=DESK_K, lcd=DESK_LCD,
            cache_dir=str(tmp_path / f"cache{run}"),
        )
        texts.append(report_to_json(run_study(cfg)).encode())
    ok = texts[0] == texts[1]
    _report(9, ok, f"reports byte-identical across two runs, each placing afresh: {ok}")
