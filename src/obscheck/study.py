"""Observability studies: representative vector first, then K design vectors.

Part I builds one representative design observation vector from the T-point
one-dimensional sample set, maximizes the log-posterior from the true
values, and validates the maximum.  Part II repeats this for K design
observation vectors built from the rows of the (T, K) sample matrix and
aggregates estimator statistics over the runs that pass all checks.  A study
is one batch: every vector it fits, Part I's and Part II's (and the random
baseline's) at every horizon, goes into one posterior context, all fits run
in one lock-step pass and each maximum is checked from the curvature that
its fit holds; one record builder serves every part.  :func:`run_part1` and
:func:`run_part2` run the same block fitter on their one block.  A model is judged observable
when at least one run anywhere passes; zero passing runs across both parts
means not observable.
"""

from __future__ import annotations

import json

import numpy as np

from ._value import Value
from .models import ModelSpec
# check_maximum and maximize are looked up here by perfbench/child.py, which
# traces them by name
from .optimize import (  # noqa: F401
    CheckReport, MaxResult, check_maximum, maximize, maximize_rows,
)
from .posterior import InfeasiblePointError, PosteriorContext
from .samples import LcdConfig, design_disturbance_matrix, representative_disturbances

__all__ = [
    "StudyConfig",
    "RunRecord",
    "PartIResult",
    "PartIIResult",
    "StudyReport",
    "OBSERVABLE",
    "NOT_OBSERVABLE",
    "make_design_observations",
    "run_study",
    "report_to_json",
    "report_from_json",
    "plot_csv",
    "render_report",
]

OBSERVABLE = "OBSERVABLE"
NOT_OBSERVABLE = "NOT_OBSERVABLE"


class StudyConfig(Value):
    T_list = (4, 12, 20)
    K = 2000
    lcd = LcdConfig()
    cache_dir = None
    random_baseline = False
    _fields = ("model", "T_list", "K", "lcd", "cache_dir", "random_baseline")

    def __init__(self, model: ModelSpec, T_list: tuple[int, ...] = T_list, K: int = K,
                 lcd: LcdConfig = lcd, cache_dir: str | None = cache_dir,
                 random_baseline: bool = random_baseline):
        self.__dict__.update(model=model, T_list=T_list, K=K, lcd=lcd, cache_dir=cache_dir,
                             random_baseline=random_baseline)
        horizons = list(T_list)
        if not horizons:
            raise ValueError("at least one horizon T is needed")
        if any(t < 1 for t in horizons):
            raise ValueError(f"every horizon T must be >= 1, got {horizons}")
        for t in horizons:
            if horizons.count(t) > 1:
                raise ValueError(f"horizon T = {t} is listed twice: {horizons}")
        # fewer point-symmetric design vectors cannot have identity sample
        # covariance in T dimensions
        largest = max(horizons)
        if K < 2 * largest:
            raise ValueError(f"K = {K} is too small for T = {largest}: "
                             f"a study needs K >= 2T = {2 * largest}")


class RunRecord:
    """One maximization and its checks, equal to and hashed as itself only.
    After an infeasible start every fit field is None (``iterations`` 0) and
    ``reason`` says why."""

    def __init__(self, k: int, estimates: dict[str, float] | None, passed: bool,
                 reason: str | None, converged: bool, iterations: int,
                 grad_inf_norm: float | None, checks: CheckReport | None,
                 local_variances: dict[str, float] | None):
        self.k = k
        self.estimates = estimates
        self.passed = passed
        self.reason = reason
        self.converged = converged
        self.iterations = iterations
        self.grad_inf_norm = grad_inf_norm
        self.checks = checks
        self.local_variances = local_variances


class PartIResult:
    """The Part I fit of one horizon.  It holds an array, so it equals and
    hashes as itself only."""

    def __init__(self, horizon: int, z_rep: np.ndarray, run: RunRecord):
        self.horizon = horizon
        self.z_rep = z_rep
        self.run = run

    @property
    def passed(self) -> bool:
        # the four checks decide validity; the optimizer's tighter internal
        # gradient target stays a diagnostic
        return self.run.passed


class PartIIResult:
    """The Part II fits of one horizon; it equals and hashes as itself only."""

    def __init__(self, horizon: int, records: tuple[RunRecord, ...], n_passed: int,
                 n_failed: int, empirical_mean: dict[str, float] | None,
                 empirical_variance: dict[str, float] | None,
                 mean_local_variance: dict[str, float] | None,
                 median_grad_inf_norm: float | None):
        self.horizon = horizon
        self.records = records
        self.n_passed = n_passed
        self.n_failed = n_failed
        self.empirical_mean = empirical_mean
        self.empirical_variance = empirical_variance
        self.mean_local_variance = mean_local_variance
        self.median_grad_inf_norm = median_grad_inf_norm


class StudyReport:
    """A study and its verdict; it equals and hashes as itself only."""

    def __init__(self, model: ModelSpec, T_list: tuple[int, ...], K: int, seed: int,
                 part1: tuple[PartIResult, ...], part2: tuple[PartIIResult, ...],
                 consistency: dict[str, dict[str, bool]],
                 baseline: tuple[PartIIResult, ...] | None = None):
        self.model = model
        self.T_list = T_list
        self.K = K
        self.seed = seed
        self.part1 = part1
        self.part2 = part2
        self.consistency = consistency
        self.baseline = baseline

    @property
    def n_passing_total(self) -> int:
        return sum(1 for p in self.part1 if p.passed) + sum(p.n_passed for p in self.part2)

    @property
    def verdict(self) -> str:
        return OBSERVABLE if self.n_passing_total > 0 else NOT_OBSERVABLE


def make_design_observations(model: ModelSpec, disturbances: np.ndarray) -> np.ndarray:
    """Push disturbance values through the model at the true parameters:
    z = m(omega*) + s(omega*) * eps, elementwise."""
    # the load check proved m and s defined at the true point, and s positive
    (m, *_), (s, *_), _ = model.mean_scale_prior_grad(model.true_vector().reshape(1, -1))
    with np.errstate(over="ignore"):  # an overflowing vector fails its fit, not the run
        return m[0] + s[0] * np.asarray(disturbances, dtype=float)


# unused in the package; perfbench/child.py traces it by name
def run_part1(model: ModelSpec, horizon: int, cfg: StudyConfig) -> PartIResult:
    """Maximize against the representative design observation vector."""
    z_rep = _representative(model, horizon, cfg)
    ((run,),) = _fit_blocks(model, [z_rep])
    return PartIResult(horizon=horizon, z_rep=z_rep, run=run)


# unused in the package; perfbench/child.py traces it by name
def run_part2(model: ModelSpec, horizon: int, count: int, cfg: StudyConfig) -> PartIIResult:
    """Maximize against K design observation vectors and aggregate statistics.

    Individual failures (non-convergence, failed checks, estimator undefined
    for a realization) are tallied, never fatal.  Records and aggregation
    follow k order.
    """
    (records,) = _fit_blocks(model, [_design(model, horizon, count, cfg)])
    return _aggregate(model, horizon, records)


def run_study(cfg: StudyConfig) -> StudyReport:
    """Run Part I and Part II for every horizon in one batch and assemble the
    verdict."""
    model = cfg.model
    # per horizon: Part I's vector, the K design vectors, the baseline's
    groups = [
        [_representative(model, horizon, cfg), _design(model, horizon, cfg.K, cfg)]
        + ([_baseline(model, horizon, cfg)] if cfg.random_baseline else [])
        for horizon in cfg.T_list
    ]
    records = iter(_fit_blocks(model, [block for group in groups for block in group]))
    part1, part2, baseline = [], [], []
    for horizon, (z_rep, *_) in zip(cfg.T_list, groups):
        (run,) = next(records)
        part1.append(PartIResult(horizon=horizon, z_rep=z_rep, run=run))
        part2.append(_aggregate(model, horizon, next(records)))
        if cfg.random_baseline:
            baseline.append(_aggregate(model, horizon, next(records)))
    return StudyReport(
        model=model,
        T_list=tuple(cfg.T_list),
        K=cfg.K,
        seed=cfg.lcd.seed,
        part1=tuple(part1),
        part2=tuple(part2),
        consistency=_consistency_trend(model, part2),
        baseline=tuple(baseline) if cfg.random_baseline else None,
    )


def _representative(model: ModelSpec, horizon: int, cfg: StudyConfig) -> np.ndarray:
    eps = representative_disturbances(horizon, cfg.lcd, cache_dir=cfg.cache_dir)
    return make_design_observations(model, eps)


def _design(model: ModelSpec, horizon: int, count: int, cfg: StudyConfig) -> np.ndarray:
    eps = design_disturbance_matrix(horizon, count, cfg.lcd, cache_dir=cfg.cache_dir)
    return make_design_observations(model, eps)


def _baseline(model: ModelSpec, horizon: int, cfg: StudyConfig) -> np.ndarray:
    # optional comparison against plain random observation vectors
    rng = np.random.default_rng([cfg.lcd.seed, 0xBA5E, horizon, cfg.K])
    return make_design_observations(model, rng.standard_normal((cfg.K, horizon)))


def _fit_blocks(model: ModelSpec, blocks: list[np.ndarray]) -> list[list[RunRecord]]:
    """Fit every row of every block of observation vectors (a vector is one
    row) in one lock-step run and check every maximum from its fit's
    curvature; the records of each block, in row order.  A row whose start
    is infeasible fails with the error :func:`maximize_rows` returns for
    it."""
    ctx = PosteriorContext(model, blocks)
    fits = maximize_rows(ctx, model.true_vector())
    checks = {i: check_maximum(fit) for i, fit in enumerate(fits) if isinstance(fit, MaxResult)}
    records, start = [], 0
    for block in blocks:
        count = 1 if np.ndim(block) == 1 else len(block)
        records.append([_record(k, fits[start + k], checks.get(start + k), model.param_names)
                        for k in range(count)])
        start += count
    return records


def _record(k: int, fit: MaxResult | InfeasiblePointError, check: CheckReport | None,
            names: tuple[str, ...]) -> RunRecord:
    """The record of fit ``k`` of a block: a maximum that passes or fails its
    four checks ``check``, or the error of an infeasible start, which ends as
    a failed record with the posterior's reason, never an exception."""
    if isinstance(fit, InfeasiblePointError):
        return RunRecord(
            k=k, estimates=None, passed=False, reason=f"infeasible start: {fit}",
            converged=False, iterations=0, grad_inf_norm=None, checks=None,
            local_variances=None,
        )
    reason = None
    if check.failed:
        reason = "checks failed: " + ",".join(check.failed)
        if not fit.converged:
            reason += " (optimizer did not converge)"
    return RunRecord(
        k=k,
        estimates=fit.estimates,
        passed=check.passed,
        reason=reason,
        converged=fit.converged,
        iterations=fit.iterations,
        grad_inf_norm=fit.grad_inf_norm,
        checks=check,
        local_variances=(
            None if check.local_variances is None
            else {n: float(v) for n, v in zip(names, check.local_variances)}
        ),
    )


def _aggregate(model: ModelSpec, horizon: int, records: list[RunRecord]) -> PartIIResult:
    names = model.param_names
    passing = [r for r in records if r.passed]
    n_passed = len(passing)
    mean = variance = mean_lvar = None
    median_grad = None
    if n_passed >= 1:
        est = np.array([[r.estimates[n] for n in names] for r in passing])
        mean = {n: float(v) for n, v in zip(names, est.mean(axis=0))}
        if n_passed >= 2:
            mu = est.mean(axis=0)
            var = np.sum((est - mu) ** 2, axis=0) / (n_passed - 1)
            variance = {n: float(v) for n, v in zip(names, var)}
        lvar = np.array([[r.local_variances[n] for n in names] for r in passing])
        mean_lvar = {n: float(v) for n, v in zip(names, lvar.mean(axis=0))}
        # by hand: np.median imports numpy.ma, ~15 ms of every run
        norms = sorted(r.grad_inf_norm for r in passing)
        mid = n_passed // 2
        median_grad = float(norms[mid] if n_passed % 2 else (norms[mid - 1] + norms[mid]) / 2.0)
    return PartIIResult(
        horizon=horizon,
        records=tuple(records),
        n_passed=n_passed,
        n_failed=len(records) - n_passed,
        empirical_mean=mean,
        empirical_variance=variance,
        mean_local_variance=mean_lvar,
        median_grad_inf_norm=median_grad,
    )


def _consistency_trend(model: ModelSpec, part2: list[PartIIResult]) -> dict[str, dict[str, bool]]:
    """Non-increasing empirical variance and mean local variance over T,
    reported as flags (a consistent estimator should show both)."""
    out: dict[str, dict[str, bool]] = {"empirical_variance": {}, "mean_local_variance": {}}
    for key in out:
        for name in model.param_names:
            series = [getattr(p, key)[name] for p in part2 if getattr(p, key) is not None]
            out[key][name] = bool(
                len(series) >= 2
                and all(b <= a * (1.0 + 1e-9) for a, b in zip(series, series[1:]))
            )
    return out


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _check_dict(check: CheckReport | None) -> dict | None:
    if check is None:
        return None
    return {
        "grad_ok": check.grad_ok,
        "hessian_pd": check.hessian_pd,
        "eig_ratio_ok": check.eig_ratio_ok,
        "lvar_finite": check.lvar_finite,
        "grad_inf_norm": check.grad_inf_norm,
        "eig_ratio": None if not np.isfinite(check.eig_ratio) else check.eig_ratio,
        "passed": check.passed,
        "note": check.note,
    }


def _part2_dict(model: ModelSpec, p: PartIIResult) -> dict:
    names = model.param_names
    return {
        "T": p.horizon,
        "n_runs": len(p.records),
        "n_passed": p.n_passed,
        "n_failed": p.n_failed,
        "empirical_mean": p.empirical_mean,
        "empirical_variance": p.empirical_variance,
        "mean_local_variance": p.mean_local_variance,
        "median_grad_inf_norm": p.median_grad_inf_norm,
        "estimates": {
            n: [None if r.estimates is None else r.estimates[n] for r in p.records]
            for n in names
        },
        "passed_flags": [r.passed for r in p.records],
        "failure_reasons": sorted({r.reason for r in p.records if r.reason is not None}),
    }


def report_to_dict(report: StudyReport) -> dict:
    model = report.model
    return {
        "schema": "obscheck-report/1",
        "model": model.to_dict(),
        "T_list": list(report.T_list),
        "K": report.K,
        "seed": report.seed,
        "verdict": report.verdict,
        "n_passing_total": report.n_passing_total,
        "part1": [
            {
                "T": p.horizon,
                "z_rep": [float(v) for v in p.z_rep],
                "estimate": p.run.estimates,
                "converged": p.run.converged,
                "iterations": p.run.iterations,
                "grad_inf_norm": p.run.grad_inf_norm,
                "checks": _check_dict(p.run.checks),
                "local_variance": p.run.local_variances,
                "passed": p.passed,
                "reason": p.run.reason,
            }
            for p in report.part1
        ],
        "part2": [_part2_dict(model, p) for p in report.part2],
        "consistency": report.consistency,
        "random_baseline": (
            None if report.baseline is None
            else [_part2_dict(model, p) for p in report.baseline]
        ),
    }


def report_to_json(report: StudyReport | dict) -> str:
    """The report file's text: the dictionary of ``report`` (see
    :func:`report_to_dict`), or ``report`` itself when it is that
    dictionary, as JSON with sorted keys and an indent of 2."""
    data = report if isinstance(report, dict) else report_to_dict(report)
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def report_from_json(text: str) -> dict:
    """The report dictionary in ``text``; ``ValueError`` unless it is a JSON
    object of schema ``obscheck-report/1`` with every top-level field
    :func:`render_report` reads."""
    data = json.loads(text)
    if not isinstance(data, dict) or data.get("schema") != "obscheck-report/1":
        raise ValueError("not an obscheck report file")
    missing = [k for k in ("model", "verdict", "n_passing_total", "part1", "part2")
               if k not in data]
    if missing:
        raise ValueError(f"report lacks field(s): {', '.join(missing)}")
    return data


def plot_csv(report: StudyReport) -> str:
    """Per-run estimates as a ``k,param,estimate`` stream, one commented
    section per horizon, for external plotting."""
    lines = ["k,param,estimate"]
    for p in report.part2:
        lines.append(f"# T={p.horizon}")
        for r in p.records:
            if r.estimates is None:
                continue
            for name in report.model.param_names:
                lines.append(f"{r.k},{name},{r.estimates[name]:.17g}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------


def _fmt(value, width: int = 12) -> str:
    if value is None:
        return " " * (width - 1) + "-"
    return f"{value:>{width}.6g}"


def render_report(data: dict) -> str:
    """Aligned text tables for a report dictionary (see :func:`report_to_dict`)."""
    names = [p["name"] for p in data["model"]["parameters"]]
    lines = []
    lines.append(f"model: {data['model'].get('name', '?')}")
    lines.append(f"verdict: {data['verdict']}  (passing runs: {data['n_passing_total']})")
    lines.append("")
    lines.append("Part I (representative design observation vector)")
    header = f"{'T':>4} " + " ".join(f"{n + '_hat':>12}" for n in names)
    header += " " + " ".join(f"{'LVar(' + n + ')':>12}" for n in names) + f" {'passed':>7}"
    lines.append(header)
    for p in data["part1"]:
        est = p["estimate"] or {}
        lv = p["local_variance"] or {}
        row = f"{p['T']:>4} " + " ".join(_fmt(est.get(n)) for n in names)
        row += " " + " ".join(_fmt(lv.get(n)) for n in names)
        row += f" {str(bool(p['passed'])):>7}"
        lines.append(row)
    lines.append("")
    lines.append("Part II (K design observation vectors)")
    header = f"{'T':>4} {'passed/K':>10} "
    header += " ".join(f"{'mean(' + n + ')':>12}" for n in names) + " "
    header += " ".join(f"{'var(' + n + ')':>12}" for n in names) + " "
    header += " ".join(f"{'mLVar(' + n + ')':>12}" for n in names)
    lines.append(header)
    for p in data["part2"]:
        if p["n_passed"] == 0:
            lines.append(f"{p['T']:>4} {'0 passing runs':>24}")
            continue
        mean = p["empirical_mean"] or {}
        var = p["empirical_variance"] or {}
        mlv = p["mean_local_variance"] or {}
        row = f"{p['T']:>4} {str(p['n_passed']) + '/' + str(p['n_runs']):>10} "
        row += " ".join(_fmt(mean.get(n)) for n in names) + " "
        row += " ".join(_fmt(var.get(n)) for n in names) + " "
        row += " ".join(_fmt(mlv.get(n)) for n in names)
        lines.append(row)
    reasons = sorted({p["reason"] for p in data["part1"] if p.get("reason")}
                     | {r for p in data["part2"] for r in p.get("failure_reasons", [])})
    if reasons:
        lines.append("")
        lines.append("failure reasons seen: " + "; ".join(reasons))
    return "\n".join(lines) + "\n"

