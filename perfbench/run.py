#!/usr/bin/env python3
"""Time-to-verdict benchmark for the ``obscheck run`` command line.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke

Run it from anywhere inside a checkout that holds ``src/obscheck``; nothing
needs installing.  Every invocation is one fresh ``python -m obscheck run``
process with ``--threads 1``, an explicit ``--cache-dir`` under
``perfbench/_work`` and one BLAS/OpenMP thread, started one at a time from
this process (a closed loop with one client).  Each invocation's exit code
and report are checked against the expected verdict and, for the two
analytically solvable models, against the closed-form Part I oracles.

Workloads (K=200 design vectors, placement capped at 150 iterations):

* ``cold_design``: ``mean_and_variance`` at T=4 with an empty cache for
  every invocation, so sample placement dominates.  ``BENCHMARK.json`` does
  not list it: a run holds a single 20 s invocation, whose time swings by up
  to 2x with the host, and no speed probe tried follows numpy-bound
  placement closely.  Placement still shows in the warm workloads'
  ``setup_s`` and in the traced run's ``samples.*`` metrics.
* ``warm_study``: the four observable models at T=4,20 on a cache that
  set-up fills: the fits, their checks, CSV reads and start-up dominate.
* ``pathology_sweep``: the four unobservable or ill-posed models at T=4 on
  the cached T=4 design: short fits, failed checks, infeasible starts and
  the crashes in ``check_maximum``.

``--seed`` orders the invocations within a pass and, for ``cold_design``,
is passed to every invocation as ``--seed`` (the design seed).  The other two
workloads pin the design seed to ``LcdConfig.seed``: the fits' work depends on
the design (``mean_and_variance`` takes 30% longer on one seed's design than
on another's), and whether each known crash fires depends on it too, so a
per-run design would make ``verdict_s`` a property of the seed rather than of
the code.

The host's speed drifts by up to 1.8x over tens of seconds, with CPU time
equal to wall time, so raw wall times of identical work spread by up to 30%
from run to run.  Two things steady the figures.  The benchmark pins itself, and
with it every invocation, to one CPU.  And before and after each timed
process it times a speed probe, a fresh interpreter that imports numpy and
runs no code of the checkout, so no change to ``src/`` moves it.  Of the
probes tried, this one follows the invocations' speed most closely.  Every
timed wall is scaled by ``PROBE_REF_S`` over the mean of the probes around it:
``setup_s``, ``verdict_s`` and ``fits_per_s`` are seconds, and fits per
second, on a host where the probe takes ``PROBE_REF_S``.  The unscaled
figures are printed alongside, as ``*_wall`` lines.

A run sets up, then repeats passes over the workload's models until
``--seconds`` have elapsed (at least one pass).  Set-up starts
``obscheck run --help`` five times and, for the warm workloads, places and
caches their design sets; ``setup_s`` is the median start-up plus the
placement time.  ``--trace 0`` prints the end-to-end metrics from per-model
medians over passes: ``verdict_s`` (a pass's wall seconds over its correct
verdicts), ``fits_per_s`` (Part II fits in correct reports per wall second),
``peak_rss_mb`` and ``setup_s``, and also ``failed_frac`` and
``anchor_relerr``, which the JSON line carries with the per-layer metrics.
``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics derived from the spans that ``child.py`` records.
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  An invocation fails when
it crashes (exit 2), times out or writes no report, or when its exit code,
verdict, report or oracle check is wrong; only the latter also makes
``correct`` false.  ``--smoke`` checks the harness itself at T=2, K=8.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
PLACEMENT_ITERS = 150
STARTUP_PROBES = 5
INVOCATION_TIMEOUT_S = 120.0
# no new pass starts once a run is this old; the driver allows 180 s
RUN_DEADLINE_S = 140.0
KERNEL_REPEATS = 5
PROBE_REF_S = 0.15  # the speed probe's wall time on the reference host

EXIT_INTERNAL = 2
EXPECTED_EXIT = {
    "unknown_variance": 0,
    "mean_and_variance": 0,
    "ratio_mean_scale_sqrt_a": 0,
    "ratio_mean_scale_sqrt_ab": 0,
    "reciprocal_mean": 0,
    "additive_mean_pair": 3,
    "product_mean": 3,
    "ratio_mean_scale_sqrt_ratio": 3,
}
VERDICT_OF_EXIT = {0: "OBSERVABLE", 3: "NOT_OBSERVABLE"}
# acceptance-suite tolerances for Part I against the closed-form oracles
ORACLE_ESTIMATE_TOL = 1e-6
ORACLE_LVAR_TOL = 1e-3
CHECK_NAMES = ("gradient", "hessian_pd", "eig_ratio", "local_variance")


@dataclass(frozen=True)
class Workload:
    name: str
    models: tuple[str, ...]
    horizons: tuple[int, ...]
    K: int = 200
    cold: bool = False  # an empty cache dir for every invocation
    fixed_design_seed: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cold_design", ("mean_and_variance",), (4,), cold=True),
        Workload("warm_study", ("unknown_variance", "mean_and_variance",
                                "ratio_mean_scale_sqrt_a", "ratio_mean_scale_sqrt_ab"), (4, 20),
                 fixed_design_seed=True),
        Workload("pathology_sweep", ("additive_mean_pair", "product_mean",
                                     "ratio_mean_scale_sqrt_ratio", "reciprocal_mean"), (4,),
                 fixed_design_seed=True),
    )
}
SMOKE = Workload("smoke", ("unknown_variance", "mean_and_variance"), (2,), K=8)


@dataclass
class Outcome:
    """One invocation: how long it took and whether its answer holds."""

    model: str
    exit_code: int | None  # None: timed out
    wall_s: float
    scaled_s: float  # wall_s at the probe's reference speed
    rss_mb: float
    failure: str | None = None
    wrong: bool = False
    fits: int = 0
    report: dict | None = None
    spans: Path | None = None


@dataclass
class Pass:
    traced: bool
    outcomes: list[Outcome] = field(default_factory=list)


def speed_figures(passes: list[Pass], scaled: bool = True) -> tuple[float, float]:
    """``verdict_s`` and ``fits_per_s`` of ``passes``.  Each model's time,
    verdicts and fits are medians over the passes, which a slow spell during
    one invocation does not move; a failed invocation adds time but neither
    a verdict nor fits."""
    by_model: dict[str, list[Outcome]] = {}
    for p in passes:
        for o in p.outcomes:
            by_model.setdefault(o.model, []).append(o)
    wall = verdicts = fits = 0.0
    for outs in by_model.values():
        wall += _median(o.scaled_s if scaled else o.wall_s for o in outs)
        verdicts += _median(o.failure is None for o in outs)
        fits += _median(o.fits for o in outs)
    return wall / (verdicts or 1.0), fits / wall


def probe_s() -> float:
    """Wall seconds of the speed probe: a fresh interpreter, in isolated mode
    so that nothing of the checkout is on its path, that imports numpy.
    Like an ``obscheck run`` it spends its time loading and executing many
    small pieces of Python and C, so its speed follows the host's."""
    start = time.perf_counter()
    code = subprocess.run([sys.executable, "-I", "-c", "import numpy"], stdin=subprocess.DEVNULL,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    wall = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"the speed probe failed (exit {code})")
    return wall


def _spawn(cmd: list[str], env: dict, log: Path, timeout: float) -> tuple[int | None, float, float]:
    """Run ``cmd`` to completion; return (exit code or None on timeout, wall
    seconds, max RSS in MB).  The child is always reaped before returning."""
    timed_out = threading.Event()
    start = time.perf_counter()
    with open(log, "wb") as out:
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL, cwd=log.parent)

    def kill():
        timed_out.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    exit_code = None if timed_out.is_set() else proc.returncode
    return exit_code, wall, usage.ru_maxrss / 1024.0


def _last_line(path: Path) -> str:
    lines = [ln for ln in path.read_text(errors="replace").splitlines() if ln.strip()]
    return lines[-1].strip() if lines else "(no output)"


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


class Bench:
    """One run of one workload: set-up, passes, checks and metrics."""

    def __init__(self, workload: Workload, seed: int, default_seed: int):
        self.workload = workload
        self.seed = seed
        self.design_seed = default_seed if workload.fixed_design_seed else seed
        self.expected = dict(EXPECTED_EXIT)
        self.order = random.Random(seed).sample(workload.models, len(workload.models))
        self.dir = WORK / f"{workload.name}-seed{seed}-pid{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.cache = self.dir / "cache"
        self.env = {k: v for k, v in os.environ.items() if k != "OBSCHECK_CACHE_DIR"}
        self.env.update({var: "1" for var in THREAD_VARS})
        self.env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.count = 0
        self.fill_spans: list[Path] = []
        self.reasons: dict[str, int] = {}
        self.probes: list[float] = []

    def _path(self, stem: str) -> Path:
        self.count += 1
        return self.dir / f"{self.count:04d}-{stem}"

    def _child_env(self, spans: Path | None) -> dict:
        if spans is None:
            return self.env
        return dict(self.env, PERFBENCH_SPANS=str(spans), PERFBENCH_LAUNCH=repr(time.time()))

    def _timed(self, cmd: list[str], env: dict, log: Path) -> tuple[int | None, float, float, float]:
        """``_spawn`` between two speed probes; returns (exit code, wall
        seconds, wall seconds at the reference speed, max RSS in MB)."""
        if not self.probes:
            self.probes.append(probe_s())
        before = self.probes[-1]
        code, wall, rss = _spawn(cmd, env, log, INVOCATION_TIMEOUT_S)
        self.probes.append(probe_s())
        return code, wall, wall * PROBE_REF_S / statistics.fmean((before, self.probes[-1])), rss

    # -- set-up -----------------------------------------------------------

    def setup(self, traced: bool) -> float:
        """Time CLI start-up several times, then place and cache the design
        sets of a warm workload.  Returns the median start-up time plus the
        placement time, both at the reference speed."""
        starts = []
        for _ in range(STARTUP_PROBES):
            log = self._path("start.log")
            code, _, scaled, _ = self._timed([sys.executable, "-m", "obscheck", "run", "--help"],
                                             self.env, log)
            if code != 0:
                raise RuntimeError(f"obscheck does not start (exit {code}): {_last_line(log)}")
            starts.append(scaled)
        fill_s = 0.0
        if not self.workload.cold:
            for horizon in self.workload.horizons:
                log = self._path(f"fill-T{horizon}.log")
                spans = log.with_suffix(".spans.json") if traced else None
                cmd = [sys.executable, str(BENCH / "child.py"), "fill", str(horizon),
                       str(self.workload.K), str(PLACEMENT_ITERS), str(self.design_seed),
                       str(self.cache)]
                code, _, scaled, _ = self._timed(cmd, self._child_env(spans), log)
                if code != 0:
                    raise RuntimeError(f"placing the T={horizon} design failed: {_last_line(log)}")
                fill_s += scaled
                if spans is not None:
                    self.fill_spans.append(spans)
        return statistics.median(starts) + fill_s

    # -- passes -----------------------------------------------------------

    def invoke(self, model: str, traced: bool) -> Outcome:
        stem = self._path(model)
        report = stem.with_suffix(".json")
        log = stem.with_suffix(".log")
        cache = stem.with_suffix(".cache") if self.workload.cold else self.cache
        args = ["run", "--model", model, "--T", ",".join(map(str, self.workload.horizons)),
                "--K", str(self.workload.K), "--placement-iters", str(PLACEMENT_ITERS),
                "--threads", "1", "--seed", str(self.design_seed),
                "--cache-dir", str(cache), "--out", str(report)]
        spans = stem.with_suffix(".spans.json") if traced else None
        if traced:
            cmd = [sys.executable, str(BENCH / "child.py"), "cli", *args]
        else:
            cmd = [sys.executable, "-m", "obscheck", *args]
        code, wall, scaled, rss = self._timed(cmd, self._child_env(spans), log)
        outcome = Outcome(model=model, exit_code=code, wall_s=wall, scaled_s=scaled, rss_mb=rss,
                          spans=spans)
        self._verify(outcome, report, log)
        if outcome.failure is not None:
            reason = f"{model}: {outcome.failure}"
            self.reasons[reason] = self.reasons.get(reason, 0) + 1
        return outcome

    def _verify(self, out: Outcome, report: Path, log: Path) -> None:
        from obscheck.study import report_from_json

        expected = self.expected[out.model]
        if out.exit_code is None:
            out.failure = f"timed out after {INVOCATION_TIMEOUT_S:.0f} s"
            return
        if out.exit_code == EXIT_INTERNAL:
            out.failure = f"exit 2 (expected {expected}): {_last_line(log)}"
            return
        out.wrong = True
        if out.exit_code != expected:
            out.failure = f"exit {out.exit_code}, expected {expected}"
            return
        try:
            data = report_from_json(report.read_text())
        except (OSError, ValueError) as exc:
            out.failure = f"report unreadable: {exc}"
            return
        problem = self._check_report(out.model, data)
        if problem is not None:
            out.failure = problem
            return
        out.wrong = False
        out.report = data
        out.fits = sum(p["n_runs"] for p in data["part2"])

    def _check_report(self, model: str, data: dict) -> str | None:
        from obscheck import closed_form

        verdict = VERDICT_OF_EXIT.get(self.expected[model])
        if data.get("verdict") != verdict:
            return f"verdict {data.get('verdict')}, expected {verdict}"
        if (data.get("K"), data.get("T_list"), data.get("seed")) != (
                self.workload.K, list(self.workload.horizons), self.design_seed):
            return "report K, T_list or seed differ from the invocation"
        oracle = {"unknown_variance": closed_form.unknown_variance_oracle,
                  "mean_and_variance": closed_form.mean_and_variance_oracle}.get(model)
        if oracle is None:
            return None
        for part1 in data["part1"]:
            expect = oracle(part1["z_rep"])
            if not part1["passed"]:
                return f"Part I at T={part1['T']} did not pass its checks"
            for name, value in expect.estimates.items():
                if not abs(part1["estimate"][name] - value) < ORACLE_ESTIMATE_TOL:
                    return f"Part I {name}_hat at T={part1['T']} is off the closed form"
            for name, value in expect.local_variances.items():
                if not abs(part1["local_variance"][name] - value) < ORACLE_LVAR_TOL:
                    return f"Part I LVar({name}) at T={part1['T']} is off the closed form"
        return None

    def run_pass(self, traced: bool) -> Pass:
        return Pass(traced, [self.invoke(model, traced) for model in self.order])

    def measure(self, seconds: float, trace: bool, started: float) -> list[Pass]:
        passes: list[Pass] = []
        begin = time.perf_counter()
        while True:
            lap = time.perf_counter()
            passes.append(self.run_pass(traced=False))
            if trace:
                passes.append(self.run_pass(traced=True))
            now = time.perf_counter()
            if now - begin >= seconds or now - started + (now - lap) > RUN_DEADLINE_S:
                return passes

    # -- derived metrics ----------------------------------------------------

    def designs(self) -> dict:
        """The (K, T) design matrices the workload used, keyed by T."""
        from obscheck.samples import read_sample_csv

        cache = self.cache
        if self.workload.cold:
            cache = max(self.dir.glob("*.cache"), default=self.cache)
        out = {}
        for path in cache.glob(f"samples_d*_M{self.workload.K}_*.csv"):
            points, meta = read_sample_csv(path)
            out[meta["dim"]] = points
        return out

    def anchor_relerr(self, passes: list[Pass], designs: dict) -> float:
        """Max relative error of the Part II var(b) against 2 b*^2 / T
        (unknown_variance) and 2 (T-1) b*^2 / T^2 (mean_and_variance).  Taken
        from the reports where those models ran; otherwise from the
        closed-form estimators applied to the rows of the cached design."""
        from obscheck import closed_form, load_model, make_design_observations

        worst = 0.0
        reports = {o.model: o.report for p in passes for o in p.outcomes if o.report}
        for model, oracle in (("unknown_variance", closed_form.unknown_variance_oracle),
                              ("mean_and_variance", closed_form.mean_and_variance_oracle)):
            spec = load_model(model)
            b_true = spec.true_values()["b"]
            for horizon in self.workload.horizons:
                analytic = 2.0 * b_true ** 2 / horizon
                if model == "mean_and_variance":
                    analytic *= (horizon - 1) / horizon
                if model in reports:
                    part2 = next(p for p in reports[model]["part2"] if p["T"] == horizon)
                    var_b = part2["empirical_variance"]["b"]
                elif horizon in designs:
                    z = make_design_observations(spec, designs[horizon])
                    var_b = statistics.variance([oracle(row).estimates["b"] for row in z])
                else:
                    continue
                worst = max(worst, abs(var_b - analytic) / analytic)
        return worst

    def close(self, keep_spans: bool) -> None:
        """Log failure reasons and remove what the run wrote; a traced run
        keeps its span files under ``perfbench/_work/spans-<workload>-seed<n>``."""
        for reason, count in sorted(self.reasons.items()):
            print(f"perfbench: {count} x failed: {reason}", file=sys.stderr)
        if keep_spans:
            keep = WORK / f"spans-{self.workload.name}-seed{self.seed}"
            shutil.rmtree(keep, ignore_errors=True)
            keep.mkdir(parents=True)
            for path in self.dir.glob("*.spans.json"):
                path.replace(keep / path.name)
        shutil.rmtree(self.dir, ignore_errors=True)


def _load_spans(path: Path) -> tuple[list[tuple], float | None]:
    """Spans of one process as (name, seconds, self seconds, parent name,
    exception, attributes).  Self time is the duration minus the part its
    direct children cover; calls within one process never overlap."""
    data = json.loads(path.read_text())
    names, raw = data["names"], data["spans"]
    covered = [0] * len(raw)
    for span in raw:
        if span[3] >= 0:
            covered[span[3]] += span[2] - span[1]
    spans = [
        (names[s[0]], (s[2] - s[1]) * 1e-9, (s[2] - s[1] - covered[i]) * 1e-9,
         names[raw[s[3]][0]] if s[3] >= 0 else None, s[4], s[5])
        for i, s in enumerate(raw)
    ]
    return spans, data["start_up_s"]


def _kernel_ms(designs: dict) -> tuple[float, float, float]:
    """Per-call ms of ``lcd_distance`` and ``lcd_gradient`` on each design
    (median of repeats, mean over designs), and the distance of the
    smallest-T design."""
    from obscheck.samples import LcdConfig, lcd_distance, lcd_gradient

    cfg = LcdConfig()
    value_ms, grad_ms = [], []
    for points in designs.values():
        for fn, sink in ((lcd_distance, value_ms), (lcd_gradient, grad_ms)):
            times = []
            for _ in range(KERNEL_REPEATS):
                start = time.perf_counter()
                fn(points, cfg)
                times.append(time.perf_counter() - start)
            sink.append(statistics.median(times) * 1e3)
    distance = lcd_distance(designs[min(designs)], cfg) if designs else 0.0
    return statistics.fmean(value_ms or [0.0]), statistics.fmean(grad_ms or [0.0]), distance


def per_layer_metrics(bench: Bench, passes: list[Pass]) -> dict[str, tuple]:
    """Per-layer metrics of a traced run.  Counts and layer times are per
    traced invocation; ``*_p50``, ``*_us`` and ``*_frac`` are over calls."""
    # a timed-out process is killed before it can write its spans
    traced = [o for p in passes if p.traced for o in p.outcomes if o.spans.is_file()]
    n = max(len(traced), 1)
    spans: list[tuple] = []
    start_up = []
    for o in traced:
        loaded, up = _load_spans(o.spans)
        spans.extend(loaded)
        start_up.append(up)
    fills = [s for path in bench.fill_spans for s in _load_spans(path)[0]]

    def of(name, pool=spans):
        return [s for s in pool if s[0] == name]

    def per_invocation(name, idx=1):
        return sum(s[idx] for s in of(name)) / n

    def frac(num, den):
        return num / den if den else 0.0

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    def is_placement(s):
        return s[3] == "samples.design_disturbance_matrix"

    matrix = of("samples.design_disturbance_matrix")
    placed_here = [s for s in of("samples.optimize_mixture") if is_placement(s)]
    placements = placed_here + [s for s in of("samples.optimize_mixture", fills) if is_placement(s)]
    neg2l, grads = of("posterior.neg2l"), of("posterior.neg2l_grad")
    msp = of("models.mean_scale_prior_grad")
    fits, checks = of("optimize.maximize"), of("optimize.check_maximum")
    fit_attrs = [s[5] for s in fits if s[5] is not None]
    check_attrs = [s[5] for s in checks if s[5] is not None]
    iterations = [a["iterations"] for a in fit_attrs]
    designs = bench.designs()
    value_ms, grad_ms, distance = _kernel_ms(designs)
    verdict_s = {traced: speed_figures([p for p in passes if p.traced is traced])[0]
                 for traced in (False, True)}

    return {
        "cli.import_s": (mean(start_up), "s"),
        "cli.main_s": (per_invocation("cli.main"), "s"),
        "cli.self_s": (per_invocation("cli.main", 2), "s"),
        "study.run_part1_s": (per_invocation("study.run_part1"), "s"),
        "study.run_part2_s": (per_invocation("study.run_part2"), "s"),
        "study.part2_self_s": (per_invocation("study.run_part2", 2), "s"),
        "study.report_to_json_s": (per_invocation("study.report_to_json"), "s"),
        "samples.design_matrix_s": (per_invocation("samples.design_disturbance_matrix"), "s"),
        "samples.placements": (len(placed_here) / n, "count"),
        "samples.cache_hit_ratio": (frac(len(matrix) - len(placed_here), len(matrix)), "ratio"),
        "samples.optimize_mixture_s": (mean([s[1] for s in placements]), "s"),
        "samples.placement_converged_frac": (
            frac(sum(1 for s in placements if s[5] and s[5]["converged"]), len(placements)),
            "ratio"),
        "samples.design_lcd_distance": (distance, "1"),
        "samples.kernel_value_ms": (value_ms, "ms"),
        "samples.kernel_grad_ms": (grad_ms, "ms"),
        "posterior.neg2l_calls": (len(neg2l) / n, "count"),
        "posterior.neg2l_grad_calls": (len(grads) / n, "count"),
        "posterior.hessian_calls": (len(of("posterior.hessian_neg2l")) / n, "count"),
        "posterior.neg2l_grad_us": (mean([s[1] for s in grads]) * 1e6, "us"),
        "posterior.infeasible_frac": (
            frac(sum(1 for s in neg2l + grads if s[4] == "InfeasiblePointError"),
                 len(neg2l) + len(grads)), "ratio"),
        "posterior.evals_per_fit": (frac(len(neg2l) + len(grads), len(fits)), "count"),
        "models.mean_scale_prior_grad_calls": (len(msp) / n, "count"),
        "models.mean_scale_prior_grad_us": (mean([s[1] for s in msp]) * 1e6, "us"),
        "optimize.maximize_calls": (len(fits) / n, "count"),
        "optimize.maximize_ms_p50": (_median(s[1] for s in fits) * 1e3, "ms"),
        "optimize.iterations_p50": (_median(iterations), "count"),
        "optimize.iterations_max": (float(max(iterations, default=0)), "count"),
        "optimize.converged_frac": (
            frac(sum(1 for a in fit_attrs if a["converged"]), len(fit_attrs)), "ratio"),
        "optimize.check_ms_p50": (_median(s[1] for s in checks) * 1e3, "ms"),
        "optimize.check_pass_frac": (
            frac(sum(1 for a in check_attrs if a["passed"]), len(check_attrs)), "ratio"),
        **{f"optimize.check_fail.{c}": (sum(1 for a in check_attrs if not a[c]) / n, "count")
           for c in CHECK_NAMES},
        "optimize.check_raised": (sum(1 for s in checks if s[4] is not None) / n, "count"),
        "failed_frac": (_failed_frac(passes), "ratio"),
        "anchor_relerr": (bench.anchor_relerr(passes, designs), "ratio"),
        "trace_overhead_frac": (verdict_s[True] / verdict_s[False] - 1.0, "ratio"),
    }


def _failed_frac(passes: list[Pass]) -> float:
    outcomes = [o for p in passes for o in p.outcomes]
    return sum(1 for o in outcomes if o.failure is not None) / len(outcomes)


def end_to_end_metrics(setup_s: float, passes: list[Pass]) -> dict[str, tuple]:
    """End-to-end metrics from the untraced passes, at the reference speed."""
    plain = [p for p in passes if not p.traced]
    verdict_s, fits_per_s = speed_figures(plain)
    return {
        "setup_s": (setup_s, "s"),
        "verdict_s": (verdict_s, "s"),
        "fits_per_s": (fits_per_s, "1/s"),
        "peak_rss_mb": (max(o.rss_mb for p in plain for o in p.outcomes), "MB"),
    }


def environment(trace: bool, caller_thread_env: dict, cpus: set[int]) -> dict:
    import numpy

    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: "):
            ref = ROOT / ".git" / commit[5:]
            commit = ref.read_text().strip() if ref.is_file() else commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "obscheck").rglob("*")):
        if path.suffix in (".py", ".json") and path.is_file():
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(cpus),
        "pinned_cpu": min(os.sched_getaffinity(0)),
        "probe_ref_s": PROBE_REF_S,
        "thread_env": {var: "1" for var in THREAD_VARS},
        "caller_thread_env": caller_thread_env,
        "trace": trace,
    }


def run(bench: Bench, seconds: float, trace: bool, started: float) -> tuple[dict, dict, list[Pass]]:
    """Set up and measure one workload.  Returns the contract result, the
    metrics printed alongside it, and the passes."""
    try:
        setup_s = bench.setup(traced=trace)
        passes = bench.measure(seconds, trace, started)
        if trace:
            metrics = per_layer_metrics(bench, passes)
            extra = {}
        else:
            metrics = end_to_end_metrics(setup_s, passes)
            verdict_wall, fits_wall = speed_figures(passes, scaled=False)
            extra = {"failed_frac": (_failed_frac(passes), "ratio"),
                     "anchor_relerr": (bench.anchor_relerr(passes, bench.designs()), "ratio"),
                     "verdict_s_wall": (verdict_wall, "s"),
                     "fits_per_s_wall": (fits_wall, "1/s"),
                     "probe_ms": (_median(bench.probes) * 1e3, "ms")}
    finally:
        bench.close(keep_spans=trace)
    outcomes = [o for p in passes for o in p.outcomes]
    result = {
        "correct": any(o.failure is None for o in outcomes) and not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": sum(1 for o in outcomes if o.failure is not None),
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    return result, {**metrics, **extra}, passes


def smoke(default_seed: int) -> int:
    """Self-check at T=2, K=8: a traced and an untraced pass must give
    correct verdicts and the metrics ``BENCHMARK.json`` lists, and a
    deliberately wrong expected verdict must count as a failed, incorrect
    invocation."""
    started = time.perf_counter()
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())
    result, metrics, passes = run(Bench(SMOKE, default_seed, default_seed), 0.0, True, started)
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append(f"clean smoke run counted as correct={result['correct']}, "
                        f"failed={result['failed']}")
    if not any(p.traced for p in passes) or not any(not p.traced for p in passes):
        problems.append("smoke run lacks a traced or an untraced pass")

    bench = Bench(SMOKE, default_seed, default_seed)
    bench.expected["unknown_variance"] = 3
    wrong, _, _ = run(bench, 0.0, False, started)
    if wrong["correct"] or wrong["failed"] != 1:
        problems.append(f"wrong expected verdict counted as correct={wrong['correct']}, "
                        f"failed={wrong['failed']}")
    for key, got in (("per_layer", result), ("end_to_end", wrong)):
        if {m["name"] for m in listed[key]} != set(got["metrics"]):
            problems.append(f"metrics differ from the {key} list in BENCHMARK.json")
    for line in problems:
        print(f"smoke: FAIL: {line}", file=sys.stderr)
    print(f"smoke: {'FAIL' if problems else 'ok'}: traced run {len(metrics)} metrics, "
          f"doctored run attempted={wrong['attempted']} failed={wrong['failed']} "
          f"correct={wrong['correct']}")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default LcdConfig.seed)")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-check the harness")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "obscheck" / "__init__.py").is_file():
        print(f"perfbench: no obscheck sources under {SRC}", file=sys.stderr)
        return 2
    caller_thread_env = {var: os.environ.get(var) for var in THREAD_VARS}
    os.environ.update({var: "1" for var in THREAD_VARS})
    cpus = os.sched_getaffinity(0)
    # one CPU for this process, its probes and every process it starts
    os.sched_setaffinity(0, {min(cpus)})
    sys.path.insert(0, str(SRC))
    from obscheck.samples import LcdConfig

    default_seed = LcdConfig.seed
    if args.smoke:
        return smoke(default_seed)
    if args.workload is None:
        parser.error("--workload is required")
    seed = default_seed if args.seed is None else args.seed
    env = environment(bool(args.trace), caller_thread_env, cpus)
    try:
        bench = Bench(WORKLOADS[args.workload], seed, default_seed)
        result, metrics, _ = run(bench, args.seconds, bool(args.trace), started)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"# workload {args.workload} seed {seed} trace {args.trace}")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
