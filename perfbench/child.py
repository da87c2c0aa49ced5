"""Child process for the benchmark: a cache fill, or a traced CLI invocation.

    python child.py fill T K PLACEMENT_ITERS SEED CACHE_DIR
    python child.py cli ARG...        (ARG... as for ``obscheck``)

``fill`` places the (T, K) design set and writes it to CACHE_DIR, as the
first ``obscheck run`` at that size would.  ``cli`` runs ``obscheck.cli.main``
on ARG... and exits with its code.

When ``PERFBENCH_SPANS`` names a file, public callables of each obscheck
module are wrapped where they are looked up, every call is kept in memory as
a span (name, start, end, parent, exception, attributes), and the spans are
written to that file when the process ends.  ``PERFBENCH_LAUNCH`` holds the
parent's ``time.time()`` just before it started this process, so the span
file also records start-up time up to the first traced call.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from pathlib import Path


def _maximize_attrs(args, result):
    return {"iterations": result.iterations, "converged": bool(result.converged)}


def _check_attrs(args, result):
    return {
        "passed": bool(result.passed),
        "gradient": bool(result.grad_ok),
        "hessian_pd": bool(result.hessian_pd),
        "eig_ratio": bool(result.eig_ratio_ok),
        "local_variance": bool(result.lvar_finite),
    }


def _placement_attrs(args, result):
    return {"dim": int(args[0]), "count": int(args[1]),
            "converged": bool(result.placement_converged)}


# (span name, module or class path, attribute, attribute extractor).  Names
# are patched where callers look them up: ``cli`` imports from ``study`` and
# ``models``, ``study`` from ``samples`` and ``optimize``; ``samples`` calls
# its own ``optimize_mixture``; methods are patched on their class.
TRACED = (
    ("models.load_model", "obscheck.cli", "load_model", None),
    ("study.run_study", "obscheck.cli", "run_study", None),
    ("study.report_to_json", "obscheck.cli", "report_to_json", None),
    ("study.report_to_dict", "obscheck.cli", "report_to_dict", None),
    ("study.render_report", "obscheck.cli", "render_report", None),
    ("study.write_atomic", "obscheck.cli", "write_atomic", None),
    ("study.run_part1", "obscheck.study", "run_part1", None),
    ("study.run_part2", "obscheck.study", "run_part2", None),
    ("samples.design_disturbance_matrix", "obscheck.study", "design_disturbance_matrix", None),
    ("samples.representative_disturbances", "obscheck.study", "representative_disturbances", None),
    ("optimize.maximize", "obscheck.study", "maximize", _maximize_attrs),
    ("optimize.check_maximum", "obscheck.study", "check_maximum", _check_attrs),
    ("samples.optimize_mixture", "obscheck.samples", "optimize_mixture", _placement_attrs),
    ("samples.read_sample_csv", "obscheck.samples", "read_sample_csv", None),
    ("samples.write_sample_csv", "obscheck.samples", "write_sample_csv", None),
    ("posterior.neg2l", "obscheck.posterior:PosteriorContext", "neg2l", None),
    ("posterior.neg2l_grad", "obscheck.posterior:PosteriorContext", "neg2l_grad", None),
    ("posterior.hessian_neg2l", "obscheck.posterior:PosteriorContext", "hessian_neg2l", None),
    ("models.mean_scale_prior_grad", "obscheck.models:ModelSpec", "mean_scale_prior_grad", None),
)


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._first_call: float | None = None

    def wrap(self, name: str, fn, attrs=None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            if self._first_call is None:
                self._first_call = time.time()
            span = [name_id, clock(), 0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if attrs is not None:
                span[5] = attrs(args, result)
            return result

        return traced

    def install(self) -> None:
        for name, where, attr, attrs in TRACED:
            module_name, _, class_name = where.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), attrs))

    def dump(self, path: str, launch: float | None) -> None:
        start_up = None
        if launch is not None and self._first_call is not None:
            start_up = self._first_call - launch
        Path(path).write_text(json.dumps(
            {"start_up_s": start_up, "names": self.names, "spans": self.spans},
            separators=(",", ":"),
        ))


def _fill(horizon: int, count: int, iters: int, seed: int, cache_dir: str, tracer) -> None:
    from obscheck import samples

    fill = samples.design_disturbance_matrix
    if tracer is not None:
        fill = tracer.wrap("samples.design_disturbance_matrix", fill)
    fill(horizon, count, samples.LcdConfig(max_iters=iters, seed=seed), cache_dir=cache_dir)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    spans_path = os.environ.get("PERFBENCH_SPANS")
    tracer = None
    if spans_path:
        tracer = Tracer()
        tracer.install()
    launch = os.environ.get("PERFBENCH_LAUNCH")
    try:
        if argv[:1] == ["fill"] and len(argv) == 6:
            _fill(*map(int, argv[1:5]), argv[5], tracer)
            return 0
        if argv[:1] == ["cli"]:
            import obscheck.cli

            run = obscheck.cli.main
            if tracer is not None:
                run = tracer.wrap("cli.main", run)
            return run(argv[1:])
        print(__doc__, file=sys.stderr)
        return 1
    finally:
        if tracer is not None:
            tracer.dump(spans_path, float(launch) if launch else None)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
