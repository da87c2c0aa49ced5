"""Command-line interface.

    obscheck samples --dim D --count M [--out FILE]
    obscheck run --model FILE --T 4,12,20 --K 2000 --out report.json
    obscheck report report.json

Exit codes: 0 observable, 3 not observable, 1 usage or configuration error,
2 internal failure.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import warnings
from pathlib import Path

from ._files import write_atomic
from .models import ModelError, load_model
from .optimize import OptConfig
from .samples import (
    InvalidMixtureError,
    LcdConfig,
    lcd_distance,
    optimize_mixture,
    write_sample_csv,
)
from .study import (
    NOT_OBSERVABLE,
    StudyConfig,
    plot_csv,
    render_report,
    report_from_json,
    report_to_dict,
    report_to_json,
    run_study,
)

__all__ = ["main", "entry"]

EXIT_OBSERVABLE = 0
EXIT_USAGE = 1
EXIT_INTERNAL = 2
EXIT_NOT_OBSERVABLE = 3


class _CliError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="obscheck", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_lcd_flags(p):
        p.add_argument("--seed", type=int, default=LcdConfig.seed,
                       help="seed for the deterministic sample initializer")
        p.add_argument("--b-max", type=float, default=LcdConfig.b_max)
        p.add_argument("--quad-nodes", type=int, default=LcdConfig.quad_nodes,
                       help="width-quadrature nodes for every dimension (default: 128 "
                            "for d <= 3, 64 for 4 <= d <= 7, 32 for d >= 8)")
        p.add_argument("--placement-iters", type=int, default=LcdConfig.max_iters)
        p.add_argument("--step-tol", type=float, default=LcdConfig.step_tol)

    p_samples = sub.add_parser("samples", help="generate a deterministic sample set")
    p_samples.add_argument("--dim", type=int, required=True)
    p_samples.add_argument("--count", type=int, required=True)
    p_samples.add_argument("--out", type=Path, default=None,
                           help="output CSV (default samples-dim<D>-count<M>.csv)")
    add_lcd_flags(p_samples)

    p_run = sub.add_parser("run", help="run an observability study on a model file")
    p_run.add_argument("--model", required=True, help="model JSON file or bundled name")
    p_run.add_argument("--T", default=",".join(map(str, StudyConfig.T_list)),
                       help="comma-separated horizons")
    p_run.add_argument("--K", type=int, default=StudyConfig.K, help="number of design vectors")
    p_run.add_argument("--out", type=Path, default=Path("report.json"))
    p_run.add_argument("--plot", type=Path, default=None, help="CSV of per-run estimates")
    p_run.add_argument("--threads", type=int, default=1,
                       help="accepted for existing command lines; has no effect")
    p_run.add_argument("--random-baseline", action="store_true",
                       help="also run plain random observation vectors for comparison")
    p_run.add_argument("--cache-dir", type=Path, default=None,
                       help="sample-set cache (default OBSCHECK_CACHE_DIR or ~/.cache/obscheck)")
    p_run.add_argument("--no-cache", action="store_true")
    p_run.add_argument("--grad-check", type=float, default=OptConfig.grad_check)
    p_run.add_argument("--eig-ratio-min", type=float, default=OptConfig.eig_ratio_min)
    p_run.add_argument("--lvar-max", type=float, default=OptConfig.lvar_max)
    p_run.add_argument("--grad-tol", type=float, default=OptConfig.grad_tol)
    add_lcd_flags(p_run)

    p_report = sub.add_parser("report", help="render a report file as text tables")
    p_report.add_argument("path", type=Path)
    return parser


def _lcd_from_args(args) -> LcdConfig:
    try:
        return LcdConfig(
            b_max=args.b_max,
            quad_nodes=args.quad_nodes,
            max_iters=args.placement_iters,
            step_tol=args.step_tol,
            seed=args.seed,
        )
    except ValueError as exc:
        raise _CliError(str(exc)) from exc


def _check_output(path: Path | None) -> None:
    """Reject an output path that names a directory or lies in none, before
    placement or a study runs rather than after it."""
    if path is not None and not path.parent.is_dir():
        raise _CliError(f"cannot write {path}: {path.parent} is not a directory")
    if path is not None and path.is_dir():
        raise _CliError(f"cannot write {path}: it is a directory")


def _cmd_samples(args) -> int:
    if args.dim < 1 or args.count < 1:
        raise _CliError("--dim and --count must be positive")
    cfg = _lcd_from_args(args)
    out = args.out or Path(f"samples-dim{args.dim}-count{args.count}.csv")
    _check_output(out)
    mix = optimize_mixture(args.dim, args.count, cfg)
    write_sample_csv(out, mix, cfg)
    print(f"wrote {mix.count} points to {out}")
    print(f"lcd_distance = {lcd_distance(mix, cfg):.12g}")
    return EXIT_OBSERVABLE


def _resolve_cache_dir(args) -> Path | None:
    if args.no_cache:
        return None
    if args.cache_dir is not None:
        return args.cache_dir
    env = os.environ.get("OBSCHECK_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "obscheck"


def _cmd_run(args) -> int:
    try:
        horizons = tuple(int(t) for t in str(args.T).split(",") if t.strip())
    except ValueError:
        raise _CliError(f"cannot parse --T {args.T!r}") from None
    try:
        model = load_model(args.model)
    except (ModelError, OSError) as exc:
        raise _CliError(str(exc)) from exc
    cache_dir = _resolve_cache_dir(args)
    try:
        cfg = StudyConfig(
            model=model,
            T_list=horizons,
            K=args.K,
            lcd=_lcd_from_args(args),
            opt=OptConfig(
                grad_tol=args.grad_tol,
                grad_check=args.grad_check,
                eig_ratio_min=args.eig_ratio_min,
                lvar_max=args.lvar_max,
            ),
            cache_dir=str(cache_dir) if cache_dir is not None else None,
            random_baseline=args.random_baseline,
        )
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    _check_output(args.out)
    _check_output(args.plot)
    if cache_dir is not None:
        try:
            cache_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise _CliError(f"cannot use cache directory {cache_dir}: {exc.strerror}") from exc

    report = run_study(cfg)
    data = report_to_dict(report)
    write_atomic(args.out, report_to_json(data))
    if args.plot is not None:
        write_atomic(args.plot, plot_csv(report))
    print(render_report(data), end="")
    print(f"report written to {args.out}")
    return EXIT_OBSERVABLE if report.verdict != NOT_OBSERVABLE else EXIT_NOT_OBSERVABLE


def _cmd_report(args) -> int:
    try:
        text = render_report(report_from_json(Path(args.path).read_text()))
    except (OSError, ValueError) as exc:
        raise _CliError(f"cannot read report: {exc}") from exc
    except (KeyError, TypeError, AttributeError) as exc:  # a malformed nested field
        raise _CliError(f"cannot read report: {type(exc).__name__}: {exc}") from exc
    print(text, end="")
    return EXIT_OBSERVABLE


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {message}\n"


def main(argv: list[str] | None = None) -> int:
    # a warning prints as one line, without the source location that
    # warnings.formatwarning would add
    previous = warnings.formatwarning
    warnings.formatwarning = _format_warning
    try:
        return _main(argv)
    finally:
        warnings.formatwarning = previous


def _main(argv: list[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage; fold into the usage code
        return EXIT_USAGE if exc.code else EXIT_OBSERVABLE
    try:
        if args.command == "samples":
            return _cmd_samples(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "report":
            return _cmd_report(args)
        raise _CliError(f"unknown command {args.command!r}")
    except (_CliError, InvalidMixtureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:
        import traceback  # only here: importing it costs every run ~1 ms

        traceback.print_exc()
        return EXIT_INTERNAL


def entry() -> None:
    code = main()
    # the objects left now live until exit: frozen, the collections the
    # interpreter runs at shutdown skip them
    gc.freeze()
    sys.exit(code)
