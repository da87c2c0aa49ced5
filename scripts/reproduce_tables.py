#!/usr/bin/env python3
"""Run the two observable study models and print their result tables.

Desk scale by default (K=200); pass --full for K=2000 (slow: the (T, K)
sample generation dominates, so point --cache-dir somewhere persistent).
"""

import argparse
import sys
import time
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from obscheck import LcdConfig, StudyConfig, load_model, run_study  # noqa: E402
from obscheck.study import render_report, report_to_dict  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="K=2000 instead of 200")
    parser.add_argument("--cache-dir", default=None)
    args = parser.parse_args()

    warnings.filterwarnings("ignore", message="sample placement")
    count = 2000 if args.full else 200
    lcd = LcdConfig(max_iters=150)
    for name in ("unknown_variance", "mean_and_variance"):
        model = load_model(name)
        cfg = StudyConfig(
            model=model,
            T_list=(4, 12, 20),
            K=count,
            lcd=lcd,
            cache_dir=args.cache_dir,
        )
        start = time.time()
        report = run_study(cfg)
        print(f"=== {name} (K={count}, {time.time() - start:.0f}s) ===")
        print(render_report(report_to_dict(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
