#!/usr/bin/env python3
"""Moment quality of generated sample sets versus point count.

Second moments are exact by construction (whitening); this reports how well
the fourth moments of a standard normal are approximated, which drives how
closely Part II empirical variances track their analytic values.
"""

import argparse
import sys
import time
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from obscheck import LcdConfig, lcd_distance, optimize_mixture  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dim", type=int, default=4)
    parser.add_argument("--counts", default="50,100,200,400")
    parser.add_argument("--placement-iters", type=int, default=150)
    args = parser.parse_args()

    warnings.filterwarnings("ignore", message="sample placement")
    cfg = LcdConfig(max_iters=args.placement_iters)
    d = args.dim
    print(f"{'M':>6} {'m4 (→3)':>10} {'Var_k(s) (→2/d)':>16} {'distance':>12} {'time':>7}")
    for m_count in (int(c) for c in args.counts.split(",")):
        start = time.time()
        mix = optimize_mixture(d, m_count, cfg)
        pts = mix.points
        m4 = float(np.mean(pts**4))
        s = np.mean(pts**2, axis=1)
        var_s = float(np.var(s, ddof=1))
        print(
            f"{m_count:>6} {m4:>10.4f} {var_s:>16.4f} "
            f"{lcd_distance(mix):>12.5g} {time.time() - start:>6.1f}s"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
