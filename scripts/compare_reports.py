#!/usr/bin/env python3
"""Compare two obscheck report files field by field.

    python scripts/compare_reports.py A.json B.json [--rtol R]

The verdict, ``n_passing_total``, ``K``, ``T_list``, ``seed``, every
``passed_flags``, ``failure_reasons`` and ``consistency`` entry, and every
field that is not a number (flags, names, missing values, the layout of
lists and objects) must be equal.  Every other number must agree to R
relative, or to R absolute near zero (``math.isclose`` with both tolerances
set to R; NaN equals NaN).  Prints each mismatch and the largest deviation,
and exits 0 when the reports match, 1 when they do not, 2 when a file cannot
be read.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

EXACT_KEYS = frozenset({
    "verdict", "n_passing_total", "K", "T_list", "seed",
    "passed_flags", "failure_reasons", "consistency",
})


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def compare(a, b, rtol: float, path: str = "$", exact: bool = False,
            worst: list | None = None) -> list[str]:
    """Mismatches between two decoded reports, as ``path: a != b`` lines.

    ``worst`` (when given) collects ``(deviation, path)`` for every pair of
    unequal numbers compared with the tolerance; the deviation
    ``|a - b| / max(|a|, |b|, 1)`` is the smallest R that accepts the pair.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return [f"{path}: keys {sorted(a)} != {sorted(b)}"]
        out = []
        for key in sorted(a):
            out += compare(a[key], b[key], rtol, f"{path}.{key}",
                           exact or key in EXACT_KEYS, worst)
        return out
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [f"{path}: length {len(a)} != {len(b)}"]
        out = []
        for i, (x, y) in enumerate(zip(a, b)):
            out += compare(x, y, rtol, f"{path}[{i}]", exact, worst)
        return out
    if _is_number(a) and _is_number(b) and not exact:
        if a == b or (math.isnan(a) and math.isnan(b)):
            return []
        if worst is not None:
            dev = abs(a - b) / max(abs(a), abs(b), 1.0)
            worst.append((dev if math.isfinite(dev) else math.inf, path))
        if math.isclose(a, b, rel_tol=rtol, abs_tol=rtol):
            return []
        return [f"{path}: {a!r} != {b!r}"]
    if type(a) is type(b) and a == b:
        return []
    return [f"{path}: {a!r} != {b!r}"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--rtol", type=float, default=1e-8,
                        help="relative tolerance, and absolute tolerance near zero (default 1e-8)")
    args = parser.parse_args(argv)
    try:
        reports = []
        for name in (args.a, args.b):
            with open(name) as fh:
                reports.append(json.load(fh))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read report: {exc}", file=sys.stderr)
        return 2
    worst: list = []
    mismatches = compare(*reports, args.rtol, worst=worst)
    for line in mismatches:
        print(line)
    if worst:
        dev, where = max(worst)
        print(f"largest deviation {dev:.3g} at {where} "
              f"({len(worst)} numbers differ)")
    else:
        print("all numbers are identical")
    print(f"{len(mismatches)} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
