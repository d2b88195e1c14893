#!/usr/bin/env python3
"""Exact validation sweep of the u(n) tables for a range of n.

Checks closure, antisymmetry, the Jacobi identity, basis orthogonality,
positive definiteness of the trace form, and its ad-invariance, all in
exact rational arithmetic.  The tables are built in closed form; the
closure check compares them with the matrix commutators, so the build and
the validation are timed separately.

    python scripts/validate_un.py --max-n 5
"""

import argparse
import sys
import time

from go_metric_lab import lie_core
from go_metric_lab.cli import int_at_least


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int_at_least(1), default=5)
    args = ap.parse_args(argv)
    failures = 0
    for n in range(1, args.max_n + 1):
        t0 = time.perf_counter()
        g = lie_core.build_un(n)
        t1 = time.perf_counter()
        report = lie_core.validate_algebra(g)
        t2 = time.perf_counter()
        status = "ok" if report.ok else "FAIL"
        print(f"u({n}): dim {g.dim:3d}  {status}  "
              f"(build {t1 - t0:.3f}s, validate {t2 - t1:.2f}s)")
        for check in report.checks:
            if not check.passed:
                failures += 1
                print(f"    {check.name}: {check.detail}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
