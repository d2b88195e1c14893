#!/usr/bin/env python3
"""Run the full Stiefel pipeline for one (n, k) and print the report.

Builds U(n)/U(n-k), verifies the deformation family A_t with exact zero
residuals, reduces the candidate metric cone, and sweeps the remaining
parameters for uniqueness.  Forwards its arguments to
`go-metric-lab reproduce-theorem`, so the flags and exit codes are the same.

    python scripts/reproduce_stiefel.py 4 2 --resolution 1/2
"""

import sys

from go_metric_lab import cli


def main(argv=None) -> int:
    return cli.main(["reproduce-theorem", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    sys.exit(main())
