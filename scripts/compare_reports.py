#!/usr/bin/env python3
"""Check that two checkouts write byte-identical reports.

    python scripts/compare_reports.py PARENT CHANGE

Runs every command below with `python -m go_metric_lab` from each
checkout's `src/`, one after the other, and compares the two reports
(written with `--out`) and exit codes.  It stops at the first difference
and exits 1; it exits 0 when every report agrees.

The commands: `decompose stiefel n k` for every 1 <= k < n <= 8,
`reproduce-theorem` on (3,2) at the default grid, (4,3) at resolution 1
with 100 off-diagonal samples and (6,3) at resolution 1 with 50, and
`check-go` with the basis and the random strategy on a (4,2) metric that
is not GO: the diagonal family at values 1, 2, 3, ..., written once by
PARENT's package and read by both.  Two more cover the general paths:
`decompose SPACE.json` on u(4) over the two-torus span{eb_1_1 + eb_2_2,
eb_3_3 + eb_4_4} (a space file written once by PARENT's package, so the
split and the decomposition of a non-Stiefel space run from JSON input),
and `check-go stiefel 4 2 --family-t 2 --strategy family`, which runs
`metric_at` and the witness map.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

NOT_GO_METRIC = """
import json, sys
from fractions import Fraction
from go_metric_lab import metric, stiefel
family = stiefel.diagonal_family(stiefel.build_stiefel(4, 2))
a = metric.instantiate(family, [Fraction(i + 1) for i in range(family.n_params)])
json.dump(metric.metric_to_json_dict(a), open(sys.argv[1], "w"))
"""

TWO_TORUS_SPACE = """
import json, sys
from go_metric_lab import decomp, lie_core
g = lie_core.build_un(4)
h = decomp.subalgebra(g, [g.vector(("eb_1_1", 1), ("eb_2_2", 1)),
                          g.vector(("eb_3_3", 1), ("eb_4_4", 1))])
data = dict(decomp.split_to_json_dict(decomp.reductive_split(g, h)),
            algebra=lie_core.to_json_dict(g))
json.dump(data, open(sys.argv[1], "w"))
"""


def commands(metric_path: str, space_path: str):
    for n in range(2, 9):
        for k in range(1, n):
            yield ["decompose", "stiefel", str(n), str(k)]
    yield ["reproduce-theorem", "3", "2"]
    yield ["reproduce-theorem", "4", "3", "--resolution", "1",
           "--offdiagonal-samples", "100"]
    yield ["reproduce-theorem", "6", "3", "--resolution", "1",
           "--offdiagonal-samples", "50"]
    for strategy in ("basis", "random"):
        yield ["check-go", "stiefel", "4", "2", "--metric", metric_path,
               "--strategy", strategy]
    yield ["decompose", space_path]
    yield ["check-go", "stiefel", "4", "2", "--family-t", "2",
           "--strategy", "family"]


def run(checkout: Path, args) -> int:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    env.pop("GO_METRIC_LAB_SEED", None)
    proc = subprocess.run([sys.executable, *args], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode == 2:
        sys.stderr.write(proc.stderr)
    return proc.returncode


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    opts = parser.parse_args()
    checkouts = [opts.parent.resolve(), opts.change.resolve()]
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        metric_path = tmp / "not_go_4_2.json"
        if run(checkouts[0], ["-c", NOT_GO_METRIC, str(metric_path)]):
            print("could not write the (4,2) metric", file=sys.stderr)
            return 1
        space_path = tmp / "two_torus_u4.json"
        if run(checkouts[0], ["-c", TWO_TORUS_SPACE, str(space_path)]):
            print("could not write the two-torus space", file=sys.stderr)
            return 1
        for cmd in commands(str(metric_path), str(space_path)):
            results = []
            for side, checkout in enumerate(checkouts):
                out = tmp / f"report_{side}.json"
                out.unlink(missing_ok=True)
                code = run(checkout, ["-m", "go_metric_lab", *cmd,
                                      "--out", str(out)])
                results.append((code, out.read_bytes() if out.exists()
                                else None))
            label = " ".join(cmd).replace(str(metric_path), "METRIC").replace(
                str(space_path), "SPACE")
            if results[0] != results[1]:
                print(f"DIFFERS: {label} (exit {results[0][0]} vs "
                      f"{results[1][0]})")
                return 1
            print(f"same: {label} (exit {results[0][0]})", flush=True)
    print("all reports identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
