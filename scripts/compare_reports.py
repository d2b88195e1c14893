#!/usr/bin/env python3
"""Check that two checkouts write byte-identical reports.

    python scripts/compare_reports.py PARENT CHANGE

Runs every command below with `python -m go_metric_lab` from each
checkout's `src/`, one after the other, and compares the two reports
(written with `--out`) and exit codes.  Every command runs; for each one
whose report or exit code differs it prints the top-level JSON keys that
differ and both exit codes.  It exits 1 when any command differs and 0
when every report agrees.

The commands: `decompose stiefel n k` for every 1 <= k < n <= 8,
`reproduce-theorem` on (3,2) at the default grid, (4,3) at resolution 1
with 100 off-diagonal samples, (6,3) at resolution 1 with 50 and (8,4)
at resolution 1 with 10 (the one command that solves against 16
isotropy columns, so rank-deficient normal equations run at scale), and
`check-go` with the basis and the random strategy on a (4,2) metric that
is not GO: the diagonal family at values 1, 2, 3, ..., written once by
PARENT's package and read by both.  Four more cover the general paths:
`decompose SPACE.json` on u(4) over the two-torus span{eb_1_1 + eb_2_2,
eb_3_3 + eb_4_4} (a space file written once by PARENT's package, so the
split and the decomposition of a non-Stiefel space run from JSON input),
`check-go SPACE --metric M` with the basis and the random strategy, M
the metric 2 on S0 and 1 on every member of S1 of that space (written
once by PARENT's package; positive definite, not a multiple of the
identity), so the GO solves and residuals run on a bracket table whose
denominator is 2, and `check-go stiefel 4 2 --family-t 2 --strategy
family`, which runs `metric_at`, the witness map and the family
certificate.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

NOT_GO_METRIC = """
import json, sys
from fractions import Fraction
from go_metric_lab import linalg, metric, stiefel
family = stiefel.diagonal_family(stiefel.build_stiefel(4, 2))
a = metric.instantiate(family, [Fraction(i + 1) for i in range(family.n_params)])
json.dump({"params": [linalg.frac_to_str(p) for p in a.params],
           "blocks": metric.block_view(a), "pd": a.is_pd},
          open(sys.argv[1], "w"))
"""

TWO_TORUS_SPACE = """
import json, sys
from go_metric_lab import decomp, lie_core, linalg
g = lie_core.build_un(4)
h = decomp.subalgebra(g, [g.vector(("eb_1_1", 1), ("eb_2_2", 1)),
                          g.vector(("eb_3_3", 1), ("eb_4_4", 1))])
data = {"algebra_hash": decomp.algebra_hash(g),
        "h_basis": [[linalg.frac_to_str(c) for c in v] for v in h.basis_coords],
        "algebra": lie_core.to_json_dict(g)}
json.dump(data, open(sys.argv[1], "w"))
"""

TWO_TORUS_METRIC = """
import json, sys
from go_metric_lab import decomp, isotropy, lie_core, linalg, metric
data = json.load(open(sys.argv[1]))
split = decomp.split_from_json_dict(lie_core.from_json_dict(data["algebra"]),
                                    data)
dec = isotropy.decompose_isotypic(isotropy.isotropy_action(split))
family = metric.full_family(dec)
# 1 per member scalar, 2 on the diagonal of the S0 operator, 0 elsewhere
a = metric.instantiate(family, [
    1 if label.startswith("scalar") else 2 * on
    for label, on in zip(family.param_labels(), family.on_diagonal())])
json.dump({"params": [linalg.frac_to_str(p) for p in a.params],
           "pd": a.is_pd}, open(sys.argv[2], "w"))
"""


def commands(metric_path: str, space_path: str, space_metric_path: str):
    for n in range(2, 9):
        for k in range(1, n):
            yield ["decompose", "stiefel", str(n), str(k)]
    yield ["reproduce-theorem", "3", "2"]
    yield ["reproduce-theorem", "4", "3", "--resolution", "1",
           "--offdiagonal-samples", "100"]
    yield ["reproduce-theorem", "6", "3", "--resolution", "1",
           "--offdiagonal-samples", "50"]
    yield ["reproduce-theorem", "8", "4", "--resolution", "1",
           "--offdiagonal-samples", "10"]
    for strategy in ("basis", "random"):
        yield ["check-go", "stiefel", "4", "2", "--metric", metric_path,
               "--strategy", strategy]
    yield ["decompose", space_path]
    for strategy in ("basis", "random"):
        yield ["check-go", space_path, "--metric", space_metric_path,
               "--strategy", strategy]
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


def differing_keys(reports) -> list:
    """The top-level keys whose values differ between two JSON reports
    (bytes, or None when a command wrote none)."""
    if None in reports:
        return ["<no report>"] if reports[0] != reports[1] else []
    parent, change = (json.loads(r) for r in reports)
    if not (isinstance(parent, dict) and isinstance(change, dict)):
        return ["<top level>"] if parent != change else []
    return sorted(k for k in parent.keys() | change.keys()
                  if parent.get(k, KeyError) != change.get(k, KeyError))


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
        space_metric_path = tmp / "two_torus_metric.json"
        if run(checkouts[0], ["-c", TWO_TORUS_METRIC, str(space_path),
                              str(space_metric_path)]):
            print("could not write the two-torus metric", file=sys.stderr)
            return 1
        differing = 0
        for cmd in commands(str(metric_path), str(space_path),
                            str(space_metric_path)):
            results = []
            for side, checkout in enumerate(checkouts):
                out = tmp / f"report_{side}.json"
                out.unlink(missing_ok=True)
                code = run(checkout, ["-m", "go_metric_lab", *cmd,
                                      "--out", str(out)])
                results.append((code, out.read_bytes() if out.exists()
                                else None))
            label = " ".join(cmd).replace(str(metric_path), "METRIC").replace(
                str(space_path), "SPACE").replace(str(space_metric_path), "M")
            if results[0] != results[1]:
                differing += 1
                keys = differing_keys([r for _, r in results])
                print(f"DIFFERS: {label} (exit {results[0][0]} vs "
                      f"{results[1][0]}); keys: {', '.join(keys) or 'none'}",
                      flush=True)
                continue
            print(f"same: {label} (exit {results[0][0]})", flush=True)
    if differing:
        print(f"{differing} of the reports differ")
        return 1
    print("all reports identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
