"""Byte-for-byte comparison of CLI reports against committed golden files.

The files under tests/golden/ pin the exact bytes of five reports.  A change
that is meant to keep behaviour (same verdicts, certificates and reports)
must leave them untouched.  A change that alters a report on purpose
regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and says why in its description.
"""

import json
import pathlib
import sys

import pytest

from go_metric_lab import cli
import oracles

GOLDEN = pathlib.Path(__file__).parent / "golden"


def _space_file(workdir, n, k):
    from go_metric_lab import decomp, lie_core
    g = lie_core.build_un(n)
    split = decomp.reductive_split(g, decomp.diagonal_u_nk(g, k))
    payload = {"algebra": lie_core.to_json_dict(g)}
    payload.update(oracles.split_to_json_dict(split))
    path = workdir / f"space_{n}_{k}.json"
    path.write_text(json.dumps(payload))
    return path


def _identity_metric_file(workdir, n, k):
    from go_metric_lab import metric, stiefel
    from oracles import identity
    sp = stiefel.build_stiefel(n, k)
    path = workdir / f"identity_{n}_{k}.json"
    path.write_text(json.dumps(oracles.metric_to_json_dict(
        metric.from_matrix(sp.decomp, identity(sp.dim_m)))))
    return path


CASES = {
    "decompose_stiefel_4_2.json":
        lambda w: ["decompose", "stiefel", "4", "2"],
    "decompose_space_file_3_2.json":
        lambda w: ["decompose", str(_space_file(w, 3, 2))],
    "check_go_stiefel_3_2_basis_identity.json":
        lambda w: ["check-go", "stiefel", "3", "2", "--strategy", "basis",
                   "--metric", str(_identity_metric_file(w, 3, 2))],
    "reproduce_theorem_3_2.json":
        lambda w: ["reproduce-theorem", "3", "2", "--resolution", "1",
                   "--offdiagonal-samples", "10", "--seed", "123"],
    "reproduce_theorem_4_2.json":
        lambda w: ["reproduce-theorem", "4", "2", "--resolution", "1",
                   "--offdiagonal-samples", "4", "--seed", "7"],
}


def _report(name, workdir):
    out = workdir / name
    args = CASES[name](workdir) + ["--out", str(out)]
    if "--seed" not in args:
        args += ["--seed", "0"]
    code = cli.main(args)
    return code, out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, tmp_path):
    code, data = _report(name, tmp_path)
    assert code == 0
    assert data == (GOLDEN / name).read_bytes()


if __name__ == "__main__":
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            _, data = _report(case, pathlib.Path(tmp))
            (GOLDEN / case).write_bytes(data)
            print(f"wrote {GOLDEN / case}", file=sys.stderr)
