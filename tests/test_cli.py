"""Command-line interface: reports, exit codes, determinism."""

import json
import pathlib
import re
import subprocess
import sys

import pytest

from go_metric_lab import cli, go, stiefel
import oracles


def run_cli(args):
    return cli.main(args)


def test_decompose_stiefel_4_2(tmp_path):
    out = tmp_path / "dec.json"
    code = run_cli(["decompose", "stiefel", "4", "2", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["dim_s0"] == 4
    nontrivial = [s for s in data["summands"] if not s["trivial"]]
    assert len(nontrivial) == 1
    assert nontrivial[0]["member_dims"] == [4, 4]


def test_decompose_stiefel_2_1(tmp_path):
    out = tmp_path / "dec.json"
    assert run_cli(["decompose", "stiefel", "2", "1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["dim_s0"] == 1
    assert [s["dim"] for s in data["summands"]] == [1, 2]


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["decompose", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_check_go_family_exit_zero(tmp_path):
    out = tmp_path / "cert.json"
    code = run_cli(["check-go", "stiefel", "3", "1", "--family-t", "2",
                    "--strategy", "family", "--count", "5",
                    "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["verdict"] == "verified-on-family"
    assert data["normalizer_equivariant"] is True


def test_check_go_identity_params_exit_zero(tmp_path, space):
    from go_metric_lab import metric
    from oracles import identity_metric
    sp = space(3, 2)
    a_id = identity_metric(sp.decomp)
    mfile = tmp_path / "id.json"
    mfile.write_text(json.dumps(oracles.metric_to_json_dict(a_id)))
    out = tmp_path / "cert.json"
    code = run_cli(["check-go", "stiefel", "3", "2", "--metric", str(mfile),
                    "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["verdict"] == "passed-sampling"


def test_check_go_falsified_exit_one(tmp_path, space):
    from go_metric_lab import metric
    from oracles import identity, mat_add, projector
    sp = space(3, 2)
    p_s1 = projector(sp.s1.space, sp.action.norms, sp.dim_m)
    amat = mat_add(identity(sp.dim_m), p_s1)
    a = metric.from_matrix(sp.decomp, amat)
    mfile = tmp_path / "bad_metric.json"
    mfile.write_text(json.dumps(oracles.metric_to_json_dict(a)))
    out = tmp_path / "cert.json"
    code = run_cli(["check-go", "stiefel", "3", "2", "--metric", str(mfile),
                    "--out", str(out)])
    assert code == 1
    data = json.loads(out.read_text())
    assert data["verdict"] == "falsified"
    assert data["falsifier"]["residual_sq"] != "0/1"


def test_check_go_rejects_bad_dims(capsys):
    assert run_cli(["check-go", "stiefel", "6", "6", "--family-t", "2"]) == 2


def test_check_go_rejects_nonpositive_t(capsys):
    assert run_cli(["check-go", "stiefel", "2", "1", "--family-t", "-1"]) == 2


def test_reproduce_theorem_berger_note(tmp_path):
    out = tmp_path / "rep.json"
    code = run_cli(["reproduce-theorem", "2", "1", "--resolution", "1",
                    "--offdiagonal-samples", "0", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert "note" in data["uniqueness"]


def test_reproduce_theorem_rejects_out_of_range(capsys):
    assert run_cli(["reproduce-theorem", "6", "6"]) == 2


@pytest.mark.parametrize("args", [
    ["decompose", "stiefel", "9", "2"],
    ["check-go", "stiefel", "9", "2", "--family-t", "2"],
    ["reproduce-theorem", "9", "2"],
], ids=["decompose", "check-go", "reproduce-theorem"])
def test_stiefel_above_n_8_exits_2_before_building(args, capsys, monkeypatch):
    # one range check guards every command, ahead of any construction
    from go_metric_lab import lie_core

    def no_build(n):
        raise AssertionError(f"u({n}) was built")

    monkeypatch.setattr(lie_core, "build_un", no_build)
    assert run_cli(args) == 2
    assert "1 <= k < n <= 8" in capsys.readouterr().err


def test_env_seed_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("GO_METRIC_LAB_SEED", "17")
    parser = cli.build_parser()
    args = parser.parse_args(["decompose", "stiefel", "2", "1"])
    assert args.seed == 17


def test_malformed_env_seed_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GO_METRIC_LAB_SEED", "abc")
    out = tmp_path / "dec.json"
    assert run_cli(["decompose", "stiefel", "2", "1", "--out", str(out)]) == 2
    assert "GO_METRIC_LAB_SEED" in capsys.readouterr().err
    assert not out.exists()


def test_module_entry_point(tmp_path):
    out = tmp_path / "dec.json"
    proc = subprocess.run(
        [sys.executable, "-m", "go_metric_lab", "decompose", "stiefel",
         "2", "1", "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(out.read_text())["dim_m"] == 3


def _space_file(tmp_path, n, k):
    from go_metric_lab import decomp, lie_core
    g = lie_core.build_un(n)
    h = decomp.diagonal_u_nk(g, k)
    split = decomp.reductive_split(g, h)
    payload = {"algebra": lie_core.to_json_dict(g)}
    payload.update(oracles.split_to_json_dict(split))
    path = tmp_path / f"space_{n}_{k}.json"
    path.write_text(json.dumps(payload))
    return path


def test_decompose_from_space_file(tmp_path):
    path = _space_file(tmp_path, 3, 2)
    out = tmp_path / "dec.json"
    assert run_cli(["decompose", str(path), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["dim_s0"] == 4
    assert data["dim_m"] == 8


def test_check_go_from_space_file(tmp_path):
    from go_metric_lab import decomp, isotropy, lie_core, metric
    from oracles import identity_metric
    path = _space_file(tmp_path, 3, 1)
    g = lie_core.build_un(3)
    split = decomp.reductive_split(g, decomp.diagonal_u_nk(g, 1))
    dec = isotropy.decompose_isotypic(isotropy.isotropy_action(split))
    a_id = identity_metric(dec)
    mfile = tmp_path / "metric.json"
    mfile.write_text(json.dumps(oracles.metric_to_json_dict(a_id)))
    out = tmp_path / "cert.json"
    assert run_cli(["check-go", str(path), "--metric", str(mfile),
                    "--out", str(out)]) == 0
    assert json.loads(out.read_text())["verdict"] == "passed-sampling"


def test_space_file_with_non_subalgebra_exits_2(tmp_path, capsys):
    from go_metric_lab import lie_core
    g = lie_core.build_un(3)
    payload = {"algebra": lie_core.to_json_dict(g),
               "h_basis": [["1/1"] + ["0/1"] * 8,        # e_12
                           ["0/1", "1/1"] + ["0/1"] * 7]}  # e_13: not closed
    path = tmp_path / "bad_space.json"
    path.write_text(json.dumps(payload))
    assert run_cli(["decompose", str(path)]) == 2
    assert "bad space file" in capsys.readouterr().err


def test_space_file_with_broken_jacobi_exits_2(tmp_path, capsys):
    # the antisymmetric mutation of test_validate_detects_broken_jacobi
    import dataclasses
    from go_metric_lab import lie_core
    g = lie_core.build_un(2)
    tampered = {k: dict(v) for k, v in g.structure.items()}
    key = next(k for k in tampered if k[0] < k[1])
    tampered[key] = {k: c + 2 for k, c in tampered[key].items()}
    tampered[(key[1], key[0])] = {k: -c for k, c in tampered[key].items()}
    bad = dataclasses.replace(g, structure=tampered, basis=None)
    payload = {"algebra": lie_core.to_json_dict(bad),
               "h_basis": [["0/1", "0/1", "0/1", "1/1"]]}   # eb_22
    path = tmp_path / "bad_algebra.json"
    path.write_text(json.dumps(payload))
    assert run_cli(["decompose", str(path)]) == 2
    err = capsys.readouterr().err
    assert "bad space file" in err and "algebra fails the jacobi check" in err


def test_space_file_with_wrong_json_types_exits_2(tmp_path, capsys):
    path = tmp_path / "list_algebra.json"
    path.write_text(json.dumps({"algebra": [1, 2], "h_basis": []}))
    assert run_cli(["decompose", str(path)]) == 2
    assert "bad space file" in capsys.readouterr().err


def test_same_seed_reports_identical(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert run_cli(["reproduce-theorem", "2", "1", "--resolution", "1",
                        "--offdiagonal-samples", "10", "--seed", "9",
                        "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


DECOMPOSE_2_1 = ["decompose", "stiefel", "2", "1"]


@pytest.mark.parametrize("args", [
    DECOMPOSE_2_1 + ["--mode", "float"],
    DECOMPOSE_2_1 + ["--tol", "1e-9"],
    # no command runs workers, so none takes --jobs
    DECOMPOSE_2_1 + ["--jobs", "2"],
    ["check-go", "stiefel", "2", "1", "--family-t", "2", "--jobs", "2"],
    ["reproduce-theorem", "2", "1", "--jobs", "2"],
    # one metric source at a time; the metric file is never read
    ["check-go", "stiefel", "2", "1", "--metric", "BAD.json",
     "--family-t", "2", "--strategy", "family"],
    ["reproduce-theorem", "2", "1", "--jobs", "0"],
    ["reproduce-theorem", "2", "1", "--jobs", "-3"],
])
def test_rejected_flags_exit_2(args, capsys):
    assert run_cli(args) == 2


def test_mode_exact_still_accepted(tmp_path):
    out = tmp_path / "dec.json"
    assert run_cli(["decompose", "stiefel", "2", "1", "--mode", "exact",
                    "--out", str(out)]) == 0
    assert json.loads(out.read_text())["mode"] == "exact"


def _reproduce_script_main(argv):
    import importlib.util
    import pathlib
    path = pathlib.Path(__file__).parents[1] / "scripts" / "reproduce_stiefel.py"
    spec = importlib.util.spec_from_file_location("reproduce_stiefel", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main(argv)


@pytest.mark.parametrize("entry", [
    lambda argv: run_cli(["reproduce-theorem", *argv]),
    _reproduce_script_main,
], ids=["cli", "script"])
@pytest.mark.parametrize("off_survivors,code", [(0, 0), (1, 1)])
def test_reproduce_exit_code_counts_offdiagonal_survivors(
        entry, off_survivors, code, tmp_path, monkeypatch):
    from go_metric_lab import stiefel

    def fake_report(n, k, **kwargs):
        return {
            "space": {"n": n, "k": k},
            "seed": 0,
            "family_identities": {"center_rotates_s1": True},
            "family_certificates": {"1": {"verdict": "verified-on-family"}},
            "family_all_t": {"verified": True},
            "uniqueness": {
                "grid": {"n_survivors": 4, "survivors_all_in_family": True},
                "off_diagonal": {"n_survivors": off_survivors},
                "grassmannian_cross_check": True,
            },
        }

    monkeypatch.setattr(stiefel, "reproduce_report", fake_report)
    out = tmp_path / "rep.json"
    assert entry(["3", "2", "--out", str(out)]) == code
    assert json.loads(out.read_text())["mode"] == "exact"


def test_reproduce_exits_1_on_a_draw_shortfall(tmp_path, accept_first_draws):
    # fewer off-diagonal draws than asked leave the claim unchecked: exit
    # 1, with the report written and the shortfall noted in it
    args = ["reproduce-theorem", "3", "2", "--resolution", "1",
            "--offdiagonal-samples", "8", "--seed", "0"]
    out = tmp_path / "full.json"
    assert run_cli([*args, "--out", str(out)]) == 0
    assert "notes" not in json.loads(out.read_text())["uniqueness"][
        "off_diagonal"]
    accept_first_draws(3)
    out = tmp_path / "short.json"
    assert run_cli([*args, "--out", str(out)]) == 1
    off = json.loads(out.read_text())["uniqueness"]["off_diagonal"]
    assert (off["n_points"], off["n_survivors"]) == (3, 0)
    assert off["notes"] == ["drew 3 of 8 positive definite samples"]


def test_reproduce_exit_code_needs_the_all_t_certificate(tmp_path, monkeypatch):
    # a certificate that fails on one pair: exit 1 with the report written,
    # the failure named, and no per-t view verified
    from go_metric_lab import stiefel
    certify = stiefel.certify_family

    def failing(data):
        proof = certify(data)
        proof.nonzero[(1, 0, 2)] = ({0: 1}, {})
        return proof

    monkeypatch.setattr(stiefel, "certify_family", failing)
    out = tmp_path / "rep.json"
    assert run_cli(["reproduce-theorem", "2", "1", "--resolution", "2",
                    "--offdiagonal-samples", "0", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    all_t = report["family_all_t"]
    assert not all_t["verified"]
    failure = all_t["first_failure"]
    assert (failure["coefficient"], failure["pair"], failure["part"],
            failure["index"]) == (1, [0, 2], "m", 0)
    assert all(c["verdict"] != "verified-on-family"
               for c in report["family_certificates"].values())
    grid = report["uniqueness"]["grid"]
    assert grid["survivors_all_in_family"] and grid["n_survivors"] > 0
    assert grid["n_survivors_proved"] == 0      # no proof: sampled instead


def test_reproduce_exit_code_needs_the_grassmannian_cross_check(
        tmp_path, monkeypatch):
    # S1 reducible under h (+) S0 fails the claim: exit 1, report written
    from go_metric_lab import stiefel
    monkeypatch.setattr(stiefel, "grassmannian_cross_check",
                        lambda space: False)
    out = tmp_path / "rep.json"
    assert run_cli(["reproduce-theorem", "2", "1", "--resolution", "2",
                    "--offdiagonal-samples", "0", "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["uniqueness"]["grassmannian_cross_check"] is False
    assert report["family_all_t"]["verified"]
    grid = report["uniqueness"]["grid"]
    assert grid["survivors_all_in_family"] and grid["n_survivors"] > 0


def test_reproduce_exits_1_naming_t_when_the_witness_map_fails(
        tmp_path, monkeypatch, capsys):
    # a_t(X) = r(X) sum_{i>k} eb_ii without the (1 - t) factor, which is
    # the map at t = 0: the report names the power of t where it fails
    from go_metric_lab import stiefel
    family_data = stiefel._family_data

    def t_free(space):
        data = family_data(space)
        return stiefel.FamilyData(decomp=data.decomp, metric=data.metric,
                                  witness=data.witness[:1])

    monkeypatch.setattr(stiefel, "_family_data", t_free)
    out = tmp_path / "rep.json"
    assert run_cli(["reproduce-theorem", "2", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ""
    report = json.loads(out.read_text())
    assert report["family_all_t"]["first_failure"]["coefficient"] == 1
    assert report["family_all_t"]["n_coefficients"] == 2
    # A_t itself passes: the failing probes are solved, never falsified
    assert {c["verdict"] for c in report["family_certificates"].values()} == {
        "passed-sampling"}


STAGE_LINE = re.compile(r"^stage (\w+): \d+\.\d{3} s$")


def _stages(err):
    lines = err.splitlines()
    assert all(STAGE_LINE.match(line) for line in lines), lines
    return [STAGE_LINE.match(line).group(1) for line in lines]


def test_verbose_prints_stage_lines_and_keeps_reports(tmp_path, capsys):
    golden = pathlib.Path(__file__).parent / "golden"
    out = tmp_path / "rep.json"
    assert run_cli(["reproduce-theorem", "3", "2", "--resolution", "1",
                    "--offdiagonal-samples", "10", "--seed", "123",
                    "--out", str(out), "--verbose"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _stages(captured.err) == ["build", "verify", "reduce", "scan"]
    assert out.read_bytes() == (golden / "reproduce_theorem_3_2.json").read_bytes()

    assert run_cli(["decompose", "stiefel", "2", "1"]) == 0
    quiet = capsys.readouterr()
    assert quiet.err == ""
    assert run_cli(["decompose", "stiefel", "2", "1", "--verbose"]) == 0
    loud = capsys.readouterr()
    assert loud.out == quiet.out
    assert _stages(loud.err) == ["build", "report"]


@pytest.mark.parametrize("args", [
    ["--strategy", "random", "--count", "0"],
    ["--strategy", "random", "--count", "-4"],
    ["--strategy", "family", "--count", "-4"],
    ["--strategy", "basis", "--count", "-1"],
    ["--strategy", "family", "--count", "-1"],
    ["--strategy", "random", "--count", str(go.MAX_SAMPLES + 1)],
    ["--strategy", "family", "--count", str(go.MAX_SAMPLES + 1)],
])
def test_check_go_rejects_bad_count(args, tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert run_cli(["check-go", "stiefel", "2", "1", "--family-t", "2",
                    *args, "--out", str(out)]) == 2
    assert "--count" in capsys.readouterr().err
    assert not out.exists()


def test_sample_counts_above_the_bound_exit_before_any_work(monkeypatch,
                                                            capsys):
    # one past go.MAX_SAMPLES: the argument parser refuses it, so neither
    # the space nor the report is built
    def no_work(*args, **kwargs):
        raise AssertionError("exact work ran")

    monkeypatch.setattr(stiefel, "build_stiefel", no_work)
    monkeypatch.setattr(stiefel, "reproduce_report", no_work)
    over = str(go.MAX_SAMPLES + 1)
    assert run_cli(["check-go", "stiefel", "3", "2", "--family-t", "2",
                    "--strategy", "random", "--count", over]) == 2
    assert f"must be at most {go.MAX_SAMPLES}" in capsys.readouterr().err
    assert run_cli(["reproduce-theorem", "3", "2",
                    "--offdiagonal-samples", over]) == 2
    assert "--offdiagonal-samples" in capsys.readouterr().err


def test_check_go_random_with_one_probe_still_runs(tmp_path):
    out = tmp_path / "cert.json"
    assert run_cli(["check-go", "stiefel", "2", "1", "--family-t", "2",
                    "--strategy", "random", "--count", "1",
                    "--out", str(out)]) == 0
    assert json.loads(out.read_text())["count"] == 1


@pytest.mark.parametrize("entry", [
    lambda argv: run_cli(["reproduce-theorem", *argv]),
    _reproduce_script_main,
], ids=["cli", "script"])
@pytest.mark.parametrize("args,flag", [
    (["--resolution", "-1"], "--resolution"),
    (["--resolution", "0"], "--resolution"),
    (["--resolution", "1/0"], "--resolution"),
    (["--resolution", "half"], "--resolution"),
    (["--offdiagonal-samples", "-3"], "--offdiagonal-samples"),
    (["--offdiagonal-samples", str(go.MAX_SAMPLES + 1)],
     "--offdiagonal-samples"),
    (["--resolution", "1/2668"], "--resolution"),
])
def test_reproduce_rejects_bad_grid_and_sample_flags(entry, args, flag,
                                                     tmp_path, capsys):
    out = tmp_path / "rep.json"
    assert entry(["2", "1", *args, "--out", str(out)]) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def _validate_un_main(argv):
    import importlib.util
    path = pathlib.Path(__file__).parents[1] / "scripts" / "validate_un.py"
    spec = importlib.util.spec_from_file_location("validate_un", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main(argv)


@pytest.mark.parametrize("max_n", ["0", "-2"])
def test_validate_un_rejects_max_n_below_one(max_n, capsys):
    with pytest.raises(SystemExit) as exc:
        _validate_un_main(["--max-n", max_n])
    assert exc.value.code == 2
    assert "--max-n" in capsys.readouterr().err


def test_validate_un_times_build_and_validation_apart(capsys):
    assert _validate_un_main(["--max-n", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    for n, line in enumerate(lines, start=1):
        assert re.fullmatch(rf"u\({n}\): dim +{n * n}  ok  "
                            r"\(build \d+\.\d{3}s, validate \d+\.\d{2}s\)", line)
