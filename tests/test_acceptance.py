"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete.  Every tolerance is exact-rational unless stated otherwise.
"""

import functools
import json
import random
import time
from fractions import Fraction

from go_metric_lab import (cli, decomp, go, isotropy, lie_core, linalg,
                           metric, stiefel)
from oracles import dense_op, identity_metric, mat_add, projector

SPACES = [(2, 1), (3, 1), (3, 2), (4, 2), (5, 2), (5, 3)]


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {num}: FAIL  {desc}")
                raise
            print(f"\ncriterion {num}: PASS  {desc}")
        return wrapper
    return deco


@criterion(1, "exact validation of u(2)..u(5) under 30 s")
def test_criterion_1_exact_algebra_suite(un):
    t0 = time.time()
    for n in (2, 3, 4, 5):
        report = lie_core.validate_algebra(un(n))
        for name in ("closure", "antisymmetry", "jacobi", "orthogonality",
                     "positive_definite", "ad_invariance"):
            assert report[name].passed, (n, name, report[name].detail)
    assert time.time() - t0 < 30


@criterion(2, "structure table equals matrix commutators on u(5), exactly")
def test_criterion_2_bracket_oracle_equivalence(un):
    g = un(5)
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            comm = lie_core.commutator(g.basis[i], g.basis[j])
            expect = lie_core.expand_in_basis(g, comm)
            table = g.structure.get((i, j), {})
            got = [table.get(k, Fraction(0)) for k in range(g.dim)]
            assert got == expect, (g.labels[i], g.labels[j])


@criterion(3, "isotypical decomposition dimensions on all six spaces, exact")
def test_criterion_3_decomposition_dimensions(space):
    for n, k in SPACES:
        sp = space(n, k)
        dec = sp.decomp
        assert dec.s0.dim == k * k, (n, k)
        nontrivial = dec.nontrivial_summands()
        assert len(nontrivial) == 1, (n, k)
        s1 = nontrivial[0]
        assert len(s1.members) == k, (n, k)
        assert all(m.dim == 2 * (n - k) for m in s1.members), (n, k)
        for a in range(k):
            for b in range(k):
                if a == b:
                    continue
                phis = s1.intertwiner_bases[(a, b)]
                assert phis, (n, k, a, b)
        line = dec.s0.members[0].space
        for m in s1.members:
            assert isotropy.intertwiners(dec.action, m.space, line) == []
            assert isotropy.intertwiners(dec.action, line, m.space) == []


@criterion(4, "deformation family verifies with exactly-zero residuals")
def test_criterion_4_family_verification(space):
    for n, k in SPACES:
        t0 = time.time()
        rep = stiefel.verify_family(space(n, k), [Fraction(1, 2), 1, 2, 3],
                                    n_samples=100, seed=20260808)
        for t, cert in rep["certificates"].items():
            assert cert.verdict == "verified-on-family", (n, k, t)
            assert all(w.residual_sq == 0 for w in cert.witnesses), (n, k, t)
        assert time.time() - t0 < 120, (n, k)


@criterion(5, "reduction trace and exhaustive quarter-grid uniqueness scan")
def test_criterion_5_uniqueness(space):
    # (a) the reduced family and its trace, for every k >= 2 space
    for n, k in [(3, 2), (4, 2), (5, 2), (5, 3)]:
        sp = space(n, k)
        family, trace = go.reduce_family(sp.decomp)
        assert family.n_params == 2, (n, k)
        desc = family.describe()
        assert [b["dim"] for b in desc["operator_blocks"]] == [1], (n, k)
        assert len(desc["scalar_classes"]) == 1, (n, k)

        fired = {s.tag for s in trace.steps if s.fired}
        assert {"3.4", "3.5", "3.2"} <= fired, (n, k)
        w35 = [w["x"] for s in trace.fired("3.5") for w in s.witnesses]
        for i in range(1, k + 1):
            assert {f"eb_{i}_{i}": "1/1"} in w35, (n, k, i)
        edges = [w for s in trace.fired("3.2") for w in s.witnesses
                 if "pair" in w]
        module_pair = [w for w in edges
                       if w["bracket"] == {"e_1_2": "-1/1"}
                       and set(w["x"]) == {f"e_1_{k + 1}"}
                       and set(w["y"]) == {f"e_2_{k + 1}"}]
        assert module_pair, (n, k, "missing module-pair bracket witness")
        su_mix = [w for w in edges
                  if w["bracket"] in ({"e_2_" + str(k + 1): "-1/1"},
                                      {"e_2_" + str(k + 1): "1/1"})
                  and ({"e_1_2": "1/1"} in (w["x"], w["y"]))
                  and ({f"e_1_{k + 1}": "1/1"} in (w["x"], w["y"]))]
        assert su_mix, (n, k, "missing su(k) to module bracket witness")

    # (b) exhaustive quarter grids on (3,2) and (4,2), plus full-cone samples
    for n, k in [(3, 2), (4, 2)]:
        sp = space(n, k)
        spec = go.ScanSpec(seed=20260808, jobs=2)
        rep = stiefel.uniqueness_scan(sp, spec, offdiagonal_samples=120)
        grid = rep["grid"]
        assert grid["n_points"] == 16 ** 4, (n, k)
        assert grid["n_survivors"] == 16 * 16, (n, k)
        assert grid["survivors_all_in_family"], (n, k)
        assert grid["n_falsified"] == 16 ** 4 - 16 * 16, (n, k)
        for entry in grid["falsified_sample"]:
            assert linalg.frac_from_str(entry["residual_sq"]) > 0, (n, k)
        off = rep["off_diagonal"]
        assert off["n_points"] == 120, (n, k)
        assert off["n_falsified"] == off["n_points"], (n, k)
        assert rep["grassmannian_cross_check"], (n, k)


@criterion(6, "defect [X, AX] has no h-component on 1000 random pairs")
def test_criterion_6_proof_invariant(space):
    rng = random.Random("acceptance-6")
    checked = 0
    per_space = 250
    for n, k in [(2, 1), (3, 1), (3, 2), (4, 2)]:
        sp = space(n, k)
        basis = sp.decomp.sym_commutant_basis()
        for _ in range(per_space):
            params = [Fraction(rng.randint(1, 6), rng.choice((1, 2)))
                      for _ in basis]
            a = metric.from_parameters(sp.decomp, params)
            x = lie_core.random_vector_of_len(sp.dim_m, rng)
            ax = linalg.mat_vec(a.matrix, x)
            c_g = lie_core.bracket(sp.algebra, sp.split.m_to_g(x),
                                   sp.split.m_to_g(ax))
            assert linalg.vec_is_zero(decomp.project(sp.split, c_g, "h"))
            checked += 1
    assert checked == 1000


@criterion(7, "normalizer equivariance consistent with the GO verdicts")
def test_criterion_7_normalizer_consistency(space):
    rng = random.Random("acceptance-7")
    for n, k in [(3, 2), (4, 2)]:
        sp = space(n, k)
        dec = sp.decomp
        norms = sp.action.norms
        candidates = [
            identity_metric(dec),
            stiefel.metric_at(sp, Fraction(1, 2)),
            stiefel.metric_at(sp, 3),
        ]
        # unequal weights on the two equivalent modules (fails equivariance)
        p1 = projector(sp.s1.members[0].space, norms, sp.dim_m)
        candidates.append(metric.from_matrix(
            dec, mat_add(linalg.identity(sp.dim_m), p1)))
        # equal on modules, different from su(k) (passes equivariance)
        ps1 = projector(sp.s1.space, norms, sp.dim_m)
        candidates.append(metric.from_matrix(
            dec, mat_add(linalg.identity(sp.dim_m), ps1)))
        # off-diagonal intertwiner component
        fam = metric.full_family(dec)
        blk = fam.intertwiner_blocks[0]
        mix = dense_op(metric._intertwiner_pair_op(dec, blk, blk.phis[0]),
                       dec.dim)
        candidates.append(metric.from_matrix(
            dec, mat_add(linalg.mat_scale(Fraction(4), linalg.identity(sp.dim_m)),
                         mix)))
        # random commutant points
        basis = dec.sym_commutant_basis()
        while sum(1 for a in candidates if a.is_pd) < len(candidates) or \
                len(candidates) < 12:
            params = [Fraction(rng.randint(0, 4), rng.choice((1, 2, 4)))
                      for _ in basis]
            a = metric.from_parameters(dec, params)
            if a.is_pd:
                candidates.append(a)

        ne_ops = metric.normalizer_ops(dec)
        for a in candidates:
            if not a.is_pd:
                continue
            cert = go.go_check(a, strategy="basis", keep_witnesses=False)
            if cert.verdict != "falsified":
                extra = go.go_check(a, strategy="random", count=40,
                                    seed=99, keep_witnesses=False)
                if extra.verdict == "falsified":
                    cert = extra
            ne = metric.check_normalizer_equivariance(a, ne_ops)
            if cert.verdict != "falsified":
                assert ne, (n, k, "sampled-GO metric failed equivariance")
            if not ne:
                assert cert.verdict == "falsified", \
                    (n, k, "equivariance failure escaped falsification")


@criterion(8, "reproduce-theorem(4,2) reports byte-identical at jobs 1 and 8")
def test_criterion_8_determinism(tmp_path):
    out1 = tmp_path / "jobs1.json"
    out8 = tmp_path / "jobs8.json"
    base = ["reproduce-theorem", "4", "2", "--resolution", "1",
            "--offdiagonal-samples", "40", "--seed", "123"]
    assert cli.main(base + ["--jobs", "1", "--out", str(out1)]) == 0
    assert cli.main(base + ["--jobs", "8", "--out", str(out8)]) == 0
    b1 = out1.read_bytes()
    b8 = out8.read_bytes()
    assert b1 == b8
    data = json.loads(b1)
    assert data["uniqueness"]["grid"]["survivors_all_in_family"]
