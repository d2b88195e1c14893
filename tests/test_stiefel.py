"""Stiefel pipeline: structure, rotation map, family checks, scans."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from go_metric_lab import go, lie_core, linalg, metric, stiefel
from go_metric_lab.stiefel import (NotPositiveDefiniteError, build_stiefel,
                                   metric_at, tilde_map, verify_family)
from oracles import (center_coefficient, gram_dot, identity, mat_add,
                     matrix_of, projector)


def test_build_examples(space):
    sp = space(3, 1)
    assert sp.dim_m == 5 and sp.decomp.s0.dim == 1
    assert [m.dim for m in sp.s1.members] == [4]
    sp = space(4, 2)
    assert sp.dim_m == 12 and sp.decomp.s0.dim == 4
    assert [m.dim for m in sp.s1.members] == [4, 4]
    sp = space(2, 1)
    assert sp.dim_m == 3


def test_build_rejects_bad_range():
    with pytest.raises(lie_core.InvalidDimensionError):
        build_stiefel(3, 3)
    with pytest.raises(lie_core.InvalidDimensionError):
        build_stiefel(3, 0)
    with pytest.raises(lie_core.InvalidDimensionError, match="n <= 8"):
        build_stiefel(9, 2)


def test_modules_match_coordinate_spans(space):
    # each module is spanned by unit coordinates e_ij, eb_im with j, m > k
    sp = space(5, 3)
    m_labels = []
    for v in sp.split.m_basis:
        nz = [j for j, c in enumerate(v) if c != 0]
        m_labels.append(sp.algebra.labels[nz[0]])
    for i, module in enumerate(sp.modules, start=1):
        assert module.dim == 2 * (5 - 3)
        got = set()
        for v in module.basis:
            nz = [j for j, c in enumerate(v) if c != 0]
            assert len(nz) == 1
            got.add(m_labels[nz[0]])
        expect = {f"e_{i}_{j}" for j in range(4, 6)}
        expect |= {f"eb_{i}_{j}" for j in range(4, 6)}
        assert got == expect


def test_tilde_examples(space):
    sp = space(3, 1)
    m_labels = []
    for v in sp.split.m_basis:
        nz = [j for j, c in enumerate(v) if c != 0]
        m_labels.append(sp.algebra.labels[nz[0]])
    x = linalg.zero_vec(sp.dim_m)
    x[m_labels.index("e_1_3")] = Fraction(1)
    out = tilde_map(sp, x)
    named = {m_labels[i]: c for i, c in enumerate(out) if c != 0}
    assert named == {"eb_1_3": Fraction(-1)}
    assert tilde_map(sp, linalg.zero_vec(sp.dim_m)) == linalg.zero_vec(sp.dim_m)


def test_tilde_rejects_outside_s1(space):
    sp = space(3, 2)
    with pytest.raises(ValueError):
        tilde_map(sp, sp.z0_m)


@given(st.integers(0, 10 ** 6))
def test_tilde_is_a_complex_structure(seed):
    sp = _cached_space()
    rng = random.Random(seed)
    coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(sp.s1.space.dim)]
    x = linalg.zero_vec(sp.dim_m)
    for c, b in zip(coeffs, sp.s1.space.basis):
        x = linalg.vec_add(x, linalg.vec_scale(c, b))
    assert tilde_map(sp, tilde_map(sp, x)) == linalg.vec_scale(Fraction(-1), x)


_SPACE = None


def _cached_space():
    global _SPACE
    if _SPACE is None:
        _SPACE = build_stiefel(3, 2)
    return _SPACE


# the witness map at t = 0 is X -> r(X) a_dir_h, r the center coefficient
# <X, z0> / <z0, z0>

def test_center_coefficient(space):
    sp = space(3, 2)
    r_of = stiefel.witness_map(sp, 0)
    x = linalg.vec_scale(Fraction(5, 2), sp.z0_m)
    assert r_of(x) == linalg.vec_scale(Fraction(5, 2), sp.a_dir_h)
    assert linalg.vec_is_zero(r_of(sp.s1.space.basis[0]))


@pytest.mark.parametrize("n,k", [(3, 2), (4, 3)])
def test_center_coefficient_matches_gram_formula(n, k, space):
    sp = space(n, k)
    gram = sp.split.gram_m
    r_of = stiefel.witness_map(sp, 0)
    rng = random.Random(7)
    for _ in range(20):
        x = lie_core.random_vector_of_len(sp.dim_m, rng)
        a = r_of(x)
        assert all(type(c) is Fraction for c in a)
        r = (gram_dot(gram, x, sp.z0_m)
             / gram_dot(gram, sp.z0_m, sp.z0_m))
        assert a == linalg.vec_scale(r, sp.a_dir_h)


def test_metric_at_pd_iff_positive(space):
    sp = space(3, 1)
    assert metric_at(sp, Fraction(1, 4)).is_pd
    assert matrix_of(metric_at(sp, 1)) == identity(sp.dim_m)
    a_neg = metric.from_matrix(
        sp.decomp,
        mat_add(identity(sp.dim_m),
                linalg.mat_scale(Fraction(-2), projector(
                    sp.ideals.center, sp.action.norms, sp.dim_m))))
    assert not a_neg.is_pd                      # this is A_t at t = -1


def test_witness_identities_all_spaces(space):
    for nk in [(2, 1), (3, 2), (4, 2)]:
        ids = stiefel.check_witness_identities(space(*nk))
        assert all(ids.values()), (nk, ids)


def test_witness_bracket_rejects_h_component(space):
    # [e_13, eb_13] has a component along eb_33, which lies in h
    sp = space(3, 2)
    labels = [sp.algebra.labels[next(j for j, c in enumerate(v) if c != 0)]
              for v in sp.split.m_basis]
    x = linalg.unit_vec(sp.dim_m, labels.index("e_1_3"))
    y = linalg.unit_vec(sp.dim_m, labels.index("eb_1_3"))
    with pytest.raises(ValueError, match="not in m"):
        sp.split.bracket_table.bracket_in_m(linalg.sparse(x), linalg.sparse(y))
    # the witness identities see it as the h-component of go._bracket
    assert go._bracket(sp.action, linalg.sparse(x), linalg.sparse(y))[1]


def test_module_bracket_lands_in_s0(space):
    # [e_{i,k+1}, e_{j,k+1}] = -e_ij for i != j <= k
    sp = space(4, 2)
    g = sp.algebra
    k = sp.k
    for i in range(1, k + 1):
        for j in range(1, k + 1):
            if i == j:
                continue
            x = g.vector((f"e_{i}_{k + 1}", 1))
            y = g.vector((f"e_{j}_{k + 1}", 1))
            br = lie_core.bracket(g, x, y)
            lo, hi = min(i, j), max(i, j)
            sign = -1 if i < j else 1            # e_ji = -e_ij
            assert br == g.vector((f"e_{lo}_{hi}", sign))
            br_m = sp.split.coords_in_m(br)
            assert sp.decomp.s0.space.coords_of(br_m, sp.split.norms_m) is not None


def test_verify_family_rejects_nonpositive_t(space):
    with pytest.raises(NotPositiveDefiniteError):
        verify_family(space(2, 1), [0])
    with pytest.raises(NotPositiveDefiniteError):
        verify_family(space(2, 1), [Fraction(-1)])


def test_verify_family_raises_on_a_non_pd_metric(space, monkeypatch):
    # the PD precondition of the certificate survives python -O
    sp = space(2, 1)
    monkeypatch.setattr(stiefel, "metric_at", lambda space, t: metric.from_matrix(
        space.decomp, linalg.mat_scale(Fraction(-1), identity(space.dim_m))))
    with pytest.raises(ArithmeticError, match="not positive definite"):
        verify_family(sp, [Fraction(2)])


def test_witness_map_matches_center_coefficient(space):
    sp = space(4, 2)
    rng = random.Random("witness-map")
    for t in (Fraction(1, 3), Fraction(5, 2)):
        w = stiefel.witness_map(sp, t)
        for _ in range(10):
            x = lie_core.random_vector_of_len(sp.dim_m, rng)
            r = center_coefficient(sp, x)
            assert w(x) == linalg.vec_scale(r * (1 - t), sp.a_dir_h)


def test_verify_family_t1_reduces_to_zero_witness(space):
    sp = space(3, 1)
    w = stiefel.witness_map(sp, 1)
    rng = random.Random(0)
    x = lie_core.random_vector_of_len(sp.dim_m, rng)
    assert linalg.vec_is_zero(w(x))             # a_1 = 0: [X, X] = 0


@pytest.mark.parametrize("n,k", [(2, 1), (3, 2)])
def test_verify_family_exact_zeros(n, k, space):
    rep = verify_family(space(n, k), [Fraction(1, 2), 1, 2, 3],
                        n_samples=25, seed=1)
    assert all(ids for ids in rep["identities"].values())
    for cert in rep["certificates"].values():
        assert cert.verdict == "verified-on-family"
        assert all(w.residual_sq == 0 for w in cert.witnesses)


def test_deformation_point_classifier(space):
    sp = space(3, 2)
    assert stiefel._is_deformation(sp, metric_at(sp, Fraction(7, 3)).columns)
    assert stiefel._is_deformation(sp, metric.from_matrix(
        sp.decomp, linalg.mat_scale(
            Fraction(3), matrix_of(metric_at(sp, Fraction(1, 2))))).columns)
    p1 = projector(sp.s1.members[0].space, sp.action.norms, sp.dim_m)
    a = metric.from_matrix(sp.decomp,
                           mat_add(identity(sp.dim_m), p1))
    assert not stiefel._is_deformation(sp, a.columns)


def test_grassmannian_cross_check(space):
    assert stiefel.grassmannian_cross_check(space(3, 2))
    assert stiefel.grassmannian_cross_check(space(4, 2))


def test_uniqueness_scan_coarse(space):
    sp = space(3, 2)
    spec = go.ScanSpec(grid=[Fraction(1), Fraction(2), Fraction(3)], seed=2,
                       survivor_random_probes=3)
    rep = stiefel.uniqueness_scan(sp, spec, offdiagonal_samples=25)
    grid = rep["grid"]
    assert grid["n_points"] == 81
    assert grid["n_survivors"] == 9              # equal scalars, free center
    assert grid["survivors_all_in_family"]
    assert grid["n_falsified"] == 72
    assert rep["off_diagonal"]["n_falsified"] == rep["off_diagonal"]["n_points"] > 0
    assert rep["grassmannian_cross_check"]


def test_uniqueness_scan_berger_note(space):
    sp = space(2, 1)
    spec = go.ScanSpec(grid=[Fraction(1), Fraction(2)], seed=0,
                       survivor_random_probes=2)
    rep = stiefel.uniqueness_scan(sp, spec, offdiagonal_samples=0)
    assert rep["grid"]["n_survivors"] == rep["grid"]["n_points"] == 4
    assert "note" in rep                        # k = n-1 fiber deformations


def test_reproduce_report_shape(space):
    rep = stiefel.reproduce_report(2, 1, resolution=Fraction(1), seed=3,
                                   offdiagonal_samples=0, n_samples=10)
    assert rep["space"]["dim_m"] == 3
    assert all(c["verdict"] == "verified-on-family"
               for c in rep["family_certificates"].values())
    assert rep["uniqueness"]["grid"]["survivors_all_in_family"]


def test_reproduce_report_range_check():
    with pytest.raises(lie_core.InvalidDimensionError):
        stiefel.reproduce_report(6, 6)
    with pytest.raises(lie_core.InvalidDimensionError):
        stiefel.reproduce_report(9, 1)


def test_uniqueness_scan_k1_all_grid_points_survive(space):
    # k = 1: the diagonal cone and the deformation cone coincide
    sp = space(3, 1)
    spec = go.ScanSpec(grid=[Fraction(1), Fraction(2)], seed=0,
                       survivor_random_probes=2)
    rep = stiefel.uniqueness_scan(sp, spec, offdiagonal_samples=0)
    assert rep["grid"]["n_survivors"] == rep["grid"]["n_points"] == 4
    assert rep["grid"]["survivors_all_in_family"]


def test_uniqueness_scan_53_coarse(space):
    # three equivalent modules: five diagonal parameters before merging
    sp = space(5, 3)
    spec = go.ScanSpec(grid=[Fraction(1), Fraction(2)], seed=4,
                       survivor_random_probes=2)
    rep = stiefel.uniqueness_scan(sp, spec, offdiagonal_samples=10)
    grid = rep["grid"]
    assert grid["n_points"] == 2 ** 5
    assert grid["n_survivors"] == 4            # all four scalars tied, z free
    assert grid["survivors_all_in_family"]
    assert rep["off_diagonal"]["n_falsified"] == 10


# ---------------------------------------------------------------------------
# the all-t certificate and proved grid survivors
# ---------------------------------------------------------------------------

def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_all_t_certificate_reuses_the_requested_t(space, monkeypatch):
    sp = space(3, 2)
    checks = _count_calls(monkeypatch, go, "go_check")
    rep = verify_family(sp, [Fraction(1, 2), 1, 2, 3], n_samples=5)
    assert rep["all_t"] == {"verified": True, "degree_bound": 2,
                            "t_values": ["1/2", "1", "2", "3"]}
    assert len(checks) == 4                     # no exact work beyond the t asked
    assert sorted(rep["certificates"]) == ["1", "1/2", "2", "3"]


def test_all_t_certificate_tops_up_below_three_t(space, monkeypatch):
    sp = space(3, 2)
    checks = _count_calls(monkeypatch, go, "go_check")
    rep = verify_family(sp, [Fraction(1, 2), 2], n_samples=5)
    assert rep["all_t"] == {"verified": True, "degree_bound": 2,
                            "t_values": ["1/2", "1", "2"]}
    assert len(checks) == 3
    assert checks[2][1]["count"] == 0           # the top-up at t = 1
    assert sorted(rep["certificates"]) == ["1/2", "2"]


def test_two_t_values_are_below_the_degree_bound(space):
    sp = space(3, 2)
    certs = verify_family(sp, [Fraction(1, 2), 2], n_samples=0)["certificates"]
    verdict = stiefel._all_t_verdict({Fraction(t): c for t, c in certs.items()})
    assert all(c.verdict == "verified-on-family" for c in certs.values())
    assert verdict == {"verified": False, "degree_bound": 2,
                       "t_values": ["1/2", "2"]}


def test_witness_without_the_one_minus_t_factor_fails_all_t(space, monkeypatch):
    # a_t(X) = r(X) sum_{i>k} eb_ii: the t = 0 witness at every t
    sp = space(3, 2)
    witness_map = stiefel.witness_map
    monkeypatch.setattr(stiefel, "witness_map",
                        lambda space, t: witness_map(space, 0))
    assert stiefel.certify_all_t(sp, {}) == {
        "verified": False, "degree_bound": 2, "t_values": []}


def test_theorem_grid_survivors_make_no_least_squares_solve(monkeypatch):
    # the (3,2) resolution-1 grid: 16 survivors, each lambda A_t; sampling
    # them took 20 probes, 320 go_solve_at calls
    solves = _count_calls(monkeypatch, go, "go_solve_at")
    rep = stiefel.reproduce_report(3, 2, resolution=Fraction(1), seed=123,
                                   offdiagonal_samples=0, n_samples=10)
    assert len(solves) == 0
    grid = rep["uniqueness"]["grid"]
    assert rep["family_all_t"]["verified"]
    assert grid["n_survivors"] == grid["n_survivors_proved"] == 16
    assert grid["survivors_all_in_family"]


_GRID_32 = [Fraction(1, 4) + i for i in range(4)]


def _without_proved(result):
    return [{k: v for k, v in e.items() if k != "proved"}
            for e in result.survivors]


def test_proved_scan_equals_the_sampled_scan(space):
    sp = space(3, 2)
    diag = stiefel.diagonal_family(sp)
    spec = go.ScanSpec(grid=_GRID_32, seed=7)
    proved = go.search_go(sp.decomp, diag, spec,
                          prove=stiefel._deformation_test(sp, diag))
    sampled = go.search_go(sp.decomp, diag, spec)
    assert all(e["proved"] for e in proved.survivors)
    assert all("proved" not in e for e in sampled.survivors)
    assert _without_proved(proved) == sampled.survivors
    assert (proved.falsified, proved.n_points, proved.notes) == (
        sampled.falsified, sampled.n_points, sampled.notes)

    all_t = verify_family(sp, [1, 2, 3], n_samples=0)["all_t"]
    rep = stiefel.uniqueness_scan(sp, spec, offdiagonal_samples=5,
                                  all_t=all_t)
    ref = stiefel.uniqueness_scan(sp, spec, offdiagonal_samples=5)
    assert (rep["grid"].pop("n_survivors_proved"),
            ref["grid"].pop("n_survivors_proved")) == (16, 0)
    assert rep == ref


def test_unproved_survivors_run_their_seeded_probes(space, monkeypatch):
    sp = space(3, 2)
    diag = stiefel.diagonal_family(sp)
    spec = go.ScanSpec(grid=_GRID_32, seed=7, survivor_random_probes=2)
    in_family = stiefel._deformation_test(sp, diag)
    # accept only the survivors whose center weight is 1/4
    prove = lambda values: values[-1] == Fraction(1, 4) and in_family(values)
    checks = _count_calls(monkeypatch, go, "go_check")
    partly = go.search_go(sp.decomp, diag, spec, prove=prove)
    sampled_seeds = sorted(kw["seed"] for _, kw in checks)
    del checks[:]
    unproved = go.search_go(sp.decomp, diag, spec)
    assert len(checks) == len(unproved.survivors) == 16
    index = {p: i for i, p in enumerate(itertools.product(
        [linalg.frac_to_str(v) for v in _GRID_32], repeat=4))}
    seeds = {tuple(e["params"]): 7 * 1_000_003 + index[tuple(e["params"])]
             for e in unproved.survivors}
    assert sorted(kw["seed"] for _, kw in checks) == sorted(seeds.values())
    assert sampled_seeds == sorted(
        seeds[tuple(e["params"])] for e in partly.survivors if not e["proved"])
    assert sum(e["proved"] for e in partly.survivors) == 4
    assert _without_proved(partly) == unproved.survivors


def test_proved_scan_is_the_same_across_jobs(space):
    sp = space(3, 2)
    diag = stiefel.diagonal_family(sp)
    prove = stiefel._deformation_test(sp, diag)
    runs = [go.search_go(sp.decomp, diag,
                         go.ScanSpec(grid=[Fraction(1), Fraction(3)], seed=5,
                                     jobs=jobs), prove=prove)
            for jobs in (1, 2)]
    assert runs[0] == runs[1]
    assert all(e["proved"] for e in runs[0].survivors)
