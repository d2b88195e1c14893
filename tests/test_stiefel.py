"""Stiefel pipeline: structure, rotation map, family checks, scans."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from go_metric_lab import go, isotropy, lie_core, linalg, metric, stiefel
from go_metric_lab.stiefel import (NotPositiveDefiniteError, build_stiefel,
                                   metric_at, tilde_map, verify_family)
from oracles import (center_coefficient, columns, gram_dot, identity,
                     is_deformation, mat_add, matrix_of, projector,
                     whole_normalizer_ops, vec_add)


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
        x = vec_add(x, linalg.vec_scale(c, b))
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
    # the witness identities see it as the h-component of table.bracket
    assert sp.split.bracket_table.bracket(linalg.sparse(x), linalg.sparse(y))[1]


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


@pytest.mark.parametrize("t_values,n_samples", [
    ([1, 0], 5), ([2, Fraction(-1, 3)], 0), ([1, 2], -1)])
def test_verify_family_validates_before_any_exact_work(
        space, monkeypatch, t_values, n_samples):
    sp = space(2, 1)
    identities = _count_calls(monkeypatch, stiefel, "check_witness_identities")
    proofs = _count_calls(monkeypatch, stiefel, "certify_family")
    error = ValueError if n_samples < 0 else NotPositiveDefiniteError
    with pytest.raises(error):
        verify_family(sp, t_values, n_samples=n_samples)
    assert identities == proofs == []


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
    assert is_deformation(sp, metric_at(sp, Fraction(7, 3)).columns)
    assert is_deformation(sp, metric.from_matrix(
        sp.decomp, linalg.mat_scale(
            Fraction(3), matrix_of(metric_at(sp, Fraction(1, 2))))).columns)
    p1 = projector(sp.s1.members[0].space, sp.action.norms, sp.dim_m)
    a = metric.from_matrix(sp.decomp,
                           mat_add(identity(sp.dim_m), p1))
    assert not is_deformation(sp, a.columns)


_GRID_R1 = [stiefel.GRID_LO + i for i in range(4)]     # resolution 1


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (4, 3)])
def test_deformation_test_matches_the_column_oracle(space, n, k):
    # the parameter-vector test against the columns of the instantiated
    # metric: every resolution-1 grid point, then seeded points on the
    # line (center last), off it in one class, and with lambda or mu <= 0
    sp = space(n, k)
    diag = stiefel.diagonal_family(sp)
    ops = metric.family_basis_ops(diag)
    in_family = stiefel._deformation_test(sp, diag)

    def agree(values) -> bool:
        got = in_family(values)
        assert got == is_deformation(
            sp, linalg.combine_columns(values, ops, sp.dim_m)), values
        return got

    assert sum(map(agree, itertools.product(_GRID_R1, repeat=len(ops)))) == 16
    rng = random.Random(f"deformation:{n}:{k}")
    seen = {"on the line": 0, "perturbed": 0, "lambda <= 0": 0,
             "mu <= 0": 0}
    for _ in range(40):
        lam, mu = (Fraction(rng.randint(1, 12), rng.randint(1, 4))
                   for _ in range(2))
        line = [lam] * (len(ops) - 1) + [mu]
        seen["on the line"] += agree(line)
        for c in range(len(ops) - 1):          # each scalar class
            off = list(line)
            off[c] += Fraction(rng.choice([-1, 1]), rng.randint(1, 5))
            seen["perturbed"] += not agree(off)
        seen["lambda <= 0"] += not agree(
            [-lam * rng.randint(0, 1)] * (len(ops) - 1) + [mu])
        seen["mu <= 0"] += not agree(line[:-1] + [-mu * rng.randint(0, 1)])
    assert seen == {"on the line": 40, "perturbed": 40 * (len(ops) - 1),
                     "lambda <= 0": 40, "mu <= 0": 40}


def test_deformation_test_rejects_a_family_without_the_line(space):
    sp = space(4, 2)
    diag = stiefel.diagonal_family(sp)
    diag.scalar_blocks.pop()                # S1.m2 has no parameter left
    with pytest.raises(ArithmeticError, match="not in span"):
        stiefel._deformation_test(sp, diag)


def test_grassmannian_cross_check(space):
    assert stiefel.grassmannian_cross_check(space(3, 2))
    assert stiefel.grassmannian_cross_check(space(4, 2))


@pytest.mark.parametrize("nk", [(3, 1), (3, 2), (4, 2), (4, 3), (6, 3),
                                "two-torus"])
def test_normalizer_generators_act_like_the_whole_normalizer(space, two_torus,
                                                             nk):
    # h's generators and S0's generate h (+) S0: the symmetric commutant of
    # their action, on S1 and on all of m, is that of every h- and
    # S0-basis operator, and the [h, S0] = 0 clause of the witness
    # identities reads the same on generators.  The two-torus has
    # S0 = su(2) (+) su(2) with no center, and no S1
    dec = two_torus() if nk == "two-torus" else space(*nk).decomp
    gens = metric.normalizer_ops(dec)
    full = whole_normalizer_ops(dec)
    assert len(gens) < len(full)
    norms = dec.action.norms
    assert (isotropy.commutant_sym_ops(gens, norms)
            == isotropy.commutant_sym_ops(full, norms))
    if nk == "two-torus":
        assert dec.ideals.center.dim == 0 and len(dec.ideals.simples) == 2
        return
    sp = space(*nk)
    s1 = sp.s1.space

    def on_s1(ops):
        return isotropy.commutant_sym_ops(
            [isotropy.restrict_op(op, s1, norms) for op in ops], s1.norms)

    assert len(on_s1(gens)) == 1 and on_s1(gens) == on_s1(full)
    # with k >= 2 modules, h alone leaves S1 reducible
    assert (len(on_s1(sp.action.generator_ops)) > 1) == (sp.k >= 2)
    assert stiefel.grassmannian_cross_check(sp)
    s0 = sp.decomp.s0.space.sparse_basis
    assert not any(linalg.sparse_mat_vec(op, w)
                   for op in sp.action.ad_ops for w in s0)
    assert stiefel.check_witness_identities(sp)["witness_commutes_with_s0"]


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


def test_all_t_certificate_is_independent_of_the_requested_t(space,
                                                             monkeypatch):
    # one coefficient pass proves every t; the requested t only pick views
    sp = space(3, 2)
    checks = _count_calls(monkeypatch, go, "go_check")
    solves = _count_calls(monkeypatch, go, "go_solve_at")
    d = sp.dim_m
    for t_values in ([Fraction(1, 2), 1, 2, 3], [Fraction(1, 2), 2], []):
        rep = verify_family(sp, t_values, n_samples=5)
        assert rep["all_t"] == {"verified": True, "n_coefficients": 3,
                                "n_pairs": d * (d + 1) // 2,
                                "first_failure": None}
        assert sorted(rep["certificates"]) == sorted(
            str(Fraction(t)) for t in t_values)
    assert checks == [] and solves == []


def _mutated(data, metric=None, witness=None):
    return stiefel.FamilyData(decomp=data.decomp,
                              metric=data.metric if metric is None else metric,
                              witness=data.witness if witness is None
                              else witness)


def _scaled(c, columns):
    return [[(i, c * v) for i, v in col] for col in columns]


def _failing_pairs(proof):
    return {(i, j) for _, i, j in proof.nonzero}


def test_witness_without_the_one_minus_t_factor_fails_all_t(space):
    # a_t(X) = r(X) sum_{i>k} eb_ii: the t = 0 witness at every t; the
    # certificate names the t^1 coefficient, where -t w no longer cancels
    sp = space(3, 2)
    data = sp.family_data
    proof = stiefel.certify_family(_mutated(data, witness=data.witness[:1]))
    block = proof.to_json_dict()
    assert not block["verified"] and block["n_coefficients"] == 2
    assert block["first_failure"]["coefficient"] == 1


@pytest.mark.parametrize("n,k", [(3, 2), (4, 3)])
def test_witness_right_at_three_t_but_not_affine_is_not_proved(space, n, k):
    # a_t + (t - 1)(t - 2)(t - 3) w: equal to a_t at t = 1, 2, 3, so every
    # view there has zero residuals; only the coefficients see the cubic
    sp = space(n, k)
    data = sp.family_data
    w0, w1 = data.witness

    def plus(coeff, w):                         # w + coeff w0
        return linalg.combine_columns([1, coeff], [w, w0], sp.dim_m)

    cubic = _mutated(data, witness=[plus(-6, w0), plus(11, w1),
                                    _scaled(-6, w0), w0])
    proof = stiefel.certify_family(cubic)
    block = proof.to_json_dict()
    assert not block["verified"] and block["n_coefficients"] == 5
    for t in (1, 2, 3):
        view = stiefel.family_view(
            proof, cubic.metric_at(t), cubic.witness_at(t),
            stiefel.family_samples(sp.dim_m, 5, 0), 0)
        assert all(w.residual_sq == 0 for w in view.witnesses)
        assert view.verdict == "passed-sampling"
    assert stiefel.certify_family(data).verified


def test_doubled_t1_witness_part_is_not_proved(space):
    sp = space(4, 3)
    data = sp.family_data
    w0, w1 = data.witness
    proof = stiefel.certify_family(
        _mutated(data, witness=[w0, _scaled(2, w1)]))
    assert not proof.to_json_dict()["verified"]
    assert len(_failing_pairs(proof)) == 18


@pytest.mark.parametrize("which", ["twice the projector", "module projector",
                                   "not equivariant"])
def test_a1_that_is_not_the_center_projector_is_not_proved(space, which):
    sp = space(4, 2)
    data = sp.family_data
    a0, p_z = data.metric
    if which == "twice the projector":
        a1 = _scaled(2, p_z)
    elif which == "module projector":
        a1 = columns(projector(sp.modules[0], sp.action.norms, sp.dim_m))
    else:                                   # e_13 -> eb_13 and nothing else
        a1 = [[] for _ in range(sp.dim_m)]
        a1[sp.m_labels.index("e_1_3")] = [(sp.m_labels.index("eb_1_3"), 1)]
    proof = stiefel.certify_family(_mutated(data, metric=[a0, a1]))
    block = proof.to_json_dict()
    assert not block["verified"] and block["first_failure"] is not None
    # [e_13, eb_13] has an h-component: the certificate checks h too
    assert any(h for _, h in proof.nonzero.values()) == (
        which == "not equivariant")


def test_one_scaled_bracket_table_entry_is_not_proved():
    sp = build_stiefel(3, 2)                # a fresh table to mutate
    table = sp.split.bracket_table
    assert stiefel.certify_family(sp.family_data).verified
    a = sp.m_labels.index("eb_1_1")
    b = sp.m_labels.index("e_1_3")
    assert table.m[a][b]
    table.m[a][b] = [(i, 2 * c) for i, c in table.m[a][b]]
    table.__dict__.pop("_integer_rows", None)
    block = stiefel.certify_family(sp.family_data).to_json_dict()
    assert not block["verified"]
    assert block["first_failure"]["pair"] in ([a, b], [b, a])
    # the identities behind the witness see the same entry
    identities = stiefel.check_witness_identities(sp)
    assert not identities["center_rotates_s1"]
    assert not identities["eb_acts_per_module"]


def _polynomial_at(proof, t, i, j):
    """sum_c t^c Q_c at e_i, or at e_i + e_j, from the certificate's
    polarizations: Q_c(e_i) = B_c(e_i, e_i) / 2."""
    half = Fraction(1, 2)
    terms = [(i, i, half)] + ([(j, j, half), (i, j, 1)] if j is not None
                              else [])
    out = ({}, {})
    for (c, p, q), parts in proof.nonzero.items():
        for f in [f for a, b, f in terms if (a, b) == (p, q)]:
            for acc, part in zip(out, parts):
                for k, v in part.items():
                    acc[k] = acc.get(k, 0) + t ** c * f * Fraction(v, proof.den)
    return tuple(linalg.sparse_from(acc) for acc in out)


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (4, 3)])
def test_certificate_polynomial_matches_the_per_t_residuals(space, n, k):
    # sum_c t^c Q_c at every basis and pair probe against [a_t + X, A_t X]
    # of the per-t path: zero for the family, and entry for entry on a
    # witness whose t^1 part is doubled
    sp = space(n, k)
    data = sp.family_data
    w0, w1 = data.witness
    doubled = _mutated(data, witness=[w0, _scaled(2, w1)])
    proofs = {"family": (data, stiefel.certify_family(data)),
              "doubled": (doubled, stiefel.certify_family(doubled))}
    rng = random.Random(f"t-polynomial:{n}:{k}")
    d = sp.dim_m
    probes = [(i, None) for i in range(d)]
    probes += itertools.combinations(range(d), 2)
    nonzero = 0
    for name, (fam, proof) in proofs.items():
        t = Fraction(rng.randint(1, 12), rng.randint(1, 4))
        a_t, a_of = fam.metric_at(t), fam.witness_at(t)
        for i, j in probes:
            x = linalg.unit_vec(d, i)
            if j is not None:
                x[j] = Fraction(1)
            a_h = a_of(x)
            res_sq = go.go_residual_sq(a_t, x, a_h)
            xs = linalg.sparse(x)
            want = sp.split.bracket_table.bracket(
                xs, linalg.sparse_mat_vec(a_t.columns, xs), linalg.sparse(a_h))
            f_m, f_h = _polynomial_at(proof, t, i, j)
            assert (f_m, f_h) == want
            assert res_sq == (sum(c * c * sp.split.norms_m[k] for k, c in f_m)
                              + sum(c * c * sp.algebra.gram[k][k]
                                    for k, c in f_h))
            if name == "family":
                assert res_sq == 0
            nonzero += res_sq != 0
    assert nonzero > 0


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
