"""Isotypical decomposition, commutants, intertwiners, ideal splits."""

import itertools
from fractions import Fraction

import pytest

from go_metric_lab import decomp, isotropy, lie_core, linalg, stiefel
from go_metric_lab.isotropy import (commutant_sym, decompose_isotypic,
                                    intertwiners, isotropy_action,
                                    split_ideals)
from oracles import (columns, combine, dense_op, fraction_nullspace, gram_dot,
                     identity, mat_add, norm_dot, solve_consistent,
                     sym_op_from_params)


def _action(un, n, k):
    g = un(n)
    return isotropy_action(decomp.reductive_split(g, decomp.diagonal_u_nk(g, k)))


CASES = [(2, 1), (3, 1), (3, 2), (4, 2), (5, 2), (5, 3)]


@pytest.mark.parametrize("n,k", CASES)
def test_stiefel_decomposition_dimensions(n, k, space):
    dec = space(n, k).decomp
    assert dec.s0.dim == k * k
    nontrivial = dec.nontrivial_summands()
    assert len(nontrivial) == 1
    s1 = nontrivial[0]
    assert len(s1.members) == k
    assert all(m.dim == 2 * (n - k) for m in s1.members)
    assert sum(s.dim for s in dec.summands) == dec.dim


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (5, 3)])
def test_members_pairwise_equivalent_and_invertible(n, k, space):
    sp = space(n, k)
    dec = sp.decomp
    s1 = dec.nontrivial_summands()[0]
    for a, b in itertools.combinations(range(len(s1.members)), 2):
        phis = s1.intertwiner_bases[(a, b)]
        assert phis, "equivalent members must admit a nonzero intertwiner"
        for phi in phis:
            assert linalg.rank(dense_op(phi, s1.members[b].dim)) \
                == s1.members[b].dim


@pytest.mark.parametrize("n,k", [(3, 1), (4, 2)])
def test_no_intertwiner_with_trivial_lines(n, k, space):
    sp = space(n, k)
    dec = sp.decomp
    s1 = dec.nontrivial_summands()[0]
    line = dec.s0.members[0].space
    assert intertwiners(dec.action, s1.members[0].space, line) == []
    assert intertwiners(dec.action, line, s1.members[0].space) == []


def test_submodules_are_invariant(space):
    sp = space(4, 2)
    dec = sp.decomp
    for summand in dec.summands:
        for member in summand.members:
            for op in dec.action.ad_ops:
                assert isotropy.restrict_op(op, member.space,
                                            dec.action.norms) is not None


def test_summands_pairwise_orthogonal(space):
    sp = space(4, 2)
    dec = sp.decomp
    gram = dec.action.split.gram_m
    for sa, sb in itertools.combinations(dec.summands, 2):
        for x in sa.space.basis:
            for y in sb.space.basis:
                assert gram_dot(gram, x, y) == 0


def test_ad_ops_are_skew(space):
    act = space(3, 2).action
    g = act.split.gram_m
    for op in (dense_op(cols, act.dim) for cols in act.ad_ops):
        skew = mat_add(linalg.mat_mul(linalg.transpose(op), g),
                       linalg.mat_mul(g, op))
        assert linalg.mat_is_zero(skew)


def test_commutant_dimensions_stiefel(space):
    sp = space(3, 1)
    s1 = sp.decomp.nontrivial_summands()[0]
    assert len(commutant_sym(sp.action, s1.space)) == 1     # scalars only
    assert len(commutant_sym(sp.action, sp.decomp.s0.space)) == 1

    sp = space(4, 2)
    s1 = sp.decomp.nontrivial_summands()[0]
    assert len(commutant_sym(sp.action, s1.space)) == 4
    # trivial action commutes with all of Sym(S0): k^2 (k^2 + 1) / 2
    assert len(commutant_sym(sp.action, sp.decomp.s0.space)) == 10
    assert len(sp.decomp.sym_commutant_basis()) == 14


def test_intertwiner_dimension_complex_pair(space):
    sp = space(4, 2)
    s1 = sp.decomp.nontrivial_summands()[0]
    assert len(s1.intertwiner_bases[(0, 1)]) == 2


def test_member_commutants_are_division_algebras(space):
    for n, k in [(3, 1), (4, 2), (5, 3)]:
        dec = space(n, k).decomp
        for s in dec.nontrivial_summands():
            for m in s.members:
                assert m.commutant_sym_dim == 1
                assert m.commutant_dim in (1, 2, 4)
                assert m.commutant_dim == 2      # complex modules here


def test_equivalence_is_symmetric_and_transitive(space):
    sp = space(5, 3)
    dec = sp.decomp
    s1 = dec.nontrivial_summands()[0]
    members = [m.space for m in s1.members]
    eq = {}
    for a, b in itertools.permutations(range(len(members)), 2):
        eq[(a, b)] = bool(intertwiners(dec.action, members[a], members[b]))
    for a, b in itertools.permutations(range(len(members)), 2):
        assert eq[(a, b)] == eq[(b, a)]
    for a, b, c in itertools.permutations(range(len(members)), 3):
        if eq[(a, b)] and eq[(b, c)]:
            assert eq[(a, c)]


def test_empty_decomposition_when_h_equals_g(un):
    g = un(2)
    sp = decomp.reductive_split(g, decomp.subalgebra(g, identity(g.dim)))
    act = isotropy_action(sp)
    dec = decompose_isotypic(act)
    assert dec.dim == 0
    assert dec.s0.dim == 0
    assert dec.summands == [dec.s0]


@pytest.mark.parametrize("n,k,center,simples", [
    (3, 2, 1, [3]),       # u(2) = u(1) + su(2)
    (2, 1, 1, []),        # u(1) abelian
    (4, 3, 1, [8]),       # u(3) = u(1) + su(3)
    (4, 0, 0, [3, 3]),    # u(4) over a 2-torus: su(2) + su(2)
])
def test_split_ideals(n, k, center, simples, space, two_torus):
    dec = two_torus() if k == 0 else space(n, k).decomp
    ideals = split_ideals(dec.action.split, dec.s0.space)
    assert dec.s0.dim == center + sum(simples)
    assert ideals.center.dim == center
    assert sorted(s.dim for s in ideals.simples) == simples


def test_split_ideals_center_commutes(space):
    sp = space(3, 2)
    ideals = split_ideals(sp.split, sp.decomp.s0.space)
    g = sp.algebra
    z = sp.split.m_to_g(ideals.center.basis[0])
    for v in sp.decomp.s0.space.basis:
        assert linalg.vec_is_zero(lie_core.bracket(g, z, sp.split.m_to_g(v)))


def test_simple_ideal_is_nonabelian_ideal(space):
    sp = space(3, 2)
    ideals = split_ideals(sp.split, sp.decomp.s0.space)
    s = ideals.simples[0]
    g = sp.algebra
    vecs = [sp.split.m_to_g(v) for v in s.basis]
    s0_vecs = [sp.split.m_to_g(v) for v in sp.decomp.s0.space.basis]
    nonzero = False
    for x in s0_vecs:
        for y in vecs:
            br = lie_core.bracket(g, x, y)
            br_m = sp.split.coords_in_m(br)
            assert s.coords_of(br_m, sp.split.norms_m) is not None
            nonzero = nonzero or not linalg.vec_is_zero(br)
    assert nonzero


def test_decomposition_report_shape(space):
    sp = space(4, 2)
    report = isotropy.decomposition_report(sp.decomp)
    assert report["dim_m"] == 12
    assert report["dim_s0"] == 4
    assert report["sym_commutant_dim"] == 14
    assert report["seed"] == 0
    dims = [s["dim"] for s in report["summands"]]
    assert sorted(dims) == [4, 8]


def test_decomposition_deterministic(un):
    g = un(3)
    sp = decomp.reductive_split(g, decomp.diagonal_u_nk(g, 2))
    act = isotropy_action(sp)
    d1 = decompose_isotypic(act, seed=5)
    d2 = decompose_isotypic(act, seed=5)
    for s1, s2 in zip(d1.summands, d2.summands):
        assert [m.space.basis for m in s1.members] == \
               [m.space.basis for m in s2.members]


def test_self_intertwiners_contain_identity(space):
    sp = space(4, 2)
    s1 = sp.decomp.nontrivial_summands()[0]
    m1 = s1.members[0].space
    phis = intertwiners(sp.decomp.action, m1, m1)
    assert len(phis) == 2                       # complex-type endomorphisms
    d = m1.dim
    mats = [dense_op(phi, d) for phi in phis]
    cols = [[phi[i][j] for phi in mats] for i in range(d) for j in range(d)]
    ident = [Fraction(1) if i == j else Fraction(0)
             for i in range(d) for j in range(d)]
    assert solve_consistent(cols, ident) is not None


def test_torus_isotropy_has_empty_trivial_summand(un):
    # h = diagonal torus of u(2): S0 = 0 and m is one irreducible module
    g = un(2)
    h = decomp.subalgebra(g, [g.vector(("eb_1_1", 1)), g.vector(("eb_2_2", 1))])
    sp = decomp.reductive_split(g, h)
    act = isotropy_action(sp)
    dec = decompose_isotypic(act)
    assert dec.s0.dim == 0
    assert [ [m.dim for m in s.members] for s in dec.nontrivial_summands()] == [[2]]


def test_commutant_dimension_matches_block_count_formula(space):
    # per summand with r equivalent members: r(r+1)/2, r^2, or r(2r-1)
    # symmetric parameters for real/complex/quaternionic member type
    for nk in [(2, 1), (3, 1), (3, 2), (4, 2), (5, 3)]:
        dec = space(*nk).decomp
        expected = 0
        for s in dec.summands:
            r = len(s.members)
            if s is dec.s0:
                expected += r * (r + 1) // 2        # trivial lines: real type
                continue
            ctype = s.members[0].commutant_dim
            expected += {1: r * (r + 1) // 2,
                         2: r * r,
                         4: r * (2 * r - 1)}[ctype]
        assert len(dec.sym_commutant_basis()) == expected, nk


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (4, 3)])
@pytest.mark.parametrize("where", ["m", "S0", "S1"])
def test_commutant_ops_match_dense_construction(space, monkeypatch, n, k,
                                                where):
    # the operators come from the nonzero parameters of each nullspace
    # vector; the oracle fills them in from every parameter
    sp = space(n, k)
    sub = {"m": None, "S0": sp.decomp.s0.space, "S1": sp.s1.space}[where]
    solved = []
    nullspace = linalg.sparse_nullspace

    def recorded(rows, ncols):
        sols = nullspace(rows, ncols)
        solved.extend(sols)
        return sols

    monkeypatch.setattr(linalg, "sparse_nullspace", recorded)
    ops = commutant_sym(sp.action, sub)
    norms = sp.action.norms if sub is None else sub.norms
    d = len(norms)
    assert len(solved) == len(ops) > 0
    assert ops == [columns(sym_op_from_params(p, norms, d)) for p in solved]


def test_split_ideals_through_seeded_combinations(monkeypatch, two_torus):
    # S0 = su(2) (+) su(2): a commutant basis element always splits it, so
    # the seeded random combinations run only when every basis element is
    # refused; they must find the same simple ideals
    dec = two_torus()
    split, s0 = dec.action.split, dec.s0.space
    plain = split_ideals(split, s0)
    bases, refused, tried = [], [], []
    commutant, eigen_split = isotropy.commutant_sym_ops, linalg.eigen_split

    def recorded_commutant(ops, norms):
        out = commutant(ops, norms)
        bases.extend(out)
        return out

    def refusing(op):
        if any(op is b for b in bases):
            refused.append(op)
            return None
        result = eigen_split(op)
        tried.append(result)
        return result

    monkeypatch.setattr(isotropy, "commutant_sym_ops", recorded_commutant)
    monkeypatch.setattr(linalg, "eigen_split", refusing)
    forced = split_ideals(split, s0)
    assert refused and tried
    assert any(r is not None and len(r) > 1 for r in tried)
    assert forced.center.dim == plain.center.dim == 0
    assert len(forced.simples) == len(plain.simples) == 2
    for f in forced.simples:
        assert any(f.dim == p.dim and linalg.same_span(f.basis, p.basis)
                   for p in plain.simples)


def test_projection_splits_a_vector_along_a_subspace(space):
    sp = space(4, 2)
    norms = sp.action.norms
    sub = sp.s1.space
    x = [Fraction(i % 5 - 2, i % 3 + 1) for i in range(sp.dim_m)]
    coords, resid = sub.projection(x, norms)
    inside = combine(coords, sub.basis, sp.dim_m)
    assert linalg.vec_add(inside, resid) == x
    assert all(norm_dot(norms, resid, b) == 0 for b in sub.basis)
    assert sub.coords_of(x, norms) is None
    assert sub.coords_of(inside, norms) == coords


def test_integer_nullspace_matches_fraction_oracle(monkeypatch, two_torus):
    # every equivariance system met while building the spaces, their ideal
    # splits and full commutants, eliminated once more in Fractions
    systems = []
    nullspace = linalg.sparse_nullspace

    def recorded(rows, ncols):
        rows = list(rows)
        sols = nullspace(rows, ncols)
        systems.append((rows, ncols, sols))
        return sols

    monkeypatch.setattr(linalg, "sparse_nullspace", recorded)
    decs = [stiefel.build_stiefel(n, k).decomp
            for n, k in [(3, 2), (4, 2), (4, 3)]]
    decs.append(two_torus())
    for dec in decs:
        dec.ideals
        dec.sym_commutant_basis()
    assert len(systems) > 50
    assert all(type(c) is int for rows, _, _ in systems for row in rows
               for c in row.values())
    for rows, ncols, sols in systems:
        assert sols == fraction_nullspace(rows, ncols)
        assert all(type(c) is Fraction for v in sols for c in v)
