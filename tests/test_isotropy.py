"""Isotypical decomposition, commutants, intertwiners, ideal splits."""

import itertools
from fractions import Fraction

import pytest

from go_metric_lab import (cli, decomp, isotropy, lie_core, linalg, metric,
                          stiefel)
from go_metric_lab.isotropy import (commutant_sym_ops, decompose_isotypic,
                                    intertwiners, isotropy_action, restrict_op,
                                    split_ideals)
from oracles import (columns, combine, dense_op, fraction_nullspace, gram_dot,
                     identity, mat_add, norm_dot, rref, solve_consistent,
                     sym_op_from_params, vec_add)


def _sym_commutant_on(action, sub):
    """The symmetric commutant of the action restricted to an invariant
    subspace."""
    return commutant_sym_ops(
        [restrict_op(op, sub, action.norms) for op in action.ad_ops],
        sub.norms)


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
    assert len(_sym_commutant_on(sp.action, s1.space)) == 1     # scalars only
    assert len(_sym_commutant_on(sp.action, sp.decomp.s0.space)) == 1

    sp = space(4, 2)
    s1 = sp.decomp.nontrivial_summands()[0]
    assert len(_sym_commutant_on(sp.action, s1.space)) == 4
    # trivial action commutes with all of Sym(S0): k^2 (k^2 + 1) / 2
    assert len(_sym_commutant_on(sp.action, sp.decomp.s0.space)) == 10
    assert len(metric.sym_commutant_basis(sp.decomp)) == 14


def test_intertwiner_dimension_complex_pair(space):
    sp = space(4, 2)
    s1 = sp.decomp.nontrivial_summands()[0]
    assert len(s1.intertwiner_bases[(0, 1)]) == 2


def test_member_commutants_are_division_algebras(space):
    for n, k in [(3, 1), (4, 2), (5, 3)]:
        dec = space(n, k).decomp
        for s in dec.nontrivial_summands():
            for m in s.members:
                assert len(_sym_commutant_on(dec.action, m.space)) == 1
                assert m.commutant_dim in (1, 2, 4)
                assert m.commutant_dim == 2      # complex modules here


def test_adjoint_intertwiners_span_the_solved_maps(space, two_torus):
    # the decomposition solves Hom(a, b) for a < b and reads Hom(b, a) off by
    # B-adjoints; both span what the equivariance system of the pair solves
    for dec in (two_torus(), space(4, 3).decomp):
        for s in dec.nontrivial_summands():
            for a, b in itertools.permutations(range(len(s.members)), 2):
                sub_b = s.members[b].space
                solved = intertwiners(dec.action, s.members[a].space, sub_b)
                flat = [[[x for row in dense_op(phi, sub_b.dim) for x in row]
                         for phi in phis]
                        for phis in (s.intertwiner_bases[(a, b)], solved)]
                assert len(flat[0]) == len(flat[1]) > 0
                assert linalg.same_span(*flat)


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
    report = cli.decomposition_report(sp.decomp)
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
        assert len(metric.sym_commutant_basis(dec)) == expected, nk


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (4, 3)])
@pytest.mark.parametrize("where", ["m", "S0", "S1"])
def test_commutant_ops_match_dense_construction(space, monkeypatch, n, k,
                                                where):
    # the operators come from the nonzero parameters of each nullspace
    # vector; the oracle fills them in from every parameter
    sp = space(n, k)
    sub = {"m": None, "S0": sp.decomp.s0.space, "S1": sp.s1.space}[where]
    solved = []
    nullspace = linalg.nullspace

    def recorded(rows, ncols):
        sols = nullspace(rows, ncols)
        solved.extend(linalg.dense(v, ncols) for v in sols)
        return sols

    monkeypatch.setattr(linalg, "nullspace", recorded)
    if sub is None:
        ops = commutant_sym_ops(sp.action.ad_ops, sp.action.norms)
    else:
        ops = _sym_commutant_on(sp.action, sub)
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
    coords, resid = linalg.orthogonal_projection(sub, norms, linalg.sparse(x))
    coords, resid = linalg.dense(coords, sub.dim), linalg.dense(resid, sp.dim_m)
    inside = combine(coords, sub.basis, sp.dim_m)
    assert vec_add(inside, resid) == x
    assert all(norm_dot(norms, resid, b) == 0 for b in sub.basis)
    assert sub.coords_of(x, norms) is None
    assert sub.coords_of(inside, norms) == coords


def test_integer_nullspace_matches_fraction_oracle(monkeypatch, two_torus):
    # every nullspace met while building the spaces, their ideal splits,
    # full commutants and reverse intertwiners, eliminated once more in
    # Fractions; the equivariance systems behind commutants and
    # intertwiners are integer rows
    systems, equivariance = [], []
    nullspace, assemble = linalg.nullspace, isotropy._equivariance_rows

    def assembled(*args):
        rows = assemble(*args)
        equivariance.append(rows)
        return rows

    def recorded(rows, ncols):
        integer = any(rows is r for r in equivariance)
        rows = list(rows)
        sols = nullspace(rows, ncols)
        systems.append((rows, ncols, sols, integer))
        return sols

    monkeypatch.setattr(isotropy, "_equivariance_rows", assembled)
    monkeypatch.setattr(linalg, "nullspace", recorded)
    decs = [stiefel.build_stiefel(n, k).decomp
            for n, k in [(3, 2), (4, 2), (4, 3)]]
    decs.append(two_torus())
    for dec in decs:
        dec.ideals
        commutant_sym_ops(dec.action.ad_ops, dec.action.norms)
        # the decomposition reads Hom(b, a), a < b, off by adjoints; solve
        # those systems here too
        for s in dec.nontrivial_summands():
            for a, b in itertools.combinations(s.members, 2):
                intertwiners(dec.action, b.space, a.space)
    integer_systems = [rows for rows, _, _, integer in systems if integer]
    assert len(integer_systems) > 50
    assert len(systems) > len(integer_systems)
    assert all(type(c) is int for rows in integer_systems for row in rows
               for c in row.values())
    for rows, ncols, sols, _ in systems:
        want = fraction_nullspace(
            [row if isinstance(row, dict) else dict(enumerate(row))
             for row in rows], ncols)
        assert [linalg.dense(v, ncols) for v in sols] == want
        assert sols == [linalg.sparse(v) for v in want]
        assert all(type(c) is Fraction for v in sols for _, c in v)


@pytest.mark.parametrize("n,k", [(4, 2), (6, 3)])
def test_decomposition_solves_each_piece_once(space, monkeypatch, n, k):
    # the split restricts the action's generator operators, and no other
    # isotropy operator, to each piece it examines and solves that piece's
    # symmetric commutant once; an accepted module keeps its restricted
    # action for its full commutant, its class and its intertwiners, so
    # nothing is restricted or solved again
    action = space(n, k).action
    calls = {"commutant": 0, "restrict": 0}
    splits = []
    commutant, restrict = isotropy.commutant_sym_ops, isotropy.restrict_op
    eigen_split = linalg.eigen_split

    def counted_commutant(ops, norms):
        calls["commutant"] += 1
        return commutant(ops, norms)

    def counted_restrict(op, sub, norms):
        calls["restrict"] += any(op is a for a in action.ad_ops)
        return restrict(op, sub, norms)

    def recorded_split(op):
        split = eigen_split(op)
        splits.append(split is not None and len(split) > 1)
        return split

    monkeypatch.setattr(isotropy, "commutant_sym_ops", counted_commutant)
    monkeypatch.setattr(isotropy, "restrict_op", counted_restrict)
    monkeypatch.setattr(linalg, "eigen_split", recorded_split)
    dec = decompose_isotypic(action)
    modules = sum(len(s.members) for s in dec.nontrivial_summands())
    examined = modules + sum(splits)        # accepted or split, once each
    assert modules >= 2 and sum(splits) >= 1
    assert len(action.generator_ops) < len(action.ad_ops)
    assert calls == {"commutant": examined,
                     "restrict": examined * len(action.generator_ops)}


# ---------------------------------------------------------------------------
# Lie generators: every equivariance system is solved against them
# ---------------------------------------------------------------------------

def _so3_bracket(x, y):
    """[e_a, e_b] = e_c for (a, b, c) cyclic in (0, 1, 2), on sparse
    coordinates."""
    acc = {}
    for a, xa in x:
        for b, yb in y:
            c = 3 - a - b
            if a != b:
                sign = 1 if (b - a) % 3 == 1 else -1
                acc[c] = acc.get(c, 0) + sign * xa * yb
    return linalg.sparse_from(acc)


def test_lie_generators_of_so3():
    basis = [[(i, Fraction(1))] for i in range(3)]
    assert isotropy.lie_generators(basis, _so3_bracket) == [0, 1]
    # e_2 comes first; e_0 brings e_1 = [e_2, e_0] with it
    assert isotropy.lie_generators(basis[::-1], _so3_bracket) == [0, 1]
    # an abelian bracket keeps every element
    assert isotropy.lie_generators(basis, lambda x, y: []) == [0, 1, 2]


def test_lie_generators_certify_the_span():
    # a bracket that leaves the span of the basis is caught by the rank
    basis = [[(0, Fraction(1))], [(1, Fraction(1))]]
    with pytest.raises(isotropy.DecompositionError, match="does not span"):
        isotropy.lie_generators(basis, lambda x, y: [(2, Fraction(1))])


GENERATOR_CASES = ["3-2", "4-2", "6-3", "two-torus"]


def _decomposition(which, space, two_torus):
    return (two_torus() if which == "two-torus"
            else space(*map(int, which.split("-"))).decomp)


def _dense_closure_rank(g, vecs):
    """The dimension of the subalgebra that dense vectors generate: brackets
    of every pair of a spanning set, taken until the rank stops growing
    (`oracles.rref`)."""
    span, rank = [list(v) for v in vecs], -1
    while span and len(span) != rank:
        rank = len(span)
        red, piv = rref(span + [lie_core.bracket(g, x, y)
                                for x, y in itertools.combinations(span, 2)])
        span = red[:len(piv)]
    return len(span)


@pytest.mark.parametrize("which", GENERATOR_CASES)
def test_generators_generate_h(which, space, two_torus):
    action = _decomposition(which, space, two_torus).action
    h = action.split.h
    picked = [i for i, op in enumerate(action.ad_ops)
              if any(op is gen for gen in action.generator_ops)]
    assert [action.ad_ops[i] for i in picked] == action.generator_ops
    assert _dense_closure_rank(h.parent, [h.basis_coords[i] for i in picked]) \
        == h.dim
    # greedy in basis order: an element is picked iff it lies outside the
    # subalgebra that the elements picked before it generate
    for i, x in enumerate(h.basis_coords):
        before = [h.basis_coords[p] for p in picked if p < i]
        outside = (_dense_closure_rank(h.parent, before + [x])
                   > _dense_closure_rank(h.parent, before))
        assert outside == (i in picked), i
    # u(1), u(2), u(3) and the abelian two-torus, which keeps every element
    assert (len(action.generator_ops), len(action.ad_ops)) == {
        "3-2": (1, 1), "4-2": (2, 4), "6-3": (3, 9), "two-torus": (2, 2)}[which]


@pytest.mark.parametrize("which", GENERATOR_CASES)
def test_generator_solves_equal_the_whole_action(which, space, two_torus,
                                                 monkeypatch):
    # S0, every module's commutant, every Hom space, the symmetric
    # commutant and the ideal split come out as they do against all ad_ops
    dec = _decomposition(which, space, two_torus)
    action, ops, norms = dec.action, dec.action.ad_ops, dec.action.norms
    assert (isotropy.joint_kernel(ops, norms, dec.dim).sparse_basis
            == dec.s0.space.sparse_basis)
    members = [(s, a, m) for s in dec.nontrivial_summands()
               for a, m in enumerate(s.members)]
    restricted = [[restrict_op(op, m.space, norms) for op in ops]
                  for _, _, m in members]
    for (s, a, ma), ra in zip(members, restricted):
        assert len(commutant_sym_ops(ra, ma.space.norms)) == 1
        for (t, b, mb), rb in zip(members, restricted):
            maps = isotropy._equivariant_maps(ra, rb, ma.dim, mb.dim)
            if s is not t:
                assert maps == []
            elif a == b:
                assert len(maps) == ma.commutant_dim
            elif a < b:
                assert maps == s.intertwiner_bases[(a, b)]
    assert metric.sym_commutant_basis(dec) == commutant_sym_ops(ops, norms)

    # the same decomposition and ideal split with every basis element
    # taken as a generator
    monkeypatch.setattr(isotropy, "lie_generators",
                        lambda basis, bracket: list(range(len(basis))))
    whole = decompose_isotypic(isotropy_action(action.split), seed=dec.seed)
    assert whole.action.generator_ops == ops
    assert [[m.space.sparse_basis for m in s.members] for s in whole.summands] \
        == [[m.space.sparse_basis for m in s.members] for s in dec.summands]
    assert [s.intertwiner_bases for s in whole.summands] \
        == [s.intertwiner_bases for s in dec.summands]
    ideals, plain = whole.ideals, dec.ideals
    assert ideals.center.sparse_basis == plain.center.sparse_basis
    assert [s.sparse_basis for s in ideals.simples] \
        == [s.sparse_basis for s in plain.simples]


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (6, 3)])
@pytest.mark.parametrize("layer", ["h", "S0"])
def test_a_dropped_generator_breaks_the_build(monkeypatch, n, k, layer):
    # without its last generator, the set generates a proper subalgebra of
    # h (a larger joint kernel) or of S0 (a larger center, or pieces that
    # are not ideals); the S0 layer brackets through the table of m
    generators = isotropy.lie_generators

    def dropped(basis, bracket):
        gens = generators(basis, bracket)
        in_s0 = getattr(bracket, "__func__", None) \
            is decomp.BracketTable.bracket_in_m
        return gens[:-1] if (layer == "S0") == in_s0 else gens

    monkeypatch.setattr(isotropy, "lie_generators", dropped)
    with pytest.raises(ArithmeticError):
        stiefel.build_stiefel(n, k)
