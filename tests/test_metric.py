"""Metric endomorphisms: parameterization, blocks, spectra, equivariance."""

import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from go_metric_lab import isotropy, lie_core, linalg, metric, stiefel
from go_metric_lab.metric import (check_normalizer_equivariance,
                                  from_parameters, full_family, instantiate)
import oracles
from oracles import (columns, coords_in_family, dense_gram_family_ops,
                     dense_op, gram_dot, identity, identity_metric, mat_add,
                     mat_vec, matrix_of, projector, solve_consistent)


def test_identity_from_parameters(space):
    sp = space(3, 2)
    dec = sp.decomp
    a_id = identity_metric(dec)
    params = a_id.params
    a2 = from_parameters(dec, params)
    assert matrix_of(a2) == identity(dec.dim)
    assert a2.is_pd


def test_deformation_metric_from_parameters(space):
    sp = space(3, 2)
    a2 = stiefel.metric_at(sp, 2)        # weight 2 on the center, 1 elsewhere
    rebuilt = from_parameters(sp.decomp, a2.params)
    assert matrix_of(rebuilt) == matrix_of(a2)
    blocks = metric.block_view(a2)
    s0_block = next(b for b in blocks if b["summand"] == 0)
    s1_block = next(b for b in blocks if b["summand"] == 1)
    assert s1_block["scalar"] == "1/1"
    assert "matrix" in s0_block          # 2 on the center line, 1 on su(2)
    half = stiefel.metric_at(sp, Fraction(1, 2))
    assert from_parameters(sp.decomp, half.params).columns == half.columns


def test_negative_identity_coefficient_flags_pd(space):
    sp = space(3, 2)
    dec = sp.decomp
    a_id = identity_metric(dec)
    params = [-p for p in a_id.params]
    a = from_parameters(dec, params)
    assert not a.is_pd


def test_wrong_parameter_count_rejected(space):
    dec = space(3, 2).decomp
    with pytest.raises(ValueError):
        from_parameters(dec, [Fraction(1)])


def test_from_matrix_rejects_non_equivariant(space):
    sp = space(3, 2)
    bad = identity(sp.dim_m)
    bad[0][1] = Fraction(1)              # mixes S1 coordinates arbitrarily
    with pytest.raises(metric.NotEquivariantError):
        metric.from_matrix(sp.decomp, bad)


def oracle_params(dec, matrix):
    """Commutant coordinates by a dense d^2 x p solve, or None."""
    d = dec.dim
    basis = [dense_op(s, d) for s in metric.sym_commutant_basis(dec)]
    cols = [[s[i][j] for s in basis] for i in range(d) for j in range(d)]
    return solve_consistent(
        cols, [matrix[i][j] for i in range(d) for j in range(d)])


def _space_file_decomposition(n, k):
    from go_metric_lab import decomp, isotropy
    g = lie_core.build_un(n)
    split = decomp.reductive_split(g, decomp.diagonal_u_nk(g, k))
    data = json.loads(json.dumps({"algebra": lie_core.to_json_dict(g),
                                  **oracles.split_to_json_dict(split)}))
    g2 = lie_core.from_json_dict(data["algebra"])
    action = isotropy.isotropy_action(decomp.split_from_json_dict(g2, data))
    return isotropy.decompose_isotypic(action)


def _sample_matrices(dec, rng, count):
    """Identity plus seeded points of the full family."""
    out = [identity(dec.dim)]
    ops = [dense_op(cols, dec.dim)
           for cols in metric.family_basis_ops(full_family(dec))]
    for _ in range(count):
        a = linalg.zeros(dec.dim, dec.dim)
        for op in ops:
            c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            if c:
                a = mat_add(a, linalg.mat_scale(c, op))
        out.append(a)
    return out


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (4, 3), (3, 0)],
                         ids=["3-2", "4-2", "4-3", "space-file-3-2"])
def test_from_matrix_params_match_dense_solve(space, n, k):
    rng = random.Random(f"from-matrix:{n}:{k}")
    if k == 0:
        dec = _space_file_decomposition(3, 2)
        mats = _sample_matrices(dec, rng, 3)
    else:
        sp = space(n, k)
        dec = sp.decomp
        mats = _sample_matrices(dec, rng, 3)
        mats += [matrix_of(stiefel.metric_at(sp, t))
                 for t in (Fraction(1, 2), Fraction(3), Fraction(-2))]
    for m in mats:
        a = metric.from_matrix(dec, m)
        assert a.params == oracle_params(dec, m)
        assert all(type(p) is Fraction for p in a.params)
        assert matrix_of(from_parameters(dec, a.params)) == m


def test_from_matrix_rejects_matrices_outside_the_commutant(space):
    from go_metric_lab import isotropy
    # on (3,1) S1 is one member, whose Schur block is one vector v: the
    # skew part of ad(z0) vanishes there, and only m shows it
    assert [len(b) for b in space(3, 1).decomp.schur_bases] == [1, 1]
    for sp in (space(3, 1), space(3, 2)):
        # symmetric, but one S1 coordinate is weighted apart from its module
        bumped = identity(sp.dim_m)
        i = sp.s1_pairs[0][0]
        bumped[i][i] += 1
        # ad(z0) commutes with the isotropy action but is B-skew
        ad_z0 = isotropy._ad_columns(sp.split, linalg.sparse(sp.z0_m))
        skew = mat_add(identity(sp.dim_m), dense_op(ad_z0, sp.dim_m))
        assert metric.check_normalizer_equivariance(
            metric.MetricEndomorphism(sp.decomp, columns(skew)),
            ops=sp.action.ad_ops)
        assert skew != linalg.transpose(skew)
        for bad, pd in ((bumped, True), (skew, False)):
            assert oracle_params(sp.decomp, bad) is None
            # the wrapped columns build and answer is_pd (G A is symmetric
            # only for the bumped one); the first read of params raises
            a = metric.MetricEndomorphism(sp.decomp, columns(bad))
            assert a.is_pd is pd
            with pytest.raises(metric.NotEquivariantError):
                a.params
            with pytest.raises(metric.NotEquivariantError):
                metric.from_matrix(sp.decomp, bad)
    with pytest.raises(metric.NotEquivariantError):
        metric.from_matrix(sp.decomp, identity(sp.dim_m - 1))
    # a family scaling the bumped coordinate's line alone leaves the
    # commutant: instantiate reads params, and raises, when it builds
    line = linalg.make_subspace([[(i, Fraction(1))]], sp.action.norms)
    with pytest.raises(metric.NotEquivariantError):
        instantiate(_scalar_family(sp.decomp, line), [Fraction(1)])


def test_equivariance_and_symmetry_exact(space):
    sp = space(4, 2)
    dec = sp.decomp
    rng = random.Random(2)
    basis = metric.sym_commutant_basis(dec)
    params = [Fraction(rng.randint(-3, 3)) for _ in basis]
    a = from_parameters(dec, params)
    for op in (dense_op(cols, dec.dim) for cols in dec.action.ad_ops):
        assert linalg.mat_mul(matrix_of(a), op) == linalg.mat_mul(op, matrix_of(a))
    gram = dec.action.split.gram_m
    for _ in range(10):
        x = lie_core.random_vector_of_len(dec.dim, rng)
        y = lie_core.random_vector_of_len(dec.dim, rng)
        ax = mat_vec(matrix_of(a), x)
        ay = mat_vec(matrix_of(a), y)
        assert gram_dot(gram, ax, y) == gram_dot(gram, x, ay)


def test_block_structure_across_summands(space):
    sp = space(4, 2)
    dec = sp.decomp
    rng = random.Random(5)
    params = [Fraction(rng.randint(-2, 2))
              for _ in metric.sym_commutant_basis(dec)]
    a = from_parameters(dec, params)
    gram = dec.action.split.gram_m
    for i, si in enumerate(dec.summands):
        for j, sj in enumerate(dec.summands):
            if i == j:
                continue
            for x in si.space.basis:
                ax = mat_vec(matrix_of(a), x)
                for y in sj.space.basis:
                    assert gram_dot(gram, ax, y) == 0


def eigenstructure(a):
    """[(eigenvalue, eigenspace dimension)] of A from `linalg.eigen_split`;
    each eigenspace of an equivariant A is isotropy invariant."""
    action = a.decomp.action
    split = linalg.eigen_split(a.columns)
    assert split is not None
    out = []
    for lam, basis in split:
        space = isotropy.make_subspace(basis, action.norms)
        for op in action.ad_ops:
            assert isotropy.restrict_op(op, space, action.norms) is not None
        out.append((lam, space.dim))
    return out


def test_eigenstructure_identity(space):
    sp = space(3, 1)
    a_id = identity_metric(sp.decomp)
    assert eigenstructure(a_id) == [(1, sp.dim_m)]


def test_eigenstructure_of_deformation(space):
    sp = space(3, 2)
    a_t = stiefel.metric_at(sp, 3)
    assert eigenstructure(a_t) == [(1, 7), (3, 1)]


def test_eigenstructure_diagonal_example(space):
    sp = space(3, 2)
    s1 = sp.decomp.nontrivial_summands()[0]
    p1 = projector(s1.members[0].space, sp.action.norms, sp.dim_m)
    amat = mat_add(identity(sp.dim_m), p1)
    a = metric.from_matrix(sp.decomp, amat)
    assert eigenstructure(a) == [(1, 6), (2, 2)]


def test_normalizer_equivariance_cases(space):
    sp = space(3, 2)
    dec = sp.decomp
    assert check_normalizer_equivariance(identity_metric(dec))
    assert check_normalizer_equivariance(stiefel.metric_at(sp, 2))
    # distinct eigenvalues on the two equivalent members: must fail
    s1 = dec.nontrivial_summands()[0]
    p1 = projector(s1.members[0].space, dec.action.norms, dec.dim)
    a = metric.from_matrix(dec, mat_add(identity(dec.dim), p1))
    assert not check_normalizer_equivariance(a)


def test_full_family_matches_commutant_dimension(space):
    for nk in [(3, 1), (3, 2), (4, 2)]:
        sp = space(*nk)
        fam = full_family(sp.decomp)
        assert fam.n_params == len(metric.sym_commutant_basis(sp.decomp))


@pytest.mark.parametrize("which", ["3-2", "4-2", "4-3", "6-3", "two-torus"])
def test_assembled_commutant_matches_the_whole_m_solve(space, two_torus,
                                                       which):
    # the basis read off the block operators is, element for element, the
    # reduced-echelon basis that one equivariance system on all of m solves
    # to; each basis operator is 1 at its free position, where every other
    # is 0, so from_matrix reads it back as a unit vector
    dec = (two_torus() if which == "two-torus"
           else space(*map(int, which.split("-"))).decomp)
    action = dec.action
    basis = metric.sym_commutant_basis(dec)
    assert basis == isotropy.commutant_sym_ops(action.ad_ops, action.norms)
    for q, s in enumerate(basis):
        unit = [int(p == q) for p in range(len(basis))]
        assert metric.from_matrix(dec, dense_op(s, dec.dim)).params == unit


def test_a_dropped_intertwiner_block_is_caught(space, monkeypatch):
    # a block form without one intertwiner block (with its adjoint) spans
    # less than the commutant, so the assembled basis is not the solved one
    action = space(4, 3).action
    dec = isotropy.decompose_isotypic(action)
    full = metric.full_family

    def dropped(decomp):
        family = full(decomp)
        return replace(family,
                       intertwiner_blocks=family.intertwiner_blocks[1:])

    monkeypatch.setattr(metric, "full_family", dropped)
    assert (metric.sym_commutant_basis(dec)
            != isotropy.commutant_sym_ops(action.ad_ops, action.norms))


def test_a_scaled_intertwiner_entry_fails_the_commutation_check(space):
    dec = isotropy.decompose_isotypic(space(4, 2).action)
    phi = dec.nontrivial_summands()[0].intertwiner_bases[(0, 1)][0]
    r, c = phi[0][0]
    phi[0][0] = (r, 2 * c)
    with pytest.raises(ArithmeticError, match="commute"):
        metric.sym_commutant_basis(dec)


def test_the_commutation_check_needs_generators_of_h(space, monkeypatch):
    # the check runs on generators of h: a symmetric operator that commutes
    # with the center of h, which does not generate h, but not with the
    # whole action (the projector onto the complex line of e_1_3 in m_1)
    # fails it once it joins the block operators
    sp = space(4, 2)
    dec = isotropy.decompose_isotypic(sp.action)
    norms, d = sp.action.norms, sp.dim_m
    h_labels = [sp.algebra.labels[v.index(1)] for v in sp.split.h.basis_coords]
    center = linalg.combine_columns(
        [1, 1], [sp.action.ad_ops[h_labels.index(f"eb_{i}_{i}")]
                 for i in (3, 4)], d)
    line = metric._units([(linalg.make_subspace(
        [[(sp.m_labels.index(lab), 1)] for lab in ("e_1_3", "eb_1_3")],
        norms), i, i) for i in range(2)], norms)
    extra = metric._finish(line, d)

    def with_rows(ops):
        return [(op, linalg.column_rows(op, d)) for op in ops]

    assert metric._commutes(extra, with_rows([center]))
    assert not metric._commutes(extra, with_rows(sp.action.generator_ops))
    layout = metric.MetricFamily._layout

    def with_line(family):
        yield from layout(family)
        yield "line", True, lambda: line

    monkeypatch.setattr(metric.MetricFamily, "_layout", with_line)
    with pytest.raises(ArithmeticError, match="does not commute"):
        metric.sym_commutant_basis(dec)


def test_commutant_assembly_solves_no_whole_m_system(space, monkeypatch):
    # decomposing (4,3) and assembling its commutant solves no system in the
    # d(d+1)/2 entries of a symmetric operator on m, and Hom(a, b) only for
    # modules a < b, each pair once: Hom(b, a) is read off by adjoints
    action = space(4, 3).action
    unknowns, maps = [], []
    nullspace, equivariant_maps = linalg.nullspace, isotropy._equivariant_maps

    def recorded_nullspace(rows, ncols):
        unknowns.append(ncols)
        return nullspace(rows, ncols)

    def recorded_maps(ops_a, ops_b, da, db):
        maps.append((ops_a, ops_b))
        return equivariant_maps(ops_a, ops_b, da, db)

    monkeypatch.setattr(linalg, "nullspace", recorded_nullspace)
    monkeypatch.setattr(isotropy, "_equivariant_maps", recorded_maps)
    dec = isotropy.decompose_isotypic(action)
    metric.sym_commutant_basis(dec)
    d = dec.dim
    assert unknowns and d * (d + 1) // 2 not in unknowns
    # a module's own commutant is solved first, in module order
    modules = [a for a, b in maps if a is b]
    index = {id(ops): i for i, ops in enumerate(modules)}
    pairs = [(index[id(a)], index[id(b)]) for a, b in maps if a is not b]
    assert len(modules) == 3
    assert sorted(pairs) == [(0, 1), (0, 2), (1, 2)]


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (4, 3)])
def test_family_ops_match_the_dense_gram_construction(space, n, k):
    sp = space(n, k)
    for family in (stiefel.diagonal_family(sp), full_family(sp.decomp)):
        ops = metric.family_basis_ops(family)
        assert ops == [columns(op) for op in dense_gram_family_ops(family)]
        assert all(type(x) is Fraction
                   for op in ops for col in op for _, x in col)
    for sub in (sp.s1.space, sp.ideals.center, sp.decomp.s0.space):
        assert (metric.family_basis_ops(_scalar_family(sp.decomp, sub))[0]
                == columns(projector(sub, sp.action.norms, sp.dim_m)))


def _scalar_family(dec, sub):
    return metric.MetricFamily(dec, scalar_blocks=(
        metric.ScalarBlock(space=sub, class_id=0, label="x"),))


def _labelled_on_diagonal(family):
    # scalar[...] and op[...](i,i) scale a diagonal unit, op[...](i,j) for
    # i < j and mix[...]#q do not
    def on(label):
        if label.startswith("op["):
            i, j = label.rsplit("(", 1)[1].rstrip(")").split(",")
            return i == j
        return label.startswith("scalar[")
    return [on(label) for label in family.param_labels()]


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (4, 3), (6, 3)])
def test_on_diagonal_matches_the_parameter_layout(space, n, k):
    from go_metric_lab.go import reduce_family
    sp = space(n, k)
    families = [full_family(sp.decomp), stiefel.diagonal_family(sp),
                reduce_family(sp.decomp)[0]]
    for family in families:
        flags = family.on_diagonal()
        assert len(flags) == family.n_params
        assert flags == _labelled_on_diagonal(family)
        assert all(flags) == (not family.intertwiner_blocks and all(
            b.space.dim <= 1 for b in family.operator_blocks))
    # the full cone leaves the diagonal through S0's operator block
    assert not all(families[0].on_diagonal())


def _layout_oracle(family):
    """(label, scales a diagonal unit) per parameter, rebuilt from the
    blocks as `oracles.random_points` rebuilds the layout: a scalar per
    merged class, each operator block's (i, j), i <= j, row by row, then
    each intertwiner coordinate."""
    layout = [("scalar[" + "+".join(
        b.label for b in family.scalar_blocks if b.class_id == c)
        + "]", True) for c in family.classes()]
    for b in family.operator_blocks:
        d = b.space.dim
        layout += [(f"op[{b.label}]({i},{j})", i == j)
                   for i in range(d) for j in range(i, d)]
    for b in family.intertwiner_blocks:
        layout += [(f"mix[{b.label}]#{q}", False) for q in range(len(b.phis))]
    return layout


@pytest.mark.parametrize("which", ["3-2", "4-2", "8-4", "two-torus"])
def test_parameters_match_an_independent_layout(space, two_torus, which):
    # parameters() is the one list of a family's parameters: its labels,
    # diagonal flags and operators against the blocks and the dense-Gram
    # construction, on the diagonal (Stiefel only), full and reduced
    # families; every reader of the layout agrees with it.  The dense
    # construction takes 25 s on (8,4)'s full family (about 0.2 s per
    # parameter at dim m = 48), so there it checks the other two
    from go_metric_lab.go import reduce_family
    if which == "two-torus":
        dec, families = two_torus(), []
    else:
        sp = space(*map(int, which.split("-")))
        dec, families = sp.decomp, [stiefel.diagonal_family(sp)]
    families += [full_family(dec), reduce_family(dec)[0]]
    for family in families:
        params = family.parameters
        assert ([(p.label, p.on_diagonal) for p in params]
                == _layout_oracle(family))
        layout = list(family._layout())
        assert [(label, diag) for label, diag, _ in layout] == list(params)
        ops = [metric._finish(build(), dec.dim) for _, _, build in layout]
        if which != "8-4" or family is not families[-2]:
            assert ([dense_op(op, dec.dim) for op in ops]
                    == dense_gram_family_ops(family))
        assert metric.family_basis_ops(family) == ops
        assert family.n_params == len(params)
        assert family.param_labels() == [p.label for p in params]
        assert family.on_diagonal() == [p.on_diagonal for p in params]
    assert not all(families[-2].on_diagonal())


def test_family_instantiation_round_trip(space):
    sp = space(3, 2)
    fam = full_family(sp.decomp)
    rng = random.Random(9)
    values = [Fraction(rng.randint(1, 4)) for _ in range(fam.n_params)]
    a = instantiate(fam, values)
    coords = coords_in_family(fam, a)
    assert coords is not None
    a2 = instantiate(fam, coords)
    assert matrix_of(a2) == matrix_of(a)


def test_metric_json_round_trip(space):
    sp = space(3, 1)
    a = stiefel.metric_at(sp, Fraction(1, 2))
    data = oracles.metric_to_json_dict(a)
    assert data["pd"] is True
    assert all(isinstance(p, str) for p in data["params"])
    back = metric.metric_from_json_dict(sp.decomp, data)
    assert matrix_of(back) == matrix_of(a)


def test_metric_json_numbers_build_a_rational_matrix(space):
    # JSON numbers convert to their exact binary value before any arithmetic
    sp = space(3, 1)
    a = stiefel.metric_at(sp, Fraction(1, 2))
    data = oracles.metric_to_json_dict(a)
    data["params"] = [float(Fraction(p)) for p in data["params"]]
    back = metric.metric_from_json_dict(sp.decomp, data)
    assert matrix_of(back) == matrix_of(a)
    assert all(isinstance(x, Fraction) for row in matrix_of(back) for x in row)


def test_eigenstructure_on_three_dim_m(space):
    # diag(1, 1, 2) on the 3-dim tangent space of (2,1)
    sp = space(2, 1)
    amat = mat_add(
        identity(sp.dim_m),
        projector(sp.decomp.s0.space, sp.action.norms, sp.dim_m))
    a = metric.from_matrix(sp.decomp, amat)
    assert sorted(eigenstructure(a)) == [(1, 2), (2, 1)]


def test_eigen_split_is_none_on_an_irrational_spectrum(space):
    # an intertwiner component makes the S1 eigenvalues 4 +/- sqrt(2): the
    # rational eigenspace (4, on the untouched coordinates) has dimension 4
    # of 8, so the split does not span and is refused
    sp = space(3, 2)
    dec = sp.decomp
    fam = metric.full_family(dec)
    blk = fam.intertwiner_blocks[0]
    mix, mix2 = (dense_op(metric._finish(
        metric._intertwiner_pair_op(dec, blk, phi), dec.dim), dec.dim)
        for phi in blk.phis[:2])
    amat = linalg.mat_scale(Fraction(4), identity(sp.dim_m))
    amat = mat_add(amat, mix)
    amat = mat_add(amat, mix2)
    a = metric.from_matrix(dec, amat)
    assert a.is_pd
    assert linalg.minimal_polynomial(a.columns) == [-56, 46, -12, 1]   # (x-4)(x^2-8x+14)
    assert linalg.eigen_split(a.columns) is None
