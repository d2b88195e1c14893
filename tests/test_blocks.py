"""Drawn metrics proved positive definite on S0 and one Schur block per
summand (`IsotypicalDecomposition.schur_bases`, `FamilyOperators.block_forms`),
checked against the dense m x m form."""

from dataclasses import replace
from fractions import Fraction

import pytest

from go_metric_lab import go, isotropy, linalg, metric, stiefel
from go_metric_lab.go import ScanSpec, search_go
from oracles import dense_pd_check, family_matrix
from test_bracket_table import _decomposition
from test_go import _GRID_32, _m_index

SPACES = ["3-2", "4-2", "4-3", "6-3", "8-4", "two-torus"]


def _verdicts(family, seed, count, monkeypatch):
    """The draws of `go._random_points` when every PD proof accepts, as
    values, and each proof's own verdict: the draw stream does not depend
    on the verdicts."""
    tensors = go._ScanTensors(family.operators, _GRID_32)
    verdicts = []
    prove = linalg.sym_positive_definite

    def recorded(ga):
        verdicts.append(prove(ga))
        return True

    with monkeypatch.context() as m:
        m.setattr(linalg, "sym_positive_definite", recorded)
        draws = go._random_points(family, ScanSpec(
            grid=_GRID_32, seed=seed, random_count=count), tensors)
    assert len(draws) == len(verdicts) == count
    return [[Fraction(*tensors.pairs[i]) for i in ids]
            for ids in draws], verdicts


def _dense_verdicts(family, draws):
    dec = family.decomp
    ops = metric.family_basis_ops(family)
    return [dense_pd_check(family_matrix(ops, values, dec.dim),
                           dec.action.norms) for values in draws]


def _commutant_orbit(dec, v):
    """The closure of v under the symmetric commutant basis, by dense
    elimination: the smallest subspace holding v that every basis
    operator maps into itself."""
    ops = [[linalg.dense(col, dec.dim) for col in s]
           for s in metric.sym_commutant_basis(dec)]
    span, work = [v], [v]
    while work:
        w = work.pop()
        for op in ops:
            image = [sum((col[i] * c for col, c in zip(op, w) if c),
                         Fraction(0)) for i in range(dec.dim)]
            if linalg.rank(span + [image]) > len(span):
                span.append(image)
                work.append(image)
    return span


@pytest.mark.parametrize("which", SPACES)
def test_schur_bases_are_s0_and_the_commutant_orbit_of_v(space, two_torus,
                                                         which):
    # S0's basis, then per summand the orbit of v, the first basis vector
    # of its first member, under the symmetric commutant: r dim D vectors
    # for r members of type D, v alone when r = 1
    dec = _decomposition(space, two_torus, which)
    bases = dec.schur_bases
    summands = dec.nontrivial_summands()
    assert len(bases) == 1 + len(summands)
    dense = [[linalg.dense(w, dec.dim) for w in block] for block in bases]
    assert linalg.same_span(dense[0], dec.s0.space.basis)
    assert len(dense[0]) == dec.s0.dim
    for block, s in zip(dense[1:], summands):
        r, d = len(s.members), s.members[0].commutant_dim
        v = linalg.dense(s.members[0].space.sparse_basis[0], dec.dim)
        orbit = _commutant_orbit(dec, v)
        assert len(block) == len(orbit) == (r * d if r > 1 else 1)
        assert linalg.same_span(block, orbit)
    assert dec.schur_bases is bases
    assert metric.full_family(dec).operators.block_forms[0] == sum(
        map(len, bases))


def _scale_couplings(monkeypatch, family, scale):
    """family_basis_ops with the intertwiner operators times `scale`."""
    ops = metric.family_basis_ops(family)
    for c, label in enumerate(family.param_labels()):
        if label.startswith("mix"):
            ops[c] = [[(i, scale * x) for i, x in col] for col in ops[c]]
    monkeypatch.setattr(metric, "family_basis_ops", lambda family: ops)


@pytest.mark.parametrize("scale", [1, 4], ids=["full", "couplings-x4"])
@pytest.mark.parametrize("which", SPACES)
def test_block_verdicts_match_dense_pd_oracle(space, two_torus, monkeypatch,
                                              which, scale):
    # seeded draws of the full cone, rejected ones included: each proof on
    # the blocks, and `is_pd` of the drawn metric, gives the verdict of the
    # dense m x m form.  The drawn intertwiner coordinates are too small to
    # make a summand's block indefinite, so a second family scales their
    # operators by 4, and the summands' blocks reject draws too
    dec = _decomposition(space, two_torus, which)
    full = metric.full_family(dec)
    if scale > 1:
        _scale_couplings(monkeypatch, full, scale)
    ops = full.operators.columns
    count = 30 if which == "8-4" else 60
    for seed in (0, 7):
        draws, verdicts = _verdicts(full, seed, count, monkeypatch)
        oracle = _dense_verdicts(full, draws)
        assert verdicts == oracle
        assert [metric.MetricEndomorphism(dec, linalg.combine_columns(
            values, ops, dec.dim)).is_pd for values in draws] == oracle
        assert False in oracle and True in oracle


def test_reduced_family_is_proved_on_the_commutant_blocks(space, monkeypatch):
    # (6,3): three complex members of dimension 6, so W is a third of S1;
    # the family keeps m2 ~ m3 only, with m2 and m3 in one scalar class, so
    # its operators move v in m1 nowhere: the blocks must still be the
    # commutant's, or the m2-m3 block, its coupling scaled by 4 to reject
    # draws, goes unproved
    sp = space(6, 3)
    full = metric.full_family(sp.decomp)
    family = replace(
        full, intertwiner_blocks=tuple(
            b for b in full.intertwiner_blocks
            if (b.member_a, b.member_b) == (1, 2)),
        scalar_blocks=tuple(replace(b, class_id=1) if b.class_id == 2 else b
                            for b in full.scalar_blocks))
    _scale_couplings(monkeypatch, family, 4)
    size, _ = family.operators.block_forms
    assert size == sum(map(len, sp.decomp.schur_bases)) == 9 + 6
    rejected = 0
    for seed in range(4):
        draws, verdicts = _verdicts(family, seed, 60, monkeypatch)
        oracle = _dense_verdicts(family, draws)
        assert verdicts == oracle
        rejected += oracle.count(False)
    assert rejected


def _with_op(monkeypatch, family, index, change):
    """family_basis_ops with operator `index` changed: change(entries) on
    its {col: {row: value}} form."""
    ops = metric.family_basis_ops(family)
    entries = [dict(col) for col in ops[index]]
    change(entries)
    ops[index] = [sorted(col.items()) for col in entries]
    monkeypatch.setattr(metric, "family_basis_ops", lambda family: ops)
    return ops


def test_family_with_an_unsymmetric_form_is_refused(space, monkeypatch):
    # S0's first off-diagonal unit with its upper entry doubled: it commutes
    # with h, but G Op is not symmetric, so no draw is a metric
    sp = space(4, 2)
    full = metric.full_family(sp.decomp)
    index = full.param_labels().index("op[S0](0,1)")

    def doubled(entries):
        col = next(j for j, e in enumerate(entries) if e)
        row = min(entries[col])
        entries[col][row] *= 2

    _with_op(monkeypatch, full, index, doubled)
    with pytest.raises(metric.NotEquivariantError, match="not symmetric"):
        search_go(sp.decomp, full, ScanSpec(grid=_GRID_32, seed=1,
                                            random_count=8),
                  include_grid=False)


def test_skew_part_on_a_one_vector_block_is_refused(space, monkeypatch):
    # (3,1): S1 is one member, whose Schur block is the one vector v, where
    # the B-skew ad(z0), which commutes with h, vanishes; added to S1's
    # scalar operator, it is still refused, as G Op is checked on all of m
    sp = space(3, 1)
    full = metric.full_family(sp.decomp)
    ad_z0 = isotropy._ad_columns(sp.split, linalg.sparse(sp.z0_m))

    def plus_ad_z0(entries):
        for j, col in enumerate(ad_z0):
            for i, x in col:
                entries[j][i] = entries[j].get(i, 0) + x

    _with_op(monkeypatch, full, full.param_labels().index("scalar[S1.m1]"),
             plus_ad_z0)
    assert sum(map(len, sp.decomp.schur_bases)) < sp.dim_m
    with pytest.raises(metric.NotEquivariantError, match="not symmetric"):
        full.operators.block_forms


def test_family_off_the_commutant_is_proved_on_all_of_m(space, monkeypatch):
    # an operator that does not commute with h gets no Schur step: its
    # family is proved on one block, all of m, with the dense verdicts
    sp = space(4, 2)
    full = metric.full_family(sp.decomp)
    i, j = _m_index(sp, "e_1_3"), _m_index(sp, "eb_1_3")

    def bumped(entries):
        for a, b in ((i, j), (j, i)):
            entries[a][b] = entries[a].get(b, 0) + Fraction(1, 2)

    _with_op(monkeypatch, full, 0, bumped)
    assert full.operators.block_forms[0] == sp.dim_m
    draws, verdicts = _verdicts(full, 3, 40, monkeypatch)
    oracle = _dense_verdicts(full, draws)
    assert verdicts == oracle and False in oracle


def test_block_forms_are_built_once_per_family_on_first_draw(space):
    # a diagonal family's grid scan draws nothing and builds no block
    # forms; a full family builds them on its first draw and keeps them
    sp = space(4, 2)
    diag = stiefel.diagonal_family(sp)
    search_go(sp.decomp, diag, ScanSpec(grid=[1, 2], seed=1))
    assert "block_forms" not in vars(diag.operators)
    full = metric.full_family(sp.decomp)
    spec = ScanSpec(grid=_GRID_32, seed=1, random_count=6)
    search_go(sp.decomp, full, spec, include_grid=False)
    forms = vars(full.operators)["block_forms"]
    search_go(sp.decomp, full, ScanSpec(grid=_GRID_32, seed=2,
                                        random_count=6), include_grid=False)
    assert vars(full.operators)["block_forms"] is forms
