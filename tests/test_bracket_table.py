"""The per-split m x m bracket table against a g-coordinate oracle.

The scan tensors, `go_solve_at`, `go_residual_sq`, `ad_on_m` and the
brackets inside S0 read brackets off `ReductiveSplit.bracket_table` and the
sparse isotropy columns; the isotropy operators come from the reductivity
check of the split.  The oracle below computes the same quantities the
long way: m-coordinates to g-coordinates, bracket in g through the
structure table, back to m-coordinates.  Results must agree as exact
Fractions.
"""

import random
from fractions import Fraction

import pytest

from go_metric_lab import decomp, go, isotropy, lie_core, linalg, metric, stiefel
from oracles import dense_op, inner


# ---------------------------------------------------------------------------
# the g-coordinate oracle
# ---------------------------------------------------------------------------

def _sparse(vec):
    return [(i, c) for i, c in enumerate(vec) if c != 0]


def oracle_tensors(family, ops, probes):
    split = family.decomp.action.split
    g = split.algebra
    ops = [dense_op(cols, split.dim_m) for cols in ops]
    bx, hx = [], []
    for x in probes:
        ox_g = [split.m_to_g(linalg.mat_vec(op, x)) for op in ops]
        x_g = split.m_to_g(x)
        bx.append([_sparse(split.coords_in_m(lie_core.bracket(g, x_g, og)))
                   for og in ox_g])
        hx.append([[_sparse(split.coords_in_m(lie_core.bracket(g, hv, og)))
                    for og in ox_g] for hv in split.h.basis_coords])
    return bx, hx


def oracle_solve(a_metric, x_m):
    split = a_metric.decomp.action.split
    g = split.algebra
    ax_g = split.m_to_g(linalg.mat_vec(a_metric.matrix, x_m))
    c_g = lie_core.bracket(g, split.m_to_g(x_m), ax_g)
    assert linalg.vec_is_zero(decomp.project(split, c_g, "h"))
    cols = [split.coords_in_m(lie_core.bracket(g, hv, ax_g))
            for hv in split.h.basis_coords]
    rhs = [-c for c in split.coords_in_m(c_g)]
    return linalg.least_squares(cols, rhs, split.gram_m)


def oracle_residual_sq(a_metric, x_m, a_h):
    split = a_metric.decomp.action.split
    g = split.algebra
    ax_g = split.m_to_g(linalg.mat_vec(a_metric.matrix, x_m))
    a_g = linalg.zero_vec(g.dim)
    for c, b in zip(a_h, split.h.basis_coords):
        if c != 0:
            a_g = linalg.vec_add(a_g, linalg.vec_scale(c, b))
    lhs = lie_core.bracket(g, linalg.vec_add(a_g, split.m_to_g(x_m)), ax_g)
    return inner(g, lhs, lhs)


# ---------------------------------------------------------------------------
# agreement
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n,k,which", [(3, 2, "diag"), (3, 2, "full"),
                                       (4, 2, "full")])
def test_scan_tensors_match_oracle(space, n, k, which):
    sp = space(n, k)
    family = (stiefel.diagonal_family(sp) if which == "diag"
              else metric.full_family(sp.decomp))
    ops = metric.family_basis_ops(family)
    probes = go.basis_probe_vectors(sp.decomp)
    tensors = go._ScanTensors(family, ops, probes)
    bx, hx = oracle_tensors(family, ops, probes)
    assert tensors.bx == bx
    assert tensors.hx == hx


def _non_go_diagonal_point(sp):
    family = stiefel.diagonal_family(sp)
    return metric.instantiate(
        family, [Fraction(i + 1) for i in range(family.n_params)])


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2)])
def test_solve_and_residual_match_oracle(space, n, k):
    sp = space(n, k)
    rng = random.Random(f"bracket-table:{n}:{k}")
    xs = [lie_core.random_vector_of_len(sp.dim_m, rng) for _ in range(20)]
    non_go = _non_go_diagonal_point(sp)
    falsified = 0
    for a in (stiefel.metric_at(sp, Fraction(3, 2)), non_go):
        for x in xs:
            a_h, res_sq = go.go_solve_at(a, x)
            assert (a_h, res_sq) == oracle_solve(a, x)
            assert go.go_residual_sq(a, x, a_h) == res_sq
            other = [Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                     for _ in range(sp.split.h.dim)]
            assert (go.go_residual_sq(a, x, other)
                    == oracle_residual_sq(a, x, other))
            falsified += a is non_go and res_sq > 0
    assert falsified > 0    # the diagonal point really is not GO


# ---------------------------------------------------------------------------
# containment guards
# ---------------------------------------------------------------------------

def _m_index(sp, label):
    for i, v in enumerate(sp.split.m_basis):
        if sp.algebra.labels[next(j for j, c in enumerate(v) if c != 0)] == label:
            return i
    raise KeyError(label)


def _bumped(sp, label):
    """Identity plus one on a single m-basis vector: B-symmetric for the
    diagonal Gram, but not isotropy-equivariant."""
    amat = linalg.identity(sp.dim_m)
    i = _m_index(sp, label)
    amat[i][i] += 1
    return amat


def test_go_solve_rejects_non_equivariant_metric(space):
    sp = space(3, 2)
    a = metric.MetricEndomorphism(decomp=sp.decomp,
                                  matrix=_bumped(sp, "e_1_3"),
                                  params=None, is_pd=True)
    # [X, AX] = -[e_13, eb_13], which has a component along eb_33 in h
    x = linalg.zero_vec(sp.dim_m)
    x[_m_index(sp, "e_1_3")] = x[_m_index(sp, "eb_1_3")] = Fraction(1)
    with pytest.raises(ArithmeticError, match="h-component"):
        go.go_solve_at(a, x)


def test_scan_tensors_reject_op_outside_commutant(space):
    sp = space(3, 2)
    family = stiefel.diagonal_family(sp)
    ops = metric.family_basis_ops(family) + [
        linalg.sparse_columns(_bumped(sp, "e_1_3"))]
    with pytest.raises(ValueError, match="not in m"):
        go._ScanTensors(family, ops, go.basis_probe_vectors(sp.decomp))


# ---------------------------------------------------------------------------
# exact work done: calls, not time
# ---------------------------------------------------------------------------

def _count_calls(monkeypatch):
    calls = {"bracket": 0, "coords_in_m": 0}
    bracket = lie_core.bracket
    coords_in_m = decomp.ReductiveSplit.coords_in_m

    def counted_bracket(*args):
        calls["bracket"] += 1
        return bracket(*args)

    def counted_coords_in_m(self, x):
        calls["coords_in_m"] += 1
        return coords_in_m(self, x)

    monkeypatch.setattr(lie_core, "bracket", counted_bracket)
    monkeypatch.setattr(decomp.ReductiveSplit, "coords_in_m",
                        counted_coords_in_m)
    return calls


def test_table_is_the_only_bracket_work_of_a_tensor_build(space, monkeypatch):
    sp = space(4, 2)
    split = decomp.reductive_split(sp.algebra, sp.split.h)
    calls = _count_calls(monkeypatch)
    split.bracket_table
    dim = split.dim_m
    assert calls == {"bracket": dim * (dim - 1) // 2, "coords_in_m": 0}
    assert split.bracket_table is split.bracket_table

    sp.split.bracket_table
    family = metric.full_family(sp.decomp)
    ops = metric.family_basis_ops(family)
    probes = go.basis_probe_vectors(sp.decomp)
    calls.update(bracket=0, coords_in_m=0)
    go._ScanTensors(family, ops, probes)
    assert calls == {"bracket": 0, "coords_in_m": 0}


# ---------------------------------------------------------------------------
# the construction layer: isotropy operators and brackets inside S0
# ---------------------------------------------------------------------------

def _oracle_ad(split, z_g):
    """ad(z)|_m over the m basis, bracketing in g."""
    g = split.algebra
    return linalg.transpose([split.coords_in_m(lie_core.bracket(g, z_g, b))
                             for b in split.m_basis])


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2)])
def test_construction_operators_match_oracle(space, n, k):
    sp = space(n, k)
    split = sp.split
    s0 = sp.decomp.s0.space
    assert sp.action.ad_ops == [_oracle_ad(split, hv)
                                for hv in split.h.basis_coords]
    squares = isotropy.squared_ad_candidates(sp.action, s0)
    for z_m, sq in zip(s0.basis, squares):
        adz = _oracle_ad(split, split.m_to_g(z_m))
        assert isotropy.ad_on_m(split, z_m) == adz
        assert sq == linalg.mat_scale(Fraction(-1), linalg.mat_mul(adz, adz))
    for z_m, op in zip(s0.basis, isotropy.s0_bracket_ops(split, s0)):
        adz = _oracle_ad(split, split.m_to_g(z_m))
        assert op == linalg.transpose(
            [s0.coords_of(linalg.mat_vec(adz, w), split.norms_m)
             for w in s0.basis])


def test_construction_reads_tables_not_brackets(space, monkeypatch):
    sp = space(4, 2)
    split = decomp.reductive_split(sp.algebra, sp.split.h)
    split.bracket_table
    s0 = sp.decomp.s0.space
    calls = _count_calls(monkeypatch)
    action = isotropy.isotropy_action(split)
    isotropy.squared_ad_candidates(action, s0)
    isotropy.s0_bracket_ops(split, s0)
    assert calls == {"bracket": 0, "coords_in_m": 0}


def _perturbed_un(n, label, norm):
    g = lie_core.build_un(n)
    i = g.index(label)
    g.gram[i][i] = Fraction(norm)
    return g


def test_isotropy_action_rejects_a_non_skew_action():
    # e_1_3 spans half of a module of U(3)/U(1); a wrong norm there breaks
    # the ad-invariance of the form but keeps the split reductive
    g = _perturbed_un(3, "e_1_3", 3)
    split = decomp.reductive_split(g, decomp.diagonal_u_nk(g, 2))
    with pytest.raises(ArithmeticError, match="not B-skew"):
        isotropy.isotropy_action(split)


def test_reductive_split_rejects_a_non_orthogonal_basis():
    g = lie_core.build_un(2)
    g.gram[0][1] = g.gram[1][0] = Fraction(1)
    with pytest.raises(ValueError, match="not B-orthogonal"):
        decomp.reductive_split(g, decomp.diagonal_u_nk(g, 1))
