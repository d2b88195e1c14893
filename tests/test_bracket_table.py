"""The per-split m x m bracket table against a g-coordinate oracle.

The scan tensors, `go_solve_at`, `go_residual_sq`, the ad(Z)|_m columns
of S0 and the brackets inside S0 read brackets off `ReductiveSplit.bracket_table` and the
sparse isotropy columns; the isotropy operators come from the reductivity
check of the split.  The oracle below computes the same quantities the
long way: m-coordinates to g-coordinates, bracket in g through the
structure table, back to m-coordinates.  Results must agree as exact
Fractions.  The table contracts in integers over its common denominator;
every Stiefel table has denominator 1, so a u(3) with one rescaled basis
vector supplies a table with non-integer entries.
"""

import itertools
import random
from fractions import Fraction

import pytest

from go_metric_lab import (cli, decomp, go, isotropy, lie_core, linalg, metric,
                          stiefel)
from oracles import (columns, dense_op, dense_orthogonal_projection,
                     fraction_bracket, fraction_residual_sq,
                     identity, inner, mat_vec, matrix_of, scan_residual_sq,
                     vec_add)


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
        ox_g = [split.m_to_g(mat_vec(op, x)) for op in ops]
        x_g = split.m_to_g(x)
        bx.append([_sparse(split.coords_in_m(lie_core.bracket(g, x_g, og)))
                   for og in ox_g])
        hx.append([[_sparse(split.coords_in_m(lie_core.bracket(g, hv, og)))
                    for og in ox_g] for hv in split.h.basis_coords])
    return bx, hx


def oracle_solve(a_metric, x_m):
    split = a_metric.decomp.action.split
    g = split.algebra
    ax_g = split.m_to_g(mat_vec(matrix_of(a_metric), x_m))
    c_g = lie_core.bracket(g, split.m_to_g(x_m), ax_g)
    assert linalg.vec_is_zero(decomp.project(split, c_g, "h"))
    cols = [split.coords_in_m(lie_core.bracket(g, hv, ax_g))
            for hv in split.h.basis_coords]
    rhs = [-c for c in split.coords_in_m(c_g)]
    return linalg.least_squares(cols, rhs, split.gram_m)


def oracle_residual_sq(a_metric, x_m, a_h):
    split = a_metric.decomp.action.split
    g = split.algebra
    ax_g = split.m_to_g(mat_vec(matrix_of(a_metric), x_m))
    a_g = linalg.zero_vec(g.dim)
    for c, b in zip(a_h, split.h.basis_coords):
        if c != 0:
            a_g = vec_add(a_g, linalg.vec_scale(c, b))
    lhs = lie_core.bracket(g, vec_add(a_g, split.m_to_g(x_m)), ax_g)
    return inner(g, lhs, lhs)


# ---------------------------------------------------------------------------
# agreement
# ---------------------------------------------------------------------------

def _summand_of(dec, i):
    """The class of the summand holding m-basis vector i, by the dense
    projection oracle."""
    unit = linalg.unit_vec(dec.dim, i)
    return next(s.class_id for s in dec.summands
                if not any(dense_orthogonal_projection(
                    s.space.sparse_basis, s.space.norms, dec.action.norms,
                    unit)[1]))


@pytest.mark.parametrize("n,k,which", [(3, 2, "diag"), (3, 2, "full"),
                                       (4, 2, "full"), (4, 3, "full")])
def test_scan_tensors_match_oracle(space, n, k, which):
    sp = space(n, k)
    family = (stiefel.diagonal_family(sp) if which == "diag"
              else metric.full_family(sp.decomp))
    ops = metric.family_basis_ops(family)
    probes = go.basis_probe_vectors(sp.decomp)
    picked = list(range(len(probes)))
    if (n, k) == (4, 3):
        # 3 intertwiner blocks; the oracle over all 120 probes is slow, so
        # every unit probe and every 12th pair probe, which take pairs
        # across the two summands and inside each of them
        picked = picked[:sp.dim_m] + picked[sp.dim_m::12]
        kinds = set()
        for p in picked[sp.dim_m:]:
            i, j = [c for c, x in enumerate(probes[p]) if x]
            a, b = _summand_of(sp.decomp, i), _summand_of(sp.decomp, j)
            kinds.add("across" if a != b else a)
        assert kinds == {"across"} | {s.class_id for s in sp.decomp.summands}
    tensors = go._ScanTensors(family.operators())
    built = [tensors._probe(p) for p in picked]
    bx, hx = oracle_tensors(family, ops, [probes[p] for p in picked])
    assert [probe.bx for probe in built] == bx
    assert [probe.hx for probe in built] == hx
    assert [probe.support for probe in built] == [
        [c for c in range(family.n_params) if b[c] or any(r[c] for r in h)]
        for b, h in zip(bx, hx)]


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
# integer contraction
# ---------------------------------------------------------------------------

def _rescaled_un(n, label, scale):
    """u(n) with one basis vector multiplied by `scale`.  The basis stays
    B-orthogonal, but the structure constants, and with them the m x m
    table, acquire denominators."""
    g = lie_core.build_un(n)
    lam = [Fraction(scale) if lab == label else Fraction(1)
           for lab in g.labels]
    structure = {(a, b): {k: lam[a] * lam[b] * c / lam[k]
                          for k, c in entry.items()}
                 for (a, b), entry in g.structure.items()}
    gram = [[lam[a] * lam[b] * c for b, c in enumerate(row)]
            for a, row in enumerate(g.gram)]
    basis = [linalg.mat_scale(s, mat) for s, mat in zip(lam, g.basis)]
    return lie_core.MatrixLieAlgebra(n=n, labels=g.labels, structure=structure,
                                     gram=gram, basis=basis)


def _oracle_bracket(split, x, y):
    """[X, Y] in g-coordinates, split into (m-coordinates, h-component)."""
    dim = split.dim_m
    c_g = lie_core.bracket(split.algebra, split.m_to_g(linalg.dense(x, dim)),
                           split.m_to_g(linalg.dense(y, dim)))
    c_h = decomp.project(split, c_g, "h")
    return (_sparse(split.coords_in_m(linalg.vec_sub(c_g, c_h))),
            _sparse(c_h))


def _split_index(split, label):
    g = split.algebra
    for i, v in enumerate(split.m_basis):
        if g.labels[next(j for j, c in enumerate(v) if c != 0)] == label:
            return i
    raise KeyError(label)


def test_integer_contraction_matches_oracle_on_a_non_integer_table():
    g = _rescaled_un(3, "e_1_3", Fraction(3, 2))
    assert lie_core.validate_algebra(g).ok
    split = decomp.reductive_split(g, decomp.diagonal_u_nk(g, 2))
    table = split.bracket_table
    assert any(c.denominator > 1 for part in (table.m, table.h)
               for row in part for entry in row for _, c in entry)
    dim = split.dim_m
    rng = random.Random("integer-contraction")
    dens = (1, 2, 3, 5, 7)

    def mixed():
        return [(i, Fraction(rng.choice([-4, -3, -1, 1, 2, 5]),
                             rng.choice(dens)))
                for i in sorted(rng.sample(range(dim), rng.randint(1, dim)))]

    pairs = [(mixed(), mixed()) for _ in range(40)]
    e13, eb13 = (_split_index(split, lab) for lab in ("e_1_3", "eb_1_3"))
    with_h = ([(e13, Fraction(2, 3))], [(eb13, Fraction(-5, 7))])
    x = mixed()
    vanishing = (x, [(i, c * Fraction(-3, 5)) for i, c in x])
    pairs += [with_h, vanishing]
    for x, y in pairs:
        got = table.bracket(x, y)
        assert got == _oracle_bracket(split, x, y)
        assert got == fraction_bracket(table, x, y)
        assert all(type(c) is Fraction for part in got for _, c in part)
    assert table.bracket(*with_h)[1]
    assert table.bracket(*vanishing) == ([], [])
    with pytest.raises(ValueError, match="not in m"):
        table.bracket_in_m(*with_h)


@pytest.mark.parametrize("n,k", [(3, 2), (4, 3)])
def test_integer_contraction_matches_fraction_contraction(space, n, k):
    table = space(n, k).split.bracket_table
    dim = space(n, k).dim_m
    rng = random.Random(f"fraction-contraction:{n}:{k}")
    for _ in range(30):
        x, y = (_sparse(lie_core.random_vector_of_len(dim, rng))
                for _ in range(2))
        assert table.bracket(x, y) == fraction_bracket(table, x, y)


def _residual_matches_oracles(a, xs, witness, rng):
    """go_residual_sq against the Fraction contraction and the g-oracle,
    at each witness and at a perturbed copy of it; returns how many
    perturbed witnesses left a nonzero residual."""
    h_dim = a.decomp.action.split.h.dim
    moved = 0
    for x in xs:
        a_h = witness(x)
        bumped = [c + Fraction(rng.randint(-2, 2), rng.randint(1, 5))
                  for c in a_h]
        for w in (a_h, bumped):
            got = go.go_residual_sq(a, x, w)
            assert got == fraction_residual_sq(a, x, w)
            assert got == oracle_residual_sq(a, x, w)
            assert type(got) is Fraction
        moved += go.go_residual_sq(a, x, bumped) > 0
    assert len(a_h) == h_dim
    return moved


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (4, 3)])
def test_integer_residual_matches_oracle(space, n, k):
    sp = space(n, k)
    rng = random.Random(f"integer-residual:{n}:{k}")
    xs = [linalg.unit_vec(sp.dim_m, i) for i in range(sp.dim_m)]
    xs += [lie_core.random_vector_of_len(sp.dim_m, rng) for _ in range(10)]
    for t in (Fraction(1, 2), Fraction(7, 3)):
        a_t = stiefel.metric_at(sp, t)
        wmap = stiefel.witness_map(sp, t)
        assert all(go.go_residual_sq(a_t, x, wmap(x)) == 0 for x in xs)
        assert _residual_matches_oracles(a_t, xs, wmap, rng) > 0


def test_integer_residual_matches_oracle_on_a_non_integer_table():
    g = _rescaled_un(3, "e_1_3", Fraction(3, 2))
    split = decomp.reductive_split(g, decomp.diagonal_u_nk(g, 2))
    dec = isotropy.decompose_isotypic(isotropy.isotropy_action(split))
    assert split.bracket_table.denominator > 1
    rng = random.Random("integer-residual:rescaled")
    a = metric.from_parameters(
        dec, [Fraction(rng.randint(1, 9), rng.randint(1, 4))
              for _ in metric.sym_commutant_basis(dec)])
    assert a.integer_columns[0] > 1
    xs = [lie_core.random_vector_of_len(split.dim_m, rng) for _ in range(15)]
    assert _residual_matches_oracles(
        a, xs, lambda x: go.go_solve_at(a, x)[0], rng) > 0


def _negated_lead_point(tensors, values, p):
    """values with the first value on probe p's support made negative."""
    lead = next(c for c in tensors._probe(p).support if values[c] != 0)
    out = list(values)
    out[lead] = -abs(out[lead])
    return out


def _full_cone(space, which):
    """The decomposition and full family of a Stiefel space, or of the
    rescaled u(3) over u(1), whose table and probe rows have denominators."""
    if which == "rescaled-u3":
        g = _rescaled_un(3, "e_1_3", Fraction(3, 2))
        dec = isotropy.decompose_isotypic(isotropy.isotropy_action(
            decomp.reductive_split(g, decomp.diagonal_u_nk(g, 2))))
    else:
        dec = space(*which).decomp
    return dec, metric.full_family(dec)


@pytest.mark.parametrize("which", [(3, 2), (4, 2), "rescaled-u3"],
                         ids=["3-2", "4-2", "rescaled-u3"])
def test_integer_scan_residual_matches_oracles(space, monkeypatch, which):
    # the scan's integer contraction against go_solve_at and the Fraction
    # residual, at off-diagonal points with negative values, a negative
    # lead and mixed denominators; a point, its negative and a rational
    # multiple of it share one memo entry and one least-squares solve
    dec, full = _full_cone(space, which)
    ops = metric.family_basis_ops(full)
    tensors = go._ScanTensors(full.operators())
    rng = random.Random(f"integer-keys:{which}")
    solves = []
    least_squares = linalg.least_squares

    def counted(*args):
        solves.append(args)
        return least_squares(*args)

    monkeypatch.setattr(linalg, "least_squares", counted)
    checked = 0
    for _ in range(4):
        values = [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 4, 6)))
                  for _ in range(full.n_params)]
        for p in rng.sample(range(len(tensors.probes)), 6):
            if not any(values[c] for c in tensors._probe(p).support):
                continue
            point = _negated_lead_point(tensors, values, p)
            a = metric.MetricEndomorphism(
                dec, linalg.combine_columns(point, ops, dec.dim))
            x = tensors.probes[p]
            a_h, best = go.go_solve_at(a, x)
            solves.clear()
            memo = len(tensors.memo)
            res = scan_residual_sq(tensors, point, p)
            assert res == best == fraction_residual_sq(a, x, a_h)
            scale = Fraction(-3, 7)
            assert scan_residual_sq(tensors, [-v for v in point], p) == res
            assert (scan_residual_sq(tensors, [scale * v for v in point], p)
                    == scale * scale * res)
            assert len(tensors.memo) <= memo + 1 and len(solves) <= 1
            checked += res > 0
    assert checked > 0
    if which == "rescaled-u3":
        assert any(probe.den > 1 for probe in tensors.ops.probes.values())


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
    amat = identity(sp.dim_m)
    i = _m_index(sp, label)
    amat[i][i] += 1
    return amat


def test_go_solve_rejects_non_equivariant_metric(space):
    sp = space(3, 2)
    a = metric.MetricEndomorphism(decomp=sp.decomp,
                                  columns=columns(_bumped(sp, "e_1_3")))
    # [X, AX] = -[e_13, eb_13], which has a component along eb_33 in h
    x = linalg.zero_vec(sp.dim_m)
    x[_m_index(sp, "e_1_3")] = x[_m_index(sp, "eb_1_3")] = Fraction(1)
    with pytest.raises(ArithmeticError, match="h-component"):
        go.go_solve_at(a, x)


def test_scan_tensors_reject_op_outside_commutant(space):
    sp = space(3, 2)
    family = stiefel.diagonal_family(sp)
    ops = metric.family_basis_ops(family) + [
        columns(_bumped(sp, "e_1_3"))]
    probes = go.basis_probe_vectors(sp.decomp)
    tensors = go._ScanTensors(metric.FamilyOperators(sp.decomp, ops))
    with pytest.raises(ValueError, match="not in m"):
        for p in range(len(probes)):
            tensors._probe(p)


# ---------------------------------------------------------------------------
# exact work done: calls, not time
# ---------------------------------------------------------------------------

def _count_calls(monkeypatch):
    calls = {"bracket": 0, "sparse_bracket": 0, "coords_in_m": 0}
    coords_in_m = decomp.ReductiveSplit.coords_in_m

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("bracket", "sparse_bracket"):
        monkeypatch.setattr(lie_core, name,
                            counted(name, getattr(lie_core, name)))
    monkeypatch.setattr(decomp.ReductiveSplit, "coords_in_m",
                        counted("coords_in_m", coords_in_m))
    return calls


def test_table_is_the_only_bracket_work_of_a_tensor_build(space, monkeypatch):
    # the table reads one sparse structure-constant bracket per m pair and
    # never the dense g bracket; a tensor build brackets nothing
    sp = space(4, 2)
    split = decomp.reductive_split(sp.algebra, sp.split.h)
    calls = _count_calls(monkeypatch)
    split.bracket_table
    dim = split.dim_m
    assert calls == {"bracket": 0, "sparse_bracket": dim * (dim - 1) // 2,
                     "coords_in_m": 0}
    assert split.bracket_table is split.bracket_table

    sp.split.bracket_table
    family = metric.full_family(sp.decomp)
    ops = metric.family_basis_ops(family)
    probes = go.basis_probe_vectors(sp.decomp)
    calls.update(bracket=0, sparse_bracket=0, coords_in_m=0)
    tensors = go._ScanTensors(metric.FamilyOperators(sp.decomp, ops))
    for p in range(len(probes)):
        tensors._probe(p)
    assert calls == {"bracket": 0, "sparse_bracket": 0, "coords_in_m": 0}


def test_tensor_build_applies_only_the_operators_touching_the_probe(
        space, monkeypatch):
    # Op_c X is zero unless Op_c has a nonzero column on X's support, so a
    # build multiplies X by exactly those family operators, once each: for
    # a pair probe, the union over both coordinates
    sp = space(4, 2)
    family = metric.full_family(sp.decomp)
    ops = metric.family_basis_ops(family)
    probes = go.basis_probe_vectors(sp.decomp)
    tensors = go._ScanTensors(family.operators())
    param_of = {id(cols): c for c, cols in enumerate(tensors.ops.integer[1])}
    applied = []
    sparse_mat_vec = linalg.sparse_mat_vec

    def counted(columns, x):
        if id(columns) in param_of:
            applied.append(param_of[id(columns)])
        return sparse_mat_vec(columns, x)

    monkeypatch.setattr(linalg, "sparse_mat_vec", counted)
    n_applied = 0
    for p, x in enumerate(probes):
        applied.clear()
        tensors._probe(p)
        on = [i for i, v in enumerate(x) if v]
        assert applied == [c for c, cols in enumerate(ops)
                           if any(cols[i] for i in on)]
        n_applied += len(applied)
    assert n_applied < len(probes) * family.n_params


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
    dim = split.dim_m
    assert sp.action.ad_ops == [columns(_oracle_ad(split, hv))
                                for hv in split.h.basis_coords]
    squares = isotropy.squared_ad_candidates(sp.action, s0)
    for z_m, sq in zip(s0.basis, squares):
        adz = _oracle_ad(split, split.m_to_g(z_m))
        assert dense_op(isotropy._ad_columns(split, linalg.sparse(z_m)),
                        dim) == adz
        assert dense_op(sq, dim) == linalg.mat_scale(
            Fraction(-1), linalg.mat_mul(adz, adz))
    gens = isotropy.lie_generators(s0.sparse_basis,
                                   split.bracket_table.bracket_in_m)
    ops = sp.decomp.ideals.generator_ops
    assert len(ops) == len(gens) > 0
    for i, op in zip(gens, ops):
        assert dense_op(op, dim) == _oracle_ad(split,
                                               split.m_to_g(s0.basis[i]))


def test_construction_reads_tables_not_brackets(space, monkeypatch):
    sp = space(4, 2)
    split = decomp.reductive_split(sp.algebra, sp.split.h)
    split.bracket_table
    s0 = sp.decomp.s0.space
    calls = _count_calls(monkeypatch)
    action = isotropy.isotropy_action(split)
    assert len(list(isotropy.squared_ad_candidates(action, s0))) == s0.dim
    isotropy.split_ideals(split, s0)
    assert calls == {"bracket": 0, "sparse_bracket": 0, "coords_in_m": 0}


def test_squared_ad_candidates_are_built_when_tried(space, monkeypatch):
    # a split stops at the first candidate that splits its piece: a fresh
    # (4,3) decomposition builds 2 of the 9 candidates, and the result is
    # the one the cached build reports
    sp = space(4, 3)
    built = []
    ad_columns = isotropy._ad_columns

    def counted(split, z):
        built.append(z)
        return ad_columns(split, z)

    monkeypatch.setattr(isotropy, "_ad_columns", counted)
    dec = isotropy.decompose_isotypic(isotropy.isotropy_action(sp.split))
    assert sp.decomp.s0.dim == 9
    assert built == sp.decomp.s0.space.sparse_basis[:2]
    assert (cli.decomposition_report(dec)
            == cli.decomposition_report(sp.decomp))


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


# ---------------------------------------------------------------------------
# the sparse projection and the structure-constant table, against dense
# oracles: the dense projection and the dense bracket in g
# ---------------------------------------------------------------------------

def _decomposition(space, two_torus, which):
    if which == "two-torus":
        return two_torus()
    return space(*map(int, which.split("-"))).decomp


def _subspaces(dec):
    """(subspace, ambient norm vector): m inside g, then S0, every summand
    and every member inside m."""
    split = dec.action.split
    g = split.algebra
    out = [(split.m, [g.gram[i][i] for i in range(g.dim)])]
    for s in dec.summands:
        out += [(sub, split.norms_m)
                for sub in [s.space] + [mem.space for mem in s.members]]
    return out


@pytest.mark.parametrize("which", ["3-2", "4-3", "two-torus"])
def test_sparse_projection_matches_dense_oracle(space, two_torus, which):
    dec = _decomposition(space, two_torus, which)
    rng = random.Random(f"sparse-projection:{which}")
    split_seen = 0
    for sub, norms in _subspaces(dec):
        n = len(norms)
        vectors = [[], linalg.sparse_mat_vec(          # one inside
            sub.sparse_basis, [(j, Fraction(j + 1, 2)) for j in range(sub.dim)])]
        for _ in range(12):
            support = sorted(rng.sample(range(n), rng.randint(1, min(n, 5))))
            vectors.append([(i, Fraction(rng.choice([-3, -1, 1, 2, 4]),
                                         rng.choice([1, 2, 3])))
                            for i in support])
        for v in vectors:
            want = dense_orthogonal_projection(sub.sparse_basis, sub.norms,
                                               norms, linalg.dense(v, n))
            coords, resid = linalg.orthogonal_projection(sub, norms, v)
            assert (coords, resid) == tuple(map(linalg.sparse, want))
            assert (linalg.dense(coords, sub.dim), linalg.dense(resid, n)) \
                == want
            assert sub.coords_of(linalg.dense(v, n), norms) == (
                None if resid else want[0])
            split_seen += bool(coords) and bool(resid)
    assert split_seen       # vectors with both a projection and a residual


def _g_oracle_parts(split, w_g):
    """(m-coordinates, h-component) of a dense g-vector, both sparse, by
    the dense projection onto the dense m basis."""
    g = split.algebra
    parts = dense_orthogonal_projection(
        [linalg.sparse(b) for b in split.m_basis], split.norms_m,
        [g.gram[i][i] for i in range(g.dim)], w_g)
    return tuple(map(linalg.sparse, parts))


@pytest.mark.parametrize("which", ["two-torus", "4-3"])
def test_witness_bracket_and_solve_match_g_oracle(space, two_torus, which):
    # [a + X, Y] with a nonzero a, by `contract` on integers and by
    # `bracket`, against the dense bracket in g; then the solver's witness
    # against the g-coordinate solve, and its residual by `go_residual_sq`.
    # Every Stiefel table has denominator 1 and the two-torus table 2, so
    # an [h, m] part left off the table's denominator shows only there
    dec = _decomposition(space, two_torus, which)
    split = dec.action.split
    table, g, dim = split.bracket_table, split.algebra, split.dim_m
    assert (table.denominator > 1) == (which == "two-torus")
    h_basis = [linalg.sparse(v) for v in split.h.basis_coords]
    rng = random.Random(f"witness-bracket:{which}")

    def vec(n, dens):
        return [(i, Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice(dens)))
                for i in sorted(rng.sample(range(n), rng.randint(1, min(n, 4))))]

    for dens in [(1,)] * 10 + [(1, 2, 3)] * 15:
        x, y, a = vec(dim, dens), vec(dim, dens), vec(split.h.dim, dens)
        ad_m, ad_h = _g_oracle_parts(split, lie_core.bracket(
            g, linalg.dense(linalg.sparse_mat_vec(h_basis, a), g.dim),
            split.m_to_g(linalg.dense(y, dim))))
        assert not ad_h                         # [h, m] lies in m
        c_m, c_h = _oracle_bracket(split, x, y)
        want = (linalg.sparse(vec_add(linalg.dense(c_m, dim),
                                      linalg.dense(ad_m, dim))), c_h)
        assert table.bracket(x, y, a) == want
        if dens == (1,):
            parts = table.contract(*[[(i, int(c)) for i, c in v]
                                     for v in (x, y, a)])
            assert tuple(linalg.sparse_from({
                k: Fraction(c, table.denominator) for k, c in part.items()})
                for part in parts) == want
    # the residual at the solver's own witness is the solver's residual,
    # on seeded metrics of the full cone
    full = metric.full_family(dec)
    witnessed = 0
    for seed in range(3 if which == "two-torus" else 1):
        rng = random.Random(f"witness-solve:{which}:{seed}")
        a = metric.instantiate(full, [
            Fraction(rng.randint(2, 6)) if on else
            Fraction(rng.randint(-1, 1), 8) for on in full.on_diagonal()])
        assert a.is_pd
        for _ in range(6):
            x = lie_core.random_vector_of_len(dim, rng)
            a_h, res_sq = go.go_solve_at(a, x)
            assert (a_h, res_sq) == oracle_solve(a, x)
            assert go.go_residual_sq(a, x, a_h) == res_sq
            witnessed += any(a_h)
    assert witnessed


@pytest.mark.parametrize("which", ["3-2", "4-2", "5-3", "two-torus"])
def test_table_and_isotropy_columns_match_g_oracle(space, two_torus, which):
    # every m pair of a fresh table and every (h, m) pair of the isotropy
    # columns, against the dense bracket in g and the dense projection
    split = _decomposition(space, two_torus, which).action.split
    g = split.algebra
    fresh = decomp.reductive_split(g, split.h)
    table = fresh.bracket_table
    with_h = 0
    for a, b in itertools.product(range(split.dim_m), repeat=2):
        want = _g_oracle_parts(split, lie_core.bracket(
            g, split.m_basis[a], split.m_basis[b]))
        assert (table.m[a][b], table.h[a][b]) == want
        with_h += bool(want[1])
    assert with_h or which == "two-torus"
    for hv, ad in zip(split.h.basis_coords, fresh.ad_h):
        assert ad == [_g_oracle_parts(split, lie_core.bracket(g, hv, mv))[0]
                      for mv in split.m_basis]
