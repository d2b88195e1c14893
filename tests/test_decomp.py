"""Reductive splits: orthogonality, reductivity, projections, dimensions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from go_metric_lab import decomp, lie_core, linalg
from go_metric_lab.decomp import (NotSubalgebraError, diagonal_u_nk,
                                  project, reductive_split, subalgebra)
import oracles
from oracles import identity, inner, rref


def test_diagonal_subalgebra_dims(un):
    assert diagonal_u_nk(un(3), 1).dim == 4
    h = diagonal_u_nk(un(3), 2)
    assert h.dim == 1
    g5 = un(5)
    h = diagonal_u_nk(g5, 3)
    assert h.dim == 4
    assert reductive_split(g5, h).dim_m == 21          # 2nk - k^2


def test_diagonal_rejects_bad_k(un):
    with pytest.raises(lie_core.InvalidDimensionError):
        diagonal_u_nk(un(3), 0)
    with pytest.raises(lie_core.InvalidDimensionError):
        diagonal_u_nk(un(3), 3)


def test_diagonal_raises_on_a_wrong_dimension(un, monkeypatch):
    # the dimension check survives python -O
    g = un(3)
    monkeypatch.setattr(decomp, "subalgebra", lambda g, coords: decomp.Subalgebra(
        parent=g, basis_coords=coords[:-1]))
    with pytest.raises(ArithmeticError, match="dimension 3, expected 4"):
        diagonal_u_nk(g, 1)


def test_split_whole_algebra(un):
    g = un(2)
    sp = reductive_split(g, subalgebra(g, identity(g.dim)))
    assert sp.dim_m == 0


def test_split_um3_k1_m_basis_order(un):
    g = un(3)
    sp = reductive_split(g, diagonal_u_nk(g, 1))
    labels = []
    for v in sp.m_basis:
        nz = [i for i, c in enumerate(v) if c != 0]
        assert len(nz) == 1
        labels.append(g.labels[nz[0]])
    assert labels == ["e_1_2", "e_1_3", "eb_1_1", "eb_1_2", "eb_1_3"]


def test_split_dimension_formula(un):
    for n, k in [(2, 1), (3, 1), (3, 2), (4, 2), (5, 2), (5, 3)]:
        g = un(n)
        sp = reductive_split(g, diagonal_u_nk(g, k))
        assert sp.dim_m == 2 * n * k - k * k
        assert sp.h.dim + sp.dim_m == g.dim


def test_projection_example(un):
    g = un(4)
    sp = reductive_split(g, diagonal_u_nk(g, 2))
    x = g.vector(("e_1_2", 1), ("e_3_4", 1))
    assert project(sp, x, "h") == g.vector(("e_3_4", 1))
    assert project(sp, x, "m") == g.vector(("e_1_2", 1))


def test_projection_identities(un):
    g = un(3)
    sp = reductive_split(g, diagonal_u_nk(g, 1))
    rng = random.Random(3)
    for _ in range(15):
        x = lie_core.random_vector_of_len(g.dim, rng)
        ph = project(sp, x, "h")
        pm = project(sp, x, "m")
        assert linalg.vec_add(ph, pm) == x
        assert inner(g, ph, pm) == 0
        assert project(sp, pm, "m") == pm           # idempotent


def test_projection_rejects_bad_target(un):
    g = un(2)
    sp = reductive_split(g, diagonal_u_nk(g, 1))
    with pytest.raises(ValueError):
        project(sp, [Fraction(0)] * g.dim, "k")
    with pytest.raises(lie_core.DimensionMismatchError):
        project(sp, [Fraction(0)], "m")


def test_reductivity_on_stiefel_instances(un):
    for n, k in [(3, 1), (4, 2)]:
        g = un(n)
        sp = reductive_split(g, diagonal_u_nk(g, k))
        for a in sp.h.basis_coords:
            for x in sp.m_basis:
                br = lie_core.bracket(g, a, x)
                assert linalg.vec_is_zero(project(sp, br, "h"))


def test_non_subalgebra_detected(un):
    g = un(3)
    # span{e_12} alone: [e_12, e_12] = 0 fine; add e_13 without e_23
    coords = [g.vector(("e_1_2", 1)), g.vector(("e_1_3", 1))]
    with pytest.raises(NotSubalgebraError):
        subalgebra(g, coords)


def _su(g):
    """su(n) in u(n): every basis vector but the diagonal ones, plus the
    differences eb_1_1 - eb_i_i, so the span is not a coordinate subspace."""
    n = g.n
    diagonal = {f"eb_{i}_{i}" for i in range(1, n + 1)}
    coords = [g.vector((lab, 1)) for lab in g.labels if lab not in diagonal]
    coords += [g.vector(("eb_1_1", 1), (f"eb_{i}_{i}", -1))
               for i in range(2, n + 1)]
    return coords


def test_su4_is_a_subalgebra_and_u4_minus_one_element_is_not(un):
    g = un(4)
    assert subalgebra(g, _su(g)).dim == 15
    for drop in range(g.dim):
        coords = [linalg.unit_vec(g.dim, i) for i in range(g.dim) if i != drop]
        with pytest.raises(NotSubalgebraError, match="outside the span"):
            subalgebra(g, coords)


def test_subalgebra_reduces_the_span_once(un, monkeypatch):
    # closure is tested against the pivots of one reduction, so the check
    # makes no solve per bracket
    calls = {"pivot_rows": 0, "solve_consistent": 0}
    for module, name in ((linalg, "pivot_rows"), (oracles, "solve_consistent")):
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(module, name, counted)
    g = un(5)
    assert diagonal_u_nk(g, 1).dim == 16
    assert subalgebra(g, _su(g)).dim == 24
    assert calls == {"pivot_rows": 2, "solve_consistent": 0}


def test_subalgebra_rejects_a_set_not_closed_under_the_bracket(un):
    # independent sets in non-coordinate position: su(3) in a seeded
    # integer basis is closed; adding a multiple of eb_1_1 to one of its
    # vectors keeps the set independent but not closed, and the closure
    # verdict matches the rref rank test of coords + brackets
    g = un(3)
    rng = random.Random("subalgebra-not-closed")
    su = _su(g)
    mixed = []
    for i in range(len(su)):
        coeffs = [rng.randint(-2, 2) for _ in su]
        coeffs[i] = 5           # invertible for this seed; the assert
                                # below would call it dependent otherwise
        mixed.append(oracles.combine(coeffs, su, g.dim))
    assert subalgebra(g, mixed).dim == 8
    eb11 = g.vector(("eb_1_1", 1))
    for i in range(len(mixed)):
        bent = list(mixed)
        bent[i] = linalg.vec_add(bent[i], linalg.vec_scale(Fraction(1, 3), eb11))
        brackets = [lie_core.bracket(g, x, y) for x in bent for y in bent]
        closed = len(rref(bent + brackets)[1]) == len(bent)
        assert not closed
        with pytest.raises(NotSubalgebraError, match="outside the span"):
            subalgebra(g, bent)


@pytest.mark.parametrize("which", [(3, 2), (4, 2), (4, 3), (6, 3), "two-torus"])
def test_gram_m_is_the_full_trace_form_matrix(un, two_torus, which):
    # the split fills only the diagonal of gram_m: the Gram-Schmidt basis
    # of m is B-orthogonal, so every other entry is zero
    if which == "two-torus":
        split = two_torus().action.split
    else:
        g = un(which[0])
        split = reductive_split(g, diagonal_u_nk(g, which[1]))
    g = split.algebra
    full = [[inner(g, a, b) for b in split.m_basis] for a in split.m_basis]
    assert split.gram_m == full
    assert all(full[j][j] > 0 for j in range(split.dim_m))


def test_split_json_round_trip(un):
    g = un(3)
    sp = reductive_split(g, diagonal_u_nk(g, 1))
    data = oracles.split_to_json_dict(sp)
    assert all(isinstance(s, str) and "/" in s
               for row in data["h_basis"] for s in row)
    back = decomp.split_from_json_dict(g, data)
    assert back.dim_m == sp.dim_m
    assert back.m_basis == sp.m_basis


@given(st.integers(0, 10 ** 6))
def test_projection_orthogonality_random(seed):
    g = _cached()
    sp = _cached_split()
    rng = random.Random(seed)
    x = lie_core.random_vector_of_len(g.dim, rng)
    assert inner(g, project(sp, x, "h"), project(sp, x, "m")) == 0


_G = None
_SP = None


def _cached():
    global _G
    if _G is None:
        _G = lie_core.build_un(3)
    return _G


def _cached_split():
    global _SP
    if _SP is None:
        _SP = reductive_split(_cached(), diagonal_u_nk(_cached(), 2))
    return _SP
