"""The cleared projection kernel against the `Fraction` forms it replaced.

Subspaces keep their basis cleared to integer rows; the projection, the
operator restriction, the bracket-table fill and the isotropy columns all
run on integers and build one `Fraction` per output entry.  Each is
checked here against the `Fraction` oracles of `oracles.py` on the
Stiefel spaces (2,1) through (6,3), the (3,2) space read back from its
JSON form, u(3) with a rescaled basis vector (structure constants with
denominators), the u(4) two-torus space, whose m basis is not
coordinate-aligned, and u(3) over the line of (2 e_1_2 + eb_1_2) / 3,
where h and m basis vectors with denominators bracket to nonzero.
"""

import random
from fractions import Fraction

import pytest

from go_metric_lab import decomp, isotropy, lie_core, linalg
from oracles import (fraction_gram_schmidt, fraction_projection,
                     fraction_restrict, fraction_split_fill,
                     split_to_json_dict)
from test_bracket_table import _rescaled_un

CASES = ["2-1", "3-1", "3-2", "4-2", "4-3", "5-3", "6-3", "space-file-3-2",
         "rescaled-u3", "two-torus", "line-u3"]


def _decomposition(space, two_torus, which):
    if which == "two-torus":
        return two_torus()
    if which == "space-file-3-2":
        # the algebra and the split as a space file gives them
        g = lie_core.from_json_dict(lie_core.to_json_dict(lie_core.build_un(3)))
        split = decomp.split_from_json_dict(
            g, split_to_json_dict(space(3, 2).split))
    elif which == "rescaled-u3":
        g = _rescaled_un(3, "e_1_3", Fraction(3, 2))
        split = decomp.reductive_split(g, decomp.diagonal_u_nk(g, 2))
    elif which == "line-u3":
        g = lie_core.build_un(3)
        split = decomp.reductive_split(g, decomp.subalgebra(g, [g.vector(
            ("e_1_2", Fraction(2, 3)), ("eb_1_2", Fraction(1, 3)))]))
        assert {dj for _, dj, _ in split.m.rows} == {1, 2}
    else:
        return space(*map(int, which.split("-"))).decomp
    return isotropy.decompose_isotypic(isotropy.isotropy_action(split))


def _subspaces(dec):
    """(subspace, its ambient norm vector): m inside g, then S0, the
    summands, their members, the center and the simple ideals inside m."""
    split = dec.action.split
    out = [(split.m, split.algebra.norms)]
    for s in dec.summands:
        out += [(sub, split.norms_m)
                for sub in [s.space] + [mem.space for mem in s.members]]
    ideals = dec.ideals
    return out + [(sub, split.norms_m)
                  for sub in [ideals.center] + ideals.simples]


def _vector(rng, n, dens):
    support = sorted(rng.sample(range(n), rng.randint(1, min(n, 5))))
    return [(i, Fraction(rng.choice([-3, -1, 1, 2, 4]), rng.choice(dens)))
            for i in support]


@pytest.mark.parametrize("which", CASES)
def test_table_fill_and_isotropy_columns_match_fraction_fill(
        space, two_torus, which):
    # every m pair of a fresh table, and ad_h, against each g-bracket of
    # the Fraction structure table split by the Fraction projection
    split = _decomposition(space, two_torus, which).action.split
    fresh = decomp.reductive_split(split.algebra, split.h)
    table = fresh.bracket_table
    want, ad = fraction_split_fill(fresh)
    dim = fresh.dim_m
    assert [[(table.m[a][b], table.h[a][b]) for b in range(dim)]
            for a in range(dim)] == want
    assert fresh.ad_h == ad
    assert (table.denominator > 1) == (
        which in ("rescaled-u3", "two-torus", "line-u3"))


@pytest.mark.parametrize("which", ["4-3", "two-torus", "line-u3"])
def test_isotropy_columns_of_s0_match_fraction_fill(space, two_torus, which):
    # ad(z)|_m for seeded Fraction combinations z of the S0 basis, by one
    # contraction of the cleared z, against the Fraction fill's [m_a, m_b];
    # a z whose brackets leave m is refused
    dec = _decomposition(space, two_torus, which)
    split, s0 = dec.action.split, dec.s0.space
    want, _ = fraction_split_fill(split)
    dim = split.dim_m
    rng = random.Random(f"cleared-ad:{which}")
    for _ in range(4):
        z = linalg.sparse_mat_vec(s0.sparse_basis,
                                  _vector(rng, s0.dim, (1, 2, 3)))
        cols = []
        for b in range(dim):
            acc = {}
            for a, za in z:
                for k, c in want[a][b][0]:
                    acc[k] = acc.get(k, 0) + za * c
            cols.append(linalg.sparse_from(acc))
        assert isotropy._ad_columns(split, z) == cols
    leaves = next(a for a in range(dim) if any(
        part[1] for part in want[a]))
    with pytest.raises(ValueError):
        isotropy._ad_columns(split, [(leaves, Fraction(1, 2))])


@pytest.mark.parametrize("which", CASES)
def test_projection_and_gram_schmidt_match_fraction_forms(
        space, two_torus, which):
    # orthogonal_projection of integer and Fraction vectors, also divided
    # by a denominator, and make_subspace on combinations of each basis,
    # against the Fraction projection and Gram-Schmidt; the cleared rows
    # and the index hold integers only
    dec = _decomposition(space, two_torus, which)
    rng = random.Random(f"cleared-projection:{which}")
    for sub, norms in _subspaces(dec):
        n = len(norms)
        assert sub.form == norms
        assert all(type(x) is int for b, dj, mj in sub.rows
                   for x in [dj, mj] + [c for _, c in b])
        assert all(type(u) is int for hits in sub.index.values()
                   for _, u in hits)
        inside = linalg.sparse_mat_vec(
            sub.sparse_basis, [(j, Fraction(j + 1, 2)) for j in range(sub.dim)])
        vectors = [[], inside] + [_vector(rng, n, dens)
                                  for dens in [(1,)] * 4 + [(1, 2, 3)] * 8]
        for v in vectors:
            for den in (1, 6):
                u = [(i, c / den) for i, c in v]
                got = linalg.orthogonal_projection(sub, norms, v, den)
                assert got == fraction_projection(sub.sparse_basis,
                                                  sub.norms, norms, u)
                assert all(type(c) is Fraction for part in got
                           for _, c in part)
        if sub.dim:
            combos = [linalg.sparse_mat_vec(sub.sparse_basis, [
                (j, Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 3])))
                for j in range(sub.dim)]) for _ in range(sub.dim + 2)]
            rebuilt = linalg.make_subspace(combos, norms)
            assert (rebuilt.sparse_basis, rebuilt.norms) == \
                fraction_gram_schmidt(combos, norms)
            assert rebuilt.dim == sub.dim


@pytest.mark.parametrize("which", CASES)
def test_restriction_matches_fraction_restriction(space, two_torus, which):
    # every isotropy operator restricted to every invariant subspace of m,
    # and a seeded line that the action moves, which gives None
    dec = _decomposition(space, two_torus, which)
    action = dec.action
    norms = action.norms
    ops = list(action.ad_ops)
    moved = 0
    rng = random.Random(f"cleared-restriction:{which}")
    line = linalg.make_subspace([_vector(rng, action.dim, (1, 2))], norms)
    for sub, _ in _subspaces(dec)[1:] + [(line, norms)]:
        for op in ops:
            got = isotropy.restrict_op(op, sub, norms)
            assert got == fraction_restrict(op, sub.sparse_basis, sub.norms,
                                            norms)
            moved += got is None
    assert moved


def test_a_subspace_is_projected_only_with_its_own_form(space):
    # the cleared form bakes in the norm vector the subspace was made
    # with; another one, or the same values in another order, is refused
    dec = space(4, 3).decomp
    member = dec.nontrivial_summands()[0].members[0].space
    norms = dec.action.norms
    other = [2 * c for c in norms]
    v = [(i, Fraction(1)) for i in range(len(norms))]
    assert linalg.orthogonal_projection(member, list(norms), v) == \
        linalg.orthogonal_projection(member, norms, v)
    for bad in (other, norms[::-1] if norms != norms[::-1] else other):
        with pytest.raises(ValueError):
            linalg.orthogonal_projection(member, bad, v)
        with pytest.raises(ValueError):
            isotropy.restrict_op(dec.action.ad_ops[0], member, bad)
        with pytest.raises(ValueError):
            member.coords_of(linalg.dense(v, len(norms)), bad)


class _Counted:
    """`Fraction` patched into the package modules that build them, to
    count the ones they construct."""

    MODULES = (linalg, lie_core, isotropy)

    def __init__(self, monkeypatch):
        self.n = 0

        def counted(*args):
            self.n += 1
            return Fraction(*args)

        for module in self.MODULES:
            monkeypatch.setattr(module, "Fraction", counted)


def test_kernel_builds_one_fraction_per_nonzero_output(space, monkeypatch):
    # on a (4,3) module: restricting an integer operator, and projecting
    # integer vectors, builds one Fraction per nonzero output entry, none
    # on the way
    dec = space(4, 3).decomp
    norms = dec.action.norms
    modules = [m.space for s in dec.nontrivial_summands() for m in s.members]
    int_ops = [[[(i, int(c)) for i, c in col] for col in op]
               for op in dec.action.ad_ops]
    assert all(c.denominator == 1 for op in dec.action.ad_ops
               for col in op for _, c in col)
    rng = random.Random("counted-kernel")
    vectors = [[(i, rng.randint(-5, 5) or 1) for i in sorted(
        rng.sample(range(dec.dim), rng.randint(1, 6)))] for _ in range(20)]
    counted = _Counted(monkeypatch)
    outputs = 0
    for sub in modules:
        for op in int_ops:
            cols = isotropy.restrict_op(op, sub, norms)
            outputs += sum(map(len, cols))
        for v in vectors:
            coords, resid = linalg.orthogonal_projection(sub, norms, v)
            outputs += len(coords) + len(resid)
    assert outputs and counted.n <= outputs


def test_table_fill_builds_one_fraction_per_nonzero_entry(space, monkeypatch):
    sp = space(4, 3)
    split = decomp.reductive_split(sp.algebra, sp.split.h)
    counted = _Counted(monkeypatch)
    table = split.bracket_table
    dim = split.dim_m
    entries = sum(len(part[a][b]) for part in (table.m, table.h)
                  for a in range(dim) for b in range(a + 1, dim))
    assert entries and counted.n <= entries
