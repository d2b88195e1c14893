"""The m-native reduction rules against the g-coordinate path they replaced.

`go.reduce_family` reads brackets off the split's m x m table and the
isotropy columns and carries vectors as (h, m) parts.  The oracle below is
the earlier implementation, which brackets in g through the structure
table and projects with the g Gram matrix; traces and reduced families
must agree exactly.
"""

import itertools
import random
from fractions import Fraction

import pytest

from go_metric_lab import decomp as decomp_mod
from go_metric_lab import go, isotropy, lie_core, linalg, metric, stiefel
from go_metric_lab.isotropy import decompose_isotypic, isotropy_action
from oracles import dense_op, inner, mat_vec, vec_add


# ---------------------------------------------------------------------------
# the g-coordinate oracle
# ---------------------------------------------------------------------------

def _label_coords(g, vec_g):
    return {g.labels[i]: linalg.frac_to_str(c)
            for i, c in enumerate(vec_g) if c != 0}


def _g_basis_of(split, space):
    return [split.m_to_g(v) for v in space.basis]


def _project_onto_space(g, basis_g, norms, w):
    out = linalg.zero_vec(len(w))
    for b, nu in zip(basis_g, norms):
        c = inner(g, w, b) / nu
        if c != 0:
            out = vec_add(out, linalg.vec_scale(c, b))
    return out


def oracle_reduce_family(decomp, seed=0):
    """Apply the reduction rules in order 3.4, 3.5, 3.6, 3.2."""
    split = decomp.action.split
    g = split.algebra
    family = metric.full_family(decomp)
    trace = go.ReductionTrace()

    # --- 3.4: bi-invariant form on the trivial summand -----------------
    ideals = isotropy.split_ideals(split, decomp.s0.space)
    family.operator_blocks = [b for b in family.operator_blocks if b.label != "S0"]
    next_class = max((b.class_id for b in family.scalar_blocks), default=-1) + 1
    if ideals.center.dim:
        family.operator_blocks.append(metric.OperatorBlock(
            space=ideals.center, label="z(S0)"))
    for i, s in enumerate(ideals.simples):
        label = f"s{i + 1}"
        family.scalar_blocks.append(metric.ScalarBlock(
            space=s, class_id=next_class, label=label))
        next_class += 1
    # recomputed facts backing the rule: S0 is the normalizer complement
    center_ok = all(
        linalg.vec_is_zero(lie_core.bracket(g, zc, sv))
        for zc in _g_basis_of(split, ideals.center)
        for sv in _g_basis_of(split, decomp.s0.space))
    trace.steps.append(go.RuleApplication(
        tag="3.4", rule="biinvariant-on-trivial-summand", target="S0",
        fired=True,
        witnesses=[{"center_dim": ideals.center.dim,
                    "simple_dims": [s.dim for s in ideals.simples],
                    "center_commutes": center_ok}],
        details={"connected_isotropy_assumed": True}))
    if not center_ok:
        raise ArithmeticError("center of S0 fails to commute with S0")

    # --- 3.5: diagonalize summands via perpendicular multipliers -------
    for si, summand in enumerate(decomp.summands):
        if summand is decomp.s0 or len(summand.members) < 2:
            continue
        label = f"S{summand.class_id}"
        witnesses = _oracle_prop35(decomp, si, seed)
        if witnesses is None:
            trace.steps.append(go.RuleApplication(
                tag="3.5", rule="diagonalize-summand", target=label, fired=False))
            continue
        family.intertwiner_blocks = [
            b for b in family.intertwiner_blocks if b.summand_index != si]
        trace.steps.append(go.RuleApplication(
            tag="3.5", rule="diagonalize-summand", target=label, fired=True,
            witnesses=[{"member": l + 1, "x": _label_coords(g, xg)}
                       for l, xg in witnesses]))

    # --- 3.6: scalar summands via orthogonal intertwiner brackets ------
    for si, summand in enumerate(decomp.summands):
        if summand is decomp.s0 or len(summand.members) < 2:
            continue
        label = f"S{summand.class_id}"
        result = _oracle_prop36(decomp, si, seed)
        if result is None:
            trace.steps.append(go.RuleApplication(
                tag="3.6", rule="scalar-summand", target=label, fired=False))
            continue
        family.intertwiner_blocks = [
            b for b in family.intertwiner_blocks if b.summand_index != si]
        member_classes = [b.class_id for b in family.scalar_blocks
                          if b.label.startswith(label + ".")]
        for c in member_classes[1:]:
            family.merge(member_classes[0], c)
        trace.steps.append(go.RuleApplication(
            tag="3.6", rule="scalar-summand", target=label, fired=True,
            witnesses=result, details={"quantifier_certified": True}))

    # --- 3.2: merge scalar classes through bracket projections ---------
    # candidate scalar subspaces: every scalar block plus 1-dim center
    nodes = []
    for b in family.scalar_blocks:
        nodes.append((b.space, b.class_id, b.label))
    for b in list(family.operator_blocks):
        if b.space.dim == 1:
            nodes.append((b.space, None, b.label))
    edges = []
    merged_pairs = []

    def node_class(idx):
        return nodes[idx][1]

    def promote_center(idx):
        """Turn a 1-dim operator block into a scalar block when merged."""
        space, _, label = nodes[idx]
        family.operator_blocks = [b for b in family.operator_blocks
                                  if b.label != label]
        new_id = max((b.class_id for b in family.scalar_blocks), default=-1) + 1
        family.scalar_blocks.append(metric.ScalarBlock(
            space=space, class_id=new_id, label=label))
        nodes[idx] = (space, new_id, label)
        return new_id

    bases_g = [(_g_basis_of(split, sp), sp.norms) for sp, _, _ in nodes]
    for i, j in itertools.combinations(range(len(nodes)), 2):
        wit = _oracle_prop32_pair(g, bases_g[i], bases_g[j])
        if wit is None:
            continue
        x_g, y_g, w_g, w_perp = wit
        edges.append({"pair": [nodes[i][2], nodes[j][2]],
                      "x": _label_coords(g, x_g), "y": _label_coords(g, y_g),
                      "bracket": _label_coords(g, w_g),
                      "outside_component": _label_coords(g, w_perp)})
        ci = node_class(i) if node_class(i) is not None else promote_center(i)
        cj = node_class(j) if node_class(j) is not None else promote_center(j)
        if family.merge(ci, cj):
            merged_pairs.append([nodes[i][2], nodes[j][2]])
    for i, j, k in itertools.permutations(range(len(nodes)), 3):
        if i > j:
            continue
        wit = _oracle_prop32_triple(g, bases_g[i], bases_g[j], bases_g[k])
        if wit is None:
            continue
        x_g, y_g, w_g = wit
        edges.append({"triple": [nodes[i][2], nodes[j][2], nodes[k][2]],
                      "x": _label_coords(g, x_g), "y": _label_coords(g, y_g),
                      "bracket": _label_coords(g, w_g)})
        ids = []
        for idx in (i, j, k):
            ids.append(node_class(idx) if node_class(idx) is not None
                       else promote_center(idx))
        for other in ids[1:]:
            if family.merge(ids[0], other):
                merged_pairs.append([nodes[i][2], nodes[j][2], nodes[k][2]])
    trace.steps.append(go.RuleApplication(
        tag="3.2", rule="merge-eigenvalues", target="scalar classes",
        fired=bool(edges),
        witnesses=edges, details={"merged": merged_pairs}))
    return family, trace


def _oracle_prop35(decomp, si, seed
                      ):
    """Per-member perpendicular vectors X with ad(X) injective on the member
    and vanishing on its siblings; None when some member has no witness."""
    split = decomp.action.split
    g = split.algebra
    summand = decomp.summands[si]
    members = summand.members
    summand_g = _g_basis_of(split, summand.space)

    candidates = list(split.h.basis_coords)
    candidates += _g_basis_of(split, decomp.s0.space)
    for sj, other in enumerate(decomp.summands):
        if sj != si and other is not decomp.s0:
            candidates += _g_basis_of(split, other.space)
    rng = random.Random(f"rule35:{seed}")
    pool = list(candidates)
    for _ in range(100):
        combo = linalg.zero_vec(g.dim)
        for v in pool:
            combo = vec_add(combo, linalg.vec_scale(
                Fraction(rng.randint(-3, 3)), v))
        candidates.append(combo)

    out = []
    for l, member in enumerate(members):
        member_g = _g_basis_of(split, member.space)
        found = None
        for x_g in candidates:
            if linalg.vec_is_zero(x_g):
                continue
            # X must be B-perpendicular to the whole summand
            if any(inner(g, x_g, s) != 0 for s in summand_g):
                continue
            ok = True
            cols = []
            for v_g in member_g:
                w = lie_core.bracket(g, x_g, v_g)
                w_m = split.coords_in_m(w)
                coords = member.space.coords_of(w_m, split.norms_m)
                if coords is None:
                    ok = False
                    break
                cols.append(coords)
            if not ok or linalg.rank(cols) != member.space.dim:
                continue
            for lm, other in enumerate(members):
                if lm == l:
                    continue
                for v_g in _g_basis_of(split, other.space):
                    if not linalg.vec_is_zero(lie_core.bracket(g, x_g, v_g)):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                found = x_g
                break
        if found is None:
            return None
        out.append((l, found))
    return out


def _oracle_prop36(decomp, si, seed
                        ):
    """Exact certificate of the scalar-summand conditions, or None.

    For each member l a vector X_l must make phi -> [X_l, phi(X_l)]
    projected outside the summand injective on every intertwiner space
    (covers all nonzero phi), with the images for different target members
    pairwise B-orthogonal (bilinear, so basis pairs suffice).
    """
    split = decomp.action.split
    g = split.algebra
    summand = decomp.summands[si]
    members = summand.members
    r = len(members)
    summand_g = _g_basis_of(split, summand.space)
    summand_norms = summand.space.norms

    def perp_part(w):
        return linalg.vec_sub(
            w, _project_onto_space(g, summand_g, summand_norms, w))

    out = []
    rng = random.Random(f"rule36:{seed}")
    for l, member in enumerate(members):
        base = [list(v) for v in member.space.basis]
        candidates = list(base)
        for _ in range(20):
            combo = linalg.zero_vec(decomp.dim)
            for v in base:
                combo = vec_add(combo, linalg.vec_scale(
                    Fraction(rng.randint(-3, 3)), v))
            candidates.append(combo)
        found = None
        for x_m in candidates:
            if linalg.vec_is_zero(x_m):
                continue
            x_coords = member.space.coords_of(x_m, split.norms_m)
            if x_coords is None:
                continue
            x_g = split.m_to_g(x_m)
            images = {}
            ok = True
            for m in range(r):
                if m == l:
                    continue
                phis = summand.intertwiner_bases.get((l, m), [])
                if not phis:
                    ok = False
                    break
                rems = []
                for phi in phis:
                    phi_x = mat_vec(dense_op(phi, members[m].dim), x_coords)
                    img_m = linalg.zero_vec(decomp.dim)
                    for c, b in zip(phi_x, members[m].space.basis):
                        if c != 0:
                            img_m = vec_add(img_m, linalg.vec_scale(c, b))
                    rem = perp_part(lie_core.bracket(g, x_g, split.m_to_g(img_m)))
                    rems.append(rem)
                if linalg.rank(rems) != len(phis):
                    ok = False
                    break
                images[m] = rems
            if not ok:
                continue
            for m1, m2 in itertools.combinations(sorted(images), 2):
                for w1 in images[m1]:
                    for w2 in images[m2]:
                        if inner(g, w1, w2) != 0:
                            ok = False
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if ok:
                found = x_m
                break
        if found is None:
            return None
        out.append({"member": l + 1,
                    "x": _label_coords(g, split.m_to_g(found))})
    return out


def _oracle_prop32_pair(g, basis_a, basis_b):
    """Basis pair whose bracket projects outside the two subspaces."""
    vecs_a, norms_a = basis_a
    vecs_b, norms_b = basis_b
    for x in vecs_a:
        for y in vecs_b:
            w = lie_core.bracket(g, x, y)
            if linalg.vec_is_zero(w):
                continue
            w_perp = linalg.vec_sub(
                w, _project_onto_space(g, vecs_a, norms_a, w))
            w_perp = linalg.vec_sub(
                w_perp, _project_onto_space(g, vecs_b, norms_b, w_perp))
            if not linalg.vec_is_zero(w_perp):
                return x, y, w, w_perp
    return None


def _oracle_prop32_triple(g, basis_a, basis_b, basis_c):
    """Basis pair of (a, b) whose bracket has a component in c."""
    vecs_a, _ = basis_a
    vecs_b, _ = basis_b
    vecs_c, norms_c = basis_c
    for x in vecs_a:
        for y in vecs_b:
            w = lie_core.bracket(g, x, y)
            if linalg.vec_is_zero(w):
                continue
            if not linalg.vec_is_zero(
                    _project_onto_space(g, vecs_c, norms_c, w)):
                return x, y, w
    return None


# ---------------------------------------------------------------------------
# agreement and exact work done
# ---------------------------------------------------------------------------

def _torus_toy(un):
    g = un(2)
    h = decomp_mod.subalgebra(g, [g.vector(("eb_1_1", 1)),
                                  g.vector(("eb_2_2", 1))])
    return decompose_isotypic(isotropy_action(decomp_mod.reductive_split(g, h)))


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (4, 3), (5, 3), (2, 0),
                                 (4, 0)],
                         ids=["3-2", "4-2", "4-3", "5-3", "torus",
                              "two-torus"])
def test_reduce_family_matches_g_oracle(space, un, two_torus, n, k):
    if k:
        dec = space(n, k).decomp
    else:
        dec = _torus_toy(un) if n == 2 else two_torus()
    for seed in (0, 7):
        family, trace = go.reduce_family(dec, seed=seed)
        o_family, o_trace = oracle_reduce_family(dec, seed=seed)
        assert go.trace_to_json_dict(trace) == go.trace_to_json_dict(o_trace)
        assert family.describe() == o_family.describe()


def test_reduce_family_reads_tables_not_brackets(space, monkeypatch):
    sp = space(4, 3)
    sp.split.bracket_table
    calls = {"bracket": 0, "coords_in_m": 0}
    bracket = lie_core.bracket
    coords_in_m = decomp_mod.ReductiveSplit.coords_in_m

    def counted_bracket(*args):
        calls["bracket"] += 1
        return bracket(*args)

    def counted_coords_in_m(self, x):
        calls["coords_in_m"] += 1
        return coords_in_m(self, x)

    monkeypatch.setattr(lie_core, "bracket", counted_bracket)
    monkeypatch.setattr(decomp_mod.ReductiveSplit, "coords_in_m",
                        counted_coords_in_m)
    go.reduce_family(sp.decomp)
    assert calls == {"bracket": 0, "coords_in_m": 0}
    # the oracle, for contrast, brackets in g
    oracle_reduce_family(sp.decomp)
    assert calls["bracket"] > 0 and calls["coords_in_m"] > 0


def test_ideals_split_once_per_decomposition(monkeypatch):
    # a fresh space: the build and two reductions share one ideal split
    calls = []
    split_ideals = isotropy.split_ideals

    def counted(*args):
        calls.append(args)
        return split_ideals(*args)

    monkeypatch.setattr(isotropy, "split_ideals", counted)
    sp = stiefel.build_stiefel(3, 2)
    _, trace_a = go.reduce_family(sp.decomp, seed=0)
    _, trace_b = go.reduce_family(sp.decomp, seed=0)
    assert len(calls) == 1
    assert go.trace_to_json_dict(trace_a) == go.trace_to_json_dict(trace_b)
    assert sp.ideals is sp.decomp.ideals
