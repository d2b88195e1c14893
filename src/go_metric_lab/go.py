"""The geodesic-orbit criterion, its certificates, and family reduction.

A metric A is geodesic-orbit iff every X in m admits a in h with
[a + X, AX] = 0.  Since a -> [a, AX] is linear, the best witness for a
fixed X is an exact least-squares problem over h; the squared residual is
an exact rational.  Sampling strategies can only falsify or
report "passed-sampling".  Full verification ("verified-on-family") needs a
linear closed-form witness map: the defect X -> [a(X) + X, AX] is then a
quadratic form, so exact vanishing on all basis vectors and pairwise sums
forces it to vanish identically.

The reduction engine prunes the candidate cone with four rules, applied in
a fixed order and recorded with recomputed witnesses:

  3.4  restrict A|_S0 to (free on the center) + (scalar per simple ideal);
  3.5  drop the off-diagonal blocks of a summand when every member has a
       perpendicular vector acting injectively on it and killing the rest;
  3.6  force a summand scalar when the member brackets against their
       intertwiner images are nonzero and pairwise orthogonal outside it;
  3.2  merge scalar classes joined by a bracket with a nonzero projection
       outside the pair (or onto a third class).

Rule codes "3.2"/"3.4"/"3.5"/"3.6" are stable wire-format tags.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from . import lie_core, linalg, metric as metric_mod
from .isotropy import IsotypicalDecomposition, Subspace
from .linalg import Sparse, Vec, ZERO, ONE
from .metric import MetricEndomorphism, MetricFamily


# ---------------------------------------------------------------------------
# the pointwise criterion
# ---------------------------------------------------------------------------

def as_m_coords(split, x: Vec) -> Vec:
    """Accept m-coordinates or g-coordinates of a vector in m."""
    if len(x) == split.dim_m:
        return list(x)
    if len(x) == split.algebra.dim:
        return split.coords_in_m(x)   # raises if outside m
    raise lie_core.DimensionMismatchError(
        f"vector length {len(x)} matches neither m ({split.dim_m}) "
        f"nor g ({split.algebra.dim})")


def go_solve_at(a_metric: MetricEndomorphism, x: Vec) -> Tuple[Vec, Fraction]:
    """Best witness a in h for the vector X: minimizes ||[a + X, AX]||_B.

    Returns (a over the h basis, squared residual).  Also asserts the
    structural fact that [X, AX] has no h-component.  Solves on integers,
    as `go_residual_sq` contracts: with X cleared per call and A, the
    isotropy columns and the m-Gram once per object, the columns are
    s [h_i, AX] and the right-hand side is -r [X, AX] for integers s and
    r, so the integer solution y gives a = y s / r and the residual is the
    integer one over D_G r^2.
    """
    action = a_metric.decomp.action
    split = action.split
    table = split.bracket_table
    dim = split.dim_m
    dx, xs = linalg.cleared(linalg.sparse(as_m_coords(split, x)))
    da, a_cols = a_metric.integer_columns
    ax = linalg.sparse_mat_vec(a_cols, xs)                # da dx AX
    c_m, c_h = table.contract(xs, ax)                     # dt da dx^2 [X, AX]
    if any(c_h.values()):
        raise ArithmeticError("[X, AX] acquired an h-component; "
                              "the metric is not symmetric-equivariant")
    dad, ad_cols = action.integer_ad_columns
    cols = [linalg.dense(linalg.sparse_mat_vec(ad, ax), dim)  # dad da dx
            for ad in ad_cols]
    rhs = linalg.dense([(i, -c) for i, c in c_m.items()], dim)
    dg, gram = split.integer_gram_m
    y, res = linalg.least_squares(cols, rhs, gram)
    s, r = dad * da * dx, table.denominator * da * dx * dx
    return [Fraction(s, r) * c for c in y], res / (dg * r * r)


def go_residual_sq(a_metric: MetricEndomorphism, x: Vec, a_h: Vec) -> Fraction:
    """Squared residual ||[a + X, AX]||_B^2 for a supplied witness a.

    Contracts on integers.  X and a are cleared of their denominators per
    call, and A, the isotropy columns and the norms once per object, so
    AX, [X, AX] (`BracketTable.contract`), sum a_i ad_i(AX) and the
    weighted norm are integer sums over one denominator; the result is one
    `Fraction`, equal to the rational computation.
    """
    action = a_metric.decomp.action
    split = action.split
    table = split.bracket_table
    dx, xs = linalg.cleared(linalg.sparse(as_m_coords(split, x)))
    da, a_cols = a_metric.integer_columns
    ax = linalg.sparse_mat_vec(a_cols, xs)                # da dx AX
    c_m, c_h = table.contract(xs, ax)                     # dt da dx^2 [X, AX]
    dw, ws = linalg.cleared(linalg.sparse(a_h))
    dad, ad_cols = action.integer_ad_columns
    w_ax: dict = {}                                       # dw dad da dx [a, AX]
    for i, w in ws:
        for k, c in linalg.sparse_mat_vec(ad_cols[i], ax):
            w_ax[k] = w_ax.get(k, 0) + w * c
    # both parts over da dx lcm(dt dx, dw dad)
    den = math.lcm(table.denominator * dx, dw * dad)
    s_b, s_w = den // (table.denominator * dx), den // (dw * dad)
    lhs = {k: s_b * c for k, c in c_m.items()}
    for k, c in w_ax.items():
        lhs[k] = lhs.get(k, 0) + s_w * c
    # h and m are B-orthogonal, so the two parts add in the norm; the
    # basis of g is B-orthogonal too (checked by the split)
    dn, nu, g_nu = action.integer_norms
    total = (sum(c * c * nu[k] for k, c in lhs.items())
             + sum(c * c * g_nu[i] for i, c in c_h.items()) * s_b * s_b)
    return Fraction(total, (da * dx * den) ** 2 * dn)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

class WitnessMapError(ValueError):
    """A witness map is not linear or fails where the metric itself passes."""


@dataclass
class Witness:
    x_m: Vec
    a_h: Vec
    residual_sq: Fraction


@dataclass
class GOCertificate:
    verdict: str                      # verified-on-family | passed-sampling | falsified
    strategy: str
    count: int
    seed: Optional[int] = None
    witnesses: List[Witness] = field(default_factory=list)
    falsifier: Optional[Witness] = None


def basis_probe_vectors(decomp: IsotypicalDecomposition) -> List[Vec]:
    """All m-basis vectors, then pairwise sums (cross-summand pairs first)."""
    dim = decomp.dim
    norms = decomp.action.norms
    # the summand holding each basis vector (one leaving no residual)
    block_of = [next((s.class_id for s in decomp.summands
                      if not linalg.orthogonal_projection(s.space, norms, [(i, ONE)])[1]),
                     None) for i in range(dim)]
    probes = [linalg.unit_vec(dim, i) for i in range(dim)]
    pairs = sorted(
        itertools.combinations(range(dim), 2),
        key=lambda ij: (block_of[ij[0]] == block_of[ij[1]], ij))
    for i, j in pairs:
        v = linalg.unit_vec(dim, i)
        v[j] = ONE
        probes.append(v)
    return probes


def check_sample_count(strategy: str, count: int) -> None:
    """Raise ValueError when `count` is out of range for the strategy.

    A random sample of no probes certifies nothing, so "random" needs at
    least 1; "family" adds `count` >= 0 random probes to its proof, and
    "basis" ignores the count.
    """
    least = {"random": 1, "family": 0}.get(strategy)
    if least is not None and count < least:
        raise ValueError(f"count must be at least {least} for the {strategy} "
                         f"strategy, got {count}")


def go_check(a_metric: MetricEndomorphism, strategy: str = "basis",
             count: int = 100, seed: int = 0,
             witness_map: Optional[Callable[[Vec], Vec]] = None,
             keep_witnesses: bool = True) -> GOCertificate:
    """Decide the GO property as far as the chosen strategy allows.

    basis: probe every m-basis vector and every pairwise sum.
    random: probe `count` >= 1 seeded random rational vectors.
    family: verify a supplied linear witness map exactly (spanning set plus
    polarization pairs plus `count` >= 0 random probes); only this strategy
    may return "verified-on-family", and it raises `WitnessMapError` when
    the map is not linear or fails at a vector where the metric passes.
    A count out of range raises ValueError (see `check_sample_count`).
    """
    decomp = a_metric.decomp
    check_sample_count(strategy, count)

    if strategy == "family":
        if witness_map is None:
            raise ValueError("family strategy needs a witness map")
        return _family_check(a_metric, witness_map, count, seed)

    if strategy == "basis":
        probes = basis_probe_vectors(decomp)
        used_seed = None
    elif strategy == "random":
        rng = random.Random(f"go-random:{seed}")
        probes = [lie_core.random_vector_of_len(decomp.dim, rng)
                  for _ in range(count)]
        used_seed = seed
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    cert = GOCertificate(verdict="passed-sampling", strategy=strategy,
                         count=len(probes), seed=used_seed)
    for x in probes:
        a_h, res_sq = go_solve_at(a_metric, x)
        w = Witness(x_m=x, a_h=a_h, residual_sq=res_sq)
        if res_sq > 0:
            cert.verdict = "falsified"
            cert.falsifier = w
            return cert
        if keep_witnesses:
            cert.witnesses.append(w)
    return cert


def _family_check(a_metric: MetricEndomorphism,
                  witness_map: Callable[[Vec], Vec],
                  count: int, seed: int) -> GOCertificate:
    decomp = a_metric.decomp
    dim = decomp.dim
    cert = GOCertificate(verdict="verified-on-family", strategy="family",
                         count=0, seed=seed)

    basis = [linalg.unit_vec(dim, i) for i in range(dim)]
    images = [witness_map(b) for b in basis]
    pairs = list(itertools.combinations(range(dim), 2))
    sums = []
    for i, j in pairs:
        v = list(basis[i])
        v[j] = ONE
        sums.append(v)
    # the witness map must be linear for polarization to close the argument
    for (i, j), v in zip(pairs, sums):
        image = witness_map(v)
        if not linalg.vec_is_zero(linalg.vec_sub(
                image, linalg.vec_add(images[i], images[j]))):
            raise WitnessMapError("witness map is not additive on basis pairs")
        images.append(image)
    if not all(linalg.vec_is_zero(linalg.vec_sub(
            witness_map(linalg.vec_scale(c, b)), linalg.vec_scale(c, a)))
            for b, a in zip(basis, images) for c in (Fraction(2), Fraction(-1))):
        raise WitnessMapError("witness map is not homogeneous")

    probes = basis + sums
    rng = random.Random(f"go-family:{seed}")
    probes.extend(lie_core.random_vector_of_len(dim, rng) for _ in range(count))
    cert.count = len(probes)
    for p, x in enumerate(probes):
        # basis and pair probes take the images the linearity checks computed
        a_h = images[p] if p < len(images) else witness_map(x)
        w = Witness(x_m=x, a_h=a_h, residual_sq=go_residual_sq(a_metric, x, a_h))
        if w.residual_sq != 0:
            # the supplied witness fails here; only a failing minimizer
            # falsifies the metric itself
            a_best, best_sq = go_solve_at(a_metric, x)
            if best_sq > 0:
                cert.verdict = "falsified"
                cert.falsifier = Witness(x_m=x, a_h=a_best, residual_sq=best_sq)
                return cert
            raise WitnessMapError(
                "witness map fails on a vector the metric itself passes")
        cert.witnesses.append(w)
    return cert


# ---------------------------------------------------------------------------
# reduction rules
# ---------------------------------------------------------------------------

@dataclass
class RuleApplication:
    tag: str
    rule: str
    target: str
    fired: bool
    witnesses: List[dict] = field(default_factory=list)
    details: dict = field(default_factory=dict)


@dataclass
class ReductionTrace:
    steps: List[RuleApplication] = field(default_factory=list)

    def fired(self, tag: str) -> List[RuleApplication]:
        return [s for s in self.steps if s.tag == tag and s.fired]


# Vectors of g are kept split along g = h (+) m as sparse parts:
# m-coordinates plus an h-part, read off the bracket table and the
# isotropy columns.  The dense g-coordinates of a witness are formed only
# to serialize it.

def _label_coords(split, x_m: Sparse, h_g: Sparse = ()) -> Dict[str, str]:
    """Witness wire format: labels of the g-coordinates of h_g + x_m."""
    vec = split.m_to_g(linalg.dense(x_m, split.dim_m))
    for i, c in h_g:
        vec[i] += c
    return {split.algebra.labels[i]: linalg.frac_to_str(c)
            for i, c in enumerate(vec) if c != 0}


def _bracket(action, x_m: Sparse, y_m: Sparse, a_h: Sparse = ()
             ) -> Tuple[Sparse, Sparse]:
    """[a + X, Y] for a in h and X, Y in m, all sparse (a over the h
    basis): the m-coordinates and the h-component in g-coordinates."""
    c_m, c_h = action.split.bracket_table.bracket(x_m, y_m)
    if not a_h:
        return c_m, c_h
    acc = dict(c_m)
    for i, a in a_h:
        for k, c in linalg.sparse_mat_vec(action.ad_ops[i], y_m):
            acc[k] = acc.get(k, 0) + a * c
    return linalg.sparse_from(acc), c_h


def reduce_family(decomp: IsotypicalDecomposition, seed: int = 0
                  ) -> Tuple[MetricFamily, ReductionTrace]:
    """Apply the reduction rules in order 3.4, 3.5, 3.6, 3.2."""
    split = decomp.action.split
    family = metric_mod.full_family(decomp)
    trace = ReductionTrace()

    # --- 3.4: bi-invariant form on the trivial summand -----------------
    ideals = decomp.ideals
    family.operator_blocks = [b for b in family.operator_blocks if b.label != "S0"]
    next_class = max((b.class_id for b in family.scalar_blocks), default=-1) + 1
    if ideals.center.dim:
        family.operator_blocks.append(metric_mod.OperatorBlock(
            space=ideals.center, label="z(S0)"))
    for i, s in enumerate(ideals.simples):
        label = f"s{i + 1}"
        family.scalar_blocks.append(metric_mod.ScalarBlock(
            space=s, class_id=next_class, label=label))
        next_class += 1
    # recomputed facts backing the rule: S0 is the normalizer complement
    center_ok = not any(
        part for zc in ideals.center.sparse_basis
        for sv in decomp.s0.space.sparse_basis
        for part in split.bracket_table.bracket(zc, sv))
    trace.steps.append(RuleApplication(
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
        witnesses = _prop35_witnesses(decomp, si, seed)
        if witnesses is None:
            trace.steps.append(RuleApplication(
                tag="3.5", rule="diagonalize-summand", target=label, fired=False))
            continue
        family.intertwiner_blocks = [
            b for b in family.intertwiner_blocks if b.summand_index != si]
        h_basis = [linalg.sparse(v) for v in split.h.basis_coords]
        trace.steps.append(RuleApplication(
            tag="3.5", rule="diagonalize-summand", target=label, fired=True,
            witnesses=[{"member": l + 1, "x": _label_coords(
                split, x_m, linalg.sparse_mat_vec(h_basis, a_h))}
                       for l, (a_h, x_m) in witnesses]))

    # --- 3.6: scalar summands via orthogonal intertwiner brackets ------
    for si, summand in enumerate(decomp.summands):
        if summand is decomp.s0 or len(summand.members) < 2:
            continue
        label = f"S{summand.class_id}"
        result = _prop36_certificate(decomp, si, seed)
        if result is None:
            trace.steps.append(RuleApplication(
                tag="3.6", rule="scalar-summand", target=label, fired=False))
            continue
        family.intertwiner_blocks = [
            b for b in family.intertwiner_blocks if b.summand_index != si]
        member_classes = [b.class_id for b in family.scalar_blocks
                          if b.label.startswith(label + ".")]
        for c in member_classes[1:]:
            family.merge(member_classes[0], c)
        trace.steps.append(RuleApplication(
            tag="3.6", rule="scalar-summand", target=label, fired=True,
            witnesses=result, details={"quantifier_certified": True}))

    # --- 3.2: merge scalar classes through bracket projections ---------
    # candidate scalar subspaces: every scalar block plus 1-dim center
    nodes: List[Tuple[Subspace, Optional[int], str]] = [
        (b.space, b.class_id, b.label) for b in family.scalar_blocks]
    nodes += [(b.space, None, b.label) for b in family.operator_blocks
              if b.space.dim == 1]
    edges = []
    merged_pairs = []

    def class_of(idx: int) -> int:
        """A node's class; a 1-dim operator block turns into a scalar block."""
        space, cid, label = nodes[idx]
        if cid is None:
            family.operator_blocks = [b for b in family.operator_blocks
                                      if b.label != label]
            cid = max((b.class_id for b in family.scalar_blocks), default=-1) + 1
            family.scalar_blocks.append(metric_mod.ScalarBlock(
                space=space, class_id=cid, label=label))
            nodes[idx] = (space, cid, label)
        return cid

    spaces = [sp for sp, _, _ in nodes]
    for i, j in itertools.combinations(range(len(nodes)), 2):
        wit = _prop32_pair_witness(decomp.action, spaces[i], spaces[j])
        if wit is None:
            continue
        x, y, bracket, outside = wit
        edges.append({"pair": [nodes[i][2], nodes[j][2]],
                      "x": _label_coords(split, x),
                      "y": _label_coords(split, y),
                      "bracket": _label_coords(split, *bracket),
                      "outside_component": _label_coords(split, *outside)})
        if family.merge(class_of(i), class_of(j)):
            merged_pairs.append([nodes[i][2], nodes[j][2]])
    for i, j, k in itertools.permutations(range(len(nodes)), 3):
        if i > j:
            continue
        wit = _prop32_triple_witness(decomp.action, spaces[i], spaces[j],
                                     spaces[k])
        if wit is None:
            continue
        x, y, bracket = wit
        edges.append({"triple": [nodes[i][2], nodes[j][2], nodes[k][2]],
                      "x": _label_coords(split, x),
                      "y": _label_coords(split, y),
                      "bracket": _label_coords(split, *bracket)})
        ids = [class_of(idx) for idx in (i, j, k)]
        for other in ids[1:]:
            if family.merge(ids[0], other):
                merged_pairs.append([nodes[i][2], nodes[j][2], nodes[k][2]])
    trace.steps.append(RuleApplication(
        tag="3.2", rule="merge-eigenvalues", target="scalar classes",
        fired=bool(edges),
        witnesses=edges, details={"merged": merged_pairs}))
    return family, trace


def _prop35_witnesses(decomp: IsotypicalDecomposition, si: int, seed: int
                      ) -> Optional[List[Tuple[int, Tuple[Sparse, Sparse]]]]:
    """Per-member perpendicular vectors X with ad(X) injective on the member
    and vanishing on its siblings; None when some member has no witness.

    Candidates X = (h-coordinates, m-coordinates), both sparse: the h
    basis, the bases of S0 and of the other summands, then up to 100
    seeded integer combinations of those.  Combination q is built, and its
    row of coefficients drawn, when a search first reaches it; searches
    run in candidate order, so row q is the q-th row of the seeded stream
    however few rows are drawn.
    """
    action = decomp.action
    nu = action.norms
    summand = decomp.summands[si]
    members = summand.members
    pool = [([(i, ONE)], []) for i in range(action.split.h.dim)]
    pool += [([], b) for b in decomp.s0.space.sparse_basis]
    pool += [([], b) for sj, s in enumerate(decomp.summands)
             if sj != si and s is not decomp.s0 for b in s.space.sparse_basis]
    h_parts, m_parts = [a for a, _ in pool], [x for _, x in pool]
    rng = random.Random(f"rule35:{seed}")
    combos: List[Tuple[Sparse, Sparse]] = []

    def candidates() -> Iterator[Tuple[Sparse, Sparse]]:
        yield from pool
        for q in range(100):
            if q == len(combos):
                coeffs = [(p, rng.randint(-3, 3)) for p in range(len(pool))]
                combos.append((linalg.sparse_mat_vec(h_parts, coeffs),
                               linalg.sparse_mat_vec(m_parts, coeffs)))
            yield combos[q]

    out = []
    for l, member in enumerate(members):
        found = None
        for a_h, x_m in candidates():
            # X must be nonzero and B-perpendicular to the summand (h is to
            # m): its projection onto the summand has no coordinates
            if ((not a_h and not x_m)
                    or linalg.orthogonal_projection(summand.space, nu, x_m)[0]):
                continue
            cols = []
            for v in member.space.sparse_basis:
                w_m, w_h = _bracket(action, x_m, v, a_h)
                if w_h:
                    raise ValueError("vector is not in m")
                coords, resid = linalg.orthogonal_projection(member.space, nu, w_m)
                if resid:
                    break
                cols.append(dict(coords))
            if linalg.rank(cols) != member.space.dim:
                continue
            if all(_bracket(action, x_m, v, a_h) == ([], [])
                   for lm, other in enumerate(members) if lm != l
                   for v in other.space.sparse_basis):
                found = (a_h, x_m)
                break
        if found is None:
            return None
        out.append((l, found))
    return out


def _prop36_certificate(decomp: IsotypicalDecomposition, si: int, seed: int
                        ) -> Optional[List[dict]]:
    """Exact certificate of the scalar-summand conditions, or None.

    For each member l a vector X_l must make phi -> [X_l, phi(X_l)]
    projected outside the summand injective on every intertwiner space
    (covers all nonzero phi), with the images for different target members
    pairwise B-orthogonal (bilinear, so basis pairs suffice).  An image is
    kept sparse as its m-coordinates followed by the g-coordinates of its
    h-part, shifted by dim m: h (+) m -> g is injective and B-orthogonal,
    so rank and B carry over with the norm vector `norms` below.
    """
    action = decomp.action
    split = action.split
    nu = action.norms
    dim = decomp.dim
    g_dim = split.algebra.dim
    norms = list(nu) + [split.algebra.gram[i][i] for i in range(g_dim)]
    summand = decomp.summands[si]
    members = summand.members

    out = []
    rng = random.Random(f"rule36:{seed}")
    for l, member in enumerate(members):
        base = member.space.sparse_basis
        candidates = list(base) + [
            linalg.sparse_mat_vec(base, [(j, rng.randint(-3, 3))
                                         for j in range(len(base))])
            for _ in range(20)]
        found = None
        for x_m in candidates:
            if not x_m:
                continue
            x_coords, resid = linalg.orthogonal_projection(member.space, nu, x_m)
            if resid:
                continue
            images: Dict[int, List[dict]] = {}
            for m in range(len(members)):
                if m == l:
                    continue
                phis = summand.intertwiner_bases.get((l, m), [])
                target = members[m].space.sparse_basis
                rems = []
                for phi in phis:
                    img = linalg.sparse_mat_vec(
                        target, linalg.sparse_mat_vec(phi, x_coords))
                    w_m, w_h = _bracket(action, x_m, img)
                    rem = dict(linalg.orthogonal_projection(summand.space, nu, w_m)[1])
                    rem.update((dim + i, c) for i, c in w_h)
                    rems.append(rem)
                if not phis or linalg.rank(rems) != len(phis):
                    break
                images[m] = rems
            else:
                if all(sum(c * w2[i] * norms[i] for i, c in w1.items()
                           if i in w2) == 0
                       for m1, m2 in itertools.combinations(sorted(images), 2)
                       for w1 in images[m1] for w2 in images[m2]):
                    found = x_m
                    break
        if found is None:
            return None
        out.append({"member": l + 1, "x": _label_coords(split, found)})
    return out


def _prop32_pair_witness(action, space_a: Subspace, space_b: Subspace):
    """Basis pair whose bracket projects outside the two subspaces:
    (x, y, [x, y], outside component), the last two as (m-coordinates,
    h-component) pairs; the outside component is [x, y] minus its
    projections onto both subspaces, h-part included."""
    nu = action.norms
    for x in space_a.sparse_basis:
        for y in space_b.sparse_basis:
            w_m, w_h = _bracket(action, x, y)
            w_perp = linalg.orthogonal_projection(
                space_b, nu, linalg.orthogonal_projection(space_a, nu, w_m)[1])[1]
            if w_h or w_perp:
                return x, y, (w_m, w_h), (w_perp, w_h)
    return None


def _prop32_triple_witness(action, space_a: Subspace, space_b: Subspace,
                           space_c: Subspace):
    """Basis pair of (a, b) whose bracket has a component in c."""
    for x in space_a.sparse_basis:
        for y in space_b.sparse_basis:
            w_m, w_h = _bracket(action, x, y)
            if linalg.orthogonal_projection(space_c, action.norms, w_m)[0]:
                return x, y, (w_m, w_h)
    return None


# ---------------------------------------------------------------------------
# parameter scans
# ---------------------------------------------------------------------------

@dataclass
class ScanSpec:
    grid: List[Fraction] = field(default_factory=lambda: [
        Fraction(i, 4) for i in range(1, 17)])
    random_count: int = 0
    seed: int = 0
    survivor_random_probes: int = 20
    jobs: int = 1


MAX_GRID_POINTS = 2_000_000        # exhaustive grids larger than this refuse


@dataclass
class ScanResult:
    survivors: List[dict]
    falsified: List[dict]
    n_points: int
    notes: List[str] = field(default_factory=list)


_WORKER_CTX: dict = {}


class _Probe(NamedTuple):
    """One probe's tensors, as sparse integer rows over one denominator."""
    bx: List[linalg.Sparse]            # param c -> den [X, Op_c X]_m
    hx: List[List[linalg.Sparse]]      # h_i -> param c -> den [h_i, Op_c X]
    support: List[int]                 # params with a nonzero row
    den: int


class _ScanTensors:
    """Per-probe bracket tensors and residual tables for one scan.

    The defect [X, AX] and the witness columns [h_i, AX] are linear in the
    family parameters, so per probe X everything reduces to tensors
    contracted against the parameter vector.  The tensors are read off the
    split's m x m bracket table and the isotropy action.  A probe's
    tensors are built when a walk first reaches it (`_probe`), and most
    points fail at one of the first few probes.  Containment of every
    [X, Op_c X] in m (a zero h-component) is verified exactly in that
    build, before the probe is used, and carries over each contraction by
    linearity.

    A probe reads only the parameters in its support (a nonzero `bx` or
    `hx` row), and its least-squares residual is homogeneous of degree 2
    in them.  `residual_sq` therefore solves once per (probe, projective
    class of the supported values) and rescales.

    Parameter values are interned as value ids: the positions of `grid`
    first, then each new value passed to `intern`.  A point is a tuple of
    ids, and each probe keeps a table from the ids on its support to the
    report string of its exact residual ("" when the probe passes), so a
    point's walk is one tuple lookup per probe and `residual_sq` runs once
    per table entry.  Tensors, memo and tables live as long as the
    `_ScanTensors`, which is one scan.
    """

    def __init__(self, family: MetricFamily, ops: List[linalg.Columns],
                 probes: List[Vec], grid: Sequence = ()):
        self.action = family.decomp.action
        self.dim = self.action.split.dim_m
        self.probes = probes
        self.op_columns = ops
        self.integer_ops = linalg.cleared_columns(ops)
        self._built: List[Optional[_Probe]] = [None] * len(probes)
        self._walked: List[Tuple[int, Callable, Dict]] = []
        self._reached = 0
        self.memo: Dict[Tuple, Fraction] = {}
        # value id -> value, its report string, and whether it is positive
        self.values: List[Fraction] = []
        self.strings: List[str] = []
        self.positive: List[bool] = []
        self._ids: Dict[Fraction, int] = {}
        for v in grid:
            self._add(Fraction(v))
        self._probe_strings: Dict[int, List[str]] = {}

    def _probe(self, p: int) -> _Probe:
        """Probe p's tensors, built on first use."""
        probe = self._built[p]
        if probe is None:
            probe = self._built[p] = self._build(p)
        return probe

    def _walk(self) -> Iterator[Tuple[int, Callable, Dict]]:
        """(probe, key_of, table) in probe order: `key_of` reads the ids on
        the probe's support, and `table` maps them to the residual string.
        A probe gets its tensors and entry when a walk first reaches it; a
        probe with an empty support passes everywhere and is skipped."""
        yield from self._walked         # the entries of the probes reached
        for p in range(self._reached, len(self.probes)):
            support = self._probe(p).support
            self._reached = p + 1
            if support:
                entry = (p, operator.itemgetter(*support), {})
                self._walked.append(entry)
                yield entry

    def _build(self, p: int) -> _Probe:
        # on integers: the probe, the family operators cleared once per
        # scan, and the isotropy columns
        dx, xs = linalg.cleared(linalg.sparse(self.probes[p]))
        dop, ops = self.integer_ops
        ox = [linalg.sparse_mat_vec(cols, xs) for cols in ops]
        table = self.action.split.bracket_table
        rows = []                       # dt dop dx^2 [X, Op_c X]_m
        for o in ox:
            b_m, b_h = table.contract(xs, o)
            if any(b_h.values()):
                raise ValueError("vector is not in m")
            rows.append(linalg.sparse_from(b_m))
        dad, ad_cols = self.action.integer_ad_columns
        hrows = [[linalg.sparse_mat_vec(ad, o) for o in ox]    # dad dop dx
                 for ad in ad_cols]
        support = [c for c in range(len(ox))
                   if rows[c] or any(h[c] for h in hrows)]
        # the entries c / d of one part have reduced denominators whose
        # lcm is d / gcd(d, every c)
        d_b = table.denominator * dop * dx * dx
        d_h = dad * dop * dx
        den = math.lcm(
            d_b // math.gcd(d_b, *(c for r in rows for _, c in r)),
            d_h // math.gcd(d_h, *(c for h in hrows for r in h for _, c in r)))
        return _Probe(bx=[[(i, c * den // d_b) for i, c in r] for r in rows],
                      hx=[[[(i, c * den // d_h) for i, c in r] for r in h]
                          for h in hrows],
                      support=support, den=den)

    def _add(self, value: Fraction) -> int:
        i = len(self.values)
        self._ids.setdefault(value, i)
        self.values.append(value)
        self.strings.append(linalg.frac_to_str(value))
        self.positive.append(value > 0)
        return i

    def intern(self, value) -> int:
        """The value id of a parameter value, added on first sight."""
        value = Fraction(value)
        i = self._ids.get(value)
        return self._add(value) if i is None else i

    def point_values(self, ids: Sequence[int]) -> List[Fraction]:
        return [self.values[i] for i in ids]

    def _contract(self, rows, support: List[int], values: Sequence) -> Vec:
        out = [0] * self.dim
        for c, v in zip(support, values):
            if v:
                for i, coef in rows[c]:
                    out[i] += v * coef
        return out

    def residual_sq(self, values: Sequence, p: int) -> Fraction:
        """Exact squared residual of probe p at the parameter point: the
        supported values are g / L times a primitive integer tuple with a
        positive lead, so it is (g / L)^2 times that tuple's memo entry.
        An entry solves on integers, the probe's rows (`probe.den` times
        the tensors) against D G_m, so the solve returns D probe.den^2
        times the residual."""
        probe = self._probe(p)
        vals = [values[c] for c in probe.support]
        den = linalg.denominator(vals)
        ints = [v.numerator * (den // v.denominator) for v in vals]
        g = math.gcd(*ints)
        if g == 0:
            return ZERO
        if next(v for v in ints if v) < 0:
            g = -g
        key = (p, tuple(v // g for v in ints))
        res = self.memo.get(key)
        if res is None:
            defect = self._contract(probe.bx, probe.support, key[1])
            cols = [self._contract(rows, probe.support, key[1])
                    for rows in probe.hx]
            dg, gram = self.action.split.integer_gram_m
            _, res = linalg.least_squares(cols, [-c for c in defect], gram)
            res = self.memo[key] = res / (dg * probe.den * probe.den)
        return Fraction(g * g, den * den) * res

    def first_failure(self, ids: Tuple[int, ...]
                      ) -> Optional[Tuple[int, str]]:
        """(probe, residual string) of the first probe in probe order with
        a positive residual at the point, or None when every probe passes."""
        for p, key_of, table in self._walk():
            key = key_of(ids)
            res = table.get(key)
            if res is None:
                res_sq = self.residual_sq(self.point_values(ids), p)
                res = table[key] = (linalg.frac_to_str(res_sq)
                                    if res_sq > 0 else "")
            if res:
                return p, res
        return None

    def probe_strings(self, p: int) -> List[str]:
        """A fresh copy of probe p's coordinate strings."""
        strings = self._probe_strings.get(p)
        if strings is None:
            strings = self._probe_strings[p] = [linalg.frac_to_str(c)
                                                for c in self.probes[p]]
        return list(strings)


def _grid_points(family: MetricFamily, spec: ScanSpec
                 ) -> Iterator[Tuple[int, ...]]:
    """The grid's points as tuples of value ids (grid positions), lazily."""
    if family.intertwiner_blocks or any(
            b.space.dim > 1 for b in family.operator_blocks):
        raise ValueError("exhaustive grids need a diagonal family; "
                         "use random_count for the full cone")
    n = family.n_params
    total = len(spec.grid) ** n
    if total > MAX_GRID_POINTS:
        raise ValueError(f"grid of {total} points exceeds the cap; "
                         "coarsen the grid or reduce the family first")
    return itertools.product(range(len(spec.grid)), repeat=n)


def _random_points(family: MetricFamily, spec: ScanSpec,
                   integer_ops: List[List[List[Tuple[int, int]]]]
                   ) -> List[Tuple]:
    """Seeded lattice samples of the full cone, off the diagonal.

    Scalar classes and operator diagonals draw from the positive grid;
    operator off-diagonals and intertwiner coordinates draw from the
    symmetric lattice with at least one forced nonzero, so every sample
    leaves the diagonal subcone.  Rejection-samples until positive
    definite (the off-diagonal lattice mostly falls outside the cone):
    every returned sample is proved positive definite exactly, on the
    `Fraction` values returned, and the scan does not check it again.
    """
    rng = random.Random(f"scan-random:{spec.seed}")
    n_classes = len(family.classes())
    layout = []
    for b in family.operator_blocks:
        d = b.space.dim
        layout.extend("diag" if i == j else "off"
                      for i in range(d) for j in range(i, d))
    layout.extend("off" for b in family.intertwiner_blocks
                  for _ in range(b.n_params))
    off_positions = [n_classes + i for i, kind in enumerate(layout)
                     if kind == "off"]
    if not off_positions:
        return []
    form_at = metric_mod.family_form(
        integer_ops, family.decomp.action.integer_norms[1], family.decomp.dim)
    # keep draws near the cone: few off-diagonal entries, each a fraction
    # of the smallest diagonal weight drawn
    p_nonzero = min(Fraction(1, 4), Fraction(4, max(1, len(off_positions))))
    quarters = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2))
    points: List[Tuple] = []
    attempts = 0
    while len(points) < spec.random_count and attempts < 80 * spec.random_count:
        attempts += 1
        diag = [rng.choice(spec.grid) for _ in range(n_classes)]
        diag += [rng.choice(spec.grid) for kind in layout if kind == "diag"]
        dmin = min(diag) if diag else Fraction(1)
        sym_small = [q * dmin for q in quarters]
        sym_small += [-x for x in sym_small]
        vals = list(diag[:n_classes])
        di = n_classes
        for kind in layout:
            if kind == "diag":
                vals.append(diag[di])
                di += 1
            else:
                vals.append(rng.choice(sym_small)
                            if rng.random() < p_nonzero else ZERO)
        if all(vals[i] == 0 for i in off_positions):
            vals[rng.choice(off_positions)] = rng.choice(sym_small)
        if metric_mod._pd_check(form_at(vals)):
            points.append(tuple(vals))
    return points


def _evaluate_scan_point(task: Tuple[int, Tuple[int, ...]]) -> Tuple[int, dict]:
    idx, ids = task
    family: MetricFamily = _WORKER_CTX["family"]
    spec: ScanSpec = _WORKER_CTX["spec"]
    tensors: _ScanTensors = _WORKER_CTX["tensors"]
    prove: Optional[Callable[[Sequence], bool]] = _WORKER_CTX["prove"]
    decomp = family.decomp
    entry = {"params": [tensors.strings[i] for i in ids]}

    def falsified_entry(x: List[str], res_sq: str) -> dict:
        entry["status"] = "falsified"
        entry["falsifier_x"] = x
        entry["residual_sq"] = res_sq
        return entry

    # grid points come from a diagonal family (`_grid_points` refuses any
    # other), where positive definite means every value is positive; the
    # drawn points after them were proved positive definite when drawn
    if idx < _WORKER_CTX["n_grid"] and not all(tensors.positive[i]
                                               for i in ids):
        entry["status"] = "not-pd"
        return idx, entry

    # the first failing probe in probe order is the reported falsifier
    failure = tensors.first_failure(ids)
    if failure is not None:
        p, res_sq = failure
        return idx, falsified_entry(tensors.probe_strings(p), res_sq)
    values = tensors.point_values(ids)
    proved = prove is not None and prove(values)
    if spec.survivor_random_probes and not proved:
        a = MetricEndomorphism(
            decomp=decomp, columns=linalg.combine_columns(
                values, tensors.op_columns, decomp.dim),
            params=None, is_pd=True)
        cert = go_check(a, strategy="random",
                        count=spec.survivor_random_probes,
                        seed=spec.seed * 1_000_003 + idx,
                        keep_witnesses=False)
        if cert.verdict == "falsified":
            conv = linalg.frac_to_str
            return idx, falsified_entry([conv(c) for c in cert.falsifier.x_m],
                                        conv(cert.falsifier.residual_sq))
    entry["status"] = "survived"
    if prove is not None:
        entry["proved"] = proved
    return idx, entry


def search_go(decomp: IsotypicalDecomposition, family: MetricFamily,
              spec: Optional[ScanSpec] = None,
              include_grid: bool = True,
              prove: Optional[Callable[[Sequence], bool]] = None
              ) -> ScanResult:
    """Instantiate the family over a seeded scan, filter PD, run go_check.

    A point that passes every basis probe is a survivor candidate.  It
    then runs `spec.survivor_random_probes` seeded random probes, unless
    `prove(values)` is True: the caller holds a proof that the metric at
    those parameters is GO, and sampling could add nothing.  With `prove`
    given, each survivor entry records its answer under "proved"; it is
    asked once per candidate, after the basis probes.

    Points travel as tuples of value ids (see `_ScanTensors`): the grid is
    generated lazily from grid positions, and random points are interned
    as they are drawn.  The basis probes are answered from per-probe
    tables, so each (probe, supported values) is evaluated once per scan
    and per worker process.  A probe's tensors are built when a walk
    first reaches it, in each worker process, and its containment check
    raises ValueError then.  Random points are proved positive definite
    once, when drawn; a grid point is positive definite when all its
    values are positive, because grids need a diagonal family.

    Deterministic for a fixed seed and independent of the worker count:
    points are indexed before dispatch and merged in index order.
    """
    spec = spec or ScanSpec()
    ops = metric_mod.family_basis_ops(family)
    grid = _grid_points(family, spec) if include_grid else ()
    n_grid = len(spec.grid) ** family.n_params if include_grid else 0
    tensors = _ScanTensors(family, ops, basis_probe_vectors(decomp),
                           spec.grid)
    drawn: List[Tuple[int, ...]] = []
    if spec.random_count:
        drawn = [tuple(map(tensors.intern, vals)) for vals in
                 _random_points(family, spec, tensors.integer_ops[1])]
    n_points = n_grid + len(drawn)
    _WORKER_CTX.update({"family": family, "spec": spec, "tensors": tensors,
                        "prove": prove, "n_grid": n_grid})
    tasks = enumerate(itertools.chain(grid, drawn))
    results: Optional[List[Tuple[int, dict]]] = None
    workers = min(spec.jobs, os.cpu_count() or 1, n_points)
    if workers > 1:
        try:
            import concurrent.futures as cf
            import multiprocessing as mp
            # workers inherit _WORKER_CTX through fork and build their own
            # probe tensors and tables; a failure, such as the containment
            # ValueError, falls back to the sequential path, which raises
            # it again
            ctx = mp.get_context("fork")
            with cf.ProcessPoolExecutor(max_workers=workers,
                                        mp_context=ctx) as pool:
                chunk = max(1, n_points // (workers * 8))
                results = list(pool.map(_evaluate_scan_point, tasks,
                                        chunksize=chunk))
        except (OSError, ImportError, ValueError):
            # a pool that failed part-way may have taken tasks already
            grid = _grid_points(family, spec) if include_grid else ()
            tasks = enumerate(itertools.chain(grid, drawn))
    if results is None:
        results = [_evaluate_scan_point(t) for t in tasks]
    results.sort(key=lambda r: r[0])
    survivors, falsified = [], []
    notes = []
    for _, entry in results:
        if entry["status"] == "survived":
            survivors.append(entry)
        elif entry["status"] == "falsified":
            falsified.append(entry)
    n_pd = sum(1 for _, e in results if e["status"] != "not-pd")
    if n_pd == 0:
        notes.append("no positive definite points in the scan")
    return ScanResult(survivors=survivors, falsified=falsified,
                      n_points=n_points, notes=notes)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _witness_json(w: Witness) -> dict:
    conv = linalg.frac_to_str
    return {"x": [conv(c) for c in w.x_m],
            "a": [conv(c) for c in w.a_h],
            "residual_sq": conv(w.residual_sq)}


def certificate_to_json_dict(cert: GOCertificate,
                             max_witnesses: int = 200) -> dict:
    out = {
        "verdict": cert.verdict,
        "strategy": cert.strategy,
        "count": cert.count,
        "seed": cert.seed,
        "witnesses": [_witness_json(w) for w in cert.witnesses[:max_witnesses]],
    }
    if cert.falsifier is not None:
        out["falsifier"] = _witness_json(cert.falsifier)
    return out


def trace_to_json_dict(trace: ReductionTrace) -> dict:
    return {"steps": [{
        "tag": s.tag, "rule": s.rule, "target": s.target, "fired": s.fired,
        "witnesses": s.witnesses, "details": s.details} for s in trace.steps]}
