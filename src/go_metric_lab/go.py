"""The geodesic-orbit criterion, its certificates, and family reduction.

A metric A is geodesic-orbit iff every X in m admits a in h with
[a + X, AX] = 0.  Since a -> [a, AX] is linear, the best witness for a
fixed X is an exact least-squares problem over h; the squared residual is
an exact rational.  The strategies here can only falsify or
report "passed-sampling".  Full verification ("verified-on-family") needs a
witness map linear in X, whose defect X -> [a(X) + X, AX] is then a
quadratic form; `stiefel.certify_family` proves that it vanishes, for a
whole family of metrics at once.

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

import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from . import lie_core, linalg, metric as metric_mod
from .isotropy import IsotypicalDecomposition, Subspace
from .linalg import Sparse, Vec, ONE, ZERO
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
    structural fact that [X, AX] has no h-component.  Solves on integers:
    X is cleared to dx X per call and A to da A once per metric, so AX is
    da dx AX, `BracketTable.contract` gives D da dx^2 [X, AX], and the
    table's isotropy columns give D da dx [h_i, AX].  With rhs [X, AX],
    `least_squares`'s y / Delta and r / s give a = -y / (Delta dx) and the
    residual r / (s D_G (D da dx^2)^2), D_G the m-Gram's denominator.
    """
    split = a_metric.decomp.action.split
    table = split.bracket_table
    dx, xs = linalg.cleared(linalg.sparse(as_m_coords(split, x)))
    da, a_cols = a_metric.integer_columns
    ax = linalg.sparse_mat_vec(a_cols, xs)
    c_m, c_h = table.contract(xs, ax)
    if any(c_h.values()):
        raise ArithmeticError("[X, AX] acquired an h-component; "
                              "the metric is not symmetric-equivariant")
    dg, gram = split.integer_gram_m
    (y, delta), (r, s) = linalg.least_squares(
        [dict(linalg.sparse_mat_vec(ad, ax)) for ad in table.integer_ad],
        c_m, gram)
    d = table.denominator * da * dx * dx
    return ([Fraction(-c, delta * dx) for c in y],
            Fraction(r, s * dg * d * d))


def go_residual_sq(a_metric: MetricEndomorphism, x: Vec, a_h: Vec) -> Fraction:
    """Squared residual ||[a + X, AX]||_B^2 for a supplied witness a.

    Contracts on integers.  X and a are cleared of their denominators
    together, to d X and d a, per call, and A once per metric, so AX is
    da d AX and `BracketTable.contract` gives D da d^2 [a + X, AX].  h and
    m are B-orthogonal, and so is the basis of g (checked by the split),
    so the weighted norm is one integer sum and the result one `Fraction`,
    equal to the rational computation.
    """
    action = a_metric.decomp.action
    table = action.split.bracket_table
    x_m = linalg.sparse(as_m_coords(action.split, x))
    d, xa = linalg.cleared([*x_m, *linalg.sparse(a_h)])     # d X, then d a
    xs, ws = xa[:len(x_m)], xa[len(x_m):]
    da, a_cols = a_metric.integer_columns
    c_m, c_h = table.contract(xs, linalg.sparse_mat_vec(a_cols, xs), ws)
    dn, nu, g_nu = action.integer_norms
    total = (sum(c * c * nu[k] for k, c in c_m.items())
             + sum(c * c * g_nu[i] for i, c in c_h.items()))
    return Fraction(total, (table.denominator * da * d * d) ** 2 * dn)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

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
    """`decomp.probes` as dense vectors, 1 on the support (all m-basis
    vectors, then pair sums, cross-summand first), fresh on every call."""
    return [[ONE if i in support else ZERO for i in range(decomp.dim)]
            for support in decomp.probes]


def check_sample_count(strategy: str, count: int) -> None:
    """Raise ValueError when `count` is out of range for the strategy.

    A random sample of no probes certifies nothing, so "random" needs at
    least 1; "family" (`stiefel.family_samples`) adds `count` >= 0 random
    probes to its proof, "scan" draws `count` >= 0 samples
    (`ScanSpec.random_count`), and "basis" ignores the count.  The work
    grows with the count, so none may pass `MAX_SAMPLES`.
    """
    least = {"random": 1, "family": 0, "scan": 0}.get(strategy)
    if least is not None and count < least:
        raise ValueError(f"count must be at least {least} for the {strategy} "
                         f"strategy, got {count}")
    if count > MAX_SAMPLES:
        raise ValueError(f"count must be at most MAX_SAMPLES = {MAX_SAMPLES}"
                         f", got {count}")


def go_check(a_metric: MetricEndomorphism, strategy: str = "basis",
             count: int = 100, seed: int = 0) -> GOCertificate:
    """Decide the GO property as far as sampling allows.

    basis: probe every m-basis vector and every pairwise sum.
    random: probe `count` >= 1 seeded random rational vectors.
    A count out of range raises ValueError (see `check_sample_count`).
    """
    decomp = a_metric.decomp
    check_sample_count(strategy, count)

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


# Vectors of g are kept split along g = h (+) m, as sparse m-coordinates
# and h-part; a witness's g-coordinates are summed only to serialize it.

def _label_coords(split, x_m: Sparse, h_g: Sparse = ()) -> Dict[str, str]:
    """Witness wire format: labels of the g-coordinates of h_g + x_m."""
    acc = dict(linalg.sparse_mat_vec(split.m.sparse_basis, x_m))
    for i, c in h_g:
        acc[i] = acc.get(i, 0) + c
    return {split.algebra.labels[i]: linalg.frac_to_str(c)
            for i, c in linalg.sparse_from(acc)}


def reduce_family(decomp: IsotypicalDecomposition, seed: int = 0
                  ) -> Tuple[MetricFamily, ReductionTrace]:
    """Apply the reduction rules in order 3.4, 3.5, 3.6, 3.2 to the blocks
    of `full_family`, and return the family they leave.  A new scalar
    block's class is numbered by the blocks before it; rules 3.6 and 3.2
    merge classes in a union-find whose roots name the returned classes."""
    split = decomp.action.split
    full = metric_mod.full_family(decomp)
    scalars = list(full.scalar_blocks)
    intertwiners = list(full.intertwiner_blocks)
    parent: Dict[int, int] = {}
    trace = ReductionTrace()

    def find(cid: int) -> int:
        while parent.get(cid, cid) != cid:
            cid = parent[cid]
        return cid

    def merge(c1: int, c2: int) -> bool:
        r1, r2 = find(c1), find(c2)
        if r1 != r2:
            parent[max(r1, r2)] = min(r1, r2)
        return r1 != r2

    # --- 3.4: bi-invariant form on the trivial summand -----------------
    # S0's free operator gives way to the center's and the simple ideals'
    ideals = decomp.ideals
    operators = [metric_mod.OperatorBlock(ideals.center, "z(S0)")
                 ] if ideals.center.dim else []
    scalars += [metric_mod.ScalarBlock(s, len(scalars) + i, f"s{i + 1}")
                for i, s in enumerate(ideals.simples)]
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
        intertwiners = [b for b in intertwiners if b.summand_index != si]
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
        intertwiners = [b for b in intertwiners if b.summand_index != si]
        member_classes = [b.class_id for b in scalars
                          if b.label.startswith(label + ".")]
        for c in member_classes[1:]:
            merge(member_classes[0], c)
        trace.steps.append(RuleApplication(
            tag="3.6", rule="scalar-summand", target=label, fired=True,
            witnesses=result, details={"quantifier_certified": True}))

    # --- 3.2: merge scalar classes through bracket projections ---------
    # candidate scalar subspaces: every scalar block plus 1-dim center
    nodes: List[Tuple[Subspace, Optional[int], str]] = [
        (b.space, b.class_id, b.label) for b in scalars]
    nodes += [(b.space, None, b.label) for b in operators if b.space.dim == 1]
    edges = []
    merged_pairs = []

    def class_of(idx: int) -> int:
        """A node's class; a 1-dim operator block turns into a scalar block."""
        space, cid, label = nodes[idx]
        if cid is None:
            operators[:] = [b for b in operators if b.label != label]
            cid = len(scalars)
            scalars.append(metric_mod.ScalarBlock(space, cid, label))
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
        if merge(class_of(i), class_of(j)):
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
            if merge(ids[0], other):
                merged_pairs.append([nodes[i][2], nodes[j][2], nodes[k][2]])
    trace.steps.append(RuleApplication(
        tag="3.2", rule="merge-eigenvalues", target="scalar classes",
        fired=bool(edges),
        witnesses=edges, details={"merged": merged_pairs}))
    return MetricFamily(
        decomp, tuple(replace(b, class_id=find(b.class_id)) for b in scalars),
        tuple(operators), tuple(intertwiners)), trace


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
    nu, table = action.norms, action.split.bracket_table
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
                w_m, w_h = table.bracket(x_m, v, a_h)
                if w_h:
                    raise ValueError("vector is not in m")
                coords, resid = linalg.orthogonal_projection(member.space, nu, w_m)
                if resid:
                    break
                cols.append(dict(coords))
            if linalg.rank(cols) != member.space.dim:
                continue
            if all(table.bracket(x_m, v, a_h) == ([], [])
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
    norms = list(nu) + split.algebra.norms
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
                    w_m, w_h = split.bracket_table.bracket(x_m, img)
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
            w_m, w_h = action.split.bracket_table.bracket(x, y)
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
            w_m, w_h = action.split.bracket_table.bracket(x, y)
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


MAX_SCAN_NODES = 2_000_000     # grid joins visiting more prefixes refuse
MAX_SAMPLES = 10_000           # sample and probe counts above it refuse
_GRID_SAMPLE = 5               # falsified grid entries kept, in index order


@dataclass
class ScanResult:
    """Entries in index order: every survivor and falsified draw, but only
    the first `_GRID_SAMPLE` falsified grid points; `n_falsified` counts
    them all."""
    survivors: List[dict]
    falsified: List[dict]
    n_points: int
    n_falsified: int
    notes: List[str] = field(default_factory=list)


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
    contracted against the parameter vector, read off the split's m x m
    bracket table and the isotropy action.  Probe p is 1 on its m-support
    `probes[p]` (`decomp.probes`).  Its tensors are built on first use
    (`_probe`: the grid join `passing` builds all, drawn points walk the
    probes in order) from the operators touching X, those with a nonzero
    column on its support: Op_c X = 0 for every other c, whose rows stay
    empty.  The build proves each [X, Op_c X] in m (zero h-component)
    before the probe is used; by linearity so is every contraction.

    A probe reads only the parameters in its support (a nonzero `bx` or
    `hx` row), and its least-squares residual is homogeneous of degree 2
    in them.  `_residual` therefore solves once per (probe, projective
    class of the supported values) and rescales.

    Parameter values are interned as value ids keyed by their reduced
    integer (numerator, denominator) pairs, `pairs[id]`, each with its
    report string `strings[id]`, formatted once so that entries share it:
    the positions of `grid` first, then each new pair passed to `intern`,
    which the draws call once per value, not per coordinate
    (`_random_points`); a `Fraction` is built only where an entry needs
    the value.  A point is a tuple of ids, and each probe keeps a table
    from the ids on its support to the report string of its exact residual
    ("" when the probe passes), so checking a probe at a point is one
    tuple lookup (`_lookup`).  One integer evaluation, `_residual`, fills
    memo and tables, which live as long as the `_ScanTensors`, one scan; a
    probe's tensors are built once per family and kept with its operators
    (`MetricFamily.operators`).
    """

    def __init__(self, ops: metric_mod.FamilyOperators, grid: Sequence = ()):
        self.ops = ops
        self.action = ops.decomp.action
        self.probes = ops.decomp.probes
        self._entries: List[Optional[Tuple[int, Callable, Dict]]] = []
        self.memo: Dict[Tuple, Tuple[int, int]] = {}
        self.pairs: List[Tuple[int, int]] = []      # value id -> pair
        self.strings: List[str] = []                # value id -> "n/d"
        self._ids: Dict[Tuple[int, int], int] = {}
        for v in map(Fraction, grid):
            self._add((v.numerator, v.denominator))

    def _probe(self, p: int) -> _Probe:
        """Probe p's tensors, built on first use."""
        probe = self.ops.probes.get(p)
        if probe is None:
            probe = self.ops.probes[p] = self._build(p)
        return probe

    def _walk(self) -> Iterator[Tuple[int, Callable, Dict]]:
        """(probe, key_of, table) in probe order: `key_of` reads the ids on
        the probe's support, and `table` maps them to the residual string.
        A probe gets its tensors and its entry in `_entries` when a walk
        first reaches it; a probe with an empty support passes everywhere
        and its entry is None."""
        entries = self._entries
        yield from filter(None, entries)
        for p in range(len(entries), len(self.probes)):
            support = self._probe(p).support
            entries.append((p, operator.itemgetter(*support), {})
                           if support else None)
            if support:
                yield entries[p]

    def _build(self, p: int) -> _Probe:
        # on integers: the family operators cleared once per family and
        # the table once per split; X is 1 on its support, and Op_c X = 0
        # unless Op_c touches X
        xs = [(i, 1) for i in self.probes[p]]
        dop, ops = self.ops.integer
        touched = sorted({c for i, _ in xs for c in self.ops.touching[i]})
        ox = [linalg.sparse_mat_vec(ops[c], xs) for c in touched]
        table = self.action.split.bracket_table
        rows = []                       # dt dop [X, Op_c X]_m
        for o in ox:
            b_m, b_h = table.contract(xs, o)
            if any(b_h.values()):
                raise ValueError("vector is not in m")
            rows.append(linalg.sparse_from(b_m))
        hrows = [[linalg.sparse_mat_vec(ad, o) for o in ox]   # dt dop
                 for ad in table.integer_ad]
        support = [c for k, c in enumerate(touched)
                   if rows[k] or any(h[k] for h in hrows)]
        # the entries c / d, d = dt dop, have reduced denominators whose
        # lcm is den = d / g, g = gcd(d, every c)
        d = table.denominator * dop
        g = math.gcd(d, *(c for r in rows for _, c in r),
                     *(c for h in hrows for r in h for _, c in r))

        def per_param(part):            # den / d = 1 / g times each row
            out = [[]] * len(ops)
            for c, r in zip(touched, part):
                out[c] = [(i, v // g) for i, v in r]
            return out
        return _Probe(bx=per_param(rows), hx=[per_param(h) for h in hrows],
                      support=support, den=d // g)

    def _add(self, pair: Tuple[int, int]) -> int:
        i = len(self.pairs)
        self._ids.setdefault(pair, i)
        self.pairs.append(pair)
        self.strings.append("%d/%d" % pair)
        return i

    def intern(self, pair: Tuple[int, int]) -> int:
        """The value id of a parameter value given as a reduced
        (numerator, denominator) pair, added on first sight."""
        i = self._ids.get(pair)
        return self._add(pair) if i is None else i

    def _contract(self, rows, support: List[int], values: Sequence) -> dict:
        out: dict = {}
        for c, v in zip(support, values):
            if v:
                for i, coef in rows[c]:
                    out[i] = out.get(i, 0) + v * coef
        return out

    def _residual(self, p: int, pairs: Sequence[Tuple[int, int]]
                  ) -> Tuple[int, int]:
        """Probe p's squared residual as a reduced integer pair, at the
        supported values as integer pairs: they are g / L times a primitive
        tuple with a positive lead, so it is (g / L)^2 times that tuple's
        memo entry.  An entry solves the probe's rows (`probe.den` times
        the tensors, either sign) against D G_m: D probe.den^2 times it."""
        den = math.lcm(*[d for _, d in pairs])
        ints = [n * (den // d) for n, d in pairs]
        g = math.gcd(*ints)
        if g == 0:
            return 0, 1
        if next(v for v in ints if v) < 0:
            g = -g
        key = (p, tuple(v // g for v in ints))
        res = self.memo.get(key)
        if res is None:
            probe = self._probe(p)
            *cols, defect = [self._contract(rows, probe.support, key[1])
                             for rows in (*probe.hx, probe.bx)]
            dg, gram = self.action.split.integer_gram_m
            _, (r, s) = linalg.least_squares(cols, defect, gram)
            res = self.memo[key] = (r, s * dg * probe.den ** 2)
        num, den = res[0] * g * g, res[1] * den * den
        q = math.gcd(num, den)
        return num // q, den // q

    def _lookup(self, entry: Tuple[int, Callable, Dict],
                ids: Sequence[int]) -> str:
        """A `_walk` entry's table string at the point `ids`, filled by one
        `_residual` on a miss."""
        p, key_of, table = entry
        key = key_of(ids)
        res = table.get(key)
        if res is None:
            num, den = self._residual(p, [
                self.pairs[ids[c]] for c in self.ops.probes[p].support])
            res = table[key] = f"{num}/{den}" if num else ""  # reduced
        return res

    def first_failure(self, ids: Tuple[int, ...]
                      ) -> Optional[Tuple[int, str]]:
        """(probe, residual string) of the first probe in probe order with
        a positive residual at the point, or None when every probe passes."""
        for entry in self._walk():
            res = self._lookup(entry, ids)
            if res:
                return entry[0], res
        return None

    def passing(self, n: int, positions: Sequence[int]
                ) -> List[Tuple[int, ...]]:
        """The points of n parameters over the ids `positions` that pass
        every probe, in index order: a join of the probes' tables, one
        parameter at a time, that looks each probe up where its support
        ends and prunes a prefix at its first positive entry.  Builds
        every probe; refuses (ValueError) past `MAX_SCAN_NODES` prefixes.
        """
        at_depth: List[list] = [[] for _ in range(n)]   # `_walk` entries
        for entry in self._walk():
            at_depth[self.ops.probes[entry[0]].support[-1]].append(entry)
        level: List[Tuple[int, ...]] = [()]
        nodes = 0
        for probes in at_depth:
            nodes += len(level) * len(positions)
            if nodes > MAX_SCAN_NODES:
                raise ValueError(
                    f"grid join visits more than MAX_SCAN_NODES = "
                    f"{MAX_SCAN_NODES} prefixes; coarsen the grid or "
                    "reduce the family first")
            level = [ids for prefix in level for ids in (
                prefix + (i,) for i in positions)
                if not any(self._lookup(e, ids) for e in probes)]
        return level


def _random_points(family: MetricFamily, spec: ScanSpec,
                   tensors: _ScanTensors) -> List[Tuple[int, ...]]:
    """Seeded lattice samples of the full cone, off the diagonal, as value
    ids of `tensors` (whose first ids are the positions of `spec.grid`).

    Scalar classes and operator diagonals draw grid positions; operator
    off-diagonals and intertwiner coordinates draw zero or one of
    +-{1/8, 1/4, 1/2} d_min, d_min the smallest diagonal value drawn, with
    at least one forced nonzero, so every sample leaves the diagonal
    subcone.  Zero is interned once and those six values once per distinct
    d_min, as pairs built from d_min's.  Rejection-samples until positive
    definite or until 80 * random_count attempts: every returned sample is
    proved positive definite exactly, on its block-diagonal form
    (`FamilyOperators.block_form`), and the scan does not check it again.
    """
    rng = random.Random(f"scan-random:{spec.seed}")
    on_diag = family.on_diagonal()
    off_at = [c for c, on in enumerate(on_diag) if not on]
    if not off_at:
        return []
    # keep draws near the cone: few off-diagonal entries, each a fraction
    # of the smallest diagonal weight drawn.  rng.random() is k / 2^53, so
    # it is below p_nonzero = a / b iff k b < a 2^53
    p_nonzero = min(Fraction(1, 4), Fraction(4, len(off_at)))
    b, a_53 = p_nonzero.denominator, p_nonzero.numerator << 53
    grid = range(len(spec.grid))
    rank = sorted(grid, key=lambda i: Fraction(*tensors.pairs[i])).index
    zero = tensors.intern((0, 1))
    small: Dict[int, Tuple[int, ...]] = {}      # d_min id -> the six ids
    points: List[Tuple[int, ...]] = []
    attempts = 0
    while len(points) < spec.random_count and attempts < 80 * spec.random_count:
        attempts += 1
        diag = [rng.choice(grid) for _ in range(len(on_diag) - len(off_at))]
        dmin = min(diag, key=rank)
        sym_small = small.get(dmin)
        if sym_small is None:           # +-d_min / q reduced, d_min = n / d
            n, d = tensors.pairs[dmin]
            sym_small = small[dmin] = tuple(
                tensors.intern((s * n // g, d * q // g)) for s in (1, -1)
                for q in (8, 4, 2) for g in [math.gcd(n, q)])
        rest = iter(diag)
        vals = [next(rest) if on else zero for on in on_diag]
        for i in off_at:
            if int(rng.random() * 2 ** 53) * b < a_53:
                vals[i] = rng.choice(sym_small)
        if all(vals[i] == zero for i in off_at):
            vals[rng.choice(off_at)] = rng.choice(sym_small)
        if linalg.sym_positive_definite(tensors.ops.block_form(
                [tensors.pairs[i] for i in vals])):
            points.append(tuple(vals))
    return points


def search_go(decomp: IsotypicalDecomposition, family: MetricFamily,
              spec: Optional[ScanSpec] = None,
              include_grid: bool = True,
              prove: Optional[Callable[[Sequence], bool]] = None
              ) -> ScanResult:
    """Scan the family's grid and seeded draws, filter PD, run go_check.

    A point that passes every basis probe is a survivor candidate.  It
    then runs `spec.survivor_random_probes` random probes, seeded by its
    index, unless `prove(values)` is True: the caller holds a proof that
    the metric at those parameters is GO, and sampling could add nothing.
    With `prove` given, each survivor entry records its answer under
    "proved"; it is asked once per candidate, after the basis probes.

    Points are tuples of value ids (see `_ScanTensors`), indexed grid
    first, in mixed radix over the grid positions, then the draws.  Grids
    need a diagonal family, where a point is positive definite iff its
    values are positive.  The grid's candidates are one join of the probe
    tables over the positive positions (`_ScanTensors.passing`), and every
    other positive point is falsified; only the first `_GRID_SAMPLE` of
    those are walked, in index order.  Draws come as value ids from
    `_random_points`, whose values are interned once per scan; each is
    proved positive definite once, when drawn, and walks the probes in
    order.  Fewer draws than `spec.random_count` off a non-diagonal family
    add the note "drew k of N positive definite samples".  A probe's
    containment check raises ValueError when the probe is built.
    """
    spec = spec or ScanSpec()
    check_sample_count("scan", spec.random_count)
    if spec.random_count and not spec.grid:
        raise ValueError("draws need a nonempty grid to take their diagonal "
                         "values from")
    tensors = _ScanTensors(family.operators, spec.grid)

    def entry(ids: Sequence[int], failure: Optional[Tuple[int, str]],
              idx: Optional[int] = None) -> dict:
        # falsified by the first failing basis probe, else by the survivor
        # probes seeded by the point's index `idx` unless proved, else
        # survived
        out = {"params": [tensors.strings[i] for i in ids]}
        if failure is not None:
            x = ["0/1"] * decomp.dim
            for i in tensors.probes[failure[0]]:
                x[i] = "1/1"
            out.update(status="falsified", residual_sq=failure[1],
                       falsifier_x=x)
            return out
        values = [Fraction(*tensors.pairs[i]) for i in ids]
        proved = prove is not None and prove(values)
        if spec.survivor_random_probes and not proved:
            a = MetricEndomorphism(decomp, linalg.combine_columns(
                values, tensors.ops.columns, decomp.dim))
            cert = go_check(a, strategy="random",
                            count=spec.survivor_random_probes,
                            seed=spec.seed * 1_000_003 + idx)
            if cert.verdict == "falsified":
                conv, w = linalg.frac_to_str, cert.falsifier
                out.update(status="falsified", falsifier_x=[
                    conv(c) for c in w.x_m], residual_sq=conv(w.residual_sq))
                return out
        out["status"] = "survived"
        if prove is not None:
            out["proved"] = proved
        return out

    survivors: List[dict] = []
    falsified: List[dict] = []
    n_grid = n_pd = n_falsified = 0
    diagonal = all(family.on_diagonal())
    if include_grid:
        if not diagonal:
            raise ValueError("exhaustive grids need a diagonal family; "
                             "use random_count for the full cone")
        n, size = family.n_params, len(spec.grid)
        positive = [i for i in range(size) if tensors.pairs[i][0] > 0]
        candidates = {}
        for ids in tensors.passing(n, positive):
            idx = functools.reduce(lambda acc, i: acc * size + i, ids, 0)
            candidates[ids] = entry(ids, None, idx)
        survivors = [e for e in candidates.values()
                     if e["status"] == "survived"]
        n_grid, n_pd = size ** n, len(positive) ** n
        n_falsified = n_pd - len(survivors)
        for ids in itertools.product(positive, repeat=n):
            if len(falsified) == min(_GRID_SAMPLE, n_falsified):
                break
            e = candidates.get(ids) or entry(ids, tensors.first_failure(ids))
            if e["status"] == "falsified":
                falsified.append(e)
    drawn = _random_points(family, spec, tensors) if spec.random_count else []
    for idx, ids in enumerate(drawn, n_grid):
        e = entry(ids, tensors.first_failure(ids), idx)
        if e["status"] == "survived":
            survivors.append(e)
        else:
            falsified.append(e)
            n_falsified += 1
    notes = [] if n_pd + len(drawn) else [
        "no positive definite points in the scan"]
    if len(drawn) < spec.random_count and not diagonal:
        notes.append(f"drew {len(drawn)} of {spec.random_count} positive "
                     "definite samples")
    return ScanResult(
        survivors=survivors, falsified=falsified,
        n_points=n_grid + len(drawn), n_falsified=n_falsified, notes=notes)


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
