"""Isotropy action on m: irreducible pieces, isotypical summands, ideals.

The action of h on m is carried by the matrices of ad(a)|_m over the m
basis.  Decomposition strategy, all in exact rational arithmetic:

* the trivial summand S0 is the joint kernel of the action, computed
  directly as an exact nullspace;
* the complement splits recursively through symmetric equivariant
  operators with rational spectra.  Squared-bracket operators -ad(Z)^2 for
  Z in S0 are tried first (their spectra are rational on every instance we
  target and their eigenspaces come out in coordinate form), then commutant
  basis elements, then seeded random combinations.  Candidate eigenvalues
  are suggested in floating point and certified exactly before use;
* a piece is certified irreducible when its symmetric commutant is exactly
  one-dimensional, which for a B-skew action is equivalent to admitting no
  proper invariant subspace.  The full commutant dimension (1, 2 or 4)
  records the real/complex/quaternionic type.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from . import lie_core, linalg
from .decomp import ReductiveSplit
from .linalg import Mat, Vec, ZERO, ONE


class DecompositionError(ArithmeticError):
    """Splitting could not be completed (or certified)."""


# ---------------------------------------------------------------------------
# subspaces of m
# ---------------------------------------------------------------------------

@dataclass
class Subspace:
    """Subspace of m with a B-orthogonal basis in m-coordinates."""

    basis: List[Vec]
    norms: List[Fraction]

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coords_of(self, v: Vec, gram: Mat) -> Optional[Vec]:
        """Coordinates of v over the basis, or None if v falls outside."""
        coords = [linalg.gram_dot(gram, v, b) / nu
                  for b, nu in zip(self.basis, self.norms)]
        resid = list(v)
        for c, b in zip(coords, self.basis):
            if c != 0:
                resid = linalg.vec_sub(resid, linalg.vec_scale(c, b))
        if not linalg.vec_is_zero(resid):
            return None
        return coords


def make_subspace(vectors: Sequence[Vec], gram: Mat) -> Subspace:
    basis = linalg.gram_schmidt(list(vectors), gram)
    norms = [linalg.gram_dot(gram, b, b) for b in basis]
    return Subspace(basis=basis, norms=norms)


def subspace_leading_index(sub: Subspace) -> Tuple:
    lead = []
    for v in sub.basis:
        for i, c in enumerate(v):
            if c != 0:
                lead.append(i)
                break
    return tuple(sorted(lead))


# ---------------------------------------------------------------------------
# the action
# ---------------------------------------------------------------------------

@dataclass
class IsotropyAction:
    """ad(a)|_m for each h-basis element a, over the m basis."""

    split: ReductiveSplit
    ad_ops: List[Mat]

    @property
    def dim(self) -> int:
        return self.split.dim_m

    @property
    def gram(self) -> Mat:
        return self.split.gram_m

    @property
    def norms(self) -> Vec:
        return self.split.norms_m

    @cached_property
    def ad_columns(self) -> List[List[linalg.Sparse]]:
        """Sparse columns of each ad(a)|_m: column b is [a, m_b] over m."""
        return [linalg.sparse_columns(op) for op in self.ad_ops]


def isotropy_action(split: ReductiveSplit) -> IsotropyAction:
    """Build and verify the action matrices (reductivity and B-skewness)."""
    g = split.algebra
    ops = []
    for a in split.h.basis_coords:
        cols = []
        for b in split.m_basis:
            br = lie_core.bracket(g, a, b)
            cols.append(split.coords_in_m(br))
        m = linalg.transpose(cols)
        skew = linalg.mat_add(linalg.mat_mul(linalg.transpose(m), split.gram_m),
                              linalg.mat_mul(split.gram_m, m))
        if not linalg.mat_is_zero(skew):
            raise ArithmeticError("ad(a)|_m is not B-skew")
        ops.append(m)
    return IsotropyAction(split=split, ad_ops=ops)


def restrict_op(op: Mat, sub: Subspace, gram: Mat) -> Optional[Mat]:
    """Matrix of op on the subspace basis; None if the subspace moves."""
    cols = []
    for b in sub.basis:
        w = linalg.mat_vec(op, b)
        coords = sub.coords_of(w, gram)
        if coords is None:
            return None
        cols.append(coords)
    return linalg.transpose(cols)


def _restrict_action(action: IsotropyAction, sub: Optional[Subspace]
                     ) -> Tuple[List[Mat], List[Fraction]]:
    if sub is None:
        return action.ad_ops, [action.gram[i][i] for i in range(action.dim)]
    ops = []
    for op in action.ad_ops:
        r = restrict_op(op, sub, action.gram)
        if r is None:
            raise ValueError("subspace is not invariant under the action")
        ops.append(r)
    return ops, list(sub.norms)


# ---------------------------------------------------------------------------
# commutants and intertwiners (exact sparse linear systems)
# ---------------------------------------------------------------------------

def _sym_param_index(d: int) -> Dict[Tuple[int, int], int]:
    idx = {}
    for i in range(d):
        for j in range(i, d):
            idx[(i, j)] = len(idx)
    return idx


def _sym_op_from_params(params: Vec, norms: List[Fraction], d: int) -> Mat:
    idx = _sym_param_index(d)
    s = linalg.zeros(d, d)
    for (i, j), p in idx.items():
        s[i][j] = params[p]
        if i != j:
            s[j][i] = params[p] * norms[i] / norms[j]
    return s


def commutant_sym_ops(ops: List[Mat], norms: List[Fraction]) -> List[Mat]:
    """Basis of B-symmetric operators commuting with every op (exact)."""
    d = len(norms)
    idx = _sym_param_index(d)

    def weight(a: int, b: int) -> Fraction:
        return ONE if a <= b else norms[b] / norms[a]

    def param(a: int, b: int) -> int:
        return idx[(a, b) if a <= b else (b, a)]

    rows = []
    for m in ops:
        cols_nonzero = [[k for k in range(d) if m[k][c] != 0] for c in range(d)]
        rows_nonzero = [[k for k in range(d) if m[r][k] != 0] for r in range(d)]
        for r in range(d):
            for c in range(d):
                row: Dict[int, Fraction] = {}
                for k in cols_nonzero[c]:
                    p = param(r, k)
                    row[p] = row.get(p, ZERO) + weight(r, k) * m[k][c]
                for k in rows_nonzero[r]:
                    p = param(k, c)
                    row[p] = row.get(p, ZERO) - m[r][k] * weight(k, c)
                if row:
                    rows.append(row)
    sols = linalg.sparse_nullspace(rows, len(idx))
    return [_sym_op_from_params(p, norms, d) for p in sols]


def commutant_full_ops(ops: List[Mat], d: int) -> List[Mat]:
    """Basis of all operators commuting with every op (division-algebra check)."""
    rows = []
    for m in ops:
        for r in range(d):
            for c in range(d):
                row: Dict[int, Fraction] = {}
                for k in range(d):
                    if m[k][c] != 0:
                        p = r * d + k
                        row[p] = row.get(p, ZERO) + m[k][c]
                    if m[r][k] != 0:
                        p = k * d + c
                        row[p] = row.get(p, ZERO) - m[r][k]
                if row:
                    rows.append(row)
    sols = linalg.sparse_nullspace(rows, d * d)
    return [[sol[r * d:(r + 1) * d] for r in range(d)] for sol in sols]


def commutant_sym(action: IsotropyAction,
                  subspace: Optional[Subspace] = None) -> List[Mat]:
    """Symmetric equivariant operators on an invariant subspace of m."""
    return commutant_sym_ops(*_restrict_action(action, subspace))


def intertwiners(action: IsotropyAction, sub_a: Subspace,
                 sub_b: Subspace) -> List[Mat]:
    """Basis of equivariant maps sub_a -> sub_b (matrices d_b x d_a)."""
    ops_a, _ = _restrict_action(action, sub_a)
    ops_b, _ = _restrict_action(action, sub_b)
    da, db = sub_a.dim, sub_b.dim
    rows = []
    for ma, mb in zip(ops_a, ops_b):
        # phi @ ma - mb @ phi = 0, phi indexed (r, c) -> r * da + c
        for r in range(db):
            for c in range(da):
                row: Dict[int, Fraction] = {}
                for k in range(da):
                    if ma[k][c] != 0:
                        p = r * da + k
                        row[p] = row.get(p, ZERO) + ma[k][c]
                for k in range(db):
                    if mb[r][k] != 0:
                        p = k * da + c
                        row[p] = row.get(p, ZERO) - mb[r][k]
                if row:
                    rows.append(row)
    sols = linalg.sparse_nullspace(rows, da * db)
    return [[sol[r * da:(r + 1) * da] for r in range(db)] for sol in sols]


# ---------------------------------------------------------------------------
# splitting engine
# ---------------------------------------------------------------------------

def _float_hints(op: Mat, norms: List[Fraction]) -> List[float]:
    import numpy as np
    d = len(norms)
    scale = [float(nu) ** 0.5 for nu in norms]
    arr = np.array([[float(op[i][j]) * scale[i] / scale[j] for j in range(d)]
                    for i in range(d)])
    return [float(x) for x in np.linalg.eigvalsh((arr + arr.T) / 2)]


def _split_by_operator(op: Mat, norms: List[Fraction]) -> Optional[List[List[Vec]]]:
    """Exact eigenspace split of a symmetric operator; None if it refuses."""
    split = linalg.eigen_split(op, _float_hints(op, norms))
    if split is None or len(split) < 2:
        return None
    return [basis for _, basis in split]


def minimal_invariant_pieces(ops: List[Mat], gram: Mat, start: Subspace,
                             extra_ops: Sequence[Mat] = (),
                             seed: int = 0,
                             random_tries: int = 24) -> List[Subspace]:
    """Split an invariant subspace into minimal invariant pieces, exactly.

    `extra_ops` are ambient symmetric equivariant operators tried first as
    splitters (restricted wherever they preserve the piece).
    """
    rng = random.Random(f"pieces:{seed}")
    done: List[Subspace] = []
    work = [start]
    while work:
        piece = work.pop()
        ops_p = []
        for op in ops:
            r = restrict_op(op, piece, gram)
            if r is None:
                raise DecompositionError("piece lost invariance during split")
            ops_p.append(r)
        csym = commutant_sym_ops(ops_p, piece.norms)
        if len(csym) == 1:
            done.append(piece)
            continue
        candidates: List[Mat] = []
        for ex in extra_ops:
            r = restrict_op(ex, piece, gram)
            if r is not None:
                candidates.append(r)
        candidates.extend(csym)
        for _ in range(random_tries):
            combo = linalg.zeros(piece.dim, piece.dim)
            for s in csym:
                combo = linalg.mat_add(combo, linalg.mat_scale(
                    Fraction(rng.randint(-9, 9)), s))
            candidates.append(combo)
        for cand in candidates:
            parts = _split_by_operator(cand, piece.norms)
            if parts is None:
                continue
            for part in parts:
                ambient = []
                for v in part:
                    w = linalg.zero_vec(len(piece.basis[0]))
                    for c, b in zip(v, piece.basis):
                        if c != 0:
                            w = linalg.vec_add(w, linalg.vec_scale(c, b))
                    ambient.append(w)
                work.append(make_subspace(ambient, gram))
            break
        else:
            raise DecompositionError(
                "reducible piece admits no rationally split commutant element; "
                f"symmetric commutant dimension {len(csym)}")
    done.sort(key=subspace_leading_index)
    return done


# ---------------------------------------------------------------------------
# isotypical decomposition
# ---------------------------------------------------------------------------

@dataclass
class Submodule:
    space: Subspace
    trivial: bool
    commutant_sym_dim: int
    commutant_dim: int

    @property
    def dim(self) -> int:
        return self.space.dim


@dataclass
class IsotypicalSummand:
    class_id: int
    members: List[Submodule]
    space: Subspace
    intertwiner_bases: Dict[Tuple[int, int], List[Mat]] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.space.dim


@dataclass
class IsotypicalDecomposition:
    action: IsotropyAction
    summands: List[IsotypicalSummand]
    s0: IsotypicalSummand
    seed: int
    _sym_commutant: Optional[List[Mat]] = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.action.dim

    def sym_commutant_basis(self) -> List[Mat]:
        """Basis of symmetric equivariant operators on all of m (cached)."""
        if self._sym_commutant is None:
            self._sym_commutant = commutant_sym(self.action)
        return self._sym_commutant

    def nontrivial_summands(self) -> List[IsotypicalSummand]:
        return [s for s in self.summands if s is not self.s0]


def joint_kernel(ops: List[Mat], gram: Mat, dim: int) -> Subspace:
    rows = [row for op in ops for row in op]
    basis = linalg.nullspace(rows, dim) if rows else linalg.identity(dim)
    return make_subspace(basis, gram)


def ad_on_m(split: ReductiveSplit, z_g: Vec) -> Mat:
    """Matrix of ad(z)|_m over the m basis; z must preserve m."""
    g = split.algebra
    cols = [split.coords_in_m(lie_core.bracket(g, z_g, b))
            for b in split.m_basis]
    return linalg.transpose(cols)


def squared_ad_candidates(action: IsotropyAction, s0: Subspace) -> List[Mat]:
    """Operators -(ad Z|_m)^2 for Z over the S0 basis; symmetric, equivariant."""
    split = action.split
    out = []
    for z_m in s0.basis:
        adz = ad_on_m(split, split.m_to_g(z_m))
        out.append(linalg.mat_scale(Fraction(-1), linalg.mat_mul(adz, adz)))
    return out


def decompose_isotypic(action: IsotropyAction,
                       seed: int = 0) -> IsotypicalDecomposition:
    """Split m into S0 and isotypical summands of equivalent submodules."""
    dim = action.dim
    gram = action.gram
    s0_space = joint_kernel(action.ad_ops, gram, dim)

    members_s0 = [Submodule(space=make_subspace([b], gram), trivial=True,
                            commutant_sym_dim=1, commutant_dim=1)
                  for b in s0_space.basis]
    s0_summand = IsotypicalSummand(class_id=0, members=members_s0, space=s0_space)
    for (i, j) in itertools.combinations(range(len(members_s0)), 2):
        # trivial modules: every linear map intertwines
        s0_summand.intertwiner_bases[(i, j)] = [[[ONE]]]
        s0_summand.intertwiner_bases[(j, i)] = [[[ONE]]]

    if s0_space.dim == dim:
        rest_pieces: List[Subspace] = []
    else:
        rows = [linalg.mat_vec(gram, b) for b in s0_space.basis]
        rest = make_subspace(linalg.nullspace(rows, dim) if rows
                             else linalg.identity(dim), gram)
        extra = squared_ad_candidates(action, s0_space)
        rest_pieces = minimal_invariant_pieces(action.ad_ops, gram, rest,
                                               extra_ops=extra, seed=seed)

    modules: List[Submodule] = []
    for piece in rest_pieces:
        ops_p, _ = _restrict_action(action, piece)
        cs = commutant_sym_ops(ops_p, piece.norms)
        cf = commutant_full_ops(ops_p, piece.dim)
        if len(cs) != 1:
            raise DecompositionError("piece failed the irreducibility certificate")
        if len(cf) not in (1, 2, 4):
            raise DecompositionError(
                f"commutant dimension {len(cf)} is not a division algebra")
        modules.append(Submodule(space=piece, trivial=False,
                                 commutant_sym_dim=len(cs), commutant_dim=len(cf)))

    # equivalence classes through nonzero intertwiner spaces
    classes: List[List[int]] = []
    inter_cache: Dict[Tuple[int, int], List[Mat]] = {}
    assigned = [-1] * len(modules)
    for i, mod in enumerate(modules):
        placed = False
        for cid, cls in enumerate(classes):
            rep = cls[0]
            if modules[rep].dim != mod.dim:
                continue
            phis = intertwiners(action, modules[rep].space, mod.space)
            if phis:
                for phi in phis:
                    if linalg.rank(phi) != mod.dim:
                        raise DecompositionError(
                            "nonzero intertwiner between irreducibles is singular")
                inter_cache[(rep, i)] = phis
                cls.append(i)
                assigned[i] = cid
                placed = True
                break
        if not placed:
            assigned[i] = len(classes)
            classes.append([i])

    summands = [s0_summand]
    for cls in classes:
        space = make_subspace([v for idx in cls for v in modules[idx].space.basis],
                              gram)
        summand = IsotypicalSummand(class_id=0, members=[modules[idx] for idx in cls],
                                    space=space)
        for (a, b) in itertools.permutations(range(len(cls)), 2):
            phis = inter_cache.get((cls[a], cls[b]))
            if phis is None:
                phis = intertwiners(action, modules[cls[a]].space,
                                    modules[cls[b]].space)
            summand.intertwiner_bases[(a, b)] = phis
        summands.append(summand)

    summands[1:] = sorted(
        summands[1:],
        key=lambda s: (s.members[0].dim, subspace_leading_index(s.space)))
    for cid, s in enumerate(summands):
        s.class_id = cid

    total = sum(s.dim for s in summands)
    if total != dim:
        raise DecompositionError("summand dimensions do not add up")
    return IsotypicalDecomposition(action=action, summands=summands,
                                   s0=s0_summand, seed=seed)


# ---------------------------------------------------------------------------
# center and simple ideals of S0
# ---------------------------------------------------------------------------

@dataclass
class IdealSplit:
    center: Subspace
    simples: List[Subspace]


def s0_bracket_ops(split: ReductiveSplit, s0: Subspace) -> List[Mat]:
    """Adjoint operators of S0 acting on itself, over the S0 basis."""
    g = split.algebra
    ops = []
    for z_m in s0.basis:
        z = split.m_to_g(z_m)
        cols = []
        for w_m in s0.basis:
            w = split.m_to_g(w_m)
            br = lie_core.bracket(g, z, w)
            br_m = split.coords_in_m(br)
            coords = s0.coords_of(br_m, split.gram_m)
            if coords is None:
                raise ArithmeticError("S0 is not closed under the bracket")
            cols.append(coords)
        ops.append(linalg.transpose(cols))
    return ops


def split_ideals(split: ReductiveSplit, s0: Subspace,
                 seed: int = 0) -> IdealSplit:
    """S0 = center (+) simple ideals, B-orthogonally."""
    ops = s0_bracket_ops(split, s0)
    d = s0.dim
    rows = [row for op in ops for row in op]
    center_local = linalg.nullspace(rows, d) if rows else linalg.identity(d)

    def to_ambient(vecs: List[Vec]) -> List[Vec]:
        out = []
        for v in vecs:
            w = linalg.zero_vec(len(s0.basis[0]))
            for c, b in zip(v, s0.basis):
                if c != 0:
                    w = linalg.vec_add(w, linalg.vec_scale(c, b))
            out.append(w)
        return out

    gram = split.gram_m
    center = make_subspace(to_ambient(center_local), gram)
    if center.dim == d:
        return IdealSplit(center=center, simples=[])

    norms_local = [linalg.gram_dot(gram, b, b) for b in s0.basis]
    gram_local = [[linalg.gram_dot(gram, a, b) for b in s0.basis] for a in s0.basis]
    rows_c = [linalg.mat_vec(gram_local, v) for v in center_local]
    semi_local = (linalg.nullspace(rows_c, d) if rows_c
                  else linalg.identity(d))
    # pieces of the adjoint action of S0 on its semisimple part
    local_sub = make_subspace(semi_local, gram_local)
    pieces = minimal_invariant_pieces(ops, gram_local, local_sub, seed=seed)
    simples = []
    for piece in pieces:
        amb = make_subspace(to_ambient(piece.basis), gram)
        # simple ideals are non-abelian
        g_alg = split.algebra
        vecs = [split.m_to_g(v) for v in amb.basis]
        nonabelian = any(
            not linalg.vec_is_zero(lie_core.bracket(g_alg, x, y))
            for i, x in enumerate(vecs) for y in vecs[i + 1:])
        if not nonabelian:
            raise DecompositionError("minimal ideal of the semisimple part is abelian")
        simples.append(amb)
    return IdealSplit(center=center, simples=simples)


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def decomposition_report(dec: IsotypicalDecomposition) -> dict:
    summands = []
    for s in dec.summands:
        inter_dims = sorted(
            {f"{a}-{b}": len(phis) for (a, b), phis in s.intertwiner_bases.items()}.items())
        summands.append({
            "class_id": s.class_id,
            "dim": s.dim,
            "trivial": s is dec.s0,
            "member_dims": [m.dim for m in s.members],
            "member_commutant_dims": [m.commutant_dim for m in s.members],
            "intertwiner_dims": dict(inter_dims),
        })
    return {
        "dim_m": dec.dim,
        "dim_s0": dec.s0.dim,
        "summands": summands,
        "seed": dec.seed,
        "sym_commutant_dim": len(dec.sym_commutant_basis()),
    }
