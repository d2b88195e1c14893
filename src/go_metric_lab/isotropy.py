"""Isotropy action on m: irreducible pieces, isotypical summands, ideals.

The action of h on m is carried by the matrices of ad(a)|_m over the m
basis.  Decomposition strategy, all in exact rational arithmetic:

* the trivial summand S0 is the joint kernel of the action, computed
  directly as an exact nullspace;
* the complement splits recursively through symmetric equivariant
  operators with rational spectra.  Squared-bracket operators -ad(Z)^2 for
  Z in S0 are tried first (their spectra are rational on every instance we
  target and their eigenspaces come out in coordinate form), then commutant
  basis elements, then seeded random combinations.  Eigenvalues are the
  rational roots of the exact minimal polynomial (`linalg.rational_roots`);
* a piece is certified irreducible when its symmetric commutant is exactly
  one-dimensional, which for a B-skew action is equivalent to admitting no
  proper invariant subspace.  The full commutant dimension (1, 2 or 4)
  records the real/complex/quaternionic type.
"""

from __future__ import annotations

import collections
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from . import linalg
from .decomp import ReductiveSplit
from .linalg import Mat, Vec, ZERO, ONE


class DecompositionError(ArithmeticError):
    """Splitting could not be completed (or certified)."""


# ---------------------------------------------------------------------------
# subspaces of m
# ---------------------------------------------------------------------------

@dataclass
class Subspace:
    """Subspace of m with a B-orthogonal basis in m-coordinates.

    Ambient forms are passed as norm vectors: the diagonal of the Gram
    matrix of a B-orthogonal ambient basis.
    """

    basis: List[Vec]
    norms: List[Fraction]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def sparse_basis(self) -> List[linalg.Sparse]:
        return [linalg.sparse(b) for b in self.basis]

    def coords_of(self, v: Vec, norms: Vec) -> Optional[Vec]:
        """Coordinates of v over the basis, or None if v falls outside."""
        resid = {i: c for i, c in enumerate(v) if c != 0}
        gv = [(i, c * norms[i]) for i, c in resid.items()]
        coords = [linalg.sparse_dot(b, gv) / nu
                  for b, nu in zip(self.basis, self.norms)]
        for c, b in zip(coords, self.sparse_basis):
            if c != 0:
                for i, bi in b:
                    resid[i] = resid.get(i, ZERO) - c * bi
        if any(r != 0 for r in resid.values()):
            return None
        return coords


def make_subspace(vectors: Sequence[Vec], norms: Vec) -> Subspace:
    basis = linalg.gram_schmidt(list(vectors), norms)
    return Subspace(basis=basis,
                    norms=[linalg.norm_dot(norms, b, b) for b in basis])


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
    """The action matrices of the split's reductivity check, verified B-skew.

    B-skewness on the diagonal m-norms nu reads
    nu_r A[r][c] + nu_c A[c][r] = 0 entrywise.
    """
    nu = split.norms_m
    for op in split.ad_h:
        for r, row in enumerate(op):
            for c, x in enumerate(row):
                if x != 0 and nu[r] * x + nu[c] * op[c][r] != 0:
                    raise ArithmeticError("ad(a)|_m is not B-skew")
    return IsotropyAction(split=split, ad_ops=list(split.ad_h))


def restrict_op(op: Mat, sub: Subspace, norms: Vec) -> Optional[Mat]:
    """Matrix of op on the subspace basis; None if the subspace moves."""
    cols = []
    for b in sub.sparse_basis:
        coords = sub.coords_of([linalg.sparse_dot(row, b) for row in op], norms)
        if coords is None:
            return None
        cols.append(coords)
    return linalg.transpose(cols)


def _restrict_action(action: IsotropyAction, sub: Optional[Subspace]
                     ) -> Tuple[List[Mat], List[Fraction]]:
    if sub is None:
        return action.ad_ops, list(action.norms)
    ops = []
    for op in action.ad_ops:
        r = restrict_op(op, sub, action.norms)
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


def commutant_sym(action: IsotropyAction,
                  subspace: Optional[Subspace] = None) -> List[Mat]:
    """Symmetric equivariant operators on an invariant subspace of m."""
    return commutant_sym_ops(*_restrict_action(action, subspace))


def intertwiners(action: IsotropyAction, sub_a: Subspace,
                 sub_b: Subspace) -> List[Mat]:
    """Basis of equivariant maps sub_a -> sub_b (matrices d_b x d_a)."""
    ops_a, _ = _restrict_action(action, sub_a)
    ops_b, _ = _restrict_action(action, sub_b)
    return _equivariant_maps(ops_a, ops_b, sub_a.dim, sub_b.dim)


def _equivariant_maps(ops_a: List[Mat], ops_b: List[Mat], da: int,
                      db: int) -> List[Mat]:
    """Basis of the d_b x d_a matrices phi with phi ma = mb phi for every
    pair (ma, mb); with ops_a = ops_b, the full commutant."""
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

RANDOM_TRIES = 24     # seeded random commutant combinations tried per piece


def minimal_invariant_pieces(ops: List[Mat], norms: Vec, start: Subspace,
                             extra_ops: Sequence[Mat] = (),
                             seed: int = 0) -> List[Subspace]:
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
            r = restrict_op(op, piece, norms)
            if r is None:
                raise DecompositionError("piece lost invariance during split")
            ops_p.append(r)
        csym = commutant_sym_ops(ops_p, piece.norms)
        if len(csym) == 1:
            done.append(piece)
            continue
        # candidates are built only until one splits the piece; the random
        # coefficients are drawn up front so every piece sees the same stream
        draws = [[Fraction(rng.randint(-9, 9)) for _ in csym]
                 for _ in range(RANDOM_TRIES)]
        restricted = (restrict_op(ex, piece, norms) for ex in extra_ops)
        combos = ([[sum((c * s[i][j] for c, s in zip(coeffs, csym)), ZERO)
                    for j in range(piece.dim)] for i in range(piece.dim)]
                  for coeffs in draws)
        for cand in itertools.chain((r for r in restricted if r is not None),
                                    csym, combos):
            # exact eigenspaces of a symmetric candidate; None: not rational
            split = linalg.eigen_split(cand)
            if split is None or len(split) < 2:
                continue
            for _, part in split:
                work.append(make_subspace(
                    [linalg.combine(v, piece.basis, len(norms)) for v in part],
                    norms))
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

    @cached_property
    def sym_commutant_entries(self) -> List[Dict[Tuple[int, int], Fraction]]:
        """Nonzero entries {(row, col): value} of each commutant basis operator."""
        return [{(i, j): c for i, row in enumerate(s) for j, c in enumerate(row)
                 if c != 0} for s in self.sym_commutant_basis()]

    @cached_property
    def sym_commutant_free(self) -> List[Tuple[int, int]]:
        """Per basis operator, a position where it is 1 and every other is 0.

        The basis comes from an exact nullspace (`commutant_sym_ops`), so
        the free column of each basis vector supplies one.
        """
        owners = collections.Counter(
            pos for entries in self.sym_commutant_entries for pos in entries)
        return [next(pos for pos, c in entries.items()
                     if c == 1 and owners[pos] == 1)
                for entries in self.sym_commutant_entries]

    def nontrivial_summands(self) -> List[IsotypicalSummand]:
        return [s for s in self.summands if s is not self.s0]


def joint_kernel(ops: List[Mat], norms: Vec, dim: int) -> Subspace:
    rows = [row for op in ops for row in op]
    basis = linalg.nullspace(rows, dim) if rows else linalg.identity(dim)
    return make_subspace(basis, norms)


def _ad_columns(split: ReductiveSplit, z_m: Vec) -> List[linalg.Sparse]:
    """Sparse columns [z, m_b] of ad(z)|_m for z in m; z must preserve m."""
    z = linalg.sparse(z_m)
    return [split.bracket_table.bracket_in_m(z, [(b, ONE)])
            for b in range(split.dim_m)]


def ad_on_m(split: ReductiveSplit, z_m: Vec) -> Mat:
    """Matrix of ad(z)|_m over the m basis for z in m; z must preserve m."""
    return linalg.transpose([linalg.dense(col, split.dim_m)
                             for col in _ad_columns(split, z_m)])


def squared_ad_candidates(action: IsotropyAction, s0: Subspace) -> List[Mat]:
    """Operators -(ad Z|_m)^2 for Z over the S0 basis; symmetric, equivariant."""
    out = []
    for z_m in s0.basis:
        cols = _ad_columns(action.split, z_m)
        out.append(linalg.transpose([linalg.dense(linalg.sparse_mat_vec(
            cols, [(k, -c) for k, c in col]), action.dim) for col in cols]))
    return out


def decompose_isotypic(action: IsotropyAction,
                       seed: int = 0) -> IsotypicalDecomposition:
    """Split m into S0 and isotypical summands of equivalent submodules."""
    dim = action.dim
    norms = action.norms
    s0_space = joint_kernel(action.ad_ops, norms, dim)

    members_s0 = [Submodule(space=make_subspace([b], norms), trivial=True,
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
        rows = [[c * nu for c, nu in zip(b, norms)] for b in s0_space.basis]
        rest = make_subspace(linalg.nullspace(rows, dim) if rows
                             else linalg.identity(dim), norms)
        extra = squared_ad_candidates(action, s0_space)
        rest_pieces = minimal_invariant_pieces(action.ad_ops, norms, rest,
                                               extra_ops=extra, seed=seed)

    modules: List[Submodule] = []
    for piece in rest_pieces:
        ops_p, _ = _restrict_action(action, piece)
        cs = commutant_sym_ops(ops_p, piece.norms)
        cf = _equivariant_maps(ops_p, ops_p, piece.dim, piece.dim)
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
                              norms)
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
    ops = []
    for z in s0.sparse_basis:
        cols = []
        for w in s0.sparse_basis:
            br_m = linalg.dense(split.bracket_table.bracket_in_m(z, w),
                                split.dim_m)
            coords = s0.coords_of(br_m, split.norms_m)
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
        return [linalg.combine(v, s0.basis, split.dim_m) for v in vecs]

    norms = split.norms_m
    center = make_subspace(to_ambient(center_local), norms)
    if center.dim == d:
        return IdealSplit(center=center, simples=[])

    # S0 coordinates: the S0 basis is B-orthogonal with norms s0.norms
    rows_c = [[c * nu for c, nu in zip(v, s0.norms)] for v in center_local]
    semi_local = (linalg.nullspace(rows_c, d) if rows_c
                  else linalg.identity(d))
    # pieces of the adjoint action of S0 on its semisimple part
    local_sub = make_subspace(semi_local, s0.norms)
    pieces = minimal_invariant_pieces(ops, s0.norms, local_sub, seed=seed)
    simples = []
    for piece in pieces:
        amb = make_subspace(to_ambient(piece.basis), norms)
        # simple ideals are non-abelian
        vecs = amb.sparse_basis
        nonabelian = any(
            part for i, x in enumerate(vecs) for y in vecs[i + 1:]
            for part in split.bracket_table.bracket(x, y))
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
