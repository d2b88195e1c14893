"""Isotropy action on m: irreducible pieces, isotypical summands, ideals.

The action of h on m is carried by the operators ad(a)|_m over the m
basis.  Every operator here, restrictions, commutants, intertwiners and
splitters alike, is sparse columns (`linalg.Columns`).  Decomposition
strategy, all in exact rational arithmetic:

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
  records the real/complex/quaternionic type;
* the equivariance systems behind commutants and intertwiners are
  assembled as integer rows and eliminated fraction-free
  (`linalg.sparse_nullspace`);
* S0 splits into its center and simple ideals once per decomposition
  (`IsotypicalDecomposition.ideals`), with no seed: the ideal projectors
  span the symmetric commutant there, so commutant basis elements always
  split (see `split_ideals`).
"""

from __future__ import annotations

import collections
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import linalg
from .decomp import ReductiveSplit
from .linalg import Columns, Subspace, Vec, ONE, make_subspace


class DecompositionError(ArithmeticError):
    """Splitting could not be completed (or certified)."""


# ---------------------------------------------------------------------------
# subspaces of m: `linalg.Subspace`, built by `linalg.make_subspace`
# ---------------------------------------------------------------------------

def subspace_leading_index(sub: Subspace) -> Tuple:
    return tuple(sorted(b[0][0] for b in sub.sparse_basis))


# ---------------------------------------------------------------------------
# the action
# ---------------------------------------------------------------------------

@dataclass
class IsotropyAction:
    """ad(a)|_m for each h-basis element a, as sparse columns over the m
    basis: column b is [a, m_b]."""

    split: ReductiveSplit
    ad_ops: List[Columns]

    @property
    def dim(self) -> int:
        return self.split.dim_m

    @property
    def norms(self) -> Vec:
        return self.split.norms_m

    @cached_property
    def integer_ad_columns(self) -> Tuple[int, List[List[List[Tuple[int, int]]]]]:
        """(D, columns): D the lcm of every denominator of the isotropy
        operators, and the sparse columns of each D ad(a)|_m as integers."""
        return linalg.cleared_columns(self.ad_ops)

    @cached_property
    def integer_norms(self) -> Tuple[int, List[int], List[int]]:
        """(D, m-norms, g-norms): the m-basis norm vector and the diagonal
        of the algebra's (diagonal) Gram matrix, both as D times integers."""
        gram = self.split.algebra.gram
        g_norms = [gram[i][i] for i in range(len(gram))]
        den = linalg.denominator(self.norms + g_norms)
        return (den, [c.numerator * (den // c.denominator) for c in self.norms],
                [c.numerator * (den // c.denominator) for c in g_norms])


def isotropy_action(split: ReductiveSplit) -> IsotropyAction:
    """The action operators of the split's reductivity check, verified B-skew.

    B-skewness on the diagonal m-norms nu reads
    nu_r A[r][c] + nu_c A[c][r] = 0 entrywise.
    """
    nu = split.norms_m
    for op in split.ad_h:
        entries = [dict(col) for col in op]
        for c, col in enumerate(op):
            for r, x in col:
                if nu[r] * x + nu[c] * entries[r].get(c, 0) != 0:
                    raise ArithmeticError("ad(a)|_m is not B-skew")
    return IsotropyAction(split=split, ad_ops=list(split.ad_h))


def restrict_op(op: Columns, sub: Subspace, norms: Vec) -> Optional[Columns]:
    """Sparse columns of op on the subspace basis; None if it moves."""
    cols = []
    for b in sub.sparse_basis:
        coords, resid = linalg.orthogonal_projection(
            sub, norms, linalg.sparse_mat_vec(op, b))
        if resid:
            return None
        cols.append(coords)
    return cols


def _restrict_action(action: IsotropyAction, sub: Optional[Subspace]
                     ) -> Tuple[List[Columns], List[Fraction]]:
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


def commutant_sym_ops(ops: List[Columns], norms: List[Fraction]
                      ) -> List[Columns]:
    """Basis of B-symmetric operators commuting with every op (exact).

    The parameters are the entries S[i][j], i <= j, with S[j][i] =
    S[i][j] nu_i / nu_j.  Each equation (S M - M S)[r][c] = 0 is
    assembled on integers: M is cleared of its denominators, and the row
    is scaled by L, the lcm of the integer norms N (nu = N / D), so the
    weight nu_b / nu_a = N_b / N_a of a parameter below the diagonal
    enters as the integer N_b (L / N_a).
    """
    d = len(norms)
    idx = _sym_param_index(d)
    param = [[idx[(a, b) if a <= b else (b, a)] for b in range(d)]
             for a in range(d)]
    den = linalg.denominator(norms)
    nint = [c.numerator * (den // c.denominator) for c in norms]
    lcm = math.lcm(*nint)
    weight = [[lcm if a <= b else nint[b] * (lcm // nint[a]) for b in range(d)]
              for a in range(d)]

    rows = []
    for m in ops:
        m_cols = linalg.cleared_columns([m])[1][0]
        m_rows = linalg.column_rows(m_cols, d)
        for r in range(d):
            p_r, w_r = param[r], weight[r]
            for c in range(d):
                row: Dict[int, int] = {}
                for k, x in m_cols[c]:
                    p = p_r[k]
                    row[p] = row.get(p, 0) + w_r[k] * x
                for k, x in m_rows[r].items():
                    p = param[k][c]
                    row[p] = row.get(p, 0) - x * weight[k][c]
                if row:
                    rows.append(row)
    sols = linalg.sparse_nullspace(rows, len(idx))
    # S[i][j] = p and S[j][i] = p nu_i / nu_j, from the nonzero parameters
    entries = list(idx)
    out = []
    for params in sols:
        cols: List[dict] = [{} for _ in range(d)]
        for p, v in enumerate(params):
            if v != 0:
                i, j = entries[p]
                cols[j][i] = v
                if i != j:
                    cols[i][j] = v * norms[i] / norms[j]
        out.append([linalg.sparse_from(col) for col in cols])
    return out


def commutant_sym(action: IsotropyAction,
                  subspace: Optional[Subspace] = None) -> List[Columns]:
    """Symmetric equivariant operators on an invariant subspace of m."""
    return commutant_sym_ops(*_restrict_action(action, subspace))


def intertwiners(action: IsotropyAction, sub_a: Subspace,
                 sub_b: Subspace) -> List[Columns]:
    """Basis of equivariant maps sub_a -> sub_b: d_a sparse columns over
    the sub_b basis each."""
    ops_a, _ = _restrict_action(action, sub_a)
    ops_b, _ = _restrict_action(action, sub_b)
    return _equivariant_maps(ops_a, ops_b, sub_a.dim, sub_b.dim)


def _equivariant_maps(ops_a: List[Columns], ops_b: List[Columns], da: int,
                      db: int) -> List[Columns]:
    """Basis of the d_b x d_a maps phi (sparse columns) with phi ma = mb phi
    for every pair (ma, mb); with ops_a = ops_b, the full commutant.  Each
    pair is cleared of its denominators once, so the rows are integer."""
    rows = []
    for ma, mb in zip(ops_a, ops_b):
        a_cols, b_cols = linalg.cleared_columns([ma, mb])[1]
        b_rows = linalg.column_rows(b_cols, db)
        # phi @ ma - mb @ phi = 0, phi indexed (r, c) -> r * da + c
        for r in range(db):
            for c in range(da):
                row: Dict[int, int] = {}
                for k, x in a_cols[c]:
                    p = r * da + k
                    row[p] = row.get(p, 0) + x
                for k, x in b_rows[r].items():
                    p = k * da + c
                    row[p] = row.get(p, 0) - x
                if row:
                    rows.append(row)
    sols = linalg.sparse_nullspace(rows, da * db)
    return [[[(r, sol[r * da + c]) for r in range(db) if sol[r * da + c]]
             for c in range(da)] for sol in sols]


# ---------------------------------------------------------------------------
# splitting engine
# ---------------------------------------------------------------------------

RANDOM_TRIES = 24     # seeded random commutant combinations tried per piece


def minimal_invariant_pieces(ops: List[Columns], norms: Vec, start: Subspace,
                             extra_ops: Sequence[Columns] = (),
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
        combos = (linalg.combine_columns(coeffs, csym, piece.dim)
                  for coeffs in draws)
        for cand in itertools.chain((r for r in restricted if r is not None),
                                    csym, combos):
            # exact eigenspaces of a symmetric candidate; None: not rational
            split = linalg.eigen_split(cand)
            if split is None or len(split) < 2:
                continue
            for _, part in split:
                work.append(make_subspace(
                    [linalg.sparse_mat_vec(piece.sparse_basis, linalg.sparse(v))
                     for v in part], norms))
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
    intertwiner_bases: Dict[Tuple[int, int], List[Columns]] = field(
        default_factory=dict)

    @property
    def dim(self) -> int:
        return self.space.dim


@dataclass
class IsotypicalDecomposition:
    action: IsotropyAction
    summands: List[IsotypicalSummand]
    s0: IsotypicalSummand
    seed: int
    _sym_commutant: Optional[List[Columns]] = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.action.dim

    def sym_commutant_basis(self) -> List[Columns]:
        """Basis of symmetric equivariant operators on all of m (cached)."""
        if self._sym_commutant is None:
            self._sym_commutant = commutant_sym(self.action)
        return self._sym_commutant

    @cached_property
    def sym_commutant_free(self) -> List[Tuple[int, int]]:
        """Per basis operator, a position (row, col) where it is 1 and every
        other is 0, the first in row order.

        The basis comes from an exact nullspace (`commutant_sym_ops`), so
        the free column of each basis vector supplies one.
        """
        entries = [sorted(((i, j), c) for j, col in enumerate(s)
                          for i, c in col)
                   for s in self.sym_commutant_basis()]
        owners = collections.Counter(pos for e in entries for pos, _ in e)
        return [next(pos for pos, c in e if c == 1 and owners[pos] == 1)
                for e in entries]

    def nontrivial_summands(self) -> List[IsotypicalSummand]:
        return [s for s in self.summands if s is not self.s0]

    @cached_property
    def ideals(self) -> IdealSplit:
        """S0 = center (+) simple ideals, computed once per decomposition;
        its subspaces are shared by every caller and never mutated."""
        return split_ideals(self.action.split, self.s0.space)


def joint_kernel(ops: List[Columns], norms: Vec, dim: int) -> Subspace:
    rows = [row for op in ops for row in linalg.column_rows(op, dim)]
    return make_subspace(map(linalg.sparse, linalg.nullspace(rows, dim)),
                         norms)


def _ad_columns(split: ReductiveSplit, z_m: Vec) -> Columns:
    """Sparse columns [z, m_b] of ad(z)|_m for z in m; z must preserve m."""
    z = linalg.sparse(z_m)
    return [split.bracket_table.bracket_in_m(z, [(b, ONE)])
            for b in range(split.dim_m)]


class _Lazy:
    """build(0), ..., build(n - 1) as a sequence, each built on first use."""

    def __init__(self, build: Callable[[int], Columns], n: int):
        self._build, self._n = lru_cache(maxsize=None)(build), n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> Columns:
        return self._build(range(self._n)[i])   # IndexError ends iteration


def squared_ad_candidates(action: IsotropyAction, s0: Subspace) -> _Lazy:
    """Operators -(ad Z|_m)^2 for Z over the S0 basis; symmetric, equivariant.

    Each is built when a split first tries it: a split stops at the first
    candidate that splits its piece, so most are never built."""
    def build(i: int) -> Columns:
        cols = _ad_columns(action.split, s0.basis[i])
        return [linalg.sparse_mat_vec(cols, [(k, -c) for k, c in col])
                for col in cols]

    return _Lazy(build, s0.dim)


def decompose_isotypic(action: IsotropyAction,
                       seed: int = 0) -> IsotypicalDecomposition:
    """Split m into S0 and isotypical summands of equivalent submodules."""
    dim = action.dim
    norms = action.norms
    s0_space = joint_kernel(action.ad_ops, norms, dim)

    members_s0 = [Submodule(space=make_subspace([b], norms), trivial=True,
                            commutant_sym_dim=1, commutant_dim=1)
                  for b in s0_space.sparse_basis]
    s0_summand = IsotypicalSummand(class_id=0, members=members_s0, space=s0_space)
    for (i, j) in itertools.combinations(range(len(members_s0)), 2):
        # trivial modules: every linear map intertwines
        s0_summand.intertwiner_bases[(i, j)] = [[[(0, ONE)]]]
        s0_summand.intertwiner_bases[(j, i)] = [[[(0, ONE)]]]

    if s0_space.dim == dim:
        rest_pieces: List[Subspace] = []
    else:
        rows = [{i: c * norms[i] for i, c in b} for b in s0_space.sparse_basis]
        rest = make_subspace(map(linalg.sparse, linalg.nullspace(rows, dim)),
                             norms)
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
    inter_cache: Dict[Tuple[int, int], List[Columns]] = {}
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
                    if linalg.rank(linalg.column_rows(phi, mod.dim)) != mod.dim:
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
        space = make_subspace([v for idx in cls
                               for v in modules[idx].space.sparse_basis], norms)
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


def s0_bracket_ops(split: ReductiveSplit, s0: Subspace) -> List[Columns]:
    """Adjoint operators of S0 on itself, sparse columns over the S0 basis."""
    ops = []
    for z in s0.sparse_basis:
        cols = []
        for w in s0.sparse_basis:
            coords, resid = linalg.orthogonal_projection(
                s0, split.norms_m, split.bracket_table.bracket_in_m(z, w))
            if resid:
                raise ArithmeticError("S0 is not closed under the bracket")
            cols.append(coords)
        ops.append(cols)
    return ops


def split_ideals(split: ReductiveSplit, s0: Subspace) -> IdealSplit:
    """S0 = center (+) simple ideals, B-orthogonally.

    `IsotypicalDecomposition.ideals` calls this once per decomposition.
    No seed is needed: S0 lies in a compact algebra, so the symmetric
    commutant of its adjoint action on the semisimple part is spanned by
    the ideal projectors.  Each commutant basis element is a rational
    combination of them, with rational eigenvalues, and a reducible piece
    has a basis element that is not scalar; it splits the piece before
    any seeded random combination would be tried.
    """
    ops = s0_bracket_ops(split, s0)
    d = s0.dim
    rows = [row for op in ops for row in linalg.column_rows(op, d)]
    center_local = [linalg.sparse(v) for v in linalg.nullspace(rows, d)]

    def to_ambient(vecs: List[linalg.Sparse]) -> List[linalg.Sparse]:
        return [linalg.sparse_mat_vec(s0.sparse_basis, v) for v in vecs]

    norms = split.norms_m
    center = make_subspace(to_ambient(center_local), norms)
    if center.dim == d:
        return IdealSplit(center=center, simples=[])

    # S0 coordinates: the S0 basis is B-orthogonal with norms s0.norms
    rows_c = [{i: c * s0.norms[i] for i, c in v} for v in center_local]
    # pieces of the adjoint action of S0 on its semisimple part
    local_sub = make_subspace(map(linalg.sparse, linalg.nullspace(rows_c, d)),
                              s0.norms)
    pieces = minimal_invariant_pieces(ops, s0.norms, local_sub)
    simples = []
    for piece in pieces:
        amb = make_subspace(to_ambient(piece.sparse_basis), norms)
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
