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
  proper invariant subspace.  The certified piece keeps the action
  restricted to it, from which its full commutant dimension (1, 2 or 4,
  the real/complex/quaternionic type), its class and its intertwiners
  Hom(a, b), a < b, are solved; Hom(b, a) is their B-adjoint.  The
  symmetric commutant of all of m is not solved: it is read off these
  blocks (`metric.sym_commutant_basis`);
* the equivariance systems behind commutants and intertwiners are
  assembled as integer rows by one routine (`_equivariance_rows`) and
  eliminated fraction-free (`linalg.nullspace`, sparse solutions);
* every equivariance system is solved against ad(x) for x over a Lie
  generating set only, picked by `lie_generators`: for h,
  `IsotropyAction.generator_ops`; for S0 in `split_ideals`, generators of
  S0 itself, not of S0 over its center (`IdealSplit.generator_ops`).
  The action is a Lie algebra map and H is connected, so an operator
  commuting with ad(x) and ad(y) commutes with ad([x, y]), and a subspace
  they preserve it preserves too; the solution spaces are those of the
  whole basis.  What needs h-coordinates (the bracket table's integer
  isotropy columns behind the GO residuals and solves and the family
  certificate) keeps the whole basis, `ad_ops`;
* S0 splits into its center and simple ideals once per decomposition
  (`IsotypicalDecomposition.ideals`), with no seed: the center is the
  joint kernel of S0's generators (by Jacobi, x is central iff it
  commutes with a generating set), and the ideal projectors span the
  symmetric commutant on its complement, so commutant basis elements
  always split (see `split_ideals`).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import lie_core, linalg
from .decomp import ReductiveSplit
from .linalg import Columns, Sparse, Subspace, Vec, ONE, make_subspace


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
    def integer_norms(self) -> Tuple[int, List[int], List[int]]:
        """(D, m-norms, g-norms): the m-basis norm vector and the diagonal
        of the algebra's (diagonal) Gram matrix, both as D times integers."""
        g_norms = self.split.algebra.norms
        den = linalg.denominator(self.norms + g_norms)
        return (den, [c.numerator * (den // c.denominator) for c in self.norms],
                [c.numerator * (den // c.denominator) for c in g_norms])

    @cached_property
    def generator_ops(self) -> List[Columns]:
        """ad(a)|_m for the h-basis elements a that generate h
        (`lie_generators`, closed in g), a sublist of `ad_ops`: an operator
        commutes with every ad_op, and a subspace is invariant under every
        ad_op, iff that holds for these."""
        h = self.split.h
        gens = lie_generators(
            [linalg.sparse(v) for v in h.basis_coords],
            lambda x, y: lie_core.sparse_bracket(h.parent, x, y))
        return [self.ad_ops[i] for i in gens]


def lie_generators(basis: Sequence[Sparse],
                   bracket: Callable[[Sparse, Sparse], Sparse]) -> List[int]:
    """Indices of basis elements whose Lie closure spans the basis: taken
    greedily in basis order, each element that is not yet in the span of
    the closure so far joins it.

    The closure of a set is the least subspace that contains it and that
    ad(x) preserves for every x in it (right-normed brackets span the
    subalgebra it generates), so a new element is bracketed with what is
    there and each new vector with the set.  The span is kept in echelon
    form (`linalg.add_pivot`); the result is certified by `pivot_rows`
    over the closure reaching the rank of the basis, which must be
    independent.
    """
    echelon: dict = {}
    span: List[Sparse] = []             # independent vectors of the closure
    ads: List[Sparse] = []              # the chosen elements
    chosen = []

    def grow(v: Sparse) -> bool:
        if not linalg.add_pivot(echelon, dict(v)):
            return False
        span.append(v)
        return True

    for i, x in enumerate(basis):
        if not grow(x):
            continue
        chosen.append(i)
        work = [(x, v) for v in span[:-1]] + [(a, x) for a in ads]
        ads.append(x)
        while work:
            w = bracket(*work.pop())
            if w and grow(w):
                work.extend((a, w) for a in ads)
    if len(linalg.pivot_rows(dict(v) for v in span)) != len(basis):
        raise DecompositionError(
            f"the closure of {len(chosen)} generators does not span the "
            f"{len(basis)} basis elements")
    return chosen


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
    """Columns of op, cleared once, on the subspace basis; None if it moves."""
    den, (cols,) = linalg.cleared_columns([op])
    out = []
    for b, dj, _ in sub.rows:
        coords, resid = linalg.orthogonal_projection(
            sub, norms, linalg.sparse_mat_vec(cols, b), den * dj)
        if resid:
            return None
        out.append(coords)
    return out


# ---------------------------------------------------------------------------
# commutants and intertwiners (exact sparse linear systems)
# ---------------------------------------------------------------------------

def _equivariance_rows(ops_a: List[Columns], ops_b: List[Columns],
                       param: List[List[int]], weight: List[List[int]]
                       ) -> List[Dict[int, int]]:
    """Integer rows of phi ma - mb phi = 0 for every pair (ma, mb), phi the
    d_b x d_a map whose entry (r, c) is weight[r][c] times parameter
    param[r][c].  Each pair is cleared once, ma is mb as one operator."""
    rows = []
    for ma, mb in zip(ops_a, ops_b):
        cols = linalg.cleared_columns([ma] if ma is mb else [ma, mb])[1]
        a_cols, b_cols = cols[0], cols[-1]
        for r, b_row in enumerate(linalg.column_rows(b_cols, len(param))):
            p_r, w_r = param[r], weight[r]
            for c, a_col in enumerate(a_cols):
                row: Dict[int, int] = {}
                for k, x in a_col:
                    p = p_r[k]
                    row[p] = row.get(p, 0) + w_r[k] * x
                for k, x in b_row.items():
                    p = param[k][c]
                    row[p] = row.get(p, 0) - weight[k][c] * x
                if row:
                    rows.append(row)
    return rows


def commutant_sym_ops(ops: List[Columns], norms: List[Fraction]
                      ) -> List[Columns]:
    """Basis of B-symmetric operators commuting with every op (exact).

    The parameters are the entries S[i][j], i <= j, row by row, with
    S[j][i] = S[i][j] nu_i / nu_j.  The equations S M - M S = 0 are
    scaled by L, the lcm of the integer norms N (nu = N / D), so the
    weight nu_b / nu_a = N_b / N_a of a parameter below the diagonal
    enters as the integer N_b (L / N_a).
    """
    d = len(norms)
    entries = [(i, j) for i in range(d) for j in range(i, d)]
    idx = {e: p for p, e in enumerate(entries)}
    param = [[idx[(a, b) if a <= b else (b, a)] for b in range(d)]
             for a in range(d)]
    den = linalg.denominator(norms)
    nint = [c.numerator * (den // c.denominator) for c in norms]
    lcm = math.lcm(*nint)
    weight = [[lcm if a <= b else nint[b] * (lcm // nint[a]) for b in range(d)]
              for a in range(d)]
    return [sym_operator([(*entries[p], v) for p, v in sol], norms)
            for sol in linalg.nullspace(
                _equivariance_rows(ops, ops, param, weight), len(entries))]


def sym_operator(upper: Sequence[Tuple[int, int, Fraction]],
                 norms: Vec) -> Columns:
    """The B-symmetric S with S[j][i] = S[i][j] nu_i / nu_j and the upper
    entries (i, j, S[i][j]), i <= j, nonzero and in row-major order, so
    that each column meets its rows in increasing order."""
    cols: Columns = [[] for _ in norms]
    for i, j, v in upper:
        cols[j].append((i, v))
        if i != j:
            cols[i].append((j, v * norms[i] / norms[j]))
    return cols


def intertwiners(action: IsotropyAction, sub_a: Subspace,
                 sub_b: Subspace) -> List[Columns]:
    """Basis of equivariant maps sub_a -> sub_b: d_a sparse columns over
    the sub_b basis each."""
    ops = [[restrict_op(op, sub, action.norms) for op in action.generator_ops]
           for sub in (sub_a, sub_b)]
    if any(r is None for r in ops[0] + ops[1]):
        raise ValueError("subspace is not invariant under the action")
    return _equivariant_maps(*ops, sub_a.dim, sub_b.dim)


def _equivariant_maps(ops_a: List[Columns], ops_b: List[Columns], da: int,
                      db: int) -> List[Columns]:
    """Basis of the d_b x d_a maps phi (sparse columns) with phi ma = mb phi
    for every pair (ma, mb); with ops_a = ops_b, the full commutant.  The
    parameter of phi's entry (r, c) is r d_a + c."""
    param = [[r * da + c for c in range(da)] for r in range(db)]
    weight = [[1] * da for _ in range(db)]
    out = []
    for sol in linalg.nullspace(_equivariance_rows(ops_a, ops_b, param, weight),
                                da * db):
        cols: Columns = [[] for _ in range(da)]
        for p, v in sol:
            r, c = divmod(p, da)
            cols[c].append((r, v))
        out.append(cols)
    return out


# ---------------------------------------------------------------------------
# splitting engine
# ---------------------------------------------------------------------------

RANDOM_TRIES = 24     # seeded random commutant combinations tried per piece


def minimal_invariant_pieces(ops: List[Columns], norms: Vec, start: Subspace,
                             extra_ops: Sequence[Columns] = (),
                             seed: int = 0
                             ) -> List[Tuple[Subspace, List[Columns]]]:
    """Split an invariant subspace into minimal invariant pieces, exactly,
    each returned with the ops restricted to it.

    `extra_ops` are ambient symmetric equivariant operators tried first as
    splitters (restricted wherever they preserve the piece).
    """
    rng = random.Random(f"pieces:{seed}")
    done: List[Tuple[Subspace, List[Columns]]] = []
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
            done.append((piece, ops_p))
            continue
        # candidates are built only until one splits the piece; the random
        # coefficients are drawn up front so every piece sees the same stream
        draws = [[rng.randint(-9, 9) for _ in csym]
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
                    [linalg.sparse_mat_vec(piece.sparse_basis, v)
                     for v in part], norms))
            break
        else:
            raise DecompositionError(
                "reducible piece admits no rationally split commutant element; "
                f"symmetric commutant dimension {len(csym)}")
    done.sort(key=lambda done_p: subspace_leading_index(done_p[0]))
    return done


# ---------------------------------------------------------------------------
# isotypical decomposition
# ---------------------------------------------------------------------------

@dataclass
class Submodule:
    space: Subspace
    trivial: bool
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


@dataclass(eq=False)
class IsotypicalDecomposition:
    action: IsotropyAction
    summands: List[IsotypicalSummand]
    s0: IsotypicalSummand
    seed: int

    @property
    def dim(self) -> int:
        return self.action.dim

    def nontrivial_summands(self) -> List[IsotypicalSummand]:
        return [s for s in self.summands if s is not self.s0]

    @cached_property
    def ideals(self) -> IdealSplit:
        """S0 = center (+) simple ideals, computed once per decomposition;
        its subspaces are shared by every caller and never mutated."""
        return split_ideals(self.action.split, self.s0.space)

    @cached_property
    def probes(self) -> Tuple[Tuple[int, ...], ...]:
        """The m-support of each basis probe, 1 on it: (i,) for every basis
        vector, then the pairs (i, j), i < j, cross-summand pairs first."""
        # the summand holding each basis vector (one leaving no residual)
        block = [next((s.class_id for s in self.summands if not linalg.orthogonal_projection(
            s.space, self.action.norms, [(i, ONE)])[1]), None) for i in range(self.dim)]
        return tuple([(i,) for i in range(self.dim)] + sorted(
            itertools.combinations(range(self.dim), 2),
            key=lambda ij: (block[ij[0]] == block[ij[1]], ij)))

    @cached_property
    def schur_bases(self) -> Tuple[List[List[Tuple[int, int]]], ...]:
        """Integer bases of S0 and, per nontrivial summand S of r members of
        type D, of W = End_H(S) v, v the first basis vector of member 0: the
        Hom(0, b) v, b >= 1, and Hom(1, 0) phi v = End_H(member 0) v, phi the
        first of Hom(0, 1), r dim D vectors (v alone when r = 1).  A
        symmetric A in End_H(S) is a D-Hermitian r x r matrix, which W
        holds once, so G A is PD on S iff on W (Schur)."""
        blocks = [self.s0.space.sparse_basis]
        for s in self.nontrivial_summands():
            homs, v = s.intertwiner_bases, [(0, ONE)]
            local = [[linalg.sparse_mat_vec(phi, v) for phi in homs[0, b]]
                     for b in range(1, len(s.members))]
            local.insert(0, [linalg.sparse_mat_vec(psi, local[0][0])
                             for psi in homs[1, 0]] if local else [v])
            blocks.append([linalg.sparse_mat_vec(m.space.sparse_basis, u)
                           for m, us in zip(s.members, local) for u in us])
        return tuple([linalg.cleared(w)[1] for w in b] for b in blocks)


def joint_kernel(ops: List[Columns], norms: Vec, dim: int) -> Subspace:
    rows = [row for op in ops for row in linalg.column_rows(op, dim)]
    return make_subspace(linalg.nullspace(rows, dim), norms)


def _complement(sub: Subspace, norms: Vec) -> Subspace:
    """The B-orthogonal complement of a subspace, for the ambient norm
    vector."""
    rows = [{i: c * norms[i] for i, c in b} for b in sub.sparse_basis]
    return make_subspace(linalg.nullspace(rows, len(norms)), norms)


def _ad_columns(split: ReductiveSplit, z: linalg.Sparse) -> Columns:
    """ad(z)|_m as sparse columns [z, m_b], z in m cleared once."""
    table = split.bracket_table
    dz, zs = linalg.cleared(z)
    parts = [table.contract(zs, [(b, 1)]) for b in range(split.dim_m)]
    if any(any(acc_h.values()) for _, acc_h in parts):
        raise ValueError("vector is not in m")
    return [linalg.over(acc_m, table.denominator * dz) for acc_m, _ in parts]


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
        cols = _ad_columns(action.split, s0.sparse_basis[i])
        return [linalg.sparse_mat_vec(cols, [(k, -c) for k, c in col])
                for col in cols]

    return _Lazy(build, s0.dim)


def _adjoint(phi: Columns, norms_a: Vec, norms_b: Vec) -> Columns:
    """The B-adjoint N_a^-1 phi^T N_b: b -> a of phi: a -> b, N_a and N_b
    the basis norms; it intertwines if phi does, the action being B-skew."""
    return [[(j, c * nb / norms_a[j]) for j, c in row.items()]
            for nb, row in zip(norms_b, linalg.column_rows(phi, len(norms_b)))]


def decompose_isotypic(action: IsotropyAction,
                       seed: int = 0) -> IsotypicalDecomposition:
    """Split m into S0 and isotypical summands of equivalent submodules."""
    dim = action.dim
    norms = action.norms
    gens = action.generator_ops
    s0_space = joint_kernel(gens, norms, dim)

    members_s0 = [Submodule(space=make_subspace([b], norms), trivial=True,
                            commutant_dim=1)
                  for b in s0_space.sparse_basis]
    s0_summand = IsotypicalSummand(class_id=0, members=members_s0, space=s0_space)
    for (i, j) in itertools.combinations(range(len(members_s0)), 2):
        # trivial modules: every linear map intertwines
        s0_summand.intertwiner_bases[(i, j)] = [[[(0, ONE)]]]
        s0_summand.intertwiner_bases[(j, i)] = [[[(0, ONE)]]]

    if s0_space.dim == dim:
        rest_pieces: List[Tuple[Subspace, List[Columns]]] = []
    else:
        extra = squared_ad_candidates(action, s0_space)
        rest_pieces = minimal_invariant_pieces(
            gens, norms, _complement(s0_space, norms),
            extra_ops=extra, seed=seed)

    # each piece comes with the action restricted to it, and its symmetric
    # commutant certified one-dimensional
    modules: List[Submodule] = []
    module_ops: List[List[Columns]] = []
    for piece, ops_p in rest_pieces:
        cf = _equivariant_maps(ops_p, ops_p, piece.dim, piece.dim)
        if len(cf) not in (1, 2, 4):
            raise DecompositionError(
                f"commutant dimension {len(cf)} is not a division algebra")
        modules.append(Submodule(space=piece, trivial=False,
                                 commutant_dim=len(cf)))
        module_ops.append(ops_p)

    def maps(a: int, b: int) -> List[Columns]:
        return _equivariant_maps(module_ops[a], module_ops[b], modules[a].dim,
                                 modules[b].dim)

    # equivalence classes through nonzero intertwiner spaces
    classes: List[List[int]] = []
    inter_cache: Dict[Tuple[int, int], List[Columns]] = {}
    for i, mod in enumerate(modules):
        for cls in classes:
            rep = cls[0]
            if modules[rep].dim != mod.dim:
                continue
            phis = maps(rep, i)
            if phis:
                for phi in phis:
                    if linalg.rank(linalg.column_rows(phi, mod.dim)) != mod.dim:
                        raise DecompositionError(
                            "nonzero intertwiner between irreducibles is singular")
                inter_cache[(rep, i)] = phis
                cls.append(i)
                break
        else:
            classes.append([i])

    summands = [s0_summand]
    for cls in classes:
        space = make_subspace([v for idx in cls
                               for v in modules[idx].space.sparse_basis], norms)
        summand = IsotypicalSummand(class_id=0, members=[modules[idx] for idx in cls],
                                    space=space)
        # Hom(b, a) is the B-adjoint of Hom(a, b), so only a < b is solved
        for (a, b) in itertools.combinations(range(len(cls)), 2):
            phis = inter_cache.get((cls[a], cls[b])) or maps(cls[a], cls[b])
            summand.intertwiner_bases[(a, b)] = phis
            summand.intertwiner_bases[(b, a)] = [
                _adjoint(phi, modules[cls[a]].space.norms,
                         modules[cls[b]].space.norms) for phi in phis]
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
    generator_ops: List[Columns]    # ad(z)|_m for z over generators of S0


def split_ideals(split: ReductiveSplit, s0: Subspace) -> IdealSplit:
    """S0 = center (+) simple ideals, B-orthogonally.

    `IsotypicalDecomposition.ideals` calls this once per decomposition.
    Only the generators of S0 (`lie_generators`) get an ad: the center is
    their joint kernel, and the ideals are the minimal pieces they leave on
    its complement.  No seed is needed: S0 lies in a compact algebra, so
    the symmetric commutant of its adjoint action on the semisimple part
    is spanned by the ideal projectors.  Each commutant basis element is a
    rational combination of them, with rational eigenvalues, and a
    reducible piece has a basis element that is not scalar; it splits the
    piece before any seeded random combination would be tried.
    """
    norms = split.norms_m
    gens = lie_generators(s0.sparse_basis, split.bracket_table.bracket_in_m)
    generator_ops = [_ad_columns(split, s0.sparse_basis[i]) for i in gens]
    # S0 coordinates: the S0 basis is B-orthogonal with norms s0.norms, so
    # the map to m is an isometry and keeps the local bases orthogonal
    ops = [restrict_op(op, s0, norms) for op in generator_ops]
    if any(op is None for op in ops):
        raise ArithmeticError("S0 is not closed under the bracket")
    center_local = joint_kernel(ops, s0.norms, s0.dim)

    def to_ambient(vecs: List[linalg.Sparse]) -> List[linalg.Sparse]:
        return [linalg.sparse_mat_vec(s0.sparse_basis, v) for v in vecs]

    center = make_subspace(to_ambient(center_local.sparse_basis), norms)
    if center.dim == s0.dim:
        return IdealSplit(center=center, simples=[],
                          generator_ops=generator_ops)

    # pieces of the adjoint action of S0 on its semisimple part
    pieces = minimal_invariant_pieces(ops, s0.norms,
                                      _complement(center_local, s0.norms))
    simples = []
    for piece, _ in pieces:
        amb = make_subspace(to_ambient(piece.sparse_basis), norms)
        # simple ideals are non-abelian
        vecs = amb.sparse_basis
        nonabelian = any(
            part for i, x in enumerate(vecs) for y in vecs[i + 1:]
            for part in split.bracket_table.bracket(x, y))
        if not nonabelian:
            raise DecompositionError("minimal ideal of the semisimple part is abelian")
        simples.append(amb)
    return IdealSplit(center=center, simples=simples,
                      generator_ops=generator_ops)
