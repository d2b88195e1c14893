"""Invariant metrics as equivariant endomorphisms of m.

A metric endomorphism is B-symmetric, equivariant under the isotropy
action, and positive definite; it is kept as sparse columns over the m
basis (`linalg.Columns`), like every operator on m, and that is all a
`MetricEndomorphism` holds: its commutant coordinates and its definiteness
are read off the columns on first use.  The complete cone of
candidates is the decomposition's block form (a symmetric operator on S0,
a scalar per member, intertwiner off-blocks), and the symmetric commutant
basis that metric parameters refer to is derived from it by one exact
elimination (`sym_commutant_basis`).  Families of metrics -- scalar
classes on subspaces, a free symmetric operator on the trivial-summand
center, off-diagonal intertwiner coordinates -- are values of frozen
blocks, whose parameters and operators are derived on first use and
kept: the reduction rules build a new, reduced family, and the parameter
scans read it.
"""

from __future__ import annotations

import collections
import itertools
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import (Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from . import isotropy, linalg
from .isotropy import IsotypicalDecomposition, Subspace
from .linalg import Columns, Mat, Vec, ZERO, ONE


class NotEquivariantError(ValueError):
    """Matrix is not in the span of the symmetric commutant."""


@dataclass
class MetricEndomorphism:
    """A as sparse columns over the m basis.  Its commutant coordinates
    (`params`), its definiteness (`is_pd`) and its integer form
    (`integer_columns`) are read off the columns on first use and kept."""

    decomp: IsotypicalDecomposition
    columns: Columns

    @property
    def dim(self) -> int:
        return len(self.columns)

    @cached_property
    def params(self) -> Vec:
        """The coordinates of A over `sym_commutant_basis`.

        Each basis operator S_q is 1 at its free position, its last nonzero
        upper entry (i, j), i <= j, in row-major order, where every other
        basis operator is 0 (see `sym_commutant_basis`).  So params_q =
        A[free_q], and the sum of params_q S_q is rebuilt and compared with
        A exactly: NotEquivariantError when they differ.
        """
        basis = sym_commutant_basis(self.decomp)
        entries = [dict(col) for col in self.columns]
        free = (max((i, j) for j, col in enumerate(s) for i, _ in col if i <= j)
                for s in basis)
        params = [Fraction(entries[j].get(i, 0)) for i, j in free]
        if linalg.combine_columns(params, basis, self.dim) != self.columns:
            raise NotEquivariantError(
                "matrix is not a symmetric equivariant endomorphism")
        return params

    @cached_property
    def is_pd(self) -> bool:
        """Whether G A is symmetric and positive definite, G the diagonal
        m-basis Gram `decomp.action.norms`, proved as a draw is: A is a
        one-operator family at value 1 (`FamilyOperators.block_form`)."""
        try:
            return linalg.sym_positive_definite(FamilyOperators(
                self.decomp, [self.columns]).block_form([(1, 1)]))
        except NotEquivariantError:
            return False

    @cached_property
    def integer_columns(self) -> Tuple[int, List[List[Tuple[int, int]]]]:
        """(D, D A's sparse columns as integers), D the lcm of A's
        denominators; built on first use and kept."""
        den, (cols,) = linalg.cleared_columns([self.columns])
        return den, cols


def from_parameters(decomp: IsotypicalDecomposition,
                    params: Sequence) -> MetricEndomorphism:
    """A = sum params_j * S_j over the symmetric commutant basis.

    Parameters are converted to Fractions first (a float converts to its
    exact binary value), so the matrix is always rational.
    """
    basis = sym_commutant_basis(decomp)
    if len(params) != len(basis):
        raise ValueError(
            f"expected {len(basis)} parameters, got {len(params)}")
    return MetricEndomorphism(decomp, linalg.combine_columns(
        [Fraction(p) for p in params], basis, decomp.dim))


def from_matrix(decomp: IsotypicalDecomposition,
                matrix: Mat) -> MetricEndomorphism:
    """Wrap an explicit dense matrix (row lists), entries converted to
    Fractions; its commutant coordinates are read at once, so a matrix
    outside the symmetric commutant raises NotEquivariantError here."""
    d = decomp.dim
    if len(matrix) != d or any(len(row) != d for row in matrix):
        raise NotEquivariantError(f"expected a {d} x {d} matrix")
    a = MetricEndomorphism(decomp, [linalg.sparse([Fraction(c) for c in col])
                                    for col in zip(*matrix)])
    a.params
    return a


# ---------------------------------------------------------------------------
# normalizer equivariance (necessary condition for the GO property)
# ---------------------------------------------------------------------------

def normalizer_ops(decomp: IsotypicalDecomposition) -> List[Columns]:
    """ad(Z)|_m for Z over generators of h (+) S0, the normalizer algebra:
    h's generators, then S0's (`IdealSplit.generator_ops`, which include
    whatever the center needs), which generate it as [h, S0] = 0.  An
    operator commutes with ad(Z) for every Z in h (+) S0, and a subspace
    is invariant under all of them, iff that holds for these."""
    return decomp.action.generator_ops + decomp.ideals.generator_ops


def _commutes(s: Columns, ops: List[Tuple[Columns, List[dict]]]) -> bool:
    """Whether S op = op S for each (op, op's rows): the entries of
    S op - op S, summed entry by entry of S, all vanish."""
    for op, rows in ops:
        acc: Dict[Tuple[int, int], object] = collections.defaultdict(int)
        for j, col in enumerate(s):
            for i, x in col:
                for k, v in rows[j].items():
                    acc[i, k] += x * v
                for k, v in op[i]:
                    acc[k, j] -= v * x
        if any(acc.values()):
            return False
    return True


def check_normalizer_equivariance(a: MetricEndomorphism,
                                  ops: Optional[List[Columns]] = None) -> bool:
    """True iff A commutes with the normalizer action on m."""
    if ops is None:
        ops = normalizer_ops(a.decomp)
    return _commutes(a.columns,
                     [(op, linalg.column_rows(op, a.dim)) for op in ops])


# ---------------------------------------------------------------------------
# families of candidate metrics
# ---------------------------------------------------------------------------

class Parameter(NamedTuple):
    """One free parameter of a family (`MetricFamily.parameters`)."""
    label: str
    on_diagonal: bool                  # whether it scales a diagonal unit


@dataclass(frozen=True)
class ScalarBlock:
    space: Subspace
    class_id: int
    label: str


@dataclass(frozen=True)
class OperatorBlock:
    space: Subspace
    label: str


@dataclass(frozen=True)
class IntertwinerBlock:
    summand_index: int
    member_a: int
    member_b: int
    phis: Tuple[Columns, ...]
    label: str

    @property
    def n_params(self) -> int:
        return len(self.phis)


@dataclass(frozen=True, eq=False)
class MetricFamily:
    """Linear family of candidate metrics, a value: scalar blocks of one
    `class_id` share a parameter.  A changed family is a new one
    (`dataclasses.replace`), so `parameters` and `operators` are derived
    once and kept.  Positivity of the scalars / operator blocks bounds the
    parameter cone; instantiation reports definiteness rather than
    enforcing it.
    """

    decomp: IsotypicalDecomposition
    scalar_blocks: Tuple[ScalarBlock, ...] = ()
    operator_blocks: Tuple[OperatorBlock, ...] = ()
    intertwiner_blocks: Tuple[IntertwinerBlock, ...] = ()

    def _layout(self) -> Iterator[Tuple[str, bool, Callable[[], dict]]]:
        """(label, on_diagonal, builder of its operator as an accumulator)
        per free parameter, in order: one scalar per class, which scales
        the projector onto its subspaces; then per operator block its
        symmetric units (i, j), i <= j, row by row (`_units`), of which
        (i, i) scales a diagonal unit; then each intertwiner coordinate."""
        norms = self.decomp.action.norms
        for c in self.classes():
            members = [b for b in self.scalar_blocks if b.class_id == c]
            yield ("scalar[" + "+".join(b.label for b in members) + "]", True,
                   partial(_units, [(b.space, i, i) for b in members
                                    for i in range(b.space.dim)], norms))
        for b in self.operator_blocks:
            for i, j in itertools.combinations_with_replacement(
                    range(b.space.dim), 2):
                yield (f"op[{b.label}]({i},{j})", i == j,
                       partial(_units, [(b.space, i, j)], norms))
        for b in self.intertwiner_blocks:
            for q, phi in enumerate(b.phis):
                yield (f"mix[{b.label}]#{q}", False,
                       partial(_intertwiner_pair_op, self.decomp, b, phi))

    @cached_property
    def parameters(self) -> Tuple[Parameter, ...]:
        """The free parameters in order, which every reader of the layout
        reads."""
        return tuple(Parameter(label, diag)
                     for label, diag, _ in self._layout())

    @cached_property
    def operators(self) -> "FamilyOperators":
        """The family's operators, built on first use."""
        return FamilyOperators(self.decomp, family_basis_ops(self))

    def classes(self) -> List[int]:
        return sorted({b.class_id for b in self.scalar_blocks})

    @property
    def n_params(self) -> int:
        return len(self.parameters)

    def on_diagonal(self) -> List[bool]:
        return [p.on_diagonal for p in self.parameters]

    def param_labels(self) -> List[str]:
        return [p.label for p in self.parameters]

    def describe(self) -> dict:
        return {
            "n_params": self.n_params,
            "scalar_classes": [
                {"class": c,
                 "subspaces": [b.label for b in self.scalar_blocks
                               if b.class_id == c],
                 "dim": sum(b.space.dim for b in self.scalar_blocks
                            if b.class_id == c)}
                for c in self.classes()],
            "operator_blocks": [{"label": b.label, "dim": b.space.dim}
                                for b in self.operator_blocks],
            "intertwiner_blocks": [{"label": b.label, "params": b.n_params}
                                   for b in self.intertwiner_blocks],
        }


# Family operators are `Columns`; while a family is built, they are
# {col: {row: value}} accumulators that hold only the columns written to.

def _finish(op: Dict[int, dict], dim: int) -> Columns:
    empty: linalg.Sparse = []           # one list for every zero column
    return [linalg.sparse_from(op[c]) if c in op else empty for c in range(dim)]


def add_outer(op: Dict[int, dict], u: linalg.Sparse, v: linalg.Sparse,
              norms: Vec, f) -> None:
    """op += f u (x) G v for sparse u, v and G = diag(norms): the map
    X -> f <v, X> u, added into column c as f v_c norms_c u."""
    for c, vc in v:
        w = f * vc * norms[c]
        col = op[c]
        for r, ur in u:
            col[r] = col.get(r, ZERO) + w * ur


def _units(units: Sequence[Tuple[Subspace, int, int]], norms: Vec
           ) -> Dict[int, dict]:
    """The sum of the symmetric units (i, j), i <= j, on subspaces with
    bases b and norms nu: b_i (x) Gb_i / nu_i, so the diagonal units of
    orthogonal subspaces sum to the projector onto them, and for i < j
    b_i (x) Gb_j + b_j (x) Gb_i, one common coefficient keeping it
    B-symmetric when the basis norms differ."""
    op = collections.defaultdict(dict)
    for space, i, j in units:
        b = space.sparse_basis
        add_outer(op, b[i], b[j], norms, ONE / space.norms[i] if i == j else ONE)
        if i != j:
            add_outer(op, b[j], b[i], norms, ONE)
    return op


def _intertwiner_pair_op(decomp: IsotypicalDecomposition,
                         blk: IntertwinerBlock, phi: Columns
                         ) -> Dict[int, dict]:
    """phi: member_a -> member_b embedded in m plus its B-adjoint.

    An entry phi[i][j] maps the coordinate <a_j, X> / nu_a_j onto b_i: it
    adds f b_i (x) G a_j, f = phi[i][j] / nu_a_j.  The adjoint's entry
    phi*[j][i] = phi[i][j] nu_b_i / nu_a_j maps <b_i, X> / nu_b_i onto
    a_j: it adds f a_j (x) G b_i with the same f."""
    summand = decomp.summands[blk.summand_index]
    sub_a = summand.members[blk.member_a].space
    sub_b = summand.members[blk.member_b].space
    norms = decomp.action.norms
    op = collections.defaultdict(dict)
    for a, na, col in zip(sub_a.sparse_basis, sub_a.norms, phi):
        for i, c in col:
            b = sub_b.sparse_basis[i]
            add_outer(op, b, a, norms, c / na)
            add_outer(op, a, b, norms, c / na)
    return op


def family_basis_ops(family: MetricFamily) -> List[Columns]:
    """The operator multiplying each free parameter, in parameter order,
    as sparse columns."""
    return [_finish(build(), family.decomp.dim)
            for _, _, build in family._layout()]


class FamilyOperators:
    """A family's operators in parameter order and what is read off them
    alone: sparse `columns`, `integer` (`linalg.cleared_columns`), `touching`
    (coordinate i -> the params whose operator has a nonzero column i), the
    forms draws and `MetricEndomorphism.is_pd` are proved on (`block_forms`,
    `block_form`) and `probes`, the scans' tensors by `decomp.probes` index."""

    def __init__(self, decomp: IsotypicalDecomposition,
                 columns: List[Columns]):
        self.decomp, self.columns = decomp, columns
        self.integer = linalg.cleared_columns(columns)
        self.touching = [[c for c, cols in enumerate(self.integer[1])
                          if cols[i]] for i in range(decomp.dim)]
        self.probes: Dict[int, object] = {}     # built as scans reach them

    @cached_property
    def block_forms(self) -> Tuple[int, List[list]]:
        """(K, per parameter the entries (a, b, v) of B^T N Op_c B), N the
        integer m-norms and B the K vectors of `decomp.schur_bases`, built
        on the family's first draw.  Where they do not span m, they hold for
        operators that commute with h (in End_H(S) on each summand S), and a
        family with one that does not gets m's unit vectors.  W can miss a
        skew part: NotEquivariantError when an N Op_c is not symmetric on m."""
        dim, action, (_, ops) = self.decomp.dim, self.decomp.action, self.integer
        norms = action.integer_norms[1]
        nop = {(c, i, j): norms[i] * y for j, cs in enumerate(self.touching)
               for c in cs for i, y in ops[c][j]}
        if any(nop.get((c, j, i), 0) != v for (c, i, j), v in nop.items()):
            raise NotEquivariantError("a family operator is not symmetric")
        vecs = [w for block in self.decomp.schur_bases for w in block]
        if len(vecs) < dim:
            ad = [(g, linalg.column_rows(g, dim))
                  for g in linalg.cleared_columns(action.generator_ops)[1]]
            if not all(_commutes(op, ad) for op in ops):
                vecs = [[(i, 1)] for i in range(dim)]
        dual = collections.defaultdict(list)    # i -> (a, N_i w_a[i])
        for a, w in enumerate(vecs):
            for i, x in w:
                dual[i].append((a, norms[i] * x))
        forms: List[dict] = [collections.defaultdict(int) for _ in ops]
        for b, w in enumerate(vecs):
            for j, x in w:
                for c in self.touching[j]:
                    for i, y in ops[c][j]:
                        for a, z in dual[i]:
                            forms[c][a, b] += z * y * x
        return len(vecs), [[(a, b, v) for (a, b), v in f.items() if v]
                           for f in forms]

    def block_form(self, pairs: Sequence[Tuple[int, int]]) -> List[dict]:
        """sum_c v_c B^T N Op_c B (`block_forms`) at the values v_c = n / d
        given as integer pairs, zeros (0, 1) skipped, times the lcm L of the
        d, as rows {col: value}: positive definite iff G sum_c v_c Op_c is."""
        size, forms = self.block_forms
        nonzero = [(pair, form) for pair, form in zip(pairs, forms) if pair[0]]
        lv = math.lcm(*{den for (_, den), _ in nonzero})
        rows: List[dict] = [{} for _ in range(size)]
        for (num, den), param in nonzero:
            w = num * (lv // den)
            for r, j, c in param:
                rows[r][j] = rows[r].get(j, 0) + w * c
        return rows


def instantiate(family: MetricFamily, values: Sequence) -> MetricEndomorphism:
    """The family's metric at the values (converted to Fractions): sum_c
    values_c Op_c, with its commutant coordinates read at once, so a family
    outside the symmetric commutant raises NotEquivariantError here."""
    ops = family.operators.columns
    if len(values) != len(ops):
        raise ValueError(f"expected {len(ops)} parameter values, got {len(values)}")
    a = MetricEndomorphism(family.decomp, linalg.combine_columns(
        [Fraction(v) for v in values], ops, family.decomp.dim))
    a.params
    return a


def full_family(decomp: IsotypicalDecomposition) -> MetricFamily:
    """The unreduced candidate cone in per-summand block form: its
    operators span the symmetric commutant (see `sym_commutant_basis`)."""
    others = [(si, s) for si, s in enumerate(decomp.summands)
              if s is not decomp.s0]
    members = [(s, mi, m) for _, s in others for mi, m in enumerate(s.members)]
    return MetricFamily(
        decomp,
        scalar_blocks=tuple(
            ScalarBlock(m.space, c, f"S{s.class_id}.m{mi + 1}")
            for c, (s, mi, m) in enumerate(members)),
        operator_blocks=(OperatorBlock(decomp.s0.space, "S0"),),
        intertwiner_blocks=tuple(
            IntertwinerBlock(si, a, b, tuple(s.intertwiner_bases[a, b]),
                             f"S{s.class_id}.m{a + 1}~m{b + 1}")
            for si, s in others
            for a, b in itertools.combinations(range(len(s.members)), 2)
            if s.intertwiner_bases.get((a, b))))


# ---------------------------------------------------------------------------
# the symmetric commutant, read off the block form
# ---------------------------------------------------------------------------

_COMMUTANTS = weakref.WeakKeyDictionary()    # decomposition -> its basis


def sym_commutant_basis(decomp: IsotypicalDecomposition) -> List[Columns]:
    """The span of `full_family`'s block operators in reduced form, built on
    first use and kept as long as the decomposition is.

    By Schur's lemma (Broecker and tom Dieck, GTM 98, II.6) the span is the
    whole symmetric commutant.  The action is B-skew, so projectors onto
    invariant subspaces are equivariant and a symmetric equivariant S has a
    block in Hom(a, b) between members a and b: zero between S0 (the exact
    joint kernel) and a nontrivial member, and between classes (the class
    search found every Hom between them zero); any symmetric operator on
    S0; a scalar on a member (certified to have a one-dimensional symmetric
    commutant); and for a < b in one class, in the span of the exact
    nullspace basis of Hom(a, b), with its B-adjoint below.  The block
    operators are checked to be independent, and the basis to commute with
    the action, read off generators of h (`IsotropyAction.generator_ops`).

    `commutant_sym_ops` on all of m solves to vectors that are 1 at their
    free parameter, 0 at every other and have no entry beyond it: the
    reduced echelon form, unique for the span, with the upper entries
    S[i][j], i <= j, indexed from the last.  One `pivot_rows` in that order,
    rows divided by their pivots and listed by increasing free parameter,
    gives the same basis.
    """
    if decomp in _COMMUTANTS:
        return _COMMUTANTS[decomp]
    d, action = decomp.dim, decomp.action
    ops = [build() for _, _, build in full_family(decomp)._layout()]
    upper = [(i, j) for i in range(d) for j in range(i, d)][::-1]
    index = {e: q for q, e in enumerate(upper)}
    pivots = linalg.pivot_rows(
        {index[(i, j)]: c for j, col in op.items() for i, c in col.items()
         if i <= j} for op in ops)
    if len(pivots) != len(ops):
        raise ArithmeticError(f"the {len(ops)} block operators have rank "
                              f"{len(pivots)}")
    basis = [isotropy.sym_operator(
        [(*upper[k], Fraction(v, row[q])) for k, v in sorted(row.items(),
                                                             reverse=True)],
        action.norms) for q, row in sorted(pivots.items(), reverse=True)]
    ad = [(op, linalg.column_rows(op, d)) for op in action.generator_ops]
    if not all(_commutes(s, ad) for s in basis):
        raise ArithmeticError(
            "an assembled operator does not commute with the action")
    _COMMUTANTS[decomp] = basis
    return basis


# ---------------------------------------------------------------------------
# serialization and the block view
# ---------------------------------------------------------------------------

def block_view(a: MetricEndomorphism) -> List[dict]:
    """Per-summand restriction of A: scalar where scalar, else the matrix
    as row lists of strings."""
    out = []
    for summand in a.decomp.summands:
        r = isotropy.restrict_op(a.columns, summand.space, a.decomp.action.norms)
        if r is None:
            raise ArithmeticError("metric does not preserve a summand")
        d = summand.dim
        lam = dict(r[0]).get(0, ZERO)
        entry = {"summand": summand.class_id, "dim": d}
        if all(col == ([(j, lam)] if lam else []) for j, col in enumerate(r)):
            entry["scalar"] = linalg.frac_to_str(lam)
        else:
            rows = linalg.column_rows(r, d)
            entry["matrix"] = [[linalg.frac_to_str(row.get(j, ZERO))
                                for j in range(d)] for row in rows]
        out.append(entry)
    return out


def metric_from_json_dict(decomp: IsotypicalDecomposition,
                          data: dict) -> MetricEndomorphism:
    params = [linalg.frac_from_str(p) if isinstance(p, str) else p
              for p in data["params"]]
    return from_parameters(decomp, params)
