"""Invariant metrics as equivariant endomorphisms of m.

A metric endomorphism is B-symmetric, equivariant under the isotropy
action, and positive definite; it is kept as sparse columns over the m
basis (`linalg.Columns`), like every operator on m.  The complete cone of
candidates is
parameterized over the computed symmetric commutant basis; the per-summand
block form (scalars on members plus intertwiner off-blocks) is recovered as
a view.  Families of metrics -- scalar classes on subspaces, a free
symmetric operator on the trivial-summand center, off-diagonal intertwiner
coordinates -- support the reduction rules and the parameter scans.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import isotropy, linalg
from .isotropy import IsotypicalDecomposition, Subspace
from .linalg import Columns, Mat, Vec, ZERO, ONE


class NotEquivariantError(ValueError):
    """Matrix is not in the span of the symmetric commutant."""


@dataclass
class MetricEndomorphism:
    """A as sparse columns over the m basis, with its commutant
    coordinates (None for a scan point, which skips the read-back)."""

    decomp: IsotypicalDecomposition
    columns: Columns
    params: Optional[Vec]
    is_pd: bool

    @property
    def dim(self) -> int:
        return len(self.columns)

    @cached_property
    def integer_columns(self) -> Tuple[int, List[List[Tuple[int, int]]]]:
        """(D, D A's sparse columns as integers), D the lcm of A's
        denominators; built on first use and kept."""
        den, (cols,) = linalg.cleared_columns([self.columns])
        return den, cols


def _pd_check(ga: List[dict]) -> bool:
    """Whether G A, sparse {col: value} rows, is symmetric and PD."""
    return (all(ga[j].get(i, 0) == v for i, row in enumerate(ga)
                for j, v in row.items())
            and linalg.sym_positive_definite(ga))


def form_rows(columns: Columns, norms: Sequence) -> List[dict]:
    """G A as sparse rows, from A's sparse columns: the m-basis Gram G is
    the diagonal `norms`."""
    return [{j: nu * c for j, c in row.items()}
            for nu, row in zip(norms, linalg.column_rows(columns, len(norms)))]


def from_parameters(decomp: IsotypicalDecomposition,
                    params: Sequence) -> MetricEndomorphism:
    """A = sum params_j * S_j over the symmetric commutant basis.

    Parameters are converted to Fractions first (a float converts to its
    exact binary value), so the matrix is always rational.
    """
    basis = decomp.sym_commutant_basis()
    if len(params) != len(basis):
        raise ValueError(
            f"expected {len(basis)} parameters, got {len(params)}")
    params = [Fraction(p) for p in params]
    return _metric(decomp, params)


def _metric(decomp: IsotypicalDecomposition,
            params: Vec) -> MetricEndomorphism:
    """A = sum_q params_q S_q over the symmetric commutant basis."""
    columns = linalg.combine_columns(params, decomp.sym_commutant_basis(),
                                     decomp.dim)
    return MetricEndomorphism(
        decomp=decomp, columns=columns, params=params,
        is_pd=_pd_check(form_rows(columns, decomp.action.norms)))


def _from_columns(decomp: IsotypicalDecomposition,
                  columns: Columns) -> MetricEndomorphism:
    """Wrap A's sparse columns, reading off its commutant coordinates.

    Each basis operator S_q is 1 at its free position, where every other
    basis operator is 0, so params_q = A[free_q]; the sum of params_q S_q
    is rebuilt and compared with A exactly.
    """
    entries = [dict(col) for col in columns]
    a = _metric(decomp, [Fraction(entries[j].get(i, 0))
                         for i, j in decomp.sym_commutant_free])
    if a.columns != columns:
        raise NotEquivariantError(
            "matrix is not a symmetric equivariant endomorphism")
    return a


def from_matrix(decomp: IsotypicalDecomposition,
                matrix: Mat) -> MetricEndomorphism:
    """Wrap an explicit dense matrix (row lists), reading off its
    commutant coordinates (see `_from_columns`)."""
    d = decomp.dim
    if len(matrix) != d or any(len(row) != d for row in matrix):
        raise NotEquivariantError(f"expected a {d} x {d} matrix")
    return _from_columns(decomp, [linalg.sparse(col) for col in zip(*matrix)])


# ---------------------------------------------------------------------------
# normalizer equivariance (necessary condition for the GO property)
# ---------------------------------------------------------------------------

def normalizer_ops(decomp: IsotypicalDecomposition) -> List[Columns]:
    """ad(Z)|_m for Z over a basis of h (+) S0, the normalizer algebra."""
    action = decomp.action
    return list(action.ad_ops) + [isotropy._ad_columns(action.split, z_m)
                                  for z_m in decomp.s0.space.basis]


def check_normalizer_equivariance(a: MetricEndomorphism,
                                  ops: Optional[List[Columns]] = None) -> bool:
    """True iff A commutes with the normalizer action on m: A op and op A
    agree column by column."""
    if ops is None:
        ops = normalizer_ops(a.decomp)
    return all(linalg.sparse_mat_vec(a.columns, op_col)
               == linalg.sparse_mat_vec(op, a_col)
               for op in ops for op_col, a_col in zip(op, a.columns))


# ---------------------------------------------------------------------------
# families of candidate metrics
# ---------------------------------------------------------------------------

@dataclass
class ScalarBlock:
    space: Subspace
    class_id: int
    label: str


@dataclass
class OperatorBlock:
    space: Subspace
    label: str

    @property
    def n_params(self) -> int:
        d = self.space.dim
        return d * (d + 1) // 2


@dataclass
class IntertwinerBlock:
    summand_index: int
    member_a: int
    member_b: int
    phis: List[Columns]
    label: str

    @property
    def n_params(self) -> int:
        return len(self.phis)


@dataclass
class MetricFamily:
    """Linear family of candidate metrics with merged scalar classes.

    Free parameters, in order: one scalar per merged class, then the
    symmetric-operator coordinates of each operator block, then the
    intertwiner coordinates.  Positivity of the scalars / operator blocks
    bounds the parameter cone; instantiation reports definiteness rather
    than enforcing it.
    """

    decomp: IsotypicalDecomposition
    scalar_blocks: List[ScalarBlock] = field(default_factory=list)
    operator_blocks: List[OperatorBlock] = field(default_factory=list)
    intertwiner_blocks: List[IntertwinerBlock] = field(default_factory=list)
    _parent: Dict[int, int] = field(default_factory=dict)

    def find(self, cid: int) -> int:
        while self._parent.get(cid, cid) != cid:
            cid = self._parent.get(cid, cid)
        return cid

    def merge(self, c1: int, c2: int) -> bool:
        r1, r2 = self.find(c1), self.find(c2)
        if r1 == r2:
            return False
        self._parent[max(r1, r2)] = min(r1, r2)
        return True

    def classes(self) -> List[int]:
        return sorted({self.find(b.class_id) for b in self.scalar_blocks})

    @property
    def n_params(self) -> int:
        return (len(self.classes())
                + sum(b.n_params for b in self.operator_blocks)
                + sum(b.n_params for b in self.intertwiner_blocks))

    def param_labels(self) -> List[str]:
        labels = []
        for c in self.classes():
            members = [b.label for b in self.scalar_blocks if self.find(b.class_id) == c]
            labels.append("scalar[" + "+".join(members) + "]")
        for b in self.operator_blocks:
            d = b.space.dim
            labels.extend(f"op[{b.label}]({i},{j})"
                          for i in range(d) for j in range(i, d))
        for b in self.intertwiner_blocks:
            labels.extend(f"mix[{b.label}]#{i}" for i in range(b.n_params))
        return labels

    def describe(self) -> dict:
        return {
            "n_params": self.n_params,
            "scalar_classes": [
                {"class": c,
                 "subspaces": [b.label for b in self.scalar_blocks
                               if self.find(b.class_id) == c],
                 "dim": sum(b.space.dim for b in self.scalar_blocks
                            if self.find(b.class_id) == c)}
                for c in self.classes()],
            "operator_blocks": [{"label": b.label, "dim": b.space.dim}
                                for b in self.operator_blocks],
            "intertwiner_blocks": [{"label": b.label, "params": b.n_params}
                                   for b in self.intertwiner_blocks],
        }


# Family operators are `Columns`; while a family is built, each column is
# a {row: value} dict.

def _finish(op: List[dict]) -> Columns:
    return [linalg.sparse_from(col) for col in op]


def add_outer(op: List[dict], u: linalg.Sparse, v: linalg.Sparse, norms: Vec,
              f) -> None:
    """op += f u (x) G v for sparse u, v and G = diag(norms): the map
    X -> f <v, X> u, added into column c as f v_c norms_c u."""
    for c, vc in v:
        w = f * vc * norms[c]
        col = op[c]
        for r, ur in u:
            col[r] = col.get(r, ZERO) + w * ur


def _add_projector(op: List[dict], space: Subspace, norms: Vec) -> None:
    """op += the B-orthogonal projector onto the subspace."""
    for b, nb in zip(space.sparse_basis, space.norms):
        add_outer(op, b, b, norms, ONE / nb)


def _line_projector(space: Subspace, norms: Vec, dim: int) -> List[Columns]:
    """Symmetric unit operators supported on the subspace.

    The off-diagonal unit b_i (x) Gb_j + b_j (x) Gb_i needs one common
    coefficient to stay B-symmetric when the basis norms differ.
    """
    units = []
    basis = space.sparse_basis
    for i, j in itertools.combinations_with_replacement(range(space.dim), 2):
        op: List[dict] = [{} for _ in range(dim)]
        scale = ONE / space.norms[i] if i == j else ONE
        add_outer(op, basis[i], basis[j], norms, scale)
        if i != j:
            add_outer(op, basis[j], basis[i], norms, scale)
        units.append(_finish(op))
    return units


def _intertwiner_pair_op(decomp: IsotypicalDecomposition,
                         blk: IntertwinerBlock, phi: Columns) -> Columns:
    """phi: member_a -> member_b embedded in m plus its B-adjoint.

    An entry phi[i][j] maps the coordinate <a_j, X> / nu_a_j onto b_i: it
    adds f b_i (x) G a_j, f = phi[i][j] / nu_a_j.  The adjoint's entry
    phi*[j][i] = phi[i][j] nu_b_i / nu_a_j maps <b_i, X> / nu_b_i onto
    a_j: it adds f a_j (x) G b_i with the same f."""
    summand = decomp.summands[blk.summand_index]
    sub_a = summand.members[blk.member_a].space
    sub_b = summand.members[blk.member_b].space
    norms = decomp.action.norms
    op: List[dict] = [{} for _ in range(decomp.dim)]
    for a, na, col in zip(sub_a.sparse_basis, sub_a.norms, phi):
        for i, c in col:
            b = sub_b.sparse_basis[i]
            add_outer(op, b, a, norms, c / na)
            add_outer(op, a, b, norms, c / na)
    return _finish(op)


def family_basis_ops(family: MetricFamily) -> List[Columns]:
    """The operator multiplying each free parameter, in parameter order,
    as sparse columns."""
    decomp = family.decomp
    norms = decomp.action.norms
    dim = decomp.dim
    ops: List[Columns] = []
    for c in family.classes():
        op: List[dict] = [{} for _ in range(dim)]
        for b in family.scalar_blocks:
            if family.find(b.class_id) == c:
                _add_projector(op, b.space, norms)
        ops.append(_finish(op))
    for b in family.operator_blocks:
        ops.extend(_line_projector(b.space, norms, dim))
    for b in family.intertwiner_blocks:
        for phi in b.phis:
            ops.append(_intertwiner_pair_op(decomp, b, phi))
    return ops


def family_form(integer_ops: List[List[List[Tuple[int, int]]]],
                norms: Sequence[int], dim: int
                ) -> Callable[[Sequence], List[dict]]:
    """values -> sum_c v_c G Op_c as sparse integer rows, a positive multiple
    of G A: `integer_ops` are the family operators' columns cleared over
    one denominator (`linalg.cleared_columns`), `norms` the integer
    m-norms, and the values are cleared over their own lcm."""
    forms = [[(i, j, norms[i] * c) for j, col in enumerate(cols)
              for i, c in col] for cols in integer_ops]

    def rows_at(values: Sequence) -> List[dict]:
        lv = linalg.denominator(values)
        ga: List[dict] = [{} for _ in range(dim)]
        for v, entries in zip(values, forms):
            if v:
                w = v.numerator * (lv // v.denominator)
                for i, j, c in entries:
                    ga[i][j] = ga[i].get(j, 0) + w * c
        return ga

    return rows_at


def instantiate(family: MetricFamily, values: Sequence) -> MetricEndomorphism:
    """The family's metric at the values: sum_c values_c Op_c, with its
    commutant coordinates read back."""
    ops = family_basis_ops(family)
    if len(values) != len(ops):
        raise ValueError(f"expected {len(ops)} parameter values, got {len(values)}")
    return _from_columns(family.decomp, linalg.combine_columns(
        values, ops, family.decomp.dim))


def full_family(decomp: IsotypicalDecomposition) -> MetricFamily:
    """The unreduced candidate cone in per-summand block form.

    Parameter count equals the symmetric commutant dimension (verified).
    """
    family = MetricFamily(decomp=decomp)
    family.operator_blocks.append(OperatorBlock(space=decomp.s0.space, label="S0"))
    next_class = 0
    for si, summand in enumerate(decomp.summands):
        if summand is decomp.s0:
            continue
        for mi, member in enumerate(summand.members):
            family.scalar_blocks.append(ScalarBlock(
                space=member.space, class_id=next_class,
                label=f"S{summand.class_id}.m{mi + 1}"))
            next_class += 1
        for (a, b) in itertools.combinations(range(len(summand.members)), 2):
            phis = summand.intertwiner_bases.get((a, b), [])
            if phis:
                family.intertwiner_blocks.append(IntertwinerBlock(
                    summand_index=si, member_a=a, member_b=b, phis=phis,
                    label=f"S{summand.class_id}.m{a + 1}~m{b + 1}"))
    if family.n_params != len(decomp.sym_commutant_basis()):
        raise ArithmeticError(
            "block parameterization does not match the commutant dimension: "
            f"{family.n_params} != {len(decomp.sym_commutant_basis())}")
    return family


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
