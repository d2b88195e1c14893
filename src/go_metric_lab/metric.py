"""Invariant metrics as equivariant endomorphisms of m.

A metric endomorphism is B-symmetric, equivariant under the isotropy
action, and positive definite.  The complete cone of candidates is
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
from typing import Dict, List, Optional, Sequence

from . import isotropy, linalg
from .isotropy import IsotypicalDecomposition, Subspace
from .linalg import Mat, Vec, ZERO, ONE


class NotEquivariantError(ValueError):
    """Matrix is not in the span of the symmetric commutant."""


@dataclass
class MetricEndomorphism:
    decomp: IsotypicalDecomposition
    matrix: Mat
    params: Vec
    is_pd: bool

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @cached_property
    def columns(self) -> List[linalg.Sparse]:
        """Sparse columns of the matrix, built on first use and kept."""
        return linalg.sparse_columns(self.matrix)


def _pd_check(matrix: Mat, norms: Sequence) -> bool:
    # bilinear form of the metric: G A must be symmetric positive definite;
    # the m-basis Gram G is the diagonal `norms`, so G A scales rows
    ga = [[nu * c for c in row] for nu, row in zip(norms, matrix)]
    return ga == linalg.transpose(ga) and linalg.sym_positive_definite(ga)


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
    a = _commutant_matrix(decomp, params)
    return MetricEndomorphism(decomp=decomp, matrix=a, params=params,
                              is_pd=_pd_check(a, decomp.action.norms))


def _commutant_matrix(decomp: IsotypicalDecomposition, params: Vec) -> Mat:
    """sum_q params_q S_q over the symmetric commutant basis."""
    a = linalg.zeros(decomp.dim, decomp.dim)
    for p, entries in zip(params, decomp.sym_commutant_entries):
        if p != 0:
            for (i, j), c in entries.items():
                a[i][j] += p * c
    return a


def from_matrix(decomp: IsotypicalDecomposition,
                matrix: Mat) -> MetricEndomorphism:
    """Wrap an explicit matrix, reading off its commutant coordinates.

    Each basis operator S_q is 1 at its free position, where every other
    basis operator is 0, so params_q = M[free_q]; the sum of params_q S_q
    is rebuilt and compared with M exactly.
    """
    d = decomp.dim
    if len(matrix) != d or any(len(row) != d for row in matrix):
        raise NotEquivariantError(f"expected a {d} x {d} matrix")
    params = [Fraction(matrix[i][j]) for i, j in decomp.sym_commutant_free]
    if _commutant_matrix(decomp, params) != [list(row) for row in matrix]:
        raise NotEquivariantError(
            "matrix is not a symmetric equivariant endomorphism")
    return MetricEndomorphism(decomp=decomp, matrix=[list(r) for r in matrix],
                              params=params,
                              is_pd=_pd_check(matrix, decomp.action.norms))


# ---------------------------------------------------------------------------
# normalizer equivariance (necessary condition for the GO property)
# ---------------------------------------------------------------------------

def normalizer_ops(decomp: IsotypicalDecomposition) -> List[Mat]:
    """ad(Z)|_m for Z over a basis of h (+) S0, the normalizer algebra."""
    action = decomp.action
    ops = list(action.ad_ops)
    for z_m in decomp.s0.space.basis:
        ops.append(isotropy.ad_on_m(action.split, z_m))
    return ops


def check_normalizer_equivariance(a: MetricEndomorphism,
                                  ops: Optional[List[Mat]] = None) -> bool:
    """True iff A commutes with the normalizer action on m."""
    if ops is None:
        ops = normalizer_ops(a.decomp)
    for op in ops:
        comm = linalg.mat_sub(linalg.mat_mul(a.matrix, op),
                              linalg.mat_mul(op, a.matrix))
        if not linalg.mat_is_zero(comm):
            return False
    return True


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
    phis: List[Mat]
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


# Family operators are kept as sparse columns, one (row, value) list per
# column; while a family is built, each column is a {row: value} dict.
Columns = List[linalg.Sparse]


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
                         blk: IntertwinerBlock, phi: Mat) -> Columns:
    """phi: member_a -> member_b embedded in m plus its B-adjoint."""
    summand = decomp.summands[blk.summand_index]
    sub_a = summand.members[blk.member_a].space
    sub_b = summand.members[blk.member_b].space
    norms = decomp.action.norms
    op: List[dict] = [{} for _ in range(decomp.dim)]

    def add_embedded(phi_ab: Mat, src: Subspace, dst: Subspace):
        # src coordinates read by <src_j, X> / nu_j, embedded along dst
        for aj, b in enumerate(src.sparse_basis):
            for bi, d in enumerate(dst.sparse_basis):
                if phi_ab[bi][aj] != 0:
                    add_outer(op, d, b, norms, phi_ab[bi][aj] / src.norms[aj])

    add_embedded(phi, sub_a, sub_b)
    # B-adjoint phi*: member_b -> member_a, phi*_[i][j] = nu_b_j / nu_a_i * phi[j][i]
    phi_star = [[sub_b.norms[j] * phi[j][i] / sub_a.norms[i]
                 for j in range(sub_b.dim)] for i in range(sub_a.dim)]
    add_embedded(phi_star, sub_b, sub_a)
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


def family_matrix(ops: List[Columns], values: Sequence, dim: int) -> Mat:
    """sum_c values_c Op_c as a dense matrix, from the family operators."""
    amat = linalg.zeros(dim, dim)
    for v, cols in zip(values, ops):
        if v != 0:
            for j, col in enumerate(cols):
                for i, c in col:
                    amat[i][j] += v * c
    return amat


def instantiate(family: MetricFamily, values: Sequence) -> MetricEndomorphism:
    ops = family_basis_ops(family)
    if len(values) != len(ops):
        raise ValueError(f"expected {len(ops)} parameter values, got {len(values)}")
    return from_matrix(family.decomp,
                       family_matrix(ops, values, family.decomp.dim))


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
    """Per-summand restriction of A: scalar where scalar, else the matrix."""
    out = []
    for summand in a.decomp.summands:
        r = isotropy.restrict_op(a.matrix, summand.space, a.decomp.action.norms)
        if r is None:
            raise ArithmeticError("metric does not preserve a summand")
        d = summand.dim
        lam = r[0][0]
        scalar = all(r[i][j] == (lam if i == j else ZERO)
                     for i in range(d) for j in range(d))
        entry = {"summand": summand.class_id, "dim": d}
        if scalar:
            entry["scalar"] = linalg.frac_to_str(lam)
        else:
            entry["matrix"] = [[linalg.frac_to_str(x) for x in row] for row in r]
        out.append(entry)
    return out


def metric_to_json_dict(a: MetricEndomorphism) -> dict:
    params = [linalg.frac_to_str(p) for p in a.params]
    return {"params": params, "blocks": block_view(a), "pd": a.is_pd}


def metric_from_json_dict(decomp: IsotypicalDecomposition,
                          data: dict) -> MetricEndomorphism:
    params = [linalg.frac_from_str(p) if isinstance(p, str) else p
              for p in data["params"]]
    return from_parameters(decomp, params)
