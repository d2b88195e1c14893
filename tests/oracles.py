"""Reference forms the tests check the package against.

Each helper is the plain dense or direct form of something the package
computes sparsely, or no longer needs at run time: the trace form over
the full Gram matrix, dense projectors and family operators built from
the dense m-basis Gram, and family coordinates by one dense solve.
"""

from fractions import Fraction

from go_metric_lab import lie_core, linalg, metric


def inner(g, x, y):
    """B(x, y) over the algebra's basis Gram matrix."""
    if len(x) != g.dim or len(y) != g.dim:
        raise lie_core.DimensionMismatchError(
            f"expected coordinate length {g.dim}, got {len(x)} and {len(y)}")
    return linalg.gram_dot(g.gram, x, y)


def mat_add(a, b):
    return [linalg.vec_add(ra, rb) for ra, rb in zip(a, b)]


def dense_op(columns, dim):
    """The dense matrix of an operator given by its sparse columns."""
    return linalg.transpose([linalg.dense(col, dim) for col in columns])


def identity_metric(dec):
    return metric.from_matrix(dec, linalg.identity(dec.dim))


def center_coefficient(space, x_m):
    """r = <X, z0> / <z0, z0>, over the dense m-basis Gram."""
    gram = space.split.gram_m
    return (linalg.gram_dot(gram, x_m, space.z0_m)
            / linalg.gram_dot(gram, space.z0_m, space.z0_m))


def _outer(op, u, gv, f):
    dim = len(op)
    for r in range(dim):
        for c in range(dim):
            op[r][c] += f * u[r] * gv[c]


def _dense_gram_projector(space, gram, dim):
    op = linalg.zeros(dim, dim)
    for b, nu in zip(space.basis, space.norms):
        _outer(op, b, linalg.mat_vec(gram, b), 1 / nu)
    return op


def projector(space, norms, dim):
    """B-orthogonal projector onto the subspace; `norms` is the m-basis
    norm vector."""
    gram = [[norms[i] if i == j else Fraction(0) for j in range(dim)]
            for i in range(dim)]
    return _dense_gram_projector(space, gram, dim)


def dense_gram_family_ops(family):
    """The family operators built from the dense m-basis Gram."""
    dec = family.decomp
    gram, dim = dec.action.gram, dec.dim
    ops = []
    for c in family.classes():
        op = linalg.zeros(dim, dim)
        for b in family.scalar_blocks:
            if family.find(b.class_id) == c:
                op = mat_add(op, _dense_gram_projector(b.space, gram, dim))
        ops.append(op)
    for blk in family.operator_blocks:
        sp = blk.space
        gb = [linalg.mat_vec(gram, b) for b in sp.basis]
        for i in range(sp.dim):
            for j in range(i, sp.dim):
                op = linalg.zeros(dim, dim)
                scale = 1 / sp.norms[i] if i == j else Fraction(1)
                _outer(op, sp.basis[i], gb[j], scale)
                if i != j:
                    _outer(op, sp.basis[j], gb[i], scale)
                ops.append(op)
    for blk in family.intertwiner_blocks:
        summand = dec.summands[blk.summand_index]
        sub_a = summand.members[blk.member_a].space
        sub_b = summand.members[blk.member_b].space
        for phi in blk.phis:
            op = linalg.zeros(dim, dim)
            phi_star = [[sub_b.norms[j] * phi[j][i] / sub_a.norms[i]
                         for j in range(sub_b.dim)] for i in range(sub_a.dim)]
            for m, src, dst in ((phi, sub_a, sub_b), (phi_star, sub_b, sub_a)):
                for aj, b in enumerate(src.basis):
                    gb = linalg.mat_vec(gram, b)
                    for bi, d in enumerate(dst.basis):
                        _outer(op, d, gb, m[bi][aj] / src.norms[aj])
            ops.append(op)
    return ops


def coords_in_family(family, a):
    """Parameter values reproducing A, or None when A is outside the family."""
    dim = family.decomp.dim
    ops = [dense_op(cols, dim) for cols in metric.family_basis_ops(family)]
    cols = [[op[i][j] for op in ops] for i in range(dim) for j in range(dim)]
    rhs = [a.matrix[i][j] for i in range(dim) for j in range(dim)]
    return linalg.solve_consistent(cols, rhs)
