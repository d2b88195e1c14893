"""Reference forms the tests check the package against.

Each helper is the plain dense or direct form of something the package
computes sparsely, or no longer needs at run time: the bilinear form over
a full Gram matrix (`gram_dot`) or a norm vector (`norm_dot`), linear
combinations of dense vectors (`combine`), the B-orthogonal projection
on dense vectors (`dense_orthogonal_projection`) and in `Fraction`s on
sparse ones (`fraction_projection`, with the Gram-Schmidt, the operator
restriction and the bracket-table fill built on it), the g-coordinates
of m-coordinates (`m_to_g`), the JSON forms of a
split and a metric that the package reads, one solution of a linear system
(`solve_consistent`) and the dense least squares built on both
(`fraction_least_squares`), which `linalg.least_squares`' integer pairs
meet through `least_squares_fractions`, dense projectors and family
operators built from the dense m-basis Gram, family coordinates by one
dense solve, the
bracket table contracted in `Fraction`s, commutant operators filled in
from every parameter, dense Gauss-Jordan elimination (`rref`), sparse
elimination, positive definiteness and the GO residual in `Fraction`s,
the dense Krylov minimal polynomial and eigen-split, and the normalizer
action over a whole basis of h (+) S0 (`whole_normalizer_ops`), and the
deformation-line test on a metric's sparse columns (`is_deformation`),
and the seeded full-cone draws of a scan with a `Fraction` per
coordinate (`random_points`), u(n)'s structure table with every pair of
basis matrices bracketed (`all_pairs_structure`), and the per-t "family"
certificate with every probe's residual by `go.go_residual_sq`
(`reference_family_view`).
The package keeps every operator on m as sparse columns; `columns` and
`dense_op` convert between that form and dense row lists.
"""

import itertools
import random
from fractions import Fraction

from go_metric_lab import decomp, go, isotropy, lie_core, linalg, metric


def gram_dot(gram, x, y):
    """Bilinear form <x, y> for the given dense Gram matrix."""
    s = linalg.ZERO
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        row = gram[i]
        t = linalg.ZERO
        for j, yj in enumerate(y):
            if yj != 0:
                gij = row[j]
                if gij != 0:
                    t += gij * yj
        s += xi * t
    return s


def split_to_json_dict(split):
    """The JSON form of a split that `decomp.split_from_json_dict` reads:
    the algebra hash and the h basis as fraction strings."""
    return {"algebra_hash": decomp.algebra_hash(split.algebra),
            "h_basis": [[linalg.frac_to_str(c) for c in v]
                        for v in split.h.basis_coords]}


def metric_to_json_dict(a):
    """The JSON form of a metric that `metric.metric_from_json_dict`
    reads: its commutant parameters, block view and PD flag."""
    return {"params": [linalg.frac_to_str(p) for p in a.params],
            "blocks": metric.block_view(a), "pd": a.is_pd}


def vec_add(x, y):
    """The sum of two dense vectors."""
    return [a + b for a, b in zip(x, y)]


def combine(coeffs, vecs, n):
    """sum_i coeffs_i vecs_i for dense vectors of length n."""
    out = linalg.zero_vec(n)
    for c, v in zip(coeffs, vecs):
        out = vec_add(out, linalg.vec_scale(c, v))
    return out


def norm_dot(norms, x, y):
    """<x, y> = sum_i x_i y_i norms_i for dense x, y and a diagonal Gram
    matrix given by its norm vector."""
    return sum((xi * yi * nu for xi, yi, nu in zip(x, y, norms)),
               linalg.ZERO)


def dense_orthogonal_projection(basis, basis_norms, norms, v):
    """`linalg.orthogonal_projection` on a dense v over a sparse
    B-orthogonal basis: (dense coordinates, dense residual), reading every
    entry of v."""
    coords = []
    for b, nu in zip(basis, basis_norms):
        dot = linalg.ZERO
        for i, c in b:
            if v[i] != 0:
                dot += c * v[i] * norms[i]
        coords.append(dot / nu if dot else linalg.ZERO)
    resid = list(v)
    for c, b in zip(coords, basis):
        if c != 0:
            for i, bi in b:
                resid[i] -= c * bi
    return coords, resid


def m_to_g(split, mcoords):
    """The dense g-coordinates of dense m-coordinates: the combination of
    the m basis vectors."""
    return linalg.dense(linalg.sparse_mat_vec(
        split.m.sparse_basis, linalg.sparse(mcoords)), split.algebra.dim)


def fraction_projection(basis, basis_norms, norms, v):
    """`linalg.orthogonal_projection` in `Fraction`s, the body its integer
    kernel replaced: (coordinates, residual) of a sparse v over a sparse
    B-orthogonal basis, through an index of the basis entries."""
    index = {}
    for j, b in enumerate(basis):
        for i, c in b:
            index.setdefault(i, []).append((j, c))
    dots = {}
    for i, vi in v:
        for j, c in index.get(i, ()):
            dots[j] = dots.get(j, 0) + c * vi * norms[i]
    coords = [(j, d / basis_norms[j]) for j, d in sorted(dots.items()) if d]
    vals = dict(v)
    for j, c in coords:
        for i, bi in basis[j]:
            vals[i] = vals.get(i, 0) - c * bi
    return coords, linalg.sparse_from(vals)


def fraction_gram_schmidt(vectors, norms):
    """(basis, basis norms) of `linalg.make_subspace`, in `Fraction`s."""
    basis, basis_norms = [], []
    for v in vectors:
        w = fraction_projection(basis, basis_norms, norms, v)[1]
        if w:
            basis.append(w)
            basis_norms.append(sum((c * c * norms[i] for i, c in w),
                                   Fraction(0)))
    return basis, basis_norms


def fraction_restrict(op, basis, basis_norms, norms):
    """`isotropy.restrict_op` by the `Fraction` projection of each op b."""
    cols = []
    for b in basis:
        coords, resid = fraction_projection(basis, basis_norms, norms,
                                            linalg.sparse_mat_vec(op, b))
        if resid:
            return None
        cols.append(coords)
    return cols


def fraction_sparse_bracket(g, x, y):
    """[x, y] on sparse coordinates over the `Fraction` structure table."""
    acc = {}
    for i, xi in x:
        for j, yj in y:
            for k, c in g.structure.get((i, j), {}).items():
                acc[k] = acc.get(k, 0) + xi * yj * c
    return linalg.sparse_from(acc)


def fraction_split_fill(split):
    """(table, ad) by the `Fraction` fill: `table[a][b]` the (m-coordinates,
    h-component) of [m_a, m_b] and `ad[i][b]` the m-coordinates of
    [h_i, m_b], each g-bracket split by the `Fraction` projection."""
    g, basis = split.algebra, split.m.sparse_basis

    def part(x):
        return fraction_projection(basis, split.m.norms, g.norms, x)

    table = [[part(fraction_sparse_bracket(g, x, y)) for y in basis]
             for x in basis]
    ad = [[part(fraction_sparse_bracket(g, linalg.sparse(hv), y))[0]
           for y in basis] for hv in split.h.basis_coords]
    return table, ad


def solve_consistent(a, b):
    """One solution of a @ x = b with the free variables set to 0, or None,
    from the pivot rows of [a | -b]: a pivot in the -b column n rules a
    solution out; otherwise each pivot row reads row[p] x_p + row[n] = 0
    once the free variables are 0."""
    if not a:
        return []
    ncols = len(a[0])
    pivots = linalg.pivot_rows(list(row) + [-bi] for row, bi in zip(a, b))
    if ncols in pivots:
        return None
    x = [linalg.ZERO] * ncols
    for p, row in pivots.items():
        x[p] = Fraction(-row.get(ncols, 0), row[p])
    return x


def fraction_least_squares(columns, rhs, gram):
    """`linalg.least_squares` on dense `Fraction` vectors: the normal
    equations through `gram_dot` over full Gram rows, `solve_consistent`,
    and the residual vector's squared norm."""
    p = len(columns)
    if p == 0:
        return [], gram_dot(gram, rhs, rhs)
    normal = [[gram_dot(gram, columns[i], columns[j]) for j in range(p)]
              for i in range(p)]
    b = [gram_dot(gram, columns[i], rhs) for i in range(p)]
    x = solve_consistent(normal, b)
    if x is None:
        raise ArithmeticError("normal equations inconsistent")
    res = linalg.vec_sub(rhs, combine(x, columns, len(rhs)))
    return x, gram_dot(gram, res, res)


def least_squares_fractions(solved):
    """`linalg.least_squares`' ((y, D), (r, s)) as the (x, residual)
    `Fraction`s of `fraction_least_squares`, x = y / D and r / s, after
    checking that every entry is an int and D and s are positive."""
    (y, d), (r, s) = solved
    assert all(type(c) is int for c in (*y, d, r, s)) and d > 0 and s > 0
    return [Fraction(c, d) for c in y], Fraction(r, s)


def inner(g, x, y):
    """B(x, y) over the algebra's basis Gram matrix."""
    if len(x) != g.dim or len(y) != g.dim:
        raise lie_core.DimensionMismatchError(
            f"expected coordinate length {g.dim}, got {len(x)} and {len(y)}")
    return gram_dot(g.gram, x, y)


def whole_normalizer_ops(dec):
    """ad(Z)|_m for Z over a basis of h (+) S0: every isotropy operator
    and every S0-basis operator, where `metric.normalizer_ops` keeps
    generators only."""
    action = dec.action
    return list(action.ad_ops) + [isotropy._ad_columns(action.split, z)
                                  for z in dec.s0.space.sparse_basis]


def mat_add(a, b):
    return [vec_add(ra, rb) for ra, rb in zip(a, b)]


def dense_op(columns, dim):
    """The dense matrix of an operator given by its sparse columns."""
    return linalg.transpose([linalg.dense(col, dim) for col in columns])


def columns(m):
    """The sparse columns of a dense matrix."""
    return [[(i, row[j]) for i, row in enumerate(m) if row[j] != 0]
            for j in range(len(m[0]) if m else 0)]


def matrix_of(a):
    """The dense matrix of a metric endomorphism."""
    return dense_op(a.columns, a.dim)


def mat_vec(m, v):
    return [linalg.dot(row, v) for row in m]


def family_matrix(ops, values, dim):
    """sum_c values_c Op_c as a dense matrix, from sparse-column family
    operators."""
    amat = linalg.zeros(dim, dim)
    for v, cols in zip(values, ops):
        if v != 0:
            for j, col in enumerate(cols):
                for i, c in col:
                    amat[i][j] += v * c
    return amat


def identity(n):
    return [linalg.unit_vec(n, i) for i in range(n)]


def identity_metric(dec):
    return metric.from_matrix(dec, identity(dec.dim))


def center_coefficient(space, x_m):
    """r = <X, z0> / <z0, z0>, over the dense m-basis Gram."""
    gram = space.split.gram_m
    return (gram_dot(gram, x_m, space.z0_m)
            / gram_dot(gram, space.z0_m, space.z0_m))


def is_deformation(space, columns):
    """True iff A, given by its sparse columns, is lambda A_0 + mu A_1 =
    lambda A_t (t = mu / lambda) with lambda, mu > 0: lambda is read off
    a basis vector outside the center, mu off z0, and A is compared."""
    a0, a1 = space.family_data.metric
    e = next(i for i, col in enumerate(a1) if not col)
    z0 = linalg.sparse(space.z0_m)
    lam = dict(columns[e]).get(e, Fraction(0))
    mu = (dict(linalg.sparse_mat_vec(columns, z0)).get(z0[0][0], Fraction(0))
          / z0[0][1])
    return lam > 0 and mu > 0 and columns == linalg.combine_columns(
        [lam, mu], [a0, a1], space.dim_m)


def _outer(op, u, gv, f):
    dim = len(op)
    for r in range(dim):
        for c in range(dim):
            op[r][c] += f * u[r] * gv[c]


def _dense_gram_projector(space, gram, dim):
    op = linalg.zeros(dim, dim)
    for b, nu in zip(space.basis, space.norms):
        _outer(op, b, mat_vec(gram, b), 1 / nu)
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
    gram, dim = dec.action.split.gram_m, dec.dim
    ops = []
    for c in family.classes():
        op = linalg.zeros(dim, dim)
        for b in family.scalar_blocks:
            if b.class_id == c:
                op = mat_add(op, _dense_gram_projector(b.space, gram, dim))
        ops.append(op)
    for blk in family.operator_blocks:
        sp = blk.space
        gb = [mat_vec(gram, b) for b in sp.basis]
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
        for phi_cols in blk.phis:
            phi = dense_op(phi_cols, sub_b.dim)
            op = linalg.zeros(dim, dim)
            phi_star = [[sub_b.norms[j] * phi[j][i] / sub_a.norms[i]
                         for j in range(sub_b.dim)] for i in range(sub_a.dim)]
            for m, src, dst in ((phi, sub_a, sub_b), (phi_star, sub_b, sub_a)):
                for aj, b in enumerate(src.basis):
                    gb = mat_vec(gram, b)
                    for bi, d in enumerate(dst.basis):
                        _outer(op, d, gb, m[bi][aj] / src.norms[aj])
            ops.append(op)
    return ops


def coords_in_family(family, a):
    """Parameter values reproducing A, or None when A is outside the family."""
    dim = family.decomp.dim
    ops = [dense_op(cols, dim) for cols in metric.family_basis_ops(family)]
    cols = [[op[i][j] for op in ops] for i in range(dim) for j in range(dim)]
    amat = matrix_of(a)
    rhs = [amat[i][j] for i in range(dim) for j in range(dim)]
    return solve_consistent(cols, rhs)


def fraction_bracket(table, x, y):
    """`BracketTable.bracket` contracted entry by entry in `Fraction`s."""
    acc_m, acc_h = {}, {}
    for a, xa in x:
        row_m, row_h = table.m[a], table.h[a]
        for b, yb in y:
            f = xa * yb
            for k, c in row_m[b]:
                acc_m[k] = acc_m.get(k, linalg.ZERO) + f * c
            for k, c in row_h[b]:
                acc_h[k] = acc_h.get(k, linalg.ZERO) + f * c
    return linalg.sparse_from(acc_m), linalg.sparse_from(acc_h)


def sym_op_from_params(params, norms, d):
    """The B-symmetric d x d operator of a commutant parameter vector:
    parameters run over the upper triangle (i <= j) row by row, and
    S[j][i] = S[i][j] nu_i / nu_j."""
    entries = [(i, j) for i in range(d) for j in range(i, d)]
    s = linalg.zeros(d, d)
    for (i, j), p in zip(entries, params):
        s[i][j] = p
        if i != j:
            s[j][i] = p * norms[i] / norms[j]
    return s


def fraction_nullspace(rows, ncols):
    """`linalg.nullspace` of {col: value} rows eliminated in `Fraction`s,
    as dense vectors: each pivot row is normalized to a leading 1 and rows
    reduce by row - f pivot."""
    pivot_rows = {}
    for raw in rows:
        row = {k: Fraction(v) for k, v in raw.items() if v != 0}
        while row:
            lead = min(row)
            piv = pivot_rows.get(lead)
            if piv is None:
                inv = 1 / row[lead]
                pivot_rows[lead] = {k: v * inv for k, v in row.items()}
                break
            f = row[lead]
            for k, v in piv.items():
                nv = row.get(k, linalg.ZERO) - f * v
                if nv == 0:
                    row.pop(k, None)
                else:
                    row[k] = nv
    for lead in sorted(pivot_rows, reverse=True):
        row = pivot_rows[lead]
        for other_lead in [k for k in row if k != lead and k in pivot_rows]:
            f = row[other_lead]
            for k, v in pivot_rows[other_lead].items():
                nv = row.get(k, linalg.ZERO) - f * v
                if nv == 0:
                    row.pop(k, None)
                else:
                    row[k] = nv
    basis = []
    for fc in range(ncols):
        if fc in pivot_rows:
            continue
        v = [linalg.ZERO] * ncols
        v[fc] = linalg.ONE
        for lead, row in pivot_rows.items():
            if fc in row:
                v[lead] = -row[fc]
        basis.append(v)
    return basis


def rref(rows):
    """Dense Gauss-Jordan elimination in Fractions: (reduced rows, pivot
    columns), the reduced rows padded with zero rows."""
    m = [[Fraction(x) for x in r] for r in rows]
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        m[r] = [x / piv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r] + [[linalg.ZERO] * ncols for _ in range(nrows - r)], pivots


def rref_pivot_rows(rows):
    """`linalg.pivot_rows` from `rref`: each reduced row as the primitive
    integer row with a positive pivot, keyed by its pivot column."""
    red, pivots = rref(rows)
    out = {}
    for p, row in zip(pivots, red):
        den = linalg.denominator(row)
        ints = {k: int(c * den) for k, c in enumerate(row) if c != 0}
        # a positive pivot den; primitive, since each prime power of den
        # is the full power in some entry's reduced denominator
        out[p] = ints
    return out


def rref_solve(a, b):
    """One solution of a @ x = b (free variables 0) from `rref`, or None."""
    if not a:
        return []
    ncols = len(a[0])
    red, pivots = rref([list(row) + [bi] for row, bi in zip(a, b)])
    x = [linalg.ZERO] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = red[r][ncols]
    return x


def rref_nullspace(rows, ncols):
    """The reduced-echelon nullspace basis from `rref`."""
    red, pivots = rref(rows)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [linalg.ZERO] * ncols
        v[fc] = linalg.ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def fraction_residual_sq(a_metric, x_m, a_h):
    """`go.go_residual_sq` contracted in `Fraction`s: AX, the bracket
    [X, AX], sum a_i ad_i(AX) and the weighted norm."""
    action = a_metric.decomp.action
    split = action.split
    xs = linalg.sparse(x_m)
    ax = linalg.sparse_mat_vec(a_metric.columns, xs)
    c_m, c_h = fraction_bracket(split.bracket_table, xs, ax)
    lhs = dict(c_m)
    for a_i, ad in zip(a_h, action.ad_ops):
        if a_i != 0:
            for k, c in linalg.sparse_mat_vec(ad, ax):
                lhs[k] = lhs.get(k, linalg.ZERO) + a_i * c
    nu = split.norms_m
    gram = split.algebra.gram
    return (sum((c * c * nu[k] for k, c in lhs.items()), linalg.ZERO)
            + sum((c * c * gram[i][i] for i, c in c_h), linalg.ZERO))


def fraction_positive_definite(m):
    """`linalg.sym_positive_definite` eliminated in `Fraction`s: a sparse
    LDL^T without pivoting, every pivot positive."""
    rows = [{j: Fraction(x) for j, x in enumerate(row) if x != 0} for row in m]
    for k, pivot_row in enumerate(rows):
        d = pivot_row.get(k, linalg.ZERO)
        if d <= 0:
            return False
        tail = [(j, v) for j, v in pivot_row.items() if j > k]
        for row in rows[k + 1:]:
            f = row.pop(k, None)
            if f is None:
                continue
            f /= d
            for j, v in tail:
                nv = row.get(j, linalg.ZERO) - f * v
                if nv == 0:
                    row.pop(j, None)
                else:
                    row[j] = nv
    return True


def dense_pd_check(matrix, norms):
    """A metric's form G A, G = diag(norms), built densely: symmetric and
    positive definite by `fraction_positive_definite`."""
    ga = [[nu * c for c in row] for nu, row in zip(norms, matrix)]
    return ga == linalg.transpose(ga) and fraction_positive_definite(ga)


def scan_residual_sq(tensors, values, p):
    """Probe p's squared residual from a scan's tensors
    (`go._ScanTensors._residual`) as a `Fraction`, at int or `Fraction`
    values; only the values on the probe's support are read."""
    support = tensors._probe(p).support
    return Fraction(*tensors._residual(p, [
        (values[c].numerator, values[c].denominator) for c in support]))


def random_points(family, spec, pd):
    """`go._random_points` drawn on `Fraction` values, one coordinate at a
    time: the same rng calls in the same order, with `pd(values)` deciding
    each draw."""
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
    p_nonzero = min(Fraction(1, 4), Fraction(4, max(1, len(off_positions))))
    quarters = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2))
    points = []
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
                            if rng.random() < p_nonzero else linalg.ZERO)
        if all(vals[i] == 0 for i in off_positions):
            vals[rng.choice(off_positions)] = rng.choice(sym_small)
        if pd(vals):
            points.append(tuple(vals))
    return points


def dense_minimal_polynomial(op):
    """Monic minimal polynomial of a dense rational matrix, low degree
    first: the lcm of the unit vectors' Krylov dependences, each found by
    one dense `rref` solve per step."""
    n = len(op)
    poly = [linalg.ONE]
    for start in range(n):
        w = _dense_apply_poly(op, poly, linalg.unit_vec(n, start))
        if linalg.vec_is_zero(w):
            continue
        krylov = [w]
        while True:
            nxt = mat_vec(op, krylov[-1])
            sol = rref_solve(linalg.transpose(krylov), nxt)
            if sol is not None:
                local = [-s for s in sol] + [linalg.ONE]
                break
            krylov.append(nxt)
        out = [linalg.ZERO] * (len(poly) + len(local) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(local):
                out[i + j] += a * b
        poly = out
    return poly


def _dense_apply_poly(op, poly, v):
    out = linalg.zero_vec(len(v))
    cur = list(v)
    for c in poly:
        out = vec_add(out, linalg.vec_scale(c, cur))
        cur = mat_vec(op, cur)
    return out


def dense_eigen_split(op):
    """[(eigenvalue, reduced-echelon eigenbasis)] of a dense rational
    matrix over the rational roots of `dense_minimal_polynomial`, or None
    when the eigenspaces do not span."""
    n = len(op)
    out = []
    for lam in linalg.rational_roots(dense_minimal_polynomial(op)):
        shifted = [[op[i][j] - (lam if i == j else 0) for j in range(n)]
                   for i in range(n)]
        out.append((lam, rref_nullspace(shifted, n)))
    if sum(len(b) for _, b in out) != n:
        return None
    return out


def all_pairs_structure(n):
    """u(n)'s structure constants with `lie_core.build_un`'s expansion of
    the sparse commutator, over every pair i < j of basis matrices, also
    those whose index sets are disjoint."""
    labels, entries = lie_core._canonical_entries(n)
    index = {}
    for k, label in enumerate(labels):
        kind, i, j = label.split("_")
        index[(kind, int(i) - 1, int(j) - 1)] = k
    structure = {}
    for i, j in itertools.combinations(range(len(labels)), 2):
        coords = {}
        for (r, c), (re, im) in lie_core._sparse_commutator(
                entries[i], entries[j]).items():
            if r < c:
                coords[index[("e", r, c)]] = Fraction(re)
                coords[index[("eb", r, c)]] = Fraction(im)
            elif r == c:
                coords[index[("eb", r, r)]] = Fraction(im, 2)
        entry = {k: coords[k] for k in sorted(coords) if coords[k] != 0}
        if entry:
            structure[(i, j)] = entry
            structure[(j, i)] = {k: -c for k, c in entry.items()}
    return structure


def reference_family_view(data, proved, t, samples, seed):
    """The "family" certificate of `data` at t, probe by probe: every
    m-basis vector, every pair sum, then the samples, each with a fresh
    witness-map image and its residual by `go.go_residual_sq` at A_t (so
    the proved probes are checked too), solved by `go.go_solve_at` where
    the residual is not 0; the verdict starts from `proved`."""
    a_t, witness = data.metric_at(t), data.witness_at(t)
    dim = data.decomp.dim
    basis = [linalg.unit_vec(dim, i) for i in range(dim)]
    probes = basis + [vec_add(basis[i], basis[j])
                      for i, j in itertools.combinations(range(dim), 2)]
    probes += samples
    cert = go.GOCertificate(
        verdict="verified-on-family" if proved else "passed-sampling",
        strategy="family", count=len(probes), seed=seed)
    for x in probes:
        w = go.Witness(x, witness(x), go.go_residual_sq(a_t, x, witness(x)))
        if w.residual_sq != 0:
            w = go.Witness(x, *go.go_solve_at(a_t, x))
            if w.residual_sq > 0:
                cert.verdict, cert.falsifier = "falsified", w
                return cert
            cert.verdict = "passed-sampling"
        cert.witnesses.append(w)
    return cert
