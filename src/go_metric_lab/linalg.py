"""Small dense/sparse linear algebra over exact rationals.

Entries are `fractions.Fraction` (integers mix in freely); nothing rounds,
and every zero test is a comparison with exact zero.

Matrices are lists of row lists; vectors are plain lists.  Least squares
takes its bilinear form as a Gram matrix; Gram-Schmidt takes the diagonal
of a B-orthogonal basis's Gram matrix, its norm vector.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

Vec = List
Mat = List[List]

ZERO = Fraction(0)
ONE = Fraction(1)


def zero_vec(n: int) -> Vec:
    return [ZERO] * n


def unit_vec(n: int, i: int) -> Vec:
    v = [ZERO] * n
    v[i] = ONE
    return v


def vec_add(x: Vec, y: Vec) -> Vec:
    return [a + b for a, b in zip(x, y)]


def vec_sub(x: Vec, y: Vec) -> Vec:
    return [a - b for a, b in zip(x, y)]


def vec_scale(c, x: Vec) -> Vec:
    return [c * a for a in x]


def vec_is_zero(x: Vec) -> bool:
    return all(a == 0 for a in x)


def dot(x: Vec, y: Vec):
    s = x[0] * y[0] if x else ZERO
    for a, b in zip(x[1:], y[1:]):
        s += a * b
    return s


def gram_dot(gram: Mat, x: Vec, y: Vec):
    """Bilinear form <x, y> for the given Gram matrix.

    Skips zero entries, so sparse vectors and diagonal Grams cost little.
    """
    s = ZERO
    for i, xi in enumerate(x):
        if xi == 0:
            continue
        row = gram[i]
        t = ZERO
        for j, yj in enumerate(y):
            if yj != 0:
                gij = row[j]
                if gij != 0:
                    t += gij * yj
        s += xi * t
    return s


def norm_dot(norms: Vec, x: Vec, y: Vec):
    """<x, y> = sum_i x_i y_i norms_i for a diagonal Gram matrix."""
    s = ZERO
    for xi, yi, nu in zip(x, y, norms):
        if xi != 0 and yi != 0:
            s += xi * yi * nu
    return s


def identity(n: int) -> Mat:
    return [unit_vec(n, i) for i in range(n)]


def zeros(nrows: int, ncols: int) -> Mat:
    return [[ZERO] * ncols for _ in range(nrows)]


def combine(coeffs: Sequence, vecs: Sequence[Vec], n: int) -> Vec:
    """sum_i coeffs_i vecs_i, a vector of length n; zero terms are skipped."""
    out = zero_vec(n)
    for c, v in zip(coeffs, vecs):
        if c != 0:
            for i, x in enumerate(v):
                if x != 0:
                    out[i] += c * x
    return out


def mat_vec(m: Mat, v: Vec) -> Vec:
    return [dot(row, v) for row in m]


def mat_mul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return [[dot(row, col) for col in bt] for row in a]


def mat_sub(a: Mat, b: Mat) -> Mat:
    return [vec_sub(ra, rb) for ra, rb in zip(a, b)]


def mat_scale(c, a: Mat) -> Mat:
    return [vec_scale(c, row) for row in a]


def transpose(m: Mat) -> Mat:
    return [list(col) for col in zip(*m)] if m else []


def mat_is_zero(m: Mat) -> bool:
    return all(vec_is_zero(row) for row in m)


# ---------------------------------------------------------------------------
# dense row reduction
# ---------------------------------------------------------------------------

def rref(rows: Mat) -> Tuple[Mat, List[int]]:
    """Reduced row echelon form; returns (reduced rows, pivot columns)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots: List[int] = []
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
    return m[:r] + [[ZERO] * ncols for _ in range(nrows - r)], pivots


def nullspace(rows: Mat, ncols: Optional[int] = None) -> List[Vec]:
    """Basis of {x : rows @ x = 0}, one vector per free column."""
    if not rows:
        if ncols is None:
            raise ValueError("ncols required for an empty system")
        return identity(ncols)
    ncols = len(rows[0]) if ncols is None else ncols
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve_consistent(a: Mat, b: Vec) -> Optional[Vec]:
    """One solution of a @ x = b (free variables set to 0), or None."""
    if not a:
        return []
    ncols = len(a[0])
    aug = [list(row) + [bi] for row, bi in zip(a, b)]
    red, pivots = rref(aug)
    x = [ZERO] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = red[r][ncols]
    return x


def rank(rows: Mat) -> int:
    return len(rref(rows)[1])


def same_span(basis_a: List[Vec], basis_b: List[Vec]) -> bool:
    return rank(basis_a) == rank(basis_b) == rank(basis_a + basis_b)


# ---------------------------------------------------------------------------
# sparse vectors: (index, value) lists in index order, zeros left out
# ---------------------------------------------------------------------------

Sparse = List[Tuple[int, Fraction]]


def sparse(v: Vec) -> Sparse:
    return [(i, c) for i, c in enumerate(v) if c != 0]


def sparse_from(acc: dict) -> Sparse:
    """The nonzero entries of an {index: value} accumulator."""
    return [(i, c) for i, c in sorted(acc.items()) if c != 0]


def dense(v: Sparse, n: int) -> Vec:
    out = zero_vec(n)
    for i, c in v:
        out[i] = c
    return out


def sparse_columns(m: Mat) -> List[Sparse]:
    return [[(i, row[j]) for i, row in enumerate(m) if row[j] != 0]
            for j in range(len(m[0]) if m else 0)]


def sparse_dot(x: Vec, y: Sparse):
    """<x, y> for a dense x and a sparse y."""
    s = ZERO
    for i, c in y:
        xi = x[i]
        if xi != 0:
            s += xi * c
    return s


def sparse_mat_vec(columns: List[Sparse], x: Sparse) -> Sparse:
    """M x for a matrix given by its sparse columns."""
    acc: dict = {}
    for j, xj in x:
        for i, c in columns[j]:
            acc[i] = acc.get(i, ZERO) + xj * c
    return sparse_from(acc)


# ---------------------------------------------------------------------------
# sparse row reduction (for the large equivariance systems)
# ---------------------------------------------------------------------------

def sparse_nullspace(rows: Iterable[dict], ncols: int) -> List[Vec]:
    """Exact nullspace of a sparse rational system.

    `rows` yields {col: Fraction} maps.  Rows reduce incrementally against
    the pivots collected so far, followed by one back-substitution sweep;
    intended for systems with a few nonzeros per row (equivariance
    constraints).
    """
    pivot_rows: dict = {}          # pivot col -> normalized row dict
    for raw in rows:
        row = {k: v for k, v in raw.items() if v != 0}
        while row:
            lead = min(row)
            piv = pivot_rows.get(lead)
            if piv is None:
                inv = ONE / row[lead]
                pivot_rows[lead] = {k: v * inv for k, v in row.items()}
                break
            f = row[lead]
            for k, v in piv.items():
                nv = row.get(k, ZERO) - f * v
                if nv == 0:
                    row.pop(k, None)
                else:
                    row[k] = nv
    # back-substitute so each pivot row is reduced against later pivots
    for lead in sorted(pivot_rows, reverse=True):
        row = pivot_rows[lead]
        for other_lead in [k for k in row if k != lead and k in pivot_rows]:
            f = row[other_lead]
            if f == 0:
                continue
            for k, v in pivot_rows[other_lead].items():
                nv = row.get(k, ZERO) - f * v
                if nv == 0:
                    row.pop(k, None)
                else:
                    row[k] = nv
    free = [c for c in range(ncols) if c not in pivot_rows]
    basis = []
    for fc in free:
        v = [ZERO] * ncols
        v[fc] = ONE
        for lead, row in pivot_rows.items():
            coef = row.get(fc)
            if coef is not None:
                v[lead] = -coef
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# least squares w.r.t. a Gram matrix
# ---------------------------------------------------------------------------

def least_squares(columns: List[Vec], rhs: Vec, gram: Mat) -> Tuple[Vec, Fraction]:
    """Minimize ||sum_j x_j col_j - rhs||^2 in the `gram` inner product.

    Returns (x, residual_norm_sq).  The normal equations are always
    consistent; free directions are set to zero.
    """
    p = len(columns)
    if p == 0:
        return [], gram_dot(gram, rhs, rhs)
    normal = [[gram_dot(gram, columns[i], columns[j]) for j in range(p)]
              for i in range(p)]
    b = [gram_dot(gram, columns[i], rhs) for i in range(p)]
    x = solve_consistent(normal, b)
    if x is None:
        raise ArithmeticError("normal equations inconsistent")
    res = vec_sub(rhs, combine(x, columns, len(rhs)))
    return x, gram_dot(gram, res, res)


# ---------------------------------------------------------------------------
# Gram-Schmidt without normalization (keeps rational entries rational)
# ---------------------------------------------------------------------------

def gram_schmidt(vectors: List[Vec], norms: Vec) -> List[Vec]:
    """B-orthogonalize, dropping dependent vectors; no normalization.

    `norms` is the diagonal Gram matrix of the ambient coordinates.
    """
    basis: List[Vec] = []
    basis_norms: List = []
    for v in vectors:
        w = list(v)
        for u, nu in zip(basis, basis_norms):
            c = norm_dot(norms, w, u) / nu
            if c != 0:
                w = vec_sub(w, vec_scale(c, u))
        if not vec_is_zero(w):
            basis.append(w)
            basis_norms.append(norm_dot(norms, w, w))
    return basis


# ---------------------------------------------------------------------------
# positive definiteness (Sylvester, sparse LDL^T)
# ---------------------------------------------------------------------------

def sym_positive_definite(m: Mat) -> bool:
    """Positive definiteness of a symmetric matrix.

    Sparse elimination without pivoting on {col: value} rows; rows with a
    zero multiplier are left alone.  The k-th pivot is the ratio of the
    (k+1)-th to the k-th leading principal minor, so every pivot is
    positive iff every leading principal minor is (Sylvester).
    """
    rows = [{j: Fraction(x) for j, x in enumerate(row) if x != 0} for row in m]
    for k, pivot_row in enumerate(rows):
        d = pivot_row.get(k, ZERO)
        if d <= 0:
            return False
        tail = [(j, v) for j, v in pivot_row.items() if j > k]
        for row in rows[k + 1:]:
            f = row.pop(k, None)
            if f is None:
                continue
            f /= d
            for j, v in tail:
                nv = row.get(j, ZERO) - f * v
                if nv == 0:
                    row.pop(j, None)
                else:
                    row[j] = nv
    return True


# ---------------------------------------------------------------------------
# minimal polynomial and rational eigen-splitting
# ---------------------------------------------------------------------------

def minimal_polynomial(op: Mat) -> List[Fraction]:
    """Monic minimal polynomial of a rational matrix, low degree first.

    Computed as the lcm of the local minimal polynomials of the unit
    vectors (Krylov dependences found by exact elimination).
    """
    n = len(op)
    poly = [ONE]                      # constant 1 = minpoly of the zero space
    for start in range(n):
        v = unit_vec(n, start)
        # apply current poly(op) to v; if already killed, skip
        w = _apply_poly(op, poly, v)
        if vec_is_zero(w):
            continue
        local = _cyclic_minpoly(op, w)
        poly = _poly_mul(poly, local)
    return poly


def _apply_poly(op: Mat, poly: Sequence[Fraction], v: Vec) -> Vec:
    # poly given low degree first
    out = zero_vec(len(v))
    cur = list(v)
    for c in poly:
        if c != 0:
            out = vec_add(out, vec_scale(c, cur))
        cur = mat_vec(op, cur)
    return out


def _cyclic_minpoly(op: Mat, v: Vec) -> List[Fraction]:
    n = len(v)
    krylov = [list(v)]
    while True:
        nxt = mat_vec(op, krylov[-1])
        sol = solve_consistent(transpose(krylov), nxt)
        if sol is not None:
            # nxt = sum sol_i krylov_i  ->  x^d - sum sol_i x^i
            return [-s for s in sol] + [ONE]
        krylov.append(nxt)
        if len(krylov) > n:
            raise ArithmeticError("Krylov space exceeded dimension")


def _poly_mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> List[Fraction]:
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _primitive(poly: Sequence) -> List[int]:
    """The coprime integer polynomial that is a positive multiple of poly."""
    den = math.lcm(*(Fraction(c).denominator for c in poly))
    ints = [int(c * den) for c in poly]
    g = math.gcd(*ints)
    return [c // g for c in ints]


def poly_divmod(a: Sequence, b: Sequence) -> Tuple[List[Fraction], List[Fraction]]:
    """(quotient, remainder) of a / b, low degree first; b's leading
    coefficient is nonzero.  The remainder carries no high-degree zeros."""
    rem = [Fraction(c) for c in a]
    quot = [ZERO] * max(len(rem) - len(b) + 1, 0)
    while len(rem) >= len(b):
        shift = len(rem) - len(b)
        quot[shift] = f = rem[-1] / b[-1]
        for i, c in enumerate(b):
            rem[shift + i] -= f * c
        rem.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def _sign_at(poly: Sequence[int], num: int, den: int) -> int:
    """Sign of poly(num / den) for den > 0, in integer arithmetic."""
    acc, scale = 0, 1
    for c in reversed(poly):
        acc = acc * num + c * scale
        scale *= den
    return (acc > 0) - (acc < 0)


def rational_roots(poly: Sequence[Fraction]) -> List[Fraction]:
    """Every rational root of a rational polynomial (low degree first,
    nonzero leading coefficient), sorted, with no cap on the coefficients.

    Cleared of denominators, poly is a primitive integer polynomial with
    leading coefficient L > 0, so every rational root is j/L for an integer
    j, with |j| below the Cauchy bound L + max |coefficient|.  A Sturm chain
    counts the distinct real roots between (2a - 1)/(2L) and (2b + 1)/(2L),
    ends that are never roots (their reduced denominator does not divide
    L); bisection over j narrows each interval holding a root to one
    lattice point, which is tested exactly.
    """
    ints = _primitive(poly)
    if len(ints) < 2:
        return []
    if ints[-1] < 0:
        ints = [-c for c in ints]
    lead = ints[-1]
    chain = [ints, [i * c for i, c in enumerate(ints)][1:]]
    while True:
        rem = poly_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(_primitive([-c for c in rem]))

    def variations(j: int) -> int:
        # sign changes along the chain at (2j + 1) / (2L)
        signs = [s for s in (_sign_at(p, 2 * j + 1, 2 * lead) for p in chain)
                 if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    bound = lead + max(abs(c) for c in ints[:-1])
    roots: List[Fraction] = []
    # (lo, hi, variations below lo, variations above hi), leftmost on top
    work = [(-bound, bound, variations(-bound - 1), variations(bound))]
    while work:
        lo, hi, v_lo, v_hi = work.pop()
        if v_lo == v_hi:
            continue
        if lo < hi:
            mid = (lo + hi) // 2
            v_mid = variations(mid)
            work += [(mid + 1, hi, v_mid, v_hi), (lo, mid, v_lo, v_mid)]
        elif _sign_at(ints, lo, lead) == 0:
            roots.append(Fraction(lo, lead))
    return roots


def eigen_split(op: Mat) -> Optional[List[Tuple[Fraction, List[Vec]]]]:
    """Exact eigenspace decomposition of a rational matrix.

    Returns [(eigenvalue, eigenbasis)] sorted by eigenvalue, over the
    rational roots of the minimal polynomial, or None when the eigenspaces
    do not span: an irrational root or a Jordan block leaves the dimensions
    short of n, and full span already means the minimal polynomial is a
    product of distinct rational linear factors.
    """
    n = len(op)
    out = []
    for lam in rational_roots(minimal_polynomial(op)):
        shifted = [[op[i][j] - (lam if i == j else ZERO) for j in range(n)]
                   for i in range(n)]
        out.append((lam, nullspace(shifted, n)))
    if sum(len(b) for _, b in out) != n:
        return None
    return out


def frac_to_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def frac_from_str(s: str) -> Fraction:
    if "/" in s:
        p, q = s.split("/")
        return Fraction(int(p), int(q))
    return Fraction(int(s))
