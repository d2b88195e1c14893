"""Small dense/sparse linear algebra over exact rationals.

Entries are `fractions.Fraction` (integers mix in freely); nothing rounds,
and every zero test is a comparison with exact zero.

Vectors are plain lists or sparse (index, value) lists.  An operator is
`Columns`, one sparse column per basis vector; an elimination reads its
rows as the dicts of `column_rows`.  A `Subspace` keeps a B-orthogonal
basis, for the diagonal form (norm vector) it records, as sparse vectors
and cleared to integer rows; `make_subspace` (Gram-Schmidt) builds it,
and `orthogonal_projection`, the one projection, splits a sparse vector
along it on integers, one `Fraction` per output entry.  Dense row
lists remain for matrix realizations, Gram matrices (the benchmark's tests
call least squares with one) and linear systems.

There are two fraction-free eliminations.  `pivot_rows` reduces primitive
integer rows to the reduced echelon form: nullspaces, the Krylov
dependences of `minimal_polynomial`, `rank`, `same_span` and `in_span`
read off its pivot rows, and `sym_positive_definite` runs its steps
without pivoting.  `least_squares` runs a symmetric Bareiss elimination
on one PSD matrix and returns its solution and residual as integer pairs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
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


def vec_sub(x: Vec, y: Vec) -> Vec:
    return [a - b for a, b in zip(x, y)]


def vec_scale(c, x: Vec) -> Vec:
    return [c * a for a in x]


def vec_is_zero(x: Vec) -> bool:
    return all(a == 0 for a in x)


def dot(x: Vec, y: Vec):
    return sum(map(operator.mul, x, y), ZERO)


def zeros(nrows: int, ncols: int) -> Mat:
    return [[ZERO] * ncols for _ in range(nrows)]


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
# sparse vectors: (index, value) lists in index order, zeros left out
# ---------------------------------------------------------------------------

Sparse = List[Tuple[int, Fraction]]
# an operator: column j is the sparse image of basis vector j
Columns = List[Sparse]


def sparse(v: Vec) -> Sparse:
    return [(i, c) for i, c in enumerate(v) if c != 0]


def sparse_from(acc: dict) -> Sparse:
    """The nonzero entries of an {index: value} accumulator."""
    return [(i, c) for i, c in sorted(acc.items()) if c != 0]


def over(acc: dict, den: int) -> Sparse:
    """The nonzero entries of an integer accumulator, each divided by den."""
    return [(i, Fraction(c, den)) for i, c in sorted(acc.items()) if c]


def dense(v: Sparse, n: int) -> Vec:
    out = zero_vec(n)
    for i, c in v:
        out[i] = c
    return out


@dataclass
class Subspace:
    """A subspace with a B-orthogonal basis, kept as sparse vectors, for
    the diagonal ambient form given by the norm vector `form`, N / e in
    integers; `basis` is the dense form.  `rows[j]` = (b_j, d_j, M_j) holds
    B_j cleared, b_j = d_j B_j, with M_j = sum_i N_i b_ji^2, and `index`
    maps each coordinate i to the (j, d_j b_ji N_i) with b_ji nonzero."""

    sparse_basis: List[Sparse]
    norms: Vec                  # <b, b> for each basis vector b, Fractions
    form: Vec
    rows: list = field(default_factory=list, repr=False, compare=False)
    index: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return len(self.sparse_basis)

    @cached_property
    def basis(self) -> List[Vec]:
        return [dense(b, len(self.form)) for b in self.sparse_basis]

    def coords_of(self, v: Vec, norms: Vec) -> Optional[Vec]:
        """Coordinates of v over the basis, or None if v falls outside."""
        coords, resid = orthogonal_projection(self, norms, sparse(v))
        return None if resid else dense(coords, self.dim)


def orthogonal_projection(sub: Subspace, norms: Vec, v: Sparse, den: int = 1
                          ) -> Tuple[Sparse, Sparse]:
    """(coordinates <b, u> / <b, b> over the subspace's basis, u minus its
    projection onto the subspace), both sparse, for u = v / den, v sparse,
    and the subspace's own norm vector (else ValueError).  On integers:
    v = w / d is cleared once, B_j's coordinate is T_j / (d den M_j), T_j =
    sum_i d_j b_ji N_i w_i, and the residual one integer accumulator over
    lcm(d_j M_j): one `Fraction` per nonzero output entry."""
    if norms is not sub.form and norms != sub.form:
        raise ValueError("the subspace is B-orthogonal for another form")
    d, w = cleared(v)
    dots: dict = {}
    for i, wi in w:
        for j, u in sub.index.get(i, ()):
            dots[j] = dots.get(j, 0) + u * wi
    if not dots:                        # v is B-orthogonal to the subspace
        return [], over(dict(w), d * den)
    dots = {j: (t, sub.rows[j]) for j, t in sorted(dots.items()) if t}
    lcm = math.lcm(*[dj * mj for _, (_, dj, mj) in dots.values()])
    acc = {i: lcm * wi for i, wi in w}
    for t, (b, dj, mj) in dots.values():
        f = t * (lcm // (dj * mj))
        for i, bi in b:
            acc[i] = acc.get(i, 0) - f * bi
    d *= den
    return ([(j, Fraction(t, d * mj)) for j, (t, (_, _, mj)) in dots.items()],
            over(acc, d * lcm))


def make_subspace(vectors: Iterable[Sparse], norms: Vec) -> Subspace:
    """The span of sparse vectors, B-orthogonalized for the ambient norm
    vector with no normalization, dependent vectors dropped.

    Gram-Schmidt: each vector loses its projection onto the basis so far,
    which, the basis being orthogonal, is the modified process too in
    exact arithmetic.  The cleared rows and the index grow with the basis.
    """
    sub = Subspace([], [], norms)
    e = denominator(norms)
    ints = [c.numerator * (e // c.denominator) for c in norms]
    for v in vectors:
        w = orthogonal_projection(sub, norms, v)[1]
        if w:
            dj, b = cleared(w)
            mj = sum(ints[i] * c * c for i, c in b)
            for i, c in b:
                sub.index.setdefault(i, []).append((sub.dim, dj * c * ints[i]))
            sub.rows.append((b, dj, mj))
            sub.sparse_basis.append(w)
            sub.norms.append(Fraction(mj, dj * dj * e))
    return sub


def sparse_mat_vec(columns: Columns, x: Sparse) -> Sparse:
    """M x for a matrix given by its sparse columns; integer entries give
    integer results."""
    acc: dict = {}
    for j, xj in x:
        for i, c in columns[j]:
            acc[i] = acc.get(i, 0) + xj * c
    return sparse_from(acc)


def combine_columns(coeffs: Sequence, ops: Sequence[Columns],
                    ncols: int) -> Columns:
    """sum_i coeffs_i ops_i for operators of ncols sparse columns each;
    zero terms are skipped."""
    acc: List[dict] = [{} for _ in range(ncols)]
    for c, cols in zip(coeffs, ops):
        if c != 0:
            for out, col in zip(acc, cols):
                for i, x in col:
                    out[i] = out.get(i, 0) + c * x
    return [sparse_from(col) for col in acc]


def column_rows(columns: Columns, nrows: int) -> List[dict]:
    """The rows of an operator given by its sparse columns, as the
    {col: value} dicts that `pivot_rows` reads (it reads a plain list as a
    dense row)."""
    rows: List[dict] = [{} for _ in range(nrows)]
    for j, col in enumerate(columns):
        for i, c in col:
            rows[i][j] = c
    return rows


# ---------------------------------------------------------------------------
# integer forms: rational entries times a common denominator
# ---------------------------------------------------------------------------

def denominator(values: Iterable) -> int:
    """The lcm of the denominators of int or Fraction values; 1 for none."""
    return math.lcm(*[c.denominator for c in values])


def integers(v: Sparse, den: int) -> List[Tuple[int, int]]:
    """den * v as integer entries; den must clear every denominator of v."""
    if den == 1:
        return [(i, c.numerator) for i, c in v]
    return [(i, c.numerator * (den // c.denominator)) for i, c in v]


def cleared(v: Sparse) -> Tuple[int, List[Tuple[int, int]]]:
    """(D, D v as integer entries), D the lcm of v's denominators."""
    den = math.lcm(*[c.denominator for _, c in v])
    return den, integers(v, den)


def cleared_columns(ops: Sequence[Columns]
                    ) -> Tuple[int, List[List[List[Tuple[int, int]]]]]:
    """(D, columns) for operators given by sparse columns: D the lcm of
    every denominator, and each D Op's columns as integer entries (an empty
    column passed on as it is)."""
    den = denominator(c for cols in ops for col in cols for _, c in col)
    return den, [[integers(col, den) if col else col for col in cols]
                 for cols in ops]


# ---------------------------------------------------------------------------
# exact elimination, on primitive integer rows
# ---------------------------------------------------------------------------

def _primitive_row(row) -> dict:
    """The nonzero entries of a dense row or a {col: value} row of int or
    Fraction values, cleared of denominators and divided by their content:
    a primitive integer row."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    row = {k: v for k, v in items if v}
    try:
        content = math.gcd(*row.values())
    except TypeError:                   # a Fraction entry: clear first
        den = denominator(row.values())
        row = {k: v.numerator * (den // v.denominator) for k, v in row.items()}
        content = math.gcd(*row.values())
    return row if content == 1 else {k: v // content for k, v in row.items()}


def _eliminate(row: dict, piv: dict, col: int) -> dict:
    """a row - f piv, with a = piv[col] > 0 and f = row[col] over their
    gcd, divided by its content: column col cleared, and the row's other
    entries scaled by a positive factor."""
    a, f = piv[col], row[col]
    g = math.gcd(a, f)
    a, f = a // g, f // g
    out = {k: a * v for k, v in row.items()} if a != 1 else dict(row)
    for k, v in piv.items():
        nv = out.get(k, 0) - f * v
        if nv:
            out[k] = nv
        else:
            del out[k]
    content = math.gcd(*out.values())
    return out if content <= 1 else {k: v // content for k, v in out.items()}


def _reduce(row: dict, pivots: dict) -> dict:
    """row eliminated at each of its nonzero pivot columns; the pivot rows
    are reduced, so every pivot column of the result is zero."""
    for col in [k for k in row if k in pivots]:
        row = _eliminate(row, pivots[col], col)
    return row


def add_pivot(pivots: dict, row) -> bool:
    """Reduce a row, as in `pivot_rows`, against echelon pivot rows
    {lead: primitive integer row with a positive lead} (not necessarily
    reduced) and add what is left as a pivot row; whether the row was
    independent of them."""
    row = _primitive_row(row)
    while row:
        lead = min(row)
        piv = pivots.get(lead)
        if piv is None:
            if row[lead] < 0:
                row = {k: -v for k, v in row.items()}
            pivots[lead] = row
            return True
        row = _eliminate(row, piv, lead)
    return False


def pivot_rows(rows: Iterable) -> dict:
    """The reduced echelon form of dense or sparse {col: value} rows with
    int or Fraction entries, as {pivot column: primitive integer row with
    a positive pivot}: unique, so it depends only on the span of the rows.

    Each row is cleared once, then reduced against the pivots so far by
    fraction-free steps (Bareiss, Math. Comp. 22, 1968); a sweep of the
    same steps from the last pivot back does the back-substitution.
    """
    pivots: dict = {}
    for row in rows:
        add_pivot(pivots, row)
    for lead in sorted(pivots, reverse=True):
        # the row has no entry left of its lead, and the pivots right of
        # it are reduced already
        pivots[lead] = _reduce(pivots.pop(lead), pivots)
    return pivots


def in_span(row, pivots: dict) -> bool:
    """Whether a dense or {col: value} row lies in the span of the
    reduced pivot rows `pivots` (from `pivot_rows`)."""
    return not _reduce(_primitive_row(row), pivots)


def nullspace(rows: Iterable, ncols: int) -> List[Sparse]:
    """Basis of {x : rows @ x = 0}, rows as in `pivot_rows`: the
    reduced-echelon basis as sparse vectors of Fractions, one per free
    column, in index order with a 1 at the free column and no zero entries
    (the unit vectors for an empty system).

    A reduced pivot row has entries only at its lead and at free columns
    right of it, so the vector of free column f reads -row[f] / row[lead]
    off each pivot row left of f that meets f, and ends with its 1.
    """
    pivots = pivot_rows(rows)
    entries: dict = {}                  # free column -> [(lead, value)]
    for lead in sorted(pivots):
        row = pivots[lead]
        for col, coef in row.items():
            if col != lead:
                entries.setdefault(col, []).append(
                    (lead, Fraction(-coef, row[lead])))
    return [entries.get(fc, []) + [(fc, ONE)]
            for fc in range(ncols) if fc not in pivots]


def rank(rows: Mat) -> int:
    return len(pivot_rows(rows))


def same_span(basis_a: List[Vec], basis_b: List[Vec]) -> bool:
    """Whether two spanning sets span one space: their reduced echelon
    forms, which depend only on the span, are equal."""
    return pivot_rows(basis_a) == pivot_rows(basis_b)


# ---------------------------------------------------------------------------
# least squares w.r.t. a Gram matrix
# ---------------------------------------------------------------------------

def least_squares(columns: Sequence, rhs, gram: Mat
                  ) -> Tuple[Tuple[List[int], int], Tuple[int, int]]:
    """Minimize ||sum_j x_j col_j - rhs||^2 for a PSD Gram matrix, columns
    and rhs dense lists or {index: value} dicts: ((y, D), (r, s)) in
    integers, x = y / D (D > 0, x_j = 0 at free and zero columns) and the
    squared residual r / s.  A symmetric Bareiss elimination (Math. Comp.
    22, 1968) of M = [C | b]^T G [C | b], G read where supports meet and M
    cleared by one lcm, divides each step by the previous pivot.  M is PSD:
    a zero pivot's row is zero, and it is skipped with the divisor kept
    (else, or at a negative pivot, ArithmeticError).  Over the pivots I,
    r / s = det M_(I+b) / det M_I and D = det N_II."""
    vecs = [[(i, c) for i, c in (v.items() if isinstance(v, dict)
                                 else enumerate(v)) if c]
            for v in (*columns, rhs)]
    live = [j for j, v in enumerate(vecs) if v or j == len(columns)]
    vecs, n = [vecs[j] for j in live], len(live)
    m = [[0] * n for _ in vecs]
    for k, x in enumerate(vecs):
        for j in range(k, n):
            s = 0
            for i, xi in x:
                grow = gram[i]
                for l, yl in vecs[j]:
                    s += xi * grow[l] * yl
            m[k][j] = s
    den = 1
    if type(sum(map(sum, m))) is not int:               # a Fraction entry
        den = denominator(c for row in m for c in row)
        m = [[c.numerator * (den // c.denominator) for c in row] for row in m]
    prev, pivots = 1, []
    for k in range(n - 1):
        mk, a = m[k], m[k][k]
        if a <= 0:
            if a or any(mk[k + 1:]):
                raise ArithmeticError("the Gram matrix is not PSD")
            continue
        for i, f in enumerate(mk[k + 1:], k + 1):
            m[i][i:] = [(a * u - f * v) // prev
                        for u, v in zip(m[i][i:], mk[i:])]
        prev = a
        pivots.append(k)
    if m[-1][-1] < 0:
        raise ArithmeticError("the Gram matrix is not PSD")
    y, z = [0] * len(columns), [0] * n          # z: y over the live columns
    for k in reversed(pivots):
        z[k] = y[live[k]] = (prev * m[k][-1] - sum(
            map(operator.mul, m[k][k + 1:-1], z[k + 1:]))) // m[k][k]
    return (y, prev), (m[-1][-1], prev * den)


# ---------------------------------------------------------------------------
# positive definiteness (Sylvester, fraction-free elimination)
# ---------------------------------------------------------------------------

def sym_positive_definite(m: Sequence) -> bool:
    """Positive definiteness of a symmetric matrix given by dense rows or
    sparse {col: value} rows, with int or Fraction entries.

    Elimination without pivoting on primitive integer rows, by the
    fraction-free steps of `pivot_rows`.  A step adds a multiple of
    the pivot row and scales the row by a positive factor, so the k-th
    pivot has the sign of the ratio of the (k+1)-th to the k-th leading
    principal minor: all pivots are positive iff all those minors are.
    Without pivoting no step fills across the blocks of a block-diagonal
    matrix, so one call costs what one call per block would."""
    rows = [_primitive_row(r) for r in m]
    for k, pivot_row in enumerate(rows):
        if pivot_row.get(k, 0) <= 0:
            return False
        for i in range(k + 1, len(rows)):
            if k in rows[i]:
                rows[i] = _eliminate(rows[i], pivot_row, k)
    return True


# ---------------------------------------------------------------------------
# minimal polynomial and rational eigen-splitting
# ---------------------------------------------------------------------------

def minimal_polynomial(op: Columns) -> List[Fraction]:
    """Monic minimal polynomial of a rational operator given by its sparse
    columns, low degree first.

    Computed as the lcm of the local minimal polynomials of the unit
    vectors (Krylov dependences found by exact elimination).
    """
    poly = [ONE]                      # constant 1 = minpoly of the zero space
    for start in range(len(op)):
        # apply current poly(op) to e_start; if already killed, skip
        w = _apply_poly(op, poly, [(start, ONE)])
        if w:
            poly = _poly_mul(poly, _cyclic_minpoly(op, w))
    return poly


def _apply_poly(op: Columns, poly: Sequence[Fraction], v: Sparse) -> Sparse:
    # poly given low degree first
    acc: dict = {}
    for c in poly:
        if c != 0:
            for i, x in v:
                acc[i] = acc.get(i, 0) + c * x
        v = sparse_mat_vec(op, v)
    return sparse_from(acc)


def _cyclic_minpoly(op: Columns, v: Sparse) -> List[Fraction]:
    """The first op^d v in the span of v, ..., op^(d-1) v, as the monic
    polynomial of that dependence.  The system's rows hold the Krylov
    vectors as columns 0 .. d - 1, independent so far and so all pivots,
    and op^d v in column d; op^d v is in their span iff column d holds no
    pivot, and then pivot row p reads row[p] c_p = row[d] for the
    coefficient c_p of op^p v."""
    rows: dict = {}                   # coordinate -> {Krylov index: value}
    for d in range(1, len(op) + 1):
        for i, c in v:
            rows.setdefault(i, {})[d - 1] = c
        v = sparse_mat_vec(op, v)
        system = {i: dict(row) for i, row in rows.items()}
        for i, c in v:
            system.setdefault(i, {})[d] = c
        pivots = pivot_rows(system.values())
        if d not in pivots:
            # op^d v = sum c_p op^p v  ->  x^d - sum c_p x^p
            return [Fraction(-pivots[p].get(d, 0), pivots[p][p])
                    for p in range(d)] + [ONE]
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


def eigen_split(op: Columns) -> Optional[List[Tuple[Fraction, List[Vec]]]]:
    """Exact eigenspace decomposition of a rational operator given by its
    sparse columns.

    Returns [(eigenvalue, sparse reduced-echelon eigenbasis)] sorted by
    eigenvalue, over the rational roots of the minimal polynomial, or None when the eigenspaces
    do not span: an irrational root or a Jordan block leaves the dimensions
    short of n, and full span already means the minimal polynomial is a
    product of distinct rational linear factors.
    """
    n = len(op)
    rows = column_rows(op, n)
    out = []
    for lam in rational_roots(minimal_polynomial(op)):
        shifted = [dict(row) for row in rows]
        for i, row in enumerate(shifted):
            row[i] = row.get(i, ZERO) - lam
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
