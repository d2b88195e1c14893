"""Exact linear algebra kernels behind everything else."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from go_metric_lab import decomp, lie_core, linalg, stiefel

from oracles import (columns, dense_eigen_split, dense_minimal_polynomial,
                     dense_op, fraction_least_squares, fraction_nullspace,
                     fraction_positive_definite, gram_dot, identity,
                     least_squares_fractions, rref, rref_nullspace,
                     rref_pivot_rows, rref_solve, solve_consistent, vec_add)


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def dense_basis(vectors, n):
    return [linalg.dense(v, n) for v in vectors]


def dense_split(split, n):
    """An `eigen_split` result with dense eigenbases."""
    return None if split is None else [(lam, dense_basis(b, n))
                                       for lam, b in split]


def test_rref_and_nullspace_small():
    rows = frac_matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    red, pivots = rref(rows)
    assert pivots == [0, 1]
    ns = linalg.nullspace(rows, 3)
    assert len(ns) == 1
    for row in rows:
        assert linalg.dot(row, linalg.dense(ns[0], 3)) == 0


def test_nullspace_of_empty_system():
    assert linalg.nullspace([], 3) == [[(i, 1)] for i in range(3)]
    assert dense_basis(linalg.nullspace([], 3), 3) == identity(3)


def test_solve_consistent_and_inconsistent():
    a = frac_matrix([[1, 1], [0, 1]])
    x = solve_consistent(a, [Fraction(3), Fraction(1)])
    assert x == [Fraction(2), Fraction(1)]
    a = frac_matrix([[1, 1], [1, 1]])
    assert solve_consistent(a, [Fraction(0), Fraction(1)]) is None


def _entry(rng, kind):
    """A random entry, zero about a third of the time."""
    if rng.random() < 0.35:
        return 0 if kind == "int" else Fraction(0)
    if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
        return rng.randint(-4, 4)
    return Fraction(rng.randint(-4, 4), rng.randint(1, 5))


def _random_system(rng):
    """Seeded rows with int, Fraction or mixed entries: some rows are zero
    and some repeat combinations of earlier rows, so the rank falls short."""
    kind = rng.choice(["int", "fraction", "mixed"])
    nrows, ncols = rng.randint(1, 7), rng.randint(1, 6)
    rows = []
    for _ in range(nrows):
        roll = rng.random()
        if roll < 0.1:
            rows.append([0] * ncols)
        elif roll < 0.35 and rows:
            c1, c2 = _entry(rng, kind), _entry(rng, kind)
            r1, r2 = rng.choice(rows), rng.choice(rows)
            rows.append([c1 * a + c2 * b for a, b in zip(r1, r2)])
        else:
            rows.append([_entry(rng, kind) for _ in range(ncols)])
    return kind, rows, ncols


def test_elimination_matches_rref_oracle():
    # pivot rows, solutions (free variables at 0), rank, span and nullspace
    # of the one integer elimination against dense Fraction Gauss-Jordan
    seen = {"deficient": 0, "consistent": 0, "inconsistent": 0,
            "zero row": 0, "same span": 0, "other span": 0}
    kinds = set()
    for seed in range(400):
        rng = random.Random(f"elimination:{seed}")
        kind, a, ncols = _random_system(rng)
        kinds.add(kind)
        pivots = linalg.pivot_rows(a)
        assert pivots == rref_pivot_rows(a)
        assert all(row[p] > 0 for p, row in pivots.items())
        rank = len(rref(a)[1])
        assert linalg.rank(a) == rank
        seen["deficient"] += rank < min(len(a), ncols)
        seen["zero row"] += any(not any(row) for row in a)
        null = rref_nullspace(a, ncols)
        # sparse: index order, a 1 at the free column, no zero entries
        sparse_null = [linalg.sparse(v) for v in null]
        assert linalg.nullspace(a, ncols) == sparse_null
        assert dense_basis(linalg.nullspace(a, ncols), ncols) == null
        sparse_rows = [{j: c for j, c in enumerate(row) if c} for row in a]
        assert linalg.nullspace(sparse_rows, ncols) == sparse_null
        assert all(type(c) is Fraction for v in null for c in v)
        assert all(type(c) is Fraction
                   for v in linalg.nullspace(a, ncols) for _, c in v)
        # consistent right-hand sides a @ x, and random ones
        x = [_entry(rng, kind) for _ in range(ncols)]
        for b in ([linalg.dot(row, x) for row in a],
                  [_entry(rng, kind) for _ in a]):
            got = solve_consistent(a, b)
            assert got == rref_solve(a, b)
            if got is None:
                seen["inconsistent"] += 1
            else:
                seen["consistent"] += 1
                assert all(type(c) is Fraction for c in got)
                assert [linalg.dot(row, got) for row in a] == b
        # the reversed rows span the same space, combinations of them the
        # same one or a smaller one, and x appended may leave it
        combo = [[sum(_entry(rng, kind) * row[j] for row in a)
                  for j in range(ncols)] for _ in range(rng.randint(0, 3))]
        for other in (a[::-1], combo, combo + [x]):
            same = rank == len(rref(other)[1]) == len(rref(a + other)[1])
            assert linalg.same_span(a, other) == same
            seen["same span" if same else "other span"] += 1
    assert kinds == {"int", "fraction", "mixed"}
    assert all(seen.values()), seen


def test_elimination_of_the_empty_system():
    assert linalg.pivot_rows([]) == {}
    assert solve_consistent([], []) == rref_solve([], []) == []
    assert linalg.rank([]) == 0
    assert linalg.same_span([], [])
    assert not linalg.same_span([], [[0, 1]])
    assert linalg.same_span([[0, 0]], [])
    assert (dense_basis(linalg.nullspace([], 2), 2) == rref_nullspace([], 2)
            == identity(2))


def test_every_exact_solve_reaches_the_one_pivot_routine(monkeypatch):
    calls = []
    pivot_rows = linalg.pivot_rows

    def counted(rows):
        calls.append(1)
        return pivot_rows(rows)

    monkeypatch.setattr(linalg, "pivot_rows", counted)
    a = frac_matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])

    def count(fn, *args):
        del calls[:]
        fn(*args)
        return len(calls)

    g = lie_core.build_un(2)
    assert count(solve_consistent, a, [1, 2, 0]) == 1
    assert count(linalg.rank, a) == 1
    assert count(linalg.same_span, a, a[:2]) == 2
    assert count(linalg.nullspace, a, 3) == 1
    assert count(linalg.nullspace, [{0: 1, 2: 1}], 3) == 1
    assert count(decomp.subalgebra, g, identity(g.dim)) == 1
    # least squares runs its own symmetric elimination, not `pivot_rows`
    assert count(linalg.least_squares, a, [1, 0, 0], identity(3)) == 0
    assert count(linalg.minimal_polynomial, columns(a)) >= 1


@given(st.integers(0, 10 ** 6))
def test_sparse_nullspace_matches_dense(seed):
    # dense and sparse rows give the reduced-echelon basis, which is unique
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
    rows = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4))
             for _ in range(ncols)] for _ in range(nrows)]
    sparse_rows = [{j: c for j, c in enumerate(row) if c != 0} for row in rows]
    dense = dense_basis(linalg.nullspace(rows, ncols), ncols)
    sparse = dense_basis(linalg.nullspace(sparse_rows, ncols), ncols)
    assert sparse == dense == fraction_nullspace(sparse_rows, ncols)
    assert all(type(c) is Fraction for v in sparse for c in v)
    for v in sparse:
        for row in rows:
            assert linalg.dot(row, v) == 0


def test_least_squares_exact_projection():
    gram = identity(3)
    cols = [[Fraction(1), Fraction(0), Fraction(0)],
            [Fraction(0), Fraction(1), Fraction(0)]]
    rhs = [Fraction(2), Fraction(3), Fraction(5)]
    x, res_sq = least_squares_fractions(
        linalg.least_squares(cols, rhs, gram))
    assert x == [Fraction(2), Fraction(3)]
    assert res_sq == 25


def test_least_squares_weighted():
    gram = frac_matrix([[2, 0], [0, 4]])
    cols = [[Fraction(1), Fraction(1)]]
    rhs = [Fraction(1), Fraction(0)]
    x, res_sq = least_squares_fractions(
        linalg.least_squares(cols, rhs, gram))
    # minimize 2(x-1)^2 + 4 x^2 -> x = 1/3, value 2(2/3)^2 + 4(1/3)^2 = 4/3
    assert x == [Fraction(1, 3)]
    assert res_sq == Fraction(4, 3)


def _positive(rng, kind):
    if kind == "int" or (kind == "mixed" and rng.random() < 0.5):
        return rng.randint(1, 5)
    return Fraction(rng.randint(1, 5), rng.randint(1, 4))


def _random_gram(rng, kind, n, diagonal):
    """A symmetric positive definite n x n Gram matrix: a positive diagonal
    D, or P^T D P for a seeded integer P of full rank."""
    d = [_positive(rng, kind) for _ in range(n)]
    if diagonal:
        return [[d[i] if i == j else 0 for j in range(n)] for i in range(n)]
    while True:
        p = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if linalg.rank(p) == n:
            return [[sum(p[k][i] * d[k] * p[k][j] for k in range(n))
                     for j in range(n)] for i in range(n)]


def test_least_squares_matches_dense_fraction_oracle():
    # the symmetric fraction-free kernel (M = [C | b]^T G [C | b] over the
    # column supports, residual det M_(I+b) / det M_I) against dense
    # Fraction normal equations over full Gram rows and the residual
    # vector's norm, exactly
    seen = {"diagonal": 0, "non-diagonal": 0, "zero column": 0,
            "repeated column": 0, "no columns": 0, "consistent": 0,
            "deficient": 0, "positive residual": 0}
    kinds = set()
    for seed in range(300):
        rng = random.Random(f"least-squares:{seed}")
        kind = rng.choice(["int", "fraction", "mixed"])
        kinds.add(kind)
        n, p = rng.randint(1, 6), rng.choice([0, 1, 2, 3, 4, 5])
        diagonal = rng.random() < 0.5
        gram = _random_gram(rng, kind, n, diagonal)
        cols = []
        for _ in range(p):
            roll = rng.random()
            if roll < 0.1:
                cols.append([0] * n)
            elif roll < 0.3 and cols:
                c1, c2 = _entry(rng, kind), _entry(rng, kind)
                r1, r2 = rng.choice(cols), rng.choice(cols)
                cols.append(list(r1) if roll < 0.2
                            else [c1 * a + c2 * b for a, b in zip(r1, r2)])
            else:
                cols.append([_entry(rng, kind) for _ in range(n)])
        if cols and rng.random() < 0.25:
            coeffs = [_entry(rng, kind) for _ in cols]
            rhs = [sum(c * col[i] for c, col in zip(coeffs, cols))
                   for i in range(n)]
        else:
            rhs = [_entry(rng, kind) for _ in range(n)]
        x, res = least_squares_fractions(linalg.least_squares(cols, rhs, gram))
        assert (x, res) == fraction_least_squares(cols, rhs, gram)
        seen["diagonal" if diagonal else "non-diagonal"] += 1
        seen["zero column"] += any(not any(c) for c in cols)
        seen["repeated column"] += any(cols[i] == cols[j] and any(cols[i])
                                       for j in range(len(cols))
                                       for i in range(j))
        seen["no columns"] += not cols
        seen["consistent"] += res == 0 and any(rhs)
        seen["deficient"] += linalg.rank(cols) < len(cols)
        seen["positive residual"] += res > 0
    assert kinds == {"int", "fraction", "mixed"}
    assert all(seen.values()), seen


def test_least_squares_without_columns():
    assert linalg.least_squares([], [1], [[1]]) == (([], 1), (1, 1))
    assert least_squares_fractions(
        linalg.least_squares([], [3, 1], [[2, 1], [1, 2]])) == ([], 26)


def _det(m):
    """Leibniz's determinant of a small square matrix."""
    return sum(math.prod(m[i][j] for i, j in enumerate(perm))
               * (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
               for perm in itertools.permutations(range(len(m))))


def test_least_squares_skips_a_dependent_column_between_pivots():
    # p = 4 over a non-diagonal Gram, so the pivots are minors other than
    # 1: column 1 is 3 col_0, a zero pivot between two used ones, skipped
    # with the divisor kept; D is det N_II over the pivots I = {0, 2, 3}.
    # The same system in Fractions is cleared by one lcm, and a right-hand
    # side in the span has residual 0
    gram = [[2, 1, 0, 0], [1, 3, 1, 0], [0, 1, 4, 1], [0, 0, 1, 5]]
    c0, c2, c3 = [1, 2, 0, 1], [0, 1, -1, 2], [1, 0, 2, -1]
    cols = [c0, [3 * v for v in c0], c2, c3]
    pivots = [c0, c2, c3]
    normal = [[gram_dot(gram, a, b) for b in pivots] for a in pivots]
    half = [[Fraction(v, 2) for v in row] for row in gram]
    thirds = [[Fraction(v, 3) for v in col] for col in cols]
    in_span = [a - 2 * b + 3 * c for a, b, c in zip(c0, c2, c3)]
    for cols, rhs, gram in [(cols, [3, -1, 2, 5], gram),
                            (thirds, [3, -1, 2, 5], half),
                            (cols, in_span, gram)]:
        (y, d), (r, s) = solved = linalg.least_squares(cols, rhs, gram)
        x, res = least_squares_fractions(solved)
        assert (x, res) == fraction_least_squares(cols, rhs, gram)
        assert y[1] == 0 and x[0] and x[2] and x[3]
        assert (res == 0) == (rhs is in_span)
        if gram is not half:
            assert d == _det(normal) > 1


def test_least_squares_refuses_a_gram_that_is_not_psd():
    # a negative first pivot, a zero pivot whose row is not zero, a
    # negative residual and a negative second pivot
    neg = [[1, 0], [0, -1]]
    for cols, rhs, gram in [([[0, 1]], [1, 0], neg),
                            ([[1, 0]], [0, 1], [[0, 1], [1, 0]]),
                            ([], [0, 1], neg),
                            ([[1, 0], [0, 1]], [1, 1], neg)]:
        with pytest.raises(ArithmeticError):
            linalg.least_squares(cols, rhs, gram)


def test_gram_schmidt_orthogonalizes():
    # `make_subspace` is the Gram-Schmidt process, on sparse vectors
    gram = frac_matrix([[2, 0, 0], [0, 2, 0], [0, 0, 4]])
    vecs = frac_matrix([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    sub = linalg.make_subspace(map(linalg.sparse, vecs),
                               [gram[i][i] for i in range(3)])
    basis = sub.basis
    assert len(basis) == 3
    assert sub.sparse_basis == [linalg.sparse(b) for b in basis]
    assert sub.norms == [gram_dot(gram, b, b) for b in basis]
    assert basis[0] == vecs[0] and linalg.same_span(basis, vecs)
    for i in range(3):
        for j in range(i + 1, 3):
            assert gram_dot(gram, basis[i], basis[j]) == 0


def test_gram_schmidt_drops_dependent():
    vecs = frac_matrix([[1, 1], [2, 2], [1, 0]])
    sub = linalg.make_subspace(map(linalg.sparse, vecs), [1, 1])
    assert sub.dim == len(sub.norms) == 2


def test_projection_stays_exact_on_integer_input():
    # integer vectors and norms give Fraction norms, coordinates and
    # residuals, never a float from an integer division
    plane = linalg.make_subspace([[(0, 1), (1, 1)], [(1, 3)]], [1, 2])
    assert plane.norms == [3, 6]
    assert linalg.orthogonal_projection(plane, [1, 2], [(0, 1), (1, 2)]) == (
        [(0, Fraction(5, 3)), (1, Fraction(1, 3))], [])
    line = linalg.make_subspace([[(0, 1), (1, 1)]], [1, 2])
    coords, resid = linalg.orthogonal_projection(line, [1, 2], [(0, 1)])
    assert coords == [(0, Fraction(1, 3))]
    assert resid == [(0, Fraction(2, 3)), (1, Fraction(-1, 3))]
    assert all(type(c) is Fraction
               for _, c in coords + resid + list(enumerate(plane.norms)))


def test_sym_positive_definite():
    assert linalg.sym_positive_definite(frac_matrix([[2, 1], [1, 2]]))
    assert not linalg.sym_positive_definite(frac_matrix([[1, 2], [2, 1]]))
    assert not linalg.sym_positive_definite(frac_matrix([[0, 0], [0, 1]]))
    assert linalg.sym_positive_definite([])


def test_primitive_row_is_the_same_for_int_fraction_and_mixed_rows():
    want = {0: 3, 2: -2, 3: 5}
    for row in ([6, 0, -4, 10], [Fraction(c, 7) for c in (6, 0, -4, 10)],
                [6, Fraction(0), Fraction(-8, 2), 10],
                [Fraction(3, 2), 0, -1, Fraction(5, 2)],
                {0: 6, 2: -4, 3: 10}, {0: 6, 2: Fraction(-4), 3: 10}):
        got = linalg._primitive_row(row)
        assert got == want and all(type(v) is int for v in got.values())
    row = {0: 3, 1: -2}             # primitive already: an equal new dict
    got = linalg._primitive_row(row)
    assert got == row and got is not row
    # integer forms, dense and sparse: indefinite, zero pivots, PD
    assert not linalg.sym_positive_definite([[1, 2], [2, 1]])
    assert not linalg.sym_positive_definite([[2, 1], [1, 0]])
    assert not linalg.sym_positive_definite([[0, 0], [0, 1]])
    assert not linalg.sym_positive_definite([{1: 2}, {0: 2, 1: 3}])
    assert not linalg.sym_positive_definite([[4, 2], [2, 1]])
    assert linalg.sym_positive_definite([{0: 2, 1: 1}, {0: 1, 1: 2}])


def bareiss_positive_definite(m):
    """Dense oracle: every leading principal minor positive, by Bareiss."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    prev = Fraction(1)
    for k in range(n):
        if a[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
        prev = a[k][k]
    return True


def _random_rational(rng):
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def _gram_of(rows, n, shift=0):
    """B^T B + shift I for the rows of B: PSD, PD when shift > 0."""
    return [[sum((r[i] * r[j] for r in rows), Fraction(0))
             + (shift if i == j else 0) for j in range(n)] for i in range(n)]


def _pd_cases(rng):
    n = rng.randint(2, 7)
    full = [[_random_rational(rng) for _ in range(n)] for _ in range(n + 1)]
    low = [[_random_rational(rng) for _ in range(n)] for _ in range(n - 1)]
    pd = _gram_of(full, n, shift=Fraction(1, rng.randint(1, 5)))
    indefinite = [row[:] for row in pd]
    indefinite[n - 1][n - 1] = -sum(abs(x) for x in pd[n - 1]) - 1
    b1 = _gram_of([[_random_rational(rng) for _ in range(2)] for _ in range(3)],
                  2, shift=1)
    b2 = _gram_of(low[:2], n, shift=rng.choice([0, 1]))
    block = [row + [Fraction(0)] * n for row in b1] + [
        [Fraction(0)] * 2 + row for row in b2]
    return {"pd": (pd, True), "singular psd": (_gram_of(low, n), False),
            "indefinite": (indefinite, False), "block diagonal": (block, None),
            "dense": ([[_random_rational(rng) for _ in range(n)]
                       for _ in range(n)], None)}


def test_sym_positive_definite_matches_bareiss():
    rng = random.Random("sym-pd-oracle")
    seen = {}
    for _ in range(150):
        for kind, (m, expect) in _pd_cases(rng).items():
            if kind == "dense":           # symmetrize a random matrix
                m = [[m[i][j] + m[j][i] for j in range(len(m))]
                     for i in range(len(m))]
            verdict = linalg.sym_positive_definite(m)
            assert verdict == bareiss_positive_definite(m), (kind, m)
            if expect is not None:
                assert verdict == expect, (kind, m)
            assert kind != "indefinite" or m[0][0] > 0
            seen.setdefault(kind, set()).add(verdict)
    assert seen["block diagonal"] == seen["dense"] == {True, False}
    for m in ([], [[Fraction(3)]], [[Fraction(0)]], [[Fraction(-1, 2)]]):
        assert linalg.sym_positive_definite(m) == bareiss_positive_definite(m)


def test_integer_positive_definite_matches_fraction_oracle():
    # the fraction-free elimination against the Fraction LDL^T and Bareiss,
    # on dense rows and on the sparse {col: value} rows of the same matrix
    rng = random.Random("integer-pd-oracle")
    seen = {}
    for _ in range(150):
        for kind, (m, _) in _pd_cases(rng).items():
            if kind == "dense":
                m = [[m[i][j] + m[j][i] for j in range(len(m))]
                     for i in range(len(m))]
            verdict = linalg.sym_positive_definite(m)
            sparse_rows = [{j: x for j, x in enumerate(row) if x}
                           for row in m]
            assert verdict == linalg.sym_positive_definite(sparse_rows)
            assert verdict == fraction_positive_definite(m), (kind, m)
            assert verdict == bareiss_positive_definite(m), (kind, m)
            seen.setdefault(kind, set()).add(verdict)
    assert seen["pd"] == {True}
    assert seen["singular psd"] == seen["indefinite"] == {False}
    assert seen["block diagonal"] == seen["dense"] == {True, False}
    for m in ([], [[Fraction(3)]], [[Fraction(0)]], [[Fraction(-1, 2)]],
              [[2]], [[Fraction(1, 3), 1], [1, 4]]):
        assert (linalg.sym_positive_definite(m)
                == fraction_positive_definite(m)
                == bareiss_positive_definite(m))


def test_minimal_polynomial_diagonal():
    op = frac_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 3]])
    poly = linalg.minimal_polynomial(columns(op))
    # (x - 1)(x - 3) = 3 - 4x + x^2
    assert poly == [Fraction(3), Fraction(-4), Fraction(1)]


def test_eigen_split_rational():
    op = frac_matrix([[2, 1], [1, 2]])
    split = linalg.eigen_split(columns(op))
    assert split is not None
    assert [lam for lam, _ in split] == [1, 3]
    assert all(len(basis) == 1 for _, basis in split)


def test_eigen_split_refuses_irrational():
    op = frac_matrix([[0, 1], [1, 1]])      # golden-ratio spectrum
    assert linalg.eigen_split(columns(op)) is None


def test_eigen_split_refuses_a_jordan_block():
    # minimal polynomial (x - 1)^2: the one eigenvalue is rational, but its
    # eigenspace has dimension 1 of 2
    assert linalg.eigen_split(columns(frac_matrix([[1, 1], [0, 1]]))) is None


def test_eigen_split_with_multiplicity():
    op = frac_matrix([[5, 0, 0], [0, 5, 0], [0, 0, 7]])
    split = linalg.eigen_split(columns(op))
    assert [(lam, len(b)) for lam, b in split] == [(5, 2), (7, 1)]


def test_rational_roots_with_hints():
    # (x - 1/2)(x - 3)
    poly = [Fraction(3, 2), Fraction(-7, 2), Fraction(1)]
    roots = linalg.rational_roots(poly)
    assert roots == [Fraction(1, 2), Fraction(3)]


def test_eigen_split_finds_the_eigenvalue_zero():
    split = linalg.eigen_split(columns(frac_matrix([[0, 0], [0, 1]])))
    assert split == [(0, [[(0, 1)]]), (1, [[(1, 1)]])]
    assert dense_split(split, 2) == [(0, [[1, 0]]), (1, [[0, 1]])]


def _linear_product(factors):
    # prod (q x - p), low degree first
    poly = [Fraction(1)]
    for p, q in factors:
        poly = linalg._poly_mul(poly, [Fraction(-p), Fraction(q)])
    return poly


def test_rational_roots_have_no_coefficient_cap():
    assert linalg.rational_roots(_linear_product([(1000003, 1), (2, 1)])) == [
        2, 1000003]
    assert linalg.rational_roots(_linear_product([(1, 1000003), (5, 1)])) == [
        Fraction(1, 1000003), 5]


@given(st.lists(st.tuples(st.integers(-50, 50), st.integers(1, 12)),
                max_size=5),
       st.booleans())
def test_rational_roots_are_exactly_the_rational_factors(factors, irrational):
    poly = _linear_product(factors)
    if irrational:
        poly = linalg._poly_mul(poly, [Fraction(-2), Fraction(0), Fraction(1)])
    assert linalg.rational_roots(poly) == sorted(
        {Fraction(p, q) for p, q in factors})


def test_frac_string_round_trip():
    for x in (Fraction(3, 4), Fraction(-7, 2), Fraction(0), Fraction(5)):
        assert linalg.frac_from_str(linalg.frac_to_str(x)) == x
    assert linalg.frac_from_str("3") == 3


@given(st.lists(st.integers(-9, 9), min_size=4, max_size=4))
def test_span_contains_its_combinations(coeffs):
    basis = frac_matrix([[1, 0, 2, 0], [0, 1, 1, 1]])
    v = vec_add(linalg.vec_scale(Fraction(coeffs[0]), basis[0]),
                linalg.vec_scale(Fraction(coeffs[1]), basis[1]))
    assert linalg.same_span(basis, basis + [v])
    outside = [Fraction(coeffs[2]), Fraction(coeffs[3]), Fraction(0), Fraction(1)]
    # outside unless it happens to solve the system
    cols = linalg.transpose(basis)
    expect = solve_consistent(cols, outside) is not None
    assert linalg.same_span(basis, basis + [outside]) == expect


def _inverse(p):
    n = len(p)
    cols = [solve_consistent(p, linalg.unit_vec(n, i)) for i in range(n)]
    return linalg.transpose(cols)


def _conjugated(rng, j):
    """P J P^-1 for a seeded integer P of full rank."""
    n = len(j)
    while True:
        p = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        if linalg.rank(p) == n:
            break
    return linalg.mat_mul(linalg.mat_mul(p, j), _inverse(p))


def _recorded_candidates(monkeypatch, two_torus):
    """Every operator `eigen_split` is asked to split while building (3,2),
    (4,2), (4,3) and the two-torus space, ideal splits included."""
    seen = []
    eigen_split = linalg.eigen_split

    def recorded(op):
        seen.append(op)
        return eigen_split(op)

    monkeypatch.setattr(linalg, "eigen_split", recorded)
    decs = [stiefel.build_stiefel(n, k).decomp
            for n, k in [(3, 2), (4, 2), (4, 3)]]
    decs.append(two_torus())
    for dec in decs:
        dec.ideals
    monkeypatch.undo()
    return seen


def test_column_krylov_matches_dense_oracle(monkeypatch, two_torus):
    # the sparse-column minimal polynomial and eigen-split against the
    # dense Krylov references, on conjugated rational spectra (repeated
    # eigenvalues lower the degree), on defective and irrational operators
    # (both refused) and on every splitting candidate of four builds
    rng = random.Random("column-krylov")
    cases = []
    for _ in range(40):
        n = rng.randint(1, 6)
        values = [Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
                  for _ in range(rng.randint(1, n))]
        diag = values + [rng.choice(values) for _ in range(n - len(values))]
        rng.shuffle(diag)
        d = [[diag[i] if i == j else Fraction(0) for j in range(n)]
             for i in range(n)]
        cases.append((_conjugated(rng, d), sorted(set(diag))))
    # a 2 x 2 Jordan block at 2 beside -1, and the pair +/- sqrt(2) beside 5
    jordan = _conjugated(rng, frac_matrix([[2, 1, 0], [0, 2, 0], [0, 0, -1]]))
    irrational = _conjugated(rng, frac_matrix([[0, 2, 0], [1, 0, 0],
                                               [0, 0, 5]]))
    for op, spectrum in cases:
        poly = linalg.minimal_polynomial(columns(op))
        assert poly == dense_minimal_polynomial(op)
        assert len(poly) == len(spectrum) + 1
        split = linalg.eigen_split(columns(op))
        assert dense_split(split, len(op)) == dense_eigen_split(op)
        assert [lam for lam, _ in split] == spectrum
    for op, poly in ((jordan, [4, 0, -3, 1]), (irrational, [10, -2, -5, 1])):
        assert linalg.minimal_polynomial(columns(op)) == poly \
            == dense_minimal_polynomial(op)
        assert linalg.eigen_split(columns(op)) is None
        assert dense_eigen_split(op) is None
    candidates = _recorded_candidates(monkeypatch, two_torus)
    assert len(candidates) > 10
    for cand in candidates:
        dense = dense_op(cand, len(cand))
        assert linalg.minimal_polynomial(cand) == dense_minimal_polynomial(dense)
        assert (dense_split(linalg.eigen_split(cand), len(cand))
                == dense_eigen_split(dense))
