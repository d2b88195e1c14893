"""Exact linear algebra kernels behind everything else."""

import random
from fractions import Fraction

from hypothesis import given, strategies as st

from go_metric_lab import linalg


def frac_matrix(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_rref_and_nullspace_small():
    rows = frac_matrix([[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    red, pivots = linalg.rref(rows)
    assert pivots == [0, 1]
    ns = linalg.nullspace(rows, 3)
    assert len(ns) == 1
    for row in rows:
        assert linalg.dot(row, ns[0]) == 0


def test_nullspace_of_empty_system():
    assert linalg.nullspace([], 3) == linalg.identity(3)


def test_solve_consistent_and_inconsistent():
    a = frac_matrix([[1, 1], [0, 1]])
    x = linalg.solve_consistent(a, [Fraction(3), Fraction(1)])
    assert x == [Fraction(2), Fraction(1)]
    a = frac_matrix([[1, 1], [1, 1]])
    assert linalg.solve_consistent(a, [Fraction(0), Fraction(1)]) is None


@given(st.integers(0, 10 ** 6))
def test_sparse_nullspace_matches_dense(seed):
    rng = random.Random(seed)
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
    rows = [[Fraction(rng.randint(-3, 3)) for _ in range(ncols)]
            for _ in range(nrows)]
    sparse_rows = [{j: c for j, c in enumerate(row) if c != 0} for row in rows]
    dense = linalg.nullspace(rows, ncols)
    sparse = linalg.sparse_nullspace(sparse_rows, ncols)
    assert len(dense) == len(sparse)
    for v in sparse:
        for row in rows:
            assert linalg.dot(row, v) == 0


def test_least_squares_exact_projection():
    gram = linalg.identity(3)
    cols = [[Fraction(1), Fraction(0), Fraction(0)],
            [Fraction(0), Fraction(1), Fraction(0)]]
    rhs = [Fraction(2), Fraction(3), Fraction(5)]
    x, res_sq = linalg.least_squares(cols, rhs, gram)
    assert x == [Fraction(2), Fraction(3)]
    assert res_sq == 25


def test_least_squares_weighted():
    gram = frac_matrix([[2, 0], [0, 4]])
    cols = [[Fraction(1), Fraction(1)]]
    rhs = [Fraction(1), Fraction(0)]
    x, res_sq = linalg.least_squares(cols, rhs, gram)
    # minimize 2(x-1)^2 + 4 x^2 -> x = 1/3, value 2(2/3)^2 + 4(1/3)^2 = 4/3
    assert x == [Fraction(1, 3)]
    assert res_sq == Fraction(4, 3)


def test_gram_schmidt_orthogonalizes():
    gram = frac_matrix([[2, 0, 0], [0, 2, 0], [0, 0, 4]])
    vecs = frac_matrix([[1, 1, 0], [1, 0, 1], [0, 1, 1]])
    basis = linalg.gram_schmidt(vecs, [gram[i][i] for i in range(3)])
    assert len(basis) == 3
    for i in range(3):
        for j in range(i + 1, 3):
            assert linalg.gram_dot(gram, basis[i], basis[j]) == 0


def test_gram_schmidt_drops_dependent():
    vecs = frac_matrix([[1, 1], [2, 2], [1, 0]])
    assert len(linalg.gram_schmidt(vecs, [1, 1])) == 2


def test_sym_positive_definite():
    assert linalg.sym_positive_definite(frac_matrix([[2, 1], [1, 2]]))
    assert not linalg.sym_positive_definite(frac_matrix([[1, 2], [2, 1]]))
    assert not linalg.sym_positive_definite(frac_matrix([[0, 0], [0, 1]]))
    assert linalg.sym_positive_definite([])


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


def test_minimal_polynomial_diagonal():
    op = frac_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 3]])
    poly = linalg.minimal_polynomial(op)
    # (x - 1)(x - 3) = 3 - 4x + x^2
    assert poly == [Fraction(3), Fraction(-4), Fraction(1)]


def test_eigen_split_rational():
    op = frac_matrix([[2, 1], [1, 2]])
    split = linalg.eigen_split(op)
    assert split is not None
    assert [lam for lam, _ in split] == [1, 3]
    assert all(len(basis) == 1 for _, basis in split)


def test_eigen_split_refuses_irrational():
    op = frac_matrix([[0, 1], [1, 1]])      # golden-ratio spectrum
    assert linalg.eigen_split(op) is None


def test_eigen_split_refuses_a_jordan_block():
    # minimal polynomial (x - 1)^2: the one eigenvalue is rational, but its
    # eigenspace has dimension 1 of 2
    assert linalg.eigen_split(frac_matrix([[1, 1], [0, 1]])) is None


def test_eigen_split_with_multiplicity():
    op = frac_matrix([[5, 0, 0], [0, 5, 0], [0, 0, 7]])
    split = linalg.eigen_split(op)
    assert [(lam, len(b)) for lam, b in split] == [(5, 2), (7, 1)]


def test_rational_roots_with_hints():
    # (x - 1/2)(x - 3)
    poly = [Fraction(3, 2), Fraction(-7, 2), Fraction(1)]
    roots = linalg.rational_roots(poly)
    assert roots == [Fraction(1, 2), Fraction(3)]


def test_eigen_split_finds_the_eigenvalue_zero():
    split = linalg.eigen_split(frac_matrix([[0, 0], [0, 1]]))
    assert split == [(0, [[1, 0]]), (1, [[0, 1]])]


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
    v = linalg.vec_add(linalg.vec_scale(Fraction(coeffs[0]), basis[0]),
                       linalg.vec_scale(Fraction(coeffs[1]), basis[1]))
    assert linalg.same_span(basis, basis + [v])
    outside = [Fraction(coeffs[2]), Fraction(coeffs[3]), Fraction(0), Fraction(1)]
    # outside unless it happens to solve the system
    cols = linalg.transpose(basis)
    expect = linalg.solve_consistent(cols, outside) is not None
    assert linalg.same_span(basis, basis + [outside]) == expect
