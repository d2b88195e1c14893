"""Algebra tables against independent oracles.

Two oracles are kept deliberately separate from the library code: a direct
matrix-commutator oracle over complex matrices (via fraction pairs), and
the closed-form delta-pattern for the canonical skew/symmetric basis.
"""

import dataclasses
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from go_metric_lab import lie_core, linalg
from go_metric_lab.lie_core import bracket, build_un, validate_algebra
from oracles import inner, vec_add


# ---------------------------------------------------------------------------
# oracle 1: complex matrices as (real, imag) Fraction pairs
# ---------------------------------------------------------------------------

def cmat(n):
    return [[(Fraction(0), Fraction(0)) for _ in range(n)] for _ in range(n)]


def cmul(a, b):
    n = len(a)
    out = cmat(n)
    for i in range(n):
        for j in range(n):
            re = Fraction(0)
            im = Fraction(0)
            for k in range(n):
                ar, ai = a[i][k]
                br, bi = b[k][j]
                re += ar * br - ai * bi
                im += ar * bi + ai * br
            out[i][j] = (re, im)
    return out


def csub(a, b):
    return [[(x[0] - y[0], x[1] - y[1]) for x, y in zip(ra, rb)]
            for ra, rb in zip(a, b)]


def ctrace(a):
    re = sum(a[i][i][0] for i in range(len(a)))
    im = sum(a[i][i][1] for i in range(len(a)))
    return re, im


def basis_matrix(label, n):
    kind, i, j = label.split("_")
    i, j = int(i) - 1, int(j) - 1
    m = cmat(n)
    if kind == "e":
        m[i][j] = (Fraction(1), Fraction(0))
        m[j][i] = (Fraction(-1), Fraction(0))
    else:
        m[i][j] = (m[i][j][0], m[i][j][1] + 1)
        m[j][i] = (m[j][i][0], m[j][i][1] + 1)
    return m


def oracle_bracket_coords(g, la, lb):
    """[b_la, b_lb] via complex matrices, expanded over the basis by trace."""
    n = g.n
    x = basis_matrix(la, n)
    y = basis_matrix(lb, n)
    comm = csub(cmul(x, y), cmul(y, x))
    coords = []
    for label in g.labels:
        b = basis_matrix(label, n)
        re, im = ctrace(cmul(comm, b))
        assert im == 0
        norm_re, norm_im = ctrace(cmul(b, b))
        coords.append((-re) / (-norm_re))
    return coords


# oracle 2: the closed-form bracket pattern of the canonical basis
def delta_bracket(la, lb, n):
    """Structure constants from the Kronecker-delta expansion."""
    def parse(l):
        kind, i, j = l.split("_")
        return kind, int(i), int(j)

    def emit(coords, kind, i, j, coeff):
        if coeff == 0:
            return
        if kind == "e":
            if i == j:
                return
            if i > j:
                i, j, coeff = j, i, -coeff
            coords[f"e_{i}_{j}"] = coords.get(f"e_{i}_{j}", 0) + coeff
        else:
            if i > j:
                i, j = j, i
            coords[f"eb_{i}_{j}"] = coords.get(f"eb_{i}_{j}", 0) + coeff

    ka, i, j = parse(la)
    kb, l, m = parse(lb)
    coords = {}
    d = lambda a, b: 1 if a == b else 0
    if ka == "e" and kb == "e":
        emit(coords, "e", i, m, d(j, l))
        emit(coords, "e", l, j, -d(i, m))
        emit(coords, "e", j, m, -d(i, l))
        emit(coords, "e", i, l, -d(j, m))
    elif ka == "eb" and kb == "e":
        emit(coords, "eb", i, m, d(j, l))
        emit(coords, "eb", l, j, -d(i, m))
        emit(coords, "eb", j, m, d(i, l))
        emit(coords, "eb", i, l, -d(j, m))
    elif ka == "e" and kb == "eb":
        neg = delta_bracket(lb, la, n)
        coords = {k: -v for k, v in neg.items()}
        return coords
    else:
        emit(coords, "e", i, m, -d(j, l))
        emit(coords, "e", l, j, d(i, m))
        emit(coords, "e", j, m, -d(i, l))
        emit(coords, "e", i, l, -d(j, m))
    return {k: v for k, v in coords.items() if v != 0}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_structure_matches_commutator_oracle(n, un):
    g = un(n)
    for i, la in enumerate(g.labels):
        for j, lb in enumerate(g.labels):
            if i >= j:
                continue
            expect = oracle_bracket_coords(g, la, lb)
            got = bracket(g, linalg.unit_vec(g.dim, i), linalg.unit_vec(g.dim, j))
            assert got == expect, (la, lb)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_structure_matches_delta_pattern(n, un):
    g = un(n)
    for i, la in enumerate(g.labels):
        for j, lb in enumerate(g.labels):
            got = bracket(g, linalg.unit_vec(g.dim, i), linalg.unit_vec(g.dim, j))
            expect = delta_bracket(la, lb, n)
            got_map = {g.labels[k]: c for k, c in enumerate(got) if c != 0}
            assert got_map == {k: Fraction(v) for k, v in expect.items()}, (la, lb)


# oracle 3: the whole table expanded from the dense matrix realization
def commutator_table(g):
    """g.structure and g.gram rebuilt from the matrices g.basis.

    Commutators of the real-embedded matrices, expanded over the basis with
    B(X, Y) = -Trace(XY)/2; pairs (i, j), (j, i) for i < j in order and
    coordinates ascending, as `build_un` lays them out.
    """
    mats = [[[int(x) for x in row] for row in b] for b in g.basis]
    entries = [[(r, c, x) for r, row in enumerate(m) for c, x in enumerate(row)
                if x] for m in mats]

    def times(a, b):
        out = {}
        for r, k, x in entries[a]:
            for k2, c, y in entries[b]:
                if k == k2:
                    out[(r, c)] = out.get((r, c), 0) + x * y
        return out

    def form(z, k):
        """B(Z, b_k) for Z given by its nonzero entries."""
        return Fraction(-sum(v * mats[k][c][r] for (r, c), v in z.items()), 2)

    gram = [[form(dict(((r, c), x) for r, c, x in entries[i]), j)
             for j in range(g.dim)] for i in range(g.dim)]
    table = {}
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            comm = times(i, j)
            for key, v in times(j, i).items():
                comm[key] = comm.get(key, 0) - v
            coords = {}
            for k in range(g.dim):
                c = form(comm, k) / gram[k][k]
                if c != 0:
                    coords[k] = c
            rebuilt = {}
            for k, c in coords.items():
                for r, col, x in entries[k]:
                    rebuilt[(r, col)] = rebuilt.get((r, col), 0) + c * x
            assert ({key: v for key, v in comm.items() if v}
                    == {key: v for key, v in rebuilt.items() if v})
            if coords:
                table[(i, j)] = coords
                table[(j, i)] = {k: -c for k, c in coords.items()}
    return table, gram


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_closed_form_table_matches_matrix_commutators(n, un):
    g = un(n)
    table, gram = commutator_table(g)
    assert list(g.structure) == list(table)
    for key, entry in table.items():
        assert list(g.structure[key].items()) == list(entry.items()), key
        assert all(type(c) is Fraction for c in g.structure[key].values())
    assert g.gram == gram
    assert all(type(c) is Fraction for row in g.gram for c in row)


# sha256 prefixes of the serialized u(n) built by expanding matrix commutators
COMMUTATOR_BUILD_HASHES = {2: "b6c6f0d263fb7d7f", 3: "f628423ef85c27c4",
                           4: "649eb665adabf0ad", 5: "e2633c732a5f0349",
                           6: "8088b69face9d1d9"}


@pytest.mark.parametrize("n", sorted(COMMUTATOR_BUILD_HASHES))
def test_algebra_hash_is_unchanged(n, un):
    from go_metric_lab import decomp
    assert decomp.algebra_hash(un(n)) == COMMUTATOR_BUILD_HASHES[n]


def test_build_un_does_no_matrix_arithmetic(monkeypatch):
    calls = []
    for name in ("commutator", "expand_in_basis", "trace_form"):
        real = getattr(lie_core, name)

        def counted(*args, _name=name, _real=real):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(lie_core, name, counted)
    g = lie_core.build_un(6)
    assert g.dim == 36 and len(g.basis) == 36
    assert calls == []


def test_build_un_dimensions_and_gram(un):
    g3 = un(3)
    assert g3.dim == 9
    i = g3.index("e_1_2")
    assert g3.gram[i][i] == 2           # -Trace(e_12^2) = 2
    i = g3.index("eb_1_2")
    assert g3.gram[i][i] == 2
    i = g3.index("eb_1_1")
    assert g3.gram[i][i] == 4           # eb_ii = 2i E_ii doubles the norm
    # orthogonality of mixed pairs
    assert inner(g3, g3.vector(("e_1_2", 1)), g3.vector(("eb_1_2", 1))) == 0


def test_u1_is_abelian():
    g = build_un(1)
    assert g.dim == 1
    assert g.labels == ["eb_1_1"]
    assert bracket(g, [Fraction(1)], [Fraction(2)]) == [0]


def test_bracket_examples(un):
    g4 = un(4)
    got = bracket(g4, g4.vector(("e_1_2", 1)), g4.vector(("e_2_3", 1)))
    assert got == g4.vector(("e_1_3", 1))
    g3 = un(3)
    got = bracket(g3, g3.vector(("eb_1_1", 1)), g3.vector(("e_1_2", 1)))
    assert got == g3.vector(("eb_1_2", 2))
    got = bracket(g3, g3.vector(("e_1_2", 1)), g3.vector(("e_1_3", 1)))
    assert got == g3.vector(("e_2_3", -1))


def test_build_un_rejects_zero():
    with pytest.raises(lie_core.InvalidDimensionError):
        build_un(0)


def test_bracket_dimension_mismatch(un):
    g = un(2)
    with pytest.raises(lie_core.DimensionMismatchError):
        bracket(g, [Fraction(1)] * 3, [Fraction(1)] * g.dim)
    with pytest.raises(lie_core.DimensionMismatchError):
        inner(g, [Fraction(1)] * g.dim, [Fraction(1)] * 2)


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6),
       st.integers(-6, 6))
def test_bracket_bilinear_and_antisymmetric(a, b, c, d):
    g = get_cached_u3()
    rng = random.Random(a * 1000 + b * 100 + c * 10 + d)
    x = lie_core.random_vector_of_len(g.dim, rng)
    y = lie_core.random_vector_of_len(g.dim, rng)
    z = lie_core.random_vector_of_len(g.dim, rng)
    ax_by = vec_add(linalg.vec_scale(Fraction(a), x),
                    linalg.vec_scale(Fraction(b), y))
    lhs = bracket(g, ax_by, z)
    rhs = vec_add(linalg.vec_scale(Fraction(a), bracket(g, x, z)),
                  linalg.vec_scale(Fraction(b), bracket(g, y, z)))
    assert lhs == rhs
    assert bracket(g, x, x) == [0] * g.dim
    assert bracket(g, x, y) == linalg.vec_scale(Fraction(-1), bracket(g, y, x))


_U3 = None


def get_cached_u3():
    global _U3
    if _U3 is None:
        _U3 = build_un(3)
    return _U3


@given(st.integers(0, 10 ** 6))
def test_jacobi_on_random_vectors(seed):
    g = get_cached_u3()
    rng = random.Random(seed)
    x, y, z = (lie_core.random_vector_of_len(g.dim, rng) for _ in range(3))
    total = vec_add(
        bracket(g, bracket(g, x, y), z),
        vec_add(bracket(g, bracket(g, y, z), x),
                bracket(g, bracket(g, z, x), y)))
    assert linalg.vec_is_zero(total)


@given(st.integers(0, 10 ** 6))
def test_trace_form_ad_invariant_on_random_vectors(seed):
    g = get_cached_u3()
    rng = random.Random(seed)
    x, y, z = (lie_core.random_vector_of_len(g.dim, rng) for _ in range(3))
    assert inner(g, bracket(g, z, x), y) + inner(g, x, bracket(g, z, y)) == 0


@pytest.mark.parametrize("n", [2, 4])
def test_validate_algebra_passes(n, un):
    report = validate_algebra(un(n))
    assert report.ok
    names = {c.name for c in report.checks}
    assert {"closure", "antisymmetry", "jacobi", "orthogonality",
            "positive_definite", "ad_invariance"} <= names


def test_validate_detects_broken_antisymmetry(un):
    g = un(2)
    tampered = {k: dict(v) for k, v in g.structure.items()}
    (i, j) = next(k for k in tampered if k[0] < k[1])
    tampered[(i, j)] = {k: c + 1 for k, c in tampered[(i, j)].items()}
    bad = dataclasses.replace(g, structure=tampered, basis=None)
    report = validate_algebra(bad)
    assert not report["antisymmetry"].passed


def test_validate_detects_broken_jacobi(un):
    g = un(2)
    tampered = {k: dict(v) for k, v in g.structure.items()}
    key = next(k for k in tampered if k[0] < k[1])
    rev = (key[1], key[0])
    # antisymmetric tampering that breaks Jacobi
    tampered[key] = {k: c + 2 for k, c in tampered[key].items()}
    tampered[rev] = {k: -c for k, c in tampered[key].items()}
    bad = dataclasses.replace(g, structure=tampered, basis=None)
    report = validate_algebra(bad)
    assert not report.ok
    assert not report["jacobi"].passed or not report["ad_invariance"].passed


def test_validate_detects_a_form_that_is_not_ad_invariant(un):
    # a wrong norm on e_1_3 keeps the table and the basis orthogonal but
    # breaks B([z,x],y) + B(x,[z,y]) = 0; the reported triple fails
    g = un(3)
    gram = [list(row) for row in g.gram]
    gram[g.index("e_1_3")][g.index("e_1_3")] = Fraction(3)
    bad = dataclasses.replace(g, gram=gram, basis=None)
    report = validate_algebra(bad)
    assert report["jacobi"].passed and report["orthogonality"].passed
    check = report["ad_invariance"]
    assert not check.passed
    z, i, j = map(int, check.detail.split("(")[1].rstrip(")").split(","))

    def term(a, b, c):      # B([e_a, e_b], e_c) with the diagonal Gram
        return bad.structure.get((a, b), {}).get(c, 0) * gram[c][c]

    assert term(z, i, j) + term(z, j, i) != 0


def test_json_round_trip(un):
    g = un(3)
    data = lie_core.to_json_dict(g)
    text = json.dumps(data)
    back = lie_core.from_json_dict(json.loads(text))
    assert back.labels == g.labels
    assert back.n == g.n
    assert back.structure == g.structure
    assert back.gram == g.gram
    # labels follow the documented 1-based pattern
    assert all(l.startswith(("e_", "eb_")) for l in data["basis_labels"])

