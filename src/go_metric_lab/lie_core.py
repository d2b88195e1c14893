"""Matrix Lie algebra core: u(n) bases, brackets, and the trace form.

The compact unitary algebra u(n) is realized over the reals.  Its canonical
basis is

    e_ij  = E_ij - E_ji           (1 <= i < j <= n)
    eb_lm = sqrt(-1)(E_lm + E_ml) (1 <= l <= m <= n)

listed e's first, then eb's, each block in lexicographic index order.  The
complex matrices are stored through the real embedding a+bi -> [[a,-b],[b,a]]
so that every entry stays an exact rational.  The invariant inner product is
B(X, Y) = -Trace(XY) with the complex trace, i.e. -Trace(XrYr)/2 on the real
embedding; the canonical basis is B-orthogonal with squared lengths 2 (and 4
on the diagonal eb_ll).

Vectors over an algebra are plain coordinate lists of Fraction entries; all
operations validate lengths.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from . import linalg
from .linalg import Mat, Vec, ZERO


class InvalidDimensionError(ValueError):
    """Requested algebra or subspace dimension is out of range."""


class DimensionMismatchError(ValueError):
    """Coordinate vector length does not match the basis size."""


StructureConstants = Dict[Tuple[int, int], Dict[int, Fraction]]


@dataclass
class MatrixLieAlgebra:
    """A basis of square matrices with precomputed structure constants.

    Immutable after construction; safe for concurrent reads.
    """

    n: int
    labels: List[str]
    structure: StructureConstants
    gram: Mat
    basis: Optional[List[Mat]] = None

    @property
    def dim(self) -> int:
        return len(self.labels)

    @cached_property
    def norms(self) -> Vec:
        """The diagonal of the Gram matrix, read once: the form is the norm
        vector where the basis is B-orthogonal, which `reductive_split` and
        `validate_algebra` check."""
        return [self.gram[i][i] for i in range(self.dim)]

    @cached_property
    def integer_structure(self) -> Tuple[int, Dict[Tuple[int, int], list]]:
        """(D, table): the structure constants cleared once, D [b_i, b_j]."""
        den = linalg.denominator(c for entry in self.structure.values()
                                 for c in entry.values())
        return den, {ij: linalg.integers(entry.items(), den)
                     for ij, entry in self.structure.items()}

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def vector(self, *terms) -> Vec:
        """Build a coordinate vector from (label, coeff) pairs."""
        v = linalg.zero_vec(self.dim)
        for label, coeff in terms:
            v[self.index(label)] = Fraction(coeff)
        return v


# A basis matrix as {(row, col): (re, im)}: complex integer entries, at most two.
SparseComplex = Dict[Tuple[int, int], Tuple[int, int]]


def _canonical_entries(n: int) -> Tuple[List[str], List[SparseComplex]]:
    labels, entries = [], []
    for i in range(n):
        for j in range(i + 1, n):
            labels.append(f"e_{i + 1}_{j + 1}")
            entries.append({(i, j): (1, 0), (j, i): (-1, 0)})
    for l in range(n):
        for m in range(l, n):
            labels.append(f"eb_{l + 1}_{m + 1}")
            entries.append({(l, m): (0, 1), (m, l): (0, 1)} if l != m
                           else {(l, l): (0, 2)})
    return labels, entries


def _embed_entries(n: int, x: SparseComplex) -> Mat:
    """Real 2n x 2n embedding of a sparse complex matrix."""
    out = linalg.zeros(2 * n, 2 * n)
    for (r, c), (re, im) in x.items():
        out[r][c] = out[r + n][c + n] = Fraction(re)
        out[r][c + n] = Fraction(-im)
        out[r + n][c] = Fraction(im)
    return out


def _sparse_commutator(x: SparseComplex, y: SparseComplex) -> SparseComplex:
    """XY - YX on sparse complex matrices."""
    out: SparseComplex = {}
    for sign, left, right in ((1, x, y), (-1, y, x)):
        for (r, k), (a, b) in left.items():
            for (k2, c), (p, q) in right.items():
                if k == k2:
                    re, im = out.get((r, c), (0, 0))
                    out[(r, c)] = (re + sign * (a * p - b * q),
                                   im + sign * (a * q + b * p))
    return out


def _sparse_trace_form(x: SparseComplex, y: SparseComplex) -> Fraction:
    """B(X, Y) = -Re Trace(XY) on sparse complex matrices."""
    return Fraction(-sum(a * p - b * q for (r, k), (a, b) in x.items()
                         for (k2, c), (p, q) in y.items() if k == k2 and r == c))


def trace_form(x_mat: Mat, y_mat: Mat) -> Fraction:
    """B(X, Y) = -Trace(XY), complex trace, on real-embedded matrices."""
    n = len(x_mat)
    s = ZERO
    for i in range(n):
        for k in range(n):
            if x_mat[i][k] != 0:
                s += x_mat[i][k] * y_mat[k][i]
    return -s / 2


def commutator(x_mat: Mat, y_mat: Mat) -> Mat:
    return linalg.mat_sub(linalg.mat_mul(x_mat, y_mat),
                          linalg.mat_mul(y_mat, x_mat))


def expand_in_basis(g: MatrixLieAlgebra, mat: Mat) -> Vec:
    """Coordinates of `mat` over the basis; raises if not in the span."""
    if g.basis is None:
        raise ValueError("algebra carries no matrix realization")
    coords = []
    for b, gb in zip(g.basis, g.norms):
        coords.append(trace_form(mat, b) / gb)
    resid = mat
    for c, b in zip(coords, g.basis):
        if c != 0:
            resid = linalg.mat_sub(resid, linalg.mat_scale(c, b))
    if not linalg.mat_is_zero(resid):
        raise ArithmeticError("matrix does not lie in the basis span")
    return coords


def build_un(n: int) -> MatrixLieAlgebra:
    """The compact algebra u(n) with canonical basis and exact tables.

    Structure constants and the Gram matrix come from sparse products of
    the basis matrices, B(x, y) only where y has an entry at the transpose
    of one of x's (it sums x_rk y_kr); a skew-Hermitian Z has coordinates
    Re Z_ij on e_ij, Im Z_lm on eb_lm and Im Z_ll / 2 on eb_ll.  The dense
    matrices stay on the algebra as the oracle of `validate_algebra`.
    """
    if n < 1:
        raise InvalidDimensionError(f"u(n) needs n >= 1, got n={n}")
    labels, entries = _canonical_entries(n)
    dim = len(labels)
    at: Dict[Tuple[int, int], List[int]] = {}        # position -> elements
    for b, x in enumerate(entries):
        for pos in x:
            at.setdefault(pos, []).append(b)
    gram = [[ZERO] * dim for _ in range(dim)]
    for i, x in enumerate(entries):
        for j in {j for r, k in x for j in at.get((k, r), ())}:
            gram[i][j] = _sparse_trace_form(x, entries[j])
    index = {}
    for k, label in enumerate(labels):
        kind, i, j = label.split("_")
        index[(kind, int(i) - 1, int(j) - 1)] = k
    structure: StructureConstants = {}
    for i in range(dim):    # j meets i's index set (in a row: Z^* = -Z)
        for j in sorted({j for r, _ in entries[i] for c in range(n)
                         for j in at.get((r, c), ()) if j > i}):
            coords: Dict[int, Fraction] = {}
            for (r, c), (re, im) in _sparse_commutator(entries[i],
                                                       entries[j]).items():
                if r < c:
                    coords[index[("e", r, c)]] = Fraction(re)
                    coords[index[("eb", r, c)]] = Fraction(im)
                elif r == c:
                    coords[index[("eb", r, r)]] = Fraction(im, 2)
            entry = {k: coords[k] for k in sorted(coords) if coords[k] != 0}
            if entry:
                structure[(i, j)] = entry
                structure[(j, i)] = {k: -c for k, c in entry.items()}
    return MatrixLieAlgebra(n=n, labels=labels, structure=structure, gram=gram,
                            basis=[_embed_entries(n, e) for e in entries])


def sparse_bracket(g: MatrixLieAlgebra, x: linalg.Sparse,
                   y: linalg.Sparse) -> linalg.Sparse:
    """[x, y] for sparse coordinates, one lookup per pair of support entries
    in the cleared structure table: integers stay integers when D = 1."""
    den, table = g.integer_structure
    acc: dict = {}
    for i, xi in x:
        for j, yj in y:
            entry = table.get((i, j))
            if entry:
                f = xi * yj
                for k, c in entry:
                    acc[k] = acc.get(k, 0) + f * c
    return linalg.sparse_from(acc) if den == 1 else linalg.over(acc, den)


def bracket(g: MatrixLieAlgebra, x: Vec, y: Vec) -> Vec:
    """[x, y] through the structure table, on dense coordinates: the
    oracle of `sparse_bracket` and the closure check of subalgebras."""
    if len(x) != g.dim or len(y) != g.dim:
        raise DimensionMismatchError(
            f"expected coordinate length {g.dim}, got {len(x)} and {len(y)}")
    out = linalg.zero_vec(g.dim)
    xs = [(i, c) for i, c in enumerate(x) if c != 0]
    ys = [(j, c) for j, c in enumerate(y) if c != 0]
    for i, xi in xs:
        for j, yj in ys:
            entry = g.structure.get((i, j))
            if entry:
                f = xi * yj
                for k, c in entry.items():
                    out[k] += f * c
    return out


RANDOM_MAX_NUM, RANDOM_DENOMINATORS = 9, (1, 2, 3)  # entries p/q, |p| <= 9


def random_vector_of_len(dim: int, rng: random.Random) -> Vec:
    """Seeded random rational coordinate vector with small entries."""
    return [Fraction(rng.randint(-RANDOM_MAX_NUM, RANDOM_MAX_NUM),
                     rng.choice(RANDOM_DENOMINATORS))
            for _ in range(dim)]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ValidationReport:
    checks: List[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def __getitem__(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def validate_algebra(g: MatrixLieAlgebra) -> ValidationReport:
    """Check closure, antisymmetry, Jacobi, Gram properties, ad-invariance.

    Returns a per-property report with the first counterexample on failure;
    never raises for a bad table.
    """
    report = ValidationReport()
    dim = g.dim

    def table_bracket(i: int, j: int) -> Dict[int, Fraction]:
        return g.structure.get((i, j), {})

    # closure: matrix commutators lie in the span and match the table
    if g.basis is not None:
        ok, detail = True, ""
        for i in range(dim):
            for j in range(i + 1, dim):
                try:
                    coords = expand_in_basis(g, commutator(g.basis[i], g.basis[j]))
                except ArithmeticError:
                    ok, detail = False, f"[{g.labels[i]}, {g.labels[j]}] leaves the span"
                    break
                tab = table_bracket(i, j)
                diff = [coords[k] - tab.get(k, ZERO) for k in range(dim)]
                if not linalg.vec_is_zero(diff):
                    ok, detail = False, (f"table mismatch at "
                                         f"[{g.labels[i]}, {g.labels[j]}]")
                    break
            if not ok:
                break
        report.checks.append(CheckResult("closure", ok, detail))

    ok, detail = True, ""
    for (i, j), entry in g.structure.items():
        rev = g.structure.get((j, i), {})
        keys = set(entry) | set(rev)
        if any(entry.get(k, ZERO) + rev.get(k, ZERO) != 0 for k in keys):
            ok, detail = False, f"c[{i}][{j}] != -c[{j}][{i}]"
            break
    report.checks.append(CheckResult("antisymmetry", ok, detail))

    def table_apply(coords: Dict[int, Fraction], k: int) -> Dict[int, Fraction]:
        out: Dict[int, Fraction] = {}
        for i, c in coords.items():
            for l, s in g.structure.get((i, k), {}).items():
                out[l] = out.get(l, ZERO) + c * s
        return out

    ok, detail = True, ""
    for i in range(dim):
        for j in range(i + 1, dim):
            bij = table_bracket(i, j)
            for k in range(dim):
                acc: Dict[int, Fraction] = {}
                for term in (table_apply(bij, k),
                             table_apply(table_bracket(j, k), i),
                             table_apply(table_bracket(k, i), j)):
                    for l, c in term.items():
                        acc[l] = acc.get(l, ZERO) + c
                if any(c != 0 for c in acc.values()):
                    ok, detail = False, f"Jacobi fails on triple ({i},{j},{k})"
                    break
            if not ok:
                break
        if not ok:
            break
    report.checks.append(CheckResult("jacobi", ok, detail))

    ok, detail = True, ""
    for i in range(dim):
        for j in range(dim):
            if g.gram[i][j] != g.gram[j][i]:
                ok, detail = False, f"gram[{i}][{j}] asymmetric"
                break
            if i != j and g.gram[i][j] != 0:
                ok, detail = False, (f"basis not B-orthogonal at "
                                     f"({g.labels[i]}, {g.labels[j]})")
                break
        if not ok:
            break
    report.checks.append(CheckResult("orthogonality", ok, detail))
    report.checks.append(CheckResult(
        "positive_definite", linalg.sym_positive_definite(g.gram), ""))

    # ad-invariance: B([z,x],y) + B(x,[z,y]) = 0 on basis triples.  With
    # a diagonal Gram both terms of (z, i, j) are table entries, and a
    # triple whose entries both vanish passes, so the nonzero entries
    # c^j_{zi} reach every triple that can fail
    ok, detail = True, ""
    gd = g.norms
    for (z, i), entry in g.structure.items():
        bad = [j for j, c in entry.items()
               if c * gd[j] + table_bracket(z, j).get(i, ZERO) * gd[i] != 0]
        if bad:
            ok, detail = False, f"ad-invariance fails on ({z},{i},{bad[0]})"
            break
    report.checks.append(CheckResult("ad_invariance", ok, detail))
    return report


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def to_json_dict(g: MatrixLieAlgebra) -> dict:
    """Sparse JSON form; indices 0-based, labels 1-based as documented."""
    structure = []
    for (i, j), entry in sorted(g.structure.items()):
        if i < j:
            for k, c in sorted(entry.items()):
                structure.append([i, j, k, c.numerator, c.denominator])
    gram = []
    for i, row in enumerate(g.gram):
        for j, c in enumerate(row):
            if c != 0:
                gram.append([i, j, Fraction(c).numerator, Fraction(c).denominator])
    return {"n": g.n, "basis_labels": list(g.labels),
            "structure": structure, "gram": gram}


def from_json_dict(data: dict) -> MatrixLieAlgebra:
    labels = list(data["basis_labels"])
    dim = len(labels)
    structure: StructureConstants = {}
    for i, j, k, p, q in data["structure"]:
        structure.setdefault((i, j), {})[k] = Fraction(p, q)
        structure.setdefault((j, i), {})[k] = Fraction(-p, q)
    gram = linalg.zeros(dim, dim)
    for i, j, p, q in data["gram"]:
        gram[i][j] = Fraction(p, q)
    return MatrixLieAlgebra(n=int(data["n"]), labels=labels,
                            structure=structure, gram=gram, basis=None)
