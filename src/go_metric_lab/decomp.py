"""B-orthogonal reductive decomposition g = h (+) m with projections.

The complement m is the exact B-orthogonal complement of the subalgebra h,
computed by rational nullspace; reductivity [h, m] <= m is verified at
construction and failing it raises.  H is assumed connected, so invariance
is checked at the algebra level only.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple

from . import lie_core, linalg
from .lie_core import MatrixLieAlgebra
from .linalg import Columns, Mat, Sparse, Subspace, Vec


class NotSubalgebraError(ValueError):
    """Spanning set is not closed under the bracket."""


class NonReductiveError(ValueError):
    """[h, m] does not stay inside m."""


@dataclass
class Subalgebra:
    parent: MatrixLieAlgebra
    basis_coords: List[Vec]

    @property
    def dim(self) -> int:
        return len(self.basis_coords)


def subalgebra(g: MatrixLieAlgebra, coords: List[Vec]) -> Subalgebra:
    """Wrap a spanning set as a subalgebra, verifying independence and closure.

    The span is reduced once to its pivot rows; each bracket is then
    reduced against them (`linalg.in_span`), with no solve per bracket.
    """
    pivots = linalg.pivot_rows(coords)
    if len(pivots) != len(coords):
        raise NotSubalgebraError("spanning vectors are linearly dependent")
    for i, j in itertools.combinations(range(len(coords)), 2):
        if not linalg.in_span(lie_core.bracket(g, coords[i], coords[j]),
                              pivots):
            raise NotSubalgebraError(f"[h_{i}, h_{j}] falls outside the span")
    return Subalgebra(parent=g, basis_coords=[list(v) for v in coords])


def diagonal_u_nk(g: MatrixLieAlgebra, k: int) -> Subalgebra:
    """The diagonally embedded u(n-k) inside u(n): all indices >= k+1."""
    n = g.n
    if not 1 <= k <= n - 1:
        raise lie_core.InvalidDimensionError(
            f"need 1 <= k <= n-1, got k={k} for u({n})")
    coords = []
    for idx, label in enumerate(g.labels):
        _, i, j = label.split("_")
        if int(i) >= k + 1 and int(j) >= k + 1:
            coords.append(linalg.unit_vec(g.dim, idx))
    h = subalgebra(g, coords)
    if h.dim != (n - k) ** 2:
        raise ArithmeticError(
            f"u({n - k}) has dimension {h.dim}, expected {(n - k) ** 2}")
    return h


@dataclass
class BracketTable:
    """[a + X, Y] for a in h and X, Y in m, split along g = h (+) m.

    `m[a][b]` holds the m-coordinates of [m_a, m_b] and `h[a][b]` its
    h-component in g-coordinates, both sparse; each is empty when that
    part vanishes.  `ad[i]` is ad(h_i)|_m as sparse columns over m (the
    split's `ad_h`): [h, m] lies in m.  Everything bilinear on h (+) m
    then contracts against these tables instead of bracketing in g.  The
    contraction runs on integers: the three tables are kept once more as
    integer rows over one common denominator D, and `contract` sums
    D [w + X, Y] for integer arguments.  `bracket` is its one `Fraction`
    view; callers that stay on integers call `contract` directly.
    """

    m: List[List[Sparse]]
    h: List[List[Sparse]]
    ad: List[Columns]

    @cached_property
    def _integer_rows(self) -> Tuple[int, List[list], List[list]]:
        """(D, rows, ad): D is the lcm of every denominator in the tables,
        `rows[a][b]` is (D m[a][b], D h[a][b]) as integer entries, or None
        when [m_a, m_b] = 0, and `ad[i]` the columns of D ad(h_i)|_m."""
        den = linalg.denominator(c for part in (self.m, self.h, self.ad)
                                 for row in part for entry in row
                                 for _, c in entry)
        rows = [[(linalg.integers(em, den), linalg.integers(eh, den))
                 if em or eh else None
                 for em, eh in zip(row_m, row_h)]
                for row_m, row_h in zip(self.m, self.h)]
        return den, rows, [[linalg.integers(col, den) if col else col
                            for col in op] for op in self.ad]

    @property
    def denominator(self) -> int:
        """The common denominator D of the integer tables."""
        return self._integer_rows[0]

    @property
    def integer_ad(self) -> List[List[List[Tuple[int, int]]]]:
        """The isotropy columns D ad(h_i)|_m as integers, once per split."""
        return self._integer_rows[2]

    def contract(self, xs: List[Tuple[int, int]], ys: List[Tuple[int, int]],
                 ws: Sequence[Tuple[int, int]] = ()) -> Tuple[dict, dict]:
        """D [w + X, Y] for integer sparse m-coordinates X, Y and integer
        sparse w over the h basis, as integer accumulators {index: value}
        of the m-coordinates and of the h-component (zero entries may
        remain)."""
        _, rows, ad = self._integer_rows
        acc_m: dict = {}
        acc_h: dict = {}
        for a, xa in xs:
            row = rows[a]
            for b, yb in ys:
                entry = row[b]
                if entry is None:
                    continue
                f = xa * yb
                em, eh = entry
                for k, c in em:
                    acc_m[k] = acc_m.get(k, 0) + f * c
                for k, c in eh:
                    acc_h[k] = acc_h.get(k, 0) + f * c
        for i, wi in ws:
            cols = ad[i]
            for b, yb in ys:
                f = wi * yb
                for k, c in cols[b]:
                    acc_m[k] = acc_m.get(k, 0) + f * c
        return acc_m, acc_h

    def bracket(self, x: Sparse, y: Sparse, a: Sparse = ()
                ) -> Tuple[Sparse, Sparse]:
        """[a + X, Y] for sparse m-coordinates X, Y and a sparse over the h
        basis: (m-coordinates, h-component in g-coordinates).  X and a are
        cleared of their denominators together, Y on its own."""
        if a:
            dx, xa = linalg.cleared([*x, *a])
            xs, ws = xa[:len(x)], xa[len(x):]
        else:
            (dx, xs), ws = linalg.cleared(x), ()
        dy, ys = linalg.cleared(y)
        acc_m, acc_h = self.contract(xs, ys, ws)
        den = self.denominator * dx * dy
        return linalg.over(acc_m, den), linalg.over(acc_h, den)

    def bracket_in_m(self, x: Sparse, y: Sparse) -> Sparse:
        """[X, Y] over m for a pair whose bracket must stay in m."""
        c_m, c_h = self.bracket(x, y)
        if c_h:
            raise ValueError("vector is not in m")
        return c_m


@dataclass
class ReductiveSplit:
    """g = h (+) m with a B-orthogonal m basis.

    `ad_h[i]` is ad(h_i)|_m as sparse columns over m, read off the
    reductivity check; `isotropy.isotropy_action` verifies and keeps it,
    and `bracket_table` holds it, with its one integer form.
    """

    algebra: MatrixLieAlgebra
    h: Subalgebra
    m: Subspace                          # in g-coordinates
    ad_h: List[Columns]

    @property
    def dim_m(self) -> int:
        return self.m.dim

    @property
    def m_basis(self) -> List[Vec]:
        return self.m.basis

    @property
    def norms_m(self) -> Vec:
        """Diagonal of the (B-orthogonal) m-basis Gram matrix."""
        return self.m.norms

    @cached_property
    def gram_m(self) -> Mat:
        """The m-basis Gram matrix: diagonal, as the basis is B-orthogonal."""
        return [[nu if i == j else linalg.ZERO for j in range(self.dim_m)]
                for i, nu in enumerate(self.norms_m)]

    @cached_property
    def integer_gram_m(self) -> Tuple[int, Mat]:
        """(D, D G_m): the m-Gram cleared to integers, once per split."""
        den = linalg.denominator(self.norms_m)
        return den, [[c.numerator * (den // c.denominator) for c in row]
                     for row in self.gram_m]

    def _m_part(self, x: Sparse, den: int = 1) -> Tuple[Sparse, Sparse]:
        """(m-coordinates, h-component) of the sparse g-vector x / den."""
        return linalg.orthogonal_projection(self.m, self.algebra.norms, x, den)

    def coords_in_m(self, x: Vec) -> Vec:
        """Coordinates over the m basis; requires x in m (exact)."""
        coords, resid = self._m_part(linalg.sparse(x))
        if resid:
            raise ValueError("vector is not in m")
        return linalg.dense(coords, self.dim_m)

    @cached_property
    def bracket_table(self) -> BracketTable:
        """The bracket table, built on first use and kept: each bracket of
        two cleared m-basis vectors b_a = d_a m_a is read off the cleared
        structure constants and split on integers; [h, m] is `ad_h`."""
        dim = self.dim_m
        table = BracketTable(m=[[[] for _ in range(dim)] for _ in range(dim)],
                             h=[[[] for _ in range(dim)] for _ in range(dim)],
                             ad=self.ad_h)
        pairs = itertools.combinations(enumerate(self.m.rows), 2)
        for (a, (row_a, d_a, _)), (b, (row_b, d_b, _)) in pairs:
            parts = self._m_part(lie_core.sparse_bracket(
                self.algebra, row_a, row_b), d_a * d_b)
            for part, vec in zip((table.m, table.h), parts):
                part[a][b] = vec
                part[b][a] = [(k, -c) for k, c in vec]
        return table


def reductive_split(g: MatrixLieAlgebra, h: Subalgebra) -> ReductiveSplit:
    """Exact B-orthogonal complement of h plus reductivity verification.

    The basis of g must be B-orthogonal (`lie_core.validate_algebra`
    checks it), so every form here is a diagonal norm vector.
    """
    if h.parent is not g:
        raise ValueError("subalgebra belongs to a different algebra")
    if any(g.gram[i][j] != 0 for i in range(g.dim) for j in range(g.dim)
           if i != j):
        raise ValueError("the basis of g is not B-orthogonal")
    norms = g.norms
    rows = [[c * nu for c, nu in zip(hv, norms)] for hv in h.basis_coords]
    m = linalg.make_subspace(linalg.nullspace(rows, g.dim), norms)
    if h.dim + m.dim != g.dim:
        raise ArithmeticError("h and m dimensions do not add up")
    split = ReductiveSplit(algebra=g, h=h, m=m, ad_h=[])
    for d_h, row_h in map(linalg.cleared, map(linalg.sparse, h.basis_coords)):
        cols = []
        for row, d_j, _ in m.rows:
            coords, h_part = split._m_part(
                lie_core.sparse_bracket(g, row_h, row), d_h * d_j)
            if h_part:
                raise NonReductiveError("[h, m] leaves m; split is not reductive")
            cols.append(coords)
        split.ad_h.append(cols)
    return split


def project(split: ReductiveSplit, x: Vec, target: str) -> Vec:
    """B-orthogonal projection of x onto h or m."""
    if len(x) != split.algebra.dim:
        raise lie_core.DimensionMismatchError(
            f"expected length {split.algebra.dim}, got {len(x)}")
    if target not in ("h", "m"):
        raise ValueError(f"target must be 'h' or 'm', got {target!r}")
    h_part = linalg.dense(split._m_part(linalg.sparse(x))[1], len(x))
    return h_part if target == "h" else linalg.vec_sub(x, h_part)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def algebra_hash(g: MatrixLieAlgebra) -> str:
    payload = json.dumps(lie_core.to_json_dict(g), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def split_from_json_dict(g: MatrixLieAlgebra, data: dict) -> ReductiveSplit:
    if data.get("algebra_hash") not in (None, algebra_hash(g)):
        raise ValueError("algebra hash mismatch")
    coords = [[linalg.frac_from_str(c) for c in v] for v in data["h_basis"]]
    return reductive_split(g, subalgebra(g, coords))
