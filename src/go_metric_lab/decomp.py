"""B-orthogonal reductive decomposition g = h (+) m with projections.

The complement m is the exact B-orthogonal complement of the subalgebra h,
computed by rational nullspace; reductivity [h, m] <= m is verified at
construction and failing it raises.  H is assumed connected, so invariance
is checked at the algebra level only.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import List

from . import lie_core, linalg
from .lie_core import MatrixLieAlgebra
from .linalg import Mat, Vec


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
    """Wrap a spanning set as a subalgebra, verifying independence and closure."""
    if coords and linalg.rank(coords) != len(coords):
        raise NotSubalgebraError("spanning vectors are linearly dependent")
    cols = linalg.transpose(coords) if coords else []
    for i in range(len(coords)):
        for j in range(len(coords)):
            br = lie_core.bracket(g, coords[i], coords[j])
            if (not linalg.vec_is_zero(br)
                    and linalg.solve_consistent(cols, br) is None):
                raise NotSubalgebraError(
                    f"[h_{i}, h_{j}] falls outside the span")
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
    assert h.dim == (n - k) ** 2
    return h


@dataclass
class ReductiveSplit:
    """g = h (+) m with exact B-orthogonal projection matrices."""

    algebra: MatrixLieAlgebra
    h: Subalgebra
    m_basis: List[Vec]
    proj_h: Mat
    proj_m: Mat
    h_orth: List[Vec]             # B-orthogonalized copy of the h basis
    gram_m: Mat

    @property
    def dim_m(self) -> int:
        return len(self.m_basis)

    def coords_in_m(self, x: Vec) -> Vec:
        """Coordinates over the m basis; requires x in m (exact)."""
        g = self.algebra
        coords = [lie_core.inner(g, x, b) / self.gram_m[j][j]
                  for j, b in enumerate(self.m_basis)]
        resid = list(x)
        for c, b in zip(coords, self.m_basis):
            if c != 0:
                resid = linalg.vec_sub(resid, linalg.vec_scale(c, b))
        if not linalg.vec_is_zero(resid):
            raise ValueError("vector is not in m")
        return coords

    def m_to_g(self, mcoords: Vec) -> Vec:
        out = linalg.zero_vec(self.algebra.dim)
        for c, b in zip(mcoords, self.m_basis):
            if c != 0:
                out = linalg.vec_add(out, linalg.vec_scale(c, b))
        return out

    def h_to_g(self, hcoords: Vec) -> Vec:
        out = linalg.zero_vec(self.algebra.dim)
        for c, b in zip(hcoords, self.h.basis_coords):
            if c != 0:
                out = linalg.vec_add(out, linalg.vec_scale(c, b))
        return out


def reductive_split(g: MatrixLieAlgebra, h: Subalgebra) -> ReductiveSplit:
    """Exact B-orthogonal complement of h plus reductivity verification."""
    if h.parent is not g:
        raise ValueError("subalgebra belongs to a different algebra")
    rows = [linalg.mat_vec(g.gram, hv) for hv in h.basis_coords]
    m_basis = linalg.nullspace(rows, g.dim) if rows else linalg.identity(g.dim)
    m_basis = linalg.gram_schmidt(m_basis, g.gram)
    h_orth = linalg.gram_schmidt(h.basis_coords, g.gram)
    if len(h_orth) + len(m_basis) != g.dim:
        raise ArithmeticError("h and m dimensions do not add up")

    proj_h = linalg.zeros(g.dim, g.dim)
    for u in h_orth:
        nu = linalg.gram_dot(g.gram, u, u)
        gu = linalg.mat_vec(g.gram, u)
        for a in range(g.dim):
            if u[a] == 0:
                continue
            fa = u[a] / nu
            for b in range(g.dim):
                proj_h[a][b] += fa * gu[b]
    proj_m = linalg.mat_sub(linalg.identity(g.dim), proj_h)

    gram_m = [[lie_core.inner(g, a, b) for b in m_basis] for a in m_basis]
    split = ReductiveSplit(algebra=g, h=h, m_basis=m_basis, proj_h=proj_h,
                           proj_m=proj_m, h_orth=h_orth, gram_m=gram_m)

    for hv in h.basis_coords:
        for mv in m_basis:
            br = lie_core.bracket(g, hv, mv)
            if not linalg.vec_is_zero(linalg.mat_vec(proj_h, br)):
                raise NonReductiveError("[h, m] leaves m; split is not reductive")
    return split


def project(split: ReductiveSplit, x: Vec, target: str) -> Vec:
    """B-orthogonal projection of x onto h or m."""
    if len(x) != split.algebra.dim:
        raise lie_core.DimensionMismatchError(
            f"expected length {split.algebra.dim}, got {len(x)}")
    if target == "h":
        return linalg.mat_vec(split.proj_h, x)
    if target == "m":
        return linalg.mat_vec(split.proj_m, x)
    raise ValueError(f"target must be 'h' or 'm', got {target!r}")


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def algebra_hash(g: MatrixLieAlgebra) -> str:
    payload = json.dumps(lie_core.to_json_dict(g), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def split_to_json_dict(split: ReductiveSplit) -> dict:
    return {
        "algebra_hash": algebra_hash(split.algebra),
        "h_basis": [[linalg.frac_to_str(c) for c in v]
                    for v in split.h.basis_coords],
    }


def split_from_json_dict(g: MatrixLieAlgebra, data: dict) -> ReductiveSplit:
    if data.get("algebra_hash") not in (None, algebra_hash(g)):
        raise ValueError("algebra hash mismatch")
    coords = [[linalg.frac_from_str(c) for c in v] for v in data["h_basis"]]
    return reductive_split(g, subalgebra(g, coords))
