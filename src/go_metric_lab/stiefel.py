"""Complex Stiefel manifolds U(n)/U(n-k), end to end.

Builds the reductive split of u(n) over the diagonally embedded u(n-k),
decomposes the isotropy action (trivial summand of dimension k^2, k
equivalent modules of real dimension 2(n-k)), assembles the one-parameter
deformation family

    A_t = Id on su(k) (+) S1,   t * Id on the center of S0,   t > 0,

together with its closed-form witness map

    a_t(X) = r (1 - t) * sum_{i>k} eb_ii,   r = <X, z0> / <z0, z0>,

where z0 = sum_{i<=k} eb_ii spans the center.  Verification checks the
bracket identities behind the witness on spanning sets and certifies
[a_t + X, A_t X] = 0 exactly for every t > 0 at once, by the t-coefficients
of its polarization on basis pairs.  The uniqueness scan reduces the
candidate cone, sweeps the remaining diagonal cone on an exhaustive grid
(proving the survivors on the deformation line by the all-t certificate),
samples the full cone off the diagonal, and cross-checks that the enlarged
normalizer action leaves only scalars on S1.
"""

from __future__ import annotations

import contextlib
import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import (Callable, ContextManager, Dict, List, Optional, Sequence,
                    Tuple)

from . import decomp as decomp_mod
from . import go as go_mod
from . import isotropy, lie_core, linalg, metric as metric_mod
from .isotropy import IsotypicalDecomposition, Subspace
from .linalg import Columns, Sparse, Vec, ONE, ZERO
from .metric import MetricEndomorphism, MetricFamily


class NotPositiveDefiniteError(ValueError):
    """Family parameter outside the positive cone."""


# stage(name) wraps one pipeline stage; nullcontext(name) does nothing
Stage = Callable[[str], ContextManager]


@dataclass
class StiefelSpace:
    n: int
    k: int
    algebra: lie_core.MatrixLieAlgebra
    split: decomp_mod.ReductiveSplit
    action: isotropy.IsotropyAction
    decomp: IsotypicalDecomposition
    m_labels: List[str]                # label in g of each m-basis vector
    modules: List[Subspace]            # canonical m_1 .. m_k
    s1_pairs: List[Tuple[int, int]]    # (e, eb) m-coordinate index pairs
    z0_m: Vec                          # sum eb_ii, i <= k, in m-coords
    a_dir_h: Vec                       # sum eb_ii, i > k, in h-coords

    @property
    def dim_m(self) -> int:
        return self.split.dim_m

    @property
    def ideals(self) -> isotropy.IdealSplit:
        return self.decomp.ideals

    @property
    def s1(self) -> isotropy.IsotypicalSummand:
        return self.decomp.nontrivial_summands()[0]

    @cached_property
    def family_data(self) -> "FamilyData":
        """The deformation family's coefficients in t, read once."""
        return _family_data(self)


def _canonical_module_indices(space_labels: List[str], n: int, k: int,
                              i: int) -> List[int]:
    wanted = [f"e_{i}_{j}" for j in range(k + 1, n + 1)]
    wanted += [f"eb_{i}_{j}" for j in range(k + 1, n + 1)]
    return [space_labels.index(w) for w in wanted]


def _require(condition: bool, message: str) -> None:
    """Structural fact the witness map and the A_t line rest on."""
    if not condition:
        raise ArithmeticError(message)


def build_stiefel(n: int, k: int) -> StiefelSpace:
    """Assemble and verify the full structure for U(n)/U(n-k)."""
    if not 1 <= k < n <= 8:
        raise lie_core.InvalidDimensionError(
            f"supported range is 1 <= k < n <= 8, got ({n}, {k})")
    g = lie_core.build_un(n)
    h = decomp_mod.diagonal_u_nk(g, k)
    split = decomp_mod.reductive_split(g, h)
    _require(split.dim_m == 2 * n * k - k * k, "dim m is not 2nk - k^2")
    action = isotropy.isotropy_action(split)
    dec = isotropy.decompose_isotypic(action)
    _require(dec.s0.dim == k * k, "dim S0 is not k^2")

    nontrivial = dec.nontrivial_summands()
    _require(len(nontrivial) == 1, "expected a single nontrivial summand")
    s1 = nontrivial[0]
    _require(len(s1.members) == k, "expected k modules in S1")
    _require(all(m.dim == 2 * (n - k) for m in s1.members), "dim m_i != 2(n-k)")

    # m-basis labels (the split of u(n) over unit vectors keeps labels)
    m_labels = []
    for v in split.m_basis:
        nz = [i for i, c in enumerate(v) if c != 0]
        _require(len(nz) == 1 and v[nz[0]] == 1, "m basis is not coordinate-aligned")
        m_labels.append(g.labels[nz[0]])

    modules = []
    for i in range(1, k + 1):
        idxs = _canonical_module_indices(m_labels, n, k, i)
        canonical = [linalg.unit_vec(split.dim_m, idx) for idx in idxs]
        member = s1.members[i - 1].space
        if not linalg.same_span(member.basis, canonical):
            raise ArithmeticError(
                f"module {i} does not match its coordinate form")
        modules.append(isotropy.make_subspace(map(linalg.sparse, canonical),
                                              split.norms_m))

    s1_pairs = []
    for i in range(1, k + 1):
        for j in range(k + 1, n + 1):
            s1_pairs.append((m_labels.index(f"e_{i}_{j}"),
                             m_labels.index(f"eb_{i}_{j}")))

    z0_m = linalg.zero_vec(split.dim_m)
    for i in range(1, k + 1):
        z0_m[m_labels.index(f"eb_{i}_{i}")] = ONE

    ideals = dec.ideals
    _require(ideals.center.dim == 1
             and linalg.same_span(ideals.center.basis, [z0_m]),
             "the center of S0 does not span z0")
    _require(len(ideals.simples) == (1 if k >= 2 else 0),
             "expected su(k) as the only simple ideal of S0")

    h_labels = []
    for v in h.basis_coords:
        nz = [i for i, c in enumerate(v) if c != 0]
        h_labels.append(g.labels[nz[0]])
    a_dir_h = linalg.zero_vec(h.dim)
    for i in range(k + 1, n + 1):
        a_dir_h[h_labels.index(f"eb_{i}_{i}")] = ONE

    return StiefelSpace(n=n, k=k, algebra=g, split=split, action=action,
                        decomp=dec, m_labels=m_labels,
                        modules=modules,
                        s1_pairs=s1_pairs, z0_m=z0_m, a_dir_h=a_dir_h)


# ---------------------------------------------------------------------------
# the S1 rotation and the deformation family
# ---------------------------------------------------------------------------

def tilde_map(space: StiefelSpace, x_m: Vec) -> Vec:
    """(a, b) -> (b, -a) on each (e_ij, eb_ij) coordinate pair of S1."""
    if len(x_m) != space.dim_m:
        raise lie_core.DimensionMismatchError(
            f"expected m-coordinates of length {space.dim_m}")
    if space.s1.space.coords_of(x_m, space.split.norms_m) is None:
        raise ValueError("vector is not in S1")
    out = linalg.zero_vec(space.dim_m)
    for ei, bi in space.s1_pairs:
        out[ei] = x_m[bi]
        out[bi] = -x_m[ei]
    return out


@dataclass
class FamilyData:
    """A_t = sum_c t^c A_c and a_t = sum_c t^c w_c, coefficient lists of
    any length: A_c as sparse columns over m, and w_c as the sparse
    h-coordinates of w_c(e_i) per m-basis vector e_i (so linear in X)."""

    decomp: IsotypicalDecomposition
    metric: List[Columns]
    witness: List[List[Sparse]]

    def _at(self, coefficients: list, t) -> Columns:
        powers = [Fraction(t) ** c for c in range(len(coefficients))]
        return linalg.combine_columns(powers, coefficients, self.decomp.dim)

    def metric_at(self, t) -> MetricEndomorphism:
        """A_t; its definiteness and commutant coordinates are read off the
        columns on first use."""
        return MetricEndomorphism(self.decomp, self._at(self.metric, t))

    def witness_at(self, t) -> Callable[[Vec], Vec]:
        """X -> a_t(X), dense over the h basis."""
        images, dim_h = self._at(self.witness, t), self.decomp.action.split.h.dim
        return lambda x_m: linalg.dense(
            linalg.sparse_mat_vec(images, linalg.sparse(x_m)), dim_h)


def _family_data(space: StiefelSpace) -> FamilyData:
    """A_t = (Id - P_z) + t P_z and a_t = w - t w, w(X) = r(X) sum_{i>k} eb_ii:
    P_z e_j = r(e_j) z0 and w(e_j) vanish off the support of z0."""
    dim, nu = space.dim_m, space.split.norms_m
    z0, a_dir = linalg.sparse(space.z0_m), linalg.sparse(space.a_dir_h)
    zz = sum((c * c * nu[i] for i, c in z0), ZERO)
    r = {j: c * nu[j] / zz for j, c in z0}             # r(e_j)
    p_z = [[(i, r[j] * z) for i, z in z0] if j in r else []
           for j in range(dim)]
    w = [[(i, r[j] * a) for i, a in a_dir] if j in r else []
         for j in range(dim)]
    a_0 = linalg.combine_columns([ONE, -ONE],
                                 [[[(j, ONE)] for j in range(dim)], p_z], dim)
    return FamilyData(decomp=space.decomp, metric=[a_0, p_z],
                      witness=[w, [[(i, -c) for i, c in col] for col in w]])


def metric_at(space: StiefelSpace, t) -> MetricEndomorphism:
    """A_t = Id + (t - 1) P_z, P_z the B-orthogonal projector onto the
    center; PD iff t > 0, which its `is_pd` proves exactly on first read."""
    return space.family_data.metric_at(t)


def witness_map(space: StiefelSpace, t) -> Callable[[Vec], Vec]:
    """X -> a_t = r (1 - t) sum_{i>k} eb_ii, r = <X, z0> / <z0, z0>."""
    return space.family_data.witness_at(t)


# ---------------------------------------------------------------------------
# verification of the family: one certificate for every t, viewed at each t
# ---------------------------------------------------------------------------

def check_witness_identities(space: StiefelSpace) -> Dict[str, bool]:
    """Spanning-set checks of the bracket facts behind the witness map.

    All identities are (bi)linear, so basis checks extend to every vector:
    the center rotates S1 by -2 tilde, the witness direction rotates it by
    +2 tilde, each eb_ii acts on its own module by -2 tilde and kills the
    others, and the witness direction commutes with all of S0.  No bracket
    [a + X, v] may have an h-component.
    """
    action, table = space.action, space.split.bracket_table
    z0, a_dir = linalg.sparse(space.z0_m), linalg.sparse(space.a_dir_h)
    turn = {}                                   # tilde on the coordinates
    for e, b in space.s1_pairs:
        turn[e], turn[b] = (b, -1), (e, 1)

    def acts(x_m: Sparse, a_h: Sparse, vectors, f: int) -> bool:
        """[a + X, v] = f tilde(v) for every v."""
        return all(table.bracket(x_m, v, a_h) == (linalg.sparse_from(
            {turn[i][0]: f * turn[i][1] * c for i, c in v}), []) for v in vectors)

    s1, s0 = space.s1.space.sparse_basis, space.decomp.s0.space.sparse_basis
    ebs = [[(space.m_labels.index(f"eb_{i}_{i}"), ONE)]
           for i in range(1, space.k + 1)]
    return {
        "center_rotates_s1": acts(z0, [], s1, -2),
        "witness_rotates_s1": acts([], a_dir, s1, 2),
        "eb_acts_per_module": all(          # -2 tilde on m_i, 0 on m_j
            acts(eb, [], module.sparse_basis, -2 if i == j else 0)
            for i, eb in enumerate(ebs)
            for j, module in enumerate(space.modules)),
        # [a_t, S0] = [z0, S0] = [h, S0] = 0, the last on generators of h
        "witness_commutes_with_s0": all(
            table.bracket(x_m, w, a_h) == ([], [])
            for x_m, a_h in ((z0, []), ([], a_dir)) for w in s0) and not any(
            linalg.sparse_mat_vec(op, w) for op in action.generator_ops
            for w in s0),
    }


@dataclass
class FamilyProof:
    """The coefficient certificate of [a_t(X) + X, A_t X] = 0.

    F_t(X) = sum_c t^c Q_c(X), each Q_c quadratic in X: F_t = 0 for every
    t > 0 and X iff every polarization B_c vanishes on every basis pair
    i <= j (B_c(e_i, e_i) = 2 Q_c(e_i)).  `nonzero` maps (c, i, j) to
    den B_c(e_i, e_j) where that is not 0, as integer {index: value}
    parts over m and over h (g-coordinates)."""

    n_coefficients: int
    n_pairs: int
    den: int
    nonzero: Dict[Tuple[int, int, int], Tuple[dict, dict]]

    @property
    def verified(self) -> bool:
        return not self.nonzero

    def to_json_dict(self) -> dict:
        """The first failure is the least (coefficient, pair) and its first
        nonzero entry, over m before h."""
        failure = None
        if self.nonzero:
            c, i, j = min(self.nonzero)
            f_m, f_h = self.nonzero[(c, i, j)]
            part, entries = ("m", f_m) if f_m else ("h", f_h)
            k = min(entries)
            failure = {"coefficient": c, "pair": [i, j], "part": part,
                       "index": k, "value": linalg.frac_to_str(
                           Fraction(entries[k], self.den))}
        return {"verified": self.verified,
                "n_coefficients": self.n_coefficients,
                "n_pairs": self.n_pairs, "first_failure": failure}


def certify_family(data: FamilyData) -> FamilyProof:
    """B_c(e_i, e_j) = sum_{a+b=c} [w_a(e_i) + [a = 0] e_i, A_b e_j] + (i <-> j)
    for every coefficient c and pair i <= j, on integers: each term is one
    `BracketTable.contract`, D dw da times the bracket, with A cleared to
    da A and the witness and e_i together to dw w and dw e_i."""
    table, dim = data.decomp.action.split.bracket_table, data.decomp.dim
    da, ys = linalg.cleared_columns(data.metric)       # da A_b e_j
    dw, ws = linalg.cleared_columns(data.witness)      # dw w_a(e_i)
    ws = ws or [[[]] * dim]                             # no witness: w = 0
    n_coefficients = len(ys) + len(ws) - 1
    nonzero = {}
    for i, j in itertools.combinations_with_replacement(range(dim), 2):
        for c in range(n_coefficients):
            acc_m: dict = {}
            acc_h: dict = {}
            for p, q in ((i, j), (j, i)):
                for a, w in enumerate(ws):
                    b = c - a           # a term with a zero factor is 0
                    if not (0 <= b < len(ys) and ys[b][q] and (a == 0 or w[p])):
                        continue
                    for acc, part in zip((acc_m, acc_h), table.contract(
                            [(p, dw)] if a == 0 else [], ys[b][q], w[p])):
                        for k, v in part.items():
                            acc[k] = acc.get(k, 0) + v
            parts = tuple({k: v for k, v in acc.items() if v}
                          for acc in (acc_m, acc_h))
            if any(parts):
                nonzero[(c, i, j)] = parts
    return FamilyProof(n_coefficients=n_coefficients,
                       n_pairs=dim * (dim + 1) // 2,
                       den=table.denominator * dw * da, nonzero=nonzero)


def family_samples(dim: int, n_samples: int, seed: int) -> List[Vec]:
    """The seeded random probes of a "family" certificate, `n_samples` >= 0."""
    go_mod.check_sample_count("family", n_samples)
    rng = random.Random(f"go-family:{seed}")
    return [lie_core.random_vector_of_len(dim, rng) for _ in range(n_samples)]


def family_view(proof: FamilyProof, a_t: MetricEndomorphism,
                witness: Callable[[Vec], Vec], samples: List[Vec],
                seed: int) -> go_mod.GOCertificate:
    """The "family" certificate at one t, a view of the proof.

    Probes: every m-basis vector, every pair sum, then the `family_samples`
    drawn with `seed`, a cross-check by `go.go_residual_sq` at A_t.  A
    verified proof gives the basis and pair residuals, 0; after a failed
    one they are `go_residual_sq`'s too.  A probe the witness fails is
    solved by least squares, and a positive minimum falsifies A_t.  Only a
    verified proof with every cross-check zero is "verified-on-family".
    """
    dim, dim_h = a_t.dim, a_t.decomp.action.split.h.dim
    probes = [(i, None) for i in range(dim)]
    probes += itertools.combinations(range(dim), 2)
    probes += samples
    cert = go_mod.GOCertificate(
        verdict="verified-on-family" if proof.verified else "passed-sampling",
        strategy="family", count=len(probes), seed=seed)
    images = [linalg.sparse(witness(linalg.unit_vec(dim, i))) for i in range(dim)]
    for probe in probes:
        if isinstance(probe, tuple):                 # e_i or e_i + e_j
            (i, j), x = probe, linalg.unit_vec(dim, probe[0])
            a_h = linalg.dense(images[i], dim_h)
            if j is not None:
                x[j] = ONE
                for k, c in images[j]:
                    a_h[k] += c
            proved = proof.verified
        else:                                        # the cross-check
            x, a_h, proved = probe, witness(probe), False
        w = go_mod.Witness(x, a_h, ZERO if proved
                           else go_mod.go_residual_sq(a_t, x, a_h))
        if w.residual_sq != 0:
            w = go_mod.Witness(w.x_m, *go_mod.go_solve_at(a_t, w.x_m))
            if w.residual_sq > 0:
                cert.verdict, cert.falsifier = "falsified", w
                return cert
            cert.verdict = "passed-sampling"
        cert.witnesses.append(w)
    return cert


def verify_family(space: StiefelSpace, t_values: Sequence,
                  n_samples: int = 100, seed: int = 0) -> dict:
    """Certify [a_t + X, A_t X] = 0 for every t > 0 ("all_t"), view it at
    each requested t ("certificates"), and report the identities; the t
    values and the sample count are checked before any exact work."""
    t_values = [Fraction(t) for t in t_values]
    if any(t <= 0 for t in t_values):
        raise NotPositiveDefiniteError(f"A_t needs t > 0, got t={min(t_values)}")
    samples = family_samples(space.dim_m, n_samples, seed)
    identities = check_witness_identities(space)
    if not all(identities.values()):
        raise ArithmeticError(f"witness identities failed: {identities}")
    proof, certs = certify_family(space.family_data), {}
    for t in t_values:
        a_t = metric_at(space, t)
        if not a_t.is_pd:
            raise ArithmeticError(f"A_t is not positive definite at t={t}")
        certs[str(t)] = family_view(proof, a_t, witness_map(space, t),
                                    samples, seed)
    return {"identities": identities, "certificates": certs,
            "all_t": proof.to_json_dict()}


# ---------------------------------------------------------------------------
# uniqueness scan
# ---------------------------------------------------------------------------

def diagonal_family(space: StiefelSpace) -> MetricFamily:
    """The cone left after rules 3.4 and 3.5: center free, scalar per
    simple ideal and per module (the classes remain unmerged)."""
    family = MetricFamily(decomp=space.decomp)
    family.operator_blocks.append(metric_mod.OperatorBlock(
        space=space.ideals.center, label="z(S0)"))
    next_class = 0
    for i, s in enumerate(space.ideals.simples):
        family.scalar_blocks.append(metric_mod.ScalarBlock(
            space=s, class_id=next_class, label=f"s{i + 1}"))
        next_class += 1
    for i, module in enumerate(space.modules):
        family.scalar_blocks.append(metric_mod.ScalarBlock(
            space=module, class_id=next_class, label=f"S1.m{i + 1}"))
        next_class += 1
    return family


def _deformation_test(space: StiefelSpace, family: MetricFamily
                      ) -> Callable[[Sequence], bool]:
    """values -> is the family's metric there lambda A_t = lambda A_0 +
    mu A_1, lambda, mu > 0.  The family operators are independent, so
    values -> sum_c v_c Op_c is injective: A(v) = lambda A_0 + mu A_1 iff
    v = lambda c_0 + mu c_1, c_0 and c_1 the family coordinates of
    A_0 = Id - P_z and A_1 = P_z.  One exact nullspace of sum_c x_c Op_c +
    y_0 A_0 + y_1 A_1 = 0 over the operators' entries proves both (its
    free columns must be y_0 and y_1) and gives c_0 and c_1 as -x; a point
    then costs O(p): lambda and mu read off two coordinates, all compared."""
    ops = family.operators().columns
    p, dim = len(ops), space.dim_m
    flat = [[(j * dim + i, x) for j, col in enumerate(op) for i, x in col]
            for op in ops + space.family_data.metric]
    basis = linalg.nullspace(linalg.column_rows(flat, dim * dim), p + 2)
    if [v[-1][0] for v in basis] != [p, p + 1]:
        raise ArithmeticError("dependent operators, or A_0 or A_1 not in span")
    c0, c1 = ([-x for x in linalg.dense(v[:-1], p)] for v in basis)
    # the leads of the echelon form of (c_0, c_1): a nonzero 2 x 2 minor
    a, b = sorted(linalg.pivot_rows([c0, c1]))
    det = c0[a] * c1[b] - c0[b] * c1[a]

    def in_family(values: Sequence) -> bool:
        lam = (values[a] * c1[b] - values[b] * c1[a]) / det
        mu = (c0[a] * values[b] - c0[b] * values[a]) / det
        return lam > 0 and mu > 0 and all(
            v == lam * x + mu * y for v, x, y in zip(values, c0, c1))

    return in_family


def grassmannian_cross_check(space: StiefelSpace) -> bool:
    """Under the enlarged action of h (+) S0, S1 must be irreducible."""
    ops = metric_mod.normalizer_ops(space.decomp)
    s1 = space.s1.space
    restricted = []
    for op in ops:
        r = isotropy.restrict_op(op, s1, space.split.norms_m)
        if r is None:
            return False
        restricted.append(r)
    return len(isotropy.commutant_sym_ops(restricted, s1.norms)) == 1


def uniqueness_scan(space: StiefelSpace,
                    spec: Optional[go_mod.ScanSpec] = None,
                    offdiagonal_samples: int = 200,
                    stage: Stage = contextlib.nullcontext,
                    all_t: Optional[dict] = None) -> dict:
    """Grid the reduced diagonal cone, sample the full cone, classify.

    The exhaustive grid covers every parameter left after the reduction
    rules that keep exact certificates (3.4 and 3.5); random full-cone
    samples exercise the off-diagonal directions that no grid of feasible
    size could sweep.  Survivors are classified against the deformation
    family; falsified points carry exact positive squared residuals.
    With a verified all-t certificate (`certify_family`), a grid survivor
    that is lambda A_t is GO by that proof, since lambda A_t takes the
    witness of A_t, and skips its random probes; every other survivor is
    sampled.  `stage(name)` wraps the "reduce" and "scan" stages.
    """
    spec = spec or go_mod.ScanSpec()
    with stage("reduce"):
        family, trace = go_mod.reduce_family(space.decomp, seed=spec.seed)
    with stage("scan"):
        return _scan_report(space, spec, family, trace, offdiagonal_samples,
                            bool(all_t and all_t["verified"]))


def _scan_report(space: StiefelSpace, spec: go_mod.ScanSpec,
                 family: MetricFamily, trace: go_mod.ReductionTrace,
                 offdiagonal_samples: int, family_proved: bool) -> dict:
    diag = diagonal_family(space)
    in_family = _deformation_test(space, diag)
    prove = in_family if family_proved else None
    grid_result = go_mod.search_go(space.decomp, diag, spec,
                                   include_grid=True, prove=prove)
    survivors = grid_result.survivors
    survivors_ok = all(e["proved"] if prove else in_family(
        [linalg.frac_from_str(s) for s in e["params"]]) for e in survivors)

    report = {
        "space": {"n": space.n, "k": space.k, "dim_m": space.dim_m},
        "claim": "uniqueness verified at scan resolution; certificates "
                 "cover the swept and sampled parameter sets only",
        "reduced_family": family.describe(),
        "trace": go_mod.trace_to_json_dict(trace),
        "grid": {
            "n_points": grid_result.n_points,
            "n_survivors": len(survivors),
            "n_survivors_proved": sum(e.get("proved", False)
                                      for e in survivors),
            "n_falsified": grid_result.n_falsified,
            "param_labels": diag.param_labels(),
            "survivors_all_in_family": survivors_ok,
            "falsified_sample": grid_result.falsified[:5],
        },
        "grassmannian_cross_check": grassmannian_cross_check(space),
    }
    if offdiagonal_samples:
        off = go_mod.search_go(
            space.decomp, metric_mod.full_family(space.decomp),
            replace(spec, random_count=offdiagonal_samples),
            include_grid=False)
        report["off_diagonal"] = {
            "n_points": off.n_points,
            "n_survivors": len(off.survivors),
            "n_falsified": off.n_falsified,
            "falsified_sample": off.falsified[:3],
        }
        shortfall = [s for s in off.notes if s.startswith("drew ")]
        if shortfall:                   # fewer draws than asked
            report["off_diagonal"]["notes"] = shortfall
    if space.k == space.n - 1:
        report["note"] = ("k = n-1: the surviving deformations are the "
                          "one-parameter metrics on the odd sphere fibering "
                          "over projective space (all of them pass)")
    return report


# ---------------------------------------------------------------------------
# consolidated pipeline
# ---------------------------------------------------------------------------

GRID_LO, GRID_HI = Fraction(1, 4), Fraction(4)    # the scan grid's ends


def reproduce_report(n: int, k: int, resolution=Fraction(1, 4),
                     seed: int = 0,
                     t_values: Sequence = (Fraction(1, 2), 1, 2, 3),
                     n_samples: int = 100,
                     offdiagonal_samples: int = 200,
                     stage: Stage = contextlib.nullcontext) -> dict:
    """Build the space, verify the family, and run the uniqueness scan.

    The scan grid steps by `resolution` from GRID_LO to GRID_HI.
    `stage(name)` wraps the "build", "verify", "reduce" and "scan" stages,
    in that order; it sees no report data.  A sample count out of range
    raises ValueError first (`go.check_sample_count`).
    """
    go_mod.check_sample_count("scan", offdiagonal_samples)
    with stage("build"):
        space = build_stiefel(n, k)
    with stage("verify"):
        family_report = verify_family(space, t_values, n_samples=n_samples,
                                      seed=seed)
    resolution = Fraction(resolution)
    steps = int((GRID_HI - GRID_LO) / resolution)
    grid = [GRID_LO + i * resolution for i in range(steps + 1)]
    spec = go_mod.ScanSpec(grid=grid, seed=seed)
    scan = uniqueness_scan(space, spec, offdiagonal_samples=offdiagonal_samples,
                           stage=stage, all_t=family_report["all_t"])
    certs = {t: go_mod.certificate_to_json_dict(c, max_witnesses=3)
             for t, c in family_report["certificates"].items()}
    return {
        "space": {"n": n, "k": k, "dim_m": space.dim_m,
                  "dim_s0": space.decomp.s0.dim,
                  "module_dims": [m.dim for m in space.s1.members]},
        "seed": seed,
        "family_identities": family_report["identities"],
        "family_certificates": certs,
        "family_all_t": family_report["all_t"],
        "uniqueness": scan,
    }
