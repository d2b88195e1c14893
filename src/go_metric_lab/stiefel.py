"""Complex Stiefel manifolds U(n)/U(n-k), end to end.

Builds the reductive split of u(n) over the diagonally embedded u(n-k),
decomposes the isotropy action (trivial summand of dimension k^2, k
equivalent modules of real dimension 2(n-k)), assembles the one-parameter
deformation family

    A_t = Id on su(k) (+) S1,   t * Id on the center of S0,   t > 0,

together with its closed-form witness map

    a_t(X) = r (1 - t) * sum_{i>k} eb_ii,   r = <X, z0> / <z0, z0>,

where z0 = sum_{i<=k} eb_ii spans the center.  Verification checks the
bracket identities behind the witness on spanning sets and then certifies
[a_t + X, A_t X] = 0 exactly, at each requested t and, by interpolation
in t, for every t > 0.  The uniqueness scan reduces the candidate cone,
sweeps the remaining diagonal cone on an exhaustive grid (proving the
survivors on the deformation line by the all-t certificate), samples the
full cone off the diagonal, and cross-checks that the enlarged normalizer
action leaves only scalars on S1.
"""

from __future__ import annotations

import contextlib
import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import (Callable, ContextManager, Dict, List, Optional, Sequence,
                    Tuple)

from . import decomp as decomp_mod
from . import go as go_mod
from . import isotropy, lie_core, linalg, metric as metric_mod
from .isotropy import IsotypicalDecomposition, Subspace
from .linalg import Vec, ONE, ZERO
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
        modules.append(isotropy.make_subspace(canonical, split.norms_m))

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


def metric_at(space: StiefelSpace, t) -> MetricEndomorphism:
    """A_t = Id + (t - 1) P_z, P_z the B-orthogonal projector onto the
    center; PD iff t > 0.  The class projectors of the diagonal family sum
    to Id - P_z, so A_t is that family at (1, ..., 1, t)."""
    family = diagonal_family(space)
    return metric_mod.instantiate(
        family, [ONE] * (family.n_params - 1) + [Fraction(t)])


def witness_map(space: StiefelSpace, t) -> Callable[[Vec], Vec]:
    """X -> a_t = r (1 - t) sum_{i>k} eb_ii, linear in X, where
    r = <X, z0> / <z0, z0> = <X, G z0> / <z0, z0>."""
    nu = space.split.norms_m
    z0 = [(i, c * nu[i]) for i, c in enumerate(space.z0_m) if c != 0]
    scale = (1 - Fraction(t)) / linalg.sparse_dot(space.z0_m, z0)

    def a_of(x_m: Vec) -> Vec:
        return linalg.vec_scale(linalg.sparse_dot(x_m, z0) * scale,
                                space.a_dir_h)

    return a_of


# ---------------------------------------------------------------------------
# verification of the family
# ---------------------------------------------------------------------------

def check_witness_identities(space: StiefelSpace) -> Dict[str, bool]:
    """Spanning-set checks of the bracket facts behind the witness map.

    All identities are (bi)linear, so basis checks extend to every vector:
    the center rotates S1 by -2 tilde, the witness direction rotates it by
    +2 tilde, each eb_ii acts on its own module by -2 tilde and kills the
    others, and the witness direction commutes with all of S0.
    """
    out = {}
    s1_basis = space.s1.space.basis
    zero_m = linalg.zero_vec(space.dim_m)
    # [a + X, Y] as (m-coordinates, h-component); every identity below
    # also needs the h-component to be []
    bracket = functools.partial(go_mod._bracket, space.action)

    out["center_rotates_s1"] = all(         # [z0, v] = -2 tilde(v)
        bracket(space.z0_m, v) == (linalg.vec_scale(-2, tilde_map(space, v)), [])
        for v in s1_basis)
    out["witness_rotates_s1"] = all(        # [sum_{i>k} eb_ii, v] = 2 tilde(v)
        bracket(zero_m, v, space.a_dir_h)
        == (linalg.vec_scale(2, tilde_map(space, v)), [])
        for v in s1_basis)

    # eb_ii acts on m_i by -2*tilde and kills m_j, j != i
    ok = True
    for i in range(1, space.k + 1):
        ebii = linalg.unit_vec(space.dim_m,
                               space.m_labels.index(f"eb_{i}_{i}"))
        for mj, module in enumerate(space.modules, start=1):
            for v in module.basis:
                expect = (linalg.vec_scale(-2, tilde_map(space, v))
                          if mj == i else zero_m)
                if bracket(ebii, v) != (expect, []):
                    ok = False
    out["eb_acts_per_module"] = ok

    s0 = space.decomp.s0.space.basis
    ok = all(bracket(zero_m, w, space.a_dir_h) == bracket(space.z0_m, w)
             == (zero_m, []) for w in s0)
    ok = ok and not any(linalg.sparse_mat_vec(cols, linalg.sparse(w))
                        for cols in space.action.ad_ops for w in s0)
    out["witness_commutes_with_s0"] = ok    # [a_t, S0] = [z0, S0] = [h, S0] = 0
    return out


# F_t(X) = [a_t(X) + X, A_t X] is a polynomial in t of at most this degree:
# witness_map and metric_at are both affine in t
FAMILY_T_DEGREE = 2
# where the all-t certificate tops up when fewer t are certified
TOP_UP_T = (Fraction(1), Fraction(2), Fraction(3))


def _family_certificate(space: StiefelSpace, t: Fraction, n_samples: int,
                        seed: int) -> go_mod.GOCertificate:
    """Polarization certificate of [a_t + X, A_t X] = 0 at one t."""
    a_t = metric_at(space, t)
    if not a_t.is_pd:
        raise ArithmeticError(f"A_t is not positive definite at t={t}")
    try:
        return go_mod.go_check(a_t, strategy="family", count=n_samples,
                               seed=seed, witness_map=witness_map(space, t))
    except go_mod.WitnessMapError as exc:
        raise go_mod.WitnessMapError(f"at t={t}: {exc}") from exc


def _all_t_verdict(certificates: Dict[Fraction, Optional[go_mod.GOCertificate]]
                   ) -> dict:
    """Interpolation in t over per-t certificates (None: no certificate).

    A polynomial of degree at most FAMILY_T_DEGREE that vanishes at
    FAMILY_T_DEGREE + 1 distinct t vanishes for every t.  Fewer distinct t
    are below the degree bound and prove nothing; a t whose check fails
    contradicts the claim.
    """
    proved = sorted(t for t, c in certificates.items()
                    if c is not None and c.verdict == "verified-on-family")
    return {"verified": (len(proved) == len(certificates)
                         and len(proved) > FAMILY_T_DEGREE),
            "degree_bound": FAMILY_T_DEGREE,
            "t_values": [str(t) for t in proved]}


def certify_all_t(space: StiefelSpace,
                  certificates: Dict[str, go_mod.GOCertificate]) -> dict:
    """One certificate of [a_t + X, A_t X] = 0 for every t > 0.

    The per-t polarization certificates already computed carry it when
    they cover FAMILY_T_DEGREE + 1 distinct t; otherwise count-0 family
    checks at t = 1, 2, 3 top them up.  A top-up whose witness map fails
    leaves the certificate unverified.
    """
    certs = {Fraction(t): c for t, c in certificates.items()}
    for t in TOP_UP_T:
        if len(certs) > FAMILY_T_DEGREE:
            break
        if t not in certs:
            try:
                certs[t] = _family_certificate(space, t, n_samples=0, seed=0)
            except go_mod.WitnessMapError:
                certs[t] = None
    return _all_t_verdict(certs)


def verify_family(space: StiefelSpace, t_values: Sequence,
                  n_samples: int = 100, seed: int = 0) -> dict:
    """Certify [a_t + X, A_t X] = 0 exactly for each t and for all t > 0;
    report identities.  "certificates" holds the requested t only."""
    identities = check_witness_identities(space)
    if not all(identities.values()):
        raise ArithmeticError(f"witness identities failed: {identities}")
    certs = {}
    for t in t_values:
        t = Fraction(t)
        if t <= 0:
            raise NotPositiveDefiniteError(f"A_t needs t > 0, got t={t}")
        certs[str(t)] = _family_certificate(space, t, n_samples, seed)
    return {"identities": identities, "certificates": certs,
            "all_t": certify_all_t(space, certs)}


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


def _eigenvalue(columns: linalg.Columns, v: linalg.Sparse
                ) -> Optional[Fraction]:
    """mu with A v = mu v for A's sparse columns and a sparse v, else None."""
    av = linalg.sparse_mat_vec(columns, v)
    lead, c = v[0]
    mu = dict(av).get(lead, ZERO) / c
    return mu if av == [(i, mu * x) for i, x in v if mu != 0] else None


def _is_deformation(space: StiefelSpace, columns: linalg.Columns) -> bool:
    """True iff A, given by its sparse columns, is lambda A_t (lambda,
    t > 0): one eigenvalue lambda on su(k) (+) S1 and an eigenvalue on z0."""
    vectors = [v for s in space.ideals.simples for v in s.sparse_basis]
    vectors += space.s1.space.sparse_basis
    lams = {_eigenvalue(columns, v) for v in vectors}
    mu = _eigenvalue(columns, linalg.sparse(space.z0_m))
    lam = lams.pop() if len(lams) == 1 else None
    return lam is not None and lam > 0 and mu is not None and mu > 0


def _deformation_test(space: StiefelSpace, family: MetricFamily
                      ) -> Callable[[Sequence], bool]:
    """values -> is the family's metric at these parameters lambda A_t."""
    ops = metric_mod.family_basis_ops(family)

    def in_family(values: Sequence) -> bool:
        return _is_deformation(
            space, linalg.combine_columns(values, ops, space.dim_m))

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
    With a verified all-t certificate (`certify_all_t`), a grid survivor
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
    if prove is None:
        survivors_ok = all(in_family([linalg.frac_from_str(s)
                                      for s in e["params"]])
                           for e in survivors)
    else:
        survivors_ok = all(e["proved"] for e in survivors)

    off_result = None
    if offdiagonal_samples:
        full = metric_mod.full_family(space.decomp)
        off_spec = go_mod.ScanSpec(grid=spec.grid,
                                   random_count=offdiagonal_samples,
                                   seed=spec.seed,
                                   survivor_random_probes=spec.survivor_random_probes,
                                   jobs=spec.jobs)
        off_result = go_mod.search_go(space.decomp, full, off_spec,
                                      include_grid=False)

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
            "n_falsified": len(grid_result.falsified),
            "param_labels": diag.param_labels(),
            "survivors_all_in_family": survivors_ok,
            "falsified_sample": grid_result.falsified[:5],
        },
        "grassmannian_cross_check": grassmannian_cross_check(space),
    }
    if off_result is not None:
        report["off_diagonal"] = {
            "n_points": off_result.n_points,
            "n_survivors": len(off_result.survivors),
            "n_falsified": len(off_result.falsified),
            "falsified_sample": off_result.falsified[:3],
        }
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
                     seed: int = 0, jobs: int = 1,
                     t_values: Sequence = (Fraction(1, 2), 1, 2, 3),
                     n_samples: int = 100,
                     offdiagonal_samples: int = 200,
                     stage: Stage = contextlib.nullcontext) -> dict:
    """Build the space, verify the family, and run the uniqueness scan.

    The scan grid steps by `resolution` from GRID_LO to GRID_HI.
    `stage(name)` wraps the "build", "verify", "reduce" and "scan" stages,
    in that order; it sees no report data.
    """
    with stage("build"):
        space = build_stiefel(n, k)
    with stage("verify"):
        family_report = verify_family(space, t_values, n_samples=n_samples,
                                      seed=seed)
    resolution = Fraction(resolution)
    steps = int((GRID_HI - GRID_LO) / resolution)
    grid = [GRID_LO + i * resolution for i in range(steps + 1)]
    spec = go_mod.ScanSpec(grid=grid, seed=seed, jobs=jobs)
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
