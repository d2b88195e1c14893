"""Pointwise criterion, certificates, reduction rules, and scans."""

import copy
import gc
import itertools
import math
import random
import types
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from go_metric_lab import decomp, go, lie_core, linalg, metric, stiefel
from go_metric_lab.go import (ScanSpec, basis_probe_vectors, go_check,
                              go_residual_sq, go_solve_at, reduce_family,
                              search_go)
from oracles import (center_coefficient, columns, coords_in_family,
                     dense_op, dense_orthogonal_projection, dense_pd_check,
                     family_matrix, fraction_positive_definite, fraction_bracket, fraction_least_squares,
                     identity, identity_metric, inner, mat_add, mat_vec,
                     matrix_of, projector, random_points, scan_residual_sq,
                     vec_add)


def _m_index(space, label):
    for i, v in enumerate(space.split.m_basis):
        nz = [j for j, c in enumerate(v) if c != 0]
        if space.algebra.labels[nz[0]] == label:
            return i
    raise KeyError(label)


def test_worked_witness_example(space):
    # (3,1), t=2, X = eb_11 + e_12: a = -(eb_22 + eb_33) solves exactly
    sp = space(3, 1)
    x = linalg.zero_vec(sp.dim_m)
    x[_m_index(sp, "eb_1_1")] = Fraction(1)
    x[_m_index(sp, "e_1_2")] = Fraction(1)
    a_t = stiefel.metric_at(sp, 2)
    witness = stiefel.witness_map(sp, 2)(x)
    h_labels = []
    for v in sp.split.h.basis_coords:
        nz = [j for j, c in enumerate(v) if c != 0]
        h_labels.append(sp.algebra.labels[nz[0]])
    named = {h_labels[i]: c for i, c in enumerate(witness) if c != 0}
    assert named == {"eb_2_2": Fraction(-1), "eb_3_3": Fraction(-1)}
    assert go_residual_sq(a_t, x, witness) == 0
    # the least-squares solver finds a zero-residual witness too
    _, res_sq = go_solve_at(a_t, x)
    assert res_sq == 0


def test_identity_metric_zero_witness(space):
    sp = space(3, 2)
    a_id = identity_metric(sp.decomp)
    rng = random.Random(4)
    for _ in range(10):
        x = lie_core.random_vector_of_len(sp.dim_m, rng)
        zero = linalg.zero_vec(sp.split.h.dim)
        assert go_residual_sq(a_id, x, zero) == 0


def test_non_go_metric_positive_residual(space):
    # weight 2 on S1 only: lambda != lambda-tilde; X = e_12 + e_13 falsifies
    sp = space(3, 2)
    p_s1 = projector(sp.s1.space, sp.action.norms, sp.dim_m)
    amat = mat_add(identity(sp.dim_m), p_s1)
    a = metric.from_matrix(sp.decomp, amat)
    assert a.is_pd
    x = linalg.zero_vec(sp.dim_m)
    x[_m_index(sp, "e_1_2")] = Fraction(1)       # su(2) part
    x[_m_index(sp, "e_1_3")] = Fraction(1)       # m_1 part
    a_h, res_sq = go_solve_at(a, x)
    assert res_sq > 0
    # the defect [X, AX] points along e_23, outside the reach of [h, AX]
    ax = mat_vec(matrix_of(a), x)
    c_g = lie_core.bracket(sp.algebra, sp.split.m_to_g(x), sp.split.m_to_g(ax))
    named = {sp.algebra.labels[i]: c for i, c in enumerate(c_g) if c != 0}
    assert named == {"e_2_3": Fraction(-1)}


def test_go_solve_rejects_vector_outside_m(space):
    sp = space(3, 1)
    a_id = identity_metric(sp.decomp)
    bad = sp.algebra.vector(("eb_2_2", 1))       # lies in h
    with pytest.raises(ValueError):
        go_solve_at(a_id, bad)


def test_residual_scaling_invariant(space):
    # residual(cX) with witness c*a scales by c^4 on the squared norm
    sp = space(3, 2)
    a_t = stiefel.metric_at(sp, 3)
    rng = random.Random(8)
    x = lie_core.random_vector_of_len(sp.dim_m, rng)
    a_h, res = go_solve_at(a_t, x)
    for c in (Fraction(2), Fraction(-1)):
        cx = linalg.vec_scale(c, x)
        ca = linalg.vec_scale(c, a_h)
        assert go_residual_sq(a_t, cx, ca) == c ** 4 * res
        a_h2, res2 = go_solve_at(a_t, cx)
        assert a_h2 == linalg.vec_scale(c, a_h)
        assert res2 == c ** 4 * res


def test_proof_invariant_h_component_vanishes(space):
    sp = space(4, 2)
    rng = random.Random(12)
    basis = metric.sym_commutant_basis(sp.decomp)
    for _ in range(20):
        params = [Fraction(rng.randint(1, 5)) for _ in basis]
        a = metric.from_parameters(sp.decomp, params)
        x = lie_core.random_vector_of_len(sp.dim_m, rng)
        ax = mat_vec(matrix_of(a), x)
        c_g = lie_core.bracket(sp.algebra, sp.split.m_to_g(x),
                               sp.split.m_to_g(ax))
        assert linalg.vec_is_zero(
            decomp.project(sp.split, c_g, "h"))


def test_go_check_identity_passes_basis(space):
    sp = space(3, 2)
    cert = go_check(identity_metric(sp.decomp), strategy="basis")
    assert cert.verdict == "passed-sampling"
    assert all(w.residual_sq == 0 for w in cert.witnesses)
    assert all(linalg.vec_is_zero(w.a_h) for w in cert.witnesses)


def test_go_check_falsifies_unequal_weights(space):
    sp = space(3, 2)
    p_s1 = projector(sp.s1.space, sp.action.norms, sp.dim_m)
    amat = mat_add(identity(sp.dim_m), p_s1)
    a = metric.from_matrix(sp.decomp, amat)
    cert = go_check(a, strategy="basis")
    assert cert.verdict == "falsified"
    assert cert.falsifier.residual_sq > 0


def test_go_check_family_strategy(space):
    # the family strategy is a view of the coefficient certificate
    sp = space(3, 1)
    cert = _view(sp.family_data, Fraction(1, 2), 50, 3)
    assert cert.verdict == "verified-on-family" and cert.strategy == "family"
    assert all(w.residual_sq == 0 for w in cert.witnesses)


def test_family_strategy_requires_witness(space):
    # go_check takes no witness, so it has no family strategy
    sp = space(3, 1)
    with pytest.raises(ValueError, match="unknown strategy"):
        go_check(stiefel.metric_at(sp, 2), strategy="family")


def _family_data(sp, metric=None, witness=None):
    data = sp.family_data
    return stiefel.FamilyData(decomp=sp.decomp,
                              metric=data.metric if metric is None else metric,
                              witness=data.witness if witness is None
                              else witness)


def _view(data, t, count=0, seed=0):
    """The "family" certificate of `data` at t, built the way
    `check-go --strategy family` builds it."""
    t = Fraction(t)
    return stiefel.family_view(
        stiefel.certify_family(data), data.metric_at(t), data.witness_at(t),
        stiefel.family_samples(data.decomp.dim, count, seed), seed)


def test_family_strategy_rejects_nonlinear_witness(space):
    # the witness is data on the basis, linear by construction: the basis
    # images of a quadratic map are no witness, and the proof says so
    sp = space(3, 1)
    d = sp.dim_m

    def crooked(x):
        r = center_coefficient(sp, x)
        return linalg.vec_scale(r * r, sp.a_dir_h)     # quadratic in X

    images = [linalg.sparse(crooked(linalg.unit_vec(d, i))) for i in range(d)]
    data = _family_data(sp, witness=[images])
    assert not stiefel.certify_family(data).verified
    assert _view(data, 2).verdict == "passed-sampling"


def test_random_strategy_deterministic(space):
    sp = space(3, 2)
    a = stiefel.metric_at(sp, 2)
    c1 = go_check(a, strategy="random", count=10, seed=42)
    c2 = go_check(a, strategy="random", count=10, seed=42)
    assert [w.x_m for w in c1.witnesses] == [w.x_m for w in c2.witnesses]
    assert c1.verdict == c2.verdict == "passed-sampling"


@pytest.mark.parametrize("strategy,count",
                         [("random", 0), ("random", -3), ("family", -1)])
def test_go_check_rejects_counts_out_of_range(space, strategy, count):
    # a sample of no probes certifies nothing; a library call must not
    # report passed-sampling for it
    sp = space(3, 2)
    t = Fraction(2)
    with pytest.raises(ValueError, match="count must be at least"):
        if strategy == "family":
            _view(sp.family_data, t, count)
        else:
            go_check(stiefel.metric_at(sp, t), strategy=strategy, count=count)
    # the family strategy proves by polarization; zero extra samples is fine
    cert = _view(sp.family_data, t)
    assert cert.verdict == "verified-on-family"


def test_sample_counts_are_bounded_on_every_path(space, monkeypatch):
    # negative and above-the-bound counts raise ValueError through
    # go.check_sample_count: a scan's draws, the report's off-diagonal
    # samples (before any exact work) and go_check's probes
    sp = space(3, 2)
    full = metric.full_family(sp.decomp)
    over = go.MAX_SAMPLES + 1
    for count, match in ((-2, "at least 0"), (over, "at most")):
        with pytest.raises(ValueError, match=match):
            search_go(sp.decomp, full, ScanSpec(random_count=count),
                      include_grid=False)
    monkeypatch.setattr(stiefel, "build_stiefel", None)
    for count, match in ((-3, "at least 0"), (over, "at most")):
        with pytest.raises(ValueError, match=match):
            stiefel.reproduce_report(3, 2, offdiagonal_samples=count)
    monkeypatch.undo()
    with pytest.raises(ValueError, match="at most"):
        go_check(stiefel.metric_at(sp, Fraction(2)), strategy="random",
                 count=over)


def test_basis_probe_count(space):
    sp = space(3, 2)
    probes = basis_probe_vectors(sp.decomp)
    d = sp.dim_m
    assert len(probes) == d + d * (d - 1) // 2


# ---------------------------------------------------------------------------
# reduction
# ---------------------------------------------------------------------------

def test_reduce_family_stiefel_k2(space):
    sp = space(3, 2)
    family, trace = reduce_family(sp.decomp)
    assert family.n_params == 2
    desc = family.describe()
    assert len(desc["scalar_classes"]) == 1
    assert desc["scalar_classes"][0]["dim"] == 7       # su(2) + two modules
    assert [b["dim"] for b in desc["operator_blocks"]] == [1]

    tags = {s.tag for s in trace.steps if s.fired}
    assert {"3.4", "3.5", "3.2"} <= tags
    w35 = [w for s in trace.fired("3.5") for w in s.witnesses]
    assert {"eb_1_1": "1/1"} in [w["x"] for w in w35]
    assert {"eb_2_2": "1/1"} in [w["x"] for w in w35]
    edges = [w for s in trace.fired("3.2") for w in s.witnesses]
    brackets = [w.get("bracket") for w in edges if "pair" in w]
    assert {"e_1_2": "-1/1"} in brackets               # [e_13, e_23] = -e_12
    su_s1 = [w for w in edges if "pair" in w and "s1" in w["pair"]
             and any(p.startswith("S1.m") for p in w["pair"])]
    assert su_s1, "expected a bracket witness joining su(k) with a module"


def test_reduce_family_stiefel_k1(space):
    sp = space(3, 1)
    family, trace = reduce_family(sp.decomp)
    assert family.n_params == 2
    desc = family.describe()
    # center stays free, the single module keeps its own scalar: no merge
    assert [b["dim"] for b in desc["operator_blocks"]] == [1]
    assert len(desc["scalar_classes"]) == 1
    assert desc["scalar_classes"][0]["dim"] == 2 * (3 - 1)


def test_reduce_family_preserves_deformation_metrics(space):
    sp = space(4, 2)
    family, _ = reduce_family(sp.decomp)
    for t in (Fraction(1, 2), Fraction(1), Fraction(3)):
        a_t = stiefel.metric_at(sp, t)
        coords = coords_in_family(family, a_t)
        assert coords is not None, f"A_t left the reduced family at t={t}"


def test_prop36_certificate_on_stiefel(space):
    sp = space(4, 2)
    result = go._prop36_certificate(sp.decomp, 1, seed=0)
    assert result is not None
    assert len(result) == 2


def test_scalar_family_for_isotropy_irreducible_piece(space):
    # single-module summand: its block is scalar with no witnesses needed
    sp = space(2, 1)
    family, trace = reduce_family(sp.decomp)
    assert family.n_params == 2
    assert not any(s.tag in ("3.5", "3.6") and s.fired for s in trace.steps)


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

def test_search_go_small_grid(space):
    sp = space(3, 2)
    diag = stiefel.diagonal_family(sp)
    spec = ScanSpec(grid=[Fraction(1), Fraction(2)], seed=0,
                    survivor_random_probes=3)
    result = search_go(sp.decomp, diag, spec)
    assert result.n_points == 16
    assert len(result.survivors) == 4
    # the grid keeps the first five falsified entries and counts them all
    assert result.n_falsified == 12 and len(result.falsified) == 5
    for entry in result.falsified:
        assert linalg.frac_from_str(entry["residual_sq"]) > 0


def test_search_go_identity_only_family(space):
    sp = space(2, 1)
    family, _ = reduce_family(sp.decomp)
    spec = ScanSpec(grid=[Fraction(1)], seed=0, survivor_random_probes=2)
    result = search_go(sp.decomp, family, spec)
    assert result.n_points == 1
    assert len(result.survivors) == 1


# the (3,2) grid of the theorem workload: 1/4, 5/4, 9/4, 13/4
_GRID_32 = [Fraction(1, 4) + i for i in range(4)]


def _first_failing_probe(a, probes):
    for x in probes:
        _, res_sq = go_solve_at(a, x)
        if res_sq > 0:
            return x, res_sq
    raise AssertionError("no probe fails")


def test_scan_reports_first_failing_probe(space):
    # go_solve_at on the instantiated metric shares no code with the scan
    # tensors, so it re-derives the canonical falsifier independently
    sp = space(3, 2)
    spec = ScanSpec(grid=_GRID_32, seed=3, random_count=10,
                    survivor_random_probes=0)
    probes = basis_probe_vectors(sp.decomp)
    diag = stiefel.diagonal_family(sp)
    full = metric.full_family(sp.decomp)
    runs = [(diag, search_go(sp.decomp, diag, spec)),
            (full, search_go(sp.decomp, full, spec, include_grid=False))]
    assert all(result.falsified for _, result in runs)
    for family, result in runs:
        for entry in result.falsified:
            a = metric.instantiate(
                family, [linalg.frac_from_str(s) for s in entry["params"]])
            x, res_sq = _first_failing_probe(a, probes)
            assert entry["falsifier_x"] == [linalg.frac_to_str(c) for c in x]
            assert entry["residual_sq"] == linalg.frac_to_str(res_sq)


def test_scan_with_int_grid_matches_fraction_grid(space):
    # the residual memo divides by the leading value; ints must stay exact
    sp = space(3, 2)
    diag = stiefel.diagonal_family(sp)
    ints = search_go(sp.decomp, diag, ScanSpec(grid=[1, 2, 3]))
    fracs = search_go(sp.decomp, diag,
                      ScanSpec(grid=[Fraction(v) for v in (1, 2, 3)]))
    assert ints.survivors == fracs.survivors
    assert ints.falsified == fracs.falsified


def test_scan_solves_once_per_projective_class(space, monkeypatch):
    # falsified points share (probe, projective class) keys, so most of
    # them are answered from the memo without a least-squares solve
    sp = space(3, 2)
    calls = []
    least_squares = linalg.least_squares

    def counted(*args):
        calls.append(args)
        return least_squares(*args)

    monkeypatch.setattr(linalg, "least_squares", counted)
    result = search_go(sp.decomp, stiefel.diagonal_family(sp),
                       ScanSpec(grid=_GRID_32, survivor_random_probes=0))
    assert result.n_falsified == 240
    assert len(calls) < result.n_falsified


def _dense_pd_at(ops, norms):
    """The matrix PD check of G A at parameter values, on integers: the
    entries of G Op_c are cleared to integers once, the values per point,
    and a positive scaling keeps G A symmetric and PD or not."""
    dim = len(norms)
    g_ops = [[(i, j, nu * c) for i, (nu, row) in
              enumerate(zip(norms, dense_op(cols, dim)))
              for j, c in enumerate(row) if c] for cols in ops]
    den = math.lcm(*(c.denominator for m in g_ops for _, _, c in m))
    int_ops = [[(i, j, int(c * den)) for i, j, c in m] for m in g_ops]

    def pd(values):
        d = math.lcm(*(Fraction(v).denominator for v in values))
        ga = [[0] * dim for _ in range(dim)]
        for v, m in zip(values, int_ops):
            v = int(Fraction(v) * d)
            for i, j, c in m:
                ga[i][j] += v * c
        return ga == linalg.transpose(ga) and fraction_positive_definite(ga)
    return pd


def _oracle_scan(decomp_, family, spec, include_grid=True):
    """The per-point Fraction walk: every point carries its values, PD is
    the matrix check, and every probe asks the projective-class memo of
    fresh tensors, all built before the walk, with no value ids and no
    tables."""
    conv = linalg.frac_to_str
    tensors = go._ScanTensors(metric.FamilyOperators(
        decomp_, metric.family_basis_ops(family)))
    for p in range(len(tensors.probes)):
        tensors._probe(p)
    x_strings = [[conv(c) for c in x] for x in basis_probe_vectors(decomp_)]
    pd = _dense_pd_at(tensors.ops.columns, decomp_.action.norms)
    points = (list(itertools.product(spec.grid, repeat=family.n_params))
              if include_grid else [])
    if spec.random_count:
        points += random_points(family, spec, pd)
    survivors, falsified = [], []
    for idx, values in enumerate(points):
        if not pd(values):
            continue
        entry = {"params": [conv(v) for v in values]}
        residuals = ((x, scan_residual_sq(tensors, values, p))
                     for p, x in enumerate(x_strings))
        failure = next(((x, r) for x, r in residuals if r > 0), None)
        if failure is None and spec.survivor_random_probes:
            amat = family_matrix(tensors.ops.columns, values, decomp_.dim)
            cert = go_check(metric.MetricEndomorphism(
                                decomp=decomp_, columns=columns(amat)),
                            strategy="random",
                            count=spec.survivor_random_probes,
                            seed=spec.seed * 1_000_003 + idx)
            if cert.verdict == "falsified":
                failure = ([conv(c) for c in cert.falsifier.x_m],
                           cert.falsifier.residual_sq)
        if failure is None:
            entry["status"] = "survived"
            survivors.append(entry)
        else:
            entry.update(status="falsified",
                         falsifier_x=failure[0],
                         residual_sq=conv(failure[1]))
            falsified.append(entry)
    notes = ([] if survivors or falsified
             else ["no positive definite points in the scan"])
    return go.ScanResult(survivors=survivors, falsified=falsified,
                         n_points=len(points), n_falsified=len(falsified),
                         notes=notes)


_QUARTER_GRID = [Fraction(i, 4) for i in range(1, 17)]


@pytest.mark.parametrize("n,k,grid", [
    (3, 2, _GRID_32),
    (3, 2, [1, 2, 3]),
    # not-pd points, and a repeated value that gets two value ids
    (3, 2, [Fraction(-1), 0, Fraction(1, 2), 1, Fraction(1, 2)]),
    (4, 2, _QUARTER_GRID),
    (6, 3, _GRID_32),
], ids=["quarter", "int", "nonpositive-repeated", "4-2-quarter",
        "6-3-resolution-1"])
def test_scan_tables_match_fraction_walk(space, n, k, grid):
    # the join against the per-point walk: the survivors after their
    # seeded probes, the falsified count and the first five falsified
    # points in index order
    sp = space(n, k)
    diag = stiefel.diagonal_family(sp)
    spec = ScanSpec(grid=grid, seed=11, survivor_random_probes=3)
    result = search_go(sp.decomp, diag, spec)
    oracle = _oracle_scan(sp.decomp, diag, spec)
    assert result.survivors == oracle.survivors
    assert (result.n_points, result.notes) == (oracle.n_points, oracle.notes)
    assert result.n_falsified == len(oracle.falsified)
    assert result.falsified == oracle.falsified[:5]
    assert result.falsified and result.survivors


def test_scan_tables_match_fraction_walk_on_random_points(space):
    sp = space(3, 2)
    full = metric.full_family(sp.decomp)
    spec = ScanSpec(grid=_GRID_32, seed=2, random_count=12,
                    survivor_random_probes=3)
    result = search_go(sp.decomp, full, spec, include_grid=False)
    assert result == _oracle_scan(sp.decomp, full, spec, include_grid=False)
    assert result.n_points == 12 and result.falsified


def test_scan_evaluates_each_probe_once_per_supported_values(space,
                                                              monkeypatch):
    # a probe reads at most a few of the 4 parameters, so its table has at
    # most |grid|^|support| entries, each filled by one exact evaluation:
    # the evaluations counted are exactly the entries the tables hold.  The
    # join fills 224 of them, as many as the per-point walk filled, and
    # on this grid the falsified sample's walk fills none
    sp = space(3, 2)
    diag = stiefel.diagonal_family(sp)
    probes = basis_probe_vectors(sp.decomp)
    tensors = go._ScanTensors(diag.operators())
    support = [tensors._probe(p).support for p in range(len(probes))]
    calls, scans = [], set()
    residual = go._ScanTensors._residual

    def counted(self, p, pairs):
        calls.append(p)
        scans.add(self)
        return residual(self, p, pairs)

    monkeypatch.setattr(go._ScanTensors, "_residual", counted)
    result = search_go(sp.decomp, diag, ScanSpec(grid=_GRID_32))
    assert result.n_points == 256
    (scanned,) = scans
    filled = sum(len(table) for _, _, table in filter(None, scanned._entries))
    assert len(calls) == filled == 224
    assert len(calls) <= sum(len(_GRID_32) ** len(s) for s in support)


def _table_points(tensors):
    """(probe, full-length values, table string) of every filled entry;
    the values are None off the probe's support."""
    n = len(tensors.ops.columns)
    for p, _, table in filter(None, tensors._entries):
        support = tensors._probe(p).support
        for key, res in table.items():
            ids = key if isinstance(key, tuple) else (key,)
            values = [None] * n
            for c, i in zip(support, ids):
                values[c] = Fraction(*tensors.pairs[i])
            yield p, values, res


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2)])
def test_table_strings_are_reduced_residuals(space, n, k):
    # every filled entry is frac_to_str of the Fraction residual when it
    # is positive and "" when it is zero: reduced, sign on the numerator
    sp = space(n, k)
    family = (stiefel.diagonal_family(sp) if n == 3
              else metric.full_family(sp.decomp))
    ops = metric.family_basis_ops(family)
    tensors = go._ScanTensors(family.operators(), _GRID_32)
    if n == 3:
        points = itertools.product(range(len(_GRID_32)), repeat=len(ops))
    else:
        spec = ScanSpec(grid=_GRID_32, seed=6, random_count=16)
        points = go._random_points(family, spec, tensors)
    for ids in points:
        tensors.first_failure(ids)
    entries = list(_table_points(tensors))
    strings = {res for _, _, res in entries}
    assert "" in strings and len(strings) > 2
    for p, values, res in entries:
        res_sq = scan_residual_sq(tensors, values, p)
        assert res == (linalg.frac_to_str(res_sq) if res_sq > 0 else "")


def test_scan_keeps_no_reference_to_the_family(space):
    # the family holds, through its decomposition, the whole space; once
    # the scan returns nothing of the scan may keep it alive
    sp = space(3, 2)
    diag = stiefel.diagonal_family(sp)
    ref = weakref.ref(diag)
    result = search_go(sp.decomp, diag, ScanSpec(grid=[1, 2]))
    del diag
    gc.collect()
    assert result.n_points == 16 and ref() is None


def _count_builds(monkeypatch):
    built = []
    build = go._ScanTensors._build

    def counted(self, p):
        built.append(p)
        return build(self, p)

    monkeypatch.setattr(go._ScanTensors, "_build", counted)
    return built


@pytest.mark.parametrize("which", ["3-2", "4-2", "8-4", "two-torus"])
def test_probes_are_the_supports_of_the_basis_probe_vectors(space, two_torus,
                                                            which):
    # decomp.probes is the one list of probes: the units in basis order,
    # then every pair i < j once, pairs across two summands before pairs
    # inside one, and basis_probe_vectors is 1 on each support, 0 elsewhere
    dec = (two_torus() if which == "two-torus"
           else space(*map(int, which.split("-"))).decomp)
    vectors = basis_probe_vectors(dec)
    assert dec.probes == tuple(tuple(i for i, x in enumerate(v) if x)
                               for v in vectors)
    assert all(x in (0, 1) for v in vectors for x in v)
    assert dec.probes is dec.probes
    units, pairs = dec.probes[:dec.dim], dec.probes[dec.dim:]
    assert units == tuple((i,) for i in range(dec.dim))
    assert sorted(pairs) == list(itertools.combinations(range(dec.dim), 2))
    norms = dec.action.norms
    summand = [next((k for k, s in enumerate(dec.summands)
                    if not any(dense_orthogonal_projection(
                        s.space.sparse_basis, s.space.norms, norms,
                        linalg.unit_vec(dec.dim, i))[1])), None)
               for i in range(dec.dim)]
    cross = [summand[i] != summand[j] for i, j in pairs]
    assert any(cross) and cross == sorted(cross, reverse=True)
    for same in (False, True):
        part = [p for p, c in zip(pairs, cross) if c != same]
        assert part == sorted(part)


def test_probe_order_is_computed_once_per_decomposition(monkeypatch):
    # a fresh space: the session's cached ones may hold the order already
    sp = stiefel.build_stiefel(3, 2)
    calls = []
    projection = linalg.orthogonal_projection

    def counted(*args):
        calls.append(args)
        return projection(*args)

    monkeypatch.setattr(linalg, "orthogonal_projection", counted)
    first = basis_probe_vectors(sp.decomp)
    assert calls
    calls.clear()
    second = basis_probe_vectors(sp.decomp)
    assert not calls
    assert first == second
    assert all(a is not b for a, b in zip(first, second))
    # the callers own their vectors: mutating them changes neither a later
    # call nor the falsifier a later scan reports
    full = metric.full_family(sp.decomp)
    spec = ScanSpec(grid=_GRID_32, seed=1, random_count=8,
                    survivor_random_probes=0)
    before = search_go(sp.decomp, full, spec, include_grid=False)
    kept = [list(x) for x in first]
    for x in first + second:
        x[:] = [Fraction(7)] * len(x)
    assert basis_probe_vectors(sp.decomp) == kept
    after = search_go(sp.decomp, full, spec, include_grid=False)
    assert after == before and after.falsified
    strings = [[linalg.frac_to_str(c) for c in x] for x in kept]
    assert all(e["falsifier_x"] in strings for e in after.falsified)
    assert not calls


def test_scan_builds_probe_tensors_on_first_reach(space, monkeypatch):
    # every off-diagonal sample fails at an early probe, so the probes
    # past the last first failure are never built
    sp = space(4, 2)
    full = metric.full_family(sp.decomp)
    probes = basis_probe_vectors(sp.decomp)
    spec = ScanSpec(grid=_GRID_32, seed=1, random_count=16,
                    survivor_random_probes=3)
    built = _count_builds(monkeypatch)
    result = search_go(sp.decomp, full, spec, include_grid=False)
    strings = [[linalg.frac_to_str(c) for c in x] for x in probes]
    last = max(strings.index(e["falsifier_x"]) for e in result.falsified)
    assert len(result.falsified) == result.n_points == 16
    assert built == list(range(last + 1))
    assert last + 1 < len(probes)
    assert result == _oracle_scan(sp.decomp, full, spec, include_grid=False)


def test_scan_rejects_op_outside_commutant_on_first_reach(space, monkeypatch):
    # half of e_13 <-> eb_13 added to the operator of the first parameter:
    # B-symmetric (equal norms), but [e_13, eb_13] has an h-part, so the
    # basis probe e_13 brackets out of m
    sp = space(4, 2)
    full = metric.full_family(sp.decomp)
    i, j = _m_index(sp, "e_1_3"), _m_index(sp, "eb_1_3")
    ops = metric.family_basis_ops(full)
    bumped = [dict(col) for col in ops[0]]
    for a, b in ((i, j), (j, i)):
        bumped[a][b] = bumped[a].get(b, 0) + Fraction(1, 2)
    ops[0] = [sorted(col.items()) for col in bumped]
    monkeypatch.setattr(metric, "family_basis_ops", lambda family: ops)
    built = _count_builds(monkeypatch)
    probes = basis_probe_vectors(sp.decomp)
    with pytest.raises(ValueError, match="not in m"):
        search_go(sp.decomp, full,
                  ScanSpec(grid=_GRID_32, seed=1, random_count=16),
                  include_grid=False)
    assert probes[built[-1]] == linalg.unit_vec(sp.dim_m, i)
    assert built == list(range(built[-1] + 1))


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2)])
def test_drawn_samples_are_proved_positive_definite_once(space, monkeypatch,
                                                         n, k):
    # _random_points proves each draw PD (one check per draw) or rejects
    # it; the scan does not check an accepted draw again
    sp = space(n, k)
    full = metric.full_family(sp.decomp)
    spec = ScanSpec(grid=_GRID_32, seed=4, random_count=12,
                    survivor_random_probes=3)
    calls = {"pd": 0, "draws": 0}
    pd_check, random_points = linalg.sym_positive_definite, go._random_points

    def counted_pd(*args):
        calls["pd"] += 1
        return pd_check(*args)

    def counted_draws(*args):
        before = calls["pd"]
        points = random_points(*args)
        calls["draws"] += calls["pd"] - before
        return points

    monkeypatch.setattr(linalg, "sym_positive_definite", counted_pd)
    monkeypatch.setattr(go, "_random_points", counted_draws)
    result = search_go(sp.decomp, full, spec, include_grid=False)
    assert result.n_points == 12
    assert calls["pd"] == calls["draws"] >= result.n_points
    monkeypatch.undo()
    assert result == _oracle_scan(sp.decomp, full, spec, include_grid=False)


def test_offdiagonal_scan_clears_family_operators_once(space, monkeypatch):
    # the scan tensors clear the family operators to integers, and the PD
    # sampling reads those integer columns instead of clearing them again
    sp = space(4, 2)
    full = metric.full_family(sp.decomp)
    ops = metric.family_basis_ops(full)
    cleared = []
    cleared_columns = linalg.cleared_columns

    def recorded(op_list):
        cleared.append(list(op_list))
        return cleared_columns(op_list)

    monkeypatch.setattr(linalg, "cleared_columns", recorded)
    result = search_go(sp.decomp, full,
                       ScanSpec(grid=_GRID_32, seed=3, random_count=6),
                       include_grid=False)
    assert result.n_points == len(result.falsified) == 6
    assert sum(op_list == ops for op_list in cleared) == 1


def _count_family_ops(monkeypatch):
    calls = []
    family_basis_ops = metric.family_basis_ops

    def counted(family):
        calls.append(family)
        return family_basis_ops(family)

    monkeypatch.setattr(metric, "family_basis_ops", counted)
    return calls


@pytest.mark.parametrize("n,k", [(4, 2), (4, 3)])
def test_second_scan_of_a_family_builds_nothing_again(space, monkeypatch,
                                                      n, k):
    # the operators, their integer form and the probe tensors are the
    # family's: a second scan with another seed, which reaches no probe the
    # first did not, neither builds the operators nor any probe again, and
    # equals the scan of a freshly built family
    sp = space(n, k)
    full = metric.full_family(sp.decomp)
    first, second = (ScanSpec(grid=_GRID_32, seed=seed, random_count=12,
                              survivor_random_probes=3) for seed in (2, 1))
    calls = _count_family_ops(monkeypatch)
    built = _count_builds(monkeypatch)
    search_go(sp.decomp, full, first, include_grid=False)
    assert calls == [full]
    assert built and sorted(built) == list(range(len(built)))
    calls.clear()
    built.clear()
    result = search_go(sp.decomp, full, second, include_grid=False)
    assert calls == [] and built == []
    monkeypatch.undo()
    assert result.falsified and result == search_go(
        sp.decomp, metric.full_family(sp.decomp), second, include_grid=False)


def test_scan_after_a_change_of_the_family_equals_a_fresh_scan(space):
    # the kept operators follow a merge, an appended scalar block and a
    # reassigned block list, each made after a scan: the next scan equals
    # that of a family built with the change
    sp = space(4, 2)
    grid = ScanSpec(grid=[1, 2], seed=5, survivor_random_probes=2)
    draws = ScanSpec(grid=_GRID_32, seed=5, random_count=8,
                     survivor_random_probes=2)

    def merged(family, _):
        family.merge(1, 2)

    def appended(family, block):
        family.scalar_blocks.append(block)

    def no_intertwiners(family, _):
        family.intertwiner_blocks = []

    def diag_without_last():
        family = stiefel.diagonal_family(sp)
        return family, family.scalar_blocks.pop()

    cases = [
        (lambda: (stiefel.diagonal_family(sp), None), merged, grid, True),
        (diag_without_last, appended, grid, True),
        (lambda: (metric.full_family(sp.decomp), None), no_intertwiners,
         draws, False)]
    for make, change, spec, include_grid in cases:
        (family, arg), (fresh, fresh_arg) = make(), make()
        before = search_go(sp.decomp, family, spec, include_grid=include_grid)
        change(family, arg)
        change(fresh, fresh_arg)
        result = search_go(sp.decomp, family, spec, include_grid=include_grid)
        assert result != before and result == search_go(
            sp.decomp, fresh, spec, include_grid=include_grid)


def test_mutating_what_a_caller_gets_changes_no_later_scan(space):
    # the family's operators are kept: the operator columns and metrics
    # handed out, and the entries and falsifier vectors of a result, are
    # the caller's to change
    sp = space(4, 2)
    full = metric.full_family(sp.decomp)
    spec = ScanSpec(grid=_GRID_32, seed=7, random_count=8,
                    survivor_random_probes=0)
    before = search_go(sp.decomp, full, spec, include_grid=False)
    kept = copy.deepcopy(before)
    for cols in metric.family_basis_ops(full):
        for col in cols:
            col[:] = [(0, Fraction(5))]
    a = metric.instantiate(full, [Fraction(1)] * full.n_params)
    a.columns[:] = [[] for _ in a.columns]
    for e in before.falsified:
        e["falsifier_x"][:] = ["7"] * len(e["falsifier_x"])
        e["params"][:] = ["0"] * len(e["params"])
        e["residual_sq"] = "0"
    after = search_go(sp.decomp, full, spec, include_grid=False)
    assert before != kept and after == kept and after.falsified
    assert metric.instantiate(full, [Fraction(1)] * full.n_params
                              ).columns != a.columns


def test_family_keeps_one_structure_and_no_residual_memo(space, monkeypatch):
    # scans with N seeds leave one kept structure on the family, holding
    # probe tensors only: the residual memo is the scan's, so a seed
    # scanned again solves as many least-squares problems as the first time
    sp = space(4, 2)
    full = metric.full_family(sp.decomp)
    solves = []
    least_squares = linalg.least_squares

    def counted(*args):
        solves.append(args)
        return least_squares(*args)

    monkeypatch.setattr(linalg, "least_squares", counted)
    specs = [ScanSpec(grid=_GRID_32, seed=seed, random_count=8,
                      survivor_random_probes=0) for seed in range(4)]
    kept, counts = [], []
    for spec in specs + specs[:1]:
        solves.clear()
        search_go(sp.decomp, full, spec, include_grid=False)
        counts.append(len(solves))
        kept.append(full.operators())
    assert all(ops is kept[0] for ops in kept)
    assert counts[-1] == counts[0] > 0
    assert all(type(p) is go._Probe for p in kept[0].probes.values())


@pytest.mark.parametrize("n,k,cone", [(3, 2, False), (4, 2, True)],
                         ids=["3-2-resolution-1", "4-2-full-cone"])
def test_scan_solves_match_dense_least_squares(space, monkeypatch, n, k, cone):
    # every least-squares solve of a (3,2) resolution-1 grid scan, its
    # survivors' random probes included, and of a (4,2) full-cone scan of
    # 16 samples, against the dense Fraction normal equations
    sp = space(n, k)
    residuals = []
    least_squares = linalg.least_squares

    def checked(cols, rhs, gram):
        got = least_squares(cols, rhs, gram)
        assert got == fraction_least_squares(cols, rhs, gram)
        residuals.append(got[1])
        return got

    monkeypatch.setattr(linalg, "least_squares", checked)
    grid = [stiefel.GRID_LO + i for i in range(4)]
    if cone:
        result = search_go(sp.decomp, metric.full_family(sp.decomp),
                           ScanSpec(grid=grid, random_count=16),
                           include_grid=False)
        assert result.n_points == len(result.falsified) == 16
    else:
        result = search_go(sp.decomp, stiefel.diagonal_family(sp),
                           ScanSpec(grid=grid))
        assert result.survivors and result.falsified
    assert any(r == 0 for r in residuals) and any(r > 0 for r in residuals)


def _draw_values(tensors, points):
    """Drawn points of value ids as tuples of their values."""
    return [tuple(Fraction(*tensors.pairs[i]) for i in ids) for ids in points]


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (4, 3)])
def test_random_points_match_dense_pd_oracle(space, monkeypatch, n, k):
    # the draw stream does not depend on the verdicts, so a run whose PD
    # check accepts everything returns the draws themselves; each draw's
    # verdict from its integer rows must be the dense Fraction verdict
    sp = space(n, k)
    full = metric.full_family(sp.decomp)
    ops = metric.family_basis_ops(full)
    norms = sp.decomp.action.norms
    pd_check = linalg.sym_positive_definite
    for seed in (0, 5, 23):
        spec = ScanSpec(grid=_GRID_32, seed=seed, random_count=24)
        tensors = go._ScanTensors(full.operators(), _GRID_32)
        accepted = _draw_values(tensors, go._random_points(full, spec,
                                                           tensors))
        verdicts = []

        def recorded(ga):
            verdicts.append(pd_check(ga))
            return True

        monkeypatch.setattr(linalg, "sym_positive_definite", recorded)
        draws = _draw_values(tensors, go._random_points(
            full, ScanSpec(grid=_GRID_32, seed=seed, random_count=80),
            tensors))
        monkeypatch.undo()
        assert len(draws) == len(verdicts) == 80
        oracle = [dense_pd_check(family_matrix(ops, d, sp.dim_m), norms)
                  for d in draws]
        assert verdicts == oracle
        taken = [i for i, ok in enumerate(oracle) if ok][:24]
        assert accepted == [draws[i] for i in taken]
        assert not all(oracle[:taken[-1]])      # some draws were rejected


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (4, 3), (6, 3)])
def test_id_draws_match_fraction_oracle(space, monkeypatch, n, k):
    # the value-id draws, read through the scan's values, are the draws of
    # the Fraction loop coordinate by coordinate: on (3,2) and (4,2)
    # p_nonzero is 1/4, on (4,3) and (6,3) it is 2/21, which no float
    # holds exactly.  A run whose PD checks accept everything compares the
    # rng streams themselves; a real run, the accepted draws
    sp = space(n, k)
    full = metric.full_family(sp.decomp)
    ops = metric.family_basis_ops(full)
    norms = sp.decomp.action.norms

    def dense_pd(values):
        return dense_pd_check(family_matrix(ops, values, sp.dim_m), norms)

    def draws(spec):
        tensors = go._ScanTensors(full.operators(), spec.grid)
        return _draw_values(tensors, go._random_points(full, spec, tensors))

    for seed in (0, 5, 23):
        spec = ScanSpec(grid=_GRID_32, seed=seed, random_count=12)
        want = random_points(full, spec, dense_pd)
        assert draws(spec) == want and len(want) == 12
        spec = ScanSpec(grid=_GRID_32, seed=seed, random_count=40)
        with monkeypatch.context() as m:
            m.setattr(linalg, "sym_positive_definite", lambda ga: True)
            assert draws(spec) == random_points(full, spec, lambda v: True)


def test_offdiagonal_scan_interns_each_value_once(space, monkeypatch):
    # zero once and six values per distinct smallest diagonal draw: the
    # interning does not grow with the number of draws
    sp = space(4, 2)
    full = metric.full_family(sp.decomp)
    intern = go._ScanTensors.intern
    counts = []
    for random_count in (12, 48):
        calls = []

        def counted(self, value):
            calls.append(value)
            return intern(self, value)

        monkeypatch.setattr(go._ScanTensors, "intern", counted)
        result = search_go(sp.decomp, full, ScanSpec(
            grid=_GRID_32, seed=3, random_count=random_count),
            include_grid=False)
        monkeypatch.undo()
        assert result.n_points == random_count
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 1 + 6 * len(_GRID_32)


def test_draw_shortfall_is_noted(space, accept_first_draws):
    # fewer positive definite draws than asked: the scan says so, and so
    # does the off-diagonal block of the report.  A full draw has no such
    # note, nor has a cone with no off-diagonal coordinate, such as (3,1)'s
    spec = ScanSpec(grid=_GRID_32, seed=2, random_count=12)
    sphere = space(3, 1)
    result = search_go(sphere.decomp, metric.full_family(sphere.decomp),
                       spec, include_grid=False)
    assert result.n_points == 0
    assert result.notes == ["no positive definite points in the scan"]
    sp = space(3, 2)
    full = metric.full_family(sp.decomp)
    assert search_go(sp.decomp, full, spec, include_grid=False).notes == []
    accept_first_draws(3)
    result = search_go(sp.decomp, full, spec, include_grid=False)
    assert result.n_points == len(result.falsified) == 3
    assert result.notes == ["drew 3 of 12 positive definite samples"]
    report = stiefel.uniqueness_scan(sp, ScanSpec(grid=_GRID_32, seed=2),
                                     offdiagonal_samples=12)
    assert report["off_diagonal"]["n_points"] == 3
    assert report["off_diagonal"]["notes"] == result.notes


def test_grid_rejects_offdiagonal_family(space):
    sp = space(3, 2)
    full = metric.full_family(sp.decomp)
    with pytest.raises(ValueError, match="need a diagonal family"):
        search_go(sp.decomp, full, ScanSpec(grid=[Fraction(1)]))


def test_grid_join_refuses_past_the_node_cap(space, monkeypatch):
    # the (3,2) resolution-1 join visits 52 prefixes: one fewer refuses
    sp = space(3, 2)
    diag = stiefel.diagonal_family(sp)
    monkeypatch.setattr(go, "MAX_SCAN_NODES", 51)
    with pytest.raises(ValueError, match="MAX_SCAN_NODES = 51"):
        search_go(sp.decomp, diag, ScanSpec(grid=_GRID_32))
    monkeypatch.setattr(go, "MAX_SCAN_NODES", 52)
    assert len(search_go(sp.decomp, diag, ScanSpec(grid=_GRID_32)).survivors) == 16


def test_grid_join_decides_a_million_points(space):
    # (5,3) at resolution 1/4: 16^5 points, far past any per-point walk
    sp = space(5, 3)
    result = search_go(sp.decomp, stiefel.diagonal_family(sp),
                       ScanSpec(grid=_QUARTER_GRID, survivor_random_probes=0))
    assert (result.n_points, len(result.survivors), result.n_falsified) == (
        1_048_576, 256, 1_048_320)
    assert len(result.falsified) == 5


def test_certificate_json_shape(space):
    sp = space(3, 1)
    cert = _view(sp.family_data, Fraction(2), 5, 1)
    data = go.certificate_to_json_dict(cert)
    assert data["verdict"] == "verified-on-family"
    assert data["witnesses"][0]["residual_sq"] == "0/1"
    assert all(isinstance(c, str) for c in data["witnesses"][0]["x"])


def test_torus_toy_reduces_to_scalar_family(un):
    # trivial S0 and a single module: Schur leaves one scalar parameter
    from go_metric_lab import decomp as decomp_mod
    from go_metric_lab.isotropy import decompose_isotypic, isotropy_action
    g = un(2)
    h = decomp_mod.subalgebra(g, [g.vector(("eb_1_1", 1)),
                                  g.vector(("eb_2_2", 1))])
    sp = decomp_mod.reductive_split(g, h)
    dec = decompose_isotypic(isotropy_action(sp))
    family, _ = reduce_family(dec)
    assert family.n_params == 1


def test_falsified_metrics_leave_the_reduced_family(space):
    # cross-consistency: a falsified candidate either breaks normalizer
    # equivariance or sits outside the reduced cone
    sp = space(3, 2)
    family, _ = reduce_family(sp.decomp)
    p_s1 = projector(sp.s1.space, sp.action.norms, sp.dim_m)
    cases = [metric.from_matrix(sp.decomp, mat_add(
        identity(sp.dim_m), p_s1))]
    p1 = projector(sp.s1.members[0].space, sp.action.norms, sp.dim_m)
    cases.append(metric.from_matrix(sp.decomp, mat_add(
        identity(sp.dim_m), p1)))
    for a in cases:
        cert = go_check(a, strategy="basis")
        assert cert.verdict == "falsified"
        ne = metric.check_normalizer_equivariance(a)
        outside = coords_in_family(family, a) is None
        assert (not ne) or outside


def test_search_go_empty_pd_region(space):
    sp = space(2, 1)
    diag = stiefel.diagonal_family(sp)
    spec = ScanSpec(grid=[Fraction(-1)], seed=0, survivor_random_probes=0)
    result = search_go(sp.decomp, diag, spec)
    assert result.survivors == [] and result.falsified == []
    assert "no positive definite points in the scan" in result.notes


def test_family_strategy_flags_wrong_witness_on_go_metric(space):
    # a wrong but linear witness on a genuine family metric: the proof
    # fails, and every probe is solved by least squares instead
    sp = space(3, 1)
    w0, _ = sp.family_data.witness
    data = _family_data(sp, witness=[[[(i, 7 * c) for i, c in col]
                                      for col in w0]])
    proof = stiefel.certify_family(data)
    assert proof.to_json_dict()["first_failure"] is not None
    cert = _view(data, 2, count=3)
    assert cert.verdict == "passed-sampling" and cert.falsifier is None
    assert all(w.residual_sq == 0 for w in cert.witnesses)
    assert len(cert.witnesses) == cert.count


def _reference_family_witnesses(a, witness, count, seed):
    """The family check's probes, each with a fresh witness-map image."""
    dim = a.decomp.dim
    basis = [linalg.unit_vec(dim, i) for i in range(dim)]
    probes = basis + [vec_add(basis[i], basis[j])
                      for i, j in itertools.combinations(range(dim), 2)]
    rng = random.Random(f"go-family:{seed}")
    probes += [lie_core.random_vector_of_len(dim, rng) for _ in range(count)]
    return [go.Witness(x_m=x, a_h=witness(x),
                       residual_sq=go_residual_sq(a, x, witness(x)))
            for x in probes]


@pytest.mark.parametrize("n,k", [(3, 2), (4, 3)])
def test_family_view_matches_the_per_probe_reference(space, monkeypatch,
                                                     n, k):
    # the basis and pair residuals of a verified certificate are read off
    # it; only the random cross-checks evaluate go_residual_sq
    sp = space(n, k)
    t, count, seed = Fraction(5, 2), 7, 11
    a_t = stiefel.metric_at(sp, t)
    reference = _reference_family_witnesses(
        a_t, stiefel.witness_map(sp, t), count, seed)
    calls = []
    real = go.go_residual_sq
    monkeypatch.setattr(go, "go_residual_sq",
                        lambda *args: calls.append(args) or real(*args))
    cert = _view(sp.family_data, t, count, seed)
    d = sp.dim_m
    assert len(calls) == count
    assert [args[1] for args in calls] == [w.x_m for w in reference[-count:]]
    assert cert.verdict == "verified-on-family"
    assert cert.count == len(reference) == d + d * (d - 1) // 2 + count
    assert cert.witnesses == reference


def test_family_strategy_falsifies_non_go_metric(space):
    # zero witness on a non-GO metric: the metric is falsified
    sp = space(3, 2)
    p_s1 = projector(sp.s1.space, sp.action.norms, sp.dim_m)
    data = _family_data(sp, metric=[columns(mat_add(identity(sp.dim_m),
                                                    p_s1))], witness=[])
    cert = _view(data, 2)
    assert cert.verdict == "falsified"
    assert cert.falsifier.residual_sq > 0


_SP32 = None


def _cached_space_32():
    global _SP32
    if _SP32 is None:
        _SP32 = stiefel.build_stiefel(3, 2)
    return _SP32


@given(st.integers(1, 12), st.integers(1, 4), st.integers(0, 10 ** 6))
def test_deformation_metrics_always_solve_exactly(num, den, seed):
    sp = _cached_space_32()
    t = Fraction(num, den)
    a_t = stiefel.metric_at(sp, t)
    rng = random.Random(seed)
    x = lie_core.random_vector_of_len(sp.dim_m, rng)
    _, res_sq = go_solve_at(a_t, x)
    assert res_sq == 0


# ---------------------------------------------------------------------------
# go_solve_at on integers
# ---------------------------------------------------------------------------

def _fraction_solve_system(a_metric, x):
    """go_solve_at's system in `Fraction`s: the dense columns [h_i, AX],
    the right-hand side -[X, AX] and the m-Gram."""
    action = a_metric.decomp.action
    split, dim = action.split, action.dim
    xs = linalg.sparse(x)
    ax = linalg.sparse_mat_vec(a_metric.columns, xs)
    c_m, c_h = fraction_bracket(split.bracket_table, xs, ax)
    assert not c_h
    cols = [linalg.dense(linalg.sparse_mat_vec(ad, ax), dim)
            for ad in action.ad_ops]
    return cols, [-c for c in linalg.dense(c_m, dim)], split.gram_m


@pytest.mark.parametrize("which", ["3-2", "4-2", "two-torus"])
def test_go_solve_at_matches_fraction_least_squares(space, two_torus, which):
    # the diagonal (reduced) and the full family at seeded values, solved
    # on integers and rescaled, against the dense Fraction least squares
    if which == "two-torus":
        dec = two_torus()
        families = [reduce_family(dec)[0], metric.full_family(dec)]
    else:
        sp = space(*map(int, which.split("-")))
        dec = sp.decomp
        families = [stiefel.diagonal_family(sp), metric.full_family(dec)]
    rng = random.Random(f"integer-solve:{which}")
    positive = moved = 0
    for family in families:
        a = metric.instantiate(family, [Fraction(rng.randint(1, 9),
                                                 rng.randint(1, 4))
                                        for _ in range(family.n_params)])
        for _ in range(12):
            x = lie_core.random_vector_of_len(dec.dim, rng)
            a_h, res_sq = go_solve_at(a, x)
            assert (a_h, res_sq) == fraction_least_squares(
                *_fraction_solve_system(a, x))
            positive += res_sq > 0
            moved += any(a_h)
    assert positive and moved


def test_go_solve_at_on_a_rank_deficient_8_4_point(space):
    # 12 of the 16 columns [h_i, AX] are independent at this X
    sp = space(8, 4)
    family = stiefel.diagonal_family(sp)
    a = metric.instantiate(family, [Fraction(i + 1)
                                    for i in range(family.n_params)])
    x = linalg.zero_vec(sp.dim_m)
    for label, c in (("e_2_3", Fraction(2, 3)), ("eb_2_4", Fraction(-1, 2)),
                     ("eb_2_5", Fraction(5, 4)), ("eb_3_8", Fraction(1, 2))):
        x[_m_index(sp, label)] = c
    cols, rhs, gram = _fraction_solve_system(a, x)
    assert linalg.rank(cols) == 12 < len(cols)
    a_h, res_sq = go_solve_at(a, x)
    assert (a_h, res_sq) == fraction_least_squares(cols, rhs, gram)
    assert any(a_h) and res_sq == Fraction(41, 8)


# ---------------------------------------------------------------------------
# rule 3.5 draws its coefficients on demand; rule 3.2 keeps the h-part
# ---------------------------------------------------------------------------

def _recording_random(monkeypatch):
    """Replace go's random module by one whose generators record every
    randint draw, per seed string."""
    draws = {}

    class Recording(random.Random):
        def __init__(self, key):
            super().__init__(key)
            self.drawn = draws[key] = []

        def randint(self, a, b):
            value = super().randint(a, b)
            self.drawn.append(value)
            return value

    monkeypatch.setattr(go, "random", types.SimpleNamespace(Random=Recording))
    return draws


@pytest.mark.parametrize("seed", [0, 5, 12])
def test_rule35_rows_are_drawn_on_demand_in_stream_order(space, two_torus,
                                                         monkeypatch, seed):
    draws = _recording_random(monkeypatch)
    key = f"rule35:{seed}"
    # the two-torus: no candidate is a witness, so all 100 rows are drawn,
    # and they are the rows an up-front draw makes, in order
    dec = two_torus()
    si = next(i for i, s in enumerate(dec.summands)
              if s is not dec.s0 and len(s.members) > 1)
    assert go._prop35_witnesses(dec, si, seed) is None
    width = dec.action.split.h.dim + dec.dim - dec.summands[si].dim
    stream = random.Random(key)
    upfront = [[Fraction(stream.randint(-3, 3)) for _ in range(width)]
               for _ in range(100)]
    drawn = draws[key]
    assert [drawn[q * width:(q + 1) * width] for q in range(100)] == upfront
    assert len(drawn) == 100 * width
    # (4,3): an S0 basis vector is a witness for each member, so the
    # search stops in the pool and draws no row
    sp = space(4, 3)
    assert go._prop35_witnesses(sp.decomp, 1, seed) is not None
    assert draws[key] == []


def test_prop32_pair_witness_keeps_the_h_part_of_the_outside_component(
        space):
    # on (3,1), [e_12, e_13] = -e_23 lies in h: the bracket has no m-part,
    # and all of it lies outside the two lines
    sp = space(3, 1)
    g, split = sp.algebra, sp.split
    lines = [linalg.make_subspace([[(_m_index(sp, label), linalg.ONE)]],
                                  split.norms_m)
             for label in ("e_1_2", "e_1_3")]
    x, y, (w_m, w_h), outside = go._prop32_pair_witness(sp.action, *lines)
    # the g-oracle: bracket in g, split and projected densely
    x_g, y_g = (split.m_to_g(linalg.dense(v, sp.dim_m)) for v in (x, y))
    w_g = lie_core.bracket(g, x_g, y_g)
    assert w_g == g.vector(("e_2_3", -1))
    g_norms = [g.gram[i][i] for i in range(g.dim)]
    m_basis = [linalg.sparse(b) for b in split.m_basis]
    coords, h_part = dense_orthogonal_projection(m_basis, split.norms_m,
                                                 g_norms, w_g)
    assert (w_m, w_h) == (linalg.sparse(coords), linalg.sparse(h_part))
    perp_g = w_g
    for v_g in (x_g, y_g):
        perp_g = dense_orthogonal_projection(
            [linalg.sparse(v_g)], [inner(g, v_g, v_g)], g_norms, perp_g)[1]
    perp_coords, perp_h = dense_orthogonal_projection(
        m_basis, split.norms_m, g_norms, perp_g)
    assert outside == (linalg.sparse(perp_coords), linalg.sparse(perp_h))
    assert outside == ([], [(g.index("e_2_3"), -1)])
