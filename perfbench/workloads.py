"""The benchmark's workloads: inputs from a seed, one pass, and its checks.

Each pass calls the public API of go_metric_lab on inputs generated from
(seed, pass index).  Checks test mathematical invariants that hold for any
seed, never report bytes: certificate verdicts, grid counts derived from the
Stiefel classification, and falsifiers recomputed through `go.go_solve_at`
on `metric.instantiate`d parameters, a different code path from the scan
tensors that produced them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List

from go_metric_lab import go, metric, stiefel

LO, HI = Fraction(1, 4), Fraction(4)   # reproduce_report's grid bounds


def grid_size(resolution: Fraction) -> int:
    return int((HI - LO) / resolution) + 1


def expected_grid(n: int, k: int, g: int) -> Dict[str, int]:
    """Counts on the reduced diagonal grid of U(n)/U(n-k) with g values.

    The diagonal family has a center parameter, one scalar for su(k) when
    k >= 2, and one scalar per module.  The GO metrics on it are exactly
    the deformation points (center free, every other scalar equal), so g^2
    points survive.
    """
    n_params = 1 + (1 if k >= 2 else 0) + k
    points = g ** n_params
    return {"points": points, "survivors": g ** 2,
            "falsified": points - g ** 2}


def expected_reduced_family(n: int, k: int) -> dict:
    """describe() of the family left by the reduction rules: the A_t line."""
    subspaces = [f"S1.m{i}" for i in range(1, k + 1)]
    dim = 2 * k * (n - k)
    if k >= 2:
        subspaces.append("s1")
        dim += k * k - 1
    return {"n_params": 2,
            "scalar_classes": [{"class": 0, "subspaces": subspaces, "dim": dim}],
            "operator_blocks": [{"label": "z(S0)", "dim": 1}],
            "intertwiner_blocks": []}


def seeded_t_values(rng: random.Random, count: int = 4) -> List[Fraction]:
    values = set()
    while len(values) < count:
        values.add(Fraction(rng.randint(1, 12), rng.randint(1, 4)))
    return sorted(values)


def recheck_falsifier(family, entry: dict) -> List[str]:
    """Recompute one reported falsifier from its parameters and vector."""
    values = [Fraction(s) for s in entry["params"]]
    x = [Fraction(s) for s in entry["falsifier_x"]]
    a = metric.instantiate(family, values)
    _, res_sq = go.go_solve_at(a, x)
    want = Fraction(entry["residual_sq"])
    errors = []
    if not a.is_pd:
        errors.append(f"falsified point {entry['params']} is not positive definite")
    if res_sq != want or res_sq <= 0:
        errors.append(f"falsifier residual {res_sq} != reported {want} "
                      f"at {entry['params']}")
    return errors


def _expect(errors: List[str], what: str, got, want) -> None:
    if got != want:
        errors.append(f"{what}: got {got!r}, expected {want!r}")


@dataclass
class Workload:
    name: str
    n: int
    k: int
    setup_reps: int
    make_inputs: Callable[[int, int], dict]
    run: Callable[[dict, dict], object]
    check: Callable[[object, dict, dict], List[str]]
    scan_counts: Callable[[object], Dict[str, int]]
    scan_families: Callable[[dict], list]

    def prepare(self, space) -> dict:
        """The set-up space and its diagonal and full families, built once."""
        return {"space": space, "diag": stiefel.diagonal_family(space),
                "full": metric.full_family(space.decomp)}


NO_SCAN = {"grid.points": 0, "grid.survivors": 0, "grid.falsified": 0,
           "offdiag.points": 0, "offdiag.falsified": 0}


# ---------------------------------------------------------------------------
# reproduce_report: family certificates, grid scan and full-cone samples
# ---------------------------------------------------------------------------

def reproduce_workload(name: str, n: int, k: int, resolution: Fraction,
                       offdiagonal_samples: int, n_samples: int,
                       setup_reps: int) -> Workload:
    def make_inputs(seed: int, index: int) -> dict:
        rng = random.Random(f"{name}:{seed}:{index}")
        return {"seed": rng.randrange(2 ** 31), "t_values": seeded_t_values(rng)}

    def run(ctx, inp):
        return stiefel.reproduce_report(
            n, k, resolution=resolution, seed=inp["seed"],
            t_values=inp["t_values"], n_samples=n_samples,
            offdiagonal_samples=offdiagonal_samples)

    def check(report, inp, ctx) -> List[str]:
        errors: List[str] = []
        if not all(report["family_identities"].values()):
            errors.append(f"witness identities failed: {report['family_identities']}")
        certs = report["family_certificates"]
        _expect(errors, "certified t values", sorted(certs),
                sorted(str(t) for t in inp["t_values"]))
        for t, cert in certs.items():
            _expect(errors, f"verdict at t={t}", cert["verdict"], "verified-on-family")
        scan = report["uniqueness"]
        _expect(errors, "reduced family", scan["reduced_family"],
                expected_reduced_family(n, k))
        if not scan["grassmannian_cross_check"]:
            errors.append("grassmannian cross-check failed")
        grid = scan["grid"]
        want = expected_grid(n, k, grid_size(resolution))
        _expect(errors, "grid points", grid["n_points"], want["points"])
        _expect(errors, "grid survivors", grid["n_survivors"], want["survivors"])
        _expect(errors, "grid falsified", grid["n_falsified"], want["falsified"])
        if not grid["survivors_all_in_family"]:
            errors.append("a grid survivor is not a deformation point")
        for entry in grid["falsified_sample"]:
            errors += recheck_falsifier(ctx["diag"], entry)
        off = scan.get("off_diagonal")
        if offdiagonal_samples:
            _expect(errors, "off-diagonal points", off and off["n_points"],
                    offdiagonal_samples)
            _expect(errors, "off-diagonal falsified", off and off["n_falsified"],
                    offdiagonal_samples)
            for entry in (off or {}).get("falsified_sample", []):
                errors += recheck_falsifier(ctx["full"], entry)
        elif off is not None:
            errors.append("off-diagonal scan ran without samples")
        return errors

    def scan_counts(report) -> Dict[str, int]:
        grid = report["uniqueness"]["grid"]
        off = report["uniqueness"].get("off_diagonal") or {}
        return {"grid.points": grid["n_points"],
                "grid.survivors": grid["n_survivors"],
                "grid.falsified": grid["n_falsified"],
                "offdiag.points": off.get("n_points", 0),
                "offdiag.falsified": off.get("n_falsified", 0)}

    def scan_families(ctx) -> list:
        return [ctx["diag"]] + ([ctx["full"]] if offdiagonal_samples else [])

    return Workload(name, n, k, setup_reps, make_inputs, run, check,
                    scan_counts, scan_families)


# ---------------------------------------------------------------------------
# search_go over the full cone: off-diagonal samples only
# ---------------------------------------------------------------------------

def offdiag_workload(name: str, n: int, k: int, random_count: int,
                     rechecks: int, setup_reps: int) -> Workload:
    def make_inputs(seed: int, index: int) -> dict:
        rng = random.Random(f"{name}:{seed}:{index}")
        return {"seed": rng.randrange(2 ** 31),
                "recheck": rng.sample(range(random_count), rechecks)}

    def run(ctx, inp):
        spec = go.ScanSpec(random_count=random_count, seed=inp["seed"])
        return go.search_go(ctx["space"].decomp, ctx["full"], spec,
                            include_grid=False)

    def check(result, inp, ctx) -> List[str]:
        errors: List[str] = []
        _expect(errors, "sampled points", result.n_points, random_count)
        _expect(errors, "falsified points", len(result.falsified), random_count)
        _expect(errors, "survivors", len(result.survivors), 0)
        for i in inp["recheck"]:
            if i < len(result.falsified):
                errors += recheck_falsifier(ctx["full"], result.falsified[i])
        return errors

    def scan_counts(result) -> Dict[str, int]:
        return dict(NO_SCAN, **{"offdiag.points": result.n_points,
                                "offdiag.falsified": len(result.falsified)})

    return Workload(name, n, k, setup_reps, make_inputs, run, check,
                    scan_counts, lambda ctx: [ctx["full"]])


# ---------------------------------------------------------------------------
# construction, reduction rules and family certificates; no scan
# ---------------------------------------------------------------------------

def certify_workload(name: str, n: int, k: int, n_t: int, n_samples: int,
                     rechecks: int, setup_reps: int) -> Workload:
    def make_inputs(seed: int, index: int) -> dict:
        rng = random.Random(f"{name}:{seed}:{index}")
        return {"seed": rng.randrange(2 ** 31),
                "t_values": seeded_t_values(rng, n_t),
                "recheck_seed": rng.randrange(2 ** 31)}

    def run(ctx, inp):
        space = stiefel.build_stiefel(n, k)
        family, _ = go.reduce_family(space.decomp, seed=inp["seed"])
        report = stiefel.verify_family(space, inp["t_values"],
                                       n_samples=n_samples, seed=inp["seed"])
        return space, family, report

    def check(out, inp, ctx) -> List[str]:
        space, family, report = out
        errors: List[str] = []
        _expect(errors, "reduced family", family.describe(),
                expected_reduced_family(n, k))
        if not all(report["identities"].values()):
            errors.append(f"witness identities failed: {report['identities']}")
        certs = report["certificates"]
        _expect(errors, "certified t values", sorted(certs),
                sorted(str(t) for t in inp["t_values"]))
        dim = space.dim_m
        rng = random.Random(inp["recheck_seed"])
        for t, cert in certs.items():
            _expect(errors, f"verdict at t={t}", cert.verdict, "verified-on-family")
            _expect(errors, f"probes at t={t}", cert.count,
                    dim + dim * (dim - 1) // 2 + n_samples)
            if any(w.residual_sq != 0 for w in cert.witnesses):
                errors.append(f"nonzero witness residual at t={t}")
            a_t = stiefel.metric_at(space, Fraction(t))
            for w in rng.sample(cert.witnesses, min(rechecks, len(cert.witnesses))):
                _, res_sq = go.go_solve_at(a_t, w.x_m)
                if res_sq != 0:
                    errors.append(f"least-squares residual {res_sq} at t={t}")
        return errors

    return Workload(name, n, k, setup_reps, make_inputs, run, check,
                    lambda out: dict(NO_SCAN), lambda ctx: [])


WORKLOADS: Dict[str, Workload] = {w.name: w for w in [
    reproduce_workload("theorem-32", 3, 2, resolution=Fraction(1),
                       offdiagonal_samples=10, n_samples=10, setup_reps=9),
    offdiag_workload("offdiag-42", 4, 2, random_count=16, rechecks=4,
                     setup_reps=3),
    certify_workload("certify-43", 4, 3, n_t=3, n_samples=10, rechecks=2,
                     setup_reps=3),
]}

# a few seconds end to end; for the harness's own tests
SMOKE = reproduce_workload(
    "smoke-31", 3, 1, resolution=Fraction(1), offdiagonal_samples=0,
    n_samples=5, setup_reps=1)
