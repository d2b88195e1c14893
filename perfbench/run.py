"""Benchmark of the exact GO pipeline.

    python3 perfbench/run.py --workload theorem-32 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run from the root of a checkout; the package is imported from its `src/`.
One process measures one workload with one worker (jobs=1), in a closed
loop: each pass starts after the previous one ends, until `--seconds` have
passed.  Every pass is checked (see workloads.py); a pass that raises or
fails its check counts as failed.  A fixed reference computation is timed
between passes, and the end-to-end time is the median pass time divided by
the reference time around it (see README.md for why).  With `--trace 1`,
untraced and traced passes alternate on the same inputs and the per-layer
metrics come from the traced ones.  The last line of stdout is the JSON
result; each run is also appended to perfbench/results/runs.jsonl and a
traced run writes its spans next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

from tracer import Tracer, subtree, to_json, totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
IMPORT_REPS = 5

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

CONSTRUCTION = ["lie_core.build_un", "decomp.reductive_split",
                "isotropy.isotropy_action", "isotropy.decompose_isotypic",
                "isotropy.split_ideals", "stiefel.build_stiefel"]
PASS_CALLS = ["lie_core.bracket", "decomp.coords_in_m", "linalg.least_squares",
              "go.go_check", "go.go_solve_at", "linalg.sym_positive_definite",
              "go.go_residual_sq"]
PASS_SECONDS = ["linalg.least_squares", "go.go_check", "go.go_solve_at",
                "go.search_go.grid", "go.search_go.offdiag",
                "linalg.sym_positive_definite", "go.go_residual_sq",
                "stiefel.verify_family", "stiefel.check_witness_identities",
                "go.reduce_family"]
SCAN_COUNTS = ["grid.points", "grid.survivors", "grid.falsified",
               "offdiag.points", "offdiag.falsified"]
SEARCH = ("go", "search_go", "go.search_go")


def per_layer_units() -> Dict[str, str]:
    units = {f"{name}.s": "s" for name in CONSTRUCTION}
    units.update({f"{name}.calls": "count" for name in PASS_CALLS})
    units.update({f"{name}.s": "s" for name in PASS_SECONDS})
    units.update({"pass.wall_s": "s", "pass.ref_s": "s",
                  "go.scan_tensors.s": "s", "go.scan.points": "count",
                  "go.scan_points_per_s": "1/s",
                  "go.least_squares_per_point": "ratio",
                  "go.offdiag.pd_yield": "ratio",
                  "metric.family.params": "count", "go.probes": "count",
                  "trace.overhead_ratio": "ratio"})
    units.update({f"go.{name}": "count" for name in SCAN_COUNTS})
    return units


# ---------------------------------------------------------------------------
# environment and noise record (read-only)
# ---------------------------------------------------------------------------

def _steal_ticks() -> Optional[int]:
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def noise_sample() -> dict:
    return {"loadavg": list(os.getloadavg()), "steal_ticks": _steal_ticks(),
            "time": time.time()}


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"python": sys.version.split()[0], "numpy": numpy_version,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "git_commit": git_commit()}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def import_seconds(reps: int) -> List[float]:
    """Import time of the package in fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import go_metric_lab; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60,
                              check=True)
        out.append(float(proc.stdout.strip()))
    return out


# A fixed exact elimination, written here so that no change to the program
# moves it.  Timed next to every pass, it tracks the speed of the shared host.
_REF_RNG = random.Random(1610)
REF_MATRIX = [[Fraction(_REF_RNG.randint(-9, 9), _REF_RNG.randint(1, 9))
               for _ in range(14)] for _ in range(14)]
REF_REPS = 30
# Times are reported in seconds on a host where the reference takes this long.
REF_NOMINAL_S = 0.25


def _eliminate(matrix) -> Fraction:
    a = [row[:] for row in matrix]
    n = len(a)
    for c in range(n):
        pivot = next(r for r in range(c, n) if a[r][c] != 0)
        a[c], a[pivot] = a[pivot], a[c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return a[-1][-1]


def reference_seconds() -> float:
    start = time.perf_counter()
    for _ in range(REF_REPS):
        _eliminate(REF_MATRIX)
    return time.perf_counter() - start


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _fastest(values: List[float]) -> float:
    """Per-layer times take the pass least slowed by the shared host."""
    return min(values) if values else 0.0


def _normalized(passes: List["Pass"]) -> float:
    """Summed pass time over summed reference time, in nominal seconds."""
    ref = sum(p.ref_s for p in passes)
    return REF_NOMINAL_S * sum(p.seconds for p in passes) / ref if ref else 0.0


@dataclass
class Pass:
    """One checked pass: its time, its search_go time and its outcome."""

    traced: bool
    seconds: Optional[float] = None
    ref_s: float = 0.0          # mean reference time before and after
    search_s: float = 0.0
    scan: Dict[str, int] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)
    root: Optional[list] = None


def run_pass(workload, ctx, seed: int, index: int, tracer) -> Pass:
    """Run and check one pass; exceptions become errors of the pass."""
    result = Pass(tracer is not None)
    inputs = workload.make_inputs(seed, index)
    if tracer is None:
        # untraced passes still time search_go: one span per call, no more
        timer = Tracer()
        wrappers = timer.installed(stages=[SEARCH], hot=[])
    else:
        timer = tracer
        wrappers = tracer.installed()
    try:
        with wrappers:
            with timer.span("pass") as root:
                start = time.perf_counter()
                out = workload.run(ctx, inputs)
                result.seconds = time.perf_counter() - start
        result.root = root
        scans = [s for s in subtree(timer.spans, root)
                 if s[1].startswith("go.search_go")]
        result.search_s = sum(s[3] - s[2] for s in scans)
        result.errors = workload.check(out, inputs, ctx)
        result.scan = workload.scan_counts(out)
    except Exception:  # a failing pass is counted, not fatal
        result.errors.append(traceback.format_exc(limit=3))
    return result


def measure(workload, seed: int, seconds: float, trace: bool,
            import_reps: int = IMPORT_REPS) -> dict:
    """Set up, run passes for `seconds`, and compute every metric."""
    from go_metric_lab import go, stiefel

    setup_refs = [reference_seconds()]
    imports = import_seconds(import_reps)
    setup_refs.append(reference_seconds())
    tracer = Tracer() if trace else None

    builds, setup_roots = [], []
    for _ in range(workload.setup_reps):
        if tracer is None:
            start = time.perf_counter()
            space = stiefel.build_stiefel(workload.n, workload.k)
            builds.append(time.perf_counter() - start)
        else:
            with tracer.installed(), tracer.span("setup") as root:
                space = stiefel.build_stiefel(workload.n, workload.k)
            setup_roots.append(root)
            builds.append(root[3] - root[2])
        setup_refs.append(reference_seconds())
    ctx = workload.prepare(space)

    tensors_s = 0.0
    if trace:
        start = time.perf_counter()
        for family in workload.scan_families(ctx):
            go.search_go(space.decomp, family, go.ScanSpec(), include_grid=False)
        tensors_s = time.perf_counter() - start

    passes: List[Pass] = []
    refs = [reference_seconds()]
    begin = time.perf_counter()
    index = 0
    while not passes or time.perf_counter() - begin < seconds:
        for traced_pass in ((False, True) if trace else (False,)):
            passes.append(run_pass(workload, ctx, seed, index,
                                   tracer if traced_pass else None))
            refs.append(reference_seconds())
        index += 1
    for i, p in enumerate(passes):
        p.ref_s = (refs[i] + refs[i + 1]) / 2

    plain = [p for p in passes if not p.traced and p.seconds is not None]
    scan = next((p.scan for p in passes if p.scan), {})
    points = scan.get("grid.points", 0) + scan.get("offdiag.points", 0)
    search = _fastest([p.search_s for p in plain])
    setup = _median(imports) + _median(builds)
    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "attempted": len(passes),
        "failed": sum(1 for p in passes if p.errors),
        "pass_s": [p.seconds for p in passes if not p.traced],
        "traced_pass_s": [p.seconds for p in passes if p.traced],
        "ref_s": refs, "setup_ref_s": setup_refs,
        "search_go_s": [p.search_s for p in plain],
        "import_s": imports, "build_s": builds,
        "errors": [e for p in passes for e in p.errors][:10],
        "raw_wall_s": _median([p.seconds for p in plain]),
        "raw_setup_s": setup,
        "scan_points_per_s": points / search if points and search else None,
        "end_to_end": {
            "wall_s": _normalized(plain),
            "setup_s": REF_NOMINAL_S * setup / _median(setup_refs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
    }
    if trace:
        traced = [p for p in passes if p.traced and p.seconds is not None]
        record["per_layer"] = per_layer(tracer, setup_roots, traced, plain, scan)
        record["per_layer"].update({
            "go.scan_tensors.s": tensors_s,
            "go.scan_points_per_s": record["scan_points_per_s"] or 0.0,
            "metric.family.params": ctx["full"].n_params,
            "go.probes": len(go.basis_probe_vectors(space.decomp)),
            "pass.ref_s": _median(refs),
        })
        self_times: Dict[str, float] = {}
        for root in setup_roots + [p.root for p in traced]:
            for name, entry in totals(subtree(tracer.spans, root)).items():
                self_times[name] = self_times.get(name, 0.0) + entry["self_s"]
        record["self_s"] = dict(sorted(self_times.items(), key=lambda kv: -kv[1]))
        record["spans"] = to_json(tracer.spans)
    return record


def per_layer(tracer: Tracer, setup_roots: List[list], traced: List[Pass],
              plain: List[Pass], scan: Dict[str, int]) -> Dict[str, float]:
    """Layer metrics from the traced set-up builds and traced passes."""
    layer: Dict[str, float] = {}
    setup_totals = [totals(subtree(tracer.spans, r)) for r in setup_roots]
    for name in CONSTRUCTION:
        layer[f"{name}.s"] = _fastest([t.get(name, {}).get("s", 0.0)
                                       for t in setup_totals])
    pass_totals = [totals(subtree(tracer.spans, p.root)) for p in traced]
    first = pass_totals[0] if pass_totals else {}
    for name in PASS_CALLS:
        layer[f"{name}.calls"] = first.get(name, {}).get("calls", 0)
    for name in PASS_SECONDS:
        layer[f"{name}.s"] = _fastest([t.get(name, {}).get("s", 0.0)
                                       for t in pass_totals])
    # least-squares solves and PD checks made inside search_go, in pass 0
    scan_ls = pd_calls = 0
    for span in subtree(tracer.spans, traced[0].root) if traced else []:
        if span[1].startswith("go.search_go"):
            part = totals(subtree(tracer.spans, span))
            scan_ls += part.get("linalg.least_squares", {}).get("calls", 0)
            if span[1] == "go.search_go.offdiag":
                pd_calls += part.get("linalg.sym_positive_definite",
                                     {}).get("calls", 0)
    points = scan.get("grid.points", 0) + scan.get("offdiag.points", 0)
    plain_norm = _normalized(plain)
    layer.update({
        "pass.wall_s": _fastest([p.seconds for p in plain]),
        "go.scan.points": points,
        "go.least_squares_per_point": scan_ls / points if points else 0.0,
        "go.offdiag.pd_yield": (scan.get("offdiag.points", 0) / pd_calls
                                if pd_calls else 0.0),
        "trace.overhead_ratio": (_normalized(traced) / plain_norm
                                 if plain_norm else 0.0),
    })
    layer.update({f"go.{name}": scan.get(name, 0) for name in SCAN_COUNTS})
    return layer


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def result_line(record: dict) -> dict:
    if record["trace"]:
        units = per_layer_units()
        values = record["per_layer"]
    else:
        units = END_TO_END
        values = record["end_to_end"]
    return {"correct": record["failed"] == 0 and record["attempted"] > 0,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}


def save(record: dict) -> None:
    RESULTS.mkdir(exist_ok=True)
    spans = record.pop("spans", None)
    if spans is not None:
        path = RESULTS / f"trace-{record['workload']}-seed{record['seed']}.json"
        path.write_text(json.dumps({"self_s": record["self_s"], "spans": spans}))
    with open(RESULTS / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")


def summary(record: dict) -> str:
    e2e = record["end_to_end"]
    parts = [f"workload={record['workload']}", f"seed={record['seed']}",
             f"passes={record['attempted']}",
             f"failed_ratio={record['failed'] / record['attempted']:.3f}",
             f"wall_s={e2e['wall_s']:.4f}", f"setup_s={e2e['setup_s']:.4f}",
             f"raw_wall_s={record['raw_wall_s']:.4f}",
             f"raw_setup_s={record['raw_setup_s']:.4f}",
             f"peak_rss_mb={e2e['peak_rss_mb']:.1f}"]
    if record["scan_points_per_s"] is not None:
        parts.append(f"scan_points_per_s={record['scan_points_per_s']:.1f}")
    return " ".join(parts)


def run_all(seed: int, seconds: int) -> int:
    """Each benchmark workload in a fresh process, one summary line each."""
    from workloads import WORKLOADS

    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"workload={name} error: {proc.stderr.strip()[-400:]}")
            code = 1
            continue
        print(lines[-2])
        if not json.loads(lines[-1])["correct"]:
            code = 1
    return code


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "go_metric_lab" / "__init__.py").is_file():
        print(f"perfbench: no go_metric_lab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import go_metric_lab
    if Path(go_metric_lab.__file__).resolve().parent != SRC / "go_metric_lab":
        print(f"perfbench: imported go_metric_lab from {go_metric_lab.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2
    from workloads import SMOKE, WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    workload = WORKLOADS.get(args.workload) or (
        SMOKE if args.workload == SMOKE.name else None)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)} or all")

    before = noise_sample()
    record = measure(workload, args.seed, args.seconds, bool(args.trace))
    record["environment"] = environment()
    record["noise"] = {"before": before, "after": noise_sample()}
    line = result_line(record)
    save(record)
    print(summary(record))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
