#!/usr/bin/env python3
"""Time the certification layers of one or more checkouts, alternating.

For each (n, k) of (4,3), (6,3), (8,4) and (8,7) the script times
`stiefel.build_stiefel`, `metric.sym_commutant_basis`, `go.reduce_family`,
`stiefel.grassmannian_cross_check` and `stiefel.verify_family` (100
samples, t in {1/2, 1, 2, 3}) in a fresh interpreter that imports the
package from `CHECKOUT/src`, and records that interpreter's peak RSS.
The first four run back to back; their sum, `construct_s`, is the
construction plus reduction plus cross-check time that ROADMAP item 5
bounds on (8,7).  In this mode and with `--scan`, the child collects
garbage once and then disables the collector around the timed steps, so
no collection lands in one step because another step left work for it.
With `--scan` it times instead the off-diagonal scan: `go.search_go` over
`metric.full_family` with drawn samples and no grid, 40 on (4,2), (4,3)
and (6,3) and 200 on (8,4) and (8,7), and records a digest of the
falsified entries so that checkouts can be seen to agree; then
`warm_scan_s`, a second scan of the same family with the next seed, and,
after the timed steps and under tracemalloc, `family_kb`: what a fresh
full family still holds after one such scan.  With
`--theorem` it runs the command line end to end instead:
`reproduce-theorem --verbose` on (8,4) at resolution 1 with 10
off-diagonal samples and on (6,3) at resolution 1 with 50, recording the wall time, the `--verbose` stage times, the
command's peak RSS and a digest of its report.  `--join` runs the
grid-scan commands the same way: (5,3) at resolution 1/4, (8,4) at 1 and
(8,7) at 1/4, each with the default 200 off-diagonal samples; a run that
exits non-zero is recorded with its exit code and last stderr line
instead of stages.  With several checkouts
the runs alternate checkout by checkout inside every round, so host drift
hits them alike.  Each checkout is given as PATH or LABEL=PATH; the JSON
result (every run plus per-checkout medians) goes to stdout or to --out.

With `--perfbench WORKLOAD[,WORKLOAD...]` and exactly two checkouts it
runs an in-process A/B of benchmark passes instead.  Both packages are
imported into this one interpreter, each with its own copy of the *first*
checkout's `perfbench/workloads.py`, so both sides run identical
benchmark code.  For each workload both sides build their set-up once,
then `--rounds` pairs of passes run interleaved one by one on the same
inputs (seed 0), alternating which side goes first.  Each timed pass runs
between `gc.collect()` and `gc.disable()` and `gc.enable()`, and the
workload's `check` runs untimed after every pass; any error aborts.  It
reports per-side medians and quartiles, the median of the per-pair
ratios (second / first) and how many pairs the second side won.  An A/A
run (one tree given twice) shows the harness's own spread.

    python scripts/bench_certify.py parent=../parent change=. --rounds 5 \\
        --out BENCH_build.json
    python scripts/bench_certify.py parent=../parent change=. --scan \\
        --rounds 10 --out BENCH_offdiag.json
    python scripts/bench_certify.py parent=../parent change=. --theorem \\
        --rounds 3 --out BENCH_scan.json
    python scripts/bench_certify.py parent=../parent change=. \\
        --perfbench theorem-32,offdiag-42,certify-43 --rounds 60 \\
        --out BENCH_grid.json
    python scripts/bench_certify.py parent=../parent change=. --join \\
        --rounds 3 --out BENCH_join.json
"""

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from typing import List

SPACES = ((4, 3), (6, 3), (8, 4), (8, 7))
T_VALUES = ("1/2", "1", "2", "3")
N_SAMPLES = 100
SEED = 0
LAYERS = ("build_s", "basis_s", "reduce_s", "cross_s", "construct_s",
          "verify_s", "peak_rss_mb")
# (n, k) -> drawn samples of each off-diagonal scan
SCAN_SAMPLES = {(4, 2): 40, (4, 3): 40, (6, 3): 40, (8, 4): 200, (8, 7): 200}
SCAN_SPACES = tuple(SCAN_SAMPLES)
SCAN_LAYERS = ("build_s", "scan_s", "warm_scan_s", "peak_rss_mb",
               "family_kb")
# (n, k, resolution, off-diagonal samples) of each reproduce-theorem run
THEOREM_RUNS = ((8, 4, "1", 10), (6, 3, "1", 50))
JOIN_RUNS = ((5, 3, "1/4", 200), (8, 4, "1", 200), (8, 7, "1/4", 200))
THEOREM_LAYERS = ("wall_s", "build_s", "verify_s", "reduce_s", "scan_s",
                  "peak_rss_mb")
GC_NOTE = (" (gc.collect(), then gc.disable() around the timed steps, "
           "so no collection lands in a step)")


def _import_from(checkout: str):
    """The package's modules, imported from CHECKOUT/src."""
    src = os.path.join(os.path.abspath(checkout), "src")
    sys.path.insert(0, src)
    from go_metric_lab import go, metric, stiefel
    if not os.path.abspath(stiefel.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported {stiefel.__file__}, not from {src}")
    return go, metric, stiefel


def _peak_rss_mb() -> float:
    import resource
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)


def child(checkout: str, n: int, k: int) -> dict:
    """One timed run in this interpreter; the package comes from checkout."""
    from fractions import Fraction

    go, metric, stiefel = _import_from(checkout)
    gc.collect()
    gc.disable()
    marks = [time.perf_counter()]
    space = stiefel.build_stiefel(n, k)
    marks.append(time.perf_counter())
    metric.sym_commutant_basis(space.decomp)
    marks.append(time.perf_counter())
    go.reduce_family(space.decomp, seed=SEED)
    marks.append(time.perf_counter())
    irreducible = stiefel.grassmannian_cross_check(space)
    marks.append(time.perf_counter())
    report = stiefel.verify_family(space, [Fraction(t) for t in T_VALUES],
                                   n_samples=N_SAMPLES, seed=SEED)
    marks.append(time.perf_counter())
    gc.enable()
    verdicts = {c.verdict for c in report["certificates"].values()}
    if verdicts != {"verified-on-family"} or not report["all_t"]["verified"]:
        raise SystemExit(f"({n},{k}) was not certified: {sorted(verdicts)}")
    if not irreducible:
        raise SystemExit(f"({n},{k}) failed the Grassmannian cross-check")
    steps = [round(b - a, 4) for a, b in zip(marks, marks[1:])]
    return {"build_s": steps[0], "basis_s": steps[1], "reduce_s": steps[2],
            "cross_s": steps[3], "construct_s": round(marks[4] - marks[0], 4),
            "verify_s": steps[4], "peak_rss_mb": _peak_rss_mb()}


def scan_child(checkout: str, n: int, k: int) -> dict:
    """One timed off-diagonal scan in this interpreter, then a warm scan of
    the same family with the next seed; after the timed steps, the traced
    memory a fresh family keeps after one scan."""
    go, metric, stiefel = _import_from(checkout)
    samples = SCAN_SAMPLES[n, k]
    gc.collect()
    gc.disable()
    t0 = time.perf_counter()
    space = stiefel.build_stiefel(n, k)
    t1 = time.perf_counter()
    full = metric.full_family(space.decomp)
    t2 = time.perf_counter()
    result = go.search_go(space.decomp, full,
                          go.ScanSpec(random_count=samples, seed=SEED),
                          include_grid=False)
    t3 = time.perf_counter()
    warm = go.search_go(space.decomp, full,
                        go.ScanSpec(random_count=samples, seed=SEED + 1),
                        include_grid=False)
    t4 = time.perf_counter()
    gc.enable()
    for r in (result, warm):
        if r.n_points != samples or r.survivors:
            raise SystemExit(f"({n},{k}): {r.n_points} points, "
                             f"{len(r.survivors)} survivors")
    digest = hashlib.sha256(json.dumps(result.falsified, sort_keys=True)
                            .encode()).hexdigest()[:16]
    peak = _peak_rss_mb()
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    kept = metric.full_family(space.decomp)
    go.search_go(space.decomp, kept,
                 go.ScanSpec(random_count=samples, seed=SEED),
                 include_grid=False)
    gc.collect()
    family_kb = (tracemalloc.get_traced_memory()[0] - before) / 1024
    tracemalloc.stop()
    return {"build_s": round(t1 - t0, 4), "scan_s": round(t3 - t2, 4),
            "warm_scan_s": round(t4 - t3, 4), "peak_rss_mb": peak,
            "family_kb": round(family_kb, 1), "falsified_sha256": digest}


def theorem_child(checkout: str, n: int, k: int,
                  runs: str = "theorem") -> dict:
    """One `reproduce-theorem` run of the checkout's command line, as the
    only child of this interpreter, so its peak RSS is this one's
    RUSAGE_CHILDREN maximum.  A `join` run that exits non-zero returns its
    exit code and last stderr line."""
    import resource
    _, _, resolution, samples = next(
        r for r in (JOIN_RUNS if runs == "join" else THEOREM_RUNS)
        if r[:2] == (n, k))
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.abspath(checkout), "src"), PYTHONDONTWRITEBYTECODE="1")
    env.pop("GO_METRIC_LAB_SEED", None)
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "report.json")
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "go_metric_lab", "reproduce-theorem",
             str(n), str(k), "--resolution", resolution,
             "--offdiagonal-samples", str(samples),
             "--verbose", "--out", report],
            env=env, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        if proc.returncode and runs == "join":
            return {"wall_s": round(wall, 4), "exit": proc.returncode,
                    "error": proc.stderr.strip().splitlines()[-1]}
        if proc.returncode:
            raise SystemExit(f"({n},{k}) exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-500:]}")
        with open(report, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()[:16]
    stages = {}
    for line in proc.stderr.splitlines():
        # "stage NAME: SECONDS s"
        if line.startswith("stage "):
            name, _, secs = line[len("stage "):].partition(": ")
            stages[f"{name}_s"] = float(secs.split()[0])
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"wall_s": round(wall, 4), **stages,
            "peak_rss_mb": round(peak / 1024, 1), "report_sha256": digest}


CHILDREN = {"--child": child, "--scan-child": scan_child,
            "--theorem-child": theorem_child}


def _load_workloads(checkout: str, workloads_py: str, index: int):
    """`workloads_py` loaded against the package of CHECKOUT/src, under a
    module name of its own; the package's modules stay reachable through
    it after they leave `sys.modules` for the next checkout's."""
    src = os.path.join(os.path.abspath(checkout), "src")
    for name in [m for m in sys.modules if m.split(".")[0] == "go_metric_lab"]:
        del sys.modules[name]
    sys.path.insert(0, src)
    try:
        spec = importlib.util.spec_from_file_location(
            f"_bench_workloads_{index}", workloads_py)
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module          # dataclass looks it up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(src)
    if not os.path.abspath(module.stiefel.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported {module.stiefel.__file__}, not from {src}")
    return module


def _quartiles(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median_s": round(q2, 6), "q1_s": round(q1, 6),
            "q3_s": round(q3, 6)}


def perfbench_ab(checkouts, names: List[str], pairs: int) -> dict:
    """Interleaved in-process passes of perfbench workloads, two sides."""
    workloads_py = os.path.join(checkouts[0][1], "perfbench", "workloads.py")
    sides = [_load_workloads(path, workloads_py, i)
             for i, (_, path) in enumerate(checkouts)]
    out = {}
    for name in names:
        work = [side.WORKLOADS[name] for side in sides]
        ctxs = [w.prepare(side.stiefel.build_stiefel(w.n, w.k))
                for w, side in zip(work, sides)]
        times: List[List[float]] = [[] for _ in sides]
        for i in range(-1, pairs):               # pair -1 warms up, untimed
            for s in (0, 1) if i % 2 == 0 else (1, 0):
                inp = work[s].make_inputs(SEED, max(i, 0))
                gc.collect()
                gc.disable()
                t0 = time.perf_counter()
                result = work[s].run(ctxs[s], inp)
                elapsed = time.perf_counter() - t0
                gc.enable()
                errors = work[s].check(result, inp, ctxs[s])
                if errors:
                    raise SystemExit(f"{checkouts[s][0]} {name} pass {i}: "
                                     f"{errors[:3]}")
                if i >= 0:
                    times[s].append(elapsed)
        ratios = [b / a for a, b in zip(*times)]
        out[name] = {
            **{label: _quartiles(t) for (label, _), t in zip(checkouts, times)},
            "ratio_median": round(statistics.median(ratios), 4),
            "ratio_quartiles": [round(q, 4) for q in
                                statistics.quantiles(ratios, n=4)[::2]],
            "second_wins": sum(r < 1 for r in ratios), "pairs": pairs,
            "pass_s": {label: [round(x, 6) for x in t]
                       for (label, _), t in zip(checkouts, times)}}
        print(json.dumps({k: v for k, v in out[name].items() if k != "pass_s"}),
              file=sys.stderr)
    return out


def timed_run(checkout: str, n: int, k: int, mode: str, *extra) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), mode, checkout, str(n),
         str(k), *extra], check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def parse_checkout(text: str):
    label, sep, path = text.partition("=")
    if not sep:
        label, path = os.path.basename(os.path.abspath(text)), text
    if not os.path.isdir(os.path.join(path, "src", "go_metric_lab")):
        raise argparse.ArgumentTypeError(f"no src/go_metric_lab under {path}")
    return label, path


def alternating_runs(args) -> dict:
    """Timed child runs, alternating checkouts inside every round."""
    extra = ()
    if args.theorem or args.join:
        mode, layers = "--theorem-child", THEOREM_LAYERS
        spaces = [r[:2] for r in (JOIN_RUNS if args.join else THEOREM_RUNS)]
        extra = ("join",) if args.join else ()
    elif args.scan:
        mode, spaces, layers = "--scan-child", SCAN_SPACES, SCAN_LAYERS
    else:
        mode, spaces, layers = "--child", SPACES, LAYERS

    runs = []
    for r in range(args.rounds):
        for n, k in spaces:
            for label, path in args.checkouts:
                run = {"checkout": label, "space": f"{n},{k}", "round": r,
                       **timed_run(path, n, k, mode, *extra)}
                runs.append(run)
                print(json.dumps(run), file=sys.stderr)
    def median(label, n, k, m):
        # runs that exited non-zero (--join only) have no stages
        done = [x[m] for x in runs if x["checkout"] == label
                and x["space"] == f"{n},{k}" and "exit" not in x]
        return round(statistics.median(done), 4) if done else None

    medians = {label: {f"{n},{k}": {m: median(label, n, k, m) for m in layers}
                       for n, k in spaces}
               for label, _ in args.checkouts}
    flag = (" --theorem" if args.theorem else " --join" if args.join
            else " --scan" if args.scan else "")
    result = {"harness": "scripts/bench_certify.py" + flag
              + ("" if args.theorem or args.join else GC_NOTE),
              "python": platform.python_version(), "cpus": os.cpu_count(),
              "spaces": [f"{n},{k}" for n, k in spaces]}
    if args.theorem or args.join:
        result["commands"] = [
            f"reproduce-theorem {n} {k} --resolution {res} "
            f"--offdiagonal-samples {samples} --verbose"
            for n, k, res, samples in (JOIN_RUNS if args.join
                                       else THEOREM_RUNS)]
    if not (args.theorem or args.join):
        result.update({"random_count": {f"{n},{k}": c for (n, k), c
                                         in SCAN_SAMPLES.items()}}
                      if args.scan else
                      {"t_values": list(T_VALUES), "n_samples": N_SAMPLES})
    result.update({"seed": SEED, "rounds": args.rounds,
                   "medians": medians, "runs": runs})
    return result


def main(argv=None) -> int:
    if argv is None and sys.argv[1:2] and sys.argv[1] in CHILDREN:
        mode, checkout, n, k, *extra = sys.argv[1:]
        print(json.dumps(CHILDREN[mode](checkout, int(n), int(k), *extra)))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkouts", nargs="+", type=parse_checkout,
                    metavar="[LABEL=]PATH")
    ap.add_argument("--rounds", type=int, default=5)
    modes = ap.add_mutually_exclusive_group()
    modes.add_argument("--scan", action="store_true",
                       help="time the off-diagonal scan instead")
    modes.add_argument("--theorem", action="store_true",
                       help="time reproduce-theorem end to end instead")
    modes.add_argument("--join", action="store_true",
                       help="time the grid-scan commands instead")
    modes.add_argument("--perfbench", metavar="WORKLOAD[,WORKLOAD...]",
                       help="in-process A/B of perfbench passes instead")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    if not args.perfbench:
        result = alternating_runs(args)
    elif len(args.checkouts) != 2:
        ap.error("--perfbench compares exactly two checkouts")
    else:
        result = {"harness": "scripts/bench_certify.py --perfbench (one "
                  "interpreter; both sides run the first checkout's "
                  "perfbench/workloads.py; passes interleaved, the first "
                  "side alternating; gc.collect(), then gc.disable() "
                  "around each timed pass; every pass checked)",
                  "python": platform.python_version(), "cpus": os.cpu_count(),
                  "checkouts": [label for label, _ in args.checkouts],
                  "seed": SEED, "pairs": args.rounds,
                  "workloads": perfbench_ab(args.checkouts,
                                            args.perfbench.split(","),
                                            args.rounds)}
    text = json.dumps(result, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
