#!/usr/bin/env python3
"""Time the certification layers of one or more checkouts, alternating.

For each (n, k) of (4,3), (6,3) and (8,4) the script times
`stiefel.build_stiefel`, `go.reduce_family` and `stiefel.verify_family`
(100 samples, t in {1/2, 1, 2, 3}) in a fresh interpreter that imports the
package from `CHECKOUT/src`, and records that interpreter's peak RSS.
With `--scan` it times instead the off-diagonal scan: `go.search_go` over
`metric.full_family` with 40 drawn samples and no grid, on (4,2), (4,3)
and (6,3), and records a digest of the falsified entries so that
checkouts can be seen to agree.  With `--theorem` it runs the command line
end to end instead: `reproduce-theorem --jobs 1 --verbose` on (8,4) at
resolution 1 with 10 off-diagonal samples and on (6,3) at resolution 1
with 50, recording the wall time, the `--verbose` stage times, the
command's peak RSS and a digest of its report.  With several checkouts
the runs alternate checkout by checkout inside every round, so host drift
hits them alike.  Each checkout is given as PATH or LABEL=PATH; the JSON
result (every run plus per-checkout medians) goes to stdout or to --out.

    python scripts/bench_certify.py parent=../parent change=. --rounds 5 \\
        --out BENCH_build.json
    python scripts/bench_certify.py parent=../parent change=. --scan \\
        --rounds 10 --out BENCH_offdiag.json
    python scripts/bench_certify.py parent=../parent change=. --theorem \\
        --rounds 3 --out BENCH_scan.json
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

SPACES = ((4, 3), (6, 3), (8, 4))
T_VALUES = ("1/2", "1", "2", "3")
N_SAMPLES = 100
SEED = 0
LAYERS = ("build_s", "reduce_s", "verify_s", "peak_rss_mb")
SCAN_SPACES = ((4, 2), (4, 3), (6, 3))
SCAN_SAMPLES = 40
SCAN_LAYERS = ("build_s", "scan_s", "peak_rss_mb")
# (n, k, resolution, off-diagonal samples) of each reproduce-theorem run
THEOREM_RUNS = ((8, 4, "1", 10), (6, 3, "1", 50))
THEOREM_LAYERS = ("wall_s", "build_s", "verify_s", "reduce_s", "scan_s",
                  "peak_rss_mb")


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

    go, _, stiefel = _import_from(checkout)
    t0 = time.perf_counter()
    space = stiefel.build_stiefel(n, k)
    t1 = time.perf_counter()
    go.reduce_family(space.decomp, seed=SEED)
    t2 = time.perf_counter()
    report = stiefel.verify_family(space, [Fraction(t) for t in T_VALUES],
                                   n_samples=N_SAMPLES, seed=SEED)
    t3 = time.perf_counter()
    verdicts = {c.verdict for c in report["certificates"].values()}
    if verdicts != {"verified-on-family"} or not report["all_t"]["verified"]:
        raise SystemExit(f"({n},{k}) was not certified: {sorted(verdicts)}")
    return {"build_s": round(t1 - t0, 4), "reduce_s": round(t2 - t1, 4),
            "verify_s": round(t3 - t2, 4), "peak_rss_mb": _peak_rss_mb()}


def scan_child(checkout: str, n: int, k: int) -> dict:
    """One timed off-diagonal scan in this interpreter."""
    go, metric, stiefel = _import_from(checkout)
    t0 = time.perf_counter()
    space = stiefel.build_stiefel(n, k)
    t1 = time.perf_counter()
    full = metric.full_family(space.decomp)
    t2 = time.perf_counter()
    result = go.search_go(space.decomp, full,
                          go.ScanSpec(random_count=SCAN_SAMPLES, seed=SEED),
                          include_grid=False)
    t3 = time.perf_counter()
    if result.n_points != SCAN_SAMPLES or result.survivors:
        raise SystemExit(f"({n},{k}): {result.n_points} points, "
                         f"{len(result.survivors)} survivors")
    digest = hashlib.sha256(json.dumps(result.falsified, sort_keys=True)
                            .encode()).hexdigest()[:16]
    return {"build_s": round(t1 - t0, 4), "scan_s": round(t3 - t2, 4),
            "peak_rss_mb": _peak_rss_mb(), "falsified_sha256": digest}


def theorem_child(checkout: str, n: int, k: int) -> dict:
    """One `reproduce-theorem` run of the checkout's command line, as the
    only child of this interpreter, so its peak RSS is this one's
    RUSAGE_CHILDREN maximum."""
    import resource
    _, _, resolution, samples = next(r for r in THEOREM_RUNS
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
             "--offdiagonal-samples", str(samples), "--jobs", "1",
             "--verbose", "--out", report],
            env=env, capture_output=True, text=True)
        wall = time.perf_counter() - t0
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


def timed_run(checkout: str, n: int, k: int, mode: str) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), mode, checkout, str(n),
         str(k)], check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def parse_checkout(text: str):
    label, sep, path = text.partition("=")
    if not sep:
        label, path = os.path.basename(os.path.abspath(text)), text
    if not os.path.isdir(os.path.join(path, "src", "go_metric_lab")):
        raise argparse.ArgumentTypeError(f"no src/go_metric_lab under {path}")
    return label, path


def main(argv=None) -> int:
    if argv is None and sys.argv[1:2] and sys.argv[1] in CHILDREN:
        mode, checkout, n, k = sys.argv[1:5]
        print(json.dumps(CHILDREN[mode](checkout, int(n), int(k))))
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
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    if args.theorem:
        mode, spaces, layers = ("--theorem-child",
                                [r[:2] for r in THEOREM_RUNS], THEOREM_LAYERS)
    elif args.scan:
        mode, spaces, layers = "--scan-child", SCAN_SPACES, SCAN_LAYERS
    else:
        mode, spaces, layers = "--child", SPACES, LAYERS

    runs = []
    for r in range(args.rounds):
        for n, k in spaces:
            for label, path in args.checkouts:
                run = {"checkout": label, "space": f"{n},{k}", "round": r,
                       **timed_run(path, n, k, mode)}
                runs.append(run)
                print(json.dumps(run), file=sys.stderr)
    medians = {
        label: {f"{n},{k}": {
            m: round(statistics.median(x[m] for x in runs
                                       if x["checkout"] == label
                                       and x["space"] == f"{n},{k}"), 4)
            for m in layers} for n, k in spaces}
        for label, _ in args.checkouts}
    flag = " --theorem" if args.theorem else " --scan" if args.scan else ""
    result = {"harness": "scripts/bench_certify.py" + flag,
              "python": platform.python_version(), "cpus": os.cpu_count(),
              "spaces": [f"{n},{k}" for n, k in spaces]}
    if args.theorem:
        result["commands"] = [
            f"reproduce-theorem {n} {k} --resolution {res} "
            f"--offdiagonal-samples {samples} --jobs 1 --verbose"
            for n, k, res, samples in THEOREM_RUNS]
    else:
        result.update({"random_count": SCAN_SAMPLES} if args.scan else
                      {"t_values": list(T_VALUES), "n_samples": N_SAMPLES})
    result.update({"seed": SEED, "rounds": args.rounds,
                   "medians": medians, "runs": runs})
    text = json.dumps(result, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
