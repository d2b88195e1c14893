#!/usr/bin/env python3
"""Time the certification layers of one or more checkouts, alternating.

For each (n, k) the script times `stiefel.build_stiefel`, `go.reduce_family`
and `stiefel.verify_family` (100 samples, t in {1/2, 1, 2, 3}) in a fresh
interpreter that imports the package from `CHECKOUT/src`, and records that
interpreter's peak RSS.  With `--scan` it times instead the off-diagonal
scan: `go.search_go` over `metric.full_family` with 40 drawn samples and no
grid, on (4,2), (4,3) and (6,3), and records a digest of the falsified
entries so that checkouts can be seen to agree.  With several checkouts
the runs alternate checkout by checkout inside every round, so host drift
hits them alike.  Each checkout is given as PATH or LABEL=PATH; the JSON
result (every run plus per-checkout medians) goes to stdout or to --out.

    python scripts/bench_certify.py parent=../parent change=. --rounds 7 \\
        --out BENCH_certify.json
    python scripts/bench_certify.py parent=../parent change=. --scan \\
        --rounds 10 --out BENCH_offdiag.json
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

SPACES = ((4, 3), (6, 3))
T_VALUES = ("1/2", "1", "2", "3")
N_SAMPLES = 100
SEED = 0
LAYERS = ("build_s", "reduce_s", "verify_s", "peak_rss_mb")
SCAN_SPACES = ((4, 2), (4, 3), (6, 3))
SCAN_SAMPLES = 40
SCAN_LAYERS = ("build_s", "scan_s", "peak_rss_mb")


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


def timed_run(checkout: str, n: int, k: int, scan: bool) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__),
         "--scan-child" if scan else "--child", checkout, str(n), str(k)],
        check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def parse_checkout(text: str):
    label, sep, path = text.partition("=")
    if not sep:
        label, path = os.path.basename(os.path.abspath(text)), text
    if not os.path.isdir(os.path.join(path, "src", "go_metric_lab")):
        raise argparse.ArgumentTypeError(f"no src/go_metric_lab under {path}")
    return label, path


def main(argv=None) -> int:
    if argv is None and sys.argv[1:2] in (["--child"], ["--scan-child"]):
        mode, checkout, n, k = sys.argv[1:5]
        run = scan_child if mode == "--scan-child" else child
        print(json.dumps(run(checkout, int(n), int(k))))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkouts", nargs="+", type=parse_checkout,
                    metavar="[LABEL=]PATH")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--scan", action="store_true",
                    help="time the off-diagonal scan instead")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    spaces, layers = ((SCAN_SPACES, SCAN_LAYERS) if args.scan
                      else (SPACES, LAYERS))

    runs = []
    for r in range(args.rounds):
        for n, k in spaces:
            for label, path in args.checkouts:
                run = {"checkout": label, "space": f"{n},{k}", "round": r,
                       **timed_run(path, n, k, args.scan)}
                runs.append(run)
                print(json.dumps(run), file=sys.stderr)
    medians = {
        label: {f"{n},{k}": {
            m: round(statistics.median(x[m] for x in runs
                                       if x["checkout"] == label
                                       and x["space"] == f"{n},{k}"), 4)
            for m in layers} for n, k in spaces}
        for label, _ in args.checkouts}
    result = {"harness": "scripts/bench_certify.py"
                         + (" --scan" if args.scan else ""),
              "python": platform.python_version(), "cpus": os.cpu_count(),
              "spaces": [f"{n},{k}" for n, k in spaces]}
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
