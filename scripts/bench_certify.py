#!/usr/bin/env python3
"""Time the certification layers of one or more checkouts, alternating.

For each (n, k) the script times `stiefel.build_stiefel`, `go.reduce_family`
and `stiefel.verify_family` (100 samples, t in {1/2, 1, 2, 3}) in a fresh
interpreter that imports the package from `CHECKOUT/src`, and records that
interpreter's peak RSS.  With several checkouts the runs alternate
checkout by checkout inside every round, so host drift hits them alike.
Each checkout is given as PATH or LABEL=PATH; the JSON result (every run
plus per-checkout medians) goes to stdout or to --out.

    python scripts/bench_certify.py parent=../parent change=. --rounds 7 \\
        --out BENCH_certify.json
"""

import argparse
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


def child(checkout: str, n: int, k: int) -> dict:
    """One timed run in this interpreter; the package comes from checkout."""
    import resource
    from fractions import Fraction

    src = os.path.join(os.path.abspath(checkout), "src")
    sys.path.insert(0, src)
    from go_metric_lab import go, stiefel
    if not os.path.abspath(stiefel.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported {stiefel.__file__}, not from {src}")

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
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"build_s": round(t1 - t0, 4), "reduce_s": round(t2 - t1, 4),
            "verify_s": round(t3 - t2, 4), "peak_rss_mb": round(rss_kb / 1024, 1)}


def timed_run(checkout: str, n: int, k: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", checkout,
         str(n), str(k)],
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
    if argv is None and sys.argv[1:2] == ["--child"]:
        _, checkout, n, k = sys.argv[1:5]
        print(json.dumps(child(checkout, int(n), int(k))))
        return 0
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("checkouts", nargs="+", type=parse_checkout,
                    metavar="[LABEL=]PATH")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")

    runs = []
    for r in range(args.rounds):
        for n, k in SPACES:
            for label, path in args.checkouts:
                run = {"checkout": label, "space": f"{n},{k}", "round": r,
                       **timed_run(path, n, k)}
                runs.append(run)
                print(json.dumps(run), file=sys.stderr)
    medians = {
        label: {f"{n},{k}": {
            m: round(statistics.median(x[m] for x in runs
                                       if x["checkout"] == label
                                       and x["space"] == f"{n},{k}"), 4)
            for m in LAYERS} for n, k in SPACES}
        for label, _ in args.checkouts}
    result = {"harness": "scripts/bench_certify.py",
              "python": platform.python_version(), "cpus": os.cpu_count(),
              "spaces": [f"{n},{k}" for n, k in SPACES],
              "t_values": list(T_VALUES), "n_samples": N_SAMPLES,
              "seed": SEED, "rounds": args.rounds,
              "medians": medians, "runs": runs}
    text = json.dumps(result, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
