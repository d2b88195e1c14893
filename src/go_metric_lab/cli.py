"""Command-line front end.

Subcommands:

  decompose          isotypical decomposition report for a space
  check-go           decide the GO property of a metric, write a certificate
  reproduce-theorem  full pipeline on a Stiefel space: build, verify the
                     deformation family, reduce, scan for uniqueness

Spaces are either the builtin "stiefel N K" or a JSON file carrying a
serialized algebra plus an h-basis.  Exit codes: 0 pass/verified, 1
falsified (reproduce-theorem: any part of the claim not verified), 2
input error.  Reports are deterministic functions of the inputs and the
seed; GO_METRIC_LAB_SEED supplies a fallback seed.  All arithmetic is exact: `--mode` accepts only "exact".
`--verbose` prints one "stage NAME: SECONDS s" line per stage to stderr
and leaves the report untouched.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from fractions import Fraction
from typing import List, Optional

from . import decomp as decomp_mod
from . import go as go_mod
from . import isotropy, lie_core, metric as metric_mod, stiefel

EXIT_PASS = 0
EXIT_FALSIFIED = 1
EXIT_INPUT_ERROR = 2
MODE = "exact"                # the only arithmetic; stamped into reports


class InputError(Exception):
    pass


def _default_seed() -> int:
    env = os.environ.get("GO_METRIC_LAB_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise InputError(
            f"GO_METRIC_LAB_SEED must be an integer, got {env!r}") from None


def int_at_least(low: int, most: Optional[int] = None):
    """argparse type: an integer no smaller than `low` and, if `most` is
    given, no larger than it."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be at least {low}, got {value}")
        if most is not None and value > most:
            raise argparse.ArgumentTypeError(
                f"must be at most {most}, got {value}")
        return value
    return integer


def _resolution(text: str) -> Fraction:
    """argparse type: a grid step that `stiefel.scan_grid` accepts."""
    try:
        stiefel.scan_grid(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"invalid grid step {text!r}: {exc}") from None
    return Fraction(text)


@contextlib.contextmanager
def _stage(args, name: str):
    """Time one stage; under --verbose, report it on stderr."""
    start = time.perf_counter()
    yield
    if args.verbose:
        print(f"stage {name}: {time.perf_counter() - start:.3f} s",
              file=sys.stderr)


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_space(spec_args: List[str], seed: int):
    """Builtin "stiefel N K" or a JSON file with algebra + h basis."""
    if len(spec_args) == 3 and spec_args[0] == "stiefel":
        try:
            n, k = int(spec_args[1]), int(spec_args[2])
        except ValueError as exc:
            raise InputError(f"bad stiefel arguments: {exc}") from exc
        try:
            space = stiefel.build_stiefel(n, k)
        except lie_core.InvalidDimensionError as exc:
            raise InputError(str(exc)) from exc
        return space.decomp, space
    if len(spec_args) == 1:
        path = spec_args[0]
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(
                f"malformed JSON in {path}: line {exc.lineno}, "
                f"column {exc.colno}: {exc.msg}") from exc
        try:
            g = lie_core.from_json_dict(data["algebra"])
            failed = [c for c in lie_core.validate_algebra(g).checks
                      if not c.passed]
            if failed:
                detail = f": {failed[0].detail}" if failed[0].detail else ""
                raise ValueError(
                    f"algebra fails the {failed[0].name} check{detail}")
            split = decomp_mod.split_from_json_dict(g, data)
            action = isotropy.isotropy_action(split)
            dec = isotropy.decompose_isotypic(action, seed=seed)
        except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
            raise InputError(f"bad space file {path}: {exc}") from exc
        return dec, None
    raise InputError("space must be 'stiefel N K' or one JSON file path")


def decomposition_report(dec: isotropy.IsotypicalDecomposition) -> dict:
    return {
        "dim_m": dec.dim,
        "dim_s0": dec.s0.dim,
        "summands": [{
            "class_id": s.class_id,
            "dim": s.dim,
            "trivial": s is dec.s0,
            "member_dims": [m.dim for m in s.members],
            "member_commutant_dims": [m.commutant_dim for m in s.members],
            "intertwiner_dims": {f"{a}-{b}": len(phis) for (a, b), phis
                                 in s.intertwiner_bases.items()},
        } for s in dec.summands],
        "seed": dec.seed,
        "sym_commutant_dim": len(metric_mod.sym_commutant_basis(dec)),
    }


def cmd_decompose(args) -> int:
    with _stage(args, "build"):
        dec, _ = _load_space(args.space, args.seed)
    with _stage(args, "report"):
        report = decomposition_report(dec)
    report["mode"] = MODE
    _emit(args, report)
    return EXIT_PASS


def cmd_check_go(args) -> int:
    with _stage(args, "build"):
        dec, space = _load_space(args.space, args.seed)

    t = None
    if args.family_t is not None:
        if space is None:
            raise InputError("--family-t needs a builtin stiefel space")
        t = Fraction(args.family_t)
        if t <= 0:
            raise InputError(f"family parameter must be positive, got {t}")
        a = stiefel.metric_at(space, t)
    elif args.metric:
        try:
            with open(args.metric) as fh:
                data = json.load(fh)
            a = metric_mod.metric_from_json_dict(dec, data)
        except OSError as exc:
            raise InputError(f"cannot read {args.metric}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputError(
                f"malformed JSON in {args.metric}: line {exc.lineno}, "
                f"column {exc.colno}: {exc.msg}") from exc
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad metric file: {exc}") from exc
    else:
        raise InputError("provide a metric file or --family-t")

    if not a.is_pd:
        raise InputError("metric is not positive definite")
    strategy = args.strategy
    if strategy == "family" and t is None:
        raise InputError("family strategy needs --family-t")
    try:
        go_mod.check_sample_count(strategy, args.count)
    except ValueError as exc:
        raise InputError(f"bad --count: {exc}") from exc
    with _stage(args, "check"):
        if strategy == "family":
            cert = stiefel.family_view(
                stiefel.certify_family(space.family_data), a,
                stiefel.witness_map(space, t), stiefel.family_samples(
                    space.dim_m, args.count, args.seed), args.seed)
        else:
            cert = go_mod.go_check(a, strategy=strategy, count=args.count,
                                   seed=args.seed)
    payload = go_mod.certificate_to_json_dict(cert)
    payload["normalizer_equivariant"] = metric_mod.check_normalizer_equivariance(a)
    payload["mode"] = MODE
    _emit(args, payload)
    return EXIT_PASS if cert.verdict != "falsified" else EXIT_FALSIFIED


def cmd_reproduce_theorem(args) -> int:
    try:
        report = stiefel.reproduce_report(
            args.n, args.k, resolution=args.resolution,
            seed=args.seed,
            offdiagonal_samples=args.offdiagonal_samples,
            stage=lambda name: _stage(args, name))
    except lie_core.InvalidDimensionError as exc:
        raise InputError(str(exc)) from exc
    report["mode"] = MODE
    _emit(args, report)
    scan = report["uniqueness"]
    verified = (all(c["verdict"] == "verified-on-family"
                    for c in report["family_certificates"].values())
                and report["family_all_t"]["verified"])
    off = scan.get("off_diagonal", {})
    unique = (scan["grid"]["survivors_all_in_family"]
              and scan["grid"]["n_survivors"] > 0
              and off.get("n_survivors", 0) == 0 and not off.get("notes"))
    irreducible = scan["grassmannian_cross_check"]
    return (EXIT_PASS if (verified and unique and irreducible)
            else EXIT_FALSIFIED)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--mode", choices=[MODE], default=MODE,
                        help="arithmetic; only exact is supported")
    common.add_argument("--seed", type=int, default=_default_seed())
    common.add_argument("--out", type=str, default=None,
                        help="write the JSON report here instead of stdout")
    common.add_argument("--verbose", action="store_true",
                        help="print stage timings to stderr")

    parser = argparse.ArgumentParser(
        prog="go-metric-lab",
        description="decide and certify geodesic-orbit metrics on compact "
                    "homogeneous spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", parents=[common],
                       help="isotypical decomposition report")
    p.add_argument("space", nargs="+",
                   help="'stiefel N K' or a space JSON file")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("check-go", parents=[common],
                       help="decide the GO property of a metric")
    p.add_argument("space", nargs="+",
                   help="'stiefel N K' or a space JSON file")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--metric", type=str, default=None,
                        help="metric JSON file (params over the commutant basis)")
    source.add_argument("--family-t", type=str, default=None,
                        help="use the builtin deformation metric at this t")
    p.add_argument("--strategy", choices=["basis", "random", "family"],
                   default="basis")
    p.add_argument("--count", type=int_at_least(0, go_mod.MAX_SAMPLES),
                   default=100,
                   help="sample count for random/family strategies")
    p.set_defaults(func=cmd_check_go)

    p = sub.add_parser("reproduce-theorem", parents=[common],
                       help="verify and scan the Stiefel deformation family")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--resolution", type=_resolution, default="1/4",
                   help="grid step on [1/4, 4] for the uniqueness scan")
    p.add_argument("--offdiagonal-samples",
                   type=int_at_least(0, go_mod.MAX_SAMPLES), default=200)
    p.set_defaults(func=cmd_reproduce_theorem)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        parser = build_parser()         # reads GO_METRIC_LAB_SEED
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return EXIT_INPUT_ERROR if exc.code not in (0,) else 0
        return args.func(args)
    except (InputError, ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
