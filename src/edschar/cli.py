"""Command-line interface.

Subcommands:
  eval    one sequence value psi_n(P) and its quadratic character
  sums    character windows: incomplete/complete (twisted) sums, any order
  verify  identity checks on one curve/point, each ok, fail or skipped by a
          scale guard (exit 2 when a check fails, 1 when all were skipped)
  scan    seeded per-prime records over a prime range (JSON lines)
  bench   desk-scale timing and large-index correctness checks

Exit codes: 0 success, 1 invalid input, 2 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness


def _add_curve(sp: argparse.ArgumentParser, point: bool = True) -> None:
    sp.add_argument("--p", type=int, required=True, help="prime modulus (odd, > 3)")
    sp.add_argument("--a", type=int, required=True, help="curve coefficient A")
    sp.add_argument("--b", type=int, required=True, help="curve coefficient B")
    if point:
        sp.add_argument("--px", type=int, required=True, help="point x-coordinate")
        sp.add_argument("--py", type=int, required=True, help="point y-coordinate")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="edschar",
        description="Elliptic divisibility sequences and their character sums over F_p.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval", help="evaluate psi_n(P)")
    _add_curve(sp)
    sp.add_argument("--n", type=int, required=True, help="sequence index (any integer)")

    sp = sub.add_parser("sums", help="character sums along the sequence")
    _add_curve(sp)
    sp.add_argument(
        "--cap-n", type=int, default=None, help="incomplete sum length (default: R = 2r)"
    )
    sp.add_argument(
        "--twist-a",
        default=None,
        help="additive twist index for the complete sum, or 'all' for the quadratic spectrum",
    )
    sp.add_argument(
        "--char-order",
        type=int,
        default=2,
        help="multiplicative character order d (d >= 2, d must divide p - 1; default 2)",
    )

    sp = sub.add_parser("verify", help="check the sequence identities at one view")
    _add_curve(sp)
    sp.add_argument(
        "--identity",
        default="all",
        help="recurrence | shift | index-product | period | weil | all",
    )
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=200)
    sp.add_argument(
        "--ell",
        type=int,
        action="append",
        default=None,
        help="odd sequence index for weil checks (repeatable; default 3)",
    )

    sp = sub.add_parser("scan", help="seeded records across a prime range")
    sp.add_argument("--p-min", type=int, required=True)
    sp.add_argument("--p-max", type=int, required=True)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None, help="write JSON lines here instead of stdout")
    sp.add_argument("--threads", type=int, default=1, help="worker processes")

    sp = sub.add_parser("bench", help="timing and large-index checks")
    sp.add_argument("--seed", type=int, default=0)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "eval":
            payload = harness.cmd_eval(args.p, args.a, args.b, args.px, args.py, args.n)
        elif args.command == "sums":
            twist = args.twist_a
            if twist is not None and twist != "all":
                twist = int(twist)
            payload = harness.cmd_sums(
                args.p,
                args.a,
                args.b,
                args.px,
                args.py,
                cap_n=args.cap_n,
                twist_a=twist,
                char_order=args.char_order,
            )
        elif args.command == "verify":
            payload = harness.cmd_verify(
                args.p,
                args.a,
                args.b,
                args.px,
                args.py,
                identity=args.identity,
                seed=args.seed,
                trials=args.trials,
                ells=tuple(args.ell) if args.ell else (3,),
            )
        elif args.command == "scan":
            records = harness.cmd_scan(
                args.p_min,
                args.p_max,
                seed=args.seed,
                threads=args.threads,
                out=args.out,
            )
            if args.out is None:
                for rec in records:
                    print(json.dumps(rec, sort_keys=True))
            else:
                print(json.dumps({"records": len(records), "out": args.out}))
            return 0
        else:  # bench
            payload = harness.cmd_bench(seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(payload, indent=2, sort_keys=True))
    if args.command == "verify" and not payload["ok"]:
        return 2
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
