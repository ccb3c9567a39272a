"""Command-line interface.

Subcommands:
  eval    one sequence value psi_n(P) and its quadratic character
  sums    character windows: incomplete/complete (twisted) sums, any order
  verify  identity checks on one curve/point, each ok, fail or skipped by a
          scale guard (exit 2 when a check fails, 1 when all were skipped)
  scan    seeded per-prime records over a prime range (JSON lines)
  bench   desk-scale timing and large-index correctness checks

Each option is named after the parameter of harness.cmd_<command> that it
feeds (--cap-n is cap_n, --ell is ells), and only the options given are
passed on, so every default is written once, in the cmd_* signature (each
subcommand's --help lists them).

Exit codes: 0 success, 1 invalid input (usage errors included), 2
verification failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

from . import harness


def twist_index(value: str) -> int | str:
    """--twist-a: an integer twist index, or 'all' for the quadratic spectrum."""
    return value if value == "all" else int(value)


def _add_curve(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--p", type=int, required=True, help="prime modulus (odd, > 3)")
    sp.add_argument("--a", type=int, required=True, help="curve coefficient A")
    sp.add_argument("--b", type=int, required=True, help="curve coefficient B")
    sp.add_argument("--px", type=int, required=True, help="point x-coordinate")
    sp.add_argument("--py", type=int, required=True, help="point y-coordinate")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="edschar",
        description="Elliptic divisibility sequences and their character sums over F_p.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        params = inspect.signature(getattr(harness, f"cmd_{name}")).parameters.values()
        defaults = ", ".join(f"{q.name}={q.default}" for q in params if q.default is not q.empty)
        epilog = f"defaults: {defaults}" if defaults else None
        return sub.add_parser(name, help=help, epilog=epilog, argument_default=argparse.SUPPRESS)

    sp = command("eval", "evaluate psi_n(P)")
    _add_curve(sp)
    sp.add_argument("--n", type=int, required=True, help="sequence index (any integer)")

    sp = command("sums", "character sums along the sequence")
    _add_curve(sp)
    sp.add_argument("--cap-n", type=int, help="incomplete sum length (None: R = 2r)")
    sp.add_argument(
        "--twist-a",
        type=twist_index,
        help="additive twist index for the complete sum, or 'all' for the quadratic spectrum",
    )
    sp.add_argument(
        "--char-order",
        type=int,
        help="multiplicative character order d (d >= 2, d must divide p - 1)",
    )

    sp = command("verify", "check the sequence identities at one view")
    _add_curve(sp)
    sp.add_argument("--identity", help="recurrence | shift | index-product | period | weil | all")
    sp.add_argument("--seed", type=int)
    sp.add_argument("--trials", type=int, help=f"at most {harness.TRIALS_MAX}")
    sp.add_argument(
        "--ell",
        dest="ells",
        metavar="ELL",
        type=int,
        action="append",
        help="odd sequence index for weil checks (repeatable)",
    )

    sp = command("scan", "seeded records across a prime range")
    sp.add_argument("--p-min", type=int, required=True)
    sp.add_argument("--p-max", type=int, required=True)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--out", help="write JSON lines here instead of stdout")
    sp.add_argument("--threads", type=int, help="worker processes")

    sp = command("bench", "timing and large-index checks")
    sp.add_argument("--seed", type=int)
    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        options = vars(build_parser().parse_args(argv))
    except SystemExit as exc:
        if exc.code != 2:  # --help exits 0
            raise
        return 1  # a usage error, which argparse has already printed
    command = options.pop("command")
    try:
        result = getattr(harness, f"cmd_{command}")(**options)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if command == "scan":
        if "out" in options:
            print(json.dumps({"records": len(result), "out": options["out"]}))
        else:
            for rec in result:
                print(json.dumps(rec, sort_keys=True))
        return 0
    print(json.dumps(result, indent=2, sort_keys=True))
    return 2 if command == "verify" and not result["ok"] else 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
