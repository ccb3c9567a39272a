"""One benchmark process for one workload (started by run.py).

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE
                                --seconds S [--code program|reference]
                                [--check 0|1] [--spans PATH]

It imports edschar from the checkout's src/ (or, with ``--code reference``,
from the frozen copy in perfbench/reference/), builds the workload's inputs
and prints ``READY <json>`` with a digest of those inputs; the time until
that line is the set-up time.  Mode ``probe`` stops there.  The other modes
run the ops the workload sizes for S seconds and end with ``RESULT <json>``:
each op's time, the work it did, and the tally of attempted and failed ops.
Mode ``turns`` prints ``TURN`` and waits for a ``go`` line on standard input
at each hand-over (turns.py), so that run.py can make two processes take
turns; ``measure`` runs straight through, ``trace`` with spans recorded.
``--check 0`` skips the checks that cost as much as the ops they check;
``--cpu`` pins the process to one CPU once it is set up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
from pathlib import Path
from statistics import median

from stats import tail
from tracing import Tracer
from turns import Turns

HERE = Path(__file__).resolve().parent
CODE = {"program": HERE.parent / "src", "reference": HERE / "reference"}


def import_edschar(where: Path) -> None:
    """Import edschar from `where`, never from an installed copy."""
    if not (where / "edschar" / "__init__.py").is_file():
        raise SystemExit(f"edschar sources not found under {where}")
    sys.path.insert(0, str(where))
    import edschar

    if Path(edschar.__file__).resolve().parent != where / "edschar":
        raise SystemExit(f"imported edschar from {edschar.__file__}, not from {where}")


def wait_turn() -> None:
    print("TURN", flush=True)
    if sys.stdin.readline().strip() != "go":
        raise SystemExit("the turn-taking run ended early")


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


def layer_metrics(tracer: Tracer) -> dict:
    out = {}
    for name, rec in tracer.aggregate().items():
        for key, value in rec.items():
            out[f"{name}.{key}"] = value
    out.update(tracer.counters)
    scan = tracer.durations("harness.scan_prime")
    if scan:
        out["harness.scan_prime.p50_ms"] = median(scan) * 1e3
        p95 = tail(scan, 0.95, 1e3)
        if p95 is not None:
            out["harness.scan_prime.p95_ms"] = p95
    out["spans"] = len(tracer.name)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("probe", "turns", "measure", "trace"), required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--code", choices=tuple(CODE), default="program")
    ap.add_argument("--check", type=int, choices=(0, 1), default=1)
    ap.add_argument("--cpu", type=int, default=None, help="run the ops on this CPU only")
    ap.add_argument("--spans", default=None, help="write the trace's spans here")
    args = ap.parse_args(argv)

    import_edschar(CODE[args.code])
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    inputs = hashlib.sha256(json.dumps(workload.inputs(), sort_keys=True).encode()).hexdigest()
    import numpy

    print("READY " + json.dumps({"inputs": inputs, "numpy": numpy.__version__}), flush=True)
    if args.mode == "probe":
        return 0

    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    n_ops = workload.ops_for(args.seconds)
    check = bool(args.check)
    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        with tracer.installed():
            res = workload.run(n_ops, tracer, check)
    else:
        if args.mode == "turns":
            wait_turn()  # start together with the other process
        turns = Turns(wait_turn if args.mode == "turns" else None)
        res = workload.run(n_ops, None, check, turns)
        res["handovers"] = turns.handovers
    tally = res.pop("tally")
    res.update(
        ops=n_ops,
        attempted=tally.attempted,
        failed=tally.failed,
        errors=tally.errors,
        digest=tally.digest(),
        peak_rss_mb=peak_rss_mb(),
    )
    if tracer is not None:
        res["layers"] = layer_metrics(tracer)
        if args.spans:
            tracer.write(args.spans)
    print("RESULT " + json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
