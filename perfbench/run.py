"""Benchmark entry point for edschar.

    python3 perfbench/run.py --workload {scan,query,battery} --seed N \\
                             --seconds S --trace {0,1}

Run from the root of a checkout; edschar is imported from its src/.  Every
workload runs in child processes (worker.py), so that their peak RSS and
set-up time are their own.

--trace 0  SETUP_PAIRS pairs of children only set up (import edschar, build
           the inputs), one on the program in src/ and one on the frozen
           reference copy in perfbench/reference/.  Then one child on each
           makes the same ops, sized from S (workloads.FILL), taking turns
           every few milliseconds.  The speed-ups are the reference's times
           over the program's, op for op (workloads.speedups); peak_rss_mb is
           the program child's; setup_s is the program's set-up time at the
           host speed of baseline/ (see measure).
--trace 1  one untraced child runs the ops, then a traced child runs the same
           ops with spans recorded around each public edschar name.  Reports
           the per-layer metrics; trace.overhead_s is the traced minus the
           untraced wall time of those ops.

Prints a summary, appends the full record (environment block, every metric,
the program's own absolute figures, sample counts) to
perfbench/out/runs.jsonl, and prints as its last line one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from tracing import per_layer_names  # noqa: E402

WORKLOADS = ("scan", "query", "battery")
SETUP_PAIRS = 9  # program and reference set-ups behind each setup_s
RUN_TIMEOUT_S = 170  # every child still running after this is killed

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "speedup": "x",
    "speedup2": "x",
    "latency_speedup": "x",
}
# the program's own figures, named in the benchmark's README, kept in the record
DETAIL_UNITS = {
    "primes_per_s": "1/s",
    "primes_per_s_2w": "1/s",
    "record_p50_ms": "ms",
    "record_p95_ms": "ms",
    "parallel_efficiency": "ratio",
    "eval_p50_us": "us",
    "eval_p99_us": "us",
    "sums2_terms_per_s": "1/s",
    "sumsd_terms_per_s": "1/s",
    "exhaustive_curves_per_s": "1/s",
    "randomized_cases_per_s": "1/s",
    "sweep_s": "s",
    "setup_raw_s": "s",
    "failed_ratio": "ratio",
}


class ChildFailed(RuntimeError):
    pass


class Child:
    """One worker.py process and the lines it prints."""

    def __init__(
        self, workload, seed, mode, seconds, code="program", check=True, spans=None, cpu=None
    ):
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--mode", mode,
            "--seconds", str(seconds),
            "--code", code,
            "--check", str(int(check)),
        ]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        if cpu is not None:
            cmd += ["--cpu", str(cpu)]
        self.what = " ".join(cmd[1:])
        self.result = self.ready = None
        self.t0 = time.perf_counter()
        # one hash seed for every child, so that the program and the reference
        # lay out their dicts and sets alike
        env = {**os.environ, "PYTHONHASHSEED": "0"}
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        )

    def wait_ready(self):
        line = self._line()
        if not line.startswith("READY "):
            self.fail()
        self.setup_s = time.perf_counter() - self.t0
        self.ready = json.loads(line[len("READY "):])

    def _line(self) -> str:
        return self.proc.stdout.readline()

    def fail(self):
        self.stop()
        raise ChildFailed(f"{self.what} exited with {self.proc.returncode}")

    def advance(self) -> bool:
        """Read up to the next turn (True) or to the result (False)."""
        while True:
            line = self._line()
            if line.startswith("TURN"):
                return True
            if line.startswith("RESULT "):
                self.result = json.loads(line[len("RESULT "):])
                if self.proc.wait() != 0:
                    self.fail()
                return False
            if not line:
                self.fail()

    def go(self) -> bool:
        """Let the child run its next block of ops; False once it has finished."""
        self.proc.stdin.write("go\n")
        self.proc.stdin.flush()
        return self.advance()

    def finish(self) -> dict | None:
        """Read a child that does not take turns to its end; its result, if
        it prints one."""
        for line in self.proc.stdout:
            if line.startswith("RESULT "):
                self.result = json.loads(line[len("RESULT "):])
        if self.proc.wait() != 0:
            self.fail()
        return self.result

    def stop(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


class Run:
    """Every child of one benchmark run; all are stopped when it ends, and
    killed if the run overruns RUN_TIMEOUT_S."""

    def __init__(self):
        self.children: list[Child] = []
        self.watchdog = threading.Timer(RUN_TIMEOUT_S, self.kill)

    def __enter__(self):
        self.watchdog.start()
        return self

    def __exit__(self, *exc):
        self.watchdog.cancel()
        self.kill()
        for child in self.children:
            child.stop()

    def kill(self):
        for child in self.children:
            if child.proc.poll() is None:
                child.proc.kill()

    def start(self, *args, **kwargs) -> Child:
        child = Child(*args, **kwargs)
        self.children.append(child)
        child.wait_ready()
        return child


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def environment(seed: int, ready: dict) -> dict:
    """Where and on what code the numbers were taken."""
    cpu_model = None
    info = _read(Path("/proc/cpuinfo")) or ""
    for line in info.splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and size:
            caches[f"L{level}{'' if kind == 'Unified' else (kind or '')[:1].lower()}"] = size
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = got.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "seed": seed,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": ready.get("numpy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "platform": platform.platform(),
    }


def load_workloads():
    """The workloads module; it imports edschar, so from this checkout's src/."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    return workloads


def measure(workload: str, seed: int, seconds: float) -> dict:
    """setup_s is the workload's SETUP_S (the reference's set-up time on the
    machine of baseline/) times the median ratio of the program's set-up time
    to the reference's, each pair set up one right after the other.  A set-up
    time alone drifts with the host's speed by more than its bound from one
    set of runs to the next; the ratio does not, and work the program moves
    into set-up still shows in it."""
    wl = load_workloads()
    cls = wl.WORKLOADS[workload]
    with Run() as run:
        setups, ratios, inputs = [], [], set()
        for i in range(SETUP_PAIRS):
            probe = {}
            for code in ("program", "reference") if i % 2 == 0 else ("reference", "program"):
                probe[code] = run.start(workload, seed, "probe", seconds, code=code)
                probe[code].finish()
                inputs.add(probe[code].ready["inputs"])
            setups.append(probe["program"].setup_s)
            ratios.append(probe["program"].setup_s / probe["reference"].setup_s)
        # Both on one CPU: the host's CPUs differ in how busy their neighbours
        # keep them, and the two take turns, so they never compete for it.
        cpu = min(os.sched_getaffinity(0))
        program = run.start(workload, seed, "turns", seconds, cpu=cpu)
        reference = run.start(
            workload, seed, "turns", seconds, code="reference", check=False, cpu=cpu
        )
        pair = [program, reference]
        running = [child.advance() for child in pair]
        turn = 0
        while any(running):
            # who goes first runs A B B A A B B A ..., so that neither goes
            # first on every op of a kind when a workload alternates two kinds
            for i in (0, 1) if (turn + 1) // 2 % 2 == 0 else (1, 0):
                if running[i]:
                    running[i] = pair[i].go()
            turn += 1
    mine, ref = program.result, reference.result
    errors = list(mine["errors"])
    if len(inputs | {child.ready["inputs"] for child in pair}) != 1:
        errors.append("set-up processes built different inputs from one seed")
    metrics = wl.speedups(cls, mine["times"], ref["times"])
    metrics["setup_s"] = cls.SETUP_S * statistics.median(ratios)
    metrics["peak_rss_mb"] = mine["peak_rss_mb"]
    missing = sorted(set(END_TO_END) - set(metrics))
    if missing:
        errors.append(f"no clean op to compute {missing}")
    summary = cls.summarize(mine["times"], mine["work"])
    summary.setdefault("details", {})["setup_raw_s"] = statistics.median(setups)  # drifts
    return {
        "ready": program.ready,
        "attempted": mine["attempted"],
        "failed": mine["failed"],
        "errors": errors,
        "metrics": {name: metrics.get(name, 0.0) for name in END_TO_END},
        "units": END_TO_END,
        "details": summary["details"],
        "samples": {**summary["samples"], "setup_pairs": len(ratios)},
        "setup_samples_s": setups,
        "setup_ratios": ratios,
        "reference_details": cls.summarize(ref["times"], ref["work"]).get("details", {}),
        # whether the program's outputs still hash equal to the reference's
        "outputs_match_reference": mine["digest"] == ref["digest"],
    }


def trace(workload: str, seed: int, seconds: float) -> dict:
    wl = load_workloads()
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}-seed{seed}.tsv"
    with Run() as run:
        plain_child = run.start(workload, seed, "measure", seconds)
        plain = plain_child.finish()
        traced_child = run.start(workload, seed, "trace", seconds, check=False, spans=spans)
        traced = traced_child.finish()
    if plain is None or traced is None:
        raise ChildFailed(f"{workload}: a child printed no result")
    layers = traced["layers"]
    layers["trace.overhead_s"] = traced["traced_wall_s"] - plain["traced_wall_s"]
    summary = wl.WORKLOADS[workload].summarize(plain["times"], plain["work"])
    details = summary.get("details", {})
    if "parallel_efficiency" in details:
        layers["harness.sweep_scan.parallel_efficiency"] = details["parallel_efficiency"]
    errors = plain["errors"] + traced["errors"]
    if plain_child.ready["inputs"] != traced_child.ready["inputs"] or plain["digest"] != traced["digest"]:
        errors.append("untraced and traced runs of one seed gave different inputs or outputs")
    names = per_layer_names()
    return {
        "ready": plain_child.ready,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "errors": errors,
        "metrics": {name: layers.get(name, 0) for name, _ in names},
        "units": dict(names),
        "details": details,
        "samples": {"untraced": summary["samples"], "spans": layers["spans"]},
        "spans_file": str(spans.relative_to(ROOT)),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="edschar benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "edschar" / "__init__.py").is_file():
        print(f"error: no edschar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        run = (trace if args.trace else measure)(args.workload, args.seed, args.seconds)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = run["attempted"], run["failed"]
    correct = not run["errors"] and failed == 0 and attempted > 0
    details = {k: v for k, v in run["details"].items() if v is not None}
    details["failed_ratio"] = failed / max(attempted, 1)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "environment": environment(args.seed, run["ready"]),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "errors": run["errors"],
        "metrics": {k: {"value": v, "unit": run["units"][k]} for k, v in run["metrics"].items()},
        "details": {k: {"value": v, "unit": DETAIL_UNITS[k]} for k, v in details.items()},
        "samples": run["samples"],
    }
    for key in (
        "setup_samples_s", "setup_ratios", "spans_file", "reference_details", "outputs_match_reference"
    ):
        if key in run:
            record[key] = run[key]
    OUT.mkdir(exist_ok=True)
    with open(OUT / "runs.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    for err in run["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} trace={args.trace} correct={correct} "
          f"attempted={attempted} failed={failed} samples={json.dumps(run['samples'])}")
    if not args.trace:
        for k, v in record["metrics"].items():
            print(f"  {k:24s} {v['value']:.6g} {v['unit']}")
    for k, v in record["details"].items():
        print(f"  {k:24s} {v['value']:.6g} {v['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
