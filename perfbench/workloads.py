"""The three seeded workloads: their inputs, timed ops and output checks.

Each workload is a closed loop in one process, one op at a time.  Inputs are
made from the seed when the workload is built (that is part of set-up); ops
call edschar through its public functions, always by module attribute so that
a traced run sees them; every op's output is checked after its timer stops,
and a failed check or a raised error counts as a failed op instead of ending
the run.

A measured run makes the same ops twice, in two processes that take turns
every few milliseconds (turns.py): one on the program in src/, one on the
frozen reference copy in reference/.  ``speedups`` compares their times op
for op.  The host this was written on shares its cores with other jobs,
which slow everything by up to half, for moments or for minutes; both
processes see the same slowdown, so their ratio stays put while either time
alone wanders from run to run.  The ratio also cancels the cost differences
between seeds (how many non-cyclic curves a scan meets, how long a sums
window is).  Each workload lists the edschar names whose calls are turn
points (TURN_POINTS), besides the start of every op.

scan     for each of several program seeds, harness.sweep_scan over
         5 <= p <= 1000 with 1 worker, then over the slices of that range with
         2 workers.  Most of its time is curve.group_structure on non-cyclic
         curves, and it is the only workload that runs the process pool.
query    (b) harness.cmd_sums at a fresh prime per op, alternating quadratic
         sums with a twist (p in [5*10^4, 10^5]) and order-d sums (d = 4 or
         3, p in [10^4, 2.5*10^4]) with a twist; then (a) psi_n at random n
         in [2^61, 2^62) on four curves
         over 62-bit primes, one PsiEvaluator per curve for all its queries,
         so that the evaluator's memo grows as it would for a long-lived
         caller.  It never reaches group_structure or symbolic.
battery  one pass of six acceptance drivers at reduced ranges, sized so that
         the pass splits its time roughly as the full battery does (oracle
         equivalence first).  Thousands of tiny groups and short windows, and
         the only workload that uses symbolic.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from statistics import median

import numpy as np

from edschar import harness
from edschar.charsum import chi_window, complete_spectrum, spectrum_err_bound
from edschar.curve import EllipticCurve, Point
from edschar.eds import EdsView, PsiEvaluator, psi_window, x_only_psi
from edschar.field import field, is_probable_prime

from rng import Rng
from stats import tail
from turns import Turns

DEFAULT_SEED = 0
MAX_ERRORS = 20  # failure messages kept per run
CHECK_BLOCK = 1 << 16
# A run does a fixed amount of work for its seed and --seconds, sized to take
# this share of --seconds on the machine the sizes were measured on, so that a
# faster program does the same work in less time rather than more work.
FILL = 0.75
# The CPUs this process may use before a turn-taking worker pins itself to
# one; the 2-worker scan passes get all of them back.
ALL_CPUS = frozenset(os.sched_getaffinity(0))


class Tally:
    """Attempted and failed ops, the first failure messages, and a digest of
    every checked output (equal seeds must give equal digests)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._hash = hashlib.sha256()

    def output(self, obj) -> None:
        self._hash.update(json.dumps(obj, sort_keys=True).encode())
        self._hash.update(b"\n")

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS:
                self.errors.append(what)
        return ok

    def digest(self) -> str:
        return self._hash.hexdigest()


def timed(tracer, turns: Turns, op_id: int, fn, *args, **kwargs):
    """(result, seconds) of one op, less the time it waited for its turns;
    spans are recorded only inside it."""
    turns.point()
    if tracer is not None:
        tracer.op_id = op_id
        tracer.recording = True
    w0 = turns.waited
    t0 = time.perf_counter()
    try:
        result = fn(*args, **kwargs)
    finally:
        elapsed = time.perf_counter() - t0 - (turns.waited - w0)
        if tracer is not None:
            tracer.recording = False
    return result, elapsed


def speedups(cls, program: dict[str, float], reference: dict[str, float]) -> dict:
    """The end-to-end ratios of the reference copy's times to the program's,
    over the ops both ran cleanly: the workload's two rates and its latency
    (the median op of cls.parts' latency group, or their sum when
    cls.LATENCY_SUM)."""
    keys = sorted(set(program) & set(reference))
    mine = cls.parts({key: program[key] for key in keys})
    ref = cls.parts({key: reference[key] for key in keys})
    if not all(mine.values()):
        return {}
    agg = sum if cls.LATENCY_SUM else median
    return {
        "speedup": sum(ref["rate"]) / sum(mine["rate"]),
        "speedup2": sum(ref["rate2"]) / sum(mine["rate2"]),
        "latency_speedup": agg(ref["latency"]) / agg(mine["latency"]),
    }


def random_prime(rng: Rng, lo: int, hi: int) -> int:
    """The first prime at or above a uniform draw from [lo, hi)."""
    while True:
        n = rng.randrange(lo, hi) | 1
        while n < hi and not is_probable_prime(n):
            n += 2
        if n < hi:
            return n


def random_curve_point(rng: Rng, p: int) -> tuple[int, int, int, int]:
    """(a, b, x, y): a nonsingular curve over F_p and a point on it with y != 0."""
    fld = field(p)
    while True:
        a, b = rng.randrange(0, p), rng.randrange(0, p)
        if (4 * a**3 + 27 * b * b) % p:
            break
    while True:
        x = rng.randrange(0, p)
        rhs = (x**3 + a * x + b) % p
        if fld.chi(rhs) == 1:
            y = fld.sqrt(rhs)
            return a, b, x, (y if rng.randrange(0, 2) else p - y)


def powmod_array(values: np.ndarray, e: int, p: int) -> np.ndarray:
    """values**e mod p elementwise in int64; needs p < 2^31."""
    if p >= 1 << 31:
        raise ValueError("int64 powmod needs p < 2^31")
    result = np.ones_like(values)
    base = values % p
    while e:
        if e & 1:
            result = result * base % p
        base = base * base % p
        e >>= 1
    return result


# -- scan ----------------------------------------------------------------------------


class Scan:
    P_MIN, P_MAX = 5, 1000
    # The 2-worker passes split the range, so that each is short enough for
    # the program and the reference to take turns often.
    SLICES = ((5, 300), (301, 450), (451, 600), (601, 750), (751, 900), (901, 1000))
    MAX_SEEDS = 64
    SEED_S = 3.2  # seconds per seed's passes where the sizes were measured
    LATENCY_SUM = False
    SETUP_S = 0.19  # the reference's set-up time on the machine of baseline/
    TURN_POINTS = ("harness.scan_prime",)

    def __init__(self, seed: int):
        # Each seed's passes scan with their own program seed (sweep_scan
        # derives its per-prime curves from it), so that a run averages over
        # the curves of several seeds: how many curves are non-cyclic, and so
        # how long a pass takes, depends on the seed.
        rng = Rng(seed)
        self.scan_seeds = [rng.randrange(0, 1 << 32) for _ in range(self.MAX_SEEDS)]

    def inputs(self) -> dict:
        return {"p_min": self.P_MIN, "p_max": self.P_MAX, "slices": self.SLICES, "seeds": self.scan_seeds}

    def op(self, k: int) -> tuple[int, int, int, int]:
        """(program seed, workers, p_min, p_max) of op k: for each seed, one
        1-worker pass over the whole range, then 2-worker passes over its
        slices."""
        per_seed = 1 + len(self.SLICES)
        seed = self.scan_seeds[k // per_seed]
        i = k % per_seed
        if i == 0:
            return seed, 1, self.P_MIN, self.P_MAX
        return seed, 2, *self.SLICES[i - 1]

    def ops_for(self, seconds: float) -> int:
        """Ops each of the two processes of a run of about `seconds` makes."""
        seeds = round(seconds * FILL / (2 * self.SEED_S))
        return (1 + len(self.SLICES)) * min(self.MAX_SEEDS, max(1, seeds))

    def run(self, n_ops: int, tracer, check: bool = True, turns: Turns | None = None) -> dict:
        """Times are per record for the 1-worker passes (each scan_prime
        call) and per pass for the 2-worker ones.  The checks are cheap and
        always run."""
        turns = turns or Turns()
        with turns.at(self.TURN_POINTS):
            return self._run(n_ops, tracer, turns)

    def _run(self, n_ops: int, tracer, turns: Turns) -> dict:
        tally = Tally()
        times: dict[str, float] = {}
        work: dict[str, int] = {}
        reference: list[dict] = []
        walls = 0.0
        per_record = turns.calls["harness.scan_prime"]
        for k in range(n_ops):
            seed, threads, lo, hi = self.op(k)
            if tracer is not None and threads > 1:
                continue  # spans recorded inside pool workers would be lost
            pinned = os.sched_getaffinity(0)
            if threads > 1:
                os.sched_setaffinity(0, ALL_CPUS)
            del per_record[:]
            try:
                records, dt = timed(tracer, turns, k, harness.sweep_scan, lo, hi, seed, threads)
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, not raised
                tally.check(False, f"scan seed={seed} threads={threads} p<={hi}: {exc!r}")
                continue
            finally:
                os.sched_setaffinity(0, pinned)
            stripped = [harness.strip_ts(rec) for rec in records]
            if threads == 1:
                reference = stripped
                tally.output(stripped)
                walls += dt
                same = len(per_record) == len(records)
            else:
                same = stripped == [rec for rec in reference if lo <= rec["curve"]["p"] <= hi]
            if not tally.check(
                all(rec["payload"]["spectrum"]["trivial_gap"] >= 0 for rec in records) and same,
                f"scan seed={seed} threads={threads} p in [{lo}, {hi}]: negative trivial_gap, "
                "records differ from the 1-worker pass, or not one scan_prime call each",
            ):
                continue
            if threads == 1:
                # sweep_scan calls scan_prime in ascending order of p
                for rec, t in zip(records, per_record):
                    times[f"1w:{seed}:{rec['curve']['p']}"] = t
            else:
                times[f"2w:{seed}:{lo}"] = dt
                work[f"2w:{seed}:{lo}"] = len(records)
        return {"tally": tally, "times": times, "work": work, "traced_wall_s": walls}

    @staticmethod
    def parts(times: dict[str, float]) -> dict[str, list[float]]:
        one = [t for key, t in times.items() if key.startswith("1w:")]
        two = [t for key, t in times.items() if key.startswith("2w:")]
        return {"rate": one, "rate2": two, "latency": one}

    @staticmethod
    def summarize(times: dict[str, float], work: dict) -> dict:
        """The program's own figures (absolute, so they drift with the host)."""
        one = [t for key, t in times.items() if key.startswith("1w:")]
        two = [key for key in times if key.startswith("2w:")]
        out = {"samples": {"records_1w": len(one), "passes_2w": len(two)}}
        if one and two:
            rate1 = len(one) / sum(one)
            rate2 = sum(work[key] for key in two) / sum(times[key] for key in two)
            p50 = median(one)
            out["details"] = {
                "primes_per_s": rate1,
                "primes_per_s_2w": rate2,
                "record_p50_ms": p50 * 1e3,
                "record_p95_ms": tail(one, 0.95, 1e3),
                "parallel_efficiency": rate2 / (2 * rate1),
            }
        return out


# -- query ----------------------------------------------------------------------------


class Query:
    N_CURVES = 4
    N_EVAL = 2000  # p99 then has 20 samples beyond it
    CHECK_ONE_IN = 8  # share of evals re-derived by the x-only recurrence
    EVAL_P_BITS = 62
    SUMS_P = (50_000, 100_000)  # primes of the quadratic sums ops
    # Primes of the order-d ops: smaller, because their per-term loop cannot
    # hand over to the other process, and a 10^5-term window keeps it for
    # seconds, long enough for the host's speed to change under it.
    SUMS_D_P = (10_000, 25_000)
    MAX_SUMS = 64
    EVAL_S = 2.4  # seconds for all evals where the sizes were measured
    SUMS_PAIR_S = 0.7  # seconds per quadratic plus order-d op
    LATENCY_SUM = False
    SETUP_S = 0.25  # the reference's set-up time on the machine of baseline/
    TURN_POINTS = (
        "field.chi_table",
        "eds.EdsView",
        "eds.psi_window",
        "charsum.chi_window",
        "charsum.chi_period",
        "charsum.bias_report",
        "charsum.complete_sum",
        "charsum.order_d_sums",
    )

    def __init__(self, seed: int):
        rng = Rng(seed)
        lo, hi = 1 << (self.EVAL_P_BITS - 1), 1 << self.EVAL_P_BITS
        self.curves = []
        for _ in range(self.N_CURVES):
            p = random_prime(rng, lo, hi)
            self.curves.append((p, *random_curve_point(rng, p)))
        self.evals = [
            (
                i % self.N_CURVES,
                rng.randrange(1 << 61, 1 << 62),
                rng.randrange(0, self.CHECK_ONE_IN) == 0,
            )
            for i in range(self.N_EVAL)
        ]
        # sums ops alternate quadratic and order-d; every op gets a fresh prime, so it pays the character-table build as
        # a command-line call does
        used: set[int] = set()
        self.sums = []
        while len(self.sums) < self.MAX_SUMS:
            order_d = self.order_d(len(self.sums))
            p = random_prime(rng, *(self.SUMS_D_P if order_d else self.SUMS_P))
            if p in used:
                continue
            if not order_d:
                d = 2
            elif p % 4 == 1:
                d = 4
            elif p % 3 == 1:
                d = 3
            else:
                continue
            used.add(p)
            self.sums.append((p, *random_curve_point(rng, p), d, rng.randrange(0, 1 << 20)))

    def inputs(self) -> dict:
        return {"curves": self.curves, "evals": self.evals, "sums": self.sums}

    @staticmethod
    def order_d(j: int) -> bool:
        """Whether sums op j is an order-d one (the others are quadratic)."""
        return j % 2 == 1

    def ops_for(self, seconds: float) -> int:
        """Ops each of the two processes of a run of about `seconds` makes."""
        pairs = max(1, round((seconds * FILL / 2 - self.EVAL_S) / self.SUMS_PAIR_S))
        return self.N_EVAL + min(2 * pairs, self.MAX_SUMS)

    def schedule(self, n_ops: int) -> list[tuple[str, int]]:
        """n_ops ops in run order: the evals (all of them when n_ops allows)
        and as many sums ops as remain, the sums ops first.

        Evals run last so that the evaluators' memos grow after the sums ops
        have freed their windows: the peak RSS is then mostly the memos',
        which the seed changes little, and not the largest sums window's.
        """
        n_eval = min(n_ops, len(self.evals))
        n_sums = min(n_ops - n_eval, len(self.sums))
        return [("sums", j) for j in range(n_sums)] + [("eval", i) for i in range(n_eval)]

    def run(self, n_ops: int, tracer, check: bool = True, turns: Turns | None = None) -> dict:
        """Makes the ops, then checks their outputs once the turn points are
        gone, so that the process on the program and the one on the
        reference do the same work while they take turns.  With check=False
        only the cheap checks run."""
        turns = turns or Turns()
        with turns.at(self.TURN_POINTS):
            res = self._run(n_ops, tracer, turns)
        tally, times, work = res["tally"], res["times"], res["work"]
        for op, i, out, dt in res.pop("made"):
            if op == "eval":
                ci, n, spot = self.evals[i]
                p, a, b, x, y = self.curves[ci]
                ok = 0 <= out < p
                if check and spot:
                    f = x_only_psi(EllipticCurve(field(p), a, b), x, n)
                    ok = ok and out == (f if n % 2 else f * y % p)
                if tally.check(ok, f"eval p={p} n={n}: psi mismatch"):
                    times[f"eval:{i}"] = dt
                continue
            p, a, b, x, y, d, twist = self.sums[i]
            try:
                ok = self._check_sums(out, p, a, b, x, y, d, twist) if check else True
            except Exception:  # noqa: BLE001 - a malformed output fails its check
                ok = False
            if tally.check(ok, f"sums p={p} d={d} twist={twist}: check failed"):
                times[f"sums:{i}"] = dt
                work[f"sums:{i}"] = (d, out["R"] if d == 2 else d * out["r"])
        return res

    def _run(self, n_ops: int, tracer, turns: Turns) -> dict:
        tally = Tally()
        evaluators = [
            PsiEvaluator(EllipticCurve(field(p), a, b), Point(x, y))
            for p, a, b, x, y in self.curves
        ]
        made = []  # (op, index, output, seconds), checked by run()
        walls = 0.0
        for k, (op, i) in enumerate(self.schedule(n_ops)):
            if op == "eval":
                ci, n, _ = self.evals[i]
                fn, args, kwargs = evaluators[ci].psi, (n,), {}
            else:
                p, a, b, x, y, d, twist = self.sums[i]
                fn, args = harness.cmd_sums, (p, a, b, x, y)
                kwargs = {"twist_a": twist, "char_order": d}
            try:
                out, dt = timed(tracer, turns, k, fn, *args, **kwargs)
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, not raised
                tally.check(False, f"{op} {self.evals[i] if op == 'eval' else self.sums[i]}: {exc!r}")
                continue
            walls += dt
            tally.output(out)
            made.append((op, i, out, dt))
        return {"tally": tally, "times": {}, "work": {}, "made": made, "traced_wall_s": walls}

    @staticmethod
    def parts(times: dict[str, float]) -> dict[str, list[float]]:
        sums = {int(key[5:]): t for key, t in times.items() if key.startswith("sums:")}
        return {
            "rate": [t for j, t in sums.items() if not Query.order_d(j)],
            "rate2": [t for j, t in sums.items() if Query.order_d(j)],
            "latency": [t for key, t in times.items() if key.startswith("eval:")],
        }

    @staticmethod
    def summarize(times: dict[str, float], work: dict) -> dict:
        """The program's own figures (absolute, so they drift with the host)."""
        lat = [t for key, t in times.items() if key.startswith("eval:")]
        terms = {2: 0, "d": 0}
        busy = {2: 0.0, "d": 0.0}
        ops = {2: 0, "d": 0}
        for key, t in times.items():
            if key.startswith("sums:"):
                d, n_terms = work[key]
                kind = 2 if d == 2 else "d"
                ops[kind] += 1
                busy[kind] += t
                terms[kind] += n_terms
        out = {"samples": {"evals": len(lat), "sums2_ops": ops[2], "sumsd_ops": ops["d"]}}
        if lat and ops[2] and ops["d"]:
            out["details"] = {
                "eval_p50_us": median(lat) * 1e6,
                "eval_p99_us": tail(lat, 0.99, 1e6),
                "sums2_terms_per_s": terms[2] / busy[2],
                "sumsd_terms_per_s": terms["d"] / busy["d"],
            }
        return out

    @staticmethod
    def _check_sums(out: dict, p, a, b, x, y, d, twist) -> bool:
        """d = 2: the incomplete sum is the int64 sum of chi_window and the
        twisted complete sum matches complete_spectrum within both error
        bounds.  Order d: both sums re-derived in numpy from psi_window, with
        the character taken by projecting onto the order-d subgroup."""
        view = EdsView(EllipticCurve(field(p), a, b), Point(x, y), r=out["r"])
        r = view.r
        if d == 2:
            length = 2 * r
            cs, inc = out["complete"], out["incomplete"]
            window = chi_window(view, length)
            z = complete_spectrum(view)[twist % length]
            return (
                out["R"] == length
                and inc["n_terms"] == length
                and inc["sum"] == int(window.sum(dtype=np.int64))
                and cs["twist"] == twist % length
                and abs(z - complex(cs["re"], cs["im"])) <= cs["err_bound"] + spectrum_err_bound(length)
            )
        steps = d * r
        vals = np.array(psi_window(view, steps)[1:], dtype=np.int64)
        roots = [pow(field(p).primitive_root(), j * (p - 1) // d, p) for j in range(d)]
        inc, cs = out["incomplete"], out["complete"]
        counts = np.zeros(d, dtype=np.int64)
        re_parts, im_parts = [], []
        # in blocks, so that the check holds less memory than the op it checks
        for lo in range(0, steps, CHECK_BLOCK):
            block = vals[lo : lo + CHECK_BLOCK]
            proj = powmod_array(block, (p - 1) // d, p)
            exps = np.full(len(block), -1, dtype=np.int64)
            for j, root in enumerate(roots):
                exps[proj == root] = j
            if not np.array_equal(exps < 0, block == 0):
                return False
            head = exps[: max(0, inc["n_terms"] - lo)]
            counts += np.bincount(head[head >= 0], minlength=d)
            nz = np.flatnonzero(exps >= 0)
            n = nz + lo + 1
            phase = ((twist % steps) * n + exps[nz] * r) % steps * (2 * math.pi / steps)
            re_parts.append(math.fsum(np.cos(phase)))
            im_parts.append(math.fsum(np.sin(phase)))
        want_inc = complex(
            math.fsum(int(c) * math.cos(2 * math.pi * j / d) for j, c in enumerate(counts)),
            math.fsum(int(c) * math.sin(2 * math.pi * j / d) for j, c in enumerate(counts)),
        )
        want = complex(math.fsum(re_parts), math.fsum(im_parts))
        return (
            inc["n_terms"] == 2 * r
            and cs["window"] == steps
            and cs["twist"] == twist % steps
            and abs(want_inc - complex(inc["re"], inc["im"])) <= inc["err_bound"]
            and abs(want - complex(cs["re"], cs["im"])) <= cs["err_bound"]
        )


# -- battery --------------------------------------------------------------------------

# Counts that every pass must reproduce.  The exhaustive drivers do not depend
# on the seed; the randomized ones are pinned for DEFAULT_SEED only, and
# checked structurally for other seeds.
EXHAUSTIVE_PINS = {
    "sweep_small_fields": {
        "curves": 600,
        "views": 7704,
        "skipped_points": 1152,
        "shift_checks": 454550,
        "chi_period_r": 2831,
        "chi_period_2r": 4873,
        "period_samples": 155,
    },
    "sweep_oracle_equivalence": {"curves": 939, "values": 46950, "skipped_curves": 3},
    "sweep_weil": {"curves": 942, "spectra": 2826, "subgroup_checks": 5562, "bare_exceed": 0},
}
DEFAULT_SEED_PINS = {
    "sweep_recurrence": {"views": 300},
    "sweep_index_product": {"edge_infinity": 35, "edge_two_torsion": 10},
}


class Battery:
    REC_TUPLES = 300
    IDX_TRIALS = 300
    IDX_EDGES = 40
    ORACLE_CURVES = 4
    ORACLE_N_MAX = 2000
    PASS_S = 6.0  # seconds per pass where the sizes were measured
    LATENCY_SUM = True  # the latency is that of a whole pass
    SETUP_S = 0.21  # the reference's set-up time on the machine of baseline/
    TURN_POINTS = (
        "curve.group_structure",
        "curve.point_order",
        "eds.EdsView",
        "symbolic.division_poly_tower",
        "eds.psi_window",
        "charsum.chi_window",
    )
    EXHAUSTIVE = ("sweep_small_fields", "sweep_oracle_equivalence", "sweep_weil")
    DRIVERS = EXHAUSTIVE + ("sweep_recurrence", "sweep_index_product", "sweep_oracle_random")

    def __init__(self, seed: int):
        rng = Rng(seed)
        self.seed = seed
        calls = [
            ("sweep_recurrence", {"n_tuples": self.REC_TUPLES, "seed": rng.randrange(0, 1 << 32)}),
            ("sweep_small_fields", {"p_min": 5, "p_max": 17}),
            (
                "sweep_index_product",
                {"trials": self.IDX_TRIALS, "seed": rng.randrange(0, 1 << 32), "edge_trials": self.IDX_EDGES},
            ),
            ("sweep_oracle_equivalence", {"p_min": 5, "p_max": 19}),
            (
                "sweep_oracle_random",
                {"n_curves": self.ORACLE_CURVES, "seed": rng.randrange(0, 1 << 32), "n_max": self.ORACLE_N_MAX},
            ),
            ("sweep_weil", {"p_min": 5, "p_max": 19}),
        ]
        # (driver, kwargs, the stats counts the call must report)
        self.calls = [(driver, kwargs, self.expected(driver, kwargs)) for driver, kwargs in calls]

    def inputs(self) -> dict:
        return {"calls": self.calls}

    def expected(self, driver: str, kwargs: dict) -> dict:
        """Counts the stats of one driver call must show."""
        if driver == "sweep_recurrence":
            want = {"tuples": kwargs["n_tuples"]}
        elif driver == "sweep_index_product":
            want = {"trials": kwargs["trials"], "edge_trials": kwargs["edge_trials"]}
        elif driver == "sweep_oracle_random":
            want = {
                "curves": kwargs["n_curves"],
                "values": kwargs["n_curves"] * (kwargs["n_max"] + 16),
            }
        else:
            want = {}
        want.update(EXHAUSTIVE_PINS.get(driver, {}))
        if self.seed == DEFAULT_SEED:
            want.update(DEFAULT_SEED_PINS.get(driver, {}))
        return want

    @staticmethod
    def cases(driver: str, stats: dict) -> int:
        """Checked cases of one call: curves for the exhaustive drivers;
        tuples, trials and compared values for the randomized ones."""
        if driver in Battery.EXHAUSTIVE:
            return stats["curves"]
        if driver == "sweep_recurrence":
            return stats["tuples"]
        if driver == "sweep_index_product":
            return stats["trials"] + stats["edge_trials"]
        return stats["values"]

    def ops_for(self, seconds: float) -> int:
        """Ops each of the two processes of a run of about `seconds` makes:
        whole passes."""
        return len(self.calls) * max(1, round(seconds * FILL / (2 * self.PASS_S)))

    def run(self, n_ops: int, tracer, check: bool = True, turns: Turns | None = None) -> dict:
        """Runs n_ops driver calls, pass after pass; the checks are cheap and
        always run."""
        turns = turns or Turns()
        with turns.at(self.TURN_POINTS):
            return self._run(n_ops, tracer, turns)

    def _run(self, n_ops: int, tracer, turns: Turns) -> dict:
        tally = Tally()
        times: dict[str, float] = {}
        work: dict[str, int] = {}
        walls = 0.0
        for k in range(n_ops):
            driver, kwargs, want = self.calls[k % len(self.calls)]
            try:
                stats, dt = timed(tracer, turns, k, getattr(harness, driver), **kwargs)
            except Exception as exc:  # noqa: BLE001
                tally.check(False, f"{driver}: {exc!r}")
                continue
            walls += dt
            tally.output(stats)
            got = {key: stats.get(key) for key in want}
            if tally.check(
                stats["failures"] == [] and got == want,
                f"{driver}{kwargs}: failures {stats['failures'][:2]} or counts {got} != {want}",
            ):
                times[f"{k}:{driver}"] = dt
                work[f"{k}:{driver}"] = self.cases(driver, stats)
        return {"tally": tally, "times": times, "work": work, "traced_wall_s": walls}

    @staticmethod
    def parts(times: dict[str, float]) -> dict[str, list[float]]:
        exhaustive = [key.split(":")[1] in Battery.EXHAUSTIVE for key in times]
        values = list(times.values())
        return {
            "rate": [t for t, e in zip(values, exhaustive) if e],
            "rate2": [t for t, e in zip(values, exhaustive) if not e],
            "latency": values,
        }

    @staticmethod
    def summarize(times: dict[str, float], work: dict) -> dict:
        """The program's own figures (absolute, so they drift with the host)."""
        spent = {True: 0.0, False: 0.0}
        done = {True: 0, False: 0}
        for key, t in times.items():
            exhaustive = key.split(":")[1] in Battery.EXHAUSTIVE
            spent[exhaustive] += t
            done[exhaustive] += work[key]
        passes = len(times) / len(Battery.DRIVERS)
        out = {"samples": {"driver_calls": len(times)}}
        if spent[True] and spent[False]:
            out["details"] = {
                "exhaustive_curves_per_s": done[True] / spent[True],
                "randomized_cases_per_s": done[False] / spent[False],
                "sweep_s": (spent[True] + spent[False]) / passes,
            }
        return out


WORKLOADS = {"scan": Scan, "query": Query, "battery": Battery}
