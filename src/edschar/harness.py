"""Experiment drivers: reproducible sweeps, scans, and benchmarks.

Every randomized driver takes an integer seed and derives per-prime streams
with a fixed splitmix64 generator, so runs are reproducible across platforms,
Python versions, and worker counts.  Scan output is a list of JSON-ready
records with a fixed schema (see make_record); records sort by prime so
multi-process runs are byte-identical to single-process runs apart from the
"ts" wall-clock field.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import groupby

import numpy as np

from . import charsum
from .curve import (
    EllipticCurve,
    Point,
    affine_points,
    all_curves,
    check_structure_range,
    enumerate_points,
    group_structure,
    max_order_point,
)
from .eds import (
    EdsView,
    PsiEvaluator,
    psi_sequence,
    psi_window,
    recurrence_residual,
    sequence_period,
    verify_index_product,
    verify_shift_identity,
    x_only_psi,
)
from .field import PrimeField, field, is_probable_prime, primes_in
from .rng import SplitMix64, stream
from .symbolic import division_poly_batch, psi_batch

SCHEMA_VERSION = "1"
THREADS_MAX = 64  # scan worker processes; each is forked at the pool's first submit
TRIALS_MAX = 100_000  # verify trials per check: about 20 s at p = 1009

def random_curve(fld: PrimeField, rng: SplitMix64) -> EllipticCurve:
    p = fld.p
    while True:
        a = rng.randrange(0, p)
        b = rng.randrange(0, p)
        if (4 * a * a * a + 27 * b * b) % p:
            return EllipticCurve(fld, a, b)


def random_view(curve: EllipticCurve, rng: SplitMix64) -> EdsView | None:
    """A sequence view at a random point with y != 0 (hence order >= 3).

    None when the curve offers no such point (an all-2-torsion group).
    """
    pt = curve.random_point(rng, nonzero_y=True, max_tries=128)
    if pt is None:
        return None
    return EdsView(curve, pt)


def seeded_view(p: int, seed: int) -> EdsView:
    """The canonical seeded (curve, point) view at a prime; retries curves
    until one offers a usable point."""
    fld = field(p)
    rng = stream(seed, p)
    while True:
        curve = random_curve(fld, rng)
        view = random_view(curve, rng)
        if view is not None:
            return view


def largest_prime_below(n: int) -> int:
    c = n - 1
    if c % 2 == 0:
        c -= 1
    while not is_probable_prime(c):
        c -= 2
    return c


def make_record(kind: str, view: EdsView | None, payload: dict, seed: int) -> dict:
    rec = {
        "kind": kind,
        "version": SCHEMA_VERSION,
        "seed": seed,
        "ts": time.time(),
        "payload": payload,
    }
    if view is not None:
        rec["curve"] = {"p": view.curve.p, "a": view.curve.a, "b": view.curve.b}
        rec["point"] = {"x": view.point.x, "y": view.point.y}
        rec["r"] = view.r
        rec["R"] = view.window_length
    return rec


def strip_ts(record: dict) -> dict:
    """Record with the wall-clock field removed, for determinism comparisons."""
    return {k: v for k, v in record.items() if k != "ts"}


# -- sweep: three-term recurrence ----------------------------------------------


def sweep_recurrence(
    n_tuples: int = 10_000,
    seed: int = 0,
    p_lo: int = 5,
    p_hi: int = 10_000,
    views: int = 500,
    index_bound: int = 1_000_000,
) -> dict:
    """Evaluate the defining three-term quadratic recurrence residual at random
    index triples (h, i, j) drawn from [-index_bound, index_bound], spanning
    negative indices and index collisions, across random views."""
    primes = primes_in(p_lo, p_hi)
    rng = SplitMix64(seed)
    per_view = max(1, -(-n_tuples // views))
    stats = {"tuples": 0, "views": 0, "failures": []}
    while stats["tuples"] < n_tuples:
        p = rng.choice(primes)
        view = random_view(random_curve(field(p), rng), rng)
        if view is None:
            continue
        stats["views"] += 1
        for _ in range(min(per_view, n_tuples - stats["tuples"])):
            h = rng.randrange(-index_bound, index_bound + 1)
            i = rng.randrange(-index_bound, index_bound + 1)
            j = rng.randrange(-index_bound, index_bound + 1)
            res = recurrence_residual(view, h, i, j)
            stats["tuples"] += 1
            if res != 0:
                stats["failures"].append(
                    {"p": p, "a": view.curve.a, "b": view.curve.b, "hij": [h, i, j], "residual": res}
                )
    return stats


# -- sweep: every curve and point over small fields ----------------------------


def _check_view_small(view: EdsView, s_max: int, stats: dict, deep_period: bool) -> None:
    fld = view.curve.field
    p, r = fld.p, view.r
    wlen = (s_max + 1) * r + 3
    arr = psi_window(view, wlen)[1:]  # arr[k-1] = psi_k

    # zeros exactly at the multiples of the point order
    zero_idx = np.flatnonzero(arr == 0) + 1
    if not np.array_equal(zero_idx, np.arange(r, wlen + 1, r)):
        stats["failures"].append({"view": repr(view), "check": "zero-pattern"})
        return

    # shift blocks: psi_{sr+k} = a^(ks) b^(s^2) psi_k, via discrete logs, for
    # every s <= s_max at once (row s - 1 is block s)
    log_arr, pow_arr = fld.dlog_tables()
    la, lb = int(log_arr[view.mult_a]), int(log_arr[view.mult_b])
    ks = np.arange(1, r + 1, dtype=np.int64)
    ss = np.arange(1, s_max + 1, dtype=np.int64)[:, None]
    mult = pow_arr[(la * ss * ks + lb * ss * ss) % (p - 1)]
    blocks = arr[r : (s_max + 1) * r].reshape(s_max, r)
    bad = np.flatnonzero((blocks != mult * arr[:r] % p).any(axis=1))
    if len(bad):
        stats["shift_checks"] += int(bad[0]) * r
        stats["failures"].append({"view": repr(view), "check": "shift", "s": int(bad[0]) + 1})
        return
    stats["shift_checks"] += s_max * r

    # quadratic character window: minimal period is r or 2r, matching the
    # prediction from the character values of the shift constants
    chi6 = fld.chi_table()[arr]
    if np.array_equal(chi6[:-r], chi6[r:]):
        found = r
    elif np.array_equal(chi6[: -2 * r], chi6[2 * r :]):
        found = 2 * r
    else:
        stats["failures"].append({"view": repr(view), "check": "chi-period"})
        return
    predicted = charsum.order_d_period(view, 2)
    if found != predicted or (2 * r) % found != 0:
        stats["failures"].append(
            {
                "view": repr(view),
                "check": "chi-period-prediction",
                "found": found,
                "predicted": predicted,
            }
        )
        return
    stats["chi_period_r" if found == r else "chi_period_2r"] += 1

    if deep_period:
        stats["period_samples"] += 1
        sp = sequence_period(view, spot_checks=20, seed=p)
        s0 = sp.shift_steps
        deep = psi_window(view, s0 * r + 3)
        s = np.arange(1, s0)
        early = s[(deep[1 + s * r] == deep[1]) & (deep[2 + s * r] == deep[2])]
        if len(early):
            stats["failures"].append(
                {"view": repr(view), "check": "period-minimality", "s": int(early[0])}
            )
            return


def sweep_small_fields(
    p_min: int = 5, p_max: int = 50, s_max: int = 5, period_sample: int = 50
) -> dict:
    """Exhaustive shift-identity and character-period check: every nonsingular
    curve over every prime in [p_min, p_max], every point with y != 0."""
    stats = {
        "curves": 0,
        "views": 0,
        "skipped_points": 0,
        "shift_checks": 0,
        "chi_period_r": 0,
        "chi_period_2r": 0,
        "period_samples": 0,
        "failures": [],
    }
    for p in primes_in(p_min, p_max):
        for curve in all_curves(field(p)):
            stats["curves"] += 1
            for pt in enumerate_points(curve):
                if pt is None or pt.y == 0:
                    stats["skipped_points"] += 1
                    continue
                view = EdsView(curve, pt)
                _check_view_small(
                    view, s_max, stats, deep_period=stats["views"] % period_sample == 0
                )
                stats["views"] += 1
    return stats


# -- sweep: index-product identity ----------------------------------------------


def sweep_index_product(
    trials: int = 1000,
    seed: int = 0,
    p_lo: int = 5,
    p_hi: int = 1000,
    nm_max: int = 1000,
    edge_trials: int = 40,
) -> dict:
    """psi_{nm}(P) = psi_n([m]P) psi_m(P)^(n^2) at uniform random (view, n, m)
    with n, m <= nm_max, plus extra forced visits (counted separately) to the
    degenerate branches [m]P = O and [m]P of order 2."""
    primes = primes_in(p_lo, p_hi)
    rng = SplitMix64(seed)
    stats = {
        "trials": 0,
        "edge_trials": 0,
        "edge_infinity": 0,
        "edge_two_torsion": 0,
        "failures": [],
    }

    def check(view: EdsView, n: int, m: int) -> None:
        q = view.curve.mul(m, view.point)
        if q is None:
            stats["edge_infinity"] += 1
        elif q.y == 0:
            stats["edge_two_torsion"] += 1
        if not verify_index_product(view, n, m):
            stats["failures"].append(
                {
                    "p": view.curve.p,
                    "a": view.curve.a,
                    "b": view.curve.b,
                    "point": {"x": view.point.x, "y": view.point.y},
                    "n": n,
                    "m": m,
                }
            )

    while stats["trials"] < trials:
        p = rng.choice(primes)
        view = random_view(random_curve(field(p), rng), rng)
        if view is None:
            continue
        n = rng.randrange(1, nm_max + 1)
        m = rng.randrange(1, nm_max + 1)
        check(view, n, m)
        stats["trials"] += 1
    while stats["edge_trials"] < edge_trials:
        p = rng.choice(primes)
        view = random_view(random_curve(field(p), rng), rng)
        if view is None:
            continue
        n = rng.randrange(1, nm_max + 1)
        if stats["edge_trials"] % 2 == 0:
            m = view.r * rng.randrange(1, 4)  # [m]P = O branch
        elif view.r % 2 == 0:
            m = (view.r // 2) * (2 * rng.randrange(0, 2) + 1)  # [m]P of order 2
        else:
            m = view.r * rng.randrange(1, 4)
        check(view, n, m)
        stats["edge_trials"] += 1
    return stats


# -- sweep: oracle equivalence ---------------------------------------------------


# curves per symbolic batch: bounds a batch's tower (about 0.6 MB at p = 19,
# n_max = 50), where larger batches were barely faster
ORACLE_ROWS = 76


def _curve_batches(p: int):
    """all_curves over F_p in (A, B) order, cut into batches of whole A values
    of at most ORACLE_ROWS curves (one A value alone may have more)."""
    batch: list[EllipticCurve] = []
    for _, group in groupby(all_curves(field(p)), key=lambda c: c.a):
        group = list(group)
        if batch and len(batch) + len(group) > ORACLE_ROWS:
            yield batch
            batch = []
        batch += group
    if batch:
        yield batch


def sweep_oracle_equivalence(p_min: int = 5, p_max: int = 100, n_max: int = 50) -> dict:
    """Independent evaluation paths agree termwise on every curve over every
    prime in [p_min, p_max]: symbolic division polynomials (coefficient
    arithmetic, folded mod x^p - x, built for a batch of curves at once), the
    doubling-path evaluator, the halving window, and the streaming generator."""
    stats = {"curves": 0, "values": 0, "skipped_curves": 0, "failures": []}
    for p in primes_in(p_min, p_max):
        for batch in _curve_batches(p):
            views = []
            for curve in batch:
                pt = next((q for q in affine_points(curve) if q.y != 0), None)
                if pt is None:
                    stats["skipped_curves"] += 1
                else:
                    views.append(EdsView(curve, pt))
            if not views:
                continue
            curves = [v.curve for v in views]
            tower = division_poly_batch(curves, n_max, fold=True)
            sym_rows = psi_batch(curves, [v.point for v in views], tower)
            del tower  # the next batch's tower is built without this one alive
            for view, sym in zip(views, sym_rows):
                stats["curves"] += 1
                # rows: symbolic, doubling, window, stream; column n - 1 = psi_n
                vals = np.array(
                    [
                        sym[1:],
                        [view.psi(n) for n in range(1, n_max + 1)],
                        psi_window(view, n_max)[1:],
                        list(psi_sequence(view, n_max)),
                    ]
                )
                for i in np.flatnonzero((vals != vals[0]).any(axis=0)).tolist():
                    sym_n, dbl, win, stream = vals[:, i].tolist()
                    stats["failures"].append(
                        {
                            "p": p,
                            "a": view.curve.a,
                            "b": view.curve.b,
                            "n": i + 1,
                            "symbolic": sym_n,
                            "doubling": dbl,
                            "window": win,
                            "stream": stream,
                        }
                    )
                stats["values"] += n_max
    return stats


def sweep_oracle_random(
    n_curves: int = 50, seed: int = 0, n_max: int = 2000, p_hi: int = 999_999_937
) -> dict:
    """At ~9-digit primes: the doubling path agrees with the halving window at
    every index n <= n_max, and both agree with the x-only recurrence (an
    independent pointwise recursion) on a seeded index sample."""
    primes = primes_in(p_hi - 60_000, p_hi)
    rng = SplitMix64(seed)
    stats = {"curves": 0, "values": 0, "failures": []}
    while stats["curves"] < n_curves:
        p = primes[rng.randrange(0, len(primes))]
        view = random_view(random_curve(field(p), rng), rng)
        if view is None:
            continue
        stats["curves"] += 1
        curve, pt = view.curve, view.point
        w = psi_window(view, n_max)
        ladder = np.array([view.psi(n) for n in range(1, n_max + 1)], dtype=w.dtype)
        bad = np.flatnonzero(ladder != w[1:])
        stats["values"] += n_max
        if len(bad):
            stats["failures"].append(
                {"p": p, "a": curve.a, "b": curve.b, "n": int(bad[0]) + 1, "check": "window"}
            )
        for _ in range(16):
            n = rng.randrange(1, n_max + 1)
            f = x_only_psi(curve, pt.x, n)
            expected = f if n % 2 else f * pt.y % p
            if w[n] != expected:
                stats["failures"].append(
                    {"p": p, "a": curve.a, "b": curve.b, "n": n, "check": "x-only"}
                )
            stats["values"] += 1
    return stats


# -- sweep: point-sum bounds over the group -------------------------------------


def sweep_weil(
    p_min: int = 5,
    p_max: int = 100,
    index_max: int = 4,
    avg_tol: float = 1e-8,
) -> dict:
    """Brute-force |sum_P omega(P) chi(f(P))| <= 2 d sqrt(p) for
    f in {psi_3, psi_5, psi_3 psi_5}, every group character omega, every curve
    with p in [p_min, p_max]; plus every subgroup of index <= index_max via
    masked sums, checked against the same bound and against the
    annihilator-averaging identity to avg_tol relative tolerance.  index_max
    is guarded at 1..4, the subgroup orders small_character_subgroups lists.

    The bound comparison allows only the FFT rounding envelope; bare_exceed
    counts sums whose modulus tops the bound even before that allowance.
    max_ratio records the worst modulus/bound ratio seen.
    """
    if not 1 <= index_max <= charsum.SUBGROUP_ORDER_MAX:
        raise ValueError(
            f"subgroup index guarded at 1..{charsum.SUBGROUP_ORDER_MAX}, got {index_max}"
        )
    # (M, L) -> the annihilator groups of the nontrivial subgroups of index
    # <= index_max, each with its subgroup mask
    shapes: dict[tuple[int, int], list] = {}
    stats = {
        "curves": 0,
        "spectra": 0,
        "subgroup_checks": 0,
        "bare_exceed": 0,
        "max_bare_excess": 0.0,
        "max_ratio": 0.0,
        "max_avg_gap": 0.0,
        "failures": [],
    }
    for p in primes_in(p_min, p_max):
        sqrt_p = math.sqrt(p)
        # psi_3 and psi_5 of every curve of the prime from one batched tower;
        # the loop makes its curves afresh, so that no curve keeps its group
        # grid past its own turn
        tower = division_poly_batch(list(all_curves(field(p))), 5)
        for curve, f3, f5 in zip(all_curves(field(p)), tower[3][1], tower[5][1]):
            stats["curves"] += 1
            # group_structure builds and caches the group grid, which
            # _chi_grid reads, so each curve's group is walked once
            s = group_structure(curve)
            fft_err = charsum.spectrum_err_bound(s.size)
            if (s.m, s.l) not in shapes:
                shapes[s.m, s.l] = [
                    (g, charsum.subgroup_mask(s.m, s.l, g))
                    for g in charsum.small_character_subgroups(s.m, s.l, index_max)
                    if len(g) > 1
                ]
            # chi(psi_3 psi_5) = chi(psi_3) chi(psi_5) entrywise, and the
            # infinity slot is 0 in both grids, so two grids serve all three
            g3 = charsum._chi_grid(curve, (f3,))
            g5 = charsum._chi_grid(curve, (f5,))
            for ells, grid in (((3,), g3), ((5,), g5), ((3, 5), g3 * g5)):
                d = charsum.weil_degree(ells)
                bound = 2 * d * sqrt_p
                spec = charsum._spectrum(grid)
                mods = np.abs(spec)
                stats["spectra"] += 1
                top = float(mods.max())
                stats["max_ratio"] = max(stats["max_ratio"], top / bound)
                if top > bound:
                    stats["bare_exceed"] += 1
                    stats["max_bare_excess"] = max(stats["max_bare_excess"], top - bound)
                failure = {"p": p, "a": curve.a, "b": curve.b, "ells": list(ells)}
                if top > bound + fft_err:
                    stats["failures"].append({**failure, "max": top})
                for omega_h, mask in shapes[s.m, s.l]:
                    sub = charsum._spectrum(grid * mask)
                    avg = charsum.averaged_spectrum(spec, omega_h)
                    gap = float(np.abs(sub - avg).max())
                    scale = max(1.0, float(np.abs(sub).max()))
                    stats["max_avg_gap"] = max(stats["max_avg_gap"], gap / scale)
                    stats["subgroup_checks"] += 1
                    if gap > avg_tol * scale:
                        stats["failures"].append(
                            {**failure, "check": "averaging", "gap": gap}
                        )
                    if float(np.abs(sub).max()) > bound + fft_err:
                        stats["failures"].append({**failure, "check": "subgroup-bound"})
    return stats


# -- scans -----------------------------------------------------------------------


def scan_prime(p: int, seed: int = 0) -> dict:
    """One seeded record at a prime: a random curve, its first maximal-order
    point in (x, y)-lex order, character stats, and the twisted spectrum."""
    fld = field(p)
    rng = stream(seed, p)
    while True:
        curve = random_curve(fld, rng)
        pt, exponent = max_order_point(curve)
        if exponent >= 3:
            break
    view = EdsView(curve, pt, r=exponent)
    r = view.r
    length = view.window_length
    bias = charsum.bias_report(view, length)
    spec = charsum.complete_spectrum(view)
    mods = np.abs(spec)
    argmax = int(mods.argmax())
    max_mod = float(mods[argmax])
    err = charsum.spectrum_err_bound(length)
    period = charsum.chi_period(view)
    sp = sequence_period(view, spot_checks=8, seed=seed)
    envelope = charsum.complete_envelope(length, p)
    payload = {
        "s0": sp.shift_steps,
        "period": sp.total,
        "chi_period": period,
        "chi_period_divides": (2 * r) % period == 0,
        "bias": {
            "plus": bias.plus,
            "minus": bias.minus,
            "zero": bias.zero,
            "total": bias.total,
        },
        "spectrum": {
            "max_modulus": max_mod,
            "argmax": argmax,
            "err_bound": err,
            "trivial_gap": (length - 2) + err - max_mod,
            "envelope": envelope,
            "envelope_ratio": max_mod / envelope,
        },
        "trivial_regime": r * r < p,
    }
    return make_record("scan", view, payload, seed)


def _scan_worker(args: tuple[int, int]) -> dict:
    return scan_prime(args[0], args[1])


def sweep_scan(p_min: int, p_max: int, seed: int = 0, threads: int = 1) -> list[dict]:
    primes = primes_in(p_min, p_max)
    # the fork start method launches every worker at the first submit, so
    # the pool is never larger than the number of primes
    threads = min(threads, len(primes))
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(_scan_worker, [(p, seed) for p in primes], chunksize=8))
    else:
        records = [scan_prime(p, seed) for p in primes]
    records.sort(
        key=lambda rec: (
            rec["curve"]["p"],
            rec["curve"]["a"],
            rec["curve"]["b"],
            rec["point"]["x"],
            rec["point"]["y"],
        )
    )
    return records


# -- command implementations ------------------------------------------------------


def _curve_point(
    p: int, a: int, b: int, px: int, py: int
) -> tuple[EllipticCurve, Point, dict]:
    """The curve and point of a command, and its payload header: p, a and b
    as passed, the point reduced mod p."""
    curve = EllipticCurve(p, a, b)
    pt = Point(px % p, py % p)
    return curve, pt, {"p": p, "a": a, "b": b, "point": {"x": pt.x, "y": pt.y}}


def cmd_eval(p: int, a: int, b: int, px: int, py: int, n: int) -> dict:
    # a bare evaluator: an EdsView would need the point order (guarded at p <= 10^9)
    curve, pt, header = _curve_point(p, a, b, px, py)
    value = PsiEvaluator(curve, pt).psi(n)
    return {**header, "n": n, "psi": value, "chi": curve.field.chi(value)}


def cmd_sums(
    p: int,
    a: int,
    b: int,
    px: int,
    py: int,
    cap_n: int | None = None,
    twist_a: int | str | None = None,
    char_order: int = 2,
) -> dict:
    curve, pt, header = _curve_point(p, a, b, px, py)
    view = EdsView(curve, pt)
    length = view.window_length
    n_terms = cap_n if cap_n is not None else length
    out: dict = {
        **header,
        "r": view.r,
        "R": length,
        # the period the shift constants predict; criterion 4 checks it equals
        # the measured minimal period, and it needs no 2r-term window
        "chi_period": charsum.order_d_period(view, 2),
    }
    if char_order == 2:
        if n_terms:
            bias = charsum.bias_report(view, n_terms)
            total = bias.total
            counts = {"plus": bias.plus, "minus": bias.minus, "zero": bias.zero}
        else:
            total = 0
            counts = {"plus": 0, "minus": 0, "zero": 0}
        out["incomplete"] = {
            "n_terms": n_terms,
            "sum": total,
            "envelope_ratio": abs(total) / charsum.incomplete_envelope(length, p),
            **counts,
        }
        if twist_a == "all":
            if length > 65536:
                raise ValueError(
                    "R too large to emit the full spectrum; pass a single twist index"
                )
            spec = charsum.complete_spectrum(view)
            mods = np.abs(spec)
            out["complete"] = {
                "err_bound": charsum.spectrum_err_bound(length),
                "max_modulus": float(mods.max()),
                "argmax": int(mods.argmax()),
                "sums": [[float(z.real), float(z.imag)] for z in spec],
            }
        elif twist_a is not None:
            cs = charsum.complete_sum(view, int(twist_a))
            out["complete"] = {
                "twist": int(twist_a) % length,
                "re": cs.re,
                "im": cs.im,
                "modulus": cs.modulus,
                "err_bound": cs.err_bound,
                "envelope_ratio": cs.modulus / charsum.complete_envelope(length, p),
            }
    else:
        if twist_a == "all":
            raise ValueError(
                "the full spectrum is quadratic-only (char_order 2); "
                "pass a single twist index"
            )
        d = char_order
        window = d * view.r
        out["order"] = d
        out["order_d_period"] = charsum.order_d_period(view, d)
        complete = twist_a is not None and twist_a != "all"
        if complete:
            # first: the incomplete sum then reads a prefix of its exponents
            cs = charsum.order_d_sums(view, d, "complete", int(twist_a))
        if n_terms:
            inc = charsum.order_d_sums(view, d, "incomplete", n_terms)
        else:
            inc = charsum.ComplexSum(0.0, 0.0, 0.0)
        out["incomplete"] = {
            "n_terms": n_terms,
            "re": inc.re,
            "im": inc.im,
            "err_bound": inc.err_bound,
        }
        if complete:
            out["complete"] = {
                "twist": int(twist_a) % window,
                "window": window,
                "re": cs.re,
                "im": cs.im,
                "modulus": cs.modulus,
                "err_bound": cs.err_bound,
            }
    return out


def cmd_verify(
    p: int,
    a: int,
    b: int,
    px: int,
    py: int,
    identity: str = "all",
    seed: int = 0,
    trials: int = 200,
    ells: tuple[int, ...] = (3,),
) -> dict:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > TRIALS_MAX:
        raise ValueError(f"trial count guarded at trials <= {TRIALS_MAX}")
    curve, pt, header = _curve_point(p, a, b, px, py)
    view = EdsView(curve, pt)
    rng = stream(seed, p)
    checks: list[dict] = []

    def run(name: str, fn) -> None:
        if identity not in ("all", name):
            return
        try:
            failed = fn()
        except ValueError as exc:
            if "guard" not in str(exc):
                raise
            # a scale guard skips this check only; the others still run
            checks.append({"identity": name, "status": "skipped", "reason": str(exc)})
            return
        status = "ok" if failed == 0 else "fail"
        checks.append({"identity": name, "status": status, "trials": trials, "failures": failed})

    def chk_recurrence() -> int:
        span = 3 * view.r
        return sum(
            recurrence_residual(
                view,
                rng.randrange(-span, span + 1),
                rng.randrange(-span, span + 1),
                rng.randrange(-span, span + 1),
            )
            != 0
            for _ in range(trials)
        )

    def chk_shift() -> int:
        failed = 0
        for _ in range(trials):
            s = rng.randrange(0, 6)
            k = rng.randrange(1, 2 * view.r + 1)
            failed += not verify_shift_identity(view, s, k)
        return failed

    def chk_index_product() -> int:
        failed = 0
        for i in range(trials):
            n = rng.randrange(1, 31)
            m = view.r * rng.randrange(1, 4) if i % 8 == 7 else rng.randrange(1, 31)
            failed += not verify_index_product(view, n, m)
        return failed

    def chk_period() -> int:
        sp = sequence_period(view, spot_checks=min(trials, 100), seed=seed)
        period = charsum.chi_period(view)
        ok = (
            (2 * view.r) % period == 0
            and period == charsum.order_d_period(view, 2)
            and sp.total % view.r == 0
        )
        return 0 if ok else 1

    def chk_weil() -> int:
        failed = 0
        rep = charsum.weil_sum_check(view.curve, ells)
        failed += rep.sum_modulus > rep.bound + rep.err_bound
        rep_sub = charsum.weil_sum_check(
            view.curve, ells, omega=(1, 0), subgroup=view.point
        )
        failed += rep_sub.sum_modulus > rep_sub.bound + rep_sub.err_bound
        if rep_sub.averaging_gap is not None:
            failed += rep_sub.averaging_gap > 1e-8 * max(1.0, rep_sub.sum_modulus)
        return int(failed)

    run("recurrence", chk_recurrence)
    run("shift", chk_shift)
    run("index-product", chk_index_product)
    run("period", chk_period)
    run("weil", chk_weil)
    if not checks:
        raise ValueError(
            f"unknown identity {identity!r}; pick from recurrence, shift, "
            "index-product, period, weil, all"
        )
    if all(c["status"] == "skipped" for c in checks):
        raise ValueError("; ".join(f"{c['identity']}: {c['reason']}" for c in checks))
    ok = all(c["status"] != "fail" for c in checks)
    return {**header, "r": view.r, "identity": identity, "ok": ok, "checks": checks}


def cmd_scan(
    p_min: int,
    p_max: int,
    seed: int = 0,
    threads: int = 1,
    out: str | None = None,
) -> list[dict]:
    if p_min < 5 or p_max < p_min:
        raise ValueError("need 5 <= p_min <= p_max")
    if threads > THREADS_MAX:
        raise ValueError(f"worker count guarded at threads <= {THREADS_MAX}")
    check_structure_range(p_max)  # before any prime is scanned
    records = sweep_scan(p_min, p_max, seed=seed, threads=threads)
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return records


def cmd_bench(seed: int = 0) -> dict:
    """Desk-scale timing and large-input correctness checks."""
    out: dict = {"seed": seed}

    # single-value evaluation at n = 2^62 near the modulus cap
    p62 = largest_prime_below(1 << 62)
    fld = field(p62)
    rng = stream(seed, p62)
    curve = random_curve(fld, rng)
    pt = curve.random_point(rng, nonzero_y=True)
    n62 = 1 << 62
    times = []
    value62 = None
    for _ in range(5):
        ev = PsiEvaluator(curve, pt)
        t0 = time.perf_counter()
        got = ev.psi(n62)
        times.append(time.perf_counter() - t0)
        if value62 is None:
            value62 = got
        elif got != value62:
            raise AssertionError("non-deterministic evaluation at n = 2^62")
    ev = PsiEvaluator(curve, pt)
    res = recurrence_residual(
        ev,
        rng.randrange(1, 1 << 40),
        rng.randrange(1, 1 << 40),
        rng.randrange(1, 1 << 40),
    )
    out["eval_62bit"] = {
        "p": p62,
        "n": n62,
        "max_ms": max(times) * 1e3,
        "median_ms": sorted(times)[len(times) // 2] * 1e3,
        "recurrence_residual": res,
    }

    # character window throughput at a tabulated prime, spot-checked against
    # the random-access path
    p_chi = 1_000_003
    view = seeded_view(p_chi, seed)
    n_terms = 1_000_000
    t0 = time.perf_counter()
    window = charsum.chi_window(view, n_terms)
    chi_s = time.perf_counter() - t0
    spot_ok = all(
        int(window[n - 1]) == view.curve.field.chi(view.psi(n))
        for n in (rng.randrange(1, n_terms + 1) for _ in range(64))
    )
    out["chi_window"] = {
        "p": p_chi,
        "terms": n_terms,
        "seconds": chi_s,
        "sum": int(window.sum(dtype=np.int64)),
        "spot_ok": spot_ok,
    }

    # order-d sums (d = 4) over the d*r exponent window at a prime near 2*10^4,
    # complete first so that the incomplete sum reads a prefix of its window
    p_d, d = 20_021, 4
    view_d = seeded_view(p_d, seed)
    t0 = time.perf_counter()
    comp = charsum.order_d_sums(view_d, d, "complete", 1)
    inc = charsum.order_d_sums(view_d, d, "incomplete", view_d.window_length)
    out["order_d"] = {
        "p": p_d,
        "d": d,
        "terms": d * view_d.r,
        "seconds": time.perf_counter() - t0,
        "complete": [comp.re, comp.im],
        "incomplete": [inc.re, inc.im],
    }

    # shift-identity reconstruction of the same huge index at a 9-digit prime
    p9 = largest_prime_below(1_000_000_000)
    view9 = seeded_view(p9, seed)
    s, k = divmod(n62 - 1, view9.r)  # n62 = s*r + (k + 1), with k + 1 in [1, r]
    out["reconstruction"] = {
        "p": p9,
        "r": view9.r,
        "n": n62,
        "ok": verify_shift_identity(view9, s, k + 1),
    }
    return out
