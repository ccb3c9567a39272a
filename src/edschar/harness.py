"""Experiment drivers: reproducible sweeps, scans, and benchmarks.

Every randomized driver takes an integer seed and derives per-prime streams
with a fixed splitmix64 generator, so runs are reproducible across platforms,
Python versions, and worker counts.  The three randomized sweeps draw each
view with _draw_view: a prime, a curve and a point with y != 0, all three
drawn again when the curve has no such point.  Scan output is a list of
JSON-ready records with a fixed schema (see make_record), one per prime in
ascending order whatever the worker count, so multi-process runs are
byte-identical to single-process runs apart from the "ts" wall-clock field.
"""

from __future__ import annotations

import json
import math
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from itertools import islice

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
    is_nonsingular,
    point_order,
)
from .eds import (
    EdsView,
    PsiEvaluator,
    psi_ladder,
    psi_sequence,
    psi_window,
    psi_windows,
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
SPECTRUM_EMIT_MAX = 65_536  # sums --twist-a all: R pairs of floats in one JSON payload
FORCED_ZEROS_MAX = 1 << 21  # verify's spectrum zeros: scan's R; at 8.4e6 it took 4 s, 1.4 GiB

def random_curve(fld: PrimeField, rng: SplitMix64) -> EllipticCurve:
    p = fld.p
    while True:
        a = rng.randrange(0, p)
        b = rng.randrange(0, p)
        if is_nonsingular(p, a, b):
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


def _draw_view(rng: SplitMix64, primes: list[int]) -> EdsView:
    """A random view of the randomized sweeps: a prime from primes, a curve
    and a point with y != 0; all three are drawn again when the curve has no
    such point."""
    while True:
        view = random_view(random_curve(field(rng.choice(primes)), rng), rng)
        if view is not None:
            return view


def _where(curve: EllipticCurve) -> dict:
    """The p, a, b header of a curve in scan records and failure records."""
    return {"p": curve.p, "a": curve.a, "b": curve.b}


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
        rec["curve"] = _where(view.curve)
        rec["point"] = {"x": view.point.x, "y": view.point.y}
        rec["r"] = view.r
        rec["R"] = view.window_length
    return rec


def strip_ts(record: dict) -> dict:
    """Record with the wall-clock field removed, for determinism comparisons."""
    return {k: v for k, v in record.items() if k != "ts"}


# -- sweep: three-term recurrence ----------------------------------------------


def sweep_recurrence(n_tuples: int = 10_000, seed: int = 0) -> dict:
    """Evaluate the defining three-term quadratic recurrence residual at random
    index triples (h, i, j) drawn from [-10^6, 10^6], spanning negative
    indices and index collisions, across 500 random views with
    5 <= p <= 10^4."""
    primes = primes_in(5, 10_000)
    rng = SplitMix64(seed)
    per_view = max(1, -(-n_tuples // 500))
    stats = {"tuples": 0, "views": 0, "failures": []}
    while stats["tuples"] < n_tuples:
        view = _draw_view(rng, primes)
        stats["views"] += 1
        for _ in range(min(per_view, n_tuples - stats["tuples"])):
            h, i, j = (rng.randrange(-1_000_000, 1_000_001) for _ in range(3))
            res = recurrence_residual(view, h, i, j)
            stats["tuples"] += 1
            if res != 0:
                stats["failures"].append({**_where(view.curve), "hij": [h, i, j], "residual": res})
    return stats


# -- sweep: every curve and point over small fields ----------------------------


SHIFT_BLOCKS = 5  # the shift identity at s <= 5 (README criterion 2)
# sweep_small_fields holds at most about SMALL_FIELD_ROWS views (2.3 MiB) and
# checks them in blocks of at most SMALL_FIELD_CELLS window cells (1.5 MiB)
SMALL_FIELD_ROWS = 1 << 14
SMALL_FIELD_CELLS = 1 << 16


def _check_rows(fld: PrimeField, r: int, rows: np.ndarray, ids: np.ndarray, stats, fails):
    """The criteria 2 and 4 checks on views (a, b, x, y, r) of one point order
    r, numbered ids: a failing view gets one record in fails."""
    p = fld.p
    n = (SHIFT_BLOCKS + 1) * r + 3
    w = psi_windows(fld, *rows[:, :4].T, n)[:, 1:]  # w[:, k-1] = psi_k
    live = np.ones(len(rows), dtype=bool)

    def fail(mask, check: str, **cols) -> None:
        for j in np.flatnonzero(live & mask).tolist():
            extra = {key: int(col[j]) for key, col in cols.items()}
            label = EdsView.LABEL.format(p, *rows[j].tolist())
            fails[int(ids[j])] = {"view": label, "check": check, **extra}
        live[mask] = False

    # zeros exactly at the multiples of the point order
    k = np.arange(1, n + 1)
    fail(((w == 0) != (k % r == 0)).any(axis=1), "zero-pattern")

    # the shift constants in both forms, as EdsView computes them
    inv, psi2 = fld.inverse_table(), w[:, 1]
    b2, b1, a1, a2 = (w[:, r - 1 + d] for d in (-2, -1, 1, 2))
    mult_a = b1 * psi2 % p * inv[b2] % p
    mult_b = -b1 * mult_a % p
    post_a, post_b = a2 * inv[a1 * psi2 % p] % p, a1 * a1 % p * psi2 % p * inv[a2] % p
    if ((mult_a != post_a) | (mult_b != post_b))[live].any():
        raise AssertionError(f"shift-constant forms disagree at p = {p}, r = {r}")

    # shift blocks: psi_{sr+k} = a^(ks) b^(s^2) psi_k, via discrete logs, for
    # every s <= SHIFT_BLOCKS at once (axis 1 holds block s at s - 1)
    log_arr, pow_arr = fld.dlog_tables()
    la, lb = (log_arr[m].astype(np.int64)[:, None, None] for m in (mult_a, mult_b))
    s = np.arange(1, SHIFT_BLOCKS + 1)[:, None]
    mult = pow_arr[(la * s * k[:r] + lb * s * s) % (p - 1)]
    blocks = w[:, r : (SHIFT_BLOCKS + 1) * r].reshape(len(rows), SHIFT_BLOCKS, r)
    bad = (blocks != mult * w[:, None, :r] % p).any(axis=2)
    first = np.where(bad.any(axis=1), bad.argmax(axis=1), SHIFT_BLOCKS)
    stats["shift_checks"] += int(first[live].sum()) * r
    fail(first < SHIFT_BLOCKS, "shift", s=first + 1)

    # quadratic character window: minimal period r or 2r, 2r exactly when chi
    # of a shift constant is -1 (charsum.order_d_period at d = 2)
    chi_table = fld.chi_table()
    chi = chi_table[w]
    period_r, period_2r = ((chi[:, :-t] == chi[:, t:]).all(axis=1) for t in (r, 2 * r))
    found = np.where(period_r, r, np.where(period_2r, 2 * r, 0))
    fail(found == 0, "chi-period")
    predicted = np.where((chi_table[mult_a] < 0) | (chi_table[mult_b] < 0), 2 * r, r)
    fail(found != predicted, "chi-period-prediction", found=found, predicted=predicted)
    stats["chi_period_r"] += int((live & (found == r)).sum())
    stats["chi_period_2r"] += int((live & (found == 2 * r)).sum())

    # the period's minimality on every 50th view
    for j in np.flatnonzero(live & (ids % 50 == 0)).tolist():
        stats["period_samples"] += 1
        a, b, x, y, _ = rows[j].tolist()
        v = EdsView(EllipticCurve(fld, a, b), Point(x, y), r)
        s0 = sequence_period(v, spot_checks=20, seed=p).shift_steps
        deep = psi_window(v, s0 * r + 3)
        s = np.arange(1, s0)
        early = s[(deep[1 + s * r] == deep[1]) & (deep[2 + s * r] == deep[2])]
        if len(early):
            fails[int(ids[j])] = {"view": repr(v), "check": "period-minimality", "s": int(early[0])}


def sweep_small_fields(p_min: int = 5, p_max: int = 50) -> dict:
    """Exhaustive shift-identity and character-period check: every nonsingular
    curve over every prime in [p_min, p_max], every point with y != 0.  The
    views of a prime are checked about SMALL_FIELD_ROWS at a time, in blocks
    of one point order r; failure records come out in view order."""
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

    def check(fld: PrimeField, rows: list) -> None:
        rows = np.array(rows, dtype=np.int64).reshape(-1, 5)
        ids = stats["views"] + np.arange(len(rows))
        stats["views"] += len(rows)
        fails: dict[int, dict] = {}
        by_r = np.argsort(rows[:, 4], kind="stable")
        rs, starts = np.unique(rows[by_r, 4], return_index=True)
        for r, group in zip(rs.tolist(), np.split(by_r, starts[1:])):
            step = max(SMALL_FIELD_CELLS // ((SHIFT_BLOCKS + 1) * r + 4), 1)
            for lo in range(0, len(group), step):
                block = group[lo : lo + step]
                _check_rows(fld, r, rows[block], ids[block], stats, fails)
        stats["failures"] += [fails[i] for i in sorted(fails)]

    for p in primes_in(p_min, p_max):
        fld = field(p)
        rows: list[tuple[int, ...]] = []  # (a, b, x, y, r) in (curve, point) order
        for curve in all_curves(fld):
            stats["curves"] += 1
            for pt in enumerate_points(curve):
                if pt is None or pt.y == 0:
                    stats["skipped_points"] += 1
                else:
                    rows.append((curve.a, curve.b, pt.x, pt.y, point_order(curve, pt)))
            if len(rows) >= SMALL_FIELD_ROWS:
                check(fld, rows)
                rows = []
        check(fld, rows)
    return stats


# -- sweep: index-product identity ----------------------------------------------


def sweep_index_product(trials: int = 1000, seed: int = 0, edge_trials: int = 40) -> dict:
    """psi_{nm}(P) = psi_n([m]P) psi_m(P)^(n^2) at uniform random (view, n, m)
    with 5 <= p <= 1000 and n, m <= 1000, plus extra forced visits (counted
    separately) to the degenerate branches [m]P = O and [m]P of order 2."""
    primes = primes_in(5, 1000)
    rng = SplitMix64(seed)
    stats = {
        "trials": 0,
        "edge_trials": 0,
        "edge_infinity": 0,
        "edge_two_torsion": 0,
        "failures": [],
    }
    for k in range(trials + edge_trials):
        view = _draw_view(rng, primes)
        n = rng.randrange(1, 1001)
        if k < trials:
            m = rng.randrange(1, 1001)
        elif (k - trials) % 2 == 0 or view.r % 2:
            m = view.r * rng.randrange(1, 4)  # [m]P = O branch
        else:
            m = (view.r // 2) * (2 * rng.randrange(0, 2) + 1)  # [m]P of order 2
        q = view.curve.mul(m, view.point)
        if q is None:
            stats["edge_infinity"] += 1
        elif q.y == 0:
            stats["edge_two_torsion"] += 1
        if not verify_index_product(view, n, m):
            stats["failures"].append(
                {
                    **_where(view.curve),
                    "point": {"x": view.point.x, "y": view.point.y},
                    "n": n,
                    "m": m,
                }
            )
        stats["trials" if k < trials else "edge_trials"] += 1
    return stats


# -- sweep: oracle equivalence ---------------------------------------------------


# curves per symbolic batch: bounds a batch's tower (about 0.6 MB at p = 19,
# n_max = 50), where larger batches were barely faster
ORACLE_ROWS = 76


def sweep_oracle_equivalence(p_min: int = 5, p_max: int = 100, n_max: int = 50) -> dict:
    """Independent evaluation paths agree termwise on every curve over every
    prime in [p_min, p_max]: symbolic division polynomials (coefficient
    arithmetic, folded mod x^p - x, built for a batch of curves at once), the
    doubling-path evaluator, the halving window, and the streaming generator.
    Each prime's curves are taken ORACLE_ROWS at a time in (A, B) order."""
    stats = {"curves": 0, "values": 0, "skipped_curves": 0, "failures": []}
    for p in primes_in(p_min, p_max):
        walk = all_curves(field(p))
        while batch := list(islice(walk, ORACLE_ROWS)):
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
            tower = division_poly_batch(curves, n_max)
            sym = psi_batch(curves, [v.point for v in views], tower)[:, 1:]
            del tower  # the next batch's tower is built without this one alive
            # axis 0: symbolic, doubling, window, stream; vals[:, i, n - 1] = psi_n at views[i]
            vals = np.stack(
                [
                    sym,
                    psi_ladder(views, np.arange(1, n_max + 1)),
                    [psi_window(v, n_max)[1:] for v in views],
                    [list(psi_sequence(v, n_max)) for v in views],
                ]
            )
            for i, n in np.argwhere((vals != vals[0]).any(axis=0)).tolist():
                sym_n, dbl, win, stream = vals[:, i, n].tolist()
                stats["failures"].append(
                    {
                        **_where(views[i].curve),
                        "n": n + 1,
                        "symbolic": sym_n,
                        "doubling": dbl,
                        "window": win,
                        "stream": stream,
                    }
                )
            stats["curves"] += len(views)
            stats["values"] += n_max * len(views)
    return stats


def sweep_oracle_random(n_curves: int = 50, seed: int = 0, n_max: int = 2000) -> dict:
    """At the 9-digit primes in [999 939 937, 999 999 937]: the doubling path
    agrees with the halving window at every index n <= n_max, and both agree
    with the x-only recurrence (an independent pointwise recursion) on a
    seeded index sample."""
    primes = primes_in(999_999_937 - 60_000, 999_999_937)
    rng = SplitMix64(seed)
    stats = {"curves": 0, "values": 0, "failures": []}
    for _ in range(n_curves):
        view = _draw_view(rng, primes)
        stats["curves"] += 1
        curve, pt = view.curve, view.point
        w = psi_window(view, n_max)
        bad = np.flatnonzero(psi_ladder([view], np.arange(1, n_max + 1))[0] != w[1:])
        stats["values"] += n_max
        if len(bad):
            stats["failures"].append({**_where(curve), "n": int(bad[0]) + 1, "check": "window"})
        for _ in range(16):
            n = rng.randrange(1, n_max + 1)
            f = x_only_psi(curve, pt.x, n)
            expected = f if n % 2 else f * pt.y % curve.p
            if w[n] != expected:
                stats["failures"].append({**_where(curve), "n": n, "check": "x-only"})
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
    # <= index_max, and a (1 + k, M, L) stack of masks: all true (the full
    # group), then one subgroup mask per group
    shapes: dict[tuple[int, int], tuple[list, np.ndarray]] = {}
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
                groups = [
                    g
                    for g in charsum.small_character_subgroups(s.m, s.l, index_max)
                    if len(g) > 1
                ]
                masks = [charsum.subgroup_mask(s.m, s.l, g) for g in groups]
                shapes[s.m, s.l] = groups, np.stack([np.ones((s.m, s.l), bool), *masks])
            groups, masks = shapes[s.m, s.l]
            # chi(psi_3 psi_5) = chi(psi_3) chi(psi_5) entrywise, and the
            # infinity slot is 0 in both grids, so two grids serve all three
            g3 = charsum._chi_grid(curve, (f3,))
            g5 = charsum._chi_grid(curve, (f5,))
            # every ell set under every mask in one (3, 1 + k, M, L) ifft2;
            # spec[:, 0] are the full-group spectra
            spec = charsum._spectrum(np.stack([g3, g5, g3 * g5])[:, None] * masks)
            tops = np.abs(spec).max(axis=(-2, -1)).tolist()
            # per subgroup, the gap of each ell set's masked spectrum to the
            # average of its full spectrum over the annihilator
            gaps = [
                np.abs(spec[:, j] - charsum.averaged_spectrum(spec[:, 0], omega_h))
                .max(axis=(-2, -1))
                .tolist()
                for j, omega_h in enumerate(groups, 1)
            ]
            for i, ells in enumerate(((3,), (5,), (3, 5))):
                d = charsum.weil_degree(ells)
                bound = 2 * d * sqrt_p
                stats["spectra"] += 1
                top, *sub_tops = tops[i]
                stats["max_ratio"] = max(stats["max_ratio"], top / bound)
                if top > bound:
                    stats["bare_exceed"] += 1
                    stats["max_bare_excess"] = max(stats["max_bare_excess"], top - bound)
                failure = {**_where(curve), "ells": list(ells)}
                if top > bound + fft_err:
                    stats["failures"].append({**failure, "max": top})
                for gaps_h, sub_top in zip(gaps, sub_tops):
                    gap = gaps_h[i]
                    scale = max(1.0, sub_top)
                    stats["max_avg_gap"] = max(stats["max_avg_gap"], gap / scale)
                    stats["subgroup_checks"] += 1
                    if gap > avg_tol * scale:
                        stats["failures"].append(
                            {**failure, "check": "averaging", "gap": gap}
                        )
                    if sub_top > bound + fft_err:
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
        s = group_structure(curve)
        if s.m >= 3:
            break
    view = EdsView(curve, s.gen_m, r=s.m)
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
        # map yields in input order: one record per prime, ascending
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(_scan_worker, [(p, seed) for p in primes], chunksize=8))
    return [scan_prime(p, seed) for p in primes]


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
    d = char_order
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
    if d != 2:
        if twist_a == "all":
            raise ValueError(
                "the full spectrum is quadratic-only (char_order 2); "
                "pass a single twist index"
            )
        out["order"] = d
        out["order_d_period"] = charsum.order_d_period(view, d)
    # complete first: the incomplete sum then reads a prefix of its window
    if twist_a == "all":
        if length > SPECTRUM_EMIT_MAX:
            raise ValueError(
                f"full spectrum guarded at R <= {SPECTRUM_EMIT_MAX}; pass a single twist index"
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
        twist, window = int(twist_a), d * view.r
        if d == 2:
            cs = charsum.complete_sum(view, twist)
            scale = {"envelope_ratio": cs.modulus / charsum.complete_envelope(length, p)}
        else:
            cs = charsum.order_d_sums(view, d, "complete", twist)
            scale = {"window": window}
        out["complete"] = {
            "twist": twist % window,
            "re": cs.re, "im": cs.im, "modulus": cs.modulus, "err_bound": cs.err_bound,
            **scale,
        }
    if d == 2:
        bias = charsum.bias_report(view, n_terms)
        out["incomplete"] = {
            "n_terms": n_terms,
            "sum": bias.total,
            "envelope_ratio": abs(bias.total) / charsum.incomplete_envelope(length, p),
            "plus": bias.plus, "minus": bias.minus, "zero": bias.zero,
        }
    else:
        inc = charsum.order_d_sums(view, d, "incomplete", n_terms)
        out["incomplete"] = {
            "n_terms": n_terms, "re": inc.re, "im": inc.im, "err_bound": inc.err_bound,
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
        # the spot checks of sequence_period raise on a wrong period; chi_period
        # is r or 2r by construction, so only the prediction can fail.  With
        # chi(a) = 1 the shift identity forces T(a') = 0 wherever
        # chi(b) (-1)^a' = -1; the spectrum reads chi_period's window
        sequence_period(view, spot_checks=min(trials, 100), seed=seed)
        failed = int(charsum.chi_period(view) != charsum.order_d_period(view, 2))
        chi = curve.field.chi
        if chi(view.mult_a) == 1 and view.window_length <= FORCED_ZEROS_MAX:
            forced = charsum.complete_spectrum(view)[(1 + chi(view.mult_b)) // 2 :: 2]
            failed += bool(np.abs(forced).max() > charsum.spectrum_err_bound(view.window_length))
        return failed

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
    if not 1 <= threads <= THREADS_MAX:
        raise ValueError(f"worker count guarded at 1 <= threads <= {THREADS_MAX}")
    check_structure_range(p_max)  # before any prime is scanned
    records = sweep_scan(p_min, p_max, seed=seed, threads=threads)
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return records


# -- bench -----------------------------------------------------------------------

N62 = 1 << 62  # the index of eval_62bit and reconstruction


def _timed(fn, repeats: int = 1):
    """fn() run repeats times: its result, which every run must return again,
    and the wall time of each run in seconds, sorted."""
    times = []
    for i in range(repeats):
        t0 = time.perf_counter()
        got = fn()
        times.append(time.perf_counter() - t0)
        if i and got != result:
            raise AssertionError(f"non-deterministic result on run {i + 1} of {repeats}")
        result = got
    return result, sorted(times)


def _bench_eval_62bit(seed: int) -> dict:
    p = largest_prime_below(N62)
    rng = stream(seed, p)
    curve = random_curve(field(p), rng)
    ev = PsiEvaluator(curve, curve.random_point(rng, nonzero_y=True))
    _, times = _timed(lambda: ev.psi(N62), 5)
    res = recurrence_residual(ev, *(rng.randrange(1, 1 << 40) for _ in range(3)))
    return {
        "p": p, "n": N62, "max_ms": times[-1] * 1e3, "median_ms": times[len(times) // 2] * 1e3,
        "recurrence_residual": res,
    }


def _bench_chi_window(seed: int) -> dict:
    p, n_terms = 1_000_003, 1_000_000
    view = seeded_view(p, seed)
    window, (seconds,) = _timed(lambda: charsum.chi_window(view, n_terms))
    rng = stream(seed, n_terms)  # keyed by a composite, so no seeded view shares it
    spots = (rng.randrange(1, n_terms + 1) for _ in range(64))
    spot_ok = all(int(window[n - 1]) == view.curve.field.chi(view.psi(n)) for n in spots)
    total = int(window.sum(dtype=np.int64))
    return {"p": p, "terms": n_terms, "seconds": seconds, "sum": total, "spot_ok": spot_ok}


def _bench_order_d(seed: int) -> dict:
    # complete first, so that the incomplete sum reads a prefix of its window
    p, d = 20_021, 4
    view = seeded_view(p, seed)
    modes = (("complete", 1), ("incomplete", view.window_length))
    (comp, inc), (seconds,) = _timed(lambda: [charsum.order_d_sums(view, d, *m) for m in modes])
    return {
        "p": p, "d": d, "terms": d * view.r, "seconds": seconds,
        "complete": [comp.re, comp.im], "incomplete": [inc.re, inc.im],
    }


def _bench_group_grid(seed: int) -> dict:
    # the first cyclic and non-cyclic curve at a prime whose grids are all checked
    # (N <= p + 1 + 2 sqrt(p) < GRID_CHECK_MAX); the median of 3 builds, each fresh
    p = largest_prime_below(19_700)
    rng = stream(seed, p)
    shapes: dict[bool, EllipticCurve] = {}
    while len(shapes) < 2:
        curve = random_curve(field(p), rng)
        shapes.setdefault(group_structure(curve).l > 1, curve)
    out = {}
    for noncyclic, c in sorted(shapes.items()):
        s, times = _timed(lambda: group_structure(EllipticCurve(c.field, c.a, c.b)), 3)
        shape = {"p": p, "a": c.a, "b": c.b, "m": s.m, "l": s.l, "seconds": times[len(times) // 2]}
        out["noncyclic" if noncyclic else "cyclic"] = shape
    return out


def _bench_weil_spectra(seed: int) -> dict:
    weil, (seconds,) = _timed(lambda: sweep_weil(31, 31))
    counts = {k: weil[k] for k in ("curves", "spectra", "subgroup_checks")}
    return {"p": 31, **counts, "seconds": seconds}


def _bench_spectrum(seed: int) -> dict:
    # the FFT spectrum at R ~ 2*10^6, its window built before the clock and
    # the trace start, so both cover only the spectrum's own work
    p = 999_983
    view = seeded_view(p, seed)
    charsum.chi_window(view, view.window_length)
    tracemalloc.start()
    try:
        _, (seconds,) = _timed(lambda: charsum.complete_spectrum(view))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"p": p, "terms": view.window_length, "seconds": seconds, "peak_mib": peak / 2**20}


def _bench_reconstruction(seed: int) -> dict:
    p = largest_prime_below(1_000_000_000)
    view = seeded_view(p, seed)
    s, k = divmod(N62 - 1, view.r)  # N62 = s*r + (k + 1), with k + 1 in [1, r]
    return {"p": p, "r": view.r, "n": N62, "ok": verify_shift_identity(view, s, k + 1)}


# name -> entry(seed); each draws from streams of its own, so no entry moves another's
BENCH_ENTRIES = {
    "eval_62bit": _bench_eval_62bit,
    "chi_window": _bench_chi_window,
    "order_d": _bench_order_d,
    "group_grid": _bench_group_grid,
    "weil_spectra": _bench_weil_spectra,
    "spectrum": _bench_spectrum,
    "reconstruction": _bench_reconstruction,
}


def cmd_bench(seed: int = 0) -> dict:
    """Desk-scale timing and large-input correctness checks: every bench entry."""
    return {"seed": seed, **{name: entry(seed) for name, entry in BENCH_ENTRIES.items()}}
