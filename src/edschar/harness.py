"""Experiment drivers: reproducible sweeps, scans, and benchmarks.

Every randomized driver takes an integer seed and derives per-prime streams
with a fixed splitmix64 generator, so runs are reproducible across platforms,
Python versions, and worker counts.  The three randomized sweeps draw each
view with _draw_view: a prime, a curve and a point with y != 0, all three
drawn again when the curve has no such point.  sweep_recurrence and
sweep_index_product (and verify's recurrence, shift and index-product
checks) draw a block of views and indices first, then take every psi value
of the block from one psi_ladder call over views of many primes, at most
LADDER_LANES lanes, and compare over arrays; evaluation takes no random
numbers, so the draws are those of checking each trial as it is drawn.  Scan output is a list of
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
    group_grid,
    group_structure,
    is_nonsingular,
)
from .eds import (
    EdsView,
    PsiEvaluator,
    _psi3_f4,
    least_shift,
    psi_ladder,
    psi_sequence,
    psi_window,
    psi_windows,
    recurrence_residual,
    recurrence_residuals,
    sequence_period,
    verify_index_products,
    verify_shift_identities,
    verify_shift_identity,
    x_only_psi,
)
from .field import PrimeField, field, is_probable_prime, primes_in
from .rng import SplitMix64, stream
from .symbolic import division_poly_batch, horner, psi_batch

SCHEMA_VERSION = "1"
THREADS_MAX = 64  # scan worker processes; each is forked at the pool's first submit
TRIALS_MAX = 100_000  # verify trials per check: about 7 s for all five at p = 1009
SPECTRUM_EMIT_MAX = 65_536  # sums --twist-a all: R pairs of floats in one JSON payload
FORCED_ZEROS_MAX = 1 << 21  # verify's spectrum zeros: scan's R; at 8.4e6 it took 4 s, 1.4 GiB
AVERAGING_RTOL = 1e-8  # the annihilator-averaging identity, sweep_weil's and verify's
# psi values per ladder call in the randomized drivers and verify's recurrence
# and index-product checks: about 2.5 MiB traced at verify's 10^5 trials, and
# 2^13 to 2^15 lanes were no faster
LADDER_LANES = 1 << 12

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


def make_record(view: EdsView, payload: dict, seed: int) -> dict:
    """A scan record: the view's curve, point, r and R around the payload."""
    return {
        "kind": "scan",
        "version": SCHEMA_VERSION,
        "seed": seed,
        "ts": time.time(),
        "payload": payload,
        "curve": _where(view.curve),
        "point": {"x": view.point.x, "y": view.point.y},
        "r": view.r,
        "R": view.window_length,
    }


def strip_ts(record: dict) -> dict:
    """Record with the wall-clock field removed, for determinism comparisons."""
    return {k: v for k, v in record.items() if k != "ts"}


# -- sweep: three-term recurrence ----------------------------------------------


def _recurrence_failures(rows: list) -> list[tuple]:
    """(view, [h, i, j], residual) at each nonzero residual of rows of
    (view, triples), in row order, from one recurrence_residuals call; short
    rows are padded with (0, 0, 0), whose residual is 0."""
    width = max(len(triples) for _, triples in rows)
    hij = np.zeros((3, len(rows), width), dtype=np.int64)
    for k, (_, triples) in enumerate(rows):
        hij[:, k, : len(triples)] = np.array(triples, dtype=np.int64).T
    res = recurrence_residuals([view for view, _ in rows], *hij)
    return [
        (rows[k][0], hij[:, k, c].tolist(), int(res[k, c]))
        for k, c in np.argwhere(res != 0).tolist()
    ]


def sweep_recurrence(n_tuples: int = 10_000, seed: int = 0) -> dict:
    """Evaluate the defining three-term quadratic recurrence residual at random
    index triples (h, i, j) drawn from [-10^6, 10^6], spanning negative
    indices and index collisions, across 500 random views with
    5 <= p <= 10^4.  A view's triples make ladder rows of at most
    LADDER_LANES // 9 triples, and rows are checked LADDER_LANES lanes at a
    time."""
    if n_tuples < 0:
        raise ValueError(f"n_tuples must be >= 0, got {n_tuples}")
    primes = primes_in(5, 10_000)
    rng = SplitMix64(seed)
    per_view = max(1, -(-n_tuples // 500))
    width = min(per_view, LADDER_LANES // 9)  # triples per row
    stats = {"tuples": 0, "views": 0, "failures": []}

    def rows():  # (view, triples), drawn one view at a time
        while stats["tuples"] < n_tuples:
            view = _draw_view(rng, primes)
            stats["views"] += 1
            count = min(per_view, n_tuples - stats["tuples"])
            triples = [[rng.randrange(-1_000_000, 1_000_001) for _ in range(3)] for _ in range(count)]
            stats["tuples"] += count
            yield from ((view, triples[lo : lo + width]) for lo in range(0, count, width))

    drawn = rows()
    while block := list(islice(drawn, LADDER_LANES // (9 * width))):
        for view, hij, res in _recurrence_failures(block):
            stats["failures"].append({**_where(view.curve), "hij": hij, "residual": res})
    return stats


# -- sweep: every curve and point over small fields ----------------------------


SHIFT_BLOCKS = 5  # the shift identity at s <= 5 (README criterion 2)
# sweep_small_fields holds at most about SMALL_FIELD_ROWS views (0.6 MiB) and
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
    fail((mult_a != post_a) | (mult_b != post_b), "shift-constants")

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

    # the period T = s0 r and its minimality on every 50th view, on a row out
    # to 4T: psi_{n+T} = psi_n at n <= 3T covers sequence_period's spot checks
    periodic, early_s = np.ones(len(rows), dtype=bool), np.zeros(len(rows), dtype=np.int64)
    for j in np.flatnonzero(live & (ids % 50 == 0)).tolist():
        stats["period_samples"] += 1
        s0 = least_shift(fld.element_order(int(mult_a[j])), fld.element_order(int(mult_b[j])))
        deep = psi_windows(fld, *rows[j : j + 1, :4].T, 4 * s0 * r)[0]
        periodic[j] = (deep[1 : 3 * s0 * r + 1] == deep[s0 * r + 1 :]).all()
        s = np.arange(1, s0)
        early = s[(deep[1 + s * r] == deep[1]) & (deep[2 + s * r] == deep[2])]
        early_s[j] = early[0] if len(early) else 0
    fail(~periodic, "period")
    fail(early_s > 0, "period-minimality", s=early_s)


def sweep_small_fields(p_min: int = 5, p_max: int = 50) -> dict:
    """Exhaustive shift-identity and character-period check: every nonsingular
    curve over every prime in [p_min, p_max], every point with y != 0: the
    cells of the curve's checked group grid, in (x, y) order.  A prime's views
    are checked about SMALL_FIELD_ROWS at a time, in blocks of one point order
    r; failure records come out in view order."""
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
        rows = np.concatenate(rows)
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
        rows: list[np.ndarray] = []  # (a, b, x, y, r) in (curve, point) order
        held = 0
        for curve in all_curves(fld):
            stats["curves"] += 1
            s, xs, ys = group_grid(curve)
            # cell (i, j) is i gen_m + j gen_l; infinity is stored as y = -1
            i, j = np.indices((s.m, s.l))
            orders = np.lcm(s.m // np.gcd(i, s.m), s.l // np.gcd(j, s.l))
            cells = ys > 0
            at = np.lexsort((ys[cells], xs[cells]))
            stats["skipped_points"] += s.size - len(at)
            ab = [np.full(len(at), curve.a), np.full(len(at), curve.b)]
            rows.append(np.stack(ab + [c[cells][at] for c in (xs, ys, orders)], axis=1))
            held += len(at)
            if held >= SMALL_FIELD_ROWS:
                check(fld, rows)
                rows, held = [], 0
        if rows:
            check(fld, rows)
    return stats


# -- sweep: index-product identity ----------------------------------------------


def sweep_index_product(trials: int = 1000, seed: int = 0, edge_trials: int = 40) -> dict:
    """psi_{nm}(P) = psi_n([m]P) psi_m(P)^(n^2) at uniform random (view, n, m)
    with 5 <= p <= 1000 and n, m <= 1000, plus extra forced visits (counted
    separately) to the degenerate branches [m]P = O and [m]P of order 2.
    Trials are checked LADDER_LANES // 4 at a time (at most four ladder
    lanes each)."""
    if trials < 0 or edge_trials < 0:
        raise ValueError(f"trials and edge_trials must be >= 0, got {trials} and {edge_trials}")
    primes = primes_in(5, 1000)
    rng = SplitMix64(seed)
    stats = {
        "trials": 0,
        "edge_trials": 0,
        "edge_infinity": 0,
        "edge_two_torsion": 0,
        "failures": [],
    }

    def draws():  # (view, n, m), one trial at a time
        for k in range(trials + edge_trials):
            view = _draw_view(rng, primes)
            n = rng.randrange(1, 1001)
            if k < trials:
                m = rng.randrange(1, 1001)
            elif (k - trials) % 2 == 0 or view.r % 2:
                m = view.r * rng.randrange(1, 4)  # [m]P = O branch
            else:
                m = (view.r // 2) * (2 * rng.randrange(0, 2) + 1)  # [m]P of order 2
            stats["trials" if k < trials else "edge_trials"] += 1
            yield view, n, m

    drawn = draws()
    while block := list(islice(drawn, LADDER_LANES // 4)):
        holds, mults = verify_index_products(*zip(*block))
        for (view, n, m), ok, q in zip(block, holds.tolist(), mults):
            if q is None:
                stats["edge_infinity"] += 1
            elif q.y == 0:
                stats["edge_two_torsion"] += 1
            if not ok:
                stats["failures"].append(
                    {
                        **_where(view.curve),
                        "point": {"x": view.point.x, "y": view.point.y},
                        "n": n,
                        "m": m,
                    }
                )
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
    if n_curves < 0 or n_max < 1:
        raise ValueError(f"need n_curves >= 0 and n_max >= 1, got {n_curves} and {n_max}")
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


WEIL_ELL_SETS = ((3,), (5,), (3, 5))


def _weil_anchors(
    fld: PrimeField, curves: list, f3: np.ndarray, f5: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Criterion 6's exact anchors for a run of curves of one prime, f3 and
    f5 their tower rows (curves, D).  Per curve: whether both rows agree at
    every x in F_p with the closed forms psi_3 and f_5 = 8 C^2 f_4 - f_3^3
    (C = x^3 + Ax + B, f_4 = psi_4 / y); and, per ell set of WEIL_ELL_SETS,
    the exact trivial-character sum sum_x (1 + chi(C(x))) chi(f(x)) over the
    closed forms, each x counted once per point above it.  Neither reads a
    grid or a spectrum."""
    p = fld.p
    a = np.array([c.a for c in curves], dtype=np.int64)[:, None]
    b = np.array([c.b for c in curves], dtype=np.int64)[:, None]
    x = np.arange(p, dtype=np.int64)
    psi3, f4 = _psi3_f4(p, a, b, x)
    rhs = (x * x % p * x + a * x + b) % p
    psi5 = (8 * (rhs * rhs % p) % p * f4 - psi3 * psi3 % p * psi3) % p
    tower_ok = (horner(f3[:, None, :], x, p) == psi3).all(1)
    tower_ok &= (horner(f5[:, None, :], x, p) == psi5).all(1)
    chi = fld.chi_table()
    points = 1 + chi[rhs].astype(np.int64)
    c3, c5 = chi[psi3], chi[psi5]
    trivial = np.stack([points * c3, points * c5, points * (c3 * c5)], 1).sum(-1)
    return tower_ok, trivial


# Spectrum cells (curves x 3 ell sets x (1 + k) masks x M x L, complex128)
# per chunk of one prime's curves in sweep_weil.  Every shape of a chunk is
# one stack, so larger chunks stack more curves per shape: with structures
# built beforehand, sweep_weil(97, 97) took 1.4 s at 2^17, 1.1 s at 2^18 and
# 0.9 s at 2^20, against 2.1 s one curve at a time.  Traced with its tower
# built beforehand, it added 2.5, 3.1 and 11.5 MiB to what the tower holds;
# the tower's own peak is 9.2 MiB.
WEIL_CELLS = 1 << 18


def _weil_chunks(fld: PrimeField, shapes: dict):
    """A prime's curves, made afresh in (A, B) order, each as (n, curve,
    structure) with n its place in that order, in runs of at most WEIL_CELLS
    spectrum cells (a lone curve past it is a run of its own); shapes gains
    each new (M, L)'s annihilator groups and its (1 + k, M, L) stack of
    masks, all true (the full group) first."""
    chunk, cells = [], 0
    for n, curve in enumerate(all_curves(fld)):
        s = group_structure(curve)
        if (s.m, s.l) not in shapes:
            groups = [g for g in charsum.small_character_subgroups(s.m, s.l) if len(g) > 1]
            masks = [charsum.subgroup_mask(s.m, s.l, g) for g in groups]
            shapes[s.m, s.l] = groups, np.stack([np.ones((s.m, s.l), bool), *masks])
        size = 3 * len(shapes[s.m, s.l][1]) * s.size
        if chunk and cells + size > WEIL_CELLS:
            yield chunk
            chunk, cells = [], 0
        chunk.append((n, curve, s))
        cells += size
    if chunk:
        yield chunk


def _weil_shape(
    fld: PrimeField, curves: list, f3: np.ndarray, f5: np.ndarray, groups: list, masks: np.ndarray
):
    """Criterion 6's sums for curves of one prime and one shape (M, L), f3
    and f5 their tower rows (curves, D).  The chi grids of f_3, f_5 and
    f_3 f_5 under every mask are one (curves, 3, 1 + k, M, L) ifft2, and
    each annihilator group of groups is one averaged_spectrum gather.
    Returns the top moduli (curves, 3, 1 + k), the averaging gaps
    (curves, 3, k) and the full-group trivial entries (curves, 3)."""
    xs = np.stack([group_grid(curve)[1] for curve in curves])
    g3, g5 = charsum._chi_grids(fld, xs, f3), charsum._chi_grids(fld, xs, f5)
    # chi(psi_3 psi_5) = chi(psi_3) chi(psi_5) entrywise, and the infinity
    # slot is 0 in both grids, so two grids serve all three
    spec = charsum._spectrum(np.stack([g3, g5, g3 * g5], 1)[:, :, None] * masks)
    tops = np.abs(spec).max(axis=(-2, -1))
    # per subgroup, the gap of each masked spectrum to the average of its
    # full spectrum over the annihilator
    gaps = np.empty((*tops.shape[:2], len(groups)))
    for j, omega_h in enumerate(groups):
        avg = charsum.averaged_spectrum(spec[:, :, 0], omega_h)
        gaps[..., j] = np.abs(spec[:, :, j + 1] - avg).max(axis=(-2, -1))
    return tops, gaps, spec[:, :, 0, 0, 0]


def sweep_weil(p_min: int = 5, p_max: int = 100) -> dict:
    """Brute-force |sum_P omega(P) chi(f(P))| <= 2 d sqrt(p) for
    f in {psi_3, psi_5, psi_3 psi_5}, every group character omega, every curve
    with p in [p_min, p_max]; plus every subgroup of index <= 4 (the subgroup
    orders small_character_subgroups lists) via masked sums, checked against
    the same bound and against the annihilator-averaging identity to
    AVERAGING_RTOL relative tolerance.

    The bound comparison allows only the FFT rounding envelope; bare_exceed
    counts sums whose modulus tops the bound even before that allowance.
    max_ratio records the worst modulus/bound ratio seen.  Two exact anchors
    (_weil_anchors) write a failure record only when they fail: "tower" when
    a curve's tower rows f_3 or f_5 differ from the closed forms at some x,
    and "trivial-sum" when a full-group spectrum's trivial entry is further
    than the FFT envelope from the exact integer sum.

    One prime at a time: one tower for all its curves, then chunks of its
    curves in (A, B) order (_weil_chunks), each curve with its own
    structure, grid and rows.  A chunk's anchors are one array pass, and
    each shape (M, L) in it is one stacked evaluation (_weil_shape).  Stats
    and failure records are taken curve by curve in (A, B) order.
    """
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
        fld = field(p)
        bounds = [2 * charsum.weil_degree(ells) * math.sqrt(p) for ells in WEIL_ELL_SETS]
        # psi_3 and psi_5 of every curve of the prime from one batched tower
        tower = division_poly_batch(list(all_curves(fld)), 5)
        f3, f5 = tower[3][1], tower[5][1]
        del tower
        for chunk in _weil_chunks(fld, shapes):
            at = [n for n, _, _ in chunk]
            curves = [curve for _, curve, _ in chunk]
            tower_ok, trivial = _weil_anchors(fld, curves, f3[at], f5[at])
            by_shape: dict[tuple[int, int], list[int]] = {}
            for i, (_, _, s) in enumerate(chunk):
                by_shape.setdefault((s.m, s.l), []).append(i)
            sums = [None] * len(chunk)  # (tops, gaps, trivial gaps) per curve
            for shape, idx in by_shape.items():
                rows = [at[i] for i in idx]
                tops, gaps, zeros = _weil_shape(
                    fld, [curves[i] for i in idx], f3[rows], f5[rows], *shapes[shape]
                )
                trivial_gaps = np.abs(zeros - trivial[idx])
                for i, *curve_sums in zip(idx, tops.tolist(), gaps.tolist(), trivial_gaps.tolist()):
                    sums[i] = curve_sums
            for n, (_, curve, s) in enumerate(chunk):
                stats["curves"] += 1
                if not tower_ok[n]:
                    stats["failures"].append({**_where(curve), "check": "tower"})
                fft_err = charsum.spectrum_err_bound(s.size)
                tops, gaps, trivial_gaps = sums[n]
                for i, (ells, bound) in enumerate(zip(WEIL_ELL_SETS, bounds)):
                    stats["spectra"] += 1
                    top, *sub_tops = tops[i]
                    stats["max_ratio"] = max(stats["max_ratio"], top / bound)
                    if top > bound:
                        stats["bare_exceed"] += 1
                        stats["max_bare_excess"] = max(stats["max_bare_excess"], top - bound)
                    failure = {**_where(curve), "ells": list(ells)}
                    if top > bound + fft_err:
                        stats["failures"].append({**failure, "max": top})
                    if trivial_gaps[i] > fft_err:
                        stats["failures"].append(
                            {**failure, "check": "trivial-sum", "gap": trivial_gaps[i]}
                        )
                    for gap, sub_top in zip(gaps[i], sub_tops):
                        scale = max(1.0, sub_top)
                        stats["max_avg_gap"] = max(stats["max_avg_gap"], gap / scale)
                        stats["subgroup_checks"] += 1
                        if gap > AVERAGING_RTOL * scale:
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
    return make_record(view, payload, seed)


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
        except AssertionError as exc:  # an identity check that failed, not bad input
            checks.append({"identity": name, "status": "fail", "reason": str(exc)})
            return
        except ValueError as exc:
            if "guard" not in str(exc):
                raise
            # a scale guard skips this check only; the others still run
            checks.append({"identity": name, "status": "skipped", "reason": str(exc)})
            return
        status = "ok" if failed == 0 else "fail"
        checks.append({"identity": name, "status": status, "trials": trials, "failures": failed})

    def chk_recurrence() -> int:
        span, failed = 3 * view.r, 0
        drawn = ([rng.randrange(-span, span + 1) for _ in range(3)] for _ in range(trials))
        while triples := list(islice(drawn, LADDER_LANES // 9)):
            failed += len(_recurrence_failures([(view, triples)]))
        return failed

    def chk_shift() -> int:
        failed = 0
        drawn = ((rng.randrange(0, 6), rng.randrange(1, 2 * view.r + 1)) for _ in range(trials))
        while block := list(islice(drawn, LADDER_LANES // 2)):
            holds = verify_shift_identities([view] * len(block), *zip(*block))
            failed += len(block) - int(holds.sum())
        return failed

    def chk_index_product() -> int:
        failed = 0
        drawn = (
            (rng.randrange(1, 31), view.r * rng.randrange(1, 4) if i % 8 == 7 else rng.randrange(1, 31))
            for i in range(trials)
        )
        while block := list(islice(drawn, LADDER_LANES // 4)):
            holds, _ = verify_index_products([view] * len(block), *zip(*block))
            failed += len(block) - int(holds.sum())
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
            failed += rep_sub.averaging_gap > AVERAGING_RTOL * max(1.0, rep_sub.sum_modulus)
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


def _traced(view: EdsView, fn) -> tuple:
    """fn() run once, timed and traced after view's chi window is built and
    kept, so that both cover only fn's own work: its result, the seconds and
    the tracemalloc peak in MiB."""
    charsum.chi_window(view, view.window_length)
    tracemalloc.start()
    try:
        result, (seconds,) = _timed(fn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, seconds, peak / 2**20


def _bench_spectrum(seed: int) -> dict:
    # the FFT spectrum at R ~ 2*10^6
    p = 999_983
    view = seeded_view(p, seed)
    _, seconds, peak = _traced(view, lambda: charsum.complete_spectrum(view))
    return {"p": p, "terms": view.window_length, "seconds": seconds, "peak_mib": peak}


def _bench_complete_sum(seed: int) -> dict:
    # one twisted sum by blocks at R ~ 2*10^6, at a prime of its own (the
    # seeded streams are keyed by p)
    p, a = 999_959, 1
    view = seeded_view(p, seed)
    cs, seconds, peak = _traced(view, lambda: charsum.complete_sum(view, a))
    return {
        "p": p, "a": a, "terms": view.window_length, "seconds": seconds, "peak_mib": peak,
        "re": cs.re, "im": cs.im, "err_bound": cs.err_bound,
    }


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
    "complete_sum": _bench_complete_sum,
    "reconstruction": _bench_reconstruction,
}


def cmd_bench(seed: int = 0) -> dict:
    """Desk-scale timing and large-input correctness checks: every bench entry."""
    return {"seed": seed, **{name: entry(seed) for name, entry in BENCH_ENTRIES.items()}}
