"""Acceptance battery: nine numbered criteria, one test and one printed
pass/fail line each.

These are the package's release gates.  They re-run the exhaustive sweeps at
their contractual scales, so this module dominates suite runtime (several
minutes); the per-file unit tests cover the same code at smoke scale.
"""

import time
from functools import lru_cache

import numpy as np
import pytest

from edschar import charsum, harness
from edschar.field import primes_in

SEED = 2024

# pinned budgets and tolerances
RECURRENCE_BUDGET_S = 60.0  # criterion 1: 10,000 residuals under a minute
PARSEVAL_RTOL = 1e-6  # criterion 7: spectrum energy vs R(R-2)
AVERAGING_RTOL = 1e-8  # criterion 6: annihilator-averaging identity
EVAL62_BUDGET_MS = 10.0  # criterion 9: one value at index 2^62
CHI_WINDOW_BUDGET_S = 10.0  # criterion 9: 10^6 character terms


def _report(capsys, num: int, name: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@lru_cache(maxsize=None)
def _point_counts(p: int) -> tuple[np.ndarray, np.ndarray]:
    """(N, t) of every nonsingular y^2 = x^3 + Ax + B over F_p, in (A, B)
    order, from character counts alone: N = p + 1 + sum_x chi(x^3 + Ax + B)
    and t = #{x : x^3 + Ax + B = 0}, one array pass over (A, B, x)."""
    chi = -np.ones(p, dtype=np.int64)
    chi[0] = 0
    chi[np.arange(1, p) ** 2 % p] = 1
    a, b, x = np.ogrid[:p, :p, :p]
    rhs = (x**3 + a * x + b) % p
    ok = (4 * a**3 + 27 * b**2)[..., 0] % p != 0
    return (p + 1 + chi[rhs].sum(axis=2))[ok], (rhs == 0).sum(axis=2)[ok]


def _coverage(p_max: int) -> dict:
    """Expected coverage over 5 <= p <= p_max: curves, points with y != 0
    (views) and points with y = 0 or infinity (skipped), and the curves with
    and without a point with y != 0."""
    counts = [_point_counts(p) for p in primes_in(5, p_max)]
    views = [n - 1 - t for n, t in counts]
    return {
        "curves": sum(len(v) for v in views),
        "views": int(sum(v.sum() for v in views)),
        "skipped_points": int(sum((1 + t).sum() for _, t in counts)),
        "curves_with_views": int(sum((v > 0).sum() for v in views)),
    }


@pytest.fixture(scope="session")
def small_fields():
    """Exhaustive small-field sweep shared by criteria 2 and 4."""
    return harness.sweep_small_fields(5, 50)


def test_criterion_1_recurrence_residuals(capsys):
    t0 = time.perf_counter()
    stats = harness.sweep_recurrence(10_000, seed=SEED)
    elapsed = time.perf_counter() - t0
    ok = (
        stats["tuples"] == 10_000
        and stats["failures"] == []
        and elapsed < RECURRENCE_BUDGET_S
    )
    _report(
        capsys,
        1,
        "three-term recurrence residual == 0 at random (h, i, j)",
        ok,
        f"{stats['tuples']} tuples across {stats['views']} views, "
        f"{len(stats['failures'])} failures, {elapsed:.1f}s (< {RECURRENCE_BUDGET_S:.0f}s)",
    )


def test_criterion_2_shift_identity_exhaustive(capsys, small_fields):
    stats = small_fields
    shift_failures = [
        f for f in stats["failures"] if f.get("check") in ("zero-pattern", "shift")
    ]
    want = _coverage(50)
    ok = (
        all(stats[k] == want[k] for k in ("curves", "views", "skipped_points"))
        and stats["shift_checks"] > 0
        and not shift_failures
        and stats["failures"] == []
    )
    _report(
        capsys,
        2,
        "order-shift identity exhaustive over p <= 50, s <= 5",
        ok,
        f"{stats['views']} views on {stats['curves']} curves, "
        f"{stats['shift_checks']} shift checks, {len(stats['failures'])} failures",
    )


def test_criterion_3_index_product_random(capsys):
    stats = harness.sweep_index_product(1000, seed=SEED)
    ok = (
        stats["trials"] == 1000
        and stats["failures"] == []
        and stats["edge_infinity"] >= 1
        and stats["edge_two_torsion"] >= 1
    )
    _report(
        capsys,
        3,
        "index-product identity at 1000 random (curve, P, n, m)",
        ok,
        f"{stats['trials']} trials + {stats['edge_trials']} forced edges "
        f"(infinity {stats['edge_infinity']}, two-torsion {stats['edge_two_torsion']}), "
        f"{len(stats['failures'])} failures",
    )


def test_criterion_4_chi_period_divides_2r(capsys, small_fields):
    stats = small_fields
    covered = stats["chi_period_r"] + stats["chi_period_2r"]
    ok = stats["failures"] == [] and covered == stats["views"] > 0
    _report(
        capsys,
        4,
        "character period divides 2r, exhaustive over p <= 50",
        ok,
        f"{covered}/{stats['views']} views (period r: {stats['chi_period_r']}, "
        f"period 2r: {stats['chi_period_2r']}), {len(stats['failures'])} failures",
    )


def test_criterion_5_evaluation_paths_agree(capsys):
    eq = harness.sweep_oracle_equivalence(5, 100, 50)
    rnd = harness.sweep_oracle_random(50, seed=SEED, n_max=2000)
    want = _coverage(100)
    ok = (
        eq["curves"] == want["curves_with_views"]
        and eq["values"] == 50 * eq["curves"]
        and eq["skipped_curves"] == want["curves"] - want["curves_with_views"]
        and eq["failures"] == []
        and rnd["failures"] == []
    )
    _report(
        capsys,
        5,
        "doubling == window == stream == symbolic, small and 9-digit primes",
        ok,
        f"exhaustive: {eq['curves']} curves / {eq['values']} values; "
        f"random: {rnd['curves']} curves / {rnd['values']} values; "
        f"{len(eq['failures']) + len(rnd['failures'])} failures",
    )


def test_criterion_6_point_sum_bound_exhaustive(capsys):
    assert harness.AVERAGING_RTOL == AVERAGING_RTOL  # the pinned tolerance
    stats = harness.sweep_weil(5, 100)
    curves = sum(p * p - p for p in primes_in(5, 100))  # 4A^3 + 27B^2 = 0 on p pairs
    ok = (
        stats["curves"] == curves
        and stats["spectra"] == 3 * curves
        and stats["failures"] == []
        and stats["bare_exceed"] == 0
    )
    _report(
        capsys,
        6,
        "|sum omega(P) chi(f(P))| <= 2 d sqrt(p) over groups and subgroups, p <= 100",
        ok,
        f"{stats['spectra']} spectra on {stats['curves']} curves, "
        f"{stats['subgroup_checks']} subgroup checks, bare exceedances "
        f"{stats['bare_exceed']}, max ratio {stats['max_ratio']:.4f}, "
        f"max averaging gap {stats['max_avg_gap']:.2e}, "
        f"{len(stats['failures'])} failures",
    )


def test_criterion_7_spectrum_parseval_and_symmetry(capsys):
    primes = primes_in(5, 4000)
    chosen = primes[:: max(1, len(primes) // 20)][:20]
    assert len(chosen) == 20
    worst_rel = 0.0
    worst_conj = 0.0
    worst_t0 = 0.0
    for p in chosen:
        view = harness.seeded_view(p, SEED)
        length = view.window_length
        assert length <= 10_000
        spec = charsum.complete_spectrum(view)
        err = charsum.spectrum_err_bound(length)
        energy = float(np.sum(np.abs(spec) ** 2))
        target = float(length * (length - 2))
        worst_rel = max(worst_rel, abs(energy - target) / target)
        t0_gap = abs(spec[0] - charsum.incomplete_sum(view, length))
        worst_t0 = max(worst_t0, t0_gap / max(err, 1e-300))
        conj_gap = float(
            np.abs(spec[1:] - np.conj(spec[1:][::-1])).max()
        )  # T(R-a) == conj(T(a))
        worst_conj = max(worst_conj, conj_gap / (2 * err))
    ok = worst_rel <= PARSEVAL_RTOL and worst_t0 <= 1.0 and worst_conj <= 1.0
    _report(
        capsys,
        7,
        "Parseval R(R-2), T(0) = S(R), conjugate symmetry on 20 seeded curves",
        ok,
        f"max Parseval rel err {worst_rel:.2e} (tol {PARSEVAL_RTOL}), "
        f"T(0) gap {worst_t0:.3f}x err bound, conjugate gap {worst_conj:.3f}x "
        f"allowance",
    )


def test_criterion_8_scan_deterministic_and_bounded(capsys):
    records = harness.sweep_scan(5, 10_000, seed=SEED, threads=2)
    n_primes = len(primes_in(5, 10_000))
    gaps = [rec["payload"]["spectrum"]["trivial_gap"] for rec in records]
    ratios = [rec["payload"]["spectrum"]["envelope_ratio"] for rec in records]
    keys_ok = all(
        {"max_modulus", "argmax", "err_bound", "trivial_gap", "envelope", "envelope_ratio"}
        <= set(rec["payload"]["spectrum"])
        for rec in records
    )
    prefix = [harness.strip_ts(r) for r in records if r["curve"]["p"] <= 2000]
    rerun = [harness.strip_ts(r) for r in harness.sweep_scan(5, 2000, seed=SEED, threads=1)]
    ok = (
        len(records) == n_primes
        and keys_ok
        and min(gaps) >= 0.0
        and prefix == rerun
    )
    _report(
        capsys,
        8,
        "seeded scan to p = 10^4: bounded spectra, stable across reruns/workers",
        ok,
        f"{len(records)} records, min trivial gap {min(gaps):.3e}, "
        f"max envelope ratio {max(ratios):.3f}, rerun prefix "
        f"{'matches' if prefix == rerun else 'differs'} ({len(rerun)} records)",
    )


def test_criterion_9_large_index_performance(capsys):
    out = harness.cmd_bench(seed=SEED)
    e = out["eval_62bit"]
    c = out["chi_window"]
    rec = out["reconstruction"]
    ok = (
        e["max_ms"] < EVAL62_BUDGET_MS
        and e["recurrence_residual"] == 0
        and c["seconds"] < CHI_WINDOW_BUDGET_S
        and c["spot_ok"]
        and rec["ok"]
    )
    _report(
        capsys,
        9,
        "index 2^62 at a 62-bit prime < 10 ms; 10^6 character terms < 10 s",
        ok,
        f"eval max {e['max_ms']:.2f} ms (median {e['median_ms']:.2f}), "
        f"window {c['seconds']:.2f} s for {c['terms']} terms, spot checks "
        f"{'ok' if c['spot_ok'] else 'FAILED'}, shift reconstruction at p ~ 10^9 "
        f"{'ok' if rec['ok'] else 'FAILED'}",
    )
