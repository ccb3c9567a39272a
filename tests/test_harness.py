"""Seeded drivers, record schema, scans, and the CLI contract."""

import hashlib
import json
import time
import tracemalloc
from importlib import import_module
from itertools import count
from pathlib import Path

import numpy as np
import pytest

from edschar import charsum, cli, harness
from edschar import curve as curve_module
from edschar.curve import EllipticCurve, Point, affine_points, all_curves, point_order
from edschar.eds import EdsView
from edschar.field import PrimeField, field, is_probable_prime
from edschar.harness import (
    SplitMix64,
    largest_prime_below,
    make_record,
    random_curve,
    random_view,
    scan_prime,
    seeded_view,
    stream,
    strip_ts,
    sweep_scan,
)


# -- the pinned generator ---------------------------------------------------------


def test_splitmix64_frozen_vectors():
    g = SplitMix64(0)
    assert g.next64() == 0xE220A8397B1DCDAF
    assert g.next64() == 0x6E789E6AA1B965F4
    assert g.next64() == 0x06C45D188009454F


def test_splitmix64_seed_masking():
    assert SplitMix64(1 << 64).next64() == SplitMix64(0).next64()
    assert SplitMix64(-1).state == (1 << 64) - 1


def test_randrange_bounds_and_coverage():
    g = SplitMix64(7)
    seen = set()
    for _ in range(400):
        v = g.randrange(5)
        assert 0 <= v < 5
        seen.add(v)
    assert seen == {0, 1, 2, 3, 4}
    for _ in range(200):
        v = g.randrange(-3, 4)
        assert -3 <= v < 4
    with pytest.raises(ValueError):
        g.randrange(5, 5)
    with pytest.raises(ValueError):
        g.randrange(0)


def test_choice():
    g = SplitMix64(1)
    seq = ["a", "b", "c"]
    assert all(g.choice(seq) in seq for _ in range(50))


def test_stream_determinism_and_decorrelation():
    a1 = [stream(3, 101).next64() for _ in range(4)]
    a2 = [stream(3, 101).next64() for _ in range(4)]
    b = [stream(3, 103).next64() for _ in range(4)]
    c = [stream(4, 101).next64() for _ in range(4)]
    assert a1 == a2
    assert a1 != b and a1 != c


# -- seeded curve/view helpers -------------------------------------------------------


def test_random_curve_nonsingular_and_reproducible():
    fld = field(97)
    curves = [random_curve(fld, SplitMix64(5)) for _ in range(3)]
    assert len({(c.a, c.b) for c in curves}) == 1  # same seed, same draw
    g = SplitMix64(5)
    for _ in range(20):
        c = random_curve(fld, g)
        assert (4 * c.a**3 + 27 * c.b**2) % 97 != 0


def test_random_view_none_on_all_two_torsion():
    curve = EllipticCurve(field(5), 1, 0)  # group (Z/2)^2: every affine y = 0
    assert random_view(curve, SplitMix64(0)) is None
    view = random_view(EllipticCurve(field(5), 1, 1), SplitMix64(0))
    assert view is not None and view.r >= 3


def test_seeded_view_deterministic():
    v1 = seeded_view(1009, 42)
    v2 = seeded_view(1009, 42)
    v3 = seeded_view(1009, 43)
    assert (v1.curve.a, v1.curve.b, v1.point, v1.r) == (
        v2.curve.a,
        v2.curve.b,
        v2.point,
        v2.r,
    )
    assert (v1.curve.a, v1.curve.b, v1.point) != (v3.curve.a, v3.curve.b, v3.point)


def test_largest_prime_below():
    assert largest_prime_below(100) == 97
    assert largest_prime_below(10) == 7
    q = largest_prime_below(1 << 62)
    assert q < (1 << 62) and is_probable_prime(q)


# -- record schema ---------------------------------------------------------------------


def test_make_record_schema(f5_view):
    rec = make_record("scan", f5_view, {"x": 1}, seed=9)
    assert set(rec) == {
        "kind",
        "version",
        "seed",
        "ts",
        "payload",
        "curve",
        "point",
        "r",
        "R",
    }
    assert rec["version"] == "1"
    assert rec["curve"] == {"p": 5, "a": 1, "b": 1}
    assert rec["point"] == {"x": 0, "y": 1}
    assert (rec["r"], rec["R"]) == (9, 18)
    stripped = strip_ts(rec)
    assert "ts" not in stripped and set(stripped) == set(rec) - {"ts"}
    assert json.loads(json.dumps(rec, sort_keys=True)) == rec


def test_make_record_without_view():
    rec = make_record("bench", None, {"ok": True}, seed=0)
    assert set(rec) == {"kind", "version", "seed", "ts", "payload"}


# -- scans ------------------------------------------------------------------------------


def test_scan_prime_payload_fields():
    rec = scan_prime(101, seed=0)
    pl = rec["payload"]
    assert rec["kind"] == "scan" and rec["curve"]["p"] == 101
    assert pl["chi_period_divides"] is True
    assert (2 * rec["r"]) % pl["chi_period"] == 0
    assert pl["period"] == rec["r"] * pl["s0"]
    assert pl["trivial_regime"] == (rec["r"] ** 2 < 101)
    bias = pl["bias"]
    assert bias["plus"] + bias["minus"] + bias["zero"] == rec["R"]
    assert bias["zero"] == 2
    spec = pl["spectrum"]
    assert spec["max_modulus"] <= rec["R"] - 2 + spec["err_bound"]
    assert spec["trivial_gap"] >= 0.0
    assert spec["envelope_ratio"] == pytest.approx(
        spec["max_modulus"] / spec["envelope"]
    )
    # reruns agree apart from the wall clock
    assert strip_ts(scan_prime(101, seed=0)) == strip_ts(rec)
    assert strip_ts(scan_prime(101, seed=1)) != strip_ts(rec)


def test_sweep_scan_sorted_and_thread_invariant():
    solo = sweep_scan(5, 60, seed=3, threads=1)
    multi = sweep_scan(5, 60, seed=3, threads=2)
    assert [strip_ts(r) for r in solo] == [strip_ts(r) for r in multi]
    ps = [r["curve"]["p"] for r in solo]
    assert ps == sorted(ps) and len(set(ps)) == len(ps)


def test_sweep_scan_records_golden():
    # pins every scan record to 5 <= p <= 1000, so that a speed-up which
    # alters any of them (a different max-order point, say) fails here
    records = sweep_scan(5, 1000, seed=2024)
    text = "\n".join(json.dumps(strip_ts(r), sort_keys=True) for r in records)
    assert len(records) == 166
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "6d81cf8132ef1a6768d0bda091e6c48491aa420b01e24c55680bccf54c208b55"
    )


def test_sweep_scan_records_pinned_within_err_bound():
    # the golden hash pins the spectrum floats bit for bit, which holds on
    # one numpy build; this holds on any: integers and structure exactly,
    # max_modulus, trivial_gap and envelope_ratio within the spectrum's
    # err_bound of the values recorded in tests/data.  The spectrum of a real
    # sequence has |T(a)| = |T(R - a)| up to rounding, so the argmax may move
    # to the mirror index where both moduli match the pinned maximum
    _assert_scan_pinned([strip_ts(r) for r in sweep_scan(5, 1000, seed=2024)], PINNED_SCAN)


def _assert_scan_pinned(records, pinned_records) -> None:
    """_assert_pinned, except that a spectrum argmax may be the mirror R - a
    of the pinned a when the moduli recomputed at a and R - a both match the
    pinned maximum within err_bound: the spectrum of a real sequence has
    |T(a)| = |T(R - a)| up to rounding."""
    assert len(records) == len(pinned_records)
    for got, want in zip(records, pinned_records):
        spec, pinned = got["payload"]["spectrum"], want["payload"]["spectrum"]
        a, length = pinned["argmax"], want["R"]
        if spec["argmax"] != a and spec["argmax"] == (length - a) % length:
            curve = EllipticCurve(want["curve"]["p"], want["curve"]["a"], want["curve"]["b"])
            view = EdsView(curve, Point(want["point"]["x"], want["point"]["y"]), want["r"])
            mods = np.abs(charsum.complete_spectrum(view))
            assert abs(mods[[a, length - a]] - pinned["max_modulus"]).max() <= pinned["err_bound"]
            got = {**got, "payload": {**got["payload"], "spectrum": {**spec, "argmax": a}}}
        _assert_pinned(got, want)


def test_scan_argmax_mirror_accepted_only_at_a_tie():
    # record 5 (p = 19, R = 16) peaks at 10 and at its mirror 6 alike; a
    # build that picks 6 passes, one that picks any other index fails
    want = PINNED_SCAN[5]
    assert want["payload"]["spectrum"]["argmax"] == 10
    for argmax, ok in ((10, True), (6, True), (7, False)):
        got = json.loads(json.dumps(want))
        got["payload"]["spectrum"]["argmax"] = argmax
        if ok:
            _assert_scan_pinned([got], [want])
        else:
            with pytest.raises(AssertionError):
                _assert_scan_pinned([got], [want])



def test_sweep_weil_one_tower_per_ell(monkeypatch):
    calls = []
    build = harness.division_poly_batch

    def counted(curves, n_max):
        calls.append((curves[0].p, len(curves), n_max))
        return build(curves, n_max)

    monkeypatch.setattr(harness, "division_poly_batch", counted)
    monkeypatch.setattr(charsum, "division_poly_tower", None)  # no one-row towers
    stats = harness.sweep_weil(5, 7)
    # one batch per prime, one row per curve, up to psi_5: the grid of
    # psi_3 psi_5 is the product of the psi_3 and psi_5 grids
    assert calls == [(5, 20, 5), (7, 42, 5)]
    assert sum(rows for _, rows, _ in calls) == stats["curves"]
    # reference values, from building a separate tower for each ell set
    assert {k: stats[k] for k in ("curves", "spectra", "subgroup_checks", "bare_exceed")} == {
        "curves": 62,
        "spectra": 186,
        "subgroup_checks": 318,
        "bare_exceed": 0,
    }
    assert stats["failures"] == [] and stats["max_bare_excess"] == 0.0
    assert stats["max_ratio"] == pytest.approx(0.5669467095138409, rel=1e-12)
    assert stats["max_avg_gap"] < 1e-12


def test_sweep_weil_walks_each_group_once(monkeypatch):
    walks = []
    build = curve_module._build_grid

    def counted(curve, s):
        walks.append((curve.p, curve.a, curve.b))
        return build(curve, s)

    monkeypatch.setattr(curve_module, "_build_grid", counted)
    stats = harness.sweep_weil(5, 7)
    assert len(walks) == len(set(walks)) == stats["curves"] == 62


def test_sweep_weil_one_inverse_table_per_prime(monkeypatch):
    # every curve of a prime shares the field's 1/x table; a cleared field
    # cache makes each prime build its table here
    built = []
    field_module = import_module("edschar.field")  # the package exports field()
    powers = field_module.pow_array

    def counted(values, e, p):
        built.append(p)
        return powers(values, e, p)

    monkeypatch.setattr(field_module, "pow_array", counted)
    field.cache_clear()
    stats = harness.sweep_weil(5, 19)
    assert built == [5, 7, 11, 13, 17, 19]
    assert stats["curves"] == 942


def test_sweep_weil_lists_subgroups_once_per_shape(monkeypatch):
    calls = []
    listing = charsum.small_character_subgroups

    def counted(m, l, max_order=4):
        calls.append((m, l))
        return listing(m, l, max_order)

    monkeypatch.setattr(charsum, "small_character_subgroups", counted)
    harness.sweep_weil(5, 13)
    shapes = {
        (s.m, s.l)
        for p in (5, 7, 11, 13)
        for s in map(harness.group_structure, all_curves(field(p)))
    }
    assert len(calls) == len(set(calls))
    assert set(calls) == shapes


def test_sweep_weil_index_guard():
    # a subgroup of index 5 has an annihilator of order 5, past the list
    for bad in (0, 5):
        with pytest.raises(ValueError, match="guard"):
            harness.sweep_weil(5, 7, index_max=bad)


def _stats_hash(stats: dict) -> str:
    return hashlib.sha256(json.dumps(stats, sort_keys=True).encode()).hexdigest()


# the stats of sweep_weil(5, 13) and sweep_weil(5, 29), keyed "5-13" and "5-29"
PINNED_WEIL = json.loads((Path(__file__).parent / "data" / "sweep_weil_pinned.json").read_text())


@pytest.fixture(scope="module")
def weil_stats():
    """Each pinned sweep_weil once, shared by its hash pin and its companion."""
    return {key: harness.sweep_weil(*pin["args"]) for key, pin in PINNED_WEIL.items()}


def test_batched_oracle_sweeps_pinned(weil_stats):
    # stats hashed from the per-curve towers that the batched tower replaced
    eq = harness.sweep_oracle_equivalence(5, 23, n_max=20)
    assert (eq["curves"], eq["values"], eq["skipped_curves"], eq["failures"]) == (
        1445,
        28900,
        3,
        [],
    )
    assert _stats_hash(eq) == "c9189161b8c1d8f402cc7130ed7e4e3dcf10895da904a79db625ac70ded8c47a"
    weil = weil_stats["5-13"]
    assert _stats_hash(weil) == "3d03bfe32362201c7a258b3bfd4626aedf696efc89035ed174abc7da55084ea9"


def test_sweep_weil_stats_pinned_to_29(weil_stats):
    # hashed from the sweep that took one ifft2 per (curve, ell set) and per
    # (curve, ell set, subgroup); floats and failure lists included, so the
    # hash rests on numpy's FFT build as well as on the code
    stats = weil_stats["5-29"]
    assert (stats["curves"], stats["spectra"], stats["subgroup_checks"]) == (2260, 6780, 13704)
    assert _stats_hash(stats) == "e3f43d2b1afc445c54dbea153e6ba0a130a96e6e75c4c6d5bf3d7728226dbceb"


def test_sweep_weil_stats_pinned_on_any_build(weil_stats):
    # the two hashes above hold on one numpy build; this holds on any: counts
    # and failure lists exactly, and every float within 1e-9, as each is a
    # ratio or gap of moduli that carry at most 2^-40 N < 4e-11 at p <= 29
    for key, pin in PINNED_WEIL.items():
        _assert_pinned(weil_stats[key], pin["stats"], 1e-9)


def _moved_windows(monkeypatch):
    """Wrap harness.psi_window so that every window it returns has one
    seeded entry psi_n (1 <= n <= n_max) moved by +1 mod p."""
    window, rng = harness.psi_window, SplitMix64(5)

    def moved(view, n_max):
        w = window(view, n_max).copy()
        n = rng.randrange(1, n_max + 1)
        w[n] = (int(w[n]) + 1) % view.p
        return w

    monkeypatch.setattr(harness, "psi_window", moved)


# sha256 of each oracle sweep's stats, as computed, and with every window
# moved by _moved_windows: the failure records' first bad n, layout and order
ORACLE_PINS = {
    "random": (
        lambda: harness.sweep_oracle_random(2, seed=1, n_max=300),
        "2871caa4082ed7b8a02c8a1a79b15ced329ff68788e21bdd972edd06267301ba",
        "d462c3e1c2007cb1da40b4d90bc3e0eadc90109c094968dd8dccd7b440d55b80",
    ),
    "equivalence": (
        lambda: harness.sweep_oracle_equivalence(5, 13, 20),
        "89155246e740d67efc62c78953c0bb697ce2b71b1c6618217a91491dac3b4a3c",
        "a8c69e271f499c323991e7b11e7794f16a2979e06c49e2dce4a90d821309c343",
    ),
}


@pytest.mark.parametrize("sweep", sorted(ORACLE_PINS))
def test_oracle_sweep_pinned(sweep):
    run, digest, _ = ORACLE_PINS[sweep]
    stats = run()
    assert stats["failures"] == []
    assert _stats_hash(stats) == digest


@pytest.mark.parametrize("sweep", sorted(ORACLE_PINS))
def test_oracle_sweep_failures_pinned(sweep, monkeypatch):
    run, _, digest = ORACLE_PINS[sweep]
    _moved_windows(monkeypatch)
    stats = run()
    assert stats["failures"]
    assert _stats_hash(stats) == digest


# -- the acceptance drivers at smoke scale ---------------------------------------------------


def test_sweep_small_fields_smoke():
    assert harness.sweep_small_fields(5, 13) == {
        "curves": 328,
        "views": 3336,
        "skipped_points": 624,
        "shift_checks": 167110,
        "chi_period_r": 1143,
        "chi_period_2r": 2193,
        "period_samples": 67,
        "failures": [],
    }


@pytest.fixture
def cleared_fields():
    field.cache_clear()  # every prime builds its tables in the test
    yield
    field.cache_clear()  # no table of the test outlives it


def test_sweep_small_fields_failures_pinned(monkeypatch, cleared_fields):
    # at p = 11 the pow table's entry 3 is moved by one (mod p, skipping 0):
    # every shift block that reads g^3 fails, and the records are pinned
    dlog_tables = PrimeField.dlog_tables

    def moved(self):
        log_arr, pow_arr = dlog_tables(self)
        if self.p == 11:
            pow_arr = pow_arr.copy()
            pow_arr[3] = pow_arr[3] % 10 + 1
        return log_arr, pow_arr

    monkeypatch.setattr(PrimeField, "dlog_tables", moved)
    stats = harness.sweep_small_fields(5, 13)
    assert len(stats["failures"]) == 620
    assert {f["check"] for f in stats["failures"]} == {"shift"}
    assert stats["failures"][0] == {
        "view": "EdsView(p=11, a=0, b=1, point=(0,10), r=3)",
        "check": "shift",
        "s": 3,
    }
    assert (stats["shift_checks"], stats["chi_period_2r"], stats["period_samples"]) == (
        136_744,
        1_573,
        56,
    )
    text = json.dumps(stats, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "92422ddf6fbc531ea05e7cd9a696a813dc20009779f28a928028c99806dcf3a9"
    )


def test_sweep_small_fields_records_a_row_of_a_wrong_order(monkeypatch):
    # the 5th view's r is doubled: its failure record is written from the row,
    # since an EdsView would refuse that r and stop the sweep
    order, calls = harness.point_order, count(1)
    monkeypatch.setattr(
        harness, "point_order", lambda curve, pt: order(curve, pt) * (2 if next(calls) == 5 else 1)
    )
    stats = harness.sweep_small_fields(5, 7)
    assert stats["failures"] == [
        {"view": "EdsView(p=5, a=0, b=2, point=(3,2), r=6)", "check": "zero-pattern"}
    ]
    assert stats["views"] == 342


def test_sweep_small_fields_memory_capped(monkeypatch):
    # the held views and the window blocks are capped: about 150 B per held
    # view and 25 B per window cell were measured; with neither cap, p = 47
    # peaked at 50 MiB.  tracemalloc slows curve and ladder arithmetic about
    # tenfold, so the point orders come from a table built before tracing and
    # the period samples skip their spot checks (neither holds an array)
    fld = field(47)
    orders = {
        (c.a, c.b, q): point_order(c, q) for c in all_curves(fld) for q in affine_points(c) if q.y
    }
    period = harness.sequence_period
    monkeypatch.setattr(harness, "point_order", lambda curve, pt: orders[curve.a, curve.b, pt])
    monkeypatch.setattr(harness, "sequence_period", lambda view, spot_checks, seed: period(view, 0, seed))
    fld.chi_table(), fld.inverse_table(), fld.dlog_tables()  # the field's, not the sweep's
    tracemalloc.start()
    try:
        stats = harness.sweep_small_fields(47, 47)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (stats["views"], stats["period_samples"], stats["failures"]) == (99_498, 1_990, [])
    assert peak <= 32 * harness.SMALL_FIELD_CELLS + 192 * harness.SMALL_FIELD_ROWS  # 5 MiB


def test_sweep_recurrence_smoke():
    assert harness.sweep_recurrence(200, seed=1) == {"tuples": 200, "views": 200, "failures": []}


def test_sweep_index_product_smoke():
    assert harness.sweep_index_product(50, seed=1, edge_trials=8) == {
        "trials": 50,
        "edge_trials": 8,
        "edge_infinity": 7,
        "edge_two_torsion": 3,
        "failures": [],
    }


def test_sweep_oracle_random_smoke():
    assert harness.sweep_oracle_random(2, seed=1, n_max=200) == {
        "curves": 2,
        "values": 432,
        "failures": [],
    }


# seed -> (views drawn, of them None, sha256 of the draws, edge_infinity,
# edge_two_torsion); seed 3 draws two curves of all-2-torsion points at p = 5
DRAW_PINS = {
    0: (642, 0, "789209b696366aed40b98e593c137e8c5b6c9bafd7f87dcaabb4d75b2fe3ccda", 40, 8),
    1: (642, 0, "dc3e5fac086e8e80b4b293b7cf1df576a91a24bb1749efd08a157bd09dd60803", 34, 13),
    3: (644, 2, "a733829c59767ee30f0f311ceaaac31e81c36f0eadab06499b89d8c8d7f59d7b", 40, 12),
    2024: (642, 0, "1461f72b2bc0ceaa65b3372b0ec057f6fb31bb2712ad99f1c95a8170dee550ab", 39, 9),
}


@pytest.mark.parametrize("seed", sorted(DRAW_PINS))
def test_randomized_sweeps_draw_pinned_views(seed, monkeypatch):
    # every (curve, point) the three randomized drivers draw, in order: the
    # smoke tests above would not see a change of draw order, since they
    # find no failure to report
    draws = []
    draw = harness.random_view

    def recorded(curve, rng):
        view = draw(curve, rng)
        point = [] if view is None else [view.point.x, view.point.y]
        draws.append([curve.p, curve.a, curve.b, *point])
        return view

    monkeypatch.setattr(harness, "random_view", recorded)
    rec = harness.sweep_recurrence(300, seed=seed)
    idx = harness.sweep_index_product(300, seed=seed, edge_trials=40)
    orc = harness.sweep_oracle_random(2, seed=seed, n_max=300)
    n, n_none, digest, edge_inf, edge_two = DRAW_PINS[seed]
    assert len(draws) == n and sum(len(d) == 3 for d in draws) == n_none
    assert hashlib.sha256(json.dumps(draws).encode()).hexdigest() == digest
    assert rec == {"tuples": 300, "views": 300, "failures": []}
    assert idx == {
        "trials": 300,
        "edge_trials": 40,
        "edge_infinity": edge_inf,
        "edge_two_torsion": edge_two,
        "failures": [],
    }
    assert orc == {"curves": 2, "values": 632, "failures": []}


# -- command payloads ----------------------------------------------------------------------


def test_cmd_eval_frozen():
    out = harness.cmd_eval(5, 1, 1, 0, 1, 2)
    assert out["psi"] == 2 and out["chi"] == -1
    assert harness.cmd_eval(5, 1, 1, 0, 1, 9)["psi"] == 0
    assert harness.cmd_eval(5, 1, 1, 0, 1, -2)["psi"] == 3  # -psi_2 mod 5


def test_cmd_eval_index_guard(capsys):
    # the halving evaluator recurses once per bit of n: past the fixed guard
    # the index is refused instead of overflowing the interpreter stack
    with pytest.raises(ValueError, match="guarded"):
        harness.cmd_eval(5, 1, 1, 0, 1, 2**1000)
    assert _run(_eval_args(n=str(2**1000))) == 1
    assert "guarded" in capsys.readouterr().err


# cmd_sums payloads at p = 5 (A = B = 1, P = (0, 1)) and at seeded_view(1009, 3),
# for char_order 2 and 4, cap_n None, 0, 7 and 5R, and twist_a None, 3 and
# "all" (d = 2 only); a spectrum keeps every stride-th of its R entries
PINNED_SUMS = json.loads((Path(__file__).parent / "data" / "cmd_sums_pinned.json").read_text())
# the records of sweep_scan(5, 1000, seed=2024) without ts, one per line
PINNED_SCAN = json.loads((Path(__file__).parent / "data" / "scan_2024_p1000.json").read_text())


def _assert_pinned(got, want, err: float = 0.0) -> None:
    """Integers and strings exactly; floats within err, the err_bound of the
    innermost sum that carries one.  A float outside any such sum (an
    envelope ratio of an exact count) may move by one part in 10^12 only."""
    if isinstance(want, dict) and "stride" in want:
        assert len(got) == want["len"]
        _assert_pinned(got[:: want["stride"]], want["values"], err)
    elif isinstance(want, dict):
        assert sorted(got) == sorted(want)
        err = want.get("err_bound", err)
        for key in want:
            _assert_pinned(got[key], want[key], err)
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_pinned(g, w, err)
    elif isinstance(want, float):
        assert isinstance(got, float) and abs(got - want) <= max(err, 1e-12 * abs(want))
    else:
        assert type(got) is type(want) and got == want


@pytest.mark.parametrize("case", sorted(PINNED_SUMS))
def test_cmd_sums_payload_pinned(case):
    pinned = PINNED_SUMS[case]
    _assert_pinned(harness.cmd_sums(**pinned["args"]), pinned["payload"])


def test_cmd_sums_zero_terms():
    out = harness.cmd_sums(5, 1, 1, 0, 1, cap_n=0)
    inc = out["incomplete"]
    assert inc["n_terms"] == 0 and inc["sum"] == 0
    assert inc["plus"] == inc["minus"] == inc["zero"] == 0
    assert inc["envelope_ratio"] == 0.0
    out_d = harness.cmd_sums(5, 1, 1, 0, 1, cap_n=0, char_order=4)
    assert out_d["incomplete"]["re"] == 0.0 and out_d["incomplete"]["im"] == 0.0


def test_cmd_sums_default_window(f5_view):
    out = harness.cmd_sums(5, 1, 1, 0, 1)
    assert out["incomplete"]["n_terms"] == out["R"] == 18
    assert out["incomplete"]["sum"] == sum(
        field(5).chi(f5_view.psi(n)) for n in range(1, 19)
    )
    assert out["chi_period"] in (9, 18)


def test_cmd_sums_spectrum_and_single_twist():
    out = harness.cmd_sums(5, 1, 1, 0, 1, twist_a="all")
    comp = out["complete"]
    assert len(comp["sums"]) == out["R"]
    mods = [abs(complex(re, im)) for re, im in comp["sums"]]
    assert comp["max_modulus"] == pytest.approx(max(mods))
    single = harness.cmd_sums(5, 1, 1, 0, 1, twist_a=3)["complete"]
    assert complex(single["re"], single["im"]) == pytest.approx(
        complex(*comp["sums"][3]), abs=1e-9
    )


def test_cmd_sums_order_d():
    out = harness.cmd_sums(5, 1, 1, 0, 1, char_order=4, twist_a=1)
    assert out["order"] == 4
    assert out["order_d_period"] % 9 == 0
    assert out["complete"]["window"] == 4 * 9
    with pytest.raises(ValueError):
        harness.cmd_sums(5, 1, 1, 0, 1, char_order=3)  # 3 does not divide 4


def test_cmd_sums_order_d_builds_exponents_once(monkeypatch):
    view = seeded_view(1009, 3)
    d, r = 4, view.r
    calls = {"exponent": 0, "window": 0}
    exponent = PrimeField.dchar_exponent
    window = charsum.psi_window

    def counted_exponent(self, x, d):
        calls["exponent"] += 1
        return exponent(self, x, d)

    def counted_window(*args):
        calls["window"] += 1
        return window(*args)

    monkeypatch.setattr(PrimeField, "dchar_exponent", counted_exponent)
    monkeypatch.setattr(charsum, "psi_window", counted_window)
    out = harness.cmd_sums(
        1009, view.curve.a, view.curve.b, view.point.x, view.point.y,
        twist_a=1, char_order=d,
    )
    assert out["complete"]["window"] == d * r == 4128
    # the exponent window is one table gather, and the incomplete sum over
    # 2r terms reads a prefix of it; the only calls are the shift
    # constants', at order d and at order 2 for chi_period
    assert calls["exponent"] <= 4
    # one window, for the order-d exponents (chi_period is predicted from
    # the shift constants and reads no window)
    assert calls["window"] <= 1


def test_cmd_sums_order_d_spectrum_refused(capsys):
    # the full spectrum is quadratic-only: asking for it at order d > 2 is
    # an error, not a payload without a "complete" key
    view = seeded_view(1009, 3)
    args = (1009, view.curve.a, view.curve.b, view.point.x, view.point.y)
    with pytest.raises(ValueError, match="quadratic-only"):
        harness.cmd_sums(*args, twist_a="all", char_order=4)
    argv = ["sums"]
    for flag, value in zip(("--p", "--a", "--b", "--px", "--py"), args):
        argv += [flag, str(value)]
    assert _run(argv + ["--twist-a", "all", "--char-order", "4"]) == 1
    assert "quadratic-only" in capsys.readouterr().err


def test_cmd_sums_full_spectrum_guard_is_named():
    view = seeded_view(99_991, 0)
    assert view.window_length > harness.SPECTRUM_EMIT_MAX
    args = (99_991, view.curve.a, view.curve.b, view.point.x, view.point.y)
    with pytest.raises(ValueError, match=r"full spectrum guarded at R <= 65536; pass a single"):
        harness.cmd_sums(*args, twist_a="all")


def test_cmd_sums_chi_period_is_the_measured_period(f5_view, f5_r7_view):
    for view in (f5_view, f5_r7_view, seeded_view(1009, 3), seeded_view(99_991, 1)):
        c = view.curve
        out = harness.cmd_sums(c.p, c.a, c.b, view.point.x, view.point.y, cap_n=10)
        assert out["chi_period"] == charsum.chi_period(view)


def test_cmd_sums_cap_n_at_large_prime():
    # a short incomplete sum at a 9-digit prime must not build the 2r-term
    # window (r ~ 10^9, past the character-window guard)
    p = 999_999_937
    view = seeded_view(p, 0)
    c = view.curve
    out = harness.cmd_sums(p, c.a, c.b, view.point.x, view.point.y, cap_n=100)
    assert out["r"] == view.r and 2 * view.r > 20_000_000
    assert out["chi_period"] == charsum.order_d_period(view, 2)
    assert out["chi_period"] in (view.r, 2 * view.r)
    inc = out["incomplete"]
    assert inc["n_terms"] == 100
    assert inc["sum"] == sum(c.field.chi(view.psi(n)) for n in range(1, 101))


def test_cmd_verify_all_ok():
    out = harness.cmd_verify(5, 1, 1, 0, 1, trials=25, seed=1)
    assert out["ok"] is True
    assert {c["identity"] for c in out["checks"]} == {
        "recurrence",
        "shift",
        "index-product",
        "period",
        "weil",
    }
    assert all(c["failures"] == 0 and c["status"] == "ok" for c in out["checks"])
    single = harness.cmd_verify(5, 1, 1, 0, 1, identity="shift", trials=10)
    assert [c["identity"] for c in single["checks"]] == ["shift"]
    with pytest.raises(ValueError):
        harness.cmd_verify(5, 1, 1, 0, 1, identity="nope")


def test_cmd_verify_period_checks_forced_spectrum_zeros(monkeypatch):
    # at this view chi(a) = 1 and chi(b) = -1, so the shift identity forces
    # T(a') = 0 at every even a' (R = 222): a spectrum moved at a forced zero
    # fails the period check, one moved elsewhere does not
    args = (1009, 11, 17, 1, 188)
    ok = {"identity": "period", "status": "ok", "trials": 20, "failures": 0}
    assert harness.cmd_verify(*args, identity="period", trials=20)["checks"] == [ok]
    spectrum = charsum.complete_spectrum
    for index, failures in ((3, 0), (2, 1)):

        def moved(view):
            spec = spectrum(view)
            spec[index] += 1e-6  # past err_bound = 222 * 2**-40
            return spec

        monkeypatch.setattr(charsum, "complete_spectrum", moved)
        out = harness.cmd_verify(*args, identity="period", trials=20)
        assert out["ok"] is (failures == 0)
        assert out["checks"][0]["failures"] == failures


def test_cmd_verify_weil_builds_two_towers(monkeypatch):
    calls = []
    build = charsum.division_poly_tower

    def counted(curve, n_max):
        calls.append(n_max)
        return build(curve, n_max)

    monkeypatch.setattr(charsum, "division_poly_tower", counted)
    out = harness.cmd_verify(1009, 11, 17, 1, 188, identity="weil", ells=(3, 5))
    assert out["ok"] is True
    assert len(calls) <= 2


def test_cmd_verify_weil_ell_guard_builds_no_tower(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a division-polynomial tower was built")

    monkeypatch.setattr(charsum, "division_poly_tower", refuse)
    out = harness.cmd_verify(1009, 11, 17, 1, 188, ells=(301,), trials=10)
    assert out["ok"] is True
    weil = next(c for c in out["checks"] if c["identity"] == "weil")
    assert weil["status"] == "skipped" and "guard" in weil["reason"]
    assert [c["status"] for c in out["checks"] if c["identity"] != "weil"] == ["ok"] * 4


def test_cmd_verify_needs_a_trial(capsys):
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            harness.cmd_verify(5, 1, 1, 0, 1, trials=trials)
        argv = ["verify", "--p", "5", "--a", "1", "--b", "1", "--px", "0", "--py", "1"]
        assert _run(argv + ["--trials", str(trials)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "trials must be >= 1" in captured.err


def test_cmd_verify_trials_bound(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a view was built before the trial count was checked")

    monkeypatch.setattr(harness, "EdsView", refuse)
    for trials in (harness.TRIALS_MAX + 1, 10**11):
        with pytest.raises(ValueError, match="trial count guarded at trials <= 100000"):
            harness.cmd_verify(1009, 11, 17, 1, 188, trials=trials)
    argv = ["verify", "--p", "1009", "--a", "11", "--b", "17", "--px", "1", "--py", "188"]
    assert _run(argv + ["--trials", str(10**11)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "trial count guarded" in captured.err


def test_cmd_verify_reports_guarded_checks_as_skipped(capsys):
    # at a 9-digit prime the period check's 2r window and the Weil grid are
    # past their guards; the three checks that do run still report
    view = seeded_view(999_999_937, 0)
    args = (view.curve.p, view.curve.a, view.curve.b, view.point.x, view.point.y)
    out = harness.cmd_verify(*args, trials=20)
    assert out["ok"] is True
    assert {c["identity"]: c["status"] for c in out["checks"]} == {
        "recurrence": "ok",
        "shift": "ok",
        "index-product": "ok",
        "period": "skipped",
        "weil": "skipped",
    }
    reasons = {c["identity"]: c.get("reason") for c in out["checks"]}
    assert reasons["period"] == "character window guarded at 20000000 terms"
    assert "group structure guarded" in reasons["weil"]
    flags = ("--p", "--a", "--b", "--px", "--py")
    argv = ["verify"] + [x for flag, v in zip(flags, args) for x in (flag, str(v))]
    assert _run(argv + ["--trials", "20"]) == 0
    capsys.readouterr()
    # when every selected check is skipped there is no result: exit 1
    assert _run(argv + ["--identity", "period"]) == 1
    assert "character window guarded" in capsys.readouterr().err


def test_cmd_scan_range_guard(tmp_path):
    with pytest.raises(ValueError):
        harness.cmd_scan(3, 10)
    with pytest.raises(ValueError):
        harness.cmd_scan(11, 7)
    out_file = tmp_path / "records.jsonl"
    records = harness.cmd_scan(5, 12, out=str(out_file))
    lines = out_file.read_text().splitlines()
    assert len(lines) == len(records) == 3  # primes 5, 7, 11
    assert [json.loads(line)["curve"]["p"] for line in lines] == [5, 7, 11]


def test_cmd_scan_rejects_range_past_structure_guard(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a prime was scanned before the range was checked")

    monkeypatch.setattr(harness, "scan_prime", refuse)
    with pytest.raises(ValueError, match="group structure guarded at p <= 1000000"):
        harness.cmd_scan(5, 2_000_000)


def test_scan_worker_count_guarded_and_capped(monkeypatch, capsys):
    # a stand-in pool that records its size and maps in-process: no process
    # is ever started
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    records = harness.cmd_scan(5, 12, threads=harness.THREADS_MAX)
    assert sizes == [3] and len(records) == 3  # primes 5, 7, 11
    assert [strip_ts(r) for r in records] == [strip_ts(r) for r in sweep_scan(5, 12)]
    for threads in (harness.THREADS_MAX + 1, 0, -3):
        with pytest.raises(ValueError, match="worker count guarded"):
            harness.cmd_scan(5, 12, threads=threads)
    argv = ["scan", "--p-min", "5", "--p-max", "12", "--threads", str(harness.THREADS_MAX + 1)]
    assert _run(argv) == 1
    assert "worker count guarded" in capsys.readouterr().err
    sweep_scan(5, 5, threads=4)  # one prime: no pool at all
    assert sizes == [3]


# cmd_bench(0) as recorded in BENCH_19.json, with its timings (the keys in
# BENCH_TIMINGS) as null
PINNED_BENCH = json.loads((Path(__file__).parent / "data" / "bench_seed0.json").read_text())
BENCH_TIMINGS = {"seconds", "max_ms", "median_ms", "peak_mib"}


def _untimed(out: dict) -> dict:
    """A bench payload without its timings."""
    return {
        k: _untimed(v) if isinstance(v, dict) else v
        for k, v in out.items()
        if k not in BENCH_TIMINGS
    }


def _key_tree(out):
    return {k: _key_tree(v) for k, v in out.items()} if isinstance(out, dict) else None


@pytest.fixture(scope="module")
def bench_0():
    return harness.cmd_bench(0)


def test_cmd_bench_pinned(bench_0):
    # the order_d sums are the only untimed floats: each within the err_bound
    # of a sum of at most `terms` unit terms
    assert _key_tree(bench_0) == _key_tree(PINNED_BENCH)
    err = charsum.spectrum_err_bound(PINNED_BENCH["order_d"]["terms"])
    _assert_pinned(_untimed(bench_0), _untimed(PINNED_BENCH), err)


def test_bench_timing_rule_refuses_a_changing_result():
    result, times = harness._timed(lambda: 7, 3)
    assert result == 7 and len(times) == 3 and times == sorted(times)
    results = iter([1, 1, 2])
    with pytest.raises(AssertionError, match="run 3 of 3"):
        harness._timed(lambda: next(results), 3)


def test_bench_entries_draw_from_streams_of_their_own(bench_0, monkeypatch):
    # each entry alone returns what it returns inside cmd_bench, and no two
    # entries open the same stream, so that adding or reordering an entry
    # moves no other entry's draws
    opened = {}
    for name, entry in harness.BENCH_ENTRIES.items():
        keys = opened[name] = set()
        monkeypatch.setattr(
            harness, "stream", lambda seed, key, keys=keys: keys.add(key) or stream(seed, key)
        )
        assert _untimed(entry(0)) == _untimed(bench_0[name])
    assert sum(map(len, opened.values())) == len(set().union(*opened.values()))


# -- CLI exit codes and output --------------------------------------------------------------


def _run(argv):
    return cli.main(argv)


def _eval_args(p="5", a="1", b="1", px="0", py="1", n="2"):
    return ["eval", "--p", p, "--a", a, "--b", b, "--px", px, "--py", py, "--n", n]


def _curve_args(*extra):
    return ["--p", "1009", "--a", "11", "--b", "17", "--px", "1", "--py", "188", *extra]


def test_cli_usage_errors_exit_1(capsys):
    # argparse's own errors are invalid input too: exit 1, not 2 (which
    # means a failed verification)
    for argv in (
        _eval_args(p="abc"),
        _eval_args()[:-2],  # --n missing
        ["sums", *_curve_args("--twist-a", "xyz")],
    ):
        assert _run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err
    with pytest.raises(SystemExit) as exc:
        _run(["verify", "--help"])
    assert exc.value.code == 0
    assert "defaults: identity=all, seed=0, trials=200" in capsys.readouterr().out


def test_cli_options_are_cmd_parameters(monkeypatch):
    # only the options given reach cmd_*, under the names of its parameters
    calls = []
    monkeypatch.setattr(harness, "cmd_sums", lambda *a, **k: calls.append(k) or {})
    monkeypatch.setattr(harness, "cmd_verify", lambda *a, **k: calls.append(k) or {"ok": True})
    assert _run(["sums", *_curve_args("--twist-a", "all")]) == 0
    assert _run(["sums", *_curve_args("--twist-a", "-3", "--cap-n", "0")]) == 0
    assert _run(["verify", *_curve_args("--ell", "3", "--ell", "5")]) == 0
    curve = {"p": 1009, "a": 11, "b": 17, "px": 1, "py": 188}
    assert calls == [
        {**curve, "twist_a": "all"},
        {**curve, "twist_a": -3, "cap_n": 0},
        {**curve, "ells": [3, 5]},
    ]


# one argv per row of README's guard table that the CLI reaches
GUARD_ARGVS = {
    "p composite": _eval_args(p="15"),
    "p >= 2**62": _eval_args(p=str(2**62 + 135)),
    "n = 2**512": _eval_args(n=str(2**512)),
    "n = -2**512": _eval_args(n=str(-(2**512))),
    "cap_n -1": ["sums", *_curve_args("--cap-n", "-1")],
    "char_order 0": ["sums", *_curve_args("--char-order", "0")],
    "char_order 1": ["sums", *_curve_args("--char-order", "1")],
    "char_order 5 does not divide 1008": ["sums", *_curve_args("--char-order", "5")],
    "ell even": ["verify", *_curve_args("--identity", "weil", "--ell", "4")],
    "ell 103": ["verify", *_curve_args("--identity", "weil", "--ell", "103")],
    "threads 65": ["scan", "--p-min", "5", "--p-max", "50", "--threads", "65"],
    "threads 0": ["scan", "--p-min", "5", "--p-max", "50", "--threads", "0"],
    "trials 0": ["verify", *_curve_args("--trials", "0")],
    "trials past the bound": ["verify", *_curve_args("--trials", str(10**11))],
    "scan past the structure guard": ["scan", "--p-min", "5", "--p-max", "2000000"],
    # seeded_view(99991, 0): R = 100 502
    "full spectrum past R = 65536": [
        "sums", "--p", "99991", "--a", "69429", "--b", "90472", "--px", "82050", "--py", "8062",
        "--twist-a", "all",
    ],
}


@pytest.mark.parametrize("argv", GUARD_ARGVS.values(), ids=GUARD_ARGVS.keys())
def test_cli_guard_table(argv, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(harness, "ProcessPoolExecutor", refuse)
    t0 = time.perf_counter()
    assert _run(argv) == 1
    assert time.perf_counter() - t0 < 5.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


def test_cli_eval_success(capsys):
    assert _run(_eval_args()) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["psi"] == 2 and out["chi"] == -1


@pytest.mark.parametrize(
    "args",
    [
        _eval_args(p="15"),  # composite modulus
        _eval_args(p="5", a="0", b="0"),  # singular curve
        _eval_args(px="1", py="1"),  # point not on the curve
        _eval_args(a="4", b="0", px="0", py="0"),  # 2-torsion base point
    ],
)
def test_cli_eval_invalid_inputs(args, capsys):
    assert _run(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")


def test_cli_error_messages_distinct(capsys):
    msgs = []
    for args in (
        _eval_args(p="15"),
        _eval_args(p="5", a="0", b="0"),
        _eval_args(px="1", py="1"),
        _eval_args(a="4", b="0", px="0", py="0"),
    ):
        _run(args)
        msgs.append(capsys.readouterr().err.strip())
    assert len(set(msgs)) == 4


def test_cli_sums_spectrum(capsys):
    rc = _run(
        ["sums", "--p", "5", "--a", "1", "--b", "1", "--px", "0", "--py", "1",
         "--twist-a", "all"]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["complete"]["sums"]) == out["R"]


def test_cli_sums_bad_char_order(capsys):
    rc = _run(
        ["sums", "--p", "5", "--a", "1", "--b", "1", "--px", "0", "--py", "1",
         "--char-order", "3"]
    )
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_sums_order_d_root_table_guard(capsys):
    p = 4_194_319  # p - 1 = 4_194_318 > 2**22, the root-table guard on d
    curve = EllipticCurve(field(p), 1, 3)
    pt = next(q for x in range(p) for q in curve.lift_x(x) if q.y != 0)
    rc = _run(
        ["sums", "--p", str(p), "--a", "1", "--b", "3", "--px", str(pt.x),
         "--py", str(pt.y), "--char-order", "4194318", "--cap-n", "10"]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: order-d root table guarded") and "Traceback" not in err


def test_cli_verify_ok_and_failure_exit(capsys, monkeypatch):
    rc = _run(
        ["verify", "--p", "5", "--a", "1", "--b", "1", "--px", "0", "--py", "1",
         "--trials", "10"]
    )
    assert rc == 0
    json.loads(capsys.readouterr().out)
    monkeypatch.setattr(
        harness, "cmd_verify", lambda *a, **k: {"ok": False, "checks": []}
    )
    rc = _run(
        ["verify", "--p", "5", "--a", "1", "--b", "1", "--px", "0", "--py", "1"]
    )
    assert rc == 2


def test_cli_scan_stdout(capsys):
    rc = _run(["scan", "--p-min", "5", "--p-max", "20", "--seed", "2"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    recs = [json.loads(line) for line in lines]
    assert [r["curve"]["p"] for r in recs] == [5, 7, 11, 13, 17, 19]
    assert all(r["kind"] == "scan" and r["seed"] == 2 for r in recs)


def test_cli_scan_to_file(tmp_path, capsys):
    out_file = tmp_path / "scan.jsonl"
    rc = _run(
        ["scan", "--p-min", "5", "--p-max", "12", "--out", str(out_file)]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary == {"records": 3, "out": str(out_file)}
    assert len(out_file.read_text().splitlines()) == 3


def test_cli_scan_bad_range(capsys):
    assert _run(["scan", "--p-min", "3", "--p-max", "10"]) == 1
    assert "error:" in capsys.readouterr().err
