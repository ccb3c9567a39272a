"""Seeded drivers, record schema, scans, and the CLI contract."""

import hashlib
import json
import time

import pytest

from edschar import charsum, cli, harness
from edschar import curve as curve_module
from edschar.curve import EllipticCurve, all_curves
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


def test_sweep_weil_one_tower_per_ell(monkeypatch):
    calls = []
    build = harness.division_poly_batch

    def counted(curves, n_max, fold=False):
        calls.append((curves[0].p, len(curves), n_max))
        return build(curves, n_max, fold)

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


def test_batched_oracle_sweeps_pinned():
    # stats hashed from the per-curve towers that the batched tower replaced
    eq = harness.sweep_oracle_equivalence(5, 23, n_max=20)
    assert (eq["curves"], eq["values"], eq["skipped_curves"], eq["failures"]) == (
        1445,
        28900,
        3,
        [],
    )
    assert _stats_hash(eq) == "c9189161b8c1d8f402cc7130ed7e4e3dcf10895da904a79db625ac70ded8c47a"
    weil = harness.sweep_weil(5, 13)
    assert _stats_hash(weil) == "3d03bfe32362201c7a258b3bfd4626aedf696efc89035ed174abc7da55084ea9"


def test_oracle_batches_hold_whole_a_values():
    for p in (5, 19, 37):
        batches = list(harness._curve_batches(p))
        flat = [c for batch in batches for c in batch]
        assert [(c.a, c.b) for c in flat] == [(c.a, c.b) for c in all_curves(field(p))]
        for batch, nxt in zip(batches, batches[1:]):
            assert batch[-1].a != nxt[0].a  # an A value never straddles two batches
        assert all(
            len(batch) <= harness.ORACLE_ROWS or len({c.a for c in batch}) == 1
            for batch in batches
        )


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


def test_cmd_verify_weil_builds_two_towers(monkeypatch):
    calls = []
    build = charsum.division_poly_tower

    def counted(curve, n_max, fold=False):
        calls.append(n_max)
        return build(curve, n_max, fold)

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
    with pytest.raises(ValueError, match="worker count guarded"):
        harness.cmd_scan(5, 12, threads=harness.THREADS_MAX + 1)
    argv = ["scan", "--p-min", "5", "--p-max", "12", "--threads", str(harness.THREADS_MAX + 1)]
    assert _run(argv) == 1
    assert "worker count guarded" in capsys.readouterr().err
    sweep_scan(5, 5, threads=4)  # one prime: no pool at all
    assert sizes == [3]


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
    "trials 0": ["verify", *_curve_args("--trials", "0")],
    "trials past the bound": ["verify", *_curve_args("--trials", str(10**11))],
    "scan past the structure guard": ["scan", "--p-min", "5", "--p-max", "2000000"],
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
