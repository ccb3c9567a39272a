"""Character windows, twisted/partial sums, and brute-forced bound checks."""

import cmath
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from edschar import charsum as charsum_module
from edschar.charsum import (
    PHASE_BLOCK,
    WEIL_ELL_MAX,
    WINDOW_MAX,
    BiasReport,
    ComplexSum,
    _chi_grid,
    _exact,
    _spectrum,
    averaged_spectrum,
    bias_report,
    chi_period,
    chi_window,
    complete_envelope,
    complete_spectrum,
    complete_sum,
    incomplete_envelope,
    incomplete_sum,
    order_d_exponents,
    order_d_period,
    order_d_sums,
    small_character_subgroups,
    spectrum_err_bound,
    subgroup_mask,
    weil_degree,
    weil_sum_check,
    _validate_ells,
)
from edschar.curve import EllipticCurve, Point, enumerate_points, group_structure, point_order
from edschar.eds import SCALAR_LEVELS, EdsView, psi_window, x_only_psi
from edschar.field import PrimeField, field, primes_in
from edschar.harness import cmd_sums, seeded_view
from edschar.symbolic import division_poly_tower


def _euler_chi(v: int, p: int) -> int:
    """Independent quadratic character: Euler's criterion, no table."""
    if v % p == 0:
        return 0
    e = pow(v, (p - 1) // 2, p)
    return 1 if e == 1 else -1


# -- character window -----------------------------------------------------------------


def test_chi_window_matches_per_term(f5_view):
    n = 4 * f5_view.window_length
    w = chi_window(f5_view, n)
    assert w.dtype == np.int8
    for i in range(n):
        v = f5_view.psi(i + 1)
        assert int(w[i]) == _euler_chi(v, 5) == f5_view.curve.field.chi(v)


def _view_above_table_guard() -> EdsView:
    p = 4_194_319  # first prime above 2**22; p - 1 = 2 * 3 * 699053
    curve = EllipticCurve(field(p), 1, 3)
    pt = next(pt for x in range(p) for pt in curve.lift_x(x) if pt.y != 0)
    return EdsView(curve, pt)


def test_chi_window_big_prime_path():
    # p above the chi-table guard: one square-and-multiply over the int64
    # window (past the scalar levels), checked per term by Euler's criterion
    view = _view_above_table_guard()
    n = 3 * SCALAR_LEVELS
    w = chi_window(view, n)
    assert w.dtype == np.int8
    for i in range(n):
        assert int(w[i]) == _euler_chi(view.psi(i + 1), view.curve.p)


def test_chi_window_cache_prefix(f5_view):
    long = chi_window(f5_view, 30)
    short = chi_window(f5_view, 7)
    assert np.array_equal(short, long[:7])


def test_chi_window_read_only():
    # a fresh view, so that a failed write cannot leak into the shared fixtures
    view = EdsView(EllipticCurve(field(5), 1, 1), Point(0, 1))
    before = incomplete_sum(view, 4)
    w = chi_window(view, view.window_length)
    with pytest.raises(ValueError):
        w[:4] = 1
    with pytest.raises(ValueError):
        chi_window(view, 4)[0] = 1
    assert incomplete_sum(view, 4) == before


def test_chi_window_guard(f5_view):
    with pytest.raises(ValueError):
        chi_window(f5_view, WINDOW_MAX + 1)


def test_kept_windows_refuse_negative_term_counts():
    # a negative count once returned a prefix that depended on what was kept:
    # no terms on a fresh view, R - 5 of them once the R-term window was kept
    for window in (chi_window, lambda view, n: order_d_exponents(view, 4, n)):
        view = seeded_view(1009, 3)  # R = 2064
        for kept in (False, True):
            if kept:
                assert len(window(view, view.window_length)) == 2064
            assert len(window(view, 0)) == 0
            with pytest.raises(ValueError, match="n_terms must be >= 0, got -5"):
                window(view, -5)


def test_chi_sequence_shape(f5_view, f5_r7_view):
    for view in (f5_view, f5_r7_view):
        values = chi_window(view, view.window_length)
        r = view.r
        assert view.window_length == 2 * r == len(values)
        assert (2 * r) % chi_period(view) == 0
        zeros = np.flatnonzero(values == 0) + 1
        assert list(zeros) == [r, 2 * r]


def test_chi_period_frozen_r7(f5_r7_view):
    # second half of the window repeats the first: shift multiplier 4 is a square
    assert chi_period(f5_r7_view) == 7


def test_chi_period_brute_oracle(f5_view, f5_r7_view):
    for view in (f5_view, f5_r7_view):
        window = chi_window(view, view.window_length)
        brute = next(
            d
            for d in range(1, len(window) + 1)
            if len(window) % d == 0 and np.array_equal(window, np.roll(window, -d))
        )
        assert chi_period(view) == brute


# -- incomplete sums and bias ------------------------------------------------------------


def test_incomplete_sum_frozen(f5_view):
    assert incomplete_sum(f5_view, 0) == 0
    assert incomplete_sum(f5_view, 1) == 1  # chi(psi_1) = chi(1)
    assert incomplete_sum(f5_view, 2) == 0  # chi(2) = -1 mod 5
    with pytest.raises(ValueError):
        incomplete_sum(f5_view, -1)


def test_incomplete_sum_cumsum_oracle(f5_view):
    acc = 0
    for n in range(1, 5 * f5_view.window_length + 3):
        acc += _euler_chi(f5_view.psi(n), 5)
        assert incomplete_sum(f5_view, n) == acc
        assert abs(acc) <= n


def test_bias_report_frozen(f5_view):
    rep = bias_report(f5_view, 18)  # exactly one window, R = 18
    assert rep.plus + rep.minus + rep.zero == 18
    assert rep.zero == 2
    assert rep.total == rep.plus - rep.minus == incomplete_sum(f5_view, 18)
    assert rep.bias * 18 == pytest.approx(rep.total)
    # recount independently
    signs = [_euler_chi(f5_view.psi(n), 5) for n in range(1, 19)]
    assert rep.plus == signs.count(1)
    assert rep.minus == signs.count(-1)


def test_bias_report_periodic_extension(f5_view):
    n = 18 * 3 + 5
    rep = bias_report(f5_view, n)
    signs = [_euler_chi(f5_view.psi(k), 5) for k in range(1, n + 1)]
    assert (rep.plus, rep.minus, rep.zero) == (
        signs.count(1),
        signs.count(-1),
        signs.count(0),
    )
    assert rep.zero == n // 9  # zeros land exactly on the multiples of the point order
    # 0 terms is the empty report; a negative count raises, and so does one
    # past the sequence-index guard
    assert bias_report(f5_view, 0) == BiasReport(0, 0, 0, 0, 0, 0.0)
    with pytest.raises(ValueError, match="n_terms must be >= 0"):
        bias_report(f5_view, -1)
    assert bias_report(f5_view, 2**512 - 1).n_terms == 2**512 - 1
    with pytest.raises(ValueError, match="guarded at n_terms < 2"):
        bias_report(f5_view, 2**512)


# -- complete sums and the spectrum -------------------------------------------------------


def _direct_complete(view, a):
    """cmath oracle for T_P(a), summed in index order without compensation."""
    length = view.window_length
    total = 0 + 0j
    for n in range(1, length + 1):
        s = _euler_chi(view.psi(n), view.curve.p)
        if s:
            total += s * cmath.exp(2j * cmath.pi * a * n / length)
    return total


@pytest.mark.parametrize("a", [0, 1, 2, 5, 9, 17])
def test_complete_sum_matches_direct(f5_view, a):
    got = complete_sum(f5_view, a)
    want = _direct_complete(f5_view, a)
    assert abs(got.value - want) <= got.err_bound + 1e-12
    assert got.modulus <= f5_view.window_length - 2 + got.err_bound
    assert 0 < got.err_bound <= f5_view.window_length * 2**-40


def test_complete_sum_t0_is_incomplete(f5_view, f5_r7_view):
    for view in (f5_view, f5_r7_view):
        t0 = complete_sum(view, 0)
        assert abs(t0.value - incomplete_sum(view, view.window_length)) <= t0.err_bound
        assert abs(t0.im) <= t0.err_bound


def test_conjugate_symmetry(f5_view):
    length = f5_view.window_length
    for a in range(1, length):
        ta = complete_sum(f5_view, a)
        tb = complete_sum(f5_view, length - a)
        assert abs(tb.value - ta.value.conjugate()) <= ta.err_bound + tb.err_bound


def test_spectrum_matches_per_twist(f5_view, f5_r7_view):
    for view in (f5_view, f5_r7_view):
        spec = complete_spectrum(view)
        err = spectrum_err_bound(view.window_length)
        assert len(spec) == view.window_length
        for a in range(view.window_length):
            single = complete_sum(view, a)
            assert abs(spec[a] - single.value) <= err + single.err_bound


def test_complete_sum_matches_spectrum_large_view():
    # R = 49 684 here, against R <= 18 for the p = 5 views above
    view = seeded_view(50_021, 3)
    length = view.window_length
    spec = complete_spectrum(view)
    err = spectrum_err_bound(length)
    for a in (0, 1, 2, 3, length // 3, length // 2, length - 2, length - 1):
        single = complete_sum(view, a)
        assert abs(spec[a] - single.value) <= err + single.err_bound


def test_spectrum_forced_zeros():
    # the shift identity chi(psi_{r+k}) = alpha^k beta chi(psi_k), with alpha
    # and beta the characters of the shift constants, splits the spectrum as
    # T(a') = sum_{k<=r} chi(psi_k) e(a'k/R) (1 + beta (-1)^a' alpha^k); so
    # when alpha = 1, T(a') = 0 exactly at every a' with beta (-1)^a' = -1
    views = 0
    for p in primes_in(5, 3000):
        view = seeded_view(p, 2024)
        chi = view.curve.field.chi
        if chi(view.mult_a) != 1:
            continue
        views += 1
        forced = complete_spectrum(view)[(1 + chi(view.mult_b)) // 2 :: 2]
        assert np.abs(forced).max() <= spectrum_err_bound(view.window_length)
    assert views == 276  # of the 428 primes


def test_complete_spectrum_peak_memory_per_term():
    # R = 1 999 348; the chi window is built and kept on the view before the
    # trace starts, so the peak counts only the spectrum's own arrays: the
    # complex output (16 B/term) and the ifft's float input and work copy
    view = seeded_view(999_983, 0)
    length = view.window_length
    assert length == 1_999_348
    chi_window(view, length)
    tracemalloc.start()
    try:
        spec = complete_spectrum(view)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(spec) == length
    assert peak / length <= 44


# -- exact phase sums -----------------------------------------------------------------

# every finite double, +-0.0 and subnormals included, up to 2**600 in magnitude
FINITE = st.floats(min_value=-(2.0**600), max_value=2.0**600, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(
    values=st.lists(FINITE, max_size=24),
    length=st.integers(0, 2 * PHASE_BLOCK + 3),
    cancel=st.booleans(),
    cuts=st.lists(st.integers(0, 4 * PHASE_BLOCK + 6), max_size=4),
)
@example(values=[], length=0, cancel=False, cuts=[])
@example(values=[-0.0], length=3, cancel=False, cuts=[1])
@example(values=[0.0, -0.0], length=2, cancel=True, cuts=[])
@example(values=[5e-324, -1e-323, 2.0**-1022], length=PHASE_BLOCK + 1, cancel=False, cuts=[7])
@example(values=[1.0, 2.0**-53], length=2, cancel=False, cuts=[1])  # a tie: to even
@example(values=[1.0, 2.0**-53, 2.0**-600], length=3, cancel=False, cuts=[])
@example(values=[2.0**600, 1.0, -(2.0**600)], length=3, cancel=False, cuts=[1, 2])
@example(values=[0.1, -0.3, 1e300], length=PHASE_BLOCK, cancel=True, cuts=[PHASE_BLOCK])
def test_exact_sum_rounded_once_is_fsum(values, length, cancel, cuts):
    # the blocks' exact integer sums, added and rounded once, are math.fsum's
    # float bit for bit, however the array is cut into blocks
    x = np.resize(np.array(values, dtype=np.float64), length if values else 0)
    if cancel:  # every term meets its negation: the sum is exactly 0
        x = np.concatenate([x, -x[::-1]])
    want = math.fsum(x).hex()
    assert (_exact(x) / (1 << 1126)).hex() == want
    blocks = np.split(x, sorted(cuts))
    assert (sum(_exact(b) for b in blocks) / (1 << 1126)).hex() == want


def _fsum_phase_sum(ks, weights, length):
    """The phase sum as it was written with math.fsum: the oracle of the
    blocked exact sum."""
    angles = ks * (2.0 * math.pi / length)
    return ComplexSum(
        re=math.fsum(weights * np.cos(angles)),
        im=math.fsum(weights * np.sin(angles)),
        err_bound=int(np.abs(weights).sum()) * 2.0**-40,
    )


# (p, seed, block): R < PHASE_BLOCK; R = 4 and 2 blocks (a block set to a
# divisor of R); R = 3 PHASE_BLOCK + 1022
@pytest.mark.parametrize(
    "p, seed, block", [(1009, 3, None), (20_021, 1, 995), (99_991, 1, 25_087), (99_991, 1, None)]
)
def test_blocked_sums_equal_fsum_formula(p, seed, block, monkeypatch):
    view = seeded_view(p, seed)
    length, r = view.window_length, view.r
    if block is not None:
        monkeypatch.setattr(charsum_module, "PHASE_BLOCK", block)
        assert length % block == 0 and length // block in (2, 4)
    window = chi_window(view, length)
    idx = np.flatnonzero(window)
    for a in (0, 1, 3, 12345, length - 1):
        want = _fsum_phase_sum((a % length) * (idx + 1) % length, window[idx], length)
        got = complete_sum(view, a)
        assert (got.re.hex(), got.im.hex(), got.err_bound) == (want.re.hex(), want.im.hex(), want.err_bound)
    for d in (2, 3, 4):
        if (p - 1) % d:
            continue
        period = d * r
        exps = order_d_exponents(view, d, period)
        idx = np.flatnonzero(exps >= 0)
        for x in (0, 1, 3, 12345, period - 1):
            ks = ((x % period) * (idx + 1) + exps[idx] * r) % period
            want = _fsum_phase_sum(ks, np.ones(len(idx)), period)
            got = order_d_sums(view, d, "complete", x)
            assert (got.re.hex(), got.im.hex(), got.err_bound) == (want.re.hex(), want.im.hex(), want.err_bound)


@pytest.fixture(scope="module")
def view_2m():
    # R = 1 999 348, with its chi and order-2 windows built and kept, so that a
    # trace started after this covers only a sum's own arrays
    view = seeded_view(999_983, 0)
    assert view.window_length == 1_999_348
    chi_window(view, view.window_length)
    order_d_exponents(view, 2, view.window_length)
    return view


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_complete_sum_peak_memory_is_one_block(view_2m):
    # blocks of PHASE_BLOCK terms: a fixed budget whatever R (1.14 MiB measured
    # at 2**14, 0.6 B/term here; it was 63 MiB, 33 B/term, with full-length arrays)
    assert _traced_peak(lambda: complete_sum(view_2m, 3)) <= 1.5 * 2**20


def test_order_d_complete_peak_memory_is_one_block(view_2m):
    # the same fixed budget (1.14 MiB measured; it was 76 MiB, 40 B/term)
    assert _traced_peak(lambda: order_d_sums(view_2m, 2, "complete", 3)) <= 1.5 * 2**20


def test_chi_window_peak_memory_per_term():
    # the kept int8 window (1 B/term), psi_window's int64 levels and the
    # field's chi table built in place: 17.9 B/term measured at R = 1 999 696
    # (20.5 B/term with the full-length table build)
    view = seeded_view(999_959, 0)
    length = view.window_length
    assert _traced_peak(lambda: chi_window(view, length)) / length <= 18


def test_parseval(f5_view):
    spec = complete_spectrum(f5_view)
    length = f5_view.window_length  # 18
    energy = float(np.sum(np.abs(spec) ** 2))
    want = length * (length - 2)  # 288
    assert want == 288
    assert abs(energy - want) <= 1e-6 * want


def test_summation_order_independence(f5_view):
    length = f5_view.window_length
    window = chi_window(f5_view, length).astype(np.float64)
    phases = np.exp(2j * np.pi * 5 * np.arange(1, length + 1) / length)
    terms = window * phases
    ref = complete_sum(f5_view, 5)
    rng = np.random.default_rng(0)
    for _ in range(10):
        perm = rng.permutation(length)
        assert abs(complex(terms[perm].sum()) - ref.value) <= 2 * ref.err_bound + 1e-12


def test_envelopes_and_ratio(f5_view):
    q, length = 5, f5_view.window_length
    assert complete_envelope(length, q) == pytest.approx(
        length ** (5 / 6) * q ** (1 / 12) * math.log(q) ** (1 / 3)
    )
    assert incomplete_envelope(length, q) == pytest.approx(
        length ** (5 / 6) * q ** (1 / 12) * math.log(q) ** (4 / 3)
    )
    # the ratios cmd_sums reports are |sum| / envelope
    out = cmd_sums(5, 1, 1, 0, 1, cap_n=7, twist_a=3)
    assert out["complete"]["envelope_ratio"] == pytest.approx(
        complete_sum(f5_view, 3).modulus / complete_envelope(length, q)
    )
    assert out["incomplete"]["envelope_ratio"] == pytest.approx(
        abs(incomplete_sum(f5_view, 7)) / incomplete_envelope(length, q)
    )


# -- order-d characters --------------------------------------------------------------------


def _f7_order3_view():
    fld = field(7)
    for a in range(7):
        for b in range(7):
            if (4 * a**3 + 27 * b**2) % 7 == 0:
                continue
            curve = EllipticCurve(fld, a, b)
            for pt in enumerate_points(curve):
                if pt is None or pt.y == 0:
                    continue
                if point_order(curve, pt) >= 3:
                    return EdsView(curve, pt)
    raise AssertionError("unreachable")


def test_order_two_matches_quadratic(f5_view):
    for n in (1, 5, 18, 40):
        got = order_d_sums(f5_view, 2, "incomplete", n)
        assert got.im == pytest.approx(0.0, abs=got.err_bound)
        assert round(got.re) == incomplete_sum(f5_view, n)
    for a in (0, 1, 7):
        got = order_d_sums(f5_view, 2, "complete", a)
        ref = complete_sum(f5_view, a)
        assert abs(got.value - ref.value) <= got.err_bound + ref.err_bound


def test_order_one_principal_at_field_level(f5_view):
    # d = 1 stays valid for the field-level character (principal) but the
    # sum driver requires d >= 2
    fld = f5_view.curve.field
    assert all(fld.order_d_character(x, 1) == 1 for x in range(1, 5))
    assert fld.order_d_character(0, 1) == 0j


def test_order_d_rejects_bad_order(f5_view):
    with pytest.raises(ValueError):
        order_d_sums(f5_view, 3, "incomplete", 5)  # 3 does not divide 4
    with pytest.raises(ValueError):
        order_d_sums(f5_view, 1, "incomplete", 5)  # principal order excluded
    with pytest.raises(ValueError):
        order_d_sums(f5_view, 0, "incomplete", 5)
    with pytest.raises(ValueError):
        order_d_sums(f5_view, 2, "partial", 5)
    # 0 terms is the empty sum; a negative count raises, and so does one
    # past the sequence-index guard (its tallies would overflow the floats)
    assert order_d_sums(f5_view, 2, "incomplete", 0) == ComplexSum(0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="n_terms must be >= 0"):
        order_d_sums(f5_view, 2, "incomplete", -1)
    assert math.isfinite(order_d_sums(f5_view, 4, "incomplete", 2**512 - 1).re)
    with pytest.raises(ValueError, match="guarded at n_terms < 2"):
        order_d_sums(f5_view, 4, "incomplete", 10**400)


def test_order_d_exponents_and_period():
    view = _f7_order3_view()
    r = view.r
    exps = order_d_exponents(view, 3, 6 * r)
    assert all(exps[n - 1] == -1 for n in range(1, 6 * r + 1) if n % r == 0)
    fld = view.curve.field
    for n in (1, 2, r + 1, 2 * r - 1):
        j = exps[n - 1]
        assert fld.order_d_character(view.psi(n), 3) == pytest.approx(
            cmath.exp(2j * cmath.pi * j / 3)
        )
    predicted = order_d_period(view, 3)
    probe = 2 * r + 3
    window = [view.psi(n) for n in range(1, 4 * predicted + probe)]
    sig = [fld.dchar_exponent(v, 3) for v in window]
    brute = next(
        t
        for t in range(r, len(sig) - probe, r)
        if sig[t : t + probe] == sig[:probe]
    )
    assert predicted == brute


def test_order_d_exponents_gather_without_per_term_calls(monkeypatch):
    # a dlog-table gather at p <= 2**22, a square-and-multiply above it;
    # neither calls dchar_exponent
    small = seeded_view(1009, 3)
    cases = [(small, 4, 2 * small.r + 5), (_view_above_table_guard(), 3, 500)]
    expected = []
    for view, d, n in cases:
        fld = view.curve.field
        want = [fld.dchar_exponent(v, d) for v in psi_window(view, n)[1:].tolist()]
        expected.append([-1 if j is None else j for j in want])

    def refuse(self, x, d):
        raise AssertionError("order_d_exponents called dchar_exponent")

    monkeypatch.setattr(PrimeField, "dchar_exponent", refuse)
    for (view, d, n), want in zip(cases, expected):
        view = EdsView(view.curve, view.point, r=view.r)  # nothing cached yet
        exps = order_d_exponents(view, d, n)
        assert exps.dtype == np.int64
        assert exps.tolist() == want


def test_windows_kept_per_character_on_the_view(monkeypatch):
    # d = 3, then 4, then 3 again: each exponent window is built once, and
    # the chi window is kept beside them
    view = seeded_view(1009, 3)  # 1008 = 2^4 * 3^2 * 7
    built = []

    def counting(ev, n_max):
        built.append(n_max)
        return psi_window(ev, n_max)

    monkeypatch.setattr(charsum_module, "psi_window", counting)
    first = [order_d_exponents(view, d, 3 * view.r) for d in (3, 4)]
    assert built == [3 * view.r] * 2
    assert np.array_equal(order_d_exponents(view, 3, 3 * view.r), first[0])
    assert np.array_equal(order_d_exponents(view, 4, view.r), first[1][: view.r])
    assert len(built) == 2
    chi_window(view, view.r)
    chi_window(view, 5)
    assert built == [3 * view.r] * 2 + [view.r]
    assert np.array_equal(order_d_exponents(view, 3, 3 * view.r), first[0])
    assert len(built) == 3


def test_order_d_incomplete_oracle():
    view = _f7_order3_view()
    fld = view.curve.field
    for n in (1, 4, 3 * view.r + 2):
        got = order_d_sums(view, 3, "incomplete", n)
        want = sum(fld.order_d_character(view.psi(k), 3) for k in range(1, n + 1))
        assert abs(got.value - want) <= got.err_bound + 1e-10


def test_order_d_complete_oracle():
    view = _f7_order3_view()
    fld = view.curve.field
    steps = 3 * view.r
    for a in (0, 1, steps - 1):
        got = order_d_sums(view, 3, "complete", a)
        want = sum(
            fld.order_d_character(view.psi(n), 3)
            * cmath.exp(2j * cmath.pi * a * n / steps)
            for n in range(1, steps + 1)
        )
        assert abs(got.value - want) <= got.err_bound + 1e-9


# -- Weil-type bound checks -------------------------------------------------------------


def test_weil_degree_frozen():
    assert weil_degree((3,)) == 4
    assert weil_degree((5,)) == 12
    assert weil_degree((3, 5)) == 16


def test_validate_ells():
    assert _validate_ells([5, 3]) == (5, 3)
    assert _validate_ells((3, WEIL_ELL_MAX)) == (3, 101)
    for bad in ((), (3, 3), (4,), (1,), (3, 6)):
        with pytest.raises(ValueError):
            _validate_ells(bad)
    for bad in ((WEIL_ELL_MAX + 2,), (3, 301)):
        with pytest.raises(ValueError, match="guard"):
            _validate_ells(bad)


E13 = EllipticCurve(field(13), 2, 1)
Z252 = EllipticCurve(field(1009), 1, 2)  # Z/252 x Z/4


def _oracle_weil(curve, ells, omega, mults=None):
    """Grid-free oracle: walk m*gen_m + l*gen_l, evaluate chi(prod psi_ell) by
    Euler's criterion on the x-only polynomial values."""
    s = group_structure(curve)
    a, b = omega
    total = 0 + 0j
    pairs = mults if mults is not None else (
        (mi, li) for mi in range(s.m) for li in range(s.l)
    )
    for mi, li in pairs:
        pt = curve.add(curve.mul(mi, s.gen_m), curve.mul(li, s.gen_l))
        if pt is None:
            continue
        f = 1
        for l in ells:
            f = f * x_only_psi(curve, pt.x, l) % curve.p
        sgn = _euler_chi(f, curve.p)
        if sgn:
            total += sgn * cmath.exp(2j * cmath.pi * (a * mi / s.m + b * li / s.l))
    return total


@pytest.mark.parametrize("ells", [(3,), (5,), (3, 5)])
def test_weil_full_group_matches_oracle(ells):
    s = group_structure(E13)
    for omega in [(0, 0), (1, 0), (2, 0), (s.m - 1, 0)]:
        rep = weil_sum_check(E13, ells, omega)
        want = _oracle_weil(E13, ells, omega)
        assert abs(rep.value - want) <= rep.err_bound + 1e-9
        assert rep.sum_modulus <= rep.bound
        assert rep.degree == weil_degree(ells)
        assert rep.subgroup is None and rep.averaging_gap is None


def _weil_spectrum(curve, ells):
    """sum_P omega_{a,b}(P) chi(f(P)) for every (a, b), f = prod psi_ell."""
    tower = division_poly_tower(curve, max(ells))
    return _spectrum(_chi_grid(curve, [tower[l][1] for l in ells]))


def _annihilator_oracle(s, mq, lq):
    """Characters (a, b) trivial on mq*gen_m + lq*gen_l, row by row:
    e(a mq / M + b lq / L) = 1, i.e. a*mq*L + b*lq*M = 0 (mod ML)."""
    return [
        (a, b)
        for a in range(s.m)
        for b in range(s.l)
        if (a * mq * s.l + b * lq * s.m) % (s.m * s.l) == 0
    ]


def _annihilator(s, mq, lq):
    """The annihilator of <mq*gen_m + lq*gen_l> as weil_sum_check reads it."""
    ta, tb = np.nonzero(subgroup_mask(s.m, s.l, [(mq, lq)]))
    return list(zip(ta.tolist(), tb.tolist()))


def test_weil_spectrum_matches_reports():
    spec = _weil_spectrum(E13, (3,))
    s = group_structure(E13)
    assert spec.shape == (s.m, s.l)
    for a in range(s.m):
        for b in range(s.l):
            rep = weil_sum_check(E13, (3,), (a, b))
            assert abs(spec[a, b] - rep.value) <= 1e-8
    assert float(np.abs(spec).max()) <= 2 * 4 * math.sqrt(13) + 1e-8


def test_weil_subgroup_direct_and_averaging():
    s = group_structure(E13)
    gen = E13.mul(2, s.gen_m)
    order = point_order(E13, gen)
    rep = weil_sum_check(E13, (3,), (1, 0), subgroup=gen)
    assert rep.subgroup["order"] == order
    assert rep.subgroup["index"] == (s.m * s.l) // order
    want = _oracle_weil(E13, (3,), (1, 0), mults=[((2 * k) % s.m, 0) for k in range(order)])
    assert abs(rep.value - want) <= rep.err_bound + 1e-9
    assert rep.averaging_gap is not None
    assert rep.averaging_gap <= 1e-8 * max(1.0, rep.sum_modulus)
    assert rep.sum_modulus <= rep.bound  # the bound holds on subgroups too


def test_weil_subgroup_of_large_index_matches_oracle():
    # Z/252 x Z/4: Q = 6 gen_m + gen_l has order lcm(42, 4) = 84, index 12
    curve = Z252
    s = group_structure(curve)
    assert (s.m, s.l, s.size) == (252, 4, 1008)
    gen = curve.add(curve.mul(6, s.gen_m), s.gen_l)
    mults = [(6 * k % s.m, k % s.l) for k in range(84)]
    for omega in [(0, 0), (5, 1), (251, 3)]:
        rep = weil_sum_check(curve, (3,), omega, subgroup=gen)
        assert rep.subgroup["order"] == 84 and rep.subgroup["index"] == 12
        assert rep.err_bound == spectrum_err_bound(s.size)
        want = _oracle_weil(curve, (3,), omega, mults=mults)
        assert abs(rep.value - want) <= rep.err_bound
        assert rep.averaging_gap <= 1e-8 * max(1.0, rep.sum_modulus)


def test_annihilator_counts():
    s = group_structure(E13)
    n = s.m * s.l
    assert int(subgroup_mask(s.m, s.l, []).sum()) == n  # <O> is killed by all
    for k in (1, 2, 3):
        q = E13.mul(k, s.gen_m)
        if q is None:
            continue
        h = point_order(E13, q)
        omega_h = _annihilator(s, k % s.m, 0)
        assert omega_h == _annihilator_oracle(s, k % s.m, 0)
        assert len(omega_h) == n // h
        rep = weil_sum_check(E13, (3,), subgroup=q)
        assert (rep.subgroup["order"], rep.subgroup["index"]) == (h, n // h)
    # Z/252 x Z/4: Q = 6 gen_m + gen_l has order 84, so |Omega_<Q>| = 12
    s = group_structure(Z252)
    omega_h = _annihilator(s, 6, 1)
    assert omega_h == _annihilator_oracle(s, 6, 1)
    assert len(omega_h) == 12


NONCYCLIC = EllipticCurve(field(5), -1, 0)  # full 2-torsion: Z/4 x Z/2


def _brute_small_subgroups(m, l, max_order):
    elems = [(a, b) for a in range(m) for b in range(l)]

    def close(gens):
        group = {(0, 0)}
        frontier = [(0, 0)]
        while frontier and len(group) <= max_order:
            cur = frontier.pop()
            for ga, gb in gens:
                nxt = ((cur[0] + ga) % m, (cur[1] + gb) % l)
                if nxt not in group:
                    group.add(nxt)
                    frontier.append(nxt)
        return frozenset(group)

    out = {frozenset({(0, 0)})}
    for e1 in elems:
        for e2 in elems:
            g = close([e1, e2])
            # a closure cut short past max_order elements is not kept
            if len(g) <= max_order:
                out.add(g)
    return sorted(tuple(sorted(g)) for g in out)


@pytest.mark.parametrize(
    "m,l", [(1, 1), (5, 1), (9, 1), (4, 2), (12, 2), (8, 4), (6, 6), (12, 12)]
)
def test_small_character_subgroups_exhaustive(m, l):
    for max_order in (1, 2, 3, 4):
        got = small_character_subgroups(m, l, max_order=max_order)
        assert got == _brute_small_subgroups(m, l, max_order)
        for g in got:
            assert (0, 0) in g
            assert 1 <= len(g) <= max_order
            members = set(g)
            for x1, y1 in g:
                for x2, y2 in g:
                    assert ((x1 + x2) % m, (y1 + y2) % l) in members


def test_small_character_subgroups_order_guard():
    # Z/5 has a subgroup of order 5, which a list of orders <= 4 cannot hold
    for bad in (0, 5, 6):
        with pytest.raises(ValueError, match="guard"):
            small_character_subgroups(5, 1, bad)


def test_subgroup_mask_and_averaged_spectrum():
    s = group_structure(NONCYCLIC)
    spec = _weil_spectrum(NONCYCLIC, (3,))
    for omega_h in small_character_subgroups(s.m, s.l, 4):
        mask = subgroup_mask(s.m, s.l, omega_h)
        assert int(mask.sum()) * len(omega_h) == s.m * s.l
        avg = averaged_spectrum(spec, omega_h)
        # row (0, 0) of the averaged spectrum = plain chi-sum over the subgroup H
        grid = _chi_grid(NONCYCLIC, [division_poly_tower(NONCYCLIC, 3)[3][1]])
        masked = complex(grid[mask].astype(np.float64).sum())
        assert abs(avg[0, 0] - masked) <= 1e-8
    assert spec.shape == (s.m, s.l)


def _rolled_average(spectrum, omega_h):
    """Oracle for averaged_spectrum: the same shifts taken by np.roll."""
    acc = np.zeros_like(spectrum)
    for ta, tb in omega_h:
        acc += np.roll(spectrum, (-ta, -tb), axis=(0, 1))
    return acc / len(omega_h)


@pytest.mark.parametrize("curve", [NONCYCLIC, Z252], ids=["Z4xZ2", "Z252xZ4"])
def test_averaged_spectrum_matches_roll_oracle(curve):
    s = group_structure(curve)
    spec = _weil_spectrum(curve, (3,))
    groups = small_character_subgroups(s.m, s.l, 4)
    if s.m == 252:
        groups.append(_annihilator(s, 6, 1))  # index 12, past the small list
    for omega_h in groups:
        assert np.array_equal(averaged_spectrum(spec, omega_h), _rolled_average(spec, omega_h))


@pytest.mark.parametrize(
    "shape",
    [(1, 1), (2, 1), (5, 1), (13, 1), (4, 2), (7, 3), (12, 2), (8, 4), (6, 6), (252, 4)],
    ids=lambda shape: f"{shape[0]}x{shape[1]}",
)
def test_stacked_spectrum_matches_per_slice_bit_for_bit(shape):
    # sweep_weil takes every ell set under every subgroup mask in one ifft2
    # over a (3, 1 + k, M, L) stack; each slice must be the 2-D spectrum
    rng = np.random.default_rng(shape[0] * 1000 + shape[1])
    stack = rng.integers(-1, 2, size=(3, 4, *shape)).astype(np.int8)
    spec = _spectrum(stack)
    assert spec.shape == stack.shape
    for idx in np.ndindex(stack.shape[:2]):
        want = _spectrum(stack[idx])
        # bit for bit, signed zeros included
        assert np.array_equal(spec[idx].view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("curve", [NONCYCLIC, Z252], ids=["Z4xZ2", "Z252xZ4"])
def test_averaged_spectrum_of_a_stack_matches_roll_oracle(curve):
    s = group_structure(curve)
    stack = np.stack([_weil_spectrum(curve, ells) for ells in ((3,), (5,), (3, 5))])
    groups = small_character_subgroups(s.m, s.l, 4)
    if s.m == 252:
        groups.append(_annihilator(s, 6, 1))  # index 12, past the small list
    for omega_h in groups:
        got = averaged_spectrum(stack, omega_h)
        assert got.shape == stack.shape
        for spec, avg in zip(stack, got):
            want = _rolled_average(spec, omega_h)
            assert np.array_equal(avg.view(np.float64), want.view(np.float64))


def test_averaging_identity_against_reports():
    s = group_structure(E13)
    gen = E13.mul(3, s.gen_m)
    if gen is None:
        pytest.skip("degenerate generator")
    spec = _weil_spectrum(E13, (3,))
    omega_h = _annihilator_oracle(s, 3 % s.m, 0)
    avg = averaged_spectrum(spec, omega_h)
    for omega in [(0, 0), (1, 0)]:
        rep = weil_sum_check(E13, (3,), omega, subgroup=gen)
        assert abs(avg[omega[0] % s.m, omega[1] % s.l] - rep.value) <= 1e-8
