"""Sequence evaluators and the algebraic identities they must satisfy."""

import hashlib
import random
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from edschar.curve import EllipticCurve, Point, all_curves, enumerate_points, point_order
from edschar.eds import (
    INDEX_LIMIT,
    SCALAR_LEVELS,
    EdsView,
    PsiEvaluator,
    _psi3_f4,
    least_shift,
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
from edschar.field import divisors, field
from edschar.harness import largest_prime_below, random_curve, seeded_view
from edschar.rng import SplitMix64

# Hand-computed over F_5, curve y^2 = x^3 + 2x + 1, P = (0, 1), ord(P) = 7:
#   psi_1 = 1, psi_2 = 2y = 2, psi_3 = 12Bx + 6Ax^2 + 3x^4 - A^2 = -4 = 1,
#   psi_4 = 4y(x^6 + ... - 8B^2 - A^3) = 4*(-16) = -64 = 1,
#   psi_5 = psi_4 psi_2^3 - psi_1 psi_3^3 = 8 - 1 = 7 = 2,
#   psi_6 = psi_3 (psi_5 psi_2^2 - psi_1 psi_4^2) / psi_2 = 1*(8-1)/2 = 7/2 = 1,
#   psi_7 = psi_5 psi_3^3 - psi_2 psi_4^3 = 2 - 2 = 0,
#   psi_8 = psi_5 psi_4 psi_2^2 - psi_6 psi_3^3 ... via halving: 4.
R7_VALUES = [0, 1, 2, 1, 1, 2, 1, 0, 4]  # psi_0 .. psi_8


# -- base values (frozen) ---------------------------------------------------------


def test_first_values_frozen(f5_view):
    # y^2 = x^3 + x + 1, P = (0, 1): psi_3 = -A^2 = -1 = 4 at x = 0,
    # psi_4 = 4y(-8B^2 - A^3) = 4*(-9) = -36 = 4 mod 5
    assert [f5_view.psi(n) for n in range(1, 5)] == [1, 2, 4, 4]
    assert psi_window(f5_view, 4).tolist() == [0, 1, 2, 4, 4]


def test_r7_sequence_frozen(f5_r7_view):
    assert psi_window(f5_r7_view, 8).tolist() == R7_VALUES
    assert f5_r7_view.r == 7


def test_order_three_point_vanishes():
    curve = EllipticCurve(field(5), 0, 1)
    view = EdsView(curve, Point(0, 1))  # ord = 3
    assert view.r == 3
    assert view.psi(3) == 0
    assert view.psi(1) == 1 and view.psi(2) != 0


def test_psi_eval_helper(f5_view):
    assert f5_view.psi(3) == PsiEvaluator(f5_view.curve, f5_view.point).psi(3) == 4


# -- construction guards ------------------------------------------------------------


def test_rejects_two_torsion_point():
    curve = EllipticCurve(field(5), -1, 0)
    with pytest.raises(ValueError):
        PsiEvaluator(curve, Point(0, 0))
    with pytest.raises(ValueError):
        EdsView(curve, Point(0, 0))


def test_rejects_infinity_and_off_curve():
    with pytest.raises(ValueError):
        PsiEvaluator(EllipticCurve(field(5), 1, 1), None)
    with pytest.raises(ValueError):
        PsiEvaluator(EllipticCurve(field(5), 1, 1), Point(1, 1))


def test_rejects_wrong_order_argument(f5_view, f5_r7_view):
    with pytest.raises(ValueError):
        EdsView(f5_view.curve, f5_view.point, r=5)  # psi_5 != 0
    # multiples of the order: psi_r = 0, but psi_{r/q} = 0 for some prime q | r
    order3 = EllipticCurve(field(5), 0, 1)
    for r in (6, 9):
        with pytest.raises(ValueError, match=f"r = {r} is a multiple of the order"):
            EdsView(order3, Point(0, 1), r=r)
    # beyond the Hasse bound p + 1 + 2 sqrt(p) = 10 no point order exists
    for r in (14, 7 << 400):
        with pytest.raises(ValueError, match="point order must be in"):
            EdsView(f5_r7_view.curve, f5_r7_view.point, r=r)
    assert EdsView(order3, Point(0, 1), r=3).r == 3


# -- sign convention and zero pattern -------------------------------------------------


def test_zero_only_at_multiples_of_r(f5_view):
    r = f5_view.r
    w = psi_window(f5_view, 4 * r)
    zeros = {n for n in range(1, 4 * r + 1) if w[n] == 0}
    assert zeros == {r, 2 * r, 3 * r, 4 * r}
    assert f5_view.psi(0) == 0


@settings(max_examples=50)
@given(st.integers(min_value=-10**6, max_value=10**6))
def test_antisymmetry(n):
    view = _VIEW_R7
    assert view.psi(-n) == -view.psi(n) % 5


# -- the defining recurrence ----------------------------------------------------------


def test_recurrence_residual_examples(f5_view):
    assert recurrence_residual(f5_view, 3, 2, 1) == 0
    assert recurrence_residual(f5_view, 10, 4, 0) == 0
    assert recurrence_residual(f5_view, -7, 12, 5) == 0
    assert recurrence_residual(PsiEvaluator(f5_view.curve, f5_view.point), 3, 2, 1) == 0


_VIEW_R7 = EdsView(EllipticCurve(field(5), 2, 1), Point(0, 1))
_VIEW_BIG = EdsView(
    EllipticCurve(field(1_000_003), 11, 17),
    EllipticCurve(field(1_000_003), 11, 17).lift_x(2)[0],
)


@settings(max_examples=100)
@given(
    st.integers(min_value=-200, max_value=200),
    st.integers(min_value=-200, max_value=200),
    st.integers(min_value=-200, max_value=200),
)
def test_recurrence_residual_property(h, i, j):
    assert recurrence_residual(_VIEW_R7, h, i, j) == 0
    assert recurrence_residual(_VIEW_BIG, h, i, j) == 0


# -- order-shift identity ---------------------------------------------------------------


def test_shift_constants_frozen(f5_r7_view):
    # by hand from R7_VALUES: a = psi_8 / (psi_9 psi_2) with psi_8 = 4 psi_1, so
    # the (s, k) = (1, 1), (1, 2) solve gives a = 1, b = 4
    assert (f5_r7_view.mult_a, f5_r7_view.mult_b) == (1, 4)
    assert f5_r7_view.psi(8) == 4 * f5_r7_view.psi(1) % 5


def test_shift_constant_forms_consistent(f5_view):
    view = f5_view
    p, r = view.curve.p, view.r
    psi = view.psi
    a_post = psi(r + 2) * pow(psi(r + 1) * psi(2) % p, -1, p) % p
    b_post = psi(r + 1) ** 2 * psi(2) % p * pow(psi(r + 2), -1, p) % p
    a_pre = psi(r - 1) * psi(2) % p * pow(psi(r - 2), -1, p) % p
    b_pre = -psi(r - 1) ** 2 * psi(2) % p * pow(psi(r - 2), -1, p) % p
    assert view.mult_a == a_post == a_pre
    assert view.mult_b == b_post == b_pre % p
    assert view.mult_a * view.mult_b % p == psi(r + 1)  # a*b = psi_{r+1}


def test_shift_identity_small_grid(f5_view, f5_r7_view):
    for view in (f5_view, f5_r7_view):
        for s in range(0, 5):
            for k in range(1, 3 * view.r + 1):
                assert verify_shift_identity(view, s, k)


def test_shift_identity_large_prime():
    view = _VIEW_BIG
    rng = random.Random(7)
    for _ in range(40):
        s = rng.randrange(0, 50)
        k = rng.randrange(1, 10**6)
        assert verify_shift_identity(view, s, k)


def test_shift_identity_rejects_bad_arguments(f5_view):
    with pytest.raises(ValueError):
        verify_shift_identity(f5_view, -1, 1)
    with pytest.raises(ValueError):
        verify_shift_identity(f5_view, 2, 0)


# -- sequential paths agree with the evaluator ---------------------------------------


def test_window_and_stream_match_evaluator(f5_view, f5_r7_view):
    multi_digit = seeded_view(1009, 3)  # r = 1032: zeros at multi-digit indices
    for view, n_max in (
        (f5_view, 6 * f5_view.r),
        (f5_r7_view, 6 * f5_r7_view.r),
        (_VIEW_BIG, 500),
        (multi_digit, 3 * multi_digit.r + 5),
    ):
        w = psi_window(view, n_max)
        assert len(w) == n_max + 1
        stream = list(psi_sequence(view, n_max))
        fresh = PsiEvaluator(view.curve, view.point)
        for n in range(1, n_max + 1):
            assert w[n] == fresh.psi(n)
            assert stream[n - 1] == w[n]


def test_window_patches_across_zeros(f5_r7_view):
    # indices j = 4 (mod 7) follow a zero psi_{j-4}, where the four-term
    # recurrence would divide by zero; the halving window must still match
    w = psi_window(f5_r7_view, 60)
    fresh = PsiEvaluator(f5_r7_view.curve, f5_r7_view.point)
    for j in range(4, 61, 7):
        assert w[j] == fresh.psi(j)


def test_window_makes_no_evaluator_call(f5_r7_view, monkeypatch):
    fresh = PsiEvaluator(f5_r7_view.curve, f5_r7_view.point)
    expected = [fresh.psi(n) for n in range(61)]

    def refuse(self, n):
        raise AssertionError(f"psi_window called the evaluator at n = {n}")

    monkeypatch.setattr(PsiEvaluator, "psi", refuse)
    assert psi_window(f5_r7_view, 60).tolist() == expected


def test_window_matches_stream_around_the_scalar_levels(f5_r7_view):
    # every n_max from inside the scalar head to past the second array level,
    # on a view with a zero every 7 terms
    top = 4 * SCALAR_LEVELS + 8
    stream = [0, *psi_sequence(f5_r7_view, top)]
    for n_max in range(-2, top + 1):
        w = psi_window(f5_r7_view, n_max)
        assert w.dtype == np.int64
        assert w.tolist() == stream[: max(n_max + 1, 0)]


def _bare_view(p: int, seed: int) -> PsiEvaluator:
    """A bare evaluator at a seeded point: psi_window takes any evaluator,
    and at a 62-bit prime the point order (which EdsView needs) is out of
    reach."""
    rng = SplitMix64(seed)
    curve = random_curve(field(p), rng)
    return PsiEvaluator(curve, curve.random_point(rng, nonzero_y=True))


def test_window_dtype_follows_the_int64_bound():
    # 3037000493 is the largest prime with (p - 1)**2 < 2**63, 3037000507 the next
    n_max = 2 * SCALAR_LEVELS + 40  # the scalar head and two array levels
    for p, dtype in ((3_037_000_493, np.int64), (3_037_000_507, object), ((1 << 62) - 57, object)):
        view = _bare_view(p, 5)
        w = psi_window(view, n_max)
        assert w.dtype == dtype
        assert w.tolist() == [view.psi(n) for n in range(n_max + 1)]


def test_stream_on_bare_evaluators():
    # the stream patches where its own divisor psi_{j-4} is 0, so it needs no
    # point order: every point with y != 0 over F_13, and a 62-bit prime
    cases = [
        (PsiEvaluator(c, q), 64)
        for c in all_curves(field(13))
        for q in enumerate_points(c)
        if q is not None and q.y
    ]
    cases.append((_bare_view(largest_prime_below(1 << 62), 5), 300))
    for ev, n_max in cases:
        assert list(psi_sequence(ev, n_max)) == psi_window(ev, n_max)[1:].tolist(), ev.point


# lengths below 12, at the batch's level boundaries (one step runs levels m in
# [lo, max(2 lo - 3, lo)] and level m ends at psi_{2m+1}) and around the end
# of psi_window's scalar head
BATCH_LENGTHS = (
    *range(12),
    19,
    20,
    35,
    36,
    67,
    68,
    2 * SCALAR_LEVELS - 1,
    2 * SCALAR_LEVELS,
    2 * SCALAR_LEVELS + 1,
    131,
    132,
    259,
    260,
)


@pytest.mark.parametrize("p", [5, 13, 47])
def test_psi_windows_match_psi_window_row_for_row(p):
    # every curve, and every point with y != 0 at p <= 13 but every 7th at
    # p = 47 (still all 2 162 curves and all 55 point orders there), at
    # BATCH_LENGTHS and at 6r + 3 (the small-field sweep's length), in
    # chunks of rows
    fld = field(p)
    points = [(c, q) for c in all_curves(fld) for q in enumerate_points(c) if q is not None and q.y]
    views = points[:: 7 if p > 13 else 1]
    top = max(*BATCH_LENGTHS, 6 * (p + 1 + 2 * int(p**0.5) + 1) + 3)
    seen = set()
    for lo in range(0, len(views), 2048):
        chunk = views[lo : lo + 2048]
        rows = np.array([(c.a, c.b, q.x, q.y) for c, q in chunk]).T
        expected = np.array([psi_window(PsiEvaluator(c, q), top) for c, q in chunk])
        for n_max in BATCH_LENGTHS:
            got = psi_windows(fld, *rows, n_max)
            assert got.dtype == np.int64
            assert np.array_equal(got, expected[:, : n_max + 1]), n_max
        orders = (expected[:, 1:] == 0).argmax(axis=1) + 1
        for r in np.unique(orders).tolist():
            same = orders == r
            got = psi_windows(fld, *rows[:, same], 6 * r + 3)
            assert np.array_equal(got, expected[same, : 6 * r + 4]), r
        seen.update(orders.tolist())
    if p == 47:
        assert len(seen) == 55  # a coarser stride must not drop a point order


@pytest.mark.parametrize("p", [5, 13, 47, 3_037_000_493])
def test_psi3_f4_arrays_match_ints(p):
    # every (a, b, x) over the small fields; at the largest prime with
    # (p - 1)**2 < 2**63, seeded residues, half of them near p, where an
    # unreduced product of three would overflow int64
    if p < 100:
        a, b, x = (v.ravel() for v in np.indices((p, p, p)))
    else:
        rng = SplitMix64(p)
        a, b, x = (
            np.array([p - 1 - rng.randrange(0, 1000) if i % 2 else rng.randrange(0, p) for i in range(500)])
            for _ in range(3)
        )
    psi3, f4 = _psi3_f4(p, a, b, x)
    assert psi3.dtype == f4.dtype == np.int64
    expected = [_psi3_f4(p, *abx) for abx in zip(a.tolist(), b.tolist(), x.tolist())]
    assert list(zip(psi3.tolist(), f4.tolist())) == expected


@pytest.mark.parametrize("p", [5, 13, 47])
def test_psi_ladder_matches_psi_lane_for_lane(p):
    # every curve, and every point with y != 0 at p <= 13 but every 7th at
    # p = 47 (each curve there keeps 4 to 9; all 99 498 points would take
    # the scalar side about 30 s), in chunks of views mixing curves
    points = [(c, q) for c in all_curves(field(p)) for q in enumerate_points(c) if q is not None and q.y]
    views = [PsiEvaluator(c, q) for c, q in points[:: 7 if p > 13 else 1]]
    for lo in range(0, len(views), 4096):
        chunk = views[lo : lo + 4096]
        got = psi_ladder(chunk, np.arange(1, 65))
        assert got.dtype == np.int64 and got.shape == (len(chunk), 64)
        for row, view in zip(got.tolist(), chunk):
            assert row == [view.psi(n) for n in range(1, 65)], (view.curve, view.point)


@pytest.mark.parametrize(
    "p, dtype",
    [(999_999_937, np.int64), (3_037_000_493, np.int64), (largest_prime_below(1 << 62), object)],
)
def test_psi_ladder_matches_psi_at_large_primes(p, dtype):
    # 9-digit primes as in the random oracle sweep; the largest prime with
    # (p - 1)**2 < 2**63, where an unreduced even term times psi_2^-1 would
    # overflow int64; and a 62-bit prime, on object rows
    rng = SplitMix64(p)
    curves = [random_curve(field(p), rng) for _ in range(3)]
    views = [PsiEvaluator(c, c.random_point(rng, nonzero_y=True)) for c in curves]
    n_max = 2000 if p < 1 << 30 else 300
    got = psi_ladder(views, np.arange(1, n_max + 1))
    assert got.dtype == dtype and got.shape == (3, n_max)
    for row, view in zip(got.tolist(), views):
        assert row == [view.psi(n) for n in range(1, n_max + 1)]
    # seeded lanes n < 2**40, each walking 37 steps from a block k in [0, 8)
    n = np.array([rng.randrange(0, 1 << 40) for _ in range(200)] + list(range(12)) + [(1 << 40) - 1])
    got = psi_ladder(views, n)
    for row, view in zip(got.tolist(), views):
        assert row == [view.psi(k) for k in n.tolist()]


def test_psi_ladder_edges():
    views = [seeded_view(1009, seed) for seed in range(2)]
    assert psi_ladder(views, np.arange(0)).shape == (2, 0)
    assert psi_ladder([], np.arange(5)).shape == (0, 5)
    assert psi_ladder(views, np.array([0, 1])).tolist() == [[0, 1], [0, 1]]
    with pytest.raises(ValueError, match="one prime"):
        psi_ladder([*views, seeded_view(1013, 0)], np.arange(10))
    with pytest.raises(ValueError, match="n >= 0"):
        psi_ladder(views, np.array([5, -1]))


def test_index_guard(f5_view):
    # the ladder and the x-only evaluator take one step per bit of n; a fixed
    # guard refuses indices past 2**512 in both
    period = sequence_period(f5_view).total
    assert f5_view.psi(2**511) == f5_view.psi(2**511 % period)
    assert f5_view.psi(INDEX_LIMIT - 1) == f5_view.psi((INDEX_LIMIT - 1) % period)
    for n in (INDEX_LIMIT, -INDEX_LIMIT, 2**1000):
        with pytest.raises(ValueError, match="guarded"):
            f5_view.psi(n)
        with pytest.raises(ValueError, match="guarded"):
            x_only_psi(f5_view.curve, f5_view.point.x, n)


def test_deep_index_needs_no_recursion(f5_view):
    # a fresh evaluator, so that no earlier call has left anything behind
    fresh = PsiEvaluator(f5_view.curve, f5_view.point)
    n = (1 << 511) - 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        got = fresh.psi(n)
    finally:
        sys.setrecursionlimit(limit)
    assert got == f5_view.psi(n % sequence_period(f5_view).total)


def test_random_queries_keep_memory_flat():
    p = largest_prime_below(1 << 62)
    rng = SplitMix64(11)
    curve = random_curve(field(p), rng)
    ev = PsiEvaluator(curve, curve.random_point(rng, nonzero_y=True))
    indices = [rng.randrange(1 << 61, 1 << 62) for _ in range(1000)]
    ev.psi(indices[0])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in indices:
            ev.psi(n)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024


def test_x_only_matches_full_evaluator(f5_view):
    p = f5_view.curve.p
    y = f5_view.point.y
    for n in range(-20, 41):
        f = x_only_psi(f5_view.curve, f5_view.point.x, n)
        expected = f if n % 2 else f * y % p
        assert f5_view.psi(n) == expected


def test_x_only_deep_index_needs_no_recursion(f5_view):
    n = (1 << 511) - 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        got = x_only_psi(f5_view.curve, f5_view.point.x, n)
    finally:
        sys.setrecursionlimit(limit)
    assert got == f5_view.psi(n)  # odd n: psi_n = f_n(x)


def test_x_only_values_frozen():
    # f_n(x0) for n in [-50, 2000] on two curves, hashed from the recursive
    # evaluator the index-listing walk replaced
    vals = []
    for p, a, b, x0 in ((1009, 11, 17, 1), (999_999_937, 5, 7, 123_456)):
        curve = EllipticCurve(field(p), a, b)
        vals += [x_only_psi(curve, x0, n) for n in range(-50, 2001)]
    assert (
        hashlib.sha256(",".join(map(str, vals)).encode()).hexdigest()
        == "33fec9998575727860f7a0be1952a37102363346b1acee8ad2cd6be145499bb2"
    )


def test_x_only_works_at_two_torsion():
    curve = EllipticCurve(field(13), -1, 0)
    # (0, 0) is 2-torsion; the y-free part must still evaluate
    vals = [x_only_psi(curve, 0, n) for n in range(1, 8)]
    assert vals[0] == 1
    assert all(0 <= v < 13 for v in vals)
    # psi_2k((0,0)) = y * f = 0: the y factor kills even indices;
    # odd indices must match the symbolic oracle
    from edschar.symbolic import division_poly_tower, psi_symbolic

    tower = division_poly_tower(curve, 7)
    for n in range(1, 8, 2):
        assert vals[n - 1] == psi_symbolic(curve, Point(0, 0), n, tower)


# -- index-product identity --------------------------------------------------------------


def test_index_product_trivial_and_frozen(f5_view):
    assert verify_index_product(f5_view, 1, 5)
    # (n, m) = (2, 2): psi_4(P) = psi_2([2]P) * psi_2(P)^4
    q = f5_view.curve.mul(2, f5_view.point)
    lhs = f5_view.psi(4)
    rhs = 2 * q.y % 5 * pow(f5_view.psi(2), 4, 5) % 5
    assert lhs == rhs
    assert verify_index_product(f5_view, 2, 2)


def test_index_product_infinity_branch(f5_view):
    r = f5_view.r
    for n in (1, 2, 3):
        assert verify_index_product(f5_view, n, r)
        assert verify_index_product(f5_view, n, 2 * r)


def test_index_product_two_torsion_branch():
    # find a small view whose point has even order, so [r/2]P is 2-torsion
    for a in range(13):
        for b in range(13):
            if (4 * a**3 + 27 * b**2) % 13 == 0:
                continue
            curve = EllipticCurve(field(13), a, b)
            for pt in enumerate_points(curve):
                if pt is None or pt.y == 0:
                    continue
                r = point_order(curve, pt)
                if r % 2 == 0 and r >= 4:
                    view = EdsView(curve, pt, r=r)
                    m = r // 2
                    assert curve.mul(m, pt).y == 0
                    for n in (1, 2, 3, 4, 5):
                        assert verify_index_product(view, n, m)
                    return
    raise AssertionError("no even-order point found over F_13")


def test_index_product_random(f5_view):
    rng = random.Random(3)
    for _ in range(100):
        n, m = rng.randrange(1, 60), rng.randrange(1, 60)
        assert verify_index_product(f5_view, n, m)


def test_index_product_rejects_bad_arguments(f5_view):
    with pytest.raises(ValueError):
        verify_index_product(f5_view, 0, 3)
    with pytest.raises(ValueError):
        verify_index_product(f5_view, 3, 0)


# -- exact sequence period ------------------------------------------------------------


def _brute_period(view, cap=3000):
    """Least multiple T of r with psi_{n+T} = psi_n on a long window."""
    probe = 3 * view.r + 5
    w = psi_window(view, cap + probe)
    for t in range(view.r, cap + 1, view.r):
        if all(w[n + t] == w[n] for n in range(1, probe)):
            return t
    raise AssertionError("no period found below the cap")


def test_sequence_period_matches_brute_force(f5_view, f5_r7_view):
    for view in (f5_view, f5_r7_view):
        sp = sequence_period(view, spot_checks=100, seed=1)
        assert sp.total == _brute_period(view)
        assert sp.total == view.r * sp.shift_steps
        assert sp.total % view.r == 0
        assert sp.total <= view.r * (view.curve.p - 1)


def test_least_shift_brute_force():
    divs = divisors(720)
    for a in divs:
        for b in divs:
            brute = next(s for s in range(a, a * b + 1, a) if s * s % b == 0)
            assert least_shift(a, b) == brute, (a, b)


def test_sequence_period_r7_value(f5_r7_view):
    # a = 1, b = 4, ord(4) = 2 mod 5  ->  s0 = 2, T = 14
    assert sequence_period(f5_r7_view).total == 14


def test_sequence_period_minimality_brute(f5_view):
    sp = sequence_period(f5_view)
    w = psi_window(f5_view, 2 * sp.total + 10)
    for t in range(f5_view.r, sp.total, f5_view.r):
        assert any(w[n + t] != w[n] for n in range(1, f5_view.r + 3))


# -- concurrency contract ---------------------------------------------------------------


def test_concurrent_evaluation_consistent(f5_view):
    view = EdsView(f5_view.curve, f5_view.point)  # its own view; evaluators keep no state
    indices = list(range(1, 400))
    expected = [f5_view.psi(n) for n in indices]
    rng = random.Random(0)
    shuffled = indices[:]
    rng.shuffle(shuffled)
    with ThreadPoolExecutor(max_workers=4) as pool:
        got = dict(zip(shuffled, pool.map(view.psi, shuffled)))
    assert [got[n] for n in indices] == expected
