"""Coefficient-space division polynomials vs. the pointwise evaluators."""

import random

import numpy as np
import pytest

from edschar import symbolic
from edschar.curve import EllipticCurve, all_curves
from edschar.eds import PsiEvaluator
from edschar.field import field
from edschar.harness import largest_prime_below
from edschar.symbolic import (
    _fold,
    _mul,
    _sub,
    division_poly_batch,
    division_poly_tower,
    horner,
    psi_batch,
    psi_symbolic,
)


def _trim(f):
    """Coefficients as a list without trailing zeros ([] for the zero polynomial)."""
    return [int(c) for c in np.trim_zeros(np.asarray(f), "b")]


def _rows(polys, p):
    """A (rows, len) batch: each coefficient list reduced mod p and zero-padded
    to the longest (the arrays are untrimmed, so padding keeps every value)."""
    width = max(len(c) for c in polys)
    return np.array([[c % p for c in cs] + [0] * (width - len(cs)) for cs in polys], dtype=np.int64)


# -- batched coefficient-array arithmetic against a naive dict reference -------------


def _naive_mul(a, b, p):
    out = {}
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = (out.get(i + j, 0) + ca * cb) % p
    n = max(out) + 1 if out else 1
    return [out.get(k, 0) for k in range(n)]


def _naive_sub(a, b, p):
    n = max(len(a), len(b))
    return [((a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)) % p for i in range(n)]


def test_mul_and_diff_match_naive():
    rng = random.Random(11)
    p = 97
    for _ in range(10):
        rows = rng.randrange(1, 7)
        a, b, c = (
            [[rng.randrange(p) for _ in range(rng.randrange(1, 9))] for _ in range(rows)]
            for _ in range(3)
        )
        pa, pb, pc = _rows(a, p), _rows(b, p), _rows(c, p)
        ab, abc = _mul(p, pa, pb), _mul(p, _mul(p, pa, pb), pc)
        assert ab.shape == (rows, pa.shape[1] + pb.shape[1] - 1)
        for i in range(rows):
            want_ab = _naive_mul(a[i], b[i], p)
            want_abc = _naive_mul(want_ab, c[i], p)
            assert _trim(ab[i]) == _trim(want_ab)
            assert _trim(abc[i]) == _trim(want_abc)
            assert _trim(_sub(p, pa, pb)[i]) == _trim(_naive_sub(a[i], b[i], p))
            assert _trim(_sub(p, pb, pa)[i]) == _trim(_naive_sub(b[i], a[i], p))
            # operands of different lengths are aligned before subtracting
            assert _trim(_sub(p, abc, pc)[i]) == _trim(_naive_sub(want_abc, c[i], p))
        # a one-row operand broadcasts over the rows of the other
        one = _mul(p, pa[:1], pb)
        for i in range(rows):
            assert _trim(one[i]) == _trim(_naive_mul(a[0], b[i], p))


def test_mul_untrimmed_and_zero():
    p = 13
    z = _rows([[0, 0, 0]], p)
    q = _rows([[3, 0, 5, 0, 0]], p)  # untrimmed: degree 2 in a length-5 array
    assert _trim(_mul(p, q, z)[0]) == []
    assert _trim(_mul(p, q, _rows([[0]], p))[0]) == []
    assert _trim(_mul(p, q, _rows([[2]], p))[0]) == [6, 0, 10]
    assert _trim(_mul(p, q, _rows([[-1]], p))[0]) == [10, 0, 8]
    assert _trim(_mul(p, q, _rows([[1, 1]], p))[0]) == [3, 3, 5, 5]
    for f in (_mul(p, q, q), _sub(p, q, z)):
        assert f.dtype == np.int64 and int(f.min()) >= 0 and int(f.max()) < p


def test_horner_scalar_and_array():
    p = 101
    rng = random.Random(5)
    coeffs = [[rng.randrange(p) for _ in range(12)] for _ in range(3)]
    rows = _rows(coeffs, p)
    xs = np.array([0, 1, 2, 57, 100], dtype=np.int64)

    def naive(cs, x0):
        return sum(c * pow(int(x0), i, p) for i, c in enumerate(cs)) % p

    want = [naive(coeffs[0], x0) for x0 in xs]
    assert [horner(rows[0], int(x0), p) for x0 in xs] == want
    assert type(horner(rows[0], 57, p)) is int
    grid = horner(rows[0], xs.reshape(5, 1), p)
    assert grid.shape == (5, 1) and grid.ravel().tolist() == want
    # coefficients on the last axis: one row at one point each, or at a column of points
    at = np.array([2, 57, 100], dtype=np.int64)
    assert horner(rows, at, p).tolist() == [naive(coeffs[i], at[i]) for i in range(3)]
    table = horner(rows, xs[:, None], p)
    assert table.shape == (5, 3)
    assert table.tolist() == [[naive(cs, x0) for cs in coeffs] for x0 in xs]


def test_tower_overflow_guard_is_named():
    # at large p the first product (C^2) must hit the named guard, not an
    # OverflowError from converting raw base coefficients to int64
    big = largest_prime_below(1 << 62)
    for p in (3_037_000_493, big):
        curve = EllipticCurve(field(p), p - 5, p - 7)
        base = division_poly_tower(curve, 4)
        assert [int(c) for c in base[3][1]] == [c % p for c in (-25, -84, -30, 0, 3)]
        with pytest.raises(ValueError, match="multiply guarded"):
            division_poly_tower(curve, 5)
    a = _rows([[1, 1]], big)
    with pytest.raises(ValueError, match="multiply guarded"):
        _mul(big, a, a)


def test_static_multiply_bound_is_named():
    # min(len) * (p - 1)^2 < 2^44: the bound moves with the shorter operand
    p = 1_000_003
    short, long = _rows([[1] * 17], p), _rows([[1] * 18], p)
    assert 17 * (p - 1) ** 2 < symbolic.MUL_BOUND <= 18 * (p - 1) ** 2
    assert _trim(_mul(p, short, long)[0])[:3] == [1, 2, 3]
    with pytest.raises(ValueError, match=r"multiply guarded at min\(len\)"):
        _mul(p, long, long)


def test_inexact_fft_product_is_refused(monkeypatch):
    # with the static bound lifted, coefficients near 2^52 come out of the
    # float64 FFT off by whole units; the 1/4 residual check must refuse them
    monkeypatch.setattr(symbolic, "MUL_BOUND", 1 << 200)
    p = largest_prime_below(1 << 24)
    rng = random.Random(3)
    f = _rows([[rng.randrange(p) for _ in range(64)] for _ in range(2)], p)
    with pytest.raises(ValueError, match="not exact"):
        _mul(p, f, f)


def test_fold_preserves_values_on_field():
    p = 13
    rng = random.Random(2)
    coeffs = [[rng.randrange(p) for _ in range(3 * p + 2)] for _ in range(4)]
    rows = _rows(coeffs, p)
    folded = _fold(rows, p) % p
    assert folded.shape == (4, p)
    for x0 in range(p):
        assert horner(folded, x0, p).tolist() == horner(rows, x0, p).tolist()
    # small polynomials fold to themselves
    small = _rows([[1, 2, 3]], p)
    assert _fold(small, p) is small


# -- frozen base polynomials ----------------------------------------------------------


def test_tower_base_entries_frozen():
    curve = EllipticCurve(field(5), 1, 1)
    tower = [(t, f.tolist()) for t, f in division_poly_tower(curve, 4)]
    assert tower[0] == (0, [0])
    assert tower[1] == (0, [1])
    assert tower[2] == (1, [2])
    # 3x^4 + 6Ax^2 + 12Bx - A^2 with A = B = 1, mod 5
    assert tower[3] == (0, [4, 2, 1, 0, 3])
    # 4(x^6 + 5Ax^4 + 20Bx^3 - 5A^2x^2 - 4ABx - 8B^2 - A^3), coefficient of y
    assert tower[4] == (1, [c % 5 for c in (-36, -16, -20, 80, 20, 0, 4)])


# -- the batch against its one-row calls ---------------------------------------------------


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_batch_rows_match_one_row_towers(p):
    curves = list(all_curves(field(p)))
    batch = division_poly_batch(curves, 30)
    assert len(batch) == 31
    for i, curve in enumerate(curves):
        for (t_row, f_row), (t_one, f_one) in zip(division_poly_tower(curve, 30), batch):
            assert t_row == t_one and f_one.shape[0] == len(curves)
            assert np.array_equal(f_one[i], f_row)


def test_psi_batch_matches_psi_symbolic():
    p = 11
    curves = [EllipticCurve(field(p), a, b) for a, b in ((1, 1), (2, 5), (5, 7))]
    pts = [next(q for x in range(p) for q in c.lift_x(x) if q.y != 0) for c in curves]
    vals = psi_batch(curves, pts, division_poly_batch(curves, 20))
    assert vals.shape == (3, 21)
    for i, (curve, pt) in enumerate(zip(curves, pts)):
        one = division_poly_tower(curve, 20)
        assert vals[i].tolist() == [psi_symbolic(curve, pt, n, one) for n in range(21)]
    with pytest.raises(ValueError, match="one prime field"):
        division_poly_batch([curves[0], EllipticCurve(field(13), 1, 1)], 5)


# -- degree and leading-coefficient laws ------------------------------------------------


def test_degrees_and_leading_coefficients():
    curve = EllipticCurve(field(10007), 3, 7)
    tower = division_poly_tower(curve, 20)
    p = 10007
    for n in range(1, 21):
        t, f = tower[n]
        assert t == (0 if n % 2 else 1)
        want_deg = (n * n - 1) // 2 if n % 2 else (n * n - 4) // 2
        coeffs = _trim(f)
        assert len(f) == len(coeffs) == want_deg + 1  # untrimmed length is nominal
        assert coeffs[-1] == n % p


# -- agreement with the pointwise evaluator ----------------------------------------------


@pytest.mark.parametrize("p,a,b", [(13, 2, 1), (97, 5, 3), (1009, 11, 17)])
def test_symbolic_matches_evaluator(p, a, b):
    curve = EllipticCurve(field(p), a, b)
    tower = division_poly_tower(curve, 30)
    # folded mod x^p - x: at p = 13 and 97 the nominal degrees pass p
    assert all(len(f) <= p for _, f in tower)
    checked = 0
    for x in range(p):
        pts = curve.lift_x(x)
        if not pts:
            continue
        for pt in pts[:1]:
            if pt.y == 0:
                continue
            ev = PsiEvaluator(curve, pt)
            for n in range(31):
                assert psi_symbolic(curve, pt, n, tower) == ev.psi(n)
            checked += 1
        if checked >= 6:
            break
    assert checked >= 1


def test_tower_recurrence_spot_check():
    # psi_7 = psi_5 psi_3^3 - psi_2^2 psi_4^3 / y-bookkeeping: verify values only
    curve = EllipticCurve(field(1009), 11, 17)
    tower = division_poly_tower(curve, 12)
    rng = random.Random(9)
    for _ in range(20):
        x = rng.randrange(1009)
        pts = curve.lift_x(x)
        if not pts or pts[0].y == 0:
            continue
        pt = pts[0]
        ev = PsiEvaluator(curve, pt)
        n = rng.randrange(12) + 1
        assert psi_symbolic(curve, pt, n, tower) == ev.psi(n)


def test_int64_dtype_stability():
    curve = EllipticCurve(field(10007), 3, 7)
    tower = division_poly_tower(curve, 16)
    for _, f in tower:
        assert f.dtype == np.int64
        assert int(f.min()) >= 0 and int(f.max()) < 10007
