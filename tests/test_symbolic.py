"""Coefficient-space division polynomials vs. the pointwise evaluators."""

import random

import numpy as np
import pytest

from edschar.curve import EllipticCurve
from edschar.eds import PsiEvaluator
from edschar.field import field
from edschar.harness import largest_prime_below
from edschar.symbolic import _diff, _fold, _mul, division_poly_tower, horner, psi_symbolic


def _trim(f):
    """Coefficients as a list without trailing zeros ([] for the zero polynomial)."""
    return [int(c) for c in np.trim_zeros(np.asarray(f), "b")]


def _arr(coeffs, p):
    return np.array([c % p for c in coeffs], dtype=np.int64)


# -- coefficient-array arithmetic against a naive dict reference ---------------------


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
    for _ in range(25):
        a = [rng.randrange(p) for _ in range(rng.randrange(1, 9))]
        b = [rng.randrange(p) for _ in range(rng.randrange(1, 9))]
        c = [rng.randrange(p) for _ in range(rng.randrange(1, 9))]
        pa, pb, pc = _arr(a, p), _arr(b, p), _arr(c, p)
        assert _trim(_diff(p, (pa,), (pb,))) == _trim(_naive_sub(a, b, p))
        assert _trim(_diff(p, (pb,), (pa,))) == _trim(_naive_sub(b, a, p))
        assert _trim(_mul(p, pa, pb)) == _trim(_naive_mul(a, b, p))
        abc = _naive_mul(_naive_mul(a, b, p), c, p)
        assert _trim(_mul(p, pa, pb, pc)) == _trim(abc)
        # products of different lengths are aligned before subtracting
        assert _trim(_diff(p, (pa, pb, pc), (pc,))) == _trim(_naive_sub(abc, c, p))


def test_mul_untrimmed_and_zero():
    p = 13
    z = _arr([0, 0, 0], p)
    q = _arr([3, 0, 5, 0, 0], p)  # untrimmed: degree 2 in a length-5 array
    assert _trim(_mul(p, q, z)) == []
    assert _trim(_mul(p, q, _arr([0], p))) == []
    assert _trim(_mul(p, q, _arr([2], p))) == [6, 0, 10]
    assert _trim(_mul(p, q, _arr([-1], p))) == [10, 0, 8]
    assert _trim(_mul(p, q, _arr([1, 1], p))) == [3, 3, 5, 5]
    for f in (_mul(p, q, q), _diff(p, (q,), (z,))):
        assert f.dtype == np.int64 and int(f.min()) >= 0 and int(f.max()) < p


def test_horner_scalar_and_array():
    p = 101
    rng = random.Random(5)
    coeffs = [rng.randrange(p) for _ in range(12)]
    q = _arr(coeffs, p)
    xs = np.array([0, 1, 2, 57, 100], dtype=np.int64)
    want = [sum(c * pow(int(x0), i, p) for i, c in enumerate(coeffs)) % p for x0 in xs]
    assert [horner(q, int(x0), p) for x0 in xs] == want
    assert type(horner(q, 57, p)) is int
    grid = horner(q, xs.reshape(5, 1), p)
    assert grid.shape == (5, 1) and grid.ravel().tolist() == want


def test_tower_overflow_guard_is_named():
    # above (p - 1)^2 < 2^63 / 4 the first product (C^2) must hit the named
    # guard, not an OverflowError from converting raw coefficients to int64
    big = largest_prime_below(1 << 62)
    for p in (3_037_000_493, big):
        curve = EllipticCurve(field(p), p - 5, p - 7)
        base = division_poly_tower(curve, 4)
        assert [int(c) for c in base[3][1]] == [c % p for c in (-25, -84, -30, 0, 3)]
        with pytest.raises(ValueError, match="overflow int64"):
            division_poly_tower(curve, 5)
    a = _arr([1, 1], big)
    with pytest.raises(ValueError, match="overflow int64"):
        _mul(big, a, a)


def test_fold_preserves_values_on_field():
    p = 13
    rng = random.Random(2)
    coeffs = [rng.randrange(p) for _ in range(3 * p + 2)]
    q = _arr(coeffs, p)
    folded = _fold(q, p)
    assert len(folded) <= p
    for x0 in range(p):
        assert horner(folded, x0, p) == horner(q, x0, p)
    # small polynomials fold to themselves
    small = _arr([1, 2, 3], p)
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
    tower = division_poly_tower(curve, 30, fold=(p == 13))
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


def test_folded_tower_matches_unfolded_everywhere():
    curve = EllipticCurve(field(13), 2, 1)
    plain = division_poly_tower(curve, 15)
    folded = division_poly_tower(curve, 15, fold=True)
    for n in range(16):
        t_plain, f_plain = plain[n]
        t_fold, f_fold = folded[n]
        assert t_plain == t_fold
        assert all(horner(f_plain, x, 13) == horner(f_fold, x, 13) for x in range(13))
        assert len(_trim(f_fold)) <= 13


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
