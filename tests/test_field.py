"""Prime-field arithmetic, quadratic and order-d characters."""

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from edschar.field import (
    PrimeField,
    _powers,
    divisors,
    factorize,
    field,
    is_probable_prime,
    pow_array,
    primes_in,
)

F5 = field(5)
F7 = field(7)
F97 = field(97)
F1009 = field(1009)


# -- construction ----------------------------------------------------------------


@pytest.mark.parametrize("bad", [0, 1, 2, 3, 4, 9, 15, 21, 1 << 62, (1 << 62) + 2])
def test_rejects_bad_modulus(bad):
    with pytest.raises(ValueError):
        PrimeField(bad)


def test_accepts_large_prime_below_cap():
    p = (1 << 61) - 1  # Mersenne prime
    assert PrimeField(p).p == p


def test_field_cache_returns_same_instance():
    assert field(13) is field(13)
    assert field(13) == PrimeField(13)


# -- quadratic character -----------------------------------------------------------


def test_chi_mod_5_frozen():
    squares = {x * x % 5 for x in range(5)}
    assert squares == {0, 1, 4}
    assert F5.chi(0) == 0
    assert F5.chi(4) == 1
    assert F5.chi(2) == -1
    assert F5.chi(7) == F5.chi(2)  # canonicalizes the input


def test_chi_against_square_enumeration():
    for p in (5, 7, 13, 17, 97):
        f = field(p)
        squares = {x * x % p for x in range(1, p)}
        for x in range(p):
            expected = 0 if x == 0 else (1 if x in squares else -1)
            assert f.chi(x) == expected


def test_chi_table_matches_chi():
    f = field(13)
    table = f.chi_table()
    assert table.dtype == np.int8
    assert [int(table[x]) for x in range(13)] == [f.chi(x) for x in range(13)]


def test_chi_table_guard():
    p = 4_194_319  # first prime above 2**22
    with pytest.raises(ValueError):
        field(p).chi_table()
    with pytest.raises(ValueError):
        field(p).dlog_tables()


def test_chi_multiplicative_exhaustive_up_to_100():
    for p in primes_in(5, 100):
        table = field(p).chi_table().astype(np.int64)
        xs = np.arange(p, dtype=np.int64)
        prod_table = table[np.outer(xs, xs) % p]
        assert np.array_equal(prod_table, np.outer(table, table))


def test_chi_of_square_is_one():
    f = F97
    assert all(f.chi(x * x) == 1 for x in range(1, 97))


def test_residue_nonresidue_counts_balance():
    for p in primes_in(5, 1000):
        table = field(p).chi_table()
        assert int((table == 1).sum()) == (p - 1) // 2
        assert int((table == -1).sum()) == (p - 1) // 2
        assert int(table[0]) == 0


@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=10**9))
def test_chi_multiplicative_random_large(x, y):
    f = F1009
    assert f.chi(x * y) == f.chi(x) * f.chi(y)


# -- square roots -------------------------------------------------------------------


@pytest.mark.parametrize("p", [7, 11, 13, 17, 41, 73, 97, 1009])
def test_sqrt_exhaustive(p):
    f = field(p)
    for x in range(p):
        root = f.sqrt(x)
        if f.chi(x) == -1:
            assert root is None
        else:
            assert root is not None
            assert root * root % p == x
            assert root <= p - root or x == 0  # smaller of the pair


def test_sqrt_of_zero():
    assert F97.sqrt(0) == 0


def test_nonresidue_searched_once_per_field(monkeypatch):
    # 1009 = 1 mod 8, so every sqrt runs Tonelli-Shanks with the smallest
    # nonresidue z; each call costs one chi (x is a square), the search for z
    # costs z - 1 once, on the first call
    p = 1009
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    assert z == 11
    calls = []
    chi = PrimeField.chi
    monkeypatch.setattr(PrimeField, "chi", lambda self, x: calls.append(x) or chi(self, x))
    f = PrimeField(p)  # a fresh field: nothing cached yet
    roots = [f.sqrt(x * x) for x in range(1, 101)]
    assert roots == [min(x, p - x) for x in range(1, 101)]
    assert len(calls) == 100 + (z - 1)
    assert f.nonresidue() == z and len(calls) == 100 + (z - 1)
    assert F97.nonresidue() == 5 and F7.nonresidue() == 3


# -- multiplicative structure ---------------------------------------------------------


def test_element_order_basics():
    assert F97.element_order(1) == 1
    assert F97.element_order(96) == 2  # -1
    g = F97.primitive_root()
    assert F97.element_order(g) == 96
    for x in range(1, 97):
        order = F97.element_order(x)
        assert 96 % order == 0
        assert pow(x, order, 97) == 1
        assert all(pow(x, order // q, 97) != 1 for q in factorize(order))


def test_element_order_of_zero_raises():
    with pytest.raises(ValueError):
        F97.element_order(0)


def test_primitive_root_smallest():
    assert F7.primitive_root() == 3  # 2 has order 3 mod 7
    assert field(13).primitive_root() == 2
    assert F5.primitive_root() == 2


def test_dlog_tables_invert_powers_of_primitive_root():
    log_arr, pow_arr = F7.dlog_tables()  # g = 3
    assert pow_arr.tolist() == [1, 3, 2, 6, 4, 5]
    assert log_arr.tolist() == [-1, 0, 2, 1, 4, 5, 3]
    assert F7.dlog_tables() is F7.dlog_tables()  # cached on the field


def test_dlog_tables_baby_giant_matches_repeated_multiplication():
    for p in (5, 13, 1009, 23417):  # 23417 - 1 is not a square
        f = field(p)
        g = f.primitive_root()
        log_arr, pow_arr = f.dlog_tables()
        assert log_arr.dtype == pow_arr.dtype == np.int32
        powers = [1]
        for _ in range(p - 2):
            powers.append(powers[-1] * g % p)
        assert pow_arr.tolist() == powers
        assert log_arr[pow_arr].tolist() == list(range(p - 1))
        assert log_arr[0] == -1


def test_powers_match_repeated_multiplication():
    # several 2**16-entry blocks per doubling step, in int64 and in Python ints
    n = 200_003
    for p, g in ((3_037_000_493, 2), ((1 << 62) - 57, 3)):
        got = _powers(g, n, p)
        assert got.dtype == np.int64
        powers = [1]
        for _ in range(n - 1):
            powers.append(powers[-1] * g % p)
        assert got.tolist() == powers


def test_pow_array_at_the_int64_bound():
    p = 3_037_000_493  # the largest prime with (p - 1)**2 < 2**63
    xs = [0, 1, 2, p - 1, p - 2, 123_456_789, 2_999_999_999]
    for e in (0, 1, 2, (p - 1) // 2, p - 2, p - 1):
        got = pow_array(np.array(xs, dtype=np.int64), e, p).tolist()
        assert got == [pow(x, e, p) for x in xs]


# -- order-d characters ----------------------------------------------------------------


def test_order_d_rejects_non_divisor():
    with pytest.raises(ValueError):
        F7.order_d_character(2, 4)  # 4 does not divide 6
    with pytest.raises(ValueError):
        F7.dchar_exponent(2, 5)


def test_order_d_root_table_guard():
    f = field(4_194_319)  # p - 1 = 4_194_318 > 2**22
    with pytest.raises(ValueError, match="order-d root table guarded at d <= 4194304"):
        f.dchar_exponent(3, 4_194_318)
    with pytest.raises(ValueError, match="order-d root table guarded"):
        f.dchar_exponent_array(np.array([3], dtype=np.int64), 4_194_318)
    assert f.dchar_exponent(3, 699_053) is not None  # p - 1 = 6 * 699053


def test_order_3_character_mod_7_frozen():
    # powers of the smallest primitive root 3 mod 7: 1, 3, 2, 6, 4, 5
    # so ind_3(2) = 2 and the order-3 character of 2 is e^(2*pi*i*2/3)
    assert F7.dchar_exponent(2, 3) == 2
    val = F7.order_d_character(2, 3)
    assert cmath.isclose(val, cmath.exp(2j * cmath.pi * 2 / 3), rel_tol=1e-12)


def test_character_arrays_match_per_value_characters():
    # table gathers (p <= 2**22), int64 square-and-multiply, and the per-term
    # path for object arrays (p too large for int64 products)
    for p, d in ((1009, 4), (4_194_319, 3), (3_037_000_493, 2), ((1 << 62) - 57, 2)):
        f = field(p)
        rng = random.Random(p)
        xs = [0, 1, p - 1] + [rng.randrange(p) for _ in range(200)]
        arr = np.array(xs, dtype=np.int64 if (p - 1) ** 2 < 1 << 63 else object)
        got = f.dchar_exponent_array(arr, d)
        assert got.dtype == np.int64
        want = [f.dchar_exponent(x, d) for x in xs]
        assert got.tolist() == [-1 if j is None else j for j in want]
        chis = f.chi_array(arr)
        assert chis.dtype == np.int8
        assert chis.tolist() == [f.chi(x) for x in xs]
    with pytest.raises(ValueError):
        F7.dchar_exponent_array(np.arange(7), 4)  # 4 does not divide 6


def test_order_d_character_at_zero_and_one():
    for d in (1, 2, 3, 6):
        assert F7.order_d_character(0, d) == 0
        assert F7.order_d_character(1, d) == 1


def test_order_2_character_equals_chi():
    rng = random.Random(0)
    f = F1009
    for _ in range(200):
        x = rng.randrange(0, 1009)
        assert f.order_d_character(x, 2) == complex(f.chi(x))


def test_order_d_multiplicative_exhaustive():
    f = field(13)
    for d in (2, 3, 4, 6, 12):
        for x in range(1, 13):
            for y in range(1, 13):
                lhs = f.order_d_character(x * y % 13, d)
                rhs = f.order_d_character(x, d) * f.order_d_character(y, d)
                assert cmath.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)


def test_order_d_has_exact_order_d_on_primitive_root():
    f = field(13)
    g = f.primitive_root()
    for d in (2, 3, 4, 6, 12):
        assert f.dchar_exponent(g, d) == 1  # a primitive d-th root of unity
        val = f.order_d_character(g, d)
        acc = 1 + 0j
        for k in range(1, d):
            acc *= val
            assert abs(acc - 1) > 0.5
        assert cmath.isclose(acc * val, 1, rel_tol=1e-9, abs_tol=1e-9)


# -- integer utilities -------------------------------------------------------------------


def test_is_probable_prime_vectors():
    assert is_probable_prime(2)
    assert is_probable_prime(3)
    assert is_probable_prime((1 << 61) - 1)
    assert is_probable_prime(999_999_937)
    assert is_probable_prime(1_000_003)
    for composite in (0, 1, 4, 25, 561, 1105, 3215031751, (1 << 62) - 1):
        assert not is_probable_prime(composite)


def test_factorize_frozen():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(561) == {3: 1, 11: 1, 17: 1}
    assert factorize(999_999_937) == {999_999_937: 1}
    assert factorize(1) == {}


def test_factorize_round_trip_random():
    rng = random.Random(1)
    for _ in range(50):
        n = rng.randrange(2, 10**9)
        fac = factorize(n)
        assert math.prod(q**e for q, e in fac.items()) == n
        assert all(is_probable_prime(q) for q in fac)


def test_divisors_sorted():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    for n in (30, 64, 97, 360):
        d = divisors(n)
        assert d == sorted(d)
        assert all(n % x == 0 for x in d)
        assert len(d) == len(set(d))


def test_primes_in_inclusive_frozen():
    assert primes_in(5, 50) == [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]
    assert primes_in(5, 47)[-1] == 47
    assert primes_in(8, 10) == []
