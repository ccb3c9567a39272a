"""Prime-field arithmetic with quadratic and higher-order multiplicative characters.

Field elements are plain Python ints kept in canonical form ``0 <= x < p``.
Keeping elements unwrapped (no element class) matters here: the sequence
generators in :mod:`edschar.eds` run millions of multiply/reduce steps in
tight loops, and attribute dispatch would dominate the runtime.  The
:class:`PrimeField` object carries the modulus, derived constants and lazy
caches (quadratic-character, discrete-log and 1/x tables, factorization of
p-1, primitive root, one order-d root table per character order d).
The tables live on the field and are freed with it; :func:`field` keeps
the FIELD_CACHE_SIZE most recently used fields (at p near 10**6 a field's chi
table is 1 MiB, its 1/x table 4 MiB).
"""

from __future__ import annotations

import bisect
import cmath
import functools
import math

import numpy as np

MAX_MODULUS = 1 << 62

# Deterministic Miller-Rabin witness set for n < 2**64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)

# Quadratic-character and discrete-log lookup tables are built lazily for
# moduli up to this bound; above it chi falls back to an Euler-criterion pow
# per call, and arrays of characters to one square-and-multiply (pow_array).
# Order-d root tables are guarded at d up to the same bound.
_CHI_TABLE_MAX = 1 << 22

FIELD_CACHE_SIZE = 32  # fields shared by field(), least recently used evicted

# primes_in sieves while its base primes, up to isqrt(hi), stay below this
# bound (148 933 of them), in blocks of SIEVE_BLOCK cells (1 MB each)
SIEVE_BASE_MAX = 2_000_000
SIEVE_BLOCK = 1 << 20


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin test, deterministic for n < 2**64."""
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Return a nontrivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    seed = 1
    while True:
        seed += 1
        y, c, m = seed, seed + 1, 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}.

    Trial division by small primes, then Pollard rho on remaining cofactors.
    Intended for the desk-scale moduli this package works at (n < 2**63).
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    for q in _SMALL_PRIMES:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    q = 59
    while q * q <= n and q < 10_000:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 2
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for q, e in factorize(n).items():
        divs = [d * q**k for d in divs for k in range(e + 1)]
    return sorted(divs)


class PrimeField:
    """Arithmetic context for F_p, p an odd prime with 3 < p < 2**62."""

    __slots__ = (
        "p",
        "half",
        "_chi_table",
        "_inverse_table",
        "_p1_factors",
        "_primitive_root",
        "_nonresidue",
        "_root_tables",
        "_dlog_tables",
    )

    def __init__(self, p: int):
        if not isinstance(p, int):
            raise ValueError("modulus must be an int")
        if p <= 3 or p >= MAX_MODULUS:
            raise ValueError(f"modulus must satisfy 3 < p < 2**62, got {p}")
        if not is_probable_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self.half = (p - 1) // 2
        self._chi_table: np.ndarray | None = None
        self._inverse_table: np.ndarray | None = None
        self._p1_factors: dict[int, int] | None = None
        self._primitive_root: int | None = None
        self._nonresidue: int | None = None
        self._root_tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._dlog_tables: tuple[np.ndarray, np.ndarray] | None = None

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    # -- quadratic character -------------------------------------------------

    def chi(self, x: int) -> int:
        """Quadratic character of x: +1 on nonzero squares, -1 otherwise, 0 at 0."""
        x %= self.p
        table = self._chi_table
        if table is not None:
            return int(table[x])
        t = pow(x, self.half, self.p)
        if t <= 1:
            return t
        return -1

    def chi_table(self) -> np.ndarray:
        """int8 lookup table of the quadratic character, length p (small p only)."""
        if self._chi_table is None:
            p = self.p
            if p > _CHI_TABLE_MAX:
                raise ValueError(f"chi table guarded at p <= {_CHI_TABLE_MAX}")
            # x and p - x have the same square, so x <= (p - 1) / 2 reach every
            # nonzero square; squared in place, 4 B per table entry
            squares = np.arange(1, (p + 1) // 2, dtype=np.int64)
            np.multiply(squares, squares, out=squares)
            np.remainder(squares, p, out=squares)
            table = np.full(p, -1, dtype=np.int8)
            table[squares] = 1
            table[0] = 0
            self._chi_table = table
        return self._chi_table

    def chi_array(self, values: np.ndarray) -> np.ndarray:
        """chi over an array of canonical residues, as int8: a chi_table
        gather for p <= 2**22, else (-1)^j from dchar_exponent_array(values, 2)."""
        if self.p <= _CHI_TABLE_MAX:
            return self.chi_table()[values]
        exps = self.dchar_exponent_array(values, 2)
        return np.where(exps < 0, 0, 1 - 2 * exps).astype(np.int8)

    def inverse_table(self) -> np.ndarray:
        """int32 lookup table of 1/x mod p, length p, entry 0 unused (small p only)."""
        if self._inverse_table is None:
            p = self.p
            if p > _CHI_TABLE_MAX:
                raise ValueError(f"inverse table guarded at p <= {_CHI_TABLE_MAX}")
            xs = np.arange(p, dtype=np.int64)
            self._inverse_table = pow_array(xs, p - 2, p).astype(np.int32)
        return self._inverse_table

    def sqrt(self, x: int) -> int | None:
        """A square root of x in F_p (the smaller of the pair), or None.

        Tonelli-Shanks; the p % 4 == 3 case short-circuits to a single pow.
        """
        p = self.p
        x %= p
        if x == 0:
            return 0
        if self.chi(x) != 1:
            return None
        if p % 4 == 3:
            r = pow(x, (p + 1) // 4, p)
            return min(r, p - r)
        # write p-1 = q * 2^s with q odd
        q = p - 1
        s = (q & -q).bit_length() - 1
        q >>= s
        c = pow(self.nonresidue(), q, p)
        r = pow(x, (q + 1) // 2, p)
        t = pow(x, q, p)
        m = s
        while t != 1:
            t2 = t
            i = 0
            while t2 != 1:
                t2 = t2 * t2 % p
                i += 1
            b = pow(c, 1 << (m - i - 1), p)
            r = r * b % p
            c = b * b % p
            t = t * c % p
            m = i
        return min(r, p - r)

    def nonresidue(self) -> int:
        """Smallest quadratic nonresidue of F_p."""
        if self._nonresidue is None:
            z = 2
            while self.chi(z) != -1:
                z += 1
            self._nonresidue = z
        return self._nonresidue

    # -- multiplicative structure -------------------------------------------

    def p1_factors(self) -> dict[int, int]:
        if self._p1_factors is None:
            self._p1_factors = factorize(self.p - 1)
        return self._p1_factors

    def element_order(self, x: int) -> int:
        """Multiplicative order of x != 0."""
        if x % self.p == 0:
            raise ValueError("0 has no multiplicative order")
        order = self.p - 1
        for q in self.p1_factors():
            while order % q == 0 and pow(x, order // q, self.p) == 1:
                order //= q
        return order

    def primitive_root(self) -> int:
        """Smallest generator of F_p^*."""
        if self._primitive_root is None:
            p = self.p
            exps = [(p - 1) // q for q in self.p1_factors()]
            g = 2
            while any(pow(g, e, p) == 1 for e in exps):
                g += 1
            self._primitive_root = g
        return self._primitive_root

    def dlog_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(log, pow) int32 tables for the smallest primitive root g (small p only).

        log[x] = ind_g(x) for x != 0 and log[0] = -1; pow[i] = g^i for i < p - 1.
        """
        if self._dlog_tables is None:
            p = self.p
            if p > _CHI_TABLE_MAX:
                raise ValueError(f"discrete-log tables guarded at p <= {_CHI_TABLE_MAX}")
            pow_arr = _powers(self.primitive_root(), p - 1, p).astype(np.int32)
            log_arr = np.full(p, -1, dtype=np.int32)
            log_arr[pow_arr] = np.arange(p - 1, dtype=np.int32)
            self._dlog_tables = (log_arr, pow_arr)
        return self._dlog_tables

    # -- order-d characters ----------------------------------------------------

    def _check_order(self, d: int) -> None:
        if d < 1 or (self.p - 1) % d != 0:
            raise ValueError(f"character order {d} must divide p - 1 = {self.p - 1}")

    def _root_table(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """(roots, exps): the order-d roots of unity g_d^j, g_d = g^((p-1)/d)
        for the smallest primitive root g, as a sorted int64 array, and each
        root's exponent j at the same position."""
        table = self._root_tables.get(d)
        if table is None:
            self._check_order(d)
            if d > _CHI_TABLE_MAX:
                raise ValueError(f"order-d root table guarded at d <= {_CHI_TABLE_MAX}")
            roots = _powers(pow(self.primitive_root(), (self.p - 1) // d, self.p), d, self.p)
            exps = np.argsort(roots)
            table = self._root_tables[d] = (roots[exps], exps)
        return table

    def dchar_exponent(self, x: int, d: int) -> int | None:
        """Exponent j < d with chi_d(x) = e^(2*pi*i*j/d), or None at x = 0.

        Equals ind_g(x) mod d for the smallest primitive root g.  Computed by
        projecting x onto the order-d subgroup (one pow) and finding the
        projection in the order-d root table by bisection, so no discrete
        logarithm is needed.
        """
        roots, exps = self._root_table(d)
        x %= self.p
        if x == 0:
            return None
        return exps.item(bisect.bisect_left(roots, pow(x, (self.p - 1) // d, self.p)))

    def dchar_exponent_array(self, values: np.ndarray, d: int) -> np.ndarray:
        """dchar_exponent over an array of canonical residues, as int64 with
        -1 at zeros.

        p <= 2**22: ind_g(x) mod d gathered from dlog_tables.  Otherwise the
        projections x^((p-1)/d), by one square-and-multiply over int64 values
        or one pow per value of an object array (p too large for int64
        products), are matched in the order-d root table.
        """
        p = self.p
        if p <= _CHI_TABLE_MAX:
            self._check_order(d)
            logs = self.dlog_tables()[0][values]
            return np.where(logs < 0, -1, logs % d).astype(np.int64)
        roots, exps = self._root_table(d)
        e = (p - 1) // d
        if values.dtype == object:
            proj = np.array([pow(x, e, p) for x in values.tolist()], dtype=np.int64)
        else:
            proj = pow_array(values, e, p)
        out = exps[np.searchsorted(roots, proj).clip(max=d - 1)]
        out[proj == 0] = -1
        return out

    def order_d_character(self, x: int, d: int) -> complex:
        """Multiplicative character of exact order d at x (0 at x = 0).

        d = 2 coincides with the quadratic character; d = 1 is principal.
        """
        j = self.dchar_exponent(x, d)
        if j is None:
            return 0j
        if 2 * j == d:
            return complex(-1.0)
        return cmath.exp(2j * cmath.pi * j / d)


def _powers(g: int, n: int, p: int) -> np.ndarray:
    """g^i mod p for i < n as int64, by doubling: entries [k, 2k) are g^k
    times entries [0, k), taken in blocks of at most 2**16 array products (of
    Python ints where int64 products could overflow; the blocks bound the
    memory those take)."""
    dtype = np.int64 if (p - 1) ** 2 < 1 << 63 else object
    out = np.ones(n, dtype=np.int64)
    k, gk = 1, g % p
    while k < n:
        for lo in range(0, min(k, n - k), 1 << 16):
            hi = min(lo + (1 << 16), k, n - k)
            out[k + lo : k + hi] = out[lo:hi].astype(dtype) * gk % p
        k, gk = 2 * k, gk * gk % p
    return out


def pow_array(values: np.ndarray, e: int, p: int) -> np.ndarray:
    """values^e mod p elementwise for an int64 array of residues, by one
    square-and-multiply over the whole array, in place on two arrays of its
    length; needs (p - 1)**2 < 2**63."""
    out = np.ones_like(values)
    base = values.copy()
    while e:
        if e & 1:
            np.multiply(out, base, out=out)
            np.remainder(out, p, out=out)
        e >>= 1
        if e:
            np.multiply(base, base, out=base)
            np.remainder(base, p, out=base)
    return out


@functools.lru_cache(maxsize=FIELD_CACHE_SIZE)
def field(p: int) -> PrimeField:
    """Shared PrimeField instance per modulus (reuses lazy tables across callers)."""
    return PrimeField(p)


def primes_in(lo: int, hi: int) -> list[int]:
    """Primes in [lo, hi], ascending.  While isqrt(hi) <= SIEVE_BASE_MAX, the
    segment is sieved SIEVE_BLOCK cells at a time by the primes up to
    isqrt(hi), found the same way; above that, a Miller-Rabin scan."""
    lo = max(lo, 2)
    if hi < lo:
        return []
    root = math.isqrt(hi)
    if root > SIEVE_BASE_MAX:
        return [n for n in range(lo, hi + 1) if is_probable_prime(n)]
    base = primes_in(2, root)
    out: list[int] = []
    for start in range(lo, hi + 1, SIEVE_BLOCK):
        stop = min(start + SIEVE_BLOCK, hi + 1)
        seg = np.ones(stop - start, dtype=bool)
        for q in base:
            if q * q >= stop:
                break
            seg[max(q * q, -(-start // q) * q) - start :: q] = False
        out += (np.flatnonzero(seg) + start).tolist()
    return out
