"""Elliptic divisibility sequences: division-polynomial values along one point.

For an affine point P = (x, y) with y != 0 on y^2 = x^3 + Ax + B, the sequence
psi_n(P) is defined by the closed forms

    psi_0 = 0,  psi_1 = 1,  psi_2 = 2y,
    psi_3 = 3x^4 + 6Ax^2 + 12Bx - A^2,
    psi_4 = 4y(x^6 + 5Ax^4 + 20Bx^3 - 5A^2x^2 - 4ABx - 8B^2 - A^3),

extended to all integers by the index-halving recurrences

    psi_{2m+1} = psi_{m+2} psi_m^3 - psi_{m-1} psi_{m+1}^3,
    psi_{2m} psi_2 = psi_m (psi_{m+2} psi_{m-1}^2 - psi_{m-2} psi_{m+1}^2),

and the sign rule psi_{-n} = -psi_n.  psi_n(P) = 0 exactly when [n]P = O, so
the zero set is the multiples of r = ord(P).

Three evaluation strategies are provided.  :class:`PsiEvaluator` walks an
8-term block of consecutive values down the bits of n with the halving
recurrences (one step per bit, constant memory, no memo and no recursion;
usable for |n| < 2**512); :func:`psi_ladder` runs the same ladder step over
rows of lanes, one lane per (view, index n), every lane walking the same
number of steps (int64 when (p - 1)^2 < 2^63, object dtype above);
:class:`EdsView` is a PsiEvaluator that also holds the point order r, the
order-shift constants and the character windows built from it (so they are
freed with it).  :func:`psi_window` takes any evaluator and applies the same
recurrences bottom-up to build psi_0 .. psi_N as a numpy array, one whole
level of indices per step, dividing only by psi_2 (int64 when
(p - 1)^2 < 2^63, object dtype above); :func:`psi_windows` runs those levels
over one row per point.  The stream :func:`psi_sequence` also takes any
evaluator and advances one index at a time with the four-term recurrence

    psi_{n+2} psi_{n-2} = psi_{n+1} psi_{n-1} psi_2^2 - psi_3 psi_n^2,

taking psi_{n+2} from the ladder where its divisor psi_{n-2} is 0.  The
three must agree termwise; the test suite and the verification harness
cross-check them against each other, against the x-only recursion
:func:`x_only_psi` and against symbolic division-polynomial evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .curve import EllipticCurve, Point, _hasse_interval, point_order
from .field import PrimeField, factorize
from .rng import SplitMix64


INDEX_LIMIT = 1 << 512  # |n| bound: one ladder step per bit


def _check_index(n: int) -> None:
    if not -INDEX_LIMIT < n < INDEX_LIMIT:
        raise ValueError("sequence index guarded at |n| < 2**512")


def _psi3_f4(p: int, a, b, x):
    """(psi_3, f_4) at abscissa x on y^2 = x^3 + ax + b, where psi_4 = y * f_4:
    on ints, or on int64 arrays of residues (a and b per row or shared).  Every
    product is reduced below p**2 before the next, so int64 arrays with
    (p - 1)**2 < 2**63 cannot overflow."""
    x2 = x * x % p
    x3 = x2 * x % p
    x4 = x2 * x2 % p
    aa = a * a % p
    psi3 = (3 * x4 + 6 * (a * x2 % p) + 12 * (b * x % p) - aa) % p
    f4 = 4 * (x3 * x3 % p + 5 * (a * x4 % p) + 20 * (b * x3 % p) - 5 * (aa * x2 % p)
              - 4 * (a * b % p * x % p) - 8 * (b * b % p) - aa * a % p) % p
    return psi3, f4


_BITS = bytes.maketrans(b"01", b"\x00\x01")  # bin() digits to bit values


class _RowInverse:
    """psi_2^-1 per row for _walk on lanes: `e * inv` reduces e mod p first,
    so that int64 products stay below (p - 1)**2 < 2**63.  (On ints that
    reduction would cost the scalar ladder about 5 %.)"""

    __array_ufunc__ = None  # numpy defers `array * inv` to __rmul__

    def __init__(self, inv: np.ndarray, p: int):
        self.inv, self.p = inv, p

    def __rmul__(self, e: np.ndarray) -> np.ndarray:
        return e % self.p * self.inv


class PsiEvaluator:
    """psi_n at a fixed affine point with y != 0, by an 8-term block ladder.

    psi(n) walks the bits of |n| from the top, carrying the block
    [psi_{k-3}, ..., psi_{k+4}] from k to 2k or 2k + 1 by the halving
    formulas: the EDS double-and-add of Shipsey (PhD thesis, 2000) in the
    block form of Stange ("The Tate pairing via elliptic nets", 2007).  One
    step per bit of n, constant memory, no recursion.  The walk starts at the
    seed block at k = n >> shift in [0, 8), shift = bitlen(n) - 3.  The same
    step (_walk) runs on rows of lanes for psi_ladder: there every lane walks
    shift = bitlen(max n) - 3 steps, so small n start at k = 0, from which
    the ladder is valid too (the seed itself is walked 0 -> 1 -> 3 -> 7).

    Safe for concurrent readers: everything the evaluator keeps (psi_2,
    psi_3, psi_4, the inverse of psi_2 and the seed block psi_{-3..11}) is
    fixed at construction, so a call only reads shared state.
    """

    __slots__ = ("curve", "point", "p", "psi2", "psi3", "psi4", "_inv_psi2", "_seed")

    def __init__(self, curve: EllipticCurve, point: Point):
        curve.validate_point(point)
        if point is None:
            raise ValueError("sequence undefined at the point at infinity")
        if point.y == 0:
            raise ValueError(
                f"point {point} is 2-torsion (y = 0); psi_2 = 2y would vanish"
            )
        self.curve = curve
        self.point = point
        p = curve.p
        self.p = p
        psi2 = self.psi2 = 2 * point.y % p
        psi3, f4 = _psi3_f4(p, curve.a, curve.b, point.x)
        self.psi3 = psi3
        psi4 = self.psi4 = point.y * f4 % p
        self._inv_psi2 = pow(psi2, -1, p)
        # psi_{-3..4} by the sign rule is the block at 0; walking it to the
        # block at 7 (0 -> 1 -> 3 -> 7) adds psi_5 .. psi_11
        at_zero = (-psi3 % p, -psi2 % p, p - 1, 0, 1, psi2, psi3, psi4)
        self._seed = at_zero[:7] + self._walk(at_zero, 7, 3, p, self._inv_psi2)

    def psi(self, n: int) -> int:
        """psi_n(P) as a canonical int, for any integer |n| < 2**512."""
        _check_index(n)
        if -4 < n < 12:
            return self._seed[n + 3]
        if n > 0:
            return self._block(n)[3]
        return -self._block(-n)[3] % self.p

    def _block(self, n: int) -> tuple[int, ...]:
        """(psi_{n-3}, ..., psi_{n+4}) for n >= 0: the seed block at the top
        three bits of n, walked down the remaining bits."""
        shift = max(n.bit_length() - 3, 0)
        k = n >> shift
        return self._walk(self._seed[k : k + 8], n, shift, self.p, self._inv_psi2)

    @staticmethod
    def _walk(block, n, steps: int, p: int, inv2):
        """The block at n, from `block` at n >> steps, one step per low bit:
        on ints, or on rows of lanes (n an int64 array of lane indices; the
        eight block entries and inv2 arrays that broadcast with it).

        For the block w at k (w_j = psi_{k-3+j}) let S_j = w_j^2 and
        P_j = w_{j-1} w_{j+1}.  At m = k-3+j the halving formulas read

            psi_{2m+1} = P_{j+1} S_j - P_j S_{j+1},
            psi_{2m} psi_2 = P_{j+1} S_{j-1} - P_{j-1} S_{j+1},

        so S_1..S_6 and P_1..P_6 give T_0..T_8 = psi_{2k-3} .. psi_{2k+5}: the
        block at 2k is T_0..T_7, the block at 2k + 1 is T_1..T_8.  An int walk
        builds only the end term its bit keeps; rows build both and pick per
        lane.  Rows pass inv2 as a _RowInverse, which reduces each even term
        before its product with psi_2^-1, so that int64 lanes with
        (p - 1)**2 < 2**63 cannot overflow.
        """
        rows = isinstance(n, np.ndarray)
        if rows:
            bits = [(n >> i) & 1 for i in range(steps - 1, -1, -1)]
        else:  # n's low `steps` bits from the top, as bytes 0 and 1: cheaper than a shift a step
            bits = bin(n & ((1 << steps) - 1) | 1 << steps)[3:].encode().translate(_BITS)
        w0, w1, w2, w3, w4, w5, w6, w7 = block
        for bit in bits:
            s1, s2, s3 = w1 * w1 % p, w2 * w2 % p, w3 * w3 % p
            s4, s5, s6 = w4 * w4 % p, w5 * w5 % p, w6 * w6 % p
            p1, p2, p3 = w0 * w2 % p, w1 * w3 % p, w2 * w4 % p
            p4, p5, p6 = w3 * w5 % p, w4 * w6 % p, w5 * w7 % p
            t1 = (p3 * s1 - p1 * s3) * inv2 % p
            t2 = (p3 * s2 - p2 * s3) % p
            t3 = (p4 * s2 - p2 * s4) * inv2 % p
            t4 = (p4 * s3 - p3 * s4) % p
            t5 = (p5 * s3 - p3 * s5) * inv2 % p
            t6 = (p5 * s4 - p4 * s5) % p
            t7 = (p6 * s4 - p4 * s6) * inv2 % p
            if rows or not bit:
                t0 = (p2 * s1 - p1 * s2) % p
            if rows or bit:
                t8 = (p6 * s5 - p5 * s6) % p
            if rows:
                terms = (t0, t1, t2, t3, t4, t5, t6, t7, t8)
                picked = (np.where(bit, hi, lo) for lo, hi in zip(terms, terms[1:]))
                w0, w1, w2, w3, w4, w5, w6, w7 = picked
            elif bit:
                w0, w1, w2, w3, w4, w5, w6, w7 = t1, t2, t3, t4, t5, t6, t7, t8
            else:
                w0, w1, w2, w3, w4, w5, w6, w7 = t0, t1, t2, t3, t4, t5, t6, t7
        return w0, w1, w2, w3, w4, w5, w6, w7


class EdsView(PsiEvaluator):
    """A PsiEvaluator that also knows the point order r and the order-shift
    constants.

    The shift constants (a, b) satisfy psi_{sr+k} = a^(ks) b^(s^2) psi_k for
    all s >= 0, k >= 1.  Solving that relation at (s, k) = (1, 1) and (1, 2)
    gives a = psi_{r+2} / (psi_{r+1} psi_2) and b = psi_{r+1}^2 psi_2 /
    psi_{r+2}, so a*b = psi_{r+1}; extending the relation to s = -1 gives the
    equivalent pre-zero form a = psi_{r-1} psi_2 / psi_{r-2},
    b = -psi_{r-1}^2 psi_2 / psi_{r-2}.  Both forms are computed and
    cross-checked at construction.
    """

    __slots__ = ("r", "mult_a", "mult_b", "windows")

    def __init__(self, curve: EllipticCurve, point: Point, r: int | None = None):
        super().__init__(curve, point)
        if r is None:
            r = point_order(curve, point)
        elif not 3 <= r <= _hasse_interval(curve.p)[1]:  # keeps factorize(r) fast
            raise ValueError(f"point order must be in [3, p + 1 + 2 sqrt(p)], got {r}")
        elif any(self.psi(r // q) == 0 for q in factorize(r)):  # [r/q]P = O
            raise ValueError(f"r = {r} is a multiple of the order of {point}")
        self.r = r
        self.windows: dict = {}  # charsum's character windows, one per character
        p, psi2 = self.p, self.psi2
        _, w_b2, w_b1, w_r, w_a1, w_a2, _, _ = self._block(r)
        if w_r != 0:
            raise ValueError(f"psi_{r} != 0 at {point}; r is not the point order")
        if 0 in (w_b1, w_b2, w_a1, w_a2):
            raise AssertionError("psi vanished off the multiples of r")
        self.mult_a = w_b1 * psi2 % p * pow(w_b2, -1, p) % p
        self.mult_b = -w_b1 * self.mult_a % p
        if (
            self.mult_a != w_a2 * pow(w_a1 * psi2 % p, -1, p) % p
            or self.mult_b != w_a1 * w_a1 % p * psi2 % p * pow(w_a2, -1, p) % p
        ):
            raise AssertionError(f"shift-constant forms disagree at {point}")

    # the repr from (p, a, b, x, y, r), also for sweep rows that fail these checks
    LABEL = "EdsView(p={}, a={}, b={}, point=({},{}), r={})"

    def __repr__(self) -> str:
        c, q = self.curve, self.point
        return self.LABEL.format(self.p, c.a, c.b, q.x, q.y, self.r)

    @property
    def window_length(self) -> int:
        """R = 2r, the canonical character-sequence window."""
        return 2 * self.r


def _halve(a, b, c, d, e, p: int, inv2: int):
    """(psi_{2m}, psi_{2m+1}) from psi_{m-2}, .., psi_{m+2}: the halving
    formulas, on ints or on numpy arrays of the same length.  Every product
    is reduced below p**2 before the next, so int64 arrays with
    (p - 1)**2 < 2**63 cannot overflow."""
    even = c * ((e * b % p * b - a * d % p * d) % p) % p * inv2 % p
    odd = (e * c % p * c % p * c - b * d % p * d % p * d) % p
    return even, odd


# levels m below this run on Python ints, where numpy's per-call overhead
# loses: at p in {101, 997, 9973} the head makes psi_window about 4x faster
# at n = 50 and 15-25 % faster at n = 2r of 754 and 2012.  Its users build
# one window per view: the oracle sweeps and scan (and query's sums)
SCALAR_LEVELS = 64


def _levels(out: np.ndarray, lo: int, half: int, p: int, inv2) -> None:
    """Levels m in [lo, half] along the first axis of `out` (first, so that a
    lone window's slices stay plain; columns are points, inv2 then a row),
    given psi_0 .. psi_{max(2 lo - 1, 4)}: each step runs all m in
    [lo, max(2 lo - 3, lo)], whose inputs up to psi_{m+2} are built."""
    while lo <= half:
        hi = min(max(2 * lo - 3, lo), half)
        even, odd = _halve(*(out[lo + j : hi + j + 1] for j in range(-2, 3)), p, inv2)
        out[2 * lo : 2 * hi + 1 : 2] = even
        out[2 * lo + 1 : 2 * hi + 2 : 2] = odd
        lo = hi + 1


def psi_window(ev: PsiEvaluator, n_max: int) -> np.ndarray:
    """[psi_0, psi_1, ..., psi_n_max] by the halving recurrences, bottom-up.

    Level m >= 2 turns psi_{m-2} .. psi_{m+2} into psi_{2m} and psi_{2m+1}
    (level 2 rewrites psi_4 with itself).  Levels m < SCALAR_LEVELS run one
    at a time on ints; above that, _levels runs all m in
    [lo, min(2 lo - 3, n_max // 2)] as one array step.  The only division is
    by psi_2, so zeros of the sequence need no special case.

    The dtype is int64 when (p - 1)**2 < 2**63 and object (Python ints)
    above that; the values are canonical residues either way.
    """
    p = ev.p
    inv2 = ev._inv_psi2
    dtype = np.int64 if (p - 1) ** 2 < 1 << 63 else object
    half = n_max >> 1
    cut = min(half + 1, SCALAR_LEVELS)
    w = [0, 1, ev.psi2, ev.psi3, ev.psi4] + [0] * (2 * cut - 4)
    for m in range(2, cut):
        w[2 * m], w[2 * m + 1] = _halve(*w[m - 2 : m + 3], p, inv2)
    if half < SCALAR_LEVELS:
        return np.array(w[: max(n_max + 1, 0)], dtype=dtype)
    # the last level may build psi_{n_max+1}
    out = np.empty(2 * half + 2, dtype=dtype)
    out[: 2 * cut] = w[: 2 * cut]
    _levels(out, cut, half, p, inv2)
    return out[: n_max + 1]


def psi_windows(fld: PrimeField, a, b, x, y, n_max: int) -> np.ndarray:
    """psi_window at many points: row i is [psi_0, .., psi_n_max] at (x[i], y[i])
    on y^2 = x^3 + a[i] x + b[i], y[i] != 0, from int64 arrays of residues
    (p <= 2**22); every level is one array step over all rows."""
    p = fld.p
    half = max(n_max >> 1, 2)
    out = np.empty((2 * half + 2, len(x)), dtype=np.int64)
    psi2 = 2 * y % p
    psi3, f4 = _psi3_f4(p, a, b, x)
    out[:2] = [[0], [1]]
    out[2], out[3], out[4] = psi2, psi3, y * f4 % p
    _levels(out, 2, half, p, fld.inverse_table()[psi2])
    return out[: max(n_max + 1, 0)].T


def psi_ladder(views: Sequence[PsiEvaluator], n: np.ndarray) -> np.ndarray:
    """psi_{n[j]} at views[i] in row i, column j (n >= 0), by one _walk over
    a lane per (view, index); the views must share p.  Every lane walks
    shift = bitlen(max n) - 3 steps from the seed block at n >> shift in
    [0, 8); psi_2^-1 is taken per row; the dtype is psi_window's."""
    if len({v.p for v in views}) > 1 or n.min(initial=0) < 0:
        raise ValueError("the ladder on rows takes views of one prime and indices n >= 0")
    p = views[0].p if views else 2
    dtype = np.int64 if (p - 1) ** 2 < 1 << 63 else object
    shift = max(int(n.max(initial=0)).bit_length() - 3, 0)
    seeds = np.array([v._seed for v in views], dtype=dtype).reshape(len(views), 15)
    inv2 = _RowInverse(np.array([[v._inv_psi2] for v in views], dtype=dtype), p)
    block = [seeds[:, (n >> shift) + j] for j in range(8)]
    return PsiEvaluator._walk(block, n, shift, p, inv2)[3]


def psi_sequence(ev: PsiEvaluator, n_max: int) -> Iterator[int]:
    """Stream psi_1, ..., psi_n_max at any evaluator by the four-term
    recurrence, taking psi_j from the ladder where the divisor psi_{j-4} is
    0, so that no point order is needed."""
    p = ev.p
    w0, w1, w2, w3 = 1, ev.psi2, ev.psi3, ev.psi4  # psi_1 .. psi_4
    yield from (w0, w1, w2, w3)[: max(n_max, 0)]
    c2 = ev.psi2 * ev.psi2 % p
    c3 = ev.psi3
    for j in range(5, n_max + 1):
        if w0 == 0:
            nxt = ev.psi(j)
        else:
            nxt = (w3 * w1 % p * c2 - c3 * w2 % p * w2) * pow(w0, -1, p) % p
        yield nxt
        w0, w1, w2, w3 = w1, w2, w3, nxt


def recurrence_residual(ev: PsiEvaluator, h: int, i: int, j: int) -> int:
    """Residual of the four-term bilinear identity at indices (h, i, j).

    psi_{h+i} psi_{h-i} psi_j^2 + psi_{i+j} psi_{i-j} psi_h^2
        + psi_{j+h} psi_{j-h} psi_i^2  (mod p); zero for every integer triple.
    """
    p = ev.p
    psi = ev.psi
    wh, wi, wj = psi(h), psi(i), psi(j)
    t1 = psi(h + i) * psi(h - i) % p * (wj * wj % p)
    t2 = psi(i + j) * psi(i - j) % p * (wh * wh % p)
    t3 = psi(j + h) * psi(j - h) % p * (wi * wi % p)
    return (t1 + t2 + t3) % p


def verify_shift_identity(view: EdsView, s: int, k: int) -> bool:
    """Check psi_{sr+k} = a^(ks) b^(s^2) psi_k for one (s, k), s >= 0, k >= 1."""
    if s < 0 or k < 1:
        raise ValueError("requires s >= 0 and k >= 1")
    p = view.curve.p
    lhs = view.psi(s * view.r + k)
    rhs = (
        pow(view.mult_a, k * s, p)
        * pow(view.mult_b, s * s, p)
        % p
        * view.psi(k)
        % p
    )
    return lhs == rhs


def x_only_psi(curve: EllipticCurve, x0: int, n: int) -> int:
    """psi_n at abscissa x0 with the y-dependence factored out.

    Returns f_n(x0) where psi_n = f_n(x) for odd n and psi_n = y * f_n(x) for
    even n.  Works at any affine abscissa, including y = 0 (2-torsion), where
    the pointwise evaluator cannot run because psi_2 vanishes.
    """
    _check_index(n)
    p = curve.p
    x0 %= p
    sign, n = (-1 if n < 0 else 1), abs(n)
    c = curve.rhs(x0)  # y^2 on the curve
    c2 = c * c % p
    inv2 = (p + 1) // 2
    psi3, f4 = _psi3_f4(p, curve.a, curve.b, x0)
    # the indices the halving recurrences reach from n, level by level down
    # to the closed forms: each level is a short run around m - 2 .. m + 2
    need, level = {n}, {n}
    while level:
        level = {j for k in level if k > 4 for j in range((k >> 1) - 2 + (k & 1), (k >> 1) + 3)}
        need |= level
    f = {0: 0, 1: 1, 2: 2 % p, 3: psi3, 4: f4}
    for k in sorted(need):  # ascending: m + 2 < k once k > 4
        if k <= 4:
            continue
        m = k >> 1
        f0, f1, f2, f3 = f[m - 1], f[m], f[m + 1], f[m + 2]
        if k & 1:
            t1 = f3 * f1 % p * f1 % p * f1 % p
            t2 = f0 * f2 % p * f2 % p * f2 % p
            f[k] = (t1 * c2 - t2) % p if (m & 1) == 0 else (t1 - t2 * c2) % p
        else:
            f[k] = f1 * (f3 * f0 % p * f0 - f[m - 2] * f2 % p * f2) % p * inv2 % p
    return sign * f[n] % p


def verify_index_product(view: EdsView, n: int, m: int) -> bool:
    """Check psi_{nm}(P) = psi_n([m]P) * psi_m(P)^(n^2) for n, m >= 1.

    When [m]P = O both sides vanish and the check reduces to psi_{nm}(P) = 0.
    When [m]P is 2-torsion the middle factor is evaluated through the x-only
    form (zero for even n).
    """
    if n < 1 or m < 1:
        raise ValueError("requires n >= 1 and m >= 1")
    curve = view.curve
    p = curve.p
    lhs = view.psi(n * m)
    if m % view.r == 0:
        return lhs == 0
    q = curve.mul(m, view.point)
    if q.y == 0:
        if n % 2 == 0:
            return lhs == 0
        psi_n_q = x_only_psi(curve, q.x, n)
    else:
        psi_n_q = PsiEvaluator(curve, q).psi(n)
    return lhs == psi_n_q * pow(view.psi(m), n * n, p) % p


@dataclass(frozen=True)
class SequencePeriod:
    """Exact period of n -> psi_n(P): total = r * shift_steps."""

    total: int
    shift_steps: int


def least_shift(a_order: int, b_order: int) -> int:
    """The least s >= 1 with a_order | s and b_order | s^2, the product of
    q^max(v_q(a_order), ceil(v_q(b_order) / 2)): for the orders of the shift
    constants (or of their character values), the shifts by r that fix psi_n."""
    root = 1
    for q, e in factorize(b_order).items():
        root *= q ** ((e + 1) // 2)
    return math.lcm(a_order, root)


def sequence_period(view: EdsView, spot_checks: int = 100, seed: int = 0) -> SequencePeriod:
    """Exact period T = r * s0 of the full sequence.

    s0 is the least s >= 1 with a^s = 1 and b^(s^2) = 1, the least_shift of
    the multiplicative orders of the shift constants; since both orders
    divide p - 1, T divides r(p - 1).  The result is spot-checked by
    comparing psi_{n+T} with psi_n at `spot_checks` indices drawn from
    SplitMix64(seed).
    """
    fld = view.curve.field
    s0 = least_shift(fld.element_order(view.mult_a), fld.element_order(view.mult_b))
    total = view.r * s0
    rng = SplitMix64(seed)
    for _ in range(spot_checks):
        n = rng.randrange(1, 3 * total + 1)
        if view.psi(n + total) != view.psi(n):
            raise AssertionError(f"period spot check failed at n={n} on {view!r}")
    return SequencePeriod(total=total, shift_steps=s0)
