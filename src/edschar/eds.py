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

Two evaluation strategies are provided: :class:`PsiEvaluator` (memoized
index halving, O(log n) field ops per fresh index, usable up to n ~ 2**62)
and a sequential window generator that advances one index at a time with the
four-term recurrence

    psi_{n+2} psi_{n-2} = psi_{n+1} psi_{n-1} psi_2^2 - psi_3 psi_n^2,

patching indices where the divisor psi_{n-2} vanishes via the halving
evaluator.  The two must agree termwise; the test suite and the verification
harness cross-check them against each other and against symbolic
division-polynomial evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .curve import EllipticCurve, Point, point_order
from .field import factorize
from .rng import SplitMix64


class PsiEvaluator:
    """Memoized psi_n evaluation at a fixed affine point with y != 0.

    Safe for concurrent readers: the memo is only ever extended with values
    that are pure functions of the index, so racing writers store identical
    entries.
    """

    __slots__ = ("curve", "point", "p", "psi2", "psi3", "psi4", "_inv_psi2", "_memo")

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
        x, y, a, b = point.x, point.y, curve.a, curve.b
        x2 = x * x % p
        x3 = x2 * x % p
        self.psi2 = 2 * y % p
        self.psi3 = (3 * x2 * x2 + 6 * a * x2 + 12 * b * x - a * a) % p
        self.psi4 = (
            4
            * y
            * (
                x3 * x3
                + 5 * a * x2 * x2
                + 20 * b * x3
                - 5 * a * a % p * x2
                - 4 * a * b % p * x
                - 8 * b * b
                - a * a % p * a
            )
            % p
        )
        self._inv_psi2 = pow(self.psi2, -1, p)
        self._memo = {0: 0, 1: 1, 2: self.psi2, 3: self.psi3, 4: self.psi4}

    def psi(self, n: int) -> int:
        """psi_n(P) as a canonical int, for any integer n."""
        if n >= 0:
            return self._psi(n)
        return -self._psi(-n) % self.p

    def _psi(self, n: int) -> int:
        memo = self._memo
        v = memo.get(n)
        if v is not None:
            return v
        p = self.p
        m = n >> 1
        if n & 1:
            w0 = self._psi(m - 1)
            w1 = self._psi(m)
            w2 = self._psi(m + 1)
            w3 = self._psi(m + 2)
            v = (w3 * w1 % p * w1 % p * w1 - w0 * w2 % p * w2 % p * w2) % p
        else:
            w0 = self._psi(m - 2)
            w1 = self._psi(m - 1)
            w2 = self._psi(m)
            w3 = self._psi(m + 1)
            w4 = self._psi(m + 2)
            v = (
                w2
                * (w4 * w1 % p * w1 - w0 * w3 % p * w3)
                % p
                * self._inv_psi2
                % p
            )
        memo[n] = v
        return v


class EdsView:
    """A curve/point pair with its order r and order-shift constants.

    The shift constants (a, b) satisfy psi_{sr+k} = a^(ks) b^(s^2) psi_k for
    all s >= 0, k >= 1.  Solving that relation at (s, k) = (1, 1) and (1, 2)
    gives a = psi_{r+2} / (psi_{r+1} psi_2) and b = psi_{r+1}^2 psi_2 /
    psi_{r+2}, so a*b = psi_{r+1}; extending the relation to s = -1 gives the
    equivalent pre-zero form a = psi_{r-1} psi_2 / psi_{r-2},
    b = -psi_{r-1}^2 psi_2 / psi_{r-2}.  Both forms are computed and
    cross-checked at construction.
    """

    __slots__ = ("curve", "point", "r", "mult_a", "mult_b", "evaluator", "__weakref__")

    def __init__(self, curve: EllipticCurve, point: Point, r: int | None = None):
        self.evaluator = PsiEvaluator(curve, point)
        self.curve = curve
        self.point = point
        if r is None:
            r = point_order(curve, point)
        if r < 3:
            raise ValueError(f"point order must be >= 3, got {r}")
        self.r = r
        p = curve.p
        ev = self.evaluator
        if ev.psi(r) != 0:
            raise ValueError(f"psi_{r} != 0 at {point}; r is not the point order")
        w_b1, w_b2 = ev.psi(r - 1), ev.psi(r - 2)  # before the zero
        w_a1, w_a2 = ev.psi(r + 1), ev.psi(r + 2)  # after the zero
        if 0 in (w_b1, w_b2, w_a1, w_a2):
            raise AssertionError("psi vanished off the multiples of r")
        self.mult_a = w_b1 * ev.psi2 % p * pow(w_b2, -1, p) % p
        self.mult_b = -w_b1 * w_b1 % p * ev.psi2 % p * pow(w_b2, -1, p) % p
        if (
            self.mult_a != w_a2 * pow(w_a1 * ev.psi2 % p, -1, p) % p
            or self.mult_b != w_a1 * w_a1 % p * ev.psi2 % p * pow(w_a2, -1, p) % p
        ):
            raise AssertionError(f"shift-constant forms disagree at {point}")

    def __repr__(self) -> str:
        return (
            f"EdsView(p={self.curve.p}, a={self.curve.a}, b={self.curve.b}, "
            f"point=({self.point.x},{self.point.y}), r={self.r})"
        )

    @property
    def window_length(self) -> int:
        """R = 2r, the canonical character-sequence window."""
        return 2 * self.r

    def psi(self, n: int) -> int:
        return self.evaluator.psi(n)


def psi_eval(view: EdsView | PsiEvaluator, n: int) -> int:
    """psi_n at the view's point (memoized index halving)."""
    return view.psi(n)


def psi_window(view: EdsView, n_max: int) -> list[int]:
    """[psi_0, psi_1, ..., psi_n_max] via the sequential four-term recurrence.

    Advances with psi_{j} = (psi_{j-1} psi_{j-3} psi_2^2 - psi_3 psi_{j-2}^2)
    / psi_{j-4}; the divisor vanishes exactly when j = 4 (mod r), and those
    indices are patched from the halving evaluator.
    """
    ev = view.evaluator
    p = ev.p
    w = [0] * (n_max + 1)
    for j in range(1, min(n_max, 4) + 1):
        w[j] = ev.psi(j)
    if n_max <= 4:
        return w
    c2 = ev.psi2 * ev.psi2 % p
    c3 = ev.psi3
    r = view.r
    psi = ev.psi
    for j in range(5, n_max + 1):
        if (j - 4) % r == 0:
            w[j] = psi(j)
        else:
            num = (w[j - 1] * w[j - 3] % p * c2 - c3 * w[j - 2] % p * w[j - 2]) % p
            w[j] = num * pow(w[j - 4], -1, p) % p
    return w


def psi_sequence(view: EdsView, n_max: int) -> Iterator[int]:
    """Stream psi_1, ..., psi_n_max (sequential recurrence, patched at zeros)."""
    ev = view.evaluator
    p = ev.p
    r = view.r
    w0, w1, w2, w3 = 1, ev.psi2, ev.psi3, ev.psi4  # psi_1 .. psi_4
    c2 = ev.psi2 * ev.psi2 % p
    c3 = ev.psi3
    for j in range(1, n_max + 1):
        if j <= 4:
            yield (w0, w1, w2, w3)[j - 1]
            continue
        if (j - 4) % r == 0:
            nxt = ev.psi(j)
        else:
            num = (w3 * w1 % p * c2 - c3 * w2 % p * w2) % p
            nxt = num * pow(w0, -1, p) % p
        yield nxt
        w0, w1, w2, w3 = w1, w2, w3, nxt


def recurrence_residual(view: EdsView | PsiEvaluator, h: int, i: int, j: int) -> int:
    """Residual of the four-term bilinear identity at indices (h, i, j).

    psi_{h+i} psi_{h-i} psi_j^2 + psi_{i+j} psi_{i-j} psi_h^2
        + psi_{j+h} psi_{j-h} psi_i^2  (mod p); zero for every integer triple.
    Accepts a sequence view or a bare evaluator.
    """
    p = view.curve.p
    psi = view.psi
    wh, wi, wj = psi(h), psi(i), psi(j)
    t1 = psi(h + i) * psi(h - i) % p * (wj * wj % p)
    t2 = psi(i + j) * psi(i - j) % p * (wh * wh % p)
    t3 = psi(j + h) * psi(j - h) % p * (wi * wi % p)
    return (t1 + t2 + t3) % p


def shift_constants(view: EdsView) -> tuple[int, int]:
    """The order-shift constants (a, b) with psi_{sr+k} = a^(ks) b^(s^2) psi_k."""
    return view.mult_a, view.mult_b


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
    p = curve.p
    x0 %= p
    if n < 0:
        return -x_only_psi(curve, x0, -n) % p
    a, b = curve.a, curve.b
    x2 = x0 * x0 % p
    x3 = x2 * x0 % p
    c = (x3 + a * x0 + b) % p  # y^2 on the curve
    c2 = c * c % p
    inv2 = (p + 1) // 2
    memo = {
        0: 0,
        1: 1,
        2: 2 % p,
        3: (3 * x2 * x2 + 6 * a * x2 + 12 * b * x0 - a * a) % p,
        4: (
            4
            * (
                x3 * x3
                + 5 * a * x2 * x2
                + 20 * b * x3
                - 5 * a * a % p * x2
                - 4 * a * b % p * x0
                - 8 * b * b
                - a * a % p * a
            )
            % p
        ),
    }

    def f(k: int) -> int:
        v = memo.get(k)
        if v is not None:
            return v
        m = k >> 1
        f0, f1, f2, f3 = f(m - 1), f(m), f(m + 1), f(m + 2)
        if k & 1:
            t1 = f3 * f1 % p * f1 % p * f1 % p
            t2 = f0 * f2 % p * f2 % p * f2 % p
            v = (t1 * c2 - t2) % p if (m & 1) == 0 else (t1 - t2 * c2) % p
        else:
            fm2 = f(m - 2)
            v = f1 * (f3 * f0 % p * f0 - fm2 * f2 % p * f2) % p * inv2 % p
        memo[k] = v
        return v

    return f(n)


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


def sequence_period(view: EdsView, spot_checks: int = 100, seed: int = 0) -> SequencePeriod:
    """Exact period T = r * s0 of the full sequence.

    s0 is the least s >= 1 with a^s = 1 and b^(s^2) = 1, computed prime by
    prime from the multiplicative orders of the shift constants; since both
    orders divide p - 1, T divides r(p - 1).  The result is spot-checked by
    comparing psi_{n+T} with psi_n at `spot_checks` indices drawn from
    SplitMix64(seed).
    """
    fld = view.curve.field
    ord_a = fld.element_order(view.mult_a)
    ord_b = fld.element_order(view.mult_b)
    need: dict[int, int] = dict(factorize(ord_a))
    for q, e in factorize(ord_b).items():
        need[q] = max(need.get(q, 0), (e + 1) // 2)
    s0 = 1
    for q, e in need.items():
        s0 *= q**e
    total = view.r * s0
    rng = SplitMix64(seed)
    for _ in range(spot_checks):
        n = rng.randrange(1, 3 * total + 1)
        if view.psi(n + total) != view.psi(n):
            raise AssertionError(f"period spot check failed at n={n} on {view!r}")
    return SequencePeriod(total=total, shift_steps=s0)
