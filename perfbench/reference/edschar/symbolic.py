"""Symbolic division polynomials over F_p[x], used as an independent oracle.

Each psi_n is represented as y^t * f_n(x) with t = 1 for even n and t = 0 for
odd n.  The tower is built bottom-up from the degree-4/degree-6 closed forms
with the recurrences

    f_{2m+1} = C^2 f_{m+2} f_m^3 - f_{m-1} f_{m+1}^3      (m even)
    f_{2m+1} = f_{m+2} f_m^3 - C^2 f_{m-1} f_{m+1}^3      (m odd)
    f_{2m}   = f_m (f_{m+2} f_{m-1}^2 - f_{m-2} f_{m+1}^2) / 2

where C(x) = x^3 + Ax + B substitutes for y^2.  This exercises a genuinely
different dataflow from the pointwise evaluators (explicit y-bookkeeping and
curve-relation substitution in coefficient space), which is what makes it a
useful cross-check.

Degrees grow like n^2/2, so for bulk sweeps the tower can be built in the
quotient ring F_p[x]/(x^p - x).  Folding by x^p = x preserves the value at
every x in F_p (Fermat), so evaluation at rational abscissas is still exact
while multiplications stay O(p^2) instead of O(n^4).
"""

from __future__ import annotations

import numpy as np

from .curve import EllipticCurve, Point


class XPoly:
    """Dense polynomial over F_p, int64 coefficients, constant term first."""

    __slots__ = ("c", "p")

    def __init__(self, coeffs, p: int, reduce: bool = True):
        c = np.asarray(coeffs, dtype=np.int64)
        if reduce:
            c = c % p
        n = len(c)
        while n > 1 and c[n - 1] == 0:
            n -= 1
        self.c = np.ascontiguousarray(c[:n])
        self.p = p

    @property
    def degree(self) -> int:
        return len(self.c) - 1 if self.c.any() else -1

    def is_zero(self) -> bool:
        return not self.c.any()

    def __add__(self, other: "XPoly") -> "XPoly":
        a, b = self.c, other.c
        if len(a) < len(b):
            a, b = b, a
        out = a.copy()
        out[: len(b)] += b
        return XPoly(out, self.p)

    def __sub__(self, other: "XPoly") -> "XPoly":
        n = max(len(self.c), len(other.c))
        out = np.zeros(n, dtype=np.int64)
        out[: len(self.c)] += self.c
        out[: len(other.c)] -= other.c
        return XPoly(out, self.p)

    def __mul__(self, other: "XPoly") -> "XPoly":
        # exact int64 convolution needs len * (p-1)^2 < 2^63
        if min(len(self.c), len(other.c)) * (self.p - 1) ** 2 >= 2**63:
            raise ValueError("convolution would overflow int64 at this modulus")
        return XPoly(np.convolve(self.c, other.c), self.p)

    def scale(self, k: int) -> "XPoly":
        return XPoly(self.c * (k % self.p), self.p)

    def fold(self) -> "XPoly":
        """Reduce modulo x^p - x (value-preserving on all of F_p)."""
        p = self.p
        if len(self.c) <= p:
            return self
        out = np.zeros(p, dtype=np.int64)
        out[0] = self.c[0]
        idx = (np.arange(1, len(self.c)) - 1) % (p - 1) + 1
        np.add.at(out, idx, self.c[1:])
        return XPoly(out, p)

    def eval(self, x0: int) -> int:
        acc = 0
        p = self.p
        for coef in self.c[::-1]:
            acc = (acc * x0 + int(coef)) % p
        return acc

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, XPoly)
            and self.p == other.p
            and np.array_equal(self.c, other.c)
        )

    def __repr__(self) -> str:
        return f"XPoly({self.c.tolist()}, p={self.p})"


def division_poly_tower(
    curve: EllipticCurve, n_max: int, fold: bool = False
) -> list[tuple[int, XPoly]]:
    """[(t_n, f_n)] for n = 0..n_max with psi_n = y^t_n f_n(x).

    With fold=True all entries live in F_p[x]/(x^p - x); evaluation at
    abscissas in F_p is unchanged.
    """
    p = curve.p
    a, b = curve.a, curve.b
    tower: list[tuple[int, XPoly]] = [(0, XPoly([0], p))] * (n_max + 1)
    mk = lambda coeffs: XPoly(coeffs, p)
    if n_max >= 1:
        tower[1] = (0, mk([1]))
    if n_max >= 2:
        tower[2] = (1, mk([2]))
    if n_max >= 3:
        tower[3] = (0, mk([-a * a, 12 * b, 6 * a, 0, 3]))
    if n_max >= 4:
        tower[4] = (
            1,
            mk([-(8 * b * b + a**3) * 4, -16 * a * b, -20 * a * a, 80 * b, 20 * a, 0, 4]),
        )
    if n_max <= 4:
        return tower
    c_sq = mk([b, a, 0, 1]) * mk([b, a, 0, 1])
    if fold:
        c_sq = c_sq.fold()
    inv2 = (p + 1) // 2
    for n in range(5, n_max + 1):
        m = n >> 1
        if n & 1:
            t1 = tower[m + 2][1] * tower[m][1] * tower[m][1] * tower[m][1]
            t2 = tower[m - 1][1] * tower[m + 1][1] * tower[m + 1][1] * tower[m + 1][1]
            if m & 1:
                f = t1 - t2 * c_sq
            else:
                f = t1 * c_sq - t2
            entry = (0, f.fold() if fold else f)
        else:
            diff = (
                tower[m + 2][1] * tower[m - 1][1] * tower[m - 1][1]
                - tower[m - 2][1] * tower[m + 1][1] * tower[m + 1][1]
            )
            f = (tower[m][1] * diff).scale(inv2)
            entry = (1, f.fold() if fold else f)
        tower[n] = entry
    return tower


def psi_symbolic(
    curve: EllipticCurve, point: Point, n: int, tower: list[tuple[int, XPoly]]
) -> int:
    """psi_n(point) from a precomputed tower (any affine point, y = 0 allowed)."""
    t, f = tower[n]
    v = f.eval(point.x)
    if t:
        v = v * point.y % curve.p
    return v
