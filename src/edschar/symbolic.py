"""Symbolic division polynomials over F_p[x], used as an independent oracle.

Each psi_n is represented as y^t * f_n(x) with t = 1 for even n and t = 0 for
odd n.  A polynomial f_n is a plain int64 coefficient array, constant term
first, every entry reduced mod p.  Arrays are not trimmed: the length of an
unfolded f_n is its nominal degree plus one, so its leading entry is n mod p
and may be zero.  The tower is built bottom-up from the degree-4/degree-6
closed forms with the recurrences

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


def _mul(p: int, f: np.ndarray, *gs: np.ndarray) -> np.ndarray:
    """f * g_1 * g_2 * ... mod p, multiplied left to right."""
    for g in gs:
        # exact int64 convolution needs len * (p-1)^2 < 2^63
        if min(len(f), len(g)) * (p - 1) ** 2 >= 2**63:
            raise ValueError("convolution would overflow int64 at this modulus")
        f = np.convolve(f, g) % p
    return f


def _diff(p: int, left: tuple, right: tuple) -> np.ndarray:
    """prod(left) - prod(right) mod p; the two products may differ in length."""
    f, g = _mul(p, *left), _mul(p, *right)
    out = np.zeros(max(len(f), len(g)), dtype=np.int64)
    out[: len(f)] = f
    out[: len(g)] -= g
    return out % p


def _fold(f: np.ndarray, p: int) -> np.ndarray:
    """Reduce modulo x^p - x (value-preserving on all of F_p)."""
    if len(f) <= p:
        return f
    out = np.zeros(p, dtype=np.int64)
    out[0] = f[0]
    idx = (np.arange(1, len(f)) - 1) % (p - 1) + 1
    np.add.at(out, idx, f[1:])
    return out % p


def horner(f: np.ndarray, x, p: int):
    """f(x) mod p for an int x, or entrywise for an int64 array x of residues."""
    acc = 0
    for coef in f[::-1].tolist():
        acc = (acc * x + coef) % p
    return acc


def division_poly_tower(
    curve: EllipticCurve, n_max: int, fold: bool = False
) -> list[tuple[int, np.ndarray]]:
    """[(t_n, f_n)] for n = 0..n_max with psi_n = y^t_n f_n(x).

    With fold=True all entries live in F_p[x]/(x^p - x); evaluation at
    abscissas in F_p is unchanged.
    """
    p = curve.p
    a, b = curve.a, curve.b

    def base(*coeffs: int) -> np.ndarray:
        # reduced as Python ints: at large p the raw coefficients overflow int64
        return np.array([c % p for c in coeffs], dtype=np.int64)

    fs = [
        base(0),
        base(1),
        base(2),
        base(-a * a, 12 * b, 6 * a, 0, 3),
        base(-(8 * b * b + a**3) * 4, -16 * a * b, -20 * a * a, 80 * b, 20 * a, 0, 4),
    ][: max(n_max + 1, 0)]
    if n_max >= 5:
        c_sq = _mul(p, base(b, a, 0, 1), base(b, a, 0, 1))
        if fold:
            c_sq = _fold(c_sq, p)
    inv2 = (p + 1) // 2
    for n in range(5, n_max + 1):
        m = n >> 1
        if n & 1:
            t1 = (fs[m + 2], fs[m], fs[m], fs[m])
            t2 = (fs[m - 1], fs[m + 1], fs[m + 1], fs[m + 1])
            f = _diff(p, t1, t2 + (c_sq,)) if m & 1 else _diff(p, t1 + (c_sq,), t2)
        else:
            t1 = (fs[m + 2], fs[m - 1], fs[m - 1])
            t2 = (fs[m - 2], fs[m + 1], fs[m + 1])
            f = _mul(p, fs[m], _diff(p, t1, t2)) * inv2 % p
        fs.append(_fold(f, p) if fold else f)
    return [(int(n > 0 and n % 2 == 0), f) for n, f in enumerate(fs)]


def psi_symbolic(
    curve: EllipticCurve, point: Point, n: int, tower: list[tuple[int, np.ndarray]]
) -> int:
    """psi_n(point) from a precomputed tower (any affine point, y = 0 allowed)."""
    t, f = tower[n]
    v = horner(f, point.x, curve.p)
    if t:
        v = v * point.y % curve.p
    return v
