"""Symbolic division polynomials over F_p[x], used as an independent oracle.

Each psi_n is represented as y^t * f_n(x) with t = 1 for even n and t = 0 for
odd n.  The tower is built for a batch of curves of one prime at once: f_n is
a (rows, len) int64 array, row i holding the coefficients of f_n on the curve
y^2 = x^3 + A_i x + B_i along the last axis, constant term first, every entry
reduced mod p.  The tower lives in the quotient ring F_p[x]/(x^p - x): every
product is folded by x^p = x, which preserves the value at every x in F_p
(Fermat).  So evaluation at rational abscissas stays exact, while no product
keeps more than p coefficients and each costs O(p log p) however large n
grows.  Arrays are not trimmed: while the nominal degree of f_n is below p,
its length is that degree plus one, so its leading entry is n mod p and may
be zero.  The tower is built bottom-up from the degree-4/degree-6 closed
forms with the recurrences

    f_{2m+1} = C^2 f_{m+2} f_m^3 - f_{m-1} f_{m+1}^3      (m even)
    f_{2m+1} = f_{m+2} f_m^3 - C^2 f_{m-1} f_{m+1}^3      (m odd)
    f_{2m}   = f_m (f_{m+2} f_{m-1}^2 - f_{m-2} f_{m+1}^2) / 2

where C(x) = x^3 + Ax + B substitutes for y^2.  This exercises a genuinely
different dataflow from the pointwise evaluators (explicit y-bookkeeping and
curve-relation substitution in coefficient space), which is what makes it a
useful cross-check.  :func:`division_poly_tower` is the one-row call.

Every product of two batches is one batched real FFT along the last axis:
rfft of both operands, a pointwise product, irfft, and rounding to the
nearest integer, after which the product is reduced mod p.  float64 holds the
exact product only while its coefficients stay well inside 2^53, so each
product is guarded twice: statically, min(len) * (p - 1)^2 < 2^44 (every
coefficient of the exact product is below that bound), and at run time every
raw coefficient must lie within 1/4 of an integer.  Either failure raises
``ValueError`` naming the multiply guard.
"""

from __future__ import annotations

import numpy as np

from .curve import EllipticCurve, Point

MUL_BOUND = 1 << 44  # min(len) * (p - 1)^2 below this: FFT products are exact


def _mul(p: int, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """f * g mod p row by row (rows broadcast), folded mod x^p - x."""
    if min(f.shape[-1], g.shape[-1]) * (p - 1) ** 2 >= MUL_BOUND:
        raise ValueError("symbolic tower multiply guarded at min(len) * (p - 1)^2 < 2^44")
    n = f.shape[-1] + g.shape[-1] - 1
    size = 1 << (n - 1).bit_length()
    raw = np.fft.irfft(np.fft.rfft(f, size) * np.fft.rfft(g, size), size)[..., :n]
    out = np.rint(raw)
    if np.abs(raw - out).max() >= 0.25:
        raise ValueError("symbolic tower multiply guarded: FFT product is not exact")
    out = out.astype(np.int64)
    return _fold(out, p) % p


def _sub(p: int, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """f - g mod p row by row; the two may differ in length."""
    out = np.zeros(f.shape[:-1] + (max(f.shape[-1], g.shape[-1]),), dtype=np.int64)
    out[..., : f.shape[-1]] += f
    out[..., : g.shape[-1]] -= g
    return out % p


def _fold(f: np.ndarray, p: int) -> np.ndarray:
    """Reduce each row modulo x^p - x (value-preserving on all of F_p).

    Each pass moves x^e to x^(e - p + 1) for e >= p, until the degree is
    below p; the sums are not reduced mod p.  A product of two folded
    operands needs one pass.
    """
    while (n := f.shape[-1]) > p:
        out = np.zeros(f.shape[:-1] + (max(p, n - p + 1),), dtype=f.dtype)
        out[..., :p] = f[..., :p]
        out[..., 1 : n - p + 1] += f[..., p:]
        f = out
    return f


def horner(f: np.ndarray, x, p: int):
    """f(x) mod p, with the coefficients of f on its last axis.

    x is an int or an int64 array of residues that broadcasts against
    f.shape[:-1]; a 1-D f at an int x gives an int.
    """
    coefs = f.tolist() if f.ndim == 1 else np.moveaxis(f, -1, 0)
    acc = 0
    for coef in coefs[::-1]:
        acc = (acc * x + coef) % p
    return acc


def division_poly_batch(curves, n_max: int) -> list[tuple[int, np.ndarray]]:
    """[(t_n, F_n)] for n = 0..n_max; row i of F_n is f_n of curves[i] in
    F_p[x]/(x^p - x).  The curves are a non-empty sequence over one prime
    field."""
    p = curves[0].p
    if any(c.p != p for c in curves):
        raise ValueError("a tower batch takes curves over one prime field")
    # one column of Python ints per coefficient: at large p the raw base
    # coefficients overflow int64, so they are reduced before conversion
    a = np.array([c.a for c in curves], dtype=object).reshape(-1, 1)
    b = np.array([c.b for c in curves], dtype=object).reshape(-1, 1)
    zero = 0 * a

    def base(*coeffs) -> np.ndarray:
        return (np.hstack([c + zero for c in coeffs]) % p).astype(np.int64)

    def mul(f: np.ndarray, g: np.ndarray) -> np.ndarray:
        return _mul(p, f, g)

    fs = [
        base(0),
        base(1),
        base(2),
        base(-a * a, 12 * b, 6 * a, 0, 3),
        base(-(8 * b * b + a**3) * 4, -16 * a * b, -20 * a * a, 80 * b, 20 * a, 0, 4),
    ][: max(n_max + 1, 0)]
    if n_max >= 5:
        c = base(b, a, 0, 1)
        c_sq = mul(c, c)
    powers: dict[tuple[int, int], np.ndarray] = {}  # (k, e) -> f_k^e, e = 2 or 3

    def power(k: int, e: int) -> np.ndarray:
        # not recursive: a closure that calls itself is a reference cycle,
        # which would keep every finished tower alive until a gc pass
        if (k, 2) not in powers:
            powers[k, 2] = mul(fs[k], fs[k])
        if e == 3 and (k, 3) not in powers:
            powers[k, 3] = mul(powers[k, 2], fs[k])
        return powers[k, e]

    inv2 = (p + 1) // 2
    for n in range(5, n_max + 1):
        m = n >> 1
        for key in [key for key in powers if key[0] < m - 1]:
            del powers[key]  # f_k^e is read only while k >= m - 1, and m only grows
        if n & 1:
            t1 = mul(fs[m + 2], power(m, 3))
            t2 = mul(fs[m - 1], power(m + 1, 3))
            if m & 1:
                t2 = mul(c_sq, t2)
            else:
                t1 = mul(c_sq, t1)
            f = _sub(p, t1, t2)
        else:
            t = _sub(p, mul(fs[m + 2], power(m - 1, 2)), mul(fs[m - 2], power(m + 1, 2)))
            f = mul(fs[m], t) * inv2 % p
        fs.append(f)
    return [(int(n > 0 and n % 2 == 0), f) for n, f in enumerate(fs)]


def division_poly_tower(curve: EllipticCurve, n_max: int) -> list[tuple[int, np.ndarray]]:
    """[(t_n, f_n)] for n = 0..n_max with psi_n = y^t_n f_n(x): the one-row
    :func:`division_poly_batch`, each f_n a 1-D coefficient array."""
    return [(t, f[0]) for t, f in division_poly_batch([curve], n_max)]


def psi_symbolic(
    curve: EllipticCurve, point: Point, n: int, tower: list[tuple[int, np.ndarray]]
) -> int:
    """psi_n(point) from a precomputed tower (any affine point, y = 0 allowed)."""
    t, f = tower[n]
    v = horner(f, point.x, curve.p)
    if t:
        v = v * point.y % curve.p
    return v


def psi_batch(curves, points, tower: list[tuple[int, np.ndarray]]) -> np.ndarray:
    """psi_n(points[i]) on curves[i] for every n of a batched tower and every
    row i: a (rows, n_max + 1) int64 array.  Each f_n takes one Horner pass
    over all rows; the f_n are not stacked into one array, which would copy
    the whole tower."""
    p = curves[0].p
    xs = np.array([q.x for q in points], dtype=np.int64)
    ys = np.array([q.y for q in points], dtype=np.int64)
    out = np.empty((len(points), len(tower)), dtype=np.int64)
    for n, (t, f) in enumerate(tower):
        v = horner(f, xs, p)
        out[:, n] = v * ys % p if t else v
    return out
