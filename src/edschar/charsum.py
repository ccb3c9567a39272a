"""Character sums along elliptic divisibility sequences.

Quadratic-character sequences chi(psi_n(P)) are periodic with period dividing
R = 2r (r the point order): shifting n by r multiplies psi_n by a^(ks) b^(s^2),
and squares of the shift constants drop out of the character.  This module
materializes character windows, computes complete (twisted) and incomplete
sums with tracked rounding bounds, compares them against the analytic
envelopes R^(5/6) q^(1/12) log(q)^k, and brute-force checks Weil-type bounds
|sum omega(P) chi(f(P))| <= 2 d sqrt(q) over the full group and subgroups,
including the annihilator-averaging identity that reduces subgroup sums to
full-group sums.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass

import numpy as np

from .curve import EllipticCurve, Point, group_structure
from .eds import EdsView, psi_window
from .field import divisors
from .symbolic import XPoly, division_poly_tower

TWO_PI = 2.0 * math.pi

# Rounding envelope per accumulated term.  Sums of phase terms are rounded
# once by math.fsum, which keeps the true error orders of magnitude below
# this at desk scale.
TERM_ERR = 2.0**-40

WINDOW_MAX = 20_000_000  # longest character window we will materialize
COMPLETE_MAX = 10_000_000  # largest R for complete-sum evaluation

_window_cache: "weakref.WeakKeyDictionary[EdsView, np.ndarray]" = (
    weakref.WeakKeyDictionary()
)
_exponent_cache: "weakref.WeakKeyDictionary[EdsView, tuple]" = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class ComplexSum:
    """A floating complex sum with a tracked rounding bound."""

    re: float
    im: float
    err_bound: float

    @property
    def value(self) -> complex:
        return complex(self.re, self.im)

    @property
    def modulus(self) -> float:
        return abs(self.value)


def chi_window(view: EdsView, n_terms: int) -> np.ndarray:
    """chi(psi_n) for n = 1..n_terms as a read-only int8 array (index n-1)."""
    cached = _window_cache.get(view)
    if cached is not None and len(cached) >= n_terms:
        return cached[:n_terms]
    if n_terms > WINDOW_MAX:
        raise ValueError(f"character window guarded at {WINDOW_MAX} terms")
    fld = view.curve.field
    w = psi_window(view, n_terms)
    if fld.p <= 1 << 22:
        out = fld.chi_table()[np.array(w[1:], dtype=np.int64)]
    else:
        chi = fld.chi
        out = np.fromiter((chi(v) for v in w[1:]), dtype=np.int8, count=n_terms)
    # read-only, so that a caller writing into a returned slice raises
    # instead of corrupting the cached window
    out.flags.writeable = False
    _window_cache[view] = out
    return out


@dataclass(frozen=True)
class ChiSequence:
    """One canonical window chi(psi_1..psi_R), R = 2r, with its minimal period."""

    values: np.ndarray
    window_length: int
    period: int


def chi_psi(view: EdsView, n: int) -> int:
    """chi(psi_n(P)); zero exactly when r | n."""
    return view.curve.field.chi(view.psi(n))


def chi_period(view: EdsView) -> int:
    """Minimal period of n -> chi(psi_n); always a divisor of 2r."""
    window = chi_window(view, view.window_length)
    length = len(window)
    for d in divisors(length):
        if np.array_equal(window, np.roll(window, -d)):
            return d
    raise AssertionError("window of length 2r was not 2r-periodic")


def chi_sequence(view: EdsView) -> ChiSequence:
    window = chi_window(view, view.window_length)
    return ChiSequence(
        values=window.copy(),
        window_length=view.window_length,
        period=chi_period(view),
    )


def incomplete_sum(view: EdsView, n_terms: int) -> int:
    """S_P(N) = sum_{n<=N} chi(psi_n), exactly, using periodicity beyond R."""
    if n_terms < 0:
        raise ValueError("n_terms must be >= 0")
    if n_terms == 0:
        return 0
    length = view.window_length
    if n_terms <= length:
        return int(chi_window(view, n_terms)[:n_terms].sum(dtype=np.int64))
    window = chi_window(view, length)
    cycles, rest = divmod(n_terms, length)
    total = cycles * int(window.sum(dtype=np.int64))
    if rest:
        total += int(window[:rest].sum(dtype=np.int64))
    return total


@dataclass(frozen=True)
class BiasReport:
    n_terms: int
    plus: int
    minus: int
    zero: int
    total: int  # plus - minus == incomplete_sum(n_terms)
    bias: float


def bias_report(view: EdsView, n_terms: int) -> BiasReport:
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    length = view.window_length
    window = chi_window(view, min(n_terms, length))

    def counts(arr) -> tuple[int, int, int]:
        plus = int((arr == 1).sum())
        minus = int((arr == -1).sum())
        return plus, minus, len(arr) - plus - minus

    if n_terms <= length:
        plus, minus, zero = counts(window[:n_terms])
    else:
        cycles, rest = divmod(n_terms, length)
        p1, m1, z1 = counts(window)
        p2, m2, z2 = counts(window[:rest]) if rest else (0, 0, 0)
        plus, minus, zero = cycles * p1 + p2, cycles * m1 + m2, cycles * z1 + z2
    total = plus - minus
    return BiasReport(
        n_terms=n_terms,
        plus=plus,
        minus=minus,
        zero=zero,
        total=total,
        bias=total / n_terms,
    )


def _phase_sum(ks: np.ndarray, weights: np.ndarray, length: int) -> ComplexSum:
    """sum_i weights[i] * e(ks[i] / length) for integer weights, each part
    rounded once by math.fsum; the bound charges TERM_ERR per unit term."""
    angles = ks * (TWO_PI / length)
    return ComplexSum(
        re=math.fsum(weights * np.cos(angles)),
        im=math.fsum(weights * np.sin(angles)),
        err_bound=max(int(np.abs(weights).sum()), 1) * TERM_ERR,
    )


def complete_sum(view: EdsView, a: int) -> ComplexSum:
    """T_P(a) = sum_{n<=R} chi(psi_n) e(an/R), R = 2r, by direct summation."""
    length = view.window_length
    if length > COMPLETE_MAX:
        raise ValueError(f"complete sums guarded at R <= {COMPLETE_MAX}")
    window = chi_window(view, length)
    idx = np.flatnonzero(window)
    return _phase_sum((a % length) * (idx + 1) % length, window[idx], length)


def complete_spectrum(view: EdsView) -> np.ndarray:
    """All R values T_P(a), a = 0..R-1, via an inverse FFT of the window.

    Computes the same sums as complete_sum for every a at once;
    spectrum_err_bound(R) bounds the rounding discrepancy per entry.
    """
    length = view.window_length
    if length > COMPLETE_MAX:
        raise ValueError(f"complete sums guarded at R <= {COMPLETE_MAX}")
    window = chi_window(view, length).astype(np.float64)
    spec = np.fft.ifft(window) * length
    phase = np.exp(2j * np.pi * np.arange(length) / length)
    return spec * phase


def spectrum_err_bound(length: int) -> float:
    return length * TERM_ERR


def complete_envelope(window_length: int, q: int) -> float:
    """R^(5/6) q^(1/12) (log q)^(1/3), the complete-sum growth envelope."""
    return window_length ** (5 / 6) * q ** (1 / 12) * math.log(q) ** (1 / 3)


def incomplete_envelope(window_length: int, q: int) -> float:
    """R^(5/6) q^(1/12) (log q)^(4/3), the partial-sum growth envelope."""
    return window_length ** (5 / 6) * q ** (1 / 12) * math.log(q) ** (4 / 3)


def bound_ratio(view: EdsView, mode: str, x: int) -> float:
    """|sum| / envelope for mode 'complete' (x = twist a) or 'incomplete' (x = N).

    Reported, not asserted: the envelopes carry an unspecified constant.
    """
    q = view.curve.p
    length = view.window_length
    if mode == "complete":
        return complete_sum(view, x).modulus / complete_envelope(length, q)
    if mode == "incomplete":
        return abs(incomplete_sum(view, x)) / incomplete_envelope(length, q)
    raise ValueError(f"mode must be 'complete' or 'incomplete', got {mode!r}")


# -- order-d character sums ---------------------------------------------------


def order_d_exponents(view: EdsView, d: int, n_terms: int) -> np.ndarray:
    """Exponent j of chi_d(psi_n) = e(j/d) for n = 1..n_terms; -1 at zeros.

    Read-only; like :func:`chi_window`, cached per view (for the latest d).
    """
    cached_d, cached = _exponent_cache.get(view, (None, None))
    if cached_d == d and len(cached) >= n_terms:
        return cached[:n_terms]
    fld = view.curve.field
    w = psi_window(view, n_terms)
    exp = fld.dchar_exponent
    out = np.empty(n_terms, dtype=np.int64)
    for i in range(n_terms):
        j = exp(w[i + 1], d)
        out[i] = -1 if j is None else j
    out.flags.writeable = False
    _exponent_cache[view] = (d, out)
    return out


def order_d_period(view: EdsView, d: int) -> int:
    """Predicted minimal period of n -> chi_d(psi_n): r times the least s
    with chi_d(a)^s = chi_d(b)^(s^2) = 1 for the shift constants (a, b)."""
    fld = view.curve.field
    alpha = fld.dchar_exponent(view.mult_a, d)
    beta = fld.dchar_exponent(view.mult_b, d)
    s1 = d // math.gcd(alpha, d)
    s = s1
    while (s * s * beta) % d != 0:
        s += s1
    return view.r * s


def order_d_sums(view: EdsView, d: int, mode: str, x: int) -> ComplexSum:
    """Order-d analogue of the quadratic sums.

    mode 'incomplete': sum_{n<=x} chi_d(psi_n).
    mode 'complete':   sum_{n<=r*d} chi_d(psi_n) e(x*n/(r*d)); the window r*d
    makes the order-shift multiplier drop out for every d (d = 2 reproduces
    the quadratic sums over R = 2r).

    The supporting theory for nontrivial order-d bounds applies to prime
    sequence indices ell = +/-1 (mod d); this implementation measures the
    sums without asserting any growth bound.
    """
    if d < 2 or (view.curve.p - 1) % d != 0:
        raise ValueError(f"character order {d} must divide p - 1 and be >= 2")
    if mode == "incomplete":
        if x < 1:
            raise ValueError("incomplete sums need at least one term")
        steps = x
        window_len = min(steps, d * view.r)
    elif mode == "complete":
        steps = d * view.r
        window_len = steps
    else:
        raise ValueError(f"mode must be 'complete' or 'incomplete', got {mode!r}")
    if window_len > COMPLETE_MAX:
        raise ValueError("order-d window exceeds the desk-scale guard")
    exps = order_d_exponents(view, d, window_len)

    if mode == "incomplete":
        # pure root-of-unity sum: how often each exponent j occurs in x terms
        reps, rest = divmod(steps, window_len)
        head = exps[:rest]
        full = np.bincount(exps[exps >= 0], minlength=d)
        part = np.bincount(head[head >= 0], minlength=d)
        counts = [reps * int(f) + int(q) for f, q in zip(full, part)]
        return _phase_sum(np.arange(d), np.array(counts, dtype=np.float64), d)

    # complete: phase index k_n = (a*n + exps_n * (steps // d)) mod steps
    idx = np.flatnonzero(exps >= 0)
    ks = ((x % steps) * (idx + 1) + exps[idx] * (steps // d)) % steps
    return _phase_sum(ks, np.ones(len(idx)), steps)


# -- Weil-bound brute force ----------------------------------------------------


@dataclass(frozen=True)
class WeilCheckReport:
    """One brute-forced character-sum bound check over E(F_q) or a subgroup."""

    sum_modulus: float
    bound: float
    degree: int
    omega_index: tuple[int, int]
    subgroup: dict | None
    value: complex
    err_bound: float
    averaging_gap: float | None  # |subgroup sum - annihilator average|, if applicable


def weil_degree(ells: tuple[int, ...]) -> int:
    return sum((l * l - 1) // 2 for l in ells)


def _validate_ells(ells) -> tuple[int, ...]:
    ells = tuple(int(l) for l in ells)
    if not ells:
        raise ValueError("need at least one sequence index ell")
    if len(set(ells)) != len(ells):
        raise ValueError(f"indices must be distinct, got {ells}")
    for l in ells:
        if l < 3 or l % 2 == 0:
            raise ValueError(f"indices must be odd and >= 3, got {l}")
    return ells


def _coordinate_grid(curve: EllipticCurve):
    """x-coordinates of m*gen_m + l*gen_l on an (M, L) grid; (0,0) is infinity."""
    if curve._grid is None:
        s = group_structure(curve)
        xs = np.zeros((s.m, s.l), dtype=np.int64)
        col: Point | None = None
        for li in range(s.l):
            q = col
            for mi in range(s.m):
                if q is not None:
                    xs[mi, li] = q.x
                q = curve.add(q, s.gen_m)
            col = curve.add(col, s.gen_l)
        curve._grid = (s, xs)
    return curve._grid


def _chi_grid(curve: EllipticCurve, ells: tuple[int, ...]) -> np.ndarray:
    """chi(f(P)) on the (M, L) grid, f = prod psi_ell; 0 at the infinity slot."""
    s, xs = _coordinate_grid(curve)
    tower = division_poly_tower(curve, max(ells))
    p = curve.p
    out = np.ones(xs.shape, dtype=np.int8)
    table = curve.field.chi_table()
    for l in ells:
        coeffs = tower[l][1].c
        acc = np.zeros(xs.shape, dtype=np.int64)
        for coef in coeffs[::-1]:
            acc = (acc * xs + int(coef)) % p
        out = out * table[acc]
    out[0, 0] = 0
    return out


def weil_spectrum(curve: EllipticCurve, ells) -> np.ndarray:
    """sum_P omega_{a,b}(P) chi(f(P)) for all (a, b), as an (M, L) array."""
    ells = _validate_ells(ells)
    grid = _chi_grid(curve, ells).astype(np.float64)
    return np.fft.ifft2(grid) * grid.size


def _locate(curve: EllipticCurve, point: Point) -> tuple[int, int]:
    """Grid coordinates (m, l) of a point: point = m*gen_m + l*gen_l."""
    s, _ = _coordinate_grid(curve)
    q: Point | None = None
    for li in range(s.l):
        t = q
        for mi in range(s.m):
            if t == point:
                return mi, li
            t = curve.add(t, s.gen_m)
        q = curve.add(q, s.gen_l)
    raise AssertionError(f"{point} not found on the generator grid of {curve!r}")


def annihilator_characters(curve: EllipticCurve, point: Point | None) -> list[tuple[int, int]]:
    """Characters (a, b) trivial on <point>: a*m*L + b*l*M = 0 (mod ML)."""
    s, _ = _coordinate_grid(curve)
    if point is None:
        return [(a, b) for a in range(s.m) for b in range(s.l)]
    mq, lq = _locate(curve, point)
    n = s.m * s.l
    a_grid, b_grid = np.meshgrid(
        np.arange(s.m, dtype=np.int64), np.arange(s.l, dtype=np.int64), indexing="ij"
    )
    ok = (a_grid * (mq * s.l) + b_grid * (lq * s.m)) % n == 0
    pairs = np.argwhere(ok)
    return [(int(a), int(b)) for a, b in pairs]


def weil_sum_check(
    curve: EllipticCurve,
    ells,
    omega: tuple[int, int] = (0, 0),
    subgroup: Point | None = None,
) -> WeilCheckReport:
    """Brute-force one character sum against its 2 d sqrt(q) bound.

    ells defines f = prod psi_ell (distinct odd indices >= 3), omega = (a, b)
    indexes the group character, and subgroup (a generator point, optional)
    restricts the sum to <subgroup>.  For subgroup sums the report also
    carries the gap of the annihilator-averaging identity
    sum_{P in H} = mean over theta in Omega_H of the full-group sums.
    """
    ells = _validate_ells(ells)
    s, _ = _coordinate_grid(curve)
    grid = _chi_grid(curve, ells)
    d = weil_degree(ells)
    bound = 2.0 * d * math.sqrt(curve.p)
    a, b = omega[0] % s.m, omega[1] % s.l
    phase = np.exp(
        2j
        * np.pi
        * (
            a * np.arange(s.m, dtype=np.float64)[:, None] / s.m
            + b * np.arange(s.l, dtype=np.float64)[None, :] / s.l
        )
    )
    desc = None
    gap = None
    if subgroup is None:
        value = complex((grid * phase).sum())
        nonzero = int(np.count_nonzero(grid))
    else:
        curve.validate_point(subgroup)
        mq, lq = _locate(curve, subgroup)
        order = math.lcm(
            s.m // math.gcd(s.m, mq) if s.m > 1 else 1,
            s.l // math.gcd(s.l, lq) if s.l > 1 else 1,
        )
        ms = np.arange(order, dtype=np.int64) * mq % s.m
        ls = np.arange(order, dtype=np.int64) * lq % s.l
        sub_vals = grid[ms, ls].astype(np.float64)
        value = complex((sub_vals * phase[ms, ls]).sum())
        nonzero = int(np.count_nonzero(sub_vals))
        annihilators = annihilator_characters(curve, subgroup)
        spectrum = weil_spectrum(curve, ells)
        avg = np.mean(
            [spectrum[(a + ta) % s.m, (b + tb) % s.l] for ta, tb in annihilators]
        )
        gap = abs(value - complex(avg))
        desc = {
            "x": subgroup.x,
            "y": subgroup.y,
            "order": order,
            "index": s.size // order,
        }
    return WeilCheckReport(
        sum_modulus=abs(value),
        bound=bound,
        degree=d,
        omega_index=(a, b),
        subgroup=desc,
        value=value,
        err_bound=max(nonzero, 1) * TERM_ERR,
        averaging_gap=gap,
    )


def small_character_subgroups(m: int, l: int, max_order: int = 4) -> list[tuple[tuple[int, int], ...]]:
    """All subgroups of Z/m x Z/l of order <= max_order (as sorted element tuples).

    These are the annihilator groups Omega_H of the subgroups H of index
    <= max_order, cyclic or not.
    """

    def torsion(modulus: int, k: int) -> list[int]:
        g = math.gcd(modulus, k)
        step = modulus // g
        return [j * step for j in range(g)]

    elems: set[tuple[int, int]] = set()
    for k in (2, 3, 4):
        if k > max_order:
            continue
        for a in torsion(m, k):
            for b in torsion(l, k):
                elems.add((a, b))

    def closure(gens: list[tuple[int, int]]) -> frozenset[tuple[int, int]]:
        group = {(0, 0)}
        frontier = [(0, 0)]
        while frontier:
            cur = frontier.pop()
            for ga, gb in gens:
                nxt = ((cur[0] + ga) % m, (cur[1] + gb) % l)
                if nxt not in group:
                    group.add(nxt)
                    frontier.append(nxt)
        return frozenset(group)

    found: set[frozenset[tuple[int, int]]] = {frozenset({(0, 0)})}
    elems.discard((0, 0))
    elem_list = sorted(elems)
    for e in elem_list:
        g = closure([e])
        if len(g) <= max_order:
            found.add(g)
    for i, e1 in enumerate(elem_list):
        for e2 in elem_list[i + 1 :]:
            g = closure([e1, e2])
            if len(g) <= max_order:
                found.add(g)
    return sorted(tuple(sorted(g)) for g in found)


def subgroup_mask(m: int, l: int, omega_h) -> np.ndarray:
    """Boolean (m, l) grid of the subgroup H annihilated by all of omega_h."""
    n = m * l
    m_grid, l_grid = np.meshgrid(
        np.arange(m, dtype=np.int64), np.arange(l, dtype=np.int64), indexing="ij"
    )
    mask = np.ones((m, l), dtype=bool)
    for a, b in omega_h:
        mask &= (m_grid * (a * l) + l_grid * (b * m)) % n == 0
    return mask


def averaged_spectrum(spectrum: np.ndarray, omega_h) -> np.ndarray:
    """Mean over theta in omega_h of spectrum shifted by theta.

    Row (a, b) of the result equals the subgroup-restricted sum for omega_(a,b)
    whenever omega_h is the annihilator group of that subgroup.
    """
    acc = np.zeros_like(spectrum)
    for ta, tb in omega_h:
        acc += np.roll(spectrum, (-ta, -tb), axis=(0, 1))
    return acc / len(omega_h)
