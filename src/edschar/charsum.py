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

An incomplete sum, quadratic or of order d, counts how often each value
occurs in the first N terms of one window repeated with its period (R = 2r,
or d*r): N = 0 is the empty sum; N < 0 and N >= 2**512 raise.  The chi
window and the order-d exponent windows are kept on the view (EdsView.windows),
one per character, and freed with it; the module keeps no cache of its own.

A complex sum not read from a spectrum (a twisted sum, or an order-d sum's
roots of unity weighted by their counts) is the exact sum of its float phase
terms, rounded once: the float math.fsum would return.  The terms are taken
PHASE_BLOCK at a time from the kept window, each block's doubles are added
exactly as integers per binary exponent (np.frexp, np.bincount), and one
Python int holds the total; so no full-length index, angle or phase array is
built, and no term is visited from Python.

The Weil checks evaluate chi(f(P)) on the (M, L) group grid of
curve.group_grid, which is built by vectorized chord steps from the
generators, checked pairwise distinct and cached on the curve, and take
every sum from the ifft2 spectrum of that chi grid (a subgroup's from the
spectrum of the grid masked to the subgroup).  _spectrum and
averaged_spectrum act on the last two axes, so a stack of grids, such as
every ell set under every subgroup mask of one curve, takes one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curve import EllipticCurve, Point, group_grid
from .eds import INDEX_LIMIT, EdsView, least_shift, psi_window
from .field import PrimeField
from .symbolic import division_poly_tower, horner

TWO_PI = 2.0 * math.pi

# Rounding envelope per accumulated term.  Each phase term is one cos or sin
# and one product, and the sum of the terms is exact, rounded once, so the
# true error stays orders of magnitude below this at desk scale.
TERM_ERR = 2.0**-40

# Terms per block of a phase sum, chosen by timing 2**12 .. 2**16 at R from
# 4 * 10^3 to 2 * 10^6 (2**13 and 2**14 were fastest; a block's arrays peak at
# about 1.1 MiB).  It must stay <= 2**26, so that a block's per-exponent sums
# of 27-bit mantissa halves are exact in float64.
PHASE_BLOCK = 1 << 14

WINDOW_MAX = 20_000_000  # longest character window we will materialize
COMPLETE_MAX = 10_000_000  # largest R for complete-sum evaluation
SUBGROUP_ORDER_MAX = 4  # largest subgroup order small_character_subgroups lists


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


def _kept_window(view: EdsView, key, n_terms: int, values) -> np.ndarray:
    """values(psi_1 .. psi_n_terms), kept in view.windows under key: a later
    call for at most as many terms returns a prefix of it.  Read-only, so
    that writing into a returned slice raises instead of corrupting it.
    n_terms < 0 raises, since the prefix would depend on what is kept."""
    if n_terms < 0:
        raise ValueError(f"n_terms must be >= 0, got {n_terms}")
    kept = view.windows.get(key)
    if kept is None or len(kept) < n_terms:
        kept = view.windows[key] = values(psi_window(view, n_terms)[1:])
        kept.flags.writeable = False
    return kept[:n_terms]


def chi_window(view: EdsView, n_terms: int) -> np.ndarray:
    """chi(psi_n) for n = 1..n_terms as a read-only int8 array (index n-1)."""
    if n_terms > WINDOW_MAX:
        raise ValueError(f"character window guarded at {WINDOW_MAX} terms")
    return _kept_window(view, "chi", n_terms, view.curve.field.chi_array)


def chi_period(view: EdsView) -> int:
    """Minimal period of n -> chi(psi_n): r or 2r.

    psi_n vanishes exactly at the multiples of r, so a cyclic period of the
    2r-window must map its zeros {r, 2r} onto themselves; of the divisors of
    2r only r and 2r do.
    """
    r = view.r
    window = chi_window(view, 2 * r)
    return r if np.array_equal(window[:r], window[r:]) else 2 * r


def _periodic_counts(window, period: int, n_terms: int, count) -> list[int]:
    """Per-value tallies of the first n_terms terms of a sequence of the given
    period, from window(k), its first k terms.  count(terms) tallies an array;
    tallies add over concatenation, so a whole period is counted once and
    scaled, in Python ints.  0 terms tally zero; n_terms < 0 raises, and so
    does n_terms >= 2**512 (float sums of larger tallies overflow)."""
    if n_terms < 0:
        raise ValueError(f"n_terms must be >= 0, got {n_terms}")
    if n_terms >= INDEX_LIMIT:
        raise ValueError("incomplete sums guarded at n_terms < 2**512")
    cycles, rest = divmod(n_terms, period)
    terms = window(min(n_terms, period))
    tally = count(terms[:rest]).tolist()
    if cycles:
        tally = [cycles * c + t for c, t in zip(count(terms).tolist(), tally)]
    return tally


def incomplete_sum(view: EdsView, n_terms: int) -> int:
    """S_P(N) = sum_{n<=N} chi(psi_n), exactly, using periodicity beyond R."""
    return bias_report(view, n_terms).total


@dataclass(frozen=True)
class BiasReport:
    n_terms: int
    plus: int
    minus: int
    zero: int
    total: int  # plus - minus == incomplete_sum(n_terms)
    bias: float


def bias_report(view: EdsView, n_terms: int) -> BiasReport:
    """How often chi(psi_n) is +1, -1 and 0 for n = 1..n_terms, from the
    window of R = 2r terms repeated; 0 terms is the empty report."""
    plus, minus = _periodic_counts(
        lambda k: chi_window(view, k), view.window_length, n_terms,
        lambda w: np.array([np.count_nonzero(w == 1), np.count_nonzero(w == -1)]),
    )
    total = plus - minus
    return BiasReport(
        n_terms=n_terms,
        plus=plus,
        minus=minus,
        zero=n_terms - plus - minus,
        total=total,
        bias=total / n_terms if n_terms else 0.0,
    )


def _exact(x: np.ndarray) -> int:
    """sum(x) * 2**1126 as an exact Python int, for a float64 array of at most
    2**26 finite terms: every finite double times 2**1126 is an integer.

    Each double is m * 2**(e - 53), so m << (e + 1073) after scaling, with an
    integer mantissa |m| < 2**53 (np.frexp) split as m = hi * 2**26 + lo,
    |hi| < 2**27 and |lo| < 2**26; np.bincount sums each half per exponent,
    exactly, since no sum reaches 2**53."""
    if not len(x):
        return 0
    mant, exp = np.frexp(x)
    mant *= 2.0**53
    hi = np.trunc(mant * 2.0**-26)
    lo = mant - hi * 2.0**26
    low = int(exp.min())
    at = exp - low
    sums = zip(np.bincount(at, hi).tolist(), np.bincount(at, lo).tolist())
    return sum(((int(h) << 26) + int(l)) << j for j, (h, l) in enumerate(sums)) << (low + 1073)


def _blocks(length: int):
    """The positions 0 .. length - 1 as int64 arrays of at most PHASE_BLOCK."""
    for start in range(0, length, PHASE_BLOCK):
        yield np.arange(start, min(start + PHASE_BLOCK, length))


def _phase_sum(blocks, length: int) -> ComplexSum:
    """sum_i weights[i] * e(ks[i] / length) over blocks of (ks, weights),
    integer weights: the exact sum of the float terms, rounded once (the
    float math.fsum gives); the bound charges TERM_ERR per unit term.
    Terms of weight 0 add exactly 0."""
    re = im = weight = 0
    for ks, weights in blocks:
        angles = ks * (TWO_PI / length)
        re += _exact(weights * np.cos(angles))
        im += _exact(weights * np.sin(angles))
        weight += int(np.abs(weights).sum())
    # int true division rounds correctly
    return ComplexSum(re=re / (1 << 1126), im=im / (1 << 1126), err_bound=weight * TERM_ERR)


def complete_sum(view: EdsView, a: int) -> ComplexSum:
    """T_P(a) = sum_{n<=R} chi(psi_n) e(an/R), R = 2r, by direct summation."""
    length = view.window_length
    if length > COMPLETE_MAX:
        raise ValueError(f"complete sums guarded at R <= {COMPLETE_MAX}")
    window = chi_window(view, length)
    step = a % length
    return _phase_sum(((step * (i + 1) % length, window[i]) for i in _blocks(length)), length)


def complete_spectrum(view: EdsView) -> np.ndarray:
    """All R values T_P(a), a = 0..R-1, via an inverse FFT of the window.

    Computes the same sums as complete_sum for every a at once;
    spectrum_err_bound(R) bounds the rounding discrepancy per entry.
    """
    length = view.window_length
    if length > COMPLETE_MAX:
        raise ValueError(f"complete sums guarded at R <= {COMPLETE_MAX}")
    # the float copy of the window dies with the ifft; the output is scaled
    # and twisted in place, e(n/R) made 2**16 entries at a time, so that no
    # full-length temporary outlives the ifft
    spec = np.fft.ifft(chi_window(view, length).astype(np.float64))
    spec *= length
    chunk = 1 << 16
    for start in range(0, length, chunk):
        n = np.arange(start, min(start + chunk, length))
        spec[start : start + chunk] *= np.exp(2j * np.pi * n / length)
    return spec


def spectrum_err_bound(length: int) -> float:
    return length * TERM_ERR


def complete_envelope(window_length: int, q: int) -> float:
    """R^(5/6) q^(1/12) (log q)^(1/3), the complete-sum growth envelope."""
    return window_length ** (5 / 6) * q ** (1 / 12) * math.log(q) ** (1 / 3)


def incomplete_envelope(window_length: int, q: int) -> float:
    """R^(5/6) q^(1/12) (log q)^(4/3), the partial-sum growth envelope."""
    return window_length ** (5 / 6) * q ** (1 / 12) * math.log(q) ** (4 / 3)


# -- order-d character sums ---------------------------------------------------


def order_d_exponents(view: EdsView, d: int, n_terms: int) -> np.ndarray:
    """Exponent j of chi_d(psi_n) = e(j/d) for n = 1..n_terms; -1 at zeros.

    Read-only; like :func:`chi_window`, kept on the view, one window per d.
    """
    if n_terms > COMPLETE_MAX:
        raise ValueError("order-d window exceeds the desk-scale guard")
    fld = view.curve.field
    return _kept_window(view, d, n_terms, lambda psi: fld.dchar_exponent_array(psi, d))


def order_d_period(view: EdsView, d: int) -> int:
    """Predicted minimal period of n -> chi_d(psi_n): r times the least s
    with chi_d(a)^s = chi_d(b)^(s^2) = 1 for the shift constants (a, b)."""
    fld = view.curve.field
    alpha = fld.dchar_exponent(view.mult_a, d)
    beta = fld.dchar_exponent(view.mult_b, d)
    return view.r * least_shift(d // math.gcd(alpha, d), d // math.gcd(beta, d))


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
    period = d * view.r
    if mode == "incomplete":
        # pure root-of-unity sum: how often each exponent j occurs in x terms
        # (shifted by one, so that the zeros' -1 lands in a dropped bin)
        counts = _periodic_counts(
            lambda k: order_d_exponents(view, d, k), period, x,
            lambda w: np.bincount(w + 1, minlength=d + 1)[1:],
        )
        counts = np.array(counts, dtype=np.float64)
        return _phase_sum(((i, counts[i]) for i in _blocks(d)), d)
    if mode != "complete":
        raise ValueError(f"mode must be 'complete' or 'incomplete', got {mode!r}")
    # phase index k_n = (a*n + exps_n * r) mod d*r, weight 0 at the zeros
    exps = order_d_exponents(view, d, period)
    step = x % period
    return _phase_sum(
        (((step * (i + 1) + exps[i] * view.r) % period, exps[i] >= 0) for i in _blocks(period)),
        period,
    )


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


# The division-polynomial tower up to ell has O(ell^2) coefficients in each of
# O(ell) rows; and at p <= 10^6 the bound 2 d sqrt(p), d ~ ell^2 / 2, is below
# the trivial bound |E| only for ell under about 32.
WEIL_ELL_MAX = 101


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
        if l > WEIL_ELL_MAX:
            raise ValueError(f"Weil checks guarded at ell <= {WEIL_ELL_MAX}, got {l}")
    return ells


def _ell_polys(curve: EllipticCurve, ells: tuple[int, ...]) -> list[np.ndarray]:
    """The coefficient arrays f_ell of psi_ell, ell in ells, from one tower."""
    tower = division_poly_tower(curve, max(ells))
    return [tower[l][1] for l in ells]


def _chi_grids(fld: PrimeField, xs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """chi(f(x)) on stacked group grids: xs the (..., M, L) grid abscissae,
    rows the (..., D) coefficient rows of f, one per leading index of xs (a
    1-D row serves every grid); 0 at each grid's infinity slot (0, 0).  One
    horner over the whole stack, then one chi-table gather."""
    # horner takes a lone row's coefficients as ints, about 8 % faster than
    # as broadcast arrays
    f = rows if rows.ndim == 1 else rows[..., None, None, :]
    out = fld.chi_table()[horner(f, xs, fld.p)]
    out[..., 0, 0] = 0
    return out


def _chi_grid(curve: EllipticCurve, polys) -> np.ndarray:
    """chi(f(P)) on the (M, L) group grid, f = the product of the coefficient
    arrays in polys (the f_ell of odd psi_ell); 0 at the infinity slot.  One
    _chi_grids call per array, so one (M, L) grid is held at a time."""
    _, xs, _ = group_grid(curve)
    out = np.ones(xs.shape, dtype=np.int8)
    for f in polys:
        out = out * _chi_grids(curve.field, xs, f)
    return out


def _spectrum(grid: np.ndarray) -> np.ndarray:
    """sum_P omega_{a,b}(P) grid[P] for every character (a, b), over the last
    two axes: a grid or a stack of grids, one ifft2 for the whole stack."""
    m, l = grid.shape[-2:]
    return np.fft.ifft2(grid.astype(np.float64), axes=(-2, -1)) * (m * l)


def _locate(curve: EllipticCurve, point: Point) -> tuple[int, int]:
    """Grid coordinates (m, l) of a point: point = m*gen_m + l*gen_l."""
    _, xs, ys = group_grid(curve)
    hits = np.argwhere((xs == point.x) & (ys == point.y))
    if not len(hits):
        raise AssertionError(f"{point} not found on the generator grid of {curve!r}")
    return int(hits[0, 0]), int(hits[0, 1])


def weil_sum_check(
    curve: EllipticCurve,
    ells,
    omega: tuple[int, int] = (0, 0),
    subgroup: Point | None = None,
) -> WeilCheckReport:
    """Brute-force one character sum against its 2 d sqrt(q) bound.

    ells defines f = prod psi_ell (distinct odd indices >= 3), omega = (a, b)
    indexes the group character, and subgroup (a generator point, optional)
    restricts the sum to <subgroup>.  The full-group sum is read from the
    ifft2 spectrum of the chi grid; a subgroup sum from the spectrum of that
    grid masked to the multiples of the generator.  For subgroup sums the
    report also carries the gap of the annihilator-averaging identity
    sum_{P in H} = mean over theta in Omega_H of the full-group sums, and
    |H| = ML / |Omega_H|.  Values carry spectrum_err_bound(ML).
    """
    ells = _validate_ells(ells)
    s, _, _ = group_grid(curve)
    grid = _chi_grid(curve, _ell_polys(curve, ells))
    d = weil_degree(ells)
    a, b = omega[0] % s.m, omega[1] % s.l
    grids = [grid]
    desc = None
    if subgroup is not None:
        curve.validate_point(subgroup)
        mq, lq = _locate(curve, subgroup)
        # the pairing is symmetric, so the characters trivial on <Q> are the
        # grid points of the subgroup annihilated by the "character" (mq, lq)
        ta, tb = np.nonzero(subgroup_mask(s.m, s.l, [(mq, lq)]))
        order = s.size // len(ta)
        k = np.arange(order, dtype=np.int64)
        mask = np.zeros(grid.shape, dtype=bool)
        mask[k * mq % s.m, k * lq % s.l] = True
        grids.append(grid * mask)
        desc = {"x": subgroup.x, "y": subgroup.y, "order": order, "index": len(ta)}
    # the full spectrum, then the masked one if any, from one ifft2
    spectra = _spectrum(np.stack(grids))
    value = complex(spectra[-1, a, b])
    gap = None
    if subgroup is not None:
        gap = abs(value - complex(spectra[0, (a + ta) % s.m, (b + tb) % s.l].mean()))
    return WeilCheckReport(
        sum_modulus=abs(value),
        bound=2.0 * d * math.sqrt(curve.p),
        degree=d,
        omega_index=(a, b),
        subgroup=desc,
        value=value,
        err_bound=spectrum_err_bound(s.size),
        averaging_gap=gap,
    )


def small_character_subgroups(m: int, l: int, max_order: int = 4) -> list[tuple[tuple[int, int], ...]]:
    """All subgroups of Z/m x Z/l of order <= max_order (as sorted element tuples).

    These are the annihilator groups Omega_H of the subgroups H of index
    <= max_order, cyclic or not.  A group of order <= 4 is cyclic, generated
    by an element of the 12-torsion, or Z/2 x Z/2, spanned by two distinct
    subgroups of order 2; max_order is guarded at 1..4.
    """
    if not 1 <= max_order <= SUBGROUP_ORDER_MAX:
        raise ValueError(
            f"subgroup listing guarded at order 1..{SUBGROUP_ORDER_MAX}, got {max_order}"
        )
    # every element of order <= 4 lies in the 12-torsion, and the first 12
    # multiples of such an element run through its cyclic group
    gm, gl = math.gcd(m, 12), math.gcd(l, 12)
    torsion = [(i * (m // gm), j * (l // gl)) for i in range(gm) for j in range(gl)]
    cyclic = {frozenset((k * a % m, k * b % l) for k in range(12)) for a, b in torsion}
    found = {g for g in cyclic if len(g) <= max_order}
    if max_order >= 4:
        # each Z/2 x Z/2 arises from three pairs; the set keeps it once
        twos = [g for g in found if len(g) == 2]
        found |= {
            frozenset(((x1 + x2) % m, (y1 + y2) % l) for x1, y1 in g1 for x2, y2 in g2)
            for n, g1 in enumerate(twos)
            for g2 in twos[n + 1 :]
        }
    return sorted(tuple(sorted(g)) for g in found)


def subgroup_mask(m: int, l: int, omega_h) -> np.ndarray:
    """Boolean (m, l) grid of the subgroup H annihilated by all of omega_h.

    The one place the pairing <(a, b), (i, j)> = a*i*L + b*j*M (mod ML) of
    characters and grid points is written.
    """
    n = m * l
    m_grid, l_grid = np.meshgrid(
        np.arange(m, dtype=np.int64), np.arange(l, dtype=np.int64), indexing="ij"
    )
    mask = np.ones((m, l), dtype=bool)
    for a, b in omega_h:
        mask &= (m_grid * (a * l) + l_grid * (b * m)) % n == 0
    return mask


def averaged_spectrum(spectrum: np.ndarray, omega_h) -> np.ndarray:
    """Mean over theta in omega_h of spectrum shifted by theta, over the last
    two axes: a spectrum or a stack of spectra, each averaged alone.

    Row (a, b) of the result equals the subgroup-restricted sum for omega_(a,b)
    whenever omega_h is the annihilator group of that subgroup.  The shifts
    are added in omega_h order from zero, whatever the stack.
    """
    m, l = spectrum.shape[-2:]
    rows, cols = np.arange(m)[:, None], np.arange(l)
    acc = np.zeros_like(spectrum)
    for ta, tb in omega_h:
        acc += spectrum[..., (rows + ta) % m, (cols + tb) % l]
    return acc / len(omega_h)
