"""Short Weierstrass curves y^2 = x^3 + A x + B over F_p.

Points are either ``None`` (the point at infinity) or frozen :class:`Point`
records with canonical int coordinates.  Every point comes from ``lift_x``,
the one place an abscissa is turned into points: ``affine_points`` walks it
lazily over x = 0..p - 1, ``enumerate_points`` lists that walk, and
``random_point`` lifts a random x.  The group operations use affine
chord-and-tangent formulas; scalar multiplication is double-and-add.

Curve order is computed by direct point counting for p <= 10**4 and by
baby-step giant-step annihilator search in the Hasse interval for larger p
(guarded at p <= 10**9).  Point orders are derived from the group order by
stripping prime factors.

The group structure E ~ Z/M x Z/L (guarded at p <= 10**6) comes from one
pass over the affine points in (x, y)-lex order that stops as soon as the
running maximum order M is certified as the exponent: at once when M = N,
otherwise at the first point that yields an order-L element independent of
the order-M generator, since the two then generate all N = M*L points.

The group grid holds the coordinates of every combination i*gen_m + j*gen_l
in two (M, L) int64 arrays, built by one walk of the M*L combinations and
checked pairwise distinct by counting the distinct codes x*p + y, so the
generators provably give every point once.  group_structure builds, checks
and caches it on the curve for N <= 20 000; group_grid does so on first use
for larger groups.  The Weil-sum checks of charsum read it from there.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .field import PrimeField, divisors, factorize, field
from .rng import SplitMix64

ENUM_ORDER_MAX = 10_000  # counting strategy switchover
ENUMERATION_MAX = 1_000_000  # hard guard for materializing all points
ORDER_MAX = 1_000_000_000  # hard guard for any order computation
STRUCTURE_MAX = 1_000_000  # hard guard for group-structure decomposition
GRID_CHECK_MAX = 20_000  # group_structure checks every group up to this size


@dataclass(frozen=True)
class Point:
    x: int
    y: int


class EllipticCurve:
    """Nonsingular short Weierstrass curve over a prime field."""

    __slots__ = ("field", "p", "a", "b", "_order", "_structure", "_grid")

    def __init__(self, p: int | PrimeField, a: int, b: int):
        f = p if isinstance(p, PrimeField) else field(p)
        self.field = f
        self.p = f.p
        self.a = a % f.p
        self.b = b % f.p
        if (4 * self.a**3 + 27 * self.b**2) % f.p == 0:
            raise ValueError(
                f"singular curve: 4A^3 + 27B^2 = 0 mod {f.p} for A={self.a}, B={self.b}"
            )
        self._order: int | None = None
        self._structure = None
        self._grid = None

    def __repr__(self) -> str:
        return f"EllipticCurve(p={self.p}, a={self.a}, b={self.b})"

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EllipticCurve)
            and (other.p, other.a, other.b) == (self.p, self.a, self.b)
        )

    def __hash__(self) -> int:
        return hash((self.p, self.a, self.b))

    def rhs(self, x):
        """x^3 + Ax + B mod p at an int x, or elementwise at an int64 array of
        residues (exact while 2*p**2 + p < 2**63)."""
        p = self.p
        return (x * x % p * x + self.a * x + self.b) % p

    def contains(self, point: Point | None) -> bool:
        if point is None:
            return True
        if not (0 <= point.x < self.p and 0 <= point.y < self.p):
            return False
        return point.y * point.y % self.p == self.rhs(point.x)

    def validate_point(self, point: Point | None) -> None:
        if not self.contains(point):
            raise ValueError(f"point {point} is not on {self!r}")

    def neg(self, point: Point | None) -> Point | None:
        if point is None:
            return None
        return Point(point.x, -point.y % self.p)

    def add(self, p1: Point | None, p2: Point | None) -> Point | None:
        if p1 is None:
            return p2
        if p2 is None:
            return p1
        p = self.p
        if p1.x == p2.x:
            if (p1.y + p2.y) % p == 0:
                return None
            lam = (3 * p1.x * p1.x + self.a) * pow(2 * p1.y, -1, p) % p
        else:
            lam = (p2.y - p1.y) * pow(p2.x - p1.x, -1, p) % p
        x3 = (lam * lam - p1.x - p2.x) % p
        y3 = (lam * (p1.x - x3) - p1.y) % p
        return Point(x3, y3)

    def mul(self, n: int, point: Point | None) -> Point | None:
        """Scalar multiple [n]P, any integer n."""
        if n < 0:
            n, point = -n, self.neg(point)
        acc: Point | None = None
        while n:
            if n & 1:
                acc = self.add(acc, point)
            point = self.add(point, point)
            n >>= 1
        return acc

    def lift_x(self, x: int) -> list[Point]:
        """Points with abscissa x, y ascending (0, 1 or 2 of them)."""
        r = self.rhs(x)
        if r == 0:
            return [Point(x, 0)]
        y = self.field.sqrt(r)
        if y is None:
            return []
        return [Point(x, y), Point(x, self.p - y)]

    def random_point(
        self, rng, nonzero_y: bool = False, max_tries: int | None = None
    ) -> Point | None:
        """Uniform-ish affine point from rng (random x, then a root).

        With nonzero_y=True, pass max_tries to bound the search: a few tiny
        curves consist entirely of 2-torsion and would otherwise never yield.
        Returns None when the bound is exhausted.
        """
        for _ in itertools.count() if max_tries is None else range(max_tries):
            points = self.lift_x(rng.randrange(self.p))
            if len(points) == 2:
                return points[rng.randrange(2)]
            if points and not nonzero_y:
                return points[0]
        return None


def all_curves(fld: PrimeField):
    """Every nonsingular curve y^2 = x^3 + Ax + B over fld, in (A, B)-lex order."""
    p = fld.p
    for a in range(p):
        for b in range(p):
            if (4 * a * a * a + 27 * b * b) % p:
                yield EllipticCurve(fld, a, b)


def affine_points(curve: EllipticCurve):
    """Affine points in (x, y)-lexicographic order (x ascending, y ascending),
    lifted lazily one abscissa at a time."""
    for x in range(curve.p):
        yield from curve.lift_x(x)


def enumerate_points(curve: EllipticCurve) -> list[Point | None]:
    """All points, infinity first, affine points in (x, y) lexicographic order."""
    if curve.p > ENUMERATION_MAX:
        raise ValueError(
            f"point enumeration guarded at p <= {ENUMERATION_MAX}; "
            "use random_point sampling instead"
        )
    return [None, *affine_points(curve)]


def _count_points(curve: EllipticCurve) -> int:
    """#E(F_p) by summing 1 + chi(x^3 + Ax + B) over x, plus infinity."""
    rhs = curve.rhs(np.arange(curve.p, dtype=np.int64))
    return curve.p + 1 + int(curve.field.chi_table()[rhs].sum())


def _hasse_interval(p: int) -> tuple[int, int]:
    w = math.isqrt(4 * p)
    return p + 1 - w, p + 1 + w


def _bsgs_annihilator(curve: EllipticCurve, point: Point) -> int:
    """Some multiple of ord(point) inside the Hasse interval, via BSGS."""
    lo, hi = _hasse_interval(curve.p)
    span = hi - lo + 1
    s = math.isqrt(span) + 1
    baby: dict[Point | None, int] = {}
    q: Point | None = None
    for j in range(s):
        baby.setdefault(q, j)
        q = curve.add(q, point)
    giant = curve.mul(s, point)
    t = curve.mul(lo, point)
    for i in range(span // s + 2):
        j = baby.get(curve.neg(t))
        if j is not None:
            k = lo + i * s + j
            if lo <= k <= hi:
                return k
        t = curve.add(t, giant)
    raise AssertionError("no annihilator in Hasse interval (non-prime modulus?)")


def _order_from_multiple(curve: EllipticCurve, point: Point | None, k: int) -> int:
    """Exact ord(point) given [k]point = O."""
    d = k
    for q in factorize(k):
        while d % q == 0 and curve.mul(d // q, point) is None:
            d //= q
    return d


def curve_order(curve: EllipticCurve) -> int:
    """#E(F_p).  Enumeration for p <= 10**4, BSGS + lcm of point orders above."""
    if curve._order is not None:
        return curve._order
    p = curve.p
    if p > ORDER_MAX:
        raise ValueError(f"order computation guarded at p <= {ORDER_MAX}")
    if p <= ENUM_ORDER_MAX:
        n = _count_points(curve)
    else:
        n = _bsgs_group_order(curve)
    lo, hi = _hasse_interval(p)
    if not lo <= n <= hi:
        raise RuntimeError(
            f"point count {n} of {curve!r} lies outside the Hasse interval [{lo}, {hi}]"
        )
    curve._order = n
    return n


def _bsgs_group_order(curve: EllipticCurve) -> int:
    p = curve.p
    lo, hi = _hasse_interval(p)
    rng = SplitMix64((p * 0x9E3779B97F4A7C15) ^ (curve.a << 1) ^ curve.b)
    exponent = 1
    candidates: list[int] = []
    for attempt in range(48):
        q = curve.random_point(rng)
        k = _bsgs_annihilator(curve, q)
        exponent = math.lcm(exponent, _order_from_multiple(curve, q, k))
        start = (lo + exponent - 1) // exponent * exponent
        candidates = list(range(start, hi + 1, exponent))
        if len(candidates) == 1:
            return candidates[0]
        if attempt >= 7:
            # Sampled orders have almost surely hit the group exponent M; the
            # cofactor L = N/M must divide both M and p - 1.
            g = math.gcd(exponent, p - 1)
            filtered = [n for n in candidates if g % (n // exponent) == 0]
            if len(filtered) == 1:
                return filtered[0]
    # Resolve the tie through the quadratic twist: orders pair up to 2p + 2.
    z = curve.field.nonresidue()
    twist = EllipticCurve(curve.field, curve.a * z * z % p, curve.b * z**3 % p)
    t_exponent = 1
    for _ in range(48):
        q = twist.random_point(rng)
        k = _bsgs_annihilator(twist, q)
        t_exponent = math.lcm(t_exponent, _order_from_multiple(twist, q, k))
        matches = [
            n for n in candidates if (2 * p + 2 - n) % t_exponent == 0
        ]
        if len(matches) == 1:
            return matches[0]
    raise RuntimeError(f"group order of {curve!r} remained ambiguous")


def point_order(curve: EllipticCurve, point: Point | None) -> int:
    """Order of a point: reduce #E(F_p) by its prime factors."""
    curve.validate_point(point)
    if point is None:
        return 1
    return _order_from_multiple(curve, point, curve_order(curve))


@dataclass(frozen=True)
class GroupStructure:
    """E(F_p) ~ Z/M x Z/L in echelon form: L | M, every point is m*gen_m + l*gen_l."""

    m: int
    l: int
    gen_m: Point
    gen_l: Point | None
    size: int


def _independent_order_l(
    curve: EllipticCurve, gen_m: Point, m: int, cand: Point, l: int
) -> bool:
    """True if <cand> (order l) meets <gen_m> trivially, checked prime by prime."""
    for q in factorize(l):
        probe = curve.mul(l // q, cand)
        step = curve.mul(m // q, gen_m)
        torsion: Point | None = None
        for _ in range(q):
            if probe == torsion:
                return False
            torsion = curve.add(torsion, step)
    return True


def _points_with_orders(curve: EllipticCurve, n: int):
    """Affine points in (x, y)-lex order, each paired with its order (n = #E)."""
    for point in affine_points(curve):
        yield point, _order_from_multiple(curve, point, n)


def _first_independent(
    curve: EllipticCurve, gen_m: Point, m: int, l: int, points
) -> Point | None:
    """(order // l)*Q for the first (Q, order) in points with l | order whose
    multiple meets <gen_m> trivially; None if there is none."""
    for point, order in points:
        if order % l == 0:
            cand = curve.mul(order // l, point)
            if _independent_order_l(curve, gen_m, m, cand, l):
                return cand
    return None


def check_structure_range(p: int) -> None:
    """Raise the group-structure guard's ValueError for p > STRUCTURE_MAX."""
    if p > STRUCTURE_MAX:
        raise ValueError(f"group structure guarded at p <= {STRUCTURE_MAX}")


def group_structure(curve: EllipticCurve) -> GroupStructure:
    """Echelonized generators of E(F_p), deterministic, guarded at p <= 10**6.

    gen_m is the first point in (x, y)-lex order whose order is the group
    exponent M, and gen_l = (ord(Q) // L)*Q for the first lex point Q whose
    multiple has order L = N/M and meets <gen_m> trivially.  The scan stops as
    soon as both are certified: once the running maximum order M' is a
    feasible exponent (L' = N/M' divides both M' and p - 1), an order-L'
    point independent of gen_m generates with it a subgroup of size M'*L' = N,
    so E = Z/M' x Z/L' and M' is the exponent.  With L' = 1 that happens at
    once.  Most curves are certified after a few points instead of all N.
    Groups with N <= GRID_CHECK_MAX are then checked exhaustively: the
    (M, L) coordinate grid of group_grid is built, checked distinct and
    cached on the curve.
    """
    if curve._structure is not None:
        return curve._structure
    p = curve.p
    check_structure_range(p)
    n = curve_order(curve)
    # exponents M compatible with N = M*L, L | M, L | p - 1
    feasible = {
        m for m in divisors(n) if m % (n // m) == 0 and (p - 1) % (n // m) == 0
    }

    m = 0
    gen_m: Point | None = None
    gen_l: Point | None = None
    for index, (point, order) in enumerate(_points_with_orders(curve, n)):
        if order > m:
            m, gen_m = order, point
            if m == n:
                break
            # a new gen_m: the points before it are tested again against it,
            # so that gen_l is the first candidate over the whole group; they
            # are walked again rather than stored, so memory stays flat
            candidates = itertools.islice(_points_with_orders(curve, n), index)
        else:
            candidates = [(point, order)]
        if m in feasible:
            gen_l = _first_independent(curve, gen_m, m, n // m, candidates)
            if gen_l is not None:
                break
    if m not in feasible:
        raise AssertionError("observed exponent incompatible with group order")
    l = n // m
    if l > 1 and gen_l is None:
        raise RuntimeError(f"no independent order-{l} generator found on {curve!r}")
    structure = GroupStructure(m=m, l=l, gen_m=gen_m, gen_l=gen_l, size=n)
    if n <= GRID_CHECK_MAX:
        curve._grid = _build_grid(curve, structure)
    curve._structure = structure
    return structure


def _build_grid(curve: EllipticCurve, s: GroupStructure) -> tuple[np.ndarray, np.ndarray]:
    """x and y of i*gen_m + j*gen_l at cell (i, j) of two (M, L) int64 arrays,
    from one walk of the M*L combinations; infinity, at (0, 0), is stored as
    (-1, -1).  Raises if two cells hold the same point (codes x*p + y, with
    -p - 1 for infinity, are not all distinct)."""
    xs: list[int] = []
    ys: list[int] = []
    col: Point | None = None
    for _ in range(s.l):
        q = col
        for _ in range(s.m):
            xs.append(-1 if q is None else q.x)
            ys.append(-1 if q is None else q.y)
            q = curve.add(q, s.gen_m)
        col = curve.add(col, s.gen_l)
    # walked column by column; stored row-major as (M, L)
    x = np.array(xs, dtype=np.int64).reshape(s.l, s.m).T.copy()
    y = np.array(ys, dtype=np.int64).reshape(s.l, s.m).T.copy()
    # distinct codes counted in a set: np.unique imports numpy.ma, and both
    # it and np.sort raised the peak RSS of a scan (by about 3 and 1.4 MiB)
    if len(set((x * curve.p + y).ravel().tolist())) != s.size:
        raise AssertionError(f"generator combinations collide on {curve!r}")
    return x, y


def group_grid(curve: EllipticCurve) -> tuple[GroupStructure, np.ndarray, np.ndarray]:
    """(structure, xs, ys): the coordinates of i*gen_m + j*gen_l at (i, j),
    infinity at (0, 0) as (-1, -1).  group_structure builds and checks the
    grid for N <= GRID_CHECK_MAX; larger groups build and check it here on
    first use.  Either way it is cached on the curve."""
    s = group_structure(curve)
    if curve._grid is None:
        curve._grid = _build_grid(curve, s)
    return (s, *curve._grid)


def max_order_point(curve: EllipticCurve) -> tuple[Point, int]:
    """First point in (x, y)-lex order whose order equals the group exponent."""
    s = group_structure(curve)
    return s.gen_m, s.m
