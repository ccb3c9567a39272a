"""Curve group law, orders, enumeration, and group structure."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from edschar.curve import (
    EllipticCurve,
    GroupStructure,
    Point,
    all_curves,
    curve_order,
    enumerate_points,
    group_grid,
    group_structure,
    point_order,
)
from edschar import curve as curve_module
from edschar.curve import _count_points  # independent slow counter
from edschar.field import field, primes_in
from edschar.rng import SplitMix64

E5 = EllipticCurve(field(5), 1, 1)  # y^2 = x^3 + x + 1
E5_B = EllipticCurve(field(5), 0, 1)  # y^2 = x^3 + 1
E13 = EllipticCurve(field(13), 2, 3)
E1009 = EllipticCurve(field(1009), 5, 7)


# -- construction ------------------------------------------------------------------


def test_rejects_singular_curves():
    with pytest.raises(ValueError):
        EllipticCurve(field(5), 0, 0)  # discriminant 0
    with pytest.raises(ValueError):
        EllipticCurve(field(7), 0, 7)  # b = 0 mod 7
    with pytest.raises(ValueError):
        EllipticCurve(field(5), 3, 1)  # 4*27 + 27 = 135 = 0 mod 5


def test_rejects_composite_modulus():
    with pytest.raises(ValueError):
        EllipticCurve(15, 1, 1)


def test_coefficients_canonicalized():
    e = EllipticCurve(field(5), 6, -4)
    assert (e.a, e.b) == (1, 1)
    assert e == E5


def test_contains_and_validate():
    assert E5.contains(None)  # infinity
    assert E5.contains(Point(0, 1))
    assert not E5.contains(Point(1, 1))
    with pytest.raises(ValueError):
        E5.validate_point(Point(1, 1))


# -- group law (frozen oracles on y^2 = x^3 + x + 1 over F_5) ------------------------


def test_doubling_frozen():
    # chord-tangent: lambda = (3*0 + 1) / (2*1) = 3, x3 = 9 - 0 = 4, y3 = 3*(0-4)-1 = 2
    assert E5.add(Point(0, 1), Point(0, 1)) == Point(4, 2)


def test_triple_frozen():
    p = Point(0, 1)
    assert E5.mul(3, p) == E5.add(E5.add(p, p), p) == Point(2, 1)


def test_identity_and_inverse():
    p = Point(0, 1)
    assert E5.add(p, None) == p
    assert E5.add(None, p) == p
    assert E5.add(None, None) is None
    assert E5.add(p, Point(0, 4)) is None  # inverse pair
    assert E5.neg(p) == Point(0, 4)
    assert E5.neg(None) is None


def test_scalar_edge_cases():
    p = Point(0, 1)
    assert E5.mul(0, p) is None
    assert E5.mul(1, p) == p
    assert E5.mul(-1, p) == E5.neg(p)
    assert E5.mul(9, p) is None  # ord(P) = 9
    assert E5.mul(-3, p) == E5.neg(E5.mul(3, p))
    assert E5.mul(5, None) is None


def test_add_closure_and_commutativity_exhaustive():
    pts = enumerate_points(E13)
    for p1, p2 in itertools.product(pts, repeat=2):
        s = E13.add(p1, p2)
        assert E13.contains(s)
        assert s == E13.add(p2, p1)


def test_associativity_exhaustive_f13():
    pts = enumerate_points(E13)
    for p1, p2, p3 in itertools.product(pts, repeat=3):
        assert E13.add(E13.add(p1, p2), p3) == E13.add(p1, E13.add(p2, p3))


_BASE_1009 = next(pt for x in range(1009) for pt in E1009.lift_x(x))
_PTS_1009 = [E1009.mul(k, _BASE_1009) for k in range(1, 40)]


@settings(max_examples=60)
@given(
    st.integers(min_value=-500, max_value=500),
    st.integers(min_value=-500, max_value=500),
)
def test_scalar_mul_homomorphism(m, n):
    p = _PTS_1009[7]
    assert E1009.mul(m + n, p) == E1009.add(E1009.mul(m, p), E1009.mul(n, p))


# -- orders and enumeration ------------------------------------------------------------


def test_point_order_frozen():
    assert point_order(E5, None) == 1
    assert point_order(E5, Point(0, 1)) == 9
    assert point_order(E5_B, Point(0, 1)) == 3  # [2](0,1) = (0,4) = -P


def test_point_order_matches_brute_force():
    for pt in enumerate_points(E13):
        order = point_order(E13, pt)
        q = pt
        steps = 1
        while q is not None:
            q = E13.add(q, pt)
            steps += 1
        if pt is None:
            assert order == 1
        else:
            assert order == steps
            assert E13.mul(order, pt) is None
            assert all(E13.mul(k, pt) is not None for k in range(1, order))


def test_enumerate_points_frozen():
    pts = enumerate_points(E5)
    assert len(pts) == 9
    assert None in pts
    assert all(E5.contains(pt) for pt in pts)
    assert len(set(pts)) == 9


def test_enumeration_hasse_bound_all_curves_f7():
    p = 7
    curves = list(all_curves(field(p)))
    for curve in curves:
        points = enumerate_points(curve)
        brute = [
            Point(x, y)
            for x in range(p)
            for y in range(p)
            if (y * y - x**3 - curve.a * x - curve.b) % p == 0
        ]
        assert points == [None, *brute]  # infinity, then (x, y)-lex order
        n = len(points)
        assert abs(n - p - 1) <= 2 * p**0.5
        assert curve_order(curve) == n
    assert len(curves) == p * p - p  # the singular locus has exactly p pairs
    pairs = [(curve.a, curve.b) for curve in curves]
    assert pairs == sorted(set(pairs))  # (A, B)-lex order, each pair once


def test_singular_pair_count_f5():
    singular = sum(
        (4 * a**3 + 27 * b**2) % 5 == 0 for a in range(5) for b in range(5)
    )
    assert singular == 5


def test_enumeration_guard():
    with pytest.raises(ValueError):
        enumerate_points(EllipticCurve(field(1_000_003), 1, 1))


def test_group_order_annihilates_every_point():
    n = curve_order(E13)
    for pt in enumerate_points(E13):
        assert E13.mul(n, pt) is None


def test_curve_order_bsgs_matches_enumeration():
    # p > 10**4 forces the baby-step giant-step path; compare with direct count
    for a, b in [(1, 1), (3, 5)]:
        curve = EllipticCurve(field(10_007), a, b)
        assert curve_order(curve) == _count_points(curve)
    for p in (10_007, 10_009):
        for a, b in itertools.product(range(10), (1, 2, 3)):
            curve = EllipticCurve(field(p), a, b)
            assert curve_order(curve) == _count_points(curve)


def test_curve_order_cached():
    e = EllipticCurve(field(10_007), 2, 9)
    assert curve_order(e) == curve_order(e)


def test_curve_order_outside_hasse_interval_raises(monkeypatch):
    # one point above the Hasse bound p + 1 + isqrt(4p) = 1073
    monkeypatch.setattr(curve_module, "_count_points", lambda curve: 1009 + 1 + 64)
    with pytest.raises(RuntimeError, match="Hasse interval"):
        curve_order(EllipticCurve(field(1009), 1, 2))


# -- group structure ----------------------------------------------------------------


def test_group_structure_frozen_cyclic():
    s = group_structure(E5)
    assert (s.m, s.l) == (9, 1)
    assert s.size == 9
    assert point_order(E5, s.gen_m) == 9
    assert s.gen_l is None


def test_group_structure_properties_exhaustive_f11():
    p = 11
    for a in range(p):
        for b in range(p):
            if (4 * a**3 + 27 * b**2) % p == 0:
                continue
            curve = EllipticCurve(field(p), a, b)
            s = group_structure(curve)
            assert isinstance(s, GroupStructure)
            assert s.m % s.l == 0
            assert s.m * s.l == curve_order(curve) == s.size
            assert (p - 1) % s.l == 0  # pairing constraint
            assert point_order(curve, s.gen_m) == s.m
            if s.l > 1:
                assert point_order(curve, s.gen_l) == s.l
            # the M*L combinations regenerate the whole group exactly
            combos = set()
            row = None
            for _ in range(s.l):
                q = row
                for _ in range(s.m):
                    combos.add(q)
                    q = curve.add(q, s.gen_m)
                row = curve.add(row, s.gen_l)
            assert combos == set(enumerate_points(curve))


def test_group_grid_cells_are_the_generator_combinations():
    for p in primes_in(5, 13):
        for curve in all_curves(field(p)):
            s, xs, ys = group_grid(curve)
            assert xs.shape == ys.shape == (s.m, s.l)
            for i in range(s.m):
                for j in range(s.l):
                    q = curve.add(curve.mul(i, s.gen_m), curve.mul(j, s.gen_l))
                    want = (-1, -1) if q is None else (q.x, q.y)
                    assert (int(xs[i, j]), int(ys[i, j])) == want


# (p, A, B) with their (M, L): M spans several doubling blocks of column 0,
# at and around powers of two, and L runs from 1 to 7
GRID_CURVES = {
    (63, 3): (181, 4, 15),
    (64, 1): (53, 1, 6),
    (64, 4): (229, 2, 24),
    (65, 5): (311, 6, 10),
    (127, 1): (107, 1, 25),
    (128, 2): (227, 1, 30),
    (129, 3): (367, 3, 39),
    (255, 3): (727, 1, 20),
    (256, 1): (227, 1, 7),
    (257, 1): (227, 16, 37),
    (511, 1): (467, 6, 17),
    (512, 1): (479, 2, 8),
    (513, 1): (479, 2, 16),
    (60, 6): (331, 8, 3),
    (84, 7): (617, 21, 19),
}


@pytest.mark.parametrize("shape", GRID_CURVES, ids=[f"M{m}-L{l}" for m, l in GRID_CURVES])
def test_group_grid_matches_plain_loop_oracle(shape):
    curve = EllipticCurve(*GRID_CURVES[shape])
    s, xs, ys = group_grid(curve)
    assert (s.m, s.l) == shape and xs.shape == ys.shape == shape
    for i in range(s.m):
        for j in range(s.l):
            q = curve.add(curve.mul(i, s.gen_m), curve.mul(j, s.gen_l))
            want = (-1, -1) if q is None else (q.x, q.y)
            assert (int(xs[i, j]), int(ys[i, j])) == want


def _fake_structure(curve, m, l, gen_m, gen_l):
    curve._structure = GroupStructure(m=m, l=l, gen_m=gen_m, gen_l=gen_l, size=m * l)
    curve._grid = None


@pytest.mark.parametrize("step", ["doubling block", "column"])
def test_group_grid_collision_caught_by_zero_denominator(step):
    if step == "doubling block":
        # a generator of order 48 claimed to have order 96: in the block at
        # k = 32, cell 16 + [32]gen_m is 16*gen_m - 16*gen_m
        curve = EllipticCurve(field(37), 1, 1)
        s = group_structure(curve)
        assert (s.m, s.l) == (48, 1)
        _fake_structure(curve, 96, 1, s.gen_m, None)
    else:
        # Z/64 x Z/4 with gen_l = 16 gen_m, which lies in <gen_m>
        curve = EllipticCurve(field(229), 2, 24)
        s = group_structure(curve)
        _fake_structure(curve, 64, 4, s.gen_m, curve.mul(16, s.gen_m))
    with pytest.raises(AssertionError, match="generator combinations collide") as info:
        group_grid(curve)
    assert info.traceback[-1].name == "_chord"


def test_group_grid_collision_caught_by_code_count():
    # a generator of order 9 claimed to have order 18: the scalar walk meets
    # infinity again at cell 9, where no chord step runs
    curve = EllipticCurve(field(5), 1, 1)
    s = group_structure(curve)
    assert (s.m, s.l) == (9, 1) and curve_module.GRID_WALK >= 18
    _fake_structure(curve, 18, 1, s.gen_m, None)
    with pytest.raises(AssertionError, match="generator combinations collide") as info:
        group_grid(curve)
    assert info.traceback[-1].name == "_build_grid"


def test_group_grid_collision_raises():
    # Z/4 x Z/2 with gen_l = 2 gen_m, which lies in <gen_m>
    curve = EllipticCurve(field(5), -1, 0)
    s = group_structure(curve)
    curve._structure = GroupStructure(
        m=4, l=2, gen_m=s.gen_m, gen_l=curve.mul(2, s.gen_m), size=8
    )
    curve._grid = None
    with pytest.raises(AssertionError, match="generator combinations collide"):
        group_grid(curve)


def test_group_grid_checked_in_group_structure_or_on_first_use():
    small = EllipticCurve(field(1009), 1, 2)
    group_structure(small)
    assert small._grid is not None  # N = 1008: checked inside group_structure
    large = EllipticCurve(field(30_011), 1, 2)
    s = group_structure(large)
    assert s.size > curve_module.GRID_CHECK_MAX and large._grid is None
    s2, xs, ys = group_grid(large)
    assert s2 is s and large._grid is not None
    for i, j in [(1, 0), (s.m - 1, s.l - 1), (s.m // 2, 0)]:
        q = large.add(large.mul(i, s.gen_m), large.mul(j, s.gen_l))
        assert (int(xs[i, j]), int(ys[i, j])) == (q.x, q.y)


def test_full_two_torsion_curve_has_even_l():
    # y^2 = x^3 - x = x(x-1)(x+1) over F_5: three 2-torsion points
    curve = EllipticCurve(field(5), -1, 0)
    two_torsion = [pt for pt in enumerate_points(curve) if pt is not None and pt.y == 0]
    assert len(two_torsion) == 3
    s = group_structure(curve)
    assert s.l % 2 == 0
    assert (s.m, s.l) == (4, 2)


def test_group_structure_matches_brute_force_small_primes():
    # every curve at p <= 23 against the orders of all its points: gen_m is
    # the lex-first point of maximal order and gen_l the multiple
    # (ord(Q) // l) Q of the lex-first Q that is independent of gen_m
    for p in primes_in(5, 23):
        for a in range(p):
            for b in range(p):
                if (4 * a**3 + 27 * b**2) % p == 0:
                    continue
                curve = EllipticCurve(field(p), a, b)
                points = [q for q in enumerate_points(curve) if q is not None]
                orders = [point_order(curve, q) for q in points]
                m = max(orders)
                l = (len(points) + 1) // m
                s = group_structure(curve)
                assert (s.m, s.l) == (m, l)
                assert s.gen_m == points[orders.index(m)]
                span_m = {curve.mul(j, s.gen_m) for j in range(m)}
                cofactors = (
                    curve.mul(o // l, q) for q, o in zip(points, orders) if o % l == 0
                )
                independent = (
                    c
                    for c in cofactors
                    if all(curve.mul(i, c) not in span_m for i in range(1, l))
                )
                assert s.gen_l == (next(independent) if l > 1 else None)


def test_group_structure_stops_early_on_noncyclic_curve(monkeypatch):
    # y^2 = x^3 + x + 2 over F_1009 is Z/252 x Z/4: the exponent and an
    # independent order-4 point are certified after a few points, not 1007
    calls = []
    order_from_multiple = curve_module._order_from_multiple

    def counted(curve, point, k):
        calls.append(point)
        return order_from_multiple(curve, point, k)

    monkeypatch.setattr(curve_module, "_order_from_multiple", counted)
    s = group_structure(EllipticCurve(field(1009), 1, 2))
    assert (s.m, s.l, s.size) == (252, 4, 1008)
    assert len(calls) <= 50


def test_max_order_point_is_lex_first():
    for curve in (E5, E13, EllipticCurve(field(5), -1, 0)):
        s = group_structure(curve)
        pt, order = s.gen_m, s.m
        orders = {
            q: point_order(curve, q)
            for q in enumerate_points(curve)
            if q is not None
        }
        best = max(orders.values())
        assert order == best == point_order(curve, pt)
        lex_first = min((q for q, o in orders.items() if o == best), key=lambda q: (q.x, q.y))
        assert pt == lex_first


# -- point sampling ----------------------------------------------------------------


class _FakeRng:
    """Deterministic stand-in with the single-argument randrange protocol."""

    def __init__(self, values):
        self.values = list(values)

    def randrange(self, n):
        return self.values.pop(0) % n


def test_random_point_on_curve():
    rng = _FakeRng(range(100))
    pt = E13.random_point(rng)
    assert pt is not None
    assert E13.contains(pt)


def test_random_point_nonzero_y_skips_two_torsion():
    curve = EllipticCurve(field(13), -1, 0)  # has three 2-torsion points
    rng = _FakeRng(list(range(200)))
    pt = curve.random_point(rng, nonzero_y=True, max_tries=200)
    assert pt is not None and pt.y != 0


def test_random_point_exhausts_on_all_two_torsion_curve():
    # y^2 = x^3 + x over F_5 = x(x-2)(x+2): every affine point has y = 0
    curve = EllipticCurve(field(5), 1, 0)
    affine = [pt for pt in enumerate_points(curve) if pt is not None]
    assert all(pt.y == 0 for pt in affine)
    rng = _FakeRng(list(range(64)))
    assert curve.random_point(rng, nonzero_y=True, max_tries=64) is None


def test_random_point_draws_frozen():
    # the first 40 draws from SplitMix64(0): one x per try, then one coin for
    # the root when x lifts to two points
    want = [
        (165, 516), (127, 967), (483, 718), (857, 509), (382, 845), (612, 626),
        (689, 427), (233, 983), (727, 440), (177, 896), (370, 78), (602, 918),
        (232, 759), (159, 25), (495, 127), (257, 247), (942, 731), (267, 910),
        (948, 967), (328, 157), (42, 839), (875, 280), (282, 384), (610, 297),
        (757, 880), (309, 149), (612, 626), (214, 419), (97, 488), (843, 848),
        (250, 647), (316, 239), (198, 446), (93, 205), (747, 580), (65, 855),
        (978, 683), (68, 389), (820, 651), (898, 5),
    ]
    for nonzero_y in (False, True):
        rng = SplitMix64(0)
        pts = [E1009.random_point(rng, nonzero_y=nonzero_y) for _ in range(40)]
        assert [(q.x, q.y) for q in pts] == want
    # three 2-torsion points: nonzero_y draws again, without a coin, past them
    curve = EllipticCurve(field(13), -1, 0)
    rng = SplitMix64(0)
    pts = [curve.random_point(rng, nonzero_y=True) for _ in range(40)]
    assert [(q.x, q.y) for q in pts] == [
        (8, 7), (5, 9), (5, 4), (5, 4), (5, 4), (5, 9), (8, 6), (8, 6), (8, 6),
        (5, 4), (5, 4), (8, 6), (8, 7), (5, 9), (8, 7), (8, 7), (8, 7), (5, 4),
        (8, 6), (8, 7), (5, 4), (5, 9), (5, 4), (5, 9), (8, 7), (8, 6), (8, 6),
        (5, 9), (5, 4), (8, 7), (5, 9), (5, 4), (5, 4), (8, 6), (8, 6), (5, 9),
        (5, 9), (5, 4), (5, 4), (5, 4),
    ]


def test_lift_x_shapes():
    assert E5.lift_x(0) == [Point(0, 1), Point(0, 4)]
    assert E5.lift_x(1) == []  # rhs(1) = 3, a nonresidue mod 5
    curve = EllipticCurve(field(5), -1, 0)
    assert curve.lift_x(0) == [Point(0, 0)]  # double root


def test_point_value_semantics():
    assert Point(2, 3) == Point(2, 3)
    assert Point(2, 3) != Point(3, 2)
    assert len({Point(1, 1), Point(1, 1)}) == 1
    with pytest.raises(Exception):
        Point(1, 2).x = 5  # frozen
