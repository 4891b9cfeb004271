"""Zone algebra unit cases and structural properties.

Deep pointwise semantics is covered by the randomized grid comparison
in test_zones_oracle; these are the frozen small cases and the
algebraic laws that make failures easy to read.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import gridoracle as G
from boxes import compile_box
from peralab import zones as Z


def zone(clocks, *constraints):
    return Z.from_constraints(clocks, list(constraints))


CLOCKS = ("x", "y")


def floyd_warshall(m, n):
    """Close a flat n-by-n list in place from scratch; False when the zone is empty.

    The O(n³) reference closure the zone operations are checked against.
    """
    for k in range(n):
        # a copy is safe: row k changes in pass k only through a
        # negative diagonal entry, and then the zone is empty anyway
        row_k = m[k * n:(k + 1) * n]
        for i in range(n):
            base = i * n
            aik = m[base + k]
            if aik >= Z.INF:
                continue
            for idx, b in enumerate(row_k, base):
                if b >= Z.INF:
                    continue
                # a sum of raw encodings carries both weak flags; it is
                # weak only when both parts are, so drop one when either is
                c = aik + b - ((aik | b) & 1)
                if c < m[idx]:
                    m[idx] = c
        for idx in range(0, n * n, n + 1):
            if m[idx] < Z.LE_ZERO:
                return False
    return True


# -- constructors ------------------------------------------------------------


def test_universe_and_origin():
    u = Z.from_constraints(("x",), ())
    o = Z.origin(("x",))
    assert u.contains(o)
    assert not o.contains(u)
    assert G.satisfies_point(o, (Fraction(0),))
    assert not G.satisfies_point(o, (Fraction(1),))


def test_from_constraints_detects_empty():
    assert zone(("x",), (1, 0, Z.lt(0))) is None          # x < 0
    assert zone(("x",), (1, 0, Z.le(0))) is not None      # x <= 0
    assert zone(("x",), (1, 0, Z.le(1)), (0, 1, Z.le(-2))) is None  # x<=1 & x>=2


def test_close_is_idempotent_on_constructor_output():
    a = zone(CLOCKS, (1, 0, Z.le(3)), (2, 1, Z.le(-1)))
    again = list(a.m)
    assert floyd_warshall(again, a.size)
    assert tuple(again) == a.m


# -- operations ---------------------------------------------------------------


def test_intersect_basic():
    a = zone(("x",), (1, 0, Z.le(2)))
    b = zone(("x",), (0, 1, Z.le(-1)))
    both = Z.intersect(a, b)
    assert G.satisfies_point(both, (Fraction(3, 2),))
    assert not G.satisfies_point(both, (Fraction(1, 2),))
    assert Z.intersect(a, zone(("x",), (0, 1, Z.lt(-2)))) is None


def post(d, box, clock):
    """`Z.post` on `box` compiled for a reset of `clock`."""
    return Z.post(d, compile_box(box, clock))


def stepwise_post(d, box, clock):
    """`post`'s definition, one operation at a time."""
    meet = Z.intersect(Z.up(d), box)
    return None if meet is None else Z.reset(meet, clock)


def test_compile_box_keeps_real_bounds_and_the_reset_index():
    box = zone(CLOCKS, (0, 1, Z.lt(-1)), (2, 0, Z.le(2)))        # x > 1, y <= 2
    assert compile_box(box, "y") == (((1, Z.lt(-1)),), ((2, Z.le(2)),), 2, ())
    assert compile_box(zone(CLOCKS), "x") == ((), (), 1, ())  # x >= 0 is no bound
    assert compile_box(zone(CLOCKS), "x", ("y",)) == ((), (), 1, (2,))


def test_post_without_a_tighter_bound_is_the_delayed_reset():
    d = zone(CLOCKS, (0, 1, Z.le(-1)), (2, 0, Z.le(2)))        # x >= 1, y <= 2
    box = zone(CLOCKS, (0, 1, Z.le(-1)))                       # x >= 1: nothing new after delay
    got = post(d, box, "y")
    assert got == Z.reset(Z.up(d), "y") == stepwise_post(d, box, "y")


def test_post_empty_through_a_lower_bound_alone():
    d = zone(("x",), (0, 1, Z.le(-3)))                         # x >= 3, kept by delay
    assert post(d, zone(("x",), (1, 0, Z.le(2))), "x") is None   # x <= 2


def test_post_empty_through_a_lower_upper_cycle():
    # x - y <= 1 bounds neither clock alone; with x >= 3 it forces y >= 2
    d = zone(CLOCKS, (1, 2, Z.le(1)))
    box = zone(CLOCKS, (0, 1, Z.le(-3)), (2, 0, Z.le(1)))      # x >= 3, y <= 1
    assert post(d, box, "x") is None
    assert stepwise_post(d, box, "x") is None


def test_post_strictness_at_a_shared_endpoint():
    d = zone(CLOCKS, (0, 1, Z.le(-3)))                         # x >= 3
    assert post(d, zone(CLOCKS, (1, 0, Z.lt(3))), "y") is None
    box = zone(CLOCKS, (1, 0, Z.le(3)))
    point = post(d, box, "y")
    assert G.satisfies_point(point, (Fraction(3), Fraction(0)))
    assert not G.satisfies_point(point, (Fraction(3), Fraction(1, 2)))
    assert point == stepwise_post(d, box, "y")


def closed_by_floyd_warshall(clocks, cons):
    """`from_constraints`'s matrix closed from scratch, as a tuple; None when empty."""
    n = len(clocks) + 1
    m = [Z.INF] * (n * n)
    m[:n] = [Z.LE_ZERO] * n
    m[::n + 1] = [Z.LE_ZERO] * n
    for i, j, b in cons:
        m[i * n + j] = min(m[i * n + j], b)
    return tuple(m) if floyd_warshall(m, n) else None


def test_box_closure_agrees_with_floyd_warshall():
    rng = random.Random(20261019)
    top = Z.MAX_BOUND
    empty = strict_tie = near_inf = 0
    for _ in range(3000):
        n = rng.randint(1, 4)
        clocks = ("x", "y", "w", "v")[:n]
        cons = []
        for _ in range(rng.randint(0, 2 * n + 2)):
            k = rng.randint(1, n)
            c = rng.choice((rng.randint(0, 5), rng.randint(0, 5), top, top - 1))
            strict = rng.random() < 0.5
            if rng.random() < 0.5:
                cons.append((k, 0, Z.lt(c) if strict else Z.le(c)))       # x_k <(=) c
            else:
                cons.append((0, k, Z.lt(-c) if strict else Z.le(-c)))     # x_k >(=) c
        got = Z.from_constraints(clocks, cons)
        want = closed_by_floyd_warshall(clocks, cons)
        assert (got and got.m) == want, cons
        empty += got is None
        near_inf += any(abs(b) >> 1 >= top - 1 for _, _, b in cons)
        uppers = {(i, b >> 1) for i, j, b in cons if j == 0}
        strict_tie += got is None and any(
            (k, -(b >> 1)) in uppers for i, k, b in cons if i == 0 and not b & 1
        )
    assert empty > 600 and strict_tie > 100 and near_inf > 1000, (empty, strict_tie, near_inf)


def intersect_by_floyd_warshall(a, b):
    """The meet as the entrywise minimum closed from scratch; None when empty."""
    m = [x if x < y else y for x, y in zip(a.m, b.m)]
    return Z.Dbm(a.clocks, m) if floyd_warshall(m, a.size) else None


def subtract_by_floyd_warshall(a, b):
    """`subtract` with a Floyd-Warshall closure per piece and an emptiness pre-check."""
    if intersect_by_floyd_warshall(a, b) is None:
        return (a,)
    n = a.size
    pieces = []
    kept = []   # (flat index, bound) of b's constraints so far
    for i in range(n):
        for j in range(n):
            bb = b.m[i * n + j]
            if i == j or bb >= Z.INF or bb >= a.m[i * n + j]:
                continue
            m = list(a.m)
            for idx, pb in kept:
                m[idx] = min(m[idx], pb)
            m[j * n + i] = min(m[j * n + i], Z.bound_neg(bb))
            if floyd_warshall(m, n):
                pieces.append(Z.Dbm(a.clocks, m))
            kept.append((i * n + j, bb))
    return tuple(pieces)


def time_pred_by_floyd_warshall(target, within):
    hit = intersect_by_floyd_warshall(target, within)
    return None if hit is None else intersect_by_floyd_warshall(Z.down(hit), within)


def random_constraints(rng, n, box):
    """Triples over n clocks; small constants, so strict ties are common.

    A third of the constants lie within 4 of `MAX_BOUND`, the largest
    one a bound may carry, up to it itself (a diagonal one of either
    sign), so path sums run well past the ceiling.  With `box`, every
    triple bounds a single clock.
    """
    cons = []
    for _ in range(rng.randint(0, 2 * n + 2)):
        if box or n == 1 or rng.random() < 0.5:
            k = rng.randint(1, n)
            i, j = (k, 0) if rng.random() < 0.5 else (0, k)
            c = rng.choice((rng.randint(0, 4), rng.randint(0, 4), Z.MAX_BOUND - rng.randint(0, 4)))
            c = -c if i == 0 else c
        else:
            i, j = rng.sample(range(1, n + 1), 2)
            c = rng.choice((rng.randint(-4, 4), rng.randint(-4, 4), Z.MAX_BOUND - rng.randint(0, 4)))
            c = -c if rng.random() < 0.3 else c
        cons.append((i, j, Z.lt(c) if rng.random() < 0.5 else Z.le(c)))
    return cons


def random_canonical_zone(rng, clocks, box):
    """A non-empty zone from `random_constraints` over up to five clocks."""
    while True:
        d = Z.from_constraints(clocks, random_constraints(rng, len(clocks), box))
        if d is not None:
            return d


def near_the_ceiling(d):
    """Whether some finite bound of `d` carries a constant within 8 of `MAX_BOUND`."""
    return any(b < Z.INF and abs(b >> 1) >= Z.MAX_BOUND - 8 for b in d.m)


def test_meets_agree_with_floyd_warshall():
    rng = random.Random(20261019)
    empty = inside = split = near_top = strict_tie = 0
    for _ in range(4000):
        clocks = ("x", "y", "w", "v", "u")[: rng.randint(1, 5)]
        a = random_canonical_zone(rng, clocks, box=rng.random() < 0.2)
        b = random_canonical_zone(rng, clocks, box=rng.random() < 0.5)
        if rng.random() < 0.1:
            b = Z.from_constraints(clocks, ())             # a is inside b
        meet = Z.intersect(a, b)
        want = intersect_by_floyd_warshall(a, b)
        assert (meet and meet.m) == (want and want.m), (a, b)
        pieces = Z.subtract(a, b)
        assert [p.m for p in pieces] == [p.m for p in subtract_by_floyd_warshall(a, b)], (a, b)
        got, want = Z.time_pred(a, b), time_pred_by_floyd_warshall(a, b)
        assert (got and got.m) == (want and want.m), (a, b)
        if meet is None:
            empty += 1
            weak = Z.Dbm(clocks, [x | 1 if x < Z.INF else x for x in a.m])
            strict_tie += intersect_by_floyd_warshall(weak, b) is not None
        inside += b.contains(a)
        split += len(pieces) > 1
        near_top += near_the_ceiling(a) or near_the_ceiling(b)
    counts = (empty, inside, split, near_top, strict_tie)
    assert empty > 400 and inside > 400 and split > 400 and near_top > 400 and strict_tie > 40, counts


def test_bounds_at_the_ceiling_keep_their_path_sums():
    top = Z.MAX_BOUND
    a = zone(("v", "x", "y"), (1, 0, Z.le(top)), (3, 1, Z.le(2)))    # v <= top, y - v <= 2
    assert a.m[3 * 4] == Z.le(top + 2)                                 # so y <= top + 2
    b = zone(("v", "x", "y"), (0, 2, Z.le(-3)))                        # x >= 3
    meet = Z.intersect(a, b)
    assert meet.m[3 * 4 + 2] == Z.le(top - 1)                          # so y - x <= top - 1
    assert meet == intersect_by_floyd_warshall(a, b)


def free_by_floyd_warshall(d, k):
    """`d` with clock index k's constraints replaced by `x_k >= 0`, closed from scratch."""
    n = d.size
    m = [Z.INF if k in (i, j) else b for i in range(n) for j, b in enumerate(d.m[i * n:(i + 1) * n])]
    m[k] = m[k * n + k] = Z.LE_ZERO
    assert floyd_warshall(m, n)
    return tuple(m)


def test_free_agrees_with_floyd_warshall():
    rng = random.Random(20261020)
    near_top = 0
    for _ in range(1500):
        clocks = ("x", "y", "w", "v", "u")[: rng.randint(1, 5)]
        d = random_canonical_zone(rng, clocks, box=rng.random() < 0.2)
        k = rng.randint(1, len(clocks))
        assert Z.free(d, clocks[k - 1]).m == free_by_floyd_warshall(d, k), (d, k)
        near_top += near_the_ceiling(d)
    assert near_top > 150, near_top


def down_by_floyd_warshall(d):
    """Row 0 recomputed as in `down`, then the matrix closed from scratch."""
    n = d.size
    m = list(d.m)
    for j in range(1, n):
        m[j] = min([Z.LE_ZERO] + [m[i * n + j] for i in range(1, n)])
    assert floyd_warshall(m, n)
    return tuple(m)


def extrapolate_by_floyd_warshall(d, max_const):
    """The widened matrix closed from scratch; None when the closure empties it."""
    ceil, floor = Z.le(max_const), Z.lt(-max_const)
    m = [Z.INF if ceil < b < Z.INF else max(b, floor) for b in d.m]
    return tuple(m) if floyd_warshall(m, d.size) else None


def test_down_extrapolate_and_from_constraints_agree_with_floyd_warshall():
    # fixed cases: a point, the two strict ties of a box, one diagonal
    x_is_3 = [(1, 0, Z.le(3)), (0, 1, Z.le(-3))]
    assert zone(CLOCKS, *x_is_3).m == closed_by_floyd_warshall(CLOCKS, x_is_3)
    assert zone(CLOCKS, (1, 0, Z.lt(3)), (0, 1, Z.le(-3))) is None         # x < 3 & x >= 3
    assert zone(CLOCKS, (1, 0, Z.le(3)), (0, 1, Z.lt(-3))) is None         # x <= 3 & x > 3
    diagonal = [(1, 0, Z.le(3)), (2, 1, Z.le(-1))]                          # x <= 3, y - x <= -1
    assert zone(CLOCKS, *diagonal).m == closed_by_floyd_warshall(CLOCKS, diagonal)
    rng = random.Random(20261021)
    widened = empty = diagonals = near_top = 0
    for _ in range(3000):
        clocks = ("x", "y", "w", "v", "u")[: rng.randint(1, 5)]
        n = len(clocks)
        d = random_canonical_zone(rng, clocks, box=rng.random() < 0.2)
        assert Z.down(d).m == down_by_floyd_warshall(d), d
        max_const = rng.choice((0, 1, 2, 4, Z.MAX_BOUND - rng.randint(0, 4)))
        got = Z.extrapolate(d, max_const)
        assert got.m == extrapolate_by_floyd_warshall(d, max_const), (d, max_const)
        widened += got is not d
        cons = random_constraints(rng, n, box=False)
        if rng.random() < 0.1:                  # an entry of the matrix diagonal itself
            k = rng.randint(0, n)
            cons.append((k, k, rng.choice((Z.lt(0), Z.le(0), Z.le(1)))))
        got = Z.from_constraints(clocks, cons)
        assert (got and got.m) == closed_by_floyd_warshall(clocks, cons), cons
        empty += got is None
        diagonals += any((i == 0) == (j == 0) for i, j, _ in cons)
        near_top += near_the_ceiling(d)
    counts = (widened, empty, diagonals, near_top)
    assert widened > 1000 and empty > 500 and diagonals > 1500 and near_top > 1000, counts


def test_up_drops_upper_bounds():
    a = Z.origin(("x", "y"))
    up = Z.up(a)
    assert G.satisfies_point(up, (Fraction(5), Fraction(5)))
    assert not G.satisfies_point(up, (Fraction(1), Fraction(2)))  # diagonal kept


def test_down_fills_past_cone():
    a = zone(("x",), (1, 0, Z.le(3)), (0, 1, Z.le(-2)))  # 2 <= x <= 3
    d = Z.down(a)
    assert G.satisfies_point(d, (Fraction(0),))
    assert G.satisfies_point(d, (Fraction(3),))
    assert not G.satisfies_point(d, (Fraction(7, 2),))


def test_reset_pins_one_clock():
    a = zone(CLOCKS, (1, 0, Z.le(3)), (0, 1, Z.le(-3)), (2, 0, Z.le(1)))  # x=3, y<=1
    r = Z.reset(a, "x")
    assert G.satisfies_point(r, (Fraction(0), Fraction(1)))
    assert not G.satisfies_point(r, (Fraction(1), Fraction(1)))


def test_subtract_universe_minus_origin():
    u = Z.from_constraints(("x",), ())
    pieces = Z.subtract(u, Z.origin(("x",)))
    assert len(pieces) == 1
    assert G.satisfies_point(pieces[0], (Fraction(1, 2),))
    assert not G.satisfies_point(pieces[0], (Fraction(0),))


def test_subtract_self_is_empty():
    a = zone(CLOCKS, (1, 0, Z.le(2)))
    assert Z.subtract(a, a) == ()


def test_subtract_pieces_disjoint_and_cover():
    a = zone(("x",), (1, 0, Z.le(4)))
    b = zone(("x",), (1, 0, Z.le(2)), (0, 1, Z.le(-1)))  # 1 <= x <= 2
    pieces = Z.subtract(a, b)
    for q in (0, Fraction(1, 2), 1, Fraction(3, 2), 2, 3, 4):
        in_a = G.satisfies_point(a, (q,))
        in_b = G.satisfies_point(b, (q,))
        hits = [p for p in pieces if G.satisfies_point(p, (q,))]
        assert len(hits) == (1 if in_a and not in_b else 0)


def test_time_pred_reaches_target_within_bound():
    target = zone(("x",), (1, 0, Z.le(2)), (0, 1, Z.le(-2)))  # x = 2
    within = zone(("x",), (1, 0, Z.le(3)))                    # x <= 3
    pred = Z.time_pred(target, within)
    assert G.satisfies_point(pred, (Fraction(0),))
    assert G.satisfies_point(pred, (Fraction(2),))
    assert not G.satisfies_point(pred, (Fraction(5, 2),))


def test_time_pred_blocked_by_invariant():
    target = zone(("x",), (1, 0, Z.le(2)), (0, 1, Z.le(-2)))  # x = 2
    within = zone(("x",), (1, 0, Z.lt(2)))                    # x < 2: can't reach x=2
    assert Z.time_pred(target, within) is None


def test_extrapolate_widens_and_is_idempotent():
    a = zone(("x",), (1, 0, Z.le(9)), (0, 1, Z.le(-9)))  # x = 9
    w = Z.extrapolate(a, 2)
    assert G.satisfies_point(w, (Fraction(10),))
    assert not G.satisfies_point(w, (Fraction(2),))
    assert Z.extrapolate(w, 2) == w


def test_sample_point_lands_inside():
    a = zone(CLOCKS, (1, 0, Z.lt(1)), (2, 0, Z.le(2)), (0, 2, Z.lt(0)))
    pt = G.sample_point(a)
    assert G.satisfies_point(a, pt)
    assert all(isinstance(v, Fraction) for v in pt)


def test_sample_point_of_the_origin():
    assert G.sample_point(Z.origin(("x",))) == (Fraction(0),)


def test_sample_point_with_large_constants_lands_inside():
    # scaled by 2n = 8, the bounds pass 2^40; any of them read as absent
    # would give a point on the strict bound z - y < 187545927887
    a = zone(("x", "y", "z"), (3, 2, Z.lt(187_545_927_887)), (0, 3, Z.lt(-457_803_143_320)))
    assert G.satisfies_point(a, G.sample_point(a))


def test_sample_point_lands_inside_for_large_constants():
    rng = random.Random(20261018)
    for _ in range(300):
        clocks = ("x", "y", "z")[: rng.randint(1, 3)]
        n = len(clocks) + 1
        cons = []
        for _ in range(rng.randint(1, 4)):
            i, j = rng.sample(range(n), 2)
            c = rng.randint(1 << 30, 1 << 39) * (-1 if i == 0 else 1)
            cons.append((i, j, (Z.lt if rng.random() < 0.5 else Z.le)(c)))
        a = Z.from_constraints(clocks, cons)
        if a is not None:
            assert G.satisfies_point(a, G.sample_point(a)), a


def test_pretty_mentions_constraints():
    a = zone(("x",), (1, 0, Z.le(2)))
    text = a.pretty()
    assert "x" in text and "2" in text


def test_subtract_chain_carves_and_empties():
    u = Z.from_constraints(("x",), ())
    carved = Z.subtract(u, zone(("x",), (1, 0, Z.le(3))))
    assert any(G.satisfies_point(p, (Fraction(4),)) for p in carved)
    assert not any(G.satisfies_point(p, (Fraction(1),)) for p in carved)
    assert [q for p in carved for q in Z.subtract(p, u)] == []


# -- structural properties -----------------------------------------------------


bounds = st.integers(min_value=0, max_value=8)


def random_zone(draw):
    cons = []
    n = draw(st.integers(min_value=0, max_value=4))
    for _ in range(n):
        i = draw(st.integers(min_value=0, max_value=2))
        j = draw(st.integers(min_value=0, max_value=2))
        if i == j:
            continue
        m = draw(st.integers(min_value=-4, max_value=4))
        strict = draw(st.booleans())
        cons.append((i, j, Z.lt(m) if strict else Z.le(m)))
    return Z.from_constraints(CLOCKS, cons)


@st.composite
def zones_strategy(draw):
    return random_zone(draw)


@given(zones_strategy(), zones_strategy())
@settings(deadline=None, max_examples=120)
def test_intersect_commutes(a, b):
    ab = Z.intersect(a, b) if a and b else None
    ba = Z.intersect(b, a) if a and b else None
    if ab is None or ba is None:
        assert ab is None and (ba is None or a is None or b is None)
    else:
        assert ab == ba


@given(zones_strategy())
@settings(deadline=None, max_examples=120)
def test_up_contains_original(a):
    if a is None:
        return
    assert Z.up(a).contains(a)


@given(zones_strategy())
@settings(deadline=None, max_examples=120)
def test_down_contains_original(a):
    if a is None:
        return
    assert Z.down(a).contains(a)


@given(zones_strategy())
@settings(deadline=None, max_examples=120)
def test_reset_idempotent(a):
    if a is None:
        return
    once = Z.reset(a, "x")
    assert Z.reset(once, "x") == once


@given(zones_strategy(), zones_strategy())
@settings(deadline=None, max_examples=120)
def test_subtract_pieces_inside_minuend(a, b):
    if a is None or b is None:
        return
    for piece in Z.subtract(a, b):
        assert a.contains(piece)


@given(zones_strategy())
@settings(deadline=None, max_examples=120)
def test_extrapolate_only_widens(a):
    if a is None:
        return
    assert Z.extrapolate(a, 4).contains(a)


@given(zones_strategy(), st.sampled_from((0, 1, 4)))
@settings(deadline=None, max_examples=200)
def test_extrapolate_returns_its_argument_exactly_when_nothing_widens(a, max_const):
    if a is None:
        return
    ceil, floor = Z.le(max_const), Z.lt(-max_const)
    widened = [
        b if i % (a.size + 1) == 0 or b >= Z.INF else Z.INF if b > ceil else max(b, floor)
        for i, b in enumerate(a.m)
    ]
    got = Z.extrapolate(a, max_const)
    if tuple(widened) == a.m:
        assert got is a
    else:
        assert got is not a
        assert floyd_warshall(widened, a.size)
        assert got.m == tuple(widened)
