"""Set-theoretic reference semantics for zone operations on a grid.

Everything here works from raw constraint lists and the textbook
definitions (membership, pointwise intersection, delay quantifiers),
never from difference-bound matrices, so it can referee the matrix
implementation.

Geometry of the grid: constraint constants are integers, membership is
compared at half-integer points, and quantified delays range over the
quarter-integer grid.  A nonempty open interval whose endpoints are
half-integers always contains a quarter-integer, so a single
existential quantifier evaluated on the quarter grid is exact at
half-integer points.  Coordinates are held as integers counting
quarters; constants are scaled by four.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

QN = 4            # quarters per unit
GRID_UNITS = 5    # grid spans [0, 5] per axis
NQ = GRID_UNITS * QN + 1   # quarter points per axis

# constraint: (i, j, strict, m) meaning  v_i - v_j  <(=)  m   with v_0 = 0
Constraint = tuple[int, int, bool, int]


def axes(n: int) -> list[np.ndarray]:
    """Coordinate arrays (in quarters) broadcastable over the grid cube."""
    out = [np.zeros((1,) * n, dtype=np.int64)]
    for k in range(n):
        shape = [1] * n
        shape[k] = NQ
        out.append(np.arange(NQ, dtype=np.int64).reshape(shape))
    return out


def eval_constraints(cons: list[Constraint], vals: list[np.ndarray]) -> np.ndarray:
    """Membership mask of a constraint conjunction at given coordinates."""
    n_axes = len(vals) - 1
    mask = np.ones(tuple([NQ] * n_axes), dtype=bool)
    for i, j, strict, m in cons:
        diff = vals[i] - vals[j]
        mask = mask & ((diff < m * QN) if strict else (diff <= m * QN))
    # clocks are nonnegative by definition; grid coordinates already are
    return mask


def shifted(vals: list[np.ndarray], delta: int) -> list[np.ndarray]:
    """All clocks advanced by `delta` quarters; the reference stays put."""
    return [vals[0]] + [v + delta for v in vals[1:]]


def intersect_mask(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a & b


def subtract_mask(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a & ~b


def up_mask(cons: list[Constraint], n: int) -> np.ndarray:
    """Points reachable from the zone by letting time pass."""
    vals = axes(n)
    out = np.zeros(tuple([NQ] * n), dtype=bool)
    for d in range(0, NQ):
        past = [vals[0]] + [v - d for v in vals[1:]]
        ok = eval_constraints(cons, past)
        for v in past[1:]:
            ok = ok & (v >= 0)
        out |= ok
    return out


def down_mask(cons: list[Constraint], n: int) -> np.ndarray:
    """Points from which the zone is reachable by letting time pass.

    The witness delay never needs to exceed the largest constant plus a
    quarter, so the quarter grid up to the grid span is enough.
    """
    vals = axes(n)
    out = np.zeros(tuple([NQ] * n), dtype=bool)
    for d in range(0, NQ):
        out |= eval_constraints(cons, shifted(vals, d))
    return out


def free_mask(cons: list[Constraint], n: int, k: int) -> np.ndarray:
    """Points that agree with a point of the zone on every clock but k (1-based axis index).

    The erased value may sit beyond the displayed grid (a diagonal
    constraint can push it up to grid span plus largest constant), so
    the witness ranges over a doubled span.
    """
    vals = axes(n)
    exists = np.zeros(tuple([NQ] * n), dtype=bool)
    for v in range(0, 2 * GRID_UNITS * QN + 2):
        sub = list(vals)
        sub[k] = np.full((1,) * n, v, dtype=np.int64)
        exists |= eval_constraints(cons, sub)
    return exists


def reset_mask(cons: list[Constraint], n: int, k: int) -> np.ndarray:
    """Image of the zone under `clock k := 0` (1-based axis index)."""
    return free_mask(cons, n, k) & (axes(n)[k] == 0)


def time_pred_mask(target: list[Constraint], within: list[Constraint], n: int) -> np.ndarray:
    """Points of `within` that can wait inside `within` until `target`.

    The stay condition is checked at every grid delay up to the witness
    delay; convexity makes that equivalent to the real-valued statement.
    """
    vals = axes(n)
    out = np.zeros(tuple([NQ] * n), dtype=bool)
    stayed = np.ones(tuple([NQ] * n), dtype=bool)
    for d in range(0, NQ):
        here = shifted(vals, d)
        stayed = stayed & eval_constraints(within, here)
        out |= stayed & eval_constraints(target, here)
    return out


def half_view(mask: np.ndarray) -> np.ndarray:
    """Restrict a quarter-grid mask to the half-integer points."""
    idx = tuple([slice(None, None, 2)] * mask.ndim)
    return mask[idx]


def dbm_mask(d, n: int) -> np.ndarray:
    """Pointwise membership of a matrix zone on the quarter grid.

    Reads the matrix entries directly; this is the object under test,
    not part of the reference semantics.
    """
    from peralab.zones import INF

    vals = axes(n)
    mask = np.ones(tuple([NQ] * n), dtype=bool)
    for i in range(d.size):
        for j in range(d.size):
            if i == j:
                continue
            b = d.m[i * d.size + j]
            if b >= INF:
                continue
            diff = vals[i] - vals[j]
            lim = (b >> 1) * QN
            mask = mask & ((diff <= lim) if b & 1 else (diff < lim))
    return mask


def federation_mask(parts, n: int) -> np.ndarray:
    out = np.zeros(tuple([NQ] * n), dtype=bool)
    for p in parts:
        out |= dbm_mask(p, n)
    return out


def satisfies_point(d, point) -> bool:
    """Membership of a concrete valuation (any numeric type) in a matrix zone."""
    from peralab.zones import INF

    vals = (0,) + tuple(point)
    n = d.size
    for i in range(n):
        for j in range(n):
            b = d.m[i * n + j]
            if b >= INF:
                continue
            diff = vals[i] - vals[j]
            if b & 1:
                if not diff <= (b >> 1):
                    return False
            else:
                if not diff < (b >> 1):
                    return False
    return True


def sample_point(d) -> tuple:
    """Some point inside a matrix zone, as Fractions.

    Scales every bound by a factor large enough that strict bounds
    can be replaced by weak ones minus a unit without losing
    feasibility (any violating cycle in the scaled graph would need
    more strict arcs than a simple cycle has).  The weak integer
    system then has the classic all-lower-bounds solution.  Absent
    arcs are None, not `INF`, so no scaled bound is read against it.
    """
    from peralab.zones import INF

    n = d.size
    scale = 2 * n
    g = [None if b >= INF else scale * (b >> 1) - (0 if b & 1 else 1) for b in d.m]
    # integer Floyd-Warshall, no strictness bits
    for k in range(n):
        for i in range(n):
            gik = g[i * n + k]
            if gik is None:
                continue
            for j in range(n):
                gkj = g[k * n + j]
                if gkj is None:
                    continue
                c = gik + gkj
                gij = g[i * n + j]
                if gij is None or c < gij:
                    g[i * n + j] = c
    for i in range(n):
        if g[i * n + i] < 0:
            raise AssertionError("scaled sample system infeasible")
    return tuple(Fraction(-g[j], scale) for j in range(1, n))
