"""Difference-bound matrices over event clocks.

Bounds are packed into single integers: a constraint `x - y < m` is
stored as `2*m`, and `x - y <= m` as `2*m + 1`, so the usual min/plus
algebra works on plain ints.  A constant is at most `MAX_BOUND` < 2^39,
so `INF` = 2^59, the absent bound, lies past every path sum over fewer
than 2^19 clocks.

Rows and columns are indexed by clock position plus one; index 0 is the
reference point (the constant zero).  A matrix is stored flat, row
major: entry (i, j) of an n-by-n matrix sits at `m[i * n + j]`.  Only
the module functions build `Dbm` instances; each one fills a fresh flat
list and hands it over, and every matrix handed out is canonical
(shortest-path closed).  Emptiness is always explicit: constructors and
operators return None for an empty zone rather than an inconsistent
matrix.  A non-convex set is a plain tuple of disjoint zones, as
`subtract` returns it; the empty tuple is the empty set.

Every matrix is canonical by construction, in O(n²) per constraint:
`up`, `down`, `reset` and `free` rewrite a row or column of a canonical matrix,
`from_constraints` closes a box (the shape of every guard and
invariant) in closed form, `post` closes its one matrix through the
reference node, `wait_zone` writes a box's past within an invariant in
closed form, and every other constraint is added to a canonical matrix
with `_tighten`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

MAX_BOUND = (1 << 39) - 1   # the largest constant a bound may carry
INF = 1 << 59

LE_ZERO = 1  # encoded (<=, 0)


def le(m: int) -> int:
    return 2 * m + 1


def lt(m: int) -> int:
    return 2 * m


def bound_neg(b: int) -> int:
    """Negate a bound: the complement of `x - y <= m` is `y - x < -m`."""
    if b >= INF:
        raise ValueError("cannot negate an infinite bound")
    return 1 - b


class Dbm:
    """A canonical, non-empty difference-bound matrix; a value.

    `m` is one row-major tuple of the `size * size` packed bounds.  The
    constructor only stores it: the module functions that build
    instances have already closed the matrix and ruled out emptiness.
    Equality and hashing come straight from the clocks and the tuple,
    so two descriptions of the same clock set compare equal.
    """

    __slots__ = ("clocks", "m", "_hash")

    def __init__(self, clocks: Sequence[str], m: Iterable[int]):
        self.clocks = tuple(clocks)
        self.m = tuple(m)
        self._hash = None

    # -- basics --------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.clocks) + 1

    def index(self, clock: str) -> int:
        return self.clocks.index(clock) + 1

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, Dbm) and self.clocks == other.clocks and self.m == other.m

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.clocks, self.m))
        return self._hash

    def __repr__(self) -> str:
        return f"Dbm({self.pretty()})"

    def pretty(self) -> str:
        parts = []
        names = ("0",) + self.clocks
        n = self.size
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                b = self.m[i * n + j]
                if b >= INF:
                    continue
                if i == 0 and b == LE_ZERO:
                    continue  # x >= 0 is implicit
                lhs = names[j] if i == 0 else (names[i] if j == 0 else f"{names[i]}-{names[j]}")
                val = b >> 1
                if i == 0:
                    # 0 - x <= m  means  x >= -m
                    rel = ">=" if b & 1 else ">"
                    parts.append(f"{lhs} {rel} {-val}")
                else:
                    rel = "<=" if b & 1 else "<"
                    parts.append(f"{lhs} {rel} {val}")
        return " & ".join(parts) if parts else "true"

    # -- queries ---------------------------------------------------------

    def contains(self, other: "Dbm") -> bool:
        """Set inclusion: every point of `other` lies in self."""
        if self.clocks != other.clocks:
            raise ValueError("clock sets differ")
        for mine, theirs in zip(self.m, other.m):
            if theirs > mine:
                return False
        return True


def _tighten(m: list[int], n: int, i: int, j: int, b: int) -> bool:
    """Meet a canonical flat n-by-n list with `x_i - x_j ≺ b` in place.

    The matrix stays canonical in O(n²): a shortest path uses the new
    arc i -> j at most once, so entry (p, q) becomes the shorter of its
    old value and p -> i -> j -> q, read off the old column i and row j.
    Nothing changes when `b` is not tighter than entry (i, j).  False,
    with the list untouched, when the cycle i -> j -> i is negative,
    i.e. the meet is empty.
    """
    if b >= m[i * n + j]:
        return True
    back = m[j * n + i]
    if back < INF and b + back - ((b | back) & 1) < LE_ZERO:
        return False
    col = m[i::n]
    row = m[j * n:(j + 1) * n]
    for p, c in enumerate(col):
        if c >= INF:
            continue
        s = c + b - ((c | b) & 1)          # p -> i -> j
        base = p * n
        m[base:base + n] = [
            x if y >= INF or x <= (v := s + y - ((s | y) & 1)) else v
            for x, y in zip(m[base:base + n], row)
        ]
    return True


def origin(clocks: Sequence[str]) -> Dbm:
    """The single point with every clock equal to zero."""
    n = len(clocks) + 1
    return Dbm(clocks, [LE_ZERO] * (n * n))


def from_constraints(clocks: Sequence[str], cons: Iterable[tuple[int, int, int]]) -> Dbm | None:
    """Build from (i, j, encoded_bound) triples; None when empty.

    With no triples: every clock nonnegative, otherwise unconstrained.
    The box, the triples that bound one clock against the reference
    node 0, closes in one step: a shortest path passes 0 at most once,
    so entry (i, j) is i -> 0 -> j, an upper plus a lower bound, and the
    box is empty iff some cycle i -> 0 -> i is negative.  Each triple
    between two clocks is then added with `_tighten`.
    """
    n = len(clocks) + 1
    m = [INF] * (n * n)
    m[:n] = [LE_ZERO] * n            # 0 - x <= 0: clocks are nonnegative
    m[::n + 1] = [LE_ZERO] * n       # the diagonal
    diagonal = []
    for i, j, b in cons:
        if (i == 0) == (j == 0):
            diagonal.append((i, j, b))
        elif b < m[i * n + j]:
            m[i * n + j] = b
    low = m[1:n]
    for i in range(1, n):
        u = m[i * n]
        if u >= INF:
            continue
        base = i * n
        # the diagonal entry is the cycle i -> 0 -> i before it is reset
        m[base + 1:base + n] = [u + b - ((u | b) & 1) for b in low]
        if m[base + i] < LE_ZERO:
            return None
        m[base + i] = LE_ZERO
    for i, j, b in diagonal:
        if not _tighten(m, n, i, j, b):
            return None
    return Dbm(clocks, m)


def intersect(a: Dbm, b: Dbm) -> Dbm | None:
    """The meet of two zones; None when it is empty.

    Tightens a copy of `a` with each entry of `b` that is tighter, in
    row-major order.  For a box `b` (every guard and invariant), row 0
    and each (i, 0) come first and imply every other entry, so the rest
    cost one comparison each.
    """
    if a.clocks != b.clocks:
        raise ValueError("clock sets differ")
    n = a.size
    m = list(a.m)
    for idx, bb in enumerate(b.m):
        if bb < m[idx] and not _tighten(m, n, idx // n, idx % n, bb):
            return None
    return Dbm(a.clocks, m)


def up(d: Dbm) -> Dbm:
    """Future: let arbitrary time pass (upper bounds dropped)."""
    n = d.size
    m = list(d.m)
    for i in range(1, n):
        m[i * n] = INF
    # canonical already: dropping x_i <= c cannot create new paths
    return Dbm(d.clocks, m)


def down(d: Dbm) -> Dbm:
    """Past: all points from which the zone is reached by waiting.

    Lower bounds are recomputed from scratch: sliding backward in time
    erases them except where a diagonal constraint props one up.  The
    new row 0 keeps a canonical matrix canonical (Bengtsson & Yi, 2004).
    """
    n = d.size
    m = list(d.m)
    for j in range(1, n):
        m[j] = min(LE_ZERO, *m[n + j::n])     # column j below row 0
    return Dbm(d.clocks, m)


def _reset(m: list[int], n: int, k: int) -> None:
    """Set clock index k to zero in place on a flat n-by-n canonical list.

    Column k becomes a copy of column 0 and row k of row 0, which
    keeps a canonical matrix canonical, no re-closing needed; the
    copied diagonal puts `LE_ZERO` at (k, k), (0, k) and (k, 0).
    """
    m[k::n] = m[::n]
    m[k * n:(k + 1) * n] = m[:n]


def reset(d: Dbm, clock: str) -> Dbm:
    """Set one clock to zero, projecting the rest."""
    m = list(d.m)
    _reset(m, d.size, d.index(clock))
    return Dbm(d.clocks, m)


def _free(m: list[int], n: int, k: int) -> None:
    """Free clock index k in place, canonically: column k copies column 0, row k is `INF` off the diagonal."""
    m[k::n] = m[::n]
    m[k * n:(k + 1) * n] = [INF] * n
    m[k * n + k] = LE_ZERO


def free(d: Dbm, clock: str) -> Dbm:
    """Let one clock take any value, keeping the others as they are."""
    m = list(d.m)
    _free(m, d.size, d.index(clock))
    return Dbm(d.clocks, m)


# All `post` needs of a box b (the closure of its bounds), the clock x it resets and those it
# frees: `(lows, ups, k, free)`, each lower bound tighter than `x >= 0` as `(index, entry (0,
# index))`, each finite upper bound as `(index, entry (index, 0))`, x's index and the freed ones.
Box = tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...], int, tuple[int, ...]]


def post(d: Dbm, box: Box) -> Dbm | None:
    """`free(reset(intersect(up(d), b), x), ...)` in O(n²), for `box` the `Box` of b, x and the freed clocks.

    One list, one `Dbm`.  The arcs of the box `b` all touch the
    reference node 0, so a shortest path of the meet passes 0 at most
    once: i -> a (delayed d), a -> 0 (upper bound), 0 -> k
    (lower bound), k -> j (delayed d).  Only box lower bounds tighter
    than d's own can shorten a path; delay has dropped d's upper bounds,
    so every finite box upper bound can.  `col[j]`, row 0 once the lower
    bounds are in, is the shortest 0 -> j path and `row[i]` the shortest i -> 0 path, so they are the
    meet's row 0 and column 0, every other entry closes in one step,
    and the meet is empty iff a cycle a -> 0 -> a through an upper bound
    is negative.  Row 0 of a zone is always finite (clocks are
    nonnegative), so `col` is too.  None when the meet is empty.

    With no finite upper bound and no lower bound tighter than d's,
    every entry of the result is an entry of d, `LE_ZERO` or `INF`.
    """
    lows, ups, reset_index, freed = box
    dm = d.m
    n = len(d.clocks) + 1
    m = list(dm)
    for k, lk in lows:
        if lk < dm[k]:
            m[1:n] = [
                c if b >= INF or c <= (v := lk + b - ((lk | b) & 1)) else v
                for c, b in zip(m[1:n], dm[k * n + 1:(k + 1) * n])
            ]
    if ups:
        col = m[:n]
        row = [LE_ZERO] + [INF] * (n - 1)
        for a, ua in ups:
            ca = col[a]
            if ca + ua - ((ca | ua) & 1) < LE_ZERO:
                return None
            row = [
                r if b >= INF or r <= (v := b + ua - ((b | ua) & 1)) else v
                for r, b in zip(row, dm[a::n])
            ]
        for i in range(1, n):
            r = row[i]
            if r < INF:
                m[i * n:(i + 1) * n] = [
                    x if x <= (v := r + c - ((r | c) & 1)) else v
                    for x, c in zip(dm[i * n:(i + 1) * n], col)
                ]
        m[::n] = row
    else:
        m[n::n] = [INF] * (n - 1)          # up: no upper bounds
    _reset(m, n, reset_index)
    for k in freed:
        _free(m, n, k)
    return Dbm(d.clocks, m)


def subtract(a: Dbm, b: Dbm) -> tuple[Dbm, ...]:
    """Set difference a \\ b as disjoint convex pieces.

    Walks the constraints of `b`, at each step splitting off the part
    of `a` that violates one constraint while satisfying the previous
    ones.  The pieces are pairwise disjoint by construction.  A running
    meet of `a` with the constraints walked so far is kept canonical by
    `_tighten`, so each piece is one copy and one tightening; when the
    meet empties, `a` and `b` are disjoint and `(a,)` is the answer.
    """
    if a.clocks != b.clocks:
        raise ValueError("clock sets differ")
    n = a.size
    meet = list(a.m)
    pieces: list[Dbm] = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            bb = b.m[i * n + j]
            if bb >= INF or bb >= a.m[i * n + j]:
                # already implied by `a`: its complement misses `a`
                # entirely and it holds on every piece for free
                continue
            m = list(meet)
            if _tighten(m, n, j, i, bound_neg(bb)):   # x_j - x_i <rel'> -m
                pieces.append(Dbm(a.clocks, m))
            if not _tighten(meet, n, i, j, bb):
                return (a,)
    return tuple(pieces)


def wait_zone(clocks: Sequence[str], lows, ups, inv_lows: Iterable[tuple[int, int]]) -> Dbm:
    """`time_pred(b, inv)` in closed form, for `lows` and `ups` the `Box` bounds of a non-empty
    box b inside the box `inv`, whose lower bounds are `inv_lows`, as (index, entry (0, index)).

    Waiting keeps every difference of clocks, so entry (i, j) stays b's
    u_i ⊕ l_j and (i, 0) b's u_i.  Only row 0 changes: waiting back
    erases b's lower bounds and `inv` puts its own ilow_k back, so a
    shortest 0 -> k path is that arc or 0 -> j -> 0 -> k through a
    finite upper bound of b, ilow_j ⊕ u_j ⊕ l_k (Bengtsson & Yi, 2004).
    Never empty: it contains b.
    """
    n = len(clocks) + 1
    low = [LE_ZERO] * n
    for k, b in lows:
        low[k] = b
    m = [INF] * (n * n)
    m[:n] = [LE_ZERO] * n
    for k, b in inv_lows:
        if b < m[k]:
            m[k] = b
    ilow = m[:n]
    for j, u in ups:
        m[j * n:(j + 1) * n] = [u + l - ((u | l) & 1) for l in low]
        s = ilow[j] + u - ((ilow[j] | u) & 1)      # 0 -> j -> 0
        m[:n] = [r if r <= (v := s + l - ((s | l) & 1)) else v for r, l in zip(m[:n], low)]
    m[::n + 1] = [LE_ZERO] * n
    return Dbm(clocks, m)


def time_pred(target: Dbm, within: Dbm) -> Dbm | None:
    """Points of `within` from which some delay inside `within` lands in `target`.

    Correct when `within` is convex (it always is here): a delay path
    that starts and ends in a convex set stays in it.
    """
    hit = intersect(target, within)
    if hit is None:
        return None
    return intersect(down(hit), within)


def extrapolate(d: Dbm, max_const: int) -> Dbm:
    """Classic maximum-constant abstraction, canonical by construction.

    Bounds above the constant ceiling are widened away; the result is a
    superset of `d` and the abstraction reaches a fixpoint, which keeps
    reachability searches finite.  Returns `d` itself when nothing
    widens, which the sorted distinct entries tell without a loop in
    Python.  The diagonal's `LE_ZERO` lies between floor and ceiling,
    so neither test touches it.  Otherwise each bound that stays, raised
    to the floor, is added with `_tighten` to the zone `clocks >= 0`.
    """
    ceil = le(max_const)
    floor = lt(-max_const)
    vals = sorted(set(d.m))
    if vals[0] >= floor and vals[bisect_left(vals, INF) - 1] <= ceil:
        return d
    n = d.size
    m = [INF] * (n * n)
    m[:n] = [LE_ZERO] * n
    m[::n + 1] = [LE_ZERO] * n
    for idx, b in enumerate(d.m):
        if b <= ceil and not _tighten(m, n, idx // n, idx % n, max(b, floor)):
            raise AssertionError("extrapolation emptied a zone")
    return Dbm(d.clocks, m)
