"""Difference-bound matrices over event clocks.

Bounds are packed into single integers: a constraint `x - y < m` is
stored as `2*m`, and `x - y <= m` as `2*m + 1`, so the usual min/plus
algebra works on plain ints.  `INF` is a large sentinel that survives
one addition without overflow concerns.

Rows and columns are indexed by clock position plus one; index 0 is the
reference point (the constant zero).  All matrices handed out by this
module are canonical (shortest-path closed) unless a function says
otherwise, and emptiness is always explicit: constructors and operators
return None for an empty zone rather than an inconsistent matrix.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

INF = 1 << 40

LE_ZERO = 1  # encoded (<=, 0)
LT_ZERO = 0  # encoded (<, 0)


def le(m: int) -> int:
    return 2 * m + 1


def lt(m: int) -> int:
    return 2 * m


def bound_add(a: int, b: int) -> int:
    if a >= INF or b >= INF:
        return INF
    # The low bit flags a weak bound.  A sum of raw encodings carries
    # both flags; the result is weak only when both parts are, so one
    # surplus flag has to go whenever at least one part is set.
    return a + b - ((a | b) & 1)


def bound_neg(b: int) -> int:
    """Negate a bound: the complement of `x - y <= m` is `y - x < -m`."""
    if b >= INF:
        raise ValueError("cannot negate an infinite bound")
    return 1 - b


def bound_text(b: int) -> str:
    if b >= INF:
        return "<inf"
    rel = "<=" if b & 1 else "<"
    return f"{rel}{b >> 1}"


class Dbm:
    """A canonical, non-empty difference-bound matrix.

    Instances are immutable from the outside; operations return fresh
    matrices.  Equality and hashing use the canonical form, so two
    descriptions of the same clock set compare equal.
    """

    __slots__ = ("clocks", "m", "_hash")

    def __init__(self, clocks: Sequence[str], rows: list[list[int]], *, _closed: bool = False):
        self.clocks = tuple(clocks)
        n = len(self.clocks) + 1
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("matrix shape does not match clock list")
        self.m = rows
        self._hash = None
        if not _closed:
            if not _close(self.m):
                raise ValueError("empty zone; use the module constructors")
        self._freeze()

    def _freeze(self) -> None:
        self.m = [list(r) for r in self.m]

    # -- basics --------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.clocks) + 1

    def index(self, clock: str) -> int:
        return self.clocks.index(clock) + 1

    def key(self) -> tuple:
        return (self.clocks, tuple(tuple(r) for r in self.m))

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return isinstance(other, Dbm) and self.clocks == other.clocks and self.m == other.m

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.key())
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
                b = self.m[i][j]
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
        n = self.size
        for i in range(n):
            for j in range(n):
                if other.m[i][j] > self.m[i][j]:
                    return False
        return True

    def satisfies_point(self, point: Sequence) -> bool:
        """Membership test for a concrete valuation (any numeric type)."""
        vals = (0,) + tuple(point)
        n = self.size
        for i in range(n):
            for j in range(n):
                b = self.m[i][j]
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

    def sample_point(self) -> tuple:
        """Some point inside the zone, as Fractions.

        Scales every bound by a factor large enough that strict bounds
        can be replaced by weak ones minus a unit without losing
        feasibility (any violating cycle in the scaled graph would need
        more strict arcs than a simple cycle has).  The weak integer
        system then has the classic all-lower-bounds solution.
        """
        from fractions import Fraction

        n = self.size
        scale = 2 * n
        g = [[INF] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                b = self.m[i][j]
                if b >= INF:
                    continue
                g[i][j] = scale * (b >> 1) - (0 if b & 1 else 1)
        # integer Floyd-Warshall, no strictness bits
        for k in range(n):
            for i in range(n):
                if g[i][k] >= INF:
                    continue
                for j in range(n):
                    if g[k][j] >= INF:
                        continue
                    c = g[i][k] + g[k][j]
                    if c < g[i][j]:
                        g[i][j] = c
        for i in range(n):
            if g[i][i] < 0:
                raise AssertionError("scaled sample system infeasible")
        return tuple(Fraction(-g[0][j], scale) for j in range(1, n))


def _close(m: list[list[int]]) -> bool:
    """Floyd-Warshall in place; False when a diagonal turns negative."""
    n = len(m)
    for k in range(n):
        row_k = m[k]
        for i in range(n):
            aik = m[i][k]
            if aik >= INF:
                continue
            row_i = m[i]
            for j in range(n):
                b = row_k[j]
                if b >= INF:
                    continue
                c = aik + b - ((aik | b) & 1)
                if c < row_i[j]:
                    row_i[j] = c
        for i in range(n):
            if m[i][i] < LE_ZERO:
                return False
    return True


def _fresh(clocks: Sequence[str], default: int) -> list[list[int]]:
    n = len(clocks) + 1
    rows = [[default] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = LE_ZERO
    return rows


def universe(clocks: Sequence[str]) -> Dbm:
    """All clocks nonnegative, otherwise unconstrained."""
    rows = _fresh(clocks, INF)
    n = len(clocks) + 1
    for j in range(1, n):
        rows[0][j] = LE_ZERO
    return Dbm(clocks, rows, _closed=True)


def origin(clocks: Sequence[str]) -> Dbm:
    """The single point with every clock equal to zero."""
    rows = _fresh(clocks, LE_ZERO)
    return Dbm(clocks, rows, _closed=True)


def from_constraints(clocks: Sequence[str], cons: Iterable[tuple[int, int, int]]) -> Dbm | None:
    """Build from (i, j, encoded_bound) triples; None when empty."""
    rows = _fresh(clocks, INF)
    n = len(clocks) + 1
    for j in range(1, n):
        rows[0][j] = min(rows[0][j], LE_ZERO)
    for i, j, b in cons:
        if b < rows[i][j]:
            rows[i][j] = b
    if not _close(rows):
        return None
    return Dbm(clocks, rows, _closed=True)


def intersect(a: Dbm, b: Dbm) -> Dbm | None:
    if a.clocks != b.clocks:
        raise ValueError("clock sets differ")
    n = a.size
    rows = [[min(a.m[i][j], b.m[i][j]) for j in range(n)] for i in range(n)]
    if not _close(rows):
        return None
    return Dbm(a.clocks, rows, _closed=True)


def up(d: Dbm) -> Dbm:
    """Future: let arbitrary time pass (upper bounds dropped)."""
    n = d.size
    rows = [row[:] for row in d.m]
    for i in range(1, n):
        rows[i][0] = INF
    # canonical already: dropping x_i <= c cannot create new paths
    return Dbm(d.clocks, rows, _closed=True)


def down(d: Dbm) -> Dbm:
    """Past: all points from which the zone is reached by waiting.

    Lower bounds are recomputed from scratch: sliding backward in time
    erases them except where a diagonal constraint props one up.
    """
    n = d.size
    rows = [row[:] for row in d.m]
    for j in range(1, n):
        best = LE_ZERO
        for i in range(1, n):
            if rows[i][j] < best:
                best = rows[i][j]
        rows[0][j] = best
    if not _close(rows):
        raise AssertionError("down() emptied a non-empty zone")
    return Dbm(d.clocks, rows, _closed=True)


def reset(d: Dbm, clock: str) -> Dbm:
    """Set one clock to zero, projecting the rest."""
    n = d.size
    k = d.index(clock)
    rows = [row[:] for row in d.m]
    for i in range(n):
        rows[i][k] = rows[i][0]
        rows[k][i] = rows[0][i]
    rows[k][k] = LE_ZERO
    rows[k][0] = LE_ZERO
    rows[0][k] = LE_ZERO
    # copying the reference row/column of a canonical matrix keeps it
    # canonical, no re-closing needed
    return Dbm(d.clocks, rows, _closed=True)


def subtract(a: Dbm, b: Dbm) -> tuple[Dbm, ...]:
    """Set difference a \\ b as disjoint convex pieces.

    Walks the constraints of `b`, at each step splitting off the part
    of `a` that violates one constraint while satisfying the previous
    ones.  The pieces are pairwise disjoint by construction.
    """
    if a.clocks != b.clocks:
        raise ValueError("clock sets differ")
    if intersect(a, b) is None:
        return (a,)
    n = a.size
    pieces: list[Dbm] = []
    kept: list[tuple[int, int, int]] = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            bb = b.m[i][j]
            if bb >= INF or bb >= a.m[i][j]:
                # already implied by `a`: its complement misses `a`
                # entirely and it holds on every piece for free
                continue
            rows = [row[:] for row in a.m]
            for (pi, pj, pb) in kept:
                if pb < rows[pi][pj]:
                    rows[pi][pj] = pb
            neg = bound_neg(bb)  # x_j - x_i <rel'> -m
            if neg < rows[j][i]:
                rows[j][i] = neg
            if _close(rows):
                pieces.append(Dbm(a.clocks, rows, _closed=True))
            kept.append((i, j, bb))
    return tuple(pieces)


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
    """Classic maximum-constant abstraction, then re-close.

    Bounds above the constant ceiling are widened away; the result is a
    superset of `d` and the abstraction reaches a fixpoint, which keeps
    reachability searches finite.
    """
    n = d.size
    ceil = le(max_const)
    floor = lt(-max_const)
    rows = [row[:] for row in d.m]
    changed = False
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            b = rows[i][j]
            if b >= INF:
                continue
            if b > ceil:
                rows[i][j] = INF
                changed = True
            elif b < floor:
                rows[i][j] = floor
                changed = True
    if changed:
        if not _close(rows):
            raise AssertionError("extrapolation emptied a zone")
        return Dbm(d.clocks, rows, _closed=True)
    return d


class Federation:
    """A finite union of same-clock zones, kept free of empty members."""

    __slots__ = ("clocks", "parts")

    def __init__(self, clocks: Sequence[str], parts: Iterable[Dbm] = ()):
        self.clocks = tuple(clocks)
        self.parts: tuple[Dbm, ...] = tuple(p for p in parts if p is not None)
        for p in self.parts:
            if p.clocks != self.clocks:
                raise ValueError("clock sets differ inside federation")

    def is_empty(self) -> bool:
        return not self.parts

    def __iter__(self) -> Iterator[Dbm]:
        return iter(self.parts)

    def union(self, other: "Federation") -> "Federation":
        return Federation(self.clocks, self.parts + other.parts)

    def subtract_zone(self, z: Dbm) -> "Federation":
        out: list[Dbm] = []
        for p in self.parts:
            out.extend(subtract(p, z))
        return Federation(self.clocks, out)

    def satisfies_point(self, point: Sequence) -> bool:
        return any(p.satisfies_point(point) for p in self.parts)

    def sample_point(self):
        if not self.parts:
            raise ValueError("empty federation has no points")
        return self.parts[0].sample_point()
