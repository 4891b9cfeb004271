"""Symbolic semantics of a valuated automaton.

The analyzer answers "where does edge e fire" with one box per edge
(guard, source invariant, and target invariant pulled back through the
reset), and "from where can e be waited for" with its wait zone.
`Analyzer` builds both per location on first use: its moves (action,
target and each clock's tightest bounds for `zones.post`, read off
the atoms), and for blocking only the wait zones, as needed, each in
closed form from its move's bounds.  The initial state is the origin,
checked against the initial invariant's bounds.  A discrete successor
is delay-closed and widened, unless widening could not change it.  With
`free_inactive` it also frees the clocks inactive at its target, which
keeps the untimed language and which states block (fire and wait zones
read only active clocks).  Blocking states (concrete states from which
no delay reaches any fireable edge) are what is left of a zone after
subtracting every wait zone, a tuple of disjoint pieces.  `ZoneGraph`,
finite by maximum-constant widening, numbers each symbolic state once
and builds its successors on first use; `zone_graph` expands it
breadth first, and `language.Determinized` on demand, as sets of node
ids; whether a node blocks is memoized per node.
"""

from __future__ import annotations

from .core import Atom, Edge, ModelError, Pera, number_text
from . import zones as Z


class ResourceExhausted(RuntimeError):
    """Exploration hit the configured node limit."""


NODE_LIMIT = 200_000   # the default bound on nodes or sets an exploration may build


Sym = tuple[str, Z.Dbm]
Move = tuple[str, str, Z.Box]   # (action, target location, fire box)


def _atom_bounds(atom: Atom) -> tuple[int, int]:
    """The packed entries (0, i) and (i, 0) a constant atom on clock i sets; `LE_ZERO`, `INF` if none."""
    if atom.param is not None:
        raise ModelError(f"atom {atom.text()} still parametric; valuate first")
    c, rel = atom.offset, atom.rel
    if c > Z.MAX_BOUND:
        raise ModelError(
            f"constant {number_text(c)} in {atom.text()} is too large for a zone bound "
            f"(at most {Z.MAX_BOUND}, after rescaling)"
        )
    low = Z.LE_ZERO if rel in ("<", "<=") else Z.lt(-c) if rel == ">" else Z.le(-c)
    return low, Z.INF if rel in (">", ">=") else Z.lt(c) if rel == "<" else Z.le(c)


def _meet(low: dict[int, int], up: dict[int, int], bounds) -> None:
    """Meet the packed bounds `low` and `up` map clock indices to with `(index, lower, upper)` triples."""
    for i, lo, hi in bounds:
        if lo < low.get(i, Z.LE_ZERO):
            low[i] = lo
        if hi < up.get(i, Z.INF):
            up[i] = hi


class Analyzer:
    """Per-automaton tables for symbolic stepping.

    Requires a fully valuated automaton, every constant of which, fired
    or not, fits a zone bound.  Locations whose invariant is
    unsatisfiable are legal (they are simply uninhabitable); an edge
    whose guard is unsatisfiable never fires.  Tables are filled per
    location on first use; no zone is built from atoms, and blocking
    builds one wait zone per move from the move's box.
    """

    def __init__(self, a: Pera, free_inactive: bool = False):
        if a.parameters:
            raise ModelError("automaton still has parameters; valuate it first")
        self.automaton = a
        self.clocks = a.clocks
        self.max_const = a.max_constant()
        if self.max_const > Z.MAX_BOUND:   # name the first constant past the ceiling
            for guard in (*a.invariants.values(), *(e.guard for e in a.edges)):
                for atom in guard:
                    _atom_bounds(atom)
        self.index = {c: i for i, c in enumerate(self.clocks, 1)}
        # per location with an invariant, (clock index, lower, upper bound) per atom
        self.inv_bounds = {
            loc: [(self.index[t.clock], *_atom_bounds(t)) for t in g] for loc, g in a.invariants.items()
        }
        self.edges_from: dict[str, list[Edge]] = {loc: [] for loc in a.locations}
        for e in a.edges:
            self.edges_from[e.source].append(e)
        self.reset_clock: dict[str, str] = dict(a.actions)
        # per location, the clocks a step into it frees (none without `free_inactive`)
        active = self.active_clocks() if free_inactive else dict.fromkeys(a.locations, self.clocks)
        self.freed = {loc: tuple(c for c in self.clocks if c not in act) for loc, act in active.items()}
        # per location, filled on first use: the moves, and their wait zones in move order
        self._moves: dict[str, tuple[Move, ...]] = {}
        self._waits: dict[str, list[Z.Dbm]] = {}
        # zones the widening rebuilt, whose entries may lie past ±max_const
        self._loose: set[Z.Dbm] = set()

    def active_clocks(self) -> dict[str, set[str]]:
        """Per location, the clocks its invariant or a guard out of it reads, or that are
        active at an edge's target and not reset by the edge (Daws & Yovine, 1996)."""
        a = self.automaton
        active = {loc: {atom.clock for atom in a.invariant(loc)} for loc in a.locations}
        for e in a.edges:
            active[e.source].update(atom.clock for atom in e.guard)
        size = None
        while size != (size := sum(map(len, active.values()))):   # until no set grows
            for e in a.edges:
                active[e.source] |= active[e.target] - {self.reset_clock[e.action]}
        return active

    # -- symbolic steps ------------------------------------------------

    def initial(self) -> Sym:
        """The origin, inactive clocks freed; each initial invariant atom must hold at 0, as in `_move`."""
        loc = self.automaton.initial
        if any(min(lo, hi) < Z.LE_ZERO for _, lo, hi in self.inv_bounds.get(loc, ())):
            raise ModelError("initial invariant excludes the all-zero valuation")
        start = Z.origin(self.clocks)
        for clock in self.freed[loc]:
            start = Z.free(start, clock)
        return (loc, start)

    def moves(self, loc: str) -> tuple[Move, ...]:
        """The moves out of `loc`, in edge order; compiled on first use.

        A move is (action, target, the `Z.Box` of the edge's fire zone).
        That zone meets guard, source invariant and the target invariant
        pulled back through the reset: an atom on the reset clock must
        hold at zero, the rest bound the clocks the edge keeps.  Every
        atom bounds one clock, so it is the closure of each clock's
        tightest bounds (Bengtsson & Yi, 2004), and empty, with no move,
        iff a lower bound passes an upper one.  No `Dbm` is built.
        """
        moves = self._moves.get(loc)
        if moves is None:
            low, up = {}, {}
            _meet(low, up, self.inv_bounds.get(loc, ()))
            moves = self._moves[loc] = tuple(m for e in self.edges_from[loc] if (m := self._move(e, low, up)))
        return moves

    def _move(self, e: Edge, low: dict[int, int], up: dict[int, int]) -> Move | None:
        """`e`'s move, from the bounds `low` and `up` of its source's invariant; None when it never fires."""
        index = self.index
        reset = index[self.reset_clock[e.action]]
        target = self.inv_bounds.get(e.target, ())
        if any(i == reset and min(lo, hi) < Z.LE_ZERO for i, lo, hi in target):
            return None     # the reset clock is 0 on arrival, where the target's invariant fails
        low, up = dict(low), dict(up)
        _meet(low, up, [b for b in target if b[0] != reset])
        _meet(low, up, [(index[t.clock], *_atom_bounds(t)) for t in e.guard])
        if any(u + (lo := low.get(i, Z.LE_ZERO)) - ((u | lo) & 1) < Z.LE_ZERO for i, u in up.items()):
            return None
        freed = tuple(index[c] for c in self.freed[e.target])
        return e.action, e.target, (tuple(sorted(low.items())), tuple(sorted(up.items())), reset, freed)

    def successor(self, zone: Z.Dbm, move: Move) -> Sym | None:
        """Widened delay-closed successor of a widened zone along `move`; None when empty.

        `zone` must be widened: a node zone, or any zone that
        `Z.extrapolate` returns as it is.  The widening is skipped when
        it would change nothing.  A box with no finite upper bound and
        no lower bound tighter than the zone's gives a result whose
        entries are all entries of the zone, `LE_ZERO` or `INF` (a freed
        clock's entries are entries of the result or those two); if the
        zone's own finite entries lie within ±max_const, so do the
        result's, and `Z.extrapolate` would return it as it is.  A zone
        the widening rebuilt may not qualify (closing `x > M` and
        `y - x > M` gives `y > 2M`), so those are kept in `_loose` and
        their successors are always widened.
        """
        _, target, box = move
        nxt = Z.post(zone, box)
        if nxt is None:
            return None
        lows, ups, _, _ = box
        loose = self._loose
        if ups or (lows and any(b < zone.m[k] for k, b in lows)) or (loose and zone in loose):
            return self.widen((target, nxt))
        return (target, nxt)

    def widen(self, s: Sym) -> Sym:
        """Maximum-constant widening; a zone it rebuilds is kept in `_loose`."""
        zone = Z.extrapolate(s[1], self.max_const)
        if zone is not s[1]:
            self._loose.add(zone)
        return (s[0], zone)

    # -- blocking ----------------------------------------------------------

    def blocking_subset(self, s: Sym) -> tuple[Z.Dbm, ...]:
        """Concrete states in `s` with no delay-then-discrete extension.

        Start from the whole zone and carve out, per move, every point
        that can wait (inside the invariant) until the move's fire
        zone.  What remains blocks, as disjoint pieces; none when
        nothing does.  The wait zones of a location are built in move
        order as far as some call has needed them, each in closed form
        by `Z.wait_zone` from the move's box and the lower bounds of the
        location's invariant; a move's box lies inside that invariant,
        so no wait zone is empty.
        """
        loc, zone = s
        waits = self._waits.setdefault(loc, [])
        pieces: tuple[Z.Dbm, ...] = (zone,)
        for i, (_, _, (lows, ups, _, _)) in enumerate(self.moves(loc)):
            if i == len(waits):
                inv_lows = [(k, lo) for k, lo, _ in self.inv_bounds.get(loc, ())]
                waits.append(Z.wait_zone(self.clocks, lows, ups, inv_lows))
            pieces = tuple(q for p in pieces for q in Z.subtract(p, waits[i]))
            if not pieces:
                break
        return pieces

    def is_blocking(self, s: Sym) -> bool:
        return bool(self.blocking_subset(s))


# -- zone graph --------------------------------------------------------------


class ZoneGraph:
    """Symbolic states numbered once each, with successors built on first use.

    States are widened, exact for diagonal-free automata such as ERAs
    (Bouyer, FMSD 2004): `Analyzer.initial`'s entries are all `LE_ZERO`
    or `INF`, which widening keeps, and `Analyzer.successor` widens.
    `succ(nid)` gives the node's successor ids per action, in sorted
    action order, from one `successor` call per move out of its location
    on first use; targets are numbered in move order, so expanding nodes
    in id order numbers them breadth first.  `edges` lists the expanded
    nodes' sorted (source, action, target) triples, and `blocks(nid)`
    whether a node blocks.
    """

    def __init__(self, a: Pera, free_inactive: bool = False):
        self.ana = Analyzer(a, free_inactive)
        self.nodes: list[Sym] = []
        self.node_index: dict[Sym, int] = {}
        self._succ: dict[int, dict[str, tuple[int, ...]]] = {}
        self._blocks: dict[int, bool] = {}
        self.initial = self._intern(self.ana.initial())

    def _intern(self, s: Sym) -> int:
        nid = self.node_index.get(s)
        if nid is None:
            nid = self.node_index[s] = len(self.nodes)
            self.nodes.append(s)
        return nid

    def succ(self, nid: int) -> dict[str, tuple[int, ...]]:
        table = self._succ.get(nid)
        if table is None:
            ana = self.ana
            loc, zone = self.nodes[nid]
            out: dict[str, set[int]] = {}
            for move in ana.moves(loc):
                nxt = ana.successor(zone, move)
                if nxt is not None:
                    out.setdefault(move[0], set()).add(self._intern(nxt))
            table = self._succ[nid] = {act: tuple(out[act]) for act in sorted(out)}
        return table

    def blocks(self, nid: int) -> bool:
        if nid not in self._blocks:
            self._blocks[nid] = self.ana.is_blocking(self.nodes[nid])
        return self._blocks[nid]

    @property
    def edges(self) -> list[tuple[int, str, int]]:
        return sorted((n, act, d) for n, t in self._succ.items() for act, ds in t.items() for d in ds)


def zone_graph(a: Pera, node_limit: int = NODE_LIMIT, levels: int | None = None) -> ZoneGraph:
    """Widened reachability graph, explored to fixpoint, or `levels` levels deep.

    Nodes are expanded in id order, so they are numbered breadth first
    and the ids of one level follow those of the level before.  A graph
    cut at `levels` is therefore a prefix of the fixpoint graph: its
    first nodes, with every edge out of the nodes fewer than `levels`
    steps from the start.  Whether a node blocks is left to
    `ZoneGraph.blocks`.
    """
    g = ZoneGraph(a)
    lo, hi, level = 0, 1, 0
    while lo < hi and (levels is None or level < levels):
        for nid in range(lo, hi):
            g.succ(nid)
            if len(g.nodes) > node_limit:
                raise ResourceExhausted(f"zone graph exceeded {node_limit} nodes")
        lo, hi, level = hi, len(g.nodes), level + 1
    return g
