"""Zone exploration, blocking detection, and concrete replay."""

import itertools
import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, seed, settings, strategies as st

from peralab.core import Atom, Edge, ModelError, Pera
from peralab.encoder import VARIANTS, build, encode_core
from peralab.language import Determinized, Lassos
from peralab.semantics import (
    Analyzer,
    ResourceExhausted,
    ZoneGraph,
    zone_graph,
)
from peralab import zones as Z

import gridoracle as G
from boxes import compile_box, guard_zone
from machines import inc3, load, loop
from replay import SimulationError, concrete_simulate, guard_holds
from schedule import derive_schedule
from test_encoder import machines
from test_reduced_graph import random_era
from wordsets import ExplorationConfig, enumerate_language


def one_loc(edges, invariant=(), actions=(("a", "x"),)):
    return Pera(
        actions=actions,
        parameters=(),
        locations=("only",),
        initial="only",
        edges=edges,
        invariants={"only": invariant} if invariant else {},
    )


@pytest.fixture(scope="module")
def loop2():
    return build(loop(), "wrapped").valuate({"p": 2})


# -- analyzer basics --------------------------------------------------------


def test_analyzer_rejects_parametric_automaton():
    with pytest.raises(ModelError):
        Analyzer(build(loop(), "wrapped"))


def test_initial_must_contain_origin():
    a = one_loc((), invariant=(Atom("x", ">=", 1),))
    with pytest.raises(ModelError):
        Analyzer(a).initial()


def test_guard_zone_of_unsatisfiable_guard():
    guard = (Atom("x", "<", 0),)
    assert guard_zone(guard, ("x",)) is None
    assert guard_zone((), ("x",)) is not None


def test_guard_zone_rejects_a_parametric_atom():
    with pytest.raises(ModelError, match=r"atom x <= p\+1 still parametric"):
        guard_zone((Atom("x", "<=", 1, "p"),), ("x",))


def test_successor_hand_case():
    a = one_loc((Edge("only", (Atom("x", ">=", 2),), "a", "only"),))
    ana = Analyzer(a)
    loc, zone = ana.initial()
    (move,) = ana.moves(loc)
    loc, zone = ana.successor(zone, move)
    assert loc == "only"
    # delay to x >= 2, then reset: exactly the origin again, delay-closed later
    assert zone == Z.origin(("x",))
    nxt = [ana.successor(zone, m) for m in ana.moves(loc)]
    assert len(nxt) == 1 and nxt[0] is not None


cached_guard_zone = cache(guard_zone)


def stepwise_successor(ana, s, e):
    """The successor in four steps: up and source invariant, guard, reset, target invariant."""
    loc, zone = s
    a = ana.automaton
    zones = [cached_guard_zone(g, ana.clocks) for g in (a.invariant(loc), e.guard, a.invariant(e.target))]
    if None in zones:
        return None
    inv, guard, tinv = zones
    stepped = Z.intersect(Z.up(zone), inv)
    stepped = stepped and Z.intersect(stepped, guard)
    if stepped is None:
        return None
    stepped = Z.intersect(Z.reset(stepped, a.clock_of(e.action)), tinv)
    return None if stepped is None else (e.target, stepped)


def widened_stepwise_successor(ana, s, e):
    """`stepwise_successor`, with the clocks `ana` frees at the target freed, widened as every zone graph node is."""
    nxt = stepwise_successor(ana, s, e)
    if nxt is None:
        return None
    zone = nxt[1]
    for clock in ana.freed[e.target]:
        zone = Z.free(zone, clock)
    return (nxt[0], Z.extrapolate(zone, ana.max_const))


def reference_graph(a):
    """Nodes and sorted edges of the widened zone graph, built breadth first.

    One widened reference step per edge, in edge order, so node ids
    come out as `ZoneGraph` numbers them.
    """
    ana = Analyzer(a)
    loc, zone = ana.initial()
    nodes = [(loc, Z.extrapolate(zone, ana.max_const))]
    index = {nodes[0]: 0}
    edges = set()
    for nid, s in enumerate(nodes):             # grows while it is walked
        for e in ana.edges_from[s[0]]:
            nxt = widened_stepwise_successor(ana, s, e)
            if nxt is not None:
                if nxt not in index:
                    index[nxt] = len(nodes)
                    nodes.append(nxt)
                edges.add((nid, e.action, index[nxt]))
    return nodes, sorted(edges)


def fire_zone(ana, e):
    """Where `e` fires into its target's invariant, as one closed zone; None when nowhere.

    Guard and source invariant, and the target invariant pulled back
    through the reset: its atoms on the reset clock must hold at zero,
    the rest bound the clocks the edge leaves as they are.
    """
    a = ana.automaton
    reset = ana.reset_clock[e.action]
    target = a.invariant(e.target)
    if not guard_holds(tuple(t for t in target if t.clock == reset), {reset: Fraction(0)}):
        return None
    kept = tuple(t for t in target if t.clock != reset)
    return cached_guard_zone(e.guard + a.invariant(e.source) + kept, ana.clocks)


def move_for(ana, e):
    """The move `Analyzer.moves` compiles for `e`; None when `e` never fires."""
    fire = fire_zone(ana, e)
    if fire is None:
        return None
    return (e.action, e.target, compile_box(fire, ana.reset_clock[e.action], ana.freed[e.target]))


def two_loc(edge, invariants):
    return Pera(
        actions=(("a", "x"), ("b", "y")),
        parameters=(),
        locations=("u", "v", "w"),
        initial="u",
        edges=(edge,),
        invariants=invariants,
    )


@pytest.mark.parametrize(
    "edge, invariants, fires",
    [
        # target invariant on the reset clock, holding at 0; the other atom constrains y
        (Edge("u", (Atom("x", ">=", 1),), "a", "v"),
         {"u": (Atom("y", "<=", 3),), "v": (Atom("x", "<=", 1), Atom("y", "<", 2))}, True),
        # target invariant on the reset clock, failing at 0
        (Edge("u", (), "a", "v"), {"v": (Atom("x", ">=", 1),)}, False),
        (Edge("u", (), "a", "v"), {"v": (Atom("x", ">", 0),)}, False),
        # unsatisfiable guard
        (Edge("u", (Atom("y", "<", 0),), "b", "v"), {}, False),
        # uninhabitable source
        (Edge("w", (), "b", "v"), {"w": (Atom("x", "<", 0),)}, False),
    ],
)
def test_successor_matches_stepwise_reference(edge, invariants, fires):
    ana = Analyzer(two_loc(edge, invariants))
    move = move_for(ana, edge)
    assert ana.moves(edge.source) == (() if move is None else (move,))
    for zone in (Z.origin(ana.clocks), Z.from_constraints(ana.clocks, ())):
        s = (edge.source, zone)
        got = None if move is None else ana.successor(zone, move)
        assert got == widened_stepwise_successor(ana, s, edge)
        assert (got is not None) == fires


def successor_and_skip(ana, zone, move):
    """`ana.successor(zone, move)`, and whether it skipped the widening."""
    widen = ana.widen
    calls = []
    ana.widen = lambda s: calls.append(s) or widen(s)
    try:
        return ana.successor(zone, move), not calls
    finally:
        del ana.widen


@pytest.mark.parametrize("machine", [loop, inc3])
@pytest.mark.parametrize("variant", ["wrapped", "buchi", "safety"])
def test_successor_matches_stepwise_reference_on_encodings(machine, variant):
    """Every move out of every node, with and without inactive clocks freed: the
    widened reference, and a skipped widening changes nothing."""
    base = build(machine(), variant)
    valuations = ((1, 0), (1, 1), (1, 2), (1, 5), (1, 61), (2, 1))     # and p = 1/2
    for (scale, p), free_inactive in itertools.product(valuations, (False, True)):
        a = base.rescale(scale).valuate({"p": p})
        g = ZoneGraph(a, free_inactive)
        for nid, _ in enumerate(g.nodes):                      # to fixpoint; the list grows
            g.succ(nid)
        ana = g.ana
        moves = {e: move_for(ana, e) for e in a.edges}
        for loc, edges in ana.edges_from.items():
            assert ana.moves(loc) == tuple(moves[e] for e in edges if moves[e] is not None)
        fired = skipped = 0
        for s in g.nodes:
            for e in ana.edges_from[s[0]]:
                move = moves[e]
                got, skip = (None, False) if move is None else successor_and_skip(ana, s[1], move)
                assert got == widened_stepwise_successor(ana, s, e)
                fired += got is not None
                if got is not None and skip:
                    skipped += 1
                    assert Z.extrapolate(got[1], ana.max_const) is got[1]
        assert fired > skipped > 0


def test_widening_rebuilt_zone_is_widened_again_after_a_plain_move():
    """Closing `xa > 2` with `xb - xa > 2` keeps `xb > 4` past the constant 2.

    Resetting `xa` by a move with no bounds leaves `xb > 4`, which the
    widening would turn into `xb > 2`, so that step may not skip it.
    """
    a = Pera(
        actions=(("a", "xa"), ("b", "xb"), ("c", "xc")),
        parameters=(),
        locations=("l0", "l1", "l2", "l3", "l4"),
        initial="l0",
        edges=(
            Edge("l0", (), "b", "l1"),
            Edge("l1", (Atom("xb", ">", 2),), "a", "l2"),
            Edge("l2", (Atom("xa", ">", 2),), "c", "l3"),
            Edge("l3", (), "a", "l4"),
        ),
    )
    g = zone_graph(a)
    (l4,) = [z for loc, z in g.nodes if loc == "l4"]
    assert l4 == Z.extrapolate(l4, 2)
    assert l4.pretty() == "xb > 2 & xa <= 0 & xa-xb < -2 & xa-xc <= 0 & xc-xb < -2"
    assert g.nodes == reference_graph(a)[0]


@pytest.mark.parametrize("name", ["loop", "inc3", "halt"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_fire_zones_are_boxes(name, variant):
    """`successor` steps with `zones.post`, which needs every fire zone to be a box."""
    a = build(load(name), variant)
    for scale, p in ((1, 0), (1, 2), (2, 1)):                  # p = 0, 2, 1/2
        ana = Analyzer(a.rescale(scale).valuate({"p": p}))
        n = len(ana.clocks) + 1
        for e in ana.automaton.edges:
            fire = fire_zone(ana, e)
            if fire is None:
                continue
            m = fire.m
            for i in range(1, n):
                for j in range(1, n):
                    up, low = m[i * n], m[j]
                    via_zero = Z.INF if up >= Z.INF else up + low - ((up | low) & 1)
                    assert i == j or m[i * n + j] == via_zero, (e, fire)


def recorded_zone_builds(monkeypatch):
    """Record each zone `zones.from_constraints` or `zones.wait_zone` builds, as (where, builder,
    zone): where is the location `Analyzer.blocking_subset` is at, or None."""
    built, at = [], [None]
    blocking_subset = Analyzer.blocking_subset

    def located(self, s):
        at.append(s[0])
        try:
            return blocking_subset(self, s)
        finally:
            at.pop()

    def recorder(f):
        def record(*args):
            built.append((at[-1], f.__name__, f(*args)))
            return built[-1][2]
        return record

    for f in (Z.from_constraints, Z.wait_zone):
        monkeypatch.setattr(Z, f.__name__, recorder(f))
    monkeypatch.setattr(Analyzer, "blocking_subset", located)
    return built


def bundled_valuations():
    for name in ("loop", "inc3", "halt"):
        for variant in VARIANTS:
            for scale, p in ((1, 0), (1, 2), (2, 1)):          # p = 0, 2, 1/2
                yield pytest.param(build(load(name), variant).rescale(scale).valuate({"p": p}),
                                   id=f"{name}-{variant}-{p}/{scale}")


def reference_waits(ana, loc):
    """The wait zones of `loc`'s moves, in move order: `time_pred` of each firing edge's
    `fire_zone` within the `guard_zone` of the invariant."""
    inv = guard_zone(ana.automaton.invariant(loc), ana.clocks)
    return [Z.time_pred(f, inv) for e in ana.edges_from[loc] if (f := fire_zone(ana, e))]


@pytest.mark.parametrize("a", bundled_valuations())
def test_zones_are_built_only_where_read(a, monkeypatch):
    """Moves, the initial state and a Büchi lasso search build no zone with `from_constraints`
    or `wait_zone`, and a maximal word walk builds only the wait zones of a location's moves,
    in move order, each at most once."""
    ana = Analyzer(a)
    waits = {loc: reference_waits(ana, loc) for loc in a.locations}
    built = recorded_zone_builds(monkeypatch)
    for loc in a.locations:
        ana.moves(loc)
    assert built == []
    if not guard_holds(a.invariant(a.initial), dict.fromkeys(a.clocks, Fraction(0))):
        return                             # no initial state (plain at p = 0), so no walk
    if a.accepting:                        # Büchi semantics needs accepting locations
        Lassos(a, 3)
        assert built == []
    det = Determinized(a, "maximal")
    det.counts(6)
    assert built and all(f == "wait_zone" and where is not None for where, f, _ in built)
    for loc in a.locations:
        at_loc = [z for where, _, z in built if where == loc]
        assert at_loc == waits[loc][:len(at_loc)]


def wait_zone_valuations():
    for name in ("loop", "inc3", "halt"):
        for variant in VARIANTS:
            a = build(load(name), variant)
            for scale, p in [(1, p) for p in (0, 1, 2, 3, 5, 8)] + [(2, 1)]:   # and p = 1/2
                yield a.rescale(scale).valuate({"p": p})


def assert_wait_zones_in_closed_form(a, free_inactive):
    """`Z.wait_zone` of every move's box and its source invariant's lower bounds is the
    reference wait zone; returns the number of moves checked."""
    ana = Analyzer(a, free_inactive)
    checked = 0
    for loc in a.locations:
        inv_lows = [(k, lo) for k, lo, _ in ana.inv_bounds.get(loc, ())]
        moves, waits = ana.moves(loc), reference_waits(ana, loc)
        assert len(moves) == len(waits)
        for (_, _, (lows, ups, _, _)), want in zip(moves, waits):
            assert want is not None
            assert Z.wait_zone(ana.clocks, lows, ups, inv_lows) == want, (loc, lows, ups, inv_lows)
            checked += 1
    return checked


@pytest.mark.parametrize("free_inactive", [False, True])
def test_wait_zone_is_time_pred_of_the_box_on_encodings(free_inactive):
    checked = 0
    for a in wait_zone_valuations():
        checked += assert_wait_zones_in_closed_form(a, free_inactive)
    assert checked > 1000


def test_wait_zone_is_time_pred_of_the_box_on_random_eras():
    rng = random.Random(20261021)
    checked = 0
    for _ in range(400):
        a = random_era(rng)
        for free_inactive in (False, True):
            checked += assert_wait_zones_in_closed_form(a, free_inactive)
    assert checked > 1000


# -- blocking ---------------------------------------------------------------


def test_unguarded_loop_never_blocks():
    ana = Analyzer(one_loc((Edge("only", (), "a", "only"),)))
    assert ana.blocking_subset(ana.initial()) == ()
    assert not ana.is_blocking(ana.initial())


def test_unreachable_guard_blocks_everything():
    a = one_loc(
        (Edge("only", (Atom("x", "=", 2),), "a", "only"),),
        invariant=(Atom("x", "<=", 1),),
    )
    ana = Analyzer(a)
    init = ana.initial()
    pieces = ana.blocking_subset(init)
    assert pieces
    assert any(G.satisfies_point(p, (Fraction(0),)) for p in pieces)
    assert ana.is_blocking(init)


def test_edgeless_location_blocks():
    ana = Analyzer(one_loc(()))
    assert ana.is_blocking(ana.initial())


def blocking_nodes(a, g):
    ana = Analyzer(a)
    return [s for s in g.nodes if ana.is_blocking(s)]


def test_wrapped_encoding_blocks_only_mid_simulation(loop2):
    blocked = {loc for loc, _ in blocking_nodes(loop2, zone_graph(loop2))}
    assert blocked == {"lbar_s0"}


def test_active_clocks_hand_case():
    """Each of the three reasons a clock is active, and a reset that stops one."""
    a = Pera(
        actions=(("a", "xa"), ("b", "xb"), ("c", "xc")),
        parameters=(),
        locations=("l0", "l1", "l2"),
        initial="l0",
        edges=(
            Edge("l0", (Atom("xc", ">=", 1),), "a", "l1"),
            Edge("l1", (Atom("xa", ">=", 2),), "b", "l2"),
            Edge("l2", (Atom("xc", "<", 2),), "c", "l0"),
        ),
        invariants={"l0": (Atom("xb", "<=", 3),)},
    )
    # l0 reads xb in its invariant and xc in its guard; xa, read out of
    # l1, is reset on the way there.  l1 gets xc from l2's guard (b
    # resets only xb), and l2 gets xb from l0's invariant (c resets xc).
    assert Analyzer(a).active_clocks() == {"l0": {"xb", "xc"}, "l1": {"xa", "xc"}, "l2": {"xb", "xc"}}
    assert Analyzer(a, free_inactive=True).freed == {"l0": ("xa",), "l1": ("xb",), "l2": ("xa",)}
    assert Analyzer(a).freed == {"l0": (), "l1": (), "l2": ()}


def test_initial_state_frees_inactive_clocks():
    a = one_loc((Edge("only", (), "a", "only"),), actions=(("a", "x"), ("b", "y")))
    assert Analyzer(a, free_inactive=True).initial() == ("only", Z.from_constraints(("x", "y"), ()))
    assert Analyzer(a).initial() == ("only", Z.origin(("x", "y")))


def reference_initial(ana):
    """`Analyzer.initial` the long way: the origin met with the `guard_zone` of the initial
    invariant, then the freed clocks freed; None when the meet is empty."""
    a = ana.automaton
    inv = guard_zone(a.invariant(a.initial), ana.clocks)
    start = inv and Z.intersect(Z.origin(ana.clocks), inv)
    if start is None:
        return None
    for clock in ana.freed[a.initial]:
        start = Z.free(start, clock)
    return a.initial, start


def assert_initial_is_reference(a, free_inactive):
    """`initial()` is `reference_initial`'s state, which `Z.extrapolate` returns as it is and
    the zone graph interns as its first node, or it raises the model error when that is
    None; returns whether it raised."""
    ana = Analyzer(a, free_inactive)
    want = reference_initial(ana)
    if want is None:
        with pytest.raises(ModelError, match="^initial invariant excludes the all-zero valuation$"):
            ana.initial()
        return True
    got = ana.initial()
    assert got == want, a.to_text()
    for max_const in (0, ana.max_const):
        assert Z.extrapolate(got[1], max_const) is got[1]
    assert ZoneGraph(a, free_inactive).nodes[0] == want
    return False


@pytest.mark.parametrize("free_inactive", [False, True])
def test_initial_is_the_origin_met_with_the_invariant_on_encodings(free_inactive):
    raised = []
    for name in ("loop", "inc3", "halt"):
        for variant in VARIANTS:
            a = build(load(name), variant)
            for scale, p in [(1, p) for p in (0, 1, 2, 5)] + [(2, 1)]:   # and p = 1/2
                raised.append(assert_initial_is_reference(a.rescale(scale).valuate({"p": p}), free_inactive))
    assert any(raised) and not all(raised)


def test_initial_is_the_origin_met_with_the_invariant_on_random_eras():
    """Seeded random ERAs, whose initial invariants include `x > 0` and `x < 0`."""
    rng = random.Random(20261022)
    raised, atoms = [], set()
    for _ in range(400):
        a = random_era(rng)
        atoms.update((t.rel, t.offset) for t in a.invariant(a.initial))
        for free_inactive in (False, True):
            raised.append(assert_initial_is_reference(a, free_inactive))
    assert {(">", 0), ("<", 0)} <= atoms
    assert sum(raised) > 20 and not all(raised)


# -- zone graph --------------------------------------------------------------


def test_zero_period_graph_stays_in_wrapper():
    a = build(loop(), "wrapped").valuate({"p": 0})
    g = zone_graph(a)
    assert {loc for loc, _ in g.nodes} == {"l_start", "l_acc1", "l_acc2"}
    assert blocking_nodes(a, g) == []
    assert g.nodes[g.initial][0] == "l_start"


def test_zone_graph_reaches_fixpoint(loop2):
    g = zone_graph(loop2)
    assert len(g.nodes) == 48
    assert len(blocking_nodes(loop2, g)) == 1
    ids = {g.node_index[s] for s in g.nodes}
    assert ids == set(range(len(g.nodes)))
    for src, _, dst in g.edges:
        assert 0 <= src < len(g.nodes) and 0 <= dst < len(g.nodes)


@pytest.mark.parametrize("levels", [0, 1, 3, 8, 10_000])
def test_bounded_zone_graph_is_prefix_of_fixpoint(levels):
    a = build(loop(), "buchi").valuate({"p": 65})
    full = zone_graph(a)
    g = zone_graph(a, levels=levels)
    # breadth-first depth of every fixpoint node, from the fixpoint edges
    depth = {full.initial: 0}
    frontier = {full.initial}
    while frontier:
        d = depth[next(iter(frontier))] + 1
        frontier = {dst for src, _, dst in full.edges if src in frontier and dst not in depth}
        depth.update(dict.fromkeys(frontier, d))
    n = len(g.nodes)
    assert n == sum(1 for d in depth.values() if d <= levels)
    assert g.nodes == full.nodes[:n]
    assert g.node_index == {s: full.node_index[s] for s in g.nodes}
    assert g.edges == [e for e in full.edges if depth[e[0]] < levels]


@seed(2110)
@given(machines(), st.sampled_from(["wrapped", "buchi", "safety"]), st.integers(min_value=0, max_value=5))
@settings(deadline=None, max_examples=25)
def test_zone_graph_matches_reference_on_random_machines(m, variant, p):
    a = build(m, variant).valuate({"p": p})
    g = zone_graph(a)
    assert (g.nodes, g.edges) == reference_graph(a)


def test_zone_graph_node_limit(loop2):
    with pytest.raises(ResourceExhausted):
        zone_graph(loop2, node_limit=3)


# -- concrete replay -----------------------------------------------------------


def test_empty_script_runs(loop2):
    run = concrete_simulate(loop2, ())
    assert run.steps == () and run.final_location == "l_start"
    assert run.untimed_word == () and run.timed_word == ()


def test_replay_rejects_parametric():
    with pytest.raises(ModelError):
        concrete_simulate(build(loop(), "wrapped"), ())


def test_replay_words_and_valuations():
    a = one_loc(
        (Edge("only", (), "a", "only"), Edge("only", (), "b", "only")),
        actions=(("a", "x"), ("b", "y")),
    )
    run = concrete_simulate(a, ((Fraction(1, 2), "a", "only"), (1, "b", "only")))
    assert run.untimed_word == ("a", "b")
    assert run.timed_word == (("a", Fraction(1, 2)), ("b", Fraction(3, 2)))
    assert run.steps[0].valuation == (Fraction(0), Fraction(1, 2))
    assert run.steps[1].valuation == (Fraction(1), Fraction(0))


def test_replay_negative_delay(loop2):
    with pytest.raises(SimulationError) as err:
        concrete_simulate(loop2, ((-1, "a_t", "l_start"),))
    assert err.value.index == 0 and "negative delay" in str(err.value)


def test_replay_initial_invariant_violation():
    a = one_loc((), invariant=(Atom("x", ">=", 1),))
    with pytest.raises(SimulationError) as err:
        concrete_simulate(a, ())
    assert "initial state" in str(err.value)


def test_replay_delay_leaves_invariant():
    a = one_loc((Edge("only", (), "a", "only"),), invariant=(Atom("x", "<=", 1),))
    with pytest.raises(SimulationError) as err:
        concrete_simulate(a, ((0, "a", "only"), (2, "a", "only")))
    assert err.value.index == 1
    assert "leaves the invariant" in str(err.value)
    assert str(err.value).startswith("step 1:")


def test_replay_unsatisfied_guard():
    a = one_loc((Edge("only", (Atom("x", "=", 2),), "a", "only"),))
    with pytest.raises(SimulationError) as err:
        concrete_simulate(a, ((1, "a", "only"),))
    assert "no fireable a edge only -> only" in str(err.value)


def test_replay_ambiguous_edges():
    a = one_loc(
        (
            Edge("only", (Atom("x", "<=", 5),), "a", "only"),
            Edge("only", (Atom("x", "<=", 7),), "a", "only"),
        )
    )
    with pytest.raises(SimulationError) as err:
        concrete_simulate(a, ((1, "a", "only"),))
    assert "ambiguous edge choice" in str(err.value)


def test_replay_target_invariant_violation():
    a = Pera(
        actions=(("a", "x"), ("b", "y")),
        parameters=(),
        locations=("u", "v"),
        initial="u",
        edges=(Edge("u", (), "a", "v"),),
        invariants={"v": (Atom("y", "<=", 0),)},
    )
    with pytest.raises(SimulationError) as err:
        concrete_simulate(a, ((1, "a", "v"),))
    assert "target invariant of v" in str(err.value)


# -- agreement between symbolic and concrete views ------------------------------


def half_grid_words(a, limit):
    """Every word of length <= limit realizable with half-integer delays."""
    grid = [Fraction(j, 2) for j in range(2 * a.max_constant() + 2)]
    clock_of = dict(a.actions)
    seen = set()

    def rec(loc, val, word):
        seen.add(word)
        if len(word) == limit:
            return
        for d in grid:
            after = {c: v + d for c, v in val.items()}
            if not guard_holds(a.invariant(loc), after):
                continue
            for e in a.edges:
                if e.source != loc or not guard_holds(e.guard, after):
                    continue
                nval = dict(after)
                nval[clock_of[e.action]] = Fraction(0)
                if not guard_holds(a.invariant(e.target), nval):
                    continue
                rec(e.target, nval, word + (e.action,))

    rec(a.initial, {c: Fraction(0) for c in a.clocks}, ())
    return seen


def test_symbolic_prefixes_match_concrete_search(loop2):
    """Soundness and completeness spot check at depth three.

    The symbolic walk must enumerate exactly the words witnessed by a
    brute-force search over concrete runs (half-integer delays suffice
    at this constant scale).
    """
    symbolic = enumerate_language(loop2, ExplorationConfig(depth=3), "maximal").prefix_words
    concrete = half_grid_words(loop2, 3)
    assert symbolic == concrete


def unwidened(monkeypatch):
    """Turn widening off, so zone graphs hold the exact reachable zones."""
    monkeypatch.setattr(Analyzer, "widen", lambda self, s: s)


def test_schedule_word_is_enumerated(monkeypatch):
    m = loop()
    period = 2
    sch = derive_schedule(m, period)
    a = encode_core(m).valuate({"p": period})
    run = concrete_simulate(a, sch.script)
    unwidened(monkeypatch)
    sample = enumerate_language(a, ExplorationConfig(depth=len(sch.script)), "maximal")
    assert run.untimed_word in sample.prefix_words


def assert_forced_run_stays_in(stem, period, free_inactive):
    """After every step of the replayed forced run, its valuation lies in
    the zone of a node at the step's target, reached from a node that
    held the previous valuation by an edge labelled with the step's action.
    """
    m = load(stem)
    a = encode_core(m).valuate({"p": period})
    run = concrete_simulate(a, derive_schedule(m, period).script)
    g = ZoneGraph(a, free_inactive)
    held = {g.initial}
    for i, step in enumerate(run.steps):
        held = {
            d for n in held for d in g.succ(n).get(step.edge.action, ())
            if g.nodes[d][0] == step.edge.target and G.satisfies_point(g.nodes[d][1], step.valuation)
        }
        assert held, f"{stem} p={period}: step {i} ({step.edge.action}) leaves the zone graph"


@pytest.mark.parametrize("stem", ["inc3", "loop", "halt"])
@pytest.mark.parametrize("period", [1, 2, 3, 5])
def test_concrete_run_stays_in_the_zone_graph(stem, period):
    """The forced run, replayed concretely, never leaves the widened zone graph."""
    assert_forced_run_stays_in(stem, period, free_inactive=False)


@pytest.mark.parametrize("stem", ["inc3", "loop", "halt"])
@pytest.mark.parametrize("period", [1, 2, 3, 5])
def test_concrete_run_stays_in_the_reduced_zone_graph(stem, period):
    """The same with inactive clocks freed, as the finite-word walks explore it."""
    assert_forced_run_stays_in(stem, period, free_inactive=True)


def test_extrapolation_preserves_words(loop2, monkeypatch):
    """Widening must not change the language up to the probe depth."""
    wide = enumerate_language(loop2, ExplorationConfig(depth=8), "maximal")
    unwidened(monkeypatch)
    raw = enumerate_language(loop2, ExplorationConfig(depth=8), "maximal")
    assert raw.prefix_words == wide.prefix_words
    assert raw.maximal_finite_words == wide.maximal_finite_words


def test_widen_is_extrapolation(loop2):
    ana = Analyzer(loop2)
    init = ana.initial()
    widened = ana.widen(init)
    assert widened[0] == init[0]
    assert widened[1] == Z.extrapolate(init[1], ana.max_const)
