"""Compiling two-counter machines into event-recording automata.

The compiled automaton simulates the machine against a parametric
period: one machine step per period, ticks marked by a dedicated clock,
counter values carried as clock offsets, and a step-budget clock that
cuts the simulation off after one period's worth of steps.  A wrapper
turns the gadget into the language-comparison harness; sink, acceptance
and relabeling variants adapt it to the other language definitions.

Conventions: parameter `p`; actions `a_t, a_1, a_2, a_z` with clocks
`t, x1, x2, z`; variants add `a_3`/`x3`.  The machine state `s` becomes
locations `l_<s>` (main) and `lbar_<s>` (intermediary); the halt state
always becomes `l_halt`/`lbar_halt` regardless of its source name.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .core import Atom, Edge, Guard, ModelError, Pera
from .minsky import Inc, Machine, step as machine_step

PARAM = "p"
SIGMA = (("a_t", "t"), ("a_1", "x1"), ("a_2", "x2"), ("a_z", "z"))
EXTRA_ACTION = ("a_3", "x3")

RESERVED = ("start", "acc1", "acc2", "sink")


def main_loc(m: Machine, state: str) -> str:
    return "l_halt" if state == m.halt else f"l_{state}"


def bar_loc(m: Machine, state: str) -> str:
    return "lbar_halt" if state == m.halt else f"lbar_{state}"


def encode_core(m: Machine) -> Pera:
    """The simulation gadget: two locations per machine state.

    Counter semantics: at every tick instant the counter clocks equal
    the counter values.  An increment is realized by resetting the
    counter clock one time unit before the tick, a decrement one unit
    after, and the zero test by firing exactly at the tick when the
    counter clock was just reset there.  The budget clock `z` is only
    reset on the return edge of each step; its strict invariant stops
    every simulation after one period's worth of machine steps.
    """
    for s in m.states:
        if s != m.halt and s in RESERVED + ("halt",):
            raise ModelError(f"machine state name {s!r} collides with an encoding location")

    inv: Guard = (
        Atom("t", "<=", 0, PARAM),
        Atom("x1", "<=", 0, PARAM),
        Atom("x2", "<=", 0, PARAM),
        Atom("z", "<", 0, PARAM),
    )
    locations = [main_loc(m, s) for s in m.states] + [bar_loc(m, s) for s in m.states]
    edges: list[Edge] = []

    for loc in locations:
        edges.append(Edge(loc, (Atom("t", "=", 0, PARAM),), "a_t", loc))
        edges.append(Edge(loc, (Atom("x1", "=", 0, PARAM),), "a_1", loc))
        edges.append(Edge(loc, (Atom("x2", "=", 0, PARAM),), "a_2", loc))

    for s, ins in m.program:
        src = main_loc(m, s)
        xk, ak = f"x{ins.counter}", f"a_{ins.counter}"
        if isinstance(ins, Inc):
            edges.append(Edge(src, (Atom(xk, "=", -1, PARAM),), ak, bar_loc(m, ins.goto)))
        else:
            edges.append(Edge(src, (Atom("t", "=", 0), Atom(xk, "=", 0)), "a_t", bar_loc(m, ins.if_zero)))
            for t_side in (Atom("t", "<", 1), Atom("t", ">", 1)):
                edges.append(Edge(src, (Atom(xk, "=", 1), t_side), ak, bar_loc(m, ins.if_pos)))

    for s in m.states:
        edges.append(
            Edge(
                bar_loc(m, s),
                (Atom("z", "=", -1, PARAM), Atom("t", ">", 0), Atom("t", "<", 0, PARAM)),
                "a_z",
                main_loc(m, s),
            )
        )

    return Pera(
        actions=SIGMA,
        parameters=(PARAM,),
        locations=tuple(locations),
        initial=main_loc(m, m.initial),
        edges=tuple(edges),
        invariants={loc: inv for loc in locations},
    )


def wrap_preservation(gadget: Pera) -> Pera:
    """The comparison harness around a gadget.

    A fresh start location branches three ways on any action: into the
    gadget (possible only for positive periods), into a free-running
    accepting loop (always), or into a second loop reachable only at
    period zero.  The halt location gets an unconditional way out, so a
    successfully finished simulation never blocks.
    """
    if "l_halt" not in gadget.locations:
        raise ModelError("gadget has no l_halt location; wrap the output of encode_core")
    for name in ("l_start", "l_acc1", "l_acc2"):
        if name in gadget.locations:
            raise ModelError(f"location {name!r} already present")
    edges = list(gadget.edges)
    for act, clk in SIGMA:
        edges.append(Edge("l_start", (Atom(clk, "=", 0), Atom(clk, "<", 0, PARAM)), act, gadget.initial))
        edges.append(Edge("l_start", (), act, "l_acc1"))
        edges.append(Edge("l_start", (Atom(clk, "=", 0), Atom(clk, "=", 0, PARAM)), act, "l_acc2"))
        edges.append(Edge("l_halt", (), act, "l_acc2"))
        edges.append(Edge("l_acc1", (), act, "l_acc1"))
        edges.append(Edge("l_acc2", (), act, "l_acc2"))
    return replace(
        gadget,
        locations=gadget.locations + ("l_start", "l_acc1", "l_acc2"),
        initial="l_start",
        edges=tuple(edges),
    )


def add_sink(a: Pera) -> Pera:
    """Escape hatch for exhausted simulations.

    Every intermediary location gets edges into a fresh sink, enabled
    exactly when the budget clock has expired at a tick boundary.  The
    tick clock reads either a full period or zero there depending on
    whether the blocked step was a zero test (which pins it to zero),
    so both readings are provided.
    """
    bars = [loc for loc in a.locations if loc.startswith("lbar_")]
    if not bars:
        raise ModelError("no intermediary locations; sink applies to encoded gadgets")
    if "l_sink" in a.locations:
        raise ModelError("l_sink already present")
    edges = list(a.edges)
    for bar in bars:
        for act, _ in SIGMA:
            edges.append(Edge(bar, (Atom("t", "=", 0, PARAM), Atom("z", "=", -1, PARAM)), act, "l_sink"))
            edges.append(Edge(bar, (Atom("t", "=", 0), Atom("z", "=", -1, PARAM)), act, "l_sink"))
    return replace(a, locations=a.locations + ("l_sink",), edges=tuple(edges))


def buchi_variant(a: Pera) -> Pera:
    """Acceptance marking plus a fresh self-loop action on the sink."""
    for need in ("l_sink", "l_acc1", "l_acc2"):
        if need not in a.locations:
            raise ModelError(f"{need!r} missing; build the wrapped+sink automaton first")
    return replace(
        a,
        actions=a.actions + (EXTRA_ACTION,),
        edges=a.edges + (Edge("l_sink", (), EXTRA_ACTION[0], "l_sink"),),
        accepting=frozenset({"l_acc1", "l_acc2", "l_sink"}),
    )


def safety_variant(a: Pera) -> Pera:
    """Sink entry relabeled with the fresh action, duplicates removed.

    Relabeling makes the sink visible in the word itself, which is what
    the prefix-language comparison keys on.
    """
    if "l_sink" not in a.locations:
        raise ModelError("l_sink missing; build the wrapped+sink automaton first")
    edges = (
        replace(e, action=EXTRA_ACTION[0]) if e.target == "l_sink" and e.source != "l_sink" else e
        for e in a.edges
    )
    return replace(a, actions=a.actions + (EXTRA_ACTION,), edges=tuple(dict.fromkeys(edges)))


VARIANTS = ("plain", "wrapped", "sink", "buchi", "safety")


def build(m: Machine, variant: str = "wrapped") -> Pera:
    if variant not in VARIANTS:
        raise ModelError(f"unknown variant {variant!r}; pick one of {', '.join(VARIANTS)}")
    a = encode_core(m)
    if variant == "plain":
        return a
    a = wrap_preservation(a)
    if variant == "wrapped":
        return a
    a = add_sink(a)
    if variant == "sink":
        return a
    return buchi_variant(a) if variant == "buchi" else safety_variant(a)


# -- deterministic schedule ----------------------------------------------

_ACTION_OF = {clk: act for act, clk in SIGMA}


@dataclass(frozen=True)
class Schedule:
    """A concrete replay script through the plain gadget encoding."""

    period: int
    steps: int
    script: tuple[tuple[Fraction, str, str], ...]   # (delay, action, target)


def derive_schedule(m: Machine, period: int) -> Schedule:
    """Forced run of the gadget encoding at a given integer period.

    Simulates the machine for as many steps as the budget (one less
    than the period) or the halting time allows, emitting the exact
    delays at which each wrap, instruction and return edge fires, then
    wraps on to the next tick so the last step is witnessed at t = 0.
    Each event is a candidate `(delay, priority, kind, clock)`: the
    earliest fires, wraps first on a tie, and resets `clock`.  The
    generator tracks clock values itself and fails loudly if the
    construction's timing story ever disagrees with it.
    """
    if period < 1:
        raise ModelError("schedule derivation needs a positive integer period")
    budget = period - 1
    p = Fraction(period)
    clocks = dict.fromkeys(("t", "x1", "x2", "z"), Fraction(0))
    script: list[tuple[Fraction, str, str]] = []
    state, c1, c2 = m.initial, 0, 0
    steps_done = rounds = settle_rounds = 0
    at_main = True
    while True:
        tick = clocks["t"] == 0 and clocks["x1"] < p and clocks["x2"] < p
        if tick and (clocks["x1"], clocks["x2"]) != (c1, c2):
            raise AssertionError(
                f"tick desync: clocks ({clocks['x1']},{clocks['x2']}) vs counters ({c1},{c2})"
            )
        ins = m.instruction(state)
        done = at_main and (steps_done == budget or ins is None)
        if done and tick:
            break
        if done:
            settle_rounds += 1
            if settle_rounds > 8:
                raise AssertionError("settling phase failed to reach a tick")
        else:
            rounds += 1
            if rounds > 20 * period * (budget + 2) + 100:
                raise AssertionError("schedule generator failed to converge")
        cand = [(p - clocks[clk], prio, "wrap", clk) for prio, clk in enumerate(("t", "x1", "x2"))]
        if not done and not at_main:
            cand.append(((p - 1) - clocks["z"], 3, "return", "z"))
        elif not done:
            xk = f"x{ins.counter}"
            if isinstance(ins, Inc):
                if clocks[xk] <= p - 1:
                    cand.append(((p - 1) - clocks[xk], 3, "step", xk))
            elif (c1 if ins.counter == 1 else c2) == 0:
                cand.append((-clocks["t"] % p, 3, "step", "t"))
            elif clocks[xk] <= 1:
                # past 1, the wrap of xk comes first
                cand.append((1 - clocks[xk], 3, "step", xk))
        delay, _, kind, clk = min(cand)
        if delay < 0:
            raise AssertionError(f"negative delay for the {kind} on {clk}")
        for c in clocks:
            clocks[c] += delay
        if kind == "wrap":
            # fires only when the clock really is at the period boundary
            if clocks[clk] != p:
                raise AssertionError("wrap scheduled off the boundary")
            target = main_loc(m, state) if at_main else bar_loc(m, state)
        elif kind == "return":
            if clocks["z"] != p - 1 or not 0 < clocks["t"] < p:
                raise AssertionError("return scheduled outside its window")
            target, at_main = main_loc(m, state), True
        else:
            if isinstance(ins, Inc):
                if clocks[xk] != p - 1:
                    raise AssertionError("increment scheduled off its firing value")
            elif clk == "t":
                if clocks["t"] not in (0, p):
                    raise AssertionError("zero test away from a tick")
                if clocks[xk] not in (0, p):
                    raise AssertionError("zero test with a nonzero counter clock")
            elif clocks[xk] != 1:
                raise AssertionError("decrement away from its firing value")
            elif clocks["t"] == 1:
                raise AssertionError("decrement at the forbidden tick offset")
            state, c1, c2 = machine_step(m, (state, c1, c2))
            steps_done += 1
            target, at_main = bar_loc(m, state), False
        clocks[clk] = Fraction(0)
        script.append((delay, _ACTION_OF[clk], target))
    return Schedule(period, steps_done, tuple(script))
