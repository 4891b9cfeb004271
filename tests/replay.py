"""Concrete replay of a valuated automaton, and its reading as counters.

`concrete_simulate` replays an explicit delay/action script with exact
rational arithmetic, and `settled_zero_instants` reads a replay of a
counter-machine encoding back as counters.  This is the reference that
the schedule and acceptance checks replay: it evaluates every atom
itself and shares no code with the symbolic engine in
`peralab.semantics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from peralab.core import Atom, Edge, Guard, ModelError, Pera


class SimulationError(ValueError):
    """A script step could not be replayed; carries the failing index."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"step {index}: {reason}")
        self.index = index
        self.reason = reason


def atom_holds(atom: Atom, val: Mapping[str, Fraction]) -> bool:
    v = val[atom.clock]
    c = atom.offset
    return {
        "<": v < c,
        "<=": v <= c,
        "=": v == c,
        ">=": v >= c,
        ">": v > c,
    }[atom.rel]


def guard_holds(guard: Guard, val: Mapping[str, Fraction]) -> bool:
    return all(atom_holds(a, val) for a in guard)


ScriptStep = tuple[Fraction | int, str, str]      # (delay, action, target location)


@dataclass(frozen=True)
class RunStep:
    delay: Fraction
    edge: Edge
    valuation: tuple[Fraction, ...]   # clock values right after the discrete step


@dataclass(frozen=True)
class Run:
    clocks: tuple[str, ...]
    steps: tuple[RunStep, ...]
    final_location: str

    @property
    def untimed_word(self) -> tuple[str, ...]:
        return tuple(s.edge.action for s in self.steps)

    @property
    def timed_word(self) -> tuple[tuple[str, Fraction], ...]:
        out = []
        now = Fraction(0)
        for s in self.steps:
            now += s.delay
            out.append((s.edge.action, now))
        return tuple(out)


def concrete_simulate(a: Pera, script: Sequence[ScriptStep]) -> Run:
    """Replay an explicit script from the initial state.

    Every delay is checked against the location invariant at both ends
    (invariants are convex, so the whole delay is covered), and every
    discrete step must match exactly one satisfiable edge with the
    scripted action and target.
    """
    if a.parameters:
        raise ModelError("automaton still has parameters; valuate it first")
    clocks = a.clocks
    val: dict[str, Fraction] = {c: Fraction(0) for c in clocks}
    loc = a.initial
    if not guard_holds(a.invariant(loc), val):
        raise SimulationError(0, "initial state violates its invariant")
    steps: list[RunStep] = []
    for idx, (delay, action, target) in enumerate(script):
        d = Fraction(delay)
        if d < 0:
            raise SimulationError(idx, "negative delay")
        after = {c: v + d for c, v in val.items()}
        if not guard_holds(a.invariant(loc), after):
            raise SimulationError(idx, f"delay {d} leaves the invariant of {loc}")
        fired = None
        for e in a.edges:
            if e.source != loc or e.action != action or e.target != target:
                continue
            if not guard_holds(e.guard, after):
                continue
            if fired is not None:
                raise SimulationError(idx, "ambiguous edge choice")
            fired = e
        if fired is None:
            raise SimulationError(idx, f"no fireable {action} edge {loc} -> {target}")
        after[a.clock_of(action)] = Fraction(0)
        if not guard_holds(a.invariant(target), after):
            raise SimulationError(idx, f"target invariant of {target} violated")
        val = after
        loc = target
        steps.append(RunStep(d, fired, tuple(val[c] for c in clocks)))
    return Run(tuple(clocks), tuple(steps), loc)


def settled_zero_instants(run_):
    """(machine steps done, x1, x2) at each settled instant showing t = 0.

    An instant is settled once the last zero-delay step at that absolute
    time has fired.  Machine steps are counted by main-to-intermediary
    edges.
    """
    idx = {c: i for i, c in enumerate(run_.clocks)}
    out = []
    steps_done = 0
    if not run_.steps or run_.steps[0].delay > 0:
        out.append((0, Fraction(0), Fraction(0)))
    for i, st in enumerate(run_.steps):
        src, dst = st.edge.source, st.edge.target
        if src.startswith("l_") and dst.startswith("lbar_"):
            steps_done += 1
        settled = i + 1 == len(run_.steps) or run_.steps[i + 1].delay > 0
        if settled and st.valuation[idx["t"]] == 0:
            out.append((steps_done, st.valuation[idx["x1"]], st.valuation[idx["x2"]]))
    return out
