"""The forced run of the gadget encoding, as a concrete replay script.

`derive_schedule` simulates the machine and emits the exact delays at
which each edge of the `plain` encoding fires, so the tests can replay
it with `replay.concrete_simulate`, the concrete reference, and read
the counters back off the clocks with `replay.settled_zero_instants`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from peralab.core import ModelError
from peralab.encoder import SIGMA, bar_loc, main_loc
from peralab.minsky import Inc, Machine, step as machine_step

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
