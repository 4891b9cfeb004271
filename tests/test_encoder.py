"""Machine-to-automaton construction: structure, naming, schedules."""

import hashlib
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from peralab.core import Atom, ModelError
from peralab.encoder import (
    SIGMA,
    VARIANTS,
    add_sink,
    buchi_variant,
    build,
    derive_schedule,
    encode_core,
    safety_variant,
    wrap_preservation,
)
from peralab.minsky import BENCHMARKS, Inc, Machine, TestDec, inc3, loop, parse_machine, trivial, trace
from peralab.semantics import concrete_simulate

from replay import settled_zero_instants


EXPECTED = {"inc3": (8, 31), "loop": (6, 25), "trivial": (2, 7)}


# -- gadget structure -----------------------------------------------------------


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_gadget_counts(name):
    m = BENCHMARKS[name]()
    a = encode_core(m)
    locs, edges = EXPECTED[name]
    assert len(a.locations) == locs == 2 * len(m.states)
    assert len(a.edges) == edges
    for loc in a.locations:
        loops = [e for e in a.edges if e.source == loc and e.target == loc]
        assert len(loops) == 3
        assert {e.action for e in loops} == {"a_t", "a_1", "a_2"}


def test_gadget_invariants_everywhere():
    a = encode_core(loop())
    for loc in a.locations:
        inv = a.invariant(loc)
        texts = {atom.text() for atom in inv}
        assert texts == {"t <= p", "x1 <= p", "x2 <= p", "z < p"}


def test_gadget_edge_actions_follow_instructions():
    a = encode_core(inc3())
    incs = [e for e in a.edges if e.source == "l_s0" and e.target == "lbar_s1"]
    assert len(incs) == 1 and incs[0].action == "a_1"
    assert Atom("x1", "=", -1, "p") in incs[0].guard
    rets = [e for e in a.edges if e.source == "lbar_s1" and e.target == "l_s1"]
    assert len(rets) == 1 and rets[0].action == "a_z"
    guard_texts = {atom.text() for atom in rets[0].guard}
    assert guard_texts == {"z = p-1", "t > 0", "t < p"}


def test_zero_test_and_decrement_edges():
    a = encode_core(loop())
    zt = [e for e in a.edges if e.source == "l_s1" and e.target == "lbar_s0" and e.action == "a_t"]
    assert len(zt) == 1
    assert {atom.text() for atom in zt[0].guard} == {"t = 0", "x2 = 0"}
    dec = [e for e in a.edges if e.source == "l_s1" and e.target == "lbar_s0" and e.action == "a_2"]
    assert len(dec) == 2  # the two halves of t != 1
    halves = {frozenset(atom.text() for atom in e.guard) for e in dec}
    assert halves == {
        frozenset({"x2 = 1", "t < 1"}),
        frozenset({"x2 = 1", "t > 1"}),
    }


def test_initial_location_and_halt_naming():
    a = encode_core(inc3())
    assert a.initial == "l_s0"
    assert "l_halt" in a.locations and "lbar_halt" in a.locations
    assert "l_sh" not in a.locations


def test_state_name_collisions_rejected():
    bad = Machine("m", ("halt", "h"), "halt", "h", (("halt", Inc(1, "h")),))
    with pytest.raises(ModelError):
        encode_core(bad)
    bad2 = Machine("m", ("start", "h"), "start", "h", (("start", Inc(1, "h")),))
    with pytest.raises(ModelError):
        encode_core(bad2)


# -- wrapper ---------------------------------------------------------------------


def test_wrapper_adds_three_locations_and_sigma_groups():
    g = encode_core(loop())
    w = wrap_preservation(g)
    assert set(w.locations) - set(g.locations) == {"l_start", "l_acc1", "l_acc2"}
    assert w.initial == "l_start"
    assert len(w.edges) == len(g.edges) + 6 * len(SIGMA)
    # entry group: x_a = 0 and x_a < p per action
    entry = [e for e in w.edges if e.source == "l_start" and e.target == "l_s0"]
    assert len(entry) == 4
    for e in entry:
        clock = dict(SIGMA)[e.action]
        assert {a.text() for a in e.guard} == {f"{clock} = 0", f"{clock} < p"}
    # escape to the second accepting location is unguarded from l_halt
    esc = [e for e in w.edges if e.source == "l_halt" and e.target == "l_acc2"]
    assert len(esc) == 4 and all(e.guard == () for e in esc)
    for acc in ("l_acc1", "l_acc2"):
        loops = [e for e in w.edges if e.source == acc and e.target == acc]
        assert len(loops) == 4 and all(e.guard == () for e in loops)
        assert w.invariant(acc) == ()


def test_wrapper_requires_gadget():
    with pytest.raises(ModelError):
        wrap_preservation(wrap_preservation(encode_core(loop())))


# -- sink and variants -------------------------------------------------------------


def test_sink_edges_come_in_two_flavors():
    w = wrap_preservation(encode_core(loop()))
    s = add_sink(w)
    inter = [l for l in w.locations if l.startswith("lbar_")]
    assert "l_sink" in s.locations
    new = [e for e in s.edges if e.target == "l_sink"]
    assert len(new) == 8 * len(inter)
    for src in inter:
        guards = {frozenset(a.text() for a in e.guard) for e in s.edges if e.source == src and e.target == "l_sink"}
        assert guards == {
            frozenset({"t = p", "z = p-1"}),
            frozenset({"t = 0", "z = p-1"}),
        }


def test_buchi_variant_marks_accepting_and_adds_loop():
    b = build(loop(), "buchi")
    assert ("a_3", "x3") in b.actions
    assert b.accepting == frozenset({"l_acc1", "l_acc2", "l_sink"})
    loops = [e for e in b.edges if e.source == "l_sink" and e.target == "l_sink"]
    assert len(loops) == 1 and loops[0].action == "a_3"


def test_safety_variant_relabels_and_dedups():
    s = build(loop(), "safety")
    sink_in = [e for e in s.edges if e.target == "l_sink" and e.source != "l_sink"]
    assert all(e.action == "a_3" for e in sink_in)
    inter = [l for l in s.locations if l.startswith("lbar_")]
    assert len(sink_in) == 2 * len(inter)
    assert s.accepting == frozenset()


def test_build_dispatch():
    for v in VARIANTS:
        a = build(inc3(), v)
        assert a.initial == ("l_s0" if v == "plain" else "l_start")
    with pytest.raises(ModelError):
        build(inc3(), "nonsense")


# -- schedules -----------------------------------------------------------------------


def check_replay(m, period):
    """The schedule replays on the gadget, and every settled tick instant
    of the replay shows the interpreter's counters on x1 and x2."""
    sch = derive_schedule(m, period)
    run = concrete_simulate(encode_core(m).valuate({"p": period}), sch.script)
    expected = list(trace(m, sch.steps))
    assert sch.steps == len(expected) - 1
    instants = settled_zero_instants(run)
    assert max(steps for steps, _, _ in instants) == sch.steps
    for steps, x1, x2 in instants:
        assert (x1, x2) == expected[steps][1:]


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
@pytest.mark.parametrize("period", [1, 2, 3, 4, 5, 6])
def test_schedule_replays_on_gadget(name, period):
    check_replay(BENCHMARKS[name](), period)


def test_schedule_step_budget():
    assert derive_schedule(loop(), 5).steps == 4
    assert derive_schedule(inc3(), 5).steps == 3   # halts before the budget
    assert derive_schedule(inc3(), 3).steps == 2   # budget cuts the run short
    assert derive_schedule(trivial(), 4).steps == 0


def test_schedule_rejects_bad_period():
    with pytest.raises(ModelError):
        derive_schedule(loop(), 0)


@st.composite
def machines(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    states = tuple(f"s{i}" for i in range(n)) + ("sh",)
    program = []
    for i in range(n):
        counter = draw(st.integers(min_value=1, max_value=2))
        t1 = draw(st.sampled_from(states))
        if draw(st.booleans()):
            program.append((f"s{i}", Inc(counter, t1)))
        else:
            t2 = draw(st.sampled_from(states))
            program.append((f"s{i}", TestDec(counter, t1, t2)))
    return Machine("rand", states, "s0", "sh", tuple(program))


@given(machines(), st.integers(min_value=1, max_value=5))
@settings(deadline=None, max_examples=60)
def test_schedule_replay_property(m, period):
    """Any derived schedule must replay cleanly and keep counters honest."""
    check_replay(m, period)


# -- pinned outputs ---------------------------------------------------------------
#
# SHA-256 digests of every bundled encoding and of a corpus of forced
# schedules.  They pin the exact output, so a change to how derived
# automata or schedules are built must leave every byte unchanged.

MACHINE_FILES = Path(__file__).resolve().parent.parent / "scripts" / "machines"
ENCODINGS_SHA256 = "b52d80d3d6cc3e3425f6aeaacc51c5f6b206e6f96df9595bc6e15e4676dda5ad"
SCHEDULES_SHA256 = "da3c8032f20d1513c73338708762e9956b4d34884447e8f279eedd10502947c8"


def bundled_machines():
    yield from (BENCHMARKS[name]() for name in sorted(BENCHMARKS))
    for path in sorted(MACHINE_FILES.glob("*.2cm")):
        yield parse_machine(path.read_text(), name=path.stem)


def test_encodings_pinned():
    h = hashlib.sha256()
    for m in bundled_machines():
        for v in VARIANTS:
            a = build(m, v)
            h.update(a.to_text().encode())
            for p in (0, 1, 2, 5):
                h.update(a.valuate({"p": p}).to_text().encode())
            h.update(a.rescale(3).valuate({"p": 7}).to_text().encode())
    assert h.hexdigest() == ENCODINGS_SHA256


def seeded_machine(rng):
    """A random machine of the `machines()` shape, drawn from `rng`."""
    n = rng.randint(1, 4)
    states = tuple(f"s{i}" for i in range(n)) + ("sh",)
    program = []
    for i in range(n):
        counter = rng.randint(1, 2)
        t1 = rng.choice(states)
        if rng.random() < 0.5:
            program.append((f"s{i}", Inc(counter, t1)))
        else:
            program.append((f"s{i}", TestDec(counter, t1, rng.choice(states))))
    return Machine("rand", states, "s0", "sh", tuple(program))


def test_schedules_pinned():
    rng = random.Random(13)
    pairs = [(BENCHMARKS[name](), p) for name in sorted(BENCHMARKS) for p in range(1, 7)]
    pairs += [(seeded_machine(rng), p) for _ in range(100) for p in range(1, 8)]
    h = hashlib.sha256()
    for m, period in pairs:
        sch = derive_schedule(m, period)
        h.update(f"{m.name} p={period} steps={sch.steps}\n".encode())
        for delay, action, target in sch.script:
            h.update(f"{delay} {action} {target}\n".encode())
    assert h.hexdigest() == SCHEDULES_SHA256
