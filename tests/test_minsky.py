"""Counter-machine model, interpreter, and text format."""

import pytest
from hypothesis import given, settings, strategies as st

from peralab.minsky import Inc, Machine, TestDec, parse_machine, run, start_config, step, trace
from peralab.core import ModelError

from machines import BENCHMARKS, inc3, loop, trivial


# -- benchmarks ----------------------------------------------------------------


def test_inc3_halts_with_three_zero():
    result = run(inc3(), 10)
    assert result.halted
    assert result.steps_taken == 3
    assert result.configs[-1] == ("sh", 3, 0)


def test_loop_never_halts():
    assert not run(loop(), 1000).halted
    result = run(loop(), 6)
    assert not result.halted
    assert len(result.configs) == 7
    states = [c[0] for c in result.configs]
    assert states == ["s0", "s1", "s0", "s1", "s0", "s1", "s0"]


def test_trivial_halts_immediately():
    result = run(trivial(), 5)
    assert result.halted and result.steps_taken == 0
    assert result.configs == (start_config(trivial()),)


def test_benchmarks_registry():
    assert set(BENCHMARKS) == {"inc3", "loop", "trivial"}


# -- step semantics -------------------------------------------------------------


def test_step_inc_and_testdec():
    m = Machine(
        name="m",
        states=("a", "b", "h"),
        initial="a",
        halt="h",
        program=(
            ("a", Inc(2, "b")),
            ("b", TestDec(2, "h", "a")),
        ),
    )
    c0 = start_config(m)
    c1 = step(m, c0)
    assert c1 == ("b", 0, 1)
    c2 = step(m, c1)          # c2 = 1 > 0: decrement branch
    assert c2 == ("a", 0, 0)
    c3 = step(m, c2)
    c4 = step(m, c3)          # now c2 = 1 again
    assert c4 == ("a", 0, 0)
    # zero branch
    mz = Machine("mz", ("b", "h"), "b", "h", (("b", TestDec(1, "h", "b")),))
    assert step(mz, start_config(mz)) == ("h", 0, 0)
    assert step(mz, ("h", 0, 0)) is None


def test_trace_is_bounded():
    assert len(list(trace(loop(), 4))) == 5
    assert len(list(trace(inc3(), 100))) == 4


# -- validation ------------------------------------------------------------------


def test_machine_validation():
    with pytest.raises(ModelError):
        Machine("m", ("a",), "a", "a", (("a", Inc(1, "a")),))  # halt has instruction
    with pytest.raises(ModelError):
        Machine("m", ("a", "h"), "a", "h", ())  # a lacks an instruction
    with pytest.raises(ModelError):
        Machine("m", ("a", "h"), "a", "h", (("a", Inc(3, "h")),))  # bad counter
    with pytest.raises(ModelError):
        Machine("m", ("a", "h"), "a", "h", (("a", Inc(1, "ghost")),))


# -- text format -----------------------------------------------------------------


def test_parse_shipped_machines_match_benchmarks():
    # states in reading order, the halt state last unless mentioned before
    assert inc3() == Machine(
        "inc3", ("s0", "s1", "s2", "sh"), "s0", "sh",
        (("s0", Inc(1, "s1")), ("s1", Inc(1, "s2")), ("s2", Inc(1, "sh"))),
    )
    assert loop() == Machine(
        "loop", ("s0", "s1", "sh"), "s0", "sh",
        (("s0", Inc(1, "s1")), ("s1", TestDec(2, "s0", "s0"))),
    )
    assert trivial() == Machine("trivial", ("s0",), "s0", "s0", ())


def test_parse_requires_init_first():
    with pytest.raises(ModelError):
        parse_machine("halt: h\ninit: a\na: inc c1 goto h\n")
    with pytest.raises(ModelError):
        parse_machine("a: inc c1 goto h\ninit: a\nhalt: h\n")


def test_parse_requires_halt():
    with pytest.raises(ModelError):
        parse_machine("init: a\na: inc c1 goto a\n")


def test_parse_rejects_duplicate_instruction():
    text = "init: a\nhalt: h\na: inc c1 goto h\na: inc c2 goto h\n"
    with pytest.raises(ModelError):
        parse_machine(text)


@pytest.mark.parametrize("text,lineno,kind", [
    ("init: s0\ninit: s1\nhalt: sh\ns0: inc c1 goto sh\ns1: inc c2 goto sh\n", 2, "init"),
    ("init: s0\nhalt: s1\nhalt: sh\ns0: inc c1 goto sh\n", 3, "halt"),
    ("# a comment\ninit: a\nhalt: h\na: inc c1 goto h\n\nhalt: h\n", 6, "halt"),
], ids=["init", "halt", "late-halt"])
def test_parse_rejects_a_repeated_header(text, lineno, kind):
    # the second header used to replace the first silently
    with pytest.raises(ModelError, match=f"^line {lineno}: a second '{kind}:' header$"):
        parse_machine(text)


def test_parse_rejects_bad_lines():
    with pytest.raises(ModelError):
        parse_machine("init: a\nhalt: h\na: jump h\n")
    with pytest.raises(ModelError):
        parse_machine("init: a\nhalt: h\na: inc c9 goto h\n")


def test_parse_ignores_comments_and_blanks():
    text = "# header\ninit: a\n\nhalt: h\n# body\na: ifz c1 goto h else dec goto h\n"
    m = parse_machine(text)
    assert m.initial == "a" and m.halt == "h"
    assert isinstance(m.instruction("a"), TestDec)


# -- properties -------------------------------------------------------------------


@st.composite
def machines(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    states = tuple(f"s{i}" for i in range(n)) + ("sh",)
    program = []
    for i in range(n):
        counter = draw(st.integers(min_value=1, max_value=2))
        kind = draw(st.booleans())
        t1 = draw(st.sampled_from(states))
        if kind:
            program.append((f"s{i}", Inc(counter, t1)))
        else:
            t2 = draw(st.sampled_from(states))
            program.append((f"s{i}", TestDec(counter, t1, t2)))
    return Machine("rand", states, "s0", "sh", tuple(program))


@given(machines(), st.integers(min_value=0, max_value=30))
@settings(deadline=None, max_examples=100)
def test_interpreter_deterministic_and_monotone(m, budget):
    r1 = run(m, budget)
    r2 = run(m, budget)
    assert r1.configs == r2.configs and r1.halted == r2.halted
    longer = run(m, budget + 5)
    assert longer.configs[: len(r1.configs)] == r1.configs
    if r1.halted:
        assert longer.halted and longer.steps_taken == r1.steps_taken
    assert len(r1.configs) <= budget + 1


@given(machines())
@settings(deadline=None, max_examples=100)
def test_counters_stay_nonnegative(m):
    for state, c1, c2 in trace(m, 25):
        assert c1 >= 0 and c2 >= 0
        assert state in m.states
