"""Two-counter machines: model, simulator, and a small text format.

A machine has finitely many states; every state except the designated
halt state carries exactly one instruction, either an increment or a
combined zero-test/decrement.  Execution is deterministic.
"""

from __future__ import annotations

import re
from collections import namedtuple
from typing import Iterator

from .core import ModelError


class Inc(namedtuple("Inc", "counter goto")):
    __slots__ = ()


class TestDec(namedtuple("TestDec", "counter if_zero if_pos")):
    __slots__ = ()
    __test__ = False   # keep pytest from collecting this as a test class


Instruction = Inc | TestDec


class Machine(namedtuple("Machine", "name states initial halt program")):
    """`program` pairs each state but `halt` with its instruction; the constructor validates.

    No `__slots__`: instances keep the program by state in `_by_state`,
    an attribute outside the fields, so `repr` and `==` ignore it.
    """

    def __new__(
        cls,
        name: str,
        states: tuple[str, ...],
        initial: str,
        halt: str,
        program: tuple[tuple[str, Instruction], ...],
    ) -> Machine:
        declared = set(states)
        if len(declared) != len(states):
            raise ModelError("duplicate state names")
        if initial not in declared or halt not in declared:
            raise ModelError("initial/halt state not declared")
        prog = dict(program)
        if len(prog) != len(program):
            raise ModelError("state has two instructions")
        if halt in prog:
            raise ModelError("halt state cannot carry an instruction")
        for st in states:
            if st != halt and st not in prog:
                raise ModelError(f"state {st!r} has no instruction")
        for st, ins in program:
            if st not in declared:
                raise ModelError(f"instruction on undeclared state {st!r}")
            if ins.counter not in (1, 2):
                raise ModelError("counters are numbered 1 and 2")
            targets = [ins.goto] if isinstance(ins, Inc) else [ins.if_zero, ins.if_pos]
            for t in targets:
                if t not in declared:
                    raise ModelError(f"goto target {t!r} not declared")
        self = super().__new__(cls, name, states, initial, halt, program)
        self._by_state = prog
        return self

    def instruction(self, state: str) -> Instruction | None:
        return self._by_state.get(state)


Config = tuple[str, int, int]


def start_config(m: Machine) -> Config:
    return (m.initial, 0, 0)


def step(m: Machine, cfg: Config) -> Config | None:
    """One execution step; None when the configuration is halted."""
    state, c1, c2 = cfg
    ins = m.instruction(state)
    if ins is None:
        return None
    if isinstance(ins, Inc):
        if ins.counter == 1:
            return (ins.goto, c1 + 1, c2)
        return (ins.goto, c1, c2 + 1)
    val = c1 if ins.counter == 1 else c2
    if val == 0:
        return (ins.if_zero, c1, c2)
    if ins.counter == 1:
        return (ins.if_pos, c1 - 1, c2)
    return (ins.if_pos, c1, c2 - 1)


def trace(m: Machine, max_steps: int) -> Iterator[Config]:
    """Configurations visited, starting config included, halting early."""
    cfg: Config | None = start_config(m)
    yield cfg
    for _ in range(max_steps):
        cfg = step(m, cfg)
        if cfg is None:
            return
        yield cfg


class RunResult(namedtuple("RunResult", "configs halted")):
    """The configurations a run visited, and whether it ended halted."""

    __slots__ = ()

    @property
    def steps_taken(self) -> int:
        return len(self.configs) - 1


def run(m: Machine, max_steps: int) -> RunResult:
    configs = tuple(trace(m, max_steps))
    halted = m.instruction(configs[-1][0]) is None
    return RunResult(configs, halted)


# -- text format -------------------------------------------------------
#
#   # comment
#   init: STATE          (required once, first non-comment line)
#   halt: STATE          (required once)
#   STATE: inc cK goto STATE
#   STATE: ifz cK goto STATE else dec goto STATE
#
# Every state mentioned in a header or instruction is declared by it.

_HEAD_RE = re.compile(r"^(init|halt)\s*:\s*(\w+)$")
_INC_RE = re.compile(r"^(\w+)\s*:\s*inc\s+c([12])\s+goto\s+(\w+)$")
_TEST_RE = re.compile(r"^(\w+)\s*:\s*ifz\s+c([12])\s+goto\s+(\w+)\s+else\s+dec\s+goto\s+(\w+)$")


def parse_machine(text: str, name: str = "machine") -> Machine:
    initial = halt = None
    program: list[tuple[str, Instruction]] = []
    order: list[str] = []

    def declare(st: str) -> None:
        if st not in order:
            order.append(st)

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _HEAD_RE.match(line)
        if initial is None:
            if not (m and m.group(1) == "init"):
                raise ModelError(f"line {lineno}: first line must be 'init: STATE'")
        if m:
            if {"init": initial, "halt": halt}[m.group(1)] is not None:
                raise ModelError(f"line {lineno}: a second '{m.group(1)}:' header")
            if m.group(1) == "init":
                initial = m.group(2)
                declare(initial)
            else:
                # declared at the end unless the program mentions it first,
                # so state order mirrors the natural reading of the file
                halt = m.group(2)
            continue
        m = _INC_RE.match(line)
        if m:
            st, k, tgt = m.group(1), int(m.group(2)), m.group(3)
            declare(st)
            declare(tgt)
            program.append((st, Inc(k, tgt)))
            continue
        m = _TEST_RE.match(line)
        if m:
            st, k, z, p = m.group(1), int(m.group(2)), m.group(3), m.group(4)
            declare(st)
            declare(z)
            declare(p)
            program.append((st, TestDec(k, z, p)))
            continue
        raise ModelError(f"line {lineno}: cannot parse {raw!r}")
    if initial is None or halt is None:
        raise ModelError("need both an init: and a halt: header")
    declare(halt)
    return Machine(name, tuple(order), initial, halt, tuple(program))

