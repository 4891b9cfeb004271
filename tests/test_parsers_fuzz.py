"""Both input parsers either parse or raise ModelError, on any input.

The CLI turns a ModelError into `error: ...` and exit 1; any other
exception type escaping a parser would end in a traceback instead.  An
automaton document that parses must also get through `lang`.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from peralab.cli import main
from peralab.core import ModelError, Pera
from peralab.minsky import parse_machine

scalars = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8)
json_values = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=16,
)


def either(valid):
    """A well-typed value seven times in eight, else any JSON value."""
    return st.integers(0, 7).flatmap(lambda r: valid if r else json_values)


def listed(entry):
    return either(st.lists(entry, max_size=3))


names = st.sampled_from(["l", "m"])
guards = st.sampled_from(["true", "", "x <= p", "x >= p + 1", "y < 2 && x >= 1", "x < q", "p <= x", "x > 3 &&"])
actions = st.fixed_dictionaries({"action": either(st.sampled_from(["a", "b"])),
                                 "clock": either(st.sampled_from(["x", "y"]))})
locations = st.fixed_dictionaries({"name": either(names)}, optional={"invariant": either(guards)})
edges = st.fixed_dictionaries(
    {"from": either(names), "action": either(st.sampled_from(["a", "b"])), "to": either(names)},
    optional={"guard": either(guards)},
)
documents = st.fixed_dictionaries(
    {"actions": listed(actions), "locations": listed(locations), "initial": either(names),
     "edges": listed(edges)},
    optional={"parameters": either(st.just(["p"])), "accepting": either(st.lists(names, max_size=2))},
)


@st.composite
def self_loops(draw):
    """One location with one self-loop, each name used the same way throughout.

    A name is any JSON scalar one time in four, used consistently, and a
    list now and then a bare value, so these documents pass the
    cross-reference checks and test what the parser lets through to the
    analysis.
    """
    act, clock, loc = (
        draw(st.integers(0, 3).flatmap(lambda r, n=n: st.just(n) if r else scalars))
        for n in ("a", "x", "l")
    )
    return {
        "actions": [{"action": act, "clock": clock}],
        "parameters": draw(either(st.sampled_from([[], ["p"]]))),
        "locations": [{"name": loc}],
        "initial": loc,
        "edges": [{"from": loc, "action": act, "to": loc}],
        "accepting": draw(either(st.just([loc]))),
    }


pera_texts = (documents | self_loops() | json_values).map(json.dumps) | st.text(max_size=40)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.pera"


@given(text=pera_texts)
@settings(deadline=None, max_examples=400)
def test_pera_parser_raises_only_model_error(doc_path, text):
    try:
        Pera.from_text(text)
    except ModelError:
        return
    doc_path.write_text(text)
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(["lang", str(doc_path), "-k", "1"])
    assert code in (0, 1)   # an answer or a model error, never a traceback


states = st.sampled_from(["s0", "s1", "sh", "x"])
counters = st.sampled_from(["1", "2", "3", "0"])
machine_lines = st.one_of(
    st.builds("init: {}".format, states),
    st.builds("halt: {}".format, states),
    st.builds("{}: inc c{} goto {}".format, states, counters, states),
    st.builds("{}: ifz c{} goto {} else dec goto {}".format, states, counters, states, states),
    st.lists(st.sampled_from(["init", "halt", ":", "inc", "ifz", "c1", "goto", "else", "dec",
                              "s0", "sh", "#"]), max_size=6).map(" ".join),
    st.text(max_size=20),
)


@given(st.lists(machine_lines, max_size=8), st.booleans())
@settings(deadline=None, max_examples=400)
def test_machine_parser_raises_only_model_error(lines, init_first):
    if init_first:
        lines = ["init: s0", *lines]
    try:
        parse_machine("\n".join(lines))
    except ModelError:
        pass
