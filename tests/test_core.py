"""Model layer: atoms, guards, automaton structure, serialization."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from peralab import core, zones as Z
from peralab.core import (
    Atom,
    Edge,
    ModelError,
    Pera,
    UnsatisfiableAtom,
    guard_text,
    parse_atom,
    parse_guard,
    parse_valuation,
)
from peralab.encoder import VARIANTS, build
from peralab.language import CompareResult
from peralab.semantics import Analyzer

from machines import load, loop

CLOCKS = ("t", "x1", "x2", "z")


def tiny_automaton(**overrides):
    fields = dict(
        actions=(("a", "x"), ("b", "y")),
        parameters=("p",),
        locations=("l0", "l1"),
        initial="l0",
        edges=(
            Edge("l0", (Atom("x", "=", 1),), "a", "l1"),
            Edge("l1", (Atom("y", "<", 0, "p"),), "b", "l0"),
        ),
        invariants={"l0": (Atom("x", "<=", 0, "p"),)},
    )
    fields.update(overrides)
    return Pera(**fields)


# -- atoms ----------------------------------------------------------------


def test_atom_text_and_parse_round_trip():
    cases = [
        Atom("x", "<=", 3),
        Atom("x", "<", 0),
        Atom("t", "=", 0, "p"),
        Atom("z", ">=", -1, "p"),
        Atom("x1", ">", 2, "p"),
    ]
    for atom in cases:
        assert parse_atom(atom.text(), ("p",)) == atom


def test_parse_atom_rejects_junk():
    for bad in ("x", "x ! 3", "<= 3", "x <= p+q", "x <= -2"):
        with pytest.raises(ModelError):
            parse_atom(bad, ("p",))


def test_parse_guard_true_is_empty():
    assert parse_guard("true", ()) == ()
    assert guard_text(()) == "true"


def test_guard_text_joins_atoms():
    g = (Atom("x", "=", 0), Atom("x", "<", 0, "p"))
    assert guard_text(g) == "x = 0 && x < p"
    assert parse_guard(guard_text(g), ("p",)) == g


def test_atom_valuate_constant_and_offset():
    assert Atom("x", "<=", 1, "p").valuate({"p": 3}) == Atom("x", "<=", 4)
    assert Atom("x", "=", -1, "p").valuate({"p": 3}) == Atom("x", "=", 2)
    assert Atom("x", "<", 0).valuate({"p": 3}) == Atom("x", "<", 0)


def test_atom_valuate_negative_bound():
    with pytest.raises(UnsatisfiableAtom):
        Atom("x", "=", -1, "p").valuate({"p": 0})
    # trivially true atoms collapse to the nonnegativity stand-in
    assert Atom("x", ">=", -2, "p").valuate({"p": 1}) == Atom("x", ">=", 0)


def test_atom_text_names_a_constant_too_long_to_print_by_its_size():
    # 10^5000 has more digits than Python turns into a string by default
    big = 10 ** 5000
    assert Atom("x", "<=", big).text() == "x <= <16610-bit number>"
    assert Atom("x", "<", big, "p").text() == "x < p+<16610-bit number>"
    with pytest.raises(UnsatisfiableAtom, match=r"^atom x = p-<16610-bit number> is unsatisfiable"):
        Atom("x", "=", -big, "p").valuate({"p": 1})


def test_atom_valuate_strict_zero_stays():
    # x < 0 is unsatisfiable for clocks but stays representable, which
    # keeps locations with such invariants legal (just uninhabitable)
    assert Atom("x", "<", 0, "p").valuate({"p": 0}) == Atom("x", "<", 0)


@given(
    clock=st.sampled_from(CLOCKS),
    rel=st.sampled_from(("<", "<=", "=", ">=", ">")),
    offset=st.integers(min_value=-6, max_value=6),
    param=st.sampled_from((None, "p", "q")),
)
def test_atom_text_parse_property(clock, rel, offset, param):
    if param is None and offset < 0:
        return
    atom = Atom(clock, rel, offset, param)
    assert parse_atom(atom.text(), ("p", "q")) == atom


# -- automaton structure ---------------------------------------------------


def test_pera_accessors():
    a = tiny_automaton()
    assert a.alphabet == ("a", "b")
    assert a.clocks == ("x", "y")
    assert a.clock_of("b") == "y"
    with pytest.raises(ModelError):
        a.clock_of("zz")
    assert a.invariant("l1") == ()


def test_validate_rejects_bad_structure():
    # one case per check of `Pera.validate`, run by the constructor; the unknown
    # names in guards and invariants are `test_validate_names_the_guard_of_an_unknown_name`
    cases = [
        ({"actions": (("a", "x"), ("b", "x"))}, "action/clock map is not a bijection"),
        ({"actions": (("a", "b"), ("b", "y"))}, "action names and clock names overlap"),
        ({"locations": ("l0", "l0", "l1")}, "duplicate location names"),
        ({"initial": "nowhere"}, "initial location 'nowhere' not declared"),
        ({"accepting": frozenset({"ghost"})}, "accepting set mentions undeclared locations"),
        ({"invariants": {"ghost": (Atom("x", "<=", 1),)}}, "invariant for undeclared location 'ghost'"),
        ({"edges": (Edge("ghost", (), "a", "l1"),)}, "edge endpoints undeclared: ghost --[true] a--> l1"),
        ({"edges": (Edge("l0", (), "a", "nowhere"),)}, "edge endpoints undeclared: l0 --[true] a--> nowhere"),
        ({"edges": (Edge("l0", (), "zz", "l1"),)}, "edge action undeclared: l0 --[true] zz--> l1"),
    ]
    for overrides, message in cases:
        with pytest.raises(ModelError) as err:
            tiny_automaton(**overrides)
        assert str(err.value) == message


def test_validate_names_the_guard_of_an_unknown_name():
    with pytest.raises(ModelError) as err:
        tiny_automaton(edges=(Edge("l0", (Atom("w", "<=", 1),), "a", "l1"),))
    assert str(err.value) == "unknown clock 'w' in guard of l0 --[w <= 1] a--> l1"
    with pytest.raises(ModelError) as err:
        tiny_automaton(edges=(Edge("l0", (Atom("x", "<=", 1, "q"),), "a", "l1"),))
    assert str(err.value) == "unknown parameter 'q' in guard of l0 --[x <= q+1] a--> l1"
    with pytest.raises(ModelError) as err:
        tiny_automaton(invariants={"l1": (Atom("w", "<=", 1),)})
    assert str(err.value) == "unknown clock 'w' in invariant of l1"
    with pytest.raises(ModelError) as err:
        tiny_automaton(invariants={"l0": (Atom("x", "<=", 1, "q"),)})
    assert str(err.value) == "unknown parameter 'q' in invariant of l0"


@pytest.mark.parametrize("args, message", [
    (("x", "<>", 1), "unknown relation '<>'"),
    (("x", "<", -1), "negative constant bound in x < -1"),
])
def test_the_atom_constructor_validates(args, message):
    with pytest.raises(ModelError) as err:
        Atom(*args)
    assert str(err.value) == message


def test_a_derived_automaton_is_one_the_constructor_accepts():
    """Deriving skips validation, so each automaton the encoder, `valuate` and `rescale` derive
    from the bundled machines is rebuilt here by the constructor, which must raise nothing and
    give back an equal automaton."""
    for name in ("inc3", "loop", "halt"):
        for variant in VARIANTS:
            a = build(load(name), variant)
            derived = [a, a.rescale(2)]
            derived += [a.valuate({"p": p}, scale=s) for s in (1, 2, 3, 6) for p in (0, 1, 2, 5)]
            for b in derived:
                assert Pera(*b) == b, (name, variant)


def test_records_are_immutable():
    a = tiny_automaton()
    for record, field in [(a, "initial"), (a.edges[0], "action"), (a.edges[0].guard[0], "offset"),
                          (CompareResult(True), "equal")]:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


def test_records_keep_their_repr():
    edge = Edge("l0", (Atom("x", "=", 1),), "a", "l1")
    assert repr(edge.guard[0]) == "Atom(clock='x', rel='=', offset=1, param=None)"
    assert repr(edge) == (
        "Edge(source='l0', guard=(Atom(clock='x', rel='=', offset=1, param=None),), action='a', target='l1')"
    )
    assert repr(CompareResult(False, "prefix", ("a",), "left")) == (
        "CompareResult(equal=False, field='prefix', witness=('a',), owner='left', counts=None)"
    )


def test_valid_construction_formats_no_edge(monkeypatch):
    """Building, valuating and rescaling a valid automaton never calls `Edge.text`."""
    text = build(loop(), "buchi").to_text()
    calls = []
    monkeypatch.setattr(Edge, "text", lambda self: calls.append(self))
    Pera.from_text(text).valuate({"p": 61}).rescale(3)
    assert calls == []


def test_valuate_drops_unsatisfiable_edges():
    a = tiny_automaton(
        edges=(
            Edge("l0", (Atom("x", "=", -1, "p"),), "a", "l1"),
            Edge("l1", (), "b", "l0"),
        )
    )
    v = a.valuate({"p": 0})
    assert len(v.edges) == 1
    assert v.parameters == ()
    assert v.invariant("l0") == (Atom("x", "<=", 0),)


def test_valuate_keeps_trivial_invariant_stand_in():
    # x >= p-3 at p = 1 holds for every clock value, and stays as x >= 0
    a = Pera(
        actions=(("a", "x"),),
        parameters=("p",),
        locations=("l0",),
        initial="l0",
        edges=(),
        invariants={"l0": (Atom("x", ">=", -3, "p"),)},
    )
    assert a.valuate({"p": 1}).to_text() == """{
  "actions": [
    {
      "action": "a",
      "clock": "x"
    }
  ],
  "parameters": [],
  "locations": [
    {
      "name": "l0",
      "invariant": "x >= 0"
    }
  ],
  "initial": "l0",
  "accepting": [],
  "edges": []
}
"""


def test_valuate_requires_all_parameters():
    with pytest.raises(ModelError):
        tiny_automaton().valuate({})


def test_rescale_multiplies_offsets():
    a = tiny_automaton()
    b = a.rescale(3)
    assert b.edges[0].guard[0].offset == 3
    assert b.invariant("l0")[0].offset == 0
    assert b.max_constant() == max(3, a.max_constant() * 3)


def valuated_or_error(valuate):
    """The valuated automaton, or the type and text of the `ModelError` that valuating or
    building its `Analyzer` (which checks every constant against `MAX_BOUND`) raises."""
    try:
        va = valuate()
        Analyzer(va)
        return va
    except ModelError as e:
        return type(e), str(e)


def test_valuate_with_a_scale_is_rescale_then_valuate():
    # every bundled encoding, and one whose invariant `x <= p-2` is unsatisfiable at p < 2/s
    automata = [build(load(name), variant) for name in ("loop", "inc3", "halt") for variant in VARIANTS]
    automata.append(tiny_automaton(invariants={"l1": (Atom("x", "<=", -2, "p"),)}))
    seen = set()
    for a in automata:
        for scale in (1, 2, 3, 6):
            for p in (0, 1, 2, 5, Z.MAX_BOUND, Z.MAX_BOUND + 1):
                got = valuated_or_error(lambda: a.valuate({"p": p}, scale=scale))
                assert got == valuated_or_error(lambda: a.rescale(scale).valuate({"p": p})), (scale, p)
                seen.add(Pera if isinstance(got, Pera) else got[0])
    assert seen == {Pera, UnsatisfiableAtom, ModelError}


def test_valuate_rejects_a_scale_below_one():
    with pytest.raises(ModelError, match="scale factor must be positive"):
        tiny_automaton().valuate({"p": 1}, scale=0)


def test_max_constant_covers_guards_and_invariants():
    a = tiny_automaton(
        edges=(Edge("l0", (Atom("x", "<=", 4),), "a", "l1"),),
        invariants={"l1": (Atom("y", "<", 7),)},
    )
    assert a.max_constant() == 7


def test_serialization_round_trip():
    a = tiny_automaton(accepting=frozenset({"l1"}))
    b = Pera.from_text(a.to_text())
    assert a == b


def test_from_text_rejects_garbage():
    with pytest.raises(ModelError):
        Pera.from_text("not json")
    with pytest.raises(ModelError):
        Pera.from_text("{}")


@pytest.mark.parametrize("name", ["loop", "inc3", "halt"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_every_encoding_round_trips_through_text(name, variant):
    a = build(load(name), variant)
    for b in (a, a.rescale(2), a.valuate({"p": 2})):
        assert Pera.from_text(b.to_text()) == b


# -- one parse and one valuation per distinct guard -------------------------------


RING = 6   # locations l0 ... l5, with one edge from each to the next


def ring_document(guards, invariant="true"):
    """A ring whose edge i carries `guards[i % len(guards)]`; every location has `invariant`."""
    return json.dumps({
        "actions": [{"action": "a", "clock": "x"}, {"action": "b", "clock": "y"}],
        "parameters": ["p"],
        "locations": [{"name": f"l{i}", "invariant": invariant} for i in range(RING)],
        "initial": "l0",
        "edges": [{"from": f"l{i}", "guard": guards[i % len(guards)], "action": "ab"[i % 2],
                   "to": f"l{(i + 1) % RING}"} for i in range(RING)],
    })


def test_a_repeated_guard_text_is_parsed_once_as_it_would_be_per_edge(monkeypatch):
    guards = ["x <= p+1 && y > 2", "true", "y >= p-1"]
    per_edge = Pera(
        actions=(("a", "x"), ("b", "y")),
        parameters=("p",),
        locations=tuple(f"l{i}" for i in range(RING)),
        initial="l0",
        edges=tuple(Edge(f"l{i}", parse_guard(guards[i % 3], ("p",)), "ab"[i % 2], f"l{(i + 1) % RING}")
                    for i in range(RING)),
        invariants=dict.fromkeys((f"l{i}" for i in range(RING)), parse_guard("x <= p", ("p",))),
    )
    texts = []
    monkeypatch.setattr(core, "parse_guard", lambda text, params: texts.append(text) or parse_guard(text, params))
    a = Pera.from_text(ring_document(guards, "x <= p"))
    assert a == per_edge
    assert sorted(texts) == sorted(guards + ["x <= p"])
    assert a.edges[0].guard is a.edges[3].guard


def test_each_distinct_guard_is_valuated_once(monkeypatch):
    a = Pera.from_text(ring_document(["x <= p+1 && y > 2", "true", "y >= p-1"], invariant="x <= p"))
    valuated = []
    valuate = Atom.valuate
    monkeypatch.setattr(Atom, "valuate", lambda atom, values: valuated.append(atom) or valuate(atom, values))
    v = a.valuate({"p": 3})
    assert valuated == [Atom("x", "<=", 1, "p"), Atom("y", ">", 2), Atom("y", ">=", -1, "p"),
                        Atom("x", "<=", 0, "p")]   # the one invariant, shared by every location
    assert set(v.invariants.values()) == {(Atom("x", "<=", 3),)}
    assert [e.guard for e in v.edges] == [
        (Atom("x", "<=", 4), Atom("y", ">", 2)), (), (Atom("y", ">=", 2),)] * 2
    assert v.edges[1] is a.edges[1] and v.edges[4] is a.edges[4]    # no parameter: kept as it is


def test_an_unsatisfiable_shared_guard_drops_every_edge_that_shares_it():
    a = Pera.from_text(ring_document(["x = p-1", "x = p-1", "y <= 3"]))
    assert [e.source for e in a.valuate({"p": 0}).edges] == ["l2", "l5"]
    assert len(a.valuate({"p": 1}).edges) == RING


def test_an_unsatisfiable_invariant_still_raises_when_a_guard_shares_it():
    a = Pera.from_text(ring_document(["x = p-1"], invariant="x = p-1"))
    with pytest.raises(UnsatisfiableAtom):
        a.valuate({"p": 0})


# -- valuations -------------------------------------------------------------


def test_parse_valuation():
    vals = parse_valuation(["p=2", "q=1/3"])
    assert vals == {"p": Fraction(2), "q": Fraction(1, 3)}
    with pytest.raises(ModelError):
        parse_valuation(["p"])
    with pytest.raises(ModelError):
        parse_valuation(["p=one"])
    with pytest.raises(ModelError, match="expected NAME=VALUE"):
        parse_valuation([" =1"])
    with pytest.raises(ModelError, match="zero denominator"):
        parse_valuation(["p=1/0"])


def test_parse_valuation_rejects_a_repeated_name():
    with pytest.raises(ModelError, match="'p' is given more than once"):
        parse_valuation(["p=1", " p =2"])
