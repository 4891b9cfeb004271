"""Data model for parametric event-recording automata.

An automaton here couples every action with a dedicated clock that is
reset exactly when the action fires.  Guards and invariants are
conjunctions of atoms `clock <rel> bound`, where the bound is either an
integer or `parameter + integer`.  Substituting integers for parameters
yields a plain event-recording automaton that the analysis modules
consume.
"""

from __future__ import annotations

import json
import re
from collections import namedtuple
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

RELATIONS = ("<", "<=", "=", ">=", ">")


class ModelError(ValueError):
    """Raised for structurally invalid automata or malformed text."""


def number_text(c: int) -> str:
    """`c` in decimal, or its size when it has more digits than Python prints."""
    try:
        return str(c)
    except ValueError:
        return f"<{c.bit_length()}-bit number>"


class Atom(namedtuple("Atom", "clock rel offset param")):
    """One comparison `clock rel (param + offset)` or `clock rel offset`.

    `param` is None for constant bounds.  Offsets may be negative only
    when a parameter is present (a clock is never below a negative
    constant, so such an atom would be vacuous or unsatisfiable).
    """

    __slots__ = ()

    def __new__(cls, clock: str, rel: str, offset: int, param: str | None = None) -> Atom:
        if rel not in RELATIONS:
            raise ModelError(f"unknown relation {rel!r}")
        self = super().__new__(cls, clock, rel, offset, param)
        if param is None and offset < 0:
            raise ModelError(f"negative constant bound in {self.text()}")
        return self

    def text(self) -> str:
        if self.param is None:
            rhs = number_text(self.offset)
        elif self.offset == 0:
            rhs = self.param
        elif self.offset > 0:
            rhs = f"{self.param}+{number_text(self.offset)}"
        else:
            rhs = f"{self.param}-{number_text(-self.offset)}"
        return f"{self.clock} {self.rel} {rhs}"

    def valuate(self, values: Mapping[str, int]) -> "Atom":
        """Substitute parameter values, producing a constant atom."""
        if self.param is None:
            return self
        if self.param not in values:
            raise ModelError(f"no value for parameter {self.param!r}")
        bound = values[self.param] + self.offset
        if bound < 0:
            # Clocks are nonnegative, so the atom is decided outright.
            # Keep a canonical stand-in the caller can recognize.
            if self.rel in ("<", "<=", "="):
                raise UnsatisfiableAtom(self)
            return Atom(self.clock, ">=", 0)
        return Atom(self.clock, self.rel, bound)


class UnsatisfiableAtom(ModelError):
    """A valuated atom can never hold (negative upper bound)."""

    def __init__(self, atom: Atom):
        super().__init__(f"atom {atom.text()} is unsatisfiable after valuation")
        self.atom = atom


Guard = tuple[Atom, ...]


class Edge(namedtuple("Edge", "source guard action target")):
    """One transition, `source --[guard] action--> target`."""

    __slots__ = ()

    def text(self) -> str:
        return f"{self.source} --[{guard_text(self.guard)}] {self.action}--> {self.target}"


def guard_text(guard: Guard) -> str:
    if not guard:
        return "true"
    return " && ".join(a.text() for a in guard)


_ATOM_RE = re.compile(
    r"^\s*([A-Za-z_]\w*)\s*(<=|>=|=|<|>)\s*"
    r"(?:([A-Za-z_]\w*)\s*([+-])\s*(\d+)|([A-Za-z_]\w*)|(\d+))\s*$"
)


def parse_atom(text: str, parameters: Iterable[str]) -> Atom:
    m = _ATOM_RE.match(text)
    if not m:
        raise ModelError(f"cannot parse atom {text!r}")
    clock, rel, p1, sign, off, p2, const = m.groups()
    params = set(parameters)
    if const is not None:
        return Atom(clock, rel, int(const))
    name = p1 if p1 is not None else p2
    if name not in params:
        raise ModelError(f"unknown parameter {name!r} in {text!r}")
    offset = 0 if p1 is None else (int(off) if sign == "+" else -int(off))
    return Atom(clock, rel, offset, name)


def parse_guard(text: str, parameters: Iterable[str]) -> Guard:
    if not isinstance(text, str):
        raise ModelError(f"expected a guard string, got {text!r}")
    text = text.strip()
    if text in ("", "true"):
        return ()
    return tuple(parse_atom(part, parameters) for part in text.split("&&"))


class Pera(namedtuple("Pera", "actions parameters locations initial edges invariants accepting")):
    """A parametric event-recording automaton.

    `actions` maps each action to its clock; the map must be a
    bijection.  `invariants` gives every location a guard over the
    clocks (empty tuple means `true`).  `accepting` is used only by the
    omega-acceptance analysis and may be empty.

    The record is a named tuple.  Its constructor trims empty invariants
    and validates; `valuate`, `rescale` and the encoder's variants derive
    their automata with `_replace`, which does not validate again.
    """

    __slots__ = ()

    def __new__(
        cls,
        actions: tuple[tuple[str, str], ...],
        parameters: tuple[str, ...],
        locations: tuple[str, ...],
        initial: str,
        edges: tuple[Edge, ...],
        invariants: Mapping[str, Guard] = {},   # read, never stored: the field is a trimmed copy
        accepting: frozenset[str] = frozenset(),
    ) -> Pera:
        trimmed = {loc: g for loc, g in invariants.items() if g}
        self = super().__new__(cls, actions, parameters, locations, initial, edges, trimmed, accepting)
        self.validate()
        return self

    # -- structure ---------------------------------------------------

    @property
    def alphabet(self) -> tuple[str, ...]:
        return tuple(a for a, _ in self.actions)

    @property
    def clocks(self) -> tuple[str, ...]:
        return tuple(c for _, c in self.actions)

    def clock_of(self, action: str) -> str:
        for a, c in self.actions:
            if a == action:
                return c
        raise ModelError(f"unknown action {action!r}")

    def invariant(self, location: str) -> Guard:
        return self.invariants.get(location, ())

    def validate(self) -> None:
        acts = [a for a, _ in self.actions]
        clks = [c for _, c in self.actions]
        if len(set(acts)) != len(acts) or len(set(clks)) != len(clks):
            raise ModelError("action/clock map is not a bijection")
        if set(acts) & set(clks):
            raise ModelError("action names and clock names overlap")
        locs = set(self.locations)
        if len(locs) != len(self.locations):
            raise ModelError("duplicate location names")
        if self.initial not in locs:
            raise ModelError(f"initial location {self.initial!r} not declared")
        if not self.accepting <= locs:
            raise ModelError("accepting set mentions undeclared locations")
        clkset = set(clks)
        pset = set(self.parameters)
        for loc, guard in self.invariants.items():
            if loc not in locs:
                raise ModelError(f"invariant for undeclared location {loc!r}")
            _check_atoms(guard, clkset, pset, lambda: f"invariant of {loc}")
        for e in self.edges:
            if e.source not in locs or e.target not in locs:
                raise ModelError(f"edge endpoints undeclared: {e.text()}")
            if e.action not in acts:
                raise ModelError(f"edge action undeclared: {e.text()}")
            _check_atoms(e.guard, clkset, pset, lambda: f"guard of {e.text()}")

    # -- parameter substitution ---------------------------------------

    def valuate(self, values: Mapping[str, int], scale: int = 1) -> "Pera":
        """Return the concrete automaton under integer parameter values, every constant of the
        automaton multiplied by `scale` first, as `rescale(scale).valuate(values)` gives it.

        Edges whose guard contains an unsatisfiable atom are dropped:
        they could never fire.  An atom that becomes trivially true (a
        lower bound below 0) is kept, in guards and invariants alike, as
        the stand-in `x >= 0`; an unsatisfiable invariant atom is an
        error because it would silence a whole location.
        """
        if scale <= 0:
            raise ModelError("scale factor must be positive")
        for p in self.parameters:
            if p not in values:
                raise ModelError(f"missing value for {p!r}")
            v = values[p]
            if not isinstance(v, int) or v < 0:
                raise ModelError(f"parameter {p!r} must be a nonnegative integer")

        def valued(g: Guard) -> Guard:
            if scale != 1:
                g = tuple(Atom(a.clock, a.rel, a.offset * scale, a.param) for a in g)
            return tuple(a.valuate(values) for a in g) if any(a.param is not None for a in g) else g

        return self._map_guards(valued, parameters=())

    def rescale(self, factor: int) -> "Pera":
        """Multiply every constant by `factor` (parameters stay symbolic).

        Scaling all constants by a positive integer does not change the
        untimed behaviour; it lets rational parameter values be handled
        by clearing denominators first.
        """
        if factor <= 0:
            raise ModelError("scale factor must be positive")
        return self._map_guards(lambda g: tuple(Atom(a.clock, a.rel, a.offset * factor, a.param) for a in g))

    def _map_guards(self, f: Callable[[Guard], Guard], **changes) -> "Pera":
        """A copy, not validated again, with `f` applied once per distinct invariant and edge guard;
        an edge is dropped when `f` raises `UnsatisfiableAtom` on its guard, kept when `f` returns
        its guard."""
        mapped: dict[int, Guard | None] = {}   # by identity, as `from_text` shares equal guards
        edges = []
        for e in self.edges:
            if (key := id(e.guard)) not in mapped:
                try:
                    mapped[key] = f(e.guard)
                except UnsatisfiableAtom:
                    mapped[key] = None
            if (g := mapped[key]) is not None:
                edges.append(e if g is e.guard else Edge(e.source, g, e.action, e.target))
        # once per object too, apart from `mapped`: an unsatisfiable invariant raises, not drops
        inv = {id(g): f(g) for g in {id(g): g for g in self.invariants.values()}.values()}
        invariants = {loc: inv[id(g)] for loc, g in self.invariants.items()}
        return self._replace(edges=tuple(edges), invariants=invariants, **changes)

    def max_constant(self) -> int:
        """Largest constant bound appearing anywhere; parameters excluded.

        Only meaningful after valuation.  Returns 0 for a guardless
        automaton.
        """
        best = 0
        for guard in list(self.invariants.values()) + [e.guard for e in self.edges]:
            for a in guard:
                if a.param is None:
                    best = max(best, a.offset)
        return best

    # -- serialization -------------------------------------------------

    def to_text(self) -> str:
        doc = {
            "actions": [{"action": a, "clock": c} for a, c in self.actions],
            "parameters": list(self.parameters),
            "locations": [
                {"name": loc, "invariant": guard_text(self.invariant(loc))}
                for loc in self.locations
            ],
            "initial": self.initial,
            "accepting": sorted(self.accepting),
            "edges": [
                {
                    "from": e.source,
                    "guard": guard_text(e.guard),
                    "action": e.action,
                    "to": e.target,
                }
                for e in self.edges
            ],
        }
        return json.dumps(doc, indent=2) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Pera":
        try:
            doc = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            # RecursionError: nesting deeper than the decoder can follow
            raise ModelError(f"not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ModelError("malformed automaton document: expected a JSON object")
        try:
            params = _names(doc.get("parameters", []), "parameters")
            actions = tuple((_name(d["action"], "action"), _name(d["clock"], "clock"))
                            for d in doc["actions"])
            # a report prints a word as its actions joined by spaces
            if bad := [act for act, _ in actions if act.split() != [act]]:
                raise ModelError(f"malformed automaton document: action {bad[0]!r} is empty or holds a space")
            locations = tuple(_name(d["name"], "location") for d in doc["locations"])
            parsed: dict[str, Guard] = {}   # each distinct guard text is parsed once

            def guard(text) -> Guard:   # `parse_guard` rejects a non-string before it is hashed
                if not isinstance(text, str) or text not in parsed:
                    parsed[text] = parse_guard(text, params)
                return parsed[text]

            # empty invariants are trimmed by the constructor
            invariants = {d["name"]: guard(d.get("invariant", "true")) for d in doc["locations"]}
            edges = tuple(
                Edge(
                    _name(d["from"], "edge source"),
                    guard(d.get("guard", "true")),
                    _name(d["action"], "edge action"),
                    _name(d["to"], "edge target"),
                )
                for d in doc["edges"]
            )
            return cls(
                actions=actions,
                parameters=params,
                locations=locations,
                initial=_name(doc["initial"], "initial location"),
                edges=edges,
                invariants=invariants,
                accepting=frozenset(_names(doc.get("accepting", []), "accepting")),
            )
        except (KeyError, TypeError) as exc:
            raise ModelError(f"malformed automaton document: {exc}") from exc


def _name(value, what: str) -> str:
    """`value` if it is a string; names are compared and sorted as strings."""
    if not isinstance(value, str):
        raise ModelError(f"malformed automaton document: {what}: {value!r} is not a string")
    return value


def _names(value, what: str) -> tuple[str, ...]:
    """`value` as a tuple of names, if it is a JSON list of strings."""
    if not isinstance(value, list):
        raise ModelError(f"malformed automaton document: {what}: {value!r} is not a list")
    return tuple(_name(v, what) for v in value)


def _check_atoms(guard, clocks, params, where: Callable[[], str]) -> None:
    """Reject an atom on an unknown clock or parameter.

    `where()` names the guard in the message; it is only called to
    raise, so a valid automaton formats none of its edges.
    """
    for a in guard:
        if a.clock not in clocks:
            raise ModelError(f"unknown clock {a.clock!r} in {where()}")
        if a.param is not None and a.param not in params:
            raise ModelError(f"unknown parameter {a.param!r} in {where()}")


def parse_valuation(pairs: Sequence[str]) -> dict[str, Fraction]:
    """Parse NAME=VALUE strings; VALUE may be an integer or A/B."""
    out: dict[str, Fraction] = {}
    for item in pairs:
        name, sep, val = item.partition("=")
        name = name.strip()
        if not sep or not name:
            raise ModelError(f"expected NAME=VALUE, got {item!r}")
        if name in out:
            raise ModelError(f"parameter {name!r} is given more than once")
        try:
            out[name] = Fraction(val.strip())
        except ZeroDivisionError:
            raise ModelError(f"bad value in {item!r}: zero denominator") from None
        except ValueError as exc:
            raise ModelError(f"bad value in {item!r}: {exc}") from exc
    return out

