"""The finite-word walks explore the zone graph with inactive clocks freed.

`Determinized` builds its `ZoneGraph` with `free_inactive=True`: every
step frees the clocks that nothing reads before their next reset.  That
keeps the untimed language and the blocking states, so every view of
the walk must come out the same as over the full graph: word counts,
listings, flagged listings and the product walk's verdict and witness.
"""

import random
from fractions import Fraction

import pytest

from peralab import language
from peralab.core import RELATIONS, Atom, Edge, ModelError, Pera
from peralab.encoder import build
from peralab.language import Determinized, compare
from peralab.semantics import ZoneGraph

from machines import load

ENCODING = {"maximal": "wrapped", "reach": "buchi", "safety": "safety"}
PERIODS = (Fraction(0), Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2))


def full_graph(a, free_inactive):
    return ZoneGraph(a)


def walks(a, semantics, monkeypatch):
    """(reduced, unreduced) determinized walks of `a`."""
    reduced = Determinized(a, semantics)
    with monkeypatch.context() as m:
        m.setattr(language, "ZoneGraph", full_graph)
        full = Determinized(a, semantics)
    assert full.graph.ana.freed == dict.fromkeys(a.locations, ())
    return reduced, full


def views(det, k):
    return det.counts(k), "".join(det.lines(k)), "".join(det.lines(k, flagged=True))


def valuated(stem, semantics, p):
    a = build(load(stem), ENCODING[semantics])
    return a.rescale(p.denominator).valuate({"p": p.numerator})


@pytest.mark.parametrize("semantics", sorted(ENCODING))
@pytest.mark.parametrize("stem", ["loop", "inc3", "halt"])
def test_reduced_walk_matches_full_walk_on_encodings(stem, semantics, monkeypatch):
    depth = 6
    ref = walks(valuated(stem, semantics, Fraction(0)), semantics, monkeypatch)
    smaller = 0
    for p in PERIODS:
        reduced, full = walks(valuated(stem, semantics, p), semantics, monkeypatch)
        assert views(reduced, depth) == views(full, depth), (stem, semantics, p)
        assert compare(ref[0], reduced, depth) == compare(ref[1], full, depth), (stem, semantics, p)
        smaller += len(reduced._sets) < len(full._sets)
    assert smaller, f"{stem} {semantics}: freeing clocks never merged a set"


def random_era(rng):
    """1-3 clocks, 1-4 locations, constants up to 3, guards and invariants of 0-2 atoms."""
    actions = (("a", "xa"), ("b", "xb"), ("c", "xc"))[: rng.randint(1, 3)]
    locations = tuple(f"l{i}" for i in range(rng.randint(1, 4)))

    def guard():
        return tuple(
            Atom(rng.choice(actions)[1], rng.choice(RELATIONS), rng.randint(0, 3))
            for _ in range(rng.choice((0, 0, 1, 2)))
        )

    edges = tuple(
        Edge(rng.choice(locations), guard(), rng.choice(actions)[0], rng.choice(locations))
        for _ in range(rng.randint(1, 6))
    )
    invariants = {loc: guard() for loc in locations if rng.random() < 0.4}
    accepting = frozenset(loc for loc in locations if rng.random() < 0.5) or frozenset(locations[-1:])
    return Pera(actions, (), locations, locations[0], edges, invariants, accepting)


def test_reduced_walk_matches_full_walk_on_random_eras(monkeypatch):
    rng = random.Random(20261020)
    done = freed = 0
    while done < 600:
        a = random_era(rng)
        semantics = rng.choice(sorted(ENCODING))
        try:
            reduced, full = walks(a, semantics, monkeypatch)
        except ModelError:             # the initial invariant excludes zero
            continue
        assert views(reduced, 5) == views(full, 5), a.to_text()
        freed += any(reduced.graph.ana.freed.values())
        done += 1
    assert freed > 300, f"only {freed} automata had an inactive clock"


@pytest.mark.parametrize("p, nodes, sets", [(0, 3, 2), (2, 9, 9)])
def test_reduced_sizes_of_the_wrapped_loop(p, nodes, sets):
    """Pinned, so that a weaker reduction shows: the full graph has 82 and 48 nodes."""
    a = build(load("loop"), "wrapped").valuate({"p": p})
    det = Determinized(a, "maximal")
    det.counts(8)
    assert (len(det.graph.nodes), len(det._sets)) == (nodes, sets)
