"""Zones and boxes of guards, built the long way.

`guard_zone` is a guard's zone, from its atoms, and `compile_box` what
`zones.post` reads of a closed box, read off its matrix: the references
for the initial state and the boxes `semantics.Analyzer` reads straight
off the atoms' bounds, and the way the zone tests hand a box to `post`.
"""

from __future__ import annotations

from typing import Sequence

from peralab import zones as Z
from peralab.core import Guard
from peralab.semantics import _atom_bounds


def guard_zone(guard: Guard, clocks: Sequence[str]) -> Z.Dbm | None:
    """The zone of `clocks` where every atom of the valuated `guard` holds; None when empty."""
    cons: list[tuple[int, int, int]] = []
    for a in guard:
        i = clocks.index(a.clock) + 1
        low, up = _atom_bounds(a)
        cons += ((0, i, low), (i, 0, up))
    return Z.from_constraints(clocks, cons)


def compile_box(box: Z.Dbm, clock: str, freed: Sequence[str] = ()) -> Z.Box:
    """`box`'s bounds, the index of `clock` it resets and those of the `freed` clocks, as a `Z.Box`.

    `box` must be canonical with every constraint on one clock (every
    guard and invariant closes to one): row 0 holds its lower bounds and
    column 0 its upper bounds.
    """
    n = box.size
    m = box.m
    lows = tuple((k, m[k]) for k in range(1, n) if m[k] < Z.LE_ZERO)
    ups = tuple((a, m[a * n]) for a in range(1, n) if m[a * n] < Z.INF)
    return lows, ups, box.index(clock), tuple(map(box.index, freed))
