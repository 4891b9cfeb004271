"""What `zones.post` reads of a closed box, read off its matrix.

The reference for the boxes `semantics.Analyzer.moves` compiles
straight from the atoms, and the way the zone tests hand a box to
`post`.
"""

from __future__ import annotations

from typing import Sequence

from peralab import zones as Z


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
