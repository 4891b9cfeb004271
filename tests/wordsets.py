"""The reference for peralab's bounded languages: explicit word sets.

`ExplorationConfig` bundles a depth k with a node limit.
`enumerate_language` lists every word of length <= k into frozensets,
one per observed set, by its own word-by-word breadth-first search over
`Determinized.step` and `Determinized.flagged`, and `compare` diffs two
such samples set by set and reports the shortest, lexicographically
least word on one side only.  `lasso_union` turns lasso levels, each
stem with its cycle words as `Lassos.levels()` yields them, into one
lasso set, `lassos` is that set for a whole walk, `lassos_text` spells
it one sorted line per lasso, and `compare_lassos` diffs two lasso sets
the same way.  This is the brute-force view that `Determinized.counts`,
the product walk and the lasso walk in `peralab.language.compare`, the
word walk of `peralab lang` and its lasso listing are checked against;
nothing in `src` uses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from peralab.core import ModelError
from peralab.language import (
    CompareResult, Determinized, Lasso, Lassos, Word, _lasso_key, _lasso_text,
)
from peralab.semantics import NODE_LIMIT


def lasso_union(levels: Iterable[dict[Word, set[Word]]]) -> frozenset[Lasso]:
    """Every (stem, cycle) pair of `levels`, each a map from stems to their cycle words."""
    return frozenset((stem, cyc) for level in levels for stem, cycles in level.items() for cyc in cycles)


def lassos(a, k: int, node_limit: int = NODE_LIMIT) -> frozenset[Lasso]:
    """Every lasso of `Lassos(a, k, node_limit)`: the union of its levels.

    The levels are read one at a time, so only one is held beside the union.
    """
    return lasso_union(Lassos(a, k, node_limit).levels())


def lassos_text(found: frozenset[Lasso]) -> str:
    """One `stem | cycle` line per lasso, in `_lasso_key` order."""
    return "\n".join(map(_lasso_text, sorted(found, key=_lasso_key))) + "\n"


@dataclass(frozen=True)
class ExplorationConfig:
    depth: int = 8
    node_limit: int = NODE_LIMIT


@dataclass(frozen=True)
class LanguageSample:
    """Everything observable about one automaton's language at depth k."""

    semantics: str
    depth: int
    prefix_words: frozenset[Word]
    maximal_finite_words: frozenset[Word] = frozenset()
    accepted_words: frozenset[Word] = frozenset()
    lassos: frozenset[Lasso] = frozenset()

    def counts(self) -> tuple[int, ...]:
        """(lassos,) under Büchi, else (prefix words, maximal or accepted words)."""
        if self.semantics == "buchi":
            return (len(self.lassos),)
        flagged = self.maximal_finite_words if self.semantics == "maximal" else self.accepted_words
        return len(self.prefix_words), len(flagged)


def enumerate_language(a, cfg: ExplorationConfig, semantics: str) -> LanguageSample:
    """Observe one automaton's untimed language at cfg.depth, word by word."""
    if semantics == "buchi":
        found = lassos(a, cfg.depth, cfg.node_limit)
        return LanguageSample(semantics, cfg.depth, frozenset(), lassos=found)

    det = Determinized(a, semantics, cfg.node_limit)
    prefix: set[Word] = set()
    flagged: set[Word] = set()
    frontier = [((), det.start)]
    for level in range(cfg.depth + 1):
        nxt = []
        for word, states in frontier:
            prefix.add(word)
            if det.flagged(states):
                flagged.add(word)
            if level < cfg.depth:
                nxt.extend((word + (act,), succ) for act, succ in det.step(states).items())
        frontier = nxt
    if semantics == "maximal":
        return LanguageSample(semantics, cfg.depth, frozenset(prefix), frozenset(flagged))
    return LanguageSample(
        semantics, cfg.depth, frozenset(prefix), accepted_words=frozenset(flagged)
    )


def _word_diff(left: frozenset[Word], right: frozenset[Word]):
    delta = left.symmetric_difference(right)
    if not delta:
        return None
    w = min(delta, key=lambda w: (len(w), w))
    return w, ("left" if w in left else "right")


def compare_lassos(s1: frozenset[Lasso], s2: frozenset[Lasso]) -> CompareResult:
    """The least lasso on one side only, in `_lasso_key` order, as the witness.

    `counts` holds each side's number of lassos of total length at most
    the witness's, or each side's size when the sets are equal.
    """
    delta = s1.symmetric_difference(s2)
    if not delta:
        return CompareResult(True, counts=(len(s1), len(s2)))
    l = min(delta, key=_lasso_key)
    most = len(l[0]) + len(l[1])
    counts = tuple(sum(len(stem) + len(cyc) <= most for stem, cyc in s) for s in (s1, s2))
    return CompareResult(False, "lassos", l, "left" if l in s1 else "right", counts)


def compare(s1: LanguageSample, s2: LanguageSample) -> CompareResult:
    """Set-by-set comparison of two samples; the shortest witness wins."""
    if s1.semantics != s2.semantics:
        raise ModelError("samples use different semantics")
    if s1.depth != s2.depth:
        raise ModelError("samples use different depth bounds")
    if s1.semantics == "buchi":
        return compare_lassos(s1.lassos, s2.lassos)
    fields = (
        ("prefix", s1.prefix_words, s2.prefix_words),
        ("maximal_finite", s1.maximal_finite_words, s2.maximal_finite_words),
        ("accepted", s1.accepted_words, s2.accepted_words),
    )
    best = None
    for name, left, right in fields:
        hit = _word_diff(left, right)
        if hit is None:
            continue
        w, owner = hit
        if best is None or (len(w), w) < (len(best[1]), best[1]):
            best = (name, w, owner)
    if best is None:
        return CompareResult(True)
    return CompareResult(False, best[0], best[1], best[2])
