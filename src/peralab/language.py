"""Untimed languages, decided on a determinized automaton read at any depth.

The one finite-word core is `Determinized`: an on-the-fly subset
construction over one widened `ZoneGraph` that frees inactive clocks.
Its states are frozensets of that graph's node ids, its transitions
are memoized per set, and a set is flagged when one of its nodes is,
by the semantics' node test:

- maximal: the node blocks (`ZoneGraph.blocks`);
- reach: the node's location is accepting;
- safety: every node, so the accepted words are the prefix words.

Everything else is a view on that core, read at a depth k of its own:
the core stores no depth, and `node_limit` on its sets is its only
bound.  Each view stops once a level is empty.  `Determinized.counts`
gives the number of prefix and flagged words of length <= k by a
level-by-level count, without materializing a word.
`Determinized.lines` is the one word walk, for `lang` to print:
breadth first, in (length, word) order, it yields whole report lines,
in blocks built by one join.  Each set's sorted suffix lines of r
actions are built from its successors' and memoized for the whole
walk, for r up to a stride S that the alphabet sets (b^S <= 256 for b
actions).  The words of each length up to S are one block; a longer
word is a stored prefix followed by one of its set's suffixes of S
actions, one block per prefix.  The flagged words are the same walk
with a filter at the leaves: a word's line is kept only if the set it
ends in is flagged.  `compare` on two determinized automata walks
pairs of sets breadth first, up to k, and returns the shortest,
lexicographically least distinguishing word.

Büchi semantics is observed through `Lassos` instead: stem/cycle pairs
through accepting locations on the full widened zone graph, cut at 2k
levels.  `Lassos.levels()` is the one cycle walk, per stem length a
map from each stem to its cycle words, under one `node_limit` on the
distinct words held.  `compare` diffs two walks stem by stem and stops
once the least lasso on one side only cannot be undercut by a longer
stem.  `Lassos.listing()` gives `lang` the number of lassos and their
report lines, in blocks already in `_lasso_key` order, from per-stem
buckets of cycles by length, with no set of every lasso.  The
elementary-cycle search backtracks over one shared action list and
on-path table, on per-start edge tables pruned to the nodes that can
still close the cycle within the bound.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import cache
from itertools import zip_longest
from typing import Iterator

from .core import ModelError, Pera
from .semantics import NODE_LIMIT, ResourceExhausted, ZoneGraph, zone_graph

SEMANTICS = ("maximal", "buchi", "reach", "safety")

Word = tuple[str, ...]
Lasso = tuple[Word, Word]
States = frozenset[int]   # node ids of one ZoneGraph

# what each finite-word semantics calls its flagged words, in reports
FLAG_LABEL = {"maximal": "maximal finite", "reach": "accepted", "safety": "accepted"}


def _min_rotation(word: Word) -> Word:
    """The least rotation of `word`, tried only at the positions of its least letter."""
    if not word:
        return word
    least = min(word)
    return min(word[i:] + word[:i] for i, act in enumerate(word) if act == least)


class Determinized:
    """One automaton's word language, determinized on the fly.

    `step` maps a set of node ids to the union of their successor ids
    per action, in sorted action order, leaving out actions with no
    successor; tables are memoized, and so are the nodes' own successors
    in `graph`, so a symbolic state shared by many sets is expanded
    once.  Successor sets are interned, so equal sets are one object,
    and the number of distinct sets is what `node_limit` bounds.
    `flagged` is the per-set flag described in the module docstring,
    read off the nodes' own tests, of which the blocking test is
    memoized per node in `graph`.
    """

    def __init__(self, a: Pera, semantics: str, node_limit: int = NODE_LIMIT):
        _check_observable(a, semantics)
        if semantics == "buchi":
            raise ModelError("buchi semantics is observed through lassos, not words")
        self.semantics = semantics
        self.node_limit = node_limit
        self.graph = ZoneGraph(a, free_inactive=True)
        if semantics == "maximal":
            self._node_flagged = self.graph.blocks
        elif semantics == "reach":
            self._node_flagged = lambda nid: self.graph.nodes[nid][0] in a.accepting
        else:
            self._node_flagged = lambda nid: True
        self.start: States = frozenset({self.graph.initial})
        self._trans: dict[States, dict[str, States]] = {}
        self._sets: dict[States, States] = {self.start: self.start}
        # `lines`' stride: the most actions S with b^S <= 256, for b actions but at least 2,
        # and at least 1
        b, self.stride = max(len(a.actions), 2), 1
        while b ** (self.stride + 1) <= 256:
            self.stride += 1

    def step(self, states: States) -> dict[str, States]:
        table = self._trans.get(states)
        if table is not None:
            return table
        succ: dict[str, set[int]] = {}
        for nid in states:
            for act, targets in self.graph.succ(nid).items():
                succ.setdefault(act, set()).update(targets)
        table = {}
        for act in sorted(succ):
            s = frozenset(succ[act])
            table[act] = self._sets.setdefault(s, s)
        self._trans[states] = table
        if len(self._sets) > self.node_limit:
            raise ResourceExhausted(
                f"language walk exceeded {self.node_limit} determinized states"
            )
        return table

    def flagged(self, states: States) -> bool:
        return any(map(self._node_flagged, states))

    def counts(self, k: int) -> tuple[int, int]:
        """(prefix words, flagged words) of length <= k, counted per set."""
        level, left = {self.start: 1}, k
        prefix = flagged = 0
        while level:
            nxt: dict[States, int] = {}
            for states, n in level.items():
                prefix += n
                if self.flagged(states):
                    flagged += n
                if left:
                    for succ in self.step(states).values():
                        nxt[succ] = nxt.get(succ, 0) + n
            level, left = nxt, left - 1
        return prefix, flagged

    def lines(self, k: int, flagged: bool = False) -> Iterator[str]:
        """Every word of length <= k as its report line, breadth first.

        A line is the word's actions joined by spaces, then a newline.
        Actions are taken in sorted order, so the lines come sorted by
        (length, word).  The lines are yielded whole, in blocks, and no
        block is empty.  `tails(states, r)` is the sorted list of a set's
        suffix lines of r actions (each followed by a space, the last by
        a newline), built from its successors' `tails(·, r - 1)` and
        memoized for the whole walk.  With S the stride (`stride`), the
        words of each length n <= S are one block, the start's tails
        joined.  A longer word is a prefix of n - S actions and a tail of
        S: the prefixes of one length are stored, with their text and
        set, and each yields one block, its text followed by the set's
        tails of S with the text between them.  So one join makes up to
        b^S <= 256 lines, for b actions.

        Memory: per distinct set and r <= S, at most b^r tails of r
        actions, so at most 1 + b + ... + b^S <= 2 * 256 - 1 per set, and
        the stored prefix level holds at most b^(k - S) texts, where a
        walk storing every level would hold b^k.  The walk steps only
        sets below depth k, so after `counts(k)` it creates no new set.

        With `flagged`, only the flagged words are listed: the same walk,
        whose tails of 0 actions are empty at an unflagged set, so a
        word is kept or dropped at its leaf and empty blocks are skipped.
        """
        memo: dict[tuple[States, int], list[str]] = {}

        def tails(states: States, r: int) -> list[str]:
            out = memo.get((states, r))
            if out is None:
                if not r:
                    out = ["\n"] if not flagged or self.flagged(states) else []
                else:
                    out = []
                    for act, t in self.step(states).items():
                        head = act + " " if r > 1 else act
                        out += [head + tail for tail in tails(t, r - 1)]
                memo[(states, r)] = out
            return out

        stride = self.stride
        for n in range(min(k, stride) + 1):
            block = tails(self.start, n)
            if block:
                yield "".join(block)
        level = [("", self.start)]   # the prefixes of n - stride actions, as texts and sets
        left = k - 1                 # steps left below the next level's prefixes
        while level and left >= stride:
            level = [(text + act + " ", t) for text, states in level
                     for act, t in self.step(states).items()]
            for text, states in level:
                block = tails(states, stride)
                if block:
                    yield text + text.join(block)
            left -= 1


class Lassos:
    """One automaton's lassos through accepting locations, walked by stem length.

    This is what Büchi semantics observes: stem/cycle pairs on the
    widened zone graph, with stem and cycle at most k long.  The
    constructor builds the graph, its adjacency and the stems, then
    frees the zones.  `levels()` searches the cycles one stem length at
    a time, so a comparison that settles early never searches the rest,
    and `listing()` reads every level and returns the report lines,
    sorted from per-stem buckets.

    Cycles are elementary (no repeated node except the endpoints),
    found once each by only walking nodes with ids at or above the
    start node's; stems are the shortest, lexicographically smallest
    words reaching the cycle's start within k steps.  The cycle word,
    at most k long, is reported in its minimal rotation.

    Building the zone graph only 2k levels deep is exact: a stem
    reaches its cycle start within k steps and the cycle goes at most
    k - 1 further, so every lasso edge leaves a node within 2k - 1 steps
    of the initial node, and the cut graph keeps the fixpoint graph's
    ids and every edge out of those nodes.  So `node_limit` counts the
    nodes of the cut graph, and running out of nodes happens in the
    constructor.  The walk also counts its distinct cycle words against
    `node_limit`, so `compare` and `lang` run out at the same bound.
    """

    def __init__(self, a: Pera, k: int, node_limit: int = NODE_LIMIT):
        _check_observable(a, "buchi")
        # the full graph: freeing clocks merges nodes, which changes their elementary cycles
        g = zone_graph(a, node_limit, levels=2 * k)
        self.k = k
        self.node_limit = node_limit

        # adjacency with actions, in sorted order, and reverse adjacency for distances
        self._adj: list[list[tuple[str, int]]] = [[] for _ in g.nodes]
        self._radj: list[list[int]] = [[] for _ in g.nodes]
        for src, act, dst in g.edges:
            self._adj[src].append((act, dst))
            self._radj[dst].append(src)

        # shortest-lex stem per node, bounded by k, and the nodes per stem length;
        # breadth order makes stems shortest, stem-sorted expansion makes ties lex-min
        self._stems: dict[int, Word] = {g.initial: ()}
        self._starts: list[list[int]] = [[g.initial]]
        while len(self._starts) <= k:
            nxt = []
            for nid in sorted(self._starts[-1], key=self._stems.__getitem__):
                for act, dst in self._adj[nid]:
                    if dst not in self._stems:
                        self._stems[dst] = self._stems[nid] + (act,)
                        nxt.append(dst)
            if not nxt:
                break
            self._starts.append(nxt)

        self._is_acc = [loc in a.accepting for loc, _ in g.nodes]
        self._on_path = [False] * len(g.nodes)
        # the search reads only these tables, so the zones go with `g`

    def levels(self) -> Iterator[dict[Word, set[Word]]]:
        """Per stem length d = 0, 1, ..., each stem of d actions with its cycle words.

        A lasso's stem length is the depth of its cycle's start, so the
        levels partition the lasso set.  Starts with equal stems are
        merged, so a cycle word closed from two of them is one lasso;
        stems with no cycle are left out.  The walk stops after the last
        stem length that has a node, at most k.  Each distinct search
        word is rotated once per walk, and holding more than `node_limit`
        of them, each up to k actions kept with its rotation, raises
        `ResourceExhausted`; a lasso only points at words already held.
        """
        rotate = cache(_min_rotation)   # for this walk only
        stems = self._stems
        for starts in self._starts:
            level: dict[Word, set[Word]] = {}
            for c0 in starts:
                words = self._cycle_words(c0)
                if words:
                    level.setdefault(stems[c0], set()).update(map(rotate, words))
                    if rotate.cache_info().currsize > self.node_limit:
                        raise ResourceExhausted(
                            f"lasso walk exceeded {self.node_limit} distinct cycle words"
                        )
            yield level

    def listing(self) -> tuple[int, Iterator[str]]:
        """The number of lassos, and their report lines in `_lasso_key` order.

        Every level is read here, before any line is made.  A stem's
        cycles are bucketed by length, and each bucket is one row of its
        total length, stem plus cycle.  A stem has one length, so it has
        at most one row per total length.  The lines come one block per
        row, each block one join: the total lengths that occur, in
        increasing order, then their rows by stem, then each row's
        cycles, sorted on their own.  Stems and cycles sort as tuples,
        so the order holds for any action names.
        """
        rows: dict[int, list[tuple[Word, list[Word]]]] = {}   # per total length
        held = 0
        for d, level in enumerate(self.levels()):
            for stem, cycles in level.items():
                held += len(cycles)
                buckets: dict[int, list[Word]] = {}
                for cyc in cycles:
                    buckets.setdefault(len(cyc), []).append(cyc)
                for n, bucket in buckets.items():
                    rows.setdefault(d + n, []).append((stem, bucket))

        def blocks() -> Iterator[str]:
            for total in sorted(rows):
                for stem, bucket in sorted(rows.pop(total)):
                    bucket.sort()
                    head = " ".join(stem) + " | "
                    yield head + ("\n" + head).join(map(" ".join, bucket)) + "\n"

        return held, blocks()

    def _cycle_words(self, c0: int) -> set[Word]:
        """Words of the elementary cycles through an accepting node with
        minimal node id c0, of length at most k.

        The search keeps only the edges into c0 or into nodes above c0
        that can get back to c0, over ids above c0, within k - 1 steps (a
        node's kept edges are listed on its first visit, as at small k
        most nodes are never visited), and drops a path as soon as its
        next node cannot get back within what is left of k.  That is
        exact: every way to close the cycle from there stays on those
        ids, so it takes at least that distance, and no dropped path
        closes within k.  It backtracks over one action list and one
        on-path table indexed by node id, pushing and popping one entry
        per step.
        """
        adj, radj, on_path, is_acc, k = self._adj, self._radj, self._on_path, self._is_acc, self.k

        # fewest edges from each node above c0 back to c0, through ids
        # above c0, and 0 for c0 itself; only up to k - 1, as a longer
        # way back closes no cycle within k
        dist = {c0: 0}
        frontier, d = [c0], 1
        while frontier and d < k:
            nxt = []
            for nid in frontier:
                for src in radj[nid]:
                    if src > c0 and src not in dist:
                        dist[src] = d
                        nxt.append(src)
            frontier, d = nxt, d + 1

        def pruned(nid: int) -> list[tuple[int, str, int]]:
            # nid's edges into c0 or into nodes that can get back to c0,
            # as (target's distance back to c0, action, target)
            return [(dist[dst], act, dst) for act, dst in adj[nid] if dst in dist]

        kept = {c0: pruned(c0)}    # per node, built on its first visit
        words: set[Word] = set()
        word: list[str] = []
        path = [c0]
        on_path[c0] = True
        room = k - 1               # how far the next target may be from c0
        hits = is_acc[c0]          # accepting nodes on the path
        todo = [iter(kept[c0])]    # per path node, its edges not tried yet
        while todo:
            for d, act, dst in todo[-1]:
                if d > room:
                    continue
                if dst == c0:
                    if hits:
                        words.add((*word, act))
                elif not on_path[dst]:
                    word.append(act)
                    path.append(dst)
                    on_path[dst] = True
                    room -= 1
                    hits += is_acc[dst]
                    edges = kept.get(dst)
                    if edges is None:
                        edges = kept[dst] = pruned(dst)
                    todo.append(iter(edges))
                    break
            else:                  # every edge tried: back up
                todo.pop()
                nid = path.pop()
                on_path[nid] = False
                if todo:
                    word.pop()
                    room += 1
                    hits -= is_acc[nid]
        return words


def _check_observable(a: Pera, semantics: str) -> None:
    if semantics not in SEMANTICS:
        raise ModelError(f"unknown semantics {semantics!r}; pick one of {SEMANTICS}")
    if semantics in ("buchi", "reach") and not a.accepting:
        raise ModelError(f"{semantics} semantics needs a declared accepting set")


def _lasso_key(l: Lasso):
    """Shortest first, then by stem, then by cycle."""
    return (len(l[0]) + len(l[1]), l[0], l[1])


def _lasso_text(l: Lasso) -> str:
    """`stem | cycle`, as reports spell a lasso (`Lassos.listing` joins a block of them at once)."""
    return " ".join(l[0]) + " | " + " ".join(l[1])


class CompareResult(namedtuple("CompareResult", "equal field witness owner counts", defaults=(None,) * 4)):
    """Whether two sides agree up to the bound and, if not, a shortest witness.

    `field` names the set the witness came from; `witness` is a word,
    or a (stem, cycle) pair; `owner` is "left" or "right".  `counts`
    (lassos only) gives per side how many lassos have a total length at
    most the witness's, or all of them when equal.  Every field but
    `equal` defaults to None.
    """

    __slots__ = ()

    def text(self, left: str, right: str) -> str:
        """The verdict in words, naming the sides `left` and `right`."""
        if self.equal:
            return "equal up to bound"
        if self.field == "lassos":
            shown = _lasso_text(self.witness)
        else:
            shown = " ".join(self.witness) if self.witness else "(empty word)"
        owner = left if self.owner == "left" else right
        field = self.field.replace("_", " ")
        return f"differs; {field} witness [{shown}] only on the {owner} side"


def _product_walk(left: Determinized, right: Determinized, k: int) -> CompareResult:
    """Breadth-first walk over pairs of sets, up to depth k.

    Pairs are expanded in the order of the words reaching them (actions
    sorted), so the first pair that tells the sides apart is reached by
    the shortest, lexicographically least distinguishing word.  A pair
    seen before is skipped: its first visit came by a word no longer and
    no greater.  A prefix difference wins over a flag difference at the
    same word.
    """
    none: States = frozenset()
    field = FLAG_LABEL[left.semantics].replace(" ", "_")
    seen = {(left.start, right.start)}
    frontier: list[tuple[Word, States, States]] = [((), left.start, right.start)]
    while frontier:
        nxt: list[tuple[Word, States, States]] = []
        for word, sl, sr in frontier:
            if not (sl and sr):
                return CompareResult(False, "prefix", word, "left" if sl else "right")
            fl = left.flagged(sl)
            if fl != right.flagged(sr):
                return CompareResult(False, field, word, "left" if fl else "right")
            if len(word) == k:
                continue
            tl, tr = left.step(sl), right.step(sr)
            for act in sorted(tl.keys() | tr.keys()):
                pair = (tl.get(act, none), tr.get(act, none))
                if pair not in seen:
                    seen.add(pair)
                    nxt.append((word + (act,), *pair))
        frontier = nxt
    return CompareResult(True)


def _lasso_walk(left: Lassos, right: Lassos) -> CompareResult:
    """Both sides' lasso levels in lockstep, up to the least lasso on one side only.

    A side with no starts left reads empty levels.  Lassos of equal
    stems have equal stem lengths, so the two sides' symmetric
    difference is the union of the levels' differences, stem by stem,
    and the walk keeps its least element in `_lasso_key` order.  After
    stem length d that element is the witness once its stem plus cycle
    is at most d + 1: every lasso not yet built has a stem of at least
    d + 1 actions and a cycle of at least one, so it is longer.
    """
    none: set[Word] = set()
    sizes = (Counter(), Counter())   # per side, the lassos read per total length
    best: Lasso | None = None
    owner = ""
    levels = zip_longest(left.levels(), right.levels(), fillvalue={})
    for d, (ls, rs) in enumerate(levels):
        for size, level in zip(sizes, (ls, rs)):
            size.update(len(stem) + len(cyc) for stem, cycles in level.items() for cyc in cycles)
        delta = [(stem, cyc) for stem in ls.keys() | rs.keys()
                 for cyc in ls.get(stem, none) ^ rs.get(stem, none)]
        if delta:
            l = min(delta, key=_lasso_key)
            if best is None or _lasso_key(l) < _lasso_key(best):
                best, owner = l, "left" if l[1] in ls.get(l[0], none) else "right"
        if best is not None and len(best[0]) + len(best[1]) <= d + 1:
            break
    if best is None:
        return CompareResult(True, counts=tuple(sum(size.values()) for size in sizes))
    most = len(best[0]) + len(best[1])
    counts = tuple(sum(n for length, n in size.items() if length <= most) for size in sizes)
    return CompareResult(False, "lassos", best, owner, counts)


def compare(s1: Determinized | Lassos, s2: Determinized | Lassos, k: int) -> CompareResult:
    """Bounded-language comparison; a difference names its shortest witness.

    Takes two `Determinized` automata, walked as a product up to depth
    k without listing their words, or two `Lassos` walks, each read at
    the depth it was built for, whose least lasso on one side only, in
    `_lasso_key` order, is the witness.
    """
    if isinstance(s1, Determinized) and isinstance(s2, Determinized):
        if s1.semantics != s2.semantics:
            raise ModelError("the two automata use different semantics")
        return _product_walk(s1, s2, k)
    if isinstance(s1, Lassos) and isinstance(s2, Lassos):
        return _lasso_walk(s1, s2)
    raise ModelError("compare needs two determinized automata or two lasso walks")
