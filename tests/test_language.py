"""Bounded untimed-language observation and comparison."""

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import product

import pytest
from hypothesis import given, seed, settings, strategies as st

from peralab import language
from peralab.core import Edge, ModelError, Pera
from peralab.encoder import build
from peralab.language import (
    CompareResult,
    Determinized,
    Lassos,
    _lasso_key,
    _min_rotation,
    compare,
)
from peralab.semantics import Analyzer, ResourceExhausted, zone_graph

from machines import inc3, load, loop, trivial
from test_cli import LANG_ENCODING
from test_encoder import machines
from wordsets import (
    ExplorationConfig, LanguageSample, compare as compare_sets, compare_lassos, enumerate_language,
    lasso_union, lassos, lassos_text,
)


def cfg(depth):
    return ExplorationConfig(depth=depth)


@pytest.fixture(scope="module")
def loop0():
    return build(loop(), "wrapped").valuate({"p": 0})


@pytest.fixture(scope="module")
def loop2():
    return build(loop(), "wrapped").valuate({"p": 2})


# -- prefix enumeration ------------------------------------------------------


@pytest.mark.parametrize("depth,count", [(3, 85), (4, 341), (6, 5461)])
def test_zero_period_prefixes_are_full_sigma_star(loop0, depth, count):
    sample = enumerate_language(loop0, cfg(depth), "maximal")
    assert len(sample.prefix_words) == count == (4 ** (depth + 1) - 1) // 3
    assert sample.maximal_finite_words == frozenset()


def test_edgeless_automaton_language():
    a = Pera(actions=(("a", "x"),), parameters=(), locations=("only",),
             initial="only", edges=())
    sample = enumerate_language(a, cfg(4), "maximal")
    assert sample.prefix_words == frozenset({()})
    assert sample.maximal_finite_words == frozenset({()})


def test_prefix_closedness(loop2):
    words = enumerate_language(loop2, cfg(4), "maximal").prefix_words
    for w in words:
        if w:
            assert w[:-1] in words


def test_monotone_in_depth(loop2):
    small = enumerate_language(loop2, cfg(3), "maximal").prefix_words
    large = enumerate_language(loop2, cfg(5), "maximal").prefix_words
    assert small <= large
    assert small == {w for w in large if len(w) <= 3}


def test_maximal_finite_witnesses():
    one = build(loop(), "wrapped").valuate({"p": 1})
    s1 = enumerate_language(one, cfg(4), "maximal")
    assert ("a_1", "a_1") in s1.maximal_finite_words
    two = build(loop(), "wrapped").valuate({"p": 2})
    s2 = enumerate_language(two, cfg(6), "maximal")
    assert ("a_1", "a_1", "a_z", "a_2", "a_t", "a_t") in s2.maximal_finite_words
    assert min(len(w) for w in s2.maximal_finite_words) == 6


def test_node_limit_exhaustion(loop2):
    with pytest.raises(ResourceExhausted):
        Determinized(loop2, "maximal", node_limit=2).counts(6)


# -- the word walk ---------------------------------------------------------------


def reference_lines(words) -> str:
    return "".join(" ".join(w) + "\n" for w in sorted(words, key=lambda w: (len(w), w)))


def level_lines(det, k: int) -> dict[bool, list[str]]:
    """Per listing (flagged or not) and length n <= k, the lines of its words of length n,
    built word by word."""
    out, level = {False: [], True: []}, [("", det.start)]
    for n in range(k + 1):
        out[False].append("".join(text + "\n" for text, _ in level))
        out[True].append("".join(text + "\n" for text, s in level if det.flagged(s)))
        if n < k:
            level = [(f"{text} {act}" if text else act, t) for text, s in level for act, t in det.step(s).items()]
    return out


@pytest.mark.parametrize("semantics", ["maximal", "reach", "safety"])
@pytest.mark.parametrize("machine", [loop, inc3, trivial], ids=["loop", "inc3", "halt"])
@pytest.mark.parametrize("p", [Fraction(0), Fraction(2), Fraction(1, 2)], ids=str)
def test_lines_yields_whole_lines_in_blocks(machine, semantics, p):
    """Every chunk is whole lines, and together they are the reference word set.

    On `loop`, whose four actions give a stride of 4, the depth goes past
    two strides, so some words have a prefix longer than their tail.
    """
    a = build(machine(), LANG_ENCODING[semantics])
    va = a.rescale(p.denominator).valuate({"p": p.numerator})
    depth = 9 if machine is loop else 5
    ref = enumerate_language(va, cfg(5), semantics)
    flagged = ref.maximal_finite_words if semantics == "maximal" else ref.accepted_words
    per_length = level_lines(Determinized(va, semantics), depth)
    assert "".join(per_length[False][:6]) == reference_lines(ref.prefix_words)
    assert "".join(per_length[True][:6]) == reference_lines(flagged)
    for k in range(depth + 1):
        det = Determinized(va, semantics)
        for shown in (False, True):
            chunks = list(det.lines(k, flagged=shown))
            assert all(chunk.endswith("\n") for chunk in chunks)   # so none is empty
            assert "".join(chunks) == "".join(per_length[shown][:k + 1])


def test_lines_yields_a_block_per_short_length_and_per_prefix(loop2):
    """One block per length up to the stride, then one per prefix of n - stride actions.

    `loop` has four actions, so the stride is 4: the words of length 0
    to 4 are five blocks, and each of the 4 + 16 + 64 + 256 prefixes of
    1 to 4 actions yields one block of its 256 words of 5 to 8 actions.
    The memo holds, per set and r <= 4, at most 4^r tails of r actions.
    """
    det = Determinized(loop2, "maximal")
    assert det.stride == 4
    walk = det.lines(8)
    chunks = []
    for chunk in walk:
        chunks.append(chunk)
        memo = walk.gi_frame.f_locals["memo"]   # the walk's, while it is suspended
    assert len(chunks) == 5 + 4 + 16 + 64 + 256 == 345
    assert [chunk.count("\n") for chunk in chunks[5:]] == [256] * 340
    assert sum(chunk.count("\n") for chunk in chunks) == (4 ** 9 - 1) // 3 == 87_381
    held = Counter()
    for (states, r), tails in memo.items():
        assert r <= 4 and len(tails) <= 4 ** r
        held[states] += len(tails)
    assert set(held) <= set(det._sets)
    assert max(held.values()) <= 1 + 4 + 16 + 64 + 256


@pytest.mark.parametrize("actions,stride", [(1, 8), (2, 8), (3, 5), (4, 4), (6, 3), (16, 2), (17, 1), (300, 1)])
def test_stride_is_the_most_actions_within_256_tails(actions, stride):
    a = Pera(
        actions=tuple((f"a{i}", f"x{i}") for i in range(actions)),
        parameters=(),
        locations=("u",),
        initial="u",
        edges=(Edge("u", (), "a0", "u"),),
    )
    assert Determinized(a, "safety").stride == stride


@pytest.mark.parametrize("accepting,parity", [("u", 0), ("v", 1)])
def test_lines_flagged_on_alternate_levels(accepting, parity):
    """Flagged words of one parity only: one of a stored word's two blocks shows nothing.

    On `u -a-> v -b-> u` under reach, the words of the other parity are
    still kept, as they lead to flagged words; no chunk is empty or the
    bare text of a parent.
    """
    a = Pera(
        actions=(("a", "x"), ("b", "y")),
        parameters=(),
        locations=("u", "v"),
        initial="u",
        edges=(Edge("u", (), "a", "v"), Edge("v", (), "b", "u")),
        accepting=frozenset({accepting}),
    )
    for k in range(7):
        chunks = list(Determinized(a, "reach").lines(k, flagged=True))
        words = [tuple("ab"[i % 2] for i in range(n)) for n in range(parity, k + 1, 2)]
        assert enumerate_language(a, cfg(k), "reach").accepted_words == frozenset(words)
        assert all(chunk.endswith("\n") for chunk in chunks)   # so none is empty or bare
        assert "".join(chunks) == reference_lines(words)


@pytest.mark.parametrize("p", [3, 4])
def test_lines_flagged_past_the_listing_depths(p):
    """At k = 10, 16 maximal words among 1,398,101 prefix words, compare's witness among them.

    Each listed word replays through `step` to a flagged set, and the
    listing builds no set that `counts(10)` did not.
    """
    det = Determinized(build(loop(), "wrapped").valuate({"p": p}), "maximal")
    _, maximal = det.counts(10)
    built = len(det._sets)
    words = [tuple(line.split()) for line in "".join(det.lines(10, flagged=True)).splitlines()]
    assert len(words) == maximal == 16
    assert words == sorted(set(words), key=lambda w: (len(w), w))
    for word in words:
        states = det.start
        for act in word:
            states = det.step(states)[act]
        assert det.flagged(states)
    assert tuple("a_1 a_1 a_z a_2 a_t a_t a_z a_1 a_2 a_t".split()) in words
    assert len(det._sets) == built


# -- semantics dispatch -------------------------------------------------------


def test_unknown_semantics(loop2):
    with pytest.raises(ModelError):
        Determinized(loop2, "timed")


def test_parametric_automaton_rejected():
    # the zone layer rejects it, for words and for lassos alike
    with pytest.raises(ModelError, match="automaton still has parameters"):
        Determinized(build(loop(), "wrapped"), "maximal")
    with pytest.raises(ModelError, match="automaton still has parameters"):
        lassos(build(loop(), "buchi"), 3)


def test_accepting_set_required(loop2):
    with pytest.raises(ModelError):
        lassos(loop2, 3)
    with pytest.raises(ModelError):
        Determinized(loop2, "reach")


def test_safety_accepts_every_prefix():
    a = build(loop(), "safety").valuate({"p": 2})
    sample = enumerate_language(a, cfg(5), "safety")
    assert sample.accepted_words == sample.prefix_words
    assert sample.maximal_finite_words == frozenset()


def test_safety_flags_every_set_it_builds():
    det = Determinized(build(loop(), "safety").valuate({"p": 2}), "safety")
    det.counts(6)
    assert len(det._sets) > 1
    assert all(det.flagged(s) for s in det._sets)


def test_reach_marks_accepting_visits():
    a = build(loop(), "buchi").valuate({"p": 0})
    sample = enumerate_language(a, cfg(2), "reach")
    # at period zero every first step may enter an accepting wrapper location
    assert all(w in sample.accepted_words for w in sample.prefix_words if w)
    assert () not in sample.accepted_words


# -- lassos -------------------------------------------------------------------


def test_min_rotation():
    # against the least of all rotations, for every word of length 0-7 over
    # three letters: periodic words such as a b a b and words that repeat
    # their least letter included
    for n in range(8):
        for word in product("abc", repeat=n):
            want = min((word[i:] + word[:i] for i in range(n)), default=())
            assert _min_rotation(word) == want, word


def test_lassos_on_hand_built_cycle():
    a = Pera(
        actions=(("a", "x"), ("b", "y")),
        parameters=(),
        locations=("u", "v"),
        initial="u",
        edges=(Edge("u", (), "a", "v"), Edge("v", (), "b", "u")),
        accepting=frozenset({"u"}),
    )
    found = lassos(a, 4)
    # the origin zone is never revisited, so the cycle sits one step in
    assert (("a",), ("a", "b")) in found
    assert all(c == _min_rotation(c) for _, c in found)
    assert not any(c == ("b", "a") for _, c in found)


def test_lassos_respect_accepting_set():
    a = Pera(
        actions=(("a", "x"), ("b", "y")),
        parameters=(),
        locations=("u", "v"),
        initial="u",
        edges=(Edge("u", (), "a", "v"), Edge("v", (), "b", "u"),
               Edge("u", (), "a", "u")),
        accepting=frozenset({"v"}),
    )
    # the pure self-loop at u never visits v, so it is not a lasso here
    assert all("b" in c for _, c in lassos(a, 3))


def test_lassos_forget_accepting_nodes_backed_out_of():
    # from u, the search closes a b through accepting v, backs out of v,
    # then closes b b through w, which visits no accepting location
    a = Pera(
        actions=(("a", "x"), ("b", "y")),
        parameters=(),
        locations=("s", "u", "v", "w"),
        initial="s",
        edges=(Edge("s", (), "b", "u"), Edge("u", (), "a", "v"), Edge("v", (), "b", "u"),
               Edge("u", (), "b", "w"), Edge("w", (), "b", "u")),
        accepting=frozenset({"v"}),
    )
    found = lassos(a, 4)
    assert (("b",), ("a", "b")) in found
    assert not any(c == ("b", "b") for _, c in found)
    assert found == reference_lassos(a, 4)


# -- lasso search against the unpruned reference ------------------------------------


def reference_lassos(a, k):
    """The lasso set by the plain search: every simple path from the
    cycle start over ids at or above it, cut only by the depth bound k."""
    return plain_lasso_search(*fixpoint_tables(a), k)


def fixpoint_tables(a):
    """What `plain_lasso_search` reads of `a`'s fixpoint zone graph."""
    g = zone_graph(a)
    return tuple(g.edges), g.initial, tuple(loc in a.accepting for loc, _ in g.nodes)


@cache
def plain_lasso_search(edges, initial, is_acc, k):
    """`reference_lassos` on a graph given by what the search reads.

    Memoized, as several valuations share one fixpoint graph (`halt`'s
    Büchi encoding has the same one at p = 1, 2, 3 and 31).
    """
    adj = {i: [] for i in range(len(is_acc))}
    for src, act, dst in edges:
        adj[src].append((act, dst))
    stems = {initial: ()}
    frontier = [initial]
    for _ in range(k):
        nxt = []
        for nid in sorted(frontier, key=lambda n: stems[n]):
            for act, dst in sorted(adj[nid]):
                if dst not in stems:
                    stems[dst] = stems[nid] + (act,)
                    nxt.append(dst)
        frontier = nxt
    out = set()
    for c0, stem in stems.items():
        stack = [(c0, (), frozenset({c0}), is_acc[c0])]
        while stack:
            nid, word, visited, hit = stack.pop()
            for act, dst in adj[nid]:
                if dst == c0:
                    if hit and len(word) + 1 <= k:
                        out.add((stem, _min_rotation(word + (act,))))
                    continue
                if dst < c0 or dst in visited or len(word) + 1 >= k:
                    continue
                stack.append((dst, word + (act,), visited | {dst}, hit or is_acc[dst]))
    return frozenset(out)


def repeated_word_automaton():
    # from u, the cycles through v and through w both spell a b, and u also
    # loops on b; s leads in, so u's node is the least id on each cycle
    return Pera(
        actions=(("a", "x"), ("b", "y")),
        parameters=(),
        locations=("s", "u", "v", "w"),
        initial="s",
        edges=(Edge("s", (), "b", "u"), Edge("u", (), "a", "v"), Edge("v", (), "b", "u"),
               Edge("u", (), "a", "w"), Edge("w", (), "b", "u"), Edge("u", (), "b", "u")),
        accepting=frozenset({"u"}),
    )


@pytest.mark.parametrize("depth", [0, 1, 2, 3, 4])
def test_lassos_with_repeated_cycle_words(depth):
    a = repeated_word_automaton()
    want = {0: set(), 1: {(("b",), ("b",))}}.get(
        depth, {(("b",), ("b",)), (("b",), ("a", "b"))})
    assert lassos(a, depth) == want == reference_lassos(a, depth)


@pytest.mark.parametrize("a", [repeated_word_automaton(),
                               build(loop(), "buchi").valuate({"p": 0})],
                         ids=["repeated", "loop"])
def test_lassos_rotate_each_cycle_word_once(a, monkeypatch):
    calls = []

    def counted(word):
        calls.append(word)
        return _min_rotation(word)

    monkeypatch.setattr(language, "_min_rotation", counted)
    found = lassos(a, 10)
    assert calls and len(calls) == len(set(calls))
    assert {c for _, c in found} == {_min_rotation(w) for w in calls}
    rotated = list(calls)
    calls.clear()
    Lassos(a, 10).listing()
    assert sorted(calls) == sorted(rotated)


@seed(1975)
@given(machines(), st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=6))
@settings(deadline=None, max_examples=60)
def test_lassos_match_reference_on_random_machines(m, p, depth):
    a = build(m, "buchi").valuate({"p": p})
    assert lassos(a, depth) == reference_lassos(a, depth)


@pytest.mark.parametrize("p", [0, 1, 2, 3, 31, 65, 100])
@pytest.mark.parametrize("make", [loop, inc3, trivial], ids=["loop", "inc3", "halt"])
def test_pruned_lassos_match_unpruned_search(make, p):
    # the reference walks the fixpoint graph, so it also checks the 2k-level
    # bound; at p = 65 and 100 that bound cuts the graph well short at depth 4
    a = build(make(), "buchi").valuate({"p": p})
    for depth in (4,) if p > 31 else (0, 1, 2, 4, 7, 10):
        want = reference_lassos(a, depth)
        assert lassos(a, depth) == want, depth
        assert listed(Lassos(a, depth)) == (len(want), lassos_text(want)), depth


# -- the lasso listing against the sorted set -------------------------------------


def listed(walk):
    """`walk.listing()` as `lang` prints it: the count, then the lines, or one blank line."""
    n, lines = walk.listing()
    return n, "".join(lines) if n else "\n"


def test_lasso_listing_merges_starts_with_one_stem():
    # s reaches u and v on a, and each loops on a: two nodes with stem a
    # close the cycle word a, which is one lasso and one line
    a = one_action_pera("suv", ("su", "sv", "uu", "vv"), "uv")
    walk = Lassos(a, 3)
    assert len(walk._starts[1]) == 2
    assert listed(walk) == (1, "a | a\n") == (1, lassos_text(lassos(a, 3)))


def test_lasso_listing_sorts_any_action_names():
    # a name with a space, and one with a character below the space, so
    # neither the lines nor the stems' texts sort as the lasso tuples do
    acts = (("a", "x"), ("a b", "y"), ("a\tc", "z"))
    edges = [Edge("s", (), "a", "u"), Edge("s", (), "a b", "u"), Edge("s", (), "a\tc", "u")]
    edges += [Edge("u", (), act, v) for act, _ in acts for v in "uv"]
    edges += [Edge("v", (), act, "u") for act, _ in acts]
    a = Pera(actions=acts, parameters=(), locations=("s", "u", "v"), initial="s",
             edges=tuple(edges), accepting=frozenset({"u"}))
    for depth in range(5):
        want = reference_lassos(a, depth)
        assert listed(Lassos(a, depth)) == (len(want), lassos_text(want)), depth


# -- the lasso walk against the set diff --------------------------------------------

WALK_PERIODS = (0, 1, 2, 3, 5, 31, Fraction(1, 2))


def valuated_pair(a, pa, pb):
    """`a` at pa and at pb, on one scale that clears both denominators."""
    scale = max(Fraction(pa).denominator, Fraction(pb).denominator)
    a = a.rescale(scale) if scale != 1 else a
    return [a.valuate({"p": int(p * scale)}) for p in (pa, pb)]


@pytest.mark.parametrize("make", [loop, inc3, trivial], ids=["loop", "inc3", "halt"])
def test_lasso_walk_matches_set_diff(make):
    # the verdict, its witness and owner, and the count of lassos of total
    # length at most the witness's (or every lasso, when equal), per side
    a = build(make(), "buchi")
    for i, pa in enumerate(WALK_PERIODS):
        for pb in WALK_PERIODS[i + 1:]:
            va, vb = valuated_pair(a, pa, pb)
            tables = [fixpoint_tables(v) for v in (va, vb)]
            for depth in (0, 1, 2, 3, 4, 6):
                walks = Lassos(va, depth), Lassos(vb, depth)
                sets = [plain_lasso_search(*t, depth) for t in tables]
                for walk, want in zip(walks, sets):
                    levels = list(walk.levels())
                    for d, level in enumerate(levels):   # stems of d actions, none without a cycle
                        assert all(len(stem) == d and cycles for stem, cycles in level.items()), d
                    assert lasso_union(levels) == want, (pa, pb, depth)
                    assert listed(walk) == (len(want), lassos_text(want)), (pa, pb, depth)
                assert compare(*walks, depth) == compare_lassos(*sets), (pa, pb, depth)


class GivenLevels(Lassos):
    """A lasso walk over levels given by hand, each a set of lassos."""

    def __init__(self, *levels):
        self._given = levels

    def levels(self):
        for given in self._given:
            level = {}
            for stem, cyc in given:
                level.setdefault(stem, set()).add(cyc)
            yield level


@pytest.mark.parametrize("first,later", [
    # level 0 differs first, but only by a lasso of total length 5; the
    # right side's stem-2 lasso, of total length 3, is the least one
    ((((), ("a", "b", "c", "d", "e")), 0), ((("a", "a"), ("b",)), 2)),
    # level 1's lasso has total length 3, as does level 2's, whose stem is less
    (((("b",), ("c", "c")), 1), ((("a", "a"), ("c",)), 2)),
], ids=["longer", "same-length"])
def test_lasso_walk_waits_for_a_lesser_witness_at_a_later_level(first, later):
    (l1, d1), (l2, d2) = first, later
    left = GivenLevels(*({l1} if d == d1 else () for d in range(5)))
    right = GivenLevels(*({l2} if d == d2 else () for d in range(d2 + 1)))
    res = compare(left, right, 5)
    assert (res.witness, res.owner) == (l2, "right")
    assert res == compare_lassos(frozenset({l1}), frozenset({l2}))


def one_action_pera(locations, edges, accepting):
    return Pera(actions=(("a", "x"),), parameters=(), locations=locations,
                initial=locations[0], edges=tuple(Edge(u, (), "a", v) for u, v in edges),
                accepting=frozenset(accepting))


def test_lasso_walk_stop_rule_on_automata():
    # one action and one clock: every node's zone is x <= 0, so the
    # initial node is on the five-cycle, which has stem 0; on the right,
    # the self-loop at w has stem a a
    ring = one_action_pera("uvwyz", ("uv", "vw", "wy", "yz", "zu"), "u")
    tail = one_action_pera("uvw", ("uv", "vw", "ww"), "w")
    left, right = Lassos(ring, 5), Lassos(tail, 5)
    assert [len(level) for level in left.levels()] == [1, 0, 0, 0, 0]
    res = compare(left, right, 5)
    assert res == CompareResult(False, "lassos", (("a", "a"), ("a",)), "right", (0, 1))
    assert res == compare_lassos(lassos(ring, 5), lassos(tail, 5))


def levels_read(monkeypatch, pair, depth):
    """How many levels each side's walk yields when `pair` is compared."""
    read = []
    levels = Lassos.levels

    def counted(self):
        read.append(0)
        side = len(read) - 1
        for level in levels(self):
            read[side] += 1
            yield level

    monkeypatch.setattr(Lassos, "levels", counted)
    compare(*(Lassos(v, depth) for v in pair), depth)
    return read


def test_lasso_walk_stops_at_the_first_settled_length(monkeypatch):
    a = build(loop(), "buchi")
    # the witness a_1 a_1 | a_1 settles after stem length 2
    assert levels_read(monkeypatch, valuated_pair(a, 0, 3), 10) == [3, 3]
    # an equal pair reads every stem length
    pair = valuated_pair(a, Fraction(121, 2), Fraction(141, 2))
    assert levels_read(monkeypatch, pair, 4) == [5, 5]


# -- comparison ----------------------------------------------------------------


def test_compare_equal_on_self(loop2):
    s = enumerate_language(loop2, cfg(4), "maximal")
    res = compare_sets(s, s)
    assert res.equal and res.text("A", "B") == "equal up to bound"


def test_compare_mismatched_settings(loop2):
    a = enumerate_language(loop2, cfg(3), "maximal")
    b = enumerate_language(loop2, cfg(4), "maximal")
    with pytest.raises(ModelError):
        compare_sets(a, b)
    c = enumerate_language(build(loop(), "safety").valuate({"p": 2}), cfg(3), "safety")
    with pytest.raises(ModelError):
        compare_sets(a, c)


def test_compare_shortest_witness_and_symmetry(loop0):
    one = build(loop(), "wrapped").valuate({"p": 1})
    left = enumerate_language(one, cfg(4), "maximal")
    right = enumerate_language(loop0, cfg(4), "maximal")
    res = compare_sets(left, right)
    assert not res.equal
    assert res.field == "maximal_finite"
    assert res.witness == ("a_1", "a_1")
    assert res.owner == "left"
    mirrored = compare_sets(right, left)
    assert mirrored.witness == res.witness and mirrored.owner == "right"
    assert "only on the A side" in res.text("A", "B")


def test_compare_prefers_shorter_field_witness():
    a = LanguageSample("maximal", 2, frozenset({(), ("a",)}), frozenset())
    b = LanguageSample("maximal", 2, frozenset({(), ("a",), ("a", "a")}),
                       frozenset({("a",)}))
    res = compare_sets(a, b)
    assert res.witness == ("a",) and res.field == "maximal_finite"


def test_compare_buchi_lassos():
    res = compare_lassos(frozenset({(("a",), ("b",))}), frozenset())
    assert not res.equal and res.field == "lassos"
    assert res.witness == (("a",), ("b",)) and res.owner == "left"
    assert res.text("A", "B") == "differs; lassos witness [a | b] only on the A side"


# -- comparison on determinized automata ------------------------------------------

# (A, B) period pairs, and one rational pair: p = 1/2 against p = 3/2,
# compared as p = 1 against p = 3 on the automaton rescaled by 2
PERIOD_PAIRS = ((0, 1), (0, 2), (1, 0), (2, 3), (1, 1))
RATIONAL_PAIRS = ((1, 3),)


def assert_product_walk_matches_samples(a, pairs, semantics):
    periods = sorted({p for pair in pairs for p in pair})
    for depth in (0, 1, 4):
        autos = {p: a.valuate({"p": p}) for p in periods}
        samples = {p: enumerate_language(autos[p], cfg(depth), semantics) for p in periods}
        dets = {p: Determinized(autos[p], semantics) for p in periods}
        for pa, pb in pairs:
            want = compare_sets(samples[pa], samples[pb])
            assert compare(dets[pa], dets[pb], depth) == want, (pa, pb, depth)
        for p in periods:
            assert dets[p].counts(depth) == samples[p].counts(), (p, depth)


@pytest.mark.parametrize("semantics", ["maximal", "safety"])
@pytest.mark.parametrize("variant", ["wrapped", "sink"])
@pytest.mark.parametrize("make", [inc3, loop])
def test_product_walk_matches_sample_compare(make, variant, semantics):
    a = build(make(), variant)
    assert_product_walk_matches_samples(a, PERIOD_PAIRS, semantics)
    assert_product_walk_matches_samples(a.rescale(2), RATIONAL_PAIRS, semantics)


@pytest.mark.parametrize("variant,semantics", [("buchi", "reach"), ("safety", "safety")])
@pytest.mark.parametrize("make", [inc3, loop])
def test_product_walk_matches_sample_compare_accepting(make, variant, semantics):
    # reach differs on prefixes both ways; the safety variant's escape a_3 shows at depth 4
    assert_product_walk_matches_samples(build(make(), variant), PERIOD_PAIRS, semantics)


def test_product_walk_reports_prefix_before_flag():
    # [a] is a word only on the left, where it is also maximal: prefix wins
    acts = (("a", "x"), ("b", "y"))
    left = Pera(actions=acts, parameters=(), locations=("u", "v"), initial="u",
                edges=(Edge("u", (), "a", "v"),))
    right = Pera(actions=acts, parameters=(), locations=("u", "v"), initial="u",
                 edges=(Edge("u", (), "b", "v"),))
    want = CompareResult(False, "prefix", ("a",), "left")
    samples = [enumerate_language(x, cfg(2), "maximal") for x in (left, right)]
    assert compare_sets(*samples) == want
    assert compare(*(Determinized(x, "maximal") for x in (left, right)), 2) == want


def test_product_walk_needs_matching_inputs(loop2):
    det = Determinized(loop2, "maximal")
    with pytest.raises(ModelError):
        compare(det, Lassos(build(loop(), "buchi").valuate({"p": 0}), 3), 3)
    with pytest.raises(ModelError):
        compare(det, Determinized(loop2, "safety"), 3)
    with pytest.raises(ModelError):
        Determinized(build(loop(), "buchi").valuate({"p": 0}), "buchi")


# -- one automaton, read at every depth -------------------------------------------

# the bundled machines' encodings that `lang` and `theorem-check` read,
# each under every finite-word semantics it accepts: reach needs an
# accepting set, which only the `buchi` encoding declares
DEPTH_GRID = [
    (stem, variant, semantics)
    for stem in ("inc3", "loop", "halt")
    for variant in ("wrapped", "buchi", "safety")
    for semantics in ("maximal", "reach", "safety")
    if semantics != "reach" or build(load(stem), variant).accepting
]
GRID_PERIODS = (Fraction(0), Fraction(1), Fraction(2), Fraction(3), Fraction(1, 2))


def grid_automata(stem, variant):
    """(valuation, its p = 0 reference) per period; p = 1/2 is read as p = 1 at scale 2."""
    a = build(load(stem), variant)
    ref = a.valuate({"p": 0})
    return [(a.rescale(p.denominator).valuate({"p": p.numerator}), ref) for p in GRID_PERIODS]


def depth_views(det, ref, k):
    return (det.counts(k), "".join(det.lines(k)), "".join(det.lines(k, flagged=True)),
            compare(det, ref, k))


@pytest.mark.parametrize("stem,variant,semantics", DEPTH_GRID)
def test_one_automaton_answers_every_depth(stem, variant, semantics):
    """Read at k = 8, 0, 5, 2, 7 in turn, one object gives a fresh object's answers.

    Nothing it memoizes depends on k, so after `counts(8)` no read at a
    smaller k builds a set.
    """
    for va, ref in grid_automata(stem, variant):
        det, det_ref = Determinized(va, semantics), Determinized(ref, semantics)
        det.counts(8)
        built = len(det._sets)
        for k in (8, 0, 5, 2, 7):
            want = depth_views(Determinized(va, semantics), Determinized(ref, semantics), k)
            assert depth_views(det, det_ref, k) == want, (va.to_text(), k)
            assert len(det._sets) == built, k


@pytest.mark.parametrize("stem,variant,semantics", DEPTH_GRID)
def test_bounded_verdict_is_monotone_in_depth(stem, variant, semantics):
    """Against p = 0 the walk is equal up to some k, then differs with one witness.

    The witness of a difference first seen at k is k letters long, so
    the walk at k = len(witness) already gives the verdict.
    """
    for va, ref in grid_automata(stem, variant):
        det, det_ref = Determinized(va, semantics), Determinized(ref, semantics)
        verdicts = [compare(det, det_ref, k) for k in range(11)]
        first = next((k for k, res in enumerate(verdicts) if not res.equal), len(verdicts))
        assert all(res.equal for res in verdicts[:first])
        assert all(res == verdicts[first] for res in verdicts[first:])
        if first < len(verdicts):
            assert len(verdicts[first].witness) == first


def test_counts_without_words(loop0):
    det = Determinized(loop0, "maximal")
    assert det.counts(8) == ((4 ** 9 - 1) // 3, 0)


def test_successor_runs_once_per_node_and_edge(monkeypatch):
    """Sets that share a symbolic state expand it once, in the shared graph.

    That is one `successor` call per expanded node and move out of its
    location.
    """
    calls = 0
    raw = Analyzer.successor

    def counting(self, zone, move):
        nonlocal calls
        calls += 1
        return raw(self, zone, move)

    monkeypatch.setattr(Analyzer, "successor", counting)
    det = Determinized(build(inc3(), "wrapped").valuate({"p": 5}), "maximal")
    det.counts(8)
    g = det.graph
    assert calls == sum(len(g.ana.moves(g.nodes[n][0])) for n in g._succ)


def test_blocking_runs_once_per_node(monkeypatch):
    """Every maximal view of one automaton reads one blocking flag per node."""
    calls = []
    raw = Analyzer.blocking_subset

    def counting(self, s):
        calls.append((self, s))
        return raw(self, s)

    monkeypatch.setattr(Analyzer, "blocking_subset", counting)
    a = build(loop(), "wrapped")
    det = Determinized(a.valuate({"p": 2}), "maximal")
    ref = Determinized(a.valuate({"p": 0}), "maximal")
    det.counts(8)
    list(det.lines(8))
    list(det.lines(8, flagged=True))
    compare(det, ref, 8)
    graphs = {id(d.graph.ana): d.graph for d in (det, ref)}
    computed = [(id(ana), graphs[id(ana)].node_index[s]) for ana, s in calls]
    assert any(ana is det.graph.ana for ana, _ in calls)
    assert len(computed) == len(set(computed))


# -- textual renderings -----------------------------------------------------------


def test_lassos_text_format():
    found = frozenset({(("a",), ("b", "c")), ((), ("a",))})
    assert lassos_text(found) == " | a\na | b c\n"
    assert lassos_text(frozenset()) == "\n"
