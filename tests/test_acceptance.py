"""The acceptance gate: one check per shipped claim, one report line each.

Run with `pytest tests/test_acceptance.py -s -v` to see the per-criterion
lines.  Each check enforces its own wall-clock budget.
"""

import time
from fractions import Fraction
from itertools import product

import pytest

from peralab.encoder import build, encode_core
from wordsets import ExplorationConfig, compare, enumerate_language
from peralab.minsky import run, trace

from gridoracle import GRID_UNITS
from machines import inc3, loop, trivial
from replay import concrete_simulate, settled_zero_instants
from schedule import derive_schedule
from test_zones_oracle import compare_random_instances


def report(n: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    if not ok:
        pytest.fail(line, pytrace=False)


def all_words(alphabet, k):
    words = set()
    for length in range(k + 1):
        words.update(product(alphabet, repeat=length))
    return frozenset(words)


def test_acceptance_1_zero_period_language():
    t0 = time.perf_counter()
    details = []
    ok = True
    for make in (inc3, loop, trivial):
        m = make()
        a = build(m, "wrapped").valuate({"p": 0})
        sample = enumerate_language(a, ExplorationConfig(depth=6), "maximal")
        full = all_words(a.alphabet, 6)
        good = sample.prefix_words == full and not sample.maximal_finite_words
        ok = ok and good
        details.append(f"{m.name}: {len(sample.prefix_words)} prefix words"
                       + ("" if good else " (MISMATCH)"))
    dt = time.perf_counter() - t0
    ok = ok and dt < 60
    report(1, ok, f"all 5461 words of length <= 6, no maximal finite words "
                  f"[{'; '.join(details)}] in {dt:.1f}s")


def test_acceptance_2_encoding_fidelity():
    t0 = time.perf_counter()
    checked = 0
    for make in (inc3, loop):
        m = make()
        probe = run(m, 1000)
        halting = probe.steps_taken if probe.halted else 10**9
        for period in (3, 4, 5):
            sch = derive_schedule(m, period)
            assert sch.steps == min(period - 1, halting)
            a = encode_core(m).valuate({"p": period})
            replay = concrete_simulate(a, sch.script)
            expected = list(trace(m, sch.steps))
            instants = settled_zero_instants(replay)
            assert instants, "no settled t=0 instant observed"
            for steps_done, x1, x2 in instants:
                want = expected[steps_done]
                assert (x1, x2) == (Fraction(want[1]), Fraction(want[2])), (
                    f"{m.name} p={period}: counters ({x1},{x2}) after "
                    f"{steps_done} steps, interpreter says {want[1:]}"
                )
            assert max(s for s, _, _ in instants) == sch.steps
            checked += 1
    dt = time.perf_counter() - t0
    report(2, checked == 6 and dt < 60,
           f"{checked} machine/period replays, settled-instant counters match "
           f"the interpreter in {dt:.1f}s")


def test_acceptance_3_halting_positive():
    t0 = time.perf_counter()
    a = build(inc3(), "wrapped")
    cfg = ExplorationConfig(depth=8)
    s0 = enumerate_language(a.valuate({"p": 0}), cfg, "maximal")
    s5 = enumerate_language(a.valuate({"p": 5}), cfg, "maximal")
    res = compare(s0, s5)
    full = all_words(a.alphabet, 8)
    ok = (res.equal
          and not s0.maximal_finite_words and not s5.maximal_finite_words
          and s0.prefix_words == full and s5.prefix_words == full)
    dt = time.perf_counter() - t0
    ok = ok and dt < 300
    report(3, ok, f"p=0 vs p=5 equal up to bound, both prefix sets all "
                  f"{len(full)} words, no maximal finite words, in {dt:.1f}s")


def test_acceptance_4_halting_negative():
    t0 = time.perf_counter()
    a = build(loop(), "wrapped")
    cfg = ExplorationConfig(depth=8)
    ref = enumerate_language(a.valuate({"p": 0}), cfg, "maximal")
    parts = []
    ok = not ref.maximal_finite_words
    for period in (1, 2, 3, 4):
        s = enumerate_language(a.valuate({"p": period}), cfg, "maximal")
        res = compare(ref, s)
        good = (not res.equal and res.field == "maximal_finite"
                and res.owner == "right")
        ok = ok and good
        if good:
            parts.append(f"p={period}: witness [{' '.join(res.witness)}]")
        else:
            parts.append(f"p={period}: equal at depth 8, no witness")
    dt = time.perf_counter() - t0
    ok = ok and dt < 300
    report(4, ok, "; ".join(parts) + f" in {dt:.1f}s")


def test_acceptance_5_safety_variant():
    t0 = time.perf_counter()
    a = build(loop(), "safety")
    core_alphabet = ("a_t", "a_1", "a_2", "a_z")
    v0_small = enumerate_language(a.valuate({"p": 0}), ExplorationConfig(depth=6), "safety")
    full6 = all_words(core_alphabet, 6)
    ok = v0_small.accepted_words == full6
    cfg = ExplorationConfig(depth=8)
    s0 = enumerate_language(a.valuate({"p": 0}), cfg, "safety")
    s2 = enumerate_language(a.valuate({"p": 2}), cfg, "safety")
    escape = [w for w in s2.accepted_words if "a_3" in w]
    res = compare(s0, s2)
    ok = ok and bool(escape) and not res.equal and "a_3" in res.witness
    dt = time.perf_counter() - t0
    ok = ok and dt < 60
    report(5, ok, f"p=0 accepts exactly the {len(full6)} escape-free words at "
                  f"depth 6; p=2 accepts {len(escape)} words with a_3 at depth 8; "
                  f"compare differs, witness [{' '.join(res.witness)}], in {dt:.1f}s")


def test_acceptance_6_buchi_variant():
    t0 = time.perf_counter()
    a = build(loop(), "buchi")
    cfg = ExplorationConfig(depth=8)
    s2 = enumerate_language(a.valuate({"p": 2}), cfg, "buchi")
    s0 = enumerate_language(a.valuate({"p": 0}), cfg, "buchi")
    pure = [l for l in s2.lassos if l[1] == ("a_3",)]
    clean = not any("a_3" in stem + cyc for stem, cyc in s0.lassos)
    ok = bool(pure) and clean
    dt = time.perf_counter() - t0
    ok = ok and dt < 300
    report(6, ok, f"p=2 has {len(pure)} lassos with cycle word (a_3); "
                  f"p=0 has {len(s0.lassos)} lassos, none mentioning a_3, in {dt:.1f}s")


def test_acceptance_7_zone_oracle():
    t0 = time.perf_counter()
    done, mismatches = compare_random_instances(1000)
    dt = time.perf_counter() - t0
    ok = done >= 1000 and not mismatches and dt < 60
    report(7, ok, f"{done} randomized instances against the quarter-integer "
                  f"grid on [0,{GRID_UNITS}] (refines the half-integer grid), "
                  f"{len(mismatches)} mismatches, in {dt:.1f}s"
                  + "".join(f"; {m}" for m in mismatches[:20]))


def test_acceptance_8_structural_counts():
    t0 = time.perf_counter()
    ok = True
    details = []
    for make in (inc3, loop, trivial):
        m = make()
        g = encode_core(m)
        w = build(m, "wrapped")
        good = (len(g.locations) == 2 * len(m.states)
                and len(g.alphabet) == 4
                and all(
                    sum(1 for e in g.edges if e.source == loc and e.target == loc) == 3
                    for loc in g.locations
                )
                and len(w.locations) == len(g.locations) + 3)
        ok = ok and good
        details.append(f"{m.name}: {len(g.locations)} gadget locations, "
                       f"wrapper {len(w.locations)}" + ("" if good else " (MISMATCH)"))
    dt = time.perf_counter() - t0
    report(8, ok and dt < 60, "; ".join(details) + f" in {dt:.1f}s")
