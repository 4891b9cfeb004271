"""End-to-end command-line behavior, run in process."""

import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import peralab
from peralab import cli, minsky
from peralab.cli import TIMING_HEADER, main
from peralab.core import Pera
from peralab.language import Determinized
from peralab.encoder import build

from machines import MACHINE_DIR, load, loop
from wordsets import ExplorationConfig, enumerate_language


@pytest.fixture
def loop_file():
    return MACHINE_DIR / "loop.2cm"


@pytest.fixture
def inc3_file():
    return MACHINE_DIR / "inc3.2cm"


@pytest.fixture
def wrapped_loop_file(tmp_path, loop_file):
    out = tmp_path / "loop.wrapped.pera"
    assert main(["encode", str(loop_file), "--variant", "wrapped", "-o", str(out)]) == 0
    return out


def strip_timings(text: str) -> str:
    return text.split(TIMING_HEADER)[0]


# -- encode -------------------------------------------------------------------


def test_encode_writes_automaton(tmp_path, loop_file, capsys):
    out = tmp_path / "out.pera"
    code = main(["encode", str(loop_file), "--variant", "wrapped", "-o", str(out)])
    assert code == 0
    msg = capsys.readouterr().out
    assert f"wrote {out}: 9 locations, 49 edges" in msg
    parsed = Pera.from_text(out.read_text())
    assert parsed == build(loop(), "wrapped")


def test_encode_default_output_name(tmp_path, monkeypatch, loop_file, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["encode", str(loop_file)]) == 0
    assert "wrote loop.plain.pera: 6 locations, 25 edges" in capsys.readouterr().out
    assert (tmp_path / "loop.plain.pera").exists()


def test_encode_safety_has_escape_action(tmp_path, loop_file):
    out = tmp_path / "s.pera"
    assert main(["encode", str(loop_file), "--variant", "safety", "-o", str(out)]) == 0
    a = Pera.from_text(out.read_text())
    assert any(e.action == "a_3" and e.target == "l_sink" for e in a.edges)


def test_encode_bad_machine(tmp_path, capsys):
    f = tmp_path / "bad.2cm"
    f.write_text("init: s0\nhalt: sh\ns0: frob c1 goto sh\n")
    assert main(["encode", str(f)]) == 1
    assert "error:" in capsys.readouterr().err


def test_encode_missing_file(capsys):
    assert main(["encode", "/nonexistent/machine.2cm"]) == 1
    assert "error:" in capsys.readouterr().err


def test_shipped_machine_files_encode(tmp_path, capsys):
    for name in ("inc3", "loop", "halt"):
        out = tmp_path / f"{name}.pera"
        assert main(["encode", str(MACHINE_DIR / f"{name}.2cm"), "-o", str(out)]) == 0


# -- lang ----------------------------------------------------------------------


def test_lang_zero_period(wrapped_loop_file, capsys):
    code = main(["lang", str(wrapped_loop_file), "-p", "p=0", "-k", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "valuation: p=0" in out
    assert "semantics: maximal  depth: 3" in out
    assert "prefix words: 85" in out
    assert "maximal finite words: 0" in out
    assert "-- prefix --" in out and "-- maximal finite --" in out
    assert TIMING_HEADER in out


def test_lang_requires_valuation(wrapped_loop_file, capsys):
    assert main(["lang", str(wrapped_loop_file), "-k", "3"]) == 1
    assert "no value given for parameter" in capsys.readouterr().err


def test_lang_rejects_unknown_parameter(wrapped_loop_file, capsys):
    assert main(["lang", str(wrapped_loop_file), "-p", "p=0,q=1", "-k", "3"]) == 1
    assert "unknown parameter" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["lang", "-p", "p=1,p=2"], ["compare", "-p", "p=0", "-p", "p=1,p=2"]])
def test_repeated_parameter_exits_one(wrapped_loop_file, capsys, flags):
    # a later value must not silently replace an earlier one
    assert main([flags[0], str(wrapped_loop_file), *flags[1:], "-k", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "parameter 'p' is given more than once" in captured.err


def test_lang_rejects_a_second_valuation_flag(wrapped_loop_file, capsys):
    # a second -p must not silently replace the first
    assert main(["lang", str(wrapped_loop_file), "-p", "p=1", "-p", "p=2", "-k", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: lang takes at most one -p flag, got 2\n"


def test_lang_fractional_valuation_matches_rescaled_automaton(tmp_path, wrapped_loop_file, capsys):
    code = main(["lang", str(wrapped_loop_file), "-p", "p=1/2", "-k", "4"])
    assert code == 0
    frac_out = capsys.readouterr().out
    assert "rescaled by 2 to clear denominators" in frac_out

    doubled = tmp_path / "doubled.pera"
    doubled.write_text(build(loop(), "wrapped").rescale(2).to_text())
    assert main(["lang", str(doubled), "-p", "p=1", "-k", "4"]) == 0
    int_out = capsys.readouterr().out

    keep = lambda text: strip_timings(text).splitlines()[2:]  # drop path + valuation
    assert [l for l in keep(frac_out) if "rescaled" not in l] == keep(int_out)


def test_lang_node_limit_exhaustion(wrapped_loop_file, capsys):
    code = main(["lang", str(wrapped_loop_file), "-p", "p=2", "--node-limit", "2"])
    assert code == 2
    captured = capsys.readouterr()
    assert "resource exhaustion:" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("limit,code", [(8, 2), (9, 0)])
def test_lang_exhausted_on_the_last_set_prints_nothing(wrapped_loop_file, capsys, limit, code):
    # p = 2 at k = 8 has 9 distinct determinized state sets (over the
    # zone graph with inactive clocks freed); they are all built before
    # the report starts, so running out on the last prints no partial
    # word list
    argv = ["lang", str(wrapped_loop_file), "-p", "p=2", "--node-limit", str(limit)]
    assert main(argv) == code
    out = capsys.readouterr().out
    assert (out == "") == (code == 2)


def test_lang_node_limit_counts_distinct_sets(wrapped_loop_file, capsys):
    # p = 0 at k = 8 builds 2 distinct sets behind 8 transitions (over
    # the zone graph with inactive clocks freed)
    argv = ["lang", str(wrapped_loop_file), "-p", "p=0", "-k", "8"]
    assert main(argv + ["--node-limit", "2"]) == 0
    assert main(argv + ["--node-limit", "1"]) == 2


@pytest.mark.parametrize("limit,code", [(74, 2), (75, 0)])
def test_buchi_node_limit_counts_only_explored_nodes(tmp_path, loop_file, capsys, limit, code):
    # at k = 4 the lasso search builds the 75 nodes within 2k = 8 levels,
    # not the 813 of the fixpoint graph
    out = tmp_path / "b.pera"
    assert main(["encode", str(loop_file), "--variant", "buchi", "-o", str(out)]) == 0
    argv = ["lang", str(out), "-p", "p=100", "--semantics", "buchi", "-k", "4"]
    assert main(argv + ["--node-limit", str(limit)]) == code


@pytest.mark.parametrize("depth,limit,code", [(8, 470, 0), (8, 469, 2), (8, 1000, 0), (18, 1000, 2)])
def test_buchi_lang_counts_its_cycle_words_against_the_node_limit(tmp_path, loop_file, capsys,
                                                                   depth, limit, code):
    # p = 3 has 103 nodes at both depths; k = 8 holds 470 distinct cycle
    # words behind 586 lassos, and k = 18 would hold 79,071 behind 79,197
    out = tmp_path / "b.pera"
    assert main(["encode", str(loop_file), "--variant", "buchi", "-o", str(out)]) == 0
    capsys.readouterr()
    argv = ["lang", str(out), "-p", "p=3", "--semantics", "buchi", "-k", str(depth)]
    assert main(argv + ["--node-limit", str(limit)]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == ""
        assert captured.err == (
            f"resource exhaustion: lasso walk exceeded {limit} distinct cycle words\n")
    else:
        assert "lassos: 586" in captured.out.splitlines()


@pytest.mark.parametrize("limit,code", [(129, 2), (130, 0)])
def test_buchi_compare_runs_out_before_its_header(tmp_path, loop_file, capsys, limit, code):
    # both cut graphs are built, and the lasso walk run, before the first
    # report line, so running out of nodes prints no partial report
    out = tmp_path / "b.pera"
    assert main(["encode", str(loop_file), "--variant", "buchi", "-o", str(out)]) == 0
    capsys.readouterr()
    argv = ["compare", str(out), "-p", "p=0", "-p", "p=100", "--semantics", "buchi", "-k", "4"]
    assert main(argv + ["--node-limit", str(limit)]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == ""
        assert captured.err == f"resource exhaustion: zone graph exceeded {limit} nodes\n"
    else:
        assert "verdict: differs; lassos witness [a_1 a_1 | a_1] only on the A side" in captured.out


@pytest.mark.parametrize("limit,code", [(200, 2), (1853, 2), (1854, 0)])
def test_buchi_compare_and_lang_share_the_cycle_word_bound(tmp_path, loop_file, capsys,
                                                          limit, code):
    # p = 0 at k = 10 holds 1,854 distinct cycle words behind its 3,911
    # lassos; compare of an equal pair reads every level, so it holds them
    # as lang does, and runs out at the same limit, before its header
    out = tmp_path / "b.pera"
    assert main(["encode", str(loop_file), "--variant", "buchi", "-o", str(out)]) == 0
    flags = ["--semantics", "buchi", "-k", "10", "--node-limit", str(limit)]
    for argv, line in ((["lang", str(out), "-p", "p=0"], "lassos: 3911"),
                       (["compare", str(out), "-p", "p=0", "-p", "p=0"], "A: lassos: 3911")):
        capsys.readouterr()
        assert main(argv + flags) == code
        captured = capsys.readouterr()
        if code == 2:
            assert captured.out == ""
            assert captured.err == (
                f"resource exhaustion: lasso walk exceeded {limit} distinct cycle words\n")
        else:
            assert line in captured.out.splitlines()


def test_lang_deterministic(wrapped_loop_file, capsys):
    args = ["lang", str(wrapped_loop_file), "-p", "p=2", "-k", "5"]
    assert main(args) == 0
    first = strip_timings(capsys.readouterr().out)
    assert main(args) == 0
    second = strip_timings(capsys.readouterr().out)
    assert first == second


# the encoding each finite-word semantics is read on
LANG_ENCODING = {"maximal": "wrapped", "reach": "buchi", "safety": "safety"}


@pytest.mark.parametrize("semantics,p,k", [
    *itertools.product(("maximal", "reach", "safety"), ("0", "2", "1/2"), (0, 3)),
    # loop has 8 maximal words among 87,381 here: the flagged walk
    # enters only the few sets that still reach one
    ("maximal", "2", 8),
])
def test_lang_prints_the_reference_word_sets(tmp_path, capsys, monkeypatch, semantics, p, k):
    built: list[Determinized] = []

    def recorded(*args):
        built.append(Determinized(*args))
        return built[-1]

    def section(title, words):
        lines = [" ".join(w) for w in sorted(words, key=lambda w: (len(w), w))]
        return f"-- {title} --\n" + "\n".join(lines) + "\n"

    monkeypatch.setattr(cli, "Determinized", recorded)
    v = Fraction(p)
    cfg = ExplorationConfig(depth=k)
    for name in ("loop", "inc3", "halt"):
        a = build(load(name), LANG_ENCODING[semantics])
        f = tmp_path / f"{name}.pera"
        f.write_text(a.to_text())
        assert main(["lang", str(f), "-p", f"p={p}", "-k", str(k), "--semantics", semantics]) == 0
        body = strip_timings(capsys.readouterr().out)

        va = a.rescale(v.denominator).valuate({"p": v.numerator})
        ref = enumerate_language(va, cfg, semantics)
        if semantics == "maximal":
            title, flagged = "maximal finite", ref.maximal_finite_words
        else:
            title, flagged = "accepted", ref.accepted_words

        assert body.endswith(section("prefix", ref.prefix_words) + section(title, flagged))
        if not flagged:  # maximal at p = 0, and reach at k = 0
            assert body.endswith(f"-- {title} --\n\n")

        # printing builds, steps and flags no set that counting did not
        counted = Determinized(va, semantics)
        counted.counts(k)
        printed = built[-1]
        assert len(printed._sets) == len(counted._sets)
        assert printed._trans.keys() == counted._trans.keys()
        assert printed._flags.keys() == counted._flags.keys()


@pytest.mark.parametrize("semantics,k,digest", [
    ("maximal", 8, "6c724a42efbf1fe19c7916446e2f4a613fd750fca80212a1369ba35efb47d616"),
    ("reach", 6, "1c0b12b47f67376595d4b388bd749335b8a316783af2fcb3ee7380a3a1345c16"),
    ("safety", 6, "d9a008a9d5ed0c57f36a5e80150ccb505a56066e04ec8ef36a6518eb3917cf7d"),
])
def test_lang_report_bytes_are_pinned(tmp_path, capsys, semantics, k, digest):
    # SHA-256 of the report body after its `automaton:` line, which
    # names the temporary file; 2.7 MB for maximal at k = 8
    f = tmp_path / "loop.pera"
    f.write_text(build(loop(), LANG_ENCODING[semantics]).to_text())
    assert main(["lang", str(f), "-p", "p=2", "-k", str(k), "--semantics", semantics]) == 0
    path_line, rest = strip_timings(capsys.readouterr().out).split("\n", 1)
    assert path_line == f"automaton: {f}"
    assert hashlib.sha256(rest.encode()).hexdigest() == digest


def test_lang_buchi_output(tmp_path, loop_file, capsys):
    out = tmp_path / "b.pera"
    assert main(["encode", str(loop_file), "--variant", "buchi", "-o", str(out)]) == 0
    capsys.readouterr()
    code = main(["lang", str(out), "-p", "p=2", "-k", "6", "--semantics", "buchi"])
    assert code == 0
    text = capsys.readouterr().out
    assert "lassos:" in text and "-- lassos --" in text


def test_lang_buchi_finds_a_cycle_longer_than_the_recursion_limit(tmp_path, capsys):
    # one `a` ring over 1,500 locations, l0 accepting: the one lasso is
    # a cycle 1,500 steps deep, past Python's default recursion limit
    n = 1500
    ring = Pera.from_text(json.dumps({
        "actions": [{"action": "a", "clock": "x"}],
        "locations": [{"name": f"l{i}"} for i in range(n)],
        "initial": "l0",
        "accepting": ["l0"],
        "edges": [{"from": f"l{i}", "action": "a", "to": f"l{(i + 1) % n}"} for i in range(n)],
    }))
    f = tmp_path / "ring.pera"
    f.write_text(ring.to_text())
    assert main(["lang", str(f), "--semantics", "buchi", "-k", str(n)]) == 0
    body = strip_timings(capsys.readouterr().out).splitlines()
    assert "lassos: 1" in body
    assert body[body.index("-- lassos --") + 1] == " | " + " ".join(["a"] * n)


# a depth far past any level these languages reach: a run that walks
# every level up to it takes seconds to tens of seconds
DEEP = "10000000"


def one_action_automaton(tmp_path, edge, locations=("q", "r"), **fields):
    """`a` from q on `edge` (its "from", "to" and "guard"), written to a file."""
    f = tmp_path / "one.pera"
    f.write_text(json.dumps({
        "actions": [{"action": "a", "clock": "x"}],
        "locations": [{"name": loc} for loc in locations],
        "initial": "q",
        "edges": [{"from": "q", "action": "a", **edge}],
        **fields,
    }))
    return f


def deep_run(capsys, argv) -> list[str]:
    """The body of `argv`'s report at -k DEEP, after its `automaton:` line; under 2 s."""
    t0 = time.perf_counter()
    assert main([*argv, "-k", DEEP]) == 0
    assert time.perf_counter() - t0 < 2
    return strip_timings(capsys.readouterr().out).splitlines()[1:]


def test_lang_of_a_finite_language_stops_at_its_last_level(tmp_path, capsys):
    f = one_action_automaton(tmp_path, {"to": "r"})
    assert deep_run(capsys, ["lang", str(f)]) == [
        "valuation: (none)",
        f"semantics: maximal  depth: {DEEP}",
        "prefix words: 2",
        "maximal finite words: 1",
        "-- prefix --",
        "",
        "a",
        "-- maximal finite --",
        "a",
    ]


def test_compare_of_finite_languages_stops_at_their_last_level(tmp_path, capsys):
    f = one_action_automaton(tmp_path, {"to": "r", "guard": "x <= p"}, parameters=["p"])
    assert deep_run(capsys, ["compare", str(f), "-p", "p=1", "-p", "p=2"]) == [
        "valuation A: p=1",
        "valuation B: p=2",
        f"semantics: maximal  depth: {DEEP}",
        "A: prefix words: 2, maximal finite words: 1",
        "B: prefix words: 2, maximal finite words: 1",
        "verdict: equal up to bound",
    ]


def test_buchi_lang_of_a_self_loop_stops_at_its_last_level(tmp_path, capsys):
    f = one_action_automaton(tmp_path, {"to": "q"}, locations=("q",), accepting=["q"])
    assert deep_run(capsys, ["lang", str(f), "--semantics", "buchi"]) == [
        "valuation: (none)",
        f"semantics: buchi  depth: {DEEP}",
        "lassos: 1",
        "-- lassos --",
        " | a",
    ]


def test_lang_into_a_closed_pipe_exits_one_quietly(wrapped_loop_file):
    # the reader takes one line and leaves, as `peralab lang ... | head -1`
    src = Path(peralab.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    argv = [sys.executable, "-m", "peralab", "lang", str(wrapped_loop_file), "-p", "p=0", "-k", "8"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline().startswith(b"automaton: ")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    assert err == b""


# -- compare ---------------------------------------------------------------------


def test_compare_needs_two_valuations(wrapped_loop_file, capsys):
    assert main(["compare", str(wrapped_loop_file), "-p", "p=0"]) == 1
    assert "exactly two -p flags" in capsys.readouterr().err


def test_compare_differs(wrapped_loop_file, capsys):
    code = main(["compare", str(wrapped_loop_file), "-p", "p=0", "-p", "p=2", "-k", "8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "valuation A: p=0" in out and "valuation B: p=2" in out
    assert "A: prefix words: 87381, maximal finite words: 0" in out
    assert "verdict: differs; maximal finite witness [a_1 a_1 a_z a_2 a_t a_t] only on the B side" in out


def test_compare_deep_witness_without_enumeration(wrapped_loop_file, capsys):
    # 1,398,101 words per side: far too many to list within the budget
    t0 = time.perf_counter()
    code = main(["compare", str(wrapped_loop_file), "-p", "p=0", "-p", "p=3", "-k", "10"])
    dt = time.perf_counter() - t0
    assert code == 0
    out = capsys.readouterr().out
    assert "A: prefix words: 1398101, maximal finite words: 0" in out
    assert "B: prefix words: 1398101, maximal finite words: 16" in out
    assert ("verdict: differs; maximal finite witness "
            "[a_1 a_1 a_z a_2 a_t a_t a_z a_1 a_2 a_t] only on the B side") in out
    assert dt < 20


@pytest.mark.parametrize("argv,side", [
    (["compare", "PERA", "-p", "p=0", "-p", "p=3"], "B"),
    (["theorem-check", "MACHINE", "--values", "1,3"], "p=3"),
], ids=["compare", "theorem-check"])
def test_word_counts_past_the_digit_limit_print_their_size(wrapped_loop_file, loop_file, capsys,
                                                           argv, side):
    # at k = 20000 a side has about 2^40000 prefix words, more digits
    # than Python turns into a string
    argv = [{"PERA": str(wrapped_loop_file), "MACHINE": str(loop_file)}.get(a, a) for a in argv]
    assert main(argv + ["-k", "20000"]) == 0
    out = capsys.readouterr().out
    assert "prefix words: <40001-bit number>" in out
    assert ("verdict: differs; maximal finite witness "
            f"[a_1 a_1 a_z a_2 a_t a_t a_z a_1 a_2 a_t] only on the {side} side\n") in out


def test_compare_negative_value_names_the_parameter(wrapped_loop_file, capsys):
    assert main(["compare", str(wrapped_loop_file), "-p", "p=-1", "-p", "p=2"]) == 1
    err = capsys.readouterr().err
    assert "parameter 'p' must be a nonnegative rational" in err
    assert "0:p" not in err


def test_compare_equal(wrapped_loop_file, capsys):
    code = main(["compare", str(wrapped_loop_file), "-p", "p=2", "-p", "p=2", "-k", "5"])
    assert code == 0
    assert "verdict: equal up to bound" in capsys.readouterr().out


def test_compare_negative_value_after_a_missing_parameter(wrapped_loop_file, capsys):
    # every valuation's parameter names are checked before any value's sign
    assert main(["compare", str(wrapped_loop_file), "-p", "p=-1", "-p", "q=1"]) == 1
    assert capsys.readouterr().err == "error: no value given for parameter(s): p\n"


def test_compare_clears_both_valuations_with_one_scale(tmp_path, wrapped_loop_file, capsys):
    argv = ["compare", str(wrapped_loop_file), "-p", "p=1/2", "-p", "p=2/3", "-k", "5"]
    assert main(argv) == 0
    frac = strip_timings(capsys.readouterr().out).splitlines()
    assert "rescaled by 6 to clear denominators" in frac

    scaled = tmp_path / "scaled.pera"
    scaled.write_text(build(loop(), "wrapped").rescale(6).to_text())
    assert main(["compare", str(scaled), "-p", "p=3", "-p", "p=4", "-k", "5"]) == 0
    ints = strip_timings(capsys.readouterr().out).splitlines()
    # the semantics line, both sides' counts and the verdict
    assert frac[-4:] == ints[-4:]
    assert frac[-1] == "verdict: equal up to bound"


# two parameters: invariant x <= p, `a` guarded x >= q (so it fires only if q <= p), `b` x >= p-1
TWO_PARAMETERS = json.dumps({
    "actions": [{"action": "a", "clock": "x"}, {"action": "b", "clock": "y"}],
    "parameters": ["p", "q"],
    "locations": [{"name": "l", "invariant": "x <= p"}],
    "initial": "l",
    "edges": [{"from": "l", "guard": "x >= q", "action": "a", "to": "l"},
              {"from": "l", "guard": "x >= p-1", "action": "b", "to": "l"}],
})


def test_lang_clears_every_parameter_with_one_scale(tmp_path, capsys):
    f = tmp_path / "two.pera"
    f.write_text(TWO_PARAMETERS)
    assert main(["lang", str(f), "-p", "p=2/3,q=1/2", "-k", "3"]) == 0
    frac = strip_timings(capsys.readouterr().out).splitlines()
    assert frac[1:5] == ["valuation: p=2/3, q=1/2", "rescaled by 6 to clear denominators",
                         "semantics: maximal  depth: 3", "prefix words: 15"]

    scaled = tmp_path / "scaled.pera"
    scaled.write_text(Pera.from_text(TWO_PARAMETERS).rescale(6).to_text())
    assert main(["lang", str(scaled), "-p", "p=4,q=3", "-k", "3"]) == 0
    ints = strip_timings(capsys.readouterr().out).splitlines()
    assert frac[4:] == ints[3:]


# -- theorem-check ------------------------------------------------------------------


def test_theorem_check_halting_machine(inc3_file, capsys):
    code = main(["theorem-check", str(inc3_file), "--values", "2,3,5", "-k", "6"])
    assert code == 0
    out = capsys.readouterr().out
    assert "interpreter: halts after 3 steps" in out
    assert "encoding: wrapped  " in out
    assert "-- valuation p=2 --" in out and "-- valuation p=5 --" in out
    assert "verdict: consistent with halting" in out


def test_theorem_check_looping_machine(loop_file, capsys):
    code = main(["theorem-check", str(loop_file), "--values", "1,2", "-k", "8"])
    assert code == 0
    out = capsys.readouterr().out
    assert "interpreter: no halt within 1000 steps" in out
    assert "verdict: consistent with non-halting" in out


def test_theorem_check_reference_exhaustion_prints_no_report(loop_file, capsys):
    # the p = 0 reference is explored before the header, so running out
    # of nodes on it (it has 2 determinized sets) leaves stdout empty
    code = main(["theorem-check", str(loop_file), "--values", "1", "--node-limit", "1"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("resource exhaustion:")


def test_theorem_check_builds_one_reference_per_scale(loop_file, monkeypatch, capsys):
    built = []
    init = Determinized.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Determinized, "__init__", counting_init)
    code = main(["theorem-check", str(loop_file), "--values", "1/2,3/2,5/2", "-k", "6"])
    assert code == 0
    assert capsys.readouterr().out.count("rescaled by 2 to clear denominators") == 3
    # p = 0 once, at scale 1, and the three values at scale 2
    assert len(built) == 4


def test_theorem_check_witnesses_match_compare_at_each_scale(loop_file, wrapped_loop_file, capsys):
    # the p = 0 reference is built at scale 1 only; every witness must
    # still be the one compare finds against p = 0 at the value's scale
    values = ["1/2", "1/3", "2/5"]
    assert main(["theorem-check", str(loop_file), "--values", ",".join(values), "-k", "6"]) == 0
    body = strip_timings(capsys.readouterr().out)
    got = [line for line in body.splitlines() if line.startswith("verdict: differs")]
    want = []
    for v in values:
        argv = ["compare", str(wrapped_loop_file), "-p", "p=0", "-p", f"p={v}", "-k", "6"]
        assert main(argv) == 0
        out = strip_timings(capsys.readouterr().out)
        assert f"rescaled by {Fraction(v).denominator} to clear denominators" in out
        verdict = next(line for line in out.splitlines() if line.startswith("verdict: "))
        want.append(verdict.replace("on the A side", "on the reference side")
                    .replace("on the B side", f"on the p={v} side"))
    assert len(got) == 3
    assert got == want


@pytest.mark.parametrize("values,verdicts", [
    ("1,2", ["verdict: differs; prefix witness [a_1 a_1 a_1 a_3] only on the p=1 side",
             "verdict: inconclusive (some valuations exhausted resources)"]),
    ("2,5", ["verdict: equal up to bound", "verdict: consistent with halting"]),
])
def test_theorem_check_verdict_with_an_exhausted_value(inc3_file, capsys, values, verdicts):
    # at k = 8 the p = 0, 1, 2 and 5 walks build 2, 6, 17 and 12
    # determinized sets (over the zone graph with inactive clocks freed),
    # so a limit of 14 runs out on p = 2 alone
    argv = ["theorem-check", str(inc3_file), "--values", values, "--semantics", "reach",
            "--node-limit", "14"]
    assert main(argv) == 0
    body = strip_timings(capsys.readouterr().out).splitlines()
    exhausted = body.index("-- valuation p=2 --") + 1
    assert body[exhausted] == "resource exhaustion: language walk exceeded 14 determinized states"
    assert [line for line in body if line.startswith("verdict: ")] == verdicts


@pytest.mark.parametrize("semantics,encoding", [("reach", "buchi"), ("safety", "safety")])
def test_theorem_check_picks_encoding_from_semantics(inc3_file, capsys, semantics, encoding):
    argv = ["theorem-check", str(inc3_file), "--values", "1,2,5", "-k", "6", "--semantics", semantics]
    assert main(argv) == 0
    body = capsys.readouterr().out.split(TIMING_HEADER)[0]
    assert f"encoding: {encoding}  " in body
    verdicts = [line for line in body.splitlines() if line.startswith("verdict: ")]
    assert len(verdicts) == 4
    assert verdicts[0].startswith("verdict: differs; prefix witness [")
    assert verdicts[0].endswith("only on the p=1 side")
    assert verdicts[1].startswith("verdict: differs; prefix witness [")
    assert verdicts[1].endswith("only on the p=2 side")
    assert verdicts[2:] == ["verdict: equal up to bound", "verdict: consistent with halting"]


def test_theorem_check_rejects_buchi(inc3_file, capsys):
    argv = ["theorem-check", str(inc3_file), "--values", "1", "--semantics", "buchi"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "invalid choice: 'buchi'" in captured.err
    assert "verdict:" not in captured.out


def test_theorem_check_empty_values(inc3_file, capsys):
    assert main(["theorem-check", str(inc3_file), "--values", " "]) == 1
    assert "at least one rational" in capsys.readouterr().err


@pytest.mark.parametrize("values", ["1,,2", "1,"])
def test_theorem_check_rejects_an_empty_value(inc3_file, capsys, values):
    assert main(["theorem-check", str(inc3_file), "--values", values]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --values has an empty item in {values!r}\n"


@pytest.mark.parametrize("values", ["0", "1,0"])
def test_theorem_check_rejects_a_zero_value(loop_file, capsys, values):
    # p = 0 against the p = 0 reference is always equal, which would
    # read as a halting verdict for a machine that never halts
    assert main(["theorem-check", str(loop_file), "--values", values]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--values must be positive" in captured.err


@pytest.mark.parametrize("values,shown", [("1,1", "p=1"), ("2,4/2", "p=2"), ("1/2,3,2/4", "p=1/2")])
def test_theorem_check_rejects_a_repeated_value(loop_file, capsys, values, shown):
    # values are compared as rationals, so 2 and 4/2 are the same one
    assert main(["theorem-check", str(loop_file), "--values", values, "-k", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --values gives {shown} more than once\n"


def test_theorem_check_zero_denominator_exits_one(inc3_file, capsys):
    assert main(["theorem-check", str(inc3_file), "--values", "2,1/0"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert "verdict:" not in captured.out


@pytest.mark.parametrize("item,reason", [
    ("p=3", "Invalid literal for Fraction: 'p=3'"),
    ("1/0", "zero denominator"),
    ("nan", "Invalid literal for Fraction: 'nan'"),
], ids=["p=3", "1/0", "nan"])
def test_theorem_check_bad_value_quotes_the_item_as_typed(inc3_file, capsys, item, reason):
    # the item is parsed as the valuation `p=<item>`, which the message must not show
    assert main(["theorem-check", str(inc3_file), "--values", f"2,{item}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad value in {item!r}: {reason}\n"


# -- bounds on numeric options ------------------------------------------------------


def test_negative_depth_rejected(wrapped_loop_file, inc3_file, capsys):
    runs = (
        ["lang", str(wrapped_loop_file), "-p", "p=0", "-k", "-3"],
        ["compare", str(wrapped_loop_file), "-p", "p=0", "-p", "p=1", "--depth", "-1"],
        ["theorem-check", str(inc3_file), "--values", "2", "-k", "-1"],
    )
    for argv in runs:
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "-k/--depth must be at least 0" in captured.err
        assert "depth:" not in captured.out


def test_negative_steps_rejected(inc3_file, capsys):
    assert main(["simulate-2cm", str(inc3_file), "--steps", "-2"]) == 1
    assert "--steps must be at least 0" in capsys.readouterr().err


def test_node_limit_below_one_rejected(wrapped_loop_file, capsys):
    assert main(["lang", str(wrapped_loop_file), "-p", "p=0", "--node-limit", "0"]) == 1
    assert "--node-limit must be at least 1" in capsys.readouterr().err


# -- malformed input ------------------------------------------------------------------


def test_usage_errors_exit_one(wrapped_loop_file, capsys):
    runs = (
        ["lang", str(wrapped_loop_file), "-p", "p=0", "-k", "abc"],
        ["lang", str(wrapped_loop_file), "-p", "p=0", "--frobnicate"],
    )
    for argv in runs:
        assert main(argv) == 1
        assert "usage: peralab" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "usage: peralab" in capsys.readouterr().out


COMMANDS = ("encode", "lang", "compare", "theorem-check", "simulate-2cm")


@pytest.mark.parametrize("argv", [
    *([command, "-h"] for command in COMMANDS),
    ["lang", "F", "-k", "abc"],
    ["compare", "F", "--semantics", "bogus"],
    ["theorem-check", "M"],
    ["lang"],
    # the tree reports a leftover argument under its own usage, not the command's
    ["lang", "F", "-p", "p=0", "--frobnicate"],
    ["--help"],
    [],
    ["bogus"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_a_usage_error_or_help_reads_as_the_whole_tree_gives_it(argv, capsys):
    with pytest.raises(SystemExit) as tree_exit:
        cli._build_parser().parse_args(argv)
    tree = (1 if tree_exit.value.code else 0, *capsys.readouterr())   # main's exit codes
    assert (main(argv), *capsys.readouterr()) == tree


@pytest.mark.parametrize("argv", [
    ["encode", "M", "--variant", "wrapped", "-o", "out.pera"],
    ["lang", "F", "-p", "p=1/2", "--semantics", "buchi", "-k", "3"],
    ["compare", "F", "-p", "p=0", "-p", "p=1", "--node-limit", "9"],
    ["theorem-check", "M", "--values", "1,2", "--semantics", "reach"],
    ["simulate-2cm", "M", "--steps", "4"],
    ["lang", "--", "-F"],
], ids=" ".join)
def test_a_well_formed_run_parses_as_the_tree_does_without_building_it(argv, monkeypatch):
    tree = cli._build_parser().parse_args(argv)
    monkeypatch.setattr(cli, "_build_parser", None)
    assert cli._parse(argv) == tree


def test_main_without_arguments_reads_sys_argv(inc3_file, monkeypatch, capsys):
    argv = ["simulate-2cm", str(inc3_file), "--steps", "3"]
    assert main(argv) == 0
    expected = capsys.readouterr()
    monkeypatch.setattr(sys, "argv", ["peralab", *argv])
    assert main() == 0
    assert capsys.readouterr() == expected


NUMERIC_INVARIANT = json.dumps({
    "actions": [{"action": "a", "clock": "x"}],
    "locations": [{"name": "l", "invariant": 5}],
    "initial": "l",
    "edges": [],
})


def one_location_document(**fields) -> str:
    doc = {"actions": [{"action": "a", "clock": "x"}], "locations": [{"name": "l"}],
           "initial": "l", "edges": [{"from": "l", "action": "a", "to": "l"}]}
    return json.dumps({**doc, **fields})


MALFORMED = {
    "top-level-list": ("[]", "expected a JSON object"),
    "numeric-invariant": (NUMERIC_INVARIANT, "expected a guard string"),
    # `lang` sorts and joins names, so a name must be a string
    "integer-action": (one_location_document(
        actions=[{"action": 1, "clock": "x"}, {"action": "b", "clock": "y"}],
        edges=[{"from": "l", "action": 1, "to": "l"}, {"from": "l", "action": "b", "to": "l"}],
    ), "action: 1 is not a string"),
    "integer-parameter": (one_location_document(parameters=[1]), "parameters: 1 is not a string"),
    # a bare string is not a list of one-letter names
    "string-parameters": (one_location_document(parameters="pq"), "is not a list"),
    "string-accepting": (one_location_document(accepting="l"), "is not a list"),
    # each distinct guard text is parsed once, and a repeated bad one still fails
    "repeated-malformed-guard": (one_location_document(
        edges=[{"from": "l", "guard": "x <", "action": "a", "to": "l"}] * 2,
    ), "cannot parse atom 'x <'"),
    "repeated-list-guard": (one_location_document(
        edges=[{"from": "l", "guard": ["x < 1"], "action": "a", "to": "l"}] * 2,
    ), "expected a guard string, got ['x < 1']"),
    # a report joins a word's actions with spaces, so `a b` could print as two actions
    "empty-action": (one_location_document(
        actions=[{"action": "", "clock": "x"}], edges=[{"from": "l", "action": "", "to": "l"}],
    ), "action '' is empty or holds a space"),
    "spaced-action": (one_location_document(
        actions=[{"action": "a", "clock": "x"}, {"action": "a b", "clock": "y"}],
    ), "action 'a b' is empty or holds a space"),
}


@pytest.mark.parametrize("doc,message", list(MALFORMED.values()), ids=list(MALFORMED))
def test_malformed_automaton_document_exits_one(tmp_path, capsys, doc, message):
    f = tmp_path / "bad.pera"
    f.write_text(doc)
    assert main(["lang", str(f)]) == 1   # a ModelError, not an AttributeError traceback
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err


def test_deeply_nested_automaton_document_exits_one(tmp_path, capsys):
    f = tmp_path / "deep.pera"
    f.write_text("[" * 100_000)
    assert main(["lang", str(f), "-p", "p=0"]) == 1   # not a RecursionError traceback
    err = capsys.readouterr().err
    assert err.startswith("error: not valid JSON")


# one location: invariant x <= p, an `a` self-loop guarded x >= p+1
NEVER_FIRES = Pera.from_text(json.dumps({
    "actions": [{"action": "a", "clock": "x"}],
    "parameters": ["p"],
    "locations": [{"name": "l", "invariant": "x <= p"}],
    "initial": "l",
    "edges": [{"from": "l", "guard": "x >= p+1", "action": "a", "to": "l"}],
})).to_text()


def test_constant_too_large_for_a_zone_bound_exits_one(tmp_path, capsys):
    f = tmp_path / "never.pera"
    f.write_text(NEVER_FIRES)
    assert main(["lang", str(f), "-p", "p=5", "-k", "2"]) == 0
    body = capsys.readouterr().out.split(TIMING_HEADER)[0]
    assert "prefix words: 1\n" in body and "\na\n" not in body
    # 2^39 is one past `zones.MAX_BOUND`, the largest constant a zone
    # bound carries; the bound x <= p must not vanish, listing `a` and `a a`
    assert main(["lang", str(f), "-p", "p=549755813888", "-k", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: constant 549755813888 in x <= 549755813888")
    assert "too large for a zone bound" in captured.err
    assert captured.out == ""


def test_constant_too_large_after_rescaling_exits_one(tmp_path, capsys):
    f = tmp_path / "never.pera"
    f.write_text(NEVER_FIRES)
    # 2^38 is small enough alone, but clearing the half doubles it
    argv = ["compare", str(f), "-p", "p=274877906944", "-p", "p=1/2", "-k", "2"]
    assert main(argv) == 1
    assert "too large for a zone bound" in capsys.readouterr().err


# `l` (invariant x <= 1) fires its `a` self-loop at x = 1; `dead`, never
# entered, has an `a` self-loop guarded x <= p
DEAD_EDGE = Pera.from_text(json.dumps({
    "actions": [{"action": "a", "clock": "x"}],
    "parameters": ["p"],
    "locations": [{"name": "l", "invariant": "x <= 1"}, {"name": "dead"}],
    "initial": "l",
    "edges": [{"from": "l", "guard": "x = 1", "action": "a", "to": "l"},
              {"from": "dead", "guard": "x <= p", "action": "a", "to": "dead"}],
})).to_text()


@pytest.mark.parametrize("argv", [
    ["lang", "-p", "p=549755813888"],
    ["compare", "-p", "p=549755813888", "-p", "p=1"],
    ["compare", "-p", "p=1", "-p", "p=549755813888"],
], ids=["lang", "compare-A", "compare-B"])
def test_constant_on_a_never_fired_edge_exits_one(tmp_path, capsys, argv):
    f = tmp_path / "dead.pera"
    f.write_text(DEAD_EDGE)
    # every constant is checked where the zones are built, not only the reached ones
    assert main([argv[0], str(f), *argv[1:], "-k", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: constant 549755813888 in x <= 549755813888")
    assert captured.out == ""


def test_never_fired_edge_in_range_lists_words(tmp_path, capsys):
    f = tmp_path / "dead.pera"
    f.write_text(DEAD_EDGE)
    assert main(["lang", str(f), "-p", "p=5", "-k", "2"]) == 0
    body = capsys.readouterr().out.split(TIMING_HEADER)[0]
    assert "prefix words: 3\n" in body
    assert body.endswith("-- prefix --\n\na\na a\n-- maximal finite --\n\n")


def test_theorem_check_checks_every_constant_before_the_report(loop_file, capsys):
    # 10^12 is past the zone-bound ceiling; the p = 2 section used to be
    # printed before the error
    assert main(["theorem-check", str(loop_file), "--values", "2,1e12", "-k", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: constant 1000000000000 in ")
    assert "too large for a zone bound (at most 549755813887, after rescaling)" in captured.err


@pytest.mark.parametrize("argv,error", [
    (["lang", "PERA", "-p", "p=1e5000"], "TOO_LARGE"),
    (["lang", "PERA", "-p", "p=1e-5000"], "TOO_LARGE"),
    (["compare", "PERA", "-p", "p=0", "-p", "p=1e5000"], "TOO_LARGE"),
    (["theorem-check", "MACHINE", "--values", "1e5000"],
     "error: --values item '1e5000' has too many digits for a zone bound\n"),
    (["theorem-check", "MACHINE", "--values", "1e-5000"],
     "error: --values item '1e-5000' has too many digits for a zone bound\n"),
], ids=["lang", "lang-rescaled", "compare", "theorem-check", "theorem-check-rescaled"])
def test_a_value_too_long_to_print_names_the_bound(tmp_path, loop_file, capsys, argv, error):
    # 10^5000 has more digits than Python turns into a string by default,
    # so the message must come from the zone bound, not the conversion
    pera = tmp_path / "loop.buchi.pera"
    pera.write_text(build(loop(), "buchi").to_text())
    argv = [{"PERA": str(pera), "MACHINE": str(loop_file)}.get(a, a) for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    if error == "TOO_LARGE":
        assert captured.err.startswith("error: constant <16610-bit number> in ")
        assert captured.err.endswith(
            " is too large for a zone bound (at most 549755813887, after rescaling)\n"
        )
    else:
        assert captured.err == error


# -- simulate-2cm ----------------------------------------------------------------------


def test_simulate_halting(inc3_file, capsys):
    assert main(["simulate-2cm", str(inc3_file), "--steps", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [
        "step 0: s0 c1=0 c2=0",
        "step 1: s1 c1=1 c2=0",
        "step 2: s2 c1=2 c2=0",
        "step 3: sh c1=3 c2=0",
        "halted after 3 steps",
    ]


def test_simulate_rejects_a_repeated_header(tmp_path, capsys):
    f = tmp_path / "twice.2cm"
    f.write_text("init: s0\ninit: s1\nhalt: sh\ns0: inc c1 goto sh\ns1: inc c2 goto sh\n")
    assert main(["simulate-2cm", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: line 2: a second 'init:' header\n"
    assert captured.out == ""


def test_simulate_budget_exhausted(loop_file, capsys):
    assert main(["simulate-2cm", str(loop_file), "--steps", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len([l for l in lines if l.startswith("step ")]) == 6
    assert lines[-1] == "not halted within 5 steps"


def test_simulate_zero_budget(loop_file, capsys):
    assert main(["simulate-2cm", str(loop_file), "--steps", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "step 0: s0 c1=0 c2=0"
    assert lines[-1] == "not halted within 0 steps"


class PipeGoneAfter(io.StringIO):
    """A stdout whose reader goes away after `lines` lines."""

    def __init__(self, lines: int, fd: int):
        super().__init__()
        self.left = lines
        self.fd = fd

    def write(self, text):
        if self.left <= 0:
            raise BrokenPipeError
        self.left -= text.count("\n")
        return super().write(text)

    def fileno(self):
        return self.fd


def test_simulate_streams_and_stops_at_a_closed_pipe(loop_file, tmp_path, monkeypatch):
    steps = []
    step = minsky.step
    monkeypatch.setattr(minsky, "step", lambda m, cfg: steps.append(cfg) or step(m, cfg))
    with open(tmp_path / "stdout", "w") as sink:
        monkeypatch.setattr(sys, "stdout", PipeGoneAfter(3, sink.fileno()))
        assert main(["simulate-2cm", str(loop_file), "--steps", "3000000"]) == 1
    assert len(steps) <= 5
