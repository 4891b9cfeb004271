"""Command-line front end.

Subcommands cover the full pipeline: compile a counter machine to an
automaton (encode), enumerate one valuation's language (lang), compare
two valuations (compare), run the halting-dichotomy experiment
(theorem-check), and step the machine interpreter itself
(simulate-2cm).  Reports are deterministic; wall-clock timings live in
a delimited footer so golden tests can strip them.

Exit codes: 0 success, 1 input or model error, 2 resource exhaustion.
A reader that closes stdout early (`peralab lang ... | head`) ends the
run with exit 1 and no message.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from .core import ModelError, Pera, integerize, parse_valuation
from .encoder import VARIANTS, build
from .language import FLAG_LABEL, SEMANTICS, Determinized, lassos, lassos_text
from .language import compare as compare_samples
from .minsky import parse_machine, run
from .semantics import ExplorationConfig, ResourceExhausted, check_zone_bounds

TIMING_HEADER = "--- timings ---"


@contextmanager
def _timed(rows: list[tuple[str, float]], label: str):
    """Append (label, seconds) to `rows` when the block ends, however it ends."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        rows.append((label, time.perf_counter() - t0))


def _footer(rows: list[tuple[str, float]]) -> str:
    return "\n".join([TIMING_HEADER, *(f"{label}: {dt:.3f}s" for label, dt in rows)])


def _read_machine(path: str):
    return parse_machine(Path(path).read_text(), name=Path(path).stem)


def _read_pera(path: str) -> Pera:
    return Pera.from_text(Path(path).read_text())


def _parse_valuation_flag(flag: str) -> dict[str, Fraction]:
    return parse_valuation([part.strip() for part in flag.split(",")])


def _valuate_rescaled(a: Pera, *valuations: dict[str, Fraction]):
    """Valuate under a common integer scale; returns (scale, list of Peras)."""
    merged: dict[str, Fraction] = {}
    for i, v in enumerate(valuations):
        integerize(v)  # rejects a negative value under the user's parameter name
        for name, x in v.items():
            merged[f"{i}:{name}"] = x
    ints, scale = integerize(merged)
    scaled = a.rescale(scale) if scale != 1 else a
    out = []
    for i, v in enumerate(valuations):
        out.append(scaled.valuate({name: ints[f"{i}:{name}"] for name in v}))
    return scale, out


def _check_parameters(a: Pera, vals: dict[str, Fraction]) -> None:
    missing = [p for p in a.parameters if p not in vals]
    if missing:
        raise ModelError(f"no value given for parameter(s): {', '.join(missing)}")
    extra = [p for p in vals if p not in a.parameters]
    if extra:
        raise ModelError(f"valuation names unknown parameter(s): {', '.join(extra)}")


def _fmt_valuation(vals: dict[str, Fraction]) -> str:
    return ", ".join(f"{k}={v}" for k, v in sorted(vals.items()))


def _sample_stats(semantics: str, counts: tuple[int, ...]) -> list[str]:
    if semantics == "buchi":
        return [f"lassos: {counts[0]}"]
    return [f"prefix words: {counts[0]}", f"{FLAG_LABEL[semantics]} words: {counts[1]}"]


def _observe(a: Pera, cfg: ExplorationConfig, semantics: str):
    """What `lang` and `compare` observe of `a`, with its counts.

    Büchi semantics gives the lasso set.  The others give the
    determinized automaton, counted level by level, which expands every
    state set a comparison or a word listing can visit, so running out
    of nodes happens here and not halfway through a report.
    """
    if semantics == "buchi":
        found = lassos(a, cfg)
        return found, (len(found),)
    det = Determinized(a, cfg, semantics)
    return det, det.counts()


def _print_words(det: Determinized, flagged_count: int) -> None:
    """The prefix and the flagged word sections, one line per word.

    Both sections are written by one `writelines` call each over
    `det.lines()`, the breadth-first walk that builds each line from
    its parent's and comes in (length, word) order.  The flagged walk
    only enters sets from which a flagged set is still reachable, so a
    handful of flagged words costs a handful of paths, not a second
    walk of every prefix word.  The prefix words always hold the empty
    word; an empty flagged section prints as a blank line.
    """
    print("-- prefix --")
    sys.stdout.writelines(det.lines())
    print(f"-- {FLAG_LABEL[det.semantics]} --")
    sys.stdout.writelines(det.lines(flagged=True) if flagged_count else ("\n",))


# -- subcommands ---------------------------------------------------------


def cmd_encode(args) -> int:
    m = _read_machine(args.machine)
    a = build(m, args.variant)
    out = Path(args.output) if args.output else Path(f"{Path(args.machine).stem}.{args.variant}.pera")
    out.write_text(a.to_text())
    print(f"wrote {out}: {len(a.locations)} locations, {len(a.edges)} edges")
    return 0


def cmd_lang(args) -> int:
    timings: list[tuple[str, float]] = []
    with _timed(timings, "parse"):
        a = _read_pera(args.pera)
        vals = _parse_valuation_flag(args.valuation) if args.valuation else {}
        _check_parameters(a, vals)
        scale, (va,) = _valuate_rescaled(a, vals)
    cfg = ExplorationConfig(depth=args.depth, node_limit=args.node_limit)
    with _timed(timings, "enumerate"):
        obs, counts = _observe(va, cfg, args.semantics)
    print(f"automaton: {args.pera}")
    print(f"valuation: {_fmt_valuation(vals) or '(none)'}")
    if scale != 1:
        print(f"rescaled by {scale} to clear denominators")
    print(f"semantics: {args.semantics}  depth: {args.depth}")
    for line in _sample_stats(args.semantics, counts):
        print(line)
    if args.semantics == "buchi":
        print("-- lassos --")
        print(lassos_text(obs), end="")
    else:
        _print_words(obs, counts[1])
    print(_footer(timings))
    return 0


def cmd_compare(args) -> int:
    timings: list[tuple[str, float]] = []
    if len(args.valuation) != 2:
        raise ModelError("compare needs exactly two -p flags (valuation A and valuation B)")
    with _timed(timings, "parse"):
        a = _read_pera(args.pera)
        va_flag, vb_flag = (_parse_valuation_flag(f) for f in args.valuation)
        _check_parameters(a, va_flag)
        _check_parameters(a, vb_flag)
        scale, (va, vb) = _valuate_rescaled(a, va_flag, vb_flag)
    cfg = ExplorationConfig(depth=args.depth, node_limit=args.node_limit)
    with _timed(timings, "explore A"):
        sa, counts_a = _observe(va, cfg, args.semantics)
    with _timed(timings, "explore B"):
        sb, counts_b = _observe(vb, cfg, args.semantics)
    with _timed(timings, "compare"):
        res = compare_samples(sa, sb)
    print(f"automaton: {args.pera}")
    print(f"valuation A: {_fmt_valuation(va_flag)}")
    print(f"valuation B: {_fmt_valuation(vb_flag)}")
    if scale != 1:
        print(f"rescaled by {scale} to clear denominators")
    print(f"semantics: {args.semantics}  depth: {args.depth}")
    for side, counts in (("A", counts_a), ("B", counts_b)):
        print(f"{side}: " + ", ".join(_sample_stats(args.semantics, counts)))
    print("verdict: " + res.text("A", "B"))
    print(_footer(timings))
    return 0


# the encoding theorem-check builds for each semantics
_THEOREM_ENCODING = {"maximal": "wrapped", "reach": "buchi", "safety": "safety"}


def cmd_theorem_check(args) -> int:
    timings: list[tuple[str, float]] = []
    variant = _THEOREM_ENCODING[args.semantics]
    with _timed(timings, "encode"):
        m = _read_machine(args.machine)
        a = build(m, variant)
    probe = run(m, 1000)
    halt_note = (
        f"halts after {probe.steps_taken} steps"
        if probe.halted
        else "no halt within 1000 steps"
    )
    values = [parse_valuation([f"p={v}"])["p"] for v in args.values.split(",") if v.strip()]
    if not values:
        raise ModelError("--values must list at least one rational")
    if min(values) <= 0:
        raise ModelError(f"--values must be positive, got {min(values)}; p=0 is the reference")
    repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
    if repeated is not None:
        raise ModelError(f"--values gives p={repeated} more than once")
    # every valuation is built and its constants checked before the report starts
    valuated = [_valuate_rescaled(a, {"p": v}) for v in values]
    for _, (va,) in valuated:
        check_zone_bounds(va)
    cfg = ExplorationConfig(depth=args.depth, node_limit=args.node_limit)
    # Multiplying every constant by one positive factor leaves the
    # untimed language as it is (Alur & Dill, TCS 1994), so the p = 0
    # reference at scale 1 stands for p = 0 at every scale.  It is
    # explored before the report starts, so running out of nodes on it
    # prints no partial report.
    with _timed(timings, "explore p=0"):
        ref, _ = _observe(a.valuate({"p": 0}), cfg, args.semantics)

    print(f"machine: {m.name}  states: {len(m.states)}  initial: {m.initial}  halt: {m.halt}")
    print(f"interpreter: {halt_note}")
    print(f"encoding: {variant}  locations: {len(a.locations)}  edges: {len(a.edges)}")
    print("reference valuation: p=0")
    print(f"semantics: {args.semantics}  depth: {args.depth}")
    any_equal = False
    all_differ = True
    for v, (scale, (va,)) in zip(values, valuated):
        label = f"p={v}"
        print(f"-- valuation {label} --")
        try:
            with _timed(timings, f"explore {label}"):
                s, counts = _observe(va, cfg, args.semantics)
        except ResourceExhausted as exc:
            print(f"resource exhaustion: {exc}")
            all_differ = False
            continue
        if scale != 1:
            print(f"rescaled by {scale} to clear denominators")
        for line in _sample_stats(args.semantics, counts):
            print(line)
        with _timed(timings, f"compare {label}"):
            res = compare_samples(ref, s)
        print("verdict: " + res.text("reference", label))
        if res.equal:
            any_equal = True
            all_differ = False
    if any_equal:
        print("verdict: consistent with halting")
    elif all_differ:
        print("verdict: consistent with non-halting")
    else:
        print("verdict: inconclusive (some valuations exhausted resources)")
    print(_footer(timings))
    return 0


def cmd_simulate_2cm(args) -> int:
    m = _read_machine(args.machine)
    result = run(m, args.steps)
    print(f"machine: {m.name}  states: {len(m.states)}  initial: {m.initial}  halt: {m.halt}")
    for i, (state, c1, c2) in enumerate(result.configs):
        print(f"step {i}: {state} c1={c1} c2={c2}")
    if result.halted:
        print(f"halted after {result.steps_taken} steps")
    else:
        print(f"not halted within {args.steps} steps")
    return 0


# -- wiring ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="peralab",
        description="workbench for parametric event-recording automata",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="compile a counter machine to an automaton")
    enc.add_argument("machine", help="machine description file")
    enc.add_argument("--variant", choices=VARIANTS, default="plain")
    enc.add_argument("-o", "--output", help="output path (default: <machine>.<variant>.pera)")
    enc.set_defaults(fn=cmd_encode)

    lang = sub.add_parser("lang", help="enumerate one valuation's language")
    lang.add_argument("pera", help="serialized automaton file")
    lang.add_argument("-p", "--valuation", help="parameter values, e.g. p=2 or p=1/2")
    lang.add_argument("-k", "--depth", type=int, default=8)
    lang.add_argument("--semantics", choices=SEMANTICS, default="maximal")
    lang.add_argument("--node-limit", type=int, default=200_000)
    lang.set_defaults(fn=cmd_lang)

    cmp_ = sub.add_parser("compare", help="compare two valuations of one automaton")
    cmp_.add_argument("pera", help="serialized automaton file")
    cmp_.add_argument("-p", "--valuation", action="append", default=[],
                      help="give twice: valuation A, then valuation B")
    cmp_.add_argument("-k", "--depth", type=int, default=8)
    cmp_.add_argument("--semantics", choices=SEMANTICS, default="maximal")
    cmp_.add_argument("--node-limit", type=int, default=200_000)
    cmp_.set_defaults(fn=cmd_compare)

    thm = sub.add_parser("theorem-check", help="halting-dichotomy experiment on a machine")
    thm.add_argument("machine", help="machine description file")
    thm.add_argument("--values", required=True, help="comma list of p values, e.g. 1,2,3,4")
    thm.add_argument("-k", "--depth", type=int, default=8)
    thm.add_argument("--semantics", choices=tuple(_THEOREM_ENCODING), default="maximal")
    thm.add_argument("--node-limit", type=int, default=200_000)
    thm.set_defaults(fn=cmd_theorem_check)

    sim = sub.add_parser("simulate-2cm", help="step the counter-machine interpreter")
    sim.add_argument("machine", help="machine description file")
    sim.add_argument("--steps", type=int, default=10)
    sim.set_defaults(fn=cmd_simulate_2cm)

    return ap


# (flag, argparse attribute, least accepted value)
_FLAG_MINIMUMS = (
    ("-k/--depth", "depth", 0),
    ("--steps", "steps", 0),
    ("--node-limit", "node_limit", 1),
)


def _check_bounds(args) -> None:
    for flag, attr, least in _FLAG_MINIMUMS:
        value = getattr(args, attr, None)
        if value is not None and value < least:
            raise ValueError(f"{flag} must be at least {least}, got {value}")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage message; its own exit code 2
        # would read as resource exhaustion, so a usage error exits 1
        return 1 if exc.code else 0
    try:
        _check_bounds(args)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except ResourceExhausted as exc:
        print(f"resource exhaustion: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout's reader is gone; point the descriptor at devnull so the
        # flush at interpreter exit does not fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ModelError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
