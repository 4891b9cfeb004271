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
import math
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from .core import ModelError, Pera, number_text, parse_valuation
from .encoder import VARIANTS, build
from .language import FLAG_LABEL, SEMANTICS, Determinized, Lassos
from .language import compare as compare_samples
from .minsky import parse_machine, run, trace
from .semantics import NODE_LIMIT, ResourceExhausted

TIMING_HEADER = "--- timings ---"
DEPTH = 8   # the default -k: words, stems and cycles of at most 8 actions


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


def _valuate(a: Pera, flags: list[str | None]):
    """Parse each `-p` flag (None: no flag) and valuate `a` at all of them under one scale.

    Returns (scale, parsed valuations, valuated automata).  Every
    valuation must name exactly `a`'s parameters, which is checked for
    all of them before any value's sign.  The scale is the lcm of every
    denominator: multiplying every constant by one positive factor
    leaves the untimed language as it is (Alur & Dill, TCS 1994).
    """
    valuations = [
        {} if flag is None else parse_valuation([part.strip() for part in flag.split(",")])
        for flag in flags
    ]
    for vals in valuations:
        missing = [p for p in a.parameters if p not in vals]
        if missing:
            raise ModelError(f"no value given for parameter(s): {', '.join(missing)}")
        extra = [p for p in vals if p not in a.parameters]
        if extra:
            raise ModelError(f"valuation names unknown parameter(s): {', '.join(extra)}")
    for vals in valuations:
        for name, x in vals.items():
            if x < 0:
                raise ModelError(f"parameter {name!r} must be a nonnegative rational")
    scale = math.lcm(*(x.denominator for vals in valuations for x in vals.values()))
    return scale, valuations, [
        a.valuate({name: int(x * scale) for name, x in vals.items()}, scale) for vals in valuations
    ]


def _observe(a: Pera, args):
    """What `lang` and `compare` observe of `a`: (observation, count lines, flagged count).

    Büchi semantics gives, for `compare`, the lasso walk, with no count
    lines, as the comparison counts what it reads; for `lang`, the lasso
    listing's report lines, whose flagged count is the number of lassos.
    Either way the zone graph is built here, and for `lang` the cycle
    search runs here too; `compare` runs its walk before its first line.
    The others give the determinized automaton, counted level by level
    to `args.depth`, which expands every state set a comparison or a
    word listing can visit.  So running out of nodes, sets or cycle
    words happens before a report starts.
    """
    if args.semantics == "buchi":
        if args.command == "compare":
            return Lassos(a, args.depth, args.node_limit), [], 0
        held, lines = Lassos(a, args.depth, args.node_limit).listing()
        return lines, [f"lassos: {held}"], held
    det = Determinized(a, args.semantics, args.node_limit)
    prefix, flagged = det.counts(args.depth)
    label = FLAG_LABEL[args.semantics]
    return det, [f"prefix words: {number_text(prefix)}", f"{label} words: {number_text(flagged)}"], flagged


def _explore(args, timings, flags: list[str | None], sides: tuple[tuple[str, str], ...]):
    """`_observe`'s result per flag, for `lang` and `compare`, and the report header's lines.

    `args.pera` is valuated at every flag and each valuation observed
    under its (header name, timing label) in `sides`; nothing is
    printed, so a failure prints no partial report.
    """
    with _timed(timings, "parse"):
        a = Pera.from_text(Path(args.pera).read_text())
        scale, valuations, valuated = _valuate(a, flags)
    observed = []
    for (_, label), va in zip(sides, valuated):
        with _timed(timings, label):
            observed.append(_observe(va, args))
    header = [f"automaton: {args.pera}"]
    for (name, _), vals in zip(sides, valuations):
        header.append(f"{name}: " + (", ".join(f"{k}={v}" for k, v in sorted(vals.items())) or "(none)"))
    if scale != 1:
        header.append(f"rescaled by {scale} to clear denominators")
    header.append(f"semantics: {args.semantics}  depth: {args.depth}")
    return observed, header


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
    if len(args.valuation) > 1:
        raise ModelError(f"lang takes at most one -p flag, got {len(args.valuation)}")
    # the one flag, if any; an empty -p gives no value, as no -p does
    flag = "".join(args.valuation) or None
    ((obs, stats, flagged),), header = _explore(args, timings, [flag], (("valuation", "enumerate"),))
    print(*header, *stats, sep="\n")
    if args.semantics == "buchi":
        print("-- lassos --")
        shown = obs
    else:
        print("-- prefix --")
        sys.stdout.writelines(obs.lines(args.depth))
        print(f"-- {FLAG_LABEL[args.semantics]} --")
        shown = obs.lines(args.depth, flagged=True)
    # an empty flagged or lasso section prints one blank line, as no prefix section is empty
    sys.stdout.writelines(shown if flagged else ("\n",))
    print(_footer(timings))
    return 0


def cmd_compare(args) -> int:
    timings: list[tuple[str, float]] = []
    if len(args.valuation) != 2:
        raise ModelError("compare needs exactly two -p flags (valuation A and valuation B)")
    observed, header = _explore(
        args, timings, args.valuation, (("valuation A", "explore A"), ("valuation B", "explore B"))
    )
    with _timed(timings, "compare"):
        res = compare_samples(observed[0][0], observed[1][0], args.depth)
    stats = [lines for _, lines, _ in observed]
    if res.counts is not None:   # Büchi: the lassos the walk read up to its witness
        label = "lassos" if res.equal else f"lassos up to length {sum(map(len, res.witness))}"
        stats = [[f"{label}: {n}"] for n in res.counts]
    print(*header, sep="\n")
    for side, lines in zip("AB", stats):
        print(f"{side}: " + ", ".join(lines))
    print("verdict: " + res.text("A", "B"))
    print(_footer(timings))
    return 0


# the encoding theorem-check builds for each semantics
_THEOREM_ENCODING = {"maximal": "wrapped", "reach": "buchi", "safety": "safety"}
# how many steps theorem-check runs the interpreter for its header
_PROBE_STEPS = 1000


def cmd_theorem_check(args) -> int:
    timings: list[tuple[str, float]] = []
    variant = _THEOREM_ENCODING[args.semantics]
    with _timed(timings, "encode"):
        m = _read_machine(args.machine)
        a = build(m, variant)
    probe = run(m, _PROBE_STEPS)
    halt_note = (
        f"halts after {probe.steps_taken} steps"
        if probe.halted
        else f"no halt within {_PROBE_STEPS} steps"
    )
    items = [v.strip() for v in args.values.split(",")]
    if items == [""]:
        raise ModelError("--values must list at least one rational")
    if "" in items:
        raise ModelError(f"--values has an empty item in {args.values!r}")
    values = []
    for item in items:
        label = f"p={item}"
        try:
            v = parse_valuation([label])["p"]
            str(v)
        except ModelError as exc:   # quote the item as typed, not the label
            raise ModelError(str(exc).replace(repr(label), repr(item), 1)) from None
        except ValueError:   # more digits than Python turns into a string
            raise ModelError(f"--values item {item!r} has too many digits for a zone bound") from None
        values.append(v)
    if min(values) <= 0:
        raise ModelError(f"--values must be positive, got {min(values)}; p=0 is the reference")
    repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
    if repeated is not None:
        raise ModelError(f"--values gives p={repeated} more than once")
    # the p = 0 reference at scale 1 stands for p = 0 at every scale (see
    # `_valuate`); every value is explored and compared before the first
    # line is printed, so an error other than a value's exhaustion, which
    # its section reports, prints no partial report
    with _timed(timings, "explore p=0"):
        ref, _, _ = _observe(a.valuate({"p": 0}), args)
    sections: list[str] = []
    outcomes = []   # per value: "equal", "differs" or "exhausted"
    for v in values:
        label = f"p={v}"
        va = a.valuate({"p": v.numerator}, v.denominator)
        sections.append(f"-- valuation {label} --")
        try:
            with _timed(timings, f"explore {label}"):
                s, stats, _ = _observe(va, args)
        except ResourceExhausted as exc:
            sections.append(f"resource exhaustion: {exc}")
            outcomes.append("exhausted")
            continue
        if v.denominator != 1:
            sections.append(f"rescaled by {v.denominator} to clear denominators")
        sections += stats
        with _timed(timings, f"compare {label}"):
            res = compare_samples(ref, s, args.depth)
        sections.append("verdict: " + res.text("reference", label))
        outcomes.append("equal" if res.equal else "differs")

    print(f"machine: {m.name}  states: {len(m.states)}  initial: {m.initial}  halt: {m.halt}")
    print(f"interpreter: {halt_note}")
    print(f"encoding: {variant}  locations: {len(a.locations)}  edges: {len(a.edges)}")
    print("reference valuation: p=0")
    print(f"semantics: {args.semantics}  depth: {args.depth}")
    print(*sections, sep="\n")
    if "equal" in outcomes:
        print("verdict: consistent with halting")
    elif "exhausted" in outcomes:
        print("verdict: inconclusive (some valuations exhausted resources)")
    else:
        print("verdict: consistent with non-halting")
    print(_footer(timings))
    return 0


def cmd_simulate_2cm(args) -> int:
    m = _read_machine(args.machine)
    print(f"machine: {m.name}  states: {len(m.states)}  initial: {m.initial}  halt: {m.halt}")
    for i, (state, c1, c2) in enumerate(trace(m, args.steps)):
        print(f"step {i}: {state} c1={c1} c2={c2}")
    if m.instruction(state) is None:
        print(f"halted after {i} steps")
    else:
        print(f"not halted within {args.steps} steps")
    return 0


# -- wiring ---------------------------------------------------------------


def _exploration(semantics: tuple[str, ...]) -> tuple:
    """-k/--depth, --semantics (offering `semantics`) and --node-limit, in that order."""
    return (
        (("-k", "--depth"), {"type": int, "default": DEPTH}),
        (("--semantics",), {"choices": semantics, "default": "maximal"}),
        (("--node-limit",), {"type": int, "default": NODE_LIMIT, "help": (
            "bound on each of: zone-graph nodes, determinized state sets, and the "
            f"distinct cycle words a Büchi walk holds (default {NODE_LIMIT})")}),
    )


# command: (help line, handler, arguments as (names, add_argument keywords)); both the
# whole tree and a run's one-command parser are filled from here, so they parse alike
_COMMANDS = {
    "encode": ("compile a counter machine to an automaton", cmd_encode, (
        (("machine",), {"help": "machine description file"}),
        (("--variant",), {"choices": VARIANTS, "default": "plain"}),
        (("-o", "--output"), {"help": "output path (default: <machine>.<variant>.pera)"}))),
    "lang": ("enumerate one valuation's language", cmd_lang, (
        (("pera",), {"help": "serialized automaton file"}),
        (("-p", "--valuation"), {"action": "append", "default": [],
                                 "help": "parameter values, e.g. p=2 or p=1/2; at most once"}),
        *_exploration(SEMANTICS))),
    "compare": ("compare two valuations of one automaton", cmd_compare, (
        (("pera",), {"help": "serialized automaton file"}),
        (("-p", "--valuation"), {"action": "append", "default": [],
                                 "help": "give twice: valuation A, then valuation B"}),
        *_exploration(SEMANTICS))),
    "theorem-check": ("halting-dichotomy experiment on a machine", cmd_theorem_check, (
        (("machine",), {"help": "machine description file"}),
        (("--values",), {"required": True, "help": "comma list of p values, e.g. 1,2,3,4"}),
        *_exploration(tuple(_THEOREM_ENCODING)))),
    "simulate-2cm": ("step the counter-machine interpreter", cmd_simulate_2cm, (
        (("machine",), {"help": "machine description file"}),
        (("--steps",), {"type": int, "default": 10}))),
}


def _fill(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    """`parser` with `command`'s arguments and handler added."""
    _, fn, arguments = _COMMANDS[command]
    for names, options in arguments:
        parser.add_argument(*names, **options)
    parser.set_defaults(fn=fn, command=command)
    return parser


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="peralab", description="workbench for parametric event-recording automata")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (summary, _, _) in _COMMANDS.items():
        _fill(sub.add_parser(command, help=summary), command)
    return ap


def _parse(argv: list[str]) -> argparse.Namespace:
    """`argv` parsed by its command's parser alone; the whole tree parses top-level help, a
    missing or unknown command, and a leftover argument, which it reports under its own usage."""
    if argv and argv[0] in _COMMANDS:
        parser = _fill(argparse.ArgumentParser(prog=f"peralab {argv[0]}"), argv[0])
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            return args
    return _build_parser().parse_args(argv)


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
        args = _parse(sys.argv[1:] if argv is None else argv)
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
