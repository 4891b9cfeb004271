"""The benchmark's workloads: lists of `peralab` CLI jobs with expected answers.

Every answer below is written by hand from the README, the acceptance
checks and cases verified when the benchmark was defined.  The word
count of a `p = 0` side is computed here, independently of peralab.  A
job whose report disagrees is a failed job; the answers are never
adjusted to match a report.
"""

from __future__ import annotations

import importlib
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

# Core alphabet of the counter-machine encodings (the wrapped variant adds none).
ALPHABET = ("a_t", "a_1", "a_2", "a_z")
TIMING_HEADER = "--- timings ---"


def all_words(k: int) -> int:
    """Number of words of length <= k over ALPHABET: (4^(k+1) - 1) / 3."""
    return (len(ALPHABET) ** (k + 1) - 1) // (len(ALPHABET) - 1)


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its report must say."""

    argv: tuple[str, ...]
    verdicts: tuple[str, ...] = ()   # every "verdict:" line, in order
    lines: tuple[str, ...] = ()      # further lines the report must contain
    absent: tuple[str, ...] = ()     # lines the report must not contain
    check: Callable[[list[str]], list[str]] | None = field(default=None, compare=False)

    @property
    def label(self) -> str:
        return " ".join(Path(a).name if a.endswith((".2cm", ".pera")) else a for a in self.argv)

    def problems(self, code: int, report: str) -> list[str]:
        """Why the report is wrong; empty when it matches the expected answer."""
        if code != 0:
            return [f"exit code {code}"]
        body = report.split(TIMING_HEADER, 1)[0].splitlines()
        out = []
        verdicts = tuple(line for line in body if line.startswith("verdict:"))
        if verdicts != self.verdicts:
            out.append(f"verdicts {verdicts} != {self.verdicts}")
        present = set(body)
        out += [f"missing line {line!r}" for line in self.lines if line not in present]
        out += [f"unexpected line {line!r}" for line in self.absent if line in present]
        if self.check is not None:
            try:
                out += self.check(body)
            except (ValueError, StopIteration) as exc:  # a section or count line is missing
                out.append(f"malformed report: {exc!r}")
        return out


# -- report checks -----------------------------------------------------------


def _section(body: list[str], header: str) -> list[str]:
    """Lines after `-- header --` up to the next section header."""
    start = body.index(f"-- {header} --") + 1
    end = start
    while end < len(body) and not body[end].startswith("-- "):
        end += 1
    return body[start:end]


def _count(body: list[str], label: str) -> int:
    prefix = f"{label}: "
    return int(next(line for line in body if line.startswith(prefix))[len(prefix):])


def maximal_lang_check(depth: int, witness: str) -> Callable[[list[str]], list[str]]:
    """A `lang` report in maximal semantics is well formed and holds `witness`.

    The listed counts match the listed words, every word is over the
    alphabet and within the depth, the prefix words are prefix-closed,
    every maximal finite word is a prefix word, and the witness that
    separates this valuation from p = 0 is among the maximal words.
    """

    def check(body: list[str]) -> list[str]:
        out = []
        prefix = _section(body, "prefix")
        maximal = _section(body, "maximal finite")
        if maximal == [""] and _count(body, "maximal finite words") == 0:
            maximal = []  # an empty list prints as one blank line
        if _count(body, "prefix words") != len(prefix):
            out.append("prefix word count does not match the listed words")
        if _count(body, "maximal finite words") != len(maximal):
            out.append("maximal word count does not match the listed words")
        words = set(prefix)
        if len(words) != len(prefix):
            out.append("prefix words repeat")
        for w in prefix:
            letters = w.split()
            if len(letters) > depth or any(a not in ALPHABET for a in letters):
                out.append(f"word [{w}] is longer than {depth} or off the alphabet")
                break
            if letters and " ".join(letters[:-1]) not in words:
                out.append(f"prefix of [{w}] is missing")
                break
        if not set(maximal) <= words:
            out.append("a maximal finite word is not a prefix word")
        if witness not in maximal:
            out.append(f"witness [{witness}] is not a maximal finite word")
        return out

    return check


def buchi_lang_check(depth: int, *, cycle: str | None = None,
                     never: str | None = None) -> Callable[[list[str]], list[str]]:
    """A `lang` report in Büchi semantics is well formed.

    The count matches the list, no lasso repeats, stems and cycles are
    within the depth, and each cycle is shown in its minimal rotation.
    With `cycle`, some lasso's cycle is exactly that word; with `never`,
    no lasso mentions that action (acceptance check 6).
    """

    def check(body: list[str]) -> list[str]:
        out = []
        lassos = _section(body, "lassos")
        if _count(body, "lassos") != len(lassos):
            out.append("lasso count does not match the listed lassos")
        if len(set(lassos)) != len(lassos):
            out.append("lassos repeat")
        cycles = set()
        for line in lassos:
            stem, sep, cyc = line.partition(" | ")
            letters = cyc.split()
            rotations = (letters[i:] + letters[:i] for i in range(len(letters)))
            if (not sep or not letters or len(stem.split()) > depth or len(letters) > depth
                    or min(rotations) != letters):
                out.append(f"malformed lasso [{line}]")
                break
            if never is not None and never in (stem + " " + cyc).split():
                out.append(f"lasso [{line}] mentions {never}")
                break
            cycles.add(cyc)
        if cycle is not None and cycle not in cycles:
            out.append(f"no lasso has cycle [{cycle}]")
        return out

    return check


def compare_job(pera: Path, a: Fraction, b: Fraction, verdict: str, extra=(),
                lines=()) -> Job:
    """A `compare` job; checks the valuation lines and the rescaling note."""
    scale = math.lcm(a.denominator, b.denominator)
    note = f"rescaled by {scale} to clear denominators"
    return Job(
        argv=("compare", str(pera), "-p", f"p={a}", "-p", f"p={b}", *extra),
        verdicts=(f"verdict: {verdict}",),
        lines=(f"valuation A: p={a}", f"valuation B: p={b}", *lines)
        + ((note,) if scale != 1 else ()),
        absent=(note,) if scale == 1 else (),
    )


# -- workloads -----------------------------------------------------------------

DEPTH = 8  # the CLI default, which the dichotomy jobs use
ZERO = Fraction(0)
LASSO_WITNESS = "differs; lassos witness [a_1 a_1 | a_1] only on the A side"
EQUAL = "equal up to bound"


def dichotomy(seed: int, machines: Path, work: Path) -> list[Job]:
    """The paper's experiment in maximal semantics at the default depth 8."""
    full = f"prefix words: {all_words(DEPTH)}"
    loop_p2 = "a_1 a_1 a_z a_2 a_t a_t"
    return [
        Job(
            argv=("theorem-check", str(machines / "inc3.2cm"), "--values", "2,3,5"),
            verdicts=(
                "verdict: differs; maximal finite witness [a_1 a_1 a_z a_1 a_2 a_t] "
                "only on the p=2 side",
                f"verdict: {EQUAL}",
                f"verdict: {EQUAL}",
                "verdict: consistent with halting",
            ),
            lines=("machine: inc3  states: 4  initial: s0  halt: sh",
                   "interpreter: halts after 3 steps", full),
        ),
        Job(
            argv=("theorem-check", str(machines / "loop.2cm"), "--values", "1,2"),
            verdicts=(
                "verdict: differs; maximal finite witness [a_1 a_1] only on the p=1 side",
                f"verdict: differs; maximal finite witness [{loop_p2}] only on the p=2 side",
                "verdict: consistent with non-halting",
            ),
            lines=("machine: loop  states: 3  initial: s0  halt: sh",
                   "interpreter: no halt within 1000 steps", full),
        ),
        # The shortest witness for p = 3 has length 10, beyond depth 8: this
        # job pins the documented bound, as acceptance check 4 does.
        compare_job(work / "loop.wrapped.pera", ZERO, Fraction(3), EQUAL,
                    lines=(f"A: {full}, maximal finite words: 0",)),
        Job(
            argv=("lang", str(work / "loop.wrapped.pera"), "-p", "p=2"),
            lines=("valuation: p=2",),
            check=maximal_lang_check(DEPTH, loop_p2),
        ),
    ]


# Seeded periods for deep-period lie in [LOW, HIGH].
LOW, HIGH = 30, 100
PAIR_SUM = LOW + HIGH + 1
# Per denominator: the parity wanted for the integer part (None for any)
# and the largest distance of a period from PAIR_SUM / 2.
CLASSES = {1: (None, 35), 2: (0, 6), 3: (1, 35)}


def seeded_periods(seed: int) -> dict[int, tuple[Fraction, Fraction]]:
    """Two periods with denominator d, for d in 1..3, drawn from the seed.

    A job costs about the size of its zone graphs, which grows linearly
    with the period: by 7.5 nodes per unit for an integer period, and
    for a fractional one by 15 when its integer part is even and by 7.5
    when it is odd.  So the periods come in antithetic pairs v and
    PAIR_SUM - v, whose cost is the same for every seed:

    - d = 1: the odd sum gives one even and one odd period, which
      evens out a small parity step;
    - d = 2: both integer parts even (the steep class);
    - d = 3: both integer parts odd (the shallow class).

    Without this the work, and so the timing, would swing with the seed
    rather than with the program.  The steep pair is compared against
    itself, so that job is always the slowest one, and it stays within
    6 of the middle of the range, so its larger zone graph, which sets
    the peak memory, is about the same size for every seed.
    """
    rng = random.Random(seed)
    out = {}
    for d in (1, 2, 3):
        parity, span = CLASSES[d]
        while True:
            v = Fraction(rng.randint((LOW + 1) * d, HIGH * d), d)
            if (v.denominator == d and abs(2 * v - PAIR_SUM) <= 2 * span
                    and (parity is None or math.floor(v) % 2 == parity)):
                break
        out[d] = (v, PAIR_SUM - v)
    return out


def deep_period(seed: int, machines: Path, work: Path) -> list[Job]:
    """Büchi compare at depth 4: p = 0 against seeded periods, and two
    seeded periods against each other."""
    pera = work / "loop.buchi.pera"
    extra = ("--semantics", "buchi", "-k", "4")
    periods = seeded_periods(seed)
    jobs = [compare_job(pera, ZERO, p, LASSO_WITNESS, extra) for p in periods[1] + periods[3]]
    jobs.append(compare_job(pera, *periods[2], EQUAL, extra))
    return jobs


def buchi_lassos(seed: int, machines: Path, work: Path) -> list[Job]:
    """Büchi lassos at depth 10: acceptance check 6 plus its compare."""
    pera = str(work / "loop.buchi.pera")
    extra = ("--semantics", "buchi", "-k", "10")
    return [
        Job(argv=("lang", pera, "-p", "p=0", *extra),
            check=buchi_lang_check(10, never="a_3")),
        Job(argv=("lang", pera, "-p", "p=2", *extra),
            check=buchi_lang_check(10, cycle="a_3")),
        compare_job(work / "loop.buchi.pera", ZERO, Fraction(3), LASSO_WITNESS, extra),
    ]


@dataclass(frozen=True)
class Workload:
    make_jobs: Callable[[int, Path, Path], list[Job]]   # (seed, machines dir, work dir)
    encodings: tuple[tuple[str, str], ...]              # (machine, variant) built in set-up


WORKLOADS = {
    "dichotomy": Workload(dichotomy, (("loop", "wrapped"),)),
    "deep-period": Workload(deep_period, (("loop", "buchi"),)),
    "buchi-lassos": Workload(buchi_lassos, (("loop", "buchi"),)),
}


def build_inputs(mods, workload: Workload, machines: Path, work: Path) -> None:
    """Parse the bundled machines and write the encodings the jobs read."""
    work.mkdir(parents=True, exist_ok=True)
    for machine, variant in workload.encodings:
        m = mods["minsky"].parse_machine((machines / f"{machine}.2cm").read_text(), name=machine)
        a = mods["encoder"].build(m, variant)
        (work / f"{machine}.{variant}.pera").write_text(a.to_text())


def import_peralab(src: Path) -> dict:
    """Import peralab from the checkout's `src`; the modules by short name."""
    if not (src / "peralab" / "__init__.py").is_file():
        raise ImportError(f"no peralab package under {src}")
    sys.path.insert(0, str(src))
    names = ("core", "zones", "minsky", "encoder", "semantics", "language", "cli")
    mods = {n: importlib.import_module(f"peralab.{n}") for n in names}
    if Path(mods["cli"].__file__).resolve().parent != (src / "peralab").resolve():
        raise ImportError(f"peralab was imported from outside {src}")
    return mods
