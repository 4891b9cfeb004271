"""The bundled counter machines, read from their `scripts/machines/*.2cm` files."""

from pathlib import Path

from peralab.minsky import Machine, parse_machine

MACHINE_DIR = Path(__file__).resolve().parent.parent / "scripts" / "machines"


def load(stem: str, name: str | None = None) -> Machine:
    """The machine in `<stem>.2cm`, named `name` (default: the stem)."""
    return parse_machine((MACHINE_DIR / f"{stem}.2cm").read_text(), name=name or stem)


def inc3() -> Machine:
    """Three increments of counter one, then halt.  Final counters (3, 0)."""
    return load("inc3")


def loop() -> Machine:
    """Never halts: pumps counter one and keeps re-testing counter two."""
    return load("loop")


def trivial() -> Machine:
    """Starts halted, from `halt.2cm`; the pinned schedule digest hashes this name."""
    return load("halt", "trivial")


BENCHMARKS = {"inc3": inc3, "loop": loop, "trivial": trivial}
