"""Time one set-up in a fresh interpreter, then measure the machine's speed.

Usage: python3 perfbench/setup_probe.py WORKLOAD WORKDIR
Prints two numbers: the seconds the set-up took (import peralab and
build the workload's inputs), then the seconds `calibrate()` took.
`run.py` starts this before each pass.  It reports the median set-up,
because an import is paid only once per process, and scales the run's
times by the mean calibration (README.md, "Noise").
"""

import time

T0 = time.perf_counter()

import gc  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402

TABLE_SIZE = 400_000
LOOKUPS = 300_000


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a, self.b = a, b


def calibrate() -> float:
    """Seconds for a fixed loop of dict lookups over 400,000 objects.

    It shares no code with peralab, so no change to peralab changes its
    work.  Its table is far larger than the CPU caches, as peralab's
    heap is; a loop over a small table was found to swing with the
    machine about twice as much as the jobs do.
    """
    rng = random.Random(1)
    table = {(i, i % 13): _Cell(i, i % 5) for i in range(TABLE_SIZE)}
    keys = [(j, j % 13) for j in (rng.randrange(TABLE_SIZE) for _ in range(LOOKUPS))]
    gc.disable()
    t0 = time.perf_counter()
    total = 0
    for k in keys:
        cell = table[k]
        total += cell.a ^ cell.b
    return time.perf_counter() - t0


if __name__ == "__main__":
    workload, work = sys.argv[1], Path(sys.argv[2])
    root = HERE.parent
    mods = jobs.import_peralab(root / "src")
    jobs.build_inputs(mods, jobs.WORKLOADS[workload], root / "scripts" / "machines", work)
    setup = time.perf_counter() - T0
    print(f"{setup!r} {calibrate()!r}")
