#!/usr/bin/env python3
"""Time to verdict of peralab CLI jobs, end to end and per layer.

Usage:
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  The benchmark imports peralab from
`src`, builds its inputs from `scripts/machines`, and runs the
workload's job list in this process through `peralab.cli.main(argv)`,
pass after pass, until `--seconds` have gone by (at least one pass, and
two when tracing).  Every report is checked against the expected answer
in `jobs.py`.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, untraced, with
times scaled to a reference machine speed (README.md, "Noise").  With
`--trace 1` untraced and traced passes alternate, and the metrics are
per-layer counts and times (see README.md); the counters of the first
two traced passes must agree exactly.

One process, no threads: set-up probes run one at a time in child
interpreters, each waited for.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from jobs import WORKLOADS, build_inputs, import_peralab  # noqa: E402
from tracer import Tracer  # noqa: E402

DEFAULT_SEED = 1
SETUP_SAMPLES = 5
MACHINES = ROOT / "scripts" / "machines"
# Reported times are seconds at the speed where `setup_probe.calibrate()`
# takes this long.
CALIBRATION_REF_S = 0.36


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def setup_probe(workload: str, work: Path) -> tuple[float, float]:
    """One set-up and one calibration, timed in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(work)],
        capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    setup, calibration = proc.stdout.split()
    return float(setup), float(calibration)


class Pass:
    """One run of a workload's job list."""

    def __init__(self, mods, jobs):
        self.seconds: list[float] = []
        self.report_bytes = 0
        self.failed = 0
        for job in jobs:
            gc.collect()  # each job starts from a clean heap, as a fresh CLI process would
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    code = mods["cli"].main(list(job.argv))
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # a crash is a failed job, not a dead benchmark
                    traceback.print_exc()
                    code = -1
                self.seconds.append(time.perf_counter() - t0)
            report = out.getvalue()
            self.report_bytes += len(report.encode())
            problems = job.problems(code, report)
            if problems:
                self.failed += 1
                log(f"FAILED {job.label}: {'; '.join(problems)}\n{err.getvalue()}")
        log("pass: " + " ".join(f"{t:.4f}" for t in self.seconds))

    @property
    def wall(self) -> float:
        return sum(self.seconds)


def run_passes(mods, jobs, seconds: float, minimum: int, make=Pass, before=None) -> list:
    start = time.perf_counter()
    passes = []
    while len(passes) < minimum or time.perf_counter() - start < seconds:
        if before is not None:
            before()
        passes.append(make(mods, jobs))
    return passes


def end_to_end(passes: list[Pass], probes: list[tuple[float, float]]) -> dict:
    """Job times are each job's mean over the passes; the job list's is their sum.

    The machine's speed drifts by up to 1.4 times over seconds to
    minutes, and a run is too short to average the slow part of that
    drift away.  So every time of the run, set-up included, is scaled
    by CALIBRATION_REF_S over the mean calibration of the run's probes,
    which are spread over the run, one before each pass (README.md,
    "Noise").  The median set-up of the probes is reported.
    """
    setup, calibration = zip(*probes)
    speed = CALIBRATION_REF_S / statistics.mean(calibration)
    job_s = [statistics.mean(ts) * speed for ts in zip(*(p.seconds for p in passes))]
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    log(f"speed factor {speed:.4f}; unscaled wall {sum(job_s) / speed:.4f} s")
    return {
        "wall_s": (sum(job_s), "s"),
        "job_s.max": (max(job_s), "s"),
        "peak_rss_mib": (rss_kib / 1024, "MiB"),
        "setup_s": (statistics.median(setup) * speed, "s"),
    }


def ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def layer_metrics(t: Tracer, p: Pass) -> dict:
    """Per-layer metrics of one traced pass, as (value, unit)."""
    m = {
        "zones.dbm_eq.calls": (t.calls("zones.dbm_eq"), "count"),
        "zones.dbm_eq.s": (t.seconds("zones.dbm_eq"), "s"),
        "zones.intersect.calls": (t.calls("zones.intersect"), "count"),
        "zones.intersect.s": (t.seconds("zones.intersect"), "s"),
        "zones.intersect.empty_ratio": (
            ratio(t.outcome("zones.intersect", "empty"), t.calls("zones.intersect")), "ratio"),
        "zones.self_s": (t.layer_self_seconds("zones"), "s"),
        "zones.subtract.calls": (t.calls("zones.subtract"), "count"),
        "zones.subtract.pieces": (t.outcome("zones.subtract", "pieces"), "count"),
        "zones.extrapolate.calls": (t.calls("zones.extrapolate"), "count"),
        "zones.extrapolate.changed_ratio": (
            ratio(t.outcome("zones.extrapolate", "changed"), t.calls("zones.extrapolate")),
            "ratio"),
    }
    for fn in ("up", "down", "reset", "time_pred", "from_constraints"):
        m[f"zones.{fn}.calls"] = (t.calls(f"zones.{fn}"), "count")
    blocking = t.calls("semantics.is_blocking")
    m.update({
        "semantics.successor.calls": (t.calls("semantics.successor"), "count"),
        "semantics.successor.fired_ratio": (
            ratio(t.outcome("semantics.successor", "fired"), t.calls("semantics.successor")),
            "ratio"),
        "semantics.successor.self_s": (t.self_seconds("semantics.successor"), "s"),
        "semantics.zone_graph.nodes": (t.outcome("semantics.zone_graph", "nodes"), "count"),
        "semantics.zone_graph.self_s": (t.self_seconds("semantics.zone_graph"), "s"),
        "semantics.is_blocking.calls": (blocking, "count"),
        "semantics.blocking_subset.calls": (t.calls("semantics.blocking_subset"), "count"),
        "semantics.blocking_cache_hit_ratio": (
            1 - ratio(t.calls("semantics.blocking_subset"), blocking) if blocking else 0.0,
            "ratio"),
        "semantics.self_s": (t.layer_self_seconds("semantics"), "s"),
        "language.enumerate_language.calls": (t.calls("language.enumerate_language"), "count"),
        "language.enumerate_language.s": (t.seconds("language.enumerate_language"), "s"),
        "language.words": (t.outcome("language.enumerate_language", "words"), "count"),
        "language.lassos": (t.outcome("language.enumerate_language", "lassos"), "count"),
        "language.self_s": (t.layer_self_seconds("language"), "s"),
        "language.compare.s": (t.seconds("language.compare"), "s"),
        "cli.main.s": (t.seconds("cli.main"), "s"),
        "cli.self_s": (t.layer_self_seconds("cli"), "s"),
        "cli.report_bytes": (p.report_bytes, "bytes"),
        "encoder.build.s": (t.seconds("encoder.build"), "s"),
        "core.from_text.s": (t.seconds("core.from_text"), "s"),
        "core.valuate.calls": (t.calls("core.valuate"), "count"),
        "core.rescale.calls": (t.calls("core.rescale"), "count"),
        "minsky.run.s": (t.seconds("minsky.run"), "s"),
    })
    return m


# Units of the deterministic counters: same seed, same values.
COUNTER_UNITS = ("count", "ratio", "bytes")


def traced_metrics(mods, jobs, workload, work: Path, seconds: float) -> tuple[dict, list, bool]:
    """Untraced and traced passes, alternating, with per-layer metrics.

    Pairing each traced pass with an untraced one just before it keeps
    the machine's drift out of `trace.overhead_s`.
    """

    def pair(mods, jobs):
        plain = Pass(mods, jobs)
        t = Tracer()
        with t.installed(mods):
            build_inputs(mods, workload, MACHINES, work)
            traced = Pass(mods, jobs)
        return plain, traced, layer_metrics(t, traced)

    pairs = run_passes(mods, jobs, seconds, 2, make=pair)
    first, second = pairs[0][2], pairs[1][2]
    drift = [n for n, (v, u) in first.items() if u in COUNTER_UNITS and second[n][0] != v]
    if drift:
        log(f"counters differ between two traced passes: {', '.join(drift)}")
    # counters repeat, so take the first pass's; times are medians over passes
    metrics = {
        n: (v if u in COUNTER_UNITS else statistics.median(m[n][0] for *_, m in pairs), u)
        for n, (v, u) in first.items()
    }
    overhead = statistics.median(traced.wall - plain.wall for plain, traced, _ in pairs)
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics, [p for plain, traced, _ in pairs for p in (plain, traced)], not drift


def pin_hash_seed(seed: int) -> None:
    """Re-exec once with PYTHONHASHSEED derived from --seed.

    String hashes, and so set and dict layouts inside peralab, are
    randomized per process; pinning them makes the per-layer counters
    repeat exactly for a seed, and makes the untraced work the same.
    """
    want = str(seed % 4294967296)
    if os.environ.get("PYTHONHASHSEED") != want:
        os.environ["PYTHONHASHSEED"] = want
        os.execv(sys.executable, [sys.executable, *sys.argv])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    pin_hash_seed(args.seed)

    workload = WORKLOADS[args.workload]
    work = HERE / ".work" / args.workload
    try:
        mods = import_peralab(ROOT / "src")
    except ImportError as exc:
        log(f"cannot load peralab: {exc}")
        return 2
    build_inputs(mods, workload, MACHINES, work)
    jobs = workload.make_jobs(args.seed, MACHINES, work)

    if args.trace:
        metrics, passes, repeatable = traced_metrics(mods, jobs, workload, work, args.seconds)
    else:
        probes: list[tuple[float, float]] = []

        def probe():
            probes.append(setup_probe(args.workload, work))

        passes = run_passes(mods, jobs, args.seconds, 1, before=probe)
        while len(probes) < SETUP_SAMPLES:
            probe()
        metrics, repeatable = end_to_end(passes, probes), True
    attempted = sum(len(p.seconds) for p in passes)
    failed = sum(p.failed for p in passes)
    log(f"{args.workload}: {len(passes)} passes, {attempted} jobs, {failed} failed")
    print(json.dumps({
        "correct": failed == 0 and repeatable,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
