"""Per-layer counters gathered by wrapping peralab's public functions from outside.

Nothing inside peralab changes: `Tracer.installed()` swaps each target
attribute for a counting wrapper and puts the original back on exit.
A function that another module binds with `from ... import` is wrapped
at every binding, with one shared wrapper, so a call is counted once
whichever name it goes through.  A binding that no longer exists is
skipped, so its counters read 0 rather than the benchmark failing.

Calls are aggregated per function (count, inclusive seconds, self
seconds) instead of being stored as one span each: `is_blocking` alone
runs hundreds of thousands of times per pass.  Self time is a call's
duration minus the time spent in wrapped functions it called, so the
self times of a layer's functions add up to the time that layer spent
in its own code.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

# Outcome counters, filled from a wrapped call's result and arguments.
# Each maps a function name to the amounts this call adds, by counter.
_OUTCOMES = {
    "zones.intersect": lambda res, args: {"empty": res is None},
    "zones.subtract": lambda res, args: {"pieces": len(res)},
    "zones.extrapolate": lambda res, args: {"changed": res is not args[0]},
    "semantics.successor": lambda res, args: {"fired": res is not None},
    "semantics.zone_graph": lambda res, args: {"nodes": len(res.nodes)},
    "language.enumerate_language": lambda res, args: {
        "words": len(res.prefix_words), "lassos": len(res.lassos)},
}


def _targets(mods):
    """(function name, owner, attribute) for every wrapped binding.

    `mods` maps short module names to the imported peralab modules.
    """
    zones, sem, lang, cli = mods["zones"], mods["semantics"], mods["language"], mods["cli"]
    core, enc, minsky = mods["core"], mods["encoder"], mods["minsky"]
    out = [("zones.dbm_eq", zones.Dbm, "__eq__")]
    for fn in ("intersect", "subtract", "extrapolate", "up", "down", "reset",
               "time_pred", "from_constraints"):
        out.append((f"zones.{fn}", zones, fn))
    for fn in ("successor", "is_blocking", "blocking_subset"):
        out.append((f"semantics.{fn}", sem.Analyzer, fn))
    out += [
        ("semantics.zone_graph", sem, "zone_graph"),
        ("semantics.zone_graph", lang, "zone_graph"),
        ("language.enumerate_language", lang, "enumerate_language"),
        ("language.enumerate_language", cli, "enumerate_language"),
        ("language.compare", lang, "compare"),
        ("language.compare", cli, "compare_samples"),
        ("cli.main", cli, "main"),
        ("encoder.build", enc, "build"),
        ("encoder.build", cli, "build"),
        ("core.from_text", core.Pera, "from_text"),
        ("core.valuate", core.Pera, "valuate"),
        ("core.rescale", core.Pera, "rescale"),
        ("minsky.run", minsky, "run"),
        ("minsky.run", cli, "run"),
        ("minsky.parse_machine", minsky, "parse_machine"),
        ("minsky.parse_machine", cli, "parse_machine"),
    ]
    return out


class Tracer:
    """Call counts and times per wrapped function, for one traced pass."""

    def __init__(self):
        # name -> [calls, inclusive seconds, self seconds]
        self.stats: dict[str, list] = {}
        # name -> {outcome counter -> total}
        self.outcomes: dict[str, dict[str, int]] = {}
        self._stack: list[float] = []

    def _wrapper(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        outcome = _OUTCOMES.get(name)
        counters = self.outcomes.setdefault(name, {}) if outcome else None

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
                if stack:
                    stack[-1] += dt
            if outcome is not None:
                for key, amount in outcome(res, args).items():
                    counters[key] = counters.get(key, 0) + int(amount)
            return res

        return wrapper

    @contextmanager
    def installed(self, mods):
        """Wrap every target for the duration of the block, then restore."""
        saved = []
        wrappers: dict[int, object] = {}
        try:
            for name, owner, attr in _targets(mods):
                raw = owner.__dict__.get(attr)
                if raw is None:
                    continue
                fn = raw.__func__ if isinstance(raw, classmethod) else raw
                w = wrappers.get(id(fn))
                if w is None:
                    w = wrappers[id(fn)] = self._wrapper(name, fn)
                saved.append((owner, attr, raw))
                setattr(owner, attr, classmethod(w) if isinstance(raw, classmethod) else w)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0,))[0]

    def seconds(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0))[1]

    def self_seconds(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def layer_self_seconds(self, layer: str) -> float:
        return sum(s[2] for n, s in self.stats.items() if n.startswith(layer + "."))

    def outcome(self, name: str, key: str) -> int:
        return self.outcomes.get(name, {}).get(key, 0)
