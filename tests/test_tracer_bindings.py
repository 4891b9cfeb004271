"""Every binding the benchmark's tracer wraps still exists in peralab.

`perfbench/tracer.py` skips a binding that is gone, so a rename would
silently zero its per-layer counters; this test makes it fail instead.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
MODULES = ("zones", "semantics", "language", "cli", "core", "encoder", "minsky")
# `enumerate_language` is gone from src; mending its counters is ROADMAP item 6
MAY_BE_MISSING = {("language", "enumerate_language"), ("cli", "enumerate_language")}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_exists():
    mods = {name: importlib.import_module(f"peralab.{name}") for name in MODULES}
    names = {id(module): name for name, module in mods.items()}
    missing = [
        (fn, names.get(id(owner), owner.__name__), attr)
        for fn, owner, attr in load_tracer()._targets(mods)
        if attr not in owner.__dict__ and (names.get(id(owner)), attr) not in MAY_BE_MISSING
    ]
    assert not missing, f"tracer targets with no binding: {missing}"
