"""Package hygiene: `src` imports nothing but the standard library and
itself, and ships no code that only the tests use."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

from test_tracer_bindings import MODULES, load_tracer

SRC = Path(__file__).resolve().parent.parent / "src" / "peralab"


def imported_modules(path: Path) -> set[str]:
    """Top-level names of the modules `path` imports; relative imports count as peralab."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            out.add("peralab" if node.level else node.module.split(".")[0])
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_src_imports_only_the_standard_library(path):
    foreign = {m for m in imported_modules(path) if m != "peralab" and m not in sys.stdlib_module_names}
    assert not foreign, f"{path.name} imports {sorted(foreign)}"


def module_level_names(tree: ast.Module) -> list[str]:
    """Functions, classes and assigned names a module defines at top level, dunders aside."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        elif isinstance(node, ast.Assign):
            out += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            out.append(node.target.id)
    return [n for n in out if not (n.startswith("__") and n.endswith("__"))]


def test_src_ships_no_test_only_code():
    # a name counts as used when `src` loads it, by name or as an
    # attribute, or when the benchmark's tracer wraps it (`zones.up`,
    # `zones.reset`, `zones.down` and `zones.time_pred` are kept as the
    # references the tracer binds by name)
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in sorted(SRC.glob("*.py"))}
    loaded = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
    mods = {name: importlib.import_module(f"peralab.{name}") for name in MODULES}
    wrapped = {(owner.__name__, attr) for _, owner, attr in load_tracer()._targets(mods)}
    unused = [
        f"{stem}.{name}"
        for stem, tree in trees.items()
        for name in module_level_names(tree)
        if name not in loaded and (f"peralab.{stem}", name) not in wrapped
    ]
    assert not unused, f"defined in src but used only outside it: {unused}"
