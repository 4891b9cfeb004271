"""Smoke test for the theorem experiment script in scripts/."""

import importlib.util
import re
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_theorem_experiment.py"


def load_script():
    spec = importlib.util.spec_from_file_location("run_theorem_experiment", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_theorem_experiment_runs_on_bundled_machines(tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert load_script().main(["--depth", "6", "--out", str(out)]) == 0
    report = out.read_text()
    assert capsys.readouterr().out == report + f"\nreport written to {out}\n"
    banners = re.findall(r"^==== .* ====$", report, flags=re.M)
    assert banners == [
        "==== inc3.2cm (p in {2,3,5}, depth 6) ====",
        "==== loop.2cm (p in {1,2}, depth 6) ====",
        "==== halt.2cm (p in {1,2,3}, depth 6) ====",
    ]
    sections = re.split(r"^==== .* ====$", report, flags=re.M)[1:]
    wanted = ("consistent with halting", "consistent with non-halting", "consistent with halting")
    for section, want in zip(sections, wanted):
        assert f"\nverdict: {want}\n" in section
