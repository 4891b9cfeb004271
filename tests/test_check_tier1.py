"""The CI verdict script, `.github/check_tier1.py`, on synthetic JUnit reports."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / ".github" / "check_tier1.py"

ACCEPTANCE_4 = "test_acceptance_4_halting_negative"


def case(name: str, outcome: str = "") -> str:
    """One `testcase` element; `outcome` is "", "failure" or "error"."""
    inner = f'<{outcome} message="boom">trace</{outcome}>' if outcome else ""
    return f'<testcase classname="tests.test_x" name="{name}" time="0.1">{inner}</testcase>'


def report(*cases: str) -> str:
    return ('<?xml version="1.0" encoding="utf-8"?><testsuites>'
            f'<testsuite name="pytest" tests="{len(cases)}">{"".join(cases)}</testsuite>'
            "</testsuites>")


@pytest.mark.parametrize("cases,code", [
    pytest.param([case("test_ok"), case(ACCEPTANCE_4, "failure")], 0, id="only-acceptance-4-fails"),
    pytest.param([case("test_ok"), case(ACCEPTANCE_4)], 0, id="acceptance-4-passes"),
    pytest.param([case("test_bad", "failure"), case(ACCEPTANCE_4, "failure")], 1, id="another-fails"),
    pytest.param([case("test_bad", "error"), case(ACCEPTANCE_4)], 1, id="another-errors"),
    pytest.param([], 1, id="no-test-cases"),
])
def test_check_tier1_verdict(tmp_path, cases, code):
    xml = tmp_path / "tier1.xml"
    xml.write_text(report(*cases))
    run = subprocess.run([sys.executable, str(SCRIPT), str(xml)], capture_output=True, text=True)
    assert run.returncode == code, run.stdout + run.stderr
    assert run.stdout.startswith(f"{len(cases)} tests, ")
    assert ("unexpected: tests.test_x::test_bad" in run.stdout) == any("test_bad" in c for c in cases)
