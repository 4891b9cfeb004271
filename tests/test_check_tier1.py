"""The CI verdict script, `.github/check_tier1.py`, on synthetic JUnit reports."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / ".github" / "check_tier1.py"

ACCEPTANCE_4 = "test_acceptance_4_halting_negative"
# the failure message pytest writes for acceptance 4's own FAIL line
REPORTED = "Failed: ACCEPTANCE 4: FAIL - p=3: equal at depth 8, no witness"
CRASHED = "AttributeError: 'Analyzer' object has no attribute 'inv_zone'"


def case(name: str, outcome: str = "", message: str = "boom") -> str:
    """One `testcase` element; `outcome` is "", "failure" or "error"."""
    inner = f'<{outcome} message="{message}">trace</{outcome}>' if outcome else ""
    return f'<testcase classname="tests.test_x" name="{name}" time="0.1">{inner}</testcase>'


def report(*cases: str) -> str:
    return ('<?xml version="1.0" encoding="utf-8"?><testsuites>'
            f'<testsuite name="pytest" tests="{len(cases)}">{"".join(cases)}</testsuite>'
            "</testsuites>")


@pytest.mark.parametrize("cases,unexpected", [
    pytest.param([case("test_ok"), case(ACCEPTANCE_4, "failure", REPORTED)], [], id="only-acceptance-4-fails"),
    pytest.param([case("test_ok"), case(ACCEPTANCE_4)], [], id="acceptance-4-passes"),
    pytest.param([case("test_bad", "failure"), case(ACCEPTANCE_4, "failure", REPORTED)], ["test_bad"],
                 id="another-fails"),
    pytest.param([case("test_bad", "error"), case(ACCEPTANCE_4)], ["test_bad"], id="another-errors"),
    pytest.param([case("test_ok"), case(ACCEPTANCE_4, "failure", CRASHED)], [ACCEPTANCE_4],
                 id="acceptance-4-crashes"),
    pytest.param([case("test_ok"), case(ACCEPTANCE_4, "error", REPORTED)], [ACCEPTANCE_4],
                 id="acceptance-4-errors"),
    pytest.param([], [], id="no-test-cases"),
])
def test_check_tier1_verdict(tmp_path, cases, unexpected):
    xml = tmp_path / "tier1.xml"
    xml.write_text(report(*cases))
    run = subprocess.run([sys.executable, str(SCRIPT), str(xml)], capture_output=True, text=True)
    assert run.returncode == (1 if unexpected or not cases else 0), run.stdout + run.stderr
    assert run.stdout.startswith(f"{len(cases)} tests, ")
    assert [line for line in run.stdout.splitlines() if line.startswith("unexpected: ")] == [
        f"unexpected: tests.test_x::{name}" for name in unexpected]
