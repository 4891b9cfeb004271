"""Fail unless every tier-1 test passed, apart from acceptance 4.

Usage: python .github/check_tier1.py JUNIT_XML

Acceptance 4 is the documented expected failure (README, "Tests"); it
is neither skipped nor deselected, and may pass or fail.  It may fail
only as itself: a `failure` whose message holds its own `ACCEPTANCE 4:
FAIL - ` report line, with no `error`.  A crash inside it, or a fixture
error, is unexpected.  Any other failure or error, or a report with no
tests in it, exits 1.
"""

import sys
import xml.etree.ElementTree as ET

EXPECTED_FAILURE = "test_acceptance_4_halting_negative"
REPORT_LINE = "ACCEPTANCE 4: FAIL - "


def expected(case) -> bool:
    """Whether a failing `case` is acceptance 4 failing with its own report line."""
    failure = case.find("failure")
    return (case.get("name") == EXPECTED_FAILURE and case.find("error") is None
            and failure is not None and REPORT_LINE in failure.get("message", ""))


def main(path: str) -> int:
    cases = list(ET.parse(path).getroot().iter("testcase"))
    bad = [case for case in cases if case.find("failure") is not None or case.find("error") is not None]
    unexpected = [f"{case.get('classname')}::{case.get('name')}" for case in bad if not expected(case)]
    print(f"{len(cases)} tests, {len(bad)} failed or errored, {len(unexpected)} unexpected")
    for name in unexpected:
        print(f"unexpected: {name}")
    return 1 if unexpected or not cases else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
