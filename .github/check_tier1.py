"""Fail unless every tier-1 test passed, apart from acceptance 4.

Usage: python .github/check_tier1.py JUNIT_XML

Acceptance 4 is the documented expected failure (README, "Tests"); it
is neither skipped nor deselected, and may pass or fail.  Any other
failure or error, or a report with no tests in it, exits 1.
"""

import sys
import xml.etree.ElementTree as ET

EXPECTED_FAILURE = "test_acceptance_4_halting_negative"


def main(path: str) -> int:
    cases = list(ET.parse(path).getroot().iter("testcase"))
    bad = [
        f"{case.get('classname')}::{case.get('name')}"
        for case in cases
        if case.find("failure") is not None or case.find("error") is not None
    ]
    unexpected = [name for name in bad if not name.endswith("::" + EXPECTED_FAILURE)]
    print(f"{len(cases)} tests, {len(bad)} failed or errored, {len(unexpected)} unexpected")
    for name in unexpected:
        print(f"unexpected: {name}")
    return 1 if unexpected or not cases else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
