"""Whole reports of a fixed set of CLI runs, pinned by one SHA-256.

Each run's report body (stdout up to the timings footer), its stderr
and its exit code go into one digest, with the scratch directory's path
replaced by a placeholder.  The runs cover `lang`, `compare` and
`theorem-check` in all four semantics, the benchmark's job shapes, and
exits 1 and 2.  A change that leaves every report byte-identical keeps
the digest; one that changes any byte of them must say why and update
`REPORTS_SHA256`.  The reports do not depend on `PYTHONHASHSEED`.
"""

import contextlib
import hashlib
import io

from peralab.cli import TIMING_HEADER, main

from machines import MACHINE_DIR

REPORTS_SHA256 = "b1cdc49140ace22b53dd081109b009f1a0d4211312fffba702904f5168ad277d"

BUCHI = ("--semantics", "buchi")

# (argv, with PERA:<variant> standing for loop's encoding and MACHINE:<stem>
# for a bundled machine file)
RUNS = [
    # the benchmark's `dichotomy` jobs, maximal semantics at k = 8
    ("theorem-check", "MACHINE:inc3", "--values", "2,3,5"),
    ("theorem-check", "MACHINE:loop", "--values", "1,2"),
    ("compare", "PERA:wrapped", "-p", "p=0", "-p", "p=3"),
    ("lang", "PERA:wrapped", "-p", "p=2"),
    # `deep-period`: Büchi compare at k = 4 against the periods of seed 1
    *(("compare", "PERA:buchi", "-p", "p=0", "-p", f"p={p}", *BUCHI, "-k", "4")
      for p in ("48", "83", "149/3", "244/3")),
    ("compare", "PERA:buchi", "-p", "p=121/2", "-p", "p=141/2", *BUCHI, "-k", "4"),
    # `buchi-lassos`: Büchi lassos at k = 10
    ("lang", "PERA:buchi", "-p", "p=0", *BUCHI, "-k", "10"),
    ("lang", "PERA:buchi", "-p", "p=2", *BUCHI, "-k", "10"),
    ("compare", "PERA:buchi", "-p", "p=0", "-p", "p=3", *BUCHI, "-k", "10"),
    # the other semantics and machines
    *(("theorem-check", f"MACHINE:{m}", "--values", "1,2,3,5", "-k", "7", "--semantics", s)
      for m in ("halt", "inc3", "loop") for s in ("maximal", "reach", "safety")),
    ("lang", "PERA:buchi", "-p", "p=3", "--semantics", "reach", "-k", "6"),
    ("lang", "PERA:safety", "-p", "p=1/2", "--semantics", "safety", "-k", "6"),
    ("compare", "PERA:safety", "-p", "p=0", "-p", "p=4", "--semantics", "safety", "-k", "9"),
    ("compare", "PERA:buchi", "-p", "p=1", "-p", "p=2", "--semantics", "reach", "-k", "7"),
    # exit 1 and exit 2
    ("lang", "PERA:wrapped", "-p", "p=549755813888"),
    ("theorem-check", "MACHINE:loop", "--values", "2,0"),
    ("lang", "PERA:buchi", "-p", "p=100", *BUCHI, "-k", "4", "--node-limit", "50"),
]


def report(argv) -> bytes:
    """Exit code, report body and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    body = out.getvalue().split(TIMING_HEADER)[0]
    return f"exit {code}\n{body}-- stderr --\n{err.getvalue()}".encode()


def test_reports_pinned(tmp_path):
    for variant in ("wrapped", "buchi", "safety"):
        out = tmp_path / f"loop.{variant}.pera"
        assert main(["encode", str(MACHINE_DIR / "loop.2cm"), "--variant", variant, "-o", str(out)]) == 0
    h = hashlib.sha256()
    for run in RUNS:
        argv = [
            str(tmp_path / f"loop.{a[5:]}.pera") if a.startswith("PERA:")
            else str(MACHINE_DIR / f"{a[8:]}.2cm") if a.startswith("MACHINE:")
            else a
            for a in run
        ]
        h.update(report(argv).replace(str(tmp_path).encode(), b"<tmp>"))
    assert h.hexdigest() == REPORTS_SHA256
