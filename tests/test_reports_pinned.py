"""Whole reports of a fixed set of CLI runs, pinned by one SHA-256 each.

Each run's report body (stdout up to the timings footer), its stderr
and its exit code go into its digest, with the scratch directory's path
replaced by a placeholder.  The runs cover `lang`, `compare` and
`theorem-check` in all four semantics, the benchmark's job shapes, and
exits 1 and 2.  A change that leaves every report byte-identical keeps
the digests; one that changes any byte of a report must say why and
update that run's entry in `REPORTS_SHA256`, which is keyed by the run's
arguments joined by spaces.  A failure names every run whose report
changed.  The reports do not depend on `PYTHONHASHSEED`.
"""

import contextlib
import hashlib
import io

from peralab.cli import TIMING_HEADER, main

from machines import MACHINE_DIR

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
    # an empty lasso listing: the header, then one blank line
    ("lang", "PERA:buchi", "-p", "p=0", *BUCHI, "-k", "0"),
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

REPORTS_SHA256 = {
    "theorem-check MACHINE:inc3 --values 2,3,5":
        "b1938576bc218058f2e4ea3b6ab01cc94be0d7d402dde8799372463d4be50d4a",
    "theorem-check MACHINE:loop --values 1,2":
        "b4ac84be210f83f367969b861ddfd15204edc5bf441e56561c8a77c2aa827aaf",
    "compare PERA:wrapped -p p=0 -p p=3":
        "d9713353eb7a9896a665b001bdbd6cd1b5684eae3e29ff7c2f32e02d8f59710e",
    "lang PERA:wrapped -p p=2":
        "678af06b0bafd42af9c0632241a0687fe174018349a11ad9d58ad36af252953a",
    "compare PERA:buchi -p p=0 -p p=48 --semantics buchi -k 4":
        "ca5036361f04e99c22b7c36d62538f68611d3245033b97e5c1126e19c46064b7",
    "compare PERA:buchi -p p=0 -p p=83 --semantics buchi -k 4":
        "7970fdc10f35bbc0062290b524a400680637295ac2f1f1d9b414600e07e55f61",
    "compare PERA:buchi -p p=0 -p p=149/3 --semantics buchi -k 4":
        "520c85e83a5b26f8c72fc5a5876fc2206d3d437a2fe0e8622e02ffb36c9d7071",
    "compare PERA:buchi -p p=0 -p p=244/3 --semantics buchi -k 4":
        "07e944f0b159072171cb676a2f06812830e5702f5a1f7c49ed43ab7c352982e8",
    "compare PERA:buchi -p p=121/2 -p p=141/2 --semantics buchi -k 4":
        "f31d2fe2c83e1f94e546adda7634ff3e943a6fe4b858f00111f3d46c26bdbaf3",
    "lang PERA:buchi -p p=0 --semantics buchi -k 10":
        "63f15b226f9a00db8c8e8268043529ef400b132f1cb3b20b7f16fd05ba7c80e7",
    "lang PERA:buchi -p p=2 --semantics buchi -k 10":
        "777f735cc479462b7588cd177bdbe9d4f3413dbf418fddc7654550e5d2f82b85",
    "compare PERA:buchi -p p=0 -p p=3 --semantics buchi -k 10":
        "c4b8d2cc8caacc75f9c8b238dad98d589cf7f0f78543fb79920ef8cc489c4b5b",
    "lang PERA:buchi -p p=0 --semantics buchi -k 0":
        "dcb0cd1bfb600be26556e6bcb29bfe2c539b19b0cf2e1e6d4044f1713796218e",
    "theorem-check MACHINE:halt --values 1,2,3,5 -k 7 --semantics maximal":
        "13ff6765bbe3f77b3ffb9c6e00dc9db284a10b430e016158d7e4658a4c6f6e4f",
    "theorem-check MACHINE:halt --values 1,2,3,5 -k 7 --semantics reach":
        "2fdc8219125bbcbdc9603390c6cce6d0ee42776c6318af3ab5c16172da6ebd0a",
    "theorem-check MACHINE:halt --values 1,2,3,5 -k 7 --semantics safety":
        "e33c40846f6dab6271a9fd0b0e3589ab808adedae2bd15c4e2d9d8055e3626f4",
    "theorem-check MACHINE:inc3 --values 1,2,3,5 -k 7 --semantics maximal":
        "8b806608f8e4ac278d98c7650c2cd046e3f204423e08aed8305c848e377b6d69",
    "theorem-check MACHINE:inc3 --values 1,2,3,5 -k 7 --semantics reach":
        "43bd03bfa6c0c29024916d44159162d722afa51d0f3965b33cd3e5a40b210813",
    "theorem-check MACHINE:inc3 --values 1,2,3,5 -k 7 --semantics safety":
        "fbf284dc3b86f7729260c35d41e4edb78394f7b0987889000475863d30d08cdd",
    "theorem-check MACHINE:loop --values 1,2,3,5 -k 7 --semantics maximal":
        "edbc1efe42160921e4cacecbd19cb63919c565a9deecc5fa87ba478f6e9f6ae6",
    "theorem-check MACHINE:loop --values 1,2,3,5 -k 7 --semantics reach":
        "719a7b26bf6c5aee041f157d9488780c838a3a2b07d7c18a59c098502b7065dc",
    "theorem-check MACHINE:loop --values 1,2,3,5 -k 7 --semantics safety":
        "e8f0e2bc9de7e02f884acf5a274e8a8c7faedb5c7f43cb9fddb5eeb6240a3b6f",
    "lang PERA:buchi -p p=3 --semantics reach -k 6":
        "64cb9fea19f5f8cf3cbe5691c0f159906baf66d81206b98c183b66aac584d91d",
    "lang PERA:safety -p p=1/2 --semantics safety -k 6":
        "492c2b55ba81ff5b264360f3c6d12fdfa19e8e3b3f2ced31fadac0050e6c517e",
    "compare PERA:safety -p p=0 -p p=4 --semantics safety -k 9":
        "413febb3f660e3347e8c53f2f40daf1952a0e7ec986135ea8e0f2241aac52914",
    "compare PERA:buchi -p p=1 -p p=2 --semantics reach -k 7":
        "db710a87e966e17ad2590c7db6e35df27ce6a7e0b6dd8532057d77389af42cce",
    "lang PERA:wrapped -p p=549755813888":
        "bc6e15c75372502bce4597bd810ff84ca349b4ebfb0d33a96b6efe6167535115",
    "theorem-check MACHINE:loop --values 2,0":
        "38d3424275e41cc7e073ccfd31d8bc56b996546a25960c2b985f25af79044182",
    "lang PERA:buchi -p p=100 --semantics buchi -k 4 --node-limit 50":
        "8d26f5975ee9a476160d6a1ca42e3f07b6113cd4d7bcf9395e761e5f4ebb1c5e",
}


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
    assert sorted(REPORTS_SHA256) == sorted(map(" ".join, RUNS))
    changed = []
    for run in RUNS:
        argv = [
            str(tmp_path / f"loop.{a[5:]}.pera") if a.startswith("PERA:")
            else str(MACHINE_DIR / f"{a[8:]}.2cm") if a.startswith("MACHINE:")
            else a
            for a in run
        ]
        digest = hashlib.sha256(report(argv).replace(str(tmp_path).encode(), b"<tmp>")).hexdigest()
        if digest != REPORTS_SHA256[" ".join(run)]:
            changed.append(" ".join(run))
    assert not changed, f"reports changed: {changed}"
