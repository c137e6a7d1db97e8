"""Write a byte corpus of minklat reports, one file per command, for diffing.

    PYTHONPATH=src python tests/report_corpus.py OUTDIR

Runs every command below through click's test runner in one process and
writes each one's stdout to OUTDIR/<command>/<name>.<format>; exits 1, after
writing every file, if any command exits nonzero.  A change that must keep
the reports' bytes runs it on both trees and compares with
``diff -r OLD NEW``; to run the old tree's program with this script, put
that tree's src first on PYTHONPATH.

The corpus (257 files), which reaches every report writer:

- ``search`` 3-6 in text, json and csv, and ``search 5 --signature 3,1``;
- ``verify --suite fast`` and ``--suite all`` in all three formats;
- ``lattice --format json`` on the 67 frozen m < 1 polynomials of degrees
  3-6, ``multinacci`` 9-22, ``truncated_geom`` 10-22 and ``root_power`` 2-8;
- ``family`` in all three formats on the members below;
- ``analyze --format json`` on the 67 polynomials;
- ``analyze`` and ``lattice`` in text and csv on the 7 of degrees 3 and 4,
  and in all three formats on the linear x - 2;
- ``analyze --extension 2,0`` and ``--extension 1,1`` in all three formats
  on x^3 + x^2 - 1 and x^6 + x^2 - 1.
"""
import sys
from pathlib import Path

from click.testing import CliRunner

from minklat.cli import main
from minklat.intpoly import multinacci, root_power, truncated_geom
from test_search import DEG3_TABLE, DEG4_TABLE, DEG5_TABLE, DEG6_TABLE

FORMATS = {"text": "txt", "json": "json", "csv": "csv"}
LINEAR = "x-2"
EXTENDED = ["x^3+x^2-1", "x^6+x^2-1"]
FAMILY_MEMBERS = [
    ("cofactor", 100), ("cofactor", 400), ("cofactor", 800),
    ("even-spread", 122), ("even-spread", 402), ("truncated-geom", 151),
    ("multinacci", 150), ("root-power", 40),
]


def commands():
    """(path under OUTDIR, CLI arguments) for every report of the corpus."""
    for n in range(3, 7):
        for fmt, ext in FORMATS.items():
            yield f"search/{n}.{ext}", ["search", str(n), "--format", fmt]
    yield "search/5-signature-3,1.txt", ["search", "5", "--signature", "3,1"]
    for suite in ("fast", "all"):
        for fmt, ext in FORMATS.items():
            yield f"verify/{suite}.{ext}", ["verify", "--suite", suite, "--format", fmt]
    table = [text for t in (DEG3_TABLE, DEG4_TABLE, DEG5_TABLE, DEG6_TABLE) for text, _ in t]
    lattices = [(text, text) for text in table]
    for name, build, degrees in (
        ("multinacci", multinacci, range(9, 23)),
        ("truncated_geom", truncated_geom, range(10, 23)),
        ("root_power", root_power, range(2, 9)),
    ):
        lattices += [(f"{name}-{n}", build(n).to_text()) for n in degrees]
    for name, text in lattices:
        yield f"lattice/{name}.json", ["lattice", text, "--format", "json"]
    for kind, n in FAMILY_MEMBERS:
        for fmt, ext in FORMATS.items():
            yield f"family/{kind}-{n}.{ext}", ["family", kind, str(n), "--format", fmt]
    for text in table:
        yield f"analyze/{text}.json", ["analyze", text, "--format", "json"]
    low = [text for t in (DEG3_TABLE, DEG4_TABLE) for text, _ in t]
    for command in ("analyze", "lattice"):
        for text in low:
            for fmt in ("text", "csv"):
                yield f"{command}/{text}.{FORMATS[fmt]}", [command, text, "--format", fmt]
        for fmt, ext in FORMATS.items():
            yield f"{command}/{LINEAR}.{ext}", [command, LINEAR, "--format", fmt]
    for text in EXTENDED:
        for sig in ("2,0", "1,1"):
            for fmt, ext in FORMATS.items():
                yield (f"analyze/{text}-extension-{sig}.{ext}",
                       ["analyze", text, "--extension", sig, "--format", fmt])


def write_corpus(outdir: str) -> int:
    runner = CliRunner()
    failed = []
    for name, args in commands():
        result = runner.invoke(main, args)
        path = Path(outdir) / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(result.stdout)
        if result.exit_code != 0:
            failed.append(f"{' '.join(args)}: exit {result.exit_code}")
    for line in failed:
        print(line, file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(write_corpus(sys.argv[1]))
