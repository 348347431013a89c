"""JSON reports stay byte-identical: the sha256 of every `--format json`
report in `golden_reports.json` is recomputed from this source tree.

The calls are the 98 (catalog entry, subcommand) pairs that exit 0, plus
`generalized --coeff diagonal|P1 --support diagonal|serre` and
`fullness --objects 1` on every entry where they exit 0.  The file is
rewritten (`python tests/test_golden_reports.py --write`) only by a change
that means to change a report.
"""

import hashlib
import json
import pathlib
import sys

from sodhh.catalog import catalog_names
from sodhh.cli import run_command

GOLDEN = pathlib.Path(__file__).with_name("golden_reports.json")

SWEEP_SUBCOMMANDS = [
    ("cohomology",), ("homology",), ("coeffs", "--bimodule", "serre"),
    ("serre-check",), ("collection", "check"),
    ("collection", "mutate", "--index", "1", "--dir", "left"),
    ("collection", "dual"), ("kernels", "build"),
    ("kernels", "orthogonality"), ("kernels", "additivity"),
    ("les-check",), ("fullness",),
]
EXTRA_SUBCOMMANDS = [
    ("generalized", "--coeff", coeff, "--support", support)
    for coeff in ("diagonal", "P1") for support in ("diagonal", "serre")
] + [("fullness", "--objects", "1")]


def report_hash(argv):
    code, report = run_command(list(argv))
    return code, hashlib.sha256(report.to_json().encode()).hexdigest()


def candidate_calls():
    for sub in SWEEP_SUBCOMMANDS + EXTRA_SUBCOMMANDS:
        for entry in catalog_names():
            yield list(sub) + ["--catalog", entry, "--format", "json"]


def record():
    """Hashes of every candidate call that exits 0, keyed by its argv."""
    golden = {}
    for argv in candidate_calls():
        code, digest = report_hash(argv)
        if code == 0:
            golden[" ".join(argv)] = digest
    return golden


def test_reports_match_golden_hashes():
    golden = json.loads(GOLDEN.read_text())
    sweep = [k for k in golden
             if tuple(k.split(" --catalog ")[0].split()) in SWEEP_SUBCOMMANDS]
    assert len(sweep) == 98
    mismatched = [key for key, digest in golden.items()
                  if report_hash(key.split()) != (0, digest)]
    assert not mismatched


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_reports.py --write")
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
