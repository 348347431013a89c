"""JSON reports stay byte-identical: the sha256 of every `--format json`
report in `golden_reports.json` is recomputed from this source tree.

The calls are the 98 (catalog entry, subcommand) pairs that exit 0, plus
`generalized --coeff diagonal|P1 --support diagonal|serre` and
`fullness --objects 1` on every entry where they exit 0.  The file is
rewritten (`python tests/test_golden_reports.py --write`) only by a change
that means to change a report.  The `kernels` reports on generated
Beilinson P^3 (seed 101), whose right factors are longer than any in the
catalog, are pinned in GENERATED_P3_KERNELS, and its `serre-check` report,
whose S-probes are resolutions of four simples, in GENERATED_P3_SERRE_CHECK.
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


GENERATED_P3_KERNELS = {
    "build":
        "87c3c34720fa0d50b2320c16733933419d411e2df6361dd0a744fa8cee28f9f9",
    "orthogonality":
        "5e77bc9a5525fcc72ac1ecbdd5fc48ea9df629106acfd5ec832d035dc4e1f0e1",
    "additivity":
        "2b5a1a74a9c959406e1c9dc359efc1e22970bce4e09dbef066dbfef3c213bc36",
}
GENERATED_P3_SERRE_CHECK = \
    "76f01dec6fc8108922d8fa11bd4ad6663dd14866c26997f467bc588aacee42d0"


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


def _write_generated_p3(tmp_path, monkeypatch):
    """Generated Beilinson P^3 (seed 101), written under a relative name in
    tmp_path, so a report's `command` line does not depend on the
    temporary directory."""
    from test_cli import _benchmark_inputs
    doc = _benchmark_inputs().beilinson_quiver_doc(3, {"kind": "q"}, 101)
    monkeypatch.chdir(tmp_path)
    pathlib.Path("beilinson-p3.json").write_text(json.dumps(doc))
    return "beilinson-p3.json"


def test_generated_p3_kernel_reports_match_pinned_hashes(tmp_path,
                                                       monkeypatch):
    """The `kernels build|orthogonality|additivity` JSON reports of
    generated Beilinson P^3 keep their pinned sha256."""
    path = _write_generated_p3(tmp_path, monkeypatch)
    for sub, digest in GENERATED_P3_KERNELS.items():
        assert report_hash(["kernels", sub, "--file", path,
                            "--format", "json"]) == (0, digest), sub


def test_generated_p3_serre_check_report_matches_pinned_hash(tmp_path,
                                                           monkeypatch):
    """The `serre-check` JSON report of generated Beilinson P^3 keeps its
    pinned sha256."""
    path = _write_generated_p3(tmp_path, monkeypatch)
    assert report_hash(["serre-check", "--file", path, "--format",
                        "json"]) == (0, GENERATED_P3_SERRE_CHECK)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_reports.py --write")
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
