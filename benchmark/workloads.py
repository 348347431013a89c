"""The benchmark's workloads: the CLI calls each op makes and its oracle.

An op is one or more `sodhh.cli.run_command` calls, each report rendered
to JSON as `sodhh --format json` prints it.  An op is correct when every
call exits 0, every report check passes, the closed-form dims match, and
every report is byte-identical to the first report of the same op in the
run.
"""

from __future__ import annotations

import json
import os
import random
from itertools import takewhile

from inputs import (beilinson_dim, beilinson_quiver_doc, catalog_expected,
                    hh_cohomology_pn, hh_homology_pn)

MAX_DEGREE = 5             # for the generated Beilinson files
FP_PRIME = 32003

# Every (catalog entry, subcommand) pair of the sweep; 98 pairs, all of
# which exit 0.  `loop-x2` has infinite global dimension and no
# exceptional collection, and only gluing entries support `les-check`, so
# those pairs exit 2 by design and are left out.
SWEEP_SUBCOMMANDS = [
    ("cohomology",), ("homology",), ("coeffs", "--bimodule", "serre"),
    ("serre-check",), ("collection", "check"),
    ("collection", "mutate", "--index", "1", "--dir", "left"),
    ("collection", "dual"), ("kernels", "build"),
    ("kernels", "orthogonality"), ("kernels", "additivity"),
    ("les-check",), ("fullness",),
]
SWEEP_ENTRIES = ["a2-quiver", "beilinson-p1", "beilinson-p2", "kronecker1",
                 "kronecker2", "kronecker3", "kronecker3-gluing", "kxk",
                 "loop-x2"]
NEEDS_COLLECTION = {"collection", "kernels", "les-check", "fullness"}
NO_GLUING_DATA = {"beilinson-p2", "kxk", "loop-x2"}
SWEEP_PAIRS = 98
CATALOG_MAX_DEGREE = 6      # the CLI default


class OpFailed(Exception):
    pass


class Op:
    """CLI calls plus the dims each report must show."""

    def __init__(self, key, calls, expected):
        self.key = key
        self.calls = calls          # list of argv lists
        self.expected = expected    # per call: {(report key, field): value}


def _check_report(text, code, expected):
    if code != 0:
        raise OpFailed(f"exit code {code}")
    doc = json.loads(text)
    failed = [c["name"] for c in doc["checks"] if not c["passed"]]
    if failed:
        raise OpFailed(f"report checks failed: {failed}")
    for (key, field), value in expected.items():
        got = doc.get(key, {}).get(field)
        if got != value:
            raise OpFailed(f"{key}.{field}: expected {value}, got {got}")


class Runner:
    """Runs ops through the CLI module and keeps the first reports of each
    op, against which later reports are compared byte for byte."""

    def __init__(self, cli):
        self.cli = cli
        self.reference = {}

    def run(self, op):
        """Return None if the op is correct, else a reason."""
        try:
            texts = []
            for argv, expected in zip(op.calls, op.expected):
                code, report = self.cli.run_command(list(argv))
                text = report.to_json()
                _check_report(text, code, expected)
                texts.append(text)
        except OpFailed as exc:
            return str(exc)
        except (Exception, SystemExit) as exc:     # noqa: BLE001
            return f"{type(exc).__name__}: {exc}"
        first = self.reference.setdefault(op.key, texts)
        if first != texts:
            return "report differs from the first report of the same op"
        return None


class BeilinsonWorkload:
    """An op on a generated Beilinson P^n quiver file."""

    def __init__(self, name, n, field, kernels):
        self.name = name
        self.n = n
        self.field = field
        self.kernels = kernels

    def write_inputs(self, out_dir, seed):
        path = os.path.join(out_dir, f"{self.name}.json")
        doc = beilinson_quiver_doc(self.n, self.field, seed)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def plan(self, path, seed):
        common = ["--file", path, "--max-degree", str(MAX_DEGREE),
                  "--format", "json"]
        dim = {("algebra", "dimension"): beilinson_dim(self.n)}
        homology = {**dim, ("hh_homology", "dims"):
                    hh_homology_pn(self.n, MAX_DEGREE)}
        if self.kernels:
            op = Op("additivity", [["kernels", "additivity"] + common],
                    [homology])
        else:
            cohomology = {**dim, ("hh_cohomology", "dims"):
                          hh_cohomology_pn(self.n, MAX_DEGREE)}
            op = Op("hh", [["cohomology"] + common, ["homology"] + common],
                    [cohomology, homology])
        return op, _repeat(op)

    def unit(self, ops):
        """Ops per traced unit: one."""
        return [next(ops)]


class SweepWorkload:
    """One CLI call per op over the catalog pairs, in a seeded order."""

    name = "catalog-sweep"
    # The cold op is the same on every seed, so cold_op_s compares across
    # runs.  It is the sweep's slowest pair: a first op of a few ms is
    # dominated by timer and scheduling jitter, and does not repeat.
    COLD = ("beilinson-p2", ("kernels", "orthogonality"))

    def write_inputs(self, out_dir, seed):
        return None

    def plan(self, path, seed):
        ops = [_sweep_op(e, s) for e in SWEEP_ENTRIES for s in SWEEP_SUBCOMMANDS
               if _sweep_pair_ok(e, s)]
        if len(ops) != SWEEP_PAIRS:
            raise RuntimeError(f"sweep has {len(ops)} pairs, not {SWEEP_PAIRS}")
        return _sweep_op(*self.COLD), _passes(ops, random.Random(seed))

    def unit(self, ops):
        """Ops per traced unit: one full pass."""
        return [next(ops) for _ in range(SWEEP_PAIRS)]


def _sweep_pair_ok(entry, sub):
    if entry == "loop-x2" and sub[0] in NEEDS_COLLECTION:
        return False
    return not (sub[0] == "les-check" and entry in NO_GLUING_DATA)


def _sweep_op(entry, sub):
    name = " ".join(takewhile(lambda s: not s.startswith("--"), sub))
    expected = {(key, "dims"): dims for key, dims in
                catalog_expected(entry, name, CATALOG_MAX_DEGREE).items()}
    return Op((entry,) + sub, [list(sub) + ["--catalog", entry,
                                            "--format", "json"]], [expected])


def _repeat(op):
    while True:
        yield op


def _passes(ops, rng):
    while True:
        order = list(ops)
        rng.shuffle(order)
        yield from order


WORKLOADS = {
    "hh-p3-q": BeilinsonWorkload("hh-p3-q", 3, {"kind": "q"}, kernels=False),
    "hh-p3-fp": BeilinsonWorkload("hh-p3-fp", 3, {"kind": "fp", "p": FP_PRIME},
                                  kernels=False),
    "kernels-p2": BeilinsonWorkload("kernels-p2", 2, {"kind": "q"},
                                    kernels=True),
    "catalog-sweep": SweepWorkload(),
}
