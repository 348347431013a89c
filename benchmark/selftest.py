"""Self-test of the benchmark's input generator and oracles.

    python3 benchmark/selftest.py

The generated P^2 quiver, on several seeds, must give the same
`cohomology` and `homology` profiles as the catalog's `beilinson-p2`, and
the generated P^1 and P^2 must match the closed forms.  Exits 0 when all
hold, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import sys

from inputs import beilinson_quiver_doc, hh_cohomology_pn, hh_homology_pn
from run import OUT, import_sodhh

MAX_DEGREE = 4
SEEDS = (0, 1, 2)


def profiles(cli, source):
    """(HH^* dims, HH_* dims) of `source`, a --catalog or --file pair."""
    out = []
    for command, key in (("cohomology", "hh_cohomology"),
                         ("homology", "hh_homology")):
        code, report = cli.run_command(
            [command, *source, "--max-degree", str(MAX_DEGREE),
             "--format", "json"])
        if code != 0:
            raise RuntimeError(f"sodhh {command} {source} exited {code}")
        out.append(json.loads(report.to_json())[key]["dims"])
    return tuple(out)


def main():
    cli = import_sodhh()
    os.makedirs(OUT, exist_ok=True)
    failures = []
    catalog = profiles(cli, ["--catalog", "beilinson-p2"])
    for n in (1, 2):
        closed = (hh_cohomology_pn(n, MAX_DEGREE), hh_homology_pn(n, MAX_DEGREE))
        for seed in SEEDS:
            path = os.path.join(OUT, f"selftest-p{n}-seed{seed}.json")
            with open(path, "w") as fh:
                json.dump(beilinson_quiver_doc(n, {"kind": "q"}, seed), fh)
            got = profiles(cli, ["--file", path])
            if got != closed:
                failures.append(f"P^{n} seed {seed}: {got} != closed form {closed}")
            if n == 2 and got != catalog:
                failures.append(f"P^2 seed {seed}: {got} != catalog {catalog}")
    for line in failures:
        print("FAIL", line)
    print("selftest:", "ok" if not failures else f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
