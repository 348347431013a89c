import pytest

from sodhh.catalog import CATALOG
from sodhh.linalg import QQ


@pytest.fixture(scope="session")
def algebras():
    """One built instance of every catalog algebra over Q."""
    return {name: entry.algebra(QQ) for name, entry in CATALOG.items()}


@pytest.fixture
def run_optimized():
    """Run a script under `python -O` (asserts stripped) against this
    source tree; returns its stdout lines."""
    import os
    import pathlib
    import subprocess
    import sys
    import sodhh
    src = str(pathlib.Path(sodhh.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [x for x in [env.get("PYTHONPATH")] if x])

    def run(script):
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()
    return run
