import pathlib
import subprocess
import sys


def test_benchmark_selftest():
    """The benchmark's input generator and closed-form oracles agree with
    this checkout's sodhh (generated P^1/P^2 against the formulas and
    against catalog beilinson-p2)."""
    script = pathlib.Path(__file__).resolve().parents[1] / "benchmark" / "selftest.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest: ok"
