import importlib
import importlib.util
import pathlib
import subprocess
import sys

BENCHMARK = pathlib.Path(__file__).resolve().parents[1] / "benchmark"


def test_benchmark_selftest():
    """The benchmark's input generator and closed-form oracles agree with
    this checkout's sodhh (generated P^1/P^2 against the formulas and
    against catalog beilinson-p2)."""
    script = BENCHMARK / "selftest.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest: ok"


def test_trace_targets_and_exports_resolve():
    """Every (module, attribute) of benchmark/tracing.py's TARGETS resolves
    the way Tracer.install looks it up, so `--trace 1` survives a deletion
    from sodhh; the tracer itself is not installed.  Every name in
    sodhh.__all__ resolves too."""
    import sodhh
    spec = importlib.util.spec_from_file_location(
        "benchmark_tracing", BENCHMARK / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for mod, path in tracing.TARGETS:
        owner = importlib.import_module(f"sodhh.{mod}")
        head, _, method = path.partition(".")
        obj = getattr(owner, head, None)
        if method:
            found = obj is not None and method in vars(obj)
        elif isinstance(obj, type):
            found = "__init__" in vars(obj)
        else:
            found = callable(obj)
        if not found:
            missing.append(f"{mod}.{path}")
    assert missing == []
    assert [name for name in sodhh.__all__ if not hasattr(sodhh, name)] == []
