"""sodhh benchmark: drives the CLI in-process and checks every answer.

    python3 benchmark/run.py --workload hh-p3-q --seed 1 --seconds 25 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is imported from `src/` next to this
directory and nowhere else.  One process, one thread, one closed-loop
client: each op starts when the previous one has ended.

--trace 0 measures the end-to-end metrics.  Between ops it times a fixed
reference call (reference.py) and scales every time to the reference's
nominal speed, which takes out the shared host's speed phases; the raw wall
times are printed in the summary lines.  --trace 1 alternates untraced and
traced units of identical work (one op, or one catalog pass) and reports
per-unit per-layer metrics and the tracing overhead.  The last line
of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Generated inputs and span files go to `.benchmark_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".benchmark_out")
SETUP_REPEATS = 15
TAIL_BEYOND = 10    # op_tail_s: highest percentile with this many ops past it
TAIL_MIN_OPS = 100  # ... reported only when that percentile is p90 or above
REF_EVERY_S = 0.3   # reference calls after this much op time

import reference  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Runner  # noqa: E402


class SetupError(RuntimeError):
    pass


def import_sodhh():
    """Import sodhh from this checkout's src/, discarding earlier imports."""
    if not os.path.isfile(os.path.join(SRC, "sodhh", "__init__.py")):
        raise SetupError(f"no sodhh package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [n for n in sys.modules if n == "sodhh" or n.startswith("sodhh.")]:
        del sys.modules[name]
    importlib.import_module("sodhh")
    cli = importlib.import_module("sodhh.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise SetupError(f"sodhh imported from {cli.__file__}, not {SRC}")
    return cli


def setup(workload, seed, gauge):
    """Import sodhh and write the inputs, SETUP_REPEATS times.

    Returns (cli module, input path, raw and scaled set-up times).  The
    last repeat's module and files are the ones the ops use.  Each repeat
    is scaled by the reference calls around it.
    """
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        cli = import_sodhh()
        os.makedirs(OUT, exist_ok=True)
        path = workload.write_inputs(OUT, seed)
        raw.append(perf_counter() - t0)
        gauge.add(raw[-1])
        scaled += gauge.flush()
    return cli, path, raw, scaled


def run_plain(workload, runner, path, seed, seconds, gauge):
    """Cold op, then warm ops until `seconds` after the cold op started.

    The reference is measured after the cold op and after every
    REF_EVERY_S of warm-op time.  At least one warm op runs, so a workload
    whose op outlasts the budget still reports a warm time.  Returns (raw
    and scaled cold op time, raw and scaled warm op times, failures of the
    cold op, failures of the warm ops).
    """
    cold_op, ops = workload.plan(path, seed)
    start = perf_counter()
    why = runner.run(cold_op)
    cold = perf_counter() - start
    gauge.add(cold)
    (cold_scaled,) = gauge.flush()
    cold_failures = [] if why is None else [why]
    warm, warm_scaled, warm_failures = [], [], []
    while not warm or perf_counter() - start < seconds:
        t0 = perf_counter()
        if (why := runner.run(next(ops))) is not None:
            warm_failures.append(why)
        warm.append(perf_counter() - t0)
        gauge.add(warm[-1])
        if gauge.pending_s() >= REF_EVERY_S:
            warm_scaled += gauge.flush()
    warm_scaled += gauge.flush()
    return cold, cold_scaled, warm, warm_scaled, cold_failures, warm_failures


def run_traced(workload, runner, path, seed, seconds, tracer):
    """Alternate untraced and traced units until `seconds` have passed."""
    _, ops = workload.plan(path, seed)
    failures, attempted = [], 0
    untraced = traced = 0.0
    units = 0
    start = perf_counter()
    while not units or perf_counter() - start < seconds:
        for trace in (False, True):
            unit = workload.unit(ops)
            attempted += len(unit)
            if trace:
                tracer.install()
            t0 = perf_counter()
            try:
                failures += [w for w in map(runner.run, unit) if w is not None]
            finally:
                elapsed = perf_counter() - t0
                tracer.uninstall()
            if trace:
                traced += elapsed
            else:
                untraced += elapsed
        units += 1
    return units, attempted, traced / untraced, failures


def tail(times):
    """(percentile, value) with TAIL_BEYOND ops beyond it, or None."""
    n = len(times)
    if n < TAIL_MIN_OPS:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(times)[n - TAIL_BEYOND - 1]


def main_one(args):
    workload = WORKLOADS[args.workload]
    gauge = reference.Gauge()
    cli, path, setup_raw, setup_scaled = setup(workload, args.seed, gauge)
    runner = Runner(cli)
    if args.trace:
        tracer = Tracer()
        units, attempted, overhead, failures = run_traced(
            workload, runner, path, args.seed, args.seconds, tracer)
        spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write_spans(spans)
        metrics = tracer.metrics(units)
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        print(f"{args.workload}: {units} traced units, "
              f"{len(tracer.spans)} spans written to {spans}")
    else:
        cold, cold_scaled, warm, warm_scaled, cold_failures, warm_failures = \
            run_plain(workload, runner, path, args.seed, args.seconds, gauge)
        attempted = 1 + len(warm)
        failures = cold_failures + warm_failures
        correct_warm = len(warm) - len(warm_failures)
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "op_p50_s": (statistics.median(warm_scaled), "s"),
            "ops_per_s": (correct_warm / sum(warm_scaled), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024, "MB"),
        }
        calls = gauge.calls
        print(f"{args.workload}: times scaled to the reference speed; "
              f"{len(calls)} reference calls, median {statistics.median(calls):.6f} s, "
              f"range {min(calls):.6f}-{max(calls):.6f} s, nominal "
              f"{reference.NOMINAL_S} s")
        print(f"{args.workload}: raw wall times: setup_s "
              f"{statistics.median(setup_raw):.6f} over {SETUP_REPEATS} set-ups, "
              f"op_p50_s {statistics.median(warm):.6f} over {len(warm)} warm "
              f"ops taking {sum(warm):.3f} s, cold_op_s {cold:.6f}")
        print(f"{args.workload}: cold_op_s = {cold_scaled:.6f} s over 1 op")
        t = tail(warm_scaled)
        if t is None:
            print(f"{args.workload}: op_tail_s not reported "
                  f"({len(warm)} warm ops, need {TAIL_MIN_OPS})")
        else:
            print(f"{args.workload}: op_tail_s p{t[0]:.2f} = {t[1]:.6f} s "
                  f"over {len(warm)} warm ops")
    for why in failures[:5]:
        print(f"{args.workload}: FAILED op: {why}")
    print(f"{args.workload}: fail_ratio {len(failures)}/{attempted}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}: {name} = {value:.6g} {unit}")
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main_all(args):
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SetupError(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = main_all(args) if args.workload == "all" else main_one(args)
    except SetupError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
