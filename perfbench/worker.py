"""Runs one workload's calls through ``termbound.cli.main`` in this interpreter.

Usage: python3 worker.py PLAN_JSON RESULT_JSON

The plan names the source tree, the corpus directory, the calls, whether
to trace, how long to run, and the command of an import probe: passes over
the calls repeat while the next pass is expected to end within
``seconds``, at least once. The result holds every call's exit code,
output, measured and scaled time, the probes' import times, the process's
peak RSS and, when traced, the per-layer totals and the spans. The
process starts no threads; the probes run one at a time between passes.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import subprocess
import sys
from time import perf_counter

PROBES_PER_PASS = 2

# Seconds the calibration loop takes on the reference machine: a 2-CPU
# Intel Xeon container in the faster of its two speed regimes (fastest of
# 150 runs: 16.6 ms; 5th percentile: 17.4 ms).
CALIBRATION_REF_S = 0.017
CALIBRATION_ROUNDS = 40_000


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def calibration_seconds() -> float:
    """Time of a fixed pure-Python loop: a gauge of the machine's speed now.

    Like the program, it builds tuples and small objects and stores them
    in a dict, so it slows down when a shared machine slows the program
    down. The dict stays small, so the loop does not raise the peak RSS.
    """
    start = perf_counter()
    table = {}
    for i in range(CALIBRATION_ROUNDS):
        key = (i, i + 1, i % 7)
        table[i & 1023] = _Cell(key[1:], key)
    total = sum(cell.b[2] for cell in table.values() if cell.a[1] < 3)
    elapsed = perf_counter() - start
    if total < 0:
        raise AssertionError("unreachable; keeps the loop's result live")
    return elapsed


def scale(before: float, after: float) -> float:
    """Factor from measured seconds to seconds at the reference speed."""
    return CALIBRATION_REF_S / ((before + after) / 2)


def run_call(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    gc.collect()  # garbage of earlier calls is not this call's cost
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # a crash is a failed call, not a failed benchmark
        rc = None
        err.write(repr(exc))
    return {
        "seconds": perf_counter() - start,
        "rc": rc,
        "out": out.getvalue(),
        "err": err.getvalue()[-2000:],
    }


def import_seconds(probe: list[str]) -> float:
    """Import time of ``termbound.cli`` in a fresh interpreter."""
    proc = subprocess.run(probe, capture_output=True, text=True, check=True, timeout=60)
    return float(proc.stdout)


def main() -> int:
    plan_path, result_path = sys.argv[1:3]
    with open(plan_path) as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import termbound.cli as cli

    tracer = None
    if plan["traced"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    os.chdir(plan["corpus"])

    # Every call and every pair of import probes is timed between two runs
    # of the calibration loop, and its time is scaled to the reference
    # speed by their mean. Import probes run between passes, so that setup_s
    # samples the same stretch of machine time as the passes; the first one
    # fills the bytecode cache and is not kept.
    probe = plan["probe"]
    if probe:
        import_seconds(probe)
    setup_s = []
    passes = []
    start = perf_counter()
    while True:
        calls = []
        gauge = calibration_seconds()
        for call in plan["calls"]:
            outcome = run_call(cli, call["argv"])
            before, gauge = gauge, calibration_seconds()
            outcome["scaled_s"] = outcome["seconds"] * scale(before, gauge)
            calls.append(outcome)
        passes.append({
            "seconds": sum(c["seconds"] for c in calls),
            "scaled_s": sum(c["scaled_s"] for c in calls),
            "calls": calls,
        })
        if probe:
            samples = [import_seconds(probe) for _ in range(PROBES_PER_PASS)]
            factor = scale(gauge, calibration_seconds())
            setup_s.extend(x * factor for x in samples)
        elapsed = perf_counter() - start
        if elapsed + elapsed / len(passes) > plan["seconds"]:
            break

    result = {
        "setup_s": setup_s,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["spans"] = tracer.spans
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
