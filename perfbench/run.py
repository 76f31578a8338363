"""The termbound benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload pipeline|check|bound \
        [--seed N] [--seconds S] [--trace 0|1] [--record-digests]

The run writes the workload's seeded inputs under ``perfbench/out/``
and runs the calls in a fresh worker interpreter (``worker.py``) through
``termbound.cli.main`` with ``--format structured``. ``setup_s`` is the
median import time of ``termbound.cli`` over fresh interpreters started
between the worker's passes. Every call's exit code and output is checked
against a reference the benchmark computes itself (``checks.py``).

With ``--trace 0`` the run measures for ``--seconds`` and reports the
end-to-end metrics of ``BENCHMARK.json``. With ``--trace 1`` it spends
half of ``--seconds`` on untraced passes, then runs two traced workers of
one pass each and reports the per-layer metrics, which come from the mean
of the two traced passes; their counters must agree exactly. The last line
of standard output is the JSON result; a fuller record, with the
environment and per-call output sizes, goes to
``perfbench/out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import corpus
from tracer import DETERMINISTIC_SUFFIXES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

DEFAULT_SEED = 0
DEADLINE_S = 170  # the run must end within 180 s
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import termbound.cli; print(time.perf_counter() - t)"
)
WORKER_ENV = dict(os.environ, PYTHONHASHSEED="0")


def run_worker(workdir: Path, calls: list[dict], traced: bool, seconds: float,
               deadline: float, tag: str) -> dict:
    plan_path, result_path = workdir / f"plan-{tag}.json", workdir / f"result-{tag}.json"
    plan = {
        "src": str(SRC),
        "corpus": str(workdir),
        "calls": calls,
        "traced": traced,
        "seconds": seconds,
        "probe": [sys.executable, "-c", IMPORT_PROBE, str(SRC)] if not traced else None,
    }
    plan_path.write_text(json.dumps(plan))
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
        env=WORKER_ENV, check=True, timeout=max(1.0, deadline - time.monotonic()),
    )
    return json.loads(result_path.read_text())


def judge(calls: list[dict], results: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every pass of every worker."""
    attempted = failed = 0
    problems = []
    for result in results:
        for p in result["passes"]:
            for call, outcome in zip(calls, p["calls"]):
                attempted += 1
                found = checks.check_call(call, outcome["rc"], outcome["out"])
                if found:
                    failed += 1
                    problems.append(f"{call['id']}: {'; '.join(found)} {outcome['err']}".strip())
    return attempted, failed, problems


def end_to_end(plain: dict, attempted: int, failed: int) -> dict:
    passes = plain["passes"]
    per_call = [[c["scaled_s"] for c in p["calls"]] for p in passes]
    return {
        "setup_s": statistics.median(plain["setup_s"]),
        "wall_s": statistics.median(p["scaled_s"] for p in passes),
        "verdict_s.p50": statistics.median(statistics.median(t) for t in per_call),
        "verdict_s.max": statistics.median(max(t) for t in per_call),
        "peak_rss_mb": plain["peak_rss_mb"],
        "ok_ratio": (attempted - failed) / attempted,
    }


def per_layer(plain: dict, traced: list[dict]) -> tuple[dict, list[str]]:
    """Mean of the traced runs' layer totals, and counters that disagree.

    Span times are scaled to the reference speed by their pass's factor.
    """
    first, second = (t["layers"] for t in traced)
    unequal = [
        f"{name}: {first.get(name)} != {second.get(name)}"
        for name in sorted(set(first) | set(second))
        if name.endswith(DETERMINISTIC_SUFFIXES) and first.get(name) != second.get(name)
    ]
    layers = {}
    for t in traced:
        factor = t["passes"][0]["scaled_s"] / t["passes"][0]["seconds"]
        for name, value in t["layers"].items():
            if name.endswith(".s") or name.endswith(".self_s"):
                value *= factor
            elif name.endswith(".pairs_per_s"):
                value /= factor
            layers[name] = layers.get(name, 0) + value / len(traced)
    traced_pass = statistics.mean(t["passes"][0]["scaled_s"] for t in traced)
    layers["trace_overhead"] = traced_pass / statistics.median(
        p["scaled_s"] for p in plain["passes"]
    )
    return layers, unequal


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu
            )
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }


def measure(workload: str, seed: int, seconds: float, trace: int,
            tiny: bool = False, record_digests: bool = False) -> dict:
    """One benchmark run; returns the full record (see the module docstring)."""
    deadline = time.monotonic() + DEADLINE_S
    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    try:
        calls = corpus.build(workdir, workload, seed, SRC, tiny=tiny)
        if seed == DEFAULT_SEED and not tiny and not record_digests and DIGESTS.exists():
            recorded = json.loads(DIGESTS.read_text()).get(workload, {})
            for call in calls:
                call["digest"] = recorded.get(call["id"], "no digest recorded")
        if trace:
            plain = run_worker(workdir, calls, False, seconds / 2, deadline, "plain")
            traced = [
                run_worker(workdir, calls, True, 0, deadline, f"traced{i}")
                for i in range(2)
            ]
        else:
            plain = run_worker(workdir, calls, False, seconds, deadline, "plain")
            traced = []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, problems = judge(calls, [plain, *traced])
    record = {
        "environment": environment(workload, seed, seconds, trace),
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "setup_s_samples": plain["setup_s"],
        "pass_seconds": [p["seconds"] for p in plain["passes"]],
        "pass_scaled_s": [p["scaled_s"] for p in plain["passes"]],
        "calls": [
            {
                "id": call["id"],
                "argv": call["argv"],
                "rc": outcome["rc"],
                "seconds": [p["calls"][i]["seconds"] for p in plain["passes"]],
                "scaled_s": [p["calls"][i]["scaled_s"] for p in plain["passes"]],
                **checks.sizes(call, outcome["out"]),
            }
            for i, (call, outcome) in enumerate(zip(calls, plain["passes"][0]["calls"]))
        ],
        "end_to_end": end_to_end(plain, attempted, failed),
        "correct": failed == 0,
    }
    if traced:
        record["per_layer"], record["unequal_counters"] = per_layer(plain, traced)
        record["correct"] = record["correct"] and not record["unequal_counters"]
        record["spans"] = [t["spans"] for t in traced]
    if record_digests and failed == 0:
        digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        digests[workload] = {
            call["id"]: corpus.digest(outcome["out"])
            for call, outcome in zip(calls, plain["passes"][0]["calls"])
        }
        DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=corpus.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests", action="store_true",
        help=f"store the outputs' digests for seed {DEFAULT_SEED} in digests.json",
    )
    args = parser.parse_args(argv)
    if not (SRC / "termbound" / "cli.py").is_file():
        print(f"error: no termbound sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    record = measure(args.workload, args.seed, args.seconds, args.trace,
                     record_digests=args.record_digests)
    values = record["per_layer"] if args.trace else record["end_to_end"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}

    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, sort_keys=True))
    for problem in record["problems"] + record.get("unequal_counters", []):
        print(f"FAILED {problem}", file=sys.stderr)
    passes = len(record["pass_seconds"])
    print(f"{args.workload}, seed {args.seed}: {passes} untraced passes of "
          f"{len(record['calls'])} calls; verdict_s.* are medians over passes of "
          f"the per-pass median and maximum of {len(record['calls'])} call times; "
          f"setup_s is the median of {len(record['setup_s_samples'])} imports; "
          f"times are scaled to the reference speed by the calibration loop")
    for name, metric in metrics.items():
        print(f"  {name:40s} {metric['value']:.6g} {metric['unit']}")
    print(f"record: {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
