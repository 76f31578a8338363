"""Seeded inputs for the three workloads, with their reference answers.

A workload is a list of calls to the ``termbound`` command line. Each call
carries its argv (file arguments are relative to the corpus directory) and
what the benchmark knows about its answer without running the program:
the arithmetic result, the exit code, the trace length, the first
non-descent of a sigma file.

The seed draws the inputs, but every draw for a slot of the corpus does
the same work (same trace length and, measured once, the same number of
ordinal operations or relation evaluations; or the same number of sigma
rows), so a pass costs the same for every seed and run-to-run spread
measures the machine, not the draw. The input sets below were found by
running every input pair in a small grid through the interpreter;
``checks`` confirms each trace length against the program's own output on
every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("pipeline", "check", "bound")

TERMS = {
    "add": "(rec (p 1 1) (comp s (p 2 3)))",
    "sub": "(rec (p 1 1) (comp (rec (z 0) (p 1 2)) (p 2 3)))",
    "mult": "(rec z (comp (rec (p 1 1) (comp s (p 2 3))) (p 2 3) (p 3 3)))",
}

# Relations in the invariant the compiler emits for each term.
RELATIONS = {"add": 3, "sub": 4, "mult": 5}

# Largest x drawn where the trace length does not depend on x (add(y, x)
# runs 15*y + 5 steps for every x).
FREE_X = 10**6

# Slots: (term, trace steps, inputs (y, x) of that length; x None = free).
# A slot draws between inputs only where their measure and check stages
# did the same work, counted in ordinal comparisons and natural sums.
PIPELINE = (
    ("sub", 107, ((1, 17), (6, 0))),
    ("add", 155, ((10, None),)),
    ("mult", 130, ((5, 0),)),
    ("add", 200, ((13, None),)),
    ("sub", 191, ((3, 10), (8, 4))),
)
PIPELINE_TINY = (
    ("add", 20, ((1, None),)),
    ("sub", 56, ((3, 0),)),
    ("mult", 55, ((2, 0),)),
)

# Slots: (term, trace steps, inputs, invariant variant). The pair loop's
# cost depends on how early each relation's atoms fail, not only on the
# trace length, so sub and mult inputs are fixed where inputs of equal
# length cost up to 1.5x apart. "dropped" removes the cross-round
# relation, so pairs in different rounds of a trace with at least two
# rounds go uncovered; "corrupted" gives the location-progress relation the
# rank ``loc``, which rises on every pair it contains.
CHECK = (
    ("add", 605, ((40, None),), "emitted"),
    ("sub", 604, ((22, 9),), "emitted"),
    ("mult", 625, ((8, 1),), "emitted"),
    ("sub", 299, ((7, 8), (17, 1)), "dropped"),
    ("mult", 280, ((5, 1),), "corrupted"),
)
CHECK_TINY = (
    ("add", 35, ((2, None),), "emitted"),
    ("sub", 86, ((3, 3),), "dropped"),
    ("mult", 55, ((2, 0),), "corrupted"),
)
EXIT_CODES = {"emitted": 0, "dropped": 1, "corrupted": 1}

# Slots: (k, strictly descending rows before the frozen tail).
BOUND = ((3, 100_000), (4, 200_000), (5, 300_000))
BOUND_TINY = ((3, 200), (4, 300))
MAX_BOUND = 10**9  # the CLI's default --max-bound


def reference_value(term: str, y: int, x: int) -> int:
    """The primitive recursive function a term computes, in Python."""
    if term == "add":
        return y + x
    if term == "mult":
        return y * x
    return max(0, x - y)  # SUB(y, x)


def _draw_inputs(rng: random.Random, choices) -> tuple[int, int]:
    y, x = rng.choice(choices)
    return y, rng.randint(0, FREE_X) if x is None else x


def _structured(*argv: str) -> list[str]:
    return ["--format", "structured", *argv]


def _write_terms(workdir: Path) -> None:
    for name, text in TERMS.items():
        (workdir / f"{name}.pr").write_text(text + "\n")


def pipeline_calls(workdir: Path, rng: random.Random, tiny: bool) -> list[dict]:
    _write_terms(workdir)
    calls = []
    for term, steps, choices in PIPELINE_TINY if tiny else PIPELINE:
        y, x = _draw_inputs(rng, choices)
        calls.append(
            {
                "kind": "pipeline",
                "argv": _structured("pipeline", f"{term}.pr", str(y), str(x)),
                "term": term,
                "k": RELATIONS[term],
                "steps": steps,
                "result": reference_value(term, y, x),
            }
        )
    return calls


def compile_units(workdir: Path, src: Path) -> dict[str, dict]:
    """Program text and invariant of every term, from ``termbound compile``."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    units = {}
    for name in TERMS:
        proc = subprocess.run(
            [sys.executable, "-m", "termbound.cli", "--format", "structured",
             "compile", f"{name}.pr"],
            cwd=workdir, env=env, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"compile {name} failed: {proc.stderr.strip()}")
        units[name] = json.loads(proc.stdout)
    return units


def mutate(invariant: list[dict], variant: str) -> list[dict]:
    """The emitted invariant, or a copy broken in the named way."""
    if variant == "emitted":
        return invariant
    if variant == "dropped":
        kept = [r for r in invariant if r["name"] != "cross_round"]
        if len(kept) != len(invariant) - 1:
            raise RuntimeError("emitted invariant has no single cross_round relation")
        return kept
    corrupted = [dict(r) for r in invariant]
    lines = [r for r in corrupted if r["atoms"] == ["loc < loc'"]]
    if len(lines) != 1:
        raise RuntimeError("emitted invariant has no single location-progress relation")
    lines[0]["rank"] = "loc"
    return corrupted


def check_calls(workdir: Path, rng: random.Random, tiny: bool, src: Path) -> list[dict]:
    _write_terms(workdir)
    units = compile_units(workdir, src)
    for name, unit in units.items():
        (workdir / f"{name}.prog").write_text(unit["program"])
    calls = []
    for term, steps, choices, variant in CHECK_TINY if tiny else CHECK:
        y, x = _draw_inputs(rng, choices)
        invariant = mutate(units[term]["invariant"], variant)
        inv_file = f"{term}.{variant}.inv.json"
        (workdir / inv_file).write_text(json.dumps(invariant, indent=2, sort_keys=True))
        y_var, x_var = units[term]["input_vars"]
        calls.append(
            {
                "kind": "check",
                "argv": _structured(
                    "check", f"{term}.prog", "--invariant", inv_file,
                    "--set", f"{y_var}={y}", "--set", f"{x_var}={x}",
                ),
                "term": term,
                "variant": variant,
                "k": len(invariant),
                "steps": steps,
                "exit": EXIT_CODES[variant],
            }
        )
    return calls


def countdown_rows(rng: random.Random, k: int, descending: int) -> list[list[int]]:
    """A mixed-radix countdown of ``descending`` rows, then a frozen tail.

    The head component is unbounded and the other k-1 have seeded radices,
    so consecutive rows strictly descend lexicographically until the tail,
    which repeats the last row 1 to 64 times.
    """
    radices = [rng.randint(20, 60) for _ in range(k - 1)]
    start = rng.randint(0, 10_000) + descending - 1
    rows = []
    for value in range(start, start - descending, -1):
        digits = []
        for radix in reversed(radices):
            value, digit = divmod(value, radix)
            digits.append(digit)
        rows.append([value] + digits[::-1])
    rows.extend([rows[-1]] * rng.randint(1, 64))
    return rows


def first_nondescent(rows: list[list[int]], n: int) -> int:
    """Least m >= n with rows[m] <=lex rows[m+1]; the last row repeats."""
    last = len(rows) - 1
    m = n
    while rows[m] > rows[min(m + 1, last)]:
        m += 1
    return m


def bound_calls(workdir: Path, rng: random.Random, tiny: bool) -> list[dict]:
    calls = []
    for k, descending in BOUND_TINY if tiny else BOUND:
        rows = countdown_rows(rng, k, descending)
        name = f"sigma{k}.json"
        (workdir / name).write_text(json.dumps({"k": k, "rows": rows}))
        jitter = descending // 100
        for n in (0, descending // 2 + rng.randint(-jitter, jitter)):
            witness = first_nondescent(rows, n)
            calls.append(
                {
                    "kind": "bound",
                    "argv": _structured("bound", name, "--n", str(n)),
                    "k": k,
                    "rows": len(rows),
                    "n": n,
                    "witness": witness,
                    "at": rows[witness],
                    "after": rows[min(witness + 1, len(rows) - 1)],
                }
            )
    return calls


def build(workdir: Path, workload: str, seed: int, src: Path, tiny: bool = False) -> list[dict]:
    """Write the workload's input files under ``workdir``; return its calls.

    The same workload, seed and ``tiny`` flag give the same files and calls.
    ``tiny`` swaps in small inputs for the benchmark's own tests.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "pipeline":
        calls = pipeline_calls(workdir, rng, tiny)
    elif workload == "check":
        calls = check_calls(workdir, rng, tiny, src)
    elif workload == "bound":
        calls = bound_calls(workdir, rng, tiny)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(calls)
    for i, call in enumerate(calls):
        call["id"] = f"{i}:{' '.join(call['argv'][2:])}"
    return calls


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
