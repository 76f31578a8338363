"""Checks of the command as a console program: ``python -m termbound.cli``
in a fresh interpreter, on files written to a temporary directory, with
its exit code, its whole standard error and its standard output pinned:
whole, line by line where it holds numbers of hundreds of digits, or by the
fields of its JSON document."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import termbound

SOURCE_ROOT = str(Path(termbound.__file__).resolve().parents[1])


def countdown():
    # bound on a 10^5-row countdown: the JSON decode, the row checks and the
    # scan at a realistic size.
    rows = [[v // 1000, v % 1000] for v in range(99999, -1, -1)]
    return json.dumps({"rows": rows})


def deep():
    # bound_g's recursion at depth: 23,104 steps below the last row, each at
    # a (depth, point) that no other step evaluates.
    return json.dumps({"rows": [[150, 150, 0]] * 60000})


NOT_NATURAL = "error: every coordinate must be a natural number\n"

# (id, sigma file text or a function giving it, arguments after the file,
# exit code, standard output, standard error)
BOUND_CHECKS = [
    ("countdown", countdown, [], 0,
     "bound g(0) = 100002\nfirst non-descent at m = 99999: (0, 0) <= (0, 0)\n", ""),
    ("deep", deep, [], 0,
     "bound g(0) = 46360\nfirst non-descent at m = 0: (150, 150, 0) <= (150, 150, 0)\n", ""),
    # from_rows keeps the decoded rows; its one pass over the coordinates
    # still refuses a boolean.
    ("boolean", '{"rows": [[1, true], [0, 0]]}\n', [], 2, "", NOT_NATURAL),
    # The text proof of natural coordinates fails on a list below a row and
    # on a string coordinate, and both are refused; a repeated key fails it
    # too, and the full check then accepts.
    ("list-below-a-row", '{"rows": [[1, [2]], [0, 0]]}\n', [], 2, "", NOT_NATURAL),
    ("string-coordinate", '{"rows": [["rows", 1], [0, 0]]}\n', [], 2, "", NOT_NATURAL),
    ("repeated-key", '{"k": 2, "rows": [[1, 0]], "k": 2}\n', [], 0,
     "bound g(0) = 6\nfirst non-descent at m = 0: (1, 0) <= (1, 0)\n", ""),
    # --max-bound is a ceiling the bound may not pass: g(0) = 8 on a one-row
    # [7], so --max-bound 7 exits 3.
    ("max-bound", '{"rows": [[7]]}\n', ["--max-bound", "7"], 3,
     "", "budget exceeded: bound value exceeded ceiling 7\n"),
    # An --n past sys.maxsize is past the last row, so it is its own
    # non-descent; the row scan takes no index that large.
    ("n-past-maxsize", '{"rows": [[7]]}\n',
     ["--n", str(10**20), "--max-bound", str(10**30)], 0,
     "bound g(100000000000000000000) = 100000000000000000008\n"
     "first non-descent at m = 100000000000000000000: (7,) <= (7,)\n", ""),
]


def console(*argv, cwd):
    """Exit code, stdout and stderr of ``python -m termbound.cli argv``."""
    env = dict(os.environ, PYTHONPATH=SOURCE_ROOT)
    done = subprocess.run(
        [sys.executable, "-m", "termbound.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize(
    "text,args,code,out,err", [check[1:] for check in BOUND_CHECKS],
    ids=[check[0] for check in BOUND_CHECKS],
)
def test_bound(tmp_path, text, args, code, out, err):
    sigma = tmp_path / "sigma.json"
    sigma.write_text(text() if callable(text) else text)
    assert console("bound", sigma.name, *args, cwd=tmp_path) == (code, out, err)


# --- the other seven commands -------------------------------------------------

TERMS = {
    "add": "(rec (p 1 1) (comp s (p 2 3)))",
    "mult": "(rec z (comp (rec (p 1 1) (comp s (p 2 3))) (p 2 3) (p 3 3)))",
    # exp(x, y) = y^x, with mult's text inlined.
    "exp": "(rec (comp s (z 1)) (comp (rec z (comp (rec (p 1 1) (comp s (p 2 3)))"
    " (p 2 3) (p 3 3))) (p 2 3) (p 3 3)))",
}

PROGRAMS = {
    # An if with an empty else inside a loop, an if with an empty then, and a
    # loop with an empty body: each empty block's jump.
    "nest": "vars x y z\n0: while x < y\n1:   if z < y\n2:     z := z + 1\n  else\n"
    "3:   x := x + 1\n4: if y < x\nelse\n5:   while y < x\n",
    # A condition is one comparison x < y.
    "cond": "vars x y\n0: while x < y < x\n",
}


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """A directory with the term and program files, and the stages one at a
    time: the program and invariant that ``compile`` prints for add and mult,
    mult's without its ``cross_round`` relations, add's with the ``line``
    relation ranked by ``loc``, which rises on every pair the relation holds,
    and an invariant of that relation alone ranked by ``0 - loc``."""
    work = tmp_path_factory.mktemp("console")
    for name, text in TERMS.items():
        (work / f"{name}.pr").write_text(text + "\n")
    for name, text in PROGRAMS.items():
        (work / f"{name}.prog").write_text(text)
    invariants = {}
    for name in ("add", "mult"):
        code, out, err = console("--format", "structured", "compile", f"{name}.pr", cwd=work)
        assert (code, err) == (0, "")
        doc = json.loads(out)
        (work / f"{name}.prog").write_text(doc["program"])
        invariants[name] = doc["invariant"]
    derived = {
        "add.inv.json": invariants["add"],
        "mult.dropped.json": [r for r in invariants["mult"] if r["name"] != "cross_round"],
        "add.loc.json": [
            dict(r, rank="loc") if r["name"] == "line" else r for r in invariants["add"]
        ],
        "stuck.json": [{"name": "line", "atoms": ["loc < loc'"], "rank": "0 - loc"}],
    }
    for name, doc in derived.items():
        (work / name).write_text(json.dumps(doc))
    return work


def chain(n):
    """The points of a descending chain of n 2-coordinate points."""
    return [f"{y},0" for y in range(n, 0, -1)]


MULT_CHECK = ["mult.prog", "--invariant", "mult.dropped.json",
              "--set", "y=12", "--set", "x1=12", "--max-steps", "20000"]
MULT_RUN = ["mult.prog", "--set", "y=12", "--set", "x1=12", "--max-steps", "20000"]
ADD_SETS = ["--set", "y=2", "--set", "x1=3"]

# (id, arguments, exit code, standard output, standard error)
WHOLE_CHECKS = [
    ("ord", ["ord", "w # 1"], 0, "w+1\n", ""),
    # A literal not in normal form is refused in one line naming the text.
    ("ord-not-normal-form", ["ord", "1+w"], 2,
     "", "error: exponents must be strictly decreasing in '1+w'\n"),
    ("tree-height", ["tree-height", "--k", "2", "w+1"], 0, "w*2+1\n", ""),
    # embed reads the measure vector the colored tree keeps as it grows; the
    # rebuild path (height_of_tree) runs only in tests.
    ("embed", ["embed", "3,4", "1,4"], 0, "branches: 2\nf*: w*48+45\nvector: (48, 45)\n", ""),
    # embed's homogeneity test is the check's pair join, one relation per
    # coordinate; a rejection names the first uncovered pair, here not at
    # point 0, and with equal points at point 0.
    ("embed-not-homogeneous", ["embed", "5,5", "4,6", "3,7", "4,7"], 1, "",
     "check failed: not homogeneous: no coordinate falls from (4, 6) (point 1)"
     " to (4, 7) (point 3)\n"),
    ("embed-equal-points", ["embed", "1,1,1", "1,1,1"], 1, "",
     "check failed: not homogeneous: no coordinate falls from (1, 1, 1) (point 0)"
     " to (1, 1, 1) (point 1)\n"),
    # A failing invariant gives no step bound, and the line says so in words:
    # one relation whose rank, 0 - loc, never falls.
    ("pipeline-invariant-fails", ["pipeline", "add.pr", "1", "1", "--invariant", "stuck.json"],
     1, "result: 2 (oracle 2)\ninvariant: FAIL (210 uncovered, 195 rank violations)\n"
     "steps: 20\nstep bound: none (invariant failed)\nverdict: FAIL\n", ""),
    # A trace cut off by the step budget is never a pass.
    ("pipeline-budget", ["pipeline", "add.pr", "50", "3", "--max-steps", "10"], 3,
     "", "budget exceeded: no final state within 10 steps\n"),
    # The same 12,186 states checked without mult's cross_round relation:
    # 74,243,205 pairs over run-length columns, most of them uncovered.
    ("check-mult-dropped", ["check", *MULT_CHECK], 1,
     "pairs checked: 74243205\nuncovered: 34448142\nrank violations: 0\nverdict: FAIL\n", ""),
    # compile, then check the program text and invariant that compile printed.
    ("check-add", ["check", "add.prog", "--invariant", "add.inv.json", *ADD_SETS], 0,
     "pairs checked: 630\nuncovered: 0\nrank violations: 0\nverdict: pass\n", ""),
    ("run-cond", ["run", "cond.prog"], 2, "", "error: bad condition 'x < y < x'\n"),
]


@pytest.mark.parametrize(
    "argv,code,out,err", [check[1:] for check in WHOLE_CHECKS],
    ids=[check[0] for check in WHOLE_CHECKS],
)
def test_whole_output(work, argv, code, out, err):
    assert console(*argv, cwd=work) == (code, out, err)


# (id, arguments, {line index: that line of standard output, or for a
# "step bound: " line of hundreds of digits, "sha256:" and the line's sha256});
# each exits 0 with nothing on standard error. The step bound comes from the
# check's rank tuples, so its digest pins them too.
LINE_CHECKS = [
    # A 1,000-point descending chain: one tree level per point, and the
    # homogeneity test as one bitset join over the 499,500 pairs.
    ("embed-1000", ["embed", *chain(1000)], {0: "branches: 1000"}),
    # A 10,000-point chain: 49,995,000 pairs, within the pair budget.
    ("embed-10000", ["embed", *chain(10000)], {0: "branches: 10000"}),
    # Every pipeline call starts by compiling its term.
    ("pipeline-add", ["pipeline", "add.pr", "2", "3"],
     {0: "result: 5 (oracle 5)", 2: "steps: 35", -1: "verdict: pass"}),
    # A 9,005-step trace: the measure bisects each run of one color on a
    # point's descent path instead of walking all of it.
    ("pipeline-add-600-3", ["pipeline", "add.pr", "600", "3"],
     {0: "result: 603 (oracle 603)", 2: "steps: 9005", -1: "verdict: pass",
      3: "sha256:2e4836f0e042fb4159d35bcbbc83502514ec91c417bcadab5f8e4e4ab6a86099"}),
    # A 12,185-step trace with k = 5: the runs of colors 2-5 on a descent
    # path bisect coordinate columns for up to four earlier coordinates each.
    ("pipeline-mult-12-12", ["pipeline", "mult.pr", "12", "12", "--max-steps", "20000"],
     {0: "result: 144 (oracle 144)", 2: "steps: 12185", -1: "verdict: pass",
      3: "sha256:6209ccf5e6299db0e2fc21f2dda5ec1aaf85be8d9d09ab001e9baf1c2236a34f"}),
    # exp(5, 2) = 2^5: 5,562 steps with k = 8, the widest measure here.
    ("pipeline-exp-5-2", ["pipeline", "exp.pr", "5", "2"],
     {0: "result: 32 (oracle 32)", 2: "steps: 5562", -1: "verdict: pass",
      3: "sha256:e26d3a047df3ca3f0026d5c4339521e535dee8a0508152acedf2c1adb2ebb8b2"}),
    # run prints the same 12,186 states, each built from the trace's
    # location and env lists only when it is printed.
    ("run-mult", ["run", *MULT_RUN], {-1: "steps: 12185 (final)"}),
    ("run-add", ["run", "add.prog", *ADD_SETS], {-1: "steps: 35 (final)"}),
    ("run-nest", ["run", "nest.prog", "--set", "y=3"], {-1: "steps: 15 (final)"}),
]


@pytest.mark.parametrize(
    "argv,lines", [check[1:] for check in LINE_CHECKS], ids=[check[0] for check in LINE_CHECKS],
)
def test_output_lines(work, argv, lines):
    code, out, err = console(*argv, cwd=work)
    assert (code, err) == (0, "")
    out_lines = out.splitlines()
    assert {i: pinned(out_lines[i], want) for i, want in lines.items()} == lines


def pinned(line, want):
    """``line``, or its ``sha256:`` digest where ``want`` is one."""
    if want.startswith("sha256:"):
        return "sha256:" + hashlib.sha256(line.encode()).hexdigest()
    return line


def structured(*argv, cwd):
    """Exit code, standard error and decoded document of a structured call."""
    code, out, err = console("--format", "structured", *argv, cwd=cwd)
    return code, err, json.loads(out)


def test_structured_embed_prints_each_node_once(work):
    # 1,000 nodes, under 1 MB.
    code, out, err = console("--format", "structured", "embed", *chain(1000), cwd=work)
    assert (code, err) == (0, "")
    assert len(out.encode()) < 1_000_000
    assert len(json.loads(out)["tree"]["nodes"]) == 1000


def test_structured_check_lists_the_first_uncovered_pairs(work):
    # The listing holds the first 20 uncovered pairs, in the order the pair
    # loop finds them.
    code, err, doc = structured("check", *MULT_CHECK, cwd=work)
    assert (code, err) == (1, "")
    uncovered = doc["uncovered"]
    assert doc["uncovered_total"] == 34448142
    assert (len(uncovered), uncovered[0], uncovered[-1]) == (20, [4, 29], [5, 1185])


def test_structured_check_lists_the_first_rank_violations(work):
    # With the line relation ranked by loc the rank-violation listing fills too.
    code, err, doc = structured(
        "check", "add.prog", "--invariant", "add.loc.json", *ADD_SETS, cwd=work
    )
    assert (code, err) == (1, "")
    violations = doc["rank_violations"]
    assert (doc["rank_violation_total"], doc["uncovered_total"]) == (480, 137)
    assert (len(violations), violations[0], violations[-1]) == (20, [0, 1, "line"], [0, 20, "line"])


def test_structured_run_prints_every_state(work):
    code, err, doc = structured("run", *MULT_RUN, cwd=work)
    assert (code, err) == (0, "")
    assert len(doc["trace"]) == 12186


def test_help_lists_every_command(work):
    # A call builds the top-level parser and the parser of the one command
    # it names; the top-level help still lists all eight commands.
    code, out, err = console("--help", cwd=work)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    for command in ("ord", "tree-height", "embed", "bound", "compile", "run", "check", "pipeline"):
        assert any(line.startswith(f"    {command} ") for line in lines), command
    code, out, err = console("check", "--help", cwd=work)
    assert (code, err) == (0, "")
    assert out.splitlines()[0].startswith("usage: termbound check")


def test_unknown_command_is_one_error_line(work):
    # argparse's wording of the choices differs between Python versions.
    code, out, err = console("nope", cwd=work)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith("error: argument command: invalid choice")
