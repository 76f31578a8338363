"""Checks of the command as a console program: ``python -m termbound.cli``
in a fresh interpreter, on files written to a temporary directory, with
its exit code and its whole standard output and error pinned."""

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
