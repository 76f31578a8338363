import contextlib
import gc
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from functools import cmp_to_key
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oracles import eager_parser, f_star_vec, read_sigma_checked_in_full
from termbound import cli, erdos
from termbound.cli import MAX_PRINT_BITS, _digit_limit, _read_sigma, eval_ordinal_expr, main
from termbound.errors import ParseError
from termbound.ordinals import MAX_NESTING, Ordinal, cmp, nat_sum
from termbound.prcompile import compile_term, parse_term
from termbound.termlang import State, invariant_to_doc, program_to_text

SRC = str(Path(__file__).resolve().parents[1] / "src")
TERM_ADD = "(rec (p 1 1) (comp s (p 2 3)))"
COUNTING_PROGRAM = "vars x y\n0: while x < y\n1:   x := x + 1\n"


@pytest.fixture
def add_term(tmp_path):
    path = tmp_path / "add.pr"
    path.write_text(TERM_ADD)
    return str(path)


class TestOrdinalExpressions:
    @pytest.mark.parametrize(
        "expr,result",
        [
            ("w # 1", "w+1"),
            ("exp(2, w*2)", "w^2"),
            ("0 # 0", "0"),
            ("w*2+1 + w", "w*3"),
            ("w #* 2", "w*2"),
            ("1 + w", "w"),
            ("(w # 1) #* 3", "w*3+3"),
            ("exp(3, w+2)", "w*9"),
            ("w^(w)", "w^(w)"),
        ],
    )
    def test_evaluation(self, expr, result):
        assert str(eval_ordinal_expr(expr)) == result

    @pytest.mark.parametrize("expr", ["", "w #", "exp(1, w)", "w + + 1", "q"])
    def test_rejects_garbage(self, expr):
        with pytest.raises((ParseError, ValueError)):
            eval_ordinal_expr(expr)


class TestCommands:
    def test_ord(self, capsys):
        assert main(["ord", "w # 1"]) == 0
        assert capsys.readouterr().out.strip() == "w+1"

    def test_ord_parse_error_exit_code(self, capsys):
        assert main(["ord", "w+w"]) == 2

    TOWER = "w^(" * 3000 + "1" + ")" * 3000

    @pytest.mark.parametrize(
        "argv",
        [
            ["ord", TOWER],
            ["tree-height", "--k", "2", TOWER],
            ["ord", "(" * 3000 + "w" + ")" * 3000],
        ],
        ids=["ord-tower", "tree-height-tower", "ord-parentheses"],
    )
    def test_deep_nesting_is_a_parse_error(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nested too deeply" in err
        assert err.count("\n") == 1

    def test_tree_height(self, capsys):
        assert main(["tree-height", "--k", "2", "3"]) == 0
        assert capsys.readouterr().out.strip() == "7"
        assert main(["tree-height", "--k", "1", "w*5+3"]) == 0
        assert capsys.readouterr().out.strip() == "w*5+3"
        assert main(["tree-height", "--k", "2", "w+1"]) == 0
        assert capsys.readouterr().out.strip() == "w*2+1"

    def test_embed(self, capsys):
        assert main(["--format", "structured", "embed", "3,4", "1,4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["k"] == 2
        assert doc["f_star_vec"] == [48, 45]
        assert doc["tree"]["nodes"] == [
            {"point": [3, 4], "parent": None, "color": None},
            {"point": [1, 4], "parent": 0, "color": 1},
        ]

    def test_embed_long_chain(self, capsys):
        # One tree level per point: deeper than the interpreter's recursion limit.
        points = [(y, 0) for y in range(1000, 0, -1)]
        assert main(["embed", *(f"{y},{x}" for y, x in points)]) == 0
        vector = f_star_vec(points, 2)
        assert capsys.readouterr().out.splitlines()[-1] == f"vector: {vector}"

    def test_embed_long_chain_structured_size(self, capsys):
        # Each node is printed once, so the document grows linearly.
        points = [f"{y},0" for y in range(1000, 0, -1)]
        assert main(["--format", "structured", "embed", *points]) == 0
        out = capsys.readouterr().out
        assert len(out.encode()) < 1_000_000
        assert len(json.loads(out)["tree"]["nodes"]) == 1000

    def test_embed_rejects_non_homogeneous(self, capsys):
        assert main(["embed", "1,1", "1,1"]) == 1
        assert capsys.readouterr().err == (
            "check failed: not homogeneous: no coordinate falls from (1, 1) (point 0) "
            "to (1, 1) (point 1)\n"
        )

    @pytest.mark.parametrize("argv", [["3,4", "1,4"], ["--k", "2", "3,4", "1,4"]])
    def test_embed_parses_each_point_once(self, monkeypatch, capsys, argv):
        parsed = []
        parse = cli._parse_point
        monkeypatch.setattr(cli, "_parse_point", lambda text, k: parsed.append(text) or parse(text, k))
        assert main(["embed", *argv]) == 0
        assert parsed == ["3,4", "1,4"]

    def test_bound(self, tmp_path, capsys):
        sigma = tmp_path / "sigma.json"
        sigma.write_text(json.dumps({"k": 2, "rows": [[1, 1], [1, 0], [0, 5], [0, 4], [0, 4]]}))
        assert main(["--format", "structured", "bound", str(sigma)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["witness"] == 3

    def test_bound_budget_exit_code(self, tmp_path, capsys):
        sigma = tmp_path / "sigma.json"
        sigma.write_text(json.dumps({"k": 3, "rows": [[10**6, 10**6, 10**6]]}))
        assert main(["bound", str(sigma)]) == 3

    def test_bound_max_bound_is_inclusive(self, tmp_path, capsys):
        sigma = tmp_path / "sigma.json"
        sigma.write_text(json.dumps({"rows": [[7]]}))
        assert main(["bound", str(sigma), "--max-bound", "7"]) == 3
        out, err = capsys.readouterr()
        assert (out, err) == ("", "budget exceeded: bound value exceeded ceiling 7\n")
        assert main(["bound", str(sigma), "--max-bound", "8"]) == 0
        assert capsys.readouterr().out.startswith("bound g(0) = 8\n")

    def test_bound_n_past_sys_maxsize(self, tmp_path, capsys):
        sigma = tmp_path / "sigma.json"
        sigma.write_text(json.dumps({"rows": [[7]]}))
        n = str(10**20)
        assert main(["bound", str(sigma), "--n", n, "--max-bound", str(10**30)]) == 0
        assert capsys.readouterr() == (
            f"bound g({n}) = {10**20 + 8}\n"
            f"first non-descent at m = {n}: (7,) <= (7,)\n",
            "",
        )

    def test_bound_k_may_be_null_or_absent(self, tmp_path, capsys):
        sigma = tmp_path / "sigma.json"
        for doc in ({"k": None}, {}):
            sigma.write_text(json.dumps({**doc, "rows": [[1, 1], [1, 0], [0, 5], [0, 4]]}))
            assert main(["bound", str(sigma)]) == 0
            assert capsys.readouterr().out.startswith("bound g(0) = ")

    @pytest.mark.parametrize(
        "doc",
        [
            {"k": 2},
            {"rows": 5},
            [[1, 0], [0, 0]],
            "rows",
            # "k" is null, absent or the row length as an int.
            {"k": "2", "rows": [[1, 1], [0, 5]]},
            {"k": 2.0, "rows": [[1, 1], [0, 5]]},
            {"k": True, "rows": [[1], [0]]},
            {"k": 3, "rows": [[1, 1], [0, 5]]},
        ],
    )
    def test_bound_malformed_document(self, tmp_path, capsys, doc):
        sigma = tmp_path / "sigma.json"
        sigma.write_text(json.dumps(doc))
        assert main(["bound", str(sigma)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_compile_structured(self, add_term, capsys):
        assert main(["--format", "structured", "compile", add_term]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result_var"] == "w"
        assert doc["input_vars"] == ["y", "x1"]
        assert doc["program"].startswith("vars ")
        assert [r["name"] for r in doc["invariant"]] == [
            "line",
            "cross_round",
            "c1_phase",
        ]

    def test_run_and_check(self, add_term, tmp_path, capsys):
        assert main(["--format", "structured", "compile", add_term]) == 0
        unit = json.loads(capsys.readouterr().out)
        prog = tmp_path / "add.prog"
        prog.write_text(unit["program"])
        inv = tmp_path / "add.inv.json"
        inv.write_text(json.dumps(unit["invariant"]))

        assert (
            main(
                [
                    "--format",
                    "structured",
                    "run",
                    str(prog),
                    "--set",
                    "y=2",
                    "--set",
                    "x1=3",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["reached_final"]
        assert doc["trace"][-1]["env"]["w"] == 5

        assert (
            main(
                [
                    "check",
                    str(prog),
                    "--invariant",
                    str(inv),
                    "--set",
                    "y=2",
                    "--set",
                    "x1=3",
                ]
            )
            == 0
        )

    def counting_check(self, tmp_path, invariant, *extra):
        prog = tmp_path / "count.prog"
        prog.write_text("vars x y\n0: while x < y\n1:   x := x + 1\n")
        inv = tmp_path / "count.inv.json"
        inv.write_text(json.dumps(invariant))
        return main([
            *extra, "check", str(prog), "--invariant", str(inv),
            "--set", "y=50000", "--max-steps", "20",
        ])

    def test_check_cut_by_budget_is_inconclusive(self, tmp_path, capsys):
        inv = [{"name": "r", "atoms": [], "rank": "y - x + y - x + 1 - loc"}]
        assert self.counting_check(tmp_path, inv) == 3
        assert capsys.readouterr().out.splitlines()[-1] == (
            "verdict: inconclusive (budget)"
        )
        assert self.counting_check(tmp_path, inv, "--format", "structured") == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] and not doc["reached_final"]

    def test_check_cut_by_budget_still_fails_on_violation(self, tmp_path, capsys):
        inv = [{"name": "r", "atoms": [], "rank": "7"}]
        assert self.counting_check(tmp_path, inv) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "verdict: FAIL"

    def test_check_malformed_invariant(self, tmp_path, capsys):
        assert self.counting_check(tmp_path, [{"atoms": [], "rank": "x"}]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_pipeline_pass(self, add_term, capsys):
        assert main(["--format", "structured", "pipeline", add_term, "2", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["result"] == 5 and doc["oracle"] == 5
        assert doc["invariant_ok"] and doc["bound_holds"] and doc["ok"]
        assert doc["steps"] <= doc["step_bound"]

    def test_pipeline_checks_rank_tuples_once(self, add_term, capsys):
        # PhiSequence checks the whole list of rank tuples, then inserts each as it is.
        insert = erdos.ErdosTree.insert
        with (
            mock.patch.object(erdos, "_check_point", wraps=erdos._check_point) as check,
            mock.patch.object(erdos.ErdosTree, "insert", autospec=True, side_effect=insert) as ins,
        ):
            assert main(["pipeline", add_term, "13", "1"]) == 0
        assert "steps: 200" in capsys.readouterr().out
        assert (check.call_count, ins.call_count) == (0, 201)

    def test_pipeline_tampered_invariant(self, add_term, tmp_path, capsys):
        assert main(["--format", "structured", "compile", add_term]) == 0
        unit = json.loads(capsys.readouterr().out)
        tampered = unit["invariant"]
        tampered[1]["rank"] = "0"
        inv = tmp_path / "bad.inv.json"
        inv.write_text(json.dumps(tampered))
        assert (
            main(
                [
                    "--format",
                    "structured",
                    "pipeline",
                    add_term,
                    "2",
                    "3",
                    "--invariant",
                    str(inv),
                ]
            )
            == 1
        )
        doc = json.loads(capsys.readouterr().out)
        assert not doc["invariant_ok"]
        assert doc["rank_violations"] > 0

    def test_structured_output_is_deterministic(self, add_term, capsys):
        main(["--format", "structured", "pipeline", add_term, "1", "2"])
        first = capsys.readouterr().out
        main(["--format", "structured", "pipeline", add_term, "1", "2"])
        assert capsys.readouterr().out == first

    def test_missing_file_is_usage_error(self):
        assert main(["compile", "/nonexistent/term.pr"]) == 2

    # Each case writes its input file (if any) to the working directory,
    # then expects one exit code and one stderr line.
    @pytest.mark.parametrize(
        "files, argv, code, line",
        [
            ({"add.pr": TERM_ADD}, ["pipeline", "add.pr", "2"], 2,
             "error: term takes 2 inputs, got 1"),
            ({"add.pr": TERM_ADD}, ["pipeline", "add.pr", "50", "3", "--max-steps", "10"], 3,
             "budget exceeded: no final state within 10 steps"),
            ({}, ["embed", "--k", "3", "1,2"], 2,
             "error: point '1,2' does not have 3 coordinates"),
            ({"dup.prog": "vars x x\n"}, ["run", "dup.prog"], 2,
             "error: duplicate variable declaration"),
            ({"bad.prog": "vars x\n0: x = 1\n"}, ["run", "bad.prog"], 2,
             "error: bad command 'x = 1'"),
            ({"cond.prog": "vars x y\n0: while x < y < x\n"}, ["run", "cond.prog"], 2,
             "error: bad condition 'x < y < x'"),
            ({"arity.pr": "(comp (p 1 2) s (z 2))"}, ["compile", "arity.pr"], 2,
             "error: inner functions disagree on arity: [1, 2]"),
            ({"open.pr": "(p 1 2 3)"}, ["compile", "open.pr"], 2,
             "error: missing closing parenthesis"),
            ({}, ["tree-height", "--k", "0", "w"], 2, "error: arity must be at least 1"),
            ({"bad.prog": b"\xffvars x\n"}, ["run", "bad.prog"], 2,
             "error: bad.prog: 'utf-8' codec can't decode byte 0xff in position 0: "
             "invalid start byte"),
            ({"count.prog": COUNTING_PROGRAM, "trunc.json": '[{"name": "r", "atoms": ['},
             ["check", "count.prog", "--invariant", "trunc.json"], 2,
             "error: trunc.json: Expecting value: line 1 column 26 (char 25)"),
            ({"count.prog": COUNTING_PROGRAM,
              "empty.json": '[{"name": "r", "atoms": [], "rank": ""}]'},
             ["check", "count.prog", "--invariant", "empty.json"], 2,
             "error: empty rank expression"),
            ({"count.prog": COUNTING_PROGRAM,
              "no-op.json": '[{"name": "r", "atoms": ["x"], "rank": "y - x"}]'},
             ["check", "count.prog", "--invariant", "no-op.json"], 2,
             "error: atom 'x' has no comparison operator"),
        ],
        ids=["pipeline-inputs", "pipeline-budget", "embed-coordinates", "run-duplicate-var",
             "run-bad-command", "run-bad-condition", "compile-arity", "compile-unclosed",
             "tree-height-k-0", "run-not-utf8", "check-truncated-json", "check-empty-rank",
             "check-atom-without-operator"],
    )
    def test_error_exit_code_and_message(self, tmp_path, monkeypatch, capsys, files, argv, code, line):
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            if isinstance(text, bytes):
                (tmp_path / name).write_bytes(text)
            else:
                (tmp_path / name).write_text(text)
        assert main(argv) == code
        assert capsys.readouterr().err == line + "\n"

    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_closed_output_pipe_exits_quietly(self, add_term, unbuffered):
        # The read end is closed before the child starts, so its first write
        # or flush fails; with buffered output that happens only at the end.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "termbound.cli", "--format", "structured",
                 "compile", add_term],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b"")


TERMS = {
    "add": TERM_ADD,
    "sub": "(rec (p 1 1) (comp (rec (z 0) (p 1 2)) (p 2 3)))",
    "mult": "(rec z (comp (rec (p 1 1) (comp s (p 2 3))) (p 2 3) (p 3 3)))",
    "zero": "z",
    "zero-nullary": "(z 0)",
    "succ": "s",
    "proj": "(p 2 3)",
    # The nesting cap of compositions around s, and a 100-input projection
    # under 99 of them, whose inputs every level copies again.
    "deep": "(comp " * MAX_NESTING + "s" + " s)" * MAX_NESTING,
    "wide": "(comp s " * (MAX_NESTING - 1) + "(p 1 100)" + ")" * (MAX_NESTING - 1),
}

# Exit code and SHA-256 of the --format structured stdout of each case. A
# changed digest is a changed command-line contract and needs a stated reason.
COUNTDOWN = [[v // 600, v // 30 % 20, v % 30] for v in range(9999, -1, -1)]

GOLDEN = {
    "pipeline-add-pass": (0, "e10074d26e3460e5b55d3e69f62a3c082ad961e76ac1ec10d1a2a1328534ce1a"),
    "pipeline-sub-pass": (0, "74a3965b835d36fe2d2825c18527cb9cfdd4a69ed8d7e48ed95bdbb274aa8a58"),
    "pipeline-mult-pass": (0, "4de4d8b4ef9f64a346aa5bd54b230cb3882c4e3c6019b85f1a512363e4a45321"),
    "pipeline-add-tampered": (1, "37c50ca48b4134390506340aa29a16158f1f7eeaeaec4c26cf8bcc5b37eef675"),
    "pipeline-sub-tampered": (1, "9fec4a69854656c804877706c515a06cfb22f2f9e62597aa50d441e4e45b52d5"),
    "pipeline-mult-tampered": (1, "684f0cd77413cdec839e8b94b3799e3c9e08febcd177abed8e058b2b9a865b43"),
    "check-pass": (0, "9b2653e4eea23e849a50ec93feff91a63e92472b5b1cafc3c2ede2767bbcfb38"),
    "check-fail": (1, "9f6c21b7941feab7c19e4564b782e20eae2cb3c7529a32f929dbc2ba12ebd0a1"),
    "check-budget": (3, "e08a7296521f5cad3117f31b6cf76ea86c794b8f4434abae0f4f12fde383367a"),
    "run": (0, "7c12d93de0fbbd7c4b4f30087dd38dff881d2ff226e2a575222da16e892394a7"),
    "run-budget": (3, "07fdaef76a5173bb535500a414a76c86cf67b9097130284b8e1d38ddb12c5adb"),
    "embed": (0, "a75f2691fba913465b5e7cc47fd32252fd74502e642bef5d3dbce9802bbd8b7d"),
    "bound": (0, "fa478fca22c5d11bfc57c0bc8c41ed7162cc0c641a0743e4f7b90864680a4898"),
    "bound-0": (0, "3aaa7505ef91c67d1d1fefa955b31158e09c80f3f57dac48fe5a261d413a2dde"),
    "bound-5000": (0, "34029757e9c1c8a480d133cb64da525bb20c3140645f5ddc027e55a166709380"),
    "bound-12000": (0, "ad1fc73bb2aadacac3d31aecdf87e192846ad412f68dfc81dc781e5e9c5c33a6"),
    "compile-add": (0, "478246a2449d22adac76fbe78358eafed9bcb5426dcee5c0a3ea47047019f9b6"),
    "compile-sub": (0, "5765e1600504a14f8b40f9e745726e0ee6c0d0b48d3f6149b3a0e542f141941d"),
    "compile-mult": (0, "2a43719f24ab45c6acf07f5a3f5002d28d9f417844de4658f7783b30cf1d6d62"),
    "compile-zero": (0, "10747e5e69d8acc126e1b387682d3407a9ca7f649602ec2802b071c064dbbba8"),
    "compile-zero-nullary": (0, "3713ad00722d0915eb61f31c5185ab7b2769ea19b588bdc1f4ae4223aebf0570"),
    "compile-succ": (0, "afdbb527f61bccc2b40553fcc80dcfbfda171e219382261dea5cca0962108102"),
    "compile-proj": (0, "9a288963b1ab7216ff578ec248d2a7704f9e52cf459f4cd245964bbecd1fbf52"),
    "compile-deep": (0, "4b562773c0f5b1727ca01ca203f7b1410f71a25a17659e963ff25f35d91786cb"),
    "compile-wide": (0, "93de2e3017897248f36464b6e4600c2962b805c0add15f630a7bef4688fe12bb"),
}


class TestStructuredGolden:
    @staticmethod
    def structured(capsys, *argv):
        code = main(["--format", "structured", *argv])
        return code, capsys.readouterr().out

    def unit_files(self, tmp_path, capsys, name):
        term = tmp_path / f"{name}.pr"
        term.write_text(TERMS[name])
        unit = json.loads(self.structured(capsys, "compile", str(term))[1])
        prog = tmp_path / f"{name}.prog"
        prog.write_text(unit["program"])
        inv = tmp_path / f"{name}.inv.json"
        inv.write_text(json.dumps(unit["invariant"]))
        unit["invariant"][1]["rank"] = "0"
        tampered = tmp_path / f"{name}.bad.inv.json"
        tampered.write_text(json.dumps(unit["invariant"]))
        return str(term), str(prog), str(inv), str(tampered)

    def run_case(self, case, tmp_path, capsys):
        command, _, rest = case.partition("-")
        if command == "compile":
            term = tmp_path / "term.pr"
            term.write_text(TERMS[rest])
            return self.structured(capsys, "compile", str(term))
        if command == "pipeline":
            name, _, kind = rest.partition("-")
            term, _, _, tampered = self.unit_files(tmp_path, capsys, name)
            extra = ["--invariant", tampered] if kind == "tampered" else []
            return self.structured(capsys, "pipeline", term, "2", "3", *extra)
        if command == "check":
            if rest == "budget":
                prog = tmp_path / "count.prog"
                prog.write_text("vars x y\n0: while x < y\n1:   x := x + 1\n")
                inv = tmp_path / "count.inv.json"
                inv.write_text(json.dumps(
                    [{"name": "r", "atoms": [], "rank": "y - x + y - x + 1 - loc"}]
                ))
                return self.structured(
                    capsys, "check", str(prog), "--invariant", str(inv),
                    "--set", "y=50000", "--max-steps", "20",
                )
            _, prog, inv, tampered = self.unit_files(tmp_path, capsys, "add")
            return self.structured(
                capsys, "check", prog, "--invariant",
                inv if rest == "pass" else tampered, "--set", "y=2", "--set", "x1=3",
            )
        if command == "run":
            if rest == "budget":
                prog = tmp_path / "count.prog"
                prog.write_text("vars x y\n0: while x < y\n1:   x := x + 1\n")
                return self.structured(
                    capsys, "run", str(prog), "--set", "y=50000", "--max-steps", "20"
                )
            _, prog, _, _ = self.unit_files(tmp_path, capsys, "add")
            return self.structured(capsys, "run", prog, "--set", "y=2", "--set", "x1=3")
        if command == "embed":
            return self.structured(capsys, "embed", "3,4", "1,4", "0,9")
        sigma = tmp_path / "sigma.json"
        if rest:
            # A 10^4-row mixed-radix countdown, read at its start, its
            # midpoint and past its last row.
            sigma.write_text(json.dumps({"k": 3, "rows": COUNTDOWN}))
            return self.structured(capsys, "bound", str(sigma), "--n", rest)
        sigma.write_text(json.dumps({"k": 2, "rows": [[1, 1], [1, 0], [0, 5], [0, 4], [0, 4]]}))
        return self.structured(capsys, "bound", str(sigma))

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_output_digest(self, case, tmp_path, capsys):
        code, out = self.run_case(case, tmp_path, capsys)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == GOLDEN[case]


def run_main(*argv):
    """Exit code and stderr of ``main``, which must not raise."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


def assert_clean_exit(code, err):
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error:") and err.count("\n") == 1


def counting_check(tmp_path, invariant):
    prog = tmp_path / "count.prog"
    prog.write_text(COUNTING_PROGRAM)
    inv = tmp_path / "count.inv.json"
    inv.write_text(json.dumps(invariant))
    return run_main(
        "check", str(prog), "--invariant", str(inv),
        "--set", "y=50000", "--max-steps", "20",
    )


class TestParser:
    # One command line per command, each run to exit 0 in a directory that
    # holds the files of ``command_files``.
    COMMAND_LINES = {
        "ord": ["ord", "w # 1"],
        "tree-height": ["tree-height", "--k", "2", "w+1"],
        "embed": ["embed", "3,4", "1,4"],
        "bound": ["bound", "sigma.json"],
        "compile": ["compile", "add.pr"],
        "run": ["run", "add.prog", "--set", "y=2", "--set", "x1=3"],
        "check": ["check", "add.prog", "--invariant", "add.inv.json", "--set", "y=2"],
        "pipeline": ["pipeline", "add.pr", "2", "3"],
    }

    @pytest.fixture
    def command_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
        unit = compile_term(parse_term(TERM_ADD))
        (tmp_path / "add.pr").write_text(TERM_ADD)
        (tmp_path / "add.prog").write_text(program_to_text(unit.program))
        (tmp_path / "add.inv.json").write_text(json.dumps(invariant_to_doc(unit.invariant)))
        (tmp_path / "sigma.json").write_text(json.dumps({"rows": [[1, 0], [0, 0]]}))

    @pytest.mark.parametrize("command", sorted(cli.COMMANDS))
    def test_builds_the_top_level_and_the_invoked_commands_parser(
        self, command_files, monkeypatch, command
    ):
        progs = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        code, out, err = main_output(*self.COMMAND_LINES[command])
        assert (code, err) == (0, "")
        assert progs == ["termbound", f"termbound {command}"]

    # Help, then one command line per way a command line can be refused, then
    # one that runs. The texts are compared, not pinned: argparse words its
    # help differently across Python versions.
    @pytest.mark.parametrize(
        "argv",
        [["-h"], *([command, "-h"] for command in cli.COMMANDS)]
        + [
            ["nope"],
            [],
            ["bound"],
            ["ord", "--no-such-flag", "1"],
            ["--no-such-flag", "ord", "1"],
            ["--format", "xml", "ord", "1"],
            ["ord", "--format", "structured", "1"],
            ["tree-height", "--k", "٢", "w"],
            ["bound", "sigma.json", "--n", "-1"],
            ["--format", "structured", "pipeline", "add.pr", "2", "3"],
        ],
        ids=lambda argv: " ".join(argv) or "no-arguments",
    )
    def test_matches_the_eager_parser(self, command_files, monkeypatch, argv):
        lazy = main_output(*argv)
        monkeypatch.setattr(cli, "build_parser", eager_parser)
        assert main_output(*argv) == lazy
        assert lazy[0] in (0, 2)


class TestInputValidation:
    @pytest.mark.parametrize(
        "rows",
        [[[1, -5], [0, 3]], [[1, "a"], [0, 0]], [[1.5, 2], [0, 0]], [[True, 2], [0, 0]], [5]],
        ids=["negative", "string", "float", "bool", "scalar-row"],
    )
    def test_bound_rejects_non_natural_coordinates(self, tmp_path, rows):
        sigma = tmp_path / "sigma.json"
        sigma.write_text(json.dumps({"rows": rows}))
        code, err = run_main("bound", str(sigma))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_check_rejects_a_variable_named_loc(self, tmp_path):
        # The rank ``loc`` reads the location, never a variable of that
        # name, so the declaration is refused rather than misread.
        prog = tmp_path / "loc.prog"
        prog.write_text("vars loc x\n0: loc := x\n")
        inv = tmp_path / "loc.inv.json"
        inv.write_text(json.dumps([{"name": "r", "atoms": [], "rank": "loc"}]))
        code, err = run_main("check", str(prog), "--invariant", str(inv), "--set", "loc=5")
        assert code == 2
        assert err == "error: 'loc' names the location and cannot be declared\n"

    # A --set name is an identifier as written, the rule for declared names:
    # a blank or padded name is a bad assignment, not an undeclared variable.
    @pytest.mark.parametrize("item", ["x", "=3", " =3", "x =3", "x= 3", "x=-1", "x=3=4", "x=1_0"])
    def test_run_rejects_a_bad_assignment(self, tmp_path, item):
        prog = tmp_path / "count.prog"
        prog.write_text(COUNTING_PROGRAM)
        code, err = run_main("run", str(prog), "--set", item)
        assert code == 2
        assert err == f"error: bad assignment {item!r}; expected name=nat\n"

    @pytest.mark.parametrize("locations", [5, "01", [0, "a"]], ids=["int", "string", "mixed"])
    @pytest.mark.parametrize("key", ["pre_locations", "post_locations"])
    def test_check_rejects_bad_locations(self, tmp_path, key, locations):
        inv = [{"name": "r", "atoms": [], "rank": "y - x", key: locations}]
        code, err = counting_check(tmp_path, inv)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_check_rejects_doubled_rank_operator(self, tmp_path):
        code, err = counting_check(tmp_path, [{"name": "r", "atoms": [], "rank": "3 +- loc"}])
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command,text",
        [
            ("compile", "("),
            ("compile", "(comp " * 3000 + "s" + " s)" * 3000),
            ("run", "vars x y\n" + "".join(f"{i}: {'  ' * i}while x < y\n" for i in range(2000))),
        ],
        ids=["term-open-parenthesis", "term-3000-deep", "program-2000-deep"],
    )
    def test_malformed_text_is_a_parse_error(self, tmp_path, command, text):
        path = tmp_path / "input.txt"
        path.write_text(text)
        code, err = run_main(command, str(path))
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    # The decoder's own message is not pinned: one "error:" line that names
    # the file, exit 2.
    @pytest.mark.parametrize(
        "command, data",
        [("bound", b"{"), ("bound", b"\xff\xfe"), ("check", b"[")],
        ids=["bound-not-json", "bound-not-utf8", "check-not-json"],
    )
    def test_unreadable_json_is_one_error_line(self, tmp_path, command, data):
        path = tmp_path / "input.json"
        path.write_bytes(data)
        if command == "bound":
            code, err = run_main("bound", str(path))
        else:
            prog = tmp_path / "count.prog"
            prog.write_text(COUNTING_PROGRAM)
            code, err = run_main("check", str(prog), "--invariant", str(path))
        assert code == 2
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["term", "program", "atom", "rank", "set"])
    def test_non_ascii_digits_are_rejected(self, tmp_path, kind):
        digit = "٣"
        path = tmp_path / "input.txt"
        if kind == "term":
            path.write_text(f"(z {digit})")
            code, err = run_main("compile", str(path))
        elif kind == "program":
            path.write_text(f"vars x\n0: x := {digit}\n")
            code, err = run_main("run", str(path))
        elif kind == "set":
            path.write_text(COUNTING_PROGRAM)
            code, err = run_main("run", str(path), "--set", f"y={digit}")
        else:
            entry = {"name": "r", "atoms": [], "rank": "y - x + y - x + 1 - loc"}
            if kind == "atom":
                entry["atoms"] = [f"x < {digit}"]
            else:
                entry["rank"] = f"{digit} - x"
            code, err = counting_check(tmp_path, [entry])
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [["ord", "exp(3, exp(3, exp(3, 9)))"], ["tree-height", "--k", "2", "99999999999"]],
        ids=["ord", "tree-height"],
    )
    def test_integer_powers_have_a_budget(self, argv):
        start = time.perf_counter()
        code, err = run_main(*argv)
        assert time.perf_counter() - start < 1
        assert code == 3
        assert err.startswith("budget exceeded:") and err.count("\n") == 1

    @pytest.mark.parametrize("point", ["3_0,4", "٣,٤", "+3,4", " 3,4"])
    def test_points_are_ascii_naturals(self, point):
        # int() reads each of these; "3_0" as 30.
        code, err = run_main("embed", point, "1,4")
        assert code == 2
        assert err == f"error: bad point {point!r}; expected comma-separated naturals\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["pipeline", "{term}", "1_0", "٣"],
            ["pipeline", "{term}", "2", "+3"],
            ["pipeline", "{term}", "2", "3", "--max-steps", "1_000"],
            ["tree-height", "--k", "٢", "3"],
            ["embed", "--k", " 2", "3,4"],
            ["bound", "{sigma}", "--n", "1_0"],
            ["bound", "{sigma}", "--max-bound", "1e9"],
            ["run", "{term}", "--max-steps", "-5"],
        ],
    )
    def test_numeric_options_are_ascii_naturals(self, add_term, tmp_path, argv):
        sigma = tmp_path / "sigma.json"
        sigma.write_text(json.dumps({"rows": [[1, 0], [0, 0]]}))
        argv = [a.format(term=add_term, sigma=sigma) for a in argv]
        code, err = run_main(*argv)
        assert code == 2
        assert err.startswith("error: argument ") and err.count("\n") == 1
        assert "invalid nat value" in err

    @pytest.mark.parametrize("argv", [[], ["bound"], ["ord", "1", "2"], ["--no-such-flag", "ord", "1"]])
    def test_bad_command_lines_are_one_line(self, argv):
        code, err = run_main(*argv)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("kind", ["sigma-row", "ord-literal", "term", "program"])
    def test_over_long_naturals_are_the_packages_error(self, tmp_path, kind):
        digits = "1" * 80_000
        path = tmp_path / "input"
        if kind == "sigma-row":
            path.write_text('{"rows": [[' + digits + "]]}")
            argv = ["bound", str(path)]
        elif kind == "ord-literal":
            argv = ["ord", digits]
        elif kind == "term":
            path.write_text(f"(z {digits})")
            argv = ["compile", str(path)]
        else:
            path.write_text(f"vars x\n0: x := {digits}\n")
            argv = ["run", str(path)]
        code, err = run_main(*argv)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("command", ["bound", "check"])
    def test_deeply_nested_json_is_a_parse_error(self, tmp_path, command):
        path = tmp_path / "doc.json"
        path.write_text('{"rows": ' + "[" * 100_000 + "]" * 100_000 + "}")
        prog = tmp_path / "count.prog"
        prog.write_text(COUNTING_PROGRAM)
        argv = ["bound", str(path)] if command == "bound" else [
            "check", str(prog), "--invariant", str(path)
        ]
        code, err = run_main(*argv)
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1

    def test_arity_has_a_budget(self, tmp_path):
        term = tmp_path / "zero.pr"
        term.write_text("(z 100000000)")
        start = time.perf_counter()
        code, err = run_main("compile", str(term))
        assert time.perf_counter() - start < 1
        assert code == 3
        assert err.startswith("budget exceeded: arity 100000000") and err.count("\n") == 1

    def test_embed_has_the_pair_budget(self, capsys):
        # 14,143 identical points: 100,005,153 pairs, refused before any bitset.
        start = time.perf_counter()
        assert main(["embed", *["0,0"] * 14_143]) == 3
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "budget exceeded: is_homogeneous: 100005153 pairs exceed the pair "
            "budget of 100000000\n"
        )

    def test_check_has_a_pair_budget(self, tmp_path, capsys):
        prog = tmp_path / "grow.prog"
        prog.write_text("vars x y\n0: while x < y\n1:   y := y + 1\n")
        inv = tmp_path / "grow.inv.json"
        inv.write_text(json.dumps([
            {"name": "line", "atoms": ["loc < loc'"], "rank": "2 - loc"},
            {"name": "grow", "atoms": ["y < y'"], "rank": "30000 - y"},
        ]))
        argv = ["check", str(prog), "--invariant", str(inv), "--set", "y=1"]
        # The default step budget stays within the pair budget.
        assert main(argv) == 3
        assert capsys.readouterr().out.splitlines()[-1] == "verdict: inconclusive (budget)"
        start = time.perf_counter()
        code, err = run_main(*argv, "--max-steps", "20000")
        assert time.perf_counter() - start < 1
        assert code == 3
        assert err == (
            "budget exceeded: check_invariant: 200010000 pairs exceed the pair "
            "budget of 100000000\n"
        )


def decimal(n):
    """``str(n)`` however long ``n`` is."""
    with _digit_limit(0):
        return str(n)


class TestPrintBudget:
    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["ord", "exp(3, exp(3, 9))"], lambda: decimal(3**19683)),
            (
                ["tree-height", "--k", "3", "w+20000"],
                lambda: f"w*{decimal(3**20000)}+{decimal((3**20000 - 1) // 2)}",
            ),
        ],
        ids=["ord", "tree-height"],
    )
    def test_long_values_print_in_full(self, capsys, argv, expected):
        assert main(argv) == 0
        assert capsys.readouterr().out == expected() + "\n"
        assert main(["--format", "structured", *argv]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert expected() in (doc.get("result"), doc.get("height"))

    def test_budget_is_inclusive(self, capsys):
        largest = decimal(2**MAX_PRINT_BITS - 1)
        assert main(["ord", largest]) == 0
        assert capsys.readouterr().out == largest + "\n"
        code, err = run_main("ord", f"{largest} # 1")
        assert code == 3
        assert err == (
            f"budget exceeded: a result of {MAX_PRINT_BITS + 1} bits; "
            f"at most {MAX_PRINT_BITS} are printed\n"
        )

    @pytest.mark.parametrize(
        "argv", [["ord", "exp(3, exp(3, 9))"], ["ord", "w+"], ["ord", "--no-such-flag"]]
    )
    def test_digit_limit_is_restored(self, argv):
        before = sys.get_int_max_str_digits()
        with contextlib.suppress(SystemExit):
            run_main(*argv)
        assert sys.get_int_max_str_digits() == before


class TestGcPause:
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_main_restores_the_callers_gc_state(self, tmp_path, enabled):
        sigma = tmp_path / "sigma.json"
        sigma.write_text(json.dumps({"k": 3, "rows": [[10**6, 10**6, 10**6]]}))
        prog = tmp_path / "count.prog"
        prog.write_text(COUNTING_PROGRAM)
        inv = tmp_path / "rising.inv.json"
        inv.write_text(json.dumps([{"name": "r", "atoms": [], "rank": "x"}]))
        cases = [
            (["ord", "w # 1"], 0),
            (["check", str(prog), "--invariant", str(inv), "--set", "y=5"], 1),
            (["ord", "w+"], 2),
            (["bound", str(sigma)], 3),
        ]
        try:
            for argv, expected in cases:
                (gc.enable if enabled else gc.disable)()
                assert run_main(*argv)[0] == expected
                assert gc.isenabled() is enabled
        finally:
            gc.enable()


class TestTraceStates:
    """A trace is a list of locations and a list of env tuples, so a
    command builds a ``State`` only for the initial state it runs from."""

    def test_pipeline_and_check_build_only_the_initial_state(
        self, add_term, tmp_path, capsys, monkeypatch
    ):
        assert main(["--format", "structured", "compile", add_term]) == 0
        unit = json.loads(capsys.readouterr().out)
        prog = tmp_path / "add.prog"
        prog.write_text(unit["program"])
        inv = tmp_path / "add.inv.json"
        inv.write_text(json.dumps(unit["invariant"]))
        sets = [f"--set={name}={v}" for name, v in zip(unit["input_vars"], ("13", "1"))]
        built = []
        init = State.__init__

        def counted_init(self, location, env):
            built.append(location)
            init(self, location, env)

        monkeypatch.setattr(State, "__init__", counted_init)
        assert main(["pipeline", add_term, "13", "1"]) == 0
        assert built == [0]
        built.clear()
        assert main(["check", str(prog), "--invariant", str(inv), *sets]) == 0
        assert built == [0]


# --- parsers: round trips, the shared nesting cap, and fuzzing of main ---------


def ordinals(depth=2):
    """Strategy for ordinals with exponents nested up to ``depth`` levels."""
    exponents = st.integers(0, 4).map(Ordinal.from_int)
    if depth > 0:
        exponents = exponents | ordinals(depth - 1)

    def build(exps, coeffs):
        exps = sorted(set(exps), key=cmp_to_key(cmp), reverse=True)
        return Ordinal(zip(exps, coeffs))

    return st.builds(
        build,
        st.lists(exponents, max_size=3),
        st.lists(st.integers(1, 30), min_size=3, max_size=3),
    )


class TestParserProperties:
    @given(ordinals())
    def test_literal_round_trip(self, a):
        assert eval_ordinal_expr(str(a)) == a

    @given(ordinals(), ordinals())
    def test_natural_sum_expression(self, a, b):
        assert eval_ordinal_expr(f"{a} # {b}") == nat_sum(a, b)

    @pytest.mark.parametrize("parens", [0, 1, 50, 99, 100])
    def test_combined_nesting_cap(self, parens):
        # Parentheses, exp( and literal exponents share one depth. The
        # innermost "w" keeps exp(2, ...) infinite: 2^w = w.
        def expr(levels):
            opened = "(" * (parens // 2) + "exp(2, " * (parens - parens // 2)
            return opened + "w^(" * (levels - parens) + "w" + ")" * levels

        eval_ordinal_expr(expr(MAX_NESTING))
        with pytest.raises(ParseError, match="nested too deeply"):
            eval_ordinal_expr(expr(MAX_NESTING + 1))


EXPR_PIECES = ["w", "^", "(", ")", "+", " + ", "*", " # ", " #* ", "#", ",", " ",
               "exp(", "0", "1", "2", "3", "9", "w^(", "w*2", "x"]


def expression_text(max_pieces=12):
    # At most one exp( and three-digit numbers, so every value stays small
    # enough to compute: exp(3, exp(3, 99)) already has 10^47 digits.
    return (
        st.lists(st.sampled_from(EXPR_PIECES), max_size=max_pieces)
        .map("".join)
        .filter(lambda s: s.count("exp") <= 1 and not re.search(r"\d{4}", s))
    )


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 5)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
RANKS = ["y - x", "y - x + y - x + 1 - loc", "7", "x", "loc", "z", "", "y -", "- x", "x + + y"]
ATOMS = ["x < y", "x' = x + 1", "y' = y", "loc = 0", "loc' = 1", "z < x", "x <", "= y", "x"]
# Mostly well-formed entries, so that malformed fields are reached late.
invariant_entries = st.fixed_dictionaries(
    {
        "name": st.just("r") | json_values,
        "atoms": st.lists(st.sampled_from(ATOMS[:6]), max_size=2)
        | st.lists(st.sampled_from(ATOMS) | st.text(max_size=6), max_size=3)
        | json_values,
        "rank": st.sampled_from(RANKS[:6]) | st.sampled_from(RANKS) | st.text(max_size=8) | json_values,
    },
    optional={
        key: st.lists(st.integers(-1, 3), max_size=3) | json_values
        for key in ("pre_locations", "post_locations")
    },
)


# Non-ASCII text enters term and program text only through these digits, so
# any non-ASCII input is a number the ASCII-only grammars must reject.
DIGITS = ["0", "1", "2", "3", "٣", "²"]
TERM_PIECES = ["(", ")", " ", "z", "s", "p", "comp", "rec", "(p 1 1)", "(p 2 3)",
               "(z 0)", "(z ", "(p 1 ", "(comp s ", "(rec ", "x", *DIGITS]


def nested_comps(core):
    """``core`` inside up to 3000 levels of ``(comp ... s)``."""
    return st.builds(
        lambda depth, text: "(comp " * depth + text + " s)" * depth,
        st.integers(0, 3000), core,
    )


# No number of three or more digits: (p 1 100) inside 99 levels of
# (comp s ...) compiles to over 10,000 variables, which takes seconds.
term_pieces = (
    st.lists(st.sampled_from(TERM_PIECES), max_size=12)
    .map("".join)
    .filter(lambda s: not re.search(r"\d{3}", s))
)
nat_text = st.sampled_from(DIGITS)
term_grammar = st.recursive(
    st.sampled_from(["z", "s"]) | nat_text.map("(z {})".format)
    | st.builds("(p {} {})".format, nat_text, nat_text),
    lambda inner: st.builds("(rec {} {})".format, inner, inner)
    | st.builds(lambda h, gs: f"(comp {h} {' '.join(gs)})", inner, st.lists(inner, min_size=1, max_size=3)),
    max_leaves=5,
)
term_text = term_pieces | term_grammar | nested_comps(term_pieces | term_grammar)


@st.composite
def program_text(draw):
    """Program text from line templates, or up to 2500 nested loops."""
    depth = draw(st.integers(0, 2500))
    if depth and draw(st.booleans()):
        lines = [f"{i}: {'  ' * i}while x < y" for i in range(depth)]
        return "vars x y\n" + "\n".join(lines) + f"\n{depth}: {'  ' * depth}x := 1\n"
    command = st.sampled_from(["while x < y", "if x < y", "x := y + 1", "y := x - 1",
                               "x := y", "x :=", "z := x", "while x", "x < y"])
    command = command | nat_text.map("x := {}".format)
    lines = [draw(st.sampled_from(["vars x y", "vars x", "vars", "var x y", ""]))]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 5)) == 0:
            lines.append("  " * draw(st.integers(0, 2)) + "else")
            continue
        loc = draw(st.just(str(len(lines) - 1)) | nat_text | st.just("x"))
        lines.append(f"{loc}: " + "  " * draw(st.integers(0, 2)) + draw(command))
    return "\n".join(lines) + "\n"


# Pieces int() reads but an ASCII natural does not contain: "_", "+",
# spaces and other scripts' digits.
POINT_PIECES = ["0", "1", "3", "9", ",", ",", "_", "+", " ", "٣", "²"]
point_text = st.lists(st.sampled_from(POINT_PIECES), max_size=6).map("".join)

sigma_documents = st.fixed_dictionaries(
    {"rows": st.lists(st.lists(st.integers(-1, 6), max_size=3), max_size=6) | json_values},
    optional={"k": st.integers(0, 3) | json_values},
) | json_values


class TestFuzzMain:
    @settings(max_examples=300, deadline=None)
    @given(expression_text())
    def test_ord(self, text):
        assert_clean_exit(*run_main("ord", text))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 3), expression_text(max_pieces=8))
    def test_tree_height(self, k, text):
        assert_clean_exit(*run_main("tree-height", "--k", str(k), text))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(point_text, min_size=1, max_size=4))
    def test_embed(self, points):
        code, err = run_main("embed", *points)
        assert_clean_exit(code, err)
        if set("".join(points)) - set("0123456789,"):
            assert code == 2

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(invariant_entries, max_size=3) | json_values)
    def test_check_invariant(self, tmp_path, doc):
        assert_clean_exit(*counting_check(tmp_path, doc))

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(term_text)
    def test_compile_term(self, tmp_path, text):
        term = tmp_path / "fuzz.pr"
        term.write_text(text)
        code, err = run_main("compile", str(term))
        assert_clean_exit(code, err)
        if not text.isascii():
            assert code == 2

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(program_text(), nat_text)
    def test_run_program(self, tmp_path, text, value):
        prog = tmp_path / "fuzz.prog"
        prog.write_text(text)
        code, err = run_main("run", str(prog), "--max-steps", "20", "--set", f"y={value}")
        assert_clean_exit(code, err)
        if not (text + value).isascii():
            assert code == 2

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sigma_documents, st.integers(0, 3))
    def test_bound_sigma(self, tmp_path, doc, n):
        sigma = tmp_path / "sigma.json"
        sigma.write_text(json.dumps(doc))
        assert_clean_exit(*run_main("bound", str(sigma), "--n", str(n)))


# Sigma text mostly in the alphabet of ``bounds.text_proves_natural``: digit
# coordinates, then every way a document in that alphabet can still hold a
# coordinate that is not a natural, or a key that breaks a count.
ODD_COORDINATES = ["[2]", "[]", "[1, [0]]", "{}", '{"k": 1}', "-1", "-0", "1.5", "1e2",
                   "2E0", "true", "false", "null", "NaN", "Infinity", '"\\u0031"']
json_space = st.sampled_from(["", " ", "\n", "\t", "\r\n  "])


@st.composite
def sigma_text(draw):
    odd = draw(st.sampled_from([0, 0, 1, 3]))  # in ten coordinates

    def coordinate():
        pick = draw(st.integers(0, 9))
        if pick >= odd:
            return str(draw(st.integers(0, 12)))
        if pick == 0:  # a string of the alphabet's letters
            return json.dumps(draw(st.text("krows", max_size=4)))
        return draw(st.sampled_from(ODD_COORDINATES))

    k = draw(st.integers(1, 3))
    rows = [
        "[" + ", ".join(coordinate() for _ in range(k if draw(st.integers(0, 19)) else k + 1)) + "]"
        for _ in range(draw(st.integers(1, 5)))
    ]
    rows_text = "[" + draw(json_space) + ",".join(rows) + "]"
    members = [("rows", rows_text if draw(st.integers(0, 9)) else draw(st.sampled_from(["5", "[]"])))]
    if draw(st.booleans()):
        members.append(("k", draw(st.sampled_from(
            [str(k), str(k), str(k + 1), "null", f"[{k}]", f'"{k}"', f"{k}.0", "true"]
        ))))
    # keys holding "[", "{" or ",", and repeated "rows" or "k" keys
    for key in draw(st.lists(st.sampled_from(["[", "{", ",", "rows", "k", "k,rows", "s"]), max_size=2)):
        members.append((key, draw(st.sampled_from(["0", "7", rows_text]))))
    members = draw(st.permutations(members))
    sep = draw(json_space)
    return "{" + ("," + sep).join(f'"{key}"{sep}:{sep}{value}' for key, value in members) + "}"


def main_output(*argv):
    """Exit code, stdout and stderr of ``main``; help exits through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestSigmaTextProof:
    """``bound`` proves coordinates natural from the file's text, or checks them all."""

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(sigma_text(), st.integers(0, 3), st.sampled_from(["human", "structured"]))
    def test_bound_matches_the_full_check(self, tmp_path, text, n, fmt):
        sigma = tmp_path / "sigma.json"
        sigma.write_text(text)
        argv = ("--format", fmt, "bound", str(sigma), "--n", str(n))
        with mock.patch.object(cli, "_read_sigma", read_sigma_checked_in_full):
            expected = main_output(*argv)
        assert main_output(*argv) == expected

    def test_reads_without_a_second_copy_of_the_text(self, tmp_path):
        rows = [[v // 1000, v % 1000] for v in range(99_999, -1, -1)]
        text = json.dumps({"k": 2, "rows": rows})
        sigma = tmp_path / "sigma.json"
        sigma.write_text(text)
        del rows
        tracemalloc.start()
        try:
            read = _read_sigma(str(sigma))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(read.rows) == 100_000
        # What the reader keeps is the decoded rows. On top of them the text
        # is held once while it is decoded and proved natural, 64 KiB at a
        # time, and dropped before from_rows checks the rows; a second copy
        # would add its size again.
        assert peak - kept < sys.getsizeof(text) * 1.25
