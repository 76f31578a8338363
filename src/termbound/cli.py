"""Batch command-line front end, one subcommand per pipeline stage.

Exit codes: 0 all checks pass, 1 a check reported a violation, 2 parse
or usage error, 3 a configured budget was exceeded, 141 the reader closed
standard output early (as a process ended by SIGPIPE would report). With
``--format structured`` every subcommand prints a single JSON document,
byte-for-byte deterministic for fixed inputs and budgets.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from contextlib import contextmanager

from .bounds import SequenceFn, bound_g, find_nondescent, text_proves_natural
from .erdos import embed, erdos_to_doc
from .errors import BudgetExceeded, ParseError, TermboundError
from .ktree import height_nil
from .ordinals import Ordinal, Scanner, add, exp_base_k, nat_prod_nat, nat_sum
from .ordinals import from_vector, is_nat, nat_value, parse_ordinal, read_ordinal
from .prcompile import compile_term, eval_pr, parse_term
from .termlang import (
    DEFAULT_MAX_STEPS,
    check_invariant,
    initial_state,
    invariant_from_doc,
    invariant_to_doc,
    program_from_text,
    program_to_text,
    run_trace,
    step_bound,
    trace_to_doc,
)

# --- ordinal expression mini-language ----------------------------------------
#
#   expr    := primary ((" + " | " # ") primary | " #* " nat)*
#   primary := "exp" "(" nat "," expr ")" | "(" expr ")" | ordinal literal
#
# "+" is the standard sum, "#" the natural sum, "#* n" the natural product
# by n. A "+" followed at once by "w" or a digit belongs to the ordinal
# literal ("w*2+1"), so the "+" operator needs whitespace after it.


def eval_ordinal_expr(text: str) -> Ordinal:
    sc = Scanner(text)
    value = _expr(sc)
    sc.expect_end()
    return value


def _expr(sc: Scanner) -> Ordinal:
    value = _primary(sc)
    while True:
        sc.skip_ws()
        if sc.text.startswith("#*", sc.pos):
            sc.pos += 2
            sc.skip_ws()
            value = nat_prod_nat(value, sc.nat())
        elif sc.peek() == "#":
            sc.take()
            value = nat_sum(value, _primary(sc))
        elif sc.peek() == "+":
            sc.take()
            value = add(value, _primary(sc))
        else:
            return value


def _primary(sc: Scanner) -> Ordinal:
    sc.skip_ws()
    base = None
    if sc.text.startswith("exp", sc.pos):
        sc.pos += 3
        sc.skip_ws()
        sc.expect("(")
        sc.skip_ws()
        base = sc.nat()
        sc.skip_ws()
        sc.expect(",")
    elif sc.peek() == "(":
        sc.take()
    else:
        return read_ordinal(sc)
    with sc.nest():
        value = _expr(sc)
    sc.skip_ws()
    sc.expect(")")
    return value if base is None else exp_base_k(base, value)


# --- reading and printing numbers -------------------------------------------


def nat(text: str) -> int:
    """A natural written in ASCII digits.

    ``int`` alone also reads "1_0", "+3", " 3" and other scripts' digits.
    """
    if not is_nat(text):
        raise ValueError(f"expected a natural in ASCII digits, got {text!r}")
    return nat_value(text)


# Printing an integer in decimal takes time quadratic in its length: with
# Python 3.11 on a 2-CPU Xeon container, 8 ms at 2^16 bits, 0.11 s at 2^18
# bits and 1.8 s at 2^20. A result with more bits ends in exit 3. While ``main`` runs, Python's own
# limit on int-string conversion is the digit count of the largest
# printable value, so the command line reads what it can print.
MAX_PRINT_BITS = 1 << 18
MAX_PRINT_DIGITS = int(MAX_PRINT_BITS * math.log10(2)) + 1


def _printable(value):
    """``value``, an int or an ordinal, once all its integers fit MAX_PRINT_BITS."""
    if isinstance(value, Ordinal):
        for exp, coeff in value.terms:
            _printable(exp)
            _printable(coeff)
    elif value.bit_length() > MAX_PRINT_BITS:
        raise BudgetExceeded(
            f"a result of {value.bit_length()} bits; at most {MAX_PRINT_BITS} are printed"
        )
    return value


@contextmanager
def _digit_limit(digits: int):
    """Python's int-string conversion limit set to ``digits`` for the block."""
    if not hasattr(sys, "set_int_max_str_digits"):  # before 3.10.7: no limit
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


@contextmanager
def _gc_paused():
    """The cyclic garbage collector off for the block, then as the caller had it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _read_json(path: str):
    """The text of the file at ``path`` and the JSON document it holds."""
    try:
        with open(path) as fh:
            text = fh.read()
        return text, json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError):
        raise
    except ValueError:  # int() refused more digits than Python's limit
        digits = sys.get_int_max_str_digits()
        raise ParseError(f"{path}: a number of more than {digits} digits") from None
    except RecursionError:
        raise ParseError(f"{path}: JSON nested too deeply") from None


def _read_sigma(path: str) -> SequenceFn:
    """The sequence in the sigma file at ``path``: a JSON object with a list
    ``"rows"`` of rows and an optional ``"k"``, their length."""
    text, doc = _read_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("rows"), list):
        raise ParseError('sigma file must be a JSON object with a list "rows"')
    proven_natural = text_proves_natural(text, doc)
    del text  # the rows are all that is kept
    sigma = SequenceFn.from_rows(doc["rows"], proven_natural=proven_natural)
    if (k := doc.get("k")) is not None and (type(k) is not int or k != sigma.k):
        raise ParseError(f'"k" must be null or {sigma.k}, the length of every row')
    return sigma


def _emit(args, doc: dict, human_lines: list[str]) -> None:
    if args.format == "structured":
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for line in human_lines:
            print(line)


def _parse_point(text: str, k: int | None) -> tuple[int, ...]:
    try:
        point = tuple(nat(c) for c in text.split(","))
    except ValueError:
        raise ParseError(f"bad point {text!r}; expected comma-separated naturals") from None
    if k is not None and len(point) != k:
        raise ParseError(f"point {text!r} does not have {k} coordinates")
    return point


def _parse_assignments(pairs: list[str]) -> dict[str, int]:
    env = {}
    for item in pairs:
        name, _, value = item.partition("=")
        if not name.isidentifier() or not is_nat(value):
            raise ParseError(f"bad assignment {item!r}; expected name=nat")
        env[name] = nat_value(value)
    return env


# --- subcommands ---------------------------------------------------------------


def cmd_ord(args) -> int:
    value = _printable(eval_ordinal_expr(args.expr))
    _emit(args, {"result": str(value)}, [str(value)])
    return 0


def cmd_tree_height(args) -> int:
    alpha = parse_ordinal(args.alpha)
    value = _printable(height_nil(args.k, alpha))
    _emit(args, {"k": args.k, "alpha": str(alpha), "height": str(value)}, [str(value)])
    return 0


def cmd_embed(args) -> int:
    first = _parse_point(args.points[0], args.k)
    k = len(first)
    points = [first] + [_parse_point(p, k) for p in args.points[1:]]
    tree = embed(points, k)
    vec = tree.vector
    measure = _printable(from_vector(vec))
    doc = {"k": k, "f_star": str(measure), "f_star_vec": list(vec)}
    if args.format == "structured":  # only structured output prints the branches
        doc["tree"] = erdos_to_doc(tree)
    _emit(args, doc, [f"branches: {tree.branch_count()}", f"f*: {measure}", f"vector: {vec}"])
    return 0


def cmd_bound(args) -> int:
    sigma = _read_sigma(args.sigma_file)
    bound = _printable(bound_g(sigma, args.n, max_value=args.max_bound))
    witness = find_nondescent(sigma, args.n, bound)
    at, after = sigma(witness), sigma(witness + 1)
    out = {
        "n": args.n,
        "bound": bound,
        "witness": witness,
        "value_at_witness": list(at),
        "value_after_witness": list(after),
    }
    _emit(
        args,
        out,
        [f"bound g({args.n}) = {bound}", f"first non-descent at m = {witness}: {at} <= {after}"],
    )
    return 0


def cmd_compile(args) -> int:
    with open(args.term_file) as fh:
        term = parse_term(fh.read())
    unit = compile_term(term)
    doc = {
        "program": program_to_text(unit.program),
        "invariant": invariant_to_doc(unit.invariant),
        "result_var": unit.result_var,
        "input_vars": list(unit.input_vars),
    }
    _emit(
        args,
        doc,
        [
            f"program: {unit.program.n_points} commands, "
            f"{len(unit.program.variables)} variables",
            f"inputs: {' '.join(unit.input_vars)}",
            f"result: {unit.result_var}",
            f"invariant: {unit.invariant.k} relations "
            f"({', '.join(r.name for r in unit.invariant.relations)})",
        ],
    )
    return 0


def cmd_run(args) -> int:
    with open(args.program_file) as fh:
        program = program_from_text(fh.read())
    s0 = initial_state(program, _parse_assignments(args.set or []))
    trace = run_trace(program, s0, args.max_steps)
    _printable(max((v for env in trace.envs for v in env), default=0))  # largest printed
    states = trace_to_doc(program, trace)
    if args.format == "structured":  # build only the output that is printed
        doc = {"trace": states, "reached_final": trace.complete, "steps": trace.steps}
        lines = []
    else:
        doc = {}
        lines = [f"{s['location']}: {s['env']}" for s in states] + [
            f"steps: {trace.steps} ({'final' if trace.complete else 'budget'})"
        ]
    _emit(args, doc, lines)
    return 0 if trace.complete else 3


def cmd_check(args) -> int:
    with open(args.program_file) as fh:
        program = program_from_text(fh.read())
    invariant = invariant_from_doc(_read_json(args.invariant)[1])
    s0 = initial_state(program, _parse_assignments(args.set or []))
    trace = run_trace(program, s0, args.max_steps)
    report = check_invariant(program, trace, invariant)
    # A violation on a prefix is a violation of the whole trace, but a
    # clean prefix says nothing about the pairs the budget cut off.
    if not report.ok:
        verdict, code = "FAIL", 1
    elif not report.reached_final:
        verdict, code = "inconclusive (budget)", 3
    else:
        verdict, code = "pass", 0
    lines = [
        f"pairs checked: {report.pairs_checked}",
        f"uncovered: {report.uncovered_total}",
        f"rank violations: {report.rank_violation_total}",
        f"verdict: {verdict}",
    ]
    _emit(args, report.to_doc(), lines)
    return code


def cmd_pipeline(args) -> int:
    with open(args.term_file) as fh:
        term = parse_term(fh.read())
    unit = compile_term(term)
    if len(args.inputs) != len(unit.input_vars):
        raise ParseError(f"term takes {len(unit.input_vars)} inputs, got {len(args.inputs)}")
    invariant = unit.invariant
    if args.invariant:
        invariant = invariant_from_doc(_read_json(args.invariant)[1])

    s0 = initial_state(unit.program, dict(zip(unit.input_vars, args.inputs)))
    trace = run_trace(unit.program, s0, args.max_steps)
    if not trace.complete:
        raise BudgetExceeded(f"no final state within {args.max_steps} steps")
    result = _printable(trace.envs[-1][unit.program.var_index(unit.result_var)])
    oracle = _printable(eval_pr(term, args.inputs))
    report = check_invariant(unit.program, trace, invariant)

    bound = bound_holds = None
    if report.ok:
        # The descent bound is exact but astronomically loose; it is
        # reported in full rather than capped by --max-bound.
        bound = _printable(step_bound(report))
        bound_holds = trace.steps <= bound

    ok = report.ok and result == oracle and bool(bound_holds)
    doc = {
        "result": result,
        "oracle": oracle,
        "result_matches": result == oracle,
        "invariant_ok": report.ok,
        "uncovered": report.uncovered_total,
        "rank_violations": report.rank_violation_total,
        "trace_length": len(trace),
        "steps": trace.steps,
        "step_bound": bound,
        "bound_holds": bound_holds,
        "ok": ok,
    }
    lines = [
        f"result: {result} (oracle {oracle})",
        f"invariant: {'pass' if report.ok else 'FAIL'} "
        f"({report.uncovered_total} uncovered, "
        f"{report.rank_violation_total} rank violations)",
        f"steps: {trace.steps}",
        f"step bound: {bound}",
        f"verdict: {'pass' if ok else 'FAIL'}",
    ]
    _emit(args, doc, lines)
    return 0 if ok else 1


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ``ParseError``, so ``main`` gives it
    one ``error:`` line and exit 2 like any other malformed input;
    subcommand parsers inherit the class."""

    def error(self, message: str):
        raise ParseError(message)


def _arg(*flags: str, **kwargs) -> tuple:
    """One ``add_argument`` call, held until a command's parser is built."""
    return flags, kwargs


_SET = _arg("--set", action="append", metavar="VAR=NAT")
_MAX_STEPS = _arg("--max-steps", type=nat, default=DEFAULT_MAX_STEPS)

# Each command: its handler, its line in the top-level help, its arguments.
COMMANDS = {
    "ord": (cmd_ord, "evaluate an ordinal expression", [_arg("expr")]),
    "tree-height": (
        cmd_tree_height,
        "height of the empty k-tree below alpha",
        [_arg("--k", type=nat, required=True), _arg("alpha")],
    ),
    "embed": (
        cmd_embed,
        "embed a homogeneous sequence of points",
        [
            _arg("--k", type=nat, default=None),
            _arg("points", nargs="+", metavar="P", help="points like 3,4"),
        ],
    ),
    "bound": (
        cmd_bound,
        "descent bound and non-descent witness",
        [
            _arg("sigma_file"),
            _arg("--n", type=nat, default=0),
            _arg("--max-bound", type=nat, default=10**9),
        ],
    ),
    "compile": (cmd_compile, "compile a primitive recursive term", [_arg("term_file")]),
    "run": (
        cmd_run,
        "run a program to its final state",
        [_arg("program_file"), _SET, _MAX_STEPS],
    ),
    "check": (
        cmd_check,
        "check an invariant over a bounded trace",
        [_arg("program_file"), _arg("--invariant", required=True), _SET, _MAX_STEPS],
    ),
    "pipeline": (
        cmd_pipeline,
        "compile, run, check and bound a term on inputs",
        [
            _arg("term_file"),
            _arg("inputs", nargs="*", type=nat),
            _arg("--invariant", help="override the emitted invariant"),
            _MAX_STEPS,
        ],
    ),
}


def _add_arguments(parser: argparse.ArgumentParser, fn, arguments) -> None:
    for flags, kwargs in arguments:
        parser.add_argument(*flags, **kwargs)
    parser.set_defaults(fn=fn)


class _CommandParser:
    """A command's parser, registered with ``add_subparsers(parser_class=...)``
    and built only when argparse parses that command's arguments with it.

    ``parse_known_args`` is the one method that argparse's subparsers action
    calls on a command's parser (Python 3.10 to 3.13), so a call builds the
    parser of the command it names and none of the others.
    """

    def __init__(self, *, command: tuple, **kwargs):
        self.command = command  # (handler, arguments)
        self.kwargs = kwargs  # prog, as add_parser computed it

    def parse_known_args(self, args=None, namespace=None):
        parser = _Parser(**self.kwargs)
        _add_arguments(parser, *self.command)
        return parser.parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="termbound",
        description="Ordinal tree heights and certified termination bounds.",
    )
    parser.add_argument(
        "--format",
        choices=("human", "structured"),
        default="human",
        help="human-readable lines or a single JSON document",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for name, (fn, summary, arguments) in COMMANDS.items():
        sub.add_parser(name, help=summary, command=(fn, arguments))
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    with _digit_limit(MAX_PRINT_DIGITS):
        try:
            args = parser.parse_args(argv)
            # Reference counting frees a command's data with its frame; the GC would only walk it.
            with _gc_paused():
                code = args.fn(args)
            sys.stdout.flush()  # so that a closed pipe shows here, not at exit
            return code
        except BrokenPipeError:
            sys.stdout = open(os.devnull, "w")  # the interpreter's last flush goes nowhere
            return 141
        except BudgetExceeded as exc:
            print(f"budget exceeded: {exc}", file=sys.stderr)
            return 3
        except (ParseError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except TermboundError as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
