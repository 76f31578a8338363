"""Primitive recursive terms: evaluator, compiler, certified invariants.

Terms are built from the arity-parametrized constant zero, successor,
projections, composition, and primitive recursion. ``eval_pr`` is the
reference semantics and the oracle every compiled program is tested
against.

``compile_term`` emits, per term, a while-if program together with a
transition invariant whose relations carry explicit rank certificates:

* zero and projections compile to empty programs (the result variable is
  respectively never assigned, hence 0, or an input); their invariant is
  a single unsatisfiable relation, since a pairless trace has nothing to
  cover;
* successor is one assignment, covered by a location-progress relation;
* composition splices the inner calls in sequence with a phase counter
  ``a`` incremented between them; pairs in different phases are covered
  by the phase relation (rank ``q + 2 - a``), pairs inside one phase by
  the inner invariants conjoined with equal phase;
* recursion seeds the accumulator with the base call, then iterates the
  step call behind a counter ``z`` that increments at the end of each
  round, so the step code of round r reads ``z = r - 1``; pairs in
  different rounds are covered by the counter relation (rank ``y - z``),
  pairs in the same round by the step invariant conjoined with equal
  ``(z, y)``, and pairs inside the base call by its invariant conjoined
  with ``z = 0``.

Relations whose atoms or rank mention the location token are never
lifted through a splice: each unit contributes one fresh
location-progress relation covering all location-increasing pairs of the
whole program, and only variable-based relations propagate (renamed,
with the guards above). Unsatisfiable relations are dropped when lifted.

Every variable of a compiled program is declared up front, so states
serialize uniformly; fresh names take hierarchical prefixes ``c0_``,
``c1_``, ... per splice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from .errors import ArityMismatch, BudgetExceeded, NameCollision, ParseError
from .ordinals import MAX_NESTING, is_nat
from .termlang import (
    Assign,
    Atom,
    Cmd,
    Const,
    ConstraintRelation,
    Dec,
    FALSE_ATOM,
    If,
    Inc,
    POST_LOC,
    PRE_LOC,
    Program,
    TransitionInvariant,
    Var,
    While,
    const,
    post,
    pre,
    rank_monus,
)

# --- terms -------------------------------------------------------------------


@dataclass(frozen=True)
class Zero:
    """The constant-zero function of the given arity."""

    n: int = 1

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("arity must be a natural number")

    @property
    def arity(self) -> int:
        return self.n


@dataclass(frozen=True)
class Succ:
    @property
    def arity(self) -> int:
        return 1


@dataclass(frozen=True)
class Proj:
    i: int
    n: int

    def __post_init__(self):
        if not 1 <= self.i <= self.n:
            raise ValueError(f"projection index {self.i} outside [1, {self.n}]")

    @property
    def arity(self) -> int:
        return self.n


@dataclass(frozen=True)
class Comp:
    h: "PRTerm"
    gs: tuple["PRTerm", ...]

    def __post_init__(self):
        if not self.gs:
            raise ValueError("composition needs at least one inner function")
        if self.h.arity != len(self.gs):
            raise ValueError(
                f"outer arity {self.h.arity} does not match {len(self.gs)} inner functions"
            )
        arities = {g.arity for g in self.gs}
        if len(arities) != 1:
            raise ValueError(f"inner functions disagree on arity: {sorted(arities)}")

    @property
    def arity(self) -> int:
        return self.gs[0].arity


@dataclass(frozen=True)
class Rec:
    """Primitive recursion on the first argument: f(0, xs) = h(xs),
    f(y + 1, xs) = g(y, f(y, xs), xs)."""

    h: "PRTerm"
    g: "PRTerm"

    def __post_init__(self):
        if self.g.arity != self.h.arity + 2:
            raise ValueError(
                f"step arity {self.g.arity} must be base arity {self.h.arity} + 2"
            )

    @property
    def arity(self) -> int:
        return self.h.arity + 1


PRTerm = Union[Zero, Succ, Proj, Comp, Rec]


def eval_pr(t: PRTerm, args: Sequence[int]) -> int:
    """Reference semantics; the oracle for compiled programs."""
    args = list(args)
    if len(args) != t.arity:
        raise ArityMismatch(f"{t} expects {t.arity} arguments, got {len(args)}")
    if isinstance(t, Zero):
        return 0
    if isinstance(t, Succ):
        return args[0] + 1
    if isinstance(t, Proj):
        return args[t.i - 1]
    if isinstance(t, Comp):
        return eval_pr(t.h, [eval_pr(g, args) for g in t.gs])
    y, rest = args[0], args[1:]
    acc = eval_pr(t.h, rest)
    for i in range(y):
        acc = eval_pr(t.g, [i, acc] + rest)
    return acc


# --- term DSL ----------------------------------------------------------------
#
# s-expressions: z | (z n) | s | (p i n) | (comp h g1 ... gq) | (rec h g).
# Bare ``z`` is the unary zero; other arities are written explicitly. The
# parser, the compiler and the evaluator recurse per parenthesis, so terms
# nest at most MAX_NESTING levels deep.

# Largest n of ``(z n)`` and ``(p i n)``. Each declares n variables, and each
# level of composition around it copies them again: ``(p 1 100)`` inside 99
# ``(comp s ...)`` levels compiles to 10,495 variables in about 2 s.
MAX_ARITY = 100


def term_to_text(t: PRTerm) -> str:
    if isinstance(t, Zero):
        return "z" if t.n == 1 else f"(z {t.n})"
    if isinstance(t, Succ):
        return "s"
    if isinstance(t, Proj):
        return f"(p {t.i} {t.n})"
    if isinstance(t, Comp):
        inner = " ".join(term_to_text(g) for g in t.gs)
        return f"(comp {term_to_text(t.h)} {inner})"
    return f"(rec {term_to_text(t.h)} {term_to_text(t.g)})"


def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def parse_term(text: str) -> PRTerm:
    tokens = _tokenize(text)
    pos = depth = 0

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of term")
        pos += 1
        return tokens[pos - 1]

    def parse() -> PRTerm:
        nonlocal pos, depth
        tok = take()
        if tok == "z":
            return Zero(1)
        if tok == "s":
            return Succ()
        if tok != "(":
            raise ParseError(f"unexpected token {tok!r}")
        depth += 1
        if depth > MAX_NESTING:
            raise ParseError(f"term nested too deeply (limit {MAX_NESTING})")
        head = take()
        if head == "z":
            node: PRTerm = Zero(_arity())
        elif head == "p":
            i = _nat()
            node = Proj(i, _arity())
        elif head == "comp":
            h = parse()
            gs = []
            while pos < len(tokens) and tokens[pos] != ")":
                gs.append(parse())
            node = Comp(h, tuple(gs))
        elif head == "rec":
            h = parse()
            g = parse()
            node = Rec(h, g)
        else:
            raise ParseError(f"unknown form {head!r}")
        if pos >= len(tokens) or tokens[pos] != ")":
            raise ParseError("missing closing parenthesis")
        pos += 1
        depth -= 1
        return node

    def _nat() -> int:
        nonlocal pos
        if pos >= len(tokens) or not is_nat(tokens[pos]):
            raise ParseError("expected a number")
        value = int(tokens[pos])
        pos += 1
        return value

    def _arity() -> int:
        n = _nat()
        if n > MAX_ARITY:
            raise BudgetExceeded(f"arity {n} exceeds the arity budget of {MAX_ARITY}")
        return n

    try:
        term = parse()
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if pos != len(tokens):
        raise ParseError("trailing tokens after term")
    return term


# --- compiled units ----------------------------------------------------------


@dataclass(frozen=True)
class CompiledUnit:
    program: Program
    invariant: TransitionInvariant
    result_var: str
    input_vars: tuple[str, ...]


class _Lifts:
    """The relations a compiled unit hands up to its callers, not lifted yet.

    ``own`` are the unit's relations. Each call ``(callee, prefix, guard)``
    adds the callee's, with ``prefix`` before every variable and behind
    ``guard``. ``compile_term`` lifts them once, top down, so each atom of
    the final invariant is built once rather than once per level.
    """

    def __init__(
        self,
        own: tuple[ConstraintRelation, ...],
        calls: tuple[tuple[_Lifts, str, tuple[Atom, ...]], ...] = (),
    ):
        self.own, self.calls = own, calls

    def lifted(
        self, prefix: str, guard: tuple[Atom, ...]
    ) -> Iterator[ConstraintRelation]:
        """Variable-based relations of this unit and its callees, for a caller.

        Location-bound relations are dropped: the caller's own
        location-progress relation covers every location-increasing pair
        of the whole program. Unsatisfiable relations cover nothing and are
        dropped too. Prefixes and guards keep both properties, so each
        relation is tested once.
        """
        for rel in self.own:
            if not (rel.mentions_loc() or rel.is_unsatisfiable()):
                yield rel.prefixed(prefix).guarded(guard, prefix + rel.name)
        for callee, inner, inner_guard in self.calls:
            yield from callee.lifted(
                prefix + inner, guard + tuple(a.prefixed(prefix) for a in inner_guard)
            )


class _Unit:
    """A compiled unit whose invariant is still a ``_Lifts`` tree."""

    def __init__(
        self, program: Program, lifts: _Lifts, result_var: str, input_vars: tuple[str, ...]
    ):
        self.program, self.lifts = program, lifts
        self.result_var, self.input_vars = result_var, input_vars


def splice_call(
    callee: CompiledUnit | _Unit,
    actual_inputs: Sequence[str],
    out: str,
    fresh_prefix: str,
) -> tuple[Cmd, ...]:
    """Commands calling ``callee`` on caller variables.

    Copies the actuals into the callee's renamed inputs, runs the
    callee's body with every variable renamed under ``fresh_prefix``,
    and copies the renamed result into ``out``.
    """
    actual_inputs = tuple(actual_inputs)
    if len(actual_inputs) != len(callee.input_vars):
        raise ArityMismatch(
            f"callee expects {len(callee.input_vars)} inputs, got {len(actual_inputs)}"
        )
    renamed = {v: fresh_prefix + v for v in callee.program.variables}
    clash = set(renamed.values()) & (set(actual_inputs) | {out})
    if clash:
        raise NameCollision(f"renamed variables collide: {sorted(clash)}")

    def rename_cmds(cmds: Sequence[Cmd]) -> tuple[Cmd, ...]:
        out_cmds = []
        for c in cmds:
            if isinstance(c, Assign):
                e = c.expr
                if isinstance(e, Var):
                    e = Var(renamed[e.name])
                elif isinstance(e, Inc):
                    e = Inc(renamed[e.name])
                elif isinstance(e, Dec):
                    e = Dec(renamed[e.name])
                out_cmds.append(Assign(renamed[c.var], e))
            elif isinstance(c, While):
                out_cmds.append(
                    While(renamed[c.left], renamed[c.right], rename_cmds(c.body))
                )
            else:
                out_cmds.append(
                    If(
                        renamed[c.left],
                        renamed[c.right],
                        rename_cmds(c.then_body),
                        rename_cmds(c.else_body),
                    )
                )
        return tuple(out_cmds)

    copies = tuple(
        Assign(renamed[formal], Var(actual))
        for formal, actual in zip(callee.input_vars, actual_inputs)
    )
    return copies + rename_cmds(callee.program.body) + (
        Assign(out, Var(renamed[callee.result_var])),
    )


def _spliced_variables(callee: _Unit, fresh_prefix: str) -> tuple[str, ...]:
    return tuple(fresh_prefix + v for v in callee.program.variables)


def _empty_relation() -> ConstraintRelation:
    return ConstraintRelation("empty", atoms=(FALSE_ATOM,), rank=const(0))


def _line_relation(n_points: int) -> ConstraintRelation:
    return ConstraintRelation(
        "line",
        atoms=(Atom(PRE_LOC, "<", POST_LOC),),
        rank=rank_monus(const(n_points), PRE_LOC),
    )


def compile_term(t: PRTerm) -> CompiledUnit:
    """Compile a term to a program plus a certified transition invariant.

    The program's result variable equals ``eval_pr`` on the inputs, and
    the invariant covers every ordered pair of every trace with a
    strictly decreasing rank; unassigned variables start at 0.
    """
    unit = _compile(t)
    lifted = (
        rel
        for callee, prefix, guard in unit.lifts.calls
        for rel in callee.lifted(prefix, guard)
    )
    return CompiledUnit(
        unit.program,
        TransitionInvariant(unit.lifts.own + tuple(lifted)),
        unit.result_var,
        unit.input_vars,
    )


def _compile(t: PRTerm) -> _Unit:
    if isinstance(t, Zero):
        inputs = tuple(f"x{i}" for i in range(1, t.n + 1))
        program = Program(inputs + ("r",), ())
        return _Unit(program, _Lifts((_empty_relation(),)), "r", inputs)

    if isinstance(t, Proj):
        inputs = tuple(f"x{i}" for i in range(1, t.n + 1))
        program = Program(inputs, ())
        return _Unit(program, _Lifts((_empty_relation(),)), f"x{t.i}", inputs)

    if isinstance(t, Succ):
        program = Program(("x1", "r"), (Assign("r", Inc("x1")),))
        return _Unit(program, _Lifts((_line_relation(program.n_points),)), "r", ("x1",))

    if isinstance(t, Comp):
        return _compile_comp(t)
    return _compile_rec(t)


def _compile_comp(t: Comp) -> _Unit:
    q = len(t.gs)
    inputs = tuple(f"x{i}" for i in range(1, t.arity + 1))
    outs = tuple(f"y{i}" for i in range(1, q + 1))
    variables = list(inputs) + ["a"] + list(outs) + ["res"]
    body: list[Cmd] = [Assign("a", Const(1))]
    lifts = []

    units = [_compile(g) for g in t.gs] + [_compile(t.h)]
    calls = [(unit, inputs, out) for unit, out in zip(units[:-1], outs)]
    calls.append((units[-1], outs, "res"))
    for idx, (unit, actuals, out) in enumerate(calls):
        prefix = f"c{idx}_"
        phase = idx + 1
        if idx > 0:
            body.append(Assign("a", Inc("a")))
        body.extend(splice_call(unit, actuals, out, prefix))
        variables.extend(_spliced_variables(unit, prefix))
        guard = (
            Atom(pre("a"), "=", const(phase)),
            Atom(post("a"), "=", const(phase)),
        )
        lifts.append((unit.lifts, prefix, guard))

    program = Program(tuple(variables), tuple(body))
    phase_relation = ConstraintRelation(
        "phase",
        atoms=(
            Atom(pre("a"), "<", const(q + 1)),
            Atom(pre("a"), "<", post("a")),
            Atom(post("a"), "<", const(q + 2)),
        ),
        rank=rank_monus(const(q + 2), pre("a")),
    )
    relations = (_line_relation(program.n_points), phase_relation)
    return _Unit(program, _Lifts(relations, tuple(lifts)), "res", inputs)


def _compile_rec(t: Rec) -> _Unit:
    side = t.h.arity
    inputs = ("y",) + tuple(f"x{i}" for i in range(1, side + 1))
    copies = tuple(f"z{i}" for i in range(1, side + 1))
    variables = list(inputs) + ["z", "w"] + list(copies)

    h_unit = _compile(t.h)
    g_unit = _compile(t.g)

    body: list[Cmd] = [Assign("z", Const(0))]
    body.extend(splice_call(h_unit, inputs[1:], "w", "c0_"))
    variables.extend(_spliced_variables(h_unit, "c0_"))
    body.extend(Assign(zi, Var(xi)) for zi, xi in zip(copies, inputs[1:]))

    # The step call reads z as the recursion index, so the counter
    # increments after it: round r runs the step code with z = r - 1.
    loop_body = splice_call(g_unit, ("z", "w") + copies, "w", "c1_") + (
        Assign("z", Inc("z")),
    )
    variables.extend(_spliced_variables(g_unit, "c1_"))
    body.append(While("z", "y", loop_body))

    program = Program(tuple(variables), tuple(body))
    cross_round = ConstraintRelation(
        "cross_round",
        atoms=(
            Atom(pre("z"), "<", post("z")),
            Atom(pre("z"), "<", pre("y")),
            Atom(post("y"), "=", pre("y")),
        ),
        rank=rank_monus(pre("y"), pre("z")),
    )
    base_guard = (
        Atom(pre("z"), "=", const(0)),
        Atom(post("z"), "=", const(0)),
    )
    step_guard = (
        Atom(pre("z"), "=", post("z")),
        Atom(pre("y"), "=", post("y")),
        Atom(pre("z"), "<", pre("y")),
    )
    relations = (_line_relation(program.n_points), cross_round)
    calls = ((h_unit.lifts, "c0_", base_guard), (g_unit.lifts, "c1_", step_guard))
    return _Unit(program, _Lifts(relations, calls), "w", inputs)


# --- standard terms ----------------------------------------------------------

ADD = Rec(Proj(1, 1), Comp(Succ(), (Proj(2, 3),)))
MULT = Rec(Zero(1), Comp(ADD, (Proj(2, 3), Proj(3, 3))))
PRED = Rec(Zero(0), Proj(1, 2))
SUB = Rec(Proj(1, 1), Comp(PRED, (Proj(2, 3),)))  # SUB(y, x) = max(0, x - y)
