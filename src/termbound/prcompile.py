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
* composition runs the inner calls in sequence with a phase counter
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

Names are given top down, so each command and relation is built once,
under its final names. A unit compiled under prefix ``P`` names its
variables ``P`` + local name; its i-th call gets prefix ``P`` + ``ci_``
and the caller's guard extended by the atoms above that confine a pair to
that call. Each composition or recursion emits its phase or counter
relation once, named and guarded that way. Location-based relations are
emitted only for the whole program: one location-progress relation covers
every location-increasing pair, and the unsatisfiable relation of zero
and projections is emitted only when one is the whole term. Every
variable is declared up front, so states serialize uniformly.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import ArityMismatch, BudgetExceeded, ParseError, Record
from .ordinals import MAX_NESTING, is_nat, nat_value
from .termlang import (
    Assign,
    Atom,
    Cmd,
    ConstraintRelation,
    FALSE_ATOM,
    POST_LOC,
    PRE_LOC,
    Program,
    TransitionInvariant,
    While,
    const,
    post,
    pre,
    rank_monus,
)

# --- terms -------------------------------------------------------------------


class Zero(Record):
    """The constant-zero function of the given arity."""

    __slots__ = ("n",)

    def __init__(self, n: int = 1):
        if n < 0:
            raise ValueError("arity must be a natural number")
        super().__init__(n)

    @property
    def arity(self) -> int:
        return self.n


class Succ(Record):
    __slots__ = ()

    @property
    def arity(self) -> int:
        return 1


class Proj(Record):
    __slots__ = ("i", "n")

    def __init__(self, i: int, n: int):
        if not 1 <= i <= n:
            raise ValueError(f"projection index {i} outside [1, {n}]")
        super().__init__(i, n)

    @property
    def arity(self) -> int:
        return self.n


class Comp(Record):
    __slots__ = ("h", "gs")

    def __init__(self, h: PRTerm, gs: tuple[PRTerm, ...]):
        if not gs:
            raise ValueError("composition needs at least one inner function")
        if h.arity != len(gs):
            raise ValueError(f"outer arity {h.arity} does not match {len(gs)} inner functions")
        arities = {g.arity for g in gs}
        if len(arities) != 1:
            raise ValueError(f"inner functions disagree on arity: {sorted(arities)}")
        super().__init__(h, gs)

    @property
    def arity(self) -> int:
        return self.gs[0].arity


class Rec(Record):
    """Primitive recursion on the first argument: f(0, xs) = h(xs),
    f(y + 1, xs) = g(y, f(y, xs), xs)."""

    __slots__ = ("h", "g")

    def __init__(self, h: PRTerm, g: PRTerm):
        if g.arity != h.arity + 2:
            raise ValueError(f"step arity {g.arity} must be base arity {h.arity} + 2")
        super().__init__(h, g)

    @property
    def arity(self) -> int:
        return self.h.arity + 1


PRTerm = Zero | Succ | Proj | Comp | Rec


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
# ``(comp s ...)`` levels compiles to 10,495 variables in about 0.05 s.
MAX_ARITY = 100


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
        value = nat_value(tokens[pos])
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


class CompiledUnit(Record):
    __slots__ = ("program", "invariant", "result_var", "input_vars")


def _empty_relation() -> ConstraintRelation:
    return ConstraintRelation("empty", atoms=(FALSE_ATOM,), rank=const(0))


def _line_relation(n_points: int) -> ConstraintRelation:
    return ConstraintRelation(
        "line",
        atoms=(Atom(PRE_LOC, "<", POST_LOC),),
        rank=rank_monus(const(n_points), PRE_LOC),
    )


def _increment(var: str, source: str) -> Assign:
    return Assign(var, ("add", pre(source), const(1)))


def _names(stem: str, n: int) -> tuple[str, ...]:
    return tuple(f"{stem}{i}" for i in range(1, n + 1))


def compile_term(t: PRTerm) -> CompiledUnit:
    """Compile a term to a program plus a certified transition invariant.

    The program's result variable equals ``eval_pr`` on the inputs, and
    the invariant covers every ordered pair of every trace with a
    strictly decreasing rank; unassigned variables start at 0.
    """
    relations: list[ConstraintRelation] = []
    variables, body, result_var, inputs = _compile(t, "", (), relations)
    program = Program(variables, body)
    if isinstance(t, (Zero, Proj)):
        first = _empty_relation()
    else:
        first = _line_relation(program.n_points)
    return CompiledUnit(
        program, TransitionInvariant((first, *relations)), result_var, inputs
    )


def _compile(
    t: PRTerm, prefix: str, guard: tuple[Atom, ...], relations: list[ConstraintRelation]
) -> tuple[list[str], list[Cmd], str, tuple[str, ...]]:
    """Variables, commands, result variable and inputs of ``t``, every name
    under ``prefix``.

    Appends the unit's variable-based relation, then its callees', to
    ``relations``, each behind ``guard``, the atoms that confine a pair to
    this unit's run.
    """
    inputs, r = _names(prefix + "x", t.arity), prefix + "r"
    if isinstance(t, Zero):
        return [*inputs, r], [], r, inputs
    if isinstance(t, Proj):
        return list(inputs), [], inputs[t.i - 1], inputs
    if isinstance(t, Succ):
        return [*inputs, r], [_increment(r, inputs[0])], r, inputs

    def call(
        idx: int, callee: PRTerm, call_guard: tuple[Atom, ...], actuals: Sequence[str], out: str
    ) -> list[Cmd]:
        """Commands running ``callee`` on ``actuals`` into ``out``; its
        variables go to the caller's ``variables``."""
        names, cmds, result, formals = _compile(
            callee, f"{prefix}c{idx}_", guard + call_guard, relations
        )
        variables.extend(names)
        copies = [Assign(f, pre(a)) for f, a in zip(formals, actuals)]
        return copies + cmds + [Assign(out, pre(result))]

    if isinstance(t, Comp):
        q, a = len(t.gs), prefix + "a"
        outs = _names(prefix + "y", q)
        res = prefix + "res"
        variables = [*inputs, a, *outs, res]
        relations.append(
            ConstraintRelation(
                prefix + "phase",
                atoms=guard + (
                    Atom(pre(a), "<", const(q + 1)),
                    Atom(pre(a), "<", post(a)),
                    Atom(post(a), "<", const(q + 2)),
                ),
                rank=rank_monus(const(q + 2), pre(a)),
            )
        )
        body: list[Cmd] = [Assign(a, const(1))]
        calls = [(g, inputs, out) for g, out in zip(t.gs, outs)] + [(t.h, outs, res)]
        for idx, (callee, actuals, out) in enumerate(calls):
            if idx > 0:
                body.append(_increment(a, a))
            phase = (Atom(pre(a), "=", const(idx + 1)), Atom(post(a), "=", const(idx + 1)))
            body += call(idx, callee, phase, actuals, out)
        return variables, body, res, inputs

    y, z, w = prefix + "y", prefix + "z", prefix + "w"
    inputs = (y, *_names(prefix + "x", t.h.arity))
    copies = _names(prefix + "z", t.h.arity)
    variables = [*inputs, z, w, *copies]
    relations.append(
        ConstraintRelation(
            prefix + "cross_round",
            atoms=guard + (
                Atom(pre(z), "<", post(z)),
                Atom(pre(z), "<", pre(y)),
                Atom(post(y), "=", pre(y)),
            ),
            rank=rank_monus(pre(y), pre(z)),
        )
    )
    base_guard = (Atom(pre(z), "=", const(0)), Atom(post(z), "=", const(0)))
    step_guard = (
        Atom(pre(z), "=", post(z)),
        Atom(pre(y), "=", post(y)),
        Atom(pre(z), "<", pre(y)),
    )
    body = [Assign(z, const(0))] + call(0, t.h, base_guard, inputs[1:], w)
    body += [Assign(zi, pre(xi)) for zi, xi in zip(copies, inputs[1:])]
    # The step call reads z as the recursion index, so the counter
    # increments after it: round r runs the step code with z = r - 1.
    loop_body = call(1, t.g, step_guard, (z, w, *copies), w) + [_increment(z, z)]
    body.append(While(z, y, tuple(loop_body)))
    return variables, body, w, inputs


# --- standard terms ----------------------------------------------------------

ADD = Rec(Proj(1, 1), Comp(Succ(), (Proj(2, 3),)))
MULT = Rec(Zero(1), Comp(ADD, (Proj(2, 3), Proj(3, 3))))
PRED = Rec(Zero(0), Proj(1, 2))
SUB = Rec(Proj(1, 1), Comp(PRED, (Proj(2, 3),)))  # SUB(y, x) = max(0, x - y)
