"""A deterministic while-if language with certified transition invariants.

Programs operate on unbounded natural variables and compare them only
with ``<``. The right side of an assignment is a term of the one term
language that atoms and ranks also use, restricted to four forms:
constant ``n``, copy ``x``, increment ``x + 1`` and truncated decrement
``x - 1``; it is printed and evaluated like every other term. Structured
commands lower to a flat table of numbered program points; a state is a
location plus one value per declared variable, and the interpreter takes
one small step at a time. A state whose location carries no instruction
is final and steps to itself.

A ranked relation is a binary relation on states together with a rank
into the naturals that must strictly decrease on every member pair; a
transition invariant is a finite list of ranked relations expected to
cover every ordered pair of distinct states along a trace. Relations are
given in a serializable constraint form: optional pre/post location sets
plus a conjunction of atoms comparing pre-variables, post-variables, the
location tokens ``loc`` and ``loc'``, and constants. Atoms and ranks are
terms of one language; a rank sums and truncated-subtracts terms over the
pre state.

Each stage takes the previous one's result: ``check_invariant`` verifies
coverage and rank descent over all pairs of a ``run_trace`` trace; the
rank tuples of a passing report embed into the colored-tree measure of
:mod:`termbound.erdos` (``PhiSequence``); ``step_bound`` feeds that
measure to :mod:`termbound.bounds` and returns a number of steps by which
the program must have reached a final state.

Orientation: relations hold (earlier, later) pairs of the execution
order; the ranked certificate decreases from earlier to later.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from itertools import repeat
from operator import add, and_, contains, eq, itemgetter, lt, sub

from .bounds import SequenceFn, all_natural, bound_g
from .erdos import ErdosTree, _bitset, _Column, cover_pairs, pairs_in_budget
from .errors import BudgetExceeded, NotHomogeneous, ParseError, Record
from .ordinals import MAX_NESTING, is_nat, nat_value

DEFAULT_MAX_STEPS = 10_000  # run_trace's step budget, and the CLI's --max-steps

# --- commands ----------------------------------------------------------------


class Assign(Record):
    """``var := expr``, where ``expr`` is a term of the one term language
    that atoms and ranks use, in one of four forms: a constant
    ``const(n)``, a copy ``pre(x)``, an increment
    ``("add", pre(x), const(1))`` or a truncated decrement
    ``("monus", pre(x), const(1))``. ``Program`` refuses any other term."""

    __slots__ = ("var", "expr")


class While(Record):
    __slots__ = ("left", "right", "body")


class If(Record):
    __slots__ = ("left", "right", "then_body", "else_body")


Cmd = Assign | While | If


# Flat instruction table entries, one list per command; locations are
# preorder command indices, so each entry is appended at its own location.
# ["assign", var_index, value, next_loc], value(loc, env, loc, env) the assigned value
# ["branch", left_index, right_index, true_loc, false_loc]
# A jump that leaves its block is filled in once the lowering reaches the
# location it lands on, in the same pass.


class Program:
    """A while-if program over declared natural variables.

    Locations number the commands in preorder; the location one past the
    last command is the single final point of a top-level run. Undeclared
    variable references are rejected at construction, and so are declared
    names that are not identifiers, which the text format cannot read back,
    a variable named ``loc``, which atoms and ranks read as the location,
    and a name declared twice.
    """

    def __init__(self, variables: Sequence[str], body: Sequence[Cmd]):
        self.variables: tuple[str, ...] = tuple(variables)
        for name in self.variables:
            if not name.isidentifier():
                raise ValueError(f"declared name {name!r} is not an identifier")
            if name == "loc":
                raise ValueError("'loc' names the location and cannot be declared")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable declaration")
        self.body: tuple[Cmd, ...] = tuple(body)
        self._index = {name: i for i, name in enumerate(self.variables)}
        self._table: list[list] = []
        exits = self._lower(self.body)
        self.n_points = len(self._table)
        for entry, slot in exits:
            entry[slot] = self.n_points

    def var_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"undeclared variable {name!r}") from None

    def _lower(self, cmds: Sequence[Cmd]) -> list[tuple[list, int]]:
        """Append the entries of ``cmds`` in preorder; return the (entry, slot)
        pairs whose jump leaves the block, for the caller to fill in."""
        table = self._table
        exits: list[tuple[list, int]] = []
        for c in cmds:
            here = len(table)
            for entry, slot in exits:
                entry[slot] = here
            if isinstance(c, Assign):
                if not _is_assign_expr(c.expr):
                    raise ValueError(
                        f"assignment to {c.var!r}: {c.expr!r} is not a constant, "
                        "a copy, an increment or a decrement"
                    )
                value = _compile(c.expr, self)
                entry = ["assign", self.var_index(c.var), value, None]
                table.append(entry)
                exits = [(entry, 3)]
                continue
            left, right = self.var_index(c.left), self.var_index(c.right)
            entry = ["branch", left, right, here + 1, None]
            table.append(entry)
            if isinstance(c, While):
                # The body returns to the test; an empty one loops on it.
                for body_exit, slot in self._lower(c.body) or [(entry, 3)]:
                    body_exit[slot] = here
                exits = [(entry, 4)]
            else:
                # An empty branch goes straight on to the continuation.
                exits = self._lower(c.then_body) or [(entry, 3)]
                entry[4] = len(table)
                exits += self._lower(c.else_body) or [(entry, 4)]
        return exits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Program):
            return NotImplemented
        return self.variables == other.variables and self.body == other.body

    def __repr__(self) -> str:
        return f"Program(variables={self.variables!r}, commands={self.n_points})"


class State(Record):
    """A program point plus one value per declared variable."""

    __slots__ = ("location", "env")


def initial_state(p: Program, assignments: Mapping[str, int] | None = None) -> State:
    """State at location 0; unassigned variables start at 0.

    Raises ValueError for a value that is not an ``int`` (a ``bool`` is
    not) or is negative.
    """
    env = [0] * len(p.variables)
    for name, value in (assignments or {}).items():
        if type(value) is not int or value < 0:
            raise ValueError(f"variable {name!r} must be a natural number")
        env[p.var_index(name)] = value
    return State(0, tuple(env))


def is_final(p: Program, s: State) -> bool:
    return not 0 <= s.location < len(p._table)


class Trace(Record):
    """States from an initial one up to the first final state, inclusive,
    as two lists: state j is at ``locations[j]`` with env tuple ``envs[j]``.

    No ``State`` is kept per step. ``complete`` is False when the step
    budget ran out first; that is a reported condition, not an error. Lists
    without a state, or of unequal lengths, raise ValueError; the lists are
    kept, not copied.
    """

    __slots__ = ("locations", "envs", "complete")

    def __init__(self, locations: list[int], envs: list[tuple[int, ...]], complete: bool):
        if not locations or len(envs) != len(locations):
            raise ValueError("a trace needs at least one state, and one env per location")
        super().__init__(locations, envs, complete)

    def __len__(self) -> int:
        return len(self.locations)

    @property
    def steps(self) -> int:
        return len(self.locations) - 1


def run_trace(p: Program, s0: State, max_steps: int = DEFAULT_MAX_STEPS) -> Trace:
    """The trace from ``s0``, cut off after ``max_steps`` steps.

    Each step appends a location and an env tuple, and builds no ``State``.
    Every jump in the table lands on a command or on the final point
    ``p.n_points``, so once ``s0`` is not final only that point ends the run.
    """
    loc, env = s0.location, s0.env
    locations, envs = [loc], [env]
    if is_final(p, s0):
        return Trace(locations, envs, True)
    table, final = p._table, p.n_points
    append_loc, append_env = locations.append, envs.append
    for _ in range(max_steps):
        instr = table[loc]
        if instr[0] == "assign":
            _, vidx, value, nxt = instr
            new = list(env)
            new[vidx] = value(loc, env, loc, env)
            loc, env = nxt, tuple(new)
        else:
            _, li, ri, t, f = instr
            loc = t if env[li] < env[ri] else f
        append_loc(loc)
        append_env(env)
        if loc == final:
            return Trace(locations, envs, True)
    return Trace(locations, envs, False)


# --- ranked relations --------------------------------------------------------

# Terms: ("const", n) | ("pre", var) | ("post", var) | ("preloc",) | ("postloc",)
# | ("add", l, r) | ("monus", l, r), where monus truncates at zero. An atom
# compares two leaf terms of a (pre, post) pair; a rank is a term over the
# pre state alone, and so is an assignment's right side (one of the four
# forms ``_is_assign_expr`` admits).


def pre(name: str) -> tuple:
    return ("pre", name)


def post(name: str) -> tuple:
    return ("post", name)


def const(n: int) -> tuple:
    return ("const", n)


PRE_LOC = ("preloc",)
POST_LOC = ("postloc",)


def rank_monus(l: tuple, r: tuple) -> tuple:
    return ("monus", l, r)


def term_str(t: tuple) -> str:
    kind = t[0]
    if kind == "const":
        return str(t[1])
    if kind == "pre":
        return t[1]
    if kind == "post":
        return f"{t[1]}'"
    if kind == "preloc":
        return "loc"
    if kind == "postloc":
        return "loc'"
    op = "+" if kind == "add" else "-"
    return f"{term_str(t[1])} {op} {term_str(t[2])}"


def _parse_leaf(tok: str) -> tuple:
    if tok == "loc":
        return PRE_LOC
    if tok == "loc'":
        return POST_LOC
    if is_nat(tok):
        return const(nat_value(tok))
    if tok.endswith("'") and tok[:-1].isidentifier():
        return post(tok[:-1])
    if tok.isidentifier():
        return pre(tok)
    raise ParseError(f"bad term {tok!r}")


def _compile(t: tuple, p: Program) -> Callable[[int, tuple, int, tuple], int]:
    """The value of ``t`` on a (pre, post) pair of states of ``p``, given as
    the pre location and env tuple, then the post location and env tuple."""
    kind = t[0]
    if kind == "const":
        v = t[1]
        return lambda loc, env, loc2, env2: v
    if kind == "pre":
        i = p.var_index(t[1])
        return lambda loc, env, loc2, env2: env[i]
    if kind == "post":
        i = p.var_index(t[1])
        return lambda loc, env, loc2, env2: env2[i]
    if kind == "preloc":
        return lambda loc, env, loc2, env2: loc
    if kind == "postloc":
        return lambda loc, env, loc2, env2: loc2
    lf, rf = _compile(t[1], p), _compile(t[2], p)
    if kind == "add":
        return lambda *pair: lf(*pair) + rf(*pair)
    return lambda *pair: max(0, lf(*pair) - rf(*pair))


def _is_rank_term(t) -> bool:
    """Whether ``t`` is a natural-valued term of the pre state: a leaf ``const``
    of a natural, ``pre`` or ``preloc``, or ``add``/``monus`` of two such terms."""
    if type(t) is not tuple or not t:
        return False
    if t[0] in ("add", "monus"):
        return len(t) == 3 and _is_rank_term(t[1]) and _is_rank_term(t[2])
    if t[0] == "const":
        return len(t) == 2 and type(t[1]) is int and t[1] >= 0
    return t == PRE_LOC or (len(t) == 2 and t[0] == "pre" and type(t[1]) is str)


def _is_assign_expr(t) -> bool:
    """Whether ``t`` is one of the four right sides of an assignment: a
    natural ``const``, a ``pre`` copy, or ``add``/``monus`` of a ``pre``
    and ``const(1)``."""
    if not _is_rank_term(t) or t == PRE_LOC:
        return False
    return len(t) == 2 or (t[1][0] == "pre" and t[2] == const(1))


_LEAF_KINDS = ("const", "pre", "post", "preloc", "postloc")


class Atom(Record):
    """``lhs op rhs`` over two leaf terms; ``op`` is ``<`` or ``=``."""

    __slots__ = ("lhs", "op", "rhs")

    def __init__(self, lhs: tuple, op: str, rhs: tuple):
        if op not in ("<", "="):
            raise ValueError(f"atom operator must be '<' or '=', not {op!r}")
        for side in (lhs, rhs):
            if side[0] not in _LEAF_KINDS:
                raise ValueError(f"atom side {side!r} is not a leaf term")
        super().__init__(lhs, op, rhs)

    def __str__(self) -> str:
        return f"{term_str(self.lhs)} {self.op} {term_str(self.rhs)}"


def parse_rank(text: str) -> tuple:
    """Parse ``term (('+'|'-') term)*`` over pre-state leaves; '-' truncates at zero."""
    tokens = text.split()
    if not tokens:
        raise ParseError("empty rank expression")

    def term(tok: str) -> tuple:
        t = _parse_leaf(tok)
        if t[0] in ("post", "postloc"):
            raise ParseError(f"rank term {tok!r} reads the post state")
        return t

    expr = term(tokens[0])
    i = 1
    while i < len(tokens):
        op = tokens[i]
        if op not in ("+", "-") or i + 1 >= len(tokens):
            raise ParseError(f"bad rank expression {text!r}")
        rhs = term(tokens[i + 1])
        expr = ("add" if op == "+" else "monus", expr, rhs)
        i += 2
    return expr


def parse_atom(text: str) -> Atom:
    for op in ("<", "="):
        if op in text:
            lhs, rhs = text.split(op, 1)
            return Atom(_parse_leaf(lhs.strip()), op, _parse_leaf(rhs.strip()))
    raise ParseError(f"atom {text!r} has no comparison operator")


FALSE_ATOM = Atom(const(0), "<", const(0))


class ConstraintRelation(Record):
    """A ranked relation in serializable constraint form.

    Membership: the pre state's location lies in ``pre_locations`` (None
    means unrestricted), likewise the post state, and every atom holds.
    The rank evaluates on a single state; the certificate obligation is
    that it strictly decreases from pre to post on every member pair.
    A rank that is not a natural-valued term of the pre state raises ValueError.
    """

    __slots__ = ("name", "atoms", "rank", "pre_locations", "post_locations")

    def __init__(self, name, atoms, rank, pre_locations=None, post_locations=None):
        if not _is_rank_term(rank):
            raise ValueError(f"rank {rank!r} is not a natural-valued term of the pre state")
        super().__init__(name, atoms, rank, pre_locations, post_locations)

    def compile_member(self, p: Program) -> Callable[[State, State], bool]:
        """Membership of one (pre, post) pair; ``check_invariant`` tests
        whole sets of pairs at once instead."""
        checks = [(_OPS[a.op], _compile(a.lhs, p), _compile(a.rhs, p)) for a in self.atoms]
        pre_locs, post_locs = self.pre_locations, self.post_locations

        def member(s: State, s2: State) -> bool:
            if pre_locs is not None and s.location not in pre_locs:
                return False
            if post_locs is not None and s2.location not in post_locs:
                return False
            pair = s.location, s.env, s2.location, s2.env
            return all(op(lf(*pair), rf(*pair)) for op, lf, rf in checks)

        return member


class TransitionInvariant(Record):
    """A nonempty list of ranked relations; ``k`` is its length."""

    __slots__ = ("relations",)

    def __init__(self, relations: tuple[ConstraintRelation, ...]):
        if not relations:
            raise ValueError("invariant needs at least one relation")
        super().__init__(relations)

    @property
    def k(self) -> int:
        return len(self.relations)


# --- invariant checking ------------------------------------------------------


class InvariantReport(Record):
    """Outcome of checking every ordered pair of a bounded trace, built once
    by ``check_invariant``. ``uncovered`` and ``rank_violations`` list the
    first ``MAX_LISTED`` failing pairs; the two totals count them all.

    ``rank_tuples`` (not in ``to_doc``) holds each state's relation ranks.
    """

    __slots__ = (
        "trace_length", "reached_final", "pairs_checked", "uncovered", "rank_violations",
        "uncovered_total", "rank_violation_total", "rank_tuples",
    )
    MAX_LISTED = 20

    @property
    def ok(self) -> bool:
        return self.uncovered_total == 0 and self.rank_violation_total == 0

    def to_doc(self) -> dict:
        return {
            "trace_length": self.trace_length,
            "reached_final": self.reached_final,
            "pairs_checked": self.pairs_checked,
            "ok": self.ok,
            "uncovered_total": self.uncovered_total,
            "rank_violation_total": self.rank_violation_total,
            "uncovered": [list(u) for u in self.uncovered],
            "rank_violations": [list(v) for v in self.rank_violations],
        }


_OPS = {"<": lt, "=": eq}


class _TraceColumns:
    """The leaf values of every trace state: the trace's own ``locations``,
    and one pass over its ``envs`` per variable."""

    def __init__(self, p: Program, trace: Trace):
        self.p, self.envs, self.n = p, trace.envs, len(trace)
        self._values: dict = {"loc": trace.locations}
        self._columns: dict = {}

    def values(self, leaf: tuple) -> list[int]:
        if leaf[0] == "const":
            return [leaf[1]] * self.n
        key = self._key(leaf)
        if key not in self._values:
            self._values[key] = list(map(itemgetter(key), self.envs))
        return self._values[key]

    def column(self, leaf: tuple) -> _Column:
        key = self._key(leaf)
        if key not in self._columns:
            self._columns[key] = _Column(self.values(leaf))
        return self._columns[key]

    def _key(self, leaf: tuple):
        return "loc" if leaf[0] in ("preloc", "postloc") else self.p.var_index(leaf[1])

    def term_values(self, t: tuple) -> Iterable[int]:
        """The values of a one-state term (a rank) on every state, in order.

        ``_compile(t, p)`` evaluated on each state, as C-level passes over
        the leaf columns; a term that is not a leaf is ``add`` or ``monus``,
        as in ``_compile``.
        """
        if t[0] in _LEAF_KINDS:
            return self.values(t)
        left, right = self.term_values(t[1]), self.term_values(t[2])
        if t[0] == "add":
            return map(add, left, right)
        return map(max, repeat(0), map(sub, left, right))


def _relation_sets(
    rel: ConstraintRelation, cols: _TraceColumns, ranks: list[int]
) -> tuple[list[bool], int, list[list[int]], list[int]]:
    """``rel`` as a ``cover_pairs`` plan but its name, given its rank on every state."""
    n = cols.n
    pre_ok, post_ok, mixed = [True] * n, [True] * n, []
    if rel.pre_locations is not None:
        pre_ok = list(map(contains, repeat(rel.pre_locations), cols.values(PRE_LOC)))
    if rel.post_locations is not None:
        post_ok = list(map(contains, repeat(rel.post_locations), cols.values(POST_LOC)))
    for a in rel.atoms:
        lpost, rpost = a.lhs[0] in ("post", "postloc"), a.rhs[0] in ("post", "postloc")
        lpre, rpre = a.lhs[0] in ("pre", "preloc"), a.rhs[0] in ("pre", "preloc")
        if lpost or rpost:
            if not (lpre or rpre):
                holds = map(_OPS[a.op], cols.values(a.lhs), cols.values(a.rhs))
                post_ok = list(map(and_, post_ok, holds))
            elif lpre:  # x < y': the later value lies above state i's
                op = ">" if a.op == "<" else "="
                mixed.append(cols.column(a.rhs).masks(cols.values(a.lhs), op))
            else:  # x' < y: the later value lies below state i's
                mixed.append(cols.column(a.lhs).masks(cols.values(a.rhs), a.op))
        else:
            holds = map(_OPS[a.op], cols.values(a.lhs), cols.values(a.rhs))
            pre_ok = list(map(and_, pre_ok, holds))
    below = _Column(ranks).masks(ranks, "<")
    return pre_ok, _bitset(post_ok), mixed, below


def check_invariant(
    p: Program, trace: Trace, inv: TransitionInvariant
) -> InvariantReport:
    """Check coverage and rank descent over all pairs (i < j) of ``trace``.

    Every ordered pair of distinct trace states must belong to at least
    one relation of the invariant, and every relation containing a pair
    must strictly decrease its rank on it. Violations are collected, not
    raised. A passing report thus proves the rank tuples homogeneous.

    The pairs are checked by ``erdos.cover_pairs``, one plan per relation.
    Every atom compares two leaves, so once the earlier state i is fixed
    it is one of three things: a test on state i alone (or a constant); a
    fixed mask of later states (post-only atoms); or a column of the later
    states compared with a value of state i, which is a dict lookup or a
    bisect into that column's prefix ORs. The states ranked below state i
    form such a prefix too. A trace with more than ``erdos.MAX_CHECK_PAIRS``
    pairs raises ``BudgetExceeded`` before any bitset is built. The
    per-pair check, one ``compile_member`` call per pair and relation, is
    kept in the tests as the oracle of this one.
    """
    n = len(trace)
    pairs = pairs_in_budget(n, "check_invariant")
    cols = _TraceColumns(p, trace)
    values = [list(cols.term_values(r.rank)) for r in inv.relations]
    plans = [
        (r.name, *_relation_sets(r, cols, rank_values))
        for r, rank_values in zip(inv.relations, values)
    ]
    return InvariantReport(
        n, trace.complete, pairs, *cover_pairs(n, plans, InvariantReport.MAX_LISTED),
        list(zip(*values)),
    )


# --- the measure sequence and the step bound ---------------------------------


class PhiSequence:
    """Rank-tuple measure of the growing trace prefix, frozen at the end.

    Built from a passing ``check_invariant`` report on a complete trace:
    the first x+1 rank tuples embed into a colored tree whose height
    below ``w^k`` yields a k-vector. Extending the prefix strictly
    decreases the vector lexicographically until the final state repeats,
    after which the value is constant; that freeze point makes the
    sequence usable by the closed-form path of ``bound_g``.

    One ``erdos.ErdosTree`` keeps the vector up to date, one tree descent
    per state; rebuilding the labelled tree of every prefix
    (``f_star_vec`` in ``tests/oracles.py``) gives the same vectors and is
    kept as the test oracle. The passing check is what makes the bound
    sound. The rank tuples are checked natural here, a ValueError before
    any insert, and go to ``ErdosTree.insert`` as they are.
    """

    def __init__(self, report: InvariantReport):
        if not report.reached_final:
            raise BudgetExceeded("no final state; the measure would not freeze")
        if not report.ok:
            raise NotHomogeneous(
                "the invariant check did not pass, so descent of the rank "
                "tuples is unproven"
            )
        self.points = report.rank_tuples
        if not all_natural(self.points):
            raise ValueError("the rank tuples are not all naturals")
        self.k = len(self.points[0])
        self.vectors = list(map(ErdosTree(self.k).insert, self.points))

    def sequence(self) -> SequenceFn:
        return SequenceFn(self.vectors)


def step_bound(report: InvariantReport) -> int:
    """Steps within which the program of a passing ``report`` halts.

    The measure sequence of the covered trace descends lexicographically
    while the program runs, and the descent bound of that sequence
    therefore caps the step count. The result is exact but can be
    astronomically loose.
    """
    return bound_g(PhiSequence(report).sequence(), 0)


# --- serialization -----------------------------------------------------------
#
# Program text: a ``vars`` line declaring identifiers, then one command
# per line with its preorder location, two spaces of indentation per
# nesting level (no tabs), and a bare ``else`` line separating the
# branches of an ``if``. The parser, the lowering and the printer recurse
# per level, so commands nest at most MAX_NESTING levels deep.


def program_to_text(p: Program) -> str:
    lines = [f"vars {' '.join(p.variables)}"] if p.variables else ["vars"]
    loc = 0

    def emit(cmds: Sequence[Cmd], depth: int) -> None:
        nonlocal loc
        pad = "  " * depth
        for c in cmds:
            if isinstance(c, Assign):
                lines.append(f"{loc}: {pad}{c.var} := {term_str(c.expr)}")
                loc += 1
            elif isinstance(c, While):
                lines.append(f"{loc}: {pad}while {c.left} < {c.right}")
                loc += 1
                emit(c.body, depth + 1)
            else:
                lines.append(f"{loc}: {pad}if {c.left} < {c.right}")
                loc += 1
                emit(c.then_body, depth + 1)
                lines.append(f"{pad}else")
                emit(c.else_body, depth + 1)
    emit(p.body, 0)
    return "\n".join(lines) + "\n"


def program_from_text(text: str) -> Program:
    if "\t" in text:
        raise ParseError("program text contains a tab; indent with two spaces per level")
    raw = [l for l in text.splitlines() if l.strip()]
    header = raw[0].split() if raw else []
    if header[:1] != ["vars"]:
        raise ParseError("program text must start with a 'vars' line")

    # Each parsed line: (loc or None for else, depth, payload)
    parsed = []
    for line in raw[1:]:
        if line.strip() == "else":
            loc, body = None, line
        else:
            head, _, rest = line.partition(":")
            if not is_nat(head.strip()):
                raise ParseError(f"missing location in line {line!r}")
            loc = nat_value(head.strip())
            body = rest[1:] if rest.startswith(" ") else rest
        payload = body.lstrip(" ")
        depth, odd = divmod(len(body) - len(payload), 2)
        if odd or payload[:1].isspace():
            raise ParseError(f"line {line!r} is not indented by two spaces per level")
        if depth > MAX_NESTING:
            raise ParseError(f"commands nested too deeply (limit {MAX_NESTING})")
        parsed.append((loc, depth, payload.strip()))

    pos = 0

    def parse_block(depth: int) -> tuple[Cmd, ...]:
        nonlocal pos
        cmds: list[Cmd] = []
        while pos < len(parsed):
            loc, d, payload = parsed[pos]
            if payload == "else" or d < depth:
                break
            if d > depth:
                raise ParseError(f"unexpected indentation in {payload!r}")
            pos += 1
            keyword, space, cond = payload.partition(" ")
            # No condition starts with ":=": "if := 0" assigns to a variable named if.
            if not space or keyword not in ("while", "if") or cond.lstrip().startswith(":="):
                cmds.append(_parse_assign(payload))
                continue
            left, right = _parse_cond(cond)
            if keyword == "while":
                cmds.append(While(left, right, parse_block(depth + 1)))
            else:
                then_body = parse_block(depth + 1)
                if (
                    pos < len(parsed)
                    and parsed[pos][2] == "else"
                    and parsed[pos][1] == depth
                ):
                    pos += 1
                    else_body = parse_block(depth + 1)
                else:
                    raise ParseError("if without matching else line")
                cmds.append(If(left, right, then_body, else_body))
        return tuple(cmds)

    body = parse_block(0)
    if pos != len(parsed):
        raise ParseError(f"unparsed trailing line {parsed[pos][2]!r}")
    try:
        program = Program(header[1:], body)
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    locs = [entry[0] for entry in parsed if entry[0] is not None]
    if locs != list(range(len(locs))):
        raise ParseError("locations must number the commands in preorder")
    return program


def _parse_cond(text: str) -> tuple[str, str]:
    parts = text.split("<")
    if len(parts) != 2:
        raise ParseError(f"bad condition {text!r}")
    return parts[0].strip(), parts[1].strip()


def _parse_assign(text: str) -> Assign:
    if ":=" not in text:
        raise ParseError(f"bad command {text!r}")
    var, _, rhs = text.partition(":=")
    var = var.strip()
    rhs = rhs.strip()
    if is_nat(rhs):
        return Assign(var, const(nat_value(rhs)))
    operand = rhs[:-3].strip()
    if rhs[-3:] in ("+ 1", "- 1") and operand.isidentifier():
        return Assign(var, ("add" if rhs[-3] == "+" else "monus", pre(operand), const(1)))
    if rhs.isidentifier():
        return Assign(var, pre(rhs))
    raise ParseError(f"bad expression {rhs!r}")


def invariant_to_doc(inv: TransitionInvariant) -> list[dict]:
    return [
        {
            "name": r.name,
            "pre_locations": sorted(r.pre_locations)
            if r.pre_locations is not None
            else None,
            "post_locations": sorted(r.post_locations)
            if r.post_locations is not None
            else None,
            "atoms": [str(a) for a in r.atoms],
            "rank": term_str(r.rank),
        }
        for r in inv.relations
    ]


def invariant_from_doc(doc: Sequence[Mapping]) -> TransitionInvariant:
    if not isinstance(doc, list):
        raise ParseError("invariant document must be a list of relations")
    relations = []
    for i, entry in enumerate(doc):
        if not (
            isinstance(entry, Mapping)
            and isinstance(entry.get("name"), str)
            and isinstance(entry.get("atoms"), list)
            and all(isinstance(a, str) for a in entry["atoms"])
            and isinstance(entry.get("rank"), str)
        ):
            raise ParseError(
                f"invariant entry {i} needs a string name, a list of atom "
                "strings and a rank string"
            )
        relations.append(
            ConstraintRelation(
                name=entry["name"],
                atoms=tuple(parse_atom(a) for a in entry["atoms"]),
                rank=parse_rank(entry["rank"]),
                pre_locations=_locations_from_doc(entry, "pre_locations", i),
                post_locations=_locations_from_doc(entry, "post_locations", i),
            )
        )
    return TransitionInvariant(tuple(relations))


def _locations_from_doc(entry: Mapping, key: str, i: int) -> frozenset[int] | None:
    locations = entry.get(key)
    if locations is None:
        return None
    if not (
        isinstance(locations, list)
        and all(type(loc) is int and loc >= 0 for loc in locations)
    ):
        raise ParseError(f"invariant entry {i}: {key} must be null or a list of naturals")
    return frozenset(locations)


def trace_to_doc(p: Program, trace: Trace) -> list[dict]:
    return [
        {"location": loc, "env": dict(zip(p.variables, env))}
        for loc, env in zip(trace.locations, trace.envs)
    ]
