"""Slow reference paths that the fast code of the package is tested against.

Each recomputes a result of ``src/`` from its definition: tree heights by
exhausting the poset (``brute_force_height``), the colored-tree measure by
rebuilding and re-labelling the whole tree (``f_star``, ``f_star_vec``),
the new branch of an insertion by reading the descent path
(``insert_branch``), the growing tree's measure node by node with ordinal
labels (``WalkTree``), a program's run by walking its commands with no
instruction table (``run_commands``), the invariant check one pair at a time
(``check_invariant_pairwise``, over the trace's ``states`` and each state's
rank by ``compile_rank``), the descent bound by its recursion with no
closed form (``bound_g_literal``), the non-descent scan one point at a
time (``find_nondescent_pointwise``), a sigma file read with every
coordinate checked, never proved natural from its text
(``read_sigma_checked_in_full``), and the command line parsed with every
command's parser built up front (``eager_parser``).

Beside them are helpers the package has no use for: one small step of a
program (``step``), a term printed back to its text (``term_to_text``), and
a labelled tree node with its empty slots filled in (``node``).
"""

import argparse
import json
from typing import Callable, Sequence
from unittest import mock

from termbound import bounds, cli
from termbound.bounds import SequenceFn
from termbound.erdos import ColoredList, ErdosTree, _label, color_of, embed, height_of_tree
from termbound.errors import BudgetExceeded, LabelNotDecreasing, LemmaViolated, ParseError
from termbound.ktree import LabelledTree, Node, height_nil
from termbound.ordinals import Ordinal, cmp, to_vector
from termbound.prcompile import Comp, PRTerm, Proj, Succ, Zero
from termbound.termlang import (
    Assign,
    Cmd,
    ConstraintRelation,
    If,
    InvariantReport,
    Program,
    State,
    Trace,
    TransitionInvariant,
    While,
    _compile,
    run_trace,
)

# --- the exhaustive height oracle ---------------------------------------------
#
# Heights are invariant under permuting the child slots of any node, so the
# enumeration works on slot-sorted canonical forms, and the returned table
# answers for arbitrary trees by canonicalizing the key. Internally trees
# are interned integers: id 0 is the empty tree, and every other id maps to
# (label, child ids) with the children sorted by a fixed key, so
# structurally equal trees (up to slot permutation) intern to the same id.
# Labels are plain ints because the oracle only handles finite label bounds.


class _Interner:
    def __init__(self, k: int, budget: int):
        self.k = k
        self.budget = budget
        self.table: dict[tuple[int, tuple[int, ...]], int] = {}
        self.label: list[int] = [-1]
        self.kids: list[tuple[int, ...]] = [()]

    def sort_key(self, cid: int):
        # Empties last; among nodes, higher labels first, ties by identity.
        if cid == 0:
            return (1, 0, 0)
        return (0, -self.label[cid], cid)

    def make(self, label: int, kids: tuple[int, ...]) -> int:
        kids = tuple(sorted(kids, key=self.sort_key))
        key = (label, kids)
        tid = self.table.get(key)
        if tid is None:
            tid = len(self.label)
            if tid > self.budget:
                raise BudgetExceeded(
                    f"enumeration exceeded {self.budget} distinct trees"
                )
            self.table[key] = tid
            self.label.append(label)
            self.kids.append(kids)
        return tid

    def leaf(self, label: int) -> int:
        return self.make(label, (0,) * self.k)


class HeightTable:
    """Heights of every tree in the poset of k-trees labelled below m.

    Lookup accepts any LabelledTree in the space; slot order is ignored
    since the one-node-extension poset is invariant under permuting the
    children of a node.
    """

    def __init__(self, k: int, m: int, interner: _Interner, heights: dict[int, int]):
        self.k = k
        self.m = m
        self._interner = interner
        self._heights = heights

    def __len__(self) -> int:
        return len(self._heights)

    def _intern_tree(self, n: Node | None) -> int:
        if n is None:
            return 0
        kids = tuple(self._intern_tree(c) for c in n.children)
        return self._interner.make(n.label.to_int(), kids)

    def __getitem__(self, t: LabelledTree) -> int:
        if t.k != self.k:
            raise KeyError(f"tree has arity {t.k}, table holds arity {self.k}")
        before = len(self._interner.label)
        tid = self._intern_tree(t.root)
        if tid not in self._heights or len(self._interner.label) != before:
            raise KeyError(f"tree is not in the space of {self.k}-trees below {self.m}")
        return self._heights[tid]

    def _decode(self, tid: int) -> Node | None:
        if tid == 0:
            return None
        children = tuple(self._decode(c) for c in self._interner.kids[tid])
        return Node(Ordinal.from_int(self._interner.label[tid]), children)

    def items(self):
        """Yield (canonical representative, height) for every tree class."""
        for tid, h in self._heights.items():
            yield LabelledTree(self.k, self._decode(tid)), h


def brute_force_height(k: int, m: int, max_trees: int = 1_000_000) -> HeightTable:
    """Exact heights of the whole poset by exhausting one-node extensions.

    Requires k <= 3 and m <= 4; within that range the slot-sorted
    enumeration stays comfortably below ``max_trees`` classes. Heights
    come from the raw recursion height(T) = max over extensions of
    height + 1, with no reference to the closed forms.
    """
    if not 1 <= k <= 3:
        raise ValueError("oracle supports arities 1..3")
    if not 0 <= m <= 4:
        raise ValueError("oracle supports label bounds 0..4")
    intern = _Interner(k, max_trees)
    ext_memo: dict[int, tuple[int, ...]] = {}

    def extensions(tid: int) -> tuple[int, ...]:
        # Extensions of a nonempty tree; root insertions handled separately.
        cached = ext_memo.get(tid)
        if cached is not None:
            return cached
        label = intern.label[tid]
        kids = intern.kids[tid]
        out: set[int] = set()
        if 0 in kids:
            without_one_empty = list(kids)
            without_one_empty.remove(0)
            for lab in range(label):
                out.add(intern.make(label, tuple(without_one_empty) + (intern.leaf(lab),)))
        for child in set(kids) - {0}:
            rest = list(kids)
            rest.remove(child)
            for ext_child in extensions(child):
                out.add(intern.make(label, tuple(rest) + (ext_child,)))
        result = tuple(sorted(out))
        ext_memo[tid] = result
        return result

    heights: dict[int, int] = {}

    def height(tid: int) -> int:
        cached = heights.get(tid)
        if cached is not None:
            return cached
        if tid == 0:
            succs = tuple(intern.leaf(lab) for lab in range(m))
        else:
            succs = extensions(tid)
        h = 0
        for s in succs:
            h = max(h, height(s) + 1)
        heights[tid] = h
        return h

    height(0)
    return HeightTable(k, m, intern, heights)


def node(label: Ordinal | int, *children: Node | None, k: int | None = None) -> Node:
    """A tree node; missing slots are filled with empties."""
    label = label if isinstance(label, Ordinal) else Ordinal.from_int(label)
    if k is None:
        k = len(children)
    if len(children) > k:
        raise ValueError("more children than slots")
    slots = tuple(children) + (None,) * (k - len(children))
    return Node(label, slots)


# --- the rebuild-from-scratch measure ----------------------------------------


def insert_branch(t: ErdosTree, y: Sequence[int]) -> ColoredList:
    """The new branch created when ``y`` is inserted into ``t``.

    Descends from the root, at each node following the child of the first
    coordinate in which ``y`` decreases below that node's point, and ends
    with ``y`` as a new leaf.
    """
    points: list = []
    colors: list[int] = []
    cur = 0 if t.nodes else -1
    while cur >= 0:
        n = t.nodes[cur]
        c = color_of(y, n.point)
        points.append(n.point)
        colors.append(c)
        cur = n.children[c - 1]
    return ColoredList(tuple(points) + (tuple(y),), tuple(colors))


class WalkTree:
    """``ErdosTree.insert`` node by node, with ordinal labels.

    The descent calls ``color_of`` at every node of the path; each label is
    the ``Ordinal`` of ``erdos._label``, labels compare with ``cmp``, and
    the vector moves by ``to_vector(height_nil(k, label), k)``. ``nodes``
    holds ``[point, label, parent, color, children]`` per inserted point,
    in insertion order; the tree is unchanged when ``insert`` raises.
    """

    def __init__(self, k: int):
        self.k = k
        self.nodes: list[list] = []
        self.vector: tuple[int, ...] = ()

    def insert(self, y: Sequence[int]) -> tuple[int, ...]:
        y = tuple(y)
        k, nodes = self.k, self.nodes
        nearest: dict = {}
        parent, color = -1, 0
        cur = 0 if nodes else -1
        while cur >= 0:
            point, _, _, _, children = nodes[cur]
            color = color_of(y, point)
            nearest[color] = point
            parent, cur = cur, children[color - 1]
        label = _label(y, nearest, k)
        gained = to_vector(height_nil(k, label), k)
        if parent < 0:
            self.vector = tuple(k * g for g in gained)
        else:
            owner = nodes[parent]
            if cmp(label, owner[1]) >= 0:
                raise LabelNotDecreasing(
                    f"label {label} of {y} not below parent label {owner[1]}"
                )
            lost = to_vector(height_nil(k, owner[1]), k)
            owner[4][color - 1] = len(nodes)
            self.vector = tuple(
                v + k * g - l for v, g, l in zip(self.vector, gained, lost)
            )
        nodes.append([y, label, parent, color, [-1] * k])
        return self.vector


def f_star(s: Sequence[Sequence[int]], k: int) -> Ordinal:
    """Ordinal measure below ``w^k`` of a nonempty homogeneous sequence.

    The height of the labelled image of the sequence's tree among k-trees
    labelled below ``w * k``; strictly decreasing under extension.
    """
    if len(s) == 0:
        raise ValueError("the measure is undefined on the empty sequence")
    return height_of_tree(embed(s, k))


def f_star_vec(s: Sequence[Sequence[int]], k: int) -> tuple[int, ...]:
    """The measure as a vector of k naturals, lexicographically ordered."""
    return to_vector(f_star(s, k), k)


# --- the interpreter ----------------------------------------------------------


def step(p: Program, s: State) -> State:
    """One small step; final states repeat themselves."""
    trace = run_trace(p, s, 1)
    return State(trace.locations[-1], trace.envs[-1])


def states(trace: Trace) -> list[State]:
    """The trace's states, state j built from ``locations[j]`` and ``envs[j]``."""
    return list(map(State, trace.locations, trace.envs))


def _points(cmds: Sequence[Cmd]) -> int:
    """Commands in ``cmds``, nested ones included."""
    total = 0
    for c in cmds:
        total += 1
        if isinstance(c, While):
            total += _points(c.body)
        elif isinstance(c, If):
            total += _points(c.then_body) + _points(c.else_body)
    return total


def _assigned(expr: tuple, env: dict[str, int]) -> int:
    """The value of one of the four assignment forms over ``env``."""
    if expr[0] == "const":
        return expr[1]
    if expr[0] == "pre":
        return env[expr[1]]
    x = env[expr[1][1]]
    return x + 1 if expr[0] == "add" else max(0, x - 1)


def run_commands(p: Program, s0: State, max_steps: int) -> list[State]:
    """``states(run_trace(p, s0, max_steps))`` by walking ``p.body`` itself.

    No instruction table: a stack of ``[block, index, location]`` frames
    points at the next command, its location being the command's preorder
    number. A ``While`` whose test holds enters its body, or stays where it
    is if the body is empty; an ``If`` enters the branch its test picks, or
    goes on past itself if that branch is empty. A ``While`` body that runs
    out returns to its ``While``; any other block that runs out goes on
    past the command that holds it. Once the stack is empty the location
    is one past the last command, and the run has ended.
    """
    env = dict(zip(p.variables, s0.env))
    stack = [[p.body, 0, 0]] if p.body else []
    end = _points(p.body)

    def advance() -> None:
        """Go on past the current command."""
        while stack:
            frame = stack[-1]
            block, i, loc = frame
            frame[1], frame[2] = i + 1, loc + _points(block[i : i + 1])
            if i + 1 < len(block):
                return
            stack.pop()
            if stack:
                outer, j, _ = stack[-1]
                if isinstance(outer[j], While):
                    return  # back to the test

    states = [s0]
    while stack and len(states) <= max_steps:
        block, i, loc = stack[-1]
        c = block[i]
        if isinstance(c, Assign):
            env[c.var] = _assigned(c.expr, env)
            advance()
        elif isinstance(c, While):
            if env[c.left] >= env[c.right]:
                advance()
            elif c.body:
                stack.append([c.body, 0, loc + 1])
        else:
            holds = env[c.left] < env[c.right]
            branch = c.then_body if holds else c.else_body
            if branch:
                start = loc + 1 if holds else loc + 1 + _points(c.then_body)
                stack.append([branch, 0, start])
            else:
                advance()
        location = stack[-1][2] if stack else end
        states.append(State(location, tuple(env[v] for v in p.variables)))
    return states


# --- the per-pair invariant check ---------------------------------------------


def compile_rank(relation: ConstraintRelation, p: Program) -> Callable[[State], int]:
    """The rank of ``relation`` on one state of ``p``."""
    f = _compile(relation.rank, p)
    return lambda s: f(s.location, s.env, s.location, s.env)


def check_invariant_pairwise(
    p: Program, trace: Trace, inv: TransitionInvariant
) -> InvariantReport:
    """``check_invariant`` one pair at a time: a member call per pair and relation."""
    trace_states = states(trace)
    n = len(trace_states)
    members = [r.compile_member(p) for r in inv.relations]
    ranks = [compile_rank(r, p) for r in inv.relations]
    values = [[rank(s) for s in trace_states] for rank in ranks]
    limit = InvariantReport.MAX_LISTED
    uncovered, violations, uncovered_total, violation_total = [], [], 0, 0
    for i in range(n):
        si = trace_states[i]
        for j in range(i + 1, n):
            sj = trace_states[j]
            covered = False
            for r, member in enumerate(members):
                if member(si, sj):
                    if values[r][j] < values[r][i]:
                        covered = True
                    else:
                        violation_total += 1
                        if len(violations) < limit:
                            violations.append((i, j, inv.relations[r].name))
            if not covered:
                uncovered_total += 1
                if len(uncovered) < limit:
                    uncovered.append((i, j))
    return InvariantReport(
        n, trace.complete, n * (n - 1) // 2, uncovered, violations, uncovered_total,
        violation_total, list(zip(*values)),
    )


# --- the descent bound and its witness ----------------------------------------


def bound_g_literal(sigma: SequenceFn, n: int) -> int:
    """``bound_g`` by the H recursion of the ``bounds`` docstring.

    ``g_1(m) = m + sigma_k(m) + 1``; each further level applies the one
    below ``sigma_head(m) + 2`` times with a +1 between steps. Every
    application is evaluated; nothing is finished in closed form.
    """

    def g(depth: int, m: int) -> int:
        c = sigma(m)[sigma.k - depth]
        if depth == 1:
            return m + c + 1
        x = m
        for _ in range(c + 2):
            x = g(depth - 1, x + 1)
        return x

    return g(sigma.k, n)


def find_nondescent_pointwise(sigma: SequenceFn, n: int, limit: int) -> int:
    """``find_nondescent`` one point at a time: two sigma calls per point."""
    if not 0 <= n <= limit:
        raise ValueError(f"no interval [{n}, {limit}] of naturals to scan")
    end = min(limit, n + bounds.DEFAULT_MAX_ITERATIONS)
    later = sigma(n)
    for m in range(n, end + 1):
        earlier, later = later, sigma(m + 1)
        if earlier <= later:
            return m
    if end < limit:
        raise BudgetExceeded("non-descent scan exceeded its budget")
    raise LemmaViolated(f"strict lexicographic descent throughout [{n}, {limit}]")


def read_sigma_checked_in_full(path: str) -> SequenceFn:
    """``cli._read_sigma`` with both passes of ``from_rows`` over every coordinate.

    The document is decoded by ``json.loads`` alone, and no condition on its
    text is tried, so ``from_rows`` checks every coordinate's type and sign.
    """
    with open(path) as fh:
        doc = json.loads(fh.read())
    if not isinstance(doc, dict) or not isinstance(doc.get("rows"), list):
        raise ParseError('sigma file must be a JSON object with a list "rows"')
    sigma = SequenceFn.from_rows(doc["rows"])
    if (k := doc.get("k")) is not None and (type(k) is not int or k != sigma.k):
        raise ParseError(f'"k" must be null or {sigma.k}, the length of every row')
    return sigma


class _EagerCommandParser(cli._Parser):
    """A command's parser with its arguments added when it is registered."""

    def __init__(self, *, command: tuple, **kwargs):
        super().__init__(**kwargs)
        cli._add_arguments(self, *command)


_build_parser = cli.build_parser  # the module's own, even where a test patches it


def eager_parser() -> argparse.ArgumentParser:
    """``cli.build_parser`` from the same command table, but with all eight
    command parsers built at registration, as argparse builds subparsers by
    default."""
    with mock.patch.object(cli, "_CommandParser", _EagerCommandParser):
        return _build_parser()


# --- the term printer ---------------------------------------------------------


def term_to_text(t: PRTerm) -> str:
    """The text of ``t`` that ``parse_term`` reads back to ``t``."""
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
