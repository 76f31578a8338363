import json
import pickle
import re
from itertools import product
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st
from oracles import (
    check_invariant_pairwise,
    compile_rank,
    f_star_vec,
    run_commands,
    states,
    step,
)

from termbound import erdos, termlang
from termbound.bounds import SequenceFn, bound_g
from termbound.erdos import MAX_CHECK_PAIRS, _bitset, embed, height_of_tree, is_homogeneous
from termbound.errors import BudgetExceeded, NotHomogeneous, ParseError
from termbound.ordinals import MAX_NESTING, to_vector
from termbound.prcompile import ADD, MULT, PRED, SUB, compile_term, parse_term
from termbound.termlang import (
    Assign,
    Atom,
    ConstraintRelation,
    If,
    PhiSequence,
    Program,
    State,
    TransitionInvariant,
    While,
    check_invariant,
    const,
    initial_state,
    invariant_from_doc,
    invariant_to_doc,
    is_final,
    parse_atom,
    parse_rank,
    post,
    pre,
    program_from_text,
    program_to_text,
    rank_monus,
    run_trace,
    step_bound,
    term_str,
    Trace,
    trace_to_doc,
    PRE_LOC,
    POST_LOC,
    _TraceColumns,
)


def inc(x):
    return ("add", pre(x), const(1))


def dec(x):
    return ("monus", pre(x), const(1))


def checked(p, s0, inv, max_steps=10_000):
    return check_invariant(p, run_trace(p, s0, max_steps), inv)


def counting_program():
    # x counts up to y, then stops.
    return Program(
        ("x", "y"),
        (While("x", "y", (Assign("x", inc("x")),)),),
    )


class TestStep:
    def test_final_state_repeats(self):
        p = Program(("x",), ())
        s = initial_state(p)
        assert is_final(p, s)
        assert step(p, s) == s

    def test_assignment(self):
        p = Program(("x",), (Assign("x", inc("x")),))
        s = State(0, (2,))
        assert step(p, s) == State(1, (3,))

    def test_false_guard_exits_loop(self):
        p = counting_program()
        s = State(0, (2, 2))
        s2 = step(p, s)
        assert s2 == State(2, (2, 2))
        assert is_final(p, s2)

    def test_truncated_decrement(self):
        p = Program(("x",), (Assign("x", dec("x")),))
        assert step(p, State(0, (0,))).env == (0,)
        assert step(p, State(0, (3,))).env == (2,)

    def test_if_branches(self):
        p = Program(
            ("x", "y", "r"),
            (
                If(
                    "x",
                    "y",
                    (Assign("r", const(1)),),
                    (Assign("r", const(2)),),
                ),
            ),
        )
        t = run_trace(p, initial_state(p, {"x": 0, "y": 5}))
        assert t.envs[-1] == (0, 5, 1)
        t = run_trace(p, initial_state(p, {"x": 5, "y": 0}))
        assert t.envs[-1] == (5, 0, 2)

    def test_undeclared_variable_rejected(self):
        with pytest.raises(ValueError):
            Program(("x",), (Assign("x", pre("ghost")),))


class TestRunTrace:
    def test_final_initial_state(self):
        p = Program(("x",), ())
        t = run_trace(p, initial_state(p))
        assert len(t) == 1 and t.complete

    def test_single_assignment(self):
        p = Program(("x",), (Assign("x", const(5)),))
        t = run_trace(p, initial_state(p))
        assert len(t) == 2 and t.complete

    def test_budget_reported_not_raised(self):
        p = counting_program()
        t = run_trace(p, initial_state(p, {"y": 100}), max_steps=10)
        assert not t.complete
        assert len(t) == 11

    @pytest.mark.parametrize(
        "value", [2.5, True, -1, "3"], ids=["float", "bool", "neg", "str"]
    )
    def test_initial_state_takes_naturals_only(self, value):
        p = counting_program()
        with pytest.raises(ValueError, match="'x' must be a natural number"):
            initial_state(p, {"x": value})

    def test_loop_counts_up(self):
        p = counting_program()
        t = run_trace(p, initial_state(p, {"y": 3}))
        assert t.complete
        assert t.envs[-1] == (3, 3)

    @pytest.mark.parametrize("locations, envs", [([0, 1, 2], [(0, 0)]), ([0], [(0, 0)] * 2)])
    def test_trace_needs_one_env_per_location(self, locations, envs):
        # Refused when built, not an IndexError in check_invariant's pair loop.
        with pytest.raises(ValueError, match="one env per location"):
            Trace(locations, envs, True)

    def test_trace_needs_a_state(self):
        # Refused when built, not an IndexError in PhiSequence's first point.
        with pytest.raises(ValueError, match="at least one state"):
            Trace([], [], True)


NAMES = st.sampled_from(("x", "y", "z"))


def command_blocks(names=NAMES):
    """Nested blocks of commands over ``names``, by default x, y and z; any
    block may be empty."""
    assigns = st.builds(
        Assign,
        names,
        st.one_of(
            st.integers(0, 3).map(const), names.map(pre), names.map(inc), names.map(dec)
        ),
    )
    return st.recursive(
        st.lists(assigns, max_size=3).map(tuple),
        lambda blocks: st.lists(
            st.one_of(
                assigns,
                st.builds(While, names, names, blocks),
                st.builds(If, names, names, blocks, blocks),
            ),
            max_size=3,
        ).map(tuple),
        max_leaves=12,
    )


class TestProgramIsData:
    def test_four_forms_lower_to_source_and_value(self):
        p = Program(
            ("x", "y"),
            (Assign("x", const(5)), Assign("y", pre("x")), Assign("x", inc("y")),
             Assign("y", dec("y"))),
        )
        assert p._table == [
            ["assign", 0, -1, 5, 1], ["assign", 1, 0, 0, 2], ["assign", 0, 1, 1, 3],
            ["assign", 1, 1, -1, 4],
        ]
        trace = run_trace(p, initial_state(p))
        assert trace.envs == [(0, 0), (5, 0), (5, 5), (6, 5), (6, 4)]

    def test_pickle_round_trip_runs_the_same_trace(self):
        unit = compile_term(MULT)
        p = pickle.loads(pickle.dumps(unit.program))
        assert p == unit.program
        assert all(type(v) in (int, str) for entry in p._table for v in entry)
        inputs = dict(zip(unit.input_vars, (3, 2)))
        trace = run_trace(p, initial_state(p, inputs))
        assert trace.complete
        assert trace == run_trace(unit.program, initial_state(unit.program, inputs))


class TestRunTraceAgainstWalk:
    """The lowered table against a walk of the command tree itself."""

    @settings(max_examples=300, deadline=None)
    @given(command_blocks(), st.tuples(*[st.integers(0, 4)] * 3), st.integers(0, 60))
    @example((), (3, 0, 0), 0)  # an empty body: the initial state is final
    @example((While("x", "y", ()),), (0, 1, 0), 5)  # cut off in a loop with an empty body
    def test_same_states(self, body, values, budget):
        # Budgets of 0-60 steps cut many runs short; a run is complete when
        # one more step of budget gives the walk no further state.
        p = Program(("x", "y", "z"), body)
        s0 = initial_state(p, dict(zip(p.variables, values)))
        trace = run_trace(p, s0, budget)
        walked = run_commands(p, s0, budget)
        assert states(trace) == walked
        assert (trace.locations, trace.envs) == (
            [s.location for s in walked], [s.env for s in walked]
        )
        assert trace.complete == (len(run_commands(p, s0, budget + 1)) == len(walked))
        for s, s2 in zip(states(trace), states(trace)[1:]):
            assert step(p, s) == s2
        if trace.complete:
            assert step(p, states(trace)[-1]) == states(trace)[-1]

    @pytest.mark.parametrize("location", [-1, 2, 3, 50])
    def test_initial_state_already_final(self, location):
        # Location 2 is the final point; any location outside the table is final too.
        p = Program(("x",), (Assign("x", inc("x")), Assign("x", inc("x"))))
        s0 = State(location, (7,))
        for budget in (0, 1, 10):
            trace = run_trace(p, s0, budget)
            assert states(trace) == [s0] and trace.complete
        assert step(p, s0) == s0


def line_relation(n):
    return ConstraintRelation(
        "line",
        atoms=(Atom(PRE_LOC, "<", POST_LOC),),
        rank=rank_monus(const(n), PRE_LOC),
    )


def loop_relation():
    return ConstraintRelation(
        "loop",
        atoms=(
            Atom(pre("x"), "<", post("x")),
            Atom(pre("x"), "<", pre("y")),
            Atom(post("y"), "=", pre("y")),
        ),
        rank=rank_monus(pre("y"), pre("x")),
    )


class TestCheckInvariant:
    def test_no_pairs_empty_relation(self):
        p = Program(("x",), ())
        inv = TransitionInvariant(
            (ConstraintRelation("empty", (Atom(const(0), "<", const(0)),), const(0)),)
        )
        report = checked(p, initial_state(p), inv)
        assert report.ok and report.pairs_checked == 0

    def test_counting_loop_covered(self):
        p = counting_program()
        inv = TransitionInvariant((line_relation(2), loop_relation()))
        report = checked(p, initial_state(p, {"y": 4}), inv)
        assert report.ok
        assert report.pairs_checked == len(run_trace(p, initial_state(p, {"y": 4}))) * (
            len(run_trace(p, initial_state(p, {"y": 4}))) - 1
        ) // 2

    def test_uncovered_pair_reported(self):
        p = counting_program()
        inv = TransitionInvariant((loop_relation(),))
        report = checked(p, initial_state(p, {"y": 2}), inv)
        assert not report.ok
        assert report.uncovered_total > 0

    def test_corrupt_rank_reported(self):
        p = counting_program()
        broken = ConstraintRelation(
            "loop", loop_relation().atoms, const(0)
        )
        inv = TransitionInvariant((line_relation(2), broken))
        report = checked(p, initial_state(p, {"y": 3}), inv)
        assert report.rank_violation_total > 0
        assert any(name == "loop" for _, _, name in report.rank_violations)


class TestPhi:
    def make(self, y):
        p = counting_program()
        inv = TransitionInvariant((line_relation(2), loop_relation()))
        return p, initial_state(p, {"y": y}), inv

    def test_singleton_prefix(self):
        p, s0, inv = self.make(2)
        phi = PhiSequence(checked(p, s0, inv))
        assert phi.sequence()(0) == f_star_vec([phi.points[0]], 2)

    def test_lexicographically_decreasing_until_final(self):
        p, s0, inv = self.make(3)
        seq = PhiSequence(checked(p, s0, inv)).sequence()
        for x in range(len(seq.rows) - 1):
            assert seq(x + 1) < seq(x)

    def test_frozen_after_final(self):
        p, s0, inv = self.make(2)
        seq = PhiSequence(checked(p, s0, inv)).sequence()
        final = len(seq.rows) - 1
        assert seq(final + 7) == seq(final)

    def test_invalid_invariant_detected(self):
        p = counting_program()
        bad = TransitionInvariant(
            (ConstraintRelation("noop", (), const(7)),)
        )
        with pytest.raises(NotHomogeneous):
            PhiSequence(checked(p, initial_state(p, {"y": 2}), bad))

    def test_nonterminating_budget(self):
        p = Program(("x", "y"), (While("x", "y", (Assign("x", dec("x")),)),))
        inv = TransitionInvariant((line_relation(2),))
        with pytest.raises(BudgetExceeded):
            PhiSequence(checked(p, initial_state(p, {"y": 5}), inv, max_steps=50))

    def test_rank_tuples_checked_before_any_insert(self):
        # A hand-built trace may hold values no run reaches. The check passes
        # on it, since x falls, but its rank tuples are not points.
        p = Program(("x",), ())
        trace = Trace([0, 0], [(-1,), (-2,)], True)
        falls = ConstraintRelation("falls", (Atom(post("x"), "<", pre("x")),), pre("x"))
        report = check_invariant(p, trace, TransitionInvariant((falls,)))
        assert report.ok and report.rank_tuples == [(-1,), (-2,)]
        with mock.patch.object(termlang.ErdosTree, "insert") as insert:
            with pytest.raises(ValueError, match="^the rank tuples are not all naturals$"):
                PhiSequence(report)
        assert insert.call_count == 0


# exp(y, x) = x^y
EXP = parse_term(
    "(rec (comp s (z 1)) (comp (rec z (comp (rec (p 1 1) (comp s (p 2 3))) (p 2 3) (p 3 3)))"
    " (p 2 3) (p 3 3)))"
)

SMALL_COMPILED = (
    [("add", args) for args in product(range(4), range(3))]
    + [("sub", args) for args in product(range(4), repeat=2)]
    + [("mult", args) for args in product(range(3), repeat=2)]
)


class TestPhiAgainstRebuild:
    """The incremental measure against re-embedding every prefix."""

    @pytest.mark.parametrize("name,args", SMALL_COMPILED)
    def test_vectors_and_step_bound(self, name, args):
        unit = compile_term({"add": ADD, "sub": SUB, "mult": MULT}[name])
        s0 = initial_state(unit.program, dict(zip(unit.input_vars, args)))
        report = checked(unit.program, s0, unit.invariant)
        seq = PhiSequence(report)
        k = unit.invariant.k
        rebuilt = [
            to_vector(height_of_tree(embed(seq.points[: n + 1], k)), k)
            for n in range(len(seq.points))
        ]
        # Every row replayed in order, each row read by index, and the last
        # row, which comes from the free-slot counts.
        assert list(seq.rows) == rebuilt
        assert [seq.rows[m] for m in range(len(rebuilt))] == rebuilt
        assert (len(seq.rows), seq.rows[-1]) == (len(rebuilt), rebuilt[-1])
        text = program_to_text(unit.program)
        assert program_from_text(text) == unit.program
        assert step_bound(report) == bound_g(
            SequenceFn.from_rows(rebuilt), 0
        )


@st.composite
def mutated_checks(draw):
    """A compiled add/sub/mult trace and its invariant after at most one change.

    The change drops one relation, removes one atom of one relation, or sets
    one relation's rank to a constant, to a leaf b (a variable or ``loc``), to
    ``c - b`` with c from b's maximum on the trace - 2 to + 2, or to ``v - b``
    for a variable v: the ranks that the check reads off b's own masks when
    ``c`` or ``v`` is constant over the trace and at least b's maximum, and
    the ones beside them where the monus truncates.
    """
    name = draw(st.sampled_from(["add", "sub", "mult"]))
    unit = compile_term({"add": ADD, "sub": SUB, "mult": MULT}[name])
    top = 2 if name == "mult" else 4
    args = draw(st.tuples(*[st.integers(0, top)] * len(unit.input_vars)))
    s0 = initial_state(unit.program, dict(zip(unit.input_vars, args)))
    trace = run_trace(unit.program, s0)
    relations = list(unit.invariant.relations)
    idx = draw(st.integers(0, len(relations) - 1))
    rel = relations[idx]
    change = draw(st.sampled_from(["none", "rank", "drop", "atom"]))
    if change == "rank":
        variables = [pre(v) for v in unit.program.variables]
        leaf = draw(st.sampled_from([*variables, PRE_LOC]))
        leaf_max = max(map(compile_rank(ConstraintRelation("b", (), leaf), unit.program),
                           states(trace)))
        rank = draw(
            st.builds(const, st.integers(0, 3))
            | st.just(leaf)
            | st.builds(const, st.integers(max(0, leaf_max - 2), leaf_max + 2)).map(
                lambda c: rank_monus(c, leaf)
            )
            | st.sampled_from(variables).map(lambda v: rank_monus(v, leaf))
        )
        relations[idx] = ConstraintRelation(
            rel.name, rel.atoms, rank, rel.pre_locations, rel.post_locations
        )
    elif change == "drop":
        del relations[idx]
    elif change == "atom" and rel.atoms:
        gone = draw(st.integers(0, len(rel.atoms) - 1))
        relations[idx] = ConstraintRelation(
            rel.name, rel.atoms[:gone] + rel.atoms[gone + 1 :], rel.rank,
            rel.pre_locations, rel.post_locations,
        )
    return unit.program, trace, TransitionInvariant(tuple(relations))


class TestCheckIsTheDescentProof:
    """A passing check is the homogeneity gate of the measure and the bound."""

    @settings(max_examples=150, deadline=None)
    @given(mutated_checks())
    def test_passing_check_implies_homogeneous_rank_tuples(self, case):
        p, trace, inv = case
        report = check_invariant(p, trace, inv)
        ranks = [compile_rank(r, p) for r in inv.relations]
        assert report.rank_tuples == [
            tuple(rank(s) for rank in ranks) for s in states(trace)
        ]
        if report.ok:
            assert is_homogeneous(report.rank_tuples, inv.k)
            # PhiSequence builds its SequenceFn without from_rows, on its
            # replayed rows as they are; from_rows accepts every row.
            phi = PhiSequence(report)
            assert phi.sequence().rows is phi.rows
            rows = list(phi.rows)
            assert SequenceFn.from_rows(rows) == SequenceFn(rows)


@st.composite
def located_checks(draw):
    """A ``mutated_checks`` case, maybe with location sets on one relation."""
    p, trace, inv = draw(mutated_checks())
    relations = list(inv.relations)
    if draw(st.booleans()):
        idx = draw(st.integers(0, len(relations) - 1))
        rel = relations[idx]
        points = st.frozensets(st.integers(0, p.n_points), max_size=4)
        relations[idx] = ConstraintRelation(
            rel.name, rel.atoms, rel.rank,
            draw(st.none() | points), draw(st.none() | points),
        )
    return p, trace, TransitionInvariant(tuple(relations))


def add_with_line_rank(rank):
    """add(2, 1)'s program and trace (locations 0-19, y = 2), and its invariant
    with the ``line`` relation ranked by ``rank``."""
    unit = compile_term(ADD)
    s0 = initial_state(unit.program, dict(zip(unit.input_vars, (2, 1))))
    relations = tuple(
        ConstraintRelation(r.name, r.atoms, rank, r.pre_locations, r.post_locations)
        if r.name == "line" else r
        for r in unit.invariant.relations
    )
    return unit.program, run_trace(unit.program, s0), TransitionInvariant(relations)


def one_column_two_keys():
    """The counting loop to y = 3 under ``x < y'`` and ``y < y'``: both atoms
    compare y's later values, one with x, one with y."""
    p = counting_program()
    inv = TransitionInvariant((
        ConstraintRelation("a", (Atom(pre("x"), "<", post("y")),), parse_rank("y - x")),
        ConstraintRelation("b", (Atom(pre("y"), "<", post("y")),), const(0)),
    ))
    return p, run_trace(p, initial_state(p, {"y": 3})), inv


class TestCheckAgainstOracle:
    """The bitset join against the per-pair check."""

    @settings(max_examples=200, deadline=None)
    @given(located_checks())
    # A monus of a trace constant below loc's maximum (19) truncates to 0 on
    # the last locations, so it does not order the states as loc does; one
    # at loc's maximum does.
    @example(add_with_line_rank(rank_monus(const(18), PRE_LOC)))
    @example(add_with_line_rank(rank_monus(pre("y"), PRE_LOC)))
    @example(add_with_line_rank(rank_monus(const(19), PRE_LOC)))
    # 21 - loc varies, so 21 - loc - y does not order the states as y does,
    # though it never truncates.
    @example(add_with_line_rank(parse_rank("19 - loc + 2 - y")))
    # Two mask lists on y's column, keyed by x and by y.
    @example(one_column_two_keys())
    def test_same_report(self, case):
        p, trace, inv = case
        fast = check_invariant(p, trace, inv)
        slow = check_invariant_pairwise(p, trace, inv)
        assert fast.to_doc() == slow.to_doc()
        assert fast.rank_tuples == slow.rank_tuples

    def test_listing_order_across_relations(self):
        p = counting_program()
        trace = run_trace(p, initial_state(p, {"y": 3}))
        n = len(trace)
        inv = TransitionInvariant(
            (ConstraintRelation("a", (), const(1)), ConstraintRelation("b", (), const(1)))
        )
        report = check_invariant(p, trace, inv)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        assert report.rank_violation_total == 2 * len(pairs) > report.MAX_LISTED
        assert report.rank_violations == [
            (i, j, name) for i, j in pairs for name in ("a", "b")
        ][: report.MAX_LISTED]
        assert report.uncovered == pairs[: report.MAX_LISTED]
        assert report.to_doc() == check_invariant_pairwise(p, trace, inv).to_doc()

    def test_no_listing_work_once_the_list_is_full(self):
        # Nothing is covered, so the first state alone fills the listing.
        p = counting_program()
        trace = run_trace(p, initial_state(p, {"y": 20}))
        n = len(trace)
        never = ConstraintRelation("never", (Atom(const(0), "<", const(0)),), const(0))
        with mock.patch.object(erdos, "_low_bits", wraps=erdos._low_bits) as low_bits:
            report = check_invariant(p, trace, TransitionInvariant((never,)))
        assert low_bits.call_count == 1
        assert report.uncovered == [(0, j) for j in range(1, report.MAX_LISTED + 1)]
        assert report.uncovered_total == n * (n - 1) // 2

    def test_one_join_per_check(self):
        # The check builds one plan per relation and hands them all to one join.
        unit = compile_term(ADD)
        s0 = initial_state(unit.program, dict(zip(unit.input_vars, (13, 1))))
        trace = run_trace(unit.program, s0)
        with mock.patch.object(termlang, "cover_pairs", wraps=termlang.cover_pairs) as join:
            report = check_invariant(unit.program, trace, unit.invariant)
        assert report.ok and join.call_count == 1
        n, plans, limit = join.call_args.args
        assert (n, len(plans), limit) == (len(trace), unit.invariant.k, report.MAX_LISTED)

    def test_each_column_and_mask_list_once(self):
        # mult(8, 1) under its emitted invariant. Its atoms across relations
        # read 7 leaves in 9 (column, key, op) triples, and four of its five
        # ranks order the states as one of those leaves does: 43 - loc,
        # y - z, 4 - c1_a and 3 - c1_c2_c1_a (y is constant on the trace).
        # c1_c2_y varies, so c1_c2_y - c1_c2_z gets a column of its own.
        unit = compile_term(MULT)
        p = unit.program
        trace = run_trace(p, initial_state(p, dict(zip(unit.input_vars, (8, 1)))))
        column = erdos._Column
        with mock.patch.object(
            column, "__init__", autospec=True, side_effect=column.__init__
        ) as init, mock.patch.object(
            column, "masks", autospec=True, side_effect=column.masks
        ) as masks:
            report = check_invariant(p, trace, unit.invariant)
        assert report.ok and (len(trace), unit.invariant.k) == (626, 5)
        cols = _TraceColumns(p, trace)
        leaves = [PRE_LOC, *map(pre, ("y", "z", "c1_a", "c1_c2_z", "c1_c2_y", "c1_c2_c1_a"))]
        own = list(cols.term_values(parse_rank("c1_c2_y - c1_c2_z")))
        assert sorted(call.args[1] for call in init.call_args_list) == sorted(
            [*map(cols.values, leaves), own]
        )
        triples = {(id(col), tuple(keys), op) for (col, keys, op), _ in masks.call_args_list}
        assert len(triples) == masks.call_count == 9 + 1

    def test_join_never_stops_early(self):
        # The report's totals are exact, so the check never asks the join to
        # stop once its listings are full, on a passing or a failing trace.
        unit = compile_term(ADD)
        s0 = initial_state(unit.program, dict(zip(unit.input_vars, (13, 1))))
        trace = run_trace(unit.program, s0)
        never = ConstraintRelation("never", (Atom(const(0), "<", const(0)),), const(0))
        with mock.patch.object(termlang, "cover_pairs", wraps=termlang.cover_pairs) as join:
            assert check_invariant(unit.program, trace, unit.invariant).ok
            report = check_invariant(unit.program, trace, TransitionInvariant((never,)))
        assert report.uncovered_total == len(trace) * (len(trace) - 1) // 2
        assert [call.kwargs for call in join.call_args_list] == [{}, {}]

    @pytest.mark.parametrize(
        "name,args,change,relation",
        [
            ("sub", (7, 8), "drop", "cross_round"),
            ("mult", (5, 1), "loc", "line"),
            *[("add", (20, 3), "drop", r) for r in ("line", "cross_round", "c1_phase")],
        ],
    )
    def test_same_report_across_machine_words(self, name, args, change, relation):
        # Traces of 281-306 states: every bitset spans several 64-bit words.
        # All but add without c1_phase (whose pairs ``line`` also covers)
        # fail, so uncovered pairs or rank violations are listed.
        unit = compile_term({"add": ADD, "sub": SUB, "mult": MULT}[name])
        relations = list(unit.invariant.relations)
        assert relation in [r.name for r in relations]
        if change == "drop":
            relations = [r for r in relations if r.name != relation]
        else:  # the rank ``loc`` rises on every pair of a location-progress relation
            relations = [
                ConstraintRelation(r.name, r.atoms, PRE_LOC, r.pre_locations, r.post_locations)
                if r.name == relation else r
                for r in relations
            ]
        inv = TransitionInvariant(tuple(relations))
        s0 = initial_state(unit.program, dict(zip(unit.input_vars, args)))
        trace = run_trace(unit.program, s0)
        assert len(trace) > 4 * 64
        fast = check_invariant(unit.program, trace, inv)
        slow = check_invariant_pairwise(unit.program, trace, inv)
        assert fast.to_doc() == slow.to_doc()
        assert fast.rank_tuples == slow.rank_tuples

    def test_pair_budget(self):
        p = counting_program()
        n = 14_143
        assert n * (n - 1) // 2 > MAX_CHECK_PAIRS
        inv = TransitionInvariant((line_relation(2),))
        with pytest.raises(BudgetExceeded, match="100005153 pairs"):
            check_invariant(p, Trace([0] * n, [(0, 0)] * n, False), inv)
        report = check_invariant(p, Trace([0] * (n - 1), [(0, 0)] * (n - 1), False), inv)
        assert report.pairs_checked <= MAX_CHECK_PAIRS


@st.composite
def ranked_traces(draw):
    """A compiled add/sub/mult trace and a rank term over its variables.

    The rank is an ``add``/``monus`` tree of variables, ``loc`` and
    constants up to 60, above most values of the trace, so ``monus``
    truncates at 0 on some states and not on others.
    """
    name = draw(st.sampled_from(["add", "sub", "mult"]))
    unit = compile_term({"add": ADD, "sub": SUB, "mult": MULT}[name])
    args = draw(st.tuples(*[st.integers(0, 3)] * len(unit.input_vars)))
    leaves = st.sampled_from([pre(v) for v in unit.program.variables] + [PRE_LOC]) | st.builds(
        const, st.integers(0, 60)
    )
    rank = draw(
        st.recursive(
            leaves, lambda t: st.tuples(st.sampled_from(["add", "monus"]), t, t), max_leaves=8
        )
    )
    s0 = initial_state(unit.program, dict(zip(unit.input_vars, args)))
    return unit.program, run_trace(unit.program, s0), rank


class TestColumnHelpers:
    """The check's C-level passes against their per-element definitions."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.booleans(), max_size=300))
    def test_bitset(self, flags):
        # A plan that holds wherever its post mask allows, with no rank
        # violation, leaves uncovered exactly the later positions whose flag
        # is false: ``_bitset`` lays flags out as ``cover_pairs`` reads them.
        n = len(flags)
        everywhere = _bitset([True] * n)
        plan = ("r", [True] * n, _bitset(flags), [], [everywhere] * n)
        uncovered, violations, _, _ = erdos.cover_pairs(n, [plan], n * n)
        assert violations == []
        assert uncovered == [(i, j) for i in range(n) for j in range(i + 1, n) if not flags[j]]

    def test_bitset_of_nothing(self):
        assert _bitset([]) == 0

    @settings(max_examples=200, deadline=None)
    @given(command_blocks(), st.tuples(*[st.integers(0, 4)] * 3), st.integers(0, 40))
    def test_leaf_columns_are_the_states_values(self, body, values, budget):
        p = Program(("x", "y", "z"), body)
        trace = run_trace(p, initial_state(p, dict(zip(p.variables, values))), budget)
        trace_states = states(trace)
        cols = _TraceColumns(p, trace)
        for i, name in enumerate(p.variables):
            assert cols.values(pre(name)) == [s.env[i] for s in trace_states]
            assert cols.values(post(name)) == [s.env[i] for s in trace_states]
        assert cols.values(PRE_LOC) == cols.values(POST_LOC) == [s.location for s in trace_states]

    @settings(max_examples=200, deadline=None)
    @given(ranked_traces())
    def test_rank_columns_are_compile_rank(self, case):
        p, trace, rank = case
        per_state = list(map(compile_rank(ConstraintRelation("r", (), rank), p), states(trace)))
        assert list(_TraceColumns(p, trace).term_values(rank)) == per_state
        inv = TransitionInvariant((ConstraintRelation("r", (), rank),))
        assert check_invariant(p, trace, inv).rank_tuples == [(v,) for v in per_state]

    def test_monus_truncates_before_the_next_term(self):
        p = counting_program()
        trace = run_trace(p, initial_state(p, {"y": 2}))
        cols = _TraceColumns(p, trace)
        # x - 40 truncates to 0 before 3 is added: 3 - y = 1, not x - 39.
        assert list(cols.term_values(parse_rank("x - 40 + 3 - y"))) == [1] * len(trace)
        assert list(cols.term_values(parse_rank("40 - x - 38"))) == [
            2 - s.env[0] for s in states(trace)
        ]


class TestAtomSides:
    @pytest.mark.parametrize(
        "lhs,rhs",
        [
            (("add", pre("x"), const(1)), post("x")),
            (pre("x"), rank_monus(post("x"), const(1))),
        ],
        ids=["add", "monus"],
    )
    def test_rejects_compound_side(self, lhs, rhs):
        with pytest.raises(ValueError, match="not a leaf"):
            Atom(lhs, "<", rhs)

    def test_rejects_unknown_operator(self):
        with pytest.raises(ValueError, match="operator"):
            Atom(pre("x"), "<=", post("x"))

    @pytest.mark.parametrize(
        "side",
        [
            ("const", "a"), ("pre",), const(-1), ("const", True), ("pre", 3), ("post", None),
            ("preloc", 0), ("postloc", "x"), ("loc",), ["pre", "x"], (), "x",
        ],
        ids=["const-str", "pre-no-name", "negative", "bool", "pre-int", "post-none",
             "preloc-arg", "postloc-arg", "loc", "list", "empty", "not-a-tuple"],
    )
    def test_rejects_malformed_leaf(self, side):
        # A leaf is the one rule ranks use too: a const holds a natural int, a
        # name is a str, and the locations are the exact tokens.
        for lhs, rhs in ((side, pre("x")), (const(1), side)):
            with pytest.raises(ValueError) as exc:
                Atom(lhs, "<", rhs)
            assert str(exc.value) == f"atom side {side!r} is not a leaf term"

    def test_accepts_every_leaf(self):
        leaves = [const(0), const(7), pre("x"), post("x"), PRE_LOC, POST_LOC]
        for lhs, rhs in product(leaves, repeat=2):
            assert str(Atom(lhs, "=", rhs)) == f"{term_str(lhs)} = {term_str(rhs)}"


class TestRankTerms:
    """A relation's rank is a natural-valued term of the pre state."""

    @pytest.mark.parametrize(
        "rank",
        [
            const(-1), ("const", True), ("const", 1.0), post("x"), POST_LOC,
            ("times", pre("x"), const(2)), ("add", pre("x")), ("add", pre("x"), const(-1000)),
            "x", ("const", "a"), ("pre",), ("preloc", 0),
        ],
        ids=["negative", "bool", "float", "post", "postloc", "unknown", "short", "nested",
             "not-a-tuple", "const-str", "pre-no-name", "preloc-arg"],
    )
    def test_refused(self, rank):
        message = f"^rank {re.escape(repr(rank))} is not a natural-valued term of the pre state$"
        with pytest.raises(ValueError, match=message):
            ConstraintRelation("r", (), rank)

    def test_negative_offset_on_compiled_add_refused(self):
        # Such a rank would pass the check on add(3, 2) with tuples like
        # (-981, 3, 3): a rank into the integers proves nothing.
        line = compile_term(ADD).invariant.relations[0]
        assert line.name == "line"
        with pytest.raises(ValueError, match="not a natural-valued term"):
            ConstraintRelation("line", line.atoms, ("add", line.rank, const(-1000)))

    @pytest.mark.parametrize(
        "term", [ADD, SUB, MULT, PRED, EXP], ids=["add", "sub", "mult", "pred", "exp"]
    )
    def test_compiled_ranks_accepted(self, term):
        for r in compile_term(term).invariant.relations:
            fields = r.name, r.atoms, r.rank, r.pre_locations, r.post_locations
            assert ConstraintRelation(*fields) == r

    @pytest.mark.parametrize("text", ["7", "x", "loc", "y - x", "y - x + y - x + 1 - loc", "0 - 5"])
    def test_parsed_ranks_accepted(self, text):
        assert ConstraintRelation("r", (), parse_rank(text)).rank == parse_rank(text)


class TestStepBound:
    def test_measure_rows_replayed_once(self):
        # Every bound_g evaluation returns more than its argument, so it reads
        # the rows in non-decreasing order: one cursor replays each row once,
        # and past row k - 1 every read is at or past the last row, which the
        # free-slot counts give. mult(12, 12): 12,186 states, k = 5.
        unit = compile_term(MULT)
        s0 = initial_state(unit.program, dict(zip(unit.input_vars, (12, 12))))
        report = checked(unit.program, s0, unit.invariant, max_steps=20_000)
        replays, built, reads = [], [], []
        replay, read = erdos.MeasureRows.__iter__, erdos.MeasureRows.__getitem__

        def counted_replay(rows):
            replays.append(rows)
            for row in replay(rows):
                built.append(row)
                yield row

        def recorded_read(rows, m):
            reads.append(m)
            return read(rows, m)

        with (
            mock.patch.object(erdos.MeasureRows, "__iter__", counted_replay),
            mock.patch.object(erdos.MeasureRows, "__getitem__", recorded_read),
        ):
            bound = step_bound(report)
        assert (len(report.rank_tuples), unit.invariant.k) == (12186, 5)
        assert len(replays) == 1  # made with the rows, never restarted
        assert len(built) <= unit.invariant.k + 1
        forward = [m for m in reads if m >= 0]
        assert forward == sorted(forward)
        assert bound == bound_g(SequenceFn.from_rows(list(PhiSequence(report).rows)), 0)

    def test_final_initial_state(self):
        p = Program(("x",), ())
        inv = TransitionInvariant(
            (ConstraintRelation("empty", (Atom(const(0), "<", const(0)),), const(0)),)
        )
        bound = step_bound(checked(p, initial_state(p), inv))
        assert bound >= 0

    def test_counting_loop_bounded(self):
        p = counting_program()
        inv = TransitionInvariant((line_relation(2), loop_relation()))
        for y in (0, 1, 3):
            s0 = initial_state(p, {"y": y})
            bound = step_bound(checked(p, s0, inv))
            assert run_trace(p, s0).steps <= bound


# Identifiers, the text format's own words among them; then as declared names,
# also ``loc``, names that are not identifiers and any short text on one line.
IDENTIFIERS = st.sampled_from(["x", "y", "while", "if", "else", "vars", "\u00e9"]) | st.text(
    min_size=1, max_size=3
).filter(str.isidentifier)
DECLARED_NAMES = (
    IDENTIFIERS
    | st.sampled_from(["loc", "x y", "1", "x'", ""])
    | st.text(st.characters(blacklist_categories=("Cc", "Zl", "Zp")), max_size=3)
)


class TestProgramText:
    def test_round_trip(self):
        p = Program(
            ("x", "y", "r"),
            (
                Assign("r", const(0)),
                While(
                    "x",
                    "y",
                    (
                        Assign("x", inc("x")),
                        If("r", "x", (Assign("r", inc("r")),), (Assign("r", dec("r")),)),
                    ),
                ),
                Assign("y", pre("r")),
            ),
        )
        text = program_to_text(p)
        assert program_from_text(text) == p
        assert program_to_text(program_from_text(text)) == text

    def test_loc_is_not_a_variable_name(self):
        # Atoms and ranks read ``loc`` as the location, so a variable of
        # that name could never be read.
        with pytest.raises(ValueError, match="'loc' names the location"):
            Program(("loc", "x"), (Assign("loc", pre("x")),))
        with pytest.raises(ParseError, match="'loc' names the location"):
            program_from_text("vars loc x\n0: loc := x\n")

    @pytest.mark.parametrize("name", ["x y", "1", "x'", ""])
    def test_declared_names_are_identifiers(self, name):
        # The text format could not read such a name back: ``vars x y``
        # declares two variables.
        with pytest.raises(ValueError) as exc:
            Program((name,), ())
        assert str(exc.value) == f"declared name {name!r} is not an identifier"

    @pytest.mark.parametrize(
        "names,message",
        [
            ((1,), "declared name 1 is not an identifier"),
            (("x", None), "declared name None is not an identifier"),
            ((b"x",), "declared name b'x' is not an identifier"),
            # Per name: identifier, then ``loc``; then duplicates.
            (("loc", 1), "'loc' names the location and cannot be declared"),
            ((1, "loc"), "declared name 1 is not an identifier"),
            (("x", "x", [1]), "declared name [1] is not an identifier"),
        ],
        ids=["int", "none-after-x", "bytes", "loc-first", "int-first", "list-after-duplicate"],
    )
    def test_declared_names_are_strings(self, names, message):
        # A name that is not a str is refused like any other non-identifier,
        # not with an AttributeError from ``isidentifier``.
        with pytest.raises(ValueError) as exc:
            Program(names, ())
        assert str(exc.value) == message

    @settings(max_examples=300, deadline=None)
    @given(st.lists(DECLARED_NAMES, max_size=4))
    @example(["x y"])
    @example(["loc", "loc"])
    @example(["x", "1", "x"])
    def test_text_refuses_the_names_program_refuses(self, names):
        text = " ".join(["vars", *names]) + "\n"
        declared = text.split()[1:]
        try:
            expected = Program(declared, ())
        except ValueError as exc:
            with pytest.raises(ParseError) as refused:
                program_from_text(text)
            assert str(refused.value) == str(exc)
        else:
            assert program_from_text(text) == expected

    def test_keywords_are_variable_names(self):
        # No condition starts with ":=", so "if := 0" is an assignment.
        p = Program(
            ("if", "while"),
            (Assign("if", const(0)), While("if", "while", (Assign("while", pre("if")),))),
        )
        text = program_to_text(p)
        assert text == "vars if while\n0: if := 0\n1: while if < while\n2:   while := if\n"
        assert program_from_text(text) == p

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_every_program_reads_back(self, data):
        names = data.draw(st.lists(IDENTIFIERS, min_size=1, max_size=4, unique=True))
        if "loc" in names:
            return  # refused, by the text format too (the test above)
        p = Program(names, data.draw(command_blocks(st.sampled_from(names))))
        text = program_to_text(p)
        assert program_from_text(text) == p

    @pytest.mark.parametrize(
        "expr",
        [
            ("add", pre("x"), pre("y")),
            ("monus", const(3), pre("x")),
            ("add", pre("x"), const(2)),
            PRE_LOC,
            post("x"),
            const(-1),
            ("add", pre("x"), ("const", True)),
            ("monus", pre("x"), ("const", 1.0)),
            ("add", ["pre", "x"], const(1)),
            ["pre", "x"],
            ("pre",),
            ("add", const(1), pre("x")),
        ],
        ids=["x + y", "3 - x", "x + 2", "loc", "x'", "-1", "x + True", "x - 1.0",
             "list-operand", "list", "pre-no-name", "1 + x"],
    )
    def test_program_rejects_other_right_sides(self, expr):
        with pytest.raises(ValueError, match="not a constant, a copy"):
            Program(("x", "y"), (Assign("x", expr),))

    @pytest.mark.parametrize(
        "cmd,message",
        [
            (Assign("z", ("add", pre("w"), const(2))),
             "assignment to 'z': ('add', ('pre', 'w'), ('const', 2)) is not a constant, "
             "a copy, an increment or a decrement"),
            (Assign("z", rank_monus(pre("w"), const(1))), "undeclared variable 'w'"),
            (Assign("z", pre("x")), "undeclared variable 'z'"),
        ],
        ids=["form", "operand", "target"],
    )
    def test_assignment_refusals_in_order(self, cmd, message):
        # The right side's form is checked first, then its operand, then the target.
        with pytest.raises(ValueError) as exc:
            Program(("x", "y"), (cmd,))
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "rhs,printed",
        [("x+ 1", "x + 1"), ("y - 1", "y - 1"), ("007", "7"), ("y", "y")],
    )
    def test_assignment_spellings_accepted(self, rhs, printed):
        p = program_from_text(f"vars x y\n0: x := {rhs}\n")
        assert program_to_text(p) == f"vars x y\n0: x := {printed}\n"

    @pytest.mark.parametrize(
        "rhs,error,message",
        [
            ("x +1", ParseError, "bad expression 'x +1'"),
            ("x + y", ParseError, "bad expression 'x + y'"),
            ("x'", ParseError, "bad expression \"x'\""),
            ("5 + 1", ParseError, "bad expression '5 + 1'"),
            ("+ 1", ParseError, "bad expression '+ 1'"),
            ("loc", ParseError, "undeclared variable 'loc'"),
        ],
    )
    def test_assignment_spellings_rejected(self, rhs, error, message):
        with pytest.raises(error) as exc:
            program_from_text(f"vars x y\n0: x := {rhs}\n")
        assert type(exc.value) is error and str(exc.value) == message

    def test_text_shape(self):
        p = counting_program()
        assert program_to_text(p) == "vars x y\n0: while x < y\n1:   x := x + 1\n"

    def test_bad_location_rejected(self):
        with pytest.raises(ParseError):
            program_from_text("vars x\n1: x := 0\n")

    def test_if_requires_else(self):
        with pytest.raises(ParseError):
            program_from_text("vars x y\n0: if x < y\n1:   x := 1\n")

    def test_nesting_cap(self):
        def nested(levels):
            lines = [f"{i}: {'  ' * i}while x < y" for i in range(levels)]
            return "vars x y\n" + "\n".join(lines) + f"\n{levels}: {'  ' * levels}x := 1\n"

        text = nested(MAX_NESTING)
        assert program_to_text(program_from_text(text)) == text
        with pytest.raises(ParseError, match="nested too deeply"):
            program_from_text(nested(MAX_NESTING + 1))

    @pytest.mark.parametrize(
        "text", ["vars x\n0: x := ٣\n", "vars x\n0: x := ²\n", "vars x\n٠: x := 1\n"]
    )
    def test_rejects_non_ascii_digits(self, text):
        with pytest.raises(ParseError):
            program_from_text(text)

    @pytest.mark.parametrize(
        "text",
        [
            # One space short: the assignment would leave the loop.
            "vars x y\n0: while x < y\n1:  x := x + 1\n",
            "vars x y\n0: while x < y\n1:    x := x + 1\n",
            "vars x y\n0: if x < y\n1:   x := 1\n else\n2:   x := 0\n",
            "vars x y\n0: while x < y\n1: \tx := x + 1\n",
            "vars x y\n0: while x < y\n\t1:   x := x + 1\n",
            "vars x y\n0: while x < y\n1: \u00a0 x := x + 1\n",
            "varsfoo x\n0: x := 1\n",
            "vars x 1 x'\n0: x := 1\n",
        ],
        ids=["odd-short", "odd-long", "odd-else", "tab-body", "tab-line", "nbsp", "header", "name"],
    )
    def test_rejects_malformed_indentation_and_header(self, text):
        with pytest.raises(ParseError):
            program_from_text(text)


class TestInvariantJson:
    def test_round_trip(self):
        inv = TransitionInvariant(
            (
                line_relation(7),
                loop_relation(),
                ConstraintRelation(
                    "scoped",
                    (Atom(pre("x"), "=", const(0)),),
                    parse_rank("y - x + 1"),
                    pre_locations=frozenset({0, 1}),
                    post_locations=frozenset({2}),
                ),
            )
        )
        doc = invariant_to_doc(inv)
        assert invariant_from_doc(json.loads(json.dumps(doc))) == inv
        assert invariant_to_doc(invariant_from_doc(doc)) == doc

    def test_atom_round_trip(self):
        for text in ("x < y'", "loc < loc'", "a = 2", "0 < 0", "y' = y"):
            assert str(parse_atom(text)) == text

    def test_rank_round_trip(self):
        for text in ("0", "y - z", "14 - loc", "a + 2 - z"):
            assert term_str(parse_rank(text)) == text

    @pytest.mark.parametrize("text", ["x'", "y - loc'", "x + x'"])
    def test_rank_reads_the_pre_state_only(self, text):
        with pytest.raises(ParseError, match="post state"):
            parse_rank(text)

    @pytest.mark.parametrize("text", ["x +- y", "x ++ y", "x -- y", "3 +- loc"])
    def test_rank_rejects_doubled_operators(self, text):
        with pytest.raises(ParseError):
            parse_rank(text)

    @pytest.mark.parametrize("text", ["٣ - x", "x + ²"])
    def test_rank_rejects_non_ascii_digits(self, text):
        with pytest.raises(ParseError):
            parse_rank(text)

    @pytest.mark.parametrize("text", ["x < ٣", "² = x'"])
    def test_atom_rejects_non_ascii_digits(self, text):
        with pytest.raises(ParseError):
            parse_atom(text)

    @pytest.mark.parametrize(
        "doc",
        [
            {"name": "r", "atoms": [], "rank": "x"},
            [{"atoms": [], "rank": "x"}],
            [{"name": "r", "rank": "x"}],
            [{"name": "r", "atoms": []}],
            [{"name": "r", "atoms": [], "rank": 5}],
            [{"name": "r", "atoms": [3], "rank": "x"}],
            ["name atoms rank"],
        ],
    )
    def test_malformed_document_rejected(self, doc):
        with pytest.raises(ParseError):
            invariant_from_doc(doc)

    def test_monus_evaluates_truncated(self):
        p = Program(("a",), ())
        rel = ConstraintRelation("r", (), parse_rank("a - 5"))
        assert compile_rank(rel, p)(State(0, (3,))) == 0
        assert compile_rank(rel, p)(State(0, (9,))) == 4


class TestTraceJson:
    def test_round_trip(self):
        p = counting_program()
        trace = run_trace(p, initial_state(p, {"y": 2}))
        doc = trace_to_doc(p, trace)
        back = json.loads(json.dumps(doc))
        read = [
            State(e["location"], tuple(e["env"][name] for name in p.variables))
            for e in back
        ]
        assert read == states(trace)
