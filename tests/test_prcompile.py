import time
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st
from oracles import check_invariant_pairwise, states, step, term_to_text

from termbound.bounds import find_nondescent
from termbound.errors import ArityMismatch, BudgetExceeded, ParseError
from termbound.ordinals import MAX_NESTING
from termbound.prcompile import (
    ADD,
    MAX_ARITY,
    MULT,
    PRED,
    SUB,
    Comp,
    CompiledUnit,
    Proj,
    Rec,
    Succ,
    Zero,
    compile_term,
    eval_pr,
    parse_term,
)
from termbound.termlang import (
    PhiSequence,
    check_invariant,
    initial_state,
    program_from_text,
    program_to_text,
    run_trace,
    step_bound,
)


def run_unit(unit: CompiledUnit, args, max_steps=100_000):
    s0 = initial_state(unit.program, dict(zip(unit.input_vars, args)))
    trace = run_trace(unit.program, s0, max_steps)
    assert trace.complete
    return trace.envs[-1][unit.program.var_index(unit.result_var)]


class TestEvalPr:
    def test_zero(self):
        assert eval_pr(Zero(1), (9,)) == 0

    def test_zero_nullary(self):
        assert eval_pr(Zero(0), ()) == 0

    def test_succ(self):
        assert eval_pr(Succ(), (4,)) == 5

    def test_proj(self):
        assert eval_pr(Proj(2, 3), (4, 7, 1)) == 7

    def test_add(self):
        assert eval_pr(ADD, (2, 3)) == 5

    def test_mult(self):
        assert eval_pr(MULT, (3, 4)) == 12

    def test_pred(self):
        assert eval_pr(PRED, (0,)) == 0
        assert eval_pr(PRED, (5,)) == 4

    def test_sub_truncated(self):
        assert eval_pr(SUB, (2, 5)) == 3
        assert eval_pr(SUB, (7, 5)) == 0

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            eval_pr(ADD, (1, 2, 3))

    def test_ill_formed_terms_rejected(self):
        with pytest.raises(ValueError):
            Proj(4, 3)
        with pytest.raises(ValueError):
            Comp(Succ(), (Proj(1, 2), Proj(1, 3)))
        with pytest.raises(ValueError):
            Rec(Succ(), Succ())


class TestTermDsl:
    @pytest.mark.parametrize(
        "text",
        [
            "z",
            "(z 0)",
            "(z 3)",
            "s",
            "(p 2 3)",
            "(comp s (p 2 3))",
            "(rec (p 1 1) (comp s (p 2 3)))",
            "(rec (z 0) (p 1 2))",
        ],
    )
    def test_round_trip(self, text):
        assert term_to_text(parse_term(text)) == text

    def test_standard_terms(self):
        assert parse_term("(rec (p 1 1) (comp s (p 2 3)))") == ADD
        assert parse_term("(rec (z 0) (p 1 2))") == PRED

    @pytest.mark.parametrize("text", ["", "(q 1)", "(p 1)", "(comp s)", "(rec s)", "z s"])
    def test_rejects_garbage(self, text):
        with pytest.raises(ParseError):
            parse_term(text)

    @pytest.mark.parametrize("text", ["(", "(comp s (", "  (  "])
    def test_input_ending_after_open_parenthesis(self, text):
        with pytest.raises(ParseError, match="unexpected end of term"):
            parse_term(text)

    def test_nesting_cap(self):
        def nested(levels):
            return "(comp " * (levels - 1) + "(p 1 1)" + " s)" * (levels - 1)

        assert term_to_text(parse_term(nested(MAX_NESTING))) == nested(MAX_NESTING)
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_term(nested(MAX_NESTING + 1))

    def test_deep_composition_compiles_quickly(self):
        levels = MAX_NESTING - 1
        cases = [
            ("(comp " * levels + "s" + " s)" * levels, 7 * MAX_NESTING - 6),
            # Every level copies the 100 inputs again: 10,495 variables.
            ("(comp s " * levels + "(p 1 100)" + ")" * levels, 10_494),
        ]
        for text, n_points in cases:
            start = time.perf_counter()
            unit = compile_term(parse_term(text))
            assert time.perf_counter() - start < 0.5
            assert unit.program.n_points == n_points

    def test_arity_budget(self):
        assert parse_term(f"(z {MAX_ARITY})") == Zero(MAX_ARITY)
        assert parse_term(f"(p 1 {MAX_ARITY})") == Proj(1, MAX_ARITY)
        for text in (f"(z {MAX_ARITY + 1})", f"(p 1 {MAX_ARITY + 1})"):
            with pytest.raises(BudgetExceeded, match="arity budget"):
                parse_term(text)

    @pytest.mark.parametrize("text", ["(z ٣)", "(p 1 ١)", "(z ²)"])
    def test_rejects_non_ascii_digits(self, text):
        with pytest.raises(ParseError, match="expected a number"):
            parse_term(text)

    def test_rejects_bad_arities(self):
        with pytest.raises(ParseError):
            parse_term("(comp s (p 1 2) (p 2 2))")


class TestCompileBaseCases:
    def test_zero_program_is_empty(self):
        unit = compile_term(Zero(2))
        assert unit.program.n_points == 0
        assert run_unit(unit, (5, 9)) == 0

    def test_zero_invariant_has_no_obligations(self):
        unit = compile_term(Zero(1))
        s0 = initial_state(unit.program, {"x1": 3})
        report = check_invariant(unit.program, run_trace(unit.program, s0), unit.invariant)
        assert report.ok and report.pairs_checked == 0

    def test_proj_result_is_input(self):
        unit = compile_term(Proj(2, 3))
        assert unit.program.n_points == 0
        assert run_unit(unit, (4, 7, 1)) == 7

    def test_succ(self):
        unit = compile_term(Succ())
        assert run_unit(unit, (4,)) == 5
        s0 = initial_state(unit.program, {"x1": 4})
        assert check_invariant(unit.program, run_trace(unit.program, s0), unit.invariant).ok


class TestCompileComposite:
    def test_add_runs(self):
        unit = compile_term(ADD)
        assert run_unit(unit, (2, 3)) == 5

    def test_add_invariant_passes(self):
        unit = compile_term(ADD)
        s0 = initial_state(unit.program, {"y": 2, "x1": 3})
        report = check_invariant(unit.program, run_trace(unit.program, s0), unit.invariant)
        assert report.ok

    def test_mult_runs(self):
        unit = compile_term(MULT)
        assert run_unit(unit, (2, 2)) == 4
        s0 = initial_state(unit.program, {"y": 2, "x1": 2})
        assert check_invariant(unit.program, run_trace(unit.program, s0), unit.invariant).ok

    def test_all_variables_declared_up_front(self):
        unit = compile_term(MULT)
        # every state carries every variable
        s0 = initial_state(unit.program, {"y": 1, "x1": 1})
        for s in states(run_trace(unit.program, s0)):
            assert len(s.env) == len(unit.program.variables)

    def test_relation_count_stays_small(self):
        assert compile_term(ADD).invariant.k == 3
        assert compile_term(MULT).invariant.k == 5
        assert compile_term(PRED).invariant.k == 2
        assert compile_term(SUB).invariant.k == 4

    @pytest.mark.parametrize(
        "term,args",
        [
            (ADD, (0, 0)),
            (ADD, (4, 3)),
            (PRED, (0,)),
            (PRED, (4,)),
            (SUB, (3, 1)),
            (SUB, (1, 3)),
            (MULT, (3, 2)),
            (Comp(ADD, (MULT, Proj(1, 2))), (3, 4)),
            (Comp(Succ(), (Comp(Succ(), (Zero(1),)),)), (9,)),
            (Rec(Succ(), Proj(2, 3)), (5, 1)),
        ],
    )
    def test_agrees_with_oracle(self, term, args):
        assert run_unit(compile_term(term), args) == eval_pr(term, args)

    def test_deterministic_output(self):
        from termbound.termlang import invariant_to_doc

        u1, u2 = compile_term(MULT), compile_term(MULT)
        assert program_to_text(u1.program) == program_to_text(u2.program)
        assert invariant_to_doc(u1.invariant) == invariant_to_doc(u2.invariant)


class TestMeasureSequence:
    def test_add_measure_descends_and_freezes(self):
        from termbound.termlang import PhiSequence

        unit = compile_term(ADD)
        s0 = initial_state(unit.program, {"y": 1, "x1": 1})
        trace = run_trace(unit.program, s0)
        seq = PhiSequence(check_invariant(unit.program, trace, unit.invariant)).sequence()
        final = len(seq.rows) - 1
        assert seq(1) < seq(0)
        for x in range(final):
            assert seq(x + 1) < seq(x)
        assert seq(final + 10) == seq(final)

    def test_bound_dominates_small_runs(self):
        from termbound.termlang import step_bound

        for term, args in [(ADD, (1, 1)), (PRED, (2,)), (SUB, (1, 2))]:
            unit = compile_term(term)
            s0 = initial_state(unit.program, dict(zip(unit.input_vars, args)))
            trace = run_trace(unit.program, s0)
            assert trace.steps <= step_bound(
                check_invariant(unit.program, trace, unit.invariant)
            )


class TestStepFunctionShape:
    def test_transition_is_total_on_non_final_states(self):
        from termbound.termlang import is_final

        unit = compile_term(ADD)
        s0 = initial_state(unit.program, {"y": 2, "x1": 2})
        for s in states(run_trace(unit.program, s0)):
            if not is_final(unit.program, s):
                step(unit.program, s)  # never stuck
            else:
                assert step(unit.program, s) == s


@lru_cache(maxsize=None)
def pr_terms(arity, depth=4):
    """Well-formed terms of ``arity``, with ``comp`` and ``rec`` nested at
    most ``depth`` deep and every arity at most 3."""
    leaves = [st.just(Zero(arity))]
    if arity == 1:
        leaves.append(st.just(Succ()))
    if arity:
        leaves.append(st.sampled_from([Proj(i, arity) for i in range(1, arity + 1)]))
    if depth == 0:
        return st.one_of(leaves)
    inner = pr_terms(arity, depth - 1)
    comps = st.integers(1, 3).flatmap(
        lambda q: st.builds(Comp, pr_terms(q, depth - 1), st.tuples(*[inner] * q))
    )
    branches = [*leaves, comps]
    if 1 <= arity <= 2:
        branches.append(
            st.builds(Rec, pr_terms(arity - 1, depth - 1), pr_terms(arity + 1, depth - 1))
        )
    return st.one_of(branches)


class TestRandomTerms:
    """Every primitive recursive term compiles to a program whose invariant
    passes and whose step bound holds."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 3).flatmap(pr_terms), st.data())
    def test_compile_run_check_bound(self, term, data):
        assert parse_term(term_to_text(term)) == term
        unit = compile_term(term)
        assert program_from_text(program_to_text(unit.program)) == unit.program
        inputs = st.tuples(*[st.integers(0, 2)] * term.arity)
        for args in data.draw(st.lists(inputs, min_size=1, max_size=3, unique=True)):
            s0 = initial_state(unit.program, dict(zip(unit.input_vars, args)))
            trace = run_trace(unit.program, s0, 2_000)
            if not trace.complete:  # too slow to check here, not wrong
                continue
            result = trace.envs[-1][unit.program.var_index(unit.result_var)]
            assert result == eval_pr(term, args)
            report = check_invariant(unit.program, trace, unit.invariant)
            assert report.ok, (term_to_text(term), args)
            if len(trace) <= 40:
                assert report == check_invariant_pairwise(
                    unit.program, trace, unit.invariant
                )
            bound = step_bound(report)
            assert trace.steps <= bound
            # The measure falls at every step and first pauses at the final state.
            assert find_nondescent(PhiSequence(report).sequence(), 0, bound) == trace.steps
