import gc
import json
import re
import tracemalloc
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from oracles import bound_g_literal, find_nondescent_pointwise
from test_cli import sigma_text
from termbound import bounds
from termbound.bounds import SequenceFn, bound_g, find_nondescent, text_proves_natural
from termbound.cli import _gc_paused
from termbound.errors import BudgetExceeded, LemmaViolated


class TestLexLe:
    """``find_nondescent`` orders sigma values as tuples, lexicographically;
    ``SequenceFn`` keeps every value at one length."""

    def test_reflexive(self):
        assert find_nondescent(SequenceFn.from_rows([(0, 0)]), 0, 5) == 0

    def test_first_coordinate_decides(self):
        assert find_nondescent(SequenceFn.from_rows([(1, 9), (2, 0)]), 0, 5) == 0

    def test_asymmetry(self):
        sigma = SequenceFn.from_rows([(2, 0), (1, 9), (1, 9)])
        assert find_nondescent(sigma, 0, 5) == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            SequenceFn.from_rows([(1,), (1, 2)])
        with pytest.raises(ValueError):
            SequenceFn.from_rows([(1, 2), (1, 2), (1,)])


class TestBoundG:
    def test_one_component_constant(self):
        sigma = SequenceFn.from_rows([(7,)])
        assert bound_g(sigma, 0) == 8

    def test_one_component_descending(self):
        sigma = SequenceFn.from_rows([(5,), (4,), (3,), (2,), (1,), (0,)])
        assert bound_g(sigma, 0) == 6

    def test_two_components_unfolds_twice(self):
        sigma = SequenceFn.from_rows([(0, 0)])
        # H(2, 0) with the tail bound g1(x) = x + 1.
        assert bound_g(sigma, 0) == 4

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError, match="^n must be a natural number$"):
            bound_g(SequenceFn.from_rows([[1]]), -1)

    def test_value_ceiling(self):
        sigma = SequenceFn.from_rows([(10**6, 10**6, 10**6)])
        with pytest.raises(BudgetExceeded, match="^bound value exceeded ceiling 1000000000$"):
            bound_g(sigma, 0, max_value=10**9)

    # 18 rows, all of them below the freeze point but the last, so the
    # evaluation takes recursive steps before the closed form finishes it.
    ITERATED = SequenceFn.from_rows(
        [(a, b, c) for a in (1, 0) for b in (2, 1, 0) for c in (2, 1, 0)]
    )

    def test_iteration_budget_is_inclusive(self):
        with mock.patch.object(bounds, "DEFAULT_MAX_ITERATIONS", 8):
            assert bound_g(self.ITERATED, 0) == 25

    def test_iteration_budget(self):
        with mock.patch.object(bounds, "DEFAULT_MAX_ITERATIONS", 7):
            with pytest.raises(
                BudgetExceeded, match="^bound evaluation exceeded 7 iterations$"
            ):
                bound_g(self.ITERATED, 0)

    def test_leaves_no_garbage_cycle(self):
        # The CLI pauses the cyclic GC, so a cycle holding sigma would keep
        # its rows alive past the command and leave them for a later pass.
        with _gc_paused():
            gc.collect()
            bound_g(self.ITERATED, 0)
            assert gc.collect() == 0

    def test_keeps_no_table(self):
        # 23,104 recursive steps below the freeze point, each at a point no
        # other step reaches; a table of every evaluation would take MBs.
        sigma = SequenceFn.from_rows([[150, 150, 0]] * 60_000)
        tracemalloc.start()
        try:
            assert bound_g(sigma, 0) == 46360
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64_000

    def test_closed_form_matches_iteration(self):
        # The closed form above the last row against every application.
        sigma = SequenceFn.from_rows([(3, 1), (2, 4), (2, 2), (1, 1)])
        for n in range(6):
            assert bound_g(sigma, n) == bound_g_literal(sigma, n)

    def test_k_one_sharpness(self):
        # A strict descent from a constant c lasts at most c steps.
        for c in range(6):
            sigma = SequenceFn.from_rows([(c,)])
            assert bound_g(sigma, 0) == c + 1


class TestFindNondescent:
    def test_constant(self):
        sigma = SequenceFn.from_rows([(3, 3)])
        assert find_nondescent(sigma, 0, bound_g(sigma, 0)) == 0

    def test_scalar_descent(self):
        sigma = SequenceFn.from_rows([(5,), (4,), (3,), (3,)])
        assert find_nondescent(sigma, 0, bound_g(sigma, 0)) == 2

    def test_lexicographic_scan(self):
        sigma = SequenceFn.from_rows([(1, 1), (1, 0), (0, 5), (0, 4), (0, 4)])
        assert find_nondescent(sigma, 0, bound_g(sigma, 0)) == 3

    def test_rejects_negative_n(self):
        sigma = SequenceFn.from_rows([[3], [2], [1], [0]])
        with pytest.raises(ValueError, match="^n must be a natural number$"):
            find_nondescent(sigma, -1, 3)

    def test_rejects_limit_below_n(self):
        # [2, 1] is empty: no point in it, so no descent throughout it either.
        sigma = SequenceFn.from_rows([[3], [2], [1], [0]])
        with pytest.raises(ValueError, match=r"^limit 1 is below n = 2$"):
            find_nondescent(sigma, 2, 1)
        assert find_nondescent(sigma, 2, 3) == 3

    def test_within_bound_on_corpus(self):
        corpus = [
            SequenceFn.from_rows([(2,)]),
            SequenceFn.from_rows([(0, 0)]),
            SequenceFn.from_rows([(3, 1, 4)]),
            SequenceFn.from_rows([(3,), (2,), (1,), (0,), (0,)]),
            SequenceFn.from_rows([(2, 2), (2, 1), (2, 0), (1, 5), (1, 4), (0, 0), (0, 0)]),
            SequenceFn.from_rows(
                [(1, 1, 1), (1, 1, 0), (1, 0, 3), (0, 2, 2), (0, 2, 2)]
            ),
        ]
        for sigma in corpus:
            for n in range(6):
                m = find_nondescent(sigma, n, bound_g(sigma, n))
                assert n <= m <= bound_g(sigma, n)
                assert sigma(m) <= sigma(m + 1)


def outcome(fn, *args):
    """The result of ``fn(*args)``, or the type of the error it raised."""
    try:
        return fn(*args)
    except (BudgetExceeded, LemmaViolated, ValueError) as exc:
        return type(exc)


def row_lists(max_rows: int, max_value: int):
    """Rows of one length k from 1 to 3, at most ``max_rows`` of them."""
    return st.integers(1, 3).flatmap(
        lambda k: st.lists(
            st.tuples(*[st.integers(0, max_value)] * k), min_size=1, max_size=max_rows
        )
    )


class TestAgainstOracles:
    # A row list sorted in reverse descends strictly wherever it has no
    # repeated row, so both exceptions and late witnesses are reached.
    @given(
        row_lists(12, 3),
        st.booleans(),
        st.integers(0, 15),
        st.integers(0, 20),
        st.one_of(st.just(bounds.DEFAULT_MAX_ITERATIONS), st.integers(0, 8)),
    )
    @example([(3,), (2,), (1,), (0,)], False, 0, 2, 100)  # LemmaViolated
    @example([(3,), (2,), (1,), (1,)], False, 0, 2, 100)  # witness at the limit
    @example([(3,), (2,), (1,), (0,)], False, 0, 5, 1)  # BudgetExceeded
    @example([(3,), (2,), (1,), (0,)], False, 6, 9, 100)  # n past the last row
    # n past sys.maxsize, the largest index islice takes
    @example([(7,)], False, 2**63, 2**63 + 8, bounds.DEFAULT_MAX_ITERATIONS)
    @example([(3, 1), (2, 5), (2, 5)], False, 10**20, 10**20 + 5, 8)
    def test_find_nondescent(self, rows, descending, n, limit, max_iterations):
        if descending:
            rows = sorted(rows, reverse=True)
        sigma = SequenceFn.from_rows(rows)
        with mock.patch.object(bounds, "DEFAULT_MAX_ITERATIONS", max_iterations):
            expected = outcome(find_nondescent_pointwise, sigma, n, limit)
            assert outcome(find_nondescent, sigma, n, limit) == expected

    def test_find_nondescent_raises_both(self):
        sigma = SequenceFn.from_rows([(3, 0), (2, 9), (2, 1), (0, 0)])
        with pytest.raises(LemmaViolated):
            find_nondescent(sigma, 0, 2)
        with mock.patch.object(bounds, "DEFAULT_MAX_ITERATIONS", 1):
            with pytest.raises(BudgetExceeded):
                find_nondescent(sigma, 0, 3)

    @given(row_lists(8, 3), st.integers(0, 10))
    def test_bound_g(self, rows, n):
        sigma = SequenceFn.from_rows(rows)
        assert bound_g(sigma, n) == bound_g_literal(sigma, n)


class TestSequenceFn:
    """A ``SequenceFn`` is its rows: the last one is the freeze point."""

    def test_takes_rows_only(self):
        with pytest.raises(TypeError, match="^SequenceFn takes 1 fields$"):
            SequenceFn([[2], [1], [0]], 1, 5)

    def test_freezes_at_the_last_row(self):
        sigma = SequenceFn([[2], [1], [0]])
        assert sigma.k == 1 and [sigma(m) for m in range(5)] == [(2,), (1,), (0,), (0,), (0,)]
        assert bound_g(sigma, 0) == 3
        assert find_nondescent(sigma, 0, 3) == 2

    def test_no_rows_has_no_component(self):
        sigma = SequenceFn([])
        assert sigma.k == 0
        with pytest.raises(ValueError, match="^sequence must have at least one component$"):
            bound_g(sigma, 0)


class TestFromRows:
    """``from_rows`` keeps the row objects it is given, all lists or all tuples."""

    @given(row_lists(10, 3), st.integers(0, 14), st.integers(0, 20))
    def test_list_rows_as_tuple_rows(self, rows, n, limit):
        as_tuples = SequenceFn.from_rows(rows)
        as_lists = SequenceFn.from_rows([list(row) for row in rows])
        for m in range(len(rows) + 3):  # past the last row too
            assert type(as_lists(m)) is tuple
            assert as_lists(m) == as_tuples(m)
        assert bound_g(as_lists, n) == bound_g(as_tuples, n) == bound_g_literal(as_tuples, n)
        expected = outcome(find_nondescent_pointwise, as_tuples, n, limit)
        assert outcome(find_nondescent, as_lists, n, limit) == expected
        assert outcome(find_nondescent, as_tuples, n, limit) == expected

    def test_keeps_rows_uncopied(self):
        rows = [[v // 1000, v % 1000] for v in range(99_999, -1, -1)]
        tracemalloc.start()
        try:
            sigma = SequenceFn.from_rows(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(kept is row for kept, row in zip(sigma.rows, rows))
        # The list of rows is kept too; a tuple per row would be 6 MB.
        assert peak < 1_200_000

    def test_keeps_a_list_of_rows(self):
        rows = [[2, 1], [1, 0], [0, 0]]
        assert SequenceFn.from_rows(rows).rows is rows
        assert SequenceFn.from_rows(rows, proven_natural=True).rows is rows

    @pytest.mark.parametrize("make", [tuple, lambda rows: (row for row in rows)],
                             ids=["tuple", "generator"])
    def test_copies_other_sequences_of_rows(self, make):
        rows = [[2, 1], [1, 0], [0, 0]]
        sigma = SequenceFn.from_rows(make(rows))
        assert type(sigma.rows) is list and sigma.rows == rows
        assert all(kept is row for kept, row in zip(sigma.rows, rows))

    @pytest.mark.parametrize(
        "rows",
        [[[1, 0], (0, 0)], [(1, 0), [0, 0]], [range(2), range(2)], ["10", "00"], [1, 0], []],
    )
    def test_rejects_rows(self, rows):
        with pytest.raises(ValueError):
            SequenceFn.from_rows(rows)

    def test_rejects_rows_that_are_not_iterable(self):
        with pytest.raises(ValueError, match="^every row must be a list of naturals$"):
            SequenceFn.from_rows(5)

    @pytest.mark.parametrize(
        "rows", [[[1, 0], (0, 0)], [[1, 0], [0]], []], ids=["mixed", "unequal", "empty"]
    )
    def test_proven_natural_keeps_the_shape_checks(self, rows):
        with pytest.raises(ValueError) as full:
            SequenceFn.from_rows(rows)
        with pytest.raises(ValueError) as proven:
            SequenceFn.from_rows(rows, proven_natural=True)
        assert str(proven.value) == str(full.value)

    def test_proven_natural_skips_only_the_coordinate_passes(self):
        rows = [[3, 1], [2, 5], [2, 5]]
        assert SequenceFn.from_rows(rows, proven_natural=True) == SequenceFn.from_rows(rows)


def conditions(text: str, doc: dict | None = None) -> tuple[bool, bool, bool, bool]:
    """The four conditions of ``text_proves_natural``, each on its own;
    ``doc`` is ``json.loads(text)`` unless given."""
    doc = json.loads(text) if doc is None else doc
    return (
        re.fullmatch(r'[0-9 \t\n\r\[\],{}:"krows]*', text) is not None,
        text.count("[") == len(doc["rows"]) + 1,
        text.count("{") == 1,
        text.count('"') == 2 * len(doc),
    )


class TestTextProvesNatural:
    """Each condition on documents where it alone fails; rows are lists of lists."""

    @pytest.mark.parametrize(
        "text",
        [
            '{"k": 2, "rows": [[1, 0], [0, 0]]}',
            '{\n\t"rows" : [ [10,\r\n 0] ,[0,0]],"k":2}',
            '{"rows": [[7]]}',
            '{"rows": [[]], "k": 0}',
        ],
    )
    def test_proves_digit_rows(self, text):
        assert conditions(text) == (True, True, True, True)
        assert text_proves_natural(text, json.loads(text))

    @pytest.mark.parametrize(
        "text,natural",
        [
            # 1: a character outside digits, JSON whitespace, []{},:" and k, r, o, w, s
            ('{"rows": [[-1, 0], [0, 0]]}', False),
            ('{"rows": [[1.5, 0], [0, 0]]}', False),
            ('{"rows": [[1e2, 0], [0, 0]]}', False),
            ('{"rows": [[true, 0], [0, 0]]}', False),
            ('{"rows": [[NaN, 0], [0, 0]]}', False),
            ('{"rows": [[1, 0]], "k": null}', True),
            # 2: a list below a row, or a "[" in a key
            ('{"rows": [[1, [2]], [0, 0]]}', False),
            ('{"rows": [[1, []], [0, 0]]}', False),
            ('{"[": 0, "rows": [[1, 0], [0, 0]]}', True),
            # 3: an object below a row, or a "{" in a key
            ('{"rows": [[1, {}], [0, 0]]}', False),
            ('{"{": 0, "rows": [[1, 0], [0, 0]]}', True),
            # 4: a string that is not a key, or a key twice
            ('{"rows": [["rows", 1], [0, 0]]}', False),
            ('{"rows": [["", 1], [0, 0]]}', False),
            ('{"k": 2, "rows": [[1, 0]], "k": 2}', True),
            ('{"rows": 5, "rows": [[1, 0]]}', True),
        ],
    )
    def test_refuses_when_one_condition_fails(self, text, natural):
        assert sum(conditions(text)) == 3
        doc = json.loads(text)
        assert not text_proves_natural(text, doc)
        # The fallback, both passes over the coordinates, decides.
        try:
            SequenceFn.from_rows(doc["rows"])
        except ValueError as exc:
            assert not natural and str(exc) == "every coordinate must be a natural number"
        else:
            assert natural

    @settings(max_examples=300, deadline=None)
    @given(sigma_text())
    def test_one_pass_matches_the_definition(self, text):
        doc = json.loads(text)
        assume(isinstance(doc["rows"], list))
        assert text_proves_natural(text, doc) == all(conditions(text))

    @settings(max_examples=300, deadline=None)
    @given(
        sigma_text(),
        st.sampled_from([bounds.PROOF_CHUNK, 2 * bounds.PROOF_CHUNK]),
        st.integers(0, 200),
        st.sampled_from([None, 65535, 65536, 131071, 131072, -1]),
        st.sampled_from(["-", ".", "e", "\\", "\x00", "\u00e9", "\uff11"]),
    )
    def test_one_pass_across_chunk_edges(self, text, edge, at, where, odd):
        # Whitespace after the "{" puts character ``at`` of the document just
        # before the chunk edge ``edge``, so the rows can straddle it. Then
        # one odd character may replace the one on either side of a chunk
        # edge, or the last. ``doc`` is the padded text's, before that.
        doc = json.loads(text)
        assume(isinstance(doc["rows"], list))
        at = min(at, len(text) - 1)
        text = "{" + " " * (edge - 1 - at) + text[1:]
        assert len(text) >= edge
        if where is not None:
            assume(where < len(text))
            where %= len(text)
            text = text[:where] + odd + text[where + 1 :]
        assert text_proves_natural(text, doc) == all(conditions(text, doc))
