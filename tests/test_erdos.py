import json
import random
from functools import lru_cache
from itertools import product
from operator import eq, gt, lt
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import WalkTree, f_star, f_star_vec, insert_branch, node
from termbound import erdos
from termbound.erdos import (
    MAX_CHECK_PAIRS,
    ColoredList,
    ErdosTree,
    color_of,
    embed,
    erdos_to_doc,
    height_of_tree,
    height_vector,
    is_homogeneous,
    to_labelled_tree,
)
from termbound.errors import (
    BudgetExceeded,
    LabelNotDecreasing,
    NoRelation,
    NotHomogeneous,
    TermboundError,
)
from termbound.ktree import LabelledTree, height_nil
from termbound.ordinals import (
    MAX_POWER_BITS,
    OMEGA,
    Ordinal,
    cmp,
    from_vector,
    nat_prod_nat,
    nat_sum,
    parse_ordinal,
    to_vector,
)
from termbound.prcompile import ADD, MULT, SUB, compile_term
from termbound.termlang import check_invariant, initial_state, run_trace

o = parse_ordinal


def random_homogeneous(rng, k, max_coord=8, max_len=10):
    """A random nonempty pairwise-descending sequence of k-tuples."""
    length = rng.randint(1, max_len)
    pts = [tuple(rng.randint(0, max_coord) for _ in range(k))]
    while len(pts) < length:
        for _ in range(40):
            cand = tuple(rng.randint(0, max_coord) for _ in range(k))
            if all(any(c < p[h] for h, c in enumerate(cand)) for p in pts):
                pts.append(cand)
                break
        else:
            last = pts[-1]
            positive = [h for h, v in enumerate(last) if v > 0]
            if not positive:
                break
            # Decrementing one coordinate of the last point stays below
            # every earlier point: the decreasing coordinate against each
            # earlier point only shrinks further.
            h = rng.choice(positive)
            cand = list(last)
            cand[h] -= 1
            pts.append(tuple(cand))
    return pts


class TestHomogeneous:
    def test_empty(self):
        assert is_homogeneous([], 2)

    def test_three_points(self):
        assert is_homogeneous([(3, 4), (1, 4), (0, 2)], 2)

    def test_repeated_point(self):
        assert not is_homogeneous([(1, 1), (1, 1)], 2)
        # With no coordinates nothing descends, so every pair is uncovered.
        assert not is_homogeneous([(), ()], 0)

    def test_pairwise_not_just_adjacent(self):
        # Every adjacent pair descends, but (2,5) does not descend
        # below (2,0).
        assert not is_homogeneous([(2, 0), (1, 9), (2, 5)], 2)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(0, 4), st.integers(0, 140))
    def test_matches_definition(self, data, k, n):
        # Past 64 points the bitsets span several machine words; the
        # pairwise-descending sequences make the join answer True too.
        if data.draw(st.booleans()):
            s = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * k), min_size=n, max_size=n))
        else:
            rng = random.Random(data.draw(st.integers(0, 2**32)))
            s = random_homogeneous(rng, k, max_coord=n + 3, max_len=n + 1)
        literal = all(
            any(s[j][h] < s[i][h] for h in range(k))
            for j in range(len(s))
            for i in range(j)
        )
        assert is_homogeneous(s, k) == literal

    @given(st.integers(0, 3).flatmap(
        lambda k: st.lists(st.tuples(*[st.integers(0, 2)] * k), max_size=12)
    ))
    def test_first_uncovered_pair_matches_definition(self, pts):
        # The join stops once its listing of one is full; the pair it names
        # is still the least uncovered one, in order of i, then j.
        least = next(
            (
                (i, j)
                for i in range(len(pts))
                for j in range(i + 1, len(pts))
                if not any(map(lt, pts[j], pts[i]))
            ),
            None,
        )
        assert erdos._first_uncovered(pts) == least

    def test_stops_at_the_first_uncovered_pair(self):
        # Point 0 is not above point 1, so the listing is full at position 0
        # and the join reads no later position of any plan.
        s = [(0, 0)] + [(y, 0) for y in range(1000, 0, -1)]
        read = set()

        class Reads(list):
            def __getitem__(self, i):
                read.add(i)
                return super().__getitem__(i)

        cover_pairs = erdos.cover_pairs

        def join(n, plans, limit, **options):
            plans = [(name, Reads(pre_ok), *rest) for name, pre_ok, *rest in plans]
            return cover_pairs(n, plans, limit, **options)

        with mock.patch.object(erdos, "cover_pairs", join):
            assert not is_homogeneous(s, 2)
        assert read == {0}
        # A homogeneous sequence is read at every position but the last.
        read.clear()
        with mock.patch.object(erdos, "cover_pairs", join):
            assert is_homogeneous(s[1:], 2)
        assert read == set(range(len(s) - 2))

    def test_pair_budget(self):
        # Identical points: every pair is uncovered at the first point.
        points = [(0, 0)] * 14_143
        assert len(points[:-1]) * (len(points) - 2) // 2 <= MAX_CHECK_PAIRS
        with pytest.raises(
            BudgetExceeded,
            match="^is_homogeneous: 100005153 pairs exceed the pair budget of 100000000$",
        ):
            is_homogeneous(points, 2)
        assert not is_homogeneous(points[:-1], 2)


class TestColumnMasks:
    """``_Column.masks`` against the per-position definition of each operator."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(0, 12), max_size=150),
        st.lists(st.integers(-2, 15), max_size=40),
        st.sampled_from(["=", "<", ">"]),
    )
    def test_matches_definition(self, values, keys, op):
        # Keys from -2 to 15 fall inside the column, between its values and
        # beyond both ends; the column's own values are keys too.
        keys = keys + values
        holds = {"=": eq, "<": lt, ">": gt}[op]
        literal = [erdos._bitset([holds(v, key) for v in values]) for key in keys]
        column = erdos._Column(values)
        assert column.masks(keys, op) == literal
        assert column.masks(keys, op) == literal  # ``>`` again, from its kept prefix masks


def run_columns():
    """Columns drawn as (value, run length) pairs, so that most runs are long."""
    return st.lists(st.tuples(st.integers(0, 6), st.integers(1, 90)), max_size=10).map(
        lambda runs: [v for v, length in runs for _ in range(length)]
    )


class TestColumnRuns:
    """``_Column`` built from runs of equal values, against each position's own bit."""

    @settings(max_examples=300, deadline=None)
    @given(run_columns(), st.booleans())
    @example([3] * 200, False)  # all equal
    @example([0, 1] * 100, False)  # strictly alternating
    @example([4], False)
    @example([], False)
    @example([3] * 130, True)
    @example([1, 0] * 65, True)
    @example([], True)
    def test_matches_definition(self, values, as_tuple):
        # A tuple is what ``is_homogeneous`` passes, from ``zip(*pts)``.
        if as_tuple:
            values = tuple(values)
        column = erdos._Column(values)
        assert column.eq == {v: erdos._bitset([x == v for x in values]) for v in set(values)}
        keys = list(range(-1, 8))
        for op, holds in (("=", eq), ("<", lt), (">", gt)):
            literal = [erdos._bitset([holds(v, key) for v in values]) for key in keys]
            assert column.masks(keys, op) == literal


class TestColorOf:
    def test_single_coordinate(self):
        assert color_of((1, 5), (3, 5)) == 1

    def test_first_wins_when_both_decrease(self):
        assert color_of((2, 1), (3, 4)) == 1

    def test_second_coordinate(self):
        assert color_of((5, 2), (3, 4)) == 2

    def test_no_relation(self):
        with pytest.raises(NoRelation):
            color_of((3, 4), (1, 4))

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=6))
    def test_matches_definition(self, pairs):
        # The first h with y[h] < x[h], or NoRelation naming both points.
        y, x = zip(*pairs)
        below = [h for h in range(1, len(y) + 1) if y[h - 1] < x[h - 1]]
        if below:
            assert color_of(y, x) == below[0]
        else:
            with pytest.raises(NoRelation) as raised:
                color_of(list(y), list(x))
            assert str(raised.value) == f"{y} does not descend below {x}"

    def test_different_dimensions(self):
        with pytest.raises(ValueError, match="points of different dimensions"):
            color_of((0, 1), (1,))


class TestInsertBranch:
    def test_into_empty(self):
        t = ErdosTree(2)
        assert insert_branch(t, (2, 2)) == ColoredList(((2, 2),), ())

    def test_first_child(self):
        t = embed([(3, 4)], 2)
        assert insert_branch(t, (1, 4)) == ColoredList(((3, 4), (1, 4)), (1,))

    def test_descends_by_first_decreasing_coordinate(self):
        # (2,0) decreases below the root (3,4) in coordinate 1, so it
        # descends into the color-1 subtree and lands under (1,4) with
        # color 2 there.
        t = embed([(3, 4), (1, 4)], 2)
        assert insert_branch(t, (2, 0)) == ColoredList(
            ((3, 4), (1, 4), (2, 0)), (1, 2)
        )

    def test_fresh_subtree(self):
        t = embed([(3, 4), (1, 4)], 2)
        assert insert_branch(t, (5, 0)) == ColoredList(((3, 4), (5, 0)), (2,))

    def test_no_relation_propagates(self):
        t = embed([(3, 4)], 2)
        with pytest.raises(NoRelation):
            insert_branch(t, (3, 4))


class TestEmbed:
    def test_empty(self):
        t = embed([], 2)
        assert t.branch_count() == 0
        assert t.branches() == []

    def test_single(self):
        t = embed([(0, 0)], 2)
        assert t.branches() == [ColoredList(((0, 0),), ())]

    def test_two_points(self):
        t = embed([(3, 4), (1, 4)], 2)
        assert [(n.point, n.parent, n.color) for n in t.nodes] == [
            ((3, 4), -1, 0),
            ((1, 4), 0, 1),
        ]
        assert t.nodes[0].children == [1, -1]

    def test_rejects_non_homogeneous(self):
        with pytest.raises(NotHomogeneous):
            embed([(1, 1), (1, 1)], 2)

    def test_rejection_names_the_first_uncovered_pair(self):
        # (1, 2) and (0, 3) fail; the earlier point is taken first.
        s = [(3, 3), (1, 1), (1, 1), (5, 5), (0, 0)]
        with pytest.raises(NotHomogeneous) as info:
            embed(s, 2)
        assert str(info.value) == (
            "not homogeneous: no coordinate falls from (3, 3) (point 0) to (5, 5) (point 3)"
        )
        # The message names two points, however long the sequence is.
        with pytest.raises(NotHomogeneous) as info:
            embed([(y, 0) for y in range(1000, 0, -1)] + [(1, 0)], 2)
        assert str(info.value) == (
            "not homogeneous: no coordinate falls from (1, 0) (point 999) to (1, 0) (point 1000)"
        )

    def test_one_join_per_call(self):
        # One cover_pairs plan per coordinate, ranked by it: the join that
        # check_invariant runs, with no rank violation and a listing of one.
        chain = [(3, 0, 2), (2, 5, 1), (1, 9, 0)]
        with mock.patch.object(erdos, "cover_pairs", wraps=erdos.cover_pairs) as join:
            assert [n.point for n in embed(chain, 3).nodes] == chain
        assert join.call_count == 1
        n, plans, limit = join.call_args.args
        assert (n, len(plans), limit) == (3, 3, 1)
        assert erdos.cover_pairs(n, plans, 5) == ([], [], 0, 0)
        with mock.patch.object(erdos, "cover_pairs", wraps=erdos.cover_pairs) as join:
            assert not is_homogeneous(chain + chain, 3)
        assert join.call_count == 1
        uncovered, violations, uncovered_total, violation_total = erdos.cover_pairs(
            *join.call_args.args[:2], 5
        )
        assert uncovered == [(0, 3), (1, 4), (2, 5)] and uncovered_total == 3
        assert violations == [] and violation_total == 0

    def test_checks_each_point_once(self):
        # The homogeneity join and the inserts share the checked points, and
        # a bad point is still refused before either runs.
        s = [(y, 0) for y in range(50, 0, -1)]
        with mock.patch.object(erdos, "_check_point", wraps=erdos._check_point) as check:
            t = embed(s, 2)
        assert check.call_count == len(s)
        assert [n.point for n in t.nodes] == s
        with pytest.raises(ValueError, match="non-natural coordinates"):
            embed([(3, 4), (1, True)], 2)
        # ErdosTree.insert takes checked points; embed checks what it is given.
        with mock.patch.object(erdos, "_check_point", wraps=erdos._check_point) as check:
            t = embed([[3, 4], [0, 1]], 2)
        assert check.call_count == 2 and t.nodes[-1].point == (0, 1)

    def test_simulation_one_leaf_per_point(self):
        rng = random.Random(5)
        for _ in range(100):
            k = rng.choice([2, 3])
            s = random_homogeneous(rng, k)
            prev = ErdosTree(k)
            for n in range(1, len(s) + 1):
                cur = embed(s[:n], k)
                assert cur.branch_count() == prev.branch_count() + 1
                new = insert_branch(prev, s[n - 1])
                assert set(b for b in prev.branches()) | {new} == set(
                    cur.branches()
                )
                prev = cur


def label_at(s, k, *slots):
    """Label of the node at child ``slots`` of the labelled image of ``embed(s, k)``."""
    n = to_labelled_tree(embed(s, k)).root
    for c in slots:
        n = n.children[c - 1]
    return n.label


class TestNodeProfile:
    """A label sums, per color above the node, its lowest ancestor's coordinate."""

    def test_root(self):
        # No colors above: max coordinate + 1, plus w * (k - 1).
        assert label_at([(3, 4)], 2) == o("w+5")

    def test_single_edge(self):
        assert label_at([(3, 4), (1, 4)], 2, 1) == o("w+3")

    def test_lowest_ancestor_wins(self):
        # Both (5,5) and (4,3) are left by a color-1 edge; (4,3) is lower.
        assert label_at([(5, 5), (4, 3), (2, 4)], 2, 1, 1) == o("w+4")


class TestLabelAlpha:
    def test_root_zero(self):
        assert label_at([(0, 0)], 2) == o("w+1")

    def test_root_coordinates(self):
        assert label_at([(3, 5)], 2) == o("w+6")

    def test_one_color_node(self):
        assert label_at([(1, 1), (0, 1)], 2, 1) == o("w+1")


class TestToLabelledTree:
    def test_empty(self):
        assert to_labelled_tree(ErdosTree(2)) == LabelledTree(2)

    def test_single(self):
        t = to_labelled_tree(embed([(0, 0)], 2))
        assert t == LabelledTree(2, node(o("w+1"), k=2))

    def test_two_nodes(self):
        t = to_labelled_tree(embed([(1, 1), (0, 1)], 2))
        assert t == LabelledTree(2, node(o("w+2"), node(o("w+1"), k=2), k=2))

    def test_labels_decrease_on_random_sequences(self):
        rng = random.Random(6)
        for _ in range(150):
            k = rng.choice([2, 3])
            s = random_homogeneous(rng, k)
            to_labelled_tree(embed(s, k))  # raises LabelNotDecreasing on defect


class TestFStar:
    def test_singleton_zero(self):
        assert f_star([(0, 0)], 2) == o("w*4+2")

    def test_singleton_one(self):
        assert f_star([(1, 1)], 2) == o("w*8+6")

    def test_two_points_below_singleton(self):
        assert f_star([(1, 1), (0, 1)], 2) == o("w*8+5")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            f_star([], 2)

    def test_vec(self):
        assert f_star_vec([(0, 0)], 2) == (4, 2)
        assert f_star_vec([(1, 1)], 2) == (8, 6)

    def test_vec_empty_rejected(self):
        with pytest.raises(ValueError):
            f_star_vec([], 2)

    def test_strictly_decreasing_and_bounded(self):
        rng = random.Random(9)
        omega_k = {k: nat_prod_nat(OMEGA, k) for k in (2, 3)}
        bound = {k: parse_ordinal(f"w^{k}") for k in (2, 3)}
        for _ in range(100):
            k = rng.choice([2, 3])
            s = random_homogeneous(rng, k)
            prev = None
            for n in range(1, len(s) + 1):
                value = f_star(s[:n], k)
                assert cmp(value, bound[k]) < 0
                if prev is not None:
                    assert cmp(value, prev) < 0
                prev = value


@st.composite
def homogeneous_sequences(draw):
    """(k, s): candidates kept only when below every earlier kept point."""
    k = draw(st.integers(1, 4))
    candidates = draw(
        st.lists(st.tuples(*[st.integers(0, 8)] * k), min_size=1, max_size=16)
    )
    pts = []
    for cand in candidates:
        if all(any(c < p[h] for h, c in enumerate(cand)) for p in pts):
            pts.append(cand)
    return k, pts


class TestInsertMeasure:
    @settings(max_examples=200, deadline=None)
    @given(homogeneous_sequences())
    def test_matches_rebuild_on_every_prefix(self, case):
        k, s = case
        t = ErdosTree(k)
        assert t.vector == ()
        for n, y in enumerate(s):
            assert t.insert(y) == t.vector == f_star_vec(s[: n + 1], k)

    def test_rejects_point_off_the_descent_path(self):
        t = ErdosTree(2)
        t.insert((3, 4))
        with pytest.raises(NoRelation):
            t.insert((3, 4))
        assert t.branch_count() == 1

    def test_rejects_point_of_wrong_dimension(self):
        # insert takes checked points; embed, the entry of outside points, checks them.
        with pytest.raises(ValueError) as info:
            embed([(3, 4), (1, 2, 3)], 2)
        assert str(info.value) == "point (1, 2, 3) does not have 2 coordinates"

    @pytest.mark.parametrize(
        "point", [(True, 0), (2.5, 0), (-1, 0), ("3", 0)], ids=["bool", "float", "neg", "str"]
    )
    def test_rejects_non_natural_coordinates(self, point):
        with pytest.raises(ValueError) as info:
            embed([(3, 4), point], 2)
        assert str(info.value) == f"point {point} has non-natural coordinates"

    def test_label_error_prints_ordinals(self):
        # The labelling makes every child's label fall, so only a label
        # changed by hand can trip the check; the message prints both
        # labels as ordinals, as the walk oracle does.
        tree, walk = ErdosTree(2), WalkTree(2)
        for t in (tree, walk):
            t.insert((3, 4))
        tree.nodes[0].label = (0, 2)
        walk.nodes[0][1] = Ordinal.from_int(2)
        message = "label w+3 of (1, 4) not below parent label 2"
        for t in (tree, walk):
            with pytest.raises(LabelNotDecreasing) as err:
                t.insert((1, 4))
            assert str(err.value) == message
        assert [n.children for n in tree.nodes] == [[-1, -1]]
        assert tree.vector == walk.vector == f_star_vec([(3, 4)], 2)

    def test_power_budget_holds(self):
        # A root label w + n needs 2^n: past the budget at the root ...
        t = ErdosTree(2)
        with pytest.raises(BudgetExceeded):
            t.insert((MAX_POWER_BITS, 0))
        assert (t.nodes, t.vector) == ([], ())
        # ... and at a node whose label sums two colors' coordinates.
        half = MAX_POWER_BITS * 3 // 4
        t.insert((half, 0))
        t.insert((0, half))
        before = (list(t.vector), [list(n.children) for n in t.nodes])
        with pytest.raises(BudgetExceeded):
            t.insert((0, 0))
        assert (list(t.vector), [list(n.children) for n in t.nodes]) == before
        assert t.branch_count() == 2


class TestHeightVector:
    def test_matches_height_nil_on_every_small_label(self):
        labels = [
            (k, m, n) for k in range(1, 7) for m in range(k) for n in range(40)
        ]
        assert len(labels) == 840
        for k, m, n in labels:
            label = nat_sum(nat_prod_nat(OMEGA, m), n)
            assert height_vector(k, m, n) == to_vector(height_nil(k, label), k)

    def test_power_past_the_budget_raises(self):
        with pytest.raises(BudgetExceeded):
            height_vector(2, 1, MAX_POWER_BITS + 1)
        with pytest.raises(BudgetExceeded):
            height_vector(3, 0, MAX_POWER_BITS)


def assert_insert_matches_oracles(k, s):
    """Insert ``s`` into an ErdosTree and a WalkTree, comparing after every point.

    Both give the same vector or the same exception, keep the same nodes
    and labels, and a kept prefix's vector is its rebuilt measure
    (``f_star_vec`` when the prefix is homogeneous).
    """
    tree, walk, kept = ErdosTree(k), WalkTree(k), []
    for y in s:
        outcomes = []
        for t in (tree, walk):
            try:
                outcomes.append(("vector", t.insert(y)))
            except TermboundError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]
        assert [
            (n.point, from_vector(n.label), n.parent, n.color, n.children)
            for n in tree.nodes
        ] == [tuple(n) for n in walk.nodes]
        assert tree.vector == walk.vector
        if outcomes[0][0] == "vector":
            kept.append(y)
            if is_homogeneous(kept, k):
                assert tree.vector == f_star_vec(kept, k)
            else:
                assert tree.vector == to_vector(height_of_tree(tree), k)


@st.composite
def any_sequences(draw):
    """(k, s): points with no homogeneity filter."""
    k = draw(st.integers(1, 4))
    return k, draw(st.lists(st.tuples(*[st.integers(0, 5)] * k), max_size=20))


@st.composite
def single_color_chains(draw):
    """(k, s): one run of color c+1, then points that leave it part way.

    Along the run coordinate c falls and the coordinates before it rise. A
    later point copies a run member's coordinates before c and goes one
    below it at c, so it keeps color c+1 down to that member and leaves
    the run where a coordinate before c rose past it.
    """
    rng = draw(st.randoms(use_true_random=False))
    k = rng.randint(1, 4)
    c = rng.randrange(k)
    p = [rng.randint(0, 3) for _ in range(k)]
    p[c] = rng.randint(20, 150)
    run = []
    while p[c] >= 0 and len(run) < 60:
        run.append(tuple(p))
        p = [
            v + rng.randint(0, 1) if h < c else v - rng.randint(1, 3) if h == c
            else rng.randint(0, 9)
            for h, v in enumerate(p)
        ]
    tail = []
    for _ in range(rng.randint(0, 8)):
        q = list(rng.choice(run))
        q[c] -= 1
        tail.append(tuple(v if h <= c else rng.randint(0, 9) for h, v in enumerate(q)))
    return k, [pt for pt in run + tail if min(pt) >= 0]


@st.composite
def alternating_colors(draw):
    """(k, s): each point descends below the one before in colors that
    take turns; with ``homogeneous`` a point is kept only when it descends
    below every point before it."""
    rng = draw(st.randoms(use_true_random=False))
    k = rng.randint(2, 4)
    colors = rng.sample(range(k), 2)
    homogeneous = rng.random() < 0.5
    s = [tuple(rng.randint(10, 40) for _ in range(k))]
    for i in range(rng.randint(1, 50)):
        c = colors[i % 2]
        q = [
            v + rng.randint(0, 1) if h < c else v - rng.randint(1, 2) if h == c
            else rng.randint(0, 40)
            for h, v in enumerate(s[-1])
        ]
        if q[c] < 0:
            break
        if homogeneous and not all(any(a < b for a, b in zip(q, e)) for e in s):
            continue
        s.append(tuple(q))
    return k, s


SMALL_TRACES = (
    [("add", args) for args in product(range(4), range(3))]
    + [("sub", args) for args in product(range(4), repeat=2)]
    + [("mult", args) for args in product(range(3), repeat=2)]
)


@lru_cache(maxsize=None)
def trace_rank_tuples(name, args):
    """(k, rank tuples) of the checked trace of a compiled term."""
    unit = compile_term({"add": ADD, "sub": SUB, "mult": MULT}[name])
    s0 = initial_state(unit.program, dict(zip(unit.input_vars, args)))
    report = check_invariant(unit.program, run_trace(unit.program, s0), unit.invariant)
    assert report.ok
    return unit.invariant.k, report.rank_tuples


class TestInsertAgainstWalk:
    """The bisecting insert against the node-by-node walk and the rebuild."""

    @settings(max_examples=150, deadline=None)
    @given(homogeneous_sequences() | any_sequences())
    def test_random_sequences(self, case):
        assert_insert_matches_oracles(*case)

    @settings(max_examples=60, deadline=None)
    @given(single_color_chains())
    def test_single_color_chains(self, case):
        assert_insert_matches_oracles(*case)

    @settings(max_examples=100, deadline=None)
    @given(alternating_colors())
    def test_alternating_colors(self, case):
        assert_insert_matches_oracles(*case)

    @pytest.mark.parametrize("name,args", SMALL_TRACES)
    def test_compiled_traces(self, name, args):
        assert_insert_matches_oracles(*trace_rank_tuples(name, args))


class TestRunBoundaries:
    """A point that ties a run member on one coordinate, at the run's bisects.

    The root is (0, 10, 9) and nodes 1-3 are one run of color-2 edges:
    coordinate 2 falls 8, 5, 2 and coordinate 1 rises 1, 2, 3. A tie on
    coordinate 1 (h < c) keeps a point in the run; a tie on coordinate 2
    (c itself) ends the run there.
    """

    RUN = [(0, 10, 9), (1, 8, 9), (2, 5, 9), (3, 2, 9)]
    STAYS = (2, 4, 0)  # ties (2, 5, 9) at coordinate 1: color 2 there, color 1 at (3, 2, 9)
    LEAVES = (2, 5, 0)  # ties (2, 5, 9) at coordinate 2: color 3 there
    UNRELATED = (2, 5, 9)  # equal to node 2: NoRelation there

    @pytest.mark.parametrize("raise_first", [False, True])
    def test_ties(self, raise_first):
        tree = ErdosTree(3)
        for y in self.RUN:
            tree.insert(y)
        assert [n.color for n in tree.nodes] == [0, 2, 2, 2]
        before = [(n.point, n.label, n.parent, n.color, list(n.children)) for n in tree.nodes]
        if raise_first:
            message = r"^\(2, 5, 9\) does not descend below \(2, 5, 9\)$"
            with pytest.raises(NoRelation, match=message):
                tree.insert(self.UNRELATED)
            after = [(n.point, n.label, n.parent, n.color, n.children) for n in tree.nodes]
            assert after == before
        tree.insert(self.STAYS)
        assert (tree.nodes[-1].parent, tree.nodes[-1].color) == (3, 1)
        tree.insert(self.LEAVES)
        assert (tree.nodes[-1].parent, tree.nodes[-1].color) == (2, 3)
        points = self.RUN + [self.UNRELATED] * raise_first + [self.STAYS, self.LEAVES]
        assert_insert_matches_oracles(3, points)

    def test_ties_on_two_earlier_coordinates(self):
        # A color-3 run: coordinates 1 and 2 rise, coordinate 3 falls. The
        # new point ties node 2 on both earlier coordinates and stays in the
        # run there; node 3 rises past it on coordinate 2 only.
        run = [(0, 0, 9, 5), (1, 1, 7, 5), (1, 2, 5, 5), (1, 3, 3, 5)]
        tree = ErdosTree(4)
        for y in run:
            tree.insert(y)
        assert [n.color for n in tree.nodes] == [0, 3, 3, 3]
        tree.insert((1, 2, 4, 0))
        assert (tree.nodes[-1].parent, tree.nodes[-1].color) == (3, 2)
        assert_insert_matches_oracles(4, run + [(1, 2, 4, 0), (1, 2, 5, 0), (1, 2, 5, 5)])


class TestBranchProjection:
    def test_projections_strictly_decrease(self):
        rng = random.Random(13)
        for _ in range(100):
            k = rng.choice([2, 3])
            s = random_homogeneous(rng, k)
            for branch in embed(s, k).branches():
                points, colors = branch.points, branch.colors
                # Color c on edge i: every later element descends in c.
                for i, c in enumerate(colors):
                    assert 1 <= c <= k
                    assert all(q[c - 1] < points[i][c - 1] for q in points[i + 1 :])
                for h in range(1, k + 1):
                    proj = [p for p, c in zip(points, colors) if c == h] + [points[-1]]
                    for a, b in zip(proj, proj[1:]):
                        assert b[h - 1] < a[h - 1]


class TestSerialization:
    @settings(max_examples=200, deadline=None)
    @given(homogeneous_sequences())
    def test_round_trip(self, case):
        # One entry per point in input order. A node's place depends only
        # on the nodes before it, so reinserting the points in document
        # order rebuilds the tree, and each node's chain of parents and
        # colors is the branch its point finds in the tree before it.
        k, s = case
        t = embed(s, k)
        doc = json.loads(json.dumps(erdos_to_doc(t)))
        nodes = doc["nodes"]
        assert [n["point"] for n in nodes] == [list(p) for p in s]
        back = ErdosTree(doc["k"])
        for i, entry in enumerate(nodes):
            colors, j = [], i
            while nodes[j]["parent"] is not None:
                assert nodes[j]["parent"] < j
                colors.append(nodes[j]["color"])
                j = nodes[j]["parent"]
            assert j == 0 and nodes[0]["color"] is None
            assert insert_branch(back, entry["point"]).colors == tuple(reversed(colors))
            back.insert(tuple(entry["point"]))
        assert erdos_to_doc(back) == doc
        assert back.vector == t.vector

    def test_nil_serializes(self):
        assert erdos_to_doc(ErdosTree(2)) == {"k": 2, "nodes": []}
