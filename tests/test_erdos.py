import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import f_star, f_star_vec, insert_branch
from termbound.erdos import (
    ColoredList,
    ErdosTree,
    color_of,
    embed,
    erdos_to_doc,
    is_homogeneous,
    to_labelled_tree,
)
from termbound.errors import NoRelation, NotHomogeneous
from termbound.ktree import LabelledTree, node
from termbound.ordinals import cmp, nat_prod_nat, parse_ordinal, OMEGA

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

    def test_pairwise_not_just_adjacent(self):
        # Every adjacent pair descends, but (2,5) does not descend
        # below (2,0).
        assert not is_homogeneous([(2, 0), (1, 9), (2, 5)], 2)

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.integers(1, 4))
    def test_matches_definition(self, data, k):
        s = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * k), max_size=6))
        literal = all(
            any(s[j][h] < s[i][h] for h in range(k))
            for j in range(len(s))
            for i in range(j)
        )
        assert is_homogeneous(s, k) == literal


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
        assert to_labelled_tree(ErdosTree(2)) == LabelledTree.empty(2)

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
            back.insert(entry["point"])
        assert erdos_to_doc(back) == doc
        assert back.vector == t.vector

    def test_nil_serializes(self):
        assert erdos_to_doc(ErdosTree(2)) == {"k": 2, "nodes": []}
