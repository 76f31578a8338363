import random

import pytest

from oracles import brute_force_height, node
from termbound.errors import BudgetExceeded, LabelNotDecreasing
from termbound.ktree import LabelledTree, Node, height_nil, height_tree
from termbound.ordinals import OMEGA, Ordinal, cmp, nat_prod_nat, parse_ordinal

o = parse_ordinal


# Fully naive reference: ordered trees as nested tuples (label, children),
# heights straight from the one-node-extension recursion. Used to
# cross-check the slot-sorted oracle on spaces small enough to enumerate
# without symmetry reduction.


def naive_extensions(t, k, bound):
    if t is None:
        return [(lab, ((None,) * k)) for lab in range(bound)]
    label, children = t
    out = []
    for i, child in enumerate(children):
        if child is None:
            for lab in range(label):
                new = children[:i] + ((lab, (None,) * k),) + children[i + 1 :]
                out.append((label, new))
        else:
            for ext in naive_extensions(child, k, bound):
                new = children[:i] + (ext,) + children[i + 1 :]
                out.append((label, new))
    return out


def naive_heights(k, m):
    heights = {}

    def height(t):
        if t in heights:
            return heights[t]
        h = 0
        for ext in naive_extensions(t, k, m):
            h = max(h, height(ext) + 1)
        heights[t] = h
        return h

    height(None)
    return heights


def to_labelled(t, k):
    def conv(t):
        if t is None:
            return None
        label, children = t
        return Node(Ordinal.from_int(label), tuple(conv(c) for c in children))

    return LabelledTree(k, conv(t))


def add_leaf(t, path, label):
    """``t`` with a new leaf labelled ``label`` at the empty slot ``path``
    (child indices from 1; the empty path is the root), copying the path."""

    def copy(n, rest):
        if not rest:
            return Node(label, (None,) * t.k)
        i = rest[0] - 1
        kids = n.children
        return Node(n.label, kids[:i] + (copy(kids[i], rest[1:]),) + kids[i + 1 :])

    return LabelledTree(t.k, copy(t.root, tuple(path)))


class TestLabelledTree:
    def test_equal_label_rejected(self):
        with pytest.raises(LabelNotDecreasing):
            LabelledTree(2, node(1, node(1, k=2), k=2))

    def test_rejects_nondecreasing_labels(self):
        # The increase sits below the root: every edge is checked.
        with pytest.raises(LabelNotDecreasing):
            LabelledTree(2, node(o("w*2"), None, node(1, node(o("w"), k=2), k=2), k=2))

    def test_rejects_arity_zero(self):
        with pytest.raises(ValueError, match="^arity must be at least 1$"):
            LabelledTree(0)

    def test_node_rejects_more_children_than_slots(self):
        with pytest.raises(ValueError, match="^more children than slots$"):
            node(1, None, None, k=1)

    @pytest.mark.parametrize("slots", [1, 3])
    def test_rejects_wrong_slot_count(self, slots):
        child = Node(Ordinal.from_int(0), (None,) * slots)
        with pytest.raises(ValueError, match="slots"):
            LabelledTree(2, node(1, child, k=2))


class TestHeightNil:
    def test_finite_geometric(self):
        assert height_nil(2, 3) == 7

    def test_omega_plus_one(self):
        assert height_nil(2, o("w+1")) == o("w*2+1")

    def test_arity_one_is_identity(self):
        assert height_nil(1, o("w*5+3")) == o("w*5+3")

    def test_omega(self):
        assert height_nil(2, OMEGA) == OMEGA

    def test_omega_times_n_plus_m(self):
        # w^n * k^m + (k^m - 1)/(k - 1)
        assert height_nil(2, o("w*2+3")) == o("w^2*8+7")
        assert height_nil(3, o("w*3+2")) == o("w^3*9+4")

    def test_successor_recurrence_on_finite_labels(self):
        for k in (2, 3):
            h = Ordinal.from_int(0)
            for alpha in range(0, 8):
                assert height_nil(k, alpha) == h
                h = nat_prod_nat(h, k) + 1

    def test_monotone_in_alpha(self):
        rng = random.Random(3)
        samples = [o("0"), o("3"), o("w"), o("w+1"), o("w*2"), o("w*2+3"), o("w^2")]
        for _ in range(100):
            a, b = rng.sample(samples, 2)
            if cmp(a, b) <= 0:
                assert cmp(height_nil(2, a), height_nil(2, b)) <= 0


class TestHeightTree:
    def test_empty_delegates(self):
        assert height_tree(LabelledTree(2), 3) == 7

    def test_single_root(self):
        t = LabelledTree(2, node(2, k=2))
        assert height_tree(t, 3) == 6

    def test_two_nodes(self):
        t = LabelledTree(2, node(1, node(0, k=2), k=2))
        assert height_tree(t, 2) == 1

    def test_strict_descent_under_extension(self):
        rng = random.Random(11)
        alpha = o("w*2")
        labels = [o("0"), o("1"), o("5"), o("w"), o("w+3"), o("w*2") ]
        for _ in range(200):
            t = LabelledTree(2)
            for _ in range(rng.randint(0, 6)):
                slots = [((), alpha)] if t.root is None else t.empty_slots()
                if not slots:
                    break
                path, owner = rng.choice(slots)
                below = [l for l in labels if cmp(l, owner) < 0]
                if not below:
                    continue
                t2 = add_leaf(t, path, rng.choice(below))
                assert cmp(height_tree(t2, alpha), height_tree(t, alpha)) < 0
                t = t2


class TestBruteForce:
    def test_bound_one(self):
        table = brute_force_height(2, 1)
        assert table[LabelledTree(2)] == 1

    def test_bound_two(self):
        table = brute_force_height(2, 2)
        assert table[LabelledTree(2)] == 3

    def test_arity_one(self):
        table = brute_force_height(1, 2)
        assert table[LabelledTree(1)] == 2

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            brute_force_height(3, 4, max_trees=100)

    def test_unknown_tree_rejected(self):
        table = brute_force_height(2, 2)
        with pytest.raises(KeyError):
            table[LabelledTree(2, node(5, k=2))]

    @pytest.mark.parametrize(
        "k,m", [(1, 0), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2), (3, 3)]
    )
    def test_matches_fully_naive_enumeration(self, k, m):
        naive = naive_heights(k, m)
        table = brute_force_height(k, m)
        for t, h in naive.items():
            assert table[to_labelled(t, k)] == h
        # Same number of height classes as distinct naive heights per class:
        assert table[LabelledTree(k)] == naive[None]

    def test_class_count_small_space(self):
        # 2-trees below 2: empty, (0), (1), (1 (0) _), (1 (0) (0)).
        assert len(brute_force_height(2, 2)) == 5

    def test_lookup_ignores_slot_order(self):
        table = brute_force_height(2, 3)
        left = LabelledTree(2, node(2, node(0, k=2), None, k=2))
        right = LabelledTree(2, node(2, None, node(0, k=2), k=2))
        assert table[left] == table[right]
        assert height_tree(left, 3) == height_tree(right, 3)
