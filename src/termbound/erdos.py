"""Colored lists and k-ary trees over coordinatewise descent relations.

Points are k-tuples of naturals; the h-th relation holds between a later
and an earlier point when coordinate h strictly decreases. A sequence is
homogeneous when every later point is below every earlier one in some
coordinate; ``is_homogeneous`` tests all pairs with ``cover_pairs``, the
join of ``termlang.check_invariant``, one relation per coordinate, within
the same pair budget. Homogeneous sequences embed into k-ary trees of
colored lists: each new point descends from the root, at every node
following the child edge colored by the first decreasing coordinate, and
becomes a new leaf. Along one branch, the elements followed by color-h
edges therefore build one strictly h-decreasing list per color
simultaneously.

Every tree node gets an ordinal label below ``w * k`` from the
coordinates of its nearest ancestors per color; labels strictly decrease
along edges, so the labelled image lives in the bounded-tree poset of
``ktree`` and its height (``height_of_tree``) is an ordinal measure below
``w^k`` that strictly decreases whenever the sequence grows. That
measure, ``f_star``, is the bridge from homogeneous sequences to integer
vectors ordered lexicographically.

A point is checked once, where it enters: by ``_check_point`` in ``embed``
and ``is_homogeneous``, by ``bounds.all_natural`` in ``termlang.PhiSequence``.
``ErdosTree.insert`` takes checked points as they are.

``ErdosTree`` is the one tree: it grows in place, labels each new leaf as
it is added and counts each label's empty slots, from which ``vector``
and, for every prefix, ``MeasureRows`` give the measure. Its nodes sit in one
list in insertion order, each with its parent's index and edge color, so
a parent precedes its children; the structured document
(``erdos_to_doc``) is that list, one entry per point. A descent bisects
each run of same-colored edges on its path, and a label ``w * m + n`` is
the int pair ``(m, n)`` whose height vector has a closed form
(``height_vector``), so a point costs a few bisects and integer sums.
``to_labelled_tree`` and ``height_of_tree`` recompute every label and the
height with ordinals from the points alone; they are the rebuild path
that the test oracles (``f_star_vec`` and the node-by-node ``WalkTree``
in ``tests/oracles.py``, which updates a vector on every insert) check the
vector and the rows against.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from itertools import accumulate, chain, compress, islice, repeat
from operator import add, mul, ne, or_, sub, xor

from .errors import BudgetExceeded, LabelNotDecreasing, NoRelation, NotHomogeneous, Record
from .ktree import LabelledTree, Node, height_tree
from .ordinals import OMEGA, Ordinal, from_vector, int_power, nat_prod_nat, nat_sum, nat_sum_all

Point = tuple[int, ...]


def _check_point(p: Sequence[int], k: int) -> Point:
    p = tuple(p)
    if len(p) != k:
        raise ValueError(f"point {p} does not have {k} coordinates")
    if any(type(c) is not int or c < 0 for c in p):
        raise ValueError(f"point {p} has non-natural coordinates")
    return p


# Ordered pairs a pair-coverage join may cover: up to 14,142 items. Time and memory
# grow with their square; 10,000 steps, the default run budget, give 50,005,000 pairs.
MAX_CHECK_PAIRS = 100_000_000


def pairs_in_budget(n: int, stage: str) -> int:
    """The n(n-1)/2 ordered pairs of n items; BudgetExceeded past ``MAX_CHECK_PAIRS``."""
    pairs = n * (n - 1) // 2
    if pairs > MAX_CHECK_PAIRS:
        raise BudgetExceeded(f"{stage}: {pairs} pairs exceed the pair budget of {MAX_CHECK_PAIRS}")
    return pairs


class _Column:
    """One value per position (a trace state or a point), as bitsets over the positions.

    A value often holds over a run of positions, so each maximal run of
    equal values, positions a to b - 1, is ORed into its value's bitset as
    one block of b - a set bits; bit j stays position j.

    ``masks(keys, op)`` gives, for each key, the states whose value is
    equal to it (``=``), below it (``<``) or above it (``>``): one dict
    lookup per key, or one bisect per distinct key into the prefix ORs
    over the sorted values.
    """

    def __init__(self, values: Sequence[int]):
        eq: dict[int, int] = {}
        n = len(values)
        starts = list(compress(range(n), chain((True,), map(ne, values[1:], values))))
        for a, b in zip(starts, starts[1:] + [n]):
            v = values[a]
            eq[v] = eq.get(v, 0) | ((1 << (b - a)) - 1) << a
        self.eq = eq
        self.sorted = sorted(self.eq)
        # below[k]: the states valued under sorted[k]
        self.below = list(accumulate((self.eq[v] for v in self.sorted), or_, initial=0))
        self._above: list[int] | None = None

    def masks(self, keys: Sequence[int], op: str) -> list[int]:
        if op == "=":
            return list(map(self.eq.get, keys, repeat(0)))
        if op == "<":
            find, prefix = bisect_left, self.below
        else:
            if self._above is None:  # above[k]: the states valued at least sorted[k]
                # below[-1] ORs every run: all positions, or 0 for an empty column.
                self._above = list(map(xor, repeat(self.below[-1]), self.below))
            find, prefix = bisect_right, self._above
        # Keys repeat along a trace: 0.3-6.5% of them are distinct on compiled
        # traces of 107-12,186 states, where this is 1.7-2.9 times faster than
        # one bisect per key (1.3 times slower when every key is distinct).
        distinct = list(set(keys))
        at = dict(zip(distinct, map(prefix.__getitem__, map(find, repeat(self.sorted), distinct))))
        return list(map(at.__getitem__, keys))


def _bitset(flags: Sequence[bool]) -> int:
    """The int whose bit j is ``flags[j]``."""
    return int(bytes(reversed(flags)).translate(bytes.maketrans(b"\0\1", b"01")) or b"0", 2)


def _low_bits(mask: int, limit: int) -> list[int]:
    """Positions of the lowest ``limit`` set bits of ``mask``, ascending."""
    out = []
    while mask and len(out) < limit:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def cover_pairs(
    n: int, plans: Sequence[tuple], limit: int, *, stop_when_listed: bool = False
) -> tuple[list, list, int, int]:
    """Join ranked relations over the pairs (i < j) of n positions; bit j is position j.

    A plan ``(name, pre_ok, post_mask, mixed, below)`` holds on (i, j) when
    ``pre_ok[i]`` is true and bit j is set in ``post_mask`` and in ``masks[i]``
    for each ``masks`` in ``mixed``; its rank falls there when bit j of
    ``below[i]`` is set. Returns the first ``limit`` uncovered pairs (i, j),
    the first ``limit`` rank violations (i, j, name), both in order of i, j
    and plan, and the total of each. With ``stop_when_listed`` it returns
    as soon as the uncovered listing is full, and the totals and the
    violation listing are then partial.
    """
    full = (1 << n) - 1
    uncovered, violations, uncovered_total, violation_total = [], [], 0, 0
    for i in range(n - 1):
        after = full ^ ((2 << i) - 1)
        covered = 0
        bad = []
        for name, pre_ok, post_mask, mixed, below in plans:
            if not pre_ok[i]:
                continue
            m = after & post_mask
            for masks in mixed:
                m &= masks[i]
            hit = m & below[i]
            covered |= hit
            if m != hit:
                violation_total += (m ^ hit).bit_count()
                bad.append((m ^ hit, name))
        if missed := after ^ covered:
            uncovered_total += missed.bit_count()
            room = limit - len(uncovered)
            if room > 0:
                uncovered.extend((i, j) for j in _low_bits(missed, room))
                if stop_when_listed and len(uncovered) == limit:
                    break
        room = limit - len(violations)
        if bad and room > 0:
            union = 0
            for v, _ in bad:
                union |= v
            for j in _low_bits(union, room):
                violations.extend((i, j, name) for v, name in bad if v >> j & 1)
            del violations[limit:]
    return uncovered, violations, uncovered_total, violation_total


def _first_uncovered(pts: list[Point]) -> tuple[int, int] | None:
    """The least pair (i, j), i < j, with no h such that pts[j][h] < pts[i][h], or None.

    The points are checked ones, all of one length k (``_check_point``).
    Coordinate h is one ``cover_pairs`` plan, ranked by itself, so with no
    rank violation; with k = 0 there is none and no pair is covered. The
    join stops at the first i with an uncovered pair.
    """
    pairs_in_budget(len(pts), "is_homogeneous")
    everywhere = [True] * len(pts)
    below = [_Column(col).masks(col, "<") for col in zip(*pts)]
    plans = [(h, everywhere, _bitset(everywhere), [b], b) for h, b in enumerate(below)]
    uncovered = cover_pairs(len(pts), plans, 1, stop_when_listed=True)[0]
    return uncovered[0] if uncovered else None


def is_homogeneous(s: Sequence[Sequence[int]], k: int) -> bool:
    """True when every later point descends below every earlier point.

    For all i < j some coordinate h has s[j][h] < s[i][h]; the empty and
    singleton sequences are vacuously homogeneous.
    """
    return _first_uncovered([_check_point(p, k) for p in s]) is None


class ColoredList(Record):
    """A list of points with a color on each of its n-1 edges."""

    __slots__ = ("points", "colors")

    def __init__(self, points: tuple[Point, ...], colors: tuple[int, ...]):
        if len(colors) != max(0, len(points) - 1):
            raise ValueError("need exactly one color per edge")
        super().__init__(points, colors)


class _Node:
    __slots__ = ("point", "label", "parent", "color", "children", "run")

    def __init__(self, point, label, parent, color, children, run):
        self.point = point
        self.label = label  # (m, n) for the label w * m + n
        self.parent = parent  # index in ErdosTree.nodes; -1 for the root
        self.color = color  # color of the edge from the parent; 0 for the root
        self.children = children  # index of the child per color; -1 for none
        # The maximal run of color-``color`` edges that enters this node (None
        # for the root), as columns over the nodes it enters, in path order:
        # their indices, their negated coordinate ``color`` and one list per
        # earlier coordinate. Every column only grows at its tail.
        self.run = run


def height_vector(k: int, m: int, n: int) -> tuple[int, ...]:
    """``to_vector(height_nil(k, w * m + n), k)`` in closed form, for m < k."""
    if k == 1:
        return (n,)
    power = int_power(k, n)
    vec = [0] * (k - 1) + [(power - 1) // (k - 1)]
    if m:
        vec[k - 1 - m] = power
    return tuple(vec)


class ErdosTree:
    """A prefix-closed trie of colored lists, keyed by color sequences,
    with the labels and free slots that give the measure of the sequence
    inserted so far.

    The empty colored list is always present; a nonempty tree has a single
    root point and at most one child per color at every node, so each
    branch is addressed by its color sequence. The tree grows in place:
    ``nodes`` holds one node per inserted point, in insertion order, so the
    root is ``nodes[0]`` and every parent comes before its children. A
    node shares with the nodes above it by edges of its own color the
    columns of that run of edges: the nodes' indices, their negated
    coordinate of that color, and each coordinate before it.

    The measure is the height of the labelled tree: the natural sum, over
    its empty slots, of ``h_k`` at the slot owner's label, and below
    ``w^k`` a natural sum is a coefficient-wise vector sum. A label
    ``w * m + n`` is kept as the pair ``(m, n)``, so labels compare as
    tuples. A label depends only on the node's ancestors and never changes
    once its leaf exists, so the tree keeps no vector: ``free`` maps each
    label to the number of empty child slots that nodes with that label
    own, and ``vector`` is the sum over ``free`` of each count times the
    label's ``height_vector``, computed when it is read (``()`` while the
    tree is empty). Adding a leaf labelled ``L`` in a slot owned by a node
    labelled ``P`` adds k to ``free[L]`` and takes 1 from ``free[P]``; the
    first point fills the one slot of the empty tree, owned by ``w * k``,
    which is not counted. ``MeasureRows`` gives the vector after each
    point from the labels alone.
    """

    def __init__(self, k: int):
        self.k = k
        self.nodes: list[_Node] = []
        self.free: dict[tuple[int, int], int] = {}
        self._height_vec: dict[tuple[int, int], tuple[int, ...]] = {}

    @property
    def vector(self) -> tuple[int, ...]:
        """The measure vector: each ``free`` count times its label's height vector, summed."""
        if not self.nodes:
            return ()
        slots = list(self.free.values())
        columns = zip(*map(self._height_vec.__getitem__, self.free))
        return tuple(sum(map(mul, slots, column)) for column in columns)

    def branch_count(self) -> int:
        """Number of nonempty branches, i.e. nodes."""
        return len(self.nodes)

    def branches(self) -> list[ColoredList]:
        """All nonempty branches, ordered by their color sequence."""
        out: list[ColoredList] = []
        for n in self.nodes:
            if n.parent < 0:
                out.append(ColoredList((n.point,), ()))
            else:
                up = out[n.parent]
                out.append(ColoredList(up.points + (n.point,), up.colors + (n.color,)))
        out.sort(key=lambda b: b.colors)
        return out

    def insert(self, y: Point) -> None:
        """Add ``y`` as a new leaf on its descent path.

        From the root, ``y`` follows at every node the child edge colored
        by the first coordinate in which it descends below that node's
        point. Along a run of color-c edges coordinate c strictly falls and
        every coordinate before it only rises, so ``y`` takes color c on a
        prefix of the run, which ends at the first node whose coordinate c
        is not above ``y``'s or whose coordinate h < c is above ``y``'s.
        Each of those c conditions is one bisect into a column the run
        keeps (coordinate c negated, so that it rises too), and the prefix
        ends at the least of them; a node's color is computed only at the
        node after that end. The caller hands ``y`` checked and guarantees
        homogeneity, as ``embed`` and ``PhiSequence`` do, so only the
        descent path is compared with ``y``. The new label's height vector
        is memoized here, so a label past the ``MAX_POWER_BITS`` budget
        raises BudgetExceeded here.
        Raises NoRelation when ``y`` does not descend below a node on the
        path, and LabelNotDecreasing, like ``to_labelled_tree``, if the new
        label is not below its parent's; the tree is then unchanged.
        """
        k, nodes, memo = self.k, self.nodes, self._height_vec
        nearest: dict[int, int] = {}  # h: coordinate h of the nearest color-(h+1) ancestor
        parent, h = -1, -1
        cur = 0 if nodes else -1
        while cur >= 0:
            n = nodes[cur]
            point = n.point
            h = 0  # the first coordinate in which y falls below point, 0-based
            while h < k and y[h] >= point[h]:
                h += 1
            if h == k:
                raise NoRelation(f"{tuple(y)} does not descend below {tuple(point)}")
            nearest[h] = point[h]
            parent, cur = cur, n.children[h]
            if cur >= 0:
                # n's own edge is not colored h + 1, so cur heads its run.
                indices, neg, prior = nodes[cur].run
                end = bisect_left(neg, -y[h])
                if prior:
                    end = min(end, *map(bisect_right, prior, y))
                if end:
                    parent = indices[end - 1]
                    nearest[h] = -neg[end - 1]
                cur = indices[end] if end < len(indices) else -1
        color = h + 1
        free = self.free
        if parent < 0:
            label, run = (k - 1, max(y) + 1), None
            memo[label] = height_vector(k, *label)
        else:
            label = (k - len(nearest), sum(nearest.values()))
            if label not in memo:
                memo[label] = height_vector(k, *label)
            owner = nodes[parent]
            if label >= owner.label:
                raise LabelNotDecreasing(
                    f"label {from_vector(label)} of {y} not below parent label "
                    f"{from_vector(owner.label)}"
                )
            free[owner.label] -= 1
            owner.children[color - 1] = len(nodes)
            run = owner.run if owner.color == color else ([], [], [[] for _ in range(color - 1)])
            run[0].append(len(nodes))
            run[1].append(-y[color - 1])
            for column, value in zip(run[2], y):
                column.append(value)
        free[label] = free.get(label, 0) + k
        nodes.append(_Node(y, label, parent, color, [-1] * k, run))


class MeasureRows:
    """The measure vector of a tree after each of its points: row m is the
    ``vector`` of the tree of points 0..m.

    The rows are not stored. The first point's row is ``k * vec(L_0)``,
    and point i > 0 adds ``k * vec(L_i) - vec(P_i)`` for its label ``L_i``
    and its parent's label ``P_i`` (``vec`` the label's ``height_vector``),
    so row m is a prefix sum over the nodes, which keep both labels.
    Iteration replays every row from row 0; indexing replays with one
    cursor, so reads in increasing order cost one step per row passed in
    all, and a read below the cursor restarts it from row 0. The last
    row is the tree's ``vector``, from its free-slot counts, taken when
    the rows are made; a tree that grows later adds no rows.
    """

    def __init__(self, tree: ErdosTree):
        self._tree = tree
        self._len = len(tree.nodes)
        self._last = tree.vector
        self._replay = iter(self)
        self._at, self._row = -1, ()

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        k, nodes, memo = self._tree.k, self._tree.nodes, self._tree._height_vec
        row: tuple[int, ...] = ()
        for node in islice(nodes, self._len):
            gained = memo[node.label]
            if node.parent < 0:
                row = tuple(k * g for g in gained)
            else:
                lost = memo[nodes[node.parent].label]
                row = tuple(map(sub, map(add, row, map(mul, repeat(k), gained)), lost))
            yield row

    def __getitem__(self, m: int) -> tuple[int, ...]:
        if m < 0:
            m += self._len
        if not 0 <= m < self._len:
            raise IndexError("row index out of range")
        if m == self._len - 1:
            return self._last
        if m < self._at:
            self._replay, self._at = iter(self), -1
        while self._at < m:
            self._row = next(self._replay)
            self._at += 1
        return self._row


def embed(s: Sequence[Sequence[int]], k: int) -> ErdosTree:
    """Fold a homogeneous sequence into its tree of colored lists.

    One point inserted at a time; each insertion adds exactly one leaf,
    so the embedding is a simulation of sequence extension by one-node
    tree extension.
    """
    pts = [_check_point(p, k) for p in s]  # checked once, for the join and the inserts
    if pair := _first_uncovered(pts):
        i, j = pair
        raise NotHomogeneous(
            f"not homogeneous: no coordinate falls from {pts[i]} (point {i}) to "
            f"{pts[j]} (point {j})"
        )
    t = ErdosTree(k)
    for y in pts:
        t.insert(y)
    return t


def _label(point: Point, nearest: dict[int, Point], k: int) -> Ordinal:
    """Label below ``w * k`` of the node at ``point`` given its nearest
    ancestor per color.

    The root (no ancestors) gets ``max(coords) + 1`` plus ``w * (k-1)``;
    a node with i distinct colors above it gets the natural sum of the
    h-th coordinate of its nearest color-h ancestor over those colors,
    plus ``w * (k-i)``.
    """
    if not nearest:
        return nat_sum(max(z + 1 for z in point), nat_prod_nat(OMEGA, k - 1))
    return nat_sum(
        nat_sum_all(p[h - 1] for h, p in nearest.items()),
        nat_prod_nat(OMEGA, k - len(nearest)),
    )


def to_labelled_tree(t: ErdosTree) -> LabelledTree:
    """Same shape as ``t`` (child slot = color) with ordinal labels.

    Every label is recomputed from the points; the labels ``insert``
    stored are not read. Labels strictly decrease from parent to child; a
    violation would falsify the labelling construction and raises
    LabelNotDecreasing.
    """
    if not t.nodes:
        return LabelledTree(t.k)
    # A parent comes before its children: each node's nearest ancestor per
    # color is its parent's plus the parent itself, and building in reverse
    # order finds every child built.
    nearest: list[dict[int, Point]] = []
    labels: list[Ordinal] = []
    for n in t.nodes:
        up = {}
        if n.parent >= 0:
            up = {**nearest[n.parent], n.color: t.nodes[n.parent].point}
        nearest.append(up)
        labels.append(_label(n.point, up, t.k))
    children: list[list[Node | None]] = [[None] * t.k for _ in t.nodes]
    for index in range(len(t.nodes) - 1, 0, -1):
        n = t.nodes[index]
        children[n.parent][n.color - 1] = Node(labels[index], tuple(children[index]))
    return LabelledTree(t.k, Node(labels[0], tuple(children[0])))


def height_of_tree(t: ErdosTree) -> Ordinal:
    """Height of an embedded tree's labelled image below ``w * k``."""
    return height_tree(to_labelled_tree(t), nat_prod_nat(OMEGA, t.k))


# --- serialization -----------------------------------------------------------


def erdos_to_doc(t: ErdosTree) -> dict:
    """One entry per node, in insertion order: its point, its parent's
    index and the color of the edge from it, both null for the root."""
    return {
        "k": t.k,
        "nodes": [
            {
                "point": list(n.point),
                "parent": n.parent if n.parent >= 0 else None,
                "color": n.color or None,
            }
            for n in t.nodes
        ],
    }
