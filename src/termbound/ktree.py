"""Finite k-branching trees with strictly decreasing ordinal labels.

A tree is either empty or a node carrying an ordinal label and exactly k
child slots; every occupied slot holds a node labelled strictly below its
parent. Trees with all labels below a bound ``alpha`` form a well-founded
poset under one-node extension, and ``height_tree`` computes the exact
ordinal height of a tree in that poset through the closed forms

    h_k(empty, n)       = (k^n - 1) / (k - 1)          for finite n,
    h_k(empty, l + n)   = k^(l+n) + (k^n - 1)/(k - 1)  for l a limit,
    h_1(empty, a)       = a,

and the natural sum of the slot heights for nonempty trees. No supremum
over label sequences is ever enumerated.

The independent oracle for finite label bounds, ``brute_force_height``,
enumerates the whole poset and computes heights directly from the
one-node-extension recursion; it lives with the other test oracles in
``tests/oracles.py``.

Trees are immutable and built whole, as ``erdos.to_labelled_tree`` builds
the labelled image of a colored tree; nothing here reads tree text or adds
one node to an existing tree.
"""

from __future__ import annotations

from .errors import LabelNotDecreasing, Record
from .ordinals import Ordinal, add, cmp, exp_base_k, int_power, nat_sum_all


class Node(Record):
    __slots__ = ("label", "children")


class LabelledTree(Record):
    """A k-branching tree; ``root is None`` denotes the empty tree."""

    __slots__ = ("k", "root")

    def __init__(self, k: int, root: Node | None = None):
        if k < 1:
            raise ValueError("arity must be at least 1")
        _validate(root, k)
        super().__init__(k, root)

    def empty_slots(self) -> list[tuple[tuple[int, ...], Ordinal]]:
        """All (path, owner label) pairs addressing an empty slot."""
        out: list[tuple[tuple[int, ...], Ordinal]] = []
        stack = [] if self.root is None else [(self.root, None, ())]
        while stack:
            n, owner, path = stack.pop()
            if n is None:
                out.append((path, owner))
                continue
            for i in range(len(n.children), 0, -1):
                stack.append((n.children[i - 1], n.label, path + (i,)))
        return out


def _validate(root: Node | None, k: int) -> None:
    stack: list[tuple[Node | None, Ordinal | None]] = [(root, None)]
    while stack:
        node, parent_label = stack.pop()
        if node is None:
            continue
        if len(node.children) != k:
            raise ValueError(f"node has {len(node.children)} slots, expected {k}")
        if parent_label is not None and cmp(node.label, parent_label) >= 0:
            raise LabelNotDecreasing(
                f"label {node.label} not below parent {parent_label}"
            )
        stack.extend((child, node.label) for child in reversed(node.children))


def height_nil(k: int, alpha: Ordinal | int) -> Ordinal:
    """Ordinal height of the empty tree among k-trees labelled below alpha."""
    if k < 1:
        raise ValueError("arity must be at least 1")
    alpha = alpha if isinstance(alpha, Ordinal) else Ordinal.from_int(alpha)
    if k == 1:
        return alpha
    n = alpha.finite_part
    geometric = (int_power(k, n) - 1) // (k - 1)
    if alpha.limit_part.is_zero:
        return Ordinal.from_int(geometric)
    return add(exp_base_k(k, alpha), geometric)


def height_tree(t: LabelledTree, alpha: Ordinal | int) -> Ordinal:
    """Ordinal height of ``t`` among k-trees labelled below alpha.

    The natural sum, over every empty slot, of the empty-tree height at
    the slot owner's label; for the empty tree the bound itself owns the
    root slot.
    """
    if t.root is None:
        return height_nil(t.k, alpha)
    return nat_sum_all(
        height_nil(t.k, owner) for _, owner in t.empty_slots()
    )
