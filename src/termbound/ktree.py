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

Everything here is immutable; ``extend`` shares all unmodified subtrees.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LabelNotDecreasing, OccupiedSlot, ParseError
from .ordinals import Ordinal, Scanner, add, cmp, exp_base_k, int_power
from .ordinals import nat_sum_all, read_ordinal


@dataclass(frozen=True)
class Node:
    label: Ordinal
    children: tuple["Node | None", ...]


@dataclass(frozen=True)
class LabelledTree:
    """A k-branching tree; ``root is None`` denotes the empty tree."""

    k: int
    root: Node | None = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("arity must be at least 1")
        _validate(self.root, self.k)

    @classmethod
    def empty(cls, k: int) -> "LabelledTree":
        return cls(k, None)

    @property
    def is_empty(self) -> bool:
        return self.root is None

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

    def __str__(self) -> str:
        return tree_to_text(self)


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


def node(label: Ordinal | int, *children: Node | None, k: int | None = None) -> Node:
    """Convenience constructor; missing slots are filled with empties."""
    label = label if isinstance(label, Ordinal) else Ordinal.from_int(label)
    if k is None:
        k = len(children)
    if len(children) > k:
        raise ValueError("more children than slots")
    slots = tuple(children) + (None,) * (k - len(children))
    return Node(label, slots)


def extend(
    t: LabelledTree, path: tuple[int, ...], label: Ordinal | int
) -> LabelledTree:
    """Add one node at an empty slot; the one-step extension of ``t``.

    ``path`` is a sequence of child indices in [1, k]; the empty path
    addresses the root. Raises OccupiedSlot if the path does not lead to
    an empty slot, LabelNotDecreasing if the label is not strictly below
    the owning node's label. The bound on root labels is the caller's
    concern, since a tree does not record which poset it lives in.
    """
    label = label if isinstance(label, Ordinal) else Ordinal.from_int(label)
    path = tuple(path)
    for i in path:
        if not 1 <= i <= t.k:
            raise ValueError(f"path index {i} outside [1, {t.k}]")
    if t.root is None:
        if path:
            raise OccupiedSlot("path does not address a slot of the empty tree")
        return LabelledTree(t.k, Node(label, (None,) * t.k))
    if not path:
        raise OccupiedSlot("root of a nonempty tree is occupied")

    def insert(n: Node, rest: tuple[int, ...]) -> Node:
        idx = rest[0] - 1
        child = n.children[idx]
        if len(rest) == 1:
            if child is not None:
                raise OccupiedSlot(f"slot {path} is occupied")
            new_child = Node(label, (None,) * t.k)
        else:
            if child is None:
                raise OccupiedSlot(f"path {path} runs past an empty slot")
            new_child = insert(child, rest[1:])
        children = n.children[:idx] + (new_child,) + n.children[idx + 1 :]
        return Node(n.label, children)

    return LabelledTree(t.k, insert(t.root, path))


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


# --- serialization -----------------------------------------------------------
#
# Nested parenthesized form ``(label child_1 ... child_k)`` with ``_`` for
# an empty slot; labels use the ordinal grammar. The empty tree is ``_``.


def tree_to_text(t: LabelledTree) -> str:
    def fmt(n: Node | None) -> str:
        if n is None:
            return "_"
        inner = " ".join(fmt(c) for c in n.children)
        return f"({n.label} {inner})"

    return fmt(t.root)


def tree_from_text(text: str, k: int) -> LabelledTree:
    sc = Scanner(text)

    def parse_node() -> Node | None:
        sc.skip_ws()
        if not sc.peek():
            raise ParseError("unexpected end of tree text")
        if sc.peek() == "_":
            sc.take()
            return None
        if sc.peek() != "(":
            raise ParseError(f"expected '(' or '_' at position {sc.pos}")
        sc.take()
        sc.skip_ws()
        label = read_ordinal(sc)
        if not sc.peek().isspace():
            raise ParseError(f"expected whitespace after the label at position {sc.pos}")
        children = []
        for _ in range(k):
            children.append(parse_node())
        sc.skip_ws()
        sc.expect(")")
        return Node(label, tuple(children))

    root = parse_node()
    sc.expect_end()
    return LabelledTree(k, root)
