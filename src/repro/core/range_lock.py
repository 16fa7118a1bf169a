"""Range lock protecting flash-mapped data sections (Section 4.3).

Flashvisor does not tag every page-table entry with an owner; instead it
keeps an augmented red-black tree of locked page ranges.  A request to map
a data section for *reads* is blocked while any overlapping range is locked
for *writes*, and a *write* mapping is blocked while any overlapping range
is locked at all (read or write) — i.e. multiple concurrent readers are
allowed, writers are exclusive.

The tree is keyed by the start page number of the range; each node is
augmented with the maximum end page in its subtree so overlap queries are
O(log n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

READ = "read"
WRITE = "write"

RED = True
BLACK = False


@dataclass
class LockedRange:
    """One locked interval of flash page groups, inclusive of both ends."""

    start: int
    end: int
    mode: str
    owner: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError("invalid range")
        if self.mode not in (READ, WRITE):
            raise ValueError(f"unknown lock mode: {self.mode!r}")

    def overlaps(self, start: int, end: int) -> bool:
        return self.start <= end and start <= self.end


class _Node:
    __slots__ = ("range", "left", "right", "parent", "color", "max_end")

    def __init__(self, locked_range: LockedRange):
        self.range = locked_range
        self.left: Optional[_Node] = None
        self.right: Optional[_Node] = None
        self.parent: Optional[_Node] = None
        self.color = RED
        self.max_end = locked_range.end


def _is_black(node: Optional[_Node]) -> bool:
    return node is None or node.color is BLACK


class RangeLockConflict(Exception):
    """Raised (or returned as a denial) when a lock request conflicts."""

    def __init__(self, requested: LockedRange, conflicting: LockedRange):
        super().__init__(
            f"range [{requested.start}, {requested.end}] ({requested.mode}) "
            f"conflicts with [{conflicting.start}, {conflicting.end}] "
            f"({conflicting.mode}) held by kernel {conflicting.owner}")
        self.requested = requested
        self.conflicting = conflicting


class RangeLock:
    """Interval red-black tree implementing Flashvisor's range lock."""

    def __init__(self) -> None:
        self._root: Optional[_Node] = None
        self._size = 0

    # -- public API -------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def try_acquire(self, start: int, end: int, mode: str,
                    owner: int) -> Optional[RangeLockConflict]:
        """Attempt to lock [start, end]; returns a conflict or None on success.

        Read/read overlaps are permitted (even between different kernels);
        any overlap involving a write is a conflict, matching the paper's
        description of the protection rule.
        """
        requested = LockedRange(start=start, end=end, mode=mode, owner=owner)
        conflict = self._find_conflict(start, end, mode)
        if conflict is not None:
            return RangeLockConflict(requested, conflict)
        self._insert(requested)
        return None

    def acquire(self, start: int, end: int, mode: str, owner: int) -> LockedRange:
        """Lock [start, end] or raise :class:`RangeLockConflict`."""
        conflict = self.try_acquire(start, end, mode, owner)
        if conflict is not None:
            raise conflict
        return LockedRange(start=start, end=end, mode=mode, owner=owner)

    def release(self, start: int, end: int, owner: int) -> bool:
        """Release the lock previously acquired on [start, end] by ``owner``."""
        node = self._find_exact(start, end, owner)
        if node is None:
            return False
        self._remove(node)
        return True

    def release_owner(self, owner: int) -> int:
        """Release every range held by ``owner``; returns how many."""
        victims = [r for r in self.ranges() if r.owner == owner]
        for locked in victims:
            self.release(locked.start, locked.end, owner)
        return len(victims)

    def ranges(self) -> List[LockedRange]:
        """All currently locked ranges, in start order."""
        return [node.range for node in self._nodes()]

    def conflicts_with(self, start: int, end: int, mode: str) -> List[LockedRange]:
        """All locked ranges that would block a [start, end] ``mode`` request."""
        return [node.range for node in self._nodes()
                if node.range.overlaps(start, end)
                and not (node.range.mode == READ and mode == READ)]

    # -- searches -------------------------------------------------------------
    def _find_conflict(self, start: int, end: int,
                       mode: str) -> Optional[LockedRange]:
        """A locked range that blocks a [start, end] ``mode`` request.

        Depth-first over the subtrees that can hold an overlap: none can
        whose ``max_end`` lies before ``start``, and a node that starts
        after ``end`` rules out its right subtree.  A write request stops
        at the first overlap; a read request passes over overlapping
        reads, so it visits O(log n) nodes plus those reads.
        """
        root = self._root
        if root is None or root.max_end < start:
            return None
        read = mode == READ
        stack = [root]
        pop = stack.pop
        push = stack.append
        while stack:
            node = pop()
            locked = node.range
            if locked.start <= end:
                if locked.end >= start and not (read and locked.mode == READ):
                    return locked
                right = node.right
                if right is not None and right.max_end >= start:
                    push(right)
            left = node.left
            if left is not None and left.max_end >= start:
                push(left)
        return None

    def _find_exact(self, start: int, end: int, owner: int) -> Optional[_Node]:
        """BST descent to the node locking exactly [start, end] for ``owner``.

        Rotations can leave ranges with equal starts on both sides of a
        node, so an equal start searches both subtrees.
        """
        node = self._root
        stack: List[_Node] = []
        while True:
            while node is not None:
                locked = node.range
                if start < locked.start:
                    node = node.left
                elif start > locked.start:
                    node = node.right
                else:
                    if locked.end == end and locked.owner == owner:
                        return node
                    if node.right is not None:
                        stack.append(node.right)
                    node = node.left
            if not stack:
                return None
            node = stack.pop()

    def _nodes(self) -> List[_Node]:
        """Every node in start order (iterative in-order walk)."""
        nodes: List[_Node] = []
        stack: List[_Node] = []
        node = self._root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            nodes.append(node)
            node = node.right
        return nodes

    # -- red-black machinery -----------------------------------------------
    def _insert(self, locked_range: LockedRange) -> None:
        new = _Node(locked_range)
        parent, node = None, self._root
        while node is not None:
            parent = node
            node = node.left if locked_range.start < node.range.start else node.right
        new.parent = parent
        if parent is None:
            self._root = new
        elif locked_range.start < parent.range.start:
            parent.left = new
        else:
            parent.right = new
        self._size += 1
        self._update_max_up(new)
        self._fix_insert(new)

    def _transplant(self, old: _Node, new: Optional[_Node]) -> None:
        """Put ``new`` where ``old`` hangs from its parent."""
        parent = old.parent
        if parent is None:
            self._root = new
        elif old is parent.left:
            parent.left = new
        else:
            parent.right = new
        if new is not None:
            new.parent = parent

    def _remove(self, node: _Node) -> None:
        """CLRS red-black delete, keeping ``max_end`` exact on the way."""
        self._size -= 1
        removed_color = node.color
        if node.left is None:
            child, parent = node.right, node.parent
            self._transplant(node, child)
        elif node.right is None:
            child, parent = node.left, node.parent
            self._transplant(node, child)
        else:
            # Splice out the in-order successor and put it in node's place.
            successor = node.right
            while successor.left is not None:
                successor = successor.left
            removed_color = successor.color
            child = successor.right
            if successor.parent is node:
                parent = successor
            else:
                parent = successor.parent
                self._transplant(successor, child)
                successor.right = node.right
                successor.right.parent = successor
            self._transplant(node, successor)
            successor.left = node.left
            successor.left.parent = successor
            successor.color = node.color
        # Only the subtrees on the path above the splice point changed.
        self._update_max_up(parent)
        if removed_color is BLACK:
            self._fix_remove(child, parent)

    def _rotate_left(self, x: _Node) -> None:
        y = x.right
        x.right = y.left
        if y.left is not None:
            y.left.parent = x
        y.parent = x.parent
        if x.parent is None:
            self._root = y
        elif x is x.parent.left:
            x.parent.left = y
        else:
            x.parent.right = y
        y.left = x
        x.parent = y
        self._update_max(x)
        self._update_max(y)

    def _rotate_right(self, x: _Node) -> None:
        y = x.left
        x.left = y.right
        if y.right is not None:
            y.right.parent = x
        y.parent = x.parent
        if x.parent is None:
            self._root = y
        elif x is x.parent.right:
            x.parent.right = y
        else:
            x.parent.left = y
        y.right = x
        x.parent = y
        self._update_max(x)
        self._update_max(y)

    @staticmethod
    def _update_max(node: _Node) -> None:
        best = node.range.end
        left, right = node.left, node.right
        if left is not None and left.max_end > best:
            best = left.max_end
        if right is not None and right.max_end > best:
            best = right.max_end
        node.max_end = best

    def _update_max_up(self, node: Optional[_Node]) -> None:
        update = self._update_max
        while node is not None:
            update(node)
            node = node.parent

    def _fix_insert(self, node: _Node) -> None:
        while node.parent is not None and node.parent.color is RED:
            grand = node.parent.parent
            if grand is None:
                break
            if node.parent is grand.left:
                uncle = grand.right
                if uncle is not None and uncle.color is RED:
                    node.parent.color = BLACK
                    uncle.color = BLACK
                    grand.color = RED
                    node = grand
                else:
                    if node is node.parent.right:
                        node = node.parent
                        self._rotate_left(node)
                    node.parent.color = BLACK
                    grand.color = RED
                    self._rotate_right(grand)
            else:
                uncle = grand.left
                if uncle is not None and uncle.color is RED:
                    node.parent.color = BLACK
                    uncle.color = BLACK
                    grand.color = RED
                    node = grand
                else:
                    if node is node.parent.left:
                        node = node.parent
                        self._rotate_right(node)
                    node.parent.color = BLACK
                    grand.color = RED
                    self._rotate_left(grand)
        # Rotations keep max_end exact locally and recoloring does not
        # touch it, so the walk in _insert already left it correct.
        if self._root is not None:
            self._root.color = BLACK

    def _fix_remove(self, node: Optional[_Node],
                    parent: Optional[_Node]) -> None:
        """Restore the red-black rules after a black node left ``parent``.

        ``node`` (possibly ``None``) carries the extra black; CLRS's
        sentinel is replaced by tracking its parent explicitly.
        """
        while node is not self._root and (node is None
                                          or node.color is BLACK):
            if node is parent.left:
                sibling = parent.right
                if sibling.color is RED:
                    sibling.color = BLACK
                    parent.color = RED
                    self._rotate_left(parent)
                    sibling = parent.right
                if _is_black(sibling.left) and _is_black(sibling.right):
                    sibling.color = RED
                    node, parent = parent, parent.parent
                    continue
                if _is_black(sibling.right):
                    sibling.left.color = BLACK
                    sibling.color = RED
                    self._rotate_right(sibling)
                    sibling = parent.right
                sibling.color = parent.color
                parent.color = BLACK
                sibling.right.color = BLACK
                self._rotate_left(parent)
            else:
                sibling = parent.left
                if sibling.color is RED:
                    sibling.color = BLACK
                    parent.color = RED
                    self._rotate_right(parent)
                    sibling = parent.left
                if _is_black(sibling.left) and _is_black(sibling.right):
                    sibling.color = RED
                    node, parent = parent, parent.parent
                    continue
                if _is_black(sibling.left):
                    sibling.right.color = BLACK
                    sibling.color = RED
                    self._rotate_left(sibling)
                    sibling = parent.left
                sibling.color = parent.color
                parent.color = BLACK
                sibling.left.color = BLACK
                self._rotate_right(parent)
            node = self._root
        if node is not None:
            node.color = BLACK

    # -- invariants (used by property-based tests) ---------------------------
    def check_invariants(self) -> None:
        """Validate BST order, max-end augmentation, and red-black rules."""
        def black_height(node: Optional[_Node]) -> int:
            if node is None:
                return 1
            if node.color is RED:
                for child in (node.left, node.right):
                    if child is not None and child.color is RED:
                        raise AssertionError("red node with red child")
            left = black_height(node.left)
            right = black_height(node.right)
            if left != right:
                raise AssertionError("black heights differ")
            expected_max = node.range.end
            for child in (node.left, node.right):
                if child is not None:
                    expected_max = max(expected_max, child.max_end)
            if node.max_end != expected_max:
                raise AssertionError("max_end augmentation is stale")
            if node.left is not None and node.left.range.start > node.range.start:
                raise AssertionError("BST order violated (left)")
            if node.right is not None and node.right.range.start < node.range.start:
                raise AssertionError("BST order violated (right)")
            return left + (0 if node.color is RED else 1)

        if self._root is not None and self._root.color is RED:
            raise AssertionError("root must be black")
        black_height(self._root)
