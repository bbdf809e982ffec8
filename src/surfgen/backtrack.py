"""The table of backtrack points: substring reuse across solutions.

A backtrack point is recorded wherever a conflict set held more than one
rule.  Its *ego* collects one preterminal sequence per rule that succeeded
there; the *pre-context* and the *post-context* hold the surrounding
material, with nested points appearing symbolically.  Both are read off the
frontier of the point's layer, flattened once when the layer completes, and
off the contexts of the enclosing points.  Producing another solution never
re-derives the contexts: a new ego is generated from the point's stored
input and combined with everything already in the table, so the solution
set reads off as

    pre-context . {ego variants} . post-context

expanded through nested points, all combinations.  Partial results are
additionally memoized by (category, input) and spliced instead of being
re-derived when they recur.

Every ego variant carries the constraint obligations its rules asserted.
A combination is realized only if the union of its obligations is
consistent; inflection calls are resolved against that union, so agreement
features flipped by a new ego re-inflect material outside it.  The
obligations outside every choice point (the root layer) are the same in
every combination, so the session imposes them once for the whole stream.
Each combination is walked once, by ``combination_frontier``, which
collects its frontier, its resolved derivation, the obligations of its
chosen egos and its rule names together; ``combination_state`` then
imposes those obligations on top of the root layer.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Optional

from .engine import (ChoiceRef, ConstraintClash, DerivationNode, FeatureGraph,
                     flatten_frontier)
from .gil import FeatureStructure, fs_digest, fs_equal
from .tgl import Rule


@dataclass(eq=False)
class Variant:
    """One successful ego alternative: the rule that fired and its subtree.

    Compared by identity: a variant also serves as the ownership tag for
    the feature bindings asserted while it was being built.
    """

    rule_name: str
    node: Optional[DerivationNode]

    @cached_property
    def points(self) -> list["BacktrackPoint"]:
        """Choice points of the variant's own layer; read once it is built."""
        return layer_points(self.node.children)

    def __repr__(self) -> str:
        return f"Variant({self.rule_name!r})"


class BacktrackPoint:
    """A recorded conflict set with its surrounding context.

    ``layer`` is the frontier of the completed layer holding the point
    (shared by every point in it) and ``index`` the point's position there;
    both stay None while the layer is open.
    """

    __slots__ = ("id", "category", "input", "node_id", "parent",
                 "conflict_rules", "remainder", "consumed", "variants",
                 "layer", "index", "committed")

    def __init__(self, id: int, category: str, input: FeatureStructure,
                 node_id: int, rules: list[Rule],
                 parent: Optional[tuple["BacktrackPoint", int]]):
        self.id = id
        self.category = category
        self.input = input
        self.node_id = node_id
        self.parent = parent
        self.conflict_rules = tuple(rules)
        self.remainder: list[Rule] = list(rules)
        self.consumed: list[str] = []
        self.variants: list[Variant] = []
        self.layer: Optional[tuple] = None
        self.index = 0
        self.committed = False

    @property
    def exhausted(self) -> bool:
        return not self.remainder

    @property
    def pre_context(self) -> Optional[tuple]:
        """Material to the left, through enclosing points; None while open."""
        return self._context(left=True)

    @property
    def post_context(self) -> Optional[tuple]:
        """Material to the right, through enclosing points; None while open."""
        return self._context(left=False)

    def _context(self, left: bool) -> Optional[tuple]:
        parts = []
        point = self
        while point is not None:
            if point.layer is None:
                return None
            parts.append(point.layer[:point.index] if left
                         else point.layer[point.index + 1:])
            point = point.parent[0] if point.parent else None
        if left:
            parts.reverse()
        return tuple(itertools.chain.from_iterable(parts))

    def __repr__(self) -> str:
        return (f"<B{self.id} {self.category} variants={len(self.variants)} "
                f"remainder={len(self.remainder)}>")


class BTTable:
    """All backtrack points of one generation session, in creation order."""

    def __init__(self):
        self.points: dict[int, BacktrackPoint] = {}
        self._next_id = 1

    def record(self, category: str, input: FeatureStructure, node_id: int,
               rules: list[Rule], parent) -> BacktrackPoint:
        point = BacktrackPoint(self._next_id, category, input, node_id,
                               rules, parent)
        self._next_id += 1
        self.points[point.id] = point
        return point

    def remove(self, point: BacktrackPoint) -> None:
        self.points.pop(point.id, None)

    def open_points(self) -> list[BacktrackPoint]:
        """Unexhausted points, most recently created first."""
        return [p for p in reversed(self.points.values())
                if not p.exhausted]

    def __iter__(self) -> Iterator[BacktrackPoint]:
        return iter(self.points.values())

    def __len__(self) -> int:
        return len(self.points)


def fill_post_contexts(items) -> tuple:
    """Give the points of this (now complete) layer their contexts.

    Flattens one container subtree into its frontier, choice points staying
    symbolic, and hands every point in it the frontier and its position.
    Points inside ego variants are handled when their own variant completes.
    """
    layer = flatten_frontier(items)
    for index, item in enumerate(layer):
        if isinstance(item, ChoiceRef):
            item.point.layer = layer
            item.point.index = index
    return layer


# ---------------------------------------------------------------------------
# Memo cache for successfully generated partial results

class MemoCache:
    """(category, input) -> first generated result for that pair.

    A hit is only valid when the stored category equals the current one and
    the input structures are equal; the stored subtree is then spliced
    (copied with fresh feature nodes and re-recorded choice points) instead
    of being re-derived.
    """

    def __init__(self):
        self._entries: dict[tuple[str, int], list[tuple[FeatureStructure, object]]] = {}

    def lookup(self, category: str, fs: FeatureStructure):
        bucket = self._entries.get((category, fs_digest(fs)), ())
        for stored_fs, item in bucket:
            if fs_equal(stored_fs, fs):
                return item
        return None

    def store(self, category: str, fs: FeatureStructure, item) -> None:
        key = (category, fs_digest(fs))
        bucket = self._entries.setdefault(key, [])
        for stored_fs, _ in bucket:
            if fs_equal(stored_fs, fs):
                return
        bucket.append((fs, item))

    def flush(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return sum(len(b) for b in self._entries.values())


# ---------------------------------------------------------------------------
# Combinations: enumerating assignments over the table

def layer_points(items) -> list[BacktrackPoint]:
    """Choice points of one container layer, document order, not descending
    into ego variants."""
    out: list[BacktrackPoint] = []
    stack = list(reversed(items))
    while stack:
        item = stack.pop()
        if isinstance(item, ChoiceRef):
            out.append(item.point)
        elif isinstance(item, DerivationNode):
            stack.extend(reversed(item.children))
    return out


def iter_assignments(items, fixed: dict[int, int]) -> Iterator[dict[int, int]]:
    """All choice assignments for the subtree, leftmost point slowest.

    ``fixed`` pins given point ids to a variant index; every other
    reachable point ranges over its current variants.  A reachable point
    without variants yields no assignments at all.
    """
    # A layer is (points, acc, spawner): its choice points, its choices so
    # far, and the (layer, idx) of the point whose variant holds it.  A
    # frame [layer, idx, choices, pos] steps point idx through its choices;
    # for each it pushes the chosen variant's inner layer.  A frame at
    # idx == len(points) has completed its layer: the outermost yields acc,
    # an inner one merges acc into its spawner's layer and pushes the frame
    # for the spawner's next point.  Merged choices stay in the outer acc
    # even once a later choice makes them unreachable; resolving ignores
    # them.  A frame is popped when exhausted, resuming the one below.
    stack: list[list] = [[(layer_points(items), {}, None), 0, None, 0]]
    while stack:
        frame = stack[-1]
        layer, idx, choices, pos = frame
        points, acc, spawner = layer
        if idx == len(points):
            if choices is not None:  # resumed after its continuation ran
                stack.pop()
                continue
            frame[2] = ()
            if spawner is None:
                yield dict(acc)
            else:
                outer, outer_idx = spawner
                outer[1].update(acc)
                stack.append([outer, outer_idx + 1, None, 0])
            continue
        point = points[idx]
        if choices is None:
            k = fixed.get(point.id)
            if k is None:
                choices = range(len(point.variants))
            elif k < len(point.variants):
                choices = (k,)
            else:
                stack.pop()
                continue
            frame[2] = choices
        if pos == len(choices):
            acc.pop(point.id, None)
            stack.pop()
            continue
        k = choices[pos]
        frame[3] = pos + 1
        acc[point.id] = k
        stack.append([(point.variants[k].points, {}, (layer, idx)), 0, None, 0])


@dataclass(frozen=True)
class ResolvedNode:
    """Derivation tree of one emitted solution, choices resolved."""

    rule_name: str
    category: str
    children: tuple  # ResolvedNode | LiteralTok | InflectCall

    def rule_names(self) -> Iterator[str]:
        """Rule names of the tree in pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node.rule_name
            stack.extend(c for c in reversed(node.children)
                         if isinstance(c, ResolvedNode))


_END = object()  # stack marker: the children of the innermost node are done
_EGO_END = object()  # the same, for the node of a chosen ego


def combination_frontier(items, assignment: dict[int, int]):
    """Walk one combination once, in document order.

    Returns (frontier, derivation, obligations, names): the preterminal
    sequence, the resolved tree of the first item (None without items), the
    obligations of the nodes inside chosen egos and every fired rule's name,
    both in pre-order.  The root layer's obligations are left out: they are
    the same in every combination.
    """
    frontier: list = []
    obligations: list = []
    names: list = []
    top: list = []
    built: list[list] = [top]  # resolved children of each node being walked
    entered: list[DerivationNode] = []
    egos = 0  # chosen egos around the current item
    stack = list(reversed(items))
    while stack:
        item = stack.pop()
        if item is _END or item is _EGO_END:
            if item is _EGO_END:
                egos -= 1
            node = entered.pop()
            children = tuple(built.pop())
            built[-1].append(ResolvedNode(node.rule_name, node.category, children))
            continue
        end = _END
        if isinstance(item, ChoiceRef):
            item = item.point.variants[assignment[item.point.id]].node
            egos += 1
            end = _EGO_END
        if isinstance(item, DerivationNode):
            if egos:
                obligations.extend(item.obligations)
            names.append(item.rule_name)
            entered.append(item)
            built.append([])
            stack.append(end)
            stack.extend(reversed(item.children))
        else:
            frontier.append(item)
            built[-1].append(item)
    return frontier, top[0] if top else None, obligations, names


def combination_state(obligations, graph: FeatureGraph):
    """Impose one combination's ego obligations on graph, which holds the
    root layer; None when inconsistent.  The caller undoes them through the
    graph's trail."""
    try:
        for ob in obligations:
            graph.impose(ob)
    except ConstraintClash:
        return None
    return graph
