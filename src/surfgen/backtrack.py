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

A *layer* is the root's or one ego variant's own material, down to but not
into its choice points.  The walk that flattens a completed layer also
reads off its points, the obligations its rules asserted and its rule
names, once.  A combination is realized only if the union of its chosen
egos' obligations is consistent; the obligations of the root layer are the
same in every combination, so the session imposes them once for the whole
stream.

Each solution is built from the previous one as a delta (``Shown``): only
the layers of egos whose choice changed are resolved again, the resolved
trees above them are path-copied (Driscoll, Sarnak, Sleator and Tarjan
1989) and every other subtree is shared, and only the enclosing layers'
strings are joined again.  Inflection calls are resolved against the
combination's feature values, but only those of the entered layers and
those whose agreement class an entered or left ego touches are read again,
so agreement features flipped by a new ego re-inflect exactly the material
that agrees with it.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .engine import (ChoiceRef, ConstraintClash, DerivationNode, FeatureGraph,
                     InflectCall, LiteralTok, join_tokens)
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
    layer: Optional["Layer"] = None  # set once the variant is captured

    def __repr__(self) -> str:
        return f"Variant({self.rule_name!r})"


class BacktrackPoint:
    """A recorded conflict set with its surrounding context.

    ``layer`` is the frontier of the completed layer holding the point
    (shared by every point in it) and ``index`` the point's position there;
    ``layer`` stays None while the layer is open.
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


class Layer:
    """One layer: the root's or a variant's own material, down to its points.

    What the walk that completes it reads off stays fixed: ``items`` (the
    root's items, or the variant's node), ``point`` (the point it is a
    variant of; None for the root), ``depth`` (points around it), its
    ``frontier`` (choice points symbolic), its ``points``, the frontier
    positions of its inflection ``calls``, and its nodes' ``obligations``
    and rule ``names``, in pre-order.  The rest is how the layer was last
    resolved: ``top`` (its resolved items), ``paths`` (point id -> child
    index path in ``top``), ``parts`` (one string per frontier item; a
    point's is its chosen ego's text) and ``text``, their join.
    """

    __slots__ = ("items", "point", "depth", "frontier", "points", "calls",
                 "obligations", "names", "top", "paths", "parts", "text")

    def __init__(self, items, point: Optional[BacktrackPoint], depth: int):
        self.items = items
        self.point = point
        self.depth = depth
        self.top: Optional[tuple] = None
        self.paths: Optional[dict] = None
        self.parts: Optional[list] = None
        self.text: Optional[str] = None

    def __repr__(self) -> str:
        owner = f"B{self.point.id}" if self.point else "root"
        return f"<Layer {owner} depth={self.depth}>"


def fill_post_contexts(items, readers: dict, point: Optional[BacktrackPoint] = None,
                       depth: int = 0) -> Layer:
    """Read off a (now complete) layer in one walk, and give its points
    their contexts.

    Flattens the items into their frontier, choice points staying
    symbolic, and hands every point in it the frontier and its position.
    Points inside ego variants are handled when their own variant
    completes.  Each inflection call with hooks is entered in ``readers``
    under the node its hooks read (its rule's node), as (layer, position).
    """
    layer = Layer(items, point, depth)
    frontier: list = []
    points: list[BacktrackPoint] = []
    calls: list[int] = []
    obligations: list = []
    names: list[str] = []
    stack = list(reversed(items))
    while stack:
        item = stack.pop()
        if isinstance(item, DerivationNode):
            obligations.extend(item.obligations)
            names.append(item.rule_name)
            stack.extend(reversed(item.children))
            continue
        if isinstance(item, ChoiceRef):
            item.point.index = len(frontier)
            points.append(item.point)
        elif isinstance(item, InflectCall):
            calls.append(len(frontier))
            if item.hooks:
                readers.setdefault(item.hooks[0][1], []).append((layer, len(frontier)))
        frontier.append(item)
    layer.frontier = tuple(frontier)
    for p in points:
        p.layer = layer.frontier
    layer.points = tuple(points)
    layer.calls = tuple(calls)
    layer.obligations = tuple(obligations)
    layer.names = tuple(names)
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

def iter_assignments(root: Layer, fixed: dict[int, int]) -> Iterator[dict[int, int]]:
    """All choice assignments below the layer, leftmost point slowest.

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
    stack: list[list] = [[(root.points, {}, None), 0, None, 0]]
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
        stack.append([(point.variants[k].layer.points, {}, (layer, idx)), 0, None, 0])


@dataclass(frozen=True, slots=True)
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


def _resolve(layer: Layer, assignment: dict[int, int]) -> None:
    """Give the layer its resolved items under assignment, whose chosen
    layers below it are resolved already.  The first time, one walk of its
    nodes also records the path to each point and the literal parts; after
    that, only the points whose resolved ego differs are path-copied."""
    if layer.top is not None:
        top = layer.top
        for point in layer.points:
            ego = point.variants[assignment[point.id]].layer.top[0]
            top = _path_copy(top, layer.paths[point.id], ego)
        layer.top = top
        return
    paths: dict[int, tuple] = {}
    parts: list[str] = []
    built: list[list] = [[]]  # resolved children of each node being walked
    entered: list[DerivationNode] = []
    stack = list(reversed(layer.items))
    while stack:
        item = stack.pop()
        if item is _END:
            node = entered.pop()
            children = tuple(built.pop())
            built[-1].append(ResolvedNode(node.rule_name, node.category, children))
        elif isinstance(item, DerivationNode):
            entered.append(item)
            built.append([])
            stack.append(_END)
            stack.extend(reversed(item.children))
        elif isinstance(item, ChoiceRef):
            point = item.point
            paths[point.id] = tuple(map(len, built))
            built[-1].append(point.variants[assignment[point.id]].layer.top[0])
            parts.append("")
        else:
            built[-1].append(item)
            parts.append(item.text if isinstance(item, LiteralTok) else "")
    layer.top = tuple(built[0])
    layer.paths = paths
    layer.parts = parts


def _path_copy(top: tuple, path: tuple, new) -> tuple:
    """top with the item at path replaced by new: the nodes on the path are
    copied, every subtree off it is shared.  top itself if new is there."""
    seqs = [top]
    for i in path[:-1]:
        seqs.append(seqs[-1][i].children)
    if seqs[-1][path[-1]] is new:
        return top
    for d in range(len(path) - 1, 0, -1):
        seq, i = seqs[d], path[d]
        node = seqs[d - 1][path[d - 1]]
        new = ResolvedNode(node.rule_name, node.category,
                           seq[:i] + (new,) + seq[i + 1:])
    i = path[0]
    return top[:i] + (new,) + top[i + 1:]


class Shown:
    """The last emitted solution, layer by layer: the base of the next one.

    ``chosen`` maps each point the solution reaches to the layer of its
    chosen variant, ``assignment`` is the solution's assignment and
    ``names`` counts its fired rules.  Each shown layer holds its resolved
    items and strings (see ``Layer``): the solution's text is the root
    layer's ``text`` and its derivation the root layer's one resolved
    item.
    """

    def __init__(self, root: Layer):
        self.root = root
        self.chosen: dict[int, Layer] = {}
        self.assignment: dict[int, int] = {}
        self.names: Counter = Counter()

    def holder(self, point: BacktrackPoint) -> Layer:
        """The layer holding point."""
        if point.parent is None:
            return self.root
        outer, k = point.parent
        return outer.variants[k].layer


@dataclass
class Delta:
    """How a combination differs from the shown solution.

    ``changes`` holds, per point reached through unchanged choices whose
    own choice changed, (point, layer it now shows); the first solution
    has the one change (None, root layer).  ``entered`` holds the layers of
    the changes and the layers chosen within them, parents first, and
    ``left`` the layers shown under a changed point.  ``chosen`` is the
    combination's point -> layer map.  ``again`` lists the (layer,
    position) of the calls of layers shown before and after that
    ``inflections`` found must be read again.
    """

    assignment: dict
    changes: list
    entered: list
    left: list
    chosen: dict
    again: list = field(default_factory=list)

    def obligations(self) -> Iterator:
        """The obligations of every chosen ego."""
        return itertools.chain.from_iterable(
            layer.obligations for layer in self.chosen.values())


def combination_frontier(shown: Shown, assignment: dict[int, int]) -> Delta:
    """The delta from the shown solution to one combination.

    Resolves the entered layers, children first; nothing shown is touched,
    so the delta is committed (``commit``) only if the combination turns
    out consistent.
    """
    if shown.root.text is None:
        changes = [(None, shown.root)]
    else:
        changes = []
        for pid, k in assignment.items() - shown.assignment.items():
            layer = shown.chosen.get(pid)
            if layer is None:  # inside a changed ego, or out of reach
                continue
            point = layer.point
            parent = point.parent
            while parent is not None and assignment.get(parent[0].id) == parent[1]:
                parent = parent[0].parent
            if parent is None:
                changes.append((point, point.variants[k].layer))
    entered: list[Layer] = []
    stack = [layer for _, layer in changes]
    while stack:
        layer = stack.pop()
        entered.append(layer)
        stack.extend(p.variants[assignment[p.id]].layer for p in layer.points)
    for layer in reversed(entered):
        _resolve(layer, assignment)
    left: list[Layer] = []
    stack = [shown.chosen[point.id] for point, _ in changes if point is not None]
    while stack:
        layer = stack.pop()
        left.append(layer)
        stack.extend(shown.chosen[p.id] for p in layer.points)
    chosen = dict(shown.chosen)
    for layer in left:
        del chosen[layer.point.id]
    for layer in entered:
        if layer.point is not None:
            chosen[layer.point.id] = layer
    return Delta(assignment, changes, entered, left, chosen)


def inflections(delta: Delta, graph: FeatureGraph, readers: dict) -> list:
    """The (layer, position) of every inflection call the combination must
    read, graph holding the combination: each call of an entered layer, and
    each call of a layer shown before and after that has a hook slot in
    the class of a slot named by an entered or left layer's obligation (a
    hooked class that holds no such slot now held none before either, so
    its value is unchanged).  readers is the index ``fill_post_contexts``
    builds."""
    calls = [(layer, pos) for layer in delta.entered for pos in layer.calls]
    if delta.changes and delta.changes[0][0] is None:  # the first: all entered
        return calls
    entered = set(delta.entered)
    chosen = delta.chosen
    ring = graph.ring
    seen: set = set()
    again: dict = {}
    for layer in itertools.chain(delta.entered, delta.left):
        for slots, _ in layer.obligations:
            for slot in slots:
                root = graph.find(slot)
                if root in seen:
                    continue
                seen.add(root)
                member = slot
                while True:
                    for owner, pos in readers.get(member[0], ()):
                        if owner not in entered \
                                and (owner.point is None
                                     or chosen.get(owner.point.id) is owner) \
                                and (member[1], member[0]) in owner.frontier[pos].hooks:
                            again[owner, pos] = None
                    member = ring.get(member, member)
                    if member == slot:
                        break
    delta.again = list(again)
    return calls + delta.again


def commit(shown: Shown, delta: Delta, calls: list, forms: list) -> None:
    """Make the combination the shown solution: the read word forms go into
    their parts, the entered layers are joined, and each changed layer
    hands its resolved items and text to the layer around it, deepest
    first, up to the root."""
    for (layer, pos), form in zip(calls, forms):
        layer.parts[pos] = form
    chosen = delta.chosen
    for layer in reversed(delta.entered):
        for point in layer.points:
            layer.parts[point.index] = chosen[point.id].text
        layer.text = join_tokens(layer.parts)
    levels: dict[int, dict] = {}  # depth -> layers whose text is stale

    def hand_up(layer: Layer) -> None:
        point = layer.point
        if point is not None:
            outer = shown.holder(point)
            outer.top = _path_copy(outer.top, outer.paths[point.id], layer.top[0])
            outer.parts[point.index] = layer.text
            levels.setdefault(outer.depth, {})[outer] = None

    for point, layer in delta.changes:
        if point is not None:
            hand_up(layer)
    for layer, _ in delta.again:
        levels.setdefault(layer.depth, {})[layer] = None
    while levels:
        for layer in levels.pop(max(levels)):
            layer.text = join_tokens(layer.parts)
            hand_up(layer)
    for layer in delta.left:
        shown.names.subtract(layer.names)
    shown.names.update(itertools.chain.from_iterable(
        layer.names for layer in delta.entered))
    shown.chosen = chosen
    shown.assignment = delta.assignment


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
