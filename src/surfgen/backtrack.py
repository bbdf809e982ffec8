"""The table of backtrack points: substring reuse across solutions.

A backtrack point is recorded wherever a conflict set held more than one
rule.  Its *ego* collects one preterminal sequence per rule that succeeded
there; the *pre-context* and the *post-context* hold the surrounding
material, each nested point standing for its choice.  Both are the frontier
of the layer holding the point, flattened once when the layer completes, on
either side of the point's position, and the contexts of the enclosing
points around that.  Producing another solution never
re-derives the contexts: a new ego is generated from the point's stored
input and combined with everything already in the table, so the solution
set reads off as

    pre-context . {ego variants} . post-context

expanded through nested points, all combinations.  Partial results are
additionally memoized by (category, input) and spliced instead of being
re-derived when they recur.

A *layer* is the root's or one ego variant's own material, down to but not
into its choice points; a point's variants are its variant layers, and its
parent is the layer holding it.  The
walk that flattens a completed layer (its capture) also reads off its
points, the obligations its rules asserted and its rule names, once, and
only then do its points join the table: a point recorded in a derivation
that failed is never captured, so nothing has to take it out again.

A combination is realized only if the union of its chosen egos'
obligations is consistent.  The obligations of the root layer are the same
in every combination: they are imposed once for the whole stream.  Those
of the shown solution's egos stay imposed too, on a stack (``EgoStack``)
whose order puts the egos that change most often on top, so checking the
next combination undoes and imposes little more than the egos it changes.

Assignments are enumerated by an odometer over the layers' points
(``iter_assignments``).  A run of points that each have one variant, whose
layer folds whole in turn, is one step of it (``Run``): the run's
assignment is a fragment set at once.  A layer's folds are made when it
is captured, kept on it and split as points gain variants, so starting
the odometer costs a step per point that has a choice, not a step per
point.  The odometer reports the ids its point steps set (a run sets
variant 0 only, which never needs reporting), and the delta to the shown
solution compares only those.

The open points are indexed as their layers are captured (``BTTable``),
in one heap: those with a c-rule left first, keyed by the best such rule,
then the others (all of them without criteria), the newest first among
equal keys; a stale entry is keyed again only on reaching the top
(``BTTable.first_ranked``, ``prefs.choose_backtrack_point``).  So neither
the choice of a point nor the delta looks at every point.  Besides its
ego, a further solution makes a fixed number of Python-level calls, as
many on a long list as on a short one (a test counts them); per point it
only copies its assignment into ``Solution.assignment`` and writes run
fragments into the odometer as it starts, both C-level.  The root layer's
frontier holds every point outside the egos, but its text is kept in
blocks of ``BLOCK`` parts (``Layer.join``): a further solution joins again
the blocks it changed and then one string per block, not the whole
frontier.

Each solution's text is built from the previous one as a delta
(``Shown``): only the layers of egos whose choice changed are rendered
again, and of the enclosing layers only the blocks that changed are
joined again.
Inflection calls are resolved against the combination's feature values,
but only those of the entered layers and those whose agreement class an
entered or left ego touches are read again, so agreement features flipped
by a new ego re-inflect exactly the material that agrees with it.  No
derivation tree is built while emitting: the assignment fixes it, and
``resolve`` builds it from the root layer's items when it is read.
"""

from __future__ import annotations

import heapq
import itertools
from collections import Counter
from typing import Iterator, NamedTuple, Optional

from .engine import (ConstraintClash, DerivationNode, FeatureGraph,
                     InflectCall, LiteralTok, join_tokens)
from .gil import FeatureStructure, fs_digest, fs_equal
from .tgl import Rule


# The key of an open point that its rank gives none: after every number.
UNRANKED = float("inf")


class BacktrackPoint:
    """A recorded conflict set with its surrounding context.

    ``parent`` is the layer holding it: the root layer, or a variant layer
    of the point around it (None once its session is gone, see ``unlink``).
    ``variants`` are the layers of its egos, one per rule that fired there.
    The point itself stands for the choice in its parent's items and
    frontier; ``index`` is its position in that frontier, set when that
    layer completes.  Its pre- and post-context are
    the frontier on either side of it, through the points around it.
    ``key`` is the point's key in the table's index (``BTTable``) as it was
    last made, and points compare in the order of that index.
    """

    __slots__ = ("id", "category", "input", "node_id", "parent",
                 "conflict_rules", "remainder", "variants", "index", "key")

    def __init__(self, id: int, category: str, input: FeatureStructure,
                 node_id: int, rules: list[Rule],
                 parent: Optional["Layer"]):
        self.id = id
        self.category = category
        self.input = input
        self.node_id = node_id
        self.parent = parent
        self.conflict_rules = tuple(rules)
        self.remainder: list[Rule] = list(rules)
        self.variants: list[Layer] = []
        self.index = 0
        self.key = UNRANKED

    def __lt__(self, other: "BacktrackPoint") -> bool:
        if self.key == other.key:
            return self.id > other.id
        return self.key < other.key

    def __repr__(self) -> str:
        return (f"<B{self.id} {self.category} variants={len(self.variants)} "
                f"remainder={len(self.remainder)}>")


class BTTable:
    """The open backtrack points of one generation session.

    ``record`` only numbers a new point: a point joins the table when the
    layer holding it is captured (``add``), so a point recorded in a
    derivation that failed never does.

    ``index`` is a heap of the open points, those whose remainder is not
    empty, each its own entry under its ``key``, so that indexing a point
    makes no object for the collector to count.  ``rank`` maps a point to
    its key, a number, or None for a point ranked below every key; without
    a rank no point has a key.  The lowest key comes first, then the points
    without one (keyed ``UNRANKED``), and the newest point among equal keys
    (``first_ranked``).  The rank must be one whose key can only rise, or
    become None, as the point's remainder shrinks.
    """

    def __init__(self, rank=None):
        self.rank = rank
        self.index: list[BacktrackPoint] = []
        self._next_id = 1

    def record(self, category: str, input: FeatureStructure, node_id: int,
               rules: list[Rule], parent) -> BacktrackPoint:
        point = BacktrackPoint(self._next_id, category, input, node_id,
                               rules, parent)
        self._next_id += 1
        return point

    def _key(self, point: BacktrackPoint):
        key = None if self.rank is None else self.rank(point)
        return UNRANKED if key is None else key

    def add(self, point: BacktrackPoint) -> None:
        """Enter a captured point.  Points compare in a total order, so the
        order they are added in never changes what ``first_ranked`` gives."""
        if point.remainder:
            point.key = self._key(point)
            heapq.heappush(self.index, point)

    def first_ranked(self) -> Optional[BacktrackPoint]:
        """The open point the index ranks first; None when none is open.

        An entry is keyed again, or dropped once its point is exhausted,
        only when it is on top: keys only rise as remainders shrink, so the
        first entry whose key is up to date is the answer, and the other
        entries are not looked at.
        """
        index = self.index
        while index:
            point = index[0]
            if not point.remainder:
                heapq.heappop(index)
            elif (now := self._key(point)) == point.key:
                return point
            else:
                point.key = now
                heapq.heapreplace(index, point)
        return None


# Parts per block of a layer's text: a further solution joins again a
# block of the root layer, not its whole frontier.
BLOCK = 32


class Layer:
    """One layer: the root's or a variant's own material, down to its points.

    A point's variants are its variant layers, and its parent is the layer
    holding it.  The root layer is made with the session, and its
    ``items`` are the list the first derivation fills.  A variant layer is
    made when its rule starts firing, and once the rule has fired,
    ``items`` is (its node,).  While a layer's rules fire it owns the
    feature bindings they assert, compared by identity.  ``point`` is the
    point it is a variant of (None for the root, and once its session is
    gone), ``index`` its position in ``point.variants``, which it joins
    next (0 for the root), and
    ``depth`` the number of points around it.  What the walk that completes
    it (``fill_post_contexts``) reads off stays fixed: its ``frontier``
    (each point standing for its choice), its ``points``, the frontier
    positions of its inflection ``calls``, and its nodes' ``obligations``
    and rule ``names``, in pre-order.  ``steps`` is its fold cache (see
    ``layer_steps``), made when it is captured, after those of its variant
    layers; ``Shown.unfold`` keeps it up to date as points gain variants.
    The rest is how the layer was last shown: ``parts``, one string per
    frontier item (a literal's text; a call's word form and a point's
    chosen ego's text once shown, "" until then), and ``text``, their
    join.  A layer of more than ``BLOCK`` parts
    also keeps ``blocks``, the join of each run of ``BLOCK`` parts, and
    ``dirty``, the numbers of the blocks whose parts were written since
    they were last joined (``write``, ``join``); a smaller layer has None
    for both and joins its parts whole.
    """

    __slots__ = ("items", "point", "index", "depth", "frontier", "points",
                 "calls", "obligations", "names", "steps", "parts", "text",
                 "blocks", "dirty")

    def __init__(self, items, point: Optional[BacktrackPoint], depth: int):
        self.items = items
        self.point = point
        self.index = 0 if point is None else len(point.variants)
        self.depth = depth
        self.text: Optional[str] = None

    def __repr__(self) -> str:
        owner = f"B{self.point.id}" if self.point else "root"
        return f"<Layer {owner} depth={self.depth}>"

    def write(self, pos: int, text: str) -> None:
        """Set part pos, marking its block dirty."""
        self.parts[pos] = text
        if self.dirty is not None:
            self.dirty.add(pos // BLOCK)

    def join(self, whole: bool = False) -> None:
        """Set ``text`` to the join of the parts.

        A layer in blocks joins again only its dirty blocks, or every block
        when whole, and then joins the blocks' strings.  ``join_tokens``
        spaces two tokens by the edges of the non-empty ones alone, and a
        block's join has the edges of its first and last non-empty parts,
        so the text is the same as the join of the parts.
        """
        blocks = self.blocks
        if blocks is None:
            self.text = join_tokens(self.parts)
            return
        parts, dirty = self.parts, self.dirty
        for b in range(len(blocks)) if whole else dirty:
            blocks[b] = join_tokens(parts[b * BLOCK:b * BLOCK + BLOCK])
        dirty.clear()
        self.text = join_tokens(blocks)


def fill_post_contexts(layer: Layer, readers: dict) -> None:
    """Read off a (now complete) layer in one walk, and give its points
    their contexts.

    Flattens the items into their frontier, each point standing for its
    choice, and gives every point in it its position there; its parts
    start as the literals' texts, "" for the calls and points.
    Points inside ego variants are handled when their own variant
    completes.  Each inflection call that reads features is entered in
    ``readers`` under its rule's node, as (layer, position).
    """
    frontier: list = []
    points: list[BacktrackPoint] = []
    calls: list[int] = []
    obligations: list = []
    names: list[str] = []
    stack = list(reversed(layer.items))
    while stack:
        item = stack.pop()
        if isinstance(item, DerivationNode):
            obligations.extend(item.obligations)
            names.append(item.rule_name)
            stack.extend(reversed(item.children))
            continue
        if isinstance(item, BacktrackPoint):
            item.index = len(frontier)
            points.append(item)
        elif isinstance(item, InflectCall):
            calls.append(len(frontier))
            if item.entry.features:
                readers.setdefault(item.node, []).append((layer, len(frontier)))
        frontier.append(item)
    layer.frontier = tuple(frontier)
    layer.parts = [item.text if isinstance(item, LiteralTok) else ""
                   for item in frontier]
    if len(frontier) > BLOCK:
        layer.blocks = [""] * ((len(frontier) + BLOCK - 1) // BLOCK)
        layer.dirty = set()
    else:
        layer.blocks = layer.dirty = None
    layer.points = tuple(points)
    layer.calls = tuple(calls)
    layer.obligations = tuple(obligations)
    layer.names = tuple(names)


def unlink(root: Layer) -> None:
    """Cut the up-links below a captured root layer (each point's ``parent``,
    each variant layer's ``point``) when its session goes, so that reference
    counting frees the derivation, not a full collection wherever it lands.
    ``resolve`` reads only down-links: a held ``Solution`` still resolves."""
    stack = [root]
    while stack:
        for point in stack.pop().points:
            point.parent = None
            for v in point.variants:
                v.point = None
                stack.append(v)


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


# ---------------------------------------------------------------------------
# Combinations: enumerating assignments over the table

class Run:
    """Consecutive points of a layer that each have one variant, whose
    layer is folded whole: the odometer sets them all at once.

    ``fragment`` is their assignment, {id: 0} for each of them and each
    point below it, in pre-order; ``ids`` are the ids of the run's own
    points.  Every id in the fragment is that of a point with one variant,
    so a pin that falls inside the run pins what the fragment sets.
    """

    __slots__ = ("fragment", "ids")

    def __init__(self, fragment: dict[int, int], ids: list[int]):
        self.fragment = fragment
        self.ids = ids


def _whole_fragment(layer: Layer) -> Optional[dict]:
    """The fragment of a layer folded whole, or None."""
    steps = layer.steps
    if not steps:
        return {}
    if len(steps) == 1 and type(steps[0]) is Run:
        return steps[0].fragment
    return None


def layer_steps(layer: Layer) -> tuple:
    """The layer's points, each run of foldable ones as one ``Run``: the
    layer's fold cache.

    A point is foldable when it has one variant and that variant's layer
    is folded whole (it has no points, or one run), so the caches of the
    variant layers must be made first.
    """
    steps: list = []
    run = None
    for point in layer.points:
        inner = _whole_fragment(point.variants[0]) \
            if len(point.variants) == 1 else None
        if inner is None:
            steps.append(point)
            run = None
            continue
        if run is None:
            run = Run({}, [])
            steps.append(run)
        run.fragment[point.id] = 0
        run.fragment.update(inner)
        run.ids.append(point.id)
    return tuple(steps)


def _split(steps: tuple, point: BacktrackPoint) -> tuple:
    """steps with point, which folds no longer, taken out of its run.

    The run keeps the parts before the point's: the point's part and those
    after it are popped off the end of its fragment, and the latter make a
    new run.  The cost is that of the parts popped, so splitting the newest
    point of a run, the one the choice of points favours, is local.

    The run is changed in place, and a paused odometer holds a run's
    ``ids`` as a frame's choices: so no ``iter_assignments`` generator may
    be live when a split runs.  The session keeps to that, because it
    expands a point (and so unfolds) only after it has run the odometer
    before to the end.
    """
    for i, run in enumerate(steps):
        if type(run) is Run and point.id in run.fragment:
            break
    else:
        return steps
    ids, fragment = run.ids, run.fragment
    j = len(ids) - 1
    while ids[j] != point.id:
        j -= 1
    popped = []
    while True:
        pid = fragment.popitem()[0]
        if pid == point.id:
            break
        popped.append(pid)
    parts: list = [point]
    if j + 1 < len(ids):
        popped.reverse()  # the point's own part, then the later points'
        after = popped[popped.index(ids[j + 1]):]
        parts.append(Run(dict.fromkeys(after, 0), ids[j + 1:]))
    if j > 0:
        del ids[j:]
        parts.insert(0, run)
    return steps[:i] + tuple(parts) + steps[i + 1:]


def iter_assignments(root: Layer, fixed: dict[int, int],
                     moved: set) -> Iterator[dict[int, int]]:
    """All choice assignments below the layer, leftmost point slowest.

    ``fixed`` pins given point ids to a variant index, each less than its
    point's number of variants; every other reachable point ranges over
    its current variants.  A pin inside a run can only pin variant 0,
    which the run's fragment sets.  A reachable point without variants
    yields no assignments at all.

    What the odometer moved is reported in ``moved``: before each yield it
    holds, besides what the caller left there, the id of every point whose
    frame set a variant since the last yield (for the first yield, since
    the start).  That covers every id whose variant differs from the last
    yield's, an id absent there reading as variant 0: a run sets variant
    0 only, so its ids need no reporting.

    The assignment yielded is the odometer's own, valid until the next
    step: copy it to keep it.  A run step writes its whole fragment into
    it, C-level work and the only work here that grows with the number of
    points rather than with the steps.
    """
    # A layer is (steps, acc, spawner): its fold cache (``Layer.steps``),
    # its choices so far, and the (layer, idx) of the step whose variant
    # holds it.  A frame [layer, idx, choices, pos] steps the point at idx
    # through its choices; for each it pushes the chosen variant's inner
    # layer, or, if that has no steps, the frame for its own next step.  A
    # run step sets its fragment in acc and pushes the frame for the next
    # step; resumed, it pops its own ids, as its points' frames would.  A
    # frame at idx == len(steps) has completed its layer: the outermost
    # yields acc, an inner one merges acc into its spawner's layer and
    # pushes the frame for the spawner's next step.
    # Merged choices stay in the outer acc even once a later choice makes
    # them unreachable; resolving ignores them.  A frame is popped when
    # exhausted, resuming the one below.  A resumed run's ids are held in
    # ``stale`` and taken out of acc only when a point frame sets its next
    # variant, the first thing after a resume that adds to an acc: so the
    # assignments yielded and their item order are the same, and once the
    # odometer is exhausted they are never taken out one by one.
    stack: list[list] = [[(root.steps, {}, None), 0, None, 0]]
    stale: list[tuple[dict, list]] = []  # (acc, ids) of resumed runs
    while stack:
        frame = stack[-1]
        layer, idx, choices, pos = frame
        steps, acc, spawner = layer
        if idx == len(steps):
            if choices is not None:  # resumed after its continuation ran
                stack.pop()
                continue
            frame[2] = ()
            if spawner is None:
                yield acc
            else:
                outer, outer_idx = spawner
                outer[1].update(acc)
                stack.append([outer, outer_idx + 1, None, 0])
            continue
        step = steps[idx]
        if type(step) is Run:
            if choices is not None:  # resumed after its continuation ran
                stale.append((acc, choices))
                stack.pop()
            else:
                acc.update(step.fragment)
                frame[2] = step.ids
                stack.append([layer, idx + 1, None, 0])
            continue
        point = step
        if choices is None:
            k = fixed.get(point.id)
            choices = range(len(point.variants)) if k is None else (k,)
            frame[2] = choices
        if pos == len(choices):
            acc.pop(point.id, None)
            stack.pop()
            continue
        k = choices[pos]
        frame[3] = pos + 1
        if stale:
            for held, ids in stale:
                for pid in ids:
                    del held[pid]
            stale.clear()
        acc[point.id] = k
        moved.add(point.id)
        inner = point.variants[k].steps
        stack.append([(inner, {}, (layer, idx)), 0, None, 0] if inner
                     else [layer, idx + 1, None, 0])


class ResolvedNode:
    """Derivation tree of one solution, choices resolved (``resolve``).

    ``children`` holds ResolvedNode, LiteralTok and InflectCall items.
    Compared by identity; each read of a solution's derivation builds a
    new tree.
    """

    __slots__ = ("rule_name", "category", "children")

    def __init__(self, rule_name: str, category: str, children: tuple):
        self.rule_name = rule_name
        self.category = category
        self.children = children

    def __repr__(self) -> str:
        return f"<{self.category} {self.rule_name!r}>"

    def rule_names(self) -> Iterator[str]:
        """Rule names of the tree in pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node.rule_name
            stack.extend(c for c in reversed(node.children)
                         if isinstance(c, ResolvedNode))


_END = object()  # stack marker: the children of the innermost node are done


def resolve(items, assignment: dict[int, int]) -> tuple:
    """The items resolved under assignment: each node a ResolvedNode, each
    choice point replaced by the resolved items of its chosen variant
    layer.  Ids of points the items do not reach are ignored."""
    built: list[list] = [[]]  # resolved children of each node being walked
    entered: list[DerivationNode] = []
    stack = list(reversed(items))
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
        elif isinstance(item, BacktrackPoint):
            stack.extend(reversed(item.variants[assignment[item.id]].items))
        else:
            built[-1].append(item)
    return tuple(built[0])


class Shown:
    """The last emitted solution, layer by layer: the base of the next one.

    ``chosen`` maps each point the solution reaches to the layer of its
    chosen variant and ``names`` counts its fired rules (0 for a rule it no
    longer fires); ``commit`` edits both in place.  Each shown layer holds
    its strings (see ``Layer``): the solution's text is the root layer's
    ``text``, and a changed layer hands its text up to its point's
    ``parent``.  Its derivation is not kept: ``resolve`` builds it from the
    root layer's items and the solution's assignment.
    """

    def __init__(self, root: Layer):
        self.root = root
        self.chosen: dict[int, Layer] = {}
        self.names: Counter = Counter()

    def unfold(self, point: BacktrackPoint) -> None:
        """Bring the fold caches up to date once point has a new variant.

        A point with two variants now no longer folds: it is split out of
        its run, and a layer that was folded whole no longer is, so its own
        point is split out in the layer around it, and so on.  A point that
        gains its first variant stays a step of its own where a cache has
        it so; the walk takes such a step as it takes any point.  Every
        layer around point is captured, so each has its cache.  The runs
        are split in place: no odometer may be live (see ``_split``).
        """
        if len(point.variants) != 2:
            return
        layer = point.parent
        while True:
            whole = _whole_fragment(layer) is not None
            layer.steps = _split(layer.steps, point)
            if not whole or layer.point is None:
                return
            point = layer.point
            layer = point.parent


class Delta(NamedTuple):
    """How a combination differs from the shown solution.

    ``changes`` holds, per point reached through unchanged choices whose
    own choice changed, (point, layer it now shows); the first solution
    has the one change (None, root layer).  ``entered`` holds the layers of
    the changes and the layers chosen within them, parents first, and
    ``left`` the layers shown under a changed point.  ``changes`` and
    ``entered`` are in document order.  The combination's point -> layer
    map is the shown one without ``left`` and with ``entered``.  ``again``,
    which ``inflections`` fills, lists the (layer, position) of the calls
    of layers shown before and after that must be read again.
    """

    changes: list
    entered: list
    left: list
    again: list


def _position(change) -> list:
    """Where a change's point sits in document order: the frontier
    positions of it and of the points around it, outermost first."""
    point = change[0]
    path = []
    while point is not None:
        path.append(point.index)
        point = point.parent.point
    path.reverse()
    return path


def combination_frontier(shown: Shown, assignment: dict[int, int],
                         moved) -> Delta:
    """The delta from the shown solution to one combination.

    ``moved`` holds at least the ids whose variant in assignment differs
    from the shown one, as ``iter_assignments`` reports them; only those
    are compared with the shown layers, so the cost grows with them, not
    with the number of points.  Nothing shown is touched, so the delta is
    committed (``commit``) only if the combination turns out consistent.
    """
    if shown.root.text is None:
        changes = [(None, shown.root)]
    else:
        changes = []
        for pid in moved:
            layer = shown.chosen.get(pid)
            if layer is None:  # inside a changed ego, or out of reach
                continue
            k = assignment.get(pid)
            point = layer.point
            if k is None or point.variants[k] is layer:
                continue
            outer = point.parent  # a change if the points around keep theirs
            while outer.point is not None \
                    and assignment.get(outer.point.id) == outer.index:
                outer = outer.point.parent
            if outer.point is None:
                changes.append((point, point.variants[k]))
        if len(changes) > 1:
            changes.sort(key=_position)
    entered: list[Layer] = []  # in pre-order
    for _, layer in changes:
        stack = [layer]
        while stack:
            layer = stack.pop()
            entered.append(layer)
            for p in reversed(layer.points):
                stack.append(p.variants[assignment[p.id]])
    left: list[Layer] = []
    chosen = shown.chosen
    for point, _ in reversed(changes):
        stack = [chosen[point.id]] if point is not None else []
        while stack:
            layer = stack.pop()
            left.append(layer)
            for p in layer.points:
                stack.append(chosen[p.id])
    return tuple.__new__(Delta, (changes, entered, left, []))  # C-level


def inflections(shown: Shown, delta: Delta, graph: FeatureGraph,
                readers: dict) -> list:
    """The (layer, position) of every inflection call the combination must
    read, graph holding the combination: each call of an entered layer, and
    each call of a layer shown before and after that reads (its entry's
    features on its node) a slot in the class of a slot named by an entered
    or left layer's obligation (a read class that holds no such slot now
    held none before either, so its value is unchanged).  A layer is shown
    before and after when it is the root, or shown and not left: an entered
    layer was not shown.  readers is the index ``fill_post_contexts`` builds."""
    calls = [(layer, pos) for layer in delta.entered for pos in layer.calls]
    if delta.changes and delta.changes[0][0] is None:  # the first: all entered
        return calls
    left = set(delta.left)
    chosen = shown.chosen
    ring = graph.ring
    seen: set = set()  # the slots of each class walked
    again: dict = {}
    for layer in itertools.chain(delta.entered, delta.left):
        for slots, _ in layer.obligations:
            for slot in slots:
                if slot in seen:
                    continue
                member = slot
                while True:
                    seen.add(member)
                    for owner, pos in readers.get(member[0], ()):
                        if owner not in left \
                                and (owner.point is None
                                     or chosen.get(owner.point.id) is owner) \
                                and member[1] in owner.frontier[pos].entry.features:
                            again[owner, pos] = None
                    member = ring.get(member, member)
                    if member == slot:
                        break
    delta.again.extend(again)
    return calls + delta.again


def commit(shown: Shown, delta: Delta, calls: list, forms: list) -> None:
    """Make the combination the shown solution: the read word forms go into
    their parts, the left layers leave the point -> layer map and the name
    counts and the entered ones join them, the entered layers are joined
    whole, and each changed layer hands its text to the layer around it,
    a depth at a time, up to the root.  A layer shown before joins again
    only the blocks of its parts written here (``Layer.join``), so at the
    root a further solution joins the blocks it changed and the blocks'
    strings, not a list as long as the root layer's frontier."""
    for (layer, pos), form in zip(calls, forms):
        layer.write(pos, form)
    chosen, names = shown.chosen, shown.names
    for layer in delta.left:
        del chosen[layer.point.id]
        for name in layer.names:
            names[name] -= 1
    for layer in delta.entered:
        if layer.point is not None:
            chosen[layer.point.id] = layer
        for name in layer.names:
            names[name] = names.get(name, 0) + 1
    for layer in reversed(delta.entered):
        for point in layer.points:
            layer.parts[point.index] = chosen[point.id].text
        layer.join(whole=True)
    levels: dict[int, dict] = {}  # depth -> layers whose text is stale
    for layer, _ in delta.again:
        levels.setdefault(layer.depth, {})[layer] = None
    handed = [layer for _, layer in delta.changes]  # empty only if again is
    while handed:
        for layer in handed:  # each hands its text to the layer around it
            point = layer.point
            if point is not None:
                outer = point.parent
                outer.write(point.index, layer.text)
                levels.setdefault(outer.depth, {})[outer] = None
        handed = levels.pop(max(levels)) if levels else ()
        for layer in handed:
            layer.join()


class EgoStack:
    """The shown solution's egos, imposed on a graph that holds the root
    layer, so that checking a combination undoes and imposes only what
    differs.

    Each ego's obligations are imposed under one trail mark: ``layers``
    and ``marks`` list them bottom first.  The first solution pushes its
    egos in document order, and each combination pushes the egos it
    enters on top, so the egos that change most often, the rightmost ones,
    sit highest.  Union-find with backtracking undoes in LIFO order only
    (Westbrook and Tarjan 1989); the order of the stack keeps that cheap.
    """

    __slots__ = ("graph", "layers", "marks")

    def __init__(self, graph: FeatureGraph):
        self.graph = graph
        self.layers: list[Layer] = []
        self.marks: list[int] = []

    def push(self, layers) -> None:
        """Impose each layer's obligations on top; raises ConstraintClash
        with the clashing layer pushed in part."""
        graph, stack, marks = self.graph, self.layers, self.marks
        events = graph.trail.events
        for layer in layers:
            stack.append(layer)
            marks.append(len(events))
            for ob in layer.obligations:
                graph.impose(ob)

    def pop_to(self, i: int) -> list[Layer]:
        """Undo the egos from position i up; returns them, bottom first."""
        popped = self.layers[i:]
        if popped:
            self.graph.trail.undo_to(self.marks[i])
            del self.layers[i:], self.marks[i:]
        return popped

    def close(self) -> None:
        """Undo every ego and forget the root layer: graph and trail end
        empty, and no trail event keeps the graph in a reference cycle."""
        self.pop_to(0)
        self.graph.clear()


def combination_state(delta: Delta, egos: EgoStack):
    """Make egos hold the combination instead of the shown solution and
    return its graph; None when the combination is inconsistent, egos then
    holding the shown solution still.

    Undoes the shown egos down to the lowest one the combination leaves,
    imposes again those above it that the combination keeps, in their
    order, and then the egos it enters."""
    layers = egos.layers
    left = delta.left
    i = len(layers)
    if left:
        # finding the lowest ego left from the top costs no more than
        # undoing the egos above it
        left = set(left)
        missing = len(left)
        while missing:
            i -= 1
            if layers[i] in left:
                missing -= 1
    popped = egos.pop_to(i)
    pushed = delta.entered
    if pushed and pushed[0].point is None:  # the first: the root is imposed
        pushed = pushed[1:]
    if len(popped) > len(left):  # kept egos were popped with those left
        pushed = [layer for layer in popped if layer not in left] + pushed
    try:
        egos.push(pushed)
    except ConstraintClash:
        egos.pop_to(i)
        egos.push(popped)
        return None
    return egos.graph
