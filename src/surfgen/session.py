"""One generation run: first solution depth-first, then table-driven variants.

The session owns all mutable state (trail, feature graph, backtrack table,
memo cache, side-effect memory).  ``solutions()`` is a lazy stream: the
first solution is derived top-down depth-first; every further solution is
produced on demand by picking an unexhausted backtrack point, firing its
next rule against the stored input substructure, and combining the new ego
with the already-known contexts.  Only the new ego's subtree fires rules.

The layer (``backtrack.Layer``) is the one derivation context: the open
layers are a stack, whose top owns the bindings asserted and holds the
points recorded.  A clash with a layer off the stack may be retried.

The trail undoes feature bindings and side effects only.  A backtrack point
needs no undoing: it joins the table once the layer holding it is
captured, after its derivation has succeeded.

Emission, too, is a delta: each solution's text is built from the last
one emitted (``backtrack.Shown``).  Only the egos whose choice changed are
rendered, only the word forms they agree with are inflected again, and
only the strings around them are joined again; the first solution is the
delta from nothing.  No derivation tree is built while the stream runs: a
solution's assignment fixes it, and ``Solution.derivation`` resolves it
when it is read.

A rule whose constraints clash with material that is *not* part of every
solution through its position (a closed sibling alternative) is not
discarded: it stays in its conflict set's remainder and is retried during
expansion, where only the always-present context is in force.  Whether any
given combination of alternatives is consistent is decided per emitted
solution, against the union of the combination's constraint obligations.
The obligations outside every choice point are in every combination: they
are imposed once, when the first derivation is captured, and stay on the
session's graph for the whole stream, where expansion sees them.  The check
runs on a copy of that graph with a trail of its own
(``backtrack.EgoStack``), which keeps the shown solution's egos imposed
between solutions: checking a combination undoes the shown egos only down
to the lowest one it leaves, imposes again those above that it keeps, then
the egos it enters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional

from . import prefs
from .backtrack import (
    BacktrackPoint,
    BTTable,
    EgoStack,
    Layer,
    MemoCache,
    ResolvedNode,
    Shown,
    combination_frontier,
    combination_state,
    commit,
    fill_post_contexts,
    inflections,
    iter_assignments,
    layer_steps,
    resolve,
    unlink,
)
from .engine import (
    ConstraintClash,
    DerivationNode,
    EngineError,
    FeatureGraph,
    InflectCall,
    LiteralTok,
    Obligation,
    Stats,
    TraceEvent,
    Trail,
    apply_constraints,
    match,
    realize,
)
from .gil import FeatureStructure, is_atom
from .tgl import Expr, FunCall, Grammar, Literal, Registries, Rule, eval_selector


@dataclass  # not frozen: a frozen dataclass's __init__ costs three times as much
class Solution:
    """One emitted solution: its text, its weight, the variant index
    chosen at each point (``assignment``) and the root layer's ``items``.

    The assignment may also hold ids of points the solution does not
    reach, left from the odometer's earlier choices; ``resolve`` ignores
    them.  The items keep the session's derivation nodes and points alive
    for as long as the solution is held.
    """

    text: str
    weight: Fraction
    assignment: dict
    items: list = field(repr=False)

    @property
    def derivation(self) -> ResolvedNode:
        """The derivation tree, choices resolved; built anew on each read."""
        return resolve(self.items, self.assignment)[0]

    def __hash__(self) -> int:
        # equal solutions have equal texts and weights; the assignment is a dict
        return hash((self.text, self.weight))


class GenerationSession:
    """Single-use generator state for one grammar and one input, steered
    by a ``prefs.CriteriaSpec``, by default the empty one: the spec orders
    each conflict set, ranks the open points in the table and weighs each
    solution.  ``_layers`` holds the root layer, made here, then each ego
    being built or replayed, outermost first."""

    def __init__(self, grammar: Grammar, registries: Optional[Registries] = None,
                 *, spec: Optional[prefs.CriteriaSpec] = None,
                 use_memo: bool = True, trace=None, max_depth: int = 64):
        self.grammar = grammar
        self.registries = registries or Registries.standard()
        self.spec = spec or prefs.EMPTY_SPEC
        self.trace = trace
        self.max_depth = max_depth
        self.trail = Trail()
        self.graph = FeatureGraph(self.trail)
        self.table = BTTable(self.spec.point_rank)
        self.memo: Optional[MemoCache] = MemoCache() if use_memo else None
        self.memory: dict = {}
        self._word_forms: dict = {}  # call name -> its word-form function
        self.stats = Stats()
        self._next_id = 1  # the next feature node id to hand out
        self._layers: list[Layer] = [Layer([], None, 0)]
        self._shown: Optional[Shown] = None  # set once the first derivation exists
        self._egos: Optional[EgoStack] = None  # the shown egos, on a graph copy
        # node id -> (layer, frontier position) of each inflection call that
        # reads features on that node, over every captured layer
        self._readers: dict[int, list] = {}
        self._started = False

    # -- public API ---------------------------------------------------------

    def solutions(self, input_fs: FeatureStructure,
                  start: Optional[str] = None) -> Iterator[Solution]:
        """Lazy best-first stream of all solutions, cheapest variants first."""
        if self._started:
            raise EngineError("a GenerationSession runs exactly once")
        self._started = True
        start_cat = (start or self.grammar.start).upper()
        base = self.trail.mark()
        root = self._layers[0]
        try:
            if not self._generate(start_cat, input_fs, self._new_node(),
                                  root.items, 0):
                self.trail.undo_to(base)
                return
            self._capture(root)
            shown = self._shown = Shown(root)
            self.trail.undo_to(base)
            # in every solution: imposed once, undone with the stream
            for ob in root.obligations:
                self.graph.impose(ob, root)
            egos = self._egos = EgoStack(self.graph.copy(Trail()))
            moved: set[int] = set()  # ids the odometer moved since the last commit
            fixed: Optional[dict[int, int]] = {}  # the pins of the expansion
            while True:
                for assignment in iter_assignments(root, fixed, moved):
                    delta = combination_frontier(shown, assignment, moved)
                    state = combination_state(delta, egos)
                    if state is None:
                        self.stats.combinations_filtered += 1
                        continue
                    calls = inflections(shown, delta, state, self._readers)
                    forms = realize([layer.frontier[pos] for layer, pos in calls],
                                    self.registries.functions, state.value, self.stats)
                    commit(shown, delta, calls, forms)
                    moved.clear()
                    weight = prefs.solution_weight(shown.names, self.spec)
                    self.stats.solutions_emitted += 1
                    if self.trace is not None:
                        self._trace("solution", 0, detail=root.text)
                    # the odometer's assignment moves on: the solution keeps a copy
                    yield Solution(root.text, weight, dict(assignment), root.items)
                fixed = None
                while fixed is None:  # until an expansion yields a new ego
                    point = prefs.choose_backtrack_point(self.table, self.spec)
                    if point is None:
                        return
                    fixed = self._expand(point)
        finally:
            self.trail.undo_to(base)
            if self._egos is not None:
                self._egos.close()

    def __del__(self):
        # a captured layer's points and variants hold their up-links, so cut
        # them once the session goes and reference counting frees the rest
        if getattr(self, "_shown", None) is not None:
            unlink(self._shown.root)

    def first(self, input_fs: FeatureStructure,
              start: Optional[str] = None) -> Optional[Solution]:
        return next(self.solutions(input_fs, start), None)

    # -- construction -------------------------------------------------------

    def _new_node(self) -> int:
        node_id = self._next_id
        self._next_id += 1
        return node_id

    def _trace(self, kind: str, depth: int, category: str = "", rule: str = "",
               detail: str = "") -> None:
        if self.trace is not None:
            self.trace(TraceEvent(kind, category, rule, detail, depth))

    def _generate(self, category: str, fs: FeatureStructure, node_id: int,
                  sink: list, depth: int) -> bool:
        """Derive one category over fs at the given depth into sink."""
        if depth > self.max_depth:
            self.stats.depth_cutoffs += 1
            self._trace("depth-cutoff", depth, category,
                        detail=f"max_depth={self.max_depth}")
            return False
        mark = self.trail.mark()
        effects_before = self.stats.side_effects_run
        if self.memo is not None:
            stored = self.memo.lookup(category, fs)
            if stored is not None and self._splice(stored, node_id, sink):
                self.stats.memo_hits += 1
                self._trace("memo-hit", depth, category)
                return True
        conflict_set = match(category, fs, self.grammar, self.registries)
        conflict_set = prefs.order_conflict_set(conflict_set, self.spec)
        if not conflict_set:
            return False
        if len(conflict_set) == 1:
            rule = conflict_set[0]
            node, retryable = self._fire(rule, fs, node_id, depth)
            if node is not None:
                sink.append(node)
                self._memo_store(category, fs, node, effects_before)
                return True
            if retryable:
                # keep the rule for a retry under the always-present context
                point = self._record_point(category, fs, node_id, conflict_set,
                                           depth)
                sink.append(point)
                return True
            return False
        point = self._record_point(category, fs, node_id, conflict_set, depth)
        i = 0
        while i < len(point.remainder):
            rule = point.remainder[i]
            variant, retryable = self._try_variant(point, rule, depth)
            if variant is not None:
                del point.remainder[i]
                point.variants.append(variant)
                sink.append(point)
                self._memo_store(category, fs, point, effects_before)
                return True
            if retryable:
                i += 1
            else:
                del point.remainder[i]
        if point.remainder:
            # nothing derivable right here, but alternatives stay open
            sink.append(point)
            return True
        self.trail.undo_to(mark)
        return False

    def _record_point(self, category, fs, node_id, rules, depth) -> BacktrackPoint:
        point = self.table.record(category, fs, node_id, list(rules),
                                  self._layers[-1])
        self.stats.bt_points_created += 1
        self._trace("bt-created", depth, category,
                    detail=f"B{point.id} conflict={len(rules)}")
        return point

    def _try_variant(self, point: BacktrackPoint, rule: Rule,
                     depth: int) -> tuple[Optional[Layer], bool]:
        """The new variant layer, or None and whether the rule may be retried."""
        layer = Layer(None, point, len(self._layers))
        self._layers.append(layer)
        try:
            node, retryable = self._fire(rule, point.input, point.node_id, depth)
        finally:
            self._layers.pop()
        if node is None:
            return None, retryable
        layer.items = (node,)
        return layer, False

    def _fire(self, rule: Rule, fs: FeatureStructure, lhs_node: int,
              depth: int) -> tuple[Optional[DerivationNode], bool]:
        """The rule's node, or None and whether the rule may be retried."""
        stats, fired = self.stats, self.stats.fired_by_rule
        stats.rules_fired += 1
        fired[rule.name] = fired.get(rule.name, 0) + 1
        if self.trace is not None:
            self._trace("rule-firing", depth, rule.category, rule.name)
        mark = self.trail.mark()
        node = DerivationNode(rule.category, rule.name, lhs_node)
        failure = self._fire_body(rule, fs, node, depth + 1)
        if failure is None:
            stats.rules_succeeded += 1
            if self.trace is not None:
                self._trace("rule-fired", depth, rule.category, rule.name)
            return node, False
        self.trail.undo_to(mark)
        reason, retryable = failure
        self._trace("rule-failed", depth, rule.category, rule.name, reason)
        return None, retryable

    def _fire_body(self, rule: Rule, fs: FeatureStructure, node: DerivationNode,
                   depth: int) -> Optional[tuple[str, bool]]:
        """None on success, else (reason, retryable); depth is the children's."""
        for call in rule.side_effects:
            entry = self.registries.functions.require(call.name)
            if not entry.is_side_effect:
                raise EngineError(f"{call.name!r} lacks an undo callback and "
                                  f"cannot run as a side effect")
            args = tuple(a if is_atom(a) else
                         eval_selector(a, fs, self.registries.selectors)
                         for a in call.args)
            saved = entry.fn(self.memory, args)
            self.trail.push(("effect", entry.undo, self.memory, args, saved))
            self.stats.side_effects_run += 1
            if self.memo is not None:
                self.memo.flush()
        first = self._next_id  # the constituents' ids, in call order
        self._next_id += rule.constituents().calls
        nodes = tuple(range(first, self._next_id))
        try:
            node.obligations = apply_constraints(rule, node.node_id, nodes,
                                                 self.graph, self._layers[-1])
        except ConstraintClash as clash:
            self.stats.constraint_clashes += 1
            return str(clash), any(o not in self._layers for o in clash.owners)
        sink = node.children
        k = 0
        for action in rule.template:
            if isinstance(action, Literal):
                sink.append(LiteralTok(action.text))
            elif isinstance(action, FunCall):
                segment = self._make_inflect(action, fs, node.node_id)
                if segment is None:
                    return f"argument of {action.name!r} is absent", False
                sink.append(segment)
            else:
                node_id = nodes[k]
                k += 1
                sub = eval_selector(action.selector, fs, self.registries.selectors)
                if not isinstance(sub, FeatureStructure):
                    if action.optional:
                        continue
                    return f"selector for {action.category} is absent", False
                if not self._generate(action.category, sub, node_id, sink, depth):
                    if action.optional:
                        continue
                    return f"no {action.category} derivation", False
        return None

    def _make_inflect(self, call: FunCall, fs: FeatureStructure,
                      lhs_node: int) -> Optional[InflectCall]:
        entry = self._word_forms.get(call.name)
        if entry is None:  # looked up and checked once per name
            entry = self.registries.functions.require(call.name)
            if entry.is_side_effect:
                raise EngineError(f"side effect {call.name!r} in a template slot")
            self._word_forms[call.name] = entry
        args = []
        for arg in call.args:
            if isinstance(arg, Expr):  # a selector, else an atom
                arg = eval_selector(arg, fs, self.registries.selectors)
                if not is_atom(arg):
                    return None
            args.append(arg)
        return InflectCall(entry, tuple(args), lhs_node)

    def _memo_store(self, category: str, fs: FeatureStructure, item,
                    effects_before: int) -> None:
        # results whose subtree ran side effects cannot be spliced: the
        # effects would not run again at the new position
        if self.memo is not None \
                and effects_before == self.stats.side_effects_run:
            self.memo.store(category, fs, item)
            self.stats.memo_stores += 1

    # -- memo splicing ------------------------------------------------------

    def _splice(self, stored, node_id: int, sink: list) -> bool:
        """Copy a memoized result here: fresh nodes, re-recorded choices."""
        mark = self.trail.mark()
        node_map = {stored.node_id: node_id}
        try:
            copied = self._copy_item(stored, node_map, replay=True)
        except ConstraintClash:
            self.stats.constraint_clashes += 1
            self.trail.undo_to(mark)
            return False
        sink.append(copied)
        return True

    def _copy_item(self, item, node_map: dict[int, int], replay: bool):
        if isinstance(item, LiteralTok):
            return item
        if isinstance(item, InflectCall):
            return item.copy(node_map)
        if isinstance(item, DerivationNode):
            return self._copy_node(item, node_map, replay)
        if isinstance(item, BacktrackPoint):
            return self._copy_point(item, node_map, replay)
        raise EngineError(f"cannot copy {item!r}")

    def _mapped(self, node_map: dict[int, int], n: int) -> int:
        if n not in node_map:
            node_map[n] = self._new_node()
        return node_map[n]

    def _copy_node(self, node: DerivationNode, node_map, replay: bool):
        new = DerivationNode(node.category, node.rule_name,
                             self._mapped(node_map, node.node_id))
        for ob in node.obligations:
            new_ob = Obligation(tuple((self._mapped(node_map, n), f)
                                      for n, f in ob.slots), ob.atom)
            new.obligations.append(new_ob)
            if replay:
                self.graph.impose(new_ob, self._layers[-1])
        for child in node.children:
            new.children.append(self._copy_item(child, node_map, replay))
        return new

    def _copy_point(self, old: BacktrackPoint, node_map, replay: bool):
        # rules the original consumed were pruned against the obligations of
        # *its* position; at the new position they are merely untried
        succeeded = {v.items[0].rule_name for v in old.variants}
        untried = [r for r in old.conflict_rules if r.name not in succeeded]
        point = self.table.record(old.category, old.input,
                                  self._mapped(node_map, old.node_id),
                                  untried, self._layers[-1])
        point.conflict_rules = old.conflict_rules
        self.stats.bt_points_created += 1
        for variant in old.variants:
            layer = Layer(None, point, len(self._layers))
            self._layers.append(layer)
            try:
                layer.items = (self._copy_node(variant.items[0], node_map,
                                               replay and layer.index == 0),)
            finally:
                self._layers.pop()
            point.variants.append(layer)
        return point

    # -- expansion ----------------------------------------------------------

    def _expand(self, point: BacktrackPoint) -> Optional[dict[int, int]]:
        """Fire the point's next rule against its stored input.

        Returns the pins of the new ego (point id -> variant index for the
        point and every point around it), or None when the rule failed and
        was consumed.  Only rules inside the new ego subtree fire.
        """
        rule = point.remainder[0]
        self.stats.bt_expansions += 1
        if self.trace is not None:
            self._trace("expand", 0, point.category, rule.name, f"B{point.id}")
        mark = self.trail.mark()
        chain = []
        fixed = {}
        layer = point.parent
        while layer.point is not None:
            chain.append(layer)
            fixed[layer.point.id] = layer.index
            layer = layer.point.parent
        layers = self._layers  # the root alone, whose bindings are in force
        try:
            # re-assert the egos around the point, outermost first
            for layer in reversed(chain):
                layers.append(layer)
                for ob in layer.obligations:
                    self.graph.impose(ob, layer)
            variant, _ = self._try_variant(point, rule, 0)
        finally:
            del layers[1:]
        del point.remainder[0]
        if variant is None:
            self.trail.undo_to(mark)
            return None
        fixed[point.id] = variant.index
        point.variants.append(variant)
        self._shown.unfold(point)
        self._capture(variant)
        self.trail.undo_to(mark)
        return fixed

    def _capture(self, top: Layer) -> None:
        """Freeze a completed layer and the layers of its points' variants:
        read each off once and enter its points in the table as the walk
        meets them, then make their fold caches, inner layers first."""
        readers, add = self._readers, self.table.add
        fill_post_contexts(top, readers)
        layers = [top]  # each after the layer holding its point
        stack = [top]
        while stack:
            for point in stack.pop().points:
                add(point)
                for v in point.variants:
                    fill_post_contexts(v, readers)
                    stack.append(v)
                    layers.append(v)
        for layer in reversed(layers):
            layer.steps = layer_steps(layer)
