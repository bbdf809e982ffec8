"""Interpreter primitives: feature graph, trail, and derivation trees.

Generation fires rules top-down, depth-first, actions left to right.  Every
fired rule owns a feature node; a constraint equation (``Equation``) binds
a value on one of those nodes or merges them into a shared agreement class,
PATR style.  All mutations go through the trail so a failed rule can be
undone completely.

The frontier of a derivation consists of preterminals: literal tokens and
deferred inflection calls.  Inflection calls are turned into strings only at
output time, against the feature values of the combination being realized,
so a backtracked choice that flips an agreement feature re-realizes exactly
the word forms it touches.  To find those forms, the feature graph links the
slots of each agreement class in a ring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from .gil import Atom, FeatureStructure, atoms_equal
from .morpho import FunctionRegistry, RegisteredFunction, form_key, inflect
from .tgl import Grammar, Registries, Rule, eval_test


class EngineError(Exception):
    pass


Slot = tuple  # (node_id, FEATURE)


class Obligation(NamedTuple):
    """One constraint equation with its references resolved to slots.

    ``atom is None`` equates all ``slots`` into one agreement class;
    otherwise ``slots`` holds one slot, which is bound to ``atom``.
    """

    slots: tuple
    atom: Optional[Atom] = None


class ConstraintClash(Exception):
    """A feature class would receive two different atoms.

    ``owners`` owned the existing binding(s): in a session, the layers whose
    rules asserted them.  A clash whose owners are all open around the
    firing rule prunes it; one with any other layer may be retried.
    """

    def __init__(self, slot: Slot, existing: Atom, incoming: Atom, owners: tuple):
        super().__init__(
            f"feature {slot[1]} already {existing!r}, cannot become {incoming!r}"
        )
        self.owners = owners


class Trail:
    """Reversible log of the state changes made while firing rules: feature
    bindings and unions (``bind``, ``union``) and side effects (``effect``)."""

    def __init__(self):
        self.events: list[tuple] = []
        self.push = self.events.append

    def mark(self) -> int:
        return len(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def undo_to(self, mark: int) -> None:
        events = self.events
        if mark < 0 or mark > len(events):
            raise EngineError(f"unknown trail mark {mark}")
        while len(events) > mark:
            event = events.pop()
            kind = event[0]
            if kind == "bind":
                _, graph, root = event
                del graph.binding[root]
                del graph.owner[root]
            elif kind == "union":
                _, graph, child, parent, child_binding, parent_was_bound = event
                del graph.parent[child]
                graph.size[parent] -= graph.size.get(child, 1)
                ring = graph.ring  # swap the successors back
                ring[child], ring[parent] = ring[parent], ring[child]
                if ring[child] == child:
                    del ring[child]
                if ring[parent] == parent:
                    del ring[parent]
                if child_binding is not None:
                    graph.binding[child], graph.owner[child] = child_binding
                    if not parent_was_bound:
                        del graph.binding[parent]
                        del graph.owner[parent]
            else:  # "effect"
                _, undo, memory, args, saved = event
                undo(memory, args, saved)


class FeatureGraph:
    """Union-find over (node, feature) slots with at most one atom per class.

    ``ring`` links the slots of each class in a cycle (a slot missing from
    it is alone in its class), so a class's members can be listed from any
    one of them.
    """

    def __init__(self, trail: Trail):
        self.trail = trail
        self.parent: dict[Slot, Slot] = {}
        self.size: dict[Slot, int] = {}
        self.binding: dict[Slot, Atom] = {}
        self.owner: dict[Slot, object] = {}
        self.ring: dict[Slot, Slot] = {}

    def find(self, slot: Slot) -> Slot:
        # no path compression: keeps undo trivial
        parent = self.parent
        while slot in parent:
            slot = parent[slot]
        return slot

    def value(self, slot: Slot) -> Optional[Atom]:
        return self.binding.get(self.find(slot))

    def bind(self, slot: Slot, atom: Atom, owner: object = None) -> None:
        root = self.find(slot)
        current = self.binding.get(root)
        if current is None:
            self.binding[root] = atom
            self.owner[root] = owner
            self.trail.push(("bind", self, root))
        elif not atoms_equal(current, atom):
            raise ConstraintClash(slot, current, atom, (self.owner[root],))

    def equate(self, slots) -> None:
        first = slots[0]
        for other in slots[1:]:
            self._union(first, other)

    def impose(self, ob: Obligation, owner: object = None) -> None:
        slots, atom = ob
        if atom is None:
            self.equate(slots)
        else:
            self.bind(slots[0], atom, owner)

    def _union(self, a: Slot, b: Slot) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self.size.get(ra, 1) > self.size.get(rb, 1):
            ra, rb = rb, ra
        bind_a, bind_b = self.binding.get(ra), self.binding.get(rb)
        if bind_a is not None and bind_b is not None \
                and not atoms_equal(bind_a, bind_b):
            raise ConstraintClash(a, bind_b, bind_a,
                                  (self.owner[ra], self.owner[rb]))
        child_binding = None
        parent_was_bound = bind_b is not None
        if bind_a is not None:
            child_binding = (bind_a, self.owner[ra])
            del self.binding[ra]
            old_owner = self.owner.pop(ra)
            if not parent_was_bound:
                self.binding[rb] = bind_a
                self.owner[rb] = old_owner
        self.parent[ra] = rb
        self.size[rb] = self.size.get(rb, 1) + self.size.get(ra, 1)
        ring = self.ring  # swapping two successors joins their cycles
        ring[ra], ring[rb] = ring.get(rb, rb), ring.get(ra, ra)
        self.trail.push(("union", self, ra, rb, child_binding, parent_was_bound))

    def copy(self, trail: Trail) -> "FeatureGraph":
        """A graph holding the same classes and bindings, logging to trail;
        the copy itself writes no trail events."""
        other = FeatureGraph(trail)
        other.parent = dict(self.parent)
        other.size = dict(self.size)
        other.binding = dict(self.binding)
        other.owner = dict(self.owner)
        other.ring = dict(self.ring)
        return other

    def clear(self) -> None:
        """Forget every class and binding, without trail events."""
        for table in (self.parent, self.size, self.binding, self.owner, self.ring):
            table.clear()

    def is_empty(self) -> bool:
        return not self.parent and not self.binding and not self.ring


# ---------------------------------------------------------------------------
# Frontier elements

@dataclass(frozen=True)
class LiteralTok:
    text: str


class InflectCall:
    """A deferred word form: its function's registry entry, its arguments,
    and its rule's feature node, on which it reads the entry's features.

    Realized strings are cached per observed feature values, so
    re-realization happens exactly when a read value changed.  A form this
    call has not seen is looked up in the registry's table of forms first,
    and only computed by ``inflect`` when no session on that registry has
    seen it.
    """

    __slots__ = ("entry", "args", "node", "_cache")

    def __init__(self, entry: RegisteredFunction, args: tuple, node: int):
        self.entry = entry
        self.args = args
        self.node = node
        self._cache: dict[tuple, str] = {}

    def realize(self, values: Callable[[Slot], Optional[Atom]],
                registry: FunctionRegistry, stats: "Stats") -> str:
        node = self.node
        bound = tuple(
            (feature, v)
            for feature in self.entry.features
            if (v := values((node, feature))) is not None
        )
        cached = self._cache.get(bound)
        if cached is not None:
            return cached
        key = form_key(self.entry.name, self.args, bound)
        text = registry.forms.get(key)
        if text is None:
            text = inflect(self.entry, self.args, bound)
            registry.keep_form(key, text)
        stats.morpho_calls += 1
        if self._cache:
            stats.re_realizations += 1
        self._cache[bound] = text
        return text

    def copy(self, node_map: dict[int, int]) -> "InflectCall":
        return InflectCall(self.entry, self.args,
                           node_map.get(self.node, self.node))

    def __repr__(self) -> str:
        return f"InflectCall({self.entry.name}, {self.args})"


class DerivationNode:
    """One fired rule: its category, rule name, feature node, children.

    Children appear in template order and are preterminals, nested nodes,
    or backtrack points, each standing for the choice it records.
    ``obligations`` records the rule's constraint actions with constituent
    references resolved to feature-node slots.
    """

    __slots__ = ("category", "rule_name", "node_id", "children", "obligations")

    def __init__(self, category: str, rule_name: str, node_id: int):
        self.category = category
        self.rule_name = rule_name
        self.node_id = node_id
        self.children: list = []
        self.obligations: list[Obligation] = []

    def __repr__(self) -> str:
        return f"<{self.category} {self.rule_name!r}>"


# ---------------------------------------------------------------------------
# Matching and constraint application

def match(category: str, fs: FeatureStructure, grammar: Grammar,
          registries: Registries) -> list[Rule]:
    """All rules of the category whose test holds, in grammar source order."""
    predicates, selectors = registries.predicates, registries.selectors
    return [rule for rule in grammar.rules_for(category)
            if eval_test(rule.test, fs, predicates, selectors)]


def apply_constraints(rule: Rule, lhs_node: int, nodes: tuple,
                      graph: FeatureGraph, owner: object = None) -> list[Obligation]:
    """Assert the rule's equations, given the node ids of its constituents
    in call order; returns them in slot-resolved form.

    Raises ConstraintClash when a class would be overwritten with a
    different atom; the caller treats that as failure of the rule.
    """
    obligations: list[Obligation] = []
    for refs, atom in rule.constituents().equations:
        slots = []
        for k, feature in refs:
            if k is None:
                raise EngineError(f"rule {rule.name!r}: constraint names "
                                  f"{rule.missing_refs()[0]} but the template "
                                  f"has no such constituent")
            slots.append((lhs_node if k < 0 else nodes[k], feature))
        ob = Obligation(tuple(slots), atom)
        graph.impose(ob, owner)
        obligations.append(ob)
    return obligations


# ---------------------------------------------------------------------------
# Realization

def join_tokens(tokens) -> str:
    """Single spaces between tokens; tab/newline boundaries suppress them."""
    text = " ".join(filter(None, tokens))
    if "\t" not in text and "\n" not in text:
        return text
    out: list[str] = []
    for tok in tokens:
        if not tok:
            continue
        if out and not out[-1].endswith(("\t", "\n")) \
                and not tok.startswith(("\t", "\n")):
            out.append(" ")
        out.append(tok)
    return "".join(out)


def realize(calls, registry: FunctionRegistry,
            values: Callable[[Slot], Optional[Atom]],
            stats: "Stats") -> list[str]:
    """The word forms of inflection calls under the given feature values."""
    return [call.realize(values, registry, stats) for call in calls]


# ---------------------------------------------------------------------------
# Statistics and tracing

@dataclass
class Stats:
    rules_fired: int = 0
    rules_succeeded: int = 0
    memo_hits: int = 0
    memo_stores: int = 0
    morpho_calls: int = 0
    re_realizations: int = 0
    bt_points_created: int = 0
    bt_expansions: int = 0
    solutions_emitted: int = 0
    combinations_filtered: int = 0
    constraint_clashes: int = 0
    side_effects_run: int = 0
    depth_cutoffs: int = 0
    fired_by_rule: dict = field(default_factory=dict)

    def count_fire(self, rule_name: str) -> None:
        self.rules_fired += 1
        self.fired_by_rule[rule_name] = self.fired_by_rule.get(rule_name, 0) + 1

    def snapshot(self) -> dict:
        return {
            "solutions": self.solutions_emitted,
            "rules-fired": self.rules_fired,
            "rules-succeeded": self.rules_succeeded,
            "memo-hits": self.memo_hits,
            "memo-stores": self.memo_stores,
            "morpho-calls": self.morpho_calls,
            "re-realizations": self.re_realizations,
            "bt-points-created": self.bt_points_created,
            "bt-expansions": self.bt_expansions,
            "combinations-filtered": self.combinations_filtered,
            "constraint-clashes": self.constraint_clashes,
            "side-effects-run": self.side_effects_run,
            "depth-cutoffs": self.depth_cutoffs,
        }


@dataclass(frozen=True)
class TraceEvent:
    kind: str  # rule-firing | rule-fired | rule-failed | bt-created | ...
    category: str = ""
    rule: str = ""
    detail: str = ""
    depth: int = 0

    def __str__(self) -> str:
        pad = "  " * self.depth
        bits = [b for b in (self.category, repr(self.rule) if self.rule else "",
                            self.detail) if b]
        return f"{pad}{self.kind:<12} " + " ".join(bits)
