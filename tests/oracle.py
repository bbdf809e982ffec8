"""Naive enumeration oracle: restart-everything depth-first search.

Deliberately independent of the engine's backtrack table, memo cache and
trail: every alternative is derived from scratch by recursive search with
an immutable constraint state threaded left to right.  Used to check that
the table-based enumeration produces exactly the same solution multiset.
"""

from __future__ import annotations

import itertools

from surfgen.gil import FeatureStructure, Sym, is_atom
from surfgen.morpho import inflect
from surfgen.tgl import FunCall, Lhs, Literal, Rhs, RuleCall, eval_selector, eval_test


class OracleOverflow(Exception):
    pass


def _eq(a, b):
    if isinstance(a, Sym) and isinstance(b, Sym):
        return a == b
    return type(a) is type(b) and a == b


class State:
    """Persistent-enough union-find: copied at every branch."""

    __slots__ = ("parent", "binding")

    def __init__(self, parent=None, binding=None):
        self.parent = dict(parent) if parent else {}
        self.binding = dict(binding) if binding else {}

    def copy(self) -> "State":
        return State(self.parent, self.binding)

    def find(self, slot):
        while slot in self.parent:
            slot = self.parent[slot]
        return slot

    def bind(self, slot, atom) -> bool:
        root = self.find(slot)
        current = self.binding.get(root)
        if current is None:
            self.binding[root] = atom
            return True
        return _eq(current, atom)

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return True
        b1, b2 = self.binding.get(ra), self.binding.get(rb)
        if b1 is not None and b2 is not None and not _eq(b1, b2):
            return False
        self.parent[ra] = rb
        if b1 is not None:
            del self.binding[ra]
            if b2 is None:
                self.binding[rb] = b1
        return True

    def value(self, slot):
        return self.binding.get(self.find(slot))


def _join(texts):
    out = []
    for text in texts:
        if not text:
            continue
        if out and not out[-1].endswith(("\t", "\n")) \
                and not text.startswith(("\t", "\n")):
            out.append(" ")
        out.append(text)
    return "".join(out)


def oracle_solutions(grammar, input_fs, registries, start=None,
                     max_depth=16, cap=20000):
    """All solution strings by exhaustive restart search, derivation order."""
    start_cat = (start or grammar.start).upper()
    nodes = itertools.count(1)
    functions = registries.functions
    predicates = registries.predicates
    selectors = registries.selectors

    def derive(category, fs, node, state, depth):
        if depth > max_depth:
            return []
        results = []
        for rule in grammar.rules_for(category):
            if not eval_test(rule.test, fs, predicates, selectors):
                continue
            results.extend(fire(rule, fs, node, state, depth))
            if len(results) > cap:
                raise OracleOverflow(f"more than {cap} partial results")
        return results

    def fire(rule, fs, lhs, state, depth):
        st = state.copy()
        positions = {
            i: next(nodes)
            for i, action in enumerate(rule.template)
            if isinstance(action, RuleCall)
        }
        named = {Lhs(): lhs}  # a constituent reference -> its node
        seen = {}  # category -> calls of it so far
        for i, node in positions.items():
            category = rule.template[i].category
            seen[category] = seen.get(category, 0) + 1
            named[Rhs(category, seen[category])] = node

        for eq in rule.constraints:
            slots = [(named[ref], eq.feature) for ref in eq.refs]
            if eq.value is not None:
                if not st.bind(slots[0], eq.value):
                    return []
            for other in slots[1:]:
                if not st.union(slots[0], other):
                    return []

        branches = [([], st)]
        for i, action in enumerate(rule.template):
            if isinstance(action, Literal):
                branches = [(toks + [("lit", action.text)], s)
                            for toks, s in branches]
            elif isinstance(action, FunCall):
                entry = functions.require(action.name)
                args = []
                for arg in action.args:
                    value = arg if is_atom(arg) else \
                        eval_selector(arg, fs, selectors)
                    if value is None or not is_atom(value):
                        return []
                    args.append(value)
                token = ("infl", entry, tuple(args), lhs)
                branches = [(toks + [token], s) for toks, s in branches]
            else:
                sub = eval_selector(action.selector, fs, selectors)
                if not isinstance(sub, FeatureStructure):
                    if action.optional:
                        continue
                    return []
                grown = []
                for toks, s in branches:
                    subresults = derive(action.category, sub,
                                        positions[i], s, depth + 1)
                    if not subresults:
                        if action.optional:
                            grown.append((toks, s))
                        continue
                    for stoks, s2 in subresults:
                        grown.append((toks + stoks, s2))
                branches = grown
                if not branches:
                    return []
        return branches

    solutions = []
    for tokens, state in derive(start_cat, input_fs, next(nodes), State(), 0):
        texts = []
        for token in tokens:
            if token[0] == "lit":
                texts.append(token[1])
            else:
                _, entry, args, node = token
                features = tuple(
                    (f, v) for f in entry.features
                    if (v := state.value((node, f))) is not None
                )
                texts.append(inflect(entry, args, features))
        solutions.append(_join(texts))
    return solutions
