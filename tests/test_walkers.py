"""Structure digests and the explicit-stack derivation walkers.

The walkers are checked against reference recursive walks written here, on
the derivations of the randomized grammars, and on chains far deeper than
Python's recursion limit.
"""

import pytest

from surfgen.backtrack import (
    BacktrackPoint,
    ResolvedNode,
    Variant,
    combination_frontier,
    fill_post_contexts,
    iter_assignments,
    layer_points,
)
from surfgen.engine import ChoiceRef, DerivationNode, LiteralTok
from surfgen.gil import FeatureStructure, Sym, fs_digest, fs_equal, parse_gil
from surfgen.session import GenerationSession

from .grammars import build_registries, hard_case, random_case

# --- digests -------------------------------------------------------------------


def test_digest_ignores_sharing_and_attribute_order():
    shared = parse_gil("[(A #1= [(X 1) (Y b) (L < c, [(Z d)] >)]) (B #1)]")
    unshared = parse_gil("[(b [(l < c, [(z d)] >) (y b) (x 1)]) "
                         "(a [(X 1) (Y b) (L < c, [(Z d)] >)])]")
    assert fs_equal(shared, unshared)
    assert fs_digest(shared) == fs_digest(unshared)
    assert fs_digest(shared.get("A")) == fs_digest(unshared.get("B"))


def test_digest_tells_apart_what_equality_does():
    assert fs_digest(parse_gil("[(A < x, y >)]")) != \
        fs_digest(parse_gil("[(A < y, x >)]"))
    assert fs_digest(parse_gil('[(A x)]')) != fs_digest(parse_gil('[(A "x")]'))
    assert fs_digest(parse_gil("[(A [])]")) != fs_digest(parse_gil("[(A < >)]"))


def nested_list(depth: int) -> FeatureStructure:
    fs = FeatureStructure([("NO", 0)])
    for k in range(1, depth):
        fs = FeatureStructure([("NO", k), ("ITEMS", (Sym("x"), fs))])
    return fs


def test_digest_of_deep_structure_is_computed_once():
    fs = nested_list(2000)
    first = fs_digest(fs)
    innermost = fs
    while innermost.has("ITEMS"):
        assert innermost._digest is not None
        innermost = innermost.get("ITEMS")[1]
    assert innermost._digest is not None
    assert fs_digest(fs) is first  # the cached object, not a recomputation
    assert fs_digest(nested_list(2000)) == first


# --- reference recursive walks ---------------------------------------------------


def ref_layer_points(items, out=None):
    out = [] if out is None else out
    for item in items:
        if isinstance(item, ChoiceRef):
            out.append(item.point)
        elif isinstance(item, DerivationNode):
            ref_layer_points(item.children, out)
    return out


def ref_iter_assignments(items, fixed):
    points = ref_layer_points(items)

    def rec(idx, acc):
        if idx == len(points):
            yield dict(acc)
            return
        point = points[idx]
        if point.id in fixed:
            choices = (fixed[point.id],)
            if not point.variants or fixed[point.id] >= len(point.variants):
                return
        else:
            choices = tuple(range(len(point.variants)))
        for k in choices:
            acc[point.id] = k
            for sub in ref_iter_assignments(point.variants[k].node.children, fixed):
                acc.update(sub)
                yield from rec(idx + 1, acc)
        acc.pop(point.id, None)

    yield from rec(0, {})


def ref_resolve_items(items, assignment):
    for item in items:
        if isinstance(item, DerivationNode):
            yield ("node", item)
            yield from ref_resolve_items(item.children, assignment)
        elif isinstance(item, ChoiceRef):
            node = item.point.variants[assignment[item.point.id]].node
            yield from ref_resolve_items([node], assignment)
        else:
            yield ("leaf", item)


def ref_ego_obligations(items, assignment, inside=False):
    """Obligations of the nodes inside chosen egos, in pre-order."""
    for item in items:
        if isinstance(item, DerivationNode):
            if inside:
                yield from item.obligations
            yield from ref_ego_obligations(item.children, assignment, inside)
        elif isinstance(item, ChoiceRef):
            node = item.point.variants[assignment[item.point.id]].node
            yield from ref_ego_obligations([node], assignment, True)


def ref_fill_post_contexts(items):
    segs, refs = [], []

    def walk(items):
        for item in items:
            if isinstance(item, DerivationNode):
                walk(item.children)
            else:
                if isinstance(item, ChoiceRef):
                    refs.append((item.point, len(segs)))
                segs.append(item)

    walk(items)
    layer = tuple(segs)
    for point, idx in refs:
        point.layer, point.index = layer, idx
    return layer


def ref_rule_names(node):
    yield node.rule_name
    for child in node.children:
        if isinstance(child, ResolvedNode):
            yield from ref_rule_names(child)


def resolved_leaves(node):
    """Leaves of a resolved tree in document order, without recursion."""
    out, stack = [], [node]
    while stack:
        item = stack.pop()
        if isinstance(item, ResolvedNode):
            stack.extend(reversed(item.children))
        else:
            out.append(item)
    return out


def same_items(got, want):
    return len(got) == len(want) and all(a is b for a, b in zip(got, want))


def ordered(assignments):
    return [list(a.items()) for a in assignments]


def point_layers(fill, items, points):
    saved = [(p.layer, p.index) for p in points]
    for p in points:
        p.layer, p.index = None, 0
    segs = fill(items)
    got = [(p.layer, p.index) for p in points]
    for p, (layer, index) in zip(points, saved):
        p.layer, p.index = layer, index
    return segs, got


CASES = [random_case(seed) for seed in range(40)] + \
    [hard_case(seed) for seed in range(40)]


@pytest.mark.parametrize("case", range(len(CASES)))
def test_walkers_match_reference_walks(case):
    grammar, fs = CASES[case]
    session = GenerationSession(grammar, build_registries())
    solutions = list(session.solutions(fs))
    root = session._root_items
    points = list(session.table)
    layers = [root] + [v.node.children for p in points for v in p.variants]
    for items in layers:
        assert layer_points(items) == ref_layer_points(items)
        assert point_layers(fill_post_contexts, items, points) == \
            point_layers(ref_fill_post_contexts, items, points)
    pins = [{}] + [{p.id: k} for p in points for k in range(len(p.variants) + 1)]
    for fixed in pins:
        got = list(iter_assignments(root, fixed))
        assert ordered(got) == ordered(ref_iter_assignments(root, fixed))
        for assignment in got:
            frontier, derivation, obligations, names = \
                combination_frontier(root, assignment)
            events = list(ref_resolve_items(root, assignment))
            assert same_items(frontier, [p for kind, p in events if kind == "leaf"])
            assert same_items(obligations, list(ref_ego_obligations(root, assignment)))
            assert names == [node.rule_name for kind, node in events if kind == "node"]
            if not root:  # no solution: nothing to resolve
                assert derivation is None
                continue
            first = list(ref_resolve_items(root[:1], assignment))
            assert list(derivation.rule_names()) == \
                [node.rule_name for kind, node in first if kind == "node"]
            assert same_items(resolved_leaves(derivation),
                              [p for kind, p in first if kind == "leaf"])
    for solution in solutions:
        assert list(solution.derivation.rule_names()) == \
            list(ref_rule_names(solution.derivation))


# --- depth beyond the recursion limit ------------------------------------------

DEPTH = 5000


def deep_chain():
    """A DEPTH-level right-branching derivation ending in one choice point."""
    fs = FeatureStructure()
    point = BacktrackPoint(1, "X", fs, 0, [], None)
    point.variants.append(Variant("x", DerivationNode("X", "x", fs, 0)))
    point.variants[0].node.children.append(LiteralTok("x"))
    tail: list = [ChoiceRef(point)]
    for k in range(DEPTH, 0, -1):
        node = DerivationNode("L", "more", fs, k)
        node.children.extend([LiteralTok(str(k))] + tail)
        tail = [node]
    return tail, point


def test_walkers_on_deep_chain():
    items, point = deep_chain()
    assert layer_points(items) == [point]
    assert list(iter_assignments(items, {})) == [{point.id: 0}]
    frontier, derivation, obligations, walked = \
        combination_frontier(items, {point.id: 0})
    assert len(frontier) == DEPTH + 1 and frontier[-1] == LiteralTok("x")
    assert obligations == []
    # no == on the derivation itself: dataclass equality recurses
    names = list(derivation.rule_names())
    assert len(names) == DEPTH + 1 and names[0] == "more" and names[-1] == "x"
    assert walked == names
    assert same_items(resolved_leaves(derivation), frontier)
    segs = fill_post_contexts(items)
    assert len(segs) == DEPTH + 1 and segs[-1] == ChoiceRef(point)
    assert (point.layer, point.index) == (segs, DEPTH)
    assert point.post_context == ()


def test_rule_names_on_deep_tree():
    node = ResolvedNode("leaf", "L", (LiteralTok("x"),))
    for k in range(DEPTH):
        node = ResolvedNode(f"r{k}", "L", (LiteralTok("y"), node))
    names = list(node.rule_names())
    assert len(names) == DEPTH + 1
    assert names[0] == f"r{DEPTH - 1}" and names[-1] == "leaf"
