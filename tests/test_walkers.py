"""Structure digests and the explicit-stack derivation walkers.

The walkers are checked against reference recursive walks written here, on
the derivations of the randomized grammars, and on chains far deeper than
Python's recursion limit.  The delta emission is checked the same way: a
chain of deltas between arbitrary assignments must show, after each one,
what a whole walk of that assignment gives.
"""

from collections import Counter

import pytest

from surfgen import backtrack
from surfgen import session as session_module
from surfgen.backtrack import (
    BacktrackPoint,
    Layer,
    ResolvedNode,
    Shown,
    combination_frontier,
    commit,
    fill_post_contexts,
    iter_assignments,
    layer_steps,
    resolve,
)
from surfgen.engine import DerivationNode, LiteralTok, join_tokens
from surfgen.gil import FeatureStructure, Sym, fs_digest, fs_equal, parse_gil
from surfgen.prefs import choose_backtrack_point
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
        if isinstance(item, BacktrackPoint):
            out.append(item)
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
        else:
            choices = tuple(range(len(point.variants)))
        for k in choices:
            acc[point.id] = k
            for sub in ref_iter_assignments(point.variants[k].items[0].children, fixed):
                acc.update(sub)
                yield from rec(idx + 1, acc)
        acc.pop(point.id, None)

    yield from rec(0, {})


def captured_points(session):
    """The points of the session's captured layers in creation order, by a
    walk of the root layer through points and variants."""
    if session._shown is None:  # no derivation: nothing was captured
        return []
    points, stack = [], [session._layers[0]]
    while stack:
        layer = stack.pop()
        points.extend(layer.points)
        stack.extend(v for p in layer.points for v in p.variants)
    return sorted(points, key=lambda p: p.id)


def ref_resolve_items(items, assignment):
    for item in items:
        if isinstance(item, DerivationNode):
            yield ("node", item)
            yield from ref_resolve_items(item.children, assignment)
        elif isinstance(item, BacktrackPoint):
            node = item.variants[assignment[item.id]].items[0]
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
        elif isinstance(item, BacktrackPoint):
            node = item.variants[assignment[item.id]].items[0]
            yield from ref_ego_obligations([node], assignment, True)


def ref_fill_post_contexts(items):
    """The layer's frontier and, per point in it, (point, position)."""
    segs, refs = [], []

    def walk(items):
        for item in items:
            if isinstance(item, DerivationNode):
                walk(item.children)
            else:
                if isinstance(item, BacktrackPoint):
                    refs.append((item, len(segs)))
                segs.append(item)

    walk(items)
    return tuple(segs), refs


def ref_layer_nodes(items):
    """The layer's nodes in pre-order, not entering choices."""
    for item in items:
        if isinstance(item, DerivationNode):
            yield item
            yield from ref_layer_nodes(item.children)


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


def form(item) -> str:
    """A stand-in word form: the delta checks below need no feature values."""
    return item.text if isinstance(item, LiteralTok) else f"<{item.entry.name}>"


def show(shown, assignment):
    """Apply the delta to assignment, reading every entered layer's calls."""
    delta = combination_frontier(shown, assignment, assignment.keys())
    calls = [(layer, pos) for layer in delta.entered for pos in layer.calls]
    commit(shown, delta, calls, [form(layer.frontier[pos]) for layer, pos in calls])
    return delta


CASES = [random_case(seed) for seed in range(40)] + \
    [hard_case(seed) for seed in range(40)]


@pytest.mark.parametrize("case", range(len(CASES)))
def test_walkers_match_reference_walks(case):
    grammar, fs = CASES[case]
    session = GenerationSession(grammar, build_registries())
    solutions = list(session.solutions(fs))
    if session._shown is None:  # no derivation: nothing was captured
        assert not solutions
        return
    root = session._layers[0].items
    points = captured_points(session)
    # the index holds captured points only, and every open one
    assert set(session.table.index) <= set(points)
    assert {p for p in points if p.remainder} == \
        {p for p in session.table.index if p.remainder}
    layers = [session._shown.root] + [v for p in points for v in p.variants]
    for layer in layers:
        frontier, refs = ref_fill_post_contexts(layer.items)
        assert layer.frontier == frontier
        assert [(p, p.index) for p in layer.points] == refs
        assert all(p.parent is layer for p in layer.points)
        nodes = list(ref_layer_nodes(layer.items))
        assert same_items(layer.obligations,
                          [ob for n in nodes for ob in n.obligations])
        assert layer.names == tuple(n.rule_name for n in nodes)
    # a new chain of deltas over every assignment the pins give, in turn
    shown = Shown(session._shown.root)
    shown.root.text = None
    for fixed in pins_for(points):
        got = [dict(a) for a in iter_assignments(shown.root, fixed, set())]
        assert ordered(got) == ordered(ref_iter_assignments(root, fixed))
        for assignment in got:
            show(shown, assignment)
            events = list(ref_resolve_items(root, assignment))
            assert shown.root.text == join_tokens([form(p) for kind, p in events
                                              if kind == "leaf"])
            chosen = [ob for layer in shown.chosen.values() for ob in layer.obligations]
            assert Counter(map(id, chosen)) == \
                Counter(map(id, ref_ego_obligations(root, assignment)))
            assert shown.names == Counter(node.rule_name for kind, node in events
                                          if kind == "node")
            first = list(ref_resolve_items(root[:1], assignment))
            tree = resolve(shown.root.items, assignment)[0]
            assert list(tree.rule_names()) == \
                [node.rule_name for kind, node in first if kind == "node"]
            assert same_items(resolved_leaves(tree),
                              [p for kind, p in first if kind == "leaf"])
    for solution in solutions:
        assert list(solution.derivation.rule_names()) == \
            list(ref_rule_names(solution.derivation))


def pins_for(points):
    """No pin, then each point pinned to each of its variants."""
    return [{}] + [{p.id: k} for p in points for k in range(len(p.variants))]


@pytest.mark.parametrize("case", range(len(CASES)))
def test_odometer_matches_reference_while_variants_arrive(case):
    """The fold caches are split as expansions add variants: after each
    expansion, and after each solution, the odometer still yields what the
    point-by-point reference walk yields, key order and stale entries
    included, and every unexhausted point has an entry in the table's
    index, the newest chosen first."""
    grammar, fs = CASES[case]
    session = GenerationSession(grammar, build_registries())
    checks = [0]

    def check():
        points = captured_points(session)
        open_points = [p for p in points if p.remainder]
        assert set(open_points) <= set(session.table.index)
        assert choose_backtrack_point(session.table, session.spec) is \
            (open_points[-1] if open_points else None)
        if session._shown is None:
            return
        for fixed in pins_for(points):
            got = iter_assignments(session._shown.root, fixed, set())
            assert ordered(got) == \
                ordered(ref_iter_assignments(session._layers[0].items, fixed))
        checks[0] += 1

    expand = session._expand

    def expand_and_check(point):
        k = expand(point)
        check()
        return k

    session._expand = expand_and_check
    for _ in session.solutions(fs):
        check()
    check()
    assert checks[0] > 0 or session._shown is None


@pytest.mark.parametrize("case", range(len(CASES)))
def test_odometer_reports_every_id_it_moved(case):
    """Before each yield, the ids the odometer reported since the last one
    cover every id whose variant differs from the last yield's, an id
    absent there reading as variant 0; before the first, every point it
    reaches that has more than one variant.  Checked after each expansion
    and each solution, under every pin."""
    grammar, fs = CASES[case]
    session = GenerationSession(grammar, build_registries())
    moves = [0]

    def check():
        if session._shown is None:
            return
        points = {p.id: p for p in captured_points(session)}
        for fixed in pins_for(list(points.values())):
            moved: set = set()
            last = None
            for assignment in iter_assignments(session._shown.root, fixed, moved):
                if last is None:
                    want = {pid for pid in assignment if len(points[pid].variants) > 1}
                else:
                    want = {pid for pid, k in assignment.items() if last.get(pid, 0) != k}
                assert want <= moved
                moves[0] += len(want)
                moved.clear()
                last = dict(assignment)

    expand = session._expand

    def expand_and_check(point):
        k = expand(point)
        check()
        return k

    session._expand = expand_and_check
    for _ in session.solutions(fs):
        check()
    assert moves[0] > 0 or all(len(p.variants) < 2 for p in captured_points(session))


def test_no_odometer_is_live_when_runs_split(monkeypatch):
    """``_split`` edits runs in place that a paused odometer would still
    read, so a session splits only while none of its odometers is live."""
    live, splits = [0], [0]

    def counted(root, fixed, moved):
        live[0] += 1
        try:
            yield from iter_assignments(root, fixed, moved)
        finally:
            live[0] -= 1

    def checked(steps, point):
        assert live[0] == 0
        splits[0] += 1
        return split(steps, point)

    split = backtrack._split
    monkeypatch.setattr(session_module, "iter_assignments", counted)
    monkeypatch.setattr(backtrack, "_split", checked)
    for grammar, fs in CASES:
        for _ in GenerationSession(grammar, build_registries()).solutions(fs):
            pass
    assert splits[0] > 0 and live[0] == 0


def test_sessions_pin_the_expanded_chain_in_range(monkeypatch):
    """The odometer takes every run whole and every pin as in range: a
    session pins only the expanded point, to its new variant, and each
    point around it, to the variant holding it, and none of these is
    inside a run.  Every layer a capture freezes has its fold cache."""
    expanded, checked, chained, folded = [], [0], [0], [0]

    def run_ids():
        """The ids in the fragments of every captured layer's runs."""
        stack, ids = [session._layers[0]], set()
        while stack:
            layer = stack.pop()
            ids.update(pid for step in layer.steps
                       if type(step) is backtrack.Run for pid in step.fragment)
            stack.extend(v for p in layer.points for v in p.variants)
        return ids

    def pinned(root, fixed, moved):
        want = {}
        if expanded:
            point = expanded[-1]
            want[point.id] = len(point.variants) - 1
            layer = point.parent
            while layer.point is not None:
                want[layer.point.id] = layer.index
                layer = layer.point.parent
        assert fixed == want
        points = {p.id: p for p in captured_points(session)}
        assert all(k < len(points[pid].variants) for pid, k in fixed.items())
        assert run_ids().isdisjoint(fixed)
        checked[0] += len(fixed)
        chained[0] += len(fixed) > 1
        yield from iter_assignments(root, fixed, moved)

    monkeypatch.setattr(session_module, "iter_assignments", pinned)
    for grammar, fs in CASES:
        expanded.clear()
        session = GenerationSession(grammar, build_registries())
        expand, capture = session._expand, session._capture

        def expand_and_note(point):
            expanded.append(point)
            return expand(point)

        def capture_and_check(top):
            capture(top)
            stack = [top]
            while stack:
                layer = stack.pop()
                assert isinstance(layer.steps, tuple)
                folded[0] += 1
                stack.extend(v for p in layer.points for v in p.variants)

        session._expand = expand_and_note
        session._capture = capture_and_check
        for _ in session.solutions(fs):
            pass
    assert checked[0] > 50 and chained[0] > 5 and folded[0] > 100


# --- depth beyond the recursion limit ------------------------------------------

DEPTH = 5000


def deep_chain():
    """A DEPTH-level right-branching derivation ending in one choice point."""
    fs = FeatureStructure()
    point = BacktrackPoint(1, "X", fs, 0, [], None)
    x = DerivationNode("X", "x", 0)
    x.children.append(LiteralTok("x"))
    point.variants.append(Layer((x,), point, 1))
    tail: list = [point]
    for k in range(DEPTH, 0, -1):
        node = DerivationNode("L", "more", k)
        node.children.extend([LiteralTok(str(k))] + tail)
        tail = [node]
    return tail, point


def test_walkers_on_deep_chain():
    items, point = deep_chain()
    readers: dict = {}
    fill_post_contexts(point.variants[0], readers)
    point.variants[0].steps = layer_steps(point.variants[0])
    root = Layer(items, None, 0)
    point.parent = root
    fill_post_contexts(root, readers)
    root.steps = layer_steps(root)
    assert root.points == (point,)
    assert len(root.frontier) == DEPTH + 1 and root.frontier[-1] is point
    shown = Shown(root)
    assert point.index == DEPTH
    assert root.frontier[point.index + 1:] == ()
    assert root.obligations == () and len(root.names) == DEPTH
    assert [dict(a) for a in iter_assignments(root, {}, set())] == [{point.id: 0}]
    show(shown, {point.id: 0})
    words = " ".join(str(k) for k in range(1, DEPTH + 1))
    assert shown.root.text == words + " x"
    first = resolve(root.items, {point.id: 0})[0]
    names = list(first.rule_names())
    assert len(names) == DEPTH + 1 and names[0] == "more" and names[-1] == "x"
    assert Counter(names) == shown.names
    leaves = resolved_leaves(first)
    assert len(leaves) == DEPTH + 1 and leaves[-1] == LiteralTok("x")
    # a second variant: the first tree is kept
    y = DerivationNode("X", "y", 0)
    y.children.append(LiteralTok("y"))
    point.variants.append(Layer((y,), point, 1))
    fill_post_contexts(point.variants[1], readers)
    point.variants[1].steps = layer_steps(point.variants[1])
    shown.unfold(point)
    assert [dict(a) for a in iter_assignments(root, {}, set())] == \
        [{point.id: 0}, {point.id: 1}]
    show(shown, {point.id: 1})
    assert shown.root.text == words + " y"
    assert resolved_leaves(resolve(root.items, {point.id: 1})[0])[-1] == LiteralTok("y")
    assert resolved_leaves(first)[-1] == LiteralTok("x")
    assert shown.names["x"] == 0 and shown.names["y"] == 1


def test_rule_names_on_deep_tree():
    node = ResolvedNode("leaf", "L", (LiteralTok("x"),))
    for k in range(DEPTH):
        node = ResolvedNode(f"r{k}", "L", (LiteralTok("y"), node))
    names = list(node.rule_names())
    assert len(names) == DEPTH + 1
    assert names[0] == f"r{DEPTH - 1}" and names[-1] == "leaf"
    # printing and hashing a derivation look at its top node only
    assert repr(node) == f"<L 'r{DEPTH - 1}'>"
    assert hash(node) == hash(node)
