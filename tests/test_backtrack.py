import gc
import itertools
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from surfgen.backtrack import BacktrackPoint, Layer, ResolvedNode, iter_assignments
from surfgen.engine import InflectCall, LiteralTok
from surfgen.gil import FeatureStructure, parse_gil
from surfgen.prefs import (CriteriaSpec, Criterion, choose_backtrack_point, make_session,
                           open_point)
from surfgen.session import GenerationSession
from surfgen.tgl import Registries, parse_grammar

from .grammars import (FILTERED_GRAMMAR, LIST_GRAMMAR, NESTED_GRAMMAR,
                       build_registries, flat_grammar, hard_case, list_gil,
                       random_case)
from .test_prefs import _rules
from .test_walkers import captured_points, ref_resolve_items

# A grammar shaped like the worked three-point table: an early choice, a
# later choice whose second alternative fails, and a choice nested inside
# the second one's ego.
TABLE_GRAMMAR = """
(DEFPRODUCTION "top"
  (:PRECOND (:CAT TXT :TEST ((TRUE)))
   :ACTIONS (:TEMPLATE "s1" (:RULE A (SELF)) "s3" (:RULE B (SELF)) "s8")))

(DEFPRODUCTION "a1" (:PRECOND (:CAT A :TEST ((TRUE))) :ACTIONS (:TEMPLATE "s21")))
(DEFPRODUCTION "a2" (:PRECOND (:CAT A :TEST ((TRUE))) :ACTIONS (:TEMPLATE "s22")))

(DEFPRODUCTION "b1"
  (:PRECOND (:CAT B :TEST ((TRUE)))
   :ACTIONS (:TEMPLATE "s51" (:RULE C (SELF)) "s71")))
(DEFPRODUCTION "b2"
  (:PRECOND (:CAT B :TEST ((TRUE)))
   :ACTIONS (:TEMPLATE (:RULE D (PATH MISSING)))))

(DEFPRODUCTION "c1" (:PRECOND (:CAT C :TEST ((TRUE))) :ACTIONS (:TEMPLATE "s61")))
(DEFPRODUCTION "c2" (:PRECOND (:CAT C :TEST ((TRUE))) :ACTIONS (:TEMPLATE "s62")))

(DEFPRODUCTION "d" (:PRECOND (:CAT D :TEST ((TRUE))) :ACTIONS (:TEMPLATE "d")))
"""


@pytest.fixture(scope="module")
def regs():
    return Registries.standard()


def _texts(items):
    return [seg.text if isinstance(seg, LiteralTok) else seg for seg in items]


def _ctx(segments):
    """Readable form of a context: literal texts, B<i> for nested points."""
    out = []
    for seg in segments:
        if isinstance(seg, LiteralTok):
            out.append(seg.text)
        elif isinstance(seg, BacktrackPoint):
            out.append(f"B{seg.id}")
        elif isinstance(seg, InflectCall):
            out.append(f"<{seg.entry.name}>")
    return out


def _contexts(shown, point):
    """(pre-context, post-context) of a point: the frontier on either side
    of it in the layer holding it, through the points around it."""
    pre, post = [], []
    while point is not None:
        frontier = point.parent.frontier
        pre[:0] = frontier[:point.index]
        post.extend(frontier[point.index + 1:])
        point = point.parent.point
    return pre, post


def test_first_solution_and_total(regs):
    g = parse_grammar(TABLE_GRAMMAR)
    session = GenerationSession(g, regs)
    sols = [s.text for s in session.solutions(FeatureStructure())]
    assert sols[0] == "s1 s21 s3 s51 s61 s71 s8"
    assert sols[1] == "s1 s21 s3 s51 s62 s71 s8"
    assert sols[2:] == ["s1 s22 s3 s51 s61 s71 s8", "s1 s22 s3 s51 s62 s71 s8"]
    assert len(sols) == 4


def test_table_shape(regs):
    g = parse_grammar(TABLE_GRAMMAR)
    events = []
    session = GenerationSession(g, regs, trace=events.append)
    list(session.solutions(FeatureStructure()))

    points = {p.id: p for p in captured_points(session)}
    assert len(points) == 3
    b1, b2, b3 = points[1], points[2], points[3]

    (pre1, post1), (pre2, post2), (pre3, post3) = (
        _contexts(session._shown, p) for p in (b1, b2, b3))
    # pre-contexts were known at recording time, left to right
    assert _ctx(pre1) == ["s1"]
    assert _ctx(pre2) == ["s1", "B1", "s3"]
    assert _ctx(pre3) == ["s1", "B1", "s3", "s51"]

    # post-contexts got filled once the first solution existed
    assert _ctx(post1) == ["s3", "B2", "s8"]
    assert _ctx(post2) == ["s8"]
    assert _ctx(post3) == ["s71", "s8"]

    # egos: one sequence per successfully applied conflict-set rule
    def egos(point):
        return [_ctx(v.frontier) for v in point.variants]

    assert egos(b1) == [["s21"], ["s22"]]
    assert egos(b2) == [["s51", "B3", "s71"]]
    assert egos(b3) == [["s61"], ["s62"]]

    # the failing alternative was consumed without producing a variant
    assert [e.rule for e in events if e.kind == "rule-failed"] == ["b2"]
    assert len(b2.variants) == 1
    assert not b2.remainder

    # nesting is recorded: B3 sits inside the first ego of B2
    assert b3.parent is b2.variants[0]
    assert b1.parent is session._layers[0]


# One two-way choice under a rule with a root-level :VAL constraint; each
# alternative binds a feature of its own.
ONE_CHOICE_GRAMMAR = """
(DEFPRODUCTION "s"
  (:PRECOND (:CAT TXT :TEST ((TRUE)))
   :ACTIONS (:TEMPLATE (:RULE C (SELF)) "v" :CONSTRAINTS (TENSE LHS :VAL pres))))
(DEFPRODUCTION "c-sg"
  (:PRECOND (:CAT C :TEST ((TRUE)))
   :ACTIONS (:TEMPLATE "a" :CONSTRAINTS (NUM LHS :VAL sg))))
(DEFPRODUCTION "c-pl"
  (:PRECOND (:CAT C :TEST ((TRUE)))
   :ACTIONS (:TEMPLATE "b" :CONSTRAINTS (NUM LHS :VAL pl))))
"""


def test_layers_are_the_one_derivation_context(regs):
    """Every binding on the session's graph is owned by a layer, the root
    layer owning the root-level ones, and a top-level point's parent is
    the root layer."""
    owners = []

    def watch(event):
        if event.kind == "rule-fired":
            owners.append(list(session.graph.owner.values()))

    session = GenerationSession(parse_grammar(ONE_CHOICE_GRAMMAR), regs,
                                trace=watch)
    stream = session.solutions(FeatureStructure())
    assert next(stream).text == "a v"
    owners.append(list(session.graph.owner.values()))
    assert [s.text for s in stream] == ["b v"]
    root = session._shown.root
    assert len(owners) == 4  # c-sg and s, the first solution, then c-pl
    for seen in owners:
        assert seen and all(isinstance(owner, Layer) for owner in seen)
        assert any(owner is root for owner in seen)
    assert root is session._layers[0] and root.point is None
    assert root.points and all(point.parent is root for point in root.points)
    assert all(variant.point.parent is root and variant.index == k
               for point in root.points
               for k, variant in enumerate(point.variants))


def _leaves(items, assignment):
    """Frontier of items under assignment, by the reference walk."""
    return [p for kind, p in ref_resolve_items(items, assignment) if kind == "leaf"]


@pytest.mark.parametrize("memo", [True, False])
@pytest.mark.parametrize("make_case", [random_case, hard_case])
def test_solutions_decompose_into_contexts_and_ego(make_case, memo):
    """pre-context . chosen ego . post-context, expanded under a solution's
    assignment, is that solution's frontier, for every point it reaches."""
    checked = 0
    for seed in range(100):
        grammar, fs = make_case(seed)
        session = GenerationSession(grammar, build_registries(), use_memo=memo)
        solutions = list(session.solutions(fs))
        root = session._layers[0].items
        for solution in solutions:
            assignment = solution.assignment
            frontier = _leaves(root, assignment)
            reached = [item for item in root if isinstance(item, BacktrackPoint)]
            reached += [child for kind, node in ref_resolve_items(root, assignment)
                        if kind == "node" for child in node.children
                        if isinstance(child, BacktrackPoint)]
            for point in reached:
                ego = point.variants[assignment[point.id]].items[0]
                pre, post = _contexts(session._shown, point)
                got = (_leaves(pre, assignment) + _leaves([ego], assignment)
                       + _leaves(post, assignment))
                assert len(got) == len(frontier)
                assert all(a is b for a, b in zip(got, frontier))
                checked += 1
    assert checked > 500


def test_expansion_fires_only_ego_rules(regs):
    g = parse_grammar(TABLE_GRAMMAR)
    session = GenerationSession(g, regs)
    stream = session.solutions(FeatureStructure())
    next(stream)  # first solution
    before = dict(session.stats.fired_by_rule)
    next(stream)  # expansion of the nested point
    after = dict(session.stats.fired_by_rule)
    delta = {k: v - before.get(k, 0) for k, v in after.items() if v != before.get(k, 0)}
    assert delta == {"c2": 1}


def test_point_only_for_real_conflicts(regs):
    g = parse_grammar(
        '(DEFPRODUCTION "t" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE (:RULE A (SELF)))))\n'
        '(DEFPRODUCTION "only" (:PRECOND (:CAT A :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE "w")))\n'
    )
    session = GenerationSession(g, regs)
    assert [s.text for s in session.solutions(FeatureStructure())] == ["w"]
    assert captured_points(session) == [] and not session.open_points
    assert session.stats.bt_points_created == 0


# A's first rule records a point for B, then fails on D; its second succeeds
DISCARDED_POINT_GRAMMAR = """
(DEFPRODUCTION "top"
  (:PRECOND (:CAT TXT :TEST ((TRUE))) :ACTIONS (:TEMPLATE (:RULE A (SELF)))))
(DEFPRODUCTION "a-bad"
  (:PRECOND (:CAT A :TEST ((TRUE)))
   :ACTIONS (:TEMPLATE (:RULE B (SELF)) (:RULE D (PATH MISSING)))))
(DEFPRODUCTION "a-good" (:PRECOND (:CAT A :TEST ((TRUE))) :ACTIONS (:TEMPLATE "a")))
(DEFPRODUCTION "b1" (:PRECOND (:CAT B :TEST ((TRUE))) :ACTIONS (:TEMPLATE "b1")))
(DEFPRODUCTION "b2" (:PRECOND (:CAT B :TEST ((TRUE))) :ACTIONS (:TEMPLATE "b2")))
(DEFPRODUCTION "d" (:PRECOND (:CAT D :TEST ((TRUE))) :ACTIONS (:TEMPLATE "d")))
"""


def test_point_of_a_failed_rule_never_joins_the_table(regs):
    session = GenerationSession(parse_grammar(DISCARDED_POINT_GRAMMAR), regs)
    assert [s.text for s in session.solutions(FeatureStructure())] == ["a"]
    assert session.stats.bt_points_created == 2
    # only A's point was captured; B's, with b2 untried, went with a-bad
    assert [p.category for p in captured_points(session)] == ["A"]
    assert all(p.category != "B" for p in session.open_points)
    assert choose_backtrack_point(session.open_points, session.spec) is None


def test_conflict_of_three_leaves_remainder_of_two(regs):
    text = "".join(
        f'(DEFPRODUCTION "r{i}" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
        f' :ACTIONS (:TEMPLATE "w{i}")))\n'
        for i in range(3)
    )
    session = GenerationSession(parse_grammar(text), regs)
    stream = session.solutions(FeatureStructure())
    assert next(stream).text == "w0"
    (point,) = captured_points(session)
    assert len(point.remainder) == 2
    assert [s.text for s in stream] == ["w1", "w2"]


# --- the index of open points -------------------------------------------------

# Criteria that key a point by the lowest n among its remainder's rules
# named "cn" (as n - 10), and leave a point without one unranked: under
# weight-ranked, rule cn weighs 10 - n.  Shrinking the remainder from the
# front only raises the key, or leaves the point unranked.
TOY_SPEC = CriteriaSpec(tuple(Criterion(f"c{n}", Fraction(10 - n)) for n in range(10)),
                        mode="weight-ranked")


def indexed(spec, *remainders):
    """A heap holding one real point per remainder, of rules with those
    names, created and entered in that order."""
    index = []
    points = [BacktrackPoint(i, "X", FeatureStructure(), 0, _rules(names), None)
              for i, names in enumerate(remainders, start=1)]
    for point in points:
        open_point(index, point, spec)
    return index, points


def drain(index, spec):
    """The points chosen in turn as each, once chosen, loses one rule."""
    order = []
    while (point := choose_backtrack_point(index, spec)) is not None:
        order.append(point)
        del point.remainder[0]
    return order


def test_index_puts_the_lowest_key_first_and_the_newest_among_equals():
    index, (p1, p2, p3) = indexed(TOY_SPEC, ["c2"], ["c1"], ["c1"])
    assert drain(index, TOY_SPEC) == [p3, p2, p1]


def test_index_puts_unranked_points_after_every_ranked_one_newest_first():
    index, (p1, p2, p3, p4) = indexed(TOY_SPEC, ["x"], ["c7"], ["y"], ["c9"])
    assert drain(index, TOY_SPEC) == [p2, p4, p3, p1]


def test_index_keys_a_shrunk_remainder_again():
    index, (p1, p2) = indexed(TOY_SPEC, ["c1", "c5"], ["c3"])
    assert choose_backtrack_point(index, TOY_SPEC) is p1
    del p1.remainder[0]  # now keyed by c5, behind p2
    assert choose_backtrack_point(index, TOY_SPEC) is p2
    assert drain(index, TOY_SPEC) == [p2, p1]
    # a point left with no c-rule falls behind the ranked points
    index, (p1, p2) = indexed(TOY_SPEC, ["c0", "x"], ["c9"])
    assert choose_backtrack_point(index, TOY_SPEC) is p1
    del p1.remainder[0]
    assert drain(index, TOY_SPEC) == [p2, p1]


def test_index_never_returns_an_exhausted_point():
    index, (p1, p2) = indexed(TOY_SPEC, ["c1"], ["c1", "x"])
    del p2.remainder[1]
    del p2.remainder[0]  # exhausted before its entry reaches the top
    assert choose_backtrack_point(index, TOY_SPEC) is p1
    del p1.remainder[0]
    assert choose_backtrack_point(index, TOY_SPEC) is None
    assert not index
    # a point entered exhausted never enters the heap
    empty = BacktrackPoint(3, "X", FeatureStructure(), 0, [], None)
    open_point(index, empty, TOY_SPEC)
    assert choose_backtrack_point(index, TOY_SPEC) is None and not index


def test_index_without_rank_gives_the_newest_open_point():
    spec = CriteriaSpec()
    index, (p1, p2, p3) = indexed(spec, ["c1", "a"], ["c2"], ["b"])
    assert choose_backtrack_point(index, spec) is p3
    assert drain(index, spec) == [p3, p2, p1, p1]


def test_empty_index_gives_none():
    assert choose_backtrack_point([], CriteriaSpec()) is None
    assert choose_backtrack_point([], TOY_SPEC) is None


# --- memoization --------------------------------------------------------------

MEMO_GRAMMAR = """
(DEFPRODUCTION "top"
  (:PRECOND (:CAT TXT :TEST ((TRUE)))
   :ACTIONS (:TEMPLATE (:RULE X (SELF)))))
(DEFPRODUCTION "x1"
  (:PRECOND (:CAT X :TEST ((TRUE)))
   :ACTIONS (:TEMPLATE (:RULE NP (PATH A)) "mid" (:RULE NP (PATH A)))))
(DEFPRODUCTION "x2" (:PRECOND (:CAT X :TEST ((TRUE))) :ACTIONS (:TEMPLATE "alt")))
(DEFPRODUCTION "np" (:PRECOND (:CAT NP :TEST ((TRUE))) :ACTIONS (:TEMPLATE "noun")))
"""


def test_memo_hit_for_repeated_substructure(regs):
    fs = parse_gil("[(A [(K v)])]")
    session = GenerationSession(parse_grammar(MEMO_GRAMMAR), regs)
    sols = [s.text for s in session.solutions(fs)]
    assert sols == ["noun mid noun", "alt"]
    assert session.stats.fired_by_rule["np"] == 1  # second call was a hit
    assert session.stats.memo_hits == 1


def test_memo_miss_on_different_input(regs):
    g = parse_grammar(
        '(DEFPRODUCTION "t" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE (:RULE NP (PATH A)) (:RULE NP (PATH B)))))\n'
        '(DEFPRODUCTION "np" (:PRECOND (:CAT NP :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE "n")))\n'
    )
    fs = parse_gil("[(A [(K 1)]) (B [(K 2)])]")
    session = GenerationSession(g, regs)
    assert [s.text for s in session.solutions(fs)] == ["n n"]
    assert session.stats.memo_hits == 0
    assert session.stats.fired_by_rule["np"] == 2


def test_memo_hit_on_equal_deep_subtrees(regs):
    # the bucket check compares the two 4000-deep subtrees without recursing
    g = parse_grammar(
        '(DEFPRODUCTION "t" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE (:RULE NP (PATH A)) (:RULE NP (PATH B)))))\n'
        '(DEFPRODUCTION "np" (:PRECOND (:CAT NP :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE "n")))\n'
    )
    deep = "[(K " * 4000 + "v" + ")]" * 4000
    fs = parse_gil(f"[(A {deep}) (B {deep})]")
    session = GenerationSession(g, regs)
    assert [s.text for s in session.solutions(fs)] == ["n n"]
    assert session.stats.memo_hits == 1


def test_memo_disabled_same_solutions_more_firing(regs):
    fs = parse_gil("[(A [(K v)])]")
    with_memo = GenerationSession(parse_grammar(MEMO_GRAMMAR), regs)
    res_a = [s.text for s in with_memo.solutions(fs)]
    without = GenerationSession(parse_grammar(MEMO_GRAMMAR), regs, use_memo=False)
    res_b = [s.text for s in without.solutions(fs)]
    assert res_a == res_b
    assert without.stats.rules_fired >= with_memo.stats.rules_fired
    assert without.stats.memo_hits == 0


def test_side_effects_flush_memo(regs):
    g = parse_grammar(
        '(DEFPRODUCTION "t" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE (:RULE NP (PATH A)) (:RULE NP (PATH A))'
        ' :SIDE-EFFECTS ((note go)))))\n'
        '(DEFPRODUCTION "np" (:PRECOND (:CAT NP :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE "n" :SIDE-EFFECTS ((note np)))))\n'
    )
    fs = parse_gil("[(A [(K v)])]")
    session = GenerationSession(g, regs)
    assert [s.text for s in session.solutions(fs)] == ["n n"]
    # every np firing ran its own effect, so nothing was reused
    assert session.stats.fired_by_rule["np"] == 2


# --- inflection recomputation --------------------------------------------------

AGREEMENT_GRAMMAR = """
(DEFPRODUCTION "top"
  (:PRECOND (:CAT TXT :TEST ((TRUE)))
   :ACTIONS (:TEMPLATE (:RULE NP (PATH SUBJ)) (:FUN (verb (PATH PRED))) "heute"
             :CONSTRAINTS (NUM LHS (NP))
                          (TENSE LHS :VAL pres)
                          (PERSON LHS :VAL 3))))
(DEFPRODUCTION "np-sg"
  (:PRECOND (:CAT NP :TEST ((TRUE)))
   :ACTIONS (:TEMPLATE (:FUN (noun-phrase (PATH NOUN)))
             :CONSTRAINTS (NUM LHS :VAL sg) (CASE LHS :VAL nom) (DET LHS :VAL def))))
(DEFPRODUCTION "np-pl"
  (:PRECOND (:CAT NP :TEST ((TRUE)))
   :ACTIONS (:TEMPLATE (:FUN (noun-phrase (PATH NOUN)))
             :CONSTRAINTS (NUM LHS :VAL pl) (CASE LHS :VAL nom) (DET LHS :VAL def))))
"""


def test_flipped_agreement_reinflects_post_context(regs):
    fs = parse_gil("[(SUBJ [(NOUN appointment)]) (PRED fit)]")
    session = GenerationSession(parse_grammar(AGREEMENT_GRAMMAR), regs)
    sols = [s.text for s in session.solutions(fs)]
    assert sols == ["der Termin passt heute", "die Termine passen heute"]
    # the verb sits outside the ego and was re-realized exactly once
    assert session.stats.re_realizations == 1


def test_untouched_ego_triggers_no_rerealization(regs):
    g = parse_grammar(TABLE_GRAMMAR)
    session = GenerationSession(g, regs)
    list(session.solutions(FeatureStructure()))
    assert session.stats.re_realizations == 0


def test_literals_are_reused_verbatim(regs):
    fs = parse_gil("[(SUBJ [(NOUN appointment)]) (PRED fit)]")
    session = GenerationSession(parse_grammar(AGREEMENT_GRAMMAR), regs)
    sols = list(session.solutions(fs))
    lit_first = [c for c in sols[0].derivation.children if isinstance(c, LiteralTok)]
    lit_second = [c for c in sols[1].derivation.children if isinstance(c, LiteralTok)]
    assert lit_first and all(a is b for a, b in zip(lit_first, lit_second))


# A nested choice (B inside a1's ego) whose enclosing choice recurs over the
# same input: the second A is spliced from the memo, points included.
SPLICED_CHOICE_GRAMMAR = """
(DEFPRODUCTION "top"
  (:PRECOND (:CAT TXT :TEST ((TRUE)))
   :ACTIONS (:TEMPLATE (:RULE A (SELF)) (:FUN (verb fit)) "and" (:RULE A (SELF))
             :CONSTRAINTS (TENSE LHS :VAL pres) (PERSON LHS :VAL 3)
             (NUM LHS :VAL sg))))

(DEFPRODUCTION "a1"
  (:PRECOND (:CAT A :TEST ((TRUE))) :ACTIONS (:TEMPLATE "x" (:RULE B (SELF)))))
(DEFPRODUCTION "a2" (:PRECOND (:CAT A :TEST ((TRUE))) :ACTIONS (:TEMPLATE "y")))

(DEFPRODUCTION "b1" (:PRECOND (:CAT B :TEST ((TRUE))) :ACTIONS (:TEMPLATE "p")))
(DEFPRODUCTION "b2" (:PRECOND (:CAT B :TEST ((TRUE))) :ACTIONS (:TEMPLATE "q")))
"""


@pytest.mark.parametrize("mode", ["first-solution-bias", "weight-ranked"])
def test_session_steered_by_spec_keeps_points_in_its_frontiers(mode):
    """A session given its spec streams what make_session's does, and every
    captured frontier holds preterminals and the points themselves, each
    at its own index in the layer holding it."""
    grammar = parse_grammar(SPLICED_CHOICE_GRAMMAR)
    spec = CriteriaSpec((Criterion("a2", Fraction(2)), Criterion("b2")), mode)
    regs = build_registries()
    session = GenerationSession(grammar, regs, spec=spec)
    got = [(s.text, s.weight) for s in session.solutions(FeatureStructure())]
    want = [(s.text, s.weight) for s in make_session(
        grammar, spec, registries=regs).solutions(FeatureStructure())]
    assert got == want and len(got) == 9
    assert session.spec is spec and session.stats.memo_hits > 0
    layers, points = [session._layers[0]], []
    while layers:
        layer = layers.pop()
        assert all(isinstance(item, (LiteralTok, InflectCall, BacktrackPoint))
                   for item in layer.frontier)
        points.extend(layer.points)
        layers.extend(v for point in layer.points for v in point.variants)
    assert len(points) == 4 and set(session.open_points) <= set(points)
    assert all(point.parent.frontier[point.index] is point for point in points)


def test_first_solution_fills_every_post_context_once(regs):
    g = parse_grammar(TABLE_GRAMMAR)
    session = GenerationSession(g, regs)
    stream = session.solutions(FeatureStructure())
    next(stream)
    # after the first solution every ego set holds exactly one element and
    # every point has its place in the frontier of the layer holding it, so
    # its contexts are known
    points = captured_points(session)
    assert len(points) == 3
    for point in points:
        assert len(point.variants) == 1
        assert point.parent.frontier[point.index] is point
    stream.close()


def test_recursive_grammar_terminates(regs):
    g = parse_grammar(
        '(DEFPRODUCTION "loop" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE (:RULE TXT (SELF)))))'
    )
    session = GenerationSession(g, regs, max_depth=16)
    assert list(session.solutions(FeatureStructure())) == []
    assert len(session.trail) == 0


@pytest.mark.parametrize("items, cutoffs", [(4, 0), (6, 1)])
def test_depth_cutoffs_are_counted(regs, items, cutoffs):
    events = []
    session = GenerationSession(parse_grammar(LIST_GRAMMAR), regs,
                                max_depth=4, trace=events.append)
    texts = [s.text for s in session.solutions(parse_gil(list_gil(items)))]
    assert texts == ([] if cutoffs else ["1 2 3 4"])
    assert session.stats.depth_cutoffs == cutoffs
    assert session.stats.snapshot()["depth-cutoffs"] == cutoffs
    assert [e.kind for e in events].count("depth-cutoff") == cutoffs


def test_session_is_single_use(regs):
    g = parse_grammar('(DEFPRODUCTION "hi" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
                      ' :ACTIONS (:TEMPLATE "hello")))')
    session = GenerationSession(g, regs)
    assert session.first(FeatureStructure()).text == "hello"
    with pytest.raises(Exception, match="exactly once"):
        list(session.solutions(FeatureStructure()))


def test_abandoned_stream_restores_state(regs):
    g = parse_grammar(TABLE_GRAMMAR)
    session = GenerationSession(g, regs)
    stream = session.solutions(FeatureStructure())
    next(stream)
    stream.close()  # caller stops early; cleanup must still run
    assert len(session.trail) == 0
    assert session.graph.is_empty()


@pytest.mark.parametrize("taken", [1, 3, None])
def test_dropped_session_leaves_no_cyclic_garbage(regs, taken):
    """Points link up to the layer holding them and variant layers up to
    their point; once the session goes, reference counting alone frees
    them, whether its stream ran out or was closed early."""
    g = parse_grammar(TABLE_GRAMMAR)
    gc.collect()
    gc.disable()
    try:
        session = GenerationSession(g, regs)
        stream = session.solutions(FeatureStructure())
        texts = [s.text for s in itertools.islice(stream, taken)]
        del session, stream
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(texts) == (taken or 4)


def test_solution_resolves_after_its_session_is_dropped(regs):
    session = GenerationSession(parse_grammar(TABLE_GRAMMAR), regs)
    solutions = list(session.solutions(FeatureStructure()))
    want = [list(s.derivation.rule_names()) for s in solutions]
    del session
    assert [list(s.derivation.rule_names()) for s in solutions] == want


# --- assignment enumeration ----------------------------------------------------

def test_iter_assignments_cross_product(regs):
    g = parse_grammar(TABLE_GRAMMAR)
    session = GenerationSession(g, regs)
    list(session.solutions(FeatureStructure()))
    combos = [dict(a) for a in iter_assignments(session._shown.root, {}, set())]
    assert len(combos) == 4  # |B1| = 2 times |B3| = 2; B2 contributes 1
    points = {p.id: p for p in captured_points(session)}
    assert all(a[points[2].id] == 0 for a in combos)


# --- the root layer is imposed once ---------------------------------------------

POINTS = 16
# perfbench's wide grammar in small: each W<i> holds a two-way choice C<i>
# and three obligations of its own, outside the choice
FLAT_GRAMMAR = "\n".join(
    [f'(DEFPRODUCTION "top" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
     f' :ACTIONS (:TEMPLATE {" ".join(f"(:RULE W{i} (SELF))" for i in range(POINTS))})))']
    + [f'(DEFPRODUCTION "w{i}" (:PRECOND (:CAT W{i} :TEST ((TRUE)))'
       f' :ACTIONS (:TEMPLATE (:RULE C{i} (SELF)) "v{i}"'
       f' :CONSTRAINTS (NUM LHS (C{i})) (TENSE LHS :VAL pres) (PERSON LHS :VAL 3))))'
       for i in range(POINTS)]
    + [f'(DEFPRODUCTION "c{i}-{alt}" (:PRECOND (:CAT C{i} :TEST ((TRUE)))'
       f' :ACTIONS (:TEMPLATE "{alt}{i}" :CONSTRAINTS (NUM LHS :VAL {alt}))))'
       for i in range(POINTS) for alt in ("sg", "pl")])


@pytest.fixture()
def imposes(monkeypatch):
    """Counts FeatureGraph.impose calls, on every graph."""
    from surfgen.engine import FeatureGraph

    calls = [0]
    impose = FeatureGraph.impose

    def counting(self, ob, owner=None):
        calls[0] += 1
        return impose(self, ob, owner)

    monkeypatch.setattr(FeatureGraph, "impose", counting)
    return calls


def test_further_solutions_impose_only_their_egos(regs, imposes):
    session = GenerationSession(parse_grammar(FLAT_GRAMMAR), regs)
    stream = session.solutions(FeatureStructure())
    previous = next(stream).assignment
    # 64 while deriving, then 48 for the root layer and 16 for the egos
    assert imposes[0] == 8 * POINTS
    before = imposes[0]
    changed = expanded = 0
    for _ in range(200):
        fired = session.stats.rules_fired
        solution = next(stream)
        fired = session.stats.rules_fired - fired
        assert fired in (0, 1)
        expanded += fired
        changed += sum(previous[p] != k for p, k in solution.assignment.items())
        previous = solution.assignment
    assert expanded > 1
    # the egos a solution keeps stay imposed: amortized, a changed ego is
    # undone and imposed again at most twice, and each rule an expansion
    # fires imposes its one obligation
    assert imposes[0] - before <= 2 * changed + expanded
    stream.close()
    egos = session._egos
    assert session.graph.is_empty() and len(session.trail) == 0
    assert egos.graph.is_empty() and len(egos.graph.trail) == 0
    assert not egos.layers and not egos.marks


def test_further_solutions_cost_the_same_at_any_width(regs, imposes):
    counts = {}
    for points in (16, 128):
        session = GenerationSession(parse_grammar(flat_grammar(points)), regs)
        stream = session.solutions(FeatureStructure())
        next(stream)
        before = imposes[0]
        for _ in range(64):
            next(stream)
        counts[points] = imposes[0] - before
        stream.close()
    # the odometer's fast digits are the rightmost points: they sit on top
    # of the ego stack, whatever the number of points below them
    assert counts[128] <= 1.25 * counts[16]


def test_further_solutions_join_a_bounded_number_of_parts(regs, monkeypatch):
    """A further solution joins again the blocks of the root layer it
    changed and the blocks' strings, not the root's whole frontier (2N
    parts on a flat grammar of N points)."""
    from surfgen import backtrack

    passed = [0]
    join = backtrack.join_tokens

    def counting(tokens):
        passed[0] += len(tokens)
        return join(tokens)

    monkeypatch.setattr(backtrack, "join_tokens", counting)
    per_solution = {}
    for points in (16, 512):
        session = GenerationSession(parse_grammar(flat_grammar(points)), regs)
        stream = session.solutions(FeatureStructure())
        next(stream)
        before = passed[0]
        for _ in range(8):
            next(stream)
        per_solution[points] = (passed[0] - before) / 8
        stream.close()
    assert per_solution[16] <= 3 * backtrack.BLOCK
    assert per_solution[512] <= 3 * backtrack.BLOCK


def flat_text(solution) -> str:
    """The text a flat grammar's solution must have, read off the rules of
    its derivation: each choice's word, then its verb agreeing with it."""
    words = []
    for name in solution.derivation.rule_names():
        if name.startswith("c"):
            i, alt = name[1:].split("-")
            words += [f"{alt}{i}", "passt" if alt == "sg" else "passen"]
    return " ".join(words)


@pytest.mark.parametrize("criteria", ["", "c3-pl 2\nc37-pl\n"])
def test_blocked_root_layer_shows_every_text(regs, criteria):
    """40 points make a root layer of 80 parts in three blocks.  Choices
    change in the last two (and, under criteria naming c3, in the first),
    each writing the word its ego hands up and the verb inflected again
    outside it; every text is the join of the whole frontier."""
    from surfgen.prefs import parse_criteria

    session = make_session(parse_grammar(flat_grammar(40)),
                           parse_criteria(criteria), registries=regs)
    stream = session.solutions(FeatureStructure())
    texts = set()
    for solution in itertools.islice(stream, 300):
        assert solution.text == flat_text(solution)
        texts.add(solution.text)
    assert len(texts) == 300
    assert session._shown.root.blocks is not None


def classes(graph):
    """A graph's state as {class of slots: its atom}, classes of one unbound
    slot left out."""
    members = {}
    for slot in {*graph.parent, *graph.parent.values(), *graph.binding}:
        members.setdefault(graph.find(slot), set()).add(slot)
    return {frozenset(m): graph.binding.get(root) for root, m in members.items()}


EGO_CASES = [FILTERED_GRAMMAR, NESTED_GRAMMAR, flat_grammar(10)] + list(range(20))


@pytest.mark.parametrize("case", range(len(EGO_CASES)))
def test_ego_stack_holds_the_shown_egos(case, monkeypatch):
    """After each combination's check, consistent or filtered, the ego stack
    holds exactly the egos of the solution it leaves shown, each once, and
    its graph is what imposing the root layer and those egos afresh gives."""
    from surfgen import session as session_module
    from surfgen.engine import FeatureGraph, Trail

    case = EGO_CASES[case]
    if isinstance(case, str):
        grammar, fs = parse_grammar(case), FeatureStructure()
    else:
        grammar, fs = random_case(case)
    session = GenerationSession(grammar, build_registries())
    check = session_module.combination_state
    checked = [0, 0]

    def checking(delta, egos):
        state = check(delta, egos)
        # a filtered combination leaves the shown solution on the stack
        chosen = set(session._shown.chosen.values())
        if state is not None:
            chosen = chosen.difference(delta.left).union(
                layer for layer in delta.entered if layer.point is not None)
        assert len(egos.layers) == len(egos.marks) == len(chosen)
        assert set(egos.layers) == chosen
        fresh = FeatureGraph(Trail())
        for layer in [session._shown.root, *egos.layers]:
            for ob in layer.obligations:
                fresh.impose(ob)
        assert classes(egos.graph) == classes(fresh)
        checked[state is None] += 1
        return state

    monkeypatch.setattr(session_module, "combination_state", checking)
    solutions = list(session.solutions(fs))
    assert checked[0] == len(solutions)
    assert checked[1] == session.stats.combinations_filtered
    if case is FILTERED_GRAMMAR:
        assert checked[1] > 0
    egos = session._egos
    assert egos is None or (egos.graph.is_empty() and not egos.layers)


def test_further_solutions_inflect_only_what_changed(regs, monkeypatch):
    calls = [0]
    realize = InflectCall.realize

    def counting(self, *args):
        calls[0] += 1
        return realize(self, *args)

    monkeypatch.setattr(InflectCall, "realize", counting)
    session = GenerationSession(parse_grammar(flat_grammar(POINTS)), regs)
    stream = session.solutions(FeatureStructure())
    previous = next(stream).assignment
    assert calls[0] == POINTS  # every verb
    flipped = set()
    for _ in range(300):
        before = calls[0]
        solution = next(stream)
        changed = [p for p, k in solution.assignment.items() if previous[p] != k]
        # each changed ego has no call of its own and one verb agreeing with it
        assert calls[0] - before == len(changed)
        flipped.update(changed)
        previous = solution.assignment
    # a verb is inflected anew only the first time its point flips
    assert session.stats.re_realizations == len(flipped)
    stream.close()


def test_derivation_is_resolved_only_when_read(regs, monkeypatch):
    """Emission builds no derivation tree; a solution read after its stream
    is exhausted resolves its own, from its assignment."""
    built = [0]
    init = ResolvedNode.__init__

    def counting(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(ResolvedNode, "__init__", counting)
    session = make_session(parse_grammar(flat_grammar(10)), registries=regs)
    solutions = list(session.solutions(FeatureStructure()))
    assert len(solutions) == 2 ** 10 and built[0] == 0
    second = solutions[1]
    want = list(ref_resolve_items(session._layers[0].items, second.assignment))
    got, stack = [], [second.derivation]
    while stack:
        item = stack.pop()
        if isinstance(item, ResolvedNode):
            got.append(("node", item.rule_name, item.category))
            stack.extend(reversed(item.children))
        else:
            got.append(("leaf", item))
    assert built[0] == sum(kind == "node" for kind, _ in want)
    assert len(got) == len(want)
    for (kind, item), mine in zip(want, got):
        if kind == "node":
            assert mine == ("node", item.rule_name, item.category)
        else:
            assert mine[0] == "leaf" and mine[1] is item


def test_solutions_hash_and_build_a_set(regs):
    session = make_session(parse_grammar(flat_grammar(3)), registries=regs)
    solutions = list(session.solutions(FeatureStructure()))
    assert len(solutions) == 8
    assert len(set(solutions)) == 8  # distinct texts
    again = replace(solutions[5])
    assert again == solutions[5] and hash(again) == hash(solutions[5])
    assert len(set(solutions) | {again}) == 8


DEEP = Path(__file__).resolve().parents[1] / "perfbench" / "grammars" / "deep.tgl"
# The Python-level calls of one further solution of a deep list, at most:
# a ratchet that a change may lower and may not raise
FURTHER_SOLUTION_CALLS = 70


def deep_list(items: int) -> FeatureStructure:
    body = ""
    for k in reversed(range(items)):
        item = f"[(PRED {('professor', 'document')[k % 2]}) (NO {k + 1})]"
        body = f"[(ITEM {item})" + (f" (REST {body})" if body else "") + "]"
    return parse_gil(f"[(ITEMS {body})]")


def further_solution_calls(grammar, items: int) -> int:
    """The Python-level calls (``sys.setprofile`` "call" events) of the
    second solution of a deep list, on a registry an earlier document
    warmed, so that every word form is in its table."""
    regs = Registries.standard()
    assert len(list(make_session(grammar, registries=regs).solutions(deep_list(items)))) == 2
    stream = make_session(grammar, registries=regs).solutions(deep_list(items))
    next(stream)
    calls = [0]

    def count(frame, event, arg):
        if event == "call":
            calls[0] += 1

    sys.setprofile(count)
    try:
        next(stream)
    finally:
        sys.setprofile(None)
    return calls[0]


def test_a_further_solution_makes_as_many_calls_at_any_length():
    """The paper's claim, counted: a further solution of a deep list fires
    one rule, and the calls it makes do not grow with the list."""
    grammar = parse_grammar(DEEP.read_text(encoding="utf-8"))
    short, long = further_solution_calls(grammar, 16), further_solution_calls(grammar, 60)
    assert abs(short - long) <= 2, (short, long)
    assert max(short, long) <= FURTHER_SOLUTION_CALLS, (short, long)


# A chain of nested two-way choices: each level picks "a" or "b" and derives
# the next level inside its own ego
CHOICE_CHAIN_GRAMMAR = """
(DEFPRODUCTION "a" (:PRECOND (:CAT TXT :TEST ((EXISTS NEXT)))
  :ACTIONS (:TEMPLATE "a" (:RULE TXT (PATH NEXT)))))
(DEFPRODUCTION "b" (:PRECOND (:CAT TXT :TEST ((EXISTS NEXT)))
  :ACTIONS (:TEMPLATE "b" (:RULE TXT (PATH NEXT)))))
(DEFPRODUCTION "end" (:PRECOND (:CAT TXT :TEST ((NOT (EXISTS NEXT))))
  :ACTIONS (:TEMPLATE "x")))
"""


@pytest.fixture
def default_recursion_limit():
    """Run a test at the interpreter's default recursion limit."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(limit)


def deep_session(grammar: str, regs) -> GenerationSession:
    """A session whose max_depth leaves the recursion limit to bound it."""
    return GenerationSession(parse_grammar(grammar), regs, max_depth=10_000)


def test_a_400_item_list_derives_within_the_default_recursion_limit(
        regs, default_recursion_limit):
    """A derivation level takes two frames, so 400 levels fit in 1000."""
    session = deep_session(DEEP.read_text(encoding="utf-8"), regs)
    assert len(list(session.solutions(deep_list(400)))) == 2


def test_a_400_level_choice_chain_derives_within_the_default_recursion_limit(
        regs, default_recursion_limit):
    levels = 400
    doc = "[(END x)]"
    for _ in range(levels):
        doc = f"[(NEXT {doc})]"
    stream = deep_session(CHOICE_CHAIN_GRAMMAR, regs).solutions(parse_gil(doc))
    first, second = itertools.islice(stream, 2)
    assert first.text == "a " * levels + "x"
    assert second.text == "a " * (levels - 1) + "b x"
