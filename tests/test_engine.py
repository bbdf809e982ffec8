import random

import pytest

from surfgen.engine import (
    ConstraintClash,
    EngineError,
    FeatureGraph,
    InflectCall,
    Obligation,
    Stats,
    Trail,
    apply_constraints,
    join_tokens,
    match,
    realize,
)
from surfgen.gil import FeatureStructure, Sym, get_path, parse_gil
from surfgen.prefs import load_criteria, make_session
from surfgen.session import GenerationSession
from surfgen.tgl import Registries, Registry, parse_grammar

from .grammars import counting_functions
from .oracle import oracle_solutions
from .test_backtrack import AGREEMENT_GRAMMAR



@pytest.fixture(scope="module")
def regs():
    return Registries.standard()


@pytest.fixture(scope="module")
def appointment(demo_dir):
    return parse_grammar((demo_dir / "appointment.tgl").read_text(encoding="utf-8"))


@pytest.fixture()
def theme(meeting_fs):
    return get_path(meeting_fs, "THEME")


# --- match -------------------------------------------------------------------

def test_match_vp_on_theme(appointment, theme, regs):
    cs = match("VP", theme, appointment, regs)
    assert [r.name for r in cs] == ["VPinf with temp/loc adjuncts"]


def test_match_unknown_category_is_empty(appointment, theme, regs):
    assert match("ZZZ", theme, appointment, regs) == []


def test_match_filters_by_test(regs):
    g = parse_grammar(
        '(DEFPRODUCTION "yes" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE "a")))\n'
        '(DEFPRODUCTION "no" (:PRECOND (:CAT TXT :TEST ((NOT (TRUE))))'
        ' :ACTIONS (:TEMPLATE "b")))\n'
    )
    cs = match("TXT", FeatureStructure(), g, regs)
    assert [r.name for r in cs] == ["yes"]


def test_match_preserves_source_order(regs):
    text = "".join(
        f'(DEFPRODUCTION "r{i}" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
        f' :ACTIONS (:TEMPLATE "w{i}")))\n'
        for i in range(4)
    )
    cs = match("TXT", FeatureStructure(), parse_grammar(text), Registries.standard())
    assert [r.name for r in cs] == ["r0", "r1", "r2", "r3"]


# --- firing through the session ---------------------------------------------

def test_fire_canned_text(regs):
    g = parse_grammar('(DEFPRODUCTION "hi" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
                      ' :ACTIONS (:TEMPLATE "hello")))')
    sol = GenerationSession(g, regs).first(FeatureStructure())
    assert sol.text == "hello"


def test_fire_vp_rule_realizes_example(appointment, theme, regs):
    session = GenerationSession(appointment, regs)
    sol = session.first(theme, start="VP")
    assert sol.text == "Sie am Freitag treffen"


def test_fire_failure_restores_state(meeting_text, regs):
    # variant of the infinitival VP whose object call cannot fail softly:
    # removing the patient argument makes the NP selector come up absent
    theme = get_path(parse_gil(meeting_text.replace("patient", "theme2")), "THEME")
    g = parse_grammar(
        '(DEFPRODUCTION "vp" (:PRECOND (:CAT VP :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE (:RULE NP (ROLE-FILLER patient))'
        ' (:RULE INF (THEME))'
        ' :CONSTRAINTS (CASE (NP) :VAL akk))))\n'
        '(DEFPRODUCTION "inf" (:PRECOND (:CAT INF :TEST ((EXISTS PRED)))'
        ' :ACTIONS (:TEMPLATE (:FUN (verb (PATH PRED))))))\n'
    )
    session = GenerationSession(g, regs)
    assert list(session.solutions(theme, start="VP")) == []
    assert len(session.trail) == 0
    assert session.graph.is_empty()


def test_left_to_right_child_order(regs):
    g = parse_grammar(
        '(DEFPRODUCTION "top" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE "a" (:RULE X (SELF)) "c")))\n'
        '(DEFPRODUCTION "x" (:PRECOND (:CAT X :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE "b")))\n'
    )
    sol = GenerationSession(g, regs).first(FeatureStructure())
    assert sol.text == "a b c"
    kinds = [getattr(c, "rule_name", getattr(c, "text", None))
             for c in sol.derivation.children]
    assert kinds == ["a", "x", "c"]


def test_optional_rule_skipped_on_absent_selector(regs):
    g = parse_grammar(
        '(DEFPRODUCTION "top" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE "start" (:OPTRULE X (PATH MISSING)) "end")))\n'
        '(DEFPRODUCTION "x" (:PRECOND (:CAT X :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE "mid")))\n'
    )
    sol = GenerationSession(g, regs).first(FeatureStructure())
    assert sol.text == "start end"


def test_required_rule_fails_on_absent_selector(regs):
    g = parse_grammar(
        '(DEFPRODUCTION "top" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE "start" (:RULE X (PATH MISSING)))))\n'
        '(DEFPRODUCTION "x" (:PRECOND (:CAT X :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE "mid")))\n'
    )
    assert list(GenerationSession(g, regs).solutions(FeatureStructure())) == []


@pytest.mark.parametrize("text", ["[(X 1)]", "[(DAY [(K 5)])]"])
def test_word_form_call_without_an_atom_argument_fails_its_rule(regs, text):
    g = parse_grammar(
        '(DEFPRODUCTION "holed" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE "am" (:FUN (weekday (PATH DAY))))))\n'
        '(DEFPRODUCTION "plain" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE "some day")))\n'
    )
    events = []
    session = GenerationSession(g, regs, trace=events.append)
    assert [s.text for s in session.solutions(parse_gil(text))] == ["some day"]
    assert [str(e) for e in events if e.kind == "rule-failed"] == \
        ["rule-failed  TXT 'holed' argument of 'weekday' is absent"]
    day = GenerationSession(g, regs).solutions(parse_gil("[(DAY 5)]"))
    assert [s.text for s in day] == ["am Freitag", "some day"]


def test_side_effects_run_first_and_undo(regs):
    g = parse_grammar(
        '(DEFPRODUCTION "top" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE "x" :SIDE-EFFECTS ((note started)))))'
    )
    session = GenerationSession(g, regs)
    sols = list(session.solutions(FeatureStructure()))
    assert [s.text for s in sols] == ["x"]
    # effects are undone once the stream is exhausted
    assert session.memory == {"notes": []}
    assert session.stats.side_effects_run == 1


def test_side_effect_gets_its_selector_value_and_is_undone_when_its_rule_fails():
    """A selector argument of a :SIDE-EFFECTS call is evaluated against the
    rule's input, and the effect it reaches is undone when the rule then
    fails; the next rule of the conflict set runs its own effect."""
    g = parse_grammar(
        '(DEFPRODUCTION "top" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE (:RULE A (SELF)))))\n'
        '(DEFPRODUCTION "a-bad" (:PRECOND (:CAT A :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE (:RULE D (PATH MISSING)) :SIDE-EFFECTS ((log (PATH WHO))))))\n'
        '(DEFPRODUCTION "a-good" (:PRECOND (:CAT A :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE "a" :SIDE-EFFECTS ((log (PATH DAY))))))\n'
    )
    regs = Registries.standard()
    events = []

    def log(memory, args):
        memory.setdefault("log", []).append(args)
        events.append(("run", args))

    def unlog(memory, args, saved):
        memory["log"].pop()
        events.append(("undo", args))

    regs.functions.register_function("log", log, undo=unlog)
    session = GenerationSession(g, regs)
    assert [s.text for s in session.solutions(parse_gil("[(WHO anna) (DAY fri)]"))] == ["a"]
    anna, fri = (Sym("anna"),), (Sym("fri"),)
    assert events == [("run", anna), ("undo", anna), ("run", fri), ("undo", fri)]
    assert session.memory == {"log": []}


@pytest.mark.parametrize("actions, name", [
    ('(:TEMPLATE "x" (:FUN (note)))', "note"),
    ('(:TEMPLATE "x" :SIDE-EFFECTS ((weekday 1)))', "weekday"),
], ids=["side-effect-in-template", "no-undo-under-side-effects"])
def test_unvalidated_session_refuses_a_function_of_the_wrong_kind(
        regs, actions, name):
    """Without validation, the session itself refuses a side effect in a
    template slot and a function without undo under :SIDE-EFFECTS."""
    g = parse_grammar('(DEFPRODUCTION "top" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
                      f' :ACTIONS {actions}))')
    with pytest.raises(EngineError, match=f"'{name}'"):
        list(GenerationSession(g, regs).solutions(FeatureStructure()))


# --- constraints -------------------------------------------------------------

def _rule_with_constraints(text):
    return parse_grammar(text).rules[0]


def test_apply_constraints_assign():
    rule = _rule_with_constraints(
        '(DEFPRODUCTION "vp" (:PRECOND (:CAT VP :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE (:RULE NP (SELF)) :CONSTRAINTS (CASE (NP) :VAL akk))))'
    )
    graph = FeatureGraph(Trail())
    obligations = apply_constraints(rule, lhs_node=1, nodes=(2,),
                                    graph=graph)
    assert graph.value((2, "CASE")) == Sym("akk")
    assert obligations == [Obligation(((2, "CASE"),), Sym("akk"))]


def test_equate_then_assign_percolates():
    rule = _rule_with_constraints(
        '(DEFPRODUCTION "s" (:PRECOND (:CAT S :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE (:RULE NP (SELF))'
        ' :CONSTRAINTS (NUM LHS (NP)) (NUM LHS :VAL sg))))'
    )
    graph = FeatureGraph(Trail())
    apply_constraints(rule, lhs_node=1, nodes=(2,), graph=graph)
    assert graph.value((2, "NUM")) == Sym("sg")


def test_assign_conflict_is_a_clash():
    rule = _rule_with_constraints(
        '(DEFPRODUCTION "c" (:PRECOND (:CAT VP :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE (:RULE NP (SELF))'
        ' :CONSTRAINTS (CASE (NP) :VAL akk) (CASE (NP) :VAL nom))))'
    )
    graph = FeatureGraph(Trail())
    with pytest.raises(ConstraintClash):
        apply_constraints(rule, lhs_node=1, nodes=(2,), graph=graph)


def test_same_value_reassignment_is_fine():
    graph = FeatureGraph(Trail())
    graph.impose(Obligation(((1, "CASE"),), Sym("akk")))
    graph.impose(Obligation(((1, "CASE"),), Sym("AKK")))  # symbols compare case-insensitively
    assert graph.value((1, "CASE")) == Sym("akk")


def test_overwrite_fails_rule_in_generation(regs):
    g = parse_grammar(
        '(DEFPRODUCTION "top" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE (:RULE A (SELF))'
        ' :CONSTRAINTS (F (A) :VAL one))))\n'
        '(DEFPRODUCTION "bad" (:PRECOND (:CAT A :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE "bad" :CONSTRAINTS (F LHS :VAL two))))\n'
        '(DEFPRODUCTION "good" (:PRECOND (:CAT A :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE "good" :CONSTRAINTS (F LHS :VAL one))))\n'
    )
    sols = [s.text for s in GenerationSession(g, regs).solutions(FeatureStructure())]
    assert sols == ["good"]


def test_a_point_whose_every_rule_clashes_with_a_closed_sibling_stays_open(regs):
    """Both B rules clash with a1's binding, a closed sibling's: B's point
    joins the derivation with no variant, and both its rules wait for a
    retry under the always-present context."""
    rules = "".join(
        f'(DEFPRODUCTION "{name}" (:PRECOND (:CAT {name[0]} :TEST ((TRUE)))'
        f' :ACTIONS (:TEMPLATE "{name}" :CONSTRAINTS (F LHS :VAL {value}))))\n'
        for name, value in (("a1", "x"), ("a2", "y"), ("b1", "y"), ("b2", "z")))
    g = parse_grammar(
        '(DEFPRODUCTION "top" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE (:RULE A (SELF)) (:RULE B (SELF))'
        ' :CONSTRAINTS (F (A) (B)))))\n' + rules)
    session = GenerationSession(g, regs)
    texts = [s.text for s in session.solutions(FeatureStructure())]
    assert texts == ["a2 b1"] == oracle_solutions(g, FeatureStructure(), regs)
    assert session.stats.constraint_clashes == 2


def test_unvalidated_constraint_naming_no_constituent_is_an_engine_error(regs):
    g = parse_grammar('(DEFPRODUCTION "c" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
                      ' :ACTIONS (:TEMPLATE (:RULE NP (SELF))'
                      ' :CONSTRAINTS (F (NP 2) :VAL x))))\n'
                      '(DEFPRODUCTION "np" (:PRECOND (:CAT NP :TEST ((TRUE)))'
                      ' :ACTIONS (:TEMPLATE "np")))')
    with pytest.raises(EngineError) as raised:
        list(GenerationSession(g, regs).solutions(FeatureStructure()))
    assert str(raised.value) == ("rule 'c': constraint names (NP 2) but the "
                                 "template has no such constituent")


# --- trail -------------------------------------------------------------------

def test_trail_undo_bindings():
    trail = Trail()
    graph = FeatureGraph(trail)
    graph.impose(Obligation(((1, "CASE"),), Sym("akk")))
    m2 = trail.mark()
    graph.impose(Obligation(((1, "NUM"),), Sym("sg")))
    trail.undo_to(m2)
    assert graph.value((1, "CASE")) == Sym("akk")
    assert graph.value((1, "NUM")) is None


def test_trail_undo_class_merge():
    trail = Trail()
    graph = FeatureGraph(trail)
    mark = trail.mark()
    graph.impose(Obligation(((1, "NUM"), (2, "NUM"))))
    assert graph.find((1, "NUM")) == graph.find((2, "NUM"))
    trail.undo_to(mark)
    assert graph.find((1, "NUM")) != graph.find((2, "NUM"))
    assert graph.is_empty()


def test_trail_undo_merge_restores_bindings():
    trail = Trail()
    graph = FeatureGraph(trail)
    graph.impose(Obligation(((1, "F"),), Sym("x")))
    mark = trail.mark()
    graph.impose(Obligation(((1, "F"), (2, "F"))))
    assert graph.value((2, "F")) == Sym("x")
    trail.undo_to(mark)
    assert graph.value((1, "F")) == Sym("x")
    assert graph.value((2, "F")) is None


def test_trail_unknown_mark():
    trail = Trail()
    with pytest.raises(EngineError, match="unknown trail mark"):
        trail.undo_to(5)


def test_trail_full_undo_equals_fresh_state():
    trail = Trail()
    graph = FeatureGraph(trail)
    base = trail.mark()
    for i in range(5):
        graph.impose(Obligation(((i, "F"),), Sym("v")))
    graph.impose(Obligation(((0, "G"), (1, "G"), (2, "G"))))
    trail.undo_to(base)
    assert graph.is_empty()
    assert len(trail) == 0


def test_ring_lists_each_class_through_unions_and_undo():
    rng = random.Random(11)
    slots = [(n, f) for n in range(8) for f in ("F", "G")]
    trail = Trail()
    graph = FeatureGraph(trail)
    marks = []
    for _ in range(400):
        roll = rng.random()
        if roll < 0.2:
            marks.append(trail.mark())
        elif roll < 0.35 and marks:
            trail.undo_to(marks.pop(rng.randrange(len(marks))))
            marks = [m for m in marks if m <= trail.mark()]
        else:
            graph.impose(Obligation(tuple(rng.sample(slots, rng.randint(2, 3)))))
        for slot in slots:
            members, m = [], slot
            while True:
                members.append(m)
                m = graph.ring.get(m, m)
                if m == slot:
                    break
            root = graph.find(slot)
            assert sorted(members) == [s for s in slots if graph.find(s) == root]
    trail.undo_to(0)
    assert graph.is_empty()


# --- realization -------------------------------------------------------------

def test_realize_example_frontier(regs):
    functions = regs.functions
    calls = [
        InflectCall(functions.require("weekday-pp"), (5,), 1),
        InflectCall(functions.require("verb"), (Sym("meet"),), 1),
    ]
    values = lambda slot: Sym("inf") if slot == (1, "VFORM") else None
    assert realize(calls, functions, values, Stats()) == ["am Freitag", "treffen"]


def test_realize_empty_frontier(regs):
    assert realize([], regs.functions, lambda slot: None, Stats()) == []


def test_realize_changed_hook_changes_form(regs):
    call = InflectCall(regs.functions.require("pronoun-2-formal"), (), 1)
    stats = Stats()
    akk = realize([call], regs.functions,
                  lambda s: Sym("akk"), stats)
    dat = realize([call], regs.functions,
                  lambda s: Sym("dat"), stats)
    assert (akk, dat) == (["Sie"], ["Ihnen"])
    assert stats.re_realizations == 1
    # repeating a seen feature set reuses the cached form
    again = realize([call], regs.functions, lambda s: Sym("akk"), stats)
    assert again == ["Sie"] and stats.re_realizations == 1


@pytest.mark.parametrize("grammar, doc, criteria", [
    ("appointment.tgl", "meeting.gil", None),
    ("appointment.tgl", "meeting.gil", "passive.criteria"),
    ("voice.tgl", "report.gil", None),
    (AGREEMENT_GRAMMAR, "[(SUBJ [(NOUN appointment)]) (PRED fit)]", None),
], ids=["meeting", "meeting-passive", "report", "agreement"])
def test_a_warm_registry_computes_no_form_again(demo_dir, grammar, doc, criteria):
    """One document twice through one Registries: the same stream and
    counters, and on the second pass no word-form function runs."""
    def text(name):
        if name.endswith((".tgl", ".gil")):
            return (demo_dir / name).read_text(encoding="utf-8")
        return name

    grammar, doc = parse_grammar(text(grammar)), parse_gil(text(doc))
    spec = load_criteria(demo_dir / criteria) if criteria else None
    functions, runs = counting_functions(Registries.standard().functions)
    regs = Registries(Registry("predicate"), Registry("selector"), functions)

    def one_pass():
        session = make_session(grammar, spec, registries=regs)
        solutions = [(s.text, s.weight, s.assignment)
                     for s in session.solutions(doc)]
        return solutions, session.stats.snapshot()

    fresh = one_pass()
    computed = sum(runs.values())
    assert computed and fresh[1]["morpho-calls"] >= computed
    assert one_pass() == fresh
    assert sum(runs.values()) == computed


def test_join_tokens_tabs_and_newlines():
    assert join_tokens(["a", "b"]) == "a b"
    assert join_tokens(["a\t", "b"]) == "a\tb"
    assert join_tokens(["a", "\tb"]) == "a\tb"
    assert join_tokens(["row", "\n", "next"]) == "row\nnext"
    assert join_tokens(["", "x", ""]) == "x"


def _join_tokens_loop(tokens) -> str:
    """The token-by-token join, kept as the reference for the fast path."""
    out: list[str] = []
    for tok in tokens:
        if not tok:
            continue
        if out and not out[-1].endswith(("\t", "\n")) \
                and not tok.startswith(("\t", "\n")):
            out.append(" ")
        out.append(tok)
    return "".join(out)


TOKEN_POOL = ["", " ", "\t", "a\t", "\nb", "word", "Zweig", "x y"]


def test_join_tokens_matches_the_loop_on_random_lists():
    rng = random.Random(7)
    for _ in range(2000):
        tokens = [rng.choice(TOKEN_POOL) for _ in range(rng.randint(0, 8))]
        if rng.random() < 0.5:  # half without tabs or newlines: the fast path
            tokens = [t for t in tokens if "\t" not in t and "\n" not in t]
        assert join_tokens(tokens) == _join_tokens_loop(tokens), tokens


def _joined_in_segments(tokens, rng, depth: int) -> str:
    """join_tokens over the joins of random contiguous segments, nested."""
    if depth == 0 or rng.random() < 0.3:
        return join_tokens(tokens)
    cuts = sorted(rng.choices(range(len(tokens) + 1), k=rng.randint(1, 3)))
    bounds = [0] + cuts + [len(tokens)]
    return join_tokens([_joined_in_segments(tokens[a:b], rng, depth - 1)
                        for a, b in zip(bounds, bounds[1:])])


def test_join_tokens_of_segment_joins_is_the_flat_join():
    """A layer's text joins its chosen egos' texts as single tokens: exact,
    since a join starts and ends with its first and last non-empty token."""
    rng = random.Random(8)
    for _ in range(2000):
        tokens = [rng.choice(TOKEN_POOL) for _ in range(rng.randint(0, 12))]
        assert _joined_in_segments(tokens, rng, 3) == join_tokens(tokens), tokens


def test_tabular_output_via_literals(regs):
    g = parse_grammar(
        '(DEFPRODUCTION "table" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE "cell1" "\\t" "cell2" "\\n" "cell3")))'
    )
    sol = GenerationSession(g, regs).first(FeatureStructure())
    assert sol.text == "cell1\tcell2\ncell3"


# --- tracing -------------------------------------------------------------------

def test_trace_event_stream(appointment, meeting_fs, regs):
    events = []
    session = GenerationSession(appointment, regs, trace=events.append)
    list(session.solutions(meeting_fs))
    kinds = [e.kind for e in events]
    assert "rule-firing" in kinds and "rule-fired" in kinds
    assert "bt-created" in kinds and "expand" in kinds and "solution" in kinds
    fired = [e for e in events if e.kind == "rule-fired"]
    assert any(e.category == "TXT" for e in fired)
    # every firing resolves to fired or failed, in nesting order
    opens = sum(1 for k in kinds if k == "rule-firing")
    closes = sum(1 for k in kinds if k in ("rule-fired", "rule-failed"))
    assert opens == closes
    assert all(str(e) for e in events)  # renderable as text lines


# --- determinism -------------------------------------------------------------

def test_two_runs_identical(appointment, meeting_fs, regs):
    runs = []
    for _ in range(2):
        session = GenerationSession(appointment, regs)
        runs.append([s.text for s in session.solutions(meeting_fs)])
    assert runs[0] == runs[1]
    assert runs[0][0] == "Prof. Zweig will Sie am Freitag treffen"
