from dataclasses import replace

import pytest

from surfgen.gil import (
    FeatureStructure,
    Path,
    Sym,
    fs_equal,
    get_path,
    parse_gil,
    quote,
    serialize_gil,
)
from surfgen.prefs import make_session
from surfgen.tgl import (
    LEAF_SELECTORS,
    LEAF_TESTS,
    Equation,
    Expr,
    FunCall,
    Grammar,
    Lhs,
    Literal,
    Registries,
    Rhs,
    RuleCall,
    Severity,
    TglError,
    eval_selector,
    eval_test,
    format_grammar,
    format_rule,
    parse_grammar,
    validate_grammar,
)

from .grammars import hard_case, random_case

VP_RULE = """
(DEFPRODUCTION "VPinf with temp/loc adjuncts"
  (:PRECOND (:CAT VP :TEST ((ROLE-FILLER-P patient)))
   :ACTIONS (:TEMPLATE (:RULE NP (ROLE-FILLER patient))
                       (:OPTRULE PP (TEMP-ADJUNCT))
                       (:OPTRULE PPDUR (TEMP-DURATION))
                       (:OPTRULE PP (LOC-ADJUNCT))
                       (:RULE INF (THEME))
             :CONSTRAINTS (CASE (NP) :VAL akk))))
"""


@pytest.fixture()
def theme(meeting_fs):
    return get_path(meeting_fs, "THEME")


def test_parse_vp_rule():
    g = parse_grammar(VP_RULE)
    assert len(g.rules) == 1
    rule = g.rules[0]
    assert rule.name == "VPinf with temp/loc adjuncts"
    assert rule.category == "VP"
    assert rule.test == Expr("ROLE-FILLER-P", (Sym("patient"),))
    cats = [(a.category, a.optional) for a in rule.template]
    assert cats == [("NP", False), ("PP", True), ("PPDUR", True),
                    ("PP", True), ("INF", False)]
    assert rule.constraints == (Equation("CASE", (Rhs("NP", 1),), Sym("akk")),)


def test_parse_one_rule_canned_text():
    g = parse_grammar('(DEFPRODUCTION "hi" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
                      ' :ACTIONS (:TEMPLATE "hello")))')
    assert len(g.rules) == 1
    assert g.start == "TXT"
    assert g.rules[0].template == (Literal("hello"),)
    assert g.rules[0].test == Expr("TRUE")


def test_duplicate_rule_name():
    text = ('(DEFPRODUCTION "x" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
            ' :ACTIONS (:TEMPLATE "a")))\n') * 2
    with pytest.raises(TglError, match="used twice"):
        parse_grammar(text)


def test_syntax_error_has_position():
    with pytest.raises(TglError) as exc:
        parse_grammar('(DEFPRODUCTION "x"\n  (:PRECOND (:CAT TXT :TEST ((TRUE)')
    assert exc.value.line >= 1


def _rule_with_test(test: str) -> str:
    return ('(DEFPRODUCTION "r" (:PRECOND (:CAT TXT :TEST (%s))'
            ' :ACTIONS (:TEMPLATE "a")))' % test)


def test_superscript_digit_is_not_an_integer():
    with pytest.raises(TglError) as exc:
        parse_grammar(_rule_with_test("(EQ A \u00b2)"))
    assert (exc.value.message, exc.value.line, exc.value.col) == \
        ("unexpected character '\u00b2'", 1, 53)
    assert parse_grammar(_rule_with_test("(EQ A \u0663)")).rules[0].test \
        == Expr("EQ", (Path.parse("A"), 3))


@pytest.mark.parametrize("text", [
    _rule_with_test("(EQ A (B))"),
    '(DEFPRODUCTION "r" (:PRECOND (:CAT TXT)'
    ' :ACTIONS (:TEMPLATE "a" :CONSTRAINTS (N LHS :VAL (x)))))',
])
def test_list_where_an_atom_belongs_is_a_grammar_error(text):
    with pytest.raises(TglError, match="expected an atom, found list"):
        parse_grammar(text)


def test_keyword_where_an_atom_belongs_is_a_grammar_error():
    with pytest.raises(TglError, match="expected an atom, found keyword"):
        parse_grammar(_rule_with_test("(EQ A :B)"))


def test_grammar_made_with_rules_indexes_them_and_refuses_a_repeated_name():
    a, b = parse_grammar(_rule_with_test("(TRUE)")
                         + _rule_with_test("(TRUE)").replace('"r"', '"s"')).rules
    grammar = Grammar(rules=[a, b])
    assert grammar.by_name == {"r": a, "s": b}
    assert grammar.rules_for("TXT") == [a, b]
    with pytest.raises(TglError, match="rule name 'r' used twice"):
        Grammar(rules=[a, b, a])


def test_format_refuses_a_template_item_that_is_no_action():
    rule = parse_grammar(_rule_with_test("(TRUE)")).rules[0]
    odd = Sym("odd")
    with pytest.raises(TypeError) as exc:
        format_rule(replace(rule, template=(Literal("a"), odd)))
    assert exc.value.args == (odd,)


def test_mixed_literals_and_calls_keep_order():
    g = parse_grammar('(DEFPRODUCTION "m" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
                      ' :ACTIONS (:TEMPLATE "a" (:RULE X (SELF)) "b")))')
    t = g.rules[0].template
    assert isinstance(t[0], Literal) and isinstance(t[2], Literal)
    assert isinstance(t[1], RuleCall)


def test_constraint_keyword_spellings():
    for kw in (":CONSTRAINT", ":CONSTRAINTS"):
        g = parse_grammar(f'(DEFPRODUCTION "k" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
                          f' :ACTIONS (:TEMPLATE "a" {kw} (F LHS :VAL v))))')
        assert g.rules[0].constraints == (Equation("F", (Lhs(),), Sym("v")),)


def test_equate_parse():
    g = parse_grammar('(DEFPRODUCTION "e" (:PRECOND (:CAT S :TEST ((TRUE)))'
                      ' :ACTIONS (:TEMPLATE (:RULE NP (SELF))'
                      ' :CONSTRAINTS (NUM LHS (NP)))))')
    eq = g.rules[0].constraints[0]
    assert eq == Equation("NUM", (Lhs(), Rhs("NP", 1)))


def test_side_effects_parse():
    g = parse_grammar('(DEFPRODUCTION "s" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
                      ' :ACTIONS (:TEMPLATE "a" :SIDE-EFFECTS ((note done)))))')
    assert g.rules[0].side_effects == (FunCall("note", (Sym("done"),)),)


def test_literal_escapes():
    g = parse_grammar('(DEFPRODUCTION "t" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
                      ' :ACTIONS (:TEMPLATE "a\\tb\\n")))')
    assert g.rules[0].template == (Literal("a\tb\n"),)


FULL_AST_RULE = """
(DEFPRODUCTION "kitchen sink"
  (:PRECOND (:CAT S :TEST ((OR (AND (TRUE) (EXISTS A.B) (EQ C 5) (EQ D "Prof."))
                               (NOT (ROLE-FILLER-P agent))
                               (HAS-ADJUNCT dur)
                               (PRED busy now (PATH A) (SEL pick (SELF))))))
   :ACTIONS (:TEMPLATE "lit\\ttab"
                       (:FUN (mark x 3 "s" (SEL pick (PATH A))))
                       (:RULE NP (ROLE-FILLER agent))
                       (:OPTRULE PP (LOC-ADJUNCT))
                       (:OPTRULE PP (TEMP-ADJUNCT))
                       (:RULE NP (TEMP-DURATION))
             :SIDE-EFFECTS ((note one) (note (THEME)))
             :CONSTRAINTS (CASE (NP 2) :VAL akk)
                          (NUM LHS (NP 1) (NP 2)))))
"""


def test_full_ast_roundtrip():
    g = parse_grammar(FULL_AST_RULE)
    again = parse_grammar(format_grammar(g))
    assert again.rules[0] == g.rules[0].__class__(
        name=g.rules[0].name, category=g.rules[0].category,
        test=g.rules[0].test, template=g.rules[0].template,
        side_effects=g.rules[0].side_effects,
        constraints=g.rules[0].constraints, line=again.rules[0].line)
    # the rule holds every operator, and a PRED with a SEL argument
    rule = g.rules[0]
    calls = [a for a in rule.template + rule.side_effects if isinstance(a, FunCall)]
    todo = [rule.test] + [a.selector for a in rule.template if isinstance(a, RuleCall)] \
        + [x for call in calls for x in call.args if isinstance(x, Expr)]
    ops, edges = set(), set()
    while todo:
        expr = todo.pop()
        ops.add(expr.op)
        for arg in expr.args:
            if isinstance(arg, Expr):
                edges.add((expr.op, arg.op))
                todo.append(arg)
    assert ops == set(LEAF_TESTS) | set(LEAF_SELECTORS) | {"AND", "OR", "NOT", "PRED", "SEL"}
    assert ("PRED", "SEL") in edges


def test_rule_name_with_escapes_roundtrips():
    name = 'say "hi"\\\n\t'
    g = parse_grammar(f'(DEFPRODUCTION {quote(name)} (:PRECOND (:CAT TXT)'
                      ' :ACTIONS (:TEMPLATE "x")))')
    assert g.rules[0].name == name
    assert parse_grammar(format_grammar(g)).rules[0].name == name


def _grammar_texts(demo_dir):
    from perfbench.workloads import wide_grammar_text

    for name in ("appointment.tgl", "voice.tgl"):
        yield name, (demo_dir / name).read_text(encoding="utf-8")
    yield "wide", wide_grammar_text([8])
    for seed in range(100):
        for make in (random_case, hard_case):
            yield f"{make.__name__}-{seed}", make(seed)[0]


def test_format_grammar_is_a_fixed_point(demo_dir):
    for name, grammar in _grammar_texts(demo_dir):
        if isinstance(grammar, str):
            grammar = parse_grammar(grammar)
        text = format_grammar(grammar)
        assert format_grammar(parse_grammar(text)) == text, name


def test_pretty_print_roundtrip(demo_dir):
    for name in ("appointment.tgl", "voice.tgl"):
        g = parse_grammar((demo_dir / name).read_text(encoding="utf-8"))
        again = parse_grammar(format_grammar(g))
        assert [r.name for r in again.rules] == [r.name for r in g.rules]
        for a, b in zip(g.rules, again.rules):
            assert a.category == b.category
            assert a.test == b.test
            assert a.template == b.template
            assert a.side_effects == b.side_effects
            assert a.constraints == b.constraints


def test_predicate_or_selector_registered_twice_is_refused():
    regs = Registries.standard()
    regs.predicates.register("busy", lambda fs: True)
    regs.selectors.register("agent", lambda fs: fs)
    with pytest.raises(TglError) as refused:
        regs.predicates.register("BUSY", lambda fs: False)
    assert str(refused.value) == "predicate 'BUSY' registered twice"
    with pytest.raises(TglError) as refused:
        regs.selectors.register("agent", lambda fs: fs)
    assert str(refused.value) == "selector 'agent' registered twice"


def test_rule_name_used_twice_outside_the_reader_names_its_line():
    rule = parse_grammar('(DEFPRODUCTION "r" (:PRECOND (:CAT TXT :TEST ())'
                         ' :ACTIONS (:TEMPLATE "a")))').rules[0]
    grammar = parse_grammar("")
    grammar.add(rule)
    with pytest.raises(TglError) as refused:
        grammar.add(rule)
    assert (refused.value.line, refused.value.col) == (1, 0)
    assert str(refused.value) == "1: rule name 'r' used twice"


# --- validation --------------------------------------------------------------

def test_validate_demo_grammars_clean(demo_dir):
    regs = Registries.standard()
    for name in ("appointment.tgl", "voice.tgl"):
        g = parse_grammar((demo_dir / name).read_text(encoding="utf-8"))
        assert validate_grammar(g, regs) == []


def test_validate_unresolved_constituent():
    g = parse_grammar('(DEFPRODUCTION "c" (:PRECOND (:CAT S :TEST ((TRUE)))'
                      ' :ACTIONS (:TEMPLATE (:RULE NP (SELF))'
                      ' :CONSTRAINTS (CASE (NP 2) :VAL akk))))')
    diags = validate_grammar(g, Registries.standard())
    assert any(d.severity is Severity.ERROR and "no such call" in d.message
               for d in diags)


def test_validate_unknown_function():
    g = parse_grammar('(DEFPRODUCTION "f" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
                      ' :ACTIONS (:TEMPLATE (:FUN (frobnicate)))))')
    diags = validate_grammar(g, Registries.standard())
    assert any("frobnicate" in d.message and d.severity is Severity.ERROR
               for d in diags)


def test_validate_unruled_category_is_warning():
    g = parse_grammar('(DEFPRODUCTION "w" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
                      ' :ACTIONS (:TEMPLATE (:RULE NOPE (SELF)))))')
    diags = validate_grammar(g, Registries.standard())
    assert [d.severity for d in diags if "NOPE" in d.message] == [Severity.WARNING]


def test_validate_reads_missing_references_off_the_template():
    """validate_grammar finds the constraint references that no template
    call answers without making any rule's constituents() record, and what
    it reports is what that record says."""
    g = parse_grammar(
        '(DEFPRODUCTION "top" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE (:RULE NP (SELF)) (:OPTRULE PP (SELF)) (:RULE NP (SELF))'
        ' :CONSTRAINTS (CASE (NP 2) :VAL akk) (NUM LHS (NP 3) (PP) (VP))'
        ' (F (np 0) (PP 2)) (G (NP -1) LHS))))\n'
        '(DEFPRODUCTION "np" (:PRECOND (:CAT NP :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE "n" :CONSTRAINTS (NUM LHS :VAL sg))))\n'
        '(DEFPRODUCTION "pp" (:PRECOND (:CAT PP :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE (:RULE NP (SELF)) :CONSTRAINTS (CASE (NP) :VAL dat))))')
    diags = validate_grammar(g, Registries.standard())
    assert all(rule._constituents is None for rule in g.rules)
    assert [str(d) for d in diags if "no such call" in d.message] == [
        f"error: rule 'top' (line 1): constraint names constituent {ref} "
        f"but the template has no such call"
        for ref in ("(NP 3)", "(VP)", "(NP 0)", "(PP 2)", "(NP -1)")]
    for rule in g.rules:
        record = rule.constituents()
        assert rule.missing_refs() == [
            ref for eq, (slots, _) in zip(rule.constraints, record.equations)
            for ref, (k, _) in zip(eq.refs, slots) if k is None]


def test_validate_missing_start_category():
    g = parse_grammar('(DEFPRODUCTION "s" (:PRECOND (:CAT S :TEST ((TRUE)))'
                      ' :ACTIONS (:TEMPLATE "x")))')
    diags = validate_grammar(g, Registries.standard())
    assert any("start category" in d.message for d in diags)


def test_validate_side_effect_needs_undoable_function():
    g = parse_grammar('(DEFPRODUCTION "s" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
                      ' :ACTIONS (:TEMPLATE "x" :SIDE-EFFECTS ((verb foo)))))')
    diags = validate_grammar(g, Registries.standard())
    assert any("undo" in d.message for d in diags)


def test_validate_checks_side_effect_argument_names():
    g = parse_grammar('(DEFPRODUCTION "s" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
                      ' :ACTIONS (:TEMPLATE "a" :SIDE-EFFECTS ((note (SEL nope))))))')
    diags = validate_grammar(g, Registries.standard())
    assert [(d.severity, d.message) for d in diags] == \
        [(Severity.ERROR, "unknown selector 'nope'")]


def test_validate_side_effect_in_a_template_is_an_error():
    g = parse_grammar('(DEFPRODUCTION "s" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
                      ' :ACTIONS (:TEMPLATE (:FUN (note done)))))')
    diags = validate_grammar(g, Registries.standard())
    assert [(d.severity, d.message) for d in diags] == \
        [(Severity.ERROR, "side effect 'note' cannot appear in a template")]


def test_validate_reach_check_meets_a_category_twice_and_goes_on():
    """Below an :OPTRULE, a category met a second time is skipped and the
    walk goes on to the constrained category after it."""
    g = parse_grammar('(DEFPRODUCTION "top" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
                      ' :ACTIONS (:TEMPLATE (:OPTRULE A (SELF)))))\n'
                      '(DEFPRODUCTION "a" (:PRECOND (:CAT A :TEST ((TRUE)))'
                      ' :ACTIONS (:TEMPLATE (:RULE C (SELF)) (:RULE B (SELF))'
                      ' (:RULE B (SELF)))))\n'
                      '(DEFPRODUCTION "b" (:PRECOND (:CAT B :TEST ((TRUE)))'
                      ' :ACTIONS (:TEMPLATE "b")))\n'
                      '(DEFPRODUCTION "c" (:PRECOND (:CAT C :TEST ((TRUE)))'
                      ' :ACTIONS (:TEMPLATE "c" :CONSTRAINTS (F LHS :VAL x))))')
    diags = validate_grammar(g, Registries.standard())
    assert [(d.severity, d.rule) for d in diags] == [(Severity.WARNING, "top")]


def test_validate_warns_when_an_optional_constituent_reaches_constraints():
    g = parse_grammar('(DEFPRODUCTION "top" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
                      ' :ACTIONS (:TEMPLATE (:OPTRULE A (SELF)))))\n'
                      '(DEFPRODUCTION "a" (:PRECOND (:CAT A :TEST ((TRUE)))'
                      ' :ACTIONS (:TEMPLATE (:RULE B (SELF)))))\n'
                      '(DEFPRODUCTION "b" (:PRECOND (:CAT B :TEST ((TRUE)))'
                      ' :ACTIONS (:TEMPLATE "b" :CONSTRAINTS (F LHS :VAL x))))')
    diags = validate_grammar(g, Registries.standard())
    assert [(d.severity, d.rule, d.message) for d in diags] == [(
        Severity.WARNING, "top",
        "optional constituent leads to rules with constraints; their "
        "inclusion follows the first derivation's context")]


# --- test evaluation ---------------------------------------------------------

def test_eval_role_filler_p_on_theme(theme):
    assert eval_test(Expr("ROLE-FILLER-P", (Sym("patient"),)), theme)
    assert eval_test(Expr("ROLE-FILLER-P", (Sym("agent"),)), theme)
    assert not eval_test(Expr("ROLE-FILLER-P", (Sym("beneficiary"),)), theme)


@pytest.mark.parametrize("text", ["[(ARGS 3)]", "[(ARGS patient)]",
                                  "[(ARGS [(ROLE patient)])]"])
def test_role_filler_of_args_that_are_not_a_list_is_absent(text):
    fs = parse_gil(text)
    assert not eval_test(Expr("ROLE-FILLER-P", (Sym("patient"),)), fs)
    assert eval_selector(Expr("ROLE-FILLER", (Sym("patient"),)), fs) is None


def test_eval_role_filler_p_from_top_level(meeting_fs):
    # ARGS is found under THEME when absent at the current level
    assert eval_test(Expr("ROLE-FILLER-P", (Sym("patient"),)), meeting_fs)


def test_eval_exists_time_adjunct(theme):
    from surfgen.gil import Path

    assert eval_test(Expr("EXISTS", (Path.parse("TIME-ADJ"),)), theme)
    assert not eval_test(Expr("EXISTS", (Path.parse("DUR-ADJ"),)), theme)


def test_eval_on_empty_structure():
    from surfgen.gil import Path

    empty = FeatureStructure()
    assert not eval_test(Expr("EXISTS", (Path.parse("X"),)), empty)
    assert eval_test(Expr("NOT", (Expr("EXISTS", (Path.parse("X"),)),)), empty)


def test_eval_atom_eq(theme):
    from surfgen.gil import Path

    assert eval_test(Expr("EQ", (Path.parse("PRED"), Sym("meet"))), theme)
    assert not eval_test(Expr("EQ", (Path.parse("PRED"), Sym("request"))), theme)


def test_eval_has_adjunct(theme):
    assert eval_test(Expr("HAS-ADJUNCT", (Sym("temp"),)), theme)
    assert not eval_test(Expr("HAS-ADJUNCT", (Sym("dur"),)), theme)
    assert not eval_test(Expr("HAS-ADJUNCT", (Sym("loc"),)), theme)


def test_pred_argument_calls_a_registered_selector():
    g = parse_grammar(_rule_with_test("(PRED p (SEL s (SELF)))"))
    regs = Registries.standard()
    regs.predicates.register("p", lambda fs, x: x is fs)
    regs.selectors.register("s", lambda fs, x: x)
    session = make_session(g, registries=regs)
    assert [s.text for s in session.solutions(FeatureStructure())] == ["a"]


def test_eval_call_pred_registry(theme):
    regs = Registries.standard()
    regs.predicates.register("busy", lambda fs, *a: True)
    assert eval_test(Expr("PRED", (Sym("busy"),)), theme, regs.predicates)
    with pytest.raises(TglError, match="unknown predicate"):
        eval_test(Expr("PRED", (Sym("nope"),)), theme, regs.predicates)


# --- selector evaluation -----------------------------------------------------

def test_selector_role_filler_patient(theme):
    got = eval_selector(Expr("ROLE-FILLER", (Sym("patient"),)), theme)
    assert get_path(got, "CONTENT.QFORCE") == Sym("iota")


def test_selector_temp_adjunct(theme):
    got = eval_selector(Expr("TEMP-ADJUNCT"), theme)
    assert get_path(got, "ROLE") == Sym("on")


def test_selector_temp_duration_absent(theme):
    assert eval_selector(Expr("TEMP-DURATION"), theme) is None


def test_selector_theme_and_self(meeting_fs, theme):
    assert eval_selector(Expr("THEME"), meeting_fs) is theme
    # a rule handed the event structure directly keeps working
    assert eval_selector(Expr("THEME"), theme) is theme
    assert eval_selector(Expr("SELF"), theme) is theme


def test_selector_path(meeting_fs):
    from surfgen.gil import Path

    got = eval_selector(Expr("PATH", (Path.parse("THEME.TIME-ADJ.CONTENT"),)), meeting_fs)
    assert get_path(got, "WEEKDAY") == 5


def test_selector_call_registry(theme):
    regs = Registries.standard()
    regs.selectors.register("first-arg", lambda fs, *a: get_path(fs, "ARGS")[0])
    got = eval_selector(Expr("SEL", (Sym("first-arg"),)), theme, regs.selectors)
    assert get_path(got, "ROLE") == Sym("agent")


def test_eval_purity(meeting_fs, theme):
    before = serialize_gil(meeting_fs)
    eval_test(Expr("ROLE-FILLER-P", (Sym("patient"),)), theme)
    eval_selector(Expr("ROLE-FILLER", (Sym("patient"),)), theme)
    eval_selector(Expr("TEMP-ADJUNCT"), theme)
    assert serialize_gil(meeting_fs) == before
    assert fs_equal(parse_gil(before), meeting_fs)


# --- tests nested beyond the recursion limit -----------------------------------

def ref_eval(test, fs):
    """The recursive evaluation the explicit-stack walk replaces."""
    if test.op == "AND":
        return all(ref_eval(t, fs) for t in test.args)
    if test.op == "OR":
        return any(ref_eval(t, fs) for t in test.args)
    if test.op == "NOT":
        return not ref_eval(test.args[0], fs)
    return eval_test(test, fs)


def random_test(rng, depth):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice((Expr("TRUE"), Expr("EXISTS", (Path(("A",)),)),
                           Expr("EXISTS", (Path(("B",)),))))
    op = rng.choice(("AND", "OR", "NOT"))
    if op == "NOT":
        return Expr(op, (random_test(rng, depth - 1),))
    return Expr(op, tuple(random_test(rng, depth - 1) for _ in range(rng.randint(0, 3))))


def test_compound_tests_evaluate_as_the_recursive_reference():
    import random

    rng = random.Random(7)
    fs = parse_gil("[(A x)]")
    values = set()
    for _ in range(2000):
        test = random_test(rng, 5)
        got = eval_test(test, fs)
        assert got is ref_eval(test, fs)
        values.add(got)
    assert values == {True, False}


def test_expr_is_not_equal_to_another_type():
    test = Expr("TRUE")
    assert test.__eq__(("TRUE", 0)) is NotImplemented
    assert test != ("TRUE", 0) and test != "TRUE" and test != test._preorder()
    assert test == Expr("TRUE")


DEEP = 3000


def assert_value_semantics(g, again, leaf, other_leaf):
    """Two reads of one deep rule are equal, hash alike and print alike;
    the rule with its deepest leaf replaced is not equal."""
    rule, same = g.rules[0], again.rules[0]
    assert rule.test is not same.test
    assert rule == same and hash(rule) == hash(same)
    assert repr(rule) == repr(same)
    text = format_grammar(g)
    assert repr(rule.test).startswith("<Expr (") and repr(rule.test)[6:-1] in text
    at = text.rindex(leaf)
    assert parse_grammar(text[:at] + other_leaf + text[at + len(leaf):]).rules[0] != rule


def test_deeply_nested_test_parses_validates_formats_and_evaluates():
    text = ('(DEFPRODUCTION "t" (:PRECOND (:CAT TXT :TEST ('
            + "(NOT (AND (TRUE) " * DEEP + "(PRED nope)" + "))" * DEEP
            + ')) :ACTIONS (:TEMPLATE "x")))\n')
    g = parse_grammar(text)
    test = g.rules[0].test
    for _ in range(DEEP):
        assert test.op == "NOT" and test.args[0].op == "AND"
        assert test.args[0].args[0] == Expr("TRUE")
        test = test.args[0].args[1]
    assert test == Expr("PRED", (Sym("nope"),))
    assert_value_semantics(g, parse_grammar(text), "(PRED nope)", "(PRED nope x)")
    assert format_grammar(parse_grammar(format_grammar(g))) == format_grammar(g)
    assert "(NOT (AND (TRUE) (NOT (AND (TRUE) " in format_grammar(g)
    diags = validate_grammar(g, Registries.standard())
    assert [d.message for d in diags if d.severity is Severity.ERROR] == \
        ["unknown predicate 'nope'"]
    # NOT (AND TRUE x) is NOT x, and an even number of NOTs is none
    for value in (False, True):
        regs = Registries.standard()
        regs.predicates.register("nope", lambda fs: value)
        assert eval_test(g.rules[0].test, FeatureStructure(), regs.predicates) is value


def test_deeply_nested_selector_parses_validates_formats_and_evaluates():
    chain = "(SEL s " * DEEP + "(SELF)" + ")" * DEEP
    g = parse_grammar(f'(DEFPRODUCTION "t" (:PRECOND (:CAT TXT :TEST ((PRED p {chain})))'
                      f' :ACTIONS (:TEMPLATE (:RULE X {chain}))))')
    test = g.rules[0].test
    assert test.op == "PRED" and test.args[0] == Sym("p") and len(test.args) == 2
    for sel in (test.args[1], g.rules[0].template[0].selector):
        for _ in range(DEEP):
            assert sel.op == "SEL" and sel.args[0] == Sym("s") and len(sel.args) == 2
            sel = sel.args[1]
        assert sel == Expr("SELF")
    assert_value_semantics(g, parse_grammar(format_grammar(g)), "(SELF)", "(THEME)")
    text = format_grammar(g)
    assert format_grammar(parse_grammar(text)) == text
    assert "(PRED p (SEL s (SEL s " in text and "(:RULE X (SEL s (SEL s " in text
    regs = Registries.standard()
    unknown = ["unknown selector 's'"] * DEEP
    assert [d.message for d in validate_grammar(g, regs) if d.severity is Severity.ERROR] \
        == unknown + ["unknown predicate 'p'"] + unknown
    fs = FeatureStructure()
    with pytest.raises(TglError, match="unknown selector 's'"):
        eval_selector(g.rules[0].template[0].selector, fs, regs.selectors)
    regs.predicates.register("p", lambda fs, x: True)
    calls = []
    regs.selectors.register("s", lambda fs, x: calls.append(x) or x)
    assert [d for d in validate_grammar(g, regs) if d.severity is Severity.ERROR] == []
    assert eval_selector(g.rules[0].template[0].selector, fs, regs.selectors) is fs
    assert len(calls) == DEEP and all(x is fs for x in calls)


def test_selector_call_arguments_evaluate_left_to_right():
    regs = Registries.standard()
    seen = []
    regs.selectors.register("s", lambda fs, *args: seen.append(args) or fs)
    s = Sym("s")
    call = Expr("SEL", (s, 1, Expr("SEL", (s, "a")), Sym("b"),
                        Expr("SEL", (s, Expr("SEL", (s,)), Expr("SELF")))))
    fs = FeatureStructure()
    assert eval_selector(call, fs, regs.selectors) is fs
    assert seen == [("a",), (), (fs, fs), (1, fs, Sym("b"), fs)]


def test_nested_test_arity_errors_keep_their_place():
    with pytest.raises(TglError, match="NOT wants exactly one expression"):
        parse_grammar('(DEFPRODUCTION "t" (:PRECOND (:CAT TXT :TEST ((AND (TRUE)'
                      ' (NOT (TRUE) (TRUE))))) :ACTIONS (:TEMPLATE "x")))')
    with pytest.raises(TglError, match="OR wants at least one expression"):
        parse_grammar('(DEFPRODUCTION "t" (:PRECOND (:CAT TXT :TEST ((NOT (OR))))'
                      ' :ACTIONS (:TEMPLATE "x")))')
