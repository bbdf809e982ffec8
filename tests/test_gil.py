import random

import pytest

from surfgen import gil
from surfgen.gil import (
    FeatureStructure,
    GilError,
    Path,
    Sym,
    fs_digest,
    fs_equal,
    get_path,
    parse_gil,
    serialize_gil,
)

from .grammars import hard_input, random_input
from .test_readers_pinned import HAND


def test_parse_meeting_document(meeting_fs):
    assert get_path(meeting_fs, "PRED") == Sym("request")
    args = get_path(meeting_fs, "THEME.ARGS")
    assert isinstance(args, tuple) and len(args) == 2
    assert get_path(args[0], "ROLE") == Sym("agent")
    assert get_path(args[1], "ROLE") == Sym("patient")
    # the topicalized constituent is the very same node as the agent argument
    topic = get_path(meeting_fs, "THEME.SMOOD.TOPIC")
    assert topic is args[0]


def test_parse_meeting_values(meeting_fs):
    assert get_path(meeting_fs, "THEME.PRED") == Sym("meet")
    assert get_path(meeting_fs, "THEME.TIME-ADJ.CONTENT.WEEKDAY") == 5
    agent = get_path(meeting_fs, "THEME.ARGS")[0]
    assert get_path(agent, "CONTENT.NAME.TITLE") == "Prof."
    assert get_path(agent, "CONTENT.NAME.SURNAME") == "Zweig"
    patient = get_path(meeting_fs, "THEME.ARGS")[1]
    assert get_path(patient, "CONTENT.QFORCE") == Sym("iota")


def test_empty_structure():
    fs = parse_gil("[]")
    assert len(fs) == 0
    assert get_path(fs, "ANYTHING") is None


def test_symbols_case_insensitive():
    a = parse_gil("[(Pred Request)]")
    b = parse_gil("[(PRED request)]")
    assert fs_equal(a, b)
    assert get_path(a, "pred") == Sym("REQUEST")


def test_sym_compares_and_hashes_its_text_folded_once():
    a, b = Sym("Straße"), Sym("STRASSE")
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert a.folded == "strasse"
    assert a != Sym("strase") and a != "Straße"
    # repr and str show the text as it was written
    assert (repr(a), str(a)) == ("Sym('Straße')", "Straße")


def test_strings_case_sensitive():
    a = parse_gil('[(NAME "Zweig")]')
    b = parse_gil('[(NAME "zweig")]')
    assert not fs_equal(a, b)


def test_string_and_symbol_are_distinct():
    a = parse_gil('[(A "pres")]')
    b = parse_gil("[(A pres)]")
    assert not fs_equal(a, b)


def test_empty_list_is_legal():
    fs = parse_gil("[(L < >)]")
    assert get_path(fs, "L") == ()


def test_dangling_coref_is_an_error():
    with pytest.raises(GilError, match="never defined"):
        parse_gil("[(A #1)]")


def test_undefined_tag_is_found_past_a_node_shared_twice():
    """The reference check walks a shared node once, and goes on past its
    second occurrence to the undefined tag below a later sibling."""
    with pytest.raises(GilError, match="coreference tag #2 is never defined"):
        parse_gil("[(A #1= [(X y)]) (B #1) (C [(D #2)])]")


def test_duplicate_coref_definition():
    with pytest.raises(GilError, match="defined twice"):
        parse_gil("[(A #1= [(X 1)]) (B #1= [(Y 2)])]")


def test_duplicate_attribute():
    with pytest.raises(GilError, match="duplicate attribute"):
        parse_gil("[(A 1) (a 2)]")


def test_coref_cycle_rejected():
    with pytest.raises(GilError, match="cycle"):
        parse_gil("[(A #1= [(B #1)])]")


def test_unbalanced_brackets():
    with pytest.raises(GilError):
        parse_gil("[(A [(B 1)]")
    with pytest.raises(GilError):
        parse_gil("[(A < 1, 2)]")


def test_lexical_error_reports_position():
    with pytest.raises(GilError) as exc:
        parse_gil("[(A 1)\n (B $)]")
    assert exc.value.line == 2
    assert exc.value.col == 5


@pytest.mark.parametrize("text, message, col", [
    ("[(A ²)]", "unexpected character '²'", 5),
    ("[(A 1²)]", "unexpected character '²'", 6),
    ("[(A -²)]", "unexpected character '-'", 5),
    ("[(A #²)]", "expected digits after '#'", 5),
])
def test_superscript_digits_are_not_integers(text, message, col):
    # str.isdigit accepts them but int() does not; only decimal digits count
    with pytest.raises(GilError) as exc:
        parse_gil(text)
    assert (exc.value.message, exc.value.line, exc.value.col) == (message, 1, col)


def test_decimal_digits_of_any_script_are_integers():
    assert get_path(parse_gil("[(A ٣) (B -1٣)]"), "A") == 3
    assert get_path(parse_gil("[(B -1٣)]"), "B") == -13


def test_error_str_and_fields():
    with pytest.raises(GilError) as exc:
        parse_gil("[(A 1)\n (B $)]")
    assert (str(exc.value), exc.value.message) == ("2:5: unexpected character '$'",
                                                   "unexpected character '$'")
    with pytest.raises(GilError) as exc:
        parse_gil("[(A #1)]")
    assert (exc.value.line, exc.value.col) == (0, 0)
    assert str(exc.value) == "coreference tag #1 is never defined"


DEPTH = 100_000


def _deep(leaf: str, depth: int = DEPTH) -> str:
    return "[(A " * depth + leaf + ")]" * depth


def test_deep_document_parses_without_recursion():
    fs = parse_gil(_deep("x"))
    for _ in range(DEPTH):
        fs = get_path(fs, "A")
    assert fs == Sym("x")


def test_deep_lists_and_references_parse_without_recursion():
    depth = 20_000  # far past the recursion limit, and quicker than DEPTH
    fs = parse_gil("[(R #1) (D " + "< " * depth + "#1= [(K v)]" + " >" * depth + ")]")
    node = get_path(fs, "D")
    for _ in range(depth):
        node = node[0]
    assert node is get_path(fs, "R")
    with pytest.raises(GilError, match="cycle"):
        parse_gil("[(A #1= " + _deep("#1", depth) + ")]")
    with pytest.raises(GilError, match="#2 is never defined"):
        parse_gil("[(A #1= " + _deep("#2", depth) + ")]")


def test_fs_equal_on_deep_structures():
    def deep(leaf):
        fs = FeatureStructure([("A", Sym(leaf))])
        for _ in range(DEPTH):
            fs = FeatureStructure([("A", fs)])
        return fs

    assert fs_equal(deep("x"), deep("x"))
    assert not fs_equal(deep("x"), deep("y"))


def test_coref_definition_binds_tighter_than_list_separator():
    fs = parse_gil("[(A < #1= [(K v)], #1 >)]")
    items = get_path(fs, "A")
    assert len(items) == 2
    assert items[0] is items[1]


def test_forward_reference_resolves(meeting_text):
    # TOPIC #1 precedes the #1= definition inside ARGS
    fs = parse_gil(meeting_text)
    assert get_path(fs, "THEME.SMOOD.TOPIC") is get_path(fs, "THEME.ARGS")[0]


# --- coreference corners: the cycle check runs over the graph of tags --------

def test_diamond_of_references_is_accepted():
    # two paths from the root to #3, one through #1 and one through #2
    fs = parse_gil("[(A #1= [(L #3)]) (B #2= [(R #3)]) (C #3= [(K v)]) (D #1)]")
    shared = get_path(fs, "C")
    assert get_path(fs, "A.L") is shared and get_path(fs, "B.R") is shared
    assert get_path(fs, "D") is get_path(fs, "A")


@pytest.mark.parametrize("text", [
    "[(A #1= [(N #2)]) (B #2= [(N #3)]) (C #3= [(N #1)])]",
    "[(C #3= [(N #1)]) (A #1= [(N #2)]) (B #2= [(N #3)])]",
    "[(A #1= [(N #2= [(N #3)])]) (B #3= [(N #1)])]",
])
def test_three_tag_cycle_through_a_forward_reference_is_rejected(text):
    with pytest.raises(GilError, match="coreferences form a cycle"):
        parse_gil(text)


def test_cycle_through_a_list_in_a_nested_definition_is_rejected():
    with pytest.raises(GilError, match="coreferences form a cycle"):
        parse_gil("[(A #1= [(B #2= [(C < x, [(D < #1 >)] >)])])]")
    # the same shape without the way back parses
    fs = parse_gil("[(A #1= [(B #2= [(C < x, [(D < #3 >)] >)])]) (E #3= [])]")
    assert get_path(fs, "A.B.C")[1].get("D")[0] is get_path(fs, "E")


def test_long_chain_of_tags_parses_without_recursion():
    n = 10_000  # far past the recursion limit
    # each #i refers forward to #(i+1), so the check of the tag graph runs
    text = "[" + " ".join(f"(T{i} #{i}= [(N #{i + 1})])" for i in range(1, n)) \
        + f" (T{n} #{n}= [(N end)])]"
    fs = parse_gil(text)
    node = get_path(fs, "T1")
    for i in range(2, n + 1):
        node = node.get("N")
        assert node is get_path(fs, f"T{i}")
    assert node.get("N") == Sym("end")
    with pytest.raises(GilError, match="coreferences form a cycle"):
        parse_gil(text.replace("(N end)", "(N #1)"))


# --- serialization -----------------------------------------------------------

def test_serialize_empty():
    assert serialize_gil(FeatureStructure()) == "[]"


def test_roundtrip_meeting(meeting_text):
    # fixpoint check: parse, serialize, parse again, compare structurally
    first = parse_gil(meeting_text)
    second = parse_gil(serialize_gil(first))
    assert fs_equal(first, second)
    third = parse_gil(serialize_gil(second))
    assert fs_equal(second, third)


def test_serialize_shared_child_emits_one_definition():
    shared = parse_gil("[(X #1= [(K v)]) (Y #1)]")
    out = serialize_gil(shared)
    assert out.count("#1=") == 1
    assert out.count("#1") == 2  # one definition, one reference
    again = parse_gil(out)
    assert get_path(again, "X") is get_path(again, "Y")


def test_serialize_and_repr_of_a_very_deep_document():
    depth = 100_000
    text = "[(A " * depth + "x" + ")]" * depth
    fs = parse_gil(text)
    out = serialize_gil(fs)
    assert out == text
    assert fs_equal(parse_gil(out), fs)
    assert repr(fs) == f"<FeatureStructure {text}>"


@pytest.mark.parametrize("make", ["random", "hard"])
def test_serialize_roundtrips_generated_documents(make):
    """parse(serialize(fs)) equals fs, and serializing again gives the same
    text: sharing and its #n= tags survive the trip."""
    shared = 0
    for seed in range(200):
        rng = random.Random(seed)
        fs = parse_gil(random_input(rng) if make == "random" else hard_input(rng))
        text = serialize_gil(fs)
        again = parse_gil(text)
        assert fs_equal(again, fs), text
        assert serialize_gil(again) == text
        shared += "#1=" in text
    assert shared > 0 or make == "random"


def test_serialize_refuses_a_value_gil_cannot_write():
    with pytest.raises(GilError, match="cannot serialize value of type float"):
        serialize_gil(FeatureStructure([("A", 1.5)]))


def test_serialize_escapes():
    fs = FeatureStructure([("A", 'line\nbreak\t"quoted"')])
    assert fs_equal(parse_gil(serialize_gil(fs)), fs)


# --- get_path ----------------------------------------------------------------

def test_get_path_through_nonstructure_is_absent():
    fs = parse_gil("[(A 5)]")
    assert get_path(fs, "A.B") is None


def test_get_path_distributivity(meeting_fs):
    p, q = Path.parse("THEME"), Path.parse("TIME-ADJ.CONTENT")
    via_full = get_path(meeting_fs, "THEME.TIME-ADJ.CONTENT")
    mid = get_path(meeting_fs, p)
    assert isinstance(mid, FeatureStructure)
    assert get_path(mid, q) is via_full


def test_path_rejects_empty_segments():
    with pytest.raises(ValueError):
        Path.parse("A..B")


# --- equality ----------------------------------------------------------------

def test_fs_equal_simple():
    assert fs_equal(parse_gil("[(A 1)]"), parse_gil("[(A 1)]"))


def test_fs_equal_ignores_attribute_order():
    assert fs_equal(parse_gil("[(A 1) (B 2)]"), parse_gil("[(B 2) (A 1)]"))


def test_fs_equal_detects_single_field_mutation(meeting_text):
    # oracle: textual mutation of one leaf must flip equality
    mutated = meeting_text.replace("(WEEKDAY 5)", "(WEEKDAY 4)")
    assert mutated != meeting_text
    assert not fs_equal(parse_gil(meeting_text), parse_gil(mutated))


def test_fs_equal_list_order_matters():
    assert not fs_equal(parse_gil("[(L < 1, 2 >)]"), parse_gil("[(L < 2, 1 >)]"))


def test_fs_equal_tells_apart_attribute_sets_and_list_lengths():
    assert not fs_equal(parse_gil("[(A 1)]"), parse_gil("[(B 1)]"))
    assert not fs_equal(parse_gil("[(A 1)]"), parse_gil("[(A 1) (B 2)]"))
    assert not fs_equal(parse_gil("[(L < 1 >)]"), parse_gil("[(L < 1, 2 >)]"))
    assert not fs_equal(parse_gil("[(L < >)]"), parse_gil("[(L < [] >)]"))


def test_structure_is_not_equal_to_another_type():
    fs = parse_gil("[(A 1)]")
    assert fs.__eq__("[(A 1)]") is NotImplemented
    assert fs != "[(A 1)]" and fs != 1 and fs != ()


def test_structures_compare_with_equals_by_value():
    assert parse_gil("[(A 1) (L < x >)]") == parse_gil("[(L < x >) (A 1)]")
    assert parse_gil("[(A 1)]") != parse_gil("[(A 2)]")


def test_tag_numbering_is_invisible():
    a = parse_gil("[(X #1= [(K v)]) (Y #1)]")
    b = parse_gil("[(X #7= [(K v)]) (Y #7)]")
    c = parse_gil("[(X [(K v)]) (Y [(K v)])]")  # copies instead of sharing
    assert fs_equal(a, b)
    assert fs_equal(a, c)


def test_digest_agrees_with_equality(meeting_text):
    a, b = parse_gil(meeting_text), parse_gil(meeting_text)
    assert fs_digest(a) == fs_digest(b)


def _random_structure(rng: random.Random, depth: int) -> FeatureStructure:
    pairs = []
    for i in range(rng.randint(0, 3)):
        name = f"A{i}"
        kind = rng.random()
        if kind < 0.4 or depth >= 3:
            value = rng.choice([Sym("x"), Sym("y"), rng.randint(0, 9), "s"])
        elif kind < 0.7:
            value = tuple(
                _random_structure(rng, depth + 1) for _ in range(rng.randint(0, 2))
            )
        else:
            value = _random_structure(rng, depth + 1)
        pairs.append((name, value))
    return FeatureStructure(pairs)


def test_get_path_through_shared_node(meeting_fs):
    # SMOOD.TOPIC is the shared agent node; paths continue through it
    assert get_path(meeting_fs, "THEME.SMOOD.TOPIC.CONTENT.NAME.SURNAME") \
        == "Zweig"


def test_roundtrip_random_structures():
    rng = random.Random(7)
    for _ in range(100):
        fs = _random_structure(rng, 0)
        assert fs_equal(fs, parse_gil(serialize_gil(fs)))


def test_a_refused_document_converts_each_later_number_once(monkeypatch):
    """Once a token is refused, only the located read converts the numbers
    after it: the bare read stops at the refusal.  The error is the pinned
    one, int()'s refusal of the number, which comes before the refusal."""
    text = HAND["gil"]["int-past-limit-after-refusal"]
    converted = []
    number = gil._number

    def counted(lexeme):
        converted.append(lexeme)
        return number(lexeme)

    monkeypatch.setattr(gil, "_number", counted)
    with pytest.raises(GilError, match="Exceeds the limit") as refused:
        parse_gil(text)
    assert (refused.value.line, refused.value.col) == (1, 7)
    assert converted == ["9" * 5000]
