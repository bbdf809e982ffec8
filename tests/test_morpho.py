import pytest

from surfgen.engine import InflectCall, Stats
from surfgen.gil import Sym
from surfgen.morpho import (
    MAX_FORMS,
    WEEKDAYS,
    FunctionRegistry,
    MorphoError,
    default_lexicon,
    inflect,
    parse_lexicon,
    standard_functions,
)

from .grammars import counting_functions


@pytest.fixture(scope="module")
def lexicon():
    return default_lexicon()


@pytest.fixture(scope="module")
def registry(lexicon):
    return standard_functions(lexicon)


def _req(registry, fn, args=(), **features):
    """The arguments of ``inflect`` for one call of fn."""
    return registry.require(fn), tuple(args), tuple(features.items())


def test_infinitive_verb(registry):
    assert inflect(*_req(registry, "verb", [Sym("meet")], VFORM=Sym("inf"))) == "treffen"


def test_finite_verb(registry):
    req = _req(registry, "verb", [Sym("meet")],
               TENSE=Sym("pres"), NUM=Sym("sg"), PERSON=3)
    assert inflect(*req) == "trifft"


def test_weekday_pp(registry):
    assert inflect(*_req(registry, "weekday-pp", [5])) == "am Freitag"


def test_weekday_mapping(registry):
    assert WEEKDAYS == ("Montag", "Dienstag", "Mittwoch", "Donnerstag",
                        "Freitag", "Samstag", "Sonntag")
    for n, name in enumerate(WEEKDAYS, start=1):
        assert inflect(*_req(registry, "weekday", [n])) == name
    with pytest.raises(MorphoError):
        inflect(*_req(registry, "weekday", [8]))


def test_duration_pp(registry):
    assert inflect(*_req(registry, "duration-pp", [1])) == "für eine Stunde"
    assert inflect(*_req(registry, "duration-pp", [3])) == "für 3 Stunden"
    for bad in (0, Sym("3"), "3"):
        with pytest.raises(MorphoError, match="duration-pp wants a positive integer"):
            inflect(*_req(registry, "duration-pp", [bad]))


@pytest.mark.parametrize("fn", ["verb", "verb-pp", "noun-phrase", "weekday", "duration-pp"])
@pytest.mark.parametrize("args", [[], [1, 2]])
def test_single_argument_functions_refuse_another_arity(registry, fn, args):
    with pytest.raises(MorphoError, match=f"^{fn} expects exactly one argument$"):
        inflect(*_req(registry, fn, args))


def test_unknown_lemma(registry):
    with pytest.raises(MorphoError, match="unknown lemma"):
        inflect(*_req(registry, "verb", [Sym("xyzzy")], VFORM=Sym("inf")))


def test_unknown_function(registry):
    with pytest.raises(MorphoError, match="unknown function"):
        inflect(*_req(registry, "frobnicate", []))


def test_fallback_form(registry):
    # sie-formal has a fallback for feature sets matching no cell
    assert inflect(*_req(registry, "pronoun-2-formal", [])) == "Sie"


def test_most_specific_cell_wins():
    lex = parse_lexicon("w | a=1 -> narrow | a=1,b=2 -> wide\n")
    assert lex.inflect("w", {"A": "1", "B": "2"}) == "wide"
    assert lex.inflect("w", {"A": "1"}) == "narrow"


def test_ambiguous_paradigm_match():
    lex = parse_lexicon("w | a=1 -> one | b=2 -> two\n")
    with pytest.raises(MorphoError, match="ambiguous"):
        lex.inflect("w", {"A": "1", "B": "2"})


def test_no_matching_cell_without_fallback():
    lex = parse_lexicon("w | a=1 -> one\n")
    with pytest.raises(MorphoError, match="no form"):
        lex.inflect("w", {"A": "2"})


def test_feature_sensitivity(registry):
    sg = _req(registry, "verb", [Sym("fit")],
              TENSE=Sym("pres"), NUM=Sym("sg"), PERSON=3)
    pl = _req(registry, "verb", [Sym("fit")],
              TENSE=Sym("pres"), NUM=Sym("pl"), PERSON=3)
    assert inflect(*sg) == "passt"
    assert inflect(*pl) == "passen"


def test_determinism(registry):
    req = _req(registry, "noun-phrase", [Sym("document")],
               DET=Sym("def"), CASE=Sym("akk"), NUM=Sym("sg"))
    assert inflect(*req) == inflect(*req) == "den Bericht"


def test_duplicate_registration():
    reg = FunctionRegistry()
    reg.register_function("f", lambda a, f: "x")
    with pytest.raises(MorphoError, match="twice"):
        reg.register_function("F", lambda a, f: "y")


def test_lexicon_parse_errors():
    with pytest.raises(MorphoError, match="lacks '->'"):
        parse_lexicon("w | a=1 form\n")
    with pytest.raises(MorphoError, match="defined twice"):
        parse_lexicon("w | -> x\nW | -> y\n")


# ---------------------------------------------------------------------------
# Lexicon case

CASE_LEXICON = "termin | CASE=Akk -> den Termin | -> der Termin\n"


@pytest.mark.parametrize("value", [Sym("akk"), Sym("Akk"), Sym("AKK"), "akk", "Akk"])
def test_lexicon_feature_values_compare_case_insensitively(value):
    lex = parse_lexicon(CASE_LEXICON)
    assert lex.inflect("termin", {"case": value}) == "den Termin"
    assert lex.inflect("termin", {"CASE": Sym("dat")}) == "der Termin"


@pytest.mark.parametrize("text, message", [
    ("w | =akk -> x\n", r"line 1: bad feature '=akk'"),
    ("# head\nw | case= -> x\n", r"line 2: bad feature 'case='"),
    ("w | case -> x\n", r"line 1: bad feature 'case'"),
    ("w | a=1, -> x\n", r"line 1: bad feature ''"),
    ("w | case=akk,CASE=dat -> x\n", r"line 1: feature CASE named twice"),
    ("w | case=akk -> x | CASE=AKK -> y\n", r"line 1: duplicate paradigm cell"),
    ("w | num=sg,case=Akk -> x | CASE=akk,Num=SG -> y\n",
     r"line 1: duplicate paradigm cell"),
    ("# head\n | -> x\n", r"line 2: entry without a lemma"),
    ("w | case=akk ->\n", r"line 1: empty surface form"),
    ("w | -> x | -> y\n", r"line 1: two fallback cells"),
])
def test_lexicon_rejects_malformed_and_duplicate_cells(text, message):
    with pytest.raises(MorphoError, match=message):
        parse_lexicon(text)


# ---------------------------------------------------------------------------
# The registry's table of word forms.  Each form is realized by a fresh
# InflectCall, as a new session would, so only the shared table can answer.

def _form(registry, function, args=(), **features):
    call = InflectCall(registry.require(function), tuple(args), 0)
    return call.realize(lambda slot: features.get(slot[1]), registry, Stats())


def test_form_table_keeps_the_case_of_symbol_arguments():
    registry = standard_functions(default_lexicon())
    assert _form(registry, "string", [Sym("zweig")]) == "zweig"
    assert _form(registry, "string", [Sym("zweig")]) == "zweig"
    assert _form(registry, "string", [Sym("Zweig")]) == "Zweig"
    assert _form(registry, "string", ["Zweig"]) == "Zweig"
    assert len(registry.forms) == 3


def test_form_table_keeps_the_case_of_feature_values():
    registry = FunctionRegistry()
    registry.register_function(
        "mark", lambda args, features: ",".join(
            f"{k}={v}" for k, v in sorted(features.items())),
        features=("CASE", "NUM"))
    assert _form(registry, "mark", CASE=Sym("akk")) == "CASE=akk"
    assert _form(registry, "mark", CASE=Sym("AKK")) == "CASE=AKK"
    assert _form(registry, "mark", CASE="akk") == "CASE=akk"
    assert _form(registry, "mark", CASE=Sym("akk"), NUM=1) == "CASE=akk,NUM=1"
    assert _form(registry, "mark", CASE=Sym("akk"), NUM="1") == "CASE=akk,NUM=1"
    assert len(registry.forms) == 5
    # arguments and features stay apart
    assert _form(registry, "mark", ["CASE", Sym("akk")]) == ""


def test_form_table_tells_an_integer_from_a_string():
    registry = standard_functions(default_lexicon())
    assert _form(registry, "weekday", [5]) == "Freitag"
    with pytest.raises(MorphoError, match="integer"):
        _form(registry, "weekday", ["5"])
    with pytest.raises(MorphoError, match="integer"):
        _form(registry, "weekday", [Sym("5")])
    assert _form(registry, "weekday", [5]) == "Freitag"


def test_form_table_stores_no_error():
    registry, runs = counting_functions(standard_functions(default_lexicon()))
    for _ in range(3):
        with pytest.raises(MorphoError, match="integer 1..7"):
            _form(registry, "weekday", [8])
    assert runs["weekday"] == 3
    assert registry.forms == {}
    assert _form(registry, "weekday", [1]) == _form(registry, "weekday", [1])
    assert runs["weekday"] == 4


def test_form_table_stays_within_its_bound():
    registry, runs = counting_functions(standard_functions(default_lexicon()))
    for n in range(MAX_FORMS + 10):
        assert _form(registry, "string", [f"w{n}"]) == f"w{n}"
        assert len(registry.forms) <= MAX_FORMS
    assert len(registry.forms) == 10
    assert _form(registry, "string", [f"w{MAX_FORMS + 9}"]) == f"w{MAX_FORMS + 9}"
    assert runs["string"] == MAX_FORMS + 10
