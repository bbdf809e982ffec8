"""Mutated demo text makes the GIL and TGL readers raise only their own
errors: no other exception may escape a reader.  A reader reads bare
lexemes and, only where that read fails, the text again with located
lexemes to place the error; so both reads of a text must agree."""

import pytest

from surfgen import gil, tgl
from surfgen.gil import GilError, PositionedError, parse_gil, serialize_gil
from surfgen.tgl import TglError, format_grammar, parse_grammar

from .conftest import DEMO_DIR
from .test_readers_pinned import cases

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SOURCES = [(DEMO_DIR / name).read_text(encoding="utf-8")
           for name in ("meeting.gil", "report.gil", "appointment.tgl", "voice.tgl")]
# plus characters that look like digits or letters to str methods but are
# not decimal digits or ASCII letters, a decimal digit of another script,
# and a control character
ALPHABET = sorted(set("".join(SOURCES)) | set("\u00b2\u0663\u00e9\x00"))
MAX_LEN = 200


@st.composite
def mutated_demo_text(draw) -> str:
    source = draw(st.sampled_from(SOURCES))
    start = draw(st.integers(0, len(source) - 1))
    chars = list(source[start:start + MAX_LEN])
    for _ in range(draw(st.integers(0, 8))):
        pos = draw(st.integers(0, len(chars)))
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        if op == "insert":
            chars.insert(pos, draw(st.sampled_from(ALPHABET)))
        elif pos < len(chars):
            if op == "delete":
                del chars[pos]
            else:
                chars[pos] = draw(st.sampled_from(ALPHABET))
    return "".join(chars[:MAX_LEN])


# per language: its scanner, its reader over (lexemes, rest), what a
# reader's result reads as, and the reader's error
READERS = {
    "gil": (gil._SCANNER, gil._read_document, serialize_gil, GilError),
    "tgl": (tgl._SCANNER, lambda *read: tgl._GrammarReader().parse(*read),
            lambda g: (format_grammar(g), [rule.line for rule in g.rules]), TglError),
}


def read(lang: str, text: str, located: bool):
    """What one read of ``text`` makes: a shown value, an error, or None
    where an unlocated read fails for want of a position."""
    scanner, reader, shown, _ = READERS[lang]
    try:
        return "value", shown(reader(*scanner.bare_lexemes(text, located)))
    except gil._Unplaced:
        return None
    except PositionedError as e:
        return type(e), e.message, e.line, e.col


def assert_reads_agree(lang: str, text: str) -> None:
    error = READERS[lang][3]
    bare, located = read(lang, text, False), read(lang, text, True)
    if bare is None:  # the second read fails where the first did, placed
        assert located[0] is error and located[2] >= 1, located
    else:  # a value, or an error that no item places, is the same
        assert bare[0] in ("value", error) and located == bare


@hypothesis.settings(max_examples=300, deadline=None, database=None)
@hypothesis.given(mutated_demo_text())
def test_readers_raise_only_their_own_errors(text):
    for parse, error in ((parse_gil, GilError), (parse_grammar, TglError)):
        try:
            parse(text)
        except error:
            pass
    for lang in READERS:
        assert_reads_agree(lang, text)


def test_both_reads_agree_on_every_pinned_case():
    """The pinned cases also reach values, the errors that no item places
    (an undefined tag, a cycle) and a rule name used twice, which mutated
    windows seldom do."""
    for lang, text in cases().values():
        assert_reads_agree(lang, text)
