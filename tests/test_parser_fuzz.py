"""Mutated demo text makes the GIL and TGL readers raise only their own
errors: no other exception may escape a reader."""

import pytest

from surfgen.gil import GilError, parse_gil
from surfgen.tgl import TglError, parse_grammar

from .conftest import DEMO_DIR

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


@hypothesis.settings(max_examples=300, deadline=None, database=None)
@hypothesis.given(mutated_demo_text())
def test_readers_raise_only_their_own_errors(text):
    for parse, error in ((parse_gil, GilError), (parse_grammar, TglError)):
        try:
            parse(text)
        except error:
            pass
