"""What the GIL and TGL readers make of a text, pinned by digest.

Each case is one text and the reader of its language.  A text that parses
is pinned by its serialization (``serialize_gil``, or ``format_grammar``
plus every ``Rule.line``); a text that fails by the error's type, message,
line and column.  The cases are seeded mutations of the demo texts, in the
scheme of ``test_parser_fuzz`` (a window of at most 200 characters, or the
whole text, with up to 8 insertions, deletions and replacements drawn from
the demo texts' characters), plus hand-written cases for the corners:
forward references, which of several undefined tags is reported, cycles,
a tag defined twice beside another error, a syntax error before a
malformed token, comments ending the text, bad escapes, and each refusal
of the TGL reader that no other case reaches.  After them
come texts at scale (a generated wide-shaped grammar of a few hundred
rules, the benchmark's grammars read from disk, a 60-item right-recursive
list) and corners of telling a lexeme's kind by its first character.  The
digests in ``data/reader_digests.json`` were taken before the readers were
last rewritten; regenerate them only for an intended change of behaviour:

    PYTHONPATH=src python -m tests.test_readers_pinned
"""

import hashlib
import json
import pathlib
import random

from surfgen.gil import parse_gil, serialize_gil
from surfgen.tgl import format_grammar, parse_grammar

from .conftest import DEMO_DIR
from .grammars import list_gil

ROOT = pathlib.Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "data" / "reader_digests.json"
SOURCES = {"gil": ("meeting.gil", "report.gil"),
           "tgl": ("appointment.tgl", "voice.tgl")}
TEXTS = {name: (DEMO_DIR / name).read_text(encoding="utf-8")
         for names in SOURCES.values() for name in names}
ALPHABET = sorted(set("".join(TEXTS.values())))
MUTATED = 2000  # per language
MAX_LEN = 200

RULE = '(DEFPRODUCTION "r" (:PRECOND (:CAT TXT :TEST ({test})) :ACTIONS (:TEMPLATE {body})))'

HAND = {
    "gil": {
        "forward-ref": "[(A #1) (B #1= [(K v)])]",
        "forward-ref-in-list": "[(A < #1, #2 >) (B #2= [(K v)]) (C #1= [(K w)])]",
        "backward-ref": "[(A #1= [(K v)]) (B < #1, [(C #1)] >)]",
        "undefined-several": "[(A [(X #5)]) (B #6) (C < #7 >)]",
        "undefined-through-ref": "[(A #1) (B [(C #7)]) (D #1= [(E #8)])]",
        "undefined-in-nested-list": "[(A < < #3 >, #2 >)]",
        "undefined-and-cycle": "[(A #1= [(B #1)]) (C #9)]",
        "cycle-self": "[(A #1= [(B #1)])]",
        "cycle-pair": "[(A #1= [(B #2)]) (C #2= [(D #1)])]",
        "cycle-in-list": "[(A #1= [(B < x, #1 >)])]",
        "cycle-nested-defs": "[(A #1= [(B #2= [(C #1)])])]",
        "twice": "[(A #1= [(X 1)]) (B #1= [(Y 2)])]",
        "twice-nested": "[(A #1= [(B #1= [(C x)])])]",
        "twice-after-inner-syntax-error": "[(A #1= [(K v)]) (B #1= [(C x) D])]",
        "twice-then-syntax-error": "[(A #1= [(K v)]) (B #1= [(C x)]) (D",
        "twice-then-lex-error": "[(A #1= [(K v)]) (B #1= [(C x)])] $",
        "twice-and-undefined": "[(A #1= [(K #4)]) (B #1= [(C x)])]",
        "def-not-structure": "[(A #1= x)]",
        "list-trailing-comma": "[(A < 1, >)]",
        "list-empty": "[(A < >)]",
        "list-unbalanced": "[(A < 1, 2)]",
        "list-missing-comma": "[(A < 1 2 >)]",
        "comment-ends-text": "[(A 1)] ; done",
        "comment-ends-open-text": "[(A 1)\n ; c",
        "comment-ends-value": "[(A ; c",
        "comment-after-tab": "[(A 1) (B\t;c",
        "comment-only": "; nothing",
        "empty": "",
        "blank": "  \n\t ",
        "unknown-escape": '[(A "x\\q")]',
        "escape-newline": '[(A "x\\\n")]',
        "escape-at-end": '[(A "x\\',
        "escapes": '[(A "a\\"b\\\\c\\nd\\te")]',
        "string-unterminated": '[(A "x',
        "string-newline": '[(A "x\n")]',
        "hash-without-digits": "[(A #x)]",
        "hash-at-end": "[(A #",
        "tag-zero": "[(A #0)]",
        "tag-zeros-def": "[(A #00= [])]",
        "tag-negative": "[(A #-1)]",
        "minus-alone": "[(A -)]",
        "negative-int": "[(A -5) (B 007)]",
        "arabic-digit": "[(A ٣)]",
        "int-then-symbol": "[(A 12abc)]",
        "crlf-tab-position": "[(A 1)\r\n\t(B $)]",
        "not-a-document": "(A 1)",
        "trailing-token": "[(A 1)] x",
        "duplicate-attribute": "[(A 1) (a 2)]",
        "unbalanced-bracket": "[(A [(B 1)]",
        "pair-not-closed": "[(A 1 2)]",
        "name-not-symbol": '[("A" 1)]',
        "value-missing": "[(A)]",
        "symbol-chars": "[(A-b_2 x-y_9)]",
        "syntax-error-then-lex-error": "[(A ] x $",
        "lists-nested-empty": "[(A < < >, < > >)]",
        "list-open-at-end": "[(A <",
        "list-comma-first": "[(A < , 1 >)]",
        "list-unbalanced-at-end": "[(A < 1",
        "int-past-limit": "[(A " + "9" * 5000 + ")]",
        # the refused ']' is read before the number int() refuses
        "int-past-limit-after-refusal": "[(A ] " + "9" * 5000,
    },
    "tgl": {
        "appointment": TEXTS["appointment.tgl"],
        "voice": TEXTS["voice.tgl"],
        "two-rules-lines": RULE.format(test="(TRUE)", body='"a"') + "\n\n;c\n"
        + RULE.replace('"r"', '"s"').format(test="(EQ A.B -3)", body='"b"'),
        "name-twice": RULE.format(test="", body='"a"') + "\n"
        + RULE.format(test="", body='"b"'),
        "arabic-digit": RULE.format(test="(EQ A ٣)", body='"a"'),
        "keyword-dot": RULE.format(test="", body='"a"').replace(":CAT", ":cat.x"),
        "keyword-empty": RULE.format(test="", body='"a"').replace(":CAT", ": CAT"),
        "keyword-at-end": "(DEFPRODUCTION :",
        "unbalanced": '(DEFPRODUCTION "x" (:PRECOND (:CAT TXT',
        "unmatched": ")",
        "unmatched-then-lex-error": '(A) ) "x',
        "top-level-atom": "DEFPRODUCTION",
        "comment-ends-text": RULE.format(test="", body='"a"') + " ; done",
        "comment-ends-open-text": '(DEFPRODUCTION "x" ; c',
        "unknown-escape": RULE.format(test="", body='"a\\q"'),
        "escape-at-end": '(DEFPRODUCTION "x\\',
        "escapes": RULE.format(test="", body='"a\\"b\\\\c\\nd\\te"'),
        "string-unterminated": '(DEFPRODUCTION "x',
        "string-newline": '(DEFPRODUCTION "x\n")',
        "unexpected-char": RULE.format(test="(EQ A #1)", body='"a"'),
        "minus-alone": RULE.format(test="(EQ A -)", body='"a"'),
        "crlf-tab-position": '(DEFPRODUCTION "x"\r\n\t[)',
        "constraints": RULE.format(test="", body='(:RULE NP (SELF)) (:RULE NP (SELF))'
                                   " :CONSTRAINTS (CASE (NP 2) :VAL akk) (NUM LHS (NP))"),
        # one refusal of the reader each, from the conversion of a token to
        # the checks of an equation
        "int-past-limit": RULE.format(test="(EQ A " + "9" * 5000 + ")", body='"a"'),
        "path-not-symbol": RULE.format(test='(EXISTS "A")', body='"a"'),
        "path-empty-segment": RULE.format(test="(EXISTS A..B)", body='"a"'),
        "rule-name-not-string": '(DEFPRODUCTION r (:PRECOND (:CAT TXT)'
        ' :ACTIONS (:TEMPLATE "a")))',
        "rule-body-not-list": '(DEFPRODUCTION "r"\n  body)',
        "precond-missing": '(DEFPRODUCTION "r" (:ACTIONS (:TEMPLATE "a")))',
        "actions-missing": '(DEFPRODUCTION "r" (:PRECOND (:CAT TXT)))',
        "cat-not-symbol": RULE.format(test="", body='"a"').replace(":CAT TXT", ':CAT "TXT"'),
        "test-not-list": RULE.format(test="", body='"a"').replace(":TEST ()", ":TEST TRUE"),
        "cat-missing": RULE.format(test="", body='"a"').replace(":CAT TXT ", ""),
        "sel-without-name": RULE.format(test="", body='(:RULE NP (SEL "f"))'),
        "leaf-arity": RULE.format(test="(EQ A)", body='"a"'),
        "leaf-adjunct-unknown": RULE.format(test="(HAS-ADJUNCT place)", body='"a"'),
        "side-effects-not-list": RULE.format(test="", body='"a" :SIDE-EFFECTS f'),
        "side-effect-not-call": RULE.format(test="", body='"a"\n\t:SIDE-EFFECTS ("f")'),
        "constraints-empty": RULE.format(test="", body='"a" :CONSTRAINTS'),
        "template-empty": RULE.format(test="", body=""),
        "fun-without-name": RULE.format(test="", body='(:FUN ("f"))'),
        "val-two-refs": RULE.format(test="", body='(:RULE NP (SELF))'
                                    "\n  :CONSTRAINTS (CASE LHS (NP) :VAL akk)"),
        "equation-one-ref": RULE.format(test="", body='(:RULE NP (SELF))'
                                        "\n  :CONSTRAINTS (CASE (NP))"),
        "equation-refs-repeated": RULE.format(test="", body='(:RULE NP (SELF))'
                                              "\n  :CONSTRAINTS (CASE (NP) (NP 1))"),
        # the fourth of four ')' closes nothing
        "unmatched-in-run": RULE.format(test="", body='"a"') + ")",
    },
}




def wide_shaped(n: int) -> str:
    """A grammar shaped like the benchmark's wide one: n two-way agreement
    choices under one top rule, rules over two lines, comments between."""
    out = [";; wide-shaped", '(DEFPRODUCTION "top" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
           + "\n :ACTIONS (:TEMPLATE "
           + " ".join(f"(:RULE W{i} (SELF))" for i in range(n)) + ")))"]
    for i in range(n):
        out.append(f'(DEFPRODUCTION "w{i}" (:PRECOND (:CAT W{i} :TEST ((TRUE)))'
                   f'\n :ACTIONS (:TEMPLATE (:RULE C{i} (SELF)) (:FUN (verb fit))'
                   f' :CONSTRAINTS (NUM LHS (C{i})) (TENSE LHS :VAL pres) (PERSON LHS :VAL 3))))')
        for alt in ("sg", "pl"):
            out.append(f'(DEFPRODUCTION "c{i}-{alt}"\n  (:PRECOND (:CAT C{i} :TEST ((EQ NUM {alt})))'
                       f' :ACTIONS (:TEMPLATE "{alt}{i}" :CONSTRAINTS (NUM LHS :VAL {alt}))))')
        if i % 16 == 0:
            out.append(f"; block {i // 16}\n")
    return "\n".join(out) + "\n"


# texts at scale, and corners of classifying a lexeme by its first character
LATER = {
    "gil": {
        "list-60": list_gil(60),
        "symbol-non-ascii": "[(A \u00c4b)]",
        "symbol-then-unicode-digit": "[(A\u0663)]",
        "formfeed-vtab": "[(A 1)\f(B\v2)]",
        "nbsp": "[(A\u00a01)]",
        "tag-unicode-digit": "[(A #\u0663= [(K v)]) (B #\u0663)]",
        "tag-unicode-zero": "[(A #\u0660)]",
        "minus-before-letter": "[(A -x)]",
        "crlf-comment-last-line": "[(A 1)\r\n (B 2)]\r\n; end",
        "crlf-comment-open": "[(A 1) (\r\n; end",
    },
    "tgl": {
        "wide-shaped": wide_shaped(120),
        "deep": (ROOT / "perfbench" / "grammars" / "deep.tgl").read_text(encoding="utf-8"),
        "roster": (ROOT / "perfbench" / "grammars" / "roster.tgl").read_text(encoding="utf-8"),
        "symbol-non-ascii": RULE.format(test="(EQ A \u00c4b)", body='"a"'),
        "vtab-formfeed": RULE.format(test="(TRUE)\v", body='\f"a"'),
        "minus-before-letter": RULE.format(test="(EQ A -x)", body='"a"'),
        "keyword-unicode-digit": RULE.format(test="", body='"a"').replace(":CAT", ":\u0663"),
        "crlf-comment-last-line": RULE.format(test="", body='"a"').replace(
            " :ACTIONS", "\r\n :ACTIONS") + "\r\n; end",
        "crlf-comment-open": '(DEFPRODUCTION "x"\r\n; c',
    },
}


def mutate(rng: random.Random, source: str, whole: bool) -> str:
    start = 0 if whole else rng.randrange(len(source))
    chars = list(source if whole else source[start:start + MAX_LEN])
    for _ in range(rng.randint(0, 3 if whole else 8)):
        pos = rng.randint(0, len(chars))
        op = rng.choice(("insert", "delete", "replace"))
        if op == "insert":
            chars.insert(pos, rng.choice(ALPHABET))
        elif pos < len(chars):
            if op == "delete":
                del chars[pos]
            else:
                chars[pos] = rng.choice(ALPHABET)
    return "".join(chars)


def cases() -> dict:
    """Case name -> (language, text): hand-written cases, mutated texts,
    then the later cases."""
    out = {f"{lang}-{name}": (lang, text)
           for lang, texts in HAND.items() for name, text in texts.items()}
    for lang, names in SOURCES.items():
        rng = random.Random(f"readers-{lang}")
        for k in range(MUTATED):
            source = TEXTS[rng.choice(names)]
            out[f"{lang}-mutated-{k}"] = (lang, mutate(rng, source, k % 2 == 1))
    out.update((f"{lang}-{name}", (lang, text))
               for lang, texts in LATER.items() for name, text in texts.items())
    return out


def outcome(lang: str, text: str) -> list:
    try:
        if lang == "gil":
            return ["ok", serialize_gil(parse_gil(text))]
        grammar = parse_grammar(text)
        return ["ok", format_grammar(grammar), [rule.line for rule in grammar.rules]]
    except Exception as e:  # pinned, whatever it is
        return ["error", type(e).__name__, getattr(e, "message", str(e)),
                getattr(e, "line", None), getattr(e, "col", None)]


def digest(record: list) -> str:
    text = json.dumps(record, separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def compute_digests() -> dict:
    return {name: digest(outcome(lang, text))
            for name, (lang, text) in cases().items()}


def test_readers_match_pinned_digests():
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = compute_digests()
    assert list(got) == list(want)
    differing = [name for name in want if got[name] != want[name]]
    assert not differing, \
        f"{len(differing)} case(s) differ, first: {differing[:5]}"


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(compute_digests(), indent=1) + "\n",
                       encoding="utf-8")
