"""Inflection functions and the toy lexicon backing the demo grammars.

Grammar rules defer word forms to named functions; a function receives its
literal arguments plus whatever agreement features (CASE, NUM, TENSE, ...)
are bound on its rule's feature node at output time.  Functions are kept in
a registry so grammars stay declarative: a rule may only call names that
were registered before generation starts.

Side-effect functions live in the same registry but must be registered with
an undo callback, because every effect has to be reversible on backtracking.

A registry keeps one table of the word forms computed so far, shared by
every session built on it.  So a word-form function must be a pure function
of its name, its exact arguments and its bound features, and a lexicon must
not be edited once ``standard_functions`` has closed over it.

Lexicon file format (UTF-8, ``#`` comments)::

    lemma | key=val,key=val -> form | key=val -> form | -> fallback form

Cells are separated by ``|``; each cell maps a feature combination to a
surface form; a cell without features is the fallback.  The most specific
matching cell wins.  Feature names and values compare case-insensitively,
on both the lexicon's side and the request's.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional

from .gil import Sym

#: Weekday names for integers 1..7 (1 = Montag, 5 = Freitag).
WEEKDAYS = ("Montag", "Dienstag", "Mittwoch", "Donnerstag",
            "Freitag", "Samstag", "Sonntag")

#: A registry's table of word forms is emptied when it holds this many.
MAX_FORMS = 8192


class MorphoError(Exception):
    pass


FeatureKey = frozenset  # of (feature, value-text) pairs


def _canonical(features: Mapping[str, object]) -> FeatureKey:
    """Feature names upper-cased, values as casefolded text."""
    return frozenset([(k.upper(), str(v).casefold()) for k, v in features.items()])


@dataclass
class LexiconEntry:
    lemma: str
    paradigm: dict[FeatureKey, str] = field(default_factory=dict)
    fallback: Optional[str] = None

    def lookup(self, features: Mapping[str, object]) -> str:
        have = _canonical(features)
        best: list[tuple[int, str]] = []
        for key, form in self.paradigm.items():
            if key <= have:
                best.append((len(key), form))
        if best:
            top = max(size for size, _ in best)
            forms = {form for size, form in best if size == top}
            if len(forms) > 1:
                raise MorphoError(
                    f"ambiguous paradigm match for {self.lemma!r} "
                    f"with features {sorted(dict(have))}"
                )
            return forms.pop()
        if self.fallback is not None:
            return self.fallback
        raise MorphoError(
            f"no form of {self.lemma!r} matches features "
            f"{{{', '.join(f'{k}={v}' for k, v in sorted(have))}}}"
        )


class Lexicon:
    def __init__(self):
        self.entries: dict[str, LexiconEntry] = {}

    def add(self, entry: LexiconEntry) -> None:
        key = entry.lemma.casefold()
        if key in self.entries:
            raise MorphoError(f"lemma {entry.lemma!r} defined twice")
        self.entries[key] = entry

    def inflect(self, lemma: str, features: Mapping[str, object]) -> str:
        entry = self.entries.get(lemma.casefold())
        if entry is None:
            raise MorphoError(f"unknown lemma {lemma!r}")
        return entry.lookup(features)


def parse_lexicon(text: str) -> Lexicon:
    lex = Lexicon()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = [c.strip() for c in line.split("|")]
        lemma = cells[0]
        if not lemma:
            raise MorphoError(f"line {lineno}: entry without a lemma")
        entry = LexiconEntry(lemma)
        for cell in cells[1:]:
            if "->" not in cell:
                raise MorphoError(f"line {lineno}: cell {cell!r} lacks '->'")
            spec, form = cell.split("->", 1)
            spec, form = spec.strip(), form.strip()
            if not form:
                raise MorphoError(f"line {lineno}: empty surface form")
            if not spec:
                if entry.fallback is not None:
                    raise MorphoError(f"line {lineno}: two fallback cells")
                entry.fallback = form
                continue
            features = {}
            for item in spec.split(","):
                k, eq, v = item.partition("=")
                k, v = k.strip().upper(), v.strip()
                if not (k and eq and v):
                    raise MorphoError(f"line {lineno}: bad feature {item.strip()!r}")
                if k in features:
                    raise MorphoError(f"line {lineno}: feature {k} named twice")
                features[k] = v
            key = _canonical(features)
            if key in entry.paradigm:
                raise MorphoError(f"line {lineno}: duplicate paradigm cell")
            entry.paradigm[key] = form
        lex.add(entry)
    return lex


def load_lexicon(path) -> Lexicon:
    return parse_lexicon(pathlib.Path(path).read_text(encoding="utf-8"))


def default_lexicon() -> Lexicon:
    return load_lexicon(pathlib.Path(__file__).parent / "demo" / "german.lex")


# ---------------------------------------------------------------------------
# The function registry and word-form calls

@dataclass(frozen=True)
class RegisteredFunction:
    name: str
    fn: Callable
    features: tuple[str, ...] = ()
    undo: Optional[Callable] = None

    @property
    def is_side_effect(self) -> bool:
        return self.undo is not None


class FunctionRegistry:
    """Named inflection and side-effect functions callable from grammars,
    and the table of word forms computed so far (``forms``, by
    ``form_key``), which every session on the registry shares."""

    def __init__(self):
        self._functions: dict[str, RegisteredFunction] = {}
        self.forms: dict[tuple, str] = {}

    def register_function(self, name: str, fn: Callable, *,
                          features: tuple[str, ...] = (),
                          undo: Optional[Callable] = None) -> None:
        key = name.casefold()
        if key in self._functions:
            raise MorphoError(f"function {name!r} registered twice")
        self._functions[key] = RegisteredFunction(
            name, fn, tuple(f.upper() for f in features), undo
        )

    def get(self, name: str) -> Optional[RegisteredFunction]:
        return self._functions.get(name.casefold())

    def require(self, name: str) -> RegisteredFunction:
        entry = self.get(name)
        if entry is None:
            raise MorphoError(f"unknown function {name!r}")
        return entry

    def names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self._functions.values())

    def keep_form(self, key: tuple, form: str) -> None:
        """Enter a computed word form in ``forms``, emptying a full table."""
        if len(self.forms) >= MAX_FORMS:
            self.forms.clear()
        self.forms[key] = form


def form_key(function: str, args: tuple, features: tuple) -> tuple:
    """The exact key of a word form in a registry's ``forms``.

    Calls compare symbols case-insensitively, yet ``string`` prints a
    symbol's case, so a symbol enters the key as the ``Sym`` class followed
    by its text.  Strings and integers enter as themselves, which keeps
    ``'5'`` apart from ``5`` and a string apart from a symbol.  The argument
    count parts the arguments from the (feature, value) pairs.
    """
    key = [function, len(args)]
    for atom in args:
        if isinstance(atom, Sym):
            key += (Sym, atom.text)
        else:
            key.append(atom)
    for name, atom in features:
        if isinstance(atom, Sym):
            key += (name, Sym, atom.text)
        else:
            key += (name, atom)
    return tuple(key)


def inflect(entry: RegisteredFunction, args: tuple, features: tuple) -> str:
    """One word form: the registered word-form function ``entry`` called on
    its exact arguments and its bound (feature, value) pairs.

    The function must be pure in its name, exact arguments and bound
    features: equal calls may still differ in a symbol's case.
    """
    return entry.fn(args, dict(features))


# ---------------------------------------------------------------------------
# Built-in functions over a lexicon

def _single_arg(args, what):
    if len(args) != 1:
        raise MorphoError(f"{what} expects exactly one argument")
    return args[0]


def standard_functions(lexicon: Lexicon) -> FunctionRegistry:
    """Registry with the stock functions used by the demo grammars.

    The functions close over ``lexicon``, whose forms the registry keeps:
    do not edit the lexicon after this call.
    """
    reg = FunctionRegistry()

    def string(args, features):
        return " ".join(str(a) for a in args)

    def verb(args, features):
        lemma = str(_single_arg(args, "verb"))
        return lexicon.inflect(lemma, features)

    def verb_pp(args, features):
        lemma = str(_single_arg(args, "verb-pp"))
        return lexicon.inflect(lemma, {"VFORM": "pp"})

    def noun_phrase(args, features):
        lemma = str(_single_arg(args, "noun-phrase"))
        return lexicon.inflect(lemma, features)

    def pronoun_2_formal(args, features):
        return lexicon.inflect("sie-formal", features)

    def weekday(args, features):
        n = _single_arg(args, "weekday")
        if not isinstance(n, int) or not 1 <= n <= 7:
            raise MorphoError(f"weekday wants an integer 1..7, got {n!r}")
        return WEEKDAYS[n - 1]

    def weekday_pp(args, features):
        return "am " + weekday(args, features)

    def duration_pp(args, features):
        n = _single_arg(args, "duration-pp")
        if not isinstance(n, int) or n < 1:
            raise MorphoError(f"duration-pp wants a positive integer, got {n!r}")
        return "für eine Stunde" if n == 1 else f"für {n} Stunden"

    reg.register_function("string", string)
    reg.register_function("verb", verb, features=("VFORM", "TENSE", "NUM", "PERSON"))
    reg.register_function("verb-pp", verb_pp)
    reg.register_function("noun-phrase", noun_phrase,
                          features=("DET", "CASE", "NUM"))
    reg.register_function("pronoun-2-formal", pronoun_2_formal,
                          features=("CASE",))
    reg.register_function("weekday", weekday)
    reg.register_function("weekday-pp", weekday_pp)
    reg.register_function("duration-pp", duration_pp)

    # a small reversible side effect: append a note to the session memory
    def note(memory, args):
        memory.setdefault("notes", []).append(tuple(args))
        return None

    def unnote(memory, args, saved):
        memory["notes"].pop()

    reg.register_function("note", note, undo=unnote)
    return reg
