"""Feature structures: the engine's input representation.

A GIL document is an attribute-value structure with three kinds of leaves
(symbols, quoted strings, integers), ordered list values, and numbered
coreference tags that make the parsed result a DAG.  Concrete syntax:

    [(PRED request)                 ; structure = [ (ATTR value) ... ]
     (ARGS < #1= [(ROLE agent)], [(ROLE patient)] >)
     (TOPIC #1)]                    ; #n= defines, #n references

``<`` and ``>`` delimit lists, ``,`` separates list elements, ``;`` starts
a line comment.  Symbols match ``[A-Za-z][A-Za-z0-9_-]*`` and compare
case-insensitively; quoted strings compare exactly; integers, an optional
``-`` and decimal digits, are the only numeric type.

Parsing resolves every ``#n`` to the very node object defined at ``#n=``,
so structure sharing is observable through object identity.  Cyclic
references are rejected.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Iterator, NoReturn, Optional, Union


class PositionedError(Exception):
    """A reader's error; carries a 1-based line/column position, 0 when
    there is none."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col

    def __str__(self) -> str:
        if self.line:
            return f"{self.line}:{self.col}: {self.message}"
        return self.message


class GilError(PositionedError):
    """Problem in a GIL document."""


@dataclass(frozen=True)
class Sym:
    """A case-insensitive symbol atom such as ``request`` or ``pres``."""

    text: str

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Sym) and self.text.casefold() == other.text.casefold()

    def __hash__(self) -> int:
        return hash(self.text.casefold())

    def __repr__(self) -> str:
        return f"Sym({self.text!r})"

    def __str__(self) -> str:
        return self.text


# Atoms are symbols, quoted strings (plain ``str``) or integers.
Atom = Union[Sym, str, int]
# A value is an atom, a list (tuple) of values, or a nested structure.
Value = Union[Atom, tuple, "FeatureStructure"]


def is_atom(v: object) -> bool:
    return isinstance(v, (Sym, str, int)) and not isinstance(v, bool)


class FeatureStructure:
    """An ordered attribute-value map with unique, case-insensitive keys.

    A structure is not changed once ``parse_gil`` has returned it, so
    ``fs_digest`` caches its result in ``_digest``.
    """

    __slots__ = ("_names", "_values", "_index", "_digest")

    def __init__(self, pairs=()):
        self._names: list[str] = []
        self._values: list[Value] = []
        self._index: dict[str, int] = {}
        self._digest: Optional[int] = None
        for name, value in pairs:
            self._append(name, value)

    def _append(self, name: str, value: Value) -> None:
        key = name.upper()
        if key in self._index:
            raise GilError(f"duplicate attribute {name!r}")
        self._index[key] = len(self._names)
        self._names.append(name)
        self._values.append(value)

    def pairs(self) -> Iterator[tuple[str, Value]]:
        return zip(self._names, self._values)

    def attributes(self) -> tuple[str, ...]:
        return tuple(self._names)

    def get(self, name: str):
        i = self._index.get(name.upper())
        return None if i is None else self._values[i]

    def has(self, name: str) -> bool:
        return name.upper() in self._index

    def __len__(self) -> int:
        return len(self._names)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FeatureStructure):
            return NotImplemented
        return fs_equal(self, other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"<FeatureStructure {serialize_gil(self)}>"


@dataclass(frozen=True)
class Path:
    """A dotted attribute path such as ``THEME.TIME-ADJ``."""

    segments: tuple[str, ...]

    def __post_init__(self):
        if not self.segments or any(not s for s in self.segments):
            raise ValueError("path needs non-empty segments")
        object.__setattr__(self, "segments", tuple(s.upper() for s in self.segments))

    @classmethod
    def parse(cls, dotted: str) -> "Path":
        return cls(tuple(dotted.split(".")))

    def __str__(self) -> str:
        return ".".join(self.segments)


# ---------------------------------------------------------------------------
# Scanner, shared with the grammar reader

STRING = r'"(?:[^"\\\n]|\\[nt"\\])*"'
_STRING_START = re.compile(STRING[:-1])  # the longest well-formed prefix
_ESCAPE = re.compile(r"\\(.)")
_ESCAPES = {"n": "\n", "t": "\t", '"': '"', "\\": "\\"}


def unquote(lexeme: str) -> str:
    body = lexeme[1:-1]
    return _ESCAPE.sub(lambda m: _ESCAPES[m[1]], body) if "\\" in body else body


def quote(text: str) -> str:
    """The string literal that reads back as ``text``."""
    body = text.replace("\\", "\\\\").replace('"', '\\"')
    return '"' + body.replace("\n", "\\n").replace("\t", "\\t") + '"'


def locator(text: str) -> Callable[[int], tuple[int, int]]:
    """Turn offsets into ``text`` into 1-based (line, column) positions."""
    newlines = [m.start() for m in re.finditer("\n", text)]

    def where(offset: int) -> tuple[int, int]:
        line = bisect_left(newlines, offset)
        return line + 1, offset - (newlines[line - 1] if line else -1)
    return where


class Scanner:
    """A language's lexemes, read by one ``findall`` of one plain pattern.

    A lexeme is a token of the language or a ``;`` comment, each with the
    blanks that follow it, or the blanks that start the text; where none
    of these fits, the last alternative takes the rest of the text.  So
    the lexemes cover the text end to end, a lexeme's offset is the sum of
    the lengths before it, and only the last lexeme can be that malformed
    rest.  A reader tells a lexeme's kind by its first character and
    converts tokens in text order, raising at once for one whose
    conversion fails; the rest is raised through ``_bad`` after every
    lexeme before it, and a reader reports a syntax error only once all
    lexemes are read, so a malformed token anywhere in the text is the
    error reported.  ``hints`` gives the message for a character that
    starts no token.
    """

    def __init__(self, error: type, hints: dict, *tokens: str):
        self.token = re.compile(
            "(?:" + "|".join(tokens) + r"|;[^\n]*|[ \t\r\n])[ \t\r\n]*")
        self.pattern = re.compile(self.token.pattern + r"|[\s\S]+")
        self.error = error
        self.hints = hints

    def lexemes(self, text: str) -> tuple[list, int, bool]:
        """The lexemes of ``text``, the offset where reading ends (``eof``),
        and whether a malformed rest starts there, taken off the lexemes.

        Reading ends at the end of the text, or at the start of a last
        comment that no newline ends, which then stays a lexeme.
        """
        lexemes = self.pattern.findall(text)
        last = lexemes[-1] if lexemes else ""
        at = len(text) - len(last)
        if last and not self.token.fullmatch(last):
            lexemes.pop()
            return lexemes, at, True
        return lexemes, at if last[:1] == ";" and "\n" not in last else len(text), False

    def fail(self, message: str, text: str, at: int) -> NoReturn:
        raise self.error(message, *locator(text)(at))

    def _bad(self, text: str, at: int) -> NoReturn:
        """Raise for the malformed rest of ``text`` from ``at``."""
        first = text[at]
        end = _STRING_START.match(text, at).end() if first == '"' else at
        self.fail(self.hints.get(first, f"unexpected character {first!r}") if end == at
                  else "unterminated string" if end == len(text)
                  else "newline in string literal" if text[end] == "\n"
                  else "unterminated escape" if end + 1 == len(text)
                  else f"unknown escape \\{text[end + 1]}", text, at)


INT = r"-?\d+"
LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"

_SCANNER = Scanner(GilError, {"#": "expected digits after '#'"},
                   r"[()\[\]<>,]", r"[A-Za-z][A-Za-z0-9_-]*", INT, r"#\d+=?", STRING)
_PUNCT = {"(": "lparen", ")": "rparen", "[": "lbrack", "]": "rbrack",
          "<": "langle", ">": "rangle", ",": "comma"}


def _tokens(text: str) -> Iterator[tuple]:
    """The (kind, value, offset) tokens of a GIL text, the last one ``eof``,
    one at a time; a malformed token raises ``GilError`` at its position."""
    lexemes, end, malformed = _SCANNER.lexemes(text)
    at = 0
    for lexeme in lexemes:
        first = lexeme[0]
        kind = _PUNCT.get(first)
        if kind is not None:
            yield kind, None, at
        elif first in LETTERS:
            yield "symbol", lexeme.rstrip(), at
        elif first == '"':
            yield "string", unquote(lexeme.rstrip()), at
        elif first not in " \t\r\n;":  # '#', '-' or a digit of any script
            token = lexeme.rstrip()
            try:  # int() refuses more digits than its limit
                value = int(token.strip("#="))
            except ValueError as e:
                _SCANNER.fail(str(e), text, at)
            if first == "#" and value <= 0:
                _SCANNER.fail("coreference tags are positive", text, at)
            kind = "int" if first != "#" else "corefdef" if token[-1] == "=" else "corefref"
            yield kind, value, at
        at += len(lexeme)
    if malformed:
        _SCANNER._bad(text, end)
    yield "eof", None, end


# ---------------------------------------------------------------------------
# Reader

def parse_gil(text: str) -> FeatureStructure:
    """Parse a GIL document into its root structure, with sharing resolved."""

    tokens = _tokens(text)

    def fail(message: str, at: int) -> NoReturn:
        for _ in tokens:
            pass
        raise GilError(message, *locator(text)(at))

    return _read(tokens, fail)


def _read(tokens: Iterator[tuple], fail) -> FeatureStructure:
    """Read a document with an explicit stack of open structures and lists.

    A ``#n`` reference takes the node of its tag at once, also before the
    ``#n=`` that fills that node in is read, so nothing is left to resolve.
    """
    kind, _, at = next(tokens)
    if kind != "lbrack":
        fail("a GIL document starts with '['", at)
    shared: dict[int, FeatureStructure] = {}  # the node each tag stands for
    opened: set[int] = set()  # tags whose definition has begun
    defined: set[int] = set()  # tags whose definition is complete
    referenced = False
    # open structures [fs, at, name, name at, tag, tag at] and lists [items, at]
    stack: list[list] = [[FeatureStructure(), at, None, 0, None, 0]]
    value = None  # the value just read; None when a list or structure opened
    while True:
        # hand the value to the innermost open list or structure, and close
        # each one whose closing token follows
        while True:
            frame = stack[-1]
            if len(frame) == 2:
                if value is None:
                    break
                frame[0].append(value)
                kind, _, at = next(tokens)
                if kind == "comma":
                    break
                if kind == "eof":
                    fail("unbalanced '<'", frame[1])
                if kind != "rangle":
                    fail(f"expected ',' or '>', found {kind}", at)
                stack.pop()
                value = tuple(frame[0])
                continue
            fs = frame[0]
            if value is not None:
                kind, _, at = next(tokens)
                if kind != "rparen":
                    fail("attribute pair not closed with ')'", at)
                try:
                    fs._append(frame[2], value)
                except GilError as e:
                    fail(e.message, frame[3])
            kind, _, at = next(tokens)
            if kind == "lparen":
                kind, name, at = next(tokens)
                if kind != "symbol":
                    fail(f"expected symbol, found {kind}", at)
                frame[2], frame[3] = name, at
                break
            if kind == "eof":
                fail("unbalanced '['", frame[1])
            if kind != "rbrack":
                fail(f"expected '(' or ']', found {kind}", at)
            stack.pop()
            tag = frame[4]
            if tag is not None:
                if tag in defined:
                    fail(f"coreference tag #{tag} defined twice", frame[5])
                defined.add(tag)
            if not stack:
                kind, _, at = next(tokens)
                if kind != "eof":
                    fail(f"trailing {kind} after document", at)
                if referenced:
                    _check_references(fs, {id(node): tag for tag, node in shared.items()
                                           if tag not in defined})
                return fs
            value = fs
        kind, value, at = next(tokens)  # the first token of the next value
        if kind == "symbol":
            value = Sym(value)
        elif kind == "corefref":
            referenced = True
            node = shared.get(value)
            if node is None:
                node = shared[value] = FeatureStructure()
            value = node
        elif kind == "langle":
            stack.append([[], at])
            value = None
        elif kind == "rangle" and len(stack[-1]) == 2 and not stack[-1][0]:
            stack.pop()  # '< >'
            value = ()
        elif kind == "lbrack" or kind == "corefdef":
            fs, tag, tag_at = FeatureStructure(), None, 0
            if kind == "corefdef":
                tag, tag_at = value, at
                kind, _, at = next(tokens)
                if kind != "lbrack":
                    fail("'#n=' must be followed by a structure", at)
                if tag not in opened:  # a second definition fails when it closes
                    opened.add(tag)
                    fs = shared.setdefault(tag, fs)
            stack.append([fs, at, None, 0, tag, tag_at])
            value = None
        elif kind != "string" and kind != "int":
            fail(f"expected a value, found {kind}", at)


def _check_references(root: FeatureStructure, undefined: dict[int, int]) -> None:
    """Raise for the first node in ``undefined`` (id -> tag) met in a
    depth-first walk in document order, else for a cycle."""
    on_path: set[int] = set()
    done: set[int] = set()
    todo: list = [(root, False)]
    while todo:
        fs, leaving = todo.pop()
        if leaving:
            on_path.discard(id(fs))
            done.add(id(fs))
            continue
        if id(fs) in done:
            continue
        if id(fs) in on_path:
            if undefined:
                continue
            raise GilError("coreferences form a cycle")
        on_path.add(id(fs))
        todo.append((fs, True))
        children = _child_structures(fs)
        for child in children:
            if id(child) in undefined:
                tag = undefined[id(child)]
                raise GilError(f"coreference tag #{tag} is never defined")
        todo.extend((child, False) for child in reversed(children))


def _child_structures(fs: FeatureStructure) -> list[FeatureStructure]:
    """The structures among ``fs``'s values, lists flattened, in order."""
    out, todo = [], fs._values[::-1]
    while todo:
        v = todo.pop()
        if isinstance(v, FeatureStructure):
            out.append(v)
        elif isinstance(v, tuple):
            todo.extend(reversed(v))
    return out


# ---------------------------------------------------------------------------
# Serialization

def serialize_gil(fs: FeatureStructure, pretty: bool = False) -> str:
    """Emit the concrete syntax; shared structures become ``#n=`` / ``#n``.

    The output re-parses to a structure equal to the input.  Both passes
    are explicit-stack walks, so nesting depth is not bounded by Python's
    recursion limit.
    """
    # first pass, pre-order: how often each structure is reached; a
    # structure reached twice is tagged, numbered by its first visit
    counts: dict[int, int] = {}
    order: list[FeatureStructure] = []
    todo: list = [fs]
    while todo:
        v = todo.pop()
        if isinstance(v, FeatureStructure):
            counts[id(v)] = counts.get(id(v), 0) + 1
            if counts[id(v)] == 1:
                order.append(v)
                todo.extend(reversed(v._values))
        elif isinstance(v, tuple):
            todo.extend(reversed(v))
    tags = {id(node): i + 1
            for i, node in enumerate(n for n in order if counts[id(n)] > 1)}
    emitted: set[int] = set()
    # second pass, in the same order: a str on the stack is output as it
    # is, a (value, indent) pair is emitted
    out: list[str] = []
    todo = [(fs, 0)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        v, indent = item
        if isinstance(v, Sym):
            out.append(v.text)
        elif isinstance(v, str):
            out.append(quote(v))
        elif isinstance(v, int):
            out.append(str(v))
        elif isinstance(v, tuple):
            if not v:
                out.append("< >")
                continue
            todo.append(" >")
            for i in range(len(v) - 1, -1, -1):
                todo.append((v[i], indent))
                todo.append(", " if i else "< ")
        elif isinstance(v, FeatureStructure):
            tag = tags.get(id(v))
            if tag is not None:
                if id(v) in emitted:
                    out.append(f"#{tag}")
                    continue
                emitted.add(id(v))
                out.append(f"#{tag}= ")
            if not v._names:
                out.append("[]")
                continue
            sep = " "
            if pretty and len(v._names) > 1:
                sep = "\n" + " " * (indent + 1)
            todo.append(")]")
            for i in range(len(v._names) - 1, -1, -1):
                todo.append((v._values[i], indent + 1))
                todo.append(("[(" if i == 0 else ")" + sep + "(")
                            + v._names[i] + " ")
        else:
            raise GilError(f"cannot serialize value of type {type(v).__name__}")
    return "".join(out)


# ---------------------------------------------------------------------------
# Navigation and equality

def get_path(fs, path):
    """Walk ``path`` through nested structures; returns None when absent.

    Accepts a Path or a dotted string.  Absence (missing attribute, or an
    intermediate value that is not a structure) is a result, not an error.
    """
    if isinstance(path, str):
        path = Path.parse(path)
    current: Value = fs
    for seg in path.segments:
        if not isinstance(current, FeatureStructure):
            return None
        nxt = current.get(seg)
        if nxt is None:
            return None
        current = nxt
    return current


def fs_equal(a: FeatureStructure, b: FeatureStructure) -> bool:
    """Structural equality: same attributes (any order), equal values.

    Sharing and tag numbering are invisible to equality.
    """
    todo: list = [(a, b)]
    while todo:
        a, b = todo.pop()
        if isinstance(a, FeatureStructure) and isinstance(b, FeatureStructure):
            if a is not b:
                if a._index.keys() != b._index.keys():
                    return False
                todo.extend((v, b._values[b._index[key]])
                            for key, v in zip(a._index, a._values))
        elif isinstance(a, tuple) and isinstance(b, tuple):
            if len(a) != len(b):
                return False
            todo.extend(zip(a, b))
        elif not atoms_equal(a, b):
            return False
    return True


def atoms_equal(a, b) -> bool:
    if isinstance(a, Sym) and isinstance(b, Sym) or type(a) is type(b):
        return a == b
    # bool is an int subtype; ints only ever come from the parser
    return isinstance(a, int) and isinstance(b, int) and a == b


def fs_digest(fs: FeatureStructure) -> int:
    """A hash consistent with fs_equal, for cheap equality pre-screening.

    Computed bottom-up with an explicit stack and cached on every structure
    it passes, so each structure is hashed once however often it is asked.
    """
    if fs._digest is not None:
        return fs._digest
    done: list[int] = []  # digests of finished values, in visit order
    # (value, None) visits a value; (structure or None, n) combines the
    # last n digests into that structure's digest, or a list's when None
    todo: list = [(fs, None)]
    while todo:
        v, n = todo.pop()
        if n is not None:
            parts = done[len(done) - n:]
            del done[len(done) - n:]
            if v is None:
                done.append(hash(("list",) + tuple(parts)))
            else:
                v._digest = hash(frozenset(zip(v._index, parts)))
                done.append(v._digest)
        elif isinstance(v, FeatureStructure):
            if v._digest is not None:
                done.append(v._digest)
            else:
                todo.append((v, len(v._values)))
                todo.extend((c, None) for c in reversed(v._values))
        elif isinstance(v, tuple):
            todo.append((None, len(v)))
            todo.extend((c, None) for c in reversed(v))
        elif isinstance(v, Sym):
            done.append(hash(v))
        else:
            done.append(hash((type(v).__name__, v)))
    return done[0]
