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
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, NoReturn, Optional, TypeVar, Union


class PositionedError(Exception):
    """A reader's error; carries a 1-based line/column position, 0 when
    there is none.  ``Scanner.fail`` places one at a lexeme."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = 0

    def __str__(self) -> str:
        if self.col:
            return f"{self.line}:{self.col}: {self.message}"
        return f"{self.line}: {self.message}" if self.line else self.message


class GilError(PositionedError):
    """Problem in a GIL document."""


@dataclass(frozen=True)
class Sym:
    """A case-insensitive symbol atom such as ``request`` or ``pres``.

    ``folded`` is the text case-folded once, when the symbol is made:
    equality and the hash compare it.
    """

    text: str
    folded: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "folded", self.text.casefold())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Sym) and self.folded == other.folded

    def __hash__(self) -> int:
        return hash(self.folded)

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

    ``_values`` maps each upper-cased name to its value, in order, and
    ``_names`` keeps the names as they were spelled, for serializing.  A
    structure is not changed once ``parse_gil`` has returned it, so
    ``fs_digest`` caches its result in ``_digest``.
    """

    __slots__ = ("_names", "_values", "_digest")

    def __init__(self, pairs=()):
        self._names: list[str] = []
        self._values: dict[str, Value] = {}
        self._digest: Optional[int] = None
        for name, value in pairs:
            self._append(name, value)

    def _append(self, name: str, value: Value) -> None:
        key = name.upper()
        if key in self._values:
            raise GilError(f"duplicate attribute {name!r}")
        self._names.append(name)
        self._values[key] = value

    def get(self, name: str):
        return self._values.get(name.upper())

    def has(self, name: str) -> bool:
        return name.upper() in self._values

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


_T = TypeVar("_T")


class _Located(str):
    """A lexeme that knows the (line, column) where it starts, ``at``."""


class _Unplaced(Exception):
    """What ``Scanner.fail`` raises for an item that knows no position."""


class Scanner:
    """A language's lexemes, read by one ``findall`` of one plain pattern.

    A lexeme is a token of the language or a ``;`` comment, without the
    blanks that follow it, the blanks from a newline on up to the next
    lexeme, or a blank that starts the text; so a reader can count lines
    but knows no offsets.  Where none of these fits, the last alternative
    takes the rest of the text, which is taken off the lexemes: the
    malformed rest.  A reader tells a lexeme's kind by its first character
    and converts tokens in text order, raising at once for one whose
    conversion fails; it raises for a malformed rest through ``_bad`` after
    every lexeme before it, and reports a syntax error only once all
    lexemes are read, so a malformed token anywhere in the text is the
    error reported.  ``hints`` gives the message for a character that
    starts no token.

    A reader raises through ``fail``, which places the error at an item.
    ``read`` runs a reader over bare lexemes, which know no positions;
    only where that read fails through ``fail`` does it read the text
    again, with lexemes that know their positions, and that read fails at
    the same item, placed.
    """

    def __init__(self, error: type, hints: dict, *tokens: str):
        lexeme = "|".join(tokens) + r"|;[^\n]*|\n[ \t\r\n]*|[ \t\r]"
        self.token = re.compile(lexeme)  # what a lexeme that is not the rest fullmatches
        # the blanks after a lexeme fall outside the group
        self.bare = re.compile("(" + lexeme + r"|[\s\S]+)[ \t\r]*")
        self.error = error
        self.hints = hints

    def read(self, text: str, reader: Callable[[list, str], _T]) -> _T:
        """What ``reader`` makes of the lexemes of ``text`` and its rest."""
        try:
            return reader(*self.bare_lexemes(text, False))
        except _Unplaced:  # the second read fails where the first did, placed
            return reader(*self.bare_lexemes(text, True))

    def bare_lexemes(self, text: str, located: bool) -> tuple[list, str]:
        """The lexemes of ``text``, and its malformed rest, taken off them,
        or the empty rest at the end of the text.

        With ``located`` each lexeme, and the rest, is a ``_Located``.
        """
        if located:
            where = locator(text)
            lexemes = []
            for match in self.bare.finditer(text):
                lexeme = _Located(match[1])
                lexeme.at = where(match.start())
                lexemes.append(lexeme)
            rest = _Located()
            rest.at = where(len(text))
        else:
            lexemes = self.bare.findall(text)
            rest = ""
        if lexemes and not self.token.fullmatch(lexemes[-1]):
            return lexemes, lexemes.pop()
        return lexemes, rest

    def fail(self, message: str, item, skip: int = 0) -> NoReturn:
        """Raise ``message`` at ``item`` (a lexeme, a rest, or a list headed
        by the lexeme that opens it), or at the character ``skip`` places
        into a lexeme."""
        if type(item) is list:
            item = item[0]
        if type(item) is not _Located:
            raise _Unplaced
        line, col = item.at
        error = self.error(message)
        error.line, error.col = line, col + skip
        raise error

    def _bad(self, rest: str) -> NoReturn:
        """Raise for the malformed rest of a text."""
        first = rest[0]
        end = _STRING_START.match(rest).end() if first == '"' else 0
        self.fail(self.hints.get(first, f"unexpected character {first!r}") if not end
                  else "unterminated string" if end == len(rest)
                  else "newline in string literal" if rest[end] == "\n"
                  else "unterminated escape" if end + 1 == len(rest)
                  else f"unknown escape \\{rest[end + 1]}", rest)


INT = r"-?\d+"
LETTERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"

_SCANNER = Scanner(GilError, {"#": "expected digits after '#'"},
                   r"[()\[\]<>,]", r"[A-Za-z][A-Za-z0-9_-]*", INT, r"#\d+=?", STRING)
_KINDS = {"(": "lparen", ")": "rparen", "[": "lbrack", "]": "rbrack",
          "<": "langle", ">": "rangle", ",": "comma", '"': "string"}
_BLANK = " \t\r\n;"  # the first characters of blanks and comments
_NOT_NUMBER = LETTERS + "".join(_KINDS) + _BLANK


def _number(lexeme: str) -> int:
    """The integer of an int or ``#n`` lexeme; ``GilError`` where int()
    refuses it or a tag is not positive."""
    try:  # int() refuses more digits than its limit
        value = int(lexeme.strip("#="))
    except ValueError as e:
        _SCANNER.fail(str(e), lexeme)
    if value <= 0 and lexeme[0] == "#":
        _SCANNER.fail("coreference tags are positive", lexeme)
    return value


def _kind(lexeme: str) -> str:
    """The name an error message gives the token of ``lexeme``."""
    first = lexeme[0]
    if first in LETTERS:
        return "symbol"
    if first == "#":
        return "corefdef" if lexeme[-1] == "=" else "corefref"
    return _KINDS.get(first, "int")


# ---------------------------------------------------------------------------
# Reader: one loop over the scanner's bare lexemes, told apart by their
# first characters.  ``expect`` says which tokens may come next, and a value
# read waits in ``value`` for the token that ends its pair or list item.  An
# open structure or list keeps the '[' or '<' lexeme that opens it, and a
# structure its '#n=' lexeme and its attribute's name, so an error names
# these lexemes and the scanner places it.

_DOC, _OPEN, _NAME, _VALUE, _CLOSE, _DEF, _SEP, _END = range(8)
_EXPECTED = ("a GIL document starts with '['", "expected '(' or ']', found {}",
             "expected symbol, found {}", "expected a value, found {}",
             "attribute pair not closed with ')'",
             "'#n=' must be followed by a structure",
             "expected ',' or '>', found {}", "trailing {} after document")


def parse_gil(text: str) -> FeatureStructure:
    """Parse a GIL document into its root structure, with sharing resolved.

    A ``#n`` reference takes the node of its tag at once, also before the
    ``#n=`` that fills that node in is read, so nothing is left to resolve.
    Errors keep the scanner's order: a malformed token anywhere first, then
    the first token the document refuses, then an undefined tag, then a
    cycle.
    """
    return _SCANNER.read(text, _read_document)


def _read_document(lexemes: list, rest: str) -> FeatureStructure:
    tokens = iter(lexemes)
    syms: dict[str, Sym] = {}  # one Sym per symbol text
    shared: dict[int, FeatureStructure] = {}  # the node each tag stands for
    # opened tag n -> the m of each #m and #m= met in its definition but
    # not in a definition nested in it: the edges n -> m of the tag graph
    inside: dict[int, list[int]] = {}
    defined: set[int] = set()  # tags whose definition is complete
    defs: list[int] = []  # the tags of the open definitions, innermost last
    forward = False  # whether a #n came before its definition closed
    # open structures [fs, '[', '#n=', name, after] and lists [items, '<',
    # after]; ``after`` is what follows the value they make
    stack: list[list] = []
    frame: list = []  # the innermost open structure or list
    expect, after = _DOC, _END  # what comes next; what follows a value
    value = tag = None  # the value read; the '#n=' lexeme read
    error = None  # a refused token's message and lexeme, if not the usual
    for lexeme in tokens:
        first = lexeme[0]
        if expect == _VALUE:
            if first in LETTERS:
                value = syms.get(lexeme)
                if value is None:
                    value = syms[lexeme] = Sym(lexeme)
                expect = after
            elif first == "[":
                frame = [FeatureStructure(), lexeme, None, None, after]
                stack.append(frame)
                expect, after = _OPEN, _CLOSE
            elif first == '"':
                value, expect = unquote(lexeme), after
            elif first == "<":
                frame = [[], lexeme, after]
                stack.append(frame)
                after = _SEP
            elif first == "#":
                n = _number(lexeme)
                if defs:
                    inside[defs[-1]].append(n)
                if lexeme[-1] == "=":
                    tag, expect = lexeme, _DEF
                else:
                    if n not in defined:
                        forward = True
                    value = shared.get(n)
                    if value is None:
                        value = shared[n] = FeatureStructure()
                    expect = after
            elif first == ">" and after == _SEP and not frame[0]:  # '< >'
                stack.pop()
                value, expect = (), frame[2]
                after, frame = expect, stack[-1]
            elif first not in _NOT_NUMBER:
                value, expect = _number(lexeme), after
            elif first not in _BLANK:
                break
        elif expect == _OPEN:
            if first == "(":
                expect = _NAME
            elif first == "]":
                stack.pop()
                if frame[2] is not None:
                    n = int(frame[2][1:-1])
                    if n in defined:
                        error = f"coreference tag #{n} defined twice", frame[2]
                        break
                    defined.add(n)
                    defs.pop()
                value, expect = frame[0], frame[4]
                if stack:
                    after, frame = expect, stack[-1]
            elif first not in _BLANK:
                break
        elif expect == _NAME:
            if first in LETTERS:
                frame[3] = lexeme
                expect = _VALUE
            elif first not in _BLANK:
                break
        elif expect == _CLOSE:
            if first == ")":
                try:
                    frame[0]._append(frame[3], value)
                except GilError as e:
                    error = e.message, frame[3]
                    break
                expect = _OPEN
            elif first not in _BLANK:
                break
        elif expect == _SEP:
            if first == ",":
                frame[0].append(value)
                expect = _VALUE
            elif first == ">":
                frame[0].append(value)
                stack.pop()
                value, expect = tuple(frame[0]), frame[2]
                after, frame = expect, stack[-1]
            elif first not in _BLANK:
                break
        elif expect == _DEF or expect == _DOC:
            if first == "[":
                fs = FeatureStructure()
                if tag is not None:
                    n = int(tag[1:-1])
                    if n not in inside:  # a second definition fails when it closes
                        inside[n] = []
                        fs = shared.setdefault(n, fs)
                    defs.append(n)
                frame = [fs, lexeme, tag, None, after]
                stack.append(frame)
                expect, after, tag = _OPEN, _CLOSE, None
            elif first not in _BLANK:
                break
        elif first not in _BLANK:  # _END
            break
    else:
        if rest:
            _SCANNER._bad(rest)
        if expect != _END:
            if expect == _OPEN:
                _SCANNER.fail("unbalanced '['", frame[1])
            if expect == _SEP:
                _SCANNER.fail("unbalanced '<'", frame[1])
            # reading ends at the end of the text, or at a comment that ends it
            end = lexemes[-1] if lexemes and lexemes[-1][0] == ";" else rest
            _SCANNER.fail(_EXPECTED[expect].format("eof"), end)
        if forward:  # an undefined tag or a cycle needs such a #n
            if len(defined) < len(shared):
                _check_references(value, {id(node): tag for tag, node in shared.items()
                                         if tag not in defined})
            if _cyclic(inside):
                raise GilError("coreferences form a cycle")
        return value  # the root, closed last
    # a token was refused: a located read converts every lexeme from it on,
    # and reports a malformed rest, before the refusal; a bare read stops
    message, where = error or (_EXPECTED[expect].format(_kind(lexeme)), lexeme)
    if type(where) is not _Located:  # each of these would fail unplaced
        raise _Unplaced
    for lexeme in chain((lexeme,), tokens):
        if lexeme[0] not in _NOT_NUMBER:
            _number(lexeme)
    if rest:
        _SCANNER._bad(rest)
    _SCANNER.fail(message, where)


def _cyclic(inside: dict[int, list[int]]) -> bool:
    """Whether the graph with an edge n -> m for each m in ``inside[n]`` has
    a cycle, by Kahn's algorithm: tags that no edge from a tag still left
    enters are taken away until none is; a cycle is what stays.  Every m
    is a key of ``inside``."""
    indegree = dict.fromkeys(inside, 0)
    for targets in inside.values():
        for m in targets:
            indegree[m] += 1
    ready = [n for n, count in indegree.items() if not count]
    left = len(indegree)
    while ready:
        left -= 1
        for m in inside[ready.pop()]:
            indegree[m] -= 1
            if not indegree[m]:
                ready.append(m)
    return left > 0


def _check_references(root: FeatureStructure, undefined: dict[int, int]) -> None:
    """Raise for the first node in ``undefined`` (id -> tag) among the
    children of the structures a depth-first walk in document order meets."""
    seen: set[int] = set()
    todo: list = [root]
    while todo:
        fs = todo.pop()
        if id(fs) in seen:
            continue
        seen.add(id(fs))
        children = _child_structures(fs)
        for child in children:
            if id(child) in undefined:
                tag = undefined[id(child)]
                raise GilError(f"coreference tag #{tag} is never defined")
        todo.extend(reversed(children))


def _child_structures(fs: FeatureStructure) -> list[FeatureStructure]:
    """The structures among ``fs``'s values, lists flattened, in order."""
    out, todo = [], list(reversed(fs._values.values()))
    while todo:
        v = todo.pop()
        if isinstance(v, FeatureStructure):
            out.append(v)
        elif isinstance(v, tuple):
            todo.extend(reversed(v))
    return out


# ---------------------------------------------------------------------------
# Serialization

def serialize_gil(fs: FeatureStructure) -> str:
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
                todo.extend(reversed(v._values.values()))
        elif isinstance(v, tuple):
            todo.extend(reversed(v))
    tags = {id(node): i + 1
            for i, node in enumerate(n for n in order if counts[id(n)] > 1)}
    emitted: set[int] = set()
    # second pass, in the same order: a str on the stack is output as it
    # is, a value in a 1-tuple is emitted
    out: list[str] = []
    todo = [(fs,)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        v = item[0]
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
                todo.append((v[i],))
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
            todo.append(")]")
            for i, value in reversed(list(enumerate(v._values.values()))):
                todo.append((value,))
                todo.append(("[(" if i == 0 else ") (") + v._names[i] + " ")
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
    for seg in path.segments:  # upper-cased, as the structure's keys
        if not isinstance(current, FeatureStructure):
            return None
        current = current._values.get(seg)
        if current is None:
            return None
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
                if a._values.keys() != b._values.keys():
                    return False
                todo.extend((v, b._values[key]) for key, v in a._values.items())
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
                v._digest = hash(frozenset(zip(v._values, parts)))
                done.append(v._digest)
        elif isinstance(v, FeatureStructure):
            if v._digest is not None:
                done.append(v._digest)
            else:
                todo.append((v, len(v._values)))
                todo.extend((c, None) for c in reversed(v._values.values()))
        elif isinstance(v, tuple):
            todo.append((None, len(v)))
            todo.extend((c, None) for c in reversed(v))
        elif isinstance(v, Sym):
            done.append(hash(v))
        else:
            done.append(hash((type(v).__name__, v)))
    return done[0]
