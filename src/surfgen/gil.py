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
from typing import Callable, NoReturn, Optional, Union


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


class _Located(str):
    """A lexeme that knows its offset in the text, ``at``."""


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
    starts no token.  ``bare_lexemes`` reads the same alternatives, at the
    same offsets, without the blanks that follow them.
    """

    def __init__(self, error: type, hints: dict, *tokens: str):
        self.tokens = "|".join(tokens)
        self.token = re.compile("(?:" + self.tokens + r"|;[^\n]*|[ \t\r\n])[ \t\r\n]*")
        # each compiled on its first use: a reader reads one of the two forms
        self.pattern = self.bare = None
        self.error = error
        self.hints = hints

    def lexemes(self, text: str) -> tuple[list, int, bool]:
        """The lexemes of ``text``, the offset where reading ends (``eof``),
        and whether a malformed rest starts there, taken off the lexemes.

        Reading ends at the end of the text, or at the start of a last
        comment that no newline ends, which then stays a lexeme.
        """
        if self.pattern is None:
            self.pattern = re.compile(self.token.pattern + r"|[\s\S]+")
        lexemes = self.pattern.findall(text)
        last = lexemes[-1] if lexemes else ""
        at = len(text) - len(last)
        if last and not self.token.fullmatch(last):
            lexemes.pop()
            return lexemes, at, True
        return lexemes, at if last[:1] == ";" and "\n" not in last else len(text), False

    def bare_lexemes(self, text: str, located: bool = False) -> tuple[list, Optional[int]]:
        """The lexemes of ``text`` bare, and the offset of a malformed rest,
        taken off them, or None.

        A bare lexeme is a token or a ``;`` comment without the blanks that
        follow it, the blanks from a newline on up to the next lexeme, or a
        blank that starts the text, so a reader can count lines but knows
        no offsets.  With ``located`` each lexeme is a ``str`` that knows
        its offset, ``at``: that is for reading a text again to place its
        error.
        """
        if self.bare is None:  # the blanks after a lexeme fall outside the group
            self.bare = re.compile("(" + self.tokens + r"|;[^\n]*|\n[ \t\r\n]*|[ \t\r]"
                                   r"|[\s\S]+)[ \t\r]*")
        if located:
            lexemes = []
            for match in self.bare.finditer(text):
                lexeme = _Located(match[1])
                lexeme.at = match.start()
                lexemes.append(lexeme)
        else:
            lexemes = self.bare.findall(text)
        last = lexemes[-1] if lexemes else ""
        if last and not self.token.fullmatch(last):
            lexemes.pop()
            return lexemes, len(text) - len(last)
        return lexemes, None

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
_KINDS = {"(": "lparen", ")": "rparen", "[": "lbrack", "]": "rbrack",
          "<": "langle", ">": "rangle", ",": "comma", '"': "string"}
_BLANK = " \t\r\n;"  # the first characters of blanks and comments
_NOT_NUMBER = LETTERS + "".join(_KINDS) + _BLANK


def _number(lexeme: str, text: str, at: int) -> int:
    """The integer of an int or ``#n`` lexeme at ``at``; ``GilError`` where
    int() refuses it or a tag is not positive."""
    try:  # int() refuses more digits than its limit
        value = int(lexeme.strip("#= \t\r\n"))
    except ValueError as e:
        _SCANNER.fail(str(e), text, at)
    if value <= 0 and lexeme[0] == "#":
        _SCANNER.fail("coreference tags are positive", text, at)
    return value


def _kind(lexeme: str) -> str:
    """The name an error message gives the token of ``lexeme``."""
    first = lexeme[0]
    if first in LETTERS:
        return "symbol"
    if first == "#":
        return "corefdef" if lexeme.rstrip()[-1] == "=" else "corefref"
    return _KINDS.get(first, "int")


# ---------------------------------------------------------------------------
# Reader: one loop over the scanner's lexemes, told apart by their first
# characters.  ``expect`` says which tokens may come next, and a value read
# waits in ``value`` for the token that ends its pair or list item.

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
    lexemes, end, malformed = _SCANNER.lexemes(text)
    rest = iter(lexemes)
    syms: dict[str, Sym] = {}  # one Sym per symbol text
    shared: dict[int, FeatureStructure] = {}  # the node each tag stands for
    # opened tag n -> the m of each #m and #m= met in its definition but
    # not in a definition nested in it: the edges n -> m of the tag graph
    inside: dict[int, list[int]] = {}
    defined: set[int] = set()  # tags whose definition is complete
    defs: list[int] = []  # the tags of the open definitions, innermost last
    forward = False  # whether a #n came before its definition closed
    # open structures [fs, at, tag, tag at, name, name at, after] and lists
    # [items, at, after]; ``after`` is what follows the value they make
    stack: list[list] = []
    frame: list = []  # the innermost open structure or list
    expect, after = _DOC, _END  # what comes next; what follows a value
    value = tag = None  # the value read; the tag of a '#n=' read
    tag_at = 0
    error = None  # a refused token's message and offset, if not the usual
    at = 0
    for lexeme in rest:
        first = lexeme[0]
        if expect == _VALUE:
            if first in LETTERS:
                token = lexeme.rstrip()
                value = syms.get(token)
                if value is None:
                    value = syms[token] = Sym(token)
                expect = after
            elif first == "[":
                frame = [FeatureStructure(), at, None, 0, None, 0, after]
                stack.append(frame)
                expect, after = _OPEN, _CLOSE
            elif first == '"':
                value, expect = unquote(lexeme.rstrip()), after
            elif first == "<":
                frame = [[], at, after]
                stack.append(frame)
                after = _SEP
            elif first == "#":
                n = _number(lexeme, text, at)
                if defs:
                    inside[defs[-1]].append(n)
                if lexeme.rstrip()[-1] == "=":
                    tag, tag_at, expect = n, at, _DEF
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
                value, expect = _number(lexeme, text, at), after
            elif first not in _BLANK:
                break
        elif expect == _OPEN:
            if first == "(":
                expect = _NAME
            elif first == "]":
                stack.pop()
                if frame[2] is not None:
                    if frame[2] in defined:
                        error = f"coreference tag #{frame[2]} defined twice", frame[3]
                        break
                    defined.add(frame[2])
                    defs.pop()
                value, expect = frame[0], frame[6]
                if stack:
                    after, frame = expect, stack[-1]
            elif first not in _BLANK:
                break
        elif expect == _NAME:
            if first in LETTERS:
                frame[4], frame[5] = lexeme.rstrip(), at
                expect = _VALUE
            elif first not in _BLANK:
                break
        elif expect == _CLOSE:
            if first == ")":
                try:
                    frame[0]._append(frame[4], value)
                except GilError as e:
                    error = e.message, frame[5]
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
                    if tag not in inside:  # a second definition fails when it closes
                        inside[tag] = []
                        fs = shared.setdefault(tag, fs)
                    defs.append(tag)
                frame = [fs, at, tag, tag_at, None, 0, after]
                stack.append(frame)
                expect, after, tag = _OPEN, _CLOSE, None
            elif first not in _BLANK:
                break
        elif first not in _BLANK:  # _END
            break
        at += len(lexeme)
    else:
        if malformed:
            _SCANNER._bad(text, end)
        if expect != _END:
            if expect == _OPEN:
                _SCANNER.fail("unbalanced '['", text, frame[1])
            if expect == _SEP:
                _SCANNER.fail("unbalanced '<'", text, frame[1])
            _SCANNER.fail(_EXPECTED[expect].format("eof"), text, end)
        if forward:  # an undefined tag or a cycle needs such a #n
            if len(defined) < len(shared):
                _check_references(value, {id(node): tag for tag, node in shared.items()
                                         if tag not in defined})
            if _cyclic(inside):
                raise GilError("coreferences form a cycle")
        return value  # the root, closed last
    # a token was refused: every lexeme from it on is still converted, and
    # a malformed rest is reported, before the refusal is
    message, where = error or (_EXPECTED[expect].format(_kind(lexeme)), at)
    for lexeme in chain((lexeme,), rest):
        if lexeme[0] not in _NOT_NUMBER:
            _number(lexeme, text, at)
        at += len(lexeme)
    if malformed:
        _SCANNER._bad(text, end)
    _SCANNER.fail(message, text, where)


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
