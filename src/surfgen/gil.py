"""Feature structures: the engine's input representation.

A GIL document is an attribute-value structure with three kinds of leaves
(symbols, quoted strings, integers), ordered list values, and numbered
coreference tags that make the parsed result a DAG.  Concrete syntax:

    [(PRED request)                 ; structure = [ (ATTR value) ... ]
     (ARGS < #1= [(ROLE agent)], [(ROLE patient)] >)
     (TOPIC #1)]                    ; #n= defines, #n references

``<`` and ``>`` delimit lists, ``,`` separates list elements, ``;`` starts
a line comment.  Symbols match ``[A-Za-z][A-Za-z0-9_-]*`` and compare
case-insensitively; quoted strings compare exactly; integers are the only
numeric type.

Parsing resolves every ``#n`` to the very node object defined at ``#n=``,
so structure sharing is observable through object identity.  Cyclic
references are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union


class GilError(Exception):
    """Problem in a GIL document; carries a 1-based line/column position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(message)
        self.message = message
        self.line = line
        self.col = col

    def __str__(self) -> str:
        if self.line:
            return f"{self.line}:{self.col}: {self.message}"
        return self.message


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


@dataclass(frozen=True)
class CorefRef:
    """An unresolved ``#n`` reference.

    Only seen transiently inside the parser; parsed documents have every
    reference replaced by the shared node itself.
    """

    tag: int


# Atoms are symbols, quoted strings (plain ``str``) or integers.
Atom = Union[Sym, str, int]
# A value is an atom, a list (tuple) of values, or a nested structure.
Value = Union[Atom, tuple, "FeatureStructure", CorefRef]


def is_atom(v: object) -> bool:
    return isinstance(v, (Sym, str, int)) and not isinstance(v, bool)


class FeatureStructure:
    """An ordered attribute-value map with unique, case-insensitive keys.

    A structure is not changed once ``parse_gil`` has returned it, so
    ``fs_digest`` caches its result in ``_digest``.
    """

    __slots__ = ("_names", "_values", "_index", "coref_tag", "_digest")

    def __init__(self, pairs=(), coref_tag: Optional[int] = None):
        self._names: list[str] = []
        self._values: list[Value] = []
        self._index: dict[str, int] = {}
        self.coref_tag = coref_tag
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
# Lexer (shared token shapes with the grammar reader, but self-contained)

_SYM_START = set("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")
_SYM_CONT = _SYM_START | set("0123456789_-")
_PUNCT = {"[": "lbrack", "]": "rbrack", "(": "lparen", ")": "rparen",
          "<": "langle", ">": "rangle", ",": "comma"}


@dataclass
class _Tok:
    kind: str
    value: object
    line: int
    col: int


def _lex(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def err(msg):
        raise GilError(msg, line, col)

    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if c in _PUNCT:
            toks.append(_Tok(_PUNCT[c], c, start_line, start_col))
            i += 1
            col += 1
            continue
        if c == "#":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                err("expected digits after '#'")
            tag = int(text[i + 1:j])
            if tag <= 0:
                err("coreference tags are positive")
            if j < n and text[j] == "=":
                toks.append(_Tok("corefdef", tag, start_line, start_col))
                j += 1
            else:
                toks.append(_Tok("corefref", tag, start_line, start_col))
            col += j - i
            i = j
            continue
        if c == '"':
            j = i + 1
            out = []
            while True:
                if j >= n:
                    err("unterminated string")
                ch = text[j]
                if ch == "\\":
                    if j + 1 >= n:
                        err("unterminated escape")
                    esc = text[j + 1]
                    out.append({"n": "\n", "t": "\t", '"': '"', "\\": "\\"}.get(esc))
                    if out[-1] is None:
                        err(f"unknown escape \\{esc}")
                    j += 2
                elif ch == '"':
                    j += 1
                    break
                elif ch == "\n":
                    err("newline in string literal")
                else:
                    out.append(ch)
                    j += 1
            toks.append(_Tok("string", "".join(out), start_line, start_col))
            col += j - i
            i = j
            continue
        if c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Tok("int", int(text[i:j]), start_line, start_col))
            col += j - i
            i = j
            continue
        if c in _SYM_START:
            j = i + 1
            while j < n and text[j] in _SYM_CONT:
                j += 1
            toks.append(_Tok("symbol", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        err(f"unexpected character {c!r}")
    toks.append(_Tok("eof", None, line, col))
    return toks


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, text: str):
        self.toks = _lex(text)
        self.pos = 0
        self.defs: dict[int, FeatureStructure] = {}
        self.def_pos: dict[int, tuple[int, int]] = {}

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind: str) -> _Tok:
        t = self.next()
        if t.kind != kind:
            raise GilError(f"expected {kind}, found {t.kind}", t.line, t.col)
        return t

    def document(self) -> FeatureStructure:
        t = self.peek()
        if t.kind != "lbrack":
            raise GilError("a GIL document starts with '['", t.line, t.col)
        fs = self.structure()
        t = self.peek()
        if t.kind != "eof":
            raise GilError(f"trailing {t.kind} after document", t.line, t.col)
        return fs

    def structure(self) -> FeatureStructure:
        open_tok = self.expect("lbrack")
        fs = FeatureStructure()
        while True:
            t = self.peek()
            if t.kind == "rbrack":
                self.next()
                return fs
            if t.kind == "eof":
                raise GilError("unbalanced '['", open_tok.line, open_tok.col)
            if t.kind != "lparen":
                raise GilError(f"expected '(' or ']', found {t.kind}", t.line, t.col)
            self.next()
            name_tok = self.expect("symbol")
            value = self.value()
            close = self.next()
            if close.kind != "rparen":
                raise GilError("attribute pair not closed with ')'",
                               close.line, close.col)
            try:
                fs._append(name_tok.value, value)
            except GilError as e:
                raise GilError(e.message, name_tok.line, name_tok.col) from None

    def value(self) -> Value:
        t = self.peek()
        if t.kind == "symbol":
            self.next()
            return Sym(t.value)
        if t.kind == "string":
            self.next()
            return t.value
        if t.kind == "int":
            self.next()
            return t.value
        if t.kind == "lbrack":
            return self.structure()
        if t.kind == "langle":
            return self.value_list()
        if t.kind == "corefref":
            self.next()
            return CorefRef(t.value)
        if t.kind == "corefdef":
            self.next()
            node = self.peek()
            if node.kind != "lbrack":
                raise GilError("'#n=' must be followed by a structure",
                               node.line, node.col)
            fs = self.structure()
            if t.value in self.defs:
                raise GilError(f"coreference tag #{t.value} defined twice",
                               t.line, t.col)
            fs.coref_tag = t.value
            self.defs[t.value] = fs
            self.def_pos[t.value] = (t.line, t.col)
            return fs
        raise GilError(f"expected a value, found {t.kind}", t.line, t.col)

    def value_list(self) -> tuple:
        open_tok = self.expect("langle")
        items: list[Value] = []
        if self.peek().kind == "rangle":
            self.next()
            return ()
        while True:
            items.append(self.value())
            t = self.next()
            if t.kind == "rangle":
                return tuple(items)
            if t.kind == "comma":
                continue
            if t.kind == "eof":
                raise GilError("unbalanced '<'", open_tok.line, open_tok.col)
            raise GilError(f"expected ',' or '>', found {t.kind}", t.line, t.col)


def _resolve(root: FeatureStructure, defs: dict[int, FeatureStructure]) -> None:
    """Replace CorefRef placeholders by the defined nodes, rejecting cycles."""

    def subst(value: Value) -> Value:
        if isinstance(value, CorefRef):
            target = defs.get(value.tag)
            if target is None:
                raise GilError(f"coreference tag #{value.tag} is never defined")
            return target
        if isinstance(value, tuple):
            return tuple(subst(v) for v in value)
        return value

    seen: set[int] = set()

    def walk_fs(fs: FeatureStructure) -> None:
        if id(fs) in seen:
            return
        seen.add(id(fs))
        for i, v in enumerate(fs._values):
            fs._values[i] = subst(v)
        for v in fs._values:
            walk_value(v)

    def walk_value(v: Value) -> None:
        if isinstance(v, FeatureStructure):
            walk_fs(v)
        elif isinstance(v, tuple):
            for item in v:
                walk_value(item)

    walk_fs(root)

    # cycle check over the resolved graph
    on_stack: set[int] = set()
    done: set[int] = set()

    def visit(fs: FeatureStructure) -> None:
        if id(fs) in done:
            return
        if id(fs) in on_stack:
            raise GilError("coreferences form a cycle")
        on_stack.add(id(fs))
        for _, v in fs.pairs():
            for child in _child_structures(v):
                visit(child)
        on_stack.discard(id(fs))
        done.add(id(fs))

    visit(root)


def _child_structures(v: Value) -> Iterator[FeatureStructure]:
    if isinstance(v, FeatureStructure):
        yield v
    elif isinstance(v, tuple):
        for item in v:
            yield from _child_structures(item)


def parse_gil(text: str) -> FeatureStructure:
    """Parse a GIL document into its root structure, with sharing resolved."""
    parser = _Parser(text)
    root = parser.document()
    _resolve(root, parser.defs)
    return root


# ---------------------------------------------------------------------------
# Serialization

def serialize_gil(fs: FeatureStructure, pretty: bool = False) -> str:
    """Emit the concrete syntax; shared structures become ``#n=`` / ``#n``.

    The output re-parses to a structure equal to the input.
    """
    counts: dict[int, int] = {}
    order: list[FeatureStructure] = []
    visiting: set[int] = set()

    def count(v: Value) -> None:
        if isinstance(v, FeatureStructure):
            counts[id(v)] = counts.get(id(v), 0) + 1
            if counts[id(v)] == 1:
                if id(v) in visiting:
                    raise GilError("cannot serialize a cyclic structure")
                visiting.add(id(v))
                order.append(v)
                for _, child in v.pairs():
                    count(child)
                visiting.discard(id(v))
        elif isinstance(v, tuple):
            for item in v:
                count(item)

    count(fs)
    tags = {id(node): i + 1
            for i, node in enumerate(n for n in order if counts[id(n)] > 1)}
    emitted: set[int] = set()

    def emit(v: Value, indent: int) -> str:
        if isinstance(v, Sym):
            return v.text
        if isinstance(v, str):
            body = v.replace("\\", "\\\\").replace('"', '\\"')
            body = body.replace("\n", "\\n").replace("\t", "\\t")
            return f'"{body}"'
        if isinstance(v, int):
            return str(v)
        if isinstance(v, tuple):
            if not v:
                return "< >"
            return "< " + ", ".join(emit(item, indent) for item in v) + " >"
        if isinstance(v, FeatureStructure):
            tag = tags.get(id(v))
            if tag is not None:
                if id(v) in emitted:
                    return f"#{tag}"
                emitted.add(id(v))
                return f"#{tag}= " + emit_fs(v, indent)
            return emit_fs(v, indent)
        raise GilError(f"cannot serialize value of type {type(v).__name__}")

    def emit_fs(node: FeatureStructure, indent: int) -> str:
        parts = [f"({name} {emit(value, indent + 1)})" for name, value in node.pairs()]
        if not parts:
            return "[]"
        if pretty and len(parts) > 1:
            pad = "\n" + " " * (indent + 1)
            return "[" + pad.join(parts) + "]"
        return "[" + " ".join(parts) + "]"

    return emit_fs(fs, 0) if tags.get(id(fs)) is None else emit(fs, 0)


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
    return _value_equal(a, b)


def _value_equal(a: Value, b: Value) -> bool:
    if isinstance(a, FeatureStructure) and isinstance(b, FeatureStructure):
        if a is b:
            return True
        keys_a = {n.upper() for n in a.attributes()}
        keys_b = {n.upper() for n in b.attributes()}
        if keys_a != keys_b:
            return False
        return all(_value_equal(a.get(k), b.get(k)) for k in keys_a)
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_value_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, Sym) and isinstance(b, Sym):
        return a == b
    if type(a) is type(b):
        return a == b
    # bool is an int subtype; ints only ever come from the parser
    if isinstance(a, int) and isinstance(b, int):
        return a == b
    return False


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
