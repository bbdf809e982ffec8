"""The template grammar language: rule AST, reader, and static checks.

A grammar is an ordered set of named production rules.  Each rule guards a
category with a boolean test over the input structure and, when fired,
executes its template actions left to right: literal text, deferred word
forms, and recursive calls into other categories on a selected substructure.
Rules may add PATR-style feature equations and reversible side effects.

Concrete syntax (``;`` comments, case-insensitive keywords)::

    (DEFPRODUCTION "VPinf with temp/loc adjuncts"
      (:PRECOND (:CAT VP :TEST ((ROLE-FILLER-P patient)))
       :ACTIONS (:TEMPLATE (:RULE NP (ROLE-FILLER patient))
                           (:OPTRULE PP (TEMP-ADJUNCT))
                           (:OPTRULE PPDUR (TEMP-DURATION))
                           (:OPTRULE PP (LOC-ADJUNCT))
                           (:RULE INF (THEME))
                 :CONSTRAINTS (CASE (NP) :VAL akk))))

Tests:      (AND e+) (OR e+) (NOT e) (TRUE) (EXISTS path) (EQ path atom)
            (ROLE-FILLER-P role) (HAS-ADJUNCT kind) (PRED name arg*)
Selectors:  (PATH p) (ROLE-FILLER role) (THEME) (TEMP-ADJUNCT)
            (TEMP-DURATION) (LOC-ADJUNCT) (SELF) (SEL name arg*)
Equations:  (FEAT ref :VAL atom) introduces a value,
            (FEAT ref ref+) equates it across constituents,
            where ref is LHS, (CAT) or (CAT k).

Built-in role and adjunct lookups resolve against the structure a rule was
handed, falling back to its THEME substructure, so the same rule works
whether it gets the whole input or the event structure directly.

Tests and selectors are one type, ``Expr(op, args)``.  Each leaf operator
is one row of ``LEAF_TESTS`` or ``LEAF_SELECTORS``, which gives its
argument kinds, its error message and its evaluator; a leaf carries its
evaluator bound to its arguments.  AND, OR, NOT, PRED and SEL are read,
checked, formatted and evaluated by explicit-stack loops, so they may
nest to any depth, and the arguments of PRED and SEL calls alike are
evaluated with the registered selectors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple, Optional, Union

from .gil import (
    INT,
    LETTERS,
    STRING,
    Atom,
    FeatureStructure,
    Path,
    PositionedError,
    Scanner,
    Sym,
    atoms_equal,
    get_path,
    is_atom,
    quote,
    unquote,
)
from .morpho import FunctionRegistry

START_CATEGORY = "TXT"


class TglError(PositionedError):
    """Grammar text problem."""


# ---------------------------------------------------------------------------
# Test and selector expressions

class Expr:
    """A test or a selector: an operator and its arguments, ``(OP arg*)``.

    A leaf's operator has a row in ``LEAF_TESTS`` or ``LEAF_SELECTORS``;
    its arguments are paths and atoms, and ``run`` is the row's evaluator
    bound to them, which takes the structure.  AND, OR and NOT take tests;
    PRED and SEL take a registered function's name, as a symbol, then
    atoms and selectors; their ``run`` is None.  An expression is not
    changed once made, so the reader shares each argument-free leaf.
    ``==``, ``hash`` and ``repr`` read the pre-order sequence, so they
    take any depth.
    """

    __slots__ = ("op", "args", "run")

    def __init__(self, op: str, args: tuple = ()):
        self.op = op
        self.args = args
        row = _LEAVES.get(op)
        self.run = None if row is None else partial(row[2], *args) if args else row[2]

    def _preorder(self) -> tuple:
        """Each node as (op, number of arguments), then its arguments."""
        out: list = []
        stack: list = [self]
        while stack:
            item = stack.pop()
            if type(item) is Expr:
                out.append((item.op, len(item.args)))
                stack.extend(reversed(item.args))
            else:
                out.append(item)
        return tuple(out)

    def __eq__(self, other: object) -> bool:
        if type(other) is not Expr:
            return NotImplemented
        return self is other or self._preorder() == other._preorder()

    def __hash__(self) -> int:
        return hash(self._preorder())

    def __repr__(self) -> str:
        return f"<Expr {_fmt(self)}>"


# ---------------------------------------------------------------------------
# Actions, constraints, rules

@dataclass(frozen=True)
class RuleCall:
    category: str
    selector: Expr
    optional: bool = False


@dataclass(frozen=True)
class FunCall:
    name: str
    args: tuple  # atoms and selector expressions


@dataclass(frozen=True)
class Literal:
    text: str


Action = Union[RuleCall, FunCall, Literal]


@dataclass(frozen=True)
class Lhs:
    def __str__(self) -> str:
        return "LHS"


@dataclass(frozen=True)
class Rhs:
    category: str
    occurrence: int = 1

    def __str__(self) -> str:
        if self.occurrence == 1:
            return f"({self.category})"
        return f"({self.category} {self.occurrence})"


ConstituentRef = Union[Lhs, Rhs]


@dataclass(frozen=True)
class Equation:
    """``(FEAT ref :VAL atom)``, one ref bound to ``value``, or
    ``(FEAT ref ref+)``, two or more distinct refs equated, ``value`` None."""

    feature: str
    refs: tuple  # ConstituentRefs
    value: Optional[Atom] = None


class Constituents(NamedTuple):
    """A rule's constraint references resolved against its template.

    ``calls`` is the number of the template's :RULE and :OPTRULE calls;
    ``equations`` holds each equation as (((k, feature), ...), value),
    where k is -1 for LHS, the 0-based number of the call a ref names, or
    None when the template has no such call.
    """

    calls: int
    equations: tuple


@dataclass(frozen=True)
class Rule:
    name: str
    category: str
    test: Expr
    template: tuple  # non-empty Actions
    side_effects: tuple = ()  # FunCalls
    constraints: tuple = ()  # Equations
    line: int = 0
    # constituents(), made on the first call.  A field, not a cached_property:
    # writing the instance __dict__ makes every attribute read of the rule
    # about three times slower
    _constituents: Optional[Constituents] = field(default=None, init=False,
                                                  repr=False, compare=False)

    def constituents(self) -> Constituents:
        """The rule's constraint references resolved against its template."""
        if self._constituents is not None:
            return self._constituents
        numbers: dict[tuple[str, int], int] = {}  # (category, k) -> call number
        seen: dict[str, int] = {}
        for action in self.template:
            if type(action) is RuleCall:
                k = seen[action.category] = seen.get(action.category, 0) + 1
                numbers[action.category, k] = len(numbers)
        equations = []
        for eq in self.constraints:
            slots = []
            for ref in eq.refs:
                slots.append((-1 if type(ref) is Lhs else
                              numbers.get((ref.category, ref.occurrence)), eq.feature))
            equations.append((tuple(slots), eq.value))
        object.__setattr__(self, "_constituents",
                           Constituents(len(numbers), tuple(equations)))
        return self._constituents

    def missing_refs(self) -> list:
        """The constituent references no template call answers, in order.
        They are read off the template, so ``constituents()`` is not made."""
        refs = [ref for eq in self.constraints for ref in eq.refs if type(ref) is Rhs]
        if not refs:
            return refs
        calls: dict[str, int] = {}  # category -> its :RULE and :OPTRULE calls
        for action in self.template:
            if type(action) is RuleCall:
                calls[action.category] = calls.get(action.category, 0) + 1
        return [ref for ref in refs if not 1 <= ref.occurrence <= calls.get(ref.category, 0)]


@dataclass
class Grammar:
    rules: list = field(default_factory=list)
    start: str = START_CATEGORY

    def __post_init__(self):
        self.rule_index: dict[str, list[Rule]] = {}
        self.by_name: dict[str, Rule] = {}
        for rule in self.rules:
            self._index(rule)

    def _index(self, rule: Rule) -> None:
        if rule.name in self.by_name:
            raise TglError(f"rule name {rule.name!r} used twice", rule.line)
        self.by_name[rule.name] = rule
        self.rule_index.setdefault(rule.category, []).append(rule)

    def add(self, rule: Rule) -> None:
        self.rules.append(rule)
        self._index(rule)

    def rules_for(self, category: str) -> list[Rule]:
        return self.rule_index.get(category.upper(), [])


# ---------------------------------------------------------------------------
# Reader: one loop over the shared scanner's bare lexemes, told apart by
# their first characters, nests lists as they open and close and makes each
# top-level form a rule once it closes.  An item is a token's text, or a
# list whose first element is the '(' that opens it and whose others are
# its items; no kind, value or offset is kept beside them.  A token's kind
# is read off its first character where the token is used: a letter starts
# a symbol, ':' a keyword, '"' a string, and anything else an integer, which
# the loop has checked.  A leaf test or selector is read by its operator's
# row.  A run of ')' is one lexeme, which closes as many lists.  The loop
# counts lines from the lexemes that are blanks from a newline on, which
# gives each rule its line.  An error names its item, and the scanner places
# it.  Errors keep the scanner's order: a malformed token first (a refused
# int() at once, the malformed rest after the loop), then an unmatched or
# unbalanced parenthesis, then the error of the first form that fails.

_TOKEN_STARTS = LETTERS + ':"'
_LHS = Lhs()

_SCANNER = Scanner(TglError, {":": "expected a keyword name after ':'"},
                   r"\(|\)+", r"[A-Za-z][A-Za-z0-9_.-]*", r":[A-Za-z0-9_.-]+", STRING, INT)


def _symbol(item) -> bool:
    return type(item) is not list and item is not None and item[0] in LETTERS


def _upper(item) -> Optional[str]:
    """A token's text upper-cased, so a keyword keeps its ':'; None for a
    list."""
    return None if type(item) is list else item.upper()


class _GrammarReader:
    def __init__(self):
        self.symbols: dict[str, Sym] = {}  # one symbol per spelling

    def parse(self, lexemes: list, rest: str) -> Grammar:
        """The grammar of a text's lexemes.  Only one form's items are held
        at a time: bare token texts, and lists headed by their '('."""
        grammar = Grammar()
        error = None  # the first error in a form, raised once all are read
        forms: list = []  # top-level items not yet made rules
        items = forms  # the innermost open list's items
        outer: list = []  # the items of the lists around it
        unmatched = None  # the first run of ')' with one that closes nothing
        line = form_line = 1  # the line of the lexeme; of the open form
        for lexeme in lexemes:
            if lexeme == "(":
                if not outer:
                    form_line = line
                inner = [lexeme]
                items.append(inner)
                outer.append(items)
                items = inner
            elif lexeme[0] in _TOKEN_STARTS:
                items.append(lexeme)
            elif lexeme[0] == ")":  # a run of them, each closing the innermost list
                depth = len(outer) - len(lexeme)
                if depth > 0:
                    items = outer[depth]
                    del outer[depth:]
                else:
                    if outer:
                        items = forms
                        if error is None:
                            error = self.add_rules(forms, grammar, form_line)
                    if depth < 0 and unmatched is None:
                        unmatched = lexeme, len(outer)
                    outer.clear()
            elif lexeme[0] == "\n":
                line += lexeme.count("\n")
            elif lexeme[0] not in " \t\r;":  # '-' or a digit of any script
                try:  # int() refuses more digits than its limit
                    int(lexeme)
                except ValueError as e:
                    _SCANNER.fail(str(e), lexeme)
                items.append(lexeme)
        if rest:
            _SCANNER._bad(rest)
        if unmatched is not None:
            _SCANNER.fail("unmatched ')'", *unmatched)
        if outer:
            _SCANNER.fail("unbalanced '('", items)
        error = error or self.add_rules(forms, grammar, line)
        if error:
            raise error
        return grammar

    def add_rules(self, forms: list, grammar: Grammar, line: int) -> Optional[TglError]:
        """Add the rules of the top-level forms, the last of which opens on
        ``line``, then forget the forms; the error of the first that fails
        is returned, not raised."""
        try:
            for form in forms:
                rule = self.production(form, line)
                if rule.name in grammar.by_name:  # placed at the name's string
                    _SCANNER.fail(f"rule name {rule.name!r} used twice", form[2])
                grammar.add(rule)
        except TglError as e:
            return e
        forms.clear()
        return None

    def atom(self, item) -> Atom:
        if type(item) is list:
            _SCANNER.fail("expected an atom, found list", item)
        first = item[0]
        if first in LETTERS:
            return self.symbol(item)
        if first == '"':
            return unquote(item)
        if first == ":":
            _SCANNER.fail("expected an atom, found keyword", item)
        return int(item)

    def symbol(self, token: str) -> Sym:
        sym = self.symbols.get(token)
        if sym is None:
            sym = self.symbols[token] = Sym(token)
        return sym

    def path(self, item) -> Path:
        if not _symbol(item):
            _SCANNER.fail("expected an attribute path", item)
        try:
            return Path.parse(item)
        except ValueError as e:
            _SCANNER.fail(str(e), item)

    def production(self, form, line: int) -> Rule:
        if type(form) is not list:
            _SCANNER.fail("top level expects (DEFPRODUCTION ...)", form)
        if len(form) < 2 or not _symbol(form[1]) or form[1].upper() != "DEFPRODUCTION":
            _SCANNER.fail("expected (DEFPRODUCTION ...)", form)
        if len(form) != 4:
            _SCANNER.fail("DEFPRODUCTION wants a name and a rule body", form)
        name, body = form[2], form[3]
        if type(name) is list or name[0] != '"':
            _SCANNER.fail("rule name must be a quoted string", name)
        if type(body) is not list:
            _SCANNER.fail("rule body must be a list", body)

        precond = actions = None
        parts = iter(body)
        next(parts)  # its '('
        for item in parts:
            key = _upper(item)
            if key == ":PRECOND":
                precond = next(parts, None)
            elif key == ":ACTIONS":
                actions = next(parts, None)
            else:
                _SCANNER.fail("rule body allows :PRECOND and :ACTIONS", item)
        if type(precond) is not list:
            _SCANNER.fail("missing (:PRECOND ...)", body)
        if type(actions) is not list:
            _SCANNER.fail("missing (:ACTIONS ...)", body)

        category, test = self.precond(precond)
        template, side_effects, constraints = self.actions(actions)
        return Rule(unquote(name), category, test, template, side_effects,
                    constraints, line)

    def precond(self, form):
        category = None
        test = _NULLARY["TRUE"]
        parts = iter(form)
        next(parts)  # its '('
        for item in parts:
            key = _upper(item)
            value = next(parts, None)
            if key == ":CAT":
                if not _symbol(value):
                    _SCANNER.fail(":CAT wants a category symbol", item)
                category = value.upper()
            elif key == ":TEST":
                if type(value) is not list:
                    _SCANNER.fail(":TEST wants a list of test expressions", item)
                if len(value) == 2:
                    test = self.expr(value[1])
                elif len(value) > 2:
                    test = Expr("AND", tuple([self.expr(e) for e in value[1:]]))
            else:
                _SCANNER.fail(":PRECOND allows :CAT and :TEST", item)
        if category is None:
            _SCANNER.fail("rule lacks a :CAT", form)
        return category, test

    def expr(self, form, selector: bool = False) -> Expr:
        """The test, or with ``selector`` the selector, a form reads as.
        AND, OR, NOT, PRED and SEL are built bottom-up from an explicit
        stack, so that they may nest to any depth; a leaf needs none."""
        stack: list = []  # per open node: op, argument forms, read, are call args
        while True:
            if type(form) is not list or len(form) < 2 or type(form[1]) is list \
                    or form[1][0] not in LETTERS:
                _SCANNER.fail("selector must be (OP ...)" if selector
                              else "test expression must be (OP ...)", form)
            op = form[1].upper()
            row = (LEAF_SELECTORS if selector else LEAF_TESTS).get(op)
            if row is not None:
                # a row without a message ignores arguments: (TRUE x) reads as (TRUE)
                leaf = _NULLARY[op] if not row[0] and (len(form) == 2 or row[1] is None) \
                    else self.leaf(op, row, form)
                if not stack:
                    return leaf
                stack[-1][2].append(leaf)
            elif op == ("SEL" if selector else "PRED"):
                if len(form) < 3 or not _symbol(form[2]):
                    _SCANNER.fail("SEL wants a selector name" if selector
                                  else "PRED wants a predicate name", form)
                stack.append((op, form[2:], [], True))  # the name reads as a symbol
            elif not selector and (op == "AND" or op == "OR" or op == "NOT"):
                if op == "NOT" and len(form) != 3:
                    _SCANNER.fail("NOT wants exactly one expression", form)
                if len(form) == 2:
                    _SCANNER.fail(f"{op} wants at least one expression", form)
                stack.append((op, form[2:], [], False))
            else:
                _SCANNER.fail(f"unknown selector {op}" if selector
                              else f"unknown test operator {op}", form)
            # finish the nodes whose arguments are all read, up to one with
            # an argument form left to read
            while True:
                op, forms, read, are_args = stack[-1]
                if are_args:
                    while len(read) < len(forms) and type(forms[len(read)]) is not list:
                        read.append(self.atom(forms[len(read)]))
                if len(read) < len(forms):
                    form, selector = forms[len(read)], are_args
                    break
                stack.pop()
                node = Expr(op, tuple(read))
                if not stack:
                    return node
                stack[-1][2].append(node)

    def leaf(self, op: str, row: tuple, form) -> Expr:
        """A leaf test or selector with arguments, read by its operator's row."""
        kinds, message, _ = row
        if len(form) != 2 + len(kinds):
            _SCANNER.fail(message, form)
        values = []
        for kind, item in zip(kinds, form[2:]):
            if kind == "path":
                values.append(self.path(item))
            elif kind == "atom":
                values.append(self.atom(item))
            elif not _symbol(item) or kind == "adjunct" and Sym(item) not in _ADJUNCT_PATHS:
                _SCANNER.fail(message, form)
            else:
                values.append(self.symbol(item))
        return Expr(op, tuple(values))

    def args(self, forms) -> tuple:
        """The arguments of a call: atoms and selectors."""
        return tuple([self.atom(form) if type(form) is not list else self.expr(form, True)
                      for form in forms])

    def actions(self, form):
        template: list[Action] = []
        side_effects: list[FunCall] = []
        constraints: list[Equation] = []
        if len(form) < 2 or _upper(form[1]) != ":TEMPLATE":
            _SCANNER.fail(":ACTIONS must start with :TEMPLATE", form)
        i, end = 2, len(form)
        while i < end:
            item = form[i]
            i += 1
            if type(item) is list:
                template.append(self.action(item))
            elif item[0] == '"':
                template.append(Literal(unquote(item)))
            else:
                key = _upper(item)
                if key == ":SIDE-EFFECTS":
                    block = form[i] if i < end else None
                    if type(block) is not list:
                        _SCANNER.fail(":SIDE-EFFECTS wants (fun-call+)", item)
                    for call in block[1:]:
                        if type(call) is not list or len(call) < 2 or not _symbol(call[1]):
                            _SCANNER.fail("side effects must be function calls", call)
                        side_effects.append(FunCall(call[1], self.args(call[2:])))
                    i += 1
                elif key == ":CONSTRAINTS" or key == ":CONSTRAINT":
                    start = i
                    while i < end and type(form[i]) is list:
                        constraints.append(self.equation(form[i]))
                        i += 1
                    if i == start:
                        _SCANNER.fail(":CONSTRAINTS wants at least one equation", item)
                else:
                    _SCANNER.fail("unexpected item in :ACTIONS", item)
        if not template:
            _SCANNER.fail(":TEMPLATE must hold at least one action", form)
        return tuple(template), tuple(side_effects), tuple(constraints)

    def action(self, form) -> Action:
        """A template action: (:RULE cat selector), (:OPTRULE cat selector)
        or (:FUN (name arg*))."""
        op = _upper(form[1]) if len(form) > 1 else None
        if op == ":RULE" or op == ":OPTRULE":
            if len(form) != 4 or type(form[2]) is list or form[2][0] not in LETTERS:
                _SCANNER.fail(f"{op} wants a category and a selector", form)
            return RuleCall(form[2].upper(), self.expr(form[3], True), op == ":OPTRULE")
        if op != ":FUN":
            _SCANNER.fail("unexpected item in :ACTIONS", form)
        if len(form) != 3 or type(form[2]) is not list:
            _SCANNER.fail(":FUN wants one (name arg*) call", form)
        call = form[2]
        if len(call) < 2 or not _symbol(call[1]):
            _SCANNER.fail("function call wants a name", call)
        return FunCall(call[1], self.args(call[2:]))

    def equation(self, form) -> Equation:
        if len(form) < 2 or type(form[1]) is list or form[1][0] not in LETTERS:
            _SCANNER.fail("equation wants a feature name", form)
        feature = form[1].upper()
        refs: list[ConstituentRef] = []
        i, end = 2, len(form)
        while i < end:  # constituent references up to a :VAL
            item = form[i]
            if type(item) is list:
                refs.append(self.rhs(item))
            elif item[0] in LETTERS and item.upper() == "LHS":
                refs.append(_LHS)
            elif item[0] == ":" and item.upper() == ":VAL":
                if end != i + 2:
                    _SCANNER.fail(":VAL wants exactly one atom", form)
                if len(refs) != 1:
                    _SCANNER.fail("value assignment wants exactly one constituent", form)
                return Equation(feature, tuple(refs), self.atom(form[i + 1]))
            else:
                _SCANNER.fail("constituent reference is LHS, (CAT) or (CAT k)", item)
            i += 1
        if len(refs) < 2:
            _SCANNER.fail("equation needs :VAL or at least two constituents", form)
        if len(set(refs)) != len(refs):
            _SCANNER.fail("equated constituents must be distinct", form)
        return Equation(feature, tuple(refs))

    def rhs(self, form) -> Rhs:
        """A constituent reference (CAT) or (CAT k)."""
        if len(form) > 1 and _symbol(form[1]):
            if len(form) == 2:
                return Rhs(form[1].upper())
            if len(form) == 3 and type(form[2]) is not list \
                    and form[2][0] not in _TOKEN_STARTS:
                return Rhs(form[1].upper(), int(form[2]))
        _SCANNER.fail("constituent reference is LHS, (CAT) or (CAT k)", form)


def parse_grammar(text: str) -> Grammar:
    """Read rules in source order; no name/registry checks beyond syntax."""
    return _SCANNER.read(text, _GrammarReader().parse)


# ---------------------------------------------------------------------------
# Pretty printer (round-trips through parse_grammar)

def format_grammar(grammar: Grammar) -> str:
    return "\n\n".join(format_rule(rule) for rule in grammar.rules) + "\n"


def format_rule(rule: Rule) -> str:
    lines = [f"(DEFPRODUCTION {quote(rule.name)}"]
    lines.append(f"  (:PRECOND (:CAT {rule.category} :TEST ({_fmt(rule.test)}))")
    actions = " ".join(_fmt_action(a) for a in rule.template)
    body = f"   :ACTIONS (:TEMPLATE {actions}"
    if rule.side_effects:
        calls = " ".join(_fmt_call(c) for c in rule.side_effects)
        body += f" :SIDE-EFFECTS ({calls})"
    if rule.constraints:
        eqs = " ".join(_fmt_equation(e) for e in rule.constraints)
        body += f" :CONSTRAINTS {eqs}"
    lines.append(body + ")))")
    return "\n".join(lines)


def _fmt_atom(a) -> str:
    """An atom, or a leaf's path, as text."""
    if isinstance(a, Sym):
        return a.text
    if isinstance(a, str):
        return quote(a)
    return str(a)


def _fmt(expr: Expr) -> str:
    """A test or selector as text, every node as (OP arg*), from its
    pre-order sequence, so that it may nest to any depth."""
    out: list[str] = []
    left: list[int] = []  # per open node: its arguments not yet begun
    for item in expr._preorder():
        if left:
            out.append(" ")
            left[-1] -= 1
        if type(item) is tuple:
            out.append("(" + item[0])
            left.append(item[1])
        else:
            out.append(_fmt_atom(item))
        while left and not left[-1]:
            left.pop()
            out.append(")")
    return "".join(out)


def _fmt_arg(a) -> str:
    return _fmt_atom(a) if is_atom(a) else _fmt(a)


def _fmt_call(c: FunCall) -> str:
    return "(" + " ".join([c.name] + [_fmt_arg(a) for a in c.args]) + ")"


def _fmt_action(a: Action) -> str:
    if isinstance(a, Literal):
        return _fmt_atom(a.text)
    if isinstance(a, FunCall):
        return f"(:FUN {_fmt_call(a)})"
    if isinstance(a, RuleCall):
        op = ":OPTRULE" if a.optional else ":RULE"
        return f"({op} {a.category} {_fmt(a.selector)})"
    raise TypeError(a)


def _fmt_equation(e: Equation) -> str:
    words = [e.feature] + [str(r) for r in e.refs]
    if e.value is not None:
        words += [":VAL", _fmt_atom(e.value)]
    return "(" + " ".join(words) + ")"


# ---------------------------------------------------------------------------
# Predicate / selector registries

class Registry:
    """Named user extensions for tests (predicates) or selectors."""

    def __init__(self, kind: str):
        self.kind = kind
        self._entries: dict[str, Callable] = {}

    def register(self, name: str, fn: Callable) -> None:
        key = name.casefold()
        if key in self._entries:
            raise TglError(f"{self.kind} {name!r} registered twice")
        self._entries[key] = fn

    def get(self, name: str) -> Optional[Callable]:
        return self._entries.get(name.casefold())


@dataclass
class Registries:
    predicates: Registry
    selectors: Registry
    functions: FunctionRegistry

    @classmethod
    def standard(cls, lexicon=None) -> "Registries":
        from .morpho import default_lexicon, standard_functions

        return cls(Registry("predicate"), Registry("selector"),
                   standard_functions(lexicon or default_lexicon()))


# ---------------------------------------------------------------------------
# Evaluation of tests and selectors

_ARGS, _THEME = Path(("ARGS",)), Path(("THEME",))
_ADJUNCT_PATHS = {Sym("temp"): Path(("TIME-ADJ",)), Sym("dur"): Path(("DUR-ADJ",)),
                  Sym("loc"): Path(("LOC-ADJ",))}


def _relative(path: Path, fs: FeatureStructure):
    """Look up a path, trying it under THEME as a fallback."""
    value = get_path(fs, path)
    return value if value is not None else get_path(get_path(fs, _THEME), path)


def _role_filler(role: Sym, fs: FeatureStructure):
    args = _relative(_ARGS, fs)
    if not isinstance(args, tuple):
        return None
    for item in args:
        if isinstance(item, FeatureStructure) and item.get("ROLE") == role:
            return item
    return None


def _theme(fs: FeatureStructure):
    theme = get_path(fs, _THEME)
    return theme if theme is not None else fs


# One row per leaf operator: the kinds of its arguments ("path", "atom",
# "symbol", or "adjunct" for temp, dur or loc), the message for arguments
# that do not fit them, and its evaluator, which takes the arguments, then
# the structure.  A row without a message ignores arguments: (TRUE x) reads
# as (TRUE).
LEAF_TESTS = {
    "TRUE": ((), None, lambda fs: True),
    "EXISTS": (("path",), "EXISTS wants a path",
               lambda path, fs: get_path(fs, path) is not None),
    "EQ": (("path", "atom"), "EQ wants a path and an atom",
           lambda path, atom, fs: atoms_equal(get_path(fs, path), atom)),
    "ROLE-FILLER-P": (("symbol",), "ROLE-FILLER-P wants a role symbol",
                      lambda role, fs: _role_filler(role, fs) is not None),
    "HAS-ADJUNCT": (("adjunct",), "HAS-ADJUNCT wants temp, dur or loc",
                    lambda kind, fs: _relative(_ADJUNCT_PATHS[kind], fs) is not None),
}
LEAF_SELECTORS = {
    "PATH": (("path",), "PATH wants one path", lambda path, fs: get_path(fs, path)),
    "ROLE-FILLER": (("symbol",), "ROLE-FILLER wants a role symbol", _role_filler),
    "THEME": ((), "THEME takes no arguments", _theme),
    "TEMP-ADJUNCT": ((), "TEMP-ADJUNCT takes no arguments",
                     partial(_relative, _ADJUNCT_PATHS[Sym("temp")])),
    "TEMP-DURATION": ((), "TEMP-DURATION takes no arguments",
                      partial(_relative, _ADJUNCT_PATHS[Sym("dur")])),
    "LOC-ADJUNCT": ((), "LOC-ADJUNCT takes no arguments",
                    partial(_relative, _ADJUNCT_PATHS[Sym("loc")])),
    "SELF": ((), "SELF takes no arguments", lambda fs: fs),
}
_LEAVES = {**LEAF_TESTS, **LEAF_SELECTORS}
_NULLARY = {op: Expr(op) for op, row in _LEAVES.items() if not row[0]}


def eval_test(test: Expr, fs: FeatureStructure, predicates: Optional[Registry] = None,
              selectors: Optional[Registry] = None) -> bool:
    """Whether a test holds of a structure; the registries resolve its
    PRED calls and the SEL calls among their arguments."""
    run = test.run
    if run is not None:
        return run(fs)
    return _evaluate(test, fs, predicates, selectors)


def eval_selector(selector: Expr, fs: FeatureStructure,
                  selectors: Optional[Registry] = None):
    """Pick the substructure an action works on; None means absent."""
    run = selector.run
    if run is not None:
        return run(fs)
    return _evaluate(selector, fs, None, selectors)


def _evaluate(expr: Expr, fs: FeatureStructure, predicates, selectors):
    """The value of an AND, OR, NOT, PRED or SEL node, from an explicit
    stack, so that it may nest to any depth.  AND, OR and NOT short-circuit,
    left to right, as all(), any() and not.  A call looks its function up
    before it evaluates its arguments, left to right, as the call is made;
    a predicate's value is made a bool."""
    stack: list = []  # per open node: it, its next argument, function, values
    node, value = expr, None  # a node to open; the value last evaluated
    while True:
        if node is not None:
            fn = None
            if node.op == "PRED" or node.op == "SEL":
                kind, fn = _callee(node.op, node.args[0], predicates, selectors)
                if fn is None:
                    raise TglError(f"unknown {kind} {node.args[0].text!r}")
            stack.append([node, 0 if fn is None else 1, fn, []])
            node = None
        frame = stack[-1]
        top, i, fn, values = frame
        op, args = top.op, top.args
        if fn is None and i and (op == "NOT" or bool(value) is (op == "OR")):
            value = not value if op == "NOT" else bool(value)  # decided
        elif i == len(args):
            value = op != "OR" if fn is None else fn(fs, *values)
            if op == "PRED":
                value = bool(value)
        else:
            frame[1] = i + 1
            arg = args[i]
            if type(arg) is not Expr:
                values.append(arg)
            elif arg.run is None:
                node = arg
            elif fn is None:
                value = arg.run(fs)
            else:
                values.append(arg.run(fs))
            continue
        stack.pop()
        if not stack:
            return value
        if stack[-1][2] is not None:
            stack[-1][3].append(value)


def _callee(op: str, name: Sym, predicates, selectors):
    """The kind of a PRED or SEL call and its function, None if unregistered."""
    kind, registry = ("predicate", predicates) if op == "PRED" else ("selector", selectors)
    return kind, registry.get(name.text) if registry is not None else None


# ---------------------------------------------------------------------------
# Static validation

class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    severity: Severity
    message: str
    rule: Optional[str] = None
    line: int = 0

    def __str__(self) -> str:
        where = f"rule {self.rule!r}" if self.rule else "grammar"
        loc = f" (line {self.line})" if self.line else ""
        return f"{self.severity.value}: {where}{loc}: {self.message}"


def validate_grammar(grammar: Grammar, registries: Registries,
                     start: Optional[str] = None) -> list[Diagnostic]:
    """Static checks; an empty result means the grammar is clean.  start is
    the start category generation will use (default: the grammar's)."""
    out: list[Diagnostic] = []

    def error(msg, rule=None, line=0):
        out.append(Diagnostic(Severity.ERROR, msg, rule, line))

    def warn(msg, rule=None, line=0):
        out.append(Diagnostic(Severity.WARNING, msg, rule, line))

    start = (start or grammar.start).upper()
    if not grammar.rules_for(start):
        error(f"start category {start} has no rules")

    for rule in grammar.rules:
        for action in rule.template:
            if isinstance(action, RuleCall) and not grammar.rules_for(action.category):
                warn(f"no rule produces category {action.category}",
                     rule.name, rule.line)
            if isinstance(action, FunCall):
                _check_fun(action, rule, registries, error, side_effect=False)
            if isinstance(action, RuleCall):
                _check_names(action.selector, rule, registries, error)
        _check_names(rule.test, rule, registries, error)
        for call in rule.side_effects:
            _check_fun(call, rule, registries, error, side_effect=True)
        for ref in rule.missing_refs():
            error(f"constraint names constituent {ref} "
                  f"but the template has no such call",
                  rule.name, rule.line)
        if _optional_subtree_constrained(rule, grammar):
            warn("optional constituent leads to rules with constraints; "
                 "their inclusion follows the first derivation's context",
                 rule.name, rule.line)
    return out


def _check_fun(call: FunCall, rule: Rule, registries, error, side_effect: bool):
    """Report an unknown function, one used where its kind may not be, and
    the unknown names its arguments call."""
    entry = registries.functions.get(call.name)
    if entry is None:
        error(f"unknown function {call.name!r}", rule.name, rule.line)
    elif side_effect and not entry.is_side_effect:
        error(f"function {call.name!r} has no undo callback and cannot "
              f"be used under :SIDE-EFFECTS", rule.name, rule.line)
    elif not side_effect and entry.is_side_effect:
        error(f"side effect {call.name!r} cannot appear in a template",
              rule.name, rule.line)
    for arg in call.args:
        _check_names(arg, rule, registries, error)


def _check_names(expr, rule: Rule, registries, error):
    """Report the predicates and selectors that a test, selector or
    argument calls and ``registries`` lacks, left to right."""
    if type(expr) is not Expr or expr.run is not None:
        return
    flat = expr._preorder()  # pre-order, so errors come left to right
    for head, name in zip(flat, flat[1:]):
        if type(head) is tuple and (head[0] == "PRED" or head[0] == "SEL"):
            kind, fn = _callee(head[0], name, registries.predicates, registries.selectors)
            if fn is None:
                error(f"unknown {kind} {name.text!r}", rule.name, rule.line)


def _optional_subtree_constrained(rule: Rule, grammar: Grammar) -> bool:
    """True when an :OPTRULE can reach rules carrying constraint equations."""
    for action in rule.template:
        if isinstance(action, RuleCall) and action.optional:
            seen: set[str] = set()
            stack = [action.category]
            while stack:
                cat = stack.pop()
                if cat in seen:
                    continue
                seen.add(cat)
                for r in grammar.rules_for(cat):
                    if r.constraints:
                        return True
                    for a in r.template:
                        if isinstance(a, RuleCall):
                            stack.append(a.category)
    return False
