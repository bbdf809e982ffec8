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
from typing import Callable, NoReturn, Optional, Union

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
    locator,
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
class Assign:
    feature: str
    at: ConstituentRef
    value: Atom


@dataclass(frozen=True)
class Equate:
    feature: str
    at: tuple  # >= 2 distinct ConstituentRefs


ConstraintEquation = Union[Assign, Equate]


@dataclass(frozen=True)
class Rule:
    name: str
    category: str
    test: Expr
    template: tuple  # non-empty Actions
    side_effects: tuple = ()  # FunCalls
    constraints: tuple = ()  # ConstraintEquations
    line: int = 0
    # constituent_positions, made on the first call: every fire reads it,
    # and a rule whose constraints name no constituent never makes it
    _positions: Optional[dict] = field(default=None, init=False, repr=False,
                                       compare=False)

    def constituent_positions(self) -> dict[tuple[str, int], int]:
        """Map (category, k) to the template index of its k-th call."""
        if self._positions is None:
            seen: dict[str, int] = {}
            out: dict[tuple[str, int], int] = {}
            for i, action in enumerate(self.template):
                if isinstance(action, RuleCall):
                    seen[action.category] = seen.get(action.category, 0) + 1
                    out[(action.category, seen[action.category])] = i
            object.__setattr__(self, "_positions", out)
        return self._positions


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
# Reader: one loop over the shared scanner's lexemes, told apart by their
# first characters, nests lists as they open and close and makes each
# top-level form a rule once it closes.  Every item is a triple (kind,
# value, offset): a token, or ("list", items, offset of its '(').  A leaf
# test or selector is read by its operator's row.  Errors
# keep the scanner's order: a malformed token first (a refused int() at
# once, the malformed rest after the loop), then an unmatched or unbalanced
# parenthesis, then the error of the first form that fails.

_ACTION_OPS = ("RULE", "OPTRULE", "FUN")

_SCANNER = Scanner(TglError, {":": "expected a keyword name after ':'"},
                   r"[()]", r"[A-Za-z][A-Za-z0-9_.-]*", r":[A-Za-z0-9_.-]+", STRING, INT)


class _GrammarReader:
    def __init__(self, text: str):
        self.text = text
        self.where = locator(text)

    def fail(self, message: str, item) -> NoReturn:
        raise TglError(message, *self.where(item[2]))

    def parse(self) -> Grammar:
        """The grammar of the text; only one form's items are held at a
        time."""
        text = self.text
        lexemes, end, malformed = _SCANNER.lexemes(text)
        grammar = Grammar()
        error = None  # the first error in a form, raised once all are read
        forms: list = []  # top-level items not yet made rules
        items = forms  # the innermost open list's items
        outer: list = []  # the items of the lists around it
        unmatched = None  # offset of the first ')' that closes nothing
        at = 0
        for lexeme in lexemes:
            first = lexeme[0]
            if first == "(":
                inner: list = []
                items.append(("list", inner, at))
                outer.append(items)
                items = inner
            elif first == ")":
                if outer:
                    items = outer.pop()
                    if not outer and error is None:
                        error = self.add_rules(forms, grammar)
                elif unmatched is None:
                    unmatched = at
            elif first in LETTERS:
                items.append(("symbol", lexeme.rstrip(), at))
            elif first == ":":
                items.append(("keyword", lexeme[1:].rstrip().upper(), at))
            elif first == '"':
                items.append(("string", unquote(lexeme.rstrip()), at))
            elif first not in " \t\r\n;":  # '-' or a digit of any script
                try:  # int() refuses more digits than its limit
                    items.append(("int", int(lexeme), at))
                except ValueError as e:
                    _SCANNER.fail(str(e), text, at)
            at += len(lexeme)
        if malformed:
            _SCANNER._bad(text, end)
        if unmatched is not None:
            _SCANNER.fail("unmatched ')'", text, unmatched)
        if outer:
            self.fail("unbalanced '('", outer[-1][-1])
        error = error or self.add_rules(forms, grammar)
        if error:
            raise error
        return grammar

    def add_rules(self, forms: list, grammar: Grammar) -> Optional[TglError]:
        """Add the rules of the top-level forms, then forget the forms;
        the error of the first that fails is returned, not raised."""
        try:
            for form in forms:
                grammar.add(self.production(form))
        except TglError as e:
            return e
        forms.clear()
        return None

    def atom(self, item) -> Atom:
        kind, value, _ = item
        if kind == "symbol":
            return Sym(value)
        if kind == "string" or kind == "int":
            return value
        self.fail(f"expected an atom, found {kind}", item)

    def path(self, item) -> Path:
        if item[0] != "symbol":
            self.fail("expected an attribute path", item)
        try:
            return Path.parse(item[1])
        except ValueError as e:
            self.fail(str(e), item)

    def production(self, form) -> Rule:
        if form[0] != "list":
            self.fail("top level expects (DEFPRODUCTION ...)", form)
        items = form[1]
        if not items or items[0][0] != "symbol" or items[0][1].upper() != "DEFPRODUCTION":
            self.fail("expected (DEFPRODUCTION ...)", form)
        if len(items) != 3:
            self.fail("DEFPRODUCTION wants a name and a rule body", form)
        name, body = items[1], items[2]
        if name[0] != "string":
            self.fail("rule name must be a quoted string", name)
        if body[0] != "list":
            self.fail("rule body must be a list", body)

        found = {}
        parts = body[1]
        for i in range(0, len(parts), 2):
            kind, key, _ = parts[i]
            if kind != "keyword" or key != "PRECOND" and key != "ACTIONS":
                self.fail("rule body allows :PRECOND and :ACTIONS", parts[i])
            found[key] = parts[i + 1] if i + 1 < len(parts) else None
        precond, actions = found.get("PRECOND"), found.get("ACTIONS")
        if precond is None or precond[0] != "list":
            self.fail("missing (:PRECOND ...)", body)
        if actions is None or actions[0] != "list":
            self.fail("missing (:ACTIONS ...)", body)

        category, test = self.precond(precond)
        template, side_effects, constraints = self.actions(actions)
        return Rule(name=name[1], category=category, test=test,
                    template=template, side_effects=side_effects,
                    constraints=constraints, line=self.where(form[2])[0])

    def precond(self, form):
        items = form[1]
        category = None
        test = _NULLARY["TRUE"]
        for i in range(0, len(items), 2):
            item = items[i]
            kind, key, _ = item
            value = items[i + 1] if i + 1 < len(items) else None
            if kind == "keyword" and key == "CAT":
                if value is None or value[0] != "symbol":
                    self.fail(":CAT wants a category symbol", item)
                category = value[1].upper()
            elif kind == "keyword" and key == "TEST":
                if value is None or value[0] != "list":
                    self.fail(":TEST wants a list of test expressions", item)
                exprs = [self.expr(e) for e in value[1]]
                test = Expr("AND", tuple(exprs)) if len(exprs) > 1 \
                    else exprs[0] if exprs else test
            else:
                self.fail(":PRECOND allows :CAT and :TEST", item)
        if category is None:
            self.fail("rule lacks a :CAT", form)
        return category, test

    def expr(self, form, selector: bool = False) -> Expr:
        """The test, or with ``selector`` the selector, a form reads as.
        AND, OR, NOT, PRED and SEL are built bottom-up from an explicit
        stack, so that they may nest to any depth; a leaf needs none."""
        stack: list = []  # per open node: op, argument forms, read, are call args
        while True:
            if form[0] != "list" or not form[1] or form[1][0][0] != "symbol":
                self.fail("selector must be (OP ...)" if selector
                          else "test expression must be (OP ...)", form)
            op, args = form[1][0][1].upper(), form[1][1:]
            if op == ("SEL" if selector else "PRED"):
                if not args or args[0][0] != "symbol":
                    self.fail("SEL wants a selector name" if selector
                              else "PRED wants a predicate name", form)
                stack.append((op, args, [], True))  # the name reads as a symbol
            elif not selector and (op == "AND" or op == "OR" or op == "NOT"):
                if op == "NOT" and len(args) != 1:
                    self.fail("NOT wants exactly one expression", form)
                if not args:
                    self.fail(f"{op} wants at least one expression", form)
                stack.append((op, args, [], False))
            else:
                leaf = self.leaf(op, args, form, selector)
                if not stack:
                    return leaf
                stack[-1][2].append(leaf)
            # finish the nodes whose arguments are all read, up to one with
            # an argument form left to read
            while True:
                op, forms, read, are_args = stack[-1]
                if are_args:
                    while len(read) < len(forms) and forms[len(read)][0] != "list":
                        read.append(self.atom(forms[len(read)]))
                if len(read) < len(forms):
                    form, selector = forms[len(read)], are_args
                    break
                stack.pop()
                node = Expr(op, tuple(read))
                if not stack:
                    return node
                stack[-1][2].append(node)

    def leaf(self, op: str, args, form, selector: bool) -> Expr:
        """A leaf test or selector, read by its operator's row."""
        row = (LEAF_SELECTORS if selector else LEAF_TESTS).get(op)
        if row is None:
            self.fail(f"unknown selector {op}" if selector
                      else f"unknown test operator {op}", form)
        kinds, message, _ = row
        if not kinds and (not args or message is None):
            return _NULLARY[op]
        if len(args) != len(kinds):
            self.fail(message, form)
        values = []
        for kind, item in zip(kinds, args):
            if kind == "path":
                values.append(self.path(item))
            elif kind == "atom":
                values.append(self.atom(item))
            elif item[0] != "symbol" \
                    or kind == "adjunct" and Sym(item[1]) not in _ADJUNCT_PATHS:
                self.fail(message, form)
            else:
                values.append(Sym(item[1]))
        return Expr(op, tuple(values))

    def args(self, forms) -> tuple:
        """The arguments of a call: atoms and selectors."""
        return tuple(self.atom(form) if form[0] != "list" else self.expr(form, True)
                     for form in forms)

    def actions(self, form):
        items = form[1]
        template: list[Action] = []
        side_effects: list[FunCall] = []
        constraints: list[ConstraintEquation] = []
        if not items or items[0][0] != "keyword" or items[0][1] != "TEMPLATE":
            self.fail(":ACTIONS must start with :TEMPLATE", form)
        i = 1
        while i < len(items):
            item = items[i]
            kind, value, _ = item
            if kind == "string" or kind == "list" and value \
                    and value[0][0] == "keyword" and value[0][1] in _ACTION_OPS:
                template.append(Literal(value) if kind == "string" else self.action(item))
                i += 1
            elif kind == "keyword" and value == "SIDE-EFFECTS":
                block = items[i + 1] if i + 1 < len(items) else None
                if block is None or block[0] != "list":
                    self.fail(":SIDE-EFFECTS wants (fun-call+)", item)
                for call in block[1]:
                    if call[0] != "list" or not call[1] or call[1][0][0] != "symbol":
                        self.fail("side effects must be function calls", call)
                    side_effects.append(FunCall(call[1][0][1], self.args(call[1][1:])))
                i += 2
            elif kind == "keyword" and (value == "CONSTRAINTS" or value == "CONSTRAINT"):
                i += 1
                count = 0
                while i < len(items) and items[i][0] == "list":
                    constraints.append(self.equation(items[i]))
                    count += 1
                    i += 1
                if count == 0:
                    self.fail(":CONSTRAINTS wants at least one equation", item)
            else:
                self.fail("unexpected item in :ACTIONS", item)
        if not template:
            self.fail(":TEMPLATE must hold at least one action", form)
        return tuple(template), tuple(side_effects), tuple(constraints)

    def action(self, form) -> Action:
        """A template action (:RULE, :OPTRULE or :FUN ...)."""
        op = form[1][0][1]
        args = form[1][1:]
        if op == "FUN":
            if len(args) != 1 or args[0][0] != "list":
                self.fail(":FUN wants one (name arg*) call", form)
            call = args[0]
            if not call[1] or call[1][0][0] != "symbol":
                self.fail("function call wants a name", call)
            return FunCall(call[1][0][1], self.args(call[1][1:]))
        if len(args) != 2 or args[0][0] != "symbol":
            self.fail(f":{op} wants a category and a selector", form)
        return RuleCall(args[0][1].upper(), self.expr(args[1], True),
                        optional=(op == "OPTRULE"))

    def equation(self, form) -> ConstraintEquation:
        items = form[1]
        if not items or items[0][0] != "symbol":
            self.fail("equation wants a feature name", form)
        feature = items[0][1].upper()
        refs: list[ConstituentRef] = []
        i = 1
        while i < len(items) and (items[i][0] != "keyword" or items[i][1] != "VAL"):
            refs.append(self.ref(items[i]))
            i += 1
        if i < len(items):  # :VAL form
            if len(items) != i + 2:
                self.fail(":VAL wants exactly one atom", form)
            if len(refs) != 1:
                self.fail("value assignment wants exactly one constituent", form)
            return Assign(feature, refs[0], self.atom(items[i + 1]))
        if len(refs) < 2:
            self.fail("equation needs :VAL or at least two constituents", form)
        if len(set(map(str, refs))) != len(refs):
            self.fail("equated constituents must be distinct", form)
        return Equate(feature, tuple(refs))

    def ref(self, form) -> ConstituentRef:
        kind, value, _ = form
        if kind == "symbol" and value.upper() == "LHS":
            return Lhs()
        if kind == "list" and value and value[0][0] == "symbol":
            cat = value[0][1].upper()
            if len(value) == 1:
                return Rhs(cat, 1)
            if len(value) == 2 and value[1][0] == "int":
                return Rhs(cat, value[1][1])
        self.fail("constituent reference is LHS, (CAT) or (CAT k)", form)


def parse_grammar(text: str) -> Grammar:
    """Read rules in source order; no name/registry checks beyond syntax."""
    return _GrammarReader(text).parse()


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


def _fmt_equation(e: ConstraintEquation) -> str:
    if isinstance(e, Assign):
        return f"({e.feature} {e.at} :VAL {_fmt_atom(e.value)})"
    return "(" + " ".join([e.feature] + [str(r) for r in e.at]) + ")"


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
        for eq in rule.constraints:
            refs = [eq.at] if isinstance(eq, Assign) else list(eq.at)
            for ref in refs:
                if isinstance(ref, Rhs) and (ref.category, ref.occurrence) \
                        not in rule.constituent_positions():
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
