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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterator, NoReturn, Optional, Union

from .gil import (
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
# Test expressions

@dataclass(frozen=True)
class TrueTest:
    pass


@dataclass(frozen=True)
class Exists:
    path: Path


@dataclass(frozen=True)
class AtomEq:
    path: Path
    atom: Atom


@dataclass(frozen=True)
class RoleFillerP:
    role: Sym


@dataclass(frozen=True)
class HasAdjunct:
    kind: Sym  # temp | dur | loc


@dataclass(frozen=True)
class And:
    items: tuple


@dataclass(frozen=True)
class Or:
    items: tuple


@dataclass(frozen=True)
class Not:
    item: object


@dataclass(frozen=True)
class CallPred:
    name: str
    args: tuple


TestExpr = Union[TrueTest, Exists, AtomEq, RoleFillerP, HasAdjunct,
                 And, Or, Not, CallPred]
_COMPOUND_TESTS = (And, Or, Not)
_COMPOUND_OPS = ("AND", "OR", "NOT")


# ---------------------------------------------------------------------------
# Selector expressions

@dataclass(frozen=True)
class PathSel:
    path: Path


@dataclass(frozen=True)
class RoleFiller:
    role: Sym


@dataclass(frozen=True)
class Theme:
    pass


@dataclass(frozen=True)
class TempAdjunct:
    pass


@dataclass(frozen=True)
class TempDuration:
    pass


@dataclass(frozen=True)
class LocAdjunct:
    pass


@dataclass(frozen=True)
class SelfSel:
    pass


@dataclass(frozen=True)
class CallSel:
    name: str
    args: tuple


SelectorExpr = Union[PathSel, RoleFiller, Theme, TempAdjunct, TempDuration,
                     LocAdjunct, SelfSel, CallSel]


# ---------------------------------------------------------------------------
# Actions, constraints, rules

@dataclass(frozen=True)
class RuleCall:
    category: str
    selector: SelectorExpr
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
    test: TestExpr
    template: tuple  # non-empty Actions
    side_effects: tuple = ()  # FunCalls
    constraints: tuple = ()  # ConstraintEquations
    line: int = 0

    def constituent_positions(self) -> dict[tuple[str, int], int]:
        """Map (category, k) to the template index of its k-th call."""
        seen: dict[str, int] = {}
        out: dict[tuple[str, int], int] = {}
        for i, action in enumerate(self.template):
            if isinstance(action, RuleCall):
                seen[action.category] = seen.get(action.category, 0) + 1
                out[(action.category, seen[action.category])] = i
        return out


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

    @property
    def categories(self) -> set[str]:
        cats = {START_CATEGORY}
        for rule in self.rules:
            cats.add(rule.category)
            for action in rule.template:
                if isinstance(action, RuleCall):
                    cats.add(action.category)
        return cats

    def rules_for(self, category: str) -> list[Rule]:
        return self.rule_index.get(category.upper(), [])

    def has_side_effects(self) -> bool:
        return any(rule.side_effects for rule in self.rules)


# ---------------------------------------------------------------------------
# Reader: s-expressions over the shared scanner.  Every item is a triple
# (kind, value, offset): a token, or ("list", items, offset of its '(').

_TOKENS = Scanner(
    TglError, {":": "expected a keyword name after ':'"},
    {"keyword": lambda lexeme: lexeme[1:].upper(), "string": unquote, "int": int},
    lparen=r"\(", rparen=r"\)", symbol=r"[A-Za-z][A-Za-z0-9_.-]*",
    keyword=r":[A-Za-z0-9_.-]+", string=STRING, int=r"-?\d+")


def _read_all(tokens: Iterator[tuple], fail) -> list:
    forms: list = []
    open_lists: list = []
    for token in tokens:
        kind = token[0]
        if kind == "lparen":
            open_lists.append(("list", [], token[2]))
            continue
        if kind == "eof":
            if open_lists:
                fail("unbalanced '('", open_lists[-1])
            break
        if kind == "rparen":
            if not open_lists:
                fail("unmatched ')'", token)
            token = open_lists.pop()
        (open_lists[-1][1] if open_lists else forms).append(token)
    return forms


def _is_list(x) -> bool:
    return x is not None and x[0] == "list"


def _is_sym(x, name: Optional[str] = None) -> bool:
    return x[0] == "symbol" and (name is None or x[1].upper() == name)


def _is_kw(x, name: str) -> bool:
    return x[0] == "keyword" and x[1] == name


class _GrammarReader:
    def __init__(self, text: str):
        self.tokens = _TOKENS.scan(text)
        self.where = locator(text)

    def fail(self, message: str, item) -> NoReturn:
        for _ in self.tokens:
            pass
        raise TglError(message, *self.where(item[2]))

    def parse(self) -> Grammar:
        grammar = Grammar()
        for form in _read_all(self.tokens, self.fail):
            if form[0] != "list":
                self.fail("top level expects (DEFPRODUCTION ...)", form)
            grammar.add(self.production(form))
        return grammar

    def atom(self, item) -> Atom:
        kind, value, _ = item
        if kind == "symbol":
            return Sym(value)
        if kind == "string" or kind == "int":
            return value
        self.fail(f"expected an atom, found {kind}", item)

    def path(self, item) -> Path:
        if not _is_sym(item):
            self.fail("expected an attribute path", item)
        try:
            return Path.parse(item[1])
        except ValueError as e:
            self.fail(str(e), item)

    def production(self, form) -> Rule:
        items = form[1]
        if not items or not _is_sym(items[0], "DEFPRODUCTION"):
            self.fail("expected (DEFPRODUCTION ...)", form)
        if len(items) != 3:
            self.fail("DEFPRODUCTION wants a name and a rule body", form)
        name, body = items[1], items[2]
        if name[0] != "string":
            self.fail("rule name must be a quoted string", name)
        if body[0] != "list":
            self.fail("rule body must be a list", body)

        precond = actions = None
        i = 0
        while i < len(body[1]):
            item = body[1][i]
            if _is_kw(item, "PRECOND"):
                precond = body[1][i + 1] if i + 1 < len(body[1]) else None
                i += 2
            elif _is_kw(item, "ACTIONS"):
                actions = body[1][i + 1] if i + 1 < len(body[1]) else None
                i += 2
            else:
                self.fail("rule body allows :PRECOND and :ACTIONS", item)
        if not _is_list(precond):
            self.fail("missing (:PRECOND ...)", body)
        if not _is_list(actions):
            self.fail("missing (:ACTIONS ...)", body)

        category, test = self.precond(precond)
        template, side_effects, constraints = self.actions(actions)
        return Rule(name=name[1], category=category, test=test,
                    template=template, side_effects=side_effects,
                    constraints=constraints, line=self.where(form[2])[0])

    def precond(self, form):
        items = form[1]
        category = None
        test: TestExpr = TrueTest()
        i = 0
        while i < len(items):
            item = items[i]
            if _is_kw(item, "CAT"):
                cat_tok = items[i + 1] if i + 1 < len(items) else None
                if cat_tok is None or not _is_sym(cat_tok):
                    self.fail(":CAT wants a category symbol", item)
                category = cat_tok[1].upper()
                i += 2
            elif _is_kw(item, "TEST"):
                test_form = items[i + 1] if i + 1 < len(items) else None
                if not _is_list(test_form):
                    self.fail(":TEST wants a list of test expressions", item)
                exprs = [self.test(e) for e in test_form[1]]
                if not exprs:
                    test = TrueTest()
                elif len(exprs) == 1:
                    test = exprs[0]
                else:
                    test = And(tuple(exprs))
                i += 2
            else:
                self.fail(":PRECOND allows :CAT and :TEST", item)
        if category is None:
            self.fail("rule lacks a :CAT", form)
        return category, test

    def test(self, form) -> TestExpr:
        """The test a form reads as.  AND, OR and NOT are built bottom-up
        from an explicit stack, so a test may nest to any depth; a leaf test
        needs none."""
        op, args = self._test_op(form)
        if op not in _COMPOUND_OPS:
            return self._leaf_test(op, args, form)
        self._check_arity(op, args, form)
        stack = [(op, args, [])]  # per open compound: its operands so far
        while True:
            op, args, built = stack[-1]
            if len(built) < len(args):
                child = args[len(built)]
                child_op, child_args = self._test_op(child)
                if child_op in _COMPOUND_OPS:
                    self._check_arity(child_op, child_args, child)
                    stack.append((child_op, child_args, []))
                else:
                    built.append(self._leaf_test(child_op, child_args, child))
                continue
            stack.pop()
            test = Not(built[0]) if op == "NOT" else \
                (And if op == "AND" else Or)(tuple(built))
            if not stack:
                return test
            stack[-1][2].append(test)

    def _test_op(self, form) -> tuple:
        if form[0] != "list" or not form[1] or not _is_sym(form[1][0]):
            self.fail("test expression must be (OP ...)", form)
        return form[1][0][1].upper(), form[1][1:]

    def _check_arity(self, op: str, args, form) -> None:
        if op == "NOT":
            if len(args) != 1:
                self.fail("NOT wants exactly one expression", form)
        elif not args:
            self.fail(f"{op} wants at least one expression", form)

    def _leaf_test(self, op: str, args, form) -> TestExpr:
        if op == "TRUE":
            return TrueTest()
        if op == "EXISTS":
            if len(args) != 1:
                self.fail("EXISTS wants a path", form)
            return Exists(self.path(args[0]))
        if op == "EQ":
            if len(args) != 2:
                self.fail("EQ wants a path and an atom", form)
            return AtomEq(self.path(args[0]), self.atom(args[1]))
        if op == "ROLE-FILLER-P":
            if len(args) != 1 or not _is_sym(args[0]):
                self.fail("ROLE-FILLER-P wants a role symbol", form)
            return RoleFillerP(Sym(args[0][1]))
        if op == "HAS-ADJUNCT":
            if len(args) != 1 or not _is_sym(args[0]):
                self.fail("HAS-ADJUNCT wants temp, dur or loc", form)
            kind = Sym(args[0][1])
            if kind not in (Sym("temp"), Sym("dur"), Sym("loc")):
                self.fail("HAS-ADJUNCT wants temp, dur or loc", form)
            return HasAdjunct(kind)
        if op == "PRED":
            if not args or not _is_sym(args[0]):
                self.fail("PRED wants a predicate name", form)
            return CallPred(args[0][1], tuple(self.pred_arg(a) for a in args[1:]))
        self.fail(f"unknown test operator {op}", form)

    def pred_arg(self, form):
        if form[0] != "list":
            return self.atom(form)
        return self.selector(form)

    def selector(self, form) -> SelectorExpr:
        if form[0] != "list" or not form[1] or not _is_sym(form[1][0]):
            self.fail("selector must be (OP ...)", form)
        op = form[1][0][1].upper()
        args = form[1][1:]
        simple = {"THEME": Theme, "TEMP-ADJUNCT": TempAdjunct,
                  "TEMP-DURATION": TempDuration, "LOC-ADJUNCT": LocAdjunct,
                  "SELF": SelfSel}
        if op in simple:
            if args:
                self.fail(f"{op} takes no arguments", form)
            return simple[op]()
        if op == "PATH":
            if len(args) != 1:
                self.fail("PATH wants one path", form)
            return PathSel(self.path(args[0]))
        if op == "ROLE-FILLER":
            if len(args) != 1 or not _is_sym(args[0]):
                self.fail("ROLE-FILLER wants a role symbol", form)
            return RoleFiller(Sym(args[0][1]))
        if op == "SEL":
            if not args or not _is_sym(args[0]):
                self.fail("SEL wants a selector name", form)
            return CallSel(args[0][1], tuple(self.pred_arg(a) for a in args[1:]))
        self.fail(f"unknown selector {op}", form)

    def actions(self, form):
        items = form[1]
        template: list[Action] = []
        side_effects: list[FunCall] = []
        constraints: list[ConstraintEquation] = []
        if not items or not _is_kw(items[0], "TEMPLATE"):
            self.fail(":ACTIONS must start with :TEMPLATE", form)
        i = 1
        while i < len(items):
            item = items[i]
            if self._is_template_action(item):
                template.append(self.action(item))
                i += 1
                continue
            if _is_kw(item, "SIDE-EFFECTS"):
                block = items[i + 1] if i + 1 < len(items) else None
                if not _is_list(block):
                    self.fail(":SIDE-EFFECTS wants (fun-call+)", item)
                for call in block[1]:
                    if not (call[0] == "list" and call[1] and _is_sym(call[1][0])):
                        self.fail("side effects must be function calls", call)
                    side_effects.append(
                        FunCall(call[1][0][1],
                                tuple(self.pred_arg(a) for a in call[1][1:]))
                    )
                i += 2
                continue
            if _is_kw(item, "CONSTRAINT") or _is_kw(item, "CONSTRAINTS"):
                i += 1
                count = 0
                while i < len(items) and items[i][0] == "list":
                    constraints.append(self.equation(items[i]))
                    count += 1
                    i += 1
                if count == 0:
                    self.fail(":CONSTRAINTS wants at least one equation", item)
                continue
            self.fail("unexpected item in :ACTIONS", item)
        if not template:
            self.fail(":TEMPLATE must hold at least one action", form)
        return tuple(template), tuple(side_effects), tuple(constraints)

    @staticmethod
    def _is_template_action(item) -> bool:
        if item[0] != "list":
            return item[0] == "string"
        return bool(item[1]) and any(
            _is_kw(item[1][0], kw) for kw in ("RULE", "OPTRULE", "FUN")
        )

    def action(self, form) -> Action:
        if form[0] != "list":
            if form[0] == "string":
                return Literal(form[1])
            self.fail("template actions are strings or (:OP ...)", form)
        op = form[1][0][1]
        args = form[1][1:]
        if op in ("RULE", "OPTRULE"):
            if len(args) != 2 or not _is_sym(args[0]):
                self.fail(f":{op} wants a category and a selector", form)
            return RuleCall(args[0][1].upper(), self.selector(args[1]),
                            optional=(op == "OPTRULE"))
        if op == "FUN":
            if len(args) != 1 or args[0][0] != "list":
                self.fail(":FUN wants one (name arg*) call", form)
            call = args[0]
            if not call[1] or not _is_sym(call[1][0]):
                self.fail("function call wants a name", call)
            return FunCall(call[1][0][1],
                           tuple(self.pred_arg(a) for a in call[1][1:]))
        self.fail(f"unknown template action :{op}", form)

    def equation(self, form) -> ConstraintEquation:
        items = form[1]
        if not items or not _is_sym(items[0]):
            self.fail("equation wants a feature name", form)
        feature = items[0][1].upper()
        refs: list[ConstituentRef] = []
        i = 1
        while i < len(items) and not _is_kw(items[i], "VAL"):
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
        if _is_sym(form, "LHS"):
            return Lhs()
        if form[0] == "list" and form[1] and _is_sym(form[1][0]):
            cat = form[1][0][1].upper()
            if len(form[1]) == 1:
                return Rhs(cat, 1)
            if len(form[1]) == 2 and form[1][1][0] == "int":
                return Rhs(cat, form[1][1][1])
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
    lines.append(f"  (:PRECOND (:CAT {rule.category} :TEST ({_fmt_test(rule.test)}))")
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


def _fmt_atom(a: Atom) -> str:
    if isinstance(a, Sym):
        return a.text
    if isinstance(a, str):
        return quote(a)
    return str(a)


def _fmt_test(t: TestExpr) -> str:
    out: list[str] = []
    stack: list = [t]  # tests still to format, and literal pieces
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, Not):
            stack += [")", item.item, "(NOT "]
        elif isinstance(item, (And, Or)):
            stack.append(")")
            for k in range(len(item.items) - 1, -1, -1):
                stack.append(item.items[k])
                if k:
                    stack.append(" ")
            stack.append("(AND " if isinstance(item, And) else "(OR ")
        else:
            out.append(_fmt_leaf_test(item))
    return "".join(out)


def _fmt_leaf_test(t: TestExpr) -> str:
    if isinstance(t, TrueTest):
        return "(TRUE)"
    if isinstance(t, Exists):
        return f"(EXISTS {t.path})"
    if isinstance(t, AtomEq):
        return f"(EQ {t.path} {_fmt_atom(t.atom)})"
    if isinstance(t, RoleFillerP):
        return f"(ROLE-FILLER-P {t.role})"
    if isinstance(t, HasAdjunct):
        return f"(HAS-ADJUNCT {t.kind})"
    if isinstance(t, CallPred):
        return "(PRED " + " ".join([t.name] + [_fmt_arg(a) for a in t.args]) + ")"
    raise TypeError(t)


def _fmt_sel(s: SelectorExpr) -> str:
    if isinstance(s, PathSel):
        return f"(PATH {s.path})"
    if isinstance(s, RoleFiller):
        return f"(ROLE-FILLER {s.role})"
    if isinstance(s, Theme):
        return "(THEME)"
    if isinstance(s, TempAdjunct):
        return "(TEMP-ADJUNCT)"
    if isinstance(s, TempDuration):
        return "(TEMP-DURATION)"
    if isinstance(s, LocAdjunct):
        return "(LOC-ADJUNCT)"
    if isinstance(s, SelfSel):
        return "(SELF)"
    if isinstance(s, CallSel):
        return "(SEL " + " ".join([s.name] + [_fmt_arg(a) for a in s.args]) + ")"
    raise TypeError(s)


def _fmt_arg(a) -> str:
    if is_atom(a):
        return _fmt_atom(a)
    return _fmt_sel(a)


def _fmt_call(c: FunCall) -> str:
    return "(" + " ".join([c.name] + [_fmt_arg(a) for a in c.args]) + ")"


def _fmt_action(a: Action) -> str:
    if isinstance(a, Literal):
        return _fmt_atom(a.text)
    if isinstance(a, FunCall):
        return f"(:FUN {_fmt_call(a)})"
    if isinstance(a, RuleCall):
        op = ":OPTRULE" if a.optional else ":RULE"
        return f"({op} {a.category} {_fmt_sel(a.selector)})"
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

def _relative(fs: FeatureStructure, *paths: str):
    """Look up the first present path, trying THEME.<path> as a fallback."""
    for p in paths:
        v = get_path(fs, p)
        if v is not None:
            return v
    for p in paths:
        v = get_path(fs, "THEME." + p)
        if v is not None:
            return v
    return None


def _args_list(fs: FeatureStructure):
    args = _relative(fs, "ARGS")
    return args if isinstance(args, tuple) else None


def _role_filler(fs: FeatureStructure, role: Sym):
    args = _args_list(fs)
    if args is None:
        return None
    for item in args:
        if isinstance(item, FeatureStructure) and get_path(item, "ROLE") == role:
            return item
    return None


_ADJUNCT_PATHS = {Sym("temp"): "TIME-ADJ", Sym("dur"): "DUR-ADJ",
                  Sym("loc"): "LOC-ADJ"}


def eval_test(test: TestExpr, fs: FeatureStructure,
              predicates: Optional[Registry] = None) -> bool:
    if isinstance(test, TrueTest):
        return True
    if isinstance(test, Exists):
        return get_path(fs, test.path) is not None
    if isinstance(test, AtomEq):
        value = get_path(fs, test.path)
        return value is not None and atoms_equal(value, test.atom)
    if isinstance(test, RoleFillerP):
        return _role_filler(fs, test.role) is not None
    if isinstance(test, HasAdjunct):
        return _relative(fs, _ADJUNCT_PATHS[test.kind]) is not None
    if isinstance(test, _COMPOUND_TESTS):
        return _eval_compound(test, fs, predicates)
    if isinstance(test, CallPred):
        fn = predicates.get(test.name) if predicates else None
        if fn is None:
            raise TglError(f"unknown predicate {test.name!r}")
        args = tuple(_eval_arg(a, fs, None) for a in test.args)
        return bool(fn(fs, *args))
    raise TypeError(test)


def _eval_compound(test, fs: FeatureStructure, predicates) -> bool:
    """AND, OR and NOT from an explicit stack, so that a test may nest to
    any depth: short-circuit, left to right, as all(), any() and not."""
    stack = [[test, 0]]  # per open compound: it and its next operand
    value = False  # the value of the operand last evaluated
    while stack:
        frame = stack[-1]
        test, i = frame
        if type(test) is Not:
            if i:
                value = not value
                stack.pop()
                continue
            child = test.item
        else:
            is_or = type(test) is Or
            if i and bool(value) is is_or:  # decided: AND met false, OR true
                value = is_or
                stack.pop()
                continue
            if i == len(test.items):
                value = not is_or
                stack.pop()
                continue
            child = test.items[i]
        frame[1] = i + 1
        if isinstance(child, _COMPOUND_TESTS):
            stack.append([child, 0])
        else:
            value = eval_test(child, fs, predicates)
    return value


def eval_selector(selector: SelectorExpr, fs: FeatureStructure,
                  selectors: Optional[Registry] = None):
    """Pick the substructure an action works on; None means absent."""
    if isinstance(selector, SelfSel):
        return fs
    if isinstance(selector, PathSel):
        return get_path(fs, selector.path)
    if isinstance(selector, RoleFiller):
        return _role_filler(fs, selector.role)
    if isinstance(selector, Theme):
        theme = get_path(fs, "THEME")
        return theme if theme is not None else fs
    if isinstance(selector, TempAdjunct):
        return _relative(fs, "TIME-ADJ")
    if isinstance(selector, TempDuration):
        return _relative(fs, "DUR-ADJ")
    if isinstance(selector, LocAdjunct):
        return _relative(fs, "LOC-ADJ")
    if isinstance(selector, CallSel):
        fn = selectors.get(selector.name) if selectors else None
        if fn is None:
            raise TglError(f"unknown selector {selector.name!r}")
        args = tuple(_eval_arg(a, fs, selectors) for a in selector.args)
        return fn(fs, *args)
    raise TypeError(selector)


def _eval_arg(arg, fs, selectors):
    if is_atom(arg):
        return arg
    return eval_selector(arg, fs, selectors)


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


def validate_grammar(grammar: Grammar, registries: Optional[Registries] = None,
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
        positions = rule.constituent_positions()
        for action in rule.template:
            if isinstance(action, RuleCall) and not grammar.rules_for(action.category):
                warn(f"no rule produces category {action.category}",
                     rule.name, rule.line)
            if isinstance(action, FunCall):
                _check_fun(action, rule, registries, error, side_effect=False)
                for arg in action.args:
                    _check_sel_names(arg, rule, registries, error)
            if isinstance(action, RuleCall):
                _check_sel_names(action.selector, rule, registries, error)
        _check_test_names(rule.test, rule, registries, error)
        for call in rule.side_effects:
            _check_fun(call, rule, registries, error, side_effect=True)
        for eq in rule.constraints:
            refs = [eq.at] if isinstance(eq, Assign) else list(eq.at)
            for ref in refs:
                if isinstance(ref, Rhs) and (ref.category, ref.occurrence) not in positions:
                    error(f"constraint names constituent {ref} "
                          f"but the template has no such call",
                          rule.name, rule.line)
        if _optional_subtree_constrained(rule, grammar):
            warn("optional constituent leads to rules with constraints; "
                 "their inclusion follows the first derivation's context",
                 rule.name, rule.line)
    return out


def _check_fun(call: FunCall, rule: Rule, registries, error, side_effect: bool):
    if registries is None:
        return
    entry = registries.functions.get(call.name)
    if entry is None:
        error(f"unknown function {call.name!r}", rule.name, rule.line)
    elif side_effect and not entry.is_side_effect:
        error(f"function {call.name!r} has no undo callback and cannot "
              f"be used under :SIDE-EFFECTS", rule.name, rule.line)
    elif not side_effect and entry.is_side_effect:
        error(f"side effect {call.name!r} cannot appear in a template",
              rule.name, rule.line)


def _check_test_names(test: TestExpr, rule: Rule, registries, error):
    stack = [test]  # in pre-order, so errors come left to right
    while stack:
        test = stack.pop()
        if isinstance(test, CallPred):
            if registries is not None and registries.predicates.get(test.name) is None:
                error(f"unknown predicate {test.name!r}", rule.name, rule.line)
            for arg in test.args:
                _check_sel_names(arg, rule, registries, error)
        elif isinstance(test, (And, Or)):
            stack.extend(reversed(test.items))
        elif isinstance(test, Not):
            stack.append(test.item)


def _check_sel_names(sel, rule: Rule, registries, error):
    if isinstance(sel, CallSel):
        if registries is not None and registries.selectors.get(sel.name) is None:
            error(f"unknown selector {sel.name!r}", rule.name, rule.line)
        for arg in sel.args:
            _check_sel_names(arg, rule, registries, error)


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
