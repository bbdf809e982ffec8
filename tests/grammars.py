"""Randomized grammar/input pairs for the enumeration equivalence suite.

Grammars are generated as concrete text (stressing the reader as well) and
kept within desk scale: category layers give an acyclic backbone of depth
at most 8, conflict sets stay at 4 or below, constraints are free-form on
the backbone.  Optional constituents point only at constraint-free
categories, mirroring their intended material-driven use; whether they
contribute is decided by the input, not by agreement interactions.
"""

from __future__ import annotations

import random
from collections import Counter

from surfgen.morpho import FunctionRegistry, default_lexicon, standard_functions
from surfgen.tgl import Registries, Registry, parse_grammar

FEATURES = ("F", "G", "H")
VALUES = ("v1", "v2", "v3")
ATTRS = ("A0", "A1", "A2", "A3")


def build_registries() -> Registries:
    """Standard registries plus a feature-sensitive marker word form."""
    functions = standard_functions(default_lexicon())

    def mark(args, features):
        base = str(args[0]) if args else "m"
        bound = ",".join(f"{k}={v}" for k, v in sorted(features.items()))
        return f"{base}({bound})" if bound else base

    functions.register_function("mark", mark, features=FEATURES)
    return Registries(Registry("predicate"), Registry("selector"), functions)


def counting_functions(base: FunctionRegistry) -> tuple[FunctionRegistry, Counter]:
    """A registry of base's functions whose word-form functions count their
    runs, by name, in the returned counter."""
    functions, runs = FunctionRegistry(), Counter()

    def counted(name, fn):
        def run(args, features):
            runs[name] += 1
            return fn(args, features)
        return run

    for name in base.names():
        entry = base.get(name)
        fn = entry.fn if entry.is_side_effect else counted(name, entry.fn)
        functions.register_function(name, fn, features=entry.features,
                                    undo=entry.undo)
    return functions, runs


def random_input(rng: random.Random, depth: int = 0) -> str:
    pairs = []
    for attr in ATTRS:
        roll = rng.random()
        if roll < 0.35:
            continue
        if roll < 0.75 or depth >= 2:
            pairs.append(f"({attr} {rng.choice(VALUES)})")
        else:
            pairs.append(f"({attr} {random_input(rng, depth + 1)})")
    return "[" + " ".join(pairs) + "]"


def _random_test(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.6:
        return "(TRUE)"
    attr = rng.choice(ATTRS)
    if roll < 0.8:
        return f"(EXISTS {attr})"
    return f"(EQ {attr} {rng.choice(VALUES)})"


def _random_selector(rng: random.Random) -> str:
    if rng.random() < 0.4:
        return "(SELF)"
    return f"(PATH {rng.choice(ATTRS)})"


def random_grammar(rng: random.Random) -> str:
    """One grammar: TXT plus layered categories plus plain leaf categories."""
    layers = rng.randint(2, 4)
    cats = [f"C{i}" for i in range(layers)]
    plain = ["P0", "P1"]
    lines = []
    word = iter(f"w{i}" for i in range(999))

    def callable_cats(layer: int) -> list[str]:
        return cats[layer + 1:]

    def rule_body(layer: int) -> tuple[str, str]:
        actions = []
        calls = []  # (category, occurrence) for constraint targets
        seen: dict[str, int] = {}
        n_actions = rng.randint(1, 3)
        for _ in range(n_actions):
            roll = rng.random()
            deeper = callable_cats(layer)
            if roll < 0.45 or not deeper:
                actions.append(f'"{next(word)}"')
            elif roll < 0.75:
                cat = rng.choice(deeper)
                actions.append(f"(:RULE {cat} {_random_selector(rng)})")
                seen[cat] = seen.get(cat, 0) + 1
                calls.append((cat, seen[cat]))
            elif roll < 0.9:
                cat = rng.choice(plain)
                actions.append(f"(:OPTRULE {cat} {_random_selector(rng)})")
                seen[cat] = seen.get(cat, 0) + 1
            else:
                actions.append(f'(:FUN (mark {next(word)}))')
        if not actions:
            actions.append(f'"{next(word)}"')
        constraints = []
        for _ in range(rng.randint(0, 2)):
            feature = rng.choice(FEATURES)
            target = rng.choice(["LHS"] + [f"({c} {k})" for c, k in calls]) \
                if calls else "LHS"
            if rng.random() < 0.7:
                constraints.append(
                    f"({feature} {target} :VAL {rng.choice(VALUES)})")
            elif calls:
                other = rng.choice([f"({c} {k})" for c, k in calls])
                if other != target:
                    constraints.append(f"({feature} {target} {other})")
        body = " ".join(actions)
        if constraints:
            body += " :CONSTRAINTS " + " ".join(constraints)
        return body, ""

    name = iter(f"r{i}" for i in range(999))

    def emit(cat: str, layer: int, n_rules: int) -> None:
        for _ in range(n_rules):
            body, _extra = rule_body(layer)
            lines.append(
                f'(DEFPRODUCTION "{next(name)}" (:PRECOND (:CAT {cat} '
                f":TEST ({_random_test(rng)})) :ACTIONS (:TEMPLATE {body})))"
            )

    top_calls = " ".join(
        f"(:RULE {cat} (SELF))" for cat in rng.sample(cats, rng.randint(1, 2))
    )
    lines.append(
        f'(DEFPRODUCTION "top" (:PRECOND (:CAT TXT :TEST ((TRUE))) '
        f":ACTIONS (:TEMPLATE {top_calls})))"
    )
    for layer, cat in enumerate(cats):
        emit(cat, layer, rng.randint(1, 4))
    # plain categories: no constraints, literal or marker bodies only
    for cat in plain:
        for _ in range(rng.randint(1, 2)):
            body = f'"{next(word)}"' if rng.random() < 0.6 \
                else f"(:FUN (mark {next(word)}))"
            lines.append(
                f'(DEFPRODUCTION "{next(name)}" (:PRECOND (:CAT {cat} '
                f":TEST ({_random_test(rng)})) :ACTIONS (:TEMPLATE {body})))"
            )
    return "\n".join(lines)


def random_case(seed: int):
    rng = random.Random(seed)
    grammar = parse_grammar(random_grammar(rng))
    from surfgen.gil import parse_gil

    input_fs = parse_gil(random_input(rng))
    return grammar, input_fs


def _hard_selector(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.35:
        return "(SELF)"
    if roll < 0.8:
        return f"(PATH {rng.choice(ATTRS)})"
    return f"(PATH {rng.choice(ATTRS)}.{rng.choice(ATTRS)})"


def _hard_test(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.5:
        return "(TRUE)"
    if roll < 0.7:
        return f"(EXISTS {rng.choice(ATTRS)})"
    if roll < 0.85:
        return f"(EQ {rng.choice(ATTRS)} {rng.choice(VALUES)})"
    return f"(NOT (EXISTS {rng.choice(ATTRS)}))"


def hard_grammar(rng: random.Random) -> str:
    """Meaner variant: deeper layers, three-way equations, side effects."""
    layers = rng.randint(3, 5)
    cats = [f"C{i}" for i in range(layers)]
    plain = ["P0", "P1"]
    lines = []
    names = iter(f"r{i}" for i in range(999))
    word = iter(f"w{i}" for i in range(999))

    def body(layer: int) -> str:
        actions, calls, seen = [], [], {}
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            deeper = cats[layer + 1:]
            if roll < 0.35 or not deeper:
                actions.append(f'"{next(word)}"')
            elif roll < 0.70:
                cat = rng.choice(deeper)
                actions.append(f"(:RULE {cat} {_hard_selector(rng)})")
                seen[cat] = seen.get(cat, 0) + 1
                calls.append((cat, seen[cat]))
            elif roll < 0.85:
                actions.append(f"(:OPTRULE {rng.choice(plain)} "
                               f"{_hard_selector(rng)})")
            else:
                actions.append(f"(:FUN (mark {next(word)}))")
        constraints = []
        for _ in range(rng.randint(0, 3)):
            feature = rng.choice(FEATURES)
            refs = ["LHS"] + [f"({c} {k})" for c, k in calls]
            if rng.random() < 0.55:
                constraints.append(
                    f"({feature} {rng.choice(refs)} :VAL {rng.choice(VALUES)})")
            elif len(refs) >= 2:
                pick = rng.sample(refs, min(len(refs), rng.choice([2, 2, 3])))
                if len(pick) >= 2:
                    constraints.append(f"({feature} {' '.join(pick)})")
        out = " ".join(actions)
        if rng.random() < 0.25:
            out += " :SIDE-EFFECTS ((note tick))"
        if constraints:
            out += " :CONSTRAINTS " + " ".join(constraints)
        return out

    top_calls = " ".join(
        f"(:RULE {cat} (SELF))" for cat in rng.sample(cats, rng.randint(1, 2)))
    lines.append(f'(DEFPRODUCTION "top" (:PRECOND (:CAT TXT :TEST ((TRUE))) '
                 f":ACTIONS (:TEMPLATE {top_calls})))")
    for layer, cat in enumerate(cats):
        for _ in range(rng.randint(1, 4)):
            lines.append(
                f'(DEFPRODUCTION "{next(names)}" (:PRECOND (:CAT {cat} '
                f":TEST ({_hard_test(rng)})) "
                f":ACTIONS (:TEMPLATE {body(layer)})))")
    for cat in plain:
        for _ in range(rng.randint(1, 3)):
            leaf = f'"{next(word)}"' if rng.random() < 0.5 \
                else f"(:FUN (mark {next(word)}))"
            lines.append(
                f'(DEFPRODUCTION "{next(names)}" (:PRECOND (:CAT {cat} '
                f":TEST ({_hard_test(rng)})) :ACTIONS (:TEMPLATE {leaf})))")
    return "\n".join(lines)


def hard_input(rng: random.Random) -> str:
    """Inputs that sometimes share a node between two attributes."""
    def struct(depth: int) -> str:
        pairs = []
        for attr in ATTRS:
            roll = rng.random()
            if roll < 0.35:
                continue
            if roll < 0.7 or depth >= 2:
                pairs.append(f"({attr} {rng.choice(VALUES)})")
            else:
                pairs.append(f"({attr} {struct(depth + 1)})")
        return "[" + " ".join(pairs) + "]"

    if rng.random() < 0.4:
        return f"[(A0 #1= {struct(1)}) (A1 #1) (A2 {rng.choice(VALUES)})]"
    return struct(0)


def hard_case(seed: int):
    rng = random.Random(seed)
    grammar = parse_grammar(hard_grammar(rng))
    from surfgen.gil import parse_gil

    input_fs = parse_gil(hard_input(rng))
    return grammar, input_fs


# A right-recursive list: one derivation level per item.
LIST_GRAMMAR = """
(DEFPRODUCTION "more"
  (:PRECOND (:CAT TXT :TEST ((EXISTS REST)))
   :ACTIONS (:TEMPLATE (:FUN (string (PATH NO))) (:RULE TXT (PATH REST)))))
(DEFPRODUCTION "last"
  (:PRECOND (:CAT TXT :TEST ((NOT (EXISTS REST))))
   :ACTIONS (:TEMPLATE (:FUN (string (PATH NO))))))
"""


def list_gil(n: int) -> str:
    """GIL text of an n-item list for LIST_GRAMMAR, realized as "1 2 ... n"."""
    body = ""
    for k in range(n, 0, -1):
        body = f"[(NO {k})" + (f" (REST {body})" if body else "") + "]"
    return body


def flat_grammar(points: int) -> str:
    """perfbench's wide grammar in small: W<i> holds a two-way choice C<i>
    and, outside it, the verb agreeing with it in number."""
    return "\n".join(
        [f'(DEFPRODUCTION "top" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
         f' :ACTIONS (:TEMPLATE'
         f' {" ".join(f"(:RULE W{i} (SELF))" for i in range(points))})))']
        + [f'(DEFPRODUCTION "w{i}" (:PRECOND (:CAT W{i} :TEST ((TRUE)))'
           f' :ACTIONS (:TEMPLATE (:RULE C{i} (SELF)) (:FUN (verb fit))'
           f' :CONSTRAINTS (NUM LHS (C{i})) (TENSE LHS :VAL pres)'
           f' (PERSON LHS :VAL 3))))'
           for i in range(points)]
        + [f'(DEFPRODUCTION "c{i}-{alt}" (:PRECOND (:CAT C{i} :TEST ((TRUE)))'
           f' :ACTIONS (:TEMPLATE "{alt}{i}" :CONSTRAINTS (NUM LHS :VAL {alt}))))'
           for i in range(points) for alt in ("sg", "pl")])


# Three choices X<i>, each holding in both its variants a choice Y<i>.  The
# verb of S<i>, outside X<i>'s ego, agrees in number with Y<i> through
# X<i>; the marker of X<i>'s second variant, outside Y<i>'s ego, agrees
# with it in F.
NESTED_GRAMMAR = "\n".join(
    ['(DEFPRODUCTION "top" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
     ' :ACTIONS (:TEMPLATE (:RULE S1 (SELF)) "and" (:RULE S2 (SELF))'
     ' (:RULE S3 (SELF)))))']
    + [line for i in (1, 2, 3) for line in (
        f'(DEFPRODUCTION "s{i}" (:PRECOND (:CAT S{i} :TEST ((TRUE)))'
        f' :ACTIONS (:TEMPLATE (:RULE X{i} (SELF)) (:FUN (verb fit))'
        f' :CONSTRAINTS (NUM LHS (X{i})) (TENSE LHS :VAL pres)'
        f' (PERSON LHS :VAL 3))))',
        f'(DEFPRODUCTION "x{i}-a" (:PRECOND (:CAT X{i} :TEST ((TRUE)))'
        f' :ACTIONS (:TEMPLATE "a{i}" (:RULE Y{i} (SELF))'
        f' :CONSTRAINTS (NUM LHS (Y{i})))))',
        f'(DEFPRODUCTION "x{i}-b" (:PRECOND (:CAT X{i} :TEST ((TRUE)))'
        f' :ACTIONS (:TEMPLATE (:RULE Y{i} (SELF)) (:FUN (mark b{i}))'
        f' :CONSTRAINTS (NUM LHS (Y{i})) (F LHS (Y{i})))))',
        f'(DEFPRODUCTION "y{i}-sg" (:PRECOND (:CAT Y{i} :TEST ((TRUE)))'
        f' :ACTIONS (:TEMPLATE "sg{i}" :CONSTRAINTS (NUM LHS :VAL sg)'
        f' (F LHS :VAL v1))))',
        f'(DEFPRODUCTION "y{i}-pl" (:PRECOND (:CAT Y{i} :TEST ((TRUE)))'
        f' :ACTIONS (:TEMPLATE "pl{i}" :CONSTRAINTS (NUM LHS :VAL pl)'
        f' (F LHS :VAL v2))))')])

# A and B must agree in number, C and D in F, so 52 of 72 combinations are
# filtered; the verb and the marker in the root layer follow them.
FILTERED_GRAMMAR = "\n".join(
    ['(DEFPRODUCTION "top" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
     ' :ACTIONS (:TEMPLATE (:RULE A (SELF)) (:RULE B (SELF)) (:FUN (verb fit))'
     ' (:RULE C (SELF)) (:RULE E (SELF)) (:RULE D (SELF)) (:FUN (mark z))'
     ' :CONSTRAINTS (NUM LHS (A) (B)) (TENSE LHS :VAL pres)'
     ' (PERSON LHS :VAL 3) (F LHS (C) (D)))))']
    + [f'(DEFPRODUCTION "{cat.lower()}-{alt}" (:PRECOND (:CAT {cat}'
       f' :TEST ((TRUE))) :ACTIONS (:TEMPLATE "{cat.lower()}{alt}"'
       f' :CONSTRAINTS (NUM LHS :VAL {alt}))))'
       for cat in "AB" for alt in ("sg", "pl")]
    + [f'(DEFPRODUCTION "c-{v}" (:PRECOND (:CAT C :TEST ((TRUE)))'
       f' :ACTIONS (:TEMPLATE "c{v}" :CONSTRAINTS (F LHS :VAL {v}))))'
       for v in VALUES]
    + [f'(DEFPRODUCTION "d-{v}" (:PRECOND (:CAT D :TEST ((TRUE)))'
       f' :ACTIONS (:TEMPLATE "d{v}" :CONSTRAINTS (F LHS :VAL {v}))))'
       for v in VALUES[:2]]
    + ['(DEFPRODUCTION "d-any" (:PRECOND (:CAT D :TEST ((TRUE)))'
       ' :ACTIONS (:TEMPLATE "dx")))']
    + [f'(DEFPRODUCTION "e-{k}" (:PRECOND (:CAT E :TEST ((TRUE)))'
       f' :ACTIONS (:TEMPLATE "e{k}")))' for k in (1, 2)])
