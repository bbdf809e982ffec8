"""Acceptance criteria, one test each; every test prints a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import io
import random
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from surfgen.cli import EXIT_OK, main
from surfgen.engine import ConstraintClash, FeatureGraph, LiteralTok, Obligation, Trail
from surfgen.gil import FeatureStructure, Sym, parse_gil
from surfgen.prefs import CriteriaSpec, Criterion, best_first_stream
from surfgen.session import GenerationSession
from surfgen.tgl import Registries, parse_grammar

from .grammars import build_registries, random_case
from .oracle import oracle_solutions
from .test_backtrack import AGREEMENT_GRAMMAR, TABLE_GRAMMAR
from .test_walkers import captured_points


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def regs():
    return Registries.standard()


def test_criterion_1_worked_example(demo_dir):
    grammar = str(demo_dir / "appointment.tgl")
    doc = str(demo_dir / "meeting.gil")
    started = time.perf_counter()
    code, out, _ = run_cli(["generate", "--grammar", grammar,
                            "--input", doc, "--max", "1"])
    elapsed = time.perf_counter() - started
    assert code == EXIT_OK
    assert out == "Prof. Zweig will Sie am Freitag treffen\n"
    code, out, _ = run_cli(["generate", "--grammar", grammar, "--input", doc,
                            "--start", "VP", "--max", "1"])
    assert code == EXIT_OK
    assert out == "Sie am Freitag treffen\n"
    assert elapsed < 0.1
    print(f"\nPASS criterion 1: worked example reproduced exactly "
          f"({elapsed * 1000:.1f} ms)")


def test_criterion_2_oracle_equivalence():
    registries = build_registries()
    started = time.perf_counter()
    checked = discrepancies = 0
    for seed in range(220):
        grammar, fs = random_case(seed)
        expected = Counter(oracle_solutions(grammar, fs, registries))
        session = GenerationSession(grammar, registries)
        got = Counter(s.text for s in session.solutions(fs))
        if got != expected:
            discrepancies += 1
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked >= 200
    assert discrepancies == 0
    assert elapsed < 60
    print(f"\nPASS criterion 2: {checked} randomized grammars, "
          f"0 discrepancies ({elapsed:.1f} s)")


def test_criterion_3_table_combinatorics(regs):
    session = GenerationSession(parse_grammar(TABLE_GRAMMAR), regs)
    sols = [s.text for s in session.solutions(FeatureStructure())]
    assert len(sols) == 4
    first = "s1 s21 s3 s51 s61 s71 s8"
    assert sols[0] == first
    assert sols[1] == first.replace(" s61 ", " s62 ")  # only the ego differs
    assert Counter(sols) == Counter([
        "s1 s21 s3 s51 s61 s71 s8",
        "s1 s21 s3 s51 s62 s71 s8",
        "s1 s22 s3 s51 s61 s71 s8",
        "s1 s22 s3 s51 s62 s71 s8",
    ])
    points = {p.id: p for p in captured_points(session)}
    assert len(points[1].variants) == 2
    assert len(points[2].variants) == 1
    assert points[3].parent is points[2].variants[0]
    assert len(points[3].variants) == 2
    print("\nPASS criterion 3: nested-table shape yields exactly 4 solutions "
          "in the worked order")


def test_criterion_4_reuse_bound(regs):
    session = GenerationSession(parse_grammar(TABLE_GRAMMAR), regs)
    stream = session.solutions(FeatureStructure())
    next(stream)
    fired_after_first = dict(session.stats.fired_by_rule)
    remaining = list(stream)
    assert len(remaining) == 3
    # expansions fired exactly the alternative egos, nothing else again
    total = session.stats.fired_by_rule
    delta = {name: total[name] - fired_after_first.get(name, 0)
             for name in total if total[name] != fired_after_first.get(name, 0)}
    assert delta == {"a2": 1, "b2": 1, "c2": 1}
    assert all(count == 1 for count in total.values())

    memoized = GenerationSession(parse_grammar(TABLE_GRAMMAR), regs)
    with_memo = Counter(s.text for s in memoized.solutions(FeatureStructure()))
    plain = GenerationSession(parse_grammar(TABLE_GRAMMAR), regs, use_memo=False)
    without = Counter(s.text for s in plain.solutions(FeatureStructure()))
    assert with_memo == without
    assert plain.stats.rules_fired >= memoized.stats.rules_fired
    print("\nPASS criterion 4: expansions fired only new-ego rules; "
          "memo off preserves the solution set")


def test_criterion_5_constraint_semantics(regs):
    # overwrite attempts fail the rule
    g = parse_grammar(
        '(DEFPRODUCTION "t" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE "x"'
        ' :CONSTRAINTS (F LHS :VAL one) (F LHS :VAL two))))'
    )
    session = GenerationSession(g, regs)
    assert list(session.solutions(FeatureStructure())) == []
    assert len(session.trail) == 0 and session.graph.is_empty()

    # randomized constraint sets: clash iff a class collects two atoms,
    # checked against a brute-force closure; undo restores exactly
    rng = random.Random(11)
    for _ in range(300):
        ops = []
        for _ in range(rng.randint(1, 10)):
            if rng.random() < 0.5:
                ops.append(Obligation(((rng.randint(1, 4), "F"),),
                                      Sym(rng.choice("ab"))))
            else:
                ops.append(Obligation(((rng.randint(1, 4), "F"),
                                       (rng.randint(1, 4), "F"))))
        trail = Trail()
        graph = FeatureGraph(trail)
        base = trail.mark()
        clashed = False
        try:
            for op in ops:
                graph.impose(op)
        except ConstraintClash:
            clashed = True
        # independent check: transitive closure of equates up to the clash
        assert clashed == _inconsistent(ops), ops
        trail.undo_to(base)
        assert graph.is_empty() and len(trail) == 0

    # after exhausting all solutions the state equals the initial state
    registries = build_registries()
    for seed in range(0, 60, 7):
        grammar, fs = random_case(seed)
        session = GenerationSession(grammar, registries)
        list(session.solutions(fs))
        assert len(session.trail) == 0
        assert session.graph.is_empty()
        assert session.memory == {}
    print("\nPASS criterion 5: overwrites fail rules; state restored after "
          "exhaustion (300 randomized constraint sets)")


def _inconsistent(ops) -> bool:
    """Brute-force reference: union everything, then look for a class with
    two different atoms."""
    parent: dict = {}

    def find(x):
        while x in parent:
            x = parent[x]
        return x

    values: dict = {}
    for op in ops:
        if op.atom is None:
            a, b = (find(s) for s in op.slots)
            if a != b:
                parent[a] = b
    for op in ops:
        if op.atom is not None:
            root = find(op.slots[0])
            values.setdefault(root, set()).add(op.atom)
    return any(len(v) > 1 for v in values.values())


def test_criterion_6_inflection_recomputation(regs):
    fs = parse_gil("[(SUBJ [(NOUN appointment)]) (PRED fit)]")
    session = GenerationSession(parse_grammar(AGREEMENT_GRAMMAR), regs)
    sols = list(session.solutions(fs))
    assert [s.text for s in sols] == ["der Termin passt heute",
                                      "die Termine passen heute"]
    assert session.stats.re_realizations == 1  # the verb outside the ego
    lit_a = [c for c in sols[0].derivation.children if isinstance(c, LiteralTok)]
    lit_b = [c for c in sols[1].derivation.children if isinstance(c, LiteralTok)]
    assert lit_a and all(x is y for x, y in zip(lit_a, lit_b))
    print("\nPASS criterion 6: flipped agreement re-inflects exactly the "
          "hooked form; literals reused verbatim")


def test_criterion_7_best_first_ordering(demo_dir, regs):
    grammar = parse_grammar((demo_dir / "voice.tgl").read_text("utf-8"))
    fs = parse_gil((demo_dir / "report.gil").read_text("utf-8"))

    spec = CriteriaSpec((Criterion("s-passive"),))
    sols = list(best_first_stream(grammar, fs, spec, registries=regs))
    fulfilled = ["s-passive" in s.derivation.rule_names() for s in sols]
    assert fulfilled == [True] * 4 + [False] * 4

    weighted = CriteriaSpec((Criterion("s-passive", Fraction(2)),
                             Criterion("np-demonstrative", Fraction(3))))
    by_text = {s.text: s.weight for s in
               best_first_stream(grammar, fs, weighted, registries=regs)}
    hand = {
        "Der Bericht wird von dem Professor geprüft": Fraction(2),
        "Der Bericht wird von diesem Professor geprüft": Fraction(5),
        "Dieser Bericht wird von dem Professor geprüft": Fraction(5),
        "Dieser Bericht wird von diesem Professor geprüft": Fraction(5),
        "Der Professor prüft den Bericht": Fraction(0),
        "Der Professor prüft diesen Bericht": Fraction(3),
        "Dieser Professor prüft den Bericht": Fraction(3),
        "Dieser Professor prüft diesen Bericht": Fraction(3),
    }
    assert by_text == hand
    print("\nPASS criterion 7: criterion-fulfilling solutions first; weights "
          "match hand computation")


LONG_GRAMMAR = """
(DEFPRODUCTION "reminder"
  (:PRECOND (:CAT TXT :TEST ((TRUE)))
   :ACTIONS (:TEMPLATE "zur Erinnerung:" (:RULE DAY (SELF)) "um"
                       (:RULE HOUR (SELF)) "Uhr findet die Besprechung"
                       (:RULE ROOM (SELF)) "statt, bitte bestätigen Sie"
                       (:RULE TAIL (SELF)))))
(DEFPRODUCTION "day-mo" (:PRECOND (:CAT DAY :TEST ((TRUE)))
  :ACTIONS (:TEMPLATE "am Montag")))
(DEFPRODUCTION "day-di" (:PRECOND (:CAT DAY :TEST ((TRUE)))
  :ACTIONS (:TEMPLATE "am Dienstag")))
(DEFPRODUCTION "hour-10" (:PRECOND (:CAT HOUR :TEST ((TRUE)))
  :ACTIONS (:TEMPLATE "zehn")))
(DEFPRODUCTION "hour-11" (:PRECOND (:CAT HOUR :TEST ((TRUE)))
  :ACTIONS (:TEMPLATE "elf")))
(DEFPRODUCTION "room-big" (:PRECOND (:CAT ROOM :TEST ((TRUE)))
  :ACTIONS (:TEMPLATE "im großen Saal")))
(DEFPRODUCTION "room-small" (:PRECOND (:CAT ROOM :TEST ((TRUE)))
  :ACTIONS (:TEMPLATE "im kleinen Saal")))
(DEFPRODUCTION "tail-soon" (:PRECOND (:CAT TAIL :TEST ((TRUE)))
  :ACTIONS (:TEMPLATE "die Teilnahme rechtzeitig")))
(DEFPRODUCTION "tail-today" (:PRECOND (:CAT TAIL :TEST ((TRUE)))
  :ACTIONS (:TEMPLATE "die Teilnahme noch heute")))
"""


def test_criterion_8_performance(regs):
    grammar = parse_grammar(LONG_GRAMMAR)
    started = time.perf_counter()
    first = GenerationSession(grammar, regs).first(FeatureStructure())
    first_elapsed = time.perf_counter() - started
    words = first.text.split()
    assert 10 <= len(words) <= 20
    assert first_elapsed < 0.1

    started = time.perf_counter()
    sols = list(GenerationSession(grammar, regs).solutions(FeatureStructure()))
    full_elapsed = time.perf_counter() - started
    assert len(sols) == 16 <= 100
    assert len(set(s.text for s in sols)) == 16
    assert full_elapsed < 1.0
    print(f"\nPASS criterion 8: first of {len(words)} words in "
          f"{first_elapsed * 1000:.1f} ms; all {len(sols)} solutions in "
          f"{full_elapsed * 1000:.1f} ms")
