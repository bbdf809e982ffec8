import random
from collections import Counter
from fractions import Fraction

import pytest

from surfgen import prefs
from surfgen.backtrack import BTTable
from surfgen.gil import FeatureStructure, parse_gil
from surfgen.prefs import (
    CriteriaError,
    CriteriaSpec,
    Criterion,
    best_first_stream,
    choose_backtrack_point,
    make_session,
    order_conflict_set,
    parse_criteria,
    rank_solutions,
    solution_weight,
    _point_rank,
)
from surfgen.session import GenerationSession, ResolvedNode
from surfgen.tgl import Registries, parse_grammar

from .grammars import build_registries, hard_case, random_case
from .test_walkers import captured_points


@pytest.fixture(scope="module")
def regs():
    return Registries.standard()


@pytest.fixture(scope="module")
def voice(demo_dir):
    return parse_grammar((demo_dir / "voice.tgl").read_text(encoding="utf-8"))


@pytest.fixture()
def report_fs(demo_dir):
    return parse_gil((demo_dir / "report.gil").read_text(encoding="utf-8"))


def _rules(names):
    g = parse_grammar("".join(
        f'(DEFPRODUCTION "{n}" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
        f' :ACTIONS (:TEMPLATE "w")))\n' for n in names))
    return g.rules


# --- conflict-set ordering -----------------------------------------------------

def test_order_moves_c_rule_first():
    r1, r2, r3 = _rules(["r1", "r2", "r3"])
    spec = CriteriaSpec((Criterion("r2"),))
    assert [r.name for r in order_conflict_set([r1, r2, r3], spec)] \
        == ["r2", "r1", "r3"]


def test_order_empty_spec_is_identity():
    rules = _rules(["a", "b", "c"])
    assert order_conflict_set(rules, CriteriaSpec()) == rules


def test_order_by_descending_weight():
    # oracle: the stated sort key is (-weight, source order)
    w1, w3, other = _rules(["w1", "w3", "other"])
    spec = CriteriaSpec((Criterion("w1", Fraction(1)), Criterion("w3", Fraction(3))))
    ordered = order_conflict_set([w1, w3, other], spec)
    assert [r.name for r in ordered] == ["w3", "w1", "other"]


def test_order_is_stable_partition():
    rules = _rules(["a", "b", "c", "d"])
    spec = CriteriaSpec((Criterion("b"), Criterion("d")))
    ordered = order_conflict_set(rules, spec)
    assert [r.name for r in ordered] == ["b", "d", "a", "c"]
    assert sorted(r.name for r in ordered) == sorted(r.name for r in rules)


# --- backtrack-point choice ----------------------------------------------------

def _add_point(table, names):
    """Record and add a point whose remainder holds rules of these names."""
    point = table.record("X", FeatureStructure(), 0, _rules(names), None)
    table.add(point)
    return point


def _table(spec, *remainders):
    """A table indexed as spec's sessions index theirs, holding one point
    per remainder, created in that order (the last is the newest)."""
    table = BTTable(spec.point_rank)
    return table, [_add_point(table, names) for names in remainders]


def test_choose_prefers_c_rule_remainder():
    spec = CriteriaSpec((Criterion("crule"),))
    table, (_, p2) = _table(spec, ["plain"], ["crule"])
    assert choose_backtrack_point(table, spec) is p2
    table, (p1, _) = _table(spec, ["crule"], ["plain"])
    assert choose_backtrack_point(table, spec) is p1


def test_choose_without_criteria_is_deepest_first():
    table, (_, p2) = _table(CriteriaSpec(), ["a"], ["b"])
    assert choose_backtrack_point(table, CriteriaSpec()) is p2


def test_choose_exhausted():
    assert choose_backtrack_point(BTTable(), CriteriaSpec()) is None
    spec = CriteriaSpec((Criterion("a"),))
    table, (p1,) = _table(spec, ["a"])
    del p1.remainder[0]
    assert choose_backtrack_point(table, spec) is None


def test_choose_rejects_a_table_ranked_otherwise():
    """A table not indexed by the spec's rank fails loudly instead of
    handing out its newest point."""
    spec = CriteriaSpec((Criterion("crule"),))
    table = BTTable()
    _add_point(table, ["crule"])
    _add_point(table, ["plain"])
    with pytest.raises(ValueError):
        choose_backtrack_point(table, spec)
    ranked, _ = _table(spec, ["crule"])
    with pytest.raises(ValueError):
        choose_backtrack_point(ranked, CriteriaSpec())
    other = CriteriaSpec((Criterion("crule"),), mode="weight-ranked")
    with pytest.raises(ValueError):
        choose_backtrack_point(ranked, other)


def test_choose_weight_ranked_picks_heaviest():
    spec = CriteriaSpec((Criterion("light", Fraction(1)),
                         Criterion("heavy", Fraction(5))), mode="weight-ranked")
    # the heavier point wins though the lighter one is newer
    table, (heavy, _) = _table(spec, ["heavy"], ["light"])
    assert choose_backtrack_point(table, spec) is heavy


def ref_choose(open_points, spec):
    """The choice as first written: two lookups per remainder rule, over
    the open points, most recently created first."""
    if not open_points:
        return None
    if spec.criteria:
        best = None
        for point in open_points:
            weights = [spec.weight_of(r.name) for r in point.remainder
                       if spec.is_c_rule(r.name)]
            if not weights:
                continue
            if spec.mode == "first-solution-bias":
                return point
            if best is None or max(weights) > best[0]:
                best = (max(weights), point)
        if best is not None:
            return best[1]
    return open_points[0]


def _open_points(points):
    """The open points of a creation-ordered list, newest first."""
    return [p for p in reversed(points) if p.remainder]


@pytest.mark.parametrize("mode", ["first-solution-bias", "weight-ranked"])
def test_choose_matches_reference_ties_included(mode):
    """The index gives the reference's choice, also after remainders shrink
    under it, one rule at a time."""
    rng = random.Random(mode)
    names = [f"r{i}" for i in range(8)]
    for _ in range(300):
        # few distinct weights, so ties between points are common
        spec = CriteriaSpec(tuple(Criterion(n, Fraction(rng.choice((1, 2, 2))))
                                  for n in rng.sample(names, rng.randint(0, 4))),
                            mode)
        table, points = _table(spec, *(rng.sample(names, rng.randint(0, 3))
                                       for _ in range(rng.randint(0, 6))))
        while True:
            got = choose_backtrack_point(table, spec)
            assert got is ref_choose(_open_points(points), spec)
            if got is None:
                break
            shrunk = rng.choice(_open_points(points))
            del shrunk.remainder[rng.randrange(len(shrunk.remainder))]


SPECS = ("none", "first-solution-bias", "weight-ranked")


@pytest.mark.parametrize("mode", SPECS)
def test_indexed_choice_matches_reference_in_sessions(mode, monkeypatch):
    """On real sessions, whose remainders shrink and which gain points as
    expansions capture new egos, every choice is the reference's over the
    open points of the moment."""
    rng = random.Random(mode)
    chosen = gained = 0

    def checked(table, spec):
        nonlocal chosen
        got = choose_backtrack_point(table, spec)
        assert got is ref_choose(_open_points(captured_points(session)), spec)
        chosen += 1
        return got

    monkeypatch.setattr(prefs, "choose_backtrack_point", checked)
    for seed in range(200):
        grammar, fs = (random_case if seed % 2 else hard_case)(seed)
        names = [rule.name for rule in grammar.rules]
        spec = CriteriaSpec() if mode == "none" else CriteriaSpec(
            tuple(Criterion(n, Fraction(rng.choice((1, 2, 2))))
                  for n in rng.sample(names, min(len(names), rng.randint(1, 4)))),
            mode)
        session = make_session(grammar, spec, registries=build_registries())
        stream = session.solutions(fs)
        if next(stream, None) is None:
            continue
        before = len(captured_points(session))
        for _ in stream:
            pass
        gained += len(captured_points(session)) > before
    assert chosen > 300 and gained > 8


def test_choice_cost_follows_expansions_not_width(regs):
    """16 further solutions of a wide session look up criteria weights in
    proportion to the points they expand, the same at 16 and 512 points:
    the choice reads the index, not every open point."""
    lookups, expanded = {}, {}
    for n in (16, 512):
        grammar = parse_grammar("".join(
            [f'(DEFPRODUCTION "top" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
             f' :ACTIONS (:TEMPLATE {" ".join(f"(:RULE X{i} (SELF))" for i in range(n))})))\n']
            + [f'(DEFPRODUCTION "x{i}-{alt}" (:PRECOND (:CAT X{i} :TEST ((TRUE)))'
               f' :ACTIONS (:TEMPLATE "{alt}{i}")))\n'
               for i in range(n) for alt in "abc"]))
        # three alternatives, all weighed: remainders shrink without emptying
        spec = CriteriaSpec(tuple(Criterion(f"x{i}-{alt}", Fraction(w))
                                  for i in range(n) for alt, w in zip("abc", (3, 2, 1))),
                            "weight-ranked")
        weights = _CountingDict(spec.weights)
        object.__setattr__(spec, "weights", weights)
        object.__setattr__(spec, "point_rank", _point_rank(weights, spec.mode))
        session = make_session(grammar, spec, registries=regs)
        stream = session.solutions(FeatureStructure())
        next(stream)
        weights.lookups = 0
        before = session.stats.bt_expansions
        for _ in range(16):
            next(stream)
        lookups[n] = weights.lookups
        expanded[n] = session.stats.bt_expansions - before
        stream.close()
    assert lookups[512] == lookups[16]
    assert 0 < lookups[512] <= 3 * expanded[512]


@pytest.mark.parametrize("mode", ["first-solution-bias", "weight-ranked"])
def test_spec_gains_no_attribute_once_made(mode, regs):
    """The weights, scaled weights and point rank a session reads are made
    with the spec, so no key is added to its instance __dict__ afterwards:
    on CPython 3.11 such a write slows every later attribute read of it."""
    grammar = parse_grammar("".join(
        f'(DEFPRODUCTION "{name}" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
        f' :ACTIONS (:TEMPLATE "{name}")))\n' for name in ("a", "b", "c")))
    spec = CriteriaSpec((Criterion("b", Fraction(3, 2)), Criterion("c")), mode)
    keys = list(vars(spec))
    session = make_session(grammar, spec, registries=regs)
    texts = [s.text for s in session.solutions(FeatureStructure())]
    assert sorted(texts) == ["a", "b", "c"] and texts[0] == "b"
    assert solution_weight(Counter(["b", "c"]), spec) == Fraction(5, 2)
    assert list(vars(spec)) == keys


class _CountingDict(dict):
    """A dict that counts its lookups."""

    lookups = 0

    def get(self, key, default=None):
        self.lookups += 1
        return super().get(key, default)

    def __contains__(self, key):
        self.lookups += 1
        return super().__contains__(key)


# --- weights ---------------------------------------------------------------------

def _derivation(*names):
    node = None
    for name in reversed(names):
        node = ResolvedNode(name, "X", (node,) if node else ())
    return node


def test_weight_single_application():
    spec = CriteriaSpec((Criterion("c", Fraction(1)),))
    assert solution_weight(Counter(_derivation("c").rule_names()), spec) == 1


def test_weight_repeated_application_counts_once():
    # w=2 applied twice: two contributions of 2/2
    spec = CriteriaSpec((Criterion("c", Fraction(2)),))
    deriv = ResolvedNode("top", "T",
                         (_derivation("c"), _derivation("c")))
    assert solution_weight(Counter(deriv.rule_names()), spec) == 2


def test_weight_mixed_hand_computed():
    # hand evaluation of the adopted formula: 2 (once) + 3 (three times) = 5
    spec = CriteriaSpec((Criterion("a", Fraction(2)), Criterion("b", Fraction(3))))
    deriv = ResolvedNode("top", "T", (
        _derivation("a"), _derivation("b"), _derivation("b"), _derivation("b")))
    assert solution_weight(Counter(deriv.rule_names()), spec) == 5


def test_weight_alternative_formula():
    spec = CriteriaSpec((Criterion("a", Fraction(2)), Criterion("b", Fraction(3))),
                        weight_formula="per-distinct")
    deriv = ResolvedNode("top", "T", (
        _derivation("a"), _derivation("b"), _derivation("b"), _derivation("b")))
    assert solution_weight(Counter(deriv.rule_names()), spec) \
        == Fraction(2) + Fraction(3, 3)


def test_weight_per_occurrence_matches_fraction_sum():
    rng = random.Random(7)
    names = [f"c{i}" for i in range(20)]
    for _ in range(200):
        spec = CriteriaSpec(tuple(
            Criterion(n, Fraction(rng.randint(0, 12), rng.choice((1, 2, 3, 4, 6, 7))))
            for n in rng.sample(names, rng.randint(0, 20))))
        counts = Counter({n: rng.randint(0, 3) for n in rng.sample(names, 10)})
        want = sum((c.weight for c in spec.criteria
                    if counts.get(c.rule_name, 0) != 0), Fraction(0))
        got = solution_weight(counts, spec)
        assert type(got) is Fraction and got == want and str(got) == str(want)


def test_weight_from_derivation_names_or_counts():
    spec = CriteriaSpec((Criterion("a", Fraction(2)), Criterion("b", Fraction(3))),
                        weight_formula="per-distinct")
    deriv = ResolvedNode("top", "T", (
        _derivation("a"), _derivation("b"), _derivation("b"), _derivation("b")))
    want = Fraction(2) + Fraction(3, 3)
    assert solution_weight(Counter(deriv.rule_names()), spec) == want


def test_weight_scaling_invariance(voice, report_fs, regs):
    base = CriteriaSpec((Criterion("s-passive", Fraction(2)),
                         Criterion("np-demonstrative", Fraction(3))))
    scaled = CriteriaSpec((Criterion("s-passive", Fraction(10)),
                           Criterion("np-demonstrative", Fraction(15))))
    sols_base = list(best_first_stream(voice, report_fs, base, registries=regs))
    sols_scaled = list(best_first_stream(voice, report_fs, scaled, registries=regs))
    assert [s.text for s in sols_base] == [s.text for s in sols_scaled]
    for a, b in zip(sols_base, sols_scaled):
        assert b.weight == 5 * a.weight
    ranked_base = [s.text for s in rank_solutions(sols_base)]
    ranked_scaled = [s.text for s in rank_solutions(sols_scaled)]
    assert ranked_base == ranked_scaled


# --- best-first stream -----------------------------------------------------------

def test_passive_criterion_orders_stream(voice, report_fs, regs):
    spec = CriteriaSpec((Criterion("s-passive"),))
    sols = list(best_first_stream(voice, report_fs, spec, registries=regs))
    applied = ["s-passive" in s.derivation.rule_names() for s in sols]
    assert len(sols) == 8
    assert applied == [True] * 4 + [False] * 4
    assert sols[0].text.startswith("Der Bericht wird")


def test_no_criteria_stream_matches_engine_default(voice, report_fs, regs):
    plain = GenerationSession(voice, regs)
    default_texts = [s.text for s in plain.solutions(report_fs)]
    stream_texts = [s.text for s in best_first_stream(voice, report_fs,
                                                      registries=regs)]
    assert stream_texts == default_texts


def test_stream_set_unchanged_by_criteria(voice, report_fs, regs):
    spec = CriteriaSpec((Criterion("s-passive"), Criterion("np-demonstrative")))
    with_spec = sorted(s.text for s in best_first_stream(voice, report_fs, spec,
                                                         registries=regs))
    without = sorted(s.text for s in best_first_stream(voice, report_fs,
                                                       registries=regs))
    assert with_spec == without


def test_first_solution_prefers_c_rules_at_every_conflict(voice, report_fs, regs):
    spec = CriteriaSpec((Criterion("s-passive"), Criterion("np-demonstrative")))
    first = next(best_first_stream(voice, report_fs, spec, registries=regs))
    counts = Counter(first.derivation.rule_names())
    assert counts["s-passive"] == 1
    assert counts["np-demonstrative"] == 2
    assert first.weight == 2  # both criteria fulfilled at default weight 1


def test_voice_weights_hand_computed(voice, report_fs, regs):
    spec = CriteriaSpec((Criterion("s-passive", Fraction(2)),
                         Criterion("np-demonstrative", Fraction(3))))
    sols = list(best_first_stream(voice, report_fs, spec, registries=regs))
    by_text = {s.text: s.weight for s in sols}
    assert by_text["Dieser Bericht wird von diesem Professor geprüft"] == 5
    assert by_text["Der Bericht wird von dem Professor geprüft"] == 2
    assert by_text["Dieser Professor prüft diesen Bericht"] == 3
    assert by_text["Der Professor prüft den Bericht"] == 0


# --- criteria files ---------------------------------------------------------------

def test_parse_criteria_basics():
    spec = parse_criteria("# comment\nrule-a\nrule-b 2\n\nrule-c 1/2\n")
    assert spec.weights == {"rule-a": Fraction(1), "rule-b": Fraction(2),
                            "rule-c": Fraction(1, 2)}


def test_parse_criteria_quoted_names():
    spec = parse_criteria('"VPinf with temp/loc adjuncts" 3\n"plain name"\n')
    assert spec.weight_of("VPinf with temp/loc adjuncts") == 3
    assert spec.weight_of("plain name") == 1


def test_parse_criteria_decimal_weight():
    assert parse_criteria("r 2.5\n").weight_of("r") == Fraction(5, 2)


@pytest.mark.parametrize("make, message", [
    (lambda: parse_criteria('ok\n"open 2\n'), "line 2: unterminated quoted name"),
    (lambda: parse_criteria('"r" heavy\n'), "line 1: bad weight 'heavy'"),
    (lambda: parse_criteria("r\n", mode="best"), "unknown mode 'best'"),
    (lambda: CriteriaSpec(weight_formula="per-rule"), "unknown weight formula 'per-rule'"),
])
def test_criteria_refusals_name_what_they_refuse(make, message):
    with pytest.raises(CriteriaError) as refused:
        make()
    assert str(refused.value) == message


def test_parse_criteria_errors():
    with pytest.raises(CriteriaError):
        parse_criteria("dup 1\ndup 2\n")
    with pytest.raises(CriteriaError):
        CriteriaSpec((Criterion("x", Fraction(-1)),))
