"""The solution stream, pinned by digest.

For every randomized case (``random_case`` and ``hard_case`` seeds 0-99),
memo on and off, under three criteria specs, one short SHA-256 covers what a
session shows: texts, weights, assignments, the derivations, the counters,
the trace and the empty trail and graph after exhaustion.  Three long
streams follow, in which many choices change at once between two emitted
solutions: a 10-point flat grammar (1024 solutions), nested choices agreeing
with words outside their enclosing ego, and choices that filter most
combinations.  The digests in
``data/stream_digests.json`` were taken before the emission path was last
reworked, so any change in behaviour names the first case that differs.

Regenerate them only for an intended change of behaviour:

    PYTHONPATH=src python -m tests.test_stream_pinned
"""

import hashlib
import json
import pathlib
import random
from fractions import Fraction

from surfgen.backtrack import ResolvedNode
from surfgen.engine import InflectCall, LiteralTok
from surfgen.gil import FeatureStructure
from surfgen.prefs import CriteriaSpec, Criterion
from surfgen.session import GenerationSession

from surfgen.tgl import parse_grammar

from .grammars import (FILTERED_GRAMMAR, NESTED_GRAMMAR, build_registries,
                       flat_grammar, hard_case, random_case)

DIGESTS = pathlib.Path(__file__).resolve().parent / "data" / "stream_digests.json"
SEEDS = range(100)
SPECS = ("default", "per-occurrence", "ranked-per-distinct")
LONG = {"flat10": flat_grammar(10), "nested": NESTED_GRAMMAR,
        "filtered": FILTERED_GRAMMAR}


def criteria(grammar, key: str, formula: str, mode: str) -> CriteriaSpec:
    rng = random.Random(key)
    names = [rule.name for rule in grammar.rules]
    chosen = rng.sample(names, min(3, len(names)))
    weights = (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3))
    return CriteriaSpec(tuple(Criterion(n, rng.choice(weights)) for n in chosen),
                        mode, formula)


def spec_for(name: str, grammar, key: str):
    if name == "default":
        return None
    if name == "per-occurrence":
        return criteria(grammar, key, "per-occurrence", "first-solution-bias")
    return criteria(grammar, key, "per-distinct", "weight-ranked")


def leaf(item) -> list:
    if isinstance(item, LiteralTok):
        return ["lit", item.text]
    assert isinstance(item, InflectCall)
    return ["call", item.entry.name, [repr(a) for a in item.args],
            [[f, item.node] for f in item.entry.features]]


def derivation_sequence(node: ResolvedNode) -> list:
    """Nodes and leaves of a resolved tree in pre-order."""
    out, stack = [], [node]
    while stack:
        item = stack.pop()
        if isinstance(item, ResolvedNode):
            out.append(["node", item.rule_name, item.category])
            stack.extend(reversed(item.children))
        else:
            out.append(leaf(item))
    return out


def session_record(grammar, fs, use_memo: bool, spec) -> dict:
    events = []
    session = GenerationSession(grammar, build_registries(), spec=spec,
                                use_memo=use_memo, trace=events.append)
    solutions = list(session.solutions(fs))
    return {
        "texts": [s.text for s in solutions],
        "weights": [str(s.weight) for s in solutions],
        "assignments": [list(s.assignment.items()) for s in solutions],
        "derivations": [derivation_sequence(s.derivation) for s in solutions],
        "stats": session.stats.snapshot(),
        "fired_by_rule": list(session.stats.fired_by_rule.items()),
        "trace": [str(e) for e in events],
        "trail_after": len(session.trail),
        "graph_empty_after": session.graph.is_empty(),
    }


def digest(record: dict) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def compute_digests() -> dict:
    out = {}
    for kind, make in (("random", random_case), ("hard", hard_case)):
        for seed in SEEDS:
            grammar, fs = make(seed)
            for use_memo in (True, False):
                for name in SPECS:
                    key = f"{kind}-{seed}-{'memo' if use_memo else 'nomemo'}-{name}"
                    spec = spec_for(name, grammar, key)
                    out[key] = digest(session_record(grammar, fs, use_memo, spec))
    for kind, text in LONG.items():
        grammar = parse_grammar(text)
        for use_memo in (True, False):
            for name in SPECS:
                key = f"{kind}-{'memo' if use_memo else 'nomemo'}-{name}"
                spec = spec_for(name, grammar, key)
                out[key] = digest(session_record(grammar, FeatureStructure(),
                                                 use_memo, spec))
    return out


def test_stream_matches_pinned_digests():
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = compute_digests()
    assert list(got) == list(want)
    differing = [key for key in want if got[key] != want[key]]
    assert not differing, \
        f"{len(differing)} session(s) differ, first: {differing[0]}"


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(compute_digests(), indent=1) + "\n",
                       encoding="utf-8")
