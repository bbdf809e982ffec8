"""User preferences: weighted criteria steering the order of solutions.

A criterion names a grammar rule (a *c-rule*) and is fulfilled when that
rule is applied in a solution.  Criteria bias generation two ways: inside a
conflict set, c-rules are tried first; among open backtrack points, those
whose pending alternatives still contain a c-rule are expanded first.
Applied incrementally this yields the solutions fulfilling criteria before
the others; it does not (and cannot, without look-ahead) guarantee the
globally heaviest solution first, so an exact post-hoc ranking over an
exhausted stream is offered separately.

A solution's weight sums, over the distinct c-rules it applies, the rule's
weight: each of the n occurrences of a c-rule contributes weight/n.  The
alternative reading (a c-rule applied n times contributes weight/n in
total) is available as ``weight_formula="per-distinct"``.  Either is
computed from the ``Counter`` of rule names that the session keeps for
each solution it shows.

Criteria file format (UTF-8, ``#`` comments): one criterion per line,
``<rule-name> [weight]``; names containing spaces are double-quoted;
weights are non-negative rationals (``2``, ``0.5``, ``1/3``), default 1.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .backtrack import BacktrackPoint
from .gil import FeatureStructure
from .session import GenerationSession, Solution
from .tgl import Grammar, Registries, Rule

MODES = ("first-solution-bias", "weight-ranked")
ZERO = Fraction(0)  # shared by every weight of 0: Fraction() is Python-level
FORMULAS = ("per-occurrence", "per-distinct")
# The key of an open point with no c-rule left: after every number.
UNRANKED = float("inf")


class CriteriaError(Exception):
    pass


@dataclass(frozen=True)
class Criterion:
    rule_name: str
    weight: Fraction = Fraction(1)

    def __post_init__(self):
        if self.weight < 0:
            raise CriteriaError(f"criterion {self.rule_name!r}: "
                                f"weight must be non-negative")


@dataclass(frozen=True)
class CriteriaSpec:
    """Criteria and how they order solutions.  ``weights`` and ``scaled``
    are made with the spec.  They are fields, not cached properties:
    writing the instance ``__dict__`` after the spec is made slows every
    later attribute read of it."""

    criteria: tuple = ()
    mode: str = "first-solution-bias"
    weight_formula: str = "per-occurrence"
    weights: dict = field(init=False, repr=False, compare=False)  # rule name -> weight
    # the weights over their least common denominator: ((rule name,
    # numerator), ...) in criteria order, and the denominator
    scaled: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = [c.rule_name for c in self.criteria]
        if len(set(names)) != len(names):
            raise CriteriaError("criteria name a rule more than once")
        if self.mode not in MODES:
            raise CriteriaError(f"unknown mode {self.mode!r}")
        if self.weight_formula not in FORMULAS:
            raise CriteriaError(f"unknown weight formula {self.weight_formula!r}")
        weights = {c.rule_name: c.weight for c in self.criteria}
        denominator = math.lcm(*(c.weight.denominator for c in self.criteria))
        scaled = (tuple((c.rule_name,
                         c.weight.numerator * (denominator // c.weight.denominator))
                        for c in self.criteria), denominator)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "scaled", scaled)


EMPTY_SPEC = CriteriaSpec()


def parse_criteria(text: str, mode: str = "first-solution-bias",
                   weight_formula: str = "per-occurrence") -> CriteriaSpec:
    criteria = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith('"'):
            end = line.find('"', 1)
            if end < 0:
                raise CriteriaError(f"line {lineno}: unterminated quoted name")
            name, rest = line[1:end], line[end + 1:].strip()
        else:
            name, rest = line, ""
            parts = line.rsplit(None, 1)
            if len(parts) == 2 and _is_weight(parts[1]):
                name, rest = parts
        weight = Fraction(1)
        if rest:
            if not _is_weight(rest):
                raise CriteriaError(f"line {lineno}: bad weight {rest!r}")
            weight = Fraction(rest)
        criteria.append(Criterion(name, weight))
    return CriteriaSpec(tuple(criteria), mode, weight_formula)


def _is_weight(text: str) -> bool:
    try:
        Fraction(text)
        return True
    except (ValueError, ZeroDivisionError):
        return False


def load_criteria(path, **kwargs) -> CriteriaSpec:
    import pathlib

    return parse_criteria(pathlib.Path(path).read_text(encoding="utf-8"), **kwargs)


# ---------------------------------------------------------------------------
# Choice ordering

def order_conflict_set(conflict_set: list[Rule], spec: CriteriaSpec) -> list[Rule]:
    """Stable partition: c-rules first by descending weight, rest after."""
    weights = spec.weights
    if not weights:
        return list(conflict_set)
    c_rules, others = [], []
    for rule in conflict_set:
        weight = weights.get(rule.name)
        if weight is None:
            others.append(rule)
        else:
            c_rules.append((weight, rule))
    c_rules.sort(key=lambda pair: -pair[0])  # stable for ties
    return [rule for _, rule in c_rules] + others


def point_key(point: BacktrackPoint, spec: CriteriaSpec):
    """The key of an open point in the session's heap, lowest first: when
    its remainder holds a c-rule, 0, or under weight-ranked the heaviest
    such rule's weight, negated; ``UNRANKED`` without one, and so for
    every point without criteria.  A key can only rise as the remainder
    shrinks."""
    weights = spec.weights
    if not weights:
        return UNRANKED
    if spec.mode == "first-solution-bias":
        for rule in point.remainder:
            if rule.name in weights:
                return 0
        return UNRANKED
    top = None
    for rule in point.remainder:
        weight = weights.get(rule.name)
        if weight is not None and (top is None or weight > top):
            top = weight
    return UNRANKED if top is None else -top


def open_point(index: list[BacktrackPoint], point: BacktrackPoint,
               spec: CriteriaSpec) -> None:
    """Enter a captured point in the session's heap, unless its remainder
    is empty.  Points compare in a total order, so the order they are
    entered in never changes what ``choose_backtrack_point`` gives."""
    if point.remainder:
        point.key = point_key(point, spec)
        heapq.heappush(index, point)


def choose_backtrack_point(index: list[BacktrackPoint],
                           spec: CriteriaSpec) -> Optional[BacktrackPoint]:
    """The open point to expand next, or None when none is open: the one
    whose remainder still holds a c-rule (under weight-ranked, the
    heaviest one), then the most recently created; with no criteria,
    simply the most recently created open point.

    Reads the session's heap, which ``open_point`` filled under the same
    spec, not every open point.  An entry is keyed again, or dropped once
    its point is exhausted, only when it is on top: keys only rise as
    remainders shrink, so the first entry whose key is up to date is the
    answer.
    """
    while index:
        point = index[0]
        if not point.remainder:
            heapq.heappop(index)
        elif (now := point_key(point, spec)) == point.key:
            return point
        else:
            point.key = now
            heapq.heapreplace(index, point)
    return None


def solution_weight(counts: Counter, spec: CriteriaSpec) -> Fraction:
    """Aggregate the weights of the c-rules a solution applied.  counts maps
    each fired rule's name to its number of applications."""
    if spec.weight_formula == "per-occurrence":
        # n occurrences of weight/n each: one Fraction over the common
        # denominator
        numerators, denominator = spec.scaled
        total = 0
        for name, numerator in numerators:
            if counts.get(name, 0) != 0:
                total += numerator
        # one-argument Fraction skips the gcd when every weight is whole
        return ZERO if not total else Fraction(total, denominator) \
            if denominator > 1 else Fraction(total)
    total = ZERO
    for criterion in spec.criteria:
        n = counts.get(criterion.rule_name, 0)
        if n != 0:
            total += criterion.weight / n
    return total


# ---------------------------------------------------------------------------
# Stream drivers

def make_session(grammar: Grammar, spec: Optional[CriteriaSpec] = None,
                 *, registries: Optional[Registries] = None,
                 use_memo: bool = True, trace=None) -> GenerationSession:
    return GenerationSession(grammar, registries, spec=spec,
                             use_memo=use_memo, trace=trace)


def best_first_stream(grammar: Grammar, input_fs: FeatureStructure,
                      spec: Optional[CriteriaSpec] = None,
                      *, start: Optional[str] = None,
                      registries: Optional[Registries] = None,
                      use_memo: bool = True, trace=None) -> Iterator[Solution]:
    """All solutions, lazily, criteria-fulfilling ones first."""
    session = make_session(grammar, spec, registries=registries,
                           use_memo=use_memo, trace=trace)
    return session.solutions(input_fs, start)


def rank_solutions(solutions: Iterable[Solution]) -> list[Solution]:
    """Exact post-hoc ranking by weight, stable within equal weights."""
    return sorted(solutions, key=lambda s: -s.weight)
