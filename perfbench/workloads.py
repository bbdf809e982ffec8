"""The three workloads: seeded inputs, one request per operation, checks.

Each workload builds a *round* of operations from its seed.  A run repeats
the round until its time is up, so every run attempts whole rounds of the
same operations.  Input sizes are drawn by stratified sampling (one draw
per stratum of the size range), which keeps the mix of sizes, and with it
the run's medians and means, nearly independent of the seed.

An operation is one document: its GIL text goes through `parse_gil`, a
fresh session and the first solution, then up to ``further`` more
solutions.  The checks below never consult the program's own view of what
a correct solution is: corpus outputs are compared with the restart-
everything oracle in ``tests/oracle.py``, and wide and deep outputs with
text the benchmark assembles itself from the choices or items it knows.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEMO = ROOT / "src" / "surfgen" / "demo"
GRAMMARS = HERE / "grammars"

WORKED_EXAMPLE = "Prof. Zweig will Sie am Freitag treffen"

SURNAMES = ("Zweig", "Nussbaum", "Becker", "Hoffmann", "Krause", "Lehmann",
            "Schubert", "Vogel", "Wagner", "Keller", "Fischer", "Brandt",
            "Winter", "Sommer", "Roth", "Busch")
TITLES = ('"Prof."', '"Dr."', None, None)
PLACES = ('"im Büro"', '"im Labor"', '"in Raum 12"', '"in der Mensa"',
          '"im großen Saal"')
TEAMS = ("Nord", "Süd", "Ost", "West")


@dataclass
class Op:
    """One document and the request made for it."""

    key: str
    text: str
    grammar: object
    spec: object = None
    start: Optional[str] = None
    further: int = 0
    size: int = 0
    info: dict = field(default_factory=dict)


@dataclass
class Result:
    """What an operation produced, in stream order."""

    texts: list
    weights: list
    rules: list  # per solution: the rule names its derivation applied


def rule_names(node) -> tuple:
    """Rule names of a resolved derivation tree, pre-order."""
    out, stack = [], [node]
    while stack:
        item = stack.pop()
        if hasattr(item, "rule_name"):
            out.append(item.rule_name)
            stack.extend(reversed(item.children))
    return tuple(out)


def parse_checked(sg, regs, text: str, what: str):
    """Parse a grammar and refuse it if validation reports an error."""
    grammar = sg.tgl.parse_grammar(text)
    errors = [d for d in sg.tgl.validate_grammar(grammar, regs)
              if d.severity is sg.tgl.Severity.ERROR]
    if errors:
        raise RuntimeError(f"{what}: {errors[0]}")
    return grammar


def strata(rng: random.Random, lo: int, hi: int, count: int) -> list:
    """``count`` sizes from [lo, hi], one uniform draw per equal stratum."""
    out = []
    for j in range(count):
        a = lo + (hi - lo + 1) * j // count
        b = lo + (hi - lo + 1) * (j + 1) // count - 1
        out.append(rng.randint(a, max(a, b)))
    return out


# ---------------------------------------------------------------------------
# corpus: application traffic over three fixed grammars

def _person(rng: random.Random, tag: str = "") -> str:
    title = rng.choice(TITLES)
    name = f'(SURNAME "{rng.choice(SURNAMES)}")'
    if title:
        name = f"(TITLE {title}) {name}"
    return f"{tag}[(NAME [{name}])]"


def appointment_doc(rng: random.Random) -> str:
    agent = (f"[(ROLE agent) (CARD single) (CONTENT [(QFORCE noquant) "
             f"(PRED humname) {_person(rng)[1:-1]}])]")
    if rng.random() < 0.6:
        patient_content = "[(QFORCE iota) (PRED object)]"
    else:
        patient_content = f"[(QFORCE noquant) (PRED humname) {_person(rng)[1:-1]}]"
    patient = f"[(ROLE patient) (CARD single) (CONTENT {patient_content})]"
    parts = [f"(SMOOD [(TOPIC #1) (MODALITY unmarked) (TIME pres)])",
             f"(PRED {rng.choice(('meet', 'check'))})",
             f"(ARGS < #1= {agent}, {patient} >)"]
    if rng.random() < 0.7:
        parts.append(f"(TIME-ADJ [(ROLE on) (CONTENT [(WEEKDAY {rng.randint(1, 7)})])])")
    if rng.random() < 0.4:
        parts.append(f"(DUR-ADJ [(ROLE for) (CONTENT [(HOURS {rng.randint(1, 8)})])])")
    if rng.random() < 0.4:
        parts.append(f"(LOC-ADJ [(ROLE at) (CONTENT [(PLACE {rng.choice(PLACES)})])])")
    return f"[(PRED request) (THEME [{' '.join(parts)}])]"


def voice_doc(rng: random.Random) -> str:
    nouns = ("professor", "document")
    return (f"[(PRED report) (THEME [(PRED {rng.choice(('check', 'meet'))}) "
            f"(ARGS < [(ROLE agent) (CARD single) (CONTENT [(PRED "
            f"{rng.choice(nouns)}) (QFORCE iota)])], [(ROLE patient) (CARD "
            f"single) (CONTENT [(PRED {rng.choice(nouns)}) (QFORCE iota)])] >)])]")


def roster_doc(rng: random.Random, rows: int) -> str:
    def who() -> str:
        roll = rng.random()
        if roll < 0.4:
            return "#1"
        if roll < 0.55:
            return f'[(SORT team) (NAME [(SURNAME "{rng.choice(TEAMS)}")])]'
        return _person(rng)

    entries = ""
    for _ in range(rows):
        day = rng.randint(1, 7)
        if rng.random() < 0.5:
            entry = f"[(KIND table) (WHO {who()}) (DAY {day}) (HOURS {rng.randint(1, 8)})]"
        else:
            entry = f"[(KIND note) (WHO {who()}) (WITH {who()}) (DAY {day})]"
        entries = f"[(ENTRY {entry})" + (f" (REST {entries})" if entries else "") + "]"
    return f"[(PRED roster) (OWNER {_person(rng, '#1= ')}) (ENTRIES {entries})]"


class Corpus:
    """Several thousand small documents for three application grammars."""

    name = "corpus"
    CAP = 31  # further solutions asked for; no document has that many
    cli_per_round = None  # every CLI case after every round

    def __init__(self, sg, regs, seed: int, tiny: bool = False):
        rng = random.Random(f"corpus-{seed}")
        read = lambda p: p.read_text(encoding="utf-8")  # noqa: E731
        self.sg, self.regs = sg, regs
        self.paths = {"appointment": DEMO / "appointment.tgl",
                      "voice": DEMO / "voice.tgl",
                      "roster": GRAMMARS / "roster.tgl"}
        self.grammars = {k: parse_checked(sg, regs, read(p), str(p))
                         for k, p in self.paths.items()}
        self.criteria_path = DEMO / "passive.criteria"
        self.passive = sg.prefs.parse_criteria(read(self.criteria_path))
        g = self.grammars
        ops = [Op("demo", read(DEMO / "meeting.gil"), g["appointment"],
                  further=self.CAP, size=1, info={"demo": True})]
        n_appt, n_voice, n_roster = (6, 4, 1) if tiny else (400, 200, 20)
        for i in range(n_appt):
            ops.append(Op(f"a{i}", appointment_doc(rng), g["appointment"],
                          further=self.CAP, size=1))
        for i in range(n_voice):
            ops.append(Op(f"v{i}", voice_doc(rng), g["voice"], self.passive,
                          further=self.CAP, size=1, info={"criteria": ("s-passive",)}))
        for rows in range(1, 21):
            for i in range(n_roster):
                ops.append(Op(f"r{rows}.{i}", roster_doc(rng, rows), g["roster"],
                              further=self.CAP, size=rows + 1))
        rng.shuffle(ops)
        self.ops = ops
        self._oracle: dict = {}

    def expected(self, op: Op) -> Counter:
        got = self._oracle.get(op.key)
        if got is None:
            from tests.oracle import oracle_solutions

            fs = self.sg.gil.parse_gil(op.text)
            got = Counter(oracle_solutions(op.grammar, fs, self.regs, max_depth=64))
            self._oracle[op.key] = got
        return got

    def check(self, op: Op, res: Result) -> list:
        bad = []
        if Counter(res.texts) != self.expected(op):
            bad.append("oracle")
        for name in op.info.get("criteria", ()):
            fulfilled = [name in rules for rules in res.rules]
            if fulfilled != sorted(fulfilled, reverse=True):
                bad.append("criteria-order")
        if op.info.get("demo") and (not res.texts or res.texts[0] != WORKED_EXAMPLE):
            bad.append("worked-example")
        return bad

    def cli_cases(self, workdir: Path) -> list:
        """(operation, arguments, solutions printed) per CLI case: the demo
        document and two documents of each grammar (an odd number of cases,
        so that their median is one case's median)."""
        picked: dict = {}
        for op in self.ops:
            picked.setdefault(op.key[0], [])
            if len(picked[op.key[0]]) < 2:
                picked[op.key[0]].append(op)
        cases = []
        for op in (op for kind in sorted(picked) for op in picked[kind]):
            kind = next(k for k, g in self.grammars.items() if g is op.grammar)
            args = ["--grammar", str(self.paths[kind])]
            if op.spec is not None:
                args += ["--criteria", str(self.criteria_path)]
            limit = 1 if op.info.get("demo") else 0
            cases.append((op, args + ["--max", str(limit)], limit))
        return cases


# ---------------------------------------------------------------------------
# wide: one flat template of N two-way choices per session

def wide_grammar_text(ns) -> str:
    """Choice i is category C<i> with rules c<i>-sg and c<i>-pl, wrapped in
    W<i>, whose verb outside the choice agrees in number with it.  Start
    category T<n> realizes W1 .. W<n>; TXT realizes the smallest of them."""
    out = [";; generated: flat templates of two-way agreement choices",
           f'(DEFPRODUCTION "text" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
           f' :ACTIONS (:TEMPLATE (:RULE T{min(ns)} (SELF)))))']
    for i in range(1, max(ns) + 1):
        out.append(
            f'(DEFPRODUCTION "w{i}" (:PRECOND (:CAT W{i} :TEST ((TRUE)))'
            f' :ACTIONS (:TEMPLATE (:RULE C{i} (SELF)) (:FUN (verb fit))'
            f' :CONSTRAINTS (NUM LHS (C{i})) (TENSE LHS :VAL pres)'
            f' (PERSON LHS :VAL 3))))')
        for alt in ("sg", "pl"):
            out.append(
                f'(DEFPRODUCTION "c{i}-{alt}" (:PRECOND (:CAT C{i} :TEST ((TRUE)))'
                f' :ACTIONS (:TEMPLATE "{alt}{i}" :CONSTRAINTS (NUM LHS :VAL {alt}))))')
    for n in sorted(set(ns)):
        calls = " ".join(f"(:RULE W{i} (SELF))" for i in range(1, n + 1))
        out.append(f'(DEFPRODUCTION "top{n}" (:PRECOND (:CAT T{n} :TEST ((TRUE)))'
                   f' :ACTIONS (:TEMPLATE {calls})))')
    return "\n".join(out) + "\n"


VERB_FIT = {"sg": "passt", "pl": "passen"}


class Wide:
    """Alternatives-heavy sessions: emission per further solution dominates."""

    name = "wide"
    FURTHER = 8
    cli_per_round = 1  # a CLI call parses the whole wide grammar
    LO, HI = 64, 256

    def __init__(self, sg, regs, seed: int, tiny: bool = False):
        rng = random.Random(f"wide-{seed}")
        self.sg, self.regs = sg, regs
        sessions = 3 if tiny else 12
        lo, hi = (6, 12) if tiny else (self.LO, self.HI)
        self.ns = strata(rng, lo, hi, sessions)
        self.ns[-1] = hi  # one session of the top size, for peak_kib
        # every eighth point names one alternative, from a seeded offset
        self.named = {i: (rng.choice(("sg", "pl")), rng.randint(1, 3))
                      for i in range(rng.randint(1, 4), max(self.ns) + 1, 8)}
        self.criteria_text = "".join(f"c{i}-{alt} {w}\n"
                                     for i, (alt, w) in sorted(self.named.items()))
        self.grammar_text = wide_grammar_text(self.ns)
        self.grammar = parse_checked(sg, regs, self.grammar_text, "wide grammar")
        self.spec = sg.prefs.parse_criteria(self.criteria_text)
        self.ops = [Op(f"w{j}.n{n}", "[]", self.grammar, self.spec, f"T{n}",
                       self.FURTHER, n, {"n": n}) for j, n in enumerate(self.ns)]
        rng.shuffle(self.ops)

    def solution_of(self, n: int, rules) -> tuple:
        """Text and weight the benchmark computes from a solution's choices."""
        chosen = {}
        for name in rules:
            if name.startswith("c") and "-" in name:
                i, alt = name[1:].split("-")
                chosen[int(i)] = alt
        if sorted(chosen) != list(range(1, n + 1)):
            return None, None
        text = " ".join(f"{chosen[i]}{i} {VERB_FIT[chosen[i]]}" for i in range(1, n + 1))
        weight = sum((Fraction(w) for i, (alt, w) in self.named.items()
                      if i <= n and chosen[i] == alt), Fraction(0))
        return text, weight

    def check(self, op: Op, res: Result) -> list:
        bad = []
        n = op.info["n"]
        if len(res.texts) != 1 + op.further:
            bad.append("count")
        for text, weight, rules in zip(res.texts, res.weights, res.rules):
            want_text, want_weight = self.solution_of(n, rules)
            if text != want_text:
                bad.append("text")
                break
            if weight != want_weight:
                bad.append("weight")
                break
        if len(set(res.texts)) != len(res.texts):
            bad.append("distinct")
        if res.rules:
            first = set(res.rules[0])
            if any(f"c{i}-{alt}" not in first
                   for i, (alt, _) in self.named.items() if i <= n):
                bad.append("criteria-first")
        return bad

    def cli_cases(self, workdir: Path) -> list:
        grammar, criteria = workdir / "wide.tgl", workdir / "wide.criteria"
        grammar.write_text(self.grammar_text, encoding="utf-8")
        criteria.write_text(self.criteria_text, encoding="utf-8")
        limit = 1 + self.FURTHER
        ops = sorted(self.ops, key=lambda o: o.size)[1::4]  # three cases
        return [(op, ["--grammar", str(grammar), "--criteria", str(criteria),
                      "--start", op.start, "--max", str(limit)], limit)
                for op in ops]


# ---------------------------------------------------------------------------
# deep: right-recursive lists, exactly two solutions each

NP_AKK = {"def": {"professor": "den Professor", "document": "den Bericht",
                  "appointment": "den Termin"},
          "dem": {"professor": "diesen Professor", "document": "diesen Bericht"}}


class Deep:
    """Derivation-heavy documents: depth, nested parsing, memo misses."""

    name = "deep"
    LO, HI = 16, 60
    cli_per_round = None
    PREDS = ("professor", "document", "appointment")

    def __init__(self, sg, regs, seed: int, tiny: bool = False):
        rng = random.Random(f"deep-{seed}")
        self.sg, self.regs = sg, regs
        self.path = GRAMMARS / "deep.tgl"
        self.grammar = parse_checked(sg, regs, self.path.read_text(encoding="utf-8"),
                                     str(self.path))
        count = 3 if tiny else 100
        lo, hi = (2, 6) if tiny else (self.LO, self.HI)
        self.ops = []
        depths = strata(rng, lo, hi, count)
        depths[-1] = hi  # one document of the top size, for peak_kib
        for j, depth in enumerate(depths):
            preds = [rng.choice(self.PREDS) for _ in range(depth - 1)]
            preds.append(rng.choice(self.PREDS[:2]))
            numbers = rng.sample(range(1, 1000), depth)
            items = [f"[(PRED {p}) (NO {k})]" for p, k in zip(preds, numbers)]
            body = ""
            for item in reversed(items):
                body = f"[(ITEM {item})" + (f" (REST {body})" if body else "") + "]"
            words = [f"{NP_AKK['def'][p]} {k}" for p, k in zip(preds[:-1], numbers)]
            texts = [" ".join(words + ["und", f"{NP_AKK[det][preds[-1]]} {numbers[-1]}"])
                     for det in ("def", "dem")]
            self.ops.append(Op(f"d{j}.{depth}", f"[(ITEMS {body})]", self.grammar,
                               further=1, size=depth, info={"texts": texts}))
        rng.shuffle(self.ops)

    def check(self, op: Op, res: Result) -> list:
        return [] if res.texts == op.info["texts"] else ["items"]

    def cli_cases(self, workdir: Path) -> list:
        ops = sorted(self.ops, key=lambda o: o.size)
        ops = ops[::max(1, len(ops) // 5)][:5]  # five cases, sizes spread
        return [(op, ["--grammar", str(self.path), "--max", "0"], 0) for op in ops]


WORKLOADS = {cls.name: cls for cls in (Corpus, Wide, Deep)}
