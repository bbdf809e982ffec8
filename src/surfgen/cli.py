"""Command line: validate grammars and generate text from structure files.

    surfgen generate --grammar g.tgl --input doc.gil [--start CAT]
                     [--max N] [--criteria file] [--weights] [--trace]
                     [--stats] [--dedupe] [--no-memo] [--lexicon file]
    surfgen validate --grammar g.tgl [--lexicon file]

``generate`` writes one solution per line to stdout (lines may contain
literal tabs for tabular output) and exits 0 when at least one solution was
produced, 1 when there was none, 2 on usage or input errors.  Diagnostics,
traces and statistics go to stderr.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .gil import GilError, parse_gil
from .morpho import MorphoError, default_lexicon, parse_lexicon
from .prefs import CriteriaError, CriteriaSpec, make_session, parse_criteria
from .tgl import Registries, Severity, TglError, parse_grammar, validate_grammar

EXIT_OK = 0
EXIT_NO_SOLUTION = 1
EXIT_ERROR = 2


class _Usage(Exception):
    pass


def _read(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as e:
        raise _Usage(f"cannot read {what} {path!r}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise _Usage(f"cannot read {what} {path!r}: not UTF-8 "
                     f"(byte {e.start})") from None


def _registries(lexicon_path: Optional[str]) -> Registries:
    try:
        lexicon = (parse_lexicon(_read(lexicon_path, "lexicon")) if lexicon_path
                   else default_lexicon())
    except MorphoError as e:
        raise _Usage(f"{lexicon_path}: {e}") from None
    return Registries.standard(lexicon)


def _load_grammar(path: str):
    try:
        return parse_grammar(_read(path, "grammar"))
    except TglError as e:
        raise _Usage(f"{path}:{e}") from None


def cmd_generate(cfg: argparse.Namespace, out=None, err=None) -> int:
    """Run ``generate`` with the options ``build_parser`` parsed."""
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        grammar = _load_grammar(cfg.grammar)
        registries = _registries(cfg.lexicon)
        try:
            input_fs = parse_gil(_read(cfg.input, "input"))
        except GilError as e:
            raise _Usage(f"{cfg.input}:{e}") from None
        diagnostics = validate_grammar(grammar, registries, cfg.start)
        errors = [d for d in diagnostics if d.severity is Severity.ERROR]
        for diag in diagnostics:
            print(f"{cfg.grammar}: {diag}", file=err)
        if errors:
            return EXIT_ERROR
        spec = CriteriaSpec()
        if cfg.criteria:
            mode = "weight-ranked" if cfg.weights else "first-solution-bias"
            try:
                spec = parse_criteria(_read(cfg.criteria, "criteria"), mode=mode)
            except CriteriaError as e:
                raise _Usage(f"{cfg.criteria}: {e}") from None
        unmatched = [c.rule_name for c in spec.criteria
                     if c.rule_name not in grammar.by_name]
        # a name that is not one word is most likely a line whose weight did
        # not read; a one-word name may be meant for another grammar, so it
        # is only counted (--stats)
        for name in unmatched:
            if name.split() != [name]:
                print(f"warning: criterion '{name}' names no rule of the grammar",
                      file=err)
        trace = (lambda event: print(event, file=err)) if cfg.trace else None
        session = make_session(grammar, spec, registries=registries,
                               use_memo=cfg.memo, trace=trace)
        emitted = 0
        seen: set[str] = set()
        try:
            for solution in session.solutions(input_fs, cfg.start):
                if cfg.dedupe:
                    if solution.text in seen:
                        continue
                    seen.add(solution.text)
                line = solution.text
                if cfg.weights:
                    line = f"[w={solution.weight}] {line}"
                print(line, file=out)
                emitted += 1
                if cfg.max_solutions and emitted >= cfg.max_solutions:
                    break
        except MorphoError as e:
            print(f"error: {e}", file=err)
            return EXIT_ERROR
        cutoffs = session.stats.depth_cutoffs
        if not emitted and cutoffs:
            print(f"note: no solution within max_depth {session.max_depth}; "
                  f"derivation was cut off {cutoffs} time(s)", file=err)
        if cfg.stats:
            for key, value in session.stats.snapshot().items():
                print(f"{key}: {value}", file=err)
            print(f"criteria-unmatched: {len(unmatched)}", file=err)
        return EXIT_OK if emitted else EXIT_NO_SOLUTION
    except _Usage as e:
        print(f"error: {e}", file=err)
        return EXIT_ERROR


def cmd_validate(grammar_path: str, lexicon_path: Optional[str] = None,
                 out=None, err=None) -> int:
    out = out or sys.stdout
    err = err or sys.stderr
    try:
        grammar = _load_grammar(grammar_path)
        registries = _registries(lexicon_path)
    except _Usage as e:
        print(f"error: {e}", file=err)
        return EXIT_ERROR
    diagnostics = validate_grammar(grammar, registries)
    for diag in diagnostics:
        print(f"{grammar_path}: {diag}", file=err)
    if any(d.severity is Severity.ERROR for d in diagnostics):
        return EXIT_ERROR
    print("OK", file=out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surfgen",
        description="rule-based surface realization from feature structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="realize text from a .gil input")
    gen.add_argument("--grammar", required=True, help="grammar file (.tgl)")
    gen.add_argument("--input", required=True, help="input structure (.gil)")
    gen.add_argument("--start", default=None, help="start category (default TXT)")
    gen.add_argument("--max", type=int, default=1, dest="max_solutions",
                     metavar="N", help="solutions to emit; 0 = all (default 1)")
    gen.add_argument("--criteria", default=None,
                     help="preference criteria file")
    gen.add_argument("--weights", action="store_true",
                     help="weight-ranked choices; prefix lines with [w=...]")
    gen.add_argument("--trace", action="store_true",
                     help="write rule firing events to stderr")
    gen.add_argument("--stats", action="store_true",
                     help="write generation statistics to stderr")
    gen.add_argument("--dedupe", action="store_true",
                     help="collapse identical strings from distinct derivations")
    gen.add_argument("--no-memo", action="store_false", dest="memo",
                     help="disable reuse of memoized partial results")
    gen.add_argument("--lexicon", default=None,
                     help="lexicon file (default: built-in demo lexicon)")

    val = sub.add_parser("validate", help="statically check a grammar")
    val.add_argument("--grammar", required=True, help="grammar file (.tgl)")
    val.add_argument("--lexicon", default=None,
                     help="lexicon file (default: built-in demo lexicon)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "validate":
        return cmd_validate(args.grammar, args.lexicon)
    if args.max_solutions < 0:
        print("error: --max must be >= 0", file=sys.stderr)
        return EXIT_ERROR
    return cmd_generate(args)


if __name__ == "__main__":
    sys.exit(main())
