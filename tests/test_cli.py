import io

import pytest

from surfgen.cli import EXIT_ERROR, EXIT_NO_SOLUTION, EXIT_OK, main

from .grammars import LIST_GRAMMAR, list_gil

pytestmark = pytest.mark.usefixtures("demo_dir")


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    import contextlib

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def paths(demo_dir):
    return {
        "appointment": str(demo_dir / "appointment.tgl"),
        "meeting": str(demo_dir / "meeting.gil"),
        "voice": str(demo_dir / "voice.tgl"),
        "report": str(demo_dir / "report.gil"),
        "criteria": str(demo_dir / "passive.criteria"),
    }


def test_generate_first_solution(paths):
    code, out, err = run(["generate", "--grammar", paths["appointment"],
                          "--input", paths["meeting"], "--max", "1"])
    assert code == EXIT_OK
    assert out == "Prof. Zweig will Sie am Freitag treffen\n"


def test_generate_all_solutions(paths):
    code, out, _ = run(["generate", "--grammar", paths["appointment"],
                        "--input", paths["meeting"], "--max", "0"])
    assert code == EXIT_OK
    assert out.splitlines() == [
        "Prof. Zweig will Sie am Freitag treffen",
        "Zweig will Sie am Freitag treffen",
    ]


def test_max_one_is_prefix_of_all(paths):
    for extra in ([], ["--criteria", paths["criteria"]],
                  ["--criteria", paths["criteria"], "--weights"]):
        base = ["generate", "--grammar", paths["voice"],
                "--input", paths["report"]] + extra
        _, one, _ = run(base + ["--max", "1"])
        _, everything, _ = run(base + ["--max", "0"])
        assert everything.startswith(one)


def test_output_is_deterministic(paths):
    argv = ["generate", "--grammar", paths["voice"], "--input",
            paths["report"], "--max", "0", "--stats"]
    first = run(argv)
    second = run(argv)
    assert first == second


def test_exit_one_when_no_solution(paths, tmp_path):
    doc = tmp_path / "other.gil"
    doc.write_text("[(PRED greeting)]", encoding="utf-8")
    code, out, _ = run(["generate", "--grammar", paths["appointment"],
                        "--input", str(doc)])
    assert code == EXIT_NO_SOLUTION
    assert out == ""


def test_exit_two_on_bad_input(paths, tmp_path):
    doc = tmp_path / "broken.gil"
    doc.write_text("[(A", encoding="utf-8")
    code, _, err = run(["generate", "--grammar", paths["appointment"],
                        "--input", str(doc)])
    assert code == EXIT_ERROR
    assert "broken.gil" in err


def test_exit_two_on_missing_file(paths):
    code, _, err = run(["generate", "--grammar", paths["appointment"],
                        "--input", "no-such-file.gil"])
    assert code == EXIT_ERROR
    assert "error:" in err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        run(["generate", "--grammar"])
    assert exc.value.code == EXIT_ERROR


def test_canned_grammar_single_line(tmp_path):
    grammar = tmp_path / "hello.tgl"
    grammar.write_text('(DEFPRODUCTION "hi" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
                       ' :ACTIONS (:TEMPLATE "hello")))', encoding="utf-8")
    doc = tmp_path / "empty.gil"
    doc.write_text("[]", encoding="utf-8")
    code, out, _ = run(["generate", "--grammar", str(grammar),
                        "--input", str(doc), "--max", "0"])
    assert code == EXIT_OK
    assert out == "hello\n"


def test_start_category_flag(paths):
    code, out, _ = run(["generate", "--grammar", paths["appointment"],
                        "--input", paths["meeting"], "--start", "VP",
                        "--max", "1"])
    assert code == EXIT_OK
    assert out == "Sie am Freitag treffen\n"


@pytest.mark.parametrize("start, rules", [("NOPE", "TXT"), (None, "S"), ("s", "S")])
def test_start_category_without_rules_is_an_input_error(tmp_path, start, rules):
    grammar = tmp_path / "g.tgl"
    grammar.write_text(f'(DEFPRODUCTION "r" (:PRECOND (:CAT {rules} :TEST ((TRUE)))'
                       f' :ACTIONS (:TEMPLATE "w")))\n', encoding="utf-8")
    doc = tmp_path / "empty.gil"
    doc.write_text("[]", encoding="utf-8")
    argv = ["generate", "--grammar", str(grammar), "--input", str(doc)]
    if start:
        argv += ["--start", start]
    code, out, err = run(argv)
    if start == "s":  # the category used is S, and S has a rule
        assert (code, out, err) == (EXIT_OK, "w\n", "")
        return
    assert code == EXIT_ERROR
    assert out == ""
    used = start or "TXT"
    assert err == f"{grammar}: error: grammar: start category {used} has no rules\n"


def test_criteria_reorder_stream(paths):
    code, out, _ = run(["generate", "--grammar", paths["voice"],
                        "--input", paths["report"], "--max", "0",
                        "--criteria", paths["criteria"]])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert len(lines) == 8
    assert all("wird" in line for line in lines[:4])
    assert all("wird" not in line for line in lines[4:])


def test_weights_prefix(paths, tmp_path):
    crit = tmp_path / "weighted.criteria"
    crit.write_text("s-passive 2\nnp-demonstrative 3\n", encoding="utf-8")
    code, out, _ = run(["generate", "--grammar", paths["voice"],
                        "--input", paths["report"], "--max", "0",
                        "--criteria", str(crit), "--weights"])
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0].startswith("[w=5] ")
    assert all(line.startswith("[w=") for line in lines)


@pytest.mark.parametrize("lines, weight, warned", [
    ("t x\n", 0, ["t x"]),
    ('t 2x\n"t y"\n', 0, ["t 2x", "t y"]),
    ('"t" 2\n', 2, []),
    ("s-passive\n", 0, []),  # one word: may be meant for another grammar
])
def test_criterion_naming_no_rule_is_warned_about(tmp_path, lines, weight, warned):
    grammar = tmp_path / "t.tgl"
    grammar.write_text('(DEFPRODUCTION "t" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
                       ' :ACTIONS (:TEMPLATE "a")))\n', encoding="utf-8")
    doc = tmp_path / "doc.gil"
    doc.write_text("[]", encoding="utf-8")
    crit = tmp_path / "t.criteria"
    crit.write_text(lines, encoding="utf-8")
    code, out, err = run(["generate", "--grammar", str(grammar), "--input", str(doc),
                          "--criteria", str(crit), "--weights"])
    assert (code, out) == (EXIT_OK, f"[w={weight}] a\n")
    assert err == "".join(f"warning: criterion '{name}' names no rule of the grammar\n"
                          for name in warned)


def test_stats_count_criteria_naming_no_rule(paths, tmp_path):
    misspelled = tmp_path / "misspelled.criteria"
    misspelled.write_text("s-pasive\n", encoding="utf-8")
    base = ["generate", "--grammar", paths["voice"], "--input", paths["report"]]
    for criteria, unmatched in ((str(misspelled), 1), (paths["criteria"], 0)):
        code, _, err = run(base + ["--criteria", criteria, "--stats"])
        assert code == EXIT_OK
        assert f"criteria-unmatched: {unmatched}" in err.splitlines()
        # without --stats a one-word name draws nothing
        assert run(base + ["--criteria", criteria])[2] == ""


def test_dedupe_flag(tmp_path):
    grammar = tmp_path / "dup.tgl"
    grammar.write_text(
        '(DEFPRODUCTION "one" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE "same")))\n'
        '(DEFPRODUCTION "two" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
        ' :ACTIONS (:TEMPLATE "same")))\n', encoding="utf-8")
    doc = tmp_path / "empty.gil"
    doc.write_text("[]", encoding="utf-8")
    base = ["generate", "--grammar", str(grammar), "--input", str(doc),
            "--max", "0"]
    _, out_plain, _ = run(base)
    assert out_plain.splitlines() == ["same", "same"]
    _, out_dedupe, _ = run(base + ["--dedupe"])
    assert out_dedupe.splitlines() == ["same"]


def test_stats_to_stderr(paths):
    code, out, err = run(["generate", "--grammar", paths["voice"],
                          "--input", paths["report"], "--max", "0", "--stats"])
    assert code == EXIT_OK
    assert "solutions: 8" in err
    assert "rules-fired:" in err
    assert "memo-hits:" in err
    assert "re-realizations:" in err
    assert "bt-points-created:" in err
    assert "bt-expansions:" in err
    assert "solutions" not in out  # stdout stays pure


def test_no_memo_same_output_more_firing(paths):
    base = ["generate", "--grammar", paths["voice"], "--input",
            paths["report"], "--max", "0", "--stats"]
    _, out_memo, err_memo = run(base)
    _, out_plain, err_plain = run(base + ["--no-memo"])
    assert out_memo == out_plain

    def fired(err):
        for line in err.splitlines():
            if line.startswith("rules-fired:"):
                return int(line.split(":")[1])
        raise AssertionError("missing stats")

    assert fired(err_plain) >= fired(err_memo)


def test_trace_goes_to_stderr(paths):
    code, out, err = run(["generate", "--grammar", paths["appointment"],
                          "--input", paths["meeting"], "--max", "1", "--trace"])
    assert code == EXIT_OK
    assert "rule-fired" in err
    assert "bt-created" in err
    assert "rule-fired" not in out


def test_validate_ok(paths):
    code, out, err = run(["validate", "--grammar", paths["appointment"]])
    assert code == EXIT_OK
    assert out == "OK\n"
    assert err == ""


def test_validate_syntax_error(tmp_path):
    bad = tmp_path / "bad.tgl"
    bad.write_text('(DEFPRODUCTION "x" (:PRECOND (:CAT TXT', encoding="utf-8")
    code, out, err = run(["validate", "--grammar", str(bad)])
    assert code == EXIT_ERROR
    assert "OK" not in out
    assert "1:" in err  # line-numbered diagnostic


def test_rule_name_used_twice_is_placed_at_the_name(tmp_path):
    bad = tmp_path / "twice.tgl"
    rule = '(DEFPRODUCTION "r" (:PRECOND (:CAT TXT :TEST ()) :ACTIONS (:TEMPLATE "a")))\n'
    bad.write_text(rule + "\n" + rule, encoding="utf-8")
    code, out, err = run(["validate", "--grammar", str(bad)])
    assert (code, out, err) == \
        (EXIT_ERROR, "", f"error: {bad}:3:16: rule name 'r' used twice\n")


def test_validate_unknown_function(tmp_path):
    bad = tmp_path / "calls.tgl"
    bad.write_text('(DEFPRODUCTION "x" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
                   ' :ACTIONS (:TEMPLATE (:FUN (frobnicate)))))',
                   encoding="utf-8")
    code, _, err = run(["validate", "--grammar", str(bad)])
    assert code == EXIT_ERROR
    assert "frobnicate" in err


def test_custom_lexicon_flag(paths, tmp_path):
    lex = tmp_path / "tiny.lex"
    lex.write_text(
        "meet | vform=inf -> sehen\n"
        "wollen | tense=pres,num=sg,person=3 -> will\n"
        "sie-formal | -> Sie\n", encoding="utf-8")
    code, out, _ = run(["generate", "--grammar", paths["appointment"],
                        "--input", paths["meeting"], "--max", "1",
                        "--lexicon", str(lex)])
    assert code == EXIT_OK
    assert out == "Prof. Zweig will Sie am Freitag sehen\n"


@pytest.mark.parametrize("flag, text, message", [
    ("--lexicon", "meet | vform=inf sehen\n",
     "line 1: cell 'vform=inf sehen' lacks '->'"),
    ("--lexicon", "# head\n | -> x\n", "line 2: entry without a lemma"),
    ("--lexicon", "w | case=akk ->\n", "line 1: empty surface form"),
    ("--lexicon", "w | -> x | -> y\n", "line 1: two fallback cells"),
    ("--criteria", "dup\ndup\n", "criteria name a rule more than once"),
    ("--criteria", 'ok\n"open 2\n', "line 2: unterminated quoted name"),
    ("--criteria", '"r" heavy\n', "line 1: bad weight 'heavy'"),
])
def test_malformed_lexicon_or_criteria_file_is_an_input_error(
        paths, tmp_path, flag, text, message):
    bad = tmp_path / "bad"
    bad.write_text(text, encoding="utf-8")
    code, out, err = run(["generate", "--grammar", paths["appointment"],
                          "--input", paths["meeting"], flag, str(bad)])
    assert (code, out, err) == (EXIT_ERROR, "", f"error: {bad}: {message}\n")


def test_negative_max_is_a_usage_error(paths):
    code, out, err = run(["generate", "--grammar", paths["appointment"],
                          "--input", paths["meeting"], "--max", "-1"])
    assert (code, out, err) == (EXIT_ERROR, "", "error: --max must be >= 0\n")


def test_word_form_error_while_generating_exits_two(tmp_path):
    grammar = tmp_path / "g.tgl"
    grammar.write_text('(DEFPRODUCTION "day" (:PRECOND (:CAT TXT :TEST ((TRUE)))'
                       ' :ACTIONS (:TEMPLATE (:FUN (weekday 9)))))',
                       encoding="utf-8")
    doc = tmp_path / "doc.gil"
    doc.write_text("[]", encoding="utf-8")
    code, out, err = run(["generate", "--grammar", str(grammar),
                          "--input", str(doc)])
    assert (code, out, err) == \
        (EXIT_ERROR, "", "error: weekday wants an integer 1..7, got 9\n")


def test_deeply_nested_input_follows_the_exit_code_contract(paths, tmp_path):
    # the GIL reader has no recursion ceiling: 100,000 levels parse, and the
    # demo grammar finds no solution in them
    depth = 100_000
    doc = tmp_path / "nested.gil"
    doc.write_text("[(A " * depth + "x" + ")]" * depth, encoding="utf-8")
    code, out, err = run(["generate", "--grammar", paths["appointment"],
                          "--input", str(doc)])
    assert code == EXIT_NO_SOLUTION
    assert out == ""
    assert "error:" not in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["generate", "validate"])
def test_superscript_digit_is_an_input_error(paths, tmp_path, command):
    doc = tmp_path / "sup.gil"
    doc.write_text("[(A \u00b2)]", encoding="utf-8")
    grammar = tmp_path / "sup.tgl"
    grammar.write_text('(DEFPRODUCTION "r" (:PRECOND (:CAT TXT :TEST ((EQ A \u00b2)))'
                       ' :ACTIONS (:TEMPLATE "a")))', encoding="utf-8")
    argv = [command, "--grammar", str(grammar)]
    if command == "generate":
        argv = ["generate", "--grammar", paths["appointment"], "--input", str(doc)]
    code, out, err = run(argv)
    assert code == EXIT_ERROR
    assert out == ""
    path, col = (doc, 5) if command == "generate" else (grammar, 53)
    assert err == f"error: {path}:1:{col}: unexpected character '\u00b2'\n"


@pytest.mark.parametrize("which", ["grammar", "input", "criteria", "lexicon"])
def test_file_that_is_not_utf8_is_an_input_error(paths, tmp_path, which):
    bad = tmp_path / f"bad.{which}"
    bad.write_bytes(b"; \xff\n")
    files = {"grammar": paths["appointment"], "input": paths["meeting"],
             "criteria": paths["criteria"], "lexicon": None, which: str(bad)}
    argv = ["generate"] + [arg for name, path in files.items() if path
                           for arg in (f"--{name}", path)]
    code, out, err = run(argv)
    assert code == EXIT_ERROR
    assert out == ""
    assert err == f"error: cannot read {which} {str(bad)!r}: not UTF-8 (byte 2)\n"


@pytest.mark.parametrize("command", ["generate", "validate"])
def test_too_deeply_nested_grammar_is_an_input_error(paths, tmp_path, command):
    # selector calls nested as arguments of selector calls are read,
    # checked and formatted without recursion, so a deep chain reaches
    # validation, which reports the names the CLI has not registered
    depth = 3000
    grammar = tmp_path / "nested.tgl"
    grammar.write_text(
        '(DEFPRODUCTION "t" (:PRECOND (:CAT TXT :TEST ((PRED p '
        + "(SEL s " * depth + "(SELF)" + ")" * depth
        + '))) :ACTIONS (:TEMPLATE "x")))\n', encoding="utf-8")
    argv = [command, "--grammar", str(grammar)]
    if command == "generate":
        argv += ["--input", paths["meeting"]]
    code, out, err = run(argv)
    assert code == EXIT_ERROR
    assert out == ""
    where = f"{grammar}: error: rule 't' (line 1): "
    assert err == (where + "unknown predicate 'p'\n"
                   + (where + "unknown selector 's'\n") * depth)


@pytest.mark.parametrize("command", ["generate", "validate"])
def test_deeply_nested_test_is_accepted(paths, tmp_path, command):
    depth = 3000
    grammar = tmp_path / "nested.tgl"
    grammar.write_text(
        '(DEFPRODUCTION "t" (:PRECOND (:CAT TXT :TEST ('
        + "(NOT " * depth + "(TRUE)" + ")" * depth
        + ')) :ACTIONS (:TEMPLATE "x")))\n', encoding="utf-8")
    argv = [command, "--grammar", str(grammar)]
    if command == "generate":
        argv += ["--input", paths["meeting"]]
    assert run(argv) == (EXIT_OK, "x\n" if command == "generate" else "OK\n", "")


@pytest.mark.parametrize("items, code, cut", [(60, EXIT_OK, False),
                                              (70, EXIT_NO_SOLUTION, True)])
def test_depth_cutoff_is_reported(tmp_path, items, code, cut):
    grammar = tmp_path / "list.tgl"
    grammar.write_text(LIST_GRAMMAR, encoding="utf-8")
    doc = tmp_path / "list.gil"
    doc.write_text(list_gil(items), encoding="utf-8")
    got, out, err = run(["generate", "--grammar", str(grammar),
                         "--input", str(doc)])
    assert got == code
    if cut:
        assert out == ""
        assert err.startswith("note: no solution within max_depth 64; ")
        assert len(err.splitlines()) == 1
    else:
        assert out == " ".join(str(k) for k in range(1, items + 1)) + "\n"
        assert err == ""


# Demo stdout byte for byte: the stream order, texts and weights of both
# demos, plain, exhaustive and under criteria.
VOICE_ALL = [
    "Der Professor prüft den Bericht",
    "Der Professor prüft diesen Bericht",
    "Dieser Professor prüft den Bericht",
    "Dieser Professor prüft diesen Bericht",
    "Der Bericht wird von dem Professor geprüft",
    "Der Bericht wird von diesem Professor geprüft",
    "Dieser Bericht wird von dem Professor geprüft",
    "Dieser Bericht wird von diesem Professor geprüft",
]
MEETING_ALL = ["Prof. Zweig will Sie am Freitag treffen",
               "Zweig will Sie am Freitag treffen"]

GOLDEN = [
    ("voice", "report", [], VOICE_ALL[:1]),
    ("voice", "report", ["--max", "0"], VOICE_ALL),
    ("voice", "report", ["--criteria", "criteria"], VOICE_ALL[4:5]),
    ("voice", "report", ["--criteria", "criteria", "--weights"], ["[w=1] " + VOICE_ALL[4]]),
    ("voice", "report", ["--max", "0", "--criteria", "criteria", "--weights"],
     ["[w=1] " + t for t in VOICE_ALL[4:]] + ["[w=0] " + t for t in VOICE_ALL[:4]]),
    ("appointment", "meeting", [], MEETING_ALL[:1]),
    ("appointment", "meeting", ["--max", "0"], MEETING_ALL),
    ("appointment", "meeting", ["--criteria", "criteria"], MEETING_ALL[:1]),
    ("appointment", "meeting", ["--criteria", "criteria", "--weights"], ["[w=0] " + MEETING_ALL[0]]),
    ("appointment", "meeting", ["--max", "0", "--criteria", "criteria", "--weights"],
     ["[w=0] " + t for t in MEETING_ALL]),
]


@pytest.mark.parametrize("grammar, doc, flags, lines", GOLDEN)
def test_demo_output_is_pinned(paths, grammar, doc, flags, lines):
    code, out, err = run(["generate", "--grammar", paths[grammar],
                          "--input", paths[doc]] + [paths.get(f, f) for f in flags])
    assert code == EXIT_OK
    assert out.encode("utf-8") == "".join(f"{t}\n" for t in lines).encode("utf-8")
    assert err == ""
