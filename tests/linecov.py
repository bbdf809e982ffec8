"""An opt-in line tracer for ``src/surfgen``, as a pytest plugin.

Run the whole suite under it with::

    PYTHONPATH=src python -m pytest -q -p tests.linecov

It traces only frames whose file is under ``src/surfgen``, from before the
suite imports the package, and fails the run when a line that compiles to
code is not run and is not in ``ALLOWED``, or when a line in ``ALLOWED`` is
run.  The unrun lines are written in the terminal summary.  Python 3.11 has
no ``sys.monitoring``, so it uses ``sys.settrace``; the suite takes about
three times as long under it.

The trace functions are module-level functions, not closures: a closure
that refers to itself would make a reference cycle per traced call, which
the tests that count the collector's garbage would see.
"""

import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "surfgen"

# (file, the line's source text stripped) -> why the line may stay unrun
ALLOWED = {
    ("backtrack.py", 'return (f"<B{self.id} {self.category} variants={len(self.variants)} "'):
        "__repr__, for debugging only",
    ("backtrack.py", 'f"remainder={len(self.remainder)}>")'):
        "__repr__, for debugging only",
    ("backtrack.py", 'owner = f"B{self.point.id}" if self.point else "root"'):
        "__repr__, for debugging only",
    ("backtrack.py", 'return f"<Layer {owner} depth={self.depth}>"'):
        "__repr__, for debugging only",
    ("engine.py", 'return f"InflectCall({self.entry.name}, {self.args})"'):
        "__repr__, for debugging only",
    ("engine.py", 'return f"<{self.category} {self.rule_name!r}>"'):
        "__repr__, for debugging only",
    ("cli.py", "sys.exit(main())"):
        "runs only as `python -m surfgen.cli`, in a subprocess",
    ("session.py", 'raise EngineError(f"cannot copy {item!r}")'):
        "the memo stores only nodes and points; goes with the memo",
}

_prefix = str(SRC) + "/"
_run: dict = {}  # file name -> the line numbers run in it


def _on_call(frame, event, arg):
    name = frame.f_code.co_filename
    if not name.startswith(_prefix):
        return None
    lines = _run.get(name)
    if lines is None:
        lines = _run[name] = set()
    lines.add(frame.f_lineno)
    return _on_line


def _on_line(frame, event, arg):
    if event == "line":
        _run[frame.f_code.co_filename].add(frame.f_lineno)
    return _on_line


def code_lines(path: Path) -> set:
    """The line numbers that some code object compiled from path runs."""
    lines = set()
    todo = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def unrun_lines() -> dict:
    """(file, line number) -> the stripped source text of each line that
    compiles to code and was not run."""
    unrun = {}
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        run = _run.get(str(path), set())
        for n in sorted(code_lines(path) - run):
            unrun[path.name, n] = text[n - 1].strip()
    return unrun


@pytest.hookimpl(tryfirst=True)
def pytest_load_initial_conftests(early_config, parser, args):
    if any(name == "surfgen" or name.startswith("surfgen.") for name in sys.modules):
        raise pytest.UsageError("tests.linecov must start before surfgen is imported")
    sys.settrace(_on_call)


def pytest_sessionfinish(session, exitstatus):
    sys.settrace(None)
    unrun = unrun_lines()
    found = {(name, text) for (name, _), text in unrun.items()}
    missed = {key: text for key, text in unrun.items() if (key[0], text) not in ALLOWED}
    ran = sorted(key for key in ALLOWED if key not in found)
    session.config._linecov = (unrun, missed, ran)
    if missed or ran:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not hasattr(config, "_linecov"):
        return
    unrun, missed, ran = config._linecov
    write = terminalreporter.write_line
    write(f"linecov: {len(unrun)} lines of src/surfgen unrun, "
          f"{len(ALLOWED)} allowed")
    for (name, n), text in sorted(missed.items()):
        write(f"linecov: unrun and not allowed: {name}:{n}: {text}")
    for name, text in ran:
        write(f"linecov: allowed but run, or gone: {name}: {text}")
