"""Reproduce the faults found while sizing the workloads.

    python3 perfbench/repro.py list-cutoff     # 64-item list: no solution, no note
    python3 perfbench/repro.py list-recursion  # max_depth raised, 400 items
    python3 perfbench/repro.py gil-recursion   # 600-deep GIL through the CLI
    python3 perfbench/repro.py memo            # deep list, memo on against off

Run from the root of a checkout.  Each case prints what it observed.
"""

import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from surfgen import gil, prefs, tgl  # noqa: E402

GRAMMAR = HERE / "grammars" / "deep.tgl"
WORK = HERE / "out" / "repro"


def list_doc(n: int) -> str:
    body = ""
    for k in range(n, 0, -1):
        body = f"[(ITEM [(PRED document) (NO {k})])" + (f" (REST {body})" if body else "") + "]"
    return f"[(ITEMS {body})]"


def write(name: str, text: str) -> Path:
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / name
    path.write_text(text, encoding="utf-8")
    return path


def run_cli(doc: Path):
    return subprocess.run([sys.executable, "-m", "surfgen.cli", "generate",
                           "--grammar", str(GRAMMAR), "--input", str(doc), "--max", "0"],
                          capture_output=True, text=True, cwd=ROOT,
                          env={"PYTHONPATH": str(ROOT / "src")})


def list_cutoff() -> None:
    for n in (63, 64):
        p = run_cli(write(f"list{n}.gil", list_doc(n)))
        print(f"{n} items: exit {p.returncode}, {len(p.stdout.splitlines())} "
              f"solution(s), stderr {p.stderr.strip()!r}")


def list_recursion() -> None:
    grammar = tgl.parse_grammar(GRAMMAR.read_text(encoding="utf-8"))
    session = prefs.make_session(grammar)
    session.max_depth = 10_000
    try:
        n = len(list(session.solutions(gil.parse_gil(list_doc(400)))))
        print(f"400 items, max_depth 10000: {n} solutions")
    except RecursionError as e:
        print(f"400 items, max_depth 10000: RecursionError: {e}")


def gil_recursion() -> None:
    depth = 600
    doc = write("nested600.gil", "[(A " * depth + "x" + ")]" * depth)
    p = run_cli(doc)
    last = p.stderr.strip().splitlines()[-1] if p.stderr.strip() else ""
    print(f"{depth}-deep GIL: exit {p.returncode}, traceback "
          f"{'Traceback' in p.stderr}, last stderr line {last!r}")


def memo() -> None:
    grammar = tgl.parse_grammar(GRAMMAR.read_text(encoding="utf-8"))
    text = list_doc(50)
    for use_memo in (True, False):
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            session = prefs.make_session(grammar, use_memo=use_memo)
            n = len(list(session.solutions(gil.parse_gil(text))))
            best = min(best, time.perf_counter() - t0)
        print(f"50 items, memo {'on ' if use_memo else 'off'}: {n} solutions, "
              f"best of 5 {best * 1e3:.1f} ms, memo hits {session.stats.memo_hits}")


CASES = {"list-cutoff": list_cutoff, "list-recursion": list_recursion,
         "gil-recursion": gil_recursion, "memo": memo}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in CASES:
        sys.exit(f"usage: repro.py {{{'|'.join(CASES)}}}")
    CASES[sys.argv[1]]()
