"""The benchmark against the current program.

perfbench wraps surfgen functions by name for its traced run.  The
self-check fails here when one of those names is renamed away; the span
test fails when the program stops calling one of them (say, when emission
bypasses the combination check), since its per-layer metric would then
read nothing.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Runs in a child process: perfbench re-imports surfgen afresh per workload.
SPANS_SCRIPT = """
import json, pathlib, sys
sys.path.insert(0, "perfbench")
import run
from tracing import WRAPPED, Tracer

run.OUT = pathlib.Path(sys.argv[1])
report = {}
for name in ("corpus", "wide", "deep"):
    sg, regs, wl = run.setup(name, 7, tiny=True)
    tracer = Tracer()
    tracer.install(sg)
    results = {op.key: run.result_of(run.request(sg, regs, op, tracer)[2])
               for op in wl.ops}
    tally = run.Tally()
    for case in run.cli_cases(wl, name):
        run.cli_call(sg, case, results, tally, tracer)
    opened = {span for _, span in tracer.calls}
    report[name] = {"unopened": sorted({w[2] for w in WRAPPED} - opened),
                    "failed": tally.failed, "rejected": dict(tally.rejected)}
print(json.dumps(report))
"""


def test_perfbench_selfcheck_passes():
    proc = subprocess.run([sys.executable, "perfbench/selfcheck.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_every_wrapped_function_opens_a_span(tmp_path):
    proc = subprocess.run([sys.executable, "-c", SPANS_SCRIPT, str(tmp_path)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert set(report) == {"corpus", "wide", "deep"}
    for name, got in report.items():
        assert got == {"unopened": [], "failed": 0, "rejected": {}}, name
