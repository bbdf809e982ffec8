"""Self-check of the benchmark, at a tiny size of every workload.

    python3 perfbench/selfcheck.py

It shows three things, and exits 1 if any fails:
- every output of a tiny round passes its workload's checks;
- each check rejects a deliberately corrupted output (so none passes
  vacuously), including the comparison of CLI output;
- the metric names a run prints are exactly those in BENCHMARK.json, for
  both ``--trace 0`` and ``--trace 1``.
"""

import copy
import json
import sys

import run
from workloads import Result

SEED = 7


def results_of(sg, regs, wl):
    out = {}
    for op in wl.ops:
        solutions = run.request(sg, regs, op)[2]
        out[op.key] = run.result_of(solutions)
    return out


def corrupted(wl, results):
    """(operation, corrupted result, label its check must report)."""
    def variant(op, edit):
        res = copy.deepcopy(results[op.key])
        edit(res)
        return op, res

    ops = wl.ops
    first = {}
    for op in ops:
        first.setdefault(op.key[0], op)
    cases = []
    if wl.name == "corpus":
        def reverse(res):
            res.texts.reverse()
            res.rules.reverse()
        cases += [
            (*variant(first["a"], lambda r: r.texts.__setitem__(0, r.texts[0] + "x")),
             "oracle"),
            (*variant(first["a"], lambda r: r.texts.append(r.texts[0])), "oracle"),
            (*variant(first["v"], reverse), "criteria-order"),
            (*variant(first["d"], reverse), "worked-example"),
        ]
    elif wl.name == "wide":
        op = ops[0]
        n = op.info["n"]
        i, (alt, _) = next(iter(wl.named.items()))

        def drop_criterion(res):
            other = {"sg": "pl", "pl": "sg"}[alt]
            res.rules[0] = tuple(f"c{i}-{other}" if r == f"c{i}-{alt}" else r
                                 for r in res.rules[0])
            res.texts[0], res.weights[0] = wl.solution_of(n, res.rules[0])

        def repeat(res):
            res.texts[2], res.weights[2], res.rules[2] = \
                res.texts[1], res.weights[1], res.rules[1]

        cases += [
            (*variant(op, lambda r: r.texts.__setitem__(1, r.texts[1][::-1])), "text"),
            (*variant(op, lambda r: r.weights.__setitem__(1, r.weights[1] + 1)), "weight"),
            (*variant(op, repeat), "distinct"),
            (*variant(op, drop_criterion), "criteria-first"),
            (*variant(op, lambda r: r.texts.pop()), "count"),
        ]
    else:
        def swap(res):
            res.texts.reverse()
        cases += [(*variant(ops[0], swap), "items"),
                  (*variant(ops[0], lambda r: r.texts.__setitem__(0, r.texts[0] + " x")),
                   "items")]
    return cases


def check_workload(name: str, expected_names: dict) -> list:
    problems = []
    sg, regs, wl = run.setup(name, SEED, tiny=True)
    results = results_of(sg, regs, wl)
    for op in wl.ops:
        labels = wl.check(op, results[op.key])
        if labels:
            problems.append(f"{name}: {op.key} rejected as {labels}")
    for op, res, label in corrupted(wl, results):
        labels = wl.check(op, res)
        if label not in labels:
            problems.append(f"{name}: corrupted {op.key} ({label}) passed: {labels}")
        else:
            print(f"ok  {name}: corrupted output rejected as {label!r}")
    bad_cli = {k: Result([t + "!" for t in r.texts], r.weights, r.rules)
               for k, r in results.items()}
    tally = run.Tally()
    for case in run.cli_cases(wl, f"selfcheck-{name}"):
        run.cli_call(sg, case, bad_cli, tally)
    if tally.rejected["cli-output"] != tally.attempted or tally.failed:
        problems.append(f"{name}: corrupted CLI expectations not all rejected")
    else:
        print(f"ok  {name}: {tally.attempted} CLI outputs rejected against "
              f"corrupted expectations")
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result, _ = run.run(name, SEED, 0, trace, tiny=True)
        printed = set(result["metrics"])
        if printed != expected_names[kind]:
            problems.append(f"{name} trace={int(trace)}: names differ from "
                            f"BENCHMARK.json: {sorted(printed ^ expected_names[kind])}")
        elif not result["correct"] or result["failed"]:
            problems.append(f"{name} trace={int(trace)}: tiny run not correct: "
                            f"{result['failed']} failed")
        else:
            print(f"ok  {name} trace={int(trace)}: {len(printed)} {kind} metrics, "
                  f"{result['attempted']} operations, all checked")
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected_names = {kind: {m["name"] for m in spec[kind]}
                      for kind in ("end_to_end", "per_layer")}
    workloads = [w["name"] for w in spec["workloads"]]
    problems = []
    for name in workloads:
        problems += check_workload(name, expected_names)
    for line in problems:
        print(f"FAIL {line}")
    print("selfcheck:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
