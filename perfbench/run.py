"""The surfgen benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload corpus|wide|deep --seed N
                             --seconds S --trace 0|1

Run from the root of a source checkout; surfgen is imported from ./src.
The workload is set up from the seed, then its round of documents is
taken through their whole request again and again until ``--seconds``
have passed, ending on a whole round.  Each round is followed by in-process
CLI calls on files of the workload and, untraced, by one more timed
set-up, until there are five.  Every output is checked outside the timed
regions.  Timings are taken per document as its median over the rounds:
this machine's speed switches between a steady state and faster spells of
seconds, and a median over rounds spread across the run keeps the steady
state.  A last, untimed pass measures the tracemalloc peak.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the layers' public functions are
wrapped in spans (see tracing.py) and the object holds the per-layer
metrics instead.  Lines before it starting with ``#`` are for reference.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
import types  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MODULES = ("gil", "tgl", "morpho", "engine", "backtrack", "session", "prefs", "cli")
OWN = ("surfgen", "tests")  # packages a set-up imports afresh
SETUPS = 5  # setup_s is the median of this many set-ups in one run
# Times are reported at a reference speed: the speed at which calibrate()
# takes REF_CAL_NS, this loop's time at the steady speed of the 2-core
# machine the benchmark was tuned on.  See README.md, "Reference speed".
REF_CAL_NS = 700_000
CAL_EVERY_NS = 50_000_000  # re-measure the speed after this long

sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, Result, rule_names  # noqa: E402


def load_surfgen():
    """A fresh import of surfgen, as a namespace of its modules."""
    for name in [m for m in sys.modules if m.split(".")[0] in OWN]:
        del sys.modules[name]
    return types.SimpleNamespace(**{m: importlib.import_module(f"surfgen.{m}")
                                    for m in MODULES})


def setup(name: str, seed: int, tiny: bool = False):
    sg = load_surfgen()
    regs = sg.tgl.Registries.standard()
    return sg, regs, WORKLOADS[name](sg, regs, seed, tiny)


def _noop(*_):
    pass


def request(sg, regs, op, tracer=None):
    """One document through its whole request; returns the timings, the
    solutions in stream order and the session."""
    begin = tracer.begin if tracer else _noop
    end = tracer.end if tracer else _noop
    rules_after_first = 0
    t0 = perf_counter_ns()
    begin("doc")
    try:
        fs = sg.gil.parse_gil(op.text)
        begin("session.first")
        try:
            session = sg.prefs.make_session(op.grammar, op.spec, registries=regs)
            stream = session.solutions(fs, op.start)
            solutions = [next(stream, None)]
        finally:
            end()
        t1 = perf_counter_ns()
        if solutions[0] is not None:
            if tracer:
                rules_after_first = session.stats.snapshot()["rules-fired"]
            for _ in range(op.further):
                begin("session.next")
                try:
                    solution = next(stream, None)
                finally:
                    end()
                if solution is None:
                    break
                solutions.append(solution)
    finally:
        end()
    t2 = perf_counter_ns()
    stream.close()
    return t1 - t0, t2 - t1, solutions, session, rules_after_first


def result_of(solutions) -> Result:
    return Result([s.text for s in solutions], [s.weight for s in solutions],
                  [rule_names(s.derivation) for s in solutions])


class Tally:
    """Operations attempted and failed, and checks that rejected output."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.rejected = Counter()

    def fail(self, what: str) -> None:
        self.failed += 1
        if self.failed == 1:
            print(f"# first failed operation: {what}", file=sys.stderr)


def run_checked(sg, regs, wl, op, tally, tracer=None, doc=None):
    """request() plus its check; None when the operation failed."""
    tally.attempted += 1
    if tracer:
        tracer.open_op("doc", doc)
    try:
        out = request(sg, regs, op, tracer)
    except Exception:  # noqa: BLE001 - a failing operation is counted, not fatal
        if tracer:
            tracer.close_op()
        tally.fail(f"{op.key}: {traceback.format_exc(limit=3)}")
        return None
    doc_self_ns = tracer.close_op() if tracer else 0
    first_ns, next_ns, solutions, session, rules_after_first = out
    if solutions[0] is None:
        tally.fail(f"{op.key}: no solution")
        return None
    res = result_of(solutions)
    for label in wl.check(op, res):
        tally.rejected[label] += 1
    if tracer and doc_self_ns > first_ns + next_ns:
        tally.rejected["span-self-time"] += 1
    return first_ns, next_ns, res, session, rules_after_first


def _calibration_unit() -> int:
    """Fixed pure-Python work (dicts, tuples, strings), no surfgen."""
    counts: dict = {}
    parts = []
    for i in range(400):
        key = ("k", i % 53)
        counts[key] = counts.get(key, 0) + i
        parts.append(str(i))
    return len(" ".join(parts)) + len(counts)


def calibrate() -> int:
    """ns for four calibration units, the best of three tries."""
    best = None
    for _ in range(3):
        t0 = perf_counter_ns()
        for _ in range(4):
            _calibration_unit()
        elapsed = perf_counter_ns() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best


class Speed:
    """The machine's current speed, as the factor that turns a time
    measured now into the time at the reference speed."""

    def __init__(self):
        self.at = self.factor = 0

    def scale(self, fresh: bool = False) -> float:
        if fresh or perf_counter_ns() - self.at > CAL_EVERY_NS:
            self.factor = REF_CAL_NS / calibrate()
            self.at = perf_counter_ns()
        return self.factor


def timed_setup(name: str, seed: int, tiny: bool, speed: Speed) -> tuple:
    """Time one more set-up, then put back the modules the run is using;
    (seconds, speed factor)."""
    factor = speed.scale(fresh=True)
    saved = {m: mod for m, mod in sys.modules.items() if m.split(".")[0] in OWN}
    t0 = perf_counter()
    setup(name, seed, tiny)
    elapsed = perf_counter() - t0
    for m in [m for m in sys.modules if m.split(".")[0] in OWN]:
        del sys.modules[m]
    sys.modules.update(saved)
    return elapsed, factor


def cli_cases(wl, tag: str) -> list:
    """(operation, argv, solutions printed) per CLI case, inputs on disk."""
    workdir = OUT / tag
    workdir.mkdir(parents=True, exist_ok=True)
    cases = []
    for op, args, limit in wl.cli_cases(workdir):
        path = workdir / f"{op.key}.gil"
        path.write_text(op.text, encoding="utf-8")
        cases.append((op, ["generate", "--input", str(path)] + args, limit))
    return cases


def cli_call(sg, case, results, tally, tracer=None):
    """In-process `surfgen generate`; ms, or None when it failed.  Its
    stdout must equal the checked in-process solutions of the document."""
    op, argv, limit = case
    tally.attempted += 1
    out, err = io.StringIO(), io.StringIO()
    if tracer:
        tracer.open_op("cli", f"cli{tally.attempted}")
    with redirect_stdout(out), redirect_stderr(err):
        t0 = perf_counter_ns()
        code = sg.cli.main(argv)
        t1 = perf_counter_ns()
    if tracer:
        tracer.close_op()
    if code != 0:
        tally.fail(f"cli {argv}: exit {code}: {err.getvalue()[-300:]}")
        return None
    res = results.get(op.key)
    expected = None if res is None else "".join(t + "\n" for t in res.texts[:limit or None])
    if out.getvalue() != expected:
        tally.rejected["cli-output"] += 1
    return (t1 - t0) / 1e6


class Loop:
    """What the timed loop measured, each time with the speed factor that
    held when it was taken: per document, one (first ns, further ns,
    further solutions, factor) sample per round; per CLI case, (ms,
    factor) per call; (seconds, factor) per set-up."""

    def __init__(self):
        self.samples: dict = {}
        self.results: dict = {}
        self.cli_ms: dict = {}
        self.setups: list = []
        self.stats = Counter()
        self.rounds = 0


def timed_loop(sg, regs, wl, seconds: float, tally: Tally, cases, speed: Speed,
               tracer=None, resetup=None) -> Loop:
    """Rounds of the workload's documents, each round followed by its CLI
    calls (and, untraced, by one more set-up until there are SETUPS), so
    that every figure samples the whole run."""
    loop = Loop()
    per_round = wl.cli_per_round or len(cases)
    deadline = perf_counter() + seconds
    doc = calls = 0
    while True:
        for op in wl.ops:
            doc += 1
            factor = speed.scale()
            out = run_checked(sg, regs, wl, op, tally, tracer, doc)
            if out is None:
                continue
            first_ns, next_ns, res, session, rules_after_first = out
            loop.samples.setdefault(op.key, []).append(
                (first_ns, next_ns, len(res.texts) - 1, factor))
            loop.results.setdefault(op.key, res)
            if tracer:
                snap = session.stats.snapshot()
                loop.stats.update({k: v for k, v in snap.items() if isinstance(v, int)})
                loop.stats["rules-after-first"] += rules_after_first
        for _ in range(per_round):
            case = cases[calls % len(cases)]
            factor = speed.scale(fresh=True)
            ms = cli_call(sg, case, loop.results, tally, tracer)
            calls += 1
            if ms is not None:
                loop.cli_ms.setdefault(case[0].key, []).append((ms, factor))
        loop.rounds += 1
        if resetup and len(loop.setups) < SETUPS - 1:
            loop.setups.append(resetup())
        if perf_counter() >= deadline:
            break
    while resetup and len(loop.setups) < SETUPS - 1:
        loop.setups.append(resetup())
    return loop


def peak_pass(sg, regs, wl, tally) -> float:
    """Median tracemalloc peak (KiB) of a whole request, over the documents
    of the workload's largest size."""
    top = max(op.size for op in wl.ops)
    peaks = []
    for op in (op for op in wl.ops if op.size == top):
        gc.collect()  # garbage of earlier requests must not count
        tracemalloc.start()
        try:
            out = run_checked(sg, regs, wl, op, tally)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if out is not None:
            peaks.append(peak / 1024)
    return statistics.median(peaks) if peaks else float("nan")


def p90(samples) -> float:
    samples = list(samples)
    if len(samples) < 2:
        return float("nan")
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def per_document(loop: Loop, scaled: bool = True):
    """Each document's median over the rounds, at the reference speed
    unless ``scaled`` is false: (first ms, further ns, further solutions,
    whole request ns)."""
    med = statistics.median
    out = []
    for s in loop.samples.values():
        k = [x if scaled else 1.0 for *_, x in s]
        out.append((med(f * x for (f, _, _, _), x in zip(s, k)) / 1e6,
                    med(n * x for (_, n, _, _), x in zip(s, k)), s[0][2],
                    med((f + n) * x for (f, n, _, _), x in zip(s, k))))
    return out


def median_scaled(pairs, scaled: bool = True) -> float:
    return statistics.median(v * (x if scaled else 1.0) for v, x in pairs)


def end_to_end(loop: Loop, peak_kib: float) -> dict:
    docs = per_document(loop)
    return {
        "setup_s": (median_scaled(loop.setups), "s"),
        "first_ms_p50": (statistics.median(d[0] for d in docs), "ms"),
        "next_us": (sum(d[1] for d in docs) / 1e3 / sum(d[2] for d in docs), "us"),
        "docs_per_s": (len(docs) / (sum(d[3] for d in docs) / 1e9), "1/s"),
        "cli_ms_p50": (statistics.median(median_scaled(c) for c in loop.cli_ms.values()),
                       "ms"),
        "peak_kib": (peak_kib, "KiB"),
    }


def reference(loop: Loop) -> list:
    """The p90s and sample counts behind the medians."""
    med = statistics.median
    firsts = [f * x / 1e6 for s in loop.samples.values() for f, _, _, x in s]
    docs = [d[0] for d in per_document(loop)]
    calls = [ms * x for c in loop.cli_ms.values() for ms, x in c]
    cases = sorted(round(median_scaled(c), 3) for c in loop.cli_ms.values())
    raw = end_to_end_raw(loop)
    factors = [x for s in loop.samples.values() for *_, x in s]
    return [f"# first_ms: per-document medians p50={med(docs):.4f} p90={p90(docs):.4f} "
            f"n={len(docs)}; all samples p50={med(firsts):.4f} p90={p90(firsts):.4f} "
            f"n={len(firsts)}",
            f"# cli_ms: per-case medians {cases}; all calls p50={med(calls):.4f} "
            f"p90={p90(calls):.4f} n={len(calls)}",
            f"# setup_s samples={[round(v * x, 4) for v, x in loop.setups]}",
            f"# speed factor median={med(factors):.4f} min={min(factors):.4f} "
            f"max={max(factors):.4f}; unscaled " + " ".join(
                f"{k}={v:.4f}" for k, v in raw.items())]


def end_to_end_raw(loop: Loop) -> dict:
    """The timings as the clock read them, without the speed factor."""
    docs = per_document(loop, scaled=False)
    return {
        "setup_s": median_scaled(loop.setups, scaled=False),
        "first_ms_p50": statistics.median(d[0] for d in docs),
        "next_us": sum(d[1] for d in docs) / 1e3 / sum(d[2] for d in docs),
        "docs_per_s": len(docs) / (sum(d[3] for d in docs) / 1e9),
        "cli_ms_p50": statistics.median(median_scaled(c, scaled=False)
                                        for c in loop.cli_ms.values()),
    }


def per_layer(tr: Tracer, loop: Loop) -> dict:
    stats = loop.stats
    docs = sum(len(s) for s in loop.samples.values())
    sols = stats["solutions"]
    nexts = sols - docs
    calls = tr.count("cli", "cli.main")

    def us(name, per):
        return tr.ms("doc", name) * 1e3 / per

    def cli_ms(name):
        return tr.ms("cli", name) / calls

    lookups = tr.count("doc", "backtrack.memo_lookup")
    return {
        "gil.parse_us": (us("gil.parse", docs), "us/doc"),
        "gil.digest_calls": (tr.count("doc", "gil.digest") / docs, "count/doc"),
        "gil.digest_us": (us("gil.digest", docs), "us/doc"),
        "tgl.parse_ms": (cli_ms("tgl.parse"), "ms/call"),
        "tgl.validate_ms": (cli_ms("tgl.validate"), "ms/call"),
        "tgl.test_evals": (tr.count("doc", "tgl.test") / docs, "count/doc"),
        "tgl.test_us": (us("tgl.test", docs), "us/doc"),
        "tgl.selector_us": (us("tgl.selector", docs), "us/doc"),
        "engine.match_us": (us("engine.match", docs), "us/doc"),
        "engine.constraints_us": (us("engine.constraints", docs), "us/doc"),
        "engine.realize_us": (us("engine.realize", sols), "us/sol"),
        "backtrack.memo_lookups": (lookups / docs, "count/doc"),
        "backtrack.memo_hits": (stats["memo-hits"] / docs, "count/doc"),
        "backtrack.memo_hit_ratio": (stats["memo-hits"] / lookups if lookups else 0.0,
                                     "ratio"),
        "backtrack.memo_us": ((us("backtrack.memo_lookup", docs)
                               + us("backtrack.memo_store", docs)), "us/doc"),
        "backtrack.points_created": (stats["bt-points-created"] / docs, "count/doc"),
        "backtrack.assign_us": (us("backtrack.assign", sols), "us/sol"),
        "backtrack.check_us": (us("backtrack.check", sols), "us/sol"),
        "backtrack.frontier_us": (us("backtrack.frontier", sols), "us/sol"),
        "backtrack.postctx_us": (us("backtrack.postctx", docs), "us/doc"),
        "backtrack.emit_yield": (sols / (sols + stats["combinations-filtered"]), "ratio"),
        "session.first_self_ms": (tr.ms("doc", "session.first") / docs, "ms/doc"),
        "session.next_self_us": (us("session.next", nexts), "us/next"),
        "session.rules_per_next": ((stats["rules-fired"] - stats["rules-after-first"])
                                   / nexts, "count/next"),
        "session.clashes": (stats["constraint-clashes"] / docs, "count/doc"),
        "prefs.choose_us": (us("prefs.choose", nexts), "us/next"),
        "prefs.weight_us": (us("prefs.weight", sols), "us/sol"),
        "prefs.order_us": (us("prefs.order", docs), "us/doc"),
        "morpho.calls": (stats["morpho-calls"] / docs, "count/doc"),
        "morpho.re_realizations": (stats["re-realizations"] / docs, "count/doc"),
        "morpho.inflect_us": (us("morpho.inflect", docs), "us/doc"),
        "morpho.lexicon_ms": (cli_ms("morpho.lexicon"), "ms/call"),
        "cli.self_ms": (cli_ms("cli.main"), "ms/call"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Run one workload; returns (result object, reference lines)."""
    sg, regs, wl = setup(workload, seed, tiny)
    first_setup = perf_counter() - T_START
    speed = Speed()
    first_setup = (first_setup, speed.scale(fresh=True))
    tag = f"{workload}-s{seed}" + ("-trace" if trace else "")
    cases = cli_cases(wl, tag)
    tally = Tally()
    tracer = resetup = None
    if trace:
        tracer = Tracer()
        tracer.install(sg)
    else:
        def resetup():
            return timed_setup(workload, seed, tiny, speed)
    loop = timed_loop(sg, regs, wl, seconds, tally, cases, speed, tracer, resetup)
    loop.setups.insert(0, first_setup)
    docs = sum(len(s) for s in loop.samples.values())
    notes = [f"# {workload} seed={seed} rounds={loop.rounds} round_ops={len(wl.ops)} "
             f"docs={docs} cli_calls={sum(map(len, loop.cli_ms.values()))}"]
    if not loop.samples or not loop.cli_ms:
        metrics = {}
    elif trace:
        metrics = per_layer(tracer, loop)
        trace_path = OUT / f"trace-{tag}.jsonl"
        tracer.write(trace_path)
        traced = end_to_end(loop, float("nan"))
        notes.append("# traced end-to-end: " + " ".join(
            f"{k}={v:.4f}" for k, (v, _) in traced.items() if k not in ("setup_s", "peak_kib")))
        per_round = {k: v // loop.rounds for k, v in sorted(loop.stats.items())}
        notes.append(f"# stats per round: {json.dumps(per_round)}")
        notes.append(f"# spans kept: {len(tracer.spans)} in {trace_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(loop, peak_pass(sg, regs, wl, tally))
        notes += reference(loop)
    if tally.rejected:
        notes.append(f"# rejected by checks: {dict(tally.rejected)}")
    result = {
        "correct": not tally.rejected and bool(metrics),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "surfgen" / "__init__.py").is_file():
        print(f"error: no surfgen sources under {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    result, notes = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in notes:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
