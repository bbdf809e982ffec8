"""Spans around surfgen's layers, recorded from outside the program.

Each public function below is replaced, at the name its callers look up,
by a wrapper that opens a span on entry and closes it on return.  A span
is (id, name, start ns, end ns, parent id, document id).  Self time is a
span's duration minus the time its child spans cover; it is summed per
(scope, layer) as spans close, so the aggregates cover the whole run,
while the span records themselves are kept in memory only up to
``keep`` spans and written as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter_ns

# (module, attribute or Class.method, span name, wraps a generator)
WRAPPED = (
    ("gil", "parse_gil", "gil.parse", False),
    ("cli", "parse_gil", "gil.parse", False),
    ("backtrack", "fs_digest", "gil.digest", False),
    ("cli", "parse_grammar", "tgl.parse", False),
    ("cli", "validate_grammar", "tgl.validate", False),
    ("engine", "eval_test", "tgl.test", False),
    ("session", "eval_selector", "tgl.selector", False),
    ("session", "match", "engine.match", False),
    ("session", "apply_constraints", "engine.constraints", False),
    ("session", "realize", "engine.realize", False),
    ("backtrack", "MemoCache.lookup", "backtrack.memo_lookup", False),
    ("backtrack", "MemoCache.store", "backtrack.memo_store", False),
    ("session", "iter_assignments", "backtrack.assign", True),
    ("session", "combination_state", "backtrack.check", False),
    ("session", "combination_frontier", "backtrack.frontier", False),
    ("session", "fill_post_contexts", "backtrack.postctx", False),
    ("prefs", "order_conflict_set", "prefs.order", False),
    ("prefs", "choose_backtrack_point", "prefs.choose", False),
    ("prefs", "solution_weight", "prefs.weight", False),
    ("engine", "inflect", "morpho.inflect", False),
    ("cli", "default_lexicon", "morpho.lexicon", False),
    ("cli", "main", "cli.main", False),
)


class Tracer:
    def __init__(self, keep: int = 25_000):
        self.keep = keep
        self.scope = None      # "doc" or "cli" while an operation runs
        self.doc = None        # id of the operation in progress
        self.stack: list = []  # [name, start, child ns, span id, parent id]
        self.spans: list = []
        self.next_id = 1
        self.self_ns: dict = defaultdict(int)   # (scope, name) -> ns
        self.calls: dict = defaultdict(int)     # (scope, name) -> spans
        self.doc_self_ns = 0   # self time of all spans of the current doc

    def begin(self, name: str) -> None:
        parent = self.stack[-1][3] if self.stack else None
        self.stack.append([name, perf_counter_ns(), 0, self.next_id, parent])
        self.next_id += 1

    def end(self) -> None:
        end = perf_counter_ns()
        name, start, child, span_id, parent = self.stack.pop()
        duration = end - start
        if self.stack:
            self.stack[-1][2] += duration
        key = (self.scope, name)
        self.self_ns[key] += duration - child
        self.calls[key] += 1
        self.doc_self_ns += duration - child
        if len(self.spans) < self.keep:
            self.spans.append((span_id, name, start, end, parent, self.doc))

    def open_op(self, scope: str, doc) -> None:
        self.scope, self.doc, self.doc_self_ns = scope, doc, 0

    def close_op(self) -> int:
        self.scope = self.doc = None
        return self.doc_self_ns

    def ms(self, scope: str, name: str) -> float:
        return self.self_ns[(scope, name)] / 1e6

    def count(self, scope: str, name: str) -> int:
        return self.calls[(scope, name)]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span_id, name, start, end, parent, doc in self.spans:
                out.write(json.dumps({"id": span_id, "name": name, "start_ns": start,
                                      "end_ns": end, "parent": parent,
                                      "doc": doc}) + "\n")

    def install(self, sg) -> None:
        """Wrap every entry of WRAPPED in the given surfgen modules."""
        for module, attr, name, is_gen in WRAPPED:
            owner = getattr(sg, module)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            fn = getattr(owner, attr)
            setattr(owner, attr, (self._wrap_gen if is_gen else self._wrap)(name, fn))

    def _wrap(self, name, fn):
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end()
        return traced

    def _wrap_gen(self, name, fn):
        """A generator's time is spent in its next() calls: one span each."""
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    end()
                yield item
        return traced
