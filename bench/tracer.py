"""Per-layer tracing for the benchmark's traced run.

The layers are the library's modules.  `Tracer.install` replaces every
public function of each layer with a timing wrapper, in every polygraph
module that holds a reference to it: ``from .kgraph import normal_form``
binds a copy of its own, and internal calls go through those copies.

Each wrapped call adds to counters keyed by (op kind, function): calls,
busy time, self time (busy time minus the busy time of wrapped callees),
calls that raised, and one function-specific quantity (letters in,
certified periods, transducer states, group order).  Calls into `kgraph`
and `intlinalg` run millions of times, so they are counted only; every
other call, and every op, is also kept as a span (id, parent id, name,
start, end, op id), up to SPAN_CAP spans.  Generator functions are timed
per resumption, so their self time is the time spent producing items;
they keep no spans.

Work done inside worker processes (the CLI's ``--jobs`` pool forks
them) is not seen: the workers' counters die with them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("kgraph", "enumeration", "periodicity", "staralg", "tails",
          "groupcons", "intlinalg", "jsonio", "cli")
COUNT_ONLY = ("kgraph", "intlinalg")
SPAN_CAP = 100_000
CALLS, BUSY, SELF, RAISED, EXTRA = range(5)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


EXTRAS = {
    "kgraph.normal_form": lambda a, k, r: len(_arg(a, k, 1, "w")),
    "kgraph.extract_prefix": lambda a, k, r: len(_arg(a, k, 1, "w")),
    "periodicity.is_periodic": lambda a, k, r: r is not None,
    "periodicity.check_tail_condition": lambda a, k, r: r.states_visited,
    "groupcons.full_symmetry_subgroup": lambda a, k, r: _arg(a, k, 0, "gc").group.order,
}


class Tracer:
    def __init__(self):
        self.active = False
        self.stack = []  # frames: [busy seconds of wrapped callees, name, span id]
        self.kinds = {}
        self.stats = None
        self.edges = defaultdict(int)  # (caller, callee) -> calls
        self.spans = []
        self.dropped = 0
        self.next_span = 1
        self.op_id = None
        self.set_kind("setup")

    def set_kind(self, kind):
        if kind not in self.kinds:
            self.kinds[kind] = defaultdict(lambda: [0, 0.0, 0.0, 0, 0])
        self.stats = self.kinds[kind]

    def _span(self, parent, name, t0, t1, sid):
        if len(self.spans) < SPAN_CAP:
            self.spans.append((sid, parent[2] if parent else 0, name, t0, t1, self.op_id))
        else:
            self.dropped += 1

    def _enter(self, name, spans):
        stack = self.stack
        parent = stack[-1] if stack else None
        if spans:
            sid = self.next_span
            self.next_span += 1
        else:
            sid = parent[2] if parent else 0
        frame = [0.0, name, sid]
        stack.append(frame)
        return parent, frame

    def _leave(self, parent, frame, name, spans, t0, t1, st):
        self.stack.pop()
        d = t1 - t0
        st[BUSY] += d
        st[SELF] += d - frame[0]
        if parent is not None:
            parent[0] += d
        if spans:
            self._span(parent, name, t0, t1, frame[2])

    def _count(self, name, st):
        st[CALLS] += 1
        if self.stack:
            self.edges[(self.stack[-1][1], name)] += 1

    def wrap(self, f, name, spans):
        tr, perf, extra = self, time.perf_counter, EXTRAS.get(name)

        def wrapper(*a, **k):
            if not tr.active:
                return f(*a, **k)
            st = tr.stats[name]
            tr._count(name, st)
            parent, frame = tr._enter(name, spans)
            t0 = perf()
            try:
                r = f(*a, **k)
            except BaseException:
                st[RAISED] += 1
                raise
            finally:
                tr._leave(parent, frame, name, spans, t0, perf(), st)
            if extra is not None:
                st[EXTRA] += extra(a, k, r)
            return r

        def gen_wrapper(*a, **k):
            if not tr.active:
                return f(*a, **k)
            tr._count(name, tr.stats[name])
            return resume(f(*a, **k))

        def resume(g):
            while tr.active:
                st = tr.stats[name]
                parent, frame = tr._enter(name, False)
                t0 = perf()
                try:
                    item = next(g)
                except StopIteration:
                    return
                finally:
                    tr._leave(parent, frame, name, False, t0, perf(), st)
                yield item
            yield from g

        return functools.wraps(f)(gen_wrapper if inspect.isgeneratorfunction(f) else wrapper)

    def install(self):
        """Wrap the public functions of every layer; returns their count."""
        wrapped = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"polygraph.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrapped[id(obj)] = self.wrap(obj, f"{layer}.{attr}", layer not in COUNT_ONLY)
        for modname, mod in list(sys.modules.items()):
            if modname == "polygraph" or modname.startswith("polygraph."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and id(obj) in wrapped:
                        setattr(mod, attr, wrapped[id(obj)])
        return len(wrapped)

    def begin_op(self, op_id, kind):
        self.set_kind(kind)
        self.op_id = op_id
        return self._enter(f"op:{kind}", True)

    def end_op(self, entered, name, t0, t1):
        parent, frame = entered
        self.stack.pop()
        self._span(parent, f"op:{name}", t0, t1, frame[2])
        self.op_id = None

    def totals(self):
        """Counters summed over op kinds: {function: [calls, busy, self, raised, extra]}."""
        out = defaultdict(lambda: [0, 0.0, 0.0, 0, 0])
        for table in self.kinds.values():
            for name, st in table.items():
                acc = out[name]
                for i, x in enumerate(st):
                    acc[i] += x
        return out
