"""Spans around calls into a package, installed from outside the package.

A Tracer replaces each target function at every module binding that holds
it (so a call through `from .linalg import charpoly` is traced too) and each
target method on its class. Spans are kept in memory as tuples
(id, parent, name, op, start_ns, end_ns) and can be written as JSON lines
once the run ends. A target that no longer exists is listed in `absent`
instead of failing the run.
"""

from __future__ import annotations

import functools
import json
import numbers
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


def arg_key(x):
    """A hashable stand-in for a call argument, for counting distinct inputs."""
    if isinstance(x, (numbers.Number, str, type(None))):
        return x
    if isinstance(x, (list, tuple)):
        return tuple(arg_key(v) for v in x)
    for attr in ("coeffs", "rows", "n"):
        if hasattr(x, attr):
            return (attr, arg_key(getattr(x, attr)))
    return ("id", id(x))


@dataclass(frozen=True)
class Probe:
    """What a traced call records beyond its span.

    distinct: count distinct argument tuples; work: sum work(args) over calls;
    outcome: count calls whose result satisfies outcome(result).
    """

    distinct: bool = False
    work: Callable | None = None
    outcome: Callable | None = None


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []
        self.absent = []
        self.op = None
        self._stack = []
        self._next_id = 0
        self._keys = defaultdict(set)
        self._work = defaultdict(int)
        self._outcomes = defaultdict(int)
        self._undo = []

    @contextmanager
    def span(self, name):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans.append((span_id, parent, name, self.op, start, end))

    def wrap(self, fn, name, probe=None):
        probe = probe or Probe()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if probe.distinct:
                self._keys[name].add(arg_key(args) + arg_key(tuple(sorted(kwargs.items()))))
            if probe.work is not None:
                self._work[name] += probe.work(args)
            if probe.outcome is not None and probe.outcome(result):
                self._outcomes[name] += 1
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package, targets):
        """Wrap each target, named '<module>.<function>' or
        '<module>.<Class>.<method>' relative to the package."""
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        for name, probe in targets.items():
            module_name, *path = name.split(".")
            owner = sys.modules.get(f"{package}.{module_name}")
            obj = owner
            for attr in path:
                owner, obj = obj, getattr(obj, attr, None)
                if obj is None:
                    break
            if obj is None or not callable(obj):
                self.absent.append(name)
                continue
            wrapper = self.wrap(obj, name, probe)
            if isinstance(owner, type):
                self._patch(owner, path[-1], wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is obj:
                        self._patch(module, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def summary(self):
        """{name: {s, self_s, calls, distinct, work, outcomes}} from the spans.

        s counts only the outermost span of a name, so recursion is not
        counted twice; self_s is a span's duration minus its children's.
        """
        by_id = {span[0]: span for span in self.spans}
        child_ns = defaultdict(int)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out = {}
        for span_id, parent, name, _, start, end in self.spans:
            row = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            row["calls"] += 1
            row["self_s"] += (end - start - child_ns[span_id]) / 1e9
            ancestor = parent
            while ancestor is not None and by_id[ancestor][2] != name:
                ancestor = by_id[ancestor][1]
            if ancestor is None:
                row["s"] += (end - start) / 1e9
        for name, row in out.items():
            row["distinct"] = len(self._keys.get(name, ()))
            row["work"] = self._work.get(name, 0)
            row["outcomes"] = self._outcomes.get(name, 0)
        return out

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for span_id, parent, name, op, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "op": op,
                            "start_ns": start,
                            "end_ns": end,
                        }
                    )
                    + "\n"
                )
