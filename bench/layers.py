"""Per-layer tracing by wrapping cybundle's public functions from outside.

`Tracer.install()` replaces every public function and public method of the
layer modules with a timing wrapper, at every place the function object is
bound: its own module, every `from .x import f` binding in the other
cybundle modules, and the class dict for methods.  Nothing under `src/`
changes.  Calls are aggregated per function (count, self time), because
`intersect` runs hundreds of thousands of times per scan; self time is the
wrapper's elapsed time minus the elapsed time of the wrapped calls nested
inside it.

Pool workers forked from a traced process inherit the wrappers; each worker
writes its totals to `stats_dir` when it exits, and `merge` adds them up.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import sys
import time
from collections import Counter

PACKAGE = "cybundle"
LAYERS = ("surfaces", "ring", "bundles", "anomaly", "nonsplit", "windows", "search", "jsonio")

# the function whose distinct/total query ratio bounds what a memo can gain
KEYED = "surfaces.BaseSurface.cone_position"


def _targets():
    """(qualified name, owner, attribute, original) for each public callable."""
    out = []
    for layer in LAYERS:
        mod = sys.modules.get(f"{PACKAGE}.{layer}")
        if mod is None:  # a layer that was merged away reports zero calls
            continue
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if isinstance(obj, type):
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if isinstance(member, (staticmethod, classmethod)) or callable(member):
                        out.append((f"{layer}.{name}.{attr}", obj, attr, member))
            elif callable(obj):
                out.append((f"{layer}.{name}", mod, name, obj))
    return out


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.keys: Counter = Counter()
        self._stack: list = []
        self._restore: list = []

    def _wrap(self, qname: str, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        keys = self.keys if qname == KEYED else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keys is not None:
                surface, cls = args[0], args[1]
                bound = args[2] if len(args) > 2 else kwargs.get("bound")
                keys[repr((surface.kind, cls.coeffs, cls.torsion, bound))] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = stack.pop()
                calls[qname] += 1
                self_s[qname] += elapsed - nested
                if stack:
                    stack[-1] += elapsed

        return wrapper

    def install(self) -> list:
        """Wrap every target at every binding; return the wrapped names."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        replacement = {}
        names = []
        for qname, owner, attr, member in _targets():
            if isinstance(member, (staticmethod, classmethod)):
                wrapped = type(member)(self._wrap(qname, member.__func__))
            else:
                wrapped = self._wrap(qname, member)
                replacement[id(member)] = wrapped
            self._restore.append((owner, attr, member))
            setattr(owner, attr, wrapped)
            names.append(qname)
        # re-bind `from .x import f` copies held by every cybundle module
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapped = replacement.get(id(value))
                if wrapped is not None and value is not wrapped:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapped)
        return names

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s), "keys": dict(self.keys)}

    def dump_in_workers(self, stats_dir: str) -> None:
        """Have each forked pool worker write its totals to `stats_dir` at exit."""
        import multiprocessing.util as mp_util

        def after_fork(tracer):
            tracer.calls.clear()
            tracer.self_s.clear()
            tracer.keys.clear()
            tracer._stack.clear()
            path = os.path.join(stats_dir, f"worker-{os.getpid()}.json")

            def dump():
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(tracer.snapshot(), fh)

            mp_util.Finalize(None, dump, exitpriority=100)

        mp_util.register_after_fork(self, after_fork)


def merge(snapshots) -> dict:
    calls, self_s, keys = Counter(), Counter(), Counter()
    for snap in snapshots:
        calls.update(snap["calls"])
        self_s.update(snap["self_s"])
        keys.update(snap["keys"])
    return {"calls": dict(calls), "self_s": dict(self_s), "keys": dict(keys)}


def worker_snapshots(stats_dir: str) -> list:
    out = []
    for path in sorted(glob.glob(os.path.join(stats_dir, "worker-*.json"))):
        with open(path, encoding="utf-8") as fh:
            out.append(json.load(fh))
    return out


def distinct_ratio(keys: dict) -> tuple:
    """(overall ratio, {base: ratio}) of distinct to total keyed queries."""
    per_base_total: Counter = Counter()
    per_base_distinct: Counter = Counter()
    for key, count in keys.items():
        base = key.split("'")[1]
        per_base_total[base] += count
        per_base_distinct[base] += 1
    total = sum(per_base_total.values())
    overall = len(keys) / total if total else 0.0
    return overall, {b: per_base_distinct[b] / per_base_total[b] for b in sorted(per_base_total)}
