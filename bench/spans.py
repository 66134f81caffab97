"""Span tracer that wraps the public functions of the twinwidth modules.

The tracer is installed from outside the package: every public
module-level function defined in one of the layer modules is replaced by
a wrapper, in every ``twinwidth`` module that binds it, so calls between
modules (``solver`` -> ``sequences.verify_width``, ``witness`` ->
``connectivity.max_disjoint_paths``) are caught as well as calls from the
benchmark.  Spans live in memory; self time is derived after the run as a
span's duration minus the time covered by its direct children (calls are
nested and single-threaded, so children never overlap).
"""

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = (
    "io",
    "graphs",
    "structure",
    "solver",
    "sequences",
    "treewidth",
    "pipeline",
    "partitions",
    "witness",
    "connectivity",
)

# O(1) helpers called in inner loops: a span each would measure the tracer.
UNWRAPPED = frozenset({"graphs.pair"})

HARNESS = "harness"


class Tracer:
    """Records (layer, function, start, end, parent, op) spans in memory."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._op = [None]
        self._bindings: list = []
        self._wrappers: dict[int, tuple] = {}

    def prepare(self, package_name: str = "twinwidth") -> None:
        """Build one wrapper per public layer function and find every
        module attribute that binds one of them."""
        for layer in LAYERS:
            mod = sys.modules[f"{package_name}.{layer}"]
            for name, obj in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__ or f"{layer}.{name}" in UNWRAPPED:
                    continue
                self._wrappers[id(obj)] = (obj, self._wrap(obj, layer, name))
        prefix = package_name + "."
        for modname, mod in sorted(sys.modules.items()):
            if mod is None or not (modname == package_name or modname.startswith(prefix)):
                continue
            for name, obj in vars(mod).items():
                hit = self._wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._bindings.append((mod, name, obj, hit[1]))

    def install(self) -> None:
        for mod, name, _, wrapper in self._bindings:
            setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original, _ in self._bindings:
            setattr(mod, name, original)

    def _wrap(self, f, layer: str, name: str):
        key = (layer, name)
        spans = self.spans
        stack = self._stack
        op = self._op

        @functools.wraps(f)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return f(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (key, t0, t1, parent, op[0])

        return wrapper

    def run_op(self, op_id: int, kind: str, fn):
        """Run fn under a root span named after the op kind; returns
        (result or None, exception or None, seconds)."""
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        self._op[0] = op_id
        self.install()
        t0 = time.perf_counter()
        try:
            result, error = fn(), None
        except Exception as exc:  # a failed op is reported by the caller
            result, error = None, exc
        t1 = time.perf_counter()
        self.uninstall()
        self._stack.pop()
        self.spans[sid] = ((HARNESS, kind), t0, t1, None, op_id)
        self._op[0] = None
        return result, error, t1 - t0

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        return [t1 - t0 - child[i] for i, (_, t0, t1, _, _) in enumerate(self.spans)]

    def check_spans(self, self_s: list[float], resolution: float) -> list[str]:
        """Every child lies inside its parent and within the same op, and
        each op's self times sum to its root span within `resolution`
        per span."""
        problems = []
        total: dict = defaultdict(float)
        count: dict = defaultdict(int)
        roots = {}
        for i, (key, t0, t1, parent, op) in enumerate(self.spans):
            total[op] += self_s[i]
            count[op] += 1
            if parent is None:
                roots[op] = t1 - t0
                continue
            _, p0, p1, _, pop = self.spans[parent]
            if not (p0 <= t0 <= t1 <= p1) or pop != op:
                problems.append(f"span {i} ({key[0]}.{key[1]}) escapes its parent span {parent}")
        for op, dur in roots.items():
            if abs(total[op] - dur) > resolution * count[op]:
                problems.append(f"op {op}: self times sum to {total[op]:.9f} s, root span is {dur:.9f} s")
        return problems

    def dump(self, fh) -> None:
        """Write the spans as JSON lines: layer, function, start, end, parent, op."""
        for (layer, name), t0, t1, parent, op in self.spans:
            fh.write(json.dumps([layer, name, round(t0, 9), round(t1, 9), parent, op]) + "\n")
