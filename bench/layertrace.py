"""Per-layer tracing from outside the library.

The public functions of each layer module are wrapped where callers look
them up: in their own module, in every package module that imported them by
name (``bcsecrecy.sdpc.gevd_definite``, ``bcsecrecy.miso.gevd_definite``) and
in the package namespace.  The ``numpy.linalg`` decompositions are wrapped
too, for counting only.  Nothing in the library itself is edited; ``remove``
puts every original back.

A wrapped call is a span of the layer that defines the function.  A span's
self time is its duration minus the duration of the spans it called, so the
self times of all layers plus the time outside any span add up to the op's
wall time.  The time of a ``numpy.linalg`` call stays in the self time of
the span that made it.
"""

import functools
import inspect
import sys
from collections import Counter
from time import perf_counter_ns

import numpy as np

LAYERS = ("linalg", "sdpc", "precoding", "avgpower", "miso", "baseline", "hull")
LAPACK = ("eigh", "eigvalsh", "cholesky", "svd", "qr", "solve")


class LayerTracer:
    """Accumulates self time per layer, and calls and inclusive time per function."""

    def __init__(self):
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.incl_ns: Counter = Counter()
        self._stack: list[int] = []        # child time of each open span
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, layer: str, name: str, fn):
        stack = self._stack
        self_ns, calls, incl_ns = self.self_ns, self.calls, self.incl_ns
        counts_points = name == "hull.pareto_hull"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counts_points:
                calls["hull.points_in"] += len(args[0])
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                self_ns[layer] += dur - stack.pop()
                calls[name] += 1
                incl_ns[name] += dur
                if stack:
                    stack[-1] += dur

        return wrapper

    def _counted(self, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls["linalg.lapack_calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every public layer function and the numpy.linalg decompositions."""
        modules = [m for n, m in sys.modules.items() if n == "bcsecrecy" or n.startswith("bcsecrecy.")]
        wrapped = {}
        for layer in LAYERS:
            mod = sys.modules[f"bcsecrecy.{layer}"]
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrapped[id(obj)] = self._span(layer, f"{layer}.{name}", obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patch(mod, name, wrapped[id(obj)])
        for name in LAPACK:
            self._patch(np.linalg, name, self._counted(getattr(np.linalg, name)))

    def _patch(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    def remove(self) -> None:
        while self._patches:
            owner, name, old = self._patches.pop()
            setattr(owner, name, old)
