"""Spans around laxlab's public functions, recorded from outside the package.

:class:`Tracer` wraps every public function of the traced modules and every
other binding of the same function object (``from .schemes import power``
in ``analysis``, the re-exports in ``laxlab/__init__``), so a call is timed
whichever name it goes through.  Function-local imports resolve at call
time and pick up the wrapper too.  Spans live in flat arrays in memory and
are written out once, when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("grid", "semigroup", "schemes", "analysis", "roundoff", "ubp", "cli")


def _coeffs_out(args, result) -> int:
    return result.coefficients.size


def _noop(args, result) -> int:
    """1 when rounding returned its input bit for bit."""
    before = np.asarray(args[0], dtype=float)
    return int(np.array_equal(before.view(np.int64), np.asarray(result, dtype=float).view(np.int64)))


# Counters kept per call besides the call count: layer -> (counter, f(args, result)).
COUNTERS = {
    "schemes.power": ("coeffs_out", _coeffs_out),
    "schemes.compose": ("coeffs_out", _coeffs_out),
    "roundoff.round_to_precision": ("noop", _noop),
}
# Layer name of the spans that time the counters above.
COUNTER_SPAN = "tracing.counters"
# Layers whose raised exceptions of one type are counted as `raised`.
RAISED = {"schemes.power": "DivergedOperatorError", "schemes.compose": "DivergedOperatorError"}


class Tracer:
    """Records one span (layer, start, end, parent span, pass) per wrapped call."""

    def __init__(self):
        self.names: list = [COUNTER_SPAN]
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.pass_id = array("i")
        self.current_pass = -1
        self.counts = defaultdict(int)  # (layer, counter, pass) -> value
        self._stack: list = []
        errors = importlib.import_module("laxlab.errors")
        self._raised = {layer: getattr(errors, cls) for layer, cls in RAISED.items()}
        self._patches = self._find_bindings()

    def _find_bindings(self) -> list:
        """(module, attribute, wrapper, original) for every binding to patch."""
        modules = [importlib.import_module(f"laxlab.{m}") for m in MODULES]
        wrappers = {}  # id(original) -> (original, wrapper)
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if callable(fn) and not isinstance(fn, type) and id(fn) not in wrappers:
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        patches = []
        for mod in modules + [importlib.import_module("laxlab")]:
            for attr, value in vars(mod).items():
                if id(value) in wrappers:
                    patches.append((mod, attr, wrappers[id(value)][1], value))
        return patches

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        counter = COUNTERS.get(name)
        raised = self._raised.get(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.pass_id.append(self.current_pass)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if raised is not None and isinstance(exc, raised):
                    self.counts[(name, "raised", self.current_pass)] += 1
                raise
            finally:
                self.end[idx] = clock()
                stack.pop()
            if counter is not None:
                # Timed as a span of its own, so the caller's self time excludes it.
                self.name_id.append(0)  # names[0] is COUNTER_SPAN
                self.parent.append(stack[-1] if stack else -1)
                self.pass_id.append(self.current_pass)
                self.start.append(clock())
                self.counts[(name, counter[0], self.current_pass)] += counter[1](args, result)
                self.end.append(clock())
            return result

        return wrapper

    def install(self, pass_id: int) -> None:
        """Patch every binding; spans recorded until :meth:`uninstall` carry pass_id."""
        self.current_pass = pass_id
        for mod, attr, wrapper, _ in self._patches:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, _, original in self._patches:
            setattr(mod, attr, original)

    def arrays(self) -> dict:
        """Copies of the span columns (views would pin the growable buffers)."""
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
            "parent": np.array(self.parent, dtype=np.int32),
            "pass_id": np.array(self.pass_id, dtype=np.int32),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def per_pass(self) -> dict:
        """{layer: {"calls", "self_s", "total_s", counters...: [value per pass]}}.

        Passes are numbered 0, 1, ... in the order they were traced.  Self
        time is a span's duration minus the durations of its direct
        children; calls run on one thread, so children nest strictly.
        """
        a = self.arrays()
        n_pass = int(a["pass_id"].max()) + 1 if a["pass_id"].size else 0
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=dur.size)
        key = a["name_id"] * n_pass + a["pass_id"]
        shape = (len(self.names), n_pass)

        def by_layer(weights=None):
            return np.bincount(key, weights, minlength=shape[0] * shape[1]).reshape(shape)

        calls, self_s, total_s = by_layer(), by_layer(dur - child), by_layer(dur)
        out = {}
        for nid, name in enumerate(self.names):
            layer = {
                "calls": calls[nid].tolist(),
                "self_s": self_s[nid].tolist(),
                "total_s": total_s[nid].tolist(),
            }
            extra = [COUNTERS[name][0]] if name in COUNTERS else []
            extra += ["raised"] if name in RAISED else []
            for c in extra:
                layer[c] = [self.counts[(name, c, p)] for p in range(n_pass)]
            out[name] = layer
        return out
