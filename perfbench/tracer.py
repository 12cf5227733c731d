"""Span recorder that wraps the public functions of every ftcircles layer.

Installing a :class:`Tracer` rebinds each public function of each layer in
every ``ftcircles`` namespace that binds it (so ``solve`` is wrapped in
``solver``, ``plasticity``, ``evolution``, ``oracle``, ``cli`` and the
package itself), and wraps the constructors listed in ``CONSTRUCTORS``.
Nested calls become child spans. Spans are kept in flat typed arrays (name,
start, end, parent, error) and self time is derived from them afterwards.
Uninstalling restores every original binding, so an untraced run measures
the unmodified program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter_ns

import numpy as np

LAYERS = ("geometry", "solver", "inverse", "plasticity", "evolution", "oracle", "scene", "svg", "cli")

# Classes whose construction does real work (validation loops); other
# classes are plain records and tracing them would only add overhead.
CONSTRUCTORS = {"geometry": ("Configuration",), "plasticity": ("SectorAngles",)}

NO_ERROR = 0


def self_times(parents, durations) -> np.ndarray:
    """Span duration minus the summed duration of its direct children.

    Spans are single-threaded and properly nested, so children never overlap
    and their summed duration is the time they cover. A parent of -1 marks a
    root span.
    """
    parents = np.asarray(parents, dtype=np.int64)
    durations = np.asarray(durations, dtype=np.int64)
    covered = np.zeros(len(durations), dtype=np.int64)
    has_parent = parents >= 0
    np.add.at(covered, parents[has_parent], durations[has_parent])
    return durations - covered


class Tracer:
    """Records one span per call into a traced ftcircles function.

    ``hooks`` maps a span name to ``hook(args, kwargs, result)``, called
    after a successful return outside the span, for counters that need the
    call's arguments or result.
    """

    def __init__(self, hooks=None):
        self.hooks = dict(hooks or {})
        self.names: list[str] = []
        self.errors: list[str] = [""]
        self._name_id: dict[str, int] = {}
        self._error_id: dict[str, int] = {"": NO_ERROR}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_error = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------

    def targets(self):
        """(span name, owner, attribute, original) for every traced callable."""
        found = []
        for layer in LAYERS:
            module = importlib.import_module(f"ftcircles.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == module.__name__:
                    found.append((f"{layer}.{attr}", None, attr, obj))
            for cls_name in CONSTRUCTORS.get(layer, ()):
                cls = getattr(module, cls_name)
                found.append((f"{layer}.{cls_name}", cls, "__init__", cls.__dict__["__init__"]))
        return found

    def install(self) -> "Tracer":
        if self._saved:
            raise RuntimeError("tracer already installed")
        namespaces = [m for name, m in list(sys.modules.items())
                      if m is not None and (name == "ftcircles" or name.startswith("ftcircles."))]
        for span, owner, attr, original in self.targets():
            wrapper = self._wrap(span, original)
            if owner is not None:
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in namespaces:
                if vars(module).get(attr) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _intern(self, table: dict, names: list, key: str) -> int:
        idx = table.get(key)
        if idx is None:
            idx = table[key] = len(names)
            names.append(key)
        return idx

    def _wrap(self, span: str, fn):
        nid = self._intern(self._name_id, self.names, span)
        hook = self.hooks.get(span)
        stack = self._stack
        span_name, span_parent, span_error = self.span_name, self.span_parent, self.span_error
        start, end = self.start, self.end

        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1])
            span_error.append(NO_ERROR)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end[idx] = perf_counter_ns()
                stack.pop()
                span_error[idx] = self._intern(self._error_id, self.errors, type(exc).__name__)
                raise
            end[idx] = perf_counter_ns()
            stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced)

    # -- results ------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, self_ms, and failures by exception type."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        error = np.frombuffer(self.span_error, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        own = self_times(np.frombuffer(self.span_parent, dtype=np.int32), dur)
        out = {}
        for nid, span in enumerate(self.names):
            mine = name == nid
            entry = {"calls": int(mine.sum()), "self_ms": float(own[mine].sum()) / 1e6, "failed": {}}
            for eid in np.unique(error[mine & (error != NO_ERROR)]):
                bad = mine & (error == eid)
                entry["failed"][self.errors[eid]] = {
                    "calls": int(bad.sum()),
                    "self_ms": float(own[bad].sum()) / 1e6,
                }
            out[span] = entry
        return out

    def calls_within(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans with an ``ancestor`` span above them."""
        if name not in self._name_id or ancestor not in self._name_id:
            return 0
        nid, aid = self._name_id[name], self._name_id[ancestor]
        count = 0
        for idx, span_nid in enumerate(self.span_name):
            if span_nid != nid:
                continue
            parent = self.span_parent[idx]
            while parent >= 0 and self.span_name[parent] != aid:
                parent = self.span_parent[parent]
            count += parent >= 0
        return count

    def write(self, path) -> None:
        """Write every span to an ``.npz`` file (names index the ``name`` array)."""
        np.savez(
            path,
            names=np.array(self.names),
            errors=np.array(self.errors),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            error=np.frombuffer(self.span_error, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )
