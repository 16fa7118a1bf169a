"""Per-layer host-time accounting for the simulator, from outside it.

:class:`LayerTracer` replaces the functions and methods of every module in
the simulator's layer packages with timing wrappers, keeps the resulting
spans on an in-memory stack and aggregates them per function and per
layer.  Nothing in ``src/`` is modified on disk; :meth:`LayerTracer.uninstall`
puts every original back.

Accounting rules:

* A span covers one call of a wrapped function.  Its *self* time is its
  duration minus the durations of the wrapped calls it made (its child
  spans), so the self times of all spans add up to the time covered by
  the outermost spans.
* Simulation processes are generator functions.  Calling one only builds
  the generator, so the wrapper hands back a generator that opens one
  span per resumption (each ``send``/``throw`` the engine makes).  The
  engine's run loop resumes processes inline, so the engine's own self
  time is the part of ``Environment.run``/``step`` that no process or
  callback span covers.
* Every wrapped function counts its calls; a layer's ``calls`` sums
  only its public functions (names without a leading underscore), so
  private helpers and constructors are timed but are not entry calls.

Only the first ``span_cap`` spans are kept verbatim (for the Chrome-trace
file written at the end); every span is aggregated.
"""

from __future__ import annotations

import enum
import functools
import importlib
import inspect
import json
import pkgutil
import sys
import types
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

#: The simulator's layer packages, bottom of the stack first.
LAYER_PACKAGES = ("sim", "hw", "flash", "core", "baseline", "platform",
                  "serve", "cluster")

#: Dunder methods worth timing; the rest (comparisons, hashing, repr) are
#: called from containers and heaps where a wrapper would only add noise.
_TIMED_DUNDERS = frozenset({"__init__", "__call__"})

# Record layout: one list per wrapped function, mutated in place by its
# wrapper (a list index is cheaper than an attribute on the hot path).
_ID, _LAYER, _NAME, _PUBLIC, _CALLS, _SELF, _TOTAL = range(7)


def layer_key(module_name: str) -> str:
    """``repro.core.schedulers.intra_ooo`` -> ``core.schedulers``."""
    parts = module_name.split(".")[1:]
    return ".".join(parts[:2])


def layer_modules(root_package: str = "repro") -> List[types.ModuleType]:
    """Import and return every module of the layer packages."""
    modules = []
    for package_name in LAYER_PACKAGES:
        package = importlib.import_module(f"{root_package}.{package_name}")
        modules.append(package)
        for info in pkgutil.walk_packages(package.__path__,
                                          prefix=f"{package.__name__}."):
            modules.append(importlib.import_module(info.name))
    return modules


class LayerTracer:
    """Installs timing wrappers on the layer modules and aggregates spans."""

    def __init__(self, span_cap: int = 50_000):
        self.records: List[list] = []
        self.stack: List[float] = []
        self.root = [0.0]              # time covered by outermost spans
        self.spans: List[Tuple[int, float, float, int]] = []
        self.span_cap = span_cap
        self.environments: List[Any] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._by_qualname: Dict[Tuple[str, str], list] = {}

    # ------------------------------------------------------------------ #
    # Wrappers                                                            #
    # ------------------------------------------------------------------ #
    def _record(self, layer: str, qualname: str) -> list:
        short = qualname.rsplit(".", 1)[-1]
        rec = [len(self.records), layer, qualname,
               not short.startswith("_"), 0, 0.0, 0.0]
        self.records.append(rec)
        self._by_qualname[(layer, qualname)] = rec
        return rec

    def _wrap(self, fn, rec: list):
        stack, root, spans = self.stack, self.root, self.spans
        cap, clock = self.span_cap, perf_counter

        def close(start: float) -> None:
            dur = clock() - start
            rec[_SELF] += dur - stack.pop()
            rec[_TOTAL] += dur
            if stack:
                stack[-1] += dur
            else:
                root[0] += dur
            if len(spans) < cap:
                spans.append((rec[_ID], start, dur, len(stack)))

        if inspect.isgeneratorfunction(fn):
            def resumptions(gen):
                send, throw = gen.send, gen.throw
                value, error = None, None
                while True:
                    stack.append(0.0)
                    start = clock()
                    try:
                        item = send(value) if error is None \
                            else throw(error)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        close(start)
                    try:
                        value, error = (yield item), None
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as exc:   # forwarded into gen
                        value, error = None, exc

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                rec[_CALLS] += 1
                return resumptions(fn(*args, **kwargs))
            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec[_CALLS] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                # close(start), inlined: this wrapper runs on every call.
                dur = clock() - start
                rec[_SELF] += dur - stack.pop()
                rec[_TOTAL] += dur
                if stack:
                    stack[-1] += dur
                else:
                    root[0] += dur
                if len(spans) < cap:
                    spans.append((rec[_ID], start, dur, len(stack)))
        return traced

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap_class(self, cls: type, layer: str) -> None:
        for name, raw in list(vars(cls).items()):
            if name.startswith("__") and name not in _TIMED_DUNDERS:
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                fn, rewrap = raw.__func__, type(raw)
            elif isinstance(raw, types.FunctionType):
                fn, rewrap = raw, None
            else:
                continue          # properties, descriptors, constants
            if not fn.__qualname__.startswith(cls.__qualname__ + "."):
                continue          # borrowed from elsewhere, not defined here
            wrapped = self._wrap(fn, self._record(layer, fn.__qualname__))
            self._patch(cls, name, rewrap(wrapped) if rewrap else wrapped)

    # ------------------------------------------------------------------ #
    # Install / uninstall                                                 #
    # ------------------------------------------------------------------ #
    def install(self, root_package: str = "repro") -> None:
        """Wrap every layer module's functions and classes in place.

        Call before any simulation object is built: instances created
        earlier keep the bound methods they cached.
        """
        if self._patches:
            raise RuntimeError("tracer already installed")
        replaced: Dict[int, Any] = {}
        for module in layer_modules(root_package):
            layer = layer_key(module.__name__)
            for name, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrapped = self._wrap(obj, self._record(layer,
                                                           obj.__qualname__))
                    replaced[id(obj)] = wrapped
                    self._patch(module, name, wrapped)
                elif isinstance(obj, type) and not issubclass(
                        obj, (BaseException, enum.Enum)):
                    self._wrap_class(obj, layer)
        # Modules that imported a function by name still hold the
        # original: point them at the wrapper too.
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith(root_package):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None and wrapper is not obj:
                    self._patch(module, name, wrapper)
        self._track_environments(root_package)

    def _track_environments(self, root_package: str) -> None:
        """Remember each Environment built, to read its event counter."""
        engine = importlib.import_module(f"{root_package}.sim.engine")
        cls = engine.Environment
        traced_init = cls.__init__
        environments = self.environments

        def init(env, *args, **kwargs):
            traced_init(env, *args, **kwargs)
            environments.append(env)
        functools.update_wrapper(init, traced_init)
        self._patch(cls, "__init__", init)

    def uninstall(self) -> None:
        """Restore every patched attribute (in reverse order)."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def take_events(self) -> int:
        """Events scheduled by the Environments built since the last call."""
        events = sum(env._eid for env in self.environments)
        self.environments.clear()
        return events

    # ------------------------------------------------------------------ #
    # Instrumentation helpers for the benchmark                           #
    # ------------------------------------------------------------------ #
    def traced(self, layer: str, name: str, fn):
        """``fn`` wrapped as a span of its own (benchmark-side work)."""
        return self._wrap(fn, self._record(layer, name))

    def wrap_after(self, owner: Any, name: str, hook) -> None:
        """Call ``hook(result)`` after every ``owner.name`` call."""
        inner = getattr(owner, name)

        @functools.wraps(inner)
        def with_hook(*args, **kwargs):
            result = inner(*args, **kwargs)
            hook(result)
            return result
        self._patch(owner, name, with_hook)

    # ------------------------------------------------------------------ #
    # Aggregates                                                          #
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[Tuple[str, str], Tuple[int, float, float]]:
        """Current ``(calls, self_s, total_s)`` per ``(layer, qualname)``."""
        return {(r[_LAYER], r[_NAME]): (r[_CALLS], r[_SELF], r[_TOTAL])
                for r in self.records}

    def covered_s(self) -> float:
        """Host time covered by outermost spans so far."""
        return self.root[0]

    def layer_totals(self) -> Dict[str, Dict[str, float]]:
        """Per layer: public-function ``calls`` and ``self_s`` (all)."""
        totals: Dict[str, Dict[str, float]] = {}
        for rec in self.records:
            entry = totals.setdefault(rec[_LAYER],
                                      {"calls": 0, "self_s": 0.0})
            if rec[_PUBLIC]:
                entry["calls"] += rec[_CALLS]
            entry["self_s"] += rec[_SELF]
        return totals

    def function(self, layer: str, qualname: str) -> Tuple[int, float, float]:
        """``(calls, self_s, total_s)`` of one wrapped function."""
        rec = self._by_qualname.get((layer, qualname))
        if rec is None:
            raise KeyError(f"{layer}:{qualname} is not traced")
        return rec[_CALLS], rec[_SELF], rec[_TOTAL]

    def write(self, path: Path, extra: Optional[Dict[str, Any]] = None
              ) -> None:
        """Write the per-function table and the kept spans as JSON.

        The ``traceEvents`` list is Chrome/Perfetto trace format, so the
        file opens directly in ``ui.perfetto.dev``.
        """
        names = [f"{r[_LAYER]}:{r[_NAME]}" for r in self.records]
        origin = self.spans[0][1] if self.spans else 0.0
        functions = sorted(
            ({"layer": r[_LAYER], "function": r[_NAME], "calls": r[_CALLS],
              "self_s": r[_SELF], "total_s": r[_TOTAL]}
             for r in self.records if r[_SELF] or r[_CALLS]),
            key=lambda row: -row["self_s"])
        document = {
            "functions": functions,
            "spans_kept": len(self.spans),
            "traceEvents": [
                {"name": names[rec_id], "ph": "X", "pid": 0, "tid": depth,
                 "ts": (start - origin) * 1e6, "dur": dur * 1e6}
                for rec_id, start, dur, depth in self.spans],
        }
        if extra:
            document.update(extra)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document))

