"""Span tracer that wraps the ``insa`` package's public functions from outside.

``traced(tracer)`` wraps every public function, every public method and
every ``__post_init__`` that the modules of the package define, at every
module attribute of the package that binds it (modules import one another
by name, so one function can have several import sites).  Each call is
kept as one span with its parent; on exit every patched attribute is put
back.  Nothing in the package itself is changed on disk.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import layers

PACKAGE = "insa"
_MARK = "__perfbench_original__"


class Tracer:
    """Spans in call order, kept in flat arrays until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("l")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.errors: dict[int, str] = {}  # span index -> exception class
        self.values: dict[str, list] = {}  # span name -> extracted results
        self.cache_deltas: dict[str, tuple[int, int]] = {}  # name -> (hits, misses)
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(index)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total and self time [ns], errors by class.

        Self time is a span's duration minus the durations of its direct
        children, which are nested inside it on the one traced thread.
        """
        n = len(self.start)
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        out = {
            name: {"calls": 0, "total_ns": 0, "self_ns": 0, "errors": {}, "values": []}
            for name in self.names
        }
        for i in range(n):
            row = out[self.names[self.name_of[i]]]
            duration = self.end[i] - self.start[i]
            row["calls"] += 1
            row["total_ns"] += duration
            row["self_ns"] += duration - child_ns[i]
        for i, cls in self.errors.items():
            errors = out[self.names[self.name_of[i]]]["errors"]
            errors[cls] = errors.get(cls, 0) + 1
        for name, values in self.values.items():
            out[name]["values"] = list(values)
        for name, (hits, misses) in self.cache_deltas.items():
            out[name]["cache"] = {"hits": hits, "misses": misses}
        return out


def _wrap(tracer: Tracer, name: str, fn, extract):
    name_id = tracer.name_id(name)
    open_span, close_span = tracer.open, tracer.close
    values = tracer.values.setdefault(name, []) if extract else None

    def wrapper(*args, **kwargs):
        index = open_span(name_id)
        try:
            result = fn(*args, **kwargs)
        except Exception as err:
            tracer.errors[index] = type(err).__name__
            raise
        finally:
            close_span(index)
        if extract is not None:
            value = extract(result)
            if value is not None:
                values.append(value)
        return result

    setattr(wrapper, _MARK, fn)
    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__qualname__ = getattr(fn, "__qualname__", name)
    return wrapper


def package_modules() -> dict[str, object]:
    """The package and each of its direct submodules, by short name."""
    root = importlib.import_module(PACKAGE)
    modules = {"": root}
    for info in pkgutil.iter_modules(root.__path__):
        if info.name != "__main__":
            modules[info.name] = importlib.import_module(f"{PACKAGE}.{info.name}")
    return modules


def _targets(modules):
    """Functions to wrap, keyed by id, and the class attributes to wrap."""
    functions = {}
    methods = []
    for short, module in modules.items():
        if not short:
            continue
        for attr, obj in vars(module).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                for meth, fn in vars(obj).items():
                    if inspect.isfunction(fn) and (not meth.startswith("_") or meth == "__post_init__"):
                        methods.append((obj, meth, fn, f"{short}.{attr}.{meth}"))
            elif callable(obj):
                functions[id(obj)] = (obj, f"{short}.{attr}")
    return functions, methods


@contextmanager
def traced(tracer: Tracer):
    """Wrap the package while the block runs, then restore every attribute.

    For the span names in ``layers.EXTRACT``, the non-None values its
    function returns for a call's result are kept in ``tracer.values``.
    Cached functions (those with ``cache_info``) get their hit and miss
    deltas recorded.
    """
    modules = package_modules()
    functions, methods = _targets(modules)
    caches = {
        name: fn.cache_info() for fn, name in functions.values() if hasattr(fn, "cache_info")
    }
    wrappers = {
        key: _wrap(tracer, name, fn, layers.EXTRACT.get(name)) for key, (fn, name) in functions.items()
    }
    patches = []
    try:
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
        for cls, meth, fn, name in methods:
            patches.append((cls, meth, fn))
            setattr(cls, meth, _wrap(tracer, name, fn, layers.EXTRACT.get(name)))
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
    for fn, name in functions.values():
        if name in caches:
            after = fn.cache_info()
            tracer.cache_deltas[name] = (
                after.hits - caches[name].hits,
                after.misses - caches[name].misses,
            )


def leftover_wrappers() -> list[str]:
    """Attributes of the package that still hold a tracer wrapper."""
    found = []
    for short, module in package_modules().items():
        for attr, obj in vars(module).items():
            if hasattr(obj, _MARK):
                found.append(f"{short}.{attr}")
            if inspect.isclass(obj):
                found.extend(
                    f"{short}.{attr}.{meth}"
                    for meth, fn in vars(obj).items()
                    if hasattr(fn, _MARK)
                )
    return found
