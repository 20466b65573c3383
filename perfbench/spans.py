"""Span recorder wrapped around the package's public functions.

The traced run replaces every public function of each bernsum module by a
wrapper that records a span (name, start, end, parent span, job id), and
rebinds the wrapper wherever another bernsum module imported the name, so
spans nest across modules: cli.main -> feasibility.feasible_point ->
pmf.JointPmf.build.  Spans stay in memory in flat arrays and are written out
once, after the run.  Nothing here changes what the package computes.
"""
from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from array import array

MODULES = ("indexing", "pmf", "polytope", "feasibility", "measure", "sampling", "binomial", "cli")
# Constructors whose cost is the carrier build (validation of every entry).
BUILDERS = (("pmf", "JointPmf"), ("pmf", "SparseJointPmf"))
# Per-entry helpers, called once per mass or per index inside the layers
# above: a span each would cost more than the work and swamp the trace.
UNWRAPPED = {"pmf.as_number", "indexing.level_weight"}


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


# Per-function size probes: the unit of work a span did, read at the boundary.
def _size_d(args, kwargs, result):
    return _arg(args, kwargs, 0, "p").d


def _size_n(args, kwargs, result):
    return int(_arg(args, kwargs, 1, "n"))


def _size_len(args, kwargs, result):
    return len(result)


def _size_build(args, kwargs, result):
    return int(_arg(args, kwargs, 1, "d"))


SIZE_PROBES = {
    "feasibility.feasible_point": _size_d,
    "feasibility.constrained_vertices": _size_len,
    "sampling.estimate_neighborhood_measure": _size_n,
    "sampling.estimate_tv_neighborhood_bound": _size_n,
    "sampling.region_volume": _size_n,
    "pmf.JointPmf.build": _size_build,
    "pmf.SparseJointPmf.build": _size_build,
}
# Per-function value probes: a ratio the layer reports about its own work.
VALUE_PROBES = {
    "sampling.estimate_neighborhood_measure": lambda r: r.acceptance_rate,
    "sampling.estimate_tv_neighborhood_bound": lambda r: r.acceptance_rate,
}


class Tracer:
    """Flat in-memory span store; one open-span stack per thread."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.size = array("q")
        self.value = array("d")
        self.job_id = -1
        self._local = threading.local()

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name_id: int) -> int:
        st = self._stack()
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(st[-1] if st else -1)
        self.job.append(self.job_id)
        self.size.append(0)
        self.value.append(0.0)
        self.end.append(0.0)
        st.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack().pop()


def _wrap_function(tracer: Tracer, name: str, fn):
    nid = tracer.intern(name)
    size_of = SIZE_PROBES.get(name)
    value_of = VALUE_PROBES.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if size_of is not None:
            tracer.size[i] = size_of(args, kwargs, result)
        if value_of is not None:
            tracer.value[i] = value_of(result)
        return result

    return wrapper


def _wrap_generator(tracer: Tracer, name: str, fn):
    """Generators do their work inside next(): one span per step, size 1 per item."""
    nid = tracer.intern(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        try:
            while True:
                i = tracer.open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(i)
                tracer.size[i] = 1
                yield item
        finally:
            it.close()

    return wrapper


def install(tracer: Tracer) -> int:
    """Wrap the public functions of every bernsum module; return how many."""
    import bernsum

    mods = {m: sys.modules[f"bernsum.{m}"] for m in MODULES if f"bernsum.{m}" in sys.modules}
    originals = {}
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue  # an import; rebound below from its home module
            name = f"{short}.{attr}"
            if name in UNWRAPPED:
                continue
            wrap = _wrap_generator if inspect.isgeneratorfunction(obj) else _wrap_function
            originals[id(obj)] = wrap(tracer, name, obj)
    # Rebind every reference, including names other modules imported.
    for mod in [bernsum, *mods.values()]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in originals and inspect.isfunction(obj):
                setattr(mod, attr, originals[id(obj)])
    for short, cls_name in BUILDERS:
        cls = getattr(mods[short], cls_name)
        cls.__init__ = _wrap_function(tracer, f"{short}.{cls_name}.build", cls.__init__)
    return len(originals) + len(BUILDERS)
