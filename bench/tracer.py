"""Outside-in tracer for the qbound layers.

`Tracer.install()` replaces every public function of the traced layer
modules with a timing wrapper, in every module of the package that binds
it (a function imported with `from .x import f` is bound once per importing
module, so rebinding only its home module would miss most calls).  What
the layer functions return is wrapped on the way out: the element callables
of any POVM family a `measurement` function returns, and any function a
`phasespace` function returns (the Husimi function, its partials, symbols),
so element and integrand evaluations are spans too.  `uninstall()` restores
the original bindings.

A span's self time is its duration minus the time of the spans it called.
Per span name the tracer keeps the call count, the self time and work
counters (nodes, points, bytes, draws).  Nothing is written while tracing;
the caller reads `stats` afterwards.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import os
import sys
import time
from types import ModuleType

import numpy as np

PACKAGE = "qbound"
LAYERS = ("quadrature", "phasespace", "derivatives", "metrics", "measurement", "bounds", "cli")
ELEMENT_FIELDS = ("x11", "x12", "y12", "d_x11", "d_x12", "d_y12")
ROOT = "bench.op"

_MARK = "__bench_span__"


class UnwrappedError(RuntimeError):
    """A public layer function is still reachable without its span."""


@dataclasses.dataclass
class SpanStats:
    calls: int = 0
    self_ns: int = 0
    work: dict = dataclasses.field(default_factory=dict)

    def add_work(self, key: str, amount) -> None:
        self.work[key] = self.work.get(key, 0) + amount


class Tracer:
    """Span recorder that patches the qbound layers in place."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[int] = []  # child time accumulated by each open span
        self._seen_windows: set = set()
        self._patches: list[tuple[ModuleType, str, object]] = []

    # ----------------------------------------------------------- recording

    def reset(self) -> None:
        self.stats = {}
        self._seen_windows = set()

    def begin_op(self) -> None:
        """Start a new op: window repeats are counted within one op."""
        self._seen_windows = set()

    def _stat(self, name: str) -> SpanStats:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = SpanStats()
        return st

    def span(self, name: str, fn, work=None, wrap_args=None, wrap_result=None):
        """Wrap fn in a span.  `work(stat, args, kwargs, result)` adds work
        counters; `wrap_args` and `wrap_result` rewrite what passes through
        (used to count sphere nodes and to wrap returned callables)."""
        stack = self._stack
        stat_of = self._stat

        def wrapper(*args, **kwargs):
            if wrap_args is not None:
                args, kwargs = wrap_args(args, kwargs)
            stack.append(0)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                st = stat_of(name)
                st.calls += 1
                st.self_ns += dt - child
            if work is not None:
                work(st, args, kwargs, result)
            if wrap_result is not None:
                result = wrap_result(result)
            return result

        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            setattr(wrapper, attr, getattr(fn, attr, None))
        setattr(wrapper, _MARK, name)
        return wrapper

    def run_op(self, fn, *args):
        """Run one benchmark op under the root span."""
        self.begin_op()
        return self.span(ROOT, fn)(*args)

    # ------------------------------------------------------------ patching

    def _modules(self) -> list[ModuleType]:
        prefix = PACKAGE + "."
        return [
            m for name, m in sorted(sys.modules.items())
            if isinstance(m, ModuleType) and (name == PACKAGE or name.startswith(prefix))
        ]

    def _layer_functions(self):
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == mod.__name__:
                    yield layer, attr, obj

    def _wrapper_for(self, layer: str, attr: str, fn):
        name = f"{layer}.{attr}"
        if layer == "measurement":
            return self.span(name, fn, work=_WORK.get(name), wrap_result=self._wrap_family)
        if layer == "phasespace":
            return self.span(name, fn, wrap_result=self._wrap_integrand)
        if name == "quadrature.nodes_1d":
            return self.span(name, fn, work=self._count_nodes_1d)
        if name == "quadrature.sphere_integrate":
            return self.span(name, fn, wrap_args=self._count_sphere_nodes)
        return self.span(name, fn)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): self._wrapper_for(layer, attr, fn)
                    for layer, attr, fn in self._layer_functions()}
        for mod in self._modules():
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        self._check_all_wrapped()

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches = []

    def _check_all_wrapped(self) -> None:
        layer_modules = {f"{PACKAGE}.{layer}" for layer in LAYERS}
        missing = []
        for mod in self._modules():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not hasattr(obj, _MARK)
                        and obj.__module__ in layer_modules
                        and not obj.__name__.startswith("_")):
                    missing.append(f"{mod.__name__}.{attr}")
        if missing:
            self.uninstall()
            raise UnwrappedError("public functions left unwrapped: " + ", ".join(missing))

    # ------------------------------------------------ returned callables

    def _wrap_family(self, result):
        """Wrap the element callables of a POVM family a function returns."""
        if not (dataclasses.is_dataclass(result) and not isinstance(result, type)
                and all(inspect.isfunction(getattr(result, f, None)) for f in ELEMENT_FIELDS)):
            return result
        if hasattr(result.x11, _MARK):  # e.g. load_tabulated_csv -> tabulated_family
            return result
        fields = {f: self.span("measurement.element", getattr(result, f), work=_count_points)
                  for f in ELEMENT_FIELDS}
        return dataclasses.replace(result, **fields)

    def _wrap_integrand(self, result):
        """Wrap a phase-space function (Husimi function, symbol, ...) a
        function returns."""
        if inspect.isfunction(result) and not hasattr(result, _MARK):
            return self.span("phasespace.integrand", result, work=_count_points)
        return result

    # ------------------------------------------------------- work counters

    def _count_nodes_1d(self, st, args, kwargs, result):
        key = (args, tuple(sorted(kwargs.items())))  # (a, b, spec)
        if key in self._seen_windows:
            st.add_work("repeats", 1)
        else:
            self._seen_windows.add(key)
        st.add_work("nodes", int(np.size(result[0])))

    def _count_sphere_nodes(self, args, kwargs):
        stat = self._stat("quadrature.sphere_integrate")
        if args:
            integrand, rest = args[0], args[1:]
        else:
            integrand, rest = kwargs.pop("F"), ()

        def counted(theta1, phi1):
            stat.add_work("nodes", int(np.size(theta1)))
            return integrand(theta1, phi1)

        return (counted, *rest), kwargs


def _count_points(st, args, kwargs, result):
    st.add_work("points", int(np.size(args[0])))


def _count_csv_bytes(st, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    st.add_work("bytes", os.path.getsize(path))


def _count_draws(st, args, kwargs, result):
    st.add_work("draws", int(np.size(result)))


_WORK = {"measurement.load_tabulated_csv": _count_csv_bytes,
         "measurement.sample_outcomes": _count_draws}
