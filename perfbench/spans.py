"""In-memory spans for the traced run, and the wrappers that open them.

The clocks live here, in the benchmark, never in ``src/``: each layer's
public functions are wrapped from the outside, so a span opens where
the benchmark's caller crosses into the layer and closes where it
returns.  Two kinds of span share one stack:

* **recorded** spans (operations, harness calls, engine ``initialize``
  / ``iterate``, the simulator, trace-algebra calls) keep their name,
  start, end, parent and operation id and are written out at exit;
* **leaf** spans (kernel and ``stats`` functions, tracer emits, which
  run up to millions of times) are only aggregated per name.

Both feed the per-name totals: calls, inclusive time, and self time —
the span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager, nullcontext

_clock = time.perf_counter


class NullSpans:
    """The untraced run: spans cost one no-op context manager."""

    enabled = False

    def span(self, name: str, op: str | None = None):
        return nullcontext()


class Spans:
    """Span stack plus per-name aggregates."""

    enabled = True

    def __init__(self) -> None:
        # Frame: [name, start, child seconds, record index or -1, outer op].
        self._stack: list[list] = []
        self.records: list[dict] = []
        self.totals: dict[str, list] = {}  # name -> [calls, inclusive, self]
        self._op = None

    def _enter(self, name: str, record: bool, op: str | None) -> list:
        index = -1
        outer_op = self._op
        if record:
            if op is not None:
                self._op = op
            index = len(self.records)
            parent = next((f[3] for f in reversed(self._stack) if f[3] >= 0), None)
            self.records.append({"id": index, "name": name, "op": self._op,
                                 "parent": parent})
        frame = [name, 0.0, 0.0, index, outer_op]
        self._stack.append(frame)
        frame[1] = _clock()
        return frame

    def _exit(self, frame: list) -> None:
        end = _clock()
        name, start, children, index, outer_op = frame
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += duration - children
        if index >= 0:
            self.records[index].update(start=start, end=end,
                                       self=duration - children)
            self._op = outer_op

    @contextmanager
    def span(self, name: str, op: str | None = None):
        frame = self._enter(name, True, op)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, fn, name: str, record: bool = False):
        """``fn`` inside a span named ``name`` on every call."""
        enter, exit_ = self._enter, self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name, record, None)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(frame)
        wrapper.__perfbench_wrapped__ = fn
        return wrapper

    def self_seconds(self, *names: str) -> float:
        return sum(self.totals.get(n, (0, 0.0, 0.0))[2] for n in names)

    def calls(self, *names: str) -> int:
        return sum(self.totals.get(n, (0, 0.0, 0.0))[0] for n in names)

    def inclusive_seconds(self, *names: str) -> float:
        return sum(self.totals.get(n, (0, 0.0, 0.0))[1] for n in names)


# ----------------------------------------------------------------------
# Instrumentation: wrap a layer's public functions from the outside
# ----------------------------------------------------------------------

def _public_functions(module):
    for attr, value in vars(module).items():
        if (not attr.startswith("_") and inspect.isfunction(value)
                and value.__module__ == module.__name__):
            yield attr, value


def _rebind(replacements: dict[int, object]) -> None:
    """Point every ``repro`` module global that holds an original at its
    wrapper, so ``from module import f`` bindings are caught too."""
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            wrapper = replacements.get(id(value))
            if wrapper is not None:
                namespace[attr] = wrapper


def wrap_modules(spans: Spans, modules: dict[str, str]) -> None:
    """Leaf-wrap the public functions of each module (``{module: span
    name}``) and the public methods of the classes it defines."""
    import importlib

    replacements: dict[int, object] = {}
    for mod_name, span_name in modules.items():
        module = importlib.import_module(mod_name)
        for _, fn in _public_functions(module):
            replacements[id(fn)] = spans.wrap(fn, span_name)
        for cls in vars(module).values():
            if inspect.isclass(cls) and cls.__module__ == mod_name:
                wrap_methods(spans, cls, span_name)
    _rebind(replacements)


def wrap_methods(spans: Spans, cls: type, name: str, methods=None,
                 record: bool = False) -> None:
    """Wrap methods of ``cls`` in place (class attributes, so every
    caller is caught).  ``methods`` defaults to every public method plus
    ``__init__`` defined on the class itself."""
    own = vars(cls)
    if methods is None:
        methods = [m for m in own if not m.startswith("_") or m == "__init__"]
    for method in methods:
        raw = own.get(method)
        if raw is None:
            raw = inspect.getattr_static(cls, method)
        if hasattr(raw, "__perfbench_wrapped__"):
            continue  # inherited from a class wrapped already
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(spans.wrap(raw.__func__, name, record)))
        elif inspect.isfunction(raw):
            setattr(cls, method, spans.wrap(raw, name, record))


#: Span name of each platform's engine calls.
ENGINE_SPANS = {
    "simsql": "relational.engine",
    "spark": "dataflow.engine",
    "giraph": "graph.giraph",
    "graphlab": "graph.graphlab",
}

KERNEL_MODULES = ("gmm", "hmm", "lda", "lasso", "imputation", "folds", "grouping")


def instrument_kernels(spans: Spans) -> None:
    """Wrap ``repro.kernels`` and ``repro.stats``; call after ``import
    repro`` and before ``repro.impls`` is imported."""
    import pkgutil

    import repro.stats

    modules = {f"repro.kernels.{m}": f"kernels.{m}" for m in KERNEL_MODULES}
    for info in pkgutil.iter_modules(repro.stats.__path__):
        modules[f"repro.stats.{info.name}"] = "stats"
    wrap_modules(spans, modules)


def instrument_harness(spans: Spans, on_simulate) -> None:
    """Wrap the engines, the tracer, scale-group validation and the
    simulator.  ``on_simulate(tracer)`` runs before each simulation, in
    a ``bench.count`` span of its own, to count the trace."""
    import repro.bench.runner as runner
    from repro.cluster import Simulator, Tracer
    from repro.impls import REGISTRY

    for cls in sorted(set(REGISTRY.values()), key=lambda c: c.__qualname__):
        wrap_methods(spans, cls, ENGINE_SPANS[cls.platform],
                     ("__init__", "initialize", "iterate"), record=True)
    wrap_methods(spans, Tracer, "tracer.emit", ("emit", "materialize"))
    runner.validate_scale_groups = spans.wrap(
        runner.validate_scale_groups, "runner.validate", record=True)
    simulate = spans.wrap(Simulator.simulate, "simulator.simulate", record=True)
    count = spans.wrap(on_simulate, "bench.count")

    @functools.wraps(Simulator.simulate)
    def counted(self, tracer, *args, **kwargs):
        count(tracer)
        return simulate(self, tracer, *args, **kwargs)
    Simulator.simulate = counted
