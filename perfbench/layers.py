"""Per-layer host-time attribution for the benchmark's traced run.

:func:`install` replaces the public entry points of each ``repro``
layer with wrappers that charge host time to the layer. Time is *self*
time: a wrapped call is charged its elapsed host time minus the time of
the wrapped calls nested inside it. Synchronous entry points are timed
per call. Entry points that return a generator (the simulation's
coroutines) are timed per resume (``send``/``throw``), so a coroutine
suspended on a simulated event is not charged while other tasks run.

Work that runs in a layer's own internal tasks (the SWIM probe loop,
RPC handler ULTs, backend code) is resumed directly by the kernel, not
through a wrapped entry point, so it lands in ``sim``.

The wrappers never touch simulation state: the benchmark checks that
every count and simulated-time metric is identical with and without
them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from typing import Any, Callable, Dict, List, Optional

_now = time.perf_counter_ns


class LayerTimer:
    """Self-time accumulator over a stack of active wrapped calls."""

    def __init__(self) -> None:
        #: layer -> host nanoseconds charged as self time
        self.self_ns: Dict[str, int] = {}
        #: named counts recorded by entry-point hooks
        self.counts: Dict[str, int] = {}
        self._stack: List[list] = []

    def enter(self, layer: str) -> None:
        self._stack.append([layer, _now(), 0])

    def leave(self) -> None:
        end = _now()
        layer, start, nested = self._stack.pop()
        elapsed = end - start
        self.self_ns[layer] = self.self_ns.get(layer, 0) + elapsed - nested
        if self._stack:
            self._stack[-1][2] += elapsed


def _timed_resumes(timer: LayerTimer, layer: str, gen):
    """Delegate to ``gen`` like ``yield from``, charging each resume."""
    value = exc = None
    while True:
        timer.enter(layer)
        try:
            item = gen.send(value) if exc is None else gen.throw(exc)
        except StopIteration as stop:
            return stop.value
        finally:
            timer.leave()
        value = exc = None
        try:
            value = yield item
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as err:  # delivered into gen on the next resume
            exc = err


def _wrap(timer: LayerTimer, layer: str, fn: Callable, hook: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if hook is not None:
            hook(timer, args, kwargs)
        timer.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            timer.leave()
        if inspect.isgenerator(result):
            proxy = _timed_resumes(timer, layer, result)
            # Tasks spawned without a name are named after their
            # generator; keep the original so span records don't change.
            proxy.__name__ = result.__name__
            proxy.__qualname__ = result.__qualname__
            return proxy
        return result

    return wrapper


def _count_spans_walked(timer: LayerTimer, args, kwargs) -> None:
    # SpanTree.from_tracer(cls, tracer): the spans handed to the rebuild.
    tracer = kwargs.get("tracer", args[1] if len(args) > 1 else None)
    walked = len(getattr(tracer, "spans", ()))
    timer.counts["spans_walked"] = timer.counts.get("spans_walked", 0) + walked


#: (layer, module, owner, attribute names, hook). ``owner`` is a class
#: name inside ``module`` or None for module-level functions, which are
#: replaced where the caller looks them up.
ENTRY_POINTS = (
    ("sim", "repro.sim.kernel", "Simulation", ("run", "step"), None),
    ("telemetry", "repro.telemetry.tree", "SpanTree", ("from_tracer",), _count_spans_walked),
    ("telemetry", "repro.telemetry.tree", "SpanTree", ("iterations",), None),
    ("telemetry", "repro.bench.harness", "IterationTiming", ("from_span_tree",), None),
    ("na", "repro.na.fabric", "Fabric", ("send", "recv", "rdma_pull", "rdma_push"), None),
    ("margo", "repro.margo.instance", "MargoInstance",
     ("forward", "provider_call", "bulk_pull"), None),
    ("ssg", "repro.ssg.agent", "SSGAgent", ("start", "leave"), None),
    ("mona", "repro.mona.comm", "MonaComm",
     ("barrier", "bcast", "reduce", "allreduce", "gather", "scatter", "allgather",
      "alltoall", "send", "recv", "sendrecv", "isend", "irecv"), None),
    ("icet", "repro.icet.context", None, ("reduce_to_root", "binary_swap"), None),
    ("vtk.filters", "repro.core.pipelines.scripts", None,
     ("contour", "clip_polydata", "merge_blocks", "resample_to_image"), None),
    ("vtk.render", "repro.core.pipelines.scripts", None, ("rasterize", "volume_render"), None),
    ("catalyst", "repro.catalyst.coprocessor", "CoProcessor", ("coprocess",), None),
    ("core", "repro.core.client", "DistributedPipelineHandle",
     ("activate", "stage", "execute", "deactivate"), None),
    ("core", "repro.bench.harness", "ColzaExperiment", ("add_servers_with_pipeline",), None),
    ("core", "repro.core.daemon", "Deployment", ("remove_server",), None),
    ("apps", "repro.apps.mandelbulb", "MandelbulbBlock", ("generate",), None),
    ("apps", "repro.apps.dwi", "DWIProxyRank", ("read_iteration",), None),
)

#: Every layer the traced run reports, in report order.
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in ENTRY_POINTS))


def install() -> LayerTimer:
    """Wrap every entry point in :data:`ENTRY_POINTS`; returns the timer."""
    timer = LayerTimer()
    for layer, module_name, owner_name, names, hook in ENTRY_POINTS:
        module = importlib.import_module(module_name)
        owner: Any = getattr(module, owner_name) if owner_name else module
        for name in names:
            raw = owner.__dict__[name] if owner_name else getattr(module, name)
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(_wrap(timer, layer, raw.__func__, hook))
            else:
                wrapped = _wrap(timer, layer, raw, hook)
            setattr(owner, name, wrapped)
    return timer
