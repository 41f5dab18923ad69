"""Span recording for the traced benchmark run.

Every span wraps one call into a layer's public API, made from the
benchmark's own code: the platform's transport, the simulator's
``advance_to``, the feature extractor and the simhash function it
references, the store's write path, and the analysis entry points.
Nothing inside ``src/`` is edited; wrappers are installed on instances
(or, in a spawned partition worker, on classes) and removed afterwards.

A span records its name, start, end, parent, run id and the CPU time of
the thread that ran it (``time.thread_time``).  Self time is the span's
own time minus the time of the spans it caused.  The simulator's
transport coroutines never suspend, so a span around one is exact; the
tracer checks that every span closes on top of its thread's stack and
raises if one does not, so an interleaved span can never go unnoticed.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from dataclasses import dataclass, field


#: Layers whose self CPU the ledger adds up.  A parent span's self CPU
#: is what its children did not account for, so summing self CPU over
#: every span never counts a CPU second twice.
LEAF_LAYERS = (
    "cloudsim.advance", "cloudsim.probe", "cloudsim.get", "cloudsim.banner",
    "features.extract", "features.simhash",
    "store.write_shards", "store.write_shard", "store.begin_round",
    "store.finalize_round", "store.scan",
    "workers.startup", "workers.rebuild", "workers.merge",
    "analysis.load", "analysis.threshold", "analysis.level2",
    "analysis.cluster",
)


@dataclass
class LayerTotals:
    """Aggregate of every closed span with one name."""

    calls: int = 0
    wall: float = 0.0
    cpu: float = 0.0
    self_wall: float = 0.0
    self_cpu: float = 0.0
    items: int = 0

    def add(self, other: "LayerTotals") -> None:
        self.calls += other.calls
        self.wall += other.wall
        self.cpu += other.cpu
        self.self_wall += other.self_wall
        self.self_cpu += other.self_cpu
        self.items += other.items


@dataclass
class _Open:
    span_id: int
    parent: int | None
    name: str
    start: float
    cpu0: float
    child_wall: float = 0.0
    child_cpu: float = 0.0


@dataclass
class Tracer:
    """In-memory span recorder, one per traced run."""

    run_id: str
    #: Closed spans: (span_id, parent_id, name, start, end, cpu, run_id).
    spans: list = field(default_factory=list)
    totals: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> _Open:
        stack = self._stack()
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        span = _Open(
            span_id, stack[-1].span_id if stack else None, name,
            time.perf_counter(), time.thread_time(),
        )
        stack.append(span)
        return span

    def end(self, span: _Open, items: int = 0) -> None:
        cpu = time.thread_time() - span.cpu0
        end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} closed out of order: a wrapped call "
                "suspended while another span was open"
            )
        stack.pop()
        wall = end - span.start
        if stack:
            stack[-1].child_wall += wall
            stack[-1].child_cpu += cpu
        with self._lock:
            self.spans.append((
                span.span_id, span.parent, span.name, span.start, end, cpu,
                self.run_id,
            ))
            totals = self.totals.get(span.name)
            if totals is None:
                totals = self.totals[span.name] = LayerTotals()
            totals.calls += 1
            totals.wall += wall
            totals.cpu += cpu
            totals.self_wall += wall - span.child_wall
            totals.self_cpu += cpu - span.child_cpu
            totals.items += items

    def wrap(self, name: str, fn, *, items=None):
        """``fn`` wrapped in a span; ``items(args)`` counts its work."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span, items(args) if items else 0)

        return traced

    def wrap_iter(self, name: str, fn):
        """Wrap a generator method: the span covers each ``next()``
        (time spent producing rows), not the consumer's work between
        them; ``items`` counts rows produced."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            iterator = iter(fn(*args, **kwargs))
            while True:
                span = self.begin(name)
                try:
                    row = next(iterator)
                except StopIteration:
                    self.end(span)
                    return
                except BaseException:
                    self.end(span)
                    raise
                self.end(span, 1)
                yield row

        return traced

    def layer(self, name: str) -> LayerTotals:
        return self.totals.get(name, LayerTotals())

    def leaf_self_cpu(self) -> float:
        return sum(self.layer(name).self_cpu for name in LEAF_LAYERS)

    def merge_totals(self, other: dict[str, LayerTotals]) -> None:
        for name, totals in other.items():
            self.totals.setdefault(name, LayerTotals()).add(totals)

    def totals_dict(self) -> dict:
        return {
            name: vars(totals).copy() for name, totals in self.totals.items()
        }


class TracingTransport:
    """A pass-through :class:`~repro.core.transport.Transport` that
    records one span per probe, GET and banner read — the same wrapping
    shape as a latency-injecting transport, with zero delay."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer

    def __getattr__(self, name):
        return getattr(self.inner, name)

    async def probe(self, ip, port, timeout):
        span = self.tracer.begin("cloudsim.probe")
        try:
            return await self.inner.probe(ip, port, timeout)
        finally:
            self.tracer.end(span)

    async def banner(self, ip, port, timeout):
        span = self.tracer.begin("cloudsim.banner")
        try:
            return await self.inner.banner(ip, port, timeout)
        finally:
            self.tracer.end(span)

    async def get(self, ip, scheme, path, **kwargs):
        span = self.tracer.begin("cloudsim.get")
        try:
            return await self.inner.get(ip, scheme, path, **kwargs)
        finally:
            self.tracer.end(span)


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list = []

    def set(self, owner, name: str, value) -> None:
        had = name in vars(owner)
        self._undo.append((owner, name, had, vars(owner).get(name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, had, old = self._undo.pop()
            if had:
                setattr(owner, name, old)
            else:
                delattr(owner, name)


def _records_of(payloads) -> int:
    return sum(len(payload.records) for payload in payloads)


def trace_store(tracer: Tracer, patches: Patches, store,
                *, shard_layer: str = "store.write_shard") -> None:
    """Wrap a store instance's write path.  ``write_shard`` calls the
    coordinator makes while merging partition journals are recorded
    under *shard_layer* so the merge shows as its own layer."""
    patches.set(store, "write_shards", tracer.wrap(
        "store.write_shards", store.write_shards,
        items=lambda args: _records_of(args[1]),
    ))
    trace_shard_writes(tracer, patches, store, shard_layer)
    for name in ("begin_round", "finalize_round"):
        patches.set(store, name, tracer.wrap(f"store.{name}",
                                             getattr(store, name)))


def trace_shard_writes(tracer: Tracer, patches: Patches, store,
                       layer: str) -> None:
    """Wrap a store instance's single-shard ``write_shard``."""
    patches.set(store, "write_shard", tracer.wrap(
        layer, store.write_shard, items=lambda args: len(args[2]),
    ))


def trace_features_module(tracer: Tracer, patches: Patches) -> None:
    """Wrap ``simhash`` as the features module references it, so only
    cache misses (real computations) are counted."""
    from repro.core import features

    patches.set(features, "compute_simhash",
                tracer.wrap("features.simhash", features.compute_simhash))


def trace_child_classes(tracer: Tracer, patches: Patches) -> None:
    """Class-level wrappers for a spawned partition worker, which
    builds its own simulator, extractor and journal store."""
    from repro.cloudsim.simulation import CloudSimulation
    from repro.core.features import FeatureExtractor
    from repro.core.store import MeasurementStore

    trace_features_module(tracer, patches)
    patches.set(CloudSimulation, "advance_to",
                tracer.wrap("cloudsim.advance", CloudSimulation.advance_to))
    patches.set(FeatureExtractor, "extract",
                tracer.wrap("features.extract", FeatureExtractor.extract))
    # Unbound: args[0] is the store itself.
    patches.set(MeasurementStore, "write_shards", tracer.wrap(
        "store.write_shards", MeasurementStore.write_shards,
        items=lambda args: _records_of(args[2]),
    ))
    for name in ("begin_round", "finalize_round"):
        patches.set(MeasurementStore, name, tracer.wrap(
            f"store.{name}", getattr(MeasurementStore, name)
        ))


@dataclass(frozen=True)
class TracedTransportFactory:
    """Picklable transport factory for spawned partition workers.

    In the worker it installs the class-level wrappers once, wraps the
    rebuilt transport in a :class:`TracingTransport`, and registers a
    finalizer that writes the worker's layer totals and its own process
    CPU to *out_dir* when the worker exits."""

    inner: object
    out_dir: str
    run_id: str

    def __call__(self, timestamp: int):
        tracer = _child_tracer(self.out_dir, self.run_id)
        inner = tracer.wrap("workers.rebuild", self.inner)(timestamp)
        return TracingTransport(inner, tracer)


_CHILD: dict = {}


def _child_tracer(out_dir: str, run_id: str) -> Tracer:
    tracer = _CHILD.get("tracer")
    if tracer is None:
        import multiprocessing.util

        tracer = _CHILD["tracer"] = Tracer(run_id)
        # Interpreter start, imports and unpickling the task: everything
        # the worker spent before the platform first asked for work.
        startup = time.process_time()
        tracer.totals["workers.startup"] = LayerTotals(
            calls=1, cpu=startup, self_cpu=startup
        )
        trace_child_classes(tracer, Patches())
        path = os.path.join(out_dir, f"child-{os.getpid()}.json")
        multiprocessing.util.Finalize(
            None, _dump_child, args=(tracer, path), exitpriority=100
        )
    return tracer


def _dump_child(tracer: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"cpu": time.process_time(),
                   "spans": len(tracer.spans),
                   "totals": tracer.totals_dict()}, handle)


def read_child_totals(out_dir: str) -> tuple[dict[str, LayerTotals], float, int]:
    """Sum the layer totals every worker wrote; returns
    ``(totals, reported worker CPU, worker count)``."""
    totals: dict[str, LayerTotals] = {}
    cpu = 0.0
    count = 0
    for name in sorted(os.listdir(out_dir)):
        if not (name.startswith("child-") and name.endswith(".json")):
            continue
        with open(os.path.join(out_dir, name), encoding="utf-8") as handle:
            data = json.load(handle)
        count += 1
        cpu += data["cpu"]
        for layer, values in data["totals"].items():
            totals.setdefault(layer, LayerTotals()).add(LayerTotals(**values))
    return totals, cpu, count
