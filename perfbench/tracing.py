"""Wall-clock spans around the public entry points of each layer.

The benchmark's traced run (``--trace 1``) wraps, from outside the
package, the calls that cross a layer boundary: ``exec`` (executor sweep,
request execution, result-store reads and flushes), ``topology``
(system lookup and build), ``node`` (construction and copy/reduce
pricing), ``mpi`` (world construction), ``xhc`` / ``mpi.colls`` (every
resume of a Communicator collective generator, split by component
family) and ``sim`` (``Engine.run`` / ``ArrayEngine.run``). Nothing under
``src/`` changes; :meth:`Tracer.uninstall` restores every attribute.

A span's *self time* is its duration minus the time its child spans
cover, so the self times of all layers tile the traced interval. The
self time of an outermost span that has children (``exec.run_many`` on a
sweep, ``exec.execute`` on a checked point) is kept apart as *container*
time: it is whatever no layer span below the entry point explains. Coarse
spans (one per request or sweep) are kept as records — name, start, end,
parent, op id — and written out at exit; hot spans (pricing calls and
generator resumes, millions per run) are only aggregated into per-name
call counts, total and self time, which keeps memory bounded.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from time import perf_counter_ns


class Tracer:
    def __init__(self) -> None:
        self.records: list[tuple] = []  # (id, name, start, end, parent, op)
        self.agg: dict[str, list[int]] = {}  # name -> [calls, total, self]
        self.events = 0                      # sim events under sim.run
        self.container_ns = 0                # see the module docstring
        self.op = None                      # id of the op being answered
        self._ids = itertools.count()
        self._local = threading.local()
        self._undo: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, record: bool):
        """Run ``fn`` inside a span; a call nested directly in a span of
        the same name (e.g. ``plan_copy`` -> ``plan_copy_span``) is part
        of the outer one."""
        stack = self._stack()
        if stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        parent = stack[-1][3] if stack else -1
        frame = [name, perf_counter_ns(), 0,
                 next(self._ids) if record else parent]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            dur = end - frame[1]
            entry = self.agg.get(name)
            if entry is None:
                entry = self.agg[name] = [0, 0, 0]
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - frame[2]
            if stack:
                stack[-1][2] += dur
            elif frame[2]:
                self.container_ns += dur - frame[2]
            if record:
                self.records.append((frame[3], name, frame[1], end, parent,
                                     self.op))

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a recorded span."""
        return self.call(name, fn, args, kwargs, True)

    def forward(self, name: str, gen):
        """A generator that forwards to ``gen`` and times each resume."""
        call = self.call
        value, error = None, None
        while True:
            try:
                if error is None:
                    item = call(name, gen.send, (value,), {}, False)
                else:
                    item = call(name, gen.throw, (error,), {}, False)
            except StopIteration as stop:
                return stop.value
            value, error = None, None
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into ``gen``
                error = exc

    # -- install / uninstall ---------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name: str,
             record: bool = True) -> None:
        fn = getattr(owner, attr)
        call = self.call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name, fn, args, kwargs, record)
        self._patch(owner, attr, wrapper)

    def install(self) -> None:
        import repro.exec.api as api
        import repro.exec.executor as executor
        import repro.exec.worker as worker
        import repro.topology as topology
        from repro.exec.cache import ResultCache
        from repro.mpi.world import Communicator, World
        from repro.node import Node
        from repro.sim.array_engine import ArrayEngine
        from repro.sim.engine import Engine

        self.wrap(executor.Executor, "run_many", "exec.run_many")
        execute = worker.execute
        traced_execute = functools.wraps(execute)(
            lambda *a, **k: self.call("exec.execute", execute, a, k, True))
        for module in (executor, api, worker):
            self._patch(module, "execute", traced_execute)
        self.wrap(ResultCache, "get", "exec.cache.get", record=False)
        self.wrap(ResultCache, "save", "exec.cache.save")
        self.wrap(worker, "get_topology", "topology.get", record=False)
        self.wrap(topology, "get_system", "topology.build")
        self.wrap(Node, "__init__", "node.init")
        for attr in ("plan_copy", "plan_copy_span", "copy_terms_span",
                     "commit_copy_span"):
            self.wrap(Node, attr, "node.plan_copy", record=False)
        for attr in ("plan_reduce", "reduce_terms", "commit_reduce_span"):
            self.wrap(Node, attr, "node.plan_reduce", record=False)
        self.wrap(World, "__init__", "mpi.world_build")
        self.wrap(World, "communicator", "mpi.world_build")
        for cls in (Engine, ArrayEngine):
            self._patch(cls, "run", self._traced_run(cls.__dict__["run"]))
        for kind in ("bcast", "allreduce", "reduce", "barrier"):
            self._patch(Communicator, kind,
                        self._traced_collective(getattr(Communicator, kind)))

    def _traced_run(self, run):
        tracer = self

        @functools.wraps(run)
        def traced(engine, *args, **kwargs):
            before = engine.events_processed
            try:
                return tracer.call("sim.run", run, (engine,) + args, kwargs,
                                   True)
            finally:
                tracer.events += engine.events_processed - before
        return traced

    def _traced_collective(self, method):
        tracer = self

        @functools.wraps(method)
        def traced(comm, *args, **kwargs):
            family = ("xhc" if type(comm.component).__module__
                      .startswith("repro.xhc") else "mpi.colls")
            return tracer.forward(family + ".gen",
                                  method(comm, *args, **kwargs))
        return traced

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def seconds(self, name: str, which: int = 2) -> float:
        """Self (``which=2``) or total (``which=1``) seconds of a span."""
        entry = self.agg.get(name)
        return entry[which] / 1e9 if entry else 0.0

    def calls(self, name: str) -> int:
        entry = self.agg.get(name)
        return entry[0] if entry else 0

    def merge(self, other: dict) -> None:
        """Add another process's aggregate (see :meth:`summary`)."""
        for name, (calls, total, self_ns) in other["agg"].items():
            entry = self.agg.setdefault(name, [0, 0, 0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_ns
        self.events += other["events"]
        self.container_ns += other["container_ns"]

    def summary(self) -> dict:
        return {"agg": self.agg, "events": self.events,
                "container_ns": self.container_ns}

    def layer_seconds(self) -> float:
        """Self seconds of every span except container time."""
        return (sum(entry[2] for entry in self.agg.values())
                - self.container_ns) / 1e9

    def write(self, path, extra: dict | None = None) -> None:
        doc = {"fields": ["id", "name", "start_ns", "end_ns", "parent",
                          "op"],
               "spans": self.records,
               **self.summary(), **(extra or {})}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
