"""Span tracing of the system's layers, from outside the system.

The benchmark may not edit ``src/``, so the layers are measured by wrapping
their public functions from here. :class:`Tracer` records one span per call
— name, start, end, parent — into flat columns held in memory;
:func:`self_times` turns them into per-span self time (duration minus the
part covered by child spans) and :func:`budget` folds those into a table
whose rows sum to the wall time of the root span.

Tracing costs time (two clock reads and four appends per wrapped call), so
end-to-end metrics always come from untraced runs; the traced run states
its own overhead as ``trace.overhead_pct``.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from array import array
from contextlib import contextmanager

#: Root spans. Everything a workload does sits under one of them.
SETUP = "bench.setup"
RUN = "bench.run"

#: Spans whose cost belongs to whoever called them: ``os.fsync`` serves the
#: journal (one per record) and the checkpoint writer alike.
NAMED_BY_PARENT = frozenset({"os.fsync"})


def self_times(starts, ends, parents) -> list[int]:
    """Per-span self time: duration minus the durations of direct children.

    Spans come from one thread, so the children of a span are disjoint and
    lie inside it; subtracting their durations is subtracting the part of
    the interval they cover.
    """
    selfs = [end - start for start, end in zip(starts, ends)]
    for index, parent in enumerate(parents):
        if parent >= 0:
            selfs[parent] -= ends[index] - starts[index]
    return selfs


class Tracer:
    """In-memory span recorder plus the monkey-patching that feeds it."""

    def __init__(self, run_id: str = "") -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("i")
        self.start_col = array("q")
        self.end_col = array("q")
        self.parent_col = array("i")
        self._current = [-1]  # innermost open span (a cell the wrappers share)
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def name_id(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def _open(self, ident: int) -> int:
        index = len(self.start_col)
        self.name_col.append(ident)
        self.parent_col.append(self._current[0])
        self.end_col.append(0)
        self._current[0] = index
        self.start_col.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.end_col[index] = time.perf_counter_ns()
        self._current[0] = self.parent_col[index]

    @contextmanager
    def span(self, name: str):
        """Record one span around the ``with`` body."""
        index = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn, name: str):
        """``fn`` with a span named ``name`` around every call.

        :meth:`_open` and :meth:`_close` written out inline: the hottest
        wrapped functions run for about a microsecond, so two more Python
        calls per span would double what tracing adds to them.
        """
        ident = self.name_id(name)
        current = self._current
        starts, ends, parents = self.start_col, self.end_col, self.parent_col
        add_name, add_parent = self.name_col.append, parents.append
        add_start, add_end = starts.append, ends.append
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            add_name(ident)
            parent = current[0]
            add_parent(parent)
            add_end(0)
            current[0] = index
            add_start(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                current[0] = parent
        return traced

    def wrap_iterator(self, iterator, name: str):
        """``iterator`` with a span around every ``next``."""
        ident = self.name_id(name)
        while True:
            index = self._open(ident)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._close(index)
            yield item

    # ------------------------------------------------------------- patching

    def patch_method(self, cls, attr: str, name: str) -> None:
        """Wrap ``cls.attr`` (a plain method defined on ``cls`` itself)."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name))

    def patch_function(self, module, attr: str, name: str,
                       importers: str | None = "repro") -> None:
        """Wrap module-level ``module.attr`` everywhere it was imported.

        ``from m import f`` copies the function into the importer's
        namespace, so the wrapper replaces every such copy in the loaded
        modules of the ``importers`` package, not only the home module's.
        """
        original = getattr(module, attr)
        wrapped = self.wrap(original, name)
        holders = [module]
        if importers is not None:
            holders += [
                mod for modname, mod in list(sys.modules.items())
                if mod is not module and mod is not None
                and (modname == importers
                     or modname.startswith(importers + "."))]
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._patches.append((holder, key, original))
                    setattr(holder, key, wrapped)

    def patch_tagged_callbacks(self, cls) -> None:
        """Span every engine callback, named by its tag family
        (``churn:bg-17`` → ``cb.churn``)."""
        original = cls.__dict__["__call__"]
        ids: dict[str, int] = {}
        open_span, close_span = self._open, self._close

        def traced_call(callback):
            family = callback.tag.partition(":")[0]
            ident = ids.get(family)
            if ident is None:
                ident = ids[family] = self.name_id("cb." + family)
            index = open_span(ident)
            try:
                return original(callback)
            finally:
                close_span(index)

        self._patches.append((cls, "__call__", original))
        cls.__call__ = traced_call

    def restore(self) -> None:
        """Put every patched attribute back (reverse order)."""
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    # -------------------------------------------------------------- reading

    def aggregate(self) -> dict:
        """Fold the spans into ``{"table": {root: {name: [calls, self_ns,
        total_ns]}}, "wall_ns": {root: duration}, "under_ns": {(parent
        name, name): total_ns}}``; ``total_ns`` sums whole durations,
        children included. Spans named in :data:`NAMED_BY_PARENT` are split
        by caller (``os.fsync@<parent>``)."""
        selfs = self_times(self.start_col, self.end_col, self.parent_col)
        names = self.names
        roots: list[int] = []
        table: dict[str, dict[str, list[int]]] = {}
        wall: dict[str, int] = {}
        under: dict[tuple[str, str], int] = {}
        for index, ident in enumerate(self.name_col):
            parent = self.parent_col[index]
            root = index if parent < 0 else roots[parent]
            roots.append(root)
            name = names[ident]
            if name in NAMED_BY_PARENT and parent >= 0:
                name = f"{name}@{names[self.name_col[parent]]}"
            root_name = names[self.name_col[root]]
            if parent < 0:
                wall[root_name] = (wall.get(root_name, 0)
                                   + self.end_col[index]
                                   - self.start_col[index])
            row = table.setdefault(root_name, {}).setdefault(name, [0, 0, 0])
            row[0] += 1
            row[1] += selfs[index]
            row[2] += self.end_col[index] - self.start_col[index]
            if parent >= 0:
                edge = (names[self.name_col[parent]], name)
                under[edge] = (under.get(edge, 0) + self.end_col[index]
                               - self.start_col[index])
        return {"table": table, "wall_ns": wall, "under_ns": under}

    def dump(self, path: str | os.PathLike) -> None:
        """Write the raw spans as one JSON document (columnar)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"run_id": self.run_id, "names": self.names,
                       "name": list(self.name_col),
                       "start_ns": list(self.start_col),
                       "end_ns": list(self.end_col),
                       "parent": list(self.parent_col)}, handle)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of ``repro`` that the budget names.

    Each row is one public function; the span name is
    ``<layer>.<function>`` and :data:`LAYER_OF_SPAN` maps it to the
    per-layer metric its self time feeds.
    """
    import repro.cli  # noqa: F401 — pulls in the modules patched below
    import repro.core.compile as compile_mod
    import repro.core.ordering as ordering_mod
    import repro.core.ioutil as ioutil_mod
    import repro.sim.service  # noqa: F401 — imports build_checkpoint by name
    import repro.sim.snapshot as snapshot_mod
    from repro.core.executor import PlanExecutor
    from repro.core.migration import MigrationPlanner
    from repro.core.planner import EventPlanner
    from repro.network.network import Network
    from repro.network.routing.provider import PathProvider
    from repro.sched import SCHEDULER_KINDS
    from repro.sched.cache import ProbeCache
    from repro.sched.learned.features import FeatureExtractor
    from repro.sched.learned.model import OnlineRidge
    from repro.sched.learned.scheduler import LearnedLMTFScheduler
    from repro.sched.lmtf import LMTFScheduler
    from repro.sched.plmtf import PLMTFScheduler
    from repro.sched.staged import StagedCompileMixin
    from repro.sim.audit import LifecycleAuditor
    from repro.sim.engine import SimulationEngine, TaggedCallback
    from repro.sim.hooks import HookBus
    from repro.sim.journal import JournalWriter
    from repro.sim.lifecycle import EventLifecycle
    from repro.sim.metrics import MetricsCollector
    from repro.sim.pipeline import RoundPipeline
    from repro.traces.background import BackgroundLoader

    method = tracer.patch_method
    method(SimulationEngine, "step", "engine.step")
    tracer.patch_tagged_callbacks(TaggedCallback)
    method(RoundPipeline, "maybe_round", "pipeline.maybe_round")
    method(RoundPipeline, "enqueue", "pipeline.enqueue")
    method(EventLifecycle, "advance", "lifecycle.advance")
    method(EventLifecycle, "register", "lifecycle.register")
    method(HookBus, "emit", "hooks.emit")
    method(LifecycleAuditor, "audit", "audit.audit")
    for cls in sorted({c for c in SCHEDULER_KINDS.values()
                       if "select" in vars(c)}, key=lambda c: c.__name__):
        method(cls, "select", "sched.select")
    method(LMTFScheduler, "probe_event", "sched.probe_event")
    method(PLMTFScheduler, "merge_batch", "sched.merge_batch")
    method(ProbeCache, "lookup", "sched.cache_lookup")
    method(LearnedLMTFScheduler, "probe_targets", "learned.probe_targets")
    method(FeatureExtractor, "extract", "learned.extract")
    method(OnlineRidge, "update", "learned.update")
    method(StagedCompileMixin, "predict_stages", "staged.predict_stages")
    method(EventPlanner, "plan_event", "planner.plan_event")
    method(EventPlanner, "plan_event_probed", "planner.plan_event_probed")
    method(MigrationPlanner, "make_room", "migration.make_room")
    tracer.patch_function(compile_mod, "compile_plan", "compile.compile_plan")
    tracer.patch_function(ordering_mod, "find_safe_order",
                          "ordering.find_safe_order")
    method(PlanExecutor, "execute", "executor.execute")
    method(Network, "place", "network.place")
    method(Network, "remove", "network.remove")
    method(Network, "copy", "network.copy")
    method(PathProvider, "paths", "routing.paths")
    method(BackgroundLoader, "best_path", "traces.best_path")
    method(JournalWriter, "append", "journal.append")
    tracer.patch_function(os, "fsync", "os.fsync", importers=None)
    tracer.patch_function(snapshot_mod, "build_checkpoint",
                          "snapshot.build_checkpoint")
    tracer.patch_function(ioutil_mod, "atomic_write_text",
                          "snapshot.atomic_write_text")
    method(MetricsCollector, "export_state", "metrics.export_state")


#: Span name → the per-layer ``_ms`` metric its self time is charged to.
#: Every span :func:`install` or the harness can produce appears here, so
#: the budget has no silent rows.
LAYER_OF_SPAN = {
    "engine.step": "engine.self_ms",
    "cb.round": "engine.self_ms",
    "cb.end-round": "engine.self_ms",
    "cb.arrival": "engine.self_ms",
    "cb.flow-finish": "pipeline.flow_finish_ms",
    "cb.service": "service.callback_self_ms",
    "cb.churn": "churn.self_ms",
    "cb.fault": "faults.self_ms",
    "cb.heal": "faults.self_ms",
    "pipeline.maybe_round": "pipeline.round_self_ms",
    "pipeline.enqueue": "pipeline.enqueue_ms",
    "lifecycle.advance": "lifecycle.advance_ms",
    "lifecycle.register": "lifecycle.advance_ms",
    "hooks.emit": "hooks.emit_self_ms",
    "audit.audit": "audit.audit_ms",
    "sched.select": "sched.select_self_ms",
    "sched.probe_event": "sched.select_self_ms",
    "sched.cache_lookup": "sched.select_self_ms",
    "sched.merge_batch": "sched.merge_batch_ms",
    "learned.probe_targets": "sched.learned_rank_ms",
    "learned.extract": "sched.learned_rank_ms",
    "learned.update": "sched.learned_rank_ms",
    "staged.predict_stages": "sched.staged_predict_ms",
    "planner.plan_event": "planner.plan_self_ms",
    "planner.plan_event_probed": "planner.plan_self_ms",
    "migration.make_room": "migration.make_room_ms",
    "compile.compile_plan": "compile.compile_self_ms",
    "ordering.find_safe_order": "ordering.safe_order_ms",
    "executor.execute": "executor.execute_self_ms",
    "network.place": "network.place_remove_ms",
    "network.remove": "network.place_remove_ms",
    "network.copy": "network.copy_ms",
    "routing.paths": "routing.paths_ms",
    "traces.best_path": "traces.best_path_ms",
    "traces.stream_next": "traces.stream_next_ms",
    "journal.append": "journal.append_self_ms",
    "os.fsync@journal.append": "journal.fsync_ms",
    "os.fsync@bench.run": "journal.fsync_ms",  # JournalWriter.open
    "os.fsync@snapshot.atomic_write_text": "snapshot.write_ms",
    "snapshot.build_checkpoint": "snapshot.build_ms",
    "snapshot.atomic_write_text": "snapshot.write_ms",
    "metrics.export_state": "metrics.export_state_ms",
}


def budget(aggregate: dict, root: str = RUN) -> dict:
    """The time budget of ``root``: self ms per layer metric, the root's
    own self time as ``unaccounted``, and their sum, which equals the
    root's wall time."""
    rows: dict[str, float] = {}
    unaccounted = 0.0
    for name, (_calls, self_ns, _total) in aggregate["table"].get(
            root, {}).items():
        if name == root:
            unaccounted += self_ns / 1e6
            continue
        layer = LAYER_OF_SPAN.get(name, "unmapped." + name)
        rows[layer] = rows.get(layer, 0.0) + self_ns / 1e6
    wall = aggregate["wall_ns"].get(root, 0) / 1e6
    return {"rows": rows, "unaccounted_ms": unaccounted, "wall_ms": wall}
