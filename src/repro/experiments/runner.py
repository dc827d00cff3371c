"""Parallel multi-cell experiment runner.

Every figure reproduction is a grid of independent *cells* — one
(scenario, scheduler) simulation each. :func:`run_cells` maps a pure
function over the cells' specs in ``jobs`` processes and returns the
values in the cells' own order; if any cell failed it raises
:class:`SweepError` naming every failed key with its traceback.

Determinism guarantee
---------------------
A cell's result is a pure function of its spec. Two things make that true:

* **Spec-only reconstruction** — a cell ships only plain data (scenario
  kwargs, a scheduler spec); the worker rebuilds the topology, background
  load, event queue and scheduler from seeds.
* **Hermetic id counters** — flow/event ids come from process-global
  counters, and flow ids feed the planner's ECMP path hash, so the runner
  resets both counters to zero around every cell (and restores them
  afterwards when running in-process). A cell therefore computes the same
  bits whether it runs first or last, in the parent or in a forked worker,
  with ``jobs=1`` or ``jobs=32``.

Consequently ``run_cells(cells, jobs=N)`` is byte-identical to
``run_cells(cells, jobs=1)`` for every N, and a killed sweep is simply
run again.
"""

from __future__ import annotations

import importlib
import multiprocessing
import multiprocessing.connection
import traceback
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.event import event_id_state, set_event_id_state
from repro.core.flow import flow_id_state, set_flow_id_state
from repro.sim.metrics import RunMetrics


class SweepError(RuntimeError):
    """One or more cells raised or lost their worker.

    ``failures`` maps every failed key, in cell order, to its traceback
    (or to the worker's exit code when the worker died without one).
    """

    def __init__(self, failures: dict[str, str]):
        self.failures = dict(failures)
        details = "".join(f"\n--- {key} ---\n{error.rstrip()}"
                          for key, error in failures.items())
        super().__init__(f"{len(failures)} cell(s) failed: "
                         f"{', '.join(failures)}{details}")


@dataclass(frozen=True)
class Cell:
    """One unit of sweep work, executable in any process.

    Attributes:
        key: unique id within the sweep; the merge key.
        fn: ``"package.module:function"`` reference resolved in the worker.
        params: plain-data kwargs for ``fn``. The return value must pickle
            (it crosses a process boundary when ``jobs > 1``).
    """

    key: str
    fn: str
    params: dict


# --------------------------------------------------------------- execution


def resolve_cell_fn(ref: str) -> Callable:
    """Resolve a ``"package.module:function"`` reference."""
    module_name, sep, attr = ref.partition(":")
    if not sep or not module_name or not attr:
        raise ValueError(f"cell fn must look like 'pkg.module:function', "
                         f"got {ref!r}")
    module = importlib.import_module(module_name)
    return getattr(module, attr)


@contextmanager
def hermetic_ids():
    """Run a block with the flow/event id counters reset to zero, restoring
    the previous counter state afterwards (see the module docstring)."""
    saved_flow, saved_event = flow_id_state(), event_id_state()
    set_flow_id_state(0)
    set_event_id_state(0)
    try:
        yield
    finally:
        set_flow_id_state(saved_flow)
        set_event_id_state(saved_event)


def execute_cell(cell: Cell) -> Any:
    """Run one cell hermetically in the current process."""
    fn = resolve_cell_fn(cell.fn)
    with hermetic_ids():
        return fn(**cell.params)


def _worker_main(conn, cell: Cell) -> None:
    """Child-process entry: run the cell, ship back ("ok", value) or
    ("error", traceback). A worker that exits without either is reported
    by its exit code."""
    try:
        conn.send(("ok", execute_cell(cell)))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


# ------------------------------------------------------------------- sweep


def run_cells(cells: list[Cell], jobs: int = 1) -> dict[str, Any]:
    """Map :func:`execute_cell` over ``cells`` in ``jobs`` processes.

    Args:
        cells: the sweep; keys must be unique.
        jobs: worker processes. ``1`` runs everything in-process (no pool),
            which is also the reference order for determinism tests.

    Returns:
        ``{cell.key: value}`` in ``cells`` order regardless of completion
        order — the canonical merge order that makes parallel results
        byte-identical to sequential ones.

    Raises:
        SweepError: after every cell has run, if any raised or its worker
            died.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    seen: set[str] = set()
    for cell in cells:
        if cell.key in seen:
            raise ValueError(f"duplicate cell key {cell.key!r}")
        seen.add(cell.key)

    values: dict[str, Any] = {}
    failures: dict[str, str] = {}

    def finish(key: str, ok: bool, payload: Any) -> None:
        (values if ok else failures)[key] = payload

    if jobs == 1 or len(cells) <= 1:
        for cell in cells:
            try:
                value = execute_cell(cell)
            except Exception:
                finish(cell.key, False, traceback.format_exc())
            else:
                finish(cell.key, True, value)
    else:
        _run_pool(cells, jobs, finish)
    if failures:
        raise SweepError({cell.key: failures[cell.key] for cell in cells
                          if cell.key in failures})
    return {cell.key: values[cell.key] for cell in cells}


def _pool_context():
    """Prefer fork: workers inherit imported modules and ``sys.path``, so
    cell fn references resolve exactly as they do in the parent."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def _run_pool(cells: list[Cell], jobs: int,
              finish: Callable[[str, bool, Any], None]) -> None:
    ctx = _pool_context()
    pending = deque(cells)
    # key -> (process, receiving end)
    running: dict[str, tuple[Any, Any]] = {}
    try:
        while pending or running:
            while pending and len(running) < jobs:
                cell = pending.popleft()
                recv, send = ctx.Pipe(duplex=False)
                process = ctx.Process(target=_worker_main,
                                      args=(send, cell), daemon=True)
                process.start()
                send.close()
                running[cell.key] = (process, recv)
            # A worker is ready once it sent its message or exited.
            multiprocessing.connection.wait(
                [p.sentinel for p, _ in running.values()]
                + [conn for _, conn in running.values()])
            for key, (process, conn) in list(running.items()):
                message = None
                # Liveness first: a worker that exits between the two checks
                # has already written its message, so the poll still sees it.
                alive = process.is_alive()
                if conn.poll():
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        pass
                elif alive:
                    continue
                conn.close()
                process.join()
                del running[key]
                if message is None:
                    finish(key, False, f"worker died without a result "
                                       f"(exit code {process.exitcode})")
                else:
                    status, payload = message
                    finish(key, status == "ok", payload)
    finally:
        for process, _ in running.values():
            process.terminate()
        for process, conn in running.values():
            process.join(timeout=5.0)
            if process.is_alive():
                process.kill()
            conn.close()


# ------------------------------------------------------- experiment cells


def scenario_spec(scenario) -> dict:
    """JSON-serializable kwargs that rebuild a
    :class:`~repro.experiments.common.Scenario` in a worker."""
    from dataclasses import asdict
    return {"utilization": scenario.utilization, "seed": scenario.seed,
            "events": scenario.events, "churn": scenario.churn,
            "event_config": asdict(scenario.event_config),
            "defaults": asdict(scenario.defaults)}


def simulate_cell(scenario: dict, scheduler: dict,
                  round_barrier: str = "completion",
                  compile_mode: str = "atomic",
                  compile_epsilon: float = 0.0) -> dict:
    """Worker: one scheduler over one scenario, from spec to metrics.

    Rebuilds the scenario (topology, background load, event queue) and the
    scheduler from their specs, runs the simulation, and returns::

        {"metrics": RunMetrics.to_dict(), "achieved_utilization": float}

    Callers must wrap this in :func:`hermetic_ids` (``run_cells`` does) so
    the rebuilt flows get the same ids regardless of process history.
    """
    from repro.experiments.common import ExperimentDefaults, Scenario
    from repro.sched import build_scheduler
    from repro.traces.events import EventGeneratorConfig

    spec = dict(scenario)
    if "event_config" in spec:
        spec["event_config"] = EventGeneratorConfig(**spec["event_config"])
    if "defaults" in spec:
        spec["defaults"] = ExperimentDefaults(**spec["defaults"])
    built = Scenario(**spec)
    queue = built.generate_events()
    simulator = built.simulator(build_scheduler(scheduler),
                                round_barrier=round_barrier,
                                compile_mode=compile_mode,
                                compile_epsilon=compile_epsilon)
    simulator.submit(queue)
    metrics = simulator.run()
    return {"metrics": metrics.to_dict(),
            "achieved_utilization": built.achieved_utilization}


# ------------------------------------------------------------ grid helper


@dataclass
class RowResult:
    """Merged metrics of one grid row (one scenario, many schedulers)."""

    metrics: dict[str, RunMetrics]
    achieved_utilization: float | None = None

    def __getitem__(self, name: str) -> RunMetrics:
        return self.metrics[name]


@dataclass(frozen=True)
class GridRow:
    """One scenario row of a scheduler grid.

    Attributes:
        key: unique row id (becomes the cell-key prefix).
        scenario: the :class:`~repro.experiments.common.Scenario`.
        schedulers: scheduler spec dicts (see
            :func:`repro.sched.build_scheduler`).
        round_barrier: simulator round-barrier semantics for the row.
        compile_mode, compile_epsilon: plan-compilation mode for the row
            (:mod:`repro.core.compile`).
    """

    key: str
    scenario: Any
    schedulers: tuple[dict, ...]
    round_barrier: str = "completion"
    compile_mode: str = "atomic"
    compile_epsilon: float = 0.0


def run_scheduler_grid(rows: list[GridRow], jobs: int | None = None
                       ) -> dict[str, RowResult]:
    """Run a (scenario row x scheduler) grid through :func:`run_cells`.

    Every (row, scheduler) pair is a hermetic :class:`Cell` that rebuilds
    its scenario from the row's spec, so a row's metrics depend on that row
    alone — not on the rows or schedulers before it — and the merged result
    is the same bytes for any ``jobs`` (``None`` means one process).
    """
    from repro.sched import scheduler_name

    cells = []
    labels: list[tuple[str, str]] = []  # (row key, scheduler name)
    for row in rows:
        spec = scenario_spec(row.scenario)
        for sched in row.schedulers:
            name = scheduler_name(sched)
            cells.append(Cell(
                key=f"{row.key}/{name}",
                fn="repro.experiments.runner:simulate_cell",
                params={"scenario": spec, "scheduler": dict(sched),
                        "round_barrier": row.round_barrier,
                        "compile_mode": row.compile_mode,
                        "compile_epsilon": row.compile_epsilon}))
            labels.append((row.key, name))
    values = run_cells(cells, jobs=jobs or 1)
    merged: dict[str, RowResult] = {}
    for cell, (row_key, name) in zip(cells, labels):
        payload = values[cell.key]
        result = merged.setdefault(row_key, RowResult(metrics={}))
        result.metrics[name] = RunMetrics.from_dict(payload["metrics"])
        if result.achieved_utilization is None:
            result.achieved_utilization = payload["achieved_utilization"]
    return merged
