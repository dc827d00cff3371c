"""Parallel multi-cell experiment runner with checkpoint/resume.

Every figure reproduction is a grid of independent *cells* — one
(scenario, scheduler) simulation each. This module runs them in one
process or fans them out to worker processes, merges the results back in a
canonical order, and persists each completed cell to a JSONL checkpoint so
an interrupted sweep resumes instead of recomputing.

Determinism guarantee
---------------------
A cell's result is a pure function of its spec. Two things make that true:

* **Spec-only reconstruction** — a cell ships only JSON-serializable data
  (scenario kwargs, a scheduler spec); the worker rebuilds the topology,
  background load, event queue and scheduler from seeds.
* **Hermetic id counters** — flow/event ids come from process-global
  counters, and flow ids feed the planner's ECMP path hash, so the runner
  resets both counters to zero around every cell (and restores them
  afterwards when running in-process). A cell therefore computes the same
  bits whether it runs first or last, in the parent or in a forked worker,
  with ``jobs=1`` or ``jobs=32``.

Consequently ``run_cells(cells, jobs=N)`` is byte-identical to
``run_cells(cells, jobs=1)`` for every N, and a killed sweep resumed from
its checkpoint merges to the same bytes as an uninterrupted one.

Checkpoint format
-----------------
One JSON object per line, appended as cells complete::

    {"key": "trial=0/lmtf", "status": "ok", "fingerprint": "9f3c...",
     "attempts": 1, "elapsed": 12.41, "value": {...}}

``fingerprint`` hashes the cell's function reference and params; the loader
ignores entries whose fingerprint no longer matches, so a checkpoint from a
differently-parameterized sweep is never trusted. A malformed line (e.g.
the torn tail of a killed append) is skipped with a warning and its cell is
recomputed. Failed cells are recorded with their traceback (``status:
"failed"``) and retried on resume.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing
import multiprocessing.connection
import time
import traceback
import warnings
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.core.event import event_id_state, set_event_id_state
from repro.core.flow import flow_id_state, set_flow_id_state
from repro.core.ioutil import payload_fingerprint
from repro.sim.metrics import RunMetrics

#: Seconds the pool sleeps between polls of its workers.
_POLL_INTERVAL = 0.05


class SweepError(RuntimeError):
    """One or more cells failed after exhausting their retries."""

    def __init__(self, failures: dict[str, str]):
        self.failures = dict(failures)
        keys = ", ".join(list(failures)[:5])
        super().__init__(f"{len(failures)} cell(s) failed: {keys}")


@dataclass(frozen=True)
class Cell:
    """One unit of sweep work, executable in any process.

    Attributes:
        key: unique id within the sweep; the checkpoint and merge key.
        fn: ``"package.module:function"`` reference resolved in the worker.
        params: JSON-serializable kwargs for ``fn``. The return value must
            also be JSON-serializable (it lands in the checkpoint).
    """

    key: str
    fn: str
    params: dict

    def fingerprint(self) -> str:
        """Stable hash of (fn, params) guarding checkpoint reuse."""
        return payload_fingerprint([self.fn, self.params])


@dataclass
class CellOutcome:
    """What happened to one cell by the end of the sweep."""

    key: str
    status: str  # "ok" | "failed"
    value: Any = None
    error: str | None = None
    attempts: int = 1
    elapsed: float = 0.0
    cached: bool = False  # served from the checkpoint, not recomputed

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class SweepListener:
    """Progress callbacks: every hook defaults to a no-op so
    implementations override only what they need."""

    def on_sweep_start(self, total: int, resumed: int, jobs: int) -> None:
        """The sweep is about to run ``total - resumed`` cells."""

    def on_cell_start(self, key: str, attempt: int) -> None:
        """A cell was handed to a worker (or started in-process)."""

    def on_cell_done(self, key: str, elapsed: float, done: int,
                     total: int) -> None:
        """A cell completed successfully."""

    def on_cell_failed(self, key: str, error: str, attempt: int,
                       will_retry: bool) -> None:
        """A cell raised, crashed, or timed out."""

    def on_cell_resumed(self, key: str) -> None:
        """A cell was served from the checkpoint without recomputing."""

    def on_sweep_end(self, completed: int, failed: int,
                     elapsed: float) -> None:
        """The sweep finished (before any strict-mode raise)."""


class PrintProgress(SweepListener):
    """Narrates sweep progress through a ``print``-like callable."""

    def __init__(self, emit: Callable[[str], None] = print):
        self._emit = emit

    def on_sweep_start(self, total, resumed, jobs):
        mode = f"{jobs} worker(s)" if jobs > 1 else "sequential"
        self._emit(f"sweep: {total} cell(s), {resumed} from checkpoint, "
                   f"{mode}")

    def on_cell_start(self, key, attempt):
        retry = f" (attempt {attempt})" if attempt > 1 else ""
        self._emit(f"  run {key}{retry}")

    def on_cell_done(self, key, elapsed, done, total):
        self._emit(f"  [{done}/{total}] {key} done in {elapsed:.1f}s")

    def on_cell_failed(self, key, error, attempt, will_retry):
        verdict = "retrying" if will_retry else "giving up"
        reason = error.strip().splitlines()[-1] if error else "unknown"
        self._emit(f"  FAILED {key} (attempt {attempt}, {verdict}): "
                   f"{reason}")

    def on_cell_resumed(self, key):
        self._emit(f"  skip {key} (checkpointed)")

    def on_sweep_end(self, completed, failed, elapsed):
        self._emit(f"sweep: {completed} ok, {failed} failed "
                   f"in {elapsed:.1f}s")


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


def _worker_main(conn, fn_ref: str, params: dict) -> None:
    """Child-process entry: run the cell, ship back ("ok", value) or
    ("error", traceback)."""
    try:
        fn = resolve_cell_fn(fn_ref)
        with hermetic_ids():
            value = fn(**params)
        conn.send(("ok", value))
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except Exception:
            pass
    finally:
        conn.close()


# -------------------------------------------------------------- checkpoint


def load_checkpoint(path: str | Path | None) -> dict[str, dict]:
    """Parse a checkpoint file into ``{key: entry}``.

    Malformed lines — typically the torn tail of a write interrupted by a
    kill — are skipped with a warning rather than trusted, so their cells
    get recomputed. Later entries for a key supersede earlier ones.
    """
    entries: dict[str, dict] = {}
    if path is None:
        return entries
    target = Path(path)
    if not target.exists():
        return entries
    lines = target.read_text(encoding="utf-8").splitlines()
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            where = ("trailing line" if index == len(lines) - 1
                     else f"line {index + 1}")
            warnings.warn(
                f"checkpoint {target}: skipping malformed {where} "
                f"(torn write?); its cell will be recomputed",
                RuntimeWarning, stacklevel=2)
            continue
        if not isinstance(entry, dict) or "key" not in entry:
            warnings.warn(
                f"checkpoint {target}: skipping entry without a key at "
                f"line {index + 1}", RuntimeWarning, stacklevel=2)
            continue
        entries[entry["key"]] = entry
    return entries


class _CheckpointWriter:
    """Appends one JSON line per completed cell, flushed immediately."""

    def __init__(self, path: str | Path | None, fresh: bool):
        self._handle = None
        if path is not None:
            target = Path(path)
            target.parent.mkdir(parents=True, exist_ok=True)
            self._handle = open(target, "w" if fresh else "a",
                                encoding="utf-8")

    def record(self, outcome: CellOutcome, fingerprint: str) -> None:
        if self._handle is None:
            return
        entry = {"key": outcome.key, "status": outcome.status,
                 "fingerprint": fingerprint,
                 "attempts": outcome.attempts,
                 "elapsed": round(outcome.elapsed, 3)}
        if outcome.ok:
            entry["value"] = outcome.value
        else:
            entry["error"] = outcome.error
        self._handle.write(json.dumps(entry) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


# -------------------------------------------------------------------- pool


@dataclass
class _Running:
    cell: Cell
    attempt: int
    process: Any
    conn: Any
    started: float = field(default_factory=time.monotonic)


def _pool_context():
    """Prefer fork: workers inherit imported modules and ``sys.path``, so
    cell fn references resolve exactly as they do in the parent."""
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def run_cells(cells: list[Cell], jobs: int = 1,
              checkpoint: str | Path | None = None, resume: bool = False,
              timeout: float | None = None, retries: int = 1,
              listener: SweepListener | None = None,
              strict: bool = True) -> dict[str, CellOutcome]:
    """Run every cell, in parallel when ``jobs > 1``, and merge canonically.

    Args:
        cells: the sweep; keys must be unique. The returned dict preserves
            ``cells`` order regardless of completion order — the canonical
            merge order that makes parallel results byte-identical to
            sequential ones.
        jobs: worker processes. ``1`` runs everything in-process (no pool),
            which is also the reference order for determinism tests.
        checkpoint: JSONL path persisting each completed cell. Without
            ``resume`` an existing file is overwritten (a fresh sweep).
        resume: trust matching ``status: ok`` checkpoint entries instead of
            recomputing their cells. Failed/mismatched entries rerun.
        timeout: per-attempt wall-clock limit in seconds; a cell past it is
            killed and counts as a failed attempt. Only enforced with
            ``jobs > 1`` (an in-process cell cannot be preempted safely).
        retries: additional attempts after a failure/crash/timeout before
            the cell is recorded as failed.
        listener: progress narration hooks.
        strict: raise :class:`SweepError` if any cell still failed at the
            end. With ``strict=False`` failed cells appear in the result
            with ``status: "failed"`` and their traceback.

    Returns:
        ``{cell.key: CellOutcome}`` in ``cells`` order.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    seen: set[str] = set()
    for cell in cells:
        if cell.key in seen:
            raise ValueError(f"duplicate cell key {cell.key!r}")
        seen.add(cell.key)
    listener = listener or SweepListener()

    outcomes: dict[str, CellOutcome] = {}
    previous = load_checkpoint(checkpoint) if resume else {}
    to_run: list[Cell] = []
    resumed: list[str] = []
    for cell in cells:
        entry = previous.get(cell.key)
        if (entry is not None and entry.get("status") == "ok"
                and entry.get("fingerprint") == cell.fingerprint()):
            outcomes[cell.key] = CellOutcome(
                key=cell.key, status="ok", value=entry.get("value"),
                attempts=entry.get("attempts", 1),
                elapsed=entry.get("elapsed", 0.0), cached=True)
            resumed.append(cell.key)
        else:
            to_run.append(cell)

    # resume appends to the existing file (cached entries persist);
    # a non-resume sweep starts the checkpoint fresh.
    writer = _CheckpointWriter(checkpoint, fresh=not resume)
    started = time.monotonic()
    listener.on_sweep_start(len(cells), len(resumed), jobs)
    for key in resumed:
        listener.on_cell_resumed(key)
    try:
        done_count = len(cells) - len(to_run)

        def finish(cell: Cell, outcome: CellOutcome) -> None:
            nonlocal done_count
            outcomes[cell.key] = outcome
            writer.record(outcome, cell.fingerprint())
            if outcome.ok:
                done_count += 1
                listener.on_cell_done(cell.key, outcome.elapsed,
                                      done_count, len(cells))

        if jobs == 1 or len(to_run) <= 1:
            _run_serial(to_run, retries, listener, finish)
        else:
            _run_pool(to_run, jobs, timeout, retries, listener, finish)
    finally:
        writer.close()

    failures = {k: o.error or "unknown error"
                for k, o in outcomes.items() if not o.ok}
    listener.on_sweep_end(sum(1 for o in outcomes.values() if o.ok),
                          len(failures), time.monotonic() - started)
    if strict and failures:
        raise SweepError(failures)
    return {cell.key: outcomes[cell.key] for cell in cells}


def _run_serial(cells: list[Cell], retries: int, listener: SweepListener,
                finish: Callable[[Cell, CellOutcome], None]) -> None:
    for cell in cells:
        for attempt in range(1, retries + 2):
            listener.on_cell_start(cell.key, attempt)
            t0 = time.monotonic()
            try:
                value = execute_cell(cell)
            except Exception:
                error = traceback.format_exc()
                will_retry = attempt <= retries
                listener.on_cell_failed(cell.key, error, attempt,
                                        will_retry)
                if not will_retry:
                    finish(cell, CellOutcome(
                        key=cell.key, status="failed", error=error,
                        attempts=attempt,
                        elapsed=time.monotonic() - t0))
                continue
            finish(cell, CellOutcome(
                key=cell.key, status="ok", value=value, attempts=attempt,
                elapsed=time.monotonic() - t0))
            break


def _run_pool(cells: list[Cell], jobs: int, timeout: float | None,
              retries: int, listener: SweepListener,
              finish: Callable[[Cell, CellOutcome], None]) -> None:
    ctx = _pool_context()
    pending: deque[tuple[Cell, int]] = deque((c, 1) for c in cells)
    running: dict[str, _Running] = {}

    def fail(worker: _Running, error: str) -> None:
        will_retry = worker.attempt <= retries
        listener.on_cell_failed(worker.cell.key, error, worker.attempt,
                                will_retry)
        if will_retry:
            pending.append((worker.cell, worker.attempt + 1))
        else:
            finish(worker.cell, CellOutcome(
                key=worker.cell.key, status="failed", error=error,
                attempts=worker.attempt,
                elapsed=time.monotonic() - worker.started))

    try:
        while pending or running:
            while pending and len(running) < jobs:
                cell, attempt = pending.popleft()
                recv, send = ctx.Pipe(duplex=False)
                process = ctx.Process(
                    target=_worker_main, args=(send, cell.fn, cell.params),
                    daemon=True)
                listener.on_cell_start(cell.key, attempt)
                process.start()
                send.close()
                running[cell.key] = _Running(cell=cell, attempt=attempt,
                                             process=process, conn=recv)
            if not running:
                continue
            multiprocessing.connection.wait(
                [w.conn for w in running.values()], timeout=_POLL_INTERVAL)
            now = time.monotonic()
            for key in list(running):
                worker = running[key]
                message = None
                if worker.conn.poll():
                    try:
                        message = worker.conn.recv()
                    except (EOFError, OSError):
                        message = ("crash",
                                   f"worker died without a result (exit "
                                   f"code {worker.process.exitcode})")
                elif not worker.process.is_alive():
                    message = ("crash",
                               f"worker exited with code "
                               f"{worker.process.exitcode} before "
                               f"reporting a result")
                elif (timeout is not None
                        and now - worker.started > timeout):
                    worker.process.terminate()
                    worker.process.join(timeout=5.0)
                    if worker.process.is_alive():
                        worker.process.kill()
                        worker.process.join()
                    message = ("timeout",
                               f"cell exceeded {timeout:.0f}s and was "
                               f"killed")
                if message is None:
                    continue
                worker.conn.close()
                worker.process.join()
                del running[key]
                status, payload = message
                if status == "ok":
                    finish(worker.cell, CellOutcome(
                        key=key, status="ok", value=payload,
                        attempts=worker.attempt,
                        elapsed=now - worker.started))
                else:
                    fail(worker, payload)
    finally:
        for worker in running.values():
            worker.process.terminate()
        for worker in running.values():
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():
                worker.process.kill()
            worker.conn.close()


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


def run_scheduler_grid(rows: list[GridRow], jobs: int | None = None,
                       checkpoint: str | Path | None = None,
                       resume: bool = False,
                       timeout: float | None = None, retries: int = 1,
                       listener: SweepListener | None = None,
                       ) -> dict[str, RowResult]:
    """Run a (scenario row x scheduler) grid through :func:`run_cells`.

    Every (row, scheduler) pair is a hermetic :class:`Cell` that rebuilds
    its scenario from the row's spec, so a row's metrics depend on that row
    alone — not on the rows or schedulers before it — and the merged result
    is the same bytes for any ``jobs`` (``None`` means one process) and
    after an interruption plus ``resume``.
    """
    from repro.sched import scheduler_name

    cells = []
    labels: list[tuple[str, str]] = []  # (row key, scheduler name)
    for row in rows:
        spec = scenario_spec(row.scenario)
        # Atomic rows omit the compile keys, so their cell fingerprints —
        # and the checkpoints keyed by them — are those of a plain row.
        compile_params = ({} if row.compile_mode == "atomic" else
                          {"compile_mode": row.compile_mode,
                           "compile_epsilon": row.compile_epsilon})
        for sched in row.schedulers:
            name = scheduler_name(sched)
            cells.append(Cell(
                key=f"{row.key}/{name}",
                fn="repro.experiments.runner:simulate_cell",
                params={"scenario": spec, "scheduler": dict(sched),
                        "round_barrier": row.round_barrier,
                        **compile_params}))
            labels.append((row.key, name))
    outcomes = run_cells(cells, jobs=jobs or 1, checkpoint=checkpoint,
                         resume=resume, timeout=timeout, retries=retries,
                         listener=listener)
    merged: dict[str, RowResult] = {}
    for cell, (row_key, name) in zip(cells, labels):
        payload = outcomes[cell.key].value
        result = merged.setdefault(row_key, RowResult(metrics={}))
        result.metrics[name] = RunMetrics.from_dict(payload["metrics"])
        if result.achieved_utilization is None:
            result.achieved_utilization = payload["achieved_utilization"]
    return merged
